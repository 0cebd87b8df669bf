//! Dense-vs-sparse solver equivalence on the paper's two canonical
//! transients.
//!
//! The sparse subsystem (symbolic analysis + numeric refactor) must be a
//! pure performance change: for any circuit, forcing either backend — or
//! letting the dimension-based auto selection pick — has to reproduce the
//! same waveforms to well below the paper's noise-metric resolution. Two
//! fixtures cover the two regimes:
//!
//! * the **non-linear inverter glitch** (MOSFET Newton iterations, tiny
//!   matrix, auto → dense), and
//! * the **segmented coupled-bus** victim/aggressor pair (linear but large,
//!   auto → sparse).

use sna::prelude::*;

const TOL: f64 = 1e-9;

/// Inverter receiving a triangular glitch on its (high) input while the
/// output holds low — the propagated-noise fixture of the paper's
/// characterization suite, Newton-iterated at every time step.
fn inverter_glitch_circuit() -> (Circuit, NodeId, String) {
    let tech = Technology::cmos130();
    let cell = Cell::inv(tech.clone(), 1.0);
    let mode = cell.holding_high_mode();
    let mut fx = driver_fixture(&cell, &mode).expect("inverter fixture");
    fx.ckt
        .add_capacitor("Cload", fx.out, Circuit::gnd(), 5e-15)
        .expect("load cap");
    let q_in = mode.input_levels[mode.noisy_input];
    fx.ckt
        .set_source_wave(
            &fx.noisy_source,
            SourceWaveform::TriangleGlitch {
                v_base: q_in,
                v_peak: q_in + 0.6 * tech.vdd,
                t_start: 50.0 * PS,
                t_rise: 100.0 * PS,
                t_fall: 100.0 * PS,
            },
        )
        .expect("glitch source");
    (fx.ckt, fx.out, fx.noisy_source)
}

/// 500 µm victim/aggressor pair, finely segmented so the MNA dimension is
/// far above the sparse auto threshold.
fn coupled_bus_circuit(segments: usize) -> (Circuit, NodeId) {
    let w = WireGeom::new(500.0 * UM, 0.2e6, 40e-12);
    let bus = CoupledBus::parallel_pair(w, w, 90e-12, segments);
    let mut ckt = Circuit::new();
    let nets = bus.instantiate(&mut ckt, "n").expect("bus instantiation");
    ckt.add_vsource(
        "Vagg",
        nets[1].near,
        Circuit::gnd(),
        SourceWaveform::Ramp {
            v0: 0.0,
            v1: 1.2,
            t_start: 0.1 * NS,
            t_rise: 100.0 * PS,
        },
    );
    ckt.add_resistor("Rhold", nets[0].near, Circuit::gnd(), 2e3)
        .expect("holding resistor");
    (ckt, nets[0].far)
}

/// Fixed-step transients across every backend selection agree to `TOL`.
fn assert_fixed_step_agreement(ckt: &Circuit, probe: NodeId, t_stop: f64, dt: f64) {
    let reference = {
        let mut p = TranParams::new(t_stop, dt);
        p.newton.solver = SolverKind::Dense;
        transient(ckt, &p).expect("dense transient")
    };
    let ref_wave = reference.node_waveform(probe);
    assert!(
        ref_wave.max_value().is_finite(),
        "reference waveform must be finite"
    );
    for kind in [SolverKind::Sparse, SolverKind::Auto] {
        let mut p = TranParams::new(t_stop, dt);
        p.newton.solver = kind;
        let res = transient(ckt, &p).expect("transient");
        let diff = ref_wave.max_abs_difference(&res.node_waveform(probe));
        assert!(diff < TOL, "{kind:?} deviates from dense by {diff:.3e}");
    }
}

#[test]
fn inverter_glitch_waveforms_identical_on_both_paths() {
    let (ckt, out, _) = inverter_glitch_circuit();
    assert_fixed_step_agreement(&ckt, out, 0.8 * NS, 1.0 * PS);
}

#[test]
fn coupled_bus_waveforms_identical_on_both_paths() {
    // 60 segments → 123 unknowns: above SPARSE_AUTO_THRESHOLD, so the Auto
    // run exercises the sparse backend while Dense stays the reference.
    let (ckt, far) = coupled_bus_circuit(60);
    let mna_dim = 2 * (60 + 1) + 1;
    assert!(
        SolverKind::Auto.is_sparse_for(mna_dim),
        "fixture must be large enough for auto → sparse"
    );
    assert_fixed_step_agreement(&ckt, far, 0.6 * NS, 2.0 * PS);
}

#[test]
fn dc_operating_point_identical_on_both_paths() {
    let (ckt, _, _) = inverter_glitch_circuit();
    let mut solutions = Vec::new();
    for kind in [SolverKind::Dense, SolverKind::Sparse, SolverKind::Auto] {
        let opts = NewtonOptions {
            solver: kind,
            ..Default::default()
        };
        let sol = dc_operating_point(&ckt, &opts, None).expect("dc operating point");
        solutions.push(sol.unknowns().to_vec());
    }
    for sol in &solutions[1..] {
        for (a, b) in solutions[0].iter().zip(sol) {
            assert!((a - b).abs() < TOL, "DC mismatch: {a} vs {b}");
        }
    }
}

#[test]
fn workspace_reuse_matches_fresh_runs() {
    // The characterization sweeps rebuild only the source waveform between
    // transients; the shared workspace must not leak state across runs.
    let (mut ckt, out, noisy) = inverter_glitch_circuit();
    let params = TranParams::new(0.5 * NS, 1.0 * PS);
    let mut ws = TranWorkspace::new(&ckt, SolverKind::Auto).expect("workspace");
    let first = transient_with(&ckt, &params, &mut ws, &[], None).expect("first run");
    // Different glitch, same topology.
    ckt.set_source_wave(
        &noisy,
        SourceWaveform::TriangleGlitch {
            v_base: 1.2,
            v_peak: 0.4,
            t_start: 60.0 * PS,
            t_rise: 80.0 * PS,
            t_fall: 120.0 * PS,
        },
    )
    .expect("swap glitch");
    let reused = transient_with(&ckt, &params, &mut ws, &[], None).expect("reused run");
    let fresh = transient(&ckt, &params).expect("fresh run");
    let diff = reused
        .node_waveform(out)
        .max_abs_difference(&fresh.node_waveform(out));
    assert!(diff < TOL, "workspace reuse deviates by {diff:.3e}");
    // And the first run's result must differ (the source really changed).
    let changed = first
        .node_waveform(out)
        .max_abs_difference(&reused.node_waveform(out));
    assert!(changed > 1e-6, "glitch swap should change the waveform");
}

#[test]
fn workspace_rejects_element_value_change() {
    // The workspace's matrices are assembled at construction; a changed
    // element value must be rejected, not silently simulated stale.
    let build = |rhold: f64| {
        // Same topology (node/element counts unchanged), different value.
        let (mut ckt, far) = coupled_bus_circuit(10);
        ckt.add_resistor("Rextra", far, Circuit::gnd(), rhold)
            .expect("extra resistor");
        ckt
    };
    let ckt = build(1e4);
    let params = TranParams::new(0.2 * NS, 2.0 * PS);
    let mut ws = TranWorkspace::new(&ckt, SolverKind::Auto).expect("workspace");
    transient_with(&ckt, &params, &mut ws, &[], None).expect("first run");
    let altered = build(2e4);
    assert_eq!(altered.node_count(), ckt.node_count());
    let err = transient_with(&altered, &params, &mut ws, &[], None)
        .expect_err("value change must be refused");
    assert!(
        err.to_string().contains("element values changed"),
        "unexpected error: {err}"
    );
}
