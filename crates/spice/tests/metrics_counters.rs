//! Counter-accuracy tests: the `sna-obs` deltas recorded by a transient
//! analysis must match hand-checked values, not just "be nonzero".
//!
//! Every test uses [`sna_obs::local_snapshot`] deltas — the calling
//! thread's own recorder — so concurrent tests in this binary (or the rest
//! of the workspace's test run) cannot leak counts into the assertions.

use sna_obs::{local_snapshot, Metric};
use sna_spice::devices::{MosPolarity, MosfetModel, SourceWaveform};
use sna_spice::netlist::Circuit;
use sna_spice::solver::SolverKind;
use sna_spice::sweep::BatchedSweep;
use sna_spice::tran::{transient_with, TranParams, TranWorkspace};
use sna_spice::units::{NS, PS};

/// Linear RC ladder, `n_nodes` unknowns plus one source row.
fn ladder(n_nodes: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("n0");
    ckt.add_vsource(
        "Vin",
        prev,
        Circuit::gnd(),
        SourceWaveform::Ramp {
            v0: 0.0,
            v1: 1.2,
            t_start: 0.1 * NS,
            t_rise: 100.0 * PS,
        },
    );
    for i in 1..n_nodes {
        let next = ckt.node(&format!("n{i}"));
        ckt.add_resistor(&format!("R{i}"), prev, next, 50.0)
            .unwrap();
        ckt.add_capacitor(&format!("C{i}"), next, Circuit::gnd(), 2e-15)
            .unwrap();
        prev = next;
    }
    ckt
}

/// CMOS inverter hit by an input glitch — Newton iterations every step.
fn inverter() -> Circuit {
    let nmos = MosfetModel {
        polarity: MosPolarity::Nmos,
        vt0: 0.32,
        kp: 2.5e-4,
        lambda: 0.15,
        gamma: 0.4,
        phi: 0.7,
        cox: 0.012,
        cgso: 3e-10,
        cgdo: 3e-10,
        cj: 8e-10,
    };
    let pmos = MosfetModel {
        polarity: MosPolarity::Pmos,
        vt0: -0.34,
        kp: 1.0e-4,
        ..nmos
    };
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource("Vdd", vdd, Circuit::gnd(), SourceWaveform::Dc(1.2));
    ckt.add_vsource(
        "Vin",
        inp,
        Circuit::gnd(),
        SourceWaveform::TriangleGlitch {
            v_base: 1.2,
            v_peak: 0.2,
            t_start: 0.2 * NS,
            t_rise: 150.0 * PS,
            t_fall: 150.0 * PS,
        },
    );
    ckt.add_mosfet(
        "Mn",
        out,
        inp,
        Circuit::gnd(),
        Circuit::gnd(),
        nmos,
        0.42e-6,
        0.13e-6,
    )
    .unwrap();
    ckt.add_mosfet("Mp", out, inp, vdd, vdd, pmos, 0.64e-6, 0.13e-6)
        .unwrap();
    ckt.add_capacitor("Cl", out, Circuit::gnd(), 10e-15)
        .unwrap();
    ckt
}

/// Non-linear dense fixed-dt: every Newton iteration (DC init + per-step)
/// factors the Jacobian exactly once, and only the very first factor is
/// cold — so `refactors == total Newton iterations − 1` exactly.
#[test]
fn inverter_glitch_counters_match_hand_check() {
    let ckt = inverter();
    let mut ws = TranWorkspace::new(&ckt, SolverKind::Dense).unwrap();
    let mut params = TranParams::new(1.0 * NS, 1.0 * PS);
    params.newton.solver = SolverKind::Dense;
    let before = local_snapshot();
    let res = transient_with(&ckt, &params, &mut ws).unwrap();
    let d = local_snapshot().since(&before);
    let steps = (1.0 * NS / (1.0 * PS)).round() as u64;

    assert_eq!(d.get(Metric::TranCalls), 1);
    assert_eq!(d.get(Metric::TranSteps), steps);
    assert_eq!(
        d.get(Metric::TranNewtonIterations),
        res.newton_iterations as u64,
        "counter must agree with the returned diagnostic"
    );
    // The accepted/rejected counters belong to a step-size controller no
    // transient runs any more; they stay in the schema and read 0.
    assert_eq!(d.get(Metric::TranAcceptedSteps), 0);
    assert_eq!(d.get(Metric::TranRejectedSteps), 0);
    // One DC operating-point solve for the initial condition, converged
    // without the continuation ladder.
    assert_eq!(d.get(Metric::DcSolves), 1);
    assert_eq!(d.get(Metric::DcGminFallbacks), 0);
    assert_eq!(d.get(Metric::DcSourceStepFallbacks), 0);
    let dc_iters = d.get(Metric::DcNewtonIterations);
    assert!(dc_iters >= 2, "non-linear DC takes several iterations");
    // The hand-check: one Jacobian factorization per Newton iteration,
    // cold only the first time ever on this workspace.
    let total_newton = dc_iters + res.newton_iterations as u64;
    assert_eq!(d.get(Metric::SolverFactorsDense), 1);
    assert_eq!(d.get(Metric::SolverRefactorsDense), total_newton - 1);
    // ... and one back-substitution per iteration, nothing hidden.
    assert_eq!(d.get(Metric::SolverSolves), total_newton);
    assert_eq!(d.get(Metric::SolverFactorsSparse), 0);
    assert_eq!(d.get(Metric::SolverColdFallbacks), 0);
}

/// Linear dense fixed-dt: one cold factor at the DC alpha, one refactor at
/// the transient alpha, one solve per step plus the DC solve — Newton
/// never iterates.
#[test]
fn linear_ladder_counters_match_hand_check() {
    let ckt = ladder(16);
    let mut ws = TranWorkspace::new(&ckt, SolverKind::Dense).unwrap();
    let mut params = TranParams::new(1.0 * NS, 2.0 * PS);
    params.newton.solver = SolverKind::Dense;
    let before = local_snapshot();
    let res = transient_with(&ckt, &params, &mut ws).unwrap();
    let d = local_snapshot().since(&before);
    let steps = (1.0 * NS / (2.0 * PS)).round() as u64;

    assert_eq!(res.newton_iterations, 0);
    assert_eq!(d.get(Metric::TranSteps), steps);
    assert_eq!(d.get(Metric::TranNewtonIterations), 0);
    assert_eq!(d.get(Metric::DcSolves), 1);
    // Linear DC is a single direct solve.
    assert_eq!(d.get(Metric::DcNewtonIterations), 1);
    // The DC factor (α = 0) is the cold one; the transient base factor
    // (α = 1/dt) reuses the pivot structure as a refactor.
    assert_eq!(d.get(Metric::SolverFactorsDense), 1);
    assert_eq!(d.get(Metric::SolverRefactorsDense), 1);
    assert_eq!(d.get(Metric::SolverSolves), steps + 1);
}

/// K-lane sweep: each lane is a serial workspace, so every lane counts
/// exactly what the serial linear-ladder hand check counts, in the `dc`,
/// `tran` and `solver` counters; the sweep itself counts one call of four
/// lanes, and its three per-lane work counters, which no code sets, read 0.
#[test]
fn batched_sweep_counters_match_hand_check() {
    let base = ladder(16);
    let lanes: Vec<Circuit> = (0..4)
        .map(|i| {
            let mut ckt = base.clone();
            ckt.set_source_wave(
                "Vin",
                SourceWaveform::Ramp {
                    v0: 0.0,
                    v1: 0.3 * (i + 1) as f64,
                    t_start: 0.1 * NS,
                    t_rise: 100.0 * PS,
                },
            )
            .unwrap();
            ckt
        })
        .collect();
    let mut sweep = BatchedSweep::new(&lanes, SolverKind::Dense).unwrap();
    let mut params = TranParams::new(1.0 * NS, 2.0 * PS);
    params.newton.solver = SolverKind::Dense;
    let before = local_snapshot();
    sweep.transient(&lanes, &params).unwrap();
    let d = local_snapshot().since(&before);
    let steps = (1.0 * NS / (2.0 * PS)).round() as u64;

    assert_eq!(d.get(Metric::SweepCalls), 1);
    assert_eq!(d.get(Metric::SweepLanes), 4);
    assert_eq!(d.get(Metric::SweepSteps), 0);
    assert_eq!(d.get(Metric::SweepLaneNewtonIterations), 0);
    assert_eq!(d.get(Metric::SweepSerialFallbacks), 0);
    // Per lane: one transient with its DC initial condition, a single
    // direct solve (linear).
    assert_eq!(d.get(Metric::TranCalls), 4);
    assert_eq!(d.get(Metric::TranSteps), 4 * steps);
    assert_eq!(d.get(Metric::TranNewtonIterations), 0);
    assert_eq!(d.get(Metric::DcSolves), 4);
    assert_eq!(d.get(Metric::DcNewtonIterations), 4);
    // Per lane: the cold DC factor, the transient base refactor, and one
    // solve per step plus the DC solve. The workspaces were built before
    // the snapshot, so no solver selection is counted.
    assert_eq!(d.get(Metric::SolverDenseSelected), 0);
    assert_eq!(d.get(Metric::SolverFactorsDense), 4);
    assert_eq!(d.get(Metric::SolverRefactorsDense), 4);
    assert_eq!(d.get(Metric::SolverSolves), 4 * (steps + 1));
}
