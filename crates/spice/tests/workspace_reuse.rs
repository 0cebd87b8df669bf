//! A reused [`TranWorkspace`] must give the analysis a fresh one gives.
//!
//! Characterization grids run every DC point and transient of one circuit
//! on one workspace, changing only source waveforms between runs. On the
//! dense solver each run equals [`dc_operating_point`]/[`transient`] on
//! the same circuit bit for bit, because every dense factorization redoes
//! its pivot search. The sparse solver replays the stored pivot sequence of
//! an earlier factorization, so it is held to the tolerances
//! callers rely on: linear circuits within 1e-9, non-linear ones within
//! the Newton tolerance band (`vntol` = 1e-6).

use sna_spice::dc::{dc_operating_point, NewtonOptions};
use sna_spice::devices::{MosPolarity, MosfetModel, SourceWaveform};
use sna_spice::netlist::Circuit;
use sna_spice::solver::SolverKind;
use sna_spice::tran::{transient, transient_with, TranParams, TranWorkspace};
use sna_spice::units::{NS, PS};

/// RC ladder with `n_nodes` chain nodes driven by the ramp source `Vin`;
/// `scale` stretches every element value.
fn ladder(n_nodes: usize, scale: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("n0");
    ckt.add_vsource("Vin", prev, Circuit::gnd(), ramp(0.0, 1.2));
    for i in 1..n_nodes {
        let next = ckt.node(&format!("n{i}"));
        ckt.add_resistor(&format!("R{i}"), prev, next, 50.0 * scale)
            .unwrap();
        ckt.add_capacitor(&format!("C{i}"), next, Circuit::gnd(), 2e-15 * scale)
            .unwrap();
        prev = next;
    }
    ckt
}

fn ramp(v0: f64, v1: f64) -> SourceWaveform {
    SourceWaveform::Ramp {
        v0,
        v1,
        t_start: 0.1 * NS,
        t_rise: 100.0 * PS,
    }
}

/// CMOS inverter whose input `Vin` rests at `v_base` and glitches to
/// `v_peak`.
fn glitch(v_base: f64, v_peak: f64) -> SourceWaveform {
    SourceWaveform::TriangleGlitch {
        v_base,
        v_peak,
        t_start: 0.1 * NS,
        t_rise: 100.0 * PS,
        t_fall: 100.0 * PS,
    }
}

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
    ckt.add_vsource("Vin", inp, Circuit::gnd(), glitch(1.2, 0.5));
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

/// `{:?}` prints every `f64` in its shortest round-trip form, so equal
/// strings are equal bits, the sign of zero included. It covers every field
/// of a result: times, node and branch traces, names and iteration counts.
fn bits<T: std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

/// One workspace per circuit, driven over K settings of its `Vin` source
/// (the DC level at `t = 0` and the transient stimulus both change), a DC
/// point warm-started from the previous setting's and a transient per
/// setting. Each run matches the fresh analysis of the same circuit: bit
/// for bit on `Dense`, within the linear (1e-9) or Newton (1e-6) tolerance
/// on `Sparse`.
#[test]
fn reused_workspace_matches_fresh_analyses() {
    let cases = [
        (
            ladder(7, 1.3),
            "n6",
            vec![ramp(0.0, 1.2), ramp(0.3, 1.5), ramp(0.6, 0.1)],
            1e-9,
        ),
        (
            inverter(),
            "out",
            vec![glitch(1.2, 0.5), glitch(1.0, 0.2), glitch(0.9, 0.0)],
            1e-6,
        ),
    ];
    for kind in [SolverKind::Dense, SolverKind::Sparse] {
        let mut params = TranParams::new(0.5 * NS, 2.0 * PS);
        params.newton.solver = kind;
        for (base, probe, settings, tol) in &cases {
            let mut ckt = base.clone();
            let probe = ckt.find_node(probe).expect("probe node");
            let mut ws = TranWorkspace::new(&ckt, kind).unwrap();
            let mut warm: Option<Vec<f64>> = None;
            for (k, wave) in settings.iter().enumerate() {
                ckt.set_source_wave("Vin", wave.clone()).unwrap();
                let what = format!("{kind:?} setting {k}");
                let dc = ws.dc(&ckt, &params.newton, warm.as_deref()).unwrap();
                let fresh_dc = dc_operating_point(&ckt, &params.newton, warm.as_deref()).unwrap();
                let tran = transient_with(&ckt, &params, &mut ws, &[], None).unwrap();
                let fresh_tran = transient(&ckt, &params).unwrap();
                if kind == SolverKind::Dense {
                    assert_eq!(bits(&dc), bits(&fresh_dc), "{what}: DC");
                    assert_eq!(bits(&tran), bits(&fresh_tran), "{what}: tran");
                } else {
                    for (a, b) in dc.unknowns().iter().zip(fresh_dc.unknowns()) {
                        assert!((a - b).abs() < *tol, "{what}: DC {a} vs {b}");
                    }
                    let diff = tran
                        .node_waveform(probe)
                        .max_abs_difference(&fresh_tran.node_waveform(probe));
                    assert!(diff < *tol, "{what}: tran deviates by {diff:.3e}");
                }
                warm = Some(dc.unknowns().to_vec());
            }
        }
    }
}

/// [`TranWorkspace::dc`] checks the circuit and the solver selection before
/// it runs, as [`transient_with`] does: a changed element value, another
/// topology and another `NewtonOptions::solver` are all refused.
#[test]
fn workspace_dc_rejects_changed_values_and_solver() {
    let ckt = ladder(6, 1.0);
    let dense = NewtonOptions {
        solver: SolverKind::Dense,
        ..Default::default()
    };
    let mut ws = TranWorkspace::new(&ckt, SolverKind::Dense).unwrap();
    ws.dc(&ckt, &dense, None).unwrap();
    let err = ws.dc(&ladder(6, 1.5), &dense, None).unwrap_err();
    assert!(err.to_string().contains("element values"), "got: {err}");
    let err = ws.dc(&ladder(5, 1.0), &dense, None).unwrap_err();
    assert!(err.to_string().contains("topology"), "got: {err}");
    let sparse = NewtonOptions {
        solver: SolverKind::Sparse,
        ..Default::default()
    };
    let err = ws.dc(&ckt, &sparse, None).unwrap_err();
    assert!(err.to_string().contains("solver selection"), "got: {err}");
    let mut params = TranParams::new(0.3 * NS, 3.0 * PS);
    params.newton = sparse;
    let err = transient_with(&ckt, &params, &mut ws, &[], None).unwrap_err();
    assert!(err.to_string().contains("solver selection"), "got: {err}");
}
