//! Counter-accuracy tests: the `sna-obs` deltas recorded by a transient
//! analysis must match hand-checked values, not just "be nonzero".
//!
//! Every test uses [`sna_obs::local_snapshot`] deltas — the calling
//! thread's own recorder — so concurrent tests in this binary (or the rest
//! of the workspace's test run) cannot leak counts into the assertions.

use sna_obs::{local_snapshot, CounterSnapshot, Metric};
use sna_spice::dc::{dc_operating_point, NewtonOptions};
use sna_spice::devices::{DiodeModel, MosPolarity, MosfetModel, SourceWaveform};
use sna_spice::error::Error;
use sna_spice::mna::MnaSystem;
use sna_spice::netlist::Circuit;
use sna_spice::solver::{SolverKind, SystemSolver};
use sna_spice::tran::{transient_with, StopPredicate, TranParams, TranResult, TranWorkspace};
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
    let res = transient_with(&ckt, &params, &mut ws, &[], None).unwrap();
    let d = local_snapshot().since(&before);
    let steps = (1.0 * NS / (1.0 * PS)).round() as u64;

    assert_eq!(d.get(Metric::TranCalls), 1);
    assert_eq!(d.get(Metric::TranSteps), steps);
    assert_eq!(
        d.get(Metric::TranNewtonIterations),
        res.newton_iterations as u64,
        "counter must agree with the returned diagnostic"
    );
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
    let res = transient_with(&ckt, &params, &mut ws, &[], None).unwrap();
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

/// Every sample of `stopped` equals the same sample of `full`, bit for bit:
/// the time axis, each named node trace and each named source current.
fn assert_prefix(stopped: &TranResult, full: &TranResult, nodes: &[String], sources: &[&str]) {
    let n = stopped.times().len();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(stopped.times()), bits(&full.times()[..n]), "time axis");
    for name in nodes {
        let (a, b) = (stopped.waveform(name), full.waveform(name));
        let (a, b) = (a.expect("node"), b.expect("node"));
        assert_eq!(bits(a.values()), bits(&b.values()[..n]), "node {name}");
    }
    for name in sources {
        let (a, b) = (stopped.vsource_current(name), full.vsource_current(name));
        let (a, b) = (a.expect("source"), b.expect("source"));
        assert_eq!(bits(a.values()), bits(&b.values()[..n]), "branch {name}");
    }
}

/// An early-stop predicate is called once per recorded sample, the `t = 0`
/// one included, and ends the run at the first sample it accepts. The
/// stopped run is the prefix of the unstopped one on every node and branch
/// trace, bit for bit, and `TranSteps` counts only the steps taken. A
/// predicate that never fires leaves the run, and its counts, as `None`
/// does. Each run gets a fresh workspace, so the sparse path is bit-exact
/// too.
#[test]
fn early_stop_keeps_the_prefix_and_counts_steps_taken() {
    let ladder_nodes: Vec<String> = (0..16).map(|i| format!("n{i}")).collect();
    let inverter_nodes: Vec<String> = ["vdd", "in", "out"].map(String::from).to_vec();
    let cases = [
        (ladder(16), "n15", ladder_nodes, vec!["Vin"], 0.6),
        (inverter(), "out", inverter_nodes, vec!["Vdd", "Vin"], 0.2),
    ];
    for kind in [SolverKind::Dense, SolverKind::Sparse] {
        for (ckt, probe, nodes, sources, level) in &cases {
            let probe = ckt.find_node(probe).expect("probe node");
            let mut params = TranParams::new(1.0 * NS, 2.0 * PS);
            params.newton.solver = kind;
            let n_steps = (1.0 * NS / (2.0 * PS)).round() as u64;
            let run = |stop: Option<StopPredicate<'_>>| {
                let mut ws = TranWorkspace::new(ckt, kind).unwrap();
                let before = local_snapshot();
                let res = transient_with(ckt, &params, &mut ws, &[], stop).unwrap();
                (res, local_snapshot().since(&before))
            };
            let (full, d_full) = run(None);
            assert_eq!(d_full.get(Metric::TranSteps), n_steps);

            let mut calls = 0usize;
            let (stopped, d) = run(Some(&mut |_, v| {
                calls += 1;
                v.get(probe) > *level
            }));
            let n = stopped.times().len();
            assert!(1 < n && n < full.times().len(), "{kind:?}: stopped at {n}");
            assert_eq!(calls, n, "{kind:?}: one call per recorded sample");
            assert_eq!(d.get(Metric::TranCalls), 1);
            assert_eq!(d.get(Metric::TranSteps), n as u64 - 1);
            assert_eq!(
                d.get(Metric::TranNewtonIterations),
                stopped.newton_iterations as u64
            );
            assert_prefix(&stopped, &full, nodes, sources);
            // It stopped at the first sample past the level, not later.
            let v = stopped.node_waveform(probe);
            assert!(v.values()[n - 1] > *level);
            assert!(v.values()[..n - 1].iter().all(|&x| x <= *level));

            let mut calls = 0usize;
            let (never, d) = run(Some(&mut |_, _| {
                calls += 1;
                false
            }));
            assert_eq!(calls as u64, n_steps + 1);
            assert_eq!(d.get(Metric::TranSteps), n_steps);
            assert_eq!(format!("{never:?}"), format!("{full:?}"));

            let (at_zero, d) = run(Some(&mut |_, _| true));
            assert_eq!(at_zero.times(), &[0.0]);
            assert_eq!(d.get(Metric::TranSteps), 0);
            assert_prefix(&at_zero, &full, nodes, sources);
        }
    }
}

/// The dense solver calls in `d`: one factorization (cold or not) and one
/// solve per Newton iteration, so each count equals `newton`.
fn assert_one_factor_and_solve_per_iteration(d: &CounterSnapshot, newton: u64, what: &str) {
    let factors = d.get(Metric::SolverFactorsDense) + d.get(Metric::SolverRefactorsDense);
    assert_eq!(factors, newton, "{what}: factorizations");
    assert_eq!(d.get(Metric::SolverSolves), newton, "{what}: solves");
}

/// `TranWorkspace::dc` reports its solver calls before it returns: the
/// workspace is still alive when the counts are read, so nothing waits for
/// the solver to be dropped.
#[test]
fn workspace_dc_reports_solver_counts_on_return() {
    let ckt = inverter();
    let mut ws = TranWorkspace::new(&ckt, SolverKind::Dense).unwrap();
    let opts = NewtonOptions {
        solver: SolverKind::Dense,
        ..NewtonOptions::default()
    };
    let mut warm: Option<Vec<f64>> = None;
    for call in 0..3 {
        let before = local_snapshot();
        let sol = ws.dc(&ckt, &opts, warm.as_deref()).unwrap();
        let d = local_snapshot().since(&before);
        assert_eq!(d.get(Metric::DcSolves), 1);
        assert_eq!(d.get(Metric::DcNewtonIterations), sol.iterations as u64);
        assert_eq!(d.get(Metric::SolverFactorsDense), u64::from(call == 0));
        assert_one_factor_and_solve_per_iteration(&d, sol.iterations as u64, "ws.dc");
        warm = Some(sol.unknowns().to_vec());
    }
}

/// `dc_operating_point` reports its solver calls by the time it returns.
#[test]
fn dc_operating_point_reports_solver_counts_on_return() {
    let ckt = inverter();
    let opts = NewtonOptions {
        solver: SolverKind::Dense,
        ..NewtonOptions::default()
    };
    let before = local_snapshot();
    let sol = dc_operating_point(&ckt, &opts, None).unwrap();
    let d = local_snapshot().since(&before);
    assert!(sol.iterations >= 2);
    assert_eq!(d.get(Metric::SolverFactorsDense), 1);
    assert_one_factor_and_solve_per_iteration(&d, sol.iterations as u64, "dc");
}

/// A transient that fails with `NonConvergence` still reports its call,
/// its accepted steps, its Newton iterations and its solver calls. The
/// source sits at 0 V until 100 ps, so with one Newton iteration allowed
/// every step up to there converges at once and the first step of the
/// edge fails.
#[test]
fn failed_transient_reports_its_counts() {
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    let out = ckt.node("out");
    ckt.add_vsource(
        "Vs",
        src,
        Circuit::gnd(),
        SourceWaveform::Ramp {
            v0: 0.0,
            v1: 1.5,
            t_start: 100.0 * PS,
            t_rise: 50.0 * PS,
        },
    );
    ckt.add_resistor("Rs", src, out, 1e3).unwrap();
    ckt.add_capacitor("Cl", out, Circuit::gnd(), 5e-15).unwrap();
    ckt.add_diode("D", out, Circuit::gnd(), DiodeModel::default())
        .unwrap();
    let mut ws = TranWorkspace::new(&ckt, SolverKind::Dense).unwrap();
    let dt = 2.0 * PS;
    let mut params = TranParams::new(1.0 * NS, dt);
    params.newton.solver = SolverKind::Dense;
    params.newton.max_iter = 1;
    let before = local_snapshot();
    let err = transient_with(&ckt, &params, &mut ws, &[], None).unwrap_err();
    let d = local_snapshot().since(&before);
    let Error::NonConvergence { analysis, time, .. } = err else {
        panic!("expected a transient non-convergence, got {err}");
    };
    assert_eq!(analysis, "tran");
    assert!(time > 100.0 * PS, "failed at {time:e}");
    let accepted = (time / dt).round() as u64 - 1;
    assert_eq!(d.get(Metric::TranCalls), 1);
    assert_eq!(d.get(Metric::TranSteps), accepted);
    assert_eq!(d.get(Metric::TranNewtonIterations), accepted + 1);
    assert_eq!(d.get(Metric::DcNewtonIterations), 1);
    assert_eq!(d.get(Metric::SolverFactorsDense), 1);
    assert_one_factor_and_solve_per_iteration(&d, accepted + 2, "failed tran");
}

/// A solver driven directly, outside any analysis, reports what it did
/// when it is dropped at the latest.
#[test]
fn dropped_solver_flushes_its_counts() {
    let ckt = ladder(8);
    let mna = MnaSystem::new(&ckt).unwrap();
    let b = mna.rhs(&ckt, 0.0, 1.0);
    let before = local_snapshot();
    {
        let mut solver = SystemSolver::new(&mna, SolverKind::Sparse);
        solver.set_alpha(1e12);
        solver.factor_base().unwrap();
        let mut x = vec![0.0; mna.dim()];
        solver.solve_into(&b, &mut x);
        solver.solve_into(&b, &mut x);
    }
    let d = local_snapshot().since(&before);
    assert_eq!(d.get(Metric::SolverSparseSelected), 1);
    assert_eq!(d.get(Metric::SolverFactorsSparse), 1);
    assert_eq!(d.get(Metric::SolverSolves), 2);
}
