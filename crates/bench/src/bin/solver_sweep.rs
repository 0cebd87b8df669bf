//! Dense vs sparse solver sweep on the segmented coupled-bus transient.
//!
//! The flow's circuits all sit below `SPARSE_AUTO_THRESHOLD` (96 unknowns),
//! so this sweep is the one run of the sparse side of that choice: it
//! times both backends across it and checks that they agree.
//!
//! Two modes:
//!
//! * `--format json` — hand-timed medians emitted as the
//!   `sna-bench-solver-v1` JSON document checked in as `BENCH_solver.json`.
//! * `--test` — small-size smoke run: exercises every backend and asserts
//!   dense/sparse waveform agreement to 1e-9. CI runs this on every push.
//!
//! The circuit is the paper's victim/aggressor pair (500 µm, coupled), the
//! matrix sweep covers n ≈ 50…1000 MNA unknowns via the segment count.
//!
//! Run with `cargo run --release -p sna-bench --bin solver_sweep -- --test`
//! (or `-- --format json`).

use std::time::Instant;

use sna_interconnect::prelude::*;
use sna_obs::{local_snapshot, Metric};
use sna_spice::linalg::DenseMatrix;
use sna_spice::mna::MnaSystem;
use sna_spice::netlist::Circuit;
use sna_spice::prelude::{SolverKind, SourceWaveform, TranParams};
use sna_spice::sparse::{SparseLu, SparseMatrix, Symbolic};
use sna_spice::tran::transient;
use sna_spice::units::{NS, PS, UM};

/// Victim/aggressor pair with `segments` π-segments per wire, aggressor
/// ramp drive, victim held by a resistor — the segmented coupled-bus
/// transient of the paper, dimension 2·(segments+1) + 2 unknowns.
fn bus_circuit(segments: usize) -> (Circuit, sna_spice::netlist::NodeId) {
    let w = WireGeom::new(500.0 * UM, 0.2e6, 40e-12);
    let bus = CoupledBus::parallel_pair(w, w, 90e-12, segments);
    let mut ckt = Circuit::new();
    let nets = bus.instantiate(&mut ckt, "n").unwrap();
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
        .unwrap();
    (ckt, nets[0].far)
}

/// Effective conductance matrix `G + α·C` of the bus circuit at a
/// trapezoidal 2 ps step — the matrix every transient solve factors.
fn geff_of(ckt: &Circuit) -> DenseMatrix {
    let mna = MnaSystem::new(ckt).unwrap();
    let mut geff = DenseMatrix::zeros(mna.dim(), mna.dim());
    geff.axpy(1.0, mna.g_matrix());
    geff.axpy(2.0 / (2.0 * PS), mna.c_matrix());
    geff
}

fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// `sna-obs` counter deltas of one canonical transient per backend —
/// workload structure (steps, refactors, solves) to read the timings
/// against. Exact counts, not samples: the runs are deterministic.
struct TranCounters {
    steps: u64,
    dense_refactors: u64,
    dense_solves: u64,
    sparse_refactors: u64,
    sparse_solves: u64,
}

struct CaseResult {
    unknowns: usize,
    nnz: usize,
    factor_nnz: usize,
    dense_lu_ms: f64,
    sparse_cold_ms: f64,
    sparse_refactor_ms: f64,
    refactor_speedup_vs_dense: f64,
    tran_dense_ms: Option<f64>,
    tran_sparse_ms: Option<f64>,
    max_wave_diff: Option<f64>,
    counters: Option<TranCounters>,
}

/// Measure one bus size: raw factor costs, and (for `tran_window` Some)
/// the end-to-end transient on both backends plus their waveform deviation.
fn run_case(segments: usize, reps: usize, tran_window: Option<f64>) -> CaseResult {
    let (ckt, probe) = bus_circuit(segments);
    let geff = geff_of(&ckt);
    let n = geff.n_rows();
    let sp = SparseMatrix::from_dense(&geff);
    let sym = Symbolic::analyze(&sp);
    let dense_lu_ms = 1e3
        * median_secs(reps, || {
            std::hint::black_box(geff.lu().unwrap());
        });
    let sparse_cold_ms = 1e3
        * median_secs(reps, || {
            std::hint::black_box(SparseLu::factor(&sp, &sym).unwrap());
        });
    let mut lu = SparseLu::factor(&sp, &sym).unwrap();
    let sparse_refactor_ms = 1e3
        * median_secs(reps, || {
            lu.refactor(&sp).unwrap();
        });
    let (tran_dense_ms, tran_sparse_ms, max_wave_diff, counters) = match tran_window {
        None => (None, None, None, None),
        Some(t_stop) => {
            let mut params = TranParams::new(t_stop, 2.0 * PS);
            params.newton.solver = SolverKind::Dense;
            let before = local_snapshot();
            let dense_res = transient(&ckt, &params).unwrap();
            let d_dense = local_snapshot().since(&before);
            let t_dense = 1e3
                * median_secs(reps.min(3), || {
                    std::hint::black_box(transient(&ckt, &params).unwrap());
                });
            params.newton.solver = SolverKind::Sparse;
            let before = local_snapshot();
            let sparse_res = transient(&ckt, &params).unwrap();
            let d_sparse = local_snapshot().since(&before);
            let t_sparse = 1e3
                * median_secs(reps.min(3), || {
                    std::hint::black_box(transient(&ckt, &params).unwrap());
                });
            let diff = dense_res
                .node_waveform(probe)
                .max_abs_difference(&sparse_res.node_waveform(probe));
            let counters = TranCounters {
                steps: d_dense.get(Metric::TranSteps),
                dense_refactors: d_dense.get(Metric::SolverRefactorsDense),
                dense_solves: d_dense.get(Metric::SolverSolves),
                sparse_refactors: d_sparse.get(Metric::SolverRefactorsSparse),
                sparse_solves: d_sparse.get(Metric::SolverSolves),
            };
            (Some(t_dense), Some(t_sparse), Some(diff), Some(counters))
        }
    };
    CaseResult {
        unknowns: n,
        nnz: sp.nnz(),
        factor_nnz: lu.factor_nnz(),
        dense_lu_ms,
        sparse_cold_ms,
        sparse_refactor_ms,
        refactor_speedup_vs_dense: dense_lu_ms / sparse_refactor_ms.max(1e-12),
        tran_dense_ms,
        tran_sparse_ms,
        max_wave_diff,
        counters,
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("null".into(), |x| format!("{x:.4}"))
}

fn emit_json(cases: &[CaseResult]) {
    println!("{{");
    println!("  \"schema\": \"sna-bench-solver-v1\",");
    println!("  \"circuit\": \"coupled-bus victim/aggressor pair, 500um, trapezoidal 2ps\",");
    println!("  \"cases\": [");
    for (k, c) in cases.iter().enumerate() {
        let comma = if k + 1 < cases.len() { "," } else { "" };
        let counters = c.counters.as_ref().map_or("null".into(), |t| {
            format!(
                "{{\"tran_steps\": {}, \"dense_refactors\": {}, \"dense_solves\": {}, \
                 \"sparse_refactors\": {}, \"sparse_solves\": {}}}",
                t.steps, t.dense_refactors, t.dense_solves, t.sparse_refactors, t.sparse_solves
            )
        });
        println!(
            "    {{\"unknowns\": {}, \"nnz\": {}, \"factor_nnz\": {}, \
             \"dense_lu_ms\": {:.4}, \"sparse_cold_ms\": {:.4}, \
             \"sparse_refactor_ms\": {:.4}, \"refactor_speedup_vs_dense\": {:.1}, \
             \"tran_dense_ms\": {}, \"tran_sparse_ms\": {}, \"max_wave_diff\": {}, \
             \"counters\": {}}}{}",
            c.unknowns,
            c.nnz,
            c.factor_nnz,
            c.dense_lu_ms,
            c.sparse_cold_ms,
            c.sparse_refactor_ms,
            c.refactor_speedup_vs_dense,
            fmt_opt(c.tran_dense_ms),
            fmt_opt(c.tran_sparse_ms),
            c.max_wave_diff
                .map_or("null".into(), |x| format!("{x:.3e}")),
            counters,
            comma
        );
    }
    println!("  ]");
    println!("}}");
}

/// Smoke mode for CI: exercise dense LU, sparse cold factor, sparse
/// refactor, and both transient backends on small sizes; assert agreement.
fn self_test() {
    for segments in [10, 60] {
        let c = run_case(segments, 1, Some(0.5 * NS));
        // Structural (deterministic) check: the factor stays sparse —
        // fill is bounded by a small multiple of the input non-zeros.
        // Timing ratios are deliberately NOT asserted here: single-sample
        // timings on a shared CI runner are noise.
        assert!(
            c.factor_nnz <= 3 * c.nnz,
            "factor fill {} vs nnz {} — ordering regressed",
            c.factor_nnz,
            c.nnz
        );
        let diff = c.max_wave_diff.unwrap();
        assert!(
            diff < 1e-9,
            "dense/sparse waveform deviation {diff:.3e} at {} unknowns",
            c.unknowns
        );
        // Counter deltas describe the snapshotted runs: both backends took
        // the same steps and solved once per step plus the DC solve.
        let t = c.counters.as_ref().unwrap();
        assert!(t.steps > 0);
        assert_eq!(t.dense_solves, t.steps + 1);
        assert_eq!(t.sparse_solves, t.steps + 1);
        println!(
            "solver smoke: {} unknowns, wave diff {:.2e}, refactor speedup {:.1}x — ok",
            c.unknowns, diff, c.refactor_speedup_vs_dense
        );
    }
    println!("solver bench self-test: OK");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--test") {
        self_test();
        return;
    }
    let json = args
        .windows(2)
        .any(|w| w[0] == "--format" && w[1] == "json");
    if json {
        let mut cases = Vec::new();
        for (segments, reps, window) in [
            (25usize, 9, Some(1.0 * NS)),
            (100, 7, Some(1.0 * NS)),
            (250, 5, Some(0.5 * NS)),
            (500, 3, None),
        ] {
            cases.push(run_case(segments, reps, window));
        }
        emit_json(&cases);
        return;
    }
    eprintln!("usage: solver_sweep --test | --format json");
    std::process::exit(2);
}
