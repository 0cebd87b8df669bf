//! Debug-mode allocation counter proving the transient inner loops are
//! allocation-free.
//!
//! A counting global allocator wraps the system allocator; each scenario is
//! run at a short and a 4× longer horizon on a pre-built [`TranWorkspace`].
//! Every per-step heap allocation would multiply with the step count
//! (thousands of extra steps), so asserting the two counts differ by at
//! most a small constant proves the stepping loop only touches workspace
//! buffers. The constant slack covers
//! once-per-run setup (result-trace `with_capacity` calls, the DC solve) —
//! none of which scale with steps.
//!
//! One `#[test]` only: parallel tests in the same binary would share the
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sna_spice::devices::{MosPolarity, MosfetModel, SourceWaveform};
use sna_spice::netlist::Circuit;
use sna_spice::solver::SolverKind;
use sna_spice::tran::{transient_with, TranParams, TranWorkspace};
use sna_spice::units::{NS, PS};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

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

/// Fixed-step runs at 1× and 4× the horizon must allocate within `slack`
/// of each other despite the ~3× extra steps.
fn assert_fixed_step_alloc_free(ckt: &Circuit, kind: SolverKind, dt: f64, slack: u64) {
    let mut ws = TranWorkspace::new(ckt, kind).unwrap();
    let mut short_params = TranParams::new(0.4 * NS, dt);
    short_params.newton.solver = kind;
    let mut long_params = TranParams::new(1.6 * NS, dt);
    long_params.newton.solver = kind;
    // Warm-up: fills any lazily-created factor state.
    transient_with(ckt, &short_params, &mut ws, &[], None).unwrap();
    let (short, _) = allocs(|| transient_with(ckt, &short_params, &mut ws, &[], None));
    let (long, _) = allocs(|| transient_with(ckt, &long_params, &mut ws, &[], None));
    let extra_steps = (1.2 * NS / dt) as u64;
    assert!(
        long <= short + slack,
        "{kind:?}: {long} allocations at 4x horizon vs {short} at 1x \
         ({extra_steps} extra steps should be allocation-free)"
    );
}

#[test]
fn stepping_loops_do_not_allocate_per_step() {
    // Run with the observability layer fully armed: counters are always on,
    // and enabling phase timing proves the span bookkeeping (two Instant
    // reads + atomic adds into a pre-registered thread-local recorder) is
    // allocation-free too. Only chrome-tracing allocates, and that never
    // runs inside the stepping loops.
    sna_obs::set_timing_enabled(true);
    // Touch the thread-local recorder once so its one-time registration
    // (an Arc + two boxed arrays) lands in setup, not in the measurement.
    let _ = sna_obs::local_snapshot();
    let lin = ladder(120); // above the sparse auto threshold
    let nl = inverter();
    for kind in [SolverKind::Dense, SolverKind::Sparse] {
        // Fixed-step: the loop body is fully hoisted, so the only horizon-
        // dependent allocations are the pre-sized recording vectors.
        assert_fixed_step_alloc_free(&lin, kind, 2.0 * PS, 32);
        assert_fixed_step_alloc_free(&nl, kind, 1.0 * PS, 32);
    }
}
