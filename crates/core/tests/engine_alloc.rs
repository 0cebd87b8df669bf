//! Allocation counter proving the noise engine's stepping loop is
//! allocation-free.
//!
//! A counting global allocator wraps the system allocator. The Table-1
//! cluster runs through [`simulate_macromodel`] at `t_stop` 3 ns and 6 ns:
//! any heap allocation per time step would add about 3,000 to the second
//! count, so the two counts must be equal. Setup (factorizations, buffers,
//! the output waveforms) allocates the same amount at both horizons.
//!
//! One `#[test]` only: parallel tests in the same binary would share the
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sna_core::cluster::ClusterMacromodel;
use sna_core::engine::simulate_macromodel;
use sna_core::scenarios::table1_spec;
use sna_spice::units::NS;

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

/// Heap allocations made by one engine run on `model`.
fn engine_allocs(model: &ClusterMacromodel) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let waves = simulate_macromodel(model).expect("engine run");
    let count = ALLOCS.load(Ordering::Relaxed) - before;
    drop(waves);
    count
}

#[test]
fn engine_allocations_do_not_grow_with_steps() {
    let mut model = ClusterMacromodel::build(&table1_spec()).expect("build table1");
    model.spec.t_stop = 3.0 * NS;
    let short = engine_allocs(&model);
    model.spec.t_stop = 6.0 * NS;
    let long = engine_allocs(&model);
    assert!(short > 0, "the counter saw no allocation");
    assert_eq!(
        short, long,
        "engine allocations grew with the step count: {short} at 3 ns, {long} at 6 ns"
    );
}
