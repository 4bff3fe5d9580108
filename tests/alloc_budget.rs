//! Allocation budgets for the simulation loop.
//!
//! `System::run_with` may allocate while queues and instruction
//! buffers grow, but not per simulated cycle: no per-tick response
//! vectors, no per-slot calendar vectors, no trace strings on untraced
//! runs. A counting global allocator pins that. Each run needs under
//! 4,000 allocations, about one per simulated core cycle or fewer; each
//! budget is about twice that, and a loop that allocates a few times
//! per executed cycle or per DRAM request (as one returning a fresh
//! response vector from every controller tick did, at about 17 per
//! cycle) exceeds it many times over.
//!
//! The counter is per thread, because the test harness runs tests on
//! parallel threads and each must count only its own run.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use orderlight_suite::pim::TsSize;
use orderlight_suite::sim::{ExecMode, ScenarioSpec, SimCore};
use orderlight_suite::workloads::{OrderingMode, WorkloadId};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations and reallocations on the calling thread.
struct CountingAllocator;

fn count() {
    // `try_with`: a thread being torn down no longer has the counter.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged, so the system allocator's guarantees
// hold; counting touches only a const-initialised thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { Heap.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `Heap`.
        unsafe { Heap.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `Heap`; the caller upholds the rest.
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations made by `run_with` alone (not by the build), and the
/// core cycles the run simulated.
fn run_allocations(spec: &ScenarioSpec, core: SimCore) -> (u64, u64) {
    let scenario = spec.build().expect("scenario builds");
    let mut sys = scenario.system().expect("system builds");
    let before = allocations();
    let stats = sys.run_with(scenario.budget(), core).expect("run completes");
    (allocations() - before, stats.core_cycles)
}

fn check_budget(spec: &ScenarioSpec, budget: u64) {
    for core in [SimCore::Event, SimCore::Cycle] {
        let (allocs, cycles) = run_allocations(spec, core);
        assert!(
            allocs <= budget,
            "{core:?} core: {allocs} allocations over {cycles} core cycles, budget {budget}"
        );
    }
}

fn spec(mode: ExecMode, kb: u64) -> ScenarioSpec {
    ScenarioSpec {
        mode,
        ts: TsSize::Eighth,
        data_bytes_per_channel: kb * 1024,
        ..ScenarioSpec::new(WorkloadId::Add)
    }
}

/// The GPU baseline: host loads and stores from 16 SMs x 8 warps, the
/// path where every executed cycle moves requests and responses.
#[test]
fn gpu_baseline_run_stays_within_its_allocation_budget() {
    check_budget(&spec(ExecMode::Gpu, 16), 10_000);
}

/// OrderLight PIM: markers diverge, merge and gate groups in the
/// controller on top of the PIM command stream.
#[test]
fn orderlight_run_stays_within_its_allocation_budget() {
    check_budget(&spec(ExecMode::Pim(OrderingMode::OrderLight), 64), 6_000);
}
