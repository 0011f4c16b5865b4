//! The disabled profiler must be free: with NO profiler running and NO
//! tracing configured, every `span!`/`event!` site costs one relaxed atomic
//! load and zero allocator calls — even with [`apf_prof::alloc::ProfAlloc`]
//! installed as the global allocator, as the profiled binaries do.
//!
//! A counting allocator wraps `ProfAlloc` (which wraps `System`), so this
//! measures the exact production stack: span gate -> prof allocator ->
//! system. Own test binary: the allocator and trace gate are
//! process-global, and the tests below serialize on [`GLOBAL_GATE`] because
//! one of them starts a profiler session the other must never observe.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

use apf_prof::alloc::ProfAlloc;
use apf_trace::{event, span, Level};

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn bump() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { ProfAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { ProfAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { ProfAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Held by every test for its whole body: the profiler and the span-stack
/// gate are process-global, and the harness runs tests concurrently.
static GLOBAL_GATE: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the other test should still report
    // its own result rather than a poison error.
    GLOBAL_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// The span/event shapes the fedsim round loop and net round loop emit,
/// with tracing AND profiling disabled.
fn instrumentation_workload(iters: u64) -> u64 {
    let mut acc = 0u64;
    for round in 0..iters {
        let round_span = span!(Level::Info, target: "fedsim", "round", round = round);
        {
            let _local = span!(Level::Info, target: "fedsim", "local_train",
                round = round, participants = 3usize);
            event!(Level::Debug, target: "fedsim.client", "local_round",
                round = round, client = 1usize, loss = 0.5f32);
        }
        {
            let _agg = span!(Level::Info, target: "fedsim", "aggregate", round = round);
        }
        acc = acc.wrapping_add(std::hint::black_box(round_span.id()));
    }
    acc
}

#[test]
fn disabled_profiler_and_tracing_do_not_allocate() {
    let _gate = serialize();
    assert!(!apf_prof::is_running());
    assert!(!apf_trace::stack_tracking());
    // Warm-up excludes any lazy runtime setup from the measurement.
    std::hint::black_box(instrumentation_workload(10));
    let before = allocs();
    std::hint::black_box(instrumentation_workload(50_000));
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "disabled spans through ProfAlloc must not allocate (got {})",
        after - before
    );
}

#[test]
fn enabling_then_disabling_restores_the_free_path() {
    let _gate = serialize();
    // A completed profiling session must leave the disabled path free
    // again (modulo the retained per-thread stack registration).
    assert!(apf_prof::start(std::time::Duration::from_millis(1)));
    std::hint::black_box(instrumentation_workload(100));
    let profile = apf_prof::stop().expect("profiler was running");
    std::hint::black_box(profile);
    assert!(!apf_trace::stack_tracking());
    std::hint::black_box(instrumentation_workload(10));
    let before = allocs();
    std::hint::black_box(instrumentation_workload(20_000));
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "post-session disabled spans must not allocate (got {})",
        after - before
    );
}
