//! Pool stress tests: nested scopes, panic-in-task propagation, zero-work
//! ranges, and many concurrent small scopes. `scripts/verify.sh` runs this
//! suite explicitly under several `APF_PAR_THREADS` values.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use apf_par::{
    map_reduce, par_chunks_mut, parallel_for, parallel_for_each, scope, threads, with_threads,
};

#[test]
fn nested_scopes_do_not_deadlock() {
    for t in [1usize, 2, 4] {
        with_threads(t, || {
            let total = AtomicUsize::new(0);
            // Outer tasks each open an inner scope: with a naive blocking
            // join this deadlocks as soon as tasks outnumber workers.
            scope(|outer| {
                for _ in 0..16 {
                    let total = &total;
                    outer.spawn(move || {
                        scope(|inner| {
                            for _ in 0..8 {
                                inner.spawn(move || {
                                    total.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    });
                }
            });
            assert_eq!(total.load(Ordering::Relaxed), 16 * 8, "threads={t}");
        });
    }
}

#[test]
fn scope_inside_a_task_runs_inline_in_spawn_order() {
    for t in [1usize, 2, 4] {
        with_threads(t, || {
            assert_eq!(threads(), t, "outside any task");
            // Per outer task: (its thread, what threads() said inside it,
            // and the (thread, index) of each inner spawn in run order).
            type Seen = (
                std::thread::ThreadId,
                usize,
                Vec<(std::thread::ThreadId, usize)>,
            );
            let seen: Vec<Mutex<Option<Seen>>> = (0..8).map(|_| Mutex::new(None)).collect();
            parallel_for_each(seen.len(), |i| {
                let me = std::thread::current().id();
                let inner_threads = threads();
                let order = Mutex::new(Vec::new());
                scope(|s| {
                    for j in 0..6 {
                        let order = &order;
                        s.spawn(move || {
                            order.lock().unwrap().push((std::thread::current().id(), j));
                        });
                    }
                });
                // Kernels built on the other primitives take the same path.
                parallel_for(0..64, 1, |r| {
                    assert_eq!(r, 0..64, "parallel_for inside a task must not split");
                });
                *seen[i].lock().unwrap() = Some((me, inner_threads, order.into_inner().unwrap()));
            });
            for (i, slot) in seen.iter().enumerate() {
                let (task_thread, inner_threads, order) =
                    slot.lock().unwrap().take().expect("task did not run");
                assert_eq!(inner_threads, 1, "threads() inside task {i} at t={t}");
                let idx: Vec<usize> = order.iter().map(|&(_, j)| j).collect();
                assert_eq!(idx, (0..6).collect::<Vec<_>>(), "spawn order, t={t}");
                assert!(
                    order.iter().all(|&(th, _)| th == task_thread),
                    "inner spawns left task {i}'s thread at t={t}"
                );
            }
            assert_eq!(threads(), t, "unchanged after the tasks");
        });
    }
}

#[test]
fn deeply_nested_parallel_for() {
    with_threads(4, || {
        let hits = AtomicUsize::new(0);
        parallel_for(0..64, 4, |outer| {
            for _ in outer {
                parallel_for(0..32, 4, |inner| {
                    hits.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64 * 32);
    });
}

#[test]
fn panic_in_task_propagates_after_siblings_finish() {
    for t in [1usize, 2, 4] {
        with_threads(t, || {
            let finished = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                scope(|s| {
                    for i in 0..32 {
                        let finished = &finished;
                        s.spawn(move || {
                            if i == 13 {
                                panic!("task 13 exploded");
                            }
                            finished.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }));
            let payload = result.expect_err("scope must re-raise the task panic");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert!(msg.contains("task 13"), "threads={t}: got {msg:?}");
            // Pooled execution joins every sibling before re-raising; the
            // serial fallback matches a plain loop, stopping at the panic.
            let expect = if t == 1 { 13 } else { 31 };
            assert_eq!(finished.load(Ordering::Relaxed), expect, "threads={t}");
        });
    }
}

#[test]
fn panic_in_scope_closure_propagates() {
    with_threads(2, || {
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                let ran = &ran;
                s.spawn(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
                panic!("closure itself panics");
            });
        }));
        assert!(result.is_err());
        // The spawned task was still joined before the panic propagated.
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    });
}

#[test]
fn pool_survives_panics() {
    with_threads(2, || {
        for round in 0..8 {
            let _ = catch_unwind(AssertUnwindSafe(|| {
                scope(|s| {
                    s.spawn(|| panic!("round {round}"));
                });
            }));
        }
        // After eight panicking scopes the pool still computes correctly.
        let n = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..64 {
                let n = &n;
                s.spawn(move || {
                    n.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(n.load(Ordering::Relaxed), 64);
    });
}

#[test]
fn zero_work_everywhere() {
    for t in [1usize, 4] {
        with_threads(t, || {
            parallel_for(0..0, 8, |_| panic!("no work expected"));
            parallel_for(10..10, 1, |_| panic!("no work expected"));
            par_chunks_mut(&mut [] as &mut [u8], 4, |_, _| panic!("no chunks"));
            assert_eq!(map_reduce(0..0, 4, |_| 1u64, |a, b| a + b), None);
            scope(|_| { /* no spawns at all */ });
        });
    }
}

#[test]
fn many_small_scopes_from_many_threads() {
    // Hammer the shared queue from several OS threads at once.
    std::thread::scope(|ts| {
        for _ in 0..4 {
            ts.spawn(|| {
                with_threads(3, || {
                    for _ in 0..50 {
                        let mut data = vec![1u32; 64];
                        par_chunks_mut(&mut data, 8, |_, c| {
                            for x in c {
                                *x += 1;
                            }
                        });
                        assert!(data.iter().all(|&x| x == 2));
                    }
                });
            });
        }
    });
}

#[test]
fn results_identical_across_thread_counts() {
    let run = |t: usize| {
        with_threads(t, || {
            let mut out = vec![0f32; 4096];
            par_chunks_mut(&mut out, 100, |i, c| {
                for (j, x) in c.iter_mut().enumerate() {
                    let idx = i * 100 + j;
                    *x = (idx as f32 * 0.01).sin();
                }
            });
            let sum = map_reduce(
                0..out.len(),
                512,
                |r| out[r].iter().sum::<f32>(),
                |a, b| a + b,
            )
            .unwrap();
            (out, sum)
        })
    };
    let (base_out, base_sum) = run(1);
    for t in [2usize, 5, 8] {
        let (out, sum) = run(t);
        assert_eq!(base_out, out, "threads={t}");
        assert_eq!(base_sum.to_bits(), sum.to_bits(), "threads={t}");
    }
}
