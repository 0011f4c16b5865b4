//! The global worker pool and structured [`scope`] primitive.
//!
//! Architecture: one process-global injector queue (mutex + condvar) drained
//! by lazily-spawned workers. A [`scope`] tracks its spawned tasks with an
//! atomic counter; while waiting for them the caller also drains the queue
//! ("helping"), so the thread that opened the scope is one of its workers.
//!
//! Nesting rule: while a thread runs a pool job, [`threads`] reports 1, so
//! a scope opened inside a task runs its spawns inline, in order, on the
//! task's thread. Only top-level scopes reach the queue. That keeps the
//! queue free of tiny kernel blocks pushed from inside tasks that already
//! fill the pool, and a waiting task can never pick up an unrelated queued
//! task (say a whole client round) and stall its own caller behind it.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send>;

struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

struct Pool {
    queue: Arc<Queue>,
    /// Configured global parallelism (always >= 1).
    threads: AtomicUsize,
    /// Workers actually spawned so far (grows, never shrinks).
    spawned: Mutex<usize>,
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Per-thread parallelism override (0 = none). See [`with_threads`].
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Whether this thread is running a pool job right now. See [`run_job`].
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Runs `job` with the in-job flag set, so scopes it opens run inline.
/// Restores the previous value afterwards (jobs are panic-wrapped at spawn,
/// so `job` cannot unwind past this).
fn run_job(job: Job) {
    let outer = IN_JOB.with(|f| f.replace(true));
    job();
    IN_JOB.with(|f| f.set(outer));
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn env_threads() -> usize {
    match std::env::var("APF_PAR_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(default_parallelism),
        Err(_) => default_parallelism(),
    }
}

fn pool() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool {
        queue: Arc::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }),
        threads: AtomicUsize::new(env_threads()),
        spawned: Mutex::new(0),
    })
}

fn worker_loop(queue: Arc<Queue>) {
    loop {
        let job = {
            let mut jobs = queue.jobs.lock().expect("pool queue poisoned");
            loop {
                if let Some(j) = jobs.pop_front() {
                    break j;
                }
                jobs = queue.ready.wait(jobs).expect("pool queue poisoned");
            }
        };
        // Jobs are panic-wrapped at spawn; running one cannot unwind here.
        run_job(job);
    }
}

impl Pool {
    /// Ensures at least `wanted` workers exist (callers help too, so a
    /// parallelism of `t` needs `t - 1` workers).
    fn ensure_workers(&self, wanted: usize) {
        let mut spawned = self.spawned.lock().expect("pool spawn lock poisoned");
        while *spawned < wanted {
            let queue = Arc::clone(&self.queue);
            std::thread::Builder::new()
                .name(format!("apf-par-{spawned}"))
                .spawn(move || worker_loop(queue))
                .expect("failed to spawn apf-par worker");
            *spawned += 1;
        }
    }

    fn push(&self, job: Job) {
        self.queue
            .jobs
            .lock()
            .expect("pool queue poisoned")
            .push_back(job);
        self.queue.ready.notify_one();
    }

    /// Runs queued jobs on the calling thread until `state` has no pending
    /// tasks. May execute tasks belonging to *other* scopes — they are all
    /// independent panic-wrapped closures, so this only helps throughput.
    fn help_until_done(&self, state: &ScopeState) {
        while state.pending.load(Ordering::Acquire) != 0 {
            let job = self
                .queue
                .jobs
                .lock()
                .expect("pool queue poisoned")
                .pop_front();
            match job {
                Some(j) => run_job(j),
                None => {
                    let guard = state.wait_lock.lock().expect("scope lock poisoned");
                    if state.pending.load(Ordering::Acquire) != 0 {
                        // Timed wait: a job pushed by an unrelated scope can
                        // race the notify; the timeout bounds that window.
                        let _ = state
                            .done
                            .wait_timeout(guard, Duration::from_millis(1))
                            .expect("scope lock poisoned");
                    }
                }
            }
        }
    }
}

/// The current effective parallelism: 1 inside a pool task, else the
/// innermost [`with_threads`] override on this thread, else the global
/// setting.
///
/// Reporting 1 inside a task is the nesting rule: every primitive then
/// takes its exact serial path, so a kernel called from a task runs inline
/// on the task's thread. The trade-off: a scope with fewer live tasks than
/// pool threads cannot lend its idle threads to those tasks' kernels.
pub fn threads() -> usize {
    if IN_JOB.with(Cell::get) {
        return 1;
    }
    let o = OVERRIDE.with(Cell::get);
    if o != 0 {
        return o;
    }
    pool().threads.load(Ordering::Relaxed)
}

/// Sets the global pool parallelism (clamped to >= 1) and pre-spawns the
/// workers it needs. `1` routes all subsequent work through the exact
/// serial fallback path.
pub fn set_threads(n: usize) {
    let n = n.max(1);
    let p = pool();
    p.threads.store(n, Ordering::Relaxed);
    p.ensure_workers(n - 1);
}

/// Runs `f` with the parallelism seen *by this thread* overridden to `n`,
/// restoring the previous value afterwards (also on panic).
///
/// The override is thread-local: concurrent tests comparing thread counts
/// do not race each other. Tasks spawned from inside `f` see parallelism 1
/// (the nesting rule, see [`threads`]), as does `f` itself when it runs
/// inside a pool task.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let n = n.max(1);
    pool().ensure_workers(n - 1);
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(n)));
    f()
}

struct ScopeState {
    pending: AtomicUsize,
    wait_lock: Mutex<()>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: AtomicUsize::new(0),
            wait_lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }
}

/// Handle passed to the closure of [`scope`]; lets it spawn borrowing tasks.
///
/// The lifetime `'s` is invariant: spawned closures may borrow anything that
/// outlives the `scope` call, including disjoint `&mut` chunks of a local
/// slice.
pub struct Scope<'s> {
    state: Arc<ScopeState>,
    inline: bool,
    _lifetime: PhantomData<&'s mut &'s ()>,
}

impl<'s> Scope<'s> {
    /// Spawns `f` onto the pool (or runs it immediately, in spawn order,
    /// when the effective parallelism is 1 — the exact serial fallback).
    ///
    /// A panicking task does not tear down the pool: the payload is carried
    /// back and re-raised from [`scope`] after all sibling tasks finished.
    /// When several tasks panic, the first recorded payload wins.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 's,
    {
        if self.inline {
            f();
            return;
        }
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 's> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            if let Err(payload) = result {
                let mut slot = state.panic.lock().expect("scope panic slot poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _guard = state.wait_lock.lock().expect("scope lock poisoned");
                state.done.notify_all();
            }
        });
        // SAFETY: `scope` does not return before `pending` reaches zero —
        // help_until_done runs even when the scope closure unwinds — so the
        // job (and everything it borrows, bounded by 's) cannot outlive the
        // borrowed data. Extending the lifetime to 'static is therefore
        // sound; this is the classic scoped-pool erasure.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 's>, Box<dyn FnOnce() + Send>>(job)
        };
        pool().push(job);
    }
}

/// Structured fork-join: `f` receives a [`Scope`] to spawn borrowing tasks;
/// all of them are complete when `scope` returns.
///
/// Semantics:
/// * effective parallelism 1 → every spawn runs inline, in order (exact
///   serial execution, no pool);
/// * a scope opened inside a pool task is such a scope: [`threads`] is 1
///   there, so nesting cannot deadlock and never queues tasks;
/// * the caller helps drain the queue while waiting, running queued tasks
///   (its own or another top-level scope's) instead of blocking;
/// * panics — from `f` itself or from any spawned task — propagate to the
///   caller after all tasks completed; a task panic never leaks a detached
///   task.
pub fn scope<'s, R>(f: impl FnOnce(&Scope<'s>) -> R) -> R {
    let t = threads();
    let inline = t <= 1;
    if !inline {
        pool().ensure_workers(t - 1);
    }
    let s = Scope {
        state: Arc::new(ScopeState::new()),
        inline,
        _lifetime: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&s)));
    if !inline {
        pool().help_until_done(&s.state);
    }
    let task_panic = s
        .state
        .panic
        .lock()
        .expect("scope panic slot poisoned")
        .take();
    match result {
        Err(payload) => resume_unwind(payload),
        Ok(r) => {
            if let Some(payload) = task_panic {
                resume_unwind(payload);
            }
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_is_at_least_one() {
        assert!(threads() >= 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let before = threads();
        with_threads(3, || assert_eq!(threads(), 3));
        assert_eq!(threads(), before);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = threads();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            with_threads(5, || panic!("boom"));
        }));
        assert_eq!(threads(), before);
    }

    #[test]
    fn scope_joins_all_tasks() {
        for t in [1usize, 2, 4] {
            with_threads(t, || {
                let counter = AtomicUsize::new(0);
                scope(|s| {
                    for _ in 0..64 {
                        s.spawn(|| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
                assert_eq!(counter.load(Ordering::Relaxed), 64, "threads={t}");
            });
        }
    }

    #[test]
    fn scope_borrows_disjoint_chunks() {
        with_threads(4, || {
            let mut data = vec![0u64; 100];
            scope(|s| {
                for (i, chunk) in data.chunks_mut(7).enumerate() {
                    s.spawn(move || {
                        for x in chunk {
                            *x = i as u64;
                        }
                    });
                }
            });
            for (j, &x) in data.iter().enumerate() {
                assert_eq!(x, (j / 7) as u64);
            }
        });
    }
}
