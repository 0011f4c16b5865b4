//! **`apf-par`** — a zero-dependency scoped thread pool with chunked data
//! parallelism for the APF workspace.
//!
//! The workspace is hermetic (no registry crates, see DESIGN.md), so
//! `rayon` is off the table. This crate supplies the subset the numerical
//! kernels actually need, built only on `std::thread`, channels-free
//! mutex/condvar queues, and atomics:
//!
//! * **A global worker pool** — lazily started, sized by `APF_PAR_THREADS`
//!   (default: [`std::thread::available_parallelism`]). Workers live for the
//!   process; idle workers cost nothing but their stacks.
//! * **[`scope`]** — structured concurrency: spawn borrowing closures, all
//!   joined before `scope` returns. Panics inside tasks propagate to the
//!   caller. A scope opened inside a pool task runs inline: while a thread
//!   runs a task, [`threads`] reports 1, so nested scopes never queue work
//!   and cannot deadlock (see "Nesting" below).
//! * **[`parallel_for`]** — chunked iteration over an index range.
//! * **[`parallel_for_each`]** — one task per index, for caller-sized work
//!   units (the packed GEMM's cache panels).
//! * **[`par_chunks_mut`]** — disjoint `&mut` chunks of a slice dispatched
//!   across the pool (the backbone of the row-blocked tensor kernels).
//! * **[`map_reduce`]** — chunked map-reduce whose chunk boundaries depend
//!   only on the requested grain, **never** on the thread count, and whose
//!   reduction folds partial results in ascending chunk order. Floating
//!   point reductions are therefore bitwise identical at any
//!   `APF_PAR_THREADS` value.
//!
//! # Determinism contract
//!
//! `threads() == 1` is an *exact serial fallback*: every task runs inline on
//! the calling thread, in spawn order, with no pool involvement. For
//! `threads() > 1` the primitives guarantee that what is computed (and, for
//! [`map_reduce`], the association order of the reduction) does not depend
//! on the thread count — only *where* each chunk executes varies. Kernels
//! built on these primitives (see `apf-tensor`) produce bitwise-identical
//! results at any thread count.
//!
//! # Nesting
//!
//! Only top-level calls fan out. Inside a pool task every primitive takes
//! its exact serial path on the task's thread, in spawn order. Callers that
//! already fill the pool with coarse tasks (one per federated client, say)
//! then run their inner kernels without pushing one boxed task per GEMM
//! block onto the shared queue, and a task waiting on its own kernel can
//! never pick up an unrelated queued task. The trade-off: a scope with
//! fewer live tasks than pool threads cannot lend its idle threads to those
//! tasks' kernels. By the determinism contract this changes only where work
//! runs, never what it computes.
//!
//! # Configuration
//!
//! * `APF_PAR_THREADS=N` — pool parallelism (read once, at first use;
//!   `1` disables the pool entirely).
//! * [`set_threads`] — runtime override of the global parallelism.
//! * [`with_threads`] — thread-local scoped override, used by tests and
//!   benches to compare thread counts inside one process without racing
//!   other threads.
//!
//! # Example
//!
//! ```
//! // Square 10k numbers across the pool, then reduce deterministically.
//! let mut xs: Vec<f32> = (0..10_000).map(|i| i as f32).collect();
//! apf_par::par_chunks_mut(&mut xs, 1024, |_chunk_idx, chunk| {
//!     for x in chunk {
//!         *x = *x * *x;
//!     }
//! });
//! let total = apf_par::map_reduce(0..xs.len(), 4096, |r| {
//!     xs[r].iter().sum::<f32>()
//! }, |a, b| a + b)
//! .unwrap_or(0.0);
//! assert!(total > 0.0);
//! ```

mod ops;
mod pool;

pub use ops::{map_reduce, par_chunks_mut, parallel_for, parallel_for_each};
pub use pool::{scope, set_threads, threads, with_threads, Scope};

/// A reasonable per-task chunk length for `len` items of roughly uniform
/// cost: aims at ~4 chunks per pool thread (so stragglers rebalance) while
/// never going below one item.
///
/// Chunk boundaries produced from this value depend on the *current* thread
/// count; use it only for element-independent work (e.g. disjoint output
/// blocks), never to fix reduction boundaries — [`map_reduce`] handles that
/// itself from its grain.
pub fn chunk_len(len: usize) -> usize {
    len.div_ceil(4 * threads().max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_len_is_positive_and_covers() {
        for len in [0usize, 1, 7, 1000] {
            let c = chunk_len(len);
            assert!(c >= 1);
            assert!(c * 4 * threads() + c >= len);
        }
    }
}
