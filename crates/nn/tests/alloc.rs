//! Steady-state allocation test: after a warm-up round, the GEMM/conv/LSTM
//! training hot path must be served entirely from the thread-local scratch
//! pool — zero buffer allocations (`misses`) per further step.
//!
//! Runs under `with_threads(1)` so every kernel executes on the test thread
//! and the pool counters observed here cover all hot-path traffic. Each
//! test covers LeNet-5 (conv) and the LSTM classifier (recurrent).

use apf::FreezeMask;
use apf_nn::models::{lenet5, lstm_classifier, SEQ_FEATURES, SEQ_LEN};
use apf_nn::{evaluate, train_batch, Sequential, Sgd};
use apf_tensor::{scratch, seeded_rng, uniform_init, Tensor};

/// The models under test (built from `seed`), each with its input shape
/// for `n` samples.
fn models(seed: u64, n: usize) -> [(Sequential, Vec<usize>); 2] {
    [
        (lenet5(seed), vec![n, 3, 16, 16]),
        (lstm_classifier(seed), vec![n, SEQ_LEN, SEQ_FEATURES]),
    ]
}

fn batch(shape: &[usize]) -> (Tensor, Vec<usize>) {
    let mut rng = seeded_rng(7);
    let x = uniform_init(shape, -1.0, 1.0, &mut rng);
    let labels = (0..shape[0]).map(|i| i % 10).collect();
    (x, labels)
}

#[test]
fn training_steady_state_allocates_no_tensor_buffers() {
    for (mut model, shape) in models(3, 8) {
        train_allocates_nothing(&mut model, &shape);
    }
}

fn train_allocates_nothing(model: &mut Sequential, shape: &[usize]) {
    apf_par::with_threads(1, || {
        scratch::clear();
        let mut opt = Sgd::new(0.01).with_momentum(0.9);
        let frozen = FreezeMask::all_unfrozen(model.param_count());
        let (x, labels) = batch(shape);
        // Warm-up: populate layer caches, optimizer state, and the pool.
        for _ in 0..3 {
            train_batch(model, &mut opt, &x, &labels, &frozen, None);
        }
        scratch::reset_stats();
        for _ in 0..5 {
            train_batch(model, &mut opt, &x, &labels, &frozen, None);
        }
        let s = scratch::stats();
        assert!(s.takes > 0, "scratch pool unused — instrumentation broken?");
        assert_eq!(
            s.misses,
            0,
            "{}: steady-state training allocated tensor buffers: {s:?}",
            model.name()
        );
        scratch::clear();
    });
}

#[test]
fn evaluation_steady_state_allocates_no_tensor_buffers() {
    for (mut model, shape) in models(4, 12) {
        evaluate_allocates_nothing(&mut model, &shape);
    }
}

fn evaluate_allocates_nothing(model: &mut Sequential, shape: &[usize]) {
    apf_par::with_threads(1, || {
        scratch::clear();
        let (x, labels) = batch(shape);
        // Warm-up (layer caches are replace-and-recycled, so eval-only loops
        // reach a fixed point too).
        evaluate(model, &x, &labels, 4);
        scratch::reset_stats();
        for _ in 0..3 {
            evaluate(model, &x, &labels, 4);
        }
        let s = scratch::stats();
        assert!(s.takes > 0, "scratch pool unused — instrumentation broken?");
        assert_eq!(
            s.misses,
            0,
            "{}: steady-state evaluation allocated tensor buffers: {s:?}",
            model.name()
        );
        scratch::clear();
    });
}
