//! `Sequential::backward_params` skips the first layer's input gradient;
//! every parameter gradient must still be bitwise identical to
//! `Sequential::backward`'s. Covered for a conv first layer (`lenet5`), a
//! conv stem followed by batch norm (`resnet`), a linear first layer
//! (`mlp`) and a layer that keeps the default (`lstm_classifier`), at
//! several batch sizes and thread counts.

use apf_nn::models::{lenet5, lstm_classifier, mlp, resnet, IMAGE_CHANNELS, IMAGE_SIDE};
use apf_nn::models::{SEQ_FEATURES, SEQ_LEN};
use apf_nn::{softmax_cross_entropy, Mode, Sequential};
use apf_tensor::{seeded_rng, uniform_init, Tensor};

/// Runs one forward pass and returns the loss gradient w.r.t. the logits.
fn forward_grad(model: &mut Sequential, x: &Tensor) -> Tensor {
    let logits = model.forward(x.clone(), Mode::Train);
    let labels: Vec<usize> = (0..x.shape()[0]).map(|i| (i * 7) % 10).collect();
    let (_, grad) = softmax_cross_entropy(&logits, &labels);
    grad
}

/// Param grads of `build()` after one backward pass, through `backward` and
/// through `backward_params`; asserts they match bit for bit.
fn assert_same_param_grads(what: &str, build: &dyn Fn() -> Sequential, x: &Tensor) {
    for threads in [1usize, 2, 7] {
        let (full, skip) = apf_par::with_threads(threads, || {
            let mut a = build();
            let grad = forward_grad(&mut a, x);
            a.backward(grad).recycle();
            let mut b = build();
            let grad = forward_grad(&mut b, x);
            b.backward_params(grad);
            (a.flat_grads(), b.flat_grads())
        });
        assert_eq!(full.len(), skip.len(), "{what}: gradient length");
        assert!(
            full.iter().any(|&g| g != 0.0),
            "{what}: all-zero gradients prove nothing"
        );
        for (i, (f, s)) in full.iter().zip(&skip).enumerate() {
            assert_eq!(
                f.to_bits(),
                s.to_bits(),
                "{what} threads={threads}: grad {i}: {f} vs {s}"
            );
        }
    }
}

fn images(n: usize, seed: u64) -> Tensor {
    uniform_init(
        &[n, IMAGE_CHANNELS, IMAGE_SIDE, IMAGE_SIDE],
        -1.0,
        1.0,
        &mut seeded_rng(seed),
    )
}

#[test]
fn lenet5_conv_first_layer_skip_keeps_param_grads() {
    for (n, seed) in [(1usize, 1u64), (3, 2), (16, 3)] {
        let x = images(n, seed);
        assert_same_param_grads(&format!("lenet5 n={n}"), &|| lenet5(seed), &x);
    }
}

#[test]
fn resnet_conv_stem_skip_keeps_param_grads() {
    for (n, seed) in [(2usize, 4u64), (5, 5)] {
        let x = images(n, seed);
        assert_same_param_grads(&format!("resnet n={n}"), &|| resnet(seed), &x);
    }
}

#[test]
fn mlp_linear_first_layer_skip_keeps_param_grads() {
    for (n, seed) in [(1usize, 6u64), (9, 7), (64, 8)] {
        let x = uniform_init(&[n, 48], -1.0, 1.0, &mut seeded_rng(seed));
        assert_same_param_grads(&format!("mlp n={n}"), &|| mlp("m", &[48, 32, 10], seed), &x);
    }
}

#[test]
fn lstm_default_backward_params_keeps_param_grads() {
    let x = uniform_init(&[4, SEQ_LEN, SEQ_FEATURES], -1.0, 1.0, &mut seeded_rng(9));
    assert_same_param_grads("lstm", &|| lstm_classifier(9), &x);
}
