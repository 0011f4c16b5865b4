//! Property-based tests for the tensor substrate (on `apf-testkit`).

use apf_tensor::{col2im, im2col, l2_norm, percentile, ConvSpec, PoolSpec, Tensor};
use apf_testkit::{f32s, prop_assert, prop_assume, property, u64s, usizes, vecs};

/// The bit patterns of `t`'s elements (so `-0.0 != 0.0` and NaNs compare).
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A deterministic `[m, n]` matrix with entries in `[-10, 10)`.
fn matrix(m: usize, n: usize, seed: u64) -> Tensor {
    let mut rng = apf_tensor::seeded_rng(seed);
    Tensor::from_vec(
        (0..m * n).map(|_| rng.gen_range(-10.0f32..10.0)).collect(),
        &[m, n],
    )
}

property! {
    fn matmul_identity_left(m in usizes(1..9), n in usizes(1..9), seed in u64s(0..1000)) {
        let a = matrix(m, n, seed);
        let i = Tensor::eye(a.shape()[0]);
        let out = i.matmul(&a);
        for (x, y) in out.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    fn matmul_distributes_over_addition(
        m in usizes(1..7),
        k in usizes(1..7),
        seed in u64s(0..1000),
    ) {
        // (B + C) built from `a`'s shape; A x (B + C) == A x B + A x C.
        let a = matrix(m, k, seed);
        let n = 1 + (seed as usize % 5);
        let mk = |salt: u64| {
            let data: Vec<f32> = (0..k * n)
                .map(|i| ((apf_tensor::splitmix64(seed ^ salt ^ i as u64) % 1000) as f32 / 100.0) - 5.0)
                .collect();
            Tensor::from_vec(data, &[k, n])
        };
        let b = mk(0xB);
        let c = mk(0xC);
        let lhs = a.matmul(&(&b + &c));
        let rhs = &a.matmul(&b) + &a.matmul(&c);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    fn transpose_variants_agree(
        m in usizes(1..8),
        k in usizes(1..8),
        rows in usizes(1..6),
        seed in u64s(0..1000),
    ) {
        // matmul_nt(a, b) equals a x b^T, and matmul_tn(a, c) equals a^T x c.
        let a = matrix(m, k, seed);
        let b = Tensor::from_vec(
            (0..rows * k)
                .map(|i| ((apf_tensor::splitmix64(seed ^ i as u64) % 400) as f32 / 100.0) - 2.0)
                .collect(),
            &[rows, k],
        );
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transpose2());
        for (x, y) in via_nt.data().iter().zip(via_t.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        let c = Tensor::from_vec(
            (0..m * rows)
                .map(|i| ((apf_tensor::splitmix64(seed ^ (i as u64 + 999)) % 400) as f32 / 100.0) - 2.0)
                .collect(),
            &[m, rows],
        );
        let via_tn = a.matmul_tn(&c);
        let via_t2 = a.transpose2().matmul(&c);
        for (x, y) in via_tn.data().iter().zip(via_t2.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    fn im2col_col2im_adjoint(
        c in usizes(1..3),
        hw in usizes(3..7),
        k in usizes(1..4),
        pad in usizes(0..2),
        seed in u64s(0..100),
    ) {
        prop_assume!(hw + 2 * pad >= k);
        let spec = ConvSpec { in_channels: c, out_channels: 1, kernel: k, stride: 1, padding: pad };
        let n = 2;
        let numel = n * c * hw * hw;
        let x = Tensor::from_vec(
            (0..numel).map(|i| ((apf_tensor::splitmix64(seed ^ i as u64) % 200) as f32 / 100.0) - 1.0).collect(),
            &[n, c, hw, hw],
        );
        let cols = im2col(&x, &spec);
        let y = Tensor::from_vec(
            (0..cols.numel()).map(|i| ((apf_tensor::splitmix64(seed ^ (i as u64 + 7777)) % 200) as f32 / 100.0) - 1.0).collect(),
            cols.shape(),
        );
        let lhs: f64 = cols.data().iter().zip(y.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let back = col2im(&y, &spec, n, hw, hw);
        let rhs: f64 = x.data().iter().zip(back.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    fn maxpool_output_bounded_by_input(
        hw in usizes(2..8),
        seed in u64s(0..100),
    ) {
        let n = 1;
        let c = 2;
        let numel = n * c * hw * hw;
        let x = Tensor::from_vec(
            (0..numel).map(|i| ((apf_tensor::splitmix64(seed ^ i as u64) % 2000) as f32 / 100.0) - 10.0).collect(),
            &[n, c, hw, hw],
        );
        let spec = PoolSpec { kernel: 2.min(hw), stride: 2.min(hw) };
        let (out, arg) = apf_tensor::maxpool2d_forward(&x, &spec);
        let max_in = x.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for &o in out.data() {
            prop_assert!(o <= max_in + 1e-6);
        }
        // argmax points at elements equal to the outputs.
        for (&idx, &o) in arg.iter().zip(out.data()) {
            prop_assert!((x.data()[idx] - o).abs() < 1e-6);
        }
    }

    fn percentile_monotone(
        xs in vecs(f32s(-100.0..100.0), 1..50),
        p1 in f32s(0.0..100.0),
        p2 in f32s(0.0..100.0),
    ) {
        let mut xs = xs;
        xs.iter_mut().for_each(|x| *x = x.round());
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-6);
    }

    fn l2_norm_triangle_inequality(
        a in vecs(f32s(-10.0..10.0), 1..32),
    ) {
        let b: Vec<f32> = a.iter().map(|x| x * 0.5 - 1.0).collect();
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        prop_assert!(l2_norm(&sum) <= l2_norm(&a) + l2_norm(&b) + 1e-4);
    }

    // -- Parallel determinism: pool results must be bitwise identical to
    // -- serial at any thread count, for random shapes.

    fn parallel_matmul_bitwise_matches_serial(
        m in usizes(1..80),
        k in usizes(1..40),
        n in usizes(1..80),
        seed in u64s(0..1000),
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 0xB);
        let bt = b.transpose2();
        let serial = apf_par::with_threads(1, || {
            (a.matmul(&b), a.matmul_nt(&bt), a.transpose2().matmul_tn(&b))
        });
        for t in [2usize, 7] {
            let par = apf_par::with_threads(t, || {
                (a.matmul(&b), a.matmul_nt(&bt), a.transpose2().matmul_tn(&b))
            });
            prop_assert!(serial.0 == par.0, "matmul differs at threads={t}");
            prop_assert!(serial.1 == par.1, "matmul_nt differs at threads={t}");
            prop_assert!(serial.2 == par.2, "matmul_tn differs at threads={t}");
        }
    }

    fn parallel_conv2d_bitwise_matches_serial(
        c in usizes(1..4),
        o in usizes(1..4),
        hw in usizes(3..10),
        seed in u64s(0..200),
    ) {
        let spec = ConvSpec { in_channels: c, out_channels: o, kernel: 3, stride: 1, padding: 1 };
        let n = 2;
        let input = Tensor::from_vec(
            (0..n * c * hw * hw)
                .map(|i| ((apf_tensor::splitmix64(seed ^ i as u64) % 200) as f32 / 100.0) - 1.0)
                .collect(),
            &[n, c, hw, hw],
        );
        let weight = matrix(o, c * 9, seed ^ 0x17);
        let bias = matrix(1, o, seed ^ 0x29).reshape(&[o]);
        let run = || {
            let (out, cols) = apf_tensor::conv2d_forward(&input, &weight, &bias, &spec);
            let grad_out = out.map(|x| x * 0.5);
            let grads = apf_tensor::conv2d_backward(&grad_out, &cols, &weight, &spec, (hw, hw));
            (out, grads.input, grads.weight, grads.bias)
        };
        let serial = apf_par::with_threads(1, run);
        for t in [2usize, 7] {
            let par = apf_par::with_threads(t, run);
            prop_assert!(serial.0 == par.0, "forward differs at threads={t}");
            prop_assert!(serial.1 == par.1, "grad input differs at threads={t}");
            prop_assert!(serial.2 == par.2, "grad weight differs at threads={t}");
            prop_assert!(serial.3 == par.3, "grad bias differs at threads={t}");
        }
    }

    // -- Packed GEMM vs the naive reference kernels: bitwise, on random
    // -- shapes (including K=0 and M=1 edges), at several thread counts.

    fn packed_gemm_bitwise_matches_reference(
        m in usizes(1..100),
        k in usizes(0..60),
        n in usizes(1..100),
        seed in u64s(0..1000),
    ) {
        // The drawn shape plus forced edge cases: M=1 and K=0.
        for (m, k, n) in [(m, k, n), (1, k.max(1), n), (m, 0, n)] {
            let a = matrix(m, k, seed);
            let b = matrix(k, n, seed ^ 0xB);
            let bt = b.transpose2();
            let at = a.transpose2();
            let want = (
                a.matmul_reference(&b),
                a.matmul_nt_reference(&bt),
                at.matmul_tn_reference(&b),
            );
            for t in [1usize, 2, 7] {
                let got = apf_par::with_threads(t, || {
                    (a.matmul(&b), a.matmul_nt(&bt), at.matmul_tn(&b))
                });
                for (which, (g, w)) in [
                    ("matmul", (&got.0, &want.0)),
                    ("matmul_nt", (&got.1, &want.1)),
                    ("matmul_tn", (&got.2, &want.2)),
                ] {
                    for (gv, wv) in g.data().iter().zip(w.data()) {
                        prop_assert!(
                            gv.to_bits() == wv.to_bits(),
                            "{which} {m}x{k}x{n} threads={t}: {gv} vs {wv}"
                        );
                    }
                }
            }
        }
    }

    fn fused_conv_bitwise_matches_unfused(
        c in usizes(1..4),
        o in usizes(1..5),
        hw in usizes(4..10),
        seed in u64s(0..200),
    ) {
        let spec = ConvSpec { in_channels: c, out_channels: o, kernel: 3, stride: 1, padding: 1 };
        let n = 2;
        let input = Tensor::from_vec(
            (0..n * c * hw * hw)
                .map(|i| ((apf_tensor::splitmix64(seed ^ i as u64) % 200) as f32 / 100.0) - 1.0)
                .collect(),
            &[n, c, hw, hw],
        );
        let weight = matrix(o, c * 9, seed ^ 0x17);
        let bias = matrix(1, o, seed ^ 0x29).reshape(&[o]);
        let (want_out, cols) = apf_tensor::conv2d_forward(&input, &weight, &bias, &spec);
        let grad_out = want_out.map(|x| x * 0.25);
        let want = apf_tensor::conv2d_backward(&grad_out, &cols, &weight, &spec, (hw, hw));
        for t in [1usize, 2, 7] {
            let (out, grads) = apf_par::with_threads(t, || {
                (
                    apf_tensor::conv2d_forward_fused(&input, &weight, &bias, &spec),
                    apf_tensor::conv2d_backward_fused(&grad_out, &input, &weight, &spec),
                )
            });
            prop_assert!(out == want_out, "fused forward differs at threads={t}");
            prop_assert!(grads.input == want.input, "fused grad input differs at threads={t}");
            prop_assert!(grads.weight == want.weight, "fused grad weight differs at threads={t}");
            prop_assert!(grads.bias == want.bias, "fused grad bias differs at threads={t}");
        }
    }

    // -- The fused packers read a zero-bordered copy of the input in
    // -- output-row runs. Random geometry (kernel, stride, padding) and
    // -- batch sizes make N·oh·ow land off multiples of NR and of ow, so
    // -- panels cross output rows, samples and padding.

    fn fused_conv_packers_bitwise_match_unfused(
        geom in usizes(0..18),
        c in usizes(1..5),
        o in usizes(1..10),
        hw in usizes(5..14),
        n in usizes(1..6),
        seed in u64s(0..1000),
    ) {
        let (kernel, stride, padding) = ([1, 3, 5][geom % 3], 1 + geom / 3 % 2, geom / 6);
        let spec = ConvSpec { in_channels: c, out_channels: o, kernel, stride, padding };
        let input = Tensor::from_vec(
            (0..n * c * hw * hw)
                .map(|i| ((apf_tensor::splitmix64(seed ^ i as u64) % 200) as f32 / 100.0) - 1.0)
                .collect(),
            &[n, c, hw, hw],
        );
        let weight = matrix(o, c * kernel * kernel, seed ^ 0x17);
        let bias = matrix(1, o, seed ^ 0x29).reshape(&[o]);
        let (want_out, cols) = apf_tensor::conv2d_forward(&input, &weight, &bias, &spec);
        let grad_out = want_out.map(|x| x * 0.25 - 0.1);
        let want = apf_tensor::conv2d_backward(&grad_out, &cols, &weight, &spec, (hw, hw));
        for t in [1usize, 2, 7] {
            let (out, grads, params) = apf_par::with_threads(t, || {
                (
                    apf_tensor::conv2d_forward_fused(&input, &weight, &bias, &spec),
                    apf_tensor::conv2d_backward_fused(&grad_out, &input, &weight, &spec),
                    apf_tensor::conv2d_backward_params_fused(&grad_out, &input, &spec),
                )
            });
            let ctx = format!("{spec:?} n={n} hw={hw} threads={t}");
            prop_assert!(bits(&out) == bits(&want_out), "fused forward differs: {ctx}");
            prop_assert!(bits(&grads.input) == bits(&want.input), "grad input differs: {ctx}");
            prop_assert!(bits(&grads.weight) == bits(&want.weight), "grad weight differs: {ctx}");
            prop_assert!(bits(&grads.bias) == bits(&want.bias), "grad bias differs: {ctx}");
            prop_assert!(bits(&params.0) == bits(&want.weight), "params-only weight differs: {ctx}");
            prop_assert!(bits(&params.1) == bits(&want.bias), "params-only bias differs: {ctx}");
        }
    }

    fn parallel_reduce_bitwise_matches_serial(
        len in usizes(1..100_000),
        seed in u64s(0..1000),
    ) {
        let x = matrix(1, len, seed).reshape(&[len]);
        let serial = apf_par::with_threads(1, || (x.sum().to_bits(), x.norm_sq().to_bits()));
        for t in [2usize, 7] {
            let par = apf_par::with_threads(t, || (x.sum().to_bits(), x.norm_sq().to_bits()));
            prop_assert!(serial == par, "reduction differs at threads={t}");
        }
    }
}
