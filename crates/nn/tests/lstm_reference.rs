//! Bitwise oracle for [`LstmLayer`]: a test-side copy of the per-step LSTM
//! (one `[N, D]` input tensor, one gate tensor and one h/c pair per
//! timestep, every product a fresh per-step GEMM) must agree bit for bit
//! with the layer's whole-sequence implementation — forward output,
//! parameter gradients, input gradient and the `backward_params`
//! gradients — on random shapes, including every dimension at 1.

use apf_nn::{Layer, LstmLayer, Mode};
use apf_tensor::{seeded_rng, splitmix64, Tensor};
use apf_testkit::{prop_assert_eq, property, u64s, usizes, TestCaseResult};

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The per-step LSTM: the reference the layer is checked against.
struct StepLstm {
    hidden: usize,
    w_ih: Tensor,
    w_hh: Tensor,
    bias: Tensor,
    grad_w_ih: Tensor,
    grad_w_hh: Tensor,
    grad_bias: Tensor,
    cache: Option<StepCache>,
}

struct StepCache {
    xs: Vec<Tensor>,
    hs: Vec<Tensor>,
    cs: Vec<Tensor>,
    gates: Vec<Tensor>,
    n: usize,
    t: usize,
}

impl StepLstm {
    /// A reference sharing `layer`'s current parameter values.
    fn mirror(layer: &mut LstmLayer) -> Self {
        let mut params = Vec::new();
        layer.visit_params(&mut |_, _, v, _| params.push(v.clone()));
        let [w_ih, w_hh, bias]: [Tensor; 3] = params.try_into().expect("three lstm params");
        StepLstm {
            hidden: w_hh.shape()[1],
            grad_w_ih: Tensor::zeros(w_ih.shape()),
            grad_w_hh: Tensor::zeros(w_hh.shape()),
            grad_bias: Tensor::zeros(bias.shape()),
            w_ih,
            w_hh,
            bias,
            cache: None,
        }
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let s = x.shape();
        let (n, t, d) = (s[0], s[1], s[2]);
        let h = self.hidden;
        let mut xs = Vec::with_capacity(t);
        for ti in 0..t {
            let mut step = vec![0.0f32; n * d];
            for ni in 0..n {
                let src = &x.data()[(ni * t + ti) * d..(ni * t + ti + 1) * d];
                step[ni * d..(ni + 1) * d].copy_from_slice(src);
            }
            xs.push(Tensor::from_vec(step, &[n, d]));
        }
        let mut hs = vec![Tensor::zeros(&[n, h])];
        let mut cs = vec![Tensor::zeros(&[n, h])];
        let mut gates = Vec::with_capacity(t);
        let mut out = vec![0.0f32; n * t * h];
        for ti in 0..t {
            let mut pre = xs[ti].matmul_nt(&self.w_ih);
            pre.axpy(1.0, &hs[ti].matmul_nt(&self.w_hh));
            pre.add_row_in_place(&self.bias);
            let mut gate = vec![0.0f32; n * 4 * h];
            let mut c_t = vec![0.0f32; n * h];
            let mut h_t = vec![0.0f32; n * h];
            let c_prev = cs[ti].data();
            let pd = pre.data();
            for ni in 0..n {
                for hi in 0..h {
                    let base = ni * 4 * h;
                    let ig = sigmoid(pd[base + hi]);
                    let fg = sigmoid(pd[base + h + hi]);
                    let gg = pd[base + 2 * h + hi].tanh();
                    let og = sigmoid(pd[base + 3 * h + hi]);
                    let c = fg * c_prev[ni * h + hi] + ig * gg;
                    gate[base + hi] = ig;
                    gate[base + h + hi] = fg;
                    gate[base + 2 * h + hi] = gg;
                    gate[base + 3 * h + hi] = og;
                    c_t[ni * h + hi] = c;
                    let hv = og * c.tanh();
                    h_t[ni * h + hi] = hv;
                    out[(ni * t + ti) * h + hi] = hv;
                }
            }
            gates.push(Tensor::from_vec(gate, &[n, 4 * h]));
            cs.push(Tensor::from_vec(c_t, &[n, h]));
            hs.push(Tensor::from_vec(h_t, &[n, h]));
        }
        self.cache = Some(StepCache {
            xs,
            hs,
            cs,
            gates,
            n,
            t,
        });
        Tensor::from_vec(out, &[n, t, h])
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let (n, t, h) = (cache.n, cache.t, self.hidden);
        let d = self.w_ih.shape()[1];
        let mut dh_next = Tensor::zeros(&[n, h]);
        let mut dc_next = Tensor::zeros(&[n, h]);
        let mut grad_x = vec![0.0f32; n * t * d];
        for ti in (0..t).rev() {
            let mut dh = dh_next.clone();
            for ni in 0..n {
                for hi in 0..h {
                    dh.data_mut()[ni * h + hi] += grad.data()[(ni * t + ti) * h + hi];
                }
            }
            let gate = cache.gates[ti].data();
            let c_t = cache.cs[ti + 1].data();
            let c_prev = cache.cs[ti].data();
            let mut dpre = vec![0.0f32; n * 4 * h];
            let mut dc_prev = vec![0.0f32; n * h];
            for ni in 0..n {
                for hi in 0..h {
                    let base = ni * 4 * h;
                    let ig = gate[base + hi];
                    let fg = gate[base + h + hi];
                    let gg = gate[base + 2 * h + hi];
                    let og = gate[base + 3 * h + hi];
                    let tc = c_t[ni * h + hi].tanh();
                    let dhv = dh.data()[ni * h + hi];
                    let mut dc = dc_next.data()[ni * h + hi];
                    dc += dhv * og * (1.0 - tc * tc);
                    let do_ = dhv * tc;
                    let di = dc * gg;
                    let dg = dc * ig;
                    let df = dc * c_prev[ni * h + hi];
                    dc_prev[ni * h + hi] = dc * fg;
                    dpre[base + hi] = di * ig * (1.0 - ig);
                    dpre[base + h + hi] = df * fg * (1.0 - fg);
                    dpre[base + 2 * h + hi] = dg * (1.0 - gg * gg);
                    dpre[base + 3 * h + hi] = do_ * og * (1.0 - og);
                }
            }
            let dpre_t = Tensor::from_vec(dpre, &[n, 4 * h]);
            self.grad_w_ih.axpy(1.0, &dpre_t.matmul_tn(&cache.xs[ti]));
            self.grad_w_hh.axpy(1.0, &dpre_t.matmul_tn(&cache.hs[ti]));
            self.grad_bias.axpy(1.0, &dpre_t.sum_rows());
            let dx_t = dpre_t.matmul(&self.w_ih);
            for ni in 0..n {
                let dst = &mut grad_x[(ni * t + ti) * d..(ni * t + ti + 1) * d];
                dst.copy_from_slice(&dx_t.data()[ni * d..(ni + 1) * d]);
            }
            dh_next = dpre_t.matmul(&self.w_hh);
            dc_next = Tensor::from_vec(dc_prev, &[n, h]);
        }
        Tensor::from_vec(grad_x, &[n, t, d])
    }

    fn grads(&self) -> Vec<f32> {
        [&self.grad_w_ih, &self.grad_w_hh, &self.grad_bias]
            .iter()
            .flat_map(|g| g.data().iter().copied())
            .collect()
    }
}

fn layer_grads(layer: &mut LstmLayer) -> Vec<f32> {
    let mut out = Vec::new();
    layer.visit_params(&mut |_, _, _, g| out.extend_from_slice(g.data()));
    out
}

fn values(shape: &[usize], seed: u64) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        (0..n)
            .map(|i| ((splitmix64(seed ^ ((i as u64) << 8)) % 4001) as f32 / 1000.0) - 2.0)
            .collect(),
        shape,
    )
}

fn assert_bits(what: &str, got: &[f32], want: &[f32]) -> TestCaseResult {
    prop_assert_eq!(got.len(), want.len(), "{}: length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "{}[{}]: {} vs {}", what, i, g, w);
    }
    Ok(())
}

/// Two training steps (gradients accumulate across them), after an
/// evaluation forward whose cache the first step replaces; then the
/// parameters-only backward of a fresh copy.
fn check(n: usize, t: usize, d: usize, h: usize, seed: u64) -> TestCaseResult {
    let mut rng = seeded_rng(seed);
    let mut layer = LstmLayer::new("l", d, h, &mut rng);
    let mut reference = StepLstm::mirror(&mut layer);
    layer.forward(values(&[n, t, d], seed ^ 1), Mode::Eval, &mut rng);
    for step in 0..2u64 {
        let x = values(&[n, t, d], seed ^ (step + 2));
        let grad = values(&[n, t, h], seed ^ (step + 10));
        let y = layer.forward(x.clone(), Mode::Train, &mut rng);
        let y_ref = reference.forward(&x);
        assert_bits("forward output", y.data(), y_ref.data())?;
        let dx = layer.backward(grad.clone());
        let dx_ref = reference.backward(&grad);
        assert_bits("input grad", dx.data(), dx_ref.data())?;
        assert_bits("param grads", &layer_grads(&mut layer), &reference.grads())?;
    }

    let mut rng = seeded_rng(seed);
    let mut first = LstmLayer::new("l", d, h, &mut rng);
    let mut reference = StepLstm::mirror(&mut first);
    let x = values(&[n, t, d], seed ^ 20);
    let grad = values(&[n, t, h], seed ^ 21);
    first.forward(x.clone(), Mode::Train, &mut rng);
    first.backward_params(grad.clone());
    reference.forward(&x);
    reference.backward(&grad);
    assert_bits(
        "backward_params grads",
        &layer_grads(&mut first),
        &reference.grads(),
    )
}

property! {
    [48]
    fn lstm_matches_per_step_reference_bitwise(
        n in usizes(1..10),
        t in usizes(1..7),
        d in usizes(1..14),
        h in usizes(1..20),
        seed in u64s(0..1 << 20),
    ) {
        for threads in [1usize, 3] {
            apf_par::with_threads(threads, || check(n, t, d, h, seed))?;
        }
    }
}

/// The keyword-spotting model's two layers at their training batch, where
/// every GEMM takes the packed path (the property's small shapes mostly
/// take the naive one) and `4H` spans a full `KC` depth slab.
#[test]
fn lstm_matches_reference_at_model_shapes() {
    for (d, seed) in [(10usize, 3u64), (64, 4)] {
        check(16, 20, d, 64, seed).unwrap_or_else(|e| panic!("d={d}: {e:?}"));
    }
}
