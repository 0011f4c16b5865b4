//! LSTM layer with full backpropagation-through-time, plus the [`LastStep`]
//! adapter that feeds the final hidden state into a classification head.

use apf_tensor::{matmul_into, matmul_nt_into, matmul_tn_into, scratch, Rng};
use apf_tensor::{xavier_uniform, Tensor};

use crate::layer::{Layer, Mode};
use crate::layers::activation::sigmoid;

/// A single LSTM layer processing a whole sequence.
///
/// Input is `[N, T, input_size]`, output is the hidden sequence
/// `[N, T, hidden]`. Gates are packed `i, f, g, o` along the `4H` axis.
/// Parameters: `"<name>-wih"` (`[4H, D]`), `"<name>-whh"` (`[4H, H]`),
/// `"<name>-b"` (`[4H]`).
///
/// The recurrence runs over a few whole-sequence buffers. Forward projects
/// every step's input with one GEMM, `x[N·T, D] · W_ihᵀ`, straight into the
/// gate buffer; each step then adds `h_{t-1} · W_hhᵀ` and the bias, in the
/// order `(xw + hw) + b`, and applies the gates in place. Backward writes
/// each step's pre-activation gradient over that step's (dead) gate rows,
/// accumulates the parameter gradients step by step in reverse time, and
/// computes the input gradient with one GEMM over all steps at the end.
/// Every GEMM output element is one ascending-`k` dot product at any row
/// count, so batching the steps changes no bit of any result.
pub struct LstmLayer {
    name: String,
    input_size: usize,
    hidden: usize,
    w_ih: Tensor,
    w_hh: Tensor,
    bias: Tensor,
    grad_w_ih: Tensor,
    grad_w_hh: Tensor,
    grad_bias: Tensor,
    cache: Option<LstmCache>,
}

/// What forward leaves for backward. Every buffer is time-major (step `t`
/// owns rows `t·N .. (t+1)·N`) and comes from the scratch pool; backward
/// hands them back, and a forward with no backward after it (evaluation)
/// hands back its predecessor's.
struct LstmCache {
    /// The input `[T·N, D]`.
    x: Vec<f32>,
    /// Post-activation gates `[T·N, 4H]`, packed i,f,g,o. Backward
    /// overwrites each step's rows with its pre-activation gradient.
    gates: Vec<f32>,
    /// `h_{t-1}` for t = 0..=T `[(T+1)·N, H]`; block 0 is the zero state.
    hs: Vec<f32>,
    /// `c_{t-1}`, same convention.
    cs: Vec<f32>,
    /// `tanh(c_t)` for t = 0..T `[T·N, H]`.
    tanh_c: Vec<f32>,
    n: usize,
    t: usize,
}

impl LstmCache {
    fn recycle(self) {
        for buf in [self.x, self.gates, self.hs, self.cs, self.tanh_c] {
            scratch::give(buf);
        }
    }
}

/// `dst += src`, elementwise.
fn add_into(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

impl std::fmt::Debug for LstmLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LstmLayer")
            .field("name", &self.name)
            .field("input_size", &self.input_size)
            .field("hidden", &self.hidden)
            .finish()
    }
}

impl LstmLayer {
    /// Creates an LSTM layer with Xavier-uniform weights.
    ///
    /// The forget-gate bias is initialized to 1.0 (standard trick easing
    /// gradient flow early in training).
    pub fn new(name: &str, input_size: usize, hidden: usize, rng: &mut Rng) -> Self {
        let mut bias = Tensor::zeros(&[4 * hidden]);
        for i in hidden..2 * hidden {
            bias.data_mut()[i] = 1.0;
        }
        LstmLayer {
            name: name.to_owned(),
            input_size,
            hidden,
            w_ih: xavier_uniform(&[4 * hidden, input_size], input_size, hidden, rng),
            w_hh: xavier_uniform(&[4 * hidden, hidden], hidden, hidden, rng),
            bias,
            grad_w_ih: Tensor::zeros(&[4 * hidden, input_size]),
            grad_w_hh: Tensor::zeros(&[4 * hidden, hidden]),
            grad_bias: Tensor::zeros(&[4 * hidden]),
            cache: None,
        }
    }

    /// Hidden state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs BPTT from the output gradient: accumulates the parameter
    /// gradients and returns the cache with each step's pre-activation
    /// gradient `[T·N, 4H]` in place of its gates.
    fn backward_steps(&mut self, grad: Tensor) -> LstmCache {
        let mut cache = self.cache.take().expect("lstm backward before forward");
        let (n, t, h, d) = (cache.n, cache.t, self.hidden, self.input_size);
        assert_eq!(grad.shape(), &[n, t, h], "lstm grad shape mismatch");
        let (g4, nh) = (4 * h, n * h);
        let gd = grad.data();

        // Carries from step t+1 (zero past the last step) and per-step
        // parameter-gradient terms.
        let mut dh = scratch::take(nh);
        let mut dc = scratch::take(nh);
        let mut gw_ih = scratch::take(g4 * d);
        let mut gw_hh = scratch::take(g4 * h);
        let mut gb = scratch::take(g4);

        for ti in (0..t).rev() {
            // dh_t = carry from t+1 + grad from the output sequence.
            for (ni, row) in dh.chunks_exact_mut(h).enumerate() {
                add_into(row, &gd[(ni * t + ti) * h..][..h]);
            }
            let dpre = &mut cache.gates[ti * n * g4..(ti + 1) * n * g4];
            let c_prev = &cache.cs[ti * nh..(ti + 1) * nh];
            let tanh_c = &cache.tanh_c[ti * nh..(ti + 1) * nh];
            for ni in 0..n {
                let row = &mut dpre[ni * g4..(ni + 1) * g4];
                for hi in 0..h {
                    let k = ni * h + hi;
                    let ig = row[hi];
                    let fg = row[h + hi];
                    let gg = row[2 * h + hi];
                    let og = row[3 * h + hi];
                    let tc = tanh_c[k];
                    let dhv = dh[k];
                    let mut dcv = dc[k];
                    dcv += dhv * og * (1.0 - tc * tc);
                    let do_ = dhv * tc;
                    let di = dcv * gg;
                    let dg = dcv * ig;
                    let df = dcv * c_prev[k];
                    dc[k] = dcv * fg;
                    row[hi] = di * ig * (1.0 - ig);
                    row[h + hi] = df * fg * (1.0 - fg);
                    row[2 * h + hi] = dg * (1.0 - gg * gg);
                    row[3 * h + hi] = do_ * og * (1.0 - og);
                }
            }
            let dpre = &cache.gates[ti * n * g4..(ti + 1) * n * g4];

            // Parameter gradients, one step at a time: summing over all
            // steps in one GEMM would reassociate the accumulation.
            matmul_tn_into(dpre, &cache.x[ti * n * d..][..n * d], g4, n, d, &mut gw_ih);
            add_into(self.grad_w_ih.data_mut(), &gw_ih);
            matmul_tn_into(dpre, &cache.hs[ti * nh..][..nh], g4, n, h, &mut gw_hh);
            add_into(self.grad_w_hh.data_mut(), &gw_hh);
            gb.fill(0.0);
            for row in dpre.chunks_exact(g4) {
                add_into(&mut gb, row);
            }
            add_into(self.grad_bias.data_mut(), &gb);

            // Recurrent carry dh_{t-1} = dpre_t · W_hh.
            matmul_into(dpre, self.w_hh.data(), n, g4, h, &mut dh);
        }

        for buf in [dh, dc, gw_ih, gw_hh, gb] {
            scratch::give(buf);
        }
        grad.recycle();
        cache
    }
}

impl Layer for LstmLayer {
    fn forward(&mut self, x: Tensor, _mode: Mode, _rng: &mut Rng) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 3, "lstm expects [N, T, D]");
        let (n, t, d) = (s[0], s[1], s[2]);
        assert_eq!(d, self.input_size, "lstm input width mismatch");
        // An evaluation forward leaves a cache no backward consumed.
        if let Some(stale) = self.cache.take() {
            stale.recycle();
        }
        let h = self.hidden;
        let (g4, nh, rows) = (4 * h, n * h, n * t);

        // Time-major copy of the input: row t·N + n is x[n, t, :].
        let mut xs = scratch::take_reserved(rows * d);
        for ti in 0..t {
            for ni in 0..n {
                xs.extend_from_slice(&x.data()[(ni * t + ti) * d..][..d]);
            }
        }
        x.recycle();

        // Every step's input projection at once, straight into the gates.
        let mut gates = scratch::take(rows * g4);
        matmul_nt_into(&xs, self.w_ih.data(), rows, d, g4, &mut gates);

        let mut hs = scratch::take((t + 1) * nh);
        let mut cs = scratch::take((t + 1) * nh);
        let mut tanh_c = scratch::take(rows * h);
        let mut hw = scratch::take(n * g4);
        let mut out = Tensor::scratch(&[n, t, h]);
        let bias = self.bias.data();

        for ti in 0..t {
            // pre = (x_t W_ih^T + h_{t-1} W_hh^T) + b  -> [N, 4H]
            matmul_nt_into(&hs[ti * nh..][..nh], self.w_hh.data(), n, h, g4, &mut hw);
            let pre = &mut gates[ti * n * g4..(ti + 1) * n * g4];
            for (row, hw_row) in pre.chunks_exact_mut(g4).zip(hw.chunks_exact(g4)) {
                for ((p, &v), &b) in row.iter_mut().zip(hw_row).zip(bias) {
                    *p = (*p + v) + b;
                }
            }

            let (c_done, c_next) = cs.split_at_mut((ti + 1) * nh);
            let c_prev = &c_done[ti * nh..];
            let h_next = &mut hs[(ti + 1) * nh..][..nh];
            let tc_t = &mut tanh_c[ti * nh..(ti + 1) * nh];
            let o = out.data_mut();
            for ni in 0..n {
                let row = &mut pre[ni * g4..(ni + 1) * g4];
                for hi in 0..h {
                    let k = ni * h + hi;
                    let ig = sigmoid(row[hi]);
                    let fg = sigmoid(row[h + hi]);
                    let gg = row[2 * h + hi].tanh();
                    let og = sigmoid(row[3 * h + hi]);
                    let c = fg * c_prev[k] + ig * gg;
                    row[hi] = ig;
                    row[h + hi] = fg;
                    row[2 * h + hi] = gg;
                    row[3 * h + hi] = og;
                    c_next[k] = c;
                    let tc = c.tanh();
                    tc_t[k] = tc;
                    let hv = og * tc;
                    h_next[k] = hv;
                    o[(ni * t + ti) * h + hi] = hv;
                }
            }
        }
        scratch::give(hw);

        self.cache = Some(LstmCache {
            x: xs,
            gates,
            hs,
            cs,
            tanh_c,
            n,
            t,
        });
        out
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let mut cache = self.backward_steps(grad);
        let (n, t, d) = (cache.n, cache.t, self.input_size);
        let g4 = 4 * self.hidden;
        // dX for every step in one GEMM over the whole dpre buffer, into
        // the (now dead) time-major input buffer, then back to [N, T, D].
        matmul_into(&cache.gates, self.w_ih.data(), n * t, g4, d, &mut cache.x);
        let mut grad_x = scratch::take_reserved(n * t * d);
        for ni in 0..n {
            for ti in 0..t {
                grad_x.extend_from_slice(&cache.x[(ti * n + ni) * d..][..d]);
            }
        }
        cache.recycle();
        Tensor::from_vec(grad_x, &[n, t, d])
    }

    fn backward_params(&mut self, grad: Tensor) {
        self.backward_steps(grad).recycle();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, bool, &mut Tensor, &mut Tensor)) {
        let a = format!("{}-wih", self.name);
        f(&a, true, &mut self.w_ih, &mut self.grad_w_ih);
        let b = format!("{}-whh", self.name);
        f(&b, true, &mut self.w_hh, &mut self.grad_w_hh);
        let c = format!("{}-b", self.name);
        f(&c, true, &mut self.bias, &mut self.grad_bias);
    }

    fn kind(&self) -> &'static str {
        "lstm"
    }
}

/// Extracts the final timestep of a `[N, T, H]` sequence as `[N, H]`.
///
/// Its backward pass scatters the gradient to the last step and zeros
/// everywhere else, so it composes with [`LstmLayer`] in a [`crate::Sequential`].
#[derive(Debug, Default)]
pub struct LastStep {
    cached_shape: Option<Vec<usize>>,
}

impl LastStep {
    /// Creates the adapter.
    pub fn new() -> Self {
        LastStep::default()
    }
}

impl Layer for LastStep {
    fn forward(&mut self, x: Tensor, _mode: Mode, _rng: &mut Rng) -> Tensor {
        let s = x.shape().to_vec();
        assert_eq!(s.len(), 3, "last-step expects [N, T, H]");
        let (n, t, h) = (s[0], s[1], s[2]);
        let mut out = scratch::take_reserved(n * h);
        for ni in 0..n {
            out.extend_from_slice(&x.data()[(ni * t + t - 1) * h..(ni * t + t) * h]);
        }
        x.recycle();
        self.cached_shape = Some(s);
        Tensor::from_vec(out, &[n, h])
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let s = self
            .cached_shape
            .take()
            .expect("last-step backward before forward");
        let (n, t, h) = (s[0], s[1], s[2]);
        let mut out = Tensor::scratch(&s);
        for ni in 0..n {
            let dst = &mut out.data_mut()[(ni * t + t - 1) * h..(ni * t + t) * h];
            dst.copy_from_slice(&grad.data()[ni * h..(ni + 1) * h]);
        }
        grad.recycle();
        out
    }

    fn kind(&self) -> &'static str {
        "last_step"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_tensor::seeded_rng;

    #[test]
    fn forward_shapes() {
        let mut rng = seeded_rng(0);
        let mut lstm = LstmLayer::new("l1", 5, 7, &mut rng);
        let x = Tensor::zeros(&[3, 4, 5]);
        let y = lstm.forward(x, Mode::Train, &mut rng);
        assert_eq!(y.shape(), &[3, 4, 7]);
    }

    #[test]
    fn zero_input_zero_weights_gives_zero_hidden() {
        let mut rng = seeded_rng(1);
        let mut lstm = LstmLayer::new("l", 2, 3, &mut rng);
        lstm.visit_params(&mut |_, _, v, _| v.fill(0.0));
        let y = lstm.forward(Tensor::zeros(&[1, 3, 2]), Mode::Train, &mut rng);
        // All gates 0.5/0, c stays 0, h = 0.5*tanh(0) = 0.
        assert!(y.data().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn backward_matches_finite_difference_weights() {
        let mut rng = seeded_rng(2);
        let mut lstm = LstmLayer::new("l", 3, 4, &mut rng);
        let x = Tensor::from_vec(
            (0..2 * 3 * 3)
                .map(|i| ((i * 13 % 7) as f32 - 3.0) * 0.2)
                .collect(),
            &[2, 3, 3],
        );
        // Loss: sum of all hidden outputs.
        let y = lstm.forward(x.clone(), Mode::Train, &mut rng);
        lstm.backward(Tensor::ones(y.shape()));
        for (pick, idx) in [("-wih", 5usize), ("-whh", 9), ("-b", 2), ("-b", 6)] {
            let mut analytic = 0.0;
            lstm.visit_params(&mut |n, _, _, g| {
                if n.ends_with(pick) {
                    analytic = g.data()[idx];
                }
            });
            let eps = 1e-3;
            let bump = |d: f32, l: &mut LstmLayer| {
                l.visit_params(&mut |n, _, v, _| {
                    if n.ends_with(pick) {
                        v.data_mut()[idx] += d;
                    }
                });
            };
            bump(eps, &mut lstm);
            let yp = lstm.forward(x.clone(), Mode::Train, &mut rng).sum();
            bump(-2.0 * eps, &mut lstm);
            let ym = lstm.forward(x.clone(), Mode::Train, &mut rng).sum();
            bump(eps, &mut lstm);
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 0.02 * (1.0 + fd.abs()),
                "{pick}[{idx}]: fd={fd} analytic={analytic}"
            );
        }
    }

    #[test]
    fn backward_matches_finite_difference_input() {
        let mut rng = seeded_rng(3);
        let mut lstm = LstmLayer::new("l", 2, 3, &mut rng);
        let x = Tensor::from_vec(
            (0..4 * 2).map(|i| (i as f32 * 0.37).cos() * 0.5).collect(),
            &[1, 4, 2],
        );
        let y = lstm.forward(x.clone(), Mode::Train, &mut rng);
        let gi = lstm.backward(Tensor::ones(y.shape()));
        let eps = 1e-3;
        for idx in [0usize, 3, 5, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let yp = lstm.forward(xp, Mode::Train, &mut rng).sum();
            let ym = lstm.forward(xm, Mode::Train, &mut rng).sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - gi.data()[idx]).abs() < 0.02 * (1.0 + fd.abs()),
                "x[{idx}]: fd={fd} analytic={}",
                gi.data()[idx]
            );
        }
    }

    #[test]
    fn last_step_extracts_and_scatters() {
        let mut rng = seeded_rng(4);
        let mut ls = LastStep::new();
        let x = Tensor::from_vec((0..2 * 3 * 2).map(|i| i as f32).collect(), &[2, 3, 2]);
        let y = ls.forward(x, Mode::Eval, &mut rng);
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.data(), &[4.0, 5.0, 10.0, 11.0]);
        let g = ls.backward(Tensor::ones(&[2, 2]));
        assert_eq!(g.shape(), &[2, 3, 2]);
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.data()[4], 1.0);
        assert_eq!(g.data()[0], 0.0);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = seeded_rng(5);
        let mut lstm = LstmLayer::new("l", 2, 3, &mut rng);
        lstm.visit_params(&mut |n, _, v, _| {
            if n.ends_with("-b") {
                assert_eq!(&v.data()[3..6], &[1.0, 1.0, 1.0]);
                assert_eq!(&v.data()[0..3], &[0.0, 0.0, 0.0]);
            }
        });
    }
}
