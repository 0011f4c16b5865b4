//! Convolution and pooling kernels (im2col-based), with full backward passes.
//!
//! Layout conventions: activations are `[N, C, H, W]`, convolution weights are
//! `[O, C * kh * kw]` (pre-flattened), and the im2col matrix is
//! `[C * kh * kw, N * out_h * out_w]` so that the forward pass is a single
//! matrix product `weight x cols`.
//!
//! The hot path is the **fused** pair [`conv2d_forward_fused`] /
//! [`conv2d_backward_fused`]: instead of materializing the full im2col
//! matrix they generate its entries *directly into the packed GEMM panels*
//! (the B-operand packing closure of [`crate::gemm`]), so the column matrix
//! never exists in memory and the working set per task is one KC×NR panel.
//! Each fused call first copies its input into a zero-bordered scratch
//! buffer, so the packers copy runs of it with no padding tests.
//! [`conv2d_backward_params_fused`] is the backward pass without the input
//! gradient, for a model's first layer.
//! The unfused [`im2col`]/[`conv2d_forward`]/[`conv2d_backward`] entry
//! points are kept — they are the reference the fused path is tested
//! against, and some callers want the explicit matrix.
//!
//! The im2col/col2im transforms and the layout-shuffling assembly loops are
//! parallelized over contiguous row or plane blocks; within each block the
//! per-element operation order matches the serial code, so outputs are
//! bitwise identical at any `APF_PAR_THREADS`. The fused path reuses the
//! GEMM's ascending-`k` accumulation, so its outputs are bitwise identical
//! to the unfused `matmul`-based path too.

use crate::gemm;
use crate::scratch;
use crate::tensor::{rows_per_block, Tensor, PAR_OPS_MIN};

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl ConvSpec {
    /// Output spatial size for an `h x w` input.
    ///
    /// # Panics
    /// Panics if the padded input is smaller than the kernel.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kernel && pw >= self.kernel,
            "input {h}x{w} (+pad {}) smaller than kernel {}",
            self.padding,
            self.kernel
        );
        (
            (ph - self.kernel) / self.stride + 1,
            (pw - self.kernel) / self.stride + 1,
        )
    }

    /// Number of weight scalars: `out_channels * in_channels * kernel^2`.
    pub fn weight_len(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }
}

/// Geometry of a 2-D pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSpec {
    /// Square window side.
    pub kernel: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
}

impl PoolSpec {
    /// Output spatial size for an `h x w` input.
    ///
    /// # Panics
    /// Panics if the input is smaller than the window.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.kernel && w >= self.kernel,
            "input smaller than pool window"
        );
        (
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        )
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `[N, C, H, W]`.
    pub input: Tensor,
    /// Gradient w.r.t. the flattened weight, `[O, C*kh*kw]`.
    pub weight: Tensor,
    /// Gradient w.r.t. the bias, `[O]`.
    pub bias: Tensor,
}

/// Unfolds `input` (`[N, C, H, W]`) into the im2col matrix
/// `[C*k*k, N*out_h*out_w]` for the given convolution geometry.
///
/// # Panics
/// Panics if `input` is not rank 4 or channels disagree with `spec`.
pub fn im2col(input: &Tensor, spec: &ConvSpec) -> Tensor {
    let s = input.shape();
    assert_eq!(s.len(), 4, "im2col expects [N,C,H,W]");
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    assert_eq!(c, spec.in_channels, "channel mismatch");
    let k = spec.kernel;
    let (oh, ow) = spec.out_size(h, w);
    let cols_w = n * oh * ow;
    let rows = c * k * k;
    let mut cols_t = Tensor::scratch(&[rows, cols_w]);
    let data = input.data();
    let pad = spec.padding as isize;
    // Row-outer so each parallel chunk is a contiguous block of complete
    // matrix rows; every element is written at most once (pure gather), so
    // the result is independent of chunking.
    let rows_per = rows_per_block(rows, cols_w.max(1));
    apf_par::par_chunks_mut(cols_t.data_mut(), rows_per * cols_w, |bi, block| {
        for (ri, cols_row) in block.chunks_mut(cols_w).enumerate() {
            let row = bi * rows_per + ri;
            let ci = row / (k * k);
            let ky = (row / k) % k;
            let kx = row % k;
            for ni in 0..n {
                let plane = &data[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                let row_base = ni * oh * ow;
                for oy in 0..oh {
                    let iy = (oy * spec.stride) as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let in_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                    let out_base = row_base + oy * ow;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride) as isize + kx as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        cols_row[out_base + ox] = in_row[ix as usize];
                    }
                }
            }
        }
    });
    cols_t
}

/// Folds an im2col-layout gradient back into an input-shaped tensor
/// (the adjoint of [`im2col`]): overlapping windows accumulate.
///
/// # Panics
/// Panics if `cols` does not have the layout produced by `im2col` for
/// `(n, h, w)` under `spec`.
pub fn col2im(cols: &Tensor, spec: &ConvSpec, n: usize, h: usize, w: usize) -> Tensor {
    let k = spec.kernel;
    let c = spec.in_channels;
    let (oh, ow) = spec.out_size(h, w);
    let cols_w = n * oh * ow;
    assert_eq!(cols.shape(), &[c * k * k, cols_w], "col2im layout mismatch");
    let mut out = Tensor::scratch(&[n, c, h, w]);
    let data = cols.data();
    let pad = spec.padding as isize;
    // Parallel over contiguous `[h, w]` planes. Overlapping windows only
    // accumulate *within* a plane, and the per-plane loop order (ky, kx, oy,
    // ox) matches the serial code exactly, so splitting across planes keeps
    // every float association identical.
    let hw = h * w;
    let planes_per = rows_per_block(n * c, k * k * oh * ow);
    apf_par::par_chunks_mut(out.data_mut(), planes_per * hw, |bi, block| {
        for (pi, plane) in block.chunks_mut(hw).enumerate() {
            let nc = bi * planes_per + pi;
            let (ni, ci) = (nc / c, nc % c);
            for ky in 0..k {
                for kx in 0..k {
                    let row = ci * k * k + ky * k + kx;
                    let row_base = row * cols_w + ni * oh * ow;
                    for oy in 0..oh {
                        let iy = (oy * spec.stride) as isize + ky as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let out_base = iy as usize * w;
                        let in_base = row_base + oy * ow;
                        for ox in 0..ow {
                            let ix = (ox * spec.stride) as isize + kx as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            plane[out_base + ix as usize] += data[in_base + ox];
                        }
                    }
                }
            }
        }
    });
    out
}

/// 2-D convolution forward pass.
///
/// `input` is `[N, C, H, W]`, `weight` is `[O, C*k*k]`, `bias` is `[O]`.
/// Returns `(output [N, O, oh, ow], cols)` where `cols` is the im2col matrix
/// to be reused by [`conv2d_backward`].
///
/// # Panics
/// Panics on any shape mismatch.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &ConvSpec,
) -> (Tensor, Tensor) {
    let s = input.shape();
    assert_eq!(s.len(), 4, "conv2d expects [N,C,H,W]");
    let (n, _, h, w) = (s[0], s[1], s[2], s[3]);
    let k = spec.kernel;
    assert_eq!(
        weight.shape(),
        &[spec.out_channels, spec.in_channels * k * k],
        "weight shape mismatch"
    );
    assert_eq!(bias.numel(), spec.out_channels, "bias shape mismatch");
    let (oh, ow) = spec.out_size(h, w);
    let cols = im2col(input, spec);
    // [O, CKK] x [CKK, N*oh*ow] -> [O, N*oh*ow]
    let out_mat = weight.matmul(&cols);
    let o = spec.out_channels;
    let hw = oh * ow;
    let mut out = Tensor::scratch(&[n, o, oh, ow]);
    assemble_output(out.data_mut(), out_mat.data(), bias.data(), n, o, hw);
    out_mat.recycle();
    (out, cols)
}

/// Assembles the GEMM output `[O, N*oh*ow]` into `[N, O, oh, ow]`, adding
/// the per-channel bias. Each output plane is written exactly once (pure
/// scatter + bias add), so parallel chunking cannot change the result.
fn assemble_output(out: &mut [f32], om: &[f32], b: &[f32], n: usize, o: usize, hw: usize) {
    let planes_per = rows_per_block(n * o, hw.max(1));
    apf_par::par_chunks_mut(out, planes_per * hw, |bi, block| {
        for (pi, dst) in block.chunks_mut(hw).enumerate() {
            let pl = bi * planes_per + pi;
            let (ni, oi) = (pl / o, pl % o);
            let src = &om[oi * n * hw + ni * hw..oi * n * hw + (ni + 1) * hw];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = v + b[oi];
            }
        }
    });
}

/// 2-D convolution backward pass.
///
/// `grad_out` is `[N, O, oh, ow]`; `cols` is the matrix returned by
/// [`conv2d_forward`]. Returns gradients for input, weight, and bias.
///
/// # Panics
/// Panics on any shape mismatch.
pub fn conv2d_backward(
    grad_out: &Tensor,
    cols: &Tensor,
    weight: &Tensor,
    spec: &ConvSpec,
    input_hw: (usize, usize),
) -> Conv2dGrads {
    let s = grad_out.shape();
    assert_eq!(s.len(), 4, "grad_out must be [N,O,oh,ow]");
    let (n, o, oh, ow) = (s[0], s[1], s[2], s[3]);
    assert_eq!(o, spec.out_channels);
    let hw = oh * ow;
    let grad_mat = rearrange_grad(grad_out, n, o, hw);
    let grad_weight = grad_mat.matmul_nt(cols); // [O, CKK]
    let grad_bias = bias_sums(&grad_mat);
    let grad_input = input_grad(&grad_mat, weight, spec, n, input_hw);
    grad_mat.recycle();
    Conv2dGrads {
        input: grad_input,
        weight: grad_weight,
        bias: grad_bias,
    }
}

/// The input gradient from the rearranged `grad_mat [O, N*oh*ow]`:
/// `weightᵀ · grad_mat` gives the column-matrix gradient, which [`col2im`]
/// folds back into `[N, C, H, W]`.
fn input_grad(
    grad_mat: &Tensor,
    weight: &Tensor,
    spec: &ConvSpec,
    n: usize,
    (h, w): (usize, usize),
) -> Tensor {
    let grad_cols = weight.matmul_tn(grad_mat); // [CKK, N*oh*ow]
    let grad_input = col2im(&grad_cols, spec, n, h, w);
    grad_cols.recycle();
    grad_input
}

/// Rearranges `grad_out` `[N,O,oh,ow]` into `[O, N*oh*ow]` (mirroring the
/// forward layout); each destination plane is a disjoint copy.
fn rearrange_grad(grad_out: &Tensor, n: usize, o: usize, hw: usize) -> Tensor {
    let mut gm = Tensor::scratch(&[o, n * hw]);
    let g = grad_out.data();
    let planes_per = rows_per_block(o * n, hw.max(1));
    apf_par::par_chunks_mut(gm.data_mut(), planes_per * hw, |bi, block| {
        for (pi, dst) in block.chunks_mut(hw).enumerate() {
            let pl = bi * planes_per + pi;
            let (oi, ni) = (pl / n, pl % n);
            let src = &g[(ni * o + oi) * hw..(ni * o + oi + 1) * hw];
            dst.copy_from_slice(src);
        }
    });
    gm
}

/// Per-output-channel sums of `grad_mat` `[O, N*oh*ow]` (the bias gradient).
fn bias_sums(grad_mat: &Tensor) -> Tensor {
    let (o, cols_w) = (grad_mat.shape()[0], grad_mat.shape()[1]);
    let mut b = Tensor::scratch(&[o]);
    let gm = grad_mat.data();
    for (bo, row) in b.data_mut().iter_mut().zip(gm.chunks_exact(cols_w.max(1))) {
        *bo = row.iter().sum();
    }
    b
}

/// Convolution geometry prepared for generating im2col entries on the fly.
///
/// The fused GEMM path never materializes the `[C*k*k, N*oh*ow]` column
/// matrix; instead the B-operand packing closures copy spans of it straight
/// out of a zero-bordered copy of the input (see [`pad_input`]). Entry
/// `(row, col)` of the virtual matrix, with `row = ci*k*k + ky*k + kx` and
/// `col = ni*oh*ow + oy*ow + ox`, is `input[ni, ci, iy, ix]` at
/// `iy = oy*stride + ky - pad`, `ix = ox*stride + kx - pad` (0.0 in the
/// padding) — exactly what [`im2col`] writes. In the padded `[N, C, hp, wp]`
/// buffer that entry sits at `row_offset(row) + col_offset(col)`, with
/// `row_offset = ci*hp*wp + ky*wp + kx` and
/// `col_offset = ni*C*hp*wp + oy*stride*wp + ox*stride`: one in-bounds load,
/// no padding test. Along one output row consecutive columns are `stride`
/// apart, so a run of them is a contiguous (or evenly strided) slice.
struct ColsGeom {
    k: usize,
    stride: usize,
    oh: usize,
    ow: usize,
    /// Padded plane width `W + 2*pad`.
    wp: usize,
    /// Padded plane size `(H + 2*pad) * (W + 2*pad)`.
    plane: usize,
    /// Padded sample size `C * plane`.
    sample: usize,
}

impl ColsGeom {
    fn new(spec: &ConvSpec, h: usize, w: usize) -> Self {
        let (oh, ow) = spec.out_size(h, w);
        let (hp, wp) = (h + 2 * spec.padding, w + 2 * spec.padding);
        ColsGeom {
            k: spec.kernel,
            stride: spec.stride,
            oh,
            ow,
            wp,
            plane: hp * wp,
            sample: spec.in_channels * hp * wp,
        }
    }

    /// Fills `out[i]` with the padded-input offset of virtual row `row0 + i`
    /// (its `(ci, ky, kx)` part), stepping the indices instead of dividing.
    fn row_offsets(&self, row0: usize, out: &mut [usize]) {
        let k = self.k;
        let (mut ci, mut ky, mut kx) = (row0 / (k * k), (row0 / k) % k, row0 % k);
        for o in out {
            *o = ci * self.plane + ky * self.wp + kx;
            kx += 1;
            if kx == k {
                kx = 0;
                ky += 1;
                if ky == k {
                    ky = 0;
                    ci += 1;
                }
            }
        }
    }

    /// Walks virtual columns `col0..col0+len` in runs that stay within one
    /// output row, calling `f(j, run, base)`: columns `col0+j..col0+j+run`
    /// sit at padded-input offsets `base + t*stride` (plus a row offset).
    fn for_each_run(&self, col0: usize, len: usize, mut f: impl FnMut(usize, usize, usize)) {
        let ohw = self.oh * self.ow;
        let (mut ni, rem) = (col0 / ohw, col0 % ohw);
        let (mut oy, mut ox) = (rem / self.ow, rem % self.ow);
        let mut j = 0;
        while j < len {
            let run = (self.ow - ox).min(len - j);
            f(j, run, ni * self.sample + (oy * self.wp + ox) * self.stride);
            j += run;
            ox = 0;
            oy += 1;
            if oy == self.oh {
                oy = 0;
                ni += 1;
            }
        }
    }

    /// B-packing closure body for the forward GEMM: NR-column panels of
    /// `cols` at depth `pc..pc+kc_eff`, columns `jc..jc+nc_eff`, read from
    /// the padded input `src`. A run of NR columns at stride 1 is one
    /// NR-wide slice copy per row; shorter or strided runs are gathers.
    /// The slice copy pays for itself: LeNet-5's conv1 forward on one
    /// thread took 0.18 ms with it and 0.37 ms with the gather alone.
    fn pack_cols_panels(
        &self,
        src: &[f32],
        dst: &mut [f32],
        pc: usize,
        kc_eff: usize,
        jc: usize,
        nc_eff: usize,
    ) {
        const NR: usize = gemm::NR;
        let mut rows = [0usize; gemm::KC];
        let rows = &mut rows[..kc_eff];
        self.row_offsets(pc, rows);
        let stride = self.stride;
        for (jr, panel) in dst.chunks_exact_mut(kc_eff * NR).enumerate() {
            let cols_n = NR.min(nc_eff - jr * NR);
            self.for_each_run(jc + jr * NR, cols_n, |j, run, base| {
                if run == NR && stride == 1 {
                    for (out, &r) in panel.chunks_exact_mut(NR).zip(rows.iter()) {
                        out.copy_from_slice(&src[r + base..][..NR]);
                    }
                } else {
                    for (out, &r) in panel.chunks_exact_mut(NR).zip(rows.iter()) {
                        let seg = src[r + base..].iter().step_by(stride);
                        for (o, &v) in out[j..j + run].iter_mut().zip(seg) {
                            *o = v;
                        }
                    }
                }
            });
            if cols_n < NR {
                for out in panel.chunks_exact_mut(NR) {
                    out[cols_n..].fill(0.0);
                }
            }
        }
    }

    /// B-packing closure body for the grad-weight GEMM, whose B operand is
    /// the *transpose* `colsᵀ [N*oh*ow, C*k*k]`: panel entry `(p, j)` is
    /// `cols[jc + j][pc + p]`. The panel's NR row offsets are looked up
    /// once; then each packed row `p` (one output position) is NR loads at
    /// those offsets plus the position's offset, stored contiguously. On
    /// LeNet-5's conv1 this beat a lane-by-lane walk along `ox` (contiguous
    /// reads, NR-strided writes).
    fn pack_cols_t_panels(
        &self,
        src: &[f32],
        dst: &mut [f32],
        pc: usize,
        kc_eff: usize,
        jc: usize,
        nc_eff: usize,
    ) {
        const NR: usize = gemm::NR;
        let stride = self.stride;
        for (jr, panel) in dst.chunks_exact_mut(kc_eff * NR).enumerate() {
            let rows_n = NR.min(nc_eff - jr * NR);
            let mut rows = [0usize; NR];
            self.row_offsets(jc + jr * NR, &mut rows[..rows_n]);
            let rows = &rows[..rows_n];
            self.for_each_run(pc, kc_eff, |p, run, base| {
                for (t, out) in panel[p * NR..(p + run) * NR]
                    .chunks_exact_mut(NR)
                    .enumerate()
                {
                    let off = base + t * stride;
                    for (o, &r) in out.iter_mut().zip(rows) {
                        *o = src[r + off];
                    }
                }
            });
            if rows_n < NR {
                for out in panel.chunks_exact_mut(NR) {
                    out[rows_n..].fill(0.0);
                }
            }
        }
    }
}

/// Copies `input` `[N, C, H, W]` into a zero-bordered scratch buffer
/// `[N, C, H+2p, W+2p]` (the layout [`ColsGeom`] indexes), or returns
/// `None` when `padding == 0` and the input already has that layout. Give
/// the buffer back with [`crate::scratch::give`].
fn pad_input(input: &Tensor, padding: usize) -> Option<Vec<f32>> {
    if padding == 0 {
        return None;
    }
    let s = input.shape();
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let wp = w + 2 * padding;
    let plane = (h + 2 * padding) * wp;
    let mut out = scratch::take(n * c * plane);
    if h * w > 0 {
        for (dst, src) in out
            .chunks_exact_mut(plane)
            .zip(input.data().chunks_exact(h * w))
        {
            for (y, row) in src.chunks_exact(w).enumerate() {
                dst[(y + padding) * wp + padding..][..w].copy_from_slice(row);
            }
        }
    }
    Some(out)
}

/// Fused 2-D convolution forward pass: im2col directly into the packed GEMM
/// panels, so the column matrix never exists in memory.
///
/// Takes the same operands as [`conv2d_forward`] and produces a bitwise
/// identical output tensor (asserted in debug builds for small problems);
/// it just skips materializing (and returning) `cols`. Pair it with
/// [`conv2d_backward_fused`], which re-derives the column entries from the
/// input instead of consuming a cached `cols`.
///
/// # Panics
/// Panics on any shape mismatch.
pub fn conv2d_forward_fused(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &ConvSpec,
) -> Tensor {
    let s = input.shape();
    assert_eq!(s.len(), 4, "conv2d expects [N,C,H,W]");
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    assert_eq!(c, spec.in_channels, "channel mismatch");
    let k = spec.kernel;
    assert_eq!(
        weight.shape(),
        &[spec.out_channels, spec.in_channels * k * k],
        "weight shape mismatch"
    );
    assert_eq!(bias.numel(), spec.out_channels, "bias shape mismatch");
    let (oh, ow) = spec.out_size(h, w);
    let o = spec.out_channels;
    let ckk = c * k * k;
    let cols_w = n * oh * ow;
    let ops = o * ckk * cols_w;
    if ops < gemm::PACK_OPS_MIN {
        // Tiny problem: the unfused path already uses the naive reference
        // matmul here, and packing traffic would dominate.
        let (out, cols) = conv2d_forward(input, weight, bias, spec);
        cols.recycle();
        return out;
    }
    let geom = ColsGeom::new(spec, h, w);
    let wdata = weight.data();
    let padded = pad_input(input, spec.padding);
    let src = padded.as_deref().unwrap_or(input.data());
    let mut out_mat = Tensor::scratch(&[o, cols_w]);
    gemm::gemm_packed(
        o,
        ckk,
        cols_w,
        &|dst: &mut [f32], ic, mc_eff, pc, kc_eff| {
            gemm::pack_a_rowmajor(dst, wdata, ckk, ic, mc_eff, pc, kc_eff)
        },
        &|dst: &mut [f32], pc, kc_eff, jc, nc_eff| {
            geom.pack_cols_panels(src, dst, pc, kc_eff, jc, nc_eff)
        },
        out_mat.data_mut(),
    );
    if let Some(buf) = padded {
        scratch::give(buf);
    }
    let hw = oh * ow;
    let mut out = Tensor::scratch(&[n, o, oh, ow]);
    assemble_output(out.data_mut(), out_mat.data(), bias.data(), n, o, hw);
    out_mat.recycle();
    #[cfg(debug_assertions)]
    if ops <= gemm::REF_CHECK_OPS_MAX {
        let (want, cols) = conv2d_forward(input, weight, bias, spec);
        cols.recycle();
        assert_bitwise("forward", &out, &want);
        want.recycle();
    }
    out
}

/// Checks `grad_out`/`input` against `spec` and returns
/// `(n, o, oh, ow, h, w)`.
fn backward_dims(
    grad_out: &Tensor,
    input: &Tensor,
    spec: &ConvSpec,
) -> (usize, usize, usize, usize, usize, usize) {
    let s = grad_out.shape();
    assert_eq!(s.len(), 4, "grad_out must be [N,O,oh,ow]");
    let (n, o, oh, ow) = (s[0], s[1], s[2], s[3]);
    assert_eq!(o, spec.out_channels);
    let si = input.shape();
    assert_eq!(si.len(), 4, "input must be [N,C,H,W]");
    let (c, h, w) = (si[1], si[2], si[3]);
    assert_eq!(si[0], n, "batch mismatch");
    assert_eq!(c, spec.in_channels, "channel mismatch");
    assert_eq!(spec.out_size(h, w), (oh, ow), "conv geometry mismatch");
    (n, o, oh, ow, h, w)
}

/// Weight and bias gradients from the rearranged `grad_mat [O, N*oh*ow]`:
/// the grad-weight GEMM regenerates the column entries (transposed) from
/// the padded input straight into its packed B panels.
fn param_grads_packed(
    grad_mat: &Tensor,
    input: &Tensor,
    spec: &ConvSpec,
    (h, w): (usize, usize),
) -> (Tensor, Tensor) {
    let (o, cols_w) = (grad_mat.shape()[0], grad_mat.shape()[1]);
    let ckk = spec.in_channels * spec.kernel * spec.kernel;
    let geom = ColsGeom::new(spec, h, w);
    let gm = grad_mat.data();
    let padded = pad_input(input, spec.padding);
    let src = padded.as_deref().unwrap_or(input.data());
    // grad_weight [O, CKK] = grad_mat [O, N*hw] · colsᵀ [N*hw, CKK].
    let mut grad_weight = Tensor::scratch(&[o, ckk]);
    gemm::gemm_packed(
        o,
        cols_w,
        ckk,
        &|dst: &mut [f32], ic, mc_eff, pc, kc_eff| {
            gemm::pack_a_rowmajor(dst, gm, cols_w, ic, mc_eff, pc, kc_eff)
        },
        &|dst: &mut [f32], pc, kc_eff, jc, nc_eff| {
            geom.pack_cols_t_panels(src, dst, pc, kc_eff, jc, nc_eff)
        },
        grad_weight.data_mut(),
    );
    if let Some(buf) = padded {
        scratch::give(buf);
    }
    (grad_weight, bias_sums(grad_mat))
}

/// Fused 2-D convolution backward pass for the weight and bias only:
/// returns `(grad_weight [O, C*k*k], grad_bias [O])` and skips the
/// input-gradient GEMM and col2im entirely — what a model's first layer
/// needs, since nothing reads its input gradient. Bitwise identical to the
/// corresponding fields of [`conv2d_backward_fused`] and of the unfused
/// [`conv2d_backward`].
///
/// # Panics
/// Panics on any shape mismatch.
pub fn conv2d_backward_params_fused(
    grad_out: &Tensor,
    input: &Tensor,
    spec: &ConvSpec,
) -> (Tensor, Tensor) {
    let (n, o, oh, ow, h, w) = backward_dims(grad_out, input, spec);
    let hw = oh * ow;
    let ops = o * n * hw * spec.in_channels * spec.kernel * spec.kernel;
    let grad_mat = rearrange_grad(grad_out, n, o, hw);
    let (grad_weight, grad_bias) = if ops < gemm::PACK_OPS_MIN {
        param_grads_unfused(&grad_mat, input, spec)
    } else {
        let (grad_weight, grad_bias) = param_grads_packed(&grad_mat, input, spec, (h, w));
        #[cfg(debug_assertions)]
        if ops <= gemm::REF_CHECK_OPS_MAX {
            let (want_weight, want_bias) = param_grads_unfused(&grad_mat, input, spec);
            assert_bitwise("backward grad_weight", &grad_weight, &want_weight);
            assert_bitwise("backward grad_bias", &grad_bias, &want_bias);
        }
        (grad_weight, grad_bias)
    };
    grad_mat.recycle();
    (grad_weight, grad_bias)
}

/// Weight and bias gradients through the materialized im2col matrix: the
/// small-problem path, and the oracle for [`param_grads_packed`].
fn param_grads_unfused(grad_mat: &Tensor, input: &Tensor, spec: &ConvSpec) -> (Tensor, Tensor) {
    let cols = im2col(input, spec);
    let grad_weight = grad_mat.matmul_nt(&cols);
    cols.recycle();
    (grad_weight, bias_sums(grad_mat))
}

/// Fused 2-D convolution backward pass.
///
/// Unlike [`conv2d_backward`] it takes the forward `input` instead of the
/// cached im2col matrix: the weight and bias gradients are
/// [`conv2d_backward_params_fused`]'s, and the input gradient is the
/// `weightᵀ · grad` GEMM folded back by [`col2im`]. Gradients are bitwise
/// identical to the unfused path (asserted in debug builds for small
/// problems).
///
/// # Panics
/// Panics on any shape mismatch.
pub fn conv2d_backward_fused(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    spec: &ConvSpec,
) -> Conv2dGrads {
    let (n, o, oh, ow, h, w) = backward_dims(grad_out, input, spec);
    let hw = oh * ow;
    let ops = o * n * hw * spec.in_channels * spec.kernel * spec.kernel;
    if ops < gemm::PACK_OPS_MIN {
        let cols = im2col(input, spec);
        let grads = conv2d_backward(grad_out, &cols, weight, spec, (h, w));
        cols.recycle();
        return grads;
    }
    let grad_mat = rearrange_grad(grad_out, n, o, hw);
    let (grad_weight, grad_bias) = param_grads_packed(&grad_mat, input, spec, (h, w));
    let grad_input = input_grad(&grad_mat, weight, spec, n, (h, w));
    grad_mat.recycle();
    #[cfg(debug_assertions)]
    if ops <= gemm::REF_CHECK_OPS_MAX {
        let cols = im2col(input, spec);
        let want = conv2d_backward(grad_out, &cols, weight, spec, (h, w));
        cols.recycle();
        assert_bitwise("backward grad_input", &grad_input, &want.input);
        assert_bitwise("backward grad_weight", &grad_weight, &want.weight);
        assert_bitwise("backward grad_bias", &grad_bias, &want.bias);
    }
    Conv2dGrads {
        input: grad_input,
        weight: grad_weight,
        bias: grad_bias,
    }
}

/// Debug-build check that a fused result matches the unfused oracle bit for
/// bit.
#[cfg(debug_assertions)]
fn assert_bitwise(what: &str, got: &Tensor, want: &Tensor) {
    for (i, (g, r)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            g.to_bits(),
            r.to_bits(),
            "fused conv2d {what} diverged from unfused at {i}: {g} vs {r}"
        );
    }
}

/// Max-pooling forward. Returns `(output [N,C,oh,ow], argmax)` where `argmax`
/// stores, per output element, the flat index into `input`'s data of the
/// selected maximum (used by [`maxpool2d_backward`]).
///
/// # Panics
/// Panics if `input` is not rank 4.
pub fn maxpool2d_forward(input: &Tensor, spec: &PoolSpec) -> (Tensor, Vec<usize>) {
    let s = input.shape();
    assert_eq!(s.len(), 4, "maxpool expects [N,C,H,W]");
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let (oh, ow) = spec.out_size(h, w);
    let ohw = oh * ow;
    let mut out = Tensor::scratch(&[n, c, oh, ow]);
    let mut arg = vec![0usize; n * c * ohw];
    let data = input.data();
    // Each `[oh, ow]` plane of (out, arg) depends on one input plane only;
    // argmax selection per window is order-independent across planes.
    let pool_plane = |nc: usize, o_plane: &mut [f32], a_plane: &mut [usize]| {
        let plane_base = nc * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = plane_base + oy * spec.stride * w + ox * spec.stride;
                for ky in 0..spec.kernel {
                    let iy = oy * spec.stride + ky;
                    for kx in 0..spec.kernel {
                        let ix = ox * spec.stride + kx;
                        let idx = plane_base + iy * w + ix;
                        if data[idx] > best {
                            best = data[idx];
                            best_idx = idx;
                        }
                    }
                }
                o_plane[oy * ow + ox] = best;
                a_plane[oy * ow + ox] = best_idx;
            }
        }
    };
    let cost = ohw * spec.kernel * spec.kernel;
    let planes = out
        .data_mut()
        .chunks_mut(ohw)
        .zip(arg.chunks_mut(ohw))
        .enumerate();
    if apf_par::threads() <= 1 || (n * c).saturating_mul(cost) < PAR_OPS_MIN {
        for (nc, (op, ap)) in planes {
            pool_plane(nc, op, ap);
        }
    } else {
        apf_par::scope(|s| {
            let pool_plane = &pool_plane;
            for (nc, (op, ap)) in planes {
                s.spawn(move || pool_plane(nc, op, ap));
            }
        });
    }
    (out, arg)
}

/// Max-pooling backward: scatters `grad_out` to the argmax positions.
///
/// # Panics
/// Panics if `argmax` length differs from `grad_out`'s element count.
pub fn maxpool2d_backward(grad_out: &Tensor, argmax: &[usize], input_shape: &[usize]) -> Tensor {
    assert_eq!(grad_out.numel(), argmax.len(), "argmax length mismatch");
    let mut grad_in = Tensor::scratch(input_shape);
    let gi = grad_in.data_mut();
    for (&idx, &g) in argmax.iter().zip(grad_out.data()) {
        gi[idx] += g;
    }
    grad_in
}

/// Average-pooling forward over `[N,C,H,W]`.
///
/// # Panics
/// Panics if `input` is not rank 4.
pub fn avgpool2d_forward(input: &Tensor, spec: &PoolSpec) -> Tensor {
    let s = input.shape();
    assert_eq!(s.len(), 4, "avgpool expects [N,C,H,W]");
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let (oh, ow) = spec.out_size(h, w);
    let inv = 1.0 / (spec.kernel * spec.kernel) as f32;
    let mut out_t = Tensor::scratch(&[n, c, oh, ow]);
    let out = out_t.data_mut();
    let data = input.data();
    for nc in 0..n * c {
        let plane_base = nc * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ky in 0..spec.kernel {
                    let iy = oy * spec.stride + ky;
                    for kx in 0..spec.kernel {
                        let ix = ox * spec.stride + kx;
                        acc += data[plane_base + iy * w + ix];
                    }
                }
                out[nc * oh * ow + oy * ow + ox] = acc * inv;
            }
        }
    }
    out_t
}

/// Average-pooling backward: spreads each output gradient uniformly over its
/// window.
///
/// # Panics
/// Panics if shapes are inconsistent with `spec`.
pub fn avgpool2d_backward(grad_out: &Tensor, spec: &PoolSpec, input_shape: &[usize]) -> Tensor {
    let s = grad_out.shape();
    assert_eq!(s.len(), 4, "grad_out must be [N,C,oh,ow]");
    let (n, c, oh, ow) = (s[0], s[1], s[2], s[3]);
    let (h, w) = (input_shape[2], input_shape[3]);
    assert_eq!(spec.out_size(h, w), (oh, ow), "pool geometry mismatch");
    let inv = 1.0 / (spec.kernel * spec.kernel) as f32;
    let mut grad_in = Tensor::scratch(input_shape);
    let gi = grad_in.data_mut();
    let g = grad_out.data();
    for nc in 0..n * c {
        let plane_base = nc * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let gv = g[nc * oh * ow + oy * ow + ox] * inv;
                for ky in 0..spec.kernel {
                    let iy = oy * spec.stride + ky;
                    for kx in 0..spec.kernel {
                        let ix = ox * spec.stride + kx;
                        gi[plane_base + iy * w + ix] += gv;
                    }
                }
            }
        }
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_conv(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &ConvSpec) -> Tensor {
        let s = input.shape();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let k = spec.kernel;
        let (oh, ow) = spec.out_size(h, w);
        let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
        for ni in 0..n {
            for oi in 0..spec.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.data()[oi];
                        for ci in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy =
                                        (oy * spec.stride + ky) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    let iv = input.data()
                                        [((ni * c + ci) * h + iy as usize) * w + ix as usize];
                                    let wv =
                                        weight.data()[oi * c * k * k + ci * k * k + ky * k + kx];
                                    acc += iv * wv;
                                }
                            }
                        }
                        out.data_mut()[((ni * spec.out_channels + oi) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    fn det_input(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(
            (0..n).map(|i| ((i * 37 % 17) as f32 - 8.0) * 0.1).collect(),
            shape,
        )
    }

    #[test]
    fn conv_forward_matches_naive_padded() {
        let spec = ConvSpec {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = det_input(&[2, 2, 5, 5]);
        let weight = det_input(&[3, 2 * 9]);
        let bias = Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]);
        let (out, _) = conv2d_forward(&input, &weight, &bias, &spec);
        let naive = naive_conv(&input, &weight, &bias, &spec);
        assert_eq!(out.shape(), naive.shape());
        for (a, b) in out.data().iter().zip(naive.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn conv_forward_matches_naive_strided() {
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        let input = det_input(&[1, 1, 6, 6]);
        let weight = det_input(&[2, 4]);
        let bias = Tensor::zeros(&[2]);
        let (out, _) = conv2d_forward(&input, &weight, &bias, &spec);
        let naive = naive_conv(&input, &weight, &bias, &spec);
        for (a, b) in out.data().iter().zip(naive.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y: the defining
        // property of the adjoint, which is exactly what backward needs.
        let spec = ConvSpec {
            in_channels: 2,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let x = det_input(&[2, 2, 4, 4]);
        let cols = im2col(&x, &spec);
        let y = det_input(&[cols.shape()[0], cols.shape()[1]]);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &spec, 2, 4, 4);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_backward_weight_matches_finite_difference() {
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = det_input(&[1, 1, 4, 4]);
        let mut weight = det_input(&[2, 9]);
        let bias = Tensor::zeros(&[2]);
        // Loss = sum(output); analytic gradient via backward with ones.
        let (out, cols) = conv2d_forward(&input, &weight, &bias, &spec);
        let grad_out = Tensor::ones(out.shape());
        let grads = conv2d_backward(&grad_out, &cols, &weight, &spec, (4, 4));
        let eps = 1e-3;
        for wi in [0usize, 5, 11, 17] {
            let orig = weight.data()[wi];
            weight.data_mut()[wi] = orig + eps;
            let (op, _) = conv2d_forward(&input, &weight, &bias, &spec);
            weight.data_mut()[wi] = orig - eps;
            let (om, _) = conv2d_forward(&input, &weight, &bias, &spec);
            weight.data_mut()[wi] = orig;
            let fd = (op.sum() - om.sum()) / (2.0 * eps);
            let an = grads.weight.data()[wi];
            assert!(
                (fd - an).abs() < 1e-2,
                "weight[{wi}]: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn conv_backward_input_matches_finite_difference() {
        let spec = ConvSpec {
            in_channels: 2,
            out_channels: 1,
            kernel: 2,
            stride: 1,
            padding: 0,
        };
        let mut input = det_input(&[1, 2, 3, 3]);
        let weight = det_input(&[1, 8]);
        let bias = Tensor::zeros(&[1]);
        let (out, cols) = conv2d_forward(&input, &weight, &bias, &spec);
        let grad_out = Tensor::ones(out.shape());
        let grads = conv2d_backward(&grad_out, &cols, &weight, &spec, (3, 3));
        let eps = 1e-3;
        for xi in [0usize, 4, 9, 17] {
            let orig = input.data()[xi];
            input.data_mut()[xi] = orig + eps;
            let (op, _) = conv2d_forward(&input, &weight, &bias, &spec);
            input.data_mut()[xi] = orig - eps;
            let (om, _) = conv2d_forward(&input, &weight, &bias, &spec);
            input.data_mut()[xi] = orig;
            let fd = (op.sum() - om.sum()) / (2.0 * eps);
            let an = grads.input.data()[xi];
            assert!((fd - an).abs() < 1e-2, "input[{xi}]: fd={fd} analytic={an}");
        }
    }

    #[test]
    fn conv_backward_bias_counts_positions() {
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = det_input(&[2, 1, 4, 4]);
        let weight = det_input(&[2, 9]);
        let bias = Tensor::zeros(&[2]);
        let (out, cols) = conv2d_forward(&input, &weight, &bias, &spec);
        let grad_out = Tensor::ones(out.shape());
        let grads = conv2d_backward(&grad_out, &cols, &weight, &spec, (4, 4));
        // d(sum out)/d(bias_o) = number of output positions = N * oh * ow.
        assert_eq!(grads.bias.data(), &[32.0, 32.0]);
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 4.0, //
                3.0, 0.0, 1.0, 1.0, //
                0.0, 0.0, 9.0, 1.0, //
                1.0, 7.0, 1.0, 1.0,
            ],
            &[1, 1, 4, 4],
        );
        let spec = PoolSpec {
            kernel: 2,
            stride: 2,
        };
        let (out, arg) = maxpool2d_forward(&input, &spec);
        assert_eq!(out.data(), &[3.0, 5.0, 7.0, 9.0]);
        let grad_out = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let grad_in = maxpool2d_backward(&grad_out, &arg, &[1, 1, 4, 4]);
        assert_eq!(grad_in.data()[4], 1.0); // the 3.0
        assert_eq!(grad_in.data()[2], 2.0); // the 5.0
        assert_eq!(grad_in.data()[13], 3.0); // the 7.0
        assert_eq!(grad_in.data()[10], 4.0); // the 9.0
        assert_eq!(grad_in.sum(), 10.0);
    }

    #[test]
    fn avgpool_roundtrip_gradient_mass() {
        let input = det_input(&[2, 3, 4, 4]);
        let spec = PoolSpec {
            kernel: 2,
            stride: 2,
        };
        let out = avgpool2d_forward(&input, &spec);
        assert_eq!(out.shape(), &[2, 3, 2, 2]);
        // Mean is preserved by average pooling with exact tiling.
        assert!((out.mean() - input.mean()).abs() < 1e-5);
        let grad_out = Tensor::ones(out.shape());
        let grad_in = avgpool2d_backward(&grad_out, &spec, &[2, 3, 4, 4]);
        // Each input position receives 1/4 from exactly one window.
        assert!(grad_in.data().iter().all(|&g| (g - 0.25).abs() < 1e-6));
    }

    #[test]
    fn fused_forward_is_bitwise_identical_to_unfused() {
        // Covers padded/strided geometry and a batch large enough that the
        // GEMM takes the packed path (ops >= PACK_OPS_MIN), across thread
        // counts. The debug-build parity assert inside the fused functions
        // double-checks every case too.
        for (spec, shape) in [
            (
                ConvSpec {
                    in_channels: 3,
                    out_channels: 5,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                [4usize, 3, 9, 9],
            ),
            (
                ConvSpec {
                    in_channels: 2,
                    out_channels: 4,
                    kernel: 2,
                    stride: 2,
                    padding: 0,
                },
                [3, 2, 8, 8],
            ),
        ] {
            let input = det_input(&shape);
            let weight = det_input(&[
                spec.out_channels,
                spec.in_channels * spec.kernel * spec.kernel,
            ]);
            let bias = det_input(&[spec.out_channels]);
            let (want, cols) = conv2d_forward(&input, &weight, &bias, &spec);
            cols.recycle();
            for t in [1usize, 2, 7] {
                let got = apf_par::with_threads(t, || {
                    conv2d_forward_fused(&input, &weight, &bias, &spec)
                });
                assert_eq!(got.shape(), want.shape());
                for (g, r) in got.data().iter().zip(want.data()) {
                    assert_eq!(g.to_bits(), r.to_bits(), "threads={t}: {g} vs {r}");
                }
            }
        }
    }

    #[test]
    fn fused_backward_is_bitwise_identical_to_unfused() {
        let spec = ConvSpec {
            in_channels: 3,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = det_input(&[3, 3, 8, 8]);
        let weight = det_input(&[4, 3 * 9]);
        let bias = det_input(&[4]);
        let (out, cols) = conv2d_forward(&input, &weight, &bias, &spec);
        let grad_out = det_input(out.shape());
        let want = conv2d_backward(&grad_out, &cols, &weight, &spec, (8, 8));
        cols.recycle();
        for t in [1usize, 2, 7] {
            let got = apf_par::with_threads(t, || {
                conv2d_backward_fused(&grad_out, &input, &weight, &spec)
            });
            for (what, g_t, w_t) in [
                ("input", &got.input, &want.input),
                ("weight", &got.weight, &want.weight),
                ("bias", &got.bias, &want.bias),
            ] {
                assert_eq!(g_t.shape(), w_t.shape(), "threads={t} grad_{what}");
                for (g, r) in g_t.data().iter().zip(w_t.data()) {
                    assert_eq!(
                        g.to_bits(),
                        r.to_bits(),
                        "threads={t} grad_{what}: {g} vs {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_tiny_problem_takes_reference_path() {
        // Below PACK_OPS_MIN the fused entry points fall back to the unfused
        // implementation; results must still agree exactly.
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 2,
            stride: 1,
            padding: 0,
        };
        let input = det_input(&[1, 1, 3, 3]);
        let weight = det_input(&[1, 4]);
        let bias = det_input(&[1]);
        let (want, cols) = conv2d_forward(&input, &weight, &bias, &spec);
        let got = conv2d_forward_fused(&input, &weight, &bias, &spec);
        for (g, r) in got.data().iter().zip(want.data()) {
            assert_eq!(g.to_bits(), r.to_bits());
        }
        let grad_out = det_input(want.shape());
        let wantb = conv2d_backward(&grad_out, &cols, &weight, &spec, (3, 3));
        let gotb = conv2d_backward_fused(&grad_out, &input, &weight, &spec);
        for (g, r) in gotb.weight.data().iter().zip(wantb.weight.data()) {
            assert_eq!(g.to_bits(), r.to_bits());
        }
        cols.recycle();
    }

    #[test]
    fn out_size_math() {
        let spec = ConvSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 5,
            stride: 1,
            padding: 2,
        };
        assert_eq!(spec.out_size(16, 16), (16, 16));
        let spec2 = ConvSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(spec2.out_size(8, 8), (4, 4));
    }
}
