//! The owned, row-major dense tensor type.
//!
//! The `matmul` family dispatches to the packed, register-tiled GEMM in
//! [`crate::gemm`] (parallelized over a fixed cache-block grid); other heavy
//! kernels (large elementwise ops and the reductions) are parallelized over
//! the `apf-par` pool above fixed size thresholds. Parallel and serial paths
//! compute every output element with the same per-element operation order,
//! so results are bitwise identical at any `APF_PAR_THREADS` value;
//! reductions additionally use [`apf_par::map_reduce`], whose chunking is
//! thread-count independent. Matmul outputs are drawn from the thread-local
//! [`crate::scratch`] pool; callers on the training hot path hand buffers
//! back via [`Tensor::recycle`] so steady-state rounds allocate nothing.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use crate::gemm;
use crate::scratch;

/// Minimum elements before an elementwise op is dispatched to the pool.
const PAR_ELEM_MIN: usize = 1 << 15;
/// Minimum multiply-adds before a matrix kernel is dispatched to the pool.
pub(crate) const PAR_OPS_MIN: usize = 1 << 16;
/// Minimum operations a parallel row block should amortize: blocks are never
/// cut smaller than this much work, so small kernels (e.g. per-plane conv
/// assembly) don't shatter into per-task overhead that exceeds the task.
pub(crate) const PAR_BLOCK_MIN_OPS: usize = 1 << 15;
/// Fixed reduction grain: chunk boundaries for `sum`/`norm_sq` depend only
/// on this constant, never on the thread count, keeping reductions bitwise
/// reproducible. Inputs at or below one grain reduce exactly like a plain
/// serial fold.
const REDUCE_GRAIN: usize = 1 << 16;

/// Row-block size for dispatching a `rows`-row kernel whose per-row cost is
/// `row_cost` operations: all rows in one block (serial) below the
/// threshold, else ~4 blocks per pool thread — but never blocks smaller
/// than [`PAR_BLOCK_MIN_OPS`] of work, so cheap rows are grouped instead of
/// paying per-task dispatch that dwarfs the row itself.
pub(crate) fn rows_per_block(rows: usize, row_cost: usize) -> usize {
    let t = apf_par::threads();
    if t <= 1 || rows.saturating_mul(row_cost) < PAR_OPS_MIN {
        rows.max(1)
    } else {
        let by_threads = rows.div_ceil(4 * t);
        let by_cost = PAR_BLOCK_MIN_OPS.div_ceil(row_cost.max(1));
        by_threads.max(by_cost).clamp(1, rows.max(1))
    }
}

/// Naive `[m,k] x [k,n]` reference kernel (ikj loop order): accumulates
/// every element ascending in `k` into a zeroed `out`.
fn reference_nn(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    for (i, o_row) in out.chunks_mut(n).enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        for (p, &av) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Naive `[k,m]^T x [k,n]` reference kernel: strided column reads of `a`,
/// ascending-`k` accumulation into a zeroed `out`.
fn reference_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    for (i, o_row) in out.chunks_mut(n).enumerate() {
        for p in 0..k {
            let av = a[p * m + i];
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Naive `[m,k] x [n,k]^T` reference kernel: independent ascending-`k` dot
/// products, each written to `out`.
fn reference_nt(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    for (i, o_row) in out.chunks_mut(n).enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        for (j, o) in o_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
}

/// Debug-build check that a packed result is bitwise identical to the naive
/// reference (`reference` fills a zeroed buffer), capped at small problem
/// sizes so debug test runs stay fast (larger shapes are covered explicitly
/// by the property tests).
#[cfg(debug_assertions)]
fn debug_assert_matches_reference(
    got: &[f32],
    reference: impl FnOnce(&mut [f32]),
    ops: usize,
    what: &str,
) {
    if ops > gemm::REF_CHECK_OPS_MAX {
        return;
    }
    let mut want = scratch::take(got.len());
    reference(&mut want);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: packed kernel diverged from reference at element {i}: {g} vs {w}"
        );
    }
    scratch::give(want);
}

#[cfg(not(debug_assertions))]
fn debug_assert_matches_reference(
    _got: &[f32],
    _reference: impl FnOnce(&mut [f32]),
    _ops: usize,
    _what: &str,
) {
}

fn assert_gemm_lens(what: &str, a: &[f32], b: &[f32], out: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "{what}: lhs length");
    assert_eq!(b.len(), k * n, "{what}: rhs length");
    assert_eq!(out.len(), m * n, "{what}: output length");
}

/// `out = a x b` on row-major slices: `a` is `[m,k]`, `b` is `[k,n]`, and
/// `out` (`[m,n]`) is overwritten. The kernel behind [`Tensor::matmul`],
/// for callers whose operands are views into larger buffers (one timestep
/// of a sequence, say); bitwise identical to it.
///
/// # Panics
/// Panics if a slice length does not match its shape.
pub fn matmul_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_gemm_lens("matmul_into", a, b, out, m, k, n);
    if m * k * n < gemm::PACK_OPS_MIN {
        out.fill(0.0);
        reference_nn(a, b, k, n, out);
        return;
    }
    gemm::gemm_nn(a, b, m, k, n, out);
    debug_assert_matches_reference(out, |w| reference_nn(a, b, k, n, w), m * k * n, "matmul");
}

/// `out = a^T x b` on row-major slices: `a` is stored `[k,m]`, `b` is
/// `[k,n]`, and `out` (`[m,n]`) is overwritten. The kernel behind
/// [`Tensor::matmul_tn`]; bitwise identical to it.
///
/// # Panics
/// Panics if a slice length does not match its shape.
pub fn matmul_tn_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_gemm_lens("matmul_tn_into", a, b, out, m, k, n);
    if m * k * n < gemm::PACK_OPS_MIN {
        out.fill(0.0);
        reference_tn(a, b, m, k, n, out);
        return;
    }
    gemm::gemm_tn(a, b, m, k, n, out);
    debug_assert_matches_reference(
        out,
        |w| reference_tn(a, b, m, k, n, w),
        m * k * n,
        "matmul_tn",
    );
}

/// `out = a x b^T` on row-major slices: `a` is `[m,k]`, `b` is stored
/// `[n,k]`, and `out` (`[m,n]`) is overwritten. The kernel behind
/// [`Tensor::matmul_nt`]; bitwise identical to it.
///
/// # Panics
/// Panics if a slice length does not match its shape.
pub fn matmul_nt_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_gemm_lens("matmul_nt_into", a, b, out, m, k, n);
    if m * k * n < gemm::PACK_OPS_MIN {
        reference_nt(a, b, k, n, out);
        return;
    }
    gemm::gemm_nt(a, b, m, k, n, out);
    debug_assert_matches_reference(out, |w| reference_nt(a, b, k, n, w), m * k * n, "matmul_nt");
}

/// An owned, row-major, dense `f32` tensor of arbitrary rank.
///
/// `Tensor` is deliberately simple: contiguous storage, explicit shapes, and
/// eager operations. It is the common currency between the neural-network
/// layers (`apf-nn`), the datasets, and the APF manager (which views the
/// whole model as one flat vector of scalars, per §3.2.2 of the paper).
///
/// # Example
///
/// ```
/// use apf_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.numel(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} elements]", self.numel())
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    /// Panics if `shape` contains a dimension product that overflows `usize`.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = shape.iter().try_fold(1usize, |a, &d| a.checked_mul(d));
        let numel = numel.expect("shape product overflows usize");
        Tensor {
            data: vec![value; numel],
            shape: shape.to_vec(),
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a zero-filled tensor backed by the thread-local
    /// [`crate::scratch`] pool — indistinguishable from [`Tensor::zeros`]
    /// except that a recycled buffer is reused when one fits.
    ///
    /// Pair with [`Tensor::recycle`] on the training hot path so
    /// steady-state rounds stop allocating.
    pub fn scratch(shape: &[usize]) -> Self {
        let numel = shape.iter().try_fold(1usize, |a, &d| a.checked_mul(d));
        let numel = numel.expect("shape product overflows usize");
        Tensor {
            data: scratch::take(numel),
            shape: shape.to_vec(),
        }
    }

    /// Copies this tensor into a scratch-pool-backed tensor (no zero-fill
    /// pass; the pool buffer is overwritten directly).
    pub fn scratch_copy(&self) -> Self {
        Tensor {
            data: scratch::take_copy(&self.data),
            shape: self.shape.clone(),
        }
    }

    /// Builds a tensor holding a copy of `data` in a scratch-pool buffer
    /// (single copy, no zero-fill pass).
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the shape's element count.
    pub fn scratch_from(data: &[f32], shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, data.len(), "data length does not match shape");
        Tensor {
            data: scratch::take_copy(data),
            shape: shape.to_vec(),
        }
    }

    /// Consumes the tensor, returning its buffer to the thread-local scratch
    /// pool for reuse by the next [`Tensor::scratch`]/matmul/conv call.
    pub fn recycle(self) {
        scratch::give(self.data);
    }

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape product.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Returns the shape of this tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Returns the total number of scalar elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Returns the underlying data as a slice (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying data as a mutable slice (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a copy with a new shape, which must have the same element count.
    ///
    /// # Panics
    /// Panics if the new shape has a different number of elements.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            self.numel(),
            "cannot reshape {:?} to {:?}",
            self.shape,
            shape
        );
        Tensor {
            data: self.data.clone(),
            shape: shape.to_vec(),
        }
    }

    /// Reshapes in place (no copy), keeping the same element count.
    ///
    /// # Panics
    /// Panics if the new shape has a different number of elements.
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, self.numel(), "cannot reshape in place");
        self.shape = shape.to_vec();
    }

    /// Returns the element at a 2-D index.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2 or indices are out of bounds.
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        assert_eq!(self.shape.len(), 2, "at2 requires a rank-2 tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        assert!(
            i < r && j < c,
            "index ({i},{j}) out of bounds for ({r},{c})"
        );
        self.data[i * c + j]
    }

    /// Sets the element at a 2-D index.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2 or indices are out of bounds.
    pub fn set2(&mut self, i: usize, j: usize, v: f32) {
        assert_eq!(self.shape.len(), 2, "set2 requires a rank-2 tensor");
        let c = self.shape[1];
        self.data[i * c + j] = v;
    }

    /// Applies `f` to every element, returning a new tensor.
    ///
    /// Large tensors are mapped in parallel chunks; elements are independent,
    /// so the result is identical at any thread count.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        if self.data.len() < PAR_ELEM_MIN || apf_par::threads() <= 1 {
            return Tensor {
                data: self.data.iter().map(|&x| f(x)).collect(),
                shape: self.shape.clone(),
            };
        }
        let mut data = vec![0.0f32; self.data.len()];
        let chunk = apf_par::chunk_len(data.len());
        apf_par::par_chunks_mut(&mut data, chunk, |i, c| {
            let src = &self.data[i * chunk..i * chunk + c.len()];
            for (d, &s) in c.iter_mut().zip(src) {
                *d = f(s);
            }
        });
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        if self.data.len() < PAR_ELEM_MIN || apf_par::threads() <= 1 {
            for x in &mut self.data {
                *x = f(*x);
            }
            return;
        }
        let chunk = apf_par::chunk_len(self.data.len());
        apf_par::par_chunks_mut(&mut self.data, chunk, |_, c| {
            for x in c {
                *x = f(*x);
            }
        });
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        if self.data.len() < PAR_ELEM_MIN || apf_par::threads() <= 1 {
            return Tensor {
                data: self
                    .data
                    .iter()
                    .zip(&other.data)
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
                shape: self.shape.clone(),
            };
        }
        let mut data = vec![0.0f32; self.data.len()];
        let chunk = apf_par::chunk_len(data.len());
        apf_par::par_chunks_mut(&mut data, chunk, |i, c| {
            let off = i * chunk;
            let lhs = &self.data[off..off + c.len()];
            let rhs = &other.data[off..off + c.len()];
            for ((d, &a), &b) in c.iter_mut().zip(lhs).zip(rhs) {
                *d = f(a, b);
            }
        });
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Combines elementwise with `other` in place: `self[i] = f(self[i],
    /// other[i])`. The allocation-free counterpart of
    /// [`zip_map`](Tensor::zip_map).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn zip_with(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) {
        assert_eq!(self.shape, other.shape, "zip_with shape mismatch");
        if self.data.len() < PAR_ELEM_MIN || apf_par::threads() <= 1 {
            for (a, &b) in self.data.iter_mut().zip(&other.data) {
                *a = f(*a, b);
            }
            return;
        }
        let chunk = apf_par::chunk_len(self.data.len());
        apf_par::par_chunks_mut(&mut self.data, chunk, |i, c| {
            let src = &other.data[i * chunk..i * chunk + c.len()];
            for (a, &b) in c.iter_mut().zip(src) {
                *a = f(*a, b);
            }
        });
    }

    /// `self += alpha * other`, elementwise.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        if self.data.len() < PAR_ELEM_MIN || apf_par::threads() <= 1 {
            for (a, &b) in self.data.iter_mut().zip(&other.data) {
                *a += alpha * b;
            }
            return;
        }
        let chunk = apf_par::chunk_len(self.data.len());
        apf_par::par_chunks_mut(&mut self.data, chunk, |i, c| {
            let src = &other.data[i * chunk..i * chunk + c.len()];
            for (a, &b) in c.iter_mut().zip(src) {
                *a += alpha * b;
            }
        });
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        self.map_in_place(|x| x * s);
    }

    /// Sets every element to zero.
    pub fn fill(&mut self, v: f32) {
        if self.data.len() < PAR_ELEM_MIN || apf_par::threads() <= 1 {
            for x in &mut self.data {
                *x = v;
            }
            return;
        }
        let chunk = apf_par::chunk_len(self.data.len());
        apf_par::par_chunks_mut(&mut self.data, chunk, |_, c| {
            for x in c {
                *x = v;
            }
        });
    }

    /// Sum of all elements.
    ///
    /// Reduced via [`apf_par::map_reduce`] with a fixed grain: the chunking
    /// (and hence the float association order) is independent of the thread
    /// count, so the value is bitwise reproducible.
    pub fn sum(&self) -> f32 {
        apf_par::map_reduce(
            0..self.data.len(),
            REDUCE_GRAIN,
            |r| self.data[r].iter().sum::<f32>(),
            |a, b| a + b,
        )
        .unwrap_or(0.0)
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Matrix product of two rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// Dispatches to the packed, register-tiled GEMM above a small size
    /// threshold; tiny products use the naive reference kernel (the packing
    /// traffic would dominate). Both paths accumulate every output element
    /// ascending in `k` from 0.0, so they are bitwise identical to each
    /// other — and, in debug builds, small packed calls are asserted against
    /// the reference. [`matmul_into`] is the same kernel on slices.
    ///
    /// # Panics
    /// Panics if either tensor is not rank 2 or inner dimensions mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = self.nn_dims(other);
        let mut out = Tensor::scratch(&[m, n]);
        matmul_into(&self.data, &other.data, m, k, n, &mut out.data);
        out
    }

    /// Naive triple-loop `[m,k] x [k,n]` — the reference kernel the packed
    /// GEMM is asserted against (serial, ikj loop order, ascending-`k`
    /// accumulation from 0.0).
    ///
    /// # Panics
    /// Panics if either tensor is not rank 2 or inner dimensions mismatch.
    pub fn matmul_reference(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = self.nn_dims(other);
        let mut out = Tensor::scratch(&[m, n]);
        reference_nn(&self.data, &other.data, k, n, &mut out.data);
        out
    }

    fn nn_dims(&self, other: &Tensor) -> (usize, usize, usize) {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        (m, k, n)
    }

    /// `self^T x other`: `[k,m]^T x [k,n] -> [m,n]`, without materializing the
    /// transpose.
    ///
    /// Packed above the size threshold (the packing step absorbs the strided
    /// column reads), naive reference below; bitwise identical either way.
    /// [`matmul_tn_into`] is the same kernel on slices.
    ///
    /// # Panics
    /// Panics if either tensor is not rank 2 or the shared dimension differs.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = self.tn_dims(other);
        let mut out = Tensor::scratch(&[m, n]);
        matmul_tn_into(&self.data, &other.data, m, k, n, &mut out.data);
        out
    }

    /// Naive reference for [`matmul_tn`](Tensor::matmul_tn): strided column
    /// reads, ascending-`k` accumulation from 0.0.
    ///
    /// # Panics
    /// Panics if either tensor is not rank 2 or the shared dimension differs.
    pub fn matmul_tn_reference(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = self.tn_dims(other);
        let mut out = Tensor::scratch(&[m, n]);
        reference_tn(&self.data, &other.data, m, k, n, &mut out.data);
        out
    }

    fn tn_dims(&self, other: &Tensor) -> (usize, usize, usize) {
        assert_eq!(self.shape.len(), 2, "matmul_tn lhs must be rank 2");
        assert_eq!(other.shape.len(), 2, "matmul_tn rhs must be rank 2");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_tn shared dimension mismatch");
        (m, k, n)
    }

    /// `self x other^T`: `[m,k] x [n,k]^T -> [m,n]`, without materializing the
    /// transpose.
    ///
    /// Packed above the size threshold, naive dot-product reference below;
    /// bitwise identical either way. [`matmul_nt_into`] is the same kernel
    /// on slices.
    ///
    /// # Panics
    /// Panics if either tensor is not rank 2 or the shared dimension differs.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = self.nt_dims(other);
        let mut out = Tensor::scratch(&[m, n]);
        matmul_nt_into(&self.data, &other.data, m, k, n, &mut out.data);
        out
    }

    /// Naive reference for [`matmul_nt`](Tensor::matmul_nt): independent
    /// ascending-`k` dot products.
    ///
    /// # Panics
    /// Panics if either tensor is not rank 2 or the shared dimension differs.
    pub fn matmul_nt_reference(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = self.nt_dims(other);
        let mut out = Tensor::scratch(&[m, n]);
        reference_nt(&self.data, &other.data, k, n, &mut out.data);
        out
    }

    fn nt_dims(&self, other: &Tensor) -> (usize, usize, usize) {
        assert_eq!(self.shape.len(), 2, "matmul_nt lhs must be rank 2");
        assert_eq!(other.shape.len(), 2, "matmul_nt rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_nt shared dimension mismatch");
        (m, k, n)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose2 requires rank 2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            data: out,
            shape: vec![n, m],
        }
    }

    /// Adds a length-`n` bias row to every row of an `[m,n]` matrix, in place.
    ///
    /// # Panics
    /// Panics if shapes are incompatible.
    pub fn add_row_in_place(&mut self, row: &Tensor) {
        assert_eq!(self.shape.len(), 2, "add_row_in_place requires rank 2");
        let n = self.shape[1];
        assert_eq!(row.numel(), n, "row length mismatch");
        for chunk in self.data.chunks_mut(n) {
            for (c, &b) in chunk.iter_mut().zip(&row.data) {
                *c += b;
            }
        }
    }

    /// Sums an `[m,n]` matrix over its rows, producing a length-`n` vector.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "sum_rows requires rank 2");
        let n = self.shape[1];
        let mut out = Tensor::scratch(&[n]);
        for chunk in self.data.chunks(n) {
            for (o, &c) in out.data.iter_mut().zip(chunk) {
                *o += c;
            }
        }
        out
    }

    /// Index of the maximum element within each row of an `[m,n]` matrix.
    ///
    /// Ties resolve to the lowest index. NaNs are never selected unless the
    /// whole row is NaN (in which case index 0 is returned).
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2 or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2, "argmax_rows requires rank 2");
        let n = self.shape[1];
        assert!(n > 0, "argmax_rows requires at least one column");
        self.data
            .chunks(n)
            .map(|row| {
                let mut best = 0;
                let mut best_v = f32::NEG_INFINITY;
                for (j, &v) in row.iter().enumerate() {
                    if v > best_v {
                        best_v = v;
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Copies `rows` (by index) of an `[m,n]` matrix into a new `[rows.len(),n]`
    /// matrix.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2 or any index is out of bounds.
    pub fn select_rows(&self, rows: &[usize]) -> Tensor {
        assert_eq!(self.shape.len(), 2, "select_rows requires rank 2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Vec::with_capacity(rows.len() * n);
        for &r in rows {
            assert!(r < m, "row index {r} out of bounds for {m} rows");
            out.extend_from_slice(&self.data[r * n..(r + 1) * n]);
        }
        Tensor {
            data: out,
            shape: vec![rows.len(), n],
        }
    }

    /// Squared L2 norm of all elements.
    ///
    /// Uses the same fixed-grain deterministic reduction as
    /// [`sum`](Tensor::sum).
    pub fn norm_sq(&self) -> f32 {
        apf_par::map_reduce(
            0..self.data.len(),
            REDUCE_GRAIN,
            |r| self.data[r].iter().map(|&x| x * x).sum::<f32>(),
            |a, b| a + b,
        )
        .unwrap_or(0.0)
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.map(|a| a * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.numel(), 24);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.at2(0, 1), 2.0);
        assert_eq!(t.at2(1, 0), 3.0);
        assert_eq!(t.clone().into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let i = Tensor::eye(4);
        assert_eq!(a.matmul(&i).data(), a.data());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[3, 2]);
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.5).collect(), &[3, 4]);
        let via_tn = a.matmul_tn(&b);
        let via_t = a.transpose2().matmul(&b);
        assert_eq!(via_tn.data(), via_t.data());
        assert_eq!(via_tn.shape(), &[2, 4]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.25).collect(), &[4, 3]);
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transpose2());
        assert_eq!(via_nt.data(), via_t.data());
        assert_eq!(via_nt.shape(), &[2, 4]);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        assert_eq!(a.transpose2().transpose2(), a);
    }

    #[test]
    fn add_row_and_sum_rows() {
        let mut a = Tensor::zeros(&[3, 2]);
        let bias = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        a.add_row_in_place(&bias);
        assert_eq!(a.data(), &[1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
        let s = a.sum_rows();
        assert_eq!(s.data(), &[3.0, -3.0]);
    }

    #[test]
    fn argmax_rows_ties_go_low() {
        let a = Tensor::from_vec(vec![1.0, 1.0, 0.0, 0.5, 2.0, 2.0], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn select_rows_copies() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[3, 2]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.data(), &[4.0, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::ones(&[4]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5, 3.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let b = a.reshape(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    fn operators() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!((&a + &b).data(), &[4.0, 7.0]);
        assert_eq!((&b - &a).data(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn debug_is_nonempty() {
        let t = Tensor::zeros(&[1]);
        assert!(!format!("{t:?}").is_empty());
        let big = Tensor::zeros(&[100]);
        assert!(format!("{big:?}").contains("100 elements"));
    }

    fn pseudo(shape: &[usize], seed: u32) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|i| ((i as f32 + seed as f32) * 0.173).sin())
            .collect();
        Tensor::from_vec(data, shape)
    }

    #[test]
    fn matmul_family_bitwise_identical_across_thread_counts() {
        // Big enough to cross PAR_OPS_MIN so the pool path actually runs.
        let a = pseudo(&[96, 48], 3);
        let b = pseudo(&[48, 96], 4);
        let bt = b.transpose2();
        let run = |t: usize| {
            apf_par::with_threads(t, || {
                (a.matmul(&b), a.transpose2().matmul_tn(&b), a.matmul_nt(&bt))
            })
        };
        let (m1, tn1, nt1) = run(1);
        for t in [2usize, 3, 7] {
            let (m, tn, nt) = run(t);
            assert_eq!(m1, m, "matmul threads={t}");
            assert_eq!(tn1, tn, "matmul_tn threads={t}");
            assert_eq!(nt1, nt, "matmul_nt threads={t}");
        }
    }

    #[test]
    fn elementwise_and_reductions_thread_count_independent() {
        let a = pseudo(&[40_000], 5);
        let b = pseudo(&[40_000], 6);
        let run = |t: usize| {
            apf_par::with_threads(t, || {
                let mut acc = a.clone();
                acc.axpy(0.25, &b);
                acc.scale(1.5);
                let mapped = acc.map(|x| x * x + 0.1);
                let zipped = mapped.zip_map(&b, |x, y| x - y);
                (zipped.sum().to_bits(), zipped.norm_sq().to_bits(), zipped)
            })
        };
        let (s1, n1, z1) = run(1);
        for t in [2usize, 4, 7] {
            let (s, n, z) = run(t);
            assert_eq!(s1, s, "sum threads={t}");
            assert_eq!(n1, n, "norm_sq threads={t}");
            assert_eq!(z1, z, "data threads={t}");
        }
    }
}
