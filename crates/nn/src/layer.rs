//! The [`Layer`] trait: forward, backward, and named-parameter traversal.

use apf_tensor::Rng;
use apf_tensor::Tensor;

/// Whether a forward pass is part of training or evaluation.
///
/// Training mode enables dropout masks and batch-statistics in
/// [`crate::BatchNorm2d`]; evaluation mode uses running statistics and
/// disables stochastic regularizers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: stochastic regularizers active, batch statistics used.
    Train,
    /// Evaluation: deterministic forward pass.
    Eval,
}

/// A neural-network layer with a manual backward pass.
///
/// Layers cache whatever they need during [`Layer::forward`] and consume the
/// cache in [`Layer::backward`]. Parameter gradients *accumulate* into each
/// layer's grad tensors; call sites zero them between steps via
/// [`crate::Sequential::zero_grads`].
///
/// The `visit_params` traversal yields `(name, trainable, value, grad)` for
/// every parameter tensor in a deterministic order. Non-trainable entries are
/// buffers (e.g. batch-norm running statistics) that participate in
/// synchronization and freezing but are never touched by optimizers.
pub trait Layer: Send {
    /// Runs the layer forward, caching state for the next `backward` call.
    fn forward(&mut self, x: Tensor, mode: Mode, rng: &mut Rng) -> Tensor;

    /// Propagates `grad` (w.r.t. this layer's output) backward, accumulating
    /// parameter gradients and returning the gradient w.r.t. the input.
    ///
    /// # Panics
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad: Tensor) -> Tensor;

    /// Like [`Layer::backward`], but only accumulates parameter gradients:
    /// the input gradient is not computed. [`crate::Sequential`] calls this
    /// on a model's first layer, whose input gradient nobody reads.
    ///
    /// Parameter gradients must be bitwise identical to `backward`'s. The
    /// default runs `backward` and recycles the result; layers whose input
    /// gradient costs a separate kernel override it to skip that kernel.
    ///
    /// # Panics
    /// Implementations may panic if called before `forward`.
    fn backward_params(&mut self, grad: Tensor) {
        self.backward(grad).recycle();
    }

    /// Visits every parameter tensor as `(name, trainable, value, grad)`.
    ///
    /// The default is a no-op for parameterless layers.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&str, bool, &mut Tensor, &mut Tensor)) {}

    /// A short human-readable kind tag, e.g. `"linear"`.
    fn kind(&self) -> &'static str;
}
