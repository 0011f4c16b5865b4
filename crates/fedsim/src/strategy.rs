//! Synchronization strategies: FedAvg, the §4.1 strawmen, the APF family,
//! and the §7.4 sparsification baselines (Gaia, CMFL).

use apf::{
    Aimd, ApfConfig, ApfError, ApfManager, EmaPerturbation, FixedPeriod, FreezeController,
    FreezeGranularity, FreezeMask,
};
use apf_quant::f16_roundtrip_in_place;

/// Communication accounting for one synchronization round.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoundComm {
    /// Bytes uploaded this round, summed over clients.
    pub bytes_up: u64,
    /// Bytes downloaded this round, summed over clients.
    pub bytes_down: u64,
    /// Largest single-client upload (gates the synchronous barrier).
    pub max_client_up: u64,
    /// Largest single-client download.
    pub max_client_down: u64,
    /// Fraction of scalars excluded from synchronization (frozen under APF,
    /// excluded under partial sync, unreported under Gaia/CMFL), averaged
    /// over clients.
    pub frozen_ratio: f32,
}

/// A federated synchronization strategy.
///
/// The simulator hands the strategy every client's flat model at the end of
/// each round; the strategy must leave the locals and the `global` evaluation
/// model consistent with its semantics and report the bytes it moved.
pub trait SyncStrategy: Send + Sync {
    /// Label for logs, e.g. `"apf"`.
    fn name(&self) -> String;

    /// Called once before round 0 with the synchronized initial model.
    fn init(&mut self, _init_params: &[f32], _num_clients: usize) {}

    /// Registers the model's `(layer name, scalar count)` layout for
    /// per-layer telemetry. Called (when available) before
    /// [`SyncStrategy::init`]. Default: ignored.
    fn set_model_layout(&mut self, _layout: Vec<(String, usize)>) {}

    /// Performs the round's synchronization.
    ///
    /// `weights` are per-client aggregation weights (0 drops a client's
    /// upload, e.g. FedAvg discarding stragglers in §7.7).
    fn sync_round(
        &mut self,
        round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm;

    /// Registers the model's per-filter segment lengths (conv filters /
    /// matrix rows over the flat vector) for strategies that support
    /// filter-granular freezing. Default: ignored.
    fn set_filter_layout(&mut self, _segments: Vec<usize>) {}

    /// Per-local-iteration hook (Alg. 1 line 2 rollback for APF). Default:
    /// no-op.
    fn post_local_iteration(&self, _round: u64, _client: usize, _params: &mut [f32]) {}

    /// Per-layer frozen fraction for `round`, as `(layer name, ratio)` in
    /// layout order — live-telemetry fodder for `/snapshot`. Default (for
    /// strategies with no freezing notion): empty.
    fn layer_frozen_ratios(&self, _round: u64) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// Weighted elementwise mean of `vecs`; falls back to `None` when all
/// weights are zero.
fn weighted_mean(vecs: &[Vec<f32>], weights: &[f32]) -> Option<Vec<f32>> {
    let total: f32 = weights.iter().sum();
    if total <= 0.0 || vecs.is_empty() {
        return None;
    }
    let n = vecs[0].len();
    let mut out = vec![0.0f32; n];
    for (v, &w) in vecs.iter().zip(weights) {
        if w == 0.0 {
            continue;
        }
        debug_assert_eq!(v.len(), n);
        for (o, &x) in out.iter_mut().zip(v) {
            *o += w * x;
        }
    }
    for o in &mut out {
        *o /= total;
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// FedAvg
// ---------------------------------------------------------------------------

/// Vanilla FedAvg: every round, every client ships the full model both ways.
#[derive(Debug, Default)]
pub struct FullSync {
    bytes_per_scalar: u64,
}

impl FullSync {
    /// Creates the strategy (4 bytes per scalar).
    pub fn new() -> Self {
        FullSync {
            bytes_per_scalar: 4,
        }
    }
}

impl SyncStrategy for FullSync {
    fn name(&self) -> String {
        "fedavg".to_owned()
    }

    fn sync_round(
        &mut self,
        _round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm {
        if let Some(mean) = weighted_mean(locals, weights) {
            *global = mean;
        }
        let n = global.len() as u64;
        let uploaders = weights.iter().filter(|&&w| w > 0.0).count() as u64;
        for l in locals.iter_mut() {
            l.copy_from_slice(global);
        }
        RoundComm {
            bytes_up: uploaders * n * self.bytes_per_scalar,
            bytes_down: locals.len() as u64 * n * self.bytes_per_scalar,
            max_client_up: n * self.bytes_per_scalar,
            max_client_down: n * self.bytes_per_scalar,
            frozen_ratio: 0.0,
        }
    }
}

// ---------------------------------------------------------------------------
// Strawman 1: partial synchronization (§4.1)
// ---------------------------------------------------------------------------

/// Strawman 1 of §4.1: scalars judged stable are *excluded from
/// synchronization but keep training locally* — which lets them diverge on
/// non-IID clients (Fig. 4) and costs accuracy (Fig. 5).
///
/// The reported `global` model is the average of the local models (what one
/// would deploy); only the non-excluded scalars actually move on the wire.
#[derive(Debug)]
pub struct PartialSync {
    threshold: f32,
    ema_alpha: f32,
    check_every: u32,
    ema: EmaPerturbation,
    check_ref: Vec<f32>,
    excluded: Vec<bool>,
    bytes_per_scalar: u64,
}

impl PartialSync {
    /// The per-scalar exclusion mask (true = no longer synchronized).
    pub fn excluded(&self) -> &[bool] {
        &self.excluded
    }

    /// Creates the strategy with the given stability threshold, EMA
    /// smoothing factor, and check cadence (in rounds).
    pub fn new(threshold: f32, ema_alpha: f32, check_every_rounds: u32) -> Self {
        assert!(check_every_rounds > 0, "check cadence must be positive");
        PartialSync {
            threshold,
            ema_alpha,
            check_every: check_every_rounds,
            ema: EmaPerturbation::new(0, ema_alpha),
            check_ref: Vec::new(),
            excluded: Vec::new(),
            bytes_per_scalar: 4,
        }
    }
}

impl SyncStrategy for PartialSync {
    fn name(&self) -> String {
        "partial-sync".to_owned()
    }

    fn init(&mut self, init_params: &[f32], _num_clients: usize) {
        self.ema = EmaPerturbation::new(init_params.len(), self.ema_alpha);
        self.check_ref = init_params.to_vec();
        self.excluded = vec![false; init_params.len()];
    }

    fn sync_round(
        &mut self,
        round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm {
        let n = global.len();
        // The deployable model: mean over everything (evaluation only).
        if let Some(mean) = weighted_mean(locals, weights) {
            *global = mean;
        }
        // Wire traffic and write-back: only the non-excluded scalars
        // (excluded = frozen in mask terms, so the copy kernel skips them).
        let mask = FreezeMask::from_bools(&self.excluded);
        for l in locals.iter_mut() {
            apf_tensor::mask_copy(l, global, mask.words());
        }
        // Stability check on the synchronized portion.
        if (round + 1).is_multiple_of(u64::from(self.check_every)) {
            let included: Vec<bool> = self.excluded.iter().map(|&e| !e).collect();
            let delta: Vec<f32> = (0..n)
                .map(|j| {
                    if self.excluded[j] {
                        0.0
                    } else {
                        global[j] - self.check_ref[j]
                    }
                })
                .collect();
            self.ema.update_masked(&delta, &included);
            for j in 0..n {
                if !self.excluded[j] && self.ema.value(j) < self.threshold {
                    self.excluded[j] = true; // sticky: never synchronized again
                }
            }
            self.check_ref.copy_from_slice(global);
        }
        let synced = self.excluded.iter().filter(|&&e| !e).count();
        // Same masked-frame encoding as APF: exclusion bitmap + packed values.
        let per_client = apf::masked_transfer_bytes(n, synced, self.bytes_per_scalar);
        RoundComm {
            bytes_up: per_client * locals.len() as u64,
            bytes_down: per_client * locals.len() as u64,
            max_client_up: per_client,
            max_client_down: per_client,
            frozen_ratio: 1.0 - synced as f32 / n.max(1) as f32,
        }
    }
}

// ---------------------------------------------------------------------------
// APF family (plus strawman 2 via permanent freezing)
// ---------------------------------------------------------------------------

/// Builds the freezing-period controller of [`ApfStrategy`]'s manager.
pub type ControllerFactory = Box<dyn Fn() -> Box<dyn FreezeController> + Send + Sync>;

/// The APF strategy (§4–6), optionally stacked with fp16 quantization
/// (§7.7). Every client's [`ApfManager`] evolves identically (§6.2), so one
/// manager serves the whole fleet.
///
/// With a [`FixedPeriod`] controller of `u32::MAX` rounds this degenerates
/// into strawman 2 of §4.1 (permanent freezing) — see
/// [`ApfStrategy::permanent_freeze`].
pub struct ApfStrategy {
    cfg: ApfConfig,
    controller_factory: ControllerFactory,
    manager: Option<ApfManager>,
    quantize_f16: bool,
    label: String,
    layout: Vec<(String, usize)>,
    filter_segments: Vec<usize>,
}

impl std::fmt::Debug for ApfStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApfStrategy")
            .field("label", &self.label)
            .finish()
    }
}

impl ApfStrategy {
    /// Creates standard APF with the default AIMD controller.
    ///
    /// # Errors
    /// Returns [`ApfError::InvalidConfig`] for an invalid `cfg`.
    pub fn new(cfg: ApfConfig) -> Result<Self, ApfError> {
        ApfStrategy::with_controller(cfg, Box::new(|| Box::new(Aimd::default())), "apf")
    }

    /// Creates APF with a custom controller (the §7.5 ablations).
    ///
    /// # Errors
    /// Returns [`ApfError::InvalidConfig`] for an invalid `cfg`.
    pub fn with_controller(
        cfg: ApfConfig,
        factory: ControllerFactory,
        label: &str,
    ) -> Result<Self, ApfError> {
        cfg.validate().map_err(ApfError::InvalidConfig)?;
        Ok(ApfStrategy {
            cfg,
            controller_factory: factory,
            manager: None,
            quantize_f16: false,
            label: label.to_owned(),
            layout: Vec::new(),
            filter_segments: Vec::new(),
        })
    }

    /// Strawman 2 of §4.1: freeze stabilized scalars forever.
    ///
    /// # Errors
    /// Returns [`ApfError::InvalidConfig`] for an invalid `cfg`.
    pub fn permanent_freeze(cfg: ApfConfig) -> Result<Self, ApfError> {
        ApfStrategy::with_controller(
            cfg,
            Box::new(|| Box::new(FixedPeriod { len: u32::MAX })),
            "permanent-freeze",
        )
    }

    /// Stacks fp16 quantization on the wire (§7.7): uploads and downloads are
    /// converted to binary16, halving the per-scalar wire size.
    pub fn with_f16(mut self) -> Self {
        self.quantize_f16 = true;
        self.cfg.bytes_per_scalar = 2;
        self.label = format!("{}+q", self.label);
        self
    }

    /// Switches to filter-granular freezing (Becking et al.): a whole filter
    /// segment freezes once `threshold` of its scalars are scalar-frozen.
    /// Takes effect when the runner registers a filter layout (see
    /// [`SyncStrategy::set_filter_layout`]); without one it degrades to
    /// scalar freezing.
    ///
    /// # Panics
    /// Panics if `threshold` is outside `(0, 1]`.
    pub fn with_filter_granularity(mut self, threshold: f32) -> Self {
        self.cfg.granularity = FreezeGranularity::Filter { threshold };
        self.cfg
            .validate()
            .expect("filter threshold must lie in (0, 1]");
        self.label = format!("{}+filt", self.label);
        self
    }

    /// The fleet's one manager once initialized (for inspection).
    pub fn managers(&self) -> &[ApfManager] {
        self.manager.as_slice()
    }
}

impl SyncStrategy for ApfStrategy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn init(&mut self, init_params: &[f32], _num_clients: usize) {
        let mut m = ApfManager::new(init_params, self.cfg, (self.controller_factory)())
            .expect("config validated at strategy construction");
        m.set_layout(self.layout.clone());
        if !self.filter_segments.is_empty() {
            m.set_filter_layout(self.filter_segments.clone())
                .expect("filter layout must cover the model");
        }
        self.manager = Some(m);
    }

    fn set_model_layout(&mut self, layout: Vec<(String, usize)>) {
        self.layout = layout.clone();
        if let Some(m) = &mut self.manager {
            m.set_layout(layout);
        }
    }

    fn set_filter_layout(&mut self, segments: Vec<usize>) {
        self.filter_segments = segments.clone();
        if let Some(m) = &mut self.manager {
            m.set_filter_layout(segments)
                .expect("filter layout must cover the model");
        }
    }

    fn sync_round(
        &mut self,
        round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm {
        let m = self.manager.as_mut().expect("strategy not initialized");
        let n = global.len();
        // Drive everything below from the mask's unfrozen runs — no compact
        // gather per client, no per-scalar branches.
        let mask = m.frozen_mask_packed(round);
        let words = mask.words();
        // Rollback every client; the fp16 wire hop is applied in place to
        // the unfrozen runs (aggregation overwrites them below, and frozen
        // slots never touch the wire).
        for l in locals.iter_mut() {
            m.rollback(l, round);
            if self.quantize_f16 {
                mask.for_each_unfrozen_run_in(0, n, |s, e| f16_roundtrip_in_place(&mut l[s..e]));
            }
        }
        // Weighted mean of the unfrozen runs, accumulated full-length:
        // bitwise equal to averaging compact uploads, scalar for scalar.
        let total: f32 = weights.iter().sum();
        let mut agg = vec![0.0f32; n];
        if total > 0.0 && !locals.is_empty() {
            for (l, &w) in locals.iter().zip(weights) {
                if w == 0.0 {
                    continue;
                }
                apf_tensor::masked_axpy(&mut agg, l, w, words);
            }
            apf_tensor::masked_div(&mut agg, total, words);
        } else {
            // All uploads dropped: fall back to client 0's (already
            // quantized) unfrozen values, as the compact path did.
            apf_tensor::mask_copy(&mut agg, &locals[0], words);
        }
        if self.quantize_f16 {
            mask.for_each_unfrozen_run_in(0, n, |s, e| f16_roundtrip_in_place(&mut agg[s..e]));
        }
        // Write back and run the stability machinery once: after the write
        // every client holds the aggregate in its unfrozen slots and the
        // shared pinned values in its frozen ones, i.e. the same model.
        let (first, rest) = locals.split_first_mut().expect("at least one client");
        m.apply_aggregate_dense(first, &agg, round);
        let rep = m.finish_round(first, round);
        for l in rest {
            l.copy_from_slice(first);
        }
        global.copy_from_slice(first);
        let clients = locals.len() as u64;
        RoundComm {
            bytes_up: rep.bytes_up * clients,
            bytes_down: rep.bytes_down * clients,
            max_client_up: rep.bytes_up,
            max_client_down: rep.bytes_down,
            frozen_ratio: rep.frozen_ratio(),
        }
    }

    fn post_local_iteration(&self, round: u64, _client: usize, params: &mut [f32]) {
        let m = self.manager.as_ref().expect("strategy not initialized");
        m.rollback(params, round);
    }

    fn layer_frozen_ratios(&self, round: u64) -> Vec<(String, f64)> {
        let Some(m) = &self.manager else {
            return Vec::new();
        };
        if self.layout.is_empty() {
            return Vec::new();
        }
        let mask = m.frozen_mask_packed(round);
        let mut out = Vec::with_capacity(self.layout.len());
        let mut offset = 0usize;
        for (name, len) in &self.layout {
            let end = (offset + len).min(mask.len());
            let frozen = mask.frozen_count_in(offset, end);
            let ratio = if *len == 0 {
                0.0
            } else {
                frozen as f64 / *len as f64
            };
            out.push((name.clone(), ratio));
            offset = end;
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Gaia (Hsieh et al., NSDI 2017)
// ---------------------------------------------------------------------------

/// Gaia-style significance sparsification: a client uploads only the scalar
/// updates whose *relative* magnitude exceeds a significance threshold; the
/// rest accumulate locally until they become significant. The threshold
/// decays as `threshold0 / sqrt(round + 1)`, following the Gaia paper's
/// practice of shrinking the threshold over time (there, with the learning
/// rate).
///
/// Wire format for a sparse component is `(index, value)` = 8 bytes.
/// Gaia compresses only the *push* path; every touched index is broadcast
/// back to all clients (§7.4 notes APF beats this by compressing both
/// directions).
#[derive(Debug)]
pub struct Gaia {
    threshold0: f32,
    last_global: Vec<f32>,
}

impl Gaia {
    /// Creates Gaia with the paper's default 1% significance threshold.
    pub fn new(threshold0: f32) -> Self {
        assert!(threshold0 > 0.0, "threshold must be positive");
        Gaia {
            threshold0,
            last_global: Vec::new(),
        }
    }

    fn threshold_at(&self, round: u64) -> f32 {
        self.threshold0 / ((round + 1) as f32).sqrt()
    }
}

impl SyncStrategy for Gaia {
    fn name(&self) -> String {
        "gaia".to_owned()
    }

    fn init(&mut self, init_params: &[f32], _num_clients: usize) {
        self.last_global = init_params.to_vec();
    }

    fn sync_round(
        &mut self,
        round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm {
        let n = self.last_global.len();
        let thresh = self.threshold_at(round);
        let total_w: f32 = weights.iter().sum::<f32>().max(f32::EPSILON);
        // Decide significance per client, accumulate the server-side delta.
        let mut delta = vec![0.0f32; n];
        let mut touched = vec![false; n];
        let mut sent: Vec<Vec<bool>> = Vec::with_capacity(locals.len());
        let mut comm = RoundComm::default();
        let mut excluded_total = 0.0f32;
        for (l, &w) in locals.iter().zip(weights) {
            let mut s = vec![false; n];
            let mut count = 0u64;
            for j in 0..n {
                let u = l[j] - self.last_global[j];
                let denom = self.last_global[j].abs().max(1e-3);
                if u.abs() / denom > thresh {
                    s[j] = true;
                    count += 1;
                    if w > 0.0 {
                        delta[j] += w * u;
                        touched[j] = true;
                    }
                }
            }
            excluded_total += 1.0 - count as f32 / n.max(1) as f32;
            let bytes = count * 8;
            comm.bytes_up += bytes;
            comm.max_client_up = comm.max_client_up.max(bytes);
            sent.push(s);
        }
        // Apply aggregated significant updates.
        let touched_count = touched.iter().filter(|&&t| t).count() as u64;
        for j in 0..n {
            if touched[j] {
                self.last_global[j] += delta[j] / total_w;
            }
        }
        // Broadcast: every client pulls the touched indices. A client that
        // did *not* send its own update for a touched index keeps that
        // residual (measured against the old global, which `global` still
        // holds here) on top of the fresh global value — Gaia's local
        // accumulation semantics.
        for (l, s) in locals.iter_mut().zip(&sent) {
            for j in 0..n {
                if touched[j] {
                    let residual = if s[j] { 0.0 } else { l[j] - global[j] };
                    l[j] = self.last_global[j] + residual;
                }
            }
        }
        global.copy_from_slice(&self.last_global);
        let down = touched_count * 8;
        comm.bytes_down = down * locals.len() as u64;
        comm.max_client_down = down;
        comm.frozen_ratio = excluded_total / locals.len().max(1) as f32;
        comm
    }
}

// ---------------------------------------------------------------------------
// CMFL (Wang et al., ICDCS 2019)
// ---------------------------------------------------------------------------

/// CMFL-style relevance filtering: a client uploads its (full) update only
/// when the fraction of components whose sign agrees with the previous
/// global update exceeds a relevance threshold; irrelevant updates are
/// withheld entirely. The threshold decays multiplicatively per round, as in
/// the CMFL paper.
#[derive(Debug)]
pub struct Cmfl {
    threshold0: f32,
    decay: f32,
    last_global: Vec<f32>,
    prev_update: Vec<f32>,
}

impl Cmfl {
    /// Creates CMFL with the paper's default relevance threshold (0.8) and a
    /// gentle per-round threshold decay.
    pub fn new(threshold0: f32, decay: f32) -> Self {
        assert!((0.0..=1.0).contains(&threshold0), "threshold in [0,1]");
        assert!((0.0..=1.0).contains(&decay), "decay in [0,1]");
        Cmfl {
            threshold0,
            decay,
            last_global: Vec::new(),
            prev_update: Vec::new(),
        }
    }

    fn threshold_at(&self, round: u64) -> f32 {
        self.threshold0 * self.decay.powi(round.min(1_000_000) as i32)
    }

    /// Fraction of components of `update` whose sign matches `reference`.
    fn relevance(update: &[f32], reference: &[f32]) -> f32 {
        if update.is_empty() {
            return 1.0;
        }
        let same = update
            .iter()
            .zip(reference)
            .filter(|(u, r)| {
                (u.is_sign_positive() && **r >= 0.0) || (u.is_sign_negative() && **r < 0.0)
            })
            .count();
        same as f32 / update.len() as f32
    }
}

impl SyncStrategy for Cmfl {
    fn name(&self) -> String {
        "cmfl".to_owned()
    }

    fn init(&mut self, init_params: &[f32], _num_clients: usize) {
        self.last_global = init_params.to_vec();
        self.prev_update = vec![0.0; init_params.len()];
    }

    fn sync_round(
        &mut self,
        round: u64,
        locals: &mut [Vec<f32>],
        weights: &[f32],
        global: &mut Vec<f32>,
    ) -> RoundComm {
        let n = self.last_global.len();
        let thresh = self.threshold_at(round);
        // Relevance check per client (first round: everyone reports, since
        // there is no previous global update to compare against).
        let mut reporters = Vec::new();
        for (i, l) in locals.iter().enumerate() {
            if weights[i] <= 0.0 {
                continue;
            }
            let update: Vec<f32> = l
                .iter()
                .zip(&self.last_global)
                .map(|(a, b)| a - b)
                .collect();
            let relevant = round == 0 || Cmfl::relevance(&update, &self.prev_update) >= thresh;
            if relevant {
                reporters.push(i);
            }
        }
        if reporters.is_empty() {
            // Degenerate round: fall back to everyone to avoid stalling.
            reporters = (0..locals.len()).filter(|&i| weights[i] > 0.0).collect();
        }
        let rep_locals: Vec<Vec<f32>> = reporters.iter().map(|&i| locals[i].clone()).collect();
        let rep_weights: Vec<f32> = reporters.iter().map(|&i| weights[i]).collect();
        let new_global =
            weighted_mean(&rep_locals, &rep_weights).unwrap_or_else(|| self.last_global.clone());
        self.prev_update = new_global
            .iter()
            .zip(&self.last_global)
            .map(|(a, b)| a - b)
            .collect();
        self.last_global = new_global.clone();
        *global = new_global;
        for l in locals.iter_mut() {
            l.copy_from_slice(global);
        }
        let model_bytes = n as u64 * 4;
        RoundComm {
            bytes_up: reporters.len() as u64 * model_bytes,
            bytes_down: locals.len() as u64 * model_bytes,
            max_client_up: model_bytes,
            max_client_down: model_bytes,
            frozen_ratio: 1.0 - reporters.len() as f32 / locals.len().max(1) as f32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf::ApfVariant;

    fn locals(n_clients: usize, n: usize, f: impl Fn(usize, usize) -> f32) -> Vec<Vec<f32>> {
        (0..n_clients)
            .map(|i| (0..n).map(|j| f(i, j)).collect())
            .collect()
    }

    #[test]
    fn full_sync_averages_and_distributes() {
        let mut s = FullSync::new();
        let mut ls = locals(2, 3, |i, j| (i * 3 + j) as f32);
        let mut g = vec![0.0; 3];
        let w = vec![1.0, 1.0];
        let comm = s.sync_round(0, &mut ls, &w, &mut g);
        assert_eq!(g, vec![1.5, 2.5, 3.5]);
        assert_eq!(ls[0], g);
        assert_eq!(ls[1], g);
        assert_eq!(comm.bytes_up, 2 * 3 * 4);
        assert_eq!(comm.bytes_down, 2 * 3 * 4);
        assert_eq!(comm.frozen_ratio, 0.0);
    }

    #[test]
    fn full_sync_zero_weight_drops_upload() {
        let mut s = FullSync::new();
        let mut ls = locals(2, 2, |i, _| i as f32);
        let mut g = vec![9.0, 9.0];
        let comm = s.sync_round(0, &mut ls, &[1.0, 0.0], &mut g);
        // Only client 0 contributes.
        assert_eq!(g, vec![0.0, 0.0]);
        assert_eq!(comm.bytes_up, 2 * 4);
        assert_eq!(comm.bytes_down, 2 * 2 * 4);
    }

    #[test]
    fn full_sync_all_dropped_keeps_global() {
        let mut s = FullSync::new();
        let mut ls = locals(2, 2, |_, _| 5.0);
        let mut g = vec![1.0, 2.0];
        s.sync_round(0, &mut ls, &[0.0, 0.0], &mut g);
        assert_eq!(g, vec![1.0, 2.0]);
        assert_eq!(ls[0], g);
    }

    #[test]
    fn partial_sync_excludes_stable_scalars_permanently() {
        let mut s = PartialSync::new(0.05, 0.99, 1);
        let init = vec![0.0f32; 2];
        s.init(&init, 2);
        let mut g = init.clone();
        // Scalar 0 oscillates (stable); scalar 1 drifts.
        let mut ls = locals(2, 2, |_, _| 0.0);
        let mut excluded_seen = false;
        for r in 0..60u64 {
            for l in ls.iter_mut() {
                l[0] += if r % 2 == 0 { 0.1 } else { -0.1 };
                l[1] += 0.1;
            }
            let comm = s.sync_round(r, &mut ls, &[1.0, 1.0], &mut g);
            if comm.frozen_ratio > 0.0 {
                excluded_seen = true;
                // Excluded scalars are no longer written back: the two
                // clients' scalar-0 values may now differ.
                assert!(comm.frozen_ratio <= 0.5 + 1e-6);
            }
        }
        assert!(excluded_seen, "oscillating scalar never became excluded");
        // Drifting scalar must still be synchronized.
        assert!((ls[0][1] - ls[1][1]).abs() < 1e-6);
    }

    #[test]
    fn apf_strategy_matches_manager_semantics() {
        let cfg = ApfConfig {
            check_every_rounds: 1,
            threshold_decay: None,
            ..ApfConfig::default()
        };
        let mut s = ApfStrategy::new(cfg).unwrap();
        let init = vec![0.0f32; 4];
        s.init(&init, 3);
        // One manager serves the fleet (§6.2), whatever its size.
        assert_eq!(s.managers().len(), 1);
        let mut g = init.clone();
        let mut ls = locals(3, 4, |_, _| 0.0);
        let mut saw_frozen = false;
        for r in 0..40u64 {
            for l in ls.iter_mut() {
                for (j, lj) in l.iter_mut().enumerate() {
                    if !s.managers()[0].is_frozen(j, r) {
                        *lj += if j < 2 {
                            if r % 2 == 0 {
                                0.1
                            } else {
                                -0.1
                            }
                        } else {
                            0.1
                        };
                    }
                }
            }
            let comm = s.sync_round(r, &mut ls, &[1.0; 3], &mut g);
            saw_frozen |= comm.frozen_ratio > 0.0;
            // All clients stay in lockstep.
            assert_eq!(ls[0], ls[1]);
            assert_eq!(ls[1], ls[2]);
            assert_eq!(g, ls[0]);
        }
        assert!(saw_frozen, "APF never froze the oscillators");
    }

    #[test]
    fn sparse_aggregation_matches_compact_reference() {
        // The run-driven sync (masked_axpy/masked_div + dense write-back)
        // against a hand-rolled compact select -> mean -> scatter using the
        // manager API directly — bitwise, f16 wire hop included.
        use apf::Aimd;
        use apf_quant::{f16_decode, f16_encode};
        let cfg = ApfConfig {
            check_every_rounds: 1,
            threshold_decay: None,
            ..ApfConfig::default()
        };
        let n = 150;
        let clients = 3;
        let weights = [1.0f32, 0.0, 2.0];
        let init = vec![0.0f32; n];
        let mut s = ApfStrategy::new(cfg).unwrap().with_f16();
        s.init(&init, clients);
        let ref_cfg = ApfConfig {
            bytes_per_scalar: 2,
            ..cfg
        };
        let mut ref_mgrs: Vec<ApfManager> = (0..clients)
            .map(|_| ApfManager::new(&init, ref_cfg, Box::new(Aimd::default())).unwrap())
            .collect();
        let mut ls = locals(clients, n, |_, _| 0.0);
        let mut ref_ls = ls.clone();
        let mut g = init.clone();
        for r in 0..25u64 {
            for (i, (l, rl)) in ls.iter_mut().zip(ref_ls.iter_mut()).enumerate() {
                for j in 0..n {
                    let d = ((i + 1) as f32 * 0.05) * ((r + j as u64) as f32 * 0.7).sin();
                    l[j] += d;
                    rl[j] += d;
                }
            }
            let comm = s.sync_round(r, &mut ls, &weights, &mut g);
            // Reference: the pre-optimization compact path.
            let mut ups = Vec::with_capacity(clients);
            for (m, rl) in ref_mgrs.iter().zip(ref_ls.iter_mut()) {
                m.rollback(rl, r);
                ups.push(f16_decode(&f16_encode(&m.select_unfrozen(rl, r))));
            }
            let agg = weighted_mean(&ups, &weights).unwrap_or_else(|| ups[0].clone());
            let agg = f16_decode(&f16_encode(&agg));
            let mut ref_up = 0u64;
            for (m, rl) in ref_mgrs.iter_mut().zip(ref_ls.iter_mut()) {
                m.apply_aggregate(rl, &agg, r);
                ref_up += m.finish_round(rl, r).bytes_up;
            }
            assert_eq!(ls, ref_ls, "round {r}: models diverged");
            assert_eq!(comm.bytes_up, ref_up, "round {r}: byte accounting diverged");
        }
    }

    #[test]
    fn filter_granularity_coarsens_strategy_masks() {
        let cfg = ApfConfig {
            check_every_rounds: 1,
            threshold_decay: None,
            ..ApfConfig::default()
        };
        let mut s = ApfStrategy::new(cfg).unwrap().with_filter_granularity(0.5);
        assert!(s.name().ends_with("+filt"));
        let n = 8;
        s.set_filter_layout(vec![4, 4]);
        s.init(&vec![0.0f32; n], 2);
        let mut g = vec![0.0f32; n];
        let mut ls = locals(2, n, |_, _| 0.0);
        // Scalars 0..3 oscillate (stabilize), 4..7 drift: at threshold 0.5
        // the first whole segment must freeze while the second never does.
        let mut saw_full_segment = false;
        for r in 0..40u64 {
            for l in ls.iter_mut() {
                for (j, v) in l.iter_mut().enumerate() {
                    if !s.managers()[0].is_frozen(j, r) {
                        *v += if j < 4 {
                            if r % 2 == 0 {
                                0.1
                            } else {
                                -0.1
                            }
                        } else {
                            0.1
                        };
                    }
                }
            }
            s.sync_round(r, &mut ls, &[1.0, 1.0], &mut g);
            assert_eq!(ls[0], ls[1], "round {r}");
            let mask = s.managers()[0].frozen_mask_packed(r + 1);
            let frozen_head = mask.frozen_count_in(0, 4);
            assert!(
                frozen_head == 0 || frozen_head == 4,
                "round {r}: filter segment partially frozen ({frozen_head}/4)"
            );
            assert_eq!(mask.frozen_count_in(4, 8), 0, "round {r}: drifters froze");
            saw_full_segment |= frozen_head == 4;
        }
        assert!(saw_full_segment, "oscillating segment never froze whole");
    }

    #[test]
    fn apf_f16_halves_bytes() {
        let cfg = ApfConfig::default();
        let mut plain = ApfStrategy::new(cfg).unwrap();
        let mut quant = ApfStrategy::new(cfg).unwrap().with_f16();
        let init = vec![0.5f32; 100];
        plain.init(&init, 2);
        quant.init(&init, 2);
        let mut g1 = init.clone();
        let mut g2 = init.clone();
        let mut l1 = locals(2, 100, |_, _| 0.5);
        let mut l2 = locals(2, 100, |_, _| 0.5);
        let c1 = plain.sync_round(0, &mut l1, &[1.0, 1.0], &mut g1);
        let c2 = quant.sync_round(0, &mut l2, &[1.0, 1.0], &mut g2);
        // f16 halves the packed-value bytes; the freeze bitmap (13 bytes for
        // 100 scalars) is unchanged.
        assert_eq!(c1.bytes_up, 2 * (13 + 100 * 4));
        assert_eq!(c2.bytes_up, 2 * (13 + 100 * 2));
        assert!(quant.name().ends_with("+q"));
    }

    #[test]
    fn permanent_freeze_never_unfreezes() {
        let cfg = ApfConfig {
            check_every_rounds: 1,
            threshold_decay: None,
            ..ApfConfig::default()
        };
        let mut s = ApfStrategy::permanent_freeze(cfg).unwrap();
        let init = vec![0.0f32];
        s.init(&init, 1);
        let mut g = init.clone();
        let mut ls = locals(1, 1, |_, _| 0.0);
        // Oscillate until frozen, then drift hard: it must stay frozen.
        let mut frozen_round = None;
        for r in 0..200u64 {
            if !s.managers()[0].is_frozen(0, r) {
                ls[0][0] += if r % 2 == 0 { 0.1 } else { -0.1 };
            } else if frozen_round.is_none() {
                frozen_round = Some(r);
            }
            s.sync_round(r, &mut ls, &[1.0], &mut g);
        }
        let fr = frozen_round.expect("never froze");
        // Check it stays frozen arbitrarily far in the future.
        assert!(s.managers()[0].is_frozen(0, fr + 1_000_000));
    }

    #[test]
    fn apf_sharp_reduces_traffic_relative_to_standard() {
        let n = 1000;
        let mk = |variant| {
            let cfg = ApfConfig {
                check_every_rounds: 1,
                variant,
                threshold_decay: None,
                ..ApfConfig::default()
            };
            let mut s = ApfStrategy::new(cfg).unwrap();
            s.init(&vec![0.0f32; n], 2);
            s
        };
        let mut std_apf = mk(ApfVariant::Standard);
        let mut sharp = mk(ApfVariant::Sharp { prob: 0.5 });
        let run = |s: &mut ApfStrategy| -> u64 {
            let mut g = vec![0.0f32; n];
            let mut ls = locals(2, n, |_, _| 0.0);
            let mut total = 0;
            for r in 0..10u64 {
                for l in ls.iter_mut() {
                    for (j, v) in l.iter_mut().enumerate() {
                        if !s.managers()[0].is_frozen(j, r) {
                            *v += 0.1 + j as f32 * 1e-5; // all drift: never stable
                        }
                    }
                }
                total += s.sync_round(r, &mut ls, &[1.0, 1.0], &mut g).bytes_up;
            }
            total
        };
        let b_std = run(&mut std_apf);
        let b_sharp = run(&mut sharp);
        assert!(
            (b_sharp as f64) < 0.7 * b_std as f64,
            "sharp {b_sharp} should be well under standard {b_std}"
        );
    }

    #[test]
    fn gaia_sends_only_significant_updates() {
        let mut s = Gaia::new(0.01);
        let init = vec![1.0f32; 4];
        s.init(&init, 2);
        let mut g = init.clone();
        // Client updates: scalar 0 large (significant), others tiny.
        let mut ls = vec![
            vec![1.5, 1.000001, 1.000001, 1.000001],
            vec![1.3, 1.000001, 1.000001, 1.000001],
        ];
        let comm = s.sync_round(0, &mut ls, &[1.0, 1.0], &mut g);
        assert_eq!(comm.bytes_up, 2 * 8, "one significant scalar per client");
        // The significant scalar aggregated to the mean of the updates.
        assert!((g[0] - 1.4).abs() < 1e-6, "g[0] = {}", g[0]);
        // Insignificant scalars unchanged globally.
        assert_eq!(g[1], 1.0);
        // Locals keep their unsent residuals.
        assert!((ls[0][1] - 1.000001).abs() < 1e-7);
    }

    #[test]
    fn gaia_accumulates_until_significant() {
        let mut s = Gaia::new(0.5); // very high threshold
        let init = vec![1.0f32];
        s.init(&init, 1);
        let mut g = init.clone();
        let mut ls = vec![vec![1.0f32]];
        // Drift by 0.2/round: insignificant alone (0.2 < 0.5), but the local
        // residual accumulates and eventually crosses the threshold.
        let mut sent_round = None;
        for r in 0..10u64 {
            ls[0][0] += 0.2;
            let comm = s.sync_round(r, &mut ls, &[1.0], &mut g);
            if comm.bytes_up > 0 && sent_round.is_none() {
                sent_round = Some(r);
            }
        }
        let sr = sent_round.expect("accumulated update never became significant");
        assert!(sr >= 1, "should need at least 2 rounds of accumulation");
        assert!(
            (g[0] - 1.0).abs() > 0.3,
            "global finally received the bulk update"
        );
    }

    #[test]
    fn cmfl_withholds_irrelevant_updates() {
        let mut s = Cmfl::new(0.8, 1.0);
        let init = vec![0.0f32; 4];
        s.init(&init, 2);
        let mut g = init.clone();
        // Round 0: both report (no reference yet); global update = +0.1.
        let mut ls = vec![vec![0.1; 4], vec![0.1; 4]];
        let c0 = s.sync_round(0, &mut ls, &[1.0, 1.0], &mut g);
        assert_eq!(c0.frozen_ratio, 0.0);
        // Round 1: client 0 moves with the trend, client 1 against it.
        ls[0].iter_mut().for_each(|v| *v += 0.1);
        ls[1].iter_mut().for_each(|v| *v -= 0.1);
        let c1 = s.sync_round(1, &mut ls, &[1.0, 1.0], &mut g);
        assert!(
            (c1.frozen_ratio - 0.5).abs() < 1e-6,
            "one of two clients withheld"
        );
        assert_eq!(c1.bytes_up, 4 * 4, "only one full-model upload");
        assert_eq!(c1.bytes_down, 2 * 4 * 4, "both still pull");
        // Global moved with the relevant client only.
        assert!(g[0] > 0.1);
    }

    #[test]
    fn cmfl_relevance_math() {
        assert_eq!(Cmfl::relevance(&[1.0, -1.0], &[2.0, -3.0]), 1.0);
        assert_eq!(Cmfl::relevance(&[1.0, 1.0], &[-1.0, 1.0]), 0.5);
        assert_eq!(Cmfl::relevance(&[], &[]), 1.0);
    }

    #[test]
    fn weighted_mean_respects_weights() {
        let vs = vec![vec![0.0f32, 2.0], vec![4.0, 6.0]];
        let m = weighted_mean(&vs, &[3.0, 1.0]).unwrap();
        assert_eq!(m, vec![1.0, 3.0]);
        assert!(weighted_mean(&vs, &[0.0, 0.0]).is_none());
    }
}
