//! Million-client sampled-participation population simulator.
//!
//! [`FlRunner`] materializes every client up front — fine for the paper's
//! 10-client testbed, hopeless for a realistic federated population where
//! millions of devices are *registered* but only a small cohort is sampled
//! each round (the C-fraction of McMahan et al.). [`PopulationRunner`]
//! inverts the representation:
//!
//! * A [`ClientRegistry`] holds only **compact dormant state** per client
//!   that has ever participated: the batch-shuffle RNG state, the trainer
//!   step counter, and the optimizer state encoded with an
//!   [`EmaCodec`] (dense = bit-exact, f16 = half-size). A client that has
//!   never been sampled costs **zero bytes** — its fresh state is derivable
//!   from the run seed.
//! * Per-client APF state is shared, not stored: §6.2 of the paper proves
//!   every client's `ApfManager` evolves identically under synchronized
//!   inputs, so one manager serves the whole population. At each round
//!   boundary it is itself squeezed through [`DormantApfState`] (bit-packed
//!   freeze mask, codec-compressed EMA trajectories) — the dormant encode
//!   path is load-bearing, not dead code.
//! * Full replicas ("shells": model + optimizer + data shard) exist only
//!   for the cohort block currently training, and are **recycled** across
//!   blocks and rounds: a re-bound shell regenerates its client's shard
//!   into the buffers it already owns, so steady-state shard allocation is
//!   zero regardless of cohort composition.
//!
//! A round draws its cohort, then streams it through the shell pool one
//! block at a time, each block in three phases:
//!
//! 1. **prepare** (pooled): regenerate each shell's shard, unpack its
//!    client's dormant blob, load the global model, and restore the RNG,
//!    step counter and optimizer state;
//! 2. **train** (pooled): one local round per shell — the only phase the
//!    record's `compute_secs` times;
//! 3. **reduce**: pack each client's dormant blob on the pool, then, on one
//!    thread in ascending client id, add each shell's unfrozen parameters
//!    into the aggregate straight from its tensors and file the blob.
//!
//! Every pooled task touches only its own shell, and the one step that
//! combines clients — the f32 accumulation — runs serially in the order
//! [`FlRunner`]'s per-client loop uses, so no phase's result depends on
//! the thread count. Resident memory is bounded by the shell pool, never
//! by the registered population.
//!
//! **Parity contract:** with full participation (`cohort = 0`), dense
//! dormant encoding, and shared-partition data, a [`PopulationRunner`] is
//! bitwise identical to [`FlRunner`] with [`crate::ApfStrategy`] — same
//! trajectory, same final global bits, at any thread count
//! (`tests/population_parity.rs`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use apf::{Aimd, ApfConfig, ApfManager, DormantApfState, FreezeMask};
use apf_data::{Dataset, SynthImageGen};
use apf_nn::{LrSchedule, Sequential, Trainer};
use apf_quant::{f16_roundtrip_in_place, EmaCodec};
use apf_tensor::{derive_seed, seeded_rng, slab, Tensor};
use apf_trace::{event, span, Level};

use crate::book::{finish_run, RoundBook, RoundTally};
use crate::client::{for_each_client, Client};
use crate::ledger::fnv1a64;
use crate::metrics::{ExperimentLog, RoundRecord};
use crate::network::NetworkModel;
use crate::runner::{config_canonical, FlConfig, OptimizerKind};

/// Estimated per-entry bookkeeping overhead of the registry map, counted on
/// top of the packed blob itself when reporting resident bytes.
const REGISTRY_ENTRY_OVERHEAD: u64 = 48;

/// Compact dormant storage for every client that has ever participated.
///
/// Keys are client ids; values are packed blobs from [`pack_dormant`]. A
/// missing key means "fresh client" — state derivable from the run seed.
#[derive(Debug, Default)]
pub struct ClientRegistry {
    entries: HashMap<u64, Box<[u8]>>,
    blob_bytes: u64,
}

impl ClientRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ClientRegistry::default()
    }

    /// Number of clients with stored (non-fresh) state.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no client has participated yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The dormant blob for `id`, if it has participated before.
    pub fn get(&self, id: u64) -> Option<&[u8]> {
        self.entries.get(&id).map(|b| &b[..])
    }

    /// Stores (or replaces) the dormant blob for `id`.
    pub fn insert(&mut self, id: u64, blob: Box<[u8]>) {
        self.blob_bytes += blob.len() as u64;
        if let Some(old) = self.entries.insert(id, blob) {
            self.blob_bytes -= old.len() as u64;
        }
    }

    /// Resident-byte estimate: packed blobs plus per-entry map overhead.
    pub fn resident_bytes(&self) -> u64 {
        self.blob_bytes + self.entries.len() as u64 * REGISTRY_ENTRY_OVERHEAD
    }
}

/// Packs a client's dormant state: RNG words, step counter, and the
/// codec-encoded optimizer state.
fn pack_dormant(rng: [u64; 4], steps: u64, opt: &[f32], codec: EmaCodec) -> Box<[u8]> {
    let mut out = Vec::with_capacity(1 + 32 + 8 + 4 + codec.encoded_len(opt.len()));
    out.push(match codec {
        EmaCodec::Dense => 0u8,
        EmaCodec::F16 => 1,
    });
    for w in rng {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&steps.to_le_bytes());
    out.extend_from_slice(&(opt.len() as u32).to_le_bytes());
    codec.encode_into(opt, &mut out);
    out.into_boxed_slice()
}

/// Inverts [`pack_dormant`].
///
/// # Panics
/// Panics on a malformed blob — the registry is process-local, so
/// corruption is a bug, not an input error.
fn unpack_dormant(blob: &[u8]) -> ([u64; 4], u64, Vec<f32>) {
    assert!(blob.len() >= 45, "dormant blob too short: {}", blob.len());
    let codec = match blob[0] {
        0 => EmaCodec::Dense,
        1 => EmaCodec::F16,
        other => panic!("unknown dormant codec byte {other}"),
    };
    let word = |i: usize| {
        let s = 1 + i * 8;
        u64::from_le_bytes(blob[s..s + 8].try_into().expect("8 bytes"))
    };
    let rng = [word(0), word(1), word(2), word(3)];
    let steps = word(4);
    let n = u32::from_le_bytes(blob[41..45].try_into().expect("4 bytes")) as usize;
    let payload = &blob[45..];
    assert_eq!(
        payload.len(),
        codec.encoded_len(n),
        "dormant payload length"
    );
    let opt = codec.decode(payload).expect("stride-aligned payload");
    (rng, steps, opt)
}

/// Where cohort clients get their data shards.
pub enum PopulationData {
    /// Every client holds a fixed slice of one shared training set — the
    /// [`FlRunner`] layout, used by the parity harness.
    Shared {
        /// The full training set.
        train: Dataset,
        /// Per-client sample indices (one entry per registered client).
        parts: Vec<Vec<usize>>,
    },
    /// Each client owns a private synthetic shard, regenerated whenever a
    /// shell is bound to it (split `2 + id`, so no client shares samples
    /// with the conventional train/test splits 0/1).
    Synth {
        /// Shared prototype generator.
        gen: SynthImageGen,
        /// Samples per client.
        per_client: usize,
    },
}

impl std::fmt::Debug for PopulationData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PopulationData::Shared { parts, .. } => f
                .debug_struct("Shared")
                .field("clients", &parts.len())
                .finish(),
            PopulationData::Synth { per_client, .. } => f
                .debug_struct("Synth")
                .field("per_client", per_client)
                .finish(),
        }
    }
}

impl PopulationData {
    /// Writes client `id`'s shard into `inputs` / `labels`, clearing both
    /// first (the [`SynthImageGen::fill_split`] contract).
    fn fill_shard(&self, id: u64, inputs: &mut Vec<f32>, labels: &mut Vec<usize>) {
        match self {
            PopulationData::Shared { train, parts } => {
                let row = train.sample_numel();
                inputs.clear();
                labels.clear();
                for &i in &parts[id as usize] {
                    inputs.extend_from_slice(&train.inputs().data()[i * row..(i + 1) * row]);
                    labels.push(train.labels()[i]);
                }
            }
            PopulationData::Synth { gen, per_client } => {
                gen.fill_split(*per_client, 2 + id, inputs, labels);
            }
        }
    }

    /// Client `id`'s shard as a new dataset, for a shell's first binding.
    fn shard(&self, id: u64) -> Dataset {
        match self {
            PopulationData::Shared { train, parts } => train.select(&parts[id as usize]),
            PopulationData::Synth { gen, per_client } => {
                let (mut inputs, mut labels) = (Vec::new(), Vec::new());
                self.fill_shard(id, &mut inputs, &mut labels);
                Dataset::new(
                    Tensor::from_vec(inputs, &[*per_client, gen.sample_numel()]),
                    labels,
                    apf_data::NUM_CLASSES,
                )
            }
        }
    }
}

/// Configuration of a [`PopulationRunner`] beyond the shared [`FlConfig`].
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Round/training hyper-parameters (seed, rounds, local iters, ...).
    pub fl: FlConfig,
    /// Registered population size.
    pub registered: usize,
    /// Clients sampled per round; `0` = full participation.
    pub cohort: usize,
    /// Dormant-state encoding (dense = bit-exact, f16 = half-size).
    pub codec: EmaCodec,
    /// Maximum simultaneously materialized replicas (block size).
    pub shells: usize,
    /// The APF configuration for the shared manager.
    pub apf: ApfConfig,
    /// Stack fp16 quantization on the wire (§7.7).
    pub wire_f16: bool,
    /// Client optimizer.
    pub optimizer: OptimizerKind,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
}

/// One materialized replica, re-bound to a different registered client as
/// cohort blocks stream through. It also carries the bound client's
/// outputs from the pooled phases to the serial reduce.
struct Shell {
    client: Client,
    /// The bound client, whose shard the replica holds.
    bound: u64,
    /// Whether the bound client had no dormant state (first participation).
    fresh: bool,
    /// Mean batch loss of the bound client's local round.
    loss: f32,
    /// The bound client's packed dormant state, awaiting the registry.
    blob: Option<Box<[u8]>>,
}

/// Calls `f(values, start, end)` for every unfrozen run of `mask`, cut at
/// parameter-tensor edges: `values` is the run's slice of the client's
/// live parameter tensor, `start..end` its span in the flat vector.
fn for_each_unfrozen_param_run(
    client: &mut Client,
    mask: &FreezeMask,
    mut f: impl FnMut(&mut [f32], usize, usize),
) {
    let mut offset = 0;
    client
        .trainer_mut()
        .model_mut()
        .visit_params(&mut |_, _, v, _| {
            let len = v.numel();
            let values = v.data_mut();
            mask.for_each_unfrozen_run_in(offset, offset + len, |s, e| {
                f(&mut values[s - offset..e - offset], s, e);
            });
            offset += len;
        });
}

/// Sampled-participation simulator over a registered population (see the
/// module docs for the architecture and the parity contract).
pub struct PopulationRunner {
    cfg: PopulationConfig,
    data: PopulationData,
    model_factory: Box<dyn Fn(u64) -> Sequential>,
    model_seed: u64,
    mgr: ApfManager,
    mgr_dormant_bytes: usize,
    shells: Vec<Shell>,
    registry: ClientRegistry,
    global: Vec<f32>,
    rep: Vec<f32>,
    network: NetworkModel,
    book: RoundBook,
    model_name: String,
    strategy_label: String,
    config_digest: u64,
    ledger_path: Option<PathBuf>,
}

impl std::fmt::Debug for PopulationRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PopulationRunner")
            .field("registered", &self.cfg.registered)
            .field("cohort", &self.cfg.cohort)
            .field("shells", &self.shells.len())
            .finish()
    }
}

impl PopulationRunner {
    /// Assembles the runner.
    ///
    /// # Panics
    /// Panics when the configuration is structurally invalid: zero
    /// registered clients or shells, an APF config that fails validation,
    /// or shared-partition data whose part count differs from `registered`.
    pub fn new(
        cfg: PopulationConfig,
        model_factory: impl Fn(u64) -> Sequential + 'static,
        data: PopulationData,
        test: Dataset,
    ) -> Self {
        apf_trace::init_from_env();
        assert!(cfg.registered > 0, "no registered clients");
        assert!(cfg.shells > 0, "need at least one shell");
        cfg.apf.validate().expect("invalid APF config");
        if let PopulationData::Shared { parts, .. } = &data {
            assert_eq!(
                parts.len(),
                cfg.registered,
                "partition does not cover the registered population"
            );
        }
        let model_seed = derive_seed(cfg.fl.seed, 0x30DE1);
        let mut eval_model = model_factory(model_seed);
        let init = eval_model.flat_params();
        let mgr = ApfManager::new(&init, cfg.apf, Box::new(Aimd::default()))
            .expect("config validated above");
        let model_name = eval_model.name().to_owned();
        let strategy_label = if cfg.wire_f16 { "apf-pop+q" } else { "apf-pop" }.to_owned();
        let name = format!("{model_name}/{strategy_label}");
        let config_digest =
            fnv1a64(population_canonical(&cfg, &model_name, &strategy_label).as_bytes());
        let ledger_path = std::env::var("APF_LEDGER_FILE")
            .ok()
            .filter(|s| !s.is_empty())
            .map(PathBuf::from);
        event!(Level::Info, target: "fedsim.pop", "population_configured",
            name = name.as_str(),
            registered = cfg.registered,
            cohort = cfg.cohort,
            shells = cfg.shells,
            model_scalars = init.len(),
            dormant = cfg.codec.name(),
        );
        let book = RoundBook::new("fedsim.pop", &name, &cfg.fl, eval_model, test);
        PopulationRunner {
            cfg,
            data,
            model_factory: Box::new(model_factory),
            model_seed,
            mgr,
            mgr_dormant_bytes: 0,
            shells: Vec::new(),
            registry: ClientRegistry::new(),
            rep: init.clone(),
            global: init,
            network: NetworkModel::default(),
            book,
            model_name,
            strategy_label,
            config_digest,
            ledger_path,
        }
    }

    /// The metric log so far.
    pub fn log(&self) -> &ExperimentLog {
        self.book.log()
    }

    /// The current global flat model.
    pub fn global(&self) -> &[f32] {
        &self.global
    }

    /// The registry of dormant clients.
    pub fn registry(&self) -> &ClientRegistry {
        &self.registry
    }

    /// Deterministic steady-state resident-byte estimate: slab free lists,
    /// registry blobs, the shared manager's dormant footprint, and the
    /// materialized shells. Independent of the registered population size —
    /// that is the claim the `bench-kernels` population sweep pins.
    pub fn steady_resident_bytes(&self) -> u64 {
        let (_, _, _, slab_resident) = slab::global_stats();
        let n = self.global.len() as u64;
        // Shells: flat params + grads + optimizer state + the data shard.
        let shells: u64 = self
            .shells
            .iter()
            .map(|s| {
                let data = s.client.data();
                let shard = (data.len() * data.sample_numel()) as u64 * 4 + data.len() as u64 * 8;
                n * 8 + s.client.trainer().optimizer_state().len() as u64 * 4 + shard
            })
            .sum();
        // Runner-owned dense vectors: global + representative + eval model.
        let runner = n * 4 * 3;
        slab_resident
            + self.registry.resident_bytes()
            + self.mgr_dormant_bytes as u64
            + shells
            + runner
    }

    /// Draws the round's cohort: sorted, distinct, seeded by
    /// `(run seed, round)` so reruns and thread counts cannot change it.
    fn sample_cohort(&self, round: u64) -> Vec<u64> {
        let n = self.cfg.registered as u64;
        let k = self.cfg.cohort as u64;
        if k == 0 || k >= n {
            return (0..n).collect();
        }
        let mut rng = seeded_rng(derive_seed(derive_seed(self.cfg.fl.seed, 0xC040), round));
        let mut chosen = std::collections::HashSet::with_capacity(k as usize);
        let mut out = Vec::with_capacity(k as usize);
        while out.len() < k as usize {
            let c = rng.gen_range(0..n);
            if chosen.insert(c) {
                out.push(c);
            }
        }
        out.sort_unstable();
        out
    }

    /// Phase 1: binds shells `0..ids.len()` to the block's clients and
    /// restores each one — shard, global model, RNG, step counter,
    /// optimizer state. Shells the pool lacks are built first, serially
    /// (`model_factory` need not be `Sync`; only round 0 builds any).
    fn prepare_block(&mut self, ids: &[u64]) {
        while self.shells.len() < ids.len() {
            let id = ids[self.shells.len()];
            let trainer = Trainer::new(
                (self.model_factory)(self.model_seed),
                self.cfg.optimizer.build(),
                self.cfg.schedule,
            );
            let client = Client::new(
                trainer,
                self.data.shard(id),
                self.cfg.fl.batch_size,
                derive_seed(self.cfg.fl.seed, id),
            );
            self.shells.push(Shell {
                client,
                bound: id,
                fresh: false,
                loss: 0.0,
                blob: None,
            });
        }
        let (data, registry, global) = (&self.data, &self.registry, &self.global[..]);
        let seed = self.cfg.fl.seed;
        let shells = &mut self.shells[..ids.len()];
        for_each_client(self.cfg.fl.parallel, shells, |slot, shell| {
            let id = ids[slot];
            if shell.bound != id {
                shell.client.refill_data(|x, y| data.fill_shard(id, x, y));
                shell.bound = id;
            }
            let dormant = registry.get(id).map(unpack_dormant);
            shell.fresh = dormant.is_none();
            let (rng, steps, opt) = dormant.unwrap_or_else(|| {
                let fresh = seeded_rng(derive_seed(derive_seed(seed, id), 0xC11E));
                (fresh.state(), 0, Vec::new())
            });
            let client = &mut shell.client;
            client.load_flat(global);
            client.set_rng_state(rng);
            client.trainer_mut().set_step_count(steps as usize);
            client.trainer_mut().load_optimizer_state(&opt);
        });
    }

    /// Phase 2: one local round on each of the first `count` shells.
    fn train_block(&mut self, round: u64, count: usize) {
        let local_iters = self.cfg.fl.local_iters;
        let mgr = &self.mgr;
        for_each_client(
            self.cfg.fl.parallel,
            &mut self.shells[..count],
            |_, shell| {
                let hook = |p: &mut [f32]| mgr.rollback(p, round);
                shell.loss = shell.client.local_round(local_iters, &hook);
            },
        );
    }

    /// Phase 3 for the first `losses.len()` shells. On the pool: pack each
    /// client's dormant blob and, with `wire_f16`, round its unfrozen
    /// parameters through f16 in place (invisible: the next prepare
    /// reloads the global model). Then serially, in ascending client id —
    /// the f32 accumulation order of [`FlRunner`]'s per-client loop — add
    /// each shell's unfrozen parameters into `agg`, file its blob and copy
    /// out its loss. Frozen slots are never read: the per-step rollback
    /// hook already pinned them, and the aggregate skips them anyway.
    /// Returns how many of the clients were first-timers.
    fn reduce_block(&mut self, mask: &FreezeMask, agg: &mut [f32], losses: &mut [f32]) -> u64 {
        let (codec, wire_f16) = (self.cfg.codec, self.cfg.wire_f16);
        let shells = &mut self.shells[..losses.len()];
        for_each_client(self.cfg.fl.parallel, shells, |_, shell| {
            let trainer = shell.client.trainer();
            shell.blob = Some(pack_dormant(
                shell.client.rng_state(),
                trainer.step_count() as u64,
                &trainer.optimizer_state(),
                codec,
            ));
            if wire_f16 {
                for_each_unfrozen_param_run(&mut shell.client, mask, |v, _, _| {
                    f16_roundtrip_in_place(v);
                });
            }
        });
        let mut fresh = 0;
        for (shell, loss) in shells.iter_mut().zip(losses) {
            // `y += x` per lane: bitwise what `masked_axpy(.., 1.0, ..)`
            // computes over the same unfrozen runs.
            for_each_unfrozen_param_run(&mut shell.client, mask, |v, s, e| {
                for (y, &x) in agg[s..e].iter_mut().zip(v.iter()) {
                    *y += x;
                }
            });
            let blob = shell.blob.take().expect("packed on the pool above");
            self.registry.insert(shell.bound, blob);
            *loss = shell.loss;
            fresh += u64::from(shell.fresh);
        }
        fresh
    }

    /// Runs one communication round and returns its record.
    pub fn run_round(&mut self, round: u64) -> RoundRecord {
        let _round_span = span!(Level::Info, target: "fedsim.pop", "round", round = round);
        let n = self.global.len();
        let mask = self.mgr.frozen_mask_packed(round);
        let cohort = self.sample_cohort(round);
        let mut losses = vec![0.0f32; cohort.len()];
        let mut agg = slab::take(n);
        let mut new_clients = 0u64;
        let mut compute_secs = 0.0f64;
        let block = self.cfg.shells;
        for (ids, block_losses) in cohort.chunks(block).zip(losses.chunks_mut(block)) {
            {
                let _s = span!(Level::Info, target: "fedsim.pop", "prepare", round = round);
                self.prepare_block(ids);
            }
            {
                let _s = span!(Level::Info, target: "fedsim.pop", "train", round = round);
                let t0 = Instant::now();
                self.train_block(round, ids.len());
                compute_secs += t0.elapsed().as_secs_f64();
            }
            let _s = span!(Level::Info, target: "fedsim.pop", "reduce", round = round);
            new_clients += self.reduce_block(&mask, &mut agg, block_losses);
        }
        // Weight total accumulated exactly as FlRunner sums its per-client
        // unit weights.
        let mut total = 0.0f32;
        for _ in 0..cohort.len() {
            total += 1.0;
        }
        apf_tensor::masked_div(&mut agg, total, mask.words());
        if self.cfg.wire_f16 {
            mask.for_each_unfrozen_run_in(0, n, |s, e| {
                f16_roundtrip_in_place(&mut agg[s..e]);
            });
        }
        self.mgr.apply_aggregate_dense(&mut self.rep, &agg, round);
        let report = self.mgr.finish_round(&self.rep, round);
        self.global.copy_from_slice(&self.rep);
        slab::give(agg);
        // The shared manager's round-boundary dormant hop: encode → decode
        // through the configured codec, proving the compact form carries
        // everything the next round needs.
        let snapshot = self.mgr.snapshot();
        let dormant = DormantApfState::encode(&snapshot, self.cfg.codec);
        self.mgr_dormant_bytes = dormant.len_bytes();
        let restored = dormant.decode(self.cfg.apf).expect("self-encoded blob");
        self.mgr = ApfManager::restore(restored, Box::new(Aimd::default()));
        apf_trace::metrics::gauge("population.registry_clients").set(self.registry.len() as f64);
        apf_trace::metrics::gauge("population.registry_bytes")
            .set(self.registry.resident_bytes() as f64);
        // Communication accounting: every cohort client moves the masked
        // frame both ways; first-timers additionally pull the initial model
        // (FlRunner's round-0 broadcast, amortized over late joiners).
        self.book
            .charge_joiners(new_clients, |b| self.network.transfer_secs(0, b));
        let tally = RoundTally {
            loss: losses.iter().sum::<f32>() / cohort.len().max(1) as f32,
            frozen_ratio: report.frozen_ratio(),
            bytes_up: report.bytes_up * cohort.len() as u64,
            bytes_down: report.bytes_down * cohort.len() as u64,
            compute_secs,
            comm_secs: self
                .network
                .transfer_secs(report.bytes_up, report.bytes_down),
        };
        self.book.close_round(round, tally, &self.global)
    }

    /// Runs all configured rounds; appends a ledger record when
    /// `APF_LEDGER_FILE` names a file.
    pub fn run(&mut self) -> &ExperimentLog {
        let t0 = Instant::now();
        for r in 0..self.cfg.fl.rounds as u64 {
            self.run_round(r);
        }
        let wall_secs = t0.elapsed().as_secs_f64();
        let extra = [
            ("registered", self.cfg.registered as f64),
            ("cohort_size", self.cfg.cohort as f64),
            ("registry_bytes", self.registry.resident_bytes() as f64),
            ("steady_resident_bytes", self.steady_resident_bytes() as f64),
        ];
        // A failed ledger write is reported as an event; the run stands.
        let _ = finish_run(
            self.ledger_path.as_deref(),
            self.book.log(),
            &self.model_name,
            &self.strategy_label,
            self.config_digest,
            wall_secs,
            &extra,
        );
        self.book.log()
    }
}

/// Canonical configuration string behind the population runner's ledger
/// digest: the shared [`FlConfig`] canonical plus the population knobs.
pub(crate) fn population_canonical(cfg: &PopulationConfig, model: &str, strategy: &str) -> String {
    format!(
        "{};registered={};cohort={};dormant={};shells={}",
        config_canonical(&cfg.fl, model, strategy, cfg.registered),
        cfg.registered,
        cfg.cohort,
        cfg.codec.name(),
        cfg.shells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dormant_blob_roundtrips() {
        let rng = [1u64, u64::MAX, 3, 0xDEAD_BEEF];
        let opt = vec![0.5f32, -1.25, 3.0];
        for codec in [EmaCodec::Dense, EmaCodec::F16] {
            let blob = pack_dormant(rng, 42, &opt, codec);
            let (r2, s2, o2) = unpack_dormant(&blob);
            assert_eq!(r2, rng);
            assert_eq!(s2, 42);
            assert_eq!(o2, opt, "{codec:?} must be exact on these values");
        }
        // Empty optimizer state (momentum-free SGD) stays tiny.
        let blob = pack_dormant(rng, 0, &[], EmaCodec::Dense);
        assert_eq!(blob.len(), 45);
    }

    #[test]
    fn registry_accounting_tracks_replacements() {
        let mut reg = ClientRegistry::new();
        assert!(reg.is_empty());
        reg.insert(5, pack_dormant([0; 4], 0, &[1.0; 8], EmaCodec::Dense));
        let b1 = reg.resident_bytes();
        reg.insert(5, pack_dormant([0; 4], 1, &[], EmaCodec::Dense));
        assert_eq!(reg.len(), 1);
        assert!(reg.resident_bytes() < b1, "replacement must shrink");
        reg.insert(9, pack_dormant([0; 4], 0, &[], EmaCodec::Dense));
        assert_eq!(reg.len(), 2);
        assert!(reg.get(7).is_none());
    }

    #[test]
    fn cohort_sampling_is_deterministic_sorted_distinct() {
        let spec = crate::RunSpec::golden();
        let mut runner = spec.build_population_runner();
        runner.cfg.registered = 1000;
        runner.cfg.cohort = 64;
        let a = runner.sample_cohort(3);
        let b = runner.sample_cohort(3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(a.iter().all(|&c| c < 1000));
        let c = runner.sample_cohort(4);
        assert_ne!(a, c, "different rounds draw different cohorts");
    }
}
