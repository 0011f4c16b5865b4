//! The four workloads: their inputs and how each one's program state is
//! built.
//!
//! Each workload trains on one fixed synthetic dataset, the way a real
//! benchmark trains on a fixed CIFAR-10. `--seed` draws everything else:
//! the client partition, model initialisation, batch order, APF randomness
//! and, for the population, the cohorts.

use apf::{Aimd, ApfConfig, ApfVariant, FreezeGranularity, ThresholdDecay};
use apf_bench::setups::{ModelKind, Scale};
use apf_data::{dirichlet_partition, Dataset, SynthImageGen};
use apf_fedsim::{
    ApfStrategy, FlConfig, FlRunner, FullSync, OptimizerKind, PartitionKind, PopulationConfig,
    PopulationData, PopulationRunner, RunSpec, SpecStrategy, SyncStrategy,
};
use apf_nn::{models, Adam, LrSchedule, Optimizer, Sgd};
use apf_quant::EmaCodec;
use apf_tensor::Tensor;

/// Seed of the fixed synthetic datasets.
pub const DATA_SEED: u64 = 0;

/// Clients of the two `FlRunner` workloads.
pub const FL_CLIENTS: usize = 4;
/// Registered clients of the population workload.
pub const POP_REGISTERED: usize = 1_000_000;
/// Clients sampled per population round.
pub const POP_COHORT: usize = 500;
/// Simultaneously materialized population clients (one training block).
pub const POP_SHELLS: usize = 64;
/// Private synthetic samples per population client.
pub const POP_PER_CLIENT: usize = 8;
/// Hidden width of the population MLP `[768, 16, 10]`.
pub const POP_HIDDEN: usize = 16;
/// Hidden width of the networked workload's MLP `[768, 1024, 10]`.
pub const NET_HIDDEN: usize = 1024;
/// Clients of the networked workload (one OS thread and TCP connection
/// each).
pub const NET_CLIENTS: usize = 2;

/// Scalars of the MLP `[768, hidden, 10]` the population and networked
/// workloads train.
pub fn mlp_scalars(hidden: usize) -> usize {
    768 * hidden + hidden + hidden * 10 + 10
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `FlRunner`, LeNet-5, APF.
    Lenet5Apf,
    /// `FlRunner`, 2-layer LSTM, FedAvg.
    LstmFedavg,
    /// `PopulationRunner`, 1M registered clients, APF.
    PopulationApf,
    /// `NetServer` + `run_client` over loopback TCP, APF with f16 on the
    /// wire.
    NetApfF16,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Lenet5Apf,
        Workload::LstmFedavg,
        Workload::PopulationApf,
        Workload::NetApfF16,
    ];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lenet5Apf => "lenet5-apf",
            Workload::LstmFedavg => "lstm-fedavg",
            Workload::PopulationApf => "population-apf",
            Workload::NetApfF16 => "net-apf-f16",
        }
    }

    /// Evaluation cadence in rounds.
    pub fn eval_every(self) -> usize {
        match self {
            Workload::NetApfF16 => 10,
            _ => 5,
        }
    }

    /// Round time on the reference host (2 cores) at the commit that
    /// defined the benchmark, in ms. It only sizes runs: see
    /// [`Workload::rounds`].
    fn nominal_round_ms(self) -> f64 {
        match self {
            Workload::Lenet5Apf => 102.0,
            Workload::LstmFedavg => 227.0,
            Workload::PopulationApf => 210.0,
            Workload::NetApfF16 => 90.0,
        }
    }

    /// Rounds per run. The count is fixed by `--seconds` alone, never by
    /// how fast rounds go, so `total_mb` and `final_accuracy` compare the
    /// same amount of training on every commit. It is one more than a
    /// multiple of the eval cadence, so the last round evaluates under the
    /// cadence rule as well as the last-round rule, and at least 101 so at
    /// least ten rounds lie beyond `round_ms_p90`.
    pub fn rounds(self, seconds: u64) -> usize {
        let every = self.eval_every();
        let wanted = (seconds as f64 * 1e3 / self.nominal_round_ms()).ceil() as usize;
        wanted.max(100).div_ceil(every) * every + 1
    }

    /// Local training samples per round, summed over participants.
    pub fn samples_per_round(self) -> usize {
        let scale = Scale::Standard;
        match self {
            Workload::Lenet5Apf | Workload::LstmFedavg => {
                FL_CLIENTS * scale.local_iters() * scale.batch_size()
            }
            Workload::PopulationApf => POP_COHORT * 2 * 4,
            Workload::NetApfF16 => NET_CLIENTS * 16,
        }
    }
}

/// The experiments harness's APF settings (`apf_cfg`): threshold 0.1, EMA
/// α 0.95, threshold decay at 80% stable by a factor 0.5.
pub fn harness_apf_cfg(seed: u64, check_every_rounds: u32) -> ApfConfig {
    ApfConfig {
        stability_threshold: 0.1,
        threshold_decay: Some(ThresholdDecay {
            trigger_fraction: 0.8,
            factor: 0.5,
        }),
        check_every_rounds,
        ema_alpha: 0.95,
        variant: ApfVariant::Standard,
        seed,
        bytes_per_scalar: 4,
        granularity: FreezeGranularity::Scalar,
    }
}

/// A Dirichlet(α = 1) partition without empty clients: the first of up to
/// 16 partition seeds derived from `seed` that gives every client data.
///
/// # Panics
/// Panics if all 16 leave a client empty.
pub fn dirichlet_parts(labels: &[usize], clients: usize, seed: u64) -> (Vec<Vec<usize>>, u64) {
    for salt in 0..16u64 {
        let pseed = seed.wrapping_add(salt);
        let parts = dirichlet_partition(labels, clients, 1.0, pseed);
        if parts.iter().all(|p| !p.is_empty()) {
            return (parts, pseed);
        }
    }
    panic!("no partition without empty clients for seed {seed}");
}

/// The synchronization strategy of an `FlRunner` workload, kept concrete so
/// the traced run can read the APF managers.
pub enum Strategy {
    /// APF with the harness's AIMD controller.
    Apf(ApfStrategy),
    /// FedAvg.
    Fedavg(FullSync),
}

impl Strategy {
    /// The strategy as the runner sees it.
    pub fn as_dyn(&mut self) -> &mut dyn SyncStrategy {
        match self {
            Strategy::Apf(s) => s,
            Strategy::Fedavg(s) => s,
        }
    }

    /// Read-only view.
    pub fn as_ref(&self) -> &dyn SyncStrategy {
        match self {
            Strategy::Apf(s) => s,
            Strategy::Fedavg(s) => s,
        }
    }
}

/// Inputs of an `FlRunner` workload: a model of the paper's zoo, its data,
/// and the run configuration.
pub struct FlSetup {
    /// LeNet-5 or the LSTM.
    pub model: ModelKind,
    /// The training split (20% label noise, as in the harness).
    pub train: Dataset,
    /// The held-out split.
    pub test: Dataset,
    /// Per-client sample indices.
    pub parts: Vec<Vec<usize>>,
    /// Round configuration.
    pub cfg: FlConfig,
    /// Whether the workload runs APF (else FedAvg).
    pub apf: bool,
}

impl FlSetup {
    /// Generates the data and configuration of `workload` (an `FlRunner`
    /// workload) from `seed`.
    pub fn generate(workload: Workload, seed: u64, rounds: usize) -> FlSetup {
        let (model, apf) = match workload {
            Workload::Lenet5Apf => (ModelKind::Lenet5, true),
            Workload::LstmFedavg => (ModelKind::Lstm, false),
            _ => unreachable!("not an FlRunner workload"),
        };
        let scale = Scale::Standard;
        let (train, test) = model.datasets(
            scale.per_client_samples() * FL_CLIENTS,
            scale.test_samples(),
            DATA_SEED,
        );
        let (parts, _) = dirichlet_parts(train.labels(), FL_CLIENTS, seed);
        let cfg = FlConfig {
            local_iters: scale.local_iters(),
            rounds,
            batch_size: scale.batch_size(),
            eval_every: workload.eval_every(),
            eval_batch: 100,
            seed,
            parallel: true,
            ..FlConfig::default()
        };
        FlSetup {
            model,
            train,
            test,
            parts,
            cfg,
            apf,
        }
    }

    /// A fresh strategy.
    pub fn strategy(&self) -> Strategy {
        if self.apf {
            let s = ApfStrategy::with_controller(
                harness_apf_cfg(self.cfg.seed, 2),
                Box::new(|| {
                    Box::new(Aimd {
                        increment: 2,
                        decrease_factor: 2,
                    })
                }),
                "apf",
            )
            .expect("the harness APF config is valid");
            Strategy::Apf(s)
        } else {
            Strategy::Fedavg(FullSync::new())
        }
    }

    /// The optimizer `FlRunner` builds for each client from
    /// [`ModelKind::optimizer`].
    pub fn optimizer(&self) -> Box<dyn Optimizer> {
        build_optimizer(self.model.optimizer())
    }

    /// The runner under test.
    pub fn build_runner(&self) -> FlRunner {
        let model = self.model;
        let strategy: Box<dyn SyncStrategy> = match self.strategy() {
            Strategy::Apf(s) => Box::new(s),
            Strategy::Fedavg(s) => Box::new(s),
        };
        FlRunner::builder(move |s| model.build(s), self.cfg.clone())
            .optimizer(model.optimizer())
            .clients_from_partition(&self.train, &self.parts)
            .test_set(self.test.clone())
            .strategy(strategy)
            .build()
    }
}

/// The optimizer an [`OptimizerKind`] stands for, built the way `FlRunner`
/// builds it.
pub fn build_optimizer(kind: OptimizerKind) -> Box<dyn Optimizer> {
    match kind {
        OptimizerKind::Sgd {
            lr,
            momentum,
            weight_decay,
        } => Box::new(
            Sgd::new(lr)
                .with_momentum(momentum)
                .with_weight_decay(weight_decay),
        ),
        OptimizerKind::Adam { lr, weight_decay } => {
            Box::new(Adam::new(lr).with_weight_decay(weight_decay))
        }
    }
}

/// The learning rate an [`OptimizerKind`] starts from (the constant
/// schedule `FlRunner` gives its clients).
pub fn base_lr(kind: OptimizerKind) -> f32 {
    match kind {
        OptimizerKind::Sgd { lr, .. } | OptimizerKind::Adam { lr, .. } => lr,
    }
}

/// The population workload's configuration.
pub fn pop_config(seed: u64, rounds: usize) -> PopulationConfig {
    PopulationConfig {
        fl: FlConfig {
            local_iters: 2,
            rounds,
            batch_size: 4,
            eval_every: Workload::PopulationApf.eval_every(),
            eval_batch: 64,
            seed,
            parallel: true,
            ..FlConfig::default()
        },
        registered: POP_REGISTERED,
        cohort: POP_COHORT,
        codec: EmaCodec::F16,
        shells: POP_SHELLS,
        apf: ApfConfig {
            check_every_rounds: 2,
            seed,
            ..ApfConfig::default()
        },
        wire_f16: false,
        optimizer: OptimizerKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
            weight_decay: 0.0,
        },
        schedule: LrSchedule::Constant(0.05),
    }
}

/// The population's shard generator and held-out set (split 1; client
/// shards use splits `2 + id`).
pub fn pop_data() -> (SynthImageGen, Dataset) {
    let gen = SynthImageGen::new(DATA_SEED);
    let row = gen.sample_numel();
    let mut data = Vec::new();
    let mut labels = Vec::new();
    gen.fill_split(256, 1, &mut data, &mut labels);
    let test = Dataset::new(
        Tensor::from_vec(data, &[256, row]),
        labels,
        apf_data::NUM_CLASSES,
    );
    (gen, test)
}

/// The population runner under test.
pub fn build_population(
    seed: u64,
    rounds: usize,
    gen: SynthImageGen,
    test: Dataset,
) -> PopulationRunner {
    let row = gen.sample_numel();
    PopulationRunner::new(
        pop_config(seed, rounds),
        move |s| models::mlp("pop-mlp", &[row, POP_HIDDEN, 10], s),
        PopulationData::Synth {
            gen,
            per_client: POP_PER_CLIENT,
        },
        test,
    )
}

/// The networked workload's run spec.
pub fn net_spec(seed: u64, rounds: usize) -> RunSpec {
    let mut spec = RunSpec {
        clients: NET_CLIENTS,
        rounds,
        local_iters: 1,
        batch_size: 16,
        eval_every: Workload::NetApfF16.eval_every(),
        eval_batch: 128,
        seed,
        train_n: 512,
        test_n: 256,
        hidden: NET_HIDDEN,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        label_noise: 0.0,
        partition: PartitionKind::Dirichlet { alpha: 1.0, seed },
        strategy: SpecStrategy::Apf {
            check_every: 2,
            threshold: 0.1,
            ema_alpha: 0.95,
            f16: true,
        },
        cohort: 0,
        dormant: EmaCodec::Dense,
        parallel: true,
    };
    let train = spec.train_set();
    let (_, pseed) = dirichlet_parts(train.labels(), NET_CLIENTS, seed);
    spec.partition = PartitionKind::Dirichlet {
        alpha: 1.0,
        seed: pseed,
    };
    spec
}

/// The APF strategy `RunSpec::make_strategy` builds for an APF spec, kept
/// concrete.
pub fn spec_apf_strategy(spec: &RunSpec) -> ApfStrategy {
    let cfg = spec.apf_config().expect("the net workload runs APF");
    let s = ApfStrategy::new(ApfConfig {
        bytes_per_scalar: 4,
        ..cfg
    })
    .expect("spec-derived APF config is valid");
    if spec.wire_f16() {
        s.with_f16()
    } else {
        s
    }
}
