//! The traced round: `FlRunner::run_round` assembled from the public pieces
//! it is made of (`Client`, `Trainer`, `SyncStrategy`, `evaluate`), with a
//! timer around each call. Its trajectory must equal the runner's bit for
//! bit, which proves the timers measure the same work.

use std::cell::Cell;
use std::time::Instant;

use apf_data::Dataset;
use apf_fedsim::{Client, FlConfig, RunSpec, SyncStrategy, TrajectoryRound};
use apf_nn::{LrSchedule, Sequential, Trainer};
use apf_tensor::{derive_seed, Rng};

use crate::stats::ms_since;
use crate::workloads::{base_lr, spec_apf_strategy, FlSetup, Strategy};

/// Self time one client spent in each layer during one local round, in ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientTimes {
    /// The whole local round.
    pub total: f64,
    /// `Trainer::train_batch`: forward, backward and optimizer step.
    pub train_batch: f64,
    /// `flat_params` plus `load_flat` around the per-step hook.
    pub flat_copy: f64,
    /// `SyncStrategy::post_local_iteration` (the APF rollback).
    pub rollback: f64,
    /// Shuffling and gathering the epoch's mini-batches.
    pub batching: f64,
    /// Local steps taken.
    pub steps: usize,
}

/// Per-layer wall times of one traced round, in ms.
#[derive(Debug, Clone, Default)]
pub struct RoundTimes {
    /// The whole round.
    pub round: f64,
    /// The local phase (all clients, in parallel on the pool).
    pub local: f64,
    /// Each client's local round.
    pub clients: Vec<ClientTimes>,
    /// Gathering the clients' flat models and loading the synced ones back.
    pub gather_scatter: f64,
    /// `SyncStrategy::sync_round`.
    pub sync: f64,
    /// Evaluation, on rounds that evaluate.
    pub eval: Option<f64>,
}

/// A federated fleet driven round by round from the benchmark.
pub struct Fleet {
    clients: Vec<Client>,
    /// The strategy (kept concrete so probes can copy its APF state).
    pub strategy: Strategy,
    /// The global model.
    pub global: Vec<f32>,
    eval_model: Sequential,
    test: Dataset,
    cfg: FlConfig,
}

impl Fleet {
    /// Builds the fleet an `FlRunner` of `setup` would build.
    pub fn from_setup(setup: &FlSetup) -> Fleet {
        let model = setup.model;
        let model_seed = derive_seed(setup.cfg.seed, 0x30DE1);
        let clients = setup
            .parts
            .iter()
            .enumerate()
            .map(|(i, part)| {
                let trainer = Trainer::new(
                    model.build(model_seed),
                    setup.optimizer(),
                    LrSchedule::Constant(base_lr(model.optimizer())),
                );
                Client::new(
                    trainer,
                    setup.train.select(part),
                    setup.cfg.batch_size,
                    derive_seed(setup.cfg.seed, i as u64),
                )
            })
            .collect();
        Fleet::assemble(
            clients,
            setup.strategy(),
            model.build(model_seed),
            setup.test.clone(),
            setup.cfg.clone(),
        )
    }

    /// Builds the fleet `RunSpec::build_runner` would build.
    pub fn from_spec(spec: &RunSpec) -> Fleet {
        let clients = (0..spec.clients).map(|i| spec.make_client(i)).collect();
        Fleet::assemble(
            clients,
            Strategy::Apf(spec_apf_strategy(spec)),
            spec.model(),
            spec.test_set(),
            spec.fl_config(),
        )
    }

    fn assemble(
        mut clients: Vec<Client>,
        mut strategy: Strategy,
        mut eval_model: Sequential,
        test: Dataset,
        cfg: FlConfig,
    ) -> Fleet {
        let init = clients[0].flat_params();
        let layout = eval_model
            .flat_spec()
            .params()
            .iter()
            .map(|p| (p.name.clone(), p.len))
            .collect();
        let s = strategy.as_dyn();
        s.set_model_layout(layout);
        s.set_filter_layout(eval_model.filter_segments());
        s.init(&init, clients.len());
        Fleet {
            global: init,
            clients,
            strategy,
            eval_model,
            test,
            cfg,
        }
    }

    /// Runs round `round` exactly as `FlRunner::run_round` does (full
    /// participation, no stragglers, no FedProx), timing each layer.
    pub fn run_round(&mut self, round: u64) -> (TrajectoryRound, RoundTimes) {
        let t_round = Instant::now();
        let n = self.clients.len();
        let local_iters = self.cfg.local_iters;
        let batch_size = self.cfg.batch_size;
        let strategy = self.strategy.as_ref();
        let mut losses = vec![0.0f32; n];
        let mut times = vec![ClientTimes::default(); n];
        let t_local = Instant::now();
        apf_par::scope(|s| {
            for (((i, client), loss), slot) in self
                .clients
                .iter_mut()
                .enumerate()
                .zip(losses.iter_mut())
                .zip(times.iter_mut())
            {
                s.spawn(move || {
                    (*loss, *slot) =
                        local_round(client, strategy, round, i, local_iters, batch_size);
                });
            }
        });
        let local = ms_since(t_local);

        let weights = vec![1.0f32; n];
        let t_gather = Instant::now();
        let mut locals: Vec<Vec<f32>> = self.clients.iter_mut().map(Client::flat_params).collect();
        let mut gather_scatter = ms_since(t_gather);
        let t_sync = Instant::now();
        let comm =
            self.strategy
                .as_dyn()
                .sync_round(round, &mut locals, &weights, &mut self.global);
        let sync = ms_since(t_sync);
        let t_scatter = Instant::now();
        for (c, l) in self.clients.iter_mut().zip(&locals) {
            c.load_flat(l);
        }
        gather_scatter += ms_since(t_scatter);

        let evaluates =
            round.is_multiple_of(self.cfg.eval_every as u64) || round + 1 == self.cfg.rounds as u64;
        let (accuracy, eval) = if evaluates {
            let t_eval = Instant::now();
            self.eval_model.load_flat(&self.global);
            let acc = apf_nn::evaluate(
                &mut self.eval_model,
                self.test.inputs(),
                self.test.labels(),
                self.cfg.eval_batch,
            );
            (Some(acc), Some(ms_since(t_eval)))
        } else {
            (None, None)
        };
        let loss = losses.iter().sum::<f32>() / n.max(1) as f32;
        let record = TrajectoryRound {
            round,
            loss_bits: loss.to_bits(),
            frozen_bits: comm.frozen_ratio.to_bits(),
            accuracy_bits: accuracy.map(f32::to_bits),
            bytes_up: comm.bytes_up,
            bytes_down: comm.bytes_down,
        };
        let times = RoundTimes {
            round: ms_since(t_round),
            local,
            clients: times,
            gather_scatter,
            sync,
            eval,
        };
        (record, times)
    }
}

thread_local! {
    /// Wall time, in ms, this thread has spent running client tasks nested
    /// inside other client tasks: apf-par's caller-helping join lets a
    /// thread waiting on its own kernel pick up another client's whole
    /// local round. Only ever grows.
    static NESTED_MS: Cell<f64> = const { Cell::new(0.0) };
}

/// Runs `f` and returns its result with its self time in ms: wall time
/// minus any client tasks the thread ran nested inside it.
fn self_timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let nested0 = NESTED_MS.get();
    let t0 = Instant::now();
    let r = f();
    (r, ms_since(t0) - (NESTED_MS.get() - nested0))
}

/// `Client::local_round` at full workload, step by step: the same batches
/// from the same shuffle RNG, the same train step, the same per-step hook.
/// Every time is self time (see [`NESTED_MS`]).
fn local_round(
    client: &mut Client,
    strategy: &dyn SyncStrategy,
    round: u64,
    index: usize,
    local_iters: usize,
    batch_size: usize,
) -> (f32, ClientTimes) {
    let nested0 = NESTED_MS.get();
    let t_total = Instant::now();
    let mut t = ClientTimes::default();
    let mut rng = Rng::from_state(client.rng_state());
    let mut total = 0.0f32;
    while t.steps < local_iters {
        let (batches, ms) = self_timed(|| {
            client
                .data()
                .batches(batch_size, &mut rng)
                .collect::<Vec<_>>()
        });
        t.batching += ms;
        for (x, y) in batches {
            if t.steps >= local_iters {
                break;
            }
            let (loss, ms) = self_timed(|| client.trainer_mut().train_batch(&x, &y));
            total += loss;
            t.train_batch += ms;
            let (mut flat, ms) = self_timed(|| client.trainer_mut().model_mut().flat_params());
            t.flat_copy += ms;
            let ((), ms) = self_timed(|| strategy.post_local_iteration(round, index, &mut flat));
            t.rollback += ms;
            let ((), ms) = self_timed(|| client.trainer_mut().model_mut().load_flat(&flat));
            t.flat_copy += ms;
            t.steps += 1;
        }
    }
    client.set_rng_state(rng.state());
    let wall = ms_since(t_total);
    t.total = wall - (NESTED_MS.get() - nested0);
    // To whatever task this one ran inside, all of it is nested time.
    NESTED_MS.set(nested0 + wall);
    (total / local_iters as f32, t)
}
