//! The round tail every front end shares — [`crate::FlRunner`],
//! [`crate::PopulationRunner`] and the `apf-net` server each own one
//! [`RoundBook`] — and the run end, [`finish_run`].
//!
//! The book keeps the run's [`ExperimentLog`] and cumulative accounting,
//! charges joining clients the initial model, evaluates on the one cadence
//! ([`evaluates_at`]) and builds, logs and reports each [`RoundRecord`].
//! Simulated time is the caller's input: the simulators pass compute and
//! [`crate::NetworkModel`] link seconds, the server zero.

use std::path::Path;

use apf_data::Dataset;
use apf_nn::Sequential;
use apf_trace::{event, span, Level};

use crate::ledger::{peak_resident_bytes, LedgerRecord};
use crate::metrics::{ExperimentLog, RoundRecord};
use crate::runner::FlConfig;

/// Whether round `round` of a `rounds`-round run evaluates the global
/// model: every `eval_every`-th round, and always the last one.
pub(crate) fn evaluates_at(round: u64, eval_every: usize, rounds: usize) -> bool {
    round.is_multiple_of(eval_every as u64) || round + 1 == rounds as u64
}

/// Held-out evaluation bundle: the eval model replica plus the test split.
pub struct EvalSetup {
    model: Sequential,
    test: Dataset,
    eval_batch: usize,
}

impl std::fmt::Debug for EvalSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalSetup")
            .field("test_samples", &self.test.len())
            .finish()
    }
}

impl EvalSetup {
    pub(crate) fn new(model: Sequential, test: Dataset, eval_batch: usize) -> EvalSetup {
        EvalSetup {
            model,
            test,
            eval_batch,
        }
    }

    /// Test accuracy of the flat model `params`.
    pub fn accuracy(&mut self, params: &[f32]) -> f32 {
        self.model.load_flat(params);
        apf_nn::evaluate(
            &mut self.model,
            self.test.inputs(),
            self.test.labels(),
            self.eval_batch,
        )
    }
}

/// What a front end measured in one round; [`RoundBook::close_round`]
/// derives the rest of the [`RoundRecord`].
#[derive(Debug, Clone, Copy)]
pub struct RoundTally {
    /// Mean local training loss over the round's participants.
    pub loss: f32,
    /// Fraction of scalars excluded from synchronization.
    pub frozen_ratio: f32,
    /// Bytes uploaded, summed over clients.
    pub bytes_up: u64,
    /// Bytes downloaded, summed over clients.
    pub bytes_down: u64,
    /// Compute time of the round, seconds.
    pub compute_secs: f64,
    /// Simulated transfer time of the round, seconds.
    pub comm_secs: f64,
}

/// Per-run accounting, evaluation and round records (see the module docs).
#[derive(Debug)]
pub struct RoundBook {
    /// Trace target of the book's `eval` span and `round_complete` event.
    target: &'static str,
    log: ExperimentLog,
    eval: EvalSetup,
    eval_every: usize,
    rounds: usize,
    initial_model_bytes: u64,
    cum_bytes: u64,
    cum_secs: f64,
    best_accuracy: f32,
}

impl RoundBook {
    /// A book for the run `name`: evaluates `eval_model` on `test` at
    /// `cfg`'s cadence and batch size, and charges each joining client the
    /// model's full f32 size.
    pub fn new(
        target: &'static str,
        name: &str,
        cfg: &FlConfig,
        mut eval_model: Sequential,
        test: Dataset,
    ) -> RoundBook {
        RoundBook {
            target,
            log: ExperimentLog::new(name),
            initial_model_bytes: eval_model.num_params() as u64 * 4,
            eval: EvalSetup::new(eval_model, test, cfg.eval_batch),
            eval_every: cfg.eval_every,
            rounds: cfg.rounds,
            cum_bytes: 0,
            cum_secs: 0.0,
            best_accuracy: 0.0,
        }
    }

    /// The metric log so far.
    pub fn log(&self) -> &ExperimentLog {
        &self.log
    }

    /// Charges `joiners` first-time clients the initial model pull; the
    /// pulls run in parallel, taking `link_secs(model bytes)` of simulated
    /// time. Returns the bytes charged.
    pub fn charge_joiners(&mut self, joiners: u64, link_secs: impl FnOnce(u64) -> f64) -> u64 {
        if joiners == 0 {
            return 0;
        }
        self.cum_bytes += self.initial_model_bytes * joiners;
        self.cum_secs += link_secs(self.initial_model_bytes);
        self.initial_model_bytes * joiners
    }

    /// Closes round `round`: adds `tally` to the cumulative accounting,
    /// evaluates `global` when the cadence says so, then logs the record,
    /// updates the round-level metrics and emits `round_complete`.
    pub fn close_round(&mut self, round: u64, tally: RoundTally, global: &[f32]) -> RoundRecord {
        self.cum_bytes += tally.bytes_up + tally.bytes_down;
        self.cum_secs += tally.compute_secs + tally.comm_secs;
        let accuracy = evaluates_at(round, self.eval_every, self.rounds).then(|| {
            let _s = span!(Level::Info, target: self.target, "eval", round = round);
            let acc = self.eval.accuracy(global);
            self.best_accuracy = self.best_accuracy.max(acc);
            acc
        });
        let record = RoundRecord {
            round,
            loss: tally.loss,
            accuracy,
            best_accuracy: self.best_accuracy,
            frozen_ratio: tally.frozen_ratio,
            bytes_up: tally.bytes_up,
            bytes_down: tally.bytes_down,
            cum_bytes: self.cum_bytes,
            compute_secs: tally.compute_secs,
            comm_secs: tally.comm_secs,
            cum_secs: self.cum_secs,
        };
        self.log.push(record);
        record_metrics(&record);
        event!(Level::Info, target: self.target, "round_complete",
            round = round,
            loss = record.loss,
            accuracy = record.accuracy.map_or(f32::NAN, |a| a),
            frozen_ratio = record.frozen_ratio,
            bytes_up = record.bytes_up,
            bytes_down = record.bytes_down,
            cum_bytes = record.cum_bytes,
            compute_secs = record.compute_secs,
            comm_secs = record.comm_secs,
        );
        record
    }
}

/// The round-level counters and gauges: the record's figures, plus
/// scratch-pool and slab-store health (steady state: misses flat).
fn record_metrics(record: &RoundRecord) {
    use apf_trace::metrics::{counter, gauge};
    counter("fedsim.bytes_up").add(record.bytes_up);
    counter("fedsim.bytes_down").add(record.bytes_down);
    counter("fedsim.rounds").inc();
    gauge("fedsim.round").set(record.round as f64);
    gauge("fedsim.loss").set(f64::from(record.loss));
    gauge("fedsim.frozen_ratio").set(f64::from(record.frozen_ratio));
    gauge("fedsim.best_accuracy").set(f64::from(record.best_accuracy));
    let (hits, misses, alloc) = apf_tensor::scratch::global_stats();
    gauge("scratch.hits").set(hits as f64);
    gauge("scratch.misses").set(misses as f64);
    gauge("scratch.alloc_bytes").set(alloc as f64);
    let (hits, misses, alloc, resident) = apf_tensor::slab::global_stats();
    gauge("slab.hits").set(hits as f64);
    gauge("slab.misses").set(misses as f64);
    gauge("slab.alloc_bytes").set(alloc as f64);
    gauge("slab.resident_bytes").set(resident as f64);
}

/// Ends a run: dumps the metrics registry into the trace, appends the
/// run's ledger record when `ledger` names a file ([`append_ledger`]), and
/// flushes the trace sink. Tracing and metrics are no-ops when disabled.
///
/// # Errors
/// The ledger write's I/O error (already reported as an event).
pub fn finish_run(
    ledger: Option<&Path>,
    log: &ExperimentLog,
    model: &str,
    strategy: &str,
    config_digest: u64,
    wall_secs: f64,
    extra: &[(&str, f64)],
) -> std::io::Result<()> {
    apf_trace::metrics::emit();
    let result = ledger.map_or(Ok(()), |path| {
        append_ledger(path, log, model, strategy, config_digest, wall_secs, extra)
    });
    apf_trace::flush();
    result
}

/// Appends a finished run's [`LedgerRecord`] to the JSONL ledger at
/// `path`: [`LedgerRecord::from_log`], plus the process's peak resident
/// bytes and the front end's `extra` metrics. The outcome is also reported
/// as a `ledger_appended` or `ledger_write_failed` event.
///
/// # Errors
/// The write's I/O error.
pub fn append_ledger(
    path: &Path,
    log: &ExperimentLog,
    model: &str,
    strategy: &str,
    config_digest: u64,
    wall_secs: f64,
    extra: &[(&str, f64)],
) -> std::io::Result<()> {
    let mut record = LedgerRecord::from_log(log, model, strategy, config_digest, wall_secs);
    let peak = peak_resident_bytes().map(|b| ("peak_resident_bytes", b as f64));
    for &(name, value) in extra.iter().chain(&peak) {
        record.metrics.insert(name.to_owned(), value);
    }
    let result = record.append_to(path);
    match &result {
        Ok(()) => event!(Level::Info, target: "fedsim", "ledger_appended",
            path = path.display().to_string(),
            digest = record.config_digest.as_str()),
        Err(e) => event!(Level::Warn, target: "fedsim", "ledger_write_failed",
            path = path.display().to_string(),
            error = e.to_string()),
    }
    result
}
