//! One workload, one mode: the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer metrics. Both check
//! the program's outputs outside the timed region.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use apf::{Aimd, ApfManager, FreezeMask};
use apf_fedsim::{ExperimentLog, FlRunner, PopulationRunner, RunSpec, Trajectory};
use apf_net::{run_client, ClientOpts, NetServer, ServerOpts, ServerOutcome};
use apf_tensor::{scratch, slab};

use crate::fleet::{ClientTimes, Fleet, RoundTimes};
use crate::probes::{self, Live};
use crate::stats::{
    mean, median, ms_since, peak_rss_mb, quantile, time_median_ms, Metrics, Verdict,
};
use crate::workloads::{
    build_population, net_spec, pop_data, FlSetup, Strategy, Workload, POP_COHORT, POP_HIDDEN,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Run length in seconds (sizes the round count).
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// Busy threads the benchmark allows itself: the host's cores, at most 2.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Runs the workload in the requested mode.
pub fn run(o: &Opts) -> (Verdict, Metrics) {
    apf_par::set_threads(threads());
    let rounds = o.workload.rounds(o.seconds);
    match (o.workload, o.trace) {
        (Workload::Lenet5Apf | Workload::LstmFedavg, false) => {
            let (_, runner, setup_s, _) = fl_setups(o, rounds);
            untraced(o, runner, setup_s)
        }
        (Workload::Lenet5Apf | Workload::LstmFedavg, true) => fl_traced(o, rounds),
        (Workload::PopulationApf, false) => {
            let (runner, setup_s, _) = pop_setups(o, rounds);
            untraced(o, runner, setup_s)
        }
        (Workload::PopulationApf, true) => pop_traced(o, rounds),
        (Workload::NetApfF16, false) => net_untraced(o, rounds),
        (Workload::NetApfF16, true) => net_traced(o, rounds),
    }
}

/// The two in-process runners, as the benchmark drives them.
trait Runner {
    fn round(&mut self, r: u64);
    fn log(&self) -> &ExperimentLog;
    fn global(&self) -> &[f32];
}

impl Runner for FlRunner {
    fn round(&mut self, r: u64) {
        self.run_round(r);
    }
    fn log(&self) -> &ExperimentLog {
        FlRunner::log(self)
    }
    fn global(&self) -> &[f32] {
        FlRunner::global(self)
    }
}

impl Runner for PopulationRunner {
    fn round(&mut self, r: u64) {
        self.run_round(r);
    }
    fn log(&self) -> &ExperimentLog {
        PopulationRunner::log(self)
    }
    fn global(&self) -> &[f32] {
        PopulationRunner::global(self)
    }
}

/// Runs `rounds` rounds closed-loop, timing each in ms; stops at the first
/// round that panics. Also returns the slab misses after round 0.
fn timed_rounds(runner: &mut dyn Runner, rounds: usize) -> (Vec<f64>, u64) {
    let mut times = Vec::with_capacity(rounds);
    let mut misses0 = 0;
    for r in 0..rounds as u64 {
        let t0 = Instant::now();
        if catch_unwind(AssertUnwindSafe(|| runner.round(r))).is_err() {
            break;
        }
        times.push(ms_since(t0));
        if r == 0 {
            misses0 = slab::global_stats().1;
        }
    }
    (times, slab::global_stats().1 - misses0)
}

/// Output checks every workload shares: all planned rounds ran, every round
/// loss and the final model are finite. Counts the failed rounds.
fn check_run(v: &mut Verdict, rounds: usize, losses: &[f32], global: &[f32]) {
    v.attempted = rounds as u64;
    let completed = losses.len().min(rounds);
    let non_finite = losses.iter().filter(|l| !l.is_finite()).count();
    let model_ok = global.iter().all(|x| x.is_finite());
    v.check(
        completed == rounds,
        format!("{completed} of {rounds} rounds completed"),
    );
    v.check(
        non_finite == 0,
        format!("{non_finite} rounds with a non-finite loss"),
    );
    v.check(model_ok, "final global model is finite");
    v.failed += (rounds - completed + non_finite + usize::from(!model_ok)) as u64;
    v.failed = v.failed.min(v.attempted);
}

fn losses(log: &ExperimentLog) -> Vec<f32> {
    log.records.iter().map(|r| r.loss).collect()
}

fn check_slab(v: &mut Verdict, steady_misses: u64) {
    v.check(
        steady_misses == 0,
        format!("{steady_misses} slab misses after round 0"),
    );
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A finished run's trajectory and final global model.
struct Outcome {
    traj: Trajectory,
    global: Vec<f32>,
}

/// Checks that `run` equals `reference` bit for bit.
fn check_equal(v: &mut Verdict, reference: &Outcome, run: &Outcome, what: &str) {
    let diff = reference.traj.diff(&run.traj);
    v.check(
        diff.is_none(),
        format!(
            "{what}: trajectories equal bitwise{}",
            diff.map_or(String::new(), |d| format!(" ({d})"))
        ),
    );
    v.check(
        bits(&reference.global) == bits(&run.global),
        format!("{what}: final models equal bitwise"),
    );
}

// ---------------------------------------------------------------------------
// Set-ups
// ---------------------------------------------------------------------------

/// Builds the workload `SETUPS` times, returning the last set-up and its
/// runner, the set-up times and the data-generation part of each, in s.
fn fl_setups(o: &Opts, rounds: usize) -> (FlSetup, FlRunner, Vec<f64>, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        let setup = FlSetup::generate(o.workload, o.seed, rounds);
        gen_s.push(t0.elapsed().as_secs_f64());
        let runner = setup.build_runner();
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((setup, runner));
    }
    let (setup, runner) = last.expect("at least one set-up");
    (setup, runner, setup_s, gen_s)
}

/// As [`fl_setups`], for the population runner.
fn pop_setups(o: &Opts, rounds: usize) -> (PopulationRunner, Vec<f64>, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        let (gen, test) = pop_data();
        gen_s.push(t0.elapsed().as_secs_f64());
        last = Some(build_population(o.seed, rounds, gen, test));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), setup_s, gen_s)
}

/// `SETUPS` builds of what the server and its clients construct before
/// round 0: data, models, the APF manager. Returns the spec, the set-up
/// and the data-generation times in s.
fn net_setups(o: &Opts, rounds: usize) -> (RunSpec, Vec<f64>, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut spec = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let s = net_spec(o.seed, rounds);
        std::hint::black_box((s.train_set(), s.test_set()));
        gen_s.push(t0.elapsed().as_secs_f64());
        let init = s.init_params();
        let eval = s.eval_setup();
        let clients: Vec<_> = (0..s.clients).map(|i| s.make_client(i)).collect();
        let cfg = s.apf_config().expect("the net workload runs APF");
        let mgr = ApfManager::new(&init, cfg, Box::new(Aimd::default())).expect("valid config");
        std::hint::black_box((eval, clients, mgr));
        setup_s.push(t0.elapsed().as_secs_f64());
        spec = Some(s);
    }
    (spec.expect("at least one set-up"), setup_s, gen_s)
}

// ---------------------------------------------------------------------------
// Untraced runs: end-to-end metrics
// ---------------------------------------------------------------------------

/// End-to-end numbers of one untraced run.
struct E2e<'a> {
    setup_s: Vec<f64>,
    p50: f64,
    p90: f64,
    timed_s: f64,
    peak_mb: f64,
    log: Option<&'a ExperimentLog>,
}

fn e2e_metrics(o: &Opts, e: &E2e, v: &Verdict) -> Metrics {
    let last = e.log.and_then(|l| l.records.last());
    let done = e.log.map_or(0, |l| l.records.len());
    let mut m = Metrics::default();
    m.put("setup_s", median(&e.setup_s), "s");
    m.put("round_ms_p50", e.p50, "ms");
    m.put("round_ms_p90", e.p90, "ms");
    m.put(
        "total_mb",
        last.map_or(0, |r| r.cum_bytes) as f64 / 1e6,
        "MB",
    );
    m.put("peak_rss_mb", e.peak_mb, "MB");
    m.put(
        "round_ok_ratio",
        1.0 - v.failed as f64 / v.attempted.max(1) as f64,
        "ratio",
    );
    m.put(
        "samples_per_s",
        (done * o.workload.samples_per_round()) as f64 / e.timed_s,
        "1/s",
    );
    m.put(
        "final_accuracy",
        f64::from(last.map_or(0.0, |r| r.best_accuracy)),
        "ratio",
    );
    m
}

/// An in-process workload's untraced run.
fn untraced(o: &Opts, mut runner: impl Runner, setup_s: Vec<f64>) -> (Verdict, Metrics) {
    let rounds = o.workload.rounds(o.seconds);
    let (times, steady_misses) = timed_rounds(&mut runner, rounds);
    let peak_mb = peak_rss_mb();
    let mut v = Verdict::default();
    check_run(&mut v, rounds, &losses(runner.log()), runner.global());
    check_slab(&mut v, steady_misses);
    let e = E2e {
        setup_s,
        p50: median(&times),
        p90: quantile(&times, 0.9),
        timed_s: times.iter().sum::<f64>() / 1e3,
        peak_mb,
        log: Some(runner.log()),
    };
    let m = e2e_metrics(o, &e, &v);
    (v, m)
}

fn net_untraced(o: &Opts, rounds: usize) -> (Verdict, Metrics) {
    let (spec, setup_s, _) = net_setups(o, rounds);
    let run = net_run(&spec);
    let mut v = Verdict::default();
    check_net(&mut v, &spec, &run);
    let e = E2e {
        setup_s,
        p50: run.p50,
        p90: run.p90,
        timed_s: run.rounds_s,
        peak_mb: run.peak_mb,
        log: run.outcome.as_ref().ok().map(|o| &o.log),
    };
    let m = e2e_metrics(o, &e, &v);
    (v, m)
}

// ---------------------------------------------------------------------------
// The networked run
// ---------------------------------------------------------------------------

/// Geometric histogram bounds 0.1% apart from 50 µs to 60 s: the server's
/// own round timer (`net.server.round_us`) then resolves each round to
/// 0.1%.
fn fine_us_bounds() -> Vec<f64> {
    let mut b = vec![50.0f64];
    while b[b.len() - 1] < 60e6 {
        b.push(b[b.len() - 1] * 1.001);
    }
    b
}

/// What one networked run produced.
struct NetRun {
    outcome: Result<ServerOutcome, String>,
    client_errors: Vec<String>,
    /// Round latency p50/p90 in ms and the summed round time in s, from the
    /// server's round timer.
    p50: f64,
    p90: f64,
    rounds_s: f64,
    peak_mb: f64,
}

/// Serves `spec` in-process to `spec.clients` client threads over loopback
/// TCP and waits for all of them.
fn net_run(spec: &RunSpec) -> NetRun {
    // One thread per client and no pool workers: the clients are the busy
    // threads.
    apf_par::set_threads(1);
    // The server resolves this histogram by name and keeps the bounds of
    // its first registration: register it first, with fine buckets.
    apf_trace::metrics::reset();
    let hist = apf_trace::metrics::histogram("net.server.round_us", &fine_us_bounds());
    let opts = ServerOpts {
        addr: "127.0.0.1:0".to_owned(),
        spec: spec.clone(),
        join_timeout: Duration::from_secs(60),
        io_timeout: Duration::from_secs(60),
        obs: None,
    };
    let (outcome, client_errors) = match NetServer::bind(opts) {
        Err(e) => (Err(e.to_string()), Vec::new()),
        Ok(server) => {
            let addr = server.addr();
            std::thread::scope(|s| {
                let clients: Vec<_> = (0..spec.clients as u32)
                    .map(|id| s.spawn(move || run_client(&ClientOpts::new(addr, id))))
                    .collect();
                let outcome = server.serve().map_err(|e| e.to_string());
                let errors = clients
                    .into_iter()
                    .filter_map(|h| match h.join() {
                        Ok(Ok(_)) => None,
                        Ok(Err(e)) => Some(e.to_string()),
                        Err(_) => Some("client thread panicked".to_owned()),
                    })
                    .collect();
                (outcome, errors)
            })
        }
    };
    let peak_mb = peak_rss_mb();
    apf_par::set_threads(threads());
    NetRun {
        outcome,
        client_errors,
        p50: hist.quantile(0.5).unwrap_or(f64::NAN) / 1e3,
        p90: hist.quantile(0.9).unwrap_or(f64::NAN) / 1e3,
        rounds_s: hist.sum() / 1e6,
        peak_mb,
    }
}

/// Checks a networked run: every client finished, none was lost, and it
/// equals the in-process `FlRunner` on the same spec. Returns that
/// simulator's round times and outcome.
fn check_net(v: &mut Verdict, spec: &RunSpec, run: &NetRun) -> (Vec<f64>, Outcome) {
    let rounds = spec.rounds;
    v.check(
        run.client_errors.is_empty(),
        format!("all clients finished ({:?})", run.client_errors),
    );
    let mut sim = spec.build_runner();
    let (sim_times, _) = timed_rounds(&mut sim, rounds);
    let reference = Outcome {
        traj: Trajectory::from_log(sim.log()),
        global: sim.global().to_vec(),
    };
    match &run.outcome {
        Ok(o) => {
            check_run(v, rounds, &losses(&o.log), &o.global);
            let lost = o.lost_clients.len() as u64;
            v.check(lost == 0, format!("{lost} clients lost"));
            v.failed = (v.failed + lost).min(v.attempted);
            let net = Outcome {
                traj: Trajectory::from_log(&o.log),
                global: o.global.clone(),
            };
            check_equal(v, &reference, &net, "networked run vs in-process FlRunner");
        }
        Err(e) => {
            v.check(false, format!("server run: {e}"));
            v.attempted = rounds as u64;
            v.failed = rounds as u64;
        }
    }
    (sim_times, reference)
}

// ---------------------------------------------------------------------------
// Traced runs: per-layer metrics
// ---------------------------------------------------------------------------

/// The per-layer metrics no layer of this workload produces read 0.
fn absent(m: &mut Metrics, names: &[(&str, &str)]) {
    for (name, unit) in names {
        m.put(name, 0.0, unit);
    }
}

fn harness_aimd() -> Aimd {
    Aimd {
        increment: 2,
        decrease_factor: 2,
    }
}

/// `ApfManager::finish_round` on fresh copies of `mgr` fed `params`, per
/// call (a check round and the round after it).
fn finish_round_ms(mgr: &ApfManager, params: &[f32], round: u64, controller: fn() -> Aimd) -> f64 {
    let state = mgr.snapshot();
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let mut copy = ApfManager::restore(state.clone(), Box::new(controller()));
            let t0 = Instant::now();
            copy.finish_round(params, round);
            copy.finish_round(params, round + 1);
            ms_since(t0) / 2.0
        })
        .collect();
    median(&samples)
}

/// Drives `fleet` through its traced rounds, checks it against
/// `reference` (the untraced runner), and records the live per-layer
/// metrics. Returns the live freeze mask of the round after the last
/// (all unfrozen for FedAvg).
fn fleet_traced(
    m: &mut Metrics,
    v: &mut Verdict,
    fleet: &mut Fleet,
    rounds: usize,
    reference: (&[f64], &Outcome),
    controller: fn() -> Aimd,
) -> FreezeMask {
    let mut traj = Trajectory::default();
    let mut times = Vec::with_capacity(rounds);
    let (mut scratch0, mut slab0) = (0, 0);

    for r in 0..rounds as u64 {
        if r == 2 {
            scratch0 = scratch::global_stats().1;
            slab0 = slab::global_stats().1;
        }
        let Ok((rec, t)) = catch_unwind(AssertUnwindSafe(|| fleet.run_round(r))) else {
            break;
        };
        traj.rounds.push(rec);
        times.push(t);
    }
    let traced_losses: Vec<f32> = traj
        .rounds
        .iter()
        .map(|r| f32::from_bits(r.loss_bits))
        .collect();
    check_run(v, rounds, &traced_losses, &fleet.global);
    let traced = Outcome {
        traj,
        global: fleet.global.clone(),
    };
    check_equal(v, reference.1, &traced, "traced round vs untraced FlRunner");

    let col = |f: &dyn Fn(&RoundTimes) -> f64| times.iter().map(f).collect::<Vec<f64>>();
    let client_sum = |t: &RoundTimes| t.clients.iter().map(|c| c.total).sum::<f64>();
    let client_max = |t: &RoundTimes| t.clients.iter().map(|c| c.total).fold(0.0, f64::max);
    let unattributed =
        |t: &RoundTimes| t.round - t.local - t.gather_scatter - t.sync - t.eval.unwrap_or(0.0);
    let client_times = || times.iter().flat_map(|t| &t.clients);
    let steps: usize = client_times().map(|c| c.steps).sum();
    let rollback: f64 = client_times().map(|c| c.rollback).sum();
    let frozen: Vec<f64> = traced
        .traj
        .rounds
        .iter()
        .map(|r| f64::from(f32::from_bits(r.frozen_bits)))
        .collect();
    let th = threads() as f64;
    m.put("fedsim.local_train_ms", median(&col(&|t| t.local)), "ms");
    m.put("fedsim.sync_ms", median(&col(&|t| t.sync)), "ms");
    let evals: Vec<f64> = times.iter().filter_map(|t| t.eval).collect();
    m.put("fedsim.eval_ms", median(&evals), "ms");
    m.put(
        "fedsim.pop_overhead_ms",
        median(&col(&|t| t.round - t.local)),
        "ms",
    );
    m.put("fedsim.unattributed_ms", median(&col(&unattributed)), "ms");
    m.put(
        "par.busy_share",
        median(&col(&|t| client_sum(t) / (t.local * th))),
        "ratio",
    );
    m.put(
        "par.client_skew",
        median(&col(&|t| {
            client_max(t) / (client_sum(t) / t.clients.len() as f64)
        })),
        "ratio",
    );
    m.put("core.rollback_ms", rollback / steps.max(1) as f64, "ms");
    m.put("core.frozen_ratio", mean(&frozen), "ratio");
    let apf = match &fleet.strategy {
        Strategy::Apf(s) => s.managers().first(),
        Strategy::Fedavg(_) => None,
    };
    let finish = apf.map_or(0.0, |mgr| {
        finish_round_ms(mgr, &fleet.global, rounds as u64, controller)
    });
    m.put("core.finish_round_ms", finish, "ms");
    m.put(
        "tensor.scratch_misses_steady",
        (scratch::global_stats().1 - scratch0) as f64,
        "count",
    );
    m.put(
        "tensor.slab_misses_steady",
        (slab::global_stats().1 - slab0) as f64,
        "count",
    );
    m.put(
        "tensor.slab_resident_mb",
        slab::global_stats().3 as f64 / 1e6,
        "MB",
    );
    print_fleet_coverage(&times);
    report_overhead(
        m,
        median(&col(&|t| t.round)),
        median(reference.0),
        median(&col(&unattributed)),
    );
    apf.map_or_else(
        || FreezeMask::all_unfrozen(fleet.global.len()),
        |mgr| mgr.frozen_mask_packed(rounds as u64),
    )
}

/// Each layer's self time as a share of the traced rounds' total. In the
/// local phase, client layers count their summed self time divided by the
/// pool's threads; the rest of that phase is idle threads.
fn print_fleet_coverage(times: &[RoundTimes]) {
    let total: f64 = times.iter().map(|t| t.round).sum();
    let sum = |f: &dyn Fn(&RoundTimes) -> f64| times.iter().map(f).sum::<f64>();
    let th = threads() as f64;
    let client_part =
        |f: &dyn Fn(&ClientTimes) -> f64| sum(&|t| t.clients.iter().map(f).sum()) / th;
    let train = client_part(&|c| c.train_batch);
    let flat = client_part(&|c| c.flat_copy);
    let rollback = client_part(&|c| c.rollback);
    let batching = client_part(&|c| c.batching);
    let clients = client_part(&|c| c.total);
    let rows = [
        ("nn.train_batch (in local_train)", train),
        ("nn.flat_copy (in local_train)", flat),
        ("core.rollback (in local_train)", rollback),
        ("data.batching (in local_train)", batching),
        (
            "client loop (rest of local round)",
            clients - train - flat - rollback - batching,
        ),
        (
            "fedsim.local_train idle threads",
            sum(&|t| t.local) - clients,
        ),
        ("fedsim.gather_scatter", sum(&|t| t.gather_scatter)),
        ("fedsim.sync", sum(&|t| t.sync)),
        ("fedsim.eval", sum(&|t| t.eval.unwrap_or(0.0))),
    ];
    print_coverage(&format!("{} traced rounds", times.len()), total, &rows);
}

fn print_coverage(title: &str, total_ms: f64, rows: &[(&str, f64)]) {
    println!("coverage of {title} ({total_ms:.1} ms), self time per layer:");
    let mut covered = 0.0;
    for (name, ms) in rows {
        covered += ms;
        println!("  {name:<40} {:>6.2}%", 100.0 * ms / total_ms);
    }
    println!(
        "  {:<40} {:>6.2}%",
        "unattributed",
        100.0 * (total_ms - covered) / total_ms
    );
}

fn report_overhead(m: &mut Metrics, traced_p50: f64, untraced_p50: f64, unattributed: f64) {
    let ratio = traced_p50 / untraced_p50;
    m.put("trace.overhead_ratio", ratio, "ratio");
    println!("fedsim.unattributed_ms = {unattributed:.4}");
    println!(
        "trace.overhead_ratio = {ratio:.4} (traced round p50 {traced_p50:.3} ms / untraced {untraced_p50:.3} ms)"
    );
}

fn fl_traced(o: &Opts, rounds: usize) -> (Verdict, Metrics) {
    let (setup, mut runner, _, gen_s) = fl_setups(o, rounds);
    let (ref_times, _) = timed_rounds(&mut runner, rounds);
    let reference = Outcome {
        traj: Trajectory::from_log(runner.log()),
        global: runner.global().to_vec(),
    };
    drop(runner);
    let mut fleet = Fleet::from_setup(&setup);
    let mut v = Verdict::default();
    let mut m = Metrics::default();
    let controller = if setup.apf {
        harness_aimd
    } else {
        Aimd::default
    };
    let live_mask = fleet_traced(
        &mut m,
        &mut v,
        &mut fleet,
        rounds,
        (&ref_times, &reference),
        controller,
    );
    m.put("data.gen_s", median(&gen_s), "s");
    absent(
        &mut m,
        &[
            ("net.tax_ratio", "ratio"),
            ("net.wire_bytes_per_round", "B"),
        ],
    );
    probes::run_all(
        &mut m,
        &Live {
            model_mask: live_mask,
            net_mask: None,
        },
    );
    (v, m)
}

fn net_traced(o: &Opts, rounds: usize) -> (Verdict, Metrics) {
    let (spec, _, gen_s) = net_setups(o, rounds);
    let run = net_run(&spec);
    let mut v = Verdict::default();
    let (sim_times, reference) = check_net(&mut v, &spec, &run);
    let mut fleet = Fleet::from_spec(&spec);
    let mut m = Metrics::default();
    let live_mask = fleet_traced(
        &mut m,
        &mut v,
        &mut fleet,
        rounds,
        (&sim_times, &reference),
        Aimd::default,
    );
    let sim_p50 = median(&sim_times);
    println!(
        "net round p50 {:.3} ms against in-process FlRunner p50 {sim_p50:.3} ms on the same spec",
        run.p50
    );
    let (wire, done) = run
        .outcome
        .as_ref()
        .map_or((0, 0), |o| (o.wire_bytes, o.log.records.len()));
    m.put("data.gen_s", median(&gen_s), "s");
    m.put("net.tax_ratio", run.p50 / sim_p50, "ratio");
    m.put(
        "net.wire_bytes_per_round",
        wire as f64 / done.max(1) as f64,
        "B",
    );
    // The last round's push mask: what the last Push frame carried.
    let net_mask = match &fleet.strategy {
        Strategy::Apf(s) => s.managers()[0].frozen_mask_packed(rounds as u64 - 1),
        Strategy::Fedavg(_) => unreachable!("the net workload runs APF"),
    };
    probes::run_all(
        &mut m,
        &Live {
            model_mask: live_mask,
            net_mask: Some(net_mask),
        },
    );
    (v, m)
}

fn pop_traced(o: &Opts, rounds: usize) -> (Verdict, Metrics) {
    let (mut first, _, gen_s) = pop_setups(o, rounds);
    let (ref_times, _) = timed_rounds(&mut first, rounds);
    let reference = Outcome {
        traj: Trajectory::from_log(first.log()),
        global: first.global().to_vec(),
    };
    drop(first);

    let (gen, test) = pop_data();
    let eval_test = test.clone();
    let mut runner = build_population(o.seed, rounds, gen, test);
    let (times, steady_misses) = timed_rounds(&mut runner, rounds);
    let mut v = Verdict::default();
    check_run(&mut v, rounds, &losses(runner.log()), runner.global());
    check_slab(&mut v, steady_misses);
    let second = Outcome {
        traj: Trajectory::from_log(runner.log()),
        global: runner.global().to_vec(),
    };
    check_equal(
        &mut v,
        &reference,
        &second,
        "second population run vs first",
    );

    let log = runner.log();
    let compute: Vec<f64> = log.records.iter().map(|r| r.compute_secs * 1e3).collect();
    let overhead: Vec<f64> = times.iter().zip(&compute).map(|(t, c)| t - c).collect();
    // The runner's eval rounds evaluate the live global model on the
    // held-out set; time that call on the final global model.
    let mut eval_model = apf_nn::models::mlp("pop-mlp", &[768, POP_HIDDEN, 10], 0);
    eval_model.load_flat(runner.global());
    let eval_ms = time_median_ms(15, || {
        apf_nn::evaluate(&mut eval_model, eval_test.inputs(), eval_test.labels(), 64);
    });
    let (mgr, mut params, _) = probes::pop_manager(8);
    let finish = finish_round_ms(&mgr, &params, 8, Aimd::default);
    let rollback = time_median_ms(31, || mgr.rollback(&mut params, 8));
    let frozen: Vec<f64> = log
        .records
        .iter()
        .map(|r| f64::from(r.frozen_ratio))
        .collect();
    let mut m = Metrics::default();
    m.put("fedsim.local_train_ms", median(&compute), "ms");
    m.put("fedsim.eval_ms", eval_ms, "ms");
    m.put("fedsim.pop_overhead_ms", median(&overhead), "ms");
    m.put("core.rollback_ms", rollback, "ms");
    m.put("core.finish_round_ms", finish, "ms");
    m.put("core.frozen_ratio", mean(&frozen), "ratio");
    m.put("tensor.scratch_misses_steady", 0.0, "count");
    m.put("tensor.slab_misses_steady", steady_misses as f64, "count");
    m.put(
        "tensor.slab_resident_mb",
        slab::global_stats().3 as f64 / 1e6,
        "MB",
    );
    m.put("data.gen_s", median(&gen_s), "s");
    absent(
        &mut m,
        &[
            ("fedsim.sync_ms", "ms"),
            ("par.busy_share", "ratio"),
            ("par.client_skew", "ratio"),
            ("net.tax_ratio", "ratio"),
            ("net.wire_bytes_per_round", "B"),
        ],
    );
    let mut probe_m = Metrics::default();
    probes::run_all(
        &mut probe_m,
        &Live {
            model_mask: mgr.frozen_mask_packed(8),
            net_mask: None,
        },
    );
    // The population round is opaque: attribute it from `compute_secs` and
    // the probes times their per-round counts (per client × cohort, the
    // manager's hop once, eval amortized over the eval cadence).
    let probe = |name: &str| {
        probe_m
            .0
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |x| x.1)
    };
    let per_round = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let evals = log.records.iter().filter(|r| r.accuracy.is_some()).count() as f64;
    let mean_round = per_round(&times);
    let cohort = POP_COHORT as f64;
    let rows = [
        ("fedsim.local_train (compute_secs)", per_round(&compute)),
        (
            "data.shard_gen (probe x cohort)",
            probe("data.shard_gen_ms") * cohort,
        ),
        (
            "tensor.masked_axpy (probe x cohort)",
            probe("tensor.masked_axpy_ms") * cohort,
        ),
        ("core.finish_round (probe)", finish),
        (
            "quant.dormant hop (probe)",
            (probe("quant.dormant_encode_us") + probe("quant.dormant_decode_us")) / 1e3,
        ),
        (
            "fedsim.eval (probe, amortized)",
            eval_ms * evals / times.len().max(1) as f64,
        ),
    ];
    let unattributed = mean_round - rows.iter().map(|r| r.1).sum::<f64>();
    m.put("fedsim.unattributed_ms", unattributed, "ms");
    print_coverage("the mean traced round", mean_round, &rows);
    println!("  (unattributed here: sampling, materialize/suspend, slab churn, per-client codec)");
    report_overhead(&mut m, median(&times), median(&ref_times), unattributed);
    m.0.extend(probe_m.0);
    (v, m)
}
