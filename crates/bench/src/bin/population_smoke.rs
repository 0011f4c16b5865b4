//! `population-smoke`: the CI gate for the sampled-participation
//! population simulator (verify.sh runs it).
//!
//! One configuration — 100k registered clients, 256 sampled per round —
//! run at 4, 2 and 1 threads and checked three ways:
//!
//! 1. **Zero-alloc steady state**: in every run, after the warm-up round
//!    fills the slab size classes, further rounds must not miss in the slab
//!    store at all, no matter which clients the cohort samples or how the
//!    pool schedules them.
//! 2. **Sampling determinism**: the reruns at the other thread counts must
//!    produce a bitwise-identical global model and an identical encoded
//!    trajectory (cohorts are drawn from `(seed, round)`, never from
//!    wall-clock or thread state).
//! 3. **Dormant-state compactness**: the registry must hold only clients
//!    that actually participated, at a few dozen bytes each — never the
//!    registered population.
//!
//! Exits 0 when all gates hold, 1 otherwise (with a message per failure).

use std::process::ExitCode;

use apf::ApfConfig;
use apf_data::{Dataset, SynthImageGen};
use apf_fedsim::{
    FlConfig, OptimizerKind, PopulationConfig, PopulationData, PopulationRunner, Trajectory,
};
use apf_nn::{models, LrSchedule};
use apf_quant::EmaCodec;
use apf_tensor::{slab, Tensor};

const REGISTERED: usize = 100_000;
const COHORT: usize = 256;
const ROUNDS: u64 = 4;

fn build_runner() -> PopulationRunner {
    let gen = SynthImageGen::new(11);
    let row = gen.sample_numel();
    let mut test_data = Vec::new();
    let mut test_labels = Vec::new();
    gen.fill_split(128, 1, &mut test_data, &mut test_labels);
    let test = Dataset::new(
        Tensor::from_vec(test_data, &[128, row]),
        test_labels,
        apf_data::NUM_CLASSES,
    );
    let cfg = PopulationConfig {
        fl: FlConfig {
            local_iters: 2,
            rounds: ROUNDS as usize,
            batch_size: 4,
            eval_every: 2,
            eval_batch: 64,
            seed: 11,
            prox_mu: None,
            drop_stragglers: false,
            participation: 1.0,
            parallel: true,
        },
        registered: REGISTERED,
        cohort: COHORT,
        codec: EmaCodec::Dense,
        shells: 32,
        apf: ApfConfig::default(),
        wire_f16: false,
        // Momentum makes the optimizer export non-empty, so the dormant
        // blob codec round-trips real state, not just RNG + counters.
        optimizer: OptimizerKind::Sgd {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        },
        schedule: LrSchedule::Constant(0.05),
    };
    PopulationRunner::new(
        cfg,
        move |seed| models::mlp("smoke-mlp", &[row, 16, 10], seed),
        PopulationData::Synth { gen, per_client: 8 },
        test,
    )
}

/// Runs all rounds, returning the trajectory, the global model, and the
/// slab misses incurred after the warm-up round.
fn run(threads: usize) -> (Trajectory, Vec<f32>, u64, usize) {
    apf_par::set_threads(threads);
    slab::clear();
    let mut runner = build_runner();
    runner.run_round(0);
    let (_, misses_warm, _, _) = slab::global_stats();
    for r in 1..ROUNDS {
        runner.run_round(r);
    }
    let (_, misses_after, _, _) = slab::global_stats();
    (
        Trajectory::from_log(runner.log()),
        runner.global().to_vec(),
        misses_after - misses_warm,
        runner.registry().len(),
    )
}

fn main() -> ExitCode {
    println!("population-smoke: {REGISTERED} registered, {COHORT} sampled, {ROUNDS} rounds");
    let (traj_a, global_a, misses_a, registry_a) = run(4);
    let mut failures = 0u32;
    if misses_a != 0 {
        println!("FAIL: {misses_a} slab misses after the warm-up round at 4 threads (want 0)");
        failures += 1;
    } else {
        println!("ok: zero steady-state slab misses at 4 threads");
    }

    let bits = |g: &[f32]| g.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for threads in [2, 1] {
        let (traj_b, global_b, misses_b, _) = run(threads);
        if misses_b != 0 {
            println!(
                "FAIL: {misses_b} slab misses after the warm-up round at {threads} threads (want 0)"
            );
            failures += 1;
        } else {
            println!("ok: zero steady-state slab misses at {threads} threads");
        }
        if let Some(divergence) = traj_a.diff(&traj_b) {
            println!("FAIL: rerun at {threads} threads diverged: {divergence}");
            failures += 1;
        } else {
            println!("ok: trajectory at {threads} threads identical to the 4-thread run");
        }
        if bits(&global_a) != bits(&global_b) {
            println!("FAIL: global model bits at {threads} threads diverged from the 4-thread run");
            failures += 1;
        } else {
            println!("ok: global model at {threads} threads bitwise identical to the 4-thread run");
        }
    }

    // Every participant must be registered as dormant state, and dormant
    // state must stay tiny relative to the registered population.
    let max_participants = (ROUNDS as usize) * COHORT;
    if registry_a == 0 || registry_a > max_participants {
        println!("FAIL: registry holds {registry_a} clients (want 1..={max_participants})");
        failures += 1;
    } else {
        println!("ok: registry holds {registry_a} participants of {REGISTERED} registered");
    }

    println!("{}", traj_a.encode());
    if failures == 0 {
        println!("population-smoke: all gates passed");
        ExitCode::SUCCESS
    } else {
        println!("population-smoke: {failures} gate(s) FAILED");
        ExitCode::FAILURE
    }
}
