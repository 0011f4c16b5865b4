//! Population-runner steady state under every schedule: a sampled cohort
//! on private synthetic shards, the f16 dormant codec, and a cohort that
//! does not fill the last shell block. Whatever the thread count and
//! however the pool interleaves the per-client phases, every run must
//! miss the slab store zero times after round 0 and land on the same
//! trajectory and final global model, bit for bit.
//!
//! The slab counters are process-global, so this file is its own test
//! binary with a single test: no other test can allocate from the store
//! while it measures.

use apf::ApfConfig;
use apf_data::{Dataset, SynthImageGen};
use apf_fedsim::{
    FlConfig, OptimizerKind, PopulationConfig, PopulationData, PopulationRunner, Trajectory,
};
use apf_nn::{models, LrSchedule};
use apf_quant::EmaCodec;
use apf_tensor::{slab, Tensor};

const ROUNDS: u64 = 4;
const COHORT: usize = 10;
const SHELLS: usize = 4;

fn build_runner() -> PopulationRunner {
    let gen = SynthImageGen::new(3);
    let row = gen.sample_numel();
    let (mut data, mut labels) = (Vec::new(), Vec::new());
    gen.fill_split(32, 1, &mut data, &mut labels);
    let test = Dataset::new(
        Tensor::from_vec(data, &[32, row]),
        labels,
        apf_data::NUM_CLASSES,
    );
    let cfg = PopulationConfig {
        fl: FlConfig {
            local_iters: 2,
            rounds: ROUNDS as usize,
            batch_size: 4,
            eval_every: 2,
            eval_batch: 32,
            seed: 3,
            parallel: true,
            ..FlConfig::default()
        },
        registered: 1000,
        cohort: COHORT,
        codec: EmaCodec::F16,
        shells: SHELLS,
        apf: ApfConfig {
            check_every_rounds: 1,
            seed: 3,
            ..ApfConfig::default()
        },
        wire_f16: false,
        // Momentum gives the dormant blob real optimizer state to encode.
        optimizer: OptimizerKind::Sgd {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        },
        schedule: LrSchedule::Constant(0.05),
    };
    PopulationRunner::new(
        cfg,
        move |seed| models::mlp("m", &[row, 8, 10], seed),
        PopulationData::Synth { gen, per_client: 8 },
        test,
    )
}

/// One full run: its trajectory, final global bits, and the slab misses
/// after round 0.
fn run(threads: usize) -> (Trajectory, Vec<u32>, u64) {
    apf_par::with_threads(threads, || {
        let mut runner = build_runner();
        runner.run_round(0);
        let (_, warm, _, _) = slab::global_stats();
        for r in 1..ROUNDS {
            runner.run_round(r);
        }
        let (_, after, _, _) = slab::global_stats();
        let bits = runner.global().iter().map(|x| x.to_bits()).collect();
        (Trajectory::from_log(runner.log()), bits, after - warm)
    })
}

#[test]
fn zero_steady_misses_and_bitwise_runs_at_any_thread_count() {
    assert_ne!(COHORT % SHELLS, 0, "the last block must be partial");
    let (traj, global, misses) = run(1);
    assert_eq!(misses, 0, "slab misses after round 0 at 1 thread");
    for t in [1usize, 2, 7] {
        for rep in 0..3 {
            let (traj_t, global_t, misses_t) = run(t);
            assert_eq!(
                misses_t, 0,
                "slab misses after round 0 ({t} threads, rep {rep})"
            );
            assert_eq!(traj_t, traj, "trajectory diverged ({t} threads, rep {rep})");
            assert!(
                global_t == global,
                "global bits diverged ({t} threads, rep {rep})"
            );
        }
    }
}
