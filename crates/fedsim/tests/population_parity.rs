//! Population-runner parity: at full participation (`cohort = 0`) with the
//! dense dormant codec, [`apf_fedsim::PopulationRunner`] must be **bitwise
//! identical** to the classic [`apf_fedsim::FlRunner`] on the golden
//! fixture — same metric trajectory, same final global model — at any
//! thread count, with or without the f16 wire path. This pins the whole suspend/resume chain: dormant
//! client blobs (RNG + step counter + optimizer state), shell recycling,
//! the single shared §6.2 manager, and its per-round dormant encode/decode
//! hop all have to be lossless for this to hold.

use apf_fedsim::{RunSpec, SpecStrategy, Trajectory};
use apf_testkit::golden::{run_recorded, GoldenOutcome};

/// Per-round cumulative bytes and simulated link seconds: the accounting
/// both runners keep through the shared round book. (`cum_secs` also adds
/// measured compute time, so it is not comparable across runs.)
fn accounting(out: &GoldenOutcome) -> Vec<(u64, u64)> {
    out.log
        .records
        .iter()
        .map(|r| (r.cum_bytes, r.comm_secs.to_bits()))
        .collect()
}

fn population_outcome(spec: &RunSpec) -> GoldenOutcome {
    let mut runner = spec.build_population_runner();
    runner.run();
    GoldenOutcome {
        log: runner.log().clone(),
        global: runner.global().to_vec(),
    }
}

#[test]
fn full_participation_dense_matches_classic_goldens_bitwise() {
    let spec = RunSpec::golden();
    assert_eq!(spec.cohort, 0, "golden fixture means full participation");
    let classic = apf_par::with_threads(1, || run_recorded(&spec));
    for t in [1usize, 2, 7] {
        let pop = apf_par::with_threads(t, || population_outcome(&spec));
        assert_eq!(
            classic.global_bits(),
            pop.global_bits(),
            "population global model diverged from FlRunner at {t} threads"
        );
        assert_eq!(
            classic.trajectory(),
            pop.trajectory(),
            "population trajectory diverged from FlRunner at {t} threads"
        );
        assert_eq!(
            accounting(&classic),
            accounting(&pop),
            "population accounting diverged from FlRunner at {t} threads"
        );
    }
}

#[test]
fn small_shell_pool_is_invisible() {
    // Forcing multiple blocks per round (2 shells for 3 clients) exercises
    // shell re-binding *within* a round; the trajectory must not move.
    use apf_fedsim::{PopulationConfig, PopulationData, PopulationRunner};
    use apf_nn::{models, LrSchedule};

    let spec = RunSpec::golden();
    let classic = run_recorded(&spec);
    let hidden = spec.hidden;
    let train = spec.train_set();
    let parts = spec.partition_indices(&train);
    let cfg = PopulationConfig {
        fl: spec.fl_config(),
        registered: spec.clients,
        cohort: 0,
        codec: apf_quant::EmaCodec::Dense,
        shells: 2,
        apf: spec.apf_config().expect("golden uses APF"),
        wire_f16: false,
        optimizer: apf_fedsim::OptimizerKind::Sgd {
            lr: spec.lr,
            momentum: spec.momentum,
            weight_decay: spec.weight_decay,
        },
        schedule: LrSchedule::Constant(spec.lr),
    };
    let mut runner = PopulationRunner::new(
        cfg,
        move |seed| models::mlp("m", &[3 * 16 * 16, hidden, 10], seed),
        PopulationData::Shared { train, parts },
        spec.test_set(),
    );
    runner.run();
    let pop = GoldenOutcome {
        log: runner.log().clone(),
        global: runner.global().to_vec(),
    };
    assert_eq!(classic.global_bits(), pop.global_bits());
    assert_eq!(classic.trajectory(), pop.trajectory());
    assert_eq!(accounting(&classic), accounting(&pop));
}

#[test]
fn sampled_cohort_is_deterministic_across_reruns_and_threads() {
    // With real subsampling the run no longer matches FlRunner (different
    // algorithm), but it must still be self-deterministic: rerun-identical
    // and thread-count-invariant.
    let spec = RunSpec {
        clients: 12,
        cohort: 4,
        rounds: 5,
        ..RunSpec::golden()
    };
    let a = apf_par::with_threads(1, || population_outcome(&spec));
    let b = apf_par::with_threads(1, || population_outcome(&spec));
    // Wall-clock fields are not deterministic; the trajectory (loss /
    // frozen / accuracy bits, byte counts) and the model bits are.
    assert_eq!(a.global_bits(), b.global_bits(), "rerun diverged");
    assert_eq!(a.trajectory(), b.trajectory(), "rerun diverged");
    let c = apf_par::with_threads(7, || population_outcome(&spec));
    assert_eq!(a.global_bits(), c.global_bits(), "threads changed the run");
    assert_eq!(a.trajectory(), c.trajectory());
    // Subsampling must actually engage: fewer bytes than full participation
    // would move (4 of 12 clients upload).
    let full = population_outcome(&RunSpec {
        clients: 12,
        rounds: 5,
        ..RunSpec::golden()
    });
    let sampled_up: u64 = a.log.records.iter().map(|r| r.bytes_up).sum();
    let full_up: u64 = full.log.records.iter().map(|r| r.bytes_up).sum();
    assert!(
        sampled_up * 2 < full_up,
        "sampled {sampled_up} vs full {full_up}: cohort not engaged"
    );
}

#[test]
fn trajectory_encoding_roundtrips_population_runs() {
    // The trajectory text format (what verify.sh's smoke stage diffs) must
    // capture population runs losslessly.
    let spec = RunSpec {
        clients: 8,
        cohort: 3,
        rounds: 3,
        ..RunSpec::golden()
    };
    let out = population_outcome(&spec);
    let t = out.trajectory();
    let decoded = Trajectory::decode(&t.encode()).expect("self-encoded trajectory");
    assert_eq!(t, decoded);
}

#[test]
fn f16_wire_full_participation_matches_classic_bitwise() {
    // The population runner's fp16 wire path (§7.7): unfrozen parameters
    // are rounded through f16 before the reduce and the aggregate once
    // after it. At full participation it must still be FlRunner, bit for
    // bit, at any thread count.
    let spec = RunSpec {
        rounds: 8,
        strategy: SpecStrategy::Apf {
            check_every: 1,
            threshold: 0.1,
            ema_alpha: 0.9,
            f16: true,
        },
        ..RunSpec::golden()
    };
    let classic = apf_par::with_threads(1, || run_recorded(&spec));
    assert!(
        classic.log.records.iter().any(|r| r.frozen_ratio > 0.0),
        "fixture must freeze something, or the masked f16 path is untested"
    );
    for t in [1usize, 2, 7] {
        let pop = apf_par::with_threads(t, || population_outcome(&spec));
        assert_eq!(
            classic.global_bits(),
            pop.global_bits(),
            "f16 population global model diverged from FlRunner at {t} threads"
        );
        assert_eq!(
            classic.trajectory(),
            pop.trajectory(),
            "f16 population trajectory diverged from FlRunner at {t} threads"
        );
        assert_eq!(
            accounting(&classic),
            accounting(&pop),
            "f16 population accounting diverged from FlRunner at {t} threads"
        );
    }
}
