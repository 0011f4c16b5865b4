//! Integration test: short `FlRunner` and `PopulationRunner` runs emit the
//! documented span trees, and every JSONL line round-trips through the
//! in-tree JSON parser.
//!
//! This file is its own test binary, so the process-global trace state it
//! installs cannot leak into other tests.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use apf::ApfConfig;
use apf_data::{iid_partition, synth_images_split, Dataset, SynthImageGen};
use apf_fedsim::json::{self, Value};
use apf_fedsim::{
    ApfStrategy, FlConfig, FlRunner, OptimizerKind, PopulationConfig, PopulationData,
    PopulationRunner,
};
use apf_nn::{models, LrSchedule};
use apf_quant::EmaCodec;
use apf_tensor::Tensor;
use apf_trace::{Level, MemorySink};

const ROUNDS: usize = 3;

fn flat_images(n: usize, split: u64) -> Dataset {
    let ds = synth_images_split(n, 1, split);
    Dataset::new(
        ds.inputs().reshape(&[ds.len(), 3 * 16 * 16]),
        ds.labels().to_vec(),
        10,
    )
}

fn mlp(seed: u64) -> apf_nn::Sequential {
    models::mlp("m", &[3 * 16 * 16, 12, 10], seed)
}

/// Captures, once per process, two traces at Debug level: a 3-round
/// `FlRunner` APF run, then a population run. Each gets its own in-memory
/// sink, installed in turn, so neither trace sees the other's records.
/// Shared across the tests in this binary because the trace sink and
/// metrics registry are process-global.
fn captures() -> &'static (Vec<String>, Vec<String>) {
    static LINES: OnceLock<(Vec<String>, Vec<String>)> = OnceLock::new();
    LINES.get_or_init(|| (capture(fl_run), capture(population_run)))
}

/// The captured `FlRunner` trace lines.
fn traced_run() -> &'static [String] {
    &captures().0
}

/// The captured population trace lines.
fn traced_population_run() -> &'static [String] {
    &captures().1
}

fn capture(run: fn()) -> Vec<String> {
    let sink = Arc::new(MemorySink::new());
    apf_trace::init(Level::Debug, sink.clone());
    run();
    apf_trace::shutdown();
    sink.lines()
}

fn fl_run() {
    let train = flat_images(96, 0);
    let test = flat_images(48, 1);
    let parts = iid_partition(train.len(), 3, 7);
    let strategy = ApfStrategy::new(ApfConfig {
        check_every_rounds: 1,
        stability_threshold: 0.1,
        ema_alpha: 0.9,
        seed: 7,
        ..ApfConfig::default()
    })
    .unwrap();
    let mut runner = FlRunner::builder(
        mlp,
        FlConfig {
            local_iters: 2,
            rounds: ROUNDS,
            batch_size: 16,
            eval_every: 1,
            seed: 7,
            parallel: false,
            ..FlConfig::default()
        },
    )
    .optimizer(OptimizerKind::Sgd {
        lr: 0.05,
        momentum: 0.0,
        weight_decay: 0.0,
    })
    .clients_from_partition(&train, &parts)
    .test_set(test)
    .strategy(Box::new(strategy))
    .build();
    runner.run();
}

/// Population rounds: 5 of 50 registered clients per round through 2
/// shells, so every round streams 3 blocks.
const POP_BLOCKS: usize = 3;

fn population_run() {
    let gen = SynthImageGen::new(7);
    let row = gen.sample_numel();
    let (mut data, mut labels) = (Vec::new(), Vec::new());
    gen.fill_split(16, 1, &mut data, &mut labels);
    let test = Dataset::new(Tensor::from_vec(data, &[16, row]), labels, 10);
    let cfg = PopulationConfig {
        fl: FlConfig {
            local_iters: 2,
            rounds: ROUNDS,
            batch_size: 4,
            eval_every: 1,
            seed: 7,
            ..FlConfig::default()
        },
        registered: 50,
        cohort: 5,
        codec: EmaCodec::Dense,
        shells: 2,
        apf: ApfConfig::default(),
        wire_f16: false,
        optimizer: OptimizerKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
            weight_decay: 0.0,
        },
        schedule: LrSchedule::Constant(0.05),
    };
    PopulationRunner::new(
        cfg,
        move |seed| models::mlp("m", &[row, 12, 10], seed),
        PopulationData::Synth { gen, per_client: 8 },
        test,
    )
    .run();
}

/// Every line must parse as a JSON object with the documented envelope.
fn parse_all(lines: &[String]) -> Vec<Value> {
    lines
        .iter()
        .map(|l| {
            let v = json::parse(l).unwrap_or_else(|e| panic!("unparsable JSONL line {l:?}: {e:?}"));
            let t = v.get("t").and_then(Value::as_str).expect("missing t");
            assert!(t == "event" || t == "span", "unknown record type {t}");
            for key in ["ts_us", "lvl", "target"] {
                assert!(v.get(key).is_some(), "line missing {key:?}: {l}");
            }
            if t == "span" {
                for key in ["name", "id", "parent", "start_us", "dur_us"] {
                    assert!(v.get(key).is_some(), "span missing {key:?}: {l}");
                }
            } else {
                for key in ["msg", "span"] {
                    assert!(v.get(key).is_some(), "event missing {key:?}: {l}");
                }
            }
            v
        })
        .collect()
}

fn spans<'a>(records: &'a [Value], target: &str, name: &str) -> Vec<&'a Value> {
    records
        .iter()
        .filter(|v| {
            v.get("t").and_then(Value::as_str) == Some("span")
                && v.get("target").and_then(Value::as_str) == Some(target)
                && v.get("name").and_then(Value::as_str) == Some(name)
        })
        .collect()
}

fn events<'a>(records: &'a [Value], target: &str, msg: &str) -> Vec<&'a Value> {
    records
        .iter()
        .filter(|v| {
            v.get("t").and_then(Value::as_str) == Some("event")
                && v.get("target").and_then(Value::as_str) == Some(target)
                && v.get("msg").and_then(Value::as_str) == Some(msg)
        })
        .collect()
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get("fields")
        .and_then(|f| f.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing u64 field {key:?} in {v:?}"))
}

#[test]
fn three_round_run_emits_expected_span_tree() {
    let lines = traced_run();
    assert!(!lines.is_empty(), "traced run produced no output");
    let records = parse_all(lines);

    // One round span per round, each with a distinct id and no parent.
    let rounds = spans(&records, "fedsim", "round");
    assert_eq!(rounds.len(), ROUNDS, "expected one round span per round");
    let round_ids: Vec<u64> = rounds
        .iter()
        .map(|v| v.get("id").and_then(Value::as_u64).unwrap())
        .collect();
    let mut id_to_round: BTreeMap<u64, u64> = BTreeMap::new();
    for v in &rounds {
        let id = v.get("id").and_then(Value::as_u64).unwrap();
        assert_eq!(
            v.get("parent").and_then(Value::as_u64),
            Some(0),
            "round spans are roots"
        );
        id_to_round.insert(id, u64_field(v, "round"));
    }

    // Each round span has exactly one local_train / aggregate / sync / eval
    // child (eval_every = 1, so eval runs every round).
    for phase in ["local_train", "aggregate", "sync", "eval"] {
        let phase_spans = spans(&records, "fedsim", phase);
        assert_eq!(
            phase_spans.len(),
            ROUNDS,
            "expected {ROUNDS} {phase} spans, got {}",
            phase_spans.len()
        );
        let mut parents: Vec<u64> = phase_spans
            .iter()
            .map(|v| v.get("parent").and_then(Value::as_u64).unwrap())
            .collect();
        parents.sort_unstable();
        let mut expected = round_ids.clone();
        expected.sort_unstable();
        assert_eq!(
            parents, expected,
            "every {phase} span must be a direct child of a round span"
        );
    }

    // A child's duration cannot exceed its parent round's duration.
    let round_durs: BTreeMap<u64, u64> = rounds
        .iter()
        .map(|v| {
            (
                v.get("id").and_then(Value::as_u64).unwrap(),
                v.get("dur_us").and_then(Value::as_u64).unwrap(),
            )
        })
        .collect();
    for v in spans(&records, "fedsim", "local_train") {
        let parent = v.get("parent").and_then(Value::as_u64).unwrap();
        let dur = v.get("dur_us").and_then(Value::as_u64).unwrap();
        assert!(dur <= round_durs[&parent], "child longer than parent round");
    }
}

#[test]
fn three_round_run_emits_expected_events() {
    let lines = traced_run();
    let records = parse_all(lines);

    assert_eq!(events(&records, "fedsim", "run_configured").len(), 1);
    let complete = events(&records, "fedsim", "round_complete");
    assert_eq!(complete.len(), ROUNDS);
    let seen: Vec<u64> = complete.iter().map(|v| u64_field(v, "round")).collect();
    assert_eq!(seen, vec![0, 1, 2], "round_complete rounds in order");

    // Manager telemetry: one round summary per round from the strategy's
    // single manager (§6.2: every client's would be identical; bytes are
    // per client), plus per-layer freeze breakdowns covering every
    // parameter of the MLP each round.
    let mgr_rounds = events(&records, "apf.manager", "round");
    assert_eq!(mgr_rounds.len(), ROUNDS);
    let per_layer = events(&records, "apf.manager", "layer_freeze");
    // mlp [in, 12, 10] = 2 Linear layers x (weight + bias) = 4 named params.
    assert_eq!(per_layer.len(), ROUNDS * 4);
    let mut names: Vec<&str> = per_layer
        .iter()
        .filter_map(|v| {
            v.get("fields")
                .and_then(|f| f.get("layer"))
                .and_then(Value::as_str)
        })
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 4, "four distinct layer names: {names:?}");

    // Comm telemetry: the init broadcast at round 0 plus one sync per round.
    let transfers = events(&records, "fedsim.comm", "transfer");
    assert_eq!(transfers.len(), ROUNDS + 1);
    let phases: Vec<&str> = transfers
        .iter()
        .filter_map(|v| {
            v.get("fields")
                .and_then(|f| f.get("phase"))
                .and_then(Value::as_str)
        })
        .collect();
    assert_eq!(phases.iter().filter(|p| **p == "init_broadcast").count(), 1);
    assert_eq!(phases.iter().filter(|p| **p == "sync").count(), ROUNDS);

    // Per-client events: 3 clients x 3 rounds at Debug.
    assert_eq!(
        events(&records, "fedsim.client", "local_round").len(),
        3 * ROUNDS
    );

    // Metrics summary emitted by run(): counters include the round count.
    let counters = events(&records, "metrics", "counter");
    let fed_rounds = counters
        .iter()
        .find(|v| {
            v.get("fields")
                .and_then(|f| f.get("name"))
                .and_then(Value::as_str)
                == Some("fedsim.rounds")
        })
        .expect("fedsim.rounds counter emitted");
    assert!(u64_field(fed_rounds, "value") >= ROUNDS as u64);
}

#[test]
fn population_round_phases_nest_under_round() {
    let records = parse_all(traced_population_run());
    let rounds = spans(&records, "fedsim.pop", "round");
    assert_eq!(
        rounds.len(),
        ROUNDS,
        "expected one population round span per round"
    );
    let mut round_durs: BTreeMap<u64, u64> = BTreeMap::new();
    for v in &rounds {
        let id = v.get("id").and_then(Value::as_u64).unwrap();
        round_durs.insert(id, v.get("dur_us").and_then(Value::as_u64).unwrap());
    }
    // Every block opens one prepare, one train and one reduce span, each a
    // direct child of its round: they are opened on the thread that runs
    // the round, never on a pool worker.
    for phase in ["prepare", "train", "reduce"] {
        let phase_spans = spans(&records, "fedsim.pop", phase);
        assert_eq!(
            phase_spans.len(),
            ROUNDS * POP_BLOCKS,
            "expected {POP_BLOCKS} {phase} spans per round"
        );
        let mut per_round: BTreeMap<u64, usize> = BTreeMap::new();
        for v in phase_spans {
            let parent = v.get("parent").and_then(Value::as_u64).unwrap();
            let dur = v.get("dur_us").and_then(Value::as_u64).unwrap();
            let round_dur = round_durs
                .get(&parent)
                .unwrap_or_else(|| panic!("{phase} span is not a child of a round span: {v:?}"));
            assert!(dur <= *round_dur, "{phase} span longer than its round");
            *per_round.entry(parent).or_default() += 1;
        }
        assert!(
            per_round.values().all(|&c| c == POP_BLOCKS),
            "{phase} spans per round: {per_round:?}"
        );
    }
}
