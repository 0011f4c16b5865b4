//! `bench-kernels`: machine-readable kernel/round baselines.
//!
//! Measures dense matmul and conv throughput (GFLOP/s) and the end-to-end
//! federated round time at pool sizes 1, 2 and 4, then writes
//! `BENCH_kernels.json` for regression tracking. Kernel throughputs are
//! computed from the fastest sample (the noise floor): scheduler noise on
//! a shared host only ever slows a sample down, so the minimum is the one
//! statistic that quick (3-sample) and full (11-sample) runs estimate
//! equally well — medians of few samples skew slow and trip the
//! regression gate spuriously. The host's available
//! parallelism is recorded alongside, and rows whose pool size exceeds it
//! are marked `reliable: false` (extra threads cannot speed anything up on
//! such a host, so those timings are noise and regression checks skip
//! them). Two conv rows sit side by side: `conv2d` is the long-standing
//! probe (LeNet-5's conv2 forward at a 16×16 input the model never feeds
//! it), `conv1` is the layer that dominates LeNet-5 training — conv1 at its
//! real `[16, 3, 16, 16]` batch, forward plus the parameters-only backward
//! the first layer runs.
//!
//! The host's speed drifts (other tenants, frequency changes), so absolute
//! figures from two runs minutes apart do not compare. Every timed kernel
//! is therefore also reported *relative to a same-run reference*: its
//! samples interleave with samples of a fixed workload (plain 64³ matmuls
//! defined in this file, one copy per pool thread) and the `*_rel` fields
//! carry the median kernel/reference ratio — throughputs as kernel GFLOP/s
//! over reference GFLOP/s, times as multiples of one reference call — with
//! `*_rel_spread`, their interquartile range over the median. Samples pool
//! over three passes across all thread counts. Regression checks gate on
//! the `*_rel` fields, allowing for the noise the spreads record; the
//! absolute figures stay for reading.
//!
//! A freeze-aware sweep rides along: skip-frozen SGD/Adam step time and
//! run-driven sparse aggregation over a 2^20-scalar vector at frozen ratios
//! 0/50/90/99% (block-clustered masks, the spatial shape real APF masks
//! take). Step time must fall monotonically as the frozen ratio rises —
//! that is the whole point of the masked fast paths.
//!
//! A population sweep rides along: the event-driven [`PopulationRunner`]
//! at 100k and 1M registered clients with a 10k-client cohort per round
//! (tiny MLP on slab-backed synthetic shards). Each row records the
//! fastest steady-round wall time, the deterministic `steady_resident_bytes`
//! accounting (which must be independent of the registered population —
//! dormant clients that never participated cost zero bytes), and the slab
//! allocation misses across post-warm-up rounds (which must be 0: after
//! one round every size class is warm and cohort churn allocates nothing).
//! `APF_BENCH_QUICK` keeps the same `(registered, cohort)` pairs so rows
//! stay comparable against full-mode baselines, but times only a single
//! steady round and marks the timing `reliable: false`.
//!
//! Two single-shot diagnostics ride along: `matmul_naive_gflops` times the
//! reference triple loop once (quantifying the packed-GEMM speedup on this
//! host), and `scratch_misses_steady` counts scratch-pool buffer
//! allocations over warmed-up matmul iterations — it must be 0, the
//! zero-alloc steady-state contract of the training hot path.
//!
//! Each invocation also appends a `LedgerRecord` (model `"kernels"`,
//! strategy `"bench"`, per-thread throughputs in `metrics`) to the run
//! ledger at `APF_LEDGER_FILE` (default `results/ledger.jsonl`) unless
//! `--no-ledger` is passed, so `ledger-report` can track kernel performance
//! over time alongside experiment runs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench-kernels            # full samples
//! APF_BENCH_QUICK=1 cargo run --release --bin bench-kernels
//! bench-kernels --out /tmp/candidate.json            # alternate output
//! bench-kernels --no-ledger                          # skip the ledger
//! bench-kernels --prof-file /tmp/bench.folded        # profile the run
//! ```
//!
//! `--prof-file` samples the whole bench with `apf-prof` and writes folded
//! flamegraph stacks there on exit (the CLI twin of
//! `APF_PROF=1 APF_PROF_FILE=...`; `APF_PROF=alloc` additionally attributes
//! allocations to spans — this binary installs the attributing allocator).

use std::time::Instant;

/// Allocation-site attribution capability (inert one-load passthrough
/// unless `APF_PROF=alloc` turns attribution on).
#[global_allocator]
static ALLOC: apf_prof::alloc::ProfAlloc = apf_prof::alloc::ProfAlloc;

use apf::{ApfConfig, FreezeMask};
use apf_bench::harness::{black_box, calibrate, sample, BenchGroup, Ratio};
use apf_bench::setups::{standard_builder, ModelKind, Scale};
use apf_data::{iid_partition, Dataset, SynthImageGen};
use apf_fedsim::{
    fnv1a64, FlConfig, FullSync, LedgerRecord, OptimizerKind, PopulationConfig, PopulationData,
    PopulationRunner,
};
use apf_nn::{models, Adam, LrSchedule, Optimizer, Sgd};
use apf_quant::EmaCodec;
use apf_tensor::{
    conv2d_backward_params_fused, conv2d_forward_fused, normal_init, scratch, seeded_rng, slab,
    ConvSpec, Tensor,
};

/// Square matmul side for the throughput probe.
const MM_N: usize = 192;
/// Pool sizes the kernel and round probes run at.
const THREADS: [usize; 3] = [1, 2, 4];
/// Passes over every (thread count, probe) pair. Relative samples pool
/// across passes, so each figure's median and spread span several seconds
/// of the host's states instead of one probe's fraction of a second.
const PASSES: usize = 3;
/// Federated rounds timed per thread count and pass.
const ROUNDS: usize = 10;
/// Side of the reference workload's square matrices.
const REF_N: usize = 64;
/// Products one reference call computes per thread (sized so a call is
/// well above the pool's per-call dispatch cost).
const REF_REPS: usize = 4;
/// Scalars in each masked-compute probe (a mid-sized model's flat vector).
const MASKED_N: usize = 1 << 20;
/// Frozen-block granularity for the synthetic masks. Real APF masks are
/// clustered (stability is spatially correlated within filters and layers),
/// so the probe freezes whole blocks rather than Bernoulli scalars.
const MASKED_BLOCK: usize = 512;
/// Frozen ratios the masked probes sweep, in percent.
const FROZEN_PCTS: [usize; 4] = [0, 50, 90, 99];
/// Registered population sizes the population sweep probes. Identical in
/// quick mode: registering a client is free (dormant clients that never
/// participated hold no state), so only the cohort costs anything, and
/// keeping the sizes fixed lets quick-mode rows match full-mode baselines.
const POP_SIZES: [usize; 2] = [100_000, 1_000_000];
/// Clients sampled per round in the population sweep.
const POP_COHORT: usize = 10_000;
/// Synthetic samples per materialized client shard.
const POP_PER_CLIENT: usize = 8;
/// Hidden width of the sweep's MLP (tiny: the sweep measures simulator
/// overhead — registry, shells, slab — not training throughput).
const POP_HIDDEN: usize = 16;
/// Pool threads for the population sweep (mirrors the kernel sweep's max).
const POP_THREADS: usize = 4;

struct ThreadResult {
    threads: usize,
    /// Timing rows above the host's parallelism are noise (extra pool
    /// threads cannot speed anything up); mark them so regression checks
    /// skip them.
    reliable: bool,
    matmul_gflops: f64,
    conv2d_gflops: f64,
    conv1_gflops: f64,
    round_ms: f64,
    /// `[matmul, conv2d, conv1]` GFLOP/s over the reference's GFLOP/s,
    /// then the round wall time in reference calls.
    rel: [Ratio; 4],
}

struct MaskedResult {
    frozen_pct: usize,
    sgd_step_ms: f64,
    adam_step_ms: f64,
    agg_ms: f64,
    /// `[sgd_step, adam_step, agg]` times in reference calls.
    rel: [f64; 3],
}

struct PopulationResult {
    registered: usize,
    cohort: usize,
    /// Quick-mode rows time a single steady round; cross-host and
    /// oversubscribed timings are noise either way, so regression checks
    /// only compare `round_ms` when both rows are reliable.
    reliable: bool,
    round_ms: f64,
    steady_resident_bytes: u64,
    slab_misses_steady: u64,
    registry_clients: usize,
}

/// The same-run yardstick every timed kernel is divided by: a plain
/// `i-k-j` f32 matmul of two [`REF_N`]-square matrices, defined here rather
/// than borrowed from the library so no kernel change can move it. One
/// copy runs on each pool thread at once, so a row at `t` threads is
/// measured against what `t` cores deliver at that moment.
struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
}

impl Reference {
    fn new() -> Self {
        let mut rng = seeded_rng(3);
        let mut mat = || normal_init(&[REF_N * REF_N], 0.0, 1.0, &mut rng).into_vec();
        Reference { a: mat(), b: mat() }
    }

    /// One call: [`REF_REPS`] × [`REF_N`]³ multiply-adds on each of the
    /// pool's threads.
    fn run(&self) {
        apf_par::parallel_for_each(apf_par::threads(), |_| {
            let mut c = [0.0f32; REF_N * REF_N];
            for _ in 0..REF_REPS {
                for (i, row) in c.chunks_exact_mut(REF_N).enumerate() {
                    for (k, &aik) in self.a[i * REF_N..][..REF_N].iter().enumerate() {
                        for (cij, &bkj) in row.iter_mut().zip(&self.b[k * REF_N..][..REF_N]) {
                            *cij += aik * bkj;
                        }
                    }
                }
                black_box(&mut c);
            }
        });
    }

    /// Floating-point operations in one [`Reference::run`] call.
    fn flops() -> f64 {
        2.0 * (REF_REPS * REF_N * REF_N * REF_N * apf_par::threads()) as f64
    }

    /// Times `f` (`flops` per call) interleaved with the reference and
    /// returns its GFLOP/s and, per sample pair, its GFLOP/s relative to
    /// the reference's. Absolute GFLOP/s come from the fastest sample (the
    /// noise floor).
    fn throughput(
        &self,
        g: &mut BenchGroup,
        label: &str,
        flops: f64,
        f: impl FnMut(),
    ) -> (f64, Vec<f64>) {
        let (m, ratios) = g.bench_vs(label, f, || self.run());
        let per_ref = flops / Self::flops();
        let gflops = flops / m.min.as_secs_f64() / 1e9;
        (gflops, ratios.into_iter().map(|x| per_ref / x).collect())
    }

    /// Times `f` interleaved with the reference and returns `(fastest
    /// sample in ms, median time in reference calls)`.
    fn time(&self, g: &mut BenchGroup, label: &str, f: impl FnMut()) -> (f64, f64) {
        let (m, ratios) = g.bench_vs(label, f, || self.run());
        (m.min.as_secs_f64() * 1e3, Ratio::of(ratios).median)
    }
}

fn bench_matmul(g: &mut BenchGroup, r: &Reference, threads: usize) -> (f64, Vec<f64>) {
    let mut rng = seeded_rng(7);
    let a = normal_init(&[MM_N, MM_N], 0.0, 1.0, &mut rng);
    let b = normal_init(&[MM_N, MM_N], 0.0, 1.0, &mut rng);
    let flops = 2.0 * (MM_N as f64).powi(3);
    r.throughput(g, &format!("matmul{MM_N}_t{threads}"), flops, || {
        black_box(a.matmul(&b)).recycle();
    })
}

/// Times the naive reference matmul once (it is serial, so thread count is
/// irrelevant); the packed/naive ratio is the host's GEMM speedup.
fn bench_matmul_naive(g: &mut BenchGroup) -> f64 {
    let mut rng = seeded_rng(7);
    let a = normal_init(&[MM_N, MM_N], 0.0, 1.0, &mut rng);
    let b = normal_init(&[MM_N, MM_N], 0.0, 1.0, &mut rng);
    let m = g.bench(&format!("matmul{MM_N}_naive"), || {
        black_box(a.matmul_reference(&b)).recycle();
    });
    let flops = 2.0 * (MM_N as f64).powi(3);
    flops / m.min.as_secs_f64() / 1e9
}

/// Counts scratch-pool buffer allocations (`misses`) over warmed-up matmul
/// iterations on one thread. Zero means the steady-state hot path is fully
/// served by recycled buffers.
fn measure_scratch_misses_steady() -> u64 {
    apf_par::with_threads(1, || {
        let mut rng = seeded_rng(7);
        let a = normal_init(&[MM_N, MM_N], 0.0, 1.0, &mut rng);
        let b = normal_init(&[MM_N, MM_N], 0.0, 1.0, &mut rng);
        for _ in 0..2 {
            a.matmul(&b).recycle();
        }
        scratch::reset_stats();
        for _ in 0..4 {
            a.matmul(&b).recycle();
        }
        let misses = scratch::stats().misses;
        println!("  scratch_misses_steady   count  {misses:>9}");
        misses
    })
}

fn bench_conv2d(g: &mut BenchGroup, r: &Reference, threads: usize) -> (f64, Vec<f64>) {
    let mut rng = seeded_rng(7);
    // The LeNet-5 second conv at batch 8: the workspace's canonical conv probe.
    let spec = ConvSpec {
        in_channels: 6,
        out_channels: 16,
        kernel: 5,
        stride: 1,
        padding: 0,
    };
    let (n, h, w) = (8usize, 16usize, 16usize);
    let input = normal_init(&[n, spec.in_channels, h, w], 0.0, 1.0, &mut rng);
    let weight = normal_init(
        &[
            spec.out_channels,
            spec.in_channels * spec.kernel * spec.kernel,
        ],
        0.0,
        0.1,
        &mut rng,
    );
    let bias = Tensor::zeros(&[spec.out_channels]);
    let (oh, ow) = spec.out_size(h, w);
    let flops = 2.0
        * (n * oh * ow) as f64
        * spec.out_channels as f64
        * (spec.in_channels * spec.kernel * spec.kernel) as f64;
    r.throughput(g, &format!("conv2d_t{threads}"), flops, || {
        black_box(conv2d_forward_fused(&input, &weight, &bias, &spec)).recycle();
    })
}

/// LeNet-5's first conv at its training shape (batch 16, `[3, 16, 16]`
/// images): one forward pass plus the parameters-only backward pass
/// (weight and bias gradients; a first layer computes no input gradient).
fn bench_conv1(g: &mut BenchGroup, r: &Reference, threads: usize) -> (f64, Vec<f64>) {
    let mut rng = seeded_rng(7);
    let spec = ConvSpec {
        in_channels: models::IMAGE_CHANNELS,
        out_channels: 6,
        kernel: 5,
        stride: 1,
        padding: 2,
    };
    let side = models::IMAGE_SIDE;
    let n = 16usize;
    let ckk = spec.in_channels * spec.kernel * spec.kernel;
    let input = normal_init(&[n, spec.in_channels, side, side], 0.0, 1.0, &mut rng);
    let weight = normal_init(&[spec.out_channels, ckk], 0.0, 0.1, &mut rng);
    let bias = Tensor::zeros(&[spec.out_channels]);
    let (oh, ow) = spec.out_size(side, side);
    let grad = normal_init(&[n, spec.out_channels, oh, ow], 0.0, 0.01, &mut rng);
    // Forward and grad-weight GEMMs have the same multiply-add count.
    let flops = 2.0 * 2.0 * (n * oh * ow) as f64 * spec.out_channels as f64 * ckk as f64;
    r.throughput(g, &format!("conv1_t{threads}"), flops, || {
        black_box(conv2d_forward_fused(&input, &weight, &bias, &spec)).recycle();
        let (gw, gb) = conv2d_backward_params_fused(&grad, &input, &spec);
        black_box(gw).recycle();
        black_box(gb).recycle();
    })
}

/// Times `ROUNDS` federated rounds (LeNet-5, 4 parallel clients), each
/// between two reference samples, and returns the mean per-round wall time
/// in milliseconds and, per round, its time in reference calls (against
/// the mean of its two neighbouring samples).
fn bench_round(r: &Reference) -> (f64, Vec<f64>) {
    let clients = 4;
    let (builder, train, test) =
        standard_builder(ModelKind::Lenet5, Scale::Quick, clients, ROUNDS, 7);
    let parts = iid_partition(train.len(), clients, 7);
    let mut runner = builder
        .clients_from_partition(&train, &parts)
        .test_set(test)
        .strategy(Box::new(FullSync::new()))
        .parallel(true)
        .build();
    let mut reference = || r.run();
    let ref_iters = calibrate(&mut reference);
    let mut before = sample(&mut reference, ref_iters).as_secs_f64();
    let mut total = 0.0;
    let mut rels = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let t0 = Instant::now();
        runner.run_round(round as u64);
        let secs = t0.elapsed().as_secs_f64();
        let after = sample(&mut reference, ref_iters).as_secs_f64();
        total += secs;
        rels.push(secs / (0.5 * (before + after)).max(1e-12));
        before = after;
    }
    let ms = total * 1e3 / ROUNDS as f64;
    let rel = Ratio::of(rels.clone());
    println!(
        "  round_t{}               mean   {ms:>9.2} ms  vs ref {:.2} ±{:.0}%",
        apf_par::threads(),
        rel.median,
        rel.spread * 50.0
    );
    (ms, rels)
}

/// A mask freezing `pct`% of [`MASKED_N`] scalars as evenly spread
/// [`MASKED_BLOCK`]-sized blocks (Bresenham spacing, exact block count).
fn clustered_mask(pct: usize) -> FreezeMask {
    let mut mask = FreezeMask::all_unfrozen(MASKED_N);
    let mut acc = 0usize;
    for b in 0..MASKED_N / MASKED_BLOCK {
        acc += pct;
        if acc >= 100 {
            acc -= 100;
            for j in b * MASKED_BLOCK..(b + 1) * MASKED_BLOCK {
                mask.set(j, true);
            }
        }
    }
    mask
}

/// Times one skip-frozen SGD step, one Adam step, and one 4-client sparse
/// aggregation over a [`MASKED_N`]-scalar vector with `pct`% frozen.
fn bench_masked(g: &mut BenchGroup, r: &Reference, pct: usize) -> MaskedResult {
    let mask = clustered_mask(pct);
    let mut rng = seeded_rng(11);
    let params0 = normal_init(&[MASKED_N], 0.0, 1.0, &mut rng);
    let grads = normal_init(&[MASKED_N], 0.0, 0.1, &mut rng).data().to_vec();
    let mut params = params0.data().to_vec();

    let mut sgd = Sgd::new(0.01).with_momentum(0.9);
    let (sgd_step_ms, sgd_rel) = r.time(g, &format!("sgd_step_f{pct}"), || {
        sgd.step(&mut params, &grads, &mask);
        black_box(&params);
    });

    params.copy_from_slice(params0.data());
    let mut adam = Adam::new(0.001);
    let (adam_step_ms, adam_rel) = r.time(g, &format!("adam_step_f{pct}"), || {
        adam.step(&mut params, &grads, &mask);
        black_box(&params);
    });

    // Sparse aggregation straight into the unfrozen slots: clear + axpy per
    // client + divide, all run-driven, never touching frozen scalars.
    let clients: Vec<Vec<f32>> = (0..4)
        .map(|_| normal_init(&[MASKED_N], 0.0, 1.0, &mut rng).data().to_vec())
        .collect();
    let mut agg = vec![0.0f32; MASKED_N];
    let (agg_ms, agg_rel) = r.time(g, &format!("sparse_agg_f{pct}"), || {
        mask.for_each_unfrozen_run_in(0, MASKED_N, |s, e| agg[s..e].fill(0.0));
        for l in &clients {
            apf_tensor::masked_axpy(&mut agg, l, 1.0, mask.words());
        }
        apf_tensor::masked_div(&mut agg, clients.len() as f32, mask.words());
        black_box(&agg);
    });

    MaskedResult {
        frozen_pct: pct,
        sgd_step_ms,
        adam_step_ms,
        agg_ms,
        rel: [sgd_rel, adam_rel, agg_rel],
    }
}

/// Runs the population simulator at `registered` clients: one warm-up
/// round (first cohort, slab classes fill), then `steady_rounds` timed
/// rounds over which slab misses must stay at zero.
fn bench_population(registered: usize, steady_rounds: usize, reliable: bool) -> PopulationResult {
    // Each probe starts from an empty store so `steady_resident_bytes` is
    // this configuration's footprint, not leftovers from earlier benches.
    slab::clear();
    let gen = SynthImageGen::new(7);
    let row = gen.sample_numel();
    let mut test_data = Vec::new();
    let mut test_labels = Vec::new();
    // Split 1 is the conventional test split (cohort shards use 2 + id).
    gen.fill_split(128, 1, &mut test_data, &mut test_labels);
    let test = Dataset::new(
        Tensor::from_vec(test_data, &[128, row]),
        test_labels,
        apf_data::NUM_CLASSES,
    );
    let cfg = PopulationConfig {
        fl: FlConfig {
            local_iters: 1,
            // Far past what the probe runs, so only the warm-up round
            // (round 0) evaluates and steady rounds time pure simulation.
            rounds: 1 << 20,
            batch_size: 4,
            eval_every: 1 << 20,
            eval_batch: 64,
            seed: 7,
            prox_mu: None,
            drop_stragglers: false,
            participation: 1.0,
            parallel: true,
        },
        registered,
        cohort: POP_COHORT,
        codec: EmaCodec::Dense,
        shells: 64,
        apf: ApfConfig::default(),
        wire_f16: false,
        // Momentum 0 keeps optimizer exports empty: dormant blobs stay at
        // the 45-byte floor, the compact-state claim the sweep pins.
        optimizer: OptimizerKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
            weight_decay: 0.0,
        },
        schedule: LrSchedule::Constant(0.05),
    };
    let mut runner = PopulationRunner::new(
        cfg,
        move |seed| models::mlp("pop-mlp", &[row, POP_HIDDEN, 10], seed),
        PopulationData::Synth {
            gen,
            per_client: POP_PER_CLIENT,
        },
        test,
    );
    runner.run_round(0);
    let (_, misses_warm, _, _) = slab::global_stats();
    // Fastest steady round: one-sided scheduler noise only ever slows a
    // round down, so the minimum is the stat quick and full runs agree on.
    let mut round_ms = f64::INFINITY;
    for r in 1..=steady_rounds as u64 {
        let t0 = Instant::now();
        runner.run_round(r);
        round_ms = round_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let (_, misses_after, _, _) = slab::global_stats();
    let result = PopulationResult {
        registered,
        cohort: POP_COHORT,
        reliable,
        round_ms,
        steady_resident_bytes: runner.steady_resident_bytes(),
        slab_misses_steady: misses_after - misses_warm,
        registry_clients: runner.registry().len(),
    };
    println!(
        "  pop_r{registered:<7}            min    {round_ms:>9.2} ms   resident {:>10} B   slab misses {}   registry {}",
        result.steady_resident_bytes, result.slab_misses_steady, result.registry_clients
    );
    result
}

fn json_escape_free(
    results: &[ThreadResult],
    masked: &[MaskedResult],
    population: &[PopulationResult],
    host_parallelism: usize,
    matmul_naive_gflops: f64,
    scratch_misses_steady: u64,
) -> String {
    // All content is numeric or fixed ASCII — no escaping needed.
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    out.push_str(&format!("  \"matmul_n\": {MM_N},\n"));
    out.push_str(&format!(
        "  \"matmul_naive_gflops\": {matmul_naive_gflops:.4},\n"
    ));
    out.push_str(&format!(
        "  \"scratch_misses_steady\": {scratch_misses_steady},\n"
    ));
    out.push_str(
        "  \"note\": \"noise-floor (fastest-sample) GFLOP/s and mean round wall time per APF_PAR_THREADS; *_rel fields are the same figures relative to an interleaved same-run reference (64^3 matmuls per pool thread: kernel GFLOP/s over reference GFLOP/s, times in reference calls; medians over sample pairs, *_rel_spread their interquartile range over the median) and are what regression checks gate on; rows with threads > host_parallelism carry reliable=false and are skipped by regression checks\",\n",
    );
    out.push_str(
        "  \"caveat\": \"on a 1-core host only the threads=1 row is reliable: the t2/t4 rows time thread churn, not speedup, and every consumer (regression checks, the ledger record, reports) must hard-skip reliable=false rows\",\n",
    );
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"reliable\": {}, \"matmul_gflops\": {:.4}, \"conv2d_gflops\": {:.4}, \"conv1_gflops\": {:.4}, \"round_ms\": {:.3}, {}}}{}\n",
            r.threads,
            r.reliable,
            r.matmul_gflops,
            r.conv2d_gflops,
            r.conv1_gflops,
            r.round_ms,
            ["matmul", "conv2d", "conv1", "round"]
                .iter()
                .zip(&r.rel)
                .map(|(name, x)| format!(
                    "\"{name}_rel\": {:.4}, \"{name}_rel_spread\": {:.4}",
                    x.median, x.spread
                ))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"masked_n\": {MASKED_N},\n  \"masked\": [\n"));
    for (i, r) in masked.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"frozen_pct\": {}, \"sgd_step_ms\": {:.4}, \"adam_step_ms\": {:.4}, \"agg_ms\": {:.4}, \"sgd_step_rel\": {:.4}, \"adam_step_rel\": {:.4}, \"agg_rel\": {:.4}}}{}\n",
            r.frozen_pct,
            r.sgd_step_ms,
            r.adam_step_ms,
            r.agg_ms,
            r.rel[0],
            r.rel[1],
            r.rel[2],
            if i + 1 < masked.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"population\": [\n");
    for (i, r) in population.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"registered\": {}, \"cohort\": {}, \"reliable\": {}, \"round_ms\": {:.3}, \"steady_resident_bytes\": {}, \"slab_misses_steady\": {}, \"registry_clients\": {}}}{}\n",
            r.registered,
            r.cohort,
            r.reliable,
            r.round_ms,
            r.steady_resident_bytes,
            r.slab_misses_steady,
            r.registry_clients,
            if i + 1 < population.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Builds the ledger record for this bench invocation: per-thread
/// throughputs as summary metrics, the bench knobs in the digest.
fn ledger_record(
    results: &[ThreadResult],
    masked: &[MaskedResult],
    population: &[PopulationResult],
    host_parallelism: usize,
    wall_secs: f64,
    matmul_naive_gflops: f64,
    scratch_misses_steady: u64,
) -> LedgerRecord {
    let quick = std::env::var("APF_BENCH_QUICK").is_ok();
    let digest = fnv1a64(
        format!("model=kernels;strategy=bench;mm_n={MM_N};rounds={ROUNDS};quick={quick}")
            .as_bytes(),
    );
    let mut record = LedgerRecord {
        name: "kernels/bench".to_owned(),
        model: "kernels".to_owned(),
        strategy: "bench".to_owned(),
        config_digest: format!("{digest:016x}"),
        rounds: ROUNDS as u64,
        wall_secs,
        threads: results.iter().map(|r| r.threads).max().unwrap_or(1) as u64,
        host_parallelism: host_parallelism as u64,
        ..LedgerRecord::default()
    };
    // Unreliable rows (threads > host parallelism) are noise; keeping them
    // out of the ledger means downstream diffs never regress on them.
    for r in results.iter().filter(|r| r.reliable) {
        let t = r.threads;
        record
            .metrics
            .insert(format!("matmul_gflops_t{t}"), r.matmul_gflops);
        record
            .metrics
            .insert(format!("conv2d_gflops_t{t}"), r.conv2d_gflops);
        record
            .metrics
            .insert(format!("conv1_gflops_t{t}"), r.conv1_gflops);
        record.metrics.insert(format!("round_ms_t{t}"), r.round_ms);
    }
    for r in masked {
        let f = r.frozen_pct;
        record
            .metrics
            .insert(format!("sgd_step_ms_f{f}"), r.sgd_step_ms);
        record
            .metrics
            .insert(format!("adam_step_ms_f{f}"), r.adam_step_ms);
        record.metrics.insert(format!("agg_ms_f{f}"), r.agg_ms);
    }
    for r in population {
        let n = r.registered;
        record.metrics.insert(
            format!("pop_steady_resident_bytes_r{n}"),
            r.steady_resident_bytes as f64,
        );
        record.metrics.insert(
            format!("pop_slab_misses_steady_r{n}"),
            r.slab_misses_steady as f64,
        );
        record.metrics.insert(
            format!("pop_registry_clients_r{n}"),
            r.registry_clients as f64,
        );
        // Timings from unreliable rows (quick mode, oversubscribed hosts)
        // stay out of the ledger, like the kernel rows above.
        if r.reliable {
            record
                .metrics
                .insert(format!("pop_round_ms_r{n}"), r.round_ms);
        }
    }
    record
        .metrics
        .insert("matmul_naive_gflops".to_owned(), matmul_naive_gflops);
    record.metrics.insert(
        "scratch_misses_steady".to_owned(),
        scratch_misses_steady as f64,
    );
    record
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_owned());
    let no_ledger = args.iter().any(|a| a == "--no-ledger");
    let prof_file = args
        .iter()
        .position(|a| a == "--prof-file")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let prof_owned = match &prof_file {
        Some(path) => apf_prof::start_with(
            apf_prof::env_interval(),
            Some(path.clone()),
            apf_prof::env_wants_alloc(),
        ),
        None => apf_prof::init_from_env(),
    };
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("bench-kernels: host parallelism = {host_parallelism}");
    let t0 = Instant::now();
    let mut results = Vec::new();
    let mut g = BenchGroup::new("kernels_by_threads");
    let reference = Reference::new();
    // Per thread count: the best GFLOP/s of each kernel (matmul, conv2d,
    // conv1) over all passes, the mean round time, and every pass's
    // relative samples of the four.
    let mut gflops = [[0.0f64; 3]; THREADS.len()];
    let mut round_ms = [0.0f64; THREADS.len()];
    let mut rels: [[Vec<f64>; 4]; THREADS.len()] = Default::default();
    for _ in 0..PASSES {
        for (ti, &threads) in THREADS.iter().enumerate() {
            apf_par::set_threads(threads);
            let kernels = [
                bench_matmul(&mut g, &reference, threads),
                bench_conv2d(&mut g, &reference, threads),
                bench_conv1(&mut g, &reference, threads),
            ];
            for (ki, (abs, rel)) in kernels.into_iter().enumerate() {
                gflops[ti][ki] = gflops[ti][ki].max(abs);
                rels[ti][ki].extend(rel);
            }
            let (ms, rel) = bench_round(&reference);
            round_ms[ti] += ms / PASSES as f64;
            rels[ti][3].extend(rel);
        }
    }
    for (ti, &threads) in THREADS.iter().enumerate() {
        let [matmul_gflops, conv2d_gflops, conv1_gflops] = gflops[ti];
        results.push(ThreadResult {
            threads,
            reliable: threads <= host_parallelism,
            matmul_gflops,
            conv2d_gflops,
            conv1_gflops,
            round_ms: round_ms[ti],
            rel: std::mem::take(&mut rels[ti]).map(Ratio::of),
        });
    }
    apf_par::set_threads(1);
    let matmul_naive_gflops = bench_matmul_naive(&mut g);
    let scratch_misses_steady = measure_scratch_misses_steady();
    let mut mg = BenchGroup::new("masked_by_frozen_ratio");
    let masked: Vec<MaskedResult> = FROZEN_PCTS
        .iter()
        .map(|&pct| bench_masked(&mut mg, &reference, pct))
        .collect();
    let quick = std::env::var("APF_BENCH_QUICK").is_ok();
    let steady_rounds = if quick { 1 } else { 2 };
    let pop_reliable = !quick && POP_THREADS <= host_parallelism;
    println!("\npopulation sweep (cohort {POP_COHORT}, {steady_rounds} steady rounds):");
    apf_par::set_threads(POP_THREADS);
    let population: Vec<PopulationResult> = POP_SIZES
        .iter()
        .map(|&registered| bench_population(registered, steady_rounds, pop_reliable))
        .collect();
    apf_par::set_threads(1);
    let wall_secs = t0.elapsed().as_secs_f64();
    let json = json_escape_free(
        &results,
        &masked,
        &population,
        host_parallelism,
        matmul_naive_gflops,
        scratch_misses_steady,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("failed to write {out_path}: {e}"));
    println!("\nwrote {out_path}:\n{json}");
    if !no_ledger {
        let ledger_path = std::env::var("APF_LEDGER_FILE")
            .ok()
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "results/ledger.jsonl".to_owned());
        let record = ledger_record(
            &results,
            &masked,
            &population,
            host_parallelism,
            wall_secs,
            matmul_naive_gflops,
            scratch_misses_steady,
        );
        match record.append_to(&ledger_path) {
            Ok(()) => println!("appended kernel record to {ledger_path}"),
            Err(e) => println!("warning: could not append to {ledger_path}: {e}"),
        }
    }
    if prof_owned {
        let _ = apf_prof::finish();
    }
}
