//! Probes: single public calls timed in isolation at the shapes the
//! workloads run. Every traced run runs all of them, so each traced result
//! carries every per-layer metric.

use apf::{Aimd, ApfConfig, ApfManager, DormantApfState, FreezeMask};
use apf_bench::setups::ModelKind;
use apf_data::SynthImageGen;
use apf_net::{read_frame, write_frame, Frame, MaskedPayload};
use apf_nn::{Conv2d, Layer, Linear, LrSchedule, LstmLayer, Mode, Trainer};
use apf_quant::{f16_roundtrip_in_place, EmaCodec};
use apf_tensor::{normal_init, seeded_rng, ConvSpec, Tensor};
use apf_trace::{Role, TraceContext};

use crate::stats::{time_median_ms, Metrics};
use crate::workloads::{
    base_lr, build_optimizer, mlp_scalars, NET_HIDDEN, POP_HIDDEN, POP_PER_CLIENT,
};

/// Batch size of the layer probes (the workloads' local batch).
const BATCH: usize = 16;
/// Timed repetitions per probe (the median is reported).
const REPS: usize = 31;

/// The live state a probe should run against, when the traced run has it.
pub struct Live {
    /// The workload's flat model size and freeze mask, for
    /// `tensor.masked_axpy_ms`.
    pub model_mask: FreezeMask,
    /// The networked workload's push mask (its last round's), when this is
    /// the networked run; otherwise probes use a round-0 push (nothing
    /// frozen).
    pub net_mask: Option<FreezeMask>,
}

/// One layer's forward and backward time at input `x`, and its GFLOP/s over
/// both passes given the FLOP counts of each.
fn layer_times(
    layer: &mut dyn Layer,
    x: &Tensor,
    flops: Option<(f64, f64)>,
) -> (f64, f64, Option<f64>) {
    let mut rng = seeded_rng(3);
    let out_shape = layer
        .forward(x.clone(), Mode::Train, &mut rng)
        .shape()
        .to_vec();
    let grad = Tensor::full(&out_shape, 0.01);
    let mut fwd = Vec::with_capacity(REPS);
    let mut bwd = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = std::time::Instant::now();
        let y = layer.forward(x.clone(), Mode::Train, &mut rng);
        fwd.push(crate::stats::ms_since(t0));
        y.recycle();
        let t0 = std::time::Instant::now();
        let g = layer.backward(grad.clone());
        bwd.push(crate::stats::ms_since(t0));
        g.recycle();
        layer.visit_params(&mut |_, _, _, g| g.data_mut().fill(0.0));
    }
    let (f, b) = (crate::stats::median(&fwd), crate::stats::median(&bwd));
    let gflops = flops.map(|(ff, bf)| (ff + bf) / ((f + b) * 1e-3) / 1e9);
    (f, b, gflops)
}

fn random(shape: &[usize], seed: u64) -> Tensor {
    normal_init(shape, 0.0, 1.0, &mut seeded_rng(seed))
}

/// Conv FLOPs at batch `n`: forward `2·N·O·oh·ow·C·k²`; backward twice that
/// (weight and input gradients).
fn conv_flops(n: usize, spec: ConvSpec, hw: usize) -> (f64, f64) {
    let o = (hw + 2 * spec.padding - spec.kernel) / spec.stride + 1;
    let f =
        2.0 * (n * spec.out_channels * o * o * spec.in_channels * spec.kernel * spec.kernel) as f64;
    (f, 2.0 * f)
}

fn linear_flops(n: usize, i: usize, o: usize) -> (f64, f64) {
    let f = 2.0 * (n * i * o) as f64;
    (f, 2.0 * f)
}

/// A layer under probe: name, layer, input shape, forward and backward
/// FLOPs.
type LayerProbe = (&'static str, Box<dyn Layer>, Vec<usize>, (f64, f64));

/// LeNet-5's parameterized layers at batch 16 and their real input shapes
/// (`[16, 3, 16, 16]` images).
fn lenet5_layers(m: &mut Metrics) {
    let mut rng = seeded_rng(1);
    let conv1 = ConvSpec {
        in_channels: 3,
        out_channels: 6,
        kernel: 5,
        stride: 1,
        padding: 2,
    };
    let conv2 = ConvSpec {
        in_channels: 6,
        out_channels: 16,
        kernel: 5,
        stride: 1,
        padding: 0,
    };
    let mut probes: Vec<LayerProbe> = vec![
        (
            "conv1",
            Box::new(Conv2d::new("conv1", conv1, &mut rng)),
            vec![BATCH, 3, 16, 16],
            conv_flops(BATCH, conv1, 16),
        ),
        (
            "conv2",
            Box::new(Conv2d::new("conv2", conv2, &mut rng)),
            vec![BATCH, 6, 8, 8],
            conv_flops(BATCH, conv2, 8),
        ),
        (
            "fc1",
            Box::new(Linear::new("fc1", 64, 120, &mut rng)),
            vec![BATCH, 64],
            linear_flops(BATCH, 64, 120),
        ),
        (
            "fc2",
            Box::new(Linear::new("fc2", 120, 84, &mut rng)),
            vec![BATCH, 120],
            linear_flops(BATCH, 120, 84),
        ),
        (
            "fc3",
            Box::new(Linear::new("fc3", 84, 10, &mut rng)),
            vec![BATCH, 84],
            linear_flops(BATCH, 84, 10),
        ),
    ];
    for (i, (name, layer, shape, flops)) in probes.iter_mut().enumerate() {
        let x = random(shape, 10 + i as u64);
        let (f, b, g) = layer_times(layer.as_mut(), &x, Some(*flops));
        m.put(&format!("nn.lenet5.{name}.fwd_ms"), f, "ms");
        m.put(&format!("nn.lenet5.{name}.bwd_ms"), b, "ms");
        m.put(
            &format!("nn.lenet5.{name}.gflops"),
            g.unwrap_or(f64::NAN),
            "GFLOP/s",
        );
    }
}

/// The LSTM's two recurrent layers at batch 16 over `[16, 20, 10]`
/// sequences (hidden 64).
fn lstm_layers(m: &mut Metrics) {
    let mut rng = seeded_rng(2);
    let (t, d, h) = (apf_nn::models::SEQ_LEN, apf_nn::models::SEQ_FEATURES, 64);
    let mut probes: Vec<(&str, LstmLayer, Vec<usize>)> = vec![
        (
            "lstm1",
            LstmLayer::new("lstm1", d, h, &mut rng),
            vec![BATCH, t, d],
        ),
        (
            "lstm2",
            LstmLayer::new("lstm2", h, h, &mut rng),
            vec![BATCH, t, h],
        ),
    ];
    for (i, (name, layer, shape)) in probes.iter_mut().enumerate() {
        let x = random(shape, 20 + i as u64);
        let (f, b, _) = layer_times(layer, &x, None);
        m.put(&format!("nn.lstm.{name}.fwd_ms"), f, "ms");
        m.put(&format!("nn.lstm.{name}.bwd_ms"), b, "ms");
    }
}

/// One training step and one optimizer step of `model` at batch 16, the
/// step running with the trainer's own freeze mask; for LeNet-5 also the
/// per-step flat copy.
fn model_steps(m: &mut Metrics, model: ModelKind) {
    let (train, _) = model.datasets(64, 1, 5);
    let idx: Vec<usize> = (0..BATCH).collect();
    let (x, y) = train.gather(&idx);
    let mut trainer = Trainer::new(
        model.build(7),
        build_optimizer(model.optimizer()),
        LrSchedule::Constant(base_lr(model.optimizer())),
    );
    let name = model.name();
    let ms = time_median_ms(REPS, || {
        trainer.train_batch(&x, &y);
    });
    m.put(&format!("nn.{name}.train_batch_ms"), ms, "ms");
    let mut opt = build_optimizer(model.optimizer());
    let mask = trainer.freeze_mask().clone();
    let mut params = trainer.model_mut().flat_params();
    let grads = trainer.model_mut().flat_grads();
    let ms = time_median_ms(REPS, || opt.step(&mut params, &grads, &mask));
    m.put(&format!("nn.{name}.optim_step_ms"), ms, "ms");
    if model == ModelKind::Lenet5 {
        let ms = time_median_ms(REPS, || {
            let flat = trainer.model_mut().flat_params();
            trainer.model_mut().load_flat(&flat);
        });
        m.put("nn.flat_copy_ms", ms, "ms");
    }
}

/// The networked workload's push: its mask (live or nothing frozen) and the
/// unfrozen values of a model at its size.
fn net_push(live: &Live) -> Frame {
    let n = mlp_scalars(NET_HIDDEN);
    let mask = live
        .net_mask
        .clone()
        .unwrap_or_else(|| FreezeMask::all_unfrozen(n));
    let values = random(&[mask.unfrozen_count()], 30).into_vec();
    Frame::Push {
        round: 1,
        client_id: 0,
        loss_bits: 1.0f32.to_bits(),
        payload: MaskedPayload::new(mask, values, true).expect("one value per unfrozen scalar"),
        ctx: TraceContext::new(1, Role::Client(0)),
    }
}

/// `write_frame` / `read_frame` of a Push at the net payload, and the f16
/// narrowing of its values.
fn net_probes(m: &mut Metrics, live: &Live) {
    let frame = net_push(live);
    let mut wire = Vec::new();
    let enc = time_median_ms(REPS, || {
        wire.clear();
        write_frame(&mut wire, &frame).expect("in-memory write");
    });
    let dec = time_median_ms(REPS, || {
        let (back, _) = read_frame(&mut wire.as_slice()).expect("self-encoded frame");
        std::hint::black_box(back);
    });
    m.put("net.frame_encode_ms", enc, "ms");
    m.put("net.frame_decode_ms", dec, "ms");
    let Frame::Push { payload, .. } = frame else {
        unreachable!()
    };
    let mut values = payload.values;
    let f16 = time_median_ms(REPS, || f16_roundtrip_in_place(&mut values));
    m.put("quant.f16_roundtrip_ms", f16, "ms");
}

/// A manager at the population model size, warmed through `rounds` rounds
/// of drifting parameters so its EMA state and mask are not trivial.
pub fn pop_manager(rounds: u64) -> (ApfManager, Vec<f32>, ApfConfig) {
    let n = mlp_scalars(POP_HIDDEN);
    let cfg = crate::workloads::pop_config(5, 1).apf;
    let mut params = random(&[n], 40).into_vec();
    let mut mgr = ApfManager::new(&params, cfg, Box::new(Aimd::default())).expect("valid config");
    let mut rng = seeded_rng(41);
    for r in 0..rounds {
        for (i, p) in params.iter_mut().enumerate() {
            // Half the scalars settle, half keep drifting.
            let step = if i % 2 == 0 { 1e-4 } else { 1e-1 };
            *p += step * rng.normal_f32();
        }
        mgr.finish_round(&params, r);
    }
    (mgr, params, cfg)
}

/// The population's dormant manager hop (encode and decode through the
/// f16 codec) and one client's shard generation.
fn pop_probes(m: &mut Metrics) {
    let (mgr, _, cfg) = pop_manager(8);
    let state = mgr.snapshot();
    let mut blob = DormantApfState::encode(&state, EmaCodec::F16);
    let enc = time_median_ms(REPS, || {
        blob = DormantApfState::encode(&state, EmaCodec::F16)
    });
    let dec = time_median_ms(REPS, || {
        std::hint::black_box(blob.decode(cfg).expect("self-encoded blob"));
    });
    m.put("quant.dormant_encode_us", enc * 1e3, "us");
    m.put("quant.dormant_decode_us", dec * 1e3, "us");
    m.put("quant.dormant_bytes", blob.len_bytes() as f64, "B");
    let gen = SynthImageGen::new(5);
    let mut data = Vec::new();
    let mut labels = Vec::new();
    let mut split = 2u64;
    let ms = time_median_ms(REPS, || {
        gen.fill_split(POP_PER_CLIENT, split, &mut data, &mut labels);
        split += 1;
    });
    m.put("data.shard_gen_ms", ms, "ms");
}

/// Every probe. `live` carries this run's mask state.
pub fn run_all(m: &mut Metrics, live: &Live) {
    lenet5_layers(m);
    lstm_layers(m);
    model_steps(m, ModelKind::Lenet5);
    model_steps(m, ModelKind::Lstm);
    net_probes(m, live);
    pop_probes(m);
    let n = live.model_mask.len();
    let src = random(&[n], 50).into_vec();
    let mut agg = vec![0.0f32; n];
    let words = live.model_mask.words();
    let ms = time_median_ms(REPS, || apf_tensor::masked_axpy(&mut agg, &src, 1.0, words));
    m.put("tensor.masked_axpy_ms", ms, "ms");
}
