//! Property-based tests for the quantization codecs (on `apf-testkit`).

use apf_quant::{f16_bits_to_f32, f16_decode, f16_encode, f32_to_f16_bits};
use apf_testkit::{f32s, prop_assert, prop_assert_eq, property, vecs};

property! {
    fn f16_roundtrip_error_bound(x in f32s(-60000.0..60000.0)) {
        let back = f16_bits_to_f32(f32_to_f16_bits(x));
        // Relative error <= 2^-11 for normals; absolute bound 2^-24 near zero.
        let bound = (x.abs() / 2048.0).max(2.0f32.powi(-24));
        prop_assert!((back - x).abs() <= bound, "x={} back={}", x, back);
    }

    fn f16_idempotent(x in f32s(-60000.0..60000.0)) {
        // Quantizing an already-quantized value changes nothing.
        let once = f16_bits_to_f32(f32_to_f16_bits(x));
        let twice = f16_bits_to_f32(f32_to_f16_bits(once));
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    fn f16_order_preserving(a in f32s(-1000.0..1000.0), b in f32s(-1000.0..1000.0)) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let qlo = f16_bits_to_f32(f32_to_f16_bits(lo));
        let qhi = f16_bits_to_f32(f32_to_f16_bits(hi));
        prop_assert!(qlo <= qhi);
    }

    fn f16_slice_roundtrip(xs in vecs(f32s(-100.0..100.0), 0..64)) {
        let back = f16_decode(&f16_encode(&xs));
        prop_assert_eq!(back.len(), xs.len());
        for (a, b) in xs.iter().zip(&back) {
            prop_assert!((a - b).abs() <= a.abs() / 1024.0 + 1e-6);
        }
    }
}
