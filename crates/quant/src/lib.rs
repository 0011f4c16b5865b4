//! Quantization substrate for the APF reproduction.
//!
//! §7.7 of the paper stacks a `Quantization_Manager` on top of the
//! `APF_Manager`: after APF filters out the frozen scalars, the surviving
//! values are compressed to IEEE binary16 (`Tensor.half()`), halving wire
//! size again. This crate provides that binary16 codec ([`f16_encode`] /
//! [`f16_decode`]) and the [`EmaCodec`] that packs dormant clients'
//! optimizer state.
//!
//! # Example
//!
//! ```
//! use apf_quant::{f16_encode, f16_decode};
//!
//! let xs = vec![0.5f32, -1.25, 3.0];
//! let wire = f16_encode(&xs);
//! let back = f16_decode(&wire);
//! assert_eq!(back, xs); // these values are exactly representable
//! ```

mod ema;
mod f16;

pub use ema::{EmaCodec, EmaCodecError};
pub use f16::{f16_bits_to_f32, f16_decode, f16_encode, f16_roundtrip_in_place, f32_to_f16_bits};
