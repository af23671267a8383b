//! Element data types for simulated device buffers.
//!
//! The functional interpreter always computes in `f32` (mirroring
//! tensor-core FP16-multiply / FP32-accumulate pipelines); the data type
//! only affects *storage* — i.e. how many bytes a tile occupies in global
//! or shared memory and therefore how much traffic a kernel generates.

/// Storage element type of a tensor buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// IEEE 754 half precision — the tensor-core native input type.
    #[default]
    F16,
    /// bfloat16 — same byte width as `F16`, different dynamic range.
    Bf16,
    /// IEEE 754 single precision.
    F32,
}

impl DType {
    /// Width of one element in bytes.
    #[inline]
    pub const fn size_bytes(self) -> u64 {
        match self {
            DType::F16 | DType::Bf16 => 2,
            DType::F32 => 4,
        }
    }

    /// Whether tensor cores accept this type as an input operand.
    #[inline]
    pub const fn tensor_core_native(self) -> bool {
        matches!(self, DType::F16 | DType::Bf16)
    }

    /// Round a value to the representable precision of the type.
    ///
    /// Used by the functional interpreter when a value transits storage at
    /// this precision, so numerics of fused and unfused pipelines agree on
    /// what a round-trip through global memory does.
    #[inline]
    pub fn quantize(self, v: f32) -> f32 {
        match self {
            DType::F32 => v,
            DType::F16 => {
                // Emulate f16 by truncating the mantissa to 10 bits.
                truncate_mantissa(v, 13)
            }
            DType::Bf16 => truncate_mantissa(v, 16),
        }
    }
}

/// Zero the low `bits` mantissa bits of a finite `f32`; ±∞ and NaN
/// (exponent all ones) keep every bit. The mask is chosen from the
/// exponent without a branch, so a row of loads vectorizes.
#[inline]
fn truncate_mantissa(v: f32, bits: u32) -> f32 {
    const EXPONENT: u32 = 0x7F80_0000;
    let raw = v.to_bits();
    let non_finite = u32::from(raw & EXPONENT == EXPONENT);
    let mask = !((1u32 << bits) - 1) | non_finite.wrapping_neg();
    f32::from_bits(raw & mask)
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DType::F16 => "f16",
            DType::Bf16 => "bf16",
            DType::F32 => "f32",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::Bf16.size_bytes(), 2);
        assert_eq!(DType::F32.size_bytes(), 4);
    }

    #[test]
    fn tensor_core_nativeness() {
        assert!(DType::F16.tensor_core_native());
        assert!(DType::Bf16.tensor_core_native());
        assert!(!DType::F32.tensor_core_native());
    }

    #[test]
    fn quantize_f32_is_identity() {
        for v in [0.0f32, 1.5, -3.75, 1e30, -1e-30] {
            assert_eq!(DType::F32.quantize(v), v);
        }
    }

    #[test]
    fn quantize_f16_rounds_small_increments() {
        // 1.0 + 2^-13 is not representable in f16 (10-bit mantissa).
        let v = 1.0f32 + 2f32.powi(-13);
        assert_eq!(DType::F16.quantize(v), 1.0);
        // Values exactly representable survive.
        assert_eq!(DType::F16.quantize(1.5), 1.5);
        assert_eq!(DType::F16.quantize(-0.25), -0.25);
    }

    /// ±∞ and every NaN keep all their bits, payload included: a NaN
    /// whose payload sits in the truncated bits must not become ∞.
    #[test]
    fn quantize_preserves_non_finite() {
        let non_finite = [
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001),
            f32::from_bits(0xFF80_1FFF),
            f32::from_bits(0x7FC0_FFFF),
        ];
        for dt in [DType::F16, DType::Bf16, DType::F32] {
            for v in non_finite {
                assert_eq!(
                    dt.quantize(v).to_bits(),
                    v.to_bits(),
                    "{dt} {:#x}",
                    v.to_bits()
                );
            }
        }
        // The largest finite values are truncated, not kept.
        let max = f32::MAX;
        assert_eq!(DType::F16.quantize(max).to_bits(), max.to_bits() & !0x1FFF);
        assert_eq!(
            DType::Bf16.quantize(-max).to_bits(),
            (-max).to_bits() & !0xFFFF
        );
    }

    #[test]
    fn quantize_error_is_bounded() {
        // Relative error of f16 truncation is below 2^-10.
        for i in 1..1000 {
            let v = i as f32 * 0.37;
            let q = DType::F16.quantize(v);
            assert!((v - q).abs() <= v.abs() * 2f32.powi(-10) + f32::EPSILON);
        }
    }
}
