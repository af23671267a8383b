//! GELU, the elementwise epilogue of every FFN chain.
//!
//! [`gelu`] is the definition: the tanh approximation, with `tanh`
//! taken in f64 from the host libm and rounded to f32. [`gelu_in_place`]
//! gives the same bits for every f32 input without calling libm on its
//! hot path. The interpreter's `Gelu` statement and the reference lane's
//! unfused `Gelu` run it; the chain oracle (`ChainSpec::reference` in
//! `mcfuser-ir`) keeps the scalar definition, so it checks the kernel
//! from the outside.
//!
//! The kernel computes `tanh(y)` in f64 itself: an odd Taylor series
//! for |y| below 1/16, and above it (1 − e)/(1 + e) with e = e^(−2|y|),
//! |y| clamped to 20, where `tanh` is 1 in f64. `e` comes from the
//! shift-trick range reduction e^z = 2^n · e^r, |r| ≤ ln 2 / 2, and a
//! degree-12 Taylor polynomial in `r`. The result `p` is within about
//! 2⁻⁴⁷·|p| of `tanh(y)`, and libm's `tanh` is within a few ulp
//! (2⁻⁵¹·|p|), so libm's f64 lies in [p − d, p + d] for d = 2⁻⁴⁰·|p|.
//! Rounding to f32 is monotone: when both ends of that interval round
//! to the same f32, libm's value rounds to it as well, and the lane keeps
//! `p as f32`. Otherwise `p` lies within `d` of the midpoint between two
//! f32 values (a near-tie), and the lane is recomputed by [`gelu`] in a
//! cold fix-up; so is a NaN lane, whose `p` is NaN and fails the test.
//! The main loop only notes whether its 64-element chunk has such a
//! lane, so it has no branch and vectorizes; the fix-up then tests that
//! chunk's lanes again one by one. The f32 arithmetic around `tanh` is [`gelu`]'s own, term for
//! term, so the kernel's bits cannot differ from [`gelu`]'s for any
//! input. A test checks a strided scan of every f32 bit pattern and the
//! edges on every copy the CPU runs; an ignored test scans all 2³²
//! inputs.
//!
//! Like [`gemm`](crate::gemm()), the kernel is compiled for the target's
//! baseline and for AVX-512F and runs the widest copy the CPU has; no
//! option selects a copy.

use crate::isa::Isa;

/// tanh-approximation GELU (matches common framework implementations).
/// The definition of the epilogue's numerics: [`gelu_in_place`]
/// reproduces it bit for bit, and the CPU reference oracle in
/// `mcfuser-ir` delegates here, so the interpreter and the oracle can
/// never drift apart.
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + ((0.797_884_6 * (x + 0.044715 * x * x * x)) as f64).tanh() as f32)
}

/// Replace every element `x` of `xs` with [`gelu`]`(x)`, bit for bit, on
/// the CPU's widest vectors.
pub fn gelu_in_place(xs: &mut [f32]) {
    gelu_on(Isa::widest(), xs);
}

/// Run the copy compiled for `isa`; returns how many lanes took the
/// fix-up. Panics if the CPU cannot run it.
fn gelu_on(isa: Isa, xs: &mut [f32]) -> usize {
    assert!(isa.runs_here(), "this CPU cannot run the {isa:?} GELU");
    match isa {
        Isa::Portable => gelu_body(xs),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f => {
            // SAFETY: `gelu_avx512f` is compiled for AVX-512F and the
            // features it implies, and the assert above checked each of
            // them.
            unsafe { gelu_avx512f(xs) }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gelu_avx512f(xs: &mut [f32]) -> usize {
    gelu_body(xs)
}

/// Elements per chunk: the unit of the main loop and of the fix-up.
const CHUNK: usize = 64;

/// The loop itself, inlined into each copy. A tail shorter than a chunk
/// runs as a chunk padded with zeros (GELU of 0 never needs the fix-up).
#[inline(always)]
fn gelu_body(xs: &mut [f32]) -> usize {
    let mut fixed = 0;
    let mut chunks = xs.chunks_exact_mut(CHUNK);
    for chunk in &mut chunks {
        fixed += gelu_chunk(chunk.try_into().unwrap());
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let mut padded = [0.0; CHUNK];
        padded[..tail.len()].copy_from_slice(tail);
        fixed += gelu_chunk(&mut padded);
        tail.copy_from_slice(&padded[..tail.len()]);
    }
    fixed
}

/// One chunk: every lane through [`lane`], then the fix-up if any lane's
/// rounding is in doubt.
#[inline(always)]
fn gelu_chunk(chunk: &mut [f32; CHUNK]) -> usize {
    let xs = *chunk;
    let mut unsure = false;
    for (v, &x) in chunk.iter_mut().zip(&xs) {
        let (g, sure) = lane(x);
        *v = g;
        unsure |= !sure;
    }
    if unsure {
        fix_up(chunk, &xs)
    } else {
        0
    }
}

/// Recompute through [`gelu`] every lane of the chunk whose rounding is
/// in doubt; returns how many there were. [`lane`] is the same f64
/// arithmetic on either copy, so this finds the lanes the main loop
/// doubted.
#[cold]
#[inline(never)]
fn fix_up(chunk: &mut [f32; CHUNK], xs: &[f32; CHUNK]) -> usize {
    let mut fixed = 0;
    for (v, &x) in chunk.iter_mut().zip(xs) {
        if !lane(x).1 {
            *v = gelu(x);
            fixed += 1;
        }
    }
    fixed
}

/// [`gelu`]`(x)` with `tanh` from [`tanh_f64`]'s `p`, and whether its
/// rounding is sure: whether p ± 2⁻⁴⁰·p round to the same f32.
#[inline(always)]
fn lane(x: f32) -> (f32, bool) {
    /// 2⁻⁴⁰: the bound on |p − libm| relative to |p|.
    const SLACK: f64 = 1.0 / (1u64 << 40) as f64;
    let p = tanh_f64((0.797_884_6 * (x + 0.044715 * x * x * x)) as f64);
    let d = p * SLACK;
    (0.5 * x * (1.0 + p as f32), (p - d) as f32 == (p + d) as f32)
}

/// `tanh(y)` to within about 2⁻⁴⁷ relative, NaN for a NaN `y`.
#[inline(always)]
fn tanh_f64(y: f64) -> f64 {
    // tanh(y) = y − y³/3 + 2y⁵/15 − 17y⁷/315 + 62y⁹/2835 − 1382y¹¹/155925
    // + 21844y¹³/6081075 − …; below |y| = 1/16 the next term is under
    // 2⁻⁶⁴ relative.
    let y2 = y * y;
    let mut s = 21844.0 / 6081075.0;
    s = s * y2 - 1382.0 / 155925.0;
    s = s * y2 + 62.0 / 2835.0;
    s = s * y2 - 17.0 / 315.0;
    s = s * y2 + 2.0 / 15.0;
    s = s * y2 - 1.0 / 3.0;
    let series = y + y * y2 * s;
    let a = y.abs();
    // Not `f64::min`: it would turn a NaN `a` into 20.
    let a = if a > 20.0 { 20.0 } else { a };
    let e = exp_neg2(a);
    let big = ((1.0 - e) / (1.0 + e)).copysign(y);
    if a < 1.0 / 16.0 {
        series
    } else {
        big
    }
}

/// e^(−2a) for `a` in [0, 20] (NaN for NaN): e^z = 2^n · e^r with
/// n = round(z / ln 2) and r = z − n·ln 2 in two parts (Cody–Waite), and
/// e^r from its degree-12 Taylor polynomial, whose relative error for
/// |r| ≤ ln 2 / 2 is about 2⁻⁵².
#[inline(always)]
fn exp_neg2(a: f64) -> f64 {
    /// 1.5 · 2⁵²: adding it rounds to an integer, kept in the low bits.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    /// ln 2 with its low 21 bits zero, so `n · LN2_HI` is exact, and the
    /// rest of ln 2 (fdlibm's split).
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const INV_FACTORIAL: [f64; 13] = [
        1.0,
        1.0,
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5040.0,
        1.0 / 40320.0,
        1.0 / 362880.0,
        1.0 / 3628800.0,
        1.0 / 39916800.0,
        1.0 / 479001600.0,
    ];
    let z = -2.0 * a;
    let shifted = z * std::f64::consts::LOG2_E + SHIFT;
    let n = shifted - SHIFT;
    let r = (z - n * LN2_HI) - n * LN2_LO;
    // n is in [−58, 0]: its low bits plus the exponent bias are 2^n's
    // exponent field.
    let two_n = f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52);
    let mut q = INV_FACTORIAL[12];
    for &c in INV_FACTORIAL[..12].iter().rev() {
        q = q * r + c;
    }
    q * two_n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same(got: f32, want: f32) -> bool {
        if want.is_nan() {
            got.is_nan()
        } else {
            got.to_bits() == want.to_bits()
        }
    }

    /// Run every copy this CPU has over `xs` and compare each element with
    /// [`gelu`] (NaN only as NaN); returns the fix-up count per copy.
    fn check(what: &str, xs: &[f32]) -> Vec<usize> {
        Isa::here()
            .into_iter()
            .map(|isa| {
                let mut got = xs.to_vec();
                let fixed = gelu_on(isa, &mut got);
                for (&x, &g) in xs.iter().zip(&got) {
                    let want = gelu(x);
                    assert!(
                        same(g, want),
                        "{what}, {isa:?}: gelu({x:e}) (bits {:#010x}) is {g:e}, want {want:e}",
                        x.to_bits()
                    );
                }
                fixed
            })
            .collect()
    }

    /// `x` and the `k` f32 values on either side of it, with both signs.
    fn around(x: f32, k: u32) -> Vec<f32> {
        let bits = x.abs().to_bits();
        (bits.saturating_sub(k)..=bits + k)
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
            .collect()
    }

    /// The least positive `x` for which `edge(x)` holds, for an `edge`
    /// that is false at 0, true at `f32::MAX` and monotone between.
    fn first_where(edge: impl Fn(f32) -> bool) -> f32 {
        let (mut lo, mut hi) = (0u32, f32::MAX.to_bits());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if edge(f32::from_bits(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        f32::from_bits(hi)
    }

    /// `gelu`'s own f32 argument to `tanh`.
    fn tanh_arg(x: f32) -> f32 {
        0.797_884_6 * (x + 0.044715 * x * x * x)
    }

    /// Every f32 bit pattern at a prime stride, about 2²⁰ inputs through
    /// every exponent, sign and NaN payload range.
    #[test]
    fn every_copy_matches_gelu_on_a_strided_scan() {
        let xs: Vec<f32> = (0..=u32::MAX).step_by(4093).map(f32::from_bits).collect();
        assert!(xs.len() > 1 << 20);
        check("strided scan", &xs);
    }

    /// ±0 and the least subnormals, the middle of the subnormals, the
    /// subnormal/normal boundary, ±`f32::MAX` with ±∞ and the first NaNs
    /// past it, then NaN payloads, quiet and signalling, of both signs.
    #[test]
    fn every_copy_matches_gelu_on_special_values() {
        let mut xs = around(0.0, 3);
        for edge in [f32::from_bits(0x0040_0000), f32::MIN_POSITIVE, f32::MAX] {
            xs.extend(around(edge, 3));
        }
        assert!(xs.contains(&f32::INFINITY) && xs.contains(&f32::NEG_INFINITY));
        for payload in [1, 2, 0x1234, 0x3f_ffff, 0x40_0000, 0x40_0001, 0x7f_ffff] {
            xs.push(f32::from_bits(0x7f80_0000 | payload));
            xs.push(f32::from_bits(0xff80_0000 | payload));
        }
        let nans = xs.iter().filter(|x| x.is_nan()).count();
        let fixed = check("special values", &xs);
        // Each NaN lane goes through the fix-up.
        assert!(fixed.iter().all(|&f| f >= nans), "{fixed:?}, {nans} NaN");
    }

    /// Where `0.044715·x·x·x` overflows to ∞ (and `tanh`'s argument with
    /// it), and where the argument gets past `tanh`'s last f32 below 1
    /// (|y| ≈ 9.01) and the clamp at |y| = 20.
    #[test]
    fn every_copy_matches_gelu_at_overflow_and_saturation() {
        let overflow = first_where(|x| (0.044715 * x * x * x).is_infinite());
        assert!(tanh_arg(overflow).is_infinite());
        check("cube overflow", &around(overflow, 64));
        let saturated = first_where(|x| (tanh_arg(x) as f64).tanh() as f32 == 1.0);
        assert!((9.0..9.1).contains(&tanh_arg(saturated)));
        check("tanh saturation", &around(saturated, 4096));
        let clamped = first_where(|x| tanh_arg(x) > 20.0);
        check("clamp", &around(clamped, 64));
    }

    /// Both sides of the switch from the series to the exponential form
    /// at |y| = 1/16.
    #[test]
    fn every_copy_matches_gelu_at_the_series_switch() {
        let switch = first_where(|x| tanh_arg(x) as f64 >= 1.0 / 16.0);
        assert!(tanh_arg(f32::from_bits(switch.to_bits() - 1)) < 1.0 / 16.0);
        check("series switch", &around(switch, 4096));
    }

    /// A run of inputs whose `tanh` lies within 2⁻⁴⁰ of an f32 midpoint on
    /// each side of zero: the fix-up decides every one of them, and they
    /// get [`gelu`]'s bits.
    #[test]
    fn near_ties_take_the_fix_up() {
        let (lo, hi) = (4.413_033_6e-4f32.to_bits(), 4.413_098_2e-4f32.to_bits());
        assert_eq!(hi - lo + 1, 223);
        for sign in [0, 0x8000_0000] {
            let xs: Vec<f32> = (lo..=hi).map(|b| f32::from_bits(b | sign)).collect();
            for fixed in check("near ties", &xs) {
                assert_eq!(fixed, xs.len());
            }
        }
    }

    /// Every length from 0 to 130 at offsets 0 to 3 of a longer buffer:
    /// whole chunks, tails, and a chunk with near-ties and NaN in it, with
    /// the elements outside the window left as they were.
    #[test]
    fn every_copy_matches_gelu_at_every_length_and_offset() {
        let ties = 4.413_033_6e-4f32.to_bits();
        let pool: Vec<f32> = (0..134u32)
            .map(|i| match i % 17 {
                3 => f32::from_bits(ties + i),
                11 => f32::NAN,
                _ => (i as f32 - 67.0) * 0.137,
            })
            .collect();
        for isa in Isa::here() {
            for offset in 0..4 {
                for len in 0..=130 {
                    let mut got = pool.clone();
                    gelu_on(isa, &mut got[offset..offset + len]);
                    for (i, (&g, &x)) in got.iter().zip(&pool).enumerate() {
                        let inside = (offset..offset + len).contains(&i);
                        let want = if inside { gelu(x) } else { x };
                        assert!(
                            same(g, want),
                            "{isa:?}, offset {offset}, length {len}: element {i} is {g:e}, \
                             want {want:e}"
                        );
                    }
                }
            }
        }
    }

    /// All 2³² inputs on every copy this CPU runs, one contiguous range per
    /// thread. `cargo test --release -p mcfuser-sim -- --ignored` runs it.
    #[test]
    #[ignore = "scans all 2^32 inputs: about a minute per copy on two threads at opt-level 3"]
    fn every_copy_matches_gelu_on_every_input() {
        const BLOCK: u64 = 1 << 12;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        for isa in Isa::here() {
            let started = std::time::Instant::now();
            let span = (1u64 << 32).div_ceil(threads);
            let (mismatches, fixed) = std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|t| {
                        s.spawn(move || {
                            let end = ((t + 1) * span).min(1 << 32);
                            let (mut bad, mut fixed) = (0u64, 0usize);
                            let mut xs = Vec::with_capacity(BLOCK as usize);
                            let mut start = t * span;
                            while start < end {
                                let stop = (start + BLOCK).min(end);
                                xs.clear();
                                xs.extend((start..stop).map(|b| f32::from_bits(b as u32)));
                                let mut got = xs.clone();
                                fixed += gelu_on(isa, &mut got);
                                for (&x, &g) in xs.iter().zip(&got) {
                                    if !same(g, gelu(x)) {
                                        if bad < 8 {
                                            eprintln!("{isa:?}: gelu({x:e}) is {g:e}");
                                        }
                                        bad += 1;
                                    }
                                }
                                start = stop;
                            }
                            (bad, fixed)
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().unwrap())
                    .fold((0, 0), |(b, f), (bt, ft)| (b + bt, f + ft))
            });
            println!(
                "{isa:?}: all 2^32 inputs, {mismatches} mismatches, {fixed} through the fix-up, \
                 {:.1?} on {threads} threads",
                started.elapsed()
            );
            assert_eq!(mismatches, 0, "{isa:?}");
        }
    }
}
