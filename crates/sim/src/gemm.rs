//! The host's one non-transposed GEMM kernel.
//!
//! [`gemm`] adds an m×k row-major `a` times a k×n row-major `b` into an
//! m×n window of `acc`. The interpreter's `Gemm` statement, the reference
//! lane's `Linear` and its non-transposed `BatchMatMul` all call it, so
//! every fused kernel and every fallback projection share one loop.
//!
//! The loop is i-k-j. Each accumulator element adds its row's non-zero
//! `a` terms in k order, one rounded product and one rounded sum per
//! term; zero `a` terms are skipped. Taking the terms four at a time
//! keeps an element in a register across four updates without changing
//! that order.
//!
//! The loop is compiled twice: for the target's baseline (SSE2 on
//! x86-64) and for AVX-512F. [`gemm`] runs the AVX-512F copy when
//! `is_x86_feature_detected!` reports every feature it is compiled with,
//! and the baseline copy otherwise; the answer is looked up once per
//! process, and nothing else selects a copy. The copies differ only in
//! how many `j` columns one instruction updates. rustc's `avx512f` also
//! enables FMA, but Rust never contracts a multiply and an add into one,
//! so each product is rounded before it is added and both copies give
//! the same bits. A test checks every copy the CPU can run against a
//! scalar loop.

/// `acc[i·stride + j] += Σ_kk a[i·k + kk] · b[kk·n + j]` for `i < m` and
/// `j < n`, adding each element's non-zero `a` terms in `kk` order.
///
/// `a` holds at least `m·k` elements and `b` at least `k·n`. Row `i` of
/// the result lands at `acc[i·stride..i·stride + n]`, so `stride >= n`;
/// pass `&mut acc[col..]` to start the window at column `col`. Panics if
/// a slice is too short.
pub fn gemm(a: &[f32], b: &[f32], acc: &mut [f32], m: usize, n: usize, k: usize, stride: usize) {
    gemm_on(Isa::widest(), a, b, acc, m, n, k, stride);
}

/// An instruction set the kernel is compiled for, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx512f,
}

impl Isa {
    const ALL: &'static [Isa] = &[
        Isa::Portable,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f,
    ];

    /// Whether this CPU has every feature the copy is compiled with,
    /// including those rustc implies: AVX-512F implies AVX2, FMA and F16C,
    /// and AVX2 implies AVX and the SSE levels down to SSE3. Detected once
    /// per process.
    fn runs_here(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => {
                static HERE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
                *HERE.get_or_init(|| {
                    macro_rules! has {
                        ($($feature:tt),+) => {
                            $(std::arch::is_x86_feature_detected!($feature))&&+
                        };
                    }
                    has!(
                        "avx512f", "fma", "f16c", "avx2", "avx", "sse4.2", "sse4.1", "ssse3",
                        "sse3"
                    )
                })
            }
        }
    }

    /// The widest copy this CPU can run.
    fn widest() -> Isa {
        Isa::ALL
            .iter()
            .rev()
            .copied()
            .find(|isa| isa.runs_here())
            .unwrap_or(Isa::Portable)
    }
}

/// Run the copy compiled for `isa`. Panics if the CPU cannot run it.
#[allow(clippy::too_many_arguments)]
fn gemm_on(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    acc: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    stride: usize,
) {
    assert!(isa.runs_here(), "this CPU cannot run the {isa:?} GEMM");
    match isa {
        Isa::Portable => gemm_body(a, b, acc, m, n, k, stride),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f => {
            // SAFETY: `gemm_avx512f` is compiled for AVX-512F and the
            // features it implies, and the assert above checked each of
            // them.
            unsafe { gemm_avx512f(a, b, acc, m, n, k, stride) }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512f(
    a: &[f32],
    b: &[f32],
    acc: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    stride: usize,
) {
    gemm_body(a, b, acc, m, n, k, stride);
}

/// The loop itself, inlined into each copy so that each compiles it for
/// its own instruction set.
#[inline(always)]
fn gemm_body(a: &[f32], b: &[f32], acc: &mut [f32], m: usize, n: usize, k: usize, stride: usize) {
    let brow = |kk: usize| &b[kk * n..(kk + 1) * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut acc[i * stride..i * stride + n];
        let mut terms = arow.iter().enumerate().filter(|(_, &v)| v != 0.0);
        loop {
            match (terms.next(), terms.next(), terms.next(), terms.next()) {
                (Some((k0, &a0)), Some((k1, &a1)), Some((k2, &a2)), Some((k3, &a3))) => {
                    let (b0, b1) = (&brow(k0)[..n], &brow(k1)[..n]);
                    let (b2, b3) = (&brow(k2)[..n], &brow(k3)[..n]);
                    for j in 0..n {
                        let mut c = crow[j];
                        c += a0 * b0[j];
                        c += a1 * b1[j];
                        c += a2 * b2[j];
                        c += a3 * b3[j];
                        crow[j] = c;
                    }
                }
                (t0, t1, t2, _) => {
                    for (kk, &aval) in [t0, t1, t2].into_iter().flatten() {
                        for (c, &bv) in crow.iter_mut().zip(brow(kk)) {
                            *c += aval * bv;
                        }
                    }
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The definition: plain i-k-j, one term at a time, zero `a` terms
    /// skipped.
    fn scalar_gemm(
        a: &[f32],
        b: &[f32],
        acc: &mut [f32],
        (m, n, k): (usize, usize, usize),
        stride: usize,
    ) {
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    acc[i * stride + j] += av * b[kk * n + j];
                }
            }
        }
    }

    /// Mostly small finite values, with zeros, −0.0, ±∞ and NaN mixed in
    /// at rate `special` (per mille).
    fn values(rng: &mut rand::rngs::StdRng, len: usize, special: u32) -> Vec<f32> {
        const SPECIAL: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        (0..len)
            .map(|_| {
                if rng.gen_range(0..1000) < special {
                    SPECIAL[rng.gen_range(0..SPECIAL.len())]
                } else if rng.gen_range(0..4) == 0 {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect()
    }

    fn same(got: f32, want: f32) -> bool {
        if want.is_nan() {
            got.is_nan()
        } else {
            got.to_bits() == want.to_bits()
        }
    }

    /// Every copy this CPU can run equals the scalar definition bit for
    /// bit (NaN compared only as NaN), on ragged shapes, inside a wider
    /// accumulator at a column offset, over zeros, −0.0, infinities and
    /// NaN in `a`, `b` and the accumulator.
    #[test]
    fn every_copy_matches_the_scalar_loop() {
        let copies: Vec<Isa> = Isa::ALL.iter().copied().filter(|i| i.runs_here()).collect();
        assert_eq!(copies[0], Isa::Portable);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6E33);
        for case in 0..400 {
            let (m, n, k) = (
                rng.gen_range(1..7),
                rng.gen_range(1..70),
                rng.gen_range(1..40),
            );
            let acc_col = rng.gen_range(0..5);
            let stride = acc_col + n + rng.gen_range(0..4);
            let special = rng.gen_range(0..60);
            let a = values(&mut rng, m * k, special);
            let b = values(&mut rng, k * n, special);
            let init = values(&mut rng, m * stride, special);
            let mut want = init.clone();
            scalar_gemm(&a, &b, &mut want[acc_col..], (m, n, k), stride);
            for &isa in &copies {
                let mut got = init.clone();
                gemm_on(isa, &a, &b, &mut got[acc_col..], m, n, k, stride);
                for (e, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        same(g, w),
                        "case {case}, {isa:?}, {m}x{n}x{k}, stride {stride}, column \
                         {acc_col}: element {e} is {g}, want {w}"
                    );
                }
            }
        }
        println!(
            "checked GEMM copies {copies:?}; gemm runs {:?}",
            Isa::widest()
        );
    }
}
