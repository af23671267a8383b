//! The host's one non-transposed GEMM kernel.
//!
//! [`gemm`] adds an m×k row-major `a` times a k×n row-major `b` into an
//! m×n window of `acc`. The interpreter's `Gemm` statement, the reference
//! lane's `Linear` and its non-transposed `BatchMatMul` all call it, so
//! every fused kernel and every fallback projection share one loop.
//!
//! The kernel is register-blocked. A block of the accumulator, a few
//! rows by up to 64 columns, is loaded into registers once, takes every
//! term of its rows across the whole `k` loop, and is stored once, so
//! an accumulator element never goes back to memory between terms.
//! Columns go in panels of the block's width and then of each narrower
//! power of two down to 8, then one column at a time; a panel's rows go
//! in blocks, with a shorter block at the bottom. A product of one or
//! two rows (decode's GEMVs) starts with panels twice as wide. Inside a
//! block each element still adds its row's non-zero `a` terms in k
//! order, one rounded product and one rounded sum per term, and a zero
//! `a` term is skipped for its (row, kk); the blocking changes which
//! element is updated when, never the order of one element's terms.
//!
//! The loop is compiled twice: for the target's baseline (SSE2 on
//! x86-64) and for AVX-512F. [`gemm`] runs the AVX-512F copy when
//! `is_x86_feature_detected!` reports every feature it is compiled with,
//! and the baseline copy otherwise; the answer is looked up once per
//! process, and nothing else selects a copy. The copies differ only in
//! their block, which fills half of their vector registers: 2 rows × 16
//! columns in sixteen 4-lane registers, 4 rows × 64 columns in
//! thirty-two 16-lane ones. rustc's `avx512f` also enables FMA, but Rust
//! never contracts a multiply and an add into one, so each product is
//! rounded before it is added and both copies give the same bits. A
//! test checks every copy the CPU can run against a scalar loop, on
//! shapes that reach every block, panel and tail.

use crate::isa::Isa;

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
        // Sixteen 4-lane registers: blocks of 2 rows × 16 columns.
        Isa::Portable => gemm_body::<16, 2>(a, b, acc, m, n, k, stride),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f => {
            // SAFETY: `gemm_avx512f` is compiled for AVX-512F and the
            // features it implies, and the assert above checked each of
            // them.
            unsafe { gemm_avx512f(a, b, acc, m, n, k, stride) }
        }
    }
}

/// Thirty-two 16-lane registers: blocks of 4 rows × 64 columns.
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
    gemm_body::<64, 4>(a, b, acc, m, n, k, stride);
}

/// The loop itself, inlined into each copy so that each compiles it for
/// its own instruction set. The copy's block is `ROWS` rows × `WIDEST`
/// columns; a product of at most `ROWS / 2` rows starts with panels of
/// `2 · WIDEST`, so its block still holds as many registers.
#[inline(always)]
fn gemm_body<const WIDEST: usize, const ROWS: usize>(
    a: &[f32],
    b: &[f32],
    acc: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    stride: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(stride >= n, "stride {stride} < n {n}");
    let (a, b) = (&a[..m * k], &b[..k * n]);
    let acc = &mut acc[..(m - 1) * stride + n];
    let widest = if 2 * m <= ROWS { 2 * WIDEST } else { WIDEST };
    let shape = (m, n, k, stride);
    let mut j = 0;
    if widest >= 128 {
        j = panels::<128, ROWS>(a, b, acc, shape, j);
    }
    if widest >= 64 {
        j = panels::<64, ROWS>(a, b, acc, shape, j);
    }
    if widest >= 32 {
        j = panels::<32, ROWS>(a, b, acc, shape, j);
    }
    j = panels::<16, ROWS>(a, b, acc, shape, j);
    j = panels::<8, ROWS>(a, b, acc, shape, j);
    panels::<1, ROWS>(a, b, acc, shape, j);
}

/// Every whole `W`-column panel from column `j`; returns the first
/// column left over.
#[inline(always)]
fn panels<const W: usize, const ROWS: usize>(
    a: &[f32],
    b: &[f32],
    acc: &mut [f32],
    (m, n, k, stride): (usize, usize, usize, usize),
    mut j: usize,
) -> usize {
    while j + W <= n {
        let mut i = 0;
        while i + ROWS <= m {
            block::<ROWS, W>(a, b, acc, (i, j), (n, k, stride));
            i += ROWS;
        }
        match m - i {
            0 => {}
            1 => block::<1, W>(a, b, acc, (i, j), (n, k, stride)),
            2 => block::<2, W>(a, b, acc, (i, j), (n, k, stride)),
            _ => block::<3, W>(a, b, acc, (i, j), (n, k, stride)),
        }
        j += W;
    }
    j
}

/// Rows `i..i + R`, columns `j..j + W`: the tile is read into `c`, each
/// row adds its non-zero `a` terms in `kk` order, and `c` is written
/// back.
#[inline(always)]
fn block<const R: usize, const W: usize>(
    a: &[f32],
    b: &[f32],
    acc: &mut [f32],
    (i, j): (usize, usize),
    (n, k, stride): (usize, usize, usize),
) {
    let mut c = [[0.0f32; W]; R];
    for (r, row) in c.iter_mut().enumerate() {
        row.copy_from_slice(&acc[(i + r) * stride + j..][..W]);
    }
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..][..k]);
    for kk in 0..k {
        let brow: &[f32; W] = b[kk * n + j..][..W].try_into().unwrap();
        for (row, arow) in c.iter_mut().zip(&arows) {
            let av = arow[kk];
            if av != 0.0 {
                for (cv, &bv) in row.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }
    for (r, row) in c.iter().enumerate() {
        acc[(i + r) * stride + j..][..W].copy_from_slice(row);
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
    /// bit (NaN compared only as NaN), over zeros, −0.0, infinities and
    /// NaN in `a`, `b` and the accumulator. The shapes reach every path:
    /// `m` up to twice the tallest row block plus one (full blocks, each
    /// bottom block, and the skinny widths), `n` at each panel width and
    /// one either side of it (every panel, every mix of panels and the
    /// one-column tail), `k` from 0 to 70, inside a wider accumulator at
    /// a column offset; then the serve and decode tile shapes.
    #[test]
    fn every_copy_matches_the_scalar_loop() {
        let copies = Isa::here();
        assert_eq!(copies[0], Isa::Portable);
        const PANEL_EDGES: [usize; 19] = [
            1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 257,
        ];
        // (m, k, n) of the tiles serving and decoding run.
        const TILES: [(usize, usize, usize); 10] = [
            (16, 64, 16),
            (16, 32, 16),
            (16, 64, 32),
            (16, 128, 64),
            (16, 64, 128),
            (32, 1, 32),
            (1, 128, 128),
            (2, 128, 512),
            (1, 128, 384),
            (64, 128, 128),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6E33);
        let mut shapes = Vec::new();
        for m in 1..=9 {
            for &n in &PANEL_EDGES {
                for _ in 0..2 {
                    shapes.push((m, rng.gen_range(0..71), n));
                }
            }
        }
        shapes.extend(TILES);
        for (case, &(m, k, n)) in shapes.iter().enumerate() {
            let acc_col = rng.gen_range(1..5);
            let stride = acc_col + n + rng.gen_range(1..4);
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
