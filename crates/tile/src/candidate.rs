//! A schedule candidate: tiling expression + tile-size vector.
//!
//! "Any candidate in the search space can be delineated by the structure
//! of loops and the values of l⃗" (§III-A). The candidate also knows how
//! Rule 1 maps it onto the GPU: output-spatial axes (and the batch) bind
//! to `blockIdx`; the rest become per-block loops.

use mcfuser_ir::ChainSpec;

use crate::expr::TilingExpr;
use crate::loops::{grid_axes, LoopId};

/// A fully specified schedule candidate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// The loop arrangement.
    pub expr: TilingExpr,
    /// Tile size per axis (indexed by `LoopId`).
    pub tiles: Vec<u64>,
}

impl Candidate {
    /// Construct from an expression and one tile size per axis (not
    /// checked here: indexing a missing axis panics later).
    pub fn new(expr: TilingExpr, tiles: Vec<u64>) -> Candidate {
        Candidate { expr, tiles }
    }

    /// Tile size of an axis.
    #[inline]
    pub fn tile(&self, axis: LoopId) -> u64 {
        self.tiles[axis.0]
    }

    /// Trip count of an axis: `⌈extent / tile⌉`.
    #[inline]
    pub fn trips(&self, chain: &ChainSpec, axis: LoopId) -> u64 {
        trips_for_tiles(chain, &self.tiles, axis)
    }

    /// Per-thread-block sub-tiling expression (Rule 1): the expression
    /// with all grid-bound axes removed.
    pub fn block_expr(&self, chain: &ChainSpec) -> TilingExpr {
        self.expr.without_axes(&grid_axes(chain))
    }

    /// Axes whose loop runs one trip: the dead loops of §III-B.
    pub fn dead_axes<'a>(&'a self, chain: &'a ChainSpec) -> impl Iterator<Item = LoopId> + 'a {
        dead_axes_for_tiles(chain, &self.tiles)
    }

    /// The per-block expression with extent-1 loops also removed — the
    /// dead-loop elimination of §III-B (Fig. 5(b)).
    pub fn live_block_expr(&self, chain: &ChainSpec) -> TilingExpr {
        let dead: Vec<LoopId> = self.dead_axes(chain).collect();
        self.block_expr(chain).without_axes(&dead)
    }

    /// Launch-grid extents `[batch, m-tiles, d_L-tiles…]` (one entry per
    /// output-spatial axis, batch first).
    pub fn grid(&self, chain: &ChainSpec) -> Vec<u64> {
        let mut g = vec![chain.batch];
        for a in grid_axes(chain) {
            g.push(self.trips(chain, a));
        }
        g
    }

    /// Number of thread blocks (the `N_block` of Eq. 5): the product of
    /// [`Candidate::grid`], computed without building it.
    pub fn num_blocks(&self, chain: &ChainSpec) -> u64 {
        num_blocks_for_tiles(chain, &self.tiles)
    }

    /// Fraction of wasted (padded) work: `Π ceil(dim/t)·t / Π dim − 1`
    /// (Rule 3 prunes candidates with excessive padding).
    pub fn padding_ratio(&self, chain: &ChainSpec) -> f64 {
        let mut padded = 1.0f64;
        let mut exact = 1.0f64;
        for a in (0..chain.num_axes()).map(LoopId) {
            let d = chain.axis_extent(a.0) as f64;
            let t = self.tile(a) as f64;
            padded *= (d / t).ceil() * t;
            exact *= d;
        }
        padded / exact - 1.0
    }

    /// True if any axis needs padding (tile does not divide extent).
    pub fn needs_padding(&self, chain: &ChainSpec) -> bool {
        (0..chain.num_axes()).any(|a| {
            let d = chain.axis_extent(a);
            let t = self.tiles[a];
            t == 0 || !d.is_multiple_of(t)
        })
    }

    /// Canonical structural key of the candidate's per-block program used
    /// by Rule-1 deduplication: two *expressions* are equivalent iff their
    /// per-block sub-expressions (with the same tile assignment) coincide.
    pub fn dedup_key(&self, chain: &ChainSpec) -> String {
        self.block_expr(chain).display(chain)
    }

    /// Human-readable form: `mhnk[m=128,k=64,n=64,h=64]`.
    pub fn describe(&self, chain: &ChainSpec) -> String {
        let mut s = self.expr.display(chain);
        s.push('[');
        for a in 0..chain.num_axes() {
            if a > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}={}", chain.axis_name(a), self.tiles[a]));
        }
        s.push(']');
        s
    }
}

/// [`Candidate::trips`] from a bare tile vector (`tiles[a]` = tile size
/// of axis `a`), so a search can price borrowed tiles without building a
/// candidate.
#[inline]
pub fn trips_for_tiles(chain: &ChainSpec, tiles: &[u64], axis: LoopId) -> u64 {
    chain.axis_extent(axis.0).div_ceil(tiles[axis.0].max(1))
}

/// [`Candidate::dead_axes`] from a bare tile vector.
pub fn dead_axes_for_tiles<'a>(
    chain: &'a ChainSpec,
    tiles: &'a [u64],
) -> impl Iterator<Item = LoopId> + 'a {
    (0..chain.num_axes())
        .map(LoopId)
        .filter(move |&a| trips_for_tiles(chain, tiles, a) == 1)
}

/// [`Candidate::num_blocks`] from a bare tile vector.
pub fn num_blocks_for_tiles(chain: &ChainSpec, tiles: &[u64]) -> u64 {
    let [m, d_l] = grid_axes(chain);
    chain.batch * trips_for_tiles(chain, tiles, m) * trips_for_tiles(chain, tiles, d_l)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> ChainSpec {
        ChainSpec::gemm_chain("g", 1, 1024, 1024, 512, 512)
    }

    fn cand(expr: &str, tiles: Vec<u64>) -> Candidate {
        let c = chain();
        Candidate::new(TilingExpr::parse(expr, &c).unwrap(), tiles)
    }

    #[test]
    fn trips_and_grid() {
        let c = chain();
        // tiles m=128, k=64, n=64, h=128.
        let cd = cand("mhnk", vec![128, 64, 64, 128]);
        assert_eq!(cd.trips(&c, LoopId(0)), 8); // m
        assert_eq!(cd.trips(&c, LoopId(1)), 8); // k
        assert_eq!(cd.trips(&c, LoopId(2)), 16); // n
        assert_eq!(cd.trips(&c, LoopId(3)), 4); // h
        assert_eq!(cd.grid(&c), vec![1, 8, 4]);
        assert_eq!(cd.num_blocks(&c), 32);
    }

    #[test]
    fn rule1_equivalence_of_mhnk_and_mnkh() {
        // The paper's example: both yield sub-tiling expression "nk".
        let c = chain();
        let a = cand("mhnk", vec![128, 64, 64, 128]);
        let b = cand("mnkh", vec![128, 64, 64, 128]);
        assert_eq!(a.dedup_key(&c), "nk");
        assert_eq!(a.dedup_key(&c), b.dedup_key(&c));
    }

    #[test]
    fn dead_loop_elimination_when_tile_covers_dim() {
        let c = chain();
        // k tile = 512 covers the whole K dim → the k loop dies and the
        // per-block expression collapses to "n" (Fig. 5(b)).
        let cd = cand("mhnk", vec![128, 512, 64, 128]);
        assert_eq!(cd.block_expr(&c).display(&c), "nk");
        assert_eq!(cd.live_block_expr(&c).display(&c), "n");
    }

    #[test]
    fn padding_ratio_zero_for_divisors() {
        let c = chain();
        let cd = cand("mnkh", vec![128, 64, 64, 128]);
        assert!(!cd.needs_padding(&c));
        assert_eq!(cd.padding_ratio(&c), 0.0);
    }

    #[test]
    fn padding_ratio_positive_otherwise() {
        let c = chain();
        // 1024 % 96 != 0: padded.
        let cd = cand("mnkh", vec![96, 64, 64, 128]);
        assert!(cd.needs_padding(&c));
        assert!(cd.padding_ratio(&c) > 0.0);
    }

    #[test]
    fn describe_is_readable() {
        let c = chain();
        let cd = cand("mn(k,h)", vec![128, 64, 64, 128]);
        assert_eq!(cd.describe(&c), "mn(k,h)[m=128,k=64,n=64,h=128]");
    }

    #[test]
    fn flat_block_expr() {
        let c = chain();
        let cd = cand("mn(k,h)", vec![128, 64, 64, 128]);
        // Binding m,h leaves n(k).
        assert_eq!(cd.block_expr(&c).display(&c), "nk");
    }
}
