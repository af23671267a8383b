//! Search-space generation (§III-A) and the lazy pruned space.
//!
//! The complete space is the Cartesian product of
//!
//! * every tiling expression (deep permutations + flat arrangements), and
//! * every tile-size vector (multiples of 16 per axis).
//!
//! For the paper's running example (2-GEMM chain, M = N = 1024,
//! K = H = 512) this is `(24 + 2) × ⌈1024/16⌉² × ⌈512/16⌉² ≈ 1.09 × 10⁸`
//! candidates — far too many to materialize, so *neither* space in this
//! module ever holds a candidate `Vec`:
//!
//! * [`SearchSpace`] is the un-pruned space, counted analytically and
//!   sampled lazily;
//! * [`CandidateSpace`] is the Rule-1–4 pruned space, addressed by a
//!   dense index `0..len()` that decodes arithmetically to
//!   `(expression, tile vector)`. Rule 4 is indexed by one survivor
//!   count per row of the Rule-3 tile grid (each row's survivors are a
//!   prefix of axis 0), found with one footprint evaluation per row on
//!   the calling thread — every surviving candidate is reachable by
//!   index, with no materialization cap and no truncation bias.
//!
//! Each fresh tuning task builds its own space; the engine merges
//! same-content chains into one task before it tunes, so N same-shaped
//! chains (every BERT layer) already pay for one build.

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use rand::prelude::*;
use rustc_hash::FxHashMap;

use mcfuser_ir::ChainSpec;
use mcfuser_sim::DeviceSpec;
use mcfuser_tile::{
    enumerate_all, estimate_shmem_bytes_for_tiles, rule4_fits, tile_option_count, tile_options,
    Candidate, LoweringOptions, SmemFootprint, TilingExpr,
};

use crate::prune::PruneStats;
use crate::tuner::SharedMemoryPruning;

/// The (un-pruned) search space of a chain.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// The chain being tuned.
    pub chain: ChainSpec,
    /// All tiling expressions (deep + flat).
    pub exprs: Vec<TilingExpr>,
    /// Tile-size options per axis.
    pub tile_domains: Vec<Vec<u64>>,
}

impl SearchSpace {
    /// Generate the full space of a chain.
    pub fn generate(chain: &ChainSpec) -> SearchSpace {
        let exprs = enumerate_all(chain);
        let tile_domains = (0..chain.num_axes())
            .map(|a| tile_options(chain.axis_extent(a)))
            .collect();
        SearchSpace {
            chain: chain.clone(),
            exprs,
            tile_domains,
        }
    }

    /// Total candidate count (expressions × tile combinations) — the
    /// paper's 1.09 × 10⁸ for the running example.
    pub fn count(&self) -> u128 {
        let tiles: u128 = (0..self.chain.num_axes())
            .map(|a| tile_option_count(self.chain.axis_extent(a)) as u128)
            .product();
        self.exprs.len() as u128 * tiles
    }

    /// Draw a uniformly random candidate.
    pub fn sample(&self, rng: &mut impl Rng) -> Candidate {
        let expr = self.exprs[rng.gen_range(0..self.exprs.len())].clone();
        let tiles = self
            .tile_domains
            .iter()
            .map(|d| d[rng.gen_range(0..d.len())])
            .collect();
        Candidate::new(expr, tiles)
    }
}

/// The pruned search space Algorithm 1 explores — lazy and
/// index-addressed.
///
/// A candidate is the pair `(expr_idx, combo_rank)` packed into one dense
/// index `0..len()`: `expr_idx = idx / surviving_combos()` selects the
/// Rule-1/2 representative expression and `combo_rank` the Rule-4
/// survivor among the Rule-3 tile combinations, in grid order (axis 0
/// fastest) over [`CandidateSpace::tile_domains`]. The order is
/// identical to what the old eager materialization produced, but nothing
/// is materialized: peak memory is O(1) in the candidate count (plus the
/// Rule-4 index, one count per grid *row*, never `exprs × combos`), and
/// there is no cap — index `len() - 1` is exactly as reachable as
/// index 0.
///
/// A grid row is the `|axis₀|` consecutive combinations that share the
/// tiles of axes `1..`. Both Rule-4 measures — lowering's footprint and
/// Eq. 1 — never decrease along axis 0 and the Rule-3 domains ascend, so
/// each row's Rule-4 survivors are a prefix of axis 0: the index stores,
/// per row, how many survivors precede it.
#[derive(Debug, Clone)]
pub struct CandidateSpace {
    /// The chain.
    pub chain: ChainSpec,
    /// Representative expression per surviving equivalence class.
    pub exprs: Vec<TilingExpr>,
    /// Rule-3-filtered tile options per axis.
    pub tile_domains: Vec<Vec<u64>>,
    /// The pruning waterfall (`after_rule4` always equals [`Self::len`]).
    pub stats: PruneStats,
    /// Total Rule-3 tile combinations (the grid Rule 4 filters).
    grid: u64,
    /// The measure Rule 4 pruned with, or none.
    pruning: SharedMemoryPruning,
    /// Lowering's footprint of the chain's kernels on the device, the
    /// default measure.
    footprint: SmemFootprint,
    /// The Rule-4 survivor index: `row_offsets[r]` is the number of
    /// survivors in grid rows `0..r`, so row `r` keeps the first
    /// `row_offsets[r + 1] - row_offsets[r]` tiles of axis 0. One entry
    /// per row plus a final total.
    row_offsets: Vec<u64>,
}

impl CandidateSpace {
    /// Build the lazy space from the Rule-1–3 survivors, pruning with
    /// `pruning` against `dev`'s shared memory per block (`Shm_max`);
    /// with [`SharedMemoryPruning::Off`] (the `-rule4` ablation) every
    /// row's prefix is the whole row. `stats` carries the waterfall up to
    /// `after_rule3`; `after_rule4` is finalized here from the exact
    /// survivor count.
    pub(crate) fn build(
        chain: &ChainSpec,
        exprs: Vec<TilingExpr>,
        tile_domains: Vec<Vec<u64>>,
        pruning: SharedMemoryPruning,
        dev: &DeviceSpec,
        mut stats: PruneStats,
    ) -> CandidateSpace {
        let grid_wide: u128 = tile_domains.iter().map(|d| d.len() as u128).product();
        assert!(
            grid_wide <= u64::MAX as u128,
            "Rule-3 tile grid exceeds u64 addressing"
        );
        let grid = grid_wide as u64;
        let row_len = tile_domains[0].len() as u64;
        let rows = if grid == 0 { 0 } else { grid / row_len };
        // The options every search lowers with, so the footprint is what
        // the searched kernels take.
        let footprint = SmemFootprint::new(chain, &LoweringOptions::for_device(dev));
        // With Rule 4 off (or nothing to filter) every row keeps all of
        // axis 0; otherwise each row's survivor count, prefix-summed.
        let row_offsets = if pruning == SharedMemoryPruning::Off || rows == 0 {
            (0..=rows).map(|r| r * row_len).collect()
        } else {
            let mut offsets = vec![0u64; rows as usize + 1];
            count_row_survivors(
                chain,
                &tile_domains,
                pruning,
                &footprint,
                dev.smem_per_block,
                &mut offsets[1..],
            );
            for r in 1..offsets.len() {
                offsets[r] += offsets[r - 1];
            }
            offsets
        };
        stats.after_rule4 = exprs.len() as u128 * row_offsets[rows as usize] as u128;
        CandidateSpace {
            chain: chain.clone(),
            exprs,
            tile_domains,
            stats,
            grid,
            pruning,
            footprint,
            row_offsets,
        }
    }

    /// The measure Rule 4 pruned this space with.
    pub fn shared_memory_pruning(&self) -> SharedMemoryPruning {
        self.pruning
    }

    /// Number of candidates reachable by index (= `stats.after_rule4`).
    pub fn len(&self) -> u64 {
        self.exprs.len() as u64 * self.surviving_combos()
    }

    /// Whether the pruned space has no candidates at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rule-4-surviving tile combinations (per expression).
    pub fn surviving_combos(&self) -> u64 {
        self.row_offsets[self.row_offsets.len() - 1]
    }

    /// Size of the Rule-3 tile grid Rule 4 filtered.
    pub fn grid_combos(&self) -> u64 {
        self.grid
    }

    /// Smallest shared memory across the Rule-3 grid under the measure
    /// Rule 4 pruned with: lowering's footprint, or Eq. 1 for the paper's
    /// rule. `Some` only when Rule 4 is enabled and the grid is
    /// non-empty; this is the diagnostic surfaced when the filter rejects
    /// every combination. It prices every combination, so only that
    /// error path calls it.
    pub fn min_estimated_smem(&self) -> Option<u64> {
        if self.pruning == SharedMemoryPruning::Off {
            return None;
        }
        (0..self.grid)
            .map(|combo| {
                let tiles = self.tiles_of(combo);
                match self.pruning {
                    SharedMemoryPruning::PaperEq1 => {
                        estimate_shmem_bytes_for_tiles(&self.chain, &tiles)
                    }
                    _ => self.footprint.bytes(&tiles),
                }
            })
            .min()
    }

    /// Decode candidate `idx` (`0..len()`): a binary search over the
    /// rows, then arithmetic.
    ///
    /// # Panics
    /// If `idx >= len()`.
    pub fn candidate(&self, idx: u64) -> Candidate {
        let tiles = self.tiles_at(idx);
        Candidate::new(self.exprs[self.expr_of(idx)].clone(), tiles)
    }

    /// The tile vector of candidate `idx`, without its expression.
    ///
    /// # Panics
    /// If `idx >= len()`.
    pub(crate) fn tiles_at(&self, idx: u64) -> Vec<u64> {
        assert!(idx < self.len(), "candidate index {idx} out of range");
        self.tiles_of(self.combo_id(idx % self.surviving_combos()))
    }

    /// Map a survivor rank (`0..surviving_combos()`) to its tile-grid id:
    /// the last row whose survivors start at or before the rank, then the
    /// rank's offset into that row's axis-0 prefix.
    fn combo_id(&self, rank: u64) -> u64 {
        let row = self.row_offsets.partition_point(|&c| c <= rank) - 1;
        row as u64 * self.tile_domains[0].len() as u64 + (rank - self.row_offsets[row])
    }

    /// The dense index of a candidate, or `None` if the candidate is not
    /// in this space (unknown expression, tile size outside a Rule-3
    /// domain, or a combination Rule 4 rejected). The inverse of
    /// [`CandidateSpace::candidate`]: search mutations use it to keep
    /// survivors addressed by index.
    pub fn index_of(&self, cand: &Candidate) -> Option<u64> {
        let expr = self.exprs.iter().position(|e| *e == cand.expr)?;
        self.index_in(expr, &cand.tiles)
    }

    /// [`CandidateSpace::index_of`] for a candidate whose expression is
    /// known by its position in [`CandidateSpace::exprs`]: no expression
    /// is compared.
    ///
    /// # Panics
    /// If `expr >= exprs.len()`.
    pub fn index_in(&self, expr: usize, tiles: &[u64]) -> Option<u64> {
        assert!(expr < self.exprs.len(), "expression {expr} out of range");
        if tiles.len() != self.tile_domains.len() {
            return None;
        }
        // Axis 0 gives the offset into the row; axes 1.. give the row
        // (mixed radix, axis 1 fastest).
        let offset = self.tile_domains[0].iter().position(|&x| x == tiles[0])? as u64;
        let mut row = 0usize;
        let mut mul = 1usize;
        for (d, &t) in self.tile_domains[1..].iter().zip(&tiles[1..]) {
            row += d.iter().position(|&x| x == t)? * mul;
            mul *= d.len();
        }
        let first = self.row_offsets[row];
        (offset < self.row_offsets[row + 1] - first)
            .then(|| expr as u64 * self.surviving_combos() + first + offset)
    }

    /// Position in [`CandidateSpace::exprs`] of candidate `idx`'s
    /// expression.
    pub fn expr_of(&self, idx: u64) -> usize {
        (idx / self.surviving_combos()) as usize
    }

    /// Decode a tile-grid id to its tile vector: mixed-radix with axis 0
    /// as the fastest digit — the same odometer order the eager
    /// materialization enumerated.
    fn tiles_of(&self, combo: u64) -> Vec<u64> {
        let mut rest = combo;
        self.tile_domains
            .iter()
            .map(|d| {
                let t = d[(rest % d.len() as u64) as usize];
                rest /= d.len() as u64;
                t
            })
            .collect()
    }

    /// Stream every candidate in index order without materializing any.
    /// `iter().nth(i)` equals [`CandidateSpace::candidate`]`(i)`.
    pub fn iter(&self) -> impl Iterator<Item = Candidate> + '_ {
        let row_len = self.tile_domains[0].len() as u64;
        self.exprs.iter().flat_map(move |e| {
            // Walk the ranks in order, stepping the row past every row
            // whose survivors all come before the rank.
            (0..self.surviving_combos()).scan(0, move |row, rank| {
                while self.row_offsets[*row + 1] <= rank {
                    *row += 1;
                }
                let combo = *row as u64 * row_len + (rank - self.row_offsets[*row]);
                Some(Candidate::new(e.clone(), self.tiles_of(combo)))
            })
        })
    }

    /// Visit every candidate in index order as `(index, expression
    /// position, tiles)` — the order of [`CandidateSpace::iter`], without
    /// cloning an expression or allocating per candidate: one tile buffer
    /// is reused for the whole walk.
    pub fn visit(&self, mut f: impl FnMut(u64, usize, &[u64])) {
        let Some((d0, rest)) = self.tile_domains.split_first() else {
            return;
        };
        let combos = self.surviving_combos();
        let mut tiles = vec![0u64; self.tile_domains.len()];
        for expr in 0..self.exprs.len() {
            let base = expr as u64 * combos;
            for (row, w) in self.row_offsets.windows(2).enumerate() {
                let (first, end) = (w[0], w[1]);
                if first == end {
                    continue;
                }
                // The row's tiles of axes 1.. (mixed radix, axis 1
                // fastest), then its axis-0 prefix.
                let mut digits = row as u64;
                for (t, d) in tiles[1..].iter_mut().zip(rest) {
                    *t = d[(digits % d.len() as u64) as usize];
                    digits /= d.len() as u64;
                }
                for (offset, &t0) in (0..).zip(&d0[..(end - first) as usize]) {
                    tiles[0] = t0;
                    f(base + first + offset, expr, &tiles);
                }
            }
        }
    }

    /// Draw a candidate from the *Rule-1–3* space, deliberately ignoring
    /// Rule 4 — samples span the pruning boundary (Fig. 10's quadrant
    /// analysis needs both sides of the line).
    pub fn sample_rule3(&self, rng: &mut impl Rng) -> Candidate {
        let expr = self.exprs[rng.gen_range(0..self.exprs.len())].clone();
        let tiles = self
            .tile_domains
            .iter()
            .map(|d| d[rng.gen_range(0..d.len())])
            .collect();
        Candidate::new(expr, tiles)
    }
}

/// Fill `counts[r]` with the Rule-4 survivors of grid row `r`. Both
/// measures never decrease along axis 0 and its Rule-3 domain ascends,
/// so a row's survivors are a prefix of axis 0.
///
/// * Lowering's footprint is `α·t + β` over a row
///   ([`SmemFootprint::row`]): each row is priced once, and its prefix
///   is the axis-0 tiles with `α·t + β ≤ limit`.
/// * The paper's rule ([`rule4_fits`]: Eq. 1 within 1.2 × `limit`) is
///   found by one binary search per row.
///
/// (Only axis 0 is monotone: a tail LayerNorm's streamed panel makes
/// Eq. 1 fall along the last axis.)
fn count_row_survivors(
    chain: &ChainSpec,
    tile_domains: &[Vec<u64>],
    pruning: SharedMemoryPruning,
    footprint: &SmemFootprint,
    limit: u64,
    counts: &mut [u64],
) {
    let (d0, rest) = tile_domains.split_first().expect("a chain has axes");
    // Row odometer over axes 1..; `tiles[0]` is the axis-0 slot.
    let mut digits = vec![0usize; rest.len()];
    let mut tiles: Vec<u64> = tile_domains.iter().map(|d| d[0]).collect();
    for count in counts {
        *count = match pruning {
            SharedMemoryPruning::PaperEq1 => d0.partition_point(|&t| {
                tiles[0] = t;
                rule4_fits(chain, &tiles, limit)
            }),
            _ => {
                let (slope, base) = footprint.row(&tiles);
                d0.partition_point(|&t| slope * t + base <= limit)
            }
        } as u64;
        for (a, d) in rest.iter().enumerate() {
            digits[a] += 1;
            if digits[a] < d.len() {
                tiles[a + 1] = d[digits[a]];
                break;
            }
            digits[a] = 0;
            tiles[a + 1] = d[0];
        }
    }
}

/// Content identity of a built [`CandidateSpace`]: everything space
/// construction reads *except the chain's name* — batch/m/dims (the
/// tile domains), epilogues and biases (expression enumeration and
/// Rules 1–2), dtype, prologue and stitched epilogue (the Rule-4
/// measures and the full-row pin), the expression policy, and Rule 4's
/// measure and budget. Two chains sharing this fingerprint build
/// bit-identical spaces. Only [`SpaceCache`]'s callers key on it.
pub fn space_fingerprint(
    chain: &ChainSpec,
    dev: &DeviceSpec,
    policy: &crate::tuner::SpacePolicy,
) -> String {
    format!(
        "b{}|m{}|d{:?}|e{:?}|bi{:?}|t{:?}|st{:?}{:?}|deep{}|r4{:?}|smem{}",
        chain.batch,
        chain.m,
        chain.dims,
        chain.epilogues,
        chain.biases,
        chain.dtype,
        chain.prologue,
        chain.stitch_epilogue,
        policy.deep_tiling_only,
        policy.shared_memory_pruning,
        dev.smem_per_block,
    )
}

/// Built candidate spaces keyed by [`space_fingerprint`], each built
/// once even under concurrent requests. The engine does not use it:
/// it builds one space per fresh tuning task. It remains only for the
/// benchmark's compile replay, and ROADMAP item 8 deletes it.
#[derive(Debug, Default)]
pub struct SpaceCache {
    entries: Mutex<FxHashMap<String, Arc<OnceLock<Arc<CandidateSpace>>>>>,
}

impl SpaceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The space for `fingerprint`, building it with `build` if this is
    /// the first request. A concurrent duplicate request waits for the
    /// in-flight build instead of scanning twice.
    pub fn get_or_build(
        &self,
        fingerprint: String,
        build: impl FnOnce() -> CandidateSpace,
    ) -> Arc<CandidateSpace> {
        let cell = self.entries.lock().entry(fingerprint).or_default().clone();
        cell.get_or_init(|| Arc::new(build())).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{build_candidate_space, SpacePolicy};
    use rand::rngs::StdRng;

    #[test]
    fn paper_example_count() {
        // (24 + 2) × 64² × 32² = 109 051 904 (§III-C).
        let chain = ChainSpec::gemm_chain("g", 1, 1024, 1024, 512, 512);
        let space = SearchSpace::generate(&chain);
        assert_eq!(space.count(), 109_051_904);
    }

    #[test]
    fn sample_is_within_domains() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 128);
        let space = SearchSpace::generate(&chain);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let c = space.sample(&mut rng);
            assert_eq!(c.tiles.len(), 4);
            for (a, t) in c.tiles.iter().enumerate() {
                assert!(space.tile_domains[a].contains(t));
            }
            assert!(space.exprs.contains(&c.expr));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 128);
        let space = SearchSpace::generate(&chain);
        let a: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..10).map(|_| space.sample(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..10).map(|_| space.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn attention_space_nonempty() {
        let chain = ChainSpec::attention("s", 8, 512, 512, 64, 64);
        let space = SearchSpace::generate(&chain);
        assert_eq!(space.exprs.len(), 26);
        assert!(space.count() > 0);
    }

    fn pruned(chain: &ChainSpec) -> CandidateSpace {
        build_candidate_space(chain, &DeviceSpec::a100(), &SpacePolicy::default())
    }

    /// Whether lowering's footprint of `c` fits the device: the default
    /// Rule 4.
    fn fits(chain: &ChainSpec, c: &Candidate, dev: &DeviceSpec) -> bool {
        mcfuser_tile::smem_footprint(chain, &c.tiles, &LoweringOptions::default())
            <= dev.smem_per_block
    }

    #[test]
    fn indexing_matches_streaming() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 128);
        let space = pruned(&chain);
        assert!(!space.is_empty());
        for (i, streamed) in space.iter().enumerate() {
            assert_eq!(space.candidate(i as u64), streamed, "index {i}");
        }
        assert_eq!(space.iter().count() as u64, space.len());
    }

    #[test]
    fn stats_after_rule4_equals_len() {
        let chain = ChainSpec::attention("s", 8, 256, 256, 64, 64);
        let space = pruned(&chain);
        assert_eq!(space.stats.after_rule4, space.len() as u128);
    }

    #[test]
    fn every_indexed_candidate_passes_rule4() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 512, 256, 256);
        let space = pruned(&chain);
        let dev = DeviceSpec::a100();
        let step = (space.len() / 97).max(1);
        let mut idx = 0;
        while idx < space.len() {
            let c = space.candidate(idx);
            assert!(fits(&chain, &c, &dev));
            idx += step;
        }
    }

    #[test]
    fn index_of_inverts_candidate_with_and_without_rule4() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 512, 256, 256);
        let filtered = pruned(&chain);
        let passall = {
            let space = SearchSpace::generate(&chain);
            let (reps, domains, stats) = crate::prune::rules123(&chain, &space);
            let dev = DeviceSpec::a100();
            CandidateSpace::build(&chain, reps, domains, SharedMemoryPruning::Off, &dev, stats)
        };
        assert!(filtered.surviving_combos() < passall.surviving_combos());
        for space in [&filtered, &passall] {
            let step = (space.len() / 67).max(1);
            let mut idx = 0;
            while idx < space.len() {
                assert_eq!(
                    space.index_of(&space.candidate(idx)),
                    Some(idx),
                    "round trip at {idx}"
                );
                idx += step;
            }
        }
    }

    #[test]
    fn index_of_rejects_foreign_candidates() {
        let chain = ChainSpec::gemm_chain("g", 1, 1024, 1024, 512, 512);
        let space = pruned(&chain);
        // A tile size outside every Rule-3 domain.
        let mut foreign = space.candidate(0);
        foreign.tiles[0] = 7;
        assert_eq!(space.index_of(&foreign), None);
        // A Rule-4-rejected combination (sample_rule3 spans the boundary).
        let dev = DeviceSpec::a100();
        let mut rng = StdRng::seed_from_u64(11);
        let rejected = std::iter::repeat_with(|| space.sample_rule3(&mut rng))
            .take(400)
            .find(|c| !fits(&chain, c, &dev))
            .expect("some candidate is rejected by Rule 4");
        assert_eq!(space.index_of(&rejected), None);
        // A wrong-arity tile vector.
        let mut short = space.candidate(0);
        short.tiles.pop();
        assert_eq!(space.index_of(&short), None);
    }

    #[test]
    fn stitched_chains_get_their_own_fingerprint() {
        // A stitched chain and its unstitched twin share batch/m/dims/
        // epilogues but must not share a Rule-4 space (different Eq. 1).
        let plain = ChainSpec::gemm_chain("g", 1, 512, 64, 256, 256);
        let mut st = plain.clone();
        st.prologue = Some(mcfuser_ir::PrologueSpec {
            residual: true,
            affine: true,
            a_half: false,
            eps: 1e-5,
        });
        st.stitch_epilogue = Some(mcfuser_ir::EpilogueStitch {
            residual: mcfuser_ir::ResidualSource::PrologueOut,
            layer_norm: true,
            affine: true,
            eps: 1e-5,
        });
        let dev = DeviceSpec::a100();
        let pol = crate::tuner::SpacePolicy::default();
        assert_ne!(
            space_fingerprint(&plain, &dev, &pol),
            space_fingerprint(&st, &dev, &pol)
        );
        assert_eq!(
            space_fingerprint(&st.unstitched(), &dev, &pol),
            space_fingerprint(&plain, &dev, &pol)
        );
    }

    #[test]
    fn min_estimated_smem_is_reported() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let space = pruned(&chain);
        let min = space.min_estimated_smem().unwrap();
        // The smallest-tile combination bounds the minimum from above,
        // under the footprint the default policy prunes with and under
        // Eq. 1 for the paper's rule.
        let smallest: Vec<u64> = space.tile_domains.iter().map(|d| d[0]).collect();
        let opts = LoweringOptions::default();
        assert!(min <= mcfuser_tile::smem_footprint(&chain, &smallest, &opts));
        assert!(min > 0);
        let paper = build_candidate_space(
            &chain,
            &DeviceSpec::a100(),
            &SpacePolicy {
                shared_memory_pruning: SharedMemoryPruning::PaperEq1,
                ..SpacePolicy::default()
            },
        );
        let min = paper.min_estimated_smem().unwrap();
        assert!(min <= estimate_shmem_bytes_for_tiles(&chain, &smallest));
        assert!(min > 0);
    }

    #[test]
    fn sample_rule3_spans_the_pruning_boundary() {
        let chain = ChainSpec::gemm_chain("g", 1, 1024, 1024, 512, 512);
        let space = pruned(&chain);
        let dev = DeviceSpec::a100();
        let mut rng = StdRng::seed_from_u64(3);
        let (mut kept, mut cut) = (0, 0);
        for _ in 0..400 {
            let c = space.sample_rule3(&mut rng);
            if fits(&chain, &c, &dev) {
                kept += 1;
            } else {
                cut += 1;
            }
        }
        assert!(kept > 0 && cut > 0, "kept {kept} cut {cut}");
    }
}
