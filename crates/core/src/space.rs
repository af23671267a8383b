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
//!   prefix of axis 0), built by one binary search per row on the
//!   calling thread — every surviving candidate is reachable by index,
//!   with no materialization cap and no truncation bias.
//!
//! Built spaces are content-addressed ([`space_fingerprint`]) and
//! shareable across tuning tasks through the engine-level
//! [`SpaceCache`]: N same-shaped chains (every BERT layer) pay for one
//! Rule-4 scan instead of N.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use rand::prelude::*;
use rustc_hash::FxHashMap;

use mcfuser_ir::ChainSpec;
use mcfuser_sim::DeviceSpec;
use mcfuser_tile::{
    enumerate_all, estimate_shmem_bytes_for_tiles, tile_option_count, tile_options, Candidate,
    TilingExpr, RULE4_MARGIN,
};

use crate::prune::PruneStats;

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
/// tiles of axes `1..`. Eq. 1 never decreases along axis 0 and the
/// Rule-3 domains ascend, so each row's Rule-4 survivors are a prefix of
/// axis 0: the index stores, per row, how many survivors precede it.
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
    /// Shared-memory budget behind Rule 4; `None` when the filter is
    /// disabled ([`SpacePolicy::shared_memory_pruning`] = false).
    ///
    /// [`SpacePolicy::shared_memory_pruning`]: crate::SpacePolicy::shared_memory_pruning
    smem_limit: Option<u64>,
    /// The Rule-4 survivor index: `row_offsets[r]` is the number of
    /// survivors in grid rows `0..r`, so row `r` keeps the first
    /// `row_offsets[r + 1] - row_offsets[r]` tiles of axis 0. One entry
    /// per row plus a final total.
    row_offsets: Vec<u64>,
}

impl CandidateSpace {
    /// Build the lazy space from the Rule-1–3 survivors. `smem_limit`
    /// enables Rule 4 (`Some(Shm_max)`) or disables it (`None`, the
    /// `-rule4` ablation: every row's prefix is the whole row). `stats`
    /// carries the waterfall up to `after_rule3`; `after_rule4` is
    /// finalized here from the exact survivor count.
    pub(crate) fn build(
        chain: &ChainSpec,
        exprs: Vec<TilingExpr>,
        tile_domains: Vec<Vec<u64>>,
        smem_limit: Option<u64>,
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
        // With Rule 4 off (or nothing to filter) every row keeps all of
        // axis 0.
        let row_offsets = match smem_limit {
            Some(limit) if rows > 0 => rule4_row_offsets(chain, &tile_domains, rows, limit),
            _ => (0..=rows).map(|r| r * row_len).collect(),
        };
        stats.after_rule4 = exprs.len() as u128 * row_offsets[rows as usize] as u128;
        CandidateSpace {
            chain: chain.clone(),
            exprs,
            tile_domains,
            stats,
            grid,
            smem_limit,
            row_offsets,
        }
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

    /// Smallest Eq. 1 shared-memory estimate across the Rule-3 grid.
    /// `Some` only when Rule 4 is enabled and the grid is non-empty; this
    /// is the diagnostic surfaced when the filter rejects every
    /// combination. It estimates every combination, so only that error
    /// path calls it.
    pub fn min_estimated_smem(&self) -> Option<u64> {
        self.smem_limit?;
        (0..self.grid)
            .map(|combo| estimate_shmem_bytes_for_tiles(&self.chain, &self.tiles_of(combo)))
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

/// Rule-4 test for a decoded tile vector (Eq. 1 is
/// expression-independent, so no `Candidate` is built).
fn combo_fits(chain: &ChainSpec, tiles: &[u64], limit: u64) -> bool {
    estimate_shmem_bytes_for_tiles(chain, tiles) as f64 <= RULE4_MARGIN * limit as f64
}

/// The Rule-4 survivor index over a grid of `rows` rows: each row's
/// survivor count, prefix-summed into `rows + 1` offsets.
fn rule4_row_offsets(
    chain: &ChainSpec,
    tile_domains: &[Vec<u64>],
    rows: u64,
    limit: u64,
) -> Vec<u64> {
    let mut offsets = vec![0u64; rows as usize + 1];
    count_row_survivors(chain, tile_domains, limit, &mut offsets[1..]);
    for r in 1..offsets.len() {
        offsets[r] += offsets[r - 1];
    }
    offsets
}

/// Fill `counts[r]` with the Rule-4 survivors of grid row `r`. Eq. 1
/// never decreases along axis 0 and its Rule-3 domain ascends, so a
/// row's survivors are a prefix of axis 0, found by one binary search.
/// (Only axis 0 is monotone: a tail LayerNorm's streamed panel makes the
/// estimate fall along the last axis.)
fn count_row_survivors(
    chain: &ChainSpec,
    tile_domains: &[Vec<u64>],
    limit: u64,
    counts: &mut [u64],
) {
    let (d0, rest) = tile_domains.split_first().expect("a chain has axes");
    // Row odometer over axes 1..; `tiles[0]` is the binary-searched slot.
    let mut digits = vec![0usize; rest.len()];
    let mut tiles: Vec<u64> = tile_domains.iter().map(|d| d[0]).collect();
    for count in counts {
        *count = d0.partition_point(|&t| {
            tiles[0] = t;
            combo_fits(chain, &tiles, limit)
        }) as u64;
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
/// Rules 1–2), dtype (the Eq. 1 estimate), the expression policy, and
/// the Rule-4 budget. Two tuning tasks sharing this fingerprint build
/// bit-identical spaces, so e.g. every same-shaped BERT layer — and
/// every transpose-layout or search-parameter variant of one — maps to
/// one Rule-4 scan.
pub fn space_fingerprint(
    chain: &ChainSpec,
    dev: &DeviceSpec,
    policy: &crate::tuner::SpacePolicy,
) -> String {
    let smem_limit = policy.shared_memory_pruning.then_some(dev.smem_per_block);
    format!(
        "b{}|m{}|d{:?}|e{:?}|bi{:?}|t{:?}|st{:?}{:?}|deep{}|smem{:?}",
        chain.batch,
        chain.m,
        chain.dims,
        chain.epilogues,
        chain.biases,
        chain.dtype,
        chain.prologue,
        chain.stitch_epilogue,
        policy.deep_tiling_only,
        smem_limit,
    )
}

/// An engine-level cache of built candidate spaces, shared by every
/// tuning task of a session (the same `Arc`-sharing discipline as
/// [`TuningCache`](crate::TuningCache), but content-addressed by
/// [`space_fingerprint`] instead of the full tuning-task key — the
/// space does not depend on search parameters or input layout, so many
/// tuning tasks map to one space).
///
/// Concurrent requests for the *same* fingerprint block on one
/// `OnceLock` and build exactly once; requests for different
/// fingerprints build in parallel. [`SpaceCache::hits`] feeds
/// [`EngineStats::space_cache_hits`](crate::EngineStats::space_cache_hits);
/// fresh builds are counted by the *caller* (the engine's
/// `space_builds` probe).
#[derive(Debug)]
pub struct SpaceCache {
    entries: Mutex<SpaceCacheInner>,
    hits: AtomicU64,
    evictions: AtomicU64,
    capacity: usize,
}

#[derive(Debug, Default)]
struct SpaceCacheInner {
    map: FxHashMap<String, SpaceEntry>,
    tick: u64,
}

#[derive(Debug, Default)]
struct SpaceEntry {
    cell: Arc<OnceLock<Arc<CandidateSpace>>>,
    last_used: u64,
}

/// Default [`SpaceCache`] bound: distinct space fingerprints retained
/// before least-recently-used eviction kicks in. Spaces rebuild
/// deterministically, so eviction costs one Rule-4 scan, never
/// correctness; the bound keeps a long-lived multi-tenant engine's
/// memory proportional to its working set instead of its history.
pub const SPACE_CACHE_CAPACITY: usize = 128;

impl Default for SpaceCache {
    fn default() -> Self {
        Self::with_capacity(SPACE_CACHE_CAPACITY)
    }
}

impl SpaceCache {
    /// An empty cache with the default LRU bound
    /// ([`SPACE_CACHE_CAPACITY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache retaining at most `capacity` spaces (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        SpaceCache {
            entries: Mutex::new(SpaceCacheInner::default()),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// The space for `fingerprint`, building it with `build` if this is
    /// the first request. A concurrent duplicate request waits for the
    /// in-flight build instead of scanning twice.
    ///
    /// Inserting past the capacity evicts the least-recently-used
    /// *completed* space (in-flight builds are never evicted, so the
    /// build-once guarantee holds; holders of an evicted `Arc` keep
    /// using it, and a later request simply rebuilds).
    pub fn get_or_build(
        &self,
        fingerprint: String,
        build: impl FnOnce() -> CandidateSpace,
    ) -> Arc<CandidateSpace> {
        let cell = {
            let mut inner = self.entries.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let entry = inner.map.entry(fingerprint).or_default();
            entry.last_used = tick;
            let cell = entry.cell.clone();
            if inner.map.len() > self.capacity {
                let victim = inner
                    .map
                    .iter()
                    .filter(|(_, e)| e.last_used != tick && e.cell.get().is_some())
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                if let Some(k) = victim {
                    inner.map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            cell
        };
        let mut fresh = false;
        let space = cell
            .get_or_init(|| {
                fresh = true;
                Arc::new(build())
            })
            .clone();
        if !fresh {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        space
    }

    /// Requests served from an already-built space.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Spaces dropped by the LRU bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of cached spaces.
    pub fn len(&self) -> usize {
        self.entries.lock().map.len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::prune;
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
        let space = SearchSpace::generate(chain);
        prune(chain, &DeviceSpec::a100(), &space)
    }

    #[test]
    fn space_cache_evicts_lru_completed_spaces() {
        let cache = SpaceCache::with_capacity(2);
        let chains: Vec<ChainSpec> = (0..3)
            .map(|i| ChainSpec::gemm_chain(format!("c{i}"), 1, 128 << i, 64, 32, 32))
            .collect();
        let build = |i: usize| {
            cache.get_or_build(format!("fp{i}"), || {
                let s = SearchSpace::generate(&chains[i]);
                prune(&chains[i], &DeviceSpec::a100(), &s)
            })
        };
        build(0);
        build(1);
        // Touch 0 so 1 is the LRU victim when 2 overflows the bound.
        build(0);
        assert_eq!(cache.hits(), 1);
        build(2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        // 0 survived (touched); 1 rebuilds from scratch (no new hit).
        let hits_before = cache.hits();
        build(0);
        assert_eq!(cache.hits(), hits_before + 1);
        build(1);
        assert_eq!(cache.hits(), hits_before + 1, "evicted space must rebuild");
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
            assert!(mcfuser_tile::rule4_fits(&chain, &c, dev.smem_per_block));
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
            CandidateSpace::build(&chain, reps, domains, None, stats)
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
            .find(|c| !mcfuser_tile::rule4_fits(&chain, c, dev.smem_per_block))
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
        // The smallest-tile combination bounds the minimum from above.
        let smallest: Vec<u64> = space.tile_domains.iter().map(|d| d[0]).collect();
        let est = estimate_shmem_bytes_for_tiles(&chain, &smallest);
        assert!(min <= est);
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
            if mcfuser_tile::rule4_fits(&chain, &c, dev.smem_per_block) {
                kept += 1;
            } else {
                cut += 1;
            }
        }
        assert!(kept > 0 && cut > 0, "kept {kept} cut {cut}");
    }
}
