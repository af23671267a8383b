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
//!   `(expression, tile vector)`. Rule 4 is an indexed filter over the
//!   Rule-3 tile grid, built in parallel — every surviving candidate is
//!   reachable by index, with no materialization cap and no truncation
//!   bias. Large grids build the filter with a monotone per-axis
//!   frontier ([`Rule4Scan`]) instead of a dense sweep.
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

/// Tile grids at most this large index Rule-4 survivors through a compact
/// sorted id list (O(1) lookups, one `u64` per surviving combination).
/// Larger grids switch to the block-rank index, whose memory is
/// `O(grid / RANK_BLOCK)` regardless of how many combinations survive.
const COMPACT_LIMIT: u64 = 1 << 22;

/// Rule-3 grids at least this large use the monotone per-axis frontier
/// scan under [`Rule4Scan::Auto`] instead of evaluating Eq. 1 on every
/// combination: below it the dense scan's simplicity wins, above it the
/// frontier's `O(grid / |axis₀| · log |axis₀|)` estimate count does.
pub const FRONTIER_MIN_GRID: u64 = 1 << 16;

/// The frontier only pays off when the binary-searched (fastest) axis
/// offers enough tile options that `log₂ |axis₀| < |axis₀|` matters.
pub const FRONTIER_MIN_AXIS: usize = 4;

/// How the Rule-4 survivor index is computed over the Rule-3 tile grid.
/// Both strategies produce *bit-identical* indexes (proptest-verified in
/// `tests/candidate_space.rs`); they differ only in how many Eq. 1
/// estimates they evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Rule4Scan {
    /// Pick per grid: the frontier for grids past [`FRONTIER_MIN_GRID`]
    /// whose fastest axis has at least [`FRONTIER_MIN_AXIS`] options,
    /// the dense scan otherwise.
    #[default]
    Auto,
    /// Evaluate Eq. 1 on every Rule-3 combination (one pass over the
    /// grid, chunk-parallel).
    Dense,
    /// Exploit Eq. 1's monotonicity: the estimate is a sum of
    /// `tileᵢ · tileⱼ` products, so it is non-decreasing in every tile
    /// extent, and the ascending Rule-3 domains make the survivors of
    /// each grid *row* (a fixed setting of all axes but the fastest) a
    /// prefix of axis 0. One binary search per row replaces `|axis₀|`
    /// dense estimates — `O(surface · log)` instead of `O(volume)` work.
    Frontier,
}

impl Rule4Scan {
    /// Resolve `Auto` against a concrete grid.
    fn use_frontier(self, tile_domains: &[Vec<u64>], grid: u64) -> bool {
        match self {
            Rule4Scan::Dense => false,
            Rule4Scan::Frontier => true,
            Rule4Scan::Auto => {
                grid >= FRONTIER_MIN_GRID
                    && tile_domains.first().map_or(0, Vec::len) >= FRONTIER_MIN_AXIS
            }
        }
    }
}

/// Block size of the rank index for very large tile grids.
const RANK_BLOCK: u64 = 1024;

/// Parallel-scan chunks below this size are not worth a thread.
const MIN_CHUNK: u64 = 1 << 14;

/// How Rule 4 is represented over the Rule-3 tile grid.
#[derive(Debug, Clone)]
enum Rule4Index {
    /// Every Rule-3 combination is admitted: the filter is disabled
    /// (`-rule4` ablation) or nothing was rejected. O(1) memory.
    PassAll,
    /// Sorted ids of the surviving combinations (small grids): O(1)
    /// index, memory proportional to the survivors.
    Compact(Vec<u64>),
    /// Cumulative survivor counts per [`RANK_BLOCK`]-sized block of the
    /// tile grid (large grids): `O(RANK_BLOCK)` index by re-filtering one
    /// block, memory `O(grid / RANK_BLOCK)`.
    Ranked(Vec<u64>),
}

/// The pruned search space Algorithm 1 explores — lazy and O(1)-indexed.
///
/// A candidate is the pair `(expr_idx, combo_rank)` packed into one dense
/// index `0..len()`: `expr_idx = idx / surviving_combos()` selects the
/// Rule-1/2 representative expression and `combo_rank` the Rule-4
/// survivor among the Rule-3 tile combinations, decoded odometer-style
/// (axis 0 fastest) from [`CandidateSpace::tile_domains`]. The order is
/// identical to what the old eager materialization produced, but nothing
/// is materialized: peak memory is O(1) in the candidate count (plus the
/// Rule-4 index, which is bounded by the *tile grid*, never by
/// `exprs × combos`), and there is no cap — index `len() - 1` is exactly
/// as reachable as index 0.
#[derive(Debug)]
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
    /// Rule-4 survivors among the grid.
    combos: u64,
    /// Shared-memory budget behind Rule 4; `None` when the filter is
    /// disabled ([`SpacePolicy::shared_memory_pruning`] = false).
    ///
    /// [`SpacePolicy::shared_memory_pruning`]: crate::SpacePolicy::shared_memory_pruning
    smem_limit: Option<u64>,
    /// The Rule-4 survivor index.
    rule4: Rule4Index,
    /// Smallest Eq. 1 estimate across the whole grid (filter enabled,
    /// non-empty grid only) — the context behind `EmptySearchSpace` when
    /// Rule 4 rejects everything.
    min_estimated_smem: Option<u64>,
    /// Recently decoded blocks of the `Ranked` index, sharded by
    /// *thread* ([`DECODE_SHARDS`] shards of [`DECODE_CACHE_SLOTS`]
    /// entries, most recent first): sampling-heavy searches that revisit
    /// a block pay the O(`RANK_BLOCK`) re-filter once instead of per
    /// call, and N concurrent searches over one shared space no longer
    /// serialize on a single mutex (the contention that made the shared-
    /// space `tune_smoke` path *slower* than cold). Each shard keeps two
    /// slots so `candidate()` (sampling) and `index_of` (mutant
    /// re-encoding) don't evict each other inside one search round;
    /// a single-threaded search sees exactly the old 2-slot behavior.
    decoded: Vec<Mutex<Vec<DecodedBlock>>>,
    /// How many block re-filters the `Ranked` path has performed — cache
    /// misses (the decode-cost probe behind the regression tests).
    decodes: AtomicU64,
    /// How many `Ranked` block lookups were served from a decode-cache
    /// shard without re-filtering — cache hits. Together with
    /// [`CandidateSpace::ranked_block_decodes`] this proves the sharding
    /// out: contention shows up as a depressed hit count (threads
    /// evicting each other), not just as wall time.
    decode_hits: AtomicU64,
    /// Whether the Rule-4 index was built by the monotone frontier scan
    /// (the threshold-regression probe; `false` when the dense scan ran
    /// or Rule 4 was disabled).
    frontier_scanned: bool,
}

impl Clone for CandidateSpace {
    /// The clone starts with a cold decode cache (and a zeroed probe);
    /// everything observable is identical.
    fn clone(&self) -> Self {
        CandidateSpace {
            chain: self.chain.clone(),
            exprs: self.exprs.clone(),
            tile_domains: self.tile_domains.clone(),
            stats: self.stats.clone(),
            grid: self.grid,
            combos: self.combos,
            smem_limit: self.smem_limit,
            rule4: self.rule4.clone(),
            min_estimated_smem: self.min_estimated_smem,
            decoded: fresh_decode_cache(),
            decodes: AtomicU64::new(0),
            decode_hits: AtomicU64::new(0),
            frontier_scanned: self.frontier_scanned,
        }
    }
}

/// How many decoded `Ranked` blocks each shard retains.
const DECODE_CACHE_SLOTS: usize = 2;

/// How many thread-sharded decode caches a space keeps. Lookups hash the
/// current thread id to a shard, so concurrent searches rarely share a
/// mutex *or* a slot set — a hot block decoded by one thread no longer
/// gets evicted by another thread's working set.
const DECODE_SHARDS: usize = 8;

/// A fresh (cold) sharded decode cache.
fn fresh_decode_cache() -> Vec<Mutex<Vec<DecodedBlock>>> {
    (0..DECODE_SHARDS).map(|_| Mutex::new(Vec::new())).collect()
}

/// The survivor ids of one decoded `Ranked` block.
#[derive(Debug)]
struct DecodedBlock {
    block: u64,
    ids: Vec<u64>,
}

/// Per-chunk result of the parallel Rule-4 scan.
struct ScanPart {
    /// Surviving ids (compact mode) or per-block survivor counts (ranked
    /// mode) for the chunk's subrange.
    payload: Vec<u64>,
    /// Survivors in the subrange.
    count: u64,
    /// Smallest estimate seen in the subrange.
    min_est: u64,
}

impl CandidateSpace {
    /// Build the lazy space from the Rule-1–3 survivors. `smem_limit`
    /// enables Rule 4 (`Some(Shm_max)`) or disables it (`None`, the
    /// `-rule4` ablation). `stats` carries the waterfall up to
    /// `after_rule3`; `after_rule4` is finalized here from the exact
    /// survivor count.
    pub(crate) fn build(
        chain: &ChainSpec,
        exprs: Vec<TilingExpr>,
        tile_domains: Vec<Vec<u64>>,
        smem_limit: Option<u64>,
        stats: PruneStats,
    ) -> CandidateSpace {
        Self::build_scanned(
            chain,
            exprs,
            tile_domains,
            smem_limit,
            stats,
            Rule4Scan::Auto,
        )
    }

    /// [`CandidateSpace::build`] with an explicit Rule-4 scan strategy —
    /// the hook behind the frontier ≡ dense equivalence tests and the
    /// pruning benchmarks.
    pub(crate) fn build_scanned(
        chain: &ChainSpec,
        exprs: Vec<TilingExpr>,
        tile_domains: Vec<Vec<u64>>,
        smem_limit: Option<u64>,
        mut stats: PruneStats,
        scan: Rule4Scan,
    ) -> CandidateSpace {
        let grid_wide: u128 = tile_domains.iter().map(|d| d.len() as u128).product();
        assert!(
            grid_wide <= u64::MAX as u128,
            "Rule-3 tile grid exceeds u64 addressing"
        );
        let grid = grid_wide as u64;

        let mut frontier_scanned = false;
        let (rule4, combos, min_estimated_smem) = match smem_limit {
            None => (Rule4Index::PassAll, grid, None),
            Some(_) if grid == 0 => (Rule4Index::PassAll, 0, None),
            Some(limit) => {
                frontier_scanned = scan.use_frontier(&tile_domains, grid);
                let (index, count, min_est) =
                    scan_rule4(chain, &tile_domains, grid, limit, frontier_scanned);
                (index, count, Some(min_est))
            }
        };

        stats.after_rule4 = exprs.len() as u128 * combos as u128;
        CandidateSpace {
            chain: chain.clone(),
            exprs,
            tile_domains,
            stats,
            grid,
            combos,
            smem_limit,
            rule4,
            min_estimated_smem,
            decoded: fresh_decode_cache(),
            decodes: AtomicU64::new(0),
            decode_hits: AtomicU64::new(0),
            frontier_scanned,
        }
    }

    /// Whether the Rule-4 index came from the monotone frontier scan —
    /// the probe behind the `Auto` threshold regression tests. `false`
    /// for dense scans and Rule-4-disabled spaces.
    pub fn frontier_scanned(&self) -> bool {
        self.frontier_scanned
    }

    /// Number of candidates reachable by index (= `stats.after_rule4`).
    pub fn len(&self) -> u64 {
        self.exprs.len() as u64 * self.combos
    }

    /// Whether the pruned space has no candidates at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rule-4-surviving tile combinations (per expression).
    pub fn surviving_combos(&self) -> u64 {
        self.combos
    }

    /// Size of the Rule-3 tile grid Rule 4 filtered.
    pub fn grid_combos(&self) -> u64 {
        self.grid
    }

    /// Smallest Eq. 1 shared-memory estimate across the Rule-3 grid.
    /// `Some` only when Rule 4 ran over a non-empty grid; this is the
    /// diagnostic surfaced when the filter rejects every combination.
    pub fn min_estimated_smem(&self) -> Option<u64> {
        self.min_estimated_smem
    }

    /// Decode candidate `idx` (`0..len()`). O(1) for compact/pass-all
    /// grids, O(`RANK_BLOCK`) for block-ranked ones (amortized O(1)
    /// within one block thanks to the decode cache).
    ///
    /// # Panics
    /// If `idx >= len()`.
    pub fn candidate(&self, idx: u64) -> Candidate {
        assert!(idx < self.len(), "candidate index {idx} out of range");
        let expr = &self.exprs[(idx / self.combos) as usize];
        let combo = self.combo_id(idx % self.combos);
        Candidate::new(expr.clone(), self.tiles_of(combo))
    }

    /// Map a survivor rank (`0..surviving_combos()`) to its tile-grid id.
    fn combo_id(&self, rank: u64) -> u64 {
        match &self.rule4 {
            Rule4Index::PassAll => rank,
            Rule4Index::Compact(ids) => ids[rank as usize],
            Rule4Index::Ranked(cum) => {
                // Last block whose prefix count is ≤ rank, then the
                // rank-th survivor within it from the block cache.
                let block = (cum.partition_point(|&c| c <= rank) - 1) as u64;
                let offset = (rank - cum[block as usize]) as usize;
                let mut cached = self.decode_shard().lock();
                let ids = self.decoded_block_ids(&mut cached, block);
                ids[offset]
            }
        }
    }

    /// The survivor ids of `block`, decoded through the small block
    /// cache: a hit is O(1) (and refreshes the entry's recency); a miss
    /// re-filters the block, inserts it most-recent first, and evicts the
    /// oldest entry past [`DECODE_CACHE_SLOTS`]. The re-filter mirrors
    /// the build-time scan split: when axis 0 offers at least
    /// [`FRONTIER_MIN_AXIS`] options the block is rebuilt row-by-row with
    /// one `partition_point` binary search per row (each row's survivors
    /// are a prefix of axis 0 — Eq. 1 is monotone and the domains
    /// ascend), `O(rows · log |axis₀|)` estimates instead of
    /// O(`RANK_BLOCK`); narrow axes keep the dense odometer sweep.
    fn decoded_block_ids<'a>(&self, cached: &'a mut Vec<DecodedBlock>, block: u64) -> &'a [u64] {
        if let Some(pos) = cached.iter().position(|d| d.block == block) {
            let hit = cached.remove(pos);
            cached.insert(0, hit);
            self.decode_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            let limit = self.smem_limit.expect("ranked index implies Rule 4");
            let lo = block * RANK_BLOCK;
            let hi = (lo + RANK_BLOCK).min(self.grid);
            let mut ids = Vec::new();
            let d0 = &self.tile_domains[0];
            if d0.len() >= FRONTIER_MIN_AXIS {
                let row_len = d0.len() as u64;
                let mut row = lo / row_len;
                let mut rest = row;
                let mut digits: Vec<usize> = self.tile_domains[1..]
                    .iter()
                    .map(|d| {
                        let i = (rest % d.len() as u64) as usize;
                        rest /= d.len() as u64;
                        i
                    })
                    .collect();
                let mut tiles: Vec<u64> = std::iter::once(d0[0])
                    .chain(
                        digits
                            .iter()
                            .zip(&self.tile_domains[1..])
                            .map(|(&i, d)| d[i]),
                    )
                    .collect();
                while row * row_len < hi {
                    let base = row * row_len;
                    let cnt = d0.partition_point(|&t| {
                        tiles[0] = t;
                        combo_fits(&self.chain, &tiles, limit)
                    }) as u64;
                    // Clip the surviving prefix run to the block.
                    let s = base.max(lo);
                    let e = (base + cnt).min(hi);
                    if s < e {
                        ids.extend(s..e);
                    }
                    row += 1;
                    for (a, d) in self.tile_domains[1..].iter().enumerate() {
                        digits[a] += 1;
                        if digits[a] < d.len() {
                            tiles[a + 1] = d[digits[a]];
                            break;
                        }
                        digits[a] = 0;
                        tiles[a + 1] = d[0];
                    }
                }
            } else {
                let mut odo = Odometer::at(&self.tile_domains, lo);
                for id in lo..hi {
                    if combo_fits(&self.chain, odo.tiles(), limit) {
                        ids.push(id);
                    }
                    odo.step();
                }
            }
            self.decodes.fetch_add(1, Ordering::Relaxed);
            cached.insert(0, DecodedBlock { block, ids });
            cached.truncate(DECODE_CACHE_SLOTS);
        }
        &cached[0].ids
    }

    /// The calling thread's decode-cache shard (hash of the thread id) —
    /// one thread always lands on one shard, so single-threaded searches
    /// keep the exact slot behavior (and decode counts) of the old
    /// unsharded cache.
    fn decode_shard(&self) -> &Mutex<Vec<DecodedBlock>> {
        use std::hash::{Hash, Hasher};
        let mut h = rustc_hash::FxHasher::default();
        std::thread::current().id().hash(&mut h);
        &self.decoded[(h.finish() as usize) % self.decoded.len()]
    }

    /// How many `Ranked`-index block re-filters have run so far (decode
    /// *misses*) — the probe behind the decode-cache regression tests.
    /// Always 0 for pass-all and compact grids.
    pub fn ranked_block_decodes(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// How many `Ranked`-index block lookups were served from a decode
    /// shard without a re-filter (decode *hits*). A healthy
    /// sampling-heavy search shows hits ≫ decodes; cross-thread shard
    /// contention would depress this toward zero.
    pub fn ranked_block_decode_hits(&self) -> u64 {
        self.decode_hits.load(Ordering::Relaxed)
    }

    /// The dense index of a candidate, or `None` if the candidate is not
    /// in this space (unknown expression, tile size outside a Rule-3
    /// domain, or a combination Rule 4 rejected). The inverse of
    /// [`CandidateSpace::candidate`]: search mutations use it to keep
    /// survivors addressed by index.
    pub fn index_of(&self, cand: &Candidate) -> Option<u64> {
        let ei = self.exprs.iter().position(|e| *e == cand.expr)? as u64;
        if cand.tiles.len() != self.tile_domains.len() {
            return None;
        }
        // Encode the tile vector as a grid id (axis 0 fastest).
        let mut combo = 0u64;
        let mut mul = 1u64;
        for (d, &t) in self.tile_domains.iter().zip(&cand.tiles) {
            let pos = d.iter().position(|&x| x == t)? as u64;
            combo += pos * mul;
            mul *= d.len() as u64;
        }
        let rank = match &self.rule4 {
            Rule4Index::PassAll => combo,
            Rule4Index::Compact(ids) => ids.binary_search(&combo).ok()? as u64,
            Rule4Index::Ranked(cum) => {
                let block = combo / RANK_BLOCK;
                let mut cached = self.decode_shard().lock();
                let ids = self.decoded_block_ids(&mut cached, block);
                let within = ids.binary_search(&combo).ok()? as u64;
                cum[block as usize] + within
            }
        };
        Some(ei * self.combos + rank)
    }

    /// Decode a tile-grid id to its tile vector (axis 0 fastest — the
    /// same odometer order the eager materialization enumerated).
    fn tiles_of(&self, combo: u64) -> Vec<u64> {
        decode_tiles(&self.tile_domains, combo)
    }

    /// Stream every candidate in index order without materializing any.
    /// `iter().nth(i)` equals [`CandidateSpace::candidate`]`(i)`.
    pub fn iter(&self) -> impl Iterator<Item = Candidate> + '_ {
        // For the block-rank index the survivor ids are gathered once up
        // front (one grid scan shared by all expressions, O(survivors)
        // transient memory); pass-all and compact grids replay their ids
        // per expression for free.
        let ranked_ids: Option<std::sync::Arc<Vec<u64>>> = match &self.rule4 {
            Rule4Index::Ranked(_) => Some(std::sync::Arc::new(self.scan_ids().collect())),
            _ => None,
        };
        self.exprs.iter().flat_map(move |e| {
            let ids: Box<dyn Iterator<Item = u64> + Send + '_> = match (&self.rule4, &ranked_ids) {
                (Rule4Index::PassAll, _) => Box::new(0..self.combos),
                (Rule4Index::Compact(ids), _) => Box::new(ids.iter().copied()),
                (Rule4Index::Ranked(_), Some(ids)) => {
                    let ids = ids.clone();
                    Box::new((0..ids.len()).map(move |k| ids[k]))
                }
                (Rule4Index::Ranked(_), None) => unreachable!("ranked ids gathered above"),
            };
            ids.map(move |id| Candidate::new(e.clone(), self.tiles_of(id)))
        })
    }

    /// Surviving grid ids by re-filtering the whole grid (Ranked mode).
    fn scan_ids(&self) -> impl Iterator<Item = u64> + '_ {
        let limit = self.smem_limit.expect("ranked index implies Rule 4");
        let mut odo = Odometer::at(&self.tile_domains, 0);
        (0..self.grid).filter(move |_| {
            let fits = combo_fits(&self.chain, odo.tiles(), limit);
            odo.step();
            fits
        })
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

/// Decode a tile-grid id to its tile vector: mixed-radix with axis 0 as
/// the fastest digit — the same odometer order the eager materialization
/// enumerated. The single source of the index ↔ tiles contract; every
/// other decoder ([`Odometer`], [`CandidateSpace::tiles_of`]) goes
/// through here or is property-tested against it.
fn decode_tiles(tile_domains: &[Vec<u64>], combo: u64) -> Vec<u64> {
    let mut rest = combo;
    tile_domains
        .iter()
        .map(|d| {
            let t = d[(rest % d.len() as u64) as usize];
            rest /= d.len() as u64;
            t
        })
        .collect()
}

/// Rule-4 test for a decoded tile vector (Eq. 1 is
/// expression-independent, so no `Candidate` is built).
fn combo_fits(chain: &ChainSpec, tiles: &[u64], limit: u64) -> bool {
    estimate_shmem_bytes_for_tiles(chain, tiles) as f64 <= RULE4_MARGIN * limit as f64
}

/// An incremental mixed-radix counter over the tile grid: sequential
/// scans reuse one tiles buffer instead of re-decoding (and
/// re-allocating) every id.
struct Odometer<'a> {
    domains: &'a [Vec<u64>],
    digits: Vec<usize>,
    tiles: Vec<u64>,
}

impl<'a> Odometer<'a> {
    /// Position the counter at grid id `combo`.
    fn at(domains: &'a [Vec<u64>], combo: u64) -> Odometer<'a> {
        let mut rest = combo;
        let digits: Vec<usize> = domains
            .iter()
            .map(|d| {
                let i = (rest % d.len() as u64) as usize;
                rest /= d.len() as u64;
                i
            })
            .collect();
        let tiles = digits.iter().zip(domains).map(|(&i, d)| d[i]).collect();
        Odometer {
            domains,
            digits,
            tiles,
        }
    }

    /// The tile vector at the current position.
    fn tiles(&self) -> &[u64] {
        &self.tiles
    }

    /// Advance to the next grid id (no-op past the end).
    fn step(&mut self) {
        for (a, d) in self.domains.iter().enumerate() {
            self.digits[a] += 1;
            if self.digits[a] < d.len() {
                self.tiles[a] = d[self.digits[a]];
                return;
            }
            self.digits[a] = 0;
            self.tiles[a] = d[0];
        }
    }
}

/// One frontier-scanned chunk of the grid (ids `lo..hi`, block-aligned
/// like the dense chunks): for every grid *row* intersecting the chunk —
/// a row is the `|axis₀|` consecutive ids sharing the digits of axes
/// `1..` — binary-search the largest surviving extent of axis 0 (Eq. 1
/// is monotone non-decreasing in each tile and the domains are
/// ascending, so each row's survivors are a prefix), then clip the
/// surviving run to the chunk. Payload semantics match the dense scan
/// exactly: survivor ids (compact) or per-block counts (ranked).
/// `min_est` is settled globally by the caller (monotonicity puts the
/// grid minimum at combo 0), so chunks report `u64::MAX`.
#[allow(clippy::too_many_arguments)]
fn scan_chunk_frontier(
    chain: &ChainSpec,
    tile_domains: &[Vec<u64>],
    grid: u64,
    limit: u64,
    compact: bool,
    lo_block: u64,
    hi_block: u64,
) -> ScanPart {
    let lo = lo_block * RANK_BLOCK;
    let hi = (hi_block * RANK_BLOCK).min(grid);
    let d0 = &tile_domains[0];
    let row_len = d0.len() as u64;
    let mut payload = if compact {
        Vec::new()
    } else {
        vec![0u64; (hi_block - lo_block) as usize]
    };
    let mut count = 0u64;
    if lo >= hi {
        return ScanPart {
            payload,
            count,
            min_est: u64::MAX,
        };
    }

    // Row odometer over axes 1.. (axis 0 is the binary-searched digit).
    let mut row = lo / row_len;
    let mut rest = row;
    let mut digits: Vec<usize> = tile_domains[1..]
        .iter()
        .map(|d| {
            let i = (rest % d.len() as u64) as usize;
            rest /= d.len() as u64;
            i
        })
        .collect();
    let mut tiles: Vec<u64> = std::iter::once(d0[0])
        .chain(digits.iter().zip(&tile_domains[1..]).map(|(&i, d)| d[i]))
        .collect();

    while row * row_len < hi {
        let base = row * row_len;
        let cnt = d0.partition_point(|&t| {
            tiles[0] = t;
            combo_fits(chain, &tiles, limit)
        }) as u64;
        // Clip the surviving prefix run [base, base + cnt) to the chunk.
        let s = base.max(lo);
        let e = (base + cnt).min(hi);
        if s < e {
            count += e - s;
            if compact {
                payload.extend(s..e);
            } else {
                let mut b = s / RANK_BLOCK;
                while b * RANK_BLOCK < e {
                    let b_lo = (b * RANK_BLOCK).max(s);
                    let b_hi = ((b + 1) * RANK_BLOCK).min(e);
                    payload[(b - lo_block) as usize] += b_hi - b_lo;
                    b += 1;
                }
            }
        }
        row += 1;
        for (a, d) in tile_domains[1..].iter().enumerate() {
            digits[a] += 1;
            if digits[a] < d.len() {
                tiles[a + 1] = d[digits[a]];
                break;
            }
            digits[a] = 0;
            tiles[a + 1] = d[0];
        }
    }
    ScanPart {
        payload,
        count,
        min_est: u64::MAX,
    }
}

/// The parallel Rule-4 scan: one pass over the Rule-3 grid, split into
/// contiguous chunks across the host's cores (chunk results concatenate
/// in order, so the outcome is identical at any thread count). With
/// `frontier` set, each chunk runs the monotone per-axis frontier
/// instead of the dense estimate-per-combination loop — same survivor
/// index, `O(rows · log |axis₀|)` estimates instead of `O(grid)`.
/// Returns the survivor index, the exact survivor count, and the
/// smallest estimate anywhere in the grid.
fn scan_rule4(
    chain: &ChainSpec,
    tile_domains: &[Vec<u64>],
    grid: u64,
    limit: u64,
    frontier: bool,
) -> (Rule4Index, u64, u64) {
    let compact = grid <= COMPACT_LIMIT;
    let threads = if grid < MIN_CHUNK {
        1
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(grid.div_ceil(MIN_CHUNK) as usize)
    };
    // Chunk boundaries are block-aligned so ranked per-block counts never
    // straddle a chunk.
    let blocks = grid.div_ceil(RANK_BLOCK);
    let blocks_per_chunk = blocks.div_ceil(threads as u64);

    let scan_chunk = |chunk: usize| -> ScanPart {
        // The last chunks of an uneven split can land past the end;
        // clamping makes them empty instead of inverted.
        let lo_block = (chunk as u64 * blocks_per_chunk).min(blocks);
        let hi_block = (lo_block + blocks_per_chunk).min(blocks);
        if frontier {
            return scan_chunk_frontier(
                chain,
                tile_domains,
                grid,
                limit,
                compact,
                lo_block,
                hi_block,
            );
        }
        let lo = lo_block * RANK_BLOCK;
        let hi = (hi_block * RANK_BLOCK).min(grid);
        let mut payload = Vec::new();
        let mut count = 0u64;
        let mut min_est = u64::MAX;
        let mut odo = Odometer::at(tile_domains, lo);
        if compact {
            for id in lo..hi {
                let est = estimate_shmem_bytes_for_tiles(chain, odo.tiles());
                min_est = min_est.min(est);
                if est as f64 <= RULE4_MARGIN * limit as f64 {
                    payload.push(id);
                    count += 1;
                }
                odo.step();
            }
        } else {
            for block in lo_block..hi_block {
                let b_hi = ((block + 1) * RANK_BLOCK).min(grid);
                let mut block_count = 0u64;
                for _ in block * RANK_BLOCK..b_hi {
                    let est = estimate_shmem_bytes_for_tiles(chain, odo.tiles());
                    min_est = min_est.min(est);
                    if est as f64 <= RULE4_MARGIN * limit as f64 {
                        block_count += 1;
                    }
                    odo.step();
                }
                payload.push(block_count);
                count += block_count;
            }
        }
        ScanPart {
            payload,
            count,
            min_est,
        }
    };

    let parts: Vec<ScanPart> = if threads <= 1 {
        vec![scan_chunk(0)]
    } else {
        let mut slots: Vec<Option<ScanPart>> = (0..threads).map(|_| None).collect();
        std::thread::scope(|s| {
            for (chunk, slot) in slots.iter_mut().enumerate() {
                let scan = &scan_chunk;
                s.spawn(move || *slot = Some(scan(chunk)));
            }
        });
        slots
            .into_iter()
            .map(|p| p.expect("chunk scanned"))
            .collect()
    };

    let count: u64 = parts.iter().map(|p| p.count).sum();
    let min_est = if frontier {
        // Monotonicity puts the grid minimum at the all-smallest-tiles
        // combination (id 0) — the same value the dense scan reports.
        estimate_shmem_bytes_for_tiles(chain, &decode_tiles(tile_domains, 0))
    } else {
        parts.iter().map(|p| p.min_est).min().unwrap_or(u64::MAX)
    };
    if count == grid {
        // Nothing rejected: the index is the identity.
        return (Rule4Index::PassAll, count, min_est);
    }
    if compact {
        let mut ids = Vec::with_capacity(count as usize);
        for p in parts {
            ids.extend(p.payload);
        }
        (Rule4Index::Compact(ids), count, min_est)
    } else {
        // Prefix-sum the per-block counts: cum[b] = survivors before
        // block b; cum.len() == blocks + 1.
        let mut cum = Vec::with_capacity(blocks as usize + 1);
        cum.push(0u64);
        let mut running = 0u64;
        for p in parts {
            for c in p.payload {
                running += c;
                cum.push(running);
            }
        }
        (Rule4Index::Ranked(cum), count, min_est)
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
/// `space_builds` probe covers the cache-disabled path too).
///
/// Note on `Ranked`-index grids (> `COMPACT_LIMIT` combinations): the
/// shared space's interior decode cache is sharded by thread
/// (`DECODE_SHARDS` mutex-guarded block caches), so concurrent searches
/// over one huge-grid space rarely contend on the same shard.
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

    /// Aggregate `(hits, misses)` of the `Ranked` block-decode caches
    /// across every resident space — the contention probe surfaced
    /// through [`EngineStats`](crate::EngineStats). Evicted spaces take
    /// their counters with them, so this reflects the current working
    /// set, like [`SpaceCache::len`].
    pub fn decode_counters(&self) -> (u64, u64) {
        let entries = self.entries.lock();
        let mut hits = 0u64;
        let mut misses = 0u64;
        for e in entries.map.values() {
            if let Some(s) = e.cell.get() {
                hits += s.ranked_block_decode_hits();
                misses += s.ranked_block_decodes();
            }
        }
        (hits, misses)
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
    fn ranked_index_agrees_with_compact() {
        // Force the block-rank path on a grid the compact path also
        // handles, and check they decode identically.
        let chain = ChainSpec::gemm_chain("g", 1, 512, 512, 256, 256);
        let space = pruned(&chain);
        let limit = space.smem_limit.unwrap();
        let (ranked, count, _) = {
            // Rebuild with a forced Ranked index.
            let grid = space.grid;
            let blocks = grid.div_ceil(RANK_BLOCK);
            let mut cum = Vec::with_capacity(blocks as usize + 1);
            cum.push(0u64);
            let mut running = 0;
            let mut odo = Odometer::at(&space.tile_domains, 0);
            for b in 0..blocks {
                let hi = ((b + 1) * RANK_BLOCK).min(grid);
                for _ in b * RANK_BLOCK..hi {
                    if combo_fits(&chain, odo.tiles(), limit) {
                        running += 1;
                    }
                    odo.step();
                }
                cum.push(running);
            }
            (Rule4Index::Ranked(cum), running, ())
        };
        assert_eq!(count, space.surviving_combos());
        let mut forced = space.clone();
        forced.rule4 = ranked;
        for idx in (0..space.len()).step_by((space.len() / 53).max(1) as usize) {
            assert_eq!(space.candidate(idx), forced.candidate(idx));
        }
    }

    /// Rebuild a space with its Rule-4 index forced into `Ranked` form
    /// (normally only grids past `COMPACT_LIMIT` use it).
    fn force_ranked(space: &CandidateSpace) -> CandidateSpace {
        let limit = space.smem_limit.unwrap();
        let grid = space.grid;
        let blocks = grid.div_ceil(RANK_BLOCK);
        let mut cum = Vec::with_capacity(blocks as usize + 1);
        cum.push(0u64);
        let mut running = 0;
        let mut odo = Odometer::at(&space.tile_domains, 0);
        for b in 0..blocks {
            let hi = ((b + 1) * RANK_BLOCK).min(grid);
            for _ in b * RANK_BLOCK..hi {
                if combo_fits(&space.chain, odo.tiles(), limit) {
                    running += 1;
                }
                odo.step();
            }
            cum.push(running);
        }
        assert_eq!(running, space.surviving_combos());
        let mut forced = space.clone();
        forced.rule4 = Rule4Index::Ranked(cum);
        forced
    }

    #[test]
    fn index_of_inverts_candidate_on_every_index_form() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 512, 256, 256);
        let compact = pruned(&chain);
        let ranked = force_ranked(&compact);
        let passall = {
            let space = SearchSpace::generate(&chain);
            let (reps, domains, stats) = crate::prune::rules123(&chain, &space);
            CandidateSpace::build(&chain, reps, domains, None, stats)
        };
        for space in [&compact, &ranked, &passall] {
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
    fn ranked_decode_cache_refilters_once_per_block() {
        // Regression for the ROADMAP "ranked-index decode cost" item:
        // before the cache, EVERY candidate() call on a Ranked grid paid
        // an O(RANK_BLOCK) block re-filter; now repeated lookups in the
        // same block pay exactly one.
        let chain = ChainSpec::gemm_chain("g", 1, 512, 512, 256, 256);
        let forced = force_ranked(&pruned(&chain));
        assert_eq!(forced.ranked_block_decodes(), 0);

        let first = forced.candidate(0);
        assert_eq!(forced.ranked_block_decodes(), 1);
        for _ in 0..50 {
            assert_eq!(forced.candidate(0), first, "cache must not change decoding");
        }
        assert_eq!(
            forced.ranked_block_decodes(),
            1,
            "same-block lookups must be served from the cache"
        );
        // index_of shares the same cache.
        assert_eq!(forced.index_of(&first), Some(0));
        assert_eq!(forced.ranked_block_decodes(), 1, "index_of hit the cache");

        // Two cache slots: bouncing between two blocks (sampling via
        // candidate() vs mutant re-encoding via index_of) decodes each
        // block once, then every further lookup in either block hits.
        let last = forced.surviving_combos() - 1;
        let last_cand = forced.candidate(last);
        let after_jump = forced.ranked_block_decodes();
        assert!(after_jump <= 2);
        assert_eq!(forced.candidate(last), last_cand);
        assert_eq!(forced.ranked_block_decodes(), after_jump, "repeat is a hit");
        for _ in 0..4 {
            assert_eq!(forced.candidate(0), first);
            assert_eq!(forced.candidate(last), last_cand);
        }
        assert_eq!(
            forced.ranked_block_decodes(),
            after_jump,
            "alternating between two blocks stays within the cache"
        );
        // A fully random walk never decodes more often than it looks up.
        let mut rng = StdRng::seed_from_u64(5);
        let before = forced.ranked_block_decodes();
        for _ in 0..32 {
            forced.candidate(rng.gen_range(0..forced.len()));
        }
        assert!(forced.ranked_block_decodes() <= before + 32);
    }

    #[test]
    fn ranked_refilter_frontier_and_dense_paths_agree() {
        // m = 512 gives axis 0 ≥ FRONTIER_MIN_AXIS options (binary-search
        // re-filter); m = 48 gives 3 (dense odometer fallback). Both must
        // decode exactly what the compact index decodes.
        for m in [512u64, 48] {
            let chain = ChainSpec::gemm_chain("g", 1, m, 512, 256, 256);
            let compact = pruned(&chain);
            assert!(!compact.is_empty());
            let forced = force_ranked(&compact);
            let step = (compact.len() / 61).max(1);
            let mut idx = 0;
            while idx < compact.len() {
                assert_eq!(
                    compact.candidate(idx),
                    forced.candidate(idx),
                    "m={m} idx={idx}"
                );
                assert_eq!(forced.index_of(&compact.candidate(idx)), Some(idx));
                idx += step;
            }
        }
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
