//! Search-space pruning — the four guidelines of §III-C.
//!
//! * **Rule 1 (deduplication)**: output-spatial loops bind to `blockIdx`;
//!   expressions sharing a per-block sub-tiling expression are equivalent
//!   (`mhnk ≡ mnkh → "nk"`).
//! * **Rule 2 (partial-tile blow-up)**: drop per-block programs in which a
//!   reduction loop encloses a spatial loop of the tensor it accumulates —
//!   those cache one partial tile per spatial iteration (Fig. 6(b)) and
//!   overwhelm shared memory.
//! * **Rule 3 (padding)**: for power-of-two dimensions only divisor tiles
//!   are kept; otherwise per-axis padding must stay below 5 %.
//! * **Rule 4 (shared-memory limit)**: Eq. 1 estimate must fit
//!   `1.2 × Shm_max`.
//!
//! The paper reports the cascade `1.09×10⁸ → −80 % → −40 % → −99 % →
//! −40 % → ≈10⁴` for the running example; [`PruneStats`] records the same
//! waterfall. Our Rule-1/2 equivalence is slightly *stronger* than the
//! paper's (see DESIGN.md): we find 2 equivalence classes where the paper
//! reports 5 → 3, because we canonicalize flat and deep expressions that
//! lower to identical per-block programs.
//!
//! Rules 1–3 shrink the *factors* of the space (expressions and per-axis
//! tile domains); Rule 4 becomes the survivor index of the returned
//! [`CandidateSpace`]. No candidate `Vec` is ever materialized and there
//! is no cap: `PruneStats::after_rule4` is the exact count of candidates
//! reachable by index, and Algorithm 1 samples, mutates, ranks and
//! lowers only those: a mutation step that Rule 4 rejects keeps the
//! parent.
//!
//! Eq. 1 never decreases along axis 0 (`m` enters it only through
//! non-negative products), so for each fixed setting of the other axes
//! the Rule-4 survivors form a *prefix* of axis 0's ascending domain,
//! and one binary search per grid row finds it. No other axis is
//! monotone: a tail LayerNorm's streamed weight panel makes the estimate
//! fall along the last axis.

use rustc_hash::FxHashMap;

use mcfuser_ir::ChainSpec;
use mcfuser_sim::DeviceSpec;
use mcfuser_tile::{accumulator_instances, Candidate, TilingExpr};

use crate::space::{CandidateSpace, SearchSpace};

/// Candidate counts after each pruning rule (the Fig. 7 waterfall).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Full space size.
    pub original: u128,
    /// After Rule 1 (expression dedup).
    pub after_rule1: u128,
    /// After Rule 2 (partial-tile classes dropped).
    pub after_rule2: u128,
    /// After Rule 3 (padding filter on tile sizes).
    pub after_rule3: u128,
    /// After Rule 4 (shared-memory estimate filter). Exactly the number
    /// of candidates the pruned space can address by index.
    pub after_rule4: u128,
    /// Expression counts along the way.
    pub exprs_original: usize,
    /// Distinct per-block classes after Rule 1.
    pub exprs_rule1: usize,
    /// Classes surviving Rule 2.
    pub exprs_rule2: usize,
}

/// Maximum padding overhead Rule 3 tolerates for non-power-of-two dims.
pub const MAX_PADDING_RATIO: f64 = 0.05;

/// Apply Rule 3 to one axis' tile options. When every option exceeds the
/// padding budget (awkward extents like 100), the least-padded option is
/// kept anyway — a compiler must still emit a kernel. An empty `options`
/// slice yields an empty domain; the tuner reports that as a structured
/// [`TuneError::EmptySearchSpace`](crate::TuneError::EmptySearchSpace)
/// naming the axis instead of failing confusingly downstream.
pub fn rule3_tiles(extent: u64, options: &[u64]) -> Vec<u64> {
    let pow2 = extent.is_power_of_two();
    let padding = |t: u64| -> f64 {
        let trips = extent.div_ceil(t);
        (trips * t) as f64 / extent as f64 - 1.0
    };
    let kept: Vec<u64> = options
        .iter()
        .copied()
        .filter(|&t| {
            if t >= extent {
                // A single (possibly padded) tile covering the dim is kept
                // when its own padding is acceptable.
                return padding(t) <= MAX_PADDING_RATIO;
            }
            if pow2 {
                extent.is_multiple_of(t)
            } else {
                padding(t) <= MAX_PADDING_RATIO
            }
        })
        .collect();
    if !kept.is_empty() {
        return kept;
    }
    options
        .iter()
        .copied()
        .min_by(|&a, &b| padding(a).total_cmp(&padding(b)))
        .into_iter()
        .collect()
}

/// Rule-2 representative tiles: the smallest option (16) per axis, so
/// every loop has trips > 1 wherever possible, or the whole axis when it
/// is shorter.
fn representative_tiles(chain: &ChainSpec) -> Vec<u64> {
    (0..chain.num_axes())
        .map(|a| chain.axis_extent(a).clamp(1, 16))
        .collect()
}

/// Rule-2 structural test on one expression class: with every block loop
/// live, does any accumulator need more than one tile instance?
pub fn rule2_ok(chain: &ChainSpec, expr: &TilingExpr) -> bool {
    let cand = Candidate::new(expr.clone(), representative_tiles(chain));
    (0..chain.num_ops()).all(|op| accumulator_instances(chain, &cand, op) == 1)
}

/// Apply Rules 1–3 (the factor-shrinking rules): representative
/// expressions per equivalence class and the filtered per-axis tile
/// domains, plus the waterfall up to `after_rule3`.
pub(crate) fn rules123(
    chain: &ChainSpec,
    space: &SearchSpace,
) -> (Vec<TilingExpr>, Vec<Vec<u64>>, PruneStats) {
    let mut stats = PruneStats {
        original: space.count(),
        exprs_original: space.exprs.len(),
        ..Default::default()
    };
    let tile_combos_full: u128 = space.tile_domains.iter().map(|d| d.len() as u128).product();

    // ---- Rule 1: dedup by per-block sub-expression ----------------------
    let mut classes: FxHashMap<String, TilingExpr> = FxHashMap::default();
    for e in &space.exprs {
        // The sub-expression is tile-independent; use a unit-tile dummy.
        let dummy = Candidate::new(e.clone(), vec![16; chain.num_axes()]);
        let key = dummy.dedup_key(chain);
        classes.entry(key).or_insert_with(|| e.clone());
    }
    let mut reps: Vec<TilingExpr> = classes.into_values().collect();
    // Deterministic order for reproducibility.
    reps.sort_by_key(|e| e.display(chain));
    stats.exprs_rule1 = reps.len();
    stats.after_rule1 = reps.len() as u128 * tile_combos_full;

    // ---- Rule 2: drop partial-tile classes -------------------------------
    reps.retain(|e| rule2_ok(chain, e));
    stats.exprs_rule2 = reps.len();
    stats.after_rule2 = reps.len() as u128 * tile_combos_full;

    // ---- Rule 3: padding filter per axis ---------------------------------
    let tile_domains: Vec<Vec<u64>> = space
        .tile_domains
        .iter()
        .enumerate()
        .map(|(a, opts)| rule3_tiles(chain.axis_extent(a), opts))
        .collect();
    let combos_r3: u128 = tile_domains.iter().map(|d| d.len() as u128).product();
    stats.after_rule3 = reps.len() as u128 * combos_r3;

    (reps, tile_domains, stats)
}

/// Run the full pruning cascade. Rule 4 becomes the lazy survivor index
/// of the returned [`CandidateSpace`] — exact and uncapped, built on the
/// calling thread.
pub fn prune(chain: &ChainSpec, dev: &DeviceSpec, space: &SearchSpace) -> CandidateSpace {
    let (reps, tile_domains, stats) = rules123(chain, space);
    CandidateSpace::build(chain, reps, tile_domains, Some(dev.smem_per_block), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfuser_tile::rule4_fits;

    fn paper_chain() -> ChainSpec {
        ChainSpec::gemm_chain("g", 1, 1024, 1024, 512, 512)
    }

    /// Pins the Rule-2 representative tiles at whatever opt-level the
    /// tests are built with: rustc 1.95 folds the equivalent branch
    /// `if e <= 16 { e.max(1) } else { 16 }` here to `e.max(1)` from O1
    /// up, which this test catches in a release build.
    #[test]
    fn representative_tiles_clamp_to_16() {
        let chain = ChainSpec::chain(
            "r2",
            1,
            1,
            vec![8, 16, 17, 1024],
            vec![mcfuser_ir::Epilogue::None; 3],
        );
        assert_eq!(
            representative_tiles(std::hint::black_box(&chain)),
            vec![1, 8, 16, 16, 16]
        );
    }

    #[test]
    fn waterfall_shape_matches_paper() {
        let chain = paper_chain();
        let dev = DeviceSpec::a100();
        let space = SearchSpace::generate(&chain);
        let pruned = prune(&chain, &dev, &space);
        let s = &pruned.stats;
        assert_eq!(s.original, 109_051_904);
        // Rule 1 must remove ≥ 75 % of expressions (paper: 26 → 5).
        assert!(s.exprs_rule1 <= 6, "rule1 classes {}", s.exprs_rule1);
        assert!(s.exprs_rule2 <= s.exprs_rule1);
        assert!(s.exprs_rule2 >= 1);
        // Rule 3 removes ~99 % of tile combinations.
        assert!(
            (s.after_rule3 as f64) < 0.05 * s.after_rule2 as f64,
            "rule3: {} vs {}",
            s.after_rule3,
            s.after_rule2
        );
        // Rule 4 removes a further chunk.
        assert!(s.after_rule4 < s.after_rule3);
        // Final space is ~10³–10⁵ (paper: ≈10⁴).
        assert!(s.after_rule4 >= 100, "{}", s.after_rule4);
        assert!(s.after_rule4 <= 100_000, "{}", s.after_rule4);
    }

    #[test]
    fn rule3_power_of_two_keeps_divisors_only() {
        let opts = mcfuser_tile::tile_options(1024);
        let kept = rule3_tiles(1024, &opts);
        assert!(kept.iter().all(|t| 1024 % t == 0));
        // divisors of 1024 that are multiples of 16 and ≤ 1024:
        // 16, 32, 64, 128, 256, 512, 1024.
        assert_eq!(kept, vec![16, 32, 64, 128, 256, 512, 1024]);
    }

    #[test]
    fn rule3_non_pow2_allows_small_padding() {
        // 96 is not a power of two: 16, 32, 48, 96 divide; 96/80 pads 20 %.
        let opts = mcfuser_tile::tile_options(96);
        let kept = rule3_tiles(96, &opts);
        assert!(kept.contains(&16));
        assert!(kept.contains(&32));
        assert!(kept.contains(&48));
        assert!(kept.contains(&96));
        assert!(!kept.contains(&80));
        assert!(!kept.contains(&64)); // ceil(96/64)*64 = 128 → 33 % padding
    }

    #[test]
    fn rule3_empty_options_stay_empty() {
        // The upstream condition behind EmptySearchSpace { axis }: no
        // candidate tile sizes at all for an axis.
        assert!(rule3_tiles(64, &[]).is_empty());
    }

    #[test]
    fn rule2_rejects_kn_class() {
        let chain = paper_chain();
        let kn = TilingExpr::parse("mhkn", &chain).unwrap();
        let nk = TilingExpr::parse("mhnk", &chain).unwrap();
        assert!(!rule2_ok(&chain, &kn));
        assert!(rule2_ok(&chain, &nk));
    }

    #[test]
    fn candidates_all_pass_rule4() {
        let chain = paper_chain();
        let dev = DeviceSpec::a100();
        let space = SearchSpace::generate(&chain);
        let pruned = prune(&chain, &dev, &space);
        assert!(!pruned.is_empty());
        for c in pruned.iter() {
            assert!(rule4_fits(&chain, &c, dev.smem_per_block));
        }
    }

    #[test]
    fn smaller_device_prunes_more() {
        let chain = paper_chain();
        let space = SearchSpace::generate(&chain);
        let a = prune(&chain, &DeviceSpec::a100(), &space);
        let r = prune(&chain, &DeviceSpec::rtx3080(), &space);
        assert!(r.stats.after_rule4 <= a.stats.after_rule4);
    }

    #[test]
    fn attention_space_survives_pruning() {
        let chain = ChainSpec::attention("s", 12, 512, 512, 64, 64);
        let space = SearchSpace::generate(&chain);
        let pruned = prune(&chain, &DeviceSpec::a100(), &space);
        assert!(!pruned.is_empty());
    }

    #[test]
    fn no_cap_every_candidate_reachable() {
        // The old materialization silently clipped at a cap; the lazy
        // space must address its full extent.
        let chain = paper_chain();
        let space = SearchSpace::generate(&chain);
        let pruned = prune(&chain, &DeviceSpec::a100(), &space);
        assert_eq!(pruned.len() as u128, pruned.stats.after_rule4);
        let last = pruned.candidate(pruned.len() - 1);
        assert!(rule4_fits(&chain, &last, DeviceSpec::a100().smem_per_block));
    }
}
