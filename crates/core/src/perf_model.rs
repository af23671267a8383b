//! The analytical performance model — Equations (2)–(5) of §IV-A.
//!
//! ```text
//! t_estm = (t_mem + t_comp) × α                         (2)
//! t_mem  = Σ_S  TS_S · Π_{l ∈ LPset(S)} l / W           (3)
//! t_comp = Σ_C  Fp_C · Π_{l ∈ LPset(C)} l / P           (4)
//! α      = (N_block + N_SM) / N_block                   (5)
//! ```
//!
//! The trip products come from the DAG-optimized statement placement, so
//! the model automatically rewards the §III-B hoisting. It is deliberately
//! coarse — peak `W` and `P`, no L2, no tensor-core fill effects — which
//! is exactly why the simulator's richer "measurement" correlates with it
//! imperfectly (Fig. 11, r ≈ 0.8–0.9) and why Algorithm 1 still measures
//! the top-k candidates.
//!
//! The model reads only the placement's *paths*: the live loops around
//! each statement. For one chain, the paths depend only on the tiling
//! expression and on which axes are dead (one trip); tile sizes enter
//! only through the trip counts multiplied along each path. That is the
//! invariant the search's placement memo relies on: one
//! [`heuristic_search`](crate::heuristic_search) call places each
//! `(expression, dead-axis set)` once and prices every candidate sharing
//! it with a lookup plus the Eqs. 3–5 arithmetic. The memo is keyed by
//! the expression's position in the searched space and prices a borrowed
//! tile slice, so a hit neither hashes an expression tree nor builds a
//! candidate.

use rustc_hash::FxHashMap;

use mcfuser_ir::ChainSpec;
use mcfuser_sim::DeviceSpec;
use mcfuser_tile::{
    dead_axes_for_tiles, num_blocks_for_tiles, place, trips_for_tiles, Candidate, LoopId,
    PlacementError, Stmt, TensorRef, TilingExpr,
};

/// Breakdown of an analytical estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEstimate {
    /// Eq. 3: global-memory time in seconds.
    pub t_mem: f64,
    /// Eq. 4: computation time in seconds.
    pub t_comp: f64,
    /// Eq. 5: parallelism slowdown factor.
    pub alpha: f64,
    /// Eq. 2: total estimated time in seconds.
    pub total: f64,
    /// Thread blocks of the candidate.
    pub blocks: u64,
}

/// Knobs distinguishing MCFuser's analytical model from ablated variants
/// (the MCFuser-Chimera baseline minimizes data movement only and skips
/// dead-loop elimination).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelOptions {
    /// Apply §III-B dead-loop elimination before computing trip counts.
    pub dead_loop_elimination: bool,
    /// Include the computation term (Eq. 4).
    pub include_compute: bool,
    /// Include the slowdown factor (Eq. 5).
    pub include_alpha: bool,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            dead_loop_elimination: true,
            include_compute: true,
            include_alpha: true,
        }
    }
}

impl ModelOptions {
    /// Chimera's objective: data-movement minimization on the
    /// un-eliminated DAG. The parallelism factor stays on (Chimera's
    /// block-execution-order model is parallelism-aware); what it ignores
    /// is redundant *computation* (§VII: "neglecting the impact of
    /// redundant computation").
    pub fn chimera() -> Self {
        ModelOptions {
            dead_loop_elimination: false,
            include_compute: false,
            include_alpha: true,
        }
    }
}

/// Estimate a candidate's runtime. Returns `Err` for candidates whose
/// statements cannot be placed (structurally invalid schedules).
pub fn estimate(
    chain: &ChainSpec,
    cand: &Candidate,
    dev: &DeviceSpec,
) -> Result<PerfEstimate, PlacementError> {
    estimate_with(chain, cand, dev, &ModelOptions::default())
}

/// Estimate with explicit model options.
pub fn estimate_with(
    chain: &ChainSpec,
    cand: &Candidate,
    dev: &DeviceSpec,
    opts: &ModelOptions,
) -> Result<PerfEstimate, PlacementError> {
    let paths = placed_paths(chain, cand, opts)?;
    Ok(estimate_on(chain, &cand.tiles, dev, opts, &paths))
}

/// For each statement: the block-loop axes around it, root first — the
/// part of a [`mcfuser_tile::Placement`] the model reads.
type Paths = Vec<(Stmt, Vec<LoopId>)>;

/// Place the candidate's statements and keep their paths: into the live
/// block expression, or into the un-eliminated one when the model skips
/// dead-loop elimination.
fn placed_paths(
    chain: &ChainSpec,
    cand: &Candidate,
    opts: &ModelOptions,
) -> Result<Paths, PlacementError> {
    let placement = if opts.dead_loop_elimination {
        place(chain, cand)?
    } else {
        mcfuser_tile::place_into(chain, cand, &cand.block_expr(chain))?
    };
    Ok(placement.paths)
}

/// Placements of one chain, memoized for the length of one search.
///
/// Indexed by the position of the tiling expression in the searched
/// space's expression list, then keyed by the mask of axes dead-loop
/// elimination drops from its block expression: bit `a` is set for each
/// axis in [`Candidate::dead_axes`], the set `place` eliminates, and the
/// mask is 0 when the model skips the elimination. The elimination flag
/// needs no place in the key, since with no axis dropped the live block
/// expression *is* the block expression. By the invariant in the module
/// docs, every candidate with the same key has the same paths, so a hit
/// returns exactly what [`estimate_with`] would place, placement errors
/// included. One search tunes one chain on one thread, so the memo is
/// owned, not shared.
pub(crate) struct PlacementMemo<'c> {
    chain: &'c ChainSpec,
    exprs: &'c [TilingExpr],
    by_expr: Vec<FxHashMap<u64, Result<Paths, PlacementError>>>,
}

impl<'c> PlacementMemo<'c> {
    /// An empty memo for `chain` and its space's expressions.
    pub(crate) fn new(chain: &'c ChainSpec, exprs: &'c [TilingExpr]) -> Self {
        assert!(
            chain.num_axes() <= u64::BITS as usize,
            "the dead-axis mask holds at most 64 axes"
        );
        PlacementMemo {
            chain,
            exprs,
            by_expr: vec![FxHashMap::default(); exprs.len()],
        }
    }

    /// [`estimate_with`] of the candidate `(exprs[expr], tiles)`, placing
    /// its loop structure only the first time it is seen.
    pub(crate) fn estimate(
        &mut self,
        expr: usize,
        tiles: &[u64],
        dev: &DeviceSpec,
        opts: &ModelOptions,
    ) -> Result<PerfEstimate, PlacementError> {
        let (chain, exprs) = (self.chain, self.exprs);
        let dead = if opts.dead_loop_elimination {
            dead_axes_for_tiles(chain, tiles).fold(0u64, |mask, a| mask | 1 << a.0)
        } else {
            0
        };
        let paths = self.by_expr[expr].entry(dead).or_insert_with(|| {
            placed_paths(
                chain,
                &Candidate::new(exprs[expr].clone(), tiles.to_vec()),
                opts,
            )
        });
        match paths {
            Ok(paths) => Ok(estimate_on(chain, tiles, dev, opts, paths)),
            Err(e) => Err(e.clone()),
        }
    }

    /// Distinct loop structures placed so far.
    #[cfg(test)]
    fn placed(&self) -> usize {
        self.by_expr.iter().map(FxHashMap::len).sum()
    }
}

/// Per-block trip count of a statement on `path`: the product of its
/// enclosing loops' trips (Eq. 3's `Π l_j` without the grid factor).
fn block_trips(chain: &ChainSpec, tiles: &[u64], path: &[LoopId]) -> u64 {
    path.iter()
        .map(|&a| trips_for_tiles(chain, tiles, a))
        .product()
}

/// Eqs. 2–5 over placed paths.
fn estimate_on(
    chain: &ChainSpec,
    tiles: &[u64],
    dev: &DeviceSpec,
    opts: &ModelOptions,
    paths: &[(Stmt, Vec<LoopId>)],
) -> PerfEstimate {
    let blocks = num_blocks_for_tiles(chain, tiles);
    let nb = blocks as f64;
    let esz = chain.dtype.size_bytes() as f64;
    // Grid-wide trips of a statement; one per block when it is unplaced.
    let trips_of = |s: Stmt| {
        let trips = paths
            .iter()
            .find(|(st, _)| *st == s)
            .map_or(1, |(_, path)| block_trips(chain, tiles, path));
        trips as f64 * nb
    };

    let mut t_mem = 0.0f64;
    let mut t_comp = 0.0f64;
    for (stmt, path) in paths {
        let trips = block_trips(chain, tiles, path) as f64 * nb;
        match stmt {
            Stmt::Load(t) => {
                let (r, c) = mcfuser_tile::tile_shape(chain, *t, tiles);
                t_mem += (r * c) as f64 * esz * trips / dev.dram_bandwidth;
            }
            Stmt::Store => {
                let (r, c) = mcfuser_tile::tile_shape(chain, TensorRef::Output, tiles);
                t_mem += (r * c) as f64 * esz * trips / dev.dram_bandwidth;
            }
            Stmt::Compute(i) => {
                let tm = tiles[0];
                let tk = tiles[i + 1];
                let tn = tiles[i + 2];
                let flops = 2.0 * (tm * tk * tn) as f64;
                t_comp += flops * trips / dev.peak_flops(chain.dtype);
            }
        }
    }

    // Auxiliary-input traffic: a stage's bias strip / mask tile is
    // loaded wherever its epilogue is emitted — with the consuming
    // compute block (or the store, for the final stage).
    for i in 0..chain.num_ops() {
        let has_bias = chain.biases.get(i).copied().unwrap_or(false);
        let has_mask = chain.epilogues[i].needs_mask();
        if !has_bias && !has_mask {
            continue;
        }
        let emit_at = if i + 1 < chain.num_ops() {
            Stmt::Compute(i + 1)
        } else {
            Stmt::Store
        };
        let trips = trips_of(emit_at);
        let cols = tiles[i + 2] as f64;
        if has_bias {
            t_mem += cols * esz * trips / dev.dram_bandwidth;
        }
        if has_mask {
            t_mem += tiles[0] as f64 * cols * esz * trips / dev.dram_bandwidth;
        }
    }

    // Stitched prologue/epilogue traffic. The stitch trades the unfused
    // layout's full store+reload round-trips (priced by the plan as
    // Reference glue) for raw-f32 reads folded into this kernel: the A
    // tile arrives unquantized (+ a residual tile and per-k gamma/beta
    // strips), the stats pass streams each block's rows once, and the
    // tail re-reads its columns raw before the f32 store.
    if chain.prologue.is_some() || chain.stitch_epilogue.is_some() {
        let bw = dev.dram_bandwidth;
        let tm = tiles[0] as f64;
        if let Some(p) = chain.prologue {
            let a_trips = trips_of(Stmt::Load(TensorRef::Input(0)));
            let tk = tiles[1] as f64;
            t_mem += tm * tk * (4.0 - esz) * a_trips / bw;
            if p.residual {
                t_mem += tm * tk * 4.0 * a_trips / bw;
            }
            if p.affine {
                t_mem += 2.0 * tk * 4.0 * a_trips / bw;
            }
            let d0 = chain.dims[0] as f64;
            let passes = if p.residual { 2.0 } else { 1.0 };
            t_mem += tm * d0 * 4.0 * passes * nb / bw;
        }
        if let Some(t) = chain.stitch_epilogue {
            let s_trips = trips_of(Stmt::Store);
            let tn = *tiles.last().unwrap() as f64;
            t_mem += tm * tn * (4.0 - esz) * s_trips / bw;
            match t.residual {
                mcfuser_ir::ResidualSource::External => {
                    t_mem += tm * tn * 4.0 * s_trips / bw;
                }
                mcfuser_ir::ResidualSource::PrologueOut => {
                    let passes = if chain.prologue.map(|p| p.residual).unwrap_or(false) {
                        2.0
                    } else {
                        1.0
                    };
                    t_mem += tm * tn * 4.0 * passes * s_trips / bw;
                    t_mem += 2.0 * tn * 4.0 * s_trips / bw;
                }
            }
            if t.layer_norm && t.affine {
                t_mem += 2.0 * tn * 4.0 * s_trips / bw;
            }
        }
    }

    if !opts.include_compute {
        t_comp = 0.0;
    }
    let alpha = if opts.include_alpha {
        (nb + dev.num_sms as f64) / nb
    } else {
        1.0
    };
    let total = (t_mem + t_comp) * alpha;
    PerfEstimate {
        t_mem,
        t_comp,
        alpha,
        total,
        blocks,
    }
}

/// Estimate, mapping structural failures to `+∞` (convenient for sorting
/// populations in Algorithm 1).
pub fn estimate_or_inf(chain: &ChainSpec, cand: &Candidate, dev: &DeviceSpec) -> f64 {
    estimate(chain, cand, dev)
        .map(|e| e.total)
        .unwrap_or(f64::INFINITY)
}

/// [`estimate_or_inf`] with explicit model options.
pub fn estimate_or_inf_with(
    chain: &ChainSpec,
    cand: &Candidate,
    dev: &DeviceSpec,
    opts: &ModelOptions,
) -> f64 {
    estimate_with(chain, cand, dev, opts)
        .map(|e| e.total)
        .unwrap_or(f64::INFINITY)
}

/// Operational intensity φ of a tiled matmul — the left axis of Fig. 2:
/// `φ = 2·TM·TN·K / (2·TM·TN + TM·K + TN·K)` (FLOPs per element moved;
/// multiply by the element size to get FLOPs per byte).
pub fn matmul_tile_intensity(tile_m: u64, tile_n: u64, k: u64) -> f64 {
    let (tm, tn, kk) = (tile_m as f64, tile_n as f64, k as f64);
    2.0 * tm * tn * kk / (2.0 * tm * tn + tm * kk + tn * kk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfuser_tile::TilingExpr;

    fn chain() -> ChainSpec {
        ChainSpec::gemm_chain("g", 1, 512, 256, 64, 128)
    }

    fn cand(expr: &str, tiles: Vec<u64>) -> Candidate {
        Candidate::new(TilingExpr::parse(expr, &chain()).unwrap(), tiles)
    }

    #[test]
    fn estimate_is_finite_and_positive() {
        let c = chain();
        let e = estimate(&c, &cand("mhnk", vec![64, 32, 64, 32]), &DeviceSpec::a100()).unwrap();
        assert!(e.total > 0.0 && e.total.is_finite());
        assert!(e.t_mem > 0.0);
        assert!(e.t_comp > 0.0);
        assert!(e.alpha >= 1.0);
    }

    #[test]
    fn alpha_decreases_with_more_blocks() {
        let c = chain();
        let few = estimate(
            &c,
            &cand("mhnk", vec![512, 32, 64, 128]),
            &DeviceSpec::a100(),
        )
        .unwrap();
        let many = estimate(&c, &cand("mhnk", vec![32, 32, 64, 16]), &DeviceSpec::a100()).unwrap();
        assert!(few.blocks < many.blocks);
        assert!(few.alpha > many.alpha);
    }

    #[test]
    fn dead_loop_hoisting_reduces_t_mem() {
        let c = chain();
        // k covered by one tile (64): LA/LB loaded once per block instead
        // of per n-iteration.
        let hoisted =
            estimate(&c, &cand("mhnk", vec![64, 64, 64, 32]), &DeviceSpec::a100()).unwrap();
        let split = estimate(&c, &cand("mhnk", vec![64, 16, 64, 32]), &DeviceSpec::a100()).unwrap();
        // Same tile volume for A per load × more trips → more traffic.
        assert!(
            hoisted.t_mem < split.t_mem,
            "{} !< {}",
            hoisted.t_mem,
            split.t_mem
        );
    }

    #[test]
    fn estimate_or_inf_on_unplaceable() {
        // Hand-build a bogus expression whose related loops diverge:
        // Seq of two loops both containing… actually chains always place,
        // so check the happy path maps to a finite value instead.
        let c = chain();
        let v = estimate_or_inf(&c, &cand("mhnk", vec![64, 32, 64, 32]), &DeviceSpec::a100());
        assert!(v.is_finite());
    }

    #[test]
    fn tile_intensity_monotone_in_k() {
        let lo = matmul_tile_intensity(256, 256, 16);
        let hi = matmul_tile_intensity(256, 256, 1024);
        assert!(hi > lo);
        // K=1 degenerate case from the paper's §I: ratio collapses to ~2.
        let tiny = matmul_tile_intensity(256, 256, 1);
        assert!(tiny < 2.0);
    }

    #[test]
    fn paper_phi_value_for_tile_256() {
        // With TM=TN=256, K=1024 the formula yields φ = 204.8 ops/element,
        // the same order as the "227" the paper quotes for K=1024 in §I
        // (the paper's constant folds in its own tile/byte conventions).
        let phi = matmul_tile_intensity(256, 256, 1024);
        assert!((phi - 204.8).abs() < 0.1, "phi {phi}");
    }

    #[test]
    fn masked_softmax_costs_more_than_plain() {
        // The mask tile is extra global traffic the model must see.
        let plain = ChainSpec::attention("s", 8, 512, 512, 64, 64);
        let masked = ChainSpec::masked_attention("sm", 8, 512, 512, 64, 64);
        let cd = |c: &ChainSpec| {
            Candidate::new(TilingExpr::parse("mhnk", c).unwrap(), vec![64, 32, 64, 32])
        };
        let dev = DeviceSpec::a100();
        let a = estimate(&plain, &cd(&plain), &dev).unwrap();
        let b = estimate(&masked, &cd(&masked), &dev).unwrap();
        assert!(b.t_mem > a.t_mem, "{} !> {}", b.t_mem, a.t_mem);
    }

    #[test]
    fn bias_traffic_is_accounted() {
        let plain = chain();
        let mut biased = chain();
        biased.biases = vec![true, true];
        let cd = cand("mhnk", vec![64, 32, 64, 32]);
        let dev = DeviceSpec::a100();
        let a = estimate(&plain, &cd, &dev).unwrap();
        let b = estimate(&biased, &cd, &dev).unwrap();
        assert!(b.t_mem > a.t_mem);
    }

    /// An FFN with a LayerNorm prologue and a residual + LayerNorm tail
    /// stitched in.
    fn stitched_ffn() -> ChainSpec {
        let mut st = ChainSpec::gemm_chain("ffn", 1, 512, 64, 256, 256);
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
        st
    }

    #[test]
    fn stitched_traffic_is_accounted() {
        // The stitched kernel moves strictly more bytes than its twin
        // (raw f32 A, residual tile, stats pass, tail re-reads) — the
        // saving shows up at plan level where the glue steps disappear.
        let st = stitched_ffn();
        let twin = st.unstitched();
        let cd = Candidate::new(
            TilingExpr::parse("mhnk", &st).unwrap(),
            vec![64, 32, 64, 32],
        );
        let dev = DeviceSpec::a100();
        let a = estimate(&st, &cd, &dev).unwrap();
        let b = estimate(&twin, &cd, &dev).unwrap();
        assert!(a.t_mem > b.t_mem, "{} !> {}", a.t_mem, b.t_mem);
        assert_eq!(a.t_comp, b.t_comp);
    }

    /// Every field of an estimate as bits, so equality is exact.
    fn bits(e: Result<PerfEstimate, PlacementError>) -> Result<[u64; 5], PlacementError> {
        e.map(|e| {
            [
                e.t_mem.to_bits(),
                e.t_comp.to_bits(),
                e.alpha.to_bits(),
                e.total.to_bits(),
                e.blocks,
            ]
        })
    }

    #[test]
    fn memoized_estimates_match_estimate_with() {
        // Every pruned candidate, plus each with one axis's tile stepped
        // to a neighbouring domain value (a `mutate` child, which may
        // leave the pruned set), priced through one memo per chain under
        // both model variants, keyed by the expression's position in the
        // space: bit-identical to placing every time.
        let dev = DeviceSpec::a100();
        let chains = [
            chain(),
            ChainSpec::attention("s", 8, 512, 512, 64, 64),
            ChainSpec::masked_attention("sm", 8, 512, 512, 64, 64),
            ChainSpec::chain(
                "c3",
                1,
                256,
                vec![64, 128, 128, 64],
                vec![mcfuser_ir::Epilogue::Relu; 3],
            ),
            stitched_ffn(),
        ];
        for chain in &chains {
            let space = crate::tuner::build_candidate_space(chain, &dev, &Default::default());
            let mut memo = PlacementMemo::new(chain, &space.exprs);
            let mut estimated = 0usize;
            for (i, cand) in space.iter().enumerate() {
                let expr = space.expr_of(i as u64);
                let mut child = cand.clone();
                let axis = i % child.tiles.len();
                let domain = &space.tile_domains[axis];
                let cur = domain.iter().position(|&t| t == child.tiles[axis]).unwrap();
                let next = if i % 2 == 0 {
                    (cur + 1).min(domain.len() - 1)
                } else {
                    cur.saturating_sub(1)
                };
                child.tiles[axis] = domain[next];
                for c in [&cand, &child] {
                    for opts in [ModelOptions::default(), ModelOptions::chimera()] {
                        assert_eq!(
                            bits(memo.estimate(expr, &c.tiles, &dev, &opts)),
                            bits(estimate_with(chain, c, &dev, &opts)),
                            "{} {:?}",
                            c.describe(chain),
                            opts
                        );
                        estimated += 1;
                    }
                }
            }
            assert!(
                memo.placed() < estimated,
                "{}: placed {} structures for {} estimates",
                chain.name,
                memo.placed(),
                estimated
            );
        }
    }

    #[test]
    fn estimates_deterministic() {
        let c = chain();
        let cd = cand("mn(k,h)", vec![64, 32, 64, 32]);
        let a = estimate(&c, &cd, &DeviceSpec::a100()).unwrap();
        let b = estimate(&c, &cd, &DeviceSpec::a100()).unwrap();
        assert_eq!(a, b);
    }
}
