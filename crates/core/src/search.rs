//! Heuristic exploration — Algorithm 1 of §IV-B.
//!
//! An evolutionary search in the spirit of Ansor's, with the two changes
//! the paper makes:
//!
//! 1. the learned cost model is replaced by the *analytical* model of
//!    Eqs. 2–5 (no training, no measurement; each loop structure is
//!    placed once per search, so an estimate is a memo lookup plus
//!    arithmetic), and
//! 2. the fixed trial budget is replaced by a *convergence criterion*:
//!    when the best newly measured candidate stops improving on the
//!    incumbent by more than ε, the search stops by itself.
//!
//! Per round: estimate the whole population analytically, measure only the
//! top-n on the (simulated) device, then breed the next population by
//! mutation with selection probability ∝ 1/estimated-time.
//!
//! One extension to the paper: only the members the device has measured
//! breed. Every fresh measurement after the first round is then one
//! mutation step from a candidate that ran, so the convergence test asks
//! whether any neighbour of what ran beats the incumbent, and it alone
//! ends the search (no minimum round count overrides it).
//!
//! The search lives inside the pruned space: a population member is a
//! Rule-4 survivor's [`CandidateSpace`] index plus its tile vector, and
//! mutation returns the parent whenever its step would leave the
//! survivors, so nothing Rule 4 rejected is ever ranked, lowered or
//! charged. Sampling draws an index, the full-ranking seed path visits
//! borrowed tile slices ([`CandidateSpace::visit`]) without building a
//! candidate, and every candidate the space admits — however large the
//! space — is reachable. A member's expression is its index's
//! ([`CandidateSpace::expr_of`]), so the placement memo and the
//! measurement cache never compare or hash an expression tree, and a
//! [`Candidate`] is built only to lower a member or to return the winner.
//!
//! Each round walks the ranking and lowers fresh candidates through
//! [`lower_within`] until `n` of them have run. In a space pruned by the
//! default policy — Rule 4 on lowering's own footprint, a tail
//! LayerNorm's last axis pinned to its full row — every candidate
//! launches. The ablation policies (the paper's Eq. 1 rule, or Rule 4
//! off) still admit two kinds that cannot: a candidate that fails a
//! lowering legality check costs nothing, and a legal one whose
//! single-copy shared memory exceeds the device's is charged one
//! compile, as the real toolchain would, but is refused before any
//! kernel is emitted. [`SearchOutcome`] counts both.

use rand::distributions::WeightedIndex;
use rand::prelude::*;
use rustc_hash::FxHashMap;

use mcfuser_ir::ChainSpec;
use mcfuser_sim::{measure_noisy, CostProfile, DeviceSpec, KernelProfile, TuningClock};
use mcfuser_tile::{lower_within, Candidate, Launch, LoweredKernel, LoweringOptions};

use crate::perf_model::PlacementMemo;
use crate::space::CandidateSpace;

/// Parameters of Algorithm 1.
#[derive(Debug, Clone)]
pub struct SearchParams {
    /// Population size `N`.
    pub population: usize,
    /// Candidates measured per round `n` (the paper sets 8).
    pub topk: usize,
    /// Relative convergence threshold ε.
    pub epsilon: f64,
    /// Safety bound on rounds (the convergence criterion normally fires
    /// much earlier).
    pub max_rounds: usize,
    /// RNG seed.
    pub seed: u64,
    /// Analytical-model variant guiding the search.
    pub model: crate::perf_model::ModelOptions,
    /// Apply dead-loop elimination when lowering measured candidates
    /// (disabled by the Chimera baseline).
    pub dead_loop_elimination: bool,
    /// Replace the analytical model with a deterministic pseudo-random
    /// ranking (ablation: what does the model itself contribute?).
    pub random_ranking: bool,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            population: 128,
            topk: 8,
            epsilon: 0.01,
            max_rounds: 12,
            seed: 0x5EED,
            model: crate::perf_model::ModelOptions::default(),
            dead_loop_elimination: true,
            random_ranking: false,
        }
    }
}

impl SearchParams {
    /// The MCFuser-Chimera configuration (§VI-A): deep-tiling space is
    /// selected by the caller; this sets the data-movement objective and
    /// disables dead-loop elimination.
    pub fn chimera() -> Self {
        SearchParams {
            model: crate::perf_model::ModelOptions::chimera(),
            dead_loop_elimination: false,
            ..Default::default()
        }
    }
}

/// Which candidates a search tried to lower, in index terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MeasuredSet {
    /// Sorted distinct space indices of every candidate the search tried
    /// to lower.
    pub indexed: Vec<u64>,
    /// Always 0: the search lowers only Rule-4 survivors. Kept until the
    /// benchmark's compile replay stops reading it.
    pub detached: usize,
}

/// Result of a completed search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The winning schedule.
    pub best: Candidate,
    /// The lowered kernel.
    pub kernel: LoweredKernel,
    /// The full device profile of the winner; `profile.time` is its
    /// measured kernel time (seconds).
    pub profile: KernelProfile,
    /// Rounds executed before convergence.
    pub rounds: usize,
    /// Distinct candidates the search tried to lower: the ones it
    /// measured on the device, plus the [`illegal`](Self::illegal) and
    /// the [`refused`](Self::refused) ones. Not a count of device
    /// measurements.
    pub measured: usize,
    /// Of those, legal candidates refused because their kernel needs
    /// more shared memory per block than the device has. Each was
    /// charged one compile and never emitted, so `refused` is the
    /// compiles this search charged minus its measurements. Always 0 in
    /// a space the default [`SpacePolicy`](crate::SpacePolicy) pruned.
    pub refused: usize,
    /// Of those, candidates that failed a lowering legality check. They
    /// were charged nothing. Always 0 in a space the default
    /// [`SpacePolicy`](crate::SpacePolicy) pruned.
    pub illegal: usize,
    /// Best measured time after each round (monotone non-increasing).
    pub history: Vec<f64>,
    /// The candidates counted by [`measured`](Self::measured), as space
    /// indices.
    pub measured_set: MeasuredSet,
}

/// Full-space ranking is attempted when the pruned space has at most
/// this many candidates (analytical estimates need no measurement and
/// share one placement per loop structure; the candidates stream
/// through the scorer without being materialized).
const FULL_RANKING_LIMIT: u64 = 20_000;

/// Why a candidate the search tried to lower never ran.
#[derive(Debug, Clone, Copy)]
enum Unlaunched {
    /// It failed a lowering legality check.
    Illegal,
    /// Its kernel needs more shared memory than the device has.
    Refused,
}

/// What one device measurement produced: the lowered kernel and its
/// profile, or why there is none. Cached per candidate so round winners
/// are never re-lowered or re-measured.
type Measurement = Result<(LoweredKernel, KernelProfile), Unlaunched>;

fn measured_time(m: &Measurement) -> f64 {
    m.as_ref().map_or(f64::INFINITY, |(_, p)| p.time)
}

/// Measure one candidate on the device, charging the tuning clock: one
/// compile for a legal candidate, plus the measurement when it launches;
/// nothing for an illegal one. A legal candidate over the device's
/// shared memory still costs its compile, since the real toolchain
/// learns the size only by compiling (Fig. 10: "eliminated during PTX
/// code lowering"), but only kernels that launch are emitted here.
fn measure_candidate(
    chain: &ChainSpec,
    cand: &Candidate,
    dev: &DeviceSpec,
    cost: &CostProfile,
    clock: &TuningClock,
    seed: u64,
    lower_opts: &LoweringOptions,
) -> Measurement {
    let launch = lower_within(chain, cand, lower_opts, dev.smem_per_block)
        .map_err(|_| Unlaunched::Illegal)?;
    clock.charge_compile(cost);
    let Launch::Ready(lk) = launch else {
        return Err(Unlaunched::Refused);
    };
    let prof = measure_noisy(&lk.program, dev, seed);
    clock.charge_measurement(cost, prof.time);
    Ok((lk, prof))
}

/// Score the candidate `(space.exprs[expr], tiles)` for ranking: the
/// analytical estimate, or the deterministic pseudo-random stand-in
/// under `random_ranking`.
fn rank_score(
    memo: &mut PlacementMemo,
    space: &CandidateSpace,
    expr: usize,
    tiles: &[u64],
    dev: &DeviceSpec,
    params: &SearchParams,
) -> f64 {
    let e = memo
        .estimate(expr, tiles, dev, &params.model)
        .map_or(f64::INFINITY, |e| e.total);
    if params.random_ranking && e.is_finite() {
        use std::hash::{Hash, Hasher};
        // The expression, then the tiles: what `Candidate`'s derived
        // `Hash` feeds the hasher.
        let mut h = rustc_hash::FxHasher::default();
        space.exprs[expr].hash(&mut h);
        tiles.hash(&mut h);
        mcfuser_sim::noise::unit_sample(params.seed, h.finish())
    } else {
        e
    }
}

/// One population member: a Rule-4 survivor's space index and its tile
/// vector. Its expression is the index's, [`CandidateSpace::expr_of`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Member {
    idx: u64,
    tiles: Vec<u64>,
}

impl Member {
    /// The survivor at space index `idx`.
    fn at(space: &CandidateSpace, idx: u64) -> Member {
        Member {
            idx,
            tiles: space.tiles_at(idx),
        }
    }
}

/// Cap on a single breeding weight. `1 / estimate` overflows to `+inf`
/// for a zero Eq. 2 estimate (a degenerate but reachable model output),
/// and a single non-finite weight makes [`WeightedIndex`] reject the
/// whole distribution — the round would silently fall back to uniform
/// resampling (or stop breeding entirely), discarding the selection
/// pressure. The cap keeps a zero-estimate candidate what it should be:
/// overwhelmingly likely to be selected, not poisonous. Small enough
/// that a full population of capped weights still sums finitely.
const MAX_BREED_WEIGHT: f64 = 1e300;

/// Selection weights for breeding: probability ∝ 1/estimate, with
/// non-finite estimates masked to 0 and the inverse clamped to
/// [`MAX_BREED_WEIGHT`] so no estimate — however small — can defeat
/// [`WeightedIndex`].
fn breeding_weights(estimates: &[f64]) -> Vec<f64> {
    estimates
        .iter()
        .map(|&e| {
            if !e.is_finite() || e < 0.0 {
                0.0
            } else if e == 0.0 {
                // Both zeros: `1.0 / -0.0` is -inf, which would defeat
                // WeightedIndex just like the +inf this function guards.
                MAX_BREED_WEIGHT
            } else {
                (1.0 / e).min(MAX_BREED_WEIGHT)
            }
        })
        .collect()
}

/// Breed the next population: selection probability ∝ weight, one
/// tile-size mutation per child. Returns `None` when the weights defeat
/// [`WeightedIndex`] (all-zero after masking, or non-finite) — the
/// caller must treat that as "search exhausted", *not* as failure of the
/// whole search.
fn breed_population(
    population: &[Member],
    weights: &[f64],
    space: &CandidateSpace,
    rng: &mut StdRng,
    size: usize,
) -> Option<Vec<Member>> {
    let dist = WeightedIndex::new(weights).ok()?;
    Some(
        (0..size)
            .map(|_| mutate(&population[dist.sample(rng)], space, rng))
            .collect(),
    )
}

/// Run Algorithm 1 over a pruned space. Returns `None` only when no
/// candidate in the space is lowerable/launchable.
pub fn heuristic_search(
    chain: &ChainSpec,
    dev: &DeviceSpec,
    space: &CandidateSpace,
    params: &SearchParams,
    clock: &TuningClock,
) -> Option<SearchOutcome> {
    if space.is_empty() {
        return None;
    }
    let cost = CostProfile::triton();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let lower_opts = if params.dead_loop_elimination {
        LoweringOptions::for_device(dev)
    } else {
        LoweringOptions::for_device(dev).without_dead_loop_elimination()
    };
    let sample_idx = |rng: &mut StdRng| Member::at(space, rng.gen_range(0..space.len()));
    // One placement per loop structure for the whole search: the
    // full ranking and every round's ranking price through it.
    let mut memo = PlacementMemo::new(chain, &space.exprs);

    // Line 1: initial population. Analytical estimates need no
    // measurement and reuse the memo's placements, so when the pruned
    // space is small enough we rank *all* of it and seed half the
    // population with the model's best picks (the other half stays
    // random for diversity); otherwise fall back to uniform sampling.
    // Ranking visits borrowed tile slices straight out of the index
    // decoder — no candidate is built, only (index, score) pairs are kept.
    let mut population: Vec<Member> = if space.len() <= FULL_RANKING_LIMIT {
        let mut scored: Vec<(u64, f64)> = Vec::with_capacity(space.len() as usize);
        space.visit(|i, expr, tiles| {
            scored.push((i, rank_score(&mut memo, space, expr, tiles, dev, params)));
        });
        clock.note_estimates(scored.len() as u64);
        // Order by (score, index): equal scores keep space order, so the
        // seeded half of the population is deterministic. The order is
        // total, so selecting the seeded prefix and sorting only it
        // gives the prefix a full sort would.
        let seeded = (params.population / 2).min(scored.len());
        let by_score = |a: &(u64, f64), b: &(u64, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
        if seeded < scored.len() {
            scored.select_nth_unstable_by(seeded, by_score);
        }
        scored[..seeded].sort_unstable_by(by_score);
        let mut pop: Vec<Member> = scored[..seeded]
            .iter()
            .map(|&(i, _)| Member::at(space, i))
            .collect();
        while pop.len() < params.population {
            pop.push(sample_idx(&mut rng));
        }
        pop
    } else {
        (0..params.population)
            .map(|_| sample_idx(&mut rng))
            .collect()
    };

    let mut best: Option<(u64, f64, LoweredKernel, KernelProfile)> = None;
    // Keyed by space index; the key set is the reported measured set.
    let mut measured_cache: FxHashMap<u64, Measurement> = FxHashMap::default();
    let mut history = Vec::new();
    let mut rounds = 0usize;
    let (mut refused, mut illegal) = (0usize, 0usize);

    for round in 0..params.max_rounds {
        rounds = round + 1;
        // Line 5: analytical estimates (no measurement; placements come
        // from the memo).
        let estimates: Vec<f64> = population
            .iter()
            .map(|m| {
                rank_score(
                    &mut memo,
                    space,
                    space.expr_of(m.idx),
                    &m.tiles,
                    dev,
                    params,
                )
            })
            .collect();
        clock.note_estimates(estimates.len() as u64);

        // Lines 6-7: sort by estimate, take top-n for real measurement.
        // The coarse model produces exact ties between candidates it
        // cannot distinguish; shuffling before the stable sort makes each
        // round sample a different subset of a tied group instead of
        // re-measuring the same one.
        let mut order: Vec<usize> = (0..population.len()).collect();
        order.shuffle(&mut rng);
        order.sort_by(|&a, &b| estimates[a].total_cmp(&estimates[b]));
        // Line 8: walk the ranking and measure the top-n *fresh* candidates
        // (Ansor-style visited filter). Under the ablation policies,
        // candidates killed at lowering — the paper's Fig. 10 quadrant
        // II, "eliminated during PTX code lowering" — cost a compile but
        // do not consume a measurement slot; the walk continues to the
        // next-ranked candidate.
        // Previously measured population members still compete for
        // round-best via the cache.
        let mut round_best: Option<(usize, f64)> = None;
        // Fresh-measurement best — the paper's `top1_t` (its measured
        // top-k are always new candidates), used for the convergence test.
        let mut fresh_best: Option<f64> = None;
        for (i, member) in population.iter().enumerate() {
            if let Some(m) = measured_cache.get(&member.idx) {
                let t = measured_time(m);
                if t.is_finite() && round_best.map(|(_, bt)| t < bt).unwrap_or(true) {
                    round_best = Some((i, t));
                }
            }
        }
        let mut fresh = 0usize;
        for &i in &order {
            if fresh >= params.topk {
                break;
            }
            let member = &population[i];
            if !estimates[i].is_finite() || measured_cache.contains_key(&member.idx) {
                continue;
            }
            let m = measure_candidate(
                chain,
                &space.candidate(member.idx),
                dev,
                &cost,
                clock,
                params.seed,
                &lower_opts,
            );
            let t = measured_time(&m);
            match m {
                Err(Unlaunched::Illegal) => illegal += 1,
                Err(Unlaunched::Refused) => refused += 1,
                Ok(_) => {}
            }
            measured_cache.insert(member.idx, m);
            if t.is_finite() {
                fresh += 1;
                if fresh_best.map(|b| t < b).unwrap_or(true) {
                    fresh_best = Some(t);
                }
                if round_best.map(|(_, bt)| t < bt).unwrap_or(true) {
                    round_best = Some((i, t));
                }
            }
        }

        let Some((top1_idx, top1_t)) = round_best else {
            // Nothing measurable this round: resample and retry.
            population = (0..params.population)
                .map(|_| sample_idx(&mut rng))
                .collect();
            continue;
        };
        let top1 = population[top1_idx].idx;
        // The winner's kernel + profile come straight from the
        // measurement cache — a finite round-best time implies a
        // successful measurement, so no re-lowering and no panic path.
        let (top1_lk, top1_prof) = measured_cache
            .get(&top1)
            .and_then(|m| m.as_ref().ok().cloned())
            .expect("round-best candidate has a cached measurement");

        // Lines 10-12: convergence test against the incumbent, on freshly
        // measured candidates only (re-reading the cache is not evidence
        // of convergence). A round with nothing fresh to measure has
        // exhausted its neighborhood and also counts as converged.
        let converged = match (&best, fresh_best) {
            (Some((_, best_t, _, _)), Some(fb)) => fb >= best_t * (1.0 - params.epsilon),
            (Some(_), None) => true,
            _ => false,
        };

        // Lines 13-16: update incumbent.
        let improved = best
            .as_ref()
            .map(|(_, bt, _, _)| top1_t < *bt)
            .unwrap_or(true);
        if improved {
            best = Some((top1, top1_t, top1_lk, top1_prof));
        }
        history.push(best.as_ref().unwrap().1);
        if converged {
            break;
        }

        // Line 17: next population by estimate-weighted mutation, bred
        // only from the members the device has measured. Every fresh
        // measurement of the next round is then one mutation step from
        // a candidate that ran, so the test above asks whether any
        // neighbour of what ran beats the incumbent. The round's best
        // ran, so the pool is never empty.
        let mut weights = breeding_weights(&estimates);
        for (w, m) in weights.iter_mut().zip(&population) {
            if !measured_cache.get(&m.idx).is_some_and(Result::is_ok) {
                *w = 0.0;
            }
        }
        match breed_population(&population, &weights, space, &mut rng, params.population) {
            Some(next) => population = next,
            // Degenerate weights (e.g. an estimate so small its inverse
            // overflows to infinity): the selection distribution cannot
            // be built, but an incumbent found in earlier rounds is still
            // a perfectly good answer — stop breeding, keep the best.
            None => break,
        }
    }

    let (best_idx, _, kernel, profile) = best?;
    let mut indexed: Vec<u64> = measured_cache.keys().copied().collect();
    indexed.sort_unstable();
    Some(SearchOutcome {
        best: space.candidate(best_idx),
        kernel,
        profile,
        rounds,
        measured: measured_cache.len(),
        refused,
        illegal,
        history,
        measured_set: MeasuredSet {
            indexed,
            detached: 0,
        },
    })
}

/// Mutate one loop's tile size to a neighboring option (the paper's
/// mutation operator: "one loop is chosen to mutate the tile size").
/// A step that leaves the Rule-4 survivors returns the parent, so the
/// child is always a member of the pruned space.
fn mutate(parent: &Member, space: &CandidateSpace, rng: &mut StdRng) -> Member {
    let axis = rng.gen_range(0..parent.tiles.len());
    let domain = &space.tile_domains[axis];
    if domain.len() <= 1 {
        return parent.clone();
    }
    let cur = domain
        .iter()
        .position(|&t| t == parent.tiles[axis])
        .expect("a survivor's tiles lie in the Rule-3 domains");
    let next = if rng.gen_bool(0.5) && cur + 1 < domain.len() {
        cur + 1
    } else {
        cur.saturating_sub(1)
    };
    let mut tiles = parent.tiles.clone();
    tiles[axis] = domain[next];
    match space.index_in(space.expr_of(parent.idx), &tiles) {
        Some(idx) => Member { idx, tiles },
        None => parent.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{build_candidate_space, SpacePolicy};

    fn pruned_space(chain: &ChainSpec, dev: &DeviceSpec) -> CandidateSpace {
        build_candidate_space(chain, dev, &SpacePolicy::default())
    }

    fn search_chain(chain: &ChainSpec, dev: &DeviceSpec) -> SearchOutcome {
        let pruned = pruned_space(chain, dev);
        let clock = TuningClock::new();
        heuristic_search(chain, dev, &pruned, &SearchParams::default(), &clock)
            .expect("search finds a kernel")
    }

    #[test]
    fn finds_a_valid_kernel_for_gemm_chain() {
        let chain = ChainSpec::gemm_chain("g1", 1, 512, 256, 64, 64);
        let dev = DeviceSpec::a100();
        let out = search_chain(&chain, &dev);
        assert!(out.profile.time.is_finite() && out.profile.time > 0.0);
        assert!(out.kernel.smem_bytes <= dev.smem_per_block);
        assert!(out.measured > 0);
    }

    #[test]
    fn history_is_monotone_non_increasing() {
        let chain = ChainSpec::gemm_chain("g4", 1, 512, 512, 256, 256);
        let out = search_chain(&chain, &DeviceSpec::a100());
        for w in out.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn converges_before_max_rounds_usually() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let out = search_chain(&chain, &DeviceSpec::a100());
        assert!(out.rounds <= SearchParams::default().max_rounds);
    }

    #[test]
    fn search_is_deterministic() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let dev = DeviceSpec::a100();
        let a = search_chain(&chain, &dev);
        let b = search_chain(&chain, &dev);
        assert_eq!(a.best, b.best);
        assert_eq!(a.profile.time, b.profile.time);
    }

    #[test]
    fn beats_the_worst_candidate_clearly() {
        let chain = ChainSpec::gemm_chain("g", 1, 1024, 1024, 128, 128);
        let dev = DeviceSpec::a100();
        let pruned = pruned_space(&chain, &dev);
        let clock = TuningClock::new();
        let out =
            heuristic_search(&chain, &dev, &pruned, &SearchParams::default(), &clock).unwrap();
        // Measure a deliberately bad candidate (tiny tiles).
        let bad = pruned
            .iter()
            .find(|c| c.tiles.iter().all(|&t| t == 16))
            .expect("tiny-tile candidate survives pruning");
        let bad_t = measured_time(&measure_candidate(
            &chain,
            &bad,
            &dev,
            &CostProfile::triton(),
            &clock,
            0,
            &LoweringOptions::for_device(&dev),
        ));
        assert!(
            out.profile.time < 0.8 * bad_t,
            "best {} vs bad {}",
            out.profile.time,
            bad_t
        );
    }

    #[test]
    fn attention_chain_searchable() {
        let chain = ChainSpec::attention("s1", 8, 512, 512, 64, 64);
        let dev = DeviceSpec::a100();
        let out = search_chain(&chain, &dev);
        assert!(out.profile.time.is_finite());
        // The softmax chain must have picked a schedule where k is inside n
        // or k is a single tile — guaranteed by lowering legality.
        assert!(out.kernel.program.validate().is_ok());
    }

    #[test]
    fn tuning_clock_is_charged() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let dev = DeviceSpec::a100();
        let pruned = pruned_space(&chain, &dev);
        let clock = TuningClock::new();
        let _ = heuristic_search(&chain, &dev, &pruned, &SearchParams::default(), &clock);
        let rep = clock.report();
        assert!(rep.measurements > 0);
        assert!(rep.estimates as usize >= SearchParams::default().population);
        assert_eq!(rep.train_rounds, 0, "the analytical model never trains");
        assert!(rep.virtual_seconds > 0.0);
    }

    #[test]
    fn degenerate_weights_defeat_weighted_index_but_not_the_search() {
        // Regression for the `WeightedIndex::new(..).ok()?` bug: a weight
        // vector with an infinity (1/estimate overflow) makes the
        // distribution unbuildable. Previously the whole search returned
        // `None`, discarding an incumbent it had already measured; now
        // breeding reports failure and the search keeps the incumbent.
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let dev = DeviceSpec::a100();
        let pruned = pruned_space(&chain, &dev);
        let mut rng = StdRng::seed_from_u64(9);
        let population: Vec<Member> = (0..4)
            .map(|i| Member::at(&pruned, i % pruned.len()))
            .collect();
        for weights in [
            vec![f64::INFINITY, 1.0, 1.0, 1.0],
            vec![f64::NAN, 1.0, 1.0, 1.0],
            vec![-1.0, 1.0, 1.0, 1.0],
        ] {
            assert!(
                breed_population(&population, &weights, &pruned, &mut rng, 4).is_none(),
                "weights {weights:?} must defeat WeightedIndex"
            );
        }
        // Sane weights breed a full population.
        let next = breed_population(&population, &[1.0, 2.0, 3.0, 4.0], &pruned, &mut rng, 8)
            .expect("finite weights breed");
        assert_eq!(next.len(), 8);
    }

    #[test]
    fn zero_estimates_breed_instead_of_defeating_weighted_index() {
        // Regression: weights were computed as a bare `1.0 / e`, so a
        // zero Eq. 2 estimate produced a `+inf` weight, WeightedIndex
        // rejected the whole distribution, and the round silently lost
        // its selection pressure (uniform resampling / early stop).
        // Clamped weights must keep the distribution buildable and give
        // the zero-estimate member (the model's "fastest") dominant —
        // but not exclusive — selection probability.
        let weights = breeding_weights(&[0.0, -0.0, 1e-3, f64::INFINITY, f64::NAN, -1.0]);
        assert_eq!(
            weights,
            vec![MAX_BREED_WEIGHT, MAX_BREED_WEIGHT, 1e3, 0.0, 0.0, 0.0]
        );
        assert!(weights.iter().all(|w| w.is_finite()));
        assert!(weights.iter().sum::<f64>().is_finite());
        assert!(WeightedIndex::new(&weights).is_ok());

        // End to end through breed_population: a population whose
        // estimates include an exact zero still breeds a full next
        // generation.
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let pruned = pruned_space(&chain, &DeviceSpec::a100());
        let population: Vec<Member> = (0..4)
            .map(|i| Member::at(&pruned, i % pruned.len()))
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let next = breed_population(
            &population,
            &breeding_weights(&[0.0, 2e-6, 3e-6, 5e-6]),
            &pruned,
            &mut rng,
            8,
        )
        .expect("a zero estimate must not defeat breeding");
        assert_eq!(next.len(), 8);
        // An all-zero-weight vector (every estimate non-finite) is still
        // rejected — that is the caller's resample path, by design.
        assert!(breed_population(
            &population,
            &breeding_weights(&[f64::NAN; 4]),
            &pruned,
            &mut rng,
            4
        )
        .is_none());
    }

    #[test]
    fn searches_lower_only_rule4_survivors() {
        // Every candidate a search tries to lower is a survivor, named by
        // its space index, and launches: on chains where many mutation
        // steps leave Rule 4 (the stitched FFN and mlp3), on attention
        // and on an m = 1 GEMV.
        let gemv = ChainSpec::chain(
            "gemv",
            1,
            1,
            vec![768, 3072, 768],
            vec![mcfuser_ir::Epilogue::Gelu, mcfuser_ir::Epilogue::None],
        );
        let chains = [
            mlp3(),
            stitched_ffn(),
            ChainSpec::attention("attn", 8, 512, 512, 64, 64),
            gemv,
        ];
        let dev = DeviceSpec::a100();
        for chain in &chains {
            let space = pruned_space(chain, &dev);
            for random_ranking in [false, true] {
                let params = SearchParams {
                    random_ranking,
                    ..SearchParams::default()
                };
                let out = heuristic_search(chain, &dev, &space, &params, &TuningClock::new())
                    .expect("a winner");
                let set = &out.measured_set;
                let what = format!("{} random_ranking={random_ranking}", chain.name);
                assert_eq!(set.detached, 0, "{what}");
                assert_eq!((out.refused, out.illegal), (0, 0), "{what}");
                assert_eq!(set.indexed.len(), out.measured, "{what}");
                assert!(set.indexed.windows(2).all(|w| w[0] < w[1]), "{what}");
                assert!(set.indexed.iter().all(|&i| i < space.len()), "{what}");
                assert!(space.index_of(&out.best).is_some(), "{what}");
            }
        }
    }

    #[test]
    fn mutation_stays_among_the_survivors() {
        // A child is a survivor with its parent's expression, and either
        // the parent itself or one step along one axis's Rule-3 domain.
        let dev = DeviceSpec::a100();
        for chain in [mlp3(), stitched_ffn()] {
            let space = pruned_space(&chain, &dev);
            let (mut moved, mut stayed) = (0, 0);
            for seed in 0..400u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let parent = Member::at(&space, rng.gen_range(0..space.len()));
                let child = mutate(&parent, &space, &mut rng);
                assert!(child.idx < space.len());
                assert_eq!(space.tiles_at(child.idx), child.tiles, "seed {seed}");
                assert_eq!(space.expr_of(child.idx), space.expr_of(parent.idx));
                match domain_steps(&space, &child.tiles, &parent.tiles)[..] {
                    [] => {
                        assert_eq!(child, parent);
                        stayed += 1;
                    }
                    [1] => moved += 1,
                    _ => panic!("seed {seed}: {parent:?} -> {child:?}"),
                }
            }
            assert!(moved > 0 && stayed > 0, "{}: {moved}/{stayed}", chain.name);
        }
    }

    /// Per axis on which tile vectors `a` and `b` differ, how many
    /// positions apart the two tiles sit in that axis's Rule-3 domain.
    fn domain_steps(space: &CandidateSpace, a: &[u64], b: &[u64]) -> Vec<usize> {
        (0..a.len())
            .filter(|&x| a[x] != b[x])
            .map(|x| {
                let d = &space.tile_domains[x];
                let pos = |t| d.iter().position(|&y| y == t).unwrap();
                pos(a[x]).abs_diff(pos(b[x]))
            })
            .collect()
    }

    /// Search seeds the stop-rule and breeding-pool tests run: the default
    /// and five more.
    const SEEDS: [u64; 6] = [0x5EED, 1, 2, 3, 4, 5];

    /// The golden chains and Fig. 8's G1 and S1, each with its pruned
    /// space, on the A100 and the RTX 3080.
    fn searched_cases() -> Vec<(ChainSpec, DeviceSpec, CandidateSpace)> {
        let mut cases = Vec::new();
        for dev in [DeviceSpec::a100(), DeviceSpec::rtx3080()] {
            for chain in [
                stitched_ffn(),
                mlp3(),
                ChainSpec::gemm_chain("G1", 1, 512, 256, 64, 64),
                ChainSpec::attention("S1", 8, 512, 512, 64, 64),
            ] {
                let space = pruned_space(&chain, &dev);
                cases.push((chain, dev.clone(), space));
            }
        }
        cases
    }

    #[test]
    fn the_search_stops_at_its_first_round_without_an_epsilon_gain() {
        // Lines 10-12 of Algorithm 1 alone end a search: every round but
        // the last beats the incumbent by more than ε, and a search that
        // ends before `max_rounds` ends at the first round that does not.
        for (chain, dev, space) in searched_cases() {
            for seed in SEEDS {
                let params = SearchParams {
                    seed,
                    ..SearchParams::default()
                };
                let out = heuristic_search(&chain, &dev, &space, &params, &TuningClock::new())
                    .expect("a winner");
                let h = &out.history;
                let what = format!("{} on {} seed {seed:#x}: {h:?}", chain.name, dev.name);
                assert_eq!(h.len(), out.rounds, "{what}");
                let gains = |r: usize| h[r] < h[r - 1] * (1.0 - params.epsilon);
                assert!((1..h.len() - 1).all(gains), "{what}");
                if out.rounds < params.max_rounds {
                    assert!(h.len() >= 2 && !gains(h.len() - 1), "{what}");
                }
            }
        }
    }

    #[test]
    fn the_next_round_breeds_only_from_candidates_that_ran() {
        // Cut a search after one round and after two at the same seed:
        // the first round's path is the same in both, and every candidate
        // the second round measures is one mutation step (one axis, one
        // Rule-3-domain position, the same expression) from one the
        // first round measured.
        for (chain, dev, space) in searched_cases() {
            for seed in SEEDS {
                let measured = |max_rounds| {
                    let params = SearchParams {
                        seed,
                        max_rounds,
                        ..SearchParams::default()
                    };
                    heuristic_search(&chain, &dev, &space, &params, &TuningClock::new())
                        .expect("a winner")
                        .measured_set
                        .indexed
                };
                let (first, second) = (measured(1), measured(2));
                let what = format!("{} on {} seed {seed:#x}", chain.name, dev.name);
                assert!(
                    first.iter().all(|i| second.binary_search(i).is_ok()),
                    "{what}"
                );
                let one_step = |i: u64, j: u64| {
                    space.expr_of(i) == space.expr_of(j)
                        && domain_steps(&space, &space.tiles_at(i), &space.tiles_at(j)) == [1]
                };
                for &i in second.iter().filter(|i| first.binary_search(i).is_err()) {
                    assert!(
                        first.iter().any(|&j| one_step(i, j)),
                        "{what}: {:?} is no step from what round 1 ran",
                        space.tiles_at(i)
                    );
                }
            }
        }
    }

    #[test]
    fn round_winner_measurement_is_cached_not_repeated() {
        // The winner's kernel/profile must come from the measurement
        // cache: searching charges exactly one compile per *distinct*
        // measured candidate (re-lowering the winner each round used to
        // add extra uncharged work and a panic path).
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let dev = DeviceSpec::a100();
        let pruned = pruned_space(&chain, &dev);
        let clock = TuningClock::new();
        let out =
            heuristic_search(&chain, &dev, &pruned, &SearchParams::default(), &clock).unwrap();
        // The returned kernel is exactly what measuring `best` produces.
        let fresh = TuningClock::new();
        let (lk, prof) = measure_candidate(
            &chain,
            &out.best,
            &dev,
            &CostProfile::triton(),
            &fresh,
            SearchParams::default().seed,
            &LoweringOptions::for_device(&dev),
        )
        .expect("winner measures");
        assert_eq!(lk.smem_bytes, out.kernel.smem_bytes);
        assert_eq!(prof.time, out.profile.time);
    }

    /// An FFN with a residual LayerNorm prologue and a residual +
    /// LayerNorm tail over `d_L = 256 > 128`: Rule 3 pins its last axis
    /// to the full row, the one tile the tail accepts.
    fn stitched_ffn() -> ChainSpec {
        let mut c = ChainSpec::gemm_chain("ffn", 1, 128, 512, 256, 256);
        c.biases = vec![true, true];
        c.epilogues[0] = mcfuser_ir::Epilogue::Gelu;
        c.prologue = Some(mcfuser_ir::PrologueSpec {
            residual: true,
            affine: true,
            a_half: false,
            eps: 1e-5,
        });
        c.stitch_epilogue = Some(mcfuser_ir::EpilogueStitch {
            residual: mcfuser_ir::ResidualSource::PrologueOut,
            layer_norm: true,
            affine: true,
            eps: 1e-5,
        });
        c
    }

    /// A biased GELU 3-layer MLP at m 96, h 768: Eq. 1 keeps many tile
    /// vectors whose kernels exceed the A100's shared memory, and
    /// lowering's footprint prunes them.
    fn mlp3() -> ChainSpec {
        let mut c = ChainSpec::chain(
            "mlp3",
            1,
            96,
            vec![768; 4],
            vec![
                mcfuser_ir::Epilogue::Gelu,
                mcfuser_ir::Epilogue::Gelu,
                mcfuser_ir::Epilogue::None,
            ],
        );
        c.biases = vec![true; 3];
        c
    }

    /// Everything a search reports, floats as bits, the measured indices
    /// folded into one word.
    fn search_digest(chain: &ChainSpec, params: &SearchParams) -> String {
        let dev = DeviceSpec::a100();
        let space = pruned_space(chain, &dev);
        let clock = TuningClock::new();
        let out = heuristic_search(chain, &dev, &space, params, &clock).expect("a winner");
        let fold = out.measured_set.indexed.iter().fold(0u64, |h, &i| {
            (h.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        let history: Vec<String> = out
            .history
            .iter()
            .map(|t| format!("{:x}", t.to_bits()))
            .collect();
        let rep = clock.report();
        format!(
            "{} t={:x} rounds={} measured={} refused={} illegal={} indexed={}/{:x} detached={} \
             history=[{}] compiles={} measurements={} estimates={} vs={:x}",
            out.best.describe(chain),
            out.profile.time.to_bits(),
            out.rounds,
            out.measured,
            out.refused,
            out.illegal,
            out.measured_set.indexed.len(),
            fold,
            out.measured_set.detached,
            history.join(","),
            rep.compiles,
            rep.measurements,
            rep.estimates,
            rep.virtual_seconds.to_bits(),
        )
    }

    #[test]
    fn search_outcomes_are_pinned() {
        // The walk, the winner and every clock charge of four searches.
        // A change that moves any of them changes search paths. Rule 4
        // prunes with lowering's footprint and the stitched FFN's last
        // axis is pinned to its full row, so every candidate these
        // searches try launches: `refused` and `illegal` read 0.
        let random = SearchParams {
            random_ranking: true,
            ..SearchParams::default()
        };
        let pins = [
            (
                stitched_ffn(),
                SearchParams::default(),
                "mnkh[m=16,k=32,n=512,h=256] t=3ee69153ca2115ce rounds=2 measured=16 refused=0 \
                 illegal=0 indexed=16/423d9ad49af1468b detached=0 \
                 history=[3ee69153ca2115ce,3ee69153ca2115ce] \
                 compiles=16 measurements=16 estimates=323 vs=403d9fdf61408866",
            ),
            (
                stitched_ffn(),
                random.clone(),
                "mnkh[m=16,k=32,n=512,h=256] t=3ee69153ca2115ce rounds=2 measured=16 refused=0 \
                 illegal=0 indexed=16/36d635cc8eca5a43 detached=0 \
                 history=[3ee69153ca2115ce,3ee69153ca2115ce] \
                 compiles=16 measurements=16 estimates=323 vs=403da4d35401b07e",
            ),
            (
                mlp3(),
                SearchParams::default(),
                "mhnkp[m=16,k=112,n=64,h=256,p=128] t=3f1b5a404c765e16 rounds=5 measured=40 \
                 refused=0 illegal=0 indexed=40/6dda3b30a2e7dc7 detached=0 \
                 history=[3f1fb07e5a973b7f,3f1c94eabcb48d70,3f1bc3cca9eb80ad,3f1b5a404c765e16,\
                 3f1b5a404c765e16] \
                 compiles=40 measurements=40 estimates=640 vs=4052a053655a563d",
            ),
            (
                mlp3(),
                random,
                "mhnkp[m=32,k=384,n=64,h=112,p=96] t=3f307f3f650bce1b rounds=2 measured=16 \
                 refused=0 illegal=0 indexed=16/301e30f9c118c115 detached=0 \
                 history=[3f307f3f650bce1b,3f307f3f650bce1b] \
                 compiles=16 measurements=16 estimates=256 vs=403e7d513b962bc7",
            ),
        ];
        let moved: Vec<String> = pins
            .into_iter()
            .filter_map(|(chain, params, want)| {
                let got = search_digest(&chain, &params);
                (got != want).then(|| {
                    format!(
                        "{} random_ranking={}:\n  got  {got}\n  want {want}",
                        chain.name, params.random_ranking
                    )
                })
            })
            .collect();
        assert!(moved.is_empty(), "{}", moved.join("\n"));
    }
}
