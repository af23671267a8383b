//! The MCFuser tuner — the user-facing entry point for one MBCI chain.
//!
//! `McFuser::tune` runs the full §III–§IV pipeline: generate the search
//! space, prune it with Rules 1–4, explore with Algorithm 1, and return
//! the winning fused kernel together with the pruning waterfall and the
//! virtual tuning-time report (the quantities behind Figs. 7–11 and
//! Table IV).

use mcfuser_ir::ChainSpec;
use mcfuser_sim::{DeviceSpec, KernelProfile, TuningClock, TuningReport};
use mcfuser_tile::{Candidate, LoweredKernel};

use crate::prune::PruneStats;
use crate::search::{heuristic_search, SearchOutcome, SearchParams};
use crate::space::{CandidateSpace, SearchSpace};

/// Why Rule 4 emptied a search space: even the smallest tile
/// combination exceeds the device's budget under the measure the policy
/// prunes with. Carried by [`TuneError::EmptySearchSpace`] so the
/// failure names the responsible rule and the numbers behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule4Rejection {
    /// Smallest shared memory across the Rule-3 grid, under `measure`.
    pub min_estimated_smem: u64,
    /// The device budget (`Shm_max`).
    pub smem_per_block: u64,
    /// The measure Rule 4 pruned with.
    pub measure: SharedMemoryPruning,
}

/// Tuning failure, carrying enough context to identify which task of a
/// multi-chain session failed and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// Pruning left nothing to search (the space itself is empty).
    EmptySearchSpace {
        /// Chain name.
        chain: String,
        /// Device name.
        device: String,
        /// When a specific axis produced an empty tile domain (e.g.
        /// Rule 3 filtered every option away), its name and extent —
        /// the context that used to be silently lost.
        axis: Option<String>,
        /// When Rule 4 rejected every tile combination of a non-empty
        /// Rule-3 grid: the smallest estimate vs. the device budget.
        rule4: Option<Rule4Rejection>,
    },
    /// Candidates existed but every one failed lowering or exceeded the
    /// device's launch limits.
    NoViableCandidate {
        /// Chain name.
        chain: String,
        /// Device name.
        device: String,
    },
    /// The search produced a winner, but the static verifier (symbolic
    /// bounds, init/def-use, inter-block race analysis — see
    /// `mcfuser_sim::verify`) rejected its lowered program. The kernel
    /// is never cached or served; stitched chains demote to their
    /// unstitched twin.
    Verify {
        /// Chain name.
        chain: String,
        /// Device name.
        device: String,
        /// The rendered `VerifyError`.
        detail: String,
    },
    /// `FusionEngine::compile` was called on an engine built without a
    /// fallback `OpCostModel` for the non-fused remainder.
    MissingFallback {
        /// Graph name.
        graph: String,
    },
    /// The compiled model could not be packaged into an
    /// `ExecutablePlan` (`FusionEngine::compile_plan` — an internally
    /// inconsistent graph/model pair).
    Plan {
        /// Graph name.
        graph: String,
        /// The underlying plan error, rendered.
        detail: String,
    },
}

impl TuneError {
    pub(crate) fn empty_space(
        chain: &ChainSpec,
        dev: &DeviceSpec,
        axis: Option<String>,
        rule4: Option<Rule4Rejection>,
    ) -> Self {
        TuneError::EmptySearchSpace {
            chain: chain.name.clone(),
            device: dev.name.clone(),
            axis,
            rule4,
        }
    }

    pub(crate) fn no_viable(chain: &ChainSpec, dev: &DeviceSpec) -> Self {
        TuneError::NoViableCandidate {
            chain: chain.name.clone(),
            device: dev.name.clone(),
        }
    }
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::EmptySearchSpace {
                chain,
                device,
                axis,
                rule4,
            } => {
                write!(f, "search space of chain '{chain}' is empty on {device}")?;
                if let Some(a) = axis {
                    write!(f, " (axis {a} has no admissible tile sizes)")?;
                }
                if let Some(r) = rule4 {
                    let (what, margin) = match r.measure {
                        SharedMemoryPruning::PaperEq1 => ("Eq. 1 estimate", "1.2 x "),
                        _ => ("lowered shared memory", ""),
                    };
                    write!(
                        f,
                        " (Rule 4 rejected every tile combination: smallest {what} {} B \
                         exceeds {margin}the device's {} B per block)",
                        r.min_estimated_smem, r.smem_per_block
                    )?;
                }
                Ok(())
            }
            TuneError::NoViableCandidate { chain, device } => {
                write!(f, "no viable fused kernel for chain '{chain}' on {device}")
            }
            TuneError::Verify {
                chain,
                device,
                detail,
            } => write!(
                f,
                "tuned kernel for chain '{chain}' on {device} failed static verification: {detail}"
            ),
            TuneError::MissingFallback { graph } => write!(
                f,
                "cannot compile graph '{graph}': engine has no fallback backend \
                 for non-fused operators (set one via EngineBuilder::fallback)"
            ),
            TuneError::Plan { graph, detail } => {
                write!(f, "cannot plan compiled graph '{graph}': {detail}")
            }
        }
    }
}

impl std::error::Error for TuneError {}

/// Which shared-memory measure Rule 4 prunes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharedMemoryPruning {
    /// Lowering's own single-copy footprint
    /// ([`SmemFootprint`](mcfuser_tile::SmemFootprint)) must fit the
    /// device's shared memory per block, with no margin, so every
    /// candidate in the space launches. This extends the paper, whose
    /// Rule 4 leaves what Eq. 1 mis-prices to lowering.
    #[default]
    Footprint,
    /// The paper's Rule 4: Eq. 1 within `1.2 × Shm_max`. Candidates Eq. 1
    /// under-prices reach lowering, which refuses them after a charged
    /// compile (the "paper Rule 4" ablation).
    PaperEq1,
    /// No shared-memory pruning: every Rule-3 tile combination reaches
    /// the search (the `-rule4` ablation).
    Off,
}

/// How the tuner constructs the space it searches. The default is the
/// full MCFuser pipeline; the alternatives reproduce the restricted
/// configurations of the paper's ablation (§VI-E) and the
/// MCFuser-Chimera comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpacePolicy {
    /// Restrict to deep tilings only (Chimera's space restriction).
    pub deep_tiling_only: bool,
    /// The measure Rule 4 prunes with, or none.
    pub shared_memory_pruning: SharedMemoryPruning,
}

/// Build the lazy pruned space a policy admits for a chain on a device.
/// Every policy builds the same lazy space; only the Rule-4 filter over
/// its tile grid differs (with it off, every Rule-3 tile combination is
/// addressable — no re-materialization and no cap).
pub fn build_candidate_space(
    chain: &ChainSpec,
    dev: &DeviceSpec,
    policy: &SpacePolicy,
) -> CandidateSpace {
    let mut space = SearchSpace::generate(chain);
    if policy.deep_tiling_only {
        space.exprs = mcfuser_tile::enumerate_deep(chain);
    }
    let (reps, tile_domains, stats) = crate::prune::rules123(chain, &space);
    CandidateSpace::build(
        chain,
        reps,
        tile_domains,
        policy.shared_memory_pruning,
        dev,
        stats,
    )
}

/// Locate the first axis whose Rule-3 tile domain came back empty and
/// render it for an [`TuneError::EmptySearchSpace`] — the silent
/// zero-candidate spaces this used to produce surfaced as confusing
/// failures far downstream.
pub(crate) fn empty_axis_context(chain: &ChainSpec, tile_domains: &[Vec<u64>]) -> Option<String> {
    tile_domains
        .iter()
        .position(Vec::is_empty)
        .map(|a| format!("{} (extent {})", chain.axis_name(a), chain.axis_extent(a)))
}

/// Diagnose why Rule 4 emptied a space whose Rule-3 grid was non-empty:
/// report the smallest shared memory under the space's measure against
/// the device budget. `None` when Rule 4 is not the culprit (empty grid,
/// filter disabled, or survivors exist).
pub(crate) fn rule4_rejection_context(
    space: &CandidateSpace,
    dev: &DeviceSpec,
) -> Option<Rule4Rejection> {
    if space.surviving_combos() > 0 || space.grid_combos() == 0 {
        return None;
    }
    space
        .min_estimated_smem()
        .map(|min_estimated_smem| Rule4Rejection {
            min_estimated_smem,
            smem_per_block: dev.smem_per_block,
            measure: space.shared_memory_pruning(),
        })
}

/// A tuned fused kernel with full provenance.
#[derive(Debug, Clone)]
pub struct TunedKernel {
    /// The chain that was tuned.
    pub chain: ChainSpec,
    /// The winning schedule.
    pub candidate: Candidate,
    /// The lowered kernel.
    pub kernel: LoweredKernel,
    /// Measured device profile (time, traffic, occupancy …).
    pub profile: KernelProfile,
    /// Virtual tuning-time report.
    pub tuning: TuningReport,
    /// Pruning waterfall.
    pub prune_stats: PruneStats,
    /// Search convergence data.
    pub rounds: usize,
    /// Distinct candidates the search tried to lower, as
    /// [`SearchOutcome::measured`](crate::SearchOutcome::measured): the
    /// ones measured on the device plus the illegal and the refused ones.
    pub measured: usize,
}

/// The MCFuser tuner.
#[derive(Debug, Clone, Default)]
pub struct McFuser {
    /// Algorithm 1 parameters.
    pub params: SearchParams,
}

impl McFuser {
    /// Tuner with default parameters (the paper's `n = 8`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Tune one chain for a device.
    pub fn tune(&self, chain: &ChainSpec, dev: &DeviceSpec) -> Result<TunedKernel, TuneError> {
        self.tune_with_policy(chain, dev, &TuningClock::new(), &SpacePolicy::default())
    }

    /// Tune over the space a [`SpacePolicy`] admits, charging `clock`:
    /// build the chain's pruned space, then run Algorithm 1 in it. The
    /// engine calls this once per fresh tuning task; the ablation
    /// variants and MCFuser-Chimera pick their policy here.
    pub fn tune_with_policy(
        &self,
        chain: &ChainSpec,
        dev: &DeviceSpec,
        clock: &TuningClock,
        policy: &SpacePolicy,
    ) -> Result<TunedKernel, TuneError> {
        let pruned = build_candidate_space(chain, dev, policy);
        if pruned.is_empty() {
            return Err(TuneError::empty_space(
                chain,
                dev,
                empty_axis_context(chain, &pruned.tile_domains),
                rule4_rejection_context(&pruned, dev),
            ));
        }
        let outcome: SearchOutcome = heuristic_search(chain, dev, &pruned, &self.params, clock)
            .ok_or_else(|| TuneError::no_viable(chain, dev))?;
        Ok(TunedKernel {
            chain: chain.clone(),
            candidate: outcome.best,
            kernel: outcome.kernel,
            profile: outcome.profile,
            tuning: clock.report(),
            prune_stats: pruned.stats,
            rounds: outcome.rounds,
            measured: outcome.measured,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfuser_sim::{execute, TensorStorage};

    #[test]
    fn tuned_gemm_chain_is_numerically_correct() {
        let chain = ChainSpec::gemm_chain("g", 1, 128, 96, 64, 80);
        let dev = DeviceSpec::a100();
        let tk = McFuser::new().tune(&chain, &dev).unwrap();
        let inputs = chain.random_inputs(1);
        let mut st = TensorStorage::for_program(&tk.kernel.program);
        for (i, t) in inputs.iter().enumerate() {
            st.tensors[i] = t.clone();
        }
        execute(&tk.kernel.program, &mut st).unwrap();
        let expect = chain.reference(&inputs);
        let err = st.tensors.last().unwrap().rel_l2_error(&expect);
        assert!(err < 2e-2, "rel error {err}");
    }

    #[test]
    fn tuned_attention_is_numerically_correct() {
        let chain = ChainSpec::attention("s", 2, 128, 128, 32, 32);
        let dev = DeviceSpec::a100();
        let tk = McFuser::new().tune(&chain, &dev).unwrap();
        let inputs = chain.random_inputs(2);
        let mut st = TensorStorage::for_program(&tk.kernel.program);
        for (i, t) in inputs.iter().enumerate() {
            st.tensors[i] = t.clone();
        }
        execute(&tk.kernel.program, &mut st).unwrap();
        let expect = chain.reference(&inputs);
        let err = st.tensors.last().unwrap().rel_l2_error(&expect);
        assert!(err < 2e-2, "rel error {err}");
    }

    #[test]
    fn tuning_report_shows_analytical_model_benefits() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 128, 128);
        let tk = McFuser::new().tune(&chain, &DeviceSpec::a100()).unwrap();
        // Far fewer measurements than estimates — the paper's core claim.
        assert!(tk.tuning.estimates > 10 * tk.tuning.measurements);
        assert_eq!(tk.tuning.train_rounds, 0);
        // Tuning finishes in tens of virtual seconds, not thousands.
        assert!(
            tk.tuning.virtual_seconds < 300.0,
            "{}",
            tk.tuning.virtual_seconds
        );
    }

    #[test]
    fn empty_tile_domain_yields_axis_context() {
        // An empty Rule-3 domain on one axis must surface as a
        // structured EmptySearchSpace naming the axis, not as a silent
        // zero-candidate space.
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let domains = vec![vec![16], vec![], vec![16], vec![16]];
        let ctx = super::empty_axis_context(&chain, &domains).unwrap();
        assert!(ctx.starts_with('k'), "{ctx}");
        assert!(ctx.contains("64"), "{ctx}");
        let err = TuneError::empty_space(&chain, &DeviceSpec::a100(), Some(ctx), None);
        let msg = err.to_string();
        assert!(msg.contains("no admissible tile sizes"), "{msg}");
        assert!(msg.contains('g'), "{msg}");
    }

    #[test]
    fn full_domains_have_no_axis_context() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let domains = vec![vec![16]; 4];
        assert!(super::empty_axis_context(&chain, &domains).is_none());
    }

    #[test]
    fn rule4_rejecting_everything_yields_structured_context() {
        // A device whose shared memory cannot hold even the smallest
        // tile combination: the Rule-3 grid is non-empty but Rule 4
        // rejects all of it. The error must name Rule 4 and quote the
        // smallest estimate against the budget — previously this case
        // surfaced as a context-free EmptySearchSpace.
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let mut dev = DeviceSpec::a100();
        dev.smem_per_block = 256; // 256 B: nothing fits.
        let err = McFuser::new().tune(&chain, &dev).unwrap_err();
        let TuneError::EmptySearchSpace { axis, rule4, .. } = &err else {
            panic!("expected EmptySearchSpace, got {err:?}");
        };
        assert!(axis.is_none(), "no axis is empty here");
        let r = rule4.expect("rule 4 context present");
        assert_eq!(r.smem_per_block, 256);
        assert_eq!(r.measure, SharedMemoryPruning::Footprint);
        assert!(r.min_estimated_smem > 256);
        let msg = err.to_string();
        assert!(msg.contains("Rule 4"), "{msg}");
        assert!(msg.contains("256"), "{msg}");
    }

    #[test]
    fn rule4_context_absent_when_survivors_exist() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let dev = DeviceSpec::a100();
        let space = build_candidate_space(&chain, &dev, &SpacePolicy::default());
        assert!(super::rule4_rejection_context(&space, &dev).is_none());
    }

    #[test]
    fn rule4_disabled_space_admits_full_rule3_grid() {
        // The -rule4 ablation reuses the same lazy space with the filter
        // off: every Rule-3 combination is reachable, uncapped.
        let chain = ChainSpec::gemm_chain("g", 1, 1024, 1024, 512, 512);
        let dev = DeviceSpec::a100();
        let on = build_candidate_space(&chain, &dev, &SpacePolicy::default());
        let off = build_candidate_space(
            &chain,
            &dev,
            &SpacePolicy {
                shared_memory_pruning: SharedMemoryPruning::Off,
                ..Default::default()
            },
        );
        assert_eq!(off.surviving_combos(), off.grid_combos());
        assert_eq!(off.stats.after_rule4, off.stats.after_rule3);
        assert!(off.len() > on.len());
        // Unlaunchable candidates are now reachable (that is the point
        // of the ablation: they reach measurement and cost compiles).
        let over = (0..off.len())
            .step_by((off.len() / 509).max(1) as usize)
            .map(|i| off.candidate(i))
            .any(|c| {
                let opts = mcfuser_tile::LoweringOptions::default();
                mcfuser_tile::smem_footprint(&chain, &c.tiles, &opts) > dev.smem_per_block
            });
        assert!(over, "expected some over-budget candidates with -rule4");
    }

    #[test]
    fn prune_stats_propagated() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let tk = McFuser::new().tune(&chain, &DeviceSpec::a100()).unwrap();
        assert!(tk.prune_stats.original > tk.prune_stats.after_rule4);
    }
}
