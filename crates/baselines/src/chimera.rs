//! MCFuser-Chimera: the controlled Chimera comparison of §VI-A.
//!
//! "To ensure a rigorous assessment of our search space generation
//! effectiveness against the closed-source Chimera, we implement
//! MCFuser-Chimera. This adaptation integrates Chimera's search space
//! into our framework." Concretely, three deltas versus MCFuser:
//!
//! 1. **deep tilings only** — no flat (sequential-scope) expressions;
//! 2. **data-movement objective** — the analytical model drops the
//!    computation term and the parallelism factor (Chimera minimizes
//!    data movement, "neglecting the impact of redundant computation");
//! 3. **no dead-loop elimination** — statements hoist only to their
//!    rightmost related loop, missing the Fig. 5(b) opportunities.

use mcfuser_core::{McFuser, SearchParams, SpacePolicy};
use mcfuser_ir::ChainSpec;
use mcfuser_sim::{DeviceSpec, TuningClock};

use crate::backend::{Backend, Capabilities, ChainRun, Unsupported};

/// The MCFuser-Chimera baseline.
#[derive(Debug, Default, Clone)]
pub struct Chimera;

impl Backend for Chimera {
    fn name(&self) -> &'static str {
        "MCFuser-Chimera"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_mbci: "Yes",
            automatic: "Yes",
            search_space: "Nested block execution order + loop opt.",
            objective: "Minimize data movement",
            tuning_time: "Short",
        }
    }

    fn run_chain(&self, chain: &ChainSpec, dev: &DeviceSpec) -> Result<ChainRun, Unsupported> {
        let tuner = McFuser {
            params: SearchParams::chimera(),
        };
        let deep_only = SpacePolicy {
            deep_tiling_only: true,
            ..Default::default()
        };
        let tuned = tuner
            .tune_with_policy(chain, dev, &TuningClock::new(), &deep_only)
            .map_err(|e| Unsupported::new(e.to_string()))?;
        Ok(ChainRun {
            time: tuned.profile.time,
            tuning_seconds: tuned.tuning.virtual_seconds,
            kernels: 1,
            fused: true,
            note: tuned.candidate.describe(chain),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuses_gemm_chains() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let run = Chimera.run_chain(&chain, &DeviceSpec::a100()).unwrap();
        assert!(run.fused);
        assert_eq!(run.kernels, 1);
        assert!(run.time.is_finite());
    }

    #[test]
    fn handles_attention() {
        let chain = ChainSpec::attention("s", 4, 256, 256, 64, 64);
        let run = Chimera.run_chain(&chain, &DeviceSpec::a100()).unwrap();
        assert!(run.fused);
    }

    #[test]
    fn tuning_is_fast() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let run = Chimera.run_chain(&chain, &DeviceSpec::a100()).unwrap();
        assert!(run.tuning_seconds < 300.0, "{}", run.tuning_seconds);
    }
}
