//! The common backend interface every comparator implements.
//!
//! The evaluation harness (Fig. 8, Table IV) treats PyTorch, Relay,
//! Ansor, BOLT, FlashAttention, MCFuser-Chimera and MCFuser uniformly
//! through this trait; [`Capabilities`] carries the qualitative rows of
//! the paper's Table I.

use mcfuser_ir::ChainSpec;
use mcfuser_sim::DeviceSpec;

/// Why a backend cannot handle a workload (the paper's "-" entries:
/// BOLT on sm_86, FlashAttention on K ≠ H, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// Human-readable reason.
    pub reason: String,
}

impl Unsupported {
    /// Construct from any message.
    pub fn new(reason: impl Into<String>) -> Self {
        Unsupported {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unsupported: {}", self.reason)
    }
}

impl std::error::Error for Unsupported {}

/// Result of running one MBCI sub-graph through a backend.
#[derive(Debug, Clone)]
pub struct ChainRun {
    /// End-to-end execution time of the sub-graph (seconds), including
    /// every kernel launch the backend needs.
    pub time: f64,
    /// Virtual tuning time spent preparing the sub-graph (Table IV).
    pub tuning_seconds: f64,
    /// Number of kernel launches.
    pub kernels: u32,
    /// Whether the compute chain was fused into a single kernel.
    pub fused: bool,
    /// Free-form provenance (chosen tiles, template id, …).
    pub note: String,
}

/// Qualitative capability matrix — the rows of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Support for fusing MBCI operator chains: "No" / "Partial" / "Yes".
    pub supports_mbci: &'static str,
    /// Automatic (no hand-written kernels): "Yes" / "No" / "-".
    pub automatic: &'static str,
    /// Search-space description.
    pub search_space: &'static str,
    /// Optimization objective / guidance.
    pub objective: &'static str,
    /// Qualitative tuning time: "Short" / "Mid" / "Long" / "-".
    pub tuning_time: &'static str,
}

/// A tensor-program backend.
pub trait Backend: Sync {
    /// Display name (matches the paper's figures).
    fn name(&self) -> &'static str;

    /// Table I row.
    fn capabilities(&self) -> Capabilities;

    /// Compile + run one MBCI chain on a device.
    fn run_chain(&self, chain: &ChainSpec, dev: &DeviceSpec) -> Result<ChainRun, Unsupported>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsupported_formats() {
        let u = Unsupported::new("sm_86 not supported");
        assert_eq!(u.to_string(), "unsupported: sm_86 not supported");
    }
}
