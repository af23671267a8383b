//! The MCFuser workspace benchmark: seeded `compile`, `serve` and
//! `decode` workloads measured on both clocks — wall (the host running
//! the compiler and simulator) and virtual (the modelled A100) — with a
//! separate traced run that replays each op's layers through their
//! public functions.
//!
//! Runs are sized by op count, never by a time box: a run repeats one
//! fixed, seeded op sequence for a number of passes that depends only on
//! `--seconds`, so every run of a seed executes the same ops and the
//! virtual metrics are identical across passes. See `perfbench/LAYERS.md`
//! for the layer → metric → workload map.

pub mod compile;
pub mod decode;
pub mod replay;
pub mod report;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

use mcfuser_baselines::Relay;
use mcfuser_core::FusionEngine;
use mcfuser_sim::DeviceSpec;

/// Nominal wall seconds of one compile or serve pass on the reference
/// host (2 cores, opt-level 0); only used to turn `--seconds` into a
/// pass count.
pub const PASS_SECONDS: f64 = 5.0;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// `compile`, `serve` or `decode`.
    pub workload: String,
    /// Workload seed: the only source of op sequences and inputs.
    pub seed: u64,
    /// Nominal run length.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out: Option<PathBuf>,
}

impl Args {
    /// Timed passes over the op sequence: fixed by `--seconds` and the
    /// workload, at least two so cross-pass identity is always checked.
    pub fn passes(&self) -> usize {
        let nominal = match self.workload.as_str() {
            "decode" => decode::PASS_SECONDS,
            _ => PASS_SECONDS,
        };
        ((self.seconds as f64 / nominal).round() as usize).max(2)
    }

    /// Set-ups per compile or serve run (`setup_s` is their median);
    /// decode sets up once per pass.
    pub fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            5
        }
    }
}

/// The engine every workload uses: engine defaults on the A100 model,
/// the Relay fallback for non-fused operators, and one worker per core.
pub fn engine() -> FusionEngine {
    FusionEngine::builder(DeviceSpec::a100())
        .fallback(Relay::new())
        .parallelism(0)
        .build()
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    stats::memory_kb().0 as f64 / 1024.0
}

/// Current resident set (`VmRSS`) in KiB.
pub fn rss_kb() -> f64 {
    stats::memory_kb().1 as f64
}

/// Tracing overhead: how much longer the traced pass's public calls took
/// than the same calls in the untraced pass, as the change of their
/// median in percent.
pub fn overhead_pct(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    (stats::median(traced_ms) / stats::median(untraced_ms) - 1.0) * 100.0
}

/// Write the traced run's spans, if an output directory was given.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    if let Some(dir) = &args.out {
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| tracer.write_jsonl(&path)) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}

/// Run one workload.
pub fn run(args: &Args) -> Result<report::Outcome, String> {
    match args.workload.as_str() {
        "compile" => compile::run(args),
        "serve" => serve::run(args),
        "decode" => decode::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}
