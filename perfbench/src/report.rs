//! Metric catalog, the result line, and the run context.

use mcfuser_sim::ExecBackend;

use crate::stats::{median, percentile, sorted, Digest};
use crate::Args;

/// Every per-layer metric the traced run reports, as `(name, unit,
/// better)`. Each workload prints all of them; a layer the workload does
/// not exercise reads 0. `perfbench/LAYERS.md` maps each one to the
/// end-to-end metric and workload it should move.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // compile
    ("core.search.ms_per_op", "ms", "lower"),
    ("core.search.self_ms_per_op", "ms", "lower"),
    ("core.perf_model.estimates_per_op", "count", "lower"),
    ("core.perf_model.us_per_estimate", "us", "lower"),
    ("tile.lower.lowerings_per_op", "count", "lower"),
    ("tile.lower.us_per_lowering", "us", "lower"),
    ("sim.timing.us_per_measurement", "us", "lower"),
    ("core.space.ms_per_op", "ms", "lower"),
    ("core.space.candidates_per_tune", "count", "lower"),
    ("core.space.rule4_survival", "ratio", "lower"),
    ("ir.partition.ms_per_op", "ms", "lower"),
    ("ir.partition.chains_per_op", "count", "higher"),
    ("sim.verify.programs_per_op", "count", "lower"),
    ("sim.verify.us_per_program", "us", "lower"),
    ("core.plan.ms_per_op", "ms", "lower"),
    ("core.engine.self_ms_per_op", "ms", "lower"),
    ("core.engine.tunes_per_chain", "ratio", "lower"),
    ("core.search.rounds_per_tune", "count", "lower"),
    ("core.search.measured_per_estimate", "ratio", "lower"),
    ("core.cache.warm_compile_ms_per_op", "ms", "lower"),
    // serve
    ("sim.exec.ms_per_op", "ms", "lower"),
    ("sim.exec.launches_per_op", "count", "lower"),
    ("sim.exec.us_per_launch", "us", "lower"),
    ("sim.exec.mb_per_op", "MB", "lower"),
    ("ir.reference.ms_per_op", "ms", "lower"),
    ("ir.reference.steps_per_op", "count", "lower"),
    ("core.plan.stage_ms_per_op", "ms", "lower"),
    ("core.runtime.self_ms_per_op", "ms", "lower"),
    ("core.runtime.weight_cache_hit_ratio", "ratio", "higher"),
    // serve and decode (compile too)
    ("core.runtime.rss_growth_kb_per_op", "KB", "lower"),
    // decode
    ("core.session.step_ms_per_op", "ms", "lower"),
    ("core.batch.exec_ms_per_launch", "ms", "lower"),
    ("core.session.self_ms_per_op", "ms", "lower"),
    ("ir.reference.ms_per_token", "ms", "lower"),
    ("core.plan.stage_ms_per_token", "ms", "lower"),
    ("sim.exec.ms_per_token", "ms", "lower"),
    ("sim.exec.launches_per_token", "count", "lower"),
    ("core.session.prefill_ms", "ms", "lower"),
    ("core.scheduler.mean_width", "count", "higher"),
    ("core.scheduler.expired_or_rejected", "count", "lower"),
    ("core.session.kv_mb_per_session", "MB", "lower"),
    // every workload
    ("trace.overhead_pct", "%", "lower"),
];

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// Every per-layer metric at 0, ready for [`Metrics::set`].
    pub fn per_layer() -> Self {
        Metrics(
            PER_LAYER
                .iter()
                .map(|&(n, u, _)| (n.to_string(), 0.0, u.to_string()))
                .collect(),
        )
    }

    fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// Set a metric of the catalog.
    ///
    /// # Panics
    /// If `name` is not in the catalog (a typo would otherwise report 0).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, ..)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        slot.1 = value;
    }

    /// `(name, value, unit)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
    }
}

/// The end-to-end metrics of a timed run, from its samples: set-up
/// times, per-pass throughput, pooled op latencies, pooled
/// time-to-first-output samples, and the two virtual-clock means.
pub fn end_to_end(
    setups_s: &[f64],
    ops_per_s: &[f64],
    latencies_ms: &[f64],
    ttft_ms: &[f64],
    virtual_us_per_op: f64,
    tuning_s_per_op: f64,
) -> Metrics {
    let (lat, ttft) = (sorted(latencies_ms), sorted(ttft_ms));
    let mut m = Metrics::default();
    m.push("setup_s", median(setups_s), "s");
    m.push("ops_per_s", median(ops_per_s), "1/s");
    m.push("latency_ms_p50", percentile(&lat, 0.5), "ms");
    m.push("latency_ms_p90", percentile(&lat, 0.9), "ms");
    m.push("ttft_ms_p50", percentile(&ttft, 0.5), "ms");
    m.push("peak_rss_mb", crate::peak_rss_mb(), "MB");
    m.push("virtual_us_per_op", virtual_us_per_op, "us");
    m.push("tuning_virtual_s_per_op", tuning_s_per_op, "s");
    m
}

/// Fail unless every pass reproduced the first pass's virtual totals
/// and output digest exactly: `(virtual, tuning, digest)` per pass.
pub fn same_every_pass(workload: &str, passes: &[(f64, f64, Digest)]) -> Result<(), String> {
    if passes.windows(2).all(|w| w[0] == w[1]) {
        Ok(())
    } else {
        Err(format!(
            "{workload}: virtual metrics or outputs differ between passes"
        ))
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output missed its check or that returned an error.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Metrics,
    /// Digest of every op's output (identical across passes).
    pub digest: Digest,
    /// Free-form facts about the run (sizes, counts).
    pub notes: Vec<String>,
}

fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        // Rust's shortest round-trip rendering keeps every digit.
        Ok(format!("{v:?}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json_line(&self) -> Result<String, String> {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                Ok(format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_number(v)?
                ))
            })
            .collect::<Result<Vec<String>, String>>()?;
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// The run context recorded with every result: the build as built, the
/// host, and the run's parameters.
pub fn context_json(args: &Args) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"passes\": {}, \
         \"profile\": \"{}\", \"opt_level\": \"{}\", \"debug_assertions\": {}, \"nproc\": {}, \
         \"rustc\": \"{}\", \"default_exec_backend\": \"{}\", \"device\": \"A100\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.passes(),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_OPT_LEVEL"),
        cfg!(debug_assertions),
        crate::nproc(),
        env!("PERFBENCH_RUSTC"),
        ExecBackend::default(),
    )
}
