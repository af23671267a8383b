//! # mcfuser-bench — the evaluation harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus the
//! shared reporting utilities in this library:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig2_roofline` | Fig. 2 — MatMul K/M sweep, φ and achieved TFLOPS |
//! | `fig3_search_space` | Fig. 3 — deep/flat tiling census (+ Fig. 4/5 DAG listings) |
//! | `fig7_pruning` | Fig. 7 — pruning waterfall |
//! | `fig8_subgraph` | Fig. 8 — sub-graph performance, GEMM chains & attention |
//! | `fig9_end2end` | Fig. 9 — end-to-end BERT |
//! | `fig10_shmem` | Fig. 10 — shared-memory estimate accuracy quadrants |
//! | `fig11_perf_model` | Fig. 11 — analytical-model correlation |
//! | `table1_comparison` | Table I — capability matrix |
//! | `table4_tuning_time` | Table IV — tuning times |
//! | `search_seeds` | The search-driven rows of Fig. 8, Table IV and the benchmark's `compile` graphs, over six search seeds |
//!
//! Each figure and table binary prints a human-readable table and writes
//! machine-readable JSON under `results/`; `search_seeds` only prints.

#![warn(missing_docs)]

use std::io::Write as _;
use std::path::PathBuf;

use mcfuser_sim::DeviceSpec;

/// Resolve a device by CLI name.
pub fn device_by_name(name: &str) -> Option<DeviceSpec> {
    match name.to_ascii_lowercase().as_str() {
        "a100" => Some(DeviceSpec::a100()),
        "h100" => Some(DeviceSpec::h100()),
        "rtx3080" | "3080" => Some(DeviceSpec::rtx3080()),
        _ => None,
    }
}

/// Pearson correlation coefficient.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mx) * (y - my);
        dx += (x - mx) * (x - mx);
        dy += (y - my) * (y - my);
    }
    num / (dx.sqrt() * dy.sqrt())
}

/// Geometric mean (for speedup aggregation).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A simple fixed-width text table.
#[derive(Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start with headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>w$}", c, w = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

/// Directory for machine-readable outputs (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("MCFUSER_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Write a JSON value under `results/<name>.json`.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let path = results_dir().join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = writeln!(f, "{}", serde_json::to_string_pretty(value).unwrap());
            eprintln!("[wrote {}]", path.display());
        }
        Err(e) => eprintln!("[warn: cannot write {}: {e}]", path.display()),
    }
}

/// FNV-1a digest of `f32` tensors by their bits, in order, as 16 hex
/// digits: two runs that print the same digest produced the same bits.
pub fn f32_digest<'a>(tensors: impl IntoIterator<Item = &'a [f32]>) -> String {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for x in tensors.into_iter().flatten() {
        for byte in x.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

/// Format seconds with an adaptive unit.
pub fn fmt_time(seconds: f64) -> String {
    if !seconds.is_finite() {
        return "-".into();
    }
    if seconds >= 3600.0 {
        format!("{:.2}h", seconds / 3600.0)
    } else if seconds >= 1.0 {
        format!("{seconds:.0}s")
    } else if seconds >= 1e-3 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{:.1}us", seconds * 1e6)
    }
}

/// Price a whole graph with a per-operator backend and *no* MBCI fusion
/// (the "Relay alone" / "Ansor alone" / "BOLT" bars of Fig. 9).
/// Returns `(inference_seconds, tuning_seconds)`.
pub fn unfused_graph_cost(
    graph: &mcfuser_ir::Graph,
    dev: &DeviceSpec,
    model: &dyn mcfuser_core::OpCostModel,
) -> (f64, f64) {
    let nodes: Vec<mcfuser_ir::NodeId> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| !matches!(n.op, mcfuser_ir::Op::Input | mcfuser_ir::Op::Weight))
        .map(|(i, _)| mcfuser_ir::NodeId(i))
        .collect();
    let time: f64 = nodes.iter().map(|&n| model.op_time(graph, n, dev)).sum();
    let tuning = model.tuning_seconds(graph, &nodes, dev);
    (time, tuning)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let inv = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &inv) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(2.5e-6), "2.5us");
        assert_eq!(fmt_time(1.5e-3), "1.50ms");
        assert_eq!(fmt_time(42.0), "42s");
        assert_eq!(fmt_time(7200.0), "2.00h");
        assert_eq!(fmt_time(f64::INFINITY), "-");
    }

    #[test]
    fn devices_resolve() {
        assert!(device_by_name("a100").is_some());
        assert!(device_by_name("RTX3080").is_some());
        assert_eq!(
            device_by_name("H100").map(|d| d.arch),
            Some(mcfuser_sim::Arch::Sm90)
        );
        assert!(device_by_name("mi300").is_none());
    }
}
