//! Fig. 7 — pruning the search space of the running example
//! (GEMM chain, M = N = 1024, K = H = 512) with Rules 1–4.
//!
//! The paper reports 1.09×10⁸ → −80 % → −40 % → −99 % → −40 % → ≈10⁴.
//! Our Rule-1 equivalence is slightly stronger (see DESIGN.md), so the
//! expression counts differ by a small constant while the waterfall shape
//! is preserved.

use mcfuser_bench::{write_json, TextTable};
use mcfuser_core::{build_candidate_space, SpacePolicy};
use mcfuser_ir::ChainSpec;
use mcfuser_sim::DeviceSpec;

fn main() {
    let chain = ChainSpec::gemm_chain("fig7", 1, 1024, 1024, 512, 512);
    let dev = DeviceSpec::a100();
    let pruned = build_candidate_space(&chain, &dev, &SpacePolicy::default());
    let s = &pruned.stats;

    let pct = |num: u128, den: u128| -> String {
        if den == 0 {
            return "-".into();
        }
        format!("{:+.1}%", (num as f64 / den as f64 - 1.0) * 100.0)
    };

    println!(
        "Fig. 7 — pruning waterfall for {} on {} (paper: 1.09e8 → ~1e4)\n",
        chain.name, dev.name
    );
    let mut t = TextTable::new(&["stage", "#candidates", "Δ vs prev", "#tiling exprs"]);
    t.row(vec![
        "original".into(),
        s.original.to_string(),
        "-".into(),
        s.exprs_original.to_string(),
    ]);
    t.row(vec![
        "+ rule 1 (dedup)".into(),
        s.after_rule1.to_string(),
        pct(s.after_rule1, s.original),
        s.exprs_rule1.to_string(),
    ]);
    t.row(vec![
        "+ rule 2 (partial tiles)".into(),
        s.after_rule2.to_string(),
        pct(s.after_rule2, s.after_rule1),
        s.exprs_rule2.to_string(),
    ]);
    t.row(vec![
        "+ rule 3 (padding)".into(),
        s.after_rule3.to_string(),
        pct(s.after_rule3, s.after_rule2),
        s.exprs_rule2.to_string(),
    ]);
    t.row(vec![
        "+ rule 4 (shared memory)".into(),
        s.after_rule4.to_string(),
        pct(s.after_rule4, s.after_rule3),
        s.exprs_rule2.to_string(),
    ]);
    println!("{}", t.render());
    println!(
        "Total reduction: {:.1e} → {:.1e} ({}x)",
        s.original as f64,
        s.after_rule4 as f64,
        s.original / s.after_rule4.max(1)
    );
    println!(
        "Lazy space: {} candidates reachable by index ({} exprs x {} of {} tile combos; \
         no materialization cap)",
        pruned.len(),
        pruned.exprs.len(),
        pruned.surviving_combos(),
        pruned.grid_combos(),
    );
    println!(
        "Surviving per-block classes: {:?}",
        pruned
            .exprs
            .iter()
            .map(|e| e.display(&chain))
            .collect::<Vec<_>>()
    );

    write_json(
        "fig7_pruning",
        &serde_json::json!({
            "chain": chain.name,
            "device": dev.name,
            "original": s.original.to_string(),
            "after_rule1": s.after_rule1.to_string(),
            "after_rule2": s.after_rule2.to_string(),
            "after_rule3": s.after_rule3.to_string(),
            "after_rule4": s.after_rule4.to_string(),
            "exprs": [s.exprs_original, s.exprs_rule1, s.exprs_rule2],
        }),
    );
}
