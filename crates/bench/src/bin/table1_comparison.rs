//! Table I — the qualitative comparison among representative works and
//! MCFuser, generated from each backend's self-reported capabilities.
//! (AStitch and DNNFusion are not executable baselines here — they never
//! fuse MBCI chains — so their rows are static, as in the paper.)

use mcfuser_baselines::{Ansor, Backend, Bolt, Chimera, FlashAttention, McFuserBackend, PyTorch};
use mcfuser_bench::{write_json, TextTable};

fn main() {
    let mut t = TextTable::new(&[
        "Name",
        "Support MBCI",
        "Auto.",
        "Search Space",
        "Objective / Guidance",
        "Tuning time",
    ]);

    // Static rows for systems whose designs preclude MBCI fusion.
    t.row(vec![
        "AStitch".into(),
        "No".into(),
        "Yes".into(),
        "Stitch schemas fusion".into(),
        "Rule-based".into(),
        "Short".into(),
    ]);
    t.row(vec![
        "DNNFusion".into(),
        "No".into(),
        "Yes".into(),
        "Pattern-based fusion".into(),
        "Mathematical analysis".into(),
        "Short".into(),
    ]);

    let backends: Vec<(&str, mcfuser_baselines::Capabilities)> = vec![
        ("PyTorch", PyTorch.capabilities()),
        ("BOLT", Bolt::new().capabilities()),
        ("FlashAttention", FlashAttention.capabilities()),
        ("Ansor", Ansor::with_trials(1).capabilities()),
        ("Chimera", Chimera.capabilities()),
        ("MCFuser (ours)", McFuserBackend::new().capabilities()),
    ];
    let mut json_rows = Vec::new();
    for (name, c) in &backends {
        t.row(vec![
            name.to_string(),
            c.supports_mbci.into(),
            c.automatic.into(),
            c.search_space.into(),
            c.objective.into(),
            c.tuning_time.into(),
        ]);
        json_rows.push(serde_json::json!({
            "name": name,
            "supports_mbci": c.supports_mbci,
            "automatic": c.automatic,
            "search_space": c.search_space,
            "objective": c.objective,
            "tuning_time": c.tuning_time,
        }));
    }

    println!("Table I — comparison among representative works and MCFuser\n");
    println!("{}", t.render());
    write_json(
        "table1_comparison",
        &serde_json::json!({ "rows": json_rows }),
    );
}
