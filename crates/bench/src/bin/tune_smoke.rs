//! Batched-tuning smoke test: tune the 8 MBCI chains of a 4-layer mini
//! BERT (4 attention + 4 FFN) two ways, then count the searches each
//! way performs and compare their winners —
//!
//! * **cold**: no engine — `McFuser::tune` per chain, so every chain
//!   pays its own space build plus a full search;
//! * **batched**: the production `tune_many` path with the schedule
//!   cache on — same-content chains merge into one tuning task, so
//!   there is one space build and one search per distinct shape.
//!
//! Asserts the invariants CI cares about: the batched path runs exactly
//! one search per distinct shape, its winners are bit-identical to the
//! cold per-chain tunes, and the tuning cache evicts nothing on a
//! workload that fits it. Writes `results/tune_smoke.json`.
//!
//! ```sh
//! cargo run --release -p mcfuser-bench --bin tune_smoke
//! ```

use mcfuser_core::{CacheKey, FusionEngine, McFuser, SearchParams, SpacePolicy, TunedKernel};
use mcfuser_ir::{partition, ChainSpec};
use mcfuser_sim::DeviceSpec;
use mcfuser_workloads::{bert_graph, BertConfig};

fn main() {
    let device = DeviceSpec::a100();
    let bert = bert_graph(
        "bert-mini-4l",
        &BertConfig {
            layers: 4,
            hidden: 128,
            heads: 4,
            seq: 64,
            intermediate: 512,
        },
    );
    let part = partition(&bert, &device);
    let chains: Vec<ChainSpec> = part.chains.iter().map(|fc| fc.chain.clone()).collect();
    assert_eq!(
        chains.len(),
        8,
        "4 BERT layers should partition into 8 MBCI chains"
    );
    // The engine's tuning-task identity: chains that differ only by
    // name share a key.
    let keys: Vec<CacheKey> = chains
        .iter()
        .map(|c| {
            CacheKey::new(
                c,
                &[],
                &device,
                &SearchParams::default(),
                &SpacePolicy::default(),
            )
        })
        .collect();
    // First chain index of each distinct shape, in batch order.
    let first_of_shape: Vec<usize> = (0..keys.len())
        .filter(|&i| !keys[..i].contains(&keys[i]))
        .collect();
    let shapes = first_of_shape.len();
    println!(
        "tuning {} BERT-layer chains ({} distinct shapes) on {}",
        chains.len(),
        shapes,
        device.name
    );

    // --- cold: per-chain builds, per-chain searches ---------------------
    let cold: Vec<TunedKernel> = chains
        .iter()
        .map(|c| McFuser::new().tune(c, &device).expect("cold tune"))
        .collect();

    // --- batched: tune_many with the schedule cache on -------------------
    let batch_engine = FusionEngine::builder(device.clone()).build();
    let batched: Vec<TunedKernel> = batch_engine
        .tune_many(&chains)
        .into_iter()
        .map(|r| r.expect("batched tune"))
        .collect();
    let batch_stats = batch_engine.stats();
    assert_eq!(
        batch_stats.cache_misses, shapes as u64,
        "identical chains dedup to one search per shape"
    );
    // tune_many dedups same-content chains onto the first occurrence's
    // kernel (the measured noise is seeded per chain name, so only the
    // first of each shape has a per-chain reference to compare against).
    for (i, key) in keys.iter().enumerate() {
        let first = first_of_shape
            .iter()
            .copied()
            .find(|&j| &keys[j] == key)
            .unwrap();
        assert_eq!(
            batched[i].candidate, batched[first].candidate,
            "same-shape chains must share the deduplicated kernel"
        );
    }
    for &i in &first_of_shape {
        assert_eq!(
            batched[i].candidate, cold[i].candidate,
            "batched winner diverged from the per-chain tune"
        );
        assert_eq!(batched[i].profile.time, cold[i].profile.time);
    }

    println!("  cold         : {} searches", chains.len());
    println!("  batched      : {} searches", batch_stats.cache_misses);
    // The bounded-LRU tuning cache: this workload fits it, so the
    // counter must stay at zero — a nonzero value here means the
    // capacity clamp regressed.
    println!(
        "  evictions    : tuning cache {}",
        batch_stats.tuning_cache_evictions
    );
    assert_eq!(
        batch_stats.tuning_cache_evictions, 0,
        "this workload fits the bounded cache; evictions mean the LRU capacity regressed"
    );

    mcfuser_bench::write_json(
        "tune_smoke",
        &serde_json::json!({
            "chains": chains.len(),
            "distinct_shapes": shapes,
            "cold_searches": chains.len(),
            "batched_searches": batch_stats.cache_misses,
            "tuning_cache_evictions": batch_stats.tuning_cache_evictions,
        }),
    );
    println!("OK — tune_smoke invariants hold.");
}
