//! Batched-tuning smoke test: tune the 8 MBCI chains of a 4-layer mini
//! BERT (4 attention + 4 FFN) three ways, then count the space builds
//! and searches each way performs and compare their winners —
//!
//! * **cold**: no engine — `McFuser::tune` per chain, so every chain
//!   pays its own Rule-4 scan plus a full search;
//! * **shared-space**: schedule cache still off, space cache on — the
//!   8 chains collapse onto 2 content-distinct candidate spaces (one
//!   scan per *shape*), searches unchanged;
//! * **batched**: the production `tune_many` path with the schedule
//!   cache on — identical chains additionally dedup to one search per
//!   shape.
//!
//! Asserts the invariants CI cares about: the shared-space engine
//! performs exactly one scan per distinct shape (probe-counted), its
//! results are bit-identical to the cold per-chain builds, and the
//! batched path agrees too. Writes `results/tune_smoke.json`.
//!
//! ```sh
//! cargo run --release -p mcfuser-bench --bin tune_smoke
//! ```

use mcfuser_core::{CachePolicy, FusionEngine, McFuser, TunedKernel};
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
    let fingerprints: Vec<String> = chains
        .iter()
        .map(|c| mcfuser_core::space_fingerprint(c, &device, &Default::default()))
        .collect();
    // First chain index of each distinct shape, in batch order.
    let first_of_shape: Vec<usize> = fingerprints
        .iter()
        .enumerate()
        .filter(|(i, fp)| fingerprints[..*i].iter().all(|f| f != *fp))
        .map(|(i, _)| i)
        .collect();
    let shapes = first_of_shape.len();
    println!(
        "tuning {} BERT-layer chains ({} distinct shapes) on {}",
        chains.len(),
        shapes,
        device.name
    );

    // --- cold: per-chain scans, per-chain searches ----------------------
    let cold: Vec<TunedKernel> = chains
        .iter()
        .map(|c| McFuser::new().tune(c, &device).expect("cold tune"))
        .collect();

    // --- shared-space: one scan per shape, searches unchanged -----------
    let shared_engine = FusionEngine::builder(device.clone())
        .cache(CachePolicy::Disabled)
        .build();
    let shared: Vec<TunedKernel> = chains
        .iter()
        .map(|c| shared_engine.tune(c).expect("shared tune"))
        .collect();
    let shared_stats = shared_engine.stats();
    assert_eq!(
        shared_stats.space_builds, shapes as u64,
        "the space cache must collapse same-shaped chains onto one scan"
    );
    assert_eq!(
        shared_stats.space_cache_hits,
        (chains.len() - shapes) as u64
    );
    for (a, b) in cold.iter().zip(&shared) {
        assert_eq!(a.candidate, b.candidate, "shared-space winner diverged");
        assert_eq!(a.profile.time, b.profile.time);
    }

    // --- batched: tune_many with the schedule cache on -------------------
    let batch_engine = FusionEngine::builder(device.clone()).build();
    let batched: Vec<TunedKernel> = batch_engine
        .tune_many(&chains)
        .into_iter()
        .map(|r| r.expect("batched tune"))
        .collect();
    let batch_stats = batch_engine.stats();
    assert_eq!(batch_stats.space_builds, shapes as u64);
    assert_eq!(
        batch_stats.cache_misses, shapes as u64,
        "identical chains dedup to one search per shape"
    );
    // tune_many dedups same-content chains onto the first occurrence's
    // kernel (the measured noise is seeded per chain name, so only the
    // first of each shape has a per-chain reference to compare against).
    for (i, fp) in fingerprints.iter().enumerate() {
        let first = first_of_shape
            .iter()
            .copied()
            .find(|&j| &fingerprints[j] == fp)
            .unwrap();
        assert_eq!(
            batched[i].candidate, batched[first].candidate,
            "same-shape chains must share the deduplicated kernel"
        );
    }
    for &i in &first_of_shape {
        assert_eq!(
            batched[i].candidate, cold[i].candidate,
            "batched winner diverged from the per-chain build"
        );
    }

    println!(
        "  cold         : {} scans, {} searches",
        chains.len(),
        chains.len()
    );
    println!(
        "  shared-space : {} scans, {} searches, {} space hits",
        shared_stats.space_builds, shared_stats.cache_misses, shared_stats.space_cache_hits,
    );
    println!(
        "  batched      : {} scans, {} searches",
        batch_stats.space_builds, batch_stats.cache_misses
    );
    // Bounded-LRU eviction counters: this workload fits both caches, so
    // the counters must exist and stay at zero — a nonzero value here
    // means the capacity clamps regressed.
    println!(
        "  evictions    : space {} / tuning cache {}",
        shared_stats.space_evictions, shared_stats.tuning_cache_evictions
    );
    assert_eq!(
        (
            shared_stats.space_evictions,
            shared_stats.tuning_cache_evictions
        ),
        (0, 0),
        "this workload fits the bounded caches; evictions mean the LRU capacity regressed"
    );

    mcfuser_bench::write_json(
        "tune_smoke",
        &serde_json::json!({
            "chains": chains.len(),
            "distinct_shapes": shapes,
            "cold_scans": chains.len(),
            "shared_space_scans": shared_stats.space_builds,
            "shared_space_hits": shared_stats.space_cache_hits,
            "batched_searches": batch_stats.cache_misses,
            "space_evictions": shared_stats.space_evictions,
            "tuning_cache_evictions": shared_stats.tuning_cache_evictions,
        }),
    );
    println!("OK — tune_smoke invariants hold.");
}
