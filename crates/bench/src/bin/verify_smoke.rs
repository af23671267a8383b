//! Static-verifier smoke sweep: sample ≥ 500 lowered candidates per
//! workload family (BERT, ViT, MLP-Mixer, decoder GQA), run every one
//! through the full symbolic verifier — bounds, init/def-use,
//! inter-block races — and assert **zero violations**. The verifier
//! gates every kernel the engine caches or serves, so a violation here
//! means either a lowering bug (the gate caught a miscompile before any
//! runtime test could) or an over-strict analysis (the gate would
//! demote sound kernels); both must fail CI.
//!
//! A handful of verified programs per family are additionally executed
//! against the chain's CPU reference, tying the static proof to runtime
//! behaviour:
//!
//! ```sh
//! cargo run --release -p mcfuser-bench --bin verify_smoke
//! ```
//!
//! Prints programs verified per second and writes the counts to
//! `results/verify_smoke.json`. The wall-clock rate stays on stdout, so
//! the tracked file changes only when a count does.

use std::time::Instant;

use mcfuser_core::{build_candidate_space, SpacePolicy};
use mcfuser_ir::{partition, ChainSpec};
use mcfuser_sim::verify::{verify_program, VerifyReport};
use mcfuser_sim::{execute, DeviceSpec, TensorStorage, TileProgram};
use mcfuser_tile::{lower, LoweringOptions};
use mcfuser_workloads::{
    bert_graph, decode_attention_chain, decode_ffn_chain, mixer_block, vit_block, BertConfig,
    DecoderConfig,
};

/// Candidates each family must get through the verifier.
const QUOTA: usize = 500;
/// Verified programs per family to additionally execute for value.
const EXEC_SPOT_CHECKS: usize = 2;

struct FamilyResult {
    name: &'static str,
    chains: usize,
    sampled: usize,
    lowering_rejects: usize,
    verified: usize,
    violations: Vec<String>,
    report: VerifyReport,
    spot_checked: usize,
}

fn main() {
    let device = DeviceSpec::a100();

    let graph_chains = |g: &mcfuser_ir::Graph| -> Vec<ChainSpec> {
        partition(g, &device)
            .chains
            .iter()
            .map(|fc| fc.chain.clone())
            .collect()
    };
    // Each family pools several shape variants so the sampled spaces
    // are comfortably larger than the per-family quota.
    let mut bert_chains = Vec::new();
    for (seq, hidden, heads, inter) in [
        (64, 128, 4, 512),
        (128, 128, 4, 512),
        (256, 256, 8, 1024),
        (512, 256, 4, 512),
    ] {
        bert_chains.extend(graph_chains(&bert_graph(
            &format!("bert-s{seq}-h{hidden}"),
            &BertConfig {
                layers: 1,
                hidden,
                heads,
                seq,
                intermediate: inter,
            },
        )));
    }
    let mut vit_chains = Vec::new();
    for (patches, hidden, heads) in [(64, 128, 4), (196, 256, 8), (256, 128, 4), (576, 256, 4)] {
        vit_chains.extend(graph_chains(&vit_block(patches, hidden, heads)));
    }
    let mut mixer_chains = Vec::new();
    for (tokens, channels, th, ch) in [
        (64, 128, 256, 512),
        (196, 256, 128, 1024),
        (256, 128, 512, 256),
    ] {
        mixer_chains.extend(graph_chains(&mixer_block(tokens, channels, th, ch)));
    }
    let mut decoder_chains = Vec::new();
    for hidden in [128u64, 256] {
        let gqa = DecoderConfig {
            hidden,
            intermediate: 2 * hidden,
            ..DecoderConfig::gpt_mini_gqa()
        };
        decoder_chains.push(decode_ffn_chain(&format!("gqa-h{hidden}-ffn"), &gqa));
        for t_b in [32u64, 64, 128, 256, 512, 1024] {
            decoder_chains.push(decode_attention_chain(
                &format!("gqa-h{hidden}-attn-t{t_b}"),
                &gqa,
                t_b,
            ));
        }
    }
    let families: Vec<(&'static str, Vec<ChainSpec>)> = vec![
        ("bert", bert_chains),
        ("vit", vit_chains),
        ("mixer", mixer_chains),
        ("decoder_gqa", decoder_chains),
    ];

    let start = Instant::now();
    let mut results = Vec::new();
    for (name, chains) in &families {
        assert!(!chains.is_empty(), "family '{name}' produced no chains");
        results.push(sweep_family(name, chains, &device));
    }
    let wall = start.elapsed().as_secs_f64();

    let total_verified: usize = results.iter().map(|r| r.verified).sum();
    let total_violations: usize = results.iter().map(|r| r.violations.len()).sum();
    let per_sec = total_verified as f64 / wall;
    for r in &results {
        println!(
            "  {:<12} {} chains, {} sampled, {} lowering rejects, {} verified \
             ({} stmts / {} accesses / {} stores proved, {} declared clips), \
             {} executed for value",
            r.name,
            r.chains,
            r.sampled,
            r.lowering_rejects,
            r.verified,
            r.report.stmts,
            r.report.accesses,
            r.report.stores,
            r.report.clipped,
            r.spot_checked,
        );
        for v in &r.violations {
            println!("    VIOLATION: {v}");
        }
    }
    println!(
        "  {total_verified} programs verified in {wall:.2} s ({per_sec:.0} programs/s) on {}",
        device.name
    );

    mcfuser_bench::write_json(
        "verify_smoke",
        &serde_json::json!({
            "quota_per_family": QUOTA,
            "families": results.iter().map(|r| serde_json::json!({
                "name": r.name,
                "chains": r.chains,
                "sampled": r.sampled,
                "lowering_rejects": r.lowering_rejects,
                "verified": r.verified,
                "violations": r.violations,
                "stmts_proved": r.report.stmts,
                "accesses_proved": r.report.accesses,
                "stores_proved": r.report.stores,
                "declared_clips": r.report.clipped,
                "exec_spot_checks": r.spot_checked,
            })).collect::<Vec<_>>(),
            "total_verified": total_verified,
            "total_violations": total_violations,
        }),
    );

    for r in &results {
        assert!(
            r.verified >= QUOTA,
            "family '{}' only got {} candidates through the verifier (quota {QUOTA})",
            r.name,
            r.verified
        );
    }
    assert_eq!(total_violations, 0, "static verifier found violations");
    println!("OK — verify_smoke: zero violations across {total_verified} sampled programs.");
}

/// Sweep one family: walk each chain's pruned candidate space with an
/// even-spaced deterministic stride, lower, verify, and accumulate
/// until the family quota is met (or every space is exhausted).
fn sweep_family(name: &'static str, chains: &[ChainSpec], device: &DeviceSpec) -> FamilyResult {
    let opts = LoweringOptions::for_device(device);
    let mut r = FamilyResult {
        name,
        chains: chains.len(),
        sampled: 0,
        lowering_rejects: 0,
        verified: 0,
        violations: Vec::new(),
        report: VerifyReport::default(),
        spot_checked: 0,
    };
    // Generous per-chain budget: lowering legitimately rejects a large
    // share of pruned candidates (Rule-2-style launch-limit failures),
    // so each chain contributes well past its even share and the family
    // total comfortably clears the quota.
    let per_chain_cap = QUOTA as u64;
    for chain in chains {
        let space = build_candidate_space(chain, device, &SpacePolicy::default());
        let len = space.len();
        assert!(
            len > 0,
            "chain '{}' has an empty candidate space",
            chain.name
        );
        // Even-spaced indices cover the space deterministically; when
        // the space is smaller than the per-chain cap, take all of it.
        let take = per_chain_cap.min(len);
        let step = len / take;
        for i in 0..take {
            let cand = space.candidate(i * step);
            r.sampled += 1;
            let Ok(kernel) = lower(chain, &cand, &opts) else {
                r.lowering_rejects += 1;
                continue;
            };
            match verify_program(&kernel.program) {
                Ok(rep) => {
                    r.verified += 1;
                    r.report.stmts += rep.stmts;
                    r.report.accesses += rep.accesses;
                    r.report.stores += rep.stores;
                    r.report.clipped += rep.clipped;
                    if r.spot_checked < EXEC_SPOT_CHECKS {
                        exec_spot_check(chain, &kernel.program);
                        r.spot_checked += 1;
                    }
                }
                Err(e) => {
                    r.violations
                        .push(format!("{} [{}]: {e}", chain.name, cand.describe(chain)))
                }
            }
        }
    }
    r
}

/// Execute a verified program for value and compare against the chain's
/// CPU reference — the static proof and the runtime oracle must agree on
/// the same program.
fn exec_spot_check(chain: &ChainSpec, program: &TileProgram) {
    let inputs = chain.random_inputs(7);
    let mut st = TensorStorage::for_program(program);
    for (i, t) in inputs.iter().enumerate() {
        st.tensors[i] = t.clone();
    }
    execute(program, &mut st).expect("verified program must execute");
    let reference = chain.reference(&inputs);
    let err = st.tensors.last().unwrap().rel_l2_error(&reference);
    assert!(
        err < 2e-2,
        "verified program for '{}' diverged from reference (rel l2 {err})",
        chain.name
    );
}
