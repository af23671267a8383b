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
use mcfuser_ir::ChainSpec;
use mcfuser_sim::verify::{verify_program, VerifyReport};
use mcfuser_sim::{execute, DeviceSpec, TensorStorage, TileProgram};
use mcfuser_tile::{lower, LoweringOptions};
use mcfuser_workloads::model_chain_families;

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

    let families = model_chain_families(&device);

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
    // Generous per-chain budget: each chain may contribute well past its
    // even share, so the family total clears the quota even where some
    // spaces are small. (Every candidate of a space pruned by the default
    // policy lowers, so `lowering_rejects` stays 0.)
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
