//! Fig. 3 — the search-space census for the 2-GEMM chain (24 deep + 2
//! flat tiling expressions), plus the Fig. 4/5 pseudo-code listings that
//! illustrate the DAG-based memory-access optimization
//! (pass `--show-dag`).

use mcfuser_bench::{write_json, TextTable};
use mcfuser_core::SearchSpace;
use mcfuser_ir::ChainSpec;
use mcfuser_tile::{
    enumerate_deep, enumerate_flat, place_into, render_tree, Candidate, TilingExpr,
};

fn main() {
    let chain = ChainSpec::gemm_chain("fig3", 1, 1024, 1024, 512, 512);
    let deep = enumerate_deep(&chain);
    let flat = enumerate_flat(&chain);
    // The census of the full product space comes from the analytical
    // counter — the space is never materialized (§III-C: 1.09 × 10⁸).
    let full_count = SearchSpace::generate(&chain).count();

    println!("Fig. 3 — tiling expressions of the GEMM chain (m, k, n, h):\n");
    let mut t = TextTable::new(&["category", "count", "examples"]);
    let show = |v: &[TilingExpr], n: usize| -> String {
        v.iter()
            .take(n)
            .map(|e| e.display(&chain))
            .collect::<Vec<_>>()
            .join(", ")
    };
    t.row(vec![
        "deep tiling".into(),
        deep.len().to_string(),
        format!("{} …", show(&deep, 6)),
    ]);
    t.row(vec![
        "flat tiling".into(),
        flat.len().to_string(),
        show(&flat, 2),
    ]);
    t.row(vec![
        "total".into(),
        (deep.len() + flat.len()).to_string(),
        String::new(),
    ]);
    t.row(vec![
        "x tile vectors".into(),
        full_count.to_string(),
        "counted analytically, never materialized".into(),
    ]);
    println!("{}", t.render());

    if std::env::args().any(|a| a == "--show-dag") {
        // Fig. 4(a): the full mhnk expression with optimized placement.
        let cand = Candidate::new(
            TilingExpr::parse("mhnk", &chain).unwrap(),
            vec![128, 64, 64, 128],
        );
        let p = place_into(&chain, &cand, &cand.expr).unwrap();
        println!("Fig. 4(a) — optimized tiling expression mhnk:");
        println!("{}", render_tree(&p.tree, &chain));

        // Fig. 4(b)/5(b): k covered by a single tile → dead-loop
        // elimination hoists LA outward.
        let cand1 = Candidate::new(
            TilingExpr::parse("mhnk", &chain).unwrap(),
            vec![128, 512, 64, 128],
        );
        let live = cand1.live_block_expr(&chain);
        let p1 = place_into(&chain, &cand1, &live).unwrap();
        println!("Fig. 4(b) — per-block program after k = 1 elimination (Rule-1 bound):");
        println!("{}", render_tree(&p1.tree, &chain));
    } else {
        println!("(pass --show-dag for the Fig. 4/5 pseudo-code listings)");
    }

    // Fig. 6: shared-memory behaviour of the two per-block sub-tiling
    // expressions — "nk" reuses a single C-tile buffer; "kn" must cache
    // one partial C tile per n iteration (what Rule 2 prunes).
    let tiles = vec![64u64, 64, 64, 64];
    let nk = Candidate::new(TilingExpr::parse("mhnk", &chain).unwrap(), tiles.clone());
    let kn = Candidate::new(TilingExpr::parse("mhkn", &chain).unwrap(), tiles);
    let inst = |c: &Candidate| mcfuser_tile::accumulator_instances(&chain, c, 0);
    println!("Fig. 6 — per-thread-block accumulator tiles of C (tile 64, N = 1024):");
    println!(
        "  sub-expression nk (from mhnk): {} tile  (single reusable buffer)",
        inst(&nk)
    );
    println!(
        "  sub-expression kn (from mhkn): {} tiles (partial results for every n) -> pruned by Rule 2",
        inst(&kn)
    );

    write_json(
        "fig3_search_space",
        &serde_json::json!({
            "deep": deep.len(),
            "flat": flat.len(),
            "total": deep.len() + flat.len(),
            "full_space": full_count.to_string(),
            "deep_examples": deep.iter().take(24).map(|e| e.display(&chain)).collect::<Vec<_>>(),
            "flat_examples": flat.iter().map(|e| e.display(&chain)).collect::<Vec<_>>(),
        }),
    );
}
