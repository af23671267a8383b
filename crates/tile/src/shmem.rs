//! Shared-memory estimation — Equation (1) of the paper.
//!
//! `Shm_estm = Σ_{Xi} (T_Li × T_Lj)`: the sum of the tile footprints of
//! every tensor touched by the fused kernel. The estimate is deliberately
//! coarse — it ignores double buffering, bank-conflict padding and the
//! wider accumulator precision the lowering actually allocates — which is
//! why the paper validates it against measured usage (Fig. 10) and prunes
//! with a 1.2× error margin (Rule 4).
//!
//! The paper's Rule 4 evaluates the estimate once per binary-search probe
//! along axis 0 of every Rule-3 tile-grid row, so a call allocates
//! nothing: the tensor census is an iterator and each tensor's axes are a
//! fixed pair. (This reproduction's default Rule 4 prunes with the shared
//! memory lowering allocates instead, `SmemFootprint` in the lowering
//! module.)
//!
//! The estimate never decreases along axis 0 (`m`): that axis enters it
//! only through non-negative products, and the one subtracted term (a
//! tail LayerNorm's streamed panel, below) scales with the last weight's
//! reduction tile, never with `m`. It is *not* monotone in every tile:
//! that subtraction makes it fall along the last axis when the last tile
//! reaches `d_L`.

use mcfuser_ir::ChainSpec;

use crate::candidate::Candidate;
use crate::stmt::{tensor_axes, tile_shape, TensorRef};

/// All tensors of a chain in the paper's lettering order: `A`, `W₀`,
/// `T₀`, `W₁`, `T₁`, …, `W_{L-1}`, output (`A, B, C, D, E` for a 2-GEMM
/// chain).
pub fn chain_tensors(chain: &ChainSpec) -> impl ExactSizeIterator<Item = TensorRef> {
    let last = 2 * chain.num_ops();
    (0..last + 1).map(move |p| match p {
        0 => TensorRef::Input(0),
        p if p == last => TensorRef::Output,
        p if p % 2 == 1 => TensorRef::Input(p / 2 + 1),
        p => TensorRef::Intermediate(p / 2 - 1),
    })
}

/// The Rule-4 pruning margin over `Shm_max`: candidates are kept while
/// the Eq. 1 estimate stays within `RULE4_MARGIN × Shm_max` (the margin
/// absorbs estimation error, §III-C). Single source of truth — the lazy
/// candidate space's survivor index uses the same constant.
pub const RULE4_MARGIN: f64 = 1.2;

/// Column chunk width of a streamed final-stage weight panel.
///
/// A tail LayerNorm pins the last axis to the full row (`tile = d_L`),
/// which would force the final weight tile to hold a whole `t_k × d_L`
/// panel. The lowering streams that panel in column slices of this width
/// — the largest divisor of `d_L` that is ≤ 128 — so only one slice is
/// resident at a time. When `d_L > 128` the estimate drops the whole
/// `t_k × d_L` panel once the last tile reaches `d_L`, so it can fall as
/// the last tile grows (it still never decreases along axis 0).
pub fn tail_panel_chunk(d_last: u64) -> u64 {
    if d_last <= 128 {
        return d_last;
    }
    (1..=128u64)
        .rev()
        .find(|c| d_last.is_multiple_of(*c))
        .unwrap_or(1)
}

/// Eq. (1) from a bare tile vector (`tiles[a]` = tile size of axis `a`).
/// The estimate is expression-independent, so pruning can evaluate it
/// without constructing a `Candidate`.
pub fn estimate_shmem_bytes_for_tiles(chain: &ChainSpec, tiles: &[u64]) -> u64 {
    let esz = chain.dtype.size_bytes();
    let mut sum: u64 = chain_tensors(chain)
        .map(|t| {
            let (r, c) = tile_shape(chain, t, tiles);
            r * c * esz
        })
        .sum();
    // A stitched prologue holds the A tile raw in f32 and, with a fused
    // residual, a second A-shaped tile next to it. Strips and per-row
    // stats stay below the estimate's resolution (Eq. 1 is coarse).
    if let Some(p) = chain.prologue {
        let a_tile = tiles[0] * tiles[1];
        sum += a_tile * (4 - esz);
        if p.residual {
            sum += a_tile * 4;
        }
    }
    // A tail LayerNorm's full-row weight panel is streamed in column
    // chunks straight into registers (see `tail_panel_chunk` and
    // `SmemDecl::streamed`): it occupies no shared memory at all.
    if let Some(t) = chain.stitch_epilogue {
        let last = chain.num_axes() - 1;
        let d_l = *chain.dims.last().expect("chain has dims");
        if t.layer_norm && tiles[last] == d_l {
            let chunk = tail_panel_chunk(d_l);
            if chunk < d_l {
                let [k, _] = tensor_axes(chain, TensorRef::Input(chain.num_ops()));
                sum -= tiles[k.0] * d_l * esz;
            }
        }
    }
    sum
}

/// Eq. (1): estimated shared-memory bytes per thread block for a
/// candidate (tile footprints at the chain's storage precision).
pub fn estimate_shmem_bytes(chain: &ChainSpec, cand: &Candidate) -> u64 {
    estimate_shmem_bytes_for_tiles(chain, &cand.tiles)
}

/// The paper's Rule-4 test on a bare tile vector: keep it while its
/// Eq. 1 *estimate* stays within [`RULE4_MARGIN`]` × Shm_max`.
pub fn rule4_fits(chain: &ChainSpec, tiles: &[u64], shm_max: u64) -> bool {
    estimate_shmem_bytes_for_tiles(chain, tiles) as f64 <= RULE4_MARGIN * shm_max as f64
}

#[cfg(test)]
mod tests {
    use mcfuser_ir::{Epilogue, EpilogueStitch, PrologueSpec, ResidualSource};

    use super::*;
    use crate::expr::TilingExpr;
    use crate::stmt::Stmt;

    fn chain() -> ChainSpec {
        ChainSpec::gemm_chain("g", 1, 1024, 1024, 512, 512)
    }

    fn cand(tiles: Vec<u64>) -> Candidate {
        let c = chain();
        Candidate::new(TilingExpr::parse("mhnk", &c).unwrap(), tiles)
    }

    #[test]
    fn tensor_census_order_for_1_2_and_3_op_chains() {
        use TensorRef::{Input, Intermediate, Output};
        let cases = [
            (vec![64, 32], vec![Input(0), Input(1), Output]),
            // A, B(W0), C(T0), D(W1), E(out) — five tensors like the paper.
            (
                vec![64, 32, 48],
                vec![Input(0), Input(1), Intermediate(0), Input(2), Output],
            ),
            (
                vec![64, 32, 48, 16],
                vec![
                    Input(0),
                    Input(1),
                    Intermediate(0),
                    Input(2),
                    Intermediate(1),
                    Input(3),
                    Output,
                ],
            ),
        ];
        for (dims, want) in cases {
            let ops = dims.len() - 1;
            let c = ChainSpec::chain("c", 1, 128, dims, vec![Epilogue::None; ops]);
            let got: Vec<TensorRef> = chain_tensors(&c).collect();
            assert_eq!(got, want);
            assert_eq!(chain_tensors(&c).len(), 2 * ops + 1);
            // The census walks the paper's letters in order: A, B, C, …
            let letters: String = got
                .iter()
                .map(|&t| Stmt::Load(t).short_name(&c)[1..].to_string())
                .collect();
            assert_eq!(letters, "ABCDEFG"[..2 * ops + 1]);
        }
    }

    #[test]
    fn estimate_matches_hand_computation_for_3gemm() {
        // Axes m, k, n, h, p; seven tensors A, W0, T0, W1, T1, W2, out.
        let c = ChainSpec::chain(
            "c3",
            1,
            256,
            vec![64, 128, 128, 96],
            vec![Epilogue::None; 3],
        );
        // tiles m=32, k=16, n=48, h=64, p=80, f16 (2 B):
        // A:32×16 + W0:16×48 + T0:32×48 + W1:48×64 + T1:32×64 + W2:64×80
        // + out:32×80 = 512+768+1536+3072+2048+5120+2560 = 15616 elements.
        let tiles = [32, 16, 48, 64, 80];
        assert_eq!(estimate_shmem_bytes_for_tiles(&c, &tiles), 2 * 15616);
    }

    fn with_prologue(residual: bool) -> ChainSpec {
        let mut c = chain();
        c.prologue = Some(PrologueSpec {
            residual,
            affine: true,
            a_half: false,
            eps: 1e-5,
        });
        c
    }

    #[test]
    fn stitched_prologue_holds_the_a_tile_raw_and_the_residual_tile() {
        // tiles m=64, k=32, n=64, h=16, f16. Plain Eq. 1 is 20480 B (as
        // in `estimate_matches_hand_computation`); the A tile (64×32 =
        // 2048 elements) is held raw in f32, 2 B more per element, and a
        // fused residual adds a second A-shaped f32 tile.
        let tiles = [64, 32, 64, 16];
        let plain = 2 * (2048 + 2048 + 4096 + 1024 + 1024);
        let no_res = with_prologue(false);
        assert_eq!(
            estimate_shmem_bytes_for_tiles(&no_res, &tiles),
            plain + 2048 * 2
        );
        // W0, T0, W1, out at 2 B, then the f32 A tile and f32 residual.
        let res = with_prologue(true);
        assert_eq!(
            estimate_shmem_bytes_for_tiles(&res, &tiles),
            2 * (2048 + 4096 + 1024 + 1024) + 4 * 2048 + 4 * 2048
        );
    }

    fn with_tail_layer_norm(d_l: u64) -> ChainSpec {
        let mut c = ChainSpec::gemm_chain("t", 1, 128, 128, 64, d_l);
        c.stitch_epilogue = Some(EpilogueStitch {
            residual: ResidualSource::External,
            layer_norm: true,
            affine: true,
            eps: 1e-5,
        });
        c
    }

    #[test]
    fn tail_layer_norm_streams_a_wide_final_panel() {
        // d_L = 192 > 128 streams in 96-column chunks, so with the last
        // tile at d_L the t_n × d_L weight panel leaves the estimate.
        let c = with_tail_layer_norm(192);
        assert_eq!(tail_panel_chunk(192), 96);
        // tiles m=32, k=64, n=32, h=192: A:32×64 + W0:64×32 + T0:32×32
        // + out:32×192; the W1 panel (32×192) is not counted.
        let full_row = [32, 64, 32, 192];
        assert_eq!(
            estimate_shmem_bytes_for_tiles(&c, &full_row),
            2 * (2048 + 2048 + 1024 + 6144)
        );
        // A last tile short of d_L keeps its weight tile.
        let part_row = [32, 64, 32, 64];
        assert_eq!(
            estimate_shmem_bytes_for_tiles(&c, &part_row),
            2 * (2048 + 2048 + 1024 + 2048 + 2048)
        );
    }

    #[test]
    fn tail_layer_norm_keeps_a_narrow_final_panel() {
        // d_L = 128 ≤ 128 is one chunk: the panel stays resident and
        // counts in full.
        let c = with_tail_layer_norm(128);
        assert_eq!(tail_panel_chunk(128), 128);
        let tiles = [32, 64, 32, 128];
        assert_eq!(
            estimate_shmem_bytes_for_tiles(&c, &tiles),
            2 * (2048 + 2048 + 1024 + 4096 + 4096)
        );
    }

    /// How often Eq. 1 falls between neighbouring tiles along `axis`,
    /// over every combination of each axis' tile options (a superset of
    /// any Rule-3 domain, in the same ascending order).
    fn decreases_along(c: &ChainSpec, axis: usize) -> usize {
        let domains: Vec<Vec<u64>> = (0..c.num_axes())
            .map(|a| crate::loops::tile_options(c.axis_extent(a)))
            .collect();
        let mut idx = vec![0usize; domains.len()];
        let mut falls = 0;
        loop {
            if idx[axis] + 1 < domains[axis].len() {
                let mut tiles: Vec<u64> = idx.iter().zip(&domains).map(|(&i, d)| d[i]).collect();
                let here = estimate_shmem_bytes_for_tiles(c, &tiles);
                tiles[axis] = domains[axis][idx[axis] + 1];
                if estimate_shmem_bytes_for_tiles(c, &tiles) < here {
                    falls += 1;
                }
            }
            let Some(a) = (0..idx.len()).find(|&a| idx[a] + 1 < domains[a].len()) else {
                return falls;
            };
            idx[a] += 1;
            idx[..a].fill(0);
        }
    }

    #[test]
    fn estimate_never_decreases_along_axis_0_on_any_chain_family() {
        let stitched = with_tail_layer_norm(512);
        let families = [
            ChainSpec::gemm_chain("gemm2", 1, 128, 128, 64, 128),
            ChainSpec::chain(
                "mlp3",
                1,
                96,
                vec![64, 128, 64, 64],
                vec![Epilogue::Relu; 3],
            ),
            ChainSpec::attention("attn", 4, 128, 128, 64, 64),
            ChainSpec::masked_attention("masked", 4, 128, 128, 64, 64),
            ChainSpec::chain("gemv", 1, 1, vec![128, 256, 128], vec![Epilogue::None; 2]),
            stitched.clone(),
        ];
        for c in &families {
            assert_eq!(decreases_along(c, 0), 0, "{}", c.name);
        }
        // The caveat the doc states: with d_L = 512 > 128 the streamed
        // panel makes the estimate fall along the last axis.
        assert!(decreases_along(&stitched, stitched.num_axes() - 1) > 0);
    }

    #[test]
    fn estimate_matches_hand_computation() {
        let c = chain();
        // tiles m=64, k=32, n=64, h=16, f16 (2 B):
        // A:64×32 + B:32×64 + C:64×64 + D:64×16 + E:64×16 = 2048+2048+4096+1024+1024
        let cd = cand(vec![64, 32, 64, 16]);
        let est = estimate_shmem_bytes(&c, &cd);
        assert_eq!(est, 2 * (2048 + 2048 + 4096 + 1024 + 1024));
    }

    #[test]
    fn rule4_prunes_giant_tiles() {
        let c = chain();
        let shm_max = 164 * 1024;
        assert!(rule4_fits(&c, &[64, 32, 64, 16], shm_max));
        // 512×512 C tile alone is 512 KiB in f16 — way over.
        assert!(!rule4_fits(&c, &[512, 32, 512, 16], shm_max));
    }

    #[test]
    fn rule4_margin_admits_slight_overshoot() {
        let c = chain();
        let cd = cand(vec![64, 32, 64, 16]);
        let est = estimate_shmem_bytes(&c, &cd);
        // A budget exactly est/1.2 still admits the candidate.
        let budget = (est as f64 / 1.2).ceil() as u64;
        assert!(rule4_fits(&c, &cd.tiles, budget));
        assert!(!rule4_fits(&c, &cd.tiles, budget / 2));
    }
}
