//! Cross-tile loop axes of an MBCI chain and their roles.
//!
//! A chain with `L` matmuls has `1 + (L+1)` cross-tile axes: the shared
//! row axis `m` and one axis per `dᵢ` (`k, n, h, …` in the paper's
//! nomenclature), plus an implicit batch axis that is always bound to the
//! launch grid. Every tiling expression is an arrangement of these axes;
//! every candidate also carries one tile size per axis.

use mcfuser_ir::ChainSpec;

/// Index of a cross-tile loop axis: `0` = `m`, `1 + i` = `dims[i]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub usize);

/// Role of an axis with respect to the chain *output* — this determines
/// grid binding (Rule 1) and Rule-2 analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisRole {
    /// Indexes the chain output (`m` and `d_L`): always bindable to
    /// `blockIdx` because iterations are independent.
    OutputSpatial,
    /// An intermediate dim `d₁ … d_{L-1}`: spatial for its producer,
    /// reduction for its consumer.
    Intermediate,
    /// The pure reduction dim `d₀`.
    Reduction,
}

/// Static description of a chain's loop axes.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisInfo {
    /// Paper-style display name (`m`, `k`, `n`, `h`, …).
    pub name: &'static str,
    /// Dimension extent in elements.
    pub extent: u64,
    /// Role w.r.t. the chain output.
    pub role: AxisRole,
}

/// Compute axis metadata for a chain.
pub fn axes_of(chain: &ChainSpec) -> Vec<AxisInfo> {
    let n = chain.num_axes();
    (0..n)
        .map(|i| AxisInfo {
            name: chain.axis_name(i),
            extent: chain.axis_extent(i),
            role: axis_role(chain, LoopId(i)),
        })
        .collect()
}

/// Role of one axis.
pub fn axis_role(chain: &ChainSpec, id: LoopId) -> AxisRole {
    if id.0 == 0 || id.0 == chain.num_axes() - 1 {
        AxisRole::OutputSpatial
    } else if id.0 == 1 {
        AxisRole::Reduction
    } else {
        AxisRole::Intermediate
    }
}

/// Axes of the chain that Rule 1 binds to `blockIdx`: the two
/// output-spatial axes of [`axis_role`], `m` and `d_L`.
pub fn grid_axes(chain: &ChainSpec) -> [LoopId; 2] {
    [LoopId(0), LoopId(chain.num_axes() - 1)]
}

/// Axes that remain as per-block loops after Rule-1 binding.
pub fn block_axes(chain: &ChainSpec) -> Vec<LoopId> {
    (0..chain.num_axes())
        .map(LoopId)
        .filter(|&id| axis_role(chain, id) != AxisRole::OutputSpatial)
        .collect()
}

/// Enumerate the legal tile sizes for an axis: all multiples of 16 up to
/// (and including, via the ceiling) the dimension size (§III-A: "tensor
/// cores require a minimum tile size of 16"). Dimensions smaller than 16
/// get a single full-size tile.
pub fn tile_options(extent: u64) -> Vec<u64> {
    if extent <= 16 {
        return vec![extent.max(1)];
    }
    let max_tile = extent.div_ceil(16) * 16; // allow one padded full tile
    (1..)
        .map(|i| i * 16)
        .take_while(|&t| t <= max_tile)
        .collect()
}

/// Number of tile-size options for an axis (used to *count* the search
/// space without materializing it — the paper's `⌈dim/16⌉` factors).
pub fn tile_option_count(extent: u64) -> u64 {
    if extent <= 16 {
        1
    } else {
        extent.div_ceil(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> ChainSpec {
        ChainSpec::gemm_chain("g", 1, 1024, 1024, 512, 512)
    }

    #[test]
    fn axis_roles_of_2gemm_chain() {
        let c = chain();
        // axes: m, k, n, h
        assert_eq!(axis_role(&c, LoopId(0)), AxisRole::OutputSpatial); // m
        assert_eq!(axis_role(&c, LoopId(1)), AxisRole::Reduction); // k
        assert_eq!(axis_role(&c, LoopId(2)), AxisRole::Intermediate); // n
        assert_eq!(axis_role(&c, LoopId(3)), AxisRole::OutputSpatial); // h
    }

    #[test]
    fn grid_and_block_axes_partition() {
        let c = chain();
        let g = grid_axes(&c);
        let b = block_axes(&c);
        assert_eq!(g, [LoopId(0), LoopId(3)]);
        assert_eq!(b, vec![LoopId(1), LoopId(2)]);
        assert_eq!(g.len() + b.len(), c.num_axes());
    }

    #[test]
    fn axes_of_exposes_names_and_extents() {
        let c = chain();
        let ax = axes_of(&c);
        assert_eq!(ax.len(), 4);
        assert_eq!(ax[0].name, "m");
        assert_eq!(ax[0].extent, 1024);
        assert_eq!(ax[1].name, "k");
        assert_eq!(ax[1].extent, 512);
        assert_eq!(ax[2].name, "n");
        assert_eq!(ax[3].name, "h");
    }

    #[test]
    fn tile_options_multiples_of_16() {
        let opts = tile_options(1024);
        assert_eq!(opts.len(), 64);
        assert_eq!(opts[0], 16);
        assert_eq!(*opts.last().unwrap(), 1024);
        assert!(opts.iter().all(|t| t % 16 == 0));
    }

    #[test]
    fn tile_options_non_divisible_dim_allows_padded_tile() {
        // 100: multiples of 16 up to 112 (the padded single tile).
        let opts = tile_options(100);
        assert_eq!(*opts.last().unwrap(), 112);
        assert_eq!(opts.len(), 7);
    }

    #[test]
    fn small_dims_single_tile() {
        assert_eq!(tile_options(8), vec![8]);
        assert_eq!(tile_options(16), vec![16]);
        assert_eq!(tile_option_count(8), 1);
    }

    #[test]
    fn option_count_matches_paper_formula() {
        // The paper counts ⌈1024/16⌉² × ⌈512/16⌉² tile-size candidates.
        assert_eq!(tile_option_count(1024), 64);
        assert_eq!(tile_option_count(512), 32);
        assert_eq!(tile_options(1024).len() as u64, tile_option_count(1024));
        assert_eq!(tile_options(512).len() as u64, tile_option_count(512));
    }

    #[test]
    fn longer_chain_roles() {
        // 3-op chain: axes m, k, n, h, p — n and h intermediates.
        let c = ChainSpec {
            name: "c3".into(),
            batch: 1,
            m: 256,
            dims: vec![64, 128, 128, 64],
            epilogues: vec![Default::default(); 3],
            biases: vec![false; 3],
            dtype: mcfuser_sim::DType::F16,
            prologue: None,
            stitch_epilogue: None,
        };
        assert_eq!(axis_role(&c, LoopId(2)), AxisRole::Intermediate);
        assert_eq!(axis_role(&c, LoopId(3)), AxisRole::Intermediate);
        assert_eq!(axis_role(&c, LoopId(4)), AxisRole::OutputSpatial);
        assert_eq!(grid_axes(&c), [LoopId(0), LoopId(4)]);
    }

    #[test]
    fn grid_axes_are_the_output_spatial_axes_of_1_to_4_op_chains() {
        for ops in 1..=4usize {
            let c = ChainSpec::chain("c", 1, 64, vec![32; ops + 1], vec![Default::default(); ops]);
            let spatial: Vec<LoopId> = (0..c.num_axes())
                .map(LoopId)
                .filter(|&id| axis_role(&c, id) == AxisRole::OutputSpatial)
                .collect();
            assert_eq!(grid_axes(&c).to_vec(), spatial, "{ops}-op chain");
            assert_eq!(
                grid_axes(&c).len() + block_axes(&c).len(),
                c.num_axes(),
                "{ops}-op chain"
            );
        }
    }
}
