//! Primitive statements of a fused tensor program (§III-B).
//!
//! The paper extends tiling expressions with three primitives — **Load**,
//! **Compute**, **Store** — each attached to a tensor of the chain. A
//! statement's *related axes* are the cross-tile loops that index its
//! tensor tiles; they drive both placement (a statement belongs at its
//! rightmost related loop) and the traffic/flop accounting of the
//! performance model (Eqs. 3–4).

use mcfuser_ir::ChainSpec;

use crate::loops::LoopId;

/// A tensor of the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorRef {
    /// Input `i`: `0` = `A`, `1 + j` = weight `W_j`.
    Input(usize),
    /// Intermediate `T_i` (output of compute block `i`, `i < L-1`).
    Intermediate(usize),
    /// The chain output `T_{L-1}`.
    Output,
}

/// A primitive statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// Global→shared copy of one tile of a tensor (`L` in the paper).
    Load(TensorRef),
    /// Compute block `i` (`C` in the paper): one tile-GEMM accumulation.
    Compute(usize),
    /// Shared→global copy of the output tile (`S` in the paper).
    Store,
}

impl Stmt {
    /// Paper-style short name, e.g. `LA`, `LB`, `CC`, `SE` for the 2-GEMM
    /// chain (tensors lettered `A, B, C, D, E` in order).
    pub fn short_name(&self, chain: &ChainSpec) -> String {
        let letter = |t: TensorRef| -> char {
            // Order: A, W0, T0, W1, T1, ... — matches the paper's A,B,C,D,E.
            let idx = match t {
                TensorRef::Input(0) => 0,
                TensorRef::Input(j) => 2 * j - 1,
                TensorRef::Intermediate(i) => 2 * (i + 1),
                TensorRef::Output => 2 * chain.num_ops(),
            };
            (b'A' + idx as u8) as char
        };
        match self {
            Stmt::Load(t) => format!("L{}", letter(*t)),
            Stmt::Compute(i) => format!(
                "C{}",
                letter(if *i + 1 == chain.num_ops() {
                    TensorRef::Output
                } else {
                    TensorRef::Intermediate(*i)
                })
            ),
            Stmt::Store => format!("S{}", letter(TensorRef::Output)),
        }
    }
}

/// The axes that index a tensor's tiles (batch excluded — it is always
/// grid-bound), rows first. Every tensor of a chain is a 2-D tile, so
/// the pair is returned by value.
pub fn tensor_axes(chain: &ChainSpec, t: TensorRef) -> [LoopId; 2] {
    let last = chain.num_axes() - 1;
    match t {
        // A[b, m, d0] → {m, k}
        TensorRef::Input(0) => [LoopId(0), LoopId(1)],
        // W_j[b, d_j, d_{j+1}] → {axis(1+j), axis(2+j)}
        TensorRef::Input(j) => [LoopId(j), LoopId(j + 1)],
        // T_i[b, m, d_{i+1}] → {m, axis(2+i)}
        TensorRef::Intermediate(i) => [LoopId(0), LoopId(i + 2)],
        TensorRef::Output => [LoopId(0), LoopId(last)],
    }
}

/// Related axes of a statement (union of its operand tensors' axes for
/// computes; the tensor's own axes for memory statements).
pub fn related_axes(chain: &ChainSpec, s: Stmt) -> Vec<LoopId> {
    match s {
        Stmt::Load(t) => tensor_axes(chain, t).to_vec(),
        Stmt::Store => tensor_axes(chain, TensorRef::Output).to_vec(),
        // Compute i touches m, d_i (reduction) and d_{i+1} (columns).
        Stmt::Compute(i) => vec![LoopId(0), LoopId(i + 1), LoopId(i + 2)],
    }
}

/// The tensor a compute block accumulates into.
pub fn compute_output(chain: &ChainSpec, i: usize) -> TensorRef {
    if i + 1 == chain.num_ops() {
        TensorRef::Output
    } else {
        TensorRef::Intermediate(i)
    }
}

/// Reduction axis of compute block `i` (the axis summed over): `d_i`.
pub fn compute_reduction_axis(_chain: &ChainSpec, i: usize) -> LoopId {
    LoopId(i + 1)
}

/// Column (spatial) axis of compute block `i`'s output: `d_{i+1}`.
pub fn compute_column_axis(_chain: &ChainSpec, i: usize) -> LoopId {
    LoopId(i + 2)
}

/// All statements of a fused chain in canonical order:
/// `LA, LW₀, C₀, LW₁, C₁, …, S`.
pub fn all_statements(chain: &ChainSpec) -> Vec<Stmt> {
    let mut v = Vec::with_capacity(2 * chain.num_ops() + 2);
    v.push(Stmt::Load(TensorRef::Input(0)));
    for i in 0..chain.num_ops() {
        v.push(Stmt::Load(TensorRef::Input(i + 1)));
        v.push(Stmt::Compute(i));
    }
    v.push(Stmt::Store);
    v
}

/// Order dependencies between statements (the DAG's order-dependent
/// edges, Fig. 5): loads feed their computes, computes chain, the last
/// compute feeds the store.
pub fn order_deps(chain: &ChainSpec) -> Vec<(Stmt, Stmt)> {
    let mut deps = Vec::new();
    deps.push((Stmt::Load(TensorRef::Input(0)), Stmt::Compute(0)));
    for i in 0..chain.num_ops() {
        deps.push((Stmt::Load(TensorRef::Input(i + 1)), Stmt::Compute(i)));
        if i > 0 {
            deps.push((Stmt::Compute(i - 1), Stmt::Compute(i)));
        }
    }
    deps.push((Stmt::Compute(chain.num_ops() - 1), Stmt::Store));
    deps
}

/// Tile footprint (rows, cols) of a tensor under a per-axis tile
/// assignment (`tiles[axis]`).
pub fn tile_shape(chain: &ChainSpec, t: TensorRef, tiles: &[u64]) -> (u64, u64) {
    let [r, c] = tensor_axes(chain, t);
    (tiles[r.0], tiles[c.0])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> ChainSpec {
        ChainSpec::gemm_chain("g", 1, 512, 256, 64, 128)
    }

    #[test]
    fn paper_letters_for_2gemm() {
        let c = chain();
        // A×B=C, C×D=E: statements LA, LB, CC, LD, CE, SE.
        let names: Vec<String> = all_statements(&c)
            .iter()
            .map(|s| s.short_name(&c))
            .collect();
        assert_eq!(names, vec!["LA", "LB", "CC", "LD", "CE", "SE"]);
    }

    #[test]
    fn related_axes_match_paper() {
        let c = chain();
        // LA: {m,k}; LB: {k,n}; CC: {m,k,n}; LD: {n,h}; CE: {m,n,h}; SE: {m,h}.
        assert_eq!(
            related_axes(&c, Stmt::Load(TensorRef::Input(0))),
            vec![LoopId(0), LoopId(1)]
        );
        assert_eq!(
            related_axes(&c, Stmt::Load(TensorRef::Input(1))),
            vec![LoopId(1), LoopId(2)]
        );
        assert_eq!(
            related_axes(&c, Stmt::Compute(0)),
            vec![LoopId(0), LoopId(1), LoopId(2)]
        );
        assert_eq!(
            related_axes(&c, Stmt::Load(TensorRef::Input(2))),
            vec![LoopId(2), LoopId(3)]
        );
        assert_eq!(
            related_axes(&c, Stmt::Compute(1)),
            vec![LoopId(0), LoopId(2), LoopId(3)]
        );
        assert_eq!(related_axes(&c, Stmt::Store), vec![LoopId(0), LoopId(3)]);
    }

    #[test]
    fn order_deps_form_the_fig5_dag() {
        let c = chain();
        let deps = order_deps(&c);
        assert!(deps.contains(&(Stmt::Load(TensorRef::Input(0)), Stmt::Compute(0))));
        assert!(deps.contains(&(Stmt::Compute(0), Stmt::Compute(1))));
        assert!(deps.contains(&(Stmt::Compute(1), Stmt::Store)));
        assert_eq!(deps.len(), 5);
    }

    #[test]
    fn compute_axes_helpers() {
        let c = chain();
        assert_eq!(compute_reduction_axis(&c, 0), LoopId(1)); // k
        assert_eq!(compute_column_axis(&c, 0), LoopId(2)); // n
        assert_eq!(compute_reduction_axis(&c, 1), LoopId(2)); // n
        assert_eq!(compute_column_axis(&c, 1), LoopId(3)); // h
        assert_eq!(compute_output(&c, 0), TensorRef::Intermediate(0));
        assert_eq!(compute_output(&c, 1), TensorRef::Output);
    }

    #[test]
    fn tile_shapes() {
        let c = chain();
        let tiles = vec![64, 32, 128, 16]; // m,k,n,h
        assert_eq!(tile_shape(&c, TensorRef::Input(0), &tiles), (64, 32)); // A
        assert_eq!(tile_shape(&c, TensorRef::Input(1), &tiles), (32, 128)); // B
        assert_eq!(
            tile_shape(&c, TensorRef::Intermediate(0), &tiles),
            (64, 128)
        ); // C
        assert_eq!(tile_shape(&c, TensorRef::Input(2), &tiles), (128, 16)); // D
        assert_eq!(tile_shape(&c, TensorRef::Output, &tiles), (64, 16)); // E
    }

    #[test]
    fn single_matmul_statements() {
        let c = ChainSpec::single_matmul("mm", 1, 128, 64, 32);
        let names: Vec<String> = all_statements(&c)
            .iter()
            .map(|s| s.short_name(&c))
            .collect();
        assert_eq!(names, vec!["LA", "LB", "CC", "SC"]);
    }
}
