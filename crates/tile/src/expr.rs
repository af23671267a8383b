//! Tiling expressions — the paper's schedule notation (§III-A).
//!
//! A tiling expression arranges the cross-tile loops of a chain. Two loop
//! relations exist:
//!
//! * **Nested** — `l₂` runs inside `l₁` (written by juxtaposition:
//!   `mhnk` means `m(h(n(k)))`);
//! * **Sequential** — `(l₁, l₂)` run one after the other in the same
//!   scope (written with parentheses: `mn(k,h)`).
//!
//! *Deep tilings* are pure permutations; *flat tilings* contain at least
//! one sequential group. For the 2-GEMM chain this yields the paper's
//! 4! = 24 deep plus 2 flat expressions (Fig. 3).

use mcfuser_ir::ChainSpec;

use crate::loops::{axis_role, AxisRole, LoopId};

/// A tiling expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TilingExpr {
    /// A loop over tiles of one axis surrounding a body.
    Loop {
        /// The tiled axis.
        axis: LoopId,
        /// The enclosed sub-expression.
        body: Box<TilingExpr>,
    },
    /// Sub-expressions executed sequentially in the same scope.
    Seq(Vec<TilingExpr>),
    /// The innermost point (the computation blocks live here conceptually).
    Unit,
}

impl TilingExpr {
    /// Build a deep (pure-nest) expression from a permutation of axes.
    pub fn deep(perm: &[LoopId]) -> TilingExpr {
        let mut e = TilingExpr::Unit;
        for &axis in perm.iter().rev() {
            e = TilingExpr::Loop {
                axis,
                body: Box::new(e),
            };
        }
        e
    }

    /// All axes mentioned, in pre-order.
    pub fn axes(&self) -> Vec<LoopId> {
        let mut v = Vec::new();
        self.collect_axes(&mut v);
        v
    }

    fn collect_axes(&self, out: &mut Vec<LoopId>) {
        match self {
            TilingExpr::Loop { axis, body } => {
                out.push(*axis);
                body.collect_axes(out);
            }
            TilingExpr::Seq(items) => {
                for it in items {
                    it.collect_axes(out);
                }
            }
            TilingExpr::Unit => {}
        }
    }

    /// True if the expression is a pure nest (deep tiling).
    pub fn is_deep(&self) -> bool {
        match self {
            TilingExpr::Loop { body, .. } => body.is_deep(),
            TilingExpr::Seq(_) => false,
            TilingExpr::Unit => true,
        }
    }

    /// Maximum nesting depth.
    pub fn depth(&self) -> usize {
        match self {
            TilingExpr::Loop { body, .. } => 1 + body.depth(),
            TilingExpr::Seq(items) => items.iter().map(TilingExpr::depth).max().unwrap_or(0),
            TilingExpr::Unit => 0,
        }
    }

    /// Remove the given axes from the expression (used by Rule 1 to derive
    /// the per-thread-block sub-tiling expression after binding the
    /// output-spatial loops to `blockIdx`, and by the DAG optimization to
    /// delete extent-1 loops). Degenerate `Seq`s are flattened.
    pub fn without_axes(&self, drop: &[LoopId]) -> TilingExpr {
        match self {
            TilingExpr::Loop { axis, body } => {
                let inner = body.without_axes(drop);
                if drop.contains(axis) {
                    inner
                } else {
                    TilingExpr::Loop {
                        axis: *axis,
                        body: Box::new(inner),
                    }
                }
            }
            TilingExpr::Seq(items) => {
                let kept: Vec<TilingExpr> = items
                    .iter()
                    .map(|it| it.without_axes(drop))
                    .filter(|it| *it != TilingExpr::Unit)
                    .collect();
                match kept.len() {
                    0 => TilingExpr::Unit,
                    1 => kept.into_iter().next().unwrap(),
                    _ => TilingExpr::Seq(kept),
                }
            }
            TilingExpr::Unit => TilingExpr::Unit,
        }
    }

    /// Pretty-print with the chain's axis names (`mhnk`, `mn(k,h)`).
    pub fn display(&self, chain: &ChainSpec) -> String {
        let mut s = String::new();
        self.fmt_into(chain, &mut s);
        if s.is_empty() {
            s.push('·');
        }
        s
    }

    fn fmt_into(&self, chain: &ChainSpec, out: &mut String) {
        match self {
            TilingExpr::Loop { axis, body } => {
                out.push_str(chain.axis_name(axis.0));
                body.fmt_into(chain, out);
            }
            TilingExpr::Seq(items) => {
                out.push('(');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    it.fmt_into(chain, out);
                }
                out.push(')');
            }
            TilingExpr::Unit => {}
        }
    }

    /// Parse an expression printed by [`TilingExpr::display`].
    pub fn parse(s: &str, chain: &ChainSpec) -> Option<TilingExpr> {
        let name_of = |c: char| -> Option<LoopId> {
            (0..chain.num_axes()).map(LoopId).find(|id| {
                let n = chain.axis_name(id.0);
                n.len() == 1 && n.starts_with(c)
            })
        };
        let chars: Vec<char> = s.chars().collect();
        let (expr, used) = parse_seq_body(&chars, 0, &name_of)?;
        if used == chars.len() {
            Some(expr)
        } else {
            None
        }
    }
}

/// Parse a run of loops possibly ending in a parenthesized Seq; returns
/// (expr, chars consumed).
fn parse_seq_body(
    chars: &[char],
    mut i: usize,
    name_of: &dyn Fn(char) -> Option<LoopId>,
) -> Option<(TilingExpr, usize)> {
    let mut prefix: Vec<LoopId> = Vec::new();
    let mut tail = TilingExpr::Unit;
    while i < chars.len() {
        let c = chars[i];
        if c == '(' {
            // Parse comma-separated items until ')'.
            i += 1;
            let mut items = Vec::new();
            loop {
                let (item, ni) = parse_seq_body(chars, i, name_of)?;
                items.push(item);
                i = ni;
                match chars.get(i) {
                    Some(',') => i += 1,
                    Some(')') => {
                        i += 1;
                        break;
                    }
                    _ => return None,
                }
            }
            tail = TilingExpr::Seq(items);
            break;
        } else if c == ',' || c == ')' {
            break;
        } else {
            prefix.push(name_of(c)?);
            i += 1;
        }
    }
    let mut e = tail;
    for &axis in prefix.iter().rev() {
        e = TilingExpr::Loop {
            axis,
            body: Box::new(e),
        };
    }
    Some((e, i))
}

/// Enumerate all deep tilings of a chain: every permutation of the
/// non-batch axes (4! = 24 for the 2-GEMM chain).
pub fn enumerate_deep(chain: &ChainSpec) -> Vec<TilingExpr> {
    let axes: Vec<LoopId> = (0..chain.num_axes()).map(LoopId).collect();
    let mut out = Vec::new();
    permute(&axes, &mut Vec::new(), &mut out);
    out.into_iter().map(|p| TilingExpr::deep(&p)).collect()
}

fn permute(rest: &[LoopId], acc: &mut Vec<LoopId>, out: &mut Vec<Vec<LoopId>>) {
    if rest.is_empty() {
        out.push(acc.clone());
        return;
    }
    for (i, &x) in rest.iter().enumerate() {
        let mut rem: Vec<LoopId> = rest.to_vec();
        rem.remove(i);
        acc.push(x);
        permute(&rem, acc, out);
        acc.pop();
    }
}

/// Enumerate the flat tilings of a chain: permutations of
/// `{m} ∪ intermediates` as the shared outer nest, with the first op's
/// reduction loop and the last op's column loop as a sequential pair
/// inside (the paper's `mn(k,h)` / `nm(k,h)` for the 2-GEMM chain).
pub fn enumerate_flat(chain: &ChainSpec) -> Vec<TilingExpr> {
    let n_axes = chain.num_axes();
    let outer: Vec<LoopId> = (0..n_axes)
        .map(LoopId)
        .filter(|&id| id.0 == 0 || axis_role(chain, id) == AxisRole::Intermediate)
        .collect();
    let first_red = LoopId(1);
    let last_col = LoopId(n_axes - 1);
    let seq = TilingExpr::Seq(vec![
        TilingExpr::Loop {
            axis: first_red,
            body: Box::new(TilingExpr::Unit),
        },
        TilingExpr::Loop {
            axis: last_col,
            body: Box::new(TilingExpr::Unit),
        },
    ]);
    let mut perms = Vec::new();
    permute(&outer, &mut Vec::new(), &mut perms);
    perms
        .into_iter()
        .map(|p| {
            let mut e = seq.clone();
            for &axis in p.iter().rev() {
                e = TilingExpr::Loop {
                    axis,
                    body: Box::new(e),
                };
            }
            e
        })
        .collect()
}

/// All tiling expressions of a chain (deep ∪ flat) — the paper's complete
/// structural search space.
pub fn enumerate_all(chain: &ChainSpec) -> Vec<TilingExpr> {
    let mut v = enumerate_deep(chain);
    v.extend(enumerate_flat(chain));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> ChainSpec {
        ChainSpec::gemm_chain("g", 1, 1024, 1024, 512, 512)
    }

    #[test]
    fn deep_count_is_factorial() {
        let c = chain();
        assert_eq!(enumerate_deep(&c).len(), 24);
    }

    #[test]
    fn flat_count_matches_paper() {
        let c = chain();
        let flat = enumerate_flat(&c);
        assert_eq!(flat.len(), 2);
        let shown: Vec<String> = flat.iter().map(|e| e.display(&c)).collect();
        assert!(shown.contains(&"mn(k,h)".to_string()), "{shown:?}");
        assert!(shown.contains(&"nm(k,h)".to_string()), "{shown:?}");
    }

    #[test]
    fn total_is_26() {
        assert_eq!(enumerate_all(&chain()).len(), 26);
    }

    #[test]
    fn display_deep() {
        let c = chain();
        let e = TilingExpr::deep(&[LoopId(0), LoopId(3), LoopId(2), LoopId(1)]);
        assert_eq!(e.display(&c), "mhnk");
    }

    #[test]
    fn parse_roundtrip_all() {
        let c = chain();
        for e in enumerate_all(&c) {
            let s = e.display(&c);
            let p = TilingExpr::parse(&s, &c).unwrap_or_else(|| panic!("parse {s}"));
            assert_eq!(p, e, "{s}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        let c = chain();
        assert!(TilingExpr::parse("mzx", &c).is_none());
        assert!(TilingExpr::parse("m(k", &c).is_none());
        assert!(TilingExpr::parse("mnkh)", &c).is_none());
    }

    #[test]
    fn without_axes_removes_grid_loops() {
        let c = chain();
        let e = TilingExpr::parse("mhnk", &c).unwrap();
        // Rule 1: bind m (0) and h (3) → per-block sub-expression "nk".
        let sub = e.without_axes(&[LoopId(0), LoopId(3)]);
        assert_eq!(sub.display(&c), "nk");
    }

    #[test]
    fn without_axes_flattens_degenerate_seq() {
        let c = chain();
        let e = TilingExpr::parse("mn(k,h)", &c).unwrap();
        // Dropping h leaves a single-item Seq that must collapse to "nk"
        // after also dropping m.
        let sub = e.without_axes(&[LoopId(0), LoopId(3)]);
        assert_eq!(sub.display(&c), "nk");
    }

    #[test]
    fn deep_detection() {
        let c = chain();
        assert!(TilingExpr::parse("mnkh", &c).unwrap().is_deep());
        assert!(!TilingExpr::parse("mn(k,h)", &c).unwrap().is_deep());
    }

    #[test]
    fn depth_of_deep_is_axis_count() {
        let c = chain();
        assert_eq!(TilingExpr::parse("mnkh", &c).unwrap().depth(), 4);
        // Flat: m, n shared + max(k, h) = 3.
        assert_eq!(TilingExpr::parse("mn(k,h)", &c).unwrap().depth(), 3);
    }

    #[test]
    fn axes_preorder() {
        let c = chain();
        let e = TilingExpr::parse("mn(k,h)", &c).unwrap();
        assert_eq!(e.axes(), vec![LoopId(0), LoopId(2), LoopId(1), LoopId(3)]);
    }

    #[test]
    fn three_op_chain_counts() {
        // axes m,k,n,h,p: deep = 5! = 120; flat = |{m,n,h}|! = 6.
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
        assert_eq!(enumerate_deep(&c).len(), 120);
        assert_eq!(enumerate_flat(&c).len(), 6);
    }
}
