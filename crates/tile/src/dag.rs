//! Schedule-DAG analysis and statement placement (§III-B, Figs. 4–5).
//!
//! Loops and primitive statements form a DAG with two edge kinds:
//!
//! * **scope-dependent** (loop → statement): the loop variable indexes the
//!   statement's tiles, so the statement must execute within that loop;
//! * **order-dependent** (statement → statement): dataflow order, with no
//!   scope implication.
//!
//! Placement then follows the paper's optimization: every statement sits
//! at its *rightmost related loop*. Extent-1 loops are deleted from the
//! DAG first (they index a constant 0), which releases their scope edges
//! and lets statements hoist outward — the k = 1 example of Fig. 5(b)
//! where `LA`'s trip count drops by a factor of `h·n`.
//!
//! The resulting [`ScheduleTree`] is what the lowering walks. The loop
//! path around each statement ([`Placement::paths`]) gives the `Π l_j`
//! factors of the performance model's Eqs. (3)–(4): the product of the
//! trips along the path.

use mcfuser_ir::ChainSpec;

use crate::candidate::Candidate;
use crate::expr::TilingExpr;
use crate::loops::LoopId;
use crate::stmt::{all_statements, compute_output, order_deps, related_axes, tensor_axes, Stmt};

/// One item of a schedule scope.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleItem {
    /// A tile loop with its body.
    Loop {
        /// Tiled axis.
        axis: LoopId,
        /// Trip count (`⌈extent/tile⌉`).
        trips: u64,
        /// Statements and nested loops inside.
        body: Scope,
    },
    /// A placed primitive statement.
    Stmt(Stmt),
}

/// An ordered list of schedule items sharing one scope.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scope {
    /// Items in execution order.
    pub items: Vec<ScheduleItem>,
}

/// The per-block schedule tree: loops with placed statements.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleTree {
    /// Root scope (block entry).
    pub root: Scope,
}

/// Placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A statement's related loops do not lie on one root-to-leaf path, so
    /// no single placement point exists (cannot happen for the chain
    /// statement sets this crate generates; guards hand-built expressions).
    RelatedLoopsDiverge(Stmt),
    /// Statement ordering within a scope is cyclic.
    CyclicOrder,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::RelatedLoopsDiverge(s) => {
                write!(f, "related loops of {:?} are not nested on one path", s)
            }
            PlacementError::CyclicOrder => write!(f, "cyclic statement order"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Internal: flattened loop nest node.
#[derive(Debug, Clone)]
struct LoopNode {
    axis: LoopId,
    trips: u64,
    /// Index of parent loop in the nodes vec (None = root).
    parent: Option<usize>,
}

/// Collect loop nodes from an expression with their parent links.
fn collect_loops(
    expr: &TilingExpr,
    chain: &ChainSpec,
    cand: &Candidate,
    parent: Option<usize>,
    nodes: &mut Vec<LoopNode>,
) {
    match expr {
        TilingExpr::Loop { axis, body } => {
            let idx = nodes.len();
            nodes.push(LoopNode {
                axis: *axis,
                trips: cand.trips(chain, *axis),
                parent,
            });
            collect_loops(body, chain, cand, Some(idx), nodes);
        }
        TilingExpr::Seq(items) => {
            for it in items {
                collect_loops(it, chain, cand, parent, nodes);
            }
        }
        TilingExpr::Unit => {}
    }
}

/// Ancestor chain (including self) of a loop node, root first.
fn path_of(nodes: &[LoopNode], mut idx: usize) -> Vec<usize> {
    let mut p = vec![idx];
    while let Some(par) = nodes[idx].parent {
        p.push(par);
        idx = par;
    }
    p.reverse();
    p
}

/// Result of placing all statements of a chain into a candidate's
/// per-block expression.
#[derive(Debug, Clone)]
pub struct Placement {
    /// For each statement: enclosing live block-loop axes, root first.
    pub paths: Vec<(Stmt, Vec<LoopId>)>,
    /// The executable schedule tree.
    pub tree: ScheduleTree,
}

/// Place all chain statements into the candidate's live per-block
/// expression (grid axes bound, dead loops eliminated).
pub fn place(chain: &ChainSpec, cand: &Candidate) -> Result<Placement, PlacementError> {
    let expr = cand.live_block_expr(chain);
    place_into(chain, cand, &expr)
}

/// Place into an explicit expression (used by tests and by the Chimera
/// baseline, which skips dead-loop elimination).
pub fn place_into(
    chain: &ChainSpec,
    cand: &Candidate,
    expr: &TilingExpr,
) -> Result<Placement, PlacementError> {
    let mut nodes = Vec::new();
    collect_loops(expr, chain, cand, None, &mut nodes);

    let stmts = all_statements(chain);
    let mut target: Vec<Option<usize>> = Vec::with_capacity(stmts.len());
    let mut paths: Vec<(Stmt, Vec<LoopId>)> = Vec::with_capacity(stmts.len());

    for &s in &stmts {
        let related = related_axes(chain, s);
        // All live loops whose axis is related.
        let mut hits: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| related.contains(&n.axis))
            .map(|(i, _)| i)
            .collect();
        // Verify they lie on a single path; deepest = the one whose path
        // contains all others.
        hits.sort_by_key(|&i| path_of(&nodes, i).len());
        if let Some(&deepest) = hits.last() {
            let dp = path_of(&nodes, deepest);
            for &h in &hits {
                if !dp.contains(&h) {
                    return Err(PlacementError::RelatedLoopsDiverge(s));
                }
            }
        }
        let mut tgt = hits.last().copied();

        // Correctness override for the Store: it must sit outside every
        // accumulation loop of the output (the output is only complete
        // after all reduction-family loops finish).
        if s == Stmt::Store {
            tgt = hoist_outside_accumulation(chain, &nodes, tgt);
        }
        let path_axes = match tgt {
            Some(t) => path_of(&nodes, t).iter().map(|&i| nodes[i].axis).collect(),
            None => Vec::new(),
        };
        target.push(tgt);
        paths.push((s, path_axes));
    }

    let tree = build_tree(expr, chain, cand, &nodes, &stmts, &target)?;
    Ok(Placement { paths, tree })
}

/// Walk `tgt` upward until no enclosing loop is an accumulation axis
/// (anything other than output-spatial axes accumulates into the output
/// transitively).
fn hoist_outside_accumulation(
    chain: &ChainSpec,
    nodes: &[LoopNode],
    tgt: Option<usize>,
) -> Option<usize> {
    use crate::loops::{axis_role, AxisRole};
    let mut cur = tgt?;
    loop {
        // Does any strict ancestor (or self… store can't be inside a
        // reduction loop at all) accumulate?
        let path = path_of(nodes, cur);
        let bad = path
            .iter()
            .rev()
            .find(|&&i| axis_role(chain, nodes[i].axis) != AxisRole::OutputSpatial);
        match bad {
            None => return Some(cur),
            Some(&b) => match nodes[b].parent {
                Some(p) => cur = p,
                None => return None,
            },
        }
    }
}

/// Build the ordered schedule tree: loops in expression order, statements
/// inserted into their target scopes, each scope topologically ordered by
/// the chain's order dependencies.
fn build_tree(
    expr: &TilingExpr,
    chain: &ChainSpec,
    cand: &Candidate,
    nodes: &[LoopNode],
    stmts: &[Stmt],
    target: &[Option<usize>],
) -> Result<ScheduleTree, PlacementError> {
    // Map: loop node index -> statements placed directly inside it.
    let mut by_loop: Vec<Vec<Stmt>> = vec![Vec::new(); nodes.len()];
    let mut at_root: Vec<Stmt> = Vec::new();
    for (i, &s) in stmts.iter().enumerate() {
        match target[i] {
            Some(t) => by_loop[t].push(s),
            None => at_root.push(s),
        }
    }
    let root = build_scope(expr, chain, cand, nodes, &by_loop, &at_root, 0)?;
    Ok(ScheduleTree { root })
}

/// Number of loop nodes in a subtree (pre-order index arithmetic).
fn subtree_loops(expr: &TilingExpr) -> usize {
    match expr {
        TilingExpr::Loop { body, .. } => 1 + subtree_loops(body),
        TilingExpr::Seq(list) => list.iter().map(subtree_loops).sum(),
        TilingExpr::Unit => 0,
    }
}

#[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
fn build_scope(
    expr: &TilingExpr,
    chain: &ChainSpec,
    cand: &Candidate,
    nodes: &[LoopNode],
    by_loop: &[Vec<Stmt>],
    direct: &[Stmt],
    base: usize,
) -> Result<Scope, PlacementError> {
    // Children loops at this scope level (in expression order) with their
    // pre-order node indices (the same numbering `collect_loops` used).
    let mut items: Vec<ScheduleItem> = Vec::new();
    let mut child_exprs: Vec<(&TilingExpr, usize)> = Vec::new();
    collect_scope_children(expr, base, &mut child_exprs);

    for (sub, node_idx) in child_exprs {
        if let TilingExpr::Loop { body, .. } = sub {
            let inner = build_scope(
                body,
                chain,
                cand,
                nodes,
                by_loop,
                &by_loop[node_idx],
                node_idx + 1,
            )?;
            items.push(ScheduleItem::Loop {
                axis: nodes[node_idx].axis,
                trips: nodes[node_idx].trips,
                body: inner,
            });
        }
    }
    for &s in direct {
        items.push(ScheduleItem::Stmt(s));
    }
    order_scope(&mut items, chain)?;
    Ok(Scope { items })
}

/// Collect the top-level Loop subtrees of a scope along with their node
/// indices (pre-order, starting at `base`).
fn collect_scope_children<'e>(
    expr: &'e TilingExpr,
    base: usize,
    out: &mut Vec<(&'e TilingExpr, usize)>,
) {
    match expr {
        TilingExpr::Loop { .. } => {
            out.push((expr, base));
        }
        TilingExpr::Seq(list) => {
            let mut b = base;
            for it in list {
                collect_scope_children(it, b, out);
                b += subtree_loops(it);
            }
        }
        TilingExpr::Unit => {}
    }
}

/// Statements contained (transitively) in a schedule item.
fn contained_stmts(item: &ScheduleItem, out: &mut Vec<Stmt>) {
    match item {
        ScheduleItem::Stmt(s) => out.push(*s),
        ScheduleItem::Loop { body, .. } => {
            for it in &body.items {
                contained_stmts(it, out);
            }
        }
    }
}

/// Stable topological order of a scope's items under the chain's order
/// dependencies, lifted to items.
fn order_scope(items: &mut Vec<ScheduleItem>, chain: &ChainSpec) -> Result<(), PlacementError> {
    let deps = order_deps(chain);
    let n = items.len();
    let contained: Vec<Vec<Stmt>> = items
        .iter()
        .map(|it| {
            let mut v = Vec::new();
            contained_stmts(it, &mut v);
            v
        })
        .collect();
    // edge i -> j if some stmt in i must precede some stmt in j.
    let mut adj = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let edge = deps
                .iter()
                .any(|(a, b)| contained[i].contains(a) && contained[j].contains(b));
            if edge {
                adj[i].push(j);
                indeg[j] += 1;
            }
        }
    }
    // Kahn with original-index priority for stability.
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        ready.sort_unstable();
        let i = ready.remove(0);
        order.push(i);
        for &j in &adj[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                ready.push(j);
            }
        }
    }
    if order.len() != n {
        return Err(PlacementError::CyclicOrder);
    }
    let mut taken: Vec<Option<ScheduleItem>> = items.drain(..).map(Some).collect();
    for i in order {
        items.push(taken[i].take().unwrap());
    }
    Ok(())
}

/// Shared-memory tile instances the accumulator of compute block `op`
/// needs: >1 when a spatial loop of its output tensor is nested inside
/// its reduction loop (the Fig. 6(b) situation Rule 2 prunes).
pub fn accumulator_instances(chain: &ChainSpec, cand: &Candidate, op: usize) -> u64 {
    let expr = cand.live_block_expr(chain);
    let mut nodes = Vec::new();
    collect_loops(&expr, chain, cand, None, &mut nodes);
    let red_axis = crate::stmt::compute_reduction_axis(chain, op);
    let out_axes = tensor_axes(chain, compute_output(chain, op));
    let Some(red_idx) = nodes.iter().position(|n| n.axis == red_axis) else {
        return 1;
    };
    let mut inst = 1u64;
    for (i, n) in nodes.iter().enumerate() {
        if out_axes.contains(&n.axis) {
            // Is the reduction loop an ancestor of this spatial loop?
            if path_of(&nodes, i).contains(&red_idx) && i != red_idx {
                inst *= n.trips;
            }
        }
    }
    inst
}

/// The DAG view of Fig. 5: loop and statement nodes with scope-dependent
/// and order-dependent edges (for introspection, docs and tests).
#[derive(Debug, Clone, PartialEq)]
pub struct DagView {
    /// Live loop axes in nest order.
    pub loops: Vec<LoopId>,
    /// All statements.
    pub stmts: Vec<Stmt>,
    /// Scope-dependent edges: (loop axis, statement).
    pub scope_edges: Vec<(LoopId, Stmt)>,
    /// Order-dependent edges.
    pub order_edges: Vec<(Stmt, Stmt)>,
}

/// Build the DAG view of a candidate's live block expression.
pub fn dag_view(chain: &ChainSpec, cand: &Candidate) -> DagView {
    let expr = cand.live_block_expr(chain);
    let loops = expr.axes();
    let stmts = all_statements(chain);
    let mut scope_edges = Vec::new();
    for &s in &stmts {
        for &a in &related_axes(chain, s) {
            if loops.contains(&a) {
                scope_edges.push((a, s));
            }
        }
    }
    DagView {
        loops,
        stmts,
        scope_edges,
        order_edges: order_deps(chain),
    }
}

/// Pretty-print a schedule tree as pseudo-code (the Fig. 4 listings).
pub fn render_tree(tree: &ScheduleTree, chain: &ChainSpec) -> String {
    let mut out = String::new();
    render_scope(&tree.root, chain, 0, &mut out);
    out
}

fn render_scope(scope: &Scope, chain: &ChainSpec, indent: usize, out: &mut String) {
    for item in &scope.items {
        for _ in 0..indent {
            out.push_str("  ");
        }
        match item {
            ScheduleItem::Loop { axis, trips, body } => {
                out.push_str(&format!(
                    "for {} in range({}):\n",
                    chain.axis_name(axis.0),
                    trips
                ));
                render_scope(body, chain, indent + 1, out);
            }
            ScheduleItem::Stmt(s) => {
                out.push_str(&s.short_name(chain));
                out.push('\n');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::TilingExpr;

    fn chain() -> ChainSpec {
        ChainSpec::gemm_chain("g", 1, 1024, 1024, 512, 512)
    }

    fn cand(expr: &str, tiles: Vec<u64>) -> Candidate {
        Candidate::new(TilingExpr::parse(expr, &chain()).unwrap(), tiles)
    }

    /// The loops around `stmt`, root first.
    fn path(p: &Placement, stmt: Stmt) -> &[LoopId] {
        &p.paths.iter().find(|(s, _)| *s == stmt).unwrap().1
    }

    const K: LoopId = LoopId(1);
    const N: LoopId = LoopId(2);

    /// Place into the FULL expression (no rule-1 binding) to reproduce the
    /// paper's Fig. 4(a) layout for `mhnk`.
    #[test]
    fn fig4a_full_mhnk_placement() {
        let c = chain();
        let cd = cand("mhnk", vec![128, 64, 64, 128]);
        let p = place_into(&c, &cd, &cd.expr).unwrap();
        let txt = render_tree(&p.tree, &c);
        // LA, LB, CC inside k; LD, CE inside n; SE inside h after n.
        let lines: Vec<&str> = txt.lines().collect();
        let idx = |pat: &str| lines.iter().position(|l| l.trim() == pat).unwrap();
        let depth = |i: usize| lines[i].len() - lines[i].trim_start().len();
        assert_eq!(depth(idx("LA")), depth(idx("CC")));
        assert!(depth(idx("CC")) > depth(idx("CE")));
        assert!(depth(idx("CE")) > depth(idx("SE")));
        assert!(idx("SE") > idx("CE"));
    }

    /// Fig. 5(b): with k = 1 the k loop dies and LA hoists to the top.
    #[test]
    fn fig5b_dead_k_hoists_la() {
        let c = chain();
        // k tile = 512 covers K → k loop extent 1 → eliminated.
        let cd = cand("mhnk", vec![128, 512, 64, 128]);
        let la = Stmt::Load(crate::stmt::TensorRef::Input(0));
        let p = place_into(&c, &cd, &cd.expr.without_axes(&[])).unwrap();
        // With the full expr (k still present) LA is under k:
        assert!(path(&p, la).contains(&K), "{:?}", path(&p, la));
        // After dead-loop elimination (and Rule-1 binding) LA sits under
        // no loop at all: loaded once per block.
        let live = place_into(&c, &cd, &cd.live_block_expr(&c)).unwrap();
        assert_eq!(path(&live, la), []);
    }

    #[test]
    fn nk_subexpr_places_second_gemm_at_n() {
        let c = chain();
        let cd = cand("mhnk", vec![128, 64, 64, 128]);
        let p = place(&c, &cd).unwrap();
        let txt = render_tree(&p.tree, &c);
        // Per-block: for n { for k { LA LB CC } LD CE } SE.
        let expect_contains = ["for n", "for k", "LA", "LB", "CC", "LD", "CE", "SE"];
        for pat in expect_contains {
            assert!(txt.contains(pat), "missing {pat} in:\n{txt}");
        }
        // SE at root (store after all reduction loops).
        let lines: Vec<&str> = txt.lines().collect();
        let se = lines.iter().find(|l| l.trim() == "SE").unwrap();
        assert_eq!(se.len() - se.trim_start().len(), 0);
    }

    #[test]
    fn store_trips_is_one_per_block_after_rule1() {
        let c = chain();
        let cd = cand("mhnk", vec![128, 64, 64, 128]);
        let p = place(&c, &cd).unwrap();
        assert_eq!(path(&p, Stmt::Store), []);
    }

    #[test]
    fn lb_trips_count_both_loops() {
        let c = chain();
        let cd = cand("mhnk", vec![128, 64, 64, 128]);
        let p = place(&c, &cd).unwrap();
        // LB related {k,n}: inside both → trips = 16 (n) * 8 (k).
        let lb = Stmt::Load(crate::stmt::TensorRef::Input(1));
        assert_eq!(path(&p, lb), [N, K]);
        assert_eq!((cd.trips(&c, N), cd.trips(&c, K)), (16, 8));
    }

    #[test]
    fn accumulator_single_instance_for_nk() {
        let c = chain();
        let cd = cand("mhnk", vec![128, 64, 64, 128]);
        assert_eq!(accumulator_instances(&c, &cd, 0), 1);
        assert_eq!(accumulator_instances(&c, &cd, 1), 1);
    }

    #[test]
    fn accumulator_blows_up_for_kn() {
        // mhkn: per-block "kn" — C's spatial loop n inside reduction k.
        let c = chain();
        let cd = cand("mhkn", vec![128, 64, 64, 128]);
        assert_eq!(accumulator_instances(&c, &cd, 0), 16); // n trips
    }

    #[test]
    fn flat_expression_placement() {
        let c = chain();
        let cd = cand("mn(k,h)", vec![128, 64, 64, 128]);
        let p = place(&c, &cd).unwrap();
        let txt = render_tree(&p.tree, &c);
        // per-block n(k): for n { for k { LA LB CC } LD CE } SE
        assert!(txt.contains("for n"), "{txt}");
        assert!(txt.contains("for k"), "{txt}");
        // Flat candidates keep single-instance accumulators after Rule 1.
        assert_eq!(accumulator_instances(&c, &cd, 0), 1);
        assert_eq!(accumulator_instances(&c, &cd, 1), 1);
    }

    #[test]
    fn dag_view_edges() {
        let c = chain();
        let cd = cand("mhnk", vec![128, 64, 64, 128]);
        let v = dag_view(&c, &cd);
        assert_eq!(v.loops.len(), 2); // n, k live per block
        assert_eq!(v.order_edges.len(), 5);
        // LA scope-depends on k only (m,h are grid-bound).
        let la = Stmt::Load(crate::stmt::TensorRef::Input(0));
        let la_edges: Vec<_> = v.scope_edges.iter().filter(|(_, s)| *s == la).collect();
        assert_eq!(la_edges.len(), 1);
        assert_eq!(la_edges[0].0, LoopId(1));
    }

    #[test]
    fn three_op_chain_places() {
        let c3 = ChainSpec {
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
        // Deep expr over m,k,n,h,p — use identity order.
        let perm: Vec<LoopId> = (0..5).map(LoopId).collect();
        let cd = Candidate::new(TilingExpr::deep(&perm), vec![64, 64, 64, 64, 64]);
        let p = place(&c3, &cd).unwrap();
        let txt = render_tree(&p.tree, &c3);
        assert!(txt.contains("CC"));
        assert!(txt.contains("SG")); // output tensor letter for 3 ops
    }
}
