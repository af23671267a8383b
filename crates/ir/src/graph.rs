//! Operator-graph IR — the Relay-analogue front end.
//!
//! End-to-end models (BERT, ViT, MLP-Mixer) are expressed as DAGs of
//! high-level operators. The MCFuser compiler pipeline partitions these
//! graphs into MBCI sub-graphs (handed to the fusion tuner) and "the rest"
//! (handed to a Relay- or Ansor-style per-operator backend), mirroring
//! §V-B of the paper.

use mcfuser_sim::DType;

/// Node identifier within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// High-level operator kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Activation input (fed by the caller).
    Input,
    /// Learned parameter (materialized from a seed).
    Weight,
    /// `y = x · W (+ bias)`; inputs: `[x, W]` or `[x, W, b]`.
    Linear,
    /// Batched matmul; inputs `[a, b]`, optionally with `b` transposed
    /// (used for `Q Kᵀ`).
    BatchMatMul {
        /// Interpret the second operand as transposed.
        transpose_b: bool,
    },
    /// Row-wise softmax over the last dim, with pre-scale.
    Softmax {
        /// Pre-softmax multiplier.
        scale: f32,
    },
    /// Element-wise addition of two same-shaped tensors.
    Add,
    /// Element-wise ReLU.
    Relu,
    /// Element-wise GELU (tanh approximation).
    Gelu,
    /// Layer normalization over the last dim. Inputs are `[x]` (plain) or
    /// `[x, gamma, beta]` (affine, with rank-1 `[d]` scale/shift weights).
    LayerNorm,
    /// Multiply by a constant.
    Scale(f32),
    /// Pure metadata reshape (e.g. merging/splitting attention heads).
    Reshape,
    /// Split a `[t, heads·hd]` activation into per-head panels
    /// `[heads, t, hd]`. Unlike [`Op::Reshape`] this is a real permute
    /// (data movement), so per-head rows are contiguous — the layout a
    /// KV cache stores and a decode-step attention chain reads. For
    /// `t == 1` the permute degenerates to an element-order-preserving
    /// copy, which is what keeps single-token decode steps bit-aligned
    /// with multi-token prefill passes.
    SplitHeads {
        /// Number of attention heads.
        heads: u64,
    },
    /// Inverse of [`Op::SplitHeads`]: `[heads, t, hd]` → `[t, heads·hd]`.
    MergeHeads,
    /// Grouped-query replication: `[kv_heads, t, hd]` →
    /// `[kv_heads·repeat, t, hd]`, output head `h` reading KV head
    /// `h / repeat`. Lets a GQA decoder store `kv_heads`-wide caches
    /// while the score GEMV runs over the full query-head batch.
    RepeatKv {
        /// Query heads per KV head.
        repeat: u64,
    },
}

impl Op {
    /// Memory-intensive operators in the paper's taxonomy (candidates for
    /// classic epilogue fusion, never fusion boundaries themselves).
    pub fn is_memory_intensive(&self) -> bool {
        matches!(
            self,
            Op::Softmax { .. }
                | Op::Add
                | Op::Relu
                | Op::Gelu
                | Op::LayerNorm
                | Op::Scale(_)
                | Op::Reshape
                | Op::SplitHeads { .. }
                | Op::MergeHeads
                | Op::RepeatKv { .. }
        )
    }

    /// Compute-intensive operators (GEMM family).
    pub fn is_compute_intensive(&self) -> bool {
        matches!(self, Op::Linear | Op::BatchMatMul { .. })
    }

    /// True element-wise / normalization glue — the memory-intensive ops
    /// that actually move activation bytes when left unfused. `Reshape` is
    /// excluded: it is pure metadata, not a round trip.
    pub fn is_elementwise(&self) -> bool {
        matches!(
            self,
            Op::Softmax { .. } | Op::Add | Op::Relu | Op::Gelu | Op::LayerNorm | Op::Scale(_)
        )
    }
}

/// A graph node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Display name.
    pub name: String,
    /// Operator kind.
    pub op: Op,
    /// Producer nodes.
    pub inputs: Vec<NodeId>,
    /// Output shape (row-major).
    pub shape: Vec<u64>,
}

/// A dataflow graph in topological order (builders only append).
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// Model name.
    pub name: String,
    /// Nodes in topological order.
    pub nodes: Vec<Node>,
    /// Graph outputs.
    pub outputs: Vec<NodeId>,
    /// Storage precision of activations/weights.
    pub dtype: DType,
}

/// Graph construction error.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    UnknownNode(NodeId),
    ShapeMismatch { node: String, detail: String },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownNode(n) => write!(f, "unknown node {:?}", n),
            GraphError::ShapeMismatch { node, detail } => {
                write!(f, "shape mismatch at {node}: {detail}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl Graph {
    /// Look up a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Consumers of each node (computed on demand).
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for &inp in &n.inputs {
                out[inp.0].push(NodeId(i));
            }
        }
        out
    }

    /// The graph's activation inputs (`Op::Input` nodes) in declaration
    /// order, as `(name, id)` pairs — the binding table a serving plan
    /// freezes so callers can feed tensors by name instead of by raw
    /// [`NodeId`].
    pub fn input_bindings(&self) -> Vec<(String, NodeId)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Input))
            .map(|(i, n)| (n.name.clone(), NodeId(i)))
            .collect()
    }

    /// Look up an activation input by its declared name.
    pub fn input_named(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| matches!(n.op, Op::Input) && n.name == name)
            .map(NodeId)
    }

    /// The declared graph outputs with their names and shapes, in
    /// declaration order.
    pub fn output_shapes(&self) -> Vec<(String, NodeId, Vec<u64>)> {
        self.outputs
            .iter()
            .map(|&id| {
                let n = self.node(id);
                (n.name.clone(), id, n.shape.clone())
            })
            .collect()
    }

    /// Total matmul FLOPs of the graph (for workload characterization,
    /// e.g. the paper's "attention is 14 % of FLOPs" analysis).
    pub fn total_flops(&self) -> f64 {
        let mut total = 0.0;
        for n in &self.nodes {
            match &n.op {
                Op::Linear => {
                    let x = self.node(n.inputs[0]);
                    let k = *x.shape.last().unwrap();
                    let m: u64 = x.shape.iter().rev().skip(1).product();
                    let nn = *n.shape.last().unwrap();
                    total += 2.0 * (m * k * nn) as f64;
                }
                Op::BatchMatMul { .. } => {
                    let a = self.node(n.inputs[0]);
                    let k = *a.shape.last().unwrap();
                    let out_elems: u64 = n.shape.iter().product();
                    total += 2.0 * out_elems as f64 * k as f64;
                }
                _ => {}
            }
        }
        total
    }
}

/// Incremental graph builder with shape inference.
#[derive(Debug)]
pub struct GraphBuilder {
    graph: Graph,
}

impl GraphBuilder {
    /// Start an empty graph.
    pub fn new(name: impl Into<String>, dtype: DType) -> Self {
        GraphBuilder {
            graph: Graph {
                name: name.into(),
                nodes: Vec::new(),
                outputs: Vec::new(),
                dtype,
            },
        }
    }

    fn push(&mut self, name: String, op: Op, inputs: Vec<NodeId>, shape: Vec<u64>) -> NodeId {
        self.graph.nodes.push(Node {
            name,
            op,
            inputs,
            shape,
        });
        NodeId(self.graph.nodes.len() - 1)
    }

    /// Add an activation input.
    pub fn input(&mut self, name: impl Into<String>, shape: Vec<u64>) -> NodeId {
        self.push(name.into(), Op::Input, vec![], shape)
    }

    /// Add a learned weight tensor.
    pub fn weight(&mut self, name: impl Into<String>, shape: Vec<u64>) -> NodeId {
        self.push(name.into(), Op::Weight, vec![], shape)
    }

    /// Dense layer: `x · W (+ b)`; creates the weight (and bias) nodes.
    pub fn linear(&mut self, name: &str, x: NodeId, out_features: u64, bias: bool) -> NodeId {
        let in_features = *self.graph.node(x).shape.last().unwrap();
        let w = self.weight(format!("{name}.w"), vec![in_features, out_features]);
        let mut inputs = vec![x, w];
        if bias {
            let b = self.weight(format!("{name}.b"), vec![out_features]);
            inputs.push(b);
        }
        let mut shape = self.graph.node(x).shape.clone();
        *shape.last_mut().unwrap() = out_features;
        self.push(name.to_string(), Op::Linear, inputs, shape)
    }

    /// Dense layer reusing existing weight (and bias) nodes — for
    /// weight sharing between towers/layers. `w` must be `[in, out]`;
    /// `bias`, when given, `[out]`.
    pub fn linear_shared(
        &mut self,
        name: &str,
        x: NodeId,
        w: NodeId,
        bias: Option<NodeId>,
    ) -> NodeId {
        let out_features = self.graph.node(w).shape[1];
        let mut inputs = vec![x, w];
        inputs.extend(bias);
        let mut shape = self.graph.node(x).shape.clone();
        *shape.last_mut().unwrap() = out_features;
        self.push(name.to_string(), Op::Linear, inputs, shape)
    }

    /// Batched matmul `a × b` (or `a × bᵀ`).
    pub fn batch_matmul(&mut self, name: &str, a: NodeId, b: NodeId, transpose_b: bool) -> NodeId {
        let sa = self.graph.node(a).shape.clone();
        let sb = self.graph.node(b).shape.clone();
        let n = if transpose_b {
            sb[sb.len() - 2]
        } else {
            sb[sb.len() - 1]
        };
        let mut shape = sa.clone();
        *shape.last_mut().unwrap() = n;
        self.push(
            name.to_string(),
            Op::BatchMatMul { transpose_b },
            vec![a, b],
            shape,
        )
    }

    /// Softmax over the last dim.
    pub fn softmax(&mut self, name: &str, x: NodeId, scale: f32) -> NodeId {
        let shape = self.graph.node(x).shape.clone();
        self.push(name.to_string(), Op::Softmax { scale }, vec![x], shape)
    }

    /// Element-wise add.
    pub fn add(&mut self, name: &str, a: NodeId, b: NodeId) -> NodeId {
        let shape = self.graph.node(a).shape.clone();
        self.push(name.to_string(), Op::Add, vec![a, b], shape)
    }

    /// ReLU.
    pub fn relu(&mut self, name: &str, x: NodeId) -> NodeId {
        let shape = self.graph.node(x).shape.clone();
        self.push(name.to_string(), Op::Relu, vec![x], shape)
    }

    /// GELU.
    pub fn gelu(&mut self, name: &str, x: NodeId) -> NodeId {
        let shape = self.graph.node(x).shape.clone();
        self.push(name.to_string(), Op::Gelu, vec![x], shape)
    }

    /// Multiply by a constant.
    pub fn scale(&mut self, name: &str, x: NodeId, factor: f32) -> NodeId {
        let shape = self.graph.node(x).shape.clone();
        self.push(name.to_string(), Op::Scale(factor), vec![x], shape)
    }

    /// LayerNorm over the last dim.
    pub fn layer_norm(&mut self, name: &str, x: NodeId) -> NodeId {
        let shape = self.graph.node(x).shape.clone();
        self.push(name.to_string(), Op::LayerNorm, vec![x], shape)
    }

    /// Affine LayerNorm over the last dim; creates rank-1 `gamma`/`beta`
    /// weight nodes of the normalized width.
    pub fn layer_norm_affine(&mut self, name: &str, x: NodeId) -> NodeId {
        let shape = self.graph.node(x).shape.clone();
        let d = *shape.last().unwrap();
        let g = self.weight(format!("{name}.g"), vec![d]);
        let b = self.weight(format!("{name}.b"), vec![d]);
        self.push(name.to_string(), Op::LayerNorm, vec![x, g, b], shape)
    }

    /// Metadata reshape.
    pub fn reshape(&mut self, name: &str, x: NodeId, shape: Vec<u64>) -> NodeId {
        let in_elems: u64 = self.graph.node(x).shape.iter().product();
        let out_elems: u64 = shape.iter().product();
        assert_eq!(in_elems, out_elems, "reshape must preserve element count");
        self.push(name.to_string(), Op::Reshape, vec![x], shape)
    }

    /// Head-split permute: `[t, heads·hd]` → `[heads, t, hd]`.
    pub fn split_heads(&mut self, name: &str, x: NodeId, heads: u64) -> NodeId {
        let shape = self.graph.node(x).shape.clone();
        assert_eq!(shape.len(), 2, "split_heads expects a rank-2 input");
        let (t, h) = (shape[0], shape[1]);
        assert_eq!(h % heads, 0, "hidden width must divide by heads");
        self.push(
            name.to_string(),
            Op::SplitHeads { heads },
            vec![x],
            vec![heads, t, h / heads],
        )
    }

    /// Head-merge permute: `[heads, t, hd]` → `[t, heads·hd]`.
    pub fn merge_heads(&mut self, name: &str, x: NodeId) -> NodeId {
        let shape = self.graph.node(x).shape.clone();
        assert_eq!(shape.len(), 3, "merge_heads expects a rank-3 input");
        let (heads, t, hd) = (shape[0], shape[1], shape[2]);
        self.push(
            name.to_string(),
            Op::MergeHeads,
            vec![x],
            vec![t, heads * hd],
        )
    }

    /// Grouped-query replication: `[kv, t, hd]` → `[kv·repeat, t, hd]`.
    pub fn repeat_kv(&mut self, name: &str, x: NodeId, repeat: u64) -> NodeId {
        let shape = self.graph.node(x).shape.clone();
        assert_eq!(shape.len(), 3, "repeat_kv expects a rank-3 input");
        let (kv, t, hd) = (shape[0], shape[1], shape[2]);
        self.push(
            name.to_string(),
            Op::RepeatKv { repeat },
            vec![x],
            vec![kv * repeat, t, hd],
        )
    }

    /// Finish, declaring graph outputs.
    pub fn finish(mut self, outputs: Vec<NodeId>) -> Graph {
        self.graph.outputs = outputs;
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_infers_shapes() {
        let mut b = GraphBuilder::new("t", DType::F16);
        let x = b.input("x", vec![1, 128, 64]);
        let y = b.linear("fc", x, 256, true);
        let g = b.finish(vec![y]);
        assert_eq!(g.node(y).shape, vec![1, 128, 256]);
        // Linear created weight + bias nodes.
        assert_eq!(g.nodes.iter().filter(|n| n.op == Op::Weight).count(), 2);
    }

    #[test]
    fn batch_matmul_transpose_shapes() {
        let mut b = GraphBuilder::new("t", DType::F16);
        let q = b.input("q", vec![8, 128, 64]);
        let k = b.input("k", vec![8, 128, 64]);
        let s = b.batch_matmul("qk", q, k, true);
        let g = b.finish(vec![s]);
        assert_eq!(g.node(s).shape, vec![8, 128, 128]);
    }

    #[test]
    fn consumers_computed() {
        let mut b = GraphBuilder::new("t", DType::F16);
        let x = b.input("x", vec![4, 4]);
        let r = b.relu("r", x);
        let s = b.gelu("s", x);
        let g = b.finish(vec![r, s]);
        let cons = g.consumers();
        assert_eq!(cons[x.0], vec![r, s]);
    }

    #[test]
    fn flops_counts_linear_and_bmm() {
        let mut b = GraphBuilder::new("t", DType::F16);
        let x = b.input("x", vec![1, 16, 8]);
        let y = b.linear("fc", x, 4, false); // 2*16*8*4 = 1024
        let q = b.input("q", vec![2, 8, 4]);
        let k = b.input("k", vec![2, 8, 4]);
        let s = b.batch_matmul("qk", q, k, true); // 2*2*8*8*4 = 1024
        let g = b.finish(vec![y, s]);
        assert_eq!(g.total_flops(), 2048.0);
    }

    #[test]
    fn op_taxonomy() {
        assert!(Op::Linear.is_compute_intensive());
        assert!(Op::BatchMatMul { transpose_b: false }.is_compute_intensive());
        assert!(Op::Softmax { scale: 1.0 }.is_memory_intensive());
        assert!(Op::LayerNorm.is_memory_intensive());
        assert!(!Op::Input.is_compute_intensive());
        assert!(!Op::Input.is_memory_intensive());
    }

    #[test]
    fn named_inputs_and_output_shapes() {
        let mut b = GraphBuilder::new("t", DType::F16);
        let q = b.input("q", vec![2, 8, 4]);
        let k = b.input("k", vec![2, 8, 4]);
        let s = b.batch_matmul("qk", q, k, true);
        let g = b.finish(vec![s]);
        assert_eq!(
            g.input_bindings(),
            vec![("q".to_string(), q), ("k".to_string(), k)]
        );
        assert_eq!(g.input_named("k"), Some(k));
        assert_eq!(g.input_named("qk"), None, "qk is not an Op::Input");
        assert_eq!(g.input_named("missing"), None);
        assert_eq!(
            g.output_shapes(),
            vec![("qk".to_string(), s, vec![2, 8, 8])]
        );
    }

    #[test]
    #[should_panic(expected = "reshape must preserve element count")]
    fn reshape_checks_elements() {
        let mut b = GraphBuilder::new("t", DType::F16);
        let x = b.input("x", vec![4, 4]);
        b.reshape("r", x, vec![5, 5]);
    }
}
