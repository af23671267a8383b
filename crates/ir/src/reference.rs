//! CPU reference execution of operator graphs — the numerical oracle.
//!
//! Every operator is implemented naively in f32, except that `Linear` and
//! non-transposed `BatchMatMul` run the simulator's one host GEMM kernel
//! ([`mcfuser_sim::gemm()`]), which the interpreter's fused kernels run too.
//! For that inner loop the kernel's own property test is the oracle, and
//! `ChainSpec::reference` keeps an independent loop for fused chains. The
//! end-to-end compiler's output is validated against this executor, which
//! is the reproduction's stand-in for "PyTorch eager mode produced the
//! same logits".

use rustc_hash::FxHashMap;

use mcfuser_sim::HostTensor;

use crate::graph::{Graph, GraphError, NodeId, Op};

/// Deterministically initialize a weight tensor from the graph name, node
/// name and a global seed (small values keep deep models numerically tame).
pub fn init_weight(graph: &Graph, node: NodeId, seed: u64) -> HostTensor {
    use rand::{Rng, SeedableRng};
    use std::hash::{Hash, Hasher};
    let n = graph.node(node);
    let mut h = rustc_hash::FxHasher::default();
    graph.name.hash(&mut h);
    n.name.hash(&mut h);
    seed.hash(&mut h);
    let mut rng = rand::rngs::StdRng::seed_from_u64(h.finish());
    let len = n.shape.iter().product::<u64>() as usize;
    let fan_in = *n.shape.first().unwrap_or(&1) as f32;
    let scale = (1.0 / fan_in.max(1.0)).sqrt();
    HostTensor::from_vec(
        &n.shape,
        (0..len).map(|_| rng.gen_range(-scale..scale)).collect(),
    )
}

/// Evaluate a graph. `inputs` maps every `Op::Input` node to its tensor;
/// weights are materialized from `seed`. Returns the value of every node.
pub fn evaluate(
    graph: &Graph,
    inputs: &FxHashMap<NodeId, HostTensor>,
    seed: u64,
) -> Result<Vec<HostTensor>, GraphError> {
    let mut values: Vec<Option<HostTensor>> = vec![None; graph.nodes.len()];
    for i in 0..graph.nodes.len() {
        let v = evaluate_node(graph, NodeId(i), &values, inputs, seed)?;
        values[i] = Some(v);
    }
    Ok(values.into_iter().map(Option::unwrap).collect())
}

/// Operand lookup used by [`evaluate_node_with`]: resolves a node id to
/// its already-computed value, wherever the caller keeps it (a plain
/// slot table, a borrowed request tensor, a shared weight cache entry).
pub type ValueLookup<'f, 'v> = &'f dyn Fn(NodeId) -> Option<&'v HostTensor>;

/// Evaluate a single node given the values of all earlier nodes (used by
/// the fused-execution path in `mcfuser-core`, which overrides chain
/// outputs with simulator results while evaluating everything else here).
pub fn evaluate_node(
    graph: &Graph,
    id: NodeId,
    values: &[Option<HostTensor>],
    inputs: &FxHashMap<NodeId, HostTensor>,
    seed: u64,
) -> Result<HostTensor, GraphError> {
    evaluate_node_with(graph, id, &|n| values[n.0].as_ref(), inputs, seed)
}

/// [`evaluate_node`] generalized over how operand values are stored: the
/// caller supplies a lookup closure instead of a dense `Option` slice.
/// `mcfuser-core`'s serving path keeps request inputs borrowed and
/// weights behind a shared cache; this entry point lets it evaluate
/// reference operators without first cloning every operand into an
/// owned table.
pub fn evaluate_node_with<'v>(
    graph: &Graph,
    id: NodeId,
    values: ValueLookup<'_, 'v>,
    inputs: &FxHashMap<NodeId, HostTensor>,
    seed: u64,
) -> Result<HostTensor, GraphError> {
    let node = graph.node(id);
    {
        let i = id.0;
        let _ = i;
        let v = match &node.op {
            Op::Input => inputs
                .get(&id)
                .cloned()
                .ok_or_else(|| GraphError::ShapeMismatch {
                    node: node.name.clone(),
                    detail: "missing input tensor".into(),
                })?,
            Op::Weight => init_weight(graph, id, seed),
            Op::Linear => eval_linear(graph, node, values)?,
            Op::BatchMatMul { transpose_b } => eval_bmm(graph, node, values, *transpose_b)?,
            Op::Softmax { scale } => {
                let x = value(values, node.inputs[0]);
                let cols = *x.shape.last().unwrap() as usize;
                let rows = x.len() / cols;
                let mut data = x.data.clone();
                crate::chain::apply_epilogue(
                    crate::chain::Epilogue::Softmax { scale: *scale },
                    &mut data,
                    rows,
                    cols,
                );
                HostTensor::from_vec(&x.shape, data)
            }
            Op::Add => {
                let a = value(values, node.inputs[0]);
                let b = value(values, node.inputs[1]);
                if a.shape != b.shape {
                    return Err(GraphError::ShapeMismatch {
                        node: node.name.clone(),
                        detail: format!("{:?} + {:?}", a.shape, b.shape),
                    });
                }
                HostTensor::from_vec(
                    &a.shape,
                    a.data.iter().zip(&b.data).map(|(x, y)| x + y).collect(),
                )
            }
            Op::Relu => {
                let x = value(values, node.inputs[0]);
                HostTensor::from_vec(&x.shape, x.data.iter().map(|v| v.max(0.0)).collect())
            }
            Op::Gelu => {
                let x = value(values, node.inputs[0]);
                let mut data = x.data.clone();
                mcfuser_sim::gelu_in_place(&mut data);
                HostTensor::from_vec(&x.shape, data)
            }
            Op::LayerNorm => {
                let x = value(values, node.inputs[0]);
                let affine = if node.inputs.len() > 2 {
                    Some((value(values, node.inputs[1]), value(values, node.inputs[2])))
                } else {
                    None
                };
                let cols = *x.shape.last().unwrap() as usize;
                let rows = x.len() / cols;
                let mut out = x.data.clone();
                for r in 0..rows {
                    let row = &mut out[r * cols..(r + 1) * cols];
                    let mean: f32 = row.iter().sum::<f32>() / cols as f32;
                    let var: f32 =
                        row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
                    let inv = 1.0 / (var + 1e-5).sqrt();
                    // Op order must match the stitched kernel's
                    // `NormalizeTile`: normalize, then `* gamma`, then
                    // `+ beta` — bit-identity depends on it.
                    for (c, v) in row.iter_mut().enumerate() {
                        let mut n = (*v - mean) * inv;
                        if let Some((g, b)) = affine {
                            n *= g.data[c];
                            n += b.data[c];
                        }
                        *v = n;
                    }
                }
                HostTensor::from_vec(&x.shape, out)
            }
            Op::Scale(f) => {
                let x = value(values, node.inputs[0]);
                HostTensor::from_vec(&x.shape, x.data.iter().map(|v| v * f).collect())
            }
            Op::Reshape => {
                let x = value(values, node.inputs[0]);
                HostTensor::from_vec(&node.shape, x.data.clone())
            }
            Op::SplitHeads { heads } => {
                let x = value(values, node.inputs[0]);
                let h = *heads as usize;
                let t = x.shape[0] as usize;
                let width = x.shape[1] as usize;
                let hd = width / h;
                let mut out = vec![0.0f32; t * width];
                for hi in 0..h {
                    for ti in 0..t {
                        let src = ti * width + hi * hd;
                        let dst = (hi * t + ti) * hd;
                        out[dst..dst + hd].copy_from_slice(&x.data[src..src + hd]);
                    }
                }
                HostTensor::from_vec(&node.shape, out)
            }
            Op::MergeHeads => {
                let x = value(values, node.inputs[0]);
                let h = x.shape[0] as usize;
                let t = x.shape[1] as usize;
                let hd = x.shape[2] as usize;
                let width = h * hd;
                let mut out = vec![0.0f32; t * width];
                for hi in 0..h {
                    for ti in 0..t {
                        let src = (hi * t + ti) * hd;
                        let dst = ti * width + hi * hd;
                        out[dst..dst + hd].copy_from_slice(&x.data[src..src + hd]);
                    }
                }
                HostTensor::from_vec(&node.shape, out)
            }
            Op::RepeatKv { repeat } => {
                let x = value(values, node.inputs[0]);
                let rep = *repeat as usize;
                let kv = x.shape[0] as usize;
                let panel = (x.shape[1] * x.shape[2]) as usize;
                let mut out = vec![0.0f32; kv * rep * panel];
                for h in 0..kv * rep {
                    let src = (h / rep) * panel;
                    out[h * panel..(h + 1) * panel].copy_from_slice(&x.data[src..src + panel]);
                }
                HostTensor::from_vec(&node.shape, out)
            }
        };
        Ok(v)
    }
}

fn value<'v>(values: ValueLookup<'_, 'v>, id: NodeId) -> &'v HostTensor {
    values(id).expect("topological order violated")
}

/// tanh-approximation GELU — delegates to the simulator's definition
/// (`mcfuser_sim::gelu`), which the interpreter's and the reference
/// lane's vectorized `mcfuser_sim::gelu_in_place` reproduce bit for bit.
pub fn gelu(x: f32) -> f32 {
    mcfuser_sim::gelu(x)
}

fn eval_linear(
    _graph: &Graph,
    node: &crate::graph::Node,
    values: ValueLookup<'_, '_>,
) -> Result<HostTensor, GraphError> {
    let x = value(values, node.inputs[0]);
    let w = value(values, node.inputs[1]);
    let k = *x.shape.last().unwrap() as usize;
    let m = x.len() / k;
    let n = w.shape[1] as usize;
    if w.shape[0] as usize != k {
        return Err(GraphError::ShapeMismatch {
            node: node.name.clone(),
            detail: format!("x cols {} vs w rows {}", k, w.shape[0]),
        });
    }
    let mut out = vec![0.0f32; m * n];
    mcfuser_sim::gemm(&x.data, &w.data, &mut out, m, n, k, n);
    if node.inputs.len() > 2 {
        let b = value(values, node.inputs[2]);
        for i in 0..m {
            for (o, &bv) in out[i * n..(i + 1) * n].iter_mut().zip(&b.data[..n]) {
                *o += bv;
            }
        }
    }
    Ok(HostTensor::from_vec(&node.shape, out))
}

fn eval_bmm(
    _graph: &Graph,
    node: &crate::graph::Node,
    values: ValueLookup<'_, '_>,
    transpose_b: bool,
) -> Result<HostTensor, GraphError> {
    let a = value(values, node.inputs[0]);
    let b = value(values, node.inputs[1]);
    let rank = a.shape.len();
    let m = a.shape[rank - 2] as usize;
    let k = a.shape[rank - 1] as usize;
    let batch: usize = a.shape[..rank - 2].iter().product::<u64>() as usize;
    let n = if transpose_b {
        b.shape[b.shape.len() - 2] as usize
    } else {
        b.shape[b.shape.len() - 1] as usize
    };
    let bk = if transpose_b {
        b.shape[b.shape.len() - 1] as usize
    } else {
        b.shape[b.shape.len() - 2] as usize
    };
    if bk != k {
        return Err(GraphError::ShapeMismatch {
            node: node.name.clone(),
            detail: format!("contraction dims {k} vs {bk}"),
        });
    }
    let mut out = vec![0.0f32; batch * m * n];
    for bb in 0..batch {
        let ap = &a.data[bb * m * k..(bb + 1) * m * k];
        let bp = &b.data[bb * k * n..(bb + 1) * k * n]; // same element count either layout
        let op = &mut out[bb * m * n..(bb + 1) * m * n];
        if !transpose_b {
            mcfuser_sim::gemm(ap, bp, op, m, n, k, n);
            continue;
        }
        // Sequential-k dot products (attention's `q·kᵀ`). Fused kernels
        // never transpose a GEMM operand: they stage `kᵀ` transposed into
        // its buffer and run the one kernel.
        for i in 0..m {
            let arow = &ap[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &bp[j * k..(j + 1) * k];
                op[i * n + j] = arow.iter().zip(brow).fold(0.0f32, |s, (x, y)| s + x * y);
            }
        }
    }
    Ok(HostTensor::from_vec(&node.shape, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use mcfuser_sim::DType;

    fn input_map(pairs: Vec<(NodeId, HostTensor)>) -> FxHashMap<NodeId, HostTensor> {
        pairs.into_iter().collect()
    }

    #[test]
    fn linear_with_bias() {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let x = gb.input("x", vec![2, 3]);
        let y = gb.linear("fc", x, 2, true);
        let g = gb.finish(vec![y]);
        let xs = HostTensor::from_vec(&[2, 3], vec![1., 0., 0., 0., 1., 0.]);
        let vals = evaluate(&g, &input_map(vec![(x, xs)]), 0).unwrap();
        // x selects rows of W, so out rows = W rows 0 and 1 (+ bias).
        let w = &vals[1]; // weight node comes right after x
        let b = &vals[2];
        let out = &vals[y.0];
        for j in 0..2 {
            assert!((out.data[j] - (w.data[j] + b.data[j])).abs() < 1e-6);
            assert!((out.data[2 + j] - (w.data[2 + j] + b.data[j])).abs() < 1e-6);
        }
    }

    #[test]
    fn bmm_transpose_matches_manual() {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let q = gb.input("q", vec![1, 2, 3]);
        let k = gb.input("k", vec![1, 2, 3]);
        let s = gb.batch_matmul("qk", q, k, true);
        let g = gb.finish(vec![s]);
        let qs = HostTensor::from_vec(&[1, 2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let ks = HostTensor::from_vec(&[1, 2, 3], vec![1., 0., 1., 0., 1., 0.]);
        let vals = evaluate(&g, &input_map(vec![(q, qs), (k, ks)]), 0).unwrap();
        // scores[0,0] = (1,2,3)·(1,0,1) = 4; [0,1] = (1,2,3)·(0,1,0) = 2
        assert_eq!(vals[s.0].data, vec![4., 2., 10., 5.]);
    }

    /// The `Linear` loop this lane ran before it called
    /// `mcfuser_sim::gemm`, bias included.
    fn former_linear(x: &[f32], w: &[f32], bias: &[f32], m: usize, n: usize) -> Vec<f32> {
        let k = x.len() / m;
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = x[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                let wrow = &w[kk * n..(kk + 1) * n];
                for (o, &wv) in out[i * n..(i + 1) * n].iter_mut().zip(wrow) {
                    *o += av * wv;
                }
            }
        }
        for i in 0..m {
            for (o, &bv) in out[i * n..(i + 1) * n].iter_mut().zip(bias) {
                *o += bv;
            }
        }
        out
    }

    /// The non-transposed `BatchMatMul` loop this lane ran before it
    /// called `mcfuser_sim::gemm`: every term, zero or not, j outside k.
    fn former_bmm(a: &[f32], b: &[f32], batch: usize, m: usize, n: usize) -> Vec<f32> {
        let k = a.len() / (batch * m);
        let mut out = vec![0.0f32; batch * m * n];
        for bb in 0..batch {
            let (ab, bbase, ob) = (bb * m * k, bb * k * n, bb * m * n);
            for i in 0..m {
                let arow = &a[ab + i * k..ab + (i + 1) * k];
                for j in 0..n {
                    let mut s = 0.0f32;
                    for (kk, &av) in arow.iter().enumerate() {
                        s += av * b[bbase + kk * n + j];
                    }
                    out[ob + i * n + j] = s;
                }
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// On finite inputs, zeros and −0.0 included, `Linear` and
    /// non-transposed `BatchMatMul` give the bits of the loops they
    /// replaced.
    #[test]
    fn linear_and_bmm_match_their_former_loops_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(27);
        let mut draw = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| match rng.gen_range(0..8) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0f32..2.0),
                })
                .collect()
        };
        for (batch, m, n, k) in [(1, 1, 1, 1), (2, 3, 17, 5), (4, 33, 1, 1), (3, 5, 70, 9)] {
            let (m, n, k) = (m as u64, n as u64, k as u64);
            let mut gb = GraphBuilder::new("t", DType::F32);
            let x = gb.input("x", vec![m, k]);
            let w = gb.input("w", vec![k, n]);
            let bias = gb.input("bias", vec![n]);
            let a = gb.input("a", vec![batch, m, k]);
            let b = gb.input("b", vec![batch, k, n]);
            let fc = gb.linear_shared("fc", x, w, Some(bias));
            let mm = gb.batch_matmul("mm", a, b, false);
            let g = gb.finish(vec![fc, mm]);
            let values: Vec<(NodeId, HostTensor)> = [x, w, bias, a, b]
                .into_iter()
                .map(|id| {
                    let shape = g.node(id).shape.clone();
                    let len = shape.iter().product::<u64>() as usize;
                    (id, HostTensor::from_vec(&shape, draw(len)))
                })
                .collect();
            let data = |id: NodeId| &values.iter().find(|(v, _)| *v == id).unwrap().1.data;
            let (m, n, batch) = (m as usize, n as usize, batch as usize);
            let want_fc = former_linear(data(x), data(w), data(bias), m, n);
            let want_mm = former_bmm(data(a), data(b), batch, m, n);
            let vals = evaluate(&g, &input_map(values.clone()), 0).unwrap();
            assert_eq!(bits(&vals[fc.0].data), bits(&want_fc), "Linear {m}x{n}");
            assert_eq!(
                bits(&vals[mm.0].data),
                bits(&want_mm),
                "BatchMatMul {m}x{n}"
            );
        }
    }

    /// A one-hot KV scatter writes only its own row: zero `a` terms
    /// (either sign) are skipped, so an infinite `b` never turns the
    /// other rows into NaN.
    #[test]
    fn bmm_zero_a_times_infinite_b_adds_nothing() {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let onehot = gb.input("onehot", vec![1, 3, 1]);
        let row = gb.input("row", vec![1, 1, 2]);
        let s = gb.batch_matmul("scatter", onehot, row, false);
        let g = gb.finish(vec![s]);
        let a = HostTensor::from_vec(&[1, 3, 1], vec![0.0, 1.0, -0.0]);
        let b = HostTensor::from_vec(&[1, 1, 2], vec![f32::INFINITY, 2.0]);
        let vals = evaluate(&g, &input_map(vec![(onehot, a), (row, b)]), 0).unwrap();
        let want = [0.0, 0.0, f32::INFINITY, 2.0, 0.0, 0.0];
        assert_eq!(bits(&vals[s.0].data), bits(&want));
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let x = gb.input("x", vec![1, 8]);
        let y = gb.layer_norm("ln", x);
        let g = gb.finish(vec![y]);
        let xs = HostTensor::from_vec(&[1, 8], (0..8).map(|i| i as f32).collect());
        let vals = evaluate(&g, &input_map(vec![(x, xs)]), 0).unwrap();
        let out = &vals[y.0].data;
        let mean: f32 = out.iter().sum::<f32>() / 8.0;
        let var: f32 = out.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn softmax_node_normalizes() {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let x = gb.input("x", vec![2, 4]);
        let y = gb.softmax("sm", x, 1.0);
        let g = gb.finish(vec![y]);
        let xs = HostTensor::from_vec(&[2, 4], vec![1., 2., 3., 4., -1., -2., -3., -4.]);
        let vals = evaluate(&g, &input_map(vec![(x, xs)]), 0).unwrap();
        for r in 0..2 {
            let s: f32 = vals[y.0].data[r * 4..(r + 1) * 4].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let x = gb.input("x", vec![2, 3]);
        let y = gb.linear("fc", x, 2, false);
        let g = gb.finish(vec![y]);
        let w1 = init_weight(&g, NodeId(1), 42);
        let w2 = init_weight(&g, NodeId(1), 42);
        let w3 = init_weight(&g, NodeId(1), 43);
        assert_eq!(w1.data, w2.data);
        assert_ne!(w1.data, w3.data);
    }

    #[test]
    fn gelu_known_values() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8411).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn missing_input_is_error() {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let x = gb.input("x", vec![2, 3]);
        let g = gb.finish(vec![x]);
        let res = evaluate(&g, &FxHashMap::default(), 0);
        assert!(res.is_err());
    }
}
