//! Gradient-boosted regression trees — the XGBoost stand-in behind the
//! Ansor baseline's learned cost model.
//!
//! Squared-loss boosting over depth-limited regression trees with greedy
//! exact splits. Small and dependency-free, but a genuine learned model:
//! Ansor's tuning loop trains it on measured samples each round and pays
//! the training time on the virtual clock (Table IV's "ML Cost Model"
//! overhead).

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct GbtParams {
    /// Number of boosting rounds (trees).
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage per tree.
    pub learning_rate: f64,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Candidate thresholds examined per feature (quantile subsampling).
    pub max_thresholds: usize,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            n_trees: 30,
            max_depth: 3,
            learning_rate: 0.3,
            min_samples_leaf: 4,
            max_thresholds: 16,
        }
    }
}

/// A node of a regression tree.
#[derive(Debug, Clone)]
enum TreeNode {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// One regression tree (nodes in a flat arena).
#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<TreeNode>,
}

impl Tree {
    fn predict(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                TreeNode::Leaf(v) => return *v,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// A fitted gradient-boosted model.
#[derive(Debug, Clone)]
pub struct GbtModel {
    base: f64,
    trees: Vec<Tree>,
    lr: f64,
    /// Number of features expected.
    pub n_features: usize,
}

impl GbtModel {
    /// Fit on rows `x` with targets `y`.
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: &GbtParams) -> GbtModel {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "need training data");
        let n_features = x[0].len();
        let base = y.iter().sum::<f64>() / y.len() as f64;
        let mut pred = vec![base; y.len()];
        let mut trees = Vec::with_capacity(params.n_trees);
        for _ in 0..params.n_trees {
            let residuals: Vec<f64> = y.iter().zip(&pred).map(|(yy, pp)| yy - pp).collect();
            let mut tree = Tree { nodes: Vec::new() };
            let idx: Vec<usize> = (0..x.len()).collect();
            build_node(&mut tree, x, &residuals, &idx, params.max_depth, params);
            for (i, row) in x.iter().enumerate() {
                pred[i] += params.learning_rate * tree.predict(row);
            }
            trees.push(tree);
        }
        GbtModel {
            base,
            trees,
            lr: params.learning_rate,
            n_features,
        }
    }

    /// Predict one row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        self.base + self.lr * self.trees.iter().map(|t| t.predict(row)).sum::<f64>()
    }

    /// Mean-squared error on a dataset.
    pub fn mse(&self, x: &[Vec<f64>], y: &[f64]) -> f64 {
        let n = x.len().max(1) as f64;
        x.iter()
            .zip(y)
            .map(|(row, yy)| {
                let d = self.predict(row) - yy;
                d * d
            })
            .sum::<f64>()
            / n
    }
}

/// Recursively grow a node over sample indices; returns node index.
fn build_node(
    tree: &mut Tree,
    x: &[Vec<f64>],
    r: &[f64],
    idx: &[usize],
    depth: usize,
    params: &GbtParams,
) -> usize {
    let mean = idx.iter().map(|&i| r[i]).sum::<f64>() / idx.len().max(1) as f64;
    if depth == 0 || idx.len() < 2 * params.min_samples_leaf {
        tree.nodes.push(TreeNode::Leaf(mean));
        return tree.nodes.len() - 1;
    }
    // Greedy best split.
    let n_features = x[0].len();
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
    let base_sse: f64 = idx.iter().map(|&i| (r[i] - mean) * (r[i] - mean)).sum();
    #[allow(clippy::needless_range_loop)]
    for f in 0..n_features {
        let mut vals: Vec<f64> = idx.iter().map(|&i| x[i][f]).collect();
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        let step = (vals.len() / params.max_thresholds).max(1);
        for w in vals.windows(2).step_by(step) {
            let thr = 0.5 * (w[0] + w[1]);
            let (mut ls, mut lc, mut rs, mut rc) = (0.0f64, 0usize, 0.0f64, 0usize);
            for &i in idx {
                if x[i][f] <= thr {
                    ls += r[i];
                    lc += 1;
                } else {
                    rs += r[i];
                    rc += 1;
                }
            }
            if lc < params.min_samples_leaf || rc < params.min_samples_leaf {
                continue;
            }
            // SSE reduction via the identity Σ(r-μ)² = Σr² - n·μ².
            let sq: f64 = idx.iter().map(|&i| r[i] * r[i]).sum();
            let sse = sq - ls * ls / lc as f64 - rs * rs / rc as f64;
            if best.map(|(_, _, b)| sse < b).unwrap_or(sse < base_sse) {
                best = Some((f, thr, sse));
            }
        }
    }
    let Some((f, thr, _)) = best else {
        tree.nodes.push(TreeNode::Leaf(mean));
        return tree.nodes.len() - 1;
    };
    let (li, ri): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| x[i][f] <= thr);
    // Reserve the split slot, then build children.
    tree.nodes.push(TreeNode::Leaf(0.0));
    let me = tree.nodes.len() - 1;
    let l = build_node(tree, x, r, &li, depth - 1, params);
    let rn = build_node(tree, x, r, &ri, depth - 1, params);
    tree.nodes[me] = TreeNode::Split {
        feature: f,
        threshold: thr,
        left: l,
        right: rn,
    };
    me
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn synth(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        // Non-linear target with interactions.
        let y: Vec<f64> = x
            .iter()
            .map(|r| r[0] * 2.0 + if r[1] > 0.0 { 1.5 } else { -0.5 } + r[2] * r[3])
            .collect();
        (x, y)
    }

    #[test]
    fn fits_nonlinear_function() {
        let (x, y) = synth(400, 1);
        let model = GbtModel::fit(&x, &y, &GbtParams::default());
        let mse = model.mse(&x, &y);
        let var = {
            let m = y.iter().sum::<f64>() / y.len() as f64;
            y.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / y.len() as f64
        };
        assert!(mse < 0.3 * var, "mse {mse} vs var {var}");
    }

    #[test]
    fn generalizes_to_held_out_data() {
        let (xtr, ytr) = synth(500, 2);
        let (xte, yte) = synth(200, 3);
        let model = GbtModel::fit(&xtr, &ytr, &GbtParams::default());
        let mse = model.mse(&xte, &yte);
        let var = {
            let m = yte.iter().sum::<f64>() / yte.len() as f64;
            yte.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / yte.len() as f64
        };
        assert!(mse < 0.6 * var, "mse {mse} vs var {var}");
    }

    #[test]
    fn constant_target_learns_constant() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y = vec![3.5; 50];
        let model = GbtModel::fit(&x, &y, &GbtParams::default());
        assert!((model.predict(&[7.0]) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn more_trees_do_not_hurt_training_fit() {
        let (x, y) = synth(300, 4);
        let small = GbtModel::fit(
            &x,
            &y,
            &GbtParams {
                n_trees: 5,
                ..Default::default()
            },
        );
        let big = GbtModel::fit(
            &x,
            &y,
            &GbtParams {
                n_trees: 60,
                ..Default::default()
            },
        );
        assert!(big.mse(&x, &y) <= small.mse(&x, &y) + 1e-9);
    }

    #[test]
    fn single_sample_is_a_leaf() {
        let model = GbtModel::fit(&[vec![1.0]], &[2.0], &GbtParams::default());
        assert!((model.predict(&[1.0]) - 2.0).abs() < 1e-9);
    }
}
