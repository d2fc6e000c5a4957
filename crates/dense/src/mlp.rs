//! A multi-layer perceptron with manual backpropagation.
//!
//! Used as the trainable dense head of the GNN examples and as the
//! building block of the DLRM stack. Embedding inputs are treated
//! as constants (the paper's pre-trained, read-only tables), so gradients
//! stop at the first layer's inputs.

use crate::matrix::{sigmoid, Matrix};

/// One fully connected layer: `y = relu(x·W + b)` (ReLU skipped on the
/// output layer).
#[derive(Debug, Clone, PartialEq)]
struct Linear {
    w: Matrix,
    b: Vec<f32>,
}

/// Per-layer forward state kept for the backward pass.
struct LayerState {
    input: Matrix,
    mask: Option<Vec<bool>>,
}

/// A ReLU MLP ending in a linear layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths (`dims[0]` = input,
    /// last = output), deterministically initialized from `seed`.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two dims.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "an MLP needs input and output widths");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear {
                w: Matrix::xavier(w[0], w[1], emb_util::split_seed(seed, i as u64)),
                b: vec![0.0; w[1]],
            })
            .collect();
        Mlp { layers }
    }

    /// Forward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_states(x).0
    }

    fn forward_states(&self, x: &Matrix) -> (Matrix, Vec<LayerState>) {
        let mut states = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        let n = self.layers.len();
        for (i, l) in self.layers.iter().enumerate() {
            let input = cur.clone();
            let mut z = cur.matmul(&l.w);
            z.add_bias(&l.b);
            let mask = if i + 1 < n {
                Some(z.relu_inplace())
            } else {
                None
            };
            states.push(LayerState { input, mask });
            cur = z;
        }
        (cur, states)
    }

    /// One SGD step on binary cross-entropy with logits. `x` is
    /// `batch × in_dim`, `targets` are 0/1 labels (one output unit).
    /// Returns the mean loss *before* the step.
    ///
    /// # Panics
    ///
    /// Panics if the output width is not 1 or shapes disagree.
    pub fn train_bce(&mut self, x: &Matrix, targets: &[f32], lr: f32) -> f32 {
        let (logits, states) = self.forward_states(x);
        assert_eq!(logits.cols, 1, "BCE expects a single output unit");
        assert_eq!(logits.rows, targets.len(), "batch/label mismatch");
        let n = logits.rows as f32;
        // Loss and dL/dlogit = (σ(z) − y) / n.
        let mut loss = 0.0f32;
        let mut grad = Matrix::zeros(logits.rows, 1);
        for r in 0..logits.rows {
            let z = logits.at(r, 0);
            let p = sigmoid(z);
            let y = targets[r];
            // Stable BCE-with-logits.
            loss += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
            *grad.at_mut(r, 0) = (p - y) / n;
        }
        self.backward(grad, states, lr);
        loss / n
    }

    /// One SGD step on mean-squared error (any output width). Returns the
    /// mean loss before the step.
    pub fn train_mse(&mut self, x: &Matrix, targets: &Matrix, lr: f32) -> f32 {
        let (out, states) = self.forward_states(x);
        assert_eq!(
            (out.rows, out.cols),
            (targets.rows, targets.cols),
            "target shape mismatch"
        );
        let n = (out.rows * out.cols) as f32;
        let mut loss = 0.0f32;
        let mut grad = Matrix::zeros(out.rows, out.cols);
        for i in 0..out.data.len() {
            let d = out.data[i] - targets.data[i];
            loss += d * d;
            grad.data[i] = 2.0 * d / n;
        }
        self.backward(grad, states, lr);
        loss / n
    }

    /// Backpropagates `grad` (dL/doutput) and applies SGD in place.
    fn backward(&mut self, mut grad: Matrix, states: Vec<LayerState>, lr: f32) {
        for (l, st) in self.layers.iter_mut().zip(states).rev() {
            if let Some(mask) = &st.mask {
                for (g, &on) in grad.data.iter_mut().zip(mask) {
                    if !on {
                        *g = 0.0;
                    }
                }
            }
            // dW = xᵀ · grad ; db = Σ_rows grad ; dx = grad · Wᵀ.
            let dw = st.input.transpose().matmul(&grad);
            let next_grad = grad.matmul(&l.w.transpose());
            for (w, &g) in l.w.data.iter_mut().zip(&dw.data) {
                *w -= lr * g;
            }
            for c in 0..grad.cols {
                let db: f32 = (0..grad.rows).map(|r| grad.at(r, c)).sum();
                l.b[c] -= lr * db;
            }
            grad = next_grad;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emb_util::seed_rng;
    use rand::Rng;

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(&[8, 16, 4], 1);
        let x = Matrix::xavier(5, 8, 2);
        let y = mlp.forward(&x);
        assert_eq!((y.rows, y.cols), (5, 4));
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // Numerically verify dL/dW for a small MSE network.
        let mut mlp = Mlp::new(&[3, 4, 2], 5);
        let x = Matrix::xavier(6, 3, 6);
        let t = Matrix::xavier(6, 2, 7);
        // Analytic step with tiny lr; compare resulting loss drop with the
        // finite-difference directional derivative.
        let eps = 1e-3f32;
        let loss0 = {
            let mut probe = mlp.clone();
            probe.train_mse(&x, &t, 0.0)
        };
        // Perturb one weight and measure dL/dw numerically.
        let (li, wi) = (0usize, 5usize);
        let mut plus = mlp.clone();
        plus.layers[li].w.data[wi] += eps;
        let lp = plus.train_mse(&x, &t, 0.0);
        let mut minus = mlp.clone();
        minus.layers[li].w.data[wi] -= eps;
        let lm = minus.train_mse(&x, &t, 0.0);
        let numeric = (lp - lm) / (2.0 * eps);
        // Analytic gradient: run a step with lr=1 and read the delta.
        let before = mlp.layers[li].w.data[wi];
        let _ = mlp.train_mse(&x, &t, 1.0);
        let analytic = before - mlp.layers[li].w.data[wi];
        assert!(
            (numeric - analytic).abs() < 1e-2 * numeric.abs().max(1e-3),
            "numeric {numeric} vs analytic {analytic} (loss0 {loss0})"
        );
    }

    #[test]
    fn bce_training_learns_a_separable_task() {
        // Two Gaussian-ish blobs; loss must fall and accuracy rise.
        let mut rng = seed_rng(8);
        let n = 256;
        let mut xs = Vec::with_capacity(n * 2);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let y = (i % 2) as f32;
            let cx = if y > 0.5 { 1.5 } else { -1.5 };
            xs.push(cx + rng.gen_range(-0.5..0.5));
            xs.push(rng.gen_range(-0.5..0.5));
            ys.push(y);
        }
        let x = Matrix::from_vec(n, 2, xs);
        let mut mlp = Mlp::new(&[2, 8, 1], 3);
        let first = mlp.train_bce(&x, &ys, 0.5);
        let mut last = first;
        for _ in 0..200 {
            last = mlp.train_bce(&x, &ys, 0.5);
        }
        assert!(last < first * 0.3, "loss did not fall: {first} -> {last}");
        // Accuracy.
        let logits = mlp.forward(&x);
        let correct = (0..n)
            .filter(|&r| (logits.at(r, 0) > 0.0) == (ys[r] > 0.5))
            .count();
        assert!(correct as f64 / n as f64 > 0.95, "accuracy {correct}/{n}");
    }

    #[test]
    fn training_is_deterministic() {
        let x = Matrix::xavier(10, 4, 11);
        let ys: Vec<f32> = (0..10).map(|i| (i % 2) as f32).collect();
        let run = || {
            let mut m = Mlp::new(&[4, 6, 1], 2);
            let mut l = 0.0;
            for _ in 0..10 {
                l = m.train_bce(&x, &ys, 0.1);
            }
            l
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "single output unit")]
    fn bce_needs_one_output() {
        let mut mlp = Mlp::new(&[2, 3], 1);
        let x = Matrix::zeros(1, 2);
        let _ = mlp.train_bce(&x, &[0.0], 0.1);
    }
}
