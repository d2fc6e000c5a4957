//! A small row-major `f32` matrix with the handful of operations dense
//! layers need. Deliberately simple: correctness and determinism over
//! speed (the *performance* of dense layers is modelled analytically in
//! `ugache::apps::cost`; this is the functional path).

use emb_util::seed_rng;
use rand::Rng;

/// A dense `rows × cols` matrix, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major values, `rows × cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Xavier-uniform initialization, deterministic in `seed`.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = seed_rng(seed);
        let bound = (6.0 / (rows + cols) as f64).sqrt() as f32;
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// Borrows row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner dimensions differ");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.at(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let dst = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (d, &b) in dst.iter_mut().zip(orow) {
                    *d += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                *out.at_mut(j, i) = self.at(i, j);
            }
        }
        out
    }

    /// Adds a bias row-vector to every row in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, &b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// In-place ReLU; returns the pre-activation mask needed by backprop.
    pub fn relu_inplace(&mut self) -> Vec<bool> {
        self.data
            .iter_mut()
            .map(|x| {
                let on = *x > 0.0;
                if !on {
                    *x = 0.0;
                }
                on
            })
            .collect()
    }
}

/// Numerically stable logistic function.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_reference() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::xavier(4, 4, 3);
        let mut id = Matrix::zeros(4, 4);
        for i in 0..4 {
            *id.at_mut(i, i) = 1.0;
        }
        let c = a.matmul(&id);
        assert_eq!(c, a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::xavier(3, 5, 9);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn bias_and_relu() {
        let mut m = Matrix::from_vec(2, 2, vec![-1.0, 1.0, 0.5, -0.5]);
        m.add_bias(&[0.25, 0.25]);
        let mask = m.relu_inplace();
        assert_eq!(m.data, vec![0.0, 1.25, 0.75, 0.0]);
        assert_eq!(mask, vec![false, true, true, false]);
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let a = Matrix::xavier(8, 8, 1);
        let b = Matrix::xavier(8, 8, 1);
        assert_eq!(a, b);
        let bound = (6.0f64 / 16.0).sqrt() as f32;
        assert!(a.data.iter().all(|x| x.abs() <= bound));
    }

    #[test]
    fn sigmoid_sane() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(20.0) > 0.999);
        assert!(sigmoid(-20.0) < 0.001);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
