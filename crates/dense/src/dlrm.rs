//! The DLRM inference stack (paper §8.1).
//!
//! A bottom MLP embeds the dense features, a dot-product interaction
//! combines them with the looked-up embedding vectors, and a top MLP
//! produces the click-through logit. It consumes embeddings the cache
//! layer gathered — the integration point the paper's TensorFlow plugin
//! provides. DCN is priced analytically only
//! (`ugache::apps::DlrModel::Dcn`).

use crate::matrix::{sigmoid, Matrix};
use crate::mlp::Mlp;

/// The DLRM inference model.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmModel {
    dense_features: usize,
    num_tables: usize,
    dim: usize,
    bottom: Mlp,
    top: Mlp,
}

impl DlrmModel {
    /// Builds a DLRM for `num_tables` embedding tables of width `dim` and
    /// `dense_features` continuous inputs (Criteo: 26 tables, 13 dense).
    pub fn new(dense_features: usize, num_tables: usize, dim: usize, seed: u64) -> Self {
        // Bottom MLP maps dense features into the embedding space; the
        // interaction is all pairwise dots among (bottom output + tables).
        let f = num_tables + 1;
        let interactions = f * (f - 1) / 2;
        DlrmModel {
            dense_features,
            num_tables,
            dim,
            bottom: Mlp::new(&[dense_features, 64, dim], emb_util::split_seed(seed, 1)),
            top: Mlp::new(
                &[interactions + dim, 64, 32, 1],
                emb_util::split_seed(seed, 2),
            ),
        }
    }

    /// Embedding width expected per vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Scores a batch: `dense` is `batch × dense_features`, `embeddings`
    /// is `batch × (num_tables · dim)` (one gathered vector per table, as
    /// the embedding layer returns them). Returns CTR probabilities.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward(&self, dense: &Matrix, embeddings: &Matrix) -> Vec<f32> {
        assert_eq!(dense.cols, self.dense_features, "dense width");
        assert_eq!(
            embeddings.cols,
            self.num_tables * self.dim,
            "embedding width"
        );
        assert_eq!(dense.rows, embeddings.rows, "batch mismatch");
        let bottom = self.bottom.forward(dense);

        let f = self.num_tables + 1;
        let mut features = Matrix::zeros(dense.rows, f * (f - 1) / 2 + self.dim);
        for r in 0..dense.rows {
            // Feature vectors: bottom output + each table's embedding.
            let mut vecs: Vec<&[f32]> = Vec::with_capacity(f);
            vecs.push(bottom.row(r));
            let erow = embeddings.row(r);
            for t in 0..self.num_tables {
                vecs.push(&erow[t * self.dim..(t + 1) * self.dim]);
            }
            // Pairwise dot products (upper triangle).
            let mut k = 0usize;
            for i in 0..f {
                for j in (i + 1)..f {
                    let dot: f32 = vecs[i].iter().zip(vecs[j]).map(|(a, b)| a * b).sum();
                    *features.at_mut(r, k) = dot;
                    k += 1;
                }
            }
            // Concatenate the bottom output (standard DLRM).
            for (d, &v) in (0..self.dim).zip(bottom.row(r)) {
                *features.at_mut(r, k + d) = v;
            }
        }
        let logits = self.top.forward(&features);
        (0..logits.rows).map(|r| sigmoid(logits.at(r, 0))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(rows: usize, tables: usize, dim: usize) -> (Matrix, Matrix) {
        (
            Matrix::xavier(rows, 13, 21),
            Matrix::xavier(rows, tables * dim, 22),
        )
    }

    #[test]
    fn dlrm_scores_are_probabilities() {
        let m = DlrmModel::new(13, 6, 8, 1);
        let (d, e) = batch(16, 6, 8);
        let p = m.forward(&d, &e);
        assert_eq!(p.len(), 16);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn dlrm_depends_on_embeddings() {
        let m = DlrmModel::new(13, 6, 8, 1);
        let (d, e) = batch(4, 6, 8);
        let mut e2 = e.clone();
        e2.data[3] += 1.0;
        assert_ne!(m.forward(&d, &e), m.forward(&d, &e2));
    }

    #[test]
    #[should_panic(expected = "embedding width")]
    fn dlrm_rejects_wrong_embedding_width() {
        let m = DlrmModel::new(13, 6, 8, 1);
        let d = Matrix::zeros(2, 13);
        let e = Matrix::zeros(2, 5 * 8);
        let _ = m.forward(&d, &e);
    }
}
