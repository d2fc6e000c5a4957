//! Framework integration surface (paper §7.1).
//!
//! The paper ships UGache as a drop-in embedding layer for TensorFlow and
//! PyTorch: applications swap their embedding-layer reference and keep
//! the rest of the model untouched. This module reproduces that surface
//! with a minimal tensor type and two adapter flavours whose call
//! conventions mirror the respective frameworks:
//!
//! * [`TorchStyleLayer::forward`] — `forward(keys) -> Tensor` (module
//!   object with a forward method, PyTorch-style);
//! * [`TfStyleLayer::call`] — `call(keys) -> Tensor` (Keras-layer-style).
//!
//! Both route through the same [`UGache`] instance, as the C++ core does.

use crate::system::UGache;
use emb_cache::GatherStats;

/// A minimal dense 2-D tensor (`rows × cols`, row-major f32).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Rows (one per looked-up key).
    pub rows: usize,
    /// Columns (the embedding dimension).
    pub cols: usize,
    /// Row-major values.
    pub data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Borrow row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// PyTorch-style embedding layer adapter for one GPU rank.
pub struct TorchStyleLayer<'a> {
    ugache: &'a mut UGache,
    gpu: usize,
    dim: usize,
    /// Per-source stats of the last forward (for profiling hooks).
    pub last_stats: GatherStats,
}

impl<'a> TorchStyleLayer<'a> {
    /// Binds the layer to a UGache instance and a GPU rank.
    pub fn new(ugache: &'a mut UGache, gpu: usize, dim: usize) -> Self {
        TorchStyleLayer {
            ugache,
            gpu,
            dim,
            last_stats: GatherStats::default(),
        }
    }

    /// `forward(keys)` — gathers embeddings for `keys`.
    pub fn forward(&mut self, keys: &[u32]) -> Tensor {
        let mut t = Tensor::zeros(keys.len(), self.dim);
        self.last_stats = self.ugache.gather(self.gpu, keys, &mut t.data);
        t
    }
}

/// TensorFlow/Keras-style embedding layer adapter for one GPU rank.
pub struct TfStyleLayer<'a> {
    ugache: &'a mut UGache,
    gpu: usize,
    dim: usize,
}

impl<'a> TfStyleLayer<'a> {
    /// Binds the layer to a UGache instance and a GPU rank.
    pub fn new(ugache: &'a mut UGache, gpu: usize, dim: usize) -> Self {
        TfStyleLayer { ugache, gpu, dim }
    }

    /// `call(keys)` — gathers embeddings for `keys`.
    pub fn call(&mut self, keys: &[u32]) -> Tensor {
        let mut t = Tensor::zeros(keys.len(), self.dim);
        let _ = self.ugache.gather(self.gpu, keys, &mut t.data);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::UGacheConfig;
    use cache_policy::Hotness;
    use emb_cache::HostTable;
    use emb_util::zipf::powerlaw_hotness;
    use gpu_platform::Platform;

    const N: usize = 1000;
    const DIM: usize = 4;

    fn ugache() -> UGache {
        let mut cfg = UGacheConfig::new(DIM * 4, 100.0);
        cfg.solver.blocks.max_blocks = 16;
        UGache::build(
            Platform::server_a(),
            HostTable::procedural(N, DIM),
            &Hotness::new(powerlaw_hotness(N, 1.2)),
            vec![100; 4],
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn torch_forward_returns_correct_values() {
        let mut u = ugache();
        let mut layer = TorchStyleLayer::new(&mut u, 0, DIM);
        let t = layer.forward(&[3, 999]);
        assert_eq!((t.rows, t.cols), (2, DIM));
        let truth = HostTable::procedural(N, DIM);
        assert_eq!(t.row(0), truth.read(3).as_slice());
        assert_eq!(t.row(1), truth.read(999).as_slice());
        assert_eq!(layer.last_stats.total(), 2);
    }

    #[test]
    fn tf_call_matches_torch_forward() {
        let mut u1 = ugache();
        let mut u2 = ugache();
        let keys = [1u32, 500, 2];
        let a = TorchStyleLayer::new(&mut u1, 2, DIM).forward(&keys);
        let b = TfStyleLayer::new(&mut u2, 2, DIM).call(&keys);
        assert_eq!(a, b);
    }

    #[test]
    fn stats_expose_cache_behaviour() {
        let mut u = ugache();
        let mut layer = TorchStyleLayer::new(&mut u, 1, DIM);
        // Key 0 is the hottest (cached); key 999 is cold (host).
        let _ = layer.forward(&[0, 999]);
        assert!(layer.last_stats.host >= 1);
        assert!(layer.last_stats.local + layer.last_stats.remote >= 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tensor_row_bounds() {
        let t = Tensor::zeros(2, 2);
        let _ = t.row(2);
    }
}
