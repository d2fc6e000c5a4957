//! Deterministic power-law graph generation.
//!
//! Real GNN datasets (citation networks, social graphs) have power-law
//! in-degree distributions, which is what makes embedding access skewed
//! (paper §2, "skewed access"). The generator draws each edge's target
//! from a Zipf distribution over a hidden popularity ranking, so a small
//! set of vertices absorbs most in-edges — exactly the long-tail shape the
//! cache policy exploits. Target ids are scrambled by a fixed permutation
//! so "hot" does not mean "low id" (the policy must discover hotness, not
//! assume it).

use crate::csr::Csr;
use emb_util::{seed_rng, split_seed, ZipfSampler};
use rand::Rng;

/// Parameters of the power-law generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphConfig {
    /// Number of vertices (= embedding entries).
    pub num_vertices: usize,
    /// Average out-degree; total edges = `num_vertices * avg_degree`.
    pub avg_degree: usize,
    /// Zipf exponent of target popularity (higher = more skew).
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            num_vertices: 100_000,
            avg_degree: 16,
            skew: 1.05,
            seed: 42,
        }
    }
}

/// Generates a directed power-law graph.
///
/// Out-degrees are mildly skewed (hub authors cite more), in-degrees
/// follow the configured Zipf popularity. Deterministic in `cfg.seed`.
///
/// # Panics
///
/// Panics if `num_vertices == 0`.
pub fn generate(cfg: &GraphConfig) -> Csr {
    assert!(cfg.num_vertices > 0, "graph must have vertices");
    let n = cfg.num_vertices;
    let mut rng = seed_rng(split_seed(cfg.seed, 0xB00C));
    let zipf = ZipfSampler::new(n as u64, cfg.skew);

    // Fixed pseudo-random permutation: popularity rank -> vertex id.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    // Fisher-Yates with the seeded rng.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }

    // Out-degree sequence: mild power law around the mean, min 1.
    let total_edges = (n * cfg.avg_degree) as u64;
    let mut degree: Vec<u32> = Vec::with_capacity(n);
    let deg_zipf = ZipfSampler::new(64, 0.8);
    let mut assigned: u64 = 0;
    for _ in 0..n {
        // Rank 0..64 mapped around avg_degree: hot ranks get larger lists.
        let r = deg_zipf.sample(&mut rng) as f64;
        let d = ((cfg.avg_degree as f64) * (2.0 / (1.0 + r / 8.0)))
            .round()
            .max(1.0) as u32;
        degree.push(d);
        assigned += d as u64;
    }
    // Rescale to hit the requested edge count approximately.
    let scale = total_edges as f64 / assigned as f64;
    for d in &mut degree {
        *d = ((*d as f64 * scale).round() as u32).max(1);
    }

    let mut adj: Vec<Vec<u32>> = Vec::with_capacity(n);
    for &d in degree.iter() {
        let mut nbrs = Vec::with_capacity(d as usize);
        for _ in 0..d {
            let rank = zipf.sample(&mut rng) as usize;
            nbrs.push(perm[rank]);
        }
        adj.push(nbrs);
    }
    Csr::from_adjacency(adj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> GraphConfig {
        GraphConfig {
            num_vertices: 5_000,
            avg_degree: 8,
            skew: 1.1,
            seed: 7,
        }
    }

    #[test]
    fn respects_vertex_count_and_edge_budget() {
        let cfg = small_cfg();
        let g = generate(&cfg);
        assert_eq!(g.num_vertices(), cfg.num_vertices);
        let target = (cfg.num_vertices * cfg.avg_degree) as f64;
        let actual = g.num_edges() as f64;
        assert!(
            (actual - target).abs() / target < 0.15,
            "edges {actual} vs target {target}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg());
        assert_eq!(a, b);
        let c = generate(&GraphConfig {
            seed: 8,
            ..small_cfg()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn in_degree_is_skewed() {
        let g = generate(&small_cfg());
        let mut d = g.in_degrees();
        d.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = d.iter().sum();
        let top1pct: u64 = d.iter().take(g.num_vertices() / 100).sum();
        // The hottest 1% of vertices should absorb far more than 1% of
        // in-edges under a power law.
        assert!(
            top1pct as f64 / total as f64 > 0.10,
            "top 1% absorbs only {:.3}",
            top1pct as f64 / total as f64
        );
    }

    #[test]
    fn hot_vertices_are_scattered_across_id_space() {
        let g = generate(&small_cfg());
        let d = g.in_degrees();
        let n = d.len();
        let hot_ids: Vec<usize> = {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by_key(|&v| std::cmp::Reverse(d[v]));
            idx.truncate(50);
            idx
        };
        let in_low_half = hot_ids.iter().filter(|&&v| v < n / 2).count();
        // If hotness were id-correlated, all hot ids would cluster low.
        assert!(
            (10..=40).contains(&in_low_half),
            "hot ids clustered: {in_low_half}/50 low"
        );
    }

    #[test]
    fn every_vertex_has_out_edges() {
        let g = generate(&small_cfg());
        for v in 0..g.num_vertices() as u32 {
            assert!(!g.neighbors(v).is_empty());
        }
    }
}
