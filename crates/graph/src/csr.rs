//! Compressed sparse row adjacency.

/// A directed graph in CSR form with `u32` vertex ids.
///
/// Vertex ids double as embedding keys throughout the workspace, so a
/// graph with `n` vertices implies an embedding table with `n` entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`.
    offsets: Vec<u64>,
    /// Flattened out-neighbour lists.
    targets: Vec<u32>,
}

impl Csr {
    /// Builds a CSR from an edge list over `n` vertices.
    ///
    /// Edges keep their multiplicity and order within a source is
    /// unspecified. Self-loops are allowed.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u64; n];
        for &(s, t) in edges {
            assert!(
                (s as usize) < n && (t as usize) < n,
                "edge ({s},{t}) out of range"
            );
            degree[s as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(s, t) in edges {
            let c = &mut cursor[s as usize];
            targets[*c as usize] = t;
            *c += 1;
        }
        Csr { offsets, targets }
    }

    /// Builds a CSR directly from per-vertex adjacency lists.
    pub fn from_adjacency(adj: Vec<Vec<u32>>) -> Self {
        let n = adj.len();
        let mut offsets = vec![0u64; n + 1];
        for (v, nbrs) in adj.iter().enumerate() {
            for &t in nbrs {
                assert!((t as usize) < n, "target {t} out of range");
            }
            offsets[v + 1] = offsets[v] + nbrs.len() as u64;
        }
        let mut targets = Vec::with_capacity(offsets[n] as usize);
        for nbrs in &adj {
            targets.extend_from_slice(nbrs);
        }
        Csr { offsets, targets }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (directed) edges.
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-neighbours of a vertex.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// In-degree of every vertex (one full edge scan).
    ///
    /// In-degree approximates embedding-access frequency in GNN sampling
    /// (paper §6.1, the PaGraph heuristic).
    pub fn in_degrees(&self) -> Vec<u64> {
        let mut d = vec![0u64; self.num_vertices()];
        for &t in &self.targets {
            d[t as usize] += 1;
        }
        d
    }

    /// Bytes of topology storage (the paper's `VolumeG`).
    pub fn topology_bytes(&self) -> u64 {
        (self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<u32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1,2 ; 1 -> 3 ; 2 -> 3 ; 3 -> (none)
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn from_edges_basic() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0).len(), 2);
        assert_eq!(g.neighbors(3).len(), 0);
        let mut n0 = g.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
    }

    #[test]
    fn in_degrees_counts_targets() {
        let g = diamond();
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn from_adjacency_matches_from_edges() {
        let a = Csr::from_adjacency(vec![vec![1, 2], vec![3], vec![3], vec![]]);
        let b = diamond();
        assert_eq!(a.num_edges(), b.num_edges());
        for v in 0..4 {
            let mut x = a.neighbors(v).to_vec();
            let mut y = b.neighbors(v).to_vec();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn multi_edges_and_self_loops_kept() {
        let g = Csr::from_edges(2, &[(0, 0), (0, 1), (0, 1)]);
        assert_eq!(g.neighbors(0).len(), 3);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = Csr::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn topology_bytes_positive() {
        assert!(diamond().topology_bytes() > 0);
    }
}
