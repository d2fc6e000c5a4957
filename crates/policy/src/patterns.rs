//! Placement patterns: the realizable building blocks of the solver.
//!
//! A *pattern* describes one way to lay a set of entries across the
//! machine — "replicate on k of G GPUs round-robin", "partition within
//! each clique", "leave on host" — together with the storage fraction it
//! consumes per GPU and the per-`(dst, src)` read fractions it induces.
//! Any convex combination of patterns is realizable by splitting a block
//! proportionally, which is why the solver can work with an LP instead of
//! the paper's MILP at block granularity (see crate docs).

use crate::types::{Placement, RowId, RowTableFull, SourceIdx};
use gpu_platform::{home_gpu, Interconnect, Location, Platform};

/// What a pattern does with its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// Not cached; every GPU reads from host.
    Host,
    /// Stored on `k` of the `G` GPUs, round-robin (uniform platforms).
    RepK {
        /// Copies per entry, `1..=G`.
        k: usize,
    },
    /// Stored on `k` GPUs *within each fully-connected clique*
    /// (non-uniform platforms; reads never cross cliques).
    CliqueRepK {
        /// Copies per entry per clique, `1..=min clique size`.
        k: usize,
    },
}

/// A placement pattern with its precomputed aggregate effects.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// The structural rule.
    pub kind: PatternKind,
    /// `store_frac[j]`: expected fraction of the pattern's entries stored
    /// on GPU `j`.
    pub store_frac: Vec<f64>,
    /// `read_frac[i][j]`: fraction of GPU `i`'s reads of pattern entries
    /// served by source `j` (`j == G` is host). Rows sum to 1.
    pub read_frac: Vec<Vec<f64>>,
}

/// Whether every GPU pair is connected with identical bandwidth.
pub fn is_uniform(platform: &Platform) -> bool {
    match &platform.interconnect {
        Interconnect::Switch { .. } => true,
        Interconnect::HardWired { pair_bw } => {
            let g = platform.num_gpus();
            if g <= 1 {
                return true;
            }
            let mut reference: Option<f64> = None;
            for i in 0..g {
                for j in 0..g {
                    if i == j {
                        continue;
                    }
                    let bw = pair_bw[i][j];
                    if bw <= 0.0 {
                        return false;
                    }
                    match reference {
                        None => reference = Some(bw),
                        Some(r) if (bw - r).abs() > 1e-6 => return false,
                        _ => {}
                    }
                }
            }
            true
        }
    }
}

/// Generates the pattern set for a platform.
///
/// Uniform platforms get `Host` plus `RepK{1..=G}`; non-uniform ones get
/// `Host` plus `CliqueRepK{1..=c}` (where `c` is the smallest clique
/// size). `RepK{G}` / `CliqueRepK{c}` are full replication.
pub fn generate_patterns(platform: &Platform) -> Vec<Pattern> {
    let g = platform.num_gpus();
    let host = g;
    let mut out = Vec::new();

    // Host pattern.
    let mut host_read = vec![vec![0.0; g + 1]; g];
    for row in host_read.iter_mut() {
        row[host] = 1.0;
    }
    out.push(Pattern {
        kind: PatternKind::Host,
        store_frac: vec![0.0; g],
        read_frac: host_read,
    });

    if is_uniform(platform) {
        for k in 1..=g {
            let mut read = vec![vec![0.0; g + 1]; g];
            for (i, row) in read.iter_mut().enumerate() {
                let local = k as f64 / g as f64;
                row[i] = local;
                if g > 1 {
                    let per_remote = (1.0 - local) / (g - 1) as f64;
                    for (j, cell) in row.iter_mut().take(g).enumerate() {
                        if j != i {
                            *cell = per_remote;
                        }
                    }
                }
            }
            out.push(Pattern {
                kind: PatternKind::RepK { k },
                store_frac: vec![k as f64 / g as f64; g],
                read_frac: read,
            });
        }
    } else {
        let cliques = platform.fully_connected_groups();
        let min_c = cliques.iter().map(|c| c.len()).min().unwrap_or(1);
        // Clique id per GPU.
        let mut clique_of = vec![0usize; g];
        for (q, members) in cliques.iter().enumerate() {
            for &m in members {
                clique_of[m] = q;
            }
        }
        for k in 1..=min_c {
            let mut store = vec![0.0; g];
            let mut read = vec![vec![0.0; g + 1]; g];
            for i in 0..g {
                let c = cliques[clique_of[i]].len();
                let k_eff = k.min(c);
                store[i] = k_eff as f64 / c as f64;
                let local = k_eff as f64 / c as f64;
                read[i][i] = local;
                if c > 1 {
                    let per_sib = (1.0 - local) / (c - 1) as f64;
                    for &j in &cliques[clique_of[i]] {
                        if j != i {
                            read[i][j] = per_sib;
                        }
                    }
                }
            }
            out.push(Pattern {
                kind: PatternKind::CliqueRepK { k },
                store_frac: store,
                read_frac: read,
            });
        }
    }
    out
}

impl Pattern {
    /// Storage locations for the entry at round-robin position `r`
    /// (empty for `Host`): replica `m` goes to the [`home_gpu`] of
    /// `r + m` among the `G` GPUs, or among each clique's members.
    pub fn holders(&self, platform: &Platform, r: usize) -> Vec<usize> {
        let g = platform.num_gpus();
        match self.kind {
            PatternKind::Host => vec![],
            PatternKind::RepK { k } => (0..k).map(|m| home_gpu(r + m, g)).collect(),
            PatternKind::CliqueRepK { k } => {
                let cliques = platform.fully_connected_groups();
                let mut out = Vec::new();
                for members in &cliques {
                    let c = members.len();
                    let k_eff = k.min(c);
                    for m in 0..k_eff {
                        out.push(members[home_gpu(r + m, c)]);
                    }
                }
                out
            }
        }
    }

    /// The source GPU `i` reads the entry at position `r` from, given the
    /// holders computed by [`Pattern::holders`]. `None` means host.
    pub fn source_for(
        &self,
        platform: &Platform,
        gpu: usize,
        r: usize,
        holders: &[usize],
    ) -> Option<usize> {
        if holders.is_empty() {
            return None;
        }
        if holders.contains(&gpu) {
            return Some(gpu);
        }
        // Reachable holders only; pick deterministically but spread by
        // (gpu + r) to balance source egress.
        let reachable: Vec<usize> = holders
            .iter()
            .copied()
            .filter(|&h| platform.connected(gpu, Location::Gpu(h)))
            .collect();
        if reachable.is_empty() {
            return None;
        }
        Some(reachable[(gpu + r) % reachable.len()])
    }
}

/// The round-robin of one of [`generate_patterns`]' patterns: who stores
/// the entry at a position and where each GPU reads it —
/// [`Pattern::holders`] and [`Pattern::source_for`], asked once per
/// distinct position — dealt into one [`Placement`].
///
/// Both repeat in the position `r`: holders rotate through the `G` GPUs
/// or through each clique (every size at most `G`), and a reader picks
/// among its `n ≤ G` reachable holders by `(gpu + r) mod n`, so position
/// `r + lcm(1..=G)` lays an entry out as position `r` did. Rows are
/// computed in residue order, up to the highest residue asked for, and
/// read back after that, so a block of a hundred thousand entries costs
/// a few hundred calls into the rule instead of one per entry. Each
/// residue's sources are interned into the placement once, the first
/// time an entry is dealt there.
pub(crate) struct Rotation<'a> {
    pattern: &'a Pattern,
    platform: &'a Platform,
    period: usize,
    /// Per residue below `period` computed so far, lowest first.
    rows: Vec<Residue>,
}

/// One residue of a [`Rotation`].
struct Residue {
    holders: Vec<usize>,
    /// Each GPU's source (`G` for host).
    access: Vec<SourceIdx>,
    /// `access`'s row id in the placement dealt into, once interned.
    row: Option<RowId>,
}

impl<'a> Rotation<'a> {
    /// The round-robin of `pattern` on `platform`.
    pub(crate) fn new(pattern: &'a Pattern, platform: &'a Platform) -> Self {
        // Saturating: a period that overflows is one no position reaches.
        let period =
            (1..=platform.num_gpus()).fold(1usize, |lcm, n| lcm.saturating_mul(n / gcd(lcm, n)));
        Rotation {
            pattern,
            platform,
            period,
            rows: Vec::new(),
        }
    }

    /// Whether this is the host pattern's round-robin, which lays every
    /// position out as [`Placement::all_host`] does: no holders, every
    /// GPU reading from host.
    pub(crate) fn is_host(&self) -> bool {
        self.pattern.kind == PatternKind::Host
    }

    /// The layout of the entries at the positions `residue` modulo the
    /// period, which `residue` is below.
    fn at(&mut self, residue: usize) -> &mut Residue {
        debug_assert!(residue < self.period);
        while self.rows.len() <= residue {
            let g = self.platform.num_gpus();
            let position = self.rows.len();
            let holders = self.pattern.holders(self.platform, position);
            let access = (0..g)
                .map(|gpu| {
                    self.pattern
                        .source_for(self.platform, gpu, position, &holders)
                        .unwrap_or(g) as SourceIdx
                })
                .collect();
            self.rows.push(Residue {
                holders,
                access,
                row: None,
            });
        }
        &mut self.rows[residue]
    }

    /// Lays `entries` of `placement` out as the consecutive positions
    /// from `first` on: each entry's holders store it and every GPU reads
    /// it from its source. A rotation deals into one placement only,
    /// whose row ids it keeps.
    ///
    /// # Errors
    ///
    /// Fails if the placement's source table is full.
    pub(crate) fn deal(
        &mut self,
        first: usize,
        entries: &[u32],
        placement: &mut Placement,
    ) -> Result<(), RowTableFull> {
        let mut r = first % self.period;
        for &entry in entries {
            let residue = self.at(r);
            let row = match residue.row {
                Some(row) => row,
                None => *residue.row.insert(placement.intern(&residue.access)?),
            };
            for &h in &residue.holders {
                placement.stored[h].set(entry as usize, true);
            }
            placement.set_row(entry as usize, row);
            r += 1;
            if r == self.period {
                r = 0;
            }
        }
        Ok(())
    }
}

/// Greatest common divisor.
fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_replays_holders_and_sources_position_by_position() {
        // Many laps of Server A's period (12) and more than one of the
        // eight-GPU servers' (840), on every generated pattern: walked in
        // order, as the running round-robin asks, then at scattered
        // positions far past the period, as a run of keys asks.
        let scattered = (0..1_000).map(|i| i * 7_919 % 400_000);
        for plat in [
            Platform::server_a(),
            Platform::server_b(),
            Platform::server_c(),
        ] {
            let g = plat.num_gpus();
            for pat in &generate_patterns(&plat) {
                let mut rotation = Rotation::new(pat, &plat);
                for r in (0..1_000).chain(scattered.clone()) {
                    let holders = pat.holders(&plat, r);
                    let access: Vec<SourceIdx> = (0..g)
                        .map(|gpu| {
                            pat.source_for(&plat, gpu, r, &holders).unwrap_or(g) as SourceIdx
                        })
                        .collect();
                    let got = rotation.at(r % rotation.period);
                    assert_eq!(
                        got.holders, holders,
                        "{:?} r {r} on {}",
                        pat.kind, plat.name
                    );
                    assert_eq!(got.access, access, "{:?} r {r} on {}", pat.kind, plat.name);
                }
                assert!(rotation.rows.len() <= rotation.period);
                // Asked out of order first, a fresh rotation answers the
                // same.
                let mut fresh = Rotation::new(pat, &plat);
                for r in scattered.clone() {
                    let want = rotation.at(r % rotation.period).access.clone();
                    let got = fresh.at(r % fresh.period);
                    assert_eq!(got.holders, pat.holders(&plat, r));
                    assert_eq!(got.access, want);
                }
            }
        }
    }

    #[test]
    fn only_the_host_rotation_is_host_and_it_lays_out_as_all_host() {
        for plat in [
            Platform::server_a(),
            Platform::server_b(),
            Platform::server_c(),
        ] {
            let g = plat.num_gpus();
            let all_host = Placement::all_host(g, 1);
            let host_reads: Vec<SourceIdx> = (0..g).map(|i| all_host.source(i, 0)).collect();
            for pat in &generate_patterns(&plat) {
                let mut rotation = Rotation::new(pat, &plat);
                assert_eq!(rotation.is_host(), pat.kind == PatternKind::Host);
                if rotation.is_host() {
                    for r in [0, 1, 7, 839, 840, 123_457] {
                        let residue = rotation.at(r % rotation.period);
                        assert!(residue.holders.is_empty(), "r {r} on {}", plat.name);
                        assert_eq!(residue.access, host_reads, "r {r} on {}", plat.name);
                    }
                }
            }
        }
    }

    #[test]
    fn uniformity_detection() {
        assert!(is_uniform(&Platform::server_a()));
        assert!(!is_uniform(&Platform::server_b()));
        assert!(is_uniform(&Platform::server_c()));
    }

    #[test]
    fn uniform_pattern_set_shape() {
        let p = Platform::server_c();
        let pats = generate_patterns(&p);
        // Host + RepK{1..=8}.
        assert_eq!(pats.len(), 9);
        assert_eq!(pats[0].kind, PatternKind::Host);
        assert_eq!(pats[8].kind, PatternKind::RepK { k: 8 });
    }

    #[test]
    fn read_fractions_sum_to_one() {
        for plat in [
            Platform::server_a(),
            Platform::server_b(),
            Platform::server_c(),
        ] {
            for pat in generate_patterns(&plat) {
                for (i, row) in pat.read_frac.iter().enumerate() {
                    let s: f64 = row.iter().sum();
                    assert!(
                        (s - 1.0).abs() < 1e-9,
                        "{:?} row {i} sums to {s} on {}",
                        pat.kind,
                        plat.name
                    );
                }
            }
        }
    }

    #[test]
    fn full_replication_reads_locally() {
        let p = Platform::server_c();
        let pats = generate_patterns(&p);
        let rep = pats
            .iter()
            .find(|p| p.kind == PatternKind::RepK { k: 8 })
            .unwrap();
        for i in 0..8 {
            assert!((rep.read_frac[i][i] - 1.0).abs() < 1e-12);
            assert_eq!(rep.store_frac[i], 1.0);
        }
    }

    #[test]
    fn clique_patterns_never_cross_cliques() {
        let p = Platform::server_b();
        let pats = generate_patterns(&p);
        assert!(pats
            .iter()
            .any(|p| p.kind == PatternKind::CliqueRepK { k: 1 }));
        for pat in &pats {
            if pat.kind == PatternKind::Host {
                continue;
            }
            // GPU0 (clique {0,1,2,3}) must never read from 4..8.
            for j in 4..8 {
                assert_eq!(pat.read_frac[0][j], 0.0, "{:?}", pat.kind);
            }
        }
    }

    #[test]
    fn holders_respect_k_and_are_in_range() {
        let p = Platform::server_c();
        let pats = generate_patterns(&p);
        let rep3 = pats
            .iter()
            .find(|p| p.kind == PatternKind::RepK { k: 3 })
            .unwrap();
        for r in 0..32 {
            let h = rep3.holders(&p, r);
            assert_eq!(h.len(), 3);
            assert!(h.iter().all(|&x| x < 8));
        }
    }

    #[test]
    fn source_for_prefers_local_and_respects_topology() {
        let pb = Platform::server_b();
        let pats = generate_patterns(&pb);
        let c1 = pats
            .iter()
            .find(|p| p.kind == PatternKind::CliqueRepK { k: 1 })
            .unwrap();
        for r in 0..16 {
            let holders = c1.holders(&pb, r);
            for gpu in 0..8 {
                match c1.source_for(&pb, gpu, r, &holders) {
                    Some(src) => {
                        assert!(pb.connected(gpu, Location::Gpu(src)));
                        if holders.contains(&gpu) {
                            assert_eq!(src, gpu);
                        }
                    }
                    None => panic!("clique pattern must always find a source"),
                }
            }
        }
    }

    #[test]
    fn host_pattern_has_no_holders() {
        let p = Platform::server_a();
        let pats = generate_patterns(&p);
        assert!(pats[0].holders(&p, 5).is_empty());
        assert_eq!(pats[0].source_for(&p, 1, 5, &[]), None);
    }
}
