//! The UGache cache-policy solver (§6).
//!
//! Pipeline: batch entries into hotness blocks (§6.3) → build a linear
//! program over *placement patterns* per block → solve → realize the
//! fractional solution by splitting blocks proportionally across
//! patterns. The LP objective is the paper's §6.2 extraction-time model
//! (`t_i ≥ t_i^j`, `t_i ≥ Σ_j R_{i←j} t_i^j`, minimize `max_i t_i`).
//!
//! Fractional pattern weights are *exactly* realizable (a block is a bag
//! of interchangeable entries), so no integrality gap exists at block
//! granularity. The paper's binary MILP is never built; the crate's
//! `tests/exact_optimum.rs` measures this solver against its brute-force
//! optimum on tiny instances.

use crate::blocks::{build_blocks, Block, BlockConfig};
use crate::patterns::{generate_patterns, Pattern, Rotation};
use crate::types::{Hotness, Placement, RowTableFull, SourceIdx};
use gpu_platform::{DedicationConfig, Location, Platform, Profile};
use milp::{ConstraintSense, LinExpr, Model};
use std::borrow::Cow;

/// Solver tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Hotness-block batching parameters (§6.3).
    pub blocks: BlockConfig,
    /// Bytes per embedding entry.
    pub entry_bytes: usize,
    /// Expected entry reads per GPU per iteration (scales the estimate).
    pub accesses_per_iter: f64,
    /// Apply the per-batch deduplication adjustment
    /// ([`Hotness::dedup_adjusted`]) before solving. Enable when batches
    /// are deduplicated and large relative to the key domain (always true
    /// for the scaled datasets in this reproduction).
    pub dedup_adjust: bool,
}

impl SolverConfig {
    /// A config for the given entry size with default block batching.
    pub fn new(entry_bytes: usize, accesses_per_iter: f64) -> Self {
        SolverConfig {
            blocks: BlockConfig::default(),
            entry_bytes,
            accesses_per_iter,
            dedup_adjust: false,
        }
    }

    /// The hotness the solver optimizes for: [`Hotness::dedup_adjusted`]
    /// when `dedup_adjust` is set, `hotness` itself otherwise. The
    /// calibration makes some 30 passes over the entries (the bisection's
    /// other steps are decided by passes already made), each an `exp` per
    /// distinct value and an addition per entry (an `exp` per entry when
    /// the weights are mostly distinct), so a caller that needs the adjusted
    /// hotness for more than the solve (the refresh trigger compares two
    /// estimates on it) takes it once here and hands it to
    /// [`UGacheSolver::solve_adjusted`].
    pub fn adjusted<'h>(&self, hotness: &'h Hotness) -> Cow<'h, Hotness> {
        if self.dedup_adjust && self.accesses_per_iter > 0.0 {
            Cow::Owned(hotness.dedup_adjusted(self.accesses_per_iter))
        } else {
            Cow::Borrowed(hotness)
        }
    }
}

/// A solved policy: the realized placement plus solver metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedPolicy {
    /// The realized entry-level placement.
    pub placement: Placement,
    /// The LP's predicted extraction makespan in seconds.
    pub predicted_secs: f64,
    /// Number of hotness blocks in the LP.
    pub num_blocks: usize,
    /// Number of candidate patterns.
    pub num_patterns: usize,
}

/// The UGache Solver: owns the platform description and its profile.
#[derive(Debug, Clone)]
pub struct UGacheSolver {
    platform: Platform,
    profile: Profile,
}

impl UGacheSolver {
    /// Creates a solver for a platform (profiles it on construction).
    pub fn new(platform: Platform, dedication: DedicationConfig) -> Self {
        let profile = Profile::new(&platform, dedication);
        UGacheSolver { platform, profile }
    }

    /// The profiled `T`/`R` matrices.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The platform under management.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Solves for a placement under per-GPU capacities (in entries),
    /// applying `cfg`'s dedup adjustment to `hotness` first.
    ///
    /// # Errors
    ///
    /// Returns an error if the LP solver fails numerically (it cannot be
    /// infeasible: the all-host pattern always fits).
    pub fn solve(
        &self,
        hotness: &Hotness,
        cap_entries: &[usize],
        cfg: &SolverConfig,
    ) -> Result<SolvedPolicy, String> {
        self.solve_adjusted(&cfg.adjusted(hotness), cap_entries, cfg)
    }

    /// [`UGacheSolver::solve`] on hotness that already went through
    /// [`SolverConfig::adjusted`] (`cfg.dedup_adjust` is not consulted
    /// again).
    ///
    /// # Errors
    ///
    /// As [`UGacheSolver::solve`].
    pub fn solve_adjusted(
        &self,
        hotness: &Hotness,
        cap_entries: &[usize],
        cfg: &SolverConfig,
    ) -> Result<SolvedPolicy, String> {
        let g = self.platform.num_gpus();
        let e = hotness.len();
        assert_eq!(cap_entries.len(), g, "one capacity per GPU");
        let mut bcfg = cfg.blocks;
        bcfg.min_splits = bcfg.min_splits.max(g);
        let blocks = build_blocks(hotness, &bcfg);
        let patterns = generate_patterns(&self.platform);
        if blocks.is_empty() {
            return Ok(SolvedPolicy {
                placement: Placement::all_host(g, e),
                predicted_secs: 0.0,
                num_blocks: 0,
                num_patterns: patterns.len(),
            });
        }

        let (model, y_ids, time_unit) = self.build_lp(&blocks, &patterns, cap_entries, cfg);
        let sol = milp::solve_lp(&model).map_err(|s| format!("policy LP failed: {s:?}"))?;

        emb_telemetry::count("policy.lp.solves", 1.0);
        emb_telemetry::count("policy.lp.iterations", sol.iterations as f64);
        emb_telemetry::observe("policy.lp.residual", sol.max_residual);
        emb_telemetry::count("policy.blocks", blocks.len() as f64);
        emb_telemetry::count("policy.patterns", patterns.len() as f64);
        emb_telemetry::event("policy.solve", || {
            emb_telemetry::Fields::new(
                &[
                    "blocks",
                    "patterns",
                    "lp_iterations",
                    "lp_residual",
                    "predicted_secs",
                ],
                &[
                    (blocks.len() as u64).into(),
                    (patterns.len() as u64).into(),
                    (sol.iterations as u64).into(),
                    sol.max_residual.into(),
                    (sol.objective * time_unit).into(),
                ],
            )
        });

        // Extract y fractions.
        let y: Vec<Vec<f64>> = y_ids
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&v| sol.x[v.index()].clamp(0.0, 1.0))
                    .collect()
            })
            .collect();

        let mut placement = self
            .realize(hotness, &blocks, &patterns, &y, cap_entries)
            .map_err(|e| e.to_string())?;
        self.fill_spare_capacity(&mut placement, cap_entries, hotness, &blocks)
            .map_err(|e| e.to_string())?;
        debug_assert!(placement.validate().is_ok());
        Ok(SolvedPolicy {
            placement,
            predicted_secs: sol.objective * time_unit,
            num_blocks: blocks.len(),
            num_patterns: patterns.len(),
        })
    }

    /// Builds the pattern LP. Returns the model, the `y[b][p]` ids, and
    /// the time unit (seconds per LP time unit) the `t`/`z` variables are
    /// expressed in. Normalizing time keeps LP coefficients near 1
    /// regardless of batch scale, which dense-simplex tolerances need.
    fn build_lp(
        &self,
        blocks: &[Block],
        patterns: &[Pattern],
        cap_entries: &[usize],
        cfg: &SolverConfig,
    ) -> (Model, Vec<Vec<milp::VarId>>, f64) {
        let g = self.platform.num_gpus();
        let host = g;
        // One LP time unit = the time to pull the whole batch from host.
        let worst_t = (0..g)
            .map(|i| self.profile.sec_per_byte[i][host])
            .fold(0.0f64, f64::max);
        let time_unit = (cfg.accesses_per_iter * cfg.entry_bytes as f64 * worst_t).max(1e-300);
        let scale = cfg.accesses_per_iter * cfg.entry_bytes as f64 / time_unit;
        let mut m = Model::new();

        let y: Vec<Vec<milp::VarId>> = blocks
            .iter()
            .map(|_| patterns.iter().map(|_| m.add_var(0.0, 1.0, 0.0)).collect())
            .collect();
        let tj: Vec<Vec<milp::VarId>> = (0..g)
            .map(|_| (0..=host).map(|_| m.add_nonneg(0.0)).collect())
            .collect();
        let t: Vec<milp::VarId> = (0..g).map(|_| m.add_nonneg(0.0)).collect();
        let z = m.add_nonneg(1.0);

        // Each block fully assigned.
        for row in &y {
            let expr = LinExpr::from_terms(row.iter().map(|&v| (v, 1.0)));
            m.add_constraint(expr, ConstraintSense::Eq, 1.0);
        }

        // Capacity per GPU.
        for j in 0..g {
            let mut expr = LinExpr::new();
            for (b, blk) in blocks.iter().enumerate() {
                for (p, pat) in patterns.iter().enumerate() {
                    let c = blk.size() as f64 * pat.store_frac[j];
                    if c > 0.0 {
                        expr = expr.plus(y[b][p], c);
                    }
                }
            }
            m.add_constraint(expr, ConstraintSense::Le, cap_entries[j] as f64);
        }

        // tj definitions: tj[i][j] = Σ_b Σ_p W_b·scale·T[i][j]·read·y.
        for i in 0..g {
            for j in 0..=host {
                let t_ij = self.profile.sec_per_byte[i][j];
                let mut expr = LinExpr::new().plus(tj[i][j], -1.0);
                for (b, blk) in blocks.iter().enumerate() {
                    for (p, pat) in patterns.iter().enumerate() {
                        let read = pat.read_frac[i][j];
                        if read > 0.0 {
                            assert!(
                                t_ij.is_finite(),
                                "pattern routes GPU{i} to unreachable source {j}"
                            );
                            expr = expr.plus(y[b][p], blk.weight * scale * t_ij * read);
                        }
                    }
                }
                m.add_constraint(expr, ConstraintSense::Eq, 0.0);
            }
        }

        // t_i ≥ tj[i][j]; t_i ≥ Σ_j R[i][j]·tj[i][j]; z ≥ t_i.
        for i in 0..g {
            for j in 0..=host {
                let expr = LinExpr::new().plus(t[i], 1.0).plus(tj[i][j], -1.0);
                m.add_constraint(expr, ConstraintSense::Ge, 0.0);
            }
            let mut padded = LinExpr::new().plus(t[i], 1.0);
            for j in 0..=host {
                let r = self.profile.r[i][j];
                if r > 0.0 {
                    padded = padded.plus(tj[i][j], -r);
                }
            }
            m.add_constraint(padded, ConstraintSense::Ge, 0.0);
            m.add_constraint(
                LinExpr::new().plus(z, 1.0).plus(t[i], -1.0),
                ConstraintSense::Ge,
                0.0,
            );
        }
        (m, y, time_unit)
    }

    /// Realizes fractional pattern weights into an entry-level placement.
    ///
    /// # Errors
    ///
    /// Fails if the placement's source table overflows (a platform whose
    /// round-robins lay entries out more than 65 536 ways).
    fn realize(
        &self,
        hotness: &Hotness,
        blocks: &[Block],
        patterns: &[Pattern],
        y: &[Vec<f64>],
        cap_entries: &[usize],
    ) -> Result<Placement, RowTableFull> {
        let g = self.platform.num_gpus();
        let mut placement = Placement::all_host(g, hotness.len());
        // One slice's entries, listed only for a caching pattern.
        let mut slice: Vec<u32> = Vec::new();
        // Each pattern's round-robin runs on across blocks: `dealt[p]`
        // entries have taken pattern `p` so far.
        let mut rotations: Vec<Rotation> = patterns
            .iter()
            .map(|pat| Rotation::new(pat, &self.platform))
            .collect();
        let mut dealt = vec![0usize; patterns.len()];

        for (b, blk) in blocks.iter().enumerate() {
            // Largest-remainder split of the block across patterns.
            let n = blk.size();
            let exact: Vec<f64> = y[b].iter().map(|&f| f * n as f64).collect();
            let mut counts: Vec<usize> = exact.iter().map(|&x| x.floor() as usize).collect();
            let mut short = n - counts.iter().sum::<usize>().min(n);
            let mut order: Vec<usize> = (0..patterns.len()).collect();
            order.sort_by(|&a, &bb| {
                let fa = exact[a] - exact[a].floor();
                let fb = exact[bb] - exact[bb].floor();
                fb.total_cmp(&fa)
            });
            let mut oi = 0usize;
            while short > 0 {
                counts[order[oi % order.len()]] += 1;
                short -= 1;
                oi += 1;
            }
            // Clamp any overshoot (floor sums can exceed n only via fp
            // pathologies; guard anyway).
            let mut assigned = 0usize;
            for c in counts.iter_mut() {
                if assigned + *c > n {
                    *c = n - assigned;
                }
                assigned += *c;
            }

            // The block's entries go to the patterns in order, one slice
            // each. A slice that is a run of at least G consecutive keys
            // is dealt by key: key `k` takes position `k`, so its holders
            // start at its `home_gpu` and the GPU that serves it stores
            // it. Any other slice takes the next positions of the
            // pattern's running round-robin. Either way the round-robin
            // moves on by the slice's length. The host pattern's slices
            // are skipped: `Placement::all_host` laid them out already, and
            // its round-robin places nothing — so the zero tail is listed
            // only where a caching pattern takes some of it.
            let mut start = 0usize;
            for ((rotation, dealt), &count) in rotations.iter_mut().zip(&mut dealt).zip(&counts) {
                let positions = start..start + count.min(n - start);
                start = positions.end;
                if rotation.is_host() {
                    continue;
                }
                slice.clear();
                slice.extend(blk.entries_at(hotness, positions));
                let by_key = slice.len() >= g
                    && slice
                        .windows(2)
                        .all(|w| u64::from(w[0]) + 1 == u64::from(w[1]));
                let first = match slice.first() {
                    Some(&key) if by_key => key as usize,
                    _ => *dealt,
                };
                rotation.deal(first, &slice, &mut placement)?;
                *dealt += slice.len();
            }
        }

        self.trim_overflow(&mut placement, cap_entries)?;
        Ok(placement)
    }

    /// Fills any leftover per-GPU capacity with extra replicas of that
    /// GPU's hottest non-resident entries, reading them locally — a
    /// strictly improving post-pass. The pattern LP places symmetrically
    /// (all paper testbeds have uniform HBM), so on heterogeneous-memory
    /// machines the larger GPUs would otherwise strand capacity.
    ///
    /// The blocks' entries, block after block, are the hotness ranking
    /// ([`build_blocks`]), so the solve sorts once; the zero tail is
    /// listed only as far as the walk reaches into it.
    ///
    /// # Errors
    ///
    /// Fails if the placement's source table overflows.
    fn fill_spare_capacity(
        &self,
        placement: &mut Placement,
        cap_entries: &[usize],
        hotness: &Hotness,
        blocks: &[Block],
    ) -> Result<(), RowTableFull> {
        for j in 0..placement.num_gpus {
            let mut spare = cap_entries[j].saturating_sub(placement.cached_count(j));
            for e in blocks.iter().flat_map(|blk| blk.entries(hotness)) {
                if spare == 0 {
                    break;
                }
                let e = e as usize;
                if !placement.stored[j].get(e) {
                    placement.stored[j].set(e, true);
                    placement.set_source(j, e, j as SourceIdx)?;
                    spare -= 1;
                }
            }
        }
        Ok(())
    }

    /// Evicts the overflow on any over-capacity GPU — the stored entries
    /// with the highest *ids*, not the coldest — and re-routes their
    /// readers. The two coincide only when hotness falls with entry id;
    /// the mismatch is tolerated because largest-remainder rounding
    /// overshoots by at most one entry per block, and evicting by
    /// hotness instead would move pinned placements.
    fn trim_overflow(
        &self,
        placement: &mut Placement,
        cap_entries: &[usize],
    ) -> Result<(), RowTableFull> {
        let g = placement.num_gpus;
        for j in 0..g {
            if placement.cached_count(j) <= cap_entries[j] {
                continue;
            }
            // `held` is in entry-id order, so this drops the highest ids.
            let held: Vec<usize> = placement.stored[j].ones().collect();
            for &e in &held[cap_entries[j]..] {
                placement.stored[j].set(e, false);
                for i in 0..g {
                    if placement.source(i, e) as usize == j {
                        // Re-route: another reachable holder, else host.
                        let alt = (0..g).find(|&h| {
                            placement.stored[h].get(e)
                                && (h == i || self.platform.connected(i, Location::Gpu(h)))
                        });
                        let src = alt.map_or(placement.host_idx(), |h| h as SourceIdx);
                        placement.set_source(i, e, src)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines;
    use crate::estimate::estimate_extraction_time;
    use emb_util::zipf::powerlaw_hotness;

    fn solver(platform: Platform) -> UGacheSolver {
        UGacheSolver::new(platform, DedicationConfig::default())
    }

    fn hotness(n: usize, alpha: f64) -> Hotness {
        Hotness::new(powerlaw_hotness(n, alpha))
    }

    fn small_cfg() -> SolverConfig {
        SolverConfig {
            blocks: BlockConfig {
                coarse_cap: 0.01,
                min_splits: 4,
                max_blocks: 64,
            },
            entry_bytes: 512,
            accesses_per_iter: 1e5,
            dedup_adjust: false,
        }
    }

    #[test]
    fn solve_produces_valid_placement_within_capacity() {
        let s = solver(Platform::server_a());
        let h = hotness(10_000, 1.2);
        let caps = vec![500usize; 4];
        let sp = s.solve(&h, &caps, &small_cfg()).unwrap();
        sp.placement.validate().unwrap();
        for i in 0..4 {
            assert!(sp.placement.cached_count(i) <= 500, "GPU{i}");
        }
        assert!(sp.predicted_secs > 0.0);
        assert!(sp.num_blocks > 0);
    }

    #[test]
    fn beats_or_matches_replication_and_partition() {
        let plat = Platform::server_c();
        let s = solver(plat.clone());
        let h = hotness(40_000, 1.2);
        let cap = 1200usize;
        let caps = vec![cap; 8];
        let cfg = small_cfg();
        let sp = s.solve(&h, &caps, &cfg).unwrap();
        let t_u = estimate_extraction_time(
            &sp.placement,
            &h,
            s.profile(),
            cfg.entry_bytes,
            cfg.accesses_per_iter,
        )
        .makespan;
        let t_rep = estimate_extraction_time(
            &baselines::replication(&plat, &h, cap),
            &h,
            s.profile(),
            cfg.entry_bytes,
            cfg.accesses_per_iter,
        )
        .makespan;
        let t_part = estimate_extraction_time(
            &baselines::partition(&plat, &h, cap).unwrap(),
            &h,
            s.profile(),
            cfg.entry_bytes,
            cfg.accesses_per_iter,
        )
        .makespan;
        assert!(t_u <= t_rep * 1.05, "UGache {t_u} vs replication {t_rep}");
        assert!(t_u <= t_part * 1.05, "UGache {t_u} vs partition {t_part}");
    }

    #[test]
    fn realized_time_close_to_lp_prediction() {
        let s = solver(Platform::server_c());
        let h = hotness(40_000, 1.2);
        let caps = vec![1000usize; 8];
        let cfg = small_cfg();
        let sp = s.solve(&h, &caps, &cfg).unwrap();
        let realized = estimate_extraction_time(
            &sp.placement,
            &h,
            s.profile(),
            cfg.entry_bytes,
            cfg.accesses_per_iter,
        )
        .makespan;
        let rel = (realized - sp.predicted_secs).abs() / sp.predicted_secs;
        assert!(
            rel < 0.15,
            "LP {} vs realized {} ({:.1}%)",
            sp.predicted_secs,
            realized,
            rel * 100.0
        );
    }

    #[test]
    fn zero_capacity_goes_all_host() {
        let s = solver(Platform::server_a());
        let h = hotness(1000, 1.2);
        let sp = s.solve(&h, &[0, 0, 0, 0], &small_cfg()).unwrap();
        for i in 0..4 {
            assert_eq!(sp.placement.cached_count(i), 0);
        }
        assert_eq!(sp.placement.global_hit_rate(&h), 0.0);
    }

    #[test]
    fn huge_capacity_replicates_everything() {
        let s = solver(Platform::server_a());
        let h = hotness(2000, 1.2);
        let sp = s.solve(&h, &[2000; 4], &small_cfg()).unwrap();
        // With room for everything, full replication (all local) wins.
        let lhr = sp.placement.local_hit_rate(&h);
        assert!(lhr > 0.999, "local hit rate {lhr}");
    }

    #[test]
    fn low_capacity_prefers_partition_like_high_capacity_replication_like() {
        let plat = Platform::server_c();
        let s = solver(plat);
        let h = hotness(40_000, 1.05);
        let cfg = small_cfg();
        let low = s.solve(&h, &[200; 8], &cfg).unwrap();
        let high = s.solve(&h, &[5000; 8], &cfg).unwrap();
        // Paper Figure 14: at low ratios UGache ≈ partition (low local
        // hit rate), at high ratios it grows replicas (high local rate).
        assert!(
            high.placement.local_hit_rate(&h) > low.placement.local_hit_rate(&h) + 0.2,
            "low {} high {}",
            low.placement.local_hit_rate(&h),
            high.placement.local_hit_rate(&h)
        );
    }

    #[test]
    fn works_on_nonuniform_server_b() {
        let s = solver(Platform::server_b());
        let h = hotness(20_000, 1.2);
        let caps = vec![800usize; 8];
        let sp = s.solve(&h, &caps, &small_cfg()).unwrap();
        sp.placement.validate().unwrap();
        // No access may cross unconnected pairs (validate would catch the
        // storage side; check routing against the platform too).
        for i in 0..8 {
            for e in 0..20_000 {
                let src = sp.placement.source(i, e);
                if src != sp.placement.host_idx() && src as usize != i {
                    assert!(s.platform().connected(i, Location::Gpu(src as usize)));
                }
            }
        }
    }

    #[test]
    fn heterogeneous_capacities_are_respected_and_exploited() {
        // Mixed-memory machines (one big GPU, seven small) must still
        // produce valid placements, and the big GPU should carry more.
        let s = solver(Platform::server_c());
        let h = hotness(20_000, 1.2);
        let mut caps = vec![250usize; 8];
        caps[0] = 4_000;
        let sp = s.solve(&h, &caps, &small_cfg()).unwrap();
        sp.placement.validate().unwrap();
        for i in 0..8 {
            assert!(sp.placement.cached_count(i) <= caps[i], "GPU{i}");
        }
        assert!(
            sp.placement.cached_count(0) > sp.placement.cached_count(1),
            "the large GPU should hold more entries"
        );
    }

    /// FNV-1a over a placement's access and storage tables.
    fn placement_hash(p: &Placement) -> u64 {
        let access = (0..p.num_gpus).flat_map(|i| (0..p.num_entries).map(move |e| p.source(i, e)));
        let stored = p.stored.iter().flatten().map(u8::from);
        test_support::fnv1a(test_support::FNV_OFFSET, access.chain(stored))
    }

    #[test]
    fn server_b_and_c_solves_match_the_values_pinned_before_bitset_supports() {
        // Placement hash, predicted seconds and pivot count recorded at
        // the commit before the simplex moved from sorted support lists
        // to bitsets: a solver speed-up must not move a single row.
        //
        // Power-law hotness ranks keys in key order, so these blocks are
        // runs of consecutive keys, which `realize` deals by key. That
        // re-recorded Server C's placement hash (one 417-entry slice
        // moved). Server B's did not: each slice it caches starts where
        // its pattern's running round-robin already stood. The LP is
        // unchanged, so `predicted_secs` and the pivot counts are still
        // the values first pinned.
        for (name, platform, hash, predicted_bits, iterations) in [
            (
                "server_b",
                Platform::server_b(),
                0xcefd_1401_3667_8725u64,
                0x3f51_d44e_5565_7dffu64,
                643.0,
            ),
            (
                "server_c",
                Platform::server_c(),
                0x9676_f46f_f28a_c52c,
                0x3f36_a2ca_ef87_16e2,
                681.0,
            ),
        ] {
            let s = solver(platform);
            let h = hotness(100_000, 1.2);
            let mut cfg = SolverConfig::new(512, 40_000.0);
            cfg.dedup_adjust = true;
            let (sp, report) = emb_telemetry::collect(|| s.solve(&h, &[4_000; 8], &cfg).unwrap());
            let pivots = report
                .metrics
                .counters
                .iter()
                .find(|(k, _)| k == "policy.lp.iterations")
                .map(|&(_, v)| v);
            assert_eq!(placement_hash(&sp.placement), hash, "{name}: placement");
            assert_eq!(
                sp.predicted_secs.to_bits(),
                predicted_bits,
                "{name}: predicted_secs"
            );
            assert_eq!(pivots, Some(iterations), "{name}: policy.lp.iterations");
        }
    }

    #[test]
    fn sampled_and_spare_room_solves_match_the_values_pinned_before_the_flat_refresh() {
        // Recorded at the commit before the calibration grouped equal
        // weights, `realize` stopped allocating per entry and the solve
        // ranked once: sampled counts (76 847 zeros, 256 distinct values
        // among 100 000) take the grouped calibration through a whole
        // solve, and one GPU with room to spare makes
        // `fill_spare_capacity` walk the ranking into the zero-weight tail.
        let n = 100_000;
        let sampled = Hotness::from_counts(&test_support::sampled_counts(n, 300_000, 18, 48_271));
        let uniform = vec![4_000usize; 8];
        let mut roomy_0 = vec![1_000usize; 8];
        roomy_0[0] = 30_000;
        let mut roomy_5 = vec![1_000usize; 8];
        roomy_5[5] = 20_000;
        for (name, platform, h, caps, hash, predicted_bits, iterations) in [
            (
                "server_c, sampled",
                Platform::server_c(),
                &sampled,
                &uniform,
                0x6faf_b97e_cfcd_fb4au64,
                0x3f0d_52bf_459c_f231u64,
                632.0,
            ),
            (
                "server_b, sampled",
                Platform::server_b(),
                &sampled,
                &uniform,
                0x64db_0c16_7d2a_660d,
                0x3f41_6c31_ea23_a367,
                583.0,
            ),
            (
                "server_c, sampled, GPU0 roomy",
                Platform::server_c(),
                &sampled,
                &roomy_0,
                0x95b1_f8e7_404e_c913,
                0x3f42_4ce5_65d6_d778,
                595.0,
            ),
            (
                "server_b, power law, GPU5 roomy",
                Platform::server_b(),
                &hotness(n, 1.2),
                &roomy_5,
                0x1c60_6c65_8459_33c5,
                0x3f59_60a6_7cb4_3b72,
                604.0,
            ),
        ] {
            let s = solver(platform);
            let mut cfg = SolverConfig::new(512, 40_000.0);
            cfg.dedup_adjust = true;
            let (sp, report) = emb_telemetry::collect(|| s.solve(h, caps, &cfg).unwrap());
            let pivots = report
                .metrics
                .counters
                .iter()
                .find(|(k, _)| k == "policy.lp.iterations")
                .map(|&(_, v)| v);
            assert_eq!(placement_hash(&sp.placement), hash, "{name}: placement");
            assert_eq!(
                sp.predicted_secs.to_bits(),
                predicted_bits,
                "{name}: predicted_secs"
            );
            assert_eq!(pivots, Some(iterations), "{name}: policy.lp.iterations");
            for (j, &cap) in caps.iter().enumerate() {
                assert_eq!(sp.placement.cached_count(j), cap, "{name}: GPU{j} is full");
            }
        }
    }

    #[test]
    fn partitioned_keys_of_a_key_ordered_table_live_on_their_home_gpu() {
        // A power-law table ranks its keys in key order, so each block is
        // a run of consecutive keys and its RepK{1} slice is dealt by key:
        // the one copy of key `k` sits on GPU `k % G`, the GPU `emb-serve`
        // sends it to, and that GPU reads it locally.
        //
        // Dealt from the running round-robin instead, 131 and 417 of these
        // keys sat on another GPU: an earlier slice had left the
        // round-robin out of step with the keys.
        let n = 100_000;
        for (platform, cap, alpha) in [
            (Platform::server_a(), 12_500, 1.05),
            (Platform::server_c(), 4_000, 1.2),
        ] {
            let (g, name) = (platform.num_gpus(), platform.name.clone());
            let s = solver(platform);
            let mut cfg = SolverConfig::new(512, 40_000.0);
            cfg.dedup_adjust = true;
            let p = s
                .solve(&hotness(n, alpha), &vec![cap; g], &cfg)
                .unwrap()
                .placement;
            let mut partitioned = 0;
            for key in 0..n {
                let mut holders = (0..g).filter(|&j| p.stored[j].get(key));
                if let (Some(only), None) = (holders.next(), holders.next()) {
                    let home = gpu_platform::home_gpu(key, g);
                    assert_eq!(only, home, "{name}: key {key} is stored off its home");
                    assert_eq!(p.source(home, key) as usize, home, "{name}: key {key}");
                    partitioned += 1;
                }
            }
            assert!(partitioned >= n / 10, "{partitioned} partitioned keys");
        }
    }

    #[test]
    fn realize_places_a_block_whose_fractions_are_nan() {
        // `clamp(0.0, 1.0)` lets a NaN out of a numerically bad LP; the
        // largest-remainder order used to `unwrap` a `partial_cmp` on it.
        let s = solver(Platform::server_c());
        let h = hotness(4_000, 1.2);
        let blocks = build_blocks(&h, &small_cfg().blocks);
        let patterns = generate_patterns(s.platform());
        let mut y: Vec<Vec<f64>> = blocks
            .iter()
            .map(|_| {
                let mut row = vec![0.0; patterns.len()];
                row[1] = 1.0;
                row
            })
            .collect();
        y[0] = vec![f64::NAN; patterns.len()];
        y[1][2] = f64::NAN;
        let caps = [300usize; 8];
        let p = s.realize(&h, &blocks, &patterns, &y, &caps).unwrap();
        p.validate().unwrap();
        for (j, &cap) in caps.iter().enumerate() {
            assert!(p.cached_count(j) <= cap, "GPU{j}");
        }
    }

    #[test]
    fn the_zero_tail_is_dealt_by_the_lp_and_by_the_spare_capacity_fill() {
        // The cases `tests/zero_tail.rs` pins to the dense path's bits
        // must reach the zero tail both ways: a caching pattern's slice of
        // a zero block listed by `realize`, and `fill_spare_capacity`
        // walking past the last non-zero entry.
        let mut roomy = vec![600; 8];
        roomy[3] = 6_000;
        let platforms = [
            (Platform::server_a(), vec![2_000; 4]),
            (Platform::server_b(), roomy),
        ];
        let (mut by_lp, mut by_fill) = (Vec::new(), Vec::new());
        for (name, w) in test_support::zero_share_cases(30_000) {
            for (platform, caps) in &platforms {
                let s = solver(platform.clone());
                let mut cfg = SolverConfig::new(512, 1_000.0);
                cfg.dedup_adjust = true;
                let h = cfg.adjusted(&Hotness::new(w.clone())).into_owned();
                let mut bcfg = cfg.blocks;
                bcfg.min_splits = bcfg.min_splits.max(platform.num_gpus());
                let blocks = build_blocks(&h, &bcfg);
                let patterns = generate_patterns(platform);
                let (model, y_ids, _) = s.build_lp(&blocks, &patterns, caps, &cfg);
                let sol = milp::solve_lp(&model).unwrap();
                let y: Vec<Vec<f64>> = y_ids
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|&v| sol.x[v.index()].clamp(0.0, 1.0))
                            .collect()
                    })
                    .collect();
                let zeros_cached = |p: &Placement| {
                    h.zero_entries(0..h.len() - h.nonzero_count())
                        .filter(|&e| (0..p.num_gpus).any(|j| p.stored[j].get(e as usize)))
                        .count()
                };
                let mut p = s.realize(&h, &blocks, &patterns, &y, caps).unwrap();
                let dealt = zeros_cached(&p);
                s.fill_spare_capacity(&mut p, caps, &h, &blocks).unwrap();
                let what = format!("{name}, {}", platform.name);
                if dealt > 0 {
                    by_lp.push(what.clone());
                }
                if zeros_cached(&p) > dealt {
                    by_fill.push(what);
                }
            }
        }
        for (how, reached, case) in [
            ("the LP", &by_lp, "97 % zeros, ServerA-4xV100"),
            ("the LP", &by_lp, "one non-zero, ServerB-8xV100"),
            ("the fill", &by_fill, "97 % zeros, ServerB-8xV100"),
            ("the fill", &by_fill, "sampled, ServerB-8xV100"),
        ] {
            assert!(
                reached.iter().any(|r| r == case),
                "{how} misses {case}: {reached:?}"
            );
        }
    }

    #[test]
    fn empty_hotness() {
        let s = solver(Platform::server_a());
        let sp = s
            .solve(&Hotness::new(vec![]), &[10; 4], &small_cfg())
            .unwrap();
        assert_eq!(sp.placement.num_entries, 0);
        assert_eq!(sp.num_blocks, 0);
    }
}
