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
//! granularity; the paper's full binary MILP is kept in
//! [`crate::optimal`] for comparison.

use crate::blocks::{build_blocks, Block, BlockConfig};
use crate::patterns::{generate_patterns, Pattern};
use crate::types::{Hotness, Placement};
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
    /// calibration makes ~60 passes of `exp` over every entry, so a
    /// caller that needs the adjusted hotness for more than the solve
    /// (the refresh trigger compares two estimates on it) takes it once
    /// here and hands it to [`UGacheSolver::solve_adjusted`].
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

    /// The shared front half of both solve paths: hotness blocks and
    /// candidate patterns for already-adjusted hotness, or — as `Err` —
    /// the all-host policy when there is nothing to place.
    fn blocks_and_patterns(
        &self,
        hotness: &Hotness,
        cap_entries: &[usize],
        cfg: &SolverConfig,
    ) -> Result<(Vec<Block>, Vec<Pattern>), SolvedPolicy> {
        let g = self.platform.num_gpus();
        assert_eq!(cap_entries.len(), g, "one capacity per GPU");
        let mut bcfg = cfg.blocks;
        bcfg.min_splits = bcfg.min_splits.max(g);
        let blocks = build_blocks(hotness, &bcfg);
        let patterns = generate_patterns(&self.platform);
        if blocks.is_empty() {
            return Err(SolvedPolicy {
                placement: Placement::all_host(g, hotness.len()),
                predicted_secs: 0.0,
                num_blocks: 0,
                num_patterns: patterns.len(),
            });
        }
        Ok((blocks, patterns))
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
        let e = hotness.len();
        let (blocks, patterns) = match self.blocks_and_patterns(hotness, cap_entries, cfg) {
            Ok(front) => front,
            Err(all_host) => return Ok(all_host),
        };

        let (model, y_ids, time_unit) = self.build_lp(&blocks, &patterns, cap_entries, cfg);
        let sol = milp::solve_lp(&model).map_err(|s| format!("policy LP failed: {s:?}"))?;

        emb_telemetry::count("policy.lp.solves", 1.0);
        emb_telemetry::count("policy.lp.iterations", sol.iterations as f64);
        emb_telemetry::observe("policy.lp.residual", sol.max_residual);
        emb_telemetry::count("policy.blocks", blocks.len() as f64);
        emb_telemetry::count("policy.patterns", patterns.len() as f64);
        emb_telemetry::event("policy.solve", || {
            vec![
                (
                    "blocks".to_string(),
                    emb_telemetry::EventValue::U64(blocks.len() as u64),
                ),
                (
                    "patterns".to_string(),
                    emb_telemetry::EventValue::U64(patterns.len() as u64),
                ),
                (
                    "lp_iterations".to_string(),
                    emb_telemetry::EventValue::U64(sol.iterations as u64),
                ),
                (
                    "lp_residual".to_string(),
                    emb_telemetry::EventValue::F64(sol.max_residual),
                ),
                (
                    "predicted_secs".to_string(),
                    emb_telemetry::EventValue::F64(sol.objective * time_unit),
                ),
            ]
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

        let mut placement = self.realize(&blocks, &patterns, &y, cap_entries, e);
        self.fill_spare_capacity(&mut placement, cap_entries, hotness);
        debug_assert!(placement.validate().is_ok());
        Ok(SolvedPolicy {
            placement,
            predicted_secs: sol.objective * time_unit,
            num_blocks: blocks.len(),
            num_patterns: patterns.len(),
        })
    }

    /// Solves for a placement by decomposing the pattern LP into one
    /// small, independent LP per hotness block, solved on the
    /// `emb_util::pool` worker pool (`--threads N`).
    ///
    /// Each GPU's capacity is pre-split across blocks by hotness weight
    /// (waterfilled, largest-remainder rounded), which makes the
    /// per-block LPs independent by construction: hot blocks get enough
    /// room to replicate, cold blocks spill to host — the same shape the
    /// joint LP converges to. The joint LP ([`UGacheSolver::solve`])
    /// remains the figure-quality path; decomposition trades a small
    /// amount of placement quality for solve time that drops with both
    /// the block count (simplex cost is superlinear in LP size) and the
    /// worker count.
    ///
    /// Per-block telemetry (`policy.lp.*`) is recorded inside each
    /// block's pool chunk and absorbed in block order, so counters and
    /// traces are identical at any thread count. The realized placement
    /// is bitwise-identical across thread counts: block solves are
    /// independent, and realization runs serially in block order.
    ///
    /// # Errors
    ///
    /// Returns an error if any per-block LP fails numerically.
    pub fn solve_decomposed(
        &self,
        hotness: &Hotness,
        cap_entries: &[usize],
        cfg: &SolverConfig,
    ) -> Result<SolvedPolicy, String> {
        let e = hotness.len();
        let hotness = cfg.adjusted(hotness);
        let (blocks, patterns) = match self.blocks_and_patterns(&hotness, cap_entries, cfg) {
            Ok(front) => front,
            Err(all_host) => return Ok(all_host),
        };

        let shares = block_capacity_shares(&blocks, cap_entries);
        let solved = emb_util::pool::par_indexed(blocks.len(), |b| {
            let (model, y_ids) = self.build_block_lp(&blocks[b], &patterns, &shares[b], cfg);
            let sol =
                milp::solve_lp(&model).map_err(|s| format!("policy block {b} LP failed: {s:?}"))?;
            emb_telemetry::count("policy.lp.solves", 1.0);
            emb_telemetry::count("policy.lp.iterations", sol.iterations as f64);
            emb_telemetry::observe("policy.lp.residual", sol.max_residual);
            emb_telemetry::event("policy.block_solve", || {
                vec![
                    (
                        "block".to_string(),
                        emb_telemetry::EventValue::U64(b as u64),
                    ),
                    (
                        "lp_iterations".to_string(),
                        emb_telemetry::EventValue::U64(sol.iterations as u64),
                    ),
                    (
                        "lp_residual".to_string(),
                        emb_telemetry::EventValue::F64(sol.max_residual),
                    ),
                ]
            });
            let y_row: Vec<f64> = y_ids
                .iter()
                .map(|&v| sol.x[v.index()].clamp(0.0, 1.0))
                .collect();
            Ok(y_row)
        });
        let y: Vec<Vec<f64>> = solved.into_iter().collect::<Result<_, String>>()?;

        emb_telemetry::count("policy.blocks", blocks.len() as f64);
        emb_telemetry::count("policy.patterns", patterns.len() as f64);

        let mut placement = self.realize(&blocks, &patterns, &y, cap_entries, e);
        self.fill_spare_capacity(&mut placement, cap_entries, &hotness);
        debug_assert!(placement.validate().is_ok());
        let predicted_secs = crate::estimate::estimate_extraction_time(
            &placement,
            &hotness,
            &self.profile,
            cfg.entry_bytes,
            cfg.accesses_per_iter,
        )
        .makespan;
        emb_telemetry::event("policy.solve_decomposed", || {
            vec![
                (
                    "blocks".to_string(),
                    emb_telemetry::EventValue::U64(blocks.len() as u64),
                ),
                (
                    "patterns".to_string(),
                    emb_telemetry::EventValue::U64(patterns.len() as u64),
                ),
                (
                    "predicted_secs".to_string(),
                    emb_telemetry::EventValue::F64(predicted_secs),
                ),
            ]
        });
        Ok(SolvedPolicy {
            placement,
            predicted_secs,
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
            .enumerate()
            .map(|(b, _)| {
                patterns
                    .iter()
                    .enumerate()
                    .map(|(p, _)| m.add_var(&format!("y_{b}_{p}"), 0.0, 1.0, 0.0, false))
                    .collect()
            })
            .collect();
        let tj: Vec<Vec<milp::VarId>> = (0..g)
            .map(|i| {
                (0..=host)
                    .map(|j| m.add_nonneg(&format!("tj_{i}_{j}"), 0.0))
                    .collect()
            })
            .collect();
        let t: Vec<milp::VarId> = (0..g)
            .map(|i| m.add_nonneg(&format!("t_{i}"), 0.0))
            .collect();
        let z = m.add_nonneg("z", 1.0);

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

    /// Builds the reduced LP for a single block. Unlike [`Self::build_lp`]
    /// — which carries one `tj[i][j]` variable and one defining equality
    /// per GPU/source pair — the per-source extraction times of a single
    /// block are fixed linear functions of its `y` fractions, so they are
    /// substituted directly into the max/padding rows. That shrinks the
    /// model from ~90 variables and ~170 rows (mostly equalities needing
    /// phase-1 artificials) to `P + G + 1` variables and ~`G·(G+2)`
    /// inequalities with a trivial slack basis, which is what makes the
    /// decomposed solve cheaper than the joint LP per block.
    ///
    /// Returns the model and the block's `y[p]` ids; the time unit
    /// matches [`Self::build_lp`] (the objective is the block's makespan
    /// in that unit, unused by the decomposed path).
    fn build_block_lp(
        &self,
        block: &Block,
        patterns: &[Pattern],
        cap_entries: &[usize],
        cfg: &SolverConfig,
    ) -> (Model, Vec<milp::VarId>) {
        let g = self.platform.num_gpus();
        let host = g;
        let worst_t = (0..g)
            .map(|i| self.profile.sec_per_byte[i][host])
            .fold(0.0f64, f64::max);
        let time_unit = (cfg.accesses_per_iter * cfg.entry_bytes as f64 * worst_t).max(1e-300);
        let scale = cfg.accesses_per_iter * cfg.entry_bytes as f64 / time_unit;
        let mut m = Model::new();

        let y: Vec<milp::VarId> = (0..patterns.len())
            .map(|p| m.add_var(&format!("y_{p}"), 0.0, 1.0, 0.0, false))
            .collect();
        let t: Vec<milp::VarId> = (0..g)
            .map(|i| m.add_nonneg(&format!("t_{i}"), 0.0))
            .collect();
        let z = m.add_nonneg("z", 1.0);

        // The block fully assigned.
        let expr = LinExpr::from_terms(y.iter().map(|&v| (v, 1.0)));
        m.add_constraint(expr, ConstraintSense::Eq, 1.0);

        // Capacity per GPU (against this block's pre-split share).
        for j in 0..g {
            let mut expr = LinExpr::new();
            for (p, pat) in patterns.iter().enumerate() {
                let c = block.size() as f64 * pat.store_frac[j];
                if c > 0.0 {
                    expr = expr.plus(y[p], c);
                }
            }
            m.add_constraint(expr, ConstraintSense::Le, cap_entries[j] as f64);
        }

        // Substituted per-source times: coeff[j][p] is what tj[i][j]
        // contributes per unit of y[p].
        for i in 0..g {
            let mut padded = LinExpr::new().plus(t[i], 1.0);
            for j in 0..=host {
                let t_ij = self.profile.sec_per_byte[i][j];
                let mut row = LinExpr::new().plus(t[i], 1.0);
                let mut any = false;
                for (p, pat) in patterns.iter().enumerate() {
                    let read = pat.read_frac[i][j];
                    if read > 0.0 {
                        assert!(
                            t_ij.is_finite(),
                            "pattern routes GPU{i} to unreachable source {j}"
                        );
                        let coeff = block.weight * scale * t_ij * read;
                        row = row.plus(y[p], -coeff);
                        let r = self.profile.r[i][j];
                        if r > 0.0 {
                            padded = padded.plus(y[p], -r * coeff);
                        }
                        any = true;
                    }
                }
                // t_i ≥ tj[i][j]; all-zero rows reduce to t_i ≥ 0.
                if any {
                    m.add_constraint(row, ConstraintSense::Ge, 0.0);
                }
            }
            // t_i ≥ Σ_j R[i][j]·tj[i][j].
            m.add_constraint(padded, ConstraintSense::Ge, 0.0);
            // z ≥ t_i.
            m.add_constraint(
                LinExpr::new().plus(z, 1.0).plus(t[i], -1.0),
                ConstraintSense::Ge,
                0.0,
            );
        }
        (m, y)
    }

    /// Realizes fractional pattern weights into an entry-level placement.
    fn realize(
        &self,
        blocks: &[Block],
        patterns: &[Pattern],
        y: &[Vec<f64>],
        cap_entries: &[usize],
        num_entries: usize,
    ) -> Placement {
        let g = self.platform.num_gpus();
        let mut placement = Placement::all_host(g, num_entries);
        // Per-pattern running position for round-robin holder rotation.
        let mut pat_pos = vec![0usize; patterns.len()];

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
                fb.partial_cmp(&fa).unwrap()
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

            let mut cursor = 0usize;
            for (p, pat) in patterns.iter().enumerate() {
                for _ in 0..counts[p] {
                    if cursor >= n {
                        break;
                    }
                    let entry = blk.entries[cursor] as usize;
                    cursor += 1;
                    let r = pat_pos[p];
                    pat_pos[p] += 1;
                    let holders = pat.holders(&self.platform, r);
                    for &h in &holders {
                        placement.stored[h][entry] = true;
                    }
                    for i in 0..g {
                        match pat.source_for(&self.platform, i, r, &holders) {
                            Some(src) => placement.access[i][entry] = src as u8,
                            None => placement.access[i][entry] = placement.host_idx(),
                        }
                    }
                }
            }
        }

        self.trim_overflow(&mut placement, cap_entries);
        placement
    }

    /// Fills any leftover per-GPU capacity with extra replicas of that
    /// GPU's hottest non-resident entries, reading them locally — a
    /// strictly improving post-pass. The pattern LP places symmetrically
    /// (all paper testbeds have uniform HBM), so on heterogeneous-memory
    /// machines the larger GPUs would otherwise strand capacity.
    fn fill_spare_capacity(
        &self,
        placement: &mut Placement,
        cap_entries: &[usize],
        hotness: &Hotness,
    ) {
        let ranking = hotness.ranking();
        for j in 0..placement.num_gpus {
            let mut spare = cap_entries[j].saturating_sub(placement.cached_count(j));
            if spare == 0 {
                continue;
            }
            for &e in &ranking {
                if spare == 0 {
                    break;
                }
                let e = e as usize;
                if !placement.stored[j][e] {
                    placement.stored[j][e] = true;
                    placement.access[j][e] = j as u8;
                    spare -= 1;
                }
            }
        }
    }

    /// Evicts the coldest overflow entries on any over-capacity GPU and
    /// re-routes their readers (rounding can overshoot by ≤ one entry per
    /// block).
    fn trim_overflow(&self, placement: &mut Placement, cap_entries: &[usize]) {
        let g = placement.num_gpus;
        for j in 0..g {
            let mut held: Vec<usize> = (0..placement.num_entries)
                .filter(|&e| placement.stored[j][e])
                .collect();
            if held.len() <= cap_entries[j] {
                continue;
            }
            // Entries were laid out hottest-first, so the tail of `held`
            // (highest entry rank order not guaranteed) — evict by count
            // overflow from the end of the stored list.
            let evict = held.split_off(cap_entries[j]);
            for e in evict {
                placement.stored[j][e] = false;
                for i in 0..g {
                    if placement.access[i][e] as usize == j {
                        // Re-route: another reachable holder, else host.
                        let alt = (0..g).find(|&h| {
                            placement.stored[h][e]
                                && (h == i || self.platform.connected(i, Location::Gpu(h)))
                        });
                        placement.access[i][e] = alt.map_or(placement.host_idx(), |h| h as u8);
                    }
                }
            }
        }
    }
}

/// Splits each GPU's capacity across hotness blocks for the decomposed
/// solver: waterfilled proportional to block weight (hotness mass),
/// capped at block size, largest-remainder rounded. Hot blocks — high
/// weight per entry — reach their size cap first (full replication room)
/// and the leftover cascades to colder blocks. Returns `[block][gpu]`
/// shares with `Σ_b share[b][j] ≤ cap[j]`.
fn block_capacity_shares(blocks: &[Block], cap_entries: &[usize]) -> Vec<Vec<usize>> {
    let g = cap_entries.len();
    let mut shares = vec![vec![0usize; g]; blocks.len()];
    for (j, &cap) in cap_entries.iter().enumerate() {
        let mut rem = cap.min(blocks.iter().map(Block::size).sum());
        let mut active: Vec<usize> = (0..blocks.len()).collect();
        while rem > 0 && !active.is_empty() {
            let wsum: f64 = active.iter().map(|&b| blocks[b].weight).sum();
            // Largest-remainder allocation of `rem` units by weight.
            let quotas: Vec<f64> = active
                .iter()
                .map(|&b| {
                    if wsum > 0.0 {
                        rem as f64 * blocks[b].weight / wsum
                    } else {
                        rem as f64 / active.len() as f64
                    }
                })
                .collect();
            let mut alloc: Vec<usize> = quotas.iter().map(|&q| q.floor() as usize).collect();
            let mut short = rem.saturating_sub(alloc.iter().sum::<usize>());
            let mut order: Vec<usize> = (0..active.len()).collect();
            order.sort_by(|&a, &b| {
                let fa = quotas[a] - quotas[a].floor();
                let fb = quotas[b] - quotas[b].floor();
                fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
            });
            let mut oi = 0usize;
            while short > 0 {
                alloc[order[oi % order.len()]] += 1;
                short -= 1;
                oi += 1;
            }
            // Cap at block size; full blocks leave the active set and
            // their unused allocation cascades to the next round.
            let mut next_active = Vec::with_capacity(active.len());
            let mut progressed = false;
            for (k, &b) in active.iter().enumerate() {
                let room = blocks[b].size() - shares[b][j];
                let take = alloc[k].min(room);
                shares[b][j] += take;
                rem -= take;
                if take > 0 {
                    progressed = true;
                }
                if shares[b][j] < blocks[b].size() {
                    next_active.push(b);
                }
            }
            if !progressed {
                break;
            }
            active = next_active;
        }
    }
    shares
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
                let src = sp.placement.access[i][e];
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

    #[test]
    fn decomposed_solve_is_valid_and_close_to_joint() {
        let s = solver(Platform::server_a());
        let h = hotness(10_000, 1.2);
        let caps = vec![500usize; 4];
        let cfg = small_cfg();
        let joint = s.solve(&h, &caps, &cfg).unwrap();
        let dec = s.solve_decomposed(&h, &caps, &cfg).unwrap();
        dec.placement.validate().unwrap();
        for i in 0..4 {
            assert!(dec.placement.cached_count(i) <= 500, "GPU{i}");
        }
        assert_eq!(dec.num_blocks, joint.num_blocks);
        assert_eq!(dec.num_patterns, joint.num_patterns);
        let t_joint = estimate_extraction_time(
            &joint.placement,
            &h,
            s.profile(),
            cfg.entry_bytes,
            cfg.accesses_per_iter,
        )
        .makespan;
        let t_dec = estimate_extraction_time(
            &dec.placement,
            &h,
            s.profile(),
            cfg.entry_bytes,
            cfg.accesses_per_iter,
        )
        .makespan;
        // The capacity pre-split costs some placement quality; the
        // decomposed path must stay within 2× of the joint LP's makespan
        // (and far below all-host, which is ~10× at this cache ratio).
        assert!(
            t_dec <= t_joint * 2.0,
            "decomposed {t_dec} vs joint {t_joint}"
        );
    }

    #[test]
    fn decomposed_solve_is_identical_at_any_thread_count() {
        let s = solver(Platform::server_a());
        let h = hotness(5_000, 1.2);
        let caps = vec![300usize; 4];
        let cfg = small_cfg();
        let run = |threads: usize| {
            emb_util::pool::with_threads(threads, || {
                emb_telemetry::collect(|| s.solve_decomposed(&h, &caps, &cfg).unwrap())
            })
        };
        let (base_sp, base_report) = run(1);
        for threads in [2, 8] {
            let (sp, report) = run(threads);
            assert_eq!(base_sp.placement, sp.placement, "threads {threads}");
            assert_eq!(
                base_sp.predicted_secs.to_bits(),
                sp.predicted_secs.to_bits(),
                "threads {threads}"
            );
            assert_eq!(base_report, report, "threads {threads}");
        }
    }

    #[test]
    fn decomposed_huge_capacity_replicates_everything() {
        let s = solver(Platform::server_a());
        let h = hotness(2000, 1.2);
        let sp = s.solve_decomposed(&h, &[2000; 4], &small_cfg()).unwrap();
        let lhr = sp.placement.local_hit_rate(&h);
        assert!(lhr > 0.999, "local hit rate {lhr}");
    }

    /// FNV-1a over a placement's access and storage tables.
    fn placement_hash(p: &Placement) -> u64 {
        let access = p.access.iter().flatten().copied();
        let stored = p.stored.iter().flatten().map(|&s| u8::from(s));
        access.chain(stored).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn server_b_and_c_solves_match_the_values_pinned_before_bitset_supports() {
        // Placement hash, predicted seconds and pivot count recorded at
        // the commit before the simplex moved from sorted support lists
        // to bitsets: a solver speed-up must not move a single row.
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
                0x385f_77ef_861b_427b,
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
    fn empty_hotness() {
        let s = solver(Platform::server_a());
        let sp = s
            .solve(&Hotness::new(vec![]), &[10; 4], &small_cfg())
            .unwrap();
        assert_eq!(sp.placement.num_entries, 0);
        assert_eq!(sp.num_blocks, 0);
    }
}
