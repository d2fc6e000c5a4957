//! The paper-faithful placement MILP (§6.2) and its solutions.
//!
//! This module builds exactly the optimization problem of the paper —
//! binary `a^e_{i←j}` access variables, binary `s^e_j` storage variables,
//! capacity and accessibility constraints, the `R`-weighted time bounds —
//! at a chosen unit granularity (entries, or blocks from §6.3), and
//! solves it with the in-repo branch-and-bound. It is exponential in the
//! worst case and meant for *small* instances: its one use is this
//! module's tests, which cross-validate the fast pattern-LP solver
//! against it. Figure 16 does not call it (EXPERIMENTS.md, "Figure 16").

use crate::types::{Hotness, Placement, SourceIdx};
use gpu_platform::{Location, Platform, Profile};
use milp::{ConstraintSense, LinExpr, MilpOptions, MilpStatus, Model};

/// A placement unit: one or more interchangeable entries decided together.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitSpec {
    /// The entry ids in the unit.
    pub entries: Vec<u32>,
    /// Total normalized hotness of the unit.
    pub weight: f64,
}

impl UnitSpec {
    /// One unit per entry.
    pub fn per_entry(hotness: &Hotness) -> Vec<UnitSpec> {
        let norm = hotness.normalized();
        (0..hotness.len())
            .map(|e| UnitSpec {
                entries: vec![e as u32],
                weight: norm[e],
            })
            .collect()
    }
}

/// Solution of the paper MILP.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperSolution {
    /// `access[u][i]`: the source GPU `i` reads unit `u` from.
    pub access: Vec<Vec<SourceIdx>>,
    /// Objective value (estimated extraction seconds).
    pub objective: f64,
    /// Proven lower bound (equals objective when solved to optimality).
    pub bound: f64,
    /// Whether the branch-and-bound proved optimality.
    pub proven_optimal: bool,
}

/// Builds and solves the paper MILP.
///
/// With `integral = false` the binaries are relaxed to `[0,1]` and the
/// returned `objective`/`bound` is the LP lower bound (access is the
/// per-unit argmax and may not be capacity-exact — use it for bounds, not
/// placements).
///
/// # Errors
///
/// Returns an error when no integer-feasible solution is found within the
/// node budget or the LP fails numerically.
#[allow(clippy::too_many_arguments)]
pub fn solve_paper_milp(
    platform: &Platform,
    profile: &Profile,
    units: &[UnitSpec],
    cap_entries: &[usize],
    entry_bytes: usize,
    accesses_per_iter: f64,
    integral: bool,
    opts: &MilpOptions,
) -> Result<PaperSolution, String> {
    let g = platform.num_gpus();
    let host = g;
    // Normalize time so LP coefficients sit near 1 (see the solver's
    // `build_lp`): one unit = pulling the whole batch from host.
    let worst_t = (0..g)
        .map(|i| profile.sec_per_byte[i][host])
        .fold(0.0f64, f64::max);
    let time_unit = (accesses_per_iter * entry_bytes as f64 * worst_t).max(1e-300);
    let scale = accesses_per_iter * entry_bytes as f64 / time_unit;
    let mut m = Model::new();

    // a[u][i][j]: Some(var) only for reachable j.
    let mut a: Vec<Vec<Vec<Option<milp::VarId>>>> = Vec::with_capacity(units.len());
    let mut s: Vec<Vec<milp::VarId>> = Vec::with_capacity(units.len());
    for (u, _) in units.iter().enumerate() {
        let mut a_u = Vec::with_capacity(g);
        for i in 0..g {
            let mut row = Vec::with_capacity(host + 1);
            for j in 0..=host {
                let reachable = if j == host {
                    true
                } else {
                    j == i || platform.connected(i, Location::Gpu(j))
                };
                row.push(
                    reachable
                        .then(|| m.add_var(&format!("a_{u}_{i}_{j}"), 0.0, 1.0, 0.0, integral)),
                );
            }
            a_u.push(row);
        }
        a.push(a_u);
        s.push(
            (0..g)
                .map(|j| m.add_var(&format!("s_{u}_{j}"), 0.0, 1.0, 0.0, integral))
                .collect(),
        );
    }
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

    for (u, _) in units.iter().enumerate() {
        for i in 0..g {
            // Σ_j a = 1.
            let expr = LinExpr::from_terms(a[u][i].iter().flatten().map(|&v| (v, 1.0)));
            m.add_constraint(expr, ConstraintSense::Eq, 1.0);
            // s_j ≥ a_{i←j} for GPU sources.
            for j in 0..g {
                if let Some(v) = a[u][i][j] {
                    let expr = LinExpr::new().plus(s[u][j], 1.0).plus(v, -1.0);
                    m.add_constraint(expr, ConstraintSense::Ge, 0.0);
                }
            }
        }
    }
    // Capacity.
    for j in 0..g {
        let expr = LinExpr::from_terms(
            units
                .iter()
                .enumerate()
                .map(|(u, spec)| (s[u][j], spec.entries.len() as f64)),
        );
        m.add_constraint(expr, ConstraintSense::Le, cap_entries[j] as f64);
    }
    // tj definitions and time bounds.
    for i in 0..g {
        for j in 0..=host {
            let t_cost = profile.sec_per_byte[i][j];
            let mut expr = LinExpr::new().plus(tj[i][j], -1.0);
            for (u, spec) in units.iter().enumerate() {
                if let Some(v) = a[u][i][j] {
                    expr = expr.plus(v, spec.weight * scale * t_cost);
                }
            }
            m.add_constraint(expr, ConstraintSense::Eq, 0.0);
            let bound = LinExpr::new().plus(t[i], 1.0).plus(tj[i][j], -1.0);
            m.add_constraint(bound, ConstraintSense::Ge, 0.0);
        }
        let mut padded = LinExpr::new().plus(t[i], 1.0);
        for j in 0..=host {
            let r = profile.r[i][j];
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

    let (x, objective, bound, proven) = if integral {
        let r = milp::solve_milp(&m, opts);
        match r.status {
            MilpStatus::Optimal => (r.x, r.objective * time_unit, r.bound * time_unit, true),
            MilpStatus::Feasible => (r.x, r.objective * time_unit, r.bound * time_unit, false),
            other => return Err(format!("paper MILP failed: {other:?}")),
        }
    } else {
        let r = milp::solve_lp(&m).map_err(|e| format!("paper LP failed: {e:?}"))?;
        emb_telemetry::count("policy.lp.solves", 1.0);
        emb_telemetry::count("policy.lp.iterations", r.iterations as f64);
        emb_telemetry::observe("policy.lp.residual", r.max_residual);
        let obj = r.objective * time_unit;
        (r.x, obj, obj, true)
    };
    emb_telemetry::count("policy.paper_milp.solves", 1.0);

    // Per-unit access: argmax over a[u][i][·].
    let mut access = vec![vec![0 as SourceIdx; g]; units.len()];
    for (u, _) in units.iter().enumerate() {
        for i in 0..g {
            let mut best = (host, -1.0f64);
            for j in 0..=host {
                if let Some(v) = a[u][i][j] {
                    let val = x[v.index()];
                    if val > best.1 {
                        best = (j, val);
                    }
                }
            }
            access[u][i] = best.0 as SourceIdx;
        }
    }
    Ok(PaperSolution {
        access,
        objective,
        bound,
        proven_optimal: proven,
    })
}

/// Expands a per-unit solution into an entry-level [`Placement`].
pub fn realize_paper(
    units: &[UnitSpec],
    solution: &PaperSolution,
    num_gpus: usize,
    num_entries: usize,
) -> Placement {
    let mut p = Placement::all_host(num_gpus, num_entries);
    for (u, spec) in units.iter().enumerate() {
        for &e in &spec.entries {
            for i in 0..num_gpus {
                let src = solution.access[u][i];
                p.access[i][e as usize] = src;
                if (src as usize) < num_gpus {
                    p.stored[src as usize][e as usize] = true;
                }
            }
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_extraction_time;
    use crate::solver::{SolverConfig, UGacheSolver};
    use emb_util::zipf::powerlaw_hotness;
    use gpu_platform::DedicationConfig;

    fn tiny_platform() -> Platform {
        let mut p = Platform::server_a();
        p.gpus.truncate(2);
        if let gpu_platform::Interconnect::HardWired { pair_bw } = &mut p.interconnect {
            pair_bw.truncate(2);
            for row in pair_bw.iter_mut() {
                row.truncate(2);
            }
        }
        p
    }

    #[test]
    fn milp_respects_capacity_and_accessibility() {
        let plat = tiny_platform();
        let prof = Profile::new(&plat, DedicationConfig::default());
        let h = Hotness::new(powerlaw_hotness(10, 1.2));
        let units = UnitSpec::per_entry(&h);
        let sol = solve_paper_milp(
            &plat,
            &prof,
            &units,
            &[3, 3],
            512,
            1e5,
            true,
            &MilpOptions::default(),
        )
        .unwrap();
        assert!(sol.proven_optimal);
        let p = realize_paper(&units, &sol, 2, 10);
        p.validate().unwrap();
        assert!(p.cached_count(0) <= 3);
        assert!(p.cached_count(1) <= 3);
    }

    #[test]
    fn milp_objective_matches_realized_estimate() {
        let plat = tiny_platform();
        let prof = Profile::new(&plat, DedicationConfig::default());
        let h = Hotness::new(powerlaw_hotness(8, 1.4));
        let units = UnitSpec::per_entry(&h);
        let sol = solve_paper_milp(
            &plat,
            &prof,
            &units,
            &[2, 2],
            512,
            1e5,
            true,
            &MilpOptions::default(),
        )
        .unwrap();
        let p = realize_paper(&units, &sol, 2, 8);
        let est = estimate_extraction_time(&p, &h, &prof, 512, 1e5).makespan;
        // The MILP access arrangement is exactly the estimate model, so
        // objective and realized estimate agree.
        assert!(
            (est - sol.objective).abs() / sol.objective < 1e-6,
            "est {est} vs obj {}",
            sol.objective
        );
    }

    #[test]
    fn lp_relaxation_bounds_milp() {
        let plat = tiny_platform();
        let prof = Profile::new(&plat, DedicationConfig::default());
        let h = Hotness::new(powerlaw_hotness(10, 1.2));
        let units = UnitSpec::per_entry(&h);
        let lp = solve_paper_milp(
            &plat,
            &prof,
            &units,
            &[3, 3],
            512,
            1e5,
            false,
            &MilpOptions::default(),
        )
        .unwrap();
        let ip = solve_paper_milp(
            &plat,
            &prof,
            &units,
            &[3, 3],
            512,
            1e5,
            true,
            &MilpOptions::default(),
        )
        .unwrap();
        assert!(lp.objective <= ip.objective + 1e-9);
    }

    #[test]
    fn milp_prefers_replication_when_capacity_is_plentiful() {
        let plat = tiny_platform();
        let prof = Profile::new(&plat, DedicationConfig::default());
        let h = Hotness::new(powerlaw_hotness(6, 1.2));
        let units = UnitSpec::per_entry(&h);
        let sol = solve_paper_milp(
            &plat,
            &prof,
            &units,
            &[6, 6],
            512,
            1e5,
            true,
            &MilpOptions::default(),
        )
        .unwrap();
        let p = realize_paper(&units, &sol, 2, 6);
        // Everything fits everywhere → all local reads.
        assert!(p.local_hit_rate(&h) > 0.999);
    }

    #[test]
    fn pattern_lp_solver_is_near_optimal_on_tiny_instance() {
        let plat = tiny_platform();
        let prof = Profile::new(&plat, DedicationConfig::default());
        let h = Hotness::new(powerlaw_hotness(12, 1.2));
        let units = UnitSpec::per_entry(&h);
        let caps = [4usize, 4];
        let milp_sol = solve_paper_milp(
            &plat,
            &prof,
            &units,
            &caps,
            512,
            1e5,
            true,
            &MilpOptions {
                max_nodes: 50_000,
                ..Default::default()
            },
        )
        .unwrap();

        let solver = UGacheSolver::new(plat, DedicationConfig::default());
        let cfg = SolverConfig {
            blocks: crate::blocks::BlockConfig {
                coarse_cap: 0.1,
                min_splits: 2,
                max_blocks: 32,
            },
            entry_bytes: 512,
            accesses_per_iter: 1e5,
            dedup_adjust: false,
        };
        let sp = solver.solve(&h, &caps, &cfg).unwrap();
        let realized = estimate_extraction_time(&sp.placement, &h, &prof, 512, 1e5).makespan;
        // The paper reports <2% gap; on tiny instances allow 10% headroom
        // for block-granularity rounding.
        assert!(
            realized <= milp_sol.objective * 1.25 + 1e-12,
            "solver {realized} vs optimal {}",
            milp_sol.objective
        );
    }
}
