//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repository root is rendered from
//! this module (`-- catalog --json`) and a test keeps the two equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates, hit shares).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its fixed name and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name later issues cite.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "gnn_train",
        why: "Read-only steady state, big batches on a non-uniform topology: emb-cache's functional gather is ~9/10 of a step, solver and generators do nothing in the timed loop.",
    },
    Workload {
        name: "dlr_refresh",
        why: "The same cache written while read: the Refresher moves arena rows and swaps location tables between gathers, and the re-solve sits on the serving path.",
    },
    Workload {
        name: "serve_online",
        why: "Open-loop Poisson arrivals, batches of at most 512 keys under a telemetry scope: per-call fixed cost dominates and the functional gather is never called.",
    },
    Workload {
        name: "eval_sweep",
        why: "The fig10/11/12 pattern users of `repro all` wait for: cold solver builds, batch generation and naive-dispatch simulation repeated per cell; emb-cache does nothing.",
    },
];

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name (`sim_` prefix: simulated, deterministic per seed).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which a later change may worsen
    /// the metric. It has to hold the spread between *seeds* (the driver
    /// runs each workload at ten seeds), so for `sim_` metrics it is far
    /// wider than the 1e-6 that `selfcheck` enforces at one seed.
    pub bound: f64,
}

/// Relative tolerance for a `sim_` metric between two runs at one seed.
pub const SIM_TOLERANCE: f64 = 1e-6;

/// The nine end-to-end metrics; every workload reports every one.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "refresh_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "sim_step_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "sim_max_rate_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_refresh_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "sim_speedup_geomean",
        unit: "x",
        better: Better::Higher,
        bound: 0.08,
    },
];

/// One per-layer metric of the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<crate>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric; a traced run prints all of them, zero where
/// the workload does not reach the layer.
pub const PER_LAYER: &[PerLayer] = &[
    layer(
        "emb-graph.preset_s",
        "s",
        Lower,
        "setup_s on gnn_train, eval_sweep",
    ),
    layer(
        "emb-workload.gnn_batch_ms",
        "ms",
        Lower,
        "ops_per_s on eval_sweep; setup_s on gnn_train",
    ),
    layer(
        "emb-workload.dlr_batch_ms",
        "ms",
        Lower,
        "ops_per_s on eval_sweep; setup_s on dlr_refresh",
    ),
    layer(
        "emb-workload.hotness_s",
        "s",
        Lower,
        "setup_s on gnn_train, dlr_refresh, eval_sweep",
    ),
    layer(
        "emb-workload.keys_per_batch",
        "count",
        Lower,
        "none by itself; sizes every step metric",
    ),
    layer(
        "gpu-platform.profile_ms",
        "ms",
        Lower,
        "ops_per_s on eval_sweep",
    ),
    layer(
        "cache-policy.solve_s",
        "s",
        Lower,
        "setup_s everywhere; refresh_s on dlr_refresh; ops_per_s on eval_sweep",
    ),
    layer(
        "cache-policy.blocks_ms",
        "ms",
        Lower,
        "cache-policy.solve_s",
    ),
    layer(
        "cache-policy.baseline_ms",
        "ms",
        Lower,
        "ops_per_s on eval_sweep",
    ),
    layer("cache-policy.estimate_ms", "ms", Lower, "refresh_s"),
    layer(
        "cache-policy.blocks",
        "count",
        Lower,
        "cache-policy.solve_s",
    ),
    layer(
        "cache-policy.patterns",
        "count",
        Lower,
        "cache-policy.solve_s",
    ),
    layer(
        "cache-policy.local_hit_rate",
        "share",
        Higher,
        "sim_step_us, sim_speedup_geomean",
    ),
    layer(
        "cache-policy.global_hit_rate",
        "share",
        Higher,
        "sim_step_us, sim_speedup_geomean",
    ),
    layer(
        "cache-policy.estimate_error",
        "share",
        Lower,
        "sim_step_us (how far the LP's time model is from the simulator)",
    ),
    layer("milp.lp_solves", "count", Lower, "cache-policy.solve_s"),
    layer(
        "milp.lp_iterations",
        "count",
        Lower,
        "cache-policy.solve_s, hence refresh_s and setup_s",
    ),
    layer(
        "milp.lp_max_residual",
        "abs",
        Lower,
        "none (numerical health of the solve)",
    ),
    layer("emb-cache.fill_s", "s", Lower, "setup_s"),
    layer(
        "emb-cache.split_ms",
        "ms",
        Lower,
        "ops_per_s on step workloads",
    ),
    layer(
        "emb-cache.plan_ms",
        "ms",
        Lower,
        "ops_per_s on gnn_train, dlr_refresh",
    ),
    layer(
        "emb-cache.copy_ms",
        "ms",
        Lower,
        "ops_per_s on gnn_train (most), dlr_refresh",
    ),
    layer(
        "emb-cache.gather_ms",
        "ms",
        Lower,
        "ops_per_s on gnn_train (most), dlr_refresh; zero on serve_online, eval_sweep",
    ),
    layer(
        "emb-cache.gather_gbps",
        "GB/s",
        Higher,
        "ops_per_s on gnn_train, dlr_refresh",
    ),
    layer(
        "emb-cache.sampler_ms",
        "ms",
        Lower,
        "ops_per_s on step workloads",
    ),
    layer("emb-cache.refresh_tick_ms", "ms", Lower, "refresh_s"),
    layer(
        "emb-cache.refresh_rows_moved",
        "count",
        Lower,
        "refresh_s, sim_refresh_s",
    ),
    layer("emb-cache.local_share", "share", Higher, "sim_step_us"),
    layer("emb-cache.remote_share", "share", Lower, "sim_step_us"),
    layer("emb-cache.host_share", "share", Lower, "sim_step_us"),
    layer(
        "extractor.works_ms",
        "ms",
        Lower,
        "ops_per_s on serve_online, eval_sweep",
    ),
    layer(
        "extractor.extract_ms",
        "ms",
        Lower,
        "ops_per_s on serve_online, eval_sweep",
    ),
    layer(
        "extractor.self_ms",
        "ms",
        Lower,
        "ops_per_s on serve_online (telemetry bookkeeping), eval_sweep (message-based model)",
    ),
    layer(
        "gpu-memsim.simulate_ms",
        "ms",
        Lower,
        "ops_per_s on eval_sweep, serve_online; small on gnn_train",
    ),
    layer(
        "gpu-memsim.flows_per_call",
        "count",
        Lower,
        "gpu-memsim.simulate_ms",
    ),
    layer(
        "gpu-memsim.events_per_call",
        "count",
        Lower,
        "gpu-memsim.simulate_ms",
    ),
    layer(
        "gpu-memsim.us_per_event",
        "us",
        Lower,
        "gpu-memsim.simulate_ms",
    ),
    layer("gpu-memsim.stall_core_share", "share", Lower, "sim_step_us"),
    layer("gpu-memsim.congested_flows", "count", Lower, "sim_step_us"),
    layer(
        "ugache.process_iteration_ms",
        "ms",
        Lower,
        "ops_per_s on step workloads",
    ),
    layer("ugache.self_ms", "ms", Lower, "ops_per_s on step workloads"),
    layer(
        "ugache.build_s",
        "s",
        Lower,
        "setup_s; ops_per_s on eval_sweep",
    ),
    layer("ugache.consider_refresh_s", "s", Lower, "refresh_s"),
    layer(
        "emb-serve.draw_us_per_req",
        "us",
        Lower,
        "setup_s on serve_online",
    ),
    layer(
        "emb-serve.admission_us_per_batch",
        "us",
        Lower,
        "ops_per_s on serve_online",
    ),
    layer(
        "emb-serve.run_us_per_req",
        "us",
        Lower,
        "ops_per_s on serve_online",
    ),
    layer(
        "emb-serve.self_share",
        "share",
        Lower,
        "ops_per_s on serve_online",
    ),
    layer("emb-serve.mean_batch", "count", Higher, "sim_max_rate_rps"),
    layer(
        "emb-serve.queue_share",
        "share",
        Lower,
        "sim_p99_us, sim_max_rate_rps",
    ),
    layer("emb-serve.batch_wait_share", "share", Lower, "sim_p99_us"),
    layer(
        "emb-serve.extract_share",
        "share",
        Lower,
        "sim_p99_us, sim_max_rate_rps",
    ),
    layer(
        "emb-telemetry.overhead_ratio",
        "x",
        Lower,
        "ops_per_s on serve_online only",
    ),
    layer(
        "emb-telemetry.events_per_op",
        "count",
        Lower,
        "ops_per_s, peak_rss_mb on serve_online",
    ),
    layer(
        "emb-graph.op_share",
        "share",
        Lower,
        "ledger: share of the traced op span",
    ),
    layer(
        "emb-workload.op_share",
        "share",
        Lower,
        "ledger: share of the traced op span",
    ),
    layer(
        "gpu-platform.op_share",
        "share",
        Lower,
        "ledger: share of the traced op span",
    ),
    layer(
        "cache-policy.op_share",
        "share",
        Lower,
        "ledger: share of the traced op span (includes milp)",
    ),
    layer(
        "emb-cache.op_share",
        "share",
        Lower,
        "ledger: share of the traced op span",
    ),
    layer(
        "extractor.op_share",
        "share",
        Lower,
        "ledger: share of the traced op span",
    ),
    layer(
        "gpu-memsim.op_share",
        "share",
        Lower,
        "ledger: share of the traced op span",
    ),
    layer(
        "ugache.op_share",
        "share",
        Lower,
        "ledger: share of the traced op span",
    ),
    layer(
        "emb-serve.op_share",
        "share",
        Lower,
        "ledger: share of the traced op span",
    ),
    layer(
        "emb-telemetry.op_share",
        "share",
        Lower,
        "ledger: share of the traced op span",
    ),
    layer(
        "bench.op_share",
        "share",
        Lower,
        "ledger: the harness's own share (checks, loops); the layers sum to 1 minus this",
    ),
    layer("bench.op_ms", "ms", Lower, "ledger: mean traced op span"),
    layer(
        "bench.trace_overhead_ratio",
        "x",
        Higher,
        "none (untraced / traced ops_per_s)",
    ),
    layer(
        "bench.traced_ops",
        "count",
        Higher,
        "none (sample size of the traced pass)",
    ),
];

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The seconds one run measures (`run_seconds` of `BENCHMARK.json`); op
/// counts are sized for it on the reference box.
pub const RUN_SECONDS: u32 = 12;

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name,
            escape(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.word()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --release -- catalog --json > ../BENCHMARK.json`"
        );
    }
}
