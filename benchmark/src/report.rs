//! Turning a pass into named metrics, printing them, and reading a
//! printed result back (for `selfcheck`).

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::oplog::OpLog;
use crate::trace::{Layer, Recorder};
use crate::workloads::{EndToEndValues, Traced};

/// `VmHWM` of this process in MB (0 if `/proc` cannot be read).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The nine end-to-end metrics in catalog order.
pub fn end_to_end_values(v: &EndToEndValues, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => v.setup_s,
                "ops_per_s" => v.ops_per_s,
                "refresh_s" => v.refresh_s,
                "peak_rss_mb" => peak_rss_mb,
                "sim_step_us" => v.sim_step_us,
                "sim_p99_us" => v.sim_p99_us,
                "sim_max_rate_rps" => v.sim_max_rate_rps,
                "sim_refresh_s" => v.sim_refresh_s,
                "sim_speedup_geomean" => v.sim_speedup_geomean,
                other => unreachable!("end-to-end metric `{other}` has no source"),
            };
            (m.name, value)
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Summed self time (seconds) of the spans named `name`.
fn self_secs(rec: &Recorder, name: &str) -> f64 {
    let (_, selfs) = rec.charged_and_self();
    rec.spans()
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64 / 1e9)
        .sum()
}

/// Every per-layer metric in catalog order. A workload's `extras` win
/// over the generic derivation; a metric nothing feeds is 0.
pub fn per_layer_values(t: &Traced) -> Vec<(&'static str, f64)> {
    let rec = &t.rec;
    let ledger = rec.ledger();
    let ops = ledger.ops as f64;
    let mean_secs = |name: &str| {
        let (n, secs) = rec.total(name);
        ratio(secs, n as f64)
    };
    let per_op_ms = |name: &str| ratio(rec.secs(name), ops) * 1e3;
    let c = |name: &str| rec.counted(name);
    let extra = |name: &str| t.extras.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);

    let gather_secs = rec.secs("plan_gather") + rec.secs("execute_plan");
    let tier_bytes = c("tier.local_bytes") + c("tier.remote_bytes") + c("tier.host_bytes");
    let steady_step_secs = ratio(c("steady.sim_secs"), c("steady.steps"));

    PER_LAYER
        .iter()
        .map(|m| {
            if let Some(v) = extra(m.name) {
                return (m.name, v);
            }
            if let Some(layer) = m.name.strip_suffix(".op_share") {
                let layer = Layer::ALL.into_iter().find(|l| l.name() == layer);
                return (m.name, layer.map_or(0.0, |l| ledger.share(l)));
            }
            let v = match m.name {
                "emb-graph.preset_s" => mean_secs("gnn_preset"),
                "emb-workload.gnn_batch_ms" => {
                    ratio(rec.secs("gnn_batches"), c("gnn_batches")) * 1e3
                }
                "emb-workload.dlr_batch_ms" => {
                    ratio(rec.secs("dlr_batches"), c("dlr_batches")) * 1e3
                }
                "emb-workload.hotness_s" => mean_secs("hotness"),
                "emb-workload.keys_per_batch" => ratio(c("keys"), ops),
                "gpu-platform.profile_ms" => mean_secs("UGacheSolver::new") * 1e3,
                "cache-policy.solve_s" => mean_secs("UGacheSolver::solve"),
                "cache-policy.blocks_ms" => mean_secs("build_blocks") * 1e3,
                "cache-policy.baseline_ms" => mean_secs("baseline_policy") * 1e3,
                "cache-policy.estimate_ms" => mean_secs("estimate_extraction_time") * 1e3,
                "cache-policy.blocks" => ratio(c("cache-policy.blocks"), c("solves")),
                "cache-policy.patterns" => ratio(c("cache-policy.patterns"), c("solves")),
                "cache-policy.local_hit_rate" => c("cache-policy.local_hit_rate"),
                "cache-policy.global_hit_rate" => c("cache-policy.global_hit_rate"),
                "cache-policy.estimate_error" => match extra("predicted_secs") {
                    Some(predicted) if steady_step_secs > 0.0 => predicted / steady_step_secs - 1.0,
                    _ => 0.0,
                },
                "milp.lp_solves" => c("milp.lp_solves"),
                "milp.lp_iterations" => ratio(c("milp.lp_iterations"), c("milp.lp_solves")),
                "milp.lp_max_residual" => c("milp.lp_max_residual"),
                "emb-cache.fill_s" => mean_secs("MultiGpuCache::build"),
                "emb-cache.split_ms" => per_op_ms("access_splits"),
                "emb-cache.plan_ms" => per_op_ms("plan_gather"),
                "emb-cache.copy_ms" => per_op_ms("execute_plan"),
                "emb-cache.gather_ms" => ratio(gather_secs, ops) * 1e3,
                "emb-cache.gather_gbps" => ratio(c("emb-cache.bytes_copied"), gather_secs) / 1e9,
                "emb-cache.sampler_ms" => per_op_ms("HotnessSampler::observe"),
                "emb-cache.refresh_tick_ms" => {
                    ratio(rec.secs("Refresher::tick"), c("refreshes")) * 1e3
                }
                "emb-cache.refresh_rows_moved" => {
                    ratio(c("emb-cache.refresh_rows_moved"), c("refreshes"))
                }
                "emb-cache.local_share" => ratio(c("tier.local_bytes"), tier_bytes),
                "emb-cache.remote_share" => ratio(c("tier.remote_bytes"), tier_bytes),
                "emb-cache.host_share" => ratio(c("tier.host_bytes"), tier_bytes),
                "extractor.works_ms" => {
                    per_op_ms("works_from_splits") + per_op_ms("works_from_keys")
                }
                "extractor.extract_ms" => per_op_ms("extract_works"),
                "extractor.self_ms" => ratio(self_secs(rec, "extract_works"), ops) * 1e3,
                "gpu-memsim.simulate_ms" => mean_secs("simulate") * 1e3,
                "gpu-memsim.flows_per_call" => ratio(c("gpu-memsim.flows"), c("gpu-memsim.calls")),
                "gpu-memsim.events_per_call" => {
                    ratio(c("gpu-memsim.events"), c("gpu-memsim.calls"))
                }
                "gpu-memsim.us_per_event" => {
                    ratio(rec.secs("simulate") * 1e6, c("gpu-memsim.events"))
                }
                "gpu-memsim.stall_core_share" if c("gpu-memsim.core_util_n") > 0.0 => {
                    1.0 - c("gpu-memsim.core_util_sum") / c("gpu-memsim.core_util_n")
                }
                "gpu-memsim.congested_flows" => {
                    ratio(c("gpu-memsim.congested_flows"), c("gpu-memsim.calls"))
                }
                "ugache.process_iteration_ms" => mean_secs("UGache::process_iteration") * 1e3,
                "ugache.self_ms" => {
                    let real = mean_secs("UGache::process_iteration");
                    if real > 0.0 {
                        (real - mean_secs("shadow:process_iteration")) * 1e3
                    } else {
                        0.0
                    }
                }
                // eval_sweep builds through `baselines::build_system` instead.
                "ugache.build_s" => match rec.total("UGache::build") {
                    (0, _) => mean_secs("build_system"),
                    (n, secs) => secs / n as f64,
                },
                "ugache.consider_refresh_s" => mean_secs("UGache::consider_refresh"),
                "bench.op_ms" => ratio(ledger.op_ns as f64 / 1e6, ops),
                "bench.trace_overhead_ratio" => ratio(t.untraced_ops_per_s, t.log.overall_rate()),
                "bench.traced_ops" => ops,
                // emb-serve.* and emb-telemetry.* exist on serve_online only,
                // which passes them as extras.
                _ => 0.0,
            };
            (m.name, v)
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints every metric by name with its unit, the op accounting, and —
/// as the last line — the result object the driver reads.
pub fn print_result(
    workload: &str,
    log: &OpLog,
    metrics: &[(&'static str, f64)],
    notes: &[String],
) {
    println!("workload {workload}");
    for note in notes {
        println!("note {note}");
    }
    for (name, value) in metrics {
        println!("metric {name} {} {}", json_number(*value), unit_of(name));
    }
    println!("ops_attempted {}", log.attempted());
    println!("ops_failed {}", log.failed());
    for why in log.reasons() {
        println!("failure {why}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*value),
                unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        log.failed() == 0,
        log.attempted().max(1),
        log.failed(),
        body.join(", ")
    );
}

/// A result line read back.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    /// The `correct` flag.
    pub correct: bool,
    /// Ops failed.
    pub failed: u64,
    /// `(name, value)` in printed order.
    pub metrics: Vec<(String, f64)>,
}

/// Parses a line printed by [`print_result`] (not JSON in general).
pub fn parse_result(line: &str) -> Option<ParsedResult> {
    let correct = line.contains("\"correct\": true");
    let failed = line
        .split("\"failed\": ")
        .nth(1)?
        .split(',')
        .next()?
        .trim()
        .parse()
        .ok()?;
    let mut rest = line.split("\"metrics\": {").nth(1)?;
    let mut metrics = Vec::new();
    const VALUE: &str = "\": {\"value\": ";
    while let Some(at) = rest.find(VALUE) {
        let name = rest[..at].rsplit('"').next()?;
        let after = &rest[at + VALUE.len()..];
        let value = after.split(',').next()?.trim().parse().ok()?;
        metrics.push((name.to_string(), value));
        rest = after;
    }
    Some(ParsedResult {
        correct,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_printed_result_reads_back() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"ops_per_s\": {\"value\": 210.5, \"unit\": \"1/s\"}, \"sim_step_us\": {\"value\": 3e-5, \"unit\": \"us\"}}}";
        let r = parse_result(line).unwrap();
        assert!(r.correct);
        assert_eq!(r.failed, 0);
        assert_eq!(
            r.metrics,
            vec![
                ("setup_s".to_string(), 1.25),
                ("ops_per_s".to_string(), 210.5),
                ("sim_step_us".to_string(), 3e-5)
            ]
        );
    }
}
