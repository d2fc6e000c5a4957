//! Perf-regression comparison of artifact directories.
//!
//! `repro compare BASELINE NEW` diffs the `metrics` and `timeline`
//! blocks of two artifact directories against per-metric relative
//! tolerances and reports every drift beyond tolerance. Unlike
//! `repro diff` (exact structural equality over whole artifacts), the
//! comparison is *tolerant by design*: it gates CI against a committed
//! baseline, where small intentional recalibrations should not fail the
//! build but a real behaviour change — a link utilization collapsing, a
//! stall window growing — should. The tolerance table is documented in
//! EXPERIMENTS.md ("Comparing against a baseline").

use crate::artifact::artifact_stems;
use crate::json::{self, Value};
use std::io;
use std::path::Path;

/// Per-metric relative tolerances, matched by longest prefix. Metric
/// names are `metrics.<block>.<name>` or `timeline.<field>` /
/// `timeline.tracks.<track>.<field>` paths as produced by
/// [`compare_dirs`].
pub const TOLERANCES: &[(&str, f64)] = &[
    // Simulator-derived times wobble with calibration tweaks; allow 5%.
    ("metrics.counters.memsim.", 0.05),
    ("metrics.counters.ugache.extract_secs", 0.05),
    ("metrics.counters.extract.", 0.02),
    ("metrics.histograms.", 0.05),
    // Span-derived occupancy: busy time and utilization per track.
    ("timeline.tracks.", 0.05),
    ("timeline.extent_ns", 0.05),
];

/// Absolute ceilings on the new side, whatever the baseline reads. A
/// primal residual is ~1e-11 on a sound solve; a bad pivot leaves one
/// orders of magnitude above it, which a relative tolerance on a
/// near-zero baseline catches only by accident.
pub const CEILINGS: &[(&str, f64)] = &[("metrics.histograms.policy.lp.residual.max", 1e-9)];

/// Fallback relative tolerance for metrics without a table entry.
pub const DEFAULT_TOLERANCE: f64 = 0.01;

/// The relative tolerance for a metric path: the longest matching prefix
/// from [`TOLERANCES`], or [`DEFAULT_TOLERANCE`].
pub fn tolerance_for(path: &str) -> f64 {
    TOLERANCES
        .iter()
        .filter(|(prefix, _)| path.starts_with(prefix))
        .max_by_key(|(prefix, _)| prefix.len())
        .map_or(DEFAULT_TOLERANCE, |(_, tol)| *tol)
}

/// Relative difference of two numbers: `|a - b| / max(|a|, |b|)`, with
/// exact equality (including both zero) reading as 0.
fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    (a - b).abs() / a.abs().max(b.abs())
}

/// One numeric comparison point extracted from an artifact.
fn collect_numbers(prefix: &str, v: &Value, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Num(raw) => {
            if let Ok(x) = raw.parse::<f64>() {
                out.push((prefix.to_string(), x));
            }
        }
        Value::Obj(fields) => {
            for (k, val) in fields {
                collect_numbers(&format!("{prefix}.{k}"), val, out);
            }
        }
        Value::Arr(items) => {
            for (i, val) in items.iter().enumerate() {
                collect_numbers(&format!("{prefix}[{i}]"), val, out);
            }
        }
        _ => {}
    }
}

/// Comparison points of one parsed artifact: every number under its
/// `metrics` block (except `exemplars` — individual tail observations
/// are forensic detail, gated by `repro diff` determinism checks rather
/// than by tolerance) plus the timeline extent and per-track occupancy
/// (`timeline.tracks.<track>.{spans,busy_ns,utilization}`; the bucket
/// series is plot detail and not gated).
fn comparison_points(artifact: &Value) -> Vec<(String, f64)> {
    let mut points = Vec::new();
    if let Some(Value::Obj(blocks)) = artifact.get("metrics") {
        for (block, v) in blocks {
            if block != "exemplars" {
                collect_numbers(&format!("metrics.{block}"), v, &mut points);
            }
        }
    }
    if let Some(timeline) = artifact.get("timeline") {
        if let Some(Value::Num(raw)) = timeline.get("extent_ns") {
            if let Ok(x) = raw.parse::<f64>() {
                points.push(("timeline.extent_ns".to_string(), x));
            }
        }
        if let Some(Value::Arr(tracks)) = timeline.get("tracks") {
            for t in tracks {
                let Some(Value::Str(name)) = t.get("track") else {
                    continue;
                };
                for field in ["spans", "busy_ns", "utilization"] {
                    if let Some(Value::Num(raw)) = t.get(field) {
                        if let Ok(x) = raw.parse::<f64>() {
                            points.push((format!("timeline.tracks.{name}.{field}"), x));
                        }
                    }
                }
            }
        }
    }
    points
}

/// Compares the metric/timeline blocks of two artifact directories.
///
/// Every artifact present in `baseline` must exist in `new`; each of its
/// comparison points must exist on both sides and agree within
/// [`tolerance_for`] its path, and the new side must stay under the
/// [`CEILINGS`] it reaches. Artifacts only in `new` are ignored (new
/// targets are not regressions). A baseline holding no artifact envelope
/// is itself a violation: a gate that compared nothing must not pass.
/// Returns one human-readable line per violation; empty means the
/// comparison passes.
///
/// The scan never stops at the first offender: unreadable or
/// unparseable files and missing counterparts are reported as failure
/// lines alongside every out-of-tolerance metric of every other
/// artifact, so one CI run shows the complete damage.
///
/// # Errors
///
/// Returns an I/O error naming the directory when either side cannot be
/// listed — missing, or not a directory. The comparison has no
/// meaningful partial answer then, and a candidate that is not there did
/// not lose its artifacts to a regression. Per-file problems are
/// reported in the failure lines instead.
pub fn compare_dirs(baseline: &Path, new: &Path) -> io::Result<Vec<String>> {
    let listed = |dir: &Path| {
        artifact_stems(dir).map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", dir.display())))
    };
    let stems = listed(baseline)?;
    listed(new)?;
    let mut failures = Vec::new();
    let mut envelopes = 0;
    for stem in stems {
        let file = format!("{stem}.json");
        let base_text = match std::fs::read_to_string(baseline.join(&file)) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("{file}: cannot read baseline: {e}"));
                continue;
            }
        };
        let Ok(base) = json::parse(&base_text) else {
            failures.push(format!("{file}: baseline unparseable"));
            continue;
        };
        if base.get("schema_version").is_none() {
            continue; // not an artifact envelope
        }
        envelopes += 1;
        let new_path = new.join(&file);
        let Ok(new_text) = std::fs::read_to_string(&new_path) else {
            failures.push(format!("{file}: missing from {}", new.display()));
            continue;
        };
        let Ok(fresh) = json::parse(&new_text) else {
            failures.push(format!("{file}: new side unparseable"));
            continue;
        };
        let base_points = comparison_points(&base);
        let new_points = comparison_points(&fresh);
        for (path, base_val) in &base_points {
            let Some((_, new_val)) = new_points.iter().find(|(p, _)| p == path) else {
                failures.push(format!("{file}: {path} missing from new run"));
                continue;
            };
            let tol = tolerance_for(path);
            let diff = rel_diff(*base_val, *new_val);
            if diff > tol {
                failures.push(format!(
                    "{file}: {path} drifted {:.2}% (baseline {base_val}, new {new_val}, \
                     tolerance {:.1}%)",
                    diff * 100.0,
                    tol * 100.0
                ));
            }
        }
        for (path, ceiling) in CEILINGS {
            for (_, new_val) in new_points.iter().filter(|(p, _)| p == path) {
                if *new_val > *ceiling {
                    failures.push(format!(
                        "{file}: {path} is {new_val:e}, above its ceiling {ceiling:e}"
                    ));
                }
            }
        }
    }
    if envelopes == 0 {
        failures.push(format!(
            "{}: no artifact envelopes to compare against",
            baseline.display()
        ));
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_prefers_longest_prefix() {
        assert_eq!(tolerance_for("metrics.counters.memsim.extractions"), 0.05);
        assert_eq!(
            tolerance_for("metrics.counters.bench.computes"),
            DEFAULT_TOLERANCE
        );
        assert_eq!(
            tolerance_for("timeline.tracks.gpu0/link:pcie->host.utilization"),
            0.05
        );
    }

    #[test]
    fn rel_diff_handles_zero() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!((rel_diff(1.0, 1.02) - 0.02 / 1.02).abs() < 1e-12);
    }

    #[test]
    fn compare_reports_every_offender_in_one_pass() {
        // Two drifting artifacts, two unparseable baselines, and one file
        // missing from the new side: a single compare_dirs call must
        // surface all of them instead of stopping at the first.
        let base = std::env::temp_dir().join(format!("repro-compare-all-{}", std::process::id()));
        let b = base.join("baseline");
        let n = base.join("new");
        std::fs::create_dir_all(&b).unwrap();
        std::fs::create_dir_all(&n).unwrap();
        let envelope = |v: f64| {
            format!(
                r#"{{"schema_version": 4, "metrics": {{"counters": {{"x": {v}}}, "gauges": {{}}, "histograms": {{}}}}}}"#
            )
        };
        std::fs::write(b.join("a.json"), envelope(1.0)).unwrap();
        std::fs::write(n.join("a.json"), envelope(2.0)).unwrap();
        std::fs::write(b.join("b.json"), envelope(1.0)).unwrap();
        std::fs::write(n.join("b.json"), envelope(3.0)).unwrap();
        std::fs::write(b.join("c.json"), "{ not json").unwrap();
        std::fs::write(b.join("d.json"), envelope(1.0)).unwrap();
        // `1e999` would read as infinity: `rel_diff(inf, 3)` is NaN, and
        // `NaN > tol` is false, so the pair would pass as no regression.
        let overflowed = envelope(1.0).replace("\"x\": 1", "\"x\": 1e999");
        std::fs::write(b.join("e.json"), overflowed).unwrap();
        std::fs::write(n.join("e.json"), envelope(3.0)).unwrap();
        let failures = compare_dirs(&b, &n).unwrap();
        std::fs::remove_dir_all(&base).unwrap();
        assert!(
            failures.iter().any(|f| f.starts_with("a.json:")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.starts_with("b.json:")),
            "{failures:?}"
        );
        assert!(
            failures
                .iter()
                .any(|f| f.starts_with("c.json:") && f.contains("unparseable")),
            "{failures:?}"
        );
        assert!(
            failures
                .iter()
                .any(|f| f.starts_with("d.json:") && f.contains("missing from")),
            "{failures:?}"
        );
        assert!(
            failures
                .iter()
                .any(|f| f.starts_with("e.json:") && f.contains("baseline unparseable")),
            "{failures:?}"
        );
    }

    #[test]
    fn a_residual_above_its_ceiling_fails_even_against_itself() {
        // The committed `hotness` artifact with its largest LP residual
        // set to 1e-6 on both sides: no drift, and still a failure.
        let committed = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../baselines/quick/hotness.json"
        );
        let text = std::fs::read_to_string(committed).unwrap();
        let max = "\"max\": 0.000000000032741809263825417";
        assert_eq!(text.matches(max).count(), 1, "the recorded residual moved");
        let base = std::env::temp_dir().join(format!("repro-ceiling-{}", std::process::id()));
        let (b, n) = (base.join("baseline"), base.join("new"));
        std::fs::create_dir_all(&b).unwrap();
        std::fs::create_dir_all(&n).unwrap();
        std::fs::write(b.join("hotness.json"), &text).unwrap();
        std::fs::write(n.join("hotness.json"), &text).unwrap();
        let clean = compare_dirs(&b, &n).unwrap();
        let bad = text.replace(max, "\"max\": 0.000001");
        std::fs::write(b.join("hotness.json"), &bad).unwrap();
        std::fs::write(n.join("hotness.json"), &bad).unwrap();
        let failures = compare_dirs(&b, &n).unwrap();
        std::fs::remove_dir_all(&base).unwrap();
        assert!(clean.is_empty(), "{clean:?}");
        assert_eq!(
            failures,
            [
                "hotness.json: metrics.histograms.policy.lp.residual.max is 1e-6, \
              above its ceiling 1e-9"
            ]
        );
    }

    #[test]
    fn points_extracted_from_envelope() {
        let artifact = json::parse(
            r#"{
              "schema_version": 3,
              "metrics": {"counters": {"a.b": 2}, "gauges": {}, "histograms": {},
                          "exemplars": {"serve.latency_ns": [
                            {"value": 9.0, "req": 3, "fields": {"queue_ns": 4}}
                          ]}},
              "timeline": {
                "extent_ns": 100,
                "tracks": [
                  {"track": "gpu0", "spans": 1, "busy_ns": 50, "utilization": 0.5,
                   "series": [1, 0]}
                ]
              }
            }"#,
        )
        .unwrap();
        let points = comparison_points(&artifact);
        assert!(points
            .iter()
            .any(|(p, v)| p == "metrics.counters.a.b" && *v == 2.0));
        assert!(points.iter().any(|(p, _)| p == "timeline.extent_ns"));
        assert!(points
            .iter()
            .any(|(p, v)| p == "timeline.tracks.gpu0.utilization" && *v == 0.5));
        // The bucket series is not gated.
        assert!(!points.iter().any(|(p, _)| p.contains("series")));
        // Exemplars are forensic detail, not comparison points: a tail
        // request's exact latency would never fit a 1% tolerance.
        assert!(!points.iter().any(|(p, _)| p.contains("exemplars")));
    }
}
