//! Tail-latency forensics: `repro explain-tail`.
//!
//! The serving engine tags every request with a correlation id and
//! attaches its exact-nanosecond latency decomposition to the
//! `serve.latency_ns` histogram's exemplars (schema v5 artifacts carry
//! them in `metrics.exemplars`). This module reconstructs those top-K
//! tail requests into a deterministic report: each row attributes the
//! request's latency exactly — `queue_ns + batch_wait_ns + extract_ns
//! == latency_ns`, with the extract share further split across the
//! local/remote/host tiers proportionally to the batch's per-tier key
//! counts (integer split, remainder to the largest tier, so the three
//! tier values sum exactly to `extract_ns`). The report is a pure
//! function of the exemplar set, so it is byte-identical however the
//! input artifact was produced (`--jobs`/`--threads` at any width).
//!
//! Input is either a schema-v5 `serve.json` artifact or a fresh
//! in-process run of the serving scenario; mis-schema'd or non-serve
//! artifacts are rejected with a message the binary maps to exit 3 (see
//! EXPERIMENTS.md, "Explaining the latency tail").

use crate::artifact::SCHEMA_VERSION;
use crate::figures::serve::MAX_BATCH;
use crate::figures::Unit;
use crate::json::{self, Value};
use serde::Serialize;

/// Explain-tail report schema version (bump on any field change).
pub const EXPLAIN_SCHEMA_VERSION: u32 = 1;

/// The target whose runs the report explains.
const SERVE: &str = Unit::Serve.names()[0];

/// The histogram whose exemplars the report reconstructs.
pub const TAIL_HISTOGRAM: &str = "serve.latency_ns";

/// Attribution labels in tie-break order: when two components of a
/// request's latency are exactly equal, the earlier label wins.
pub const COMPONENTS: [&str; 5] = [
    "queue",
    "batch-wait",
    "extract:local",
    "extract:remote",
    "extract:host",
];

/// One reconstructed tail request, worst first.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TailRequest {
    /// 1-based rank by latency (1 = slowest request of the run).
    pub rank: usize,
    /// Correlation id (`point << 32 | request_index`).
    pub req: u64,
    /// Load-point index within the sweep.
    pub point: u64,
    /// Request index within the load point.
    pub request_index: u64,
    /// Offered load of the request's point (requests per second).
    pub offered_rps: f64,
    /// End-to-end latency (ns); equals the sum of the next three.
    pub latency_ns: u64,
    /// Waiting for the server to free up (ns).
    pub queue_ns: u64,
    /// Waiting for the batch to fill or time out (ns).
    pub batch_wait_ns: u64,
    /// The coalesced extraction's makespan (ns).
    pub extract_ns: u64,
    /// Extract share attributed to local-tier keys (ns).
    pub extract_local_ns: u64,
    /// Extract share attributed to remote-tier keys (ns).
    pub extract_remote_ns: u64,
    /// Extract share attributed to host-tier keys (ns).
    pub extract_host_ns: u64,
    /// Requests coalesced into this request's batch.
    pub batch_requests: u64,
    /// Whether the batch dispatched below `max_batch` (window timeout).
    pub underfull: bool,
    /// Largest latency component ([`COMPONENTS`] order breaks ties).
    pub dominant: String,
}

/// Aggregate view of the tail rows.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExplainSummary {
    /// Tail requests reconstructed (the exemplar top-K).
    pub requests: usize,
    /// Most common dominant component across the rows.
    pub dominant: String,
    /// How many rows that component dominates.
    pub dominant_count: usize,
    /// Rows served by underfull batches.
    pub underfull: usize,
    /// One-line diagnosis rendered from the fields above.
    pub headline: String,
}

/// The deterministic JSON report (`repro explain-tail --out`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExplainReport {
    /// [`EXPLAIN_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Always `"ugache-explain-tail"`.
    pub kind: String,
    /// The target the exemplars came from (always `"serve"`).
    pub target: String,
    /// [`TAIL_HISTOGRAM`].
    pub histogram: String,
    /// The serving layer's batch-size cap (underfull threshold).
    pub max_batch: u64,
    /// Tail rows, rank order (slowest first).
    pub requests: Vec<TailRequest>,
    /// Aggregate diagnosis.
    pub summary: ExplainSummary,
}

/// One exemplar's context fields: its `fields` object, read by name.
struct Fields<'a> {
    req: u64,
    obj: Option<&'a Value>,
}

/// The number at `v`, when there is one and it parses as a `T`.
fn num<T: std::str::FromStr>(v: Option<&Value>) -> Option<T> {
    match v? {
        Value::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

impl Fields<'_> {
    fn get_u64(&self, name: &str) -> Result<u64, String> {
        num(self.obj.and_then(|o| o.get(name))).ok_or_else(|| {
            format!(
                "exemplar req {}: missing u64 context field `{name}`",
                self.req
            )
        })
    }

    fn get_f64(&self, name: &str) -> Result<f64, String> {
        num(self.obj.and_then(|o| o.get(name))).ok_or_else(|| {
            format!(
                "exemplar req {}: missing numeric context field `{name}`",
                self.req
            )
        })
    }
}

/// Splits `extract_ns` across the three tiers proportionally to the
/// batch's per-tier key counts. Integer floors, remainder assigned to
/// the tier with the most keys (first in local/remote/host order on a
/// tie), so the parts always sum exactly to `extract_ns`. `None` when
/// the rounded floors overshoot `extract_ns`, which only key counts far
/// apart in magnitude and an `extract_ns` near 2^64 can make them do.
fn split_extract(extract_ns: u64, keys: [f64; 3]) -> Option<[u64; 3]> {
    let total: f64 = keys.iter().sum();
    if total <= 0.0 {
        // A batch with no extracted keys has nothing to attribute; keep
        // the identity by leaving the whole share on the local tier.
        return Some([extract_ns, 0, 0]);
    }
    let mut parts = [0u64; 3];
    for t in 0..3 {
        parts[t] = (extract_ns as f64 * (keys[t] / total)).floor() as u64;
    }
    let assigned: u64 = parts.iter().sum();
    let biggest = (0..3).fold(0, |best, t| if keys[t] > keys[best] { t } else { best });
    parts[biggest] += extract_ns.checked_sub(assigned)?;
    Some(parts)
}

/// Builds one tail row from an exemplar's (value, req, fields) triple.
///
/// Fails when the decomposition fields are missing, disagree with the
/// recorded histogram value, do not sum exactly to the latency (or
/// overflow a `u64` trying), or a key count is negative or not finite —
/// such an exemplar set is unusable, not merely surprising.
fn tail_request(rank: usize, value: f64, fields: &Fields) -> Result<TailRequest, String> {
    let req = fields.req;
    let latency_ns = fields.get_u64("latency_ns")?;
    let queue_ns = fields.get_u64("queue_ns")?;
    let batch_wait_ns = fields.get_u64("batch_wait_ns")?;
    let extract_ns = fields.get_u64("extract_ns")?;
    let sum = queue_ns
        .checked_add(batch_wait_ns)
        .and_then(|s| s.checked_add(extract_ns))
        .ok_or_else(|| format!("exemplar req {req}: components overflow a u64 of ns"))?;
    if sum != latency_ns {
        return Err(format!(
            "exemplar req {req}: components sum to {sum} ns but latency_ns is {latency_ns}"
        ));
    }
    if value != latency_ns as f64 {
        return Err(format!(
            "exemplar req {req}: histogram value {value} disagrees with latency_ns {latency_ns}"
        ));
    }
    let mut keys = [0.0; 3];
    let names = ["batch_keys_local", "batch_keys_remote", "batch_keys_host"];
    for (k, name) in keys.iter_mut().zip(names) {
        *k = fields.get_f64(name)?;
        if !(k.is_finite() && *k >= 0.0) {
            return Err(format!(
                "exemplar req {req}: `{name}` is {k}, not a key count"
            ));
        }
    }
    let [extract_local_ns, extract_remote_ns, extract_host_ns] = split_extract(extract_ns, keys)
        .ok_or_else(|| {
            format!("exemplar req {req}: extract_ns {extract_ns} does not split over {keys:?}")
        })?;
    let parts = [
        queue_ns,
        batch_wait_ns,
        extract_local_ns,
        extract_remote_ns,
        extract_host_ns,
    ];
    let dominant =
        (0..COMPONENTS.len()).fold(0, |best, i| if parts[i] > parts[best] { i } else { best });
    let batch_requests = fields.get_u64("batch_requests")?;
    Ok(TailRequest {
        rank,
        req,
        point: fields.get_u64("point")?,
        request_index: req & 0xFFFF_FFFF,
        offered_rps: fields.get_f64("offered_rps")?,
        latency_ns,
        queue_ns,
        batch_wait_ns,
        extract_ns,
        extract_local_ns,
        extract_remote_ns,
        extract_host_ns,
        batch_requests,
        underfull: batch_requests < MAX_BATCH as u64,
        dominant: COMPONENTS[dominant].to_string(),
    })
}

/// Wraps finished rows in the report envelope with the aggregate
/// summary.
fn assemble(rows: Vec<TailRequest>) -> Result<ExplainReport, String> {
    if rows.is_empty() {
        return Err(format!(
            "no `{TAIL_HISTOGRAM}` exemplars to explain (did the run serve any requests?)"
        ));
    }
    let mut by_component: Vec<usize> = vec![0; COMPONENTS.len()];
    let mut underfull = 0;
    for row in &rows {
        let i = COMPONENTS
            .iter()
            .position(|c| *c == row.dominant)
            .expect("dominant comes from COMPONENTS");
        by_component[i] += 1;
        underfull += usize::from(row.underfull);
    }
    let top = (0..COMPONENTS.len()).fold(0, |best, i| {
        if by_component[i] > by_component[best] {
            i
        } else {
            best
        }
    });
    let headline = format!(
        "tail dominated by {} ({}/{} requests; {}/{} in underfull batches)",
        COMPONENTS[top],
        by_component[top],
        rows.len(),
        underfull,
        rows.len()
    );
    Ok(ExplainReport {
        schema_version: EXPLAIN_SCHEMA_VERSION,
        kind: "ugache-explain-tail".to_string(),
        target: SERVE.to_string(),
        histogram: TAIL_HISTOGRAM.to_string(),
        max_batch: MAX_BATCH as u64,
        summary: ExplainSummary {
            requests: rows.len(),
            dominant: COMPONENTS[top].to_string(),
            dominant_count: by_component[top],
            underfull,
            headline,
        },
        requests: rows,
    })
}

/// Builds the report from a live telemetry snapshot (the in-process
/// scenario path of `repro explain-tail`): the artifact reader applied
/// to the snapshot's JSON value, so both inputs read the same numbers.
///
/// # Errors
///
/// Returns a message when the snapshot has no [`TAIL_HISTOGRAM`]
/// exemplars or a row's decomposition is inconsistent.
pub fn report_from_snapshot(ms: &emb_telemetry::MetricsSnapshot) -> Result<ExplainReport, String> {
    report_from_metrics(&json::to_value(ms).expect("a metrics snapshot serializes"))
}

/// Builds the report from a parsed artifact envelope (the
/// `serve.json`-file path of `repro explain-tail`).
///
/// # Errors
///
/// Returns a message (the binary exits 3) when the envelope is not a
/// schema-[`SCHEMA_VERSION`] `serve` artifact with a usable
/// `metrics.exemplars` block.
pub fn report_from_artifact(artifact: &Value) -> Result<ExplainReport, String> {
    match artifact.get("schema_version") {
        Some(Value::Num(raw)) if raw.parse::<u64>() == Ok(SCHEMA_VERSION) => {}
        Some(Value::Num(raw)) => {
            return Err(format!(
                "artifact has schema_version {raw}, but explain-tail needs \
                 schema_version {SCHEMA_VERSION} (regenerate with this binary's \
                 `repro serve --json`)"
            ));
        }
        _ => return Err("not an artifact envelope (no schema_version field)".to_string()),
    }
    match artifact.get("target") {
        Some(Value::Str(t)) if t == SERVE => {}
        Some(Value::Str(t)) => {
            return Err(format!(
                "artifact is for target `{t}`; explain-tail reads the `{SERVE}` target"
            ));
        }
        _ => return Err("artifact envelope has no target field".to_string()),
    }
    report_from_metrics(artifact.get("metrics").unwrap_or(&Value::Null))
}

/// Builds the report from the JSON value of a metrics block.
fn report_from_metrics(metrics: &Value) -> Result<ExplainReport, String> {
    let exemplars = metrics
        .get("exemplars")
        .ok_or_else(|| "artifact metrics block has no exemplars".to_string())?;
    let list = match exemplars.get(TAIL_HISTOGRAM) {
        Some(Value::Arr(items)) => items.as_slice(),
        _ => &[],
    };
    let rows = list
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let value = num(x.get("value"))
                .ok_or_else(|| format!("exemplar {i}: missing numeric value"))?;
            let req = match x.get("req") {
                Some(Value::Num(raw)) => raw
                    .parse::<u64>()
                    .map_err(|_| format!("exemplar {i}: non-u64 req"))?,
                _ => return Err(format!("exemplar {i}: missing req id")),
            };
            let fields = Fields {
                req,
                obj: x.get("fields"),
            };
            tail_request(i + 1, value, &fields)
        })
        .collect::<Result<Vec<_>, _>>()?;
    assemble(rows)
}

/// The report as the human-readable tail-driver table.
pub fn render(report: &ExplainReport) -> String {
    let mut out = String::new();
    write_table(&mut out, report).expect("a String takes any text");
    out
}

fn write_table(out: &mut String, report: &ExplainReport) -> std::fmt::Result {
    use std::fmt::Write as _;
    writeln!(
        out,
        "explain-tail: top {} requests of `{}` (max_batch {})",
        report.summary.requests, report.histogram, report.max_batch
    )?;
    writeln!(out, "  {}", report.summary.headline)?;
    writeln!(
        out,
        "{:>4} {:>12} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6} {:<14}",
        "rank",
        "req",
        "point",
        "lat(ms)",
        "queue(ms)",
        "batch(ms)",
        "xloc(ms)",
        "xrem(ms)",
        "xhost(ms)",
        "batch",
        "dominant"
    )?;
    for r in &report.requests {
        let ms = |ns: u64| ns as f64 / 1e6;
        writeln!(
            out,
            "{:>4} {:>12} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>5}{} {:<14}",
            r.rank,
            format!("{}.{}", r.point, r.request_index),
            r.point,
            ms(r.latency_ns),
            ms(r.queue_ns),
            ms(r.batch_wait_ns),
            ms(r.extract_local_ns),
            ms(r.extract_remote_ns),
            ms(r.extract_host_ns),
            r.batch_requests,
            if r.underfull { "*" } else { " " },
            r.dominant
        )?;
    }
    writeln!(
        out,
        "  (* = underfull batch, dispatched by window timeout below max_batch)"
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_request(req: u64, queue: u64, batch_wait: u64, extract: u64, keys: [f64; 3]) {
        let latency = queue + batch_wait + extract;
        emb_telemetry::observe_with_exemplar(
            TAIL_HISTOGRAM,
            latency as f64,
            emb_telemetry::ReqId(req),
            || {
                vec![
                    ("point".into(), emb_telemetry::EventValue::U64(req >> 32)),
                    ("offered_rps".into(), emb_telemetry::EventValue::F64(1000.0)),
                    ("queue_ns".into(), emb_telemetry::EventValue::U64(queue)),
                    (
                        "batch_wait_ns".into(),
                        emb_telemetry::EventValue::U64(batch_wait),
                    ),
                    ("extract_ns".into(), emb_telemetry::EventValue::U64(extract)),
                    ("latency_ns".into(), emb_telemetry::EventValue::U64(latency)),
                    ("batch_requests".into(), emb_telemetry::EventValue::U64(4)),
                    (
                        "batch_keys_local".into(),
                        emb_telemetry::EventValue::F64(keys[0]),
                    ),
                    (
                        "batch_keys_remote".into(),
                        emb_telemetry::EventValue::F64(keys[1]),
                    ),
                    (
                        "batch_keys_host".into(),
                        emb_telemetry::EventValue::F64(keys[2]),
                    ),
                ]
            },
        );
    }

    #[test]
    fn split_extract_sums_exactly_for_awkward_ratios() {
        for extract in [0u64, 1, 7, 1_000_003] {
            for keys in [[1.0, 1.0, 1.0], [0.0, 0.0, 5.0], [3.0, 2.0, 2.0], [0.0; 3]] {
                let parts = split_extract(extract, keys).unwrap();
                assert_eq!(parts.iter().sum::<u64>(), extract, "{extract} {keys:?}");
            }
        }
        // Remainder lands on the largest tier.
        assert_eq!(split_extract(10, [1.0, 1.0, 1.0]), Some([4, 3, 3]));
        // The total rounds to 1 but the small shares do not vanish: the
        // floors overshoot a near-2^64 extract time.
        assert_eq!(split_extract(1 << 63, [1.0, 1e-17, 1e-17]), None);
    }

    #[test]
    fn snapshot_report_attributes_and_ranks() {
        let ((), report) = emb_telemetry::collect(|| {
            record_request(1, 50, 10, 40, [8.0, 0.0, 0.0]);
            record_request((1 << 32) | 2, 10, 20, 170, [1.0, 1.0, 6.0]);
            record_request(3, 30, 80, 40, [0.0, 9.0, 1.0]);
        });
        let explain = report_from_snapshot(&report.metrics).unwrap();
        assert_eq!(explain.schema_version, EXPLAIN_SCHEMA_VERSION);
        assert_eq!(explain.summary.requests, 3);
        // Rank order is latency-descending: 200, 150, 100.
        let rows = &explain.requests;
        assert_eq!(rows[0].latency_ns, 200);
        assert_eq!(rows[0].point, 1);
        assert_eq!(rows[0].request_index, 2);
        assert_eq!(rows[0].dominant, "extract:host");
        assert_eq!(rows[1].dominant, "batch-wait");
        assert_eq!(rows[2].dominant, "queue");
        for r in rows {
            assert_eq!(r.queue_ns + r.batch_wait_ns + r.extract_ns, r.latency_ns);
            assert_eq!(
                r.extract_local_ns + r.extract_remote_ns + r.extract_host_ns,
                r.extract_ns
            );
            assert!(r.underfull, "batch_requests 4 < MAX_BATCH");
        }
    }

    #[test]
    fn artifact_and_snapshot_paths_agree() {
        let ((), report) = emb_telemetry::collect(|| {
            record_request(7, 100, 250, 650, [2.0, 3.0, 5.0]);
            record_request(8, 0, 400, 100, [10.0, 0.0, 0.0]);
        });
        let from_snapshot = report_from_snapshot(&report.metrics).unwrap();
        // Wrap the snapshot's rendered text in a minimal envelope and
        // take the file path.
        let metrics_json = json::to_value(&report.metrics).unwrap().render_pretty();
        let envelope = format!(
            r#"{{"schema_version": {SCHEMA_VERSION}, "target": "serve", "metrics": {metrics_json}}}"#
        );
        let from_artifact = report_from_artifact(&json::parse(&envelope).unwrap()).unwrap();
        assert_eq!(from_snapshot, from_artifact);
        assert_eq!(
            json::to_document(&from_snapshot),
            json::to_document(&from_artifact)
        );
    }

    #[test]
    fn inconsistent_decomposition_is_rejected() {
        let ((), report) = emb_telemetry::collect(|| {
            emb_telemetry::observe_with_exemplar(
                TAIL_HISTOGRAM,
                100.0,
                emb_telemetry::ReqId(1),
                || {
                    vec![
                        ("point".into(), emb_telemetry::EventValue::U64(0)),
                        ("offered_rps".into(), emb_telemetry::EventValue::F64(1.0)),
                        ("queue_ns".into(), emb_telemetry::EventValue::U64(90)),
                        ("batch_wait_ns".into(), emb_telemetry::EventValue::U64(0)),
                        ("extract_ns".into(), emb_telemetry::EventValue::U64(5)),
                        ("latency_ns".into(), emb_telemetry::EventValue::U64(100)),
                        ("batch_requests".into(), emb_telemetry::EventValue::U64(1)),
                        (
                            "batch_keys_local".into(),
                            emb_telemetry::EventValue::F64(1.0),
                        ),
                        (
                            "batch_keys_remote".into(),
                            emb_telemetry::EventValue::F64(0.0),
                        ),
                        (
                            "batch_keys_host".into(),
                            emb_telemetry::EventValue::F64(0.0),
                        ),
                    ]
                },
            );
        });
        let err = report_from_snapshot(&report.metrics).unwrap_err();
        assert!(err.contains("components sum to 95"), "{err}");
    }

    #[test]
    fn wrong_schema_and_wrong_target_are_rejected() {
        let v4 = json::parse(r#"{"schema_version": 4, "target": "serve"}"#).unwrap();
        let err = report_from_artifact(&v4).unwrap_err();
        assert!(err.contains("schema_version 4"), "{err}");
        let fig = json::parse(&format!(
            r#"{{"schema_version": {SCHEMA_VERSION}, "target": "fig12"}}"#
        ))
        .unwrap();
        let err = report_from_artifact(&fig).unwrap_err();
        assert!(err.contains("fig12"), "{err}");
        let empty = json::parse(&format!(
            r#"{{"schema_version": {SCHEMA_VERSION}, "target": "serve",
                "metrics": {{"counters": {{}}, "gauges": {{}}, "histograms": {{}},
                             "exemplars": {{}}}}}}"#
        ))
        .unwrap();
        let err = report_from_artifact(&empty).unwrap_err();
        assert!(err.contains("no `serve.latency_ns` exemplars"), "{err}");
    }
}
