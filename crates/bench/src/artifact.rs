//! Stable-schema JSON artifacts for `repro` targets.
//!
//! Every target serializes to one `<target>.json` file with the same
//! envelope:
//!
//! ```json
//! {
//!   "schema_version": 3,
//!   "target": "fig12",
//!   "seed": 24301,
//!   "scenario": { ... },
//!   "data": <target-specific payload>,
//!   "metrics": { "counters": { ... }, "gauges": { ... },
//!                "histograms": { ... }, "exemplars": { ... } },
//!   "timeline": { "extent_ns": ..., "tracks": [ ... ] }
//! }
//! ```
//!
//! The payload is the figure module's `compute` result, serialized
//! untagged (the `target` field already identifies its shape). The
//! `metrics` block is the [`emb_telemetry::MetricsSnapshot`] collected
//! while computing the payload; the `timeline` block is the
//! span-derived per-track occupancy summary ([`crate::timeline`]), or
//! `null` for units that record no spans (see EXPERIMENTS.md for the
//! field-level schema). Artifacts are rendered with
//! [`crate::json::to_document`], which is deterministic: two runs
//! of the same target at the same scenario produce byte-identical
//! files. [`diff_dirs`] compares two artifact directories structurally,
//! for `repro diff`; [`check_dir_schema`] refuses to mix schema
//! versions within one output directory.

use crate::figures::TargetData;
use crate::json;
use crate::scenario::{Scenario, SEED};
use emb_telemetry::{EventValue, Name};
use serde::Serialize;
use std::io;
use std::path::{Path, PathBuf};

/// Version of the artifact envelope; bump on any breaking schema change.
///
/// History: v1 had no `metrics` block; v2 added `metrics` (telemetry
/// snapshot per target) and the `repro --trace` event stream; v3 added
/// the span-derived `timeline` block and the `repro --chrome-trace` /
/// `repro compare` surfaces; v4 added the `serve` target (online
/// serving sweep payload) and the serving knobs (`serve_users`,
/// `serve_requests`) to every artifact's `scenario` block; v5 added the
/// `exemplars` block to `metrics` (deterministic top-K histogram
/// exemplars with request-id context — the input `repro explain-tail`
/// reconstructs tail requests from) and the per-request
/// `serve.latency_ns` histogram.
pub const SCHEMA_VERSION: u64 = 5;

/// The artifact envelope written for each target.
#[derive(Debug, Clone, Serialize)]
pub struct Artifact {
    /// Envelope schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Target name as accepted by the `repro` CLI.
    pub target: String,
    /// The global deterministic seed the run used.
    pub seed: u64,
    /// Full scenario configuration the data was computed under.
    pub scenario: Scenario,
    /// Target-specific payload (untagged).
    pub data: TargetData,
    /// Telemetry collected while computing `data`; `None` serializes as
    /// `null` (a compute run without a telemetry scope).
    pub metrics: Option<emb_telemetry::MetricsSnapshot>,
    /// Span-derived per-track occupancy summary; `None` serializes as
    /// `null` (the unit recorded no spans).
    pub timeline: Option<crate::timeline::Timeline>,
}

impl Artifact {
    /// Wraps a computed result in the envelope.
    pub fn new(
        target: &str,
        scenario: &Scenario,
        data: TargetData,
        metrics: Option<emb_telemetry::MetricsSnapshot>,
        timeline: Option<crate::timeline::Timeline>,
    ) -> Self {
        Artifact {
            schema_version: SCHEMA_VERSION,
            target: target.to_string(),
            seed: SEED,
            scenario: *scenario,
            data,
            metrics,
            timeline: timeline.filter(|t| !t.is_empty()),
        }
    }

    /// Writes the artifact to `dir/<target>.json`, creating `dir` if
    /// needed. Returns the written path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing the
    /// file.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.target));
        std::fs::write(&path, json::to_document(self))?;
        Ok(path)
    }
}

/// Checks that `dir` holds no artifact written under a different
/// [`SCHEMA_VERSION`] before `repro --json --out` writes into it.
///
/// A missing or empty directory passes; so do `.json` files that are not
/// artifact envelopes (no `schema_version` field). The check prevents a
/// directory from silently mixing envelope generations, which would make
/// `repro diff` results meaningless.
///
/// # Errors
///
/// Returns `Err` with a human-readable message (pointing at
/// EXPERIMENTS.md) naming the first mismatching file, or any I/O error
/// from reading the directory, formatted into the message.
pub fn check_dir_schema(dir: &Path) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let stems = artifact_stems(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for stem in stems {
        let path = dir.join(format!("{stem}.json"));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let Ok(value) = json::parse(&text) else {
            continue; // not an artifact; leave it alone
        };
        let Some(json::Value::Num(raw)) = value.get("schema_version") else {
            continue;
        };
        if raw.parse::<u64>() != Ok(SCHEMA_VERSION) {
            return Err(format!(
                "{} was written with artifact schema_version {raw}, but this \
                 binary writes schema_version {SCHEMA_VERSION}; refusing to mix \
                 schema versions in one directory. Use a fresh --out directory, \
                 or delete the stale artifacts. See EXPERIMENTS.md \
                 (\"Artifact schema\") for the version history.",
                path.display()
            ));
        }
    }
    Ok(())
}

/// The header line of a `repro --trace` JSONL stream.
#[derive(Serialize)]
struct TraceHeader {
    schema_version: u64,
    kind: &'static str,
    seed: u64,
    scenario: Scenario,
}

/// Builds the header line of a `repro --trace` JSONL stream.
pub fn trace_header(scenario: &Scenario) -> json::Value {
    let header = TraceHeader {
        schema_version: SCHEMA_VERSION,
        kind: "ugache-repro-trace",
        seed: SEED,
        scenario: *scenario,
    };
    json::to_value(&header).expect("a struct of numbers serializes")
}

/// The named fields of a telemetry event or span, as a JSON object.
pub(crate) fn fields_value(fields: &[(Name, EventValue)]) -> json::Value {
    json::Value::Obj(
        fields
            .iter()
            .map(|(k, v)| {
                let v = json::to_value(v).expect("an event value is a number or a string");
                (k.to_string(), v)
            })
            .collect(),
    )
}

/// Builds one `repro --trace` JSONL line for an event recorded while
/// computing `target`.
pub fn trace_line(target: &str, event: &emb_telemetry::Event) -> json::Value {
    json::Value::Obj(vec![
        ("target".to_string(), json::Value::Str(target.to_string())),
        ("seq".to_string(), json::Value::Num(event.seq.to_string())),
        (
            "event".to_string(),
            json::Value::Str(event.name.to_string()),
        ),
        ("fields".to_string(), fields_value(&event.fields)),
    ])
}

/// Lists the `.json` artifact file stems in `dir`, sorted.
pub(crate) fn artifact_stems(dir: &Path) -> io::Result<Vec<String>> {
    let mut stems = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("json") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                stems.push(stem.to_string());
            }
        }
    }
    stems.sort();
    Ok(stems)
}

/// Recursively records structural differences between two JSON values.
fn diff_values(path: &str, a: &json::Value, b: &json::Value, out: &mut Vec<String>) {
    use json::Value;
    match (a, b) {
        (Value::Obj(ka), Value::Obj(kb)) => {
            for (k, va) in ka {
                match kb.iter().find(|(k2, _)| k2 == k) {
                    Some((_, vb)) => diff_values(&format!("{path}.{k}"), va, vb, out),
                    None => out.push(format!("{path}.{k}: missing on right")),
                }
            }
            for (k, _) in kb {
                if !ka.iter().any(|(k2, _)| k2 == k) {
                    out.push(format!("{path}.{k}: missing on left"));
                }
            }
        }
        (Value::Arr(va), Value::Arr(vb)) => {
            if va.len() != vb.len() {
                out.push(format!("{path}: array length {} vs {}", va.len(), vb.len()));
            }
            for (i, (x, y)) in va.iter().zip(vb.iter()).enumerate() {
                diff_values(&format!("{path}[{i}]"), x, y, out);
            }
        }
        _ => {
            if a != b {
                out.push(format!(
                    "{path}: {} vs {}",
                    a.render_pretty().replace('\n', " "),
                    b.render_pretty().replace('\n', " ")
                ));
            }
        }
    }
}

/// Structurally compares two artifact directories.
///
/// Returns one human-readable line per difference (missing files, parse
/// failures, diverging values, or two sides with no artifacts at all —
/// nothing compared is not "identical"); an empty vector means the
/// directories hold identical artifacts.
///
/// # Errors
///
/// Returns any I/O error from listing the directories or reading files.
pub fn diff_dirs(a: &Path, b: &Path) -> io::Result<Vec<String>> {
    let stems_a = artifact_stems(a)?;
    let stems_b = artifact_stems(b)?;
    let mut out = Vec::new();
    if stems_a.is_empty() && stems_b.is_empty() {
        out.push(format!(
            "no .json artifacts in {} or {}",
            a.display(),
            b.display()
        ));
    }
    for stem in &stems_a {
        if !stems_b.contains(stem) {
            out.push(format!("{stem}.json: only in {}", a.display()));
        }
    }
    for stem in &stems_b {
        if !stems_a.contains(stem) {
            out.push(format!("{stem}.json: only in {}", b.display()));
        }
    }
    for stem in stems_a.iter().filter(|s| stems_b.contains(s)) {
        let file = format!("{stem}.json");
        let ta = std::fs::read_to_string(a.join(&file))?;
        let tb = std::fs::read_to_string(b.join(&file))?;
        match (json::parse(&ta), json::parse(&tb)) {
            (Ok(va), Ok(vb)) => diff_values(&file, &va, &vb, &mut out),
            (ra, rb) => {
                if let Err(e) = ra {
                    out.push(format!("{file}: unparseable in {}: {e}", a.display()));
                }
                if let Err(e) = rb {
                    out.push(format!("{file}: unparseable in {}: {e}", b.display()));
                }
            }
        }
    }
    Ok(out)
}
