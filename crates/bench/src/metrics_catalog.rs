//! The central metric-name catalog (`METRICS.md`).
//!
//! Every counter, gauge, histogram, and event name the workspace
//! records is declared once in [`CATALOG`]. `repro metrics --md`
//! renders the catalog to markdown and `repro metrics --check` gates it
//! two ways, mirroring `repro scenarios --check`: the committed file
//! must match a fresh render exactly, and the names recorded by a full
//! quick run of every target must equal the catalog's quick-gated
//! entries (recorded ⊆ catalogued and quick-catalogued ⊆ recorded), so
//! the table can neither go stale nor accumulate dead entries. Names
//! exercised only by library consumers or full-scale runs are
//! catalogued with `quick: false` and gated one way.
//!
//! Dynamic names (the per-flow link counters) are catalogued as
//! patterns where `*` matches exactly one dotted segment:
//! `memsim.link.*.*.bytes` covers `memsim.link.gpu0.host.bytes` but not
//! `memsim.link.gpu0.bytes`.

use crate::figures::TARGETS;
use crate::runner::{run_units, units_for};
use crate::scenario::Scenario;
use std::collections::BTreeSet;

/// The kind of telemetry record a name belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// Monotonic `count` totals.
    Counter,
    /// Last-value `gauge`s.
    Gauge,
    /// `observe`d distributions (including exemplar-carrying ones).
    Histogram,
    /// Structured `event` records.
    Event,
}

impl MetricKind {
    /// The kind's lowercase label, as used in `METRICS.md`.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::Event => "event",
        }
    }
}

/// One catalogued name (or `*`-pattern) with its kind and meaning.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The recorded name; `*` matches one dotted segment.
    pub name: &'static str,
    /// What the name records.
    pub kind: MetricKind,
    /// One-line description for the generated table.
    pub description: &'static str,
    /// Whether a quick `repro all` run records the name. Quick-gated
    /// entries are checked in both directions; the rest (library paths
    /// and full-scale-only code) are only protected against collisions
    /// (a recorded name must still match some entry of its kind).
    pub quick: bool,
}

const fn def(name: &'static str, kind: MetricKind, description: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind,
        description,
        quick: true,
    }
}

/// A catalogued name no quick `repro all` run records (exercised only
/// by library consumers or full-scale runs).
const fn def_deep(name: &'static str, kind: MetricKind, description: &'static str) -> MetricDef {
    MetricDef {
        quick: false,
        ..def(name, kind, description)
    }
}

use MetricKind::{Counter, Event, Gauge, Histogram};

/// Every telemetry name the workspace records, sorted by kind then
/// name. Names used only by unit tests (the `pool.*` fixtures) are
/// deliberately absent: the catalog covers what `repro` runs record.
pub const CATALOG: &[MetricDef] = &[
    def(
        "bench.computes",
        Counter,
        "Repro units computed (one per unit scope)",
    ),
    def_deep(
        "cache.gathers",
        Counter,
        "Batch gathers served by the multi-GPU cache",
    ),
    def_deep(
        "cache.host_misses",
        Counter,
        "Keys that fell through to the host table",
    ),
    def_deep(
        "cache.local_hits",
        Counter,
        "Keys served from the destination GPU's own arena",
    ),
    def_deep(
        "cache.remote_hits",
        Counter,
        "Keys served from a peer GPU's arena",
    ),
    def(
        "extract.bytes.host",
        Counter,
        "Bytes extracted from host memory",
    ),
    def(
        "extract.bytes.local",
        Counter,
        "Bytes extracted from the local arena",
    ),
    def(
        "extract.bytes.remote",
        Counter,
        "Bytes extracted from peer GPU arenas",
    ),
    def("extract.calls", Counter, "Extraction-mechanism invocations"),
    def(
        "memsim.congestion.egress_capped",
        Counter,
        "Flows clamped by source egress capacity",
    ),
    def(
        "memsim.congestion.link_activations",
        Counter,
        "Flows whose bandwidth was congestion-degraded",
    ),
    def("memsim.extractions", Counter, "Extractions simulated"),
    def(
        "memsim.link.*.*.busy_secs",
        Counter,
        "Simulated seconds the (dst GPU, src) flow was transferring",
    ),
    def(
        "memsim.link.*.*.bytes",
        Counter,
        "Bytes moved over the (dst GPU, src) flow",
    ),
    def(
        "memsim.link.*.*.stall_secs",
        Counter,
        "Simulated seconds the dst GPU extracted while the flow idled",
    ),
    def(
        "memsim.microbench.samples",
        Counter,
        "Bandwidth microbench samples taken",
    ),
    def(
        "memsim.stall_core_secs",
        Counter,
        "Core-seconds idle while an extraction was in flight",
    ),
    def(
        "policy.blocks",
        Counter,
        "Hotness blocks placed by the solver",
    ),
    def(
        "policy.lp.iterations",
        Counter,
        "Simplex iterations across all LP solves",
    ),
    def("policy.lp.solves", Counter, "Placement LP solves"),
    def(
        "policy.patterns",
        Counter,
        "Placement patterns considered by the solver",
    ),
    def(
        "serve.batches",
        Counter,
        "Extraction batches dispatched by the serving engine",
    ),
    def(
        "serve.keys.host",
        Counter,
        "Served keys extracted from the host tier",
    ),
    def(
        "serve.keys.local",
        Counter,
        "Served keys extracted from the local tier",
    ),
    def(
        "serve.keys.remote",
        Counter,
        "Served keys extracted from the remote tier",
    ),
    def("serve.requests", Counter, "Requests served"),
    def(
        "ugache.extract_secs",
        Counter,
        "Simulated seconds spent extracting",
    ),
    def(
        "ugache.iterations",
        Counter,
        "End-to-end iterations processed",
    ),
    def("ugache.refreshes", Counter, "Cache refreshes performed"),
    def(
        "bench.scenario.dlr_scale",
        Gauge,
        "DLR scale divisor of the run",
    ),
    def(
        "bench.scenario.gnn_scale",
        Gauge,
        "GNN scale divisor of the run",
    ),
    def(
        "memsim.core_util",
        Histogram,
        "Per-extraction GPU core utilization",
    ),
    def(
        "memsim.microbench.bytes_per_sec",
        Histogram,
        "Measured link-bandwidth samples",
    ),
    def("policy.lp.residual", Histogram, "LP primal residuals"),
    def(
        "serve.batch_size",
        Histogram,
        "Requests coalesced per dispatched batch",
    ),
    def(
        "serve.latency_ns",
        Histogram,
        "Request latency (exact nanoseconds; carries tail exemplars)",
    ),
    def(
        "serve.queue_ms",
        Histogram,
        "Request queueing delay (milliseconds)",
    ),
    def(
        "memsim.extract",
        Event,
        "One simulated extraction (mode, bytes, makespan)",
    ),
    def("memsim.microbench", Event, "One link-bandwidth probe"),
    def("policy.solve", Event, "One placement solve"),
    def(
        "serve.capacity",
        Event,
        "Saturation-throughput probe result",
    ),
    def(
        "serve.load_point",
        Event,
        "One offered-load level's throughput/latency summary",
    ),
    def(
        "serve.request",
        Event,
        "One served request's exact latency decomposition (by req id)",
    ),
    def("ugache.iteration", Event, "One processed iteration"),
    def(
        "ugache.refresh_started",
        Event,
        "A cache refresh kicked off",
    ),
];

/// Whether `name` matches the catalog pattern `pattern` (`*` matches
/// exactly one dotted segment).
pub fn pattern_matches(pattern: &str, name: &str) -> bool {
    let ps: Vec<&str> = pattern.split('.').collect();
    let ns: Vec<&str> = name.split('.').collect();
    ps.len() == ns.len() && ps.iter().zip(&ns).all(|(p, n)| *p == "*" || p == n)
}

/// Renders the catalog as the exact content of `METRICS.md`.
pub fn render_markdown() -> String {
    let mut out = String::new();
    out.push_str("# Metric catalog\n\n");
    out.push_str(
        "<!-- GENERATED FILE — do not edit by hand. Regenerate with\n     \
         `cargo run --release -p ugache-bench --bin repro -- metrics --md`\n     \
         (CI gates drift via `repro metrics --check`). -->\n\n",
    );
    out.push_str(
        "Every telemetry name the harness records, as declared in\n\
         `ugache_bench::metrics_catalog::CATALOG`. `*` matches exactly one\n\
         dotted segment (the per-flow link counters are per destination GPU\n\
         and source). Counter/gauge/histogram values appear in every\n\
         artifact's `metrics` block; events stream through `repro --trace`;\n\
         the `serve.latency_ns` histogram additionally carries top-K\n\
         request exemplars (see EXPERIMENTS.md, \"Telemetry\" and\n\
         \"Explaining the latency tail\").\n\n",
    );
    out.push_str("| Name | Kind | Quick | Records |\n");
    out.push_str("|---|---|---|---|\n");
    for d in CATALOG {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            d.name,
            d.kind.label(),
            if d.quick { "yes" } else { "—" },
            d.description
        ));
    }
    out.push_str(
        "\nNotes:\n\n\
         * `Quick` = recorded by a quick `repro all` run. Those names are\n  \
         gated in both directions: a recorded name missing here fails\n  \
         `repro metrics --check`, and so does a quick-marked entry the run\n  \
         never records. Entries marked `—` are recorded only by library\n  \
         consumers or full-scale runs (e.g. the `emb-cache` gather\n  \
         counters) and are gated one way: a recorded name must still match\n  \
         some entry of its kind.\n\
         * `pool.*` names exist only in `emb-util`'s worker-pool unit tests\n  \
         and are intentionally uncatalogued.\n",
    );
    out
}

/// Compares the committed catalog text against a fresh render.
///
/// # Errors
///
/// Returns the first differing line (or a length mismatch note) when
/// the texts differ.
pub fn check_file(committed: &str) -> Result<(), String> {
    crate::catalog::check_generated(
        "METRICS.md",
        "catalog",
        "repro metrics --md",
        &render_markdown(),
        committed,
    )
}

/// Runs every target at quick scale (serially, in-process) and returns
/// the distinct `(kind, name)` pairs the run recorded.
pub fn recorded_names() -> BTreeSet<(MetricKind, String)> {
    let units = units_for(TARGETS);
    let results = run_units(&Scenario::quick(), &units, 1);
    let mut names = BTreeSet::new();
    for r in &results {
        let m = &r.telemetry.metrics;
        for (n, _) in &m.counters {
            names.insert((MetricKind::Counter, n.clone()));
        }
        for (n, _) in &m.gauges {
            names.insert((MetricKind::Gauge, n.clone()));
        }
        for (n, _) in &m.histograms {
            names.insert((MetricKind::Histogram, n.clone()));
        }
        for e in &r.telemetry.events {
            names.insert((MetricKind::Event, e.name.to_string()));
        }
    }
    names
}

/// Checks the recorded names against the catalog in both directions.
///
/// Returns one line per drift: a recorded `(kind, name)` no catalog
/// entry of that kind matches, or a catalog entry no recorded name
/// matched. Empty means full coverage.
pub fn check_coverage(recorded: &BTreeSet<(MetricKind, String)>) -> Vec<String> {
    let mut drift = Vec::new();
    for (kind, name) in recorded {
        let catalogued = CATALOG
            .iter()
            .any(|d| d.kind == *kind && pattern_matches(d.name, name));
        if !catalogued {
            drift.push(format!(
                "recorded {} `{name}` is not in the catalog; add it to \
                 metrics_catalog::CATALOG and regenerate METRICS.md",
                kind.label()
            ));
        }
    }
    for d in CATALOG {
        if !d.quick {
            continue;
        }
        let seen = recorded
            .iter()
            .any(|(kind, name)| *kind == d.kind && pattern_matches(d.name, name));
        if !seen {
            drift.push(format!(
                "catalogued {} `{}` was not recorded by a quick run of every \
                 target; remove it or fix the recording site",
                d.kind.label(),
                d.name
            ));
        }
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_match_one_segment_per_star() {
        assert!(pattern_matches(
            "memsim.link.*.*.bytes",
            "memsim.link.gpu0.host.bytes"
        ));
        assert!(pattern_matches(
            "memsim.link.*.*.bytes",
            "memsim.link.gpu3.gpu1.bytes"
        ));
        assert!(!pattern_matches(
            "memsim.link.*.*.bytes",
            "memsim.link.gpu0.bytes"
        ));
        assert!(!pattern_matches(
            "memsim.link.*.*.bytes",
            "memsim.link.gpu0.host.busy_secs"
        ));
        assert!(pattern_matches("serve.requests", "serve.requests"));
        assert!(!pattern_matches("serve.requests", "serve.batches"));
    }

    #[test]
    fn catalog_is_sorted_by_kind_then_name_without_duplicates() {
        for pair in CATALOG.windows(2) {
            let a = (pair[0].kind, pair[0].name);
            let b = (pair[1].kind, pair[1].name);
            assert!(a < b, "{a:?} must precede {b:?}");
        }
    }

    #[test]
    fn markdown_lists_every_entry_once() {
        let md = render_markdown();
        for d in CATALOG {
            assert_eq!(
                md.matches(&format!("| `{}` |", d.name)).count(),
                1,
                "{} appears exactly once",
                d.name
            );
        }
        assert!(md.contains("GENERATED FILE"));
    }

    #[test]
    fn check_file_accepts_fresh_and_rejects_drift() {
        let fresh = render_markdown();
        assert!(check_file(&fresh).is_ok());
        let drifted = fresh.replace("serve.requests", "serve.reqs");
        assert!(check_file(&drifted).unwrap_err().contains("drifted"));
        let truncated: String = fresh.lines().take(5).map(|l| format!("{l}\n")).collect();
        assert!(check_file(&truncated).is_err());
    }

    #[test]
    fn coverage_flags_both_directions() {
        let mut recorded: BTreeSet<(MetricKind, String)> = CATALOG
            .iter()
            .map(|d| (d.kind, d.name.replace('*', "x")))
            .collect();
        assert!(check_coverage(&recorded).is_empty());
        recorded.insert((MetricKind::Counter, "rogue.counter".to_string()));
        let drift = check_coverage(&recorded);
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("rogue.counter"));
        recorded.remove(&(MetricKind::Counter, "rogue.counter".to_string()));
        recorded.remove(&(MetricKind::Counter, "serve.requests".to_string()));
        let drift = check_coverage(&recorded);
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("serve.requests"), "{drift:?}");
    }
}
