//! Thread-count determinism of the intra-target worker pool: JSON
//! artifacts (payload + telemetry metrics + timeline), `--trace` event
//! streams, and `--chrome-trace` output must be byte-identical whether
//! the pool runs 1, 2, or 8 workers. This is the `--threads N` analogue
//! of the serial-vs-`--jobs` determinism test in `repro_cli.rs`.

use ugache_bench::artifact::{trace_line, Artifact};
use ugache_bench::runner::{run_units, units_for, UnitResult};
use ugache_bench::scenario::Scenario;
use ugache_bench::{chrome, explain, json, timeline};

fn tiny() -> Scenario {
    Scenario {
        gnn_scale: 16_384,
        dlr_scale: 65_536,
        gnn_batch: 128,
        dlr_batch: 128,
        iters: 1,
        serve_users: 50_000,
        serve_requests: 48,
    }
}

/// Cheap targets that walk the pooled paths: DLR and GNN workload
/// generation (`next_batch`, hotness profiling) feed every one of these.
const TARGETS: &[&str] = &["table1", "fig2", "fig9", "fig14", "serve"];

fn run_at(threads: usize) -> Vec<UnitResult> {
    let targets: Vec<String> = TARGETS.iter().map(|t| t.to_string()).collect();
    let units = units_for(&targets);
    emb_util::pool::with_threads(threads, || run_units(&tiny(), &units, 1))
}

#[test]
fn artifacts_traces_and_chrome_traces_are_identical_across_thread_counts() {
    let s = tiny();
    let render = |results: &[UnitResult]| -> (Vec<String>, Vec<String>, String) {
        let artifacts: Vec<String> = TARGETS
            .iter()
            .zip(results)
            .map(|(t, r)| {
                json::to_document(&Artifact::new(
                    t,
                    &s,
                    r.data.clone(),
                    Some(r.telemetry.metrics.clone()),
                    Some(timeline::from_report(&r.telemetry)),
                ))
            })
            .collect();
        let trace: Vec<String> = TARGETS
            .iter()
            .zip(results)
            .flat_map(|(t, r)| {
                r.telemetry
                    .events
                    .iter()
                    .map(|e| trace_line(t, e).render_compact())
                    .collect::<Vec<_>>()
            })
            .collect();
        let per_target: Vec<(&str, &emb_telemetry::Report)> = TARGETS
            .iter()
            .zip(results)
            .map(|(t, r)| (*t, &r.telemetry))
            .collect();
        let chrome = chrome::chrome_trace(&per_target).render_compact();
        (artifacts, trace, chrome)
    };

    let baseline = render(&run_at(1));
    for threads in [2usize, 8] {
        let (artifacts, trace, chrome) = render(&run_at(threads));
        for (t, (a, b)) in TARGETS.iter().zip(baseline.0.iter().zip(&artifacts)) {
            assert_eq!(a, b, "{t}: artifact bytes diverge at --threads {threads}");
        }
        assert_eq!(
            baseline.1, trace,
            "trace stream diverges at --threads {threads}"
        );
        assert_eq!(
            baseline.2, chrome,
            "chrome trace diverges at --threads {threads}"
        );
    }
}

/// Exemplar selection is a pure function of the observation multiset, so
/// the `explain-tail` report — built entirely from exemplars — must come
/// out byte-identical at every pool width and job count. This is the
/// report-level analogue of the artifact-bytes test above (whose serve
/// artifact already embeds the `exemplars` block via the metrics
/// snapshot).
#[test]
fn explain_tail_reports_are_identical_across_thread_counts_and_jobs() {
    let units = units_for(&["serve".to_string()]);
    let report_at = |threads: usize, jobs: usize| -> String {
        let results = emb_util::pool::with_threads(threads, || run_units(&tiny(), &units, jobs));
        let report = explain::report_from_snapshot(&results[0].telemetry.metrics)
            .expect("serve snapshot yields a consistent tail report");
        json::to_document(&report)
    };
    let baseline = report_at(1, 1);
    // The report reconstructs the full top-K (48 requests >= K = 8).
    let v = json::parse(&baseline).unwrap();
    assert_eq!(
        v.get("summary").unwrap().get("requests").unwrap(),
        &json::Value::Num(emb_telemetry::EXEMPLAR_K.to_string())
    );
    for (threads, jobs) in [(4usize, 1usize), (1, 4), (8, 2)] {
        assert_eq!(
            baseline,
            report_at(threads, jobs),
            "explain-tail report diverges at --threads {threads} --jobs {jobs}"
        );
    }
}
