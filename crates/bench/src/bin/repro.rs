//! `repro` — regenerates every table and figure of the UGache paper.
//!
//! Usage:
//! ```text
//! repro [--full] [--jobs N] [--threads N] [--trace OUT.jsonl] [--chrome-trace OUT.json] <target>...
//! repro [--full] [--jobs N] [--threads N] [...] --json --out DIR <target>...
//! repro profile [--full] [--jobs N] [--threads N] <target>...
//! repro diff <dir-a> <dir-b>
//! repro compare <baseline-dir> <new-dir>
//! repro compare <baseline-bench.json> <new-bench.json>
//! repro bench [--trials N] [--warmup N] [--out FILE] [NAME...]
//! repro check-trace <trace.json>
//! repro scenarios [--md | --check [--file PATH]]
//! repro metrics [--md | --check [--file PATH]]
//! repro record <scenario> --out TRACE [--iters N] [--full] [--threads N]
//! repro replay TRACE [--policy P] [--platform PL] [--out FILE] [--threads N]
//! repro explain-tail <serve.json | scenario> [--out FILE] [--full] [--threads N]
//! repro list
//! repro all
//! ```
//!
//! Targets: table1 table3 fig2 fig4 fig6 fig8 fig9 fig10 fig11 fig12
//! fig13 fig14 fig15 fig16 fig17 hotness serve. `--full` uses larger scaled
//! datasets (slower, smoother series); `--gnn-scale=N` / `--dlr-scale=N`
//! override the dataset scale divisors explicitly. `--jobs N` computes
//! targets on N worker threads; output order and artifact bytes are
//! identical to a serial run. `--threads N` sets the intra-target
//! worker-pool width (gather passes, workload generation); artifacts,
//! traces, and chrome traces are byte-identical at every width
//! (defaults to 1, or the `REPRO_THREADS` env var when the flag is
//! absent). `--json --out DIR` writes one
//! stable-schema JSON artifact per target instead of pretty-printing
//! (each carries telemetry `metrics` and span-derived `timeline`
//! blocks); `--trace OUT.jsonl` additionally writes the ordered
//! telemetry event stream, one JSON object per line, and
//! `--chrome-trace OUT.json` the simulated-time spans in Chrome
//! trace-event format (load in `chrome://tracing` or Perfetto; see
//! EXPERIMENTS.md for both schemas). `repro profile` prints each
//! target's top time consumers and per-GPU stall breakdown instead of
//! the figure. `repro diff` structurally compares two artifact
//! directories; `repro compare` gates a fresh directory against a
//! baseline using per-metric tolerances (non-zero exit on regression);
//! `repro check-trace` validates a Chrome trace file structurally.
//! `repro scenarios` lists the scenario registry (`--md` renders the
//! SCENARIOS.md catalog, `--check` gates the committed file against the
//! registry); `repro record` captures a registered scenario's access
//! stream to a UGTR trace and `repro replay` replays a trace under any
//! policy on any platform (see EXPERIMENTS.md, "Scenario registry and
//! access traces", for the wire format and exit codes).
//! `repro metrics` lists the central metric-name catalog (`--md`
//! renders the METRICS.md content, `--check` gates the committed file
//! and the catalog's two-direction coverage against a fresh quick run
//! of every target). `repro explain-tail` reconstructs the top-K tail
//! requests of a serve run — from a schema-v5 `serve.json` artifact or
//! a fresh in-process run of the serving scenario — attributing each
//! latency exactly across queue/batch-wait/extract-tier, and writes the
//! deterministic JSON report with `--out` (exit 3 on unusable input;
//! see EXPERIMENTS.md, "Explaining the latency tail").
//! `repro bench` times the optimized hot paths against their frozen
//! reference implementations (wall clock; simulated results are
//! asserted identical) and writes a `BENCH_*.json` report with `--out`;
//! pointing `repro compare` at two such `.json` files applies the soft
//! wall-clock gate instead of the artifact tolerance table.

use ugache_bench::artifact::{
    check_dir_schema, diff_dirs, trace_header, trace_line, Artifact, TargetData,
};
use ugache_bench::cli::{self, Command, RunSpec};
use ugache_bench::figures::*;
use ugache_bench::runner::{run_units, units_for, Unit, UnitResult};
use ugache_bench::scenario::{registry, WorkloadSpec};
use ugache_bench::{
    catalog, chrome, compare, explain, json, metrics_catalog, microbench, profile, replay,
    timeline, Scenario,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    match cmd {
        Command::List => {
            println!("targets: {} | all", cli::TARGETS.join(" "));
            println!(
                "usage: repro [--full] [--jobs N] [--threads N] [--trace OUT.jsonl] \
                 [--chrome-trace OUT.json] [--json --out DIR] <target>... (or: repro all)"
            );
            println!("       repro profile [--full] [--jobs N] [--threads N] <target>...");
            println!("       repro diff <dir-a> <dir-b>");
            println!("       repro compare <baseline-dir> <new-dir>");
            println!("       repro compare <baseline-bench.json> <new-bench.json>");
            println!(
                "       repro bench [--trials N] [--warmup N] [--out FILE] [{}]",
                microbench::BENCH_NAMES.join("|")
            );
            println!("       repro check-trace <trace.json>");
            println!("       repro scenarios [--md | --check [--file PATH]]");
            println!(
                "       repro record <scenario> --out TRACE [--iters N] [--full] [--threads N]"
            );
            println!(
                "       repro replay TRACE [--policy P] [--platform PL] [--out FILE] [--threads N]"
            );
            println!("       repro metrics [--md | --check [--file PATH]]");
            println!(
                "       repro explain-tail <serve.json | scenario> [--out FILE] [--full] \
                 [--threads N]"
            );
        }
        Command::Diff { a, b } => {
            let diffs = match diff_dirs(&a, &b) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("diff failed: {e}");
                    std::process::exit(2);
                }
            };
            if diffs.is_empty() {
                println!("artifact directories are identical");
            } else {
                for d in &diffs {
                    println!("{d}");
                }
                std::process::exit(1);
            }
        }
        Command::Compare { baseline, new } => {
            // Two `.json` files = bench reports (soft wall-clock gate);
            // anything else = artifact directories (tolerance table).
            let bench_mode = baseline.extension().is_some_and(|e| e == "json")
                && new.extension().is_some_and(|e| e == "json");
            if bench_mode {
                let (warnings, failures) = match microbench::compare_files(&baseline, &new) {
                    Ok(r) => r,
                    Err(e) => {
                        // Exit 3: the inputs could not be compared at all
                        // (unreadable file, bad JSON, wrong kind/schema) —
                        // distinct from exit 1, a genuine gate failure.
                        eprintln!("bench compare inputs unusable: {e}");
                        std::process::exit(3);
                    }
                };
                for w in &warnings {
                    println!("{w}");
                }
                if failures.is_empty() {
                    println!(
                        "no large wall-clock regressions against {} (soft gate; \
                         see EXPERIMENTS.md)",
                        baseline.display()
                    );
                } else {
                    for f in &failures {
                        println!("{f}");
                    }
                    eprintln!("{} large wall-clock regression(s)", failures.len());
                    std::process::exit(1);
                }
                return;
            }
            let failures = match compare::compare_dirs(&baseline, &new) {
                Ok(f) => f,
                Err(e) => {
                    // Exit 3: inputs unusable (see the bench branch above).
                    eprintln!("compare inputs unusable: {e}");
                    std::process::exit(3);
                }
            };
            if failures.is_empty() {
                println!(
                    "no regressions against {} (tolerances in EXPERIMENTS.md)",
                    baseline.display()
                );
            } else {
                for f in &failures {
                    println!("{f}");
                }
                eprintln!("{} regression(s) beyond tolerance", failures.len());
                std::process::exit(1);
            }
        }
        Command::CheckTrace { path } => {
            let text = read_or_exit(&path);
            let value = match json::parse(&text) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("{} is not valid JSON: {e}", path.display());
                    std::process::exit(2);
                }
            };
            let errors = chrome::validate(&value);
            if errors.is_empty() {
                println!("{}: structurally valid chrome trace", path.display());
            } else {
                for e in &errors {
                    println!("{e}");
                }
                eprintln!("{} structural error(s)", errors.len());
                std::process::exit(1);
            }
        }
        Command::Bench {
            names,
            trials,
            warmup,
            out,
        } => {
            let report = match microbench::run_benches(&names, trials, warmup) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            };
            microbench::render(&report);
            if let Some(path) = out.as_deref() {
                let mut text = json::to_string_pretty(&report).expect("bench report serializes");
                text.push('\n');
                match std::fs::write(path, text) {
                    Ok(()) => println!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("failed to write bench report {}: {e}", path.display());
                        std::process::exit(2);
                    }
                }
            }
        }
        Command::Scenarios { md, check, file } => {
            if md {
                print!("{}", catalog::render_markdown(registry()));
            } else if check {
                let committed = read_or_exit(&file);
                if let Err(drift) = catalog::check(registry(), &committed) {
                    eprintln!("{drift}");
                    std::process::exit(1);
                }
                println!("{} matches the registry", file.display());
            } else {
                for def in registry().defs() {
                    println!(
                        "{:<28} {:<28} [{}]",
                        def.name,
                        def.workload.label(),
                        def.consumers.join(" ")
                    );
                }
                println!(
                    "{} scenarios; `repro record <name> --out TRACE` captures one \
                     (catalog: SCENARIOS.md)",
                    registry().defs().len()
                );
            }
        }
        Command::Metrics { md, check, file } => {
            if md {
                print!("{}", metrics_catalog::render_markdown());
            } else if check {
                let committed = read_or_exit(&file);
                if let Err(drift) = metrics_catalog::check_file(&committed) {
                    eprintln!("{drift}");
                    std::process::exit(1);
                }
                let recorded = metrics_catalog::recorded_names();
                let drift = metrics_catalog::check_coverage(&recorded);
                if !drift.is_empty() {
                    for d in &drift {
                        eprintln!("{d}");
                    }
                    std::process::exit(1);
                }
                println!(
                    "{} matches the catalog; {} recorded names covered",
                    file.display(),
                    recorded.len()
                );
            } else {
                for d in metrics_catalog::CATALOG {
                    println!("{:<36} {:<9} {}", d.name, d.kind.label(), d.description);
                }
                println!(
                    "{} catalogued names (catalog: METRICS.md; `repro metrics --check` \
                     gates drift against a full quick run)",
                    metrics_catalog::CATALOG.len()
                );
            }
        }
        Command::ExplainTail {
            input,
            out,
            knobs,
            threads,
        } => {
            if let Err(msg) = set_pool_width(threads) {
                eprintln!("{msg}");
                std::process::exit(2);
            }
            let report = if let Some(def) = registry().get(&input) {
                // Registered scenario: compute the serve target fresh
                // in-process and read the exemplars off the live
                // telemetry snapshot.
                if !matches!(def.workload, WorkloadSpec::ServeZipf) {
                    eprintln!(
                        "scenario `{input}` is not the serving scenario; explain-tail \
                         reconstructs serve runs (see `repro scenarios`)"
                    );
                    std::process::exit(2);
                }
                let unit = Unit::for_target("serve").expect("serve is a target");
                let result = unit.compute_with_telemetry(&knobs);
                match explain::report_from_snapshot(&result.telemetry.metrics) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("explain-tail failed for scenario {input}: {e}");
                        std::process::exit(3);
                    }
                }
            } else {
                let text = match std::fs::read_to_string(&input) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!(
                            "cannot read {input}: {e} (pass a serve artifact or a \
                             registered scenario name; see `repro scenarios`)"
                        );
                        std::process::exit(2);
                    }
                };
                let value = match json::parse(&text) {
                    Ok(v) => v,
                    Err(e) => {
                        // Exit 3: the artifact itself is unusable,
                        // distinct from exit 2 usage/IO errors.
                        eprintln!("{input} is not valid JSON: {e}");
                        std::process::exit(3);
                    }
                };
                match explain::report_from_artifact(&value) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("{input}: {e}");
                        std::process::exit(3);
                    }
                }
            };
            explain::render(&report);
            if let Some(path) = out.as_deref() {
                match std::fs::write(path, explain::to_json(&report)) {
                    Ok(()) => println!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("failed to write explain report {}: {e}", path.display());
                        std::process::exit(2);
                    }
                }
            }
        }
        Command::Record {
            scenario,
            out,
            iters,
            knobs,
            threads,
        } => {
            if let Err(msg) = set_pool_width(threads) {
                eprintln!("{msg}");
                std::process::exit(2);
            }
            let def = registry().get(&scenario).expect("validated by the CLI");
            let trace = replay::record_trace(def, &knobs, iters);
            match std::fs::write(&out, trace.to_bytes()) {
                Ok(()) => println!(
                    "wrote {} ({} records, {} GPUs, {} keys of {})",
                    out.display(),
                    trace.records.len(),
                    trace.num_gpus,
                    trace.total_keys(),
                    trace.num_keys
                ),
                Err(e) => {
                    eprintln!("failed to write trace {}: {e}", out.display());
                    std::process::exit(2);
                }
            }
        }
        Command::Replay {
            trace,
            policy,
            platform,
            out,
            threads,
        } => {
            if let Err(msg) = set_pool_width(threads) {
                eprintln!("{msg}");
                std::process::exit(2);
            }
            let bytes = match std::fs::read(&trace) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", trace.display());
                    std::process::exit(2);
                }
            };
            let decoded = match emb_workload::Trace::from_bytes(&bytes) {
                Ok(t) => t,
                Err(e) => {
                    // Exit 3: the trace itself is unusable (bad magic,
                    // version mismatch, truncation, ...), distinct from
                    // exit 2 usage/IO errors — see EXPERIMENTS.md.
                    eprintln!("{}: {e}", trace.display());
                    std::process::exit(3);
                }
            };
            let report = match replay::replay_trace(&decoded, policy, platform) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("replay failed: {e}");
                    std::process::exit(2);
                }
            };
            println!(
                "replayed {}: {}, {} records on {} under {}",
                trace.display(),
                report.scenario,
                report.records,
                report.platform,
                report.policy
            );
            println!(
                "  totals: local {} | remote {} | host {}",
                report.totals.local, report.totals.remote, report.totals.host
            );
            if let Some(path) = out.as_deref() {
                let mut text = json::to_string_pretty(&report).expect("replay report serializes");
                text.push('\n');
                match std::fs::write(path, text) {
                    Ok(()) => println!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("failed to write replay report {}: {e}", path.display());
                        std::process::exit(2);
                    }
                }
            }
        }
        Command::Run(spec) => {
            if let Err(msg) = set_pool_width(spec.threads) {
                eprintln!("{msg}");
                std::process::exit(2);
            }
            run(&spec);
        }
    }
}

/// Reads a text file the invocation named, or reports it unreadable and
/// exits 2 (usage/IO error).
fn read_or_exit(path: &std::path::Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(2)
    })
}

/// Resolves the worker-pool width from the `--threads` flag and the
/// `REPRO_THREADS` env var, then configures the pool.
fn set_pool_width(flag: Option<usize>) -> Result<(), String> {
    let env = std::env::var("REPRO_THREADS").ok();
    let threads = cli::resolve_threads(flag, env.as_deref())?;
    emb_util::pool::set_threads(threads);
    Ok(())
}

fn run(spec: &RunSpec) {
    if let Some(dir) = spec.out.as_deref() {
        if let Err(msg) = check_dir_schema(dir) {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
    let units = units_for(&spec.targets);
    let results = run_units(&spec.scenario, &units, spec.jobs);
    let result_for = |target: &str| -> &UnitResult {
        let unit = Unit::for_target(target).expect("targets validated by the CLI");
        let idx = units
            .iter()
            .position(|u| *u == unit)
            .expect("unit computed");
        &results[idx]
    };
    for target in &spec.targets {
        let result = result_for(target);
        if spec.profile {
            profile::render_profile(target, &result.telemetry);
        } else if spec.json {
            let dir = spec.out.as_ref().expect("--json implies --out");
            let artifact = Artifact::new(
                target,
                &spec.scenario,
                result.data.clone(),
                Some(result.telemetry.metrics.clone()),
                Some(timeline::from_report(&result.telemetry)),
            );
            match artifact.write(dir) {
                Ok(path) => println!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write artifact for {target}: {e}");
                    std::process::exit(2);
                }
            }
        } else {
            render(target, &spec.scenario, &result.data);
        }
    }
    if let Some(path) = spec.trace.as_deref() {
        let per_target: Vec<(&str, &UnitResult)> = spec
            .targets
            .iter()
            .map(|t| (t.as_str(), result_for(t)))
            .collect();
        match write_trace(path, &spec.scenario, &per_target) {
            Ok(lines) => println!("wrote {} ({lines} trace lines)", path.display()),
            Err(e) => {
                eprintln!("failed to write trace {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = spec.chrome_trace.as_deref() {
        let per_target: Vec<(&str, &emb_telemetry::Report)> = spec
            .targets
            .iter()
            .map(|t| (t.as_str(), &result_for(t).telemetry))
            .collect();
        let mut rendered = chrome::chrome_trace(&per_target).render_compact();
        rendered.push('\n');
        match std::fs::write(path, rendered) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write chrome trace {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
}

/// Writes the JSONL telemetry trace: a header line describing the run,
/// then each target's events in requested-target order. Returns the
/// number of event lines written.
fn write_trace(
    path: &std::path::Path,
    scenario: &Scenario,
    per_target: &[(&str, &UnitResult)],
) -> std::io::Result<usize> {
    let mut out = String::new();
    out.push_str(&trace_header(scenario).render_compact());
    out.push('\n');
    let mut lines = 0;
    for (target, result) in per_target {
        for event in &result.telemetry.events {
            out.push_str(&trace_line(target, event).render_compact());
            out.push('\n');
            lines += 1;
        }
    }
    std::fs::write(path, out)?;
    Ok(lines)
}

fn render(target: &str, s: &Scenario, data: &TargetData) {
    match (target, data) {
        ("table1", TargetData::Table1(v)) => table1::render(v),
        ("table3", TargetData::Table3(v)) => table3::render(s, v),
        ("fig2", TargetData::Fig2(v)) => fig02::render(v),
        ("fig4", TargetData::Fig4(v)) => fig04::render(v),
        ("fig6", TargetData::Fig6(v)) => fig06::render(v),
        ("fig8", TargetData::Fig8(v)) => fig08::render(v),
        ("fig9", TargetData::Fig9(v)) => fig09::render(v),
        ("fig10", TargetData::Fig10(v)) => fig10::render_fig10(v),
        ("fig11", TargetData::Fig10(v)) => fig10::render_fig11(v),
        ("fig12", TargetData::Fig12(v)) => fig12::render(v),
        ("fig13", TargetData::Fig13(v)) => fig13::render(v),
        ("fig14", TargetData::Fig14(v)) => fig14::render(v),
        ("fig16", TargetData::Fig16(v)) => fig16::render(v),
        ("fig17", TargetData::Fig17(v)) => fig17::render(v),
        ("hotness", TargetData::Hotness(v)) => hotness_sources::render(v),
        ("serve", TargetData::Serve(v)) => serve::render(v),
        (t, _) => unreachable!("target `{t}` paired with wrong data variant"),
    }
}
