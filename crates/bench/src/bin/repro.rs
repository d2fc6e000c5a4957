//! `repro` — regenerates every table and figure of the UGache paper.
//!
//! `repro list` prints the targets and each subcommand's usage, both
//! rendered from their tables (`ugache_bench::figures`,
//! `ugache_bench::cli::SUBCOMMANDS`); EXPERIMENTS.md documents what
//! every flag and subcommand does.
//!
//! Every command handler returns `Result<(), Failure>` and `main` is
//! the only place that prints a failure and exits; the three exit codes
//! are the constants below.

use std::fmt::Display;
use std::path::Path;
use ugache_bench::artifact::{check_dir_schema, diff_dirs, trace_header, trace_line, Artifact};
use ugache_bench::cli::{self, Command, RunSpec};
use ugache_bench::figures::{self, Unit};
use ugache_bench::runner::{run_units, units_for, UnitResult};
use ugache_bench::scenario::{registry, Scenario, WorkloadSpec};
use ugache_bench::{
    catalog, chrome, compare, explain, json, metrics_catalog, profile, replay, timeline,
};

/// A failed invocation: the exit code, and the message for stderr
/// (empty when the findings already went to stdout).
type Failure = (i32, String);

/// A gate ran and said no: directories differ, a regression is beyond
/// tolerance, a generated catalog drifted, a trace is malformed.
const GATE_FAILED: i32 = 1;
/// The invocation is wrong (unknown flag, target, scenario, ...) or a
/// file it names cannot be read or written.
const USAGE_OR_IO: i32 = 2;
/// The input was read but is not what the command consumes: a corrupt
/// trace, an artifact of the wrong kind or schema, garbled JSON.
const UNUSABLE_INPUT: i32 = 3;

/// For `Result::map_err`: fails with `code` and `"{context}: {error}"`.
fn fail<E: Display>(code: i32, context: impl Display) -> impl FnOnce(E) -> Failure {
    move |e| (code, format!("{context}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = cli::parse(&args)
        .map_err(|msg| (USAGE_OR_IO, msg))
        .and_then(execute);
    if let Err((code, msg)) = outcome {
        if !msg.is_empty() {
            eprintln!("{msg}");
        }
        std::process::exit(code);
    }
}

fn execute(cmd: Command) -> Result<(), Failure> {
    match cmd {
        Command::List => {
            print!("{}", cli::usage());
            Ok(())
        }
        Command::Diff { a, b } => diff(&a, &b),
        Command::Compare { baseline, new } => compare(&baseline, &new),
        Command::CheckTrace { path } => check_trace(&path),
        Command::Scenarios { md, check, file } => scenarios(md, check, &file),
        Command::Metrics { md, check, file } => metrics(md, check, &file),
        Command::ExplainTail {
            input,
            out,
            knobs,
            threads,
        } => {
            set_pool_width(threads)?;
            let report = explain_report(&input, &knobs)?;
            explain::render(&report);
            out.map_or(Ok(()), |path| {
                write("explain report", &path, json::to_document(&report), "")
            })
        }
        Command::Record {
            scenario,
            out,
            iters,
            knobs,
            threads,
        } => {
            set_pool_width(threads)?;
            let def = registry().get(&scenario).expect("validated by the CLI");
            let trace = replay::record_trace(def, &knobs, iters);
            let note = format!(
                " ({} records, {} GPUs, {} keys of {})",
                trace.records.len(),
                trace.num_gpus,
                trace.total_keys(),
                trace.num_keys
            );
            write("trace", &out, trace.to_bytes(), &note)
        }
        Command::Replay {
            trace,
            policy,
            platform,
            out,
            threads,
        } => {
            set_pool_width(threads)?;
            let context = format!("cannot read {}", trace.display());
            let bytes = std::fs::read(&trace).map_err(fail(USAGE_OR_IO, context))?;
            let decoded = emb_workload::Trace::from_bytes(&bytes)
                .map_err(fail(UNUSABLE_INPUT, trace.display()))?;
            let report = replay::replay_trace(&decoded, policy, platform)
                .map_err(fail(UNUSABLE_INPUT, "cannot replay"))?;
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
            out.map_or(Ok(()), |path| {
                write("replay report", &path, json::to_document(&report), "")
            })
        }
        Command::Run(spec) => {
            set_pool_width(spec.threads)?;
            run(&spec)
        }
    }
}

/// Reads a text file the invocation named.
fn read(path: &Path) -> Result<String, Failure> {
    let context = format!("cannot read {}", path.display());
    std::fs::read_to_string(path).map_err(fail(USAGE_OR_IO, context))
}

/// Writes an output file the invocation asked for and says so, with
/// `note` appended to the confirmation.
fn write(what: &str, path: &Path, contents: impl AsRef<[u8]>, note: &str) -> Result<(), Failure> {
    let context = format!("failed to write {what} {}", path.display());
    std::fs::write(path, contents).map_err(fail(USAGE_OR_IO, context))?;
    println!("wrote {}{note}", path.display());
    Ok(())
}

/// Resolves the worker-pool width from the `--threads` flag and the
/// `REPRO_THREADS` env var, then configures the pool.
fn set_pool_width(flag: Option<usize>) -> Result<(), Failure> {
    let env = std::env::var("REPRO_THREADS").ok();
    let threads = cli::resolve_threads(flag, env.as_deref()).map_err(|e| (USAGE_OR_IO, e))?;
    emb_util::pool::set_threads(threads);
    Ok(())
}

/// A gate's verdict: every finding goes to stdout, then `passed` — or,
/// when there are findings, exit 1 with `failed`.
fn verdict(findings: &[String], passed: &str, failed: String) -> Result<(), Failure> {
    for line in findings {
        println!("{line}");
    }
    if findings.is_empty() {
        println!("{passed}");
        return Ok(());
    }
    Err((GATE_FAILED, failed))
}

fn diff(a: &Path, b: &Path) -> Result<(), Failure> {
    let diffs = diff_dirs(a, b).map_err(fail(USAGE_OR_IO, "diff failed"))?;
    let identical = "artifact directories are identical";
    verdict(&diffs, identical, String::new())
}

fn compare(baseline: &Path, new: &Path) -> Result<(), Failure> {
    let failures = compare::compare_dirs(baseline, new)
        .map_err(fail(UNUSABLE_INPUT, "compare inputs unusable"))?;
    let passed = format!(
        "no regressions against {} (tolerances in EXPERIMENTS.md)",
        baseline.display()
    );
    let failed = format!("{} regression(s) beyond tolerance", failures.len());
    verdict(&failures, &passed, failed)
}

fn check_trace(path: &Path) -> Result<(), Failure> {
    let context = format!("{} is not valid JSON", path.display());
    let value = json::parse(&read(path)?).map_err(fail(USAGE_OR_IO, context))?;
    let errors = chrome::validate(&value);
    let valid = format!("{}: structurally valid chrome trace", path.display());
    let invalid = format!("{} structural error(s)", errors.len());
    verdict(&errors, &valid, invalid)
}

fn scenarios(md: bool, check: bool, file: &Path) -> Result<(), Failure> {
    if md {
        print!("{}", catalog::render_markdown(registry()));
    } else if check {
        catalog::check(registry(), &read(file)?).map_err(|drift| (GATE_FAILED, drift))?;
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
    Ok(())
}

fn metrics(md: bool, check: bool, file: &Path) -> Result<(), Failure> {
    if md {
        print!("{}", metrics_catalog::render_markdown());
    } else if check {
        metrics_catalog::check_file(&read(file)?).map_err(|drift| (GATE_FAILED, drift))?;
        let recorded = metrics_catalog::recorded_names();
        let drift = metrics_catalog::check_coverage(&recorded);
        if !drift.is_empty() {
            return Err((GATE_FAILED, drift.join("\n")));
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
    Ok(())
}

/// Builds the explain-tail report from a registered serving scenario
/// (computed fresh in-process, exemplars read off the live telemetry
/// snapshot) or, failing that name lookup, from a serve artifact file.
fn explain_report(input: &str, knobs: &Scenario) -> Result<explain::ExplainReport, Failure> {
    if let Some(def) = registry().get(input) {
        if !matches!(def.workload, WorkloadSpec::ServeZipf) {
            let msg = format!(
                "scenario `{input}` is not the serving scenario; explain-tail \
                 reconstructs serve runs (see `repro scenarios`)"
            );
            return Err((USAGE_OR_IO, msg));
        }
        let result = Unit::Serve.compute_with_telemetry(knobs);
        let context = format!("explain-tail failed for scenario {input}");
        return explain::report_from_snapshot(&result.telemetry.metrics)
            .map_err(fail(UNUSABLE_INPUT, context));
    }
    let text = std::fs::read_to_string(input).map_err(|e| {
        let msg = format!(
            "cannot read {input}: {e} (pass a serve artifact or a \
             registered scenario name; see `repro scenarios`)"
        );
        (USAGE_OR_IO, msg)
    })?;
    let not_json = format!("{input} is not valid JSON");
    let value = json::parse(&text).map_err(fail(UNUSABLE_INPUT, not_json))?;
    explain::report_from_artifact(&value).map_err(fail(UNUSABLE_INPUT, input))
}

fn run(spec: &RunSpec) -> Result<(), Failure> {
    if let Some(dir) = spec.out.as_deref() {
        check_dir_schema(dir).map_err(|msg| (USAGE_OR_IO, msg))?;
    }
    let units = units_for(&spec.targets);
    let results = run_units(&spec.scenario, &units, spec.jobs);
    let result_of = |target: &str| {
        let unit = Unit::for_target(target);
        let idx = units.iter().position(|u| Some(*u) == unit);
        &results[idx.expect("every validated target's unit was computed")]
    };
    let per_target: Vec<(&str, &UnitResult)> = spec
        .targets
        .iter()
        .map(|target| (target.as_str(), result_of(target)))
        .collect();
    for &(target, result) in &per_target {
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
            let context = format!("failed to write artifact for {target}");
            let path = artifact.write(dir).map_err(fail(USAGE_OR_IO, context))?;
            println!("wrote {}", path.display());
        } else {
            figures::render(target, &spec.scenario, &result.data);
        }
    }
    if let Some(path) = spec.trace.as_deref() {
        // A header line describing the run, then each target's events
        // in requested-target order.
        let mut out = trace_header(&spec.scenario).render_compact();
        out.push('\n');
        let mut lines = 0;
        for &(target, result) in &per_target {
            for event in &result.telemetry.events {
                out.push_str(&trace_line(target, event).render_compact());
                out.push('\n');
                lines += 1;
            }
        }
        write("trace", path, out, &format!(" ({lines} trace lines)"))?;
    }
    if let Some(path) = spec.chrome_trace.as_deref() {
        let reports: Vec<(&str, &emb_telemetry::Report)> = per_target
            .iter()
            .map(|&(target, result)| (target, &result.telemetry))
            .collect();
        let mut rendered = chrome::chrome_trace(&reports).render_compact();
        rendered.push('\n');
        write("chrome trace", path, rendered, "")?;
    }
    Ok(())
}
