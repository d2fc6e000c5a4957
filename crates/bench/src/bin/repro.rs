//! `repro` — regenerates every table and figure of the UGache paper.
//!
//! `repro list` prints the targets and each subcommand's usage, both
//! rendered from their tables (`ugache_bench::figures`,
//! `ugache_bench::cli::SUBCOMMANDS`); EXPERIMENTS.md documents what
//! every flag and subcommand does.
//!
//! Every command handler returns `Result<(), Failure>` and `main` is
//! the only place that prints a failure and exits; the three exit codes
//! are the constants below. Everything for stdout goes through `emit`.

use std::fmt::Display;
use std::io::Write as _;
use std::path::Path;
use ugache_bench::artifact::{check_dir_schema, diff_dirs, trace_header, trace_line, Artifact};
use ugache_bench::cli::{self, Command, RunSpec};
use ugache_bench::figures::{self, Unit};
use ugache_bench::runner::{run_units, units_for, UnitResult};
use ugache_bench::scenario::{registry, Scenario, WorkloadSpec};
use ugache_bench::{catalog, chrome, compare, explain, json, metrics_catalog, replay, timeline};

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

/// Writes `text` to stdout: the one place `repro` prints anything but a
/// failure. A stdout whose reader has gone (`repro list | head -1`) ends
/// the command with `USAGE_OR_IO` and no message, where `print!` would
/// panic.
fn emit(text: &str) -> Result<(), Failure> {
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe => (USAGE_OR_IO, String::new()),
            _ => (USAGE_OR_IO, format!("cannot write to stdout: {e}")),
        })
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
        Command::List => emit(&cli::usage()),
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
            emit(&explain::render(&report))?;
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
            emit(&format!(
                "replayed {}: {}, {} records on {} under {}\n  totals: local {} | remote {} | host {}\n",
                trace.display(),
                report.scenario,
                report.records,
                report.platform,
                report.policy,
                report.totals.local,
                report.totals.remote,
                report.totals.host
            ))?;
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

/// Reads a text file the invocation named: one that cannot be read is a
/// usage or IO failure, one that is not UTF-8 text unusable input.
fn read(path: &Path) -> Result<String, Failure> {
    let context = format!("cannot read {}", path.display());
    let bytes = std::fs::read(path).map_err(fail(USAGE_OR_IO, context))?;
    let context = format!("{} is not UTF-8 text", path.display());
    String::from_utf8(bytes).map_err(fail(UNUSABLE_INPUT, context))
}

/// Writes an output file the invocation asked for and says so, with
/// `note` appended to the confirmation.
fn write(what: &str, path: &Path, contents: impl AsRef<[u8]>, note: &str) -> Result<(), Failure> {
    let context = format!("failed to write {what} {}", path.display());
    std::fs::write(path, contents).map_err(fail(USAGE_OR_IO, context))?;
    emit(&format!("wrote {}{note}\n", path.display()))
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
        emit(&format!("{line}\n"))?;
    }
    if findings.is_empty() {
        return emit(&format!("{passed}\n"));
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
    let value = json::parse(&read(path)?).map_err(fail(UNUSABLE_INPUT, context))?;
    let errors = chrome::validate(&value);
    let valid = format!("{}: structurally valid chrome trace", path.display());
    let invalid = format!("{} structural error(s)", errors.len());
    verdict(&errors, &valid, invalid)
}

fn scenarios(md: bool, check: bool, file: &Path) -> Result<(), Failure> {
    if md {
        emit(&catalog::render_markdown(registry()))
    } else if check {
        catalog::check(registry(), &read(file)?).map_err(|drift| (GATE_FAILED, drift))?;
        emit(&format!("{} matches the registry\n", file.display()))
    } else {
        let mut text = String::new();
        for def in registry().defs() {
            text += &format!(
                "{:<28} {:<28} [{}]\n",
                def.name,
                def.workload.label(),
                def.consumers.join(" ")
            );
        }
        text += &format!(
            "{} scenarios; `repro record <name> --out TRACE` captures one \
             (catalog: SCENARIOS.md)\n",
            registry().defs().len()
        );
        emit(&text)
    }
}

fn metrics(md: bool, check: bool, file: &Path) -> Result<(), Failure> {
    if md {
        emit(&metrics_catalog::render_markdown())
    } else if check {
        metrics_catalog::check_file(&read(file)?).map_err(|drift| (GATE_FAILED, drift))?;
        let recorded = metrics_catalog::recorded_names();
        let drift = metrics_catalog::check_coverage(&recorded);
        if !drift.is_empty() {
            return Err((GATE_FAILED, drift.join("\n")));
        }
        emit(&format!(
            "{} matches the catalog; {} recorded names covered\n",
            file.display(),
            recorded.len()
        ))
    } else {
        let mut text = String::new();
        for d in metrics_catalog::CATALOG {
            text += &format!("{:<36} {:<9} {}\n", d.name, d.kind.label(), d.description);
        }
        text += &format!(
            "{} catalogued names (catalog: METRICS.md; `repro metrics --check` \
             gates drift against a full quick run)\n",
            metrics_catalog::CATALOG.len()
        );
        emit(&text)
    }
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
    let text = read(Path::new(input)).map_err(|(code, msg)| match code {
        USAGE_OR_IO => {
            let hint = "pass a serve artifact or a registered scenario name; see `repro scenarios`";
            (code, format!("{msg} ({hint})"))
        }
        _ => (code, msg),
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
        if spec.json {
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
            emit(&format!("wrote {}\n", path.display()))?;
        } else {
            emit(&figures::render(target, &spec.scenario, &result.data))?;
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
