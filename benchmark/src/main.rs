//! `run`, `all`, `selfcheck`, `catalog`: see `README.md`.

use std::process::ExitCode;
use ugache_benchmark::catalog::{self, RUN_SECONDS, WORKLOADS};
use ugache_benchmark::report::{
    end_to_end_values, parse_result, peak_rss_mb, per_layer_values, print_result, ParsedResult,
};
use ugache_benchmark::workloads::{
    dlr_refresh, eval_sweep, gnn_train, serve_online, RunArgs, Traced, Untraced,
};

const USAGE: &str = "usage:
  run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]
  all [--seed N] [--seconds S] [--smoke]      every workload, untraced then traced
  selfcheck [--seed N] [--seconds S] [--smoke]  every workload twice at one seed and once at seed 1
  catalog                                      print BENCHMARK.json";

/// Default seed (the harness's `SEED`).
const DEFAULT_SEED: u64 = 0x5EED;

fn main() -> ExitCode {
    // One thread: the box has two cores and the driver may use the other.
    emb_util::pool::set_threads(1);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("all") => all(&args[1..]),
        Some("selfcheck") => selfcheck(&args[1..]),
        Some("catalog") => {
            print!("{}", catalog::benchmark_json());
            Ok(())
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

type UntracedPass = fn(&RunArgs) -> Result<Untraced, String>;
type TracedPass = fn(&RunArgs) -> Result<Traced, String>;

/// A workload's two passes, by its catalog name.
fn passes(workload: &str) -> Option<(UntracedPass, TracedPass)> {
    Some(match workload {
        "gnn_train" => (gnn_train::run, gnn_train::run_traced),
        "dlr_refresh" => (dlr_refresh::run, dlr_refresh::run_traced),
        "serve_online" => (serve_online::run, serve_online::run_traced),
        "eval_sweep" => (eval_sweep::run, eval_sweep::run_traced),
        _ => return None,
    })
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("`{s}` is not a whole number"))
}

fn run(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut trace_out = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = parse_u64(value()?)?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => trace_out = Some(value()?.clone()),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let scale = seconds / RUN_SECONDS as f64 * if smoke { 0.01 } else { 1.0 };
    let args = RunArgs { seed, scale };
    let (untraced, traced) = passes(&workload).ok_or(format!("unknown workload `{workload}`"))?;
    if trace {
        let traced = traced(&args)?;
        if let Some(path) = trace_out {
            std::fs::write(&path, traced.rec.chrome_json(&workload))
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        print_result(&workload, &traced.log, &per_layer_values(&traced), &[]);
    } else {
        let untraced = untraced(&args)?;
        let metrics = end_to_end_values(&untraced.values, peak_rss_mb());
        print_result(&workload, &untraced.log, &metrics, &untraced.notes);
    }
    Ok(())
}

/// Runs `run <args>` in a process of its own (one process per workload
/// run), echoes what it prints, and returns its result line parsed.
fn child(args: &[String]) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("run")
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!(
            "`run {}` exited with {}",
            args.join(" "),
            out.status
        ));
    }
    text.lines()
        .last()
        .and_then(parse_result)
        .ok_or(format!("`run {}` printed no result", args.join(" ")))
}

fn child_args(workload: &str, trace: bool, passthrough: &[String]) -> Vec<String> {
    let mut args = vec!["--workload".to_string(), workload.to_string()];
    args.extend(["--trace".to_string(), u8::from(trace).to_string()]);
    args.extend_from_slice(passthrough);
    args
}

fn all(passthrough: &[String]) -> Result<(), String> {
    let mut failed = 0;
    for w in &WORKLOADS {
        for trace in [false, true] {
            failed += child(&child_args(w.name, trace, passthrough))?.failed;
        }
    }
    if failed > 0 {
        return Err(format!("{failed} ops failed"));
    }
    Ok(())
}

/// Runs every workload twice at the given seed and once at seed 1.
/// Same-seed runs must agree: `sim_` metrics within
/// [`catalog::SIM_TOLERANCE`], host metrics within their bound.
fn selfcheck(passthrough: &[String]) -> Result<(), String> {
    let mut problems = Vec::new();
    let mut table = vec![format!(
        "{:<13} {:<20} {:>14} {:>14} {:>9} {:>9}  {:>14}",
        "workload", "metric", "run 1", "run 2", "spread", "allowed", "seed 1"
    )];
    for w in &WORKLOADS {
        let base = child_args(w.name, false, passthrough);
        let mut other_seed = base.clone();
        other_seed.extend(["--seed".to_string(), "1".to_string()]);
        let runs = [child(&base)?, child(&base)?, child(&other_seed)?];
        for (i, run) in runs.iter().enumerate() {
            if !run.correct {
                problems.push(format!(
                    "{}: run {} had {} failed ops",
                    w.name,
                    i + 1,
                    run.failed
                ));
            }
        }
        for m in &catalog::END_TO_END {
            let get = |run: &ParsedResult| {
                run.metrics
                    .iter()
                    .find(|(n, _)| n == m.name)
                    .map(|(_, v)| *v)
                    .ok_or(format!("{}: `{}` was not printed", w.name, m.name))
            };
            let (a, b, c) = (get(&runs[0])?, get(&runs[1])?, get(&runs[2])?);
            let spread = (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
            let allowed = if m.name.starts_with("sim_") {
                catalog::SIM_TOLERANCE
            } else {
                m.bound
            };
            if spread > allowed {
                problems.push(format!(
                    "{}: {} differs by {spread:.3e} between same-seed runs (allowed {allowed})",
                    w.name, m.name
                ));
            }
            if a == 0.0 || c == 0.0 {
                problems.push(format!("{}: {} is zero", w.name, m.name));
            }
            table.push(format!(
                "{:<13} {:<20} {:>14.6} {:>14.6} {:>9.2e} {:>9}  {:>14.6}",
                w.name, m.name, a, b, spread, allowed, c
            ));
        }
    }
    println!("\nselfcheck: spread between two runs at one seed");
    for row in &table {
        println!("{row}");
    }
    if problems.is_empty() {
        println!("selfcheck: ok");
        Ok(())
    } else {
        Err(format!("selfcheck failed:\n  {}", problems.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_workload_has_its_passes() {
        for w in &WORKLOADS {
            assert!(passes(w.name).is_some(), "{}", w.name);
        }
        assert!(passes("nope").is_none());
    }
}
