//! Argument parsing for the `repro` binary.
//!
//! Kept in the library (rather than the binary) so CLI semantics —
//! alias resolution, order-independent dedup, flag validation — are
//! unit-testable without spawning processes.

use crate::scenario::{registry, PlatformId, PolicyId, Scenario};
use std::path::PathBuf;

/// Every target the `repro` CLI accepts, in canonical execution order.
pub const TARGETS: &[&str] = &[
    "table1", "table3", "fig2", "fig4", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16", "fig17", "hotness", "serve",
];

/// A validated `repro` run request.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Targets in requested order, aliases resolved, duplicates removed.
    pub targets: Vec<String>,
    /// Scenario after `--full` / explicit scale overrides.
    pub scenario: Scenario,
    /// Emit JSON artifacts instead of pretty-printed tables.
    pub json: bool,
    /// Artifact output directory (required with `--json`).
    pub out: Option<PathBuf>,
    /// Worker threads for computation (>= 1).
    pub jobs: usize,
    /// Intra-target worker-pool width (`--threads N`, >= 1). `None`
    /// means the flag was absent; the binary then falls back to the
    /// `REPRO_THREADS` env var via [`resolve_threads`], defaulting to 1.
    pub threads: Option<usize>,
    /// Telemetry event-trace output file (JSONL), if requested.
    pub trace: Option<PathBuf>,
    /// Chrome trace-event output file (JSON), if requested.
    pub chrome_trace: Option<PathBuf>,
    /// Render a span profile instead of the figure output (the
    /// `repro profile` subcommand).
    pub profile: bool,
}

/// A parsed `repro` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print the target menu and usage.
    List,
    /// Compare two artifact directories for exact structural equality.
    Diff {
        /// Left directory.
        a: PathBuf,
        /// Right directory.
        b: PathBuf,
    },
    /// Compare two artifact directories' metric/timeline blocks against
    /// the perf-regression tolerance table. When both paths are
    /// `BENCH_*.json` files, the binary applies the soft wall-clock gate
    /// ([`crate::microbench::compare_files`]) instead.
    Compare {
        /// Baseline directory (committed reference).
        baseline: PathBuf,
        /// Fresh directory to gate.
        new: PathBuf,
    },
    /// Structurally validate a Chrome trace-event file.
    CheckTrace {
        /// The trace file to validate.
        path: PathBuf,
    },
    /// Run the wall-clock microbenches (`repro bench`).
    Bench {
        /// Bench names in requested order (empty = all).
        names: Vec<String>,
        /// Timed trials per implementation.
        trials: usize,
        /// Untimed warmup runs per implementation.
        warmup: usize,
        /// Where to write the bench report, if requested.
        out: Option<PathBuf>,
    },
    /// List registered scenarios, render the catalog, or gate it
    /// (`repro scenarios [--md | --check [--file PATH]]`).
    Scenarios {
        /// Print the generated `SCENARIOS.md` content instead of the
        /// one-line-per-scenario listing.
        md: bool,
        /// Compare the committed catalog against the registry (exit 1
        /// on drift).
        check: bool,
        /// Catalog file `--check` reads (default `SCENARIOS.md`).
        file: PathBuf,
    },
    /// List the metric-name catalog, render it, or gate it against a
    /// full quick run (`repro metrics [--md | --check [--file PATH]]`).
    Metrics {
        /// Print the generated `METRICS.md` content instead of the
        /// one-line-per-name listing.
        md: bool,
        /// Compare the committed catalog against the table and a fresh
        /// quick run's recorded names (exit 1 on drift).
        check: bool,
        /// Catalog file `--check` reads (default `METRICS.md`).
        file: PathBuf,
    },
    /// Record a scenario's access stream to a UGTR trace file.
    Record {
        /// Registered scenario name (validated at parse time).
        scenario: String,
        /// Trace output path.
        out: PathBuf,
        /// Iteration (for `serve`: request) count override.
        iters: Option<usize>,
        /// Scenario scale knobs after `--full` / explicit overrides.
        knobs: Scenario,
        /// Worker-pool width (`--threads N`; see [`resolve_threads`]).
        threads: Option<usize>,
    },
    /// Replay a trace under a policy on a platform.
    Replay {
        /// Trace input path.
        trace: PathBuf,
        /// Policy to replay under (default `ugache`).
        policy: PolicyId,
        /// Platform override (default: matched to the trace's GPU
        /// count).
        platform: Option<PlatformId>,
        /// Replay-report output path, if requested.
        out: Option<PathBuf>,
        /// Worker-pool width (`--threads N`; see [`resolve_threads`]).
        threads: Option<usize>,
    },
    /// Reconstruct the tail requests of a serve run (`repro
    /// explain-tail <serve-artifact.json | scenario>`).
    ExplainTail {
        /// A schema-v5 `serve.json` artifact path, or a registered
        /// serving scenario name to compute fresh in-process (resolved
        /// at run time: registry names win over paths).
        input: String,
        /// Explain-report output path, if requested (the table renders
        /// to stdout either way).
        out: Option<PathBuf>,
        /// Scenario scale knobs for the in-process path (`--full` /
        /// explicit overrides; ignored for artifact inputs).
        knobs: Scenario,
        /// Worker-pool width (`--threads N`; see [`resolve_threads`]).
        threads: Option<usize>,
    },
    /// Compute (and render or serialize) targets.
    Run(RunSpec),
}

fn parse_scale(name: &str, value: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .map(|v| v.max(1))
        .map_err(|_| format!("--{name} expects an unsigned integer, got `{value}`"))
}

/// Parses the `[--md | --check [--file PATH]]` flags the two generated-
/// catalog subcommands (`scenarios`, `metrics`) share; `file` defaults
/// to the committed catalog `default_file`.
fn parse_catalog_flags(
    rest: &[String],
    subcommand: &str,
    default_file: &str,
) -> Result<(bool, bool, PathBuf), String> {
    let mut md = false;
    let mut check = false;
    let mut file = PathBuf::from(default_file);
    let mut i = 0;
    while i < rest.len() {
        let arg = &rest[i];
        match arg.as_str() {
            "--md" => md = true,
            "--check" => check = true,
            a if a == "--file" || a.starts_with("--file=") => {
                let v = if let Some(v) = arg.strip_prefix("--file=") {
                    v.to_string()
                } else {
                    i += 1;
                    rest.get(i)
                        .cloned()
                        .ok_or_else(|| "--file expects a value".to_string())?
                };
                file = PathBuf::from(v);
            }
            a => {
                return Err(format!("unknown argument `{a}` for `repro {subcommand}`"));
            }
        }
        i += 1;
    }
    if md && check {
        return Err(format!(
            "`repro {subcommand}` takes --md or --check, not both"
        ));
    }
    Ok((md, check, file))
}

/// Parses `repro` arguments (without the program name).
///
/// Unknown `--flags` and unknown targets are hard errors. `fig15` is an
/// alias for `fig14` (one combined module); duplicate targets are
/// removed regardless of position, keeping the first occurrence.
/// `--trace FILE` requests the telemetry event stream (JSONL) and
/// `--chrome-trace FILE` the Chrome trace-event span export; both work
/// with the render and `--json` output modes. The `profile`, `compare`,
/// `check-trace`, and `bench` subcommands map to [`Command::Run`] with
/// `profile` set, [`Command::Compare`], [`Command::CheckTrace`], and
/// [`Command::Bench`] (`--trials N --warmup N --out FILE [NAME...]`).
/// The scenario-registry subcommands map to [`Command::Scenarios`]
/// (`scenarios [--md | --check [--file PATH]]`), [`Command::Metrics`]
/// (`metrics [--md | --check [--file PATH]]`), [`Command::Record`]
/// (`record <scenario> --out TRACE [--iters N]` plus the scale flags;
/// unknown scenario names are parse errors), and [`Command::Replay`]
/// (`replay TRACE [--policy P] [--platform PL] [--out FILE]`; unknown
/// policy/platform names are parse errors). `explain-tail` maps to
/// [`Command::ExplainTail`]
/// (`explain-tail <serve.json | scenario> [--out FILE]` plus the scale
/// flags; whether the input is a registered scenario or an artifact
/// path is resolved at run time).
///
/// # Errors
///
/// Returns a human-readable message when the invocation is invalid; the
/// binary prints it to stderr and exits non-zero.
pub fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("diff") {
        let rest = &args[1..];
        if let Some(flag) = rest.iter().find(|a| a.starts_with("--")) {
            return Err(format!("`repro diff` takes no flags, got `{flag}`"));
        }
        if rest.len() != 2 {
            return Err(format!(
                "`repro diff` expects exactly two artifact directories, got {}",
                rest.len()
            ));
        }
        return Ok(Command::Diff {
            a: PathBuf::from(&rest[0]),
            b: PathBuf::from(&rest[1]),
        });
    }
    if args.first().map(String::as_str) == Some("compare") {
        let rest = &args[1..];
        if let Some(flag) = rest.iter().find(|a| a.starts_with("--")) {
            return Err(format!("`repro compare` takes no flags, got `{flag}`"));
        }
        if rest.len() != 2 {
            return Err(format!(
                "`repro compare` expects BASELINE_DIR and NEW_DIR, got {} arguments",
                rest.len()
            ));
        }
        return Ok(Command::Compare {
            baseline: PathBuf::from(&rest[0]),
            new: PathBuf::from(&rest[1]),
        });
    }
    if args.first().map(String::as_str) == Some("bench") {
        let rest = &args[1..];
        let mut trials = crate::microbench::DEFAULT_TRIALS;
        let mut warmup = crate::microbench::DEFAULT_WARMUP;
        let mut out: Option<PathBuf> = None;
        let mut names: Vec<String> = Vec::new();
        let mut i = 0;
        while i < rest.len() {
            let arg = &rest[i];
            let mut value_of = |name: &str| -> Result<String, String> {
                if let Some(v) = arg.strip_prefix(&format!("--{name}=")) {
                    return Ok(v.to_string());
                }
                i += 1;
                rest.get(i)
                    .cloned()
                    .ok_or_else(|| format!("--{name} expects a value"))
            };
            match arg.as_str() {
                a if a == "--trials" || a.starts_with("--trials=") => {
                    trials = parse_scale("trials", &value_of("trials")?)?;
                }
                a if a == "--warmup" || a.starts_with("--warmup=") => {
                    let v = value_of("warmup")?;
                    warmup = v
                        .parse::<usize>()
                        .map_err(|_| format!("--warmup expects an unsigned integer, got `{v}`"))?;
                }
                a if a == "--out" || a.starts_with("--out=") => {
                    out = Some(PathBuf::from(value_of("out")?));
                }
                a if a.starts_with("--") => {
                    return Err(format!("unknown flag `{a}` for `repro bench`"));
                }
                _ => names.push(arg.clone()),
            }
            i += 1;
        }
        for n in &names {
            crate::microbench::find_bench(n)?;
        }
        return Ok(Command::Bench {
            names,
            trials,
            warmup,
            out,
        });
    }
    if args.first().map(String::as_str) == Some("check-trace") {
        let rest = &args[1..];
        if rest.len() != 1 || rest[0].starts_with("--") {
            return Err("`repro check-trace` expects exactly one trace file".to_string());
        }
        return Ok(Command::CheckTrace {
            path: PathBuf::from(&rest[0]),
        });
    }
    if args.first().map(String::as_str) == Some("scenarios") {
        let (md, check, file) = parse_catalog_flags(&args[1..], "scenarios", "SCENARIOS.md")?;
        return Ok(Command::Scenarios { md, check, file });
    }
    if args.first().map(String::as_str) == Some("metrics") {
        let (md, check, file) = parse_catalog_flags(&args[1..], "metrics", "METRICS.md")?;
        return Ok(Command::Metrics { md, check, file });
    }
    if args.first().map(String::as_str) == Some("record") {
        let rest = &args[1..];
        let mut full = false;
        let mut gnn_scale: Option<usize> = None;
        let mut dlr_scale: Option<usize> = None;
        let mut iters: Option<usize> = None;
        let mut out: Option<PathBuf> = None;
        let mut threads: Option<usize> = None;
        let mut names: Vec<String> = Vec::new();
        let mut i = 0;
        while i < rest.len() {
            let arg = &rest[i];
            let mut value_of = |name: &str| -> Result<String, String> {
                if let Some(v) = arg.strip_prefix(&format!("--{name}=")) {
                    return Ok(v.to_string());
                }
                i += 1;
                rest.get(i)
                    .cloned()
                    .ok_or_else(|| format!("--{name} expects a value"))
            };
            match arg.as_str() {
                "--full" => full = true,
                a if a == "--out" || a.starts_with("--out=") => {
                    out = Some(PathBuf::from(value_of("out")?));
                }
                a if a == "--iters" || a.starts_with("--iters=") => {
                    iters = Some(parse_scale("iters", &value_of("iters")?)?);
                }
                a if a == "--threads" || a.starts_with("--threads=") => {
                    threads = Some(parse_scale("threads", &value_of("threads")?)?);
                }
                a if a == "--gnn-scale" || a.starts_with("--gnn-scale=") => {
                    gnn_scale = Some(parse_scale("gnn-scale", &value_of("gnn-scale")?)?);
                }
                a if a == "--dlr-scale" || a.starts_with("--dlr-scale=") => {
                    dlr_scale = Some(parse_scale("dlr-scale", &value_of("dlr-scale")?)?);
                }
                a if a.starts_with("--") => {
                    return Err(format!("unknown flag `{a}` for `repro record`"));
                }
                _ => names.push(arg.clone()),
            }
            i += 1;
        }
        let [scenario] = names.as_slice() else {
            return Err(
                "`repro record` expects exactly one scenario name; see `repro scenarios`"
                    .to_string(),
            );
        };
        if registry().get(scenario).is_none() {
            return Err(format!(
                "unknown scenario `{scenario}`; see `repro scenarios`"
            ));
        }
        let Some(out) = out else {
            return Err("`repro record` requires --out <trace-file>".to_string());
        };
        let mut knobs = if full {
            Scenario::full()
        } else {
            Scenario::quick()
        };
        if let Some(g) = gnn_scale {
            knobs.gnn_scale = g;
        }
        if let Some(d) = dlr_scale {
            knobs.dlr_scale = d;
        }
        return Ok(Command::Record {
            scenario: scenario.clone(),
            out,
            iters,
            knobs,
            threads,
        });
    }
    if args.first().map(String::as_str) == Some("replay") {
        let rest = &args[1..];
        let mut policy = PolicyId::UGache;
        let mut platform: Option<PlatformId> = None;
        let mut out: Option<PathBuf> = None;
        let mut threads: Option<usize> = None;
        let mut paths: Vec<String> = Vec::new();
        let mut i = 0;
        while i < rest.len() {
            let arg = &rest[i];
            let mut value_of = |name: &str| -> Result<String, String> {
                if let Some(v) = arg.strip_prefix(&format!("--{name}=")) {
                    return Ok(v.to_string());
                }
                i += 1;
                rest.get(i)
                    .cloned()
                    .ok_or_else(|| format!("--{name} expects a value"))
            };
            match arg.as_str() {
                a if a == "--policy" || a.starts_with("--policy=") => {
                    let v = value_of("policy")?;
                    policy = PolicyId::parse(&v).ok_or_else(|| {
                        format!(
                            "unknown policy `{v}`; available: {}",
                            PolicyId::ALL.map(|p| p.name()).join(" ")
                        )
                    })?;
                }
                a if a == "--platform" || a.starts_with("--platform=") => {
                    let v = value_of("platform")?;
                    platform = Some(PlatformId::parse(&v).ok_or_else(|| {
                        format!(
                            "unknown platform `{v}`; available: {}",
                            PlatformId::ALL.map(|p| p.name()).join(" ")
                        )
                    })?);
                }
                a if a == "--out" || a.starts_with("--out=") => {
                    out = Some(PathBuf::from(value_of("out")?));
                }
                a if a == "--threads" || a.starts_with("--threads=") => {
                    threads = Some(parse_scale("threads", &value_of("threads")?)?);
                }
                a if a.starts_with("--") => {
                    return Err(format!("unknown flag `{a}` for `repro replay`"));
                }
                _ => paths.push(arg.clone()),
            }
            i += 1;
        }
        let [trace] = paths.as_slice() else {
            return Err("`repro replay` expects exactly one trace file".to_string());
        };
        return Ok(Command::Replay {
            trace: PathBuf::from(trace),
            policy,
            platform,
            out,
            threads,
        });
    }
    if args.first().map(String::as_str) == Some("explain-tail") {
        let rest = &args[1..];
        let mut full = false;
        let mut gnn_scale: Option<usize> = None;
        let mut dlr_scale: Option<usize> = None;
        let mut out: Option<PathBuf> = None;
        let mut threads: Option<usize> = None;
        let mut inputs: Vec<String> = Vec::new();
        let mut i = 0;
        while i < rest.len() {
            let arg = &rest[i];
            let mut value_of = |name: &str| -> Result<String, String> {
                if let Some(v) = arg.strip_prefix(&format!("--{name}=")) {
                    return Ok(v.to_string());
                }
                i += 1;
                rest.get(i)
                    .cloned()
                    .ok_or_else(|| format!("--{name} expects a value"))
            };
            match arg.as_str() {
                "--full" => full = true,
                a if a == "--out" || a.starts_with("--out=") => {
                    out = Some(PathBuf::from(value_of("out")?));
                }
                a if a == "--threads" || a.starts_with("--threads=") => {
                    threads = Some(parse_scale("threads", &value_of("threads")?)?);
                }
                a if a == "--gnn-scale" || a.starts_with("--gnn-scale=") => {
                    gnn_scale = Some(parse_scale("gnn-scale", &value_of("gnn-scale")?)?);
                }
                a if a == "--dlr-scale" || a.starts_with("--dlr-scale=") => {
                    dlr_scale = Some(parse_scale("dlr-scale", &value_of("dlr-scale")?)?);
                }
                a if a.starts_with("--") => {
                    return Err(format!("unknown flag `{a}` for `repro explain-tail`"));
                }
                _ => inputs.push(arg.clone()),
            }
            i += 1;
        }
        let [input] = inputs.as_slice() else {
            return Err(
                "`repro explain-tail` expects exactly one input: a serve artifact \
                 (serve.json) or a registered serving scenario name"
                    .to_string(),
            );
        };
        let mut knobs = if full {
            Scenario::full()
        } else {
            Scenario::quick()
        };
        if let Some(g) = gnn_scale {
            knobs.gnn_scale = g;
        }
        if let Some(d) = dlr_scale {
            knobs.dlr_scale = d;
        }
        return Ok(Command::ExplainTail {
            input: input.clone(),
            out,
            knobs,
            threads,
        });
    }
    let profile = args.first().map(String::as_str) == Some("profile");
    let args = if profile { &args[1..] } else { args };

    let mut full = false;
    let mut json = false;
    let mut out: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut chrome_trace: Option<PathBuf> = None;
    let mut jobs: usize = 1;
    let mut threads: Option<usize> = None;
    let mut gnn_scale: Option<usize> = None;
    let mut dlr_scale: Option<usize> = None;
    let mut targets: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        // A flag's value may come attached (`--out=d`) or as the next
        // argument (`--out d`).
        let mut value_of = |name: &str| -> Result<String, String> {
            if let Some(v) = arg.strip_prefix(&format!("--{name}=")) {
                return Ok(v.to_string());
            }
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("--{name} expects a value"))
        };
        match arg.as_str() {
            "--full" => full = true,
            "--json" => json = true,
            a if a == "--out" || a.starts_with("--out=") => {
                out = Some(PathBuf::from(value_of("out")?));
            }
            a if a == "--chrome-trace" || a.starts_with("--chrome-trace=") => {
                chrome_trace = Some(PathBuf::from(value_of("chrome-trace")?));
            }
            a if a == "--trace" || a.starts_with("--trace=") => {
                trace = Some(PathBuf::from(value_of("trace")?));
            }
            a if a == "--jobs" || a.starts_with("--jobs=") => {
                let v = value_of("jobs")?;
                jobs = v
                    .parse::<usize>()
                    .map_err(|_| format!("--jobs expects an unsigned integer, got `{v}`"))?
                    .max(1);
            }
            a if a == "--threads" || a.starts_with("--threads=") => {
                let v = value_of("threads")?;
                let n = v
                    .parse::<usize>()
                    .map_err(|_| format!("--threads expects an unsigned integer, got `{v}`"))?;
                if n == 0 {
                    // Unlike --jobs (which clamps), a zero-width worker
                    // pool is a contradiction — reject it loudly.
                    return Err("--threads must be >= 1, got `0`".to_string());
                }
                threads = Some(n);
            }
            a if a == "--gnn-scale" || a.starts_with("--gnn-scale=") => {
                gnn_scale = Some(parse_scale("gnn-scale", &value_of("gnn-scale")?)?);
            }
            a if a == "--dlr-scale" || a.starts_with("--dlr-scale=") => {
                dlr_scale = Some(parse_scale("dlr-scale", &value_of("dlr-scale")?)?);
            }
            a if a.starts_with("--") => {
                return Err(format!("unknown flag `{a}`; see `repro list`"));
            }
            _ => targets.push(arg.clone()),
        }
        i += 1;
    }

    if json && out.is_none() {
        return Err("--json requires --out <dir>".to_string());
    }
    if out.is_some() && !json {
        return Err("--out requires --json".to_string());
    }
    if profile && (json || trace.is_some() || chrome_trace.is_some()) {
        return Err("`repro profile` renders to stdout; it takes no output flags".to_string());
    }
    if profile && targets.is_empty() {
        return Err("`repro profile` expects at least one target".to_string());
    }

    if targets.is_empty() || targets.iter().any(|t| t == "list") {
        return Ok(Command::List);
    }
    if targets.iter().any(|t| t == "all") {
        targets = TARGETS.iter().map(|s| s.to_string()).collect();
    }
    for t in &targets {
        if !TARGETS.contains(&t.as_str()) {
            return Err(format!("unknown target `{t}`; see `repro list`"));
        }
    }
    // fig14 and fig15 are one combined module; run it once.
    for t in targets.iter_mut() {
        if t == "fig15" {
            *t = "fig14".to_string();
        }
    }
    // Order-independent dedup, keeping the first occurrence.
    let mut seen = std::collections::HashSet::new();
    targets.retain(|t| seen.insert(t.clone()));

    let mut scenario = if full {
        Scenario::full()
    } else {
        Scenario::quick()
    };
    if let Some(g) = gnn_scale {
        scenario.gnn_scale = g;
    }
    if let Some(d) = dlr_scale {
        scenario.dlr_scale = d;
    }

    Ok(Command::Run(RunSpec {
        targets,
        scenario,
        json,
        out,
        jobs,
        threads,
        trace,
        chrome_trace,
        profile,
    }))
}

/// Resolves the intra-target worker-pool width from the `--threads`
/// flag and the `REPRO_THREADS` environment variable (flag wins; default
/// 1). Pure so both sources are unit-testable; the binary passes
/// `std::env::var("REPRO_THREADS").ok()`.
///
/// # Errors
///
/// Returns a message when `REPRO_THREADS` is not a positive integer.
pub fn resolve_threads(flag: Option<usize>, env: Option<&str>) -> Result<usize, String> {
    if let Some(n) = flag {
        return Ok(n.max(1));
    }
    match env {
        None => Ok(1),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!(
                "REPRO_THREADS must be a positive integer, got `{v}`"
            )),
        },
    }
}
