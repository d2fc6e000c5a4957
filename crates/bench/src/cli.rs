//! Argument parsing for the `repro` binary.
//!
//! Kept in the library (rather than the binary) so CLI semantics —
//! alias resolution, order-independent dedup, flag validation — are
//! unit-testable without spawning processes.
//!
//! [`SUBCOMMANDS`] is the one table of subcommands: [`parse`] dispatches
//! through it and [`usage`] (`repro list`) is rendered from it, so a new
//! subcommand is one row plus its parse function. Every parser walks its
//! arguments with the one `Cursor`, which itself parses the flag groups
//! several subcommands share (scale knobs, `--threads`, `--out`) for the
//! rows that declare them. What the flags and subcommands *do* is
//! documented in EXPERIMENTS.md.

use crate::figures::{canonical, TARGETS};
use crate::replay::policy_name;
use crate::scenario::{registry, PlatformId, Scenario};
use std::path::PathBuf;
use ugache::baselines::SystemKind;

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
    /// the perf-regression tolerance table.
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
        /// System to replay under (default `ugache`).
        policy: SystemKind,
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

/// One row of the subcommand table.
pub struct Subcommand {
    /// The first argument that selects this row (`""`: the default
    /// target run, selected when no other row matches).
    pub name: &'static str,
    /// The row's lines of `repro list`, each following `repro `.
    pub usage: &'static str,
    /// Which shared flag groups ([`SCALE`], [`THREADS`], [`OUT`]) the
    /// row accepts; the [`Cursor`] parses those itself.
    shared: u8,
    parse: fn(&mut Cursor) -> Result<Command, String>,
}

/// The scenario scale knobs: `--full`, `--gnn-scale N`, `--dlr-scale N`.
const SCALE: u8 = 1;
/// `--threads N`, the intra-target worker-pool width.
const THREADS: u8 = 2;
/// `--out PATH`.
const OUT: u8 = 4;

/// Every subcommand, in `repro list` order; the default run comes first.
pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "",
        usage: "[--full] [--jobs N] [--threads N] [--trace OUT.jsonl] \
                [--chrome-trace OUT.json] [--json --out DIR] <target>... (or: repro all)",
        shared: SCALE | THREADS | OUT,
        parse: parse_run,
    },
    Subcommand {
        name: PROFILE,
        usage: "profile [--full] [--jobs N] [--threads N] <target>...",
        shared: SCALE | THREADS | OUT,
        parse: parse_run,
    },
    Subcommand {
        name: "diff",
        usage: "diff <dir-a> <dir-b>",
        shared: 0,
        parse: |c| {
            let [a, b] = c.two_paths("exactly two artifact directories", "")?;
            Ok(Command::Diff { a, b })
        },
    },
    Subcommand {
        name: "compare",
        usage: "compare <baseline-dir> <new-dir>",
        shared: 0,
        parse: |c| {
            let [baseline, new] = c.two_paths("BASELINE_DIR and NEW_DIR", " arguments")?;
            Ok(Command::Compare { baseline, new })
        },
    },
    Subcommand {
        name: "check-trace",
        usage: "check-trace <trace.json>",
        shared: 0,
        parse: |c| match c.args {
            [path] if !path.starts_with("--") => Ok(Command::CheckTrace { path: path.into() }),
            _ => Err(format!("`repro {}` expects exactly one trace file", c.sub)),
        },
    },
    Subcommand {
        name: "scenarios",
        usage: "scenarios [--md | --check [--file PATH]]",
        shared: 0,
        parse: |c| {
            let (md, check, file) = parse_catalog_flags(c, "SCENARIOS.md")?;
            Ok(Command::Scenarios { md, check, file })
        },
    },
    Subcommand {
        name: "record",
        usage: "record <scenario> --out TRACE [--iters N] [--full] [--threads N]",
        shared: SCALE | THREADS | OUT,
        parse: parse_record,
    },
    Subcommand {
        name: "replay",
        usage: "replay TRACE [--policy P] [--platform PL] [--out FILE] [--threads N]",
        shared: THREADS | OUT,
        parse: parse_replay,
    },
    Subcommand {
        name: "metrics",
        usage: "metrics [--md | --check [--file PATH]]",
        shared: 0,
        parse: |c| {
            let (md, check, file) = parse_catalog_flags(c, "METRICS.md")?;
            Ok(Command::Metrics { md, check, file })
        },
    },
    Subcommand {
        name: "explain-tail",
        usage: "explain-tail <serve.json | scenario> [--out FILE] [--full] [--threads N]",
        shared: SCALE | THREADS | OUT,
        parse: parse_explain_tail,
    },
    Subcommand {
        name: LIST,
        usage: "",
        shared: SCALE | THREADS | OUT,
        parse: parse_run,
    },
];

/// The target run that renders span profiles instead of figures.
const PROFILE: &str = "profile";
/// The word that asks for the menu: a subcommand, and (as in
/// `repro --full list`) a pseudo-target anywhere in a target run.
const LIST: &str = "list";

/// The `repro list` text: the target menu, then every row's usage.
pub fn usage() -> String {
    let mut text = format!("targets: {} | all\n", TARGETS.join(" "));
    let mut lead = "usage:";
    for line in SUBCOMMANDS.iter().flat_map(|row| row.usage.lines()) {
        text.push_str(&format!("{lead} repro {line}\n"));
        lead = "      ";
    }
    text
}

/// Parses `repro` arguments (without the program name) through the
/// [`SUBCOMMANDS`] row the first argument names, or the default target
/// run when it names none.
///
/// # Errors
///
/// Returns a human-readable message when the invocation is invalid —
/// unknown flags, targets, scenarios, policies and platforms are all
/// hard errors; the binary prints it to stderr and exits 2.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let named = args
        .first()
        .and_then(|first| SUBCOMMANDS[1..].iter().find(|row| row.name == first));
    let (row, rest) = match named {
        Some(row) => (row, &args[1..]),
        None => (&SUBCOMMANDS[0], args),
    };
    (row.parse)(&mut Cursor {
        sub: row.name,
        shared: row.shared,
        args: rest,
        ..Cursor::default()
    })
}

/// The one flag cursor: walks a subcommand's arguments, collects the
/// positional [`words`](Cursor::words), fetches flag values — attached
/// (`--out=d`) or as the next argument (`--out d`) — and parses the
/// shared flag groups its row accepts.
#[derive(Default)]
struct Cursor<'a> {
    /// The subcommand being parsed, as messages name it.
    sub: &'a str,
    /// The row's accepted shared groups.
    shared: u8,
    args: &'a [String],
    next: usize,
    /// The argument handed out last, verbatim.
    arg: &'a str,
    /// Its flag name (without any `=value`).
    flag: &'a str,
    /// Its attached value, until [`Cursor::value`] takes it.
    inline: Option<&'a str>,
    /// Every non-flag argument passed over so far.
    words: Vec<&'a str>,
    full: bool,
    gnn_scale: Option<usize>,
    dlr_scale: Option<usize>,
    /// `--threads N` (>= 1), if given.
    threads: Option<usize>,
    /// `--out PATH`, if given.
    out: Option<PathBuf>,
}

impl<'a> Cursor<'a> {
    /// The next flag that is the subcommand's own to interpret.
    fn next_flag(&mut self) -> Result<Option<&'a str>, String> {
        loop {
            if self.inline.is_some() {
                // A flag that takes no value was handed one (`--full=3`).
                return Err(self.unknown());
            }
            let Some(arg) = self.args.get(self.next).map(String::as_str) else {
                return Ok(None);
            };
            self.next += 1;
            self.arg = arg;
            if !arg.starts_with("--") {
                self.words.push(arg);
                continue;
            }
            (self.flag, self.inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value)),
                None => (arg, None),
            };
            if !self.shared_flag()? {
                return Ok(Some(self.flag));
            }
        }
    }

    /// Takes the current flag if it belongs to a shared group the row
    /// accepts. Scales of 0 clamp to 1; `--threads 0` is an error —
    /// a zero-width worker pool is a contradiction.
    fn shared_flag(&mut self) -> Result<bool, String> {
        match self.flag {
            "--full" if self.shared & SCALE != 0 => self.full = true,
            "--gnn-scale" if self.shared & SCALE != 0 => self.gnn_scale = Some(self.uint()?.max(1)),
            "--dlr-scale" if self.shared & SCALE != 0 => self.dlr_scale = Some(self.uint()?.max(1)),
            "--threads" if self.shared & THREADS != 0 => {
                self.threads = Some(self.uint()?);
                if self.threads == Some(0) {
                    return Err(format!("{} must be >= 1, got `0`", self.flag));
                }
            }
            "--out" if self.shared & OUT != 0 => self.out = Some(self.value()?.into()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The scenario the scale knobs select; explicit scales win over
    /// `--full`.
    fn scenario(&self) -> Scenario {
        let mut s = if self.full {
            Scenario::full()
        } else {
            Scenario::quick()
        };
        s.gnn_scale = self.gnn_scale.unwrap_or(s.gnn_scale);
        s.dlr_scale = self.dlr_scale.unwrap_or(s.dlr_scale);
        s
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<&'a str, String> {
        if let Some(v) = self.inline.take() {
            return Ok(v);
        }
        let v = self.args.get(self.next);
        self.next += 1;
        v.map(String::as_str)
            .ok_or_else(|| format!("{} expects a value", self.flag))
    }

    /// The current flag's value as an unsigned integer.
    fn uint(&mut self) -> Result<usize, String> {
        let v = self.value()?;
        v.parse()
            .map_err(|_| format!("{} expects an unsigned integer, got `{v}`", self.flag))
    }

    /// The current flag's value as the member of `all` whose `name` it is.
    fn member<T: Copy>(
        &mut self,
        kind: &str,
        all: &[T],
        name: impl Fn(T) -> String,
    ) -> Result<T, String> {
        let v = self.value()?;
        match all.iter().find(|&&m| name(m) == v) {
            Some(&m) => Ok(m),
            None => Err(format!(
                "unknown {kind} `{v}`; available: {}",
                all.iter().map(|&m| name(m)).collect::<Vec<_>>().join(" ")
            )),
        }
    }

    /// The rejection of the current argument as a flag nobody accepts.
    fn unknown(&self) -> String {
        if self.sub.is_empty() {
            format!("unknown flag `{}`; see `repro list`", self.arg)
        } else {
            format!("unknown flag `{}` for `repro {}`", self.arg, self.sub)
        }
    }

    /// The subcommand's one positional argument.
    fn one_word(&self, what: &str) -> Result<&'a str, String> {
        match self.words[..] {
            [word] => Ok(word),
            _ => Err(format!("`repro {}` expects exactly one {what}", self.sub)),
        }
    }

    /// The arguments of a subcommand that takes two paths and no flags.
    fn two_paths(&self, expects: &str, unit: &str) -> Result<[PathBuf; 2], String> {
        if let Some(flag) = self.args.iter().find(|a| a.starts_with("--")) {
            return Err(format!("`repro {}` takes no flags, got `{flag}`", self.sub));
        }
        match self.args {
            [a, b] => Ok([a.into(), b.into()]),
            args => Err(format!(
                "`repro {}` expects {expects}, got {}{unit}",
                self.sub,
                args.len()
            )),
        }
    }
}

/// The three target-run rows: `repro [flags] <target>...`, `repro
/// profile ...` and `repro list`. Duplicate targets are removed
/// regardless of position, keeping the first occurrence, after aliases
/// are resolved.
fn parse_run(c: &mut Cursor) -> Result<Command, String> {
    let mut json = false;
    let mut trace = None;
    let mut chrome_trace = None;
    let mut jobs = 1;
    while let Some(flag) = c.next_flag()? {
        match flag {
            "--json" => json = true,
            "--trace" => trace = Some(PathBuf::from(c.value()?)),
            "--chrome-trace" => chrome_trace = Some(PathBuf::from(c.value()?)),
            "--jobs" => jobs = c.uint()?.max(1),
            _ => return Err(c.unknown()),
        }
    }
    let profile = c.sub == PROFILE;
    if json && c.out.is_none() {
        return Err("--json requires --out <dir>".to_string());
    }
    if c.out.is_some() && !json {
        return Err("--out requires --json".to_string());
    }
    if profile && (json || trace.is_some() || chrome_trace.is_some()) {
        return Err("`repro profile` renders to stdout; it takes no output flags".to_string());
    }
    if profile && c.words.is_empty() {
        return Err("`repro profile` expects at least one target".to_string());
    }
    if c.sub == LIST || c.words.is_empty() || c.words.contains(&LIST) {
        return Ok(Command::List);
    }
    if c.words.contains(&"all") {
        c.words = TARGETS.to_vec();
    }
    let mut targets: Vec<String> = Vec::new();
    for word in &c.words {
        let target =
            canonical(word).ok_or_else(|| format!("unknown target `{word}`; see `repro list`"))?;
        if !targets.iter().any(|t| t == target) {
            targets.push(target.to_string());
        }
    }
    Ok(Command::Run(RunSpec {
        targets,
        scenario: c.scenario(),
        json,
        out: c.out.take(),
        jobs,
        threads: c.threads,
        trace,
        chrome_trace,
        profile,
    }))
}

/// The `[--md | --check [--file PATH]]` flags the two generated-catalog
/// subcommands share; `file` defaults to the committed `default_file`.
fn parse_catalog_flags(
    c: &mut Cursor,
    default_file: &str,
) -> Result<(bool, bool, PathBuf), String> {
    let sub = c.sub;
    let unknown = |arg: &str| format!("unknown argument `{arg}` for `repro {sub}`");
    let mut md = false;
    let mut check = false;
    let mut file = PathBuf::from(default_file);
    while let Some(flag) = c.next_flag()? {
        match flag {
            "--md" => md = true,
            "--check" => check = true,
            "--file" => file = PathBuf::from(c.value()?),
            _ => return Err(unknown(c.arg)),
        }
    }
    if let Some(word) = c.words.first() {
        return Err(unknown(word));
    }
    if md && check {
        return Err(format!("`repro {sub}` takes --md or --check, not both"));
    }
    Ok((md, check, file))
}

/// `record <scenario> --out TRACE [--iters N]` plus the scale knobs and
/// `--threads`; the scenario must be registered.
fn parse_record(c: &mut Cursor) -> Result<Command, String> {
    let mut iters = None;
    while let Some(flag) = c.next_flag()? {
        match flag {
            "--iters" => iters = Some(c.uint()?.max(1)),
            _ => return Err(c.unknown()),
        }
    }
    let scenario = c.one_word("scenario name; see `repro scenarios`")?;
    if registry().get(scenario).is_none() {
        return Err(format!(
            "unknown scenario `{scenario}`; see `repro scenarios`"
        ));
    }
    let Some(out) = c.out.take() else {
        return Err("`repro record` requires --out <trace-file>".to_string());
    };
    Ok(Command::Record {
        scenario: scenario.to_string(),
        out,
        iters,
        knobs: c.scenario(),
        threads: c.threads,
    })
}

/// `replay TRACE [--policy P] [--platform PL]` plus `--out` and
/// `--threads`; a policy is a [`SystemKind`] by its lowercase name, and
/// unknown policy and platform names are errors.
fn parse_replay(c: &mut Cursor) -> Result<Command, String> {
    let mut policy = SystemKind::UGache;
    let mut platform = None;
    while let Some(flag) = c.next_flag()? {
        match flag {
            "--policy" => policy = c.member("policy", &SystemKind::ALL, policy_name)?,
            "--platform" => {
                platform = Some(c.member("platform", &PlatformId::ALL, |p| p.name().to_string())?);
            }
            _ => return Err(c.unknown()),
        }
    }
    Ok(Command::Replay {
        trace: c.one_word("trace file")?.into(),
        policy,
        platform,
        out: c.out.take(),
        threads: c.threads,
    })
}

/// `explain-tail <serve.json | scenario>` plus `--out`, the scale knobs
/// and `--threads`; whether the input is a registered scenario or an
/// artifact path is resolved at run time.
fn parse_explain_tail(c: &mut Cursor) -> Result<Command, String> {
    if c.next_flag()?.is_some() {
        return Err(c.unknown());
    }
    let input =
        c.one_word("input: a serve artifact (serve.json) or a registered serving scenario name")?;
    Ok(Command::ExplainTail {
        input: input.to_string(),
        out: c.out.take(),
        knobs: c.scenario(),
        threads: c.threads,
    })
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
    match (flag, env) {
        (Some(n), _) => Ok(n),
        (None, None) => Ok(1),
        (None, Some(v)) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!(
                "REPRO_THREADS must be a positive integer, got `{v}`"
            )),
        },
    }
}
