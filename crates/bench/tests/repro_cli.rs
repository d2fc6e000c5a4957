//! Tests for the `repro` CLI surface and the JSON artifact layer:
//! argument parsing (aliases, dedup, flag validation), artifact schema
//! round-trips, telemetry metrics/trace determinism, and
//! serial-vs-parallel determinism of the runner.

use ugache_bench::artifact::{
    check_dir_schema, diff_dirs, trace_header, trace_line, Artifact, SCHEMA_VERSION,
};
use ugache_bench::cli::{self, Command};
use ugache_bench::figures::{self, TargetData, Unit, TARGETS};
use ugache_bench::runner::{run_units, units_for};
use ugache_bench::scenario::{PlatformId, Scenario};
use ugache_bench::{compare, json};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn run_spec(list: &[&str]) -> cli::RunSpec {
    match cli::parse(&args(list)).expect("parse succeeds") {
        Command::Run(spec) => spec,
        other => panic!("expected Run, got {other:?}"),
    }
}

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

#[test]
fn parse_dedups_targets_order_independently() {
    // Non-adjacent duplicates must collapse too (the old CLI used
    // `Vec::dedup`, which only removes adjacent ones).
    let spec = run_spec(&["fig2", "table1", "fig2", "fig9", "table1"]);
    assert_eq!(spec.targets, ["fig2", "table1", "fig9"]);
}

#[test]
fn parse_aliases_fig15_to_fig14_and_dedups_across_the_alias() {
    let spec = run_spec(&["fig15", "fig2", "fig14"]);
    assert_eq!(spec.targets, ["fig14", "fig2"]);
}

#[test]
fn parse_rejects_unknown_flags() {
    let err = cli::parse(&args(&["--frobnicate", "fig2"])).unwrap_err();
    assert!(err.contains("--frobnicate"), "{err}");
    let err = cli::parse(&args(&["--ful", "fig2"])).unwrap_err();
    assert!(err.contains("--ful"), "{err}");
}

#[test]
fn parse_rejects_unknown_targets() {
    let err = cli::parse(&args(&["fig3"])).unwrap_err();
    assert!(err.contains("fig3"), "{err}");
}

#[test]
fn parse_scale_flags_clamp_and_validate() {
    let spec = run_spec(&["--gnn-scale=0", "--dlr-scale", "9", "fig2"]);
    assert_eq!(spec.scenario.gnn_scale, 1, "scale 0 clamps to 1");
    assert_eq!(spec.scenario.dlr_scale, 9);
    // A malformed value is a hard error, not silently ignored (the old
    // CLI fell back to the default scenario).
    let err = cli::parse(&args(&["--gnn-scale=banana", "fig2"])).unwrap_err();
    assert!(err.contains("banana"), "{err}");
}

#[test]
fn parse_full_and_jobs() {
    let spec = run_spec(&["--full", "--jobs=4", "fig2"]);
    assert_eq!(spec.scenario, Scenario::full());
    assert_eq!(spec.jobs, 4);
    let spec = run_spec(&["--jobs", "0", "fig2"]);
    assert_eq!(spec.jobs, 1, "jobs clamps to at least 1");
    let err = cli::parse(&args(&["--jobs=two", "fig2"])).unwrap_err();
    assert!(err.contains("two"), "{err}");
}

#[test]
fn parse_threads_flag() {
    let spec = run_spec(&["fig2"]);
    assert_eq!(spec.threads, None, "flag absent leaves resolution to env");
    let spec = run_spec(&["--threads=8", "fig2"]);
    assert_eq!(spec.threads, Some(8));
    let spec = run_spec(&["--threads", "2", "fig2"]);
    assert_eq!(spec.threads, Some(2));
    // Unlike --jobs 0 (clamped), --threads 0 is a hard error: a zero-wide
    // pool cannot make progress and silently clamping would hide a typo.
    let err = cli::parse(&args(&["--threads", "0", "fig2"])).unwrap_err();
    assert!(err.contains("--threads"), "{err}");
    let err = cli::parse(&args(&["--threads=many", "fig2"])).unwrap_err();
    assert!(err.contains("many"), "{err}");
    let err = cli::parse(&args(&["fig2", "--threads"])).unwrap_err();
    assert!(err.contains("--threads"), "{err}");
}

#[test]
fn a_closed_stdout_ends_the_command_quietly_with_exit_2() {
    // `repro scenarios | head -1`: the reader is gone before `repro`
    // writes. The read end is closed before the process starts, so every
    // write fails, and `print!` would panic (exit 101).
    let exe = env!("CARGO_BIN_EXE_repro");
    for invocation in [
        &["list"][..],
        &["scenarios"],
        &["scenarios", "--md"],
        &["metrics"],
        &["fig2"],
    ] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let run = std::process::Command::new(exe)
            .args(invocation)
            .stdout(writer)
            .stderr(std::process::Stdio::piped())
            .output()
            .expect("repro runs");
        assert_eq!(run.status.code(), Some(2), "{invocation:?}");
        assert_eq!(String::from_utf8_lossy(&run.stderr), "", "{invocation:?}");
    }
}

#[test]
fn threads_zero_is_rejected_by_every_subcommand_that_takes_it() {
    // One `--threads` parser: record / replay / explain-tail used to
    // clamp 0 to 1 silently while the target run rejected it.
    let exe = env!("CARGO_BIN_EXE_repro");
    let out = std::env::temp_dir().join(format!("repro-threads0-{}", std::process::id()));
    let out = out.to_str().unwrap();
    for invocation in [
        &["fig2", "--threads", "0"][..],
        &[
            "record",
            "serve/zipf@server_a",
            "--out",
            out,
            "--threads",
            "0",
        ],
        &["replay", out, "--threads=0"],
        &["explain-tail", "serve/zipf@server_a", "--threads", "0"],
    ] {
        let err = cli::parse(&args(invocation)).unwrap_err();
        assert_eq!(err, "--threads must be >= 1, got `0`", "{invocation:?}");
        let run = std::process::Command::new(exe)
            .args(invocation)
            .output()
            .expect("repro runs");
        assert_eq!(run.status.code(), Some(2), "{invocation:?}");
        assert_eq!(String::from_utf8_lossy(&run.stderr).trim_end(), err);
    }
    assert!(!std::path::Path::new(out).exists(), "nothing was recorded");
    // The env-var spelling of the same contradiction.
    let run = std::process::Command::new(exe)
        .args(["replay", out])
        .env("REPRO_THREADS", "0")
        .output()
        .expect("repro runs");
    assert_eq!(run.status.code(), Some(2));
}

#[test]
fn resolve_threads_prefers_flag_then_env_then_one() {
    assert_eq!(cli::resolve_threads(Some(4), Some("8")), Ok(4));
    assert_eq!(cli::resolve_threads(Some(1), None), Ok(1));
    assert_eq!(cli::resolve_threads(None, Some("8")), Ok(8));
    assert_eq!(cli::resolve_threads(None, None), Ok(1));
    // A malformed env var is a hard error naming the variable.
    let err = cli::resolve_threads(None, Some("zero")).unwrap_err();
    assert!(err.contains("REPRO_THREADS"), "{err}");
    let err = cli::resolve_threads(None, Some("0")).unwrap_err();
    assert!(err.contains("REPRO_THREADS"), "{err}");
}

#[test]
fn parse_json_requires_out_and_vice_versa() {
    let err = cli::parse(&args(&["--json", "fig2"])).unwrap_err();
    assert!(err.contains("--out"), "{err}");
    let err = cli::parse(&args(&["--out=d", "fig2"])).unwrap_err();
    assert!(err.contains("--json"), "{err}");
    let spec = run_spec(&["--json", "--out", "d", "fig2"]);
    assert!(spec.json);
    assert_eq!(spec.out.as_deref(), Some(std::path::Path::new("d")));
}

#[test]
fn parse_all_expands_and_dedups_the_alias_pair() {
    let spec = run_spec(&["all"]);
    assert!(spec.targets.contains(&"fig14".to_string()));
    assert!(!spec.targets.contains(&"fig15".to_string()));
    assert!(spec.targets.contains(&"fig10".to_string()));
    assert!(spec.targets.contains(&"fig11".to_string()));
    assert_eq!(spec.targets.len(), TARGETS.len() - 1);
}

#[test]
fn parse_list_and_diff() {
    assert_eq!(cli::parse(&args(&[])).unwrap(), Command::List);
    assert_eq!(cli::parse(&args(&["list"])).unwrap(), Command::List);
    match cli::parse(&args(&["diff", "a", "b"])).unwrap() {
        Command::Diff { a, b } => {
            assert_eq!(a, std::path::PathBuf::from("a"));
            assert_eq!(b, std::path::PathBuf::from("b"));
        }
        other => panic!("expected Diff, got {other:?}"),
    }
    assert!(cli::parse(&args(&["diff", "a"])).is_err());
    assert!(cli::parse(&args(&["diff", "a", "b", "c"])).is_err());
    assert!(cli::parse(&args(&["diff", "--json", "a", "b"])).is_err());
}

#[test]
fn compare_exit_codes_distinguish_unusable_inputs_from_gate_failures() {
    let exe = env!("CARGO_BIN_EXE_repro");
    let dir = std::env::temp_dir().join(format!("repro-exit-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let copy = dir.join("quick");
    std::fs::create_dir_all(&copy).unwrap();
    let quick = repo_root().join("baselines/quick");
    for entry in std::fs::read_dir(&quick).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
    }
    let run = |a: &std::path::Path, b: &std::path::Path| {
        let out = std::process::Command::new(exe)
            .arg("compare")
            .arg(a)
            .arg(b)
            .output()
            .expect("repro runs");
        (
            out.status.code(),
            String::from_utf8(out.stdout).expect("utf-8"),
        )
    };

    // An unchanged copy passes: exit 0.
    assert_eq!(run(&quick, &copy).0, Some(0));
    // One metric moved past its tolerance entry is a gate failure: exit 1.
    let metric = "memsim.microbench.samples";
    let path = format!("metrics.counters.{metric}");
    let tol = compare::tolerance_for(&path);
    assert_eq!(tol, 0.05, "{path} falls under the `memsim.` entry");
    let fig6 = copy.join("fig6.json");
    let text = std::fs::read_to_string(&fig6).unwrap();
    let artifact = json::parse(&text).unwrap();
    let Some(json::Value::Num(raw)) = artifact
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(metric))
    else {
        panic!("baselines/quick/fig6.json records {metric}");
    };
    let moved = raw.parse::<f64>().unwrap() * (1.0 + 2.0 * tol);
    let from = format!("\"{metric}\": {raw}");
    assert!(text.contains(&from), "{from}");
    std::fs::write(
        &fig6,
        text.replace(&from, &format!("\"{metric}\": {moved}")),
    )
    .unwrap();
    let (code, stdout) = run(&quick, &copy);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!("fig6.json: {path} drifted")),
        "{stdout}"
    );
    // An unreadable side is unusable input, not a gate verdict: exit 3,
    // whichever side it is, with nothing reported as missing.
    assert_eq!(run(&dir.join("no-dir"), &quick).0, Some(3));
    let (code, stdout) = run(&quick, &dir.join("no-dir"));
    assert_eq!(code, Some(3), "{stdout}");
    assert!(!stdout.contains("missing from"), "{stdout}");
    // A file where the candidate directory should be is unusable too.
    assert_eq!(run(&quick, &quick.join("table1.json")).0, Some(3));
    // Two `.json` files are not a mode of their own: unusable input.
    let table1 = quick.join("table1.json");
    assert_eq!(run(&table1, &table1).0, Some(3));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_gate_that_compared_nothing_fails() {
    let exe = env!("CARGO_BIN_EXE_repro");
    let dir = std::env::temp_dir().join(format!("repro-empty-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let empty = dir.join("empty");
    let alien = dir.join("alien");
    std::fs::create_dir_all(&empty).unwrap();
    std::fs::create_dir_all(&alien).unwrap();
    // JSON, but no artifact envelope (no `schema_version`).
    std::fs::write(alien.join("notes.json"), "{\"kind\": \"something-else\"}\n").unwrap();
    let quick = repo_root().join("baselines/quick");
    let run = |cmd: &str, a: &std::path::Path, b: &std::path::Path| {
        let out = std::process::Command::new(exe)
            .arg(cmd)
            .arg(a)
            .arg(b)
            .output()
            .expect("repro runs");
        (
            out.status.code(),
            String::from_utf8(out.stdout).expect("utf-8"),
        )
    };

    for baseline in [&empty, &alien] {
        let (code, stdout) = run("compare", baseline, &quick);
        assert_eq!(code, Some(1), "{stdout}");
        assert!(stdout.contains("no artifact envelopes"), "{stdout}");
        assert!(!stdout.contains("no regressions"), "{stdout}");
    }
    let (code, stdout) = run("diff", &empty, &empty);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("no .json artifacts"), "{stdout}");
    assert!(!stdout.contains("identical"), "{stdout}");
    // The gates still pass when there is something to compare.
    assert_eq!(run("compare", &quick, &quick).0, Some(0));
    assert_eq!(run("diff", &quick, &quick).0, Some(0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_target_name_and_alias_parses_computes_round_trips_and_renders() {
    let s = tiny();
    let all: Vec<String> = TARGETS.iter().map(|t| t.to_string()).collect();
    let units = units_for(&all);
    let results = run_units(&s, &units, 4);
    for name in TARGETS {
        let spec = run_spec(&[name]);
        let [canon] = spec.targets.as_slice() else {
            panic!("{name} parses to one target, got {:?}", spec.targets);
        };
        assert_eq!(figures::canonical(name), Some(canon.as_str()));
        let unit = Unit::for_target(name).expect("listed names have a unit");
        assert_eq!(units_for(&spec.targets), [unit], "{name}");
        let idx = units.iter().position(|u| *u == unit).expect("computed");
        let data = &results[idx].data;
        let text = json::to_document(&Artifact::new(canon, &s, data.clone(), None, None));
        let v = json::parse(&text).expect("artifact parses");
        assert_eq!(v.get("target"), Some(&json::Value::Str(canon.clone())));
        // Panics if the table pairs the name with another row's payload.
        assert!(!figures::render(canon, &s, data).is_empty(), "{name}");
    }
}

#[test]
fn repro_list_is_rendered_from_the_two_tables() {
    let exe = env!("CARGO_BIN_EXE_repro");
    let out = std::process::Command::new(exe)
        .arg("list")
        .output()
        .expect("repro runs");
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(text, cli::usage());
    let committed = std::fs::read_to_string(repo_root().join("baselines/repro_list.txt"))
        .expect("baselines/repro_list.txt");
    assert_eq!(
        text, committed,
        "usage drifted; if intended: `repro list > baselines/repro_list.txt`"
    );
    let menu = text.lines().next().expect("target menu");
    for t in TARGETS {
        assert!(
            menu.split(' ').any(|w| w == *t),
            "{t} missing from `{menu}`"
        );
    }
    for row in cli::SUBCOMMANDS {
        for line in row.usage.lines() {
            let line = format!(" repro {line}");
            assert!(text.lines().any(|l| l.ends_with(&line)), "{line}");
        }
        // A named row is reachable: its name is not taken for a target.
        if let (false, Err(e)) = (row.name.is_empty(), cli::parse(&args(&[row.name]))) {
            assert!(!e.contains("unknown target"), "{}: {e}", row.name);
        }
    }
}

#[test]
fn units_fold_fig10_and_fig11_into_one_computation() {
    let targets: Vec<String> = ["fig10", "fig11", "fig2"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let units = units_for(&targets);
    assert_eq!(units, [Unit::Fig10And11, Unit::Fig2]);
}

#[test]
fn artifact_schema_round_trips() {
    let s = tiny();
    let result = Unit::Fig9.compute_with_telemetry(&s);
    let artifact = Artifact::new(
        "fig9",
        &s,
        result.data,
        Some(result.telemetry.metrics),
        None,
    );
    let text = json::to_document(&artifact);
    let v = json::parse(&text).expect("artifact parses");
    // Envelope fields, stable across runs and releases.
    assert_eq!(
        v.get("schema_version").unwrap(),
        &json::Value::Num(SCHEMA_VERSION.to_string())
    );
    assert_eq!(
        v.get("target").unwrap(),
        &json::Value::Str("fig9".to_string())
    );
    assert_eq!(
        v.get("seed").unwrap(),
        &json::Value::Num(ugache_bench::scenario::SEED.to_string())
    );
    let scenario = v.get("scenario").expect("scenario embedded");
    assert_eq!(
        scenario.get("gnn_scale").unwrap(),
        &json::Value::Num("16384".to_string())
    );
    let data = v.get("data").expect("data payload");
    assert!(data.get("rows").is_some(), "fig9 payload has rows");
    // The v2 envelope carries a populated metrics block.
    let metrics = v.get("metrics").expect("metrics block");
    let counters = metrics.get("counters").expect("counters map");
    assert!(
        counters.get("bench.computes").is_some(),
        "bench counter present"
    );
    // The parsed value renders back to the exact same bytes.
    assert_eq!(format!("{}\n", v.render_pretty()), text);
}

#[test]
fn serial_and_parallel_runs_produce_identical_artifacts() {
    let s = tiny();
    // Cheap units only — this is a determinism test, not a benchmark.
    let targets: Vec<String> = ["table1", "fig2", "fig9", "fig14"]
        .iter()
        .map(|t| t.to_string())
        .collect();
    let units = units_for(&targets);
    let serial = run_units(&s, &units, 1);
    let parallel = run_units(&s, &units, 4);
    assert_eq!(serial.len(), parallel.len());
    for ((t, a), b) in targets.iter().zip(&serial).zip(&parallel) {
        // Artifact bytes — payload plus metrics block — must match.
        let ja = json::to_document(&Artifact::new(
            t,
            &s,
            a.data.clone(),
            Some(a.telemetry.metrics.clone()),
            Some(ugache_bench::timeline::from_report(&a.telemetry)),
        ));
        let jb = json::to_document(&Artifact::new(
            t,
            &s,
            b.data.clone(),
            Some(b.telemetry.metrics.clone()),
            Some(ugache_bench::timeline::from_report(&b.telemetry)),
        ));
        assert_eq!(ja, jb, "{t}: serial and parallel artifacts diverge");
        // The event streams must match line for line too.
        let ta: Vec<String> = a
            .telemetry
            .events
            .iter()
            .map(|e| trace_line(t, e).render_compact())
            .collect();
        let tb: Vec<String> = b
            .telemetry
            .events
            .iter()
            .map(|e| trace_line(t, e).render_compact())
            .collect();
        assert_eq!(ta, tb, "{t}: serial and parallel traces diverge");
    }
}

#[test]
fn every_unit_reports_populated_metrics() {
    let s = tiny();
    let targets: Vec<String> = TARGETS
        .iter()
        .filter(|t| **t != "fig15" && **t != "fig11") // aliases of fig14 / fig10
        .map(|t| t.to_string())
        .collect();
    let units = units_for(&targets);
    let results = run_units(&s, &units, 4);
    for (t, r) in targets.iter().zip(&results) {
        assert!(
            !r.telemetry.metrics.is_empty(),
            "{t}: metrics block is empty"
        );
    }
    // Memsim-backed figures must additionally carry a non-empty event
    // stream, so `repro --trace` has something to say about them.
    for (t, r) in targets.iter().zip(&results) {
        if *t == "fig6" || *t == "fig10" {
            assert!(!r.telemetry.events.is_empty(), "{t}: no trace events");
            let lines: Vec<String> = r
                .telemetry
                .events
                .iter()
                .map(|e| trace_line(t, e).render_compact())
                .collect();
            for line in &lines {
                assert!(!line.contains('\n'), "JSONL lines are single-line");
                json::parse(line).expect("trace line parses as JSON");
            }
        }
    }
}

#[test]
fn trace_header_embeds_schema_and_scenario() {
    let s = tiny();
    let header = trace_header(&s).render_compact();
    let v = json::parse(&header).unwrap();
    assert_eq!(
        v.get("schema_version").unwrap(),
        &json::Value::Num(SCHEMA_VERSION.to_string())
    );
    assert_eq!(
        v.get("kind").unwrap(),
        &json::Value::Str("ugache-repro-trace".to_string())
    );
    assert_eq!(
        v.get("scenario").unwrap().get("dlr_scale").unwrap(),
        &json::Value::Num("65536".to_string())
    );
}

#[test]
fn parse_trace_flag() {
    let spec = run_spec(&["--trace=t.jsonl", "fig2"]);
    assert_eq!(spec.trace.as_deref(), Some(std::path::Path::new("t.jsonl")));
    let spec = run_spec(&["--trace", "t.jsonl", "--json", "--out", "d", "fig2"]);
    assert_eq!(spec.trace.as_deref(), Some(std::path::Path::new("t.jsonl")));
    let err = cli::parse(&args(&["fig2", "--trace"])).unwrap_err();
    assert!(err.contains("--trace"), "{err}");
}

#[test]
fn parse_scenarios_record_and_replay_subcommands() {
    use ugache::baselines::SystemKind;

    match cli::parse(&args(&["scenarios"])).unwrap() {
        Command::Scenarios { md, check, .. } => {
            assert!(!md && !check);
        }
        other => panic!("expected Scenarios, got {other:?}"),
    }
    match cli::parse(&args(&["scenarios", "--check", "--file", "S.md"])).unwrap() {
        Command::Scenarios { check, file, .. } => {
            assert!(check);
            assert_eq!(file, std::path::PathBuf::from("S.md"));
        }
        other => panic!("expected Scenarios, got {other:?}"),
    }
    let err = cli::parse(&args(&["scenarios", "--md", "--check"])).unwrap_err();
    assert!(err.contains("--md"), "{err}");

    // Unknown scenario names are rejected at parse time with a pointer
    // to the catalog listing.
    let err = cli::parse(&args(&["record", "gnn/nope@server_c", "--out", "t"])).unwrap_err();
    assert!(err.contains("gnn/nope@server_c"), "{err}");
    assert!(err.contains("repro scenarios"), "{err}");
    let err = cli::parse(&args(&["record", "dlr/cr@server_a"])).unwrap_err();
    assert!(err.contains("--out"), "{err}");
    match cli::parse(&args(&[
        "record",
        "dlr/cr@server_a",
        "--out",
        "t",
        "--iters=3",
    ]))
    .unwrap()
    {
        Command::Record {
            scenario, iters, ..
        } => {
            assert_eq!(scenario, "dlr/cr@server_a");
            assert_eq!(iters, Some(3));
        }
        other => panic!("expected Record, got {other:?}"),
    }

    match cli::parse(&args(&["replay", "t.trace"])).unwrap() {
        Command::Replay {
            policy, platform, ..
        } => {
            assert_eq!(policy, SystemKind::UGache, "policy defaults to ugache");
            assert_eq!(platform, None);
        }
        other => panic!("expected Replay, got {other:?}"),
    }
    match cli::parse(&args(&[
        "replay",
        "t.trace",
        "--policy=hps",
        "--platform",
        "server_b",
    ]))
    .unwrap()
    {
        Command::Replay {
            policy, platform, ..
        } => {
            assert_eq!(policy, SystemKind::Hps);
            assert_eq!(platform, Some(PlatformId::ServerB));
        }
        other => panic!("expected Replay, got {other:?}"),
    }
    let err = cli::parse(&args(&["replay", "t.trace", "--policy", "lru"])).unwrap_err();
    assert!(err.contains("lru") && err.contains("ugache"), "{err}");
    let err = cli::parse(&args(&["replay", "t.trace", "--platform=server_z"])).unwrap_err();
    assert!(err.contains("server_z"), "{err}");
}

#[test]
fn policy_accepts_exactly_the_lowercase_system_names() {
    use ugache::baselines::SystemKind;

    let names = [
        "ugache",
        "gnnlab",
        "wholegraph",
        "partu",
        "repu",
        "quiver",
        "hps",
        "sok",
    ];
    assert_eq!(SystemKind::ALL.map(|k| k.name().to_lowercase()), names);
    for (name, kind) in names.into_iter().zip(SystemKind::ALL) {
        match cli::parse(&args(&["replay", "t.trace", "--policy", name])).unwrap() {
            Command::Replay { policy, .. } => assert_eq!(policy, kind, "{name}"),
            other => panic!("expected Replay, got {other:?}"),
        }
    }
    // Display names, and anything else, are not policies; the message
    // names the eight that are.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["replay", "t.trace", "--policy", "UGache"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "unknown policy `UGache`; available: ugache gnnlab wholegraph partu repu quiver hps sok\n"
    );
}

#[test]
fn platform_accepts_every_platform_name() {
    for p in PlatformId::ALL {
        match cli::parse(&args(&["replay", "t.trace", "--platform", p.name()])).unwrap() {
            Command::Replay { platform, .. } => assert_eq!(platform, Some(p), "{}", p.name()),
            other => panic!("expected Replay, got {other:?}"),
        }
    }
}

#[test]
fn scenarios_check_cli_gates_drift() {
    let exe = env!("CARGO_BIN_EXE_repro");
    let dir = std::env::temp_dir().join(format!("repro-scenarios-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let check = |file: &std::path::Path| {
        std::process::Command::new(exe)
            .args(["scenarios", "--check", "--file"])
            .arg(file)
            .output()
            .expect("repro runs")
            .status
            .code()
    };

    // A freshly rendered catalog passes the gate.
    let fresh = ugache_bench::catalog::render_markdown(ugache_bench::scenario::registry());
    let ok = dir.join("SCENARIOS.md");
    std::fs::write(&ok, &fresh).unwrap();
    assert_eq!(check(&ok), Some(0));
    // Any drift (here: a vandalized row) is a gate failure, exit 1.
    let drifted = dir.join("drifted.md");
    std::fs::write(&drifted, fresh.replace("`server_a`", "`server_z`")).unwrap();
    assert_eq!(check(&drifted), Some(1));
    // An unreadable catalog is a usage/IO error, exit 2.
    assert_eq!(check(&dir.join("missing.md")), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn record_and_replay_cli_round_trip_end_to_end() {
    let exe = env!("CARGO_BIN_EXE_repro");
    let dir = std::env::temp_dir().join(format!("repro-trace-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Unknown scenario name: usage error, exit 2.
    let out = std::process::Command::new(exe)
        .args(["record", "dlr/nope@server_a", "--out"])
        .arg(dir.join("x.trace"))
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));

    // Recording twice produces byte-identical traces.
    let t1 = dir.join("a.trace");
    let t2 = dir.join("b.trace");
    for t in [&t1, &t2] {
        let out = std::process::Command::new(exe)
            .args(["record", "dlr/cr@server_a", "--iters=1", "--out"])
            .arg(t)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(0), "{:?}", out);
    }
    let bytes = std::fs::read(&t1).unwrap();
    assert_eq!(
        bytes,
        std::fs::read(&t2).unwrap(),
        "record is deterministic"
    );

    // Replaying the trace writes a report and exits 0.
    let report = dir.join("rep.json");
    let out = std::process::Command::new(exe)
        .arg("replay")
        .arg(&t1)
        .args(["--policy", "hps", "--out"])
        .arg(&report)
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let text = std::fs::read_to_string(&report).unwrap();
    let v = json::parse(&text).expect("report parses");
    assert_eq!(
        v.get("kind").unwrap(),
        &json::Value::Str("ugache-replay".to_string())
    );
    assert_eq!(
        v.get("scenario").unwrap(),
        &json::Value::Str("dlr/cr@server_a".to_string())
    );

    // A corrupt trace is unusable input: exit 3.
    let mut corrupt = bytes;
    corrupt[0] = b'X';
    let bad = dir.join("bad.trace");
    std::fs::write(&bad, corrupt).unwrap();
    let out = std::process::Command::new(exe)
        .arg("replay")
        .arg(&bad)
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(3));

    // So is a header that claims a key domain nothing could back (2^40
    // is past `u32` keys, 2^31 past what a replay lays tables over):
    // exit 3 with a message, where `replay` used to abort.
    for (num_keys, message) in [(1u64 << 40, "32-bit keys"), (1 << 31, "dense tables")] {
        let mut header = b"UGTR\x01\0\0\0\x07\0\0\0\0\0\0\0\x04\0\0\0".to_vec();
        header.extend_from_slice(&num_keys.to_le_bytes());
        header.extend_from_slice(b"\0\0\0\0\x01\0\0\0x");
        assert_eq!(header.len(), 37);
        std::fs::write(&bad, header).unwrap();
        let out = std::process::Command::new(exe)
            .arg("replay")
            .arg(&bad)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(3), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{stderr}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_dir_schema_refuses_stale_artifacts() {
    let s = tiny();
    let dir = std::env::temp_dir().join(format!("repro-schema-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Missing and empty directories pass.
    assert!(check_dir_schema(&dir).is_ok());
    std::fs::create_dir_all(&dir).unwrap();
    assert!(check_dir_schema(&dir).is_ok());

    // A current-schema artifact passes; non-artifact JSON is ignored.
    let result = Unit::Fig9.compute_with_telemetry(&s);
    Artifact::new(
        "fig9",
        &s,
        result.data,
        Some(result.telemetry.metrics),
        None,
    )
    .write(&dir)
    .unwrap();
    std::fs::write(dir.join("notes.json"), "{\"hello\": 1}\n").unwrap();
    assert!(check_dir_schema(&dir).is_ok());

    // An artifact from another schema generation is a hard error that
    // names the file and points at the docs.
    let stale = std::fs::read_to_string(dir.join("fig9.json"))
        .unwrap()
        .replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 1",
        );
    std::fs::write(dir.join("fig9.json"), stale).unwrap();
    let err = check_dir_schema(&dir).unwrap_err();
    assert!(err.contains("fig9.json"), "{err}");
    assert!(err.contains("EXPERIMENTS.md"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Repo root, for tests that pin committed files (baselines, METRICS.md).
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn explain_tail_golden_report_matches_committed_baseline() {
    let root = repo_root();
    let artifact =
        std::fs::read_to_string(root.join("baselines/quick/serve.json")).expect("baseline serve");
    let v = json::parse(&artifact).expect("baseline artifact parses");
    let report = ugache_bench::explain::report_from_artifact(&v).expect("baseline explains");
    let rendered = json::to_document(&report);
    let golden = std::fs::read_to_string(root.join("baselines/explain_tail_serve.json"))
        .expect("committed golden report");
    assert_eq!(
        rendered, golden,
        "explain-tail golden drifted; if intentional, regenerate with \
         `repro explain-tail baselines/quick/serve.json --out baselines/explain_tail_serve.json`"
    );
}

#[test]
fn explain_tail_exit_codes_distinguish_usage_from_unusable_input() {
    let exe = env!("CARGO_BIN_EXE_repro");
    let dir = std::env::temp_dir().join(format!("repro-explain-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |input: &str| {
        std::process::Command::new(exe)
            .args(["explain-tail", input])
            .output()
            .expect("repro runs")
            .status
            .code()
    };

    // Missing artifact (and not a registered scenario name): usage/IO, exit 2.
    assert_eq!(run(dir.join("missing.json").to_str().unwrap()), Some(2));
    // A registered scenario that is not the serving scenario: usage, exit 2.
    assert_eq!(run("dlr/cr@server_a"), Some(2));
    // Invalid JSON: unusable input, exit 3.
    let garbled = dir.join("garbled.json");
    std::fs::write(&garbled, "{not json").unwrap();
    assert_eq!(run(garbled.to_str().unwrap()), Some(3));
    // A pre-exemplar (v4) artifact: unusable input, exit 3 — explain-tail
    // needs the v5 `exemplars` block.
    let serve = std::fs::read_to_string(repo_root().join("baselines/quick/serve.json")).unwrap();
    let stale = dir.join("v4.json");
    std::fs::write(
        &stale,
        serve.replace("\"schema_version\": 5", "\"schema_version\": 4"),
    )
    .unwrap();
    assert_eq!(run(stale.to_str().unwrap()), Some(3));
    // A non-serve artifact at the current schema: unusable input, exit 3.
    let fig9 = repo_root().join("baselines/quick/fig9.json");
    assert_eq!(run(fig9.to_str().unwrap()), Some(3));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_command_that_reads_an_input_exits_3_when_it_is_unusable() {
    let exe = env!("CARGO_BIN_EXE_repro");
    let dir = std::env::temp_dir().join(format!("repro-unusable-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A trace header (1 000 keys, 4 GPUs) that promises one record and ends.
    let mut truncated = b"UGTR\x01\0\0\0\x07\0\0\0\0\0\0\0\x04\0\0\0".to_vec();
    truncated.extend_from_slice(&1000u64.to_le_bytes());
    truncated.extend_from_slice(b"\x01\0\0\0\x01\0\0\0x");
    let inputs: [(&str, &[u8]); 3] = [
        ("not-json", b"{not json"),
        ("not-utf8", b"\xff\xfe{}"),
        ("truncated-trace", &truncated),
    ];
    for (name, bytes) in inputs {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        for command in ["check-trace", "explain-tail", "replay"] {
            let out = std::process::Command::new(exe)
                .arg(command)
                .arg(&path)
                .output()
                .expect("repro runs");
            assert_eq!(out.status.code(), Some(3), "{command} on {name}: {out:?}");
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_check_cli_gates_drift() {
    // The committed catalog matches the source of truth (the coverage
    // half of `repro metrics --check` runs the full quick evaluation and
    // is exercised by CI's docs job, not here).
    let committed = std::fs::read_to_string(repo_root().join("METRICS.md")).expect("METRICS.md");
    ugache_bench::metrics_catalog::check_file(&committed).expect("committed METRICS.md matches");

    let exe = env!("CARGO_BIN_EXE_repro");
    let dir = std::env::temp_dir().join(format!("repro-metrics-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let check = |file: &std::path::Path| {
        std::process::Command::new(exe)
            .args(["metrics", "--check", "--file"])
            .arg(file)
            .output()
            .expect("repro runs")
            .status
            .code()
    };
    // File drift fails fast (before the coverage run): exit 1.
    let drifted = dir.join("drifted.md");
    std::fs::write(&drifted, committed.replace("histogram", "histogrum")).unwrap();
    assert_eq!(check(&drifted), Some(1));
    // An unreadable catalog is a usage/IO error, exit 2.
    assert_eq!(check(&dir.join("missing.md")), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_dirs_reports_and_clears() {
    let s = tiny();
    let base = std::env::temp_dir().join(format!("repro-diff-test-{}", std::process::id()));
    let dir_a = base.join("a");
    let dir_b = base.join("b");
    let _ = std::fs::remove_dir_all(&base);

    let data = TargetData::Fig9(ugache_bench::figures::fig09::compute(&s));
    Artifact::new("fig9", &s, data.clone(), None, None)
        .write(&dir_a)
        .unwrap();
    Artifact::new("fig9", &s, data, None, None)
        .write(&dir_b)
        .unwrap();
    assert!(diff_dirs(&dir_a, &dir_b).unwrap().is_empty());

    // A scenario change shows up as a structural difference.
    let mut s2 = s;
    s2.iters = 2;
    let data2 = TargetData::Fig9(ugache_bench::figures::fig09::compute(&s2));
    Artifact::new("fig9", &s2, data2, None, None)
        .write(&dir_b)
        .unwrap();
    let diffs = diff_dirs(&dir_a, &dir_b).unwrap();
    assert!(
        diffs.iter().any(|d| d.contains("scenario.iters")),
        "{diffs:?}"
    );

    // A file present on one side only is reported.
    let extra = TargetData::Table1(ugache_bench::figures::table1::compute(&s));
    Artifact::new("table1", &s, extra, None, None)
        .write(&dir_a)
        .unwrap();
    let diffs = diff_dirs(&dir_a, &dir_b).unwrap();
    assert!(diffs.iter().any(|d| d.contains("table1.json")), "{diffs:?}");

    // An unreadable artifact on both sides is reported per side, and the
    // scan goes on to the real difference: `repro diff` exits 1, not 2.
    for dir in [&dir_a, &dir_b] {
        std::fs::create_dir_all(dir.join("x.json")).unwrap();
    }
    let diffs = diff_dirs(&dir_a, &dir_b).unwrap();
    let unreadable = diffs
        .iter()
        .filter(|d| d.starts_with("x.json: cannot read in "));
    assert_eq!(unreadable.count(), 2, "{diffs:?}");
    assert!(
        diffs.iter().any(|d| d.contains("scenario.iters")),
        "{diffs:?}"
    );
    let code = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("diff")
        .arg(&dir_a)
        .arg(&dir_b)
        .output()
        .expect("repro runs")
        .status
        .code();
    assert_eq!(code, Some(1));

    let _ = std::fs::remove_dir_all(&base);
}
