//! Integration tests for the span profiler surface: Chrome-trace
//! byte-determinism across `--jobs`, the artifact timeline block,
//! and the `repro compare` perf-regression gate.

use ugache_bench::artifact::{Artifact, SCHEMA_VERSION};
use ugache_bench::figures::Unit;
use ugache_bench::runner::{run_units, units_for};
use ugache_bench::{chrome, compare, json, timeline, Scenario};

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

/// Mutable sibling of `json::Value::get`, for test-side perturbation.
fn get_mut<'a>(v: &'a mut json::Value, key: &str) -> &'a mut json::Value {
    match v {
        json::Value::Obj(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("object has no key `{key}`")),
        _ => panic!("`{key}` looked up on a non-object"),
    }
}

#[test]
fn chrome_trace_is_byte_identical_serial_vs_parallel() {
    let s = tiny();
    // Memsim-backed figures carry link/stall spans; fig9 rides along to
    // prove multi-target pid assignment stays stable under --jobs.
    let targets: Vec<String> = ["fig6", "fig10", "fig9"]
        .iter()
        .map(|t| t.to_string())
        .collect();
    let units = units_for(&targets);
    let serial = run_units(&s, &units, 1);
    let parallel = run_units(&s, &units, 4);

    let trace_of = |results: &[ugache_bench::runner::UnitResult]| -> String {
        let per_target: Vec<(&str, &emb_telemetry::Report)> = targets
            .iter()
            .zip(results)
            .map(|(t, r)| (t.as_str(), &r.telemetry))
            .collect();
        let mut out = chrome::chrome_trace(&per_target).render_compact();
        out.push('\n');
        out
    };
    let a = trace_of(&serial);
    let b = trace_of(&parallel);
    assert_eq!(a, b, "chrome trace bytes diverge between --jobs 1 and 4");

    // The emitted trace is structurally valid and non-trivial: it names
    // at least one per-link track from the simulator.
    let v = json::parse(&a).expect("chrome trace parses");
    let errors = chrome::validate(&v);
    assert!(errors.is_empty(), "{errors:?}");
    assert!(a.contains("link:"), "no per-link track in the trace");
    assert!(a.contains("/cores"), "no stall track in the trace");
}

#[test]
fn artifacts_carry_populated_timeline_blocks() {
    let s = tiny();
    let result = Unit::Fig10And11.compute_with_telemetry(&s);
    let tl = timeline::from_report(&result.telemetry);
    let artifact = Artifact::new(
        "fig10",
        &s,
        result.data,
        Some(result.telemetry.metrics),
        Some(tl),
    );
    let v = json::to_value(&artifact).expect("artifact serializes");
    assert_eq!(
        v.get("schema_version").unwrap(),
        &json::Value::Num(SCHEMA_VERSION.to_string())
    );
    let timeline = v.get("timeline").expect("timeline block present");
    let extent: u64 = match timeline.get("extent_ns").expect("extent_ns") {
        json::Value::Num(n) => n.parse().unwrap(),
        other => panic!("extent_ns not a number: {other:?}"),
    };
    assert!(extent > 0, "zero simulated extent");
    let tracks = match timeline.get("tracks").expect("tracks") {
        json::Value::Arr(items) => items,
        other => panic!("tracks not an array: {other:?}"),
    };
    assert!(
        tracks.iter().any(|t| matches!(
            t.get("track"),
            Some(json::Value::Str(name)) if name.contains("link:")
        )),
        "no per-link track in the timeline"
    );
}

#[test]
fn compare_gate_flags_perturbed_link_utilization() {
    let s = tiny();
    let base = std::env::temp_dir().join(format!("repro-compare-test-{}", std::process::id()));
    let dir_base = base.join("baseline");
    let dir_new = base.join("new");
    let _ = std::fs::remove_dir_all(&base);

    let result = Unit::Fig10And11.compute_with_telemetry(&s);
    let tl = timeline::from_report(&result.telemetry);
    let artifact = Artifact::new(
        "fig10",
        &s,
        result.data,
        Some(result.telemetry.metrics),
        Some(tl),
    );
    artifact.write(&dir_base).unwrap();
    artifact.write(&dir_new).unwrap();

    // Identical directories pass the gate.
    assert!(compare::compare_dirs(&dir_base, &dir_new)
        .unwrap()
        .is_empty());

    // Perturb one link track's utilization beyond its 5% tolerance.
    let path = dir_new.join("fig10.json");
    let mut v = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let tracks = get_mut(get_mut(&mut v, "timeline"), "tracks");
    let track = match tracks {
        json::Value::Arr(items) => items
            .iter_mut()
            .find(|t| {
                matches!(
                    t.get("track"),
                    Some(json::Value::Str(name)) if name.contains("link:")
                )
            })
            .expect("fig10 timeline has a link track"),
        other => panic!("tracks not an array: {other:?}"),
    };
    let util = get_mut(track, "utilization");
    let old: f64 = match &*util {
        json::Value::Num(n) => n.parse().unwrap(),
        other => panic!("utilization not a number: {other:?}"),
    };
    let perturbed = if old == 0.0 { 0.5 } else { old * 1.5 };
    *util = json::Value::Num(format!("{perturbed}"));
    std::fs::write(&path, format!("{}\n", v.render_pretty())).unwrap();

    let failures = compare::compare_dirs(&dir_base, &dir_new).unwrap();
    assert!(
        failures
            .iter()
            .any(|f| f.contains("utilization") && f.contains("link:")),
        "perturbed link utilization not flagged: {failures:?}"
    );

    let _ = std::fs::remove_dir_all(&base);
}
