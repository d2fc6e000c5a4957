//! Differential record/replay tests: a UGTR trace, round-tripped
//! through its byte encoding, must drive an identically built system to
//! the same extraction outcomes, cache hit counters, and telemetry
//! report as the live generator — at any worker-pool width. See
//! EXPERIMENTS.md ("Access-trace format") and DESIGN.md ("Why replay is
//! bitwise") for the contract these tests pin.

use emb_scenario::{registry, Scenario, ScenarioDef};
use emb_serve::{run_load_point, run_load_point_with_keys, ClientPopulation};
use emb_telemetry::Report;
use emb_util::zipf::powerlaw_hotness;
use emb_workload::{Trace, TraceError, TRACE_VERSION};
use extractor::ExtractOutcome;
use ugache::baselines::{build_system, SystemInstance, SystemKind};
use ugache::{UGache, UGacheConfig};
use ugache_bench::figures::serve::serve_config;
use ugache_bench::replay::record_trace;

/// Small knobs so the differential runs stay fast in release CI.
fn tiny_knobs() -> Scenario {
    Scenario {
        gnn_scale: 16_384,
        dlr_scale: 65_536,
        gnn_batch: 64,
        dlr_batch: 64,
        iters: 2,
        serve_users: 10_000,
        serve_requests: 8,
    }
}

/// Everything one training-style run (live or replayed) produces.
#[derive(Debug, PartialEq)]
struct RunResult {
    outcomes: Vec<ExtractOutcome>,
    /// `[local, remote, host]` unique-key counts per batch.
    counters: Vec<[u64; 3]>,
    report: Report,
}

/// Builds the scenario's reference system exactly once per side, so the
/// live and replay runs compare systems constructed from identical
/// inputs.
fn training_system(def: &ScenarioDef, knobs: &Scenario) -> SystemInstance {
    let plat = def.resolve_platform();
    let (hotness, entry_bytes, accesses, n) = match def.workload {
        emb_scenario::WorkloadSpec::Gnn { .. } => {
            let (mut w, h) = def.gnn(knobs);
            let a = w.measure_accesses_per_iter(1);
            (h, w.dataset().entry_bytes, a, w.dataset().num_entries())
        }
        emb_scenario::WorkloadSpec::Dlr { .. } => {
            let (mut w, h) = def.dlr(knobs);
            let a = w.measure_accesses_per_iter(1);
            (h, w.dataset().entry_bytes, a, w.dataset().num_entries())
        }
        emb_scenario::WorkloadSpec::ServeZipf => unreachable!("training scenarios only"),
    };
    build_system(
        SystemKind::UGache,
        &plat,
        &hotness,
        (n / 20).max(64),
        entry_bytes,
        accesses,
        def.seed,
    )
    .expect("reference system builds")
}

/// Runs the batches through a fresh reference system under a telemetry
/// scope; the batch source is the only difference between the live and
/// replayed runs.
fn drive(def: &ScenarioDef, knobs: &Scenario, batches: &[Vec<Vec<u32>>]) -> RunResult {
    let sys = training_system(def, knobs);
    let ((outcomes, counters), report) = emb_telemetry::collect(|| {
        let mut outcomes = Vec::new();
        let mut counters = Vec::new();
        for shards in batches {
            outcomes.push(sys.extract(shards));
            counters.push(sys.placement.tier_keys(shards));
        }
        (outcomes, counters)
    });
    RunResult {
        outcomes,
        counters,
        report,
    }
}

/// Live-vs-replay differential for one training scenario: the live
/// stream comes straight from the generator, the replayed one from a
/// trace round-tripped through its byte encoding.
fn assert_training_replay_matches_live(name: &str, knobs: &Scenario) -> Vec<u8> {
    let def = registry().get(name).expect("scenario is registered");
    // Live batches, drawn from a fresh generator.
    let live_batches: Vec<Vec<Vec<u32>>> = match def.workload {
        emb_scenario::WorkloadSpec::Gnn { .. } => {
            let (mut w, _) = def.gnn(knobs);
            (0..knobs.iters).map(|_| w.next_batch()).collect()
        }
        emb_scenario::WorkloadSpec::Dlr { .. } => {
            let (mut w, _) = def.dlr(knobs);
            (0..knobs.iters).map(|_| w.next_batch()).collect()
        }
        emb_scenario::WorkloadSpec::ServeZipf => unreachable!(),
    };
    // Recorded batches, round-tripped bitwise through the wire format.
    let trace = record_trace(def, knobs, None);
    let bytes = trace.to_bytes();
    let decoded = Trace::from_bytes(&bytes).expect("trace decodes");
    assert_eq!(
        decoded.to_bytes(),
        bytes,
        "{name}: encode is bitwise stable"
    );
    assert_eq!(
        decoded.records, live_batches,
        "{name}: the trace is the live stream"
    );

    let live = drive(def, knobs, &live_batches);
    let replayed = drive(def, knobs, &decoded.records);
    assert_eq!(live, replayed, "{name}: replay diverged from live");
    assert!(
        live.counters.iter().any(|&[l, r, h]| l + r + h > 0),
        "{name}: the run touched keys"
    );
    bytes
}

/// Serve-side differential: `run_load_point` (live draws) vs
/// `run_load_point_with_keys` fed a decoded trace.
fn assert_serve_replay_matches_live(knobs: &Scenario) -> Vec<u8> {
    let def = registry().serve_def().expect("registered");
    let cfg = serve_config(knobs);
    let n = cfg.num_keys as usize;
    let build_engine = || {
        let plat = def.resolve_platform();
        let hotness = cache_policy::Hotness::new(powerlaw_hotness(n, cfg.user_alpha));
        let mut ucfg = UGacheConfig::new(cfg.entry_bytes, 256.0);
        ucfg.solver.blocks.max_blocks = 32;
        ucfg.sample_stride = 4;
        let host = emb_cache::HostTable::procedural(n, cfg.entry_bytes / 4);
        let cap = (n / 8).max(64);
        UGache::build(
            plat.clone(),
            host,
            &hotness,
            vec![cap; plat.num_gpus()],
            ucfg,
        )
        .expect("ugache builds")
    };
    let offered_rps = 50_000.0;

    let (live_sample, live_report) = emb_telemetry::collect(|| {
        let mut u = build_engine();
        let mut clients = ClientPopulation::new(
            cfg.seed,
            cfg.num_users,
            cfg.num_keys,
            cfg.user_alpha,
            cfg.keys_per_request,
        );
        run_load_point(&mut u, &cfg, &mut clients, 0, offered_rps)
    });

    let trace = record_trace(def, knobs, None);
    let bytes = trace.to_bytes();
    let decoded = Trace::from_bytes(&bytes).expect("trace decodes");
    assert_eq!(decoded.num_gpus, 1, "serve traces are one stream");
    assert_eq!(decoded.records.len(), knobs.serve_requests);
    let request_keys: Vec<Vec<u32>> = decoded.records.iter().map(|r| r[0].clone()).collect();

    let (replay_sample, replay_report) = emb_telemetry::collect(|| {
        let mut u = build_engine();
        run_load_point_with_keys(&mut u, &cfg, 0, offered_rps, &request_keys)
    });

    assert_eq!(
        live_sample, replay_sample,
        "serve replay diverged from live"
    );
    assert_eq!(live_report, replay_report, "serve telemetry diverged");
    assert!(live_sample.requests > 0);
    bytes
}

#[test]
fn replay_matches_live_for_dlr_gnn_and_serve_at_widths_1_and_4() {
    let knobs = tiny_knobs();
    // Width is process-global, so the whole sweep lives in one test; the
    // trace bytes and every differential must be identical at both
    // widths (the same guarantee `--threads` gives artifacts).
    let mut per_width: Vec<[Vec<u8>; 3]> = Vec::new();
    for width in [1usize, 4] {
        emb_util::pool::set_threads(width);
        per_width.push([
            assert_training_replay_matches_live("dlr/cr@server_a", &knobs),
            assert_training_replay_matches_live("gnn/pa/sage_sup@server_a", &knobs),
            assert_serve_replay_matches_live(&knobs),
        ]);
    }
    emb_util::pool::set_threads(1);
    assert_eq!(
        per_width[0], per_width[1],
        "trace bytes changed with the pool width"
    );
}

#[test]
fn version_mismatch_and_corruption_are_hard_errors() {
    let def = registry().get("dlr/syn_a@server_a").expect("registered");
    let mut bytes = record_trace(def, &tiny_knobs(), Some(1)).to_bytes();

    // Future version: bytes 4..8 hold the little-endian version field.
    let future = (TRACE_VERSION + 1).to_le_bytes();
    bytes[4..8].copy_from_slice(&future);
    match Trace::from_bytes(&bytes) {
        Err(TraceError::VersionMismatch { found }) => {
            assert_eq!(found, TRACE_VERSION + 1);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    bytes[4..8].copy_from_slice(&TRACE_VERSION.to_le_bytes());
    assert!(Trace::from_bytes(&bytes).is_ok(), "restored trace decodes");

    bytes[0] = b'X';
    assert!(
        matches!(Trace::from_bytes(&bytes), Err(TraceError::BadMagic { .. })),
        "corrupt magic must be rejected"
    );
    bytes[0] = b'U';
    let cut = bytes.len() - 3;
    assert!(
        matches!(
            Trace::from_bytes(&bytes[..cut]),
            Err(TraceError::Truncated { .. })
        ),
        "truncated traces must be rejected"
    );
}
