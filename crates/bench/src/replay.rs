//! Record/replay driver: captures a registered scenario's access
//! stream to a UGTR trace and replays traces against any policy on any
//! platform.
//!
//! The wire format and CLI semantics are specified in EXPERIMENTS.md
//! ("Access-trace format"); this module implements the spec. Replay
//! derives everything it needs — hotness, cache sizing, the access
//! volume the solver's time model sees — from the trace itself, so a
//! replay is a pure function of (trace bytes, policy, platform) and two
//! replays write byte-identical reports at any worker-pool width.

use crate::figures::serve;
use crate::scenario::{PlatformId, Scenario, ScenarioDef, WorkloadSpec, SEED};
use cache_policy::Hotness;
use emb_serve::{draw_request_keys, ClientPopulation};
use emb_workload::Trace;
use gpu_platform::home_gpu;
use serde::Serialize;
use ugache::baselines::{build_system, SystemKind};

/// Replay-report schema version (bump on any field change).
pub const REPLAY_SCHEMA_VERSION: u32 = 1;

/// Bytes per embedding entry assumed when replaying (the trace carries
/// keys, not geometry; a fixed value keeps reports comparable across
/// traces).
pub const REPLAY_ENTRY_BYTES: usize = 128;

/// The largest key domain a replay lays its dense tables over. A replay
/// holds, per key, a `u64` count and an `f64` hotness weight (16 B) and,
/// per key per GPU, an access byte and a stored flag (2 B): 32 B a key on
/// an eight-GPU platform, so 2^22 keys are 128 MiB — ten times the
/// largest domain the registry records (`dlr/cr` at `--full`, 430 664
/// keys). A 37-byte header can claim 2^32 keys, which would be 128 GiB;
/// nothing else in the file could justify that.
pub const MAX_REPLAY_KEYS: u64 = 1 << 22;

/// Per-iteration unique-key hit counters plus the extraction makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct IterationStats {
    /// Keys served from the destination GPU's own arena.
    pub local: u64,
    /// Keys served from a remote GPU's arena.
    pub remote: u64,
    /// Keys served from the host table.
    pub host: u64,
    /// Extraction makespan (simulated nanoseconds).
    pub makespan_ns: u64,
}

/// Summed tier counters over a whole replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TierTotals {
    /// Total local-tier keys.
    pub local: u64,
    /// Total remote-tier keys.
    pub remote: u64,
    /// Total host-tier keys.
    pub host: u64,
}

/// The deterministic JSON report a replay writes (`repro replay --out`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReplayReport {
    /// [`REPLAY_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Always `"ugache-replay"`.
    pub kind: String,
    /// The trace's stamped scenario name.
    pub scenario: String,
    /// The trace's stamped root seed.
    pub seed: u64,
    /// Number of replayed records.
    pub records: usize,
    /// Lowercase name of the replayed system (`ugache`, `partu`, …).
    pub policy: String,
    /// Registry name of the replay platform.
    pub platform: String,
    /// Key-domain size from the trace header.
    pub num_keys: u64,
    /// Derived per-GPU cache capacity (entries).
    pub cap_entries: usize,
    /// [`REPLAY_ENTRY_BYTES`].
    pub entry_bytes: usize,
    /// Mean keys per record fed to the solver's time model.
    pub accesses_per_iter: f64,
    /// One row per record, in trace order.
    pub iterations: Vec<IterationStats>,
    /// [`IterationStats`] summed over all records.
    pub totals: TierTotals,
}

/// Records `iters` iterations (for `serve`: requests) of the named
/// scenario's access stream, exactly as the live figures would draw it.
///
/// `iters` defaults to the knobs' `iters` (`serve_requests` for the
/// serving scenario) when `None`.
pub fn record_trace(def: &ScenarioDef, knobs: &Scenario, iters: Option<usize>) -> Trace {
    match def.workload {
        WorkloadSpec::Gnn { dataset, model } => {
            let (mut w, _) = knobs.gnn(dataset, model, &def.platform.resolve());
            let n = w.dataset().num_entries() as u64;
            Trace::capture(&mut w, iters.unwrap_or(knobs.iters), SEED, n, &def.name)
        }
        WorkloadSpec::Dlr { dataset } => {
            let (mut w, _) = knobs.dlr(dataset, &def.platform.resolve());
            let n = w.dataset().num_entries() as u64;
            Trace::capture(&mut w, iters.unwrap_or(knobs.iters), SEED, n, &def.name)
        }
        WorkloadSpec::ServeZipf => {
            let mut cfg = serve::serve_config(knobs);
            cfg.requests = iters.unwrap_or(knobs.serve_requests);
            let mut clients = ClientPopulation::new(
                cfg.seed,
                cfg.num_users,
                cfg.num_keys,
                cfg.user_alpha,
                cfg.keys_per_request,
            );
            // One record per request, raw draw order and duplicates
            // preserved (the serving path shards and dedups at batch
            // time, not at draw time).
            let records: Vec<Vec<Vec<u32>>> = draw_request_keys(&cfg, &mut clients, 0)
                .into_iter()
                .map(|keys| vec![keys])
                .collect();
            Trace {
                seed: SEED,
                num_gpus: 1,
                num_keys: cfg.num_keys,
                scenario: def.name.clone(),
                records,
            }
        }
    }
}

/// Defaults the replay platform to the one whose GPU count matches the
/// trace header (4 → `server_a`, 8 → `server_c`, 1 → `a100_80`).
pub fn default_platform(trace_gpus: u32) -> Option<PlatformId> {
    match trace_gpus {
        4 => Some(PlatformId::ServerA),
        8 => Some(PlatformId::ServerC),
        1 => Some(PlatformId::SingleA100),
        _ => None,
    }
}

/// A system's name as `--policy` takes it and a report's `policy` field
/// carries it: its display name in lowercase.
pub(crate) fn policy_name(kind: SystemKind) -> String {
    kind.name().to_lowercase()
}

/// Re-shards one record onto `g` GPUs when the trace's GPU count
/// differs from the replay platform's: keys are merged, dealt to their
/// [`home_gpu`] among `g`, sorted, and deduplicated — exactly like the
/// serving path's batch sharding. With matching counts the record is fed
/// through unchanged.
fn normalize(record: &[Vec<u32>], g: usize) -> Vec<Vec<u32>> {
    if record.len() == g {
        return record.to_vec();
    }
    let mut shards = vec![Vec::new(); g];
    for keys in record {
        for &k in keys {
            shards[home_gpu(k as usize, g)].push(k);
        }
    }
    for shard in &mut shards {
        shard.sort_unstable();
        shard.dedup();
    }
    shards
}

/// Replays a decoded trace under the system `policy` on `platform` (or the
/// trace-matched default) and returns the per-iteration hit counters.
///
/// # Errors
///
/// Returns a message when the trace's key domain is above
/// [`MAX_REPLAY_KEYS`], when no platform matches the trace's GPU count
/// and none was given, or when the system cannot be built on the chosen
/// platform (e.g. WholeGraph's launch constraints).
pub fn replay_trace(
    trace: &Trace,
    policy: SystemKind,
    platform: Option<PlatformId>,
) -> Result<ReplayReport, String> {
    if trace.num_keys > MAX_REPLAY_KEYS {
        return Err(format!(
            "key domain {} is above the {MAX_REPLAY_KEYS} keys a replay lays dense tables over",
            trace.num_keys
        ));
    }
    let platform_id = platform
        .or_else(|| default_platform(trace.num_gpus))
        .ok_or_else(|| {
            format!(
                "no builtin platform has {} GPUs; pass --platform",
                trace.num_gpus
            )
        })?;
    let plat = platform_id.resolve();
    let g = plat.num_gpus();

    // Hotness comes from the trace's own key frequencies: the replay
    // needs no dataset, only the stream.
    let mut counts = vec![0u64; trace.num_keys as usize];
    for record in &trace.records {
        for keys in record {
            for &k in keys {
                counts[k as usize] += 1;
            }
        }
    }
    let hotness = Hotness::from_counts(&counts);

    let shards_per_record: Vec<Vec<Vec<u32>>> =
        trace.records.iter().map(|r| normalize(r, g)).collect();
    let total_keys: usize = shards_per_record
        .iter()
        .flat_map(|r| r.iter())
        .map(Vec::len)
        .sum();
    let accesses_per_iter = total_keys as f64 / shards_per_record.len().max(1) as f64;
    let cap_entries = (trace.num_keys as usize / (8 * g)).max(64);

    let sys = build_system(
        policy,
        &plat,
        &hotness,
        cap_entries,
        REPLAY_ENTRY_BYTES,
        accesses_per_iter,
        trace.seed,
    )?;

    let mut iterations = Vec::with_capacity(shards_per_record.len());
    let mut totals = [0u64; 3];
    for shards in &shards_per_record {
        let makespan_ns = sys.extract(shards).makespan.as_nanos();
        let [local, remote, host] = sys.placement.tier_keys(shards);
        totals = [totals[0] + local, totals[1] + remote, totals[2] + host];
        iterations.push(IterationStats {
            local,
            remote,
            host,
            makespan_ns,
        });
    }

    let [local, remote, host] = totals;
    Ok(ReplayReport {
        schema_version: REPLAY_SCHEMA_VERSION,
        kind: "ugache-replay".to_string(),
        scenario: trace.scenario.clone(),
        seed: trace.seed,
        records: trace.records.len(),
        policy: policy_name(policy),
        platform: platform_id.name().to_string(),
        num_keys: trace.num_keys,
        cap_entries,
        entry_bytes: REPLAY_ENTRY_BYTES,
        accesses_per_iter,
        iterations,
        totals: TierTotals {
            local,
            remote,
            host,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::registry;

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

    #[test]
    fn record_replay_is_deterministic() {
        let def = registry()
            .get("dlr/syn_a@server_a")
            .expect("registered")
            .clone();
        let knobs = tiny_knobs();
        let t1 = record_trace(&def, &knobs, None);
        let t2 = record_trace(&def, &knobs, None);
        assert_eq!(t1.to_bytes(), t2.to_bytes());
        let r1 = replay_trace(&t1, SystemKind::UGache, None).unwrap();
        let r2 = replay_trace(&t2, SystemKind::UGache, None).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1.platform, "server_a");
        assert_eq!(r1.records, 2);
        let sum: u64 = r1
            .iterations
            .iter()
            .map(|i| i.local + i.remote + i.host)
            .sum();
        assert_eq!(
            sum,
            r1.totals.local + r1.totals.remote + r1.totals.host,
            "totals are the iteration sum"
        );
        assert!(sum > 0, "the replay touched keys");
    }

    #[test]
    fn serve_traces_reshard_onto_multi_gpu_platforms() {
        let def = registry()
            .get("serve/zipf@server_a")
            .expect("registered")
            .clone();
        let knobs = tiny_knobs();
        let t = record_trace(&def, &knobs, Some(4));
        assert_eq!(t.num_gpus, 1);
        assert_eq!(t.records.len(), 4);
        // 1-GPU trace defaults to the single A100 and can be re-sharded
        // onto Server A explicitly.
        let single = replay_trace(&t, SystemKind::Hps, None).unwrap();
        assert_eq!(single.platform, "a100_80");
        let quad = replay_trace(&t, SystemKind::Hps, Some(PlatformId::ServerA)).unwrap();
        assert_eq!(quad.platform, "server_a");
        assert!(quad.totals.local + quad.totals.remote + quad.totals.host > 0);
    }

    /// The 37-byte file of the bug report: a header claiming `num_keys`
    /// on 4 GPUs, no records, a one-byte name.
    fn header_only(num_keys: u64) -> Vec<u8> {
        let bytes = Trace {
            seed: 7,
            num_gpus: 4,
            num_keys,
            scenario: "x".to_string(),
            records: Vec::new(),
        }
        .to_bytes();
        assert_eq!(bytes.len(), 37);
        bytes
    }

    #[test]
    fn a_header_alone_cannot_size_the_replay_tables() {
        // Above what `u32` keys address: not a trace. (`repro replay`
        // used to abort on the first, 8 TiB of counts, and panic
        // "capacity overflow" on the second.)
        for num_keys in [1 << 40, u64::MAX, (1 << 32) + 1] {
            assert_eq!(
                Trace::from_bytes(&header_only(num_keys)),
                Err(emb_workload::TraceError::DomainTooLarge { num_keys })
            );
        }
        // Addressable, so it decodes — and the replay declines to lay
        // tables over it, under every policy.
        for num_keys in [MAX_REPLAY_KEYS + 1, 1 << 31, 1 << 32] {
            let trace = Trace::from_bytes(&header_only(num_keys)).expect("decodes");
            for policy in [SystemKind::UGache, SystemKind::Hps, SystemKind::WholeGraph] {
                let err = replay_trace(&trace, policy, None).unwrap_err();
                assert!(err.contains("key domain"), "{err}");
            }
        }
        // A domain the registry could have recorded replays, records or not.
        let trace = Trace::from_bytes(&header_only(430_664)).expect("decodes");
        let report = replay_trace(&trace, SystemKind::Hps, None).expect("replays");
        assert_eq!((report.records, report.num_keys), (0, 430_664));
    }

    #[test]
    fn every_system_replays_under_its_lowercase_name() {
        // Small enough that WholeGraph's full partition fits Server C.
        let trace = Trace {
            seed: 3,
            num_gpus: 8,
            num_keys: 256,
            scenario: "x".to_string(),
            records: (0..2u32)
                .map(|r| (0..8u32).map(|g| vec![g, 8 + g + r, 100 + 3 * g]).collect())
                .collect(),
        };
        for kind in SystemKind::ALL {
            let report = replay_trace(&trace, kind, None)
                .unwrap_or_else(|e| panic!("{} does not replay: {e}", kind.name()));
            let named = SystemKind::ALL
                .into_iter()
                .find(|&k| policy_name(k) == report.policy);
            assert_eq!(named, Some(kind), "policy `{}`", report.policy);
            assert_eq!(report.platform, "server_c");
        }
    }

    #[test]
    fn unmatched_gpu_count_requires_explicit_platform() {
        let t = Trace {
            seed: 1,
            num_gpus: 3,
            num_keys: 10,
            scenario: "x".to_string(),
            records: vec![vec![vec![1], vec![2], vec![3]]],
        };
        let err = replay_trace(&t, SystemKind::UGache, None).unwrap_err();
        assert!(err.contains("--platform"), "{err}");
    }
}
