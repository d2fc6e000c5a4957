//! The live-scope allocation budget: what recording costs *inside* an
//! `emb_telemetry::collect` scope (the disabled path is pinned at zero by
//! `crates/telemetry/tests/no_alloc.rs`).
//!
//! Two claims. Literal-keyed records allocate nothing: an event or span
//! whose names and field keys are literals is one row in the scope's
//! buffer, so a round of them costs only the amortised growth of those
//! buffers (a `Str` label is interned on its first use, then stored as an
//! id). And one
//! `serve_online`-shaped batch — 16 requests of 32 keys coalesced into
//! one extraction on Server A — stays under a pinned allocation count all
//! the way through `run_load_point_with_keys` (35 today; 53 while each
//! shard grew by doubling, 93 while every record carried a heap `Vec` of
//! fields, 706 before names were borrowed, the simulator cached and the
//! shard buffers reused).
//!
//! Lives in its own integration-test binary because of the counting
//! `#[global_allocator]` (`test_support::CountingAlloc`); the counter is
//! per thread, so the two tests do not disturb each other.

use test_support::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn literal_keyed_records_allocate_nothing() {
    use emb_telemetry::{EventValue, Fields, ReqId, EXEMPLAR_K};
    const ROUNDS: usize = 1000;
    let record = |i: u64| {
        emb_telemetry::event("serve.request", || {
            Fields::new(
                &[
                    "req",
                    "queue_ns",
                    "batch_wait_ns",
                    "extract_ns",
                    "latency_ns",
                ],
                &[i.into(), i.into(), 0u64.into(), i.into(), (2 * i).into()],
            )
        });
        emb_telemetry::span("serve/batches", "batch", i, i + 1, || {
            Fields::new(
                &["requests", "coalesced_keys"],
                &[16u64.into(), 512u64.into()],
            )
        });
        let id = emb_telemetry::span_begin("ugache/refresh", "refresh", i);
        emb_telemetry::span_end(id, i + 1, || Fields::new(&["secs"], &[0.5.into()]));
        // Falling values: once the first EXEMPLAR_K are retained, no
        // observation ranks and no context list is built.
        emb_telemetry::observe_with_exemplar("serve.latency_ns", -(i as f64), ReqId(i), || {
            vec![("latency_ns".into(), EventValue::U64(i))]
        });
        emb_telemetry::count("serve.requests", 1.0);
        emb_telemetry::observe("serve.queue_ms", 0.25);
    };
    let label = |i: u64| {
        emb_telemetry::event("memsim.extract", || {
            Fields::new(
                &["gpus", "mode"],
                &[i.into(), EventValue::Str("factored".into())],
            )
        });
    };
    let ((rows, labelled), report) = emb_telemetry::collect(|| {
        // The first records insert the metric names and fill the top-K.
        (0..EXEMPLAR_K as u64).for_each(record);
        let rounds = EXEMPLAR_K as u64..(EXEMPLAR_K + ROUNDS) as u64;
        let rows = allocations(|| rounds.clone().for_each(record)).1;
        (rows, allocations(|| rounds.for_each(label)).1)
    });
    assert_eq!(report.events.len(), EXEMPLAR_K + 2 * ROUNDS);
    // Nothing per round: only the doubling growth of the scope's event
    // and span buffers (~2 log2(ROUNDS) reallocations).
    let growth = 2 * (usize::BITS - ROUNDS.leading_zeros()) as usize + 8;
    assert!(
        rows <= growth,
        "{rows} allocations for {ROUNDS} rounds of literal-keyed records"
    );
    // A `Str` label costs its first use, nothing per row.
    assert!(
        labelled <= growth,
        "{labelled} allocations for {ROUNDS} rows with one label each"
    );
}

#[test]
fn a_served_batch_stays_within_its_allocation_budget() {
    use cache_policy::Hotness;
    use emb_cache::HostTable;
    use emb_serve::{draw_request_keys, run_load_point_with_keys, ClientPopulation, ServeConfig};
    use emb_util::zipf::powerlaw_hotness;
    use emb_util::SimTime;
    use gpu_platform::Platform;
    use ugache::{UGache, UGacheConfig};

    /// Allocations of one 16-request load point under a live scope.
    const BUDGET: usize = 40;

    // `serve_online`'s shape at a tenth of its key domain.
    let (keys, dim, keys_per_request, max_batch) = (40_000usize, 32usize, 32usize, 16usize);
    let platform = Platform::server_a();
    let hotness = Hotness::new(powerlaw_hotness(keys, 1.05));
    let mut ucfg = UGacheConfig::new(dim * 4, (max_batch * keys_per_request) as f64 * 0.7);
    ucfg.solver.blocks.max_blocks = 32;
    ucfg.solver.blocks.min_splits = platform.num_gpus();
    let mut u = UGache::build(
        platform,
        HostTable::procedural(keys, dim),
        &hotness,
        vec![keys / 8; 4],
        ucfg,
    )
    .expect("solvable");
    let cfg = ServeConfig {
        seed: 24301,
        num_users: 20_000,
        num_keys: keys as u64,
        user_alpha: 1.05,
        keys_per_request,
        entry_bytes: dim * 4,
        max_batch,
        batch_window: SimTime::from_micros(250),
        requests: max_batch,
    };
    let mut clients = ClientPopulation::new(
        cfg.seed,
        cfg.num_users,
        cfg.num_keys,
        cfg.user_alpha,
        cfg.keys_per_request,
    );
    let request_keys = draw_request_keys(&cfg, &mut clients, 0);
    // Far above capacity, so all 16 requests coalesce into one batch.
    let offered_rps = 1e9;

    let ((allocations, batches), _report) = emb_telemetry::collect(|| {
        // The first load point inserts the scope's metric names and warms
        // the simulator's name table and scratch; the budget is for the
        // steady state `repro serve` and `serve_online` run in.
        run_load_point_with_keys(&mut u, &cfg, 0, offered_rps, &request_keys);
        let (point, allocations) =
            allocations(|| run_load_point_with_keys(&mut u, &cfg, 1, offered_rps, &request_keys));
        (allocations, point.batches)
    });
    assert_eq!(batches, 1, "the load point is one coalesced batch");
    assert!(
        allocations <= BUDGET,
        "{allocations} allocations for one served batch (budget {BUDGET})"
    );
}
