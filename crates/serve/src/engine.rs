//! The serving engine: drives a [`UGache`] through micro-batched
//! request traffic and accounts per-request latency on the virtual
//! clock.

use crate::batch::next_admission;
use crate::clients::ClientPopulation;
use crate::{PoissonArrivals, ServeConfig};
use emb_telemetry::{Counter, Fields, Histogram};
use emb_util::stats::percentile;
use emb_util::{seed_rng, split_seed, SimTime};
use gpu_platform::Location;
use ugache::UGache;

/// Seed-split label for each load point's arrival process.
const ARRIVAL_STREAM: u64 = 0xA22100;
/// Seed-split label for each load point's user-pick stream.
const USER_PICK_STREAM: u64 = 0x05E200;
/// Seed-split label for the capacity probe's user-pick stream.
const CAPACITY_STREAM: u64 = 0xCA9AC1;

/// The engine's metrics (names in EXPERIMENTS.md).
static LATENCY_NS: Histogram = Histogram::new("serve.latency_ns");
static QUEUE_MS: Histogram = Histogram::new("serve.queue_ms");
static BATCH_SIZE: Histogram = Histogram::new("serve.batch_size");
static REQUESTS: Counter = Counter::new("serve.requests");
static BATCHES: Counter = Counter::new("serve.batches");
/// Extracted keys per tier: local, remote, host.
static TIER_KEYS: [Counter; 3] = [
    Counter::new("serve.keys.local"),
    Counter::new("serve.keys.remote"),
    Counter::new("serve.keys.host"),
];

/// Throughput and latency summary of one offered-load level.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct LoadSample {
    /// Offered load (requests per second of virtual time).
    pub offered_rps: f64,
    /// Completed requests over the span from first arrival to last
    /// completion.
    pub achieved_rps: f64,
    /// Requests served.
    pub requests: u64,
    /// Extraction batches dispatched.
    pub batches: u64,
    /// Mean requests coalesced per batch.
    pub mean_batch: f64,
    /// Median request latency (ms of virtual time).
    pub p50_ms: f64,
    /// 99th-percentile request latency (ms).
    pub p99_ms: f64,
    /// 99.9th-percentile request latency (ms).
    pub p999_ms: f64,
    /// Worst request latency (ms).
    pub max_ms: f64,
    /// Mean time spent waiting for the server to free up (ms).
    pub mean_queue_ms: f64,
    /// Mean time spent waiting for the batch to fill or time out (ms).
    pub mean_batch_wait_ms: f64,
    /// Mean extraction time per request (ms).
    pub mean_extract_ms: f64,
    /// Fraction of extracted keys served from the local GPU arena.
    pub local_frac: f64,
    /// Fraction served from remote GPU arenas.
    pub remote_frac: f64,
    /// Fraction served from the host table.
    pub host_frac: f64,
}

/// Latency percentiles of a set of requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// 99.9th percentile (ms).
    pub p999_ms: f64,
    /// Maximum (ms).
    pub max_ms: f64,
    /// Mean (ms).
    pub mean_ms: f64,
}

/// Summarizes nanosecond latencies into p50/p99/p999/max/mean
/// milliseconds via the exact nearest-rank estimator
/// ([`emb_util::stats::percentile`]).
///
/// Returns zeros for an empty input.
pub fn summarize_latencies(latencies_ns: &[u64]) -> LatencySummary {
    let ms: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let pct = |p: f64| percentile(&ms, p).unwrap_or(0.0);
    LatencySummary {
        p50_ms: pct(50.0),
        p99_ms: pct(99.0),
        p999_ms: pct(99.9),
        max_ms: pct(100.0),
        mean_ms: if ms.is_empty() {
            0.0
        } else {
            ms.iter().sum::<f64>() / ms.len() as f64
        },
    }
}

/// Builds the correlation id for request `index` of load `point`:
/// `point << 32 | index`.
///
/// Every telemetry record the engine emits for one request — the
/// `serve.request` event, the `serve.latency_ns` exemplars, and the
/// enclosing batch span's `first_req`/`last_req` fields — carries this
/// id, so a tail observation links back to its full lifecycle.
pub fn req_id(point: u64, index: usize) -> emb_telemetry::ReqId {
    emb_telemetry::ReqId((point << 32) | index as u64)
}

/// Widest digit of the coalescer's radix passes: a batch's keys are
/// sorted in at most three passes of at most 2^11 buckets.
const RADIX_BITS: u32 = 11;

/// Coalesces the admitted requests' keys into per-GPU shards, each key to
/// its [`home_gpu`](gpu_platform::home_gpu), ascending and without
/// duplicates like every other batch the cache sees.
///
/// All of a batch's keys are sorted at once by a least-significant-digit
/// radix sort over the bits they use (two passes of 10 bits for keys
/// below 2^20), and one pass over the sorted keys then sends each
/// distinct key to its GPU: a shard receives its keys in ascending order,
/// so it needs no sort of its own. The buffers are reused from batch to
/// batch, so a load point's batches share one set of allocations.
#[derive(Default)]
struct Coalescer {
    /// The batch's keys; sorted after [`Coalescer::sort`].
    keys: Vec<u32>,
    /// The other half of each pass's scatter.
    spare: Vec<u32>,
    /// One digit histogram per pass, then its scatter offsets.
    counts: Vec<u32>,
}

impl Coalescer {
    /// Refills `shards` with the keys of `requests`, coalesced.
    fn shard(&mut self, requests: &[Vec<u32>], shards: &mut [Vec<u32>]) {
        self.keys.clear();
        self.keys.reserve(requests.iter().map(Vec::len).sum());
        for req_keys in requests {
            self.keys.extend_from_slice(req_keys);
        }
        self.sort();
        // Room for every key in every shard: a shard grows at most once a
        // batch instead of once per doubling.
        for shard in shards.iter_mut() {
            shard.clear();
            shard.reserve(self.keys.len());
        }
        // `k % G` on `u32` is `home_gpu(k, G)` without a 64-bit division.
        let num_gpus = u32::try_from(shards.len()).expect("fewer than 2^32 GPUs");
        let mut last = None;
        for &k in &self.keys {
            if last != Some(k) {
                shards[(k % num_gpus) as usize].push(k);
                last = Some(k);
            }
        }
    }

    /// Sorts `keys` ascending: one pass per digit of the bits any key
    /// uses, skipping a pass whose digit every key shares.
    fn sort(&mut self) {
        let used = self.keys.iter().fold(0, |any, &k| any | k);
        let bits = u32::BITS - used.leading_zeros();
        let passes = bits.div_ceil(RADIX_BITS);
        if passes == 0 {
            return; // no keys, or every key is 0
        }
        let width = bits.div_ceil(passes);
        let (buckets, mask) = (1 << width, (1u32 << width) - 1);
        self.counts.clear();
        self.counts.resize(passes as usize * buckets, 0);
        match passes {
            1 => histogram::<1>(&self.keys, width, &mut self.counts),
            2 => histogram::<2>(&self.keys, width, &mut self.counts),
            _ => histogram::<3>(&self.keys, width, &mut self.counts),
        }
        let n = self.keys.len();
        self.spare.resize(n, 0);
        for (pass, counts) in self.counts.chunks_exact_mut(buckets).enumerate() {
            let shift = pass as u32 * width;
            let digit = |k: u32| ((k >> shift) & mask) as usize;
            if counts[digit(self.keys[0])] as usize == n {
                continue;
            }
            let mut offset = 0;
            for count in counts.iter_mut() {
                (*count, offset) = (offset, offset + *count);
            }
            for &k in &self.keys {
                let slot = &mut counts[digit(k)];
                self.spare[*slot as usize] = k;
                *slot += 1;
            }
            std::mem::swap(&mut self.keys, &mut self.spare);
        }
    }
}

/// Counts the digits of all `PASSES` passes in one sweep over `keys`,
/// pass `p`'s histogram at `counts[p << width..]`.
fn histogram<const PASSES: usize>(keys: &[u32], width: u32, counts: &mut [u32]) {
    let mask = (1u32 << width) - 1;
    for &k in keys {
        for pass in 0..PASSES {
            let digit = (k >> (pass as u32 * width)) & mask;
            counts[(pass << width) + digit as usize] += 1;
        }
    }
}

/// Runs one coalesced extraction and returns `(makespan, local, remote,
/// host)` where the last three are extracted-key counts per tier.
fn extract_batch(u: &mut UGache, shards: &[Vec<u32>], entry_bytes: usize) -> (SimTime, [f64; 3]) {
    let r = u.process_iteration(shards);
    let mut tiers = [0.0f64; 3];
    for g in &r.extract.per_gpu {
        for lu in &g.per_src {
            let keys = lu.bytes / entry_bytes as f64;
            match lu.src {
                Location::Gpu(src) if src == g.gpu => tiers[0] += keys,
                Location::Gpu(_) => tiers[1] += keys,
                Location::Host => tiers[2] += keys,
            }
        }
    }
    (r.extract.makespan, tiers)
}

/// Estimates the server's saturation throughput: one full
/// `max_batch`-request extraction is simulated and the capacity is
/// `max_batch / makespan`. The harness sweeps offered load as multiples
/// of this estimate.
pub fn estimate_capacity_rps(
    u: &mut UGache,
    cfg: &ServeConfig,
    clients: &mut ClientPopulation,
) -> f64 {
    let mut rng = seed_rng(split_seed(cfg.seed, CAPACITY_STREAM));
    let requests: Vec<Vec<u32>> = (0..cfg.max_batch)
        .map(|_| clients.next_request(&mut rng).keys)
        .collect();
    let mut shards = vec![Vec::new(); u.platform().num_gpus()];
    Coalescer::default().shard(&requests, &mut shards);
    let (makespan, _) = extract_batch(u, &shards, cfg.entry_bytes);
    let capacity = cfg.max_batch as f64 / makespan.as_secs_f64().max(1e-12);
    emb_telemetry::event("serve.capacity", || {
        Fields::new(
            &["capacity_rps", "probe_makespan_secs"],
            &[capacity.into(), makespan.as_secs_f64().into()],
        )
    });
    capacity
}

/// Draws the `cfg.requests` per-request key lists that
/// [`run_load_point`] would serve at load point `point`.
///
/// This is the record/replay seam: recording a serving trace captures
/// exactly this stream, and [`run_load_point_with_keys`] consumes it
/// (or a decoded trace) without drawing any randomness of its own. The
/// draws are prefix-stable — requesting fewer keys yields a prefix of
/// the longer stream.
pub fn draw_request_keys(
    cfg: &ServeConfig,
    clients: &mut ClientPopulation,
    point: u64,
) -> Vec<Vec<u32>> {
    let mut user_rng = seed_rng(split_seed(cfg.seed, USER_PICK_STREAM ^ point));
    (0..cfg.requests)
        .map(|_| clients.next_request(&mut user_rng).keys)
        .collect()
}

/// Serves `cfg.requests` requests at `offered_rps` through `u` and
/// summarizes throughput and latency.
///
/// `point` labels this load level's seed-split streams, so every level
/// of a sweep draws independent, reproducible arrivals and users.
/// Equivalent to [`draw_request_keys`] followed by
/// [`run_load_point_with_keys`].
///
/// Per request, latency decomposes as queueing (arrival until the batch
/// starts forming) + batching (until dispatch) + extraction (the
/// coalesced multi-GPU extraction's makespan), all in exact nanosecond
/// arithmetic on the simulated clock. The engine advances `u`'s virtual
/// clock across idle gaps so the telemetry scope timeline mirrors
/// serving time, records one `serve/batches` span per dispatched batch,
/// and emits a `serve.load_point` summary event.
///
/// Each request is tagged with a correlation id ([`req_id`]) that links
/// its `serve.request` decomposition event, its `serve.latency_ns`
/// exemplar context, and its batch's span fields;
/// `queue_ns + batch_wait_ns + extract_ns == latency_ns` holds exactly
/// for every request.
///
/// # Panics
///
/// Panics if `cfg.max_batch` is zero or a drawn key falls outside the
/// served table (a `cfg.num_keys` / cache-size mismatch).
pub fn run_load_point(
    u: &mut UGache,
    cfg: &ServeConfig,
    clients: &mut ClientPopulation,
    point: u64,
    offered_rps: f64,
) -> LoadSample {
    let request_keys = draw_request_keys(cfg, clients, point);
    run_load_point_with_keys(u, cfg, point, offered_rps, &request_keys)
}

/// Serves the given pre-drawn request key lists at `offered_rps`.
///
/// The request count is `request_keys.len()` (the arrival process draws
/// exactly that many arrivals), so replaying a recorded trace serves
/// exactly the recorded requests. With keys from [`draw_request_keys`]
/// at the same `point`, this is byte-for-byte [`run_load_point`].
///
/// # Panics
///
/// Panics if `cfg.max_batch` is zero or a key falls outside the served
/// table (a `cfg.num_keys` / cache-size mismatch).
pub fn run_load_point_with_keys(
    u: &mut UGache,
    cfg: &ServeConfig,
    point: u64,
    offered_rps: f64,
    request_keys: &[Vec<u32>],
) -> LoadSample {
    let mut shards = vec![Vec::new(); u.platform().num_gpus()];
    let mut coalescer = Coalescer::default();
    let mut arrivals_rng =
        PoissonArrivals::new(split_seed(cfg.seed, ARRIVAL_STREAM ^ point), offered_rps);
    let arrivals = arrivals_rng.take(request_keys.len());

    let mut next = 0usize;
    let mut free = SimTime::ZERO;
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(request_keys.len());
    let mut queue_ns_total = 0u64;
    let mut batch_wait_ns_total = 0u64;
    let mut extract_ns_total = 0u64;
    let mut batches = 0u64;
    let mut tier_keys = [0.0f64; 3];
    let mut last_completion = SimTime::ZERO;

    while let Some(adm) = next_admission(&arrivals, next, free, cfg.max_batch, cfg.batch_window) {
        let members = next..next + adm.count;
        coalescer.shard(&request_keys[members.clone()], &mut shards);
        let coalesced: usize = shards.iter().map(Vec::len).sum();
        // Keep the telemetry scope clock aligned with serving time: the
        // gap between the previous completion and this dispatch is idle.
        u.advance_clock(adm.dispatch.saturating_sub(free).as_secs_f64());
        let span_base = emb_telemetry::clock_ns();
        let (makespan, tiers) = extract_batch(u, &shards, cfg.entry_bytes);
        emb_telemetry::span(
            "serve/batches",
            "batch",
            span_base,
            emb_telemetry::clock_ns(),
            || {
                Fields::new(
                    &["requests", "coalesced_keys", "first_req", "last_req"],
                    &[
                        (adm.count as u64).into(),
                        (coalesced as u64).into(),
                        req_id(point, next).into(),
                        req_id(point, next + adm.count - 1).into(),
                    ],
                )
            },
        );
        let completion = adm.dispatch + makespan;
        for i in members {
            let arrival = arrivals[i];
            let queue = adm.start.saturating_sub(arrival);
            let batch_wait = adm.dispatch.saturating_sub(arrival.max(adm.start));
            let latency = (completion.saturating_sub(arrival)).as_nanos();
            queue_ns_total += queue.as_nanos();
            batch_wait_ns_total += batch_wait.as_nanos();
            extract_ns_total += makespan.as_nanos();
            latencies_ns.push(latency);
            let req = req_id(point, i);
            // Context the tail-forensics report (`repro explain-tail`)
            // reconstructs from: the exact-ns decomposition (the three
            // components sum to `latency_ns` by construction) plus the
            // batch's shape and per-tier key counts. Built lazily — the
            // closure only runs when the observation ranks in the
            // histogram's top-K.
            let exemplar_fields = || {
                vec![
                    ("point".into(), emb_telemetry::EventValue::U64(point)),
                    (
                        "offered_rps".into(),
                        emb_telemetry::EventValue::F64(offered_rps),
                    ),
                    (
                        "queue_ns".into(),
                        emb_telemetry::EventValue::U64(queue.as_nanos()),
                    ),
                    (
                        "batch_wait_ns".into(),
                        emb_telemetry::EventValue::U64(batch_wait.as_nanos()),
                    ),
                    (
                        "extract_ns".into(),
                        emb_telemetry::EventValue::U64(makespan.as_nanos()),
                    ),
                    ("latency_ns".into(), emb_telemetry::EventValue::U64(latency)),
                    (
                        "batch_requests".into(),
                        emb_telemetry::EventValue::U64(adm.count as u64),
                    ),
                    (
                        "batch_keys_local".into(),
                        emb_telemetry::EventValue::F64(tiers[0]),
                    ),
                    (
                        "batch_keys_remote".into(),
                        emb_telemetry::EventValue::F64(tiers[1]),
                    ),
                    (
                        "batch_keys_host".into(),
                        emb_telemetry::EventValue::F64(tiers[2]),
                    ),
                ]
            };
            LATENCY_NS.observe_with_exemplar(latency as f64, req, exemplar_fields);
            QUEUE_MS.observe(queue.as_nanos() as f64 / 1e6);
            emb_telemetry::event("serve.request", || {
                Fields::new(
                    &[
                        "req",
                        "queue_ns",
                        "batch_wait_ns",
                        "extract_ns",
                        "latency_ns",
                    ],
                    &[
                        req.into(),
                        queue.as_nanos().into(),
                        batch_wait.as_nanos().into(),
                        makespan.as_nanos().into(),
                        latency.into(),
                    ],
                )
            });
        }
        REQUESTS.add(adm.count as f64);
        BATCHES.add(1.0);
        BATCH_SIZE.observe(adm.count as f64);
        for t in 0..3 {
            TIER_KEYS[t].add(tiers[t]);
            tier_keys[t] += tiers[t];
        }
        batches += 1;
        free = completion;
        last_completion = completion;
        next += adm.count;
    }

    let served = latencies_ns.len() as u64;
    let span_secs = last_completion
        .saturating_sub(arrivals.first().copied().unwrap_or(SimTime::ZERO))
        .as_secs_f64();
    let achieved_rps = if span_secs > 0.0 {
        served as f64 / span_secs
    } else {
        0.0
    };
    let lat = summarize_latencies(&latencies_ns);
    let per_req_ms = |total_ns: u64| {
        if served == 0 {
            0.0
        } else {
            total_ns as f64 / 1e6 / served as f64
        }
    };
    let total_keys: f64 = tier_keys.iter().sum();
    let frac = |t: usize| {
        if total_keys > 0.0 {
            tier_keys[t] / total_keys
        } else {
            0.0
        }
    };
    let sample = LoadSample {
        offered_rps,
        achieved_rps,
        requests: served,
        batches,
        mean_batch: if batches == 0 {
            0.0
        } else {
            served as f64 / batches as f64
        },
        p50_ms: lat.p50_ms,
        p99_ms: lat.p99_ms,
        p999_ms: lat.p999_ms,
        max_ms: lat.max_ms,
        mean_queue_ms: per_req_ms(queue_ns_total),
        mean_batch_wait_ms: per_req_ms(batch_wait_ns_total),
        mean_extract_ms: per_req_ms(extract_ns_total),
        local_frac: frac(0),
        remote_frac: frac(1),
        host_frac: frac(2),
    };
    emb_telemetry::event("serve.load_point", || {
        Fields::new(
            &[
                "offered_rps",
                "achieved_rps",
                "requests",
                "batches",
                "p50_ms",
                "p99_ms",
                "p999_ms",
            ],
            &[
                sample.offered_rps.into(),
                sample.achieved_rps.into(),
                sample.requests.into(),
                sample.batches.into(),
                sample.p50_ms.into(),
                sample.p99_ms.into(),
                sample.p999_ms.into(),
            ],
        )
    });
    sample
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_policy::Hotness;
    use emb_cache::HostTable;
    use emb_util::zipf::powerlaw_hotness;
    use gpu_platform::Platform;
    use ugache::{UGache, UGacheConfig};

    const N: usize = 2_000;
    const DIM: usize = 8;

    fn build() -> UGache {
        let platform = Platform::server_a();
        let host = HostTable::procedural(N, DIM);
        let hotness = Hotness::new(powerlaw_hotness(N, 1.1));
        let mut cfg = UGacheConfig::new(DIM * 4, 200.0);
        cfg.solver.blocks.max_blocks = 32;
        cfg.solver.blocks.min_splits = 4;
        UGache::build(platform, host, &hotness, vec![300; 4], cfg).unwrap()
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            seed: 0x5EED,
            num_users: 50_000,
            num_keys: N as u64,
            user_alpha: 1.1,
            keys_per_request: 8,
            entry_bytes: DIM * 4,
            max_batch: 8,
            batch_window: SimTime::from_micros(200),
            requests: 64,
        }
    }

    fn run_once(offered: f64) -> LoadSample {
        let c = cfg();
        let mut u = build();
        let mut clients = ClientPopulation::new(
            c.seed,
            c.num_users,
            c.num_keys,
            c.user_alpha,
            c.keys_per_request,
        );
        run_load_point(&mut u, &c, &mut clients, 0, offered)
    }

    /// The coalescing the engine had before the radix sort: each key to
    /// its home GPU, then a sort and a dedup per GPU.
    fn sort_and_dedup_per_gpu(requests: &[Vec<u32>], num_gpus: usize) -> Vec<Vec<u32>> {
        let mut shards = vec![Vec::new(); num_gpus];
        for &k in requests.iter().flatten() {
            shards[gpu_platform::home_gpu(k as usize, num_gpus)].push(k);
        }
        for shard in &mut shards {
            shard.sort_unstable();
            shard.dedup();
        }
        shards
    }

    /// Coalesces `batches` in turn through one [`Coalescer`], so a batch
    /// also checks what the buffers kept from the one before.
    fn check_coalescing(batches: &[Vec<Vec<u32>>], num_gpus: usize) {
        let mut coalescer = Coalescer::default();
        let mut shards = vec![vec![7]; num_gpus];
        for requests in batches {
            coalescer.shard(requests, &mut shards);
            assert_eq!(
                shards,
                sort_and_dedup_per_gpu(requests, num_gpus),
                "{requests:?}"
            );
        }
    }

    #[test]
    fn coalescing_handles_empty_duplicate_and_extreme_batches() {
        let top = u32::MAX;
        let batches = vec![
            vec![],
            vec![vec![], vec![]],
            vec![vec![0; 9]],
            vec![vec![5, 5], vec![5], vec![5; 30]],
            vec![vec![top, 0, top], vec![0, top]],
            // Keys that share every digit but the top one, then keys that
            // differ only in the lowest.
            vec![vec![top, top >> 1, 1 << 31], vec![0x7FFF_FFFF, 3 << 30]],
            vec![vec![0x1234_5601, 0x1234_5600, 0x1234_5603]],
            // Every bit used: no pass can be skipped.
            vec![vec![top, 0, 0x8000_0001, 0x7FF, 0x003F_F800, 0xFFC0_0000]],
            vec![],
        ];
        for num_gpus in [1, 2, 3, 4, 8] {
            check_coalescing(&batches, num_gpus);
        }
    }

    /// A drawn word as a key of one of four kinds: any of the 2^32, one
    /// of a handful (a batch of duplicates), an extreme, or one below
    /// 2^20 (the served tables' domain).
    fn key_of_kind(word: u64, kind: usize) -> u32 {
        match kind {
            0 => word as u32,
            1 => (word % 5) as u32,
            2 => [0, u32::MAX, 1, u32::MAX - 1][(word % 4) as usize],
            _ => (word % (1 << 20)) as u32,
        }
    }

    proptest::proptest! {
        #[test]
        fn coalescing_equals_a_per_gpu_sort_and_dedup(
            words in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0u64..u64::MAX, 0..40),
                0..20,
            ),
            kinds in proptest::prop::collection::vec(0usize..4, 3),
            gpus in 0usize..3,
        ) {
            // Three batches of the drawn requests, one per drawn key kind.
            let batches: Vec<Vec<Vec<u32>>> = kinds
                .iter()
                .map(|&kind| {
                    words
                        .iter()
                        .map(|req| req.iter().map(|&w| key_of_kind(w, kind)).collect())
                        .collect()
                })
                .collect();
            check_coalescing(&batches, [1, 4, 8][gpus]);
        }
    }

    #[test]
    fn serves_every_request_and_orders_percentiles() {
        let s = run_once(20_000.0);
        assert_eq!(s.requests, 64);
        assert!(s.batches > 0 && s.batches <= 64);
        assert!(s.p50_ms > 0.0);
        assert!(s.p50_ms <= s.p99_ms);
        assert!(s.p99_ms <= s.p999_ms);
        assert!(s.p999_ms <= s.max_ms);
        assert!(s.achieved_rps > 0.0);
        let fracs = s.local_frac + s.remote_frac + s.host_frac;
        assert!((fracs - 1.0).abs() < 1e-9, "tier fractions sum to {fracs}");
    }

    #[test]
    fn identical_runs_are_identical() {
        assert_eq!(run_once(15_000.0), run_once(15_000.0));
    }

    #[test]
    fn request_decomposition_sums_exactly_and_links_by_id() {
        use emb_telemetry::{EventValue, Name};
        fn u64_of(value: Option<EventValue>, name: &str) -> u64 {
            match value {
                Some(EventValue::U64(v)) => v,
                other => panic!("missing u64 field {name}: {other:?}"),
            }
        }
        let field = |fields: &Fields, name: &str| u64_of(fields.get(name), name);
        let context = |fields: &[(Name, EventValue)], name: &str| {
            let value = fields.iter().find(|(k, _)| k == name);
            u64_of(value.map(|&(_, v)| v), name)
        };
        let ((), report) = emb_telemetry::collect(|| {
            run_once(20_000.0);
        });
        // Every per-request event carries an exact decomposition.
        let requests: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.name == "serve.request")
            .collect();
        assert_eq!(requests.len(), 64);
        for (i, e) in requests.iter().enumerate() {
            assert_eq!(field(&e.fields, "req"), i as u64, "ids are point<<32|i");
            assert_eq!(
                field(&e.fields, "queue_ns")
                    + field(&e.fields, "batch_wait_ns")
                    + field(&e.fields, "extract_ns"),
                field(&e.fields, "latency_ns"),
                "request {i}: components must sum to latency"
            );
        }
        // The ns histogram's exemplars are the slowest requests, and their
        // context repeats the identity with value == latency.
        let ns = report
            .metrics
            .exemplars
            .iter()
            .find(|(n, _)| n == "serve.latency_ns")
            .map(|(_, l)| l)
            .expect("latency exemplars recorded");
        assert_eq!(ns.len(), emb_telemetry::EXEMPLAR_K);
        let fastest_exemplar = ns.iter().map(|x| x.value).fold(f64::INFINITY, f64::min);
        for e in &requests {
            if !ns.iter().any(|x| x.req == field(&e.fields, "req")) {
                assert!(field(&e.fields, "latency_ns") as f64 <= fastest_exemplar);
            }
        }
        for x in ns {
            assert_eq!(x.value, context(&x.fields, "latency_ns") as f64);
            assert_eq!(
                context(&x.fields, "queue_ns")
                    + context(&x.fields, "batch_wait_ns")
                    + context(&x.fields, "extract_ns"),
                context(&x.fields, "latency_ns")
            );
        }
        // Batch spans bracket their members' ids.
        let batches: Vec<_> = report
            .spans
            .iter()
            .filter(|s| s.track == "serve/batches")
            .collect();
        assert!(!batches.is_empty());
        let mut expect = 0u64;
        for b in &batches {
            assert_eq!(field(&b.fields, "first_req"), expect);
            expect = field(&b.fields, "last_req") + 1;
        }
        assert_eq!(expect, 64, "spans cover every request exactly once");
    }

    #[test]
    fn overload_queues_longer_than_light_load() {
        let c = cfg();
        let mut u = build();
        let mut clients = ClientPopulation::new(
            c.seed,
            c.num_users,
            c.num_keys,
            c.user_alpha,
            c.keys_per_request,
        );
        let capacity = estimate_capacity_rps(&mut u, &c, &mut clients);
        assert!(capacity > 0.0);
        let light = run_load_point(&mut u, &c, &mut clients, 0, capacity * 0.2);
        let heavy = run_load_point(&mut u, &c, &mut clients, 1, capacity * 3.0);
        // Under light load the batching window dominates latency, so the
        // discriminating signal of overload is queueing delay (and fuller
        // batches), not the raw percentile.
        assert!(
            heavy.mean_queue_ms > light.mean_queue_ms,
            "overload queue {} vs light queue {}",
            heavy.mean_queue_ms,
            light.mean_queue_ms
        );
        assert!(heavy.mean_batch >= light.mean_batch);
        assert!(heavy.achieved_rps < capacity * 3.0);
    }
}
