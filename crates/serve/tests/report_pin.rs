//! Pins everything one small served load point records under a telemetry
//! scope to a hash: every event and span row, field by field through the
//! public `Fields` iterator, every counter, gauge, histogram and exemplar,
//! the scope clock and the returned `LoadSample`. Each `f64` is hashed by
//! its bits, so a refactor of the coalescing or of the recording path that
//! moves one bit of a report fails here, not only in a byte diff of
//! `repro`'s traces.

use cache_policy::Hotness;
use emb_cache::HostTable;
use emb_serve::{draw_request_keys, run_load_point_with_keys, ClientPopulation, ServeConfig};
use emb_telemetry::{EventValue, Fields, Name, Report};
use emb_util::zipf::powerlaw_hotness;
use emb_util::SimTime;
use gpu_platform::Platform;
use test_support::{fnv1a, FNV_OFFSET};
use ugache::{UGache, UGacheConfig};

/// The hash recorded when the engine still coalesced with a per-GPU
/// `sort_unstable` + `dedup` and every metric call hashed its name.
const REPORT_HASH: u64 = 0x2c12_8c34_c952_cff5;

/// FNV-1a over words and length-prefixed strings.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        self.0 = fnv1a(self.0, x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.0 = fnv1a(self.0, s.bytes());
    }

    fn value(&mut self, value: &EventValue) {
        match value {
            EventValue::U64(v) => {
                self.word(0);
                self.word(*v);
            }
            EventValue::F64(v) => {
                self.word(1);
                self.f64(*v);
            }
            EventValue::Str(s) => {
                self.word(2);
                self.str(s);
            }
        }
    }

    fn fields(&mut self, fields: &Fields) {
        self.word(fields.len() as u64);
        for (key, value) in fields {
            self.str(&key);
            self.value(&value);
        }
    }

    fn pairs(&mut self, pairs: &[(Name, EventValue)]) {
        self.word(pairs.len() as u64);
        for (key, value) in pairs {
            self.str(key);
            self.value(value);
        }
    }
}

fn report_hash(report: &Report) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    h.word(report.events.len() as u64);
    for e in &report.events {
        h.word(e.seq);
        h.str(&e.name);
        h.fields(&e.fields);
    }
    h.word(report.spans.len() as u64);
    for s in &report.spans {
        h.word(s.seq);
        h.str(&s.track);
        h.str(&s.name);
        h.word(s.start_ns);
        h.word(s.end_ns);
        h.fields(&s.fields);
    }
    let m = &report.metrics;
    for list in [&m.counters, &m.gauges] {
        h.word(list.len() as u64);
        for (name, v) in list {
            h.str(name);
            h.f64(*v);
        }
    }
    h.word(m.histograms.len() as u64);
    for (name, s) in &m.histograms {
        h.str(name);
        h.word(s.count);
        h.f64(s.sum);
        h.f64(s.min);
        h.f64(s.max);
    }
    h.word(m.exemplars.len() as u64);
    for (name, list) in &m.exemplars {
        h.str(name);
        h.word(list.len() as u64);
        for x in list {
            h.f64(x.value);
            h.word(x.req);
            h.pairs(&x.fields);
        }
    }
    h.word(report.clock_ns);
    h.0
}

#[test]
fn a_served_load_point_records_the_pinned_report() {
    const N: usize = 20_000;
    const DIM: usize = 8;
    let platform = Platform::server_a();
    let hotness = Hotness::new(powerlaw_hotness(N, 1.05));
    let mut ucfg = UGacheConfig::new(DIM * 4, 16.0 * 12.0 * 0.7);
    ucfg.solver.blocks.max_blocks = 32;
    ucfg.solver.blocks.min_splits = platform.num_gpus();
    let mut u = UGache::build(
        platform,
        HostTable::procedural(N, DIM),
        &hotness,
        vec![N / 8; 4],
        ucfg,
    )
    .expect("solvable");
    let cfg = ServeConfig {
        seed: 24301,
        num_users: 5_000,
        num_keys: N as u64,
        user_alpha: 1.05,
        keys_per_request: 12,
        entry_bytes: DIM * 4,
        max_batch: 16,
        batch_window: SimTime::from_micros(100),
        requests: 96,
    };
    let mut clients = ClientPopulation::new(
        cfg.seed,
        cfg.num_users,
        cfg.num_keys,
        cfg.user_alpha,
        cfg.keys_per_request,
    );
    let request_keys = draw_request_keys(&cfg, &mut clients, 3);
    let (sample, report) =
        emb_telemetry::collect(|| run_load_point_with_keys(&mut u, &cfg, 3, 1e6, &request_keys));
    assert!(sample.batches > 1 && sample.batches < 96, "{sample:?}");

    let mut h = Fnv(report_hash(&report));
    for x in [
        sample.offered_rps,
        sample.achieved_rps,
        sample.mean_batch,
        sample.p50_ms,
        sample.p99_ms,
        sample.p999_ms,
        sample.max_ms,
        sample.mean_queue_ms,
        sample.mean_batch_wait_ms,
        sample.mean_extract_ms,
        sample.local_frac,
        sample.remote_frac,
        sample.host_frac,
    ] {
        h.f64(x);
    }
    h.word(sample.requests);
    h.word(sample.batches);
    assert_eq!(
        h.0,
        REPORT_HASH,
        "{} events, {} spans, {} counters, {} histograms: a bit of the report moved",
        report.events.len(),
        report.spans.len(),
        report.metrics.counters.len(),
        report.metrics.histograms.len()
    );
}
