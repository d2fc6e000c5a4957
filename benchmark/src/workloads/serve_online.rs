//! `serve_online`: `emb-serve` on Server A under open-loop Poisson
//! arrivals at seven fixed offered rates.
//!
//! Requests are drawn once at set-up; every load point replays them
//! against the simulated clock inside an `emb_telemetry::collect` scope,
//! as `repro serve` runs it. Batches hold at most 512 keys, so per-call
//! fixed cost — admission, telemetry, extractor set-up, the simulator's
//! event loop — is the whole step, and the functional gather is never
//! called. The host side is one closed-loop driver thread; the *arrivals*
//! are open-loop, on the simulated clock, so a rate above capacity grows
//! a backlog and shows in the tail.

use super::{batch_keys, cold_setups, mean, EndToEndValues, RunArgs, SystemSpec, Traced, Untraced};
use crate::check::{bytes_match_keys, request_sums, serve_accounting};
use crate::oplog::OpLog;
use crate::probes::{baseline_speedup, fine_grained_refresh, RefreshProbe};
use crate::shadow::Shadow;
use crate::trace::{Layer, Recorder};
use cache_policy::Hotness;
use emb_serve::{
    draw_request_keys, next_admission, run_load_point_with_keys, summarize_latencies,
    ClientPopulation, LoadSample, PoissonArrivals, ServeConfig,
};
use emb_telemetry::Report;
use emb_util::zipf::powerlaw_hotness;
use emb_util::{split_seed, SimTime};
use gpu_platform::Platform;
use std::time::Instant;
use ugache::{UGache, UGacheConfig};

/// The workload's shape (the `repro serve` configuration at 400 k keys).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Served key domain.
    pub keys: usize,
    /// Simulated users.
    pub users: u64,
    /// Requests per load point.
    pub requests: usize,
}

/// The shape the benchmark runs.
pub const SPEC: Spec = Spec {
    keys: 400_000,
    users: 200_000,
    requests: 16_000,
};

const ALPHA: f64 = 1.05;
const DIM: usize = 32;
const KEYS_PER_REQUEST: usize = 32;
const MAX_BATCH: usize = 16;
const BATCH_WINDOW: SimTime = SimTime::from_micros(250);

/// Offered rates of the ladder, requests per simulated second. Capacity
/// is ~855 k req/s, so the last two overload the server.
pub const RATES: [f64; 7] = [200e3, 400e3, 600e3, 700e3, 800e3, 900e3, 1.2e6];

/// The rate whose p99 is `sim_p99_us`: the highest of the ladder whose
/// tail is not yet queueing. (At 800 k, 94 % of capacity, the p99 of a
/// 32 k-request sample moves by a fifth with the arrival seed; here by
/// a fiftieth.)
const P99_RATE: f64 = 700e3;

/// The latency limit on p99, µs of simulated time.
pub const LATENCY_LIMIT_US: f64 = 250.0;

/// A rate is sustained only if the server completes at least this share
/// of it (otherwise the backlog grows for as long as the load lasts).
const MIN_ACHIEVED_SHARE: f64 = 0.98;

/// Rounds over the ladder at scale 1 (~0.45 s each on the reference
/// box): many short rounds rather than few long ones, so that every load
/// point has a repetition in a quiet phase of the machine.
const ROUNDS: usize = 20;

/// Batches the probes replay. A refresh is solved from what the sampler
/// saw of them, and with much fewer the sampled hot set shares so little
/// with the power law's that every refresh turns the whole cache over.
const PROBE_BATCHES: usize = 512;

/// `emb-serve`'s seed-split label for a load point's arrival process
/// (private there; the traced pass checks the copy against the engine).
const ARRIVAL_STREAM: u64 = 0xA22100;

/// Everything set-up generates.
pub struct Inputs {
    /// Server A, the served table, the clients' own Zipf as hotness.
    pub system: SystemSpec,
    /// Serving configuration.
    pub serve: ServeConfig,
    /// The request key lists every load point replays.
    pub request_keys: Vec<Vec<u32>>,
}

impl Inputs {
    /// Generates the inputs from `seed`.
    pub fn generate(rec: &mut Recorder, seed: u64, spec: &Spec) -> Inputs {
        let platform = Platform::server_a();
        let hotness = Hotness::new(powerlaw_hotness(spec.keys, ALPHA));
        let entry_bytes = DIM * 4;
        // As `repro serve`: dedup discounts the raw draws per batch.
        let accesses = (MAX_BATCH * KEYS_PER_REQUEST) as f64 * 0.7;
        let mut cfg = UGacheConfig::new(entry_bytes, accesses);
        cfg.solver.blocks.max_blocks = 32;
        cfg.solver.blocks.min_splits = platform.num_gpus();
        cfg.sample_stride = 4;
        let cap = (spec.keys / 8).max(64);
        fine_grained_refresh(&mut cfg, cap);
        let serve = ServeConfig {
            seed,
            num_users: spec.users,
            num_keys: spec.keys as u64,
            user_alpha: ALPHA,
            keys_per_request: KEYS_PER_REQUEST,
            entry_bytes,
            max_batch: MAX_BATCH,
            batch_window: BATCH_WINDOW,
            requests: spec.requests,
        };
        let mut clients = ClientPopulation::new(
            seed,
            serve.num_users,
            serve.num_keys,
            serve.user_alpha,
            serve.keys_per_request,
        );
        let request_keys = rec.span("draw_request_keys", Layer::EmbServe, || {
            draw_request_keys(&serve, &mut clients, 0)
        });
        Inputs {
            system: SystemSpec {
                platform,
                num_entries: spec.keys,
                dim: DIM,
                hotness,
                cap,
                cfg,
            },
            serve,
            request_keys,
        }
    }

    /// The first [`PROBE_BATCHES`] full batches, coalesced the way the
    /// engine coalesces them.
    fn probe_batches(&self) -> Vec<Vec<Vec<u32>>> {
        self.request_keys
            .chunks_exact(MAX_BATCH)
            .take(PROBE_BATCHES)
            .map(|requests| shard_keys(requests, self.system.platform.num_gpus()))
            .collect()
    }
}

/// `emb-serve`'s coalescing rule (private there): keys go to GPU
/// `key % num_gpus`, sorted and deduplicated.
fn shard_keys(requests: &[Vec<u32>], num_gpus: usize) -> Vec<Vec<u32>> {
    let mut shards = vec![Vec::new(); num_gpus];
    for &k in requests.iter().flatten() {
        shards[k as usize % num_gpus].push(k);
    }
    for shard in &mut shards {
        shard.sort_unstable();
        shard.dedup();
    }
    shards
}

/// One served load point and what its telemetry scope counted.
#[derive(Debug, Clone, PartialEq)]
struct Point {
    sample: LoadSample,
    extract_secs: f64,
    batches: f64,
    records: usize,
}

fn counter(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Serves one load point under a telemetry scope and checks it.
fn serve_point(u: &mut UGache, inputs: &Inputs, point: usize) -> Result<Point, String> {
    let (sample, report) = emb_telemetry::collect(|| {
        run_load_point_with_keys(
            u,
            &inputs.serve,
            point as u64,
            RATES[point],
            &inputs.request_keys,
        )
    });
    serve_accounting(
        sample.requests,
        inputs.request_keys.len(),
        &request_sums(&report),
    )?;
    Ok(Point {
        sample,
        extract_secs: counter(&report, "ugache.extract_secs"),
        batches: counter(&report, "ugache.iterations"),
        records: report.events.len() + report.spans.len(),
    })
}

fn sustained(s: &LoadSample) -> bool {
    s.p99_ms * 1e3 <= LATENCY_LIMIT_US && s.achieved_rps >= MIN_ACHIEVED_SHARE * s.offered_rps
}

/// The highest rate that meets the latency limit without a growing
/// backlog. Between the last ladder rate that does and the first that
/// does not, the p99 is taken to rise linearly, so the value moves with
/// the tail instead of jumping a whole rung.
pub fn max_sustained_rate(ladder: &[LoadSample]) -> f64 {
    let Some(last) = ladder.iter().rposition(sustained) else {
        return 0.0;
    };
    let pass = &ladder[last];
    let Some(fail) = ladder.get(last + 1) else {
        return pass.offered_rps;
    };
    let (p_pass, p_fail) = (pass.p99_ms * 1e3, fail.p99_ms * 1e3);
    if p_fail <= LATENCY_LIMIT_US {
        // It failed on throughput alone.
        return pass.offered_rps;
    }
    pass.offered_rps
        + (fail.offered_rps - pass.offered_rps) * (LATENCY_LIMIT_US - p_pass) / (p_fail - p_pass)
}

/// The untraced pass.
///
/// # Errors
///
/// Fails only if set-up fails; failed ops are counted, not returned.
pub fn run(args: &RunArgs) -> Result<Untraced, String> {
    let mut spec = SPEC;
    let rounds = args.scaled(ROUNDS, 1);
    if args.scale * (ROUNDS as f64) < 1.0 {
        spec.requests = args.scaled(ROUNDS * SPEC.requests, 1_600);
    }
    let ((inputs, mut u), setup_s) = cold_setups(9, || {
        let inputs = Inputs::generate(&mut Recorder::new(), args.seed, &spec);
        let u = inputs.system.build()?;
        Ok((inputs, u))
    })?;

    let probes = inputs.probe_batches();
    let mut log = OpLog::new();
    let mut probe = RefreshProbe::new(inputs.system.build()?, &probes);
    let mut first_round: Vec<Point> = Vec::new();
    for round in 0..rounds {
        let mut this_round = Vec::new();
        for point in 0..RATES.len() {
            let requests = inputs.request_keys.len() as u64;
            let served = log.run(Some(point as u32), requests, || {
                serve_point(&mut u, &inputs, point)
            });
            this_round.extend(served);
        }
        if round == 0 {
            first_round = this_round;
        } else if this_round != first_round {
            // Identical inputs: every simulated value must repeat exactly.
            log.fail_last(
                RATES.len(),
                "simulated results differ from the first round's",
            );
        }
        probe.keep_pace(&mut log, round + 1, rounds);
    }
    let ops_per_s = log.undisturbed_rate();
    let ladder: Vec<LoadSample> = first_round.iter().map(|p| p.sample.clone()).collect();
    let extract_secs: f64 = first_round.iter().map(|p| p.extract_secs).sum();
    let batches: f64 = first_round.iter().map(|p| p.batches).sum();
    let p99_us = ladder
        .iter()
        .find(|s| s.offered_rps == P99_RATE)
        .map_or(0.0, |s| s.p99_ms * 1e3);

    let entry_bytes = inputs.serve.entry_bytes;
    let mut probe_secs = Vec::new();
    for batch in &probes {
        probe_secs.extend(log.run(None, 1, || {
            let outcome = u.process_iteration(batch).extract;
            bytes_match_keys(&outcome, batch, entry_bytes)?;
            Ok(outcome.makespan.as_secs_f64())
        }));
    }
    let speedup = baseline_speedup(&mut log, &inputs.system, &probes, mean(&probe_secs));
    let refresh = probe.finish();

    let mut notes = vec![format!(
        "{rounds} rounds over {} rates, {} requests each; limit p99 <= {LATENCY_LIMIT_US} us and achieved >= {MIN_ACHIEVED_SHARE} x offered",
        RATES.len(),
        inputs.request_keys.len()
    )];
    notes.push(refresh.note);
    for s in &ladder {
        notes.push(format!(
            "rate {:>9.0} req/s: achieved {:>9.0}  p50 {:>9.1} us  p99 {:>9.1} us  batch {:>4.1}  {}",
            s.offered_rps,
            s.achieved_rps,
            s.p50_ms * 1e3,
            s.p99_ms * 1e3,
            s.mean_batch,
            if sustained(s) { "sustained" } else { "not sustained" }
        ));
    }
    Ok(Untraced {
        values: EndToEndValues {
            setup_s,
            ops_per_s,
            refresh_s: refresh.refresh_s,
            sim_step_us: if batches > 0.0 {
                extract_secs / batches * 1e6
            } else {
                0.0
            },
            sim_p99_us: p99_us,
            sim_max_rate_rps: max_sustained_rate(&ladder),
            sim_refresh_s: refresh.sim_refresh_s,
            sim_speedup_geomean: speedup,
        },
        notes,
        log,
    })
}

/// What the shadow engine measured at one load point.
#[derive(Debug, Clone, PartialEq)]
struct ShadowPoint {
    requests: u64,
    batches: u64,
    p50_ms: f64,
    p99_ms: f64,
    extract_ns: u64,
}

/// `run_load_point_with_keys` rebuilt from `emb-serve`'s public parts
/// around the shadow pipeline; one op span per dispatched batch.
fn shadow_load_point(
    rec: &mut Recorder,
    shadow: &mut Shadow,
    inputs: &Inputs,
    point: usize,
) -> Result<ShadowPoint, String> {
    let cfg = &inputs.serve;
    let gpus = inputs.system.platform.num_gpus();
    let arrivals = rec.span("PoissonArrivals::take", Layer::EmbServe, || {
        PoissonArrivals::new(
            split_seed(cfg.seed, ARRIVAL_STREAM ^ point as u64),
            RATES[point],
        )
        .take(inputs.request_keys.len())
    });
    let mut next = 0;
    let mut free = SimTime::ZERO;
    let mut latencies_ns = Vec::with_capacity(arrivals.len());
    let mut extract_ns = 0u64;
    let mut batches = 0u64;
    let mut checked = Ok(());
    while next < arrivals.len() {
        let op = rec.enter_op();
        let adm = rec
            .span("next_admission", Layer::EmbServe, || {
                next_admission(&arrivals, next, free, cfg.max_batch, cfg.batch_window)
            })
            .expect("requests are pending");
        let members = next..next + adm.count;
        let shards = rec.span("shard_keys", Layer::EmbServe, || {
            shard_keys(&inputs.request_keys[members.clone()], gpus)
        });
        shadow.advance_clock(rec, adm.dispatch.saturating_sub(free).as_secs_f64());
        let step = shadow.process_iteration(rec, &shards);
        let makespan = step.outcome.makespan;
        let completion = adm.dispatch + makespan;
        rec.span("latency_accounting", Layer::EmbServe, || {
            for i in members {
                latencies_ns.push(completion.saturating_sub(arrivals[i]).as_nanos());
                extract_ns += makespan.as_nanos();
            }
        });
        rec.exit(op);
        rec.count("keys", batch_keys(&shards) as f64);
        rec.count("steady.steps", 1.0);
        rec.count("steady.sim_secs", makespan.as_secs_f64());
        shadow.asides(rec, &step);
        checked = checked.and_then(|()| bytes_match_keys(&step.outcome, &shards, cfg.entry_bytes));
        batches += 1;
        free = completion;
        next += adm.count;
    }
    checked?;
    let summary = summarize_latencies(&latencies_ns);
    Ok(ShadowPoint {
        requests: latencies_ns.len() as u64,
        batches,
        p50_ms: summary.p50_ms,
        p99_ms: summary.p99_ms,
        extract_ns,
    })
}

/// The traced pass: one round of the ladder through the shadow engine,
/// each load point then served by the real engine and compared.
///
/// # Errors
///
/// Fails only if set-up fails.
pub fn run_traced(args: &RunArgs) -> Result<Traced, String> {
    let mut spec = SPEC;
    spec.requests = args.scaled(SPEC.requests, 1_600);
    let mut rec = Recorder::new();
    let inputs = Inputs::generate(&mut rec, args.seed, &spec);
    let mut shadow = inputs.system.build_shadow(&mut rec)?;
    let mut u = rec.span("UGache::build", Layer::UGache, || inputs.system.build())?;
    let requests = inputs.request_keys.len();

    let mut log = OpLog::new();
    let mut plain = OpLog::new();
    let mut at_p99_rate = None;
    for (point, &rate) in RATES.iter().enumerate() {
        let real = plain.run(None, requests as u64, || {
            serve_point(&mut u, &inputs, point)
        });
        let mirrored = log.run(None, requests as u64, || {
            let (mirrored, _) =
                emb_telemetry::collect(|| shadow_load_point(&mut rec, &mut shadow, &inputs, point));
            let mirrored = mirrored?;
            let real = real
                .as_ref()
                .ok_or("the real engine failed this load point")?;
            let s = &real.sample;
            let same = mirrored.requests == s.requests
                && mirrored.batches == s.batches
                && mirrored.p50_ms == s.p50_ms
                && mirrored.p99_ms == s.p99_ms
                && mirrored.extract_ns as f64 / 1e6 / requests as f64 == s.mean_extract_ms;
            if !same {
                return Err(format!(
                    "shadow engine {mirrored:?} differs from run_load_point_with_keys {s:?}"
                ));
            }
            Ok(())
        });
        if rate == P99_RATE && mirrored.is_some() {
            at_p99_rate = real;
        }
    }

    let mut extras = vec![("predicted_secs", shadow.predicted_extraction_secs())];
    let batches = rec.total("next_admission").0 as f64;
    let real_secs: f64 = plain.records().iter().map(|r| r.secs).sum();
    let served = (plain.attempted() - plain.failed()) as f64;
    let pipeline_secs = rec.secs("shadow:process_iteration") + rec.secs("Refresher::tick");
    extras.push((
        "emb-serve.draw_us_per_req",
        rec.secs("draw_request_keys") * 1e6 / requests as f64,
    ));
    if batches > 0.0 && served > 0.0 {
        extras.push((
            "emb-serve.admission_us_per_batch",
            rec.secs("next_admission") * 1e6 / batches,
        ));
        extras.push(("emb-serve.run_us_per_req", real_secs * 1e6 / served));
        extras.push(("emb-serve.self_share", 1.0 - pipeline_secs / real_secs));
    }
    if let Some(p) = at_p99_rate {
        let s = &p.sample;
        let parts = s.mean_queue_ms + s.mean_batch_wait_ms + s.mean_extract_ms;
        extras.push(("emb-serve.mean_batch", s.mean_batch));
        extras.push(("emb-serve.queue_share", s.mean_queue_ms / parts));
        extras.push(("emb-serve.batch_wait_share", s.mean_batch_wait_ms / parts));
        extras.push(("emb-serve.extract_share", s.mean_extract_ms / parts));
        extras.push((
            "emb-telemetry.events_per_op",
            p.records as f64 / requests as f64,
        ));

        // The same load point with and without a scope listening.
        let point = RATES
            .iter()
            .position(|&r| r == P99_RATE)
            .expect("on the ladder");
        let start = Instant::now();
        let scoped = serve_point(&mut u, &inputs, point);
        let with_scope = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let bare = run_load_point_with_keys(
            &mut u,
            &inputs.serve,
            point as u64,
            P99_RATE,
            &inputs.request_keys,
        );
        let without_scope = start.elapsed().as_secs_f64();
        if scoped.is_ok_and(|p| p.sample == bare) {
            extras.push(("emb-telemetry.overhead_ratio", with_scope / without_scope));
        } else {
            log.fail_last(1, "a load point's results depend on the telemetry scope");
        }
    }
    Ok(Traced {
        untraced_ops_per_s: plain.overall_rate(),
        extras,
        log,
        rec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(offered: f64, achieved: f64, p99_us: f64) -> LoadSample {
        LoadSample {
            offered_rps: offered,
            achieved_rps: achieved,
            requests: 1,
            batches: 1,
            mean_batch: 1.0,
            p50_ms: 0.0,
            p99_ms: p99_us / 1e3,
            p999_ms: 0.0,
            max_ms: 0.0,
            mean_queue_ms: 0.0,
            mean_batch_wait_ms: 0.0,
            mean_extract_ms: 0.0,
            local_frac: 0.0,
            remote_frac: 0.0,
            host_frac: 0.0,
        }
    }

    #[test]
    fn max_rate_interpolates_the_tail_between_rungs() {
        let ladder = [
            sample(100.0, 100.0, 50.0),
            sample(200.0, 199.0, 150.0),
            sample(300.0, 280.0, 350.0),
            sample(400.0, 280.0, 900.0),
        ];
        // p99 crosses 250 us half-way between 200 and 300 req/s.
        assert_eq!(max_sustained_rate(&ladder), 250.0);
        assert_eq!(max_sustained_rate(&ladder[..2]), 200.0);
        assert_eq!(max_sustained_rate(&ladder[2..]), 0.0);
        // Failing on throughput alone does not extend the rate.
        let starved = [sample(100.0, 100.0, 50.0), sample(200.0, 150.0, 60.0)];
        assert_eq!(max_sustained_rate(&starved), 100.0);
    }

    #[test]
    fn shards_are_sorted_unique_and_by_residue() {
        let shards = shard_keys(&[vec![5, 1, 9, 4], vec![1, 8, 2]], 4);
        assert_eq!(shards, vec![vec![4, 8], vec![1, 5, 9], vec![2], vec![]]);
    }
}
