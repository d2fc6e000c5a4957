//! Differential tests: the engine against an independent event loop.
//!
//! [`oracle`] below is a second simulator written from the documented
//! model alone — the dispatch discipline of `DispatchMode`, the chunk
//! sizing rule and DESIGN.md's transfer function — and it shares no code
//! with the engine: no state construction, no dispatch and no result
//! assembly. It walks every core at every event, for clarity rather than
//! speed, and checks the model's invariants as it goes: no flow above its
//! path cap or its cores' per-core caps, no capped source above its
//! outbound cap, and every flow's bytes conserved.
//!
//! The engine must give the oracle's bytes per link and per tier and its
//! chunk count per `(gpu, source)` exactly, and its times within 1e-9
//! relative. The engine's bit-identity with its own history is pinned
//! elsewhere, by `baselines/quick` and the trace goldens.

use emb_util::{split_seed, SimTime};
use gpu_memsim::{
    simulate, simulate_traced, DispatchMode, ExtractionResult, ExtractionTrace, GpuWork, SimConfig,
    Simulator, SourceDemand,
};
use gpu_platform::{
    DedicationConfig, Interconnect, Location, PathKind, PathSpec, Platform, Profile,
};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;

fn cfg() -> SimConfig {
    SimConfig {
        launch_overhead: SimTime::from_micros(15),
        ..SimConfig::default()
    }
}

/// The independent event loop.
mod oracle {
    use super::*;

    /// The largest chunk a core takes at once.
    const CHUNK_BYTES: f64 = 256.0 * 1024.0;
    /// The smallest chunk a demand is cut into to occupy more cores.
    const MIN_CHUNK_BYTES: f64 = 8.0 * 1024.0;

    /// The bytes one destination GPU pulls from one source.
    pub struct Flow {
        pub gpu: usize,
        pub src: Location,
        pub path: PathSpec,
        pub total: f64,
        pub chunk: f64,
        /// Chunks no core has taken yet.
        pub queued: u64,
        /// Chunks completed.
        pub chunks: u64,
        pub moved: f64,
        /// Seconds during which at least one core read this flow.
        pub busy: f64,
    }

    struct Core {
        gpu: usize,
        idx: usize,
        /// Factored: the flow this core is dedicated to.
        dedicated: Option<usize>,
        /// RandomShared: the position of this core's next token.
        cursor: usize,
        /// The flow and the remaining bytes of the chunk in hand.
        job: Option<(usize, f64)>,
        start: f64,
    }

    /// Everything the oracle reports of one call.
    pub struct Outcome {
        /// Every flow, by destination GPU, then first appearance.
        pub flows: Vec<Flow>,
        /// Per GPU of the platform: extraction time (zero without work).
        pub time: Vec<SimTime>,
        /// Per GPU of the platform: core-busy seconds.
        pub core_busy: Vec<f64>,
        /// `(gpu, core, src, start, end)` per completed chunk, in
        /// completion order (ascending core within one instant).
        pub events: Vec<(usize, usize, Location, f64, f64)>,
    }

    /// DESIGN.md's transfer function: linear in the readers up to the
    /// path's tolerance `bw / per_core`, then degrading towards
    /// `bw · (1 − penalty)`.
    pub fn achieved(bw: f64, per_core: f64, readers: usize, penalty: f64) -> f64 {
        let wanted = readers as f64 * per_core;
        if wanted <= bw {
            return wanted;
        }
        let tolerance = bw / per_core;
        bw * (1.0 - penalty * (1.0 - tolerance / readers as f64))
    }

    /// Relative slack for the cap invariants: a scaled rate may round
    /// one ulp past its cap.
    const SLACK: f64 = 1e-12;

    pub fn run(
        platform: &Platform,
        cfg: &SimConfig,
        works: &[GpuWork],
        mode: DispatchMode,
    ) -> Outcome {
        let g = platform.num_gpus();
        let penalty = cfg.congestion.penalty;

        // Demands merged per (gpu, source), in order of first appearance.
        let mut merged: Vec<Vec<(Location, f64)>> = vec![Vec::new(); g];
        for w in works {
            for d in w.demands.iter().filter(|d| d.bytes > 0.0) {
                match merged[w.gpu].iter_mut().find(|(s, _)| *s == d.src) {
                    Some((_, b)) => *b += d.bytes,
                    None => merged[w.gpu].push((d.src, d.bytes)),
                }
            }
        }
        let mut flows: Vec<Flow> = Vec::new();
        for (gpu, demands) in merged.iter().enumerate() {
            let sm = platform.gpus[gpu].sm_count as u64;
            for &(src, bytes) in demands {
                let by_size = ((bytes / CHUNK_BYTES).ceil() as u64).max(1);
                let by_floor = ((bytes / MIN_CHUNK_BYTES).ceil() as u64).max(1);
                let chunks = by_size.max(by_floor.min(2 * sm));
                flows.push(Flow {
                    gpu,
                    src,
                    path: platform.path(gpu, src),
                    total: bytes,
                    chunk: bytes / chunks as f64,
                    queued: chunks,
                    chunks: 0,
                    moved: 0.0,
                    busy: 0.0,
                });
            }
        }

        // Per GPU: RandomShared's shuffled tokens, one per chunk, or
        // Factored's dedicated cores, then every SM as a core.
        let mut tokens: Vec<Vec<usize>> = vec![Vec::new(); g];
        let mut local: Vec<Option<usize>> = vec![None; g];
        let mut cores: Vec<Core> = Vec::new();
        for gpu in 0..g {
            let sm = platform.gpus[gpu].sm_count;
            let mine: Vec<usize> = (0..flows.len()).filter(|&f| flows[f].gpu == gpu).collect();
            let mut dedication: Vec<(usize, usize)> = Vec::new();
            match mode {
                DispatchMode::RandomShared { seed } => {
                    for &f in &mine {
                        for _ in 0..flows[f].queued {
                            tokens[gpu].push(f);
                        }
                    }
                    tokens[gpu].shuffle(&mut emb_util::seed_rng(split_seed(seed, gpu as u64)));
                }
                DispatchMode::Factored { dedication: config } => {
                    let profile = Profile::new(platform, config);
                    local[gpu] = mine
                        .iter()
                        .copied()
                        .find(|&f| flows[f].src == Location::Gpu(gpu));
                    for &f in mine.iter().filter(|&&f| Some(f) != local[gpu]) {
                        dedication.push((f, profile.cores[gpu][profile.loc_index(flows[f].src)]));
                    }
                    dedicate(&mut dedication, sm);
                }
            }
            // Cores are handed out to the dedications in order; the rest
            // are undedicated and run local padding only.
            let mut owner = dedication
                .iter()
                .flat_map(|&(f, n)| std::iter::repeat_n(f, n));
            for idx in 0..sm {
                cores.push(Core {
                    gpu,
                    idx,
                    dedicated: owner.next(),
                    cursor: idx,
                    job: None,
                    start: 0.0,
                });
            }
        }

        // The next chunk of a core under its GPU's discipline.
        let next = |core: &mut Core, flows: &mut [Flow]| -> Option<(usize, f64)> {
            let f = match mode {
                DispatchMode::RandomShared { .. } => {
                    let f = *tokens[core.gpu].get(core.cursor)?;
                    core.cursor += platform.gpus[core.gpu].sm_count;
                    f
                }
                DispatchMode::Factored { .. } => match core.dedicated {
                    Some(f) if flows[f].queued > 0 => f,
                    _ => local[core.gpu].filter(|&f| flows[f].queued > 0)?,
                },
            };
            assert!(flows[f].queued > 0, "a token names a drained flow");
            flows[f].queued -= 1;
            Some((f, flows[f].chunk))
        };
        for core in cores.iter_mut() {
            core.job = next(core, &mut flows);
        }

        // Capped sources: the host always, a GPU behind a switch.
        let switched = matches!(platform.interconnect, Interconnect::Switch { .. });
        let capped: Vec<Location> = (0..g)
            .map(Location::Gpu)
            .filter(|_| switched)
            .chain([Location::Host])
            .collect();

        let mut finish = vec![0.0f64; g];
        let mut core_busy = vec![0.0f64; g];
        let mut events = Vec::new();
        let mut now = 0.0f64;
        loop {
            let mut readers = vec![0usize; flows.len()];
            for core in &cores {
                if let Some((f, _)) = core.job {
                    readers[f] += 1;
                }
            }
            if readers.iter().all(|&n| n == 0) {
                break;
            }

            // Each flow's rate: the transfer function over its path; then,
            // where a capped source's remote readers ask for more than the
            // transfer function over its outbound cap gives, every one of
            // them scaled down by the same factor.
            let mut rate: Vec<f64> = (0..flows.len())
                .map(|f| {
                    let p = flows[f].path;
                    achieved(p.bw, p.per_core_bw, readers[f], penalty)
                })
                .collect();
            for &src in &capped {
                let sharing: Vec<usize> = (0..flows.len())
                    .filter(|&f| {
                        flows[f].src == src && src != Location::Gpu(flows[f].gpu) && readers[f] > 0
                    })
                    .collect();
                if sharing.is_empty() {
                    continue;
                }
                let cap = platform.outbound_bw(src);
                let n: usize = sharing.iter().map(|&f| readers[f]).sum();
                let per_core = sharing
                    .iter()
                    .map(|&f| flows[f].path.per_core_bw * readers[f] as f64)
                    .sum::<f64>()
                    / n as f64;
                let gives = achieved(cap, per_core, n, penalty).min(cap);
                let asked: f64 = sharing.iter().map(|&f| rate[f]).sum();
                if asked > gives {
                    let scale = gives / asked;
                    for &f in &sharing {
                        rate[f] *= scale;
                    }
                }
                let out: f64 = sharing.iter().map(|&f| rate[f]).sum();
                assert!(
                    out <= cap * (1.0 + SLACK),
                    "{src} sends {out} B/s over its cap {cap}"
                );
            }
            for (f, flow) in flows.iter().enumerate() {
                if readers[f] == 0 {
                    continue;
                }
                let p = flow.path;
                assert!(
                    rate[f] <= p.bw * (1.0 + SLACK),
                    "flow {f} above its path cap"
                );
                assert!(
                    rate[f] <= readers[f] as f64 * p.per_core_bw * (1.0 + SLACK),
                    "flow {f} above its cores' caps"
                );
            }

            // The next chunk completion; every reader of a flow moves at
            // an equal share of its rate.
            let share = |f: usize| rate[f] / readers[f] as f64;
            let dt = cores
                .iter()
                .filter_map(|c| c.job)
                .filter(|&(f, _)| share(f) > 0.0)
                .map(|(f, rem)| rem / share(f))
                .fold(f64::INFINITY, f64::min);
            assert!(dt.is_finite(), "no core can progress");
            now += dt;
            for (f, flow) in flows.iter_mut().enumerate() {
                if readers[f] > 0 {
                    flow.busy += dt;
                    flow.moved += rate[f] * dt;
                }
            }
            let mut done = Vec::new();
            for (ci, core) in cores.iter_mut().enumerate() {
                let Some((f, rem)) = core.job.as_mut() else {
                    continue;
                };
                core_busy[core.gpu] += dt;
                *rem -= share(*f) * dt;
                if *rem <= 1e-6 {
                    finish[core.gpu] = now;
                    flows[*f].chunks += 1;
                    events.push((core.gpu, core.idx, flows[*f].src, core.start, now));
                    done.push(ci);
                }
            }
            for ci in done {
                let core = &mut cores[ci];
                core.job = next(core, &mut flows);
                core.start = now;
            }

            // Conservation: what moved, what cores hold and what is
            // queued is the flow's demand, short of at most 1e-6 per
            // completed chunk (the completion rule).
            let mut held = vec![0.0f64; flows.len()];
            for (f, rem) in cores.iter().filter_map(|c| c.job) {
                held[f] += rem;
            }
            for (f, flow) in flows.iter().enumerate() {
                let accounted = flow.moved + held[f] + flow.queued as f64 * flow.chunk;
                let slack = 1e-6 * (flow.chunks + 1) as f64 + 1e-9 * flow.total;
                assert!(
                    (accounted - flow.total).abs() <= slack,
                    "flow {f} accounts {accounted} of {} bytes",
                    flow.total
                );
            }
        }
        let time = finish
            .iter()
            .map(|&t| {
                if t > 0.0 {
                    SimTime::from_secs_f64(t) + cfg.launch_overhead
                } else {
                    SimTime::ZERO
                }
            })
            .collect();
        Outcome {
            flows,
            time,
            core_busy,
            events,
        }
    }

    /// Factored dedication of one GPU's `sm` cores: trim the largest
    /// allotment (the last among equals) while they exceed `sm`, then
    /// give a starved flow a spare core, or else one borrowed from the
    /// largest allotment that can spare one (the last among equals).
    fn dedicate(alloc: &mut [(usize, usize)], sm: usize) {
        let largest = |alloc: &[(usize, usize)], min: usize| {
            let mut best: Option<usize> = None;
            for (k, &(_, n)) in alloc.iter().enumerate() {
                if n >= min && best.is_none_or(|b| n >= alloc[b].1) {
                    best = Some(k);
                }
            }
            best
        };
        let mut used: usize = alloc.iter().map(|&(_, n)| n).sum();
        while used > sm {
            let k = largest(alloc, 0).expect("cores are in use");
            alloc[k].1 -= 1;
            used -= 1;
        }
        for k in 0..alloc.len() {
            if alloc[k].1 > 0 {
                continue;
            }
            if used < sm {
                alloc[k].1 = 1;
                used += 1;
            } else if let Some(donor) = largest(alloc, 2) {
                alloc[donor].1 -= 1;
                alloc[k].1 = 1;
            }
        }
    }
}

/// Bytes moved per tier: local, GPU peer, host.
fn tiers(links: impl Iterator<Item = (usize, Location, f64)>) -> [f64; 3] {
    let mut t = [0.0; 3];
    for (gpu, src, bytes) in links {
        let tier = match src {
            Location::Gpu(j) if j == gpu => 0,
            Location::Gpu(_) => 1,
            Location::Host => 2,
        };
        t[tier] += bytes;
    }
    t
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Asserts the engine's result and trace are the oracle's, and returns
/// the oracle's outcome.
fn assert_matches_oracle(
    platform: &Platform,
    works: &[GpuWork],
    mode: DispatchMode,
    got: &ExtractionResult,
    trace: &ExtractionTrace,
    label: &str,
) -> oracle::Outcome {
    let want = oracle::run(platform, &cfg(), works, mode);
    let mut order: Vec<usize> = Vec::new();
    for w in works {
        if !order.contains(&w.gpu) {
            order.push(w.gpu);
        }
    }
    assert_eq!(
        got.per_gpu.iter().map(|g| g.gpu).collect::<Vec<_>>(),
        order,
        "{label}: GPUs reported"
    );
    for g in &got.per_gpu {
        let flows: Vec<&oracle::Flow> = want.flows.iter().filter(|f| f.gpu == g.gpu).collect();
        let links: Vec<_> = g
            .per_src
            .iter()
            .map(|u| (u.src, u.bytes.to_bits()))
            .collect();
        let expect: Vec<_> = flows.iter().map(|f| (f.src, f.moved.to_bits())).collect();
        assert_eq!(links, expect, "{label}: GPU{} bytes per link", g.gpu);
        for (u, f) in g.per_src.iter().zip(&flows) {
            assert!(
                close(
                    u.busy.as_secs_f64(),
                    SimTime::from_secs_f64(f.busy).as_secs_f64()
                ),
                "{label}: GPU{} ← {} busy {} vs {}",
                g.gpu,
                u.src,
                u.busy,
                f.busy
            );
            assert_eq!(
                u.peak_bw, f.path.bw,
                "{label}: GPU{} ← {} peak",
                g.gpu, u.src
            );
        }
        let time = want.time[g.gpu];
        assert!(
            close(g.time.as_secs_f64(), time.as_secs_f64()),
            "{label}: GPU{} time {} vs {time}",
            g.gpu,
            g.time
        );
        assert!(
            close(
                g.core_busy.as_secs_f64(),
                SimTime::from_secs_f64(want.core_busy[g.gpu]).as_secs_f64()
            ),
            "{label}: GPU{} core busy",
            g.gpu
        );
    }
    let makespan = order
        .iter()
        .map(|&gpu| want.time[gpu])
        .max()
        .unwrap_or(SimTime::ZERO);
    assert!(
        close(got.makespan.as_secs_f64(), makespan.as_secs_f64()),
        "{label}: makespan {} vs {makespan}",
        got.makespan
    );
    let engine_tiers = tiers(
        got.per_gpu
            .iter()
            .flat_map(|g| g.per_src.iter().map(move |u| (g.gpu, u.src, u.bytes))),
    );
    let oracle_tiers = tiers(
        order
            .iter()
            .flat_map(|&gpu| want.flows.iter().filter(move |f| f.gpu == gpu))
            .map(|f| (f.gpu, f.src, f.moved)),
    );
    assert_eq!(
        engine_tiers.map(f64::to_bits),
        oracle_tiers.map(f64::to_bits),
        "{label}: bytes per tier {engine_tiers:?} vs {oracle_tiers:?}"
    );

    // Chunks per (gpu, source), and the trace event for event.
    for f in &want.flows {
        let n = trace
            .events
            .iter()
            .filter(|e| (e.gpu, e.src) == (f.gpu, f.src))
            .count() as u64;
        assert_eq!(n, f.chunks, "{label}: GPU{} ← {} chunks", f.gpu, f.src);
    }
    assert_eq!(trace.events.len(), want.events.len(), "{label}: events");
    for (e, &(gpu, core, src, start, end)) in trace.events.iter().zip(&want.events) {
        assert_eq!(
            (e.gpu, e.core, e.src),
            (gpu, core, src),
            "{label}: event order"
        );
        assert!(
            close(e.start, start) && close(e.end, end),
            "{label}: event times"
        );
    }
    want
}

/// A skewed, merged-duplicate workload touching local, remote and host
/// paths on every GPU of the platform.
fn mixed_works(platform: &Platform) -> Vec<GpuWork> {
    let n = platform.num_gpus();
    (0..n)
        .map(|gpu| {
            // First reachable peer after `gpu` (hardwired topologies don't
            // connect every pair); fall back to local if none.
            let peer = (1..n)
                .map(|d| (gpu + d) % n)
                .find(|&j| platform.connected(gpu, Location::Gpu(j)))
                .unwrap_or(gpu);
            GpuWork {
                gpu,
                demands: vec![
                    SourceDemand {
                        src: Location::Gpu(gpu),
                        bytes: 600e6 + gpu as f64 * 17e6,
                    },
                    SourceDemand {
                        src: Location::Gpu(peer),
                        bytes: 250e6 - gpu as f64 * 11e6,
                    },
                    SourceDemand {
                        src: Location::Gpu(peer),
                        bytes: 40e6,
                    },
                    SourceDemand {
                        src: Location::Host,
                        bytes: 80e6 + gpu as f64 * 5e6,
                    },
                ],
            }
        })
        .collect()
}

/// A `dlr_refresh`-shaped call: every GPU reads every source it can
/// reach, each demand MB-scale and so cut into 8 KB chunks — hundreds of
/// cores busy at once, most of them in a few large cohorts.
fn dlr_works(platform: &Platform) -> Vec<GpuWork> {
    let n = platform.num_gpus();
    (0..n)
        .map(|gpu| {
            let peers = (0..n)
                .filter(|&j| j != gpu && platform.connected(gpu, Location::Gpu(j)))
                .map(|j| SourceDemand {
                    src: Location::Gpu(j),
                    bytes: 0.25e6 + ((gpu + 2 * j) % 7) as f64 * 0.1e6,
                });
            let demands = [
                SourceDemand {
                    src: Location::Gpu(gpu),
                    bytes: 1.5e6 + gpu as f64 * 0.02e6,
                },
                SourceDemand {
                    src: Location::Host,
                    bytes: 1.1e6,
                },
            ];
            GpuWork {
                gpu,
                demands: demands.into_iter().chain(peers).collect(),
            }
        })
        .collect()
}

/// GPUs 0 and 1 given the same work: their groups' cohorts finish in the
/// same steps.
fn coinciding_works() -> Vec<GpuWork> {
    (0..2)
        .map(|gpu| GpuWork {
            gpu,
            demands: vec![
                SourceDemand {
                    src: Location::Gpu(gpu),
                    bytes: 1.2e6,
                },
                SourceDemand {
                    src: Location::Host,
                    bytes: 0.4e6,
                },
            ],
        })
        .collect()
}

/// Every call the differential tests compare, by name.
fn inputs(platform: &Platform) -> [(&'static str, Vec<GpuWork>); 3] {
    [
        ("mixed", mixed_works(platform)),
        ("dlr", dlr_works(platform)),
        ("coinciding", coinciding_works()),
    ]
}

fn modes() -> Vec<DispatchMode> {
    vec![
        DispatchMode::RandomShared { seed: 0x5EED },
        DispatchMode::Factored {
            dedication: DedicationConfig::default(),
        },
    ]
}

#[test]
fn results_match_the_oracle_across_modes_and_platforms() {
    for platform in [
        Platform::server_a(),
        Platform::server_b(),
        Platform::server_c(),
    ] {
        for (name, works) in inputs(&platform) {
            for mode in modes() {
                let label = format!("{name} under {mode:?} on {}", platform.name);
                let (r, t) = simulate_traced(&platform, &cfg(), &works, mode);
                assert_matches_oracle(&platform, &works, mode, &r, &t, &label);
                // A core that ran dry is never offered work again.
                assert!(!revived(&t), "{label}");
                // The shapes the inputs exist for, on the switch server.
                match name {
                    _ if platform.name != Platform::server_c().name => {}
                    "dlr" => assert!(t.events.len() > 5_000, "{label}: {} chunks", t.events.len()),
                    "coinciding" => assert!(
                        groups_finish_together(&t),
                        "{label}: no two groups finished in one step"
                    ),
                    _ => {}
                }
            }
        }
    }
}

#[test]
fn link_counters_count_the_oracles_bytes() {
    let platform = Platform::server_c();
    for (name, works) in inputs(&platform) {
        for mode in modes() {
            let ((r, t), report) =
                emb_telemetry::collect(|| simulate_traced(&platform, &cfg(), &works, mode));
            let label = format!("{name} under {mode:?}");
            let want = assert_matches_oracle(&platform, &works, mode, &r, &t, &label);
            for f in &want.flows {
                let src = match f.src {
                    Location::Gpu(j) => format!("gpu{j}"),
                    Location::Host => "host".into(),
                };
                let name = format!("memsim.link.gpu{}.{src}.bytes", f.gpu);
                let (_, bytes) = report
                    .metrics
                    .counters
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("{label}: no counter {name}"));
                assert_eq!(bytes.to_bits(), f.moved.to_bits(), "{label}: {name}");
            }
        }
    }
}

#[test]
fn the_oracle_congests_and_caps_egress() {
    // Its checks bite only where the model's caps engage: random dispatch
    // floods PCIe past its tolerance, and Server C's GPUs share egress.
    let platform = Platform::server_c();
    let host = platform.path(0, Location::Host);
    assert_eq!(host.kind, PathKind::Pcie);
    let all_cores = oracle::achieved(host.bw, host.per_core_bw, platform.gpus[0].sm_count, 0.5);
    assert!(all_cores < host.bw, "every core on PCIe congests it");
    let works = mixed_works(&platform);
    let mode = DispatchMode::RandomShared { seed: 0x5EED };
    let (_, report) = emb_telemetry::collect(|| simulate(&platform, &cfg(), &works, mode));
    let counter = |name: &str| {
        report
            .metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    assert!(counter("memsim.congestion.link_activations") > 0.0);
    assert!(counter("memsim.congestion.egress_capped") > 0.0);
}

/// Whether chunks of two different `(gpu, source)` groups completed at
/// the same instant.
fn groups_finish_together(t: &ExtractionTrace) -> bool {
    let mut ends: Vec<_> = t
        .events
        .iter()
        .map(|e| (e.end.to_bits(), e.gpu, e.src))
        .collect();
    ends.sort();
    ends.dedup();
    ends.windows(2).any(|w| w[0].0 == w[1].0)
}

/// Whether some core sat idle between two of its chunks: took a chunk
/// after an instant at which it had none.
fn revived(t: &ExtractionTrace) -> bool {
    let mut by_core: Vec<_> = t
        .events
        .iter()
        .map(|e| (e.gpu, e.core, e.start.to_bits(), e.end.to_bits()))
        .collect();
    by_core.sort();
    by_core.windows(2).any(|w| {
        let (a, b) = (w[0], w[1]);
        (a.0, a.1) == (b.0, b.1) && f64::from_bits(b.2) > f64::from_bits(a.3)
    })
}

/// A random call: any subset of GPUs (possibly none, possibly one named
/// twice), each pulling from a random mix of reachable sources with sizes
/// from nothing to `scale` bytes — duplicates and zero-byte demands
/// included.
fn random_works(rng: &mut impl Rng, platform: &Platform, scale: f64) -> Vec<GpuWork> {
    let n = platform.num_gpus();
    let mut works = Vec::new();
    for gpu in (0..n).chain(0..1) {
        if rng.gen_bool(0.3) {
            continue;
        }
        let demands = (0..rng.gen_range(0..6usize))
            .map(|_| {
                let src = match rng.gen_range(0..=n) {
                    j if j < n && platform.connected(gpu, Location::Gpu(j)) => Location::Gpu(j),
                    _ => Location::Host,
                };
                let bytes = if rng.gen_bool(0.15) {
                    0.0
                } else {
                    scale * rng.gen_range(0.001..1.0f64)
                };
                SourceDemand { src, bytes }
            })
            .collect();
        works.push(GpuWork { gpu, demands });
    }
    works
}

fn event_bits(t: &ExtractionTrace) -> Vec<(usize, usize, Location, u64, u64)> {
    t.events
        .iter()
        .map(|e| (e.gpu, e.core, e.src, e.start.to_bits(), e.end.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// One simulator driven through a random sequence of calls — small
    /// after large, empty, scoped and scope-less — gives exactly what a
    /// fresh one-shot simulation gives for each call (no scratch state
    /// survives from one call into the next), and what the oracle gives.
    #[test]
    fn reused_simulator_matches_fresh_and_the_oracle(seed in 0u64..10_000) {
        let mut rng = emb_util::seed_rng(seed);
        let platform = match rng.gen_range(0..3) {
            0 => Platform::server_a(),
            1 => Platform::server_b(),
            _ => Platform::server_c(),
        };
        let c = cfg();
        for mode in modes() {
            let mut sim = Simulator::new(&platform, &c, mode);
            for call in 0..5 {
                // Batch-sized, or five orders of magnitude above it.
                let scale = if rng.gen_bool(0.3) { 2e8 } else { 4e3 };
                let works = random_works(&mut rng, &platform, scale);
                if rng.gen_bool(0.2) {
                    // A scope-less call in between leaves no mark either.
                    prop_assert_eq!(sim.simulate(&works), simulate(&platform, &c, &works, mode));
                }
                let ((r, t), report) = emb_telemetry::collect(|| sim.simulate_traced(&works));
                let ((fresh_r, fresh_t), fresh_report) =
                    emb_telemetry::collect(|| simulate_traced(&platform, &c, &works, mode));
                prop_assert_eq!(&r, &fresh_r, "result vs fresh under {:?}", mode);
                prop_assert_eq!(event_bits(&t), event_bits(&fresh_t));
                prop_assert!(!revived(&t), "a core revived under {:?}", mode);
                prop_assert_eq!(&report, &fresh_report, "telemetry vs fresh under {:?}", mode);
                let label = format!("seed {seed} call {call} under {mode:?} on {}", platform.name);
                assert_matches_oracle(&platform, &works, mode, &r, &t, &label);
            }
        }
    }
}
