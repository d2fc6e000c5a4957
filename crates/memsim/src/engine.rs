//! The discrete-event extraction engine.
//!
//! Work arrives as "destination GPU `i` must pull `b` bytes from source
//! `j`". Each GPU's SM cores pick up fixed-size chunks of that work
//! according to a [`DispatchMode`]; at every instant the engine computes
//! each flow's rate from the congestion model (per-core caps, path caps,
//! source-egress caps) and advances simulated time to the next chunk
//! completion. Stalls emerge naturally: a core stuck on an oversubscribed
//! PCIe chunk holds that core while fast local chunks drain elsewhere.
//!
//! A [`Simulator`] splits what a call needs in two. **Per topology** —
//! derived from `(Platform, SimConfig, DispatchMode)` alone and built
//! once: SM counts, the path and egress-cap tables, the core-dedication
//! [`Profile`], and (on first use under a telemetry scope) every metric
//! name and span track the engine records. **Per call** — groups, the
//! cores that were offered work, queues and the event loop's active
//! sets: vectors the simulator owns and refills, so a call's host cost
//! follows its flows and chunks, not `GPUs × SMs`. The free [`simulate`]
//! / [`simulate_traced`] build a one-shot simulator and run the same
//! code.
//!
//! The event loop advances *cohorts*, not cores. A cohort is the busy
//! cores of one group whose remaining bytes are equal to the bit: they
//! took their chunks (all of one size) at the same instant, and every
//! step subtracts the same `rate / active · dt` from each of them, so the
//! next-completion `dt`, the progress update and the `≤ 1e-6` completion
//! test run once per cohort, and a whole cohort finishes together. Cores
//! that take chunks at one instant form one new cohort per group; the
//! members sit in an intrusive list over per-core storage, so no cohort
//! owns an allocation. Finished members are released in ascending core
//! order — the order a per-core walk would re-dispatch (and trace) them
//! in — and each GPU's `core_busy` still gets one `+= dt` per busy core,
//! so its bits do not move. Per-group active-core and per-GPU busy-core
//! counts are maintained on these transitions instead of being recounted.
//! The pre-optimization loop is preserved in [`crate::reference`] as the
//! differential tests' oracle; both produce bit-identical results and
//! telemetry.

use crate::bandwidth::{effective_bw, CongestionModel};
use crate::trace::{ExtractionTrace, TraceEvent};
use emb_telemetry::{Counter, EventValue, Fields, Histogram, Name};
use emb_util::{split_seed, SimTime};
use gpu_platform::{
    DedicationConfig, Interconnect, Location, PathKind, PathSpec, Platform, Profile,
};
use rand::seq::SliceRandom;
use std::ops::Range;

/// Bytes per dispatched chunk (the unit of core occupancy).
const CHUNK_BYTES: f64 = 256.0 * 1024.0;

/// Engine tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Congestion model shared by all paths.
    pub congestion: CongestionModel,
    /// Fixed per-extraction kernel-launch overhead added to every GPU.
    pub launch_overhead: SimTime,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            congestion: CongestionModel::default(),
            launch_overhead: SimTime::from_micros(15),
        }
    }
}

/// Bytes a destination GPU must pull from one source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceDemand {
    /// Where the bytes live.
    pub src: Location,
    /// How many bytes to move.
    pub bytes: f64,
}

/// The extraction work of one destination GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuWork {
    /// Destination GPU index.
    pub gpu: usize,
    /// Per-source byte demands (sources may repeat; they are merged).
    pub demands: Vec<SourceDemand>,
}

/// How SM cores are assigned to per-source work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DispatchMode {
    /// Naive peer access: every core pulls the next chunk from one shared,
    /// randomly interleaved queue — the congestion-prone scheme of §3.2.
    RandomShared {
        /// Shuffle seed (per-GPU streams are derived from it).
        seed: u64,
    },
    /// UGache's factored extraction (§5.3): cores are statically dedicated
    /// per non-local source within link tolerance; local work runs as
    /// low-priority padding on every core whose dedicated queue drained.
    Factored {
        /// Core-dedication tunables.
        dedication: DedicationConfig,
    },
}

/// Per-source outcome on one destination GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkUse {
    /// Source location.
    pub src: Location,
    /// Bytes moved from this source.
    pub bytes: f64,
    /// Wall time during which at least one core was reading this source.
    pub busy: SimTime,
    /// Nominal path bandwidth (bytes/s).
    pub peak_bw: f64,
}

/// Extraction outcome for one destination GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuExtraction {
    /// Destination GPU index.
    pub gpu: usize,
    /// Wall time from launch until this GPU's last chunk completed,
    /// including launch overhead.
    pub time: SimTime,
    /// Aggregate core-busy time (core-seconds as [`SimTime`]); divide by
    /// `time × SM count` for core utilization.
    pub core_busy: SimTime,
    /// Per-source transfer accounting.
    pub per_src: Vec<LinkUse>,
}

/// Outcome of a whole extraction call.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionResult {
    /// Max over GPUs of their extraction time (the batch completes when the
    /// slowest GPU finishes — data-parallel steps synchronize).
    pub makespan: SimTime,
    /// Per-GPU details: one entry per distinct GPU named by the input
    /// works, in order of first appearance (works naming the same GPU are
    /// merged).
    pub per_gpu: Vec<GpuExtraction>,
}

#[derive(Debug, Clone)]
pub(crate) struct Group {
    pub(crate) gpu: usize,
    pub(crate) src: Location,
    /// This link's index in the per-topology tables.
    slot: usize,
    pub(crate) path: PathSpec,
    pub(crate) chunks_left: u64,
    pub(crate) chunk_size: f64,
    pub(crate) bytes_done: f64,
    pub(crate) busy: f64,
    /// Scratch: number of cores currently on this group.
    pub(crate) active: usize,
    /// Scratch: allocated aggregate rate for this instant.
    pub(crate) rate: f64,
    /// Optimized loop, under a scope: steps this link was congested /
    /// egress-capped so far, and its busy interval in progress.
    congested: u64,
    egress_capped: u64,
    open: Option<OpenXfer>,
}

#[derive(Debug, Clone)]
pub(crate) struct Core {
    pub(crate) gpu: usize,
    /// Index of this core within its GPU.
    pub(crate) local_idx: usize,
    /// Group this core is dedicated to (Factored mode), by global index.
    dedicated: Option<usize>,
    /// Current chunk: (group index, remaining bytes). Only the initial
    /// dispatch and the reference loop write it; the optimized loop keeps
    /// a busy core's remaining bytes in its cohort.
    pub(crate) job: Option<(usize, f64)>,
}

/// The engine's metrics under fixed names (all names in EXPERIMENTS.md).
static CORE_UTIL: Histogram = Histogram::new("memsim.core_util");
static STALL_CORE_SECS: Counter = Counter::new("memsim.stall_core_secs");
static EXTRACTIONS: Counter = Counter::new("memsim.extractions");
static LINK_ACTIVATIONS: Counter = Counter::new("memsim.congestion.link_activations");
static EGRESS_CAPPED: Counter = Counter::new("memsim.congestion.egress_capped");

/// Telemetry names of one `gpu ← src` link.
#[derive(Debug, Clone)]
struct LinkNames {
    bytes: Counter,
    busy_secs: Counter,
    stall_secs: Counter,
    /// Span track `gpu{i}/link:{kind}->{src}`.
    track: Name,
}

/// Every dynamic name the engine records, built the first time a link or
/// GPU is recorded under a telemetry scope and never again — a scope-less
/// simulator builds nothing. The counters are handles and the tracks
/// interned names, so recording looks up no name and a span copies its
/// track as a pointer. (The long names are concatenated, not
/// `format!`ted: a one-shot simulator under a scope builds some sixty of
/// them per call.)
#[derive(Debug, Clone)]
pub(crate) struct Names {
    num_gpus: usize,
    /// Indexed by [`Group::slot`].
    links: Vec<Option<LinkNames>>,
    /// Per GPU: span tracks `gpu{i}` and `gpu{i}/cores`.
    gpus: Vec<Option<(Name, Name)>>,
}

impl Names {
    fn link(&mut self, g: &Group) -> &LinkNames {
        if self.links.is_empty() {
            self.links.resize(self.num_gpus * (self.num_gpus + 1), None);
        }
        self.links[g.slot].get_or_insert_with(|| {
            let gpu = format!("gpu{}", g.gpu);
            let src = match g.src {
                Location::Gpu(j) => format!("gpu{j}"),
                Location::Host => "host".to_string(),
            };
            let kind = match g.path.kind {
                PathKind::Local => "local",
                PathKind::NvLink => "nvlink",
                PathKind::NvSwitch => "nvswitch",
                PathKind::Pcie => "pcie",
            };
            let metric = |what| Counter::named(&["memsim.link.", &gpu, ".", &src, what].concat());
            LinkNames {
                bytes: metric(".bytes"),
                busy_secs: metric(".busy_secs"),
                stall_secs: metric(".stall_secs"),
                track: [&gpu, "/link:", kind, "->", &src].concat().into(),
            }
        })
    }

    fn gpu(&mut self, gpu: usize) -> &(Name, Name) {
        if self.gpus.is_empty() {
            self.gpus.resize(self.num_gpus, None);
        }
        self.gpus[gpu].get_or_insert_with(|| {
            let track = format!("gpu{gpu}");
            let cores = [&track, "/cores"].concat().into();
            (track.into(), cores)
        })
    }
}

/// One call's state, built by [`Simulator::build_state`] and shared by
/// the optimized loop and the frozen reference loop. The vectors are
/// refilled, not reallocated, from call to call.
#[derive(Debug, Clone, Default)]
pub(crate) struct SimState {
    pub(crate) groups: Vec<Group>,
    /// Per GPU: the index range of its groups.
    gpu_groups: Vec<Range<usize>>,
    /// The cores that were offered work, ascending by `(gpu, local_idx)`,
    /// after the initial dispatch.
    pub(crate) cores: Vec<Core>,
    /// Per core (kept out of [`Core`], which the reference loop scans
    /// every step):
    /// start instant of its current chunk, and — RandomShared — the
    /// position of its next token in its GPU's token list (it owns every
    /// `sm`-th token from `local_idx`).
    job_start: Vec<f64>,
    cursor: Vec<usize>,
    /// RandomShared: per-GPU shuffled chunk tokens. Chunks are dealt
    /// round-robin at launch — equal counts per core, random composition,
    /// no stealing afterwards (the unorganized parallelism of §5.2, where
    /// an unlucky core stuck with slow chunks stalls the whole kernel).
    tokens: Vec<Vec<usize>>,
    /// Factored: per-GPU local group.
    local: Vec<Option<usize>>,
    /// Per GPU: instant its last chunk completed (engine seconds).
    pub(crate) gpu_finish: Vec<f64>,
    /// Per GPU: aggregate core-busy seconds.
    pub(crate) core_busy: Vec<f64>,
    /// Build scratch: per-GPU merged `(source, bytes)` totals.
    totals: Vec<Vec<(Location, f64)>>,
    /// Build scratch: Factored `(group, dedicated cores)` of one GPU.
    alloc: Vec<(usize, usize)>,
}

/// End of a cohort's member list; "no cohort yet" in [`Cohorts::fresh`].
const NIL: usize = usize::MAX;

/// Busy cores of one group whose remaining bytes are equal to the bit.
#[derive(Debug, Clone, Copy)]
struct Cohort {
    group: usize,
    /// Remaining bytes of every member's chunk.
    rem: f64,
    /// First member; the rest follow through [`Cohorts::next`].
    head: usize,
}

/// The busy cores of a call, as cohorts over flat per-core storage.
#[derive(Debug, Clone, Default)]
struct Cohorts {
    list: Vec<Cohort>,
    /// Per core: the next member of its cohort, or [`NIL`].
    next: Vec<usize>,
    /// Per group: the cohort formed at the current instant, or [`NIL`].
    fresh: Vec<usize>,
}

impl Cohorts {
    fn reset(&mut self, cores: usize, groups: usize) {
        self.list.clear();
        self.next.clear();
        self.next.resize(cores, NIL);
        self.fresh.clear();
        self.fresh.resize(groups, NIL);
    }

    /// Adds core `ci`, which took a chunk of group `gi` at the current
    /// instant, to that group's cohort of this instant.
    fn join(&mut self, ci: usize, gi: usize, rem: f64) {
        match self.fresh[gi] {
            NIL => {
                self.fresh[gi] = self.list.len();
                self.next[ci] = NIL;
                self.list.push(Cohort {
                    group: gi,
                    rem,
                    head: ci,
                });
            }
            k => {
                let cohort = &mut self.list[k];
                debug_assert_eq!(cohort.rem.to_bits(), rem.to_bits());
                self.next[ci] = cohort.head;
                cohort.head = ci;
            }
        }
    }

    /// Closes the current instant: the cohorts formed from `first` on take
    /// no more members.
    fn seal(&mut self, first: usize) {
        for c in &self.list[first..] {
            self.fresh[c.group] = NIL;
        }
    }
}

/// The optimized event loop's reused active sets.
#[derive(Debug, Clone, Default)]
struct LoopScratch {
    cohorts: Cohorts,
    gpu_busy: Vec<usize>,
    /// Per source index: non-local reader groups, in group-index order.
    egress_cands: Vec<Vec<usize>>,
    stall_open: Vec<Option<OpenStall>>,
    readers: Vec<usize>,
    /// `(core, group)` of the cores finishing at the current instant.
    finished: Vec<(usize, usize)>,
}

/// An extraction simulator bound to one `(platform, config, dispatch
/// mode)`: build it once, call it per batch.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: SimConfig,
    mode: DispatchMode,
    /// SM count per GPU.
    sm: Vec<usize>,
    /// `paths[gpu * (G + 1) + source index]`, `None` when unconnected
    /// (source index: GPU `j` → `j`, host → `G`).
    paths: Vec<Option<PathSpec>>,
    /// Shared egress cap (bytes/s) per source index, for the sources whose
    /// readers share one: the host, and every GPU behind a switch.
    egress_cap: Vec<Option<f64>>,
    /// Factored mode: the core-dedication profile.
    profile: Option<Profile>,
    pub(crate) names: Names,
    pub(crate) st: SimState,
    scratch: LoopScratch,
}

/// Simulates one extraction call.
///
/// # Panics
///
/// Panics if a demand references an unreachable source (callers must
/// respect the topology), a GPU index is out of range, or byte counts are
/// negative/non-finite.
pub fn simulate(
    platform: &Platform,
    cfg: &SimConfig,
    works: &[GpuWork],
    mode: DispatchMode,
) -> ExtractionResult {
    Simulator::new(platform, cfg, mode).simulate(works)
}

/// Like [`simulate`], but also records a per-chunk execution trace
/// (who read what, when) for schedule visualization and analysis.
pub fn simulate_traced(
    platform: &Platform,
    cfg: &SimConfig,
    works: &[GpuWork],
    mode: DispatchMode,
) -> (ExtractionResult, ExtractionTrace) {
    Simulator::new(platform, cfg, mode).simulate_traced(works)
}

impl Simulator {
    /// Derives the per-topology tables for `platform` under `cfg` and
    /// `mode`.
    pub fn new(platform: &Platform, cfg: &SimConfig, mode: DispatchMode) -> Self {
        let g = platform.num_gpus();
        let locations = || (0..g).map(Location::Gpu).chain([Location::Host]);
        let switch_based = matches!(platform.interconnect, Interconnect::Switch { .. });
        let path = |gpu, src| {
            platform
                .connected(gpu, src)
                .then(|| platform.path(gpu, src))
        };
        Simulator {
            cfg: *cfg,
            mode,
            sm: platform.gpus.iter().map(|spec| spec.sm_count).collect(),
            paths: (0..g)
                .flat_map(|gpu| locations().map(move |src| path(gpu, src)))
                .collect(),
            egress_cap: locations()
                .map(|src| {
                    (src == Location::Host || switch_based).then(|| platform.outbound_bw(src))
                })
                .collect(),
            profile: match mode {
                DispatchMode::Factored { dedication } => Some(Profile::new(platform, dedication)),
                _ => None,
            },
            names: Names {
                num_gpus: g,
                links: Vec::new(),
                gpus: Vec::new(),
            },
            st: SimState {
                tokens: vec![Vec::new(); g],
                local: vec![None; g],
                totals: vec![Vec::new(); g],
                ..SimState::default()
            },
            scratch: LoopScratch {
                egress_cands: vec![Vec::new(); g + 1],
                ..LoopScratch::default()
            },
        }
    }

    /// Simulates one extraction call.
    ///
    /// # Panics
    ///
    /// Panics on the same inputs as the free [`simulate`].
    pub fn simulate(&mut self, works: &[GpuWork]) -> ExtractionResult {
        self.run(works, false).0
    }

    /// Like [`Simulator::simulate`], but also records a per-chunk
    /// execution trace.
    pub fn simulate_traced(&mut self, works: &[GpuWork]) -> (ExtractionResult, ExtractionTrace) {
        self.run(works, true)
    }

    /// The table index and path of `gpu ← src`; `None` when unconnected
    /// (or `src` is not a GPU of this platform).
    fn link(&self, gpu: usize, src: Location) -> Option<(usize, PathSpec)> {
        let src_index = match src {
            Location::Gpu(j) if j >= self.sm.len() => return None,
            Location::Gpu(j) => j,
            Location::Host => self.sm.len(),
        };
        let slot = gpu * (self.sm.len() + 1) + src_index;
        self.paths[slot].map(|path| (slot, path))
    }

    /// Merges demands, builds groups and per-GPU queues, and hands every
    /// core its first chunk. A GPU's remaining cores are not even
    /// constructed once its groups have no chunks left: no chunk ever
    /// returns to a queue, so they would be offered nothing, now or later.
    pub(crate) fn build_state(&mut self, works: &[GpuWork]) {
        let num_gpus = self.sm.len();
        // Collect per-(gpu, src) byte totals (merging duplicate sources).
        self.st.totals.iter_mut().for_each(Vec::clear);
        for w in works {
            assert!(w.gpu < num_gpus, "GPU index {} out of range", w.gpu);
            for d in &w.demands {
                assert!(
                    d.bytes.is_finite() && d.bytes >= 0.0,
                    "invalid byte count {}",
                    d.bytes
                );
                if d.bytes == 0.0 {
                    continue;
                }
                assert!(
                    self.link(w.gpu, d.src).is_some(),
                    "GPU{} cannot read from {}",
                    w.gpu,
                    d.src
                );
                let totals = &mut self.st.totals[w.gpu];
                match totals.iter_mut().find(|(s, _)| *s == d.src) {
                    Some((_, b)) => *b += d.bytes,
                    None => totals.push((d.src, d.bytes)),
                }
            }
        }

        // Build groups. Chunk count adapts to small demands: a group must
        // offer enough chunks to occupy its potential cores (real gathers
        // parallelize at warp granularity, not at the bulk chunk size), with
        // a floor on chunk size so tiny demands don't explode the event count.
        const MIN_CHUNK_BYTES: f64 = 8.0 * 1024.0;
        self.st.groups.clear();
        self.st.gpu_groups.clear();
        for gpu in 0..num_gpus {
            let first = self.st.groups.len();
            for k in 0..self.st.totals[gpu].len() {
                let (src, bytes) = self.st.totals[gpu][k];
                let by_size = (bytes / CHUNK_BYTES).ceil().max(1.0) as u64;
                let parallel_target = 2 * self.sm[gpu] as u64;
                let by_floor = (bytes / MIN_CHUNK_BYTES).ceil().max(1.0) as u64;
                let chunks = by_size.max(parallel_target.min(by_floor));
                let (slot, path) = self.link(gpu, src).expect("checked above");
                self.st.groups.push(Group {
                    gpu,
                    src,
                    slot,
                    path,
                    chunks_left: chunks,
                    chunk_size: bytes / chunks as f64,
                    bytes_done: 0.0,
                    busy: 0.0,
                    active: 0,
                    rate: 0.0,
                    congested: 0,
                    egress_capped: 0,
                    open: None,
                });
            }
            self.st.gpu_groups.push(first..self.st.groups.len());
        }

        // Per-GPU queues, then cores in local order, each dispatched its
        // first chunk as it is built.
        let st = &mut self.st;
        st.cores.clear();
        st.job_start.clear();
        st.cursor.clear();
        st.gpu_finish.clear();
        st.gpu_finish.resize(num_gpus, 0.0);
        st.core_busy.clear();
        st.core_busy.resize(num_gpus, 0.0);
        for gpu in 0..num_gpus {
            let st = &mut self.st;
            let sm = self.sm[gpu];
            let my_groups = st.gpu_groups[gpu].clone();
            st.alloc.clear();
            match self.mode {
                DispatchMode::RandomShared { seed } => {
                    let tokens = &mut st.tokens[gpu];
                    tokens.clear();
                    for gi in my_groups.clone() {
                        tokens.extend((0..st.groups[gi].chunks_left).map(|_| gi));
                    }
                    tokens.shuffle(&mut emb_util::seed_rng(split_seed(seed, gpu as u64)));
                }
                DispatchMode::Factored { .. } => {
                    let profile = self.profile.as_ref().expect("built for Factored");
                    let local = my_groups
                        .clone()
                        .find(|&gi| st.groups[gi].src == Location::Gpu(gpu));
                    st.local[gpu] = local;
                    // Dedicate cores per non-local group with work; groups with
                    // work but zero allotted cores borrow one from the largest.
                    let alloc = &mut st.alloc; // (group, cores)
                    let mut used = 0usize;
                    for gi in my_groups.clone().filter(|&gi| Some(gi) != local) {
                        let c = profile.cores[gpu][profile.loc_index(st.groups[gi].src)];
                        alloc.push((gi, c));
                        used += c;
                    }
                    // Trim if over-allocated (host cores cap may not leave room).
                    while used > sm {
                        let max = alloc.iter_mut().max_by_key(|(_, c)| *c).unwrap();
                        max.1 -= 1;
                        used -= 1;
                    }
                    // Every non-local group with pending work needs at least one
                    // core: use spare cores first, then borrow from the largest.
                    for k in 0..alloc.len() {
                        if alloc[k].1 > 0 {
                            continue;
                        }
                        if used < sm {
                            alloc[k].1 = 1;
                            used += 1;
                        } else if let Some(donor) = (0..alloc.len())
                            .filter(|&d| alloc[d].1 > 1)
                            .max_by_key(|&d| alloc[d].1)
                        {
                            alloc[donor].1 -= 1;
                            alloc[k].1 = 1;
                        }
                    }
                }
            }
            let mut chunks_left: u64 = st.groups[my_groups].iter().map(|g| g.chunks_left).sum();
            // Cores `[.., bound)` not yet passed belong to `alloc[a]`; the
            // cores past every allotment are undedicated.
            let (mut a, mut bound) = (0usize, st.alloc.first().map_or(0, |x| x.1));
            for local_idx in 0..sm {
                if chunks_left == 0 {
                    break;
                }
                let st = &mut self.st;
                while a < st.alloc.len() && local_idx >= bound {
                    a += 1;
                    bound += st.alloc.get(a).map_or(0, |x| x.1);
                }
                let ci = st.cores.len();
                st.cores.push(Core {
                    gpu,
                    local_idx,
                    dedicated: st.alloc.get(a).map(|x| x.0),
                    job: None,
                });
                st.job_start.push(0.0);
                st.cursor.push(local_idx);
                let job = self.dispatch(ci);
                chunks_left -= u64::from(job.is_some());
                self.st.cores[ci].job = job;
            }
        }
    }

    /// Next chunk for core `ci` under its GPU's queue discipline, or `None`.
    pub(crate) fn dispatch(&mut self, ci: usize) -> Option<(usize, f64)> {
        dispatch(self.mode, &self.sm, &mut self.st, ci)
    }
}

/// [`Simulator::dispatch`] over the fields it reads, so that the event
/// loop can call it while it holds the simulator's other fields.
fn dispatch(
    mode: DispatchMode,
    sm: &[usize],
    st: &mut SimState,
    ci: usize,
) -> Option<(usize, f64)> {
    /// Pops one chunk from a group, if any remain.
    fn take(groups: &mut [Group], gi: usize) -> Option<(usize, f64)> {
        let g = &mut groups[gi];
        g.chunks_left = g.chunks_left.checked_sub(1)?;
        Some((gi, g.chunk_size))
    }
    let core = &st.cores[ci];
    match mode {
        DispatchMode::RandomShared { .. } => {
            let gi = *st.tokens[core.gpu].get(st.cursor[ci])?;
            st.cursor[ci] += sm[core.gpu];
            take(&mut st.groups, gi)
        }
        DispatchMode::Factored { .. } => {
            if let Some(job) = core.dedicated.and_then(|gi| take(&mut st.groups, gi)) {
                return Some(job);
            }
            take(&mut st.groups, st.local[core.gpu]?)
        }
    }
}

impl Simulator {
    fn run(&mut self, works: &[GpuWork], record: bool) -> (ExtractionResult, ExtractionTrace) {
        // A core whose dispatch returns `None` is permanently retired: no
        // chunk ever returns to a queue.
        self.build_state(works);
        let num_gpus = self.sm.len();
        let congestion = self.cfg.congestion;
        let mut trace = ExtractionTrace::default();

        // Incremental active-set bookkeeping: the initial dispatch forms
        // one cohort per group; `groups[gi].active` and `gpu_busy` are
        // updated on transitions.
        let sc = &mut self.scratch;
        let st = &mut self.st;
        sc.cohorts.reset(st.cores.len(), st.groups.len());
        sc.gpu_busy.clear();
        sc.gpu_busy.resize(num_gpus, 0);
        for (ci, c) in st.cores.iter().enumerate() {
            if let Some((gi, rem)) = c.job {
                st.groups[gi].active += 1;
                sc.gpu_busy[c.gpu] += 1;
                sc.cohorts.join(ci, gi, rem);
            }
        }
        sc.cohorts.seal(0);
        let total_chunks: u64 = st
            .groups
            .iter()
            .map(|g| g.chunks_left + 1) // +1 slack for merged rounding
            .sum::<u64>()
            + sc.gpu_busy.iter().sum::<usize>() as u64;

        // Source-egress sharing applies to switch-based GPU sources and the
        // host; which sources those are and their caps is topology, their
        // candidate reader groups are fixed for the call. Candidates are
        // filtered by the live active counts each step.
        sc.egress_cands.iter_mut().for_each(Vec::clear);
        for (gi, g) in self.st.groups.iter().enumerate() {
            let src = g.slot % (num_gpus + 1);
            if g.src != Location::Gpu(g.gpu) && self.egress_cap[src].is_some() {
                sc.egress_cands[src].push(gi);
            }
        }

        let mut now = 0.0f64; // seconds
        let mut iterations: u64 = 0;
        // Telemetry tallies, recorded once after the loop; counting here is a
        // plain integer add so the disabled path stays free.
        let mut congestion_hits: u64 = 0;
        let mut egress_caps: u64 = 0;
        // Simulated-time spans: per-link contiguous busy intervals and per-GPU
        // partial-stall windows, positioned at the scope clock cursor so
        // sequential simulate() calls inside one collect() stack on a single
        // timeline. Everything span-related is guarded by `spans_on` so the
        // disabled path stays allocation-free.
        let spans_on = emb_telemetry::enabled();
        let base_ns = emb_telemetry::clock_ns();
        sc.stall_open.clear();
        sc.stall_open.resize(num_gpus, None);

        loop {
            iterations += 1;
            assert!(
                iterations <= total_chunks * 4 + 64,
                "extraction simulation failed to converge"
            );

            if sc.cohorts.list.is_empty() {
                break;
            }
            let st = &mut self.st;

            if spans_on {
                // Open/close per-link busy intervals and per-GPU stall windows
                // on active-set transitions; remaining opens are flushed after
                // the loop at the final instant.
                for g in st.groups.iter_mut() {
                    if g.active == 0 {
                        if let Some(open) = g.open.take() {
                            let (c, e) = (g.congested, g.egress_capped);
                            emit_xfer_span(&mut self.names, base_ns, g, &open, now, c, e);
                        }
                    } else if g.open.is_none() {
                        g.open = Some(OpenXfer {
                            start: now,
                            bytes0: g.bytes_done,
                            congest0: g.congested,
                            egress0: g.egress_capped,
                        });
                    }
                }
                for gpu in 0..num_gpus {
                    let partial = sc.gpu_busy[gpu] > 0 && sc.gpu_busy[gpu] < self.sm[gpu];
                    match (sc.stall_open[gpu], partial) {
                        (None, true) => {
                            sc.stall_open[gpu] = Some(OpenStall {
                                start: now,
                                idle_core_secs: 0.0,
                            });
                        }
                        (Some(open), false) => {
                            emit_stall_span(&mut self.names, base_ns, gpu, &open, now);
                            sc.stall_open[gpu] = None;
                        }
                        _ => {}
                    }
                }
            }

            // Per-group raw rates from the congestion model (idle groups keep
            // a zero rate; nothing downstream reads it).
            for g in st.groups.iter_mut() {
                if g.active == 0 {
                    g.rate = 0.0;
                    continue;
                }
                g.rate = effective_bw(g.path.bw, g.path.per_core_bw, g.active, congestion);
                if g.active as f64 * g.path.per_core_bw > g.path.bw {
                    congestion_hits += 1;
                    g.congested += 1;
                }
            }

            // Source-egress sharing, in source-index (= sorted source) order.
            let groups = &mut st.groups;
            for (src, cands) in sc.egress_cands.iter().enumerate() {
                sc.readers.clear();
                sc.readers
                    .extend(cands.iter().copied().filter(|&i| groups[i].active > 0));
                if sc.readers.is_empty() {
                    continue;
                }
                let cap = self.egress_cap[src].expect("candidates only of capped sources");
                let total_cores: usize = sc.readers.iter().map(|&i| groups[i].active).sum();
                // Per-core bandwidth for the egress tolerance: weighted mean of
                // the readers' per-core path bandwidths.
                let pc: f64 = sc
                    .readers
                    .iter()
                    .map(|&i| groups[i].path.per_core_bw * groups[i].active as f64)
                    .sum::<f64>()
                    / total_cores.max(1) as f64;
                let eff_cap = effective_bw(cap, pc, total_cores, congestion).min(cap);
                let demand: f64 = sc.readers.iter().map(|&i| groups[i].rate).sum();
                if demand > eff_cap && demand > 0.0 {
                    egress_caps += 1;
                    let scale = eff_cap / demand;
                    for &i in &sc.readers {
                        groups[i].rate *= scale;
                        groups[i].egress_capped += 1;
                    }
                }
            }

            // Next completion: only busy cores can finish, a cohort at once.
            let mut dt = f64::INFINITY;
            for c in &sc.cohorts.list {
                let g = &st.groups[c.group];
                let r = g.rate / g.active as f64;
                if r > 0.0 {
                    dt = dt.min(c.rem / r);
                }
            }
            assert!(dt.is_finite(), "no progress possible (all rates zero)");

            // Advance.
            for g in st.groups.iter_mut() {
                if g.active > 0 {
                    g.busy += dt;
                    g.bytes_done += g.rate * dt;
                }
            }
            now += dt;
            if spans_on {
                for gpu in 0..num_gpus {
                    if let Some(open) = sc.stall_open[gpu].as_mut() {
                        open.idle_core_secs +=
                            self.sm[gpu].saturating_sub(sc.gpu_busy[gpu]) as f64 * dt;
                    }
                }
            }
            // One `+= dt` per busy core, as a per-core walk adds it.
            for (acc, &busy) in st.core_busy.iter_mut().zip(&sc.gpu_busy) {
                for _ in 0..busy {
                    *acc += dt;
                }
            }
            sc.finished.clear();
            let cohorts = &mut sc.cohorts;
            let mut kept = 0;
            for k in 0..cohorts.list.len() {
                let c = cohorts.list[k];
                let g = &st.groups[c.group];
                let r = g.rate / g.active as f64;
                let rem = c.rem - r * dt;
                if rem <= 1e-6 {
                    st.gpu_finish[g.gpu] = now;
                    let mut ci = c.head;
                    while ci != NIL {
                        sc.finished.push((ci, c.group));
                        ci = cohorts.next[ci];
                    }
                } else {
                    cohorts.list[kept] = Cohort { rem, ..c };
                    kept += 1;
                }
            }
            cohorts.list.truncate(kept);

            if sc.finished.is_empty() {
                continue;
            }

            // Completion transitions: record and retire finished cores,
            // then re-dispatch them in ascending core order — the same
            // order a full scan over all cores would use.
            sc.finished.sort_unstable();
            for &(ci, gi) in &sc.finished {
                let core = &st.cores[ci];
                if record {
                    trace.events.push(TraceEvent {
                        gpu: core.gpu,
                        core: core.local_idx,
                        src: st.groups[gi].src,
                        start: st.job_start[ci],
                        end: now,
                    });
                }
                st.groups[gi].active -= 1;
                sc.gpu_busy[core.gpu] -= 1;
            }
            let first_new = sc.cohorts.list.len();
            for &(ci, _) in &sc.finished {
                let st = &mut self.st;
                if let Some((gi, rem)) = dispatch(self.mode, &self.sm, st, ci) {
                    st.job_start[ci] = now;
                    st.groups[gi].active += 1;
                    sc.gpu_busy[st.cores[ci].gpu] += 1;
                    sc.cohorts.join(ci, gi, rem);
                }
            }
            sc.cohorts.seal(first_new);
        }

        if spans_on {
            // Flush intervals still open at the final instant.
            for g in self.st.groups.iter_mut() {
                if let Some(open) = g.open.take() {
                    let (c, e) = (g.congested, g.egress_capped);
                    emit_xfer_span(&mut self.names, base_ns, g, &open, now, c, e);
                }
            }
            for (gpu, open) in sc.stall_open.iter().enumerate() {
                if let Some(open) = open {
                    emit_stall_span(&mut self.names, base_ns, gpu, open, now);
                }
            }
        }

        let scope = spans_on.then_some(base_ns);
        let result = self.finalize(works, congestion_hits, egress_caps, scope);
        (result, trace)
    }

    /// Assembles the [`ExtractionResult`] and, under a telemetry scope
    /// (`scope` = its clock at call start), records the counters, emits
    /// the per-GPU `extract` spans and advances the scope clock. Shared by
    /// the optimized loop and the frozen reference loop.
    pub(crate) fn finalize(
        &mut self,
        works: &[GpuWork],
        congestion_hits: u64,
        egress_caps: u64,
        scope: Option<u64>,
    ) -> ExtractionResult {
        let st = &self.st;
        let mut per_gpu: Vec<GpuExtraction> = Vec::with_capacity(works.len());
        for w in works {
            // Works naming one GPU were merged into one set of groups;
            // report it once.
            if per_gpu.iter().any(|g| g.gpu == w.gpu) {
                continue;
            }
            let finish = st.gpu_finish[w.gpu];
            per_gpu.push(GpuExtraction {
                gpu: w.gpu,
                time: if finish > 0.0 {
                    SimTime::from_secs_f64(finish) + self.cfg.launch_overhead
                } else {
                    SimTime::ZERO
                },
                core_busy: SimTime::from_secs_f64(st.core_busy[w.gpu]),
                per_src: st.groups[st.gpu_groups[w.gpu].clone()]
                    .iter()
                    .map(|g| LinkUse {
                        src: g.src,
                        bytes: g.bytes_done,
                        busy: SimTime::from_secs_f64(g.busy),
                        peak_bw: g.path.bw,
                    })
                    .collect(),
            });
        }
        let makespan = per_gpu
            .iter()
            .map(|g| g.time)
            .max()
            .unwrap_or(SimTime::ZERO);
        let result = ExtractionResult { makespan, per_gpu };
        let Some(base_ns) = scope else { return result };

        // Per-link, per-flow and per-GPU observability data; counter names
        // are documented in `EXPERIMENTS.md`.
        let mut total_bytes = 0.0f64;
        for g in &result.per_gpu {
            let makespan_s = g.time.as_secs_f64();
            for (u, group) in g
                .per_src
                .iter()
                .zip(&st.groups[st.gpu_groups[g.gpu].clone()])
            {
                total_bytes += u.bytes;
                let link = self.names.link(group);
                link.bytes.add(u.bytes);
                link.busy_secs.add(u.busy.as_secs_f64());
                // Queueing/stall: wall time this GPU was still extracting while
                // the flow had no core serving it.
                let stall = (makespan_s - u.busy.as_secs_f64()).max(0.0);
                link.stall_secs.add(stall);
            }
            let sm = self.sm[g.gpu] as f64;
            if makespan_s > 0.0 && sm > 0.0 {
                let util = g.core_busy.as_secs_f64() / (makespan_s * sm);
                CORE_UTIL.observe(util);
                STALL_CORE_SECS.add((makespan_s * sm - g.core_busy.as_secs_f64()).max(0.0));
            }
        }
        EXTRACTIONS.add(1.0);
        LINK_ACTIVATIONS.add(congestion_hits as f64);
        EGRESS_CAPPED.add(egress_caps as f64);
        emb_telemetry::event("memsim.extract", || {
            let mode_label = match self.mode {
                DispatchMode::RandomShared { .. } => "random",
                DispatchMode::Factored { .. } => "factored",
            };
            Fields::new(
                &[
                    "gpus",
                    "mode",
                    "bytes",
                    "makespan_secs",
                    "congestion_activations",
                    "egress_capped",
                ],
                &[
                    (result.per_gpu.len() as u64).into(),
                    EventValue::Str(mode_label.into()),
                    total_bytes.into(),
                    result.makespan.as_secs_f64().into(),
                    congestion_hits.into(),
                    egress_caps.into(),
                ],
            )
        });
        // One top-level span per GPU covering its whole extraction
        // (including launch overhead), then advance the scope clock past
        // this call so the next simulation starts after it.
        for g in &result.per_gpu {
            if g.time > SimTime::ZERO {
                let bytes: f64 = g.per_src.iter().map(|u| u.bytes).sum();
                let sm = self.sm[g.gpu] as f64;
                let util = if sm > 0.0 {
                    g.core_busy.as_secs_f64() / (g.time.as_secs_f64() * sm)
                } else {
                    0.0
                };
                emb_telemetry::span(
                    self.names.gpu(g.gpu).0,
                    "extract",
                    base_ns,
                    base_ns.saturating_add(g.time.as_nanos()),
                    || Fields::new(&["bytes", "core_util"], &[bytes.into(), util.into()]),
                );
            }
        }
        emb_telemetry::advance_clock_ns(result.makespan.as_nanos());
        result
    }
}

/// Per-link busy interval being accumulated for a span.
#[derive(Debug, Clone)]
pub(crate) struct OpenXfer {
    /// Interval start (engine seconds).
    pub(crate) start: f64,
    /// `bytes_done` of the group at interval start.
    pub(crate) bytes0: f64,
    /// Group congestion-activation count at interval start.
    pub(crate) congest0: u64,
    /// Group egress-cap count at interval start.
    pub(crate) egress0: u64,
}

/// Per-GPU partial-stall window being accumulated for a span.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenStall {
    /// Window start (engine seconds).
    pub(crate) start: f64,
    /// Idle core-seconds accumulated inside the window.
    pub(crate) idle_core_secs: f64,
}

/// Engine seconds → scope-clock nanoseconds.
fn secs_to_scope_ns(base_ns: u64, t: f64) -> u64 {
    base_ns.saturating_add(SimTime::from_secs_f64(t).as_nanos())
}

/// Emits one `xfer` span for a closed per-link busy interval.
pub(crate) fn emit_xfer_span(
    names: &mut Names,
    base_ns: u64,
    g: &Group,
    open: &OpenXfer,
    end: f64,
    congest_now: u64,
    egress_now: u64,
) {
    let bytes = g.bytes_done - open.bytes0;
    let dur_s = end - open.start;
    emb_telemetry::span(
        names.link(g).track,
        "xfer",
        secs_to_scope_ns(base_ns, open.start),
        secs_to_scope_ns(base_ns, end),
        || {
            let gbps = if dur_s > 0.0 {
                bytes / dur_s / 1e9
            } else {
                0.0
            };
            Fields::new(
                &["bytes", "gbps", "congestion_activations", "egress_capped"],
                &[
                    bytes.into(),
                    gbps.into(),
                    (congest_now - open.congest0).into(),
                    (egress_now - open.egress0).into(),
                ],
            )
        },
    );
}

/// Emits one `stall` span for a closed per-GPU partial-stall window.
pub(crate) fn emit_stall_span(
    names: &mut Names,
    base_ns: u64,
    gpu: usize,
    open: &OpenStall,
    end: f64,
) {
    emb_telemetry::span(
        names.gpu(gpu).1,
        "stall",
        secs_to_scope_ns(base_ns, open.start),
        secs_to_scope_ns(base_ns, end),
        || Fields::new(&["idle_core_secs"], &[open.idle_core_secs.into()]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_gpu_work(src: Location, bytes: f64) -> Vec<GpuWork> {
        vec![GpuWork {
            gpu: 0,
            demands: vec![SourceDemand { src, bytes }],
        }]
    }

    fn cfg() -> SimConfig {
        SimConfig {
            launch_overhead: SimTime::ZERO,
            ..SimConfig::default()
        }
    }

    /// Every core of a GPU reading its one source.
    const SHARED: DispatchMode = DispatchMode::RandomShared { seed: 0 };

    fn factored() -> DispatchMode {
        DispatchMode::Factored {
            dedication: DedicationConfig::default(),
        }
    }

    /// Bytes `g` moved from `src` (0 if none).
    fn moved(g: &GpuExtraction, src: Location) -> f64 {
        g.per_src
            .iter()
            .find(|u| u.src == src)
            .map_or(0.0, |u| u.bytes)
    }

    #[test]
    fn local_only_matches_bandwidth() {
        let p = Platform::server_c();
        let bytes = 1e9;
        let r = simulate(&p, &cfg(), &one_gpu_work(Location::Gpu(0), bytes), SHARED);
        let expect = bytes / p.gpus[0].local_bw;
        let got = r.makespan.as_secs_f64();
        assert!(
            (got - expect).abs() / expect < 0.05,
            "expected ~{expect}s got {got}s"
        );
    }

    #[test]
    fn host_only_is_pcie_bound() {
        let p = Platform::server_c();
        let bytes = 1e9;
        let r = simulate(&p, &cfg(), &one_gpu_work(Location::Host, bytes), factored());
        let expect = bytes / p.gpus[0].pcie_bw;
        let got = r.makespan.as_secs_f64();
        assert!(
            (got - expect).abs() / expect < 0.10,
            "expected ~{expect}s got {got}s"
        );
    }

    #[test]
    fn random_dispatch_congests_but_factored_does_not() {
        let p = Platform::server_c();
        // A mix with meaningful host traffic: random dispatch floods PCIe.
        let works: Vec<GpuWork> = (0..8)
            .map(|gpu| GpuWork {
                gpu,
                demands: vec![
                    SourceDemand {
                        src: Location::Gpu(gpu),
                        bytes: 400e6,
                    },
                    SourceDemand {
                        src: Location::Gpu((gpu + 1) % 8),
                        bytes: 200e6,
                    },
                    SourceDemand {
                        src: Location::Host,
                        bytes: 100e6,
                    },
                ],
            })
            .collect();
        let naive = simulate(&p, &cfg(), &works, DispatchMode::RandomShared { seed: 1 });
        let fem = simulate(&p, &cfg(), &works, factored());
        assert!(
            fem.makespan < naive.makespan,
            "FEM {} should beat naive {}",
            fem.makespan,
            naive.makespan
        );
    }

    #[test]
    fn zero_work_zero_time() {
        let p = Platform::server_a();
        let r = simulate(
            &p,
            &cfg(),
            &[GpuWork {
                gpu: 0,
                demands: vec![],
            }],
            factored(),
        );
        assert_eq!(r.makespan, SimTime::ZERO);
    }

    #[test]
    fn byte_accounting_is_exact() {
        let p = Platform::server_a();
        let works = vec![GpuWork {
            gpu: 1,
            demands: vec![
                SourceDemand {
                    src: Location::Gpu(1),
                    bytes: 3e8,
                },
                SourceDemand {
                    src: Location::Gpu(2),
                    bytes: 2e8,
                },
                SourceDemand {
                    src: Location::Host,
                    bytes: 1e8,
                },
            ],
        }];
        let r = simulate(&p, &cfg(), &works, factored());
        let g = &r.per_gpu[0];
        assert!((moved(g, Location::Gpu(1)) - 3e8).abs() < 1e3);
        assert!((moved(g, Location::Gpu(2)) - 2e8).abs() < 1e3);
        assert!((moved(g, Location::Host) - 1e8).abs() < 1e3);
    }

    #[test]
    fn merged_duplicate_sources() {
        let p = Platform::server_a();
        let works = vec![GpuWork {
            gpu: 0,
            demands: vec![
                SourceDemand {
                    src: Location::Gpu(2),
                    bytes: 1e8,
                },
                SourceDemand {
                    src: Location::Gpu(2),
                    bytes: 1e8,
                },
            ],
        }];
        let r = simulate(&p, &cfg(), &works, SHARED);
        assert!((moved(&r.per_gpu[0], Location::Gpu(2)) - 2e8).abs() < 1e3);
    }

    #[test]
    fn works_naming_one_gpu_twice_report_it_once() {
        let p = Platform::server_a();
        let half = |src| GpuWork {
            gpu: 1,
            demands: vec![SourceDemand { src, bytes: 1e8 }],
        };
        let works = vec![
            half(Location::Gpu(2)),
            half(Location::Host),
            half(Location::Gpu(2)),
        ];
        let (r, report) = emb_telemetry::collect(|| simulate(&p, &cfg(), &works, factored()));
        // One entry carrying the merged demands, not one per work.
        assert_eq!(r.per_gpu.len(), 1);
        assert_eq!(r.per_gpu[0].gpu, 1);
        assert!((moved(&r.per_gpu[0], Location::Gpu(2)) - 2e8).abs() < 1e3);
        assert!((moved(&r.per_gpu[0], Location::Host) - 1e8).abs() < 1e3);
        // So nothing summing `per_gpu` — the link counters here — counts
        // the bytes more than once.
        let (_, bytes) = report
            .metrics
            .counters
            .iter()
            .find(|(n, _)| n == "memsim.link.gpu1.gpu2.bytes")
            .expect("link counter");
        assert!((bytes - 2e8).abs() < 1e3, "counted {bytes}");
    }

    #[test]
    #[should_panic(expected = "cannot read")]
    fn unreachable_source_panics() {
        let p = Platform::server_b();
        let _ = simulate(&p, &cfg(), &one_gpu_work(Location::Gpu(5), 1e6), SHARED);
    }

    #[test]
    fn switch_egress_collision_slows_readers() {
        let p = Platform::server_c();
        // GPUs 1..=4 all hammer GPU 0.
        let collide: Vec<GpuWork> = (1..=4)
            .map(|gpu| GpuWork {
                gpu,
                demands: vec![SourceDemand {
                    src: Location::Gpu(0),
                    bytes: 500e6,
                }],
            })
            .collect();
        // Spread over distinct sources would be as bad or worse if egress
        // sharing were not modelled; with it, colliding on one source is
        // clearly slower than each reading its own remote.
        let spread_each: Vec<GpuWork> = (1..=4)
            .map(|gpu| GpuWork {
                gpu,
                demands: vec![SourceDemand {
                    src: Location::Gpu(gpu + 3),
                    bytes: 500e6,
                }],
            })
            .collect();
        let t_collide = simulate(&p, &cfg(), &collide, SHARED).makespan;
        let t_spread = simulate(&p, &cfg(), &spread_each, SHARED).makespan;
        assert!(
            t_collide > t_spread.mul_f64(1.5),
            "collide {} vs spread {}",
            t_collide,
            t_spread
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = Platform::server_c();
        let works: Vec<GpuWork> = (0..8)
            .map(|gpu| GpuWork {
                gpu,
                demands: vec![
                    SourceDemand {
                        src: Location::Gpu(gpu),
                        bytes: 1e8,
                    },
                    SourceDemand {
                        src: Location::Host,
                        bytes: 5e7,
                    },
                ],
            })
            .collect();
        let a = simulate(&p, &cfg(), &works, DispatchMode::RandomShared { seed: 9 });
        let b = simulate(&p, &cfg(), &works, DispatchMode::RandomShared { seed: 9 });
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn spans_cover_extraction_and_stack_on_scope_clock() {
        let p = Platform::server_c();
        let works: Vec<GpuWork> = (0..2)
            .map(|gpu| GpuWork {
                gpu,
                demands: vec![
                    SourceDemand {
                        src: Location::Gpu(gpu),
                        bytes: 2e8,
                    },
                    SourceDemand {
                        src: Location::Host,
                        bytes: 5e7,
                    },
                ],
            })
            .collect();
        let ((r1, r2), report) = emb_telemetry::collect(|| {
            let r1 = simulate(&p, &cfg(), &works, factored());
            let r2 = simulate(&p, &cfg(), &works, factored());
            (r1, r2)
        });
        assert!(!report.spans.is_empty());
        // Every track family is present.
        assert!(report
            .spans
            .iter()
            .any(|s| s.name == "xfer" && s.track.starts_with("gpu0/link:")));
        assert!(report
            .spans
            .iter()
            .any(|s| s.name == "extract" && s.track == "gpu0"));
        // All spans are well-formed and lie inside the two-call horizon.
        let horizon = r1.makespan.as_nanos() + r2.makespan.as_nanos();
        for s in &report.spans {
            assert!(s.end_ns >= s.start_ns, "span {} inverted", s.track);
            assert!(s.end_ns <= horizon, "span {} beyond horizon", s.track);
        }
        // The second call's spans start at or after the first's makespan.
        assert!(report
            .spans
            .iter()
            .any(|s| s.start_ns >= r1.makespan.as_nanos()));
        assert_eq!(report.clock_ns, horizon);
        // Span recording must not perturb the simulation itself.
        let bare = simulate(&p, &cfg(), &works, factored());
        assert_eq!(bare.makespan, r1.makespan);
        assert_eq!(r1.makespan, r2.makespan);
    }

    #[test]
    fn launch_overhead_is_added() {
        let p = Platform::server_a();
        let mut c = cfg();
        c.launch_overhead = SimTime::from_micros(100);
        let r = simulate(&p, &c, &one_gpu_work(Location::Gpu(0), 1e6), SHARED);
        assert!(r.makespan >= SimTime::from_micros(100));
    }
}
