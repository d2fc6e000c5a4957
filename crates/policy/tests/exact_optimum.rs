//! The pattern LP against the exact optimum of the paper's §6.2 model.
//!
//! The paper places entries with a binary MILP: every GPU reads every
//! entry from itself, a reachable peer or the host, a GPU stores what
//! anyone reads from it, and storage is capped per GPU. The objective is
//! `max_i max(max_j t_i^j, Σ_j R_i^j · t_i^j)`, the model
//! [`estimate_extraction_time`] evaluates. On a handful of entries a
//! depth-first search over those per-(entry, GPU) choices finds its
//! optimum. Every `t_i^j` only grows as entries are added, so a partial
//! assignment that already reaches the incumbent cannot lead to a better
//! one, and pruning on it keeps the search exact.

use cache_policy::blocks::BlockConfig;
use cache_policy::{estimate_extraction_time, Hotness, Placement, SolverConfig, UGacheSolver};
use emb_util::zipf::powerlaw_hotness;
use gpu_platform::{DedicationConfig, Interconnect, Location, Platform, Profile};

const ENTRY_BYTES: usize = 512;
const ACCESSES: f64 = 1e5;
/// The oracle keeps a partial assignment's per-source sums in one array.
const MAX_GPUS: usize = 3;
type Sums = [f64; MAX_GPUS * (MAX_GPUS + 1)];

/// Depth-first search over every GPU's source for every entry.
struct Oracle<'a> {
    profile: &'a Profile,
    g: usize,
    /// Each entry's share of the accesses, as the estimate computes it.
    share: Vec<f64>,
    /// `sources[i]`: where GPU `i` may read from — itself, its reachable
    /// peers, then the host, so that cheap assignments are tried first.
    sources: Vec<Vec<usize>>,
    cap_left: Vec<usize>,
    /// `choice[e * g + i]`: the source of the assignment being built.
    choice: Vec<usize>,
    best: f64,
    best_choice: Vec<usize>,
}

impl Oracle<'_> {
    /// The paper model's makespan of the per-source access shares `sums`,
    /// computed the way [`estimate_extraction_time`] computes it.
    fn makespan(&self, sums: &Sums) -> f64 {
        let host = self.g;
        let scale = ACCESSES * ENTRY_BYTES as f64;
        let mut makespan = 0.0f64;
        for i in 0..self.g {
            let (mut link, mut padded) = (0.0f64, 0.0);
            for j in 0..=host {
                let s = sums[i * (host + 1) + j];
                if s > 0.0 {
                    let t = s * (self.profile.sec_per_byte[i][j] * scale);
                    link = link.max(t);
                    padded += t * self.profile.r[i][j];
                }
            }
            makespan = makespan.max(link.max(padded));
        }
        makespan
    }

    /// Chooses GPU `i`'s source for entry `e`. `holders` marks the GPUs
    /// already charged a slot for `e` by GPUs before `i`.
    fn search(&mut self, e: usize, i: usize, holders: u32, sums: Sums) {
        if e == self.share.len() {
            self.best = self.makespan(&sums);
            self.best_choice.clone_from(&self.choice);
            return;
        }
        for k in 0..self.sources[i].len() {
            let j = self.sources[i][k];
            let charge = j < self.g && holders & (1 << j) == 0;
            if charge && self.cap_left[j] == 0 {
                continue;
            }
            let mut next = sums;
            next[i * (self.g + 1) + j] += self.share[e];
            if self.makespan(&next) >= self.best {
                continue;
            }
            if charge {
                self.cap_left[j] -= 1;
            }
            self.choice[e * self.g + i] = j;
            let held = if charge { holders | 1 << j } else { holders };
            if i + 1 == self.g {
                self.search(e + 1, 0, 0, next);
            } else {
                self.search(e, i + 1, held, next);
            }
            if charge {
                self.cap_left[j] += 1;
            }
        }
    }
}

/// The exact optimum of the paper model and a placement that reaches it.
///
/// Entries must be ordered hottest first (pruning then bites early) and
/// the platform must have at most [`MAX_GPUS`] GPUs.
fn exact_optimum(
    platform: &Platform,
    profile: &Profile,
    h: &Hotness,
    caps: &[usize],
) -> (f64, Placement) {
    let g = platform.num_gpus();
    assert!(
        g <= MAX_GPUS,
        "the oracle sizes its sums for {MAX_GPUS} GPUs"
    );
    let weights = h.dense_weights();
    assert!(
        weights.windows(2).all(|w| w[0] >= w[1]),
        "entries must come hottest first"
    );
    let total = h.total();
    let sources = (0..g)
        .map(|i| {
            let peers = (0..g).filter(|&j| j != i && platform.connected(i, Location::Gpu(j)));
            std::iter::once(i).chain(peers).chain([g]).collect()
        })
        .collect();
    let mut oracle = Oracle {
        profile,
        g,
        share: weights.iter().map(|&w| w / total).collect(),
        sources,
        cap_left: caps.to_vec(),
        choice: vec![g; h.len() * g],
        best: f64::INFINITY,
        best_choice: Vec::new(),
    };
    oracle.search(0, 0, 0, [0.0; MAX_GPUS * (MAX_GPUS + 1)]);
    let mut placement = Placement::all_host(g, h.len());
    for (e, row) in oracle.best_choice.chunks(g).enumerate() {
        for (i, &j) in row.iter().enumerate() {
            placement.set_source(i, e, j as u8).unwrap();
            if j < g {
                placement.stored[j].set(e, true);
            }
        }
    }
    (oracle.best, placement)
}

/// The hard-wired server's GPUs `gpus`, with the links among them.
fn cut(mut platform: Platform, gpus: &[usize]) -> Platform {
    platform.gpus = gpus.iter().map(|&i| platform.gpus[i].clone()).collect();
    match &mut platform.interconnect {
        Interconnect::HardWired { pair_bw } => {
            *pair_bw = gpus
                .iter()
                .map(|&i| gpus.iter().map(|&j| pair_bw[i][j]).collect())
                .collect();
        }
        Interconnect::Switch { .. } => unreachable!("only hard-wired servers are cut"),
    }
    platform
}

/// UGache's solve at the fine blocks a few entries need, and its estimate.
fn ugache_estimate(platform: &Platform, profile: &Profile, h: &Hotness, caps: &[usize]) -> f64 {
    let cfg = SolverConfig {
        blocks: BlockConfig {
            coarse_cap: 0.1,
            min_splits: 2,
            max_blocks: 32,
        },
        entry_bytes: ENTRY_BYTES,
        accesses_per_iter: ACCESSES,
        dedup_adjust: false,
    };
    let solver = UGacheSolver::new(platform.clone(), DedicationConfig::default());
    let sp = solver.solve(h, caps, &cfg).unwrap();
    estimate_extraction_time(&sp.placement, h, profile, ENTRY_BYTES, ACCESSES).makespan
}

/// Solves one instance exactly and checks what must hold of the optimum:
/// it is a valid placement within capacity, the estimate of that placement
/// is the optimum, and UGache's placement is no better. Returns the
/// optimum, its placement and UGache's estimate ÷ the optimum.
fn check_instance(
    platform: &Platform,
    entries: usize,
    alpha: f64,
    caps: &[usize],
) -> (f64, Placement, f64) {
    let profile = Profile::new(platform, DedicationConfig::default());
    let h = Hotness::new(powerlaw_hotness(entries, alpha));
    let (optimum, placement) = exact_optimum(platform, &profile, &h, caps);
    placement.validate().unwrap();
    for (j, &cap) in caps.iter().enumerate() {
        assert!(placement.cached_count(j) <= cap, "GPU{j} over capacity");
    }
    let est = estimate_extraction_time(&placement, &h, &profile, ENTRY_BYTES, ACCESSES).makespan;
    assert!(
        (est - optimum).abs() <= 1e-12 * optimum,
        "estimate {est} of the oracle's placement vs optimum {optimum}"
    );
    let ugache = ugache_estimate(platform, &profile, &h, caps);
    assert!(
        optimum <= ugache * (1.0 + 1e-12),
        "optimum {optimum} above UGache's {ugache}"
    );
    println!(
        "{} entries={entries} alpha={alpha} caps={caps:?}: optimum {optimum:.6e} s, ugache/optimum {:.3}",
        platform.name,
        ugache / optimum
    );
    (optimum, placement, ugache / optimum)
}

/// Server A's GPUs 0 and 1: one wired pair.
fn server_a_pair() -> Platform {
    cut(Platform::server_a(), &[0, 1])
}

#[test]
fn pattern_lp_is_near_the_exact_optimum() {
    // The paper reports < 2 % against Gurobi on reduced instances. On a
    // dozen entries UGache's restricted pattern family costs more (1.173×
    // here), so the bound is 25 %.
    let (_, _, ratio) = check_instance(&server_a_pair(), 12, 1.2, &[4, 4]);
    assert!(ratio <= 1.25, "pattern LP at {ratio:.3}× the optimum");
}

#[test]
fn optimum_equals_the_optima_branch_and_bound_proved() {
    // The paper MILP, solved to proven optimality by branch-and-bound on
    // the same instances before that solver was retired.
    let proved = [
        (10, 1.2, [3, 3], 5.81701979484971e-4),
        (8, 1.4, [2, 2], 6.451502477918894e-4),
        (6, 1.2, [6, 6], 1.599999999999999e-4),
        (12, 1.2, [4, 4], 5.416622531567408e-4),
    ];
    for (entries, alpha, caps, milp) in proved {
        let (optimum, _, _) = check_instance(&server_a_pair(), entries, alpha, &caps);
        assert!(
            (optimum - milp).abs() <= 1e-12 * milp,
            "{entries} entries: optimum {optimum} vs branch-and-bound {milp}"
        );
    }
}

#[test]
fn optimum_replicates_when_capacity_is_plentiful() {
    let h = Hotness::new(powerlaw_hotness(6, 1.2));
    let (_, placement, _) = check_instance(&server_a_pair(), 6, 1.2, &[6, 6]);
    assert!(placement.local_hit_rate(&h) > 0.999);
}

#[test]
fn optimum_never_reads_over_an_unconnected_pair() {
    // GPUs 0, 1 and 5 of Server B: 0–1 and 1–5 are wired, 0–5 is not, so
    // the optimum's placement must keep GPU 0 and GPU 5 apart (the estimate
    // panics on a read over the missing link).
    let platform = cut(Platform::server_b(), &[0, 1, 5]);
    assert!(!platform.connected(0, Location::Gpu(2)));
    for (entries, caps) in [(4, [1, 1, 1]), (5, [2, 1, 2]), (6, [2, 2, 2])] {
        check_instance(&platform, entries, 1.2, &caps);
    }
}
