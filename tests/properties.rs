//! Property-based tests over the core data structures and invariants.

use cache_policy::{baselines, build_blocks, BlockConfig, Hotness, SolverConfig, UGacheSolver};
use emb_cache::HotnessSampler;
use emb_workload::dlr::DlrHotness;
use emb_workload::{dlr_preset, DlrDatasetId, DlrWorkload};
use gpu_memsim::{simulate, DispatchMode, GpuWork, SimConfig, SourceDemand};
use gpu_platform::{DedicationConfig, Location, Platform};
use milp::{ConstraintSense, LinExpr, Model};
use proptest::prelude::*;
use rand::Rng;

fn hotness_strategy(max_n: usize) -> impl Strategy<Value = Hotness> {
    prop::collection::vec(0.0f64..10.0, 2..max_n).prop_map(Hotness::new)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Blocks always partition the entry set exactly, regardless of the
    /// hotness distribution or configuration.
    #[test]
    fn blocks_partition_entries(
        h in hotness_strategy(400),
        coarse in 0.001f64..0.2,
        splits in 1usize..9,
        max_blocks in 4usize..64,
    ) {
        let cfg = BlockConfig { coarse_cap: coarse, min_splits: splits, max_blocks };
        let blocks = build_blocks(&h, &cfg);
        let mut all: Vec<u32> = blocks.iter().flat_map(|b| b.entries(&h)).collect();
        all.sort_unstable();
        prop_assert_eq!(all.len(), h.len());
        all.dedup();
        prop_assert_eq!(all.len(), h.len());
        prop_assert!(blocks.len() <= max_blocks.max(1));
    }

    /// The solver's placements always validate and respect capacity, for
    /// arbitrary hotness and capacities, on all three platforms.
    #[test]
    fn solver_placements_are_valid(
        h in hotness_strategy(300),
        cap_frac in 0.0f64..1.0,
        plat_idx in 0usize..3,
    ) {
        let plat = [Platform::server_a(), Platform::server_b(), Platform::server_c()]
            [plat_idx].clone();
        let g = plat.num_gpus();
        let cap = (h.len() as f64 * cap_frac) as usize;
        let solver = UGacheSolver::new(plat, DedicationConfig::default());
        let cfg = SolverConfig {
            blocks: BlockConfig { max_blocks: 24, min_splits: g, coarse_cap: 0.05 },
            entry_bytes: 128,
            accesses_per_iter: 50.0,
            dedup_adjust: true,
        };
        let sp = solver.solve(&h, &vec![cap; g], &cfg).unwrap();
        prop_assert!(sp.placement.validate().is_ok());
        for i in 0..g {
            prop_assert!(sp.placement.cached_count(i) <= cap);
        }
    }

    /// Replication dominates partition in local hit rate; partition
    /// dominates replication in global hit rate (strictly, once capacity
    /// is meaningful and skew is non-degenerate).
    #[test]
    fn rep_vs_part_hit_rate_duality(alpha in 0.8f64..1.6) {
        let n = 2_000usize;
        let h = Hotness::new(emb_util::zipf::powerlaw_hotness(n, alpha));
        let plat = Platform::server_c();
        let cap = n / 20;
        let rep = baselines::replication(&plat, &h, cap);
        let part = baselines::partition(&plat, &h, cap).unwrap();
        prop_assert!(rep.local_hit_rate(&h) >= part.local_hit_rate(&h));
        prop_assert!(part.global_hit_rate(&h) >= rep.global_hit_rate(&h));
    }

    /// The extraction simulator conserves bytes and never reports a
    /// makespan shorter than the best possible single-link time.
    #[test]
    fn simulator_conserves_bytes(
        local_mb in 0.0f64..8.0,
        remote_mb in 0.0f64..8.0,
        host_mb in 0.0f64..4.0,
        seed in 0u64..100,
    ) {
        let plat = Platform::server_a();
        let to_b = 1e6;
        let works = vec![GpuWork {
            gpu: 0,
            demands: vec![
                SourceDemand { src: Location::Gpu(0), bytes: local_mb * to_b },
                SourceDemand { src: Location::Gpu(1), bytes: remote_mb * to_b },
                SourceDemand { src: Location::Host, bytes: host_mb * to_b },
            ],
        }];
        let cfg = SimConfig { launch_overhead: emb_util::SimTime::ZERO, ..SimConfig::default() };
        let r = simulate(&plat, &cfg, &works, DispatchMode::RandomShared { seed });
        let moved: f64 = r.per_gpu[0].per_src.iter().map(|u| u.bytes).sum();
        let expected = (local_mb + remote_mb + host_mb) * to_b;
        prop_assert!((moved - expected).abs() < expected.max(1.0) * 1e-6 + 1.0);
        // Lower bound: every byte class at its own full line rate.
        let lb = (local_mb * to_b / 320e9)
            .max(remote_mb * to_b / 50e9)
            .max(host_mb * to_b / 12e9);
        prop_assert!(r.makespan.as_secs_f64() >= lb * 0.999);
    }

    /// Factored extraction never loses to naive dispatch by more than
    /// scheduling noise — *within the operating envelope the solver
    /// produces*, i.e. remote demand spread across the remote GPUs
    /// (balanced round-robin placement). With all remote bytes aimed at a
    /// single source the static 1/(G−1) core slicing of §5.3 deliberately
    /// under-subscribes, and naive dispatch can win; UGache's placements
    /// never create that shape.
    #[test]
    fn factored_at_least_matches_naive(
        local_mb in 0.5f64..6.0,
        remote_mb in 0.5f64..6.0,
        host_mb in 0.1f64..3.0,
        seed in 0u64..50,
    ) {
        let plat = Platform::server_c();
        let to_b = 1e6;
        let works: Vec<GpuWork> = (0..8)
            .map(|gpu| {
                let mut demands = vec![
                    SourceDemand { src: Location::Gpu(gpu), bytes: local_mb * to_b },
                    SourceDemand { src: Location::Host, bytes: host_mb * to_b },
                ];
                for j in 0..8usize {
                    if j != gpu {
                        demands.push(SourceDemand {
                            src: Location::Gpu(j),
                            bytes: remote_mb * to_b / 7.0,
                        });
                    }
                }
                GpuWork { gpu, demands }
            })
            .collect();
        let cfg = SimConfig { launch_overhead: emb_util::SimTime::ZERO, ..SimConfig::default() };
        let naive = simulate(&plat, &cfg, &works, DispatchMode::RandomShared { seed });
        let fem = simulate(
            &plat,
            &cfg,
            &works,
            DispatchMode::Factored { dedication: DedicationConfig::default() },
        );
        prop_assert!(
            fem.makespan.as_secs_f64() <= naive.makespan.as_secs_f64() * 1.10,
            "fem {} vs naive {}", fem.makespan, naive.makespan
        );
    }

    /// LP solutions are feasible and at least as good as every vertex of
    /// a small random box-constrained LP (brute-force corner check).
    #[test]
    fn simplex_beats_every_corner(
        c0 in -5.0f64..5.0,
        c1 in -5.0f64..5.0,
        c2 in -5.0f64..5.0,
        a in prop::collection::vec(0.1f64..2.0, 6),
        rhs0 in 1.0f64..4.0,
        rhs1 in 1.0f64..4.0,
    ) {
        let mut m = Model::new();
        let costs = [c0, c1, c2];
        let vars: Vec<_> = costs.iter().map(|&c| m.add_var(0.0, 1.0, c)).collect();
        m.add_constraint(
            LinExpr::from_terms(vars.iter().zip(&a[0..3]).map(|(&v, &k)| (v, k))),
            ConstraintSense::Le,
            rhs0,
        );
        m.add_constraint(
            LinExpr::from_terms(vars.iter().zip(&a[3..6]).map(|(&v, &k)| (v, k))),
            ConstraintSense::Le,
            rhs1,
        );
        let sol = milp::solve_lp(&m).unwrap();
        prop_assert!(m.is_feasible(&sol.x, 1e-6));
        // Check against all 8 binary corners that happen to be feasible.
        for mask in 0..8u32 {
            let x: Vec<f64> = (0..3).map(|i| ((mask >> i) & 1) as f64).collect();
            if m.is_feasible(&x, 1e-9) {
                let obj = m.objective_value(&x);
                prop_assert!(sol.objective <= obj + 1e-6, "corner {x:?} beats LP");
            }
        }
    }

    /// Zipf samples stay in range and rank-0 is sampled at least as often
    /// as a deep-tail rank.
    #[test]
    fn zipf_in_range_and_ordered(n in 10u64..5_000, alpha in 0.7f64..1.8, seed in 0u64..50) {
        let z = emb_util::ZipfSampler::new(n, alpha);
        let mut rng = emb_util::seed_rng(seed);
        let mut head = 0u64;
        let mut tail = 0u64;
        for _ in 0..4_000 {
            let k = z.sample(&mut rng);
            prop_assert!(k < n);
            if k == 0 {
                head += 1;
            }
            if k >= n - (n / 4).max(1) {
                tail += 1;
            }
        }
        // Head rank beats the per-rank average of the deep tail.
        let tail_per_rank = tail as f64 / (n as f64 / 4.0).max(1.0);
        prop_assert!(head as f64 + 1.0 >= tail_per_rank);
    }

    /// The latency-percentile estimator returns exactly the nearest-rank
    /// order statistic: on a shuffled uniform grid `0, 1, .., n-1` the
    /// p-th percentile is `round(p/100 * (n-1))` — in particular p50,
    /// p99, and p999 land on their analytically known ranks.
    #[test]
    fn percentile_matches_uniform_grid_rank(
        n in 2usize..4_000,
        seed in 0u64..50,
        p in 0.0f64..100.0,
    ) {
        let mut xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        // Shuffle with the workspace RNG: percentile must not depend on
        // input order.
        let mut rng = emb_util::seed_rng(seed);
        for i in (1..xs.len()).rev() {
            let j = rng.gen_range(0..(i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
        for q in [50.0, 99.0, 99.9, p] {
            let expect = (q / 100.0 * (n - 1) as f64).round();
            prop_assert_eq!(emb_util::stats::percentile(&xs, q), Some(expect));
        }
    }

    /// On exponential samples built from the inverse CDF at grid
    /// quantiles, the estimated p50/p99/p999 converge to the analytic
    /// quantiles `-ln(1 - p/100) / lambda` of the distribution.
    #[test]
    fn percentile_matches_exponential_quantiles(lambda in 0.5f64..50.0) {
        let n = 20_000usize;
        let xs: Vec<f64> = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                -(1.0 - u).ln() / lambda
            })
            .collect();
        for q in [50.0f64, 99.0, 99.9] {
            let analytic = -(1.0 - q / 100.0).ln() / lambda;
            let est = emb_util::stats::percentile(&xs, q).unwrap();
            prop_assert!(
                (est - analytic).abs() / analytic < 0.02,
                "p{q}: estimate {est} vs analytic {analytic}"
            );
        }
    }

    /// Percentiles are always an element of the input and monotone
    /// non-decreasing in `p`, bracketed by the min and max.
    #[test]
    fn percentile_is_an_element_and_monotone(
        xs in prop::collection::vec(-1e6f64..1e6, 1..300),
        p_lo in 0.0f64..100.0,
        p_hi in 0.0f64..100.0,
    ) {
        let (lo, hi) = if p_lo <= p_hi { (p_lo, p_hi) } else { (p_hi, p_lo) };
        let a = emb_util::stats::percentile(&xs, lo).unwrap();
        let b = emb_util::stats::percentile(&xs, hi).unwrap();
        prop_assert!(xs.contains(&a) && xs.contains(&b));
        prop_assert!(a <= b);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(emb_util::stats::percentile(&xs, 0.0), Some(min));
        prop_assert_eq!(emb_util::stats::percentile(&xs, 100.0), Some(max));
    }

    /// Dedup adjustment preserves hotness order and caps weights at 1.
    #[test]
    fn dedup_adjust_preserves_order(h in hotness_strategy(200), uniq in 1.0f64..150.0) {
        let adj = h.dedup_adjusted(uniq);
        prop_assert_eq!(adj.len(), h.len());
        let (adj, h) = (adj.dense_weights(), h.dense_weights());
        for (i, &w) in adj.iter().enumerate() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&w));
            for (j, &w2) in adj.iter().enumerate().skip(i + 1) {
                if h[i] > h[j] {
                    prop_assert!(w >= w2 - 1e-12);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Whatever the weights and the target (`share > 1` is clamped to a
    /// saturating one), skipping decided comparisons leaves every bit of
    /// the frozen every-step bisection's answer.
    #[test]
    fn dedup_adjusted_has_the_frozen_bisections_bits(
        h in hotness_strategy(300),
        share in 0.0005f64..1.2,
    ) {
        let uniq = h.len() as f64 * share;
        let got = h.dedup_adjusted(uniq);
        let want = dedup_adjusted_direct_sum(&h, uniq);
        for (a, b) in got.dense_weights().iter().zip(&want.dense_weights()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// `Hotness::dedup_adjusted` as it stood before it grouped equal weights
/// or skipped a decided comparison, frozen: every bisection step sums
/// `1 − exp(−λ·p_e)` over every entry.
fn dedup_adjusted_direct_sum(h: &Hotness, unique_per_batch: f64) -> Hotness {
    let e = h.len();
    let total = h.total();
    if e == 0 || total <= 0.0 || unique_per_batch <= 0.0 {
        return h.clone();
    }
    let target = unique_per_batch.min(e as f64 * 0.999_999);
    let p: Vec<f64> = h.dense_weights().iter().map(|w| w / total).collect();
    let uniques = |lambda: f64| -> f64 { p.iter().map(|&pi| 1.0 - (-lambda * pi).exp()).sum() };
    let mut lo = 0.0f64;
    let mut hi = target.max(1.0);
    let mut guard = 0;
    while uniques(hi) < target {
        hi *= 2.0;
        guard += 1;
        if guard > 200 {
            break;
        }
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if uniques(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let lambda = 0.5 * (lo + hi);
    Hotness::new(p.iter().map(|&pi| 1.0 - (-lambda * pi).exp()).collect())
}

/// Access counts as a `HotnessSampler` snapshot holds them, hot ids
/// scattered by 7 (`test_support::sampled_counts`).
fn sampled_counts(n: usize, draws: usize, seed: u64) -> Hotness {
    Hotness::from_counts(&test_support::sampled_counts(n, draws, seed, 7))
}

/// The calibration evaluates `exp` per distinct weight or per entry,
/// whichever the input's distinct-value share says, and makes a pass only
/// for a comparison its earlier readings leave open; neither may show:
/// every returned weight has the bits of the direct sum's.
#[test]
fn dedup_adjusted_has_the_bits_of_the_direct_sum_on_both_sides_of_its_switch() {
    let few_nonzero = |n: usize| {
        let mut w = vec![0.0; n];
        for (k, slot) in w.iter_mut().step_by(n / 5).enumerate() {
            *slot = 1.0 + k as f64;
        }
        Hotness::new(w)
    };
    let powerlaw = |n: usize| Hotness::new(emb_util::zipf::powerlaw_hotness(n, 1.2));
    let mostly_zero = |n: usize, nonzero: usize| {
        let mut w = emb_util::zipf::powerlaw_hotness(n, 0.9);
        for slot in w.iter_mut().skip(nonzero) {
            *slot = 0.0;
        }
        Hotness::new(w)
    };
    // The benchmark's DLR shapes, each under its measured uniques:
    // `eval_sweep`'s analytic CR hotness, and what `dlr_refresh` re-solves
    // on, the snapshot of a sampler that counted one key in four of its
    // batches.
    let mut sweep = DlrWorkload::new(dlr_preset(DlrDatasetId::Cr, 8192), 512, 8, 24_301);
    let sweep_uniques = sweep.clone().measure_accesses_per_iter(2);
    let mut refresh = DlrWorkload::new(dlr_preset(DlrDatasetId::Cr, 4096), 1024, 8, 24_301);
    let refresh_uniques = refresh.clone().measure_accesses_per_iter(1);
    let mut sampler = HotnessSampler::new(refresh.dataset().num_entries(), 4);
    for _ in 0..16 {
        for keys in refresh.next_batch() {
            sampler.observe(&keys);
        }
    }
    // (what, hotness, unique keys per batch, at least 16 non-zero entries per
    // distinct value? — `cache-policy`'s private `GROUPED_ENTRIES_PER_DISTINCT`)
    let cases = [
        (
            "sampled counts",
            sampled_counts(4_001, 6_000, 5),
            900.0,
            true,
        ),
        (
            "sampled counts, small table",
            sampled_counts(301, 3_000, 6),
            80.0,
            false,
        ),
        ("all-distinct power law", powerlaw(5_000), 700.0, false),
        ("all equal", Hotness::new(vec![3.0; 1_000]), 200.0, true),
        (
            "all equal, small table",
            Hotness::new(vec![3.0; 10]),
            4.0,
            false,
        ),
        ("one entry", Hotness::new(vec![2.5]), 1.0, false),
        // `target` is clamped to 0.999 999·E.
        (
            "target above the entry count",
            sampled_counts(4_001, 6_000, 7),
            9_000.0,
            true,
        ),
        (
            "target above the entry count, distinct",
            powerlaw(500),
            1_000.0,
            false,
        ),
        // Saturating targets: the crossing sits where the sum is all but
        // flat and the bracket takes many doublings.
        (
            "one entry, saturating",
            Hotness::new(vec![2.5]),
            0.999_999_9,
            false,
        ),
        (
            "two entries, saturating",
            Hotness::new(vec![2.5, 0.5]),
            2.0 * 0.999_999_9,
            false,
        ),
        (
            "17 distinct, saturating",
            powerlaw(17),
            17.0 * 0.999_999_9,
            false,
        ),
        (
            "17 equal, saturating",
            Hotness::new(vec![0.25; 17]),
            17.0 * 0.999_999_9,
            true,
        ),
        (
            "power law, saturating",
            powerlaw(5_000),
            5_000.0 * 0.999_999_9,
            false,
        ),
        (
            "sampled counts, saturating",
            sampled_counts(4_001, 6_000, 8),
            4_001.0 * 0.999_999_9,
            true,
        ),
        ("mostly zero, distinct", mostly_zero(600, 60), 40.0, false),
        (
            "mostly zero, distinct, longer",
            mostly_zero(6_000, 120),
            90.0,
            false,
        ),
        (
            "mostly zero, grouped",
            Hotness::new(
                (0..6_000)
                    .map(|e| if e % 50 == 0 { (1 + e % 7) as f64 } else { 0.0 })
                    .collect(),
            ),
            90.0,
            true,
        ),
        (
            "eval_sweep's CR, analytic",
            sweep.hotness(DlrHotness::Analytic),
            sweep_uniques,
            false,
        ),
        (
            "dlr_refresh's CR, sampled",
            sampler.snapshot(),
            refresh_uniques,
            true,
        ),
        // Σ can never reach the target: the bracket stops at 200 doublings.
        (
            "fewer non-zero entries than the target",
            few_nonzero(2_000),
            100.0,
            false,
        ),
        (
            "fewer non-zero entries than the target, equal",
            Hotness::new((0..2_000).map(|e| f64::from(e % 50 == 0)).collect()),
            100.0,
            true,
        ),
        (
            "fewer non-zero entries than the target, small table",
            few_nonzero(40),
            20.0,
            false,
        ),
    ];
    for (what, h, uniq, grouped) in cases {
        let mut distinct: Vec<u64> = h.nonzeros().map(|(_, w)| w.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len() <= h.nonzero_count() / 16,
            grouped,
            "{what}: {} distinct values among {} non-zero entries is on the wrong side of the switch",
            distinct.len(),
            h.nonzero_count()
        );
        let got = h.dedup_adjusted(uniq);
        let want = dedup_adjusted_direct_sum(&h, uniq);
        assert_eq!(got.len(), want.len(), "{what}");
        let (got, want) = (got.dense_weights(), want.dense_weights());
        for (e, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: entry {e}: {a} vs {b}");
        }
    }
}

/// A `serve_online`-shaped sampler snapshot: 400 000 entries, of which
/// about 3 % hold small non-zero counts.
fn serve_snapshot() -> Hotness {
    sampled_counts(400_000, 85_000, 24_301)
}

#[test]
fn serve_shaped_snapshot_dedup_adjusts_to_the_direct_sums_bits() {
    let h = serve_snapshot();
    let nonzero = h.nonzero_count();
    assert!(
        (8_000..=16_000).contains(&nonzero),
        "{nonzero} non-zero entries"
    );
    for uniq in [900.0, 4_000.0] {
        let got = h.dedup_adjusted(uniq);
        let want = dedup_adjusted_direct_sum(&h, uniq);
        let (got, want) = (got.dense_weights(), want.dense_weights());
        for (e, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "uniques {uniq}: entry {e}");
        }
    }
}

/// `estimate_extraction_time` as it stood before it skipped zero weights,
/// frozen: every entry's `normalized()` share, GPU by GPU, in entry order.
fn estimate_over_every_entry(
    placement: &cache_policy::Placement,
    hotness: &Hotness,
    profile: &gpu_platform::Profile,
    entry_bytes: usize,
    accesses_per_iter: f64,
) -> (Vec<Vec<f64>>, Vec<f64>, f64) {
    let g = placement.num_gpus;
    let norm = hotness.normalized();
    let scale = accesses_per_iter * entry_bytes as f64;
    let mut per_source = vec![vec![0.0f64; g + 1]; g];
    for i in 0..g {
        let access = placement.access(i);
        for (e, &w) in norm.iter().enumerate() {
            per_source[i][access[e] as usize] += w;
        }
        for j in 0..=g {
            if per_source[i][j] > 0.0 {
                per_source[i][j] *= profile.sec_per_byte[i][j] * scale;
            }
        }
    }
    let per_gpu: Vec<f64> = (0..g)
        .map(|i| {
            let t_i = per_source[i].iter().copied().fold(0.0, f64::max);
            let padded: f64 = (0..=g).map(|j| per_source[i][j] * profile.r[i][j]).sum();
            t_i.max(padded)
        })
        .collect();
    let makespan = per_gpu.iter().copied().fold(0.0, f64::max);
    (per_source, per_gpu, makespan)
}

#[test]
fn serve_shaped_snapshot_estimates_to_the_every_entry_loops_bits() {
    let sampled = serve_snapshot();
    let adjusted = sampled.dedup_adjusted(4_000.0);
    let n = sampled.len();
    let server_a = UGacheSolver::new(Platform::server_a(), DedicationConfig::default());
    let mut cfg = SolverConfig::new(512, 4_000.0);
    cfg.dedup_adjust = true;
    let solved = server_a
        .solve_adjusted(&adjusted, &[20_000; 4], &cfg)
        .unwrap()
        .placement;
    let server_c = UGacheSolver::new(Platform::server_c(), DedicationConfig::default());
    let plat_c = server_c.platform();
    let cases = [
        ("server_a, solved", &server_a, solved),
        (
            "server_c, partition",
            &server_c,
            baselines::partition(plat_c, &adjusted, 2_000).unwrap(),
        ),
        (
            "server_c, replication",
            &server_c,
            baselines::replication(plat_c, &adjusted, 2_000),
        ),
        (
            "server_c, all host",
            &server_c,
            cache_policy::Placement::all_host(8, n),
        ),
    ];
    for (what, solver, placement) in &cases {
        for (hotness, which) in [(&sampled, "sampled"), (&adjusted, "adjusted")] {
            let got = cache_policy::estimate_extraction_time(
                placement,
                hotness,
                solver.profile(),
                512,
                4_000.0,
            );
            let (per_source, per_gpu, makespan) =
                estimate_over_every_entry(placement, hotness, solver.profile(), 512, 4_000.0);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (i, row) in per_source.iter().enumerate() {
                assert_eq!(
                    bits(&got.per_source[i]),
                    bits(row),
                    "{what}, {which}: per_source[{i}]"
                );
            }
            assert_eq!(bits(&got.per_gpu), bits(&per_gpu), "{what}, {which}");
            assert_eq!(
                got.makespan.to_bits(),
                makespan.to_bits(),
                "{what}, {which}"
            );
        }
    }
}
