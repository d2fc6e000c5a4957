//! The extraction-time model of §6.2.
//!
//! Given a placement, hotness, and the platform profile, estimates each
//! GPU's extraction time per iteration exactly as the paper's MILP does:
//!
//! ```text
//! t_i^j  = Σ_e T_{i←j} · h_e · [access_i(e) = j] · bytes
//! t_i   ≥ t_i^j                       (a group is link-bound)
//! t_i   ≥ Σ_j R_{i←j} · t_i^j         (padded-area bound, R_{i←i} = 1)
//! ```
//!
//! `accesses_per_iter` scales normalized hotness to an expected number of
//! entry reads per GPU per iteration.

use crate::types::{Hotness, Placement};
use gpu_platform::Profile;

/// Per-GPU estimated times.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeEstimate {
    /// `per_source[i][j]`: seconds GPU `i` spends on source `j` at full
    /// link rate (the paper's `t_i^j`), `j` indexed `0..=G` (host last).
    pub per_source: Vec<Vec<f64>>,
    /// The per-GPU extraction-time bound `t_i`.
    pub per_gpu: Vec<f64>,
    /// `max_i t_i` — the value the solver minimizes.
    pub makespan: f64,
}

/// Estimates extraction time for a placement (see module docs).
///
/// # Panics
///
/// Panics if dimensions disagree or the placement routes a read over an
/// unreachable pair.
pub fn estimate_extraction_time(
    placement: &Placement,
    hotness: &Hotness,
    profile: &Profile,
    entry_bytes: usize,
    accesses_per_iter: f64,
) -> TimeEstimate {
    let g = placement.num_gpus;
    assert_eq!(profile.num_gpus, g, "profile/placement GPU count mismatch");
    assert_eq!(
        hotness.len(),
        placement.num_entries,
        "hotness length mismatch"
    );

    let total = hotness.total();
    let scale = accesses_per_iter * entry_bytes as f64;
    let host = g;

    // Each non-zero entry's share of the accesses, with the bits
    // `Hotness::normalized` gives it, added to every GPU's sum in entry
    // order. A zero entry's share is `+0.0`, which leaves a sum that
    // starts at `+0.0` with its bits: a sampler's mostly-zero snapshot
    // costs its non-zero entries only.
    let mut per_source = vec![vec![0.0f64; g + 1]; g];
    if total > 0.0 {
        let access: Vec<_> = (0..g).map(|i| placement.access(i)).collect();
        for (e, w) in hotness.nonzeros() {
            let share = w / total;
            for (row, access) in per_source.iter_mut().zip(&access) {
                row[usize::from(access[e as usize])] += share;
            }
        }
    }
    for i in 0..g {
        for j in 0..=host {
            let t = profile.sec_per_byte[i][j];
            if per_source[i][j] > 0.0 {
                assert!(
                    t.is_finite(),
                    "placement routes GPU{i} to unreachable source {j}"
                );
                per_source[i][j] *= t * scale;
            }
        }
    }

    let mut per_gpu = vec![0.0f64; g];
    for i in 0..g {
        let mut t_i: f64 = 0.0;
        for j in 0..=host {
            t_i = t_i.max(per_source[i][j]);
        }
        let padded: f64 = (0..=host).map(|j| per_source[i][j] * profile.r[i][j]).sum();
        per_gpu[i] = t_i.max(padded);
    }
    let makespan = per_gpu.iter().copied().fold(0.0, f64::max);
    TimeEstimate {
        per_source,
        per_gpu,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_platform::{DedicationConfig, Platform, Profile};

    fn profile() -> Profile {
        Profile::new(&Platform::server_a(), DedicationConfig::default())
    }

    fn uniform_hotness(n: usize) -> Hotness {
        Hotness::new(vec![1.0; n])
    }

    #[test]
    fn all_host_time_is_pcie_bound() {
        let prof = profile();
        let p = Placement::all_host(4, 1000);
        let h = uniform_hotness(1000);
        let est = estimate_extraction_time(&p, &h, &prof, 512, 1e6);
        // 1e6 accesses × 512 B = 512 MB over 12 GB/s ≈ 42.7 ms.
        // Host rate is min(PCIe, dedicated host cores × per-core PCIe),
        // slightly under the nominal 12 GB/s.
        let expect = 1e6 * 512.0 / 12e9;
        assert!((est.makespan - expect).abs() / expect < 0.02);
    }

    #[test]
    fn full_replication_time_is_local_bound() {
        let prof = profile();
        let mut p = Placement::all_host(4, 100);
        for i in 0..4 {
            for e in 0..100 {
                p.stored[i].set(e, true);
                p.set_source(i, e, i as u8).unwrap();
            }
        }
        let h = uniform_hotness(100);
        let est = estimate_extraction_time(&p, &h, &prof, 512, 1e6);
        let expect = 1e6 * 512.0 / 320e9;
        assert!((est.makespan - expect).abs() / expect < 1e-9);
        // Replication beats all-host by roughly the bandwidth ratio.
        let host = estimate_extraction_time(&Placement::all_host(4, 100), &h, &prof, 512, 1e6);
        assert!(host.makespan / est.makespan > 20.0);
    }

    #[test]
    fn padded_bound_kicks_in_for_mixed_access() {
        let prof = profile();
        // GPU0 reads half its (uniform) accesses locally, half from GPU1.
        let mut p = Placement::all_host(4, 100);
        for e in 0..100 {
            p.stored[0].set(e, e < 50);
            p.stored[1].set(e, e >= 50);
        }
        // Every GPU reads everything from the two holders.
        for i in 0..4 {
            for e in 0..100 {
                p.set_source(i, e, if e < 50 { 0 } else { 1 }).unwrap();
            }
        }
        p.validate().unwrap();
        let h = uniform_hotness(100);
        let est = estimate_extraction_time(&p, &h, &prof, 512, 1e6);
        // t must be at least the remote-group time on the slowest GPU.
        let remote_secs = 0.5 * 1e6 * 512.0 / 50e9;
        assert!(est.makespan >= remote_secs - 1e-12);
        // And at least the R-weighted padded area for GPU2 (all remote).
        assert!(est.per_gpu[2] >= est.per_source[2][0].max(est.per_source[2][1]));
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn unreachable_access_panics() {
        let pb = Profile::new(&Platform::server_b(), DedicationConfig::default());
        let mut p = Placement::all_host(8, 10);
        p.stored[5].set(0, true);
        p.set_source(0, 0, 5).unwrap(); // 0 and 5 are unconnected on Server B
        let h = uniform_hotness(10);
        let _ = estimate_extraction_time(&p, &h, &pb, 512, 1.0);
    }

    #[test]
    fn makespan_is_max_over_gpus() {
        let prof = profile();
        let mut p = Placement::all_host(4, 10);
        // Only GPU0 gets a local cache; others stay on host.
        for e in 0..10 {
            p.stored[0].set(e, true);
            p.set_source(0, e, 0).unwrap();
        }
        let h = uniform_hotness(10);
        let est = estimate_extraction_time(&p, &h, &prof, 512, 1e6);
        assert!(est.per_gpu[0] < est.per_gpu[1]);
        assert_eq!(est.makespan, est.per_gpu[1]);
    }
}
