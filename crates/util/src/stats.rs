//! Percentile and geometric-mean helpers.

/// Computes an exact percentile of a slice via quickselect (O(n) expected
/// instead of sorting the whole copy; same nearest-rank answer).
///
/// Returns `None` for an empty slice. `p` is in `[0, 100]`.
///
/// # Panics
///
/// Panics if the input contains a NaN.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    let rank = (p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64).round() as usize;
    let (_, kth, _) = v.select_nth_unstable_by(rank, |a, b| {
        a.partial_cmp(b).expect("NaN in percentile input")
    });
    Some(*kth)
}

/// Geometric mean of positive values; `None` if empty or any value <= 0.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_exact() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 50.0), Some(3.0));
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_matches_full_sort() {
        // The quickselect path must agree with the original sort-based
        // implementation at every rank, including ties and duplicates.
        let sorted_impl = |xs: &[f64], p: f64| -> Option<f64> {
            if xs.is_empty() {
                return None;
            }
            let mut v: Vec<f64> = xs.to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
            let rank = (p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64).round() as usize;
            Some(v[rank])
        };
        use rand::Rng;
        let mut rng = crate::seed_rng(0x5EED);
        for len in [1usize, 2, 3, 7, 100, 501] {
            let xs: Vec<f64> = (0..len).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let mut with_ties = xs.clone();
            with_ties.extend(xs.iter().take(len / 2).copied());
            for p in [-5.0, 0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 100.0, 250.0] {
                assert_eq!(percentile(&xs, p), sorted_impl(&xs, p), "len {len} p {p}");
                assert_eq!(
                    percentile(&with_ties, p),
                    sorted_impl(&with_ties, p),
                    "ties len {len} p {p}"
                );
            }
        }
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
