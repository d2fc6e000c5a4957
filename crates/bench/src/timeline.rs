//! Per-track timeline summaries derived from telemetry spans.
//!
//! A [`Timeline`] condenses the simulated-time spans of one repro unit's
//! [`emb_telemetry::Report`] into per-track occupancy: how long each
//! track (a link, a GPU's core pool, an extraction tier) was covered by
//! at least one span, what fraction of the unit's simulated extent that
//! is, and a fixed-resolution busy-fraction series for plotting. The
//! summary is embedded in schema-v3 artifacts as the `timeline` block
//! (see EXPERIMENTS.md) and consumed by `repro compare`.

use serde::Serialize;

/// Number of buckets in each track's busy-fraction series.
pub const SERIES_BUCKETS: usize = 16;

/// Occupancy summary of one span track.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrackSummary {
    /// Track id, e.g. `gpu0/link:nvlink->gpu1`.
    pub track: String,
    /// Number of spans recorded on the track.
    pub spans: u64,
    /// Nanoseconds covered by at least one span (interval union, so
    /// overlapping spans are not double-counted).
    pub busy_ns: u64,
    /// `busy_ns` over the timeline extent (0 when the extent is 0).
    pub utilization: f64,
    /// Busy fraction per bucket of the extent, [`SERIES_BUCKETS`] values
    /// in `[0, 1]`.
    pub series: Vec<f64>,
}

/// Per-track occupancy derived from one report's spans.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Timeline {
    /// Simulated extent of the unit in nanoseconds: the scope clock's
    /// final value, or the latest span end if that is later.
    pub extent_ns: u64,
    /// Track summaries, sorted by track id.
    pub tracks: Vec<TrackSummary>,
}

impl Timeline {
    /// True when no spans were recorded (the `timeline` block is omitted
    /// from artifacts in that case).
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// The summary for `track`, if present.
    pub fn track(&self, track: &str) -> Option<&TrackSummary> {
        self.tracks.iter().find(|t| t.track == track)
    }
}

/// Sorts and merges intervals into a disjoint union.
fn merge_intervals(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match merged.last_mut() {
            Some((_, me)) if s <= *me => *me = (*me).max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Builds the timeline summary of one report.
///
/// The extent is `max(report.clock_ns, latest span end)`; tracks come
/// back sorted by id, each with its interval-union busy time,
/// utilization fraction, and a [`SERIES_BUCKETS`]-bucket busy-fraction
/// series. Reports without spans produce an empty timeline.
pub fn from_report(report: &emb_telemetry::Report) -> Timeline {
    let extent_ns = report
        .spans
        .iter()
        .map(|s| s.end_ns)
        .max()
        .unwrap_or(0)
        .max(report.clock_ns);
    let mut names: Vec<&str> = report.spans.iter().map(|s| s.track.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let tracks = names
        .into_iter()
        .map(|name| {
            let raw: Vec<(u64, u64)> = report
                .spans
                .iter()
                .filter(|s| s.track == name)
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            let spans = raw.len() as u64;
            let intervals = merge_intervals(raw);
            let busy_ns: u64 = intervals.iter().map(|(s, e)| e - s).sum();
            let utilization = if extent_ns > 0 {
                busy_ns as f64 / extent_ns as f64
            } else {
                0.0
            };
            TrackSummary {
                track: name.to_string(),
                spans,
                busy_ns,
                utilization,
                series: bucket_series(&intervals, extent_ns),
            }
        })
        .collect();
    Timeline { extent_ns, tracks }
}

/// Busy fraction of each extent bucket covered by the (merged, sorted)
/// intervals.
fn bucket_series(intervals: &[(u64, u64)], extent_ns: u64) -> Vec<f64> {
    let mut series = vec![0.0f64; SERIES_BUCKETS];
    if extent_ns == 0 {
        return series;
    }
    let bucket = extent_ns as f64 / SERIES_BUCKETS as f64;
    for (i, v) in series.iter_mut().enumerate() {
        let lo = i as f64 * bucket;
        let hi = lo + bucket;
        let mut covered = 0.0f64;
        for &(s, e) in intervals {
            let s = s as f64;
            let e = e as f64;
            if e > lo && s < hi {
                covered += e.min(hi) - s.max(lo);
            }
        }
        *v = (covered / bucket).clamp(0.0, 1.0);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(spans: Vec<(&'static str, u64, u64)>, clock_ns: u64) -> emb_telemetry::Report {
        emb_telemetry::collect(|| {
            for (track, s, e) in spans {
                emb_telemetry::span(track, "t", s, e, emb_telemetry::Fields::default);
            }
            emb_telemetry::advance_clock_ns(clock_ns);
        })
        .1
    }

    #[test]
    fn empty_report_empty_timeline() {
        let tl = from_report(&report_with(vec![], 0));
        assert!(tl.is_empty());
        assert_eq!(tl.extent_ns, 0);
    }

    #[test]
    fn overlaps_are_not_double_counted() {
        let tl = from_report(&report_with(vec![("a", 0, 60), ("a", 40, 100)], 100));
        let a = tl.track("a").unwrap();
        assert_eq!(a.spans, 2);
        assert_eq!(a.busy_ns, 100);
        assert!((a.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extent_covers_clock_and_latest_span() {
        let tl = from_report(&report_with(vec![("a", 0, 50)], 200));
        assert_eq!(tl.extent_ns, 200);
        let a = tl.track("a").unwrap();
        assert!((a.utilization - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tracks_sorted_and_series_localized() {
        let tl = from_report(&report_with(vec![("b", 160, 320), ("a", 0, 160)], 320));
        assert_eq!(tl.tracks[0].track, "a");
        assert_eq!(tl.tracks[1].track, "b");
        let a = tl.track("a").unwrap();
        // "a" covers exactly the first half: buckets 0..8 full, rest empty.
        for (i, v) in a.series.iter().enumerate() {
            let expect = if i < SERIES_BUCKETS / 2 { 1.0 } else { 0.0 };
            assert!((v - expect).abs() < 1e-9, "bucket {i}: {v}");
        }
    }

    #[test]
    fn disjoint_gap_counts_once() {
        let tl = from_report(&report_with(vec![("a", 0, 10), ("a", 90, 100)], 100));
        assert_eq!(tl.track("a").unwrap().busy_ns, 20);
    }
}
