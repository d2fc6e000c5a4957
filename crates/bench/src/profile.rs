//! `repro profile` rendering: top time consumers and stall breakdown.
//!
//! Renders a human-readable profile of one target's simulated-time
//! spans: the top-k tracks by busy time (with utilization over the
//! unit's extent) and a per-GPU stall table aggregated from the
//! simulator's `stall` spans. Pure rendering over [`crate::timeline`]
//! data — the numbers shown are exactly the ones artifacts carry.

use crate::timeline::{self, Timeline};

/// Tracks shown in the top-consumer table.
const TOP_K: usize = 10;

fn fmt_ns(ns: u64) -> String {
    format!("{}", emb_util::SimTime::from_nanos(ns))
}

/// Computes the profile's data: the timeline plus per-GPU stall rows
/// `(gpu track, windows, stalled_ns, idle_core_secs)`.
fn stall_rows(report: &emb_telemetry::Report, tl: &Timeline) -> Vec<(String, u64, u64, f64)> {
    tl.tracks
        .iter()
        .filter(|t| t.track.ends_with("/cores"))
        .map(|t| {
            let idle: f64 = report
                .spans
                .iter()
                .filter(|s| s.track == t.track.as_str() && s.name == "stall")
                .filter_map(|s| match s.fields.get("idle_core_secs") {
                    Some(emb_telemetry::EventValue::F64(x)) => Some(x),
                    _ => None,
                })
                .sum();
            (t.track.clone(), t.spans, t.busy_ns, idle)
        })
        .collect()
}

/// Prints the profile of one target's telemetry report.
///
/// Shows the simulated extent, the top-10 tracks by busy time
/// with their utilization fraction, and the per-GPU stall breakdown
/// (partial-stall windows, stalled wall time, idle core-seconds). A
/// report without spans prints a note instead.
pub fn render_profile(target: &str, report: &emb_telemetry::Report) {
    let tl = timeline::from_report(report);
    println!("== profile: {target} ==");
    if tl.is_empty() {
        println!("  no spans recorded (target never enters instrumented code)");
        return;
    }
    println!("  simulated extent: {}", fmt_ns(tl.extent_ns));
    let mut by_busy: Vec<_> = tl.tracks.iter().collect();
    by_busy.sort_by(|a, b| b.busy_ns.cmp(&a.busy_ns).then(a.track.cmp(&b.track)));
    println!("  top time consumers:");
    println!(
        "    {:<4} {:<36} {:>12} {:>8} {:>7}",
        "#", "track", "busy", "util", "spans"
    );
    for (i, t) in by_busy.iter().take(TOP_K).enumerate() {
        println!(
            "    {:<4} {:<36} {:>12} {:>7.1}% {:>7}",
            i + 1,
            t.track,
            fmt_ns(t.busy_ns),
            t.utilization * 100.0,
            t.spans
        );
    }
    if by_busy.len() > TOP_K {
        println!("    ... {} more tracks", by_busy.len() - TOP_K);
    }
    let stalls = stall_rows(report, &tl);
    if !stalls.is_empty() {
        println!("  per-GPU stall breakdown:");
        println!(
            "    {:<14} {:>8} {:>12} {:>16}",
            "gpu", "windows", "stalled", "idle core-secs"
        );
        for (track, windows, stalled_ns, idle) in &stalls {
            let gpu = track.trim_end_matches("/cores");
            println!(
                "    {:<14} {:>8} {:>12} {:>16.6}",
                gpu,
                windows,
                fmt_ns(*stalled_ns),
                idle
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emb_telemetry::Fields;

    #[test]
    fn stall_rows_aggregate_idle_core_secs() {
        let ((), report) = emb_telemetry::collect(|| {
            let idle = |secs: f64| move || Fields::new(&["idle_core_secs"], &[secs.into()]);
            emb_telemetry::span("gpu0/cores", "stall", 0, 100, idle(0.25));
            emb_telemetry::span("gpu0/cores", "stall", 200, 300, idle(0.5));
            emb_telemetry::span("gpu0/link:pcie->host", "xfer", 0, 300, Fields::default);
            emb_telemetry::advance_clock_ns(300);
        });
        let tl = timeline::from_report(&report);
        let rows = stall_rows(&report, &tl);
        assert_eq!(rows.len(), 1);
        let (track, windows, stalled_ns, idle) = &rows[0];
        assert_eq!(track, "gpu0/cores");
        assert_eq!(*windows, 2);
        assert_eq!(*stalled_ns, 200);
        assert!((idle - 0.75).abs() < 1e-12);
    }
}
