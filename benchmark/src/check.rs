//! Output checks. Each returns `Err` with what differed; the caller runs
//! them inside the op, so a failed check fails the op.

use emb_cache::{GatherStats, HostTable};
use emb_telemetry::{EventValue, Report};
use extractor::ExtractOutcome;

/// Rows sampled per step by [`rows_match_host`] callers (8 GPUs × 8).
pub const ROWS_SAMPLED_PER_STEP: usize = 64;

/// Checks `samples` evenly spaced gathered rows of `out` bit-for-bit
/// against [`HostTable::read_into`]. `salt` shifts which rows are
/// sampled so successive steps look at different ones.
pub fn rows_match_host(
    host: &HostTable,
    keys: &[u32],
    out: &[f32],
    samples: usize,
    salt: usize,
) -> Result<(), String> {
    let dim = host.dim();
    if out.len() != keys.len() * dim {
        return Err(format!(
            "gather buffer holds {} floats for {} keys of dim {dim}",
            out.len(),
            keys.len()
        ));
    }
    if keys.is_empty() {
        return Ok(());
    }
    let mut truth = vec![0.0f32; dim];
    let stride = (keys.len() / samples.max(1)).max(1);
    for s in 0..samples.min(keys.len()) {
        let k = (salt + s * stride) % keys.len();
        host.read_into(keys[k], &mut truth);
        let got = &out[k * dim..(k + 1) * dim];
        if got
            .iter()
            .zip(&truth)
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err(format!(
                "gathered row {k} (key {}) differs from the host table",
                keys[k]
            ));
        }
    }
    Ok(())
}

/// Checks that a gather reported exactly as many keys as were asked.
pub fn stats_cover_keys(stats: &GatherStats, asked: usize) -> Result<(), String> {
    if stats.total() == asked as u64 {
        Ok(())
    } else {
        Err(format!(
            "gather accounted for {} of {asked} keys",
            stats.total()
        ))
    }
}

/// Checks that on every GPU the simulated per-source bytes sum to
/// keys × entry bytes. The simulator adds a source's bytes up chunk by
/// chunk in `f64`, so the sum may be off by rounding — never by a byte.
pub fn bytes_match_keys(
    outcome: &ExtractOutcome,
    keys_per_gpu: &[Vec<u32>],
    entry_bytes: usize,
) -> Result<(), String> {
    if outcome.per_gpu.len() != keys_per_gpu.len() {
        return Err(format!(
            "{} GPU outcomes for {} key batches",
            outcome.per_gpu.len(),
            keys_per_gpu.len()
        ));
    }
    for (g, keys) in outcome.per_gpu.iter().zip(keys_per_gpu) {
        let moved: f64 = g.per_src.iter().map(|u| u.bytes).sum();
        let asked = (keys.len() * entry_bytes) as f64;
        if (moved - asked).abs() >= 0.5 {
            return Err(format!(
                "GPU {}: simulated {moved} bytes for {asked} asked",
                g.gpu
            ));
        }
    }
    Ok(())
}

/// Per-request sums read from a load point's `serve.request` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestSums {
    /// Requests with an event.
    pub requests: u64,
    /// Σ (queue + batch wait + extract) in ns.
    pub parts_ns: u64,
    /// Σ latency in ns.
    pub latency_ns: u64,
}

/// Sums the `serve.request` events of one telemetry scope.
pub fn request_sums(report: &Report) -> RequestSums {
    let mut sums = RequestSums::default();
    for e in report.events.iter().filter(|e| e.name == "serve.request") {
        sums.requests += 1;
        for (name, value) in &e.fields {
            let EventValue::U64(v) = value else { continue };
            match name.as_str() {
                "queue_ns" | "batch_wait_ns" | "extract_ns" => sums.parts_ns += v,
                "latency_ns" => sums.latency_ns += v,
                _ => {}
            }
        }
    }
    sums
}

/// Checks a load point: every request given was served (by the engine's
/// count and by the event stream), and the latency parts add up.
pub fn serve_accounting(served: u64, given: usize, sums: &RequestSums) -> Result<(), String> {
    if served != given as u64 || sums.requests != given as u64 {
        return Err(format!(
            "{given} requests given, {served} served, {} with a serve.request event",
            sums.requests
        ));
    }
    if sums.parts_ns != sums.latency_ns {
        return Err(format!(
            "queue + batch wait + extract = {} ns but latency = {} ns",
            sums.parts_ns, sums.latency_ns
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplog::OpLog;

    #[test]
    fn a_corrupted_gathered_row_fails_the_op() {
        let host = HostTable::procedural(100, 4);
        let keys: Vec<u32> = (0..16).collect();
        let mut out = vec![0.0f32; keys.len() * 4];
        for (k, &key) in keys.iter().enumerate() {
            host.read_into(key, &mut out[k * 4..(k + 1) * 4]);
        }
        let mut log = OpLog::new();
        log.run(Some(0), 1, || rows_match_host(&host, &keys, &out, 16, 0));
        assert_eq!(log.failed(), 0);

        // One flipped mantissa bit in one row.
        out[5 * 4 + 2] = f32::from_bits(out[5 * 4 + 2].to_bits() ^ 1);
        log.run(Some(0), 1, || rows_match_host(&host, &keys, &out, 16, 3));
        assert_eq!((log.attempted(), log.failed()), (2, 1));
        assert!(log.reasons()[0].contains("row 5"));
        // The failed op is in no rate: one good op in its own time.
        let good = log.records()[0].secs;
        assert!((log.undisturbed_rate() - 1.0 / good).abs() <= 1e-9 / good);
        let both: f64 = log.records().iter().map(|r| r.secs).sum();
        assert!((log.overall_rate() - 1.0 / both).abs() <= 1e-9 / both);
    }

    #[test]
    fn a_dropped_request_fails_the_load_point() {
        let whole = RequestSums {
            requests: 100,
            parts_ns: 5_000,
            latency_ns: 5_000,
        };
        assert!(serve_accounting(100, 100, &whole).is_ok());
        assert!(serve_accounting(99, 100, &whole).is_err());
        let short = RequestSums {
            requests: 99,
            ..whole
        };
        assert!(serve_accounting(100, 100, &short).is_err());
        let lost_time = RequestSums {
            parts_ns: 4_999,
            ..whole
        };
        assert!(serve_accounting(100, 100, &lost_time).is_err());

        let mut log = OpLog::new();
        log.run(Some(0), 100, || serve_accounting(99, 100, &whole));
        assert_eq!((log.attempted(), log.failed()), (100, 100));
        assert_eq!(log.undisturbed_rate(), 0.0);
    }

    #[test]
    fn key_and_byte_counts_must_match() {
        let stats = GatherStats {
            local: 3,
            remote: 1,
            host: 1,
        };
        assert!(stats_cover_keys(&stats, 5).is_ok());
        assert!(stats_cover_keys(&stats, 6).is_err());
    }
}
