//! Frozen pre-optimization event loop, kept as the differential tests'
//! oracle.
//!
//! [`simulate_reference`] reproduces the original engine loop exactly:
//! every step it recounts the active cores of every group by scanning all
//! cores, re-collects/re-sorts/re-dedups the egress source list, and
//! re-offers work to every idle core with a full rescan. It shares the
//! state construction, dispatch discipline, span emission and result
//! assembly with the optimized engine through a one-shot [`Simulator`],
//! so the two differ
//! only in the per-step bookkeeping — which is the claim
//! the differential tests pin down: bit-identical results, traces and
//! telemetry. Do not "improve" this loop; its value is being the fixed
//! yardstick the incremental loop is compared against.

use crate::bandwidth::effective_bw;
use crate::engine::{
    emit_stall_span, emit_xfer_span, DispatchMode, ExtractionResult, GpuWork, OpenStall, OpenXfer,
    SimConfig, SimState, Simulator,
};
use crate::trace::{ExtractionTrace, TraceEvent};
use gpu_platform::{Interconnect, Location, Platform};

/// [`crate::simulate`] with the original per-step-rescan event loop.
///
/// # Panics
///
/// Panics on the same inputs as [`crate::simulate`] (unreachable source,
/// GPU index out of range, negative/non-finite byte counts).
pub fn simulate_reference(
    platform: &Platform,
    cfg: &SimConfig,
    works: &[GpuWork],
    mode: DispatchMode,
) -> ExtractionResult {
    run_reference(platform, cfg, works, mode, false).0
}

/// [`crate::simulate_traced`] with the original event loop.
///
/// # Panics
///
/// Panics on the same inputs as [`simulate_reference`].
pub fn simulate_reference_traced(
    platform: &Platform,
    cfg: &SimConfig,
    works: &[GpuWork],
    mode: DispatchMode,
) -> (ExtractionResult, ExtractionTrace) {
    run_reference(platform, cfg, works, mode, true)
}

fn run_reference(
    platform: &Platform,
    cfg: &SimConfig,
    works: &[GpuWork],
    mode: DispatchMode,
    record: bool,
) -> (ExtractionResult, ExtractionTrace) {
    // Set-up and initial assignment.
    let mut sim = Simulator::new(platform, cfg, mode);
    sim.build_state(works);
    let mut job_start = vec![0.0f64; sim.st.cores.len()];
    let mut trace = ExtractionTrace::default();

    let total_chunks: u64 = sim
        .st
        .groups
        .iter()
        .map(|g| g.chunks_left + 1) // +1 slack for merged rounding
        .sum::<u64>()
        + sim.st.cores.iter().filter(|c| c.job.is_some()).count() as u64;

    let mut now = 0.0f64; // seconds
    let mut iterations: u64 = 0;
    let mut congestion_hits: u64 = 0;
    let mut egress_caps: u64 = 0;
    let spans_on = emb_telemetry::enabled();
    let base_ns = emb_telemetry::clock_ns();
    let mut xfer_open: Vec<Option<OpenXfer>> = Vec::new();
    let mut grp_congest: Vec<u64> = Vec::new();
    let mut grp_egress: Vec<u64> = Vec::new();
    let mut stall_open: Vec<Option<OpenStall>> = Vec::new();
    let mut gpu_active: Vec<usize> = Vec::new();
    if spans_on {
        xfer_open = (0..sim.st.groups.len()).map(|_| None).collect();
        grp_congest = vec![0; sim.st.groups.len()];
        grp_egress = vec![0; sim.st.groups.len()];
        stall_open = vec![None; platform.num_gpus()];
        gpu_active = vec![0; platform.num_gpus()];
    }

    loop {
        iterations += 1;
        assert!(
            iterations <= total_chunks * 4 + 64,
            "extraction simulation failed to converge"
        );
        let SimState {
            groups,
            cores,
            gpu_finish,
            core_busy,
            ..
        } = &mut sim.st;

        // Count active cores per group — full rescan every step.
        for g in groups.iter_mut() {
            g.active = 0;
        }
        let mut any_active = false;
        for c in cores.iter() {
            if let Some((gi, _)) = c.job {
                groups[gi].active += 1;
                any_active = true;
            }
        }
        if !any_active {
            break;
        }

        if spans_on {
            for (gi, g) in groups.iter().enumerate() {
                match (&xfer_open[gi], g.active > 0) {
                    (None, true) => {
                        xfer_open[gi] = Some(OpenXfer {
                            start: now,
                            bytes0: g.bytes_done,
                            congest0: grp_congest[gi],
                            egress0: grp_egress[gi],
                        });
                    }
                    (Some(open), false) => {
                        emit_xfer_span(
                            &mut sim.names,
                            base_ns,
                            g,
                            open,
                            now,
                            grp_congest[gi],
                            grp_egress[gi],
                        );
                        xfer_open[gi] = None;
                    }
                    _ => {}
                }
            }
            for a in gpu_active.iter_mut() {
                *a = 0;
            }
            for c in cores.iter() {
                if c.job.is_some() {
                    gpu_active[c.gpu] += 1;
                }
            }
            for gpu in 0..platform.num_gpus() {
                let sm = platform.gpus[gpu].sm_count;
                let partial = gpu_active[gpu] > 0 && gpu_active[gpu] < sm;
                match (stall_open[gpu], partial) {
                    (None, true) => {
                        stall_open[gpu] = Some(OpenStall {
                            start: now,
                            idle_core_secs: 0.0,
                        });
                    }
                    (Some(open), false) => {
                        emit_stall_span(&mut sim.names, base_ns, gpu, &open, now);
                        stall_open[gpu] = None;
                    }
                    _ => {}
                }
            }
        }

        // Per-group raw rates from the congestion model.
        for (gi, g) in groups.iter_mut().enumerate() {
            g.rate = effective_bw(g.path.bw, g.path.per_core_bw, g.active, cfg.congestion);
            if g.active as f64 * g.path.per_core_bw > g.path.bw {
                congestion_hits += 1;
                if spans_on {
                    grp_congest[gi] += 1;
                }
            }
        }

        // Source-egress sharing — re-collected and re-sorted every step.
        let switch_based = matches!(platform.interconnect, Interconnect::Switch { .. });
        let mut sources: Vec<Location> = groups
            .iter()
            .filter(|g| g.active > 0 && g.src != Location::Gpu(g.gpu))
            .map(|g| g.src)
            .collect();
        sources.sort();
        sources.dedup();
        for src in sources {
            let egress_applies = match src {
                Location::Host => true,
                Location::Gpu(_) => switch_based,
            };
            if !egress_applies {
                continue;
            }
            let cap = platform.outbound_bw(src);
            let readers: Vec<usize> = groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.src == src && g.src != Location::Gpu(g.gpu) && g.active > 0)
                .map(|(i, _)| i)
                .collect();
            let total_cores: usize = readers.iter().map(|&i| groups[i].active).sum();
            let pc: f64 = readers
                .iter()
                .map(|&i| groups[i].path.per_core_bw * groups[i].active as f64)
                .sum::<f64>()
                / total_cores.max(1) as f64;
            let eff_cap = effective_bw(cap, pc, total_cores, cfg.congestion).min(cap);
            let demand: f64 = readers.iter().map(|&i| groups[i].rate).sum();
            if demand > eff_cap && demand > 0.0 {
                egress_caps += 1;
                let scale = eff_cap / demand;
                for &i in &readers {
                    groups[i].rate *= scale;
                    if spans_on {
                        grp_egress[i] += 1;
                    }
                }
            }
        }

        // Next completion.
        let mut dt = f64::INFINITY;
        for c in cores.iter() {
            if let Some((gi, rem)) = c.job {
                let g = &groups[gi];
                let r = g.rate / g.active as f64;
                if r > 0.0 {
                    dt = dt.min(rem / r);
                }
            }
        }
        assert!(dt.is_finite(), "no progress possible (all rates zero)");

        // Advance.
        for g in groups.iter_mut() {
            if g.active > 0 {
                g.busy += dt;
                g.bytes_done += g.rate * dt;
            }
        }
        now += dt;
        if spans_on {
            for gpu in 0..platform.num_gpus() {
                if let Some(open) = stall_open[gpu].as_mut() {
                    let sm = platform.gpus[gpu].sm_count;
                    open.idle_core_secs += sm.saturating_sub(gpu_active[gpu]) as f64 * dt;
                }
            }
        }
        let mut finished: Vec<usize> = Vec::new();
        for (ci, c) in cores.iter_mut().enumerate() {
            if let Some((gi, rem)) = c.job.as_mut() {
                let g = &groups[*gi];
                let r = g.rate / g.active as f64;
                core_busy[c.gpu] += dt;
                *rem -= r * dt;
                if *rem <= 1e-6 {
                    gpu_finish[c.gpu] = now;
                    if record {
                        trace.events.push(TraceEvent {
                            gpu: c.gpu,
                            core: c.local_idx,
                            src: groups[*gi].src,
                            start: job_start[ci],
                            end: now,
                        });
                    }
                    finished.push(ci);
                }
            }
        }
        for ci in finished {
            let job = sim.dispatch(ci);
            sim.st.cores[ci].job = job;
            job_start[ci] = now;
        }
        // The original full rescan of idle cores. No chunk ever returns to
        // a queue, so it finds none with work (the differential suite's
        // `revived` check).
        for ci in 0..sim.st.cores.len() {
            if sim.st.cores[ci].job.is_none() {
                let job = sim.dispatch(ci);
                sim.st.cores[ci].job = job;
                if job.is_some() {
                    job_start[ci] = now;
                }
            }
        }
    }

    if spans_on {
        for (gi, open) in xfer_open.iter().enumerate() {
            if let Some(open) = open {
                emit_xfer_span(
                    &mut sim.names,
                    base_ns,
                    &sim.st.groups[gi],
                    open,
                    now,
                    grp_congest[gi],
                    grp_egress[gi],
                );
            }
        }
        for (gpu, open) in stall_open.iter().enumerate() {
            if let Some(open) = open {
                emit_stall_span(&mut sim.names, base_ns, gpu, open, now);
            }
        }
    }

    let scope = spans_on.then_some(base_ns);
    let result = sim.finalize(works, congestion_hits, egress_caps, scope);
    (result, trace)
}
