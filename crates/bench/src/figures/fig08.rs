//! Figures 7/8 (illustrative): the factored-extraction core dedication.
//!
//! Prints, per destination GPU, how many SMs the factored mechanism
//! dedicates to each source and what each path tolerates — the schedule
//! sketched in the paper's Figure 8.

use super::header;
use crate::scenario::Scenario;
use gpu_platform::{DedicationConfig, Location, Platform, Profile};
use serde::Serialize;

/// Dedication summary for one destination GPU.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dedication {
    /// Platform name.
    pub server: String,
    /// Destination GPU.
    pub gpu: usize,
    /// SMs on the destination GPU.
    pub sm_count: usize,
    /// `(source label, dedicated cores, path tolerance)` rows.
    pub groups: Vec<(String, usize, usize)>,
}

/// Computes the dedication tables (no printing).
pub fn compute(_s: &Scenario) -> Vec<Dedication> {
    let mut out = Vec::new();
    for plat in [
        Platform::server_a(),
        Platform::server_b(),
        Platform::server_c(),
    ] {
        let prof = Profile::new(&plat, DedicationConfig::default());
        // GPU 0 is representative; on Server B also show GPU 4 (other clique).
        let gpus: Vec<usize> = if plat.name.contains("ServerB") {
            vec![0, 4]
        } else {
            vec![0]
        };
        for gpu in gpus {
            let mut groups = Vec::new();
            for j in 0..plat.num_gpus() {
                if j == gpu {
                    continue;
                }
                let cores = prof.cores[gpu][j];
                if cores == 0 {
                    continue;
                }
                let tol = plat.path(gpu, Location::Gpu(j)).tolerance();
                groups.push((format!("G{j}"), cores, tol));
            }
            let host_cores = prof.cores[gpu][prof.host_index()];
            let host_tol = plat.path(gpu, Location::Host).tolerance();
            groups.push(("Host".to_string(), host_cores, host_tol));
            out.push(Dedication {
                server: plat.name.clone(),
                gpu,
                sm_count: plat.gpus[gpu].sm_count,
                groups,
            });
        }
    }
    out
}

/// Prints the dedication tables from precomputed data.
pub fn render(dedications: &[Dedication]) {
    let mut last_server: Option<&str> = None;
    for d in dedications {
        if last_server != Some(d.server.as_str()) {
            header(&format!(
                "Figure 8: factored core dedication on {}",
                d.server
            ));
            last_server = Some(d.server.as_str());
        }
        println!("GPU{} ({} SMs):", d.gpu, d.sm_count);
        for (label, cores, tol) in &d.groups {
            if label == "Host" {
                println!("  ← Host: {cores:>2} cores (PCIe tolerates ~{tol})");
                println!("  local extraction pads all cores at low priority");
            } else {
                println!("  ← {label}: {cores:>3} cores (link tolerates ~{tol})");
            }
        }
    }
}
