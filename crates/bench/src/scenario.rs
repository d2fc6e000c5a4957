//! The scenario registry and the run knobs.
//!
//! A *scenario* is one named workload × platform point. The registry
//! ([`registry`]) names each one so `repro record` can capture its access
//! stream and `repro scenarios` can list it. Names follow the scheme
//! documented in EXPERIMENTS.md ("Scenario registry and access traces"):
//!
//! ```text
//! <family>/<dataset>[/<model>]@<platform>
//! ```
//!
//! e.g. `gnn/pa/sage_sup@server_c`, `dlr/cr@server_a`,
//! `serve/zipf@server_a`. The committed catalog `SCENARIOS.md` is
//! generated from the builtin [`Registry`] and CI fails when they drift.
//!
//! Scale knobs deliberately stay outside the registry in [`Scenario`]:
//! a registry entry names a workload-family point; the knobs size the
//! generated instance (`--full`, `--gnn-scale`, …). Figures build their
//! workloads with [`Scenario::gnn`] / [`Scenario::dlr`] directly.

use cache_policy::Hotness;
use emb_workload::dlr::DlrHotness;
use emb_workload::{
    dlr_preset, gnn_preset, DlrDatasetId, DlrWorkload, GnnDatasetId, GnnModel, GnnWorkload,
};
use gpu_platform::{GpuSpec, Platform};
use serde::Serialize;
use std::sync::OnceLock;

/// Workspace-wide RNG seed for the harness.
pub const SEED: u64 = 0x5EED;

/// Scale and batch knobs for a harness run.
///
/// `quick()` keeps every figure under a few seconds of wall time on a
/// laptop core; `full()` uses larger domains for smoother curves.
///
/// Field order is load-bearing: the struct serializes into every
/// artifact's `scenario` block and the `--trace` header, which must
/// stay byte-identical across refactors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Scenario {
    /// Divisor applied to paper-scale GNN vertex counts.
    pub gnn_scale: usize,
    /// Divisor applied to paper-scale DLR table sizes.
    pub dlr_scale: usize,
    /// GNN seeds per GPU per iteration.
    pub gnn_batch: usize,
    /// DLR requests per GPU per iteration.
    pub dlr_batch: usize,
    /// Iterations measured per data point.
    pub iters: usize,
    /// Simulated client population of the serving sweep.
    pub serve_users: usize,
    /// Requests served per offered-load level of the serving sweep.
    pub serve_requests: usize,
}

impl Scenario {
    /// Fast settings for CI and the default `repro` run.
    pub fn quick() -> Self {
        Scenario {
            gnn_scale: 4096,
            dlr_scale: 8192,
            gnn_batch: 512,
            dlr_batch: 512,
            iters: 2,
            serve_users: 200_000,
            serve_requests: 160,
        }
    }

    /// Larger settings for smoother series.
    pub fn full() -> Self {
        Scenario {
            gnn_scale: 1024,
            dlr_scale: 2048,
            gnn_batch: 1024,
            dlr_batch: 1024,
            iters: 3,
            serve_users: 2_000_000,
            serve_requests: 512,
        }
    }

    /// Builds a GNN workload plus profiled hotness.
    pub fn gnn(
        &self,
        id: GnnDatasetId,
        model: GnnModel,
        platform: &Platform,
    ) -> (GnnWorkload, Hotness) {
        let d = gnn_preset(id, self.gnn_scale, SEED);
        let mut w = GnnWorkload::new(d, model, self.gnn_batch, platform.num_gpus(), SEED);
        let h = w.profile_hotness(2);
        (w, h)
    }

    /// Builds a DLR workload plus analytic hotness.
    pub fn dlr(&self, id: DlrDatasetId, platform: &Platform) -> (DlrWorkload, Hotness) {
        let d = dlr_preset(id, self.dlr_scale);
        let mut w = DlrWorkload::new(d, self.dlr_batch, platform.num_gpus(), SEED);
        let h = w.hotness(DlrHotness::Analytic);
        (w, h)
    }
}

/// The platforms scenarios run on, resolvable by registry name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// `server_a` — 4×V100-16GB, partially connected NVLink (§8.1).
    ServerA,
    /// `server_b` — 8×V100-32GB DGX-1 (§8.1).
    ServerB,
    /// `server_c` — 8×A100-80GB over NVSwitch (§8.1).
    ServerC,
    /// `a100_80` — the single A100-80GB of Table 1.
    SingleA100,
}

impl PlatformId {
    /// Every platform, in registry order.
    pub const ALL: [PlatformId; 4] = [
        PlatformId::ServerA,
        PlatformId::ServerB,
        PlatformId::ServerC,
        PlatformId::SingleA100,
    ];

    /// The three multi-GPU testbeds of §8.1, in figure order.
    pub const SERVERS: [PlatformId; 3] = [
        PlatformId::ServerA,
        PlatformId::ServerB,
        PlatformId::ServerC,
    ];

    /// The registry name (`server_a`, `server_b`, `server_c`,
    /// `a100_80`).
    pub fn name(self) -> &'static str {
        match self {
            PlatformId::ServerA => "server_a",
            PlatformId::ServerB => "server_b",
            PlatformId::ServerC => "server_c",
            PlatformId::SingleA100 => "a100_80",
        }
    }

    /// Builds the platform.
    pub fn resolve(self) -> Platform {
        match self {
            PlatformId::ServerA => Platform::server_a(),
            PlatformId::ServerB => Platform::server_b(),
            PlatformId::ServerC => Platform::server_c(),
            PlatformId::SingleA100 => Platform::single(GpuSpec::a100(80), 1 << 40),
        }
    }
}

/// The workload family a scenario generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadSpec {
    /// GNN training batch stream (k-hop sampled unique keys per GPU).
    Gnn {
        /// Graph dataset preset.
        dataset: GnnDatasetId,
        /// Model (sampler fan-out + MLP depth).
        model: GnnModel,
    },
    /// DLR inference request stream (deduplicated multi-table keys).
    Dlr {
        /// Table-layout preset.
        dataset: DlrDatasetId,
    },
    /// The online serving sweep's Zipfian client population.
    ServeZipf,
}

/// Lowercase dataset slug used in scenario names.
fn gnn_slug(d: GnnDatasetId) -> &'static str {
    match d {
        GnnDatasetId::Pa => "pa",
        GnnDatasetId::Cf => "cf",
        GnnDatasetId::Mag => "mag",
    }
}

/// Lowercase dataset slug used in scenario names.
fn dlr_slug(d: DlrDatasetId) -> &'static str {
    match d {
        DlrDatasetId::Cr => "cr",
        DlrDatasetId::SynA => "syn_a",
        DlrDatasetId::SynB => "syn_b",
    }
}

/// Lowercase model slug used in scenario names.
fn model_slug(m: GnnModel) -> &'static str {
    match m {
        GnnModel::Gcn => "gcn",
        GnnModel::GraphSageSupervised => "sage_sup",
        GnnModel::GraphSageUnsupervised => "sage_unsup",
    }
}

impl WorkloadSpec {
    /// The scenario name this workload gets on `platform`
    /// (`<family>/<dataset>[/<model>]@<platform>`).
    pub fn scenario_name(self, platform: PlatformId) -> String {
        match self {
            WorkloadSpec::Gnn { dataset, model } => format!(
                "gnn/{}/{}@{}",
                gnn_slug(dataset),
                model_slug(model),
                platform.name()
            ),
            WorkloadSpec::Dlr { dataset } => {
                format!("dlr/{}@{}", dlr_slug(dataset), platform.name())
            }
            WorkloadSpec::ServeZipf => format!("serve/zipf@{}", platform.name()),
        }
    }

    /// Human-readable workload label for the catalog (paper display
    /// names).
    pub fn label(self) -> String {
        match self {
            WorkloadSpec::Gnn { dataset, model } => {
                format!("GNN {} / {}", model.name(), dataset.name())
            }
            WorkloadSpec::Dlr { dataset } => format!("DLR {}", dataset.name()),
            WorkloadSpec::ServeZipf => "Serving Zipf clients".to_string(),
        }
    }
}

/// One registered scenario: a named workload × platform point.
#[derive(Debug, Clone)]
pub struct ScenarioDef {
    /// Unique name (`<family>/<dataset>[/<model>]@<platform>`).
    pub name: String,
    /// The workload family point.
    pub workload: WorkloadSpec,
    /// The platform the workload is sized for.
    pub platform: PlatformId,
    /// CLI targets that consume this scenario (catalog metadata).
    pub consumers: Vec<&'static str>,
}

/// A validated, collision-free set of scenario definitions.
#[derive(Debug, Clone)]
pub struct Registry {
    defs: Vec<ScenarioDef>,
}

impl Registry {
    /// Builds a registry, rejecting duplicate names.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first colliding scenario name.
    pub fn new(defs: Vec<ScenarioDef>) -> Result<Registry, String> {
        let mut seen = std::collections::HashSet::new();
        for d in &defs {
            if !seen.insert(d.name.clone()) {
                return Err(format!("duplicate scenario name `{}` in registry", d.name));
            }
        }
        Ok(Registry { defs })
    }

    /// Every definition, in catalog order.
    pub fn defs(&self) -> &[ScenarioDef] {
        &self.defs
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioDef> {
        self.defs.iter().find(|d| d.name == name)
    }
}

/// CLI targets consuming a GNN scenario (kept next to the catalog so
/// `repro scenarios --check` pins it against SCENARIOS.md).
fn gnn_consumers(d: GnnDatasetId, m: GnnModel, p: PlatformId) -> Vec<&'static str> {
    use GnnDatasetId as D;
    use GnnModel as M;
    let mut c: Vec<&'static str> = Vec::new();
    if p == PlatformId::ServerC && d == D::Pa && m == M::GraphSageSupervised {
        c.extend(["fig2", "fig9"]);
    }
    c.extend(["fig10", "fig11"]);
    if p == PlatformId::ServerC {
        if m == M::GraphSageSupervised && (d == D::Pa || d == D::Cf) {
            c.push("fig12");
        }
        if m == M::Gcn && (d == D::Cf || d == D::Mag) {
            c.push("fig13");
        }
        if m == M::GraphSageSupervised && (d == D::Pa || d == D::Cf) {
            c.push("fig14");
        }
        // fig16 measures PA at every scale and adds CF/MAG at
        // gnn_scale <= 1024 (see SCENARIOS.md note).
        c.push("fig16");
        if d == D::Pa && m == M::GraphSageSupervised {
            c.push("hotness");
        }
    }
    c
}

/// CLI targets consuming a DLR scenario.
fn dlr_consumers(d: DlrDatasetId, p: PlatformId) -> Vec<&'static str> {
    use DlrDatasetId as D;
    let mut c: Vec<&'static str> = Vec::new();
    if (p == PlatformId::ServerA || p == PlatformId::ServerC) && (d == D::Cr || d == D::SynA) {
        c.push("fig4");
    }
    c.extend(["fig10", "fig11"]);
    if p == PlatformId::ServerC && (d == D::Cr || d == D::SynA) {
        c.push("fig13");
    }
    if p == PlatformId::ServerA || (p == PlatformId::ServerB && (d == D::SynA || d == D::SynB)) {
        c.push("fig16");
    }
    if p == PlatformId::ServerC && d == D::Cr {
        c.push("fig17");
    }
    c
}

/// The definition of `workload` on `platform`, named by the scheme.
fn def(workload: WorkloadSpec, platform: PlatformId, consumers: Vec<&'static str>) -> ScenarioDef {
    ScenarioDef {
        name: workload.scenario_name(platform),
        workload,
        platform,
        consumers,
    }
}

/// Builds the builtin catalog: every workload × platform point the
/// harness measures, in catalog order (GNN on the three servers, the
/// Table 1 single-GPU GNN, DLR on the three servers, serving).
fn builtin_defs() -> Vec<ScenarioDef> {
    let mut defs = Vec::new();
    let gnn_datasets = [GnnDatasetId::Pa, GnnDatasetId::Cf, GnnDatasetId::Mag];
    for p in PlatformId::SERVERS {
        for d in gnn_datasets {
            for m in GnnModel::ALL {
                let workload = WorkloadSpec::Gnn {
                    dataset: d,
                    model: m,
                };
                defs.push(def(workload, p, gnn_consumers(d, m, p)));
            }
        }
    }
    let table1 = WorkloadSpec::Gnn {
        dataset: GnnDatasetId::Mag,
        model: GnnModel::GraphSageUnsupervised,
    };
    defs.push(def(table1, PlatformId::SingleA100, vec!["table1"]));
    let dlr_datasets = [DlrDatasetId::Cr, DlrDatasetId::SynA, DlrDatasetId::SynB];
    for p in PlatformId::SERVERS {
        for d in dlr_datasets {
            let workload = WorkloadSpec::Dlr { dataset: d };
            defs.push(def(workload, p, dlr_consumers(d, p)));
        }
    }
    defs.push(def(
        WorkloadSpec::ServeZipf,
        PlatformId::ServerA,
        vec!["serve"],
    ));
    defs
}

/// The builtin scenario registry (built once, collision-checked).
///
/// # Panics
///
/// Panics if the builtin catalog contains a duplicate name — a bug
/// caught at first use (and by this module's tests).
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Registry::new(builtin_defs()).expect("builtin catalog is collision-free"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenario_builds_workloads() {
        let s = Scenario::quick();
        let plat = Platform::server_a();
        let (mut w, h) = s.gnn(GnnDatasetId::Pa, GnnModel::GraphSageSupervised, &plat);
        assert!(h.total() > 0.0);
        assert_eq!(w.next_batch().len(), 4);
        let (mut d, hd) = s.dlr(DlrDatasetId::SynA, &plat);
        assert!(hd.total() > 0.0);
        assert_eq!(d.next_batch().len(), 4);
    }

    #[test]
    fn builtin_is_collision_free_and_complete() {
        let r = registry();
        // 27 GNN on servers + 1 Table 1 GNN + 9 DLR + 1 serve.
        assert_eq!(r.defs().len(), 38);
        for d in r.defs() {
            assert_eq!(d.name, d.workload.scenario_name(d.platform));
            assert!(!d.consumers.is_empty(), "{} has no consumers", d.name);
        }
    }

    #[test]
    fn lookups_resolve_expected_names() {
        let r = registry();
        assert!(r.get("gnn/pa/sage_sup@server_c").is_some());
        assert!(r.get("dlr/syn_a@server_b").is_some());
        assert!(r.get("gnn/mag/sage_unsup@a100_80").is_some());
        assert!(r.get("serve/zipf@server_a").is_some());
        assert!(r.get("gnn/pa/sage_sup@server_z").is_none());
        let d = r.get("gnn/pa/sage_sup@server_c").unwrap();
        assert!(d.consumers.contains(&"fig2"));
        assert!(d.consumers.contains(&"hotness"));
    }

    #[test]
    fn collisions_are_rejected() {
        let mut defs = builtin_defs();
        let dup = defs[0].clone();
        defs.push(dup);
        let err = Registry::new(defs).unwrap_err();
        assert!(err.contains("duplicate scenario name"), "{err}");
    }
}
