//! Every generated stream, pinned to the bit.
//!
//! The hashes below were recorded at the commit *before* the generator
//! kernels were rewritten (table-guided Zipf draws, scratch
//! Fisher–Yates fanout sampling, mark-and-scan dedup; designs in the
//! module docs of `emb_util::zipf`, `emb_util::marks` and
//! `emb_graph::sample`), from the rejection-inversion sampler,
//! `choose_multiple` and sort + dedup as they stood. A generator change
//! that moves one of them has changed a stream, and with it every `sim_`
//! metric, `baselines/quick` and every recorded trace.

use emb_graph::{generate, GraphConfig};
use emb_serve::ClientPopulation;
use emb_util::pool::with_threads;
use emb_util::seed_rng;
use emb_workload::dlr::DlrHotness;
use emb_workload::{
    dlr_preset, gnn_preset, DlrDatasetId, DlrWorkload, GnnDatasetId, GnnModel, GnnWorkload,
};
use test_support::{fnv1a, FNV_OFFSET};

/// FNV-1a over `u64` words.
#[derive(Debug)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn word(&mut self, x: u64) {
        self.0 = fnv1a(self.0, x.to_le_bytes());
    }

    /// Length first, so `[1, 2], [3]` and `[1], [2, 3]` differ.
    fn keys(&mut self, keys: &[u32]) {
        self.word(keys.len() as u64);
        for &k in keys {
            self.word(k as u64);
        }
    }

    fn weights(&mut self, weights: &[f64]) {
        self.word(weights.len() as u64);
        for w in weights {
            self.word(w.to_bits());
        }
    }
}

/// The pool widths every stream is drawn at.
const WIDTHS: [usize; 2] = [1, 4];

/// Three batches, then a two-iteration profile from where they left the
/// RNGs and the epoch cursor.
fn gnn_stream(dataset: GnnDatasetId, model: GnnModel) -> (u64, u64) {
    let mut w = GnnWorkload::new(gnn_preset(dataset, 4096, 31), model, 96, 3, 0xA11CE);
    let mut batches = Fnv::new();
    for _ in 0..3 {
        for keys in w.next_batch() {
            batches.keys(&keys);
        }
    }
    let mut hotness = Fnv::new();
    hotness.weights(&w.profile_hotness(2).dense_weights());
    (batches.0, hotness.0)
}

#[test]
fn gnn_batches_and_profiles_are_the_recorded_streams() {
    // One dataset per model, so all three graph skews (PA 1.15, CF 1.0 —
    // the nudged exponent — and MAG 1.10) are drawn from.
    let cases = [
        (
            GnnDatasetId::Pa,
            GnnModel::GraphSageSupervised,
            (0x4EDB_969E_FBD8_5802, 0xD2E5_FADD_11F2_AB7D),
        ),
        (
            GnnDatasetId::Cf,
            GnnModel::Gcn,
            (0xB559_8D32_480B_8AA4, 0x9F3E_4E84_DCEE_EF38),
        ),
        (
            GnnDatasetId::Mag,
            GnnModel::GraphSageUnsupervised,
            (0xAC90_F225_4AF5_C4D6, 0xAF2E_1827_106B_7CE9),
        ),
    ];
    for (dataset, model, recorded) in cases {
        for threads in WIDTHS {
            let got = with_threads(threads, || gnn_stream(dataset, model));
            assert_eq!(
                got,
                recorded,
                "{} / {} at width {threads}: got ({:#018X}, {:#018X})",
                dataset.name(),
                model.name(),
                got.0,
                got.1
            );
        }
    }
}

/// Three batches.
fn dlr_stream(dataset: DlrDatasetId, scale_div: usize) -> u64 {
    let mut w = DlrWorkload::new(dlr_preset(dataset, scale_div), 192, 3, 0xD1CE);
    let mut batches = Fnv::new();
    for _ in 0..3 {
        for keys in w.next_batch() {
            batches.keys(&keys);
        }
    }
    batches.0
}

#[test]
fn dlr_batches_are_the_recorded_streams() {
    // Scales chosen so tables sit on both sides of the sampler's head
    // table: CR runs from 68 906 entries down to 17, SYN-A's hundred
    // tables hold 7 812 each, SYN-B's 1 953.
    let cases = [
        (DlrDatasetId::Cr, 4096, 0x32D4_01B2_C898_0809),
        (DlrDatasetId::SynA, 1024, 0xBC4F_659E_1D76_DE42),
        (DlrDatasetId::SynB, 4096, 0x1A2C_F669_72B7_B504),
    ];
    for (dataset, scale_div, recorded) in cases {
        for threads in WIDTHS {
            let got = with_threads(threads, || dlr_stream(dataset, scale_div));
            assert_eq!(
                got,
                recorded,
                "{} at width {threads}: got {got:#018X}",
                dataset.name()
            );
        }
    }
}

#[test]
fn analytic_hotness_has_the_recorded_bits() {
    // Recorded when each rank's `powf` was evaluated twice (once for the
    // normaliser, once for the weight); one evaluation must sum and
    // divide to the same bits.
    let cases = [
        (DlrDatasetId::Cr, 0xBA88_4487_8ADC_0E61u64),
        (DlrDatasetId::SynB, 0x0BB5_58D8_57B3_EB61),
    ];
    for (dataset, recorded) in cases {
        let mut w = DlrWorkload::new(dlr_preset(dataset, 4096), 8, 1, 1);
        let mut h = Fnv::new();
        h.weights(&w.hotness(DlrHotness::Analytic).dense_weights());
        assert_eq!(h.0, recorded, "{}: got {:#018X}", dataset.name(), h.0);
    }
}

fn graph_hash(cfg: &GraphConfig) -> u64 {
    let g = generate(cfg);
    let mut h = Fnv::new();
    h.word(g.num_vertices() as u64);
    for v in 0..g.num_vertices() as u32 {
        h.keys(g.neighbors(v));
    }
    h.0
}

#[test]
fn generated_graphs_are_the_recorded_graphs() {
    let cases = [
        (
            GraphConfig {
                num_vertices: 30_000,
                avg_degree: 12,
                skew: 1.05,
                seed: 77,
            },
            0xCBD1_6B24_F1B6_C414u64,
        ),
        // Fewer vertices than the head table holds ranks, exponent 1.
        (
            GraphConfig {
                num_vertices: 3_000,
                avg_degree: 20,
                skew: 1.0,
                seed: 78,
            },
            0xF53D_3713_FA61_7E07,
        ),
    ];
    for (cfg, recorded) in cases {
        for threads in WIDTHS {
            let got = with_threads(threads, || graph_hash(&cfg));
            assert_eq!(got, recorded, "{cfg:?} at width {threads}: got {got:#018X}");
        }
    }
}

#[test]
fn client_requests_are_the_recorded_requests() {
    // `serve_online`'s table: 400 k keys, α = 1.05, 32 keys a request.
    let recorded = 0x4868_930D_8EE6_4DB6u64;
    for threads in WIDTHS {
        let got = with_threads(threads, || {
            let mut clients = ClientPopulation::new(0x5E4E, 200_000, 400_000, 1.05, 32);
            let mut rng = seed_rng(9);
            let mut h = Fnv::new();
            for _ in 0..300 {
                let request = clients.next_request(&mut rng);
                h.word(request.user);
                h.keys(&request.keys);
            }
            h.0
        });
        assert_eq!(got, recorded, "width {threads}: got {got:#018X}");
    }
}
