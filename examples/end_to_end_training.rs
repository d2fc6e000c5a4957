//! Fully end-to-end GNN training: real graph sampling, real embedding
//! gathers through UGache, real mean-aggregation and a real MLP trained
//! with backprop — while every iteration's extraction is also timed on
//! the simulated 4×V100 platform. The embedding table stays frozen, as
//! the paper's pre-training setting prescribes (§2).
//!
//! Run with: `cargo run --release --example end_to_end_training`

use cache_policy::Hotness;
use emb_cache::HostTable;
use emb_dense::{mean_aggregate, Matrix, Mlp};
use emb_graph::{generate, GraphConfig};
use emb_util::seed_rng;
use gpu_platform::Platform;
use rand::seq::SliceRandom;
use rand::Rng;
use ugache::{UGache, UGacheConfig};

const DIM: usize = 16;
const FANOUT: usize = 10;
const BATCH: usize = 128;

fn main() {
    // Graph + frozen embeddings.
    let graph = generate(&GraphConfig {
        num_vertices: 30_000,
        avg_degree: 12,
        skew: 1.1,
        seed: 7,
    });
    let n = graph.num_vertices();
    let host = HostTable::procedural(n, DIM);

    // Ground-truth labels the dense head must learn: the sign of a fixed
    // random projection of each vertex's *own* embedding — solvable from
    // the features, impossible without reading real embedding values.
    let mut proj_rng = seed_rng(13);
    let proj: Vec<f32> = (0..DIM).map(|_| proj_rng.gen_range(-1.0..1.0)).collect();
    let label = |v: u32| -> f32 {
        let e = host.read(v);
        let dot: f32 = e.iter().zip(&proj).map(|(a, b)| a * b).sum();
        if dot > 0.0 {
            1.0
        } else {
            0.0
        }
    };

    // UGache over degree-based hotness (PaGraph-style, §6.1).
    let hotness = Hotness::from_counts(&graph.in_degrees());
    let platform = Platform::server_a();
    let cfg = UGacheConfig::new(DIM * 4, (BATCH * (1 + FANOUT)) as f64);
    let mut ugache =
        UGache::build(platform, host.clone(), &hotness, vec![n / 20; 4], cfg).expect("build");

    let mut mlp = Mlp::new(&[DIM * 2, 32, 1], 3);
    let mut rng = seed_rng(21);
    let all: Vec<u32> = (0..n as u32).collect();

    println!(
        "{:>5} {:>10} {:>10} {:>14}",
        "iter", "loss", "acc", "extract(sim)"
    );
    for iter in 0..30 {
        // Sample a seed batch and 1-hop neighbourhoods.
        let seeds: Vec<u32> = all.choose_multiple(&mut rng, BATCH).copied().collect();
        let neighbors: Vec<Vec<u32>> = seeds
            .iter()
            .map(|&s| {
                let nbrs = graph.neighbors(s);
                nbrs.choose_multiple(&mut rng, FANOUT.min(nbrs.len()))
                    .copied()
                    .collect()
            })
            .collect();

        // The union of touched vertices is what the cache must serve; the
        // same batch is timed on the simulated platform (data parallel:
        // every GPU gets this batch shape).
        let mut touched: Vec<u32> = seeds.clone();
        touched.extend(neighbors.iter().flatten());
        touched.sort_unstable();
        touched.dedup();
        let timed = ugache
            .process_iteration(&vec![touched.clone(); 4])
            .extract
            .makespan;

        // Real gathers (GPU rank 0's view) into a local buffer.
        let mut buf = vec![0.0f32; touched.len() * DIM];
        let _stats = ugache.gather(0, &touched, &mut buf);
        let index = |v: u32| -> usize { touched.binary_search(&v).expect("gathered") };
        let feats = mean_aggregate(&seeds, &neighbors, DIM, |v| {
            let i = index(v);
            &buf[i * DIM..(i + 1) * DIM]
        });

        let targets: Vec<f32> = seeds.iter().map(|&s| label(s)).collect();
        let loss = mlp.train_bce(&feats, &targets, 0.3);

        if iter % 5 == 0 || iter == 29 {
            let logits = mlp.forward(&feats);
            let acc = (0..seeds.len())
                .filter(|&r| (logits.at(r, 0) > 0.0) == (targets[r] > 0.5))
                .count() as f64
                / seeds.len() as f64;
            println!(
                "{iter:>5} {loss:>10.4} {acc:>9.1}% {timed:>14}",
                acc = acc * 100.0
            );
        }
    }

    // Sanity: a fresh evaluation batch classified well above chance.
    let eval: Vec<u32> = all.choose_multiple(&mut rng, 512).copied().collect();
    let nbrs: Vec<Vec<u32>> = eval
        .iter()
        .map(|&s| graph.neighbors(s).iter().take(FANOUT).copied().collect())
        .collect();
    let mut touched: Vec<u32> = eval.clone();
    touched.extend(nbrs.iter().flatten());
    touched.sort_unstable();
    touched.dedup();
    let mut buf = vec![0.0f32; touched.len() * DIM];
    let _ = ugache.gather(0, &touched, &mut buf);
    let feats = mean_aggregate(&eval, &nbrs, DIM, |v| {
        let i = touched.binary_search(&v).unwrap();
        &buf[i * DIM..(i + 1) * DIM]
    });
    let logits = mlp.forward(&feats);
    let acc = (0..eval.len())
        .filter(|&r| (logits.at(r, 0) > 0.0) == (label(eval[r]) > 0.5))
        .count() as f64
        / eval.len() as f64;
    println!("held-out accuracy: {:.1}% (chance 50%)", acc * 100.0);
    assert!(acc > 0.8, "training failed to beat chance meaningfully");

    let _ = Matrix::zeros(1, 1);
}
