//! The traced pass decomposes the thing measured: over at least 100
//! batches of each step workload — for `dlr_refresh`, across whole
//! refreshes — the shadow pipeline's simulated outcome (makespan,
//! per-GPU times, per-source bytes) and per-tier gather counts equal
//! `UGache`'s to the bit, and no span's children are charged more than
//! the span itself.

use ugache_benchmark::trace::Recorder;
use ugache_benchmark::workloads::{dlr_refresh, gnn_train, Traced};

/// Every step is compared inside `traced_step`; a difference fails the op.
fn assert_bit_equal(traced: &Traced, at_least: u64) {
    assert!(
        traced.log.attempted() >= at_least,
        "only {} batches",
        traced.log.attempted()
    );
    assert_eq!(traced.log.failed(), 0, "{:?}", traced.log.reasons());
}

fn assert_children_fit(rec: &Recorder) {
    let spans = rec.spans();
    let (charged, selfs) = rec.charged_and_self();
    let mut children = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let Some(p) = s.parent.map(|p| p.index()) else {
            continue;
        };
        children[p] += charged[i];
        if !s.aside {
            assert!(
                s.start_ns >= spans[p].start_ns && s.end_ns <= spans[p].end_ns,
                "`{}` is not inside its parent `{}`",
                s.name,
                spans[p].name
            );
        }
    }
    for (i, s) in spans.iter().enumerate() {
        assert!(
            children[i] <= charged[i],
            "children of `{}` are charged {} ns of its {} ns",
            s.name,
            children[i],
            charged[i]
        );
        assert_eq!(selfs[i], charged[i] - children[i]);
    }
    let ledger = rec.ledger();
    assert_eq!(ledger.self_ns.values().sum::<u64>(), ledger.op_ns);
}

#[test]
fn gnn_train_shadow_equals_ugache_over_100_batches() {
    let spec = gnn_train::Spec {
        gnn_scale: 16_384,
        seeds_per_gpu: 128,
        recorded: 100,
    };
    let traced = gnn_train::traced_steps(7, &spec, 100).expect("set-up");
    assert_bit_equal(&traced, 100);
    assert_children_fit(&traced.rec);
}

#[test]
fn dlr_refresh_shadow_equals_ugache_across_refreshes() {
    let spec = dlr_refresh::Spec {
        dlr_scale: 65_536,
        requests_per_gpu: 128,
        recorded: 16,
        steady_steps: 20,
    };
    let traced = dlr_refresh::traced_cycles(7, &spec, 2).expect("set-up");
    assert_bit_equal(&traced, 100);
    assert_children_fit(&traced.rec);
    assert_eq!(traced.rec.counted("refreshes"), 2.0);
    assert!(traced.rec.counted("emb-cache.refresh_rows_moved") > 0.0);
}
