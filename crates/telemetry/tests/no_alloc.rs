//! Proves the "zero-cost when disabled" contract: with no `collect`
//! scope active, recording calls perform no heap allocation at all.
//!
//! Lives in its own integration-test binary because of the counting
//! `#[global_allocator]` (`test_support::CountingAlloc`).

use test_support::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_recording_allocates_nothing() {
    // Warm up the thread-local stack (its first access may initialize
    // lazily) and whatever the runtime touches on first call.
    emb_telemetry::count("warmup", 1.0);
    assert!(!emb_telemetry::enabled());

    let record = |i: u64| {
        emb_telemetry::count("memsim.extractions", 1.0);
        emb_telemetry::gauge("memsim.core_util", 0.5);
        emb_telemetry::observe("policy.lp.residual", 1e-9);
        emb_telemetry::observe_with_exemplar(
            "serve.latency_ns",
            i as f64,
            emb_telemetry::ReqId(i),
            || {
                // Never invoked while disabled — allocating here is fine.
                vec![("queue_ns".into(), emb_telemetry::EventValue::U64(i))]
            },
        );
        emb_telemetry::event("memsim.extract", || {
            // Never invoked while disabled — allocating here is fine.
            vec![("bytes".into(), emb_telemetry::EventValue::U64(i))]
        });
        // Span recording must be just as free when disabled: the track
        // and name are borrowed, the fields closure is never invoked,
        // and the returned handle is an inert Copy value.
        emb_telemetry::span("gpu0/link:nvlink->gpu1", "xfer", 0, i, || {
            vec![("bytes".into(), emb_telemetry::EventValue::U64(i))]
        });
        let id = emb_telemetry::span_begin("gpu0/cores", "stall", i);
        emb_telemetry::span_end(id, i + 1, || {
            vec![("n".into(), emb_telemetry::EventValue::U64(i))]
        });
        emb_telemetry::advance_clock_ns(i);
        let _ = emb_telemetry::clock_ns();
    };
    let ((), n) = allocations(|| (0..1000).for_each(record));
    assert_eq!(
        n, 0,
        "disabled telemetry must not allocate (got {n} allocations)"
    );
}
