//! Proves the "zero-cost when disabled" contract: with no `collect`
//! scope active, recording calls perform no heap allocation at all.
//!
//! Lives alone in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide — concurrent tests in the same
//! binary would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation unchanged to `System`; the counter
// update has no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_recording_allocates_nothing() {
    // Warm up the thread-local stack (its first access may initialize
    // lazily) and whatever the runtime touches on first call.
    emb_telemetry::count("warmup", 1.0);
    assert!(!emb_telemetry::enabled());

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..1000 {
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
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "disabled telemetry must not allocate (got {} allocations)",
        after - before
    );
}
