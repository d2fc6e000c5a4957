//! Deterministic intra-target parallelism: a scoped, chunk-based worker
//! pool.
//!
//! The repro harness already parallelizes *across* targets (`--jobs N`);
//! this module parallelizes *inside* a target — the gather passes and
//! workload trace generation are embarrassingly parallel — without
//! giving up the byte-determinism the harness is built on. Three rules
//! make that possible:
//!
//! 1. **Fixed chunk boundaries.** Work is cut into chunks whose
//!    boundaries depend only on the input size (and a caller-chosen
//!    chunk length), never on the worker count. Workers *claim* chunks
//!    dynamically, but chunk `i` is the same work at `--threads 1` and
//!    `--threads 8`.
//! 2. **Results land by chunk index.** Each chunk's result is written
//!    into slot `i` of the output; callers always see chunk order, never
//!    completion order.
//! 3. **Telemetry merges in chunk order.** When the calling thread has
//!    an [`emb_telemetry`] scope active, every chunk — on any worker, at
//!    any thread count, *including one* — runs inside its own child
//!    scope, and the child reports are [`emb_telemetry::absorb`]ed into
//!    the caller's scope in chunk-index order after all chunks finish.
//!    Counter totals (f64 sums!), event sequences, and span timelines
//!    are therefore bit-identical across thread counts by construction,
//!    not by accident of scheduling.
//!
//! The worker count is process-global ([`set_threads`], default 1, set
//! once by the `repro --threads N` flag) with a thread-local override
//! ([`with_threads`]) for tests and benches. Worker threads run their
//! chunks with an override of 1, so nested `par_*` calls degrade to
//! serial execution instead of oversubscribing.
//!
//! The width can be set from outside this module but not read: a caller
//! that could read it could run different code at `--threads 1` and
//! `--threads 8`. Callers hand the pool fixed chunks, and a width of 1
//! runs the same chunks inline — there is no serial twin to keep equal.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-global worker count (see [`set_threads`]); 1 = serial.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// Per-thread override; 0 means "no override, use the global".
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Sets the process-global worker count used by the `par_*` functions.
///
/// Intended to be called once at startup (the `repro` binary wires the
/// `--threads N` flag / `REPRO_THREADS` env var here) before any
/// parallel region runs. Scoped callers (tests, benches) should prefer
/// [`with_threads`].
///
/// # Panics
///
/// Panics if `n == 0`; a pool with no workers cannot make progress, and
/// the CLI layer rejects `--threads 0` before it gets here.
pub fn set_threads(n: usize) {
    assert!(n >= 1, "worker count must be >= 1, got 0");
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// The worker count the next `par_*` call on this thread will use: the
/// innermost [`with_threads`] override if one is active, else the
/// [`set_threads`] global (default 1). Private: no caller may read the
/// width (module docs).
fn current_threads() -> usize {
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o != 0 {
        o
    } else {
        GLOBAL_THREADS.load(Ordering::Relaxed)
    }
}

/// Restores the previous thread-local override even if `f` panics.
struct OverrideGuard(usize);

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|o| o.set(self.0));
    }
}

/// Runs `f` with the worker count overridden to `n` on this thread only.
///
/// Overrides nest (the innermost wins) and are restored on unwind, so
/// concurrently running tests can pick their own thread counts without
/// touching the process global.
///
/// # Panics
///
/// Panics if `n == 0`; propagates any panic from `f`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "worker count must be >= 1, got 0");
    let prev = THREAD_OVERRIDE.with(|o| {
        let prev = o.get();
        o.set(n);
        prev
    });
    let _guard = OverrideGuard(prev);
    f()
}

/// One chunk's outcome: the payload plus the telemetry recorded while
/// computing it (present only when the caller had a scope active).
type ChunkOutcome<R> = (R, Option<emb_telemetry::Report>);

/// Runs `f(i)` inside a child telemetry scope when requested.
fn run_chunk<W, R>(scoped: bool, i: usize, work: W, f: &impl Fn(usize, W) -> R) -> ChunkOutcome<R> {
    if scoped {
        let (r, report) = emb_telemetry::collect(|| f(i, work));
        (r, Some(report))
    } else {
        (f(i, work), None)
    }
}

/// The shared executor: runs `f(i, work[i])` for every work item,
/// returning results in item order and absorbing per-chunk telemetry in
/// item order. `W` is whatever a chunk needs to own (`usize`, `&T`,
/// `&mut [T]`, …).
fn execute<W: Send, R: Send>(work: Vec<W>, f: impl Fn(usize, W) -> R + Sync) -> Vec<R> {
    let n = work.len();
    if n == 0 {
        return Vec::new();
    }
    // Telemetry scoping is decided by the *caller's* thread: if a scope
    // is active here, every chunk must record into a child scope — even
    // when run inline — so the merged stream is identical at any worker
    // count (see the module docs).
    let scoped = emb_telemetry::enabled();
    let workers = current_threads().min(n);

    let outcomes: Vec<ChunkOutcome<R>> = if workers <= 1 {
        work.into_iter()
            .enumerate()
            .map(|(i, w)| run_chunk(scoped, i, w, &f))
            .collect()
    } else {
        let pending: Vec<Mutex<Option<W>>> =
            work.into_iter().map(|w| Mutex::new(Some(w))).collect();
        let slots: Vec<Mutex<Option<ChunkOutcome<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // Workers run their chunks serially: a nested par_*
                    // call inside a chunk must not spawn another layer.
                    with_threads(1, || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let w = pending[i]
                            .lock()
                            .expect("work lock")
                            .take()
                            .expect("chunk claimed once");
                        let outcome = run_chunk(scoped, i, w, &f);
                        *slots[i].lock().expect("slot lock") = Some(outcome);
                    })
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot lock").expect("chunk computed"))
            .collect()
    };

    outcomes
        .into_iter()
        .map(|(r, report)| {
            if let Some(report) = report {
                emb_telemetry::absorb(&report);
            }
            r
        })
        .collect()
}

/// Cuts `data` into disjoint mutable chunks of `chunk_len` (chunk `i` is
/// `[i * chunk_len, min((i + 1) * chunk_len, len))`, a function of the
/// input size only) and runs `f(chunk_index, chunk)` for each on the
/// pool, returning the results in chunk order. This is the writer side
/// of the two-pass gather: chunks own disjoint output slices, so no
/// synchronization is needed inside `f`.
///
/// # Panics
///
/// Panics if `chunk_len == 0`; propagates a panic from any invocation of
/// `f` after all workers finish.
pub fn par_chunks_mut<T: Send, R: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    assert!(chunk_len >= 1, "chunk length must be >= 1");
    execute(data.chunks_mut(chunk_len).collect(), f)
}

/// Runs `f(i, work[i])` for every item of `work` on the pool and returns
/// the results in item order. Each item is one chunk, taken by value so
/// it can own mutable state (per-chunk RNGs, scratch buffers) without
/// aliasing; use for coarse-grained items (a per-GPU trace draw), not
/// per-element work.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f` after all workers
/// finish.
pub fn par_map_owned<W: Send, R: Send>(work: Vec<W>, f: impl Fn(usize, W) -> R + Sync) -> Vec<R> {
    execute(work, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_chunk_order() {
        let out = with_threads(4, || par_map_owned((0..64).collect(), |_, i: usize| i * i));
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_slices() {
        for threads in [1, 2, 8] {
            let mut data = vec![0u64; 1000];
            let counts = with_threads(threads, || {
                par_chunks_mut(&mut data, 128, |ci, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = (ci * 128 + k) as u64;
                    }
                    chunk.len()
                })
            });
            assert_eq!(data, (0..1000).collect::<Vec<u64>>());
            assert_eq!(counts, vec![128, 128, 128, 128, 128, 128, 128, 104]);
        }
    }

    #[test]
    fn telemetry_is_identical_across_thread_counts() {
        let run = |threads: usize| {
            emb_telemetry::collect(|| {
                with_threads(threads, || {
                    par_map_owned(vec![(); 16], |i, ()| {
                        emb_telemetry::count("pool.work", 0.1 * (i + 1) as f64);
                        emb_telemetry::observe("pool.size", i as f64);
                        emb_telemetry::event("pool.chunk", || {
                            emb_telemetry::Fields::new(&["i"], &[(i as u64).into()])
                        });
                    })
                });
            })
            .1
        };
        let base = run(1);
        for threads in [2, 3, 8] {
            let r = run(threads);
            assert_eq!(base, r, "threads={threads}");
            // f64 counter totals must match bitwise, not just approximately.
            assert_eq!(
                base.metrics.counters[0].1.to_bits(),
                r.metrics.counters[0].1.to_bits()
            );
        }
        // Events arrive in chunk order with contiguous seqs.
        assert_eq!(base.events.len(), 16);
        for (k, e) in base.events.iter().enumerate() {
            assert_eq!(e.seq, k as u64);
            assert_eq!(e.fields.get("i"), Some((k as u64).into()));
        }
    }

    #[test]
    fn no_scope_means_no_reports() {
        // Recording inside a pool chunk while the caller has no scope is
        // a no-op, same as serial code.
        let out = with_threads(4, || {
            par_map_owned(vec![(); 8], |i, ()| {
                emb_telemetry::count("pool.leak", 1.0);
                i
            })
        });
        assert_eq!(out.len(), 8);
        let ((), report) = emb_telemetry::collect(|| {});
        assert!(report.is_empty(), "chunk records must not leak");
    }

    #[test]
    fn override_nests_and_restores() {
        assert_eq!(current_threads(), 1);
        with_threads(4, || {
            assert_eq!(current_threads(), 4);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 4);
        });
        assert_eq!(current_threads(), 1);
    }

    #[test]
    fn override_restored_after_panic() {
        let caught = std::panic::catch_unwind(|| with_threads(6, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(current_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "worker count must be >= 1")]
    fn zero_threads_rejected() {
        with_threads(0, || {});
    }

    #[test]
    fn par_map_owned_hands_each_item_to_its_own_index() {
        let rngs: Vec<u64> = (0..4).map(|g| crate::split_seed(7, g)).collect();
        let out = with_threads(3, || {
            par_map_owned(rngs.clone(), |i, seed| (i as u64, seed))
        });
        assert_eq!(out.len(), 4);
        for (i, (idx, seed)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*seed, crate::split_seed(7, i as u64));
        }
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(par_map_owned(Vec::<u8>::new(), |i, _| i).is_empty());
        let mut empty: [u8; 0] = [];
        assert!(par_chunks_mut(&mut empty, 4, |_, _| ()).is_empty());
    }
}
