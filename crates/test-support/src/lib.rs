//! Helpers shared by the workspace's test binaries. Only ever a
//! `dev-dependency`: nothing here ships in a library or in `repro`.
//!
//! * [`CountingAlloc`] — a `System`-backed allocator that counts, per
//!   thread. A test binary that wants it declares its own
//!   `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`
//!   and measures with [`allocations`] (calls made) or [`peak_of`] (bytes
//!   held), both on the current thread only, so tests running side by
//!   side in one binary do not see each other. [`resident_bytes`] reads
//!   the whole process's resident set instead.
//! * [`fnv1a`] — the hash the pinned-stream and pinned-placement tests
//!   record their golden values with.
//! * [`sampled_counts`] — access counts shaped like a hotness sampler's
//!   snapshot, the input of the pinned sampled solves and calibrations;
//!   [`zero_share_cases`] — weights from no zero to all zeros.
//!
//! This is one of the two places in the repository with `unsafe` code.
//! The other is `emb-cache`'s host table, whose one block calls the
//! row generator compiled for the vector units the CPU was found to
//! have; CI fails on `unsafe` anywhere else.

#![deny(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting calls and bytes per thread.
pub struct CountingAlloc;

// All three are const-initialised and need no destructor, so touching
// them from inside the allocator never allocates.
thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated less the bytes it freed. A thread can
    /// free what another allocated, so this can fall below zero.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most [`LIVE`] has been since [`peak_of`] last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grew(by: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    let live = LIVE.with(|live| {
        live.set(live.get().wrapping_add_unsigned(by));
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

fn shrank(by: usize) {
    LIVE.with(|live| live.set(live.get().wrapping_sub_unsigned(by)));
}

// SAFETY: delegates every operation unchanged to `System`; the counter
// updates have no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // `System`'s own, so a large zeroed block stays untouched pages.
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block can both be live while the bytes move.
        grew(new_size);
        shrank(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

/// `f`'s result and the allocations (and reallocations) the calling
/// thread made while it ran.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// `f`'s result and the most heap, in bytes, the calling thread held
/// beyond what it held before. What `f` hands to other threads to
/// allocate is not counted (the worker pool runs inline at its default
/// width of one).
pub fn peak_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let result = f();
    let peak = PEAK.with(Cell::get);
    (result, peak.saturating_sub(before).max(0) as usize)
}

/// This process's resident set, in bytes, as `/proc/self/status` reports
/// it: every thread's pages, and pages the allocator freed but kept.
///
/// # Panics
///
/// Panics if the status file has no readable `VmRSS` line.
#[cfg(target_os = "linux")]
pub fn resident_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"));
    let kb: usize = line
        .and_then(|l| l.trim().strip_suffix("kB")?.trim().parse().ok())
        .unwrap();
    kb * 1024
}

/// FNV-1a's 64-bit offset basis: the `hash` to start [`fnv1a`] from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into `hash` with 64-bit FNV-1a.
pub fn fnv1a(hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Access counts as a `HotnessSampler` snapshot holds them: `draws`
/// Zipf(1.2) draws over `n` entries from `seed`, each counted at entry
/// `rank · scatter mod n` — small integers, many repeated, most of the
/// tail zero, and the hot entries scattered over the ids rather than the
/// low ones. The pinned inputs use `scatter` 48 271 and 7.
pub fn sampled_counts(n: usize, draws: usize, seed: u64, scatter: usize) -> Vec<u64> {
    let zipf = emb_util::ZipfSampler::new(n as u64, 1.2);
    let mut rng = emb_util::seed_rng(seed);
    let mut counts = vec![0u64; n];
    for _ in 0..draws {
        counts[zipf.sample(&mut rng) as usize * scatter % n] += 1;
    }
    counts
}

/// Weight vectors over `n` entries from no zero to all zeros, the inputs
/// the sparse-hotness tests pin to recorded hashes: sampled counts plus
/// one with 0 %, 50 % and 97 % of the entries zeroed (every entry `e`
/// with `37·e mod 100` under the share, so zeros and non-zeros
/// interleave), every entry zero, a single non-zero entry, and raw
/// sampled counts with their own zeros.
///
/// # Panics
///
/// Panics if `n` is 12 345 or less.
pub fn zero_share_cases(n: usize) -> Vec<(&'static str, Vec<f64>)> {
    assert!(n > 12_345, "the single non-zero entry is 12 345");
    let counts = sampled_counts(n, 2 * n, 11, 7);
    let zeroed = |share: usize| -> Vec<f64> {
        counts
            .iter()
            .enumerate()
            .map(|(e, &c)| {
                if e * 37 % 100 < share {
                    0.0
                } else {
                    (c + 1) as f64
                }
            })
            .collect()
    };
    let mut one = vec![0.0; n];
    one[12_345] = 3.0;
    let sampled = sampled_counts(n, 3 * n / 10, 12, 48_271);
    vec![
        ("0 % zeros", zeroed(0)),
        ("50 % zeros", zeroed(50)),
        ("97 % zeros", zeroed(97)),
        ("100 % zeros", vec![0.0; n]),
        ("one non-zero", one),
        ("sampled", sampled.iter().map(|&c| c as f64).collect()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, []), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, *b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, *b"foobar"), 0x8594_4171_f739_67e8);
        // Folding in two steps is folding once.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, *b"foo"), *b"bar"),
            0x8594_4171_f739_67e8
        );
    }
}
