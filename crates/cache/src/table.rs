//! The host-resident embedding table.

/// The full `N × D` embedding table living in host memory.
///
/// Values are computed on demand from a hash of `(entry, dim)`, never
/// stored: paper-scale tables (hundreds of GB) cannot be materialized on
/// a development box, and the functional layer needs only that every read
/// of the same entry returns the same vector, which this gives at O(1)
/// memory.
#[derive(Debug, Clone, PartialEq)]
pub struct HostTable {
    num_entries: usize,
    dim: usize,
}

impl HostTable {
    /// Creates a procedural table (O(1) memory).
    pub fn procedural(num_entries: usize, dim: usize) -> Self {
        HostTable { num_entries, dim }
    }

    /// Number of entries `N`.
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// Embedding dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bytes per entry (f32 elements).
    pub fn entry_bytes(&self) -> usize {
        self.dim * std::mem::size_of::<f32>()
    }

    /// Total logical size in bytes (the paper's `VolumeE`).
    pub fn volume_bytes(&self) -> u64 {
        self.num_entries as u64 * self.entry_bytes() as u64
    }

    /// Reads entry `e` into `out`, computed on the widest vector units
    /// this CPU has.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or `out.len() != dim`.
    pub fn read_into(&self, e: u32, out: &mut [f32]) {
        assert!((e as usize) < self.num_entries, "entry {e} out of range");
        assert_eq!(out.len(), self.dim, "output slice has wrong dim");
        procedural_row_on(RowTier::Avx512, e, out);
    }

    /// Returns entry `e` as a fresh vector.
    pub fn read(&self, e: u32) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        self.read_into(e, &mut out);
        out
    }
}

/// Deterministic pseudo-random value in `[-1, 1)` for `(entry, dim)`: the
/// one definition of a host value. Every row loop inlines it.
#[inline(always)]
fn procedural_value(e: u32, d: u32) -> f32 {
    let mut z = (e as u64) << 32 | d as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Map the top 24 bits to [-1, 1).
    ((z >> 40) as f32 / (1u64 << 23) as f32) - 1.0
}

/// The row loop: `out[d] = procedural_value(e, d)`. Compiled as it
/// stands, it is the portable tier; inlined into [`row_avx512`] and
/// [`row_avx2`], the compiler vectorizes it for those instruction sets.
///
/// Every tier writes the same bits: the hash is integer arithmetic,
/// `z >> 40` is below 2^24 so its conversion to `f32` is exact, and the
/// scaling by 2^-23 and the subtraction of 1 are exact too (Rust never
/// fuses them into an FMA).
#[inline(always)]
fn row_portable(e: u32, out: &mut [f32]) {
    for (d, v) in out.iter_mut().enumerate() {
        *v = procedural_value(e, d as u32);
    }
}

/// [`row_portable`] on the AVX-512 units (eight 64-bit lanes, with the
/// 64-bit multiply and `u64 → f32` conversion of AVX-512DQ).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn row_avx512(e: u32, out: &mut [f32]) {
    row_portable(e, out);
}

/// [`row_portable`] on the AVX2 units (four 64-bit lanes).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn row_avx2(e: u32, out: &mut [f32]) {
    row_portable(e, out);
}

/// The compilations of the row loop, widest first. Only x86-64 runs the
/// vector tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum RowTier {
    Avx512,
    Avx2,
    Portable,
}

/// Writes entry `e`'s row into `out` on the widest tier no wider than
/// `widest` that this CPU runs; returns the tier that ran. `is_x86_feature_detected!` caches
/// what it finds, so after the first row a tier costs a load and a test.
fn procedural_row_on(widest: RowTier, e: u32, out: &mut [f32]) -> RowTier {
    #[cfg(target_arch = "x86_64")]
    {
        let tier = if widest == RowTier::Avx512
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
        {
            RowTier::Avx512
        } else if widest <= RowTier::Avx2 && is_x86_feature_detected!("avx2") {
            RowTier::Avx2
        } else {
            RowTier::Portable
        };
        // SAFETY: `tier` names a vector tier only where the detection just
        // above found every feature its function is compiled with.
        unsafe {
            match tier {
                RowTier::Avx512 => row_avx512(e, out),
                RowTier::Avx2 => row_avx2(e, out),
                RowTier::Portable => row_portable(e, out),
            }
        }
        tier
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = widest;
        row_portable(e, out);
        RowTier::Portable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use test_support::{fnv1a, FNV_OFFSET};

    /// The rows the generator is pinned on: the first entries, the top
    /// bit, the last entry; rows shorter than a vector, ragged around
    /// one, and around the 128 dims the benchmark serves.
    const PINNED_ENTRIES: [u32; 5] = [0, 1, 31, 1 << 31, u32::MAX];
    const PINNED_DIMS: [usize; 7] = [1, 3, 8, 127, 128, 129, 256];

    #[test]
    fn host_rows_have_the_recorded_bits() {
        // The gather checks compare rows with `HostTable::read`, the same
        // generator; this pins the generator itself. Recorded before the
        // row loop had vector tiers.
        let mut hash = FNV_OFFSET;
        for dim in PINNED_DIMS {
            let table = HostTable::procedural(1 << 32, dim);
            for e in PINNED_ENTRIES {
                let row = table.read(e);
                hash = fnv1a(hash, row.iter().flat_map(|v| v.to_bits().to_le_bytes()));
            }
        }
        assert_eq!(hash, 0x7a54_a9f8_7385_80fd);
    }

    #[test]
    fn every_tier_this_cpu_runs_writes_procedural_values() {
        let mut ran = BTreeSet::new();
        for widest in [RowTier::Avx512, RowTier::Avx2, RowTier::Portable] {
            for dim in PINNED_DIMS {
                for e in PINNED_ENTRIES {
                    let mut row = vec![f32::NAN; dim];
                    let tier = procedural_row_on(widest, e, &mut row);
                    assert!(tier >= widest, "asked for at most {widest:?}, ran {tier:?}");
                    for (d, v) in row.iter().enumerate() {
                        let want = procedural_value(e, d as u32);
                        assert_eq!(v.to_bits(), want.to_bits(), "{tier:?}: entry {e}, dim {d}");
                    }
                    ran.insert(tier);
                }
            }
        }
        // Every tier the CPU has was among those checked.
        let mut supported = BTreeSet::from([RowTier::Portable]);
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                supported.insert(RowTier::Avx2);
            }
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512vl")
            {
                supported.insert(RowTier::Avx512);
            }
        }
        assert_eq!(ran, supported);
    }

    #[test]
    fn reads_are_stable() {
        let t = HostTable::procedural(100, 16);
        assert_eq!(t.read(42), t.read(42));
        assert_ne!(t.read(42), t.read(43));
    }

    #[test]
    fn values_in_range() {
        let t = HostTable::procedural(1000, 4);
        for e in 0..1000u32 {
            for v in t.read(e) {
                assert!((-1.0..1.0).contains(&v), "value {v}");
            }
        }
    }

    #[test]
    fn volume_accounting() {
        let t = HostTable::procedural(1000, 128);
        assert_eq!(t.entry_bytes(), 512);
        assert_eq!(t.volume_bytes(), 512_000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let t = HostTable::procedural(10, 4);
        let _ = t.read(10);
    }
}
