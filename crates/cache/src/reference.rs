//! Frozen pre-optimization gather, kept as the differential tests'
//! oracle.
//!
//! [`ReferenceGatherer`] reproduces the original `MultiGpuCache::gather`
//! exactly: a per-key `HashMap` probe into a per-destination location
//! table, then a per-row `read_slot`/`read_into` copy. It records no
//! telemetry (the optimized path owns the counters) and must not be
//! "improved" — its value is being the fixed yardstick the optimized
//! two-pass plan is compared against.

use crate::cache::{GatherStats, MultiGpuCache};
use std::collections::HashMap;

/// Snapshot of a cache's location tables in the original hash-map form,
/// with the original per-key gather loop.
#[derive(Debug, Clone)]
pub struct ReferenceGatherer {
    /// `locations[i]`: for destination GPU `i`, entry → (source GPU, slot).
    locations: Vec<HashMap<u32, (u8, u32)>>,
}

impl ReferenceGatherer {
    /// Snapshots `cache`'s current location tables.
    pub fn new(cache: &MultiGpuCache) -> Self {
        let locations = (0..cache.num_gpus())
            .map(|i| {
                cache
                    .location_row(i)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &packed)| packed != u64::MAX)
                    .map(|(e, &packed)| {
                        (
                            e as u32,
                            ((packed >> 32) as u8, (packed & 0xFFFF_FFFF) as u32),
                        )
                    })
                    .collect()
            })
            .collect();
        ReferenceGatherer { locations }
    }

    /// The original per-key gather: hash probe, then one short copy per
    /// row, reading values out of `cache`'s arenas and host table.
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong length or a key is out of range.
    pub fn gather(
        &self,
        cache: &MultiGpuCache,
        gpu: usize,
        keys: &[u32],
        out: &mut [f32],
    ) -> GatherStats {
        let dim = cache.dim();
        assert_eq!(out.len(), keys.len() * dim, "output buffer length mismatch");
        let mut stats = GatherStats::default();
        for (k, &key) in keys.iter().enumerate() {
            let dst = &mut out[k * dim..(k + 1) * dim];
            match self.locations[gpu].get(&key) {
                Some(&(src, off)) => {
                    cache.arena(src as usize).read_slot(off, dst);
                    if src as usize == gpu {
                        stats.local += 1;
                    } else {
                        stats.remote += 1;
                    }
                }
                None => {
                    cache.host_table().read_into(key, dst);
                    stats.host += 1;
                }
            }
        }
        stats
    }
}
