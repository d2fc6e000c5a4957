//! An online LRU embedding cache (the HPS baseline's design, §7.2/§9).
//!
//! Traditional inference caches track recency and evict on the fly. The
//! paper contrasts this with UGache's static, refresh-based design: LRU
//! adapts without a solver, but pays per-lookup bookkeeping and eviction
//! churn on every miss, and under a *stable* skewed workload converges to
//! roughly the same residency a static top-hotness cache starts with.
//! This module implements a real LRU so that comparison is measured, not
//! assumed.

use std::collections::HashMap;

/// A fixed-capacity LRU set over entry ids. Intrusive doubly-linked list
/// over a slab, O(1) per access.
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    /// entry id → slab index.
    index: HashMap<u32, usize>,
    /// Slab of nodes: (entry, prev, next); `usize::MAX` = none.
    nodes: Vec<(u32, usize, usize)>,
    head: usize,
    tail: usize,
}

const NONE: usize = usize::MAX;

impl LruCache {
    /// Creates an empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            capacity,
            index: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            head: NONE,
            tail: NONE,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (_, prev, next) = self.nodes[i];
        if prev != NONE {
            self.nodes[prev].2 = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.nodes[next].1 = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].1 = NONE;
        self.nodes[i].2 = self.head;
        if self.head != NONE {
            self.nodes[self.head].1 = i;
        }
        self.head = i;
        if self.tail == NONE {
            self.tail = i;
        }
    }

    /// Accesses an entry: returns `true` on hit. On miss the entry is
    /// inserted, evicting the least-recently-used entry if full (returned
    /// as `Some(victim)` through `evicted`).
    pub fn access(&mut self, entry: u32) -> (bool, Option<u32>) {
        if let Some(&i) = self.index.get(&entry) {
            self.unlink(i);
            self.push_front(i);
            return (true, None);
        }
        let mut evicted = None;
        let slot = if self.index.len() < self.capacity {
            self.nodes.push((entry, NONE, NONE));
            self.nodes.len() - 1
        } else {
            // Reuse the tail node.
            let victim_slot = self.tail;
            let victim = self.nodes[victim_slot].0;
            self.unlink(victim_slot);
            self.index.remove(&victim);
            evicted = Some(victim);
            self.nodes[victim_slot].0 = entry;
            victim_slot
        };
        self.index.insert(entry, slot);
        self.push_front(slot);
        (false, evicted)
    }

    /// Resident entries, most recent first.
    pub fn residents(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.index.len());
        let mut i = self.head;
        while i != NONE {
            out.push(self.nodes[i].0);
            i = self.nodes[i].2;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emb_util::{seed_rng, ZipfSampler};

    #[test]
    fn basic_hit_miss_evict() {
        let mut c = LruCache::new(2);
        assert_eq!(c.access(1), (false, None));
        assert_eq!(c.access(2), (false, None));
        assert_eq!(c.access(1), (true, None));
        // 3 evicts 2 (1 was refreshed).
        assert_eq!(c.access(3), (false, Some(2)));
        assert_eq!(c.residents(), vec![3, 1]);
    }

    #[test]
    fn recency_order_is_maintained() {
        let mut c = LruCache::new(3);
        for k in [1, 2, 3] {
            c.access(k);
        }
        c.access(1); // 1 most recent, 2 is LRU
        assert_eq!(c.residents(), vec![1, 3, 2]);
        let (_, ev) = c.access(4);
        assert_eq!(ev, Some(2));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = LruCache::new(10);
        let mut rng = seed_rng(1);
        let z = ZipfSampler::new(1000, 1.1);
        for _ in 0..5_000 {
            c.access(z.sample(&mut rng) as u32);
            assert!(c.residents().len() <= 10);
        }
    }

    #[test]
    fn zipf_hit_rate_approaches_static_top_k() {
        // Under a stable Zipf workload, LRU residency converges near the
        // top-k set, so its hit rate approaches (but does not beat by
        // much) a static top-k cache — the paper's §7.2 argument.
        let n = 10_000u64;
        let alpha = 1.2;
        let cap = 500usize;
        let z = ZipfSampler::new(n, alpha);
        let mut rng = seed_rng(2);
        let mut lru = LruCache::new(cap);
        // Warm up.
        for _ in 0..50_000 {
            lru.access(z.sample(&mut rng) as u32);
        }
        // Measure.
        let mut lru_hits = 0u64;
        let mut static_hits = 0u64;
        let trials = 50_000;
        for _ in 0..trials {
            let k = z.sample(&mut rng) as u32;
            if lru.access(k).0 {
                lru_hits += 1;
            }
            if (k as usize) < cap {
                static_hits += 1;
            }
        }
        let lru_rate = lru_hits as f64 / trials as f64;
        let static_rate = static_hits as f64 / trials as f64;
        assert!(
            (lru_rate - static_rate).abs() < 0.08,
            "LRU {lru_rate:.3} vs static {static_rate:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruCache::new(0);
    }
}
