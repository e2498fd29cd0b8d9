//! Spark's in-memory block cache (the "block manager" storage region).
//!
//! An LRU set of block ids with a byte capacity. On a capacity miss, stock
//! Spark evicts existing blocks until the new block fits. Under M3 the
//! capacity is effectively unbounded and eviction happens only in response
//! to signals or delayed allocations.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found the block resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks evicted (for any reason).
    pub evicted: u64,
    /// High-water mark of cached bytes.
    pub peak_bytes: u64,
}

/// An LRU block cache.
///
/// Blocks are identified by a dense `u32` id (the input partition index).
/// LRU order is maintained with a monotone use-stamp per block; eviction
/// scans for the minimum, which is fine at the O(hundreds) block counts of
/// a 64-GB node (a 12-GiB working set is ~100 × 128 MiB blocks).
#[derive(Debug, Clone)]
pub struct BlockCache {
    capacity: u64,
    used: u64,
    stamp: u64,
    /// block id → (bytes, last-use stamp)
    blocks: HashMap<u32, (u64, u64)>,
    /// Statistics.
    pub stats: CacheStats,
}

impl BlockCache {
    /// Creates a cache with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        BlockCache {
            capacity,
            used: 0,
            stamp: 0,
            blocks: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Looks a block up, updating LRU order and hit/miss statistics.
    pub fn access(&mut self, id: u32) -> bool {
        self.stamp += 1;
        match self.blocks.get_mut(&id) {
            Some(e) => {
                e.1 = self.stamp;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// True if the block is resident (no LRU/stat side effects).
    pub fn contains(&self, id: u32) -> bool {
        self.blocks.contains_key(&id)
    }

    /// Bytes that must be evicted before a block of `bytes` fits.
    pub fn needed_for(&self, bytes: u64) -> u64 {
        (self.used + bytes).saturating_sub(self.capacity)
    }

    /// Inserts a block, assuming capacity has been made available.
    ///
    /// # Panics
    ///
    /// Panics if the block would exceed capacity (callers must evict first —
    /// the eviction *cost* is theirs to account) or is already resident.
    pub fn insert(&mut self, id: u32, bytes: u64) {
        assert!(self.used + bytes <= self.capacity, "evict before inserting");
        assert!(!self.blocks.contains_key(&id), "block {id} already cached");
        self.stamp += 1;
        self.blocks.insert(id, (bytes, self.stamp));
        self.used += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.used);
    }

    /// Evicts the least-recently-used block, returning `(id, bytes)`.
    pub fn evict_lru(&mut self) -> Option<(u32, u64)> {
        let (&id, _) = self
            .blocks
            .iter()
            .min_by_key(|(&id, &(_, stamp))| (stamp, id))?;
        let (bytes, _) = self.blocks.remove(&id).expect("id just found");
        self.used -= bytes;
        self.stats.evicted += 1;
        Some((id, bytes))
    }

    /// Evicts LRU blocks until at least `bytes` have been freed (or the
    /// cache is empty). Returns the bytes actually freed.
    pub fn evict_bytes(&mut self, bytes: u64) -> u64 {
        let mut freed = 0;
        while freed < bytes {
            match self.evict_lru() {
                Some((_, b)) => freed += b,
                None => break,
            }
        }
        freed
    }

    /// Evicts the given fraction of resident blocks (LRU first), the M3
    /// high-signal policy (⅛ for Spark). Returns the bytes freed.
    pub fn evict_fraction(&mut self, fraction: f64) -> u64 {
        let count = ((self.blocks.len() as f64 * fraction).ceil() as usize).min(self.blocks.len());
        let mut freed = 0;
        for _ in 0..count {
            if let Some((_, b)) = self.evict_lru() {
                freed += b;
            }
        }
        freed
    }

    /// Removes every block (job teardown).
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.used = 0;
    }

    /// The hit ratio so far, or `None` before any access.
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.stats.hits + self.stats.misses;
        if total == 0 {
            None
        } else {
            Some(self.stats.hits as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_sim::units::MIB;

    const B: u64 = 128 * MIB;

    fn full_cache(n: u32) -> BlockCache {
        let mut c = BlockCache::new(u64::from(n) * B);
        for i in 0..n {
            c.insert(i, B);
        }
        c
    }

    #[test]
    fn hits_and_misses_tracked() {
        let mut c = BlockCache::new(4 * B);
        assert!(!c.access(0));
        c.insert(0, B);
        assert!(c.access(0));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.hit_ratio(), Some(0.5));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = full_cache(3);
        c.access(0); // 0 is now most recent; 1 is LRU
        assert_eq!(c.evict_lru(), Some((1, B)));
        assert_eq!(c.evict_lru(), Some((2, B)));
        assert_eq!(c.evict_lru(), Some((0, B)));
        assert_eq!(c.evict_lru(), None);
    }

    #[test]
    fn needed_for_and_insert_guard() {
        let mut c = BlockCache::new(2 * B);
        c.insert(0, B);
        assert_eq!(c.needed_for(B), 0);
        c.insert(1, B);
        assert_eq!(c.needed_for(B), B);
    }

    #[test]
    #[should_panic(expected = "evict before inserting")]
    fn overfull_insert_panics() {
        let mut c = BlockCache::new(B);
        c.insert(0, B);
        c.insert(1, B);
    }

    #[test]
    fn evict_bytes_frees_enough() {
        let mut c = full_cache(8);
        let freed = c.evict_bytes(3 * B - 1);
        assert_eq!(freed, 3 * B, "whole blocks only");
        assert_eq!(c.len(), 5);
        assert_eq!(c.used(), 5 * B);
    }

    #[test]
    fn evict_fraction_rounds_up() {
        let mut c = full_cache(8);
        let freed = c.evict_fraction(1.0 / 8.0);
        assert_eq!(freed, B);
        assert_eq!(c.len(), 7);
        // 1/8 of 7 blocks rounds up to 1.
        c.evict_fraction(1.0 / 8.0);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn evict_fraction_of_empty_is_zero() {
        let mut c = BlockCache::new(4 * B);
        assert_eq!(c.evict_fraction(0.5), 0);
    }

    #[test]
    fn peak_bytes_high_water_mark() {
        let mut c = BlockCache::new(4 * B);
        c.insert(0, B);
        c.insert(1, B);
        c.evict_lru();
        assert_eq!(c.stats.peak_bytes, 2 * B);
        assert_eq!(c.used(), B);
    }

    #[test]
    fn clear_empties() {
        let mut c = full_cache(4);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
    }
}
