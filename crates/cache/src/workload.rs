//! The cache benchmark workload description (§7.1.1).

use m3_sim::units::KIB;
use serde::{Deserialize, Serialize};

/// Bytes per item of the analytic slab cache.
pub(crate) const ITEM_BYTES: u64 = 4 * KIB;

/// Service cost of a GET hit, in microseconds of driver time (absorbs the
/// benchmark's request concurrency). Shared by the analytic and trace
/// paths.
pub(crate) const HIT_US: u64 = 40;

/// Extra cost of a miss, microseconds: the simulated 1 ms backend lookup
/// divided by the goroutine concurrency that overlaps it, plus the put.
/// Shared by the analytic and trace paths.
pub(crate) const MISS_EXTRA_US: u64 = 330;

/// A memtier-like uniform-random get/put benchmark over a key space.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KvWorkload {
    /// Distinct keys in the key space (the paper: 12 million).
    pub key_space: u64,
    /// Fraction of the key space preloaded before the measured phase
    /// (the paper: 85 %).
    pub preload_fraction: f64,
    /// Measured get requests (the paper: 6.5 million).
    pub total_requests: u64,
}

impl KvWorkload {
    /// The paper's Go-Cache benchmark: 12 M keys at 85 %, 6.5 M uniform
    /// gets, 1 ms backend penalty on a miss (overlapped by concurrency).
    pub fn paper_gocache() -> Self {
        KvWorkload {
            key_space: 12_000_000,
            preload_fraction: 0.85,
            total_requests: 6_500_000,
        }
    }

    /// A memtier-style Memcached benchmark scaled for the 8-GB node of
    /// Fig. 9 (smaller key space, same access pattern).
    pub fn paper_memtier() -> Self {
        KvWorkload {
            key_space: 1_500_000,
            preload_fraction: 0.85,
            total_requests: 2_000_000,
        }
    }

    /// Items preloaded before the measured phase.
    pub fn preload_items(&self) -> u64 {
        (self.key_space as f64 * self.preload_fraction) as u64
    }

    /// Peak resident bytes if nothing is ever evicted.
    pub fn full_bytes(&self) -> u64 {
        self.key_space * ITEM_BYTES
    }

    /// Expected per-request cost in microseconds at hit ratio `h`.
    pub fn request_cost_us(&self, h: f64) -> f64 {
        let h = h.clamp(0.0, 1.0);
        HIT_US as f64 + (1.0 - h) * MISS_EXTRA_US as f64
    }

    /// Validates ranges.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters.
    pub fn validate(&self) {
        assert!(self.key_space > 0, "key space must be positive");
        assert!(
            (0.0..=1.0).contains(&self.preload_fraction),
            "preload in [0,1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_sim::units::GIB;

    #[test]
    fn paper_numbers() {
        let w = KvWorkload::paper_gocache();
        w.validate();
        assert_eq!(w.key_space, 12_000_000);
        assert_eq!(w.total_requests, 6_500_000);
        assert_eq!(w.preload_items(), 10_200_000);
        // 12 M × 4 KiB ≈ 45.8 GiB: the Fig. 7 Go-Cache peak neighbourhood.
        assert!(w.full_bytes() > 45 * GIB && w.full_bytes() < 47 * GIB);
    }

    #[test]
    fn request_cost_decreases_with_hit_ratio() {
        let w = KvWorkload::paper_gocache();
        assert!(w.request_cost_us(1.0) < w.request_cost_us(0.5));
        assert_eq!(w.request_cost_us(1.0), HIT_US as f64);
        assert_eq!(w.request_cost_us(0.0), (HIT_US + MISS_EXTRA_US) as f64);
        // Clamped outside [0, 1].
        assert_eq!(w.request_cost_us(2.0), HIT_US as f64);
    }
}
