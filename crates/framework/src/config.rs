//! Spark configuration surface (the paper's tuning knobs).

use m3_core::RateCurve;
use serde::{Deserialize, Serialize};

/// The Spark parameters the paper tunes in the Oracle-with-Spark setting:
/// `spark.memory.fraction` and `spark.memory.storageFraction` (§7.1.2),
/// plus the M3 switches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SparkConfig {
    /// `spark.memory.fraction`: share of the heap usable by Spark's unified
    /// memory pool (default 0.6 — "Spark will not use more than 60% of the
    /// heap for storage space", §7.2).
    pub memory_fraction: f64,
    /// `spark.memory.storageFraction`: share of the pool protected for
    /// storage against execution borrowing (default 0.5).
    pub storage_fraction: f64,
    /// If true, the block cache is effectively unbounded and growth is
    /// governed by M3 signals (the paper's Spark modification).
    pub m3_mode: bool,
    /// Ablation switch: reclaim bottom-up (JVM GC *before* Spark evicts) on
    /// a high signal — the uncoordinated ordering of §2.2 Problem 3. The
    /// GC cycle then misses the garbage the eviction would have created.
    pub gc_before_evict: bool,
    /// Allow-rate recovery curve for the adaptive allocation protocol
    /// (footnote 4: the paper evaluated alternatives and kept linear).
    pub rate_curve: RateCurve,
}

impl Default for SparkConfig {
    fn default() -> Self {
        SparkConfig {
            memory_fraction: 0.6,
            storage_fraction: 0.5,
            m3_mode: false,
            gc_before_evict: false,
            rate_curve: RateCurve::Linear,
        }
    }
}

impl SparkConfig {
    /// The paper's M3-modified Spark (unbounded cache, ⅛ eviction).
    pub fn m3() -> Self {
        SparkConfig {
            m3_mode: true,
            ..SparkConfig::default()
        }
    }

    /// The block-cache capacity for a given executor heap.
    ///
    /// Model: the unified pool is `memory_fraction × heap`; storage holds
    /// its protected share plus roughly half of the execution share when
    /// execution is idle, so the effective storage capacity is
    /// `pool × (storage_fraction + (1 − storage_fraction) / 2)`. With the
    /// defaults this is 45 % of the heap, and raising either knob raises
    /// capacity — matching the direction (not the exact accounting) of
    /// Spark's unified memory manager.
    pub fn storage_capacity(&self, heap: u64) -> u64 {
        if self.m3_mode {
            return u64::MAX / 2;
        }
        let pool = heap as f64 * self.memory_fraction;
        let share = self.storage_fraction + (1.0 - self.storage_fraction) / 2.0;
        (pool * share) as u64
    }

    /// Execution memory guaranteed to tasks: the unified pool minus the
    /// storage-protected share, `heap × memory_fraction × (1 −
    /// storage_fraction)`. Raising either storage knob shrinks this — the
    /// reason Spark "recommends leaving these values at their defaults, as
    /// changing them can have unexpected effects on performance" (§7.1.2).
    pub fn execution_capacity(&self, heap: u64) -> u64 {
        if self.m3_mode {
            return u64::MAX / 2;
        }
        (heap as f64 * self.memory_fraction * (1.0 - self.storage_fraction)) as u64
    }

    /// Compute slow-down factor for a job needing `exec_demand` bytes of
    /// execution memory: short execution memory means spilling and extra
    /// (de)serialization on every task.
    pub fn execution_penalty(&self, heap: u64, exec_demand: u64) -> f64 {
        let cap = self.execution_capacity(heap);
        if exec_demand == 0 || cap >= exec_demand {
            return 1.0;
        }
        if cap == 0 {
            return 4.0;
        }
        let shortfall = exec_demand as f64 / cap as f64 - 1.0;
        1.0 + (2.0 * shortfall).min(3.0)
    }

    /// Validates ranges.
    ///
    /// # Panics
    ///
    /// Panics if fractions are outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.memory_fraction),
            "memory.fraction in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.storage_fraction),
            "storageFraction in [0,1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spark::{BLOCK_SIZE, HIGH_EVICT_FRACTION};
    use m3_sim::units::{GIB, MIB};

    #[test]
    fn defaults_match_spark() {
        let c = SparkConfig::default();
        assert!((c.memory_fraction - 0.6).abs() < 1e-12);
        assert!((c.storage_fraction - 0.5).abs() < 1e-12);
        assert_eq!(BLOCK_SIZE, 128 * MIB);
        assert!((HIGH_EVICT_FRACTION - 0.125).abs() < 1e-12);
        c.validate();
    }

    #[test]
    fn capacity_grows_with_heap_and_knobs() {
        let c = SparkConfig::default();
        assert!(c.storage_capacity(32 * GIB) > c.storage_capacity(16 * GIB));
        let tuned = SparkConfig {
            memory_fraction: 0.8,
            ..SparkConfig::default()
        };
        assert!(tuned.storage_capacity(16 * GIB) > c.storage_capacity(16 * GIB));
        let protected = SparkConfig {
            storage_fraction: 0.9,
            ..SparkConfig::default()
        };
        assert!(protected.storage_capacity(16 * GIB) > c.storage_capacity(16 * GIB));
    }

    #[test]
    fn default_capacity_is_45_percent_of_heap() {
        let c = SparkConfig::default();
        let cap = c.storage_capacity(10 * GIB);
        assert!((cap as f64 / (10 * GIB) as f64 - 0.45).abs() < 1e-9);
    }

    #[test]
    fn m3_mode_is_effectively_unbounded() {
        let c = SparkConfig::m3();
        assert!(c.storage_capacity(GIB) > 1000 * GIB);
    }

    #[test]
    fn execution_penalty_prices_the_knobs() {
        let default = SparkConfig::default();
        // Ample execution memory: no penalty.
        assert_eq!(default.execution_penalty(16 * GIB, 2 * GIB), 1.0);
        // Greedy storage tuning starves execution: penalty kicks in.
        let greedy = SparkConfig {
            memory_fraction: 0.9,
            storage_fraction: 0.9,
            ..SparkConfig::default()
        };
        assert!(greedy.execution_penalty(16 * GIB, 4 * GIB) > 1.5);
        // The penalty is capped.
        assert!(greedy.execution_penalty(GIB, 64 * GIB) <= 4.0);
        // Zero demand is free; M3 mode is unconstrained.
        assert_eq!(greedy.execution_penalty(GIB, 0), 1.0);
        assert_eq!(SparkConfig::m3().execution_penalty(GIB, 64 * GIB), 1.0);
    }

    #[test]
    fn execution_capacity_shrinks_with_storage_fraction() {
        let base = SparkConfig::default();
        let protected = SparkConfig {
            storage_fraction: 0.9,
            ..SparkConfig::default()
        };
        assert!(protected.execution_capacity(16 * GIB) < base.execution_capacity(16 * GIB));
    }

    #[test]
    #[should_panic(expected = "memory.fraction")]
    fn validate_rejects_bad_fraction() {
        SparkConfig {
            memory_fraction: 1.5,
            ..SparkConfig::default()
        }
        .validate();
    }
}
