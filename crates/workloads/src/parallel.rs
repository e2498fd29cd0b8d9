//! Parallel deterministic experiment harness.
//!
//! The paper's evaluation is hundreds of independent simulated runs (12
//! workloads × several settings, grid searches, multi-node clusters). Each
//! run is a pure function of `(scenario, setting, machine_cfg)`, so two
//! orthogonal optimizations apply:
//!
//! - **Fan-out**: independent runs execute on a shared pool of worker
//!   threads ([`parallel_map`]), with results returned in submission order
//!   so callers observe exactly the serial behaviour, only sooner.
//! - **Memoization**: a process-wide content-addressed cache
//!   ([`run_scenario_cached`]) keyed on the serialized inputs hands back a
//!   shared [`Arc`] of a previous identical run. Grid searches revisit the
//!   same configuration many times across coordinate-descent passes; those
//!   revisits are free.
//!
//! Both are sound because the simulator is deterministic: a run's output is
//! bit-identical no matter which thread computes it, or whether it is
//! replayed from the cache (the determinism regression test in
//! `tests/determinism.rs` pins this down).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::machine::MachineConfig;
use crate::runner::{run_scenario, ScenarioOutcome};
use crate::scenario::Scenario;
use crate::settings::Setting;

// The pool primitives moved down into `m3-sim` so the reclamation packet
// scheduler in `m3-core` can share them; re-exported here so harness users
// keep their import paths.
pub use m3_sim::parallel::{parallel_map, worker_threads};

/// Hit/miss counters of the run memoization cache (process-wide totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the run.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot, for reporting
    /// the hit rate of one bounded piece of work (e.g. one grid search).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// A process-wide content-addressed memo cache: serialized keys map to
/// shared [`Arc`] values, with hit/miss counters alongside. One generic
/// home for the pattern the run cache and the fleet cache share; both are
/// `static` instances (the constructor is `const`).
///
/// Lookups never hold the lock across the compute closure: two threads
/// racing on the same key both compute it, which is benign for
/// deterministic values (the results are identical) and far cheaper than
/// serializing every computation behind one lock.
pub struct MemoCache<V> {
    map: OnceLock<Mutex<HashMap<String, Arc<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> MemoCache<V> {
    /// An empty cache. `const`, so instances can live in `static`s.
    pub const fn new() -> Self {
        MemoCache {
            map: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn map(&self) -> &Mutex<HashMap<String, Arc<V>>> {
        self.map.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Current hit/miss totals.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Returns the cached value for the serialized `key`, computing and
    /// inserting it via `compute` on a miss. The first inserted value wins
    /// a race; later computes of the same key are dropped.
    pub fn get_or_compute<K: serde::Serialize + ?Sized>(
        &self,
        key: &K,
        compute: impl FnOnce() -> V,
    ) -> Arc<V> {
        let key = serde_json::to_string(key).expect("cache key serialization cannot fail");
        if let Some(hit) = self.map().lock().expect("memo cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(compute());
        Arc::clone(
            self.map()
                .lock()
                .expect("memo cache poisoned")
                .entry(key)
                .or_insert(value),
        )
    }
}

impl<V> Default for MemoCache<V> {
    fn default() -> Self {
        MemoCache::new()
    }
}

static CACHE: MemoCache<ScenarioOutcome> = MemoCache::new();

/// Current totals of the run memoization cache.
pub fn cache_stats() -> CacheStats {
    CACHE.stats()
}

/// Like [`run_scenario`], but content-addressed: the serialized
/// `(scenario, setting, machine_cfg)` triple keys a process-wide cache, and
/// an identical earlier run is returned as a shared [`Arc`] without
/// re-simulating. The scenario carries its fault plan, so a faulted run can
/// never be answered from (or pollute) the entry of the same run under a
/// different plan. The config is normalized through
/// [`MachineConfig::with_setting`] *before* keying, so configs that differ
/// only in fields the runner overrides anyway share an entry. Fan a batch
/// of runs out with [`parallel_map`] over this function.
pub fn run_scenario_cached(
    scenario: &Scenario,
    setting: &Setting,
    machine_cfg: MachineConfig,
) -> Arc<ScenarioOutcome> {
    let cfg = machine_cfg.with_setting(setting);
    CACHE.get_or_compute(&(scenario, setting, &cfg), || {
        run_scenario(scenario, setting, cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::{AppConfig, SettingKind};

    #[test]
    fn cache_returns_shared_result_on_identical_inputs() {
        let scenario = Scenario {
            name: "parallel-cache-test".into(),
            ..Scenario::uniform("M", 0)
        };
        let setting = Setting::uniform(SettingKind::Default, AppConfig::stock_default(), 1);
        let cfg = MachineConfig::stock_64gb();
        let before = cache_stats();
        let a = run_scenario_cached(&scenario, &setting, cfg);
        let b = run_scenario_cached(&scenario, &setting, cfg);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        let delta = cache_stats().since(&before);
        assert!(delta.hits >= 1);
        assert!(delta.misses >= 1);
        assert!(delta.hit_rate() > 0.0);
    }
}
