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
//!
//! These are the workspace's only threads: every crate below
//! `m3-workloads`, the simulation itself included, runs on the caller's
//! thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::machine::MachineConfig;
use crate::runner::{run_scenario, ScenarioOutcome};
use crate::scenario::Scenario;
use crate::settings::Setting;

/// Number of worker threads the harness fans out to: the `M3_JOBS`
/// environment variable when set, otherwise the host's available
/// parallelism (1 if that cannot be determined).
///
/// # Panics
///
/// When `M3_JOBS` is set but is not a positive integer: a mistyped value
/// must not silently run on a worker count nobody asked for.
pub fn worker_threads() -> usize {
    let raw = std::env::var_os("M3_JOBS").map(|v| v.to_string_lossy().into_owned());
    parse_jobs(raw.as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Parses a raw `M3_JOBS` value: `None` when unset, the worker count when
/// it is a positive integer, and a panic naming the variable otherwise.
fn parse_jobs(raw: Option<&str>) -> Option<usize> {
    let raw = raw?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => panic!("M3_JOBS={raw:?} is not a positive integer"),
    }
}

/// Applies `f` to every item on a pool of `workers` threads and returns the
/// results **in submission order**. Workers pull jobs from a shared queue
/// (so long and short runs balance), and a `workers <= 1` or single-item
/// call degrades to a plain serial map with no threads spawned.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    let (queue, f) = (&queue, &f);
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            let tx = tx.clone();
            s.spawn(move || loop {
                // Take the lock only long enough to pull the next job.
                let job = queue.lock().expect("job queue poisoned").next();
                let Some((idx, item)) = job else { break };
                if tx.send((idx, f(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (idx, r) in rx {
            out[idx] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every submitted job produces a result"))
            .collect()
    })
}

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
    fn parallel_map_preserves_submission_order() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1, 2, 8] {
            assert_eq!(parallel_map(items.clone(), workers, |x| x * 3 + 1), expect);
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let out: Vec<u64> = parallel_map(Vec::<u64>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_parse_unset_and_positive_values() {
        assert_eq!(parse_jobs(None), None);
        assert_eq!(parse_jobs(Some("1")), Some(1));
        assert_eq!(parse_jobs(Some(" 8 ")), Some(8));
    }

    #[test]
    #[should_panic(expected = "M3_JOBS=\"0\" is not a positive integer")]
    fn jobs_zero_is_rejected() {
        parse_jobs(Some("0"));
    }

    #[test]
    #[should_panic(expected = "M3_JOBS=\"four\" is not a positive integer")]
    fn jobs_non_number_is_rejected() {
        parse_jobs(Some("four"));
    }

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
