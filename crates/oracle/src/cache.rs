//! - **Cache statistics (trace workloads)** — every `cache.stats` snapshot
//!   must conserve (`hits + misses + sets + deletes = requests`, negative
//!   lookups a subset of the misses) and grow monotonically per pid.

use crate::{resets_pid, Invariant, Violation};
use m3_sim::trace::{TraceData, TraceEvent};
use std::collections::BTreeMap;

/// The cumulative counters of a `cache.stats` snapshot, in the order the
/// replay stores them.
const COUNTERS: [&str; 9] = [
    "requests",
    "hits",
    "misses",
    "negative",
    "sets",
    "deletes",
    "delayed",
    "capacity_items",
    "serve_ms",
];

/// Replay state of the cache-statistics checks.
#[derive(Default)]
pub(crate) struct StatsReplay {
    /// Last `cache.stats` counters per pid (monotonicity).
    last: BTreeMap<u64, [u64; 9]>,
}

impl Invariant for StatsReplay {
    #[inline]
    fn observe(&mut self, _: usize, e: &TraceEvent, out: &mut Vec<Violation>) {
        let TraceData::CacheStats {
            requests,
            hits,
            misses,
            negative,
            sets,
            deletes,
            delayed,
            capacity_items,
            serve_ms,
            ..
        } = e.data
        else {
            if resets_pid(&e.data) {
                self.last.remove(&e.pid);
            }
            return;
        };
        if hits + misses + sets + deletes != requests {
            flag!(
                out,
                e,
                "cache.stats.conservation",
                "hits {hits} + misses {misses} + sets {sets} + deletes \
                 {deletes} != requests {requests}"
            );
        }
        if negative > misses {
            flag!(
                out,
                e,
                "cache.stats.conservation",
                "negative lookups {negative} exceed misses {misses}"
            );
        }
        let now = [
            requests,
            hits,
            misses,
            negative,
            sets,
            deletes,
            delayed,
            capacity_items,
            serve_ms,
        ];
        if let Some(prev) = self.last.get(&e.pid) {
            for ((name, old), new) in COUNTERS.iter().zip(prev).zip(now) {
                if new < *old {
                    flag!(
                        out,
                        e,
                        "cache.stats.monotonic",
                        "cumulative {name} fell from {old} to {new}"
                    );
                }
            }
        }
        self.last.insert(e.pid, now);
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;

    fn stats(requests: u64, hits: u64, serve_ms: u64) -> TraceData {
        TraceData::CacheStats {
            requests,
            hits,
            misses: requests - hits,
            negative: 0,
            sets: 0,
            deletes: 0,
            delayed: 0,
            capacity_items: 0,
            resident_bytes: GIB,
            live_items: 1000,
            serve_ms,
        }
    }

    #[test]
    fn cache_stats_that_do_not_conserve_are_flagged() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            3,
            TraceData::CacheStats {
                requests: 100,
                hits: 40,
                misses: 30,   // 40 + 30 + 10 + 10 = 90 != 100
                negative: 50, // and negative > misses
                sets: 10,
                deletes: 10,
                delayed: 0,
                capacity_items: 0,
                resident_bytes: 0,
                live_items: 0,
                serve_ms: 10,
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert_eq!(
            violations
                .iter()
                .filter(|v| v.invariant == "cache.stats.conservation")
                .count(),
            2,
            "got {violations:?}"
        );
    }

    #[test]
    fn cache_stats_regression_is_flagged() {
        let mut log = TraceLog::new();
        log.record(t(1), 3, stats(1000, 800, 100));
        log.record(t(2), 3, stats(500, 400, 200)); // cumulative counters fell
        let violations = Oracle::paper(None).check(&log);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "cache.stats.monotonic"),
            "got {violations:?}"
        );
    }

    #[test]
    fn monotone_cache_stats_pass() {
        let mut log = TraceLog::new();
        log.record(t(1), 3, stats(1000, 800, 100));
        log.record(t(2), 3, stats(2000, 1500, 200));
        log.record(t(3), 3, stats(2000, 1500, 200)); // idle snapshot repeats
        assert_eq!(Oracle::paper(None).check(&log), Vec::new());
    }

    /// End to end: a real key-granular trace run — preload, Zipf serve,
    /// a low and a high signal mid-run — replays with zero violations,
    /// including the class-granular Table 1 checks and the batched
    /// allocation-gate carry.
    #[test]
    fn keyed_cache_run_is_conformant() {
        use m3_cache::{KvApp, TraceWorkload, TrafficPattern};
        use m3_core::{M3Participant, ThresholdSignal};
        use m3_sim::clock::SimDuration;

        let twl = TraceWorkload {
            key_space: 20_000,
            total_ops: 120_000,
            phase_ops: 30_000,
            ..TraceWorkload::smoke(TrafficPattern::HotKeyShift)
        };
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("memcached-trace");
        let mut app = KvApp::trace_memcached(pid, twl, 0, true);
        let tick = SimDuration::from_millis(100);
        let mut now = t(0);
        let mut ticks = 0u64;
        while !app.finished() {
            app.tick(&mut os, now, tick);
            now += tick;
            ticks += 1;
            if ticks == 10 {
                app.handle_signal(ThresholdSignal::Low, &mut os, now);
            }
            if ticks == 25 {
                app.handle_signal(ThresholdSignal::High, &mut os, now);
            }
            assert!(ticks < 1_000_000, "run must terminate");
        }
        let trace = std::mem::take(&mut os.trace);
        assert!(trace.count("evict.class") > 0, "class detail recorded");
        assert!(trace.count("cache.stats") > 0, "stats snapshots recorded");
        assert!(trace.count("alloc.batch") > 0, "gate events recorded");
        assert_eq!(Oracle::paper(None).check(&trace), Vec::new());
    }
}
