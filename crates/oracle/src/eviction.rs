//! Table 1's reclamation magnitudes: a high signal evicts ⅛ of the Spark
//! block cache and 1 % (low) / 4 % (high) of cache slabs. Key-granular runs
//! also record one `evict.class` event per touched slab class, which must
//! stay within its class and decompose the aggregate `evict.slabs` that
//! follows.

use crate::{resets_pid, Invariant, Violation};
use m3_sim::trace::{EvictReason, TraceData, TraceEvent};
use std::collections::BTreeMap;

/// Fraction of cached blocks a framework evicts on a high signal
/// (Table 1: Spark drops ⅛ of its block cache).
const BLOCK_HIGH_FRACTION: f64 = 1.0 / 8.0;
/// Fraction of slabs a cache evicts on a low signal (Table 1: 1 %).
const SLAB_LOW_FRACTION: f64 = 0.01;
/// Fraction of slabs a cache evicts on a high signal (Table 1: 4 %).
const SLAB_HIGH_FRACTION: f64 = 0.04;

/// One `evict.class` event awaiting its aggregate `evict.slabs`.
#[derive(Debug, Clone, Copy)]
struct PendingClassEvict {
    at_ms: u64,
    chunk: u64,
    evicted: u64,
    items: u64,
    bytes: u64,
    reason: EvictReason,
}

/// Replay state of the Table 1 checks.
#[derive(Default)]
pub(crate) struct Table1 {
    /// `evict.class` groups not yet folded into their aggregate, per pid.
    pending_classes: BTreeMap<u64, Vec<PendingClassEvict>>,
}

impl Invariant for Table1 {
    #[inline]
    fn observe(&mut self, _: usize, e: &TraceEvent, out: &mut Vec<Violation>) {
        match e.data {
            TraceData::EvictBlocks {
                before,
                evicted,
                reason: EvictReason::HighSignal,
                ..
            } => {
                let want = expected_fraction(before, BLOCK_HIGH_FRACTION);
                if evicted != want {
                    flag!(
                        out,
                        e,
                        "evict.blocks.magnitude",
                        "high signal evicted {evicted} of {before} blocks, \
                         Table 1 expects {want}"
                    );
                }
            }
            TraceData::EvictSlabs {
                before,
                evicted,
                items,
                bytes,
                reason,
            } => {
                let frac = match reason {
                    EvictReason::LowSignal => Some(SLAB_LOW_FRACTION),
                    EvictReason::HighSignal => Some(SLAB_HIGH_FRACTION),
                    _ => None,
                };
                if let Some(frac) = frac {
                    // The slab layer always evicts at least one slab
                    // when non-empty, so tiny caches still respond.
                    let want = expected_fraction(before, frac).max(u64::from(before > 0));
                    if evicted != want {
                        flag!(
                            out,
                            e,
                            "evict.slabs.magnitude",
                            "{reason:?} evicted {evicted} of {before} slabs, \
                             Table 1 expects {want}"
                        );
                    }
                }
                // Fold the pending `evict.class` group (if any) into this
                // aggregate: reasons match and the per-class sums equal it
                // exactly. Analytic runs record no class detail, so an
                // empty group is conformant.
                let Some(group) = self.pending_classes.remove(&e.pid) else {
                    return;
                };
                for c in &group {
                    if c.reason != reason {
                        flag!(
                            out,
                            e,
                            "evict.class.conservation",
                            "class {} detail recorded reason {:?} inside a {reason:?} \
                             aggregate",
                            c.chunk,
                            c.reason
                        );
                    }
                }
                let (s, i, b) = group.iter().fold((0u64, 0u64, 0u64), |(s, i, b), c| {
                    (s + c.evicted, i + c.items, b + c.bytes)
                });
                if (s, i, b) != (evicted, items, bytes) {
                    flag!(
                        out,
                        e,
                        "evict.class.conservation",
                        "class detail sums to {s} slabs / {i} items / {b} bytes, \
                         aggregate recorded {evicted} / {items} / {bytes}"
                    );
                }
            }
            TraceData::EvictClass {
                chunk,
                before,
                evicted,
                items,
                bytes,
                reason,
            } => {
                if evicted > before {
                    flag!(
                        out,
                        e,
                        "evict.class.bound",
                        "class {chunk} evicted {evicted} slabs but held \
                         only {before}"
                    );
                }
                self.pending_classes
                    .entry(e.pid)
                    .or_default()
                    .push(PendingClassEvict {
                        at_ms: e.t.as_millis(),
                        chunk,
                        evicted,
                        items,
                        bytes,
                        reason,
                    });
            }
            ref data if resets_pid(data) => {
                self.pending_classes.remove(&e.pid);
            }
            _ => {}
        }
    }

    fn finish(self, out: &mut Vec<Violation>) {
        for (pid, group) in self.pending_classes {
            for c in group {
                out.push(Violation {
                    invariant: "evict.class.orphan".to_string(),
                    at_ms: c.at_ms,
                    pid,
                    message: format!(
                        "evict.class for class {} ({} slabs, {:?}) was never \
                         folded into an aggregate evict.slabs event",
                        c.chunk, c.evicted, c.reason
                    ),
                });
            }
        }
    }
}

/// `ceil(before × fraction)`, clamped to the population.
fn expected_fraction(before: u64, fraction: f64) -> u64 {
    ((before as f64 * fraction).ceil() as u64).min(before)
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;

    #[test]
    fn table1_magnitudes_are_enforced() {
        let mut log = TraceLog::new();
        // 1/8 of 64 blocks = 8: recording 3 is a violation.
        log.record(
            t(1),
            2,
            TraceData::EvictBlocks {
                before: 64,
                evicted: 3,
                bytes: 0,
                reason: EvictReason::HighSignal,
            },
        );
        // 1% of 300 slabs rounds up to 3: recording 30 is a violation.
        log.record(
            t(2),
            3,
            TraceData::EvictSlabs {
                before: 300,
                evicted: 30,
                items: 0,
                bytes: 0,
                reason: EvictReason::LowSignal,
            },
        );
        // Capacity evictions are policy-free: any magnitude is fine.
        log.record(
            t(3),
            2,
            TraceData::EvictBlocks {
                before: 64,
                evicted: 64,
                bytes: 0,
                reason: EvictReason::Capacity,
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert_eq!(
            violations
                .iter()
                .filter(|v| v.invariant.starts_with("evict."))
                .count(),
            2,
            "got {violations:?}"
        );
    }

    #[test]
    fn correct_table1_magnitudes_pass() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            2,
            TraceData::EvictBlocks {
                before: 60,
                evicted: 8, // ceil(60/8)
                bytes: 0,
                reason: EvictReason::HighSignal,
            },
        );
        log.record(
            t(2),
            3,
            TraceData::EvictSlabs {
                before: 10,
                evicted: 1, // ceil(0.04 * 10), min one slab
                items: 0,
                bytes: 0,
                reason: EvictReason::HighSignal,
            },
        );
        assert!(Oracle::paper(None).check(&log).is_empty());
    }

    /// `evict.class` detail for one signal eviction: classes summing to
    /// (3 slabs, 15 items, 3 MiB) before a 300-slab low-signal aggregate.
    fn class_group(log: &mut TraceLog, reason: EvictReason) {
        for (chunk, before, evicted, items, bytes) in [
            (128, 200, 2, 10, 2 * 1024 * 1024),
            (1024, 100, 1, 5, 1024 * 1024),
        ] {
            log.record(
                t(4),
                3,
                TraceData::EvictClass {
                    chunk,
                    before,
                    evicted,
                    items,
                    bytes,
                    reason,
                },
            );
        }
    }

    #[test]
    fn class_detail_conserving_to_its_aggregate_passes() {
        let mut log = TraceLog::new();
        class_group(&mut log, EvictReason::LowSignal);
        log.record(
            t(4),
            3,
            TraceData::EvictSlabs {
                before: 300,
                evicted: 3, // ceil(0.01 * 300)
                items: 15,
                bytes: 3 * 1024 * 1024,
                reason: EvictReason::LowSignal,
            },
        );
        assert_eq!(Oracle::paper(None).check(&log), Vec::new());
    }

    #[test]
    fn class_detail_that_does_not_sum_is_flagged() {
        let mut log = TraceLog::new();
        class_group(&mut log, EvictReason::LowSignal);
        log.record(
            t(4),
            3,
            TraceData::EvictSlabs {
                before: 300,
                evicted: 3,
                items: 99, // group sums to 15
                bytes: 3 * 1024 * 1024,
                reason: EvictReason::LowSignal,
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "evict.class.conservation"),
            "got {violations:?}"
        );
    }

    #[test]
    fn class_reason_mismatch_is_flagged() {
        let mut log = TraceLog::new();
        class_group(&mut log, EvictReason::HighSignal);
        log.record(
            t(4),
            3,
            TraceData::EvictSlabs {
                before: 300,
                evicted: 3,
                items: 15,
                bytes: 3 * 1024 * 1024,
                reason: EvictReason::LowSignal,
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "evict.class.conservation"),
            "got {violations:?}"
        );
    }

    #[test]
    fn class_overdraw_is_flagged() {
        let mut log = TraceLog::new();
        log.record(
            t(4),
            3,
            TraceData::EvictClass {
                chunk: 128,
                before: 2,
                evicted: 5, // more than the class held
                items: 10,
                bytes: 5 * 1024 * 1024,
                reason: EvictReason::HighSignal,
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "evict.class.bound"),
            "got {violations:?}"
        );
    }

    #[test]
    fn orphaned_class_detail_is_flagged() {
        let mut log = TraceLog::new();
        class_group(&mut log, EvictReason::LowSignal);
        // No aggregate follows: both class events are orphans.
        let violations = Oracle::paper(None).check(&log);
        assert_eq!(
            violations
                .iter()
                .filter(|v| v.invariant == "evict.class.orphan")
                .count(),
            2,
            "got {violations:?}"
        );
    }

    #[test]
    fn analytic_aggregate_without_class_detail_passes() {
        // Statistical runs record no class granularity; the aggregate alone
        // is conformant.
        let mut log = TraceLog::new();
        log.record(
            t(4),
            3,
            TraceData::EvictSlabs {
                before: 300,
                evicted: 3,
                items: 700,
                bytes: 3 * 1024 * 1024,
                reason: EvictReason::LowSignal,
            },
        );
        assert_eq!(Oracle::paper(None).check(&log), Vec::new());
    }
}
