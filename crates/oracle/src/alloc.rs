//! Adaptive allocation (§4.2): each gate event's allow rate must equal
//! `min(elapsed / (epoch_len × NUM_epochs), 1)` of its recorded inputs
//! (`alloc.rate`), and the per-pid ⌊1/r⌋ stride gate (`alloc.stride`) and
//! the batched gate's fractional carry (`alloc.carry`) replay exactly.

use crate::{resets_pid, Invariant, Violation};
use m3_core::alloc::RateCurve;
use m3_sim::trace::{TraceData, TraceEvent};
use std::collections::BTreeMap;

/// Per-pid replay of the §4.2 allocation gate.
#[derive(Default)]
struct PidGate {
    counter: u64,
    carry: f64,
}

/// Replay state of every live pid's allocation gate.
#[derive(Default)]
pub(crate) struct GateReplay {
    pids: BTreeMap<u64, PidGate>,
}

impl Invariant for GateReplay {
    #[inline]
    fn observe(&mut self, _: usize, e: &TraceEvent, out: &mut Vec<Violation>) {
        let (TraceData::AllocGate {
            rate,
            elapsed_ms,
            epoch_ms,
            num_epochs,
            curve,
            ..
        }
        | TraceData::AllocBatch {
            rate,
            elapsed_ms,
            epoch_ms,
            num_epochs,
            curve,
            ..
        }) = &e.data
        else {
            if resets_pid(&e.data) {
                self.pids.remove(&e.pid);
            }
            return;
        };
        let rate = *rate;
        match curve_from_name(curve) {
            None => flag!(out, e, "alloc.rate", "unknown rate curve `{curve}`"),
            Some(c) => {
                let denom = (epoch_ms * u64::from(*num_epochs)).max(1) as f64;
                let want = c.rate(*elapsed_ms as f64 / denom);
                if (want - rate).abs() > 1e-9 {
                    flag!(
                        out,
                        e,
                        "alloc.rate",
                        "recorded rate {rate} but {curve}({elapsed_ms} / ({epoch_ms} x \
                         {num_epochs})) = {want}"
                    );
                }
            }
        }
        match e.data {
            TraceData::AllocGate { delayed, .. } => {
                if rate >= 1.0 {
                    flag!(
                        out,
                        e,
                        "alloc.stride",
                        "gate event recorded at full allow rate (the gate is a no-op)"
                    );
                    return;
                }
                let st = self.pids.entry(e.pid).or_default();
                st.counter += 1;
                let want = if rate <= 0.0 {
                    true
                } else {
                    let stride = (1.0 / rate).floor().max(1.0) as u64;
                    !st.counter.is_multiple_of(stride)
                };
                if want != delayed {
                    flag!(
                        out,
                        e,
                        "alloc.stride",
                        "at rate {rate} the \u{230a}1/r\u{230b} gate expects delayed={want}, \
                         trace recorded delayed={delayed}"
                    );
                }
            }
            TraceData::AllocBatch { n, delayed, .. } => {
                if rate >= 1.0 || n == 0 {
                    flag!(
                        out,
                        e,
                        "alloc.carry",
                        "batch event recorded at full allow rate (the gate is a no-op)"
                    );
                    return;
                }
                let st = self.pids.entry(e.pid).or_default();
                let exact = n as f64 * (1.0 - rate) + st.carry;
                let want = (exact.floor() as u64).min(n);
                st.carry = exact - want as f64;
                if want != delayed {
                    flag!(
                        out,
                        e,
                        "alloc.carry",
                        "batch of {n} at rate {rate} expects {want} delayed, \
                         trace recorded {delayed}"
                    );
                }
            }
            _ => unreachable!("matched a gate event above"),
        }
    }
}

fn curve_from_name(name: &str) -> Option<RateCurve> {
    match name {
        "linear" => Some(RateCurve::Linear),
        "exponential" => Some(RateCurve::Exponential),
        "step" => Some(RateCurve::Step),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;
    use m3_core::alloc::AdaptiveAllocator;

    #[test]
    fn alloc_gate_replay_accepts_the_real_allocator() {
        let mut a = AdaptiveAllocator::new(1);
        a.on_high_signal(SimTime::from_millis(0));
        a.on_reclaim_done(SimTime::from_millis(10_000));
        let mut log = TraceLog::new();
        let now = SimTime::from_millis(1500); // rate 15%
        for _ in 0..50 {
            let snap = a.gate_snapshot(now);
            let delayed = a.should_delay(now);
            log.record(
                now,
                4,
                TraceData::AllocGate {
                    delayed,
                    rate: snap.rate,
                    elapsed_ms: snap.elapsed_ms,
                    epoch_ms: snap.epoch_ms,
                    num_epochs: snap.num_epochs,
                    curve: snap.curve.to_string(),
                },
            );
        }
        assert!(Oracle::paper(None).check(&log).is_empty());
    }

    #[test]
    fn wrong_stride_decision_is_flagged() {
        let mut log = TraceLog::new();
        // rate 0.5 -> stride 2: first call (counter 1) must be delayed.
        log.record(
            SimTime::from_millis(500),
            4,
            TraceData::AllocGate {
                delayed: false,
                rate: 0.5,
                elapsed_ms: 500,
                epoch_ms: 1000,
                num_epochs: 1,
                curve: "linear".to_string(),
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(violations.iter().any(|v| v.invariant == "alloc.stride"));
    }

    #[test]
    fn misreported_rate_is_flagged() {
        let mut log = TraceLog::new();
        log.record(
            SimTime::from_millis(500),
            4,
            TraceData::AllocGate {
                delayed: true,
                rate: 0.9, // linear(500/1000) = 0.5
                elapsed_ms: 500,
                epoch_ms: 1000,
                num_epochs: 1,
                curve: "linear".to_string(),
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(violations.iter().any(|v| v.invariant == "alloc.rate"));
    }

    #[test]
    fn batch_carry_replay_accepts_the_real_allocator() {
        let mut a = AdaptiveAllocator::new(5);
        a.on_high_signal(SimTime::from_millis(0));
        a.on_reclaim_done(SimTime::from_millis(700));
        let mut log = TraceLog::new();
        for i in 0..40u64 {
            let now = SimTime::from_millis(800 + i * 13);
            let snap = a.gate_snapshot(now);
            let delayed = a.delayed_of(7, now);
            if snap.rate < 1.0 {
                log.record(
                    now,
                    9,
                    TraceData::AllocBatch {
                        n: 7,
                        delayed,
                        rate: snap.rate,
                        elapsed_ms: snap.elapsed_ms,
                        epoch_ms: snap.epoch_ms,
                        num_epochs: snap.num_epochs,
                        curve: snap.curve.to_string(),
                    },
                );
            }
        }
        assert!(log.count("alloc.batch") > 0);
        assert!(Oracle::paper(None).check(&log).is_empty());
    }

    #[test]
    fn wrong_batch_split_is_flagged() {
        let mut log = TraceLog::new();
        log.record(
            SimTime::from_millis(250),
            9,
            TraceData::AllocBatch {
                n: 100,
                delayed: 10, // linear rate 0.25 -> 75 delayed
                rate: 0.25,
                elapsed_ms: 250,
                epoch_ms: 1000,
                num_epochs: 1,
                curve: "linear".to_string(),
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(violations.iter().any(|v| v.invariant == "alloc.carry"));
    }

    #[test]
    fn respawn_resets_the_gate_replay() {
        let mut log = TraceLog::new();
        let gate = |delayed| TraceData::AllocGate {
            delayed,
            rate: 0.5,
            elapsed_ms: 500,
            epoch_ms: 1000,
            num_epochs: 1,
            curve: "linear".to_string(),
        };
        // counter 1 -> delayed, counter 2 -> admitted.
        log.record(SimTime::from_millis(500), 4, gate(true));
        log.record(SimTime::from_millis(500), 4, gate(false));
        // The process respawns: its allocator starts over, so the next
        // decision is counter 1 -> delayed again.
        log.record(
            SimTime::from_millis(501),
            4,
            TraceData::ProcRespawn { name: "a".into() },
        );
        log.record(SimTime::from_millis(502), 4, gate(true));
        assert!(Oracle::paper(None).check(&log).is_empty());
    }
}
