//! Trace-replay conformance oracle.
//!
//! [`Oracle::check`] walks a recorded [`TraceLog`] and re-derives every
//! decision the M3 stack claims to have made, flagging a [`Violation`]
//! wherever the recorded behaviour diverges from the paper's protocols;
//! [`FleetOracle::check`] does the same for the fleet scheduler's
//! placement log. Each invariant family is a module that owns its replay
//! state (`monitor`, `alloc`, `eviction`, `cache`, `packets`, `class`,
//! `fleet`; DESIGN.md §11 maps every invariant to its module), and both
//! oracles feed every event to each of their families, in a fixed order,
//! through one replay loop.

use m3_core::config::MonitorConfig;
use m3_sim::trace::{TraceData, TraceEvent, TraceLog};
use serde::{Deserialize, Serialize};

/// Records a divergence of `$invariant` at event `$e`'s time and pid; the
/// remaining arguments format the message.
macro_rules! flag {
    ($out:expr, $e:expr, $invariant:expr, $($msg:tt)+) => {
        $out.push($crate::Violation {
            invariant: $invariant.to_string(),
            at_ms: $e.t.as_millis(),
            pid: $e.pid,
            message: format!($($msg)+),
        })
    };
}

mod alloc;
mod cache;
mod class;
mod eviction;
mod fleet;
mod monitor;
mod packets;
#[cfg(test)]
mod testutil;

/// One divergence between a recorded trace and the paper's protocols.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Which invariant failed (stable dotted name, e.g. `"alloc.stride"`).
    pub invariant: String,
    /// When the offending event happened, ms.
    pub at_ms: u64,
    /// The process the offending event concerns (0 for the monitor).
    pub pid: u64,
    /// Human-readable description of the divergence.
    pub message: String,
}

/// The conformance oracle: paper constants plus the monitor configuration
/// the run declared (monitor invariants are skipped for monitor-less runs).
#[derive(Debug, Clone)]
pub struct Oracle {
    monitor: Option<MonitorConfig>,
}

impl Oracle {
    /// An oracle with the paper's Table 1 constants.
    pub fn paper(monitor: Option<MonitorConfig>) -> Self {
        Oracle { monitor }
    }

    /// Replays `trace` and returns every divergence found (empty = conformant).
    pub fn check(&self, trace: &TraceLog) -> Vec<Violation> {
        let families = (
            monitor::MonitorReplay::new(self.monitor),
            class::KillOrder,
            alloc::GateReplay::default(),
            eviction::Table1::default(),
            cache::StatsReplay::default(),
            packets::PacketReplay::default(),
        );
        replay(trace, families)
    }
}

/// Cluster-level conformance oracle for fleet placement logs: replays the
/// scheduler's trace against the placement and recovery invariants
/// (`fleet.*`) and the mixed-criticality ones (`sched.class.*`).
#[derive(Debug, Clone)]
pub struct FleetOracle {
    /// Grace window a node must stay red before migration is allowed, ms.
    pub grace_ms: u64,
    /// The scheduler's defer interval, ms, when known: bounds how far out
    /// a defer may announce its retry. `None` skips that half of the
    /// latency check (independent replays of a bare trace).
    pub defer_interval_ms: Option<u64>,
}

impl FleetOracle {
    /// An oracle for a scheduler configured with the given grace window.
    pub fn new(grace_ms: u64) -> Self {
        FleetOracle {
            grace_ms,
            defer_interval_ms: None,
        }
    }

    /// Also checks announced retry times against the scheduler's
    /// configured defer interval.
    pub fn with_defer_interval(mut self, defer_interval_ms: u64) -> Self {
        self.defer_interval_ms = Some(defer_interval_ms);
        self
    }

    /// Replays the fleet events in `trace` and returns every divergence
    /// found (empty = conformant). Non-fleet events are ignored, so the
    /// scheduler's full log can be passed as-is.
    pub fn check(&self, trace: &TraceLog) -> Vec<Violation> {
        let families = (fleet::FleetReplay::new(self), class::SchedClass::default());
        replay(trace, families)
    }
}

/// One invariant family: the replay state it owns and the checks it runs.
trait Invariant: Sized {
    /// Feeds the `i`-th event of the trace. The family picks out the event
    /// kinds it reads and pushes any divergence onto `out`. Implementations
    /// are `#[inline]`: most events concern one family, and inlining lets the
    /// other families skip an event with a branch instead of a call.
    fn observe(&mut self, i: usize, e: &TraceEvent, out: &mut Vec<Violation>);

    /// Flushes end-of-trace checks (work still pending when the trace ends).
    fn finish(self, _out: &mut Vec<Violation>) {}
}

/// A tuple of families is one family that runs its members in order.
macro_rules! tuple_invariant {
    ($($f:ident),+) => {
        #[allow(non_snake_case)]
        impl<$($f: Invariant),+> Invariant for ($($f,)+) {
            fn observe(&mut self, i: usize, e: &TraceEvent, out: &mut Vec<Violation>) {
                let ($($f,)+) = self;
                $($f.observe(i, e, out);)+
            }

            fn finish(self, out: &mut Vec<Violation>) {
                let ($($f,)+) = self;
                $($f.finish(out);)+
            }
        }
    };
}
tuple_invariant!(A, B);
tuple_invariant!(A, B, C, D, E, F);

/// The replay loop both oracles share: every event goes to every family in
/// order, then every family finishes in order. Within one event at most one
/// family flags it, so the output order is the trace order, and within an
/// event each family's own check order.
fn replay(trace: &TraceLog, mut families: impl Invariant) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, e) in trace.events().iter().enumerate() {
        families.observe(i, e, &mut out);
    }
    families.finish(&mut out);
    out
}

/// Whether `data` starts or ends a process. Per-pid replay state dies with
/// the process; a respawn starts from fresh state.
fn resets_pid(data: &TraceData) -> bool {
    matches!(
        data,
        TraceData::ProcSpawn { .. }
            | TraceData::ProcRespawn { .. }
            | TraceData::ProcExit
            | TraceData::ProcKill
            | TraceData::OomKill
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;

    #[test]
    fn empty_trace_is_conformant() {
        assert!(Oracle::paper(Some(paper()))
            .check(&TraceLog::new())
            .is_empty());
        assert!(Oracle::paper(None).check(&TraceLog::disabled()).is_empty());
    }

    #[test]
    fn violations_serialize_round_trip() {
        let v = Violation {
            invariant: "alloc.stride".to_string(),
            at_ms: 1500,
            pid: 4,
            message: "x".to_string(),
        };
        let c = v.serialize();
        let back = Violation::deserialize(&c).expect("round trip");
        assert_eq!(v, back);
    }
}
