//! Helpers and imports shared by the oracle's unit tests.

pub(crate) use crate::{FleetOracle, Oracle};
pub(crate) use m3_core::config::MonitorConfig;
pub(crate) use m3_core::monitor::{Monitor, MONITOR_PID};
pub(crate) use m3_os::{Kernel, KernelConfig};
pub(crate) use m3_sim::clock::SimTime;
pub(crate) use m3_sim::trace::{
    CandidateInfo, Criticality, EvictReason, GcLayer, SigKind, ThresholdSide, TraceData, TraceLog,
    TraceZone,
};
pub(crate) use m3_sim::units::GIB;

pub(crate) fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

pub(crate) fn paper() -> MonitorConfig {
    MonitorConfig::paper_64gb()
}

/// Drives a real monitor over a real kernel and returns the trace.
pub(crate) fn monitored_run(usages: &[u64]) -> (TraceLog, MonitorConfig) {
    let cfg = paper();
    let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
    let mut mon = Monitor::new(cfg);
    os.set_time(t(0));
    let a = os.spawn("a");
    let b = os.spawn("b");
    mon.register(a);
    mon.register(b);
    let mut held = 0u64;
    for (i, &used) in usages.iter().enumerate() {
        let now = t(1 + i as u64);
        os.set_time(now);
        if os.is_alive(a) {
            if used > held {
                os.grow(a, used - held).unwrap();
            } else if held > used {
                os.release(a, held - used).unwrap();
            }
            held = used;
        }
        mon.poll(&mut os, now);
        os.take_signals(a);
        os.take_signals(b);
    }
    (std::mem::take(&mut os.trace), cfg)
}

pub(crate) const GRACE_MS: u64 = 10_000;

pub(crate) fn fleet_oracle() -> FleetOracle {
    FleetOracle::new(GRACE_MS)
}
