//! A Go-runtime-like managed runtime model.
//!
//! Go has no static max heap; instead the `GOGC` environment variable paces
//! collection: a GC cycle starts whenever the heap has grown by `GOGC`
//! percent over the live bytes at the end of the previous cycle (§2.2,
//! problem 1). Freed spans are returned to the OS by a background scavenger
//! only after sitting idle for five minutes; the paper's ~50-line
//! modification `madvise`s them back as soon as they are collected (§4.1).

use m3_os::{Kernel, Pid};
use m3_sim::clock::{SimDuration, SimTime};
use m3_sim::trace::{GcLayer, TraceData};
use m3_sim::units::{MIB, PAGE_SIZE};
use serde::{Deserialize, Serialize};

use crate::gc::{GcCostModel, GcKind, GcStats};

/// Scavenger delay before idle free spans are returned to the OS (stock Go:
/// 5 minutes).
const SCAVENGE_DELAY: SimDuration = SimDuration::from_mins(5);

/// Minimum heap-live floor below which GC is not triggered (Go's 4 MiB
/// minimum heap, scaled up for server workloads).
const MIN_TRIGGER: u64 = 16 * MIB;

/// Commit granularity for OS interactions.
const COMMIT_CHUNK: u64 = 64 * MIB;

/// GC cost model. Go's collector is concurrent: the mutator pays short
/// stop-the-world phases plus assist work, a small fraction of the full
/// scan cost a stop-the-world collector would charge.
const COSTS: GcCostModel = GcCostModel {
    base_ms: 5,
    copy_ms_per_mib: 0.0,
    scan_ms_per_mib: 0.01,
    sweep_ms_per_mib: 0.005,
};

/// Static configuration of a Go runtime instance.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GoConfig {
    /// `GOGC`: percentage growth over the last cycle's live set that
    /// triggers the next collection (default 100).
    pub gogc: u64,
    /// If true (the paper's modification), freed spans are returned to the
    /// OS immediately after collection instead of waiting for the scavenger.
    pub return_immediately: bool,
}

impl GoConfig {
    /// Stock Go 1.11 with the given `GOGC`.
    pub fn stock(gogc: u64) -> Self {
        GoConfig {
            gogc,
            return_immediately: false,
        }
    }

    /// The paper's M3-modified Go runtime (immediate `madvise`).
    pub fn m3(gogc: u64) -> Self {
        GoConfig {
            return_immediately: true,
            ..GoConfig::stock(gogc)
        }
    }
}

/// Outcome of one Go GC cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoGcOutcome {
    /// Stop-the-world equivalent cost charged to the mutator. (Go's GC is
    /// mostly concurrent; the model charges its mutator-assist plus STW
    /// phases as a single pause.)
    pub pause: SimDuration,
    /// Bytes freed inside the heap.
    pub reclaimed: u64,
    /// Bytes returned to the OS (immediately, in M3 mode).
    pub returned_to_os: u64,
}

/// A Go runtime instance bound to one simulated process.
#[derive(Debug, Clone)]
pub struct GoRuntime {
    cfg: GoConfig,
    pid: Pid,
    committed: u64,
    live: u64,
    garbage: u64,
    /// Live bytes at the end of the previous cycle (the GOGC baseline).
    last_gc_live: u64,
    /// When the current idle free space became free (scavenger clock).
    free_since: Option<SimTime>,
    /// Collection statistics.
    pub stats: GcStats,
}

impl GoRuntime {
    /// Creates a Go runtime for process `pid`.
    pub fn new(pid: Pid, cfg: GoConfig) -> Self {
        GoRuntime {
            cfg,
            pid,
            committed: 0,
            live: 0,
            garbage: 0,
            last_gc_live: MIN_TRIGGER,
            free_since: None,
            stats: GcStats::default(),
        }
    }

    /// The owning process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &GoConfig {
        &self.cfg
    }

    /// Bytes committed from the OS.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Live (reachable) heap bytes.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Dead heap bytes awaiting collection.
    pub fn garbage(&self) -> u64 {
        self.garbage
    }

    /// Committed-but-unused bytes (free spans).
    pub fn free(&self) -> u64 {
        self.committed - self.live - self.garbage
    }

    /// The heap size at which the next GC cycle triggers.
    pub fn gc_trigger(&self) -> u64 {
        let base = self.last_gc_live.max(MIN_TRIGGER);
        base + base * self.cfg.gogc / 100
    }

    /// Allocates `bytes` of heap data, growing the committed heap as needed
    /// and running a GC cycle if the GOGC trigger is crossed.
    pub fn alloc(&mut self, os: &mut Kernel, bytes: u64, now: SimTime) -> GoGcOutcome {
        let mut outcome = GoGcOutcome {
            pause: SimDuration::ZERO,
            reclaimed: 0,
            returned_to_os: 0,
        };
        if self.free() < bytes {
            let need = bytes - self.free();
            let grow = need.div_ceil(COMMIT_CHUNK) * COMMIT_CHUNK;
            os.grow(self.pid, grow).expect("go process must be alive");
            self.committed += grow;
        }
        self.live += bytes;
        if self.live + self.garbage >= self.gc_trigger() {
            let gc = self.gc(os, now);
            outcome.pause += gc.pause;
            outcome.reclaimed += gc.reclaimed;
            outcome.returned_to_os += gc.returned_to_os;
        }
        outcome
    }

    /// Marks `bytes` of live data dead (application frees / evictions).
    pub fn free_bytes(&mut self, bytes: u64) {
        let bytes = bytes.min(self.live);
        self.live -= bytes;
        self.garbage += bytes;
    }

    /// The mark/sweep *phase* (the `gc_go` work packet): reclaims all heap
    /// garbage without touching the OS. The Release bucket (or the
    /// monolithic [`GoRuntime::gc`] wrapper) hands free spans back.
    pub fn collect(&mut self, os: &mut Kernel) -> GoGcOutcome {
        let reclaimed = self.garbage;
        let pause = COSTS.pause(self.live, 0, reclaimed);
        self.garbage = 0;
        self.last_gc_live = self.live;
        self.stats.record(GcKind::Full, pause, reclaimed);
        os.record_trace_with(self.pid, || TraceData::Gc {
            layer: GcLayer::Go,
            reclaimed,
            returned: 0,
            pause_ms: pause.as_millis(),
        });
        GoGcOutcome {
            pause,
            reclaimed,
            returned_to_os: 0,
        }
    }

    /// Releases all free spans to the OS now (the `madvise` work packet of
    /// the Release bucket). Returns the bytes given back.
    pub fn release_to_os(&mut self, os: &mut Kernel) -> u64 {
        let returned = self.release_free(os);
        if returned > 0 {
            self.free_since = None;
        }
        returned
    }

    /// Starts the scavenger clock on the current idle free spans (the
    /// stock-Go half of a collection that does not return immediately).
    pub fn note_idle_free(&mut self, now: SimTime) {
        if self.free() > 0 && self.free_since.is_none() {
            self.free_since = Some(now);
        }
    }

    /// Runs a GC cycle now, regardless of the trigger (the paper's policy
    /// runs this on both threshold signals; M3 also exposes it via
    /// `runtime.GC()`).
    pub fn gc(&mut self, os: &mut Kernel, now: SimTime) -> GoGcOutcome {
        let mut out = self.collect(os);
        if self.cfg.return_immediately {
            out.returned_to_os = self.release_free(os);
        } else {
            self.note_idle_free(now);
        }
        out
    }

    /// Background scavenger: returns idle free spans to the OS once they
    /// have been idle for the configured delay. The world loop calls this
    /// periodically; it is a no-op in `return_immediately` mode (nothing is
    /// left to scavenge).
    pub fn scavenge(&mut self, os: &mut Kernel, now: SimTime) -> u64 {
        match self.free_since {
            Some(t0) if now.saturating_since(t0) >= SCAVENGE_DELAY => {
                self.free_since = None;
                self.release_free(os)
            }
            _ => 0,
        }
    }

    /// Releases all free spans to the OS, keeping one commit chunk of slack.
    /// Rounded down to page granularity (`madvise` operates on whole pages).
    fn release_free(&mut self, os: &mut Kernel) -> u64 {
        let releasable = self.free().saturating_sub(COMMIT_CHUNK) / PAGE_SIZE * PAGE_SIZE;
        if releasable == 0 {
            return 0;
        }
        os.release(self.pid, releasable)
            .expect("go process must be alive");
        self.committed -= releasable;
        self.stats.returned_to_os += releasable;
        releasable
    }

    /// Shuts the runtime down, returning all committed memory to the OS.
    pub fn shutdown(&mut self, os: &mut Kernel) {
        if os.is_alive(self.pid) {
            os.release(self.pid, self.committed)
                .expect("alive process releases cleanly");
        }
        self.committed = 0;
        self.live = 0;
        self.garbage = 0;
        self.free_since = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_os::KernelConfig;
    use m3_sim::units::GIB;

    fn setup(cfg: GoConfig) -> (Kernel, GoRuntime) {
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("go");
        (os, GoRuntime::new(pid, cfg))
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn gogc_paces_collection() {
        let (mut os, mut go) = setup(GoConfig::stock(100));
        let mut gcs = 0;
        for _ in 0..64 {
            go.alloc(&mut os, 8 * MIB, t(0));
            go.free_bytes(8 * MIB); // everything is short-lived
            gcs = go.stats.total_count();
        }
        assert!(gcs > 1, "GOGC=100 must GC repeatedly on a churning heap");
        // Higher GOGC → fewer collections for the same allocation stream.
        let (mut os2, mut go2) = setup(GoConfig::stock(800));
        for _ in 0..64 {
            go2.alloc(&mut os2, 8 * MIB, t(0));
            go2.free_bytes(8 * MIB);
        }
        assert!(go2.stats.total_count() < gcs);
    }

    #[test]
    fn gc_trigger_tracks_live_set() {
        let (mut os, mut go) = setup(GoConfig::stock(100));
        go.alloc(&mut os, 100 * MIB, t(0));
        go.gc(&mut os, t(0));
        // After a cycle with 100 MiB live, next trigger is 200 MiB.
        assert_eq!(go.gc_trigger(), 200 * MIB);
    }

    #[test]
    fn stock_go_scavenges_after_delay() {
        let (mut os, mut go) = setup(GoConfig::stock(100));
        go.alloc(&mut os, GIB, t(0));
        go.free_bytes(GIB);
        go.gc(&mut os, t(10));
        let before = go.committed();
        assert!(before >= GIB, "freed spans stay committed at first");
        assert_eq!(go.scavenge(&mut os, t(10 + 60)), 0, "too early");
        let returned = go.scavenge(&mut os, t(10 + 301));
        assert!(returned > 0, "5-minute scavenger must fire");
        assert!(go.committed() < before);
        assert_eq!(os.rss(go.pid()), go.committed());
    }

    #[test]
    fn m3_go_returns_immediately() {
        let (mut os, mut go) = setup(GoConfig::m3(100));
        go.alloc(&mut os, GIB, t(0));
        go.free_bytes(GIB);
        let out = go.gc(&mut os, t(0));
        assert!(out.returned_to_os > GIB / 2);
        assert!(go.committed() <= COMMIT_CHUNK + go.live() + go.garbage());
    }

    #[test]
    fn gc_without_pressure_still_possible() {
        // §2.2: Go "can still be performed unnecessarily when memory is
        // abundant" — forcing a cycle works at any time.
        let (mut os, mut go) = setup(GoConfig::stock(100));
        go.alloc(&mut os, 10 * MIB, t(0));
        let out = go.gc(&mut os, t(0));
        assert_eq!(out.reclaimed, 0);
        assert!(out.pause > SimDuration::ZERO);
    }

    #[test]
    fn accounting_invariant() {
        let (mut os, mut go) = setup(GoConfig::m3(200));
        for i in 0..32 {
            go.alloc(&mut os, 16 * MIB, t(i));
            if i % 3 == 0 {
                go.free_bytes(20 * MIB);
            }
        }
        assert_eq!(go.committed(), go.live() + go.garbage() + go.free());
        assert_eq!(os.rss(go.pid()), go.committed());
    }

    #[test]
    fn shutdown_releases_everything() {
        let (mut os, mut go) = setup(GoConfig::stock(100));
        go.alloc(&mut os, GIB, t(0));
        go.shutdown(&mut os);
        assert_eq!(go.committed(), 0);
        assert_eq!(os.rss(go.pid()), 0);
    }

    #[test]
    fn scavenge_is_idempotent() {
        let (mut os, mut go) = setup(GoConfig::stock(100));
        go.alloc(&mut os, GIB, t(0));
        go.free_bytes(GIB);
        go.gc(&mut os, t(0));
        let first = go.scavenge(&mut os, t(400));
        assert!(first > 0);
        assert_eq!(go.scavenge(&mut os, t(800)), 0, "nothing left to return");
    }

    #[test]
    fn m3_go_scavenger_is_a_noop() {
        let (mut os, mut go) = setup(GoConfig::m3(100));
        go.alloc(&mut os, GIB, t(0));
        go.free_bytes(GIB);
        go.gc(&mut os, t(0)); // returned immediately
        assert_eq!(go.scavenge(&mut os, t(1000)), 0);
    }
}
