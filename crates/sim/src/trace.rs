//! Typed end-to-end event tracing.
//!
//! Tests, the experiment harness and the conformance oracle assert on *what
//! happened* (a young GC ran before Spark evicted; the monitor signalled
//! exactly the processes Algorithm 1 selected) rather than scraping logs.
//! Components append [`TraceEvent`]s to a shared [`TraceLog`]; each event
//! carries a typed [`TraceData`] payload so a replay oracle can recompute
//! the paper's formulas from the recorded inputs instead of parsing strings.
//!
//! Every payload maps to a stable dotted *kind* string (e.g. `"gc.young"`,
//! `"signal.high"`, `"evict.blocks"`); the prefix-query helpers
//! ([`TraceLog::of_kind`], [`TraceLog::happened_before`], ...) operate on
//! those kinds, so existing string-based assertions keep working.
//!
//! The wire format is declared once: the `trace_data!` table below lists
//! every variant with its docs, its kind string(s) and its fields, and
//! generates the enum, [`TraceData::kind`], the flat field serializer and
//! the deserializer, which rejects a line whose kind disagrees with its
//! payload. To add a kind, add one table entry. The paper oracle's
//! exhaustive `match` over [`TraceData`] in `m3-oracle` then stops
//! compiling until the new kind is given a check, or explicitly none.

use crate::clock::SimTime;
use serde::{map_field, Content, DeError, Deserialize, Serialize};

/// Monitor zone as recorded in a trace (mirrors `m3-core`'s `Zone` without
/// depending on it; `m3-sim` sits below `m3-core` in the crate stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceZone {
    /// Usage below the low threshold.
    Green,
    /// Usage between the low and high thresholds.
    Yellow,
    /// Usage between the high threshold and the top of memory.
    Red,
    /// Usage above the top of memory.
    AboveTop,
}

/// Which notification a signal event carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SigKind {
    /// Low-threshold (early-warning) signal.
    Low,
    /// High-threshold (severe-pressure) signal.
    High,
    /// Kill signal.
    Kill,
}

/// Which threshold a `ThresholdAdjust` event moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThresholdSide {
    /// The low threshold.
    Low,
    /// The high threshold.
    High,
}

/// Why an application-layer eviction ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictReason {
    /// Responding to a low-threshold signal (Table 1).
    LowSignal,
    /// Responding to a high-threshold signal (Table 1).
    HighSignal,
    /// Making room under a static capacity limit.
    Capacity,
    /// A delayed allocation evicting to satisfy itself (§4.2).
    AdmissionDelay,
}

/// Which collection a `Gc` event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GcLayer {
    /// JVM young collection.
    Young,
    /// JVM mixed collection.
    Mixed,
    /// JVM full collection.
    Full,
    /// Go runtime GC cycle.
    Go,
}

/// Ordered work bucket of the reclamation packet scheduler. A bucket opens
/// only after every packet in all earlier buckets has finished, encoding the
/// paper's top-down order at packet granularity: upper layers mark bytes
/// dead (`Prepare`), runtimes trace and sweep them (`Collect`), and madvise
/// batches return the freed pages (`Release`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PacketBucket {
    /// Application/framework-layer work that marks bytes dead: block-cache
    /// and slab evictions (Table 1's upper rows).
    Prepare,
    /// Runtime-layer collection work: young scan/evacuate, old-generation
    /// trace, full compaction, Go mark/sweep.
    Collect,
    /// OS-layer release work: batched `madvise` of the pages the collection
    /// freed.
    Release,
}

impl PacketBucket {
    /// All buckets in opening order.
    pub const ALL: [PacketBucket; 3] = [
        PacketBucket::Prepare,
        PacketBucket::Collect,
        PacketBucket::Release,
    ];

    /// Stable name used in traces and reports.
    pub fn name(&self) -> &'static str {
        match self {
            PacketBucket::Prepare => "prepare",
            PacketBucket::Collect => "collect",
            PacketBucket::Release => "release",
        }
    }
}

/// Job criticality class for mixed-criticality scheduling (SARA/MURS:
/// pressure decisions must respect criticality, not just memory posture).
///
/// Lives in `m3-sim` so trace events, the monitor, the fleet scheduler and
/// the oracle all share one definition. The derived `Ord` runs from least to
/// most expendable is NOT implied — use [`Criticality::expendability`] for
/// victim ordering.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum Criticality {
    /// Latency-critical serving tier: killed/evicted last, never disturbed
    /// by early-warning reclamation.
    LatencyCritical,
    /// Ordinary job: the paper's behaviour, unchanged.
    #[default]
    Standard,
    /// Batch analytics: absorbs pressure first (earlier/larger evictions,
    /// first in the kill ordering, preemptible by critical admissions).
    Batch,
}

impl Criticality {
    /// All classes, least expendable first.
    pub const ALL: [Criticality; 3] = [
        Criticality::LatencyCritical,
        Criticality::Standard,
        Criticality::Batch,
    ];

    /// Stable name used in traces and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Criticality::LatencyCritical => "latency_critical",
            Criticality::Standard => "standard",
            Criticality::Batch => "batch",
        }
    }

    /// Parses a stable name back into a class.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "latency_critical" => Some(Criticality::LatencyCritical),
            "standard" => Some(Criticality::Standard),
            "batch" => Some(Criticality::Batch),
            _ => None,
        }
    }

    /// How readily this class is sacrificed under pressure: higher values
    /// are killed, evicted, and preempted before lower ones.
    pub fn expendability(&self) -> u8 {
        match self {
            Criticality::LatencyCritical => 0,
            Criticality::Standard => 1,
            Criticality::Batch => 2,
        }
    }
}

/// One Algorithm 1 candidate as the monitor saw it at selection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateInfo {
    /// The candidate process.
    pub pid: u64,
    /// When the process was spawned, ms.
    pub spawned_at_ms: u64,
    /// Resident set size at selection time, bytes.
    pub rss: u64,
    /// Expected reclamation on a high signal, bytes.
    pub expected_reclaim: u64,
    /// The candidate's criticality class.
    pub crit: Criticality,
}

/// Declares [`TraceData`] from one table and generates its wire format from
/// the same table: [`TraceData::kind`], the flat field serializer and the
/// deserializer.
///
/// An entry is `Variant "kind" { fields }`, or `Variant "kind"` for a unit
/// variant. When a field picks the kind, the entry is
/// `Variant [field: "kind0" | "kind1" | ...] { fields }` with one kind per
/// value of that field in declaration order (`false` then `true` for a
/// `bool`).
macro_rules! trace_data {
    (@pat $variant:ident $kind:literal) => {
        TraceData::$variant { .. }
    };
    (@pat $variant:ident [$by:ident : $($kind:literal)|+]) => {
        TraceData::$variant { $by, .. }
    };
    (@kind $kind:literal) => {
        $kind
    };
    (@kind [$by:ident : $($kind:literal)|+]) => {
        [$($kind),+][*$by as usize]
    };
    (@kinds $kind:literal) => {
        $kind
    };
    (@kinds [$by:ident : $($kind:literal)|+]) => {
        $($kind)|+
    };
    (
        $(#[$meta:meta])*
        pub enum TraceData {
            $(
                $(#[$vmeta:meta])*
                $variant:ident $kinds:tt $({
                    $($(#[$fmeta:meta])* $field:ident: $fty:ty,)*
                })?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceData {
            $(
                $(#[$vmeta])*
                $variant $({
                    $($(#[$fmeta])* $field: $fty,)*
                })?,
            )*
        }

        impl TraceData {
            /// The stable dotted kind string for this payload.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(trace_data!(@pat $variant $kinds) => trace_data!(@kind $kinds),)*
                }
            }

            /// The payload's named fields, in declaration order.
            fn fields(&self) -> Vec<(String, Content)> {
                match self {
                    $(TraceData::$variant $({ $($field),* })? => vec![
                        $($((stringify!($field).to_string(), $field.serialize())),*)?
                    ],)*
                }
            }
        }

        impl Deserialize for TraceData {
            fn deserialize(c: &Content) -> Result<Self, DeError> {
                let kind: String = map_field(c, "kind")?;
                let data = match kind.as_str() {
                    $(trace_data!(@kinds $kinds) => TraceData::$variant $({
                        $($field: map_field(c, stringify!($field))?,)*
                    })?,)*
                    other => return Err(DeError::new(format!("unknown trace kind `{other}`"))),
                };
                if data.kind() != kind {
                    return Err(DeError::new(format!(
                        "trace kind `{kind}` disagrees with its payload, which is `{}`",
                        data.kind()
                    )));
                }
                Ok(data)
            }
        }
    };
}

trace_data! {
    /// The typed payload of one traced event.
    ///
    /// Each variant serializes as a flat map whose `"kind"` entry is the stable
    /// dotted string returned by [`TraceData::kind`]; signal, threshold, GC and
    /// allocation-gate variants encode their discriminating sub-field in the
    /// kind itself (`"signal.high"`, `"gc.young"`, `"alloc.delay"`, ...).
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceData {
        /// A process was spawned.
        ProcSpawn "proc.spawn" {
            /// Display name of the process.
            name: String,
        },
        /// A process was respawned reusing an existing pid.
        ProcRespawn "proc.respawn" {
            /// Display name of the process.
            name: String,
        },
        /// A process exited normally.
        ProcExit "proc.exit",
        /// A process was killed.
        ProcKill "proc.kill",
        /// The kernel OOM killer chose this victim.
        OomKill "oom.kill",
        /// A threshold/kill signal was delivered to the process.
        SignalSent [sig: "signal.low" | "signal.high" | "signal.kill"] {
            /// Which signal.
            sig: SigKind,
        },
        /// A signal was dropped by a faulty bus.
        SignalDropped "signal.dropped" {
            /// Which signal.
            sig: SigKind,
        },
        /// A signal was delayed by a laggy bus.
        SignalDelayed "signal.delayed" {
            /// Which signal.
            sig: SigKind,
        },
        /// Memory was returned to the OS (`madvise(MADV_FREE)`-equivalent).
        Madvise "mem.madvise" {
            /// Bytes actually released.
            bytes: u64,
        },
        /// One monitor poll completed (§5): the zone it classified, the
        /// thresholds in force, and every pid it signalled or killed this poll.
        MonitorPoll "monitor.poll" {
            /// The zone the poll classified usage into.
            zone: TraceZone,
            /// Memory usage observed, bytes.
            used: u64,
            /// Low threshold after this poll's adjustment, bytes.
            low: u64,
            /// High threshold after this poll's adjustment, bytes.
            high: u64,
            /// True when the poll ran on stale/degraded meminfo.
            degraded: bool,
            /// Pids sent a low signal this poll, in send order.
            low_signalled: Vec<u64>,
            /// Pids sent a high signal this poll, in send order.
            high_signalled: Vec<u64>,
            /// Pids killed this poll, in kill order.
            killed: Vec<u64>,
        },
        /// The monitor's zone changed between polls.
        ZoneChange "monitor.zone" {
            /// Previous zone.
            from: TraceZone,
            /// New zone.
            to: TraceZone,
        },
        /// An adaptive threshold moved (§5.2).
        ThresholdAdjust [side: "threshold.adjust.low" | "threshold.adjust.high"] {
            /// Which threshold moved.
            side: ThresholdSide,
            /// Value before, bytes.
            old: u64,
            /// Value after, bytes.
            new: u64,
        },
        /// Algorithm 1 ran (§5.1).
        Selection "monitor.select" {
            /// The sort order used.
            order: String,
            /// Reclamation target, bytes.
            target: u64,
            /// True for the above-top signal-everyone escalation.
            all: bool,
            /// The unsorted candidate set the algorithm saw.
            candidates: Vec<CandidateInfo>,
            /// The selected pids, in signalling order.
            selected: Vec<u64>,
        },
        /// The watchdog suppressed a high signal during backoff cooldown (§6).
        WatchdogSkip "watchdog.skip",
        /// The watchdog escalated an unresponsive process into backoff.
        WatchdogEscalate "watchdog.escalate" {
            /// The new backoff length, polls.
            backoff: u64,
        },
        /// The watchdog re-signalled after a full cooldown.
        WatchdogResignal "watchdog.resignal" {
            /// The backoff length that just elapsed, polls.
            backoff: u64,
        },
        /// The monitor killed a process to get back under top (§6).
        MonitorKill "monitor.kill" {
            /// The victim's RSS at kill time, bytes.
            rss: u64,
        },
        /// An application signal handler started.
        HandlerStart "handler.start" {
            /// Which signal it is handling.
            sig: SigKind,
        },
        /// An application signal handler finished.
        HandlerEnd "handler.end" {
            /// Which signal it handled.
            sig: SigKind,
            /// Handler wall time (the §4.2 epoch length), ms.
            duration_ms: u64,
            /// Bytes the whole stack returned to the OS.
            returned: u64,
        },
        /// A framework-layer block-cache eviction (Spark, Table 1).
        EvictBlocks "evict.blocks" {
            /// Cached blocks before eviction.
            before: u64,
            /// Blocks evicted.
            evicted: u64,
            /// Bytes freed (marked dead in the layer below).
            bytes: u64,
            /// Why the eviction ran.
            reason: EvictReason,
        },
        /// A cache-layer slab eviction (Go-Cache/Memcached, Table 1).
        EvictSlabs "evict.slabs" {
            /// Resident slabs before eviction.
            before: u64,
            /// Slabs evicted.
            evicted: u64,
            /// Items evicted.
            items: u64,
            /// Bytes freed (marked dead in the layer below).
            bytes: u64,
            /// Why the eviction ran.
            reason: EvictReason,
        },
        /// Per-slab-class detail of a signal-driven cache eviction; a group of
        /// these immediately precedes the aggregate [`TraceData::EvictSlabs`]
        /// they sum to (key-granular runs only).
        EvictClass "evict.class" {
            /// Chunk size of the slab class, bytes.
            chunk: u64,
            /// Slabs the class held before eviction.
            before: u64,
            /// Slabs evicted from the class.
            evicted: u64,
            /// Live items removed with them.
            items: u64,
            /// Bytes freed (whole slabs).
            bytes: u64,
            /// Why the eviction ran.
            reason: EvictReason,
        },
        /// Cumulative key-granular cache statistics (trace workloads): emitted
        /// periodically during the measured phase and once at completion.
        CacheStats "cache.stats" {
            /// Requests completed.
            requests: u64,
            /// GET hits.
            hits: u64,
            /// GET misses (including negative lookups).
            misses: u64,
            /// Negative lookups among the misses.
            negative: u64,
            /// SETs applied.
            sets: u64,
            /// DELETEs applied.
            deletes: u64,
            /// Inserts delayed by the adaptive protocol.
            delayed: u64,
            /// Items evicted by capacity pressure.
            capacity_items: u64,
            /// Resident bytes (whole slabs).
            resident_bytes: u64,
            /// Live items.
            live_items: u64,
            /// Simulated milliseconds since the measured phase began.
            serve_ms: u64,
        },
        /// A runtime-layer collection ran.
        Gc [layer: "gc.young" | "gc.mixed" | "gc.full" | "gc.go"] {
            /// Which collection.
            layer: GcLayer,
            /// Bytes freed inside the heap.
            reclaimed: u64,
            /// Bytes returned to the OS by this collection.
            returned: u64,
            /// Stop-the-world pause charged to the mutator, ms.
            pause_ms: u64,
        },
        /// One adaptive-allocation gate decision (§4.2, per-allocation form).
        AllocGate [delayed: "alloc.admit" | "alloc.delay"] {
            /// True if this allocation was delayed (evict first).
            delayed: bool,
            /// The allow rate at decision time.
            rate: f64,
            /// Time since the last high signal, ms.
            elapsed_ms: u64,
            /// Epoch length (time handling the last high signal), ms.
            epoch_ms: u64,
            /// `NUM_epochs` of the protocol instance.
            num_epochs: u32,
            /// Recovery curve name (`"Linear"`, `"Exponential"`, `"Step"`).
            curve: String,
        },
        /// One adaptive-allocation batched gate decision (§4.2, batched form).
        AllocBatch "alloc.batch" {
            /// Allocation attempts in the batch.
            n: u64,
            /// How many of them were delayed.
            delayed: u64,
            /// The allow rate at decision time.
            rate: f64,
            /// Time since the last high signal, ms.
            elapsed_ms: u64,
            /// Epoch length, ms.
            epoch_ms: u64,
            /// `NUM_epochs` of the protocol instance.
            num_epochs: u32,
            /// Recovery curve name.
            curve: String,
        },
        /// The fleet scheduler probed one node's live pressure summary (the
        /// event's `pid` is the node index).
        FleetPressure "fleet.pressure" {
            /// The probed node.
            node: u64,
            /// The node's zone at probe time.
            zone: TraceZone,
            /// Committed bytes observed on the node.
            used: u64,
            /// Summed demand estimates of the node's assigned unfinished jobs
            /// (what admission ranks against when it exceeds `used`).
            reserved: u64,
            /// The node's high threshold at probe time.
            high: u64,
            /// The node's top of memory.
            top: u64,
            /// Watchdog escalations accumulated on the node so far.
            escalations: u64,
        },
        /// The fleet scheduler admitted a job and placed it onto a node (the
        /// event's `pid` is the job index).
        FleetPlace "fleet.place" {
            /// The placed job (scenario schedule index).
            job: u64,
            /// The target node.
            node: u64,
            /// The node's committed bytes at admission time.
            used: u64,
            /// The job's estimated peak demand, bytes.
            demand: u64,
            /// The target node's top of memory.
            top: u64,
        },
        /// Admission control found no feasible node and deferred the job.
        FleetDefer "fleet.defer" {
            /// The deferred job.
            job: u64,
            /// How many admission attempts the job has made so far.
            attempt: u64,
            /// When the job will retry, ms.
            retry_at_ms: u64,
        },
        /// Red-zone rebalancing migrated a job off a node armed beyond the
        /// grace window.
        FleetMigrate "fleet.migrate" {
            /// The migrated job.
            job: u64,
            /// The armed source node.
            from: u64,
            /// The target node.
            to: u64,
            /// How long the source had been observed red, ms.
            red_for_ms: u64,
        },
        /// A job exhausted its deferral budget and was reported unplaceable.
        FleetGiveUp "fleet.giveup" {
            /// The rejected job.
            job: u64,
            /// Admission attempts made before giving up.
            attempts: u64,
            /// The job's estimated peak demand, bytes (lets the oracle check no
            /// probed node could in fact have admitted the job).
            demand: u64,
        },
        /// A whole node crashed; every job resident on it died mid-run (the
        /// event's `pid` is the node index).
        FleetNodeLost "fleet.node_lost" {
            /// The dead node.
            node: u64,
            /// Jobs that were alive on the node when it died.
            jobs_lost: u64,
        },
        /// A job lost to node death was re-queued for placement (`requeued`)
        /// or found its retry budget exhausted (the event's `pid` is the job).
        FleetReschedule "fleet.reschedule" {
            /// The lost job.
            job: u64,
            /// The node that died under it.
            from: u64,
            /// Node-loss incidents this job has now survived.
            retries: u64,
            /// When the job re-enters the arrival queue, ms (0 when not
            /// requeued).
            retry_at_ms: u64,
            /// True if the job re-enters the queue; false if the retry budget
            /// is exhausted and a give-up record follows.
            requeued: bool,
        },
        /// A node's probe endpoint health changed its quarantine state (the
        /// event's `pid` is the node index).
        FleetQuarantine "fleet.quarantine" {
            /// The node entering or leaving quarantine.
            node: u64,
            /// True on quarantine entry, false on re-admission.
            entered: bool,
            /// The probe streak that triggered the transition: consecutive
            /// failures on entry, consecutive healthy probes on exit.
            streak: u64,
        },
        /// The fleet scheduler recorded a job's criticality class and latency
        /// SLO at submission time (the event's `pid` is the job index).
        SchedClassAssign "sched.class.assign" {
            /// The classified job.
            job: u64,
            /// Its criticality class.
            crit: Criticality,
            /// Its latency SLO, ms (0 = no SLO).
            slo_ms: u64,
        },
        /// A critical admission preempted a lower-criticality resident's
        /// reservation instead of deferring (the event's `pid` is the admitted
        /// job).
        SchedClassPreempt "sched.class.preempt" {
            /// The admitted job.
            job: u64,
            /// The admitted job's class.
            crit: Criticality,
            /// The preempted resident.
            victim: u64,
            /// The preempted resident's class.
            victim_crit: Criticality,
            /// The node the preemption happened on.
            node: u64,
        },
        /// Per-job SLO accounting emitted when a job leaves the fleet (the
        /// event's `pid` is the job index).
        SchedClassSlo "sched.class.slo" {
            /// The finished job.
            job: u64,
            /// Its criticality class.
            crit: Criticality,
            /// Its latency SLO, ms (0 = no SLO).
            slo_ms: u64,
            /// Wall time from submission to completion, ms.
            runtime_ms: u64,
            /// Time spent stalled (deferred/queued) rather than running, ms.
            stall_ms: u64,
            /// Whether the SLO was met (vacuously true without one).
            met: bool,
        },
        /// The monitor killed a process with criticality context: the victim's
        /// class and the not-yet-killed candidate set it was chosen from (the
        /// event's `pid` is the victim; one event per kill, paired with the
        /// plain `monitor.kill`).
        KillClass "kill.class" {
            /// The victim's criticality class.
            crit: Criticality,
            /// The alive candidates the victim was chosen from, victim included.
            candidates: Vec<CandidateInfo>,
        },
        /// A reclamation work packet entered its bucket (one drain's packets
        /// are all enqueued before any executes; ids are drain-local).
        PacketEnqueue "reclaim.packet.enqueue" {
            /// Drain-local packet id.
            packet: u64,
            /// Stable packet-kind name (`"evict_blocks"`, `"gc_young"`, ...).
            pkind: String,
            /// The bucket the packet was placed in.
            bucket: PacketBucket,
            /// Ids of packets that must finish before this one may start.
            deps: Vec<u64>,
        },
        /// A reclamation work packet began executing.
        PacketStart "reclaim.packet.start" {
            /// Drain-local packet id.
            packet: u64,
            /// The packet's bucket.
            bucket: PacketBucket,
            /// The drain wave (execution round) the packet ran in.
            wave: u64,
        },
        /// A reclamation work packet finished executing.
        PacketFinish "reclaim.packet.finish" {
            /// Drain-local packet id.
            packet: u64,
            /// The packet's bucket.
            bucket: PacketBucket,
            /// Bytes the packet reclaimed in its own layer (evicted or freed
            /// inside the heap); sums to the aggregate `evict.*`/`gc.*` bytes
            /// of the same handler window.
            bytes: u64,
            /// Bytes the packet returned to the OS (madvise); sums to the
            /// window's `mem.madvise` bytes.
            returned: u64,
            /// Execution cost charged to the mutator, ms.
            duration_ms: u64,
        },
        /// A ready bucket held a packet back because a dependency had not
        /// finished yet (the packet waits at least one more wave).
        PacketStall "reclaim.packet.stall" {
            /// Drain-local packet id of the stalled packet.
            packet: u64,
            /// The unfinished dependency it is waiting on.
            waiting_on: u64,
            /// The wave that skipped it.
            wave: u64,
        },
    }
}

impl Serialize for TraceData {
    fn serialize(&self) -> Content {
        let mut m = vec![("kind".to_string(), Content::Str(self.kind().to_string()))];
        m.extend(self.fields());
        Content::Map(m)
    }
}

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When the event happened.
    pub t: SimTime,
    /// The process the event concerns (0 for system-wide events).
    pub pid: u64,
    /// The typed payload.
    pub data: TraceData,
}

impl TraceEvent {
    /// The event's stable dotted kind string.
    pub fn kind(&self) -> &'static str {
        self.data.kind()
    }
}

impl Serialize for TraceEvent {
    fn serialize(&self) -> Content {
        let mut m = vec![
            ("t".to_string(), self.t.serialize()),
            ("pid".to_string(), Content::U64(self.pid)),
        ];
        match self.data.serialize() {
            Content::Map(fields) => m.extend(fields),
            other => m.push(("data".to_string(), other)),
        }
        Content::Map(m)
    }
}

impl Deserialize for TraceEvent {
    fn deserialize(c: &Content) -> Result<Self, DeError> {
        Ok(TraceEvent {
            t: map_field(c, "t")?,
            pid: map_field(c, "pid")?,
            data: TraceData::deserialize(c)?,
        })
    }
}

/// An append-only in-memory event log.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl TraceLog {
    /// Creates an enabled, empty log.
    pub fn new() -> Self {
        TraceLog {
            events: Vec::new(),
            enabled: true,
        }
    }

    /// Creates a disabled log that drops all events (for benchmark runs).
    /// Its backing `Vec` never allocates: [`TraceLog::record`] and
    /// [`TraceLog::record_with`] return before touching it.
    pub fn disabled() -> Self {
        TraceLog {
            events: Vec::new(),
            enabled: false,
        }
    }

    /// True when events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event (no-op when disabled).
    pub fn record(&mut self, t: SimTime, pid: u64, data: TraceData) {
        if self.enabled {
            self.events.push(TraceEvent { t, pid, data });
        }
    }

    /// Appends an event built lazily: `make` runs only when the log is
    /// enabled, so hot paths pay nothing for tracing when it is off.
    pub fn record_with(&mut self, t: SimTime, pid: u64, make: impl FnOnce() -> TraceData) {
        if self.enabled {
            self.events.push(TraceEvent {
                t,
                pid,
                data: make(),
            });
        }
    }

    /// All events, in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events whose kind starts with `prefix`.
    pub fn of_kind<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events
            .iter()
            .filter(move |e| e.kind().starts_with(prefix))
    }

    /// Number of events whose kind starts with `prefix`.
    pub fn count(&self, prefix: &str) -> usize {
        self.of_kind(prefix).count()
    }

    /// The first event of the given kind prefix, if any.
    pub fn first(&self, prefix: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.kind().starts_with(prefix))
    }

    /// The last event of the given kind prefix, if any.
    pub fn last(&self, prefix: &str) -> Option<&TraceEvent> {
        self.events
            .iter()
            .rev()
            .find(|e| e.kind().starts_with(prefix))
    }

    /// True if an event with kind-prefix `a` occurs before one with `b`.
    ///
    /// Returns `false` if either never occurs.
    pub fn happened_before(&self, a: &str, b: &str) -> bool {
        let ia = self.events.iter().position(|e| e.kind().starts_with(a));
        let ib = self.events.iter().position(|e| e.kind().starts_with(b));
        matches!((ia, ib), (Some(x), Some(y)) if x < y)
    }

    /// Discards all recorded events (keeps the enabled flag).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn gc(layer: GcLayer, reclaimed: u64) -> TraceData {
        TraceData::Gc {
            layer,
            reclaimed,
            returned: 0,
            pause_ms: 1,
        }
    }

    #[test]
    fn records_and_queries() {
        let mut log = TraceLog::new();
        log.record(t(1), 10, gc(GcLayer::Young, 5));
        log.record(t(2), 10, gc(GcLayer::Mixed, 9));
        log.record(t(3), 11, TraceData::SignalSent { sig: SigKind::High });
        assert_eq!(log.len(), 3);
        assert_eq!(log.count("gc"), 2);
        assert_eq!(log.count("gc.young"), 1);
        assert!(matches!(
            log.first("gc").unwrap().data,
            TraceData::Gc { reclaimed: 5, .. }
        ));
        assert_eq!(log.last("gc").unwrap().kind(), "gc.mixed");
        assert_eq!(log.count("signal.high"), 1);
    }

    #[test]
    fn ordering_queries() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            1,
            TraceData::EvictBlocks {
                before: 8,
                evicted: 1,
                bytes: 100,
                reason: EvictReason::HighSignal,
            },
        );
        log.record(t(2), 1, gc(GcLayer::Mixed, 50));
        assert!(log.happened_before("evict", "gc"));
        assert!(!log.happened_before("gc", "evict"));
        assert!(!log.happened_before("gc", "never"));
        assert!(!log.happened_before("never", "gc"));
    }

    #[test]
    fn disabled_log_drops_events_without_allocating() {
        let mut log = TraceLog::disabled();
        log.record(t(1), 1, gc(GcLayer::Young, 0));
        log.record_with(t(2), 1, || unreachable!("closure must not run"));
        assert!(log.is_empty());
        assert_eq!(log.events.capacity(), 0, "disabled log never allocates");
        assert!(!log.is_enabled());
    }

    #[test]
    fn record_with_is_lazy_only_when_disabled() {
        let mut log = TraceLog::new();
        log.record_with(t(1), 1, || gc(GcLayer::Go, 7));
        assert_eq!(log.len(), 1);
        assert_eq!(log.first("gc.go").unwrap().pid, 1);
    }

    #[test]
    fn clear_resets() {
        let mut log = TraceLog::new();
        log.record(t(1), 1, TraceData::ProcExit);
        log.clear();
        assert!(log.is_empty());
        log.record(t(2), 1, TraceData::ProcKill);
        assert_eq!(log.len(), 1);
    }

    fn gate(delayed: bool) -> TraceData {
        TraceData::AllocGate {
            delayed,
            rate: 0.5,
            elapsed_ms: 1,
            epoch_ms: 2,
            num_epochs: 1,
            curve: "Linear".into(),
        }
    }

    #[test]
    fn every_kind_string_is_stable_and_round_trips() {
        let cases: Vec<(&str, TraceData)> = vec![
            ("proc.spawn", TraceData::ProcSpawn { name: "x".into() }),
            ("proc.respawn", TraceData::ProcRespawn { name: "x".into() }),
            ("proc.exit", TraceData::ProcExit),
            ("proc.kill", TraceData::ProcKill),
            ("oom.kill", TraceData::OomKill),
            ("signal.low", TraceData::SignalSent { sig: SigKind::Low }),
            ("signal.high", TraceData::SignalSent { sig: SigKind::High }),
            ("signal.kill", TraceData::SignalSent { sig: SigKind::Kill }),
            (
                "signal.dropped",
                TraceData::SignalDropped { sig: SigKind::High },
            ),
            (
                "signal.delayed",
                TraceData::SignalDelayed { sig: SigKind::Low },
            ),
            ("mem.madvise", TraceData::Madvise { bytes: 1 }),
            (
                "monitor.poll",
                TraceData::MonitorPoll {
                    zone: TraceZone::Red,
                    used: 100,
                    low: 50,
                    high: 80,
                    degraded: false,
                    low_signalled: vec![],
                    high_signalled: vec![3, 4],
                    killed: vec![],
                },
            ),
            (
                "monitor.zone",
                TraceData::ZoneChange {
                    from: TraceZone::Green,
                    to: TraceZone::AboveTop,
                },
            ),
            (
                "threshold.adjust.low",
                TraceData::ThresholdAdjust {
                    side: ThresholdSide::Low,
                    old: 2,
                    new: 1,
                },
            ),
            (
                "threshold.adjust.high",
                TraceData::ThresholdAdjust {
                    side: ThresholdSide::High,
                    old: 1,
                    new: 2,
                },
            ),
            (
                "monitor.select",
                TraceData::Selection {
                    order: "NewestFirst".into(),
                    target: 20,
                    all: false,
                    candidates: vec![CandidateInfo {
                        pid: 3,
                        spawned_at_ms: 0,
                        rss: 100,
                        expected_reclaim: 25,
                        crit: Criticality::Standard,
                    }],
                    selected: vec![3],
                },
            ),
            ("watchdog.skip", TraceData::WatchdogSkip),
            (
                "watchdog.escalate",
                TraceData::WatchdogEscalate { backoff: 2 },
            ),
            (
                "watchdog.resignal",
                TraceData::WatchdogResignal { backoff: 4 },
            ),
            ("monitor.kill", TraceData::MonitorKill { rss: 1 << 30 }),
            (
                "handler.start",
                TraceData::HandlerStart { sig: SigKind::High },
            ),
            (
                "handler.end",
                TraceData::HandlerEnd {
                    sig: SigKind::Low,
                    duration_ms: 40,
                    returned: 1 << 20,
                },
            ),
            (
                "evict.blocks",
                TraceData::EvictBlocks {
                    before: 8,
                    evicted: 1,
                    bytes: 100,
                    reason: EvictReason::HighSignal,
                },
            ),
            (
                "evict.slabs",
                TraceData::EvictSlabs {
                    before: 10,
                    evicted: 2,
                    items: 30,
                    bytes: 2 << 20,
                    reason: EvictReason::AdmissionDelay,
                },
            ),
            (
                "evict.class",
                TraceData::EvictClass {
                    chunk: 1024,
                    before: 10,
                    evicted: 1,
                    items: 7,
                    bytes: 1 << 20,
                    reason: EvictReason::LowSignal,
                },
            ),
            (
                "cache.stats",
                TraceData::CacheStats {
                    requests: 100,
                    hits: 90,
                    misses: 10,
                    negative: 5,
                    sets: 7,
                    deletes: 3,
                    delayed: 2,
                    capacity_items: 1,
                    resident_bytes: 1 << 20,
                    live_items: 42,
                    serve_ms: 1000,
                },
            ),
            ("gc.young", gc(GcLayer::Young, 5)),
            ("gc.mixed", gc(GcLayer::Mixed, 9)),
            ("gc.full", gc(GcLayer::Full, 0)),
            ("gc.go", gc(GcLayer::Go, 7)),
            ("alloc.admit", gate(false)),
            ("alloc.delay", gate(true)),
            (
                "alloc.batch",
                TraceData::AllocBatch {
                    n: 10,
                    delayed: 4,
                    rate: 0.6,
                    elapsed_ms: 600,
                    epoch_ms: 1000,
                    num_epochs: 1,
                    curve: "Linear".into(),
                },
            ),
            (
                "fleet.pressure",
                TraceData::FleetPressure {
                    node: 0,
                    zone: TraceZone::Green,
                    used: 1,
                    reserved: 4,
                    high: 2,
                    top: 3,
                    escalations: 0,
                },
            ),
            (
                "fleet.pressure",
                TraceData::FleetPressure {
                    node: 2,
                    zone: TraceZone::Yellow,
                    used: 10,
                    reserved: 15,
                    high: 20,
                    top: 30,
                    escalations: 1,
                },
            ),
            (
                "fleet.place",
                TraceData::FleetPlace {
                    job: 0,
                    node: 1,
                    used: 2,
                    demand: 3,
                    top: 4,
                },
            ),
            (
                "fleet.place",
                TraceData::FleetPlace {
                    job: 1,
                    node: 2,
                    used: 10,
                    demand: 5,
                    top: 30,
                },
            ),
            (
                "fleet.defer",
                TraceData::FleetDefer {
                    job: 0,
                    attempt: 1,
                    retry_at_ms: 2,
                },
            ),
            (
                "fleet.migrate",
                TraceData::FleetMigrate {
                    job: 0,
                    from: 1,
                    to: 2,
                    red_for_ms: 3,
                },
            ),
            (
                "fleet.migrate",
                TraceData::FleetMigrate {
                    job: 1,
                    from: 2,
                    to: 0,
                    red_for_ms: 9000,
                },
            ),
            (
                "fleet.giveup",
                TraceData::FleetGiveUp {
                    job: 0,
                    attempts: 3,
                    demand: 5,
                },
            ),
            (
                "fleet.node_lost",
                TraceData::FleetNodeLost {
                    node: 4,
                    jobs_lost: 2,
                },
            ),
            (
                "fleet.node_lost",
                TraceData::FleetNodeLost {
                    node: 2,
                    jobs_lost: 1,
                },
            ),
            (
                "fleet.reschedule",
                TraceData::FleetReschedule {
                    job: 0,
                    from: 4,
                    retries: 1,
                    retry_at_ms: 90_000,
                    requeued: true,
                },
            ),
            (
                "fleet.reschedule",
                TraceData::FleetReschedule {
                    job: 1,
                    from: 2,
                    retries: 1,
                    retry_at_ms: 9_500,
                    requeued: true,
                },
            ),
            (
                "fleet.quarantine",
                TraceData::FleetQuarantine {
                    node: 4,
                    entered: true,
                    streak: 2,
                },
            ),
            (
                "fleet.quarantine",
                TraceData::FleetQuarantine {
                    node: 0,
                    entered: false,
                    streak: 3,
                },
            ),
            (
                "sched.class.assign",
                TraceData::SchedClassAssign {
                    job: 0,
                    crit: Criticality::LatencyCritical,
                    slo_ms: 5000,
                },
            ),
            (
                "sched.class.assign",
                TraceData::SchedClassAssign {
                    job: 1,
                    crit: Criticality::Batch,
                    slo_ms: 0,
                },
            ),
            (
                "sched.class.preempt",
                TraceData::SchedClassPreempt {
                    job: 0,
                    crit: Criticality::LatencyCritical,
                    victim: 1,
                    victim_crit: Criticality::Batch,
                    node: 2,
                },
            ),
            (
                "sched.class.slo",
                TraceData::SchedClassSlo {
                    job: 0,
                    crit: Criticality::Standard,
                    slo_ms: 0,
                    runtime_ms: 900,
                    stall_ms: 0,
                    met: true,
                },
            ),
            (
                "sched.class.slo",
                TraceData::SchedClassSlo {
                    job: 0,
                    crit: Criticality::LatencyCritical,
                    slo_ms: 4000,
                    runtime_ms: 3500,
                    stall_ms: 120,
                    met: true,
                },
            ),
            (
                "kill.class",
                TraceData::KillClass {
                    crit: Criticality::Batch,
                    candidates: vec![],
                },
            ),
            (
                "kill.class",
                TraceData::KillClass {
                    crit: Criticality::Batch,
                    candidates: vec![CandidateInfo {
                        pid: 5,
                        spawned_at_ms: 100,
                        rss: 64,
                        expected_reclaim: 6,
                        crit: Criticality::Batch,
                    }],
                },
            ),
            (
                "reclaim.packet.enqueue",
                TraceData::PacketEnqueue {
                    packet: 0,
                    pkind: "evict_blocks".into(),
                    bucket: PacketBucket::Prepare,
                    deps: vec![],
                },
            ),
            (
                "reclaim.packet.enqueue",
                TraceData::PacketEnqueue {
                    packet: 2,
                    pkind: "gc_old".into(),
                    bucket: PacketBucket::Collect,
                    deps: vec![1],
                },
            ),
            (
                "reclaim.packet.start",
                TraceData::PacketStart {
                    packet: 1,
                    bucket: PacketBucket::Collect,
                    wave: 1,
                },
            ),
            (
                "reclaim.packet.start",
                TraceData::PacketStart {
                    packet: 2,
                    bucket: PacketBucket::Collect,
                    wave: 1,
                },
            ),
            (
                "reclaim.packet.finish",
                TraceData::PacketFinish {
                    packet: 1,
                    bucket: PacketBucket::Collect,
                    bytes: 1 << 20,
                    returned: 0,
                    duration_ms: 15,
                },
            ),
            (
                "reclaim.packet.finish",
                TraceData::PacketFinish {
                    packet: 2,
                    bucket: PacketBucket::Collect,
                    bytes: 4096,
                    returned: 0,
                    duration_ms: 7,
                },
            ),
            (
                "reclaim.packet.stall",
                TraceData::PacketStall {
                    packet: 2,
                    waiting_on: 1,
                    wave: 1,
                },
            ),
            (
                "reclaim.packet.stall",
                TraceData::PacketStall {
                    packet: 2,
                    waiting_on: 1,
                    wave: 0,
                },
            ),
        ];
        let kinds: std::collections::BTreeSet<&str> = cases.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds.len(), 49, "one case per kind string");
        let mut log = TraceLog::new();
        for (i, (kind, data)) in cases.into_iter().enumerate() {
            assert_eq!(data.kind(), kind);
            let back = TraceData::deserialize(&data.serialize())
                .unwrap_or_else(|e| panic!("{kind} does not round trip: {e:?}"));
            assert_eq!(back, data);
            log.record(t(i as u64), i as u64, data);
        }
        let back = TraceLog::deserialize(&log.serialize()).expect("log round trip");
        assert_eq!(back.events(), log.events());
    }

    #[test]
    fn kind_that_disagrees_with_its_payload_is_rejected() {
        // `{"kind":"gc.young","layer":"Full",..}`, `"signal.low"` carrying
        // `"sig":"High"` and `"alloc.admit"` carrying `"delayed":true`.
        let cases = [
            (gc(GcLayer::Full, 0), "gc.young"),
            (TraceData::SignalSent { sig: SigKind::High }, "signal.low"),
            (gate(true), "alloc.admit"),
        ];
        for (data, wrong) in cases {
            let Content::Map(mut entries) = data.serialize() else {
                panic!("expected map");
            };
            let parsed = TraceData::deserialize(&Content::Map(entries.clone()));
            assert_eq!(parsed.expect("the true label parses"), data);
            entries[0].1 = Content::Str(wrong.to_string());
            let err = TraceData::deserialize(&Content::Map(entries))
                .expect_err("a relabelled payload must not parse");
            assert!(err.0.contains(wrong), "{err:?}");
        }
    }

    #[test]
    fn criticality_names_round_trip_and_order_expendability() {
        for c in Criticality::ALL {
            assert_eq!(Criticality::from_name(c.name()), Some(c));
        }
        assert_eq!(Criticality::from_name("frobnicate"), None);
        assert_eq!(Criticality::default(), Criticality::Standard);
        assert!(
            Criticality::Batch.expendability() > Criticality::Standard.expendability()
                && Criticality::Standard.expendability()
                    > Criticality::LatencyCritical.expendability(),
            "batch dies first, latency-critical last"
        );
    }

    #[test]
    fn serialized_event_is_flat_with_kind_first() {
        let ev = TraceEvent {
            t: t(5),
            pid: 7,
            data: TraceData::Madvise { bytes: 4096 },
        };
        let c = ev.serialize();
        let serde::Content::Map(entries) = &c else {
            panic!("expected map");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["t", "pid", "kind", "bytes"]);
    }
}
