//! Reclamation inside one `handler.start`/`handler.end` window: top-down
//! order (§4.1, `topdown.order`) and the work-packet scheduler's contract
//! (`reclaim.packet.*`), where the bucket-order ablation drain is caught.
//! Both read the handler window, so this module owns it.

use crate::{resets_pid, Invariant, Violation};
use m3_sim::trace::{PacketBucket, TraceData, TraceEvent};
use std::collections::BTreeMap;

/// Reclamation events seen inside one open `handler.start`/`handler.end`
/// window, by global event index, plus the byte totals the packet
/// conservation check compares at `handler.end`.
#[derive(Default)]
struct HandlerWindow {
    last_evict: Option<usize>,
    first_gc: Option<usize>,
    first_madvise: Option<usize>,
    /// True once a `reclaim.packet.finish` landed in this window: the
    /// conservation check only applies to packetized handlers.
    saw_packets: bool,
    /// Aggregate layer-event bytes inside the window.
    agg_blocks: u64,
    agg_slabs: u64,
    agg_class: u64,
    agg_gc: u64,
    agg_madvise: u64,
    /// Packet `finish` bytes inside the window, by packet-kind class.
    pkt_blocks: u64,
    pkt_slabs: u64,
    pkt_class: u64,
    pkt_gc: u64,
    /// Packet `finish` returned-to-OS bytes (all kinds).
    pkt_returned: u64,
}

/// Replay state of one enqueued work packet.
#[derive(Debug, Clone)]
struct PacketState {
    pkind: String,
    bucket: PacketBucket,
    deps: Vec<u64>,
    enq_at_ms: u64,
    started: bool,
    finished: bool,
}

/// Replay state of every pid's open handler window and packet drain.
#[derive(Default)]
pub(crate) struct PacketReplay {
    handlers: BTreeMap<u64, HandlerWindow>,
    /// Work packets of the current drain, per pid (ids are drain-local, so
    /// a new handler window starts a fresh map).
    packets: BTreeMap<u64, BTreeMap<u64, PacketState>>,
}

impl Invariant for PacketReplay {
    #[inline]
    fn observe(&mut self, i: usize, e: &TraceEvent, out: &mut Vec<Violation>) {
        match e.data {
            TraceData::EvictBlocks { bytes, .. } => {
                if let Some(w) = self.handlers.get_mut(&e.pid) {
                    w.agg_blocks += bytes;
                    w.last_evict = Some(i);
                }
            }
            TraceData::EvictSlabs { bytes, .. } => {
                if let Some(w) = self.handlers.get_mut(&e.pid) {
                    w.agg_slabs += bytes;
                    w.last_evict = Some(i);
                }
            }
            TraceData::EvictClass { bytes, .. } => {
                if let Some(w) = self.handlers.get_mut(&e.pid) {
                    w.agg_class += bytes;
                }
            }
            TraceData::Gc { reclaimed, .. } => {
                if let Some(w) = self.handlers.get_mut(&e.pid) {
                    w.first_gc.get_or_insert(i);
                    w.agg_gc += reclaimed;
                }
            }
            TraceData::Madvise { bytes } => {
                if let Some(w) = self.handlers.get_mut(&e.pid) {
                    w.first_madvise.get_or_insert(i);
                    w.agg_madvise += bytes;
                }
            }
            TraceData::HandlerStart { .. } => {
                self.handlers.insert(e.pid, HandlerWindow::default());
                // Packet ids are drain-local; a new handler means a new
                // scheduler, so the replay state starts fresh too.
                self.packets.remove(&e.pid);
            }
            // Top-down reclamation (§4.1): within one handler window the layers
            // act top to bottom — framework/cache eviction, then runtime GC, then
            // memory returned to the OS. For packetized handlers, the per-packet
            // bytes must also conserve against the window's aggregate events, and
            // no enqueued packet may be left unfinished.
            TraceData::HandlerEnd { .. } => {
                let Some(w) = self.handlers.remove(&e.pid) else {
                    return;
                };
                if let (Some(ev), Some(gc)) = (w.last_evict, w.first_gc) {
                    if ev > gc {
                        flag!(
                            out,
                            e,
                            "topdown.order",
                            "eviction ran after the runtime GC inside one handler"
                        );
                    }
                }
                if let (Some(gc), Some(m)) = (w.first_gc, w.first_madvise) {
                    if gc > m {
                        flag!(
                            out,
                            e,
                            "topdown.order",
                            "memory returned to the OS before the runtime GC ran"
                        );
                    }
                }
                if let (Some(ev), Some(m)) = (w.last_evict, w.first_madvise) {
                    if ev > m {
                        flag!(
                            out,
                            e,
                            "topdown.order",
                            "memory returned to the OS before the eviction above it"
                        );
                    }
                }
                if w.saw_packets {
                    let pairs = [
                        ("evict_blocks", "evict.blocks", w.pkt_blocks, w.agg_blocks),
                        ("evict_class", "evict.class", w.pkt_class, w.agg_class),
                        ("evict_slabs", "evict.slabs", w.pkt_slabs, w.agg_slabs),
                        ("gc_*", "gc.*", w.pkt_gc, w.agg_gc),
                        ("* returned", "mem.madvise", w.pkt_returned, w.agg_madvise),
                    ];
                    for (pkt_name, agg_name, pkt, agg) in pairs {
                        if pkt != agg {
                            flag!(
                                out,
                                e,
                                "reclaim.packet.conservation",
                                "{pkt_name} packets finished {pkt} bytes inside the \
                                 handler but its {agg_name} events record {agg}"
                            );
                        }
                    }
                }
                if let Some(drain) = self.packets.remove(&e.pid) {
                    for (id, st) in drain {
                        if !st.finished {
                            out.push(Violation {
                                invariant: "reclaim.packet.orphan".to_string(),
                                at_ms: st.enq_at_ms,
                                pid: e.pid,
                                message: format!(
                                    "packet {id} ({}) was enqueued but never finished \
                                     before its handler ended",
                                    st.pkind
                                ),
                            });
                        }
                    }
                }
            }
            // `reclaim.packet.order`: a packet id may be enqueued only once
            // per drain. Handler windows and process restarts reset the id
            // space; so does a re-used id once every packet of the previous
            // drain finished (back-to-back drains outside a handler window,
            // e.g. direct signal delivery in unit harnesses).
            TraceData::PacketEnqueue {
                packet,
                ref pkind,
                bucket,
                ref deps,
            } => {
                let drain = self.packets.entry(e.pid).or_default();
                if drain.contains_key(&packet) {
                    if drain.values().all(|p| p.finished) {
                        drain.clear();
                    } else {
                        flag!(
                            out,
                            e,
                            "reclaim.packet.order",
                            "packet {packet} enqueued twice in one drain"
                        );
                        return;
                    }
                }
                let st = PacketState {
                    pkind: pkind.clone(),
                    bucket,
                    deps: deps.clone(),
                    enq_at_ms: e.t.as_millis(),
                    started: false,
                    finished: false,
                };
                drain.insert(packet, st);
            }
            // A start must come after its enqueue and only once
            // (`reclaim.packet.order`), after every dependency finished
            // (`reclaim.packet.deps`), and only once its bucket is open — no
            // packet of a strictly earlier bucket may still be unfinished
            // (`reclaim.packet.bucket`).
            TraceData::PacketStart { packet, bucket, .. } => {
                let drain = self.packets.entry(e.pid).or_default();
                let Some(st) = drain.get(&packet) else {
                    flag!(
                        out,
                        e,
                        "reclaim.packet.order",
                        "packet {packet} started without an enqueue"
                    );
                    return;
                };
                if st.started {
                    flag!(
                        out,
                        e,
                        "reclaim.packet.order",
                        "packet {packet} started twice"
                    );
                }
                if st.bucket != bucket {
                    flag!(
                        out,
                        e,
                        "reclaim.packet.order",
                        "packet {packet} started in bucket {bucket:?} but was \
                         enqueued into {:?}",
                        st.bucket
                    );
                }
                for &d in &st.deps {
                    if !drain.get(&d).is_some_and(|dep| dep.finished) {
                        flag!(
                            out,
                            e,
                            "reclaim.packet.deps",
                            "packet {packet} started before its dependency {d} finished"
                        );
                    }
                }
                let enq_bucket = st.bucket;
                if let Some((id, earlier)) = drain
                    .iter()
                    .find(|(_, p)| p.bucket < enq_bucket && !p.finished)
                {
                    flag!(
                        out,
                        e,
                        "reclaim.packet.bucket",
                        "packet {packet} ({enq_bucket:?}) started while packet {id} \
                         of earlier bucket {:?} was unfinished",
                        earlier.bucket
                    );
                }
                drain.get_mut(&packet).expect("checked above").started = true;
            }
            // A finish must close a started, not-yet-finished packet
            // (`reclaim.packet.order`); its bytes feed the window's
            // conservation totals by packet-kind class.
            TraceData::PacketFinish {
                packet,
                bucket,
                bytes,
                returned,
                ..
            } => {
                let drain = self.packets.entry(e.pid).or_default();
                let Some(st) = drain.get_mut(&packet) else {
                    flag!(
                        out,
                        e,
                        "reclaim.packet.order",
                        "packet {packet} finished without an enqueue"
                    );
                    return;
                };
                if !st.started {
                    flag!(
                        out,
                        e,
                        "reclaim.packet.order",
                        "packet {packet} finished before it started"
                    );
                }
                if st.finished {
                    flag!(
                        out,
                        e,
                        "reclaim.packet.order",
                        "packet {packet} finished twice"
                    );
                }
                if st.bucket != bucket {
                    flag!(
                        out,
                        e,
                        "reclaim.packet.order",
                        "packet {packet} finished in bucket {bucket:?} but was \
                         enqueued into {:?}",
                        st.bucket
                    );
                }
                st.finished = true;
                if let Some(w) = self.handlers.get_mut(&e.pid) {
                    w.saw_packets = true;
                    match st.pkind.as_str() {
                        "evict_blocks" => w.pkt_blocks += bytes,
                        "evict_class" => w.pkt_class += bytes,
                        "evict_slabs" => w.pkt_slabs += bytes,
                        k if k.starts_with("gc") => w.pkt_gc += bytes,
                        _ => {}
                    }
                    w.pkt_returned += returned;
                }
            }
            // A stall must name an enqueued, still-unfinished dependency — a
            // stall on a finished (or unknown) packet means the scheduler's
            // ready logic diverged (`reclaim.packet.deps`).
            TraceData::PacketStall {
                packet, waiting_on, ..
            } => {
                let drain = self.packets.entry(e.pid).or_default();
                if !drain.contains_key(&packet) {
                    flag!(
                        out,
                        e,
                        "reclaim.packet.order",
                        "packet {packet} stalled without an enqueue"
                    );
                }
                if drain.get(&waiting_on).is_none_or(|dep| dep.finished) {
                    flag!(
                        out,
                        e,
                        "reclaim.packet.deps",
                        "packet {packet} recorded a stall on packet {waiting_on}, which \
                         is not an unfinished enqueued packet"
                    );
                }
            }
            ref data if resets_pid(data) => {
                self.handlers.remove(&e.pid);
                self.packets.remove(&e.pid);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;
    use m3_sim::trace::PacketBucket;

    #[test]
    fn bottom_up_reclamation_is_flagged() {
        let mut log = TraceLog::new();
        log.record(t(1), 5, TraceData::HandlerStart { sig: SigKind::High });
        log.record(
            t(1),
            5,
            TraceData::Gc {
                layer: GcLayer::Mixed,
                reclaimed: GIB,
                returned: GIB,
                pause_ms: 80,
            },
        );
        log.record(t(1), 5, TraceData::Madvise { bytes: GIB });
        log.record(
            t(1),
            5,
            TraceData::EvictBlocks {
                before: 8,
                evicted: 1,
                bytes: GIB,
                reason: EvictReason::HighSignal,
            },
        );
        log.record(
            t(2),
            5,
            TraceData::HandlerEnd {
                sig: SigKind::High,
                duration_ms: 1000,
                returned: GIB,
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(
            violations.iter().any(|v| v.invariant == "topdown.order"),
            "got {violations:?}"
        );
    }

    #[test]
    fn top_down_window_passes() {
        let mut log = TraceLog::new();
        log.record(t(1), 5, TraceData::HandlerStart { sig: SigKind::High });
        log.record(
            t(1),
            5,
            TraceData::EvictBlocks {
                before: 8,
                evicted: 1,
                bytes: GIB,
                reason: EvictReason::HighSignal,
            },
        );
        log.record(
            t(1),
            5,
            TraceData::Gc {
                layer: GcLayer::Young,
                reclaimed: GIB,
                returned: GIB,
                pause_ms: 10,
            },
        );
        log.record(t(1), 5, TraceData::Madvise { bytes: GIB });
        log.record(
            t(2),
            5,
            TraceData::HandlerEnd {
                sig: SigKind::High,
                duration_ms: 1000,
                returned: GIB,
            },
        );
        assert!(Oracle::paper(None).check(&log).is_empty());
    }

    fn enq(packet: u64, pkind: &str, bucket: PacketBucket, deps: &[u64]) -> TraceData {
        TraceData::PacketEnqueue {
            packet,
            pkind: pkind.to_string(),
            bucket,
            deps: deps.to_vec(),
        }
    }

    fn start(packet: u64, bucket: PacketBucket, wave: u64) -> TraceData {
        TraceData::PacketStart {
            packet,
            bucket,
            wave,
        }
    }

    fn finish(packet: u64, bucket: PacketBucket, bytes: u64, returned: u64) -> TraceData {
        TraceData::PacketFinish {
            packet,
            bucket,
            bytes,
            returned,
            duration_ms: 5,
        }
    }

    /// A canonical, conformant packetized High handler: evict ⅛ of 8
    /// blocks, young + old GC, then one madvise returning everything.
    fn packetized_handler() -> TraceLog {
        let mut log = TraceLog::new();
        let pid = 3;
        log.record(t(1), pid, TraceData::HandlerStart { sig: SigKind::High });
        log.record(
            t(1),
            pid,
            enq(0, "evict_blocks", PacketBucket::Prepare, &[]),
        );
        log.record(t(1), pid, enq(1, "gc_young", PacketBucket::Collect, &[0]));
        log.record(t(1), pid, enq(2, "gc_old", PacketBucket::Collect, &[1]));
        log.record(t(1), pid, enq(3, "madvise", PacketBucket::Release, &[2]));
        log.record(t(1), pid, start(0, PacketBucket::Prepare, 0));
        log.record(
            t(1),
            pid,
            TraceData::EvictBlocks {
                before: 8,
                evicted: 1,
                bytes: 4096,
                reason: EvictReason::HighSignal,
            },
        );
        log.record(t(1), pid, finish(0, PacketBucket::Prepare, 4096, 0));
        log.record(
            t(1),
            pid,
            TraceData::PacketStall {
                packet: 2,
                waiting_on: 1,
                wave: 1,
            },
        );
        log.record(t(1), pid, start(1, PacketBucket::Collect, 1));
        log.record(
            t(1),
            pid,
            TraceData::Gc {
                layer: GcLayer::Young,
                reclaimed: 1000,
                returned: 0,
                pause_ms: 10,
            },
        );
        log.record(t(1), pid, finish(1, PacketBucket::Collect, 1000, 0));
        log.record(t(1), pid, start(2, PacketBucket::Collect, 2));
        log.record(
            t(1),
            pid,
            TraceData::Gc {
                layer: GcLayer::Mixed,
                reclaimed: 3000,
                returned: 0,
                pause_ms: 20,
            },
        );
        log.record(t(1), pid, finish(2, PacketBucket::Collect, 3000, 0));
        log.record(t(1), pid, start(3, PacketBucket::Release, 3));
        log.record(t(1), pid, TraceData::Madvise { bytes: 8192 });
        log.record(t(1), pid, finish(3, PacketBucket::Release, 0, 8192));
        log.record(
            t(1),
            pid,
            TraceData::HandlerEnd {
                sig: SigKind::High,
                duration_ms: 40,
                returned: 8192,
            },
        );
        log
    }

    fn packet_violations(log: &TraceLog) -> Vec<String> {
        Oracle::paper(None)
            .check(log)
            .into_iter()
            .filter(|v| v.invariant.starts_with("reclaim.packet"))
            .map(|v| v.invariant)
            .collect()
    }

    #[test]
    fn conformant_packetized_handler_has_no_violations() {
        let violations = Oracle::paper(None).check(&packetized_handler());
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn back_to_back_drains_without_handler_window_reset_ids() {
        // Direct signal delivery (unit harnesses) drains twice with no
        // handler.start between: the re-used id 0 after a fully finished
        // drain is a fresh drain, not a double enqueue.
        let mut log = TraceLog::new();
        for _ in 0..2 {
            log.record(t(1), 3, enq(0, "gc_young", PacketBucket::Collect, &[]));
            log.record(t(1), 3, enq(1, "madvise", PacketBucket::Release, &[0]));
            log.record(t(1), 3, start(0, PacketBucket::Collect, 0));
            log.record(t(1), 3, finish(0, PacketBucket::Collect, 1000, 0));
            log.record(t(1), 3, start(1, PacketBucket::Release, 1));
            log.record(t(1), 3, finish(1, PacketBucket::Release, 0, 4096));
        }
        assert_eq!(packet_violations(&log), Vec::<String>::new());
        // With packet 1 of the first drain still unfinished, the same
        // re-enqueue IS a violation.
        let mut bad = TraceLog::new();
        bad.record(t(1), 3, enq(0, "gc_young", PacketBucket::Collect, &[]));
        bad.record(t(1), 3, enq(1, "madvise", PacketBucket::Release, &[0]));
        bad.record(t(1), 3, start(0, PacketBucket::Collect, 0));
        bad.record(t(1), 3, finish(0, PacketBucket::Collect, 1000, 0));
        bad.record(t(1), 3, enq(0, "gc_young", PacketBucket::Collect, &[]));
        assert!(packet_violations(&bad)
            .iter()
            .any(|v| v == "reclaim.packet.order"));
    }

    #[test]
    fn packet_start_before_dependency_finishes_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 3, TraceData::HandlerStart { sig: SigKind::High });
        log.record(t(1), 3, enq(0, "gc_young", PacketBucket::Collect, &[]));
        log.record(t(1), 3, enq(1, "gc_old", PacketBucket::Collect, &[0]));
        // Old starts before young has finished.
        log.record(t(1), 3, start(1, PacketBucket::Collect, 0));
        let v = packet_violations(&log);
        assert!(v.contains(&"reclaim.packet.deps".to_string()), "got {v:?}");
    }

    #[test]
    fn packet_start_before_bucket_opens_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 3, TraceData::HandlerStart { sig: SigKind::High });
        log.record(t(1), 3, enq(0, "evict_blocks", PacketBucket::Prepare, &[]));
        log.record(t(1), 3, enq(1, "madvise", PacketBucket::Release, &[]));
        // Release starts while the Prepare packet is unfinished.
        log.record(t(1), 3, start(1, PacketBucket::Release, 0));
        let v = packet_violations(&log);
        assert!(
            v.contains(&"reclaim.packet.bucket".to_string()),
            "got {v:?}"
        );
    }

    #[test]
    fn packet_start_without_enqueue_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 3, start(0, PacketBucket::Prepare, 0));
        let v = packet_violations(&log);
        assert!(v.contains(&"reclaim.packet.order".to_string()), "got {v:?}");
    }

    #[test]
    fn packet_byte_conservation_mismatch_is_caught() {
        // Rewrite the conformant handler's young-GC packet to claim fewer
        // bytes than the gc.young event it wraps.
        let mut log = TraceLog::new();
        for e in packetized_handler().events() {
            let data = match &e.data {
                TraceData::PacketFinish {
                    packet: 1,
                    bucket,
                    returned,
                    duration_ms,
                    ..
                } => TraceData::PacketFinish {
                    packet: 1,
                    bucket: *bucket,
                    bytes: 999,
                    returned: *returned,
                    duration_ms: *duration_ms,
                },
                d => d.clone(),
            };
            log.record(e.t, e.pid, data);
        }
        let v = packet_violations(&log);
        assert!(
            v.contains(&"reclaim.packet.conservation".to_string()),
            "got {v:?}"
        );
    }

    #[test]
    fn unfinished_packet_at_handler_end_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 3, TraceData::HandlerStart { sig: SigKind::High });
        log.record(t(1), 3, enq(0, "gc_young", PacketBucket::Collect, &[]));
        log.record(t(1), 3, start(0, PacketBucket::Collect, 0));
        log.record(t(1), 3, finish(0, PacketBucket::Collect, 0, 0));
        log.record(t(1), 3, enq(1, "madvise", PacketBucket::Release, &[0]));
        log.record(
            t(1),
            3,
            TraceData::HandlerEnd {
                sig: SigKind::High,
                duration_ms: 1,
                returned: 0,
            },
        );
        let v = packet_violations(&log);
        assert!(
            v.contains(&"reclaim.packet.orphan".to_string()),
            "got {v:?}"
        );
    }

    #[test]
    fn ablated_scheduler_drain_is_caught() {
        // Drive the *real* scheduler with the bucket-order ablation and
        // replay its trace: the oracle must flag the reversed buckets and
        // the ignored dependency edges.
        use m3_core::scheduler::{PacketKind, PacketOutcome, ReclaimScheduler, SchedulerConfig};
        let mut os = Kernel::new(KernelConfig::with_total(GIB));
        let pid = os.spawn("app");
        os.record_trace(pid, TraceData::HandlerStart { sig: SigKind::High });
        let mut sched = ReclaimScheduler::new(
            pid,
            SchedulerConfig {
                ablate_bucket_order: true,
            },
        );
        let ev = sched.add(PacketKind::EvictBlocks, &[], |_: &mut (), _| {
            PacketOutcome::default()
        });
        let gc = sched.add(PacketKind::GcYoung, &[ev], |_: &mut (), _| {
            PacketOutcome::default()
        });
        sched.add(PacketKind::Madvise, &[gc], |_: &mut (), _| {
            PacketOutcome::default()
        });
        sched.drain(&mut (), &mut os);
        os.record_trace(
            pid,
            TraceData::HandlerEnd {
                sig: SigKind::High,
                duration_ms: 0,
                returned: 0,
            },
        );
        let v = packet_violations(&os.trace);
        assert!(
            v.contains(&"reclaim.packet.bucket".to_string()),
            "reversed buckets must be flagged, got {v:?}"
        );
        assert!(
            v.contains(&"reclaim.packet.deps".to_string()),
            "ignored dependency edges must be flagged, got {v:?}"
        );
    }
}
