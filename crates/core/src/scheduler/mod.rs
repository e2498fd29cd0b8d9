//! Work-packet reclamation scheduler.
//!
//! Every M3 reclamation used to be a monolithic handler: Spark's High
//! handler evicted ⅛ of its blocks, ran a mixed GC and madvised, all as one
//! opaque call. This module decomposes those handlers into typed
//! [`WorkPacket`]s placed in three ordered buckets that encode the paper's
//! top-down reclamation order:
//!
//! 1. [`PacketBucket::Prepare`] — application-layer evictions that mark
//!    bytes dead (block-cache purges, slab-class evictions);
//! 2. [`PacketBucket::Collect`] — runtime GC phases that turn dead bytes
//!    into free heap (young/old/full/Go cycles);
//! 3. [`PacketBucket::Release`] — batched `madvise` handing free pages back
//!    to the OS.
//!
//! A bucket only *opens* once every packet in all earlier buckets has
//! finished, and a packet only *executes* once its explicit dependencies
//! have finished. The drain is one sequential loop that proceeds in waves:
//! each wave runs, in packet-id order, the open bucket's packets whose
//! dependencies had all finished before the wave began. The
//! `reclaim.packet.*` trace events emitted here are the drain's only
//! per-packet record (wave, bytes, returned bytes, duration, stalls); they
//! let the oracle verify bucket order, dependency edges and byte
//! conservation after every traced run.

mod packet;

pub use packet::{PacketId, PacketKind, PacketOutcome, WorkPacket};

pub use m3_sim::trace::PacketBucket;

use m3_os::{Kernel, Pid};
use m3_sim::trace::TraceData;

use crate::layer::SignalOutcome;

/// Scheduler tunables.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerConfig {
    /// Ablation: drain the buckets in *reverse* order, ignoring dependency
    /// edges. Exists to prove the conformance oracle catches ordering
    /// violations; never enabled in a correct configuration.
    pub ablate_bucket_order: bool,
}

/// One drain wave: the packets held back at its start, each with the first
/// unfinished dependency it waits on, and the packets it runs (id order).
#[derive(Default)]
struct Wave {
    stalled: Vec<(PacketId, PacketId)>,
    ready: Vec<usize>,
}

/// A single-drain packet scheduler over a participant context `C`.
///
/// Built fresh for each signal: the handler enqueues its packets (eviction,
/// GC phases, madvise) with explicit dependencies, then calls
/// [`ReclaimScheduler::drain`] once. Ids are assigned in enqueue order and
/// double as the deterministic execution order within a wave.
pub struct ReclaimScheduler<C> {
    pid: Pid,
    cfg: SchedulerConfig,
    packets: Vec<WorkPacket<C>>,
}

impl<C> ReclaimScheduler<C> {
    /// An empty scheduler draining on behalf of `pid`.
    pub fn new(pid: Pid, cfg: SchedulerConfig) -> Self {
        ReclaimScheduler {
            pid,
            cfg,
            packets: Vec::new(),
        }
    }

    /// Enqueues a packet in its kind's default bucket. Returns its id for
    /// use in later packets' `deps`.
    pub fn add(
        &mut self,
        kind: PacketKind,
        deps: &[PacketId],
        run: impl FnOnce(&mut C, &mut Kernel) -> PacketOutcome + 'static,
    ) -> PacketId {
        self.add_in(kind, kind.default_bucket(), deps, run)
    }

    /// Fully explicit enqueue: kind, bucket, dependencies and the mutation
    /// itself.
    ///
    /// Panics if a dependency names a not-yet-enqueued packet or one in a
    /// *later* bucket — either would deadlock the drain, so both are
    /// rejected as programming errors at enqueue time.
    pub fn add_in(
        &mut self,
        kind: PacketKind,
        bucket: PacketBucket,
        deps: &[PacketId],
        run: impl FnOnce(&mut C, &mut Kernel) -> PacketOutcome + 'static,
    ) -> PacketId {
        let id = self.packets.len() as PacketId;
        for &d in deps {
            let dep = self
                .packets
                .get(d as usize)
                .unwrap_or_else(|| panic!("packet {id} depends on unknown packet {d}"));
            assert!(
                dep.bucket <= bucket,
                "packet {id} ({bucket:?}) depends on packet {d} in later bucket {:?}",
                dep.bucket
            );
        }
        self.packets.push(WorkPacket {
            id,
            kind,
            bucket,
            deps: deps.to_vec(),
            run: Some(Box::new(run)),
        });
        id
    }

    /// Executes every packet and returns the summed outcome (durations
    /// add, returned bytes add) — what `handle_signal` reports to the
    /// monitor. Emits `reclaim.packet.enqueue` for every packet up front
    /// (id order), then each wave's `stall` events followed by a
    /// `start`/`finish` pair around every packet it runs.
    pub fn drain(mut self, ctx: &mut C, os: &mut Kernel) -> SignalOutcome {
        let pid = self.pid;
        for p in &self.packets {
            os.record_trace_with(pid, || TraceData::PacketEnqueue {
                packet: p.id,
                pkind: p.kind.name().to_string(),
                bucket: p.bucket,
                deps: p.deps.clone(),
            });
        }
        let waves = if self.cfg.ablate_bucket_order {
            self.ablated_waves()
        } else {
            self.waves()
        };
        let mut outcome = SignalOutcome::default();
        for (wave, w) in waves.into_iter().enumerate() {
            let wave = wave as u64;
            for (packet, waiting_on) in w.stalled {
                os.record_trace(
                    pid,
                    TraceData::PacketStall {
                        packet,
                        waiting_on,
                        wave,
                    },
                );
            }
            for i in w.ready {
                let p = &mut self.packets[i];
                let (packet, bucket) = (p.id, p.bucket);
                let run = p.run.take().expect("packet executes exactly once");
                os.record_trace(
                    pid,
                    TraceData::PacketStart {
                        packet,
                        bucket,
                        wave,
                    },
                );
                let out = run(ctx, os);
                os.record_trace(
                    pid,
                    TraceData::PacketFinish {
                        packet,
                        bucket,
                        bytes: out.bytes,
                        returned: out.returned,
                        duration_ms: out.duration.as_millis(),
                    },
                );
                outcome.merge(SignalOutcome {
                    duration: out.duration,
                    returned_to_os: out.returned,
                });
            }
        }
        outcome
    }

    /// The correct drain order. Each wave's open bucket is the earliest one
    /// still holding unfinished packets (so every packet in a strictly
    /// earlier bucket has finished); the wave runs that bucket's packets
    /// whose dependencies all finished in earlier waves, and stalls the
    /// rest.
    fn waves(&self) -> Vec<Wave> {
        let mut finished = vec![false; self.packets.len()];
        let mut left = self.packets.len();
        let mut waves = Vec::new();
        while left > 0 {
            let open = self
                .packets
                .iter()
                .filter(|p| !finished[p.id as usize])
                .map(|p| p.bucket)
                .min()
                .expect("unfinished packets remain");
            let mut wave = Wave::default();
            for p in &self.packets {
                if p.bucket != open || finished[p.id as usize] {
                    continue;
                }
                match p.deps.iter().find(|&&d| !finished[d as usize]) {
                    None => wave.ready.push(p.id as usize),
                    Some(&blocker) => wave.stalled.push((p.id, blocker)),
                }
            }
            // Always true: the smallest unfinished id in the open bucket
            // has only finished dependencies (deps are earlier ids in the
            // same or an earlier bucket), so every wave makes progress.
            assert!(!wave.ready.is_empty(), "packet dependency cycle");
            for &i in &wave.ready {
                finished[i] = true;
            }
            left -= wave.ready.len();
            waves.push(wave);
        }
        waves
    }

    /// The broken order used by the bucket-order ablation: one packet per
    /// wave, buckets in reverse order, dependency edges ignored entirely
    /// (honoring them while reversing buckets would deadlock). The drain
    /// emits the same event kinds as the correct one, so the resulting
    /// trace carries provable `reclaim.packet.bucket` /
    /// `reclaim.packet.deps` violations.
    fn ablated_waves(&self) -> Vec<Wave> {
        let mut order: Vec<usize> = (0..self.packets.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.packets[i].bucket), i));
        order
            .into_iter()
            .map(|i| Wave {
                stalled: Vec::new(),
                ready: vec![i],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_os::KernelConfig;
    use m3_sim::clock::SimDuration;
    use m3_sim::units::GIB;

    /// Synthetic participant: a log of executed packet labels.
    #[derive(Default)]
    struct Ctx {
        ran: Vec<&'static str>,
    }

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig::with_total(4 * GIB))
    }

    fn outcome(bytes: u64) -> PacketOutcome {
        PacketOutcome {
            bytes,
            returned: 0,
            duration: SimDuration::from_millis(5),
        }
    }

    /// `(packet, wave)` of every `reclaim.packet.start`, in trace order.
    fn starts(os: &Kernel) -> Vec<(PacketId, u64)> {
        os.trace
            .of_kind("reclaim.packet.start")
            .map(|e| match e.data {
                TraceData::PacketStart { packet, wave, .. } => (packet, wave),
                ref other => panic!("unexpected start payload {other:?}"),
            })
            .collect()
    }

    /// Number of waves the drain took, read off the start events.
    fn wave_count(os: &Kernel) -> u64 {
        starts(os).iter().map(|&(_, w)| w + 1).max().unwrap_or(0)
    }

    /// Bytes summed over the `reclaim.packet.finish` events.
    fn finished_bytes(os: &Kernel) -> u64 {
        os.trace
            .of_kind("reclaim.packet.finish")
            .map(|e| match e.data {
                TraceData::PacketFinish { bytes, .. } => bytes,
                ref other => panic!("unexpected finish payload {other:?}"),
            })
            .sum()
    }

    #[test]
    fn buckets_execute_in_order_regardless_of_enqueue_order() {
        let mut os = kernel();
        let mut ctx = Ctx::default();
        let mut sched = ReclaimScheduler::new(7, SchedulerConfig::default());
        sched.add(PacketKind::Madvise, &[], |c: &mut Ctx, _| {
            c.ran.push("madvise");
            outcome(0)
        });
        sched.add(PacketKind::GcYoung, &[], |c: &mut Ctx, _| {
            c.ran.push("gc");
            outcome(100)
        });
        sched.add(PacketKind::EvictBlocks, &[], |c: &mut Ctx, _| {
            c.ran.push("evict");
            outcome(200)
        });
        let res = sched.drain(&mut ctx, &mut os);
        assert_eq!(ctx.ran, vec!["evict", "gc", "madvise"]);
        assert_eq!(wave_count(&os), 3, "one wave per non-empty bucket");
        assert_eq!(finished_bytes(&os), 300);
        assert_eq!(res.duration, SimDuration::from_millis(15));
        assert_eq!(os.trace.count("reclaim.packet.start"), 3);
    }

    #[test]
    fn dependencies_gate_within_a_bucket_and_emit_stalls() {
        let mut os = kernel();
        let mut ctx = Ctx::default();
        let mut sched = ReclaimScheduler::new(7, SchedulerConfig::default());
        let young = sched.add(PacketKind::GcYoung, &[], |c: &mut Ctx, _| {
            c.ran.push("young");
            outcome(10)
        });
        let old = sched.add(PacketKind::GcOld, &[young], |c: &mut Ctx, _| {
            c.ran.push("old");
            outcome(20)
        });
        // Flip enqueue order relative to execution: old depends on young
        // but a second independent young-bucket packet rides in wave 0.
        sched.add(PacketKind::GcYoung, &[], |c: &mut Ctx, _| {
            c.ran.push("young2");
            outcome(30)
        });
        sched.drain(&mut ctx, &mut os);
        assert_eq!(ctx.ran, vec!["young", "young2", "old"]);
        assert_eq!(wave_count(&os), 2);
        assert_eq!(
            os.trace.count("reclaim.packet.stall"),
            1,
            "old stalled one wave behind young"
        );
        let stall = os.trace.first("reclaim.packet.stall").expect("stall event");
        match &stall.data {
            TraceData::PacketStall {
                packet,
                waiting_on,
                wave,
            } => {
                assert_eq!(*packet, old);
                assert_eq!(*waiting_on, young);
                assert_eq!(*wave, 0);
            }
            other => panic!("unexpected stall payload {other:?}"),
        }
        assert_eq!(starts(&os), vec![(0, 0), (2, 0), (old, 1)]);
    }

    #[test]
    fn ablated_drain_reverses_buckets_and_ignores_deps() {
        let mut os = kernel();
        let mut ctx = Ctx::default();
        let mut sched = ReclaimScheduler::new(
            7,
            SchedulerConfig {
                ablate_bucket_order: true,
            },
        );
        let ev = sched.add(PacketKind::EvictBlocks, &[], |c: &mut Ctx, _| {
            c.ran.push("evict");
            outcome(100)
        });
        let gc = sched.add(PacketKind::GcYoung, &[ev], |c: &mut Ctx, _| {
            c.ran.push("gc");
            outcome(50)
        });
        sched.add(PacketKind::Madvise, &[gc], |c: &mut Ctx, _| {
            c.ran.push("madvise");
            outcome(0)
        });
        sched.drain(&mut ctx, &mut os);
        assert_eq!(
            ctx.ran,
            vec!["madvise", "gc", "evict"],
            "ablation must reverse the bucket order"
        );
        assert_eq!(starts(&os), vec![(2, 0), (1, 1), (0, 2)]);
        assert_eq!(os.trace.count("reclaim.packet.stall"), 0);
    }

    #[test]
    #[should_panic(expected = "later bucket")]
    fn dependency_on_a_later_bucket_is_rejected() {
        let mut sched: ReclaimScheduler<Ctx> = ReclaimScheduler::new(7, SchedulerConfig::default());
        let madv = sched.add(PacketKind::Madvise, &[], |_, _| PacketOutcome::default());
        sched.add(PacketKind::EvictBlocks, &[madv], |_, _| {
            PacketOutcome::default()
        });
    }

    #[test]
    fn empty_drain_is_a_no_op() {
        let mut os = kernel();
        let mut ctx = Ctx::default();
        let sched: ReclaimScheduler<Ctx> = ReclaimScheduler::new(7, SchedulerConfig::default());
        let res = sched.drain(&mut ctx, &mut os);
        assert_eq!(res, SignalOutcome::default());
        assert!(os.trace.is_empty());
    }
}
