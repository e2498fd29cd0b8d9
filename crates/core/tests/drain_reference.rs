//! The packet drain against a naive reference executor.
//!
//! The reference keeps no ready lists. Each wave it takes the lowest bucket
//! that still holds an unfinished packet, snapshots the set of packets
//! finished so far, and walks that bucket in id order: a packet whose
//! dependencies are all in the snapshot runs, and any other is stalled on
//! its first dependency outside it. A packet made ready by a run in the
//! same wave therefore waits for the next wave. The bucket-order ablation
//! is restated as one packet per wave, buckets in reverse, dependencies
//! ignored. The drain must match the reference event for event on the
//! trace, and in the summed outcome it returns.

use std::collections::BTreeSet;

use m3_core::{
    PacketBucket, PacketKind, PacketOutcome, ReclaimScheduler, SchedulerConfig, SignalOutcome,
};
use m3_os::{Kernel, KernelConfig};
use m3_sim::clock::SimDuration;
use m3_sim::trace::{TraceData, TraceLog};
use m3_sim::units::GIB;
use proptest::prelude::*;

const BUCKETS: [(PacketKind, PacketBucket); 3] = [
    (PacketKind::EvictSlabs, PacketBucket::Prepare),
    (PacketKind::GcYoung, PacketBucket::Collect),
    (PacketKind::Madvise, PacketBucket::Release),
];

/// One random packet: bucket index, bytes, returned bytes, duration (ms),
/// a seed for its dependencies and how many to draw.
type Spec = (usize, u64, u64, u64, u64, usize);

/// A packet of the random DAG, dependencies resolved.
struct Packet {
    bucket: PacketBucket,
    deps: Vec<u64>,
    out: PacketOutcome,
}

/// Resolves each spec's dependencies against earlier packets in the same
/// or an earlier bucket (the only edges the scheduler accepts).
fn dag(specs: &[Spec]) -> Vec<Packet> {
    let mut packets: Vec<Packet> = Vec::new();
    for &(b, bytes, returned, ms, seed, ndeps) in specs {
        let bucket = BUCKETS[b].1;
        let candidates: Vec<u64> = (0..packets.len() as u64)
            .filter(|&j| packets[j as usize].bucket <= bucket)
            .collect();
        let mut deps: Vec<u64> = if candidates.is_empty() {
            Vec::new()
        } else {
            (0..ndeps)
                .map(|k| candidates[(seed >> (k * 16)) as usize % candidates.len()])
                .collect()
        };
        deps.sort_unstable();
        deps.dedup();
        packets.push(Packet {
            bucket,
            deps,
            out: PacketOutcome {
                bytes,
                returned,
                duration: SimDuration::from_millis(ms),
            },
        });
    }
    packets
}

/// What a drain observably did.
#[derive(Debug, Default, PartialEq)]
struct Observed {
    /// `(packet, wave)` of every start, in execution order.
    starts: Vec<(u64, u64)>,
    /// `(packet, waiting_on, wave)` of every stall, in trace order.
    stalls: Vec<(u64, u64, u64)>,
    /// `(packet, bytes, returned)` of every finish, in execution order.
    finishes: Vec<(u64, u64, u64)>,
    /// The summed outcome.
    outcome: SignalOutcome,
}

impl Observed {
    fn run(&mut self, packets: &[Packet], id: u64, wave: u64) {
        let out = packets[id as usize].out;
        self.starts.push((id, wave));
        self.finishes.push((id, out.bytes, out.returned));
        self.outcome.merge(SignalOutcome {
            duration: out.duration,
            returned_to_os: out.returned,
        });
    }
}

/// The naive reference executor.
fn reference(packets: &[Packet], ablate: bool) -> Observed {
    let mut obs = Observed::default();
    let n = packets.len() as u64;
    if ablate {
        let mut wave = 0;
        for bucket in [2, 1, 0].map(|b| BUCKETS[b].1) {
            for id in (0..n).filter(|&id| packets[id as usize].bucket == bucket) {
                obs.run(packets, id, wave);
                wave += 1;
            }
        }
        return obs;
    }
    let mut finished: BTreeSet<u64> = BTreeSet::new();
    let mut wave = 0;
    while (finished.len() as u64) < n {
        let open = (0..n)
            .filter(|id| !finished.contains(id))
            .map(|id| packets[id as usize].bucket)
            .min()
            .expect("an unfinished packet");
        let before = finished.clone();
        for id in 0..n {
            let p = &packets[id as usize];
            if p.bucket != open || before.contains(&id) {
                continue;
            }
            match p.deps.iter().find(|d| !before.contains(d)) {
                Some(&d) => obs.stalls.push((id, d, wave)),
                None => {
                    obs.run(packets, id, wave);
                    finished.insert(id);
                }
            }
        }
        wave += 1;
    }
    obs
}

/// Drains the DAG through the real scheduler and reads what it did off
/// the trace. Also checks that each packet's run happened between its own
/// start and finish events and that every packet ran exactly once.
fn drained(packets: &[Packet], ablate: bool) -> Observed {
    let mut os = Kernel::new(KernelConfig::with_total(GIB));
    let pid = os.spawn("dag");
    let mut sched = ReclaimScheduler::new(
        pid,
        SchedulerConfig {
            ablate_bucket_order: ablate,
        },
    );
    for (id, p) in packets.iter().enumerate() {
        let kind = BUCKETS.iter().find(|b| b.1 == p.bucket).expect("bucket").0;
        let out = p.out;
        sched.add_in(kind, p.bucket, &p.deps, move |ran: &mut Vec<u64>, os| {
            ran.push(id as u64);
            // One event from inside the run, tagged with the packet's id.
            os.record_trace(pid, TraceData::Madvise { bytes: id as u64 });
            out
        });
    }
    let mut ran: Vec<u64> = Vec::new();
    let outcome = sched.drain(&mut ran, &mut os);
    let obs = observe(&os.trace, outcome);
    let started: Vec<u64> = obs.starts.iter().map(|s| s.0).collect();
    assert_eq!(ran, started, "packets must run in start order");
    assert_eq!(os.trace.count("reclaim.packet.enqueue"), packets.len());
    obs
}

fn observe(trace: &TraceLog, outcome: SignalOutcome) -> Observed {
    let mut obs = Observed {
        outcome,
        ..Observed::default()
    };
    let mut running: Option<u64> = None;
    for e in trace.events() {
        match e.data {
            TraceData::PacketStart { packet, wave, .. } => {
                assert_eq!(running, None, "packet {packet} started inside another");
                running = Some(packet);
                obs.starts.push((packet, wave));
            }
            TraceData::Madvise { bytes: id } => {
                assert_eq!(running, Some(id), "packet {id} ran outside its events");
            }
            TraceData::PacketFinish {
                packet,
                bytes,
                returned,
                ..
            } => {
                assert_eq!(running.take(), Some(packet), "finish without its start");
                obs.finishes.push((packet, bytes, returned));
            }
            TraceData::PacketStall {
                packet,
                waiting_on,
                wave,
            } => obs.stalls.push((packet, waiting_on, wave)),
            _ => {}
        }
    }
    obs
}

fn specs() -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::vec(
        (
            0usize..3,
            0u64..1000,
            0u64..100,
            0u64..20,
            any::<u64>(),
            0usize..4,
        ),
        0..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn drain_matches_the_wave_reference(specs in specs()) {
        let packets = dag(&specs);
        prop_assert_eq!(drained(&packets, false), reference(&packets, false));
    }

    #[test]
    fn ablated_drain_matches_the_reverse_bucket_reference(specs in specs()) {
        let packets = dag(&specs);
        prop_assert_eq!(drained(&packets, true), reference(&packets, true));
    }
}
