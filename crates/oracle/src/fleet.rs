//! Fleet placement (§12–§14), replayed from the scheduler's `fleet.*` log:
//!
//! - `fleet.place.red` — no job is placed onto a node whose latest pressure
//!   snapshot is red or above top, or that was never probed;
//! - `fleet.migrate.grace` — a job migrates only off a node that has been
//!   contiguously red for the grace window;
//! - `fleet.defer.latency`, `fleet.defer.progress` — a deferred job is
//!   retried by the time its defer announced (which is within the defer
//!   interval, when known), and is eventually placed or given up on;
//! - `fleet.giveup.starvation` — no job is given up on while a node that is
//!   neither dead nor quarantined is green/yellow with room for it
//!   (`max(used, reserved) + demand <= top`); jobs lost to node death,
//!   whose retry budget ran out, are exempt;
//! - `fleet.place.dead`, `fleet.place.quarantined` — nothing is placed or
//!   migrated onto a node after its death or while it is quarantined;
//! - `fleet.lost.resolved` — every job re-queued after node death is placed
//!   again or given up on.

use crate::{FleetOracle, Invariant, Violation};
use m3_sim::trace::{TraceData, TraceEvent, TraceZone};
use std::collections::{BTreeMap, BTreeSet};

/// A node's latest pressure snapshot as the fleet oracle replays it.
#[derive(Debug, Clone, Copy)]
struct NodeSnap {
    zone: TraceZone,
    used: u64,
    reserved: u64,
    top: u64,
}

/// Replay state of the scheduler's placement log.
#[derive(Default)]
pub(crate) struct FleetReplay {
    grace_ms: u64,
    defer_interval_ms: Option<u64>,
    /// Latest pressure snapshot per node, plus since when each node has
    /// been contiguously red (absent while green/yellow).
    latest: BTreeMap<u64, NodeSnap>,
    red_since: BTreeMap<u64, u64>,
    /// Jobs with a defer not yet resolved by a place or a give-up:
    /// job -> (deferred at, announced retry time).
    pending_defer: BTreeMap<u64, (u64, u64)>,
    /// Nodes known dead / currently quarantined as the trace replays.
    dead: BTreeSet<u64>,
    quarantined: BTreeSet<u64>,
    /// Jobs that have ever been lost to node death, and the re-queued
    /// losses not yet resolved by a place or a give-up: job -> lost at.
    lost_jobs: BTreeSet<u64>,
    pending_requeue: BTreeMap<u64, u64>,
}

impl FleetReplay {
    pub(crate) fn new(oracle: &FleetOracle) -> Self {
        FleetReplay {
            grace_ms: oracle.grace_ms,
            defer_interval_ms: oracle.defer_interval_ms,
            ..Default::default()
        }
    }

    /// A placement or migration target must be neither dead nor
    /// quarantined at decision time.
    fn check_target(&self, e: &TraceEvent, job: u64, node: u64, out: &mut Vec<Violation>) {
        if self.dead.contains(&node) {
            flag!(
                out,
                e,
                "fleet.place.dead",
                "job {job} placed on node {node}, which is dead"
            );
        }
        if self.quarantined.contains(&node) {
            flag!(
                out,
                e,
                "fleet.place.quarantined",
                "job {job} placed on node {node}, which is quarantined"
            );
        }
    }

    /// `fleet.defer.latency`: an event at `e` resolves `job`'s pending
    /// defer (if any) and must not come after the retry time it announced.
    fn resolve_defer(&mut self, e: &TraceEvent, job: u64, out: &mut Vec<Violation>) {
        let Some((_, retry_at)) = self.pending_defer.remove(&job) else {
            return;
        };
        let at = e.t.as_millis();
        if at > retry_at {
            flag!(
                out,
                e,
                "fleet.defer.latency",
                "job {job} deferred with retry announced at {retry_at} ms \
                 was next attempted only at {at} ms"
            );
        }
    }
}

impl Invariant for FleetReplay {
    #[inline]
    fn observe(&mut self, _: usize, e: &TraceEvent, out: &mut Vec<Violation>) {
        let at = e.t.as_millis();
        match e.data {
            TraceData::FleetPressure {
                node,
                zone,
                used,
                reserved,
                top,
                ..
            } => {
                self.latest.insert(
                    node,
                    NodeSnap {
                        zone,
                        used,
                        reserved,
                        top,
                    },
                );
                match zone {
                    TraceZone::Red | TraceZone::AboveTop => {
                        self.red_since.entry(node).or_insert(at);
                    }
                    _ => {
                        self.red_since.remove(&node);
                    }
                }
            }
            TraceData::FleetPlace { job, node, .. } => {
                match self.latest.get(&node).map(|s| s.zone) {
                    None => flag!(
                        out,
                        e,
                        "fleet.place.red",
                        "job {job} placed on node {node} without a pressure probe"
                    ),
                    Some(z @ (TraceZone::Red | TraceZone::AboveTop)) => flag!(
                        out,
                        e,
                        "fleet.place.red",
                        "job {job} placed on node {node} whose latest \
                         pressure snapshot is {z:?}"
                    ),
                    Some(_) => {}
                }
                self.check_target(e, job, node, out);
                self.pending_requeue.remove(&job);
                self.resolve_defer(e, job, out);
            }
            TraceData::FleetDefer {
                job, retry_at_ms, ..
            } => {
                // A retry that itself defers resolves the previous
                // pending defer (and must itself be on time).
                self.resolve_defer(e, job, out);
                if let Some(interval) = self.defer_interval_ms {
                    if retry_at_ms.saturating_sub(at) > interval {
                        flag!(
                            out,
                            e,
                            "fleet.defer.latency",
                            "job {job} deferred at {at} ms announced retry at \
                             {retry_at_ms} ms, beyond the {interval} ms defer interval"
                        );
                    }
                }
                self.pending_defer.insert(job, (at, retry_at_ms));
            }
            TraceData::FleetMigrate { job, from, to, .. } => {
                self.check_target(e, job, to, out);
                let streak = self
                    .red_since
                    .get(&from)
                    .map(|since| at.saturating_sub(*since));
                match streak {
                    None => flag!(
                        out,
                        e,
                        "fleet.migrate.grace",
                        "job {job} migrated off node {from} that is not red"
                    ),
                    Some(ms) if ms < self.grace_ms => flag!(
                        out,
                        e,
                        "fleet.migrate.grace",
                        "job {job} migrated off node {from} after only {ms} ms \
                         red (grace window is {} ms)",
                        self.grace_ms
                    ),
                    Some(_) => {}
                }
            }
            TraceData::FleetGiveUp { job, demand, .. } => {
                self.resolve_defer(e, job, out);
                self.pending_requeue.remove(&job);
                // Giving up while some node visibly admits the job is
                // starvation: the final attempt must have seen it. Jobs
                // abandoned after node loss exhausted a retry budget, not
                // the candidate set, so they are exempt — as are nodes
                // the scheduler rightly refuses to target.
                if self.lost_jobs.contains(&job) {
                    return;
                }
                let fits = self.latest.iter().find(|(node, s)| {
                    !self.dead.contains(node)
                        && !self.quarantined.contains(node)
                        && matches!(s.zone, TraceZone::Green | TraceZone::Yellow)
                        && s.used.max(s.reserved).saturating_add(demand) <= s.top
                });
                if let Some((node, s)) = fits {
                    flag!(
                        out,
                        e,
                        "fleet.giveup.starvation",
                        "job {job} (demand {demand}) given up on while node {node} \
                         is {:?} with effective load {} of top {}",
                        s.zone,
                        s.used.max(s.reserved),
                        s.top
                    );
                }
            }
            TraceData::FleetNodeLost { node, .. } => {
                self.dead.insert(node);
                self.red_since.remove(&node);
            }
            TraceData::FleetReschedule { job, requeued, .. } => {
                self.lost_jobs.insert(job);
                if requeued {
                    self.pending_requeue.insert(job, at);
                }
            }
            TraceData::FleetQuarantine { node, entered, .. } => {
                if entered {
                    self.quarantined.insert(node);
                } else {
                    self.quarantined.remove(&node);
                }
            }
            _ => {}
        }
    }

    fn finish(self, out: &mut Vec<Violation>) {
        for (job, since) in self.pending_requeue {
            out.push(Violation {
                invariant: "fleet.lost.resolved".into(),
                at_ms: since,
                pid: job,
                message: format!(
                    "job {job} lost to node death at {since} ms was re-queued \
                     but never placed or given up on"
                ),
            });
        }
        for (job, (since, _)) in self.pending_defer {
            out.push(Violation {
                invariant: "fleet.defer.progress".into(),
                at_ms: since,
                pid: job,
                message: format!(
                    "job {job} was deferred at {since} ms and never placed or given up on"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;

    fn pressure(node: u64, zone: TraceZone) -> TraceData {
        TraceData::FleetPressure {
            node,
            zone,
            used: 0,
            reserved: 0,
            high: 0,
            top: 0,
            escalations: 0,
        }
    }

    fn place(job: u64, node: u64) -> TraceData {
        TraceData::FleetPlace {
            job,
            node,
            used: 0,
            demand: 0,
            top: 0,
        }
    }

    #[test]
    fn fleet_place_on_green_node_is_conformant() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Green));
        log.record(t(1), 0, pressure(1, TraceZone::Yellow));
        log.record(t(1), 0, place(0, 0));
        log.record(t(2), 1, place(1, 1));
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_place_on_red_node_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(2, TraceZone::Red));
        log.record(t(1), 0, place(0, 2));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.place.red");
    }

    #[test]
    fn fleet_place_above_top_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::AboveTop));
        log.record(t(1), 0, place(3, 0));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.place.red");
    }

    #[test]
    fn fleet_place_without_probe_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, place(0, 5));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.place.red");
        assert!(v[0].message.contains("without a pressure probe"));
    }

    #[test]
    fn fleet_place_uses_latest_snapshot_not_an_old_one() {
        // Node recovers: red then green — placement after the recovery is fine.
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Red));
        log.record(t(5), 0, pressure(0, TraceZone::Green));
        log.record(t(5), 0, place(0, 0));
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_migrate_after_grace_is_conformant() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Red));
        log.record(t(6), 0, pressure(0, TraceZone::Red));
        log.record(
            t(11),
            0,
            TraceData::FleetMigrate {
                job: 0,
                from: 0,
                to: 1,
                red_for_ms: 10_000,
            },
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_migrate_before_grace_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Red));
        log.record(
            t(3),
            0,
            TraceData::FleetMigrate {
                job: 0,
                from: 0,
                to: 1,
                red_for_ms: 2_000,
            },
        );
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.migrate.grace");
    }

    #[test]
    fn fleet_migrate_off_non_red_node_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Yellow));
        log.record(
            t(20),
            0,
            TraceData::FleetMigrate {
                job: 0,
                from: 0,
                to: 1,
                red_for_ms: 0,
            },
        );
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.migrate.grace");
        assert!(v[0].message.contains("not red"));
    }

    #[test]
    fn fleet_red_streak_resets_on_recovery() {
        // Red for ages, recovers, goes red again briefly: the streak restarts
        // at the second red onset, so an early migration is still caught.
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Red));
        log.record(t(30), 0, pressure(0, TraceZone::Green));
        log.record(t(31), 0, pressure(0, TraceZone::Red));
        log.record(
            t(33),
            0,
            TraceData::FleetMigrate {
                job: 0,
                from: 0,
                to: 1,
                red_for_ms: 2_000,
            },
        );
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.migrate.grace");
    }

    #[test]
    fn fleet_defer_then_place_is_conformant() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Green));
        log.record(
            t(1),
            0,
            TraceData::FleetDefer {
                job: 0,
                attempt: 1,
                retry_at_ms: 5_000,
            },
        );
        log.record(t(5), 0, place(0, 0));
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_defer_then_giveup_is_conformant() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            0,
            TraceData::FleetDefer {
                job: 2,
                attempt: 1,
                retry_at_ms: 5_000,
            },
        );
        log.record(
            t(5),
            0,
            TraceData::FleetGiveUp {
                job: 2,
                attempts: 1,
                demand: 0,
            },
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_giveup_while_a_node_admits_is_caught() {
        // Node 1's latest snapshot is green with room for the job's demand:
        // abandoning the job is starvation.
        let mut log = TraceLog::new();
        log.record(
            t(1),
            0,
            TraceData::FleetPressure {
                node: 1,
                zone: TraceZone::Green,
                used: 10,
                reserved: 20,
                high: 80,
                top: 100,
                escalations: 0,
            },
        );
        log.record(
            t(2),
            0,
            TraceData::FleetGiveUp {
                job: 3,
                attempts: 5,
                demand: 50,
            },
        );
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.giveup.starvation");
    }

    #[test]
    fn fleet_giveup_with_no_room_anywhere_is_conformant() {
        // Reserved demand (not just used) blocks the only green node, so
        // the give-up is legitimate.
        let mut log = TraceLog::new();
        log.record(
            t(1),
            0,
            TraceData::FleetPressure {
                node: 0,
                zone: TraceZone::Green,
                used: 10,
                reserved: 60,
                high: 80,
                top: 100,
                escalations: 0,
            },
        );
        log.record(
            t(2),
            0,
            TraceData::FleetGiveUp {
                job: 3,
                attempts: 5,
                demand: 50,
            },
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_late_retry_is_caught() {
        // The defer announced a retry at 5 s but the next attempt for the
        // job only happened at 6 s.
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Green));
        log.record(
            t(1),
            0,
            TraceData::FleetDefer {
                job: 0,
                attempt: 1,
                retry_at_ms: 5_000,
            },
        );
        log.record(t(6), 0, place(0, 0));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.defer.latency");
    }

    #[test]
    fn fleet_defer_beyond_the_interval_is_caught() {
        // With the scheduler's defer interval known (3 s), a defer that
        // announces its retry 4 s out is flagged at the defer itself.
        let mut log = TraceLog::new();
        log.record(
            t(1),
            0,
            TraceData::FleetDefer {
                job: 0,
                attempt: 1,
                retry_at_ms: 5_000,
            },
        );
        log.record(t(5), 0, pressure(0, TraceZone::Green));
        log.record(t(5), 0, place(0, 0));
        let v = fleet_oracle().with_defer_interval(3_000).check(&log);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "fleet.defer.latency");
        assert!(v[0].message.contains("defer interval"));
    }

    #[test]
    fn fleet_defer_never_resolved_is_caught() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            0,
            TraceData::FleetDefer {
                job: 7,
                attempt: 1,
                retry_at_ms: 5_000,
            },
        );
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.defer.progress");
        assert_eq!(v[0].pid, 7);
    }

    #[test]
    fn fleet_oracle_ignores_node_level_events() {
        let mut log = TraceLog::new();
        log.record(t(1), 1, TraceData::Madvise { bytes: GIB });
        log.record(t(1), 0, TraceData::ProcExit);
        assert!(fleet_oracle().check(&log).is_empty());
    }

    fn node_lost(node: u64) -> TraceData {
        TraceData::FleetNodeLost { node, jobs_lost: 1 }
    }

    fn reschedule(job: u64, requeued: bool) -> TraceData {
        TraceData::FleetReschedule {
            job,
            from: 0,
            retries: 1,
            retry_at_ms: 5_000,
            requeued,
        }
    }

    fn quarantine(node: u64, entered: bool) -> TraceData {
        TraceData::FleetQuarantine {
            node,
            entered,
            streak: 2,
        }
    }

    #[test]
    fn fleet_place_on_dead_node_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Green));
        log.record(t(2), 0, node_lost(0));
        log.record(t(3), 0, place(1, 0));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "fleet.place.dead");
    }

    #[test]
    fn fleet_place_on_quarantined_node_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Green));
        log.record(t(2), 0, quarantine(0, true));
        log.record(t(3), 0, place(1, 0));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "fleet.place.quarantined");
    }

    #[test]
    fn fleet_migrate_onto_quarantined_node_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Red));
        log.record(t(2), 0, quarantine(1, true));
        log.record(
            t(12),
            0,
            TraceData::FleetMigrate {
                job: 0,
                from: 0,
                to: 1,
                red_for_ms: 11_000,
            },
        );
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "fleet.place.quarantined");
    }

    #[test]
    fn fleet_place_after_quarantine_exit_is_conformant() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Green));
        log.record(t(2), 0, quarantine(0, true));
        log.record(t(5), 0, quarantine(0, false));
        log.record(t(6), 0, place(1, 0));
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_requeued_job_placed_elsewhere_is_conformant() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(1, TraceZone::Green));
        log.record(t(2), 0, node_lost(0));
        log.record(t(2), 0, reschedule(4, true));
        log.record(t(5), 0, place(4, 1));
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_requeued_job_never_resolved_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(2), 0, node_lost(0));
        log.record(t(2), 0, reschedule(4, true));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "fleet.lost.resolved");
        assert_eq!(v[0].pid, 4);
    }

    #[test]
    fn fleet_orphaned_lost_job_giveup_skips_starvation() {
        // Node 1 visibly admits the job, but the job exhausted its node-loss
        // retry budget — the give-up is legitimate, not starvation.
        let mut log = TraceLog::new();
        log.record(
            t(1),
            0,
            TraceData::FleetPressure {
                node: 1,
                zone: TraceZone::Green,
                used: 10,
                reserved: 20,
                high: 80,
                top: 100,
                escalations: 0,
            },
        );
        log.record(t(2), 0, node_lost(0));
        log.record(t(2), 0, reschedule(3, false));
        log.record(
            t(2),
            0,
            TraceData::FleetGiveUp {
                job: 3,
                attempts: 4,
                demand: 50,
            },
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_starvation_search_skips_dead_and_quarantined_nodes() {
        // The only nodes with room are dead or quarantined, so giving up is
        // legitimate for an ordinary (never-lost) job too.
        let snap = |node| TraceData::FleetPressure {
            node,
            zone: TraceZone::Green,
            used: 0,
            reserved: 0,
            high: 80,
            top: 100,
            escalations: 0,
        };
        let mut log = TraceLog::new();
        log.record(t(1), 0, snap(0));
        log.record(t(1), 0, snap(1));
        log.record(t(2), 0, node_lost(0));
        log.record(t(2), 0, quarantine(1, true));
        log.record(
            t(3),
            0,
            TraceData::FleetGiveUp {
                job: 9,
                attempts: 5,
                demand: 50,
            },
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }
}
