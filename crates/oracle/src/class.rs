//! Criticality classes (§16).
//!
//! - `kill.class.order` (node oracle) — a monitor kill's victim is of
//!   maximal expendability among the alive candidates its `kill.class`
//!   event records: batch dies before standard, standard before
//!   latency-critical.
//! - `sched.class.preempt` (fleet oracle) — a preemptor is strictly less
//!   expendable than its victim.
//! - `sched.class.slo` — `met` equals `runtime_ms <= slo_ms` (always true
//!   without an SLO), and the stall never exceeds the runtime.
//! - `sched.class.consistency` — preempt and SLO events agree with the
//!   class and SLO the job declared in `sched.class.assign`.

use crate::{Invariant, Violation};
use m3_sim::trace::{Criticality, TraceData, TraceEvent};
use std::collections::BTreeMap;

/// `kill.class.order`. Stateless: each `kill.class` event carries the
/// candidate set it is checked against.
pub(crate) struct KillOrder;

impl Invariant for KillOrder {
    #[inline]
    fn observe(&mut self, _: usize, e: &TraceEvent, out: &mut Vec<Violation>) {
        let TraceData::KillClass { crit, candidates } = &e.data else {
            return;
        };
        let Some(victim) = candidates.iter().find(|c| c.pid == e.pid) else {
            flag!(
                out,
                e,
                "kill.class.order",
                "kill.class victim {} is not among its recorded candidates",
                e.pid
            );
            return;
        };
        if victim.crit != *crit {
            flag!(
                out,
                e,
                "kill.class.order",
                "kill.class records the victim as {:?} but its candidate \
                 entry says {:?}",
                crit,
                victim.crit
            );
        }
        if let Some(better) = candidates
            .iter()
            .find(|c| c.crit.expendability() > crit.expendability())
        {
            flag!(
                out,
                e,
                "kill.class.order",
                "{crit:?} job {} killed while more-expendable {:?} candidate \
                 {} was still alive",
                e.pid,
                better.crit,
                better.pid
            );
        }
    }
}

/// `sched.class.preempt`, `sched.class.slo` and `sched.class.consistency`
/// over a fleet placement log.
#[derive(Default)]
pub(crate) struct SchedClass {
    /// Criticality class and SLO each job declared at submission.
    classes: BTreeMap<u64, (Criticality, u64)>,
}

impl Invariant for SchedClass {
    #[inline]
    fn observe(&mut self, _: usize, e: &TraceEvent, out: &mut Vec<Violation>) {
        match &e.data {
            TraceData::SchedClassAssign { job, crit, slo_ms } => {
                self.classes.insert(*job, (*crit, *slo_ms));
            }
            TraceData::SchedClassPreempt {
                job,
                crit,
                victim,
                victim_crit,
                node,
            } => {
                if crit.expendability() >= victim_crit.expendability() {
                    flag!(
                        out,
                        e,
                        "sched.class.preempt",
                        "job {job} ({}) preempted job {victim} ({}) on node \
                         {node}: a preemptor must be strictly less expendable \
                         than its victim",
                        crit.name(),
                        victim_crit.name()
                    );
                }
                for (who, recorded) in [(job, crit), (victim, victim_crit)] {
                    if let Some((assigned, _)) = self.classes.get(who) {
                        if assigned != recorded {
                            flag!(
                                out,
                                e,
                                "sched.class.consistency",
                                "preempt records job {who} as {}, its assignment \
                                 declared {}",
                                recorded.name(),
                                assigned.name()
                            );
                        }
                    }
                }
            }
            TraceData::SchedClassSlo {
                job,
                crit,
                slo_ms,
                runtime_ms,
                stall_ms,
                met,
            } => {
                let want_met = *slo_ms == 0 || runtime_ms <= slo_ms;
                if *met != want_met {
                    flag!(
                        out,
                        e,
                        "sched.class.slo",
                        "job {job} recorded met={met} but runtime {runtime_ms} ms \
                         against SLO {slo_ms} ms implies met={want_met}"
                    );
                }
                if stall_ms > runtime_ms {
                    flag!(
                        out,
                        e,
                        "sched.class.slo",
                        "job {job} stalled {stall_ms} ms, more than its whole \
                         {runtime_ms} ms runtime"
                    );
                }
                if let Some((assigned, assigned_slo)) = self.classes.get(job) {
                    if assigned != crit || assigned_slo != slo_ms {
                        flag!(
                            out,
                            e,
                            "sched.class.consistency",
                            "job {job} SLO report says ({}, {slo_ms} ms), its \
                             assignment declared ({}, {assigned_slo} ms)",
                            crit.name(),
                            assigned.name()
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;

    /// Drives a real monitor over a batch hog (spawned first) and a later
    /// latency-critical hog whose combined usage sits above top until the
    /// grace period expires and the monitor kills down to top.
    fn classed_kill_run(crit_blind: bool) -> (TraceLog, MonitorConfig) {
        let mut cfg = paper();
        cfg.crit_blind = crit_blind;
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let mut mon = Monitor::new(cfg);
        os.set_time(t(0));
        let batch = os.spawn("batch");
        mon.register_with_class(batch, Criticality::Batch);
        os.grow(batch, 31 * GIB).unwrap();
        os.set_time(t(5));
        let critical = os.spawn("critical");
        mon.register_with_class(critical, Criticality::LatencyCritical);
        os.grow(critical, 32 * GIB).unwrap();
        for s in 6..45 {
            let now = t(s);
            os.set_time(now);
            mon.poll(&mut os, now);
            os.take_signals(batch);
            os.take_signals(critical);
        }
        (std::mem::take(&mut os.trace), cfg)
    }

    #[test]
    fn classed_kill_run_is_conformant_and_spares_the_critical_job() {
        let (trace, cfg) = classed_kill_run(false);
        assert!(trace.count("kill.class") > 0, "kill path must trigger");
        let violations = Oracle::paper(Some(cfg)).check(&trace);
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn criticality_blind_policy_is_caught_by_the_oracle() {
        // The ablation sorts by posture alone: newest-first kills the
        // latency-critical job while the batch job is still alive. The
        // flagship invariant must catch exactly this.
        let (trace, cfg) = classed_kill_run(true);
        assert!(trace.count("kill.class") > 0, "kill path must trigger");
        let violations = Oracle::paper(Some(cfg)).check(&trace);
        assert!(
            violations.iter().any(|v| v.invariant == "kill.class.order"),
            "posture-only kill under mixed criticality must be flagged: {violations:?}"
        );
    }

    #[test]
    fn kill_class_victim_missing_from_candidates_is_flagged() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            7,
            TraceData::KillClass {
                crit: Criticality::Batch,
                candidates: vec![CandidateInfo {
                    pid: 8,
                    spawned_at_ms: 0,
                    rss: GIB,
                    expected_reclaim: 0,
                    crit: Criticality::Batch,
                }],
            },
        );
        let violations = Oracle::paper(Some(paper())).check(&log);
        assert!(
            violations.iter().any(|v| v.invariant == "kill.class.order"),
            "got {violations:?}"
        );
    }

    #[test]
    fn kill_class_crit_mismatch_is_flagged() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            7,
            TraceData::KillClass {
                crit: Criticality::Batch,
                candidates: vec![CandidateInfo {
                    pid: 7,
                    spawned_at_ms: 0,
                    rss: GIB,
                    expected_reclaim: 0,
                    crit: Criticality::Standard,
                }],
            },
        );
        let violations = Oracle::paper(Some(paper())).check(&log);
        assert!(
            violations.iter().any(|v| v.invariant == "kill.class.order"),
            "got {violations:?}"
        );
    }

    fn assign(job: u64, crit: Criticality, slo_ms: u64) -> TraceData {
        TraceData::SchedClassAssign { job, crit, slo_ms }
    }

    fn preempt(job: u64, crit: Criticality, victim: u64, victim_crit: Criticality) -> TraceData {
        TraceData::SchedClassPreempt {
            job,
            crit,
            victim,
            victim_crit,
            node: 0,
        }
    }

    #[test]
    fn sched_class_preempt_of_more_expendable_victim_is_conformant() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, assign(1, Criticality::LatencyCritical, 500));
        log.record(t(1), 0, assign(2, Criticality::Batch, 0));
        log.record(
            t(2),
            0,
            preempt(1, Criticality::LatencyCritical, 2, Criticality::Batch),
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn sched_class_preempt_of_equal_or_less_expendable_victim_is_caught() {
        for victim_crit in [Criticality::Batch, Criticality::LatencyCritical] {
            let mut log = TraceLog::new();
            log.record(t(1), 0, assign(1, Criticality::Batch, 0));
            log.record(t(1), 0, assign(2, victim_crit, 0));
            log.record(t(2), 0, preempt(1, Criticality::Batch, 2, victim_crit));
            let v = fleet_oracle().check(&log);
            assert!(
                v.iter().any(|x| x.invariant == "sched.class.preempt"),
                "batch preempting {victim_crit:?} must be flagged: {v:?}"
            );
        }
    }

    #[test]
    fn sched_class_preempt_contradicting_assignment_is_caught() {
        // Job 2 was declared latency-critical, but the preempt event
        // relabels it as batch to make the eviction look legal.
        let mut log = TraceLog::new();
        log.record(t(1), 0, assign(1, Criticality::LatencyCritical, 500));
        log.record(t(1), 0, assign(2, Criticality::LatencyCritical, 500));
        log.record(
            t(2),
            0,
            preempt(1, Criticality::LatencyCritical, 2, Criticality::Batch),
        );
        let v = fleet_oracle().check(&log);
        assert!(
            v.iter().any(|x| x.invariant == "sched.class.consistency"),
            "got {v:?}"
        );
    }

    #[test]
    fn sched_class_slo_accounting_is_checked() {
        // met must equal runtime <= slo, and stall time cannot exceed the
        // whole runtime.
        let ok = TraceData::SchedClassSlo {
            job: 1,
            crit: Criticality::LatencyCritical,
            slo_ms: 500,
            runtime_ms: 400,
            stall_ms: 100,
            met: true,
        };
        let wrong_met = TraceData::SchedClassSlo {
            job: 1,
            crit: Criticality::LatencyCritical,
            slo_ms: 500,
            runtime_ms: 900,
            stall_ms: 100,
            met: true,
        };
        let impossible_stall = TraceData::SchedClassSlo {
            job: 1,
            crit: Criticality::LatencyCritical,
            slo_ms: 500,
            runtime_ms: 400,
            stall_ms: 401,
            met: true,
        };
        let mut log = TraceLog::new();
        log.record(t(1), 0, assign(1, Criticality::LatencyCritical, 500));
        log.record(t(2), 0, ok);
        assert!(fleet_oracle().check(&log).is_empty());

        for bad in [wrong_met, impossible_stall] {
            let mut log = TraceLog::new();
            log.record(t(1), 0, assign(1, Criticality::LatencyCritical, 500));
            log.record(t(2), 0, bad);
            let v = fleet_oracle().check(&log);
            assert!(
                v.iter().any(|x| x.invariant == "sched.class.slo"),
                "got {v:?}"
            );
        }
    }

    #[test]
    fn sched_class_slo_contradicting_assignment_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, assign(1, Criticality::Standard, 0));
        log.record(
            t(2),
            0,
            TraceData::SchedClassSlo {
                job: 1,
                crit: Criticality::LatencyCritical,
                slo_ms: 500,
                runtime_ms: 400,
                stall_ms: 0,
                met: true,
            },
        );
        let v = fleet_oracle().check(&log);
        assert!(
            v.iter().any(|x| x.invariant == "sched.class.consistency"),
            "got {v:?}"
        );
    }

    #[test]
    fn jobs_without_slo_are_always_met() {
        // slo_ms == 0 means "no SLO declared": met must be recorded true.
        let mut log = TraceLog::new();
        log.record(t(1), 0, assign(1, Criticality::Batch, 0));
        log.record(
            t(2),
            0,
            TraceData::SchedClassSlo {
                job: 1,
                crit: Criticality::Batch,
                slo_ms: 0,
                runtime_ms: 10_000,
                stall_ms: 2_000,
                met: true,
            },
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }
}
