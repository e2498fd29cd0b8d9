//! The monitor protocol (§5, §6, Algorithm 1), checked at each
//! `monitor.poll`: threshold ordering, steps and replay, zoning, low-signal
//! crossings, Algorithm 1's selection and its recipients, signal delivery
//! and kill escalation. Threshold moves, selections, watchdog skips,
//! signal-bus events and kills precede the poll that reports them, so they
//! wait for it here.

use crate::{Invariant, Violation};
use m3_core::config::MonitorConfig;
use m3_core::monitor::{DEGRADED_MARGIN_FRACTION, KILL_TIMEOUT, MAX_DEGRADED_WIDENING};
use m3_core::selection::{select_processes, Candidate, SortOrder};
use m3_core::thresholds::AdaptiveThresholds;
use m3_sim::trace::{SigKind, ThresholdSide, TraceData, TraceEvent, TraceZone};

/// The red-zone/above-top selection awaiting its `monitor.poll`.
struct PendingSelection {
    target: u64,
    all: bool,
    selected: Vec<u64>,
}

/// Replay state of the monitor protocol.
#[derive(Default)]
pub(crate) struct MonitorReplay {
    /// The monitor the run declared; `None` skips the checks that need it.
    monitor: Option<MonitorConfig>,
    /// Shadow copy of the adaptive-threshold state, fed the recorded polls.
    replica: Option<AdaptiveThresholds>,
    /// `threshold.adjust.*` events since the last poll (they precede their
    /// poll's `monitor.poll` event).
    pending_adjusts: Vec<(ThresholdSide, u64, u64)>,
    pending_selection: Option<PendingSelection>,
    /// Pids whose high signal the watchdog suppressed this poll.
    skipped: Vec<u64>,
    /// Signal-bus events (sent, dropped or delayed) since the last poll.
    window_low: Vec<u64>,
    window_high: Vec<u64>,
    /// `monitor.kill` victims since the last poll.
    window_kills: Vec<u64>,
    /// Replay of the monitor's kill-grace clock, ms.
    above_top_since: Option<u64>,
    /// Replay of the low-signal upward-crossing edge detector.
    prev_above_low: bool,
    /// Consecutive degraded polls (degraded-margin widening factor).
    degraded_run: u64,
}

impl Invariant for MonitorReplay {
    #[inline]
    fn observe(&mut self, _: usize, e: &TraceEvent, out: &mut Vec<Violation>) {
        match &e.data {
            &TraceData::ThresholdAdjust { side, old, new } => {
                if old == new {
                    flag!(
                        out,
                        e,
                        "threshold.step",
                        "{side:?} adjustment recorded with no movement (stayed {old})"
                    );
                }
                if let Some(cfg) = &self.monitor {
                    let step = cfg.step();
                    if old.abs_diff(new) > step {
                        flag!(
                            out,
                            e,
                            "threshold.step",
                            "{side:?} moved {old} -> {new} ({} bytes), exceeding the \
                             {:.0}%-of-top step of {step} bytes",
                            old.abs_diff(new),
                            cfg.step_fraction * 100.0
                        );
                    }
                }
                self.pending_adjusts.push((side, old, new));
            }
            TraceData::Selection {
                order,
                target,
                all,
                candidates,
                selected,
            } => {
                if self.pending_selection.is_some() {
                    flag!(
                        out,
                        e,
                        "selection.replay",
                        "two selections without an intervening monitor poll"
                    );
                }
                if *all {
                    let pids: Vec<u64> = candidates.iter().map(|c| c.pid).collect();
                    if pids != *selected {
                        flag!(
                            out,
                            e,
                            "selection.all",
                            "signal-everyone selection picked {selected:?}, \
                             expected every candidate {pids:?}"
                        );
                    }
                } else {
                    match SortOrder::from_name(order) {
                        Some(ord) => {
                            let cands: Vec<Candidate> =
                                candidates.iter().map(Candidate::from_info).collect();
                            let want = select_processes(&cands, ord, *target);
                            if want != *selected {
                                flag!(
                                    out,
                                    e,
                                    "selection.replay",
                                    "Algorithm 1 ({order}, target {target}) replays to \
                                     {want:?}, trace recorded {selected:?}"
                                );
                            }
                        }
                        None => flag!(out, e, "selection.replay", "unknown sort order `{order}`"),
                    }
                }
                self.pending_selection = Some(PendingSelection {
                    target: *target,
                    all: *all,
                    selected: selected.clone(),
                });
            }
            TraceData::WatchdogSkip => self.skipped.push(e.pid),
            TraceData::SignalSent { sig }
            | TraceData::SignalDropped { sig }
            | TraceData::SignalDelayed { sig } => match sig {
                SigKind::Low => self.window_low.push(e.pid),
                SigKind::High => self.window_high.push(e.pid),
                SigKind::Kill => {}
            },
            TraceData::MonitorKill { .. } => self.window_kills.push(e.pid),
            TraceData::MonitorPoll { .. } => self.on_poll(e, out),
            _ => {}
        }
    }
}

impl MonitorReplay {
    pub(crate) fn new(monitor: Option<MonitorConfig>) -> Self {
        MonitorReplay {
            monitor,
            replica: monitor.as_ref().map(AdaptiveThresholds::new),
            ..Default::default()
        }
    }

    fn on_poll(&mut self, e: &TraceEvent, out: &mut Vec<Violation>) {
        let TraceData::MonitorPoll {
            zone,
            used,
            low,
            high,
            degraded,
            ref low_signalled,
            ref high_signalled,
            ref killed,
        } = e.data
        else {
            unreachable!("on_poll called with a non-poll event");
        };
        let ms = e.t.as_millis();

        // Degraded polls widen the enforcement margin with each consecutive
        // failed meminfo read, capped at MAX_DEGRADED_WIDENING.
        self.degraded_run = if degraded { self.degraded_run + 1 } else { 0 };
        let margin = match &self.monitor {
            Some(cfg) if degraded => {
                let step = (cfg.top as f64 * DEGRADED_MARGIN_FRACTION) as u64;
                step * self.degraded_run.min(u64::from(MAX_DEGRADED_WIDENING))
            }
            _ => 0,
        };

        // Ordering: low <= high <= top, always (§5.2).
        if low > high {
            flag!(
                out,
                e,
                "threshold.ordering",
                "low threshold {low} above high threshold {high}"
            );
        }
        if let Some(cfg) = &self.monitor {
            if high > cfg.top {
                flag!(
                    out,
                    e,
                    "threshold.ordering",
                    "high threshold {high} above top of memory {}",
                    cfg.top
                );
            }
        }

        // Adaptive-threshold replay: feed the shadow copy this poll's usage
        // and require the recorded moves and post-state to match (§5.2).
        if let Some(mut replica) = self.replica.take() {
            if degraded {
                if !self.pending_adjusts.is_empty() {
                    flag!(
                        out,
                        e,
                        "threshold.replay",
                        "degraded poll must not adjust thresholds, recorded {:?}",
                        self.pending_adjusts
                    );
                }
            } else {
                let up = replica.observe(used);
                let mut want: Vec<(ThresholdSide, u64, u64)> = Vec::new();
                if let Some((old, new)) = up.low {
                    want.push((ThresholdSide::Low, old, new));
                }
                if let Some((old, new)) = up.high {
                    want.push((ThresholdSide::High, old, new));
                }
                if want != self.pending_adjusts {
                    flag!(
                        out,
                        e,
                        "threshold.replay",
                        "replay expected adjustments {:?}, trace recorded {:?}",
                        want,
                        self.pending_adjusts
                    );
                }
            }
            if replica.low() != low || replica.high() != high {
                flag!(
                    out,
                    e,
                    "threshold.replay",
                    "replayed thresholds ({}, {}) differ from recorded ({low}, {high})",
                    replica.low(),
                    replica.high()
                );
                // Re-sync so one divergence does not cascade over the rest
                // of the trace.
                if let Some(cfg) = &self.monitor {
                    let mut resync = *cfg;
                    resync.initial_high = high.min(cfg.top);
                    resync.initial_low = low.min(resync.initial_high);
                    replica = AdaptiveThresholds::new(&resync);
                }
            }
            self.replica = Some(replica);
        }
        self.pending_adjusts.clear();

        // Zone replay against the recorded usage and thresholds (§5, §6).
        if let Some(cfg) = &self.monitor {
            let want = if used > cfg.top {
                TraceZone::AboveTop
            } else if used > high.saturating_sub(margin) {
                TraceZone::Red
            } else if used > low.saturating_sub(margin) {
                TraceZone::Yellow
            } else {
                TraceZone::Green
            };
            if want != zone {
                flag!(
                    out,
                    e,
                    "zone.replay",
                    "used {used} with thresholds ({low}, {high}), margin {margin} \
                     is {want:?}, poll recorded {zone:?}"
                );
            }
        }

        // The early warning fires on the upward crossing of the low
        // threshold only, and never above top (§5).
        let above_low = used > low.saturating_sub(margin);
        let crossing = above_low && !self.prev_above_low && zone != TraceZone::AboveTop;
        if !crossing && !low_signalled.is_empty() {
            flag!(
                out,
                e,
                "lowsignal.crossing",
                "low signals to {low_signalled:?} without an upward crossing \
                 of the low threshold"
            );
        }
        self.prev_above_low = above_low;

        // High-signal recipients are exactly the selection minus the pids
        // whose signal the watchdog suppressed (§5.1, §6).
        match self.pending_selection.take() {
            Some(sel) => {
                let want: Vec<u64> = sel
                    .selected
                    .iter()
                    .copied()
                    .filter(|p| !self.skipped.contains(p))
                    .collect();
                if want != *high_signalled {
                    flag!(
                        out,
                        e,
                        "signal.recipients",
                        "selection {:?} minus watchdog skips {:?} expects \
                         recipients {want:?}, poll recorded {high_signalled:?}",
                        sel.selected,
                        self.skipped
                    );
                }
                if let Some(cfg) = &self.monitor {
                    let want_target = match zone {
                        // A recorded Red poll may sit at or below the
                        // margin-adjusted high threshold; that divergence
                        // is the zone check's to report, not an underflow.
                        TraceZone::Red => used.saturating_sub(high.saturating_sub(margin)),
                        TraceZone::AboveTop => used.saturating_sub(cfg.top),
                        _ => {
                            flag!(
                                out,
                                e,
                                "selection.zone",
                                "selection ran in the {zone:?} zone"
                            );
                            sel.target
                        }
                    };
                    if want_target != sel.target {
                        flag!(
                            out,
                            e,
                            "selection.target",
                            "selection target {} does not match the {zone:?}-zone \
                             formula value {want_target}",
                            sel.target
                        );
                    }
                    if zone == TraceZone::AboveTop && !sel.all {
                        flag!(
                            out,
                            e,
                            "selection.all",
                            "above-top selection must signal everyone"
                        );
                    }
                }
            }
            None => {
                if !high_signalled.is_empty() {
                    flag!(
                        out,
                        e,
                        "signal.recipients",
                        "high signals to {high_signalled:?} without a selection"
                    );
                }
            }
        }
        self.skipped.clear();

        // Every signalled pid must have a matching signal-bus event (sent,
        // dropped or delayed — the monitor cannot know the bus outcome).
        for (signalled, window, which) in [
            (low_signalled, &mut self.window_low, "low"),
            (high_signalled, &mut self.window_high, "high"),
        ] {
            let mut available = std::mem::take(window);
            let mut missing = Vec::new();
            for pid in signalled {
                match available.iter().position(|p| p == pid) {
                    Some(i) => {
                        available.swap_remove(i);
                    }
                    None => missing.push(*pid),
                }
            }
            if !missing.is_empty() {
                flag!(
                    out,
                    e,
                    "signal.delivery",
                    "poll reports {which} signals to {missing:?} but the signal \
                     bus has no matching events"
                );
            }
        }

        // Kills: victims match the monitor.kill events, happen only above
        // top, and only after the kill-timeout grace period (§6).
        if *killed != self.window_kills {
            flag!(
                out,
                e,
                "kill.victims",
                "poll reports kills {killed:?} but monitor.kill events \
                 name {:?}",
                self.window_kills
            );
        }
        self.window_kills.clear();
        if zone == TraceZone::AboveTop {
            let since = *self.above_top_since.get_or_insert(ms);
            if !killed.is_empty() {
                if self.monitor.is_some() {
                    let grace = KILL_TIMEOUT.as_millis();
                    if ms.saturating_sub(since) < grace {
                        flag!(
                            out,
                            e,
                            "kill.grace",
                            "killed {killed:?} only {} ms above top, before the \
                             {grace} ms grace period",
                            ms.saturating_sub(since)
                        );
                    }
                }
                self.above_top_since = None;
            }
        } else {
            self.above_top_since = None;
            if !killed.is_empty() {
                flag!(
                    out,
                    e,
                    "kill.grace",
                    "killed {killed:?} in the {zone:?} zone"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::*;

    #[test]
    fn clean_monitor_run_has_no_violations() {
        // Green, yellow crossings, sustained red (threshold adjustments once
        // the window fills), and relief back to green.
        let mut usages = vec![10 * GIB, 52 * GIB, 30 * GIB, 53 * GIB];
        usages.extend(vec![58 * GIB; 40]);
        usages.extend([20 * GIB, 52 * GIB]);
        let (trace, cfg) = monitored_run(&usages);
        assert!(trace.count("monitor.poll") == usages.len());
        assert!(
            trace.count("threshold.adjust") > 0,
            "sustained red must adjust thresholds"
        );
        let violations = Oracle::paper(Some(cfg)).check(&trace);
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn above_top_kill_run_is_conformant() {
        let mut usages = vec![63 * GIB; 31];
        usages.push(10 * GIB);
        let (trace, cfg) = monitored_run(&usages);
        assert!(trace.count("monitor.kill") > 0, "kill path must trigger");
        let violations = Oracle::paper(Some(cfg)).check(&trace);
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn oversized_threshold_move_is_flagged() {
        let cfg = paper();
        let mut log = TraceLog::new();
        // A 5%-of-top move: more than double the allowed 2% step.
        let step5 = (cfg.top as f64 * 0.05) as u64;
        log.record(
            t(1),
            MONITOR_PID,
            TraceData::ThresholdAdjust {
                side: ThresholdSide::Low,
                old: cfg.initial_low,
                new: cfg.initial_low - step5,
            },
        );
        let violations = Oracle::paper(Some(cfg)).check(&log);
        assert!(
            violations.iter().any(|v| v.invariant == "threshold.step"),
            "got {violations:?}"
        );
    }

    #[test]
    fn tampered_selection_is_flagged() {
        let (trace, cfg) = monitored_run(&[58 * GIB; 4]);
        // Rewrite one selection's outcome to a wrong pid set.
        let mut log = TraceLog::new();
        for e in trace.events() {
            let data = match &e.data {
                TraceData::Selection {
                    order,
                    target,
                    all,
                    candidates,
                    ..
                } => TraceData::Selection {
                    order: order.clone(),
                    target: *target,
                    all: *all,
                    candidates: candidates.clone(),
                    selected: vec![999],
                },
                d => d.clone(),
            };
            log.record(e.t, e.pid, data);
        }
        let violations = Oracle::paper(Some(cfg)).check(&log);
        assert!(
            violations.iter().any(|v| v.invariant == "selection.replay"),
            "got {violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "signal.recipients"),
            "recipients no longer match the (tampered) selection"
        );
    }

    #[test]
    fn high_signal_without_selection_is_flagged() {
        let cfg = paper();
        let mut log = TraceLog::new();
        log.record(t(1), 3, TraceData::SignalSent { sig: SigKind::High });
        log.record(
            t(1),
            MONITOR_PID,
            TraceData::MonitorPoll {
                zone: TraceZone::Red,
                used: 56 * GIB,
                low: cfg.initial_low,
                high: cfg.initial_high,
                degraded: false,
                low_signalled: vec![],
                high_signalled: vec![3],
                killed: vec![],
            },
        );
        let violations = Oracle::paper(Some(cfg)).check(&log);
        assert!(violations
            .iter()
            .any(|v| v.invariant == "signal.recipients"));
    }

    #[test]
    fn kill_before_grace_period_is_flagged() {
        let cfg = paper();
        let mut log = TraceLog::new();
        log.record(t(1), 7, TraceData::MonitorKill { rss: GIB });
        log.record(
            t(1),
            MONITOR_PID,
            TraceData::MonitorPoll {
                zone: TraceZone::AboveTop,
                used: 63 * GIB,
                low: cfg.initial_low,
                high: cfg.initial_high,
                degraded: false,
                low_signalled: vec![],
                high_signalled: vec![],
                killed: vec![7],
            },
        );
        let violations = Oracle::paper(Some(cfg)).check(&log);
        assert!(
            violations.iter().any(|v| v.invariant == "kill.grace"),
            "first above-top poll cannot kill yet: {violations:?}"
        );
    }

    #[test]
    fn red_poll_at_or_below_the_high_threshold_is_flagged_not_a_panic() {
        // A recorded Red poll whose usage sits below `high - margin` makes
        // the Red-zone target formula negative: the poll must be reported
        // as a divergence, not underflow.
        let cfg = paper();
        let mut log = TraceLog::new();
        log.record(
            t(1),
            MONITOR_PID,
            TraceData::Selection {
                order: "newest_first".to_string(),
                target: GIB,
                all: false,
                candidates: vec![],
                selected: vec![],
            },
        );
        log.record(
            t(1),
            MONITOR_PID,
            TraceData::MonitorPoll {
                zone: TraceZone::Red,
                used: 1,
                low: cfg.initial_low,
                high: cfg.initial_high,
                degraded: false,
                low_signalled: vec![],
                high_signalled: vec![],
                killed: vec![],
            },
        );
        let violations = Oracle::paper(Some(cfg)).check(&log);
        assert!(
            violations.iter().any(|v| v.invariant == "selection.target"),
            "got {violations:?}"
        );
    }
}
