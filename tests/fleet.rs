//! Fleet scheduler integration suite.
//!
//! End-to-end checks of the pressure-aware cluster scheduler: the
//! passthrough mode must reproduce `run_cluster` bit for bit, conformant
//! runs must pass the cluster oracle with zero violations, the canonical
//! fleet trace is pinned by a golden snapshot, and fleet runs are
//! deterministic and memoized.
//!
//! Golden snapshots live in `tests/golden/`; regenerate with
//! `M3_UPDATE_GOLDEN=1 cargo test --test fleet`. On a mismatch the
//! offending trace is written under `target/conformance-artifacts/` so CI
//! can upload it.

mod common;

use std::sync::Arc;

use common::{assert_golden, trace_jsonl};
use m3::prelude::*;
use m3::workloads::fleet::fleet_cache_stats;
use m3::workloads::scenario::fleet_scenarios;
use m3::workloads::worker_threads;

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

/// A three-node scheduling fleet with a bounded rebalance horizon, the
/// shape the golden snapshot and the conformance sweep share.
fn fleet3() -> FleetConfig {
    let mut fleet = FleetConfig::homogeneous(3, 64 * GIB);
    fleet.rebalance_checks = 10;
    fleet
}

#[test]
fn scheduler_off_reproduces_run_cluster_exactly() {
    // With the scheduler disabled every node runs the full schedule, which
    // must be indistinguishable — serialized bytes included — from the
    // legacy cluster path on the paper's eight workers.
    let scenario = fleet_canonical();
    let setting = Setting::m3(scenario.len());
    let via_fleet = run_fleet(
        &scenario,
        &setting,
        machine(),
        &FleetConfig::passthrough(PAPER_NODES),
    );
    let via_cluster = run_cluster(&scenario, &setting, machine(), PAPER_NODES);
    assert_eq!(
        serde_json::to_string(&via_fleet.cluster).unwrap(),
        serde_json::to_string(&via_cluster).unwrap(),
        "passthrough fleet must reproduce run_cluster bit for bit"
    );
    assert!(via_fleet.jobs.is_empty());
    assert!(via_fleet.trace.is_empty());
    assert!(via_fleet.violations.is_empty());
}

#[test]
fn conformant_fleet_runs_have_zero_violations() {
    for scenario in fleet_scenarios() {
        let setting = Setting::m3(scenario.len());
        let res = run_fleet(&scenario, &setting, machine(), &fleet3());
        assert!(
            res.violations.is_empty(),
            "{}: conformant run must have zero violations, got {:#?}",
            scenario.name,
            res.violations
        );
        assert!(
            !res.trace.is_empty(),
            "{}: the scheduler must leave a placement log",
            scenario.name
        );
        for j in &res.jobs {
            assert_ne!(
                j.failure,
                Some(JobFailure::GaveUp),
                "{}: job {} gave up",
                scenario.name,
                j.job
            );
            assert!(
                j.node.is_some(),
                "{}: job {} unplaced",
                scenario.name,
                j.job
            );
            assert!(
                j.runtime_s.is_some(),
                "{}: job {} did not complete",
                scenario.name,
                j.job
            );
        }
        // An independent replay through a fresh oracle agrees.
        let again = FleetOracle::new(fleet3().grace.as_millis()).check(&res.trace);
        assert!(
            again.is_empty(),
            "{}: independent replay: {again:#?}",
            scenario.name
        );
    }
}

#[test]
fn golden_fleet_canonical_trace() {
    // The canonical fleet workload's full placement log, pinned byte for
    // byte: placements, deferrals, pressure probes and rebalance checks
    // must not drift without a deliberate golden update.
    let scenario = fleet_canonical();
    let setting = Setting::m3(scenario.len());
    let res = run_fleet(&scenario, &setting, machine(), &fleet3());
    assert!(res.violations.is_empty());
    assert_golden("fleet_canonical.trace.jsonl", &trace_jsonl(&res.trace));
}

#[test]
fn golden_mixed_criticality_colocation_trace() {
    // The memcached+Spark co-location trace, pinned byte for byte: class
    // assignments, any preemptions, SLO accounting and kill ordering must
    // not drift without a deliberate golden update.
    let scenario = m3::workloads::scenario::mixed_criticality_scenario(4, 3_600_000);
    let setting = Setting::m3(scenario.len());
    let mut fleet = FleetConfig::homogeneous(2, 64 * GIB);
    fleet.rebalance_checks = 10;
    let res = run_fleet(&scenario, &setting, machine(), &fleet);
    assert!(
        res.violations.is_empty(),
        "mixed-criticality run must be conformant: {:#?}",
        res.violations
    );
    // The trace carries the criticality vocabulary end to end.
    let mut assigns = 0;
    for e in res.trace.events() {
        if e.kind() == "sched.class.assign" {
            assigns += 1;
        }
    }
    assert_eq!(assigns, scenario.len(), "every job declares its class");
    // The per-class report slices the co-location: one critical tenant,
    // four expendable batch jobs.
    let report = res.class_mean();
    let lc = report
        .class(Criticality::LatencyCritical)
        .expect("critical class present");
    assert_eq!(lc.jobs, 1);
    let batch = report
        .class(Criticality::Batch)
        .expect("batch class present");
    assert_eq!(batch.jobs, 4);
    assert_golden("mixed_criticality.trace.jsonl", &trace_jsonl(&res.trace));
}

#[test]
fn fleet_runs_are_deterministic_and_memoized() {
    let scenario = Scenario::uniform("MMMM", 0);
    let setting = Setting::m3(scenario.len());
    let fleet = fleet3();
    let a = run_fleet(&scenario, &setting, machine(), &fleet);
    let b = run_fleet(&scenario, &setting, machine(), &fleet);
    let a_bytes = serde_json::to_string(&a).unwrap();
    assert_eq!(
        a_bytes,
        serde_json::to_string(&b).unwrap(),
        "same inputs must produce a bit-identical FleetResult"
    );
    let before = fleet_cache_stats();
    let c1 = run_fleet_cached(&scenario, &setting, machine(), &fleet);
    let c2 = run_fleet_cached(&scenario, &setting, machine(), &fleet);
    assert!(Arc::ptr_eq(&c1, &c2), "second lookup must be a cache hit");
    assert!(fleet_cache_stats().since(&before).hits >= 1);
    assert_eq!(
        serde_json::to_string(&*c1).unwrap(),
        a_bytes,
        "the memoized result matches the uncached computation"
    );
}

#[test]
fn chaotic_fleet_run_is_conformant_and_fully_accounted() {
    // A four-node fleet under the full fault vocabulary at once: a node
    // crash mid-horizon, a flapping probe endpoint, a delayed placement
    // and a scheduler restart. The run must still pass the oracle's
    // recovery invariants, and the degradation report must account for
    // every lost job — rescheduled or orphaned, never silently dropped.
    let scenario = Scenario::uniform("MMPC", 60);
    let setting = Setting::m3(scenario.len());
    let mut fleet = FleetConfig::homogeneous(4, 64 * GIB);
    fleet.rebalance_checks = 20;
    let plan = FleetFaultPlan::none()
        .with_node_crash(SimDuration::from_secs(600), 1)
        .with_flap(2, SimDuration::from_secs(300), SimDuration::from_secs(900))
        .with_placement_delay(3, SimDuration::from_secs(120))
        .with_scheduler_restart(SimDuration::from_secs(1_200));
    let res = run_fleet_faulted_with_workers(
        &scenario,
        &setting,
        machine(),
        &fleet,
        &plan,
        worker_threads(),
    );
    assert!(
        res.violations.is_empty(),
        "chaotic run must still be conformant: {:#?}",
        res.violations
    );
    let d = &res.degradation;
    assert_eq!(d.nodes_lost, 1);
    assert_eq!(d.scheduler_restarts, 1);
    assert_eq!(d.placements_delayed, 1);
    assert_eq!(d.faults_unapplied, 0);
    assert_eq!(
        d.jobs_lost,
        d.jobs_rescheduled + d.jobs_orphaned,
        "every lost job is either rescheduled or orphaned: {d:#?}"
    );
    // The trace carries the chaos vocabulary for the replayed oracle.
    let mut node_lost = 0;
    for e in res.trace.events() {
        if e.kind() == "fleet.node_lost" {
            node_lost += 1;
        }
    }
    assert_eq!(node_lost, 1, "the crash must be traced");
    // An independent replay through a fresh oracle agrees.
    let again = FleetOracle::new(fleet.grace.as_millis()).check(&res.trace);
    assert!(again.is_empty(), "independent replay: {again:#?}");
    // Chaos runs are deterministic and serde-stable end to end.
    let repeat = run_fleet_faulted_with_workers(
        &scenario,
        &setting,
        machine(),
        &fleet,
        &plan,
        worker_threads(),
    );
    assert_eq!(
        serde_json::to_string(&res).unwrap(),
        serde_json::to_string(&repeat).unwrap(),
        "chaotic runs must be reproducible byte for byte"
    );
}

#[test]
fn fleet_result_serde_round_trips() {
    let scenario = Scenario::uniform("MM", 120);
    let setting = Setting::m3(scenario.len());
    let res = run_fleet(&scenario, &setting, machine(), &fleet3());
    let bytes = serde_json::to_string(&res).unwrap();
    let back: FleetResult = serde_json::from_str(&bytes).unwrap();
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        bytes,
        "FleetResult must survive a serde round trip byte for byte"
    );
    assert_eq!(back.jobs.len(), res.jobs.len());
    assert_eq!(back.trace.len(), res.trace.len());
}
