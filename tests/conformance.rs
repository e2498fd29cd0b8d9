//! Trace-oracle conformance suite.
//!
//! Every harness run records a typed end-to-end trace and replays it through
//! the conformance oracle (`m3-oracle`), which checks the paper's protocol
//! invariants: threshold adjustment steps and ordering (§4.1), Algorithm 1
//! victim selection, allocation-rate gating (§5.2), Table 1 eviction
//! magnitudes, and top-down reclamation ordering (§4.2). These tests assert
//! that real runs are conformant, that golden traces stay byte-identical,
//! that the fast and slow world loops trace identically, and that a
//! deliberately broken policy is caught.
//!
//! Golden snapshots live in `tests/golden/`; regenerate with
//! `M3_UPDATE_GOLDEN=1 cargo test --test conformance`. On a mismatch the
//! offending trace is written under `target/conformance-artifacts/` so CI
//! can upload it.

mod common;

use std::fs;

use common::{assert_golden, golden_dir, read_golden, trace_jsonl, write_artifact};
use m3::prelude::*;
use m3::sim::clock::SimDuration;
use m3::sim::trace::{TraceEvent, TraceLog};
use m3::workloads::apps::AppBlueprint;
use m3::workloads::hibench;

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::m3_64gb();
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

/// Asserts a run produced a non-empty trace and zero oracle violations,
/// dumping the trace as a CI artifact otherwise.
fn assert_conformant(label: &str, run: &RunResult) {
    assert!(
        !run.trace.is_empty(),
        "{label}: capture_trace is on, the trace must not be empty"
    );
    if !run.violations.is_empty() {
        let dump = write_artifact(&format!("{label}.trace.jsonl"), &trace_jsonl(&run.trace));
        panic!(
            "{label}: {} oracle violations (trace written to {}): {:#?}",
            run.violations.len(),
            dump.display(),
            run.violations
        );
    }
}

#[test]
fn m3_scenario_run_is_conformant() {
    let scenario = Scenario::uniform("MMW", 180);
    let out = run_scenario(&scenario, &Setting::m3(3), machine());
    assert!(out.run.all_finished());
    assert_conformant("MMW-180-m3", &out.run);
    // The run must have exercised the monitor protocol, not vacuously passed.
    assert!(out.run.trace.count("monitor.poll") > 100);
    assert!(out.run.trace.count("threshold.adjust") > 0);
}

#[test]
fn cache_scenario_run_is_conformant() {
    // CCC exercises the slab caches: Table 1 eviction magnitudes and the
    // allocation-rate gate are all on the hot path here.
    let scenario = Scenario::uniform("CCC", 480);
    let out = run_scenario(&scenario, &Setting::m3(3), machine());
    assert!(out.run.all_finished());
    assert_conformant("CCC-480-m3", &out.run);
}

#[test]
fn stock_run_is_conformant() {
    // No monitor: the oracle still checks the monitor-independent
    // invariants (eviction magnitudes, reclamation ordering, gating).
    let scenario = Scenario::uniform("MMW", 180);
    let mut cfg = MachineConfig::stock_64gb();
    cfg.max_time = SimDuration::from_secs(40_000);
    let out = run_scenario(&scenario, &Setting::default_for(3), cfg);
    assert_conformant("MMW-180-stock", &out.run);
}

#[test]
fn disabled_capture_records_nothing() {
    let scenario = Scenario::uniform("MMW", 180);
    let mut cfg = machine();
    cfg.capture_trace = false;
    let out = run_scenario(&scenario, &Setting::m3(3), cfg);
    assert!(out.run.trace.is_empty());
    assert!(out.run.violations.is_empty());
}

#[test]
fn golden_fig1_solo_kmeans_trace() {
    // The Fig. 1 elasticity scenario, scaled down: one k-means on a stock
    // node with memory never the constraint. The small heap forces Spark MM
    // capacity evictions, so the golden covers block-cache events too.
    let mut cfg = MachineConfig::stock_64gb();
    cfg.phys_total = 192 * GIB;
    cfg.sample_period = None;
    let machine = Machine::new(cfg);
    let res = machine.run(vec![(
        "k-means".into(),
        SimDuration::ZERO,
        AppBlueprint::Spark {
            jvm: m3::runtime::JvmConfig::stock(4 * GIB),
            spark: m3::framework::SparkConfig::default(),
            job: hibench::kmeans_small(),
        },
    )]);
    assert!(res.all_finished());
    assert_conformant("golden-fig1", &res);
    assert_golden("fig1_solo_kmeans.trace.jsonl", &trace_jsonl(&res.trace));
}

#[test]
fn golden_fig2_alternating_trace() {
    // The Fig. 2 alternating-peaks scenario, scaled down: two M3 JVMs whose
    // load peaks alternate, under the scaled monitor.
    use m3::workloads::alternating::AlternatingProfile;
    use m3::workloads::settings::M3_HEAP_CEILING;
    let phase = SimDuration::from_secs(30);
    let profile = |offset_phases: u64| AlternatingProfile {
        baseline: 2 * GIB,
        peak: 13 * GIB,
        phase,
        offset: phase * offset_phases,
        churn_per_sec: 64 * 1024 * 1024,
        lifetime: SimDuration::from_secs(150),
    };
    let mut cfg = MachineConfig::scaled(64 * GIB, true);
    cfg.max_time = SimDuration::from_secs(300);
    let jvm = m3::runtime::JvmConfig::m3(M3_HEAP_CEILING);
    let machine = Machine::new(cfg);
    let res = machine.run(vec![
        (
            "cassandra".into(),
            SimDuration::ZERO,
            AppBlueprint::Alternating {
                jvm,
                profile: profile(0),
            },
        ),
        (
            "elasticsearch".into(),
            SimDuration::ZERO,
            AppBlueprint::Alternating {
                jvm,
                profile: profile(1),
            },
        ),
    ]);
    assert_conformant("golden-fig2", &res);
    assert_golden("fig2_alternating.trace.jsonl", &trace_jsonl(&res.trace));
}

#[test]
fn fast_and_slow_world_loops_trace_identically() {
    // The fast path may only jump the clock when it cannot change observable
    // behaviour; a delayed start leaves an idle window where it engages.
    let run = |fast: bool| {
        let mut cfg = machine();
        cfg.fast_path = fast;
        let machine = Machine::new(cfg);
        machine.run(vec![(
            "k-means".into(),
            SimDuration::from_secs(90),
            AppBlueprint::Spark {
                jvm: m3::runtime::JvmConfig::m3(m3::workloads::settings::M3_HEAP_CEILING),
                spark: m3::framework::SparkConfig::m3(),
                job: hibench::kmeans_small(),
            },
        )])
    };
    let fast = run(true);
    let slow = run(false);
    assert!(fast.all_finished() && slow.all_finished());
    assert_conformant("fastpath", &fast);
    let fast_trace = trace_jsonl(&fast.trace);
    let slow_trace = trace_jsonl(&slow.trace);
    assert!(
        fast_trace == slow_trace,
        "fast and slow world loops must produce byte-identical traces \
         ({} vs {} events)",
        fast.trace.len(),
        slow.trace.len()
    );
}

/// Serializes only the reclamation-relevant events (handler windows, work
/// packets, evictions, collections, madvise), so the packet golden stays
/// focused and reviewable instead of drowning in monitor polls.
fn reclaim_trace_jsonl(trace: &TraceLog) -> String {
    const PREFIXES: [&str; 5] = [
        "handler.",
        "reclaim.packet.",
        "evict.",
        "gc.",
        "mem.madvise",
    ];
    let mut out = String::new();
    for e in trace.events() {
        if PREFIXES.iter().any(|p| e.kind().starts_with(p)) {
            out.push_str(&serde_json::to_string(e).expect("trace event serializes"));
            out.push('\n');
        }
    }
    out
}

#[test]
fn golden_packet_reclaim_trace() {
    // The canonical two-runtime co-location: a Go cache and a Spark JVM on
    // one M3 node, so the snapshot covers both runtimes' packet graphs
    // (evict -> gc -> madvise) plus the framework block cache.
    let scenario = Scenario::uniform("CM", 180);
    let out = run_scenario(&scenario, &Setting::m3(2), machine());
    assert!(out.run.all_finished());
    assert_conformant("golden-packet-reclaim", &out.run);
    // Reclamation must actually have flowed through the packet scheduler,
    // and every enqueued packet must have run.
    let enqueued = out.run.trace.count("reclaim.packet.enqueue");
    assert!(enqueued > 0, "the run must exercise packetized reclamation");
    assert_eq!(enqueued, out.run.trace.count("reclaim.packet.finish"));
    assert_golden(
        "packet_reclaim.trace.jsonl",
        &reclaim_trace_jsonl(&out.run.trace),
    );
}

#[test]
fn golden_packet_reclaim_replays_conformant() {
    // The committed snapshot itself — not just the run that regenerates it —
    // must satisfy the packet invariants: parse it back off disk and replay
    // it through the paper oracle.
    let text = read_golden("packet_reclaim.trace.jsonl");
    let mut log = TraceLog::new();
    for (i, line) in text.lines().enumerate() {
        let e: TraceEvent = serde_json::from_str(line)
            .unwrap_or_else(|err| panic!("golden line {} does not parse: {err:?}", i + 1));
        log.record(e.t, e.pid, e.data);
    }
    assert!(log.count("reclaim.packet.enqueue") > 0);
    let violations = Oracle::paper(None).check(&log);
    assert!(
        violations.is_empty(),
        "replaying the packet golden must be violation-free, got {violations:#?}"
    );
}

#[test]
fn every_golden_line_round_trips() {
    // Every committed golden line must parse back into a typed event and
    // re-serialize to the identical bytes: the trace schema reads what it
    // writes, for every kind the goldens contain.
    let mut names: Vec<String> = fs::read_dir(golden_dir())
        .expect("read golden dir")
        .map(|entry| entry.expect("golden dir entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.ends_with(".trace.jsonl"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 5, "golden snapshots: {names:?}");
    for name in &names {
        let text = read_golden(name);
        assert!(!text.is_empty(), "{name} is empty");
        for (i, line) in text.lines().enumerate() {
            let e: TraceEvent = serde_json::from_str(line)
                .unwrap_or_else(|err| panic!("{name}:{} does not parse: {err:?}", i + 1));
            let back = serde_json::to_string(&e).expect("trace event serializes");
            assert_eq!(back, line, "{name}:{} does not re-serialize", i + 1);
        }
    }
}

#[test]
fn packet_bucket_order_ablation_is_caught() {
    // Draining the packet graph in reverse bucket order (madvise before GC
    // before eviction) while ignoring dependency edges must be flagged by
    // the reclaim.packet.* invariants — proof the suite can catch a
    // misordered scheduler rather than just blessing the correct one.
    let scenario = Scenario::uniform("CM", 180);
    let mut cfg = machine();
    cfg.packet_ablation = true;
    let out = run_scenario(&scenario, &Setting::m3(2), cfg);
    assert!(out.run.trace.count("reclaim.packet.enqueue") > 0);
    assert!(
        out.run
            .violations
            .iter()
            .any(|v| v.invariant == "reclaim.packet.bucket"),
        "a packet must be seen starting before its bucket opened, got {:#?}",
        out.run.violations
    );
    assert!(
        out.run
            .violations
            .iter()
            .any(|v| v.invariant == "reclaim.packet.deps"),
        "a packet must be seen starting before its dependencies finished, got {:#?}",
        out.run.violations
    );
}

#[test]
fn broken_threshold_policy_is_caught() {
    // A monitor with 5% threshold steps violates the paper's 2%-of-top
    // bound. Its own run is self-consistent (the machine checks the trace
    // against its own config), but replaying the trace against the paper's
    // configuration must flag the oversized moves.
    let scenario = Scenario::uniform("MMW", 180);
    let mut cfg = machine();
    let mut mon = MonitorConfig::paper_64gb();
    mon.step_fraction = 0.05;
    cfg.monitor = Some(mon);
    let out = run_scenario(&scenario, &Setting::m3(3), cfg);
    assert!(
        out.run.violations.is_empty(),
        "the run is consistent with its own (non-paper) config"
    );
    assert!(out.run.trace.count("threshold.adjust") > 0);
    let violations = Oracle::paper(Some(MonitorConfig::paper_64gb())).check(&out.run.trace);
    assert!(
        violations.iter().any(|v| v.invariant == "threshold.step"),
        "a 5% step policy must be flagged against the paper's 2% bound, got {violations:#?}"
    );
}
