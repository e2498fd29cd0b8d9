//! Cross-layer coordination tests: the Fig. 3 event chain.
//!
//! These exercise the signal path monitor → kernel → application stack and
//! assert the paper's coordination invariants: reclamation order (upper
//! layer before lower), memory actually reaching the OS, and the kill
//! escalation.

use m3::framework::{SparkApp, SparkConfig};
use m3::prelude::*;
use m3::runtime::JvmConfig;
use m3::workloads::hibench;

fn loaded_stack() -> (Kernel, DiskModel, SparkApp) {
    let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
    let disk = DiskModel::hdd_7200rpm();
    let pid = os.spawn("spark");
    let mut app = SparkApp::new(
        pid,
        JvmConfig::m3(1024 * GIB),
        SparkConfig::m3(),
        hibench::kmeans(),
    );
    let mut now = SimTime::ZERO;
    while app.cache().len() < 64 {
        app.tick(&mut os, &disk, now, SimDuration::from_millis(100), 1);
        now += SimDuration::from_millis(100);
    }
    (os, disk, app)
}

#[test]
fn monitor_signal_reaches_the_stack_through_the_kernel() {
    let (mut os, _disk, mut app) = loaded_stack();
    let mut monitor = Monitor::new(MonitorConfig::paper_64gb());
    monitor.register(app.pid());
    // Push another process's usage up so the node is red.
    let hog = os.spawn("hog");
    os.grow(hog, 50 * GIB).unwrap();
    let report = monitor.poll(&mut os, SimTime::from_secs(1));
    assert_eq!(report.zone, Zone::Red);
    assert!(report.high_signalled.contains(&app.pid()));
    // The kernel delivered it; the app handles it and memory reaches the OS.
    let rss_before = os.rss(app.pid());
    let sigs = os.take_signals(app.pid());
    assert!(sigs.contains(&Signal::HighMemory));
    let out = app.handle_signal(ThresholdSignal::High, &mut os, SimTime::from_secs(1));
    assert!(out.returned_to_os > 0);
    assert!(os.rss(app.pid()) < rss_before);
    monitor.note_reclamation(app.pid(), out.returned_to_os);
}

#[test]
fn high_signal_reclaims_top_down() {
    // Table 1 / Fig. 3: Spark evicts first, the JVM collects after — so the
    // mixed cycle sees the evicted blocks as garbage and returns them.
    let (mut os, _disk, mut app) = loaded_stack();
    let blocks_before = app.cache().len();
    let mixed_before = app.jvm().stats.mixed_count;
    let out = app.handle_signal(ThresholdSignal::High, &mut os, SimTime::from_secs(1));
    assert!(app.cache().len() < blocks_before, "upper layer evicted");
    assert_eq!(
        app.jvm().stats.mixed_count,
        mixed_before + 1,
        "lower layer collected"
    );
    // The mixed GC must have returned at least the evicted blocks' bytes.
    let evicted_bytes = (blocks_before - app.cache().len()) as u64 * 128 * MIB;
    assert!(
        out.returned_to_os >= evicted_bytes / 2,
        "the collection must reclaim what the eviction freed"
    );
}

#[test]
fn low_signal_is_cheaper_and_reclaims_less_than_high() {
    let (mut os1, _d1, mut app1) = loaded_stack();
    let (mut os2, _d2, mut app2) = loaded_stack();
    let low = app1.handle_signal(ThresholdSignal::Low, &mut os1, SimTime::from_secs(1));
    let high = app2.handle_signal(ThresholdSignal::High, &mut os2, SimTime::from_secs(1));
    assert!(low.duration < high.duration, "speed over quantity on low");
    assert!(
        high.returned_to_os > low.returned_to_os,
        "quantity over speed on high"
    );
}

#[test]
fn kernel_trace_records_the_event_chain() {
    let (mut os, _disk, mut app) = loaded_stack();
    let mut monitor = Monitor::new(MonitorConfig::paper_64gb());
    monitor.register(app.pid());
    let hog = os.spawn("hog");
    os.grow(hog, 55 * GIB).unwrap();
    monitor.poll(&mut os, SimTime::from_secs(1));
    os.take_signals(app.pid());
    app.handle_signal(ThresholdSignal::High, &mut os, SimTime::from_secs(1));
    assert!(os.trace.count("signal.high") >= 1);
    assert!(os.trace.happened_before("proc.spawn", "signal.high"));
}

#[test]
fn kill_escalation_fires_when_apps_do_not_reclaim() {
    // A process that holds memory above top and never reclaims must
    // eventually be killed (§5.1).
    let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
    let mut monitor = Monitor::new(MonitorConfig::paper_64gb());
    let stubborn = os.spawn("stubborn");
    monitor.register(stubborn);
    os.grow(stubborn, 63 * GIB).unwrap();
    let mut killed = Vec::new();
    for s in 0..60 {
        let report = monitor.poll(&mut os, SimTime::from_secs(s));
        killed.extend(report.killed);
        os.take_signals(stubborn); // ignores them all
    }
    assert_eq!(killed, vec![stubborn]);
    assert!(!os.is_alive(stubborn));
    assert_eq!(os.committed(), 0);
}

#[test]
fn uncooperative_app_does_not_break_others() {
    // The paper assumes cooperative apps; robustness extension: one app
    // ignoring signals must not prevent a cooperative app from finishing
    // (the monitor eventually kills the hog).
    use m3::workloads::apps::AppBlueprint;
    let mut cfg = MachineConfig::m3_64gb();
    cfg.max_time = SimDuration::from_secs(20_000);
    // The "hog" is an alternating server that holds a huge live set and
    // only does young GCs on signals (its JVM participates but its live
    // data never shrinks).
    let hog = AppBlueprint::Alternating {
        jvm: JvmConfig::m3(1024 * GIB),
        profile: m3::workloads::alternating::AlternatingProfile {
            baseline: 58 * GIB,
            peak: 58 * GIB,
            phase: SimDuration::from_secs(1_000_000),
            offset: SimDuration::ZERO,
            churn_per_sec: 64 * MIB,
            lifetime: SimDuration::from_secs(1_000_000),
        },
    };
    let worker = AppBlueprint::Spark {
        jvm: JvmConfig::m3(1024 * GIB),
        spark: SparkConfig::m3(),
        job: hibench::kmeans_small(),
    };
    let res = Machine::new(cfg).run(vec![
        ("hog".into(), SimDuration::ZERO, hog),
        ("worker".into(), SimDuration::from_secs(10), worker),
    ]);
    let worker_result = &res.apps[1];
    assert!(
        worker_result.completed().is_some(),
        "the cooperative worker must finish: {worker_result:?}"
    );
}
