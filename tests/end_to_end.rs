//! End-to-end workload tests spanning every crate.
//!
//! These run real (scaled-down where sensible) evaluation workloads through
//! the full stack — kernel, runtimes, framework/caches, monitor, world loop
//! — and assert the paper's qualitative claims rather than point values.

use m3::prelude::*;
use m3::sim::clock::SimDuration;

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::m3_64gb();
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

#[test]
fn mmw_under_m3_all_apps_finish_and_release_memory() {
    let scenario = Scenario::uniform("MMW", 180);
    let out = run_scenario(&scenario, &Setting::m3(3), machine());
    assert!(out.run.all_finished(), "all three jobs must complete");
    for app in &out.run.apps {
        assert!(app.runtime().expect("finished") > SimDuration::from_secs(60));
        assert!(app.peak_rss > 0);
    }
    let stats = out.run.monitor_stats.expect("monitor ran");
    assert!(stats.polls > 100);
    assert_eq!(
        stats.kills, 0,
        "a cooperative workload must never be killed"
    );
}

#[test]
fn m3_beats_default_on_a_fig5_workload() {
    let scenario = Scenario::uniform("CCW", 300);
    let m3 = run_scenario(&scenario, &Setting::m3(3), machine());
    let default = run_scenario(&scenario, &Setting::default_for(3), machine());
    let rep = speedup_report(&m3, &default);
    // CCW contains n-weight, which cannot run under the 16-GB default heap:
    // the paper plots INF for such workloads.
    assert!(
        rep.mean_speedup.is_none(),
        "Default cannot run n-weight (min heap > 16 GB)"
    );
    assert_eq!(default.run.apps[2].failure, Some(JobFailure::Crashed));
    assert!(m3.run.all_finished());
}

#[test]
fn m3_speedup_on_delayed_identical_jobs() {
    // CCC 480: the paper's second-best workload — delayed identical caches
    // leave windows where a static split wastes memory.
    let scenario = Scenario::uniform("CCC", 480);
    let m3 = run_scenario(&scenario, &Setting::m3(3), machine());
    let default = run_scenario(&scenario, &Setting::default_for(3), machine());
    let rep = speedup_report(&m3, &default);
    let speedup = rep.mean_speedup.expect("both finish");
    assert!(
        speedup > 1.5,
        "M3 must clearly beat the default static split, got {speedup:.2}x"
    );
}

#[test]
fn worst_case_overhead_is_bounded() {
    // MMM 0 vs a hand-tuned static equal partition (heap sized so that the
    // 45% storage share covers the working set): M3 must stay within ~15%.
    let scenario = Scenario::uniform("MMM", 0);
    let m3 = run_scenario(&scenario, &Setting::m3(3), machine());
    let tuned = Setting::uniform(
        SettingKind::Oracle,
        AppConfig {
            heap: 20 * GIB,
            spark: m3::framework::SparkConfig {
                memory_fraction: 0.9,
                storage_fraction: 0.9,
                ..Default::default()
            },
            ..AppConfig::stock_default()
        },
        3,
    );
    let baseline = run_scenario(&scenario, &tuned, machine());
    let rep = speedup_report(&m3, &baseline);
    let speedup = rep.mean_speedup.expect("both finish");
    assert!(
        speedup > 0.85,
        "worst-case M3 slow-down must be bounded (paper: 3.77%), got {speedup:.2}x"
    );
}

#[test]
fn memory_profile_stays_below_physical_plus_swap() {
    let scenario = Scenario::uniform("CMW", 180);
    let out = run_scenario(&scenario, &Setting::m3(3), machine());
    let total = out.run.profile.series("total").expect("sampled");
    // 64 GiB node + 16 GiB swap model.
    assert!(total.max().expect("samples") <= 80.0);
    // And M3 should keep usage essentially under the 62-GiB top: the
    // fraction of samples above top must be tiny.
    assert!(
        total.fraction_above(62.5) < 0.05,
        "M3 must keep the system under the top of memory"
    );
}

#[test]
fn thresholds_rise_under_load() {
    let scenario = Scenario::uniform("MMW", 180);
    let out = run_scenario(&scenario, &Setting::m3(3), machine());
    let high = out.run.profile.series("high-threshold").expect("sampled");
    let first = high.samples.first().expect("samples").v;
    let max = high.max().expect("samples");
    assert!(
        max > first + 1.0,
        "the high threshold must rise while the system runs under top (Fig. 6)"
    );
}

#[test]
fn determinism_same_inputs_same_results() {
    let scenario = Scenario::uniform("CWM", 180);
    let a = run_scenario(&scenario, &Setting::m3(3), machine());
    let b = run_scenario(&scenario, &Setting::m3(3), machine());
    for (x, y) in a.run.apps.iter().zip(&b.run.apps) {
        assert_eq!(
            x.finished, y.finished,
            "runs must be bit-for-bit repeatable"
        );
        assert_eq!(x.peak_rss, y.peak_rss);
        assert_eq!(x.gc_pause, y.gc_pause);
    }
    assert_eq!(
        a.run.monitor_stats.map(|s| (s.low_signals, s.high_signals)),
        b.run.monitor_stats.map(|s| (s.low_signals, s.high_signals))
    );
}

#[test]
fn scaled_node_runs_the_memcached_experiment() {
    // The Fig. 9 setting: an 8-GB node, k-means + Memcached.
    use m3::runtime::{AllocatorKind, JvmConfig};
    use m3::workloads::apps::AppBlueprint;
    use m3::workloads::hibench;
    let mut cfg = MachineConfig::scaled(8 * GIB, true);
    cfg.max_time = SimDuration::from_secs(20_000);
    let res = Machine::new(cfg).run(vec![
        (
            "k-means".into(),
            SimDuration::ZERO,
            AppBlueprint::Spark {
                jvm: JvmConfig::m3(1024 * GIB),
                spark: m3::framework::SparkConfig::m3(),
                job: hibench::kmeans_small(),
            },
        ),
        (
            "memcached".into(),
            SimDuration::from_secs(240),
            AppBlueprint::Memcached {
                allocator: AllocatorKind::Jemalloc,
                workload: hibench::memtier_workload(),
                max_bytes: 0,
                m3_mode: true,
            },
        ),
    ]);
    assert!(res.all_finished());
}
