//! Serde round-trip tests for the result-pipeline types.
//!
//! The figure harnesses dump profiles and results as JSON under `results/`
//! for re-plotting; these tests pin the shape of that contract.

use m3::prelude::*;
use m3::sim::clock::SimDuration;
use m3::sim::metrics::Profile;

#[test]
fn profile_round_trips_through_json() {
    let scenario = Scenario::uniform("MM", 60);
    let mut cfg = MachineConfig::m3_64gb();
    cfg.max_time = SimDuration::from_secs(20_000);
    let out = run_scenario(&scenario, &Setting::m3(2), cfg);
    let json = serde_json::to_string(&out.run.profile).expect("serialize profile");
    let back: Profile = serde_json::from_str(&json).expect("deserialize profile");
    assert_eq!(back.series.len(), out.run.profile.series.len());
    for (a, b) in back.series.iter().zip(&out.run.profile.series) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.mean(), b.mean());
    }
    assert_eq!(back.marks.len(), out.run.profile.marks.len());
}

#[test]
fn app_results_round_trip_through_json() {
    let scenario = Scenario::uniform("M", 0);
    let out = run_scenario(
        &scenario,
        &Setting::default_for(1),
        MachineConfig::stock_64gb(),
    );
    let json = serde_json::to_string(&out.run.apps).expect("serialize results");
    let back: Vec<m3::workloads::machine::AppResult> =
        serde_json::from_str(&json).expect("deserialize results");
    assert_eq!(back.len(), 1);
    assert_eq!(back[0].finished, out.run.apps[0].finished);
    assert_eq!(back[0].peak_rss, out.run.apps[0].peak_rss);
    assert_eq!(back[0].runtime(), out.run.apps[0].runtime());
}

#[test]
fn scenario_and_settings_round_trip() {
    let s = Scenario::uniform("CMW", 180);
    let json = serde_json::to_string(&s).expect("serialize scenario");
    let back: Scenario = serde_json::from_str(&json).expect("deserialize scenario");
    assert_eq!(back, s);

    let setting = Setting::default_for(3);
    let json = serde_json::to_string(&setting).expect("serialize setting");
    let back: Setting = serde_json::from_str(&json).expect("deserialize setting");
    assert_eq!(back, setting);
}

#[test]
fn monitor_config_is_a_stable_contract() {
    let cfg = MonitorConfig::paper_64gb();
    let json = serde_json::to_string(&cfg).expect("serialize config");
    for key in [
        "top",
        "initial_low",
        "initial_high",
        "step_fraction",
        "adaptive",
        "sort_order",
    ] {
        assert!(json.contains(key), "config JSON must expose {key}");
    }
    let back: MonitorConfig = serde_json::from_str(&json).expect("deserialize config");
    assert_eq!(back.top, cfg.top);
    assert_eq!(back.step_fraction, cfg.step_fraction);
}

/// The options census (DESIGN.md §18): a config field exists only when some
/// caller needs a second value. Each struct's serialized default has one map
/// entry per settable field, so adding a knob fails here until the §18
/// table is updated with the caller that sets it.
#[test]
fn settable_config_fields_match_the_census() {
    use m3::cache::KvWorkload;
    use m3::framework::SparkConfig;
    use m3::runtime::{GoConfig, JvmConfig};
    use serde::{Content, Serialize};

    fn fields(value: &impl Serialize) -> usize {
        match value.serialize() {
            Content::Map(entries) => entries.len(),
            other => panic!("a config struct serializes to a map, got {other:?}"),
        }
    }
    let census = [
        ("FleetConfig", fields(&FleetConfig::paper()), 7),
        ("MonitorConfig", fields(&MonitorConfig::paper_64gb()), 8),
        ("MachineConfig", fields(&MachineConfig::m3_64gb()), 9),
        (
            "KernelConfig",
            fields(&KernelConfig::with_total(64 * GIB)),
            1,
        ),
        ("JvmConfig", fields(&JvmConfig::stock(8 * GIB)), 4),
        ("GoConfig", fields(&GoConfig::stock(100)), 2),
        ("SparkConfig", fields(&SparkConfig::default()), 5),
        ("KvWorkload", fields(&KvWorkload::paper_gocache()), 3),
        (
            "TraceWorkload",
            fields(&TraceWorkload::production(TrafficPattern::Burst)),
            5,
        ),
    ];
    for (name, got, want) in census {
        assert_eq!(
            got, want,
            "{name} has {got} settable fields, DESIGN §18 says {want}"
        );
    }
    let total: usize = census.iter().map(|&(_, got, _)| got).sum();
    assert_eq!(total, 44, "DESIGN §18 counts 44 settable fields");
}
