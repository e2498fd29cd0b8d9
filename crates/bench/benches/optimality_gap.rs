//! The paper's open question (§9): how far is M3 from optimal?
//!
//! "Ideally, we could measure the optimal memory distribution for each
//! workload used in our evaluation and compare it with M3. However,
//! searching for the optimal distribution is challenging." In the
//! simulation it is merely expensive: for a two-application workload
//! (Go-Cache + k-means, 120 s apart) this harness brute-forces *every*
//! static partition of the node at 2-GiB granularity — far finer than the
//! Oracle grid — and reports where M3 lands relative to the best and worst
//! static splits.
//!
//! Interpretation: `gap < 1` means M3 beats even the best static split
//! (possible — a static split cannot shift memory over time); `gap` close
//! to 1 means M3 is near-optimal among static distributions.

use m3_bench::{render_table, BenchTimer};
use m3_sim::clock::SimDuration;
use m3_sim::units::GIB;
use m3_workloads::machine::MachineConfig;
use m3_workloads::runner::run_scenario;
use m3_workloads::scenario::Scenario;
use m3_workloads::settings::{AppConfig, Setting, SettingKind};
use serde::Serialize;

#[derive(Serialize)]
struct GapPoint {
    kmeans_heap_gib: u64,
    cache_gib: u64,
    mean_runtime_s: Option<f64>,
}

fn scenario() -> Scenario {
    Scenario::uniform("CM", 120)
}

fn main() {
    let bench = BenchTimer::start("optimality_gap");
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(40_000);
    let scenario = scenario();

    // Every static split: the k-means heap and the cache size sweep in
    // 2-GiB steps with the constraint that their sum stays within the node
    // (leaving 4 GiB of system headroom, mirroring the paper's top).
    let mut points = Vec::new();
    let mut best: Option<(f64, u64, u64)> = None;
    let mut worst: Option<f64> = None;
    for heap_gib in (6..=56).step_by(2) {
        for cache_gib in (4..=56).step_by(2) {
            if heap_gib + cache_gib > 60 {
                continue;
            }
            let setting = Setting {
                kind: SettingKind::Oracle,
                per_app: vec![
                    AppConfig {
                        cache_bytes: cache_gib * GIB,
                        ..AppConfig::stock_default()
                    },
                    AppConfig {
                        heap: heap_gib * GIB,
                        ..AppConfig::stock_default()
                    },
                ],
            };
            let mean = run_scenario(&scenario, &setting, cfg).mean_runtime_secs();
            if let Some(m) = mean {
                if best.is_none_or(|(b, _, _)| m < b) {
                    best = Some((m, heap_gib, cache_gib));
                }
                if worst.is_none_or(|w| m > w) {
                    worst = Some(m);
                }
            }
            points.push(GapPoint {
                kmeans_heap_gib: heap_gib,
                cache_gib,
                mean_runtime_s: mean,
            });
        }
    }
    let (best_s, best_heap, best_cache) = best.expect("at least one split runs");
    let m3 = run_scenario(&scenario, &Setting::m3(2), cfg)
        .mean_runtime_secs()
        .expect("M3 runs");

    println!(
        "Optimality gap on {} ({} static splits swept)\n",
        scenario.name,
        points.len()
    );
    let rows = vec![
        vec![
            "best static split".to_string(),
            format!("heap {best_heap} GiB / cache {best_cache} GiB"),
            format!("{best_s:.0}"),
        ],
        vec![
            "worst static split".to_string(),
            "-".to_string(),
            format!("{:.0}", worst.expect("ran")),
        ],
        vec!["M3".to_string(), "adaptive".to_string(), format!("{m3:.0}")],
    ];
    println!(
        "{}",
        render_table(&["distribution", "parameters", "mean runtime (s)"], &rows)
    );
    println!(
        "gap = M3 / best-static = {:.3}  (<1 means M3 beats every static split; \
         the paper left this measurement as future work)",
        m3 / best_s
    );

    bench.finish(&points);
}
