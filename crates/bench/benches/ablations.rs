//! Ablations of M3's design choices (DESIGN.md §5).
//!
//! Each ablation flips one design decision and reruns a representative
//! workload under M3, reporting the mean per-app runtime:
//!
//! 1. **Algorithm 1 sort orders** — newest-first (the paper's default) vs
//!    oldest-first, largest-RSS and largest-expected-reclamation.
//! 2. **Selective vs signal-all notification** — disable Algorithm 1 and
//!    disturb every registered process on each red poll.
//! 3. **Threshold step size** — 0.5 %, 2 % (paper) and 8 % of top.
//! 4. **Reclamation order** — top-down (Spark evicts, then the JVM
//!    collects) vs the uncoordinated bottom-up order of §2.2 Problem 3.
//! 5. **Low-threshold early warning** — with and without the low signal
//!    (thresholds collapse to a single high threshold).

use m3_bench::{render_table, BenchTimer};
use m3_core::MonitorConfig;
use m3_core::SortOrder;
use m3_framework::SparkConfig;
use m3_runtime::JvmConfig;
use m3_sim::clock::SimDuration;
use m3_workloads::apps::AppBlueprint;
use m3_workloads::hibench;
use m3_workloads::machine::MachineConfig;
use m3_workloads::runner::run_scenario;
use m3_workloads::scenario::{AppKind, Scenario};
use m3_workloads::settings::{blueprint_for, AppConfig, Setting, M3_HEAP_CEILING};
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    ablation: String,
    variant: String,
    mean_runtime_s: Option<f64>,
}

fn machine(monitor: MonitorConfig) -> MachineConfig {
    let mut cfg = MachineConfig::stock_64gb();
    cfg.monitor = Some(monitor);
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

fn scenario() -> Scenario {
    Scenario::uniform("CMW", 180)
}

fn run_with_monitor(monitor: MonitorConfig) -> Option<f64> {
    let s = scenario();
    run_scenario(&s, &Setting::m3(s.len()), machine(monitor)).mean_runtime_secs()
}

/// Runs CMW with the M3 Spark blueprints overridden to the uncoordinated
/// bottom-up reclamation order.
fn run_bottom_up() -> Option<f64> {
    let s = scenario();
    let cfg = machine(MonitorConfig::paper_64gb());
    let machine = m3_workloads::machine::Machine::new(cfg);
    let schedule: Vec<_> = s
        .apps
        .iter()
        .enumerate()
        .map(|(i, &(kind, start))| {
            let mut bp = blueprint_for(kind, &AppConfig::stock_default(), true);
            if let AppBlueprint::Spark { spark, .. } = &mut bp {
                *spark = SparkConfig {
                    gc_before_evict: true,
                    ..SparkConfig::m3()
                };
            }
            (m3_workloads::app_name(kind.code(), i), start, bp)
        })
        .collect();
    let res = machine.run(schedule);
    let rts: Vec<Option<f64>> = res
        .apps
        .iter()
        .map(|a| a.completed_runtime().map(|d| d.as_secs_f64()))
        .collect();
    if rts.iter().any(Option::is_none) {
        None
    } else {
        Some(rts.iter().flatten().sum::<f64>() / rts.len() as f64)
    }
}

fn main() {
    let bench = BenchTimer::start("ablations");
    println!(
        "Ablations on {} under M3 (mean per-app runtime, lower is better)\n",
        scenario().name
    );
    let mut rows: Vec<AblationRow> = Vec::new();

    // 1. Sort orders.
    for (label, order) in [
        ("newest-first (paper)", SortOrder::NewestFirst),
        ("oldest-first", SortOrder::OldestFirst),
        ("largest-rss", SortOrder::LargestRss),
        (
            "largest-expected-reclaim",
            SortOrder::LargestExpectedReclaim,
        ),
    ] {
        let mut m = MonitorConfig::paper_64gb();
        m.sort_order = order;
        rows.push(AblationRow {
            ablation: "sort order".into(),
            variant: label.into(),
            mean_runtime_s: run_with_monitor(m),
        });
    }

    // 2. Selective vs signal-all.
    let mut m = MonitorConfig::paper_64gb();
    m.signal_all = true;
    rows.push(AblationRow {
        ablation: "notification".into(),
        variant: "signal-all (no Algorithm 1)".into(),
        mean_runtime_s: run_with_monitor(m),
    });

    // 3. Threshold step sizes.
    for step in [0.005, 0.02, 0.08] {
        let mut m = MonitorConfig::paper_64gb();
        m.step_fraction = step;
        rows.push(AblationRow {
            ablation: "threshold step".into(),
            variant: format!("{:.1}% of top", step * 100.0),
            mean_runtime_s: run_with_monitor(m),
        });
    }

    // 4. Reclamation order.
    rows.push(AblationRow {
        ablation: "reclamation order".into(),
        variant: "top-down (paper)".into(),
        mean_runtime_s: run_with_monitor(MonitorConfig::paper_64gb()),
    });
    rows.push(AblationRow {
        ablation: "reclamation order".into(),
        variant: "bottom-up (GC before eviction)".into(),
        mean_runtime_s: run_bottom_up(),
    });

    // 5. Allow-rate recovery curves (footnote 4): the paper kept linear.
    for (label, curve) in [
        ("linear (paper)", m3_core::RateCurve::Linear),
        ("exponential", m3_core::RateCurve::Exponential),
        ("step", m3_core::RateCurve::Step),
    ] {
        let s = scenario();
        let cfg = machine(MonitorConfig::paper_64gb());
        let machine = m3_workloads::machine::Machine::new(cfg);
        let schedule: Vec<_> = s
            .apps
            .iter()
            .enumerate()
            .map(|(i, &(kind, start))| {
                let mut bp = blueprint_for(kind, &AppConfig::stock_default(), true);
                if let AppBlueprint::Spark { spark, .. } = &mut bp {
                    spark.rate_curve = curve;
                }
                (m3_workloads::app_name(kind.code(), i), start, bp)
            })
            .collect();
        let res = machine.run(schedule);
        let rts: Vec<Option<f64>> = res
            .apps
            .iter()
            .map(|a| a.completed_runtime().map(|d| d.as_secs_f64()))
            .collect();
        let mean = if rts.iter().any(Option::is_none) {
            None
        } else {
            Some(rts.iter().flatten().sum::<f64>() / rts.len() as f64)
        };
        rows.push(AblationRow {
            ablation: "rate curve".into(),
            variant: label.into(),
            mean_runtime_s: mean,
        });
    }

    // 6. No early warning: low threshold pinned at the high threshold.
    let mut m = MonitorConfig::paper_64gb();
    m.initial_low = m.initial_high;
    rows.push(AblationRow {
        ablation: "early warning".into(),
        variant: "low threshold disabled".into(),
        mean_runtime_s: run_with_monitor(m),
    });

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.ablation.clone(),
                r.variant.clone(),
                r.mean_runtime_s
                    .map_or("FAIL".into(), |v| format!("{v:.0}")),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["ablation", "variant", "mean runtime (s)"], &table)
    );
    bench.finish(&rows);

    // Keep the unused-import lints honest (these are exercised above via
    // blueprint construction).
    let _ = (
        JvmConfig::m3(M3_HEAP_CEILING),
        hibench::kmeans(),
        AppKind::KMeans,
    );
}
