//! Quickstart: run one workload under M3 and under a static baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a simulated 64-GB node, schedules the paper's CMW 180 workload
//! (Go-Cache, k-means, n-weight, 180 s apart), runs it once under M3 and
//! once under the Default static configuration, and prints per-application
//! runtimes and the speedup.

use m3::prelude::*;

fn main() {
    // The paper's evaluation node: 64 GB, monitor at top = 62 GB,
    // thresholds 50/55 GB, 1-second polls (§6).
    let machine_cfg = MachineConfig::m3_64gb();

    // CMW 180: a Go-Cache benchmark, then k-means, then n-weight.
    let scenario = Scenario::uniform("CMW", 180);

    println!("running {} under M3 ...", scenario.name);
    let m3 = run_scenario(&scenario, &Setting::m3(scenario.len()), machine_cfg);

    println!(
        "running {} under the Default static setting ...",
        scenario.name
    );
    let default = run_scenario(
        &scenario,
        &Setting::default_for(scenario.len()),
        machine_cfg,
    );

    println!("\n{:<12} {:>10} {:>12}", "app", "M3 (s)", "Default (s)");
    for (m, d) in m3.run.apps.iter().zip(&default.run.apps) {
        let fmt = |a: &m3::workloads::machine::AppResult| {
            if a.failure.is_some() {
                "FAIL".to_string()
            } else {
                format!(
                    "{:.0}",
                    a.runtime().map(|r| r.as_secs_f64()).unwrap_or(f64::NAN)
                )
            }
        };
        println!("{:<12} {:>10} {:>12}", m.name, fmt(m), fmt(d));
    }

    let report = speedup_report(&m3, &default);
    match report.mean_speedup {
        Some(s) => println!("\nmean speedup of M3 over Default: {s:.2}x"),
        None => println!("\nDefault could not run this workload at all (INF speedup)"),
    }

    if let Some(stats) = m3.run.monitor_stats {
        println!(
            "monitor: {} polls, {} low signals, {} high signals, {} kills",
            stats.polls, stats.low_signals, stats.high_signals, stats.kills
        );
    }
}
