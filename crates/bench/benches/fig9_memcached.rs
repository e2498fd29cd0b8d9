//! Figure 9: a Spark k-means job plus a Memcached/memtier benchmark on a
//! single 8-GB node.
//!
//! The Memcached server starts four minutes after the Spark job. Under M3
//! the server (ported to jemalloc + slab-eviction policies) and the
//! executor share the node adaptively; the unmodified baseline uses a
//! best-effort static split (4-GB heap / 3-GB cache on `malloc`), as the
//! paper did ("we were unable to comprehensively cover many static settings
//! and used a best effort approach"). Paper result: average application
//! speedup 2.23×.

use m3_bench::{fmt_runtime, fmt_speedup, render_table, BenchTimer};
use m3_framework::SparkConfig;
use m3_runtime::{AllocatorKind, JvmConfig};
use m3_sim::clock::SimDuration;
use m3_sim::units::GIB;
use m3_workloads::apps::AppBlueprint;
use m3_workloads::hibench;
use m3_workloads::machine::{AppResult, Machine, MachineConfig};
use m3_workloads::settings::M3_HEAP_CEILING;
use serde::Serialize;

#[derive(Serialize)]
struct Fig9Row {
    app: String,
    m3_runtime_s: Option<f64>,
    static_runtime_s: Option<f64>,
    speedup: Option<f64>,
}

fn runtime_s(a: &AppResult) -> Option<f64> {
    a.completed_runtime().map(|d| d.as_secs_f64())
}

fn run(m3: bool) -> Vec<AppResult> {
    let mut cfg = MachineConfig::scaled(8 * GIB, m3);
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg.sample_period = None;
    let spark = if m3 {
        AppBlueprint::Spark {
            jvm: JvmConfig::m3(M3_HEAP_CEILING),
            spark: SparkConfig::m3(),
            job: hibench::kmeans_small(),
        }
    } else {
        AppBlueprint::Spark {
            jvm: JvmConfig::stock(4 * GIB),
            spark: SparkConfig::default(),
            job: hibench::kmeans_small(),
        }
    };
    let memcached = AppBlueprint::Memcached {
        allocator: if m3 {
            AllocatorKind::Jemalloc
        } else {
            AllocatorKind::Malloc
        },
        workload: hibench::memtier_workload(),
        max_bytes: 3 * GIB,
        m3_mode: m3,
    };
    Machine::new(cfg)
        .run(vec![
            ("k-means".into(), SimDuration::ZERO, spark),
            ("memcached".into(), SimDuration::from_secs(240), memcached),
        ])
        .apps
}

fn main() {
    let bench = BenchTimer::start("fig9_memcached");
    println!("Figure 9 — k-means + Memcached (memtier) on a single 8-GB node\n");
    let m3 = run(true);
    let stock = run(false);

    let mut speedups = Vec::new();
    let rows: Vec<Vec<String>> = m3
        .iter()
        .zip(&stock)
        .map(|(m, s)| {
            let sp = match (runtime_s(m), runtime_s(s)) {
                (Some(mr), Some(sr)) if mr > 0.0 => Some(sr / mr),
                _ => None,
            };
            speedups.push(sp);
            vec![
                m.name.clone(),
                fmt_runtime(runtime_s(m)),
                fmt_runtime(runtime_s(s)),
                fmt_speedup(sp),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["app", "M3 (s)", "unmodified (s)", "speedup"], &rows)
    );
    let finite: Vec<f64> = speedups.iter().flatten().copied().collect();
    let mean = if finite.len() == speedups.len() && !finite.is_empty() {
        Some(finite.iter().sum::<f64>() / finite.len() as f64)
    } else {
        None
    };
    println!(
        "average application speedup: {}   (paper: 2.23x)",
        fmt_speedup(mean)
    );

    let json: Vec<Fig9Row> = m3
        .iter()
        .zip(&stock)
        .zip(&speedups)
        .map(|((m, s), sp)| Fig9Row {
            app: m.name.clone(),
            m3_runtime_s: runtime_s(m),
            static_runtime_s: runtime_s(s),
            speedup: *sp,
        })
        .collect();
    bench.finish(&json);
}
