//! Fleet-scale experiment: the pressure-aware scheduler at 8 → 10,000
//! nodes.
//!
//! Runs the wave-shaped fleet-scale workload (ten waves of `nodes` jobs,
//! so `10 * nodes` jobs per point — 100,000 at the top) through the
//! pressure-aware scheduler at growing fleet sizes, on a quarter-small
//! heterogeneous fleet (every fourth node is 32 GiB). Reports per-point
//! wall clock, scheduler activity, and the node-run cache's hit rate —
//! the content-addressed sharing that makes a 10k-node fleet simulate
//! only its few distinct node schedules. A replicated-worker point
//! (`run_cluster`) and a memoized repeat of the largest point ride along
//! as contrast and regression checks.
//!
//! Knobs: `M3_FLEET_SCALE_MAX_NODES` caps the curve (CI smoke runs 512);
//! `M3_FLEET_SCALE_BUDGET_S` asserts a per-point wall-clock budget;
//! `M3_JOBS` sets the worker count recorded in the report.

use m3_bench::{env, fleet_machine, fmt_runtime, quarter_small_fleet, render_table, BenchTimer};
use m3_workloads::cluster::{run_cluster, ClusterMean, ClusterResult, JobFailure};
use m3_workloads::fleet::{fleet_cache_stats, run_fleet_cached, FleetConfig};
use m3_workloads::parallel::{cache_stats, CacheStats};
use m3_workloads::scenario::{fleet_canonical, fleet_scale_scenario, Scenario};
use m3_workloads::settings::Setting;
use m3_workloads::worker_threads;
use serde::Serialize;

#[derive(Serialize)]
struct FleetRow {
    nodes: usize,
    jobs: usize,
    scheduler: bool,
    wall_clock_s: f64,
    workers: usize,
    mean_runtime_s: Option<f64>,
    completed_apps: usize,
    failed_apps: usize,
    deferrals: u64,
    migrations: u64,
    gave_up: usize,
    violations: usize,
    /// Node-run cache activity of this point: misses = distinct node
    /// simulations actually run, hit rate = the content-addressed sharing
    /// across the fleet's nodes and probe times.
    node_cache_hits: u64,
    node_cache_misses: u64,
    node_cache_hit_rate: f64,
}

impl FleetRow {
    /// A row with no scheduler activity yet, from one point's cluster
    /// result, wall clock and node-cache activity.
    fn new(
        scenario: &Scenario,
        nodes: usize,
        scheduler: bool,
        cluster: &ClusterResult,
        wall_clock_s: f64,
        cache: CacheStats,
    ) -> Self {
        let ClusterMean {
            mean_secs,
            completed_apps,
            failed_apps,
            ..
        } = cluster.mean_runtime_secs();
        FleetRow {
            nodes,
            jobs: scenario.len(),
            scheduler,
            wall_clock_s,
            workers: worker_threads(),
            mean_runtime_s: mean_secs,
            completed_apps,
            failed_apps,
            deferrals: 0,
            migrations: 0,
            gave_up: 0,
            violations: 0,
            node_cache_hits: cache.hits,
            node_cache_misses: cache.misses,
            node_cache_hit_rate: cache.hit_rate(),
        }
    }
}

/// Runs `run`, returning its result with its wall clock and the node-run
/// cache activity it caused.
fn timed<T>(run: impl FnOnce() -> T) -> (T, f64, CacheStats) {
    let cache_before = cache_stats();
    let started = std::time::Instant::now();
    let out = run();
    let wall_clock_s = started.elapsed().as_secs_f64();
    (out, wall_clock_s, cache_stats().since(&cache_before))
}

fn run_row(scenario: &Scenario, fleet: &FleetConfig) -> FleetRow {
    let setting = Setting::m3(scenario.len());
    let (res, wall_clock_s, cache) =
        timed(|| run_fleet_cached(scenario, &setting, fleet_machine(), fleet));
    let nodes = fleet.nodes.len();
    FleetRow {
        deferrals: res.jobs.iter().map(|j| j.deferrals as u64).sum(),
        migrations: res.jobs.iter().map(|j| j.migrations as u64).sum(),
        gave_up: res
            .jobs
            .iter()
            .filter(|j| j.failure == Some(JobFailure::GaveUp))
            .count(),
        violations: res.violations.len(),
        ..FleetRow::new(scenario, nodes, true, &res.cluster, wall_clock_s, cache)
    }
}

/// The replicated-worker contrast: every node runs the whole schedule
/// through `run_cluster`, with no placement decisions at all.
fn replicated_row(scenario: &Scenario, nodes: usize) -> FleetRow {
    let setting = Setting::m3(scenario.len());
    let (cluster, wall_clock_s, cache) =
        timed(|| run_cluster(scenario, &setting, fleet_machine(), nodes));
    FleetRow::new(scenario, nodes, false, &cluster, wall_clock_s, cache)
}

fn main() {
    let bench = BenchTimer::start("fleet_scale");
    let max_nodes = env::<usize>("M3_FLEET_SCALE_MAX_NODES").unwrap_or(10_000);
    let budget_s = env::<f64>("M3_FLEET_SCALE_BUDGET_S");
    println!("Fleet scheduler scaling — wave workload, 10 jobs/node\n");

    let mut rows = Vec::new();
    for nodes in [8usize, 64, 512, 4096, 10_000] {
        if nodes > max_nodes {
            println!("[skipping {nodes} nodes: M3_FLEET_SCALE_MAX_NODES={max_nodes}]");
            continue;
        }
        let scenario = fleet_scale_scenario(nodes);
        rows.push(run_row(&scenario, &quarter_small_fleet(nodes)));
    }
    // Contrast: the replicated-worker setup on the canonical mix.
    rows.push(replicated_row(&fleet_canonical(), 8));
    // Re-running the largest scheduled point must be a pure cache hit.
    let largest = rows
        .iter()
        .filter(|r| r.scheduler)
        .map(|r| r.nodes)
        .max()
        .expect("at least one scheduled point");
    let before = fleet_cache_stats();
    rows.push(run_row(
        &fleet_scale_scenario(largest),
        &quarter_small_fleet(largest),
    ));
    let delta = fleet_cache_stats().since(&before);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                r.jobs.to_string(),
                if r.scheduler { "fleet" } else { "replicated" }.into(),
                format!("{:.2}", r.wall_clock_s),
                fmt_runtime(r.mean_runtime_s),
                format!("{}/{}", r.completed_apps, r.completed_apps + r.failed_apps),
                r.deferrals.to_string(),
                r.migrations.to_string(),
                r.gave_up.to_string(),
                r.violations.to_string(),
                format!("{:.0}%", r.node_cache_hit_rate * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "nodes",
                "jobs",
                "mode",
                "wall (s)",
                "mean runtime (s)",
                "completed",
                "deferrals",
                "migrations",
                "gave up",
                "violations",
                "sim cache",
            ],
            &table
        )
    );
    println!(
        "fleet memoization on repeat: {} hit(s), {} miss(es)",
        delta.hits, delta.misses
    );
    assert_eq!(delta.misses, 0, "repeated fleet run must be memoized");
    assert!(
        rows.iter().all(|r| r.violations == 0),
        "conformant fleet runs must pass the cluster oracle at every scale"
    );
    if let Some(budget) = budget_s {
        for r in &rows {
            assert!(
                r.wall_clock_s <= budget,
                "{}-node point took {:.2}s, over the {budget}s budget",
                r.nodes,
                r.wall_clock_s
            );
        }
    }
    bench.finish(&rows);
}
