//! `fleet-waves`: the wave-shaped fleet-scale workload on a quarter-small
//! fleet, with a few seed-drawn node crashes, through
//! `run_fleet_faulted_with_workers`.
//!
//! Every job is one op. The run-memo cache is process-wide and never
//! cleared, so only the first fleet run in a process is cold: the workload
//! makes that one timed cold run, then identical warm runs until the
//! window closes, each of which must simulate no node again. A warm run's
//! time is the scheduler's own cost (placement, probes, index and memo
//! lookups); cold minus the median warm run is the node simulations'.

use std::time::Instant;

use m3::oracle::FleetOracle;
use m3::prelude::{
    run_fleet_faulted_with_workers, AppKind, FleetConfig, FleetFaultPlan, FleetResult,
    MachineConfig, NodeSpec, Scenario, Setting, SimDuration, GIB,
};
use m3::workloads::hibench::gocache_workload;
use m3::workloads::parallel::cache_stats;
use m3::workloads::scenario::fleet_scale_scenario;

use crate::report::{correct_from_line, count_from_line, metric_from_line};
use crate::stats::{mean, median, tail};
use crate::{
    derive, median_setup, ms_since, peak_rss_mib, zero_layers, Report, Size, Spec, Tracer,
    END_TO_END,
};

/// Samples per invocation. Only a fresh process runs the fleet cold, so
/// the runner takes each sample in a child process of its own and merges
/// them with [`merge_samples`].
pub const SAMPLES: usize = 5;

/// The simulated metrics, which every sample of one seed must agree on.
const SIM_METRICS: [&str; 2] = ["sim_job_runtime_s", "cache_serve_s"];

/// Seed domain of this workload's inputs.
const DOMAIN: u64 = 0x666c_6565_742d_7761; // "fleet-wa"

/// How far into a wave a crash lands, seconds: jobs run about 390 s, so a
/// crash in this window hits live residents and forces rescheduling.
const CRASH_WINDOW_S: (u64, u64) = (30, 360);

/// Fleet size and crash count.
pub fn size_of(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (8192, 4),
        Size::Tiny => (64, 1),
    }
}

/// The fleet benches' node: profile sampling and the node trace off.
fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.capture_trace = false;
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

/// `n` nodes where every fourth is a 32-GiB worker, as in `fleet_scale`.
fn quarter_small_fleet(n: usize) -> FleetConfig {
    let mut fleet = FleetConfig::homogeneous(n, 64 * GIB);
    for node in fleet.nodes.iter_mut().skip(3).step_by(4) {
        *node = NodeSpec {
            phys_total: 32 * GIB,
        };
    }
    fleet
}

/// The distinct arrival instants of a scenario, in order: the starts of
/// its waves.
pub fn wave_starts(scenario: &Scenario) -> Vec<SimDuration> {
    let mut starts: Vec<SimDuration> = scenario.apps.iter().map(|a| a.1).collect();
    starts.sort_unstable();
    starts.dedup();
    starts
}

/// `crashes` distinct seed-drawn victims, crash `i` at a seed-drawn instant
/// of wave `2i + 1` (counted modulo the waves). A crash shifts the
/// placements of every later wave, so its wave sets how many node
/// schedules it adds; fixing the waves keeps that work alike across seeds,
/// while victims and instants vary.
pub fn crash_plan(
    seed: u64,
    waves: &[SimDuration],
    nodes: usize,
    crashes: usize,
) -> FleetFaultPlan {
    let mut victims = Vec::new();
    let mut draw = 0u64;
    while victims.len() < crashes.min(nodes) {
        let v = (derive(seed, DOMAIN, draw) % nodes as u64) as usize;
        draw += 1;
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    victims.sort_unstable();
    let mut plan = FleetFaultPlan::none();
    for (i, node) in victims.into_iter().enumerate() {
        let salt = derive(seed, DOMAIN ^ 0xC8A5, i as u64);
        let wave = waves[(2 * i + 1) % waves.len()];
        let into = CRASH_WINDOW_S.0 + salt % (CRASH_WINDOW_S.1 - CRASH_WINDOW_S.0);
        plan = plan.with_node_crash(wave + SimDuration::from_secs(into), node);
    }
    plan
}

struct Inputs {
    scenario: Scenario,
    setting: Setting,
    fleet: FleetConfig,
    plan: FleetFaultPlan,
}

/// Checks one fleet result.
fn check(res: &FleetResult, jobs: usize) -> Vec<String> {
    let mut bad = Vec::new();
    let mean = res.cluster.mean_runtime_secs();
    if mean.completed_apps + mean.failed_apps != jobs {
        bad.push(format!(
            "completed {} + failed {} != {jobs} jobs",
            mean.completed_apps, mean.failed_apps
        ));
    }
    let d = &res.degradation;
    if d.jobs_lost != d.jobs_rescheduled + d.jobs_orphaned {
        bad.push(format!(
            "jobs lost {} != rescheduled {} + orphaned {}",
            d.jobs_lost, d.jobs_rescheduled, d.jobs_orphaned
        ));
    }
    if !res.violations.is_empty() {
        bad.push(format!(
            "{} violation(s), first: {:?}",
            res.violations.len(),
            res.violations[0]
        ));
    }
    bad
}

/// Runs the workload.
pub fn run(spec: &Spec, tracer: &mut Tracer) -> Report {
    let (nodes, crashes) = size_of(spec.size);
    let (inp, setup_s) = median_setup(|| {
        let scenario = fleet_scale_scenario(nodes);
        Inputs {
            setting: Setting::m3(scenario.len()),
            plan: crash_plan(spec.seed, &wave_starts(&scenario), nodes, crashes),
            scenario,
            fleet: quarter_small_fleet(nodes),
        }
    });
    let jobs = inp.scenario.len();
    let fleet_run = || {
        run_fleet_faulted_with_workers(
            &inp.scenario,
            &inp.setting,
            machine(),
            &inp.fleet,
            &inp.plan,
            spec.workers,
        )
    };
    let mut rep = Report {
        ops: jobs as u64,
        ..Report::default()
    };

    let bytes = |r: &FleetResult| serde_json::to_string(&r.jobs).expect("jobs serialize");
    let window = Instant::now();
    let memo0 = cache_stats();
    let cold = tracer.span(0, "fleet-waves", |t| {
        t.span(0, "workloads.fleet.cold", |_| fleet_run())
    });
    let cold_s = window.elapsed().as_secs_f64();
    let memo = cache_stats().since(&memo0);
    for what in check(&cold, jobs) {
        rep.fail(jobs as u64, what);
    }
    let cold_jobs = bytes(&cold);

    // Warm re-runs until the window closes (at least one): each must
    // simulate no node and reproduce the cold run's jobs byte for byte.
    let mut warm_s = Vec::new();
    while warm_s.is_empty() || window.elapsed().as_secs_f64() < spec.seconds {
        let id = warm_s.len() as u64 + 1;
        let before = cache_stats();
        let t1 = Instant::now();
        let warm = tracer.span(id, "fleet-waves", |t| {
            t.span(id, "workloads.fleet.warm", |_| fleet_run())
        });
        warm_s.push(t1.elapsed().as_secs_f64());
        let rerun = cache_stats().since(&before);
        if rerun.misses != 0 {
            rep.fail(
                jobs as u64,
                format!("warm re-run {id} simulated {} node(s)", rerun.misses),
            );
        }
        if bytes(&warm) != cold_jobs {
            rep.fail(
                jobs as u64,
                format!("warm re-run {id} jobs are not byte-identical"),
            );
        }
    }
    let warm_s = median(&warm_s);
    let failed_jobs = cold.jobs.iter().filter(|j| j.failure.is_some()).count();
    if failed_jobs > 0 {
        rep.fail(
            failed_jobs as u64,
            format!("{failed_jobs} job(s) did not complete"),
        );
    }

    let arrival = |j: usize| inp.scenario.apps[j].1.as_secs_f64();
    let done: Vec<(usize, f64)> = cold
        .jobs
        .iter()
        .filter_map(|j| j.runtime_s.map(|rt| (j.job, rt)))
        .collect();
    let makespan = done
        .iter()
        .map(|&(j, rt)| arrival(j) + rt)
        .fold(0.0, f64::max);
    let is_cache = |j: usize| inp.scenario.apps[j].0 == AppKind::GoCache;
    let cache_rt: Vec<f64> = done.iter().filter(|d| is_cache(d.0)).map(|d| d.1).collect();
    let cache_ops = cache_rt.len() as f64 * gocache_workload().total_requests as f64;

    rep.notes.push(format!(
        "fleet-waves: {nodes} nodes, {jobs} jobs, {} crash(es); cold {cold_s:.3} s with {} node \
         simulations, warm median {warm_s:.3} s",
        inp.plan.node_crashes.len(),
        memo.misses
    ));
    let e = &mut rep.e2e;
    e.insert("setup_s", setup_s);
    e.insert("sim_s_per_host_s", makespan / cold_s);
    e.insert("run_p50_ms", cold_s * 1e3);
    e.insert("run_tail_ms", cold_s * 1e3);
    e.insert("cache_ops_per_s", cache_ops / cold_s);
    e.insert("fleet_jobs_per_s", jobs as f64 / cold_s);
    e.insert("host_peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN));
    e.insert(
        "sim_job_runtime_s",
        mean(&done.iter().map(|d| d.1).collect::<Vec<_>>()),
    );
    e.insert("cache_serve_s", mean(&cache_rt));

    if tracer.enabled() {
        let t2 = Instant::now();
        let found = tracer.span(2, "oracle.fleet", |_| {
            FleetOracle::new(inp.fleet.grace.as_millis())
                .with_defer_interval(inp.fleet.defer_interval.as_millis())
                .check(&cold.trace)
        });
        let check_ms = ms_since(t2);
        let mut layer = zero_layers();
        let node_sim_s = cold_s - warm_s;
        for (metric, v) in [
            ("oracle.fleet_check_ms", check_ms),
            ("oracle.violations", found.len() as f64),
            ("workloads.fleet.cold_s", cold_s),
            ("workloads.fleet.sched_s", warm_s),
            ("workloads.fleet.node_sim_s", node_sim_s),
            (
                "workloads.fleet.node_sim_ms_per_miss",
                node_sim_s * 1e3 / memo.misses.max(1) as f64,
            ),
            (
                "workloads.fleet.deferrals",
                cold.jobs.iter().map(|j| j.deferrals as f64).sum(),
            ),
            (
                "workloads.fleet.migrations",
                cold.jobs.iter().map(|j| j.migrations as f64).sum(),
            ),
            (
                "workloads.fleet.rescheduled",
                cold.degradation.jobs_rescheduled as f64,
            ),
            ("workloads.memo.hits", memo.hits as f64),
            ("workloads.memo.misses", memo.misses as f64),
            ("workloads.memo.hit_ratio", memo.hit_rate()),
        ] {
            layer.insert(metric, v);
        }
        rep.layer = layer;
    }
    rep
}

/// Merges the result lines of single-sample runs: host metrics are the
/// median over samples, the tail follows the tail rule over the samples'
/// cold-run times, and the simulated metrics must agree exactly.
pub fn merge_samples(lines: &[String]) -> Report {
    let mut rep = Report::default();
    for (i, line) in lines.iter().enumerate() {
        let attempted = count_from_line(line, "attempted").unwrap_or(0);
        rep.ops += attempted;
        rep.ops_failed += count_from_line(line, "failed").unwrap_or(attempted);
        if !correct_from_line(line) {
            rep.failures.push(format!("sample {i} failed its checks"));
        }
    }
    let values = |name: &str| -> Vec<f64> {
        lines
            .iter()
            .map(|l| metric_from_line(l, name).unwrap_or(f64::NAN))
            .collect()
    };
    for (name, _) in END_TO_END {
        let v = values(name);
        let merged = if SIM_METRICS.contains(&name) {
            if v.iter().any(|x| x.to_bits() != v[0].to_bits()) {
                rep.fail(rep.ops, format!("samples disagree on {name}: {v:?}"));
            }
            v[0]
        } else {
            median(&v)
        };
        rep.e2e.insert(name, merged);
    }
    let t = tail(&values("run_p50_ms"));
    rep.e2e.insert("run_tail_ms", t.value);
    rep.notes.push(format!(
        "fleet-waves: {} cold samples, each in its own process; tail = p{} with {} of {} beyond it",
        lines.len(),
        t.percentile,
        t.beyond,
        t.samples
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(cold_ms: f64, sim: f64, correct: bool) -> String {
        let mut r = Report {
            ops: 10,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.e2e.insert(
                name,
                if SIM_METRICS.contains(&name) {
                    sim
                } else {
                    cold_ms
                },
            );
        }
        if !correct {
            r.fail(2, "bad".into());
        }
        r.result_line(false)
    }

    #[test]
    fn crashes_land_early_in_odd_waves_of_the_scenario() {
        let scenario = fleet_scale_scenario(16);
        let waves = wave_starts(&scenario);
        assert_eq!(waves.len(), 10, "fleet_scale_scenario runs ten waves");
        let plan = crash_plan(9, &waves, 16, 4);
        let mut victims: Vec<usize> = plan.node_crashes.iter().map(|c| c.node).collect();
        victims.dedup();
        assert_eq!(victims.len(), 4, "distinct victims");
        for (i, c) in plan.node_crashes.iter().enumerate() {
            let into = c.at.as_secs_f64() - waves[2 * i + 1].as_secs_f64();
            assert!(
                (CRASH_WINDOW_S.0 as f64..CRASH_WINDOW_S.1 as f64).contains(&into),
                "crash {i} lands {into} s into wave {}",
                2 * i + 1
            );
        }
        assert_ne!(
            crash_plan(10, &waves, 16, 4),
            plan,
            "the seed draws the plan"
        );
    }

    #[test]
    fn samples_merge_to_medians_and_must_agree_on_simulated_outputs() {
        let lines = [
            line(4.0, 7.0, true),
            line(9.0, 7.0, true),
            line(5.0, 7.0, true),
        ];
        let m = merge_samples(&lines);
        assert!(m.correct(), "{:?}", m.failures);
        assert_eq!(m.ops, 30);
        assert_eq!(m.e2e["run_p50_ms"], 5.0);
        assert_eq!(m.e2e["fleet_jobs_per_s"], 5.0);
        assert_eq!(m.e2e["sim_job_runtime_s"], 7.0);
        // Three samples are too few for a tail: it falls back to the median.
        assert_eq!(m.e2e["run_tail_ms"], 5.0);

        let m = merge_samples(&[line(4.0, 7.0, true), line(4.0, 7.5, true)]);
        assert!(!m.correct(), "disagreeing simulated outputs must fail");

        let m = merge_samples(&[line(4.0, 7.0, true), line(4.0, 7.0, false)]);
        assert!(!m.correct());
        assert_eq!(m.ops_failed, 2);
    }
}
