//! `paper-node`: the sixteen paper scenarios under M3 on one 64-GiB node.
//!
//! Each op is one `run_scenario` call with the trace on, as `fig5_speedup`
//! runs it. Ops go in rounds of all sixteen scenarios, each run with its own
//! seed-derived `node_salt`, so every run is a fresh simulation. Rounds
//! repeat until the window closes, and never fewer than [`MIN_ROUNDS`]:
//! simulated outcomes and layer counts come from those first rounds only,
//! so they do not depend on host speed.

use std::collections::BTreeMap;
use std::time::Instant;

use m3::oracle::Oracle;
use m3::prelude::{AppKind, MachineConfig, RunResult, Scenario, Setting, SimDuration, GIB};
use m3::sim::trace::{TraceData, TraceLog};
use m3::workloads::hibench::gocache_workload;
use m3::workloads::run_scenario;
use m3::workloads::scenario::all_scenarios;

use crate::stats::{mean, median, tail};
use crate::{
    derive, median_setup, ms_since, peak_rss_mib, zero_layers, Report, Size, Spec, Tracer,
};

/// Seed domain of this workload's inputs.
const DOMAIN: u64 = 0x7061_7065_722d_6e6f; // "paper-no"

/// Rounds that always run; simulated outcomes come from these.
pub const MIN_ROUNDS: usize = 4;

/// The node every run uses: `fig5_speedup`'s machine, profile sampling
/// off. `Setting::m3` resolves its monitor.
fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

struct Inputs {
    scenarios: Vec<(Scenario, Setting)>,
    base: MachineConfig,
}

fn inputs(size: Size) -> Inputs {
    let mut scenarios = all_scenarios();
    if size == Size::Tiny {
        scenarios.truncate(3);
    }
    Inputs {
        scenarios: scenarios
            .into_iter()
            .map(|s| {
                let setting = Setting::m3(s.len());
                (s, setting)
            })
            .collect(),
        base: machine(),
    }
}

/// Adds the trace-kind counts of one run to the per-layer map.
pub(crate) fn add_trace_counts(layer: &mut BTreeMap<&'static str, f64>, trace: &TraceLog) {
    const KINDS: [(&str, &str); 15] = [
        ("runtime.gc_young", "gc.young"),
        ("runtime.gc_mixed", "gc.mixed"),
        ("runtime.gc_full", "gc.full"),
        ("runtime.gc_go", "gc.go"),
        ("framework.evict_blocks", "evict.blocks"),
        ("core.monitor.polls", "monitor.poll"),
        ("core.monitor.selections", "monitor.select"),
        ("core.signals.high", "signal.high"),
        ("core.signals.low", "signal.low"),
        ("core.thresholds.moves", "threshold.adjust"),
        ("core.alloc.delayed", "alloc.delay"),
        ("core.scheduler.packets", "reclaim.packet.finish"),
        ("core.scheduler.stalls", "reclaim.packet.stall"),
        ("os.madvise.events", "mem.madvise"),
        ("os.kills", "proc.kill"),
    ];
    for (metric, kind) in KINDS {
        *layer.entry(metric).or_default() += trace.count(kind) as f64;
    }
    *layer.entry("sim.trace.events").or_default() += trace.len() as f64;
    let madvised: u64 = trace
        .of_kind("mem.madvise")
        .map(|e| match e.data {
            TraceData::Madvise { bytes } => bytes,
            _ => 0,
        })
        .sum();
    *layer.entry("os.madvise_gib").or_default() += madvised as f64 / GIB as f64;
}

/// Adds the per-app simulated accounting of one run to the per-layer map.
fn add_app_times(layer: &mut BTreeMap<&'static str, f64>, run: &RunResult) {
    for a in &run.apps {
        *layer.entry("runtime.gc_pause_s").or_default() += a.gc_pause.as_secs_f64();
        *layer.entry("core.stall_s").or_default() += a.stall.as_secs_f64();
        *layer.entry("core.mm_time_s").or_default() += a.mm_time.as_secs_f64();
    }
}

/// Runs the workload.
pub fn run(spec: &Spec, tracer: &mut Tracer) -> Report {
    // Set-up, repeated as `median_setup` says: the scenarios, their
    // settings and the machine. One untimed warm-up run follows, so the
    // name interner and the allocator are filled before the window opens.
    let (inp, setup_s) = median_setup(|| inputs(spec.size));
    let (sc, setting) = &inp.scenarios[0];
    let warm = MachineConfig {
        node_salt: derive(spec.seed, DOMAIN, u64::MAX),
        ..inp.base
    };
    std::hint::black_box(run_scenario(sc, setting, warm));
    let n_sc = inp.scenarios.len();
    let requests = gocache_workload().total_requests as f64;
    let min_runs = MIN_ROUNDS * n_sc;

    let mut rep = Report::default();
    let mut layer = zero_layers();
    let mut on_ms = Vec::new();
    let (mut host_s, mut sim_s, mut apps, mut cache_ops) = (0.0, 0.0, 0.0, 0.0);
    let (mut job_rt, mut cache_rt) = (Vec::new(), Vec::new());
    let (mut off_ms, mut check_ms, mut events) = (Vec::new(), Vec::new(), 0.0);
    let mut first_bytes = None;

    let window = Instant::now();
    let mut j = 0usize;
    while j < min_runs || !j.is_multiple_of(n_sc) || window.elapsed().as_secs_f64() < spec.seconds {
        let (sc, setting) = &inp.scenarios[j % n_sc];
        let cfg = MachineConfig {
            node_salt: derive(spec.seed, DOMAIN, j as u64),
            ..inp.base
        };
        let id = j as u64;
        tracer.span(id, "paper-node", |t| {
            let t0 = Instant::now();
            let out = t.span(id, "workloads.machine.trace_on", |_| {
                run_scenario(sc, setting, cfg)
            });
            let ms = ms_since(t0);
            let run = &out.run;
            on_ms.push(ms);
            host_s += ms / 1e3;
            sim_s += run.end.as_secs_f64();
            apps += run.apps.len() as f64;
            let gocache = |i: &usize| sc.apps[*i].0 == AppKind::GoCache;
            let done_caches = (0..run.apps.len())
                .filter(gocache)
                .filter(|&i| run.apps[i].finished.is_some())
                .count();
            cache_ops += done_caches as f64 * requests;

            rep.ops += 1;
            if !run.violations.is_empty() || !run.all_finished() {
                rep.fail(
                    1,
                    format!(
                        "{} salt {}: {} violation(s), all finished: {}",
                        sc.name,
                        cfg.node_salt,
                        run.violations.len(),
                        run.all_finished()
                    ),
                );
            }
            if j == 0 {
                first_bytes = Some(serde_json::to_string(run).expect("RunResult serializes"));
            }
            if j < min_runs {
                for (i, a) in run.apps.iter().enumerate() {
                    if let Some(rt) = a.runtime() {
                        job_rt.push(rt.as_secs_f64());
                        if gocache(&i) {
                            cache_rt.push(rt.as_secs_f64());
                        }
                    }
                }
            }
            if !t.enabled() {
                return;
            }
            // Layer probes: the oracle on the returned trace, and the same
            // inputs again with the trace off.
            let monitor = cfg.with_setting(setting).monitor;
            let t1 = Instant::now();
            let found = t.span(id, "oracle", |_| Oracle::paper(monitor).check(&run.trace));
            check_ms.push(ms_since(t1));
            events += run.trace.len() as f64;
            *layer.entry("oracle.violations").or_default() += found.len() as f64;
            let quiet = MachineConfig {
                capture_trace: false,
                ..cfg
            };
            let t2 = Instant::now();
            std::hint::black_box(t.span(id, "workloads.machine.trace_off", |_| {
                run_scenario(sc, setting, quiet)
            }));
            off_ms.push(ms_since(t2));
            if j < min_runs {
                add_trace_counts(&mut layer, &run.trace);
                add_app_times(&mut layer, run);
            }
        });
        j += 1;
    }

    // Determinism: the first input again must give the same bytes.
    let (sc, setting) = &inp.scenarios[0];
    let cfg = MachineConfig {
        node_salt: derive(spec.seed, DOMAIN, 0),
        ..inp.base
    };
    let again = serde_json::to_string(&run_scenario(sc, setting, cfg).run).expect("serializes");
    if first_bytes.as_deref() != Some(again.as_str()) {
        rep.fail(1, format!("{} re-run is not byte-identical", sc.name));
    }

    let t = tail(&on_ms);
    rep.notes.push(format!(
        "paper-node: {} runs ({} scenarios x {} rounds), tail = p{} with {} of {} runs beyond it",
        on_ms.len(),
        n_sc,
        on_ms.len() / n_sc,
        t.percentile,
        t.beyond,
        t.samples
    ));
    let e = &mut rep.e2e;
    e.insert("setup_s", setup_s);
    e.insert("sim_s_per_host_s", sim_s / host_s);
    e.insert("run_p50_ms", median(&on_ms));
    e.insert("run_tail_ms", t.value);
    e.insert("cache_ops_per_s", cache_ops / host_s);
    e.insert("fleet_jobs_per_s", apps / host_s);
    e.insert("host_peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN));
    e.insert("sim_job_runtime_s", mean(&job_rt));
    e.insert("cache_serve_s", mean(&cache_rt));

    if tracer.enabled() {
        let runs = off_ms.len() as f64;
        let (on, off, chk) = (
            on_ms.iter().sum::<f64>(),
            off_ms.iter().sum::<f64>(),
            check_ms.iter().sum::<f64>(),
        );
        let record_ms = on - off - chk;
        layer.insert("workloads.machine.run_ms", median(&off_ms));
        layer.insert("workloads.machine.us_per_sim_s", off * 1e3 / sim_s);
        layer.insert("sim.trace.record_ms", record_ms / runs);
        layer.insert("sim.trace.ns_per_event", record_ms * 1e6 / events);
        layer.insert("oracle.check_ms", chk / runs);
        layer.insert("oracle.events_per_s", events / (chk / 1e3));
        rep.layer = layer;
    }
    rep
}
