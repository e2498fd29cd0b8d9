//! The repository benchmark: three workloads driven through the public
//! `m3` API, measured end to end (host time and simulated outcomes) and, in
//! a separate traced run, layer by layer.
//!
//! `main.rs` parses the command line and prints; everything it prints is
//! computed here, so the tests can drive each workload at a tiny size.
//! `README.md` in this directory explains the workloads and every metric.

pub mod cache_trace;
pub mod fleet_waves;
pub mod paper_node;
pub mod report;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

use m3::cache::trace::mix64;

pub use report::Report;
pub use spans::Tracer;

/// The three workloads, by the name the command line takes.
pub const WORKLOADS: [&str; 3] = ["paper-node", "cache-trace", "fleet-waves"];

/// End-to-end metrics: `(name, unit)`. Every workload reports every one of
/// them; `README.md` gives each metric's meaning on each workload, and
/// `BENCHMARK.json` gives each its direction and regression bound.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("sim_s_per_host_s", "sim_s/s"),
    ("run_p50_ms", "ms"),
    ("run_tail_ms", "ms"),
    ("cache_ops_per_s", "1/s"),
    ("fleet_jobs_per_s", "1/s"),
    ("host_peak_rss_mib", "MiB"),
    ("sim_job_runtime_s", "sim_s"),
    ("cache_serve_s", "sim_s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every workload
/// reports every one of them; a layer the workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("workloads.machine.run_ms", "ms"),
    ("workloads.machine.us_per_sim_s", "us/sim_s"),
    ("sim.trace.events", "count"),
    ("sim.trace.record_ms", "ms"),
    ("sim.trace.ns_per_event", "ns"),
    ("oracle.check_ms", "ms"),
    ("oracle.events_per_s", "1/s"),
    ("oracle.fleet_check_ms", "ms"),
    ("oracle.violations", "count"),
    ("runtime.gc_young", "count"),
    ("runtime.gc_mixed", "count"),
    ("runtime.gc_full", "count"),
    ("runtime.gc_go", "count"),
    ("runtime.gc_pause_s", "sim_s"),
    ("framework.evict_blocks", "count"),
    ("core.monitor.polls", "count"),
    ("core.monitor.selections", "count"),
    ("core.signals.high", "count"),
    ("core.signals.low", "count"),
    ("core.thresholds.moves", "count"),
    ("core.alloc.delayed", "count"),
    ("core.scheduler.packets", "count"),
    ("core.scheduler.stalls", "count"),
    ("core.stall_s", "sim_s"),
    ("core.mm_time_s", "sim_s"),
    ("os.madvise.events", "count"),
    ("os.madvise_gib", "GiB"),
    ("os.kills", "count"),
    ("cache.tracegen.ns_per_op", "ns"),
    ("cache.store.get_ns", "ns"),
    ("cache.store.write_ns", "ns"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.negative", "count"),
    ("cache.sets", "count"),
    ("cache.deletes", "count"),
    ("cache.evict_slabs.low", "count"),
    ("cache.evict_slabs.high", "count"),
    ("cache.evict_slabs.admission", "count"),
    ("cache.class_evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("workloads.kvtrace.run_ms", "ms"),
    ("workloads.fleet.cold_s", "s"),
    ("workloads.fleet.sched_s", "s"),
    ("workloads.fleet.node_sim_s", "s"),
    ("workloads.fleet.node_sim_ms_per_miss", "ms"),
    ("workloads.fleet.deferrals", "count"),
    ("workloads.fleet.migrations", "count"),
    ("workloads.fleet.rescheduled", "count"),
    ("workloads.memo.hits", "count"),
    ("workloads.memo.misses", "count"),
    ("workloads.memo.hit_ratio", "ratio"),
    ("bench.trace.spans", "count"),
    ("bench.trace.overhead_ms", "ms"),
    ("bench.trace.overhead_pct", "%"),
    ("span.self_ms.cache", "ms"),
    ("span.self_ms.oracle", "ms"),
    ("span.self_ms.workloads.machine", "ms"),
    ("span.self_ms.workloads.kvtrace", "ms"),
    ("span.self_ms.workloads.fleet", "ms"),
];

/// The layers the benchmark calls directly, with the metric that reports
/// each one's self time in the traced run.
pub const SPAN_SELF_MS: [(&str, &str); 5] = [
    ("cache", "span.self_ms.cache"),
    ("oracle", "span.self_ms.oracle"),
    ("workloads.machine", "span.self_ms.workloads.machine"),
    ("workloads.kvtrace", "span.self_ms.workloads.kvtrace"),
    ("workloads.fleet", "span.self_ms.workloads.fleet"),
];

/// The layers of the per-layer table, in crate order. A span belongs to
/// the longest layer name its own name starts with.
pub const LAYERS: [&str; 11] = [
    "sim",
    "runtime",
    "framework",
    "cache",
    "core",
    "os",
    "oracle",
    "workloads.machine",
    "workloads.kvtrace",
    "workloads.fleet",
    "workloads.parallel",
];

/// How big a workload runs: the benchmark size or the test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The committed benchmark configuration.
    Full,
    /// A seconds-long configuration for the smoke tests.
    Tiny,
}

/// Everything one invocation needs besides the workload name and the
/// tracer (an enabled tracer also turns on the per-layer probes).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement window, host seconds.
    pub seconds: f64,
    /// The pinned worker count (`M3_JOBS`).
    pub workers: usize,
    /// Benchmark or test size.
    pub size: Size,
}

/// Runs one workload. Unknown names are rejected with `Err`.
pub fn run_workload(name: &str, spec: &Spec, tracer: &mut Tracer) -> Result<Report, String> {
    match name {
        "paper-node" => Ok(paper_node::run(spec, tracer)),
        "cache-trace" => Ok(cache_trace::run(spec, tracer)),
        "fleet-waves" => Ok(fleet_waves::run(spec, tracer)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// Completes a traced run's per-layer metrics from its spans: the span
/// count, each directly called layer's self time, and the tracing overhead
/// as the traced run's `run_p50_ms` minus the untraced run's. Returns the
/// per-layer table rows `(layer, self ms, spans)` in [`LAYERS`] order.
pub fn summarize_trace(
    report: &mut Report,
    spans: &[spans::Span],
    untraced_p50_ms: f64,
) -> Vec<(&'static str, f64, usize)> {
    let rows = spans::layer_self_ms(spans, &LAYERS);
    let overhead_ms = report.e2e["run_p50_ms"] - untraced_p50_ms;
    let layer = &mut report.layer;
    layer.insert("bench.trace.spans", spans.len() as f64);
    layer.insert("bench.trace.overhead_ms", overhead_ms);
    layer.insert(
        "bench.trace.overhead_pct",
        overhead_ms / untraced_p50_ms * 100.0,
    );
    for &(name, self_ms, _) in &rows {
        if let Some(&(_, metric)) = SPAN_SELF_MS.iter().find(|(l, _)| *l == name) {
            layer.insert(metric, self_ms);
        }
    }
    rows
}

/// A 64-bit input derived from the seed: `label` names the input (a run
/// index, a rep, a crash slot) and `domain` the workload, so no two inputs
/// share a value by construction.
pub fn derive(seed: u64, domain: u64, label: u64) -> u64 {
    mix64(mix64(seed ^ domain).wrapping_add(label))
}

/// Fewest set-ups per invocation; `setup_s` is the median set-up.
pub const SETUP_REPS: usize = 11;

/// Host seconds the set-ups fill at least, so a set-up of microseconds is
/// timed thousands of times.
pub const SETUP_BUDGET_S: f64 = 0.25;

/// Builds the inputs at least [`SETUP_REPS`] times and until
/// [`SETUP_BUDGET_S`] has passed, and returns the last build with the
/// median build time, seconds.
pub fn median_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let budget = Instant::now();
    while times.len() < SETUP_REPS || budget.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        // The previous build is dropped outside the timed region.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one build"), stats::median(&times))
}

/// Peak resident set size of this process, MiB, from `VmHWM` in
/// `/proc/self/status`; `None` where the kernel does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// A fresh map holding every per-layer metric at 0.
pub fn zero_layers() -> BTreeMap<&'static str, f64> {
    PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
