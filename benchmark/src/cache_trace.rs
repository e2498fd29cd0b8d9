//! `cache-trace`: one Memcached server under M3 replaying a production
//! GET/SET/DELETE trace with hot-key shifts, through `run_cache_trace`.
//!
//! Each rep is one `run_cache_trace` call on a trace whose seed is derived
//! from the workload seed; every trace request is one op. Reps repeat
//! until the window closes, and never fewer than [`MIN_REPS`]: simulated
//! outcomes and layer counts come from those first reps only.

use std::collections::BTreeMap;
use std::time::Instant;

use m3::cache::{KeyedSlabCache, TraceGen, TraceOp, TraceOpKind};
use m3::oracle::Oracle;
use m3::prelude::{
    run_cache_trace, CachePolicy, CacheTraceOutcome, Machine, MachineConfig, SimDuration,
    TraceWorkload, TrafficPattern,
};
use m3::sim::trace::TraceData;
use m3::workloads::kvtrace::node_phys_bytes;
use m3::workloads::AppBlueprint;

use crate::paper_node::add_trace_counts;
use crate::stats::{mean, median, tail};
use crate::{
    derive, median_setup, ms_since, peak_rss_mib, zero_layers, Report, Size, Spec, Tracer,
};

/// Seed domain of this workload's inputs.
const DOMAIN: u64 = 0x6361_6368_652d_7472; // "cache-tr"

/// Reps that always run; simulated outcomes come from these.
pub const MIN_REPS: usize = 3;

/// Ops generated per chunk of the store replay.
const CHUNK: usize = 1 << 16;

/// The trace of rep `rep`: the library's `smoke` preset of the production
/// mix with hot-key shifts (120,000 keys, 1,000,000 ops, a shift every
/// quarter), which keeps production's ops per key and phase shares. The
/// test size keeps the key space, and so the node, and cuts ops and phases
/// by ten.
pub fn workload(seed: u64, rep: u64, size: Size) -> TraceWorkload {
    let smoke = TraceWorkload::smoke(TrafficPattern::HotKeyShift);
    let cut = match size {
        Size::Full => 1,
        Size::Tiny => 10,
    };
    TraceWorkload {
        total_ops: smoke.total_ops / cut,
        phase_ops: smoke.phase_ops / cut,
        seed: derive(seed, DOMAIN, rep),
        ..smoke
    }
}

/// GET and negative-GET counts of a trace, read from the generator alone.
fn count_gets(twl: TraceWorkload) -> (u64, u64) {
    TraceGen::new(twl).fold((0, 0), |(g, n), op| match op.kind {
        TraceOpKind::Get { negative } => (g + 1, n + negative as u64),
        _ => (g, n),
    })
}

/// Store replay timings, ns, and op counts.
#[derive(Default)]
struct Replay {
    get_ns: f64,
    gets: f64,
    write_ns: f64,
    writes: f64,
}

/// Replays the trace into a fixed-capacity `KeyedSlabCache` of `capacity`
/// bytes, timing GETs apart from writes (SETs, DELETEs and miss fills).
/// Each write is timed on its own; GET time is each chunk's replay time
/// less its timed writes, so the GET path carries no clock reads of its
/// own. The trace is generated chunk by chunk in child spans, so the
/// replay span's self time is the store's alone.
fn replay(t: &mut Tracer, id: u64, twl: TraceWorkload, capacity: u64) -> Replay {
    let mut store = KeyedSlabCache::new(capacity);
    for key in 0..twl.preload_items() {
        let fp = twl.fp_of(key);
        store.insert(fp, twl.value_bytes(fp));
    }
    let mut gen = TraceGen::new(twl);
    let mut ops: Vec<TraceOp> = Vec::with_capacity(CHUNK);
    let mut r = Replay::default();
    loop {
        ops.clear();
        t.span(id, "cache.tracegen", |_| {
            ops.extend(gen.by_ref().take(CHUNK))
        });
        if ops.is_empty() {
            return r;
        }
        let mut write_ns = 0.0;
        let chunk = Instant::now();
        for op in &ops {
            let fp = op.fp;
            // Every op that gets here is a write: a delete, or an insert
            // for a SET or a GET's miss fill.
            let delete = match op.kind {
                TraceOpKind::Get { negative } => {
                    r.gets += 1.0;
                    if store.get(fp) || negative {
                        continue;
                    }
                    false
                }
                TraceOpKind::Set => false,
                TraceOpKind::Delete => true,
            };
            let t0 = Instant::now();
            if delete {
                store.delete(fp);
            } else {
                store.insert(fp, twl.value_bytes(fp));
            }
            write_ns += t0.elapsed().as_nanos() as f64;
            r.writes += 1.0;
        }
        r.get_ns += chunk.elapsed().as_nanos() as f64 - write_ns;
        r.write_ns += write_ns;
    }
}

/// Checks one outcome against the trace it replayed.
fn check(out: &CacheTraceOutcome, gets: (u64, u64)) -> Vec<String> {
    let twl = &out.workload;
    let mut bad = Vec::new();
    if out.requests != twl.total_ops {
        bad.push(format!(
            "{} of {} requests served",
            out.requests, twl.total_ops
        ));
    }
    if out.hits + out.misses != gets.0 {
        bad.push(format!(
            "hits {} + misses {} != {} GETs in the trace",
            out.hits, out.misses, gets.0
        ));
    }
    if out.negative != gets.1 {
        bad.push(format!(
            "{} negative lookups, trace has {}",
            out.negative, gets.1
        ));
    }
    if out.killed || !out.finished {
        bad.push(format!(
            "server killed: {}, finished: {}",
            out.killed, out.finished
        ));
    }
    if out.violations > 0 {
        bad.push(format!(
            "{} violation(s): {:?}",
            out.violations, out.violation_samples
        ));
    }
    bad
}

/// Runs `run_cache_trace`'s node through `Machine` directly, to get the
/// trace it does not return; checks that the run matches the outcome.
fn traced_node(
    twl: TraceWorkload,
    out: &CacheTraceOutcome,
) -> (m3::prelude::RunResult, MachineConfig, Vec<String>) {
    let mut cfg = MachineConfig::scaled(node_phys_bytes(&twl), true);
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(60_000);
    let bp = AppBlueprint::TraceCache {
        workload: twl,
        max_bytes: 0,
        m3_mode: true,
    };
    let run = Machine::new(cfg).run(vec![("memcached-trace".into(), SimDuration::ZERO, bp)]);
    let last = run.trace.events().iter().rev().find_map(|e| match e.data {
        TraceData::CacheStats { requests, hits, .. } => Some((requests, hits)),
        _ => None,
    });
    let mut bad = Vec::new();
    if last != Some((out.requests, out.hits)) {
        bad.push(format!(
            "direct node run ended at {last:?}, run_cache_trace at {:?}",
            (out.requests, out.hits)
        ));
    }
    (run, cfg, bad)
}

/// Runs the workload.
pub fn run(spec: &Spec, tracer: &mut Tracer) -> Report {
    // Set-up, repeated as `median_setup` says: the first trace, the node
    // sizing over its whole key space, and the generator's Zipf tables.
    let (_, setup_s) = median_setup(|| {
        let twl = workload(spec.seed, 0, spec.size);
        twl.validate();
        std::hint::black_box(node_phys_bytes(&twl));
        std::hint::black_box(TraceGen::new(twl))
    });
    let min_reps = match spec.size {
        Size::Full => MIN_REPS,
        Size::Tiny => 1,
    };

    let mut rep = Report::default();
    let mut layer: BTreeMap<&'static str, f64> = zero_layers();
    let (mut run_ms, mut ops_per_s) = (Vec::new(), Vec::new());
    let (mut host_s, mut sim_s) = (0.0, 0.0);
    let (mut job_s, mut serve_s) = (Vec::new(), Vec::new());
    let (mut gen_ns, mut gen_ops) = (0.0, 0.0);
    let (mut check_ms, mut events) = (Vec::new(), 0.0);
    let mut store = Replay::default();

    let window = Instant::now();
    let mut r = 0usize;
    while r < min_reps || window.elapsed().as_secs_f64() < spec.seconds {
        let twl = workload(spec.seed, r as u64, spec.size);
        let id = r as u64;
        tracer.span(id, "cache-trace", |t| {
            let t0 = Instant::now();
            let out = t.span(id, "workloads.kvtrace", |_| {
                run_cache_trace(twl, CachePolicy::M3)
            });
            let ms = ms_since(t0);
            run_ms.push(ms);
            ops_per_s.push(out.requests as f64 / (ms / 1e3));
            host_s += ms / 1e3;
            sim_s += out.end_ms as f64 / 1e3;
            rep.ops += twl.total_ops;

            let t1 = Instant::now();
            let gets = t.span(id, "cache.tracegen", |_| count_gets(twl));
            gen_ns += t1.elapsed().as_nanos() as f64;
            gen_ops += twl.total_ops as f64;
            for what in check(&out, gets) {
                rep.fail(twl.total_ops, format!("trace seed {:#x}: {what}", twl.seed));
            }
            if r < min_reps {
                job_s.push(out.end_ms as f64 / 1e3);
                serve_s.push(out.serve_ms as f64 / 1e3);
                for (metric, v) in [
                    ("cache.hits", out.hits),
                    ("cache.misses", out.misses),
                    ("cache.negative", out.negative),
                    ("cache.sets", out.sets),
                    ("cache.deletes", out.deletes),
                    ("cache.evict_slabs.low", out.evict_slabs_low),
                    ("cache.evict_slabs.high", out.evict_slabs_high),
                    ("cache.evict_slabs.admission", out.evict_slabs_admission),
                    ("cache.class_evictions", out.class_evictions),
                    ("core.alloc.delayed", out.delayed),
                ] {
                    *layer.entry(metric).or_default() += v as f64;
                }
            }
            if !t.enabled() {
                return;
            }
            // Layer probes: the same node run directly for its trace, the
            // oracle on that trace, and the store replay.
            let (run, cfg, bad) =
                t.span(id, "workloads.machine.trace_on", |_| traced_node(twl, &out));
            for what in bad {
                rep.fail(twl.total_ops, what);
            }
            let t2 = Instant::now();
            let found = t.span(id, "oracle", |_| {
                Oracle::paper(cfg.monitor).check(&run.trace)
            });
            check_ms.push(ms_since(t2));
            events += run.trace.len() as f64;
            *layer.entry("oracle.violations").or_default() += found.len() as f64;
            if r < min_reps {
                let delayed = layer["core.alloc.delayed"];
                add_trace_counts(&mut layer, &run.trace);
                // The outcome, not the trace, counts this layer's delays.
                layer.insert("core.alloc.delayed", delayed);
            }
            let one = t.span(id, "cache.store", |t| replay(t, id, twl, out.phys_bytes));
            store.get_ns += one.get_ns;
            store.gets += one.gets;
            store.write_ns += one.write_ns;
            store.writes += one.writes;
        });
        r += 1;
    }

    let t = tail(&run_ms);
    rep.notes.push(format!(
        "cache-trace: {} reps of {} ops, tail = p{} with {} of {} reps beyond it",
        run_ms.len(),
        workload(spec.seed, 0, spec.size).total_ops,
        t.percentile,
        t.beyond,
        t.samples
    ));
    let e = &mut rep.e2e;
    e.insert("setup_s", setup_s);
    e.insert("sim_s_per_host_s", sim_s / host_s);
    e.insert("run_p50_ms", median(&run_ms));
    e.insert("run_tail_ms", t.value);
    e.insert("cache_ops_per_s", median(&ops_per_s));
    e.insert("fleet_jobs_per_s", run_ms.len() as f64 / host_s);
    e.insert("host_peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN));
    e.insert("sim_job_runtime_s", mean(&job_s));
    e.insert("cache_serve_s", mean(&serve_s));

    if tracer.enabled() {
        let (hits, misses) = (layer["cache.hits"], layer["cache.misses"]);
        let chk: f64 = check_ms.iter().sum();
        layer.insert("cache.hit_ratio", hits / (hits + misses));
        layer.insert("workloads.kvtrace.run_ms", median(&run_ms));
        layer.insert("cache.tracegen.ns_per_op", gen_ns / gen_ops);
        layer.insert("cache.store.get_ns", store.get_ns / store.gets);
        layer.insert("cache.store.write_ns", store.write_ns / store.writes);
        layer.insert("oracle.check_ms", mean(&check_ms));
        layer.insert("oracle.events_per_s", events / (chk / 1e3));
        rep.layer = layer;
    }
    rep
}
