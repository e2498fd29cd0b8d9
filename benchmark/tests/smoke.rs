//! Tiny-size runs of every workload: every named metric is emitted, every
//! check passes, the seed reaches the program, and `BENCHMARK.json` lists
//! exactly the metrics the runner prints.

use m3_benchmark::{
    run_workload, summarize_trace, Report, Size, Spec, Tracer, END_TO_END, PER_LAYER, WORKLOADS,
};

/// Simulated (model-output) end-to-end metrics: exact for a fixed seed.
const SIM_METRICS: [&str; 2] = ["sim_job_runtime_s", "cache_serve_s"];

fn tiny(workload: &str, seed: u64, traced: bool) -> (Report, Tracer) {
    let spec = Spec {
        seed,
        seconds: 0.0,
        workers: 1,
        size: Size::Tiny,
    };
    let mut tracer = Tracer::new(traced);
    let report = run_workload(workload, &spec, &mut tracer).expect("known workload");
    (report, tracer)
}

fn sim_outputs(r: &Report) -> Vec<f64> {
    SIM_METRICS.iter().map(|m| r.e2e[m]).collect()
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for w in WORKLOADS {
        let (mut report, tracer) = tiny(w, 7, true);
        assert!(report.correct(), "{w}: {:?}", report.failures);
        assert!(report.ops > 0, "{w}: no ops");
        for (name, _) in END_TO_END {
            let v = report.e2e.get(name).copied();
            assert!(
                v.is_some_and(|v| v.is_finite() && v > 0.0),
                "{w}: end-to-end {name} = {v:?}"
            );
        }
        assert!(
            !tracer.spans().is_empty(),
            "{w}: traced run recorded no spans"
        );
        let base = report.e2e["run_p50_ms"];
        summarize_trace(&mut report, tracer.spans(), base);
        assert_eq!(report.layer.len(), PER_LAYER.len(), "{w}: per-layer set");
        for (name, _) in PER_LAYER {
            let v = report.layer.get(name).copied();
            assert!(
                v.is_some_and(f64::is_finite),
                "{w}: per-layer {name} = {v:?}"
            );
        }
        assert_eq!(report.layer["oracle.violations"], 0.0, "{w}");
        let line = report.result_line(true);
        assert!(line.starts_with("{\"correct\": true,"), "{w}: {line}");
    }
}

#[test]
fn each_workload_measures_its_own_layers() {
    let (p, _) = tiny("paper-node", 3, true);
    assert!(p.layer["sim.trace.events"] > 0.0);
    assert!(p.layer["core.monitor.polls"] > 0.0);
    assert!(p.layer["workloads.machine.run_ms"] > 0.0);
    assert_eq!(
        p.layer["workloads.fleet.cold_s"], 0.0,
        "paper-node runs no fleet"
    );
    let (c, _) = tiny("cache-trace", 3, true);
    assert!(c.layer["cache.hits"] > 0.0);
    assert!(c.layer["cache.store.get_ns"] > 0.0);
    assert!(c.layer["cache.tracegen.ns_per_op"] > 0.0);
    assert_eq!(c.layer["runtime.gc_young"], 0.0, "cache-trace runs no JVM");
    let (f, _) = tiny("fleet-waves", 3, true);
    assert!(f.layer["workloads.fleet.cold_s"] > 0.0);
    assert!(f.layer["workloads.memo.misses"] > 0.0);
    assert!(
        f.layer["workloads.fleet.rescheduled"] > 0.0,
        "the crash forces rescheduling"
    );
    assert_eq!(
        f.layer["cache.hits"], 0.0,
        "fleet-waves runs no keyed cache"
    );
}

#[test]
fn the_seed_reaches_the_program() {
    for w in WORKLOADS {
        let (a, _) = tiny(w, 1, false);
        let (b, _) = tiny(w, 2, false);
        assert!(
            a.correct() && b.correct(),
            "{w}: {:?} {:?}",
            a.failures,
            b.failures
        );
        assert_ne!(
            sim_outputs(&a),
            sim_outputs(&b),
            "{w}: seeds 1 and 2 simulate alike"
        );
    }
}

#[test]
fn a_fixed_seed_repeats_its_simulated_outputs() {
    let (a, _) = tiny("cache-trace", 5, false);
    let (b, _) = tiny("cache-trace", 5, false);
    assert_eq!(sim_outputs(&a), sim_outputs(&b));
}

#[test]
fn unknown_workloads_are_rejected() {
    let spec = Spec {
        seed: 0,
        seconds: 0.0,
        workers: 1,
        size: Size::Tiny,
    };
    assert!(run_workload("nope", &spec, &mut Tracer::new(false)).is_err());
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
    let entries = json.matches("{\"name\": ").count();
    assert_eq!(
        entries,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
