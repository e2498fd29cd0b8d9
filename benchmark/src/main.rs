//! The benchmark runner.
//!
//! ```text
//! m3-benchmark --workload <paper-node|cache-trace|fleet-waves> --seed <n>
//!              --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload and prints every end-to-end metric.
//! `--trace 1` first runs the same invocation untraced in a child process
//! (so both start with a cold memo cache), then runs the workload with
//! spans and the per-layer probes, prints the per-layer table and the
//! tracing overhead, writes the spans under `out/`, and prints every
//! per-layer metric. The last stdout line is always the JSON result; the
//! exit code is 1 when any check failed and 2 on a usage error.
//!
//! An untraced `fleet-waves` invocation takes each of its samples in a
//! child process started with the internal flag `--sample 1`, because only
//! a fresh process runs the fleet cold.

use std::process::{Command, ExitCode};
use std::time::Instant;

use m3_benchmark::report::{correct_from_line, metric_from_line};
use m3_benchmark::spans::to_json_lines;
use m3_benchmark::{
    fleet_waves, run_workload, summarize_trace, Report, Size, Spec, Tracer, WORKLOADS,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one in-process sample (the children of a fanned-out run).
    sample: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut sample = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("expected one of {}", WORKLOADS.join(", ")))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("expected a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--sample" => sample = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sample,
    })
}

/// Pins `M3_JOBS` to at most the host's CPU count and clears `M3_TRACE`
/// (which would make every run write its trace to disk). Returns the
/// pinned worker count and the CPU count.
fn pin_environment() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asked = std::env::var("M3_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(nproc);
    let workers = asked.min(nproc);
    std::env::set_var("M3_JOBS", workers.to_string());
    std::env::remove_var("M3_TRACE");
    (workers, nproc)
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs this program as a child with `extra` appended to the workload and
/// seed, and returns its stdout lines; fails if it printed no result.
fn child(args: &Args, extra: &[&str]) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(extra)
        .output()
        .map_err(|e| format!("child process: {e}"))?;
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    match lines.last() {
        Some(last) if last.starts_with("{\"correct\": ") => Ok(lines),
        _ => Err(format!(
            "child {extra:?} printed no result ({})",
            out.status
        )),
    }
}

/// Takes `fleet-waves` samples in fresh processes until the window closes
/// (never fewer than [`fleet_waves::SAMPLES`]) and merges them.
fn fan_out(args: &Args) -> Result<Report, String> {
    let window = Instant::now();
    let mut results = Vec::new();
    while results.len() < fleet_waves::SAMPLES || window.elapsed().as_secs_f64() < args.seconds {
        let lines = child(args, &["--seconds", "0", "--trace", "0", "--sample", "1"])?;
        let (result, notes) = lines.split_last().expect("a child result");
        for note in notes.iter().filter(|l| !l.starts_with('{')) {
            println!("sample {}: {note}", results.len());
        }
        results.push(result.clone());
    }
    Ok(fleet_waves::merge_samples(&results))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: m3-benchmark --workload <paper-node|cache-trace|fleet-waves> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (workers, nproc) = pin_environment();
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"m3_jobs\": {workers}, \"nproc\": {nproc}, \"rustc\": \"{}\", \"git_sha\": \"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("BENCH_RUSTC_VERSION"),
        git_sha()
    );

    if args.workload == "fleet-waves" && !args.trace && !args.sample {
        return match fan_out(&args) {
            Ok(report) => emit(&report, false),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    let untraced = if args.trace {
        let seconds = args.seconds.to_string();
        match child(&args, &["--seconds", &seconds, "--trace", "0"]) {
            Ok(lines) => lines.last().cloned(),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };

    let spec = Spec {
        seed: args.seed,
        seconds: args.seconds,
        workers,
        size: Size::Full,
    };
    let mut tracer = Tracer::new(args.trace);
    let mut report = match run_workload(&args.workload, &spec, &mut tracer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(line) = untraced {
        if !correct_from_line(&line) {
            report.fail(0, "the untraced run failed its checks".into());
        }
        let base = metric_from_line(&line, "run_p50_ms").unwrap_or(f64::NAN);
        let spans = tracer.spans();
        let rows = summarize_trace(&mut report, spans, base);
        println!("layer                 spans     self ms  counts");
        for (layer, self_ms, n) in &rows {
            // The memo cache of `workloads::parallel` names its metrics
            // `workloads.memo.*`.
            let prefix = match *layer {
                "workloads.parallel" => "workloads.memo.".to_string(),
                l => format!("{l}."),
            };
            let counts: Vec<String> = report
                .layer
                .iter()
                .filter_map(|(k, v)| Some(format!("{}={v:.6}", k.strip_prefix(&prefix)?)))
                .collect();
            println!("{layer:<20} {n:>6} {self_ms:>11.3}  {}", counts.join(" "));
        }
        println!(
            "tracing overhead: run_p50_ms {:.4} traced vs {base:.4} untraced = {:+.4} ms ({:+.2} %)",
            report.e2e["run_p50_ms"],
            report.layer["bench.trace.overhead_ms"],
            report.layer["bench.trace.overhead_pct"]
        );
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.jsonl", args.workload, args.seed);
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, to_json_lines(spans)))
        {
            Ok(()) => println!("spans: {} written to {path}", spans.len()),
            Err(e) => report.fail(0, format!("writing {path}: {e}")),
        }
    }

    emit(&report, args.trace)
}

/// Prints the notes, the failed checks and the result line; the exit code
/// says whether every check passed.
fn emit(report: &Report, traced: bool) -> ExitCode {
    for note in &report.notes {
        println!("{note}");
    }
    for failure in &report.failures {
        println!("CHECK FAILED: {failure}");
    }
    let line = report.result_line(traced);
    let ok = correct_from_line(&line);
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
