//! Golden-trace helpers shared by the suites that pin traces (`conformance`
//! and `fleet`).
//!
//! Golden snapshots live in `tests/golden/`; `M3_UPDATE_GOLDEN=1` rewrites
//! them. On a mismatch the offending trace is written under
//! `target/conformance-artifacts/` so CI can upload it.

use std::fs;
use std::path::PathBuf;

use m3::sim::trace::TraceLog;

/// Serializes a trace one compact JSON object per line, so golden files
/// diff line-by-line in review.
pub fn trace_jsonl(trace: &TraceLog) -> String {
    let mut out = String::new();
    for e in trace.events() {
        out.push_str(&serde_json::to_string(e).expect("trace event serializes"));
        out.push('\n');
    }
    out
}

/// The committed snapshots, `tests/golden/`.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn artifact_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("conformance-artifacts")
}

/// Writes `contents` to `target/conformance-artifacts/<name>` and returns
/// the path written.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let dump = artifact_dir().join(name);
    fs::create_dir_all(artifact_dir()).expect("create artifact dir");
    fs::write(&dump, contents).expect("write artifact");
    dump
}

/// Reads the committed golden snapshot `name`; the panic names the suite
/// that regenerates it.
pub fn read_golden(name: &str) -> String {
    let path = golden_dir().join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             M3_UPDATE_GOLDEN=1 cargo test --test {}",
            path.display(),
            env!("CARGO_CRATE_NAME")
        )
    })
}

/// Compares `actual` against the golden snapshot `name`, writing the
/// offending trace to `target/conformance-artifacts/` on divergence.
/// `M3_UPDATE_GOLDEN=1` rewrites the snapshot instead.
pub fn assert_golden(name: &str, actual: &str) {
    if std::env::var("M3_UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(golden_dir()).expect("create golden dir");
        fs::write(golden_dir().join(name), actual).expect("write golden");
        return;
    }
    let expected = read_golden(name);
    if expected != actual {
        let dump = write_artifact(name, actual);
        let first_diff = expected
            .lines()
            .zip(actual.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || "lengths differ".to_string(),
                |i| format!("first differing line {}", i + 1),
            );
        panic!(
            "trace diverged from golden {name} ({first_diff}); \
             offending trace written to {}",
            dump.display()
        );
    }
}
