//! `m3run` argument validation: a node count or node size that cannot
//! describe a real node is refused with the usage text and exit code 2,
//! before any simulation runs.

use std::process::Command;

fn m3run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_m3run"))
        .args(args)
        .output()
        .expect("m3run starts")
}

#[test]
fn bad_node_counts_and_sizes_exit_with_usage() {
    for bad in [
        ["--phys-gib", "20000000000"],
        ["--phys-gib", "0"],
        ["--nodes", "0"],
    ] {
        let mut args = vec!["run", "MMW180"];
        args.extend(bad);
        let out = m3run(&args);
        assert_eq!(out.status.code(), Some(2), "{bad:?} must be rejected");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{bad:?} must print usage"
        );
        assert!(out.stdout.is_empty(), "{bad:?} must not run anything");
    }
}
