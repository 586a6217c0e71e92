//! `bench_engine` parses its flags strictly: a typo or an `--only`
//! filter that selects nothing exits 2 with usage before simulating
//! anything, instead of silently running the full matrix or nothing.

use std::process::Command;

const BENCH_ENGINE: &str = env!("CARGO_BIN_EXE_bench_engine");

/// Runs `bench_engine` with `args` plus `--out <fresh path>` and checks
/// the bad-usage contract: exit 2, usage and `expected` on stderr,
/// nothing on stdout, no JSON written.
fn assert_bad_usage(case: &str, args: &[&str], expected: &str) {
    let out_path = std::env::temp_dir().join(format!(
        "gtt-bench-engine-cli-{case}-{}.json",
        std::process::id()
    ));
    let out = Command::new(BENCH_ENGINE)
        .args(args)
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("spawn bench_engine");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(expected) && stderr.contains("usage:"),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert!(!out_path.exists(), "{args:?} wrote {}", out_path.display());
}

#[test]
fn unknown_flag_exits_2() {
    assert_bad_usage("bogus", &["--quick", "--bogus"], "unknown flag --bogus");
}

#[test]
fn only_matching_no_case_exits_2() {
    assert_bad_usage(
        "no-case",
        &["--only", "no-such-case"],
        "--only matches no case",
    );
}
