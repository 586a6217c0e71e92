//! Every sweep binary shares the one `figure_main` front end: a typo
//! exits 2 with usage instead of silently running the full sweep, and
//! `--list` dry-runs the binary's own cells without simulating.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::Command;

/// Each sweep binary with its cell count under `--quick` (2 seeds).
const BINARIES: [(&str, &str, usize); 4] = [
    ("fig8", env!("CARGO_BIN_EXE_fig8"), 16),
    (
        "ablation_channel",
        env!("CARGO_BIN_EXE_ablation_channel"),
        8,
    ),
    (
        "ablation_weights",
        env!("CARGO_BIN_EXE_ablation_weights"),
        8,
    ),
    (
        "ablation_orchestra",
        env!("CARGO_BIN_EXE_ablation_orchestra"),
        16,
    ),
];

/// A cache directory nothing has written to, so every cell lists as a
/// miss and no state leaks in from earlier runs.
fn empty_cache_dir(bin: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gtt-figure-cli-{bin}-{}", std::process::id()))
}

#[test]
fn unknown_flags_exit_2() {
    for (bin, exe, _) in BINARIES {
        let out = Command::new(exe)
            .args(["--quick", "--bogus"])
            .output()
            .expect("spawn sweep binary");
        assert_eq!(out.status.code(), Some(2), "{bin} --quick --bogus");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag --bogus") && stderr.contains("usage:"),
            "{bin}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} printed tables on a bad flag");
    }
}

#[test]
fn list_prints_one_distinct_line_per_cell() {
    for (bin, exe, cells) in BINARIES {
        let cache = empty_cache_dir(bin);
        let out = Command::new(exe)
            .args(["--quick", "--list", "--cache-dir"])
            .arg(&cache)
            .output()
            .expect("spawn sweep binary");
        assert_eq!(out.status.code(), Some(0), "{bin} --quick --list");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 listing");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), cells, "{bin}: {stdout}");
        let mut keys = HashSet::new();
        for line in &lines {
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.len(), 3, "{bin}: malformed line {line:?}");
            let is_hex = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_hexdigit());
            assert!(is_hex(fields[0]), "{bin}: key {line:?}");
            assert!(matches!(fields[1], "hit" | "miss"), "{bin}: {line:?}");
            assert!(is_hex(fields[2]), "{bin}: experiment {line:?}");
            assert!(keys.insert(fields[0]), "{bin}: duplicate cell {line:?}");
        }
        assert!(!cache.exists(), "{bin}: --list wrote to the cache");
    }
}
