//! Command line of the benchmark.
//!
//! `gtt-perfbench --workload <fig-sweep|city-1k-steady|city-10k-stress>
//! --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Prints notes (report fingerprints, sample counts, PDR) and, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The exit code is 1 when a check failed. A traced run
//! also writes its spans as JSON lines under `.perfbench_run/`.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use gtt_perfbench::{result_json, run, Options, Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Where sweep caches and span files go, relative to the working
/// directory (the root of the checkout).
const RUN_DIR: &str = ".perfbench_run";

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: gtt-perfbench --workload <fig-sweep|city-1k-steady|city-10k-stress> \
         [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         seeds: {DEFAULT_SEED} is the default, {HELD_OUT_SEED} the held-out seed"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--smoke" {
            smoke = true;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag {
            "--workload" => {
                workload = Workload::parse(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| seconds = v)
                .is_ok_and(|()| seconds.is_finite() && seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        scratch: PathBuf::from(RUN_DIR),
    };
    let outcome = run(&opts);
    for note in &outcome.notes {
        println!("{note}");
    }
    if trace {
        let path =
            PathBuf::from(RUN_DIR).join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        let written = std::fs::create_dir_all(RUN_DIR)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut out = std::io::BufWriter::new(f);
                for (repeat, t) in outcome.tracers.iter().enumerate() {
                    t.write_jsonl(repeat, &mut out)?;
                }
                out.flush()
            });
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write spans to {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&outcome));
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
