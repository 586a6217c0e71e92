//! Multi-process sweep worker: steals cells from a fault-tolerant
//! on-disk queue and fills the shared sweep cache.
//!
//! Usage:
//!
//! ```text
//! sweep_worker --queue QUEUE_DIR [--cache-dir DIR] [--jobs N]
//!              [--heartbeat-ms MS] [--lease-timeout-ms MS] [--retries N]
//! ```
//!
//! The worker claims cells from a queue directory populated by a figure
//! binary's `--enqueue`, heartbeats its leases, steals cells whose owner
//! died (stale heartbeat → requeue with retry budget), and parks cells
//! that keep failing in `failed/`. Results go to the sweep cache
//! (default `target/sweep-cache`). Any number of workers — processes or
//! hosts sharing the directory — drain the same queue; killing one
//! loses no cells. See `crates/bench/src/queue.rs` and ARCHITECTURE.md
//! ("Sweep fabric") for the lease lifecycle.
//!
//! ```text
//! fig8 --quick --enqueue Q
//! sweep_worker --queue Q & sweep_worker --queue Q & wait
//! fig8 --quick        # 100% cache hits, byte-identical tables
//! ```
//!
//! Workers never coordinate beyond the queue's atomic renames:
//! overlapping work at worst duplicates a deterministic computation
//! (identical bytes, last atomic rename wins) and never poisons the
//! cache. Exit status: 0 on a clean drain, 1 if any cell ended in
//! `failed/` or leaked, 2 on a command-line error.

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use gtt_bench::{run_queue_worker, QueueWorkerConfig};

const USAGE: &str =
    "usage: sweep_worker --queue QUEUE_DIR [--cache-dir DIR] [--jobs N]\n                    \
                    [--heartbeat-ms MS] [--lease-timeout-ms MS] [--retries N]";

const HELP: &str = "\nFills the shared sweep cache with cells claimed from a queue.\n\n\
Options:\n  \
--queue QUEUE_DIR      claim cells from this queue directory (see\n                         \
`fig8 --enqueue`); required\n  \
--cache-dir DIR        sweep cache location (default target/sweep-cache)\n  \
--jobs N               worker threads (default: one per core)\n  \
--heartbeat-ms MS      lease re-stamp interval (default 500)\n  \
--lease-timeout-ms MS  how long a frozen heartbeat must be observed\n                         \
before the lease is stolen (default 10000)\n  \
--retries N            requeues per cell before it is parked in\n                         \
failed/ (default 3)\n  \
--help                 this text\n";

fn bad_usage(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    exit(2);
}

struct Args {
    cache_dir: PathBuf,
    jobs: usize,
    queue: PathBuf,
    heartbeat: Duration,
    lease_timeout: Duration,
    retries: u32,
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut queue = None;
    let mut parsed = Args {
        cache_dir: PathBuf::from("target/sweep-cache"),
        jobs: 0,
        queue: PathBuf::new(),
        heartbeat: Duration::from_millis(500),
        lease_timeout: Duration::from_millis(10_000),
        retries: 3,
    };
    let mut i = 0;
    while i < args.len() {
        // A flag value may not itself look like a flag: `--cache-dir
        // --jobs` is a forgotten value, not a directory named --jobs.
        let value_of = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            match args.get(*i) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => bad_usage(&format!("{flag} needs a value")),
            }
        };
        let millis_of = |i: &mut usize, flag: &str| -> Duration {
            match value_of(i, flag).parse::<u64>() {
                Ok(ms) if ms > 0 => Duration::from_millis(ms),
                _ => bad_usage(&format!("{flag} needs a positive millisecond count")),
            }
        };
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}\n{HELP}");
                exit(0);
            }
            "--cache-dir" => parsed.cache_dir = PathBuf::from(value_of(&mut i, "--cache-dir")),
            "--queue" => queue = Some(PathBuf::from(value_of(&mut i, "--queue"))),
            "--jobs" => match value_of(&mut i, "--jobs").parse::<usize>() {
                Ok(n) if n > 0 => parsed.jobs = n,
                _ => bad_usage("--jobs needs a positive integer"),
            },
            "--heartbeat-ms" => parsed.heartbeat = millis_of(&mut i, "--heartbeat-ms"),
            "--lease-timeout-ms" => parsed.lease_timeout = millis_of(&mut i, "--lease-timeout-ms"),
            "--retries" => match value_of(&mut i, "--retries").parse::<u32>() {
                Ok(n) => parsed.retries = n,
                Err(_) => bad_usage("--retries needs a non-negative integer"),
            },
            flag if flag.starts_with("--") => bad_usage(&format!("unknown flag {flag}")),
            other => bad_usage(&format!("unexpected argument {other}")),
        }
        i += 1;
    }
    parsed.queue = queue.unwrap_or_else(|| bad_usage("need --queue QUEUE_DIR"));
    parsed
}

/// Drains the work-stealing queue, then reports and gates the exit
/// status on the queue-wide failure/leak counts.
fn main() {
    let args = parse_args();
    let mut config = QueueWorkerConfig::new(args.queue, &args.cache_dir);
    config.jobs = args.jobs;
    config.heartbeat = args.heartbeat;
    config.lease_timeout = args.lease_timeout;
    config.retry_budget = args.retries;
    let worker_id = config.worker_id.clone();
    let stats = run_queue_worker(&config).unwrap_or_else(|e| {
        eprintln!("sweep_worker[{worker_id}]: queue IO error: {e}");
        exit(1);
    });
    println!(
        "sweep_worker[{worker_id}]: {} done ({} computed, {} cache hits), \
         {} requeued, {} failed, {} corrupt, {} lost",
        stats.completed,
        stats.computed,
        stats.cache_hits,
        stats.requeued,
        stats.failed_total,
        stats.corrupt,
        stats.lost
    );
    if stats.store_errors > 0 {
        eprintln!(
            "sweep_worker[{worker_id}]: {} cache store errors (cells were requeued)",
            stats.store_errors
        );
    }
    exit(i32::from(stats.failed_total + stats.lost > 0));
}
