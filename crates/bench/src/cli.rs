//! Shared command-line front end of the figure binaries.
//!
//! Every figure binary (`fig8`, `fig9`, `fig10`, `fig_noise`) is a thin
//! wrapper over [`figure_main`]: it contributes its [`FigureSweep`]s
//! (table name, x axis, declarative cell list) and this module supplies
//! one strict, uniform flag surface:
//!
//! ```text
//! fig8 [--quick] [--no-cache | --cache-only] [--cache-dir DIR]
//!      [--jobs N] [--pcap PATH] [--list | --enqueue QUEUE_DIR] [--help]
//! ```
//!
//! Unknown flags, missing values and conflicting modes print the usage
//! to stderr and exit with status 2 — never a panic, and never a flag
//! value silently eaten by the next flag.

use std::path::PathBuf;
use std::process::exit;

use crate::queue::{enqueue_points, QueueDir};
use crate::sweep::{render_shard_list, run_sweep, SweepConfig, SweepPoint};
use crate::table::render_figure_tables;

/// One sub-figure sweep a binary renders: its table label, x-axis name
/// and declarative cell list.
#[derive(Debug, Clone)]
pub struct FigureSweep {
    /// Table label (`"8"`, `"noise-depth"`, …) for
    /// [`render_figure_tables`].
    pub table: &'static str,
    /// Human-readable x-axis name passed to [`run_sweep`].
    pub x_axis: &'static str,
    /// The sweep's points.
    pub points: Vec<SweepPoint>,
}

/// Parses `--jobs N` from an argv slice: `0` (auto — one worker per
/// available core) when the flag is absent. Shared by every binary that
/// fans simulation out over threads (`fig*`, `bench_engine`). A
/// missing or non-positive value prints an error to stderr and exits
/// with status 2 — a silently defaulted job count would hide a typo in
/// a benchmark command line.
pub fn jobs_from(args: &[String]) -> usize {
    match args.iter().position(|a| a == "--jobs") {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n > 0 => n,
            _ => {
                eprintln!("error: --jobs needs a positive integer");
                exit(2);
            }
        },
        None => 0,
    }
}

/// What a figure binary was asked to do.
enum Mode {
    /// Simulate (or serve from cache) and print the tables.
    Run,
    /// Print `<key> <hit|miss> <hex>` lines; simulate nothing.
    List,
    /// Populate a work-stealing queue directory with the cells.
    Enqueue(PathBuf),
}

/// Parsed figure command line.
struct FigureArgs {
    config: SweepConfig,
    mode: Mode,
    /// `--pcap PATH`: after the tables, re-run the figure's first cell
    /// (first sweep, first point, first configured seed) with a frame
    /// tap and write the capture here.
    pcap: Option<PathBuf>,
}

fn usage(bin: &str) -> String {
    format!(
        "usage: {bin} [--quick] [--no-cache | --cache-only] [--cache-dir DIR] \
         [--jobs N] [--pcap PATH] [--list | --enqueue QUEUE_DIR] [--help]"
    )
}

fn help(bin: &str) -> String {
    format!(
        "{}\n\n\
         Renders the figure's six series tables, averaged over seeds.\n\n\
         Options:\n  \
         --quick              average 2 seeds instead of 5\n  \
         --no-cache           ignore the persistent sweep cache entirely\n  \
         --cache-only         render from the cache without simulating;\n                       \
         absent cells are reported per point and shown as n/a\n                       \
         (exit status 1 if any cell was missing)\n  \
         --cache-dir DIR      sweep cache location (default target/sweep-cache)\n  \
         --jobs N             worker threads (default: one per core)\n  \
         --pcap PATH          also write an IEEE 802.15.4 pcap trace of the\n                       \
         figure's first cell (first point, first seed) to PATH;\n                       \
         deterministic — same binary and flags, same bytes\n  \
         --list               print one '<key> <hit|miss> <hex experiment>' line\n                       \
         per cell, without simulating (a dry run)\n  \
         --enqueue QUEUE_DIR  add every cell not already cached to a\n                       \
         work-stealing queue directory (see sweep_worker --queue)\n  \
         --help               this text\n",
        usage(bin)
    )
}

/// Prints `message` + usage to stderr and exits with status 2.
fn bad_usage(bin: &str, message: &str) -> ! {
    eprintln!("error: {message}\n{}", usage(bin));
    exit(2);
}

/// Strictly parses a figure binary's argv (no positionals allowed).
fn parse_figure_args(bin: &str) -> FigureArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut no_cache = false;
    let mut cache_only = false;
    let mut list = false;
    let mut enqueue: Option<PathBuf> = None;
    let mut cache_dir = String::from("target/sweep-cache");
    let mut jobs = 0usize;
    let mut pcap: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        // A flag value may not itself look like a flag: `--cache-dir
        // --quick` is a forgotten value, not a directory named --quick.
        let value_of = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            match args.get(*i) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => bad_usage(bin, &format!("{flag} needs a value")),
            }
        };
        match args[i].as_str() {
            "--quick" => quick = true,
            "--no-cache" => no_cache = true,
            "--cache-only" => cache_only = true,
            "--list" => list = true,
            "--help" | "-h" => {
                print!("{}", help(bin));
                exit(0);
            }
            "--cache-dir" => cache_dir = value_of(&mut i, "--cache-dir"),
            "--enqueue" => enqueue = Some(PathBuf::from(value_of(&mut i, "--enqueue"))),
            "--pcap" => pcap = Some(PathBuf::from(value_of(&mut i, "--pcap"))),
            "--jobs" => match value_of(&mut i, "--jobs").parse::<usize>() {
                Ok(n) if n > 0 => jobs = n,
                _ => bad_usage(bin, "--jobs needs a positive integer"),
            },
            flag if flag.starts_with("--") => bad_usage(bin, &format!("unknown flag {flag}")),
            positional => bad_usage(bin, &format!("unexpected argument {positional}")),
        }
        i += 1;
    }

    if no_cache && cache_only {
        bad_usage(bin, "--no-cache and --cache-only contradict each other");
    }
    if list && enqueue.is_some() {
        bad_usage(bin, "--list and --enqueue are mutually exclusive");
    }
    if no_cache && enqueue.is_some() {
        bad_usage(bin, "--enqueue needs the cache (drop --no-cache)");
    }
    if pcap.is_some() && (list || enqueue.is_some()) {
        bad_usage(bin, "--pcap only applies when the figure actually runs");
    }
    if pcap.is_some() && cache_only {
        // --cache-only promises "no simulation"; a trace is always a
        // fresh simulation (the cache stores reports, not frames).
        bad_usage(bin, "--pcap re-simulates a cell; drop --cache-only");
    }

    let mut config = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::default()
    };
    config.threads = jobs;
    config.cache_only = cache_only;
    if !no_cache {
        config = config.cached(cache_dir);
    }
    let mode = match enqueue {
        Some(dir) => Mode::Enqueue(dir),
        None if list => Mode::List,
        None => Mode::Run,
    };
    FigureArgs { config, mode, pcap }
}

/// The whole `main` of a figure binary: parses the uniform flag set,
/// then lists, enqueues, or runs + renders the given sweeps.
///
/// In run mode the tables go to stdout and a cache summary to stderr.
/// With `--cache-only`, cells absent from the cache are reported per
/// point on stderr, rendered as `n/a`, and make the process exit 1 —
/// a partially-warm cache yields a partial figure, never a panic.
pub fn figure_main(bin: &str, sweeps: Vec<FigureSweep>) {
    let FigureArgs { config, mode, pcap } = parse_figure_args(bin);

    // `--pcap` traces the figure's first cell: first sweep, first
    // point, first configured seed. Captured up front because run mode
    // consumes the sweeps.
    let trace_cell = pcap.map(|path| {
        let point = sweeps
            .first()
            .and_then(|s| s.points.first())
            .unwrap_or_else(|| bad_usage(bin, "--pcap needs a figure with at least one cell"));
        let seed = *config.seeds.first().expect("sweep config has seeds");
        (point.experiment.with_seed(seed), path)
    });

    match mode {
        Mode::List => {
            let points: Vec<SweepPoint> =
                sweeps.into_iter().flat_map(|sweep| sweep.points).collect();
            print!("{}", render_shard_list(&points, &config));
        }
        Mode::Enqueue(dir) => {
            let points: Vec<SweepPoint> =
                sweeps.into_iter().flat_map(|sweep| sweep.points).collect();
            let queue = QueueDir::open(&dir).unwrap_or_else(|e| {
                eprintln!("error: cannot open queue {}: {e}", dir.display());
                exit(1);
            });
            let summary = enqueue_points(&queue, &points, &config).unwrap_or_else(|e| {
                eprintln!("error: enqueue into {} failed: {e}", dir.display());
                exit(1);
            });
            eprintln!(
                "{bin}: enqueued {} cells into {} ({} already cached, {} already queued, \
                 {} corrupt quarantined)",
                summary.enqueued,
                dir.display(),
                summary.already_cached,
                summary.already_queued,
                summary.corrupt
            );
        }
        Mode::Run => {
            let seeds = config.seeds.len();
            let mut hits = 0;
            let mut misses = 0;
            let mut corrupt = 0;
            let mut store_errors = 0;
            let mut missing = 0;
            let mut first_store_error: Option<String> = None;
            for sweep in sweeps {
                eprintln!("running {bin} sweep {} ({seeds} seeds/point)…", sweep.table);
                let results = run_sweep(sweep.x_axis, sweep.points, &config);
                print!("{}", render_figure_tables(sweep.table, &results));
                for p in &results.points {
                    if p.missing > 0 {
                        eprintln!(
                            "  missing {}/{seeds} cells: {} at {}={}",
                            p.missing, p.scheduler, sweep.x_axis, p.x_label
                        );
                    }
                }
                hits += results.cache_hits;
                misses += results.cache_misses;
                corrupt += results.corrupt_cells;
                store_errors += results.store_errors;
                missing += results.missing_cells;
                if first_store_error.is_none() {
                    first_store_error = results.first_store_error;
                }
            }
            eprintln!(
                "sweep cache: {hits} hits, {misses} misses, {corrupt} corrupt, \
                 {store_errors} store errors, {missing} missing"
            );
            if let Some((experiment, path)) = trace_cell {
                // A dedicated traced re-run of the first cell: the
                // sweep above serves reports (possibly from cache);
                // the trace is always simulated fresh so its bytes are
                // a pure function of the experiment, never of cache
                // state. Reports are byte-identical with the tap on.
                eprintln!("{bin}: tracing first cell to {}…", path.display());
                let exp = experiment.with_trace(&path);
                let _report = exp.run();
                eprintln!(
                    "{bin}: wrote {} bytes of pcap",
                    std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
                );
            }
            if store_errors > 0 {
                eprintln!(
                    "warning: {store_errors} cache write-backs failed (first: {})",
                    first_store_error.as_deref().unwrap_or("unknown")
                );
            }
            if missing > 0 {
                eprintln!(
                    "warning: {missing} cells absent from the cache — figure is partial \
                     (n/a cells); finish the queue workers and re-render"
                );
                exit(1);
            }
        }
    }
}
