//! Regenerates the paper's Fig. 10 (all six sub-figures).
//!
//! Usage: `fig10 [--quick] [--no-cache | --cache-only] [--cache-dir
//! DIR] [--jobs N] [--list | --enqueue QUEUE_DIR]` — `--quick` averages
//! 2 seeds instead of 5; cells are served from / into the persistent
//! sweep cache (default `target/sweep-cache`) unless `--no-cache` is
//! given. `--list` prints one `<key> <hit|miss> <encoded experiment>`
//! line per cell without simulating (a dry run); `--enqueue` adds
//! uncached cells to a fault-tolerant work-stealing queue
//! (`sweep_worker --queue`); `--cache-only` renders from whatever the
//! cache holds, reporting absent cells per point as `n/a`. See
//! `--help`.

use gtt_bench::{fig10_sweeps, figure_main};

fn main() {
    figure_main("fig10", fig10_sweeps());
}
