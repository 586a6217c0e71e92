//! Ablation of Algorithm 1's channel allocation vs. hash-based channels
//! (paper §III strategies).
//!
//! Usage: `ablation_channel [--quick] [--no-cache | --cache-only] [--cache-dir DIR]
//! [--jobs N] [--pcap PATH] [--list | --enqueue QUEUE_DIR]` — see
//! `--help` and [`gtt_bench::figure_main`].

use gtt_bench::{ablation_channel_sweeps, figure_main};

fn main() {
    figure_main("ablation_channel", ablation_channel_sweeps());
}
