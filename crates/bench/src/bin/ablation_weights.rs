//! Ablation of the payoff weights α/β/γ (paper §VII-D) at 120 ppm.
//!
//! Usage: `ablation_weights [--quick] [--no-cache | --cache-only] [--cache-dir DIR]
//! [--jobs N] [--pcap PATH] [--list | --enqueue QUEUE_DIR]` — see
//! `--help` and [`gtt_bench::figure_main`].

use gtt_bench::{ablation_weights_sweeps, figure_main};

fn main() {
    figure_main("ablation_weights", ablation_weights_sweeps());
}
