//! # gtt-bench — the experiment harness
//!
//! Regenerates every figure of the GT-TSCH paper's evaluation (§VIII):
//!
//! | Binary | Paper figure | Sweep |
//! |---|---|---|
//! | `fig8`  | Fig. 8a–f  | traffic 30/75/120/165 ppm per node |
//! | `fig9`  | Fig. 9a–f  | DODAG size 6/7/8/9 nodes (× 2 DODAGs) |
//! | `fig10` | Fig. 10a–f | Orchestra unicast slotframe 8/12/16/20, GT-TSCH at 4× |
//! | `fig_noise` | — (robustness) | interference-burst depth and period |
//! | `ablation_weights` | §VII-D discussion | α/β/γ settings of the payoff |
//! | `ablation_channel` | §III strategies | Algorithm 1 vs hash-based channels |
//! | `diagnose` | — | one verbose run with per-node breakdown |
//! | `sweep_worker` | — | fills the sweep cache from a work-stealing queue |
//!
//! Each figure binary prints the paper's six series (PDR, end-to-end
//! delay, packet loss, radio duty cycle, queue loss, received
//! packets/minute) as one table per sub-figure, averaged over seeds,
//! ready to paste into `EXPERIMENTS.md` — or, with `--list`, dumps its
//! cells as canonical-key / cache-status / encoded-experiment lines, or,
//! with `--enqueue`, feeds them to the fault-tolerant queue fabric of
//! [`queue`] that `sweep_worker` processes drain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod queue;
pub mod sweep;
pub mod table;

pub use cli::{figure_main, jobs_from, FigureSweep};
pub use figures::{
    ablation_channel, ablation_channel_points, ablation_weights, ablation_weights_points, fig10,
    fig10_points, fig10_sweeps, fig8, fig8_points, fig8_sweeps, fig9, fig9_points, fig9_sweeps,
    fig_noise_depth, fig_noise_depth_points, fig_noise_period, fig_noise_period_points,
    fig_noise_sweeps,
};
pub use queue::{
    enqueue_points, run_queue_worker, EnqueueSummary, QueueCell, QueueDir, QueueWorkerConfig,
    QueueWorkerStats, Requeue, StaleTracker,
};
pub use sweep::{
    cell_key, probe_cached, render_shard_list, PointResult, SweepConfig, SweepPoint, SweepResults,
};
pub use table::render_figure_tables;
