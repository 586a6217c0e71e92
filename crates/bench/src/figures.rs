//! The figure sweeps of the paper's evaluation (§VIII).
//!
//! Every sweep exists twice: a `*_points()` constructor returning the
//! declarative [`SweepPoint`] list (what `--list` prints and
//! `--enqueue` queues) and a runner returning the raw [`SweepResults`],
//! so the binaries (printing tables), the `--list` dry run, the queue
//! and the integration tests all share one description of each figure.

use gt_tsch::{GameWeights, GtTschConfig};
use gtt_orchestra::OrchestraConfig;
use gtt_sim::SimDuration;
use gtt_workload::{Experiment, NoiseBurst, Overlay, RunSpec, ScenarioSpec, SchedulerKind};

use crate::cli::FigureSweep;
use crate::sweep::{run_sweep, SweepConfig, SweepPoint, SweepResults};

/// Warm-up before measurement (network formation + schedule
/// convergence), seconds.
const WARMUP_SECS: u64 = 120;
/// Measurement window, seconds (the paper measures steady state; five
/// minutes keeps rate metrics stable).
const MEASURE_SECS: u64 = 300;

fn spec(ppm: f64) -> RunSpec {
    RunSpec {
        traffic_ppm: ppm,
        warmup_secs: WARMUP_SECS,
        measure_secs: MEASURE_SECS,
        seed: 0,
        low_power: false,
    }
}

/// Both compared schedulers in table order.
fn contenders() -> [SchedulerKind; 2] {
    [
        SchedulerKind::gt_tsch_default(),
        SchedulerKind::orchestra_default(),
    ]
}

/// **Fig. 8** points — performance vs. traffic load (30/75/120/165 ppm
/// per node) on the two-DODAG, 14-node network.
pub fn fig8_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &ppm in &[30.0, 75.0, 120.0, 165.0] {
        for sched in contenders() {
            points.push(SweepPoint {
                x_label: format!("{ppm:.0}"),
                experiment: Experiment::new(ScenarioSpec::two_dodag(7), sched).with_run(spec(ppm)),
            });
        }
    }
    points
}

/// Runs the **Fig. 8** sweep.
pub fn fig8(config: &SweepConfig) -> SweepResults {
    run_sweep("ppm/node", fig8_points(), config)
}

/// The `fig8` binary's sweeps (for [`crate::figure_main`]).
pub fn fig8_sweeps() -> Vec<FigureSweep> {
    vec![FigureSweep {
        table: "8",
        x_axis: "ppm/node",
        points: fig8_points(),
    }]
}

/// **Fig. 9** points — performance vs. DODAG size (6–9 nodes per DODAG,
/// two DODAGs) at 120 ppm per node.
pub fn fig9_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for n in [6usize, 7, 8, 9] {
        for sched in contenders() {
            points.push(SweepPoint {
                x_label: n.to_string(),
                experiment: Experiment::new(ScenarioSpec::two_dodag(n), sched)
                    .with_run(spec(120.0)),
            });
        }
    }
    points
}

/// Runs the **Fig. 9** sweep.
pub fn fig9(config: &SweepConfig) -> SweepResults {
    run_sweep("nodes/DODAG", fig9_points(), config)
}

/// The `fig9` binary's sweeps (for [`crate::figure_main`]).
pub fn fig9_sweeps() -> Vec<FigureSweep> {
    vec![FigureSweep {
        table: "9",
        x_axis: "nodes/DODAG",
        points: fig9_points(),
    }]
}

/// **Fig. 10** points — performance vs. unicast slotframe length:
/// Orchestra at 8/12/16/20 slots, GT-TSCH with its single slotframe at
/// 4× that (§VIII: "we set the size of the GT-TSCH's slotframe equal to
/// four times of the unicast slotframe size of Orchestra"), 120 ppm.
pub fn fig10_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for len in [8u16, 12, 16, 20] {
        points.push(SweepPoint {
            x_label: len.to_string(),
            experiment: Experiment::new(
                ScenarioSpec::two_dodag(7),
                SchedulerKind::GtTsch(GtTschConfig::with_slotframe_len(len * 4)),
            )
            .with_run(spec(120.0)),
        });
        points.push(SweepPoint {
            x_label: len.to_string(),
            experiment: Experiment::new(
                ScenarioSpec::two_dodag(7),
                SchedulerKind::Orchestra(OrchestraConfig::with_unicast_len(len)),
            )
            .with_run(spec(120.0)),
        });
    }
    points
}

/// Runs the **Fig. 10** sweep.
pub fn fig10(config: &SweepConfig) -> SweepResults {
    run_sweep("unicast slotframe", fig10_points(), config)
}

/// The `fig10` binary's sweeps (for [`crate::figure_main`]).
pub fn fig10_sweeps() -> Vec<FigureSweep> {
    vec![FigureSweep {
        table: "10",
        x_axis: "unicast slotframe",
        points: fig10_points(),
    }]
}

/// **Noise figure** points — interference-burst depth sweep: GT-TSCH vs
/// Orchestra on the Fig. 8 network under periodic wideband noise
/// windows of increasing severity (`prr_factor` = fraction of nominal
/// PRR surviving a burst; 2 s bursts every 10 s, the Wi-Fi-beacon-like
/// duty cycle of [`NoiseBurst::wifi_like`]).
pub fn fig_noise_depth_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &prr_factor in &[1.0, 0.5, 0.2, 0.05] {
        for sched in contenders() {
            // `prr_factor == 1.0` would be a no-op overlay; keep the
            // clean column literally overlay-free so its canonical
            // encoding (and cache cells) are byte-shared with non-noise
            // sweeps of the same points (fig8's 120 ppm column).
            let overlays = (prr_factor < 1.0)
                .then_some(Overlay::Noise(NoiseBurst {
                    quiet: SimDuration::from_secs(8),
                    burst: SimDuration::from_secs(2),
                    prr_factor,
                }))
                .into_iter()
                .collect();
            points.push(SweepPoint {
                x_label: format!("{prr_factor:.2}"),
                experiment: Experiment {
                    scenario: ScenarioSpec::two_dodag(7),
                    scheduler: sched,
                    run: spec(120.0),
                    overlays,
                    trace: None,
                },
            });
        }
    }
    points
}

/// Runs the noise **depth** sweep.
pub fn fig_noise_depth(config: &SweepConfig) -> SweepResults {
    run_sweep("burst PRR factor", fig_noise_depth_points(), config)
}

/// **Noise figure** points — interference-burst period sweep: fixed 20%
/// PRR bursts of 2 s arriving every `quiet + 2` seconds, from rare to
/// near-continuous.
pub fn fig_noise_period_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &quiet_secs in &[18u64, 8, 3, 1] {
        for sched in contenders() {
            points.push(SweepPoint {
                x_label: format!("{}s", quiet_secs + 2),
                experiment: Experiment::new(ScenarioSpec::two_dodag(7), sched)
                    .with_run(spec(120.0))
                    .with_overlay(Overlay::Noise(NoiseBurst {
                        quiet: SimDuration::from_secs(quiet_secs),
                        burst: SimDuration::from_secs(2),
                        prr_factor: 0.2,
                    })),
            });
        }
    }
    points
}

/// Runs the noise **period** sweep.
pub fn fig_noise_period(config: &SweepConfig) -> SweepResults {
    run_sweep("burst period", fig_noise_period_points(), config)
}

/// The `fig_noise` binary's two sweeps (for [`crate::figure_main`]).
pub fn fig_noise_sweeps() -> Vec<FigureSweep> {
    vec![
        FigureSweep {
            table: "noise-depth",
            x_axis: "burst PRR factor",
            points: fig_noise_depth_points(),
        },
        FigureSweep {
            table: "noise-period",
            x_axis: "burst period",
            points: fig_noise_period_points(),
        },
    ]
}

/// **Ablation (§VII-D)** points — the α/β/γ preference weights of the
/// payoff function, on the Fig. 8 network at 120 ppm. Includes γ=0 (no
/// queue cost) and β=0 (no link cost) corners the paper discusses.
pub fn ablation_weights_points() -> Vec<SweepPoint> {
    let variants: [(&str, GameWeights); 4] = [
        (
            "paper",
            GameWeights {
                alpha: 1.0,
                beta: 0.5,
                gamma: 1.0,
            },
        ),
        (
            "no-queue",
            GameWeights {
                alpha: 1.0,
                beta: 0.5,
                gamma: 0.0,
            },
        ),
        (
            "no-link",
            GameWeights {
                alpha: 1.0,
                beta: 0.0,
                gamma: 1.0,
            },
        ),
        (
            "link-heavy",
            GameWeights {
                alpha: 1.0,
                beta: 2.0,
                gamma: 0.5,
            },
        ),
    ];
    let mut points = Vec::new();
    for (label, weights) in variants {
        let cfg = GtTschConfig {
            weights,
            ..GtTschConfig::paper_default()
        };
        points.push(SweepPoint {
            x_label: label.to_string(),
            experiment: Experiment::new(ScenarioSpec::two_dodag(7), SchedulerKind::GtTsch(cfg))
                .with_run(spec(120.0)),
        });
    }
    points
}

/// Runs the weight ablation.
pub fn ablation_weights(config: &SweepConfig) -> SweepResults {
    run_sweep("weights", ablation_weights_points(), config)
}

/// **Ablation (§III)** points — Algorithm 1's coordinated channel
/// allocation vs. the hash-based strawman, on the Fig. 8 network across
/// loads.
pub fn ablation_channel_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &ppm in &[75.0, 165.0] {
        points.push(SweepPoint {
            x_label: format!("{ppm:.0}"),
            experiment: Experiment::new(
                ScenarioSpec::two_dodag(7),
                SchedulerKind::GtTsch(GtTschConfig::paper_default()),
            )
            .with_run(spec(ppm)),
        });
        points.push(SweepPoint {
            x_label: format!("{ppm:.0}"),
            experiment: Experiment::new(
                ScenarioSpec::two_dodag(7),
                SchedulerKind::GtTsch(GtTschConfig {
                    hash_channels: true,
                    ..GtTschConfig::paper_default()
                }),
            )
            .with_run(spec(ppm)),
        });
    }
    points
}

/// Runs the channel ablation.
pub fn ablation_channel(config: &SweepConfig) -> SweepResults {
    // Distinguish the two variants by name for the table.
    let mut results = run_sweep("ppm/node", ablation_channel_points(), config);
    let mut algo1_seen = std::collections::BTreeSet::new();
    for p in &mut results.points {
        // Points alternate algorithm-1 / hash per x; rename the second.
        if !algo1_seen.insert(p.x_label.clone()) {
            p.scheduler = "gt-tsch-hash";
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::cell_key;

    /// One fast end-to-end pass of the fig8 machinery (1 seed, light
    /// load only) — the full run is exercised by the `fig8` binary.
    #[test]
    fn fig8_machinery_smoke() {
        let points = vec![SweepPoint {
            x_label: "30".into(),
            experiment: Experiment::new(
                ScenarioSpec::two_dodag(6),
                SchedulerKind::gt_tsch_default(),
            )
            .with_run(RunSpec {
                traffic_ppm: 30.0,
                warmup_secs: 60,
                measure_secs: 60,
                seed: 0,
                ..RunSpec::default()
            }),
        }];
        let results = run_sweep(
            "ppm/node",
            points,
            &SweepConfig {
                seeds: vec![1],
                threads: 1,
                ..SweepConfig::default()
            },
        );
        let p = &results.points[0];
        assert_eq!(p.scheduler, "gt-tsch");
        assert!(p.join_ratio > 0.9, "network must form");
        assert!(p.mean.pdr_percent > 80.0, "PDR {}", p.mean.pdr_percent);
    }

    /// The clean noise-depth column is the same *cell* as fig8's
    /// 120 ppm points — declarative specs make the sharing exact.
    #[test]
    fn clean_noise_column_byte_shares_fig8_cells() {
        let fig8_at_120: Vec<String> = fig8_points()
            .iter()
            .filter(|p| p.x_label == "120")
            .map(|p| cell_key(&p.experiment.with_seed(1)))
            .collect();
        let clean_noise: Vec<String> = fig_noise_depth_points()
            .iter()
            .filter(|p| p.x_label == "1.00")
            .map(|p| cell_key(&p.experiment.with_seed(1)))
            .collect();
        assert_eq!(fig8_at_120, clean_noise);
    }
}
