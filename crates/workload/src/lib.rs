//! # gtt-workload — declarative experiments
//!
//! One self-describing value, [`Experiment`], is the only way figures,
//! benches, examples and cross-crate tests describe a run: a
//! [`ScenarioSpec`] (topology generator + link model), a
//! [`SchedulerKind`], a [`RunSpec`] (traffic model + timing + seed) and
//! a composable [`Overlay`] timeline (interference bursts, step
//! mobility, duty-cycle budgets). Experiments are plain data —
//! comparable, cloneable, and canonically encodable
//! ([`Experiment::encode`]) into a versioned byte form that doubles as
//! the sweep cache key and as the experiment field of `--list` lines
//! and of the queue entries multi-process `sweep_worker`s drain (see
//! `gtt-bench`).
//!
//! # Example
//!
//! ```
//! use gtt_workload::{Experiment, Overlay, NoiseBurst, RunSpec, ScenarioSpec, SchedulerKind};
//!
//! let exp = Experiment {
//!     scenario: ScenarioSpec::two_dodag(7), // the Fig. 8 topology
//!     scheduler: SchedulerKind::gt_tsch_default(),
//!     run: RunSpec {
//!         traffic_ppm: 30.0,
//!         warmup_secs: 30,
//!         measure_secs: 60,
//!         seed: 1,
//!         ..RunSpec::default()
//!     },
//!     overlays: vec![Overlay::Noise(NoiseBurst::wifi_like())],
//!     trace: None, // set via `with_trace` to capture a pcap of the run
//! };
//! // The canonical encoding round-trips exactly (cache keys, `--list`
//! // lines and queue entries are derived from it) …
//! assert_eq!(Experiment::decode(&exp.encode()).unwrap(), exp);
//! // … and `run()` drives warm-up, the overlay timeline and the
//! // measured window in one call.
//! let report = exp.run();
//! assert!(report.join_ratio > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
pub mod overlay;
pub mod scenario;
pub mod schedulers;
pub mod spec;

pub use encode::{DecodeError, ENCODING_VERSION};
pub use overlay::{DutyCycleBudget, NoiseBurst, Overlay, StepMobility, WaypointHop};
pub use scenario::Scenario;
pub use schedulers::SchedulerKind;
pub use spec::{ScenarioSpec, TopologySpec};

use gtt_engine::{EngineConfig, Network, NetworkBuilder, NetworkReport};
use gtt_sim::SimDuration;

/// Parameters of one measured run: the traffic model (per-node CBR
/// rate), the timing of the measurement, the seed, and the engine
/// cadence preset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Application rate per non-root node (packets/minute).
    pub traffic_ppm: f64,
    /// Warm-up (network formation + schedule convergence), seconds.
    /// Overlays do not run during warm-up — the network always forms
    /// under clean conditions.
    pub warmup_secs: u64,
    /// Measurement window, seconds (the overlay timeline spans it).
    pub measure_secs: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Use the steady-state low-power cadences
    /// ([`EngineConfig::low_power`]) instead of the paper's
    /// experiment-accelerating ones.
    pub low_power: bool,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            traffic_ppm: 30.0,
            warmup_secs: 120,
            measure_secs: 300,
            seed: 1,
            low_power: false,
        }
    }
}

/// A complete, self-describing experiment: everything that determines a
/// [`NetworkReport`], and nothing that doesn't.
///
/// The four fields are pure data; [`Experiment::run`] is the one driver
/// that turns them into a measured report (build network → warm up →
/// overlay-driven measurement window → report). Anything needing finer
/// control (fault-injection tests, engine benches) starts from
/// [`Experiment::network_builder`] and drives the network itself.
///
/// # Example
///
/// The minimal build-and-run flow — describe the run as data, call
/// [`Experiment::run`], read the [`NetworkReport`]:
///
/// ```
/// use gtt_workload::{Experiment, RunSpec, ScenarioSpec, SchedulerKind};
///
/// let report = Experiment::new(ScenarioSpec::star(4), SchedulerKind::minimal(8))
///     .with_run(RunSpec {
///         warmup_secs: 20,
///         measure_secs: 20,
///         seed: 3,
///         ..RunSpec::default()
///     })
///     .run();
/// assert!(report.join_ratio > 0.9, "a 4-node star forms in 20 s");
/// assert!(report.delivered <= report.generated);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// What network the run happens on.
    pub scenario: ScenarioSpec,
    /// Which scheduling function every node runs.
    pub scheduler: SchedulerKind,
    /// Traffic model, timing, seed, engine preset.
    pub run: RunSpec,
    /// Timed environmental effects over the measurement window, applied
    /// in declaration order when simultaneous.
    pub overlays: Vec<Overlay>,
    /// Wire-level trace export: when set, [`Experiment::run`] /
    /// [`Experiment::run_on`] install a pcap frame tap for the whole
    /// run and write the capture to [`TraceSpec::path`] afterwards.
    ///
    /// Deliberately **not** part of the canonical encoding
    /// ([`Experiment::encode`]), like the parallel switch: taps never
    /// change a report (see `DETERMINISM.md`), so cached sweep cells
    /// are shared between traced and untraced runs, and
    /// [`Experiment::decode`] always yields `trace: None`.
    pub trace: Option<TraceSpec>,
}

/// Where [`Experiment::run`] writes its wire-level trace.
///
/// The capture itself — a classic pcap, linktype 195, sim-time
/// timestamps — is a deterministic pure function of the experiment;
/// only this destination is configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Output path of the pcap file (overwritten if present).
    pub path: std::path::PathBuf,
}

impl Experiment {
    /// An experiment with default [`RunSpec`] and no overlays.
    pub fn new(scenario: ScenarioSpec, scheduler: SchedulerKind) -> Self {
        Experiment {
            scenario,
            scheduler,
            run: RunSpec::default(),
            overlays: Vec::new(),
            trace: None,
        }
    }

    /// Replaces the run parameters (builder style).
    pub fn with_run(mut self, run: RunSpec) -> Self {
        self.run = run;
        self
    }

    /// Appends an overlay (builder style).
    pub fn with_overlay(mut self, overlay: Overlay) -> Self {
        self.overlays.push(overlay);
        self
    }

    /// Enables wire-level trace export to a pcap file at `path`
    /// (builder style). See [`Experiment::trace`].
    pub fn with_trace(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.trace = Some(TraceSpec { path: path.into() });
        self
    }

    /// The same experiment under a different seed — how sweeps expand
    /// one point into its per-seed cells.
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut exp = self.clone();
        exp.run.seed = seed;
        exp
    }

    /// The engine configuration this experiment runs under.
    pub fn engine_config(&self) -> EngineConfig {
        let base = if self.run.low_power {
            EngineConfig::low_power()
        } else {
            self.scheduler.engine_config()
        };
        EngineConfig {
            seed: self.run.seed,
            ..base
        }
    }

    /// A fully-wired [`NetworkBuilder`] for this experiment — the
    /// escape hatch for callers that need builder-level switches (the
    /// `naive-step` oracle) before building.
    pub fn network_builder(&self) -> NetworkBuilder {
        let scenario = self.scenario.build();
        let sk = self.scheduler.clone();
        Network::builder(scenario.topology, self.engine_config())
            .roots(scenario.roots)
            .traffic_ppm(self.run.traffic_ppm)
            .scheduler_factory(move |id, is_root| sk.instantiate(id, is_root))
    }

    /// Builds the experiment's network without running it.
    pub fn build_network(&self) -> Network {
        self.network_builder().build()
    }

    /// Runs the full experiment: build, warm up, drive the overlay
    /// timeline across the measurement window, report.
    pub fn run(&self) -> NetworkReport {
        self.run_on(&mut self.build_network())
    }

    /// [`Experiment::run`] with island-parallel stepping enabled (the
    /// `parallel` feature): radio-disjoint partition islands step on
    /// scoped threads. The report is byte-identical to
    /// [`Experiment::run`]'s — which is why the switch is *not* part of
    /// the canonical encoding — so cached sweep cells can be shared
    /// freely between parallel and sequential runs.
    #[cfg(feature = "parallel")]
    pub fn run_parallel(&self) -> NetworkReport {
        let mut net = self.network_builder().parallel_stepping().build();
        self.run_on(&mut net)
    }

    /// [`Experiment::run`] on an already-built network (one produced by
    /// [`Experiment::network_builder`] — e.g. with the `naive-step`
    /// oracle enabled, so equivalence tests drive both cores through
    /// the identical warm-up/overlay/measure sequence).
    ///
    /// When [`Experiment::trace`] is set, a pcap frame tap rides the
    /// whole run and the capture is written to [`TraceSpec::path`]
    /// before the report is returned (panicking on I/O failure — a
    /// requested trace that cannot be written is a broken run, not a
    /// warning). The report is byte-identical either way.
    pub fn run_on(&self, net: &mut Network) -> NetworkReport {
        match &self.trace {
            None => self.drive(net),
            Some(spec) => {
                let (report, pcap) = self.run_traced_on(net);
                std::fs::write(&spec.path, pcap).unwrap_or_else(|e| {
                    panic!("cannot write trace to {}: {e}", spec.path.display())
                });
                report
            }
        }
    }

    /// Runs the full experiment with a pcap frame tap installed and
    /// returns the report together with the capture bytes — the
    /// file-less form of [`Experiment::trace`] that the golden-trace
    /// tests hash. The trace is a deterministic pure function of the
    /// experiment: same `Experiment`, same bytes.
    pub fn run_traced(&self) -> (NetworkReport, Vec<u8>) {
        self.run_traced_on(&mut self.build_network())
    }

    /// [`Experiment::run_traced`] on an already-built network. Any
    /// previously installed tap is replaced and the tap is removed
    /// again before returning.
    pub fn run_traced_on(&self, net: &mut Network) -> (NetworkReport, Vec<u8>) {
        let (tap, shared) = gtt_frame::PcapTap::new();
        net.set_frame_tap(Some(Box::new(tap)));
        let report = self.drive(net);
        net.set_frame_tap(None); // drops the tap's Arc clone
        let pcap = std::sync::Arc::try_unwrap(shared)
            .expect("tap dropped, buffer uniquely owned")
            .into_inner()
            .expect("pcap buffer poisoned");
        (report, pcap)
    }

    /// The warm-up → overlay-driven measurement → report sequence
    /// shared by the traced and untraced drivers.
    fn drive(&self, net: &mut Network) -> NetworkReport {
        net.run_for(SimDuration::from_secs(self.run.warmup_secs));
        net.start_measurement();
        overlay::drive(
            net,
            &self.overlays,
            SimDuration::from_secs(self.run.measure_secs),
        );
        net.finish_measurement();
        net.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_spec_default_is_sane() {
        let spec = RunSpec::default();
        assert!(spec.traffic_ppm > 0.0);
        assert!(spec.measure_secs > 0);
        assert!(!spec.low_power);
    }

    #[test]
    fn experiment_builds_wired_networks() {
        let exp = Experiment::new(ScenarioSpec::two_dodag(6), SchedulerKind::minimal(8)).with_run(
            RunSpec {
                warmup_secs: 1,
                measure_secs: 1,
                ..RunSpec::default()
            },
        );
        let net = exp.build_network();
        assert_eq!(net.nodes().len(), 12);
        let scenario = exp.scenario.build();
        assert!(net.node(scenario.roots[0]).rpl.is_root());
        assert!(net.node(scenario.roots[1]).rpl.is_root());
        assert_eq!(net.config().seed, exp.run.seed);
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let exp = Experiment::new(ScenarioSpec::star(3), SchedulerKind::gt_tsch_default());
        let other = exp.with_seed(99);
        assert_eq!(other.run.seed, 99);
        assert_eq!(other.with_seed(exp.run.seed), exp);
    }

    #[test]
    fn low_power_preset_selects_steady_state_cadences() {
        let mut exp = Experiment::new(ScenarioSpec::star(3), SchedulerKind::gt_tsch_default());
        exp.run.low_power = true;
        assert_eq!(
            exp.engine_config().eb_period,
            EngineConfig::low_power().eb_period
        );
    }

    #[test]
    fn run_produces_a_formed_network() {
        let exp =
            Experiment::new(ScenarioSpec::star(4), SchedulerKind::minimal(8)).with_run(RunSpec {
                traffic_ppm: 30.0,
                warmup_secs: 30,
                measure_secs: 30,
                seed: 2,
                ..RunSpec::default()
            });
        let report = exp.run();
        assert!(report.join_ratio > 0.9, "network must form");
        assert!(report.generated > 0);
    }
}
