//! # gtt-perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Three named workloads, each a closed loop of repeats (a repeat starts
//! only after the previous one finished), driven through the public
//! `gtt-workload` / `gtt-engine` / `gtt-bench` API:
//!
//! * `fig-sweep` — every distinct Fig. 8 and Fig. 9 point through
//!   [`run_sweep`] on `nproc` threads with a fresh cache, then a warm pass
//!   over the filled cache, then every cell again, stepped in one-second
//!   chunks on one thread (warm-up and per-second cost).
//! * `city-1k-steady` — `city(10, 100)`, GT-TSCH, low-power cadences, at
//!   the rate [`city_1k_ppm`] derives from Table II.
//! * `city-10k-stress` — `city(100, 100)` at the saturated 30 ppm, run
//!   on demand: it is not one of `BENCHMARK.json`'s gated workloads.
//!
//! A city repeat builds the network, steps one-second chunks from
//! power-on until the join ratio reaches [`JOIN_TARGET`], then measures
//! a fixed window. Every repeat is deterministic, so its report
//! fingerprint must not change between repeats, runs, or the untraced
//! and traced passes, and each chunk is the same work in every repeat:
//! timings take the fastest repeat of each chunk. The traced pass
//! measures layers from outside only (see [`layers`]).

#![forbid(unsafe_code)]

mod layers;

pub use layers::Tracer;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use gt_tsch::GtTschConfig;
use gtt_bench::sweep::run_sweep;
use gtt_bench::{fig8_points, fig9_points, SweepConfig, SweepPoint, SweepResults};
use gtt_engine::{EngineConfig, Network, NetworkReport};
use gtt_sim::{SimDuration, SimTime};
use gtt_workload::{Experiment, RunSpec, ScenarioSpec, SchedulerKind};

use layers::{CountingTap, TimedSf, HOOKS};

/// The seed a change is developed against.
pub const DEFAULT_SEED: u64 = 1;
/// The seed held out to confirm a claim made on [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 2;
/// Join ratio that ends a city warm-up.
const JOIN_TARGET: f64 = 0.99;
/// Simulated seconds after which a city that has not formed fails.
const WARMUP_CAP_S: u64 = 600;
/// Seeds per Fig. 8/9 point, as in the figure binaries.
const FIG_SEEDS: u64 = 5;
/// Repeats per run, at least: a repeat's fingerprint is checked against
/// the first.
const MIN_REPEATS: usize = 2;
/// `setup_s` samples taken before the first repeat; one more precedes
/// each repeat.
const SETUP_SAMPLES: usize = 5;
/// Host seconds one `setup_s` sample covers at least: a single set-up
/// takes a few ms, too short to time steadily alone.
const SETUP_SAMPLE_S: f64 = 0.1;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every Fig. 8 and Fig. 9 point through the sweep harness.
    FigSweep,
    /// A converged 1k-node city at a load its roots can carry.
    City1kSteady,
    /// A 10k-node city at the saturated 30 ppm.
    City10kStress,
}

impl Workload {
    /// All workloads. `BENCHMARK.json` gates the first two; the stress
    /// row is too unsteady on a shared 2-core host to gate (see the
    /// README) and runs on demand.
    pub const ALL: [Workload; 3] = [
        Workload::FigSweep,
        Workload::City1kSteady,
        Workload::City10kStress,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigSweep => "fig-sweep",
            Workload::City1kSteady => "city-1k-steady",
            Workload::City10kStress => "city-10k-stress",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Per-node rate of `city-1k-steady`, packets/minute, from Table II:
/// each root has `32 − 4 broadcast − 3 shared = 25` dedicated cells per
/// slotframe of 32 × 15 ms, split evenly over its 99 senders at half
/// utilisation — ≈ 15.8 ppm.
fn city_1k_ppm() -> f64 {
    let sf = GtTschConfig::default();
    let dedicated = f64::from(sf.slotframe_len - sf.broadcast_slots - sf.shared_slots);
    let slot_s = EngineConfig::low_power().mac.slot_duration.as_secs_f64();
    let cells_per_min = dedicated * 60.0 / (f64::from(sf.slotframe_len) * slot_s);
    0.5 * cells_per_min / 99.0
}

/// How a cell warms up before its measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Warmup {
    /// A fixed number of simulated seconds (the sweep cells' 120 s).
    Fixed(u64),
    /// Until the join ratio reaches [`JOIN_TARGET`] (checked each
    /// simulated second).
    UntilJoined,
}

/// One experiment run in one-second chunks.
#[derive(Debug, Clone)]
struct Cell {
    /// The experiment (overlay-free).
    pub exp: Experiment,
    /// Its warm-up rule.
    pub warmup: Warmup,
    /// Measured window, simulated seconds.
    pub window_s: u64,
}

/// Layer counters read from a finished cell's network.
#[derive(Debug, Clone, Copy, Default)]
struct NetCounts {
    /// Σ lengths of every node's audible-neighbour list.
    pub audible_links: u64,
    /// Σ RPL parent changes.
    pub parent_changes: u64,
    /// Σ completed 6P transactions.
    pub sixtop_completed: u64,
    /// Σ failed 6P transactions.
    pub sixtop_failed: u64,
    /// Packets the metrics tracker holds.
    pub tracked_packets: u64,
    /// Bytes the metrics tracker holds.
    pub tracker_bytes: u64,
}

/// What one chunked run of a [`Cell`] measured.
#[derive(Debug, Clone)]
struct CellRun {
    /// The report.
    pub report: NetworkReport,
    /// FNV-1a of the report's `Debug` form.
    pub fingerprint: u64,
    /// Simulated seconds from power-on until the join target was met.
    pub join_s: Option<u64>,
    /// Host ms of each simulated second of the warm-up.
    pub warm_ms: Vec<f64>,
    /// Host ms of each simulated second of the window.
    pub window_ms: Vec<f64>,
    /// Host seconds of the whole cell: build, stepping and report.
    pub cell_host_s: f64,
    /// Host ms of the cell outside its chunks: build and report.
    pub other_ms: f64,
    /// Slots simulated in the window.
    pub window_slots: u64,
    /// Slots simulated in all.
    pub total_slots: u64,
    /// Network size.
    pub nodes: u64,
    /// Layer counters at the end of the run.
    pub counts: NetCounts,
}

impl CellRun {
    /// Host seconds spent stepping (warm-up and window).
    pub fn step_host_s(&self) -> f64 {
        (self.warm_ms.iter().sum::<f64>() + self.window_ms.iter().sum::<f64>()) / 1e3
    }
}

/// FNV-1a over formatted text, so a large report is hashed without
/// being materialised.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a 64 of `value`'s `Debug` form.
fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing cannot fail");
    h.0
}

/// Builds `exp`'s network with spans around `ScenarioSpec::build` and
/// `NetworkBuilder::build`, every scheduler wrapped in a [`TimedSf`].
fn build_traced(exp: &Experiment, t: &mut Tracer) -> Network {
    let scenario = t.span("setup.scenario", || exp.scenario.build());
    let sk = exp.scheduler.clone();
    let stats = t.sf.clone();
    let builder = Network::builder(scenario.topology, exp.engine_config())
        .roots(scenario.roots)
        .traffic_ppm(exp.run.traffic_ppm)
        .scheduler_factory(move |id, is_root| {
            Box::new(TimedSf::new(sk.instantiate(id, is_root), stats.clone()))
        });
    t.span("setup.network", || builder.build())
}

/// Steps `net` to `to`, returning the host ms it took.
fn chunk(net: &mut Network, to: SimTime, tr: Option<&mut Tracer>) -> f64 {
    let t = Instant::now();
    match tr {
        Some(tr) => tr.span("engine.chunk", || net.run_until(to)),
        None => net.run_until(to),
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `cell` in one-second chunks, traced when `tr` is given.
///
/// Chunks end at absolute times (`power-on + k s`, then `window start +
/// k s`), so the run is exactly `Experiment::run` with the same warm-up
/// and window lengths.
fn run_cell(cell: &Cell, mut tr: Option<&mut Tracer>) -> Result<CellRun, String> {
    let exp = &cell.exp;
    if !exp.overlays.is_empty() {
        return Err("the chunked runner drives overlay-free experiments only".into());
    }
    let t0 = Instant::now();
    let mut net = match tr.as_deref_mut() {
        None => exp.network_builder().build(),
        Some(t) => {
            t.next_cell();
            t.enter("cell");
            let mut net = build_traced(exp, t);
            net.set_frame_tap(Some(Box::new(CountingTap::new(t.tap.clone()))));
            net
        }
    };
    let net = &mut net;
    let mut warm_ms = Vec::new();
    let mut join = None;
    let mut s = 0;
    loop {
        let warm = match cell.warmup {
            Warmup::Fixed(w) => s >= w,
            Warmup::UntilJoined => join.is_some(),
        };
        if warm {
            break;
        }
        if s >= WARMUP_CAP_S {
            return Err(format!(
                "join ratio {:.4} still below {JOIN_TARGET} after {s} s",
                net.join_ratio()
            ));
        }
        s += 1;
        warm_ms.push(chunk(
            net,
            SimTime::ZERO + SimDuration::from_secs(s),
            tr.as_deref_mut(),
        ));
        if join.is_none() && net.join_ratio() >= JOIN_TARGET {
            join = Some(s);
        }
    }
    net.start_measurement();
    let start = net.now();
    let first_window_slot = net.asn().raw();
    let mut window_ms = Vec::with_capacity(cell.window_s as usize);
    for k in 1..=cell.window_s {
        window_ms.push(chunk(
            net,
            start + SimDuration::from_secs(k),
            tr.as_deref_mut(),
        ));
        if join.is_none() && net.join_ratio() >= JOIN_TARGET {
            join = Some(s + k);
        }
    }
    net.finish_measurement();
    let report = match tr.as_deref_mut() {
        Some(t) => t.span("metrics.report", || net.report()),
        None => net.report(),
    };
    if let Some(t) = tr {
        net.set_frame_tap(None);
        t.exit();
    }
    let cell_host_s = t0.elapsed().as_secs_f64();
    let topo = net.topology();
    let fp = net.tracker().footprint();
    let counts = NetCounts {
        audible_links: topo
            .node_ids()
            .map(|n| topo.audible_neighbors(n).len() as u64)
            .sum(),
        parent_changes: net.nodes().iter().map(|n| n.rpl.parent_changes()).sum(),
        sixtop_completed: net
            .nodes()
            .iter()
            .map(|n| n.sixtop.completed_transactions())
            .sum(),
        sixtop_failed: net
            .nodes()
            .iter()
            .map(|n| n.sixtop.failed_transactions())
            .sum(),
        tracked_packets: fp.tracked,
        tracker_bytes: fp.bytes as u64,
    };
    let other_ms = cell_host_s * 1e3 - warm_ms.iter().chain(&window_ms).sum::<f64>();
    Ok(CellRun {
        fingerprint: fingerprint(&report),
        report,
        join_s: join,
        warm_ms,
        window_ms,
        cell_host_s,
        other_ms,
        window_slots: net.asn().raw() - first_window_slot,
        total_slots: net.asn().raw(),
        nodes: net.nodes().len() as u64,
        counts,
    })
}

/// Every distinct Fig. 8 and Fig. 9 point (the 120 ppm, 7-node points
/// appear in both figures and run once).
fn fig_points() -> Vec<SweepPoint> {
    let mut points = fig8_points();
    for p in fig9_points() {
        if !points.iter().any(|q| q.experiment == p.experiment) {
            points.push(p);
        }
    }
    points
}

/// The sweep seeds of benchmark seed `seed`: seed 1 gives 1..=5, the
/// figure binaries' own seeds; seed 2 gives 6..=10.
fn fig_seeds(seed: u64, smoke: bool) -> Vec<u64> {
    let base = seed.wrapping_sub(1).wrapping_mul(FIG_SEEDS);
    let n = if smoke { 1 } else { FIG_SEEDS };
    (1..=n).map(|k| base.wrapping_add(k)).collect()
}

/// The city experiment of a city workload.
fn city_experiment(workload: Workload, seed: u64, window_s: u64) -> Experiment {
    let (dodags, ppm) = match workload {
        Workload::City1kSteady => (10, city_1k_ppm()),
        Workload::City10kStress => (100, 30.0),
        Workload::FigSweep => unreachable!("not a city workload"),
    };
    Experiment::new(
        ScenarioSpec::city(dodags, 100),
        SchedulerKind::gt_tsch_default(),
    )
    .with_run(RunSpec {
        traffic_ppm: ppm,
        warmup_secs: 0,
        measure_secs: window_s,
        seed,
        low_power: true,
    })
}

/// Measured window of a city workload, simulated seconds.
fn city_window_s(workload: Workload, smoke: bool) -> u64 {
    match (workload, smoke) {
        (Workload::City1kSteady, false) => 300,
        (Workload::City1kSteady, true) => 20,
        (Workload::City10kStress, false) => 15,
        (Workload::City10kStress, true) => 3,
        (Workload::FigSweep, _) => unreachable!("not a city workload"),
    }
}

/// Run settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds of repeats to measure (at least [`MIN_REPEATS`]).
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Shrunken workload for the benchmark's own tests.
    pub smoke: bool,
    /// Scratch directory for sweep caches (removed after use).
    pub scratch: std::path::PathBuf,
}

/// Unit and kind of a reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A deterministic count or ratio of counts: must repeat exactly.
    Count,
    /// A host-time measurement.
    Time,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Kind.
    pub kind: Kind,
}

/// Metrics by name.
pub type Metrics = BTreeMap<String, Metric>;

/// The outcome of a benchmark run.
pub struct Outcome {
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that panicked or failed a check.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Human-readable lines: fingerprints, sample counts, PDR, failures.
    pub notes: Vec<String>,
    /// The traced pass's spans (empty untraced).
    pub tracers: Vec<Tracer>,
}

/// What one repeat measured.
struct Repeat {
    cells: u64,
    fingerprint: u64,
    /// Host ms of the deterministic pieces the cells' time adds up from.
    cells_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    window_ms: Vec<f64>,
    window_slots: u64,
    pdr: f64,
    layers: Option<Metrics>,
    tracer: Option<Tracer>,
}

fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str, kind: Kind) {
    m.insert(name.into(), Metric { value, unit, kind });
}

/// Median of `v` (mean of the middle two for even lengths).
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`.
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The cells every repeat builds: all sweep cells, or the one city.
fn setup_experiments(opts: &Options) -> Vec<Experiment> {
    match opts.workload {
        Workload::FigSweep => {
            let seeds = fig_seeds(opts.seed, opts.smoke);
            fig_points()
                .iter()
                .flat_map(|p| seeds.iter().map(|&s| p.experiment.with_seed(s)))
                .collect()
        }
        w => vec![city_experiment(w, opts.seed, city_window_s(w, opts.smoke))],
    }
}

/// One `setup_s` sample: host seconds of `ScenarioSpec::build` +
/// `NetworkBuilder::build` over `exps`. The set-up repeats until it has
/// taken [`SETUP_SAMPLE_S`]; each build counts its fastest time, as the
/// chunks of a repeat do.
fn time_setup(exps: &[Experiment]) -> f64 {
    let mut fastest = vec![f64::INFINITY; exps.len()];
    let mut total = 0.0;
    while total < SETUP_SAMPLE_S {
        for (exp, best) in exps.iter().zip(&mut fastest) {
            let t = Instant::now();
            let net = exp.network_builder().build();
            let s = t.elapsed().as_secs_f64();
            drop(net);
            total += s;
            *best = best.min(s);
        }
    }
    fastest.iter().sum()
}
/// What the repeats of one run produced.
#[derive(Default)]
struct Collected {
    repeats: Vec<Repeat>,
    setup: Vec<f64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    stop: bool,
}

impl Collected {
    /// Accepts `r` if it matches the first repeat, else counts its cells
    /// as failed.
    fn add(&mut self, n: usize, outcome: std::thread::Result<Result<Repeat, String>>, cells: u64) {
        let checked = match outcome {
            Ok(Ok(r)) => match self.repeats.first() {
                Some(first)
                    if first.fingerprint != r.fingerprint
                        || first.cells_ms.len() != r.cells_ms.len()
                        || first.warm_ms.len() != r.warm_ms.len()
                        || first.window_ms.len() != r.window_ms.len() =>
                {
                    Err(format!(
                        "repeat {n} fingerprint {:016x} differs from the first repeat's {:016x}",
                        r.fingerprint, first.fingerprint
                    ))
                }
                Some(first) => match (&first.layers, &r.layers) {
                    (Some(a), Some(b)) => compare_counts(a, b).map(|()| r),
                    _ => Ok(r),
                },
                None => Ok(r),
            },
            Ok(Err(e)) => Err(e),
            Err(_) => Err(format!("repeat {n} panicked")),
        };
        match checked {
            Ok(r) => self.repeats.push(r),
            Err(e) => {
                self.notes.push(format!("FAILED: {e}"));
                self.failed += cells;
                // A broken workload would otherwise loop until the time
                // is up; report what failed instead.
                self.stop |= self.failed >= 2 * cells || self.repeats.is_empty();
            }
        }
    }
}

/// Runs the benchmark.
pub fn run(opts: &Options) -> Outcome {
    let setup_exps = setup_experiments(opts);
    let cells = setup_exps.len() as u64;
    let mut st = Collected {
        setup: (0..SETUP_SAMPLES)
            .map(|_| time_setup(&setup_exps))
            .collect(),
        ..Collected::default()
    };
    let start = Instant::now();
    let mut last_s = 0.0;
    // Closed loop: the next repeat starts when the previous one ended,
    // while it is expected to end within the time asked for.
    while !st.stop
        && (st.repeats.len() < MIN_REPEATS
            || start.elapsed().as_secs_f64() + last_s <= opts.seconds)
    {
        let began = Instant::now();
        st.setup.push(time_setup(&setup_exps));
        st.attempted += cells;
        let n = st.repeats.len();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_repeat(opts, n)));
        st.add(n, outcome, cells);
        last_s = began.elapsed().as_secs_f64();
    }
    let Collected {
        mut repeats,
        setup,
        attempted,
        mut failed,
        mut notes,
        ..
    } = st;

    let mut metrics = Metrics::new();
    let mut tracers = Vec::new();
    if let Some(first) = repeats.first() {
        notes.push(format!(
            "fingerprint {} seed {}: {:016x} ({} repeats)",
            opts.workload.name(),
            opts.seed,
            first.fingerprint,
            repeats.len()
        ));
        notes.push(format!(
            "pdr {} seed {}: {:.2}%",
            opts.workload.name(),
            opts.seed,
            first.pdr
        ));
        // Repeats do identical simulated work, chunk for chunk. Other
        // processes on the host slow it in phases of seconds; the
        // fastest repeat of each chunk filters them out.
        let warm = chunk_min(&repeats, |r| &r.warm_ms);
        let window = chunk_min(&repeats, |r| &r.window_ms);
        let cells_s = chunk_min(&repeats, |r| &r.cells_ms).iter().sum::<f64>() / 1e3;
        notes.push(format!(
            "cells/s per repeat: {:?}",
            repeats
                .iter()
                .map(|r| r.cells as f64 * 1e3 / r.cells_ms.iter().sum::<f64>())
                .collect::<Vec<_>>()
        ));
        notes.push(format!(
            "sim_second_ms_p95 over {} one-second samples, each the fastest of {} repeats (median {:.3} ms)",
            window.len(),
            repeats.len(),
            median(&window)
        ));
        if opts.trace {
            for (name, m) in first.layers.as_ref().expect("traced repeat has layers") {
                let value = match m.kind {
                    Kind::Count => m.value,
                    Kind::Time => median(
                        &repeats
                            .iter()
                            .map(|r| r.layers.as_ref().expect("traced")[name].value)
                            .collect::<Vec<_>>(),
                    ),
                };
                put(&mut metrics, name.clone(), value, m.unit, m.kind);
            }
            tracers = repeats.iter_mut().filter_map(|r| r.tracer.take()).collect();
        } else {
            let window_s = window.iter().sum::<f64>() / 1e3;
            let e2e = [
                ("setup_s", median(&setup), "s"),
                ("warmup_s", warm.iter().sum::<f64>() / 1e3, "s"),
                (
                    "slots_per_s",
                    first.window_slots as f64 / window_s,
                    "slots/s",
                ),
                ("sim_second_ms_p95", percentile(&window, 95.0), "ms"),
                ("cells_per_s", first.cells as f64 / cells_s, "cells/s"),
                ("peak_rss_mb", peak_rss_mb(), "MB"),
            ];
            for (name, value, unit) in e2e {
                put(&mut metrics, name, value, unit, Kind::Time);
            }
        }
    }
    for (name, m) in &metrics {
        if !m.value.is_finite() {
            notes.push(format!("FAILED: metric {name} is not finite"));
            failed = failed.max(1);
        }
    }
    Outcome {
        attempted,
        failed,
        metrics,
        notes,
        tracers,
    }
}

/// The fastest of all repeats for each chunk.
fn chunk_min(repeats: &[Repeat], chunks: impl Fn(&Repeat) -> &Vec<f64>) -> Vec<f64> {
    (0..chunks(&repeats[0]).len())
        .map(|i| {
            repeats
                .iter()
                .map(|r| chunks(r)[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Every count must repeat exactly across repeats of one run.
fn compare_counts(a: &Metrics, b: &Metrics) -> Result<(), String> {
    for (name, m) in a {
        if m.kind == Kind::Count
            && b.get(name).map(|x| x.value.to_bits()) != Some(m.value.to_bits())
        {
            return Err(format!(
                "layer count {name} changed between repeats: {} vs {:?}",
                m.value,
                b.get(name).map(|x| x.value)
            ));
        }
    }
    Ok(())
}

/// Seed-ordered rows of a sweep, as compared between its passes.
fn sweep_rows(r: &SweepResults) -> String {
    let mut s = String::new();
    for p in &r.points {
        writeln!(
            s,
            "{} {} {:?} {:?} {:?}",
            p.x_label, p.scheduler, p.rows, p.join_ratio, p.generated
        )
        .expect("writing to a String cannot fail");
    }
    s
}

fn run_repeat(opts: &Options, n: usize) -> Result<Repeat, String> {
    match opts.workload {
        Workload::FigSweep => fig_repeat(opts, n),
        w => city_repeat(opts, w),
    }
}

/// One city repeat: the cell untraced, then traced when asked.
fn city_repeat(opts: &Options, w: Workload) -> Result<Repeat, String> {
    let cell = Cell {
        exp: city_experiment(w, opts.seed, city_window_s(w, opts.smoke)),
        warmup: Warmup::UntilJoined,
        window_s: city_window_s(w, opts.smoke),
    };
    let run = run_cell(&cell, None)?;
    let (layers, tracer) = if opts.trace {
        let (mut m, t) = traced_pass(std::slice::from_ref(&cell), std::slice::from_ref(&run))?;
        sweep_layer(&mut m, None);
        (Some(m), Some(t))
    } else {
        (None, None)
    };
    Ok(Repeat {
        cells: 1,
        fingerprint: run.fingerprint,
        cells_ms: std::iter::once(run.other_ms)
            .chain(run.warm_ms.iter().chain(&run.window_ms).copied())
            .collect(),
        warm_ms: run.warm_ms.clone(),
        window_ms: run.window_ms.clone(),
        window_slots: run.window_slots,
        pdr: run.report.row.pdr_percent,
        layers,
        tracer,
    })
}

/// One sweep repeat: cold pass, warm pass, then every cell in
/// one-second chunks (traced too, when asked).
fn fig_repeat(opts: &Options, n: usize) -> Result<Repeat, String> {
    let points = fig_points();
    let seeds = fig_seeds(opts.seed, opts.smoke);
    let cells = (points.len() * seeds.len()) as u64;
    let dir = opts
        .scratch
        .join(format!("cache-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = SweepConfig {
        seeds: seeds.clone(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cache_dir: Some(dir.clone()),
        cache_only: false,
    };
    let t = Instant::now();
    let cold = run_sweep("fig", points.clone(), &config);
    let cold_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm = run_sweep("fig", points.clone(), &config);
    let warm_s = t.elapsed().as_secs_f64();
    remove_scratch(&dir);
    check_sweep(&cold, cells, false)?;
    check_sweep(&warm, cells, true)?;
    if sweep_rows(&cold) != sweep_rows(&warm) {
        return Err("warm-pass rows differ from the cold pass".into());
    }

    // The sweep's rows are in seed order.
    let mut sorted = seeds.clone();
    sorted.sort_unstable();
    let mut probe = Vec::with_capacity(cells as usize);
    for p in &points {
        for &seed in &sorted {
            probe.push(Cell {
                exp: p.experiment.with_seed(seed),
                warmup: Warmup::Fixed(p.experiment.run.warmup_secs),
                window_s: p.experiment.run.measure_secs,
            });
        }
    }
    let runs = probe
        .iter()
        .map(|c| run_cell(c, None))
        .collect::<Result<Vec<_>, _>>()?;
    let rows = cold.points.iter().flat_map(|p| p.rows.iter());
    for ((cell, run), row) in probe.iter().zip(&runs).zip(rows) {
        let what = format!(
            "{} {} at {} ppm seed {}",
            cell.exp.scenario.name(),
            cell.exp.scheduler.name(),
            cell.exp.run.traffic_ppm,
            cell.exp.run.seed
        );
        if run.join_s.is_none() {
            return Err(format!("{what}: join ratio never reached {JOIN_TARGET}"));
        }
        if format!("{row:?}") != format!("{:?}", run.report.row) {
            return Err(format!("{what}: chunked run differs from the sweep cell"));
        }
    }
    let (layers, tracer) = if opts.trace {
        let (mut m, t) = traced_pass(&probe, &runs)?;
        sweep_layer(&mut m, Some((&warm, warm_s, cells)));
        (Some(m), Some(t))
    } else {
        (None, None)
    };
    let pdr =
        cold.points.iter().map(|p| p.mean.pdr_percent).sum::<f64>() / cold.points.len() as f64;
    Ok(Repeat {
        cells,
        fingerprint: fingerprint(&(
            sweep_rows(&cold),
            runs.iter().map(|r| r.fingerprint).collect::<Vec<_>>(),
        )),
        cells_ms: vec![cold_s * 1e3],
        warm_ms: runs.iter().flat_map(|r| r.warm_ms.clone()).collect(),
        window_ms: runs.iter().flat_map(|r| r.window_ms.clone()).collect(),
        window_slots: runs.iter().map(|r| r.window_slots).sum(),
        pdr,
        layers,
        tracer,
    })
}

fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        // Only succeeds once empty.
        let _ = std::fs::remove_dir(parent);
    }
}

fn check_sweep(r: &SweepResults, cells: u64, warm: bool) -> Result<(), String> {
    let (hits, misses) = if warm { (cells, 0) } else { (0, cells) };
    if r.cache_hits as u64 != hits
        || r.cache_misses as u64 != misses
        || r.corrupt_cells != 0
        || r.store_errors != 0
        || r.missing_cells != 0
    {
        return Err(format!(
            "{} pass: {} hits, {} misses, {} corrupt, {} store errors, {} missing (expected {hits} hits, {misses} misses){}",
            if warm { "warm" } else { "cold" },
            r.cache_hits,
            r.cache_misses,
            r.corrupt_cells,
            r.store_errors,
            r.missing_cells,
            r.first_store_error.as_deref().map(|e| format!(": {e}")).unwrap_or_default()
        ));
    }
    Ok(())
}

/// The sweep-harness layer: warm-pass cost and hits (zero for the
/// cities, which do not go through the sweep harness).
fn sweep_layer(m: &mut Metrics, warm: Option<(&SweepResults, f64, u64)>) {
    let (hit_ms, hits) = warm.map_or((0.0, 0.0), |(r, s, cells)| {
        (s * 1e3 / cells as f64, r.cache_hits as f64)
    });
    put(m, "sweep.hit_ms_per_cell", hit_ms, "ms", Kind::Time);
    put(m, "sweep.hits", hits, "count", Kind::Count);
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Runs `cells` traced, checks each report against its untraced run,
/// and derives the per-layer metrics.
fn traced_pass(cells: &[Cell], untraced: &[CellRun]) -> Result<(Metrics, Tracer), String> {
    let mut t = Tracer::default();
    let mut runs = Vec::with_capacity(cells.len());
    for (cell, plain) in cells.iter().zip(untraced) {
        let run = run_cell(cell, Some(&mut t))?;
        if run.fingerprint != plain.fingerprint {
            return Err(format!(
                "{} {}: traced fingerprint {:016x} differs from untraced {:016x}",
                cell.exp.scenario.name(),
                cell.exp.scheduler.name(),
                run.fingerprint,
                plain.fingerprint
            ));
        }
        runs.push(run);
    }
    let tap = *t.tap.lock().map_err(|_| "tap counts poisoned")?;
    if tap.unparsed != 0 {
        return Err(format!("{} tapped frames did not parse", tap.unparsed));
    }
    let sum = |f: &dyn Fn(&CellRun) -> u64| runs.iter().map(f).sum::<u64>();
    let node_sum = |f: &dyn Fn(&gtt_engine::NodeSummary) -> u64| {
        runs.iter()
            .flat_map(|r| r.report.per_node.iter())
            .map(f)
            .sum::<u64>() as f64
    };
    let slots = sum(&|r| r.total_slots);
    let node_slots = sum(&|r| r.total_slots * r.nodes);
    let engine_self = t.self_ms("engine.chunk");
    let cell_ms = t.total_ms("cell");
    let sf_calls = t.sf.calls();
    let sf_ns = t.sf.ns();

    let mut m = Metrics::new();
    use Kind::{Count, Time};
    put(
        &mut m,
        "setup.scenario_ms",
        t.total_ms("setup.scenario"),
        "ms",
        Time,
    );
    put(
        &mut m,
        "setup.network_ms",
        t.self_ms("setup.network"),
        "ms",
        Time,
    );
    put(
        &mut m,
        "net.audible_links",
        sum(&|r| r.counts.audible_links) as f64,
        "count",
        Count,
    );
    put(&mut m, "engine.self_ms", engine_self, "ms", Time);
    put(
        &mut m,
        "engine.ns_per_node_slot",
        engine_self * 1e6 / node_slots as f64,
        "ns",
        Time,
    );
    put(
        &mut m,
        "engine.active_slot_ratio",
        ratio(tap.active_slots, slots),
        "ratio",
        Count,
    );
    put(
        &mut m,
        "engine.warmup_sim_s",
        sum(&|r| r.join_s.unwrap_or(0)) as f64,
        "sim_s",
        Count,
    );
    put(
        &mut m,
        "medium.tx_per_active_slot",
        ratio(tap.tx, tap.active_slots),
        "tx/slot",
        Count,
    );
    put(
        &mut m,
        "medium.unicast_ack_ratio",
        ratio(tap.acked, tap.unicast),
        "ratio",
        Count,
    );
    put(&mut m, "medium.bytes", tap.bytes as f64, "bytes", Count);
    for (name, v) in [
        ("eb", tap.eb),
        ("dio", tap.dio),
        ("dao", tap.dao),
        ("sixp", tap.sixp),
        ("data", tap.data),
    ] {
        put(
            &mut m,
            format!("medium.frames.{name}"),
            v as f64,
            "count",
            Count,
        );
    }
    put(
        &mut m,
        "mac.awake_node_slots",
        node_sum(&|n| n.counters.tx_slots + n.counters.rx_busy_slots + n.counters.rx_idle_slots),
        "count",
        Count,
    );
    put(
        &mut m,
        "mac.queue_loss",
        node_sum(&|n| n.queue_loss),
        "count",
        Count,
    );
    put(
        &mut m,
        "mac.retry_drops",
        node_sum(&|n| n.retry_drops),
        "count",
        Count,
    );
    put(
        &mut m,
        "mac.collisions_heard",
        node_sum(&|n| n.collisions_heard),
        "count",
        Count,
    );
    put(
        &mut m,
        "rpl.parent_changes",
        sum(&|r| r.counts.parent_changes) as f64,
        "count",
        Count,
    );
    let done = sum(&|r| r.counts.sixtop_completed);
    let failed = sum(&|r| r.counts.sixtop_failed);
    put(&mut m, "sixtop.completed", done as f64, "count", Count);
    put(&mut m, "sixtop.failed", failed as f64, "count", Count);
    put(
        &mut m,
        "sixtop.success_ratio",
        ratio(done, done + failed),
        "ratio",
        Count,
    );
    for (i, hook) in HOOKS.iter().enumerate() {
        put(
            &mut m,
            format!("sf.{hook}.calls"),
            sf_calls[i] as f64,
            "count",
            Count,
        );
        put(
            &mut m,
            format!("sf.{hook}.self_ms"),
            sf_ns[i] as f64 / 1e6,
            "ms",
            Time,
        );
    }
    put(
        &mut m,
        "sf.share",
        sf_ns.iter().sum::<u64>() as f64 / 1e6 / cell_ms,
        "time_ratio",
        Time,
    );
    put(
        &mut m,
        "metrics.report_ms",
        t.total_ms("metrics.report"),
        "ms",
        Time,
    );
    let tracked = sum(&|r| r.counts.tracked_packets);
    put(
        &mut m,
        "metrics.tracked_packets",
        tracked as f64,
        "count",
        Count,
    );
    put(
        &mut m,
        "metrics.tracker_bytes_per_packet",
        ratio(sum(&|r| r.counts.tracker_bytes), tracked),
        "B/packet",
        Count,
    );
    for sched in ["gt-tsch", "orchestra"] {
        let ms: Vec<f64> = cells
            .iter()
            .zip(&runs)
            .filter(|(c, _)| c.exp.scheduler.name() == sched)
            .map(|(_, r)| r.cell_host_s * 1e3)
            .collect();
        let v = if ms.is_empty() { 0.0 } else { median(&ms) };
        put(&mut m, format!("sweep.{sched}.cell_ms"), v, "ms", Time);
    }
    let traced: f64 = runs.iter().map(CellRun::step_host_s).sum();
    let plain: f64 = untraced.iter().map(CellRun::step_host_s).sum();
    put(&mut m, "trace.overhead", traced / plain, "time_ratio", Time);
    Ok((m, t))
}

/// Renders the result line: one JSON object.
pub fn result_json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed
    );
    for (i, (name, m)) in o.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}
