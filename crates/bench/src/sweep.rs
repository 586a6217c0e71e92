//! Parallel sweep execution with a persistent per-cell result cache.
//!
//! Every cell of a sweep matrix is a pure function of one
//! [`Experiment`] value (scenario spec, scheduler configuration, run
//! spec incl. seed, overlay timeline), so re-running a figure only
//! needs to simulate the cells whose experiment changed. With
//! [`SweepConfig::cache_dir`] set, each finished cell is written to one
//! small file keyed by [`cell_key`] — a 128-bit FNV digest of the
//! experiment's *canonical byte encoding*
//! ([`Experiment::encode`]), which embeds the encoding schema version,
//! so a schema bump invalidates every old key by construction. Values
//! are stored as exact `f64` bit patterns, so cached and fresh runs
//! average to byte-identical rows. The serialization is hand-rolled
//! hex-on-text.
//!
//! Cell files end in a 128-bit FNV content checksum, so the loader can
//! tell three states apart: a *hit* (schema + checksum verify), a
//! *miss* (no file, or a file written by a different cache schema
//! version), and a *corrupt* cell (bytes present but torn, truncated or
//! bit-flipped). Corrupt cells are never served and never silently
//! treated as a miss: they are quarantined to a `corrupt/` subdirectory
//! and counted in [`SweepResults::corrupt_cells`]. Likewise cache
//! *writes* that fail are counted ([`SweepResults::store_errors`]) and
//! the first error is kept for the harness to print, instead of being
//! silently dropped.
//!
//! The same keys and encodings carry cells between processes: figure
//! binaries list their cells as one hex-encoded experiment per line
//! (`--list`, rendered by [`render_shard_list`]) or enqueue them on a
//! fault-tolerant on-disk queue (see [`crate::queue`]), any number of
//! `sweep_worker` processes drain that queue into the shared cache
//! directory, and the final figure run is then 100% cache hits. A
//! figure can also render from a *partially* warm cache
//! ([`SweepConfig::cache_only`]): missing cells are counted per point
//! and rendered as explicit `n/a` table cells instead of being
//! simulated (or panicking).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gtt_metrics::{FigureRow, Summary};
use gtt_workload::Experiment;

/// Bump when the cached *quantities* or the simulator's observable
/// behavior change — every old cell file then fails this header check
/// and is recomputed. (Key collisions across schema versions are
/// impossible for *input* changes: the cache key hashes the canonical
/// experiment encoding, whose own [`gtt_workload::ENCODING_VERSION`]
/// covers layout changes. This constant covers the other half — same
/// inputs, different simulator.) `--no-cache` (or deleting
/// `target/sweep-cache`) forces fresh runs, and CI's figure smoke
/// always passes `--no-cache` for this reason.
// v4: cell files carry a trailing fnv128 content checksum; torn or
// bit-flipped cells are quarantined instead of parsed.
const CACHE_SCHEMA: &str = "gtt-sweep-cache v4";

/// Shared prefix of every [`CACHE_SCHEMA`] generation. A first line
/// with this prefix but a different version is an *expected* stale cell
/// (a plain miss); any other first line means the file is damaged.
const CACHE_SCHEMA_FAMILY: &str = "gtt-sweep-cache ";

/// Subdirectory of the cache dir where damaged cells are parked.
const QUARANTINE_SUBDIR: &str = "corrupt";

/// One (x-value, experiment) point of a sweep. The per-seed cells are
/// the point's experiment re-seeded from [`SweepConfig::seeds`].
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The sweep coordinate ("30", "75", … — the figure's x axis).
    pub x_label: String,
    /// The experiment (its `run.seed` is overwritten per repetition).
    pub experiment: Experiment,
}

/// Sweep-wide settings.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Worker threads (`0` = one per available core, capped at the
    /// number of runs).
    pub threads: usize,
    /// Directory of the persistent per-cell result cache (`None`
    /// disables caching). The figure binaries default to
    /// `target/sweep-cache`.
    pub cache_dir: Option<PathBuf>,
    /// Render-only mode: cells absent from the cache are *not*
    /// simulated — they are counted per point
    /// ([`PointResult::missing`]) and rendered as `n/a`. This is how a
    /// figure is assembled from a partially-warm cache while queue
    /// workers are still filling it (or after some cells were parked in
    /// `failed/`).
    pub cache_only: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seeds: vec![1, 2, 3, 4, 5],
            threads: 0,
            cache_dir: None,
            cache_only: false,
        }
    }
}

impl SweepConfig {
    /// A fast configuration for smoke tests (2 seeds).
    pub fn quick() -> Self {
        SweepConfig {
            seeds: vec![1, 2],
            ..SweepConfig::default()
        }
    }

    /// Enables the persistent result cache under `dir`.
    pub fn cached(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }
}

/// Result of one sweep point, averaged over seeds.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The sweep coordinate.
    pub x_label: String,
    /// Scheduler name.
    pub scheduler: &'static str,
    /// Seed-averaged six-series row. Meaningless (all zero) when
    /// [`rows`](Self::rows) is empty — the table renderer prints `n/a`
    /// for such points.
    pub mean: FigureRow,
    /// Per-seed rows (for dispersion). May hold fewer rows than
    /// configured seeds — or none — in cache-only mode.
    pub rows: Vec<FigureRow>,
    /// Mean join ratio across seeds (sanity signal).
    pub join_ratio: f64,
    /// Mean packets generated.
    pub generated: f64,
    /// Cells of this point that could not be served in cache-only mode
    /// (plain misses and quarantined corrupt cells). Always 0 when
    /// simulation is allowed.
    pub missing: usize,
}

impl PointResult {
    /// 95% confidence half-width of the PDR across seeds (`NaN` when
    /// the point has no rows at all).
    pub fn pdr_ci95(&self) -> f64 {
        if self.rows.is_empty() {
            return f64::NAN;
        }
        self.rows
            .iter()
            .map(|r| r.pdr_percent)
            .collect::<Summary>()
            .ci95_half_width()
    }
}

/// All results of a figure sweep.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// Human-readable name of the x axis ("traffic (ppm/node)", …).
    pub x_axis: String,
    /// Results in input order.
    pub points: Vec<PointResult>,
    /// Cells served from the persistent cache.
    pub cache_hits: usize,
    /// Cells that had to be simulated (and were written back when
    /// caching is enabled). Does *not* include corrupt cells — those
    /// are counted separately so damage is never reported as a plain
    /// miss.
    pub cache_misses: usize,
    /// Damaged cache cells (torn/truncated/bit-flipped) that were
    /// quarantined to `corrupt/` instead of being served or silently
    /// recounted as misses.
    pub corrupt_cells: usize,
    /// Cache write-backs that failed (the cells themselves were still
    /// used for the figure; only persistence was lost).
    pub store_errors: usize,
    /// The first cache write-back error, for a one-line warning.
    pub first_store_error: Option<String>,
    /// Total cells skipped in cache-only mode (sum of per-point
    /// [`PointResult::missing`]).
    pub missing_cells: usize,
}

impl SweepResults {
    /// The distinct x labels in first-appearance order.
    pub fn x_labels(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for p in &self.points {
            if !seen.contains(&p.x_label) {
                seen.push(p.x_label.clone());
            }
        }
        seen
    }

    /// The distinct scheduler names in first-appearance order.
    pub fn schedulers(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for p in &self.points {
            if !seen.contains(&p.scheduler) {
                seen.push(p.scheduler);
            }
        }
        seen
    }

    /// The point for (scheduler, x), if present.
    pub fn get(&self, scheduler: &str, x: &str) -> Option<&PointResult> {
        self.points
            .iter()
            .find(|p| p.scheduler == scheduler && p.x_label == x)
    }
}

/// One cached cell: what [`PointResult`] needs per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CellResult {
    pub(crate) row: FigureRow,
    pub(crate) join_ratio: f64,
    pub(crate) generated: u64,
}

/// FNV-1a over `bytes`, from an arbitrary offset basis (two different
/// bases give two independent 64-bit digests — 128 bits of key).
fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// 128-bit FNV-1a digest as 32 hex chars (cache keys *and* the cell
/// files' trailing content checksum).
fn key_of_bytes(encoded: &[u8]) -> String {
    format!(
        "{:016x}{:016x}",
        fnv1a(encoded, 0xcbf2_9ce4_8422_2325),
        fnv1a(encoded, 0x9ae1_6a3b_2f90_404f),
    )
}

/// The cache key of one cell: a 128-bit FNV-1a digest of the
/// experiment's canonical byte encoding. Stable across processes,
/// hosts and runs — the canonical bytes contain every input that can
/// affect the simulation (and the encoding schema version), nothing
/// else.
pub fn cell_key(experiment: &Experiment) -> String {
    key_of_bytes(&experiment.encode())
}

/// What [`cache_fetch`] found for one key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CacheFetch {
    /// Schema and checksum verified; the value is trustworthy.
    Hit(CellResult),
    /// No cell (no file, an unreadable file, or a cell written by a
    /// different — older or newer — cache schema version).
    Miss,
    /// Bytes exist but are damaged: truncated, torn, bit-flipped, or
    /// not a cache cell at all. Must be quarantined, never recomputed
    /// as if it were a plain miss.
    Corrupt,
}

/// Classifies the cached cell under `dir/key` without side effects.
pub(crate) fn cache_fetch(dir: &Path, key: &str) -> CacheFetch {
    // Read errors of any kind are a miss, not corruption: "corrupt"
    // means bytes were present and wrong. An unreadable cell heals
    // itself when the recomputed value is renamed over it.
    let Ok(text) = std::fs::read_to_string(dir.join(key)) else {
        return CacheFetch::Miss;
    };
    parse_cell(&text)
}

/// Parses one cell file body (schema line, human line, values line,
/// checksum line).
fn parse_cell(text: &str) -> CacheFetch {
    let lines: Vec<&str> = text.lines().collect();
    let Some(&schema) = lines.first() else {
        return CacheFetch::Corrupt; // empty file
    };
    if schema != CACHE_SCHEMA {
        return if schema.starts_with(CACHE_SCHEMA_FAMILY) {
            CacheFetch::Miss // a different cache generation — expected
        } else {
            CacheFetch::Corrupt
        };
    }
    if lines.len() != 4 {
        return CacheFetch::Corrupt; // truncated or trailing garbage
    }
    let body = format!("{}\n{}\n{}\n", lines[0], lines[1], lines[2]);
    let Some(digest) = lines[3].strip_prefix("fnv128 ") else {
        return CacheFetch::Corrupt;
    };
    if digest != key_of_bytes(body.as_bytes()) {
        return CacheFetch::Corrupt; // bit flip somewhere in the body
    }
    fn next_f64(values: &mut std::str::SplitWhitespace<'_>) -> Option<f64> {
        let bits = u64::from_str_radix(values.next()?, 16).ok()?;
        Some(f64::from_bits(bits))
    }
    let parsed = (|| {
        let mut values = lines[2].split_whitespace();
        let row = FigureRow {
            pdr_percent: next_f64(&mut values)?,
            delay_ms: next_f64(&mut values)?,
            loss_per_min: next_f64(&mut values)?,
            duty_cycle_percent: next_f64(&mut values)?,
            queue_loss: next_f64(&mut values)?,
            received_per_min: next_f64(&mut values)?,
        };
        let join_ratio = next_f64(&mut values)?;
        let generated = u64::from_str_radix(values.next()?, 16).ok()?;
        Some(CellResult {
            row,
            join_ratio,
            generated,
        })
    })();
    match parsed {
        Some(cell) => CacheFetch::Hit(cell),
        // Checksum verified but the values don't parse: still damage
        // (a checksum collision or a writer bug), never a silent miss.
        None => CacheFetch::Corrupt,
    }
}

/// Moves a damaged cell out of the way, to `dir/corrupt/key`, so it is
/// preserved for inspection and can never be fetched again. Returns the
/// quarantine path.
pub(crate) fn quarantine(dir: &Path, key: &str) -> std::io::Result<PathBuf> {
    let qdir = dir.join(QUARANTINE_SUBDIR);
    std::fs::create_dir_all(&qdir)?;
    let dst = qdir.join(key);
    std::fs::rename(dir.join(key), &dst)?;
    Ok(dst)
}

/// Writes a finished cell through a per-process temp file + rename so
/// concurrent workers filling the same directory can never expose a
/// half-written cell. The body ends in a 128-bit FNV content checksum
/// that [`cache_fetch`] verifies. IO errors are returned (and counted
/// by callers into [`SweepResults::store_errors`]) — the cache is an
/// optimization for figure runs, but queue workers treat a failed store
/// as a failed cell, because the cache is their only output channel.
pub(crate) fn cache_store(
    dir: &Path,
    key: &str,
    experiment: &Experiment,
    c: &CellResult,
) -> std::io::Result<()> {
    let r = &c.row;
    let body = format!(
        "{CACHE_SCHEMA}\n{} {} seed {}\n{:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:x}\n",
        experiment.scenario.name(),
        experiment.scheduler.name(),
        experiment.run.seed,
        r.pdr_percent.to_bits(),
        r.delay_ms.to_bits(),
        r.loss_per_min.to_bits(),
        r.duty_cycle_percent.to_bits(),
        r.queue_loss.to_bits(),
        r.received_per_min.to_bits(),
        c.join_ratio.to_bits(),
        c.generated,
    );
    let text = format!("{body}fnv128 {}\n", key_of_bytes(body.as_bytes()));
    let tmp = dir.join(format!("{key}.tmp-{}", std::process::id()));
    let write = std::fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .and_then(|()| std::fs::rename(&tmp, dir.join(key)));
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

/// Simulates one cell.
pub(crate) fn run_cell(experiment: &Experiment) -> CellResult {
    let report = experiment.run();
    CellResult {
        row: report.row,
        join_ratio: report.join_ratio,
        generated: report.generated,
    }
}

/// True if `experiment`'s cell is already present (and verified) in the
/// cache under `dir`. Never simulates, never mutates the cache.
pub fn probe_cached(dir: &Path, experiment: &Experiment) -> bool {
    matches!(cache_fetch(dir, &cell_key(experiment)), CacheFetch::Hit(_))
}

/// Guarantees `experiment`'s cell exists in the cache under `dir`,
/// simulating and storing it on a miss. Returns `true` when the cell
/// was already cached. A corrupt cell is quarantined (with a warning)
/// and recomputed; a failed store is warned about. A test helper for
/// warming a cache one cell at a time.
///
/// # Panics
///
/// Panics if `dir` cannot be created.
#[cfg(test)]
pub(crate) fn ensure_cached(dir: &Path, experiment: &Experiment) -> bool {
    std::fs::create_dir_all(dir).expect("cache dir must be creatable");
    let key = cell_key(experiment);
    match cache_fetch(dir, &key) {
        CacheFetch::Hit(_) => return true,
        CacheFetch::Corrupt => {
            let _ = quarantine(dir, &key);
            eprintln!("sweep cache: quarantined corrupt cell {key}");
        }
        CacheFetch::Miss => {}
    }
    let cell = run_cell(experiment);
    if let Err(e) = cache_store(dir, &key, experiment, &cell) {
        eprintln!("sweep cache: failed to store cell {key}: {e}");
    }
    false
}

/// Renders a sweep's cells as `--list` lines without simulating
/// anything: one line per distinct cell —
/// `<key> <hit|miss> <hex-encoded experiment>` — against
/// `config.cache_dir` (no cache dir ⇒ everything is a miss). Cells
/// shared between points (e.g. a clean column reused across figures)
/// are emitted once.
pub fn render_shard_list(points: &[SweepPoint], config: &SweepConfig) -> String {
    let mut out = String::new();
    let mut seen = std::collections::BTreeSet::new();
    for point in points {
        for &seed in &config.seeds {
            let exp = point.experiment.with_seed(seed);
            let key = cell_key(&exp);
            if !seen.insert(key.clone()) {
                continue;
            }
            let hit = config
                .cache_dir
                .as_deref()
                .is_some_and(|dir| matches!(cache_fetch(dir, &key), CacheFetch::Hit(_)));
            let status = if hit { "hit" } else { "miss" };
            out.push_str(&format!("{key} {status} {}\n", exp.encode_hex()));
        }
    }
    out
}

/// Runs every `(point, seed)` cell, in parallel, and averages per
/// point. With [`SweepConfig::cache_dir`] set, cells whose experiment
/// is unchanged are served from the persistent cache instead of
/// simulated; corrupt cells are quarantined and recomputed (counted
/// separately from misses), and failed write-backs are counted. With
/// [`SweepConfig::cache_only`] additionally set, absent cells are
/// *skipped* and counted per point instead of simulated — rendering a
/// figure from a partially-warm cache never panics.
///
/// # Panics
///
/// Panics if `points` or `config.seeds` is empty, or if a worker thread
/// panics (experiment bugs should abort the harness loudly).
pub fn run_sweep(x_axis: &str, points: Vec<SweepPoint>, config: &SweepConfig) -> SweepResults {
    assert!(!points.is_empty(), "sweep needs at least one point");
    assert!(!config.seeds.is_empty(), "sweep needs at least one seed");

    let cache_dir = config.cache_dir.as_deref();
    if let Some(dir) = cache_dir {
        // Best effort: an unwritable cache degrades to plain reruns
        // (store errors are counted below).
        let _ = std::fs::create_dir_all(dir);
    }

    // Flatten into (point index, seed) jobs.
    let jobs: Vec<(usize, u64)> = (0..points.len())
        .flat_map(|i| config.seeds.iter().map(move |&s| (i, s)))
        .collect();
    let threads = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(jobs.len())
    } else {
        config.threads.min(jobs.len())
    };

    // Per-point accumulator of (seed, cell result).
    type SeedRuns = Vec<(u64, CellResult)>;
    let next = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(0);
    let corrupt = AtomicUsize::new(0);
    let store_errors = AtomicUsize::new(0);
    let first_store_error: Mutex<Option<String>> = Mutex::new(None);
    let missing: Vec<AtomicUsize> = (0..points.len()).map(|_| AtomicUsize::new(0)).collect();
    let results: Vec<Mutex<SeedRuns>> = (0..points.len()).map(|_| Mutex::new(Vec::new())).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= jobs.len() {
                    break;
                }
                let (i, seed) = jobs[j];
                let experiment = points[i].experiment.with_seed(seed);
                let key = cache_dir.map(|_| cell_key(&experiment));
                let (fetched, was_corrupt) = match (cache_dir, &key) {
                    (Some(dir), Some(k)) => match cache_fetch(dir, k) {
                        CacheFetch::Hit(cell) => (Some(cell), false),
                        CacheFetch::Miss => (None, false),
                        CacheFetch::Corrupt => {
                            corrupt.fetch_add(1, Ordering::Relaxed);
                            let _ = quarantine(dir, k);
                            (None, true)
                        }
                    },
                    _ => (None, false),
                };
                let cell = match fetched {
                    Some(cell) => {
                        hits.fetch_add(1, Ordering::Relaxed);
                        cell
                    }
                    None if config.cache_only => {
                        // Render-only: report the gap instead of paying
                        // for (or panicking over) the simulation.
                        missing[i].fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    None => {
                        if !was_corrupt {
                            misses.fetch_add(1, Ordering::Relaxed);
                        }
                        let cell = run_cell(&experiment);
                        if let (Some(dir), Some(k)) = (cache_dir, &key) {
                            if let Err(e) = cache_store(dir, k, &experiment, &cell) {
                                store_errors.fetch_add(1, Ordering::Relaxed);
                                let mut slot =
                                    first_store_error.lock().expect("no poisoned error slot");
                                slot.get_or_insert_with(|| format!("cell {k}: {e}"));
                            }
                        }
                        cell
                    }
                };
                results[i]
                    .lock()
                    .expect("no poisoned result lock")
                    .push((seed, cell));
            });
        }
    });

    let point_results: Vec<PointResult> = points
        .iter()
        .zip(results)
        .zip(&missing)
        .map(|((point, cell), missed)| {
            let mut runs = cell.into_inner().expect("no poisoned result lock");
            runs.sort_by_key(|(seed, _)| *seed); // deterministic order
            let rows: Vec<FigureRow> = runs.iter().map(|(_, c)| c.row).collect();
            let mean = if rows.is_empty() {
                FigureRow::default() // rendered as n/a, never shown
            } else {
                FigureRow::mean(rows.iter())
            };
            let n = runs.len().max(1) as f64;
            PointResult {
                x_label: point.x_label.clone(),
                scheduler: point.experiment.scheduler.name(),
                mean,
                join_ratio: runs.iter().map(|(_, c)| c.join_ratio).sum::<f64>() / n,
                generated: runs.iter().map(|(_, c)| c.generated as f64).sum::<f64>() / n,
                rows,
                missing: missed.load(Ordering::Relaxed),
            }
        })
        .collect();

    SweepResults {
        x_axis: x_axis.to_string(),
        missing_cells: point_results.iter().map(|p| p.missing).sum(),
        points: point_results,
        cache_hits: hits.into_inner(),
        cache_misses: misses.into_inner(),
        corrupt_cells: corrupt.into_inner(),
        store_errors: store_errors.into_inner(),
        first_store_error: first_store_error.into_inner().expect("no poisoned slot"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtt_workload::{
        Experiment, NoiseBurst, Overlay, RunSpec, ScenarioSpec, SchedulerKind, ENCODING_VERSION,
    };

    fn tiny_experiment(ppm: f64) -> Experiment {
        Experiment::new(ScenarioSpec::star(2), SchedulerKind::minimal(8)).with_run(RunSpec {
            traffic_ppm: ppm,
            warmup_secs: 20,
            measure_secs: 30,
            seed: 0,
            ..RunSpec::default()
        })
    }

    fn tiny_points() -> Vec<SweepPoint> {
        vec![
            SweepPoint {
                x_label: "10".into(),
                experiment: tiny_experiment(10.0),
            },
            SweepPoint {
                x_label: "20".into(),
                experiment: tiny_experiment(20.0),
            },
        ]
    }

    #[test]
    fn sweep_runs_and_averages() {
        let cfg = SweepConfig {
            seeds: vec![1, 2],
            threads: 2,
            ..SweepConfig::default()
        };
        let results = run_sweep("traffic", tiny_points(), &cfg);
        assert_eq!(results.points.len(), 2);
        assert_eq!(results.x_labels(), vec!["10", "20"]);
        assert_eq!(results.schedulers(), vec!["minimal"]);
        for p in &results.points {
            assert_eq!(p.rows.len(), 2, "one row per seed");
            assert!(p.generated > 0.0);
            assert!(p.join_ratio > 0.0);
            assert_eq!(p.missing, 0);
        }
        assert!(results.get("minimal", "10").is_some());
        assert!(results.get("minimal", "99").is_none());
        assert_eq!(results.corrupt_cells, 0);
        assert_eq!(results.store_errors, 0);
        assert_eq!(results.missing_cells, 0);
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let one = SweepConfig {
            seeds: vec![7],
            threads: 1,
            ..SweepConfig::default()
        };
        let many = SweepConfig {
            seeds: vec![7],
            threads: 4,
            ..SweepConfig::default()
        };
        let a = run_sweep("x", tiny_points(), &one);
        let b = run_sweep("x", tiny_points(), &many);
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.mean, pb.mean, "thread count must not affect results");
        }
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_sweep_rejected() {
        let _ = run_sweep("x", vec![], &SweepConfig::default());
    }

    /// A throwaway cache directory, unique per test, emptied on entry.
    fn scratch_cache(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gtt-sweep-cache-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn second_identical_sweep_is_served_from_cache() {
        let cfg = SweepConfig {
            seeds: vec![1, 2],
            threads: 2,
            ..SweepConfig::default()
        }
        .cached(scratch_cache("identical"));
        let first = run_sweep("traffic", tiny_points(), &cfg);
        assert_eq!(first.cache_hits, 0, "cold cache cannot hit");
        assert_eq!(first.cache_misses, 4, "2 points x 2 seeds");
        let second = run_sweep("traffic", tiny_points(), &cfg);
        assert_eq!(second.cache_hits, 4, "warm cache must serve every cell");
        assert_eq!(second.cache_misses, 0);
        for (a, b) in first.points.iter().zip(&second.points) {
            assert_eq!(a.mean, b.mean, "cached rows must average identically");
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.join_ratio, b.join_ratio);
            assert_eq!(a.generated, b.generated);
        }
    }

    #[test]
    fn changed_inputs_invalidate_exactly_their_cells() {
        let cfg = SweepConfig {
            seeds: vec![1],
            threads: 1,
            ..SweepConfig::default()
        }
        .cached(scratch_cache("invalidate"));
        let _ = run_sweep("traffic", tiny_points(), &cfg);
        // Change one point's traffic rate: only that cell re-runs.
        let mut points = tiny_points();
        points[1].experiment.run.traffic_ppm = 25.0;
        let second = run_sweep("traffic", points, &cfg);
        assert_eq!(second.cache_hits, 1, "unchanged point still cached");
        assert_eq!(second.cache_misses, 1, "changed point re-ran");
        // An overlay is part of the key too.
        let mut points = tiny_points();
        points[0]
            .experiment
            .overlays
            .push(Overlay::Noise(NoiseBurst::wifi_like()));
        let third = run_sweep("traffic", points, &cfg);
        assert_eq!(third.cache_misses, 1, "noisy variant is a distinct cell");
    }

    /// Pins the key derivation across runs, processes and hosts: the
    /// canonical encoding has no ambient inputs, so this literal can
    /// only change when the encoding (or its schema version) does —
    /// which is exactly when every cached cell *should* be invalidated.
    /// (The *cache file* schema — `CACHE_SCHEMA` — is deliberately not
    /// part of the key: bumping it makes old cells miss via the header
    /// check without re-keying anything.)
    #[test]
    fn cell_keys_are_stable_across_runs() {
        let exp = tiny_experiment(10.0).with_seed(1);
        assert_eq!(cell_key(&exp), cell_key(&exp.clone()));
        // Schema v2 (City topologies) — the v1 literal was
        // 15eaf8ff5efae94710c8f412083bbde5.
        assert_eq!(cell_key(&exp), "419329df2103b9e4b44e479e36d916ee");
    }

    /// An encoding-schema bump must change every key: old cells become
    /// unreachable instead of silently served across a layout change.
    #[test]
    fn schema_version_bump_invalidates_cached_cells() {
        let dir = scratch_cache("schema-bump");
        let exp = tiny_experiment(10.0).with_seed(1);
        assert!(!ensure_cached(&dir, &exp), "cold cache computes");
        assert!(ensure_cached(&dir, &exp), "warm cache hits");
        let bumped_key = key_of_bytes(&exp.encode_with_version(ENCODING_VERSION + 1));
        assert_ne!(
            bumped_key,
            cell_key(&exp),
            "a version bump must re-key every cell"
        );
        assert_eq!(
            cache_fetch(&dir, &bumped_key),
            CacheFetch::Miss,
            "the bumped key must miss the old cell"
        );
        // The file-format schema line is the second guard: a cell
        // written by a different CACHE_SCHEMA is a *miss* (not corrupt,
        // not a parse): stale generations are expected, not damage.
        let key = cell_key(&exp);
        let stale = std::fs::read_to_string(dir.join(&key))
            .unwrap()
            .replace(CACHE_SCHEMA, "gtt-sweep-cache v0");
        std::fs::write(dir.join(&key), stale).unwrap();
        assert!(!probe_cached(&dir, &exp), "foreign schema line must miss");
        assert_eq!(cache_fetch(&dir, &key), CacheFetch::Miss);
    }

    /// The concrete v1 → v2 transition (City topologies): cells written
    /// by a v1 binary key under the v1 encoding and can never be served
    /// to this build — the version is part of the encoded bytes the key
    /// hashes, so no delete/migration step is needed.
    #[test]
    fn v1_cells_are_unreachable_after_the_city_schema_bump() {
        let dir = scratch_cache("schema-bump-v1");
        let exp = tiny_experiment(10.0).with_seed(1);
        let v1_key = key_of_bytes(&exp.encode_with_version(1));
        assert_ne!(v1_key, cell_key(&exp), "v1 keys differ from v2 keys");
        // Simulate a leftover v1 cell under its own key: the current
        // build never derives that key, so it stays cold.
        assert!(!ensure_cached(&dir, &exp), "cold cache computes");
        assert_eq!(
            cache_fetch(&dir, &v1_key),
            CacheFetch::Miss,
            "nothing is ever served from the v1 key space"
        );
    }

    /// A truncated cell must be *corrupt* — quarantined and counted —
    /// never served, and never silently treated as a plain miss.
    #[test]
    fn truncated_cell_is_quarantined_not_a_silent_miss() {
        let dir = scratch_cache("truncated");
        let cfg = SweepConfig {
            seeds: vec![1],
            threads: 1,
            ..SweepConfig::default()
        }
        .cached(dir.clone());
        let first = run_sweep("traffic", tiny_points(), &cfg);
        // Truncate one cell mid-file (schema line intact, body cut).
        let key = cell_key(&tiny_points()[0].experiment.with_seed(1));
        let text = std::fs::read_to_string(dir.join(&key)).unwrap();
        std::fs::write(dir.join(&key), &text[..CACHE_SCHEMA.len() + 6]).unwrap();
        assert_eq!(cache_fetch(&dir, &key), CacheFetch::Corrupt);
        assert!(!probe_cached(
            &dir,
            &tiny_points()[0].experiment.with_seed(1)
        ));

        let second = run_sweep("traffic", tiny_points(), &cfg);
        assert_eq!(second.corrupt_cells, 1, "damage is counted");
        assert_eq!(second.cache_misses, 0, "damage is not a plain miss");
        assert_eq!(second.cache_hits, 1, "the intact cell still serves");
        assert!(
            dir.join(QUARANTINE_SUBDIR).join(&key).exists(),
            "damaged bytes are preserved for inspection"
        );
        // The recomputed cell is identical and the cache is whole again.
        for (a, b) in first.points.iter().zip(&second.points) {
            assert_eq!(a.rows, b.rows, "recomputed cell is byte-identical");
        }
        let third = run_sweep("traffic", tiny_points(), &cfg);
        assert_eq!(third.cache_hits, 2);
        assert_eq!(third.corrupt_cells, 0);
    }

    /// A bit flip in the values line fails the content checksum.
    #[test]
    fn bit_flipped_cell_fails_the_checksum() {
        let dir = scratch_cache("bitflip");
        let exp = tiny_experiment(10.0).with_seed(1);
        assert!(!ensure_cached(&dir, &exp));
        let key = cell_key(&exp);
        let mut bytes = std::fs::read(dir.join(&key)).unwrap();
        // Flip one bit in the values line (third line).
        let third_line_start = {
            let text = String::from_utf8(bytes.clone()).unwrap();
            let mut idx = 0;
            for (i, line) in text.split_inclusive('\n').enumerate() {
                if i == 2 {
                    break;
                }
                idx += line.len();
            }
            idx
        };
        bytes[third_line_start] ^= 0x01;
        std::fs::write(dir.join(&key), &bytes).unwrap();
        assert_eq!(cache_fetch(&dir, &key), CacheFetch::Corrupt);
        // ensure_cached quarantines + recomputes instead of serving it.
        assert!(!ensure_cached(&dir, &exp), "corrupt cell is recomputed");
        assert!(dir.join(QUARANTINE_SUBDIR).join(&key).exists());
        assert!(ensure_cached(&dir, &exp), "cache is whole again");
    }

    /// Cache-only rendering from a partially-warm cache: present cells
    /// are served, absent cells are counted per point — no simulation,
    /// no panic.
    #[test]
    fn cache_only_reports_missing_cells_instead_of_simulating() {
        let dir = scratch_cache("cache-only");
        let warm = SweepConfig {
            seeds: vec![1, 2],
            threads: 1,
            ..SweepConfig::default()
        }
        .cached(dir.clone());
        // Warm exactly one of the two points.
        let _ = run_sweep("traffic", vec![tiny_points().remove(0)], &warm);

        let render = SweepConfig {
            cache_only: true,
            ..warm.clone()
        };
        let results = run_sweep("traffic", tiny_points(), &render);
        assert_eq!(results.cache_hits, 2, "warm point served");
        assert_eq!(results.cache_misses, 0, "nothing simulated");
        assert_eq!(results.missing_cells, 2, "cold point reported");
        assert_eq!(results.points[0].missing, 0);
        assert_eq!(results.points[0].rows.len(), 2);
        assert_eq!(results.points[1].missing, 2);
        assert!(results.points[1].rows.is_empty(), "no fabricated rows");
        assert!(results.points[1].pdr_ci95().is_nan());
    }

    /// Failed cache write-backs are counted and the first error is
    /// surfaced — never silently swallowed. The sweep itself still
    /// completes from the fresh simulations.
    #[test]
    fn store_errors_are_counted_and_surfaced() {
        let blocker = std::env::temp_dir().join("gtt-sweep-store-error-blocker");
        let _ = std::fs::remove_dir_all(&blocker);
        let _ = std::fs::remove_file(&blocker);
        std::fs::write(&blocker, b"not a directory").unwrap();
        // The cache dir's parent is a plain file: every create fails.
        let cfg = SweepConfig {
            seeds: vec![1],
            threads: 1,
            ..SweepConfig::default()
        }
        .cached(blocker.join("cache"));
        let results = run_sweep("traffic", tiny_points(), &cfg);
        assert_eq!(results.store_errors, 2, "both write-backs failed");
        assert!(results.first_store_error.is_some());
        assert_eq!(results.points.len(), 2, "figure still rendered");
        assert!(results.points.iter().all(|p| p.rows.len() == 1));
    }

    #[test]
    fn shard_list_reflects_cache_state_and_round_trips() {
        let dir = scratch_cache("shard-list");
        let cfg = SweepConfig {
            seeds: vec![1, 2],
            threads: 1,
            ..SweepConfig::default()
        }
        .cached(dir.clone());
        let listing = render_shard_list(&tiny_points(), &cfg);
        assert_eq!(listing.lines().count(), 4, "2 points × 2 seeds, no dupes");
        // Every line decodes back to its experiment and matches its key.
        for line in listing.lines() {
            let mut fields = line.split_whitespace();
            let key = fields.next().unwrap();
            assert_eq!(fields.next(), Some("miss"), "cold cache lists misses");
            let exp = Experiment::decode_hex(fields.next().unwrap()).expect("hex decodes");
            assert_eq!(cell_key(&exp), key);
        }
        // Fill one cell: exactly that line flips to hit.
        let filled = tiny_points()[0].experiment.with_seed(2);
        ensure_cached(&dir, &filled);
        let relisted = render_shard_list(&tiny_points(), &cfg);
        assert_eq!(relisted.lines().filter(|l| l.contains(" hit ")).count(), 1);
        // Duplicate cells across points are emitted once.
        let mut dup = tiny_points();
        dup.push(dup[0].clone());
        assert_eq!(render_shard_list(&dup, &cfg).lines().count(), 4);
    }
}
