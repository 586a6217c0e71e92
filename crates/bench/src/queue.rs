//! Fault-tolerant work-stealing sweep queue.
//!
//! A static partition of a figure's cells loses the share of a worker
//! that dies, and a slow worker straggles the whole figure. This module
//! instead keeps the cells in an on-disk *queue directory* that any
//! number of workers — threads, processes, or (over a shared
//! filesystem) hosts — drain cooperatively, surviving crashes of any of
//! them:
//!
//! ```text
//! queue/
//!   pending/<key>   cell waiting to be claimed
//!   leases/<key>    cell being computed; carries worker id + heartbeat
//!   done/<key>      completion marker (result lives in the sweep cache)
//!   failed/<key>    cell parked after its retry budget: a `# error`
//!                   comment, then the cell's `--list` line
//! ```
//!
//! A parked cell is re-run, once its cause is fixed, by deleting
//! `failed/<key>` and enqueueing the figure again (`--enqueue`).
//!
//! Every transition is a single atomic `rename` on one filesystem (the
//! same temp+rename discipline as the sweep cache), so each cell is in
//! exactly one state at any instant and two workers can never both own
//! a lease:
//!
//! ```text
//!            claim (rename)                 complete
//! pending ───────────────────▶ leases ───────────────────▶ done
//!    ▲                          │   │      (marker first,
//!    │   requeue-on-death       │   │       then lease removed)
//!    └──────────────────────────┘   └─────▶ failed
//!        (stale heartbeat,            (retry budget exhausted,
//!         retries < budget)            or poisoned entry)
//! ```
//!
//! **Liveness without clocks.** A lease file carries a monotonically
//! increasing heartbeat counter that the owning process re-stamps every
//! [`QueueWorkerConfig::heartbeat`]. Staleness is detected
//! *observer-side*: a worker watching someone else's lease remembers
//! the `(worker, beat)` pair it last saw and how long ago *on its own
//! clock*; only when the pair stays frozen past the timeout is the
//! lease declared dead and renamed back to `pending/` (with its retry
//! count bumped). No synchronized clocks, no absolute timestamps in
//! any file.
//!
//! **Safety ordering.** Every exit from the lease state creates the
//! successor state *before* removing the lease (done marker, requeued
//! pending entry, or failed entry first; lease second). A crash between
//! the two steps leaves the cell in *two* states, never zero — and the
//! duplicate is benign: claims check the `done/` marker first, and a
//! double-computed cell writes byte-identical results because the
//! simulation is deterministic. Cells are never lost.
//!
//! **Termination.** A worker exits only after seeing pending empty,
//! leases empty, and pending empty *again* — a requeue in flight during
//! the first two listings (lease removed, pending entry just created)
//! is caught by the third.
//!
//! The queue schedules work; it never touches simulation semantics.
//! Results flow exclusively through the content-addressed sweep cache,
//! so a figure rendered from a queue-filled cache is byte-identical to
//! a single-process `--no-cache` run (see `DETERMINISM.md`).

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gtt_workload::Experiment;

use crate::sweep::{
    cache_fetch, cache_store, cell_key, quarantine, run_cell, CacheFetch, SweepConfig, SweepPoint,
};

/// First line of every pending/lease cell file. Bump on layout change.
const QUEUE_CELL_HEADER: &str = "gtt-queue cell v1";

/// Claim-contention backoff: first sleep.
const BACKOFF_BASE: Duration = Duration::from_millis(15);

/// Claim-contention backoff: cap (also the idle poll interval while
/// waiting out someone else's live lease).
const BACKOFF_CAP: Duration = Duration::from_millis(1000);

/// A parsed pending/lease cell file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueCell {
    /// Requeues so far (0 on first enqueue).
    pub retries: u32,
    /// Owning worker id, or `-` while pending.
    pub worker: String,
    /// Heartbeat counter (0 while pending; stamped upward while leased).
    pub beat: u64,
    /// The hex-encoded canonical experiment ([`Experiment::encode_hex`]).
    pub hex: String,
}

impl QueueCell {
    fn render(&self) -> String {
        format!(
            "{QUEUE_CELL_HEADER}\nretries {}\nworker {}\nbeat {}\n{}\n",
            self.retries, self.worker, self.beat, self.hex
        )
    }

    fn parse(text: &str) -> Option<QueueCell> {
        let mut lines = text.lines();
        if lines.next()? != QUEUE_CELL_HEADER {
            return None;
        }
        let retries = lines.next()?.strip_prefix("retries ")?.parse().ok()?;
        let worker = lines.next()?.strip_prefix("worker ")?.to_string();
        let beat = lines.next()?.strip_prefix("beat ")?.parse().ok()?;
        let hex = lines.next()?.to_string();
        if lines.next().is_some() || hex.is_empty() {
            return None;
        }
        Some(QueueCell {
            retries,
            worker,
            beat,
            hex,
        })
    }
}

/// Outcome of [`QueueDir::requeue_stale`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requeue {
    /// The lease changed (or vanished) since it was observed — its
    /// owner is alive (or finished); nothing was touched.
    Refreshed,
    /// The dead worker's cell is back in `pending/` with its retry
    /// count bumped.
    Requeued,
    /// The cell exhausted its retry budget and was parked in `failed/`.
    Parked,
}

/// Handle to one on-disk queue directory.
#[derive(Debug, Clone)]
pub struct QueueDir {
    root: PathBuf,
}

impl QueueDir {
    /// Opens (creating if needed) the queue under `root`. Idempotent
    /// and safe to race from many processes.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<QueueDir> {
        let q = QueueDir { root: root.into() };
        for sub in ["pending", "leases", "done", "failed"] {
            std::fs::create_dir_all(q.root.join(sub))?;
        }
        Ok(q)
    }

    /// The queue's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn dir(&self, sub: &str) -> PathBuf {
        self.root.join(sub)
    }

    /// Sorted cell keys in one state directory (non-key files ignored,
    /// so stray temp files can never be mistaken for cells).
    fn keys_in(&self, sub: &str) -> std::io::Result<Vec<String>> {
        let mut keys = Vec::new();
        for entry in std::fs::read_dir(self.dir(sub))? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.len() == 32 && name.bytes().all(|b| b.is_ascii_hexdigit()) {
                keys.push(name.to_string());
            }
        }
        keys.sort_unstable();
        Ok(keys)
    }

    /// Keys waiting to be claimed.
    pub fn pending_keys(&self) -> std::io::Result<Vec<String>> {
        self.keys_in("pending")
    }

    /// Keys currently leased.
    pub fn lease_keys(&self) -> std::io::Result<Vec<String>> {
        self.keys_in("leases")
    }

    /// Keys with a completion marker.
    pub fn done_keys(&self) -> std::io::Result<Vec<String>> {
        self.keys_in("done")
    }

    /// Keys parked after exhausting their retry budget.
    pub fn failed_keys(&self) -> std::io::Result<Vec<String>> {
        self.keys_in("failed")
    }

    /// True if `key` has a completion marker.
    pub fn is_done(&self, key: &str) -> bool {
        self.dir("done").join(key).exists()
    }

    /// True if `key` is anywhere in the queue (pending, leased, done or
    /// failed).
    pub fn contains(&self, key: &str) -> bool {
        ["pending", "leases", "done", "failed"]
            .iter()
            .any(|sub| self.dir(sub).join(key).exists())
    }

    /// Atomically writes `text` to `sub/key` via a per-process temp
    /// file + rename.
    fn write_atomic(&self, sub: &str, key: &str, text: &str) -> std::io::Result<()> {
        let tmp = self
            .dir(sub)
            .join(format!("{key}.tmp-{}", std::process::id()));
        let write = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(text.as_bytes()))
            .and_then(|()| std::fs::rename(&tmp, self.dir(sub).join(key)));
        if write.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        write
    }

    /// Adds a cell to `pending/` (retries 0). No-op if the key already
    /// exists anywhere in the queue.
    pub fn enqueue_hex(&self, key: &str, hex: &str) -> std::io::Result<bool> {
        if self.contains(key) {
            return Ok(false);
        }
        let cell = QueueCell {
            retries: 0,
            worker: "-".to_string(),
            beat: 0,
            hex: hex.to_string(),
        };
        self.write_atomic("pending", key, &cell.render())?;
        Ok(true)
    }

    /// Claims a pending cell for `worker`: atomically renames
    /// `pending/key` into `leases/key`, then stamps it with the worker
    /// id and heartbeat 1. Returns `None` when the cell is gone
    /// (claimed by someone else, or already done — a done pending entry
    /// is discarded). A torn/unparseable entry is parked and yields
    /// `None`.
    pub fn claim(&self, key: &str, worker: &str) -> std::io::Result<Option<QueueCell>> {
        if self.is_done(key) {
            // A requeue raced a completion: the result already exists.
            let _ = std::fs::remove_file(self.dir("pending").join(key));
            return Ok(None);
        }
        let lease_path = self.dir("leases").join(key);
        match std::fs::rename(self.dir("pending").join(key), &lease_path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        }
        // We own the lease exclusively now: the rename can only succeed
        // for one claimant.
        let text = std::fs::read_to_string(&lease_path)?;
        let Some(mut cell) = QueueCell::parse(&text) else {
            self.park_raw(key, "unparseable queue cell", &text)?;
            return Ok(None);
        };
        cell.worker = worker.to_string();
        cell.beat = 1;
        self.write_atomic("leases", key, &cell.render())?;
        Ok(Some(cell))
    }

    /// Re-stamps a lease this process owns: bumps the heartbeat counter
    /// in place (temp+rename). A vanished lease is a no-op — the cell
    /// just completed on another thread.
    pub fn stamp_lease(&self, key: &str) -> std::io::Result<()> {
        let text = match std::fs::read_to_string(self.dir("leases").join(key)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let Some(mut cell) = QueueCell::parse(&text) else {
            return Ok(()); // torn entry; the stale sweep will park it
        };
        cell.beat += 1;
        self.write_atomic("leases", key, &cell.render())
    }

    /// Reads a lease without claiming it (for the stale sweep).
    pub fn read_lease(&self, key: &str) -> Option<QueueCell> {
        let text = std::fs::read_to_string(self.dir("leases").join(key)).ok()?;
        QueueCell::parse(&text)
    }

    /// Marks `key` complete: writes the `done/` marker *first*, then
    /// removes the lease — a crash in between leaves a harmless
    /// done+lease pair that the stale sweep cleans up.
    pub fn complete(&self, key: &str, worker: &str) -> std::io::Result<()> {
        self.write_atomic("done", key, &format!("done {worker}\n"))?;
        match std::fs::remove_file(self.dir("leases").join(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Parks a leased cell in `failed/` with the captured error: a
    /// `# error` comment line, then the cell's `--list` line
    /// (`<key> miss <hex>`). While the entry exists, [`enqueue_points`]
    /// skips the cell; deleting it and enqueueing again re-runs the
    /// cell once its cause is fixed.
    pub fn park(&self, key: &str, error: &str, hex: &str) -> std::io::Result<()> {
        let error = error.replace('\n', " ");
        self.write_atomic("failed", key, &format!("# {error}\n{key} miss {hex}\n"))?;
        match std::fs::remove_file(self.dir("leases").join(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// [`park`](Self::park) for entries whose hex is unrecoverable.
    fn park_raw(&self, key: &str, error: &str, raw: &str) -> std::io::Result<()> {
        let error = error.replace('\n', " ");
        let raw = raw.replace('\n', " ");
        self.write_atomic("failed", key, &format!("# {error}: {raw}\n"))?;
        match std::fs::remove_file(self.dir("leases").join(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Takes a lease away from a worker observed dead: requeues the
    /// cell to `pending/` with its retry count bumped — or parks it if
    /// the budget is spent. `observed` is the `(worker, beat)` pair the
    /// caller has watched stay frozen past the timeout; if the lease no
    /// longer matches it (re-stamped, completed, already requeued), the
    /// owner is alive and nothing is touched.
    pub fn requeue_stale(
        &self,
        key: &str,
        observed: (&str, u64),
        retry_budget: u32,
    ) -> std::io::Result<Requeue> {
        let Some(cell) = self.read_lease(key) else {
            return Ok(Requeue::Refreshed);
        };
        if (cell.worker.as_str(), cell.beat) != observed {
            return Ok(Requeue::Refreshed);
        }
        if self.is_done(key) {
            // Completion crashed between marker and lease removal:
            // finish the job for it.
            let _ = std::fs::remove_file(self.dir("leases").join(key));
            return Ok(Requeue::Refreshed);
        }
        let retries = cell.retries + 1;
        if retries > retry_budget {
            self.park(
                key,
                &format!(
                    "lease expired {retries} times (last worker {}); retry budget {retry_budget} spent",
                    cell.worker
                ),
                &cell.hex,
            )?;
            return Ok(Requeue::Parked);
        }
        let requeued = QueueCell {
            retries,
            worker: "-".to_string(),
            beat: 0,
            hex: cell.hex,
        };
        // Successor state first, lease second: a crash here duplicates
        // the cell (benign — deterministic results), never loses it.
        self.write_atomic("pending", key, &requeued.render())?;
        let _ = std::fs::remove_file(self.dir("leases").join(key));
        Ok(Requeue::Requeued)
    }
}

/// Observer-side staleness detector: remembers the `(worker, beat)`
/// pair last seen per lease and how long ago on the *local* clock. A
/// lease is stale when the pair stays frozen past the timeout — no
/// cross-host clock comparison ever happens.
#[derive(Debug, Default)]
pub struct StaleTracker {
    seen: HashMap<String, (String, u64, Instant)>,
}

impl StaleTracker {
    /// Creates an empty tracker.
    pub fn new() -> StaleTracker {
        StaleTracker::default()
    }

    /// Records one observation of `key`'s lease; returns `true` when
    /// the heartbeat has been frozen for at least `timeout`.
    pub fn observe(&mut self, key: &str, worker: &str, beat: u64, timeout: Duration) -> bool {
        let now = Instant::now();
        match self.seen.get_mut(key) {
            Some((w, b, since)) if *w == worker && *b == beat => {
                now.duration_since(*since) >= timeout
            }
            Some(entry) => {
                *entry = (worker.to_string(), beat, now);
                false
            }
            None => {
                self.seen
                    .insert(key.to_string(), (worker.to_string(), beat, now));
                false
            }
        }
    }

    /// Drops the record for `key` (after a requeue or completion).
    pub fn forget(&mut self, key: &str) {
        self.seen.remove(key);
    }
}

/// Settings for [`run_queue_worker`].
#[derive(Debug, Clone)]
pub struct QueueWorkerConfig {
    /// The queue directory (created if absent).
    pub queue: PathBuf,
    /// The sweep cache directory results are written to.
    pub cache_dir: PathBuf,
    /// Worker threads (`0` = one per available core).
    pub jobs: usize,
    /// Interval between lease re-stamps.
    pub heartbeat: Duration,
    /// How long a frozen heartbeat must be observed before the lease is
    /// declared dead. Clamped to at least 3 heartbeats so a merely slow
    /// worker is not robbed.
    pub lease_timeout: Duration,
    /// Requeues per cell before it is parked in `failed/`.
    pub retry_budget: u32,
    /// This process's worker id (stamped into leases and done markers).
    pub worker_id: String,
}

impl QueueWorkerConfig {
    /// Defaults: auto thread count, 500 ms heartbeat, 10 s lease
    /// timeout, 3 retries, a pid-derived worker id.
    pub fn new(queue: impl Into<PathBuf>, cache_dir: impl Into<PathBuf>) -> QueueWorkerConfig {
        static NONCE: AtomicUsize = AtomicUsize::new(0);
        QueueWorkerConfig {
            queue: queue.into(),
            cache_dir: cache_dir.into(),
            jobs: 0,
            heartbeat: Duration::from_millis(500),
            lease_timeout: Duration::from_secs(10),
            retry_budget: 3,
            worker_id: format!(
                "w{}-{}",
                std::process::id(),
                NONCE.fetch_add(1, Ordering::Relaxed)
            ),
        }
    }

    fn effective_timeout(&self) -> Duration {
        self.lease_timeout.max(self.heartbeat * 3)
    }
}

/// What one [`run_queue_worker`] call did and saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueWorkerStats {
    /// Cells this worker completed (computed + cache hits).
    pub completed: usize,
    /// Cells this worker simulated.
    pub computed: usize,
    /// Cells already in the sweep cache when claimed.
    pub cache_hits: usize,
    /// Requeues this worker performed (stale leases of dead workers
    /// plus its own retryable failures).
    pub requeued: usize,
    /// Cells this worker parked in `failed/`.
    pub parked: usize,
    /// Corrupt cache cells quarantined.
    pub corrupt: usize,
    /// Cache write-backs that failed (each also requeues or parks the
    /// cell — a result that could not be stored was never delivered).
    pub store_errors: usize,
    /// Queue-wide: cells in `failed/` at exit (any worker's).
    pub failed_total: usize,
    /// Queue-wide: cells in `done/` at exit.
    pub done_total: usize,
    /// Queue-wide: cells still pending or leased at exit. The
    /// termination check makes this 0; anything else means a cell
    /// leaked.
    pub lost: usize,
}

/// Drains the queue: claims pending cells, fills the sweep cache, and
/// steals from dead workers until the queue is empty. Runs
/// `config.jobs` claim/compute threads plus one heartbeat thread that
/// re-stamps every lease this process holds. Returns when pending and
/// leases are both empty (checked pending–leases–pending to close the
/// requeue race); cells whose retry budget is spent are parked in
/// `failed/`, never wedging the drain.
pub fn run_queue_worker(config: &QueueWorkerConfig) -> std::io::Result<QueueWorkerStats> {
    let q = QueueDir::open(&config.queue)?;
    std::fs::create_dir_all(&config.cache_dir)?;

    let threads = if config.jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        config.jobs
    };

    // Leases held by THIS process: the heartbeat thread stamps exactly
    // these, and the stale sweep never touches them. Completion removes
    // the key *under this lock* before touching queue files, so the
    // heartbeat thread (which stamps under the same lock) can never
    // resurrect a lease after its cell completed.
    let held: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
    let stop = AtomicBool::new(false);
    let stats: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
    let [completed, computed, cache_hits, requeued, parked, corrupt, store_errors] = [
        &stats[0], &stats[1], &stats[2], &stats[3], &stats[4], &stats[5], &stats[6],
    ];
    let io_error: Mutex<Option<std::io::Error>> = Mutex::new(None);

    std::thread::scope(|scope| {
        // Heartbeat: re-stamp held leases, forever, until every worker
        // thread is done.
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                {
                    let held = held.lock().expect("heartbeat lock");
                    for key in held.iter() {
                        let _ = q.stamp_lease(key);
                    }
                }
                // Sleep in slices so shutdown is prompt.
                let mut slept = Duration::ZERO;
                while slept < config.heartbeat && !stop.load(Ordering::Relaxed) {
                    let slice = Duration::from_millis(25).min(config.heartbeat - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        });

        let worker_handles: Vec<_> = (0..threads)
            .map(|index| {
                let q = &q;
                let held = &held;
                let io_error = &io_error;
                scope.spawn(move || {
                    let run = drain_queue(
                        q,
                        config,
                        index,
                        held,
                        &WorkerCounters {
                            completed,
                            computed,
                            cache_hits,
                            requeued,
                            parked,
                            corrupt,
                            store_errors,
                        },
                    );
                    if let Err(e) = run {
                        io_error.lock().expect("error slot").get_or_insert(e);
                    }
                })
            })
            .collect();
        for handle in worker_handles {
            let _ = handle.join();
        }
        stop.store(true, Ordering::Relaxed);
    });

    if let Some(e) = io_error.into_inner().expect("error slot") {
        return Err(e);
    }

    let lost = q.pending_keys()?.len() + q.lease_keys()?.len();
    Ok(QueueWorkerStats {
        completed: completed.load(Ordering::Relaxed),
        computed: computed.load(Ordering::Relaxed),
        cache_hits: cache_hits.load(Ordering::Relaxed),
        requeued: requeued.load(Ordering::Relaxed),
        parked: parked.load(Ordering::Relaxed),
        corrupt: corrupt.load(Ordering::Relaxed),
        store_errors: store_errors.load(Ordering::Relaxed),
        failed_total: q.failed_keys()?.len(),
        done_total: q.done_keys()?.len(),
        lost,
    })
}

/// Shared per-run counters (all workers increment the same atomics).
struct WorkerCounters<'a> {
    completed: &'a AtomicUsize,
    computed: &'a AtomicUsize,
    cache_hits: &'a AtomicUsize,
    requeued: &'a AtomicUsize,
    parked: &'a AtomicUsize,
    corrupt: &'a AtomicUsize,
    store_errors: &'a AtomicUsize,
}

/// One worker thread's claim/compute/steal loop.
fn drain_queue(
    q: &QueueDir,
    config: &QueueWorkerConfig,
    index: usize,
    held: &Mutex<HashSet<String>>,
    counters: &WorkerCounters<'_>,
) -> std::io::Result<()> {
    let mut backoff = BACKOFF_BASE;
    let mut jitter =
        SplitMix64::new(0x9e37_79b9_7f4a_7c15 ^ (std::process::id() as u64) << 17 ^ index as u64);
    let mut tracker = StaleTracker::new();
    let timeout = config.effective_timeout();
    loop {
        let mut progressed = false;

        // Claim pending cells, starting at a rotated offset so
        // concurrent workers fan out instead of piling on cell 0.
        let pending = q.pending_keys()?;
        if !pending.is_empty() {
            let start = (index + jitter.next_u64() as usize) % pending.len();
            for i in 0..pending.len() {
                let key = &pending[(start + i) % pending.len()];
                let Some(cell) = q.claim(key, &config.worker_id)? else {
                    continue;
                };
                held.lock().expect("held lock").insert(key.clone());
                process_cell(q, config, key, cell, held, counters)?;
                progressed = true;
            }
        }

        // Steal from the dead: watch other owners' leases and requeue
        // any whose heartbeat froze past the timeout.
        for key in q.lease_keys()? {
            if held.lock().expect("held lock").contains(&key) {
                continue; // our own live lease
            }
            let Some(lease) = q.read_lease(&key) else {
                tracker.forget(&key);
                continue;
            };
            if q.is_done(&key) {
                // Leftover of a completion that crashed mid-way.
                let _ = std::fs::remove_file(q.dir("leases").join(&key));
                tracker.forget(&key);
                continue;
            }
            if tracker.observe(&key, &lease.worker, lease.beat, timeout) {
                match q.requeue_stale(&key, (&lease.worker, lease.beat), config.retry_budget)? {
                    Requeue::Requeued => {
                        counters.requeued.fetch_add(1, Ordering::Relaxed);
                        progressed = true;
                    }
                    Requeue::Parked => {
                        counters.parked.fetch_add(1, Ordering::Relaxed);
                        progressed = true;
                    }
                    Requeue::Refreshed => {}
                }
                tracker.forget(&key);
            }
        }

        if progressed {
            backoff = BACKOFF_BASE;
            continue;
        }

        // Exit check, pending–leases–pending: a requeue in flight
        // during the first listing (lease gone, pending not yet
        // re-listed) is caught by the second pending listing.
        if q.pending_keys()?.is_empty()
            && q.lease_keys()?.is_empty()
            && q.pending_keys()?.is_empty()
        {
            return Ok(());
        }

        // Nothing claimable: back off (jittered 50–150%) and re-poll.
        let sleep = backoff.mul_f64(0.5 + jitter.unit_f64());
        std::thread::sleep(sleep);
        backoff = (backoff * 2).min(BACKOFF_CAP);
    }
}

/// Computes (or serves from cache) one claimed cell, then completes,
/// requeues, or parks it. Never returns without removing the key from
/// `held` and resolving the lease.
fn process_cell(
    q: &QueueDir,
    config: &QueueWorkerConfig,
    key: &str,
    cell: QueueCell,
    held: &Mutex<HashSet<String>>,
    counters: &WorkerCounters<'_>,
) -> std::io::Result<()> {
    enum Served {
        CacheHit,
        Computed,
    }
    let outcome: Result<Served, String> = (|| {
        let experiment = Experiment::decode_hex(&cell.hex)
            .map_err(|e| format!("undecodable experiment hex: {e:?}"))?;
        if cell_key(&experiment) != key {
            return Err(format!(
                "cell key mismatch: entry named {key} but its experiment hashes to {}",
                cell_key(&experiment)
            ));
        }
        match cache_fetch(&config.cache_dir, key) {
            CacheFetch::Hit(_) => return Ok(Served::CacheHit),
            CacheFetch::Corrupt => {
                counters.corrupt.fetch_add(1, Ordering::Relaxed);
                let _ = quarantine(&config.cache_dir, key);
            }
            CacheFetch::Miss => {}
        }
        // A panicking experiment must park the cell, not kill the
        // worker: catch it and convert to a retryable failure.
        let result = catch_unwind(AssertUnwindSafe(|| run_cell(&experiment)))
            .map_err(|p| format!("experiment panicked: {}", panic_message(&p)))?;
        // The cache is the queue's only output channel: a failed store
        // means the result was never delivered, so it is a cell
        // failure, not a warning.
        cache_store(&config.cache_dir, key, &experiment, &result).map_err(|e| {
            counters.store_errors.fetch_add(1, Ordering::Relaxed);
            format!("cache store failed: {e}")
        })?;
        Ok(Served::Computed)
    })();

    // Remove from `held` under the lock BEFORE touching queue files:
    // the heartbeat thread stamps under the same lock, so once we drop
    // the key it can never re-create the lease file after removal.
    held.lock().expect("held lock").remove(key);

    match outcome {
        Ok(kind) => {
            counters.completed.fetch_add(1, Ordering::Relaxed);
            match kind {
                Served::CacheHit => counters.cache_hits.fetch_add(1, Ordering::Relaxed),
                Served::Computed => counters.computed.fetch_add(1, Ordering::Relaxed),
            };
            q.complete(key, &config.worker_id)
        }
        Err(error) => {
            let retries = cell.retries + 1;
            if retries > config.retry_budget {
                counters.parked.fetch_add(1, Ordering::Relaxed);
                q.park(key, &error, &cell.hex)
            } else {
                counters.requeued.fetch_add(1, Ordering::Relaxed);
                let requeued = QueueCell {
                    retries,
                    worker: "-".to_string(),
                    beat: 0,
                    hex: cell.hex,
                };
                q.write_atomic("pending", key, &requeued.render())?;
                let _ = std::fs::remove_file(q.dir("leases").join(key));
                Ok(())
            }
        }
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What [`enqueue_points`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnqueueSummary {
    /// Cells newly added to `pending/`.
    pub enqueued: usize,
    /// Cells already verified in the sweep cache (marked done without
    /// queueing).
    pub already_cached: usize,
    /// Cells already pending/leased/done/failed in the queue.
    pub already_queued: usize,
    /// Corrupt cache cells quarantined during the pre-check (the cell
    /// is then enqueued for recomputation).
    pub corrupt: usize,
}

/// Populates a queue from a figure's sweep cells: every distinct
/// `(point, seed)` cell not already served by the cache (checked
/// against `config.cache_dir`) or present in the queue is enqueued;
/// cells the cache already holds get a `done/` marker immediately.
pub fn enqueue_points(
    q: &QueueDir,
    points: &[SweepPoint],
    config: &SweepConfig,
) -> std::io::Result<EnqueueSummary> {
    let mut summary = EnqueueSummary::default();
    let mut seen = HashSet::new();
    for point in points {
        for &seed in &config.seeds {
            let exp = point.experiment.with_seed(seed);
            let key = cell_key(&exp);
            if !seen.insert(key.clone()) {
                continue;
            }
            if let Some(dir) = config.cache_dir.as_deref() {
                match cache_fetch(dir, &key) {
                    CacheFetch::Hit(_) => {
                        if !q.is_done(&key) {
                            q.write_atomic("done", &key, "done pre-cached\n")?;
                        }
                        summary.already_cached += 1;
                        continue;
                    }
                    CacheFetch::Corrupt => {
                        summary.corrupt += 1;
                        let _ = quarantine(dir, &key);
                    }
                    CacheFetch::Miss => {}
                }
            }
            if q.enqueue_hex(&key, &exp.encode_hex())? {
                summary.enqueued += 1;
            } else {
                summary.already_queued += 1;
            }
        }
    }
    Ok(summary)
}

/// SplitMix64 — backoff jitter and claim-offset rotation only (never
/// simulation randomness).
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::probe_cached;
    use gtt_workload::{RunSpec, ScenarioSpec, SchedulerKind};

    fn tiny_experiment(ppm: f64) -> Experiment {
        Experiment::new(ScenarioSpec::star(2), SchedulerKind::minimal(8)).with_run(RunSpec {
            traffic_ppm: ppm,
            warmup_secs: 20,
            measure_secs: 30,
            seed: 1,
            ..RunSpec::default()
        })
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gtt-queue-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn enqueue(q: &QueueDir, exp: &Experiment) -> String {
        let key = cell_key(exp);
        assert!(q.enqueue_hex(&key, &exp.encode_hex()).unwrap());
        key
    }

    #[test]
    fn claim_is_exclusive_and_enqueue_is_idempotent() {
        let q = QueueDir::open(scratch("claim")).unwrap();
        let exp = tiny_experiment(10.0);
        let key = enqueue(&q, &exp);
        assert!(!q.enqueue_hex(&key, &exp.encode_hex()).unwrap(), "dup");
        let cell = q.claim(&key, "w1").unwrap().expect("first claim wins");
        assert_eq!(cell.worker, "w1");
        assert_eq!(cell.beat, 1);
        assert_eq!(cell.hex, exp.encode_hex());
        assert!(q.claim(&key, "w2").unwrap().is_none(), "lease is exclusive");
        assert_eq!(q.pending_keys().unwrap().len(), 0);
        assert_eq!(q.lease_keys().unwrap(), vec![key.clone()]);
        // Completion: done marker first, lease removed.
        q.complete(&key, "w1").unwrap();
        assert!(q.is_done(&key));
        assert!(q.lease_keys().unwrap().is_empty());
        // A stale pending copy of a done cell is discarded on claim.
        let stale = QueueCell {
            retries: 1,
            worker: "-".into(),
            beat: 0,
            hex: exp.encode_hex(),
        };
        q.write_atomic("pending", &key, &stale.render()).unwrap();
        assert!(q.claim(&key, "w3").unwrap().is_none());
        assert!(q.pending_keys().unwrap().is_empty(), "dup pending removed");
    }

    #[test]
    fn stamping_bumps_the_heartbeat_monotonically() {
        let q = QueueDir::open(scratch("stamp")).unwrap();
        let key = enqueue(&q, &tiny_experiment(10.0));
        q.claim(&key, "w1").unwrap().unwrap();
        for expect in 2..6 {
            q.stamp_lease(&key).unwrap();
            assert_eq!(q.read_lease(&key).unwrap().beat, expect);
        }
        // Stamping a vanished lease is a no-op, not an error.
        q.complete(&key, "w1").unwrap();
        q.stamp_lease(&key).unwrap();
        assert!(q.read_lease(&key).is_none());
    }

    #[test]
    fn stale_lease_is_requeued_with_bumped_retries_then_parked() {
        let q = QueueDir::open(scratch("requeue")).unwrap();
        let key = enqueue(&q, &tiny_experiment(10.0));
        let budget = 2;
        for round in 1..=budget {
            let cell = q.claim(&key, "dead").unwrap().unwrap();
            assert_eq!(cell.retries, round - 1);
            // Observer saw (dead, 1) frozen: requeue.
            assert_eq!(
                q.requeue_stale(&key, ("dead", 1), budget).unwrap(),
                Requeue::Requeued
            );
            assert_eq!(q.pending_keys().unwrap(), vec![key.clone()]);
            assert!(q.lease_keys().unwrap().is_empty());
        }
        // Budget spent: the next expiry parks it with the error.
        q.claim(&key, "dead").unwrap().unwrap();
        assert_eq!(
            q.requeue_stale(&key, ("dead", 1), budget).unwrap(),
            Requeue::Parked
        );
        assert_eq!(q.failed_keys().unwrap(), vec![key.clone()]);
        let parked = std::fs::read_to_string(q.dir("failed").join(&key)).unwrap();
        assert!(parked.starts_with("# lease expired"), "{parked}");
        // The entry's second line is the cell's `--list` line: key,
        // status, hex.
        let line = parked.lines().nth(1).unwrap();
        let mut fields = line.split_whitespace();
        assert_eq!(fields.next(), Some(key.as_str()));
        assert_eq!(fields.next(), Some("miss"));
        let hex = fields.next().unwrap();
        assert_eq!(cell_key(&Experiment::decode_hex(hex).unwrap()), key);
    }

    #[test]
    fn refreshed_lease_is_never_stolen() {
        let q = QueueDir::open(scratch("refresh")).unwrap();
        let key = enqueue(&q, &tiny_experiment(10.0));
        q.claim(&key, "alive").unwrap().unwrap();
        q.stamp_lease(&key).unwrap(); // beat now 2

        // Observer acted on the stale (alive, 1) observation: no theft.
        assert_eq!(
            q.requeue_stale(&key, ("alive", 1), 3).unwrap(),
            Requeue::Refreshed
        );
        assert_eq!(q.lease_keys().unwrap(), vec![key.clone()]);
        assert_eq!(q.read_lease(&key).unwrap().beat, 2);
    }

    #[test]
    fn stale_tracker_requires_a_frozen_beat_for_the_full_window() {
        let mut t = StaleTracker::new();
        let timeout = Duration::from_millis(40);
        assert!(!t.observe("k", "w", 1, timeout), "first sight arms only");
        std::thread::sleep(Duration::from_millis(50));
        assert!(t.observe("k", "w", 1, timeout), "frozen past timeout");
        // A re-stamp resets the window.
        assert!(!t.observe("k", "w", 2, timeout), "fresh beat re-arms");
        assert!(!t.observe("k", "w", 2, Duration::from_secs(60)));
        t.forget("k");
        assert!(!t.observe("k", "w", 2, timeout), "forgotten = first sight");
    }

    #[test]
    fn torn_pending_entry_is_parked_not_looped() {
        let q = QueueDir::open(scratch("torn")).unwrap();
        let key = "00112233445566778899aabbccddeeff";
        q.write_atomic("pending", key, "not a queue cell\n")
            .unwrap();
        assert!(q.claim(key, "w1").unwrap().is_none());
        assert_eq!(q.failed_keys().unwrap(), vec![key.to_string()]);
        assert!(q.pending_keys().unwrap().is_empty());
        assert!(q.lease_keys().unwrap().is_empty());
    }

    #[test]
    fn worker_drains_a_queue_end_to_end_and_results_land_in_the_cache() {
        let root = scratch("drain");
        let q = QueueDir::open(root.join("queue")).unwrap();
        let cache = root.join("cache");
        let exps = [tiny_experiment(10.0), tiny_experiment(20.0)];
        for exp in &exps {
            enqueue(&q, exp);
        }
        let mut config = QueueWorkerConfig::new(q.root(), &cache);
        config.jobs = 2;
        config.heartbeat = Duration::from_millis(50);
        let stats = run_queue_worker(&config).unwrap();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.computed, 2);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.done_total, 2);
        assert_eq!(stats.failed_total, 0);
        assert_eq!(stats.lost, 0);
        for exp in &exps {
            assert!(probe_cached(&cache, exp), "result delivered to cache");
        }
        // Re-enqueueing after completion is a no-op (done markers win)…
        for exp in &exps {
            assert!(!q.enqueue_hex(&cell_key(exp), &exp.encode_hex()).unwrap());
        }
        // …and a fresh queue over a warm cache is served without
        // simulating.
        let q2 = QueueDir::open(root.join("queue2")).unwrap();
        for exp in &exps {
            enqueue(&q2, exp);
        }
        let mut config2 = QueueWorkerConfig::new(q2.root(), &cache);
        config2.jobs = 1;
        let stats2 = run_queue_worker(&config2).unwrap();
        assert_eq!(stats2.completed, 2);
        assert_eq!(stats2.cache_hits, 2);
        assert_eq!(stats2.computed, 0);
    }

    #[test]
    fn poisoned_cell_is_parked_after_its_retry_budget() {
        let root = scratch("poison");
        let q = QueueDir::open(root.join("queue")).unwrap();
        // A syntactically valid queue cell whose hex is not a valid
        // experiment encoding: every claim fails, so the cell must end
        // up parked after budget+1 attempts — not loop forever, not
        // kill the worker.
        let key = "ffeeddccbbaa99887766554433221100";
        let poison = QueueCell {
            retries: 0,
            worker: "-".into(),
            beat: 0,
            hex: "deadbeef".into(),
        };
        q.write_atomic("pending", key, &poison.render()).unwrap();
        let mut config = QueueWorkerConfig::new(q.root(), root.join("cache"));
        config.jobs = 1;
        config.retry_budget = 2;
        let stats = run_queue_worker(&config).unwrap();
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.failed_total, 1);
        assert_eq!(stats.requeued, 2, "budget-many requeues before parking");
        assert_eq!(stats.parked, 1);
        assert_eq!(stats.lost, 0);
        let parked = std::fs::read_to_string(q.dir("failed").join(key)).unwrap();
        assert!(parked.contains("undecodable"), "{parked}");
    }

    #[test]
    fn enqueue_points_skips_cached_cells_and_marks_them_done() {
        let root = scratch("enqueue-points");
        let q = QueueDir::open(root.join("queue")).unwrap();
        let cache = root.join("cache");
        let warm = tiny_experiment(10.0);
        crate::sweep::ensure_cached(&cache, &warm.with_seed(1));
        let points = vec![
            SweepPoint {
                x_label: "10".into(),
                experiment: tiny_experiment(10.0),
            },
            SweepPoint {
                x_label: "20".into(),
                experiment: tiny_experiment(20.0),
            },
        ];
        let config = SweepConfig {
            seeds: vec![1, 2],
            threads: 1,
            ..SweepConfig::default()
        }
        .cached(cache);
        let summary = enqueue_points(&q, &points, &config).unwrap();
        assert_eq!(summary.already_cached, 1, "the warm cell skips the queue");
        assert_eq!(summary.enqueued, 3);
        assert_eq!(summary.already_queued, 0);
        assert_eq!(q.pending_keys().unwrap().len(), 3);
        assert_eq!(q.done_keys().unwrap().len(), 1);
        assert!(q.is_done(&cell_key(&warm.with_seed(1))));
        // Second enqueue is fully idempotent.
        let again = enqueue_points(&q, &points, &config).unwrap();
        assert_eq!(again.enqueued, 0);
        assert_eq!(again.already_queued, 3);
        assert_eq!(again.already_cached, 1);
    }

    /// The documented recovery of a parked cell: while `failed/<key>`
    /// exists the cell is never re-queued; once it is deleted, the next
    /// `--enqueue` queues it and a worker drains it into the cache.
    #[test]
    fn deleting_a_parked_entry_lets_the_cell_be_enqueued_and_run() {
        let root = scratch("recover-parked");
        let q = QueueDir::open(root.join("queue")).unwrap();
        let cache = root.join("cache");
        let exp = tiny_experiment(10.0);
        let key = cell_key(&exp);
        q.park(&key, "fixed since", &exp.encode_hex()).unwrap();
        let points = vec![SweepPoint {
            x_label: "10".into(),
            experiment: exp.clone(),
        }];
        let config = SweepConfig {
            seeds: vec![1],
            threads: 1,
            ..SweepConfig::default()
        }
        .cached(&cache);

        let parked = enqueue_points(&q, &points, &config).unwrap();
        assert_eq!(parked.already_queued, 1, "a parked cell counts as queued");
        assert_eq!(parked.enqueued, 0);
        assert!(q.pending_keys().unwrap().is_empty());

        std::fs::remove_file(q.dir("failed").join(&key)).unwrap();
        let requeued = enqueue_points(&q, &points, &config).unwrap();
        assert_eq!(requeued.enqueued, 1);
        assert_eq!(q.pending_keys().unwrap(), vec![key]);

        let mut worker = QueueWorkerConfig::new(q.root(), &cache);
        worker.jobs = 1;
        let stats = run_queue_worker(&worker).unwrap();
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.failed_total, 0);
        assert_eq!(stats.lost, 0);
        assert!(probe_cached(&cache, &exp), "result delivered to cache");
    }
}
