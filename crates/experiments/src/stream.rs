//! Streaming, sharded, resumable execution of scenario sweeps — now built
//! on a **lease-based shard scheduler** so the same run directory can be
//! driven by one process or by many.
//!
//! The in-memory executor ([`crate::sweep::run_with`]) holds every
//! [`ScenarioOutcome`] until the sweep completes — fine for the paper's
//! grids, fatal for the long tail: a 10k-scenario synthetic sweep that dies
//! at 97% loses everything, and its result set may not fit in RAM at all.
//! This module executes the same grids as a sequence of **shards**:
//!
//! * scenarios are enumerated in the canonical axis order and chunked into
//!   shards of [`StreamOptions::shard_size`];
//! * each completed shard is appended to the run directory as a JSONL log
//!   (`shard-0000.jsonl`, one serialized [`ScenarioOutcome`] per line,
//!   written atomically) and recorded in the checkpoint manifest
//!   (`manifest.json`) together with its [`qosrm_core::CurveCache`] hit
//!   statistics;
//! * per-mix simulators and baselines live only for the duration of their
//!   shard, and outcomes go to disk as soon as their shard completes, so
//!   resident memory is bounded by the shard size, not the sweep size;
//! * a killed run is resumed with [`resume`]: completed scenarios are
//!   scanned from the shard logs and skipped, and only the remainder is
//!   simulated. Simulation is deterministic, so the final [`merge`]d
//!   [`SweepResult`] is byte-identical to an uninterrupted run — and to
//!   the in-memory executor (`tests/streaming_resume.rs` locks both in).
//!
//! ## The lease protocol
//!
//! Work distribution is a [`ShardScheduler`] over durable [`LeaseRecord`]s
//! in the manifest. Each shard moves through three states:
//!
//! ```text
//!            lease()                 complete(epoch match)
//! Pending ────────────▶ Leased{worker, epoch, expiry} ───────▶ Done
//!    ▲                       │              │
//!    │   expiry (reinject)   │              │ heartbeat()
//!    └───────────────────────┘              ▼ (renews expiry)
//! ```
//!
//! Every grant increments the shard's **lease epoch**; a completion is
//! accepted only if it names the currently active epoch, so when a lease
//! expires and the shard is reinjected, a presumed-dead worker finishing
//! late is rejected as *stale* and exactly one shard log ever wins. The
//! single-process [`run`]/[`resume`] path is the degenerate case — one
//! `"local"` worker leasing from its own scheduler — so the multi-process
//! coordinator ([`crate::dist`]) shares every line of the checkpoint and
//! recovery logic with the path the tests already pin down.
//!
//! The unit of work on disk is the [`ScenarioSpec`] IR: the manifest embeds
//! the spec (plus the quick/full database mode), so a run directory is
//! self-describing — `resume` and `merge` need nothing but the directory.

use crate::context::ExperimentContext;
use crate::spec::ScenarioSpec;
use crate::sweep::{
    grid_points, mix_pairs, scenario_key, GridPoint, ScenarioKey, ScenarioOutcome, SweepEngine,
    SweepOptions, SweepResult,
};
use crate::sync::LockUnpoisoned;
use qosrm_proto::LeaseTelemetry;
use qosrm_types::QosrmError;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Execution knobs of a streaming sweep. Like [`SweepOptions`], none of
/// them affect results — only how the work is chunked and executed.
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Scenarios per shard (bounds resident outcomes and checkpoint
    /// granularity). Applies to the shards of *this* call — a [`resume`]
    /// may chunk finer or coarser than the original run; the manifest
    /// records the size most recently used.
    pub shard_size: usize,
    /// Stop after this many shards in one call (0 = run to completion).
    /// Used by tests and smoke runs to exercise partial progress
    /// deterministically.
    pub max_shards: usize,
    /// Execution switches shared with the in-memory path.
    pub sweep: SweepOptions,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            shard_size: 32,
            max_shards: 0,
            sweep: SweepOptions::default(),
        }
    }
}

/// One completed shard in the checkpoint manifest.
///
/// Shards normally enter the manifest right after their log is written; a
/// shard whose manifest update was lost to a kill is *reconciled* from its
/// log on the next [`resume`], with its cache statistics zeroed (the
/// counters died with the killed process).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardRecord {
    /// Shard log file name within the run directory.
    pub file: String,
    /// Scenarios the shard completed.
    pub scenarios: usize,
    /// Energy-curve cache hits scored while the shard ran (0 for a shard
    /// reconciled from disk after a kill).
    pub curve_hits: u64,
    /// Energy-curve cache misses scored while the shard ran (0 for a shard
    /// reconciled from disk after a kill).
    pub curve_misses: u64,
}

/// The durable lease state of one shard — who holds it, under which epoch,
/// until when, and which grid points it covers.
///
/// Exactly one record exists per shard; a re-grant after expiry updates the
/// record in place with a higher epoch, so the record always carries the
/// highest epoch ever issued for the shard and epochs can never regress
/// across a coordinator restart.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseRecord {
    /// Shard index (names the `shard-NNNN.jsonl` log).
    pub shard: u64,
    /// Worker the shard is (or was last) leased to; empty before the first
    /// grant.
    pub worker: String,
    /// Highest lease epoch issued for the shard (0 = never granted). Only
    /// a completion naming this exact epoch — while the lease is live — is
    /// accepted.
    pub epoch: u64,
    /// Coordinator-clock lease expiry, milliseconds since the Unix epoch.
    ///
    /// The boundary is **inclusive of expiry**: the lease is live only
    /// while `now_ms < expires_ms`. At `now_ms == expires_ms` exactly the
    /// lease is already expired — eligible for reinjection, unrenewable,
    /// and its completions are stale (see
    /// [`ShardScheduler::heartbeat`]).
    pub expires_ms: u64,
    /// Whether the shard's log has been accepted and durably written.
    pub done: bool,
    /// Grid-point indices (into the spec's canonical point order) the
    /// shard evaluates. Persisted so chunk boundaries survive a
    /// coordinator restart — re-chunking live points would otherwise shift
    /// assignments under workers holding leases.
    pub indices: Vec<u64>,
}

/// The checkpoint manifest of a streaming run directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepManifest {
    /// The sweep being executed.
    pub spec: ScenarioSpec,
    /// Whether the run uses quick-mode databases (results depend on it, so
    /// a resume must match).
    pub quick: bool,
    /// Scenarios per shard of the most recent `run`/`resume` call (the
    /// CLI's `sweep resume` defaults to it when `--shard-size` is absent).
    pub shard_size: usize,
    /// Total scenarios the spec lowers to.
    pub total_scenarios: usize,
    /// Scenarios completed across all shards so far.
    pub completed_scenarios: usize,
    /// Completed shards, in completion order.
    pub shards: Vec<ShardRecord>,
    /// Durable per-shard lease state (see [`LeaseRecord`]).
    pub leases: Vec<LeaseRecord>,
}

/// File name of the checkpoint manifest.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Worker id of the synchronous single-process executor. Its leases are
/// reclaimed unconditionally whenever a scheduler opens the directory: the
/// local executor leases and completes in one call stack, so a surviving
/// `"local"` lease always belongs to a dead process.
pub const LOCAL_WORKER: &str = "local";

impl SweepManifest {
    /// Loads the manifest of a run directory.
    pub fn load(dir: &Path) -> Result<Self, QosrmError> {
        simdb::persist::load_json(&dir.join(MANIFEST_FILE))
    }

    fn save(&self, dir: &Path) -> Result<(), QosrmError> {
        // Durable: the manifest is crash-recovery state — a daemon restart
        // right after a "shard complete" report must find it on disk.
        simdb::persist::save_json_durable(self, &dir.join(MANIFEST_FILE))
    }
}

/// What one [`run`]/[`resume`] call accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Total scenarios of the sweep.
    pub total: usize,
    /// Scenarios completed on disk after this call.
    pub completed: usize,
    /// Scenarios found already complete when this call started.
    pub skipped: usize,
    /// Shards this call executed.
    pub shards_run: usize,
    /// Whether the sweep is now complete.
    pub finished: bool,
}

/// Creates the manifest of a fresh streaming run directory.
///
/// Fails if `dir` already contains a manifest. This is the shared entry
/// point of [`run`] and the distributed coordinator
/// ([`crate::dist::Coordinator`]); both then drive the same
/// [`ShardScheduler`] over the directory.
pub fn init_manifest(
    spec: &ScenarioSpec,
    quick: bool,
    dir: &Path,
    shard_size: usize,
) -> Result<SweepManifest, QosrmError> {
    if dir.join(MANIFEST_FILE).exists() {
        return Err(QosrmError::Io(format!(
            "{} already contains a streaming run; use resume to continue it",
            dir.display()
        )));
    }
    let grid = spec.lower()?;
    let manifest = SweepManifest {
        spec: spec.clone(),
        quick,
        shard_size: shard_size.max(1),
        total_scenarios: grid.len(),
        completed_scenarios: 0,
        shards: Vec::new(),
        leases: Vec::new(),
    };
    fs::create_dir_all(dir)?;
    manifest.save(dir)?;
    Ok(manifest)
}

/// Starts a fresh streaming run of `spec` in `dir`.
///
/// Fails if `dir` already contains a manifest (use [`resume`] to continue
/// an interrupted run).
pub fn run(
    spec: &ScenarioSpec,
    ctx: &ExperimentContext,
    dir: &Path,
    options: &StreamOptions,
) -> Result<StreamReport, QosrmError> {
    let manifest = init_manifest(spec, ctx.quick, dir, options.shard_size)?;
    run_pending(manifest, ctx, dir, options)
}

/// Resumes an interrupted streaming run from its directory.
///
/// Completed scenarios (scanned from the shard logs) are skipped; the
/// context's quick/full mode must match the original run, because the
/// simulation databases — and therefore the results — depend on it.
pub fn resume(
    ctx: &ExperimentContext,
    dir: &Path,
    options: &StreamOptions,
) -> Result<StreamReport, QosrmError> {
    let manifest = SweepManifest::load(dir)?;
    if manifest.quick != ctx.quick {
        return Err(QosrmError::Io(format!(
            "run at {} was started in {} mode but the resume context is {} mode; \
             results would not be comparable",
            dir.display(),
            if manifest.quick { "quick" } else { "full" },
            if ctx.quick { "quick" } else { "full" },
        )));
    }
    run_pending(manifest, ctx, dir, options)
}

/// Merges the shard logs of a (complete) streaming run into the final
/// [`SweepResult`], in canonical axis order — byte-identical to what the
/// in-memory executor produces for the same spec, regardless of how many
/// workers wrote the shards or in which order.
pub fn merge(dir: &Path) -> Result<SweepResult, QosrmError> {
    let manifest = SweepManifest::load(dir)?;
    let grid = manifest.spec.lower()?;
    let mut by_key: HashMap<ScenarioKey, ScenarioOutcome> = HashMap::new();
    scan_shards(dir, |_, outcome| {
        by_key.entry(outcome.key.clone()).or_insert(outcome);
    })?;
    let scenarios = grid_points(&grid)
        .into_iter()
        .map(|point| {
            let key = scenario_key(&grid, point);
            by_key.remove(&key).ok_or_else(|| {
                QosrmError::Io(format!(
                    "streaming run at {} is incomplete: scenario {key} has no outcome \
                     (resume the run before merging)",
                    dir.display()
                ))
            })
        })
        .collect::<Result<Vec<_>, QosrmError>>()?;
    Ok(SweepResult { scenarios })
}

/// The log file name of shard `shard` within its run directory.
pub fn shard_file_name(shard: u64) -> String {
    format!("shard-{shard:04}.jsonl")
}

/// Process-lifetime counters of the lease protocol, shared (via `Arc`)
/// between a scheduler and whatever surfaces its telemetry — the
/// coordinator's `/status`, the daemon's `/stats`.
#[derive(Debug, Default)]
pub struct LeaseCounters {
    granted: AtomicU64,
    renewed: AtomicU64,
    expired: AtomicU64,
    reinjected: AtomicU64,
    stale_rejected: AtomicU64,
    completed: AtomicU64,
    per_worker: Mutex<BTreeMap<String, u64>>,
}

impl LeaseCounters {
    fn bump_granted(&self) {
        self.granted.fetch_add(1, Ordering::Relaxed);
    }

    fn bump_renewed(&self) {
        self.renewed.fetch_add(1, Ordering::Relaxed);
    }

    fn bump_expired_reinjected(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
        self.reinjected.fetch_add(1, Ordering::Relaxed);
    }

    fn bump_stale(&self) {
        self.stale_rejected.fetch_add(1, Ordering::Relaxed);
    }

    fn bump_completed(&self, worker: &str) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let mut per_worker = self.per_worker.lock_unpoisoned();
        *per_worker.entry(worker.to_string()).or_insert(0) += 1;
    }

    /// A plain-data snapshot of every counter.
    pub fn snapshot(&self) -> LeaseTelemetry {
        LeaseTelemetry {
            granted: self.granted.load(Ordering::Relaxed),
            renewed: self.renewed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            reinjected: self.reinjected.load(Ordering::Relaxed),
            stale_rejected: self.stale_rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            per_worker: self.per_worker.lock_unpoisoned().clone(),
        }
    }
}

/// One granted lease, as handed to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLease {
    /// Leased shard index.
    pub shard: u64,
    /// The lease epoch the grant was issued under; completions must echo
    /// it exactly.
    pub epoch: u64,
    /// The shard's log file name.
    pub file: String,
    /// Grid-point indices (into the spec's canonical point order) to
    /// evaluate.
    pub points: Vec<u64>,
    /// Coordinator-clock expiry of the lease, milliseconds. Inclusive of
    /// expiry: the lease is live only while `now < expires_ms` on the
    /// coordinator's clock (see [`LeaseRecord::expires_ms`]).
    pub expires_ms: u64,
}

/// Outcome of delivering a shard completion to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteOutcome {
    /// The log was accepted and durably written.
    pub accepted: bool,
    /// The completion named a lease epoch that is no longer active (the
    /// shard expired and was reinjected, or was already done) and the log
    /// was dropped.
    pub stale: bool,
}

/// The lease-based shard scheduler over one streaming run directory.
///
/// All scheduling state lives in the [`SweepManifest`] (saved durably on
/// every mutation), so a coordinator process can be SIGKILLed and a new
/// one re-`open`ed over the directory without losing grants: unexpired
/// leases are restored and their workers simply keep going.
///
/// Time is an explicit `now_ms` argument on every method — the scheduler
/// never reads a clock — so lease expiry is deterministic under test.
pub struct ShardScheduler {
    dir: PathBuf,
    manifest: SweepManifest,
    pending: VecDeque<u64>,
    counters: Arc<LeaseCounters>,
    lease_ms: u64,
    total: usize,
    skipped: usize,
}

impl ShardScheduler {
    /// Opens a scheduler over `dir`, reconciling the manifest with the
    /// shard logs actually on disk (both directions: logs without records
    /// are adopted, records without logs are dropped and their scenarios
    /// re-pended) and restoring unexpired leases as active. With
    /// `reclaim`, *every* live lease is reinjected instead — the caller
    /// asserts no worker process can still be running (the single-process
    /// executor does, since it is the only worker).
    pub fn open(
        mut manifest: SweepManifest,
        dir: &Path,
        shard_size: usize,
        lease_ms: u64,
        counters: Arc<LeaseCounters>,
        reclaim: bool,
        now_ms: u64,
    ) -> Result<Self, QosrmError> {
        let grid = manifest.spec.lower()?;
        let points = grid_points(&grid);
        // Keys-only scan: a resume near the end of a huge sweep must not
        // materialize every completed outcome just to know what to skip.
        let mut completed: HashSet<ScenarioKey> = HashSet::new();
        let mut on_disk: Vec<(String, usize)> = Vec::new();
        scan_shards(dir, |file, outcome| {
            completed.insert(outcome.key);
            match on_disk.last_mut() {
                Some((last, count)) if last == file => *count += 1,
                _ => on_disk.push((file.to_string(), 1)),
            }
        })?;
        let pending_points: Vec<u64> = (0..points.len() as u64)
            .filter(|&idx| !completed.contains(&scenario_key(&grid, points[idx as usize])))
            .collect();
        let skipped = points.len() - pending_points.len();
        // Reconcile the manifest with what is actually on disk: a kill may
        // have landed between a shard write and its manifest update, in
        // which case the shard's outcomes exist but its record (and cache
        // statistics, lost with the process) does not.
        manifest.completed_scenarios = skipped;
        manifest.shard_size = shard_size.max(1);
        for (file, scenarios) in &on_disk {
            if !manifest.shards.iter().any(|record| &record.file == file) {
                manifest.shards.push(ShardRecord {
                    file: file.clone(),
                    scenarios: *scenarios,
                    curve_hits: 0,
                    curve_misses: 0,
                });
            }
        }
        // The inverse divergence: a crash in the rename-without-dirsync
        // window (shard log written non-durably, manifest updated, then
        // the log's directory entry lost) leaves a manifest record with no
        // file behind it. Drop such ghost records — their scenarios are
        // simply pending again — so the manifest never claims shards that
        // do not exist.
        manifest
            .shards
            .retain(|record| dir.join(&record.file).is_file());
        manifest.shards.sort_by(|a, b| a.file.cmp(&b.file));

        // Lease reconciliation. A record is done iff its log exists on
        // disk (a completion crash-lands the log before the manifest, so
        // disk is the truth); live leases either survive the reopen or —
        // on expiry, reclaim, or a dead-by-definition local worker — go
        // back to pending under their recorded shard id and indices.
        let mut pending: Vec<u64> = Vec::new();
        let mut assigned: HashSet<u64> = HashSet::new();
        for record in &mut manifest.leases {
            record.done = dir.join(shard_file_name(record.shard)).is_file();
            if record.done {
                continue;
            }
            for &idx in &record.indices {
                assigned.insert(idx);
            }
            if reclaim || record.worker == LOCAL_WORKER || record.expires_ms <= now_ms {
                pending.push(record.shard);
            }
        }
        // Points that are neither completed on disk nor covered by a live
        // or re-pended assignment get fresh shards. (A torn trailing line
        // in a done shard's log lands here: its point re-runs in a new
        // shard, the merge dedupes by scenario key.)
        let first_fresh_shard = next_shard_index(dir)?.max(
            manifest
                .leases
                .iter()
                .map(|record| record.shard + 1)
                .max()
                .unwrap_or(0),
        );
        let unassigned: Vec<u64> = pending_points
            .into_iter()
            .filter(|idx| !assigned.contains(idx))
            .collect();
        for (offset, chunk) in unassigned.chunks(shard_size.max(1)).enumerate() {
            let shard = first_fresh_shard + offset as u64;
            manifest.leases.push(LeaseRecord {
                shard,
                worker: String::new(),
                epoch: 0,
                expires_ms: 0,
                done: false,
                indices: chunk.to_vec(),
            });
            pending.push(shard);
        }
        manifest.leases.sort_by_key(|record| record.shard);
        pending.sort_unstable();
        manifest.save(dir)?;

        Ok(ShardScheduler {
            dir: dir.to_path_buf(),
            manifest,
            pending: pending.into(),
            counters,
            lease_ms,
            total: points.len(),
            skipped,
        })
    }

    /// Leases the next pending shard to `worker`, first reinjecting any
    /// leases that expired by `now_ms`. Returns `None` when nothing is
    /// pending *right now* — which means finished only if [`finished`]
    /// also says so; otherwise live leases may yet expire and the caller
    /// should retry later.
    ///
    /// [`finished`]: ShardScheduler::finished
    pub fn lease(&mut self, worker: &str, now_ms: u64) -> Result<Option<ShardLease>, QosrmError> {
        let mut dirty = self.expire_stale(now_ms);
        let lease = match self.pending.pop_front() {
            Some(shard) => {
                let lease_ms = self.lease_ms;
                let record = self.record_mut(shard);
                record.worker = worker.to_string();
                record.epoch += 1;
                record.expires_ms = now_ms.saturating_add(lease_ms);
                let lease = ShardLease {
                    shard,
                    epoch: record.epoch,
                    file: shard_file_name(shard),
                    points: record.indices.clone(),
                    expires_ms: record.expires_ms,
                };
                self.counters.bump_granted();
                dirty = true;
                Some(lease)
            }
            None => None,
        };
        if dirty {
            self.manifest.save(&self.dir)?;
        }
        Ok(lease)
    }

    /// Renews `worker`'s lease on `shard` under `epoch`. Returns the new
    /// expiry, or `None` if the lease is no longer active — the worker
    /// should abandon the shard, since its completion would be rejected as
    /// stale anyway.
    ///
    /// The expiry boundary is inclusive: a heartbeat arriving at
    /// `now_ms == expires_ms` exactly finds the lease already expired and
    /// returns `None`. Expiry is processed *before* the renewal is
    /// considered (every entry point runs `expire_stale` first,
    /// under the scheduler's single lock), so a boundary-instant heartbeat
    /// can never race the reinjection into two live grants of the same
    /// shard: either the heartbeat renews a still-live lease, or the shard
    /// is pending and only the next `lease` call — under a fresh epoch —
    /// grants it.
    pub fn heartbeat(
        &mut self,
        worker: &str,
        shard: u64,
        epoch: u64,
        now_ms: u64,
    ) -> Result<Option<u64>, QosrmError> {
        let mut dirty = self.expire_stale(now_ms);
        let renewed = if self.lease_is_active(worker, shard, epoch) {
            let expires_ms = now_ms.saturating_add(self.lease_ms);
            self.record_mut(shard).expires_ms = expires_ms;
            self.counters.bump_renewed();
            dirty = true;
            Some(expires_ms)
        } else {
            None
        };
        if dirty {
            self.manifest.save(&self.dir)?;
        }
        Ok(renewed)
    }

    /// Delivers a finished shard's outcome log.
    ///
    /// Accepted — durably written, recorded, lease closed — only if
    /// `worker` still holds the shard under exactly `epoch`; any other
    /// combination (expired, reinjected, re-leased, already done) is
    /// rejected as stale and the log is dropped, so exactly one log per
    /// shard ever reaches disk.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        worker: &str,
        shard: u64,
        epoch: u64,
        outcomes_jsonl: &str,
        curve_hits: u64,
        curve_misses: u64,
        now_ms: u64,
    ) -> Result<CompleteOutcome, QosrmError> {
        let dirty = self.expire_stale(now_ms);
        if !self.lease_is_active(worker, shard, epoch) {
            self.counters.bump_stale();
            if dirty {
                self.manifest.save(&self.dir)?;
            }
            return Ok(CompleteOutcome {
                accepted: false,
                stale: true,
            });
        }
        let file = shard_file_name(shard);
        // Durable (fsync file + run directory): once the shard is recorded
        // in the manifest, a crash — even a power cut — must not be able
        // to roll the log's rename back out of the directory.
        simdb::persist::write_atomic_durable(&self.dir.join(&file), outcomes_jsonl.as_bytes())?;
        let scenarios = outcomes_jsonl
            .lines()
            .filter(|line| !line.trim().is_empty())
            .count();
        self.manifest.completed_scenarios += scenarios;
        self.manifest.shards.push(ShardRecord {
            file,
            scenarios,
            curve_hits,
            curve_misses,
        });
        self.record_mut(shard).done = true;
        self.counters.bump_completed(worker);
        self.manifest.save(&self.dir)?;
        Ok(CompleteOutcome {
            accepted: true,
            stale: false,
        })
    }

    /// Whether every scenario of the sweep has a durable outcome.
    pub fn finished(&self) -> bool {
        self.manifest.completed_scenarios >= self.total
    }

    /// The scheduler's view of the manifest (kept saved on every change).
    pub fn manifest(&self) -> &SweepManifest {
        &self.manifest
    }

    /// Total scenarios of the sweep.
    pub fn total(&self) -> usize {
        self.total
    }

    /// A snapshot of the lease-protocol counters.
    pub fn telemetry(&self) -> LeaseTelemetry {
        self.counters.snapshot()
    }

    /// Builds the caller-facing report after `shards_run` local shards.
    pub fn report(&self, shards_run: usize) -> StreamReport {
        StreamReport {
            total: self.total,
            completed: self.manifest.completed_scenarios,
            skipped: self.skipped,
            shards_run,
            finished: self.finished(),
        }
    }

    /// Reinjects every live lease whose expiry has passed — inclusively: a
    /// lease with `expires_ms <= now_ms` is expired, so the boundary
    /// instant itself already counts as expired. Returns whether anything
    /// changed (the caller owes a manifest save).
    fn expire_stale(&mut self, now_ms: u64) -> bool {
        let mut changed = false;
        let pending = &mut self.pending;
        for record in &mut self.manifest.leases {
            if record.done || record.epoch == 0 || pending.contains(&record.shard) {
                continue;
            }
            if record.expires_ms <= now_ms {
                pending.push_back(record.shard);
                self.counters.bump_expired_reinjected();
                changed = true;
            }
        }
        changed
    }

    /// Whether `worker` currently holds `shard` under exactly `epoch`.
    fn lease_is_active(&self, worker: &str, shard: u64, epoch: u64) -> bool {
        if self.pending.contains(&shard) {
            return false;
        }
        self.manifest
            .leases
            .iter()
            .find(|record| record.shard == shard)
            .map(|record| !record.done && record.worker == worker && record.epoch == epoch)
            .unwrap_or(false)
    }

    fn record_mut(&mut self, shard: u64) -> &mut LeaseRecord {
        self.manifest
            .leases
            .iter_mut()
            .find(|record| record.shard == shard)
            .expect("lease record exists for every scheduled shard")
    }
}

/// Lease duration of the synchronous local executor: effectively infinite,
/// safe because every scheduler `open` reclaims [`LOCAL_WORKER`] leases
/// unconditionally.
const LOCAL_LEASE_MS: u64 = u64::MAX / 4;

/// Executes the scenarios of `manifest` that have no outcome on disk yet,
/// as the degenerate single-worker case of the lease scheduler.
fn run_pending(
    manifest: SweepManifest,
    ctx: &ExperimentContext,
    dir: &Path,
    options: &StreamOptions,
) -> Result<StreamReport, QosrmError> {
    let counters = Arc::new(LeaseCounters::default());
    let mut scheduler = ShardScheduler::open(
        manifest,
        dir,
        options.shard_size,
        LOCAL_LEASE_MS,
        counters,
        true, // the only worker is this call stack — reclaim everything
        0,
    )?;
    let grid = scheduler.manifest().spec.lower()?;
    let points = grid_points(&grid);
    let engine = SweepEngine::new(&grid, ctx, options.sweep);
    let mut shards_run = 0usize;
    while options.max_shards == 0 || shards_run < options.max_shards {
        let Some(lease) = scheduler.lease(LOCAL_WORKER, 0)? else {
            break;
        };
        // Per-shard simulators and baselines: built here, dropped at the
        // end of the shard, so resident state is bounded by the shard size.
        let chunk: Vec<GridPoint> = lease
            .points
            .iter()
            .map(|&idx| points[idx as usize])
            .collect();
        let units = engine.build_units(&mix_pairs(&chunk));
        let cache = ctx.curve_cache();
        let (hits_before, misses_before) = (cache.hits(), cache.misses());
        let outcomes = engine.evaluate_all(&units, &chunk);
        drop(units);

        let mut log = String::new();
        for outcome in &outcomes {
            log.push_str(
                &serde_json::to_string(outcome).map_err(|e| QosrmError::Io(e.to_string()))?,
            );
            log.push('\n');
        }
        let sealed = scheduler.complete(
            LOCAL_WORKER,
            lease.shard,
            lease.epoch,
            &log,
            cache.hits() - hits_before,
            cache.misses() - misses_before,
            0,
        )?;
        debug_assert!(sealed.accepted, "the local worker's lease cannot expire");
        shards_run += 1;
    }
    Ok(scheduler.report(shards_run))
}

/// The shard log files of a run directory, sorted by shard index.
fn shard_files(dir: &Path) -> Result<Vec<PathBuf>, QosrmError> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("shard-") && name.ends_with(".jsonl") {
            files.push(entry.path());
        }
    }
    files.sort();
    Ok(files)
}

/// Index to use for the next shard log (max existing index + 1).
fn next_shard_index(dir: &Path) -> Result<u64, QosrmError> {
    Ok(shard_files(dir)?
        .iter()
        .filter_map(|path| {
            path.file_name()?
                .to_string_lossy()
                .strip_prefix("shard-")?
                .strip_suffix(".jsonl")?
                .parse::<u64>()
                .ok()
        })
        .map(|idx| idx + 1)
        .max()
        .unwrap_or(0))
}

/// Visits every completed outcome in the shard logs, in shard order,
/// passing each visitor the shard's file name. The visitor decides what to
/// retain — a resume keeps only the keys, a merge the full outcomes.
///
/// A malformed *final* line of a log is tolerated (a torn write from a
/// killed process — that scenario simply counts as not completed); a
/// malformed line in the middle of a log is corruption and fails the scan.
fn scan_shards(dir: &Path, mut visit: impl FnMut(&str, ScenarioOutcome)) -> Result<(), QosrmError> {
    for path in shard_files(dir)? {
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = fs::read_to_string(&path)?;
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<ScenarioOutcome>(line) {
                Ok(outcome) => visit(&file, outcome),
                Err(e) if i + 1 == lines.len() => {
                    // Torn trailing line: drop it, the scenario re-runs.
                    let _ = e;
                }
                Err(e) => {
                    return Err(QosrmError::Io(format!(
                        "corrupt shard log {} at line {}: {e}",
                        path.display(),
                        i + 1
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PlatformAxisSpec, PlatformSpec, WorkloadSource};
    use crate::sweep::{QosAxis, RmaVariant};
    use qosrm_types::QosSpec;
    use workload::{MixPopulation, SynthSpec};

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "stream-test".to_string(),
            platforms: vec![PlatformAxisSpec {
                label: "p4".to_string(),
                platform: PlatformSpec::Paper1 { num_cores: 4 },
                workloads: WorkloadSource::Synth(SynthSpec {
                    seed: 3,
                    count: 3,
                    num_cores: 4,
                    population: MixPopulation::Mixed,
                    name_prefix: "s-".to_string(),
                }),
            }],
            qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
            variants: vec![RmaVariant::Paper1],
            options: Some(rma_sim::SimulationOptions {
                provide_mlp_profiles: false,
                ..Default::default()
            }),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qosrm_stream_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn run_refuses_an_existing_run_directory() {
        let dir = temp_dir("existing");
        let ctx = ExperimentContext::new(true);
        let spec = tiny_spec();
        let options = StreamOptions {
            shard_size: 2,
            ..Default::default()
        };
        run(&spec, &ctx, &dir, &options).unwrap();
        assert!(run(&spec, &ctx, &dir, &options).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_run_checkpoints_and_resume_completes() {
        let dir = temp_dir("partial");
        let ctx = ExperimentContext::new(true);
        let spec = tiny_spec();
        let partial = StreamOptions {
            shard_size: 1,
            max_shards: 2,
            ..Default::default()
        };
        let report = run(&spec, &ctx, &dir, &partial).unwrap();
        assert_eq!(report.total, 3);
        assert_eq!(report.completed, 2);
        assert!(!report.finished);
        // Merging an incomplete run names the missing scenario.
        assert!(merge(&dir).is_err());

        let manifest = SweepManifest::load(&dir).unwrap();
        assert_eq!(manifest.shards.len(), 2);
        assert_eq!(manifest.completed_scenarios, 2);
        // Every completed shard's lease record is closed; the rest are open.
        assert!(manifest
            .leases
            .iter()
            .all(|record| record.done == dir.join(shard_file_name(record.shard)).is_file()));

        let rest = StreamOptions {
            shard_size: 1,
            ..Default::default()
        };
        let report = resume(&ctx, &dir, &rest).unwrap();
        assert_eq!(report.skipped, 2);
        assert!(report.finished);
        let merged = merge(&dir).unwrap();
        assert_eq!(merged.scenarios.len(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_database_mode_mismatch() {
        let dir = temp_dir("mode");
        let ctx = ExperimentContext::new(true);
        run(&tiny_spec(), &ctx, &dir, &StreamOptions::default()).unwrap();
        let full = ExperimentContext::new(false);
        assert!(resume(&full, &dir, &StreamOptions::default()).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lost_shard_log_with_manifest_record_is_rerun() {
        // Replays the rename-without-dirsync window: before the durable
        // write fix, a crash immediately after "shard complete" could
        // persist the manifest record while the shard log's rename never
        // reached the directory. The run directory then claims a shard
        // that does not exist; resume must treat its scenarios as pending
        // and heal to a byte-identical merge.
        let dir = temp_dir("lost_log");
        let ctx = ExperimentContext::new(true);
        run(
            &tiny_spec(),
            &ctx,
            &dir,
            &StreamOptions {
                shard_size: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let reference = serde_json::to_string(&merge(&dir).unwrap()).unwrap();
        // Simulate the lost rename: delete a middle shard log but keep its
        // manifest record (the manifest was saved after the shard).
        fs::remove_file(dir.join("shard-0001.jsonl")).unwrap();
        let manifest = SweepManifest::load(&dir).unwrap();
        assert!(manifest.shards.iter().any(|s| s.file == "shard-0001.jsonl"));
        assert!(
            merge(&dir).is_err(),
            "merge must refuse the healed-over gap"
        );

        let report = resume(&ctx, &dir, &StreamOptions::default()).unwrap();
        assert!(report.finished);
        assert_eq!(report.skipped, 2);
        let healed = serde_json::to_string(&merge(&dir).unwrap()).unwrap();
        assert_eq!(healed, reference, "healed merge must be byte-identical");
        // The shard re-ran under its recorded id (the lease record pins the
        // assignment), so the log exists again and every recorded shard is
        // backed by a file on disk.
        let manifest = SweepManifest::load(&dir).unwrap();
        assert!(manifest.shards.iter().all(|s| dir.join(&s.file).is_file()));
        assert!(dir.join("shard-0001.jsonl").is_file());
        assert_eq!(manifest.completed_scenarios, 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_trailing_shard_line_is_dropped_and_rerun() {
        let dir = temp_dir("torn");
        let ctx = ExperimentContext::new(true);
        run(
            &tiny_spec(),
            &ctx,
            &dir,
            &StreamOptions {
                shard_size: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let reference = merge(&dir).unwrap();
        // Tear the last line of the last shard log.
        let last = shard_files(&dir).unwrap().pop().unwrap();
        let text = fs::read_to_string(&last).unwrap();
        fs::write(&last, &text[..text.len() / 2]).unwrap();
        assert!(merge(&dir).is_err());
        let report = resume(&ctx, &dir, &StreamOptions::default()).unwrap();
        assert!(report.finished);
        assert_eq!(report.skipped, 2);
        let healed = merge(&dir).unwrap();
        assert_eq!(healed, reference);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_expiry_boundary_is_inclusive_and_cannot_double_grant() {
        // Pins the boundary semantics of `expires_ms`: live strictly
        // before the instant, expired at the instant itself — and a
        // heartbeat landing exactly on the boundary cannot race the
        // reinjection into a second live grant of the same shard.
        let dir = temp_dir("boundary");
        let manifest = init_manifest(&tiny_spec(), true, &dir, 3).unwrap();
        let counters = Arc::new(LeaseCounters::default());
        let mut scheduler =
            ShardScheduler::open(manifest, &dir, 3, 1_000, counters, false, 0).unwrap();
        let alice = scheduler.lease("alice", 0).unwrap().unwrap();
        assert_eq!(alice.expires_ms, 1_000);
        // One millisecond before the boundary the lease is live: the
        // heartbeat renews it (to 999 + lease_ms).
        let renewed = scheduler
            .heartbeat("alice", alice.shard, alice.epoch, 999)
            .unwrap();
        assert_eq!(renewed, Some(1_999));
        // At the renewed boundary instant exactly, the lease is already
        // expired: the same call expires-and-reinjects first, so the
        // heartbeat finds the shard pending and cannot revive it.
        assert!(scheduler
            .heartbeat("alice", alice.shard, alice.epoch, 1_999)
            .unwrap()
            .is_none());
        // The reinjected shard is granted exactly once, under a fresh
        // epoch — a second caller at the same instant gets nothing.
        let bob = scheduler.lease("bob", 1_999).unwrap().unwrap();
        assert_eq!(bob.shard, alice.shard);
        assert_eq!(bob.epoch, alice.epoch + 1);
        assert!(scheduler.lease("carol", 1_999).unwrap().is_none());
        // Alice's boundary-instant completion is stale; bob's lands.
        let late = scheduler
            .complete("alice", alice.shard, alice.epoch, "", 0, 0, 1_999)
            .unwrap();
        assert!(late.stale && !late.accepted);
        let won = scheduler
            .complete("bob", bob.shard, bob.epoch, "{}\n{}\n{}\n", 0, 0, 2_000)
            .unwrap();
        assert!(won.accepted && !won.stale);
        let telemetry = scheduler.telemetry();
        assert_eq!(telemetry.granted, 2);
        assert_eq!(telemetry.renewed, 1);
        assert_eq!(telemetry.expired, 1);
        assert_eq!(telemetry.reinjected, 1);
        assert_eq!(telemetry.stale_rejected, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scheduler_resolves_a_lease_epoch_race_to_one_winner() {
        // Pure scheduler-level check of the stale-completion contract (the
        // full evaluate-and-complete races live in tests/streaming_resume).
        let dir = temp_dir("epoch_race");
        let manifest = init_manifest(&tiny_spec(), true, &dir, 3).unwrap();
        let counters = Arc::new(LeaseCounters::default());
        let mut scheduler =
            ShardScheduler::open(manifest, &dir, 3, 1_000, counters, false, 0).unwrap();
        // One shard of three scenarios; alice leases it at t=0.
        let alice = scheduler.lease("alice", 0).unwrap().unwrap();
        assert_eq!(alice.epoch, 1);
        assert_eq!(alice.points.len(), 3);
        assert!(scheduler.lease("bob", 100).unwrap().is_none());
        // Alice heartbeats at t=500 (renewed), then goes silent; at
        // t=2000 the lease is expired, so bob gets the shard re-granted
        // under the next epoch.
        assert!(scheduler
            .heartbeat("alice", alice.shard, alice.epoch, 500)
            .unwrap()
            .is_some());
        let bob = scheduler.lease("bob", 2_000).unwrap().unwrap();
        assert_eq!(bob.shard, alice.shard);
        assert_eq!(bob.epoch, 2);
        // Alice can neither renew nor complete under her dead epoch.
        assert!(scheduler
            .heartbeat("alice", alice.shard, alice.epoch, 2_100)
            .unwrap()
            .is_none());
        let late = scheduler
            .complete("alice", alice.shard, alice.epoch, "", 0, 0, 2_200)
            .unwrap();
        assert!(late.stale && !late.accepted);
        let telemetry = scheduler.telemetry();
        assert_eq!(telemetry.granted, 2);
        assert_eq!(telemetry.renewed, 1);
        assert_eq!(telemetry.expired, 1);
        assert_eq!(telemetry.reinjected, 1);
        assert_eq!(telemetry.stale_rejected, 1);
        fs::remove_dir_all(&dir).ok();
    }
}
