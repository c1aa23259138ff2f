//! Fault-tolerant sweep coordination: shard, verify, merge, checkpoint.
//!
//! [`Scenario::sweep_par`] already shards a sweep across threads, but a
//! single killed process loses the whole run and nothing audits a
//! worker's output before it is merged. This module adds the robustness
//! layer: a **coordinator** hands seed-range shards to workers over typed
//! mpsc channels, every delivered shard carries a deterministic FNV-1a
//! content hash the coordinator recomputes before accepting, accepted
//! shards can additionally be **spot-checked** — their head jobs
//! recomputed bitwise by a *different* worker — and completed shards
//! stream to an append-only [checkpoint] so a killed
//! sweep resumes from disk.
//!
//! The determinism contract is what makes all of this cheap: every sweep
//! point is a pure function of its `(model, seed)` job and the scenario
//! spec, so *any* worker can recompute *any* shard at *any* time and
//! produce the same bytes. Failures therefore become recoverable rather
//! than fatal — lost work is reassigned, corrupt work is rejected and
//! recomputed, duplicated work is dropped — and the merged report is
//! **bitwise identical** to [`Scenario::sweep`] no matter what failed:
//!
//! ```text
//! coordinate(faults = none) ≡ coordinate(any FaultPlan)
//!                           ≡ kill-at-every-shard + resume ≡ sweep()
//! ```
//!
//! # The fleet
//!
//! Workers are scoped threads, each with its own `SolverWorkspace` and
//! worker-local [`SolveCache`], fed over one mpsc channel per worker and
//! reporting on a shared one. When the sweep ends, every worker hands
//! back its cache counters; they are merged in worker-id order, the
//! serial fallback's last, into [`SweepReport::cache`], as
//! [`Scenario::sweep_par`] merges its shards.
//!
//! # Fault model and injection
//!
//! Faults are injected deterministically from a seeded [`FaultPlan`]
//! ([`FaultPlan::from_seed`] draws events from the simulation RNG), one
//! event at most per shard, firing on the shard's **first** assignment:
//!
//! * [`FaultKind::CrashWorker`] — the worker thread exits mid-shard and
//!   never replies; its channel drops, the shard times out and is
//!   reassigned, and the dead worker is detected at the next send.
//! * [`FaultKind::Stall`] — the worker sleeps past the per-shard deadline
//!   and delivers late; the coordinator has already reassigned, and the
//!   late delivery is either accepted (identical bytes) or dropped as a
//!   duplicate.
//! * [`FaultKind::CorruptHash`] — the delivery's content hash lies; the
//!   recomputed hash disagrees, the shard is rejected (never merged) and
//!   retried elsewhere with capped exponential backoff.
//! * [`FaultKind::DuplicateShard`] — the shard is delivered twice; the
//!   second copy is dropped.
//!
//! Retries are capped ([`CoordinatorConfig::max_retries`], then
//! [`CoordinatorError::ShardFailed`]); when every worker is lost the
//! coordinator degrades gracefully to computing the remaining shards
//! serially in-process. None of these scheduling decisions can change the
//! merged bytes — only *whether* and *when* a shard's (always identical)
//! points arrive.
//!
//! # Clocks
//!
//! Per-shard deadlines and retry backoff read the monotonic wall clock —
//! the one sanctioned exception to the crate's no-ambient-entropy rule
//! (see the `ambient-entropy` docs in `mlf-lint`): the clock steers
//! **scheduling only** (when to reassign, when to give up waiting). Every
//! accepted shard's bytes are a pure function of the job list, so a slow
//! machine retries more but merges the same report.

use crate::cache::SolveCache;
use crate::checkpoint::{
    self, shard_content_hash, CheckpointError, CheckpointMeta, CheckpointWriter, ShardRecord,
    TailPolicy,
};
use crate::hash::Fnv1a;
use crate::{CacheStats, LinkRates, NetworkSource, Scenario, SweepGrid, SweepPoint, SweepReport};
use mlf_core::allocator::SolverWorkspace;
use mlf_core::LinkRateModel;
use mlf_sim::SimRng;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

// mlf-lint: allow(ambient-entropy, reason = "monotonic deadlines drive retry/reassignment scheduling only; merged bytes are a pure function of the job list (see module docs)")
type Deadline = std::time::Instant;

/// One `(model override, seed)` sweep job — the coordinator speaks the
/// same job language as the serial and parallel executors.
type Job = (Option<LinkRateModel>, u64);

/// The kinds of failure the seeded harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker thread exits mid-shard without replying.
    CrashWorker,
    /// The worker sleeps past the shard deadline, then delivers late.
    Stall,
    /// The delivery claims a content hash its points do not have.
    CorruptHash,
    /// The delivery arrives twice.
    DuplicateShard,
}

/// One injected fault: `kind` fires when `worker` receives `shard` on the
/// shard's first assignment (retries run clean, so every plan converges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What goes wrong.
    pub kind: FaultKind,
    /// The worker the fault is armed on.
    pub worker: usize,
    /// The shard whose first assignment triggers it.
    pub shard: u64,
}

/// A deterministic fault schedule. The same plan against the same sweep
/// produces the same failures — which is what lets CI assert that *every*
/// plan merges the same bytes as the fault-free run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no injected faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An explicit plan (tests targeting one fault class).
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Draw a plan from the simulation RNG: each shard has a 40% chance
    /// of carrying one fault of a uniformly chosen kind, armed on a
    /// uniformly chosen worker. At most one event per shard, so a capped
    /// retry budget always converges.
    pub fn from_seed(seed: u64, workers: usize, shards: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let workers = workers.max(1) as u64;
        let mut events = Vec::new();
        for shard in 0..shards {
            if !rng.bernoulli(0.4) {
                continue;
            }
            let kind = match rng.below(4) {
                0 => FaultKind::CrashWorker,
                1 => FaultKind::Stall,
                2 => FaultKind::CorruptHash,
                _ => FaultKind::DuplicateShard,
            };
            let worker = rng.below(workers) as usize;
            events.push(FaultEvent {
                kind,
                worker,
                shard,
            });
        }
        FaultPlan { events }
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn fires(&self, worker: usize, shard: u64, attempt: u32) -> Option<FaultKind> {
        if attempt != 0 {
            return None;
        }
        self.events
            .iter()
            .find(|e| e.worker == worker && e.shard == shard)
            .map(|e| e.kind)
    }
}

/// Knobs of one coordinated sweep.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Worker threads (`0` = use `std::thread::available_parallelism`).
    pub workers: usize,
    /// Jobs per shard (clamped to at least 1).
    pub shard_size: usize,
    /// Head jobs of every accepted shard recomputed bitwise by a second
    /// worker before the shard is merged (`0` disables spot checks).
    pub spot_check: usize,
    /// How long one shard may stay assigned before it is reassigned.
    pub shard_timeout: Duration,
    /// Retry budget per shard (timeouts and hash rejects both count).
    pub max_retries: u32,
    /// First retry backoff; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Stream accepted shards to this append-only checkpoint file and
    /// resume from it when it already exists.
    pub checkpoint: Option<PathBuf>,
    /// The injected fault schedule (empty in production).
    pub fault_plan: FaultPlan,
    /// Stop with [`CoordinatorError::Interrupted`] after accepting this
    /// many *new* shards — the simulated-kill hook the resume tests drive.
    pub max_new_shards: Option<u64>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            workers: 2,
            shard_size: 8,
            spot_check: 2,
            shard_timeout: Duration::from_secs(2),
            max_retries: 4,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            checkpoint: None,
            fault_plan: FaultPlan::none(),
            max_new_shards: None,
        }
    }
}

/// Why a coordinated sweep stopped without a merged report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordinatorError {
    /// One shard exhausted its retry budget.
    ShardFailed {
        /// The shard index.
        shard: u64,
        /// Attempts consumed.
        attempts: u32,
    },
    /// [`CoordinatorConfig::max_new_shards`] was reached with work left;
    /// the checkpoint (when configured) holds everything accepted so far.
    Interrupted {
        /// Newly accepted shards this run.
        accepted: u64,
    },
    /// The checkpoint file could not be written, read, or trusted.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for CoordinatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordinatorError::ShardFailed { shard, attempts } => {
                write!(f, "shard {shard} failed after {attempts} attempts")
            }
            CoordinatorError::Interrupted { accepted } => {
                write!(f, "interrupted after accepting {accepted} new shards")
            }
            CoordinatorError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoordinatorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoordinatorError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for CoordinatorError {
    fn from(e: CheckpointError) -> Self {
        CoordinatorError::Checkpoint(e)
    }
}

/// Scheduling telemetry of one coordinated run. Everything here depends
/// on timing, fault injection, and machine load — which is exactly why it
/// lives *outside* [`SweepReport`] equality: two runs with wildly
/// different stats still merge identical bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Total shards in the sweep.
    pub shards: u64,
    /// Shards restored from the checkpoint instead of recomputed.
    pub shards_from_checkpoint: u64,
    /// Shard reassignments (timeouts, hash rejects, spot mismatches).
    pub retries: u64,
    /// Deadline expiries observed.
    pub timeouts: u64,
    /// Deliveries rejected because their content hash did not verify.
    pub hash_rejects: u64,
    /// Deliveries dropped because the shard was already settled.
    pub duplicates_dropped: u64,
    /// Workers found dead at dispatch (send failed).
    pub workers_lost: u64,
    /// Spot checks that compared bitwise equal.
    pub spot_checks_passed: u64,
    /// Shards accepted without their spot check (no second worker left,
    /// spot retries exhausted, or serial fallback).
    pub spot_checks_skipped: u64,
    /// Whether the run finished by computing remaining shards serially.
    pub serial_fallback: bool,
}

impl std::fmt::Display for CoordinatorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "shards: {} total, {} from checkpoint",
            self.shards, self.shards_from_checkpoint
        )?;
        writeln!(
            f,
            "recovery: {} retries, {} timeouts, {} hash rejects, {} duplicates dropped",
            self.retries, self.timeouts, self.hash_rejects, self.duplicates_dropped
        )?;
        writeln!(
            f,
            "fleet: {} workers lost, serial fallback: {}",
            self.workers_lost,
            if self.serial_fallback { "yes" } else { "no" }
        )?;
        write!(
            f,
            "audit: {} spot checks passed, {} skipped",
            self.spot_checks_passed, self.spot_checks_skipped
        )
    }
}

/// A merged coordinated sweep: the (bitwise canonical) report plus the
/// scheduling telemetry of how it got there.
#[derive(Debug, Clone)]
pub struct CoordinatorReport {
    /// The merged sweep, byte-identical to [`Scenario::sweep`] over the
    /// same jobs.
    pub report: SweepReport,
    /// Scheduling telemetry (excluded from any equality the differentials
    /// assert).
    pub stats: CoordinatorStats,
}

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

/// What a worker was asked to compute: a real shard, or the spot-check
/// audit of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskId {
    Shard(u64),
    Spot(u64),
}

#[derive(Debug, Clone)]
struct Assignment {
    task: TaskId,
    attempt: u32,
    shard: u64,
    start: u64,
    jobs: Vec<Job>,
}

#[derive(Debug)]
enum ToWorker {
    Assign(Assignment),
    Shutdown,
}

#[derive(Debug, Clone)]
struct WorkerReport {
    worker: usize,
    task: TaskId,
    attempt: u32,
    points: Vec<SweepPoint>,
    hash: u64,
}

struct WorkerSlot {
    tx: mpsc::Sender<ToWorker>,
    /// The assignment the worker is believed to be computing.
    current: Option<(TaskId, u32)>,
    alive: bool,
}

struct ShardSpec {
    start: u64,
    jobs: Vec<Job>,
}

enum ShardState {
    /// Waiting for a worker (`ready_at` holds the retry backoff).
    Queued {
        ready_at: Option<Deadline>,
    },
    /// Assigned; reassigned if not delivered by `deadline`.
    Running {
        deadline: Deadline,
    },
    /// Hash-verified points waiting for a spot-check slot.
    Held {
        points: Vec<SweepPoint>,
        computed_by: usize,
        spot_attempt: u32,
        ready_at: Option<Deadline>,
    },
    /// Spot check in flight on a second worker.
    SpotRunning {
        points: Vec<SweepPoint>,
        computed_by: usize,
        spot_attempt: u32,
        deadline: Deadline,
    },
    Done,
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// One worker thread: compute assignments until shutdown (or an injected
/// crash), then hand back the worker cache's counters.
fn worker_loop(
    scenario: &Scenario,
    id: usize,
    rx: mpsc::Receiver<ToWorker>,
    tx: mpsc::Sender<WorkerReport>,
    plan: &FaultPlan,
    stall: Duration,
) -> CacheStats {
    let mut ws = SolverWorkspace::new();
    let mut cache: Option<SolveCache> = scenario.worker_cache();
    while let Ok(ToWorker::Assign(a)) = rx.recv() {
        // Faults target real shard work only; spot checks run clean (they
        // are the audit, not the subject).
        let fault = match a.task {
            TaskId::Shard(_) => plan.fires(id, a.shard, a.attempt),
            TaskId::Spot(_) => None,
        };
        if matches!(fault, Some(FaultKind::CrashWorker)) {
            // Crash: exit without replying. Dropping `rx` is what the
            // coordinator eventually observes as a dead channel.
            break;
        }
        if matches!(fault, Some(FaultKind::Stall)) {
            std::thread::sleep(stall);
        }
        let points: Vec<SweepPoint> = a
            .jobs
            .iter()
            .map(|&(model, seed)| scenario.sweep_point_with(seed, model, &mut ws, cache.as_mut()))
            .collect();
        let mut hash = shard_content_hash(a.shard, a.start, &points);
        if matches!(fault, Some(FaultKind::CorruptHash)) {
            hash ^= 0x5eed_bad0_dead_beef;
        }
        let report = WorkerReport {
            worker: id,
            task: a.task,
            attempt: a.attempt,
            points,
            hash,
        };
        let duplicate = matches!(fault, Some(FaultKind::DuplicateShard));
        if duplicate && tx.send(report.clone()).is_err() {
            break;
        }
        if tx.send(report).is_err() {
            break;
        }
    }
    cache.map_or_else(CacheStats::default, |c| c.stats())
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// The identity of one coordinated sweep: everything that determines the
/// merged bytes — scenario spec, allocator identity, audit switch, and the
/// exact job list. Binds checkpoints to their sweep so a file can never
/// resume a different experiment.
fn sweep_identity(scenario: &Scenario, jobs: &[Job]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(scenario.label.as_bytes());
    h.write(scenario.allocator.name().as_bytes());
    let sig = scenario
        .allocator
        .cache_signature()
        .unwrap_or_else(|| "<opaque>".to_string());
    h.write(sig.as_bytes());
    h.write_u64(u64::from(scenario.check_properties));
    match &scenario.source {
        NetworkSource::Fixed(net) => {
            h.write(b"fixed");
            h.write_u64(net.session_count() as u64);
        }
        NetworkSource::Random {
            family,
            nodes,
            sessions,
            max_receivers,
        } => {
            h.write(b"random");
            h.write(family.label().as_bytes());
            h.write_u64(*nodes as u64);
            h.write_u64(*sessions as u64);
            h.write_u64(*max_receivers as u64);
        }
    }
    match &scenario.link_rates {
        LinkRates::Efficient => h.write(b"eff"),
        LinkRates::Uniform(m) => {
            h.write(b"uniform");
            let (tag, bits) = checkpoint::model_code(Some(*m));
            h.write(&[tag]);
            h.write_u64(bits);
        }
        LinkRates::Explicit(cfg) => {
            h.write(b"explicit");
            for i in 0..cfg.len() {
                let (tag, bits) = checkpoint::model_code(Some(*cfg.model(i)));
                h.write(&[tag]);
                h.write_u64(bits);
            }
        }
    }
    h.write_u64(jobs.len() as u64);
    for &(model, seed) in jobs {
        let (tag, bits) = checkpoint::model_code(model);
        h.write(&[tag]);
        h.write_u64(bits);
        h.write_u64(seed);
    }
    h.finish()
}

fn backoff(cfg: &CoordinatorConfig, attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(16);
    cfg.backoff_base
        .saturating_mul(1u32 << shift)
        .min(cfg.backoff_cap)
}

/// Accept one verified shard: checkpoint it, mark it done.
#[allow(clippy::too_many_arguments)]
fn accept_shard(
    i: usize,
    points: Vec<SweepPoint>,
    shards: &[ShardSpec],
    writer: &mut Option<CheckpointWriter>,
    done: &mut [Option<Vec<SweepPoint>>],
    state: &mut [ShardState],
    remaining: &mut usize,
    accepted_new: &mut u64,
) -> Result<(), CoordinatorError> {
    if let Some(w) = writer.as_mut() {
        let start = shards[i].start;
        let hash = shard_content_hash(i as u64, start, &points);
        w.append_shard(&ShardRecord {
            shard: i as u64,
            start,
            points: points.clone(),
            hash,
        })?;
    }
    done[i] = Some(points);
    state[i] = ShardState::Done;
    *remaining -= 1;
    *accepted_new += 1;
    Ok(())
}

/// Whether the simulated-kill cap fires now.
fn interrupted(cfg: &CoordinatorConfig, accepted_new: u64, remaining: usize) -> bool {
    matches!(cfg.max_new_shards, Some(cap) if accepted_new >= cap && remaining > 0)
}

impl Scenario {
    /// [`Scenario::sweep`] through the fault-tolerant coordinator: shards
    /// the seeds across worker threads, hash-verifies and optionally
    /// spot-checks every shard, checkpoints accepted shards, and merges in
    /// canonical seed order. The merged [`SweepReport`] is **bitwise
    /// identical** to the serial sweep under any [`FaultPlan`] and across
    /// any kill/resume sequence. See the [module docs](crate::coordinator).
    pub fn coordinate<I: IntoIterator<Item = u64>>(
        &self,
        seeds: I,
        cfg: &CoordinatorConfig,
    ) -> Result<CoordinatorReport, CoordinatorError> {
        let jobs: Vec<Job> = seeds.into_iter().map(|s| (None, s)).collect();
        self.coordinate_jobs(jobs, cfg)
    }

    /// [`Scenario::sweep_grid`] through the coordinator (models-major job
    /// order, exactly like the serial and parallel grid executors).
    pub fn coordinate_grid(
        &self,
        grid: &SweepGrid,
        cfg: &CoordinatorConfig,
    ) -> Result<CoordinatorReport, CoordinatorError> {
        self.check_grid(grid);
        self.coordinate_jobs(Self::grid_jobs(grid), cfg)
    }

    fn coordinate_jobs(
        &self,
        jobs: Vec<Job>,
        cfg: &CoordinatorConfig,
    ) -> Result<CoordinatorReport, CoordinatorError> {
        let shard_size = cfg.shard_size.max(1);
        let mut shards: Vec<ShardSpec> = Vec::new();
        for (idx, chunk) in jobs.chunks(shard_size).enumerate() {
            shards.push(ShardSpec {
                start: (idx * shard_size) as u64,
                jobs: chunk.to_vec(),
            });
        }
        let mut stats = CoordinatorStats {
            shards: shards.len() as u64,
            ..CoordinatorStats::default()
        };
        let meta = CheckpointMeta {
            sweep: sweep_identity(self, &jobs),
            shards: shards.len() as u64,
            shard_size: shard_size as u64,
        };

        let mut done: Vec<Option<Vec<SweepPoint>>> = (0..shards.len()).map(|_| None).collect();
        let mut writer: Option<CheckpointWriter> = None;
        if let Some(path) = &cfg.checkpoint {
            if path.exists() {
                let loaded = checkpoint::load_checkpoint(path, &meta, TailPolicy::Recover)?;
                for rec in loaded.shards.iter() {
                    let spec = &shards[rec.shard as usize];
                    if rec.start != spec.start || rec.points.len() != spec.jobs.len() {
                        return Err(CheckpointError::Corrupt {
                            line: 0,
                            reason: format!(
                                "shard {} geometry disagrees with the sweep \
                                 (start {} len {}, expected start {} len {})",
                                rec.shard,
                                rec.start,
                                rec.points.len(),
                                spec.start,
                                spec.jobs.len()
                            ),
                        }
                        .into());
                    }
                    if done[rec.shard as usize].is_none() {
                        stats.shards_from_checkpoint += 1;
                    }
                    done[rec.shard as usize] = Some(rec.points.clone());
                }
                writer = Some(CheckpointWriter::resume(path, &meta, &loaded)?);
            } else {
                writer = Some(CheckpointWriter::create(path, &meta)?);
            }
        }

        let mut remaining = done.iter().filter(|d| d.is_none()).count();
        let mut accepted_new = 0u64;
        if remaining > 0 && interrupted(cfg, 0, remaining) {
            return Err(CoordinatorError::Interrupted { accepted: 0 });
        }
        let cache = if remaining > 0 {
            self.run_workers(
                cfg,
                &shards,
                &mut done,
                &mut writer,
                &mut remaining,
                &mut accepted_new,
                &mut stats,
            )?
        } else {
            CacheStats::default()
        };

        let mut points = Vec::with_capacity(jobs.len());
        // Every shard is `Some` here: run_workers only returns Ok once
        // `remaining == 0`.
        for p in done.into_iter().flatten() {
            points.extend(p);
        }
        Ok(CoordinatorReport {
            report: SweepReport {
                label: self.label.clone(),
                points,
                cache,
            },
            stats,
        })
    }

    /// Run the open shards on a fleet of scoped worker threads, then shut
    /// the fleet down and return the cache counters of every worker, merged
    /// in worker-id order, plus those of the serial remainder (if any).
    #[allow(clippy::too_many_arguments)]
    fn run_workers(
        &self,
        cfg: &CoordinatorConfig,
        shards: &[ShardSpec],
        done: &mut [Option<Vec<SweepPoint>>],
        writer: &mut Option<CheckpointWriter>,
        remaining: &mut usize,
        accepted_new: &mut u64,
        stats: &mut CoordinatorStats,
    ) -> Result<CacheStats, CoordinatorError> {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.workers
        };
        let plan = &cfg.fault_plan;
        // Stalls must overshoot the deadline, or they would be ordinary
        // slow deliveries rather than timeouts.
        let stall = cfg
            .shard_timeout
            .saturating_mul(2)
            .saturating_add(Duration::from_millis(20));
        let mut state: Vec<ShardState> = done
            .iter()
            .map(|d| {
                if d.is_some() {
                    ShardState::Done
                } else {
                    ShardState::Queued { ready_at: None }
                }
            })
            .collect();
        let mut attempts: Vec<u32> = vec![0; shards.len()];

        std::thread::scope(|scope| {
            let (rtx, rrx) = mpsc::channel::<WorkerReport>();
            let mut handles = Vec::with_capacity(workers);
            let mut slots: Vec<WorkerSlot> = (0..workers)
                .map(|id| {
                    let (tx, rx) = mpsc::channel::<ToWorker>();
                    let rtx = rtx.clone();
                    handles.push(scope.spawn(move || worker_loop(self, id, rx, rtx, plan, stall)));
                    WorkerSlot {
                        tx,
                        current: None,
                        alive: true,
                    }
                })
                .collect();
            drop(rtx);
            let result = self.event_loop(
                cfg,
                shards,
                &mut slots,
                &rrx,
                &mut state,
                &mut attempts,
                done,
                writer,
                remaining,
                accepted_new,
                stats,
            );
            for s in &slots {
                let _ = s.tx.send(ToWorker::Shutdown);
            }
            let mut cache = CacheStats::default();
            for h in handles {
                match h.join() {
                    Ok(worker) => cache.merge(&worker),
                    // Re-raise a worker panic, as the scope would.
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            cache.merge(&result?);
            Ok(cache)
        })
    }

    /// The coordinator event loop: dispatch, verify, retry, merge. Returns
    /// the serial remainder's cache counters (zero when the fleet finished
    /// the sweep).
    #[allow(clippy::too_many_arguments)]
    fn event_loop(
        &self,
        cfg: &CoordinatorConfig,
        shards: &[ShardSpec],
        slots: &mut [WorkerSlot],
        rrx: &mpsc::Receiver<WorkerReport>,
        state: &mut [ShardState],
        attempts: &mut [u32],
        done: &mut [Option<Vec<SweepPoint>>],
        writer: &mut Option<CheckpointWriter>,
        remaining: &mut usize,
        accepted_new: &mut u64,
        stats: &mut CoordinatorStats,
    ) -> Result<CacheStats, CoordinatorError> {
        let mut stuck_probes = 0u32;

        loop {
            // --- dispatch ready work to idle live workers ------------
            for i in 0..state.len() {
                let now = Deadline::now();
                match &state[i] {
                    ShardState::Queued { ready_at } if ready_at.map_or(true, |t| t <= now) => {
                        let spec = &shards[i];
                        let assignment = Assignment {
                            task: TaskId::Shard(i as u64),
                            attempt: attempts[i],
                            shard: i as u64,
                            start: spec.start,
                            jobs: spec.jobs.clone(),
                        };
                        if dispatch(slots, None, assignment, stats) {
                            state[i] = ShardState::Running {
                                deadline: now + cfg.shard_timeout,
                            };
                            stuck_probes = 0;
                        }
                    }
                    ShardState::Held { ready_at, .. } if ready_at.map_or(true, |t| t <= now) => {
                        let (points, computed_by, spot_attempt) = match std::mem::replace(
                            &mut state[i],
                            ShardState::Queued { ready_at: None },
                        ) {
                            ShardState::Held {
                                points,
                                computed_by,
                                spot_attempt,
                                ..
                            } => (points, computed_by, spot_attempt),
                            // Unreachable: we matched Held above.
                            other => {
                                state[i] = other;
                                continue;
                            }
                        };
                        let second_exists = slots
                            .iter()
                            .enumerate()
                            .any(|(w, s)| s.alive && w != computed_by);
                        if !second_exists {
                            // No independent worker left to audit with:
                            // accept on the (already verified) content
                            // hash alone.
                            stats.spot_checks_skipped += 1;
                            accept_shard(
                                i,
                                points,
                                shards,
                                writer,
                                done,
                                state,
                                remaining,
                                accepted_new,
                            )?;
                            if interrupted(cfg, *accepted_new, *remaining) {
                                break;
                            }
                            continue;
                        }
                        let spec = &shards[i];
                        let spot_len = cfg.spot_check.min(spec.jobs.len());
                        let assignment = Assignment {
                            task: TaskId::Spot(i as u64),
                            attempt: spot_attempt,
                            shard: i as u64,
                            start: spec.start,
                            jobs: spec.jobs[..spot_len].to_vec(),
                        };
                        if dispatch(slots, Some(computed_by), assignment, stats) {
                            state[i] = ShardState::SpotRunning {
                                points,
                                computed_by,
                                spot_attempt,
                                deadline: now + cfg.shard_timeout,
                            };
                            stuck_probes = 0;
                        } else {
                            state[i] = ShardState::Held {
                                points,
                                computed_by,
                                spot_attempt,
                                ready_at: None,
                            };
                        }
                    }
                    _ => {}
                }
            }
            if *remaining == 0 {
                return Ok(CacheStats::default());
            }
            if interrupted(cfg, *accepted_new, *remaining) {
                return Err(CoordinatorError::Interrupted {
                    accepted: *accepted_new,
                });
            }
            if !slots.iter().any(|s| s.alive) {
                stats.serial_fallback = true;
                return self.serial_remainder(
                    cfg,
                    shards,
                    state,
                    done,
                    writer,
                    remaining,
                    accepted_new,
                    stats,
                );
            }

            // --- wait for the next delivery or deadline --------------
            let now = Deadline::now();
            let mut next: Option<Deadline> = None;
            let mut in_flight = false;
            for s in state.iter() {
                let t = match s {
                    ShardState::Running { deadline } => {
                        in_flight = true;
                        Some(*deadline)
                    }
                    ShardState::SpotRunning { deadline, .. } => {
                        in_flight = true;
                        Some(*deadline)
                    }
                    ShardState::Queued { ready_at } => *ready_at,
                    ShardState::Held { ready_at, .. } => *ready_at,
                    ShardState::Done => None,
                };
                if let Some(t) = t {
                    next = Some(next.map_or(t, |n: Deadline| n.min(t)));
                }
            }
            let wait = match next {
                Some(t) => t.saturating_duration_since(now),
                // Nothing scheduled at all: either every live worker is
                // busy (possibly crashed without detection) or work is
                // waiting on a worker. Probe in timeout-sized windows.
                None => cfg.shard_timeout,
            };
            match rrx.recv_timeout(wait.max(Duration::from_millis(1))) {
                Ok(rep) => {
                    stuck_probes = 0;
                    self.handle_report(
                        rep,
                        cfg,
                        shards,
                        slots,
                        state,
                        attempts,
                        done,
                        writer,
                        remaining,
                        accepted_new,
                        stats,
                    )?;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let now = Deadline::now();
                    let mut expired_any = false;
                    for i in 0..state.len() {
                        match &state[i] {
                            ShardState::Running { deadline } if *deadline <= now => {
                                expired_any = true;
                                stats.timeouts += 1;
                                stats.retries += 1;
                                attempts[i] += 1;
                                if attempts[i] > cfg.max_retries {
                                    return Err(CoordinatorError::ShardFailed {
                                        shard: i as u64,
                                        attempts: attempts[i],
                                    });
                                }
                                state[i] = ShardState::Queued {
                                    ready_at: Some(now + backoff(cfg, attempts[i])),
                                };
                            }
                            ShardState::SpotRunning { deadline, .. } if *deadline <= now => {
                                expired_any = true;
                                stats.timeouts += 1;
                                let (points, computed_by, spot_attempt) = match std::mem::replace(
                                    &mut state[i],
                                    ShardState::Queued { ready_at: None },
                                ) {
                                    ShardState::SpotRunning {
                                        points,
                                        computed_by,
                                        spot_attempt,
                                        ..
                                    } => (points, computed_by, spot_attempt + 1),
                                    other => {
                                        state[i] = other;
                                        continue;
                                    }
                                };
                                if spot_attempt > cfg.max_retries {
                                    // The content hash already verified;
                                    // losing the audit repeatedly must
                                    // not fail the sweep.
                                    stats.spot_checks_skipped += 1;
                                    accept_shard(
                                        i,
                                        points,
                                        shards,
                                        writer,
                                        done,
                                        state,
                                        remaining,
                                        accepted_new,
                                    )?;
                                } else {
                                    state[i] = ShardState::Held {
                                        points,
                                        computed_by,
                                        spot_attempt,
                                        ready_at: Some(now + backoff(cfg, spot_attempt)),
                                    };
                                }
                            }
                            _ => {}
                        }
                    }
                    if !expired_any && !in_flight {
                        stuck_probes += 1;
                        if stuck_probes >= 3 {
                            // Live-but-silent workers have had three
                            // full timeout windows; treat the fleet as
                            // lost and finish serially.
                            stats.serial_fallback = true;
                            return self.serial_remainder(
                                cfg,
                                shards,
                                state,
                                done,
                                writer,
                                remaining,
                                accepted_new,
                                stats,
                            );
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Every worker thread is gone.
                    stats.serial_fallback = true;
                    return self.serial_remainder(
                        cfg,
                        shards,
                        state,
                        done,
                        writer,
                        remaining,
                        accepted_new,
                        stats,
                    );
                }
            }
        }
    }

    /// Process one delivery: verify, settle, or retry.
    #[allow(clippy::too_many_arguments)]
    fn handle_report(
        &self,
        rep: WorkerReport,
        cfg: &CoordinatorConfig,
        shards: &[ShardSpec],
        slots: &mut [WorkerSlot],
        state: &mut [ShardState],
        attempts: &mut [u32],
        done: &mut [Option<Vec<SweepPoint>>],
        writer: &mut Option<CheckpointWriter>,
        remaining: &mut usize,
        accepted_new: &mut u64,
        stats: &mut CoordinatorStats,
    ) -> Result<(), CoordinatorError> {
        if rep.worker < slots.len() && slots[rep.worker].current == Some((rep.task, rep.attempt)) {
            slots[rep.worker].current = None;
        }
        match rep.task {
            TaskId::Shard(shard) => {
                let i = shard as usize;
                match &state[i] {
                    ShardState::Done | ShardState::Held { .. } | ShardState::SpotRunning { .. } => {
                        // Already settled (duplicate delivery, or a stale
                        // delivery from a timed-out attempt).
                        stats.duplicates_dropped += 1;
                    }
                    ShardState::Running { .. } | ShardState::Queued { .. } => {
                        // A delivery for an open shard is welcome whichever
                        // attempt produced it — determinism makes every
                        // valid delivery byte-identical — provided it
                        // verifies.
                        let spec = &shards[i];
                        let expected = shard_content_hash(shard, spec.start, &rep.points);
                        if rep.points.len() != spec.jobs.len() || rep.hash != expected {
                            stats.hash_rejects += 1;
                            stats.retries += 1;
                            attempts[i] += 1;
                            if attempts[i] > cfg.max_retries {
                                return Err(CoordinatorError::ShardFailed {
                                    shard,
                                    attempts: attempts[i],
                                });
                            }
                            state[i] = ShardState::Queued {
                                ready_at: Some(Deadline::now() + backoff(cfg, attempts[i])),
                            };
                        } else if cfg.spot_check == 0 {
                            accept_shard(
                                i,
                                rep.points,
                                shards,
                                writer,
                                done,
                                state,
                                remaining,
                                accepted_new,
                            )?;
                        } else {
                            state[i] = ShardState::Held {
                                points: rep.points,
                                computed_by: rep.worker,
                                spot_attempt: 0,
                                ready_at: None,
                            };
                        }
                    }
                }
            }
            TaskId::Spot(shard) => {
                let i = shard as usize;
                let taken = std::mem::replace(&mut state[i], ShardState::Queued { ready_at: None });
                match taken {
                    ShardState::SpotRunning {
                        points,
                        computed_by,
                        spot_attempt,
                        ..
                    } => {
                        let spot_len = cfg.spot_check.min(shards[i].jobs.len());
                        let head_ok = rep.points.len() == spot_len
                            && rep.points.iter().zip(points.iter()).all(|(a, b)| {
                                checkpoint::encode_point(a) == checkpoint::encode_point(b)
                            });
                        if head_ok {
                            stats.spot_checks_passed += 1;
                            accept_shard(
                                i,
                                points,
                                shards,
                                writer,
                                done,
                                state,
                                remaining,
                                accepted_new,
                            )?;
                        } else {
                            // Two workers disagree bitwise: trust neither,
                            // recompute the shard from scratch.
                            let _ = computed_by;
                            let _ = spot_attempt;
                            stats.retries += 1;
                            attempts[i] += 1;
                            if attempts[i] > cfg.max_retries {
                                return Err(CoordinatorError::ShardFailed {
                                    shard,
                                    attempts: attempts[i],
                                });
                            }
                            state[i] = ShardState::Queued {
                                ready_at: Some(Deadline::now() + backoff(cfg, attempts[i])),
                            };
                        }
                    }
                    other => {
                        state[i] = other;
                        stats.duplicates_dropped += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Graceful degradation: every worker is lost, so compute the
    /// remaining shards serially in shard order and return the cache
    /// counters of that in-process pass. Bytes are unaffected — the serial
    /// path runs the same pure solve per job.
    #[allow(clippy::too_many_arguments)]
    fn serial_remainder(
        &self,
        cfg: &CoordinatorConfig,
        shards: &[ShardSpec],
        state: &mut [ShardState],
        done: &mut [Option<Vec<SweepPoint>>],
        writer: &mut Option<CheckpointWriter>,
        remaining: &mut usize,
        accepted_new: &mut u64,
        stats: &mut CoordinatorStats,
    ) -> Result<CacheStats, CoordinatorError> {
        let mut ws = SolverWorkspace::new();
        let mut cache: Option<SolveCache> = self.worker_cache();
        for i in 0..shards.len() {
            if matches!(state[i], ShardState::Done) {
                continue;
            }
            let taken = std::mem::replace(&mut state[i], ShardState::Queued { ready_at: None });
            let points = match taken {
                // A hash-verified shard awaiting its spot check is kept;
                // the audit is skipped, not the verification.
                ShardState::Held { points, .. } | ShardState::SpotRunning { points, .. } => {
                    stats.spot_checks_skipped += 1;
                    points
                }
                _ => shards[i]
                    .jobs
                    .iter()
                    .map(|&(model, seed)| {
                        self.sweep_point_with(seed, model, &mut ws, cache.as_mut())
                    })
                    .collect(),
            };
            accept_shard(
                i,
                points,
                shards,
                writer,
                done,
                state,
                remaining,
                accepted_new,
            )?;
            if interrupted(cfg, *accepted_new, *remaining) {
                return Err(CoordinatorError::Interrupted {
                    accepted: *accepted_new,
                });
            }
        }
        Ok(cache.map_or_else(CacheStats::default, |c| c.stats()))
    }
}

/// Send `assignment` to any idle live worker other than `exclude`,
/// recording it as that worker's current task and marking workers whose
/// channel is gone as dead. Returns whether a worker took it.
fn dispatch(
    slots: &mut [WorkerSlot],
    exclude: Option<usize>,
    assignment: Assignment,
    stats: &mut CoordinatorStats,
) -> bool {
    let task = (assignment.task, assignment.attempt);
    for (w, slot) in slots.iter_mut().enumerate() {
        if Some(w) == exclude || !slot.alive || slot.current.is_some() {
            continue;
        }
        if slot.tx.send(ToWorker::Assign(assignment.clone())).is_ok() {
            slot.current = Some(task);
            return true;
        }
        // The channel is dead: the worker crashed some time ago.
        slot.alive = false;
        stats.workers_lost += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plans_are_deterministic_in_their_seed() {
        for seed in 0..8 {
            let a = FaultPlan::from_seed(seed, 4, 16);
            let b = FaultPlan::from_seed(seed, 4, 16);
            assert_eq!(a, b);
        }
        // At most one event per shard.
        let plan = FaultPlan::from_seed(3, 4, 64);
        let mut shards: Vec<u64> = plan.events().iter().map(|e| e.shard).collect();
        shards.dedup();
        assert_eq!(shards.len(), plan.events().len());
        // Different seeds disagree somewhere across a few draws.
        assert!((0..8).any(|s| FaultPlan::from_seed(s, 4, 64) != plan));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = CoordinatorConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(70),
            ..CoordinatorConfig::default()
        };
        assert_eq!(backoff(&cfg, 1), Duration::from_millis(10));
        assert_eq!(backoff(&cfg, 2), Duration::from_millis(20));
        assert_eq!(backoff(&cfg, 3), Duration::from_millis(40));
        assert_eq!(backoff(&cfg, 4), Duration::from_millis(70));
        assert_eq!(backoff(&cfg, 30), Duration::from_millis(70));
    }
}
