//! Fault-tolerant sharded sweep fabric (DESIGN.md §4g).
//!
//! [`crate::batch::run_supervised`] survives faults *inside* one process —
//! panicking jobs, wall-clock timeouts, a `kill -9` of the whole sweep
//! (via the §4d journal). This module treats the worker **process** as the
//! failure unit: a coordinator splits the job list into contiguous shard
//! ranges and runs each range as one assignment on an agent reached over
//! TCP ([`crate::fabric`]) — a loopback worker (a re-exec of the current
//! binary, flagged by the [`WORKER_ENV`] environment variable) or a remote
//! `wrsn agent` from [`ShardOptions::agents`] — and supervises them:
//!
//! * **heartbeats** — every agent streams a heartbeat counter while it
//!   runs; a counter that stops advancing for longer than
//!   [`ShardOptions::lease_timeout`] marks the attempt hung and it is
//!   killed;
//! * **bounded retries with capped exponential backoff** — a crashed,
//!   hung or chaos-killed shard is re-queued up to
//!   [`ShardOptions::retries`] times, waiting
//!   `min(5 s, 200 ms · 2^attempt)` plus a deterministic seeded jitter
//!   before each respawn (so a mass requeue never relaunches every shard
//!   in the same instant);
//! * **backpressure** — at most [`ShardOptions::max_inflight`] attempts
//!   run concurrently, never more than there are shards (the fairy-style
//!   RAM barrier: a 64-shard grid on an 8-core box keeps 8 workers alive,
//!   not 64), and the cores are divided between them so the machine is
//!   never oversubscribed;
//! * **chaos** — [`ShardOptions::chaos_workers`] randomly SIGKILLs or
//!   stalls attempts mid-shard (deterministically, from the grid hash) to
//!   prove the recovery path end-to-end.
//!
//! Every shard journals into its own `shard-NNNN/journal.jsonl` via the
//! §4d write-ahead [`Journal`]: the agent streams its journal lines back
//! and the coordinator appends them, so a re-attempt *resumes*: jobs the
//! dead attempt completed are replayed bit-identically, never rerun and
//! never double-counted. When all shards finish, the coordinator merges
//! the per-shard journals into one result vector in global job order —
//! byte-stable, because `done` outcomes are stored as IEEE-754 bit
//! patterns — and writes a merged top-level `journal.jsonl`, so the sweep
//! directory can later be resumed as an ordinary single-process journal.
//!
//! The fabric is transparent to callers: [`run_sharded`] returns exactly
//! the `Vec<Result<SimOutcome, JobPanic>>` that
//! [`crate::batch::run_supervised`] would, so a sharded sweep's CSV is
//! byte-identical (`cmp`-equal) to the single-process run's.

use crate::batch::{default_workers, JobPanic, JobSpec, SupervisorOptions};
use crate::fabric::{self, LaunchSpec, RemoteHandle};
use crate::journal::{self, grid_hash, Journal, JournalError};
use crate::SimOutcome;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::process::ExitStatus;
use std::time::{Duration, Instant};

/// The shard manifest's file name inside a fabric directory.
pub const MANIFEST_FILE: &str = "shards.json";
/// Manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// Environment variable selecting loopback-worker mode: set by the
/// coordinator, to the worker's scratch directory, when re-executing the
/// current binary.
pub const WORKER_ENV: &str = "WRSN_SHARD_WORKER";

/// Base delay before a shard respawn; doubles per consecutive retry.
const BACKOFF: Duration = Duration::from_millis(200);
/// Upper bound on the exponential respawn backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Supervision policy for the shard fabric.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Number of shard ranges the job list is split into (clamped to the
    /// job count; at least 1).
    pub shards: usize,
    /// Maximum concurrently running shard attempts, clamped to the shard
    /// count; `0` means one per core.
    pub max_inflight: usize,
    /// Extra attempts after a shard's first attempt fails (crash, hang,
    /// chaos).
    pub retries: u32,
    /// An attempt whose heartbeat has not advanced for this long is
    /// declared hung, killed, and its shard re-queued.
    pub lease_timeout: Duration,
    /// Probability that a launched attempt is chaos-faulted (SIGKILLed
    /// after a short delay, or stalled so its heartbeat stops). Applied
    /// only on a shard's first two attempts, so a bounded retry budget
    /// always converges. `0.0` disables chaos.
    pub chaos_workers: f64,
    /// `wrsn agent` addresses (`host:port`) to distribute shards over.
    /// Empty means every shard runs on a loopback worker, a re-exec of the
    /// current binary. An absent or refusing agent degrades the affected
    /// shard to a loopback worker with a warning; a link that dies
    /// mid-shard takes the ordinary requeue path.
    pub agents: Vec<String>,
    /// Probability that an agent assignment is network-chaos-faulted
    /// (torn frames, delays, one-way partitions, stalled or severed
    /// agents). Like `chaos_workers`, only a shard's first two attempts
    /// can be faulted. `0.0` disables it; ignored without `agents`.
    pub chaos_net: f64,
}

impl Default for ShardOptions {
    fn default() -> Self {
        Self {
            shards: 1,
            max_inflight: 0,
            retries: 3,
            lease_timeout: Duration::from_secs(30),
            chaos_workers: 0.0,
            agents: Vec::new(),
            chaos_net: 0.0,
        }
    }
}

/// Why a sharded sweep could not run or merge.
#[derive(Debug)]
pub enum ShardError {
    /// Filesystem error.
    Io(std::io::Error),
    /// A per-shard journal (or the manifest's drift checks) failed.
    Journal(JournalError),
    /// The manifest in the fabric directory belongs to a different sweep
    /// (grid hash, job count or shard count drifted since the original
    /// run).
    ManifestDrift {
        /// Which manifest field drifted.
        field: &'static str,
        /// Value for the sweep being resumed.
        expected: u64,
        /// Value recorded in the manifest.
        found: u64,
    },
    /// A worker process could not be spawned.
    Spawn(String),
    /// The fabric directory's contents are not a shard manifest.
    Corrupt(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard fabric I/O error: {e}"),
            ShardError::Journal(e) => write!(f, "shard journal error: {e}"),
            ShardError::ManifestDrift {
                field,
                expected,
                found,
            } => write!(
                f,
                "shard manifest belongs to a different sweep: {field} is {found} in the \
                 manifest, {expected} for the sweep being resumed — start a fresh fabric \
                 directory or rerun with the original grid and --shards value"
            ),
            ShardError::Spawn(why) => write!(f, "cannot spawn shard worker: {why}"),
            ShardError::Corrupt(why) => write!(f, "corrupt shard manifest: {why}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

impl From<JournalError> for ShardError {
    fn from(e: JournalError) -> Self {
        ShardError::Journal(e)
    }
}

/// Splits `n_jobs` into at most `shards` contiguous `[lo, hi)` ranges,
/// balanced to within one job, in index order. Fewer ranges come back when
/// there are fewer jobs than shards; zero jobs yield zero ranges.
pub fn shard_ranges(n_jobs: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, n_jobs.max(1));
    if n_jobs == 0 {
        return Vec::new();
    }
    let base = n_jobs / shards;
    let extra = n_jobs % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut lo = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push((lo, lo + len));
        lo += len;
    }
    debug_assert_eq!(lo, n_jobs);
    ranges
}

/// The subdirectory holding shard `index`'s journal.
pub fn shard_dir(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:04}"))
}

/// Renders a worker's exit status for diagnostics: a signal death (e.g.
/// `kill -9`) is reported distinctly from an ordinary exit code, so a
/// killed shard is distinguishable from a panicking sim in the final
/// report and in `failed_seeds` warnings.
pub fn describe_exit(status: &ExitStatus) -> String {
    if let Some(code) = status.code() {
        return format!("worker exited with code {code}");
    }
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt as _;
        if let Some(sig) = status.signal() {
            let name = match sig {
                6 => " (SIGABRT)",
                9 => " (SIGKILL)",
                11 => " (SIGSEGV)",
                15 => " (SIGTERM)",
                _ => "",
            };
            return format!("worker killed by signal {sig}{name}");
        }
    }
    "worker terminated without an exit code".to_string()
}

// --- Manifest -------------------------------------------------------------

fn write_manifest(dir: &Path, jobs: usize, shards: usize, hash: u64) -> std::io::Result<()> {
    // Same single-line writer-matched JSON dialect as the journal.
    std::fs::write(
        dir.join(MANIFEST_FILE),
        format!(
            "{{\"kind\":\"shard_manifest\",\"version\":{MANIFEST_VERSION},\"jobs\":{jobs},\
             \"shards\":{shards},\"grid_hash\":{hash}}}\n"
        ),
    )
}

fn read_manifest(dir: &Path) -> Result<(usize, usize, u64), ShardError> {
    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&path)?;
    let line = text.lines().next().unwrap_or("");
    if journal::field_str(line, "kind").as_deref() != Some("shard_manifest") {
        return Err(ShardError::Corrupt(format!(
            "{} is not a shard manifest",
            path.display()
        )));
    }
    match journal::field_u64(line, "version") {
        Some(v) if v == MANIFEST_VERSION as u64 => {}
        v => {
            return Err(ShardError::Corrupt(format!(
                "unsupported shard manifest version {v:?} (this build reads {MANIFEST_VERSION})"
            )))
        }
    }
    let jobs = journal::field_u64(line, "jobs")
        .ok_or_else(|| ShardError::Corrupt("manifest lacks a job count".into()))?;
    let shards = journal::field_u64(line, "shards")
        .ok_or_else(|| ShardError::Corrupt("manifest lacks a shard count".into()))?;
    let hash = journal::field_u64(line, "grid_hash")
        .ok_or_else(|| ShardError::Corrupt("manifest lacks a grid hash".into()))?;
    Ok((jobs as usize, shards as usize, hash))
}

fn validate_manifest(dir: &Path, jobs: usize, shards: usize, hash: u64) -> Result<(), ShardError> {
    let (found_jobs, found_shards, found_hash) = read_manifest(dir)?;
    if found_hash != hash {
        return Err(ShardError::ManifestDrift {
            field: "grid_hash",
            expected: hash,
            found: found_hash,
        });
    }
    if found_jobs != jobs {
        return Err(ShardError::ManifestDrift {
            field: "jobs",
            expected: jobs as u64,
            found: found_jobs as u64,
        });
    }
    if found_shards != shards {
        return Err(ShardError::ManifestDrift {
            field: "shards",
            expected: shards as u64,
            found: found_shards as u64,
        });
    }
    Ok(())
}

// --- Entry point ----------------------------------------------------------

/// Runs `jobs` under the sharded sweep fabric rooted at `dir`, returning
/// outcomes in global job order — the same contract as
/// [`crate::batch::run_supervised`], so callers' tables and CSVs are
/// byte-identical to a single-process run's.
///
/// In the **coordinator** process this splits the job list into
/// `opts.shards` ranges, writes the manifest, and supervises one agent
/// assignment per shard until every shard completes or exhausts its
/// retries; jobs of a permanently dead shard come back as [`JobPanic`]s
/// labeled with the final failure (a loopback worker's signal vs. exit
/// code). With `resume` the manifest is validated instead of rewritten and
/// existing per-shard journals are kept, so completed work is replayed
/// rather than rerun.
///
/// In a **loopback worker** (the current binary re-executed by the
/// coordinator with [`WORKER_ENV`] set) this serves exactly one
/// assignment — the job slice arrives over the wire, so `jobs`, `dir` and
/// `opts` are ignored, and of `sup` only the run store is used — then
/// **exits the process**: the caller's post-sweep code (tables, CSV
/// writing) never runs in a worker.
pub fn run_sharded(
    jobs: &[JobSpec],
    sup: &SupervisorOptions,
    dir: impl AsRef<Path>,
    opts: &ShardOptions,
    resume: bool,
) -> Result<Vec<Result<SimOutcome, JobPanic>>, ShardError> {
    if let Some(scratch) = std::env::var_os(WORKER_ENV) {
        fabric::serve_loopback(Path::new(&scratch), sup.store.clone());
    }
    coordinate(jobs, sup, dir.as_ref(), opts, resume)
}

// --- Coordinator ----------------------------------------------------------

/// What chaos injects into one shard attempt.
#[derive(Debug, Clone, Copy)]
enum Chaos {
    /// SIGKILL the worker (sever a remote agent's link) this long after
    /// launching it.
    Kill(Duration),
    /// Order the agent to stall (hang without heartbeating).
    Stall,
}

/// Deterministic chaos decision for one `(shard, attempt)`. Only the first
/// two attempts can be faulted, so `retries >= 2` always converges.
fn chaos_plan(opts: &ShardOptions, hash: u64, shard: usize, attempt: u32) -> Option<Chaos> {
    if opts.chaos_workers <= 0.0 || attempt >= 2 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(hash ^ ((shard as u64) << 20) ^ ((attempt as u64) << 52));
    if !rng.gen_bool(opts.chaos_workers.min(1.0)) {
        return None;
    }
    if rng.gen_bool(0.5) {
        Some(Chaos::Kill(Duration::from_millis(
            rng.gen_range(20u64..400),
        )))
    } else {
        Some(Chaos::Stall)
    }
}

/// One queued (re)spawn.
struct Pending {
    shard: usize,
    attempt: u32,
    ready: Instant,
}

/// One live shard attempt under supervision.
struct Slot {
    shard: usize,
    attempt: u32,
    handle: RemoteHandle,
    /// Last observed heartbeat counter and when it last advanced.
    heartbeat: u64,
    beat_at: Instant,
    /// Pending chaos kill time, if any.
    kill_at: Option<Instant>,
    /// Set when the coordinator killed the worker itself; overrides the
    /// raw exit status in the failure report.
    kill_reason: Option<String>,
}

/// Backoff before a shard's `attempt`-th respawn: capped exponential plus
/// a deterministic seeded jitter in `[0, base/2)`, so a mass requeue —
/// every shard dying at once when a partition heals — spreads its
/// relaunches instead of thundering back in the same instant.
fn backoff_for(shard: usize, attempt: u32) -> Duration {
    let base = (BACKOFF * (1u32 << attempt.min(16))).min(BACKOFF_CAP);
    let mut rng =
        StdRng::seed_from_u64(0x9e37_79b9_7f4a_7c15 ^ ((shard as u64) << 32) ^ attempt as u64);
    base + base.mul_f64(0.5 * rng.gen_range(0.0..1.0))
}

/// Records one failed attempt: re-queue with backoff while the retry
/// budget lasts, otherwise declare the shard dead.
fn attempt_failed(
    opts: &ShardOptions,
    queue: &mut VecDeque<Pending>,
    dead: &mut Vec<(usize, String)>,
    shard: usize,
    attempt: u32,
    reason: String,
) {
    if attempt < opts.retries {
        let delay = backoff_for(shard, attempt);
        eprintln!(
            "warning: shard {shard} attempt {} failed ({reason}); respawning in {:.1} s",
            attempt + 1,
            delay.as_secs_f64()
        );
        queue.push_back(Pending {
            shard,
            attempt: attempt + 1,
            ready: Instant::now() + delay,
        });
    } else {
        let message = format!("{reason} ({} attempts)", attempt + 1);
        eprintln!("warning: shard {shard} given up: {message}");
        dead.push((shard, message));
    }
}

/// The coordinator's backpressure on a `cores`-core machine: how many
/// shard attempts run at once — `max_inflight` (`0`: one per core), never
/// more than there are shards — and how many threads each one gets.
fn worker_budget(max_inflight: usize, shards: usize, cores: usize) -> (usize, usize) {
    let inflight = match max_inflight {
        0 => cores,
        n => n,
    }
    .clamp(1, shards);
    (inflight, (cores / inflight).max(1))
}

fn coordinate(
    jobs: &[JobSpec],
    sup: &SupervisorOptions,
    dir: &Path,
    opts: &ShardOptions,
    resume: bool,
) -> Result<Vec<Result<SimOutcome, JobPanic>>, ShardError> {
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    let hash = grid_hash(jobs);
    let ranges = shard_ranges(jobs.len(), opts.shards);
    let shards = ranges.len();
    std::fs::create_dir_all(dir)?;
    if resume {
        validate_manifest(dir, jobs.len(), shards, hash)?;
    } else {
        // Fresh sweep: drop any previous run's shard state so workers
        // start clean journals instead of resuming stale ones.
        for index in 0..shards {
            let _ = std::fs::remove_dir_all(shard_dir(dir, index));
        }
        write_manifest(dir, jobs.len(), shards, hash)?;
    }

    // As many workers as jobs: the machine's whole parallelism.
    let cores = default_workers(usize::MAX).get();
    let (inflight, threads_per_worker) = worker_budget(opts.max_inflight, shards, cores);

    let mut queue: VecDeque<Pending> = (0..shards)
        .map(|shard| Pending {
            shard,
            attempt: 0,
            ready: Instant::now(),
        })
        .collect();
    let mut running: Vec<Slot> = Vec::new();
    let mut dead: Vec<(usize, String)> = Vec::new();
    let mut completed = 0usize;

    loop {
        if queue.is_empty() && running.is_empty() {
            break;
        }
        // Spawn while the backpressure bound allows and a shard is ready.
        while running.len() < inflight {
            let now = Instant::now();
            let Some(pos) = queue.iter().position(|p| p.ready <= now) else {
                break;
            };
            let p = queue.remove(pos).expect("position came from this queue");
            let chaos = chaos_plan(opts, hash, p.shard, p.attempt);
            if let Some(c) = chaos {
                eprintln!(
                    "chaos: shard {} attempt {} will be {}",
                    p.shard,
                    p.attempt + 1,
                    match c {
                        Chaos::Kill(d) => format!("SIGKILLed after {} ms", d.as_millis()),
                        Chaos::Stall => "stalled (heartbeats withheld)".to_string(),
                    }
                );
            }
            let (lo, hi) = ranges[p.shard];
            let spec = LaunchSpec {
                dir,
                shard: p.shard,
                attempt: p.attempt,
                threads: threads_per_worker,
                stall: matches!(chaos, Some(Chaos::Stall)),
                jobs: &jobs[lo..hi],
                sup,
            };
            // Every attempt is a TCP assignment (DESIGN.md §4i), and every
            // failure mode funnels into the poll/heartbeat surface below.
            match fabric::launch(&spec, opts, hash) {
                Ok(handle) => {
                    let now = Instant::now();
                    running.push(Slot {
                        shard: p.shard,
                        attempt: p.attempt,
                        handle,
                        heartbeat: 0,
                        beat_at: now,
                        kill_at: match chaos {
                            Some(Chaos::Kill(delay)) => Some(now + delay),
                            _ => None,
                        },
                        kill_reason: None,
                    });
                }
                Err(e) => {
                    // Reap every live worker before surfacing the error —
                    // a failed coordinator must not leak processes; the
                    // handles' Drop impls kill and join their workers.
                    drop(running);
                    return Err(e);
                }
            }
        }
        // Poll the running workers.
        let mut i = 0;
        while i < running.len() {
            let now = Instant::now();
            let slot = &mut running[i];
            match slot.handle.poll() {
                Some(verdict) => {
                    let mut slot = running.swap_remove(i);
                    if verdict.is_ok() && slot.kill_reason.is_none() {
                        completed += 1;
                        eprintln!("shard {} complete ({completed}/{shards})", slot.shard);
                    } else {
                        // A coordinator-initiated kill explains the death
                        // better than the raw exit/link status it caused.
                        let mut reason = slot.kill_reason.take().unwrap_or_else(|| {
                            verdict.err().unwrap_or_else(|| {
                                "worker finished after the coordinator killed it".into()
                            })
                        });
                        let tail = slot.handle.stderr_tail();
                        if !tail.is_empty() {
                            reason.push_str("; last stderr: ");
                            reason.push_str(&tail);
                        }
                        attempt_failed(
                            opts,
                            &mut queue,
                            &mut dead,
                            slot.shard,
                            slot.attempt,
                            reason,
                        );
                    }
                    continue;
                }
                None => {
                    // Chaos kill due?
                    if let Some(t) = slot.kill_at {
                        if now >= t {
                            slot.kill_reason = Some("chaos-injected SIGKILL mid-shard".to_string());
                            slot.handle.kill();
                            slot.kill_at = None;
                        }
                    }
                    // Heartbeat staleness: an agent that stopped
                    // heartbeating (hung, SIGSTOPped, livelocked, or behind
                    // a network partition) is reaped.
                    if slot.kill_reason.is_none() {
                        let heartbeat = slot.handle.heartbeat();
                        if heartbeat != slot.heartbeat {
                            slot.heartbeat = heartbeat;
                            slot.beat_at = now;
                        } else if now.duration_since(slot.beat_at) > opts.lease_timeout {
                            slot.kill_reason = Some(format!(
                                "hung: no heartbeat for {:.1} s",
                                now.duration_since(slot.beat_at).as_secs_f64()
                            ));
                            slot.handle.kill();
                        }
                    }
                    i += 1;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(15));
    }

    let merged = merge_shards(jobs, dir, &ranges, &dead)?;
    write_merged_journal(dir, jobs, &merged)?;
    Ok(merged)
}

// --- Merge ----------------------------------------------------------------

/// Merges the per-shard journals under `dir` into one result vector in
/// global job order. A job's first `done` outcome wins (restored from bit
/// patterns — byte-stable); a job with only a `give_up` record reproduces
/// the worker's [`JobPanic`]; a job left incomplete by a permanently dead
/// shard is reported with that shard's final failure (worker exit status
/// included). Conflicting duplicate `done` records are refused via
/// [`JournalError::ConflictingDone`].
pub(crate) fn merge_shards(
    jobs: &[JobSpec],
    dir: &Path,
    ranges: &[(usize, usize)],
    dead: &[(usize, String)],
) -> Result<Vec<Result<SimOutcome, JobPanic>>, ShardError> {
    let mut out: Vec<Option<Result<SimOutcome, JobPanic>>> =
        (0..jobs.len()).map(|_| None).collect();
    for (index, &(lo, hi)) in ranges.iter().enumerate() {
        let slice = &jobs[lo..hi];
        let path = shard_dir(dir, index).join(journal::JOURNAL_FILE);
        let replay = match std::fs::read_to_string(&path) {
            Ok(text) => {
                let replay = journal::replay_text(&text)?;
                if replay.jobs != slice.len() || replay.grid_hash != grid_hash(slice) {
                    return Err(ShardError::Corrupt(format!(
                        "{} does not journal shard {index}'s job range",
                        path.display()
                    )));
                }
                replay
            }
            // A dead shard may never have produced a journal at all.
            Err(_) => journal::Replay::default(),
        };
        let dead_message = dead
            .iter()
            .find(|(shard, _)| *shard == index)
            .map(|(_, message)| message.as_str());
        for (local, spec) in slice.iter().enumerate() {
            let global = lo + local;
            let entry = if let Some(outcome) = replay.done.get(&local) {
                Ok(outcome.clone())
            } else {
                let message = replay
                    .gave_up
                    .get(&local)
                    .cloned()
                    .or_else(|| dead_message.map(|m| format!("shard {index} died: {m}")))
                    .unwrap_or_else(|| format!("shard {index} ended without a verdict"));
                Err(JobPanic {
                    index: global,
                    label: spec.label.clone(),
                    message,
                })
            };
            out[global] = Some(entry);
        }
    }
    Ok(out
        .into_iter()
        .map(|slot| slot.expect("every job belongs to exactly one shard range"))
        .collect())
}

/// Writes the merged top-level journal: `done` records for completed jobs
/// and `give_up` records for failed ones, in job order. The fabric
/// directory then doubles as an ordinary §4d journal directory, so it can
/// be resumed by a single-process sweep.
fn write_merged_journal(
    dir: &Path,
    jobs: &[JobSpec],
    merged: &[Result<SimOutcome, JobPanic>],
) -> Result<(), ShardError> {
    let journal = Journal::create(dir, jobs)?;
    for (index, result) in merged.iter().enumerate() {
        match result {
            Ok(outcome) => journal.record_done(index, outcome),
            Err(panic) => journal.record_give_up(index, &panic.message),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::run_supervised;
    use crate::SimConfig;
    use std::process::Command;

    fn tiny_cfg() -> SimConfig {
        let mut cfg = SimConfig::small(0.1);
        cfg.num_sensors = 40;
        cfg.num_targets = 2;
        cfg.num_rvs = 1;
        cfg.field_side = 50.0;
        cfg
    }

    fn specs(cfg: &SimConfig, n: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|s| JobSpec::new(format!("point/seed={s}"), cfg, s))
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wrsn-shard-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn shard_ranges_cover_contiguously_and_balance_within_one() {
        for (jobs, shards) in [(10, 3), (7, 7), (5, 9), (1, 1), (100, 16)] {
            let ranges = shard_ranges(jobs, shards);
            assert!(ranges.len() <= shards);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, jobs);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
            let sizes: Vec<usize> = ranges.iter().map(|(lo, hi)| hi - lo).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced within one: {sizes:?}");
            assert!(*min >= 1, "no empty shard: {sizes:?}");
        }
        assert!(shard_ranges(0, 4).is_empty());
    }

    #[test]
    fn manifest_round_trips_and_detects_drift() {
        let dir = tmp_dir("manifest");
        write_manifest(&dir, 12, 3, 0xfeed).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), (12, 3, 0xfeed));
        assert!(validate_manifest(&dir, 12, 3, 0xfeed).is_ok());
        let err = validate_manifest(&dir, 12, 4, 0xfeed).unwrap_err();
        assert!(
            matches!(
                err,
                ShardError::ManifestDrift {
                    field: "shards",
                    ..
                }
            ),
            "{err}"
        );
        let err = validate_manifest(&dir, 12, 3, 0xbeef).unwrap_err();
        assert!(matches!(
            err,
            ShardError::ManifestDrift {
                field: "grid_hash",
                ..
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_plan_is_deterministic_and_stops_after_two_attempts() {
        let opts = ShardOptions {
            chaos_workers: 1.0,
            ..ShardOptions::default()
        };
        for shard in 0..8 {
            let a = chaos_plan(&opts, 0xabc, shard, 0);
            let b = chaos_plan(&opts, 0xabc, shard, 0);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "deterministic");
            assert!(a.is_some(), "p=1.0 always faults the first attempt");
            assert!(chaos_plan(&opts, 0xabc, shard, 2).is_none(), "bounded");
        }
        let off = ShardOptions::default();
        assert!(chaos_plan(&off, 0xabc, 0, 0).is_none());
    }

    #[test]
    fn backoff_jitter_is_deterministic_bounded_and_spread() {
        let mut distinct = std::collections::HashSet::new();
        for shard in 0..8usize {
            for attempt in 0..6u32 {
                let d = backoff_for(shard, attempt);
                assert_eq!(d, backoff_for(shard, attempt), "deterministic");
                let base = (BACKOFF * (1u32 << attempt.min(16))).min(BACKOFF_CAP);
                assert!(d >= base, "jitter only adds delay: {d:?} < {base:?}");
                assert!(
                    d <= base + base.mul_f64(0.5),
                    "jitter bounded by base/2: {d:?}"
                );
            }
            distinct.insert(backoff_for(shard, 1));
        }
        // Anti-thundering-herd: eight shards requeued together must not
        // share a relaunch instant.
        assert!(distinct.len() >= 6, "spread too narrow: {distinct:?}");
        // Pin the schedule: the jitter is part of the deterministic-resume
        // contract, so a drift in the RNG or the seeding formula must fail
        // loudly, not silently reshuffle relaunch timing.
        for (shard, attempt, nanos) in [
            (0usize, 0u32, 234_744_736u64),
            (0, 1, 541_191_719),
            (1, 1, 572_725_647),
            (7, 3, 1_643_718_577),
        ] {
            assert_eq!(
                backoff_for(shard, attempt),
                Duration::from_nanos(nanos),
                "pinned jitter drifted for shard {shard} attempt {attempt}"
            );
        }
    }

    #[test]
    fn worker_budget_clamps_inflight_to_shards_and_divides_the_cores() {
        // More inflight than shards would idle cores: `--shards 2
        // --shard-inflight 8` on 8 cores runs 2 workers of 4 threads.
        assert_eq!(worker_budget(8, 2, 8), (2, 4));
        // The default is one worker per core, at most one per shard.
        assert_eq!(worker_budget(0, 2, 8), (2, 4));
        assert_eq!(worker_budget(0, 64, 8), (8, 1));
        // An explicit bound below the shard count is kept, and a worker
        // always gets at least one thread.
        assert_eq!(worker_budget(1, 6, 2), (1, 2));
        assert_eq!(worker_budget(3, 6, 2), (3, 1));
        assert_eq!(worker_budget(5, 1, 1), (1, 1));
    }

    #[test]
    fn describe_exit_distinguishes_signals_from_exit_codes() {
        let code = Command::new("sh").args(["-c", "exit 7"]).status().unwrap();
        assert_eq!(describe_exit(&code), "worker exited with code 7");
        let killed = Command::new("sh")
            .args(["-c", "kill -9 $$"])
            .status()
            .unwrap();
        assert_eq!(
            describe_exit(&killed),
            "worker killed by signal 9 (SIGKILL)"
        );
    }

    /// Builds a two-shard fabric directory by running the shards in-process
    /// through the ordinary supervised runner — the ground truth the merge
    /// must reproduce.
    fn build_shard_dirs(dir: &Path, jobs: &[JobSpec], ranges: &[(usize, usize)]) {
        for (index, &(lo, hi)) in ranges.iter().enumerate() {
            let slice = &jobs[lo..hi];
            let my_dir = shard_dir(dir, index);
            let journal = Journal::create(&my_dir, slice).unwrap();
            let _ = run_supervised(slice, &SupervisorOptions::default(), Some(&journal));
        }
    }

    #[test]
    fn merge_reassembles_global_job_order_bit_identically() {
        let dir = tmp_dir("merge");
        let cfg = tiny_cfg();
        let jobs = specs(&cfg, 5);
        let ranges = shard_ranges(jobs.len(), 2);
        build_shard_dirs(&dir, &jobs, &ranges);
        let merged = merge_shards(&jobs, &dir, &ranges, &[]).unwrap();
        let reference = run_supervised(&jobs, &SupervisorOptions::default(), None);
        assert_eq!(merged.len(), reference.len());
        for (m, r) in merged.iter().zip(&reference) {
            let (m, r) = (m.as_ref().unwrap(), r.as_ref().unwrap());
            assert_eq!(m.report, r.report);
            assert_eq!(m.total_drained_j.to_bits(), r.total_drained_j.to_bits());
            assert_eq!(
                m.rv_charging_utilization.to_bits(),
                r.rv_charging_utilization.to_bits()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_reports_dead_shards_with_their_exit_status() {
        let dir = tmp_dir("merge-dead");
        let cfg = tiny_cfg();
        let jobs = specs(&cfg, 4);
        let ranges = shard_ranges(jobs.len(), 2);
        // Only shard 0 ever ran; shard 1's worker was kill -9'd before it
        // journaled anything and exhausted its retries.
        build_shard_dirs(&dir, &jobs, &ranges[..1]);
        let dead = vec![(
            1usize,
            "worker killed by signal 9 (SIGKILL) (4 attempts)".to_string(),
        )];
        let merged = merge_shards(&jobs, &dir, &ranges, &dead).unwrap();
        assert!(merged[0].is_ok() && merged[1].is_ok());
        for global in ranges[1].0..ranges[1].1 {
            let err = merged[global].as_ref().unwrap_err();
            assert_eq!(err.index, global);
            assert_eq!(err.label, jobs[global].label);
            assert!(err.message.contains("signal 9"), "{}", err.message);
            assert!(err.message.contains("shard 1 died"), "{}", err.message);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_tolerates_torn_shard_journals_at_every_truncation_point() {
        // The satellite's torn-line/truncation fuzz: chop a shard journal
        // at every byte offset inside its record region; the merge must
        // never panic, every surviving `done` outcome must bit-match the
        // pristine journal's, and lost records must degrade to re-queued
        // (here: "ended without a verdict") jobs, never to wrong data.
        let dir = tmp_dir("merge-torn");
        let cfg = tiny_cfg();
        let jobs = specs(&cfg, 3);
        let ranges = shard_ranges(jobs.len(), 1);
        build_shard_dirs(&dir, &jobs, &ranges);
        let path = shard_dir(&dir, 0).join(journal::JOURNAL_FILE);
        let pristine = std::fs::read(&path).unwrap();
        let full = merge_shards(&jobs, &dir, &ranges, &[]).unwrap();
        let meta_end = pristine
            .iter()
            .position(|&b| b == b'\n')
            .expect("meta line")
            + 1;
        for cut in meta_end..pristine.len() {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let merged = merge_shards(&jobs, &dir, &ranges, &[])
                .unwrap_or_else(|e| panic!("cut at {cut}: merge errored: {e}"));
            for (m, f) in merged.iter().zip(&full) {
                if let Ok(m) = m {
                    let f = f.as_ref().unwrap();
                    assert_eq!(m.report, f.report, "cut at {cut}");
                    assert_eq!(m.total_drained_j.to_bits(), f.total_drained_j.to_bits());
                }
            }
        }
        // Chopping into the meta line itself is a hard error, not a panic.
        std::fs::write(&path, &pristine[..meta_end / 2]).unwrap();
        assert!(merge_shards(&jobs, &dir, &ranges, &[]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merged_journal_resumes_as_a_single_process_sweep() {
        let dir = tmp_dir("merged-journal");
        let cfg = tiny_cfg();
        let jobs = specs(&cfg, 4);
        let ranges = shard_ranges(jobs.len(), 2);
        build_shard_dirs(&dir, &jobs, &ranges);
        let merged = merge_shards(&jobs, &dir, &ranges, &[]).unwrap();
        write_merged_journal(&dir, &jobs, &merged).unwrap();
        // The fabric directory now carries an ordinary top-level journal:
        // a plain single-process resume replays every outcome.
        let journal = Journal::resume(&dir, &jobs).expect("resume merged journal");
        assert_eq!(journal.completed_count(), 4);
        let replayed = run_supervised(&jobs, &SupervisorOptions::default(), Some(&journal));
        for (a, b) in merged.iter().zip(&replayed) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.report, b.report);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
