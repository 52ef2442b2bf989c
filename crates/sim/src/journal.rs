//! Write-ahead run journal for supervised sweeps.
//!
//! A journaled sweep appends one JSON record per job-state transition to
//! `journal.jsonl` in the sweep's output directory, flushing after every
//! line — write-ahead semantics, so a `kill -9` at any point loses at most
//! the jobs that were in flight, never a completed result. The job-state
//! machine the records trace (see DESIGN.md):
//!
//! ```text
//! pending → running ─┬→ done
//!                    ├→ failed ────┐
//!                    └→ timed-out ─┴→ retried (back to running) → give-up
//! ```
//!
//! On resume ([`Journal::resume`]) the journal is replayed: jobs whose
//! last transition is `done` are **skipped** (their outcomes are restored
//! bit-identically — every `f64` is stored as its IEEE-754 bit pattern),
//! and everything else — in-flight `start`s without a `done`, `give_up`s,
//! a torn trailing line from the crash — is re-queued. The `meta` header
//! pins the job count and a content hash over every job's
//! `(label, seed, SimConfig::content_hash)`; resuming against a drifted
//! grid or config is refused with [`JournalError::ConfigDrift`].
//!
//! The records are flat single-line JSON with only string and unsigned
//! integer values (u64 bit patterns for floats), written and parsed by
//! this module alone — no serde, std only.

use crate::batch::JobSpec;
use crate::SimOutcome;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use wrsn_metrics::EvalReport;

/// The journal's file name inside a sweep directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";
/// Journal format version (the `meta` record's `version` field).
pub const JOURNAL_VERSION: u32 = 1;

/// Why a journal could not be opened for resume.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The journal belongs to a different sweep: its grid hash (over every
    /// job's label, seed and config content hash) does not match the jobs
    /// being resumed — the config drifted since the original run.
    ConfigDrift {
        /// Hash of the jobs being resumed.
        expected: u64,
        /// Hash recorded in the journal's meta header.
        found: u64,
    },
    /// The journal's meta header records a different number of jobs.
    JobCountMismatch {
        /// Jobs being resumed.
        expected: usize,
        /// Jobs recorded in the journal.
        found: usize,
    },
    /// The journal records two `done` outcomes for the same job index with
    /// *different* bit patterns. Duplicate records with identical outcomes
    /// are legal (a shard retried after a crash can legitimately re-derive
    /// the same deterministic result) and resolve first-writer-wins;
    /// conflicting outcomes mean the journal mixes two different sweeps
    /// and must not be merged.
    ConflictingDone {
        /// The job index with conflicting outcomes.
        job: usize,
    },
    /// The journal has no parseable meta header.
    Corrupt(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::ConfigDrift { expected, found } => write!(
                f,
                "journal belongs to a different sweep: grid hash {found:#018x} in the journal, \
                 {expected:#018x} for the jobs being resumed — the config or grid drifted; \
                 start a fresh sweep directory instead of --resume"
            ),
            JournalError::JobCountMismatch { expected, found } => write!(
                f,
                "journal records {found} jobs but the sweep being resumed has {expected}"
            ),
            JournalError::ConflictingDone { job } => write!(
                f,
                "journal records two conflicting `done` outcomes for job {job}; duplicate \
                 records are only legal when bit-identical (first-writer-wins) — this journal \
                 mixes results from different sweeps and cannot be trusted"
            ),
            JournalError::Corrupt(why) => write!(f, "corrupt journal: {why}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Stable hash of a whole job list: FNV-1a 64 over every job's label,
/// seed and [`crate::SimConfig::content_hash`]. Pinning the *list* (order
/// included) means a resumed sweep indexes jobs identically to the
/// original.
pub fn grid_hash(jobs: &[JobSpec]) -> u64 {
    let mut bytes = Vec::new();
    for job in jobs {
        bytes.extend_from_slice(job.label.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&job.seed.to_le_bytes());
        bytes.extend_from_slice(&job.config.content_hash().to_le_bytes());
    }
    crate::codec::fnv1a(&bytes)
}

/// An append-only, crash-safe run journal. Shared by reference across the
/// sweep's worker threads (writes serialize on an internal mutex).
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
    completed: HashMap<usize, SimOutcome>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("completed", &self.completed.len())
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Starts a fresh journal for `jobs` in `dir` (created if missing),
    /// truncating any previous `journal.jsonl` there.
    pub fn create(dir: impl AsRef<Path>, jobs: &[JobSpec]) -> Result<Self, JournalError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let file = File::create(&path)?;
        let journal = Self {
            path,
            file: Mutex::new(file),
            completed: HashMap::new(),
        };
        journal.append(&format!(
            r#"{{"kind":"meta","version":{JOURNAL_VERSION},"jobs":{},"grid_hash":{}}}"#,
            jobs.len(),
            grid_hash(jobs)
        ));
        Ok(journal)
    }

    /// Reopens the journal in `dir` and replays it against `jobs`:
    /// validates the meta header (job count + grid hash — a drifted config
    /// is refused), restores every `done` outcome bit-identically, and
    /// re-queues everything else. Unparseable lines (e.g. a torn trailing
    /// line from a crash) are skipped — their jobs simply rerun. Duplicate
    /// `done` records for the same job (possible after a retried shard)
    /// resolve first-writer-wins when bit-identical and are refused with
    /// [`JournalError::ConflictingDone`] otherwise.
    pub fn resume(dir: impl AsRef<Path>, jobs: &[JobSpec]) -> Result<Self, JournalError> {
        let path = dir.as_ref().join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path)?;
        let replay = replay_text(&text)?;
        if replay.jobs != jobs.len() {
            return Err(JournalError::JobCountMismatch {
                expected: jobs.len(),
                found: replay.jobs,
            });
        }
        let expected = grid_hash(jobs);
        if replay.grid_hash != expected {
            return Err(JournalError::ConfigDrift {
                expected,
                found: replay.grid_hash,
            });
        }
        let completed = replay
            .done
            .into_iter()
            .filter(|(job, _)| *job < jobs.len())
            .collect();

        let file = OpenOptions::new().append(true).open(&path)?;
        let journal = Self {
            path,
            file: Mutex::new(file),
            completed,
        };
        journal.append(&format!(
            r#"{{"kind":"resumed","completed":{}}}"#,
            journal.completed.len()
        ));
        Ok(journal)
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The outcome recorded for job `index`, when its last transition was
    /// `done`. Restored from stored bit patterns, so it is bit-identical
    /// to the outcome the original process computed.
    pub fn completed(&self, index: usize) -> Option<&SimOutcome> {
        self.completed.get(&index)
    }

    /// Number of jobs the replayed journal holds as completed.
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// Appends one line and flushes it to the OS — the write-ahead
    /// guarantee. A poisoned/failed write panics: losing journal integrity
    /// silently would defeat the journal's purpose.
    fn append(&self, line: &str) {
        let mut f = self.file.lock().expect("journal writers do not panic");
        writeln!(f, "{line}").expect("journal append failed");
        f.flush().expect("journal flush failed");
    }

    /// Write-ahead record: job `index` starts attempt `attempt`.
    pub(crate) fn record_start(&self, index: usize, spec: &JobSpec, attempt: u32) {
        self.append(&format!(
            r#"{{"kind":"start","job":{index},"label":"{}","seed":{},"config_hash":{},"attempt":{attempt}}}"#,
            json_escape(&spec.label),
            spec.seed,
            spec.config.content_hash()
        ));
    }

    /// Job `index` completed with `outcome`.
    pub(crate) fn record_done(&self, index: usize, outcome: &SimOutcome) {
        self.append(&format!(
            r#"{{"kind":"done","job":{index},{}}}"#,
            encode_outcome(outcome)
        ));
    }

    /// Attempt `attempt` of job `index` exceeded its wall-clock budget.
    pub(crate) fn record_timeout(&self, index: usize, attempt: u32, budget_s: f64) {
        self.append(&format!(
            r#"{{"kind":"timeout","job":{index},"attempt":{attempt},"budget_s_bits":{}}}"#,
            budget_s.to_bits()
        ));
    }

    /// Attempt `attempt` of job `index` panicked.
    pub(crate) fn record_panic(&self, index: usize, attempt: u32, message: &str) {
        self.append(&format!(
            r#"{{"kind":"panic","job":{index},"attempt":{attempt},"message":"{}"}}"#,
            json_escape(message)
        ));
    }

    /// Job `index` exhausted its attempts and was given up on.
    pub(crate) fn record_give_up(&self, index: usize, message: &str) {
        self.append(&format!(
            r#"{{"kind":"give_up","job":{index},"message":"{}"}}"#,
            json_escape(message)
        ));
    }
}

// --- Replay (shared by resume and the shard-fabric merge) -----------------

/// A journal file's replayed terminal state: the meta header plus every
/// job's last `done` outcome and `give_up` message. Used by
/// [`Journal::resume`] and by the shard fabric's merge
/// ([`crate::shard::run_sharded`]), which must reconstruct both completed
/// outcomes *and* given-up failures from per-shard journals.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    /// Job count from the meta header.
    pub(crate) jobs: usize,
    /// Grid hash from the meta header.
    pub(crate) grid_hash: u64,
    /// First `done` outcome per job index (duplicates must be
    /// bit-identical).
    pub(crate) done: HashMap<usize, SimOutcome>,
    /// Last `give_up` message per job index. Only meaningful for jobs with
    /// no `done` record — a later retry may have succeeded.
    pub(crate) gave_up: HashMap<usize, String>,
}

/// Replays one journal file's text. Validates the meta header (presence
/// and version — *not* the job list, which the caller checks against its
/// own expectations), tolerates torn/corrupt non-meta lines by skipping
/// them, applies first-writer-wins to duplicate `done` records, and
/// refuses conflicting duplicates with [`JournalError::ConflictingDone`].
pub(crate) fn replay_text(text: &str) -> Result<Replay, JournalError> {
    let mut lines = text.lines();
    let meta = lines
        .next()
        .ok_or_else(|| JournalError::Corrupt("empty journal".into()))?;
    if field_str(meta, "kind").as_deref() != Some("meta") {
        return Err(JournalError::Corrupt(
            "first line is not a meta record".into(),
        ));
    }
    match field_u64(meta, "version") {
        Some(v) if v == JOURNAL_VERSION as u64 => {}
        v => {
            return Err(JournalError::Corrupt(format!(
                "unsupported journal version {v:?} (this build reads {JOURNAL_VERSION})"
            )))
        }
    }
    let mut replay = Replay {
        jobs: field_u64(meta, "jobs")
            .ok_or_else(|| JournalError::Corrupt("meta record lacks a job count".into()))?
            as usize,
        grid_hash: field_u64(meta, "grid_hash")
            .ok_or_else(|| JournalError::Corrupt("meta record lacks a grid hash".into()))?,
        ..Replay::default()
    };
    for line in lines {
        match field_str(line, "kind").as_deref() {
            Some("done") => {
                let (Some(job), Some(outcome)) = (
                    field_u64(line, "job").map(|j| j as usize),
                    decode_outcome(line),
                ) else {
                    // Torn or corrupt record: treat the job as in-flight.
                    continue;
                };
                match replay.done.entry(job) {
                    std::collections::hash_map::Entry::Occupied(first) => {
                        // First-writer-wins, but only for bit-identical
                        // outcomes — anything else is corruption.
                        if encode_outcome(first.get()) != encode_outcome(&outcome) {
                            return Err(JournalError::ConflictingDone { job });
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(outcome);
                    }
                }
            }
            Some("give_up") => {
                let (Some(job), Some(message)) = (
                    field_u64(line, "job").map(|j| j as usize),
                    field_str(line, "message"),
                ) else {
                    continue;
                };
                replay.gave_up.insert(job, message);
            }
            _ => continue,
        }
    }
    Ok(replay)
}

// --- Outcome codec (f64s as u64 bit patterns) ----------------------------

/// The outcome's f64 fields in journal order.
fn outcome_f64s(o: &SimOutcome) -> [f64; 12] {
    [
        o.report.travel_distance_m,
        o.report.travel_energy_mj,
        o.report.recharged_mj,
        o.report.objective_mj,
        o.report.coverage_ratio_pct,
        o.report.missing_rate_pct,
        o.report.nonfunctional_pct,
        o.report.recharging_cost_m_per_sensor,
        o.total_drained_j,
        o.total_delivered_j,
        o.rv_energy_shortfall_j,
        o.rv_charging_utilization,
    ]
}

/// The outcome's unsigned fields in journal order.
fn outcome_u64s(o: &SimOutcome) -> [u64; 8] {
    [
        o.report.recharge_visits,
        o.deaths,
        o.plans,
        o.final_alive as u64,
        o.permanent_failures,
        o.rv_breakdowns,
        o.transient_faults,
        o.uplink_drops,
    ]
}

fn encode_outcome(o: &SimOutcome) -> String {
    let f: Vec<String> = outcome_f64s(o)
        .iter()
        .map(|v| v.to_bits().to_string())
        .collect();
    let u: Vec<String> = outcome_u64s(o).iter().map(|v| v.to_string()).collect();
    format!(r#""f":[{}],"u":[{}]"#, f.join(","), u.join(","))
}

fn decode_outcome(line: &str) -> Option<SimOutcome> {
    let f = field_u64_array(line, "f")?;
    let u = field_u64_array(line, "u")?;
    if f.len() != 12 || u.len() != 8 {
        return None;
    }
    let f: Vec<f64> = f.into_iter().map(f64::from_bits).collect();
    Some(SimOutcome {
        report: EvalReport {
            travel_distance_m: f[0],
            travel_energy_mj: f[1],
            recharged_mj: f[2],
            objective_mj: f[3],
            coverage_ratio_pct: f[4],
            missing_rate_pct: f[5],
            nonfunctional_pct: f[6],
            recharging_cost_m_per_sensor: f[7],
            recharge_visits: u[0],
        },
        total_drained_j: f[8],
        total_delivered_j: f[9],
        deaths: u[1],
        plans: u[2],
        rv_energy_shortfall_j: f[10],
        final_alive: u[3] as usize,
        permanent_failures: u[4],
        rv_charging_utilization: f[11],
        rv_breakdowns: u[5],
        transient_faults: u[6],
        uplink_drops: u[7],
    })
}

// --- Minimal JSON helpers (writer-matched, std only) ----------------------

/// Escapes a string for embedding in the journal's JSON lines.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Extracts an unsigned integer field from one of our own JSON lines.
pub(crate) fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = after_key(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts a string field (unescaping the writer's escapes).
pub(crate) fn field_str(line: &str, key: &str) -> Option<String> {
    let rest = after_key(line, key)?;
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None // unterminated string: torn line
}

/// Extracts an array of unsigned integers.
fn field_u64_array(line: &str, key: &str) -> Option<Vec<u64>> {
    let rest = after_key(line, key)?;
    let rest = rest.strip_prefix('[')?;
    let end = rest.find(']')?;
    let body = &rest[..end];
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|v| v.trim().parse().ok()).collect()
}

/// Positions just after `"key":` in `line`.
fn after_key<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)?;
    Some(&line[i + pat.len()..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{run_supervised, SupervisorOptions};
    use crate::SimConfig;

    fn tiny_cfg() -> SimConfig {
        let mut cfg = SimConfig::small(0.1);
        cfg.num_sensors = 40;
        cfg.num_targets = 2;
        cfg.num_rvs = 1;
        cfg.field_side = 50.0;
        cfg
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wrsn-journal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn specs(cfg: &SimConfig, n: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|s| JobSpec::new(format!("point/seed={s}"), cfg, s))
            .collect()
    }

    #[test]
    fn journal_replays_completed_jobs_bit_identically() {
        let dir = tmp_dir("replay");
        let cfg = tiny_cfg();
        let jobs = specs(&cfg, 3);
        let opts = SupervisorOptions::default();

        let journal = Journal::create(&dir, &jobs).expect("create");
        let first = run_supervised(&jobs, &opts, Some(&journal));
        drop(journal);
        assert!(first.iter().all(|r| r.is_ok()));

        let journal = Journal::resume(&dir, &jobs).expect("resume");
        assert_eq!(journal.completed_count(), 3);
        let second = run_supervised(&jobs, &opts, Some(&journal));
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.report, b.report);
            assert_eq!(a.total_drained_j.to_bits(), b.total_drained_j.to_bits());
            assert_eq!(
                a.rv_charging_utilization.to_bits(),
                b.rv_charging_utilization.to_bits()
            );
            assert_eq!(a.deaths, b.deaths);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grid_hash_is_pinned() {
        // The hash lands in `shards.json`, every journal's meta line and
        // the fabric's `Assign` frame, so its value must never move.
        let jobs = specs(&tiny_cfg(), 3);
        assert_eq!(grid_hash(&jobs), 0x6b9d_54db_6c77_0534);
        assert_eq!(grid_hash(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn in_flight_jobs_are_requeued() {
        let dir = tmp_dir("inflight");
        let cfg = tiny_cfg();
        let jobs = specs(&cfg, 2);
        {
            let journal = Journal::create(&dir, &jobs).expect("create");
            // Simulate a crash: job 0 completed, job 1 only started.
            let out = crate::World::new(&cfg, 0).run();
            journal.record_start(0, &jobs[0], 0);
            journal.record_done(0, &out);
            journal.record_start(1, &jobs[1], 0);
        }
        let journal = Journal::resume(&dir, &jobs).expect("resume");
        assert_eq!(journal.completed_count(), 1);
        assert!(journal.completed(0).is_some());
        assert!(journal.completed(1).is_none(), "in-flight job re-queued");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_trailing_line_is_tolerated() {
        let dir = tmp_dir("torn");
        let cfg = tiny_cfg();
        let jobs = specs(&cfg, 2);
        {
            let journal = Journal::create(&dir, &jobs).expect("create");
            let out = crate::World::new(&cfg, 0).run();
            journal.record_done(0, &out);
        }
        // Chop the file mid-record, as a kill -9 during a write would.
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 25);
        std::fs::write(&path, bytes).unwrap();
        let journal = Journal::resume(&dir, &jobs).expect("resume survives torn tail");
        assert_eq!(journal.completed_count(), 0, "torn done record re-queued");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_drift_is_refused() {
        let dir = tmp_dir("drift");
        let cfg = tiny_cfg();
        let jobs = specs(&cfg, 2);
        Journal::create(&dir, &jobs).expect("create");
        let mut drifted_cfg = cfg.clone();
        drifted_cfg.faults.uplink_loss = 0.25;
        let drifted = specs(&drifted_cfg, 2);
        let err = Journal::resume(&dir, &drifted).unwrap_err();
        assert!(matches!(err, JournalError::ConfigDrift { .. }), "{err}");
        assert!(err.to_string().contains("drifted"));
        let fewer = specs(&cfg, 1);
        let err = Journal::resume(&dir, &fewer).unwrap_err();
        assert!(matches!(err, JournalError::JobCountMismatch { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_identical_done_records_resolve_first_writer_wins() {
        let dir = tmp_dir("dup-done");
        let cfg = tiny_cfg();
        let jobs = specs(&cfg, 2);
        {
            let journal = Journal::create(&dir, &jobs).expect("create");
            let out = crate::World::new(&cfg, 0).run();
            // A retried shard can legitimately re-derive and re-record the
            // same deterministic outcome.
            journal.record_done(0, &out);
            journal.record_done(0, &out);
        }
        let journal = Journal::resume(&dir, &jobs).expect("identical duplicates are legal");
        assert_eq!(journal.completed_count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn conflicting_done_records_are_refused() {
        let dir = tmp_dir("conflict-done");
        let cfg = tiny_cfg();
        let jobs = specs(&cfg, 2);
        {
            let journal = Journal::create(&dir, &jobs).expect("create");
            let out = crate::World::new(&cfg, 0).run();
            journal.record_done(0, &out);
            let mut other = out.clone();
            other.deaths += 1; // same job, different outcome: corruption
            journal.record_done(0, &other);
        }
        let err = Journal::resume(&dir, &jobs).unwrap_err();
        assert!(
            matches!(err, JournalError::ConflictingDone { job: 0 }),
            "{err}"
        );
        assert!(err.to_string().contains("conflicting"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_collects_give_up_messages_until_a_done_supersedes() {
        let dir = tmp_dir("giveup-replay");
        let cfg = tiny_cfg();
        let jobs = specs(&cfg, 2);
        let out = crate::World::new(&cfg, 0).run();
        {
            let journal = Journal::create(&dir, &jobs).expect("create");
            journal.record_give_up(0, "timed out after 1 s of wall clock (2 attempts)");
            journal.record_give_up(1, "panicked: boom (2 attempts)");
            journal.record_done(1, &out); // a later shard retry succeeded
        }
        let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        let replay = replay_text(&text).expect("replay");
        assert_eq!(replay.jobs, 2);
        assert!(replay.done.contains_key(&1));
        assert_eq!(
            replay.gave_up.get(&0).map(String::as_str),
            Some("timed out after 1 s of wall clock (2 attempts)")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn outcome_codec_round_trips_edge_floats() {
        let mut out = crate::World::new(&tiny_cfg(), 1).run();
        out.rv_energy_shortfall_j = f64::NAN;
        out.report.recharging_cost_m_per_sensor = f64::INFINITY;
        let line = format!(r#"{{"kind":"done","job":0,{}}}"#, encode_outcome(&out));
        let back = decode_outcome(&line).expect("decode");
        assert!(back.rv_energy_shortfall_j.is_nan());
        assert!(back.report.recharging_cost_m_per_sensor.is_infinite());
        assert_eq!(
            back.report.travel_distance_m.to_bits(),
            out.report.travel_distance_m.to_bits()
        );
    }

    #[test]
    fn json_escaping_round_trips() {
        let nasty = "label \"with\" \\ and\nnewline\tand \u{1} ctrl";
        let line = format!(r#"{{"kind":"x","message":"{}"}}"#, json_escape(nasty));
        assert_eq!(field_str(&line, "message").as_deref(), Some(nasty));
    }
}
