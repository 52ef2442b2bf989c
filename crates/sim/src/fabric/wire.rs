//! Wire codec for the multi-machine sweep fabric (DESIGN.md §4i): the
//! fabric's messages as [`crate::frame`] records under the `WRSNFAB1`
//! magic, one stream per direction of an agent connection (the header,
//! frame format and damage model are the shared codec's, §4k).
//!
//! The coordinator opens with an [`Msg::Assign`] carrying the shard's job
//! slice (configs via the snapshot codec), the supervision knobs, and the
//! prior shard journal text for resume; the agent answers [`Msg::Accept`]
//! or [`Msg::Refuse`], then streams [`Msg::Heartbeat`] leases and
//! complete [`Msg::JournalLines`] until a final [`Msg::Done`]. Live
//! sockets use [`crate::frame::Reader`] and [`crate::frame::Writer`];
//! both directions flush every message.

use crate::batch::JobSpec;
use crate::codec::{codec_enum, codec_struct, Dec};
use crate::frame::Record;
use crate::snapshot::SnapshotError;

/// A shard assignment: everything an agent needs to run one shard's job
/// slice under the same supervision contract as an in-process sweep.
#[derive(Debug, Clone)]
pub struct Assign {
    /// Global shard index (for directory naming and log lines).
    pub shard: u64,
    /// Zero-based attempt number. Part of the agent's work-dir name: an
    /// abandoned earlier attempt (its link severed mid-run) may still be
    /// writing its own journal, so a retry must never share its files.
    pub attempt: u32,
    /// `journal::grid_hash` of `jobs` — the agent recomputes it over the
    /// decoded slice and refuses on mismatch, catching any codec drift
    /// the per-frame checksum cannot.
    pub grid_hash: u64,
    /// Worker threads for the supervised run (0 = agent's default).
    pub threads: u64,
    /// Per-job retry budget ([`crate::batch::SupervisorOptions::retries`]).
    pub retries: u32,
    /// Per-job retry backoff in seconds.
    pub retry_backoff_s: f64,
    /// Per-job watchdog timeout in seconds (`<= 0` = none).
    pub timeout_s: f64,
    /// Retired simulated-time cap in seconds. Coordinators always write
    /// `-1.0` (none), which keeps the frame layout of this protocol
    /// version; an agent refuses a positive value.
    pub sim_time_cap_s: f64,
    /// Chaos order: accept, then go silent (no heartbeats, no work) so
    /// the coordinator's lease watchdog has something to reap.
    pub stall: bool,
    /// Chaos order: sever the connection this many ms after accepting
    /// (0 = never) — a deterministic stand-in for an agent crash.
    pub abort_after_ms: u64,
    /// The shard's job slice.
    pub jobs: Vec<JobSpec>,
    /// Complete-line prefix of the coordinator's shard journal from
    /// earlier attempts; the agent seeds its journal with it so finished
    /// jobs are not re-run (and not re-streamed).
    pub prior_journal: String,
}

/// One fabric message. `Assign` flows coordinator → agent; everything
/// else flows agent → coordinator.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Shard assignment (boxed: it dwarfs the other variants).
    Assign(Box<Assign>),
    /// The agent took the shard and will start streaming.
    Accept { shard: u64 },
    /// The agent cannot take the shard (version/hash mismatch, bad work
    /// dir); the coordinator falls back to a loopback worker.
    Refuse { reason: String },
    /// Liveness lease: a counter that increases while the shard runs.
    Heartbeat { counter: u64 },
    /// A chunk of *complete* journal lines (always `\n`-terminated) to
    /// append to the coordinator's shard journal.
    JournalLines { text: String },
    /// Terminal verdict for the assignment.
    Done { ok: bool, error: String },
}

impl Msg {
    /// Short tag name for log lines and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Assign(_) => "assign",
            Msg::Accept { .. } => "accept",
            Msg::Refuse { .. } => "refuse",
            Msg::Heartbeat { .. } => "heartbeat",
            Msg::JournalLines { .. } => "journal_lines",
            Msg::Done { .. } => "done",
        }
    }
}

codec_enum! { Msg, "message";
    0 => Assign(assign),
    1 => Accept { shard },
    2 => Refuse { reason },
    3 => Heartbeat { counter },
    4 => JournalLines { text },
    5 => Done { ok, error },
}

codec_struct! {
    Assign {
        shard, attempt, grid_hash, threads, retries, retry_backoff_s, timeout_s,
        sim_time_cap_s, stall, abort_after_ms, jobs: decode_jobs, prior_journal,
    }
    JobSpec { label, seed, config }
}

impl Record for Msg {
    const MAGIC: [u8; 8] = *b"WRSNFAB1";
    const VERSION: u32 = 2;
}

fn decode_jobs(d: &mut Dec) -> Result<Vec<JobSpec>, SnapshotError> {
    let n = d.count()?;
    // Each job encodes to well over one byte, so a count beyond the
    // remaining payload is damage — refuse before reserving.
    if n > d.remaining() {
        return Err(SnapshotError::Corrupt(format!(
            "job count {n} exceeds the payload"
        )));
    }
    (0..n).map(|_| d.get()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Codec, Enc};
    use crate::{frame, SimConfig};

    fn sample_jobs() -> Vec<JobSpec> {
        (0..3)
            .map(|i| {
                let mut cfg = SimConfig::small(0.25);
                cfg.num_sensors = 10 + i;
                JobSpec::new(format!("job-{i}"), &cfg, 40 + i as u64)
            })
            .collect()
    }

    fn sample_assign() -> Msg {
        let jobs = sample_jobs();
        Msg::Assign(Box::new(Assign {
            shard: 2,
            attempt: 1,
            grid_hash: crate::journal::grid_hash(&jobs),
            threads: 3,
            retries: 4,
            retry_backoff_s: 0.25,
            timeout_s: -1.0,
            sim_time_cap_s: 3600.0,
            stall: false,
            abort_after_ms: 0,
            jobs,
            prior_journal: "meta line\ndone line\n".into(),
        }))
    }

    fn all_msgs() -> Vec<Msg> {
        vec![
            sample_assign(),
            Msg::Accept { shard: 2 },
            Msg::Refuse {
                reason: "busy".into(),
            },
            Msg::Heartbeat { counter: 7 },
            Msg::JournalLines {
                text: "{\"kind\":\"done\"}\n".into(),
            },
            Msg::Done {
                ok: false,
                error: "agent runner panicked".into(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips_through_the_stream_codec() {
        let msgs = all_msgs();
        let bytes = frame::encode(&msgs);
        let decoded = frame::decode::<Msg>(&bytes).expect("decode");
        assert_eq!(decoded.tail, frame::Tail::Clean);
        let kinds = |m: &[Msg]| m.iter().map(Msg::kind).collect::<Vec<_>>();
        assert_eq!(kinds(&decoded.records), kinds(&msgs));
        // Re-encoding must reproduce the exact bytes.
        assert_eq!(frame::encode(&decoded.records), bytes);
    }

    #[test]
    fn assign_preserves_jobs_and_grid_hash() {
        let bytes = frame::encode(&[sample_assign()]);
        let decoded = frame::decode::<Msg>(&bytes).expect("decode");
        let Msg::Assign(a) = &decoded.records[0] else {
            panic!("expected assign");
        };
        assert_eq!(a.jobs.len(), 3);
        assert_eq!(a.jobs[1].label, "job-1");
        assert_eq!(a.jobs[1].seed, 41);
        assert_eq!(a.jobs[1].config.num_sensors, 11);
        assert_eq!(crate::journal::grid_hash(&a.jobs), a.grid_hash);
        assert_eq!(a.prior_journal, "meta line\ndone line\n");
    }

    #[test]
    fn a_paper_scale_job_decodes_at_the_end_of_a_payload() {
        // 500 sensors exceed the bytes left after the config's sensor
        // count when the job is the assignment's last and no journal
        // follows; the count must not be read as a length prefix.
        let job = JobSpec::new("paper/seed=0", &SimConfig::paper_defaults(), 0);
        let msg = Msg::Assign(Box::new(Assign {
            shard: 0,
            attempt: 0,
            grid_hash: crate::journal::grid_hash(std::slice::from_ref(&job)),
            threads: 1,
            retries: 1,
            retry_backoff_s: 0.05,
            timeout_s: -1.0,
            sim_time_cap_s: -1.0,
            stall: false,
            abort_after_ms: 0,
            jobs: vec![job],
            prior_journal: String::new(),
        }));
        let decoded = frame::decode::<Msg>(&frame::encode(&[msg])).expect("decode");
        assert_eq!(decoded.tail, frame::Tail::Clean);
        let Msg::Assign(a) = &decoded.records[0] else {
            panic!("expected assign");
        };
        assert_eq!(a.jobs[0].config.num_sensors, 500);
        assert_eq!(crate::journal::grid_hash(&a.jobs), a.grid_hash);
    }

    #[test]
    fn absurd_job_count_is_corrupt_not_an_allocation() {
        // An Assign header (tag, shard, attempt, grid hash, threads,
        // retries, three f64 knobs, stall, abort) claiming 2^63 jobs.
        let mut e = Enc::new();
        e.u8(0);
        e.u64(0);
        e.u32(0);
        e.u64(0);
        e.u64(0);
        e.u32(0);
        for _ in 0..3 {
            e.put(&0.0f64);
        }
        e.put(&false);
        e.u64(0);
        e.u64(u64::MAX >> 1);
        let err = Msg::get(&mut Dec::new(&e.buf)).unwrap_err();
        assert!(err.to_string().contains("job count"), "{err}");
    }
}
