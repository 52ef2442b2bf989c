//! The worker transport for the sharded sweep fabric (DESIGN.md §4i).
//!
//! The §4g coordinator supervises *something that runs one shard attempt*:
//! it starts it, watches its heartbeat, kills it when a watchdog trips,
//! and requeues the shard when it dies. Every attempt runs on an agent
//! reached over TCP and speaking the [`wire`] protocol ([`agent`]):
//!
//! * a **loopback worker** — the current binary re-executed with
//!   [`WORKER_ENV`] set, which binds `127.0.0.1:0`, announces its address
//!   as one `listening <addr>` stdout line, serves exactly one assignment
//!   and exits. The coordinator also holds the child process, for chaos
//!   SIGKILLs, its exit status and a tail of its stderr;
//! * a remote `wrsn agent` daemon ([`serve`]), when
//!   [`crate::shard::ShardOptions::agents`] names any. An absent or
//!   refusing agent degrades the shard to a loopback worker.
//!
//! Either way one remote handle is what the coordinator polls, so a
//! crashed worker, a severed link and a silent agent all land on the same
//! requeue → resume → merge path.

pub mod agent;
pub(crate) mod chaos;
pub mod wire;

use std::collections::VecDeque;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::batch::{JobSpec, SupervisorOptions};
use crate::shard::{describe_exit, shard_dir, ShardError, WORKER_ENV};
use agent::{remote_launch, RemoteLaunch, HANDSHAKE_TIMEOUT};

pub use agent::serve;
pub(crate) use agent::{launch, serve_loopback, RemoteHandle};

/// How many trailing stderr lines a loopback worker keeps for failure
/// reports.
pub const STDERR_TAIL_LINES: usize = 20;

/// Everything needed to start one shard attempt.
pub(crate) struct LaunchSpec<'a> {
    /// Fabric directory (manifest + per-shard state).
    pub dir: &'a Path,
    /// Global shard index.
    pub shard: usize,
    /// Zero-based attempt number.
    pub attempt: u32,
    /// Worker thread budget (backpressure-divided by the coordinator).
    pub threads: usize,
    /// Chaos order: the agent should accept the shard and then hang
    /// without heartbeating, so the heartbeat watchdog has something to
    /// reap.
    pub stall: bool,
    /// The shard's job slice (global range `[lo, hi)`).
    pub jobs: &'a [JobSpec],
    /// Supervision knobs forwarded to the agent's `run_supervised`.
    pub sup: &'a SupervisorOptions,
}

// --- Stderr tail ----------------------------------------------------------

/// Bounded ring of the most recent stderr lines.
pub(crate) struct TailBuf {
    lines: VecDeque<String>,
    cap: usize,
}

impl TailBuf {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            lines: VecDeque::with_capacity(cap),
            cap: cap.max(1),
        }
    }

    pub(crate) fn push(&mut self, line: String) {
        if self.lines.len() == self.cap {
            self.lines.pop_front();
        }
        self.lines.push_back(line);
    }

    /// Renders the tail as one ` | `-joined line, safe to embed in a
    /// `JobPanic` message (and hence a journal record).
    pub(crate) fn render(&self) -> String {
        self.lines
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

// --- Loopback worker -----------------------------------------------------

/// Starts a shard attempt on a loopback worker: re-executes the current
/// binary with the same argv and [`WORKER_ENV`] naming the worker's
/// scratch directory, reads the address it announces, and assigns the
/// shard to it over TCP.
pub(crate) fn launch_loopback(spec: &LaunchSpec<'_>) -> Result<RemoteHandle, ShardError> {
    let scratch = shard_dir(spec.dir, spec.shard).join("worker");
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(std::env::args_os().skip(1))
        .env(WORKER_ENV, &scratch);
    start_worker(cmd, scratch, spec)
}

/// Spawns the worker command `cmd` and assigns it `spec`'s shard once it
/// has announced its address.
fn start_worker(
    cmd: Command,
    scratch: PathBuf,
    spec: &LaunchSpec<'_>,
) -> Result<RemoteHandle, ShardError> {
    let (worker, announced) = Worker::spawn(cmd, scratch, spec.shard)?;
    let link = match announced.recv_timeout(HANDSHAKE_TIMEOUT) {
        Ok(addr) => match remote_launch(&addr, spec, None) {
            RemoteLaunch::Handle(link) => link,
            RemoteLaunch::Fallback(why) => RemoteHandle::dead(why),
        },
        Err(RecvTimeoutError::Disconnected) => {
            RemoteHandle::dead("worker exited before announcing its address".into())
        }
        Err(RecvTimeoutError::Timeout) => RemoteHandle::dead(format!(
            "worker did not announce its address within {} s",
            HANDSHAKE_TIMEOUT.as_secs()
        )),
    };
    Ok(link.with_worker(worker))
}

/// A loopback worker process: the child, threads draining its pipes (the
/// stderr one echoes every line and keeps the trailing ones), and the
/// scratch directory its agent journals into.
struct Worker {
    child: Child,
    tail: Arc<Mutex<TailBuf>>,
    pipes: Vec<JoinHandle<()>>,
    scratch: PathBuf,
}

impl Worker {
    /// Spawns `cmd` with piped stdout and stderr. The returned channel
    /// yields the address from the worker's `listening <addr>` line;
    /// stdout is drained after it so the worker never blocks on a full
    /// pipe.
    fn spawn(
        mut cmd: Command,
        scratch: PathBuf,
        shard: usize,
    ) -> Result<(Self, mpsc::Receiver<String>), ShardError> {
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| ShardError::Spawn(format!("shard {shard}: {e}")))?;
        let tail = Arc::new(Mutex::new(TailBuf::new(STDERR_TAIL_LINES)));
        let (tx, announced) = mpsc::channel();
        let mut pipes = Vec::new();
        if let Some(out) = child.stdout.take() {
            pipes.push(std::thread::spawn(move || {
                for line in std::io::BufReader::new(out).lines() {
                    let Ok(line) = line else { break };
                    if let Some(addr) = line.strip_prefix("listening ") {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }));
        }
        if let Some(err) = child.stderr.take() {
            let tail = Arc::clone(&tail);
            pipes.push(std::thread::spawn(move || {
                for line in std::io::BufReader::new(err).lines() {
                    let Ok(line) = line else { break };
                    eprintln!("{line}");
                    if let Ok(mut t) = tail.lock() {
                        t.push(line);
                    }
                }
            }));
        }
        let worker = Self {
            child,
            tail,
            pipes,
            scratch,
        };
        Ok((worker, announced))
    }

    /// The worker's exit status, if it has exited unsuccessfully. A dying
    /// worker closes its socket a moment before it can be reaped, so this
    /// waits briefly; the stderr pipe is drained to its EOF first, so the
    /// tail holds the worker's final words.
    fn exit_reason(&mut self) -> Option<String> {
        let deadline = Instant::now() + Duration::from_millis(250);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    for pipe in self.pipes.drain(..) {
                        let _ = pipe.join();
                    }
                    return (!status.success()).then(|| describe_exit(&status));
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return None,
            }
        }
    }
}

impl Drop for Worker {
    /// A dropped worker must not leak the process, its pipe threads or its
    /// scratch journal.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pipe in self.pipes.drain(..) {
            let _ = pipe.join();
        }
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_buf_keeps_only_the_last_lines() {
        let mut t = TailBuf::new(3);
        for i in 0..7 {
            t.push(format!("line-{i}"));
        }
        assert_eq!(t.render(), "line-4 | line-5 | line-6");
        assert_eq!(TailBuf::new(2).render(), "");
    }

    /// Spawns an arbitrary command (not a re-exec) as a worker that dies
    /// before announcing an address, and checks the failure report is its
    /// exit status with the stderr tail alongside.
    #[test]
    #[cfg(unix)]
    fn dead_worker_reports_exit_status_with_stderr_tail() {
        let dir = std::env::temp_dir().join(format!("wrsn-fabric-dead-{}", std::process::id()));
        let scratch = dir.join("worker");
        std::fs::create_dir_all(&scratch).unwrap();
        let mut cmd = Command::new("sh");
        cmd.args([
            "-c",
            "for i in $(seq 1 30); do echo noise-$i >&2; done; echo real-cause >&2; exit 7",
        ]);
        let sup = SupervisorOptions::default();
        let spec = LaunchSpec {
            dir: &dir,
            shard: 0,
            attempt: 0,
            threads: 1,
            stall: false,
            jobs: &[],
            sup: &sup,
        };
        let mut handle = start_worker(cmd, scratch.clone(), &spec).expect("spawn");
        let deadline = Instant::now() + Duration::from_secs(30);
        let verdict = loop {
            if let Some(v) = handle.poll() {
                break v;
            }
            assert!(Instant::now() < deadline, "worker never exited");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(verdict.unwrap_err(), "worker exited with code 7");
        let tail = handle.stderr_tail();
        assert!(tail.ends_with("real-cause"), "tail: {tail}");
        // The ring is bounded: early noise fell off.
        assert!(!tail.contains("noise-1 |"), "tail: {tail}");
        assert!(tail.contains("noise-30"), "tail: {tail}");
        drop(handle);
        assert!(
            !scratch.exists(),
            "a dropped worker removes its scratch dir"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
