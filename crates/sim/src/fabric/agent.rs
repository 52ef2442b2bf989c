//! The agent side of the fabric's one transport (DESIGN.md §4i): a shard
//! assignment served over a socket, and the coordinator-side handle that
//! supervises it.
//!
//! **Agent side**: read one framed [`wire::Assign`], validate the
//! handshake (protocol version via the stream header, job slice via a
//! recomputed grid hash, supervision seconds that fit a `Duration`), seed
//! the shard's journal from the coordinator's authoritative complete-line
//! prefix, `Accept`, then run the slice through the ordinary
//! [`crate::batch::run_supervised`] while streaming heartbeats and every
//! *complete* new journal line back; finish with `Done`. A `wrsn agent`
//! daemon ([`serve`]) does this for every connection; a loopback worker
//! for exactly one.
//!
//! **Coordinator side**: connect, assign, append the streamed lines to the
//! local shard journal (which stays the single source of truth for resume
//! and merge), and map every failure mode onto paths the §4g coordinator
//! already owns:
//!
//! * a remote agent that is absent or refuses → **fall back to a loopback
//!   worker** with a warning (an absent agent never fails the sweep);
//! * link established but torn, corrupt, or closed mid-shard → a dead
//!   handle → the ordinary requeue with bounded retries;
//! * agent silent (wedged, one-way partition) → the heartbeat counter
//!   stops advancing → the lease watchdog reaps the shard.
//!
//! Because the streamed journal is byte-for-byte the journal the agent
//! wrote, resume seeding plus first-writer-wins replay make re-attempts
//! safe: a job is never rerun once its `done` line reached the
//! coordinator, and never double-counted if it didn't.

use std::io::{Read, Seek, SeekFrom, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::chaos::{net_chaos_plan, NetChaos};
use super::wire::{self, Msg};
use super::{launch_loopback, LaunchSpec, Worker};
use crate::batch::{panic_message, run_supervised, SupervisorOptions};
use crate::frame::{self, Reader, Writer, HEADER_LEN};
use crate::journal::{grid_hash, Journal, JOURNAL_FILE};
use crate::shard::{shard_dir, ShardError, ShardOptions};
use crate::store::StoreConfig;

/// How long the coordinator waits for a TCP connect before declaring the
/// agent absent and falling back to a loopback worker.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// How long each side waits for the other's handshake message (and a
/// loopback worker for its coordinator to connect).
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);
/// Heartbeat/journal streaming cadence on the agent.
const STREAM_INTERVAL: Duration = Duration::from_millis(100);

/// Returns the prefix of `text` up to and including its last `\n` — the
/// only bytes either side ever trusts across a connection boundary, so a
/// torn final line is re-run instead of glued onto fresh records.
fn complete_prefix(text: &str) -> &str {
    match text.rfind('\n') {
        Some(nl) => &text[..=nl],
        None => "",
    }
}

// --- Agent side -----------------------------------------------------------

/// Binds `listen` and serves shard assignments forever (one thread per
/// connection), keeping per-shard state under `work_dir`.
pub fn serve(listen: &str, work_dir: impl AsRef<Path>) -> Result<(), ShardError> {
    let listener = TcpListener::bind(listen)
        .map_err(|e| ShardError::Spawn(format!("agent cannot listen on {listen}: {e}")))?;
    serve_listener(listener, work_dir.as_ref().to_path_buf())
}

/// [`serve`] over an already-bound listener (lets tests bind port 0).
pub fn serve_listener(listener: TcpListener, work_dir: PathBuf) -> Result<(), ShardError> {
    std::fs::create_dir_all(&work_dir)?;
    eprintln!(
        "agent listening on {} (work dir {})",
        listener.local_addr()?,
        work_dir.display()
    );
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                let work_dir = work_dir.clone();
                std::thread::spawn(move || handle_conn(stream, &work_dir));
            }
            Err(e) => eprintln!("warning: agent accept failed: {e}"),
        }
    }
    Ok(())
}

fn handle_conn(stream: TcpStream, work_dir: &Path) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    // Store recording is a local-disk feature; a remote agent does not
    // record (documented in DESIGN.md §4i).
    match run_assignment(stream, work_dir, None) {
        Ok(what) => eprintln!("agent: {what} complete (coordinator {peer})"),
        Err(why) => eprintln!("warning: agent assignment from {peer} failed: {why}"),
    }
}

/// The worker half of a loopback shard attempt, run inside the re-executed
/// child: binds `127.0.0.1:0`, announces the address as one
/// `listening <addr>` stdout line, serves exactly one assignment with its
/// journal under `scratch` (recording runs into `store`, which the
/// worker's own argv selected), and exits — 0 once `Done` was sent, 3
/// otherwise.
pub(crate) fn serve_loopback(scratch: &Path, store: Option<StoreConfig>) -> ! {
    let code = match serve_one(scratch, store) {
        Ok(_) => 0,
        Err(why) => {
            eprintln!("shard worker error: {why}");
            3
        }
    };
    std::process::exit(code);
}

fn serve_one(scratch: &Path, store: Option<StoreConfig>) -> Result<String, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot listen: {e}"))?;
    // Stdout is line-buffered, so the coordinator reads this at once.
    println!(
        "listening {}",
        listener.local_addr().map_err(|e| e.to_string())?
    );
    // The coordinator connects as soon as it reads the address; one that
    // died first must not leave this process waiting forever.
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let stream = loop {
        match listener.accept() {
            Ok((stream, _)) => break stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5))
            }
            Err(e) => return Err(format!("no coordinator connected: {e}")),
        }
    };
    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    run_assignment(stream, scratch, store)
}

/// Reads one assignment off `stream` and runs it to its `Done` (or a
/// chaos order's early exit), recording runs into `store` when given. Any
/// error reported here was also made visible to the coordinator — as a
/// `Refuse`, a `Done{ok:false}`, or a severed link its dead-shard path
/// will requeue.
fn run_assignment(
    stream: TcpStream,
    work_dir: &Path,
    store: Option<StoreConfig>,
) -> Result<String, String> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = Reader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = Writer::new(stream.try_clone().map_err(|e| e.to_string())?);

    let msg = reader
        .recv()
        .map_err(|e| format!("reading the assignment: {e}"))?
        .ok_or("connection closed before an assignment arrived")?;
    let Msg::Assign(assign) = msg else {
        return Err(format!("expected an assignment, got `{}`", msg.kind()));
    };
    let shard = assign.shard as usize;

    let mut refuse = |reason: String| -> Result<String, String> {
        let _ = writer.send(&Msg::Refuse {
            reason: reason.clone(),
        });
        Err(format!("refused: {reason}"))
    };

    // Handshake validation: the per-frame checksum proves the bytes
    // arrived intact; recomputing the grid hash over the *decoded* jobs
    // proves the codec reconstructed the coordinator's exact slice.
    let hash = grid_hash(&assign.jobs);
    if hash != assign.grid_hash {
        return refuse(format!(
            "grid hash mismatch: assignment claims {:#018x}, decoded jobs hash to {hash:#018x}",
            assign.grid_hash
        ));
    }
    if assign.jobs.is_empty() {
        return refuse("empty job slice".into());
    }
    let sup = match supervisor_options(&assign, store) {
        Ok(sup) => sup,
        Err(why) => return refuse(why),
    };

    // The grid hash makes the work directory location-independent: any
    // agent given the same slice uses the same directory name. The
    // attempt number keeps retries apart: a severed earlier attempt's
    // runner cannot be stopped mid-job and may still be writing its own
    // journal, so a retry routed to the same agent must not share files.
    let my_dir = work_dir.join(format!(
        "shard-{hash:016x}-{shard:04}-a{:02}",
        assign.attempt
    ));
    if let Err(e) = std::fs::create_dir_all(&my_dir) {
        return refuse(format!("cannot create {}: {e}", my_dir.display()));
    }

    // Seed the journal from the coordinator's complete-line prefix. The
    // coordinator's copy is authoritative — stale local state from an
    // earlier identical sweep is overwritten, never trusted, so the
    // streamed lines always cover exactly what the coordinator is
    // missing.
    let journal_path = my_dir.join(JOURNAL_FILE);
    let seed = complete_prefix(&assign.prior_journal);
    if seed.is_empty() {
        let _ = std::fs::remove_file(&journal_path);
    } else if let Err(e) = std::fs::write(&journal_path, seed) {
        return refuse(format!("cannot seed the shard journal: {e}"));
    }
    let journal = match if seed.is_empty() {
        Journal::create(&my_dir, &assign.jobs)
    } else {
        Journal::resume(&my_dir, &assign.jobs)
    } {
        Ok(j) => j,
        Err(e) => return refuse(format!("shard journal: {e}")),
    };

    writer
        .send(&Msg::Accept {
            shard: assign.shard,
        })
        .map_err(|e| format!("sending accept: {e}"))?;

    // Chaos order: accept, then wedge — no heartbeats, no work — until
    // the coordinator's lease watchdog gives up on us and hangs up.
    if assign.stall {
        return stall_until_hangup(&stream);
    }

    let abort_at = (assign.abort_after_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(assign.abort_after_ms));
    let label = format!(
        "shard {shard} ({} jobs, grid {hash:#018x})",
        assign.jobs.len()
    );

    std::thread::scope(|scope| {
        let jobs = &assign.jobs;
        let journal = &journal;
        let sup = &sup;
        // The runner's sender drops when it ends, returning or panicking,
        // which wakes the streaming loop at once instead of after a
        // whole `STREAM_INTERVAL`.
        let (ended_tx, ended) = mpsc::channel::<()>();
        let runner = scope.spawn(move || {
            let _ended = ended_tx;
            let _ = run_supervised(jobs, sup, Some(journal));
        });
        let mut counter = 0u64;
        let mut offset = seed.len() as u64;
        let mut finished = false;
        loop {
            if let Some(t) = abort_at {
                if Instant::now() >= t {
                    let _ = stream.shutdown(Shutdown::Both);
                    return Err("chaos order: severed the connection mid-run".to_string());
                }
            }
            counter += 1;
            writer
                .send(&Msg::Heartbeat { counter })
                .map_err(|e| format!("sending heartbeat: {e}"))?;
            match new_complete_lines(&journal_path, &mut offset) {
                Ok(text) if !text.is_empty() => writer
                    .send(&Msg::JournalLines { text })
                    .map_err(|e| format!("streaming journal lines: {e}"))?,
                Ok(_) => {}
                Err(e) => return Err(format!("reading the shard journal back: {e}")),
            }
            if finished {
                break;
            }
            // Observe the end *before* the next drain: anything journaled
            // before it is caught by that drain, so the final `Done` never
            // races past a `done` line. Once the sender is gone the loop
            // drains once more and stops, so it never spins on it.
            finished = matches!(
                ended.recv_timeout(STREAM_INTERVAL),
                Err(RecvTimeoutError::Disconnected)
            );
        }
        let (ok, error) = match runner.join() {
            Ok(()) => (true, String::new()),
            Err(panic) => (
                false,
                format!("agent runner panicked: {}", panic_message(&*panic)),
            ),
        };
        writer
            .send(&Msg::Done { ok, error })
            .map_err(|e| format!("sending done: {e}"))?;
        Ok(label)
    })
}

/// The supervision an assignment asks for. Seconds fields that no
/// `Duration` can hold, and the retired simulated-time cap, are refused
/// rather than run.
fn supervisor_options(
    assign: &wire::Assign,
    store: Option<StoreConfig>,
) -> Result<SupervisorOptions, String> {
    let secs = |name: &str, s: f64| {
        Duration::try_from_secs_f64(s)
            .map_err(|e| format!("{name} {s} is not a valid number of seconds ({e})"))
    };
    if assign.sim_time_cap_s > 0.0 {
        return Err(format!(
            "sim_time_cap_s {} asks for a simulated-time cap, which this agent does not support",
            assign.sim_time_cap_s
        ));
    }
    Ok(SupervisorOptions {
        timeout: (assign.timeout_s > 0.0)
            .then(|| secs("timeout_s", assign.timeout_s))
            .transpose()?,
        retries: assign.retries,
        retry_backoff: secs("retry_backoff_s", assign.retry_backoff_s.max(0.0))?,
        workers: NonZeroUsize::new(assign.threads as usize),
        store,
    })
}

/// Holds the connection open silently until the coordinator hangs up (or
/// the link dies) — the deterministic stand-in for a wedged agent.
fn stall_until_hangup(stream: &TcpStream) -> Result<String, String> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
    let mut probe: &TcpStream = stream;
    let mut buf = [0u8; 64];
    loop {
        match probe.read(&mut buf) {
            Ok(0) => return Err("stalled on chaos order until the coordinator hung up".into()),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return Err("stalled on chaos order until the link died".into()),
        }
    }
}

/// Returns the journal bytes past `offset` up to the last complete line,
/// advancing `offset` past what was returned.
fn new_complete_lines(path: &Path, offset: &mut u64) -> std::io::Result<String> {
    let mut file = std::fs::File::open(path)?;
    file.seek(SeekFrom::Start(*offset))?;
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    let Some(last_nl) = buf.iter().rposition(|&b| b == b'\n') else {
        return Ok(String::new());
    };
    buf.truncate(last_nl + 1);
    let text = String::from_utf8(buf).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "journal bytes are not UTF-8",
        )
    })?;
    *offset += text.len() as u64;
    Ok(text)
}

// --- Coordinator side -----------------------------------------------------

/// Starts one shard attempt: on `opts.agents` round-robin, with
/// deterministic network chaos seeded by the full grid hash, or on a
/// loopback worker when there are no agents or the chosen one is absent
/// or refuses.
pub(crate) fn launch(
    spec: &LaunchSpec<'_>,
    opts: &ShardOptions,
    grid_hash: u64,
) -> Result<RemoteHandle, ShardError> {
    if opts.agents.is_empty() {
        return launch_loopback(spec);
    }
    // Round-robin by (shard + attempt): a retry naturally lands on a
    // different agent, so one dead box cannot pin a shard down.
    let addr = &opts.agents[(spec.shard + spec.attempt as usize) % opts.agents.len()];
    let plan = net_chaos_plan(opts.chaos_net, grid_hash, spec.shard, spec.attempt);
    if let Some(c) = plan {
        eprintln!(
            "chaos: shard {} attempt {} gets a network fault: {}",
            spec.shard,
            spec.attempt + 1,
            describe_net_chaos(c)
        );
    }
    match remote_launch(addr, spec, plan) {
        RemoteLaunch::Handle(link) => Ok(link),
        RemoteLaunch::Fallback(why) => {
            eprintln!(
                "warning: agent {addr} unavailable for shard {} ({why}); \
                 running the shard locally instead",
                spec.shard
            );
            launch_loopback(spec)
        }
    }
}

fn describe_net_chaos(c: NetChaos) -> String {
    match c {
        NetChaos::TornAssign => "assignment torn mid-write".into(),
        NetChaos::Delay(d) => format!("assignment delayed {} ms", d.as_millis()),
        NetChaos::Partition => "one-way partition (replies discarded)".into(),
        NetChaos::StallAgent => "agent stalled (heartbeats withheld)".into(),
        NetChaos::AbortAgent(d) => format!("agent severs the link after {} ms", d.as_millis()),
    }
}

/// Outcome of trying to place a shard on an agent. `Fallback` is reserved
/// for "the agent is not there for us" (connect failure, explicit
/// refusal); a link that existed and then misbehaved comes back as a dead
/// `Handle` so the shard takes the ordinary requeue path — retrying a
/// flaky link is right, retrying a refusal is not.
pub(crate) enum RemoteLaunch {
    Handle(RemoteHandle),
    Fallback(String),
}

pub(crate) fn remote_launch(
    addr: &str,
    spec: &LaunchSpec<'_>,
    plan: Option<NetChaos>,
) -> RemoteLaunch {
    let Some(sock_addr) = addr.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
        return RemoteLaunch::Fallback(format!("cannot resolve `{addr}`"));
    };
    let stream = match TcpStream::connect_timeout(&sock_addr, CONNECT_TIMEOUT) {
        Ok(s) => s,
        Err(e) => return RemoteLaunch::Fallback(format!("connect failed: {e}")),
    };
    stream.set_nodelay(true).ok();
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => return RemoteLaunch::Fallback(format!("cannot clone the socket: {e}")),
    };

    if let Some(NetChaos::Delay(d)) = plan {
        std::thread::sleep(d);
    }

    // Assemble the assignment. The coordinator's shard journal (complete
    // lines only) rides along so the agent resumes instead of rerunning.
    let journal_path = shard_dir(spec.dir, spec.shard).join(JOURNAL_FILE);
    let prior = std::fs::read_to_string(&journal_path).unwrap_or_default();
    let assign = wire::Assign {
        shard: spec.shard as u64,
        attempt: spec.attempt,
        grid_hash: grid_hash(spec.jobs),
        threads: spec.threads as u64,
        retries: spec.sup.retries,
        retry_backoff_s: spec.sup.retry_backoff.as_secs_f64(),
        timeout_s: spec.sup.timeout.map_or(-1.0, |d| d.as_secs_f64()),
        // The retired simulated-time cap: always "none", so the frame
        // bytes stay those of WRSNFAB1 version 1.
        sim_time_cap_s: -1.0,
        stall: spec.stall || matches!(plan, Some(NetChaos::StallAgent)),
        abort_after_ms: match plan {
            Some(NetChaos::AbortAgent(d)) => d.as_millis() as u64,
            _ => 0,
        },
        jobs: spec.jobs.to_vec(),
        prior_journal: complete_prefix(&prior).to_string(),
    };
    let bytes = frame::encode(&[Msg::Assign(Box::new(assign))]);

    if matches!(plan, Some(NetChaos::TornAssign)) {
        // Write the header plus half the assignment frame, then sever:
        // the agent sees a torn frame and hangs up without accepting.
        let cut = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        let mut w: &TcpStream = &stream;
        let _ = w.write_all(&bytes[..cut]);
        let _ = stream.shutdown(Shutdown::Both);
        return RemoteLaunch::Handle(RemoteHandle::dead(format!(
            "assignment to agent {addr} torn mid-write"
        )));
    }

    {
        let mut w: &TcpStream = &stream;
        if let Err(e) = w.write_all(&bytes).and_then(|_| w.flush()) {
            return RemoteLaunch::Handle(RemoteHandle::dead(format!(
                "sending the assignment to agent {addr} failed: {e}"
            )));
        }
    }

    // Synchronous handshake: one Accept/Refuse within the timeout.
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let mut reader = Reader::new(reader_stream);
    match reader.recv() {
        Ok(Some(Msg::Accept { .. })) => {}
        Ok(Some(Msg::Refuse { reason })) => {
            let _ = stream.shutdown(Shutdown::Both);
            return RemoteLaunch::Fallback(format!("agent refused the shard: {reason}"));
        }
        Ok(Some(other)) => {
            let _ = stream.shutdown(Shutdown::Both);
            return RemoteLaunch::Handle(RemoteHandle::dead(format!(
                "agent {addr} sent `{}` before accepting",
                other.kind()
            )));
        }
        Ok(None) => {
            return RemoteLaunch::Handle(RemoteHandle::dead(format!(
                "agent {addr} hung up during the handshake"
            )))
        }
        Err(e) => {
            let _ = stream.shutdown(Shutdown::Both);
            return RemoteLaunch::Handle(RemoteHandle::dead(format!(
                "handshake with agent {addr} failed: {e}"
            )));
        }
    }
    let _ = stream.set_read_timeout(None);

    RemoteLaunch::Handle(RemoteHandle::live(
        stream,
        reader,
        journal_path,
        matches!(plan, Some(NetChaos::Partition)),
    ))
}

struct RemoteShared {
    heartbeat: u64,
    finished: Option<Result<(), String>>,
}

/// Coordinator-side handle to one shard attempt, the one handle the
/// coordinator supervises: a reader thread drains the agent's stream into
/// the shared state and the local shard journal; `kill` severs the socket
/// and joins the reader, so after it returns no more bytes are appended on
/// the attempt's behalf — the invariant that makes requeue + resume safe.
/// For a loopback agent the handle also owns the worker process.
pub(crate) struct RemoteHandle {
    stream: Option<TcpStream>,
    reader: Option<JoinHandle<()>>,
    shared: Arc<Mutex<RemoteShared>>,
    worker: Option<Worker>,
}

impl RemoteHandle {
    /// A handle that failed before it ever ran: `poll` reports the reason
    /// immediately and the coordinator requeues.
    pub(super) fn dead(reason: String) -> Self {
        Self {
            stream: None,
            reader: None,
            shared: Arc::new(Mutex::new(RemoteShared {
                heartbeat: 0,
                finished: Some(Err(reason)),
            })),
            worker: None,
        }
    }

    /// Attaches the loopback worker process serving this link.
    pub(super) fn with_worker(mut self, worker: Worker) -> Self {
        self.worker = Some(worker);
        self
    }

    fn live(
        stream: TcpStream,
        reader: Reader<Msg, TcpStream>,
        journal_path: PathBuf,
        partition: bool,
    ) -> Self {
        let shared = Arc::new(Mutex::new(RemoteShared {
            heartbeat: 0,
            finished: None,
        }));
        let thread_shared = Arc::clone(&shared);
        let thread =
            std::thread::spawn(move || reader_loop(reader, thread_shared, journal_path, partition));
        Self {
            stream: Some(stream),
            reader: Some(thread),
            shared,
            worker: None,
        }
    }

    /// Non-blocking verdict: `None` while the agent runs the shard,
    /// `Some(Ok(()))` once it reported success, `Some(Err(reason))` when
    /// the attempt failed. A loopback worker that died on its own is
    /// reported by its exit status rather than by the link it took down.
    pub(crate) fn poll(&mut self) -> Option<Result<(), String>> {
        let verdict = match self.shared.lock() {
            Ok(shared) => shared.finished.clone()?,
            Err(_) => Err("remote handle state poisoned".into()),
        };
        Some(match (verdict, &mut self.worker) {
            (Err(reason), Some(worker)) => Err(worker.exit_reason().unwrap_or(reason)),
            (verdict, _) => verdict,
        })
    }

    /// The last heartbeat counter the agent streamed; the coordinator
    /// declares the attempt hung when it stops advancing.
    pub(crate) fn heartbeat(&self) -> u64 {
        self.shared.lock().map_or(0, |shared| shared.heartbeat)
    }

    /// Last ~[`super::STDERR_TAIL_LINES`] lines of a loopback worker's
    /// stderr (empty for a remote agent, whose failure context arrives
    /// in-band).
    pub(crate) fn stderr_tail(&self) -> String {
        self.worker
            .as_ref()
            .and_then(|w| w.tail.lock().ok().map(|t| t.render()))
            .unwrap_or_default()
    }

    /// SIGKILLs a loopback worker, severs the link and joins the reader;
    /// idempotent.
    pub(crate) fn kill(&mut self) {
        if let Some(worker) = &mut self.worker {
            let _ = worker.child.kill();
        }
        // Claim the verdict before the shutdown wakes the reader, so an
        // intentional kill reads as a kill rather than as the link error
        // the reader observes a moment later (`finish` is
        // first-writer-wins).
        if self.stream.is_some() {
            if let Ok(mut shared) = self.shared.lock() {
                if shared.finished.is_none() {
                    shared.finished = Some(Err("connection severed by the coordinator".into()));
                }
            }
        }
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for RemoteHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

fn reader_loop(
    mut reader: Reader<Msg, TcpStream>,
    shared: Arc<Mutex<RemoteShared>>,
    journal_path: PathBuf,
    partition: bool,
) {
    let finish = |verdict: Result<(), String>| {
        if let Ok(mut shared) = shared.lock() {
            if shared.finished.is_none() {
                shared.finished = Some(verdict);
            }
        }
    };
    let mut sink: Option<std::fs::File> = None;
    loop {
        match reader.recv() {
            Ok(Some(msg)) => {
                if partition {
                    // One-way partition: the agent's frames never "arrive".
                    // Its heartbeat freezes and the watchdog reaps the
                    // shard.
                    continue;
                }
                match msg {
                    Msg::Heartbeat { counter } => {
                        if let Ok(mut shared) = shared.lock() {
                            shared.heartbeat = counter;
                        }
                    }
                    Msg::JournalLines { text } => {
                        if let Err(e) = append_lines(&mut sink, &journal_path, &text) {
                            finish(Err(format!("cannot append streamed journal lines: {e}")));
                            return;
                        }
                    }
                    Msg::Done { ok, error } => {
                        finish(if ok {
                            Ok(())
                        } else {
                            Err(format!("agent reported failure: {error}"))
                        });
                        return;
                    }
                    // A duplicate Accept (or anything else) is harmless.
                    _ => {}
                }
            }
            Ok(None) => {
                finish(Err(
                    "agent closed the connection before finishing the shard".into(),
                ));
                return;
            }
            Err(e) => {
                finish(Err(format!("agent link lost: {e}")));
                return;
            }
        }
    }
}

/// Appends streamed complete lines to the local shard journal, opening it
/// lazily. If the journal ends in a torn final line, a `\n` is inserted
/// first so fresh records never glue onto torn bytes.
fn append_lines(sink: &mut Option<std::fs::File>, path: &Path, text: &str) -> std::io::Result<()> {
    if sink.is_none() {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let needs_newline = std::fs::read(path)
            .map(|bytes| bytes.last().is_some_and(|&b| b != b'\n'))
            .unwrap_or(false);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if needs_newline {
            file.write_all(b"\n")?;
        }
        *sink = Some(file);
    }
    let file = sink.as_mut().expect("sink was just opened");
    file.write_all(text.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{JobPanic, JobSpec};
    use crate::shard::merge_shards;
    use crate::{SimConfig, SimOutcome};

    fn tiny_cfg(days: f64) -> SimConfig {
        let mut cfg = SimConfig::small(days);
        cfg.num_sensors = 30;
        cfg.num_targets = 2;
        cfg.num_rvs = 1;
        cfg.field_side = 50.0;
        cfg
    }

    fn jobs_of(cfg: &SimConfig, n: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|s| JobSpec::new(format!("point/seed={s}"), cfg, s))
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wrsn-agent-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Starts an agent on an ephemeral localhost port, returning its
    /// address. The serving thread lives for the rest of the test binary.
    fn start_agent(tag: &str) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let work_dir = tmp_dir(&format!("work-{tag}"));
        std::thread::spawn(move || {
            let _ = serve_listener(listener, work_dir);
        });
        addr
    }

    fn wait_verdict(mut poll: impl FnMut() -> Option<Result<(), String>>) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Some(v) = poll() {
                return v;
            }
            assert!(Instant::now() < deadline, "remote shard never finished");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn assert_bitwise_eq(
        merged: &[Result<SimOutcome, JobPanic>],
        reference: &[Result<SimOutcome, JobPanic>],
    ) {
        assert_eq!(merged.len(), reference.len());
        for (m, r) in merged.iter().zip(reference) {
            let (m, r) = (m.as_ref().unwrap(), r.as_ref().unwrap());
            assert_eq!(m.report, r.report);
            assert_eq!(m.total_drained_j.to_bits(), r.total_drained_j.to_bits());
        }
    }

    #[test]
    fn remote_shard_streams_a_journal_that_merges_bit_identically() {
        let addr = start_agent("happy");
        let cfg = tiny_cfg(0.1);
        let jobs = jobs_of(&cfg, 3);
        let dir = tmp_dir("happy-coord");
        let sup = SupervisorOptions::default();
        let spec = LaunchSpec {
            dir: &dir,
            shard: 0,
            attempt: 0,
            threads: 1,
            stall: false,
            jobs: &jobs,
            sup: &sup,
        };
        let opts = ShardOptions {
            agents: vec![addr],
            ..ShardOptions::default()
        };
        let mut handle = launch(&spec, &opts, grid_hash(&jobs)).expect("launch");
        wait_verdict(|| handle.poll()).expect("remote shard verdict");
        assert!(handle.heartbeat() >= 1, "heartbeats must have advanced");
        drop(handle);
        let merged = merge_shards(&jobs, &dir, &[(0, jobs.len())], &[]).expect("merge");
        let reference = run_supervised(&jobs, &sup, None);
        assert_bitwise_eq(&merged, &reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_assignment_yields_a_dead_handle_not_a_fallback() {
        let addr = start_agent("torn");
        let cfg = tiny_cfg(0.02);
        let jobs = jobs_of(&cfg, 2);
        let dir = tmp_dir("torn-coord");
        let sup = SupervisorOptions::default();
        let spec = LaunchSpec {
            dir: &dir,
            shard: 0,
            attempt: 0,
            threads: 1,
            stall: false,
            jobs: &jobs,
            sup: &sup,
        };
        match remote_launch(&addr, &spec, Some(NetChaos::TornAssign)) {
            RemoteLaunch::Handle(mut h) => {
                let why = wait_verdict(|| h.poll()).unwrap_err();
                assert!(why.contains("torn"), "{why}");
            }
            RemoteLaunch::Fallback(why) => panic!("torn assign must not fall back: {why}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stalled_agent_freezes_the_lease_and_kill_reaps_it() {
        let addr = start_agent("stall");
        let cfg = tiny_cfg(0.02);
        let jobs = jobs_of(&cfg, 2);
        let dir = tmp_dir("stall-coord");
        let sup = SupervisorOptions::default();
        let spec = LaunchSpec {
            dir: &dir,
            shard: 0,
            attempt: 0,
            threads: 1,
            stall: false,
            jobs: &jobs,
            sup: &sup,
        };
        let RemoteLaunch::Handle(mut h) = remote_launch(&addr, &spec, Some(NetChaos::StallAgent))
        else {
            panic!("healthy agent must not fall back");
        };
        std::thread::sleep(Duration::from_millis(400));
        assert!(h.poll().is_none(), "a stalled agent looks alive to poll");
        assert_eq!(h.heartbeat(), 0, "no heartbeats from a stalled agent");
        h.kill();
        let why = wait_verdict(|| h.poll()).unwrap_err();
        assert!(why.contains("severed"), "{why}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aborted_agent_resumes_on_the_next_attempt_without_rerunning_done_jobs() {
        let addr = start_agent("abort");
        // Slow enough that the 1 ms abort lands mid-run.
        let cfg = tiny_cfg(2.0);
        let jobs = jobs_of(&cfg, 2);
        let dir = tmp_dir("abort-coord");
        let sup = SupervisorOptions::default();
        let spec = LaunchSpec {
            dir: &dir,
            shard: 0,
            attempt: 0,
            threads: 1,
            stall: false,
            jobs: &jobs,
            sup: &sup,
        };
        let RemoteLaunch::Handle(mut h) = remote_launch(
            &addr,
            &spec,
            Some(NetChaos::AbortAgent(Duration::from_millis(1))),
        ) else {
            panic!("healthy agent must not fall back");
        };
        let first = wait_verdict(|| h.poll());
        drop(h);
        if first.is_err() {
            // The expected path: the link died mid-run; attempt 2 resumes
            // from whatever complete lines made it across.
            let retry = LaunchSpec { attempt: 1, ..spec };
            let RemoteLaunch::Handle(mut h) = remote_launch(&addr, &retry, None) else {
                panic!("healthy agent must not fall back");
            };
            wait_verdict(|| h.poll()).expect("retry verdict");
            drop(h);
        }
        let merged = merge_shards(&jobs, &dir, &[(0, jobs.len())], &[]).expect("merge");
        let reference = run_supervised(&jobs, &sup, None);
        assert_bitwise_eq(&merged, &reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A well-formed assignment of `jobs` that the agent would accept.
    fn assign_of(jobs: Vec<JobSpec>) -> wire::Assign {
        wire::Assign {
            shard: 0,
            attempt: 0,
            grid_hash: grid_hash(&jobs),
            threads: 1,
            retries: 1,
            retry_backoff_s: 0.05,
            timeout_s: -1.0,
            sim_time_cap_s: -1.0,
            stall: false,
            abort_after_ms: 0,
            jobs,
            prior_journal: String::new(),
        }
    }

    /// Sends `assign` to the agent at `addr` and returns its refusal.
    fn refusal(addr: &str, assign: wire::Assign) -> String {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = Writer::new(stream.try_clone().unwrap());
        writer
            .send(&Msg::Assign(Box::new(assign)))
            .expect("send assign");
        let mut reader = Reader::new(stream);
        match reader.recv() {
            Ok(Some(Msg::Refuse { reason })) => reason,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn agent_refuses_a_grid_hash_mismatch() {
        let addr = start_agent("refuse");
        let mut assign = assign_of(jobs_of(&tiny_cfg(0.02), 2));
        assign.grid_hash ^= 1;
        let reason = refusal(&addr, assign);
        assert!(reason.contains("grid hash mismatch"), "{reason}");
    }

    #[test]
    fn agent_refuses_seconds_no_duration_can_hold_and_a_sim_time_cap() {
        let addr = start_agent("refuse-seconds");
        let jobs = jobs_of(&tiny_cfg(0.02), 2);
        type Spoil = fn(&mut wire::Assign);
        let cases: [(&str, Spoil); 5] = [
            ("timeout_s inf", |a| a.timeout_s = f64::INFINITY),
            ("timeout_s 100000000000000000000", |a| a.timeout_s = 1e20),
            ("retry_backoff_s inf", |a| a.retry_backoff_s = f64::INFINITY),
            ("retry_backoff_s 100000000000000000000", |a| {
                a.retry_backoff_s = 1e20
            }),
            ("sim_time_cap_s 3600", |a| a.sim_time_cap_s = 3600.0),
        ];
        for (label, spoil) in cases {
            let mut assign = assign_of(jobs.clone());
            spoil(&mut assign);
            let reason = refusal(&addr, assign);
            assert!(reason.starts_with(label), "{label}: {reason}");
        }
    }

    #[test]
    fn absent_agent_classifies_as_fallback() {
        let cfg = tiny_cfg(0.02);
        let jobs = jobs_of(&cfg, 1);
        let dir = tmp_dir("absent-coord");
        let sup = SupervisorOptions::default();
        let spec = LaunchSpec {
            dir: &dir,
            shard: 0,
            attempt: 0,
            threads: 1,
            stall: false,
            jobs: &jobs,
            sup: &sup,
        };
        // Port 9 (discard) is essentially never open on CI boxes.
        match remote_launch("127.0.0.1:9", &spec, None) {
            RemoteLaunch::Fallback(why) => assert!(why.contains("connect failed"), "{why}"),
            RemoteLaunch::Handle(_) => panic!("a refused connect must classify as fallback"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
