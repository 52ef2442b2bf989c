//! The sweep front end shared by `wrsn sweep` and the figure binaries:
//! one flag tokenizer ([`Args`]), one flag list ([`SWEEP_FLAGS`]), one
//! mapping from flags to options ([`SweepOptions::from_flags`]) and one
//! run path ([`SweepOptions::run`]) that opens or resumes the journal and
//! runs the jobs on the shard fabric or in-process.

use crate::batch::{run_supervised, JobPanic, JobSpec, SupervisorOptions};
use crate::journal::Journal;
use crate::shard::{run_sharded, ShardOptions};
use crate::store::StoreConfig;
use crate::SimOutcome;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Every sweep flag, without its leading `--`, with the placeholder its
/// value is shown as (empty for a switch). [`SweepOptions`] documents
/// what each one does.
pub const SWEEP_FLAGS: [(&str, &str); 13] = [
    ("journal", "DIR"),
    ("resume", ""),
    ("timeout-s", "S"),
    ("retries", "N"),
    ("shards", "N"),
    ("shard-inflight", "N"),
    ("shard-retries", "N"),
    ("lease-timeout-s", "S"),
    ("chaos-workers", "P"),
    ("agents", "HOST:PORT,.."),
    ("chaos-net", "P"),
    ("store", "DIR"),
    ("store-snap-every", "N"),
];

/// Renders a flag list as `--name VALUE` words, for usage messages.
pub fn flag_usage(flags: &[(&str, &str)]) -> String {
    let words: Vec<String> = flags
        .iter()
        .map(|(name, value)| format!("--{name} {value}").trim_end().to_string())
        .collect();
    words.join(" ")
}

/// One flag's name and the value it was given, if any.
#[derive(Clone, Copy)]
struct Flag<'a>(&'a str, Option<&'a str>);

impl Flag<'_> {
    fn num<T: std::str::FromStr>(self, default: T) -> Result<T, String> {
        let Flag(name, value) = self;
        value.map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`"))
        })
    }

    /// Rejects negative, NaN, infinite and out-of-range seconds.
    fn secs(self) -> Result<Option<Duration>, String> {
        let Flag(name, Some(v)) = self else {
            return Ok(None);
        };
        Duration::try_from_secs_f64(self.num(0.0)?)
            .map(Some)
            .map_err(|e| format!("--{name}: `{v}` is not a valid number of seconds ({e})"))
    }

    fn switch(self) -> Result<bool, String> {
        match self {
            Flag(_, None) => Ok(false),
            Flag(_, Some("true")) => Ok(true),
            Flag(name, Some(v)) => Err(format!("--{name} takes no value, got `{v}`")),
        }
    }
}

/// A tokenized command line: a subcommand plus `--flag value` and
/// `--switch` pairs (std-only; the workspace has no CLI crate).
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The first non-flag token.
    pub command: Option<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses raw tokens. A token starting with `--` is a flag; it consumes
    /// the next token as its value unless that also starts with `--` (then
    /// it is a switch, with value `true`). The first non-flag token becomes
    /// the subcommand.
    ///
    /// # Errors
    /// Returns a message for stray non-flag tokens after the subcommand.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().unwrap(),
                    _ => String::from("true"),
                };
                out.flags.insert(name.to_string(), value);
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else {
                return Err(format!("unexpected argument `{tok}`"));
            }
        }
        Ok(out)
    }

    /// The names of every flag given, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }

    /// String flag with a default.
    pub fn get(&self, name: &str, default: &str) -> String {
        self.opt(name).unwrap_or(default).to_string()
    }

    /// Optional string flag.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Numeric flag with a default.
    ///
    /// # Errors
    /// Returns a message when the value does not parse.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Flag(name, self.opt(name)).num(default)
    }

    /// Switch flag: present ⇒ true.
    ///
    /// # Errors
    /// Returns a message when the switch was given a value.
    pub fn switch(&self, name: &str) -> Result<bool, String> {
        Flag(name, self.opt(name)).switch()
    }
}

/// How a sweep's jobs run, as the [`SWEEP_FLAGS`] set it:
///
/// * `--journal DIR` — keep a write-ahead run journal (a sharded sweep's
///   fabric) in `DIR`;
/// * `--resume` — replay it: completed jobs are restored bit for bit, the
///   rest rerun. Needs `--journal`, unless sharded with a default dir;
/// * `--timeout-s S` — per-attempt wall-clock watchdog; `0` (default): off;
/// * `--retries N` — extra attempts after a panic or timeout (default 1);
/// * `--shards N` — run on `N` supervised worker processes (DESIGN.md
///   §4g), merged byte-stably; `0` (default): in-process;
/// * `--shard-inflight N` — live workers (default `min(shards, cores)`);
/// * `--shard-retries N` — re-queues per shard (default 3);
/// * `--lease-timeout-s S` — kill a worker whose heartbeat stalls this
///   long (default 30, floored at 0.1);
/// * `--chaos-workers P` — kill or stall worker launches with probability P;
/// * `--agents HOST:PORT,..` — run shards on `wrsn agent` daemons
///   (DESIGN.md §4i); alone, one shard per agent;
/// * `--chaos-net P` — fault agent links with probability P;
/// * `--store DIR` — record every run into the run store under `DIR`;
/// * `--store-snap-every N` — recorded runs' snapshot interval in ticks.
///
/// Seconds flags reject negative, NaN, infinite and out-of-range values.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// The watchdog, retries and run store every job runs under.
    pub supervisor: SupervisorOptions,
    /// The journal (and, when sharded, fabric) directory.
    pub journal: Option<PathBuf>,
    /// Resume from the journal instead of starting fresh.
    pub resume: bool,
    /// The shard fabric; `None` runs in-process.
    pub fabric: Option<ShardOptions>,
}

impl SweepOptions {
    /// Maps the [`SWEEP_FLAGS`] onto options. `flag(name)` returns the
    /// value given for `--name` (`"true"` for a switch), or `None` when the
    /// flag is absent. Absent flags keep the [`SupervisorOptions`] and
    /// [`ShardOptions`] defaults.
    ///
    /// # Errors
    /// Returns a message naming the flag whose value is invalid, or
    /// `--resume needs --journal DIR` for an in-process resume without a
    /// journal.
    pub fn from_flags<'a>(flag: impl Fn(&str) -> Option<&'a str>) -> Result<Self, String> {
        let get = |name| Flag(name, flag(name));
        let agents: Vec<String> = flag("agents").map_or_else(Vec::new, |v| {
            v.split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(String::from)
                .collect()
        });
        let shards = match get("shards").num(0)? {
            0 => agents.len(),
            n => n,
        };
        let d = ShardOptions::default();
        let fabric = if shards == 0 {
            None
        } else {
            Some(ShardOptions {
                shards,
                max_inflight: get("shard-inflight").num(d.max_inflight)?,
                retries: get("shard-retries").num(d.retries)?,
                lease_timeout: get("lease-timeout-s")
                    .secs()?
                    .map_or(d.lease_timeout, |t| t.max(Duration::from_millis(100))),
                chaos_workers: get("chaos-workers").num(d.chaos_workers)?,
                chaos_net: get("chaos-net").num(d.chaos_net)?,
                agents,
            })
        };
        let journal = flag("journal").map(PathBuf::from);
        let resume = get("resume").switch()?;
        if resume && journal.is_none() && fabric.is_none() {
            return Err("--resume needs --journal DIR".into());
        }
        let store = flag("store")
            .map(|root| {
                let mut sc = StoreConfig::new(root);
                sc.snap_every = get("store-snap-every").num(sc.snap_every)?.max(1);
                Ok::<_, String>(sc)
            })
            .transpose()?;
        let sup = SupervisorOptions::default();
        Ok(Self {
            supervisor: SupervisorOptions {
                timeout: get("timeout-s").secs()?.filter(|t| !t.is_zero()),
                retries: get("retries").num(sup.retries)?,
                store,
                ..sup
            },
            journal,
            resume,
            fabric,
        })
    }

    /// Runs `jobs` and returns their outcomes in job order, the same bits
    /// whichever way they ran. A sharded sweep runs on the fabric in
    /// `--journal DIR`, or else in `default_fabric_dir`; with neither it
    /// is an error. Otherwise the jobs run in-process, journaled when a
    /// journal directory is set, and resumed from it with `--resume`.
    ///
    /// In a shard worker process this call never returns: the worker
    /// serves its one assignment and exits (see [`run_sharded`]).
    ///
    /// # Errors
    /// Returns a message when the journal cannot be opened or resumed
    /// (missing, or written for a different grid), or when the fabric
    /// cannot run.
    pub fn run(
        &self,
        jobs: &[JobSpec],
        default_fabric_dir: Option<&Path>,
    ) -> Result<Vec<Result<SimOutcome, JobPanic>>, String> {
        if let Some(fabric) = &self.fabric {
            let dir = self
                .journal
                .as_deref()
                .or(default_fabric_dir)
                .ok_or("--shards needs --journal DIR (the fabric's shard/journal directory)")?;
            return run_sharded(jobs, &self.supervisor, dir, fabric, self.resume)
                .map_err(|e| format!("sharded sweep in {}: {e}", dir.display()));
        }
        let journal = self
            .journal
            .as_ref()
            .map(|dir| {
                if self.resume {
                    Journal::resume(dir, jobs).inspect(|j| {
                        eprintln!(
                            "resuming from {}: {} of {} runs already complete",
                            j.path().display(),
                            j.completed_count(),
                            jobs.len()
                        );
                    })
                } else {
                    Journal::create(dir, jobs)
                }
                .map_err(|e| format!("run journal in {}: {e}", dir.display()))
            })
            .transpose()?;
        Ok(run_supervised(jobs, &self.supervisor, journal.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    fn sweep(flags: &str) -> Result<SweepOptions, String> {
        let a = args(flags);
        SweepOptions::from_flags(|name| a.opt(name))
    }

    #[test]
    fn command_and_flags() {
        let a = args("run --days 12 --scheduler combined --quick");
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.num("days", 0.0).unwrap(), 12.0);
        assert_eq!(a.get("scheduler", "greedy"), "combined");
        assert!(a.switch("quick").unwrap());
        assert!(!a.switch("verbose").unwrap());
        assert_eq!(
            a.names().collect::<Vec<_>>(),
            ["days", "quick", "scheduler"]
        );
    }

    #[test]
    fn defaults_apply() {
        let a = args("run");
        assert_eq!(a.num("seed", 7u64).unwrap(), 7);
        assert_eq!(a.get("scheduler", "combined"), "combined");
        assert!(a.opt("trace").is_none());
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = args("run --days banana");
        assert!(a.num("days", 1.0).is_err());
    }

    #[test]
    fn stray_token_is_an_error() {
        assert!(Args::parse(["run".into(), "extra".into()]).is_err());
    }

    #[test]
    fn boolean_flag_before_another_flag() {
        let a = args("run --quick --days 3");
        assert!(a.switch("quick").unwrap());
        assert_eq!(a.num("days", 0.0).unwrap(), 3.0);
    }

    #[test]
    fn a_switch_given_a_value_is_an_error() {
        assert!(args("--quick").switch("quick").unwrap());
        assert!(!args("").switch("quick").unwrap());
        let err = sweep("--journal j --resume yes").unwrap_err();
        assert_eq!(err, "--resume takes no value, got `yes`");
    }

    #[test]
    fn usage_lists_every_sweep_flag() {
        let usage = flag_usage(&SWEEP_FLAGS);
        assert!(
            usage.starts_with("--journal DIR --resume --timeout-s S "),
            "{usage}"
        );
        assert!(
            usage.ends_with("--store DIR --store-snap-every N"),
            "{usage}"
        );
    }

    #[test]
    fn defaults_run_in_process_without_a_watchdog() {
        let opts = sweep("").unwrap();
        assert!(opts.supervisor.timeout.is_none());
        assert_eq!(opts.supervisor.retries, 1);
        assert!(opts.supervisor.store.is_none());
        assert!(opts.journal.is_none() && !opts.resume && opts.fabric.is_none());
    }

    #[test]
    fn timeout_zero_disables_the_watchdog() {
        assert!(sweep("--timeout-s 0").unwrap().supervisor.timeout.is_none());
        assert_eq!(
            sweep("--timeout-s 5").unwrap().supervisor.timeout,
            Some(Duration::from_secs(5))
        );
        assert_eq!(
            sweep("--timeout-s 0.25").unwrap().supervisor.timeout,
            Some(Duration::from_millis(250))
        );
    }

    #[test]
    fn invalid_seconds_are_labelled_errors() {
        for flag in ["timeout-s", "lease-timeout-s"] {
            for bad in ["-1", "inf", "NaN", "1e30", "soon"] {
                let err = sweep(&format!("--shards 2 --{flag} {bad}")).unwrap_err();
                assert!(
                    err.starts_with(&format!("--{flag}: ")),
                    "{flag} {bad}: {err}"
                );
                assert!(err.contains(bad), "{flag} {bad}: {err}");
            }
        }
    }

    #[test]
    fn resume_needs_a_journal_unless_sharded() {
        assert_eq!(
            sweep("--resume").unwrap_err(),
            "--resume needs --journal DIR"
        );
        assert!(sweep("--resume --journal j").unwrap().resume);
        // A sharded sweep may resume its front end's default fabric dir.
        let opts = sweep("--resume --shards 2").unwrap();
        assert!(opts.resume && opts.journal.is_none());
    }

    #[test]
    fn sharded_without_any_fabric_dir_is_an_error() {
        let err = sweep("--shards 2").unwrap().run(&[], None).unwrap_err();
        assert!(err.contains("--journal"), "{err}");
    }

    #[test]
    fn fabric_flags_map_onto_shard_options_defaults() {
        assert!(sweep("--shards 0").unwrap().fabric.is_none());
        let defaults = ShardOptions::default();
        let fabric = sweep("--shards 3").unwrap().fabric.expect("sharded");
        assert_eq!(fabric.shards, 3);
        assert_eq!(fabric.retries, defaults.retries);
        assert_eq!(fabric.lease_timeout, defaults.lease_timeout);
        // `--agents` alone implies one shard per agent; the lease timeout
        // is floored.
        let fabric = sweep("--agents a:1,b:2 --lease-timeout-s 0 --shard-retries 5")
            .unwrap()
            .fabric
            .expect("sharded");
        assert_eq!(fabric.shards, 2);
        assert_eq!(fabric.agents, ["a:1", "b:2"]);
        assert_eq!(fabric.retries, 5);
        assert_eq!(fabric.lease_timeout, Duration::from_millis(100));
    }

    #[test]
    fn store_flags_configure_recording() {
        let store = sweep("--store runs --store-snap-every 0")
            .unwrap()
            .supervisor
            .store
            .expect("recording");
        assert_eq!(store.root, Path::new("runs"));
        assert_eq!(store.snap_every, 1);
    }

    #[test]
    fn resuming_a_missing_journal_is_a_labelled_error() {
        let dir = std::env::temp_dir().join(format!("wrsn-sweep-missing-{}", std::process::id()));
        let flags = format!("--journal {} --resume", dir.display());
        let err = sweep(&flags).unwrap().run(&[], None).unwrap_err();
        assert!(err.starts_with("run journal in "), "{err}");
    }
}
