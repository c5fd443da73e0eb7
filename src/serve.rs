//! Simulation-as-a-service: the `asura serve` daemon's fleet, queue, and
//! line protocol, and the supervised child both front-ends launch.
//!
//! One long-lived process owns a **run registry** (the [`Fleet`]): clients
//! submit a name from the [`scenarios`] registry plus [`RunOverrides`] and
//! get back a run id; runs move
//! `queued → running → completed | failed | gave_up | canceled`. A
//! scheduler dispatches queued runs up to a concurrency cap, and each
//! dispatched run is a **supervised child process**: the worker builds the
//! run's [`ChildRun`] and calls [`ChildRun::supervise`] under
//! [`ServeConfig::retry`] — the launch `asura --supervised` makes — so
//! every fleet run gets the same crash/hang detection, incident logging,
//! and checkpoint-rotation auto-resume, and concurrent runs overlap
//! compute as separate OS processes. The child is this executable, whose
//! path the daemon reads once at start.
//!
//! # The run child
//!
//! A child's whole description is one [`RunFlags`], which `asura`'s flag
//! loop reads and [`ChildRun::command`] writes: each flag is named once.
//!
//! # Protocol
//!
//! Newline-delimited text over TCP; one request line per connection, JSON
//! response line(s) back. A connection that sends nothing for 5 s is
//! dropped, so an idle client never holds a shut-down daemon open.
//!
//! ```text
//! SUBMIT <scenario> [<overrides-json>]   → {"ok":true,"id":"r0001-…"}
//! STATUS <run-id>                        → state, step/target, incidents, heartbeat age
//! LIST                                   → every run's id/scenario/state
//! WATCH <run-id>                         → streams diagnostics rows, then a done line
//! CANCEL <run-id>                        → kill (or dequeue) the run
//! SCENARIOS                              → the submittable scenarios
//! SHUTDOWN [DRAIN]                       → stop the daemon (see below)
//! ```
//!
//! Every response line is a JSON object with an `"ok"` field; errors are
//! `{"ok":false,"error":"…"}`. [`Request::parse`]/[`Request::render`] are
//! the single grammar definition, shared by the daemon and the client.
//!
//! # Durability
//!
//! The registry is persisted to `fleet.json` in the serve root with the
//! same atomic tmp→fsync→rename discipline as the checkpoints, after every
//! mutation. A restarted daemon re-adopts the file: `running` entries (the
//! previous daemon died underneath them) fall back to `queued` and are
//! dispatched again into the same run directory — every attempt of the
//! new worker, the first included, resumes from the rotation's newest
//! intact entry, so the re-run redoes only the steps after it and still
//! ends bitwise where an undisturbed run ends — and
//! any recorded child pid is best-effort killed first so an orphan can't
//! race the re-run.
//!
//! A running run is asked to stop by one [`StopReason`] per run id, which
//! its worker's abort hook reads: `CANCEL` files [`StopReason::Cancel`],
//! and `SHUTDOWN` files [`StopReason::Detach`] for every running run —
//! children are killed, their runs return to `queued` in `fleet.json`
//! with `supervisor.json` still `"running"`, and the next daemon start
//! runs them again as above. `SHUTDOWN DRAIN` files nothing: the daemon
//! stops dispatching and waits for the running runs to finish.
//!
//! The daemon's bound address is advertised in `serve.json` in the serve
//! root (removed on clean exit), so clients on the same machine need no
//! configuration beyond the root directory.

// no-panic-daemon: malformed input is a typed error, never a crashed fleet.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::scenarios;
use asura_core::ckpt::{atomic_write, CkptStore, DEFAULT_KEEP};
use asura_core::config::{Scheme, TimestepMode};
use asura_core::dist::PredictorSpec;
use asura_core::faults::{self, FaultPlan};
use asura_core::supervise::{
    Heartbeat, IncidentLog, Outcome, ResumePoint, RetryPolicy, StopReason, Supervisor,
    HEARTBEAT_FILE, LOG_FILE,
};
use json::{parse_json, Json};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::fmt::{self, Display};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `format` field of `fleet.json`.
pub const FLEET_FORMAT: &str = "asura-fleet";
/// `fleet.json` schema version.
pub const FLEET_VERSION: u64 = 1;
/// Registry file name under the serve root.
pub const FLEET_FILE: &str = "fleet.json";
/// Address-discovery file name under the serve root.
pub const ADDR_FILE: &str = "serve.json";
/// The longest request line the daemon reads, newline included.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;
/// How long the daemon waits on each read of a request line: a client
/// that connects and sends nothing is dropped after it, so it cannot keep
/// a shut-down daemon waiting on its connection thread.
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A success response line: `{"ok":true,…fields}`.
fn ok_line<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> String {
    Json::obj([("ok", true.into())].into_iter().chain(fields)).render()
}

/// A standard error response line.
pub fn err_line(msg: &str) -> String {
    Json::obj([("ok", false.into()), ("error", msg.into())]).render()
}

/// Whether a response line reports success. Only an `"ok":false` object
/// is a failure; `WATCH`'s sample rows carry no `ok` field at all.
pub fn reply_ok(line: &str) -> bool {
    !matches!(
        parse_json(line).map(|doc| doc.at("ok", Json::as_bool)),
        Ok(Ok(false))
    )
}

/// Lifecycle state of a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    Queued,
    Running,
    Completed,
    /// The child failed permanently (non-retryable exit code) or the
    /// worker itself hit an I/O error.
    Failed,
    /// The supervisor exhausted its retry budget.
    GaveUp,
    Canceled,
}

impl RunState {
    pub fn as_str(self) -> &'static str {
        match self {
            RunState::Queued => "queued",
            RunState::Running => "running",
            RunState::Completed => "completed",
            RunState::Failed => "failed",
            RunState::GaveUp => "gave_up",
            RunState::Canceled => "canceled",
        }
    }

    pub fn parse(s: &str) -> Option<RunState> {
        Some(match s {
            "queued" => RunState::Queued,
            "running" => RunState::Running,
            "completed" => RunState::Completed,
            "failed" => RunState::Failed,
            "gave_up" => RunState::GaveUp,
            "canceled" => RunState::Canceled,
            _ => return None,
        })
    }

    /// Terminal states never leave the registry's history.
    pub fn is_terminal(self) -> bool {
        !matches!(self, RunState::Queued | RunState::Running)
    }
}

/// Per-run configuration accepted in `SUBMIT`'s overrides JSON. Every
/// field is optional; unknown keys are rejected at submit time (a typo'd
/// override must not silently run with defaults). Values are held as the
/// types the CLI flags parse into, spelled by the same `FromStr` /
/// `Display` pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOverrides {
    /// Target step count (default: the scenario's registered default).
    pub steps: Option<u64>,
    pub seed: Option<u64>,
    pub scheme: Option<Scheme>,
    pub timestep: Option<TimestepMode>,
    /// Checkpoint cadence in steps (serve default: 1, so auto-resume
    /// always has a fresh rotation entry).
    pub snapshot_every: Option<u64>,
    /// An `ASURA_FAULTS` plan set on this run's children only — the
    /// daemon-level chaos tests kill one fleet member without touching
    /// its neighbors.
    pub faults: Option<String>,
}

impl RunOverrides {
    /// Parse and validate the overrides object of a `SUBMIT` request.
    pub fn from_json(doc: &Json) -> Result<RunOverrides, String> {
        let Json::Obj(fields) = doc else {
            return Err(format!("overrides must be a JSON object, got {doc:?}"));
        };
        let mut o = RunOverrides::default();
        for (key, value) in fields {
            let mut set = || -> Result<(), String> {
                match key.as_str() {
                    "steps" => o.steps = Some(value.as_u64()?),
                    "seed" => o.seed = Some(value.as_u64()?),
                    "snapshot_every" => o.snapshot_every = Some(value.as_u64()?),
                    "scheme" => o.scheme = Some(value.as_parsed()?),
                    "timestep" => o.timestep = Some(value.as_parsed()?),
                    "faults" => {
                        let plan = value.as_str()?;
                        FaultPlan::parse(plan)?;
                        o.faults = Some(plan.to_string());
                    }
                    _ => return Err("unknown override".into()),
                }
                Ok(())
            };
            set().map_err(|e| format!("`{key}`: {e}"))?;
        }
        Ok(o)
    }

    /// Only the set fields, in declaration order.
    fn to_value(&self) -> Json {
        fn spelled(v: Option<impl fmt::Display>) -> Option<Json> {
            v.map(|v| v.to_string().into())
        }
        let fields = [
            ("steps", self.steps.map(Json::from)),
            ("seed", self.seed.map(Json::from)),
            ("scheme", spelled(self.scheme)),
            ("timestep", spelled(self.timestep)),
            ("snapshot_every", self.snapshot_every.map(Json::from)),
            ("faults", spelled(self.faults.as_ref())),
        ];
        Json::obj(fields.into_iter().filter_map(|(k, v)| Some((k, v?))))
    }

    /// Compact JSON rendering of [`RunOverrides::from_json`]'s input.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }
}

/// One run in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEntry {
    /// `r<seq>-<scenario>`, also the run's directory name under the root.
    pub id: String,
    pub scenario: String,
    pub state: RunState,
    /// Absolute step the run integrates to (every resumed attempt ends at
    /// the same step, so the bitwise-determinism contract holds).
    pub target_steps: u64,
    /// OS pid of the currently-running child, for orphan cleanup when a
    /// killed daemon's registry is re-adopted.
    pub child_pid: Option<u32>,
    pub overrides: RunOverrides,
}

impl RunEntry {
    /// The fields `fleet.json`, `LIST` and `STATUS` all lead a run with.
    fn summary(&self) -> [(&'static str, Json); 4] {
        [
            ("id", self.id.as_str().into()),
            ("scenario", self.scenario.as_str().into()),
            ("state", self.state.as_str().into()),
            ("target_steps", self.target_steps.into()),
        ]
    }
}

/// A recorded child pid. [`Fleet::adopt`] hands these to `kill -9`, where
/// 0 is the daemon's own process group and a truncated value is someone
/// else's process — so anything that is not a pid is a malformed file.
fn as_pid(v: &Json) -> Result<u32, String> {
    match v.as_i32()? {
        pid if pid > 0 => Ok(pid.unsigned_abs()),
        other => Err(format!("{other} is not a process id")),
    }
}

/// The run registry: submit/lookup plus `fleet.json` (de)serialization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fleet {
    next_seq: u64,
    pub runs: Vec<RunEntry>,
}

impl Fleet {
    /// Register a new queued run and return its id.
    pub fn submit(
        &mut self,
        scenario: &str,
        default_steps: u64,
        overrides: RunOverrides,
    ) -> String {
        self.next_seq += 1;
        let id = format!("r{:04}-{scenario}", self.next_seq);
        self.runs.push(RunEntry {
            id: id.clone(),
            scenario: scenario.to_string(),
            state: RunState::Queued,
            target_steps: overrides.steps.unwrap_or(default_steps),
            child_pid: None,
            overrides,
        });
        id
    }

    pub fn get(&self, id: &str) -> Option<&RunEntry> {
        self.runs.iter().find(|r| r.id == id)
    }

    pub fn get_mut(&mut self, id: &str) -> Option<&mut RunEntry> {
        self.runs.iter_mut().find(|r| r.id == id)
    }

    pub fn running_count(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.state == RunState::Running)
            .count()
    }

    /// Adopt a registry left behind by a dead daemon: `running` entries
    /// fall back to `queued` (their next attempt resumes from the run
    /// directory's rotation). Returns the orphaned child pids so the
    /// caller can reap them before re-dispatching.
    pub fn adopt(&mut self) -> Vec<u32> {
        let mut stale = Vec::new();
        for run in &mut self.runs {
            if run.state == RunState::Running {
                run.state = RunState::Queued;
                if let Some(pid) = run.child_pid.take() {
                    stale.push(pid);
                }
            }
        }
        stale
    }

    pub fn to_json(&self) -> String {
        let run = |r: &RunEntry| {
            let rest = [
                ("child_pid", r.child_pid.into()),
                ("overrides", r.overrides.to_value()),
            ];
            Json::obj(r.summary().into_iter().chain(rest))
        };
        let doc = Json::obj([
            ("format", FLEET_FORMAT.into()),
            ("version", FLEET_VERSION.into()),
            ("next_seq", self.next_seq.into()),
            ("runs", Json::Arr(self.runs.iter().map(run).collect())),
        ]);
        doc.render() + "\n"
    }

    pub fn from_json(text: &str) -> Result<Fleet, String> {
        let doc = parse_json(text)?;
        doc.expect_header(FLEET_FORMAT, FLEET_VERSION)?;
        let run = |item: &Json| -> Result<RunEntry, String> {
            let state = item.at("state", Json::as_str)?;
            Ok(RunEntry {
                id: item.at("id", Json::as_str)?.to_string(),
                scenario: item.at("scenario", Json::as_str)?.to_string(),
                state: RunState::parse(state)
                    .ok_or_else(|| format!("unknown run state `{state}`"))?,
                target_steps: item.at("target_steps", Json::as_u64)?,
                child_pid: item.at("child_pid", |v| v.as_opt(as_pid))?,
                overrides: item.at("overrides", RunOverrides::from_json)?,
            })
        };
        let runs = doc.at("runs", Json::as_arr)?;
        Ok(Fleet {
            next_seq: doc.at("next_seq", Json::as_u64)?,
            runs: runs.iter().map(run).collect::<Result<_, _>>()?,
        })
    }

    /// Atomically persist the registry.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        atomic_write(path, self.to_json().as_bytes())
    }
}

/// A parsed protocol request. [`Request::parse`] and [`Request::render`]
/// are exact inverses; the grammar lives nowhere else.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Submit {
        scenario: String,
        overrides: RunOverrides,
    },
    Status {
        id: String,
    },
    List,
    Watch {
        id: String,
    },
    Cancel {
        id: String,
    },
    Scenarios,
    Shutdown {
        drain: bool,
    },
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let line = line.trim();
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        let arg = |what: &str| -> Result<String, String> {
            if rest.is_empty() || rest.contains(' ') {
                Err(format!("usage: {verb} <{what}>"))
            } else {
                Ok(rest.to_string())
            }
        };
        let none = |req: Request| -> Result<Request, String> {
            if rest.is_empty() {
                Ok(req)
            } else {
                Err(format!("{verb} takes no argument"))
            }
        };
        match verb {
            "SUBMIT" => {
                let (scenario, json) = match rest.split_once(' ') {
                    Some((s, j)) => (s, j.trim()),
                    None => (rest, ""),
                };
                if scenario.is_empty() {
                    return Err("usage: SUBMIT <scenario> [<overrides-json>]".into());
                }
                let overrides = if json.is_empty() {
                    RunOverrides::default()
                } else {
                    RunOverrides::from_json(&parse_json(json)?)?
                };
                Ok(Request::Submit {
                    scenario: scenario.to_string(),
                    overrides,
                })
            }
            "STATUS" => Ok(Request::Status { id: arg("run-id")? }),
            "LIST" => none(Request::List),
            "WATCH" => Ok(Request::Watch { id: arg("run-id")? }),
            "CANCEL" => Ok(Request::Cancel { id: arg("run-id")? }),
            "SCENARIOS" => none(Request::Scenarios),
            "SHUTDOWN" => match rest {
                "" => Ok(Request::Shutdown { drain: false }),
                "DRAIN" => Ok(Request::Shutdown { drain: true }),
                other => Err(format!("SHUTDOWN takes only DRAIN, got `{other}`")),
            },
            "" => Err("empty request".into()),
            other => Err(format!("unknown request `{other}`")),
        }
    }

    /// Render the wire form (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Request::Submit {
                scenario,
                overrides,
            } => {
                if *overrides == RunOverrides::default() {
                    format!("SUBMIT {scenario}")
                } else {
                    format!("SUBMIT {scenario} {}", overrides.to_json())
                }
            }
            Request::Status { id } => format!("STATUS {id}"),
            Request::List => "LIST".into(),
            Request::Watch { id } => format!("WATCH {id}"),
            Request::Cancel { id } => format!("CANCEL {id}"),
            Request::Scenarios => "SCENARIOS".into(),
            Request::Shutdown { drain: false } => "SHUTDOWN".into(),
            Request::Shutdown { drain: true } => "SHUTDOWN DRAIN".into(),
        }
    }
}

/// `--seed` when the flag (or a fleet run's override) is absent.
pub const DEFAULT_SEED: u64 = 42;

/// `--dist`'s main-rank grid and pool rank count, spelled `NXxNYxNZ+P`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistSpec {
    /// Main-rank grid; `nx * ny * nz` main ranks.
    pub grid: (usize, usize, usize),
    pub n_pool: usize,
}

impl FromStr for DistSpec {
    type Err = String;
    fn from_str(spec: &str) -> Result<DistSpec, String> {
        let bad = || format!("expected NXxNYxNZ+P (e.g. 2x1x1+1), got `{spec}`");
        let (grid, pool) = spec.split_once('+').ok_or_else(bad)?;
        let dims: Vec<usize> = grid
            .split('x')
            .map(|d| d.parse::<usize>().map_err(|_| bad()))
            .collect::<Result<_, _>>()?;
        let [nx, ny, nz] = dims[..] else {
            return Err(bad());
        };
        let n_pool = pool.parse::<usize>().map_err(|_| bad())?;
        let Some(n_main) = nx.checked_mul(ny).and_then(|n| n.checked_mul(nz)) else {
            return Err(format!("{nx}*{ny}*{nz} main ranks overflow, got `{spec}`"));
        };
        if n_main == 0 {
            return Err(format!("needs at least one main rank, got `{spec}`"));
        }
        if n_pool == 0 {
            return Err(format!(
                "needs at least one pool rank (the surrogate scheme ships SN regions \
                 to the pool), got `{spec}`"
            ));
        }
        Ok(DistSpec {
            grid: (nx, ny, nz),
            n_pool,
        })
    }
}

impl Display for DistSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (x, y, z) = self.grid;
        write!(f, "{x}x{y}x{z}+{}", self.n_pool)
    }
}

/// The base name of a run's checkpoint rotation: `--dist` runs rotate
/// `dist_checkpoint-<step>.bin`, shared-memory runs `checkpoint-<step>.bin`.
pub fn ckpt_base(dist: Option<DistSpec>) -> &'static str {
    match dist {
        Some(_) => "dist_checkpoint",
        None => "checkpoint",
    }
}

/// The flags a run child takes (`asura --help` says what each means):
/// `asura`'s scenario flag loop reads them ([`RunFlags::read`]) and
/// [`ChildRun`] writes them for each attempt ([`RunFlags::args`]).
/// `RunFlags::fields` is the one place a flag is named; each value is
/// spelled by its type's `FromStr` / `Display` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFlags {
    pub scenario: Option<String>,
    pub steps: Option<u64>,
    pub resume: Option<PathBuf>,
    pub scheme: Option<Scheme>,
    pub timestep: Option<TimestepMode>,
    pub snapshot_every: Option<u64>,
    pub seed: u64,
    pub predictor: Option<PredictorSpec>,
    pub dist: Option<DistSpec>,
    /// The exact artifact directory, instead of `<out-dir>/<scenario>`.
    pub run_dir: Option<PathBuf>,
    /// Checkpoint rotation depth, at least 1.
    pub keep: usize,
    /// The file a supervised child touches after every step.
    pub heartbeat: Option<PathBuf>,
}

impl Default for RunFlags {
    fn default() -> RunFlags {
        RunFlags {
            scenario: None,
            steps: None,
            resume: None,
            scheme: None,
            timestep: None,
            snapshot_every: None,
            seed: DEFAULT_SEED,
            predictor: None,
            dist: None,
            run_dir: None,
            keep: DEFAULT_KEEP,
            heartbeat: None,
        }
    }
}

impl RunFlags {
    /// Every flag with its field, in the order a child's command line
    /// carries them.
    fn fields(&mut self) -> [(&'static str, &mut dyn FlagValue); 12] {
        [
            ("--scenario", &mut self.scenario),
            ("--steps", &mut self.steps),
            ("--resume", &mut self.resume),
            ("--scheme", &mut self.scheme),
            ("--timestep", &mut self.timestep),
            ("--snapshot-every", &mut self.snapshot_every),
            ("--seed", &mut self.seed),
            ("--predictor", &mut self.predictor),
            ("--dist", &mut self.dist),
            ("--run-dir", &mut self.run_dir),
            ("--keep", &mut self.keep),
            ("--heartbeat", &mut self.heartbeat),
        ]
    }

    /// Read `flag` with the value `value` hands out, if it is a run flag;
    /// `Ok(false)` leaves any other flag to the caller.
    pub fn read<'v>(
        &mut self,
        flag: &str,
        value: impl FnOnce() -> Result<&'v str, String>,
    ) -> Result<bool, String> {
        let Some((_, field)) = self.fields().into_iter().find(|(name, _)| *name == flag) else {
            return Ok(false);
        };
        field.read(value()?).map_err(|e| format!("{flag}{e}"))?;
        Ok(true)
    }

    /// The command line [`RunFlags::read`] reads back into these flags:
    /// every set field, as its flag and value.
    pub fn args(mut self) -> Vec<OsString> {
        let fields = self.fields().into_iter();
        let set = fields.filter_map(|(flag, field)| Some([flag.into(), field.write()?]));
        set.flatten().collect()
    }
}

/// A [`RunFlags`] field: read from its flag's value (a refusal is the
/// text after the flag's name), and written back as that value (`None`
/// leaves the flag out).
trait FlagValue {
    fn read(&mut self, value: &str) -> Result<(), String>;
    fn write(&self) -> Option<OsString>;
}

/// `value` as a `T`, or why not.
fn parsed<T: FromStr>(value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!(": {e}"))
}

/// Optional fields spelled by their type.
macro_rules! spelled_by_type {
    ($($ty:ty),*) => {$(
        impl FlagValue for Option<$ty> {
            fn read(&mut self, value: &str) -> Result<(), String> {
                *self = Some(parsed(value)?);
                Ok(())
            }
            fn write(&self) -> Option<OsString> {
                Some(self.as_ref()?.to_string().into())
            }
        }
    )*};
}
spelled_by_type!(String, u64, Scheme, TimestepMode, PredictorSpec, DistSpec);

impl FlagValue for Option<PathBuf> {
    fn read(&mut self, value: &str) -> Result<(), String> {
        *self = Some(value.into());
        Ok(())
    }
    fn write(&self) -> Option<OsString> {
        Some(self.as_ref()?.into())
    }
}

/// `--seed`, always written.
impl FlagValue for u64 {
    fn read(&mut self, value: &str) -> Result<(), String> {
        *self = parsed(value)?;
        Ok(())
    }
    fn write(&self) -> Option<OsString> {
        Some(self.to_string().into())
    }
}

/// `--keep`, at least 1 and always written.
impl FlagValue for usize {
    fn read(&mut self, value: &str) -> Result<(), String> {
        match parsed(value)? {
            0 => Err(" must be at least 1".into()),
            n => {
                *self = n;
                Ok(())
            }
        }
    }
    fn write(&self) -> Option<OsString> {
        Some(self.to_string().into())
    }
}

/// What a supervised child process is told, whoever launches it — the
/// `--supervised` parent hands over its own flags ([`ChildRun::new`]), the
/// daemon fills them from a fleet run's entry ([`ChildRun::fleet`]).
pub struct ChildRun {
    /// Every attempt's flags but its own `--steps`, `--resume` and
    /// `--heartbeat`; `run_dir` is always set.
    flags: RunFlags,
    /// The run's target in *absolute* steps: a resumed attempt is handed
    /// `target - resume_step`, so every attempt ends at the same final
    /// step — which is what makes the chaos tests' bitwise final-state
    /// comparison meaningful.
    pub target_steps: u64,
    /// An `ASURA_FAULTS` plan set on this child only; without one the
    /// child inherits the launcher's environment.
    faults: Option<String>,
}

impl ChildRun {
    /// The child that runs `flags` in `run_dir` to `target_steps`.
    pub fn new(flags: RunFlags, run_dir: &Path, target_steps: u64) -> ChildRun {
        let flags = RunFlags {
            run_dir: Some(run_dir.to_path_buf()),
            ..flags
        };
        ChildRun {
            flags,
            target_steps,
            faults: None,
        }
    }

    /// A fleet run's child, from its registry entry: the overrides, the
    /// CLI's default seed, and a checkpoint every step unless overridden
    /// (auto-resume should never replay more than one step of lost work).
    pub fn fleet(run: &RunEntry, run_dir: &Path, keep: usize) -> ChildRun {
        let o = &run.overrides;
        let flags = RunFlags {
            scenario: Some(run.scenario.clone()),
            scheme: o.scheme,
            timestep: o.timestep,
            snapshot_every: Some(o.snapshot_every.unwrap_or(1)),
            seed: o.seed.unwrap_or(DEFAULT_SEED),
            keep,
            ..RunFlags::default()
        };
        ChildRun {
            faults: o.faults.clone(),
            ..ChildRun::new(flags, run_dir, run.target_steps)
        }
    }

    /// The run's directory: artifacts, rotation, heartbeat and incident
    /// log.
    fn run_dir(&self) -> &Path {
        self.flags.run_dir.as_deref().unwrap_or(Path::new(""))
    }

    /// The run's checkpoint rotation.
    pub fn store(&self) -> CkptStore {
        CkptStore::with_base(self.run_dir(), ckpt_base(self.flags.dist), self.flags.keep)
    }

    /// The child's command line for one attempt.
    pub fn command(&self, exe: &Path, heartbeat: &Path, resume: Option<&ResumePoint>) -> Command {
        let done = resume.map_or(0, |rp| rp.step);
        let attempt = RunFlags {
            steps: Some(self.target_steps.saturating_sub(done)),
            resume: resume.map(|rp| rp.path.clone()),
            heartbeat: Some(heartbeat.to_path_buf()),
            ..self.flags.clone()
        };
        let mut cmd = Command::new(exe);
        cmd.args(attempt.args());
        if let Some(plan) = &self.faults {
            cmd.env(faults::FAULTS_ENV, plan);
        }
        cmd
    }

    /// Run `exe` as this run's child under `retry` until it completes,
    /// fails for good, gives up or is stopped, every attempt resuming from
    /// the run directory's rotation ([`Supervisor::run_processes`]): the
    /// heartbeat and incident log live in the run directory.
    /// `on_spawn(attempt, resume, pid)` sees each child once it runs;
    /// `abort` is the stop hook.
    pub fn supervise(
        &self,
        exe: &Path,
        retry: RetryPolicy,
        on_spawn: impl FnMut(u32, Option<&ResumePoint>, u32),
        abort: impl Fn() -> Option<StopReason>,
    ) -> io::Result<(Option<Outcome>, IncidentLog)> {
        let supervisor = Supervisor::for_run_dir(self.run_dir(), retry);
        let heartbeat = &supervisor.heartbeat_path;
        supervisor.run_processes(
            &self.store(),
            |resume| Ok(self.command(exe, heartbeat, resume)),
            on_spawn,
            abort,
        )
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Serve root: `fleet.json`, `serve.json`, and one directory per run.
    pub root: PathBuf,
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral port, advertised
    /// in `serve.json`).
    pub addr: String,
    /// Concurrency cap of the job queue.
    pub max_concurrent: usize,
    /// Supervision policy applied to every worker.
    pub retry: RetryPolicy,
    /// Checkpoint rotation depth of each run directory.
    pub keep: usize,
}

impl ServeConfig {
    /// A num-cpus-aware concurrency default (at least 2, so overlap is on
    /// by default even on small machines — runs are separate processes,
    /// so their I/O still interleaves on one core).
    pub fn default_max_concurrent() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2)
    }
}

struct Shared {
    cfg: ServeConfig,
    /// The executable every worker launches as its run's child.
    exe: PathBuf,
    fleet: Mutex<Fleet>,
    /// Stop requests for running runs, by run id: what each worker's abort
    /// hook answers. Filed under the fleet lock (fleet, then stops), and
    /// a worker clears its entry after its run has left `running`.
    stops: Mutex<BTreeMap<String, StopReason>>,
    /// Set by either `SHUTDOWN`: no more dispatches or submissions.
    shutdown: AtomicBool,
}

impl Shared {
    fn fleet_path(&self) -> PathBuf {
        self.cfg.root.join(FLEET_FILE)
    }

    /// Persist the registry (callers hold the fleet lock).
    fn save(&self, fleet: &Fleet) {
        if let Err(e) = fleet.save(&self.fleet_path()) {
            eprintln!("[serve] writing {}: {e}", self.fleet_path().display());
        }
    }
}

/// Read the daemon's advertised address from `<root>/serve.json`.
pub fn read_serve_addr(root: &Path) -> Option<String> {
    let text = std::fs::read_to_string(root.join(ADDR_FILE)).ok()?;
    let doc = parse_json(&text).ok()?;
    Some(doc.at("addr", Json::as_str).ok()?.to_string())
}

/// Send a request line; the response lines stream back from the returned
/// reader as they arrive. The write half is shut down after the request
/// so streaming responses (WATCH) end with EOF.
pub fn send(addr: &str, line: &str) -> io::Result<BufReader<TcpStream>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    stream.shutdown(std::net::Shutdown::Write)?;
    Ok(BufReader::new(stream))
}

/// One-shot client: send a request line, return every response line.
pub fn request(addr: &str, line: &str) -> io::Result<Vec<String>> {
    send(addr, line)?.lines().collect()
}

/// Run the daemon: bind, adopt any existing `fleet.json`, then accept and
/// dispatch until a `SHUTDOWN` request completes. Returns after the
/// registry is saved and `serve.json` removed.
pub fn serve(cfg: ServeConfig) -> io::Result<()> {
    let exe = std::env::current_exe()?;
    std::fs::create_dir_all(&cfg.root)?;
    let fleet_path = cfg.root.join(FLEET_FILE);
    let mut fleet = match std::fs::read_to_string(&fleet_path) {
        Ok(text) => Fleet::from_json(&text)
            .map_err(|e| io::Error::other(format!("{}: {e}", fleet_path.display())))?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Fleet::default(),
        Err(e) => return Err(e),
    };
    let stale = fleet.adopt();
    for pid in stale {
        kill_stale(pid);
    }
    fleet.save(&fleet_path)?;

    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let advert = Json::obj([
        ("addr", addr.to_string().into()),
        ("pid", std::process::id().into()),
    ]);
    atomic_write(
        &cfg.root.join(ADDR_FILE),
        (advert.render() + "\n").as_bytes(),
    )?;
    println!(
        "[serve] listening on {addr} (root {}, max {} concurrent, {} queued run(s) adopted)",
        cfg.root.display(),
        cfg.max_concurrent,
        fleet
            .runs
            .iter()
            .filter(|r| r.state == RunState::Queued)
            .count(),
    );

    let shared = Arc::new(Shared {
        cfg,
        exe,
        fleet: Mutex::new(fleet),
        stops: Mutex::new(BTreeMap::new()),
        shutdown: AtomicBool::new(false),
    });
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();

    loop {
        workers.extend(dispatch(&shared));
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                conns.push(std::thread::spawn(move || handle_conn(&shared, stream)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
        // Exit once a shutdown was requested and every worker has wound
        // down (drain: runs finished; detach: runs back to queued).
        if shared.shutdown.load(Ordering::SeqCst) && shared.fleet.lock().running_count() == 0 {
            break;
        }
        workers.retain(|h| !h.is_finished());
        conns.retain(|h| !h.is_finished());
    }
    for h in workers {
        let _ = h.join();
    }
    for h in conns {
        let _ = h.join();
    }
    {
        let fleet = shared.fleet.lock();
        shared.save(&fleet);
    }
    let _ = std::fs::remove_file(shared.cfg.root.join(ADDR_FILE));
    println!("[serve] shut down cleanly");
    Ok(())
}

/// Best-effort reap of an orphaned child recorded by a dead daemon.
fn kill_stale(pid: u32) {
    #[cfg(unix)]
    {
        eprintln!("[serve] killing stale child pid {pid}");
        let _ = std::process::Command::new("kill")
            .args(["-9", &pid.to_string()])
            .status();
    }
    #[cfg(not(unix))]
    {
        eprintln!("[serve] stale child pid {pid} recorded; no reaper on this platform");
    }
}

/// Move queued runs into workers until the concurrency cap is reached, or
/// none once a shutdown was requested. The flag is read under the fleet
/// lock, so a `SHUTDOWN` that files its detaches after this sees every run
/// marked `running` here.
fn dispatch(shared: &Arc<Shared>) -> Vec<std::thread::JoinHandle<()>> {
    let mut handles = Vec::new();
    let mut fleet = shared.fleet.lock();
    while !shared.shutdown.load(Ordering::SeqCst)
        && fleet.running_count() < shared.cfg.max_concurrent
    {
        let Some(run) = fleet.runs.iter_mut().find(|r| r.state == RunState::Queued) else {
            break;
        };
        run.state = RunState::Running;
        let id = run.id.clone();
        shared.save(&fleet);
        let shared = shared.clone();
        handles.push(std::thread::spawn(move || worker(&shared, &id)));
    }
    handles
}

/// Drive one run to a terminal state (or detach) under supervision.
fn worker(shared: &Arc<Shared>, id: &str) {
    // The dispatcher registers the run before spawning this thread; if the
    // entry has vanished anyway the worker has nothing to drive.
    let Some(entry) = shared.fleet.lock().get(id).cloned() else {
        eprintln!("[serve] run {id}: dispatched run missing from registry");
        return;
    };
    let run_dir = shared.cfg.root.join(id);
    let child = ChildRun::fleet(&entry, &run_dir, shared.cfg.keep);
    let result = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("create {}: {e}", run_dir.display()))
        .and_then(|()| {
            let record_pid = |_, _: Option<&ResumePoint>, pid| {
                let mut fleet = shared.fleet.lock();
                if let Some(run) = fleet.get_mut(id) {
                    run.child_pid = Some(pid);
                }
                shared.save(&fleet);
            };
            let stop = || shared.stops.lock().get(id).copied();
            let supervised = child.supervise(&shared.exe, shared.cfg.retry, record_pid, stop);
            supervised
                .map(|(outcome, _log)| outcome)
                .map_err(|e| format!("supervisor: {e}"))
        });
    let state = match result {
        Ok(Some(Outcome::Completed { .. })) => RunState::Completed,
        Ok(Some(Outcome::GaveUp { .. })) => RunState::GaveUp,
        Ok(Some(Outcome::Permanent { .. })) => RunState::Failed,
        Ok(Some(Outcome::Canceled { .. })) => RunState::Canceled,
        // Detached: back to the queue, adoptable by the next daemon.
        Ok(None) => RunState::Queued,
        Err(e) => {
            eprintln!("[serve] run {id}: {e}");
            RunState::Failed
        }
    };
    let mut fleet = shared.fleet.lock();
    if let Some(run) = fleet.get_mut(id) {
        run.state = state;
        run.child_pid = None;
    }
    shared.save(&fleet);
    drop(fleet);
    shared.stops.lock().remove(id);
    println!("[serve] run {id}: {}", state.as_str());
}

/// Serve one client connection: read a request line, write response
/// line(s).
fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let timed = stream.set_read_timeout(Some(REQUEST_READ_TIMEOUT));
    let mut reader = BufReader::new(match timed.and_then(|()| stream.try_clone()) {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut out = stream;
    let mut line = String::new();
    let cap = MAX_REQUEST_BYTES as u64 + 1;
    if (&mut reader).take(cap).read_line(&mut line).is_err() {
        return;
    }
    if line.len() > MAX_REQUEST_BYTES {
        let msg = format!("request line longer than {MAX_REQUEST_BYTES} bytes");
        let _ = writeln!(out, "{}", err_line(&msg));
        // Read the rest into nothing: a close on unread bytes is a reset,
        // which can discard the reply before the client reads it.
        let _ = io::copy(&mut reader, &mut io::sink());
        return;
    }
    let reply = match Request::parse(&line) {
        Err(e) => err_line(&e),
        Ok(Request::Submit {
            scenario,
            overrides,
        }) => submit(shared, &scenario, overrides),
        Ok(Request::Status { id }) => status_line(shared, &id),
        Ok(Request::List) => list_line(shared),
        Ok(Request::Cancel { id }) => cancel(shared, &id),
        Ok(Request::Scenarios) => scenarios_line(),
        Ok(Request::Shutdown { drain }) => shutdown(shared, drain),
        Ok(Request::Watch { id }) => {
            let _ = watch(shared, &id, &mut out);
            return;
        }
    };
    let _ = writeln!(out, "{reply}");
}

fn submit(shared: &Arc<Shared>, scenario: &str, overrides: RunOverrides) -> String {
    if shared.shutdown.load(Ordering::SeqCst) {
        return err_line("daemon is shutting down");
    }
    let found = match scenarios::lookup(scenario) {
        Ok(found) => found,
        Err(e) => return err_line(&e),
    };
    let mut fleet = shared.fleet.lock();
    let id = fleet.submit(scenario, found.default_steps as u64, overrides);
    shared.save(&fleet);
    ok_line([("id", id.into())])
}

fn status_line(shared: &Arc<Shared>, id: &str) -> String {
    let Some(run) = shared.fleet.lock().get(id).cloned() else {
        return err_line(&format!("unknown run `{id}`"));
    };
    let run_dir = shared.cfg.root.join(id);
    let step = Heartbeat::read(&run_dir.join(HEARTBEAT_FILE)).map(|(_, step)| step);
    let age_ms = std::fs::metadata(run_dir.join(HEARTBEAT_FILE))
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .and_then(|d| u64::try_from(d.as_millis()).ok());
    let incidents = std::fs::read_to_string(run_dir.join(LOG_FILE))
        .ok()
        .and_then(|text| IncidentLog::from_json(&text).ok())
        .map_or(0, |log| log.incidents.len());
    let live = [
        ("step", step.into()),
        ("heartbeat_age_ms", age_ms.into()),
        ("incidents", incidents.into()),
    ];
    ok_line(run.summary().into_iter().chain(live))
}

fn list_line(shared: &Arc<Shared>) -> String {
    let fleet = shared.fleet.lock();
    let runs = fleet.runs.iter().map(|r| Json::obj(r.summary())).collect();
    ok_line([("runs", Json::Arr(runs))])
}

fn scenarios_line() -> String {
    let scenario = |s: &scenarios::Scenario| {
        Json::obj([
            ("name", s.name.into()),
            ("description", s.description.into()),
            ("default_steps", s.default_steps.into()),
        ])
    };
    let listed = scenarios::SCENARIOS.iter().map(scenario).collect();
    ok_line([("scenarios", Json::Arr(listed))])
}

fn cancel(shared: &Arc<Shared>, id: &str) -> String {
    let mut fleet = shared.fleet.lock();
    let Some(run) = fleet.get_mut(id) else {
        return err_line(&format!("unknown run `{id}`"));
    };
    match run.state {
        RunState::Queued => {
            run.state = RunState::Canceled;
            shared.save(&fleet);
            ok_line([("id", id.into()), ("state", "canceled".into())])
        }
        RunState::Running => {
            shared
                .stops
                .lock()
                .insert(id.to_string(), StopReason::Cancel);
            ok_line([("id", id.into()), ("state", "canceling".into())])
        }
        state => err_line(&format!("run `{id}` is already {}", state.as_str())),
    }
}

fn shutdown(shared: &Arc<Shared>, drain: bool) -> String {
    shared.shutdown.store(true, Ordering::SeqCst);
    if drain {
        return ok_line([("shutdown", "drain".into())]);
    }
    // Detach every running worker: children are killed, their runs return
    // to `queued`, and the rotation keeps their progress.
    let fleet = shared.fleet.lock();
    let mut stops = shared.stops.lock();
    for run in fleet.runs.iter().filter(|r| r.state == RunState::Running) {
        stops.insert(run.id.clone(), StopReason::Detach);
    }
    ok_line([("shutdown", "detach".into())])
}

/// Convert a column-oriented diagnostics document into row-oriented JSON
/// lines (one per sample).
fn diagnostics_rows(doc: &Json) -> Vec<String> {
    let Ok(Json::Obj(columns)) = doc.get("columns") else {
        return Vec::new();
    };
    let n = columns
        .first()
        .and_then(|(_, v)| match v {
            Json::Arr(items) => Some(items.len()),
            _ => None,
        })
        .unwrap_or(0);
    (0..n)
        .map(|i| {
            let row: Vec<(String, Json)> = columns
                .iter()
                .filter_map(|(name, col)| match col {
                    Json::Arr(items) => items.get(i).map(|v| (name.clone(), v.clone())),
                    _ => None,
                })
                .collect();
            Json::Obj(row).render()
        })
        .collect()
}

/// Stream a run's diagnostics samples as they land, then a final done
/// line once the run reaches a terminal state (or the daemon shuts down).
fn watch(shared: &Arc<Shared>, id: &str, out: &mut impl Write) -> io::Result<()> {
    if shared.fleet.lock().get(id).is_none() {
        writeln!(out, "{}", err_line(&format!("unknown run `{id}`")))?;
        return Ok(());
    }
    let diag = shared.cfg.root.join(id).join("diagnostics.json");
    let mut emitted = 0usize;
    loop {
        // Order matters: read the state *before* sweeping the file, so a
        // run that completes mid-loop still gets its last rows emitted
        // before the done line.
        let state = shared
            .fleet
            .lock()
            .get(id)
            .map(|r| r.state)
            .unwrap_or(RunState::Failed);
        let stopping = shared.shutdown.load(Ordering::SeqCst);
        if let Ok(text) = std::fs::read_to_string(&diag) {
            if let Ok(doc) = parse_json(&text) {
                let rows = diagnostics_rows(&doc);
                for row in rows.iter().skip(emitted) {
                    writeln!(out, "{row}")?;
                }
                emitted = emitted.max(rows.len());
            }
        }
        if state.is_terminal() || stopping {
            let done = [
                ("done", state.is_terminal().into()),
                ("state", state.as_str().into()),
                ("samples", emitted.into()),
            ];
            return writeln!(out, "{}", ok_line(done));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_grammar_round_trips() {
        let cases = [
            "SUBMIT quickstart",
            "SUBMIT quickstart {\"steps\":4,\"snapshot_every\":2}",
            "STATUS r0001-quickstart",
            "LIST",
            "WATCH r0001-quickstart",
            "CANCEL r0001-quickstart",
            "SCENARIOS",
            "SHUTDOWN",
            "SHUTDOWN DRAIN",
        ];
        for line in cases {
            let req = Request::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(
                Request::parse(&req.render()).unwrap(),
                req,
                "{line}: render must re-parse to the same request"
            );
        }
        // Overrides survive the round trip with their values.
        let Request::Submit { overrides, .. } =
            Request::parse("SUBMIT quickstart {\"steps\":4,\"seed\":7}").unwrap()
        else {
            panic!("not a submit");
        };
        assert_eq!(overrides.steps, Some(4));
        assert_eq!(overrides.seed, Some(7));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        // A key this build no longer takes, refused by name, not ignored.
        let retired = "SUBMIT quickstart {\"snapshot_format\":\"bin\"}";
        for line in [
            "",
            "FROBNICATE",
            "STATUS",
            "STATUS two ids",
            "LIST extra",
            "SHUTDOWN NOW",
            "SUBMIT",
            "SUBMIT quickstart {not json",
            "SUBMIT quickstart {\"stepz\":4}",
            "SUBMIT quickstart {\"scheme\":\"warp\"}",
            retired,
            "SUBMIT quickstart {\"timestep\":\"block:x\"}",
            "SUBMIT quickstart {\"faults\":\"explode@9\"}",
        ] {
            assert!(Request::parse(line).is_err(), "`{line}` must be rejected");
        }
        let reply = err_line(&Request::parse(retired).unwrap_err());
        assert!(!reply_ok(&reply), "{reply}");
        assert!(
            reply.contains("`snapshot_format`: unknown override"),
            "{reply}"
        );
    }

    #[test]
    fn overrides_json_round_trips() {
        let o = RunOverrides {
            steps: Some(4),
            seed: Some(7),
            scheme: Some(Scheme::Surrogate),
            timestep: Some(TimestepMode::Block { max_level: 6 }),
            snapshot_every: Some(2),
            faults: Some("kill@3#0".into()),
        };
        let doc = parse_json(&o.to_json()).unwrap();
        assert_eq!(RunOverrides::from_json(&doc).unwrap(), o);
        // A bare `block` is the default depth, and is written back with it.
        let bare = parse_json("{\"timestep\":\"block\"}").unwrap();
        let bare = RunOverrides::from_json(&bare).unwrap();
        assert_eq!(bare.timestep, Some(TimestepMode::Block { max_level: 8 }));
        assert_eq!(bare.to_json(), "{\"timestep\":\"block:8\"}");
        // Integers are read exactly or not at all.
        for bad in ["{\"steps\":4.5}", "{\"seed\":-1}", "{\"seed\":1e300}"] {
            let doc = parse_json(bad).unwrap();
            assert!(RunOverrides::from_json(&doc).is_err(), "{bad}");
        }
        let empty = RunOverrides::default();
        let doc = parse_json(&empty.to_json()).unwrap();
        assert_eq!(RunOverrides::from_json(&doc).unwrap(), empty);
    }

    /// Every field set, written as a child's command line and read back
    /// through the flag loop's reader: the same flags.
    #[test]
    fn run_flags_read_back_what_they_write() {
        let flags = RunFlags {
            scenario: Some("spiked_dt".into()),
            steps: Some(5),
            resume: Some(PathBuf::from("/runs/a/checkpoint-000002.bin")),
            scheme: Some(Scheme::Conventional),
            timestep: Some(TimestepMode::Block { max_level: 4 }),
            snapshot_every: Some(3),
            seed: 9,
            predictor: Some(PredictorSpec::UNet("w.json".into())),
            dist: Some(DistSpec {
                grid: (2, 1, 3),
                n_pool: 2,
            }),
            run_dir: Some(PathBuf::from("/runs/a")),
            keep: 2,
            heartbeat: Some(PathBuf::from("/runs/a/heartbeat")),
        };
        let argv: Vec<String> = flags
            .clone()
            .args()
            .into_iter()
            .map(|arg| arg.into_string().unwrap())
            .collect();
        assert_eq!(argv.len(), 24, "every flag is written: {argv:?}");
        let mut read = RunFlags::default();
        let mut rest = argv.iter();
        while let Some(flag) = rest.next() {
            let value = || {
                rest.next()
                    .map(String::as_str)
                    .ok_or("no value".to_string())
            };
            assert_eq!(read.read(flag, value), Ok(true), "{flag}");
        }
        assert_eq!(read, flags);
        // Unset flags are left out; the seed and the rotation depth never are.
        assert_eq!(RunFlags::default().args(), ["--seed", "42", "--keep", "3"]);
        let mut other = RunFlags::default();
        assert_eq!(other.read("--supervised", || Ok("x")), Ok(false));
        assert_eq!(other, RunFlags::default());
    }

    #[test]
    fn fleet_submit_assigns_sequential_ids_and_round_trips() {
        let mut fleet = Fleet::default();
        let a = fleet.submit("quickstart", 20, RunOverrides::default());
        let b = fleet.submit(
            "spiked_dt",
            6,
            RunOverrides {
                steps: Some(3),
                ..Default::default()
            },
        );
        assert_eq!(a, "r0001-quickstart");
        assert_eq!(b, "r0002-spiked_dt");
        assert_eq!(fleet.get(&a).unwrap().target_steps, 20, "scenario default");
        assert_eq!(fleet.get(&b).unwrap().target_steps, 3, "override wins");
        assert_eq!(fleet.get(&a).unwrap().state, RunState::Queued);
        let parsed = Fleet::from_json(&fleet.to_json()).unwrap();
        assert_eq!(parsed, fleet);
        // Ids keep advancing after a reload (no reuse).
        let mut reloaded = parsed;
        let c = reloaded.submit("quickstart", 20, RunOverrides::default());
        assert_eq!(c, "r0003-quickstart");
    }

    #[test]
    fn adoption_requeues_running_entries_and_reports_stale_pids() {
        let mut fleet = Fleet::default();
        let a = fleet.submit("quickstart", 20, RunOverrides::default());
        let b = fleet.submit("quickstart", 20, RunOverrides::default());
        let c = fleet.submit("quickstart", 20, RunOverrides::default());
        fleet.get_mut(&a).unwrap().state = RunState::Running;
        fleet.get_mut(&a).unwrap().child_pid = Some(4242);
        fleet.get_mut(&b).unwrap().state = RunState::Completed;
        // Round-trip through JSON first: adoption happens on a reloaded
        // registry in real life.
        let mut fleet = Fleet::from_json(&fleet.to_json()).unwrap();
        let stale = fleet.adopt();
        assert_eq!(stale, vec![4242]);
        assert_eq!(fleet.get(&a).unwrap().state, RunState::Queued);
        assert_eq!(fleet.get(&a).unwrap().child_pid, None);
        assert_eq!(fleet.get(&b).unwrap().state, RunState::Completed);
        assert_eq!(fleet.get(&c).unwrap().state, RunState::Queued);
    }

    #[test]
    fn run_states_round_trip_and_classify_terminality() {
        for state in [
            RunState::Queued,
            RunState::Running,
            RunState::Completed,
            RunState::Failed,
            RunState::GaveUp,
            RunState::Canceled,
        ] {
            assert_eq!(RunState::parse(state.as_str()), Some(state));
        }
        assert_eq!(RunState::parse("exploded"), None);
        assert!(!RunState::Queued.is_terminal());
        assert!(!RunState::Running.is_terminal());
        for s in [
            RunState::Completed,
            RunState::Failed,
            RunState::GaveUp,
            RunState::Canceled,
        ] {
            assert!(s.is_terminal());
        }
    }

    #[test]
    fn diagnostics_rows_pivot_columns_to_samples() {
        let doc = parse_json(
            "{\"scenario\":\"q\",\"samples\":2,\
             \"columns\":{\"step\":[1.0,2.0],\"time\":[0.1,0.2]}}",
        )
        .unwrap();
        let rows = diagnostics_rows(&doc);
        assert_eq!(rows.len(), 2);
        let first = parse_json(&rows[0]).unwrap();
        assert_eq!(first.get("step").unwrap().as_usize().unwrap(), 1);
        assert!(matches!(first.get("time").unwrap(), Json::Num(t) if (t - 0.1).abs() < 1e-12));
        assert!(diagnostics_rows(&parse_json("{}").unwrap()).is_empty());
    }

    #[test]
    fn error_lines_escape_the_message() {
        let line = err_line("bad \"input\"\nline");
        let doc = parse_json(&line).unwrap();
        assert_eq!(doc.get("ok").unwrap(), &Json::Bool(false));
        assert_eq!(
            doc.get("error").unwrap(),
            &Json::Str("bad \"input\"\nline".into())
        );
    }
    // -- golden bytes ------------------------------------------------------
    //
    // Recorded at the commit before these documents moved onto the
    // `unet::json` writer (PR 19), from the functions' output there: key
    // order and integer rendering are contract (CI greps them).

    fn golden_shared(root: PathBuf, fleet: Fleet) -> Arc<Shared> {
        Arc::new(Shared {
            cfg: ServeConfig {
                root,
                addr: "127.0.0.1:0".into(),
                max_concurrent: 2,
                retry: RetryPolicy::default(),
                keep: 3,
            },
            exe: PathBuf::from("asura"),
            fleet: Mutex::new(fleet),
            stops: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
        })
    }

    fn every_override() -> RunOverrides {
        RunOverrides {
            steps: Some(3),
            seed: Some(7),
            scheme: Some(Scheme::Conventional),
            timestep: Some(TimestepMode::Block { max_level: 6 }),
            snapshot_every: Some(2),
            faults: Some("kill@3#0".into()),
        }
    }

    /// Three runs: a running one with a pid, a queued one with every
    /// override set, a completed one with the other value of each option.
    fn golden_fleet() -> Fleet {
        let mut fleet = Fleet::default();
        let a = fleet.submit("quickstart", 20, RunOverrides::default());
        fleet.submit("spiked_dt", 6, every_override());
        let c = fleet.submit(
            "quickstart",
            20,
            RunOverrides {
                scheme: Some(Scheme::Surrogate),
                timestep: Some(TimestepMode::Global),
                ..Default::default()
            },
        );
        fleet.get_mut(&a).unwrap().state = RunState::Running;
        fleet.get_mut(&a).unwrap().child_pid = Some(4242);
        fleet.get_mut(&c).unwrap().state = RunState::Completed;
        fleet
    }

    const GOLDEN_FLEET: &str = "{\"format\":\"asura-fleet\",\"version\":1,\"next_seq\":3,\"runs\":[{\"id\":\"r0001-quickstart\",\"scenario\":\"quickstart\",\"state\":\"running\",\"target_steps\":20,\"child_pid\":4242,\"overrides\":{}},{\"id\":\"r0002-spiked_dt\",\"scenario\":\"spiked_dt\",\"state\":\"queued\",\"target_steps\":3,\"child_pid\":null,\"overrides\":{\"steps\":3,\"seed\":7,\"scheme\":\"conventional\",\"timestep\":\"block:6\",\"snapshot_every\":2,\"faults\":\"kill@3#0\"}},{\"id\":\"r0003-quickstart\",\"scenario\":\"quickstart\",\"state\":\"completed\",\"target_steps\":20,\"child_pid\":null,\"overrides\":{\"scheme\":\"surrogate\",\"timestep\":\"global\"}}]}\n";

    #[test]
    fn fleet_json_bytes_are_stable() {
        assert_eq!(golden_fleet().to_json(), GOLDEN_FLEET);
        assert_eq!(Fleet::from_json(GOLDEN_FLEET).unwrap(), golden_fleet());
        assert_eq!(
            Fleet::default().to_json(),
            "{\"format\":\"asura-fleet\",\"version\":1,\"next_seq\":0,\"runs\":[]}\n"
        );
        let submit = Request::Submit {
            scenario: "spiked_dt".into(),
            overrides: every_override(),
        };
        assert_eq!(
            submit.render(),
            "SUBMIT spiked_dt {\"steps\":3,\"seed\":7,\"scheme\":\"conventional\",\"timestep\":\"block:6\",\"snapshot_every\":2,\"faults\":\"kill@3#0\"}"
        );
    }

    #[test]
    fn protocol_reply_bytes_are_stable() {
        // The `SUBMIT warp` error and the `SCENARIOS` reply are the
        // registry's, as an `asura serve` of the commit before the daemon
        // left `asura-core` answered them.
        let root = std::env::temp_dir().join(format!("asura-serve-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let shared = golden_shared(root.clone(), golden_fleet());
        let unknown = "{\"ok\":false,\"error\":\"unknown run `r0009-x`\"}";
        assert_eq!(
            submit(&shared, "quickstart", RunOverrides::default()),
            "{\"ok\":true,\"id\":\"r0004-quickstart\"}"
        );
        assert_eq!(
            submit(&shared, "warp", RunOverrides::default()),
            "{\"ok\":false,\"error\":\"unknown scenario `warp` (available: quickstart, dwarf_galaxy, supernova_remnant, sn_shell_conventional, spiked_dt)\"}"
        );
        // STATUS before the run has a directory: every live field is null.
        assert_eq!(
            status_line(&shared, "r0001-quickstart"),
            "{\"ok\":true,\"id\":\"r0001-quickstart\",\"scenario\":\"quickstart\",\"state\":\"running\",\"target_steps\":20,\"step\":null,\"heartbeat_age_ms\":null,\"incidents\":0}"
        );
        assert_eq!(status_line(&shared, "r0009-x"), unknown);
        // … and with a heartbeat and an incident log (the age is the one
        // field that is not reproducible).
        let run_dir = root.join("r0002-spiked_dt");
        std::fs::create_dir_all(&run_dir).unwrap();
        Heartbeat::new(run_dir.join("heartbeat")).beat(5).unwrap();
        let log = IncidentLog {
            incidents: vec![asura_core::supervise::Incident {
                attempt: 0,
                kind: asura_core::supervise::IncidentKind::Crash { exit_code: 86 },
                resumed_from_step: Some(2),
                backoff_ms: 500,
            }],
            outcome: None,
        };
        log.save(&run_dir.join("supervisor.json")).unwrap();
        let live = status_line(&shared, "r0002-spiked_dt");
        let (head, tail) = live.split_once("\"heartbeat_age_ms\":").unwrap();
        assert_eq!(
            head,
            "{\"ok\":true,\"id\":\"r0002-spiked_dt\",\"scenario\":\"spiked_dt\",\"state\":\"queued\",\"target_steps\":3,\"step\":5,"
        );
        let (age, tail) = tail.split_once(',').unwrap();
        assert!(age.parse::<u64>().is_ok(), "age is a plain integer: {age}");
        assert_eq!(tail, "\"incidents\":1}");
        assert_eq!(
            list_line(&shared),
            "{\"ok\":true,\"runs\":[{\"id\":\"r0001-quickstart\",\"scenario\":\"quickstart\",\"state\":\"running\",\"target_steps\":20},{\"id\":\"r0002-spiked_dt\",\"scenario\":\"spiked_dt\",\"state\":\"queued\",\"target_steps\":3},{\"id\":\"r0003-quickstart\",\"scenario\":\"quickstart\",\"state\":\"completed\",\"target_steps\":20},{\"id\":\"r0004-quickstart\",\"scenario\":\"quickstart\",\"state\":\"queued\",\"target_steps\":20}]}"
        );
        assert_eq!(
            scenarios_line(),
            "{\"ok\":true,\"scenarios\":[{\"name\":\"quickstart\",\"description\":\"scaled-down Milky Way patch, surrogate SN scheme, fixed global step\",\"default_steps\":20},{\"name\":\"dwarf_galaxy\",\"description\":\"star-forming dwarf with cooling, star formation and timed SNe\",\"default_steps\":32},{\"name\":\"supernova_remnant\",\"description\":\"one SN inside a uniform gas lattice, surrogate prediction in flight\",\"default_steps\":12},{\"name\":\"sn_shell_conventional\",\"description\":\"the supernova_remnant IC integrated conventionally (adaptive global CFL step)\",\"default_steps\":12},{\"name\":\"spiked_dt\",\"description\":\"SN-hot particle in a cold blob: block-timestep stress (conventional scheme)\",\"default_steps\":6}]}"
        );
        assert_eq!(
            cancel(&shared, "r0002-spiked_dt"),
            "{\"ok\":true,\"id\":\"r0002-spiked_dt\",\"state\":\"canceled\"}"
        );
        assert_eq!(
            cancel(&shared, "r0001-quickstart"),
            "{\"ok\":true,\"id\":\"r0001-quickstart\",\"state\":\"canceling\"}"
        );
        assert_eq!(
            cancel(&shared, "r0003-quickstart"),
            "{\"ok\":false,\"error\":\"run `r0003-quickstart` is already completed\"}"
        );
        assert_eq!(cancel(&shared, "r0009-x"), unknown);
        // WATCH on a finished run: its rows, then the done line.
        let watched = root.join("r0003-quickstart");
        std::fs::create_dir_all(&watched).unwrap();
        atomic_write(
            &watched.join("diagnostics.json"),
            b"{\"scenario\":\"q\",\"samples\":2,\"columns\":{\"step\":[1.0,2.0],\"time\":[0.1,0.2]}}",
        )
        .unwrap();
        let mut out = Vec::new();
        watch(&shared, "r0003-quickstart", &mut out).unwrap();
        watch(&shared, "r0009-x", &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            format!(
                "{{\"step\":1.0,\"time\":0.1}}\n{{\"step\":2.0,\"time\":0.2}}\n\
                 {{\"ok\":true,\"done\":true,\"state\":\"completed\",\"samples\":2}}\n{unknown}\n"
            )
        );
        assert_eq!(
            shutdown(&shared, true),
            "{\"ok\":true,\"shutdown\":\"drain\"}"
        );
        assert_eq!(
            shutdown(&shared, false),
            "{\"ok\":true,\"shutdown\":\"detach\"}"
        );
        assert_eq!(
            submit(&shared, "quickstart", RunOverrides::default()),
            "{\"ok\":false,\"error\":\"daemon is shutting down\"}"
        );
        assert_eq!(
            err_line("bad \"input\"\nline\ttab \\ back \u{1} ctl"),
            "{\"ok\":false,\"error\":\"bad \\\"input\\\"\\nline\\ttab \\\\ back \\u0001 ctl\"}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `adopt` hands every recorded pid of a `running` entry to `kill -9`:
    /// pid 0 is the daemon's own process group, and 2^32 + 1 used to
    /// truncate to pid 1. Neither may come out of a damaged file.
    #[test]
    fn a_child_pid_that_is_not_a_pid_is_a_malformed_fleet_file() {
        assert_eq!(
            Fleet::from_json(GOLDEN_FLEET).unwrap().adopt(),
            vec![4242],
            "the intact file adopts"
        );
        for bad in ["0", "4294967297", "-1", "4242.5", "2147483648", "\"4242\""] {
            let text = GOLDEN_FLEET.replace("\"child_pid\":4242", &format!("\"child_pid\":{bad}"));
            let err = Fleet::from_json(&text).expect_err(bad);
            assert!(err.contains("child_pid"), "{bad}: {err}");
        }
        let text = GOLDEN_FLEET.replace("\"target_steps\":20", "\"target_steps\":20.5");
        assert!(Fleet::from_json(&text).is_err(), "fractional target_steps");
        let text = GOLDEN_FLEET.replace("\"next_seq\":3", "\"next_seq\":-3");
        assert!(Fleet::from_json(&text).is_err(), "negative next_seq");
    }

    /// A `fleet.json` an older build wrote, with an override key this build
    /// no longer takes, is a typed error from `serve` that names the key —
    /// the daemon neither panics nor rewrites the file.
    #[test]
    fn a_fleet_file_with_a_retired_override_is_a_typed_error() {
        let root = std::env::temp_dir().join(format!("asura-serve-retired-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let parent =
            GOLDEN_FLEET.replacen("\"faults\":", "\"snapshot_format\":\"json\",\"faults\":", 1);
        std::fs::write(root.join(FLEET_FILE), &parent).unwrap();
        let cfg = golden_shared(root.clone(), Fleet::default()).cfg.clone();
        let err = serve(cfg).unwrap_err();
        assert!(err.to_string().contains("`snapshot_format`"), "{err}");
        assert_eq!(
            std::fs::read_to_string(root.join(FLEET_FILE)).unwrap(),
            parent
        );
        assert!(!root.join(ADDR_FILE).exists(), "never bound");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reply_ok_reads_the_ok_field_not_a_substring() {
        assert!(reply_ok("{\"ok\":true,\"id\":\"r0001-q\"}"));
        assert!(reply_ok("{\"step\":1.0,\"time\":0.1}"), "a WATCH row");
        assert!(!reply_ok(&err_line("nope")));
        assert!(!reply_ok("{ \"ok\" : false }"), "whitespace is not a pass");
        assert!(reply_ok(&ok_line([("note", "said \"ok\":false".into())])));
    }
}
