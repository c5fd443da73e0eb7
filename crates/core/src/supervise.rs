//! Run supervision: heartbeat, crash/hang detection, bounded auto-resume.
//!
//! A supervised run is a parent/child pair. The child is the ordinary
//! scenario driver plus one extra duty: it touches a heartbeat file every
//! step ([`Heartbeat::beat`]). The parent (`Supervisor::run_with_abort`)
//! polls the child for two failure signals:
//!
//! * **crash** — the child exited with a non-zero status;
//! * **hang** — the child is still alive but its heartbeat has not
//!   changed for longer than [`RetryPolicy::heartbeat_timeout_ms`] (the
//!   child is then killed).
//!
//! On either signal the supervisor consults the checkpoint store for the
//! newest intact snapshot
//! ([`latest_valid`](crate::ckpt::CkptStore::latest_valid_sim)), records
//! an [`Incident`] in `supervisor.json`, sleeps an exponential backoff,
//! and respawns the child resuming from that snapshot — up to
//! `max_retries` resumes. Exit codes listed as *permanent* (usage
//! errors) are never retried. Because restarts are bitwise-deterministic
//! (see `tests/snapshot_restart.rs`), a supervised run that suffers
//! crashes ends in exactly the state of an uninterrupted run — that
//! property is enforced by `tests/supervised_chaos.rs`. Attempt 0 starts
//! from the rotation too: a run directory whose rotation already holds
//! entries (a fleet run re-dispatched after a detach or a daemon death)
//! continues from its newest intact one, and a fresh run's rotation is
//! empty (`asura --supervised` clears it before the first attempt).
//!
//! Both front-ends — `asura --supervised` and the `asura serve` daemon's
//! workers — take one [`RetryPolicy`], build a [`Supervisor::for_run_dir`]
//! and launch their children through [`Supervisor::run_processes`]: the
//! caller supplies only the command line, a hook that sees each spawned
//! child, and the stop hook that answers a [`StopReason`]. The process side sits behind
//! `ChildHandle`, so the retry/verdict logic is unit-testable with
//! in-process fakes.

// no-panic-daemon: malformed input is a typed error, never a crashed fleet.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::ckpt::{atomic_write, CkptStore};
use crate::faults;
use json::{parse_json, Json};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// `format` field of the incident log.
pub(crate) const LOG_FORMAT: &str = "asura-supervisor-log";
/// Incident-log schema version.
pub(crate) const LOG_VERSION: u64 = 1;
/// The incident log's file name in a supervised run's directory.
pub const LOG_FILE: &str = "supervisor.json";
/// The heartbeat's file name in a supervised run's directory.
pub const HEARTBEAT_FILE: &str = "heartbeat";

/// How a supervisor judges and retries its child: the resume budget, the
/// backoff schedule and the hang threshold. The `--max-retries`,
/// `--backoff-ms` and `--heartbeat-timeout-ms` flags of both
/// `asura --supervised` and `asura serve` set its three fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of resumes (attempt 0 is free; `max_retries = 3`
    /// allows attempts 0..=3).
    pub max_retries: u32,
    /// Backoff before retry `k` is `base × 2^k`, capped at 16 × base.
    pub backoff_base_ms: u64,
    /// Heartbeat silence after which a live child is declared hung.
    pub heartbeat_timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            backoff_base_ms: 500,
            heartbeat_timeout_ms: 30_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff before the retry that follows failed attempt `attempt`:
    /// `base × 2^min(attempt, 4)`, saturating.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        self.backoff_base_ms.saturating_mul(1 << attempt.min(4))
    }
}

/// Content-based heartbeat file. The child rewrites it every step; the
/// supervisor treats *any content change* as proof of life, so there is
/// no wall-clock skew between the two processes to reason about.
#[derive(Debug)]
pub struct Heartbeat {
    path: PathBuf,
    seq: u64,
}

impl Heartbeat {
    pub fn new(path: impl Into<PathBuf>) -> Heartbeat {
        Heartbeat {
            path: path.into(),
            seq: 0,
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Record one unit of progress (`seq step\n`). Atomic so the
    /// supervisor can never read a half-written beat.
    pub fn beat(&mut self, step: u64) -> io::Result<()> {
        self.seq += 1;
        atomic_write(&self.path, format!("{} {step}\n", self.seq).as_bytes())
    }

    /// Read a heartbeat file: `(seq, step)`.
    ///
    /// Strict: the file must be exactly `seq step\n` (the trailing newline
    /// optional). Anything else — extra tokens, extra lines, non-numeric
    /// junk after a valid prefix — is rejected wholesale rather than
    /// partially parsed, so a beat mangled by a co-located writer on a
    /// shared machine reads as "no beat", never as a fabricated step.
    pub fn read(path: &Path) -> Option<(u64, u64)> {
        let text = std::fs::read_to_string(path).ok()?;
        let line = text.strip_suffix('\n').unwrap_or(&text);
        let (seq, step) = line.split_once(' ')?;
        // `u64::parse` rejects embedded whitespace, so a third token or a
        // second line fails here instead of being silently dropped.
        Some((seq.parse().ok()?, step.parse().ok()?))
    }
}

/// Why an attempt was declared failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// The child exited with this non-zero code.
    Crash { exit_code: i32 },
    /// The heartbeat went stale for this long and the child was killed.
    Hang { stale_ms: u64 },
}

/// One recorded failure of a supervised attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// The attempt index that failed (0 = the original run).
    pub attempt: u32,
    pub kind: IncidentKind,
    /// Step of the checkpoint the next attempt resumed from, if one was
    /// found (`None` means the next attempt restarted from scratch).
    pub resumed_from_step: Option<u64>,
    /// Backoff slept before the resume.
    pub backoff_ms: u64,
}

/// Terminal state of a supervised run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// An attempt finished with exit code 0.
    Completed { attempts: u32 },
    /// The retry budget was exhausted.
    GaveUp { attempts: u32 },
    /// The child exited with a code configured as not retryable.
    Permanent { exit_code: i32 },
    /// The run was externally canceled (the abort hook of
    /// `Supervisor::run_with_abort` returned [`StopReason::Cancel`]);
    /// the child was killed and will not be resumed.
    Canceled { attempts: u32 },
}

/// Why `Supervisor::run_with_abort` should stop driving attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Terminal: kill the child and record [`Outcome::Canceled`].
    Cancel,
    /// Non-terminal: kill the child and return *without* a terminal
    /// outcome (the incident log keeps `"running"`), so a later
    /// supervisor can re-adopt the run and resume it from its rotation —
    /// the `asura serve` daemon uses this for graceful shutdown.
    Detach,
}

/// The `supervisor.json` incident log: every incident plus the final
/// outcome, written atomically after each state change so a crash of the
/// supervisor itself still leaves a parseable log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncidentLog {
    pub incidents: Vec<Incident>,
    pub outcome: Option<Outcome>,
}

impl IncidentLog {
    /// Key order and integer rendering are contract: CI greps
    /// `"outcome":"completed","attempts":2` out of this file.
    pub fn to_json(&self) -> String {
        let attempts = |n: u32| Some(("attempts", n.into()));
        let (outcome, detail) = match self.outcome {
            None => ("running", None),
            Some(Outcome::Completed { attempts: n }) => ("completed", attempts(n)),
            Some(Outcome::GaveUp { attempts: n }) => ("gave_up", attempts(n)),
            Some(Outcome::Canceled { attempts: n }) => ("canceled", attempts(n)),
            Some(Outcome::Permanent { exit_code }) => {
                ("permanent", Some(("exit_code", exit_code.into())))
            }
        };
        let mut doc: Vec<(&str, Json)> = vec![
            ("format", LOG_FORMAT.into()),
            ("version", LOG_VERSION.into()),
            ("outcome", outcome.into()),
        ];
        doc.extend(detail);
        let incident = |i: &Incident| {
            let (kind, detail) = match i.kind {
                IncidentKind::Crash { exit_code } => ("crash", ("exit_code", exit_code.into())),
                IncidentKind::Hang { stale_ms } => ("hang", ("stale_ms", stale_ms.into())),
            };
            Json::obj([
                ("attempt", i.attempt.into()),
                ("kind", kind.into()),
                detail,
                ("resumed_from_step", i.resumed_from_step.into()),
                ("backoff_ms", i.backoff_ms.into()),
            ])
        };
        let incidents = self.incidents.iter().map(incident).collect();
        doc.push(("incidents", Json::Arr(incidents)));
        Json::obj(doc).render() + "\n"
    }

    /// Parse a `supervisor.json` document (used by tests and tooling to
    /// assert exactly which incidents a run suffered).
    pub fn from_json(text: &str) -> Result<IncidentLog, String> {
        let doc = parse_json(text)?;
        doc.expect_header(LOG_FORMAT, LOG_VERSION)?;
        let attempts = || doc.at("attempts", Json::as_u32);
        let outcome = match doc.at("outcome", Json::as_str)? {
            "running" => None,
            "completed" => Some(Outcome::Completed {
                attempts: attempts()?,
            }),
            "gave_up" => Some(Outcome::GaveUp {
                attempts: attempts()?,
            }),
            "canceled" => Some(Outcome::Canceled {
                attempts: attempts()?,
            }),
            "permanent" => Some(Outcome::Permanent {
                exit_code: doc.at("exit_code", Json::as_i32)?,
            }),
            other => return Err(format!("unknown outcome `{other}`")),
        };
        let incident = |item: &Json| -> Result<Incident, String> {
            let kind = match item.at("kind", Json::as_str)? {
                "crash" => IncidentKind::Crash {
                    exit_code: item.at("exit_code", Json::as_i32)?,
                },
                "hang" => IncidentKind::Hang {
                    stale_ms: item.at("stale_ms", Json::as_u64)?,
                },
                other => return Err(format!("unknown incident kind `{other}`")),
            };
            Ok(Incident {
                attempt: item.at("attempt", Json::as_u32)?,
                kind,
                resumed_from_step: item.at("resumed_from_step", |v| v.as_opt(Json::as_u64))?,
                backoff_ms: item.at("backoff_ms", Json::as_u64)?,
            })
        };
        let incidents = doc.at("incidents", Json::as_arr)?;
        Ok(IncidentLog {
            incidents: incidents.iter().map(incident).collect::<Result<_, _>>()?,
            outcome,
        })
    }

    /// Atomically persist the log.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        atomic_write(path, self.to_json().as_bytes())
    }
}

/// Minimal process handle the supervisor drives, so the loop is testable
/// with in-process fakes.
pub(crate) trait ChildHandle {
    /// Non-blocking: `Some(exit_code)` once the child has exited.
    fn poll_exit(&mut self) -> io::Result<Option<i32>>;
    /// Forcibly terminate the child (used on hang) and reap it.
    fn kill(&mut self);
}

/// [`ChildHandle`] backed by a real [`std::process::Child`] — what
/// [`Supervisor::run_processes`] drives.
struct ProcessChild(std::process::Child);

impl ChildHandle for ProcessChild {
    fn poll_exit(&mut self) -> io::Result<Option<i32>> {
        // A signal-terminated child has no code; map it to -1 (abnormal).
        Ok(self.0.try_wait()?.map(|s| s.code().unwrap_or(-1)))
    }
    fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The checkpoint a resumed attempt should start from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumePoint {
    pub step: u64,
    pub path: PathBuf,
}

impl ResumePoint {
    /// The newest intact entry of `store`'s rotation, if any — what every
    /// supervisor of a run directory resumes from.
    pub(crate) fn latest(store: &CkptStore) -> Option<ResumePoint> {
        let (entry, _) = store.latest_valid_sim()?;
        Some(ResumePoint {
            step: entry.step,
            path: store.entry_path(&entry),
        })
    }
}

/// Crash/hang supervisor (see the module docs).
#[derive(Debug, Clone)]
pub struct Supervisor {
    pub policy: RetryPolicy,
    /// Poll cadence for exit status and heartbeat content.
    pub(crate) poll_interval_ms: u64,
    /// Exit codes that are never retried (e.g. usage errors).
    pub(crate) permanent_exit_codes: Vec<i32>,
    /// Where the incident log is written (typically `supervisor.json`).
    pub log_path: PathBuf,
    /// The heartbeat file the child writes to.
    pub heartbeat_path: PathBuf,
}

enum Verdict {
    Done,
    Failed(IncidentKind),
    Stopped(StopReason),
}

impl Supervisor {
    /// The supervisor of one run directory, as `asura --supervised` and the
    /// serve daemon's workers both drive it: the child's heartbeat at
    /// `<dir>/heartbeat`, the incident log at `<dir>/supervisor.json`, a
    /// 20 ms poll, and exit code 2 (usage errors, bad weights) permanent.
    pub fn for_run_dir(dir: &Path, policy: RetryPolicy) -> Supervisor {
        Supervisor {
            policy,
            poll_interval_ms: 20,
            permanent_exit_codes: vec![2],
            log_path: dir.join(LOG_FILE),
            heartbeat_path: dir.join(HEARTBEAT_FILE),
        }
    }

    /// The one launch path of both front-ends: drive child processes
    /// through `Supervisor::run_with_abort`, starting every attempt from
    /// `store`'s newest intact rotation entry (`ResumePoint::latest`).
    ///
    /// * `command(resume)` builds an attempt's command line; the
    ///   supervisor adds `ASURA_ATTEMPT` (so attempt-scoped faults fire
    ///   once) and spawns it.
    /// * `on_spawn(attempt, resume, pid)` sees each child once it is
    ///   running: the attempt, where it resumed from and its OS pid.
    /// * `abort` is the stop hook (see `Supervisor::run_with_abort`).
    pub fn run_processes(
        &self,
        store: &CkptStore,
        mut command: impl FnMut(Option<&ResumePoint>) -> io::Result<Command>,
        mut on_spawn: impl FnMut(u32, Option<&ResumePoint>, u32),
        abort: impl Fn() -> Option<StopReason>,
    ) -> io::Result<(Option<Outcome>, IncidentLog)> {
        self.run_with_abort(
            |attempt, resume| {
                let mut cmd = command(resume)?;
                let child = cmd.env(faults::ATTEMPT_ENV, attempt.to_string()).spawn()?;
                on_spawn(attempt, resume, child.id());
                Ok(ProcessChild(child))
            },
            || ResumePoint::latest(store),
            abort,
        )
    }

    /// Drive attempts until one completes, a permanent failure occurs, the
    /// retry budget runs out, or `abort` asks to stop.
    ///
    /// * `spawn(attempt, resume)` launches attempt `attempt`, resuming
    ///   from `resume` when given.
    /// * `resume_point()` queries the newest intact checkpoint — called
    ///   before attempt 0, so a run adopted or detached mid-way continues
    ///   from what its rotation holds, and after each failure, so a retry
    ///   sees exactly what the crashed attempt managed to persist.
    /// * `abort()` is polled at the heartbeat's cadence. When it returns a
    ///   [`StopReason`] the current child is killed; `Cancel` records
    ///   [`Outcome::Canceled`], `Detach` returns `None` with the log's
    ///   outcome left at `"running"` so the run stays adoptable (the serve
    ///   daemon's CANCEL and SHUTDOWN commands respectively).
    ///
    /// Returns the final outcome plus the full incident log (also
    /// persisted to `log_path` after every state change).
    pub(crate) fn run_with_abort<H: ChildHandle>(
        &self,
        mut spawn: impl FnMut(u32, Option<&ResumePoint>) -> io::Result<H>,
        mut resume_point: impl FnMut() -> Option<ResumePoint>,
        abort: impl Fn() -> Option<StopReason>,
    ) -> io::Result<(Option<Outcome>, IncidentLog)> {
        let mut log = IncidentLog::default();
        let mut attempt: u32 = 0;
        let mut resume = resume_point();
        loop {
            // A beat left by the previous attempt must not count as life.
            let _ = std::fs::remove_file(&self.heartbeat_path);
            let mut child = spawn(attempt, resume.as_ref())?;
            let attempts = attempt + 1;
            let outcome = match self.watch(&mut child, &abort)? {
                Verdict::Done => Some(Outcome::Completed { attempts }),
                Verdict::Stopped(StopReason::Cancel) => Some(Outcome::Canceled { attempts }),
                // No outcome: the log stays `"running"`, so the run is
                // adoptable and its rotation is left as the attempt wrote it.
                Verdict::Stopped(StopReason::Detach) => None,
                Verdict::Failed(kind) => {
                    let outcome = match kind {
                        IncidentKind::Crash { exit_code }
                            if self.permanent_exit_codes.contains(&exit_code) =>
                        {
                            Outcome::Permanent { exit_code }
                        }
                        _ if attempt >= self.policy.max_retries => Outcome::GaveUp { attempts },
                        _ => {
                            let backoff_ms = self.policy.backoff_ms(attempt);
                            resume = resume_point();
                            log.incidents.push(Incident {
                                attempt,
                                kind,
                                resumed_from_step: resume.as_ref().map(|r| r.step),
                                backoff_ms,
                            });
                            log.save(&self.log_path)?;
                            std::thread::sleep(Duration::from_millis(backoff_ms));
                            attempt += 1;
                            continue;
                        }
                    };
                    log.incidents.push(Incident {
                        attempt,
                        kind,
                        resumed_from_step: None,
                        backoff_ms: 0,
                    });
                    Some(outcome)
                }
            };
            log.outcome = outcome;
            log.save(&self.log_path)?;
            return Ok((outcome, log));
        }
    }

    /// Poll one attempt to a verdict: exit status wins, then an external
    /// stop request, then heartbeat staleness. Staleness is measured from
    /// spawn or the last *content change* of the heartbeat file, so the
    /// child must produce its first beat within the timeout too.
    #[expect(
        clippy::disallowed_methods,
        reason = "the heartbeat watchdog times the child from outside its step loop"
    )]
    fn watch<H: ChildHandle>(
        &self,
        child: &mut H,
        abort: &impl Fn() -> Option<StopReason>,
    ) -> io::Result<Verdict> {
        let timeout = Duration::from_millis(self.policy.heartbeat_timeout_ms);
        let poll = Duration::from_millis(self.poll_interval_ms.max(1));
        let mut last_content: Option<String> = None;
        let mut last_change = Instant::now();
        loop {
            if let Some(code) = child.poll_exit()? {
                return Ok(if code == 0 {
                    Verdict::Done
                } else {
                    Verdict::Failed(IncidentKind::Crash { exit_code: code })
                });
            }
            if let Some(reason) = abort() {
                child.kill();
                return Ok(Verdict::Stopped(reason));
            }
            let content = std::fs::read_to_string(&self.heartbeat_path).ok();
            if content.is_some() && content != last_content {
                last_content = content;
                last_change = Instant::now();
            } else if last_change.elapsed() >= timeout {
                child.kill();
                return Ok(Verdict::Failed(IncidentKind::Hang {
                    stale_ms: last_change.elapsed().as_millis() as u64,
                }));
            }
            std::thread::sleep(poll);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "asura-sup-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A run directory's supervisor, polling fast and backing off briefly.
    fn supervisor(dir: &Path, max_retries: u32, heartbeat_timeout_ms: u64) -> Supervisor {
        let policy = RetryPolicy {
            max_retries,
            backoff_base_ms: 1,
            heartbeat_timeout_ms,
        };
        Supervisor {
            poll_interval_ms: 2,
            ..Supervisor::for_run_dir(dir, policy)
        }
    }

    /// The resume point is the rotation's newest *intact* entry, by the
    /// store's own walk — or none when nothing intact was committed.
    #[test]
    fn resume_point_is_the_newest_intact_rotation_entry() {
        use crate::faults::FaultInjector;
        use crate::snapshot::SimSnapshot;
        let dir = tmpdir("resume-point");
        let store = CkptStore::new(&dir, 3);
        assert_eq!(ResumePoint::latest(&store), None, "an empty directory");
        let mut inj = FaultInjector::none();
        let mut snap = SimSnapshot {
            config: crate::SimConfig::default(),
            time: 0.0,
            step_count: 2,
            model: None,
            next_id: 0,
            slabs: Vec::new(),
        };
        let older = store.commit_sim(&snap, &mut inj).unwrap();
        snap.step_count = 4;
        let newest = store.commit_sim(&snap, &mut inj).unwrap();
        assert_eq!(
            ResumePoint::latest(&store),
            Some(ResumePoint {
                step: 4,
                path: newest.clone()
            })
        );
        std::fs::write(&newest, b"torn").unwrap();
        assert_eq!(
            ResumePoint::latest(&store),
            Some(ResumePoint {
                step: 2,
                path: older
            })
        );
        let sup = Supervisor::for_run_dir(&dir, RetryPolicy::default());
        assert_eq!(sup.heartbeat_path, dir.join("heartbeat"));
        assert_eq!(sup.log_path, dir.join("supervisor.json"));
        assert_eq!(sup.permanent_exit_codes, vec![2]);
    }

    /// Fake child: exits with a scripted code after a few polls, or never
    /// exits (None) to simulate a hang.
    struct FakeChild {
        exit: Option<i32>,
        polls_left: u32,
        killed: Rc<RefCell<bool>>,
    }

    impl ChildHandle for FakeChild {
        fn poll_exit(&mut self) -> io::Result<Option<i32>> {
            match self.exit {
                Some(code) => {
                    if self.polls_left == 0 {
                        Ok(Some(code))
                    } else {
                        self.polls_left -= 1;
                        Ok(None)
                    }
                }
                None => Ok(None),
            }
        }
        fn kill(&mut self) {
            *self.killed.borrow_mut() = true;
        }
    }

    #[test]
    fn crash_then_success_records_one_incident_with_resume_step() {
        let dir = tmpdir("crash");
        let at = |step: u64| ResumePoint {
            step,
            path: dir.join(format!("checkpoint-{step:06}.bin")),
        };
        // Attempt 0 starts from what the rotation holds: nothing (a fresh
        // run), or an entry (a run adopted after it committed step 2).
        for held in [None, Some(at(2))] {
            let sup = supervisor(&dir, 3, 10_000);
            let exits = RefCell::new(vec![86, 0]);
            let spawned = RefCell::new(Vec::new());
            // The rotation as each query sees it: `held` until the crashed
            // attempt commits step 4.
            let rotation = RefCell::new(vec![held.clone(), Some(at(4))]);
            let (outcome, log) = sup
                .run_with_abort(
                    |attempt, resume| {
                        spawned.borrow_mut().push((attempt, resume.cloned()));
                        Ok(FakeChild {
                            exit: Some(exits.borrow_mut().remove(0)),
                            polls_left: 1,
                            killed: Rc::new(RefCell::new(false)),
                        })
                    },
                    || rotation.borrow_mut().remove(0),
                    || None,
                )
                .unwrap();
            assert_eq!(outcome, Some(Outcome::Completed { attempts: 2 }));
            assert_eq!(log.incidents.len(), 1);
            assert_eq!(log.incidents[0].kind, IncidentKind::Crash { exit_code: 86 });
            assert_eq!(log.incidents[0].resumed_from_step, Some(4));
            let spawned = spawned.borrow();
            assert_eq!(spawned[0], (0, held), "attempt 0 starts from the rotation");
            assert_eq!(spawned[1].1.as_ref().unwrap().step, 4);
            // The persisted log round-trips.
            let text = std::fs::read_to_string(dir.join("supervisor.json")).unwrap();
            assert_eq!(IncidentLog::from_json(&text).unwrap(), log);
        }
    }

    #[test]
    fn hang_is_detected_via_stale_heartbeat_and_child_is_killed() {
        let dir = tmpdir("hang");
        let sup = supervisor(&dir, 0, 30);
        let killed = Rc::new(RefCell::new(false));
        let killed2 = killed.clone();
        let (outcome, log) = sup
            .run_with_abort(
                move |_, _| {
                    Ok(FakeChild {
                        exit: None,
                        polls_left: 0,
                        killed: killed2.clone(),
                    })
                },
                || None,
                || None,
            )
            .unwrap();
        assert_eq!(outcome, Some(Outcome::GaveUp { attempts: 1 }));
        assert!(matches!(
            log.incidents[0].kind,
            IncidentKind::Hang { stale_ms } if stale_ms >= 30
        ));
        assert!(*killed.borrow(), "hung child must be killed");
    }

    #[test]
    fn fresh_heartbeats_keep_a_slow_child_alive() {
        let dir = tmpdir("beat");
        let sup = supervisor(&dir, 0, 40);
        let hb_path = sup.heartbeat_path.clone();
        // Child "runs" for ~8 polls, beating every poll, then exits 0 —
        // total runtime well past the 40ms timeout, but never stale.
        struct BeatingChild {
            hb: Heartbeat,
            polls_left: u32,
        }
        impl ChildHandle for BeatingChild {
            fn poll_exit(&mut self) -> io::Result<Option<i32>> {
                if self.polls_left == 0 {
                    return Ok(Some(0));
                }
                self.polls_left -= 1;
                std::thread::sleep(Duration::from_millis(15));
                self.hb.beat(self.polls_left as u64).unwrap();
                Ok(None)
            }
            fn kill(&mut self) {}
        }
        let (outcome, log) = sup
            .run_with_abort(
                move |_, _| {
                    Ok(BeatingChild {
                        hb: Heartbeat::new(hb_path.clone()),
                        polls_left: 8,
                    })
                },
                || None,
                || None,
            )
            .unwrap();
        assert_eq!(outcome, Some(Outcome::Completed { attempts: 1 }));
        assert!(log.incidents.is_empty(), "no incident for a live child");
    }

    #[test]
    fn permanent_exit_codes_are_not_retried() {
        let dir = tmpdir("permanent");
        let sup = supervisor(&dir, 5, 10_000);
        let spawns = RefCell::new(0u32);
        let (outcome, log) = sup
            .run_with_abort(
                |_, _| {
                    *spawns.borrow_mut() += 1;
                    Ok(FakeChild {
                        exit: Some(2),
                        polls_left: 0,
                        killed: Rc::new(RefCell::new(false)),
                    })
                },
                || None,
                || None,
            )
            .unwrap();
        assert_eq!(outcome, Some(Outcome::Permanent { exit_code: 2 }));
        assert_eq!(*spawns.borrow(), 1, "usage errors respawn nothing");
        assert_eq!(log.incidents.len(), 1);
    }

    #[test]
    fn retry_budget_is_bounded_and_backoff_grows() {
        let dir = tmpdir("budget");
        let sup = supervisor(&dir, 2, 10_000);
        let spawns = RefCell::new(0u32);
        let (outcome, log) = sup
            .run_with_abort(
                |_, _| {
                    *spawns.borrow_mut() += 1;
                    Ok(FakeChild {
                        exit: Some(1),
                        polls_left: 0,
                        killed: Rc::new(RefCell::new(false)),
                    })
                },
                || None,
                || None,
            )
            .unwrap();
        assert_eq!(outcome, Some(Outcome::GaveUp { attempts: 3 }));
        assert_eq!(*spawns.borrow(), 3, "attempt 0 + 2 retries");
        assert_eq!(log.incidents.len(), 3);
        assert!(
            log.incidents[1].backoff_ms >= log.incidents[0].backoff_ms,
            "exponential backoff"
        );
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_ms(0), 500);
        assert_eq!(policy.backoff_ms(1), 1000);
        assert_eq!(policy.backoff_ms(10), 8000, "capped");
        // `500 << 62` wraps to 0: the cap is 16 × base at every attempt.
        assert_eq!(RetryPolicy::default().backoff_ms(62), 8000);
    }

    #[test]
    fn heartbeat_read_rejects_trailing_garbage() {
        let dir = tmpdir("hb-strict");
        let path = dir.join("heartbeat");
        let ok = |text: &str| {
            std::fs::write(&path, text).unwrap();
            Heartbeat::read(&path)
        };
        assert_eq!(ok("3 17\n"), Some((3, 17)));
        assert_eq!(ok("3 17"), Some((3, 17)), "trailing newline optional");
        assert_eq!(ok("3 17 junk\n"), None, "third token rejected");
        assert_eq!(ok("3 17\n4 18\n"), None, "second line rejected");
        assert_eq!(ok("3 17x\n"), None, "non-numeric suffix rejected");
        assert_eq!(ok("317\n"), None, "single token rejected");
        assert_eq!(ok(""), None, "empty file rejected");
        let mut hb = Heartbeat::new(&path);
        hb.beat(42).unwrap();
        assert_eq!(Heartbeat::read(&path), Some((1, 42)));
    }

    #[test]
    fn cancel_kills_child_and_records_canceled_outcome() {
        let dir = tmpdir("cancel");
        let sup = supervisor(&dir, 3, 10_000);
        let killed = Rc::new(RefCell::new(false));
        let killed2 = killed.clone();
        let (outcome, log) = sup
            .run_with_abort(
                move |_, _| {
                    Ok(FakeChild {
                        exit: None,
                        polls_left: 0,
                        killed: killed2.clone(),
                    })
                },
                || None,
                || Some(StopReason::Cancel),
            )
            .unwrap();
        assert_eq!(outcome, Some(Outcome::Canceled { attempts: 1 }));
        assert_eq!(log.outcome, Some(Outcome::Canceled { attempts: 1 }));
        assert!(*killed.borrow(), "canceled child must be killed");
        // The persisted log round-trips with the canceled outcome.
        let text = std::fs::read_to_string(dir.join("supervisor.json")).unwrap();
        assert_eq!(IncidentLog::from_json(&text).unwrap(), log);
    }

    #[test]
    fn detach_kills_child_but_leaves_log_running() {
        let dir = tmpdir("detach");
        let sup = supervisor(&dir, 3, 10_000);
        let killed = Rc::new(RefCell::new(false));
        let killed2 = killed.clone();
        let (outcome, log) = sup
            .run_with_abort(
                move |_, _| {
                    Ok(FakeChild {
                        exit: None,
                        polls_left: 0,
                        killed: killed2.clone(),
                    })
                },
                || None,
                || Some(StopReason::Detach),
            )
            .unwrap();
        assert_eq!(outcome, None, "detach is not a terminal outcome");
        assert_eq!(log.outcome, None);
        assert!(*killed.borrow(), "detached child must be killed");
        let text = std::fs::read_to_string(dir.join("supervisor.json")).unwrap();
        assert!(text.contains("\"outcome\":\"running\""), "stays adoptable");
    }

    #[test]
    fn incident_log_json_round_trips_every_variant() {
        let log = IncidentLog {
            incidents: vec![
                Incident {
                    attempt: 0,
                    kind: IncidentKind::Crash { exit_code: 86 },
                    resumed_from_step: Some(2),
                    backoff_ms: 500,
                },
                Incident {
                    attempt: 1,
                    kind: IncidentKind::Hang { stale_ms: 1200 },
                    resumed_from_step: None,
                    backoff_ms: 1000,
                },
            ],
            outcome: Some(Outcome::Completed { attempts: 3 }),
        };
        assert_eq!(IncidentLog::from_json(&log.to_json()).unwrap(), log);
        let running = IncidentLog::default();
        assert_eq!(IncidentLog::from_json(&running.to_json()).unwrap(), running);
    }
    fn golden_incidents() -> Vec<Incident> {
        vec![
            Incident {
                attempt: 0,
                kind: IncidentKind::Crash { exit_code: 86 },
                resumed_from_step: Some(2),
                backoff_ms: 500,
            },
            Incident {
                attempt: 1,
                kind: IncidentKind::Hang { stale_ms: 1200 },
                resumed_from_step: None,
                backoff_ms: 1000,
            },
            Incident {
                attempt: 2,
                kind: IncidentKind::Crash { exit_code: -1 },
                resumed_from_step: Some(4),
                backoff_ms: 0,
            },
        ]
    }

    const GOLDEN_INCIDENTS: &str = "\"incidents\":[{\"attempt\":0,\"kind\":\"crash\",\"exit_code\":86,\"resumed_from_step\":2,\"backoff_ms\":500},{\"attempt\":1,\"kind\":\"hang\",\"stale_ms\":1200,\"resumed_from_step\":null,\"backoff_ms\":1000},{\"attempt\":2,\"kind\":\"crash\",\"exit_code\":-1,\"resumed_from_step\":4,\"backoff_ms\":0}]}\n";

    /// Bytes recorded at the commit before the log moved onto the
    /// `unet::json` writer (PR 19). CI greps
    /// `"outcome":"completed","attempts":2` out of this file, so key order
    /// and integer rendering are contract.
    #[test]
    fn supervisor_json_bytes_are_stable_for_every_outcome_and_kind() {
        for (outcome, text) in [
            (None, "\"running\""),
            (
                Some(Outcome::Completed { attempts: 2 }),
                "\"completed\",\"attempts\":2",
            ),
            (
                Some(Outcome::GaveUp { attempts: 4 }),
                "\"gave_up\",\"attempts\":4",
            ),
            (
                Some(Outcome::Permanent { exit_code: 2 }),
                "\"permanent\",\"exit_code\":2",
            ),
            (
                Some(Outcome::Canceled { attempts: 1 }),
                "\"canceled\",\"attempts\":1",
            ),
        ] {
            let log = IncidentLog {
                incidents: golden_incidents(),
                outcome,
            };
            let golden = format!(
                "{{\"format\":\"asura-supervisor-log\",\"version\":1,\"outcome\":{text},{GOLDEN_INCIDENTS}"
            );
            assert_eq!(log.to_json(), golden);
            assert_eq!(IncidentLog::from_json(&golden).unwrap(), log);
        }
        assert_eq!(
            IncidentLog::default().to_json(),
            "{\"format\":\"asura-supervisor-log\",\"version\":1,\"outcome\":\"running\",\"incidents\":[]}\n"
        );
    }

    /// `*n as i32` used to accept `86.7` as 86 and saturate 2^31;
    /// `as_usize()? as u32` wrapped 2^32 + 2 attempts to 2.
    #[test]
    fn integers_in_the_log_are_read_exactly_or_rejected() {
        let log = IncidentLog {
            incidents: golden_incidents(),
            outcome: Some(Outcome::Completed { attempts: 2 }),
        };
        let good = log.to_json();
        for (from, to) in [
            ("\"exit_code\":86", "\"exit_code\":86.7"),
            ("\"exit_code\":86", "\"exit_code\":2147483648"),
            ("\"exit_code\":86", "\"exit_code\":\"86\""),
            ("\"attempts\":2", "\"attempts\":4294967298"),
            ("\"attempts\":2", "\"attempts\":-2"),
            ("\"attempt\":1", "\"attempt\":1.5"),
            ("\"attempt\":1", "\"attempt\":4294967297"),
            ("\"stale_ms\":1200", "\"stale_ms\":-1"),
            ("\"backoff_ms\":500", "\"backoff_ms\":0.5"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "`{from}` not found");
            assert!(
                IncidentLog::from_json(&bad).is_err(),
                "{to} must be rejected"
            );
        }
        let permanent = IncidentLog {
            incidents: Vec::new(),
            outcome: Some(Outcome::Permanent { exit_code: 2 }),
        };
        let bad = permanent
            .to_json()
            .replace("\"exit_code\":2", "\"exit_code\":2.5");
        assert!(IncidentLog::from_json(&bad).is_err());
    }
}
