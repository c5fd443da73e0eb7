//! Deterministic fault injection for the crash-safety layer.
//!
//! A [`FaultPlan`] is a small, seeded, *reproducible* description of the
//! faults a run should suffer — process kills, hung heartbeats, torn or
//! corrupted checkpoint writes, synthetic I/O errors — so the recovery
//! paths in [`ckpt`](crate::ckpt) and [`supervise`](crate::supervise) are
//! exercised by tests and CI rather than trusted. Plans are parsed from a
//! compact grammar (typically via the `ASURA_FAULTS` environment variable)
//! and armed per *attempt*: a supervised run sets `ASURA_ATTEMPT` on each
//! child it spawns, so a `kill@5#0` fires on the first attempt only and the
//! auto-resumed attempt 1 runs clean instead of re-crashing at the same
//! step forever.
//!
//! # Grammar
//!
//! A plan is a comma-separated list of faults. Each fault is
//! `kind@args`, optionally suffixed `#attempt` (default attempt 0 — the
//! first process of a supervised run):
//!
//! | Spec | Effect |
//! |---|---|
//! | `kill@N` | exit the process with [`FAULT_KILL_EXIT`] immediately after completing step `N`, *before* any step-`N` checkpoint commits |
//! | `stall@N` | stop making progress after step `N`: the process parks in a sleep loop without exiting, simulating a hang (the heartbeat goes stale) |
//! | `torn@n:k` | truncate the `n`-th checkpoint commit (1-based, per process) to `k` bytes |
//! | `corrupt@n:k` | XOR `0x40` into byte `k` (wrapped modulo the payload length) of the `n`-th checkpoint commit, breaking its checksum |
//! | `io@n` | fail the `n`-th checkpoint commit with a synthetic I/O error |
//!
//! Example: `ASURA_FAULTS="torn@2:64#0,kill@5#0"` tears the second
//! checkpoint the first attempt writes and kills that attempt after step
//! 5; the supervised resume (attempt 1) sees no armed faults.
//!
//! A `Fault` is one of two families, each carrying its effect: a
//! `StepFault` at a step (`kill`, `stall`), enforced by
//! [`FaultInjector::enforce_step`], or a `WriteFault` at a commit
//! ordinal (`torn`, `corrupt`, `io`), handed out by
//! `FaultInjector::on_commit`.
//!
//! Write faults count *checkpoint commits* (calls into
//! [`CkptStore::commit_bytes`](crate::ckpt::CkptStore::commit_bytes)), not
//! arbitrary file writes, and the damage is applied to the bytes that land
//! in the final rotation entry — simulating storage-level corruption that
//! the atomic rename cannot prevent, which is exactly what `latest_valid`
//! must survive by falling back to the previous entry.

// no-panic-daemon: malformed input is a typed error, never a crashed fleet.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::fmt;

/// Exit code of a `kill@N` fault — distinctive so logs show the crash was
/// injected, but treated by the supervisor like any other abnormal exit.
pub const FAULT_KILL_EXIT: i32 = 86;

/// Environment variable holding the fault plan spec.
pub const FAULTS_ENV: &str = "ASURA_FAULTS";
/// Environment variable holding the current supervised attempt index.
pub const ATTEMPT_ENV: &str = "ASURA_ATTEMPT";

/// One injectable fault (see the module docs for the grammar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// `kill@step` / `stall@step`: fires after completing `step`.
    Step { step: u64, fault: StepFault },
    /// `torn@nth:k` / `corrupt@nth:k` / `io@nth`: fires on the `nth`
    /// checkpoint commit (1-based, per process).
    Write { nth: u64, fault: WriteFault },
}

/// A fault with the attempt it is armed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    pub(crate) fault: Fault,
    /// Supervised attempt index this fault fires on (0 = first process).
    pub attempt: u32,
}

/// A parsed, attempt-scoped fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// Parse the grammar described in the module docs.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (body, attempt) = match item.split_once('#') {
                Some((b, a)) => (
                    b,
                    a.parse::<u32>()
                        .map_err(|e| format!("fault `{item}`: bad attempt `{a}`: {e}"))?,
                ),
                None => (item, 0),
            };
            let (kind, args) = body
                .split_once('@')
                .ok_or_else(|| format!("fault `{item}`: expected kind@args"))?;
            let one = |what: &str| -> Result<u64, String> {
                args.parse::<u64>()
                    .map_err(|e| format!("fault `{item}`: bad {what} `{args}`: {e}"))
            };
            let two = |what: &str| -> Result<(u64, u64), String> {
                let (a, b) = args
                    .split_once(':')
                    .ok_or_else(|| format!("fault `{item}`: expected {kind}@{what}"))?;
                Ok((
                    a.parse::<u64>()
                        .map_err(|e| format!("fault `{item}`: bad ordinal `{a}`: {e}"))?,
                    b.parse::<u64>()
                        .map_err(|e| format!("fault `{item}`: bad byte offset `{b}`: {e}"))?,
                ))
            };
            let fault = match kind {
                "kill" => Fault::Step {
                    step: one("step")?,
                    fault: StepFault::Kill,
                },
                "stall" => Fault::Step {
                    step: one("step")?,
                    fault: StepFault::Stall,
                },
                "torn" | "corrupt" => {
                    let (nth, at_byte) = two("nth:byte")?;
                    let fault = match kind {
                        "torn" => WriteFault::Torn { at_byte },
                        _ => WriteFault::Corrupt { at_byte },
                    };
                    Fault::Write { nth, fault }
                }
                "io" => Fault::Write {
                    nth: one("ordinal")?,
                    fault: WriteFault::Io,
                },
                other => return Err(format!("fault `{item}`: unknown kind `{other}`")),
            };
            if let Fault::Write { nth: 0, .. } = fault {
                return Err(format!("fault `{item}`: write ordinals are 1-based"));
            }
            faults.push(PlannedFault { fault, attempt });
        }
        Ok(FaultPlan { faults })
    }
}

/// A step fault due now (pure query form, separated from the enforcing
/// side effect so the schedule is unit-testable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepFault {
    Kill,
    Stall,
}

/// What a checkpoint commit should do to its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteFault {
    /// Truncate the payload to this many bytes.
    Torn { at_byte: u64 },
    /// XOR `0x40` into this byte (wrapped modulo the payload length).
    Corrupt { at_byte: u64 },
    /// Fail the write with a synthetic I/O error.
    Io,
}

impl fmt::Display for WriteFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteFault::Torn { at_byte } => write!(f, "torn write at byte {at_byte}"),
            WriteFault::Corrupt { at_byte } => write!(f, "corrupted byte {at_byte}"),
            WriteFault::Io => write!(f, "injected I/O error"),
        }
    }
}

/// Runtime fault dispenser: a [`FaultPlan`] filtered to the current
/// attempt, with a per-process checkpoint-commit counter. The default
/// (empty) injector is a zero-cost no-op, so fault-aware code paths need
/// no `Option` plumbing.
#[derive(Debug, Default)]
pub struct FaultInjector {
    faults: Vec<Fault>,
    commits: u64,
}

impl FaultInjector {
    /// An injector with no faults armed.
    pub fn none() -> FaultInjector {
        FaultInjector::default()
    }

    /// Arm the plan's faults scoped to `attempt`.
    pub(crate) fn from_plan(plan: &FaultPlan, attempt: u32) -> FaultInjector {
        FaultInjector {
            faults: plan
                .faults
                .iter()
                .filter(|p| p.attempt == attempt)
                .map(|p| p.fault)
                .collect(),
            commits: 0,
        }
    }

    /// Build from `ASURA_FAULTS` / `ASURA_ATTEMPT`. Unset variables mean
    /// no faults / attempt 0; a malformed spec is an error so typos never
    /// silently run fault-free.
    pub fn from_env() -> Result<FaultInjector, String> {
        let spec = match std::env::var(FAULTS_ENV) {
            Ok(s) if !s.trim().is_empty() => s,
            _ => return Ok(FaultInjector::none()),
        };
        let plan = FaultPlan::parse(&spec).map_err(|e| format!("{FAULTS_ENV}: {e}"))?;
        let attempt = match std::env::var(ATTEMPT_ENV) {
            Ok(a) => a
                .parse::<u32>()
                .map_err(|e| format!("{ATTEMPT_ENV}: bad attempt `{a}`: {e}"))?,
            Err(_) => 0,
        };
        Ok(FaultInjector::from_plan(&plan, attempt))
    }

    /// The step fault armed for `step`, if any (pure; see
    /// [`FaultInjector::enforce_step`] for the effectful form).
    pub(crate) fn step_fault(&self, step: u64) -> Option<StepFault> {
        self.faults.iter().find_map(|f| match *f {
            Fault::Step { step: s, fault } if s == step => Some(fault),
            _ => None,
        })
    }

    /// Enforce any step fault armed for `step`: `kill` exits the process
    /// with [`FAULT_KILL_EXIT`] (simulated crash — nothing is flushed),
    /// `stall` parks the thread in a sleep loop (simulated hang — the
    /// heartbeat goes stale until the supervisor kills the process).
    pub fn enforce_step(&self, step: u64) {
        match self.step_fault(step) {
            None => {}
            Some(StepFault::Kill) => {
                eprintln!("[fault] kill@{step}: exiting with code {FAULT_KILL_EXIT}");
                std::process::exit(FAULT_KILL_EXIT);
            }
            Some(StepFault::Stall) => {
                eprintln!("[fault] stall@{step}: parking (heartbeat goes stale)");
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
            }
        }
    }

    /// Account one checkpoint commit and return the write fault armed for
    /// it, if any. Ordinals are 1-based and counted per process.
    pub(crate) fn on_commit(&mut self) -> Option<WriteFault> {
        self.commits += 1;
        let nth = self.commits;
        self.faults.iter().find_map(|f| match *f {
            Fault::Write { nth: n, fault } if n == nth => Some(fault),
            _ => None,
        })
    }

    /// Checkpoint commits accounted so far.
    pub(crate) fn commits(&self) -> u64 {
        self.commits
    }
}

/// Apply a write fault to a payload about to be committed, in place.
/// Returns an error for [`WriteFault::Io`]; `Torn`/`Corrupt` mutate the
/// bytes and succeed (the damage is then discovered at read time by the
/// manifest/decode validation).
pub(crate) fn apply_write_fault(fault: WriteFault, bytes: &mut Vec<u8>) -> std::io::Result<()> {
    match fault {
        WriteFault::Torn { at_byte } => {
            bytes.truncate(at_byte as usize);
            Ok(())
        }
        WriteFault::Corrupt { at_byte } => {
            if !bytes.is_empty() {
                let k = (at_byte as usize) % bytes.len();
                bytes[k] ^= 0x40;
            }
            Ok(())
        }
        WriteFault::Io => Err(std::io::Error::other("injected I/O fault")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips_and_scopes_attempts() {
        let plan =
            FaultPlan::parse("kill@5, torn@2:64#0, corrupt@3:7#1, io@1#2, stall@9#1").unwrap();
        assert_eq!(plan.faults.len(), 5);
        assert_eq!(
            plan.faults[0],
            PlannedFault {
                fault: Fault::Step {
                    step: 5,
                    fault: StepFault::Kill
                },
                attempt: 0
            }
        );
        assert_eq!(
            plan.faults[2],
            PlannedFault {
                fault: Fault::Write {
                    nth: 3,
                    fault: WriteFault::Corrupt { at_byte: 7 }
                },
                attempt: 1
            }
        );
        // Spacing and an explicit `#0` spell the same plan.
        let tight = "kill@5#0,torn@2:64,corrupt@3:7#1,io@1#2,stall@9#1";
        assert_eq!(FaultPlan::parse(tight).unwrap(), plan);

        let a0 = FaultInjector::from_plan(&plan, 0);
        assert_eq!(a0.step_fault(5), Some(StepFault::Kill));
        assert_eq!(a0.step_fault(9), None, "stall@9 is scoped to attempt 1");
        let a1 = FaultInjector::from_plan(&plan, 1);
        assert_eq!(a1.step_fault(5), None);
        assert_eq!(a1.step_fault(9), Some(StepFault::Stall));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "boom@3",
            "kill@",
            "kill@x",
            "torn@3",
            "torn@0:5",
            "corrupt@1",
            "io@0",
            "kill@2#x",
            "kill",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn write_faults_fire_on_their_ordinal_only() {
        let plan = FaultPlan::parse("torn@2:10,io@3").unwrap();
        let mut inj = FaultInjector::from_plan(&plan, 0);
        assert_eq!(inj.on_commit(), None, "commit 1 clean");
        assert_eq!(inj.on_commit(), Some(WriteFault::Torn { at_byte: 10 }));
        assert_eq!(inj.on_commit(), Some(WriteFault::Io));
        assert_eq!(inj.on_commit(), None, "plan exhausted");
        assert_eq!(inj.commits(), 4);
    }

    #[test]
    fn apply_write_fault_models_the_damage() {
        let mut torn = vec![1u8; 100];
        apply_write_fault(WriteFault::Torn { at_byte: 40 }, &mut torn).unwrap();
        assert_eq!(torn.len(), 40);

        let mut corrupt = vec![0u8; 8];
        apply_write_fault(WriteFault::Corrupt { at_byte: 11 }, &mut corrupt).unwrap();
        assert_eq!(corrupt[11 % 8], 0x40, "byte offset wraps modulo length");
        assert!(corrupt.iter().filter(|&&b| b != 0).count() == 1);

        let mut io = vec![0u8; 4];
        assert!(apply_write_fault(WriteFault::Io, &mut io).is_err());
        assert_eq!(io, vec![0u8; 4], "io fault leaves the payload untouched");
    }

    #[test]
    fn empty_injector_is_a_noop() {
        let mut inj = FaultInjector::none();
        assert_eq!(inj.step_fault(0), None);
        assert_eq!(inj.on_commit(), None);
        // enforce_step with nothing armed must return (not exit/hang).
        inj.enforce_step(123);
    }
}
