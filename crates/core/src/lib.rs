//! # asura-core — the ASURA-FDPS-ML simulation driver
//!
//! The paper's primary contribution (§3.2): an N-body/SPH galaxy
//! integrator whose supernovae are bypassed by a surrogate model, enabling
//! a **fixed global timestep** where conventional codes are forced into
//! tiny CFL-limited adaptive steps.
//!
//! Two schemes are implemented side by side:
//!
//! * [`Scheme::Surrogate`] — the paper's method: SNe identified each step,
//!   their (60 pc)^3 regions shipped to *pool* workers, predictions applied
//!   50 global steps later by particle ID, while the main integration never
//!   sees the feedback energy directly.
//! * [`Scheme::Conventional`] — the baseline: thermal energy injection and
//!   a CFL-adaptive shared timestep, which collapses after every SN
//!   (paper §5.3 measures the resulting 10x step-count penalty).
//!
//! [`sim::Simulation`] is the shared-memory driver (rayon-parallel);
//! [`dist`] runs the same scheme across `mpisim` ranks with the paper's
//! main/pool communicator split and phase-timing breakdown.
//!
//! ## Snapshots & CLI
//!
//! The [`snapshot`] module provides versioned, checksummed checkpoint
//! serialization (compact binary and inspectable JSON) of the complete
//! driver state. There is one snapshot kind, [`snapshot::SimSnapshot`]:
//! run-level state plus one record per particle slab — one from
//! [`Simulation::snapshot`], one per main rank from the distributed
//! driver's gather. [`Simulation::restore`] and [`dist::run`] from
//! [`dist::Start::Resumed`] guarantee that a restored run continues
//! bit-for-bit identically to one that never stopped — counters included,
//! and with SN-region predictions still in flight in the pool queue.
//! Periodic checkpointing is driven by [`SimConfig::snapshot_every`], and
//! committed by one per-step tail under both drivers
//! ([`ckpt::CkptStore::after_step`]); the `asura` scenario-runner binary (in
//! the workspace root package) exposes the registered scenarios, snapshot
//! cadence, `--resume`, and a diagnostics time-series writer from one
//! command line. The snapshot format version policy lives in the
//! [`snapshot`] module docs.
//!
//! ## Crash safety & supervision
//!
//! On top of the snapshot codecs sit three modules that make long runs
//! survivable: [`ckpt`] (atomic tmp→fsync→rename writes and a rotated,
//! manifest-checksummed checkpoint store whose
//! [`latest_valid`](ckpt::CkptStore::latest_valid_sim) walk skips damaged
//! entries), [`supervise`] (a heartbeat-watching parent that detects
//! crashes and hangs and auto-resumes from the newest intact checkpoint
//! under a bounded retry budget, logging every incident to
//! `supervisor.json`), and [`faults`] (a deterministic, attempt-scoped
//! fault-injection plan — kills, stalls, torn/corrupt/failed checkpoint
//! writes — so the recovery paths are exercised by tests and CI rather
//! than trusted). `asura --scenario <name> --supervised` wires all three
//! together, and so does each run of the `asura serve` fleet daemon (in
//! the workspace root package, beside the CLI whose runs it launches).

#![forbid(unsafe_code)]
// Unit tests may write files, read the clock and key maps by hash; the
// non-test build stays under clippy.toml's bans.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

#[cfg(test)]
mod blocksteps;
pub mod ckpt;
pub mod config;
pub mod diagnostics;
pub mod dist;
pub mod faults;
pub mod forces;
pub mod particle;
pub mod phases;
pub mod pool;
#[cfg(test)]
mod runs;
pub mod scheduler;
pub mod sim;
pub mod snapshot;
mod step;
pub mod supervise;

pub use forces::ForceBuffers;

pub use ckpt::{atomic_write, CkptEntry, CkptFormat, CkptStore};
pub use config::{Scheme, SimConfig, TimestepMode};
pub use faults::{FaultInjector, FaultPlan, FAULT_KILL_EXIT};
pub use particle::{Kind, Particle};
pub use pool::{PoolPredictor, SedovOverlayPredictor};
pub use scheduler::ActiveScheduler;
pub use sim::{SimStats, Simulation};
pub use snapshot::{SimSnapshot, SnapshotError};
pub use supervise::{Heartbeat, IncidentLog, RetryPolicy, Supervisor};
