//! Umbrella crate for the ASURA-FDPS-ML reproduction workspace.
//!
//! Re-exports every subsystem crate so the integration tests under
//! `tests/` and the runnable `examples/` have a single dependency root,
//! and hosts what the `asura` scenario-runner binary (`src/bin/asura.rs`)
//! is built from: the [`scenarios`] registry and the [`serve`] fleet
//! daemon with the supervised child launch both front-ends share. Library
//! users should depend on the individual crates directly.

#![forbid(unsafe_code)]
// Unit tests may write files, read the clock and key maps by hash; the
// non-test build stays under clippy.toml's bans.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod scenarios;
pub mod serve;
pub mod surrogate_train;

pub use astro;
pub use asura_core;
pub use fdps;
pub use galactic_ic;
pub use gravity;
pub use mpisim;
pub use perfmodel;
pub use pikg;
pub use sph;
pub use surrogate;
pub use unet;
