//! # mpisim — an in-process message-passing runtime
//!
//! The paper's simulation (ASURA-FDPS-ML) runs on MPI across up to 148,900
//! Fugaku nodes. This crate reproduces the MPI *programming model* the code
//! depends on — blocking point-to-point messages, communicators that can be
//! split (the paper splits `MPI_COMM_WORLD` into *main* and *pool* nodes),
//! barriers, reductions, `MPI_Alltoallv`, and the 3-D torus
//! `O(p^{1/3})` alltoallv of Iwasawa et al. — as an in-process runtime where
//! each logical rank is an OS thread and messages travel through typed
//! mailboxes.
//!
//! Rank code is written in ordinary blocking MPI style:
//!
//! ```
//! use mpisim::World;
//!
//! let sums = World::new(4).run(|comm| {
//!     // Every rank contributes its rank id; allreduce sums them.
//!     comm.allreduce_f64(comm.rank() as f64, mpisim::ReduceOp::Sum)
//! });
//! assert!(sums.iter().all(|&s| s == 6.0));
//! ```
//!
//! All collectives are built on point-to-point messages (binomial trees,
//! dissemination barriers, ring allgathers), so message *counts* and
//! *volumes* — which [`World::run_with_stats`] reports per rank as a
//! [`StatsSnapshot`] — follow the same asymptotics a real MPI
//! implementation would generate. That instrumentation is what the
//! performance model (`perfmodel`) calibrates against.
//!
//! Every module is private: the `pub use` list below is the crate's whole
//! surface, so an item that no other crate needs stays crate-private and
//! `dead_code` can see it.

#![forbid(unsafe_code)]

mod collective;
mod comm;
mod mailbox;
mod message;
mod stats;
mod timing;
mod torus;
mod world;

pub use collective::ReduceOp;
pub use comm::Comm;
pub use stats::StatsSnapshot;
pub use timing::{PhaseEntry, PhaseReport, PhaseTimer};
pub use torus::TorusDims;
pub use world::World;
