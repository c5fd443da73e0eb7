//! # fdps — Framework for Developing Particle Simulators
//!
//! Rust reproduction of FDPS (paper §3.4): the general-purpose substrate for
//! massively parallel particle simulations that ASURA is built on. It
//! provides, exactly as the paper lists,
//!
//! * **domain decomposition** — recursive multisection into a 3-D process
//!   grid with sampling-based load balance ([`domain`]),
//! * **particle exchange** — migrating particles to their owning rank after
//!   a decomposition, over flat or 3-D-torus alltoallv ([`exchange`]),
//! * **tree construction** — a Barnes–Hut octree with monopole moments
//!   ([`Tree`]),
//! * **local essential tree (LET) exchange** — shipping the minimal set of
//!   particles/multipoles every other rank needs ([`exchange_let`]), and
//! * **user-defined interaction calculation using the tree** — group-wise
//!   tree walks that emit interaction lists for particle–particle kernels
//!   ([`walk`]), plus neighbor search for short-range (SPH) interactions.
//!
//! The crate is communicator-generic: all distributed operations take an
//! [`mpisim::Comm`], and the data structures (octree, bounding boxes) are
//! plain and usable serially.
//!
//! Callers name three modules by path — [`domain`], [`exchange`] and
//! [`walk`]; the rest are private, and the `pub use` list below is the
//! crate's surface, so an item no other crate needs stays crate-private
//! and `dead_code` can see it.

#![forbid(unsafe_code)]
// Unit tests may write files, read the clock and key maps by hash; the
// non-test build stays under clippy.toml's bans.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

mod bbox;
pub mod domain;
pub mod exchange;
mod let_exchange;
mod morton;
mod tree;
mod vec3;
pub mod walk;

pub use bbox::BBox;
pub use domain::DomainDecomposition;
pub use let_exchange::{exchange_let, LetEntry};
pub use tree::{Tree, TreeNode};
pub use vec3::Vec3;
pub use walk::{InteractionList, SuperParticle, WalkIndex, WalkScratch};
