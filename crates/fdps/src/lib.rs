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
//!   ([`tree`]),
//! * **local essential tree (LET) exchange** — shipping the minimal set of
//!   particles/multipoles every other rank needs ([`let_exchange`]), and
//! * **user-defined interaction calculation using the tree** — group-wise
//!   tree walks that emit interaction lists for particle–particle kernels
//!   ([`walk`]), plus neighbor search for short-range (SPH) interactions.
//!
//! The crate is communicator-generic: all distributed operations take an
//! [`mpisim::Comm`], and the data structures (octree, bounding boxes) are
//! plain and usable serially.

#![forbid(unsafe_code)]
// Unit tests may write files, read the clock and key maps by hash; the
// non-test build stays under clippy.toml's bans.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod bbox;
pub mod domain;
pub mod exchange;
pub mod let_exchange;
pub mod morton;
pub mod tree;
pub mod vec3;
pub mod walk;

pub use bbox::BBox;
pub use domain::DomainDecomposition;
pub use tree::{Tree, TreeNode};
pub use vec3::Vec3;
pub use walk::{InteractionList, SuperParticle, WalkIndex, WalkScratch};
