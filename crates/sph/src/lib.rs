//! # sph — smoothed-particle hydrodynamics
//!
//! The compressible-gas half of the N-body/SPH simulation (paper §1): the
//! interstellar medium is modeled with SPH particles whose distribution is
//! "realized with the distributions smoothed by the kernel radius, which is
//! typically the size of 100 gas SPH particles".
//!
//! Components:
//! * [`kernel`] — the M4 cubic-spline kernel, plus a PPA table-lookup
//!   variant built with [`pikg::PpaTable`] (the paper's §3.5 optimization);
//! * [`eos`] — ideal-gas equation of state and temperature conversion;
//! * [`group`] — FDPS-style i-particle groups: a leaf's targets share one
//!   tree walk over j-side data laid out in tree order;
//! * [`density`] — density summation with the smoothing-length (kernel
//!   size) iteration of paper §5.2.5, re-filtering the group's list
//!   across targets and trial h values instead of re-walking the tree;
//! * [`force`] — symmetrized pressure force with Monaghan artificial
//!   viscosity and `du/dt`; the production path is the batched
//!   [`force::force_batch`] over each target's in-support pairs, with
//!   scalar [`force::pair_force`] retained as the equivalence reference;
//! * `simd` — the AVX2 bodies of both passes' pair loops (candidate and
//!   row selection, the hydro-force body) and of the cubic spline's batch
//!   loops, dispatched at run time and equal to their portable twins on
//!   every output bit;
//! * [`timestep`] — the Courant–Friedrichs–Lewy condition that drives the
//!   entire paper (§1: the SN-heated gas makes `dt_CFL` collapse);
//! * [`solver`] — a rayon-parallel driver over a neighbor-search tree.

// The one `unsafe` region of this crate is `simd`, the AVX2 bodies of the
// pair loops (raw vector loads, gathers and stores), reached through safe
// functions that take a `lanes::Avx2` token; the compiler keeps it out of
// every other module.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod density;
pub mod eos;
pub mod force;
pub mod group;
pub mod kernel;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd;
pub mod solver;
pub mod timestep;

pub use eos::GammaLawEos;
pub use kernel::{CubicSpline, PpaSpline, SphKernel, WendlandC2};
pub use solver::{HydroState, SphScratch, SphSolver};

/// Paper-convention operations per density interaction (Table 4).
pub const DENSITY_OPS_PER_INTERACTION: usize = pikg::kernels::PAPER_DENSITY_OPS;
/// Paper-convention operations per hydro-force interaction (Table 4).
pub const HYDRO_OPS_PER_INTERACTION: usize = pikg::kernels::PAPER_HYDRO_OPS;
