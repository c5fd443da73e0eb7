//! # gravity — softened monopole gravity kernels
//!
//! The gravity interaction (paper Eq. 1) evaluated Barnes–Hut-style over
//! FDPS interaction lists. Two kernel back ends are provided:
//!
//! * [`kernel::accumulate_f64`] / [`kernel::accumulate_f64_soa`] —
//!   straight double precision; the SoA form is the vectorized production
//!   kernel (bitwise identical to the AoS reference);
//! * [`kernel::accumulate_mixed`] / [`kernel::accumulate_mixed_staged`] —
//!   the paper's mixed-precision scheme (§4.3): positions are converted to
//!   single-precision coordinates *relative to a group representative*,
//!   the hot loop runs in `f32`, and the accumulated result is widened
//!   back to `f64`. This keeps the wide dynamic range of the galaxy (5–6
//!   orders of magnitude in scale) in doubles while the O(N n_l) inner
//!   loop runs at single-precision speed. The staged form takes
//!   caller-owned f32 SoA scratch so the hot path never allocates.
//!
//! [`solver::GravitySolver`] drives the group-wise evaluation with rayon
//! across groups (the intra-node OpenMP analogue), staging each group's
//! interaction list into per-worker SoA buffers.

// `unsafe` is confined to `kernel::simd`, the AVX2 bodies behind a
// `lanes::Avx2` token: the compiler keeps it out of every other module.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod kernel;
pub mod solver;

pub use kernel::{
    accumulate_f64, accumulate_f64_soa, accumulate_mixed, accumulate_mixed_staged, GravityAccum,
};
pub use solver::{GravityResult, GravitySolver};

/// FLOPs per gravity interaction under the paper's counting (Table 4).
pub const OPS_PER_INTERACTION: usize = pikg::kernels::PAPER_GRAVITY_OPS;
