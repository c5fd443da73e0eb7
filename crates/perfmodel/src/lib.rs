//! # perfmodel — machine models and scaling extrapolation
//!
//! We do not have Fugaku (158,976 A64FX nodes on a TofuD torus), the Rusty
//! genoa partition, or Miyabi GH200 nodes. This crate stands in for them
//! (ROADMAP open item 6 decides whether it stays): analytic
//! machine/network models whose *cost terms* are the ones the paper
//! derives —
//!
//! * interaction work `O(N (log N + n_g))` split between gravity
//!   (27 ops), density (73 ops) and hydro force (101 ops) kernels at the
//!   paper's measured per-architecture efficiencies (Table 4),
//! * tree construction `O(N log(N_loc)/n_g)` at memory-latency-bound rates,
//! * domain/particle exchange and LET exchange volumes growing with the
//!   domain surface, carried by a 3-D torus `O(p^{1/3})` alltoallv or a
//!   fat-tree alltoallv.
//!
//! Coefficients are calibrated once against the paper's published anchor
//! (Table 3: the 148,896-node weakMW2M breakdown); the *shapes* of
//! Figures 6 and 7 then follow from the functional forms. Each phase model
//! is independently testable.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod machine;
pub mod model;
pub mod scaling;

pub use machine::{Machine, Network};
pub use model::{PhaseBreakdown, RunPoint, StepModel};
pub use scaling::{strong_scaling, weak_scaling, ScalingCurve};
