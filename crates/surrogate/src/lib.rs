//! # surrogate — the deep-learning supernova surrogate pipeline
//!
//! Paper §3.3: the SPH particles in a (60 pc)^3 cube around an exploding
//! star are mapped onto a 64^3 voxel grid ("using the SPH kernel convolution
//! and the Shepard algorithm"), encoded into eight logarithmic channels
//! (density, temperature, and positive/negative cubes per velocity
//! component), pushed through a 3-D U-Net that predicts the state 0.1 Myr
//! after the explosion, decoded, and converted back into particles with
//! Gibbs sampling — creating exactly as many particles as went in, so mass
//! is conserved.
//!
//! The training set substitutes the authors' 1 M_sun-resolution SN
//! simulations with Sedov–Taylor blasts in `v^-4` turbulent boxes
//! ([`training`]); the recipe that trains on real conventional runs
//! instead is ROADMAP "Surrogate training & deployment".

#![forbid(unsafe_code)]

pub mod encode;
pub mod gibbs;
pub mod model;
pub mod training;
pub mod voxel;

pub use encode::{decode_fields, encode_fields};
pub use gibbs::grid_to_particles;
pub use model::{SurrogateConfig, SurrogateModel};
pub use voxel::{particles_to_grid, GasParticle, VoxelFields, VoxelGrid};
