//! The force-evaluation scratch arena.
//!
//! [`ForceBuffers`] owns every per-step staging buffer of the force
//! pipeline: the global SoA snapshot (`pos`, `mass`) fed to the gravity
//! tree, the result arrays (`acc`, `pot`, `dudt`), the gas subset index,
//! the SoA hydro state (which carries the gas `pos`/`vel`/`mass`/`u`/`h`
//! snapshots), and the SPH staging scratch. All of them are refreshed
//! **in place** — cleared and re-extended, never re-collected — so after a
//! warm-up step the arena's capacities stabilize and steady-state stepping
//! performs zero heap growth here. [`ForceBuffers::capacity_signature`]
//! exposes the capacities so regression tests can assert exactly that.
//!
//! Downstream of this arena the solvers stage per *worker*, not per step.
//! The gravity solver packs each interaction list into SoA `GroupScratch`
//! for the runtime-dispatched SIMD monopole kernels inside its `map_init`
//! closure — chunk-lifetime scratch, which is why it does not appear in
//! the capacity signature. The SPH solver's per-worker group lists
//! (`NeighborCache`, `ForceBatch`) and its leaf-ordered work plans do live
//! here, inside [`SphScratch`], and are part of the signature: they are levelled across workers after every pass, so their
//! capacities are a function of the passes run, not of which worker
//! happened to meet the widest group. None of it is per-step state and
//! none of it travels through snapshots.

use crate::particle::Particle;
use fdps::walk::WalkIndex;
use fdps::{Tree, Vec3};
use sph::solver::{HydroState, SphScratch};

/// Sentinel in [`ForceBuffers::gas_local`] marking a non-gas particle.
pub const NOT_GAS: u32 = u32::MAX;

/// Reusable buffers for one simulation's force evaluations.
#[derive(Debug, Clone, Default)]
pub struct ForceBuffers {
    /// Positions of all particles, refreshed each evaluation.
    pub pos: Vec<Vec3>,
    /// Masses of all particles, refreshed each evaluation.
    pub mass: Vec<f64>,
    /// Total acceleration (gravity, then SPH added on the gas subset).
    pub acc: Vec<Vec3>,
    /// Gravitational potential at the run's `theta`, filled by the gravity
    /// solver for the positions and masses in `pos`/`mass` (a substep
    /// evaluation overwrites the active entries only). Read after a step
    /// by `Simulation::live_energy` — the energy column of the live
    /// diagnostics; empty until the first evaluation.
    pub pot: Vec<f64>,
    /// du/dt on the gas subset, zero elsewhere.
    pub dudt: Vec<f64>,
    /// Indices of gas particles into the particle array.
    pub gas_idx: Vec<usize>,
    /// Inverse of `gas_idx`: particle index → hydro-local index, or
    /// [`NOT_GAS`] for collisionless species.
    pub gas_local: Vec<u32>,
    /// SoA hydro state over the gas subset (holds the gas `pos`, `vel`,
    /// `mass`, `u`, `h` snapshots plus derived arrays).
    pub hydro: HydroState,
    /// SPH staging buffers (search radii, targets, hydro inputs, work
    /// plans, per-worker group lists) plus the cached SPH neighbor tree (`sph::solver::SphTreeCache`): rebuilt by
    /// each density pass on base steps, moment-refreshed by force and
    /// substep passes — the hydro counterpart of `tree`/`walk_index`
    /// below.
    pub sph: SphScratch,
    /// Per-particle desired timestep \[Myr\], input to the level assignment
    /// (block-timestep mode).
    pub dt_wanted: Vec<f64>,
    /// Active particle indices of the current substep boundary.
    pub active: Vec<u32>,
    /// Per-particle active flags mirroring `active` (O(1) membership for
    /// the solvers); reset entry-by-entry, never re-filled wholesale.
    pub active_mask: Vec<bool>,
    /// Hydro-local indices of the active gas particles.
    pub active_gas: Vec<usize>,
    /// Gravity tree cached across substeps: full rebuild on base steps,
    /// moment-only [`Tree::refresh`] on fine substeps (until the drift
    /// bound trips).
    pub tree: Option<Tree>,
    /// Compact walk index paired with `tree`: rebuilt (storage reused) on
    /// full tree builds, [`WalkIndex::refresh`]ed in place on moment-only
    /// refreshes — never reconstructed per force evaluation.
    pub walk_index: Option<WalkIndex>,
    /// Position snapshot at the last full tree build, for the drift bound.
    pub tree_ref_pos: Vec<Vec3>,
}

impl ForceBuffers {
    /// Refresh the global SoA snapshot and the gas index in place.
    pub fn refresh(&mut self, particles: &[Particle]) {
        self.pos.clear();
        self.mass.clear();
        self.gas_idx.clear();
        self.gas_local.clear();
        for (i, p) in particles.iter().enumerate() {
            self.pos.push(p.pos);
            self.mass.push(p.mass);
            if p.is_gas() {
                self.gas_local.push(self.gas_idx.len() as u32);
                self.gas_idx.push(i);
            } else {
                self.gas_local.push(NOT_GAS);
            }
        }
        let n = particles.len();
        self.dudt.clear();
        self.dudt.resize(n, 0.0);
    }

    /// Refresh the gas SoA hydro state from the current particle data
    /// (requires [`ForceBuffers::refresh`] to have filled `gas_idx`).
    pub fn refresh_hydro(&mut self, particles: &[Particle]) {
        let hs = &mut self.hydro;
        hs.pos.clear();
        hs.vel.clear();
        hs.mass.clear();
        hs.u.clear();
        hs.h.clear();
        for &i in &self.gas_idx {
            let p = &particles[i];
            hs.pos.push(p.pos);
            hs.vel.push(p.vel);
            hs.mass.push(p.mass);
            hs.u.push(p.u);
            hs.h.push(p.h.max(1e-3));
        }
        hs.resize_derived();
    }

    /// Capacities of every owned buffer, in a fixed order. Steady-state
    /// stepping must leave this signature unchanged — the zero-allocation
    /// regression tests compare it before and after.
    pub fn capacity_signature(&self) -> Vec<usize> {
        let hs = &self.hydro;
        let mut sig = vec![
            self.pos.capacity(),
            self.mass.capacity(),
            self.acc.capacity(),
            self.pot.capacity(),
            self.dudt.capacity(),
            self.gas_idx.capacity(),
            self.gas_local.capacity(),
            hs.pos.capacity(),
            hs.vel.capacity(),
            hs.mass.capacity(),
            hs.u.capacity(),
            hs.h.capacity(),
            hs.rho.capacity(),
            hs.acc.capacity(),
            hs.dudt.capacity(),
            hs.cs.capacity(),
            hs.v_sig.capacity(),
            hs.n_ngb.capacity(),
            self.dt_wanted.capacity(),
            self.active.capacity(),
            self.active_mask.capacity(),
            self.active_gas.capacity(),
            self.tree_ref_pos.capacity(),
        ];
        sig.extend(self.sph.capacities());
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particle::Particle;

    fn mixed_particles(n: usize) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let pos = Vec3::new(i as f64, 0.0, 0.0);
                if i % 3 == 0 {
                    Particle::gas(i as u64, pos, Vec3::ZERO, 1.0, 1.0, 2.0)
                } else {
                    Particle::dm(i as u64, pos, Vec3::ZERO, 5.0)
                }
            })
            .collect()
    }

    #[test]
    fn refresh_tracks_particles_and_gas_subset() {
        let particles = mixed_particles(30);
        let mut bufs = ForceBuffers::default();
        bufs.refresh(&particles);
        assert_eq!(bufs.pos.len(), 30);
        assert_eq!(bufs.mass.len(), 30);
        assert_eq!(bufs.dudt.len(), 30);
        assert_eq!(bufs.gas_idx.len(), 10);
        assert!(bufs.gas_idx.iter().all(|&i| particles[i].is_gas()));
        // gas_local is the exact inverse of gas_idx.
        assert_eq!(bufs.gas_local.len(), 30);
        for (i, &k) in bufs.gas_local.iter().enumerate() {
            if particles[i].is_gas() {
                assert_eq!(bufs.gas_idx[k as usize], i);
            } else {
                assert_eq!(k, NOT_GAS);
            }
        }
        bufs.refresh_hydro(&particles);
        assert_eq!(bufs.hydro.len(), 10);
        assert_eq!(bufs.hydro.rho.len(), 10);
    }

    #[test]
    fn repeated_refresh_does_not_grow_capacities() {
        let particles = mixed_particles(100);
        let mut bufs = ForceBuffers::default();
        bufs.refresh(&particles);
        bufs.refresh_hydro(&particles);
        let sig = bufs.capacity_signature();
        for _ in 0..5 {
            bufs.refresh(&particles);
            bufs.refresh_hydro(&particles);
        }
        assert_eq!(bufs.capacity_signature(), sig);
    }
}
