//! The force pipeline and the integrator, once, for both drivers.
//!
//! [`ForceBuffers`] owns every per-step staging buffer of the force
//! pipeline: the global SoA snapshot (`pos`, `mass`) fed to the gravity
//! tree, the result arrays (`acc`, `pot`, `dudt`), the gas subset index,
//! the SoA hydro state (which carries the gas `pos`/`vel`/`mass`/`u`/`h`
//! snapshots), and the SPH staging scratch. All of them are refreshed
//! **in place** — resized to the step's length and written by slot, never
//! re-collected or pushed element by element — so after a warm-up step the
//! arena's capacities stabilize and steady-state stepping performs zero
//! heap growth here. A substep rewrites only the local positions: species
//! and masses, and with them the gas maps and the halo's imports, are
//! fixed within a base step. The tests' `ForceBuffers::capacity_signature`
//! lists the capacities so they can assert exactly that.
//!
//! On that arena sit the two force evaluations
//! (`ForceBuffers::compute_forces`, `ForceBuffers::compute_forces_active`)
//! and the two integrators (`ForceBuffers::kdk`,
//! `ForceBuffers::block_step`) over a *local particle slab*. They are
//! generic over a `Halo`: the handful of points where a rank of the
//! distributed driver must talk to its neighbours — remote gravity sources
//! appended after the locals, SPH ghosts appended after the local gas and
//! overwritten with owner values after the density pass, the block depth
//! agreed world-wide, each phase bracketed for the timer. The
//! shared-memory driver's halo keeps the trait's defaults, which are empty
//! and compile away, so this module reads no clock and `Simulation` and
//! `run_distributed` on one rank are the same computation bit for bit
//! (`tests/distributed.rs`).
//!
//! Downstream of this arena one rule holds: group scratch lives with the
//! thread, for gravity and SPH alike. The gravity solver's walk stack,
//! interaction list and SoA kernel columns and the SPH passes' group lists
//! (`NeighborCache`, `ForceBatch`) are one thread-local set per thread
//! that runs groups, so they are not in the capacity signature; each
//! crate's tests check them inside `rayon::solo`, where every group runs
//! on the calling thread. The SPH passes' leaf-ordered work plans name
//! each result's target for the caller, so they live here, inside
//! [`SphScratch`], and are part of the signature. None of it is per-step
//! state and none of it travels through snapshots.

use crate::config::SimConfig;
use crate::particle::Particle;
use crate::phases;
use crate::scheduler::{self, ActiveScheduler};
use crate::sim::SimStats;
use crate::step::Explosion;
use astro::units::G;
use fdps::walk::WalkIndex;
use fdps::{Tree, Vec3};
use gravity::GravitySolver;
use sph::solver::{HydroState, SphScratch, SphSolver};
use surrogate::GasParticle;

/// Sentinel in [`ForceBuffers::gas_local`] marking a non-gas particle.
pub const NOT_GAS: u32 = u32::MAX;

/// Phase names of one force evaluation, handed to [`Halo::phase`]: the
/// opening (base-step) pass records under the paper's `1st *` legend
/// entries, the KDK re-force and the substep path under the `2nd *` ones.
pub(crate) struct PassPhases {
    pub tree: &'static str,
    pub let_exchange: &'static str,
    pub(crate) grav_force: &'static str,
    pub density: &'static str,
    pub(crate) sph_force: &'static str,
}

pub(crate) const PASS_OPENING: PassPhases = PassPhases {
    tree: phases::MAKE_LOCAL_TREE_1,
    let_exchange: phases::EXCHANGE_LET_1,
    grav_force: phases::CALC_FORCE_1,
    density: phases::CALC_KERNEL_DENSITY_1,
    sph_force: phases::CALC_FORCE_1,
};

pub(crate) const PASS_CLOSING: PassPhases = PassPhases {
    tree: phases::MAKE_TREE_2,
    let_exchange: phases::EXCHANGE_LET_2,
    grav_force: phases::CALC_FORCE_2,
    density: phases::CALC_KERNEL_SIZE_2,
    sph_force: phases::CALC_FORCE_2,
};

/// What a local particle slab needs from the rest of the world during a
/// step ([`crate::step::step`] states what each method is for in the §3.2
/// sequence). Every method but the pool pair has a default body — the
/// answer of a slab that is alone in the world, which is the shared-memory
/// driver's; the distributed driver overrides them all over its main
/// communicator.
pub(crate) trait Halo {
    /// Whether the methods below are collective operations. A collective
    /// halo must be entered by every rank in the same sequence, so the
    /// pipeline may not skip a pass because *this* slab has no particles,
    /// no gas or an empty active set; a non-collective one keeps those
    /// skips. This is the only thing the shared code asks about who it is
    /// serving.
    const COLLECTIVE: bool = false;

    /// The handle on a region the pool is predicting.
    type Ticket;

    /// Ship a region's gas to the pool (paper Fig. 3, `Send_SNe`); called
    /// on the slab that owns the exploding star only.
    fn submit(&mut self, center: Vec3, gas: Vec<GasParticle>) -> Self::Ticket;

    /// Redeem this slab's due tickets and return *every* slab's due
    /// predictions, in slab order: a region's particles may have migrated
    /// anywhere since dispatch, so every slab replaces by ID.
    fn collect(&mut self, due: Vec<Self::Ticket>) -> Vec<GasParticle>;

    /// Start of a step: hand particles over so each slab holds its domain.
    fn rebalance(&mut self, _particles: &mut Vec<Particle>) {}

    /// Every slab's SN events of this step as `(owning slab, event)`, in
    /// one order on all slabs.
    fn all_events(&mut self, mine: Vec<Explosion>) -> Vec<(usize, Explosion)> {
        mine.into_iter().map(|e| (0, e)).collect()
    }

    /// A region's gas on the slab `owner` — every slab's `local` part in
    /// slab order — and `None` on the others.
    fn gather_region(
        &mut self,
        _owner: usize,
        local: Vec<GasParticle>,
    ) -> Option<Vec<GasParticle>> {
        Some(local)
    }

    /// Σ of `x` over the slabs (the feedback weights' normalisation).
    fn sum(&mut self, x: f64) -> f64 {
        x
    }

    /// Minimum of `x` over the slabs (the CFL-adaptive global step).
    fn min(&mut self, x: f64) -> f64 {
        x
    }

    /// Every slab's ids of this step's star-spawning gas (the ids the new
    /// stars are numbered by), in any order.
    fn all_parents(&mut self, mine: Vec<u64>) -> Vec<u64> {
        mine
    }

    /// Full pass only: append the remote gravity sources this slab needs
    /// (its LET imports) after the local entries of `pos`/`mass`.
    fn import_sources(
        &mut self,
        _ph: &PassPhases,
        _solver: &GravitySolver,
        _pos: &mut Vec<Vec3>,
        _mass: &mut Vec<f64>,
    ) {
    }

    /// Before the density pass: append the other slabs' boundary gas after
    /// the `n_local` local entries of `hydro`.
    fn append_ghosts(&mut self, _hydro: &mut HydroState, _n_local: usize) {}

    /// After the density pass: overwrite every ghost entry with its
    /// owner's freshly converged `rho`/`h` and current `u`/`vel`.
    fn refresh_ghosts(&mut self, _hydro: &mut HydroState, _n_local: usize) {}

    /// Raise `sched` to the depth every slab walks (see
    /// [`scheduler::reduce_depth_world`]); returns the fine-substep count.
    fn agree_depth(&mut self, sched: &mut ActiveScheduler) -> u64 {
        sched.substeps_per_base_step()
    }

    /// Run `f` as the named phase (one of [`crate::phases`]).
    fn phase<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// The gravity solver a run's configuration asks for.
fn gravity_solver(cfg: &SimConfig) -> GravitySolver {
    GravitySolver {
        g: G,
        theta: cfg.theta,
        n_group: cfg.n_group,
        n_leaf: 8,
        eps: cfg.eps,
        mixed_precision: cfg.mixed_precision,
    }
}

/// The SPH solver a run's configuration asks for.
fn sph_solver(cfg: &SimConfig) -> SphSolver {
    SphSolver {
        density_cfg: sph::density::DensityConfig {
            n_ngb_target: cfg.n_ngb,
            ..Default::default()
        },
        cfl: cfg.cfl,
        ..Default::default()
    }
}

/// The walk index of a freshly built `tree`, re-derived into the previous
/// index's storage when there is one (the index rides along with the tree:
/// rebuilt on every full build, moment-refreshed on substeps).
fn rebuilt_index(cached: Option<WalkIndex>, tree: &Tree) -> WalkIndex {
    match cached {
        Some(mut ix) => {
            ix.rebuild_from(tree);
            ix
        }
        None => tree.walk_index(),
    }
}

/// Kick one particle by `dt`: velocity from `acc`, and for gas the
/// specific internal energy from `dudt` (floored).
fn kick(p: &mut Particle, acc: Vec3, dudt: f64, dt: f64) {
    p.vel += acc * dt;
    if p.is_gas() {
        p.u = (p.u + dudt * dt).max(1e-10);
    }
}

/// Reusable buffers for one particle slab's force evaluations.
#[derive(Debug, Clone, Default)]
pub struct ForceBuffers {
    /// Gravity sources: positions of all local particles, refreshed each
    /// evaluation, followed by the halo's imports of the last full pass
    /// (kept through its substeps, frozen at their base-step coordinates —
    /// the same error class as the refreshed MAC under the drift bound).
    pub pos: Vec<Vec3>,
    /// Masses matching `pos`.
    pub mass: Vec<f64>,
    /// Total acceleration (gravity, then SPH added on the gas subset).
    pub acc: Vec<Vec3>,
    /// Gravitational potential at the run's `theta`, filled by the gravity
    /// solver for the local positions and masses in `pos`/`mass` (a
    /// substep evaluation overwrites the active entries only). Read after
    /// a step by `Simulation::live_energy` — the energy column of the live
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
    /// `mass`, `u`, `h` snapshots plus derived arrays), followed by the
    /// halo's ghosts.
    pub hydro: HydroState,
    /// SPH staging buffers (search radii, targets, hydro inputs, work
    /// plans) plus the cached SPH neighbor tree (`sph::solver::SphTreeCache`): rebuilt by
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
    /// Source positions at the last full tree build, for the drift bound.
    pub(crate) tree_ref_pos: Vec<Vec3>,
    /// `(particle index, v_sig, h)` from the last full SPH force pass: the
    /// CFL input of the adaptive global step and of the level assignment.
    pub vsig: Vec<(usize, f64, f64)>,
}

impl ForceBuffers {
    /// Refresh the global SoA snapshot and the gas index in place, by
    /// slot: every column is sized to the particle count once and
    /// particle `i` written at index `i`; `gas_idx` is compacted
    /// branch-free (each particle writes the next slot, gas advances it).
    pub fn refresh(&mut self, particles: &[Particle]) {
        let n = particles.len();
        self.pos.resize(n, Vec3::ZERO);
        self.mass.resize(n, 0.0);
        self.gas_local.resize(n, NOT_GAS);
        self.gas_idx.resize(n, 0);
        let mut n_gas = 0;
        let slots = self
            .pos
            .iter_mut()
            .zip(&mut self.mass)
            .zip(&mut self.gas_local);
        for (i, (((pos, mass), local), p)) in slots.zip(particles).enumerate() {
            let gas = p.is_gas();
            (*pos, *mass) = (p.pos, p.mass);
            *local = if gas { n_gas as u32 } else { NOT_GAS };
            self.gas_idx[n_gas] = i;
            n_gas += gas as usize;
        }
        self.gas_idx.truncate(n_gas);
        self.dudt.clear();
        self.dudt.resize(n, 0.0);
    }

    /// The substep share of [`ForceBuffers::refresh`]: within a base step
    /// only positions move — species and masses, hence the gas maps, and
    /// the halo imports after the locals stay what the base step staged —
    /// so the local entries of `pos` are rewritten in place and nothing
    /// else. `dudt` keeps the base step's values; a substep kick reads
    /// only its active set's, which the evaluation rewrites.
    fn refresh_positions(&mut self, particles: &[Particle]) {
        debug_assert_eq!(self.gas_local.len(), particles.len());
        for (pos, p) in self.pos.iter_mut().zip(particles) {
            *pos = p.pos;
        }
    }

    /// Refresh the gas SoA hydro state from the current particle data
    /// (requires [`ForceBuffers::refresh`] to have filled `gas_idx`):
    /// positions, velocities and energies move between passes; `h`/`rho`
    /// carry each particle's latest converged values. Any ghost tail of
    /// the previous pass is dropped. Writes by slot, like `refresh`.
    pub fn refresh_hydro(&mut self, particles: &[Particle]) {
        let hs = &mut self.hydro;
        let n = self.gas_idx.len();
        hs.pos.resize(n, Vec3::ZERO);
        hs.vel.resize(n, Vec3::ZERO);
        for col in [&mut hs.mass, &mut hs.u, &mut hs.h, &mut hs.rho] {
            col.resize(n, 0.0);
        }
        for (k, &i) in self.gas_idx.iter().enumerate() {
            let p = &particles[i];
            hs.pos[k] = p.pos;
            hs.vel[k] = p.vel;
            hs.mass[k] = p.mass;
            hs.u[k] = p.u;
            hs.h[k] = p.h.max(1e-3);
            hs.rho[k] = p.rho;
        }
        hs.resize_derived();
    }

    /// One full force evaluation for *all* local particles: gravity
    /// (source snapshot → halo imports → fresh tree → walk) plus SPH on the
    /// gas (ghosts → density → owner-value ghost refresh → force), written
    /// into `acc`/`dudt` with `h`/`rho` scattered back to the particles.
    /// Every staging buffer is refreshed in place; the octree, its walk
    /// index and the imports are cached for the substep path to refresh.
    pub(crate) fn compute_forces<H: Halo>(
        &mut self,
        cfg: &SimConfig,
        halo: &mut H,
        ph: &PassPhases,
        particles: &mut [Particle],
        stats: &mut SimStats,
    ) {
        let n = particles.len();
        self.vsig.clear();
        if n == 0 && !H::COLLECTIVE {
            self.acc.clear();
            self.dudt.clear();
            return;
        }
        let solver = gravity_solver(cfg);
        let sph = sph_solver(cfg);

        // Gravity over all species, local sources first.
        self.refresh(particles);
        halo.import_sources(ph, &solver, &mut self.pos, &mut self.mass);
        stats.gravity_interactions += halo.phase(ph.grav_force, || {
            let tree = Tree::build(&self.pos, &self.mass, solver.n_leaf);
            let index = rebuilt_index(self.walk_index.take(), &tree);
            let interactions = solver.evaluate_into_indexed(
                &tree,
                &index,
                &self.pos,
                &self.mass,
                n,
                &mut self.acc,
                &mut self.pot,
            );
            self.tree = Some(tree);
            self.walk_index = Some(index);
            interactions
        });
        stats.tree_rebuilds += 1;
        self.tree_ref_pos.clear();
        self.tree_ref_pos.extend_from_slice(&self.pos);

        // SPH on the gas subset: the density pass rebuilds the neighbor
        // tree, the force pass refreshes it (same positions, converged h).
        if H::COLLECTIVE || self.gas_idx.len() > 1 {
            self.refresh_hydro(particles);
            let n_gas = self.gas_idx.len();
            halo.append_ghosts(&mut self.hydro, n_gas);
            let (r0, b0) = self.sph.tree_counts();
            let dstats = halo.phase(ph.density, || {
                sph.density_pass_with(&mut self.hydro, n_gas, &mut self.sph)
            });
            halo.refresh_ghosts(&mut self.hydro, n_gas);
            let fstats = halo.phase(ph.sph_force, || {
                sph.force_pass_with(&mut self.hydro, n_gas, &mut self.sph)
            });
            let (r1, b1) = self.sph.tree_counts();
            stats.sph_tree_refreshes += r1 - r0;
            stats.sph_tree_rebuilds += b1 - b0;
            stats.hydro_interactions += dstats.density_interactions + fstats.force_interactions;
            let state = &self.hydro;
            for (k, &i) in self.gas_idx.iter().enumerate() {
                self.acc[i] += state.acc[k];
                self.dudt[i] = state.dudt[k];
                let p = &mut particles[i];
                p.h = state.h[k];
                p.rho = state.rho[k];
                // Stash signal speeds for the timestep criteria.
                self.vsig
                    .push((i, state.v_sig[k].max(state.cs[k]), state.h[k]));
            }
        }
    }

    /// Force evaluation restricted to the current active set (`active`):
    /// the whole system acts as sources at its drift-predicted positions
    /// (halo imports frozen where the base step left them), but only
    /// active particles receive new gravity (skipping the tree walk of
    /// fully-inactive groups) and only active gas re-sums density/hydro
    /// forces against freshly exchanged ghosts. The cached octree is
    /// moment-refreshed in place unless a source drifted beyond
    /// [`Tree::DRIFT_FRACTION`] of the root cube, which forces a full
    /// rebuild.
    pub(crate) fn compute_forces_active<H: Halo>(
        &mut self,
        cfg: &SimConfig,
        halo: &mut H,
        particles: &mut [Particle],
        stats: &mut SimStats,
    ) {
        let n = particles.len();
        if !H::COLLECTIVE && (n == 0 || self.active.is_empty()) {
            return;
        }
        let solver = gravity_solver(cfg);
        let sph = sph_solver(cfg);
        let ph = &PASS_CLOSING;

        // Source snapshot at the drift-predicted positions (the base step
        // staged everything else), then cross-substep tree reuse under
        // the drift bound.
        halo.phase(ph.tree, || {
            self.refresh_positions(particles);
            let cached = self.tree.take();
            let cached_index = self.walk_index.take();
            let reuse = cached
                .as_ref()
                .is_some_and(|t| t.may_refresh(&self.pos, &self.tree_ref_pos));
            let (tree, index) = match cached {
                Some(mut t) if reuse => {
                    t.refresh(&self.pos, &self.mass);
                    stats.tree_refreshes += 1;
                    // Topology unchanged: the walk index refreshes in
                    // place too.
                    let ix = match cached_index {
                        Some(mut ix) if ix.len() == t.nodes.len() => {
                            ix.refresh(&t);
                            ix
                        }
                        _ => t.walk_index(),
                    };
                    (t, ix)
                }
                _ => {
                    stats.tree_rebuilds += 1;
                    self.tree_ref_pos.clear();
                    self.tree_ref_pos.extend_from_slice(&self.pos);
                    let t = Tree::build(&self.pos, &self.mass, solver.n_leaf);
                    let ix = rebuilt_index(cached_index, &t);
                    (t, ix)
                }
            };
            self.tree = Some(tree);
            self.walk_index = Some(index);
        });

        // The mask is all-false between calls; only touched entries are
        // set and later reset.
        self.active_mask.resize(n, false);
        self.active_gas.clear();
        for &ai in &self.active {
            let i = ai as usize;
            self.active_mask[i] = true;
            let k = self.gas_local[i];
            if k != NOT_GAS {
                self.active_gas.push(k as usize);
            }
        }
        stats.gravity_interactions += halo.phase(ph.grav_force, || {
            let tree = self.tree.as_ref().expect("cached just above");
            let index = self.walk_index.as_ref().expect("rides with the tree");
            solver.evaluate_into_active_indexed(
                tree,
                index,
                &self.pos,
                &self.mass,
                n,
                &self.active_mask,
                &mut self.acc,
                &mut self.pot,
            )
        });

        // SPH on the active gas subset: both passes refresh the neighbor
        // tree cached at the base step (full rebuild only when the drift
        // bound trips or the gas population changed).
        if H::COLLECTIVE || (self.gas_idx.len() > 1 && !self.active_gas.is_empty()) {
            self.refresh_hydro(particles);
            let n_gas = self.gas_idx.len();
            halo.append_ghosts(&mut self.hydro, n_gas);
            let (r0, b0) = self.sph.tree_counts();
            let dstats = halo.phase(ph.density, || {
                sph.density_pass_active(&mut self.hydro, &self.active_gas, &mut self.sph)
            });
            halo.refresh_ghosts(&mut self.hydro, n_gas);
            let fstats = halo.phase(ph.sph_force, || {
                sph.force_pass_active(&mut self.hydro, &self.active_gas, &mut self.sph)
            });
            let (r1, b1) = self.sph.tree_counts();
            stats.sph_tree_refreshes += r1 - r0;
            stats.sph_tree_rebuilds += b1 - b0;
            stats.hydro_interactions += dstats.density_interactions + fstats.force_interactions;
            for &k in &self.active_gas {
                let i = self.gas_idx[k];
                self.acc[i] += self.hydro.acc[k];
                self.dudt[i] = self.hydro.dudt[k];
                let p = &mut particles[i];
                p.h = self.hydro.h[k];
                p.rho = self.hydro.rho[k];
            }
        }

        // Restore the all-false mask invariant.
        for &ai in &self.active {
            self.active_mask[ai as usize] = false;
        }
    }

    /// KDK leapfrog with a shared timestep (paper §3.2 step 3): opening
    /// forces, half-kick + drift, a full re-force at the new positions,
    /// closing half-kick.
    pub(crate) fn kdk<H: Halo>(
        &mut self,
        cfg: &SimConfig,
        halo: &mut H,
        particles: &mut [Particle],
        dt: f64,
        stats: &mut SimStats,
    ) {
        stats.active_updates += particles.len() as u64;
        self.compute_forces(cfg, halo, &PASS_OPENING, particles, stats);
        halo.phase(phases::INTEGRATION, || {
            for (i, p) in particles.iter_mut().enumerate() {
                kick(p, self.acc[i], self.dudt[i], 0.5 * dt);
                p.pos += p.vel * dt;
            }
        });
        self.compute_forces(cfg, halo, &PASS_CLOSING, particles, stats);
        halo.phase(phases::FINAL_KICK, || {
            for (i, p) in particles.iter_mut().enumerate() {
                kick(p, self.acc[i], self.dudt[i], 0.5 * dt);
            }
        });
    }

    /// One base step under hierarchical block timesteps: assign levels
    /// from per-particle desired dts, agree on the depth with the halo,
    /// then walk the binary subdivision, kicking only the active subset at
    /// each fine-substep boundary while everyone else is drift-predicted
    /// (phase-by-phase mapping to the paper in the [`crate::scheduler`]
    /// module docs).
    pub(crate) fn block_step<H: Halo>(
        &mut self,
        cfg: &SimConfig,
        halo: &mut H,
        sched: &mut ActiveScheduler,
        particles: &mut [Particle],
        max_level: u32,
        stats: &mut SimStats,
    ) {
        let dt_base = cfg.dt_global;
        // (1) Full forces (fresh tree) + level assignment.
        self.compute_forces(cfg, halo, &PASS_OPENING, particles, stats);
        halo.phase(phases::INTEGRATION, || {
            scheduler::desired_timesteps(
                cfg.cfl,
                cfg.eps,
                dt_base,
                cfg.dt_min,
                &self.acc,
                &self.vsig,
                &mut self.dt_wanted,
            );
            sched.assign(dt_base, &self.dt_wanted, max_level);
        });
        let n_sub = halo.agree_depth(sched);
        let dt_fine = sched.dt_fine();

        // (2) Opening half-kick, each particle with its own level's step.
        halo.phase(phases::INTEGRATION, || {
            for (i, p) in particles.iter_mut().enumerate() {
                kick(p, self.acc[i], self.dudt[i], 0.5 * sched.dt_of(i));
            }
        });

        // (3) Binary-subdivision walk over the fine substeps.
        for boundary in 1..=n_sub {
            // Drift everyone to the boundary: inactive particles are
            // thereby drift-predicted — the per-substep all-particle
            // overhead of the paper's efficiency argument (§1).
            halo.phase(phases::INTEGRATION, || {
                for p in particles.iter_mut() {
                    p.pos += p.vel * dt_fine;
                }
            });
            sched.active_at_boundary_into(boundary, &mut self.active);
            self.compute_forces_active(cfg, halo, particles, stats);
            // Closing half-kick; mid-base-step the same force also opens
            // the particle's next step, so the two halves fuse.
            let closing_only = boundary == n_sub;
            halo.phase(phases::FINAL_KICK, || {
                for &ai in &self.active {
                    let i = ai as usize;
                    let dt_l = sched.dt_of(i);
                    let dt_kick = if closing_only { 0.5 * dt_l } else { dt_l };
                    kick(&mut particles[i], self.acc[i], self.dudt[i], dt_kick);
                }
            });
            stats.substeps += 1;
            stats.active_updates += self.active.len() as u64;
        }
        stats.dt_min_seen = stats.dt_min_seen.min(dt_fine);
    }

    /// The `vsig` stash as snapshots carry it.
    pub(crate) fn vsig_record(&self) -> Vec<(u64, f64, f64)> {
        self.vsig
            .iter()
            .map(|&(i, v, h)| (i as u64, v, h))
            .collect()
    }

    /// Reinstate a snapshotted `vsig` stash.
    pub(crate) fn restore_vsig(&mut self, record: &[(u64, f64, f64)]) {
        self.vsig = record.iter().map(|&(i, v, h)| (i as usize, v, h)).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particle::Particle;

    impl ForceBuffers {
        /// Capacities of every owned buffer, in a fixed order. Steady-state
        /// stepping must leave this signature unchanged — the zero-allocation
        /// regression tests compare it before and after.
        pub(crate) fn capacity_signature(&self) -> Vec<usize> {
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
                self.vsig.capacity(),
            ];
            sig.extend(self.sph.capacities());
            sig
        }
    }

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

    /// `refresh` + `refresh_hydro` as they were before they wrote by slot,
    /// with a substep's imports re-appended after the locals.
    fn refreshed_by_push(particles: &[Particle], imports: &[(Vec3, f64)]) -> ForceBuffers {
        let mut b = ForceBuffers::default();
        for (i, p) in particles.iter().enumerate() {
            b.pos.push(p.pos);
            b.mass.push(p.mass);
            if p.is_gas() {
                b.gas_local.push(b.gas_idx.len() as u32);
                b.gas_idx.push(i);
            } else {
                b.gas_local.push(NOT_GAS);
            }
        }
        b.dudt.resize(particles.len(), 0.0);
        for &(pos, mass) in imports {
            b.pos.push(pos);
            b.mass.push(mass);
        }
        let hs = &mut b.hydro;
        for &i in &b.gas_idx {
            let p = &particles[i];
            hs.pos.push(p.pos);
            hs.vel.push(p.vel);
            hs.mass.push(p.mass);
            hs.u.push(p.u);
            hs.h.push(p.h.max(1e-3));
            hs.rho.push(p.rho);
        }
        hs.resize_derived();
        b
    }

    fn f64_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn vec3_bits(v: &[Vec3]) -> Vec<[u64; 3]> {
        v.iter()
            .map(|p| [p.x, p.y, p.z].map(f64::to_bits))
            .collect()
    }

    /// Everything the force pipeline reads from the staged buffers.
    fn staged(b: &ForceBuffers) -> impl PartialEq + std::fmt::Debug {
        let hs = &b.hydro;
        (
            [vec3_bits(&b.pos), vec3_bits(&hs.pos), vec3_bits(&hs.vel)],
            [&b.mass, &b.dudt, &hs.mass, &hs.u, &hs.h, &hs.rho].map(|c| f64_bits(c)),
            (b.gas_idx.clone(), b.gas_local.clone(), hs.len()),
        )
    }

    /// The slot writers against the push reference, through one reused
    /// (growing and shrinking) set of buffers: 0–9 particles of mixed
    /// species, all gas (every row of the gas compaction kept) and no gas
    /// (none kept); then a substep's positions-only refresh against a full
    /// refresh with the imports re-appended.
    #[test]
    fn slot_refresh_matches_the_push_reference_bitwise() {
        let make = |n: usize, gas_every: usize, shift: f64| -> Vec<Particle> {
            (0..n)
                .map(|i| {
                    let pos = Vec3::new(i as f64 * 0.7 + shift, -shift, 0.3 * i as f64);
                    let vel = Vec3::new(0.1 * i as f64, 0.2, -0.3);
                    let mut p = if i % gas_every == 0 {
                        Particle::gas(
                            i as u64,
                            pos,
                            vel,
                            1.0 + i as f64,
                            0.5 * i as f64,
                            1e-4 * i as f64,
                        )
                    } else {
                        Particle::dm(i as u64, pos, vel, 5.0 + i as f64)
                    };
                    p.rho = 0.25 * i as f64;
                    p
                })
                .collect()
        };
        let imports = [
            (Vec3::new(9.0, 8.0, 7.0), 3.5),
            (Vec3::new(-9.0, 1.0, 2.0), 0.5),
        ];
        let mut bufs = ForceBuffers::default();
        for n in (0..=9).rev().chain(0..=9) {
            // gas_every 1: all gas; 3: mixed; usize::MAX: none (particle
            // 0, the only multiple, becomes a star).
            for gas_every in [1, usize::MAX, 3] {
                let mut particles = make(n, gas_every, 0.0);
                if gas_every == usize::MAX && n > 0 {
                    particles[0] = Particle::star(0, Vec3::ZERO, Vec3::ZERO, 2.0, 0.0);
                }
                let case = format!("{n} particles, gas every {gas_every}");
                bufs.refresh(&particles);
                bufs.pos.extend(imports.iter().map(|i| i.0));
                bufs.mass.extend(imports.iter().map(|i| i.1));
                bufs.refresh_hydro(&particles);
                assert_eq!(
                    staged(&bufs),
                    staged(&refreshed_by_push(&particles, &imports)),
                    "{case}"
                );

                // A substep: positions move, species and masses do not.
                let drifted = make(n, gas_every, 0.125);
                for (p, q) in particles.iter_mut().zip(&drifted) {
                    p.pos = q.pos;
                }
                bufs.refresh_positions(&particles);
                bufs.refresh_hydro(&particles);
                let reference = refreshed_by_push(&particles, &imports);
                assert_eq!(vec3_bits(&bufs.pos), vec3_bits(&reference.pos), "{case}");
                assert_eq!(f64_bits(&bufs.mass), f64_bits(&reference.mass), "{case}");
                assert_eq!(
                    vec3_bits(&bufs.hydro.pos),
                    vec3_bits(&reference.hydro.pos),
                    "{case}"
                );
            }
        }
    }
}
