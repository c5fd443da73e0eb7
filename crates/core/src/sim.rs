//! The shared-memory simulation driver: the paper's §3.2 integration loop
//! with either the surrogate or the conventional SN scheme.

use crate::ckpt::{CkptFormat, CkptStore};
use crate::config::{Scheme, SimConfig, TimestepMode};
use crate::faults::FaultInjector;
use crate::forces::ForceBuffers;
use crate::particle::{Kind, Particle};
use crate::pool::{PoolPredictor, SedovOverlayPredictor, UNetPredictor};
use crate::scheduler::ActiveScheduler;
use crate::snapshot::{ModelState, PendingPrediction, ScheduleState, SimSnapshot};
use crate::step::{self, GasIndex};
use astro::cooling::CoolingCurve;
use astro::lifetime::explodes_in_interval;
use astro::starform::{SfOutcome, StarFormation};
use astro::supernova::SnFeedback;
use astro::units::{E_SN, G};
use astro::yields::SnYield;
use fdps::Vec3;
use gravity::GravitySolver;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sph::timestep::quantize_block;
use sph::GammaLawEos;
use surrogate::GasParticle;

/// Counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    pub steps: u64,
    pub sn_events: u64,
    pub stars_formed: u64,
    pub regions_applied: u64,
    /// Smallest timestep taken \[Myr\].
    pub dt_min_seen: f64,
    /// Total gravity interactions evaluated.
    pub gravity_interactions: u64,
    /// Total SPH interactions evaluated: per pass, the density sum's
    /// converged neighbour counts plus the force pass's in-support pairs
    /// (`sph::solver::SphStats`). Both count pairs that interact, not
    /// candidates a tree walk staged, so the total does not depend on the
    /// neighbour tree's topology.
    pub hydro_interactions: u64,
    /// Fine substeps executed by the block-timestep scheduler (0 in
    /// `Global` mode — the surrogate scheme by construction).
    pub substeps: u64,
    /// Individual particle-step completions: in `Global` mode every KDK
    /// counts each particle once; in `Block` mode a particle counts once
    /// per step of its own level. The Surrogate-vs-Conventional update
    /// economy is exactly the ratio of these.
    pub active_updates: u64,
    /// Full *gravity* octree builds (Morton sort + split + moments).
    pub tree_rebuilds: u64,
    /// Moment-only *gravity* tree refreshes reusing the last build's
    /// topology (cross-substep reuse; see `fdps::Tree::refresh`).
    pub tree_refreshes: u64,
    /// Full *SPH* neighbor-tree builds (the gas-subset tree the
    /// density/force passes walk; split from the gravity counters so the
    /// two reuse pipelines are reported separately).
    pub sph_tree_rebuilds: u64,
    /// Moment-only *SPH* neighbor-tree refreshes
    /// (see `sph::solver::SphTreeCache`).
    pub sph_tree_refreshes: u64,
}

/// A prediction in flight between pool dispatch and application.
struct PendingRegion {
    due_step: u64,
    predicted: Vec<GasParticle>,
}

/// The simulation state and driver.
pub struct Simulation {
    pub config: SimConfig,
    pub particles: Vec<Particle>,
    pub time: f64,
    pub step_count: u64,
    pub stats: SimStats,
    /// The trained surrogate model this run carries (embedded in every
    /// snapshot so a resume rebuilds the identical predictor); `None` for
    /// the analytic Sedov-overlay default.
    pub model: Option<ModelState>,
    predictor: Box<dyn PoolPredictor>,
    pending: Vec<PendingRegion>,
    next_id: u64,
    rng: StdRng,
    eos: GammaLawEos,
    cooling: CoolingCurve,
    starform: StarFormation,
    feedback: SnFeedback,
    /// The force pipeline's scratch arena: refreshed in place every step,
    /// zero heap growth in steady state (see [`crate::forces`]). Its
    /// `vsig` stash — the last SPH force pass's signal speeds, input of
    /// the conventional scheme's CFL estimate — is the one part of it
    /// that travels through snapshots.
    buffers: ForceBuffers,
    /// Block-timestep level machinery (see [`crate::scheduler`]); only the
    /// conventional scheme in [`TimestepMode::Block`] drives it.
    scheduler: ActiveScheduler,
    /// Persistent gas id → particle index map for applying pool
    /// predictions, invalidated on particle insertion/conversion instead
    /// of being rebuilt every step that has due regions.
    gas_index: GasIndex,
}

impl Simulation {
    /// Build with the default (Sedov-overlay) pool predictor.
    pub fn new(config: SimConfig, particles: Vec<Particle>, seed: u64) -> Self {
        Self::with_predictor(config, particles, seed, Box::new(SedovOverlayPredictor))
    }

    /// Build with an explicit pool predictor (e.g. a trained U-Net).
    pub fn with_predictor(
        config: SimConfig,
        particles: Vec<Particle>,
        seed: u64,
        predictor: Box<dyn PoolPredictor>,
    ) -> Self {
        let next_id = particles.iter().map(|p| p.id).max().map_or(0, |m| m + 1);
        Simulation {
            config,
            particles,
            time: 0.0,
            step_count: 0,
            stats: SimStats {
                dt_min_seen: f64::INFINITY,
                ..Default::default()
            },
            model: None,
            predictor,
            pending: Vec::new(),
            next_id,
            rng: StdRng::seed_from_u64(seed),
            eos: GammaLawEos::default(),
            cooling: CoolingCurve::standard_ism(),
            starform: StarFormation {
                criteria: astro::StarFormationCriteria {
                    rho_min: config.sf_rho_min,
                    t_max: config.sf_t_max,
                    efficiency: config.sf_efficiency,
                },
                ..Default::default()
            },
            feedback: SnFeedback::default(),
            buffers: ForceBuffers::default(),
            scheduler: ActiveScheduler::default(),
            gas_index: GasIndex::default(),
        }
    }

    /// Advance `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Advance `n` steps, handing the caller a checkpoint after every
    /// [`SimConfig::snapshot_every`]-th completed step (no callbacks when
    /// the cadence is 0). The callback receives the live simulation so it
    /// can call [`Simulation::snapshot`] — or cheaper observers — itself.
    pub fn run_with_snapshots<F: FnMut(&Simulation)>(&mut self, n: usize, mut on_snapshot: F) {
        let every = self.config.snapshot_every;
        for _ in 0..n {
            self.step();
            if every > 0 && self.step_count.is_multiple_of(every) {
                on_snapshot(self);
            }
        }
    }

    /// Advance `n` steps, committing a checkpoint into `store` after every
    /// [`SimConfig::snapshot_every`]-th completed step (atomic write +
    /// rotation + manifest — see [`crate::ckpt`]). This is the crash-safe
    /// run loop: `on_step` fires after *every* step (heartbeat,
    /// diagnostics), then any armed step fault is enforced
    /// ([`FaultInjector::enforce_step`] — deliberately *before* the
    /// cadence commit, so an injected kill costs the newest checkpoint,
    /// the most adversarial timing for recovery), then the cadence commit
    /// runs with write faults threaded through the store. Returns the
    /// committed checkpoint paths.
    pub fn run_with_store<F: FnMut(&Simulation)>(
        &mut self,
        n: usize,
        store: &CkptStore,
        format: CkptFormat,
        faults: &mut FaultInjector,
        mut on_step: F,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        let every = self.config.snapshot_every;
        let mut written = Vec::new();
        for _ in 0..n {
            self.step();
            on_step(self);
            faults.enforce_step(self.step_count);
            if every > 0 && self.step_count.is_multiple_of(every) {
                written.push(store.commit_sim(&self.snapshot(), format, faults)?);
            }
        }
        Ok(written)
    }

    /// Capture the complete state of the run as a serializable
    /// [`SimSnapshot`] (see [`crate::snapshot`] for the format and the
    /// restart-determinism contract). Cheap relative to a step: one deep
    /// copy of the particle set and the pending-region queue; none of the
    /// force scratch arena is captured because [`Simulation::restore`]
    /// rebuilds it on the next force evaluation.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            config: self.config,
            time: self.time,
            step_count: self.step_count,
            next_id: self.next_id,
            rng_state: self.rng.state(),
            stats: self.stats,
            particles: self.particles.clone(),
            last_vsig: self
                .buffers
                .vsig
                .iter()
                .map(|&(i, v, h)| (i as u64, v, h))
                .collect(),
            pending: self
                .pending
                .iter()
                .map(|r| PendingPrediction {
                    due_step: r.due_step,
                    predicted: r.predicted.clone(),
                })
                .collect(),
            schedule: self.scheduler.schedule().map(|s| ScheduleState {
                dt_max: s.dt_max,
                levels: s.levels.clone(),
            }),
            model: self.model.clone(),
        }
    }

    /// Rebuild a simulation from a snapshot. The continued run reproduces
    /// an uninterrupted one bit-for-bit: every piece of cross-step driver
    /// state (RNG stream, pending pool predictions — stored *predicted*,
    /// so the predictor is never re-run for them — CFL signal-speed stash,
    /// id counter, schedule) is reinstated. If the snapshot carries a
    /// trained model ([`SimSnapshot::model`]), the identical U-Net
    /// predictor is rebuilt from the embedded weights — no weights file
    /// needs to exist at resume time; otherwise the default Sedov-overlay
    /// predictor is used.
    pub fn restore(snapshot: &SimSnapshot) -> Self {
        let predictor: Box<dyn PoolPredictor> = match &snapshot.model {
            // The embedded document already passed the snapshot checksum
            // and carries its own; a decode failure here means the writer
            // was broken, not the file.
            Some(m) => Box::new(
                UNetPredictor::from_weights(m.seed, &m.weights_json, snapshot.config.region_side)
                    .expect("snapshot-embedded model weights must decode"),
            ),
            None => Box::new(SedovOverlayPredictor),
        };
        Self::restore_with_predictor(snapshot, predictor)
    }

    /// [`Simulation::restore`] with an explicit pool predictor for regions
    /// dispatched *after* the restart (in-flight predictions are replayed
    /// from the snapshot verbatim).
    pub fn restore_with_predictor(
        snapshot: &SimSnapshot,
        predictor: Box<dyn PoolPredictor>,
    ) -> Self {
        let mut sim =
            Simulation::with_predictor(snapshot.config, snapshot.particles.clone(), 0, predictor);
        sim.model = snapshot.model.clone();
        sim.time = snapshot.time;
        sim.step_count = snapshot.step_count;
        sim.next_id = snapshot.next_id;
        sim.rng = StdRng::from_state(snapshot.rng_state);
        sim.stats = snapshot.stats;
        sim.buffers.vsig = snapshot
            .last_vsig
            .iter()
            .map(|&(i, v, h)| (i as usize, v, h))
            .collect();
        sim.pending = snapshot
            .pending
            .iter()
            .map(|p| PendingRegion {
                due_step: p.due_step,
                predicted: p.predicted.clone(),
            })
            .collect();
        if let Some(s) = &snapshot.schedule {
            sim.scheduler.restore(s.dt_max, &s.levels);
        }
        sim
    }

    /// One full step of the paper's §3.2 procedure.
    pub fn step(&mut self) {
        // (1) Identify SNe exploding in (t, t + dt_global].
        let events = self.identify_sne();
        self.stats.sn_events += events.len() as u64;

        match self.config.scheme {
            Scheme::Surrogate => {
                // (2) Ship regions to the pool; predictions apply after
                // the pool latency. Metal yields are injected immediately
                // (the surrogate predicts dynamics, not composition).
                for (star_idx, center) in &events {
                    self.particles[*star_idx].exploded = true;
                    self.inject_yields(*star_idx, *center);
                    self.dispatch_region(*center);
                }
                // (3) Fixed-global-timestep KDK without feedback energy.
                let dt = self.config.dt_global;
                self.kdk(dt);
                // (4) Receive pool predictions due this step, replace by ID.
                self.apply_due_regions();
                // (6) Star formation, cooling and heating.
                self.cooling_and_star_formation(dt);
                self.advance(dt);
            }
            Scheme::Conventional => {
                // Direct thermal feedback, then a CFL-limited step.
                for (star_idx, center) in &events {
                    self.particles[*star_idx].exploded = true;
                    self.inject_yields(*star_idx, *center);
                    self.inject_thermal(*center);
                }
                match self.config.timestep {
                    TimestepMode::Global => {
                        let dt = self.adaptive_dt();
                        self.kdk(dt);
                        self.cooling_and_star_formation(dt);
                        self.advance(dt);
                    }
                    TimestepMode::Block { max_level } => {
                        let dt_base = self.config.dt_global;
                        if !self.particles.is_empty() {
                            self.buffers.block_step(
                                &self.config,
                                &mut (),
                                &mut self.scheduler,
                                &mut self.particles,
                                max_level,
                                &mut self.stats,
                            );
                        }
                        // Shared-base-step physics, re-synchronized.
                        self.cooling_and_star_formation(dt_base);
                        self.advance(dt_base);
                    }
                }
            }
        }
    }

    fn advance(&mut self, dt: f64) {
        self.time += dt;
        self.step_count += 1;
        self.stats.steps += 1;
        self.stats.dt_min_seen = self.stats.dt_min_seen.min(dt);
    }

    /// Stars whose lifetime ends within the next global step.
    fn identify_sne(&self) -> Vec<(usize, Vec3)> {
        self.particles
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                p.is_star()
                    && !p.exploded
                    && explodes_in_interval(p.mass, p.birth_time, self.time, self.config.dt_global)
            })
            .map(|(i, p)| (i, p.pos))
            .collect()
    }

    /// Cut the (region_side)^3 cube around `center` and queue its
    /// prediction (paper §3.2 step 2; the pool's compute latency is
    /// modelled by the due step).
    fn dispatch_region(&mut self, center: Vec3) {
        let half = 0.5 * self.config.region_side;
        let gas: Vec<GasParticle> =
            step::region_gas(&self.particles, center, half, &self.eos).collect();
        if gas.is_empty() {
            return;
        }
        let predicted = self
            .predictor
            .predict(center, E_SN, self.config.horizon(), &gas);
        self.pending.push(PendingRegion {
            due_step: self.step_count + self.config.pool_latency_steps as u64,
            predicted,
        });
    }

    /// Replace particles by ID with any predictions that are due
    /// (paper §3.2 step 4).
    fn apply_due_regions(&mut self) {
        let due = step::take_due(&mut self.pending, self.step_count, |r| r.due_step);
        self.stats.regions_applied += due.len() as u64;
        step::replace_by_id(
            &mut self.particles,
            &mut self.gas_index,
            due.into_iter().flat_map(|r| r.predicted),
            &self.eos,
        );
    }

    /// Inject the exploding star's nucleosynthesis yields into nearby gas
    /// (Figure 1's element cycle: C, O, Mg, Fe spread by the explosion).
    fn inject_yields(&mut self, star_idx: usize, center: Vec3) {
        let progenitor_mass = self.particles[star_idx].mass;
        let y = SnYield::for_progenitor(progenitor_mass);
        let (neighbours, weights) =
            step::sn_neighbours(&self.particles, center, 0.5 * self.config.region_side);
        if neighbours.is_empty() {
            return;
        }
        let per = astro::yields::distribute_yields(&y, &weights);
        for (&i, dz) in neighbours.iter().zip(per) {
            self.particles[i].metals += dz.iter().sum::<f64>();
        }
    }

    /// Conventional feedback: kernel-weighted thermal injection.
    fn inject_thermal(&mut self, center: Vec3) {
        let (neighbours, weights) =
            step::sn_neighbours(&self.particles, center, 0.5 * self.config.region_side);
        if neighbours.is_empty() {
            return;
        }
        let masses: Vec<f64> = neighbours.iter().map(|&i| self.particles[i].mass).collect();
        let event = astro::SnEvent {
            star_index: 0,
            pos: [center.x, center.y, center.z],
            time: self.time,
            energy: E_SN,
        };
        let du = self.feedback.thermal_injection(&event, &masses, &weights);
        for (&i, d) in neighbours.iter().zip(du) {
            self.particles[i].u += d;
        }
    }

    /// KDK leapfrog with a shared timestep (paper §3.2 step 3), through
    /// the one integrator both drivers share; the shared-memory halo is
    /// empty.
    fn kdk(&mut self, dt: f64) {
        self.buffers.kdk(
            &self.config,
            &mut (),
            &mut self.particles,
            dt,
            &mut self.stats,
        );
    }

    /// The block-timestep scheduler (its schedule reflects the last base
    /// step integrated in [`TimestepMode::Block`]).
    pub fn scheduler(&self) -> &ActiveScheduler {
        &self.scheduler
    }

    /// Read-only view of the force scratch arena (regression tests assert
    /// its steady-state capacities).
    pub fn force_buffers(&self) -> &ForceBuffers {
        &self.buffers
    }

    /// CFL-adaptive shared timestep (conventional scheme, paper §5.3).
    fn adaptive_dt(&mut self) -> f64 {
        // Signal speeds from the current thermal state (pre-force estimate:
        // sound speed; the stashed v_sig from the last force pass refines
        // it after the first step).
        let mut dt = self.config.dt_global;
        for p in &self.particles {
            if p.is_gas() {
                let cs = self.eos.sound_speed(p.u);
                if cs > 0.0 && p.h > 0.0 {
                    dt = dt.min(self.config.cfl * p.h / cs);
                }
            }
        }
        for &(_, vsig, h) in &self.buffers.vsig {
            if vsig > 0.0 {
                dt = dt.min(self.config.cfl * h / vsig);
            }
        }
        quantize_block(dt.max(self.config.dt_min), self.config.dt_global)
    }

    /// Cooling/heating and stochastic star formation (paper §3.2 step 6).
    fn cooling_and_star_formation(&mut self, dt: f64) {
        if self.config.cooling {
            step::cool(&mut self.particles, &self.cooling, &self.eos, dt);
        }
        if !self.config.star_formation {
            return;
        }
        let mut new_stars: Vec<Particle> = Vec::new();
        let eos = self.eos;
        for p in self.particles.iter_mut() {
            if p.is_gas() && p.rho > 0.0 {
                let temp = eos.temperature_from_u(p.u);
                match self
                    .starform
                    .try_form(&mut self.rng, p.rho, temp, p.mass, dt)
                {
                    SfOutcome::None => {}
                    SfOutcome::Spawn {
                        star_mass,
                        gas_left,
                    } => {
                        new_stars.push(Particle::star(
                            0, // assigned below
                            p.pos, p.vel, star_mass, self.time,
                        ));
                        p.mass = gas_left;
                    }
                    SfOutcome::Convert { star_mass } => {
                        p.kind = Kind::Star;
                        p.mass = star_mass;
                        p.birth_time = self.time;
                        p.exploded = false;
                        // A gas id just left the gas population.
                        self.gas_index.invalidate();
                    }
                }
            }
        }
        if !new_stars.is_empty() {
            self.gas_index.invalidate();
        }
        for mut s in new_stars {
            s.id = self.next_id;
            self.next_id += 1;
            self.stats.stars_formed += 1;
            self.particles.push(s);
        }
    }

    /// Total energy: kinetic + internal + gravitational potential — the
    /// exact (`theta = 0`) audit, O(N²) per call. Conservation tests and
    /// end-of-run reports call it; anything sampling every step wants
    /// [`Simulation::live_energy`].
    pub fn total_energy(&self) -> f64 {
        total_energy_of(&self.particles, self.config.eps)
    }

    /// Total energy at the cost of one pass over the particles: kinetic +
    /// internal over the current particles, plus ½ Σ mᵢ φᵢ over the mass
    /// and potential snapshots the step's closing force evaluation left in
    /// the scratch arena ([`ForceBuffers::pot`]) — the tree potential at
    /// the run's own `theta`, already paid for. Masses and potentials come
    /// from the same evaluation, so the sum is self-consistent; in
    /// [`TimestepMode::Block`] the last substep boundary of a base step
    /// activates every level, so no entry is stale. What the snapshot
    /// cannot see is what the step did after that evaluation: particles a
    /// pool region replaced lag by one sample in the potential term, and a
    /// star spawned this step is still inside its parent's mass there.
    /// Measured against [`Simulation::total_energy`] in
    /// `tests/live_energy.rs`. Before the first force evaluation since
    /// `new`/`restore` there is no snapshot, and this *is* the exact audit.
    pub fn live_energy(&self) -> f64 {
        let bufs = &self.buffers;
        if bufs.pot.is_empty() {
            return self.total_energy();
        }
        let w: f64 = 0.5
            * bufs
                .pot
                .iter()
                .zip(&bufs.mass)
                .map(|(phi, m)| phi * m)
                .sum::<f64>();
        w + kinetic_and_internal(&self.particles)
    }

    /// Number of in-flight pool predictions.
    pub fn pending_regions(&self) -> usize {
        self.pending.len()
    }
}

/// Total energy of a particle set — kinetic + internal + exact
/// (`theta = 0`) gravitational potential at softening `eps`. The audit the
/// shared-memory and distributed drivers' conservation tests share
/// (the latter runs it over [`DistReport::final_state`](crate::dist::DistReport)).
pub fn total_energy_of(particles: &[Particle], eps: f64) -> f64 {
    let pos: Vec<Vec3> = particles.iter().map(|p| p.pos).collect();
    let mass: Vec<f64> = particles.iter().map(|p| p.mass).collect();
    let solver = GravitySolver {
        g: G,
        theta: 0.0, // exact for the energy audit
        eps,
        ..Default::default()
    };
    let grav = solver.evaluate(&pos, &mass, pos.len());
    let w: f64 = 0.5
        * grav
            .pot
            .iter()
            .zip(&mass)
            .map(|(phi, m)| phi * m)
            .sum::<f64>();
    let ke_ie: f64 = particles
        .iter()
        .map(|p| p.mass * (0.5 * p.vel.norm2() + if p.is_gas() { p.u } else { 0.0 }))
        .sum();
    w + ke_ie
}

/// Kinetic + internal energy of a particle set (the non-gravitational
/// terms of [`total_energy_of`], which keeps its own copy so the audit's
/// reference numbers cannot move with the live path).
fn kinetic_and_internal(particles: &[Particle]) -> f64 {
    particles
        .iter()
        .map(|p| p.mass * (0.5 * p.vel.norm2() + if p.is_gas() { p.u } else { 0.0 }))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro::lifetime::stellar_lifetime_myr;

    fn two_body() -> Vec<Particle> {
        // Circular binary in code units: masses 1e6 each, separation 100 pc.
        let m = 1.0e6;
        let r = 50.0;
        let v = (G * m / (4.0 * r)).sqrt();
        vec![
            Particle::dm(0, Vec3::new(r, 0.0, 0.0), Vec3::new(0.0, v, 0.0), m),
            Particle::dm(1, Vec3::new(-r, 0.0, 0.0), Vec3::new(0.0, -v, 0.0), m),
        ]
    }

    fn quiet_config() -> SimConfig {
        SimConfig {
            cooling: false,
            star_formation: false,
            eps: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn two_body_orbit_conserves_energy() {
        let cfg = SimConfig {
            dt_global: 0.01,
            ..quiet_config()
        };
        let mut sim = Simulation::new(cfg, two_body(), 1);
        let e0 = sim.total_energy();
        sim.run(500);
        let e1 = sim.total_energy();
        assert!(
            ((e1 - e0) / e0).abs() < 0.01,
            "energy drift {} -> {}",
            e0,
            e1
        );
        // The binary stays bound at roughly the initial separation.
        let sep = (sim.particles[0].pos - sim.particles[1].pos).norm();
        assert!((50.0..200.0).contains(&sep), "separation {sep}");
    }

    fn gas_blob(n_side: usize, spacing: f64, u: f64) -> Vec<Particle> {
        let mut out = Vec::new();
        let mut id = 0;
        for i in 0..n_side {
            for j in 0..n_side {
                for k in 0..n_side {
                    out.push(Particle::gas(
                        id,
                        Vec3::new(
                            (i as f64 - n_side as f64 / 2.0) * spacing,
                            (j as f64 - n_side as f64 / 2.0) * spacing,
                            (k as f64 - n_side as f64 / 2.0) * spacing,
                        ),
                        Vec3::ZERO,
                        1.0,
                        u,
                        spacing * 1.3,
                    ));
                    id += 1;
                }
            }
        }
        out
    }

    #[test]
    fn surrogate_scheme_applies_regions_after_latency() {
        // A massive star that explodes on step 1, inside a gas blob.
        let mut particles = gas_blob(6, 3.0, 1.0);
        let m_star = 10.0;
        let life = stellar_lifetime_myr(m_star);
        let dt = 2.0e-3;
        // Born so that death lands in the second step.
        let birth = dt * 1.5 - life;
        let star_id = particles.len() as u64;
        particles.push(Particle::star(
            star_id,
            Vec3::ZERO,
            Vec3::ZERO,
            m_star,
            birth,
        ));
        let cfg = SimConfig {
            dt_global: dt,
            pool_latency_steps: 5,
            cooling: false,
            star_formation: false,
            eps: 1.0,
            ..Default::default()
        };
        let mut sim = Simulation::new(cfg, particles, 2);
        let u_before: f64 = sim
            .particles
            .iter()
            .filter(|p| p.is_gas())
            .map(|p| p.u)
            .sum();
        sim.run(2);
        assert_eq!(sim.stats.sn_events, 1, "the SN fires");
        assert_eq!(sim.pending_regions(), 1, "prediction in flight");
        assert_eq!(sim.stats.regions_applied, 0, "not applied before latency");
        sim.run(5);
        assert_eq!(sim.stats.regions_applied, 1, "applied after latency");
        let u_after: f64 = sim
            .particles
            .iter()
            .filter(|p| p.is_gas())
            .map(|p| p.u)
            .sum();
        assert!(
            u_after > 10.0 * u_before,
            "SN heating visible: {u_before} -> {u_after}"
        );
        // Timestep never shrank: the paper's headline property.
        assert_eq!(sim.stats.dt_min_seen, dt);
    }

    #[test]
    fn conventional_scheme_collapses_the_timestep() {
        // Dense blob: small smoothing lengths make the CFL bite hard.
        let mut particles = gas_blob(6, 0.5, 1.0);
        let m_star = 10.0;
        let life = stellar_lifetime_myr(m_star);
        let dt = 2.0e-3;
        let birth = dt * 0.5 - life;
        particles.push(Particle::star(
            particles.len() as u64,
            Vec3::ZERO,
            Vec3::ZERO,
            m_star,
            birth,
        ));
        let cfg = SimConfig {
            scheme: Scheme::Conventional,
            dt_global: dt,
            cooling: false,
            star_formation: false,
            eps: 1.0,
            ..Default::default()
        };
        let mut sim = Simulation::new(cfg, particles, 3);
        sim.run(3);
        assert_eq!(sim.stats.sn_events, 1);
        assert!(
            sim.stats.dt_min_seen < dt / 4.0,
            "CFL must collapse dt: min {} vs global {dt}",
            sim.stats.dt_min_seen
        );
    }

    #[test]
    fn block_mode_conserves_energy_across_levels() {
        // Central massive body with a tight and a wide circular satellite:
        // the acceleration criterion puts the tight orbit several levels
        // below the wide one, so the hierarchy actually engages.
        let m = 1.0e6;
        let sat = |r: f64, id: u64| {
            let v = (G * m / r).sqrt();
            Particle::dm(id, Vec3::new(r, 0.0, 0.0), Vec3::new(0.0, v, 0.0), 1.0)
        };
        let particles = vec![
            Particle::dm(0, Vec3::ZERO, Vec3::ZERO, m),
            sat(20.0, 1),
            sat(200.0, 2),
        ];
        let cfg = SimConfig {
            scheme: Scheme::Conventional,
            timestep: TimestepMode::Block { max_level: 8 },
            dt_global: 0.25,
            ..quiet_config()
        };
        let mut sim = Simulation::new(cfg, particles, 11);
        let e0 = sim.total_energy();
        sim.run(100); // ~3 orbits of the tight satellite
        let e1 = sim.total_energy();
        assert!(
            ((e1 - e0) / e0).abs() < 0.01,
            "energy drift {e0} -> {e1} under block timesteps"
        );
        let schedule = sim.scheduler().schedule().expect("block mode ran");
        assert!(
            schedule.max_level() >= 2,
            "hierarchy must engage: max level {}",
            schedule.max_level()
        );
        assert!(
            sim.stats.substeps > sim.stats.steps,
            "substeps {} should exceed base steps {}",
            sim.stats.substeps,
            sim.stats.steps
        );
        // The tight satellite stays on its orbit.
        let r1 = (sim.particles[1].pos - sim.particles[0].pos).norm();
        assert!((10.0..40.0).contains(&r1), "tight orbit radius {r1}");
    }

    /// Blob with one SN-hot particle: the spiked-dt scenario of
    /// `blocksteps::tests::one_hot_particle_destroys_efficiency`, run
    /// through the real driver.
    fn spiked_config(mode: TimestepMode) -> (SimConfig, Vec<Particle>) {
        let mut particles = gas_blob(8, 1.0, 1.0);
        // ~10^4 km/s signal speed at the blob centre: CFL wants a step
        // ~2^5-2^6 below base for the hot particle and its neighbourhood,
        // while the bulk of the 512-particle blob stays at level 0.
        particles[292].u = 1.0e8;
        let cfg = SimConfig {
            scheme: Scheme::Conventional,
            timestep: mode,
            dt_global: 2.0e-3,
            cooling: false,
            star_formation: false,
            eps: 1.0,
            ..Default::default()
        };
        (cfg, particles)
    }

    #[test]
    fn block_mode_spends_fewer_updates_than_global_on_spiked_dt() {
        let horizon = 2.0 * 2.0e-3;
        let (cfg_g, particles_g) = spiked_config(TimestepMode::Global);
        let mut global = Simulation::new(cfg_g, particles_g, 13);
        while global.time < horizon - 1e-12 {
            global.step();
        }
        let (cfg_b, particles_b) = spiked_config(TimestepMode::Block { max_level: 10 });
        let mut block = Simulation::new(cfg_b, particles_b, 13);
        // First base step: measured substeps must match the schedule.
        block.step();
        let schedule = block.scheduler().schedule().expect("schedule assigned");
        assert!(
            schedule.max_level() >= 3,
            "the hot particle must force deep levels, got {}",
            schedule.max_level()
        );
        assert_eq!(
            block.stats.substeps,
            schedule.substeps_per_base_step(),
            "driver substeps must match the schedule"
        );
        while block.time < horizon - 1e-12 {
            block.step();
        }
        // The global scheme dragged every particle down to the spiked dt;
        // the block scheme only pays for the hot subset.
        assert!(
            global.stats.dt_min_seen < cfg_b.dt_global / 8.0,
            "global dt must collapse: {}",
            global.stats.dt_min_seen
        );
        assert!(
            block.stats.active_updates < global.stats.active_updates / 2,
            "block updates {} must undercut global {}",
            block.stats.active_updates,
            global.stats.active_updates
        );
        // Cross-substep tree reuse happened — on both pipelines.
        assert!(
            block.stats.tree_refreshes > 0,
            "substeps should refresh, not rebuild, the gravity tree"
        );
        assert!(block.stats.tree_rebuilds > 0);
        assert!(
            block.stats.sph_tree_refreshes > block.stats.sph_tree_rebuilds,
            "substeps should mostly refresh the SPH neighbor tree: {} refreshes vs {} rebuilds",
            block.stats.sph_tree_refreshes,
            block.stats.sph_tree_rebuilds
        );
        // Global mode reuses too: one rebuild (density) + one refresh
        // (force) per evaluation.
        assert_eq!(
            global.stats.sph_tree_refreshes, global.stats.sph_tree_rebuilds,
            "global mode pairs each density rebuild with a force refresh"
        );
        assert!(global.stats.sph_tree_rebuilds > 0);
    }

    #[test]
    fn surrogate_scheme_never_leaves_global_mode() {
        // Even when configured with a block hierarchy, the surrogate
        // scheme's whole point is the fixed global step: the scheduler
        // must never engage.
        let particles = gas_blob(5, 1.0, 1.0);
        let dt = 2.0e-3;
        let cfg = SimConfig {
            scheme: Scheme::Surrogate,
            timestep: TimestepMode::Block { max_level: 10 },
            dt_global: dt,
            cooling: false,
            star_formation: false,
            eps: 1.0,
            ..Default::default()
        };
        let mut sim = Simulation::new(cfg, particles, 17);
        sim.run(4);
        assert_eq!(sim.stats.substeps, 0, "no fine substeps ever");
        assert!(sim.scheduler().schedule().is_none(), "never assigned");
        assert_eq!(sim.stats.dt_min_seen, dt, "the global step never shrank");
    }

    #[test]
    fn star_formation_converts_cold_dense_gas() {
        // Dense cold blob: rho above threshold, T below.
        let mut particles = gas_blob(5, 0.5, 1e-4);
        for p in particles.iter_mut() {
            p.mass = 5.0;
        }
        let cfg = SimConfig {
            dt_global: 0.5,
            cooling: false,
            star_formation: true,
            eps: 0.5,
            ..Default::default()
        };
        let mut sim = Simulation::new(cfg, particles, 4);
        sim.run(4);
        let n_star = sim.particles.iter().filter(|p| p.is_star()).count();
        assert!(
            n_star > 0 || sim.stats.stars_formed > 0,
            "dense cold gas must form stars"
        );
    }

    #[test]
    fn cooling_drives_hot_gas_down() {
        let particles = gas_blob(5, 1.0, 50.0); // hot: ~ 10^5-6 K
        let cfg = SimConfig {
            dt_global: 0.1,
            cooling: true,
            star_formation: false,
            eps: 0.5,
            ..Default::default()
        };
        let mut sim = Simulation::new(cfg, particles, 5);
        let u0: f64 = sim.particles.iter().map(|p| p.u).sum();
        sim.run(5);
        let u1: f64 = sim.particles.iter().map(|p| p.u).sum();
        assert!(u1 < u0, "cooling should lower u: {u0} -> {u1}");
    }

    #[test]
    fn sn_enriches_surrounding_gas_with_metals() {
        let mut particles = gas_blob(6, 3.0, 1.0);
        let m_star = 15.0;
        let life = stellar_lifetime_myr(m_star);
        let dt = 2.0e-3;
        particles.push(Particle::star(
            particles.len() as u64,
            Vec3::ZERO,
            Vec3::ZERO,
            m_star,
            dt * 1.5 - life,
        ));
        let cfg = SimConfig {
            dt_global: dt,
            pool_latency_steps: 3,
            cooling: false,
            star_formation: false,
            eps: 1.0,
            ..Default::default()
        };
        let mut sim = Simulation::new(cfg, particles, 9);
        sim.run(3);
        assert_eq!(sim.stats.sn_events, 1);
        let gas_metals: f64 = sim
            .particles
            .iter()
            .filter(|p| p.is_gas())
            .map(|p| p.metals)
            .sum();
        let expected = astro::yields::SnYield::for_progenitor(m_star).metals();
        assert!(
            (gas_metals / expected - 1.0).abs() < 1e-9,
            "gas received {gas_metals} of {expected} M_sun in metals"
        );
        // Enrichment is centrally weighted: the most metal-rich particle
        // sits near the explosion site.
        let _ = gas_metals;
        let richest = sim
            .particles
            .iter()
            .filter(|p| p.is_gas())
            .max_by(|a, b| a.metals.total_cmp(&b.metals))
            .expect("gas exists");
        assert!(
            richest.pos.norm() < 10.0,
            "most enriched particle at r = {}",
            richest.pos.norm()
        );
    }

    #[test]
    fn steady_state_stepping_does_not_grow_the_scratch_arena() {
        // The tentpole zero-allocation property: after a warm-up step, the
        // force pipeline's scratch arena (SoA snapshots, result arrays, gas
        // index, hydro state, SPH staging) must not grow — every step
        // refreshes the same buffers in place.
        let mut particles = gas_blob(6, 1.0, 1.0);
        // A couple of collisionless particles so gravity sees mixed species.
        particles.push(Particle::dm(
            particles.len() as u64,
            Vec3::new(10.0, 0.0, 0.0),
            Vec3::ZERO,
            100.0,
        ));
        particles.push(Particle::star(
            particles.len() as u64,
            Vec3::new(-10.0, 0.0, 0.0),
            Vec3::ZERO,
            1.0,
            0.0,
        ));
        let cfg = SimConfig {
            dt_global: 1e-4,
            ..quiet_config()
        };
        let mut sim = Simulation::new(cfg, particles, 8);
        sim.run(2); // warm-up: capacities reach their high-water mark
        let sig = sim.force_buffers().capacity_signature();
        assert!(
            sig.iter().any(|&c| c > 0),
            "warm-up must have populated the arena"
        );
        sim.run(5);
        assert_eq!(
            sim.force_buffers().capacity_signature(),
            sig,
            "scratch arena grew after warm-up"
        );
    }

    #[test]
    fn steady_state_block_substeps_do_not_grow_the_scratch_arena() {
        // The same zero-allocation contract, now through the block-timestep
        // path: after a warm-up base step populates the active-index,
        // prediction and tree-reuse scratch, further base steps (including
        // all their fine substeps) must not grow the arena.
        let (cfg, mut particles) = spiked_config(TimestepMode::Block { max_level: 6 });
        particles.push(Particle::dm(
            particles.len() as u64,
            Vec3::new(10.0, 0.0, 0.0),
            Vec3::ZERO,
            100.0,
        ));
        let mut sim = Simulation::new(cfg, particles, 19);
        sim.run(2);
        assert!(sim.stats.substeps > 2, "substepping must engage");
        let sig = sim.force_buffers().capacity_signature();
        assert!(sig.iter().any(|&c| c > 0));
        sim.run(3);
        assert_eq!(
            sim.force_buffers().capacity_signature(),
            sig,
            "scratch arena grew after block-mode warm-up"
        );
    }

    #[test]
    fn ids_remain_unique_through_star_formation() {
        let mut particles = gas_blob(4, 0.5, 1e-4);
        for p in particles.iter_mut() {
            p.mass = 5.0;
        }
        let cfg = SimConfig {
            dt_global: 0.5,
            cooling: false,
            star_formation: true,
            eps: 0.5,
            ..Default::default()
        };
        let mut sim = Simulation::new(cfg, particles, 6);
        sim.run(4);
        let mut ids: Vec<u64> = sim.particles.iter().map(|p| p.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate particle ids");
    }
}
