//! The shared-memory simulation driver: the paper's §3.2 integration loop
//! with either the surrogate or the conventional SN scheme.

use crate::ckpt::{CkptFormat, CkptStore};
use crate::config::SimConfig;
use crate::dist::{DistError, PredictorKind};
use crate::faults::FaultInjector;
use crate::forces::Halo;
use crate::particle::Particle;
use crate::pool::{PoolPredictor, SedovOverlayPredictor};
use crate::scheduler::ActiveScheduler;
use crate::snapshot::{ModelState, PendingPrediction, SimSnapshot};
use crate::step::{self, Slab, SlabState};
use astro::units::{E_SN, G};
use fdps::Vec3;
use gravity::GravitySolver;
use json::Json;
use std::fmt;
use surrogate::GasParticle;

/// Declares the run counters once. Each line gives a counter's doc, name,
/// type and how the ranks of a distributed run merge it: `sum` for
/// extensive counts, `max` for what every rank agrees on, `min` for a
/// floor. The table expands to the struct, its snapshot record (the
/// layout is positional: fields in table order), [`Default`] as each
/// merge's identity, [`SimStats::combine`] and the name → value walk
/// [`SimStats::fields`] that every report renders.
macro_rules! counters {
    (@identity sum $t:ty) => { <$t as Counter>::ZERO };
    (@identity max $t:ty) => { <$t as Counter>::LEAST };
    (@identity min $t:ty) => { <$t as Counter>::MOST };
    (@merge sum $a:expr, $b:expr) => { $a + $b };
    (@merge max $a:expr, $b:expr) => { $a.max($b) };
    (@merge min $a:expr, $b:expr) => { $a.min($b) };
    (
        $(#[$meta:meta])*
        pub struct $ty:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $fty:ty = $merge:ident),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct $ty {
            $($(#[$fmeta])* pub $field: $fty),+
        }

        crate::snapshot::record!($ty { $($field: $fty),+ });

        impl Default for $ty {
            fn default() -> Self {
                $ty { $($field: counters!(@identity $merge $fty)),+ }
            }
        }

        impl $ty {
            /// The counters of a distributed run's main ranks as one run's,
            /// folded in rank order; `combine(&[])` is the default.
            pub fn combine(ranks: &[$ty]) -> $ty {
                ranks.iter().fold($ty::default(), |acc, r| $ty {
                    $($field: counters!(@merge $merge acc.$field, r.$field)),+
                })
            }

            /// Every counter as `(name, value)`, in table order; the names
            /// are the snapshot's keys.
            pub fn fields(&self) -> [(&'static str, Json); [$(stringify!($field)),+].len()] {
                [$((stringify!($field), self.$field.into())),+]
            }
        }
    };
}

/// A counter's value type: the identity of each rank merge.
trait Counter {
    const ZERO: Self;
    const LEAST: Self;
    const MOST: Self;
}

impl Counter for u64 {
    const ZERO: u64 = 0;
    const LEAST: u64 = u64::MIN;
    const MOST: u64 = u64::MAX;
}

impl Counter for f64 {
    const ZERO: f64 = 0.0;
    const LEAST: f64 = f64::NEG_INFINITY;
    const MOST: f64 = f64::INFINITY;
}

counters! {
    /// Counters accumulated over a run.
    pub struct SimStats {
        /// Base steps integrated.
        pub steps: u64 = max,
        /// Supernovae identified.
        pub sn_events: u64 = sum,
        /// Stars spawned by star formation.
        pub stars_formed: u64 = sum,
        /// Pool predictions written back by particle id.
        pub regions_applied: u64 = sum,
        /// Smallest timestep taken \[Myr\] (infinite before the first).
        pub dt_min_seen: f64 = min,
        /// Total gravity interactions evaluated.
        pub gravity_interactions: u64 = sum,
        /// Total SPH interactions evaluated: per pass, the density sum's
        /// converged neighbour counts plus the force pass's in-support pairs
        /// (`sph::solver::SphStats`). Both count pairs that interact, not
        /// candidates a tree walk staged, so the total does not depend on the
        /// neighbour tree's topology.
        pub hydro_interactions: u64 = sum,
        /// Fine substeps executed by the block-timestep scheduler (0 in
        /// `Global` mode — the surrogate scheme by construction).
        pub substeps: u64 = max,
        /// Individual particle-step completions: in `Global` mode every KDK
        /// counts each particle once; in `Block` mode a particle counts once
        /// per step of its own level. The Surrogate-vs-Conventional update
        /// economy is exactly the ratio of these.
        pub active_updates: u64 = sum,
        /// Full *gravity* octree builds (Morton sort + split + moments).
        pub tree_rebuilds: u64 = sum,
        /// Moment-only *gravity* tree refreshes reusing the last build's
        /// topology (cross-substep reuse; see `fdps::Tree::refresh`).
        pub tree_refreshes: u64 = sum,
        /// Full *SPH* neighbor-tree builds (the gas-subset tree the
        /// density/force passes walk; split from the gravity counters so the
        /// two reuse pipelines are reported separately).
        pub sph_tree_rebuilds: u64 = sum,
        /// Moment-only *SPH* neighbor-tree refreshes
        /// (see `sph::solver::SphTreeCache`).
        pub sph_tree_refreshes: u64 = sum,
    }
}

/// `name=value` pairs, space-separated, in table order: the CLI's
/// `[stats]` line.
impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.fields().iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{name}={}", value.render())?;
        }
        Ok(())
    }
}

/// The halo of a slab that is alone in the world: nobody to exchange with
/// (the [`Halo`] defaults), and the pool is a function call — the ticket
/// is the prediction itself.
struct Alone<'a> {
    pool: &'a dyn PoolPredictor,
    horizon: f64,
}

impl Halo for Alone<'_> {
    type Ticket = Vec<GasParticle>;

    fn submit(&mut self, center: Vec3, gas: Vec<GasParticle>) -> Self::Ticket {
        self.pool.predict(center, E_SN, self.horizon, &gas)
    }

    fn collect(&mut self, due: Vec<Self::Ticket>) -> Vec<GasParticle> {
        due.into_iter().flatten().collect()
    }
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
    /// The id the next star spawned takes.
    next_id: u64,
    /// What [`step::step`] keeps between steps. Of the force arena only
    /// the `vsig` stash — the last SPH force pass's signal speeds, input
    /// of the conventional scheme's CFL estimate — travels through
    /// snapshots; the queue holds each region *predicted*; the id index
    /// persists until a particle is inserted or converted.
    state: SlabState<Vec<GasParticle>>,
}

impl Simulation {
    /// Build with the default (Sedov-overlay) pool predictor.
    pub fn new(config: SimConfig, particles: Vec<Particle>, seed: u64) -> Self {
        Self::with_predictor(config, particles, seed, Box::new(SedovOverlayPredictor))
    }

    /// Build with an explicit pool predictor (e.g. a trained U-Net). `seed`
    /// becomes the run's key, [`SimConfig::seed`].
    pub fn with_predictor(
        config: SimConfig,
        particles: Vec<Particle>,
        seed: u64,
        predictor: Box<dyn PoolPredictor>,
    ) -> Self {
        Simulation {
            config: SimConfig { seed, ..config },
            next_id: step::first_free_id(&particles),
            particles,
            time: 0.0,
            step_count: 0,
            stats: SimStats::default(),
            model: None,
            predictor,
            state: SlabState::default(),
        }
    }

    /// Advance `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Advance `n` steps, committing a checkpoint into `store` after every
    /// [`SimConfig::snapshot_every`]-th completed step (atomic write +
    /// rotation + manifest — see [`crate::ckpt`]). This is the crash-safe
    /// run loop: `on_step` fires after *every* step (heartbeat,
    /// diagnostics), then [`CkptStore::after_step`] — the tail the
    /// distributed driver's hook runs too — enforces any armed step fault
    /// and commits the cadence checkpoint. Returns the committed paths.
    /// `_format` is always [`CkptFormat::Bin`]; kept because callers pass
    /// it.
    pub fn run_with_store<F: FnMut(&Simulation)>(
        &mut self,
        n: usize,
        store: &CkptStore,
        _format: CkptFormat,
        faults: &mut FaultInjector,
        mut on_step: F,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        let every = self.config.snapshot_every;
        let mut written = Vec::new();
        for _ in 0..n {
            self.step();
            on_step(self);
            let due = every > 0 && self.step_count.is_multiple_of(every);
            let snap = due.then(|| self.snapshot());
            written.extend(store.after_step(self.step_count, snap.as_ref(), faults)?);
        }
        Ok(written)
    }

    /// Capture the complete state of the run as a serializable
    /// [`SimSnapshot`] of one slab (see [`crate::snapshot`] for the format
    /// and the restart-determinism contract). Cheap relative to a step: one
    /// deep copy of the particle set and the pending-region queue
    /// (`SlabState::record`).
    pub fn snapshot(&self) -> SimSnapshot {
        let predicted = |r: &step::InFlight<Vec<GasParticle>>| PendingPrediction {
            due_step: r.due_step,
            predicted: r.ticket.clone(),
        };
        let pending = self.state.pending.iter().map(predicted).collect();
        SimSnapshot {
            config: self.config,
            time: self.time,
            step_count: self.step_count,
            model: self.model.clone(),
            next_id: self.next_id,
            slabs: vec![self.state.record(&self.particles, &self.stats, pending)],
        }
    }

    /// `Simulation::try_restore` for a snapshot this process wrote
    /// itself: panics where that returns an error. A checkpoint *file* is
    /// outside input and goes through `try_restore`.
    pub fn restore(snapshot: &SimSnapshot) -> Self {
        Self::try_restore(snapshot).unwrap_or_else(|e| panic!("restoring a snapshot: {e}"))
    }

    /// Rebuild a simulation from a one-slab snapshot. The continued run
    /// reproduces an uninterrupted one bit-for-bit: every piece of
    /// cross-step driver state (the config with its seed, pending pool
    /// predictions — stored *predicted*, so the predictor is never re-run
    /// for them — CFL signal-speed stash, id counter, schedule) is
    /// reinstated. If the snapshot carries a trained model
    /// ([`SimSnapshot::model`]), the identical U-Net predictor is rebuilt
    /// from the embedded weights — no weights file needs to exist at resume
    /// time — and a document that does not decode is
    /// [`DistError::BadWeights`]; otherwise the default Sedov-overlay
    /// predictor is used.
    pub(crate) fn try_restore(snapshot: &SimSnapshot) -> Result<Self, DistError> {
        let model = snapshot.model.clone();
        let kind = model.map_or(PredictorKind::SedovOverlay, PredictorKind::UNet);
        let predictor = kind.build(snapshot.config.region_side)?;
        Self::restore_with_predictor(snapshot, predictor)
    }

    /// `Simulation::try_restore` with an explicit pool predictor for
    /// regions dispatched *after* the restart (in-flight predictions are
    /// replayed from the snapshot verbatim). A snapshot of several slabs
    /// is the distributed driver's to resume ([`DistError::GridMismatch`]);
    /// a `(1,1,1)` distributed run's is this driver's like its own.
    pub fn restore_with_predictor(
        snapshot: &SimSnapshot,
        predictor: Box<dyn PoolPredictor>,
    ) -> Result<Self, DistError> {
        let [slab] = &snapshot.slabs[..] else {
            return Err(DistError::GridMismatch {
                snapshot_ranks: snapshot.slabs.len(),
                config_ranks: 1,
            });
        };
        let (config, particles) = (snapshot.config, slab.particles.clone());
        let mut sim = Simulation::with_predictor(config, particles, config.seed, predictor);
        sim.model = snapshot.model.clone();
        sim.time = snapshot.time;
        sim.step_count = snapshot.step_count;
        sim.next_id = snapshot.next_id;
        sim.stats = slab.stats;
        sim.state = SlabState::resumed(slab, |predicted| predicted);
        Ok(sim)
    }

    /// One full step of the paper's §3.2 procedure: `step::step` on the
    /// one slab there is.
    pub fn step(&mut self) {
        let mut slab = Slab {
            particles: &mut self.particles,
            time: &mut self.time,
            step_count: &mut self.step_count,
            next_id: &mut self.next_id,
            stats: &mut self.stats,
            state: &mut self.state,
        };
        let mut halo = Alone {
            pool: &*self.predictor,
            horizon: self.config.horizon(),
        };
        step::step(&self.config, &mut halo, &mut slab);
    }

    /// The block-timestep scheduler (its schedule reflects the last base
    /// step integrated in `TimestepMode::Block`).
    pub fn scheduler(&self) -> &ActiveScheduler {
        &self.state.sched
    }

    /// Total energy: kinetic + internal + gravitational potential — the
    /// exact (`theta = 0`) audit, O(N²) per call. Conservation tests and
    /// end-of-run reports call it; anything sampling every step wants
    /// `Simulation::live_energy`.
    #[expect(clippy::disallowed_methods, reason = "this is the exact audit")]
    pub fn total_energy(&self) -> f64 {
        total_energy_of(&self.particles, self.config.eps)
    }

    /// Total energy at the cost of one pass over the particles: kinetic +
    /// internal over the current particles, plus ½ Σ mᵢ φᵢ over the mass
    /// and potential snapshots the step's closing force evaluation left in
    /// the scratch arena ([`ForceBuffers::pot`]) — the tree potential at
    /// the run's own `theta`, already paid for. Masses and potentials come
    /// from the same evaluation, so the sum is self-consistent; in
    /// `TimestepMode::Block` the last substep boundary of a base step
    /// activates every level, so no entry is stale. What the snapshot
    /// cannot see is what the step did after that evaluation: particles a
    /// pool region replaced lag by one sample in the potential term, and a
    /// star spawned this step is still inside its parent's mass there.
    /// Measured against [`Simulation::total_energy`] in
    /// `tests/live_energy.rs`. Before the first force evaluation since
    /// `new`/`restore` there is no snapshot, and this *is* the exact audit.
    pub(crate) fn live_energy(&self) -> f64 {
        let bufs = &self.state.forces;
        if bufs.pot.is_empty() {
            #[expect(
                clippy::disallowed_methods,
                reason = "no step has run since new/restore: the audit runs once"
            )]
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
        self.state.pending.len()
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
    use crate::config::{Scheme, TimestepMode};
    use crate::forces::ForceBuffers;
    use astro::lifetime::stellar_lifetime_myr;

    impl Simulation {
        /// Read-only view of the force scratch arena (the regression tests
        /// assert its steady-state capacities).
        fn force_buffers(&self) -> &ForceBuffers {
            &self.state.forces
        }
    }

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
    fn combine_merges_each_counter_as_its_table_line_says() {
        assert_eq!(SimStats::combine(&[]), SimStats::default());
        assert_eq!(SimStats::default().dt_min_seen, f64::INFINITY);
        assert_eq!(SimStats::default().steps, 0);
        // One counter of each merge, the rest at their identities.
        let rank = |steps, sn_events, dt_min_seen, substeps, sph_tree_refreshes| SimStats {
            steps,
            sn_events,
            dt_min_seen,
            substeps,
            sph_tree_refreshes,
            ..SimStats::default()
        };
        let (a, b) = (rank(5, 1, 0.25, 64, 9), rank(5, 10, 0.125, 32, 90));
        assert_eq!(SimStats::combine(&[a]), a);
        let run = rank(5, 11, 0.125, 64, 99);
        assert_eq!(SimStats::combine(&[a, b]), run);
        assert_eq!(SimStats::combine(&[b, a]), run);
        let line = run.to_string();
        assert!(line.starts_with("steps=5 sn_events=11 "), "{line}");
        assert!(line.contains(" dt_min_seen=0.125 "), "{line}");
        assert!(line.contains(" sph_tree_refreshes=99"), "{line}");
        assert_eq!(line.split(' ').count(), run.fields().len(), "{line}");
    }

    #[test]
    fn try_restore_refuses_what_it_cannot_resume_with_a_typed_error() {
        let mut sim = Simulation::new(quiet_config(), two_body(), 1);
        sim.run(1);
        let good = sim.snapshot();
        assert!(Simulation::try_restore(&good).is_ok());

        // A model the codec carries verbatim but nothing can decode.
        let mut bad_model = good.clone();
        bad_model.model = Some(ModelState {
            seed: 1,
            weights_json: "{}".into(),
        });
        match Simulation::try_restore(&bad_model) {
            Err(DistError::BadWeights { .. }) => {}
            other => panic!("expected BadWeights, got {:?}", other.map(|_| ())),
        }

        // Several slabs (a distributed run's checkpoint), or none.
        for n in [0, 2] {
            let mut slabs = good.clone();
            slabs.slabs = vec![good.slabs[0].clone(); n];
            let refused = Simulation::try_restore(&slabs).map(|_| ());
            let want = DistError::GridMismatch {
                snapshot_ranks: n,
                config_ranks: 1,
            };
            assert_eq!(refused, Err(want));
        }

        // The key and the id counter are the snapshot's, not a fresh run's.
        let mut keyed = good.clone();
        keyed.config.seed = 7;
        keyed.next_id = 40;
        let resumed = Simulation::try_restore(&keyed).expect("resumable");
        assert_eq!((resumed.config.seed, resumed.next_id), (7, 40));
        assert_eq!(resumed.stats, sim.stats);
        assert_eq!(resumed.snapshot(), keyed);
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

    /// Returns each region unchanged but for `h`, set to `100 ×` the call's
    /// number, and keeps the ids of every call's region.
    struct Marking(std::sync::Arc<std::sync::Mutex<Vec<Vec<u64>>>>);

    impl PoolPredictor for Marking {
        fn predict(&self, _: Vec3, _: f64, _: f64, region: &[GasParticle]) -> Vec<GasParticle> {
            let mut calls = self.0.lock().unwrap();
            calls.push(region.iter().map(|g| g.id).collect());
            let mark = 100.0 * calls.len() as f64;
            region
                .iter()
                .map(|&g| GasParticle { h: mark, ..g })
                .collect()
        }
    }

    #[test]
    fn a_region_lands_on_its_ids_after_the_particles_are_reordered() {
        // Two blobs 100 pc apart, each with a star at its centre: the first
        // explodes in step 2 and lands in step 3, the second in step 4 and
        // step 5 (latency 2).
        let dt = 2.0e-3;
        let m_star = 10.0;
        let life = stellar_lifetime_myr(m_star);
        let mut particles = gas_blob(4, 3.0, 1.0);
        let n = particles.len() as u64;
        let far = Vec3::new(100.0, 0.0, 0.0);
        for mut p in gas_blob(4, 3.0, 1.0) {
            p.id += n;
            p.pos += far;
            particles.push(p);
        }
        particles.push(Particle::star(
            2 * n,
            Vec3::ZERO,
            Vec3::ZERO,
            m_star,
            dt * 1.5 - life,
        ));
        particles.push(Particle::star(
            2 * n + 1,
            far,
            Vec3::ZERO,
            m_star,
            dt * 3.5 - life,
        ));
        let cfg = SimConfig {
            dt_global: dt,
            pool_latency_steps: 2,
            ..quiet_config()
        };
        let calls = std::sync::Arc::default();
        let marking = Box::new(Marking(std::sync::Arc::clone(&calls)));
        let mut sim = Simulation::with_predictor(cfg, particles, 1, marking);
        sim.run(3);
        assert_eq!(sim.stats.regions_applied, 1);
        sim.particles.reverse();
        sim.run(2);
        assert_eq!(sim.stats.regions_applied, 2);
        let calls = calls.lock().unwrap();
        assert_eq!(calls.len(), 2, "two regions predicted");
        let mut second = calls[1].clone();
        second.sort_unstable();
        assert!(
            !second.is_empty() && second.iter().all(|&id| id >= n),
            "{second:?}"
        );
        let marked = sim.particles.iter().filter(|p| p.h == 200.0);
        let mut marked: Vec<u64> = marked.map(|p| p.id).collect();
        marked.sort_unstable();
        assert_eq!(marked, second, "only the second region carries its mark");
    }
}
