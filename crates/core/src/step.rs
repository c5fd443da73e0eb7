//! The paper's §3.2 step (Fig. 3), written once for both drivers: [`step`]
//! advances one local particle slab through
//!
//! 1. identify the SNe exploding in `(t, t + dt_global]`;
//! 2. inject each one's nucleosynthesis yields into the gas around it;
//! 3. `Scheme::Surrogate`: cut the region cube and dispatch it to the
//!    pool — `Scheme::Conventional`: inject the thermal energy;
//! 4. integrate — the fixed `dt_global` KDK (`Surrogate`, whatever
//!    [`SimConfig::timestep`] says), the CFL-adaptive global KDK
//!    (`Conventional` + `Global`) or the block walk (`Conventional` +
//!    `Block`);
//! 5. collect the predictions that are due and replace by ID;
//! 6. cool;
//! 7. form stars;
//! 8. advance the clock.
//!
//! What one slab cannot know alone it asks its [`Halo`]:
//! [`Halo::rebalance`] before anything else (domain decomposition),
//! [`Halo::all_events`] so every slab walks the same events (2–3),
//! [`Halo::sum`] for the feedback weights' Σw over the slabs a blast
//! straddles (2–3), [`Halo::gather_region`] for the cube's gas held by
//! other slabs (3), [`Halo::submit`] / [`Halo::collect`] for the pool (3,
//! 5), [`Halo::min`] for the adaptive step (4), the force-pass methods
//! inside [`ForceBuffers`] (4), [`Halo::all_parents`] for the star ids (7)
//! and [`Halo::phase`] around each stage. The drivers keep what is
//! genuinely theirs: the transport and the checkpoint cadence.
//!
//! Stage 7 draws from no stream. A gas particle's draw is seeded by a hash
//! of `(SimConfig::seed, its id, the step)` — counter-based random numbers
//! (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) —
//! so it depends on neither particle order nor partition, and new stars
//! take ids from the run's `next_id` in parent-id order over every slab.

use crate::config::{Scheme, SimConfig, TimestepMode};
use crate::forces::{ForceBuffers, Halo};
use crate::particle::{Kind, Particle};
use crate::phases;
use crate::scheduler::ActiveScheduler;
use crate::sim::SimStats;
use crate::snapshot::{PendingPrediction, ScheduleState, SlabRecord};
use astro::cooling::CoolingCurve;
use astro::lifetime::explodes_in_interval;
use astro::starform::{SfOutcome, StarFormation};
use astro::supernova::SnFeedback;
use astro::units::{E_SN, NH_PER_MSUN_PC3};
use astro::yields::{distribute_yields, SnYield};
use astro::StarFormationCriteria;
use fdps::Vec3;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sph::timestep::quantize_block;
use sph::GammaLawEos;
use surrogate::GasParticle;

/// An identified SN: where, and the progenitor's mass (which sets the
/// yields).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Explosion {
    pub(crate) center: Vec3,
    pub(crate) progenitor_mass: f64,
}

/// A region the pool is predicting: the halo's handle on it and the step
/// at which the prediction falls due.
pub(crate) struct InFlight<T> {
    pub(crate) due_step: u64,
    pub(crate) ticket: T,
}

/// What a slab carries from step to step besides the particles, clock and
/// counters its driver exposes: the force arena (whose `vsig` stash seeds
/// the next adaptive step), the block schedule, the pool queue, the
/// equation of state and the cooling curve.
pub(crate) struct SlabState<T> {
    pub(crate) forces: ForceBuffers,
    pub(crate) sched: ActiveScheduler,
    pub(crate) pending: Vec<InFlight<T>>,
    pub(crate) eos: GammaLawEos,
    pub(crate) cooling: CoolingCurve,
}

impl<T> Default for SlabState<T> {
    fn default() -> Self {
        SlabState {
            forces: ForceBuffers::default(),
            sched: ActiveScheduler::default(),
            pending: Vec::new(),
            eos: GammaLawEos::default(),
            cooling: CoolingCurve::standard_ism(),
        }
    }
}

impl<T> SlabState<T> {
    /// This slab as a checkpoint keeps it (the one capture both drivers
    /// share). `pending` is the queue with every prediction in hand — how
    /// a ticket becomes one is the driver's business. None of the force
    /// scratch arena but the `vsig` stash is kept: the next force
    /// evaluation rebuilds it.
    pub(crate) fn record(
        &self,
        particles: &[Particle],
        stats: &SimStats,
        pending: Vec<PendingPrediction>,
    ) -> SlabRecord {
        SlabRecord {
            particles: particles.to_vec(),
            last_vsig: self.forces.vsig_record(),
            pending,
            schedule: self.sched.schedule().map(|s| ScheduleState {
                dt_max: s.dt_max,
                levels: s.levels.clone(),
            }),
            stats: *stats,
        }
    }

    /// The state a slab resumes `slab` with: the stash that seeds the next
    /// adaptive step, the schedule (for observability — the next base step
    /// re-derives it from forces) and the queue, `ticket` wrapping each
    /// prediction already in hand.
    pub(crate) fn resumed(slab: &SlabRecord, ticket: impl Fn(Vec<GasParticle>) -> T) -> Self {
        let mut state = SlabState::default();
        state.forces.restore_vsig(&slab.last_vsig);
        if let Some(s) = &slab.schedule {
            state.sched.restore(s.dt_max, &s.levels);
        }
        state.pending = requeue(&slab.pending, ticket);
        state
    }
}

/// A checkpoint's `pending` list as the pool queue it was taken from.
pub(crate) fn requeue<T>(
    pending: &[PendingPrediction],
    ticket: impl Fn(Vec<GasParticle>) -> T,
) -> Vec<InFlight<T>> {
    let in_flight = |p: &PendingPrediction| InFlight {
        due_step: p.due_step,
        ticket: ticket(p.predicted.clone()),
    };
    pending.iter().map(in_flight).collect()
}

/// One slab as [`step`] takes it: the driver's own particles, clock, id
/// counter (the same on every slab) and counters, and the [`SlabState`] it
/// keeps for the step.
pub(crate) struct Slab<'a, T> {
    pub(crate) particles: &'a mut Vec<Particle>,
    pub(crate) time: &'a mut f64,
    pub(crate) step_count: &'a mut u64,
    pub(crate) next_id: &'a mut u64,
    pub(crate) stats: &'a mut SimStats,
    pub(crate) state: &'a mut SlabState<T>,
}

/// The first id past `particles`' — a fresh run's `next_id`.
pub(crate) fn first_free_id(particles: &[Particle]) -> u64 {
    particles.iter().map(|p| p.id).max().map_or(0, |m| m + 1)
}

/// One full step of the paper's §3.2 procedure on one slab (module docs).
pub(crate) fn step<H: Halo>(cfg: &SimConfig, halo: &mut H, s: &mut Slab<'_, H::Ticket>) {
    halo.rebalance(s.particles);

    let time = *s.time;
    let mine = halo.phase(phases::IDENTIFY_SNE, || {
        let mut mine = Vec::new();
        for p in s.particles.iter_mut() {
            if p.is_star()
                && !p.exploded
                && explodes_in_interval(p.mass, p.birth_time, time, cfg.dt_global)
            {
                p.exploded = true;
                mine.push(Explosion {
                    center: p.pos,
                    progenitor_mass: p.mass,
                });
            }
        }
        mine
    });
    s.stats.sn_events += mine.len() as u64;

    let half = 0.5 * cfg.region_side;
    for (owner, sn) in halo.all_events(mine) {
        // Yields go in at once under either scheme (the surrogate predicts
        // dynamics, not composition), to the recipients of the thermal
        // energy and with the same weights.
        let (near, weights) = sn_neighbours(s.particles, sn.center, half);
        let wsum = halo.sum(weights.iter().sum());
        let yields = SnYield::for_progenitor(sn.progenitor_mass);
        for (&i, dz) in near.iter().zip(distribute_yields(&yields, &weights, wsum)) {
            s.particles[i].metals += dz.iter().sum::<f64>();
        }
        match cfg.scheme {
            // The pool's compute latency is modelled by the due step.
            Scheme::Surrogate => {
                let local = region_gas(s.particles, sn.center, half, &s.state.eos).collect();
                if let Some(gas) = halo.gather_region(owner, local).filter(|g| !g.is_empty()) {
                    s.state.pending.push(InFlight {
                        due_step: *s.step_count + cfg.pool_latency_steps as u64,
                        ticket: halo.submit(sn.center, gas),
                    });
                }
            }
            Scheme::Conventional => {
                let masses: Vec<f64> = near.iter().map(|&i| s.particles[i].mass).collect();
                let event = astro::SnEvent {
                    star_index: 0,
                    pos: [sn.center.x, sn.center.y, sn.center.z],
                    time,
                    energy: E_SN,
                };
                let du = SnFeedback::default().thermal_injection(&event, &masses, &weights, wsum);
                for (&i, d) in near.iter().zip(du) {
                    s.particles[i].u += d;
                }
            }
        }
    }

    let st = &mut *s.state;
    let dt = match (cfg.scheme, cfg.timestep) {
        (Scheme::Conventional, TimestepMode::Block { max_level }) => {
            if H::COLLECTIVE || !s.particles.is_empty() {
                st.forces
                    .block_step(cfg, halo, &mut st.sched, s.particles, max_level, s.stats);
            }
            // Shared-base-step physics below, re-synchronized.
            cfg.dt_global
        }
        (scheme, _) => {
            let dt = match scheme {
                Scheme::Surrogate => cfg.dt_global,
                Scheme::Conventional => {
                    let dt = adaptive_dt(cfg, halo, s.particles, &st.eos, &st.forces.vsig);
                    dt.min(to_next_base_step(*s.time, cfg.dt_global))
                }
            };
            st.forces.kdk(cfg, halo, s.particles, dt, s.stats);
            dt
        }
    };

    let due = take_due(&mut st.pending, *s.step_count, |p| p.due_step);
    s.stats.regions_applied += due.len() as u64;
    let predicted = halo.collect(due.into_iter().map(|p| p.ticket).collect());
    replace_by_id(s.particles, predicted, &st.eos);

    halo.phase(phases::FEEDBACK_COOLING, || {
        if cfg.cooling {
            cool(s.particles, &st.cooling, &st.eos, dt);
        }
    });
    let spawned = halo.phase(phases::STAR_FORMATION, || match cfg.star_formation {
        true => draw_stars(cfg, s, dt),
        false => Vec::new(),
    });
    if cfg.star_formation {
        number_stars(halo, s, spawned);
    }

    *s.time += dt;
    *s.step_count += 1;
    s.stats.steps += 1;
    s.stats.dt_min_seen = s.stats.dt_min_seen.min(dt);
}

/// CFL-adaptive shared timestep (conventional scheme, paper §5.3): the
/// sound-speed estimate from the current thermal state, refined by the
/// signal speeds the last force pass stashed, agreed over the slabs.
fn adaptive_dt<H: Halo>(
    cfg: &SimConfig,
    halo: &mut H,
    particles: &[Particle],
    eos: &GammaLawEos,
    vsig: &[(usize, f64, f64)],
) -> f64 {
    let mut dt = cfg.dt_global;
    for p in particles {
        if p.is_gas() {
            let cs = eos.sound_speed(p.u);
            if cs > 0.0 && p.h > 0.0 {
                dt = dt.min(cfg.cfl * p.h / cs);
            }
        }
    }
    for &(_, vsig, h) in vsig {
        if vsig > 0.0 {
            dt = dt.min(cfg.cfl * h / vsig);
        }
    }
    quantize_block(halo.min(dt).max(cfg.dt_min), cfg.dt_global)
}

/// Time from `time` to the next multiple of `dt_global`, so an adaptive
/// step that starts off a power-of-two boundary ends on the base step's
/// end instead of crossing it. A clock within 1e-9 of a base step past a
/// multiple counts as on it: the sum of `dt_global / 2^k` steps can land
/// an ulp short of the boundary.
fn to_next_base_step(time: f64, dt_global: f64) -> f64 {
    let base = (time / dt_global + 1e-9).floor();
    (base + 1.0) * dt_global - time
}

/// The gas of `particles` inside the cube of half-side `half` around
/// `center`, in the form the pool predictor takes (paper §3.2 step 2).
fn region_gas<'a>(
    particles: &'a [Particle],
    center: Vec3,
    half: f64,
    eos: &'a GammaLawEos,
) -> impl Iterator<Item = GasParticle> + 'a {
    particles
        .iter()
        .filter(move |p| {
            p.is_gas() && {
                let d = p.pos - center;
                d.x.abs() < half && d.y.abs() < half && d.z.abs() < half
            }
        })
        .map(move |p| GasParticle {
            pos: p.pos,
            vel: p.vel,
            mass: p.mass,
            temp: eos.temperature_from_u(p.u),
            h: p.h.max(1e-3),
            id: p.id,
        })
}

/// Split the predictions that are due off the pool queue, order kept on
/// both sides. `step` counts the steps completed *before* the one being
/// taken: a region dispatched during step `s` carries `due_step = s +
/// pool_latency_steps` and a prediction for `horizon() = pool_latency_steps
/// × dt_global` past its dispatch, so it lands at the end of the step that
/// advances the clock to `due_step`.
fn take_due<T>(pending: &mut Vec<T>, step: u64, due_step: impl Fn(&T) -> u64) -> Vec<T> {
    let (due, kept) = pending.drain(..).partition(|p| due_step(p) <= step + 1);
    *pending = kept;
    due
}

/// Replace gas particles by ID with the pool's predictions (paper §3.2
/// step 4); of equal ids the last given wins, and ids no longer present as
/// gas are skipped. The lookup is derived from `particles` at each landing,
/// so their order may change between landings.
fn replace_by_id(particles: &mut [Particle], mut predicted: Vec<GasParticle>, eos: &GammaLawEos) {
    if predicted.is_empty() {
        return;
    }
    // Stable: of equal ids, the last given sorts last.
    predicted.sort_by_key(|g| g.id);
    for p in particles.iter_mut().filter(|p| p.is_gas()) {
        let past = predicted.partition_point(|g| g.id <= p.id);
        let Some(g) = past.checked_sub(1).map(|i| &predicted[i]) else {
            continue;
        };
        if g.id == p.id {
            p.pos = g.pos;
            p.vel = g.vel;
            p.mass = g.mass;
            p.u = eos.u_from_temperature(g.temp.max(1.0));
            p.h = g.h;
        }
    }
}

/// Radiative cooling/heating of the gas over `dt` (paper §3.2 step 6).
fn cool(particles: &mut [Particle], cooling: &CoolingCurve, eos: &GammaLawEos, dt: f64) {
    for p in particles.iter_mut() {
        if p.is_gas() && p.rho > 0.0 {
            let temp = eos.temperature_from_u(p.u);
            let nh = p.rho * NH_PER_MSUN_PC3;
            let t_new = cooling.update(temp, nh, dt);
            p.u = eos.u_from_temperature(t_new.max(10.0));
        }
    }
}

/// The seed of a star-formation draw: SplitMix64's finalizer folded over
/// `(seed, id, step)`, one word at a time.
fn draw_key(seed: u64, id: u64, step: u64) -> u64 {
    let mix = |z: u64| {
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let gamma = 0x9E37_79B9_7F4A_7C15u64;
    [seed, id, step]
        .into_iter()
        .fold(0, |h, w| mix(h.wrapping_add(gamma) ^ w))
}

/// Stochastic star formation over the gas (paper §3.2 step 6), each
/// particle on its own [`draw_key`]-seeded generator. A conversion happens
/// in place; a spawn leaves the gas its remainder and comes back as
/// `(parent id, star)`, the star's id still to be given.
fn draw_stars<T>(cfg: &SimConfig, s: &mut Slab<'_, T>, dt: f64) -> Vec<(u64, Particle)> {
    let criteria = StarFormationCriteria {
        rho_min: cfg.sf_rho_min,
        t_max: cfg.sf_t_max,
        efficiency: cfg.sf_efficiency,
    };
    let starform = StarFormation {
        criteria,
        ..Default::default()
    };
    let (time, step, eos) = (*s.time, *s.step_count, s.state.eos);
    let mut spawned = Vec::new();
    for p in s.particles.iter_mut().filter(|p| p.is_gas() && p.rho > 0.0) {
        let mut rng = StdRng::seed_from_u64(draw_key(cfg.seed, p.id, step));
        let temp = eos.temperature_from_u(p.u);
        match starform.try_form(&mut rng, p.rho, temp, p.mass, dt) {
            SfOutcome::None => {}
            SfOutcome::Spawn {
                star_mass,
                gas_left,
            } => {
                spawned.push((p.id, Particle::star(0, p.pos, p.vel, star_mass, time)));
                p.mass = gas_left;
            }
            SfOutcome::Convert { star_mass } => {
                p.kind = Kind::Star;
                p.mass = star_mass;
                p.birth_time = time;
                p.exploded = false;
            }
        }
    }
    spawned
}

/// Give this slab's spawned stars their ids and append them: every slab's
/// spawns ([`Halo::all_parents`]) take ids from `next_id` in parent-id
/// order, so the ids do not depend on who holds which parent.
fn number_stars<H: Halo>(halo: &mut H, s: &mut Slab<'_, H::Ticket>, spawned: Vec<(u64, Particle)>) {
    let mut parents = halo.all_parents(spawned.iter().map(|&(id, _)| id).collect());
    parents.sort_unstable();
    s.stats.stars_formed += spawned.len() as u64;
    for (parent, mut star) in spawned {
        star.id = *s.next_id + parents.partition_point(|&q| q < parent) as u64;
        s.particles.push(star);
    }
    *s.next_id += parents.len() as u64;
}

/// The gas within `radius` of an SN at `center` and each particle's share
/// weight (linear taper, floored): who receives yields or thermal energy.
fn sn_neighbours(particles: &[Particle], center: Vec3, radius: f64) -> (Vec<usize>, Vec<f64>) {
    particles
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_gas())
        .filter_map(|(i, p)| {
            let r = (p.pos - center).norm();
            (r < radius).then(|| (i, (1.0 - r / radius).max(0.01)))
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A halo with nobody to talk to and no pool.
    struct Lone;

    impl Halo for Lone {
        type Ticket = ();
        fn submit(&mut self, _: Vec3, _: Vec<GasParticle>) {}
        fn collect(&mut self, _: Vec<()>) -> Vec<GasParticle> {
            Vec::new()
        }
    }

    /// Stage 7 once over `particles`, as `parent id → (new id, star mass
    /// bits)`; a spawned star sits where its parent does.
    fn formed(cfg: &SimConfig, mut particles: Vec<Particle>) -> BTreeMap<u64, (u64, u64)> {
        let at = |p: &Particle| [p.pos.x, p.pos.y, p.pos.z].map(f64::to_bits);
        let parent: BTreeMap<_, _> = particles.iter().map(|p| (at(p), p.id)).collect();
        let (mut time, mut step_count, mut next_id) = (1.0, 3, 1_000);
        let (mut stats, mut state) = (SimStats::default(), SlabState::default());
        let mut s = Slab {
            particles: &mut particles,
            time: &mut time,
            step_count: &mut step_count,
            next_id: &mut next_id,
            stats: &mut stats,
            state: &mut state,
        };
        let spawned = draw_stars(cfg, &mut s, 4.0);
        number_stars(&mut Lone, &mut s, spawned);
        let n = stats.stars_formed;
        assert_eq!(next_id, 1_000 + n, "ids are handed out without a gap");
        let stars = particles.iter().filter(|p| p.id >= 1_000);
        stars
            .map(|p| (parent[&at(p)], (p.id, p.mass.to_bits())))
            .collect()
    }

    #[test]
    fn an_adaptive_step_ends_on_the_base_step_it_starts_in() {
        let dt_global: f64 = 2.0e-3;
        let mut time = 0.0;
        // 3/64 of the base step, then two half steps: the second is cut
        // to the 29/64 left.
        for dt in [dt_global / 64.0; 3]
            .into_iter()
            .chain([dt_global / 2.0; 2])
        {
            time += dt.min(to_next_base_step(time, dt_global));
        }
        assert_eq!(time, dt_global);
        assert_eq!(to_next_base_step(time, dt_global), dt_global);
        // An ulp short of the boundary is on it, not an ulp-long step away.
        let short = f64::from_bits(dt_global.to_bits() - 1);
        assert!(to_next_base_step(short, dt_global) > dt_global);
    }

    #[test]
    fn a_slab_in_reversed_order_forms_the_same_stars_under_the_same_ids() {
        let cfg = SimConfig {
            sf_rho_min: 0.5,
            sf_t_max: 2.0e4,
            sf_efficiency: 1.0,
            seed: 9,
            ..Default::default()
        };
        let gas: Vec<Particle> = (0..64u64)
            .map(|k| {
                let pos = Vec3::new((k % 4) as f64, (k / 4 % 4) as f64, (k / 16) as f64);
                let mut p = Particle::gas(7 * k + 3, pos, Vec3::ZERO, 1_000.0, 1e-4, 1.0);
                p.rho = 1.0;
                p
            })
            .collect();
        let forward = formed(&cfg, gas.clone());
        assert!(
            forward.len() > 4,
            "{} stars: too few to tell",
            forward.len()
        );
        let reversed = formed(&cfg, gas.iter().rev().copied().collect());
        assert_eq!(forward, reversed);
        // Numbered in parent-id order.
        let ids: Vec<u64> = forward.values().map(|&(id, _)| id).collect();
        assert!(ids.windows(2).all(|w| w[0] + 1 == w[1]), "{ids:?}");
        // Another key draws other stars.
        assert_ne!(formed(&SimConfig { seed: 10, ..cfg }, gas), forward);
    }
}
