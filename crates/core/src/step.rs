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
//! 7. run the star-formation stage the driver supplies;
//! 8. advance the clock.
//!
//! What one slab cannot know alone it asks its [`Halo`]:
//! [`Halo::rebalance`] before anything else (domain decomposition),
//! [`Halo::all_events`] so every slab walks the same events (2–3),
//! [`Halo::sum`] for the feedback weights' Σw over the slabs a blast
//! straddles (2–3), [`Halo::gather_region`] for the cube's gas held by
//! other slabs (3), [`Halo::submit`] / [`Halo::collect`] for the pool (3,
//! 5), [`Halo::min`] for the adaptive step (4), the force-pass methods
//! inside [`ForceBuffers`] (4) and [`Halo::phase`] around each stage. The
//! drivers keep what is genuinely theirs: the transport, the checkpoint
//! cadence and — star formation needs a seeded stream — stage 7.

use crate::config::{Scheme, SimConfig, TimestepMode};
use crate::forces::{ForceBuffers, Halo};
use crate::particle::Particle;
use crate::phases;
use crate::scheduler::ActiveScheduler;
use crate::sim::SimStats;
use crate::snapshot::{PendingPrediction, ScheduleState, SlabRecord};
use astro::cooling::CoolingCurve;
use astro::lifetime::explodes_in_interval;
use astro::supernova::SnFeedback;
use astro::units::{E_SN, NH_PER_MSUN_PC3};
use astro::yields::{distribute_yields, SnYield};
use fdps::Vec3;
use sph::timestep::quantize_block;
use sph::GammaLawEos;
use surrogate::GasParticle;

/// An identified SN: where, and the progenitor's mass (which sets the
/// yields).
#[derive(Debug, Clone, Copy)]
pub struct Explosion {
    pub center: Vec3,
    pub progenitor_mass: f64,
}

/// A region the pool is predicting: the halo's handle on it and the step
/// at which the prediction falls due.
pub struct InFlight<T> {
    pub due_step: u64,
    pub ticket: T,
}

/// What a slab carries from step to step besides the particles, clock and
/// counters its driver exposes: the force arena (whose `vsig` stash seeds
/// the next adaptive step), the block schedule, the pool queue, the id
/// index, the equation of state and the cooling curve.
pub struct SlabState<T> {
    pub forces: ForceBuffers,
    pub sched: ActiveScheduler,
    pub pending: Vec<InFlight<T>>,
    pub gas_index: GasIndex,
    pub eos: GammaLawEos,
    pub cooling: CoolingCurve,
}

impl<T> Default for SlabState<T> {
    fn default() -> Self {
        SlabState {
            forces: ForceBuffers::default(),
            sched: ActiveScheduler::default(),
            pending: Vec::new(),
            gas_index: GasIndex::default(),
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
    pub fn record(
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
    pub fn resumed(slab: &SlabRecord, ticket: impl Fn(Vec<GasParticle>) -> T) -> Self {
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
pub fn requeue<T>(
    pending: &[PendingPrediction],
    ticket: impl Fn(Vec<GasParticle>) -> T,
) -> Vec<InFlight<T>> {
    let in_flight = |p: &PendingPrediction| InFlight {
        due_step: p.due_step,
        ticket: ticket(p.predicted.clone()),
    };
    pending.iter().map(in_flight).collect()
}

/// One slab as [`step`] takes it: the driver's own particles, clock and
/// counters, and the [`SlabState`] it keeps for the step.
pub struct Slab<'a, T> {
    pub particles: &'a mut Vec<Particle>,
    pub time: &'a mut f64,
    pub step_count: &'a mut u64,
    pub stats: &'a mut SimStats,
    pub state: &'a mut SlabState<T>,
}

/// One full step of the paper's §3.2 procedure on one slab (module docs).
/// `star_formation(slab, dt)` is stage 7; it runs when
/// [`SimConfig::star_formation`] is set.
pub fn step<H: Halo>(
    cfg: &SimConfig,
    halo: &mut H,
    s: &mut Slab<'_, H::Ticket>,
    star_formation: impl FnOnce(&mut Slab<'_, H::Ticket>, f64),
) {
    halo.rebalance(s.particles);
    if H::COLLECTIVE {
        // Other slabs exist: migration may have changed who is here.
        s.state.gas_index.invalidate();
    }

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
                    adaptive_dt(cfg, halo, s.particles, &st.eos, &st.forces.vsig)
                }
            };
            st.forces.kdk(cfg, halo, s.particles, dt, s.stats);
            dt
        }
    };

    let due = take_due(&mut st.pending, *s.step_count, |p| p.due_step);
    s.stats.regions_applied += due.len() as u64;
    let predicted = halo.collect(due.into_iter().map(|p| p.ticket).collect());
    replace_by_id(s.particles, &mut st.gas_index, predicted, &st.eos);

    halo.phase(phases::FEEDBACK_COOLING, || {
        if cfg.cooling {
            cool(s.particles, &st.cooling, &st.eos, dt);
        }
    });
    halo.phase(phases::STAR_FORMATION, || {
        if cfg.star_formation {
            star_formation(s, dt);
        }
    });

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

/// Gas id → particle index, for applying pool predictions. Built on first
/// use and kept until [`GasIndex::invalidate`]d: insertion, gas→star
/// conversion and migration change it; kicks, drifts and replacement by
/// id do not.
#[derive(Default)]
pub struct GasIndex {
    // lint:allow(ordered-iteration): keyed lookup only — never iterated,
    // so hasher order cannot reach any persisted or rendered byte.
    map: std::collections::HashMap<u64, usize>,
    valid: bool,
}

impl GasIndex {
    pub fn invalidate(&mut self) {
        self.valid = false;
    }
}

/// Replace particles by ID with the pool's predictions (paper §3.2 step
/// 4), in the order given; ids no longer present as gas are skipped.
fn replace_by_id(
    particles: &mut [Particle],
    index: &mut GasIndex,
    predicted: impl IntoIterator<Item = GasParticle>,
    eos: &GammaLawEos,
) {
    let mut predicted = predicted.into_iter().peekable();
    if predicted.peek().is_none() {
        return;
    }
    if !index.valid {
        index.map.clear();
        for (i, p) in particles.iter().enumerate() {
            if p.is_gas() {
                index.map.insert(p.id, i);
            }
        }
        index.valid = true;
    }
    for g in predicted {
        if let Some(&i) = index.map.get(&g.id) {
            let p = &mut particles[i];
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
