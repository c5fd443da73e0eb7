//! The pieces of the §3.2 step that sit around the integrator, written
//! once for both drivers: the SN region cut, the due rule of the pool
//! queue, replace-by-ID, the cooling loop and the feedback neighbour
//! weights. Plain functions over a local particle slab — the drivers keep
//! what is genuinely theirs (who predicts, who owns which particle, which
//! ranks must hear about an event).

use crate::particle::Particle;
use astro::cooling::CoolingCurve;
use astro::units::NH_PER_MSUN_PC3;
use fdps::Vec3;
use sph::GammaLawEos;
use surrogate::GasParticle;

/// The gas of `particles` inside the cube of half-side `half` around
/// `center`, in the form the pool predictor takes (paper §3.2 step 2).
pub fn region_gas<'a>(
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
pub fn take_due<T>(pending: &mut Vec<T>, step: u64, due_step: impl Fn(&T) -> u64) -> Vec<T> {
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
pub fn replace_by_id(
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
pub fn cool(particles: &mut [Particle], cooling: &CoolingCurve, eos: &GammaLawEos, dt: f64) {
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
pub fn sn_neighbours(particles: &[Particle], center: Vec3, radius: f64) -> (Vec<usize>, Vec<f64>) {
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
