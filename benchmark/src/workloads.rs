//! The five workloads and their seeded input generators. The program only
//! ever sees the particles, config and weights generated here.

use astro::lifetime::stellar_lifetime_myr;
use asura::scenarios;
use asura::surrogate_train::{self, TrainSpec};
use asura_core::snapshot::fnv1a;
use asura_core::{Particle, SimConfig};
use fdps::Vec3;
use galactic_ic::GalaxyModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Untimed steps that open every round (pool spin-up, arena growth); they
/// count toward `setup_s`.
pub const WARMUP_STEPS: usize = 2;

/// Seed of `sn_surrogate`'s training set and network initialisation. Fixed,
/// not taken from `--seed`: a differently trained network redistributes the
/// gas differently, and between seeds that changed the run's hydro
/// interactions fourfold (3.8e7 vs 1.6e8 per round) — another workload, not
/// another sample of this one. The lattice jitter and the star positions
/// still come from `--seed`.
pub const TRAIN_SEED: u64 = 42;

/// Checkpoint cadence of `ops_run`, as `asura --snapshot-every 4`.
pub const OPS_SNAPSHOT_EVERY: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GalaxyGlobal,
    SnBlock,
    SnSurrogate,
    DistGalaxy,
    OpsRun,
}

pub const ALL: [Workload; 5] = [
    Workload::GalaxyGlobal,
    Workload::SnBlock,
    Workload::SnSurrogate,
    Workload::DistGalaxy,
    Workload::OpsRun,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::GalaxyGlobal => "galaxy_global",
            Workload::SnBlock => "sn_block",
            Workload::SnSurrogate => "sn_surrogate",
            Workload::DistGalaxy => "dist_galaxy",
            Workload::OpsRun => "ops_run",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed base steps of one round: the workload's fixed simulated
    /// interval. Sized so that three to four rounds fit the run length
    /// `BENCHMARK.json` fixes; N and the minimum of three rounds are never
    /// scaled. `--smoke` (tests only) runs 4.
    pub fn steps_per_round(self, smoke: bool) -> usize {
        if smoke {
            return 4;
        }
        match self {
            Workload::GalaxyGlobal => 16,
            Workload::SnBlock => 16,
            Workload::SnSurrogate => 100,
            Workload::DistGalaxy => 14,
            Workload::OpsRun => 40,
        }
    }

    /// Ceiling on `|E_end - E_start| / |E_start|` over one round, at twice
    /// the largest value seen over the ten seeds measured when the
    /// benchmark was defined (README, "Output checks"). Only `sn_block` has
    /// one: every other workload applies surrogate regions, and one region
    /// that holds gas inside the shock radius moves the total by anything
    /// from 8 % to a factor of 3400 (ROADMAP item 4a's open bug) — there
    /// the drift must only stay finite.
    pub fn energy_drift_ceiling(self) -> Option<f64> {
        match self {
            Workload::SnBlock => Some(0.33),
            _ => None,
        }
    }
}

/// One generated input: what `asura` would be handed on its command line.
pub struct Input {
    pub cfg: SimConfig,
    pub particles: Vec<Particle>,
    /// Trained-weights document and the seconds its training took
    /// (`sn_surrogate` only).
    pub weights: Option<(String, f64)>,
    /// Half-extent of the diagnostics surface-density map (`ops_run`).
    pub map_half: f64,
}

/// As `scenarios::pack_galaxy` (private to the registry): DM, old stars,
/// then gas at `u0` with `h` scaled to the gas disk.
fn pack_galaxy(model: &GalaxyModel, n: [usize; 3], seed: u64) -> Vec<Particle> {
    let real = model.realize(n[0], n[1], n[2], seed);
    let v3 = |a: &[f64; 3]| Vec3::new(a[0], a[1], a[2]);
    let mut particles = Vec::with_capacity(n.iter().sum::<usize>() + 12);
    for (p, v) in real.dm.pos.iter().zip(&real.dm.vel) {
        let id = particles.len() as u64;
        particles.push(Particle::dm(id, v3(p), v3(v), real.m_dm_particle));
    }
    for (p, v) in real.stars.pos.iter().zip(&real.stars.vel) {
        let id = particles.len() as u64;
        particles.push(Particle::star(
            id,
            v3(p),
            v3(v),
            real.m_star_particle,
            -500.0,
        ));
    }
    for (p, v) in real.gas.pos.iter().zip(&real.gas.vel) {
        let id = particles.len() as u64;
        particles.push(Particle::gas(
            id,
            v3(p),
            v3(v),
            real.m_gas_particle,
            2.0,
            model.gas_disk.r_scale * 0.04,
        ));
    }
    particles
}

/// The `dwarf_galaxy` recipe at four times its particle count: 24 000
/// particles plus 12 young massive stars timed to explode during the run.
fn galaxy(seed: u64, smoke: bool) -> Vec<Particle> {
    let n = if smoke {
        [1000, 500, 1500]
    } else {
        [8000, 4000, 12000]
    };
    let mut particles = pack_galaxy(&GalaxyModel::mw_mini(), n, seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(66));
    for _ in 0..12 {
        let m = rng.gen_range(9.0..20.0);
        let t_explode = rng.gen_range(1.0..7.5);
        let r = rng.gen_range(100.0..1500.0);
        let th = rng.gen_range(0.0..std::f64::consts::TAU);
        let id = particles.len() as u64;
        particles.push(Particle::star(
            id,
            Vec3::new(r * th.cos(), r * th.sin(), 0.0),
            Vec3::ZERO,
            m,
            t_explode - stellar_lifetime_myr(m),
        ));
    }
    particles
}

/// A cube of `n_side`^3 unit-mass gas particles on a unit lattice centred
/// on the origin, each displaced by up to `jitter` per axis.
fn gas_lattice(rng: &mut StdRng, n_side: usize, jitter: f64) -> Vec<Particle> {
    let half = n_side as f64 / 2.0;
    let mut particles = Vec::with_capacity(n_side.pow(3));
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..n_side {
                let d = Vec3::new(
                    rng.gen_range(-jitter..jitter),
                    rng.gen_range(-jitter..jitter),
                    rng.gen_range(-jitter..jitter),
                );
                let id = particles.len() as u64;
                particles.push(Particle::gas(
                    id,
                    Vec3::new(i as f64 - half, j as f64 - half, k as f64 - half) + d,
                    Vec3::ZERO,
                    1.0,
                    1.0,
                    1.3,
                ));
            }
        }
    }
    particles
}

/// `spiked_dt` on a 16^3 lattice: the centre particle carries SN-level
/// internal energy, so the block scheduler opens deep levels around it.
/// The registry's IC ignores its seed; here the seed jitters the lattice —
/// outside 5 spacings of the hot particle only. Jitter next to it flips
/// the levels of the very first steps between seeds (the two warm-up steps
/// took 18.5k or 31k updates, `setup_s` spread by 31 %); with the
/// neighbourhood left on the lattice the warm-up is the same work on every
/// seed and the runs part ways a few steps later.
fn spiked_blob(seed: u64, smoke: bool) -> Vec<Particle> {
    let n_side = if smoke { 8 } else { 16 };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut particles = gas_lattice(&mut rng, n_side, 0.02);
    let half = n_side as f64 / 2.0;
    let c = n_side / 2;
    for (flat, p) in particles.iter_mut().enumerate() {
        let (i, j, k) = (
            flat / (n_side * n_side),
            flat / n_side % n_side,
            flat % n_side,
        );
        let site = Vec3::new(i as f64 - half, j as f64 - half, k as f64 - half);
        if site.norm() < 5.0 {
            p.pos = site;
        }
    }
    particles[(c * n_side + c) * n_side + c].u = 1.0e8;
    particles
}

/// Whether `sn_surrogate` explodes a star on `step`: two steps in five.
/// Not every second step: with half the steps dispatching a region the
/// median step sits on the edge between the two kinds and flips between
/// runs; at 40 % the median is a plain step and p80 a dispatching one.
pub fn sn_on_step(step: usize) -> bool {
    matches!(step % 5, 1 | 3)
}

/// The `supernova_remnant` lattice at 12^3 with 12 M_sun stars near the
/// centre, one for each of the first `steps` steps that
/// [`sn_on_step`] names, timed to explode on it.
fn sn_field(seed: u64, cfg: &SimConfig, steps: usize, smoke: bool) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut particles = gas_lattice(&mut rng, if smoke { 6 } else { 12 }, 0.05);
    let m_star = 12.0;
    for step in (0..steps).filter(|&s| sn_on_step(s)) {
        let id = particles.len() as u64;
        let pos = Vec3::new(
            rng.gen_range(-2.0..2.0),
            rng.gen_range(-2.0..2.0),
            rng.gen_range(-2.0..2.0),
        );
        let birth = cfg.dt_global * (step as f64 + 0.5) - stellar_lifetime_myr(m_star);
        particles.push(Particle::star(id, pos, Vec3::ZERO, m_star, birth));
    }
    particles
}

fn registry_config(name: &str) -> SimConfig {
    scenarios::find(name)
        .unwrap_or_else(|| panic!("scenario {name} is registered"))
        .config()
}

/// Generate the input of `w` from `seed`: the same seed gives the same
/// input, bit for bit.
pub fn generate(w: Workload, seed: u64, smoke: bool) -> Input {
    let plain = |cfg, particles| Input {
        cfg,
        particles,
        weights: None,
        map_half: 0.0,
    };
    match w {
        Workload::GalaxyGlobal | Workload::DistGalaxy => {
            plain(registry_config("dwarf_galaxy"), galaxy(seed, smoke))
        }
        Workload::SnBlock => plain(registry_config("spiked_dt"), spiked_blob(seed, smoke)),
        Workload::SnSurrogate => {
            let cfg = registry_config("supernova_remnant");
            let steps = WARMUP_STEPS + w.steps_per_round(smoke);
            let spec = if smoke {
                TrainSpec {
                    samples: 1,
                    epochs: 1,
                    grid_n: 8,
                    base_features: 2,
                    lr: 1e-2,
                    seed: TRAIN_SEED,
                }
            } else {
                TrainSpec {
                    samples: 2,
                    epochs: 6,
                    grid_n: 32,
                    base_features: 4,
                    lr: 1e-2,
                    seed: TRAIN_SEED,
                }
            };
            let t0 = Instant::now();
            let weights = surrogate_train::train(&spec).model.to_json();
            let train_s = t0.elapsed().as_secs_f64();
            Input {
                particles: sn_field(seed, &cfg, steps, smoke),
                cfg,
                weights: Some((weights, train_s)),
                map_half: 0.0,
            }
        }
        Workload::OpsRun => {
            let scenario = scenarios::find("dwarf_galaxy").expect("dwarf_galaxy is registered");
            let (mut cfg, particles) = scenario.build(seed);
            cfg.snapshot_every = OPS_SNAPSHOT_EVERY;
            Input {
                cfg,
                particles,
                weights: None,
                map_half: scenario.map_half,
            }
        }
    }
}

/// FNV-1a over every field of every particle, bit for bit.
pub fn checksum(particles: &[Particle]) -> u64 {
    let mut bytes = Vec::with_capacity(particles.len() * 120);
    for p in particles {
        bytes.extend_from_slice(&p.id.to_le_bytes());
        bytes.push(p.kind as u8);
        bytes.push(p.exploded as u8);
        for x in [
            p.pos.x,
            p.pos.y,
            p.pos.z,
            p.vel.x,
            p.vel.y,
            p.vel.z,
            p.mass,
            p.u,
            p.h,
            p.rho,
            p.metals,
            p.birth_time,
        ] {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asura_core::Simulation;

    fn fingerprint(w: Workload, seed: u64) -> (u64, u64, u64, u64) {
        let input = generate(w, seed, true);
        let ic = checksum(&input.particles);
        let weights = input
            .weights
            .as_ref()
            .map_or(0, |(j, _)| fnv1a(j.as_bytes()));
        let mut sim = Simulation::new(input.cfg, input.particles, seed);
        sim.run(2);
        (
            ic,
            weights,
            sim.stats.gravity_interactions,
            sim.stats.hydro_interactions,
        )
    }

    #[test]
    fn the_same_seed_gives_the_same_input_and_counts_and_another_seed_differs() {
        for w in ALL {
            let a = fingerprint(w, 5);
            assert_eq!(a, fingerprint(w, 5), "{}: not deterministic", w.name());
            let b = fingerprint(w, 6);
            assert_ne!(a.0, b.0, "{}: the seed must reach the IC", w.name());
        }
    }

    #[test]
    fn names_round_trip_and_are_valid() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(crate::stats::valid_name(w.name()));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn sn_field_explodes_a_star_on_the_steps_it_names() {
        let input = generate(Workload::SnSurrogate, 3, true);
        let mut sim = Simulation::new(input.cfg, input.particles, 3);
        for step in 0..6 {
            let before = sim.stats.sn_events;
            sim.step();
            assert_eq!(
                sim.stats.sn_events - before,
                sn_on_step(step) as u64,
                "step {step}"
            );
        }
    }
}
