//! The scenario registry behind the `asura` scenario-runner CLI.
//!
//! Each [`Scenario`] is a named, reproducible initial condition plus the
//! [`SimConfig`] the paper (or the corresponding example) runs it with —
//! promoted from `examples/` so operational tooling (the CLI, the CI smoke
//! job, snapshot/restart drills) addresses workloads by name instead of by
//! copy-pasted setup code. The examples themselves now build from this
//! registry too.

use astro::lifetime::stellar_lifetime_myr;
use asura_core::{Particle, Scheme, SimConfig, TimestepMode};
use fdps::Vec3;
use galactic_ic::GalaxyModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named, reproducible workload: `build(seed)` returns the driver config,
/// keyed by `seed`, and the initial particle set; `config()` returns the
/// config alone, unkeyed (resume paths need it without paying for an IC
/// realization they will immediately discard).
pub struct Scenario {
    pub name: &'static str,
    pub description: &'static str,
    /// Steps the CLI runs when `--steps` is not given.
    pub default_steps: usize,
    /// Half-extent of diagnostic surface-density maps \[pc\].
    pub map_half: f64,
    config: fn() -> SimConfig,
    build_ic: fn(u64) -> Vec<Particle>,
}

impl Scenario {
    /// The driver config alone (no particle realization).
    pub fn config(&self) -> SimConfig {
        (self.config)()
    }

    /// Realize the scenario at `seed`: `(config, initial particles)`.
    pub fn build(&self, seed: u64) -> (SimConfig, Vec<Particle>) {
        let mut config = self.config();
        config.seed = seed;
        (config, (self.build_ic)(seed))
    }
}

/// Every registered scenario, addressable by name.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "quickstart",
        description: "scaled-down Milky Way patch, surrogate SN scheme, fixed global step",
        default_steps: 20,
        map_half: 4000.0,
        config: config_quickstart,
        build_ic: ic_quickstart,
    },
    Scenario {
        name: "dwarf_galaxy",
        description: "star-forming dwarf with cooling, star formation and timed SNe",
        default_steps: 32,
        map_half: 3000.0,
        config: config_dwarf_galaxy,
        build_ic: ic_dwarf_galaxy,
    },
    Scenario {
        name: "supernova_remnant",
        description: "one SN inside a uniform gas lattice, surrogate prediction in flight",
        default_steps: 12,
        map_half: 12.0,
        config: config_supernova_remnant,
        build_ic: ic_supernova_remnant,
    },
    Scenario {
        name: "sn_shell_conventional",
        description:
            "the supernova_remnant IC integrated conventionally (adaptive global CFL step)",
        default_steps: 12,
        map_half: 12.0,
        config: config_sn_shell_conventional,
        build_ic: ic_supernova_remnant,
    },
    Scenario {
        name: "spiked_dt",
        description: "SN-hot particle in a cold blob: block-timestep stress (conventional scheme)",
        default_steps: 6,
        map_half: 6.0,
        config: config_spiked_dt,
        build_ic: ic_spiked_dt,
    },
];

/// Look up a scenario by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// [`find`], with the error the CLI and the serve daemon both report for
/// an unknown name: it lists every registered one.
pub fn lookup(name: &str) -> Result<&'static Scenario, String> {
    find(name).ok_or_else(|| {
        let names: Vec<_> = SCENARIOS.iter().map(|s| s.name).collect();
        format!(
            "unknown scenario `{name}` (available: {})",
            names.join(", ")
        )
    })
}

/// Pack a galactic-ic realization into driver particles. Stars are born
/// long ago (`birth_time` = -500 Myr) so the pre-existing population never
/// explodes; gas starts at `u0` with a smoothing length scaled to the gas
/// disk.
fn pack_galaxy(
    model: &GalaxyModel,
    real: &galactic_ic::GalaxyRealization,
    u0: f64,
    h_frac: f64,
) -> Vec<Particle> {
    let mut particles = Vec::new();
    let mut id = 0u64;
    for (p, v) in real.dm.pos.iter().zip(&real.dm.vel) {
        particles.push(Particle::dm(
            id,
            Vec3::new(p[0], p[1], p[2]),
            Vec3::new(v[0], v[1], v[2]),
            real.m_dm_particle,
        ));
        id += 1;
    }
    for (p, v) in real.stars.pos.iter().zip(&real.stars.vel) {
        particles.push(Particle::star(
            id,
            Vec3::new(p[0], p[1], p[2]),
            Vec3::new(v[0], v[1], v[2]),
            real.m_star_particle,
            -500.0,
        ));
        id += 1;
    }
    for (p, v) in real.gas.pos.iter().zip(&real.gas.vel) {
        particles.push(Particle::gas(
            id,
            Vec3::new(p[0], p[1], p[2]),
            Vec3::new(v[0], v[1], v[2]),
            real.m_gas_particle,
            u0,
            model.gas_disk.r_scale * h_frac,
        ));
        id += 1;
    }
    particles
}

/// Gravity group size of the galaxy scenarios. Every scenario runs the
/// mixed kernel (paper §4.3: single precision on group-relative
/// coordinates); the lattice ones keep the default 64, because at 256 the
/// `supernova_remnant` IC's max force error grows 1.68-fold. At about half
/// the f64 kernel's cost per interaction, a tree walk weighs
/// more against the extra interactions a bigger group's list brings. 256
/// is the knee of the curve `force_pipeline` records (`BENCH_force.json`'s
/// `n_group_sweep`): it evaluates faster than 64 and, because a group's
/// list is opened against the group's whole bounding box, more accurately
/// (`tests/force_accuracy.rs`); past it, interactions grow faster than the
/// walks they save.
const GALAXY_N_GROUP: usize = 256;

fn config_quickstart() -> SimConfig {
    SimConfig {
        scheme: Scheme::Surrogate,
        dt_global: 0.1,
        pool_latency_steps: 5,
        eps: 20.0,
        n_ngb: 24,
        mixed_precision: true,
        n_group: GALAXY_N_GROUP,
        ..Default::default()
    }
}

fn ic_quickstart(seed: u64) -> Vec<Particle> {
    let model = GalaxyModel::mw_mini();
    let real = model.realize(1500, 1000, 1500, seed);
    pack_galaxy(&model, &real, 8.0, 0.05)
}

fn config_dwarf_galaxy() -> SimConfig {
    SimConfig {
        scheme: Scheme::Surrogate,
        dt_global: 0.25,
        pool_latency_steps: 4,
        eps: 15.0,
        n_ngb: 24,
        mixed_precision: true,
        n_group: GALAXY_N_GROUP,
        cooling: true,
        star_formation: true,
        // Coarse-resolution thresholds: 80,000 M_sun gas particles never
        // reach the star-by-star 100 cm^-3 criterion.
        sf_rho_min: 0.005,
        sf_t_max: 2.0e4,
        sf_efficiency: 0.05,
        ..Default::default()
    }
}

fn ic_dwarf_galaxy(seed: u64) -> Vec<Particle> {
    let model = GalaxyModel::mw_mini();
    let real = model.realize(2000, 1000, 3000, seed);
    let mut particles = pack_galaxy(&model, &real, 2.0, 0.04);
    // Young massive stars scattered through the disk, timed to explode
    // during the run — the surrogate path in action.
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(66));
    let id0 = particles.len() as u64;
    for k in 0..12 {
        let m = rng.gen_range(9.0..20.0);
        let life = stellar_lifetime_myr(m);
        let t_explode = rng.gen_range(1.0..7.5);
        let r = rng.gen_range(100.0..1500.0);
        let th = rng.gen_range(0.0..std::f64::consts::TAU);
        particles.push(Particle::star(
            id0 + k,
            Vec3::new(r * th.cos(), r * th.sin(), 0.0),
            Vec3::ZERO,
            m,
            t_explode - life,
        ));
    }
    particles
}

/// Global step shared by the SN-remnant config and its star's birth time.
const SN_REMNANT_DT: f64 = 2.0e-3;

fn config_supernova_remnant() -> SimConfig {
    SimConfig {
        scheme: Scheme::Surrogate,
        dt_global: SN_REMNANT_DT,
        pool_latency_steps: 5,
        cooling: false,
        star_formation: false,
        eps: 1.0,
        mixed_precision: true,
        ..Default::default()
    }
}

fn ic_supernova_remnant(seed: u64) -> Vec<Particle> {
    // A uniform gas lattice with one massive star at the centre that
    // explodes on the second step; with latency 5 the prediction is in
    // flight until step 7 — snapshots before that capture a non-empty
    // pending pool queue.
    let mut rng = StdRng::seed_from_u64(seed);
    let n_side = 10usize;
    let spacing = 1.0;
    let mut particles = Vec::new();
    let mut id = 0u64;
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..n_side {
                let jitter = Vec3::new(
                    rng.gen_range(-0.05..0.05),
                    rng.gen_range(-0.05..0.05),
                    rng.gen_range(-0.05..0.05),
                );
                particles.push(Particle::gas(
                    id,
                    Vec3::new(
                        (i as f64 - n_side as f64 / 2.0) * spacing,
                        (j as f64 - n_side as f64 / 2.0) * spacing,
                        (k as f64 - n_side as f64 / 2.0) * spacing,
                    ) + jitter,
                    Vec3::ZERO,
                    1.0,
                    1.0,
                    spacing * 1.3,
                ));
                id += 1;
            }
        }
    }
    let m_star = 12.0;
    let birth = SN_REMNANT_DT * 1.5 - stellar_lifetime_myr(m_star);
    particles.push(Particle::star(id, Vec3::ZERO, Vec3::ZERO, m_star, birth));
    particles
}

/// The conventional twin of [`config_supernova_remnant`]: identical IC and
/// base step, but the SN shell is integrated directly, so the global CFL
/// step collapses after the explosion. This is the ground-truth generator
/// for `asura train-surrogate` and the baseline side of
/// `cargo bench --bench surrogate_loop` — the pool latency is kept at the
/// surrogate twin's value so both configs agree on the prediction horizon.
fn config_sn_shell_conventional() -> SimConfig {
    SimConfig {
        scheme: Scheme::Conventional,
        dt_global: SN_REMNANT_DT,
        pool_latency_steps: 5,
        cooling: false,
        star_formation: false,
        eps: 1.0,
        mixed_precision: true,
        ..Default::default()
    }
}

fn config_spiked_dt() -> SimConfig {
    SimConfig {
        scheme: Scheme::Conventional,
        timestep: TimestepMode::Block { max_level: 10 },
        dt_global: 2.0e-3,
        cooling: false,
        star_formation: false,
        eps: 1.0,
        mixed_precision: true,
        ..Default::default()
    }
}

fn ic_spiked_dt(_seed: u64) -> Vec<Particle> {
    // The block-timestep stress scenario of `cargo bench --bench blockstep`.
    asura_core::particle::spiked_blob(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_builds_and_is_findable() {
        for s in SCENARIOS {
            assert_eq!(find(s.name).map(|f| f.name), Some(s.name));
            let (cfg, particles) = s.build(1);
            assert!(!particles.is_empty(), "{}: empty IC", s.name);
            assert!(cfg.dt_global > 0.0);
            assert!(s.default_steps > 0);
            // IDs unique.
            let mut ids: Vec<u64> = particles.iter().map(|p| p.id).collect();
            let n = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n, "{}: duplicate ids", s.name);
        }
        assert!(find("no_such_scenario").is_none());
    }

    #[test]
    fn config_alone_matches_the_full_build() {
        for s in SCENARIOS {
            let (cfg, _) = s.build(1);
            let keyed = SimConfig {
                seed: 1,
                ..s.config()
            };
            assert_eq!(keyed, cfg, "{}: config() must equal build().0", s.name);
        }
    }

    #[test]
    fn scenario_builds_are_deterministic_in_the_seed() {
        for s in SCENARIOS {
            let (_, a) = s.build(3);
            let (_, b) = s.build(3);
            assert_eq!(a, b, "{}: same seed must give the same IC", s.name);
        }
    }

    #[test]
    fn spiked_dt_uses_block_timesteps_and_supernova_remnant_has_a_sn() {
        let (cfg, _) = find("spiked_dt").unwrap().build(1);
        assert_eq!(cfg.scheme, Scheme::Conventional);
        assert!(matches!(cfg.timestep, TimestepMode::Block { .. }));
        let (cfg, particles) = find("supernova_remnant").unwrap().build(1);
        assert_eq!(cfg.scheme, Scheme::Surrogate);
        assert_eq!(particles.iter().filter(|p| p.is_star()).count(), 1);
    }

    /// Every scenario runs the mixed-precision gravity kernel:
    /// `tests/force_accuracy.rs` shows it adds no force error on any of
    /// their ICs. The galaxy scenarios take `n_group` 256, where the larger
    /// groups remove some error; the lattice ones keep 64, because on the
    /// `supernova_remnant` IC 256 raises the max force error 1.68-fold.
    #[test]
    fn every_scenario_runs_the_mixed_kernel() {
        for s in SCENARIOS {
            let galaxy = matches!(s.name, "quickstart" | "dwarf_galaxy");
            let cfg = s.config();
            assert!(cfg.mixed_precision, "{}", s.name);
            let n_group = if galaxy { 256 } else { 64 };
            assert_eq!(cfg.n_group, n_group, "{}", s.name);
        }
    }
}
