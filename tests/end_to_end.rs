//! End-to-end integration tests: galaxy ICs through the full surrogate
//! simulation loop, checking the cross-crate invariants a user relies on.

#![expect(clippy::disallowed_methods, reason = "tests audit energy exactly")]

use asura_core::{Particle, Scheme, SimConfig, Simulation};
use fdps::Vec3;
use galactic_ic::GalaxyModel;

fn realize_mini(n_dm: usize, n_star: usize, n_gas: usize, seed: u64) -> Vec<Particle> {
    let model = GalaxyModel::mw_mini();
    let real = model.realize(n_dm, n_star, n_gas, seed);
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
            8.0,
            GalaxyModel::mw_mini().gas_disk.r_scale * 0.05,
        ));
        id += 1;
    }
    particles
}

#[test]
fn galaxy_patch_runs_and_conserves_mass() {
    let particles = realize_mini(400, 300, 500, 1);
    let m0: f64 = particles.iter().map(|p| p.mass).sum();
    let cfg = SimConfig {
        scheme: Scheme::Surrogate,
        dt_global: 0.2,
        eps: 25.0,
        n_ngb: 16,
        cooling: true,
        star_formation: true,
        ..Default::default()
    };
    let mut sim = Simulation::new(cfg, particles, 2);
    sim.run(4);
    let m1: f64 = sim.particles.iter().map(|p| p.mass).sum();
    assert!(
        ((m1 - m0) / m0).abs() < 1e-9,
        "total mass must be conserved: {m0} -> {m1}"
    );
    assert!(sim.particles.iter().all(|p| p.pos.is_finite()));
    assert!(sim.particles.iter().all(|p| p.vel.is_finite()));
}

#[test]
fn disk_remains_bound_and_rotating() {
    let particles = realize_mini(600, 400, 400, 3);
    let cfg = SimConfig {
        scheme: Scheme::Surrogate,
        dt_global: 0.2,
        eps: 25.0,
        n_ngb: 16,
        cooling: false,
        star_formation: false,
        ..Default::default()
    };
    let mut sim = Simulation::new(cfg, particles, 4);
    let lz_before: f64 = sim
        .particles
        .iter()
        .map(|p| p.mass * (p.pos.x * p.vel.y - p.pos.y * p.vel.x))
        .sum();
    sim.run(5);
    let lz_after: f64 = sim
        .particles
        .iter()
        .map(|p| p.mass * (p.pos.x * p.vel.y - p.pos.y * p.vel.x))
        .sum();
    // Angular momentum is conserved by gravity + axisymmetric-ish hydro.
    assert!(
        ((lz_after - lz_before) / lz_before).abs() < 0.05,
        "Lz drift: {lz_before:.3e} -> {lz_after:.3e}"
    );
    // The system stays bound: no particle escapes to absurd radii.
    let r_max = sim
        .particles
        .iter()
        .map(|p| p.pos.norm())
        .fold(0.0f64, f64::max);
    assert!(r_max < 1.0e5, "particle escaped to {r_max} pc");
}

#[test]
fn surrogate_and_conventional_agree_when_no_sne_fire() {
    // Without any massive stars the two schemes integrate identical
    // physics with the same fixed dt (the CFL never binds for warm gas at
    // this resolution), so particle positions must match closely.
    let particles = realize_mini(200, 0, 300, 5);
    let mk = |scheme| SimConfig {
        scheme,
        dt_global: 0.05,
        eps: 25.0,
        n_ngb: 16,
        cooling: false,
        star_formation: false,
        ..Default::default()
    };
    let mut a = Simulation::new(mk(Scheme::Surrogate), particles.clone(), 6);
    let mut b = Simulation::new(mk(Scheme::Conventional), particles, 6);
    a.run(3);
    b.run(3);
    assert_eq!(a.stats.sn_events, 0);
    assert_eq!(b.stats.sn_events, 0);
    assert_eq!(a.particles.len(), b.particles.len());
    let mut worst = 0.0f64;
    for (pa, pb) in a.particles.iter().zip(&b.particles) {
        worst = worst.max((pa.pos - pb.pos).norm());
    }
    assert!(
        worst < 1e-6,
        "schemes diverged without SNe: max |dx| = {worst}"
    );
}

#[test]
fn energy_is_bounded_in_adiabatic_run() {
    let particles = realize_mini(500, 300, 300, 7);
    let cfg = SimConfig {
        scheme: Scheme::Surrogate,
        dt_global: 0.1,
        eps: 25.0,
        n_ngb: 16,
        cooling: false,
        star_formation: false,
        ..Default::default()
    };
    let mut sim = Simulation::new(cfg, particles, 8);
    let e0 = sim.total_energy();
    sim.run(6);
    let e1 = sim.total_energy();
    assert!(
        ((e1 - e0) / e0.abs()) < 0.10,
        "energy drift too large: {e0:.4e} -> {e1:.4e}"
    );
}
