//! Inputs the benches measure on.

use asura_core::Particle;
use fdps::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` unit-mass points, centrally concentrated in a thin disc like the
/// galaxy (seeded, so every run and every bench sees the same cloud).
pub fn cloud(n: usize) -> (Vec<Vec3>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(1);
    let pos = (0..n)
        .map(|_| {
            let r: f64 = rng.gen::<f64>().powi(2) * 10.0;
            let th = rng.gen_range(0.0..std::f64::consts::TAU);
            let z = rng.gen_range(-0.5..0.5);
            Vec3::new(r * th.cos(), r * th.sin(), z)
        })
        .collect();
    (pos, vec![1.0; n])
}

/// The spiked-dt scenario: an `n_side`³ unit lattice of gas at rest with
/// one SN-hot centre particle, whose ~10^4 km/s signal speed collapses its
/// CFL step well below the base step.
pub fn spiked_blob(n_side: usize) -> Vec<Particle> {
    let half = n_side as f64 / 2.0;
    let mut particles = Vec::with_capacity(n_side * n_side * n_side);
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..n_side {
                let pos = Vec3::new(i as f64 - half, j as f64 - half, k as f64 - half);
                let id = particles.len() as u64;
                particles.push(Particle::gas(id, pos, Vec3::ZERO, 1.0, 1.0, 1.3));
            }
        }
    }
    let c = n_side / 2;
    particles[(c * n_side + c) * n_side + c].u = 1.0e8;
    particles
}
