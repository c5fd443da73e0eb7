//! Inputs the benches measure on.

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
