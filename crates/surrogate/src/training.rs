//! Training-data generation.
//!
//! The authors train on SN explosion simulations at 1 M_sun resolution with
//! turbulent (`v^-4`) initial conditions (paper §3.3). Our substitute keeps
//! the same structure: the *input* is a turbulent ambient cube just before
//! the explosion; the *target* is the same cube 0.1 Myr later with the
//! Sedov–Taylor blast (the analytic limit of the simulated shell) stamped
//! onto it.

use crate::encode::encode_fields;
use crate::voxel::{VoxelFields, VoxelGrid};
use astro::sedov::SedovTaylor;
use astro::turbulence::TurbulentField;
use fdps::Vec3;
use rand::Rng;
use unet::TrainSample;

/// Parameters of a synthetic SN training sample.
#[derive(Debug, Clone, Copy)]
pub struct TrainingSetup {
    /// Voxels per edge.
    pub grid_n: usize,
    /// Cube side \[pc\] (60 in the paper).
    pub side: f64,
    /// Ambient density range \[M_sun/pc^3\] sampled log-uniformly.
    pub rho0_range: (f64, f64),
    /// Ambient temperature \[K\].
    pub t_ambient: f64,
    /// Turbulent rms velocity \[pc/Myr\].
    pub v_rms: f64,
    /// Explosion energy [code units].
    pub e_sn: f64,
    /// Prediction horizon \[Myr\] (0.1 in the paper).
    pub horizon: f64,
}

impl Default for TrainingSetup {
    fn default() -> Self {
        TrainingSetup {
            grid_n: 16,
            side: 60.0,
            rho0_range: (0.1, 3.0),
            t_ambient: 100.0,
            v_rms: 5.0,
            e_sn: astro::units::E_SN,
            horizon: 0.1,
        }
    }
}

/// One synthetic explosion: (pre-explosion fields, post-0.1 Myr fields).
pub fn make_fields_pair<R: Rng + ?Sized>(
    rng: &mut R,
    setup: &TrainingSetup,
) -> (VoxelFields, VoxelFields) {
    let grid = VoxelGrid::centered(Vec3::ZERO, setup.side, setup.grid_n);
    let (lo, hi) = setup.rho0_range;
    let rho0 = lo * (hi / lo).powf(rng.gen::<f64>());
    let turb = TurbulentField::new(rng, setup.side, 4, 4.0, setup.v_rms);

    let mut input = VoxelFields::zeros(grid);
    let n = grid.n;
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let idx = grid.flat(i, j, k);
                let c = grid.voxel_center(i, j, k);
                let v = turb.velocity([c.x, c.y, c.z]);
                // Mild density structure correlated with the local speed
                // (compressive turbulence proxy).
                let speed2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
                let contrast = (0.5 * speed2 / (setup.v_rms * setup.v_rms).max(1e-12)).min(2.0);
                input.density[idx] = rho0 * (1.0 + contrast);
                input.temperature[idx] = setup.t_ambient;
                #[allow(clippy::needless_range_loop)]
                for a in 0..3 {
                    input.vel[a][idx] = v[a];
                }
            }
        }
    }

    // Target: Sedov blast centred in the cube superposed on the ambient.
    let blast = SedovTaylor::new(setup.e_sn, rho0);
    let t = setup.horizon;
    let rs = blast.shock_radius(t);
    let mut target = input.clone();
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let idx = grid.flat(i, j, k);
                let c = grid.voxel_center(i, j, k);
                let r = c.norm();
                if r < rs {
                    let rho = blast.density(r, t).max(1e-6);
                    let vr = blast.velocity(r, t);
                    let temp = blast.temperature(r, t, 0.6).clamp(10.0, 1e9);
                    target.density[idx] = rho;
                    target.temperature[idx] = temp;
                    let dir = if r > 1e-9 { c / r } else { Vec3::ZERO };
                    target.vel[0][idx] = vr * dir.x;
                    target.vel[1][idx] = vr * dir.y;
                    target.vel[2][idx] = vr * dir.z;
                }
            }
        }
    }
    (input, target)
}

/// Encode a fields pair into a U-Net training sample.
pub fn to_train_sample(input: &VoxelFields, target: &VoxelFields) -> TrainSample {
    TrainSample {
        input: encode_fields(input),
        target: encode_fields(target),
    }
}

/// Generate a dataset of `count` samples.
pub fn make_dataset<R: Rng + ?Sized>(
    rng: &mut R,
    setup: &TrainingSetup,
    count: usize,
) -> Vec<TrainSample> {
    (0..count)
        .map(|_| {
            let (i, t) = make_fields_pair(rng, setup);
            to_train_sample(&i, &t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pair_has_hot_center_and_cold_ambient() {
        let mut rng = StdRng::seed_from_u64(1);
        let setup = TrainingSetup::default();
        let (input, target) = make_fields_pair(&mut rng, &setup);
        let n = setup.grid_n;
        let center = input.grid.flat(n / 2, n / 2, n / 2);
        let corner = input.grid.flat(0, 0, 0);
        assert!((input.temperature[center] - 100.0).abs() < 1e-9);
        assert!(
            target.temperature[center] > 1e4,
            "post-SN centre T = {}",
            target.temperature[center]
        );
        // Ambient corner untouched (shock hasn't reached 52 pc).
        assert_eq!(target.temperature[corner], input.temperature[corner]);
        assert_eq!(target.density[corner], input.density[corner]);
    }

    #[test]
    fn target_velocity_points_outward_in_the_shell() {
        let mut rng = StdRng::seed_from_u64(2);
        let setup = TrainingSetup::default();
        let (_, target) = make_fields_pair(&mut rng, &setup);
        let grid = target.grid;
        let n = setup.grid_n;
        let mut outward = 0;
        let mut total = 0;
        let blast_r = 12.0; // typical shock radius at 0.1 Myr
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let c = grid.voxel_center(i, j, k);
                    let r = c.norm();
                    if r > 2.0 && r < blast_r {
                        let idx = grid.flat(i, j, k);
                        let v =
                            Vec3::new(target.vel[0][idx], target.vel[1][idx], target.vel[2][idx]);
                        total += 1;
                        if v.dot(c) > 0.0 {
                            outward += 1;
                        }
                    }
                }
            }
        }
        assert!(total > 20);
        assert!(
            outward as f64 > 0.85 * total as f64,
            "{outward}/{total} voxels point outward"
        );
    }

    #[test]
    fn dataset_samples_are_distinct_and_well_formed() {
        let mut rng = StdRng::seed_from_u64(3);
        let setup = TrainingSetup {
            grid_n: 8,
            ..Default::default()
        };
        let data = make_dataset(&mut rng, &setup, 3);
        assert_eq!(data.len(), 3);
        for s in &data {
            assert_eq!(s.input.shape(), (8, 8, 8, 8));
            assert_eq!(s.target.shape(), (8, 8, 8, 8));
            assert!(s.input.data.iter().all(|v| v.is_finite()));
            assert!(s.target.data.iter().all(|v| v.is_finite()));
        }
        assert_ne!(data[0].input.data, data[1].input.data);
    }

    #[test]
    fn denser_ambient_means_smaller_shock() {
        let setup_thin = TrainingSetup {
            rho0_range: (0.05, 0.051),
            ..Default::default()
        };
        let setup_dense = TrainingSetup {
            rho0_range: (5.0, 5.01),
            ..Default::default()
        };
        let count_hot = |setup: &TrainingSetup, seed: u64| -> usize {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, t) = make_fields_pair(&mut rng, setup);
            t.temperature.iter().filter(|&&x| x > 1e4).count()
        };
        assert!(count_hot(&setup_thin, 4) > count_hot(&setup_dense, 4));
    }
}
