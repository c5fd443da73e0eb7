//! Integration tests of the full surrogate pipeline: training-data
//! generation, U-Net training, and the particle → voxel → net → particle
//! round trip, plus scheme-level ablation.

use asura_core::{Particle, Scheme, SimConfig, Simulation};
use fdps::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surrogate::training::{make_dataset, TrainingSetup};
use surrogate::{GasParticle, SurrogateConfig, SurrogateModel};

#[test]
fn training_improves_prediction_of_held_out_sample() {
    let mut rng = StdRng::seed_from_u64(1);
    let setup = TrainingSetup {
        grid_n: 8,
        ..Default::default()
    };
    let train = make_dataset(&mut rng, &setup, 3);
    let held_out = make_dataset(&mut rng, &setup, 1);

    let mut model = SurrogateModel::new(SurrogateConfig {
        grid_n: 8,
        side: 60.0,
        base_features: 2,
        seed: 2,
    });
    let before = unet::mse_loss(&model.infer(&held_out[0].input), &held_out[0].target).0;
    model.train(&train, 30, 1e-2);
    let after = unet::mse_loss(&model.infer(&held_out[0].input), &held_out[0].target).0;
    assert!(
        after < before,
        "held-out loss should improve: {before} -> {after}"
    );
}

#[test]
fn pipeline_preserves_mass_count_and_ids_for_any_region() {
    let mut rng = StdRng::seed_from_u64(3);
    let model = SurrogateModel::new(SurrogateConfig {
        grid_n: 8,
        side: 60.0,
        base_features: 2,
        seed: 4,
    });
    for n in [1usize, 10, 333] {
        let region: Vec<GasParticle> = (0..n)
            .map(|i| GasParticle {
                pos: Vec3::new(
                    rng.gen_range(-29.0..29.0),
                    rng.gen_range(-29.0..29.0),
                    rng.gen_range(-29.0..29.0),
                ),
                vel: Vec3::new(rng.gen_range(-3.0..3.0), 0.0, 0.0),
                mass: rng.gen_range(0.5..2.0),
                temp: rng.gen_range(50.0..200.0),
                h: 3.0,
                id: 1000 + i as u64,
            })
            .collect();
        let out = model.predict_particles(&mut rng, Vec3::ZERO, &region);
        assert_eq!(out.len(), n);
        let m_in: f64 = region.iter().map(|p| p.mass).sum();
        let m_out: f64 = out.iter().map(|p| p.mass).sum();
        assert!((m_out / m_in - 1.0).abs() < 1e-9, "n={n}");
        assert!(out.iter().zip(&region).all(|(a, b)| a.id == b.id));
    }
}

#[test]
fn surrogate_scheme_keeps_fixed_dt_while_conventional_shrinks() {
    // The paper's headline ablation, end to end on the same IC.
    let mut rng = StdRng::seed_from_u64(5);
    let dt = 2.0e-3;
    let mut particles: Vec<Particle> = (0..800)
        .map(|i| {
            Particle::gas(
                i as u64,
                Vec3::new(
                    rng.gen_range(-4.0..4.0),
                    rng.gen_range(-4.0..4.0),
                    rng.gen_range(-4.0..4.0),
                ),
                Vec3::ZERO,
                1.0,
                0.05,
                0.8,
            )
        })
        .collect();
    let life = astro::lifetime::stellar_lifetime_myr(12.0);
    particles.push(Particle::star(
        900,
        Vec3::ZERO,
        Vec3::ZERO,
        12.0,
        dt * 1.5 - life,
    ));

    let mk = |scheme| SimConfig {
        scheme,
        dt_global: dt,
        pool_latency_steps: 3,
        cooling: false,
        star_formation: false,
        eps: 0.5,
        n_ngb: 16,
        dt_min: 1e-6,
        ..Default::default()
    };
    let mut surrogate = Simulation::new(mk(Scheme::Surrogate), particles.clone(), 6);
    let mut conventional = Simulation::new(mk(Scheme::Conventional), particles, 6);
    surrogate.run(6);
    conventional.run(6);

    assert_eq!(surrogate.stats.sn_events, 1);
    assert_eq!(conventional.stats.sn_events, 1);
    assert_eq!(
        surrogate.stats.dt_min_seen, dt,
        "surrogate scheme must never shrink the global step"
    );
    assert!(
        conventional.stats.dt_min_seen < dt / 2.0,
        "conventional CFL must shrink: {}",
        conventional.stats.dt_min_seen
    );
    // Same physical time needs more steps conventionally.
    assert!(conventional.time < surrogate.time);
}

#[test]
fn model_serialization_preserves_predictions() {
    let model = SurrogateModel::new(SurrogateConfig {
        grid_n: 8,
        side: 60.0,
        base_features: 2,
        seed: 9,
    });
    let json = model.to_json();
    let restored = SurrogateModel::from_json(&json).expect("roundtrip");
    assert_eq!(restored.config.grid_n, 8);
    assert_eq!(restored.config.seed, 9);
    let x = unet::Tensor::zeros(8, 8, 8, 8);
    assert_eq!(model.infer(&x).data, restored.infer(&x).data);
}

/// The whole region pipeline — voxelise → encode → U-Net → decode →
/// Gibbs → mass rescale — pinned to the bit for one fixed region, model
/// seed and RNG seed. The hash was recorded before the scatter and the
/// codec were made faster (PR 21), so any change to what a stage computes,
/// as opposed to how fast, fails here without the benchmark's checksums.
#[test]
fn region_pipeline_output_bits_are_pinned() {
    let mut rng = StdRng::seed_from_u64(21);
    let center = Vec3::new(1000.0, -500.0, 30.0);
    let model = SurrogateModel::new(SurrogateConfig {
        grid_n: 16,
        side: 60.0,
        base_features: 2,
        seed: 11,
    });
    // `h` from well below a voxel (NGP) to several voxels, some particles
    // outside the cube, uneven masses.
    let region: Vec<GasParticle> = (0..400)
        .map(|i| GasParticle {
            pos: center
                + Vec3::new(
                    rng.gen_range(-32.0..32.0),
                    rng.gen_range(-32.0..32.0),
                    rng.gen_range(-32.0..32.0),
                ),
            vel: Vec3::new(
                rng.gen_range(-30.0..30.0),
                rng.gen_range(-30.0..30.0),
                rng.gen_range(-30.0..30.0),
            ),
            mass: rng.gen_range(0.5..2.0),
            temp: 10f64.powf(rng.gen_range(1.0..7.0)),
            h: 10f64.powf(rng.gen_range(-1.0..1.2)),
            id: 5000 + i as u64,
        })
        .collect();
    let out = model.predict_particles(&mut rng, center, &region);
    assert_eq!(out.len(), region.len());
    let mut bytes = Vec::with_capacity(out.len() * 80);
    for p in &out {
        for v in [
            p.pos.x, p.pos.y, p.pos.z, p.vel.x, p.vel.y, p.vel.z, p.mass, p.temp, p.h,
        ] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&p.id.to_le_bytes());
    }
    assert_eq!(
        json::fnv1a(&bytes),
        0x584c_17b2_27cf_2e35,
        "predict_particles changed its output bits"
    );
}
