//! The `asura train-surrogate` pipeline: generate `(input, target)`
//! voxel-field pairs from **real conventional driver runs** (not the
//! synthetic Sedov boxes of [`surrogate::training`]), train the U-Net on
//! them, and render the weights + training-manifest documents.
//!
//! The dataset recipe mirrors the paper's §3.3 train→deploy cycle at this
//! repo's scale: each sample realizes the `sn_shell_conventional` scenario
//! at its own seed (the `supernova_remnant` IC family — a jittered gas
//! lattice with one promptly exploding star — integrated conventionally
//! with the adaptive global CFL step), voxelizes the gas just before the
//! explosion as the *input*, runs the conventional driver until one
//! prediction horizon past the SN, and voxelizes the evolved gas as the
//! *target*. Deployment geometry equals training geometry — same IC
//! family, same `region_side` cube, same horizon — so a model trained here
//! is in-distribution when `--predictor unet:<weights.json>` serves the
//! `supernova_remnant` scenario.

use crate::scenarios;
use asura_core::{Particle, Simulation};
use fdps::Vec3;
use json::Json;
use sph::GammaLawEos;
use surrogate::training::to_train_sample;
use surrogate::{
    particles_to_grid, GasParticle, SurrogateConfig, SurrogateModel, VoxelFields, VoxelGrid,
};
use unet::TrainSample;

/// Document tag of the training manifest written next to the weights.
pub const MANIFEST_FORMAT: &str = "asura-train-manifest";

/// The scenario whose conventional runs generate the ground truth.
pub const TRAIN_SCENARIO: &str = "sn_shell_conventional";

/// Hard cap on conventional steps per sample: the post-SN CFL collapse is
/// the whole point of the surrogate, so the ground-truth run takes many
/// small steps — but a pathological IC must not hang training forever.
const STEP_CAP: usize = 20_000;

/// Training hyperparameters (the CLI's `train-surrogate` flags).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainSpec {
    /// Conventional driver runs to generate (one sample each).
    pub samples: usize,
    pub epochs: usize,
    /// Voxels per edge (64 in the paper; the default trades fidelity for
    /// minutes-scale training).
    pub grid_n: usize,
    /// U-Net width.
    pub base_features: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Seeds everything: sample `i` realizes its IC at `seed + i`, and the
    /// network initializes at `seed`. Same spec → bitwise-identical
    /// weights (the kernel-determinism contract extends through training).
    pub seed: u64,
}

impl Default for TrainSpec {
    fn default() -> Self {
        TrainSpec {
            samples: 4,
            epochs: 40,
            grid_n: 16,
            base_features: 4,
            lr: 1e-2,
            seed: 1,
        }
    }
}

/// The trained model plus its loss trajectory.
pub struct TrainOutcome {
    pub model: SurrogateModel,
    /// Per-epoch mean training losses.
    pub losses: Vec<f64>,
}

/// Voxelize a driver particle set's gas onto `grid` (the same
/// particle→field mapping the deployed pipeline applies to a dispatched
/// region, temperature through the gamma-law EOS).
fn voxelize_gas(particles: &[Particle], grid: VoxelGrid) -> VoxelFields {
    let eos = GammaLawEos::default();
    let gas: Vec<GasParticle> = particles
        .iter()
        .filter(|p| p.is_gas())
        .map(|p| GasParticle {
            pos: p.pos,
            vel: p.vel,
            mass: p.mass,
            temp: eos.temperature_from_u(p.u),
            h: p.h.max(1e-3),
            id: p.id,
        })
        .collect();
    particles_to_grid(grid, &gas)
}

/// One `(input, target)` pair from a real conventional run at `seed`:
/// input = the gas voxelized just before the SN, target = the gas one
/// prediction horizon after it.
pub fn driver_sample(seed: u64, grid_n: usize) -> TrainSample {
    let scenario = scenarios::find(TRAIN_SCENARIO).expect("training scenario is registered");
    let (cfg, particles) = scenario.build(seed);
    let grid = VoxelGrid::centered(Vec3::ZERO, cfg.region_side, grid_n);
    let horizon = cfg.horizon();
    let mut sim = Simulation::new(cfg, particles, seed);
    let input = voxelize_gas(&sim.particles, grid);
    let mut t_sn = None;
    for _ in 0..STEP_CAP {
        let t_before = sim.time;
        sim.step();
        if t_sn.is_none() && sim.stats.sn_events > 0 {
            // The SN went off somewhere in (t_before, t_before + dt].
            t_sn = Some(t_before);
        }
        if t_sn.is_some_and(|t0| sim.time >= t0 + horizon) {
            break;
        }
    }
    assert!(
        t_sn.is_some(),
        "training scenario must explode within {STEP_CAP} steps"
    );
    let target = voxelize_gas(&sim.particles, grid);
    to_train_sample(&input, &target)
}

/// Generate the driver-run dataset for `spec` (sample `i` at seed
/// `spec.seed + i`).
pub fn driver_dataset(spec: &TrainSpec) -> Vec<TrainSample> {
    (0..spec.samples)
        .map(|i| driver_sample(spec.seed + i as u64, spec.grid_n))
        .collect()
}

/// The full tentpole pipeline: dataset from conventional runs, then Adam
/// training from a `spec.seed`-initialized network. Deterministic in the
/// spec — two identical calls produce bitwise-identical weights.
pub fn train(spec: &TrainSpec) -> TrainOutcome {
    let dataset = driver_dataset(spec);
    let scenario_side = scenarios::find(TRAIN_SCENARIO)
        .expect("training scenario is registered")
        .config()
        .region_side;
    let mut model = SurrogateModel::new(SurrogateConfig {
        grid_n: spec.grid_n,
        side: scenario_side,
        base_features: spec.base_features,
        seed: spec.seed,
    });
    let losses = model.train(&dataset, spec.epochs, spec.lr);
    TrainOutcome { model, losses }
}

/// Render the training manifest: the spec, the dataset recipe, and the
/// loss trajectory, as a [`json::Json`] document.
pub fn manifest_json(spec: &TrainSpec, losses: &[f64]) -> String {
    let losses_arr = losses.iter().map(|&l| Json::Num(l)).collect();
    Json::obj([
        ("format", MANIFEST_FORMAT.into()),
        ("scenario", TRAIN_SCENARIO.into()),
        ("dataset_seed", spec.seed.into()),
        ("samples", spec.samples.into()),
        ("epochs", spec.epochs.into()),
        ("lr", spec.lr.into()),
        ("grid_n", spec.grid_n.into()),
        ("base_features", spec.base_features.into()),
        ("final_loss", losses.last().copied().into()),
        ("losses", Json::Arr(losses_arr)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> TrainSpec {
        TrainSpec {
            samples: 1,
            epochs: 3,
            grid_n: 8,
            base_features: 2,
            lr: 1e-2,
            seed: 11,
        }
    }

    #[test]
    fn driver_sample_captures_the_explosion() {
        let s = driver_sample(5, 8);
        assert_eq!(s.input.shape(), (8, 8, 8, 8));
        assert_eq!(s.target.shape(), (8, 8, 8, 8));
        assert!(s.input.data.iter().all(|v| v.is_finite()));
        assert!(s.target.data.iter().all(|v| v.is_finite()));
        // The SN must leave a mark: the evolved cube differs from the IC.
        assert_ne!(s.input.data, s.target.data);
    }

    #[test]
    fn training_reduces_loss_and_is_deterministic() {
        let spec = tiny_spec();
        let a = train(&spec);
        assert_eq!(a.losses.len(), spec.epochs);
        assert!(
            a.losses.last().unwrap() < a.losses.first().unwrap(),
            "loss should fall: {:?}",
            a.losses
        );
        let b = train(&spec);
        assert_eq!(
            a.model.to_json(),
            b.model.to_json(),
            "same spec must give bitwise-identical weights"
        );
        assert_eq!(a.losses, b.losses);
    }

    #[test]
    fn manifest_records_the_recipe() {
        let spec = tiny_spec();
        let m = manifest_json(&spec, &[0.5, 0.25]);
        let v = json::parse_json(&m).expect("manifest parses");
        assert_eq!(v.get("format").unwrap(), &Json::Str(MANIFEST_FORMAT.into()));
        assert_eq!(v.get("samples").unwrap(), &Json::Num(1.0));
        assert_eq!(v.get("final_loss").unwrap(), &Json::Num(0.25));
    }
}
