//! A run's bits do not depend on how its parallel regions are cut.
//!
//! Every parallel kernel writes disjoint targets, each a function of its
//! own inputs, so a shared-memory run stepped inside `rayon::solo` — every
//! region inline, as one chunk on the calling thread — must write the
//! pooled run's checkpoint to the byte. The distributed driver relies on
//! this: its ranks run that way when they outnumber the cores. Between
//! them the runs below cover gravity group chunks and SPH leaf groups cut
//! by a chunk boundary (every run), the block-timestep active-set passes
//! (`spiked_dt`), cooling and star formation (`dwarf_galaxy`), and the
//! voxel z-planes and convolution row blocks of a U-Net region
//! (`supernova_remnant`).

use asura::scenarios;
use asura_core::pool::UNetPredictor;
use asura_core::{Simulation, TimestepMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use surrogate::training::{make_dataset, TrainingSetup};
use surrogate::{SurrogateConfig, SurrogateModel};

const SEED: u64 = 7;

/// Build and step a run on the shared pool and again inside `solo`; assert
/// equal checkpoints and return the pooled run.
fn solo_matches_pooled(what: &str, steps: usize, build: impl Fn() -> Simulation) -> Simulation {
    let run = || {
        let mut sim = build();
        sim.run(steps);
        sim
    };
    let pooled = run();
    let solo = rayon::solo(run);
    assert!(
        pooled.snapshot().to_bytes() == solo.snapshot().to_bytes(),
        "{what}: the solo run's checkpoint differs from the pooled run's"
    );
    pooled
}

fn scenario_sim(name: &str, timestep: Option<TimestepMode>) -> Simulation {
    let (mut cfg, particles) = scenarios::find(name).expect("registered").build(SEED);
    if let Some(timestep) = timestep {
        cfg.timestep = timestep;
    }
    Simulation::new(cfg, particles, SEED)
}

#[test]
fn dwarf_galaxy_global_is_partition_independent() {
    let sim = solo_matches_pooled("dwarf_galaxy", 6, || scenario_sim("dwarf_galaxy", None));
    assert_eq!(sim.config.timestep, TimestepMode::Global);
    assert!(sim.stats.stars_formed > 0, "a step must form a star");
}

#[test]
fn spiked_dt_block_is_partition_independent() {
    let block = TimestepMode::Block { max_level: 6 };
    let sim = solo_matches_pooled("spiked_dt block:6", 2, || {
        scenario_sim("spiked_dt", Some(block))
    });
    assert!(
        sim.stats.substeps > sim.stats.steps,
        "the hierarchy must engage"
    );
}

#[test]
fn a_trained_unet_region_is_partition_independent() {
    // A tiny U-Net trained here, as `surrogate_pipeline` trains one, so the
    // applied region went through nontrivial weights.
    let setup = TrainingSetup {
        grid_n: 8,
        ..Default::default()
    };
    let train = make_dataset(&mut StdRng::seed_from_u64(1), &setup, 2);
    let mut model = SurrogateModel::new(SurrogateConfig {
        grid_n: 8,
        side: 60.0,
        base_features: 2,
        seed: 2,
    });
    model.train(&train, 5, 1e-2);
    let weights = model.to_json();
    let sim = solo_matches_pooled("supernova_remnant + U-Net", 8, || {
        let (cfg, particles) = scenarios::find("supernova_remnant")
            .expect("registered")
            .build(SEED);
        let predictor = UNetPredictor::from_weights(SEED, &weights, cfg.region_side);
        let predictor = Box::new(predictor.expect("weights decode"));
        Simulation::with_predictor(cfg, particles, SEED, predictor)
    });
    assert_eq!(sim.stats.regions_applied, 1, "the region must land");
}
