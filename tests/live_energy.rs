//! The energy column of the live diagnostics against the exact audit.
//!
//! `TimeSample::measure` reads `Simulation::live_energy` — the tree
//! potential the step's closing force evaluation left in the scratch arena
//! — where it used to direct-sum all N² pairs per sample. These tests pin
//! how far that reading may sit from `Simulation::total_energy` in each
//! regime the scenarios cover, and that it *is* the exact audit whenever
//! there is no evaluation to reuse.

#![expect(
    clippy::disallowed_methods,
    reason = "measures the live estimate against the exact audit"
)]

use asura::scenarios;
use asura_core::diagnostics::TimeSample;
use asura_core::snapshot::SimSnapshot;
use asura_core::{Simulation, TimestepMode};

const SEED: u64 = 42;

fn scenario_sim(name: &str) -> (Simulation, f64) {
    let scenario = scenarios::find(name).expect("registered");
    let (cfg, particles) = scenario.build(SEED);
    (Simulation::new(cfg, particles, SEED), scenario.map_half)
}

/// Largest `|live - exact| / |exact|` over the samples taken after each of
/// `steps` steps.
fn max_rel_diff(sim: &mut Simulation, map_half: f64, steps: usize) -> f64 {
    let mut worst = 0.0f64;
    let mut t_prev = sim.time;
    for _ in 0..steps {
        sim.step();
        let live = TimeSample::measure(sim, t_prev, map_half).total_energy;
        t_prev = sim.time;
        let exact = sim.total_energy();
        worst = worst.max(((live - exact) / exact).abs());
    }
    worst
}

#[test]
fn live_energy_tracks_the_exact_audit_through_star_formation_and_regions() {
    // Warm self-gravitating galaxy at theta = 0.5: the monopole error of
    // the tree potential is all there is, until a step spawns a star (its
    // mass is still inside the parent's entry of the snapshot) or applies
    // a region (replaced particles lag one sample).
    // Measured maximum over the 24 steps: 4.0e-7 (the exact audit itself
    // drifts 6e-5 over them; 12 stars form and one region lands). Since
    // `dwarf_galaxy` runs the mixed-precision kernel, the live side reads
    // the f32-accumulated tree potential: 3.9971e-7, against 3.9968e-7
    // on the f64 kernel — the tree's monopole error, not f32, sets it.
    let (mut sim, map_half) = scenario_sim("dwarf_galaxy");
    let worst = max_rel_diff(&mut sim, map_half, 24);
    assert!(sim.stats.stars_formed > 0, "a step must form a star");
    assert!(sim.stats.regions_applied > 0, "a step must apply a region");
    assert!(worst <= 1e-5, "live vs exact energy: {worst:e}");
}

#[test]
fn live_energy_offset_on_the_cold_lattice_stays_small() {
    // The loosest regime of the registry: a cold, nearly uniform lattice.
    // Measured: a near-constant offset, 1.098e-4 to 1.102e-4, until the
    // region lands (steps 1-5) — the drift *series* is shifted, not noisy
    // — and < 1e-8 afterwards, when the SN's thermal energy dwarfs W.
    let (mut sim, map_half) = scenario_sim("supernova_remnant");
    let worst = max_rel_diff(&mut sim, map_half, 12);
    assert_eq!(sim.stats.regions_applied, 1, "the region must land");
    assert!(worst <= 1e-3, "live vs exact energy: {worst:e}");
}

#[test]
fn every_potential_is_fresh_at_the_end_of_a_block_base_step() {
    // Substep evaluations overwrite the active entries of `pot` only; the
    // live reading is right because the last boundary of a base step
    // activates every level. A stale entry would sit at the potential of
    // a position up to a whole base step old. Measured maximum: 8.3e-10.
    let (mut sim, map_half) = scenario_sim("spiked_dt");
    assert!(matches!(sim.config.timestep, TimestepMode::Block { .. }));
    let worst = max_rel_diff(&mut sim, map_half, 6);
    assert!(
        sim.stats.substeps > sim.stats.steps,
        "the hierarchy must engage"
    );
    assert!(worst <= 1e-8, "live vs exact energy: {worst:e}");
}

#[test]
fn without_a_force_evaluation_the_sample_carries_the_exact_audit() {
    let (mut sim, map_half) = scenario_sim("spiked_dt");
    let sampled = |sim: &Simulation| TimeSample::measure(sim, sim.time, map_half).total_energy;
    assert_eq!(sampled(&sim).to_bits(), sim.total_energy().to_bits());

    sim.run(2);
    let snap = SimSnapshot::from_bytes(&sim.snapshot().to_bytes()).expect("binary roundtrip");
    let restored = Simulation::restore(&snap);
    assert_eq!(
        sampled(&restored).to_bits(),
        restored.total_energy().to_bits()
    );
    // ... which is not what the stepped original reads any more.
    assert_ne!(sampled(&sim).to_bits(), sim.total_energy().to_bits());
}
