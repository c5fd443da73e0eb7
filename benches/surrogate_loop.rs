//! The closed surrogate-loop benchmark (`cargo bench --bench surrogate_loop`).
//!
//! Runs the paper's headline comparison end to end, in process: train a
//! U-Net on conventional SN-shell runs (the `asura train-surrogate`
//! pipeline), deploy it on the `supernova_remnant` scenario, and integrate
//! the **same physical interval** with the conventional twin
//! (`sn_shell_conventional`), whose global CFL step collapses after the
//! explosion. Two machine-independent metrics gate:
//!
//! - `surrogate_speedup` — conventional wall / surrogate wall for the same
//!   interval, measured within one invocation on one machine so runner
//!   speed cancels. The surrogate side takes a fixed `dt_global` step
//!   count while the conventional side grinds through the post-SN CFL
//!   collapse, so the ratio must stay above 1; a surrogate path that
//!   stops skipping the collapse (or a conventional path that stops
//!   resolving it) drags the ratio toward 1.
//! - `energy_err_ratio` — surrogate relative energy-budget error over the
//!   conventional one. Both runs are bitwise deterministic (fixed seeds,
//!   the kernel-determinism contract), so this ratio is exactly
//!   reproducible; it bounds how much physics fidelity the speedup costs.
//!
//! Absolute wall times (train/surrogate/conventional) are reported for
//! the trajectory but never gate. Writes `BENCH_surrogate.json` at the
//! repo root.

#![expect(
    clippy::disallowed_methods,
    reason = "a bench times its runs and audits energy exactly"
)]

use astro::units::E_SN;
use asura::scenarios;
use asura::surrogate_train::{self, TrainSpec};
use asura_core::pool::UNetPredictor;
use asura_core::sim::total_energy_of;
use asura_core::{Particle, Simulation};
use bench::{BenchDoc, Better};
use std::time::Instant;

/// Scenario seed for both deployment runs (not the training seeds).
const SEED: u64 = 42;

/// Surrogate-side step count; must exceed `pool_latency_steps` (5) so the
/// prediction lands and the Gibbs resample actually applies.
const STEPS: usize = 8;

/// Post-SN CFL collapse can take many small steps, but not unboundedly so.
const CONV_STEP_CAP: usize = 200_000;

/// Relative error of the run's energy budget: a single SN injected E_SN,
/// so a perfect integrator ends at `E_start + E_SN` exactly.
fn budget_err(e_start: f64, e_end: f64) -> f64 {
    ((e_end - e_start - E_SN) / (e_start.abs() + E_SN)).abs()
}

fn build(scenario: &str) -> (asura_core::SimConfig, Vec<Particle>) {
    scenarios::find(scenario)
        .unwrap_or_else(|| panic!("scenario {scenario} is registered"))
        .build(SEED)
}

fn main() {
    // Train the deployed model exactly as `asura train-surrogate` would
    // (deterministic in the spec, so the trajectory is stable PR to PR).
    let spec = TrainSpec {
        samples: 2,
        epochs: 120,
        grid_n: 16,
        base_features: 4,
        lr: 1e-2,
        seed: 7,
    };
    let t0 = Instant::now();
    let outcome = surrogate_train::train(&spec);
    let train_wall = t0.elapsed().as_secs_f64();
    let weights = outcome.model.to_json();

    // Surrogate side: fixed dt_global, the SN shipped to the trained net.
    let (cfg, particles) = build("supernova_remnant");
    let eps = cfg.eps;
    let predictor =
        UNetPredictor::from_weights(spec.seed, &weights, cfg.region_side).expect("trained weights");
    let e_start = total_energy_of(&particles, eps);
    let t0 = Instant::now();
    let mut sim = Simulation::with_predictor(cfg, particles, SEED, Box::new(predictor));
    for _ in 0..STEPS {
        sim.step();
    }
    let surrogate_wall = t0.elapsed().as_secs_f64();
    assert!(sim.stats.sn_events > 0, "the SN must go off");
    assert!(
        sim.stats.regions_applied > 0,
        "the trained prediction must come back and be applied within {STEPS} steps"
    );
    let t_end = sim.time;
    let err_surr = budget_err(e_start, total_energy_of(&sim.particles, eps));

    // Conventional side: same IC and interval, direct shell integration
    // under the adaptive global CFL step.
    let (cfg, particles) = build(surrogate_train::TRAIN_SCENARIO);
    let e_start = total_energy_of(&particles, eps);
    let t0 = Instant::now();
    let mut sim = Simulation::new(cfg, particles, SEED);
    let mut conventional_steps = 0usize;
    while sim.time < t_end && conventional_steps < CONV_STEP_CAP {
        sim.step();
        conventional_steps += 1;
    }
    let conventional_wall = t0.elapsed().as_secs_f64();
    assert!(
        sim.time >= t_end,
        "conventional twin stalled before t = {t_end} ({conventional_steps} steps)"
    );
    let err_conv = budget_err(e_start, total_energy_of(&sim.particles, eps));

    let surrogate_speedup = conventional_wall / surrogate_wall;
    // Floor keeps a (near-)perfect conventional budget from exploding the
    // ratio; both errors are deterministic so the ratio is too.
    let energy_err_ratio = err_surr / err_conv.max(1e-12);

    println!(
        "surrogate_loop: t_end {t_end:.4} Myr  surrogate {STEPS} steps {surrogate_wall:.3} s  \
         conventional {conventional_steps} steps {conventional_wall:.3} s  \
         speedup x{surrogate_speedup:.2}"
    );
    println!(
        "surrogate_loop: energy budget err  surrogate {err_surr:.3e}  conventional {err_conv:.3e}  \
         ratio {energy_err_ratio:.3}  (train {train_wall:.2} s, final loss {:.4})",
        outcome.losses.last().copied().unwrap_or(f64::NAN),
    );
    assert!(
        surrogate_speedup > 1.0,
        "surrogate must beat the conventional twin on wall clock"
    );

    BenchDoc::new()
        .info("scenario", "supernova_remnant")
        .info("surrogate_steps", STEPS)
        .info("t_end_myr", t_end)
        .info("conventional_steps", conventional_steps)
        .info("train_wall_s", train_wall)
        .info("surrogate_wall_s", surrogate_wall)
        .info("conventional_wall_s", conventional_wall)
        .info("surrogate_energy_err", err_surr)
        .info("conventional_energy_err", err_conv)
        .gated("surrogate_speedup", surrogate_speedup, Better::Higher)
        .gated("energy_err_ratio", energy_err_ratio, Better::Lower)
        .write("BENCH_surrogate.json");
}
