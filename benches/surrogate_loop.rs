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
//! the trajectory but never gate. After the timed runs, [`validate`]
//! compares the surrogate's region prediction with the Sedov overlay it
//! imitates (paper §3.3) and reports the temperature-PDF distances and
//! hot-gas fractions, ungated. Writes `BENCH_surrogate.json` at the repo
//! root.

#![expect(
    clippy::disallowed_methods,
    reason = "a bench times its runs and audits energy exactly"
)]

use astro::turbulence::TurbulentField;
use astro::units::E_SN;
use asura::scenarios;
use asura::surrogate_train::{self, TrainSpec};
use asura_core::diagnostics::{histogram_distance, log_histogram};
use asura_core::pool::{PoolPredictor, SedovOverlayPredictor, UNetPredictor};
use asura_core::sim::total_energy_of;
use asura_core::{Particle, Simulation};
use bench::{BenchDoc, Better};
use fdps::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use surrogate::training::{make_dataset, TrainingSetup};
use surrogate::{GasParticle, SurrogateConfig, SurrogateModel};

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

/// `n` gas particles at 100 K in a (60 pc)³ box, moving with a
/// turbulent velocity field.
fn turbulent_region(n: usize, seed: u64) -> Vec<GasParticle> {
    let mut rng = StdRng::seed_from_u64(seed);
    let turb = TurbulentField::new(&mut rng, 60.0, 3, 4.0, 5.0);
    (0..n)
        .map(|i| {
            let pos = Vec3::new(
                rng.gen_range(-30.0..30.0),
                rng.gen_range(-30.0..30.0),
                rng.gen_range(-30.0..30.0),
            );
            let v = turb.velocity([pos.x, pos.y, pos.z]);
            GasParticle {
                pos,
                vel: Vec3::new(v[0], v[1], v[2]),
                mass: 1.0,
                temp: 100.0,
                h: 3.0,
                id: i as u64,
            }
        })
        .collect()
}

/// One SN in a turbulent region, predicted 0.1 Myr ahead by the analytic
/// Sedov overlay (the reference), a 16³ U-Net trained briefly on synthetic
/// Sedov-in-turbulence pairs, and an untrained U-Net: the L1 distance of
/// each net's mass-weighted temperature PDF to the reference's, and each
/// predictor's hot (T > 1e5 K) particle fraction.
fn validate() -> [(&'static str, f64); 5] {
    let region = turbulent_region(1500, 42);
    let reference = SedovOverlayPredictor.predict(Vec3::ZERO, E_SN, 0.1, &region);
    let mut rng = StdRng::seed_from_u64(7);
    let setup = TrainingSetup {
        grid_n: 16,
        ..Default::default()
    };
    let data = make_dataset(&mut rng, &setup, 6);
    let mut model = SurrogateModel::new(SurrogateConfig {
        grid_n: 16,
        side: 60.0,
        base_features: 4,
        seed: 1,
    });
    model.train(&data, 8, 3e-3);
    let trained = UNetPredictor::new(model, 9).predict(Vec3::ZERO, E_SN, 0.1, &region);
    let untrained = UNetPredictor::untrained_small(3).predict(Vec3::ZERO, E_SN, 0.1, &region);
    let pdf = |ps: &[GasParticle]| {
        let weighted: Vec<_> = ps.iter().map(|p| (p.temp, p.mass)).collect();
        log_histogram(&weighted, 0.0, 9.0, 36)
    };
    let hot =
        |ps: &[GasParticle]| ps.iter().filter(|p| p.temp > 1e5).count() as f64 / ps.len() as f64;
    [
        (
            "pdf_l1_trained",
            histogram_distance(&pdf(&reference), &pdf(&trained)),
        ),
        (
            "pdf_l1_untrained",
            histogram_distance(&pdf(&reference), &pdf(&untrained)),
        ),
        ("hot_frac_sedov", hot(&reference)),
        ("hot_frac_trained", hot(&trained)),
        ("hot_frac_untrained", hot(&untrained)),
    ]
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

    let validation = validate();
    let line: Vec<_> = validation
        .iter()
        .map(|(k, v)| format!("{k} {v:.4}"))
        .collect();
    println!("surrogate_loop: vs the Sedov overlay  {}", line.join("  "));

    let doc = BenchDoc::new()
        .info("scenario", "supernova_remnant")
        .info("surrogate_steps", STEPS)
        .info("t_end_myr", t_end)
        .info("conventional_steps", conventional_steps)
        .info("train_wall_s", train_wall)
        .info("surrogate_wall_s", surrogate_wall)
        .info("conventional_wall_s", conventional_wall)
        .info("surrogate_energy_err", err_surr)
        .info("conventional_energy_err", err_conv);
    let doc = validation
        .into_iter()
        .fold(doc, |doc, (k, v)| doc.info(k, v));
    doc.gated("surrogate_speedup", surrogate_speedup, Better::Higher)
        .gated("energy_err_ratio", energy_err_ratio, Better::Lower)
        .write("BENCH_surrogate.json");
}
