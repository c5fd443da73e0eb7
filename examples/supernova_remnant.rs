//! A single supernova remnant, three ways (paper §3.3):
//!
//! 1. the analytic Sedov–Taylor solution,
//! 2. a direct SPH integration with thermal injection (the "conventional"
//!    path whose tiny CFL steps motivate the whole paper),
//! 3. the surrogate pipeline: voxelize → U-Net (trained here, briefly) →
//!    Gibbs-sample particles.
//!
//! ```sh
//! cargo run --release --example supernova_remnant
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "the example reports its phases' wall time"
)]

use astro::units::E_SN;
use astro::SedovTaylor;
use asura_core::pool::{PoolPredictor, UNetPredictor};
use fdps::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sph::solver::{HydroState, SphSolver};
use sph::GammaLawEos;
use surrogate::training::{make_dataset, TrainingSetup};
use surrogate::{GasParticle, SurrogateConfig, SurrogateModel};

fn main() {
    let rho0 = 1.0; // M_sun / pc^3
    let horizon = 0.05; // Myr

    // --- 1. Analytic reference -------------------------------------------
    let blast = SedovTaylor::new(E_SN, rho0);
    println!("Sedov-Taylor reference (rho0 = {rho0} M_sun/pc^3):");
    for t in [0.01, 0.02, horizon] {
        println!(
            "  t = {t:.3} Myr: R_shock = {:6.2} pc, v_shock = {:7.1} pc/Myr, T_shell ~ {:.2e} K",
            blast.shock_radius(t),
            blast.shock_speed(t),
            blast.temperature(0.95 * blast.shock_radius(t), t, 0.6)
        );
    }

    // --- 2. Direct SPH with thermal injection ----------------------------
    let mut rng = StdRng::seed_from_u64(3);
    let n_side = 12;
    let a = 1.0;
    let mut pos = Vec::new();
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..n_side {
                pos.push(Vec3::new(
                    (i as f64 - 5.5) * a + rng.gen_range(-0.05..0.05),
                    (j as f64 - 5.5) * a + rng.gen_range(-0.05..0.05),
                    (k as f64 - 5.5) * a + rng.gen_range(-0.05..0.05),
                ));
            }
        }
    }
    let n = pos.len();
    let center = (0..n)
        .min_by(|&x, &y| pos[x].norm2().total_cmp(&pos[y].norm2()))
        .expect("non-empty lattice");
    let mut state = HydroState::new(
        pos,
        vec![Vec3::ZERO; n],
        vec![rho0 * a * a * a; n],
        vec![0.01; n],
        vec![1.3 * a; n],
    );
    // Thermal bomb at the centre.
    state.u[center] += E_SN / state.mass[center];
    let solver = SphSolver::default();
    let eos = GammaLawEos::default();
    let mut t = 0.0;
    let mut steps = 0u32;
    let wall = std::time::Instant::now();
    while t < 0.002 && steps < 400 {
        solver.density_pass(&mut state, n);
        solver.force_pass(&mut state, n);
        let dt = solver.min_timestep(&state, n).min(1e-4);
        for i in 0..n {
            state.vel[i] += state.acc[i] * dt;
            state.u[i] = (state.u[i] + state.dudt[i] * dt).max(1e-8);
            let v = state.vel[i];
            state.pos[i] += v * dt;
        }
        t += dt;
        steps += 1;
    }
    let rmax_v = (0..n)
        .max_by(|&x, &y| state.vel[x].norm2().total_cmp(&state.vel[y].norm2()))
        .expect("particles");
    println!(
        "\ndirect SPH: integrated {t:.5} Myr in {steps} steps ({:.2} s wall) — mean dt {:.1} yr",
        wall.elapsed().as_secs_f64(),
        t / steps as f64 * 1e6
    );
    println!(
        "  fastest ejecta: {:.0} pc/Myr at r = {:.2} pc; hottest T = {:.2e} K",
        state.vel[rmax_v].norm(),
        state.pos[rmax_v].norm(),
        (0..n)
            .map(|i| eos.temperature_from_u(state.u[i]))
            .fold(0.0f64, f64::max)
    );

    // --- 3. Surrogate pipeline -------------------------------------------
    println!("\ntraining a small U-Net surrogate on synthetic Sedov pairs ...");
    let setup = TrainingSetup {
        grid_n: 16,
        horizon,
        ..Default::default()
    };
    let data = make_dataset(&mut rng, &setup, 4);
    let mut model = SurrogateModel::new(SurrogateConfig {
        grid_n: 16,
        side: 60.0,
        base_features: 4,
        seed: 5,
    });
    let losses = model.train(&data, 10, 1e-2);
    println!(
        "  loss {:.4} -> {:.4}",
        losses[0],
        losses.last().expect("epochs")
    );

    let region: Vec<GasParticle> = (0..2000)
        .map(|i| GasParticle {
            pos: Vec3::new(
                rng.gen_range(-30.0..30.0),
                rng.gen_range(-30.0..30.0),
                rng.gen_range(-30.0..30.0),
            ),
            vel: Vec3::ZERO,
            mass: 1.0,
            temp: 100.0,
            h: 3.0,
            id: i as u64,
        })
        .collect();
    let wall = std::time::Instant::now();
    let predicted = UNetPredictor::new(model, 17).predict(Vec3::ZERO, E_SN, horizon, &region);
    println!(
        "surrogate prediction of the same region: {} particles in {:.2} s (one shot, no CFL)",
        predicted.len(),
        wall.elapsed().as_secs_f64()
    );
    let t_max = predicted.iter().map(|p| p.temp).fold(0.0f64, f64::max);
    let hot = predicted.iter().filter(|p| p.temp > 1e4).count();
    println!(
        "  hottest predicted particle: {t_max:.2e} K ({hot} above 1e4 K); mass conserved to {:.1e}",
        (predicted.iter().map(|p| p.mass).sum::<f64>()
            - region.iter().map(|p| p.mass).sum::<f64>())
        .abs()
    );
    println!(
        "  (a briefly trained net is qualitative; the surrogate_loop bench reports the full comparison)"
    );
}
