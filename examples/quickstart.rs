//! Quickstart: a star-by-star disk-galaxy patch integrated with the
//! surrogate SN scheme in under a minute.
//!
//! The initial condition and configuration come from the `quickstart`
//! entry of the scenario registry (`asura::scenarios`) — the same workload
//! the `asura` CLI runs by name:
//!
//! ```sh
//! cargo run --release --example quickstart
//! cargo run --release --bin asura -- --scenario quickstart
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "the end-of-run energy audit is the exact one"
)]

use asura::scenarios;
use asura_core::Simulation;

fn main() {
    // 1. Realize the registered scenario (Model MW-mini, paper §4.2).
    let scenario = scenarios::find("quickstart").expect("registered scenario");
    let (cfg, particles) = scenario.build(42);
    println!("scenario {}: {}", scenario.name, scenario.description);
    println!("{} particles realized", particles.len());

    // 2. Integrate with the paper's scheme: fixed global timestep, SN
    //    regions bypassed by the (here: analytic) surrogate.
    let mut sim = Simulation::new(cfg, particles, 7);
    let e0 = sim.total_energy();
    for chunk in 0..4 {
        sim.run(5);
        println!(
            "t = {:5.2} Myr | {} particles | {} SNe | {} stars formed | {} regions in flight",
            sim.time,
            sim.particles.len(),
            sim.stats.sn_events,
            sim.stats.stars_formed,
            sim.pending_regions()
        );
        let _ = chunk;
    }
    let e1 = sim.total_energy();
    println!(
        "energy audit: E0 = {e0:.4e}, E1 = {e1:.4e} (drift {:+.2}%)",
        100.0 * (e1 - e0) / e0.abs()
    );
    println!("done — the timestep never left {} Myr.", cfg.dt_global);
}
