//! Energy over one base step of `spiked_dt`, Block against Global.
//!
//! `spiked_dt` is a cold gas blob with one SN-hot particle and no cooling,
//! star formation or supernovae, so nothing adds or removes energy: the
//! exact audit should close under either timestep mode. The conventional
//! scheme's adaptive global CFL step does (the bound below); the block
//! hierarchy loses about a tenth of it over the same 0.002 Myr, which is
//! printed and not yet bounded. The only other Block test,
//! `distributed_block_mode_conserves_energy_on_the_spiked_ic`, bounds
//! Block against the shared-memory driver's Block run, so it cannot see
//! a loss both drivers share.

#![expect(clippy::disallowed_methods, reason = "tests audit energy exactly")]

use asura::scenarios;
use asura_core::{SimConfig, Simulation, TimestepMode};

const SEED: u64 = 1;

/// `(E_0, E_end, t_end, steps)` of `spiked_dt` under `timestep`, stepped
/// to the end of its first base step.
fn one_base_step(timestep: TimestepMode) -> (f64, f64, f64, u64) {
    let (cfg, ic) = scenarios::find("spiked_dt")
        .expect("registered")
        .build(SEED);
    let cfg = SimConfig { timestep, ..cfg };
    let t_end = cfg.dt_global;
    let mut sim = Simulation::new(cfg, ic, SEED);
    let e0 = sim.total_energy();
    while sim.time < t_end - 1e-12 {
        sim.step();
    }
    (e0, sim.total_energy(), sim.time, sim.stats.steps)
}

/// Measured: Global +1.871 % over 76 CFL steps, Block (max level 6)
/// −10.05 % (the live diagnostics read +1.4 % and −10.5 %).
#[test]
fn global_cfl_steps_hold_the_energy_of_spiked_dt_within_three_percent() {
    let (e0, global, t_global, global_steps) = one_base_step(TimestepMode::Global);
    let (b0, block, t_block, _) = one_base_step(TimestepMode::Block { max_level: 6 });
    assert_eq!(e0.to_bits(), b0.to_bits(), "one initial condition");
    let drift = |e: f64| (e - e0) / e0.abs();
    println!(
        "spiked_dt, E_0 = {e0:.6e}: global {:+.3}% at t = {t_global:.6} Myr \
         ({global_steps} CFL steps), block:6 {:+.3}% at t = {t_block:.6} Myr",
        100.0 * drift(global),
        100.0 * drift(block),
    );
    assert!(global_steps > 1, "the CFL step must collapse");
    // The last CFL step is cut at the base step's end, so both modes
    // audit the same interval.
    assert_eq!(t_global, t_block, "Global ends on the base step");
    // 1.6x the measured drift.
    assert!(
        drift(global).abs() < 0.03,
        "global drift {:+.3e}",
        drift(global)
    );
}
