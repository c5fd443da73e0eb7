//! The block-timestep trajectory benchmark (`cargo bench --bench
//! blockstep`).
//!
//! Runs the spiked-dt scenario — a uniform gas blob with one SN-hot
//! particle — through the real conventional-scheme driver in both
//! [`TimestepMode::Global`] and [`TimestepMode::Block`], advancing the
//! same physical horizon, and compares:
//!
//! * wall-clock per base step and total particle-updates (the paper's §1
//!   efficiency argument, measured instead of modeled);
//! * the measured update ratio against [`asura_core::ActiveScheduler::efficiency`]'s
//!   prediction for the assigned level population;
//! * tree refresh-vs-rebuild counts (the cross-substep reuse win).
//!
//! Writes `BENCH_blockstep.json` at the repo root so subsequent PRs have a
//! perf trajectory.

use asura_core::particle::spiked_blob;
use asura_core::{Scheme, SimConfig, Simulation, TimestepMode};
use bench::{best_of, BenchDoc, Better};
use json::Json;

const N_SIDE: usize = 10;
const DT_BASE: f64 = 2.0e-3;
const BASE_STEPS: usize = 3;
const MAX_LEVEL: u32 = 8;

fn config(mode: TimestepMode) -> SimConfig {
    SimConfig {
        scheme: Scheme::Conventional,
        timestep: mode,
        dt_global: DT_BASE,
        cooling: false,
        star_formation: false,
        eps: 1.0,
        ..Default::default()
    }
}

struct RunResult {
    wall_s: f64,
    steps: u64,
    substeps: u64,
    updates: u64,
    refreshes: u64,
    rebuilds: u64,
    sph_refreshes: u64,
    sph_rebuilds: u64,
    dt_min: f64,
    max_level: u32,
    predicted_substeps: u64,
    modeled_efficiency: f64,
}

fn run(mode: TimestepMode) -> RunResult {
    let horizon = BASE_STEPS as f64 * DT_BASE;
    let mut sim = Simulation::new(config(mode), spiked_blob(N_SIDE), 1);
    let (wall_s, ()) = best_of(1, || {
        while sim.time < horizon - 1e-12 {
            sim.step();
        }
    });
    let (max_level, predicted_substeps, modeled_efficiency) = sim
        .scheduler()
        .schedule()
        .map(|s| {
            // 1% of a full-system update per substep: the overhead class
            // blocksteps::tests uses for the paper's argument.
            (
                s.max_level(),
                s.substeps_per_base_step(),
                s.efficiency(0.01),
            )
        })
        .unwrap_or((0, 1, 1.0));
    RunResult {
        wall_s,
        steps: sim.stats.steps,
        substeps: sim.stats.substeps,
        updates: sim.stats.active_updates,
        refreshes: sim.stats.tree_refreshes,
        rebuilds: sim.stats.tree_rebuilds,
        sph_refreshes: sim.stats.sph_tree_refreshes,
        sph_rebuilds: sim.stats.sph_tree_rebuilds,
        dt_min: sim.stats.dt_min_seen,
        max_level,
        predicted_substeps,
        modeled_efficiency,
    }
}

fn main() {
    let n = N_SIDE * N_SIDE * N_SIDE;
    println!("blockstep: N={n}, dt_base={DT_BASE}, horizon={BASE_STEPS} base steps");

    let global = run(TimestepMode::Global);
    println!(
        "global: {:.3} s, {} steps, {} updates, dt_min {:.3e}",
        global.wall_s, global.steps, global.updates, global.dt_min
    );
    let block = run(TimestepMode::Block {
        max_level: MAX_LEVEL,
    });
    println!(
        "block:  {:.3} s, {} base steps / {} substeps (schedule says {}/base), \
         {} updates, max level {}, gravity tree {} refreshes / {} rebuilds, \
         sph tree {} refreshes / {} rebuilds, dt_min {:.3e}",
        block.wall_s,
        block.steps,
        block.substeps,
        block.predicted_substeps,
        block.updates,
        block.max_level,
        block.refreshes,
        block.rebuilds,
        block.sph_refreshes,
        block.sph_rebuilds,
        block.dt_min
    );
    let update_ratio = global.updates as f64 / block.updates.max(1) as f64;
    let speedup = global.wall_s / block.wall_s.max(1e-12);
    println!(
        "update savings: {update_ratio:.2}x, wall-clock speedup: {speedup:.2}x, \
         modeled block efficiency: {:.3}",
        block.modeled_efficiency
    );

    BenchDoc::new()
        .info("n", n)
        .info("dt_base", DT_BASE)
        .info("base_steps", BASE_STEPS)
        .info("max_level_cap", MAX_LEVEL)
        .info(
            "global",
            Json::obj([
                ("wall_s", global.wall_s.into()),
                ("steps", global.steps.into()),
                ("updates", global.updates.into()),
                ("dt_min", global.dt_min.into()),
                ("tree_rebuilds", global.rebuilds.into()),
                ("sph_tree_refreshes", global.sph_refreshes.into()),
                ("sph_tree_rebuilds", global.sph_rebuilds.into()),
            ]),
        )
        .info(
            "block",
            Json::obj([
                ("wall_s", block.wall_s.into()),
                ("base_steps", block.steps.into()),
                ("substeps", block.substeps.into()),
                ("updates", block.updates.into()),
                ("dt_min", block.dt_min.into()),
                ("max_level", block.max_level.into()),
                ("substeps_per_base_step", block.predicted_substeps.into()),
                ("tree_refreshes", block.refreshes.into()),
                ("tree_rebuilds", block.rebuilds.into()),
                ("sph_tree_refreshes", block.sph_refreshes.into()),
                ("sph_tree_rebuilds", block.sph_rebuilds.into()),
            ]),
        )
        .gated("update_ratio", update_ratio, Better::Higher)
        .gated("wall_speedup", speedup, Better::Higher)
        .gated(
            "modeled_block_efficiency",
            block.modeled_efficiency,
            Better::Higher,
        )
        .write("BENCH_blockstep.json");
}
