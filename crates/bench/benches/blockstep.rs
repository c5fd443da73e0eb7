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
use asura_core::{Scheme, SimConfig, SimStats, Simulation, TimestepMode};
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
    stats: SimStats,
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
        stats: sim.stats,
        max_level,
        predicted_substeps,
        modeled_efficiency,
    }
}

fn main() {
    let n = N_SIDE * N_SIDE * N_SIDE;
    println!("blockstep: N={n}, dt_base={DT_BASE}, horizon={BASE_STEPS} base steps");

    let global = run(TimestepMode::Global);
    println!("global: {:.3} s | {}", global.wall_s, global.stats);
    let block = run(TimestepMode::Block {
        max_level: MAX_LEVEL,
    });
    println!(
        "block:  {:.3} s, max level {} (schedule says {} substeps/base) | {}",
        block.wall_s, block.max_level, block.predicted_substeps, block.stats
    );
    let update_ratio =
        global.stats.active_updates as f64 / block.stats.active_updates.max(1) as f64;
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
                ("stats", Json::obj(global.stats.fields())),
            ]),
        )
        .info(
            "block",
            Json::obj([
                ("wall_s", block.wall_s.into()),
                ("max_level", block.max_level.into()),
                ("substeps_per_base_step", block.predicted_substeps.into()),
                ("stats", Json::obj(block.stats.fields())),
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
