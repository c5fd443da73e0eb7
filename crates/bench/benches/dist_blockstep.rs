//! The distributed block-timestep trajectory benchmark (`cargo bench
//! --bench dist_blockstep`).
//!
//! Runs the spiked-dt scenario — a uniform gas blob with one SN-hot
//! particle — through the **distributed** (`mpisim`) driver in both
//! [`TimestepMode::Global`] (the surrogate scheme's fixed-dt KDK) and
//! [`TimestepMode::Block`] (the conventional hierarchy's substep walk,
//! world-reduced schedule), over the same number of base steps, and
//! compares:
//!
//! * the Fig. 6/7 phase breakdown of each mode — in Block mode the
//!   per-substep ghost refreshes and barrier-bracketed walk phases carry
//!   the synchronization cost the paper's §1 argument charges against
//!   individual timesteps, now measured across ranks instead of modeled;
//! * the gated `update_ratio`: what a lockstep walk at the schedule's
//!   depth would cost (`N × substeps` particle-updates) over what the
//!   active-set hierarchy actually paid — the machine-independent update
//!   economy of block timesteps (deterministic counters, so CI can gate
//!   on it);
//! * `block_sync_share` (informational): the fraction of Block-mode wall
//!   time spent in exchange/ghost phases.
//!
//! Writes `BENCH_dist_blockstep.json` at the repo root so subsequent PRs
//! have a perf trajectory.

use asura_core::dist::{run_distributed, DistConfig, DistReport, PredictorKind};
use asura_core::particle::spiked_blob;
use asura_core::{Scheme, SimConfig, SimStats, TimestepMode};
use bench::{best_of, BenchDoc, Better};
use fdps::exchange::Routing;
use json::Json;

const N_SIDE: usize = 8;
const DT_BASE: f64 = 2.0e-3;
const BASE_STEPS: usize = 2;
const MAX_LEVEL: u32 = 6;
const GRID: (usize, usize, usize) = (2, 1, 1);
const N_POOL: usize = 1;

fn config(mode: TimestepMode) -> DistConfig {
    DistConfig {
        grid: GRID,
        n_pool: N_POOL,
        routing: Routing::Flat,
        sim: SimConfig {
            // The paper's pairing: the fixed global step is the surrogate
            // scheme's, the hierarchy the conventional one's (under the
            // surrogate scheme `Block` would mean the fixed step too).
            scheme: match mode {
                TimestepMode::Global => Scheme::Surrogate,
                TimestepMode::Block { .. } => Scheme::Conventional,
            },
            timestep: mode,
            dt_global: DT_BASE,
            cooling: false,
            star_formation: false,
            eps: 1.0,
            n_ngb: 16,
            ..Default::default()
        },
        steps: BASE_STEPS,
        predictor: PredictorKind::SedovOverlay,
        snapshot_every: 0,
    }
}

/// Phases whose time is inter-rank synchronization/communication rather
/// than local compute — the per-substep overhead class of the paper's §1
/// argument.
const SYNC_PHASES: &[&str] = &[
    asura_core::phases::EXCHANGE_PARTICLE,
    asura_core::phases::PREPROCESS_FEEDBACK,
    asura_core::phases::EXCHANGE_LET_1,
    asura_core::phases::EXCHANGE_LET_2,
    asura_core::phases::SEND_SNE,
    asura_core::phases::RECEIVE_SNE,
];

struct RunResult {
    wall_s: f64,
    report: DistReport,
    sync_s: f64,
    phase_total_s: f64,
}

fn run(mode: TimestepMode) -> RunResult {
    let ic = spiked_blob(N_SIDE);
    let cfg = config(mode);
    let (wall_s, report) = best_of(1, || run_distributed(&cfg, &ic).expect("dist run"));
    let sync_s: f64 = SYNC_PHASES
        .iter()
        .filter_map(|name| report.phases.get(name).map(|e| e.total_s))
        .sum();
    let phase_total_s = report.phases.total_s();
    RunResult {
        wall_s,
        report,
        sync_s,
        phase_total_s,
    }
}

fn main() {
    let n = N_SIDE * N_SIDE * N_SIDE;
    println!(
        "dist_blockstep: N={n}, grid {}x{}x{}+{}, dt_base={DT_BASE}, {BASE_STEPS} base steps",
        GRID.0, GRID.1, GRID.2, N_POOL
    );

    let global = run(TimestepMode::Global);
    let g_stats = SimStats::combine(&global.report.rank_stats);
    println!(
        "global: {:.3} s wall ({:.3} s phases, {:.3} s sync) | {g_stats}",
        global.wall_s, global.phase_total_s, global.sync_s
    );

    let block = run(TimestepMode::Block {
        max_level: MAX_LEVEL,
    });
    let b_stats = SimStats::combine(&block.report.rank_stats);
    println!(
        "block:  {:.3} s wall ({:.3} s phases, {:.3} s sync) | {b_stats}",
        block.wall_s, block.phase_total_s, block.sync_s
    );

    // The paper's update economy, measured: a lockstep walk at the agreed
    // depth updates every particle at every fine substep; the active-set
    // hierarchy only pays for the levels that are due.
    let lockstep_updates = n as u64 * b_stats.substeps.max(1);
    let update_ratio = lockstep_updates as f64 / b_stats.active_updates.max(1) as f64;
    let block_sync_share = block.sync_s / block.phase_total_s.max(1e-12);
    let global_sync_share = global.sync_s / global.phase_total_s.max(1e-12);
    println!(
        "update economy: {update_ratio:.2}x vs lockstep at depth, \
         sync share: global {global_sync_share:.3} -> block {block_sync_share:.3}"
    );

    BenchDoc::new()
        .info("n", n)
        .info(
            "grid",
            format!("{}x{}x{}+{}", GRID.0, GRID.1, GRID.2, N_POOL),
        )
        .info("dt_base", DT_BASE)
        .info("base_steps", BASE_STEPS)
        .info("max_level_cap", MAX_LEVEL)
        .info(
            "global",
            Json::obj([
                ("wall_s", global.wall_s.into()),
                ("phase_total_s", global.phase_total_s.into()),
                ("sync_s", global.sync_s.into()),
                ("sync_share", global_sync_share.into()),
                ("stats", Json::obj(g_stats.fields())),
            ]),
        )
        .info(
            "block",
            Json::obj([
                ("wall_s", block.wall_s.into()),
                ("phase_total_s", block.phase_total_s.into()),
                ("sync_s", block.sync_s.into()),
                ("stats", Json::obj(b_stats.fields())),
            ]),
        )
        .gated("update_ratio", update_ratio, Better::Higher)
        .info("block_sync_share", block_sync_share)
        .write("BENCH_dist_blockstep.json");
}
