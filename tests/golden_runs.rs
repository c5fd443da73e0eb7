//! Golden runs: registered scenarios integrated on both drivers, each row
//! pinning `fnv1a` of the final [`SimSnapshot::to_bytes`] and every
//! [`SimStats::fields`] value. A refactor that claims to move no bit must
//! leave every row passing unedited.
//!
//! Each row runs on shared memory and through `dist::run` on a `(1,1,1)`
//! and a `(2,1,1)` main grid, each with one pool rank. The distributed
//! final state is the checkpoint main rank 0 is handed after the last
//! step; its counters are the ranks' merged by [`SimStats::combine`].
//!
//! To re-record a row on purpose (a change that is meant to move bits),
//! check that every row passes at the commit *before* the change, then
//! run `cargo test --test golden_runs` with it: a failing test prints
//! every row of its scenario in source form, indented to paste over the
//! table.

use asura::scenarios;
use asura_core::dist::{self, DistConfig, PredictorKind, Start};
use asura_core::snapshot::{fnv1a, SimSnapshot};
use asura_core::{SimStats, Simulation, TimestepMode};
use fdps::exchange::Routing;

/// The seed every row runs at (the CLI's default).
const SEED: u64 = 42;

/// One pinned run.
struct Golden {
    /// Main-rank grid of `dist::run`, or `None` for shared memory.
    grid: Option<(usize, usize, usize)>,
    /// `fnv1a` of the final snapshot's bytes.
    hash: u64,
    /// The final counters, as the `[stats]` line prints them.
    stats: &'static str,
}

/// Run `scenario` for `steps` steps on the route of `grid`, under
/// `timestep` when given: the final snapshot and counters.
fn run(
    scenario: &str,
    timestep: Option<TimestepMode>,
    steps: usize,
    grid: Option<(usize, usize, usize)>,
) -> (SimSnapshot, SimStats) {
    let (mut cfg, ic) = scenarios::find(scenario).expect("registered").build(SEED);
    if let Some(t) = timestep {
        cfg.timestep = t;
    }
    let Some(grid) = grid else {
        let mut sim = Simulation::new(cfg, ic, cfg.seed);
        sim.run(steps);
        return (sim.snapshot(), sim.stats);
    };
    let dist_cfg = DistConfig {
        grid,
        n_pool: 1,
        routing: Routing::Flat,
        sim: cfg,
        steps,
        predictor: PredictorKind::SedovOverlay,
        snapshot_every: steps as u64,
    };
    let mut last = None;
    let report = dist::run(&dist_cfg, &Start::Fresh(ic), |_, snap| {
        if let Some(snap) = snap {
            last = Some(snap.clone());
        }
        Ok(())
    })
    .expect("dist run");
    let snap = last.expect("the last step is on the cadence");
    (snap, SimStats::combine(&report.rank_stats))
}

/// Run every row of one scenario and fail, printing all of them as they
/// came out, if any differs from its pin.
fn check(scenario: &str, timestep: Option<&str>, steps: usize, rows: &[Golden]) {
    let mode = timestep.map(|t| t.parse::<TimestepMode>().expect("a mode"));
    let mut failed = false;
    let mut actual = String::new();
    for row in rows {
        let (snap, stats) = run(scenario, mode, steps, row.grid);
        let (hash, stats) = (fnv1a(&snap.to_bytes()), stats.to_string());
        failed |= hash != row.hash || stats != row.stats;
        actual += &format!(
            "            Golden {{\n                grid: {:?},\n                \
             hash: {hash:#018x},\n                stats: \"{stats}\",\n            }},\n",
            row.grid
        );
    }
    assert!(
        !failed,
        "{scenario} ({timestep:?}, {steps} steps) left its golden rows; \
         what this build gives:\n{actual}"
    );
}

#[test]
fn supernova_remnant_runs_are_pinned() {
    // The star explodes on step 2 and its region lands on step 7.
    check(
        "supernova_remnant",
        None,
        8,
        &[
            Golden {
                grid: None,
                hash: 0xf6030f4cddbf8c2c,
                stats: "steps=8 sn_events=1 stars_formed=0 regions_applied=1 dt_min_seen=0.002 gravity_interactions=5328395 hydro_interactions=1057067 substeps=0 active_updates=8008 tree_rebuilds=16 tree_refreshes=0 sph_tree_rebuilds=16 sph_tree_refreshes=16",
            },
            Golden {
                grid: Some((1, 1, 1)),
                hash: 0xf6030f4cddbf8c2c,
                stats: "steps=8 sn_events=1 stars_formed=0 regions_applied=1 dt_min_seen=0.002 gravity_interactions=5328395 hydro_interactions=1057067 substeps=0 active_updates=8008 tree_rebuilds=16 tree_refreshes=0 sph_tree_rebuilds=16 sph_tree_refreshes=16",
            },
            Golden {
                grid: Some((2, 1, 1)),
                hash: 0x3bb2c82da02b1042,
                stats: "steps=8 sn_events=1 stars_formed=0 regions_applied=1 dt_min_seen=0.002 gravity_interactions=5247956 hydro_interactions=1059781 substeps=0 active_updates=8008 tree_rebuilds=32 tree_refreshes=0 sph_tree_rebuilds=32 sph_tree_refreshes=32",
            },
        ],
    );
}

#[test]
fn sn_shell_conventional_runs_are_pinned() {
    check(
        "sn_shell_conventional",
        None,
        6,
        &[
            Golden {
                grid: None,
                hash: 0x69629b6707218e0f,
                stats: "steps=6 sn_events=1 stars_formed=0 regions_applied=0 dt_min_seen=0.0005 gravity_interactions=3983048 hydro_interactions=761738 substeps=0 active_updates=6006 tree_rebuilds=12 tree_refreshes=0 sph_tree_rebuilds=12 sph_tree_refreshes=12",
            },
            Golden {
                grid: Some((1, 1, 1)),
                hash: 0x69629b6707218e0f,
                stats: "steps=6 sn_events=1 stars_formed=0 regions_applied=0 dt_min_seen=0.0005 gravity_interactions=3983048 hydro_interactions=761738 substeps=0 active_updates=6006 tree_rebuilds=12 tree_refreshes=0 sph_tree_rebuilds=12 sph_tree_refreshes=12",
            },
            Golden {
                grid: Some((2, 1, 1)),
                hash: 0x0a8fc7ea62fda269,
                stats: "steps=6 sn_events=1 stars_formed=0 regions_applied=0 dt_min_seen=0.0005 gravity_interactions=3918373 hydro_interactions=761738 substeps=0 active_updates=6006 tree_rebuilds=24 tree_refreshes=0 sph_tree_rebuilds=24 sph_tree_refreshes=24",
            },
        ],
    );
}

#[test]
fn spiked_dt_global_runs_are_pinned() {
    check(
        "spiked_dt",
        Some("global"),
        4,
        &[
            Golden {
                grid: None,
                hash: 0x1a9cbd2f17582bd1,
                stats: "steps=4 sn_events=0 stars_formed=0 regions_applied=0 dt_min_seen=1.5625e-5 gravity_interactions=1036288 hydro_interactions=278076 substeps=0 active_updates=2048 tree_rebuilds=8 tree_refreshes=0 sph_tree_rebuilds=8 sph_tree_refreshes=8",
            },
            Golden {
                grid: Some((1, 1, 1)),
                hash: 0x1a9cbd2f17582bd1,
                stats: "steps=4 sn_events=0 stars_formed=0 regions_applied=0 dt_min_seen=1.5625e-5 gravity_interactions=1036288 hydro_interactions=278076 substeps=0 active_updates=2048 tree_rebuilds=8 tree_refreshes=0 sph_tree_rebuilds=8 sph_tree_refreshes=8",
            },
            Golden {
                grid: Some((2, 1, 1)),
                hash: 0x0bc5cee5dd0c8062,
                stats: "steps=4 sn_events=0 stars_formed=0 regions_applied=0 dt_min_seen=1.5625e-5 gravity_interactions=1036288 hydro_interactions=278076 substeps=0 active_updates=2048 tree_rebuilds=16 tree_refreshes=0 sph_tree_rebuilds=16 sph_tree_refreshes=16",
            },
        ],
    );
}

#[test]
fn spiked_dt_block_runs_are_pinned() {
    check(
        "spiked_dt",
        Some("block:6"),
        2,
        &[
            Golden {
                grid: None,
                hash: 0xcd284b14ed076092,
                stats: "steps=2 sn_events=0 stars_formed=0 regions_applied=0 dt_min_seen=3.125e-5 gravity_interactions=6228140 hydro_interactions=1628042 substeps=128 active_updates=22525 tree_rebuilds=14 tree_refreshes=116 sph_tree_rebuilds=14 sph_tree_refreshes=246",
            },
            Golden {
                grid: Some((1, 1, 1)),
                hash: 0xcd284b14ed076092,
                stats: "steps=2 sn_events=0 stars_formed=0 regions_applied=0 dt_min_seen=3.125e-5 gravity_interactions=6228140 hydro_interactions=1628042 substeps=128 active_updates=22525 tree_rebuilds=14 tree_refreshes=116 sph_tree_rebuilds=14 sph_tree_refreshes=246",
            },
            Golden {
                grid: Some((2, 1, 1)),
                hash: 0xfe4778c7c609643f,
                stats: "steps=2 sn_events=0 stars_formed=0 regions_applied=0 dt_min_seen=3.125e-5 gravity_interactions=5800450 hydro_interactions=1595916 substeps=128 active_updates=22069 tree_rebuilds=25 tree_refreshes=235 sph_tree_rebuilds=91 sph_tree_refreshes=429",
            },
        ],
    );
}

#[test]
fn dwarf_galaxy_runs_are_pinned() {
    // The galaxy path: mixed-precision gravity at `n_group` 256, cooling
    // and star formation. The first stars form on step 4.
    check(
        "dwarf_galaxy",
        None,
        4,
        &[
            Golden {
                grid: None,
                hash: 0xf6fd20db07d0f317,
                stats: "steps=4 sn_events=0 stars_formed=2 regions_applied=0 dt_min_seen=0.25 gravity_interactions=83294939 hydro_interactions=1186280 substeps=0 active_updates=24048 tree_rebuilds=8 tree_refreshes=0 sph_tree_rebuilds=8 sph_tree_refreshes=8",
            },
            Golden {
                grid: Some((1, 1, 1)),
                hash: 0xf6fd20db07d0f317,
                stats: "steps=4 sn_events=0 stars_formed=2 regions_applied=0 dt_min_seen=0.25 gravity_interactions=83294939 hydro_interactions=1186280 substeps=0 active_updates=24048 tree_rebuilds=8 tree_refreshes=0 sph_tree_rebuilds=8 sph_tree_refreshes=8",
            },
            Golden {
                grid: Some((2, 1, 1)),
                hash: 0xe894c1cd5dbb8fe3,
                stats: "steps=4 sn_events=0 stars_formed=2 regions_applied=0 dt_min_seen=0.25 gravity_interactions=81172571 hydro_interactions=1190478 substeps=0 active_updates=24048 tree_rebuilds=16 tree_refreshes=0 sph_tree_rebuilds=16 sph_tree_refreshes=16",
            },
        ],
    );
}

#[test]
fn quickstart_runs_are_pinned() {
    // The Milky Way patch: mixed-precision gravity at `n_group` 256, SPH
    // and cooling. No gas reaches the default star-formation density, and
    // the disc's stars are 500 Myr old, so none forms or explodes and the
    // surrogate pool stays idle.
    check(
        "quickstart",
        None,
        4,
        &[
            Golden {
                grid: None,
                hash: 0x9aa69c801d1b2f6a,
                stats: "steps=4 sn_events=0 stars_formed=0 regions_applied=0 dt_min_seen=0.1 gravity_interactions=46740468 hydro_interactions=593279 substeps=0 active_updates=16000 tree_rebuilds=8 tree_refreshes=0 sph_tree_rebuilds=8 sph_tree_refreshes=8",
            },
            Golden {
                grid: Some((1, 1, 1)),
                hash: 0x9aa69c801d1b2f6a,
                stats: "steps=4 sn_events=0 stars_formed=0 regions_applied=0 dt_min_seen=0.1 gravity_interactions=46740468 hydro_interactions=593279 substeps=0 active_updates=16000 tree_rebuilds=8 tree_refreshes=0 sph_tree_rebuilds=8 sph_tree_refreshes=8",
            },
            Golden {
                grid: Some((2, 1, 1)),
                hash: 0xa1d1e5003fabaf36,
                stats: "steps=4 sn_events=0 stars_formed=0 regions_applied=0 dt_min_seen=0.1 gravity_interactions=45314139 hydro_interactions=596980 substeps=0 active_updates=16000 tree_rebuilds=16 tree_refreshes=0 sph_tree_rebuilds=16 sph_tree_refreshes=16",
            },
        ],
    );
}
