//! Restart determinism: the checkpoint/restore subsystem's acceptance
//! tests. A run of `2k` steps must be **bitwise identical** to running `k`
//! steps, snapshotting, serializing the snapshot through the on-disk
//! format, restoring, and running `k` more — in both timestep modes and
//! with an SN region prediction still pending in the pool queue at the
//! snapshot step. This forces every piece of hidden driver state (the
//! star-formation seed, CFL signal-speed stash, pending predictions,
//! schedule, id counter) to be explicit and serialized. The live
//! diagnostics ride along: the samples a resumed run takes must equal the
//! uninterrupted run's bit for bit, although the first of them reads a
//! scratch arena the restore started empty.

use asura::scenarios;
use asura_core::ckpt::{CkptFormat, CkptStore};
use asura_core::diagnostics::TimeSample;
use asura_core::dist::{self, DistConfig, DistReport, PredictorKind, Start};
use asura_core::faults::FaultInjector;
use asura_core::snapshot::SimSnapshot;
use asura_core::{Particle, Scheme, SimConfig, Simulation, TimestepMode};
use fdps::exchange::Routing;
use fdps::Vec3;

/// Exact-state comparison: particle vectors (all fields, f64 `==`), clocks
/// and cumulative statistics.
fn assert_states_identical(full: &Simulation, resumed: &Simulation, label: &str) {
    assert_eq!(full.step_count, resumed.step_count, "{label}: step_count");
    assert_eq!(full.time.to_bits(), resumed.time.to_bits(), "{label}: time");
    assert_eq!(
        full.particles.len(),
        resumed.particles.len(),
        "{label}: particle count"
    );
    for (a, b) in full.particles.iter().zip(&resumed.particles) {
        assert_eq!(a, b, "{label}: particle {} diverged", a.id);
    }
    assert_eq!(full.stats, resumed.stats, "{label}: stats");
    assert_eq!(
        full.pending_regions(),
        resumed.pending_regions(),
        "{label}: pending queue length"
    );
}

/// Step `n` times, sampling the diagnostics after every step the way the
/// `asura` run loop does (SFR window = since the previous sample).
fn run_sampled(sim: &mut Simulation, n: usize) -> Vec<TimeSample> {
    let mut t_prev = sim.time;
    (0..n)
        .map(|_| {
            sim.step();
            let sample = TimeSample::measure(sim, t_prev, 10.0);
            t_prev = sim.time;
            sample
        })
        .collect()
}

/// Run `2k` steps straight; independently run `k`, push the snapshot
/// through the **serialized** binary format, restore, run `k` more.
fn restart_roundtrip(
    cfg: SimConfig,
    particles: Vec<Particle>,
    seed: u64,
    k: usize,
    label: &str,
) -> (Simulation, Simulation, SimSnapshot) {
    let mut full = Simulation::new(cfg, particles.clone(), seed);
    let full_samples = run_sampled(&mut full, 2 * k);

    let mut first = Simulation::new(cfg, particles, seed);
    first.run(k);
    let snap = first.snapshot();
    // On-disk round trip: restart from bytes, not from the live object.
    let snap = SimSnapshot::from_bytes(&snap.to_bytes()).expect("binary roundtrip");

    let mut resumed = Simulation::restore(&snap);
    let resumed_samples = run_sampled(&mut resumed, k);
    assert_states_identical(&full, &resumed, label);
    for (a, b) in full_samples[k..].iter().zip(&resumed_samples) {
        assert_eq!(a, b, "{label}: sample of step {} diverged", a.step);
        assert_eq!(
            a.total_energy.to_bits(),
            b.total_energy.to_bits(),
            "{label}: live energy of step {}",
            a.step
        );
    }
    (full, resumed, snap)
}

fn gas_blob(n_side: usize, spacing: f64, u: f64) -> Vec<Particle> {
    let mut out = Vec::new();
    let mut id = 0;
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..n_side {
                out.push(Particle::gas(
                    id,
                    Vec3::new(
                        (i as f64 - n_side as f64 / 2.0) * spacing,
                        (j as f64 - n_side as f64 / 2.0) * spacing,
                        (k as f64 - n_side as f64 / 2.0) * spacing,
                    ),
                    Vec3::ZERO,
                    1.0,
                    u,
                    spacing * 1.3,
                ));
                id += 1;
            }
        }
    }
    out
}

#[test]
fn surrogate_global_restart_with_pending_sn_region_is_bitwise_identical() {
    // The supernova_remnant scenario: SN fires on step 2, pool latency 5,
    // so at the snapshot step (4) the prediction is still in flight — the
    // pending queue must survive serialization and apply on schedule.
    let (cfg, particles) = scenarios::find("supernova_remnant")
        .expect("registered")
        .build(1);
    let (full, _, snap) = restart_roundtrip(cfg, particles, 5, 4, "surrogate/global");
    assert_eq!(full.stats.sn_events, 1, "the SN must fire before step 4");
    assert_eq!(
        snap.pending_regions(),
        1,
        "the prediction must be in flight at the snapshot step"
    );
    assert_eq!(
        full.stats.regions_applied, 1,
        "and must have been applied by step 8"
    );
}

#[test]
fn conventional_global_restart_is_bitwise_identical() {
    // The CFL-adaptive shared step consumes the *previous* step's
    // signal-speed stash — restart determinism proves last_vsig is
    // serialized, not silently recomputed. Hot gas so the CFL criterion
    // actually undercuts the global step.
    let mut particles = gas_blob(6, 0.5, 1.0e5);
    particles.push(Particle::dm(
        particles.len() as u64,
        Vec3::new(6.0, 0.0, 0.0),
        Vec3::ZERO,
        50.0,
    ));
    let cfg = SimConfig {
        scheme: Scheme::Conventional,
        dt_global: 2.0e-3,
        cooling: false,
        star_formation: false,
        eps: 1.0,
        ..Default::default()
    };
    let (full, resumed, _) = restart_roundtrip(cfg, particles, 3, 3, "conventional/global");
    assert!(full.stats.dt_min_seen < cfg.dt_global, "CFL engaged");
    assert_eq!(
        full.stats.dt_min_seen.to_bits(),
        resumed.stats.dt_min_seen.to_bits()
    );
}

#[test]
fn conventional_block_restart_is_bitwise_identical() {
    // The spiked-dt stress scenario under hierarchical block timesteps:
    // schedule assignment, substep bookkeeping and cross-substep tree reuse
    // must all re-derive identically after the restore.
    let (cfg, particles) = scenarios::find("spiked_dt").expect("registered").build(1);
    assert!(matches!(cfg.timestep, TimestepMode::Block { .. }));
    let (full, resumed, snap) = restart_roundtrip(cfg, particles, 7, 3, "conventional/block");
    assert!(
        full.stats.substeps > full.stats.steps,
        "the hierarchy must engage"
    );
    assert!(
        snap.slabs[0].schedule.is_some(),
        "the snapshot must carry the level assignment"
    );
    assert_eq!(full.stats.substeps, resumed.stats.substeps);
    assert_eq!(full.stats.tree_refreshes, resumed.stats.tree_refreshes);
    assert_eq!(full.stats.tree_rebuilds, resumed.stats.tree_rebuilds);
}

#[test]
fn restart_preserves_the_star_formation_rng_stream() {
    // Stochastic star formation draws are keyed by (seed, id, step): a
    // restart that lost the seed or the id counter would fork the history.
    // Dense cold gas so stars actually form on both sides of the snapshot.
    let mut particles = gas_blob(5, 0.5, 1e-4);
    for p in particles.iter_mut() {
        p.mass = 5.0;
    }
    let cfg = SimConfig {
        dt_global: 0.5,
        cooling: false,
        star_formation: true,
        eps: 0.5,
        ..Default::default()
    };
    let (full, resumed, _) = restart_roundtrip(cfg, particles, 6, 3, "sf-rng");
    assert!(
        full.stats.stars_formed > 0,
        "stars must form for the test to bite"
    );
    assert_eq!(full.stats.stars_formed, resumed.stats.stars_formed);
    // New stars got ids from the restored counter, not duplicates.
    let mut ids: Vec<u64> = resumed.particles.iter().map(|p| p.id).collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "duplicate ids after restart");
}

#[test]
fn distributed_block_resume_is_bitwise_with_the_schedule_in_the_snapshot() {
    // The distributed analogue of the conventional/block restart: 4 base
    // steps straight vs snapshot-at-2 + resume-for-2 under the
    // world-reduced block hierarchy, with the checkpoint pushed through
    // the on-disk encoding. The snapshot carries each rank's schedule of the
    // base step it was gathered in, and its counters.
    let mut particles = gas_blob(6, 1.0, 1.0);
    particles[100].u = 1.0e8; // deep levels on the owning rank
    particles.push(Particle::dm(
        particles.len() as u64,
        Vec3::new(8.0, 0.0, 0.0),
        Vec3::ZERO,
        50.0,
    ));
    let cfg = DistConfig {
        grid: (2, 1, 1),
        n_pool: 1,
        routing: Routing::Flat,
        sim: SimConfig {
            scheme: Scheme::Conventional,
            timestep: TimestepMode::Block { max_level: 5 },
            dt_global: 2.0e-3,
            pool_latency_steps: 2,
            cooling: false,
            star_formation: false,
            n_ngb: 16,
            eps: 1.0,
            ..Default::default()
        },
        predictor: PredictorKind::SedovOverlay,
        snapshot_every: 2,
        steps: 4,
    };
    // A hook that keeps every checkpoint it is handed.
    let collected = |cfg: &DistConfig, start: Start| -> (DistReport, Vec<SimSnapshot>) {
        let mut snaps = Vec::new();
        let report = dist::run(cfg, &start, |_, snap| {
            snaps.extend(snap.cloned());
            Ok(())
        });
        (report.expect("dist run"), snaps)
    };
    let (full, snaps) = collected(&cfg, Start::Fresh(particles));
    assert!(
        full.rank_stats.iter().all(|s| s.substeps > full.steps),
        "the hierarchy must engage"
    );
    let snap = &snaps[0];
    assert_eq!(snap.step_count, 2);
    assert_eq!(snap.slabs.len(), cfg.n_main());
    assert!(
        snap.slabs.iter().all(|slab| slab.schedule.is_some()),
        "the checkpoint must carry one schedule per rank"
    );

    let via_bin = SimSnapshot::from_bytes(&snap.to_bytes()).expect("binary roundtrip");
    assert_eq!(via_bin, *snap);

    let mut resume_cfg = cfg;
    resume_cfg.steps = 2;
    let (resumed, resumed_snaps) = collected(&resume_cfg, Start::Resumed(Box::new(via_bin)));
    assert_eq!(resumed.steps, 2);
    assert_eq!(full.final_state.len(), resumed.final_state.len());
    for (a, b) in full.final_state.iter().zip(&resumed.final_state) {
        assert_eq!(a, b, "resumed particle {} diverged", a.id);
    }
    // The resumed ranks re-derive the same world schedule and carry the
    // checkpoint's counters on: the whole `SimStats` of every rank is the
    // uninterrupted run's.
    assert_eq!(resumed.rank_stats, full.rank_stats);
    assert!(full.rank_stats.iter().all(|s| s.steps == 4));
    // … and its own step-4 checkpoint is the uninterrupted run's.
    assert_eq!(resumed_snaps.len(), 1);
    assert_eq!(resumed_snaps[0].to_bytes(), snaps[1].to_bytes());
}

#[test]
fn snapshot_cadence_fires_through_run_with_store() {
    let (cfg, particles) = scenarios::find("spiked_dt").expect("registered").build(2);
    let cfg = SimConfig {
        snapshot_every: 2,
        ..cfg
    };
    let mut sim = Simulation::new(cfg, particles, 9);
    let dir = std::env::temp_dir().join(format!("asura_cadence_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CkptStore::new(&dir, 3);
    let mut faults = FaultInjector::none();
    let written = sim
        .run_with_store(5, &store, CkptFormat::Bin, &mut faults, |_| {})
        .expect("commits");
    let steps: Vec<u64> = written
        .iter()
        .map(|p| SimSnapshot::load(p).expect("committed snapshot").step_count)
        .collect();
    assert_eq!(steps, vec![2, 4], "cadence 2 over 5 steps");
    // Cadence 0 never commits.
    sim.config.snapshot_every = 0;
    let written = sim
        .run_with_store(2, &store, CkptFormat::Bin, &mut faults, |_| {})
        .expect("nothing to commit");
    assert!(written.is_empty(), "cadence 0 must never snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_and_foreign_snapshot_files_are_rejected_without_panic() {
    let (cfg, particles) = scenarios::find("supernova_remnant")
        .expect("registered")
        .build(3);
    let mut sim = Simulation::new(cfg, particles, 1);
    sim.run(3);
    let snap = sim.snapshot();

    // Corrupt every single payload byte position? Too slow — sample a
    // spread of positions; each flip must produce an error, never a panic.
    let bytes = snap.to_bytes();
    for k in (20..bytes.len()).step_by(bytes.len() / 37 + 1) {
        let mut corrupt = bytes.clone();
        corrupt[k] ^= 0x10;
        assert!(
            SimSnapshot::from_bytes(&corrupt).is_err(),
            "flip at byte {k} must be detected"
        );
    }
    // Truncations at every header boundary.
    for cut in [0, 7, 8, 12, 19, 20, bytes.len() - 1] {
        assert!(SimSnapshot::from_bytes(&bytes[..cut]).is_err());
    }
    // JSON with a flipped state digit fails the checksum.
    let text = snap.to_json();
    let tampered = text.replacen("\"step_count\":3", "\"step_count\":4", 1);
    assert_ne!(tampered, text, "test must actually tamper");
    assert!(SimSnapshot::from_json(&tampered).is_err());
}
