//! Integration tests of the distributed main/pool driver across mpisim
//! ranks: the SN pool round trip, routing equivalence, KDK integration
//! order against the shared-memory driver, block-timestep schedule
//! agreement/energy conservation — and, on a `(1,1,1)` main grid, bitwise
//! equivalence with the shared-memory driver under the same `SimConfig`
//! (both run `asura_core::step::step`; with one main rank the distributed
//! halo's exchanges have nobody to talk to).

#![expect(clippy::disallowed_methods, reason = "tests audit energy exactly")]

use asura_core::dist::{self, run_distributed, DistConfig, DistReport, PredictorKind, Start};
use asura_core::sim::total_energy_of;
use asura_core::snapshot::SimSnapshot;
use asura_core::{Particle, Scheme, SimConfig, SimStats, Simulation, TimestepMode};
use fdps::exchange::Routing;
use fdps::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn slab_ic(n_gas: usize, n_dm: usize, n_sn_stars: usize, dt: f64, seed: u64) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut id = 0u64;
    for _ in 0..n_gas {
        out.push(Particle::gas(
            id,
            Vec3::new(
                rng.gen_range(-60.0..60.0),
                rng.gen_range(-60.0..60.0),
                rng.gen_range(-12.0..12.0),
            ),
            Vec3::ZERO,
            1.0,
            1.0,
            6.0,
        ));
        id += 1;
    }
    for _ in 0..n_dm {
        out.push(Particle::dm(
            id,
            Vec3::new(
                rng.gen_range(-80.0..80.0),
                rng.gen_range(-80.0..80.0),
                rng.gen_range(-80.0..80.0),
            ),
            Vec3::ZERO,
            10.0,
        ));
        id += 1;
    }
    let life = astro::lifetime::stellar_lifetime_myr(10.0);
    for k in 0..n_sn_stars {
        out.push(Particle::star(
            id,
            Vec3::new(k as f64 * 10.0 - 10.0, 0.0, 0.0),
            Vec3::ZERO,
            10.0,
            dt * 1.5 - life,
        ));
        id += 1;
    }
    out
}

fn base_cfg(steps: usize) -> DistConfig {
    DistConfig {
        grid: (2, 2, 1),
        n_pool: 2,
        routing: Routing::Flat,
        sim: SimConfig {
            scheme: Scheme::Surrogate,
            pool_latency_steps: 2,
            cooling: false,
            star_formation: false,
            n_ngb: 16,
            eps: 2.0,
            ..Default::default()
        },
        predictor: PredictorKind::SedovOverlay,
        snapshot_every: 0,
        steps,
    }
}

/// `dist::run` from `ic` with a hook that keeps every checkpoint it is
/// handed.
fn collected(cfg: &DistConfig, ic: &[Particle]) -> (DistReport, Vec<SimSnapshot>) {
    let mut snaps = Vec::new();
    let report = dist::run(cfg, &Start::Fresh(ic.to_vec()), |_, snap| {
        snaps.extend(snap.cloned());
        Ok(())
    });
    (report.expect("dist run"), snaps)
}

#[test]
fn multiple_sne_round_trip_through_multiple_pools() {
    let dt = 2.0e-3;
    let ic = slab_ic(500, 100, 3, dt, 1);
    let report = run_distributed(&base_cfg(5), &ic).expect("dist run");
    assert_eq!(report.sn_events, 3, "all three SNe identified");
    assert_eq!(report.regions_applied, 3, "all three predictions applied");
    assert_eq!(report.final_particles, ic.len() as u64);
}

#[test]
fn particle_count_invariant_under_routing_and_grid() {
    let ic = slab_ic(400, 150, 0, 2.0e-3, 2);
    for routing in [Routing::Flat, Routing::Torus] {
        for grid in [(4, 1, 1), (2, 2, 1), (2, 2, 2)] {
            let cfg = DistConfig {
                grid,
                routing,
                ..base_cfg(2)
            };
            let report = run_distributed(&cfg, &ic).expect("dist run");
            assert_eq!(
                report.final_particles,
                ic.len() as u64,
                "grid {grid:?}, routing {routing:?}"
            );
        }
    }
}

#[test]
fn communication_volume_is_recorded_per_main_rank() {
    let ic = slab_ic(300, 100, 0, 2.0e-3, 3);
    let report = run_distributed(&base_cfg(2), &ic).expect("dist run");
    assert_eq!(report.bytes_sent.len(), 4);
    assert!(
        report.bytes_sent.iter().all(|&b| b > 0),
        "every main rank communicates: {:?}",
        report.bytes_sent
    );
}

#[test]
fn distributed_kdk_energy_drift_matches_the_shared_memory_driver() {
    // The dist integrator used to be a first-order kick-drift with an
    // empty FINAL_KICK and locally clamped ghost densities; both bugs blow
    // up the energy budget. With true KDK and owner-imported ghost rho,
    // the distributed run must hold total energy as well as the
    // shared-memory KDK on the identical IC.
    let ic = slab_ic(300, 80, 0, 2.0e-3, 7);
    let steps = 4;
    let cfg = base_cfg(steps);
    let e0 = total_energy_of(&ic, cfg.sim.eps);

    let mut shared = Simulation::new(cfg.sim, ic.clone(), 1);
    shared.run(steps);
    let shared_drift = ((total_energy_of(&shared.particles, cfg.sim.eps) - e0) / e0).abs();

    let report = run_distributed(&cfg, &ic).expect("dist run");
    assert_eq!(report.final_particles, ic.len() as u64);
    let dist_drift = ((total_energy_of(&report.final_state, cfg.sim.eps) - e0) / e0).abs();

    assert!(
        shared_drift < 5e-3,
        "shared-memory KDK drift {shared_drift:.3e}"
    );
    assert!(
        dist_drift < 5e-3,
        "distributed KDK drift {dist_drift:.3e} (shared: {shared_drift:.3e})"
    );
    // Same integration order ⇒ same drift class: the distributed run may
    // differ by domain-cut force ordering, not by a missing half-kick.
    assert!(
        dist_drift < 10.0 * shared_drift + 1e-4,
        "distributed drift {dist_drift:.3e} out of class vs shared {shared_drift:.3e}"
    );
}

#[test]
fn distributed_block_mode_conserves_energy_on_the_spiked_ic() {
    // The spiked-dt stress case across ranks: a blob with one SN-hot
    // particle forces deep levels on one rank while the bulk stays at the
    // base step. The distributed hierarchy (opening half-kicks, fused
    // substep kicks, closing half-kicks) must conserve energy through the
    // whole walk.
    let (sim_cfg, particles) = asura::scenarios::find("spiked_dt")
        .expect("registered")
        .build(1);
    assert!(matches!(sim_cfg.timestep, TimestepMode::Block { .. }));
    let cfg = DistConfig {
        grid: (2, 2, 1),
        n_pool: 1,
        routing: Routing::Flat,
        sim: SimConfig {
            timestep: TimestepMode::Block { max_level: 6 },
            ..sim_cfg
        },
        predictor: PredictorKind::SedovOverlay,
        snapshot_every: 0,
        steps: 2,
    };
    let e0 = total_energy_of(&particles, cfg.sim.eps);
    // Reference: the shared-memory driver's hierarchy on the identical IC
    // and horizon. The spiked IC is deliberately violent (the SN-hot
    // particle is CFL-marginal at the level cap), so "conserves" means
    // "the same drift class as the proven shared-memory walk", not an
    // absolute bound.
    assert_eq!(cfg.sim.scheme, Scheme::Conventional);
    let mut shared = Simulation::new(cfg.sim, particles.clone(), 1);
    shared.run(cfg.steps);
    let shared_drift = ((total_energy_of(&shared.particles, cfg.sim.eps) - e0) / e0).abs();

    let report = run_distributed(&cfg, &particles).expect("dist run");
    assert_eq!(report.final_particles, particles.len() as u64);
    assert!(
        report.final_state.iter().all(|p| {
            p.pos.x.is_finite() && p.vel.x.is_finite() && p.u.is_finite() && p.rho.is_finite()
        }),
        "block substepping must stay finite"
    );
    let e1 = total_energy_of(&report.final_state, cfg.sim.eps);
    let drift = ((e1 - e0) / e0).abs();
    assert!(
        drift < 2.0 * shared_drift + 1e-3,
        "distributed block drift {drift:.3e} out of class vs shared-memory {shared_drift:.3e}"
    );
    // The hierarchy actually engaged, on every rank's counter.
    assert!(report
        .rank_stats
        .iter()
        .all(|s| s.substeps == report.rank_stats[0].substeps && s.substeps > report.steps));
}

#[test]
fn distributed_block_schedule_is_identical_on_every_rank_and_snapshotted() {
    let mut ic = slab_ic(250, 0, 0, 2.0e-3, 9);
    ic[17].u = 1.0e8; // hot particle: deep levels on its owner rank
    let cfg = DistConfig {
        grid: (2, 1, 1),
        n_pool: 1,
        routing: Routing::Flat,
        sim: SimConfig {
            scheme: Scheme::Conventional,
            timestep: TimestepMode::Block { max_level: 6 },
            dt_global: 2.0e-3,
            pool_latency_steps: 2,
            cooling: false,
            star_formation: false,
            n_ngb: 16,
            eps: 2.0,
            ..Default::default()
        },
        predictor: PredictorKind::SedovOverlay,
        snapshot_every: 2,
        steps: 2,
    };
    let (report, snaps) = collected(&cfg, &ic);
    // World-consistent walk: every rank ran the same number of substeps,
    // and the hot particle forced more than one per base step.
    let subs: Vec<u64> = report.rank_stats.iter().map(|s| s.substeps).collect();
    assert!(subs.iter().all(|&s| s == subs[0]), "substeps {subs:?}");
    assert!(subs[0] > report.steps, "hierarchy engaged: {subs:?}");
    // The checkpoint carries one schedule per main rank, level arrays in
    // the rank's local particle order.
    let snap = &snaps[0];
    assert_eq!(snap.slabs.len(), cfg.n_main());
    let schedules = snap.slabs.iter().map(|slab| {
        let sched = slab.schedule.as_ref().expect("a block run's slab");
        assert_eq!(sched.levels.len(), slab.particles.len());
        assert_eq!(sched.dt_max, cfg.sim.dt_global);
        sched
    });
    // The deep levels live on the rank that owns the hot particle.
    let deepest = schedules
        .map(|s| s.levels.iter().copied().max().unwrap_or(0))
        .max()
        .unwrap();
    assert!(deepest >= 1, "hot particle must sit below the base level");
}

#[test]
fn block_mode_survives_a_rank_with_no_gas() {
    // Gas confined to x < -10 and DM to x > 10 on a 2x1x1 grid: the domain
    // cut leaves one main rank gas-free. The substep walk's ghost
    // exchanges and barrier brackets are collective, so that rank must
    // still enter every region with empty payloads — a data-dependent
    // skip deadlocks the walk.
    let mut rng = StdRng::seed_from_u64(21);
    let mut ic = Vec::new();
    for id in 0..200u64 {
        ic.push(Particle::gas(
            id,
            Vec3::new(
                rng.gen_range(-60.0..-10.0),
                rng.gen_range(-30.0..30.0),
                rng.gen_range(-10.0..10.0),
            ),
            Vec3::ZERO,
            1.0,
            1.0,
            5.0,
        ));
    }
    for id in 200..400u64 {
        ic.push(Particle::dm(
            id,
            Vec3::new(
                rng.gen_range(10.0..60.0),
                rng.gen_range(-30.0..30.0),
                rng.gen_range(-10.0..10.0),
            ),
            Vec3::ZERO,
            10.0,
        ));
    }
    ic[7].u = 1.0e8; // force deep levels on the gas rank
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
            eps: 2.0,
            ..Default::default()
        },
        predictor: PredictorKind::SedovOverlay,
        snapshot_every: 0,
        steps: 2,
    };
    let report = run_distributed(&cfg, &ic).expect("dist run");
    assert_eq!(report.final_particles, ic.len() as u64);
    let subs: Vec<u64> = report.rank_stats.iter().map(|s| s.substeps).collect();
    assert!(subs.iter().all(|&s| s == subs[0]), "substeps {subs:?}");
    assert!(subs[0] > report.steps, "hierarchy engaged: {subs:?}");
}

#[test]
fn single_main_rank_degenerate_case_works() {
    let ic = slab_ic(200, 0, 1, 2.0e-3, 4);
    let cfg = DistConfig {
        grid: (1, 1, 1),
        n_pool: 1,
        ..base_cfg(4)
    };
    let report = run_distributed(&cfg, &ic).expect("dist run");
    assert_eq!(report.sn_events, 1);
    assert_eq!(report.regions_applied, 1);
}

/// Run `steps` steps through `Simulation` and through `run_distributed` on
/// `(1,1,1)` + 1 pool rank, under the same `SimConfig`, and hold them
/// against each other to the bit: every field of every particle, the
/// whole `SimStats`, and the whole checkpoint each writes after the last
/// step. Returns the shared-memory run for extra checks.
fn assert_drivers_agree(
    what: &str,
    sim_cfg: SimConfig,
    ic: &[Particle],
    steps: usize,
) -> Simulation {
    let mut shared = Simulation::new(sim_cfg, ic.to_vec(), sim_cfg.seed);
    shared.run(steps);
    let mut expect = shared.particles.clone();
    expect.sort_by_key(|p| p.id);

    let cfg = DistConfig {
        grid: (1, 1, 1),
        n_pool: 1,
        sim: sim_cfg,
        snapshot_every: steps as u64,
        ..base_cfg(steps)
    };
    let (report, snaps) = collected(&cfg, ic);

    assert_eq!(report.final_state.len(), expect.len(), "{what}: count");
    let differing = expect
        .iter()
        .zip(&report.final_state)
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(
        differing,
        0,
        "{what}: {differing} of {} particles differ between the drivers after {steps} steps",
        expect.len()
    );
    assert_eq!(
        report.rank_stats[0], shared.stats,
        "{what}: SimStats after {steps} steps"
    );

    let (want, got) = (shared.snapshot(), &snaps[0]);
    assert_eq!(snaps.len(), 1, "{what}: one cadence hit");
    assert_eq!(got, &want, "{what}: checkpoint");
    assert_eq!(got.to_bytes(), want.to_bytes(), "{what}: checkpoint bytes");
    shared
}

/// A cold lattice of 5 M_sun gas particles 0.5 pc apart (ρ ≈ 40 M_sun/pc³,
/// t_ff ≈ 1.3 Myr) under thresholds it clears: every particle draws, and a
/// few per step form a star. Ids run 3, 10, 17, …, so an id is never a
/// particle's index.
fn cold_dense_gas() -> (SimConfig, Vec<Particle>) {
    let n = 6;
    let ic = (0..n * n * n)
        .map(|k| {
            let at = |i: usize| (i % n) as f64 * 0.5 - 1.5;
            let pos = Vec3::new(at(k), at(k / n), at(k / (n * n)));
            Particle::gas(7 * k as u64 + 3, pos, Vec3::ZERO, 5.0, 1e-4, 0.65)
        })
        .collect();
    let cfg = SimConfig {
        dt_global: 0.05,
        star_formation: true,
        sf_rho_min: 0.5,
        sf_t_max: 2.0e4,
        sf_efficiency: 1.0,
        seed: 17,
        ..base_cfg(0).sim
    };
    (cfg, ic)
}

#[test]
fn one_rank_star_formation_equals_the_shared_memory_driver_bitwise() {
    // Both drivers draw each gas particle's chance from (seed, id, step)
    // and number the new stars from the run's `next_id`, so a star-forming
    // run is one computation on both — checkpoint included.
    let (cfg, ic) = cold_dense_gas();
    let sim = assert_drivers_agree("star formation", cfg, &ic, 3);
    assert!(
        sim.stats.stars_formed > 0,
        "no star formed: the test must bite"
    );
    assert_eq!(
        sim.particles.len(),
        ic.len() + sim.stats.stars_formed as usize
    );
}

#[test]
fn two_ranks_form_the_same_stars_as_one() {
    // Over 3 steps of the cold lattice, a (2,1,1) grid forms the same stars
    // under the same ids as (1,1,1): the draw is keyed by the particle, not
    // the rank, and the ids are given in parent-id order over both ranks.
    // Only round-off in ρ differs between the grids (the cut reorders the
    // sums), which moves a draw only if it lands on the threshold.
    let (sim, ic) = cold_dense_gas();
    let window = 3;
    let formed = |grid| {
        let cfg = DistConfig {
            grid,
            n_pool: 1,
            sim,
            ..base_cfg(window)
        };
        let report = run_distributed(&cfg, &ic).expect("dist run");
        let run = SimStats::combine(&report.rank_stats);
        let named = [
            report.sn_events,
            report.regions_applied,
            report.gravity_interactions,
            report.hydro_interactions,
        ];
        let merged = [
            run.sn_events,
            run.regions_applied,
            run.gravity_interactions,
            run.hydro_interactions,
        ];
        assert_eq!(named, merged, "{grid:?}: DistReport's named counters");
        let stars = run.stars_formed;
        assert_eq!(report.final_particles, ic.len() as u64 + stars, "{grid:?}");
        let state = report.final_state.iter();
        let sf = state.map(|p| (p.id, p.kind, p.mass.to_bits(), p.birth_time.to_bits()));
        (stars, sf.collect::<Vec<_>>())
    };
    let (one, two) = (formed((1, 1, 1)), formed((2, 1, 1)));
    assert!(
        one.0 > 0,
        "no star formed in {window} steps: the test must bite"
    );
    assert_eq!(one, two, "(2,1,1) and (1,1,1) formed different stars");
}

#[test]
fn one_rank_global_steps_equal_the_shared_memory_driver_bitwise() {
    let ic = slab_ic(300, 80, 0, 2.0e-3, 7);
    for cooling in [false, true] {
        let cfg = SimConfig {
            cooling,
            ..base_cfg(0).sim
        };
        let sim = assert_drivers_agree("global", cfg, &ic, 4);
        assert!(sim.stats.gravity_interactions > 0 && sim.stats.hydro_interactions > 0);
    }
}

#[test]
fn one_rank_block_walk_equals_the_shared_memory_driver_bitwise() {
    let (cfg, ic) = asura::scenarios::find("spiked_dt")
        .expect("registered")
        .build(1);
    let cfg = SimConfig {
        timestep: TimestepMode::Block { max_level: 6 },
        ..cfg
    };
    let sim = assert_drivers_agree("block", cfg, &ic, 2);
    assert!(
        sim.stats.substeps > sim.stats.steps,
        "the hierarchy must engage: {} substeps over {} base steps",
        sim.stats.substeps,
        sim.stats.steps
    );
    assert!(sim.stats.tree_refreshes > 0 && sim.stats.tree_rebuilds > 0);
}

#[test]
fn one_rank_sn_round_trip_equals_the_shared_memory_driver_at_every_stage() {
    // The star explodes in step 2 (step counter 1), so with latency 2 the
    // prediction — asked for a horizon of 2·dt — is due at counter 3 and
    // lands at the end of the third step: before dispatch (1), in flight
    // (2), just applied (3), and integrated onward (4, 6). The yields go
    // in at the explosion, so `metals` is part of the comparison.
    let ic = slab_ic(300, 80, 1, 2.0e-3, 7);
    for steps in [1, 2, 3, 4, 6] {
        let sim = assert_drivers_agree("one SN", base_cfg(0).sim, &ic, steps);
        assert_eq!(sim.stats.sn_events, (steps >= 2) as u64);
        assert_eq!(sim.stats.regions_applied, (steps >= 3) as u64);
        // At 2 steps both checkpoints held the region, predicted.
        assert_eq!(sim.pending_regions(), (steps == 2) as usize);
        let enriched = sim.particles.iter().filter(|p| p.metals > 0.0).count();
        assert_eq!(enriched > 0, steps >= 2, "{enriched} enriched at {steps}");
    }
}

#[test]
fn one_rank_conventional_sn_equals_the_shared_memory_driver_bitwise() {
    // The conventional scheme's answer to the same SN: thermal injection,
    // then the CFL-adaptive global step collapsing under the heat — the
    // same sequence of shrunken steps on both drivers.
    let ic = slab_ic(300, 80, 1, 2.0e-3, 7);
    let cfg = SimConfig {
        scheme: Scheme::Conventional,
        ..base_cfg(0).sim
    };
    let sim = assert_drivers_agree("conventional SN", cfg, &ic, 4);
    assert_eq!(sim.stats.sn_events, 1);
    assert_eq!(sim.stats.regions_applied, 0, "nothing goes to the pool");
    assert!(
        sim.stats.dt_min_seen < cfg.dt_global / 2.0,
        "the SN must collapse the step: {} vs {}",
        sim.stats.dt_min_seen,
        cfg.dt_global
    );
}

#[test]
fn an_sn_in_an_empty_cube_is_counted_by_both_drivers() {
    // No gas within `region_side / 2` of the star: no region, no yields —
    // but an identified event all the same.
    let mut ic = slab_ic(300, 80, 1, 2.0e-3, 7);
    ic.last_mut().expect("the star").pos = Vec3::new(500.0, 0.0, 0.0);
    let sim = assert_drivers_agree("empty cube", base_cfg(0).sim, &ic, 3);
    assert_eq!(sim.stats.sn_events, 1);
    assert_eq!(sim.stats.regions_applied, 0);
    assert!(sim.particles.iter().all(|p| p.metals == 0.0));
}

#[test]
fn a_blast_straddling_the_domain_cut_deposits_what_the_shared_memory_run_does() {
    // The star sits at x = -10 and the (2,1,1) cut near the median x ≈ 0,
    // so the recipients within `region_side / 2` = 30 pc live on both
    // ranks. Only Σw crosses the cut: every recipient's yields (either
    // scheme) and thermal energy (conventional) match the one-slab run to
    // round-off. The star explodes in the first step, which is all we run
    // — a step so short that what comes back is the post-injection state
    // (the cut also reorders the force sums, which is a drift class, not
    // round-off; over 1e-9 Myr from rest it moves nothing).
    let dt = 1.0e-9;
    let mut ic = slab_ic(300, 80, 1, dt, 7);
    let star = ic.last_mut().expect("the star");
    star.birth_time = dt * 0.5 - astro::lifetime::stellar_lifetime_myr(star.mass);
    let (center, m_star) = (star.pos, star.mass);
    let mut xs: Vec<f64> = ic.iter().map(|p| p.pos.x).collect();
    xs.sort_by(f64::total_cmp);
    let cut = xs[xs.len() / 2];
    let radius = 0.5 * base_cfg(0).sim.region_side;
    let near = |p: &&Particle| p.is_gas() && (p.pos - center).norm() < radius;
    for side in [-1.0, 1.0] {
        let n = ic.iter().filter(near);
        let n = n.filter(|p| (p.pos.x - cut) * side > 3.0).count();
        assert!(n >= 5, "{n} recipients on side {side} of the cut at {cut}");
    }

    for scheme in [Scheme::Surrogate, Scheme::Conventional] {
        let sim_cfg = SimConfig {
            scheme,
            dt_global: dt,
            ..base_cfg(0).sim
        };
        let mut shared = Simulation::new(sim_cfg, ic.clone(), 1);
        shared.run(1);
        shared.particles.sort_by_key(|p| p.id);
        let cfg = DistConfig {
            grid: (2, 1, 1),
            n_pool: 1,
            sim: sim_cfg,
            ..base_cfg(1)
        };
        let report = run_distributed(&cfg, &ic).expect("dist run");
        assert_eq!(report.sn_events, 1, "{scheme:?}");

        let mut recipients = 0;
        for (a, b) in shared.particles.iter().zip(&report.final_state) {
            assert_eq!(a.id, b.id);
            let rel = |x: f64, y: f64| (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            assert!(
                rel(a.metals, b.metals) < 1e-12,
                "{scheme:?}: metals of {} differ: {} vs {}",
                a.id,
                a.metals,
                b.metals
            );
            if a.metals > 0.0 {
                recipients += 1;
                assert!(
                    rel(a.u, b.u) < 1e-12,
                    "{scheme:?}: u of recipient {} differs: {} vs {}",
                    a.id,
                    a.u,
                    b.u
                );
                let heated = b.u > 10.0 * ic[b.id as usize].u;
                assert_eq!(
                    heated,
                    scheme == Scheme::Conventional,
                    "{scheme:?}: {}",
                    b.u
                );
            }
        }
        assert!(recipients >= 10, "{scheme:?}: {recipients} recipients");
        let given: f64 = report.final_state.iter().map(|p| p.metals).sum();
        let expected = astro::yields::SnYield::for_progenitor(m_star).metals();
        assert!(
            (given / expected - 1.0).abs() < 1e-12,
            "{scheme:?}: gas received {given} of {expected} M_sun in metals"
        );
    }
}

const BIN: &str = env!("CARGO_BIN_EXE_asura");

#[test]
fn cli_dist_runs_the_conventional_scheme_it_used_to_refuse() {
    // `--dist` used to reject `--scheme conventional` and to overwrite the
    // scenario's scheme with the surrogate one; under the conventional
    // scheme the SN of `supernova_remnant` heats its neighbours directly
    // and nothing comes back from the pool, however long the run.
    let dir = std::env::temp_dir().join(format!("asura-dist-conv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = std::process::Command::new(BIN)
        .args(["--scenario", "supernova_remnant", "--steps", "8"])
        .args(["--dist", "2x1x1+1", "--scheme", "conventional"])
        .arg("--run-dir")
        .arg(&dir)
        .env_remove(asura_core::faults::FAULTS_ENV)
        .output()
        .expect("spawn asura");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report = std::fs::read_to_string(dir.join("dist_report.json")).expect("report");
    assert!(report.starts_with("{\"steps\":8,\"stats\":{"), "{report}");
    let stats = json::parse_json(&report).and_then(|r| r.get("stats").cloned());
    let count = |key| stats.as_ref().map(|s| s.get(key).and_then(|v| v.as_u64()));
    assert_eq!(count("sn_events"), Ok(Ok(1)), "{report}");
    assert_eq!(count("regions_applied"), Ok(Ok(0)), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--dist` spec the parser refuses is a usage error (exit 2) naming the
/// flag, raised before any run directory exists — a grid whose main-rank
/// count overflows included.
#[test]
fn cli_dist_rejects_bad_specs_as_usage_errors() {
    let root = std::env::temp_dir().join(format!("asura-dist-spec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let overflow = "4294967296x4294967296x1+1";
    for spec in ["0x1x1+1", "2x1x1+0", "2x1+1", "2x1x1", overflow] {
        let output = std::process::Command::new(BIN)
            .args(["--scenario", "quickstart", "--steps", "1", "--dist", spec])
            .arg("--out-dir")
            .arg(&root)
            .arg("--run-dir")
            .arg(root.join("run"))
            .env_remove(asura_core::faults::FAULTS_ENV)
            .output()
            .expect("spawn asura");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{spec}: {stderr}");
        assert!(stderr.contains("--dist"), "{spec}: {stderr}");
        if spec == overflow {
            assert!(stderr.contains("overflow"), "{spec}: {stderr}");
        }
        assert!(!root.exists(), "{spec}: a run directory was created");
    }
}
