//! The two drivers are one computation: `Simulation` and `run_distributed`
//! on a `(1,1,1)` main grid with one pool rank run the same force pipeline
//! and the same integrator (`asura_core::forces`) — the shared-memory side
//! through the empty halo, the distributed side through a halo whose
//! exchanges have nobody to talk to — so their final states and their
//! whole `SimStats` agree to the bit, not to a drift class.

use asura_core::dist::{run_distributed, DistConfig, PredictorKind};
use asura_core::{Particle, Scheme, SimConfig, Simulation, TimestepMode};
use fdps::exchange::Routing;
use fdps::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DT: f64 = 2.0e-3;

/// The `tests/distributed.rs` slab: gas + DM, plus `n_sn_stars` massive
/// stars born so that they explode during the second step.
fn slab_ic(n_gas: usize, n_dm: usize, n_sn_stars: usize) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(7);
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
            DT * 1.5 - life,
        ));
        id += 1;
    }
    out
}

fn slab_cfg(cooling: bool) -> SimConfig {
    SimConfig {
        scheme: Scheme::Surrogate,
        dt_global: DT,
        pool_latency_steps: 2,
        cooling,
        star_formation: false,
        n_ngb: 16,
        eps: 2.0,
        ..Default::default()
    }
}

/// Run `steps` steps through both drivers and hold them against each
/// other. `shared_scheme` is what the shared-memory side is configured
/// with (the distributed driver ignores `SimConfig::scheme`; see the
/// `dist` module docs). Returns the shared-memory run for extra checks.
fn assert_drivers_agree(
    what: &str,
    sim_cfg: SimConfig,
    shared_scheme: Scheme,
    ic: &[Particle],
    steps: usize,
    compare_metals: bool,
) -> Simulation {
    let mut shared = Simulation::new(
        SimConfig {
            scheme: shared_scheme,
            ..sim_cfg
        },
        ic.to_vec(),
        1,
    );
    shared.run(steps);
    let mut expect = shared.particles.clone();
    expect.sort_by_key(|p| p.id);

    let report = run_distributed(
        &DistConfig {
            grid: (1, 1, 1),
            n_pool: 1,
            routing: Routing::Flat,
            sim: sim_cfg,
            steps,
            predictor: PredictorKind::SedovOverlay,
            snapshot_every: 0,
        },
        ic,
    )
    .expect("dist run");

    assert_eq!(report.final_state.len(), expect.len(), "{what}: count");
    let mut differing = 0;
    for (a, b) in expect.iter().zip(&report.final_state) {
        assert_eq!(a.id, b.id, "{what}: id order");
        let same = a.pos == b.pos
            && a.vel == b.vel
            && a.mass == b.mass
            && a.u == b.u
            && a.h == b.h
            && a.rho == b.rho
            && a.exploded == b.exploded
            && (!compare_metals || a.metals == b.metals);
        differing += !same as usize;
    }
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
    shared
}

#[test]
fn global_steps_agree_bitwise_without_cooling() {
    let ic = slab_ic(300, 80, 0);
    let sim = assert_drivers_agree("global", slab_cfg(false), Scheme::Surrogate, &ic, 4, true);
    assert!(sim.stats.gravity_interactions > 0 && sim.stats.hydro_interactions > 0);
}

#[test]
fn global_steps_agree_bitwise_with_cooling() {
    let ic = slab_ic(300, 80, 0);
    assert_drivers_agree(
        "global+cooling",
        slab_cfg(true),
        Scheme::Surrogate,
        &ic,
        4,
        true,
    );
}

#[test]
fn block_substep_walk_agrees_bitwise_on_the_spiked_ic() {
    let (cfg, ic) = asura::scenarios::find("spiked_dt")
        .expect("registered")
        .build(1);
    let cfg = SimConfig {
        timestep: TimestepMode::Block { max_level: 6 },
        ..cfg
    };
    let sim = assert_drivers_agree("block", cfg, Scheme::Conventional, &ic, 2, true);
    assert!(
        sim.stats.substeps > sim.stats.steps,
        "the hierarchy must engage: {} substeps over {} base steps",
        sim.stats.substeps,
        sim.stats.steps
    );
    assert!(sim.stats.tree_refreshes > 0 && sim.stats.tree_rebuilds > 0);
}

#[test]
fn one_sn_through_the_pool_agrees_bitwise_at_every_stage() {
    // The star explodes in step 2 (step counter 1), so with latency 2 the
    // prediction — asked for a horizon of 2·dt — is due at counter 3 and
    // lands at the end of the third step: before dispatch (1), in flight
    // (2), just applied (3), and integrated onward (4, 6).
    //
    // `metals` is left out: the distributed loop injects no
    // nucleosynthesis yields (a distributed `inject_yields` needs a
    // cross-rank Σw; see the `dist` module docs), so 56 of the 381
    // particles differ there by design, not by drift.
    let ic = slab_ic(300, 80, 1);
    for steps in [1, 2, 3, 4, 6] {
        let sim = assert_drivers_agree(
            "one SN",
            slab_cfg(false),
            Scheme::Surrogate,
            &ic,
            steps,
            false,
        );
        assert_eq!(sim.stats.sn_events, (steps >= 2) as u64);
        assert_eq!(sim.stats.regions_applied, (steps >= 3) as u64);
    }
}
