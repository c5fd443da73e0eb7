//! What the mixed-precision gravity kernel costs in accuracy, measured
//! where it runs: the seed-42 initial conditions of `dwarf_galaxy` and
//! `quickstart` (which take the mixed kernel) and of `supernova_remnant`
//! (which stays f64), each through `GravitySolver` at its own `theta`,
//! `n_group` and `eps`, f64 and mixed, against the O(N²) f64 direct sum.
//!
//! The tree's opening-angle error dominates; single-precision interaction
//! arithmetic on group-relative coordinates (paper §4.3) must not add to
//! it. The gate: mixed p99 and max stay within 1.1 × f64's, for force and
//! for potential. Every number here is deterministic. Run with
//! `--nocapture` to see the table.

use asura::astro::units::G;
use asura::scenarios;
use asura_core::SimConfig;
use bench::accuracy::{direct_sum, ErrStats, ForceErrors};
use fdps::Vec3;
use gravity::GravitySolver;

const SEED: u64 = 42;

/// The solver a run with `cfg` evaluates gravity with (`n_leaf` 8, as in
/// `asura_core::forces`), on the chosen kernel.
fn solver(cfg: &SimConfig, mixed_precision: bool) -> GravitySolver {
    GravitySolver {
        g: G,
        theta: cfg.theta,
        n_group: cfg.n_group,
        n_leaf: 8,
        eps: cfg.eps,
        mixed_precision,
    }
}

fn row(kernel: &str, quantity: &str, s: &ErrStats) {
    println!(
        "  {kernel:<5} {quantity:<5} p50 {:.3e}  p99 {:.3e}  max {:.3e}",
        s.p50, s.p99, s.max
    );
}

/// Measure both kernels on `scenario`'s IC and gate mixed against f64.
fn mixed_adds_no_error(scenario: &str) {
    let (cfg, particles) = scenarios::find(scenario).unwrap().build(SEED);
    let pos: Vec<Vec3> = particles.iter().map(|p| p.pos).collect();
    let mass: Vec<f64> = particles.iter().map(|p| p.mass).collect();
    let targets: Vec<usize> = (0..pos.len()).collect();
    let eps2 = 2.0 * cfg.eps * cfg.eps;
    let exact = direct_sum(G, &pos, &mass, eps2, &targets);
    let [f64_errs, mixed_errs] = [false, true].map(|mixed| {
        let r = solver(&cfg, mixed).evaluate(&pos, &mass, pos.len());
        ForceErrors::measure(&r.acc, &r.pot, &exact, &targets)
    });
    println!(
        "{scenario} (seed {SEED}, N {}, theta {}, n_group {}, eps {})",
        pos.len(),
        cfg.theta,
        cfg.n_group,
        cfg.eps
    );
    for (kernel, e) in [("f64", &f64_errs), ("mixed", &mixed_errs)] {
        row(kernel, "force", &e.force);
        row(kernel, "pot", &e.pot);
    }
    for (quantity, f, m) in [
        ("force", f64_errs.force, mixed_errs.force),
        ("pot", f64_errs.pot, mixed_errs.pot),
    ] {
        assert!(
            m.p99 <= 1.1 * f.p99,
            "{scenario} {quantity}: mixed p99 {:e} > 1.1 × f64 p99 {:e}",
            m.p99,
            f.p99
        );
        assert!(
            m.max <= 1.1 * f.max,
            "{scenario} {quantity}: mixed max {:e} > 1.1 × f64 max {:e}",
            m.max,
            f.max
        );
    }
}

#[test]
fn dwarf_galaxy_mixed_kernel_adds_no_force_error() {
    mixed_adds_no_error("dwarf_galaxy");
}

#[test]
fn quickstart_mixed_kernel_adds_no_force_error() {
    mixed_adds_no_error("quickstart");
}

#[test]
fn supernova_remnant_mixed_kernel_adds_no_force_error() {
    mixed_adds_no_error("supernova_remnant");
}
