//! What the gravity settings of each scenario cost in accuracy, measured
//! where they run: the seed-42 initial conditions of every registered
//! scenario, all of which take the mixed kernel — `dwarf_galaxy` and
//! `quickstart` at `n_group` 256, the lattice scenarios `supernova_remnant`,
//! `sn_shell_conventional` (the same IC) and `spiked_dt` at 64 — each
//! through `GravitySolver` at its own `theta` and `eps`, against the O(N²)
//! f64 direct sum.
//!
//! The tree's opening-angle error dominates; single-precision interaction
//! arithmetic on group-relative coordinates (paper §4.3) must not add to
//! it, and neither may a larger group. Two gates: at the scenario's
//! `n_group`, mixed p99 and max stay within 1.1 × f64's; and on the galaxy
//! ICs, the scenario's `n_group` gives p99 and max no larger than 64 does,
//! on either kernel — a group's list is opened against the group's whole
//! box, so a larger group only adds interactions. Both hold for force and
//! for potential. Every number here is deterministic. Run with
//! `--nocapture` to see the tables.

use asura::astro::units::G;
use asura::scenarios;
use asura_core::SimConfig;
use bench::accuracy::{direct_sum, ErrStats, ForceErrors};
use fdps::Vec3;
use gravity::GravitySolver;

const SEED: u64 = 42;

/// A scenario's IC with its exact forces at every particle.
struct Ic {
    name: &'static str,
    cfg: SimConfig,
    pos: Vec<Vec3>,
    mass: Vec<f64>,
    targets: Vec<usize>,
    exact: Vec<(Vec3, f64)>,
}

impl Ic {
    fn new(name: &'static str) -> Ic {
        let (cfg, particles) = scenarios::find(name).unwrap().build(SEED);
        let pos: Vec<Vec3> = particles.iter().map(|p| p.pos).collect();
        let mass: Vec<f64> = particles.iter().map(|p| p.mass).collect();
        let targets: Vec<usize> = (0..pos.len()).collect();
        let exact = direct_sum(G, &pos, &mass, 2.0 * cfg.eps * cfg.eps, &targets);
        Ic {
            name,
            cfg,
            pos,
            mass,
            targets,
            exact,
        }
    }

    /// Both kernels' errors — `[f64, mixed]` — at group size `n_group`,
    /// through the solver a run with the scenario's config builds (`n_leaf`
    /// 8, as in `asura_core::forces`) with only the group size and the
    /// kernel varied.
    fn errors(&self, n_group: usize) -> [ForceErrors; 2] {
        let errs = [false, true].map(|mixed_precision| {
            let solver = GravitySolver {
                g: G,
                theta: self.cfg.theta,
                n_group,
                n_leaf: 8,
                eps: self.cfg.eps,
                mixed_precision,
            };
            let r = solver.evaluate(&self.pos, &self.mass, self.pos.len());
            ForceErrors::measure(&r.acc, &r.pot, &self.exact, &self.targets)
        });
        println!(
            "{} (seed {SEED}, N {}, theta {}, n_group {n_group}, eps {})",
            self.name,
            self.pos.len(),
            self.cfg.theta,
            self.cfg.eps
        );
        for (kernel, e) in ["f64", "mixed"].iter().zip(&errs) {
            row(kernel, "force", &e.force);
            row(kernel, "pot", &e.pot);
        }
        errs
    }
}

fn row(kernel: &str, quantity: &str, s: &ErrStats) {
    println!(
        "  {kernel:<5} {quantity:<5} p50 {:.3e}  p99 {:.3e}  max {:.3e}",
        s.p50, s.p99, s.max
    );
}

/// Assert `got`'s p99 and max, force and potential, are at most `factor`
/// times `bound`'s.
fn within(what: &str, got: &ForceErrors, bound: &ForceErrors, factor: f64) {
    for (quantity, g, b) in [
        ("force", got.force, bound.force),
        ("pot", got.pot, bound.pot),
    ] {
        for (stat, g, b) in [("p99", g.p99, b.p99), ("max", g.max, b.max)] {
            assert!(
                g <= factor * b,
                "{what} {quantity}: {stat} {g:e} > {factor} × {b:e}"
            );
        }
    }
}

/// Measure both kernels on `scenario`'s IC and gate mixed against f64.
fn mixed_adds_no_error(scenario: &'static str) {
    let ic = Ic::new(scenario);
    let [f64_errs, mixed_errs] = ic.errors(ic.cfg.n_group);
    within(
        &format!("{scenario} mixed vs f64"),
        &mixed_errs,
        &f64_errs,
        1.1,
    );
}

/// Gate `scenario`'s group size against 64 on both kernels.
fn group_size_adds_no_error(scenario: &'static str) {
    let ic = Ic::new(scenario);
    assert_ne!(ic.cfg.n_group, 64, "{scenario} runs its own group size");
    let sized = ic.errors(ic.cfg.n_group);
    let base = ic.errors(64);
    for (kernel, s, b) in [("f64", &sized[0], &base[0]), ("mixed", &sized[1], &base[1])] {
        let what = format!("{scenario} {kernel} n_group {} vs 64", ic.cfg.n_group);
        within(&what, s, b, 1.0);
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

#[test]
fn sn_shell_conventional_mixed_kernel_adds_no_force_error() {
    mixed_adds_no_error("sn_shell_conventional");
}

#[test]
fn spiked_dt_mixed_kernel_adds_no_force_error() {
    mixed_adds_no_error("spiked_dt");
}

#[test]
fn dwarf_galaxy_group_size_adds_no_force_error() {
    group_size_adds_no_error("dwarf_galaxy");
}

#[test]
fn quickstart_group_size_adds_no_force_error() {
    group_size_adds_no_error("quickstart");
}
