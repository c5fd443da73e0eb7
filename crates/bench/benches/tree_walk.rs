//! Ablation bench: the SPH smoothing-length iteration's tree-walk
//! economy. (`force_pipeline` times the MAC walks and sweeps the gravity
//! group size; the repo benchmark's traced replay times tree builds and
//! the SPH density and force passes on the real workloads.)
//! Writes the `BENCH_tree_walk.json` trajectory artifact at the repo
//! root: the **gated** `h_iter_walk_ratio` top-level metric, tree walks
//! issued per h-iteration across a density pass whose initial guess is
//! off (the paper's "iterations are usually twice" regime) — the walks a
//! leaf's targets share plus the fallback walks single targets issue past
//! their group's radius. When every trial `h` walked the ratio was 1.0; a
//! per-target candidate cache brought it to 0.40; with one walk per leaf
//! it is the reciprocal of (targets per leaf × iterations per target).

use bench::{BenchDoc, Better};
use fdps::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sph::{HydroState, SphSolver};

/// The mediocre-initial-guess operating point: `h0` well above the
/// converged value, so every particle actually iterates (shrinking h —
/// the case the group list serves without any walk of a target's own).
const H0: f64 = 1.8;

/// A jittered gas lattice at rest: `n_side^3` unit-mass particles at unit
/// spacing (converged `h ~ 1.24` for 64 neighbours), every `h` at the
/// [`H0`] guess.
fn gas_cube_state(n_side: usize) -> HydroState {
    let mut rng = StdRng::seed_from_u64(3);
    let mut pos = Vec::new();
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..n_side {
                pos.push(Vec3::new(
                    i as f64 + rng.gen_range(-0.05..0.05),
                    j as f64 + rng.gen_range(-0.05..0.05),
                    k as f64 + rng.gen_range(-0.05..0.05),
                ));
            }
        }
    }
    let n = pos.len();
    HydroState::new(
        pos,
        vec![Vec3::ZERO; n],
        vec![1.0; n],
        vec![1.0; n],
        vec![H0; n],
    )
}

/// Measure walks / iterations over one mediocre-guess density pass.
fn h_iter_walk_ratio() -> f64 {
    let mut state = gas_cube_state(20);
    let n = state.len();
    let stats = SphSolver::default().density_pass(&mut state, n);
    let walks = stats.group_walks + stats.h_walks;
    let ratio = walks as f64 / stats.h_iterations.max(1) as f64;
    println!(
        "h_iter_walk_ratio: {ratio:.3} ({} group + {} fallback walks / {} iterations, \
         target < 1.0)",
        stats.group_walks, stats.h_walks, stats.h_iterations
    );
    ratio
}

fn main() {
    BenchDoc::new()
        .gated("h_iter_walk_ratio", h_iter_walk_ratio(), Better::Lower)
        .write("BENCH_tree_walk.json");
}
