//! Ablation bench: tree construction cost and the SPH smoothing-length
//! iteration's tree-walk economy. (`force_pipeline` times the MAC walks,
//! the recursive reference against the indexed walk, and sweeps the
//! gravity group size n_g — paper §5.2.4 tunes 2048 on Fugaku, 65,536 on
//! Miyabi — on both kernels, with its accuracy.)
//! Writes the `BENCH_tree_walk.json` trajectory artifact at the repo
//! root, including the **gated** `h_iter_walk_ratio` top-level metric:
//! tree walks issued per h-iteration across a density pass whose initial
//! guess is off (the paper's "iterations are usually twice" regime) —
//! the walks a leaf's targets share plus the fallback walks single
//! targets issue past their group's radius. When every trial `h` walked
//! the ratio was 1.0; a per-target candidate cache brought it to 0.40;
//! with one walk per leaf it is the reciprocal of (targets per leaf ×
//! iterations per target).

use bench::fixtures::cloud;
use bench::{BenchDoc, Better, Records};
use fdps::{Tree, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sph::density::{compute_density_on_tree, density_one_reference, DensityConfig};
use sph::force::{pair_force, HydroAccum, HydroInput};
use sph::{CubicSpline, HydroState, SphKernel, SphScratch, SphSolver};

fn bench_tree_build(records: &mut Records) {
    for n in [10_000usize, 50_000] {
        let (pos, mass) = cloud(n);
        records.time(format!("tree_build/{n}"), 20, || {
            Tree::build(&pos, &mass, 8)
        });
    }
}

/// Jittered gas lattice for the density benches: `n_side^3` particles at
/// unit spacing (converged `h ~ 1.24` for 64 neighbours).
fn gas_cube(n_side: usize) -> (Vec<Vec3>, Vec<f64>) {
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
    let mass = vec![1.0; pos.len()];
    (pos, mass)
}

/// The mediocre-initial-guess operating point: `h0` well above the
/// converged value, so every particle actually iterates (shrinking h —
/// the case the group list serves without any walk of a target's own).
const H0: f64 = 1.8;

/// The gas cube as a hydro state at rest, every `h` at the [`H0`] guess.
fn gas_cube_state(n_side: usize) -> HydroState {
    let (pos, mass) = gas_cube(n_side);
    let n = pos.len();
    HydroState::new(pos, vec![Vec3::ZERO; n], mass, vec![1.0; n], vec![H0; n])
}

fn bench_density_h_iteration(records: &mut Records) {
    let (pos, mass) = gas_cube(20);
    let cfg = DensityConfig::default();
    let kernel = CubicSpline;
    let radii = vec![kernel.support() * H0; pos.len()];
    let tree = Tree::build_with_h(&pos, &mass, Some(&radii), 16);
    let targets: Vec<usize> = (0..pos.len()).collect();
    let h0 = vec![H0; pos.len()];
    let mut h = h0.clone();
    records.time("sph_density_8k_h_iteration/group_lists", 10, || {
        h.copy_from_slice(&h0);
        compute_density_on_tree(&kernel, &cfg, &tree, &pos, &mass, &mut h, &targets)
    });
    let mut scratch = Vec::new();
    records.time(
        "sph_density_8k_h_iteration/walk_per_iteration_reference",
        10,
        || {
            let mut acc = 0.0f64;
            for &i in &targets {
                let r =
                    density_one_reference(&kernel, &cfg, &tree, &pos, &mass, i, H0, &mut scratch);
                acc += r.rho;
            }
            acc
        },
    );
}

/// One force pass over the converged gas cube: the solver's group-list
/// path (tree refresh and input staging included, pool-parallel) against
/// the serial per-particle reference — one walk and one scalar
/// `pair_force` loop over the walk's candidates per target.
fn bench_force_pass(records: &mut Records) {
    let solver = SphSolver::default();
    let mut state = gas_cube_state(20);
    let n = state.len();
    let mut scratch = SphScratch::default();
    solver.density_pass_with(&mut state, n, &mut scratch);
    records.time("sph_force_8k/group_lists", 10, || {
        solver.force_pass_with(&mut state, n, &mut scratch)
    });
    let support = solver.kernel.support();
    let radii: Vec<f64> = state.h.iter().map(|h| support * h).collect();
    let tree = Tree::build_with_h(&state.pos, &state.mass, Some(&radii), 16);
    let inputs: Vec<HydroInput> = (0..n)
        .map(|i| HydroInput {
            pos: state.pos[i],
            vel: state.vel[i],
            mass: state.mass[i],
            h: state.h[i],
            rho: state.rho[i],
            p_over_rho2: solver.eos.p_over_rho2(state.rho[i], state.u[i]),
            cs: solver.eos.sound_speed(state.u[i]),
        })
        .collect();
    let mut ngb = Vec::new();
    records.time("sph_force_8k/per_particle_reference", 10, || {
        let mut acc = 0.0f64;
        for (pi, &radius) in inputs.iter().zip(&radii) {
            ngb.clear();
            tree.neighbors_within(pi.pos, radius, &mut ngb);
            let mut out = HydroAccum::default();
            for &j in &ngb {
                pair_force(
                    &solver.kernel,
                    &solver.visc,
                    pi,
                    &inputs[j as usize],
                    &mut out,
                );
            }
            acc += out.dudt + out.acc.x;
        }
        acc
    });
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
    let mut records = Records::new();
    bench_tree_build(&mut records);
    bench_density_h_iteration(&mut records);
    bench_force_pass(&mut records);
    BenchDoc::new()
        .records(records)
        .gated("h_iter_walk_ratio", h_iter_walk_ratio(), Better::Lower)
        .write("BENCH_tree_walk.json");
}
