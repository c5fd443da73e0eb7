//! Kernel-equivalence property tests: the SIMD compute layer against the
//! retained scalar references, over many seeded random cases (the
//! workspace's proptest stand-in idiom — the failing seed is in every
//! assertion message).
//!
//! Documented tolerances, matching the module docs of each kernel:
//!
//! * gravity monopole, SoA/AVX2 vs AoS f64 — **bitwise** (same lane
//!   structure, same reduction order, exactly-rounded ops only);
//! * gravity mixed precision vs f64 — 1e-5 relative (single-precision
//!   interaction arithmetic is the *point* of that kernel);
//! * SPH batched kernel evaluations vs scalar trait methods — **bitwise**;
//! * SPH `force_batch` vs the `pair_force` loop — 1e-12 relative (the
//!   batch reassociates the neighbour sum across its fixed lanes);
//! * SPH group-list density vs walk-per-iteration reference — `h`,
//!   `n_ngb`, iterations bitwise, `rho` 1e-12 relative;
//! * SPH group-list passes through the solver (full passes with ghosts,
//!   scattered active subsets on a refreshed tree, `h` guesses bad enough
//!   to leave the group radius) vs `density_one_reference` and a
//!   brute-force `pair_force` loop — same tolerances, `v_sig` exact;
//! * SPH group independence — a target's bits do not depend on which
//!   other targets the pass carries: **bitwise**;
//! * SPH pair loops — the dispatched (AVX2) candidate selection, hydro
//!   force body and density row selections vs their portable twins, on
//!   every staged column and output: **bitwise**;
//! * U-Net direct convolution — dispatched (AVX2) body vs portable body vs
//!   the scalar loop nest — **exact** f32 over shapes on every tile edge;
//!   fused ReLU vs `relu(forward)` and the inference forward vs the
//!   training forward — **bitwise**, plus a recorded output hash;
//! * the surrogate's voxel scatter (support-culled, batched through
//!   `w_batch`) vs the per-voxel scalar loop it replaced — **bitwise**,
//!   as a hash of the five fields recorded from that loop;
//! * the force pipeline's staging (gravity j-lists, SPH source columns
//!   and compactions, `ForceBuffers`' refreshes), written by slot since
//!   it stopped pushing element by element — **bitwise**, as recorded
//!   hashes of a gravity pass (f64 and mixed), an SPH full and active
//!   pass, and a Block-mode run, all taken from the push-based loops;
//! * and a Block-mode snapshot restart running the whole SIMD stack,
//!   which must stay bitwise identical to the uninterrupted run.

use asura_core::snapshot::SimSnapshot;
use asura_core::{SimConfig, Simulation, TimestepMode};
use fdps::{Tree, Vec3};
use gravity::kernel::{accumulate_f64, accumulate_f64_soa, accumulate_mixed_staged, GravityAccum};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sph::density::{
    compute_density_on_tree, density_one_reference, DensityConfig, DensitySources, NeighborCache,
};
use sph::force::{
    force_batch, force_batch_portable, pair_force, ForceBatch, ForceSources, HydroAccum,
    HydroInput, Viscosity,
};
use sph::{CubicSpline, HydroState, SphKernel, SphScratch, SphSolver, WendlandC2};
use unet::conv::Conv3d;
use unet::{Tensor, UNet3d, UNetConfig};

const CASES: u64 = 24;

fn random_cloud(rng: &mut StdRng, n: usize, limit: f64) -> (Vec<Vec3>, Vec<f64>) {
    let pos = (0..n)
        .map(|_| {
            Vec3::new(
                rng.gen_range(-limit..limit),
                rng.gen_range(-limit..limit),
                rng.gen_range(-limit..limit),
            )
        })
        .collect();
    let mass = (0..n).map(|_| rng.gen_range(0.1..3.0)).collect();
    (pos, mass)
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-300)
}

/// The dispatched SoA monopole kernel (AVX2 where the host has it) is
/// bitwise identical to the scalar AoS reference for any cloud, any
/// softening, any list length (including remainder-lane lengths).
#[test]
fn gravity_soa_kernel_is_bitwise_equal_to_aos_reference() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_i = rng.gen_range(1..20);
        let n_j = rng.gen_range(1..300);
        let eps2 = if seed % 3 == 0 { 0.0 } else { 1e-4 };
        let (jpos, jm) = random_cloud(&mut rng, n_j, 5.0);
        let (ipos, _) = random_cloud(&mut rng, n_i, 5.0);
        let mut aos = vec![GravityAccum::default(); n_i];
        accumulate_f64(&ipos, &jpos, &jm, eps2, &mut aos);
        let jx: Vec<f64> = jpos.iter().map(|p| p.x).collect();
        let jy: Vec<f64> = jpos.iter().map(|p| p.y).collect();
        let jz: Vec<f64> = jpos.iter().map(|p| p.z).collect();
        let mut soa = vec![GravityAccum::default(); n_i];
        accumulate_f64_soa(&ipos, &jx, &jy, &jz, &jm, eps2, &mut soa);
        for (i, (a, s)) in aos.iter().zip(&soa).enumerate() {
            assert!(
                a.acc.x.to_bits() == s.acc.x.to_bits()
                    && a.acc.y.to_bits() == s.acc.y.to_bits()
                    && a.acc.z.to_bits() == s.acc.z.to_bits()
                    && a.pot.to_bits() == s.pot.to_bits(),
                "seed {seed}, i {i}: {a:?} vs {s:?}"
            );
        }
    }
}

/// The mixed-precision kernel tracks f64 to single-precision relative
/// accuracy even when the group sits far from the coordinate origin.
#[test]
fn gravity_mixed_kernel_tracks_f64_to_single_precision() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let origin = Vec3::new(
            rng.gen_range(-1e5..1e5),
            rng.gen_range(-1e5..1e5),
            rng.gen_range(-1e5..1e5),
        );
        let n_j = rng.gen_range(32..300);
        let (jrel, jm) = random_cloud(&mut rng, n_j, 2.0);
        let jpos: Vec<Vec3> = jrel.iter().map(|&p| origin + p).collect();
        let (irel, _) = random_cloud(&mut rng, 8, 2.0);
        let ipos: Vec<Vec3> = irel.iter().map(|&p| origin + p).collect();
        let mut exact = vec![GravityAccum::default(); ipos.len()];
        accumulate_f64(&ipos, &jpos, &jm, 1e-4, &mut exact);
        let jx: Vec<f32> = jpos.iter().map(|p| (p.x - origin.x) as f32).collect();
        let jy: Vec<f32> = jpos.iter().map(|p| (p.y - origin.y) as f32).collect();
        let jz: Vec<f32> = jpos.iter().map(|p| (p.z - origin.z) as f32).collect();
        let jmf: Vec<f32> = jm.iter().map(|&m| m as f32).collect();
        let mut mixed = vec![GravityAccum::default(); ipos.len()];
        accumulate_mixed_staged(origin, &ipos, &jx, &jy, &jz, &jmf, 1e-4, &mut mixed);
        for (i, (e, m)) in exact.iter().zip(&mixed).enumerate() {
            let r = (e.acc - m.acc).norm() / e.acc.norm().max(1e-12);
            assert!(r < 1e-5, "seed {seed}, i {i}: acc rel err {r}");
            assert!(rel(e.pot, m.pot) < 1e-5, "seed {seed}, i {i}: pot");
        }
    }
}

/// The batched SPH kernel evaluations are bitwise equal to the scalar
/// trait methods for every kernel shape the solver can be configured with.
#[test]
fn sph_batched_kernel_evaluations_are_bitwise_scalar() {
    let kernels: [&dyn SphKernel; 2] = [&CubicSpline, &WendlandC2];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let n = rng.gen_range(1..97);
        let h = rng.gen_range(0.3..2.5);
        let r: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..3.5 * h)).collect();
        let hj: Vec<f64> = (0..n).map(|_| rng.gen_range(0.3..2.5)).collect();
        for kernel in kernels {
            let mut w = vec![0.0; n];
            let mut dw = vec![0.0; n];
            let mut dwp = vec![0.0; n];
            kernel.w_batch(&r, h, &mut w);
            kernel.dwdr_batch(&r, h, &mut dw);
            kernel.dwdr_batch_per_h(&r, &hj, &mut dwp);
            for i in 0..n {
                assert_eq!(w[i].to_bits(), kernel.w(r[i], h).to_bits(), "seed {seed}");
                assert_eq!(
                    dw[i].to_bits(),
                    kernel.dwdr(r[i], h).to_bits(),
                    "seed {seed}"
                );
                assert_eq!(
                    dwp[i].to_bits(),
                    kernel.dwdr(r[i], hj[i]).to_bits(),
                    "seed {seed}"
                );
            }
        }
    }
}

/// `force_batch` over a random candidate span (the target itself
/// included, as the tree walk ships it) agrees with the `pair_force` loop
/// to 1e-12.
#[test]
fn sph_force_batch_matches_pair_force_loop() {
    let kernel = CubicSpline;
    let visc = Viscosity::default();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let n = rng.gen_range(2..80);
        let inputs: Vec<HydroInput> = (0..n)
            .map(|_| {
                let rho = rng.gen_range(0.5..4.0);
                let p = rng.gen_range(0.1..2.0);
                HydroInput {
                    pos: Vec3::new(
                        rng.gen_range(-2.0..2.0),
                        rng.gen_range(-2.0..2.0),
                        rng.gen_range(-2.0..2.0),
                    ),
                    vel: Vec3::new(
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ),
                    mass: rng.gen_range(0.2..2.0),
                    h: rng.gen_range(0.6..1.8),
                    rho,
                    p_over_rho2: p / (rho * rho),
                    cs: rng.gen_range(0.5..3.0),
                }
            })
            .collect();
        let everyone = [(0, n as u32)];
        let mut sources = ForceSources::default();
        sources.fill(inputs.iter().copied());
        let mut batch = ForceBatch::default();
        for i in 0..n {
            let mut reference = HydroAccum::default();
            for j in 0..n {
                if i != j {
                    pair_force(&kernel, &visc, &inputs[i], &inputs[j], &mut reference);
                }
            }
            let mut batched = HydroAccum::default();
            batch.stage(kernel.support(), &inputs[i], &sources, &everyone);
            force_batch(
                &kernel,
                &visc,
                &inputs[i],
                &sources,
                &mut batch,
                &mut batched,
            );
            for (a, b, what) in [
                (reference.acc.x, batched.acc.x, "acc.x"),
                (reference.acc.y, batched.acc.y, "acc.y"),
                (reference.acc.z, batched.acc.z, "acc.z"),
                (reference.dudt, batched.dudt, "dudt"),
                (reference.v_sig_max, batched.v_sig_max, "v_sig"),
            ] {
                assert!(
                    rel(a, b) < 1e-12 || (a - b).abs() < 1e-300,
                    "seed {seed}, i {i}, {what}: {a} vs {b}"
                );
            }
        }
    }
}

/// Group-list density iteration reproduces the walk-per-iteration
/// reference: identical integer trajectory (`h` to the bit, `n_ngb`,
/// iteration count), `rho` to lane reassociation, never more walks than
/// iterations.
#[test]
fn sph_grouped_density_matches_walk_per_iteration_reference() {
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(400 + seed);
        let (pos, mass) = random_cloud(&mut rng, 600, 4.0);
        let kernel = CubicSpline;
        let cfg = DensityConfig::default();
        let h0 = rng.gen_range(0.4..2.5);
        let radii = vec![kernel.support() * h0; pos.len()];
        let tree = Tree::build_with_h(&pos, &mass, Some(&radii), 16);
        let targets: Vec<usize> = (0..pos.len()).collect();
        let mut h = vec![h0; pos.len()];
        let grouped = compute_density_on_tree(&kernel, &cfg, &tree, &pos, &mass, &mut h, &targets);
        let mut scratch = Vec::new();
        for (i, c) in grouped.iter().enumerate() {
            let r = density_one_reference(&kernel, &cfg, &tree, &pos, &mass, i, h0, &mut scratch);
            assert_eq!(c.h.to_bits(), r.h.to_bits(), "seed {seed}, i {i}: h");
            assert_eq!(c.n_ngb, r.n_ngb, "seed {seed}, i {i}: n_ngb");
            assert_eq!(c.iterations, r.iterations, "seed {seed}, i {i}: iterations");
            assert!(c.walks <= c.iterations, "seed {seed}, i {i}: walk count");
            assert!(rel(c.rho, r.rho) < 1e-12, "seed {seed}, i {i}: rho");
        }
    }
}

/// A random gas cloud with a velocity field, thermal energies and a
/// uniform smoothing-length guess.
fn gas_state(rng: &mut StdRng, n: usize, h_guess: f64) -> HydroState {
    let (pos, mass) = random_cloud(rng, n, 4.0);
    let vel = random_cloud(rng, n, 1.0).0;
    let u = (0..n).map(|_| rng.gen_range(0.2..3.0)).collect();
    HydroState::new(pos, vel, mass, u, vec![h_guess; n])
}

/// `after` holds the density pass's output for `targets`, `before` the
/// state it started from: hold every target against the scalar reference
/// on an independently built tree (the trajectory is set-driven, so any
/// valid tree over the same positions must reproduce it to the bit).
fn assert_density_matches_reference(
    solver: &SphSolver,
    before: &HydroState,
    after: &HydroState,
    targets: &[usize],
    what: &str,
) {
    let radii: Vec<f64> = before
        .h
        .iter()
        .map(|h| solver.kernel.support() * h)
        .collect();
    let tree = Tree::build_with_h(&before.pos, &before.mass, Some(&radii), 16);
    let mut scratch = Vec::new();
    for &i in targets {
        let r = density_one_reference(
            &solver.kernel,
            &solver.density_cfg,
            &tree,
            &before.pos,
            &before.mass,
            i,
            before.h[i],
            &mut scratch,
        );
        assert_eq!(after.h[i].to_bits(), r.h.to_bits(), "{what}, i {i}: h");
        assert_eq!(after.n_ngb[i] as usize, r.n_ngb, "{what}, i {i}: n_ngb");
        assert!(rel(after.rho[i], r.rho) < 1e-12, "{what}, i {i}: rho");
    }
}

/// Hold the force pass's output for `targets` against a brute-force
/// `pair_force` loop over every other particle of the state; returns the
/// number of interacting pairs that loop found.
fn assert_force_matches_pair_loop(
    solver: &SphSolver,
    state: &HydroState,
    targets: &[usize],
    what: &str,
) -> u64 {
    let inputs: Vec<HydroInput> = (0..state.len())
        .map(|i| {
            let rho = state.rho[i].max(1e-300);
            HydroInput {
                pos: state.pos[i],
                vel: state.vel[i],
                mass: state.mass[i],
                h: state.h[i],
                rho,
                p_over_rho2: solver.eos.p_over_rho2(rho, state.u[i]),
                cs: solver.eos.sound_speed(state.u[i]),
            }
        })
        .collect();
    let mut pairs = 0;
    for &i in targets {
        let mut reference = HydroAccum::default();
        for j in (0..inputs.len()).filter(|&j| j != i) {
            let reach = solver.kernel.support() * inputs[i].h.max(inputs[j].h);
            let r = (inputs[i].pos - inputs[j].pos).norm();
            pairs += (r > 0.0 && r < reach) as u64;
            pair_force(
                &solver.kernel,
                &solver.visc,
                &inputs[i],
                &inputs[j],
                &mut reference,
            );
        }
        let scale = reference.acc.norm().max(1e-300);
        assert!(
            (state.acc[i] - reference.acc).norm() / scale < 1e-12,
            "{what}, i {i}: acc {:?} vs {:?}",
            state.acc[i],
            reference.acc
        );
        assert!(
            rel(state.dudt[i], reference.dudt) < 1e-12
                || (state.dudt[i] - reference.dudt).abs() < 1e-12 * scale,
            "{what}, i {i}: dudt {} vs {}",
            state.dudt[i],
            reference.dudt
        );
        assert_eq!(
            state.v_sig[i].to_bits(),
            reference.v_sig_max.to_bits(),
            "{what}, i {i}: v_sig is a max over the same pair set"
        );
    }
    pairs
}

/// The solver's group-list passes against the per-particle references in
/// every shape the drivers use them: a full pass over a state with ghosts
/// (`n_local < len`), scattered active subsets on a tree refreshed after
/// a drift, and a smoothing-length guess bad enough that targets leave
/// their group's radius and walk on their own.
#[test]
fn sph_grouped_passes_match_the_per_particle_references() {
    let solver = SphSolver::default();
    for seed in 0..6 {
        let mut rng = StdRng::seed_from_u64(600 + seed);
        let n = rng.gen_range(300..700);
        let h_guess = rng.gen_range(0.5..1.5);
        let mut state = gas_state(&mut rng, n, h_guess);
        let mut scratch = SphScratch::default();

        // Ghosts arrive with owner-computed h and rho: converge everyone
        // once, then treat the tail as ghosts.
        solver.density_pass_with(&mut state, n, &mut scratch);
        let n_local = 2 * n / 3;
        let locals: Vec<usize> = (0..n_local).collect();
        let before = state.clone();
        let d = solver.density_pass_with(&mut state, n_local, &mut scratch);
        let what = format!("seed {seed}, full pass with ghosts");
        assert_density_matches_reference(&solver, &before, &state, &locals, &what);
        let counted: u64 = locals.iter().map(|&i| state.n_ngb[i] as u64).sum();
        assert_eq!(d.density_interactions, counted, "{what}");
        for i in n_local..n {
            assert_eq!(
                state.h[i].to_bits(),
                before.h[i].to_bits(),
                "{what}: ghost h"
            );
            assert_eq!(state.rho[i].to_bits(), before.rho[i].to_bits(), "{what}");
        }
        let f = solver.force_pass_with(&mut state, n_local, &mut scratch);
        let pairs = assert_force_matches_pair_loop(&solver, &state, &locals, &what);
        assert_eq!(f.force_interactions, pairs, "{what}: in-support pair count");
        assert!(
            state.acc[n_local..].iter().all(|a| *a == Vec3::ZERO),
            "{what}"
        );

        // Substep: everyone drifts, a scattered subset is active, the
        // passes refresh the cached topology instead of rebuilding.
        for i in 0..n {
            let v = state.vel[i];
            state.pos[i] += v * 0.02;
        }
        let active: Vec<usize> = (0..n_local)
            .filter(|i| i % 7 == seed as usize % 7 || i % 11 == 3)
            .collect();
        let (refreshes, _) = scratch.tree_counts();
        let before = state.clone();
        solver.density_pass_active(&mut state, &active, &mut scratch);
        let what = format!("seed {seed}, active subset on a refreshed tree");
        assert_density_matches_reference(&solver, &before, &state, &active, &what);
        let f = solver.force_pass_active(&mut state, &active, &mut scratch);
        let pairs = assert_force_matches_pair_loop(&solver, &state, &active, &what);
        assert_eq!(f.force_interactions, pairs, "{what}");
        assert_eq!(
            scratch.tree_counts().0,
            refreshes + 2,
            "{what}: both refresh"
        );

        // A guess 8x too small: support * h doubles per iteration and
        // leaves the group radius, forcing the per-target fallback walk.
        for &i in &active {
            state.h[i] *= 0.125;
        }
        let before = state.clone();
        let d = solver.density_pass_active(&mut state, &active, &mut scratch);
        let what = format!("seed {seed}, bad h guess");
        assert!(d.h_walks > 0, "{what}: nobody left the group radius");
        assert!(d.h_iterations > 2 * active.len() as u64, "{what}");
        assert_density_matches_reference(&solver, &before, &state, &active, &what);
    }
}

/// Group independence, bitwise: a target's density and force results do
/// not depend on which other targets the pass carries — so neither on the
/// bounding box and walk radius of the group it lands in, nor on where a
/// work chunk ends. Run the active passes on `S` and on `S' ⊃ S` from the
/// same state and the same cached tree.
#[test]
fn sph_results_do_not_depend_on_the_rest_of_the_group() {
    let solver = SphSolver::default();
    for seed in 0..6 {
        let mut rng = StdRng::seed_from_u64(700 + seed);
        let n = rng.gen_range(400..900);
        let h_guess = rng.gen_range(0.4..1.2);
        let mut state = gas_state(&mut rng, n, h_guess);
        let mut scratch = SphScratch::default();
        solver.density_pass_with(&mut state, n, &mut scratch);
        solver.force_pass_with(&mut state, n, &mut scratch);
        for i in 0..n {
            let v = state.vel[i];
            state.pos[i] += v * 0.01;
            // Perturbed guesses, some of them far enough off to iterate.
            state.h[i] *= [1.0, 0.7, 1.4, 0.3][i % 4];
        }
        let small: Vec<usize> = (0..n).filter(|i| i % 9 == 2).collect();
        let large: Vec<usize> = (0..n).filter(|i| i % 9 == 2 || i % 2 == 0).collect();

        let (mut a, mut b) = (state.clone(), state.clone());
        let (mut scratch_a, mut scratch_b) = (scratch.clone(), scratch.clone());
        solver.density_pass_active(&mut a, &small, &mut scratch_a);
        solver.density_pass_active(&mut b, &large, &mut scratch_b);
        for &i in &small {
            assert_eq!(a.h[i].to_bits(), b.h[i].to_bits(), "seed {seed}, i {i}: h");
            assert_eq!(a.n_ngb[i], b.n_ngb[i], "seed {seed}, i {i}: n_ngb");
            assert_eq!(
                a.rho[i].to_bits(),
                b.rho[i].to_bits(),
                "seed {seed}, i {i}: rho"
            );
        }

        // The force pass reads its neighbours' h and rho, so start both
        // sides from one state again.
        let (mut a, mut b) = (b.clone(), b);
        solver.force_pass_active(&mut a, &small, &mut scratch_a);
        solver.force_pass_active(&mut b, &large, &mut scratch_b);
        for &i in &small {
            assert_eq!(a.acc[i], b.acc[i], "seed {seed}, i {i}: acc");
            assert_eq!(
                a.dudt[i].to_bits(),
                b.dudt[i].to_bits(),
                "seed {seed}, i {i}"
            );
            assert_eq!(
                a.v_sig[i].to_bits(),
                b.v_sig[i].to_bits(),
                "seed {seed}, i {i}"
            );
        }
    }
}

/// Seeded inputs for the dispatched-vs-portable SPH test: `n` sources
/// whose smoothing lengths and sound speeds come from a few exact binary
/// values (so boundaries are exact and signal velocities tie), with the
/// target at `t`. When `at_origin`, the target sits at the origin and
/// rows are planted on the axes: a duplicate of the target's position,
/// rows at exactly its own and at their own reach, and rows whose
/// velocity difference is perpendicular to the separation so that
/// `vdotr` is `+0.0` or `-0.0`.
fn boundary_cloud(rng: &mut StdRng, n: usize, t: usize, at_origin: bool) -> Vec<HydroInput> {
    let support = CubicSpline.support();
    let mut inputs: Vec<HydroInput> = (0..n)
        .map(|_| {
            let rho = rng.gen_range(0.5..4.0);
            HydroInput {
                pos: Vec3::new(
                    rng.gen_range(-1.5..1.5),
                    rng.gen_range(-1.5..1.5),
                    rng.gen_range(-1.5..1.5),
                ),
                vel: Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ),
                mass: rng.gen_range(0.2..2.0),
                h: [0.25, 0.5, 0.75, 1.0][rng.gen_range(0..4usize)],
                rho,
                p_over_rho2: rng.gen_range(0.1..2.0) / (rho * rho),
                cs: [0.5, 1.0][rng.gen_range(0..2usize)],
            }
        })
        .collect();
    if !at_origin {
        return inputs;
    }
    inputs[t].pos = Vec3::ZERO;
    inputs[t].vel = Vec3::ZERO;
    let hi = inputs[t].h;
    for j in (0..n).filter(|&j| j != t) {
        let p = &mut inputs[j];
        let axis = match j % 5 {
            0 => Some(0.0),                         // coincident with the target
            1 => Some(support * p.h),               // at its own reach
            2 => Some(-support * hi),               // at the target's reach
            3 => Some(rng.gen_range(0.1..support)), // anywhere on the axis
            _ => None,
        };
        if let Some(x) = axis {
            p.pos = Vec3::new(x, 0.0, 0.0);
            // `d` lies along x and `dv` has no x part: `vdotr` is -0.0
            // for a source at +x moving with +y, +z, and +0.0 otherwise.
            let s = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            p.vel = Vec3::new(0.0, s, s);
        }
    }
    inputs
}

/// The AVX2 bodies of both SPH passes — the force pass's candidate
/// selection and pair body, the density pass's row selection and its
/// in-support selection, run where the host has AVX2 — equal their
/// portable twins on every staged column (`near`, `r2`, `r`, `hj`, the
/// density rows) and every output bit (`acc`, `dudt`, `v_sig_max`,
/// `rho`, `n_ngb`). The cases cover spans of every length 0–9 (so every
/// tail length and empty spans), `r2 == 0` rows (the target itself and a
/// duplicate position), rows exactly at `reach²` and at
/// `support · max(h_i, h_j)`, approaching and receding pairs and
/// `vdotr == ±0.0`, and equal `v_sig` across lanes.
#[test]
fn sph_dispatched_bodies_match_portable_bitwise() {
    let kernel = CubicSpline;
    let visc = Viscosity::default();
    let support = kernel.support();
    let mut span_lengths = [false; 10];
    let mut seen = [0usize; 7];
    let (mut sources, mut density_sources) = (ForceSources::default(), DensitySources::default());
    let (mut fast, mut slow) = (ForceBatch::default(), ForceBatch::default());
    let (mut fast_rows, mut slow_rows) = (NeighborCache::default(), NeighborCache::default());
    for seed in 0..4 * CASES {
        let mut rng = StdRng::seed_from_u64(2900 + seed);
        let n: usize = rng.gen_range(12..48);
        let t = rng.gen_range(0..n);
        let inputs = boundary_cloud(&mut rng, n, t, seed % 2 == 0);
        let pi = inputs[t];
        sources.fill(inputs.iter().copied());
        let pos: Vec<Vec3> = inputs.iter().map(|p| p.pos).collect();
        let mass: Vec<f64> = inputs.iter().map(|p| p.mass).collect();
        density_sources.fill(&Tree::build_with_h(&pos, &mass, None, 4), &pos, &mass);

        // A few short spans in ascending order, one of length `seed % 10`,
        // and then the whole list as one span.
        let mut short = Vec::new();
        let mut start = 0u32;
        for k in 0..rng.gen_range(1..5) {
            let len = if k == 0 {
                seed as u32 % 10
            } else {
                rng.gen_range(0..10u32)
            };
            let s = (start + rng.gen_range(0..3u32)).min(n as u32);
            let e = (s + len).min(n as u32);
            span_lengths[(e - s) as usize] = true;
            short.push((s, e));
            start = e;
        }
        for spans in [&short[..], &[(0, n as u32)]] {
            let case = format!("seed {seed}, spans {spans:?}");
            fast.stage(support, &pi, &sources, spans);
            slow.stage_portable(support, &pi, &sources, spans);
            let (a, b) = (fast.staged(), slow.staged());
            assert_eq!(a.0, b.0, "{case}: near");
            for (what, x, y) in [("r2", a.1, b.1), ("r", a.2, b.2), ("hj", a.3, b.3)] {
                assert_eq!(x.len(), y.len(), "{case}: {what}");
                for (q, (x, y)) in x.iter().zip(y).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{case}: {what}[{q}]");
                }
            }

            // What the staged pairs exercise.
            let mut receding_cs = Vec::new();
            for (q, &k) in a.0.iter().enumerate() {
                let pj = &inputs[k as usize];
                let d = pi.pos - pj.pos;
                let vdotr = (pi.vel - pj.vel).dot(d);
                seen[0] += (vdotr < 0.0) as usize;
                seen[1] += (vdotr > 0.0) as usize;
                seen[2] += (vdotr == 0.0) as usize;
                if vdotr >= 0.0 {
                    receding_cs.push(pj.cs.to_bits());
                }
                seen[3] += (a.1[q] == (support * pj.h).powi(2)) as usize;
            }
            receding_cs.sort_unstable();
            seen[4] += receding_cs.windows(2).filter(|w| w[0] == w[1]).count();
            for &(s, e) in spans {
                for pj in &inputs[s as usize..e as usize] {
                    let d2 = (pi.pos - pj.pos).norm2();
                    seen[5] += (d2 == 0.0) as usize;
                    let edge = support * pi.h.max(pj.h);
                    seen[6] += (d2.sqrt() == edge) as usize;
                }
            }

            let (mut x, mut y) = (HydroAccum::default(), HydroAccum::default());
            force_batch(&kernel, &visc, &pi, &sources, &mut fast, &mut x);
            force_batch_portable(&kernel, &visc, &pi, &sources, &mut slow, &mut y);
            for (what, x, y) in [
                ("acc.x", x.acc.x, y.acc.x),
                ("acc.y", x.acc.y, y.acc.y),
                ("acc.z", x.acc.z, y.acc.z),
                ("dudt", x.dudt, y.dudt),
                ("v_sig_max", x.v_sig_max, y.v_sig_max),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "{case}: {what}");
            }

            let radius = support * pi.h;
            fast_rows.stage_rows(&density_sources, spans, pi.pos, radius);
            slow_rows.stage_rows_portable(&density_sources, spans, pi.pos, radius);
            let (a, b) = (fast_rows.rows(), slow_rows.rows());
            for (what, x, y) in [("r", a.0, b.0), ("m", a.1, b.1)] {
                assert_eq!(x.len(), y.len(), "{case}: density {what}");
                for (q, (x, y)) in x.iter().zip(y).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{case}: density {what}[{q}]");
                }
            }
            for rad in [radius, 0.5 * radius, pi.h] {
                let x = fast_rows.sum_density(&kernel, pi.h, rad);
                let y = slow_rows.sum_density_portable(&kernel, pi.h, rad);
                assert_eq!(x.0.to_bits(), y.0.to_bits(), "{case}: rho at {rad}");
                assert_eq!(x.1, y.1, "{case}: n_ngb at {rad}");
            }
        }
    }
    assert!(
        span_lengths.iter().all(|&s| s),
        "span lengths {span_lengths:?}"
    );
    let names = [
        "approaching",
        "receding",
        "vdotr == ±0",
        "at reach_j²",
        "equal v_sig",
        "r2 == 0",
        "at support·max(h)",
    ];
    for (name, count) in names.iter().zip(seen) {
        assert!(count > 0, "no case exercised {name}");
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    json::fnv1a(&bytes)
}

/// Three Plummer-like clumps of different richness and size inside a
/// sparse uniform halo, so group lists range from mostly individual
/// particles to mostly monopoles.
fn clustered_cloud(seed: u64) -> (Vec<Vec3>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pos = Vec::new();
    for (center, scale, n) in [
        (Vec3::new(-6.0, 1.0, 0.5), 0.4, 1200),
        (Vec3::new(5.0, -2.0, 1.0), 0.8, 700),
        (Vec3::new(0.5, 6.0, -4.0), 0.2, 300),
    ] {
        for _ in 0..n {
            let r = scale / (rng.gen_range(0.02f64..1.0).powf(-2.0 / 3.0) - 1.0).sqrt();
            let dir = Vec3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            );
            pos.push(center + dir * (r / dir.norm().max(1e-3)));
        }
    }
    for _ in 0..150 {
        pos.push(Vec3::new(
            rng.gen_range(-12.0..12.0),
            rng.gen_range(-12.0..12.0),
            rng.gen_range(-12.0..12.0),
        ));
    }
    let mass = (0..pos.len()).map(|_| rng.gen_range(0.5..2.0)).collect();
    (pos, mass)
}

/// Gravity evaluations through the solver's group staging, f64 and mixed
/// precision, hashed over the bits of `acc` and `pot`: the clustered
/// cloud, whose groups range from mostly individual particles (EP) to
/// mostly monopoles (SP), and the first 60 particles of its first clump:
/// one group whose list is EP only (every node overlaps a box around the
/// whole system, so none is accepted as a monopole). Both staging halves
/// and the EP-then-SP boundary are exercised. Recorded before the
/// staging loops were rewritten to write by slot; they must not move.
#[test]
fn gravity_pass_bits_are_pinned() {
    use fdps::walk::{InteractionList, WalkScratch};
    use gravity::GravitySolver;
    let (pos, mass) = clustered_cloud(2800);
    let solver = GravitySolver {
        theta: 0.5,
        n_group: 64,
        eps: 0.01,
        ..Default::default()
    };
    let mut hashes = Vec::new();
    for (pos, mass) in [(&pos[..], &mass[..]), (&pos[..60], &mass[..60])] {
        let tree = Tree::build(pos, mass, solver.n_leaf);
        let index = tree.walk_index();
        let (mut walk, mut list) = (WalkScratch::default(), InteractionList::default());
        let (mut ep_only, mut ep_heavy, mut sp_heavy) = (0, 0, 0);
        for g in tree.groups(solver.n_group) {
            let bbox = &tree.nodes[g].bbox;
            tree.walk_mac_indexed(&index, bbox, solver.theta, &mut walk, &mut list);
            ep_only += list.sp.is_empty() as usize;
            ep_heavy += (!list.sp.is_empty() && list.ep.len() > list.sp.len()) as usize;
            sp_heavy += (list.sp.len() > list.ep.len()) as usize;
        }
        let kinds = format!("{ep_only} EP-only, {ep_heavy} EP-heavy, {sp_heavy} SP-heavy");
        if pos.len() > solver.n_group {
            assert!(ep_heavy > 0 && sp_heavy > 0, "{kinds}");
        } else {
            assert_eq!((ep_only, ep_heavy, sp_heavy), (1, 0, 0), "{kinds}");
        }
        for mixed_precision in [false, true] {
            let solver = GravitySolver {
                mixed_precision,
                ..solver
            };
            let (mut acc, mut pot) = (Vec::new(), Vec::new());
            let n_local = pos.len() - pos.len() / 20;
            solver.evaluate_into_indexed(&tree, &index, pos, mass, n_local, &mut acc, &mut pot);
            let words = acc.iter().flat_map(|a| [a.x, a.y, a.z]).chain(pot);
            hashes.push(hash_words(words.map(f64::to_bits)));
        }
    }
    assert_eq!(
        hashes,
        [
            0xf47c_96c8_ff85_d6e0,
            0xb82a_6bd2_9e32_f170,
            0x0bbf_455d_4489_9b62,
            0x77e3_a89e_5f99_6181
        ],
        "gravity staging no longer reproduces the recorded bits"
    );
}

/// Hash the outputs of the SPH passes for `targets`.
fn hydro_hash(state: &HydroState, targets: &[usize]) -> u64 {
    hash_words(targets.iter().flat_map(|&i| {
        let (a, rho, h) = (state.acc[i], state.rho[i], state.h[i]);
        [rho, h, a.x, a.y, a.z, state.dudt[i], state.v_sig[i]]
            .map(f64::to_bits)
            .into_iter()
            .chain([state.n_ngb[i] as u64])
    }))
}

/// One full density + force pass (with ghosts), then an active density +
/// force pass on a scattered subset after a drift, hashed over `rho`,
/// `h`, `n_ngb`, `acc`, `dudt` and `v_sig`. Recorded before the SPH
/// staging loops were rewritten to write by slot; they must not move.
#[test]
fn sph_pass_bits_are_pinned() {
    let solver = SphSolver::default();
    let mut rng = StdRng::seed_from_u64(2810);
    let n = 900;
    let mut state = gas_state(&mut rng, n, 0.9);
    let mut scratch = SphScratch::default();
    let n_local = n - 120;
    solver.density_pass_with(&mut state, n_local, &mut scratch);
    solver.force_pass_with(&mut state, n_local, &mut scratch);
    let locals: Vec<usize> = (0..n_local).collect();
    let full = hydro_hash(&state, &locals);

    for i in 0..n {
        let v = state.vel[i];
        state.pos[i] += v * 0.015;
    }
    let active: Vec<usize> = (0..n_local).filter(|i| i % 5 == 1 || i % 13 == 0).collect();
    solver.density_pass_active(&mut state, &active, &mut scratch);
    solver.force_pass_active(&mut state, &active, &mut scratch);
    let subset = hydro_hash(&state, &active);
    assert_eq!(
        [full, subset],
        [0x440d_f714_26a1_5535, 0xe263_fd5f_2e49_cfb0],
        "SPH staging no longer reproduces the recorded bits"
    );
}

/// A Block-mode run of `spiked_dt` — base-step and substep force
/// evaluations through `ForceBuffers`' staging — hashed over every
/// particle field the forces move. Recorded before the staging loops
/// were rewritten to write by slot; it must not move. It guards the f64
/// staging loops, so it runs the f64 kernel the scenario ran when it was
/// recorded.
#[test]
fn block_mode_run_bits_are_pinned() {
    let (cfg, particles) = asura::scenarios::find("spiked_dt")
        .expect("registered scenario")
        .build(1);
    let cfg = SimConfig {
        mixed_precision: false,
        ..cfg
    };
    let mut sim = Simulation::new(cfg, particles, 11);
    sim.run(4);
    assert!(sim.stats.substeps > sim.stats.steps, "hierarchy engaged");
    let words = sim.particles.iter().flat_map(|p| {
        [p.pos.x, p.pos.y, p.pos.z, p.vel.x, p.vel.y, p.vel.z]
            .into_iter()
            .chain([p.mass, p.u, p.h, p.rho, p.metals])
            .map(f64::to_bits)
            .chain([p.id])
    });
    assert_eq!(
        [
            hash_words(words),
            sim.stats.gravity_interactions,
            sim.stats.hydro_interactions
        ],
        [0x9e6b_02a2_048b_611b, 13_648_713, 3_734_244],
        "force staging no longer reproduces the recorded run"
    );
}

fn random_tensor(rng: &mut StdRng, c: usize, d: usize, h: usize, w: usize) -> Tensor {
    let data = (0..c * d * h * w)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    Tensor::from_vec(c, d, h, w, data)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

/// The conv forward is exactly equal to the scalar loop nest: each output
/// element is accumulated in the same fixed k-order the reference uses,
/// so there is no f32 reassociation to tolerate. (Named for the
/// im2col + GEMM lowering it pinned before the direct convolution.)
#[test]
fn conv_gemm_forward_is_exact_f32() {
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(500 + seed);
        let (c_in, c_out) = (rng.gen_range(1..6), rng.gen_range(1..6));
        let k = [1, 3][seed as usize % 2];
        let (d, h, w) = (
            rng.gen_range(2..7),
            rng.gen_range(2..7),
            rng.gen_range(2..7),
        );
        let mut conv = Conv3d::new(c_in, c_out, k, seed + 11);
        conv.bias
            .value
            .iter_mut()
            .for_each(|b| *b = rng.gen_range(-0.5..0.5));
        let x = random_tensor(&mut rng, c_in, d, h, w);
        let fast = conv.forward(&x);
        let slow = conv.forward_reference(&x);
        for (i, (a, b)) in fast.data.iter().zip(&slow.data).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "seed {seed} ({c_in}->{c_out} k{k} {d}x{h}x{w}) voxel {i}"
            );
        }
    }
}

/// Dispatched body == portable body == scalar reference, by bits, over
/// shapes that straddle every edge of the 4-channel x 16-column register
/// tile: the 8-column and scalar-column tails, the single-channel tail,
/// and `d`/`h` of 1 and 2 where every row reads halo planes.
#[test]
fn conv_direct_bodies_agree_bitwise_on_every_tile_edge() {
    let mut rng = StdRng::seed_from_u64(2200);
    for k in [1, 3] {
        for c_in in [1, 4, 12, 24] {
            for c_out in [1, 3, 4, 5, 9] {
                let mut conv = Conv3d::new(c_in, c_out, k, 2201);
                conv.bias
                    .value
                    .iter_mut()
                    .for_each(|b| *b = rng.gen_range(-0.5..0.5));
                for (i, w) in [1, 7, 8, 9, 15, 16, 17, 33].into_iter().enumerate() {
                    let (d, h) = [(1, 1), (2, 1), (1, 2), (2, 2)][i % 4];
                    let x = random_tensor(&mut rng, c_in, d, h, w);
                    let dispatched = bits(&conv.forward(&x));
                    let case = format!("{c_in}->{c_out} k{k} {d}x{h}x{w}");
                    assert_eq!(dispatched, bits(&conv.forward_portable(&x)), "{case}");
                    assert_eq!(dispatched, bits(&conv.forward_reference(&x)), "{case}");
                }
            }
        }
    }
}

/// The ReLU fused into the convolution's store is the scalar `relu` on
/// the unfused output — also where that output is NaN (passes through),
/// -0.0 (passes through, sign kept) or infinite.
#[test]
fn conv_fused_relu_equals_relu_of_forward_bitwise() {
    let mut rng = StdRng::seed_from_u64(2250);
    for (c_in, c_out, k, w) in [(3, 5, 3, 27), (4, 4, 3, 32), (2, 9, 1, 17)] {
        let mut conv = Conv3d::new(c_in, c_out, k, 2251);
        // Channel 0 comes out as -0.0 wherever its inputs are finite: a
        // -0.0 seed plus -0.0 products (-0.0 weights, inputs >= 0).
        let kk = c_in * k * k * k;
        conv.weight.value[..kk].fill(-0.0);
        conv.bias.value[0] = -0.0;
        let mut x = random_tensor(&mut rng, c_in, 3, 4, w);
        x.data.iter_mut().for_each(|v| *v = v.abs());
        // One NaN and one infinity in the input poison their neighbourhoods.
        x.data[5] = f32::NAN;
        let last = x.len() - 3;
        x.data[last] = f32::INFINITY;
        let plain = conv.forward(&x);
        assert!(
            plain.data.iter().any(|v| v.is_nan()),
            "case has NaN outputs"
        );
        assert!(
            plain
                .data
                .iter()
                .any(|v| v.to_bits() == (-0.0f32).to_bits()),
            "case has -0.0 outputs"
        );
        assert!(plain.data.iter().any(|&v| v < 0.0), "case has negatives");
        assert_eq!(
            bits(&conv.forward_relu(&x)),
            bits(&unet::layers::relu(&plain)),
            "{c_in}->{c_out} k{k} w{w}"
        );
    }
}

/// `UNet3d::forward` (inference: fused ReLUs, value-only pools, no cache)
/// is `forward_cached(..).0` to the bit, and both are what the parent of
/// the direct convolution produced through im2col + GEMM: the hash is
/// FNV-1a over the output bits, recorded at that commit.
#[test]
fn unet_inference_forward_equals_training_forward_and_recorded_bits() {
    let net = UNet3d::new(
        &UNetConfig {
            in_channels: 8,
            out_channels: 8,
            base_features: 4,
        },
        2300,
    );
    let x = random_tensor(&mut StdRng::seed_from_u64(2301), 8, 16, 16, 16);
    let y = net.forward(&x);
    assert_eq!(bits(&y), bits(&net.forward_cached(&x).0));
    let bytes: Vec<u8> = bits(&y).into_iter().flat_map(u32::to_le_bytes).collect();
    assert_eq!(
        json::fnv1a(&bytes),
        0xb9e2_a06d_8117_68ab,
        "U-Net forward no longer reproduces the im2col + GEMM bits"
    );
}

/// The voxel scatter on the benchmark's `sn_surrogate` shape (32^3 on
/// 60 pc, footprints of hundreds of voxels) plus NGP-narrow and
/// cube-clipped particles, at the offset centre where a sloppy culling
/// range would lose voxels to cancellation. The hash is FNV-1a over the
/// bits of the five fields as the pre-PR-21 per-voxel scalar loop
/// produced them (`surrogate::voxel`'s unit tests keep that loop and
/// compare field by field; this case is here for the release-codegen
/// rerun).
#[test]
fn voxel_scatter_is_bitwise_equal_to_the_scalar_loop_it_replaced() {
    use surrogate::{particles_to_grid, GasParticle, VoxelGrid};
    let mut rng = StdRng::seed_from_u64(2100);
    let center = Vec3::new(1000.0, -500.0, 30.0);
    let grid = VoxelGrid::centered(center, 60.0, 32);
    let parts: Vec<GasParticle> = (0..600)
        .map(|i| GasParticle {
            pos: center
                + Vec3::new(
                    rng.gen_range(-33.0..33.0),
                    rng.gen_range(-33.0..33.0),
                    rng.gen_range(-33.0..33.0),
                ),
            vel: Vec3::new(
                rng.gen_range(-40.0..40.0),
                rng.gen_range(-40.0..40.0),
                rng.gen_range(-40.0..40.0),
            ),
            mass: rng.gen_range(0.2..3.0),
            temp: 10f64.powf(rng.gen_range(1.0..7.0)),
            // 0.02 .. 8 pc on 1.875 pc voxels.
            h: 10f64.powf(rng.gen_range(-1.7..0.9)),
            id: i,
        })
        .collect();
    let fields = particles_to_grid(grid, &parts);
    let mut bytes = Vec::with_capacity(5 * 8 * fields.density.len());
    for field in [&fields.density, &fields.temperature]
        .into_iter()
        .chain(&fields.vel)
    {
        for v in field {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    assert_eq!(
        json::fnv1a(&bytes),
        0x4f27_57eb_080b_ba0a,
        "voxel scatter no longer reproduces the scalar loop's bits"
    );
}

/// Block-mode snapshot restart through the SIMD force stack (dispatched
/// SoA gravity kernels, batched SPH force, cached density lists): run 2k
/// steps straight vs k + serialized restore + k, and require every
/// particle field bitwise equal. (The surrogate's convolution is
/// pinned exact by `conv_gemm_forward_is_exact_f32` above and restarts
/// bitwise in `tests/snapshot_restart.rs`; a surrogate scheme here would
/// defeat the test — it exists to *remove* the timestep spike that makes
/// the block hierarchy engage.)
#[test]
fn block_mode_restart_through_simd_stack_is_bitwise() {
    let (cfg, particles) = asura::scenarios::find("spiked_dt")
        .expect("registered scenario")
        .build(1);
    assert!(matches!(cfg.timestep, TimestepMode::Block { .. }));
    let mut full = Simulation::new(cfg, particles.clone(), 11);
    full.run(6);
    assert!(full.stats.substeps > full.stats.steps, "hierarchy engaged");

    let mut first = Simulation::new(cfg, particles, 11);
    first.run(3);
    let snap = SimSnapshot::from_bytes(&first.snapshot().to_bytes()).expect("roundtrip");
    let mut resumed = Simulation::restore(&snap);
    resumed.run(3);

    assert_eq!(full.time.to_bits(), resumed.time.to_bits());
    assert_eq!(full.stats, resumed.stats);
    for (a, b) in full.particles.iter().zip(&resumed.particles) {
        assert_eq!(a, b, "particle {} diverged after restart", a.id);
    }
}
