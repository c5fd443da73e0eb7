//! The force-pipeline trajectory benchmark (`cargo bench --bench
//! force_pipeline`).
//!
//! Measures, at the ISSUE's reference operating point (N = 100k,
//! theta = 0.5, n_group = 64):
//!
//! 1. **walk_recursive_alloc** — the checked-in naive baseline: serial
//!    recursive MAC walk (`Tree::walk_mac`) with a freshly allocated
//!    `InteractionList` per group (exactly what `Tree::interaction_lists`
//!    did before the zero-allocation refactor);
//! 2. **walk_indexed_serial** — the compact `WalkIndex` walk with scratch
//!    reuse, single-threaded (isolates the cache-layout win);
//! 3. **walk_indexed_parallel** — the production path: rayon-parallel
//!    indexed walk with per-worker `WalkScratch` + `InteractionList` reuse
//!    (what `Tree::interaction_lists` and the gravity solver run);
//! 4. the monopole kernel's ns/interaction: AoS f64 (the retained scalar
//!    reference), SoA f64 (the vectorized production kernel — their ratio
//!    is the gated `simd_speedup`), and the staged mixed-precision kernel;
//! 5. the group-size curve, and what the mixed kernel costs in accuracy:
//!    the solver's f64 and mixed passes at each `n_group` in
//!    [`N_GROUP_SWEEP`] — ms, interactions and p99 relative force error
//!    against the direct sum at a fixed, seeded subsample of targets
//!    (`n_group_sweep`). At `n_group` 64, mixed p99 over f64 p99 is the
//!    gated `force_err_p99_ratio`; mixed p99 at 256 over mixed p99 at 64
//!    is the gated `n_group_p99_ratio`, what the galaxy scenarios' group
//!    size does to their kernel's error;
//! 6. one serial SPH force pass over a gas disc — per leaf group, stage
//!    every target against the group's spans, then run the pair body —
//!    through the portable and the dispatched (AVX2 where the CPU has it)
//!    bodies on the same staged state, timed as back-to-back
//!    portable/dispatched pairs: ns per scanned candidate, ns per
//!    interacting pair, and the ratio of the two bodies' best pass times,
//!    the gated `sph_simd_speedup`.
//!
//! Writes `BENCH_force.json` at the repo root so subsequent PRs have a
//! perf trajectory, and prints the walk speedup (target: >= 2x) and the
//! kernel simd speedup (target: >= 1.5x).

use bench::accuracy::{direct_sum, ForceErrors};
use bench::fixtures::cloud;
use bench::{best_of, BenchDoc, Better};
use fdps::walk::{InteractionList, WalkScratch};
use fdps::{BBox, Tree, Vec3};
use gravity::kernel::{accumulate_f64, accumulate_f64_soa, accumulate_mixed_staged, GravityAccum};
use gravity::GravitySolver;
use json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use sph::force::{
    force_batch, force_batch_portable, ForceBatch, ForceSources, HydroAccum, HydroInput,
};
use sph::{HydroState, SphKernel, SphSolver};
use std::hint::black_box;

const N: usize = 100_000;
const THETA: f64 = 0.5;
const N_GROUP: usize = 64;
/// The group sizes of the curve section 5 draws.
const N_GROUP_SWEEP: [usize; 6] = [16, 32, 64, 128, 256, 512];
const N_LEAF: usize = 8;
/// Targets the accuracy pass direct-sums (O(N) each).
const N_ERR_TARGETS: usize = 1000;
/// Gas particles of the SPH force pass.
const N_SPH: usize = 20_000;
/// Back-to-back timings behind the gated `simd_speedup` (AoS/SoA) and
/// `sph_simd_speedup` (portable/dispatched).
const KERNEL_PAIRS: usize = 5;

/// One leaf's targets and the spans of the one walk they share, as the
/// SPH solver's force pass groups them.
struct SphGroup {
    targets: Vec<HydroInput>,
    spans: Vec<(u32, u32)>,
}

/// A converged gas disc — the gravity cloud's positions with seeded
/// velocities and internal energies, `h` and `rho` from a density pass —
/// as the force pass stages it: tree-ordered sources and leaf groups.
fn sph_force_input(solver: &SphSolver) -> (ForceSources, Vec<SphGroup>) {
    let (pos, mass) = cloud(N_SPH);
    let mut rng = StdRng::seed_from_u64(3);
    let mut unit = || rng.gen_range(-1.0..1.0);
    let vel = (0..N_SPH)
        .map(|_| Vec3::new(unit(), unit(), unit()))
        .collect();
    let u = (0..N_SPH).map(|_| 1.5 + unit()).collect();
    let mut gas = HydroState::new(pos, vel, mass, u, vec![0.3; N_SPH]);
    solver.density_pass(&mut gas, N_SPH);
    let support = solver.kernel.support();
    let radii: Vec<f64> = gas.h.iter().map(|h| support * h).collect();
    let tree = Tree::build_with_h(&gas.pos, &gas.mass, Some(&radii), 16);
    let input = |i: u32| {
        let i = i as usize;
        HydroInput {
            pos: gas.pos[i],
            vel: gas.vel[i],
            mass: gas.mass[i],
            h: gas.h[i],
            rho: gas.rho[i],
            p_over_rho2: solver.eos.p_over_rho2(gas.rho[i], gas.u[i]),
            cs: solver.eos.sound_speed(gas.u[i]),
        }
    };
    let mut sources = ForceSources::default();
    sources.fill(tree.order.iter().map(|&j| input(j)));
    let groups = tree
        .nodes
        .iter()
        .filter(|node| node.is_leaf() && !node.is_empty())
        .map(|leaf| {
            let members = tree.leaf_particles(leaf);
            let mut bbox = BBox::empty();
            let mut r_max = 0.0f64;
            for &i in members {
                bbox.extend(gas.pos[i as usize]);
                r_max = r_max.max(radii[i as usize]);
            }
            let mut spans = Vec::new();
            tree.spans_of_box(&bbox, r_max, &mut spans);
            let targets = members.iter().map(|&i| input(i)).collect();
            SphGroup { targets, spans }
        })
        .collect();
    (sources, groups)
}

/// One serial force pass over `groups`, staging through the portable or
/// the dispatched body and, with `body`, running the matching pair body.
/// Returns the candidates scanned, the pairs staged and a hash of every
/// output bit.
fn sph_force_pass(
    solver: &SphSolver,
    sources: &ForceSources,
    groups: &[SphGroup],
    batch: &mut ForceBatch,
    portable: bool,
    body: bool,
) -> (u64, u64, u64) {
    let support = solver.kernel.support();
    let (mut candidates, mut pairs, mut hash) = (0u64, 0u64, 0u64);
    for group in groups {
        let n = group
            .spans
            .iter()
            .map(|&(s, e)| (e - s) as u64)
            .sum::<u64>();
        for pi in &group.targets {
            if portable {
                batch.stage_portable(support, pi, sources, &group.spans);
            } else {
                batch.stage(support, pi, sources, &group.spans);
            }
            candidates += n;
            pairs += batch.len() as u64;
            if body {
                let mut out = HydroAccum::default();
                let run = if portable {
                    force_batch_portable
                } else {
                    force_batch
                };
                run(&solver.kernel, &solver.visc, pi, sources, batch, &mut out);
                for v in [out.acc.x, out.acc.y, out.acc.z, out.dudt, out.v_sig_max] {
                    hash = hash.rotate_left(5) ^ v.to_bits();
                }
            }
        }
    }
    (candidates, pairs, hash)
}

fn main() {
    let (pos, mass) = cloud(N);
    let tree = Tree::build(&pos, &mass, N_LEAF);
    let groups = tree.groups(N_GROUP);
    let n_groups = groups.len();
    println!("force_pipeline: N={N}, theta={THETA}, n_group={N_GROUP} -> {n_groups} groups");

    // 1. Naive checked-in baseline: serial recursive walk, fresh list per
    //    group (the pre-refactor interaction_lists).
    let (t_rec, len_rec) = best_of(5, || {
        let mut total = 0u64;
        for &g in &groups {
            let mut list = InteractionList::default();
            tree.walk_mac(&tree.nodes[g].bbox, THETA, &mut list);
            total += list.len() as u64;
        }
        total
    });

    // 2. Indexed walk, serial, scratch reuse: the cache-layout win alone.
    let index = tree.walk_index();
    let (t_ser, len_ser) = best_of(5, || {
        let mut scratch = WalkScratch::default();
        let mut list = InteractionList::default();
        let mut total = 0u64;
        for &g in &groups {
            tree.walk_mac_indexed(&index, &tree.nodes[g].bbox, THETA, &mut scratch, &mut list);
            total += list.len() as u64;
        }
        total
    });
    assert_eq!(len_rec, len_ser, "walks must agree on total list length");

    // 3. Production path: parallel indexed walk, per-worker scratch reuse.
    let (t_par, len_par) = best_of(5, || {
        groups
            .par_iter()
            .map_init(
                || (WalkScratch::default(), InteractionList::default()),
                |(scratch, list), &g| {
                    tree.walk_mac_indexed(&index, &tree.nodes[g].bbox, THETA, scratch, list);
                    list.len() as u64
                },
            )
            .collect::<Vec<u64>>()
            .iter()
            .sum::<u64>()
    });
    assert_eq!(len_rec, len_par, "walks must agree on total list length");

    let t_best = t_ser.min(t_par);
    let lists_per_sec_rec = n_groups as f64 / t_rec;
    let lists_per_sec_ser = n_groups as f64 / t_ser;
    let lists_per_sec_par = n_groups as f64 / t_par;
    let speedup = t_rec / t_best;
    println!(
        "walk_recursive_alloc:  {:10.1} lists/s  ({:.3} s/pass)",
        lists_per_sec_rec, t_rec
    );
    println!(
        "walk_indexed_serial:   {:10.1} lists/s  ({:.3} s/pass, {:.2}x)",
        lists_per_sec_ser,
        t_ser,
        t_rec / t_ser
    );
    println!(
        "walk_indexed_parallel: {:10.1} lists/s  ({:.3} s/pass, {:.2}x)",
        lists_per_sec_par,
        t_par,
        t_rec / t_par
    );
    println!("walk speedup: {speedup:.2}x (target >= 2x)");

    // 4. Kernel ns/interaction at the paper's Fugaku group size. The AoS
    //    f64 kernel is the retained scalar-layout reference; the SoA form
    //    is what the solver stages per group (bitwise-identical results,
    //    packed loads) — their ratio is the gated `simd_speedup`. The
    //    mixed-precision kernel is measured through its staged entry
    //    point, exactly as the solver launches it (caller-owned f32
    //    scratch, no per-launch allocation).
    let n_i = 64;
    let n_j = 2048;
    let ipos = &pos[..n_i];
    let jpos = &pos[1000..1000 + n_j];
    let jmass = &mass[1000..1000 + n_j];
    let jx: Vec<f64> = jpos.iter().map(|p| p.x).collect();
    let jy: Vec<f64> = jpos.iter().map(|p| p.y).collect();
    let jz: Vec<f64> = jpos.iter().map(|p| p.z).collect();
    let jx32: Vec<f32> = jpos.iter().map(|p| p.x as f32).collect();
    let jy32: Vec<f32> = jpos.iter().map(|p| p.y as f32).collect();
    let jz32: Vec<f32> = jpos.iter().map(|p| p.z as f32).collect();
    let jm32: Vec<f32> = jmass.iter().map(|&m| m as f32).collect();
    let mut out = vec![GravityAccum::default(); n_i];
    let kernel_reps = 200;
    // AoS and SoA run as back-to-back pairs, so a slow phase of the
    // machine lands on both kernels; the gate is the ratio of their bests.
    let (mut t_f64, mut t_soa) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..KERNEL_PAIRS {
        let (aos, _) = best_of(1, || {
            for _ in 0..kernel_reps {
                accumulate_f64(
                    black_box(ipos),
                    black_box(jpos),
                    black_box(jmass),
                    1e-4,
                    &mut out,
                );
            }
        });
        let (soa, _) = best_of(1, || {
            for _ in 0..kernel_reps {
                accumulate_f64_soa(
                    black_box(ipos),
                    black_box(&jx),
                    black_box(&jy),
                    black_box(&jz),
                    black_box(jmass),
                    1e-4,
                    &mut out,
                );
            }
        });
        t_f64 = t_f64.min(aos);
        t_soa = t_soa.min(soa);
    }
    let ns_per_inter_f64 = t_f64 * 1e9 / (kernel_reps * n_i * n_j) as f64;
    let ns_per_inter_soa = t_soa * 1e9 / (kernel_reps * n_i * n_j) as f64;
    let (t_mixed, _) = best_of(3, || {
        for _ in 0..kernel_reps {
            accumulate_mixed_staged(
                Vec3::ZERO,
                black_box(ipos),
                black_box(&jx32),
                black_box(&jy32),
                black_box(&jz32),
                black_box(&jm32),
                1e-4,
                &mut out,
            );
        }
    });
    let ns_per_inter_mixed = t_mixed * 1e9 / (kernel_reps * n_i * n_j) as f64;
    let simd_speedup = ns_per_inter_f64 / ns_per_inter_soa;
    println!("kernel f64 (AoS ref):  {ns_per_inter_f64:.3} ns/interaction");
    println!("kernel f64 (SoA):      {ns_per_inter_soa:.3} ns/interaction");
    println!("kernel mixed (staged): {ns_per_inter_mixed:.3} ns/interaction");
    println!("simd_speedup: {simd_speedup:.2}x (target >= 1.5x)");

    // 5. The solver's two kernels on the same cloud, across the group-size
    //    curve: per `n_group`, each kernel's best-of-3 evaluation time, the
    //    interactions (one list per group, so the same for both kernels)
    //    and the force error at N_ERR_TARGETS distinct targets, picked by a
    //    seeded partial shuffle, against the direct sum over all N.
    let mut rng = StdRng::seed_from_u64(2);
    let mut targets: Vec<usize> = (0..N).collect();
    for k in 0..N_ERR_TARGETS {
        targets.swap(k, rng.gen_range(k..N));
    }
    targets.truncate(N_ERR_TARGETS);
    let exact = direct_sum(GravitySolver::default().g, &pos, &mass, 0.0, &targets);
    let sweep = N_GROUP_SWEEP.map(|n_group| {
        [false, true].map(|mixed_precision| {
            let solver = GravitySolver {
                theta: THETA,
                n_group,
                n_leaf: N_LEAF,
                mixed_precision,
                ..Default::default()
            };
            let (t, r) = best_of(3, || solver.evaluate_with_tree(&tree, &pos, &mass, N));
            let errs = ForceErrors::measure(&r.acc, &r.pot, &exact, &targets).force;
            (t * 1e3, r.interactions, errs)
        })
    });
    let at = |n_group| sweep[N_GROUP_SWEEP.iter().position(|&n| n == n_group).unwrap()];
    println!("n_group   f64 ms  mixed ms  interactions  p99 f64    p99 mixed");
    for (n_group, [(ms_f64, inter, e_f64), (ms_mixed, _, e_mixed)]) in
        N_GROUP_SWEEP.iter().zip(&sweep)
    {
        println!(
            "{n_group:>7} {ms_f64:>8.1} {ms_mixed:>9.1} {inter:>13} {:.3e}  {:.3e}",
            e_f64.p99, e_mixed.p99
        );
    }
    let [(_, _, err_f64), (_, _, err_mixed)] = at(N_GROUP);
    let force_err_p99_ratio = err_mixed.p99 / err_f64.p99;
    let [_, (_, _, err_mixed_256)] = at(256);
    let n_group_p99_ratio = err_mixed_256.p99 / err_mixed.p99;
    println!("n_group_p99_ratio: {n_group_p99_ratio:.4} (mixed p99, n_group 256 / 64)");
    println!(
        "force error f64:   p50 {:.3e}  p99 {:.3e}",
        err_f64.p50, err_f64.p99
    );
    println!(
        "force error mixed: p50 {:.3e}  p99 {:.3e}",
        err_mixed.p50, err_mixed.p99
    );
    println!("force_err_p99_ratio: {force_err_p99_ratio:.4} (mixed / f64)");

    // 6. The SPH force pass, serial, on one staged state: the selection
    //    alone and selection plus pair body, per body. The pair body's
    //    cost is the difference; the gate is the whole pass's ratio. As in
    //    section 4 the two bodies run as back-to-back pairs, so a slow
    //    phase of the machine lands on both; each keeps its bests.
    let sph_solver = SphSolver::default();
    let (sources, groups) = sph_force_input(&sph_solver);
    let mut batch = ForceBatch::default();
    let mut timed = [(f64::INFINITY, f64::INFINITY, (0, 0, 0)); 2];
    for _ in 0..KERNEL_PAIRS {
        for body in [false, true] {
            for (best, portable) in timed.iter_mut().zip([true, false]) {
                let (t, counts) = best_of(1, || {
                    sph_force_pass(&sph_solver, &sources, &groups, &mut batch, portable, body)
                });
                if body {
                    (best.1, best.2) = (best.1.min(t), counts);
                } else {
                    best.0 = best.0.min(t);
                }
            }
        }
    }
    let [portable, dispatched] = timed;
    let (_, _, (candidates, pairs, hash)) = portable;
    assert_eq!(
        (candidates, pairs, hash),
        dispatched.2,
        "dispatched SPH bodies must reproduce the portable ones bit for bit"
    );
    let per_unit = |(t_stage, t_pass, _): (f64, f64, _)| {
        (
            t_stage * 1e9 / candidates as f64,
            (t_pass - t_stage) * 1e9 / pairs as f64,
        )
    };
    let (candidate_portable, pair_portable) = per_unit(portable);
    let (candidate_dispatched, pair_dispatched) = per_unit(dispatched);
    let candidates_per_pair = candidates as f64 / pairs as f64;
    let sph_simd_speedup = portable.1 / dispatched.1;
    println!(
        "sph force pass: {N_SPH} targets, {candidates} candidates, {pairs} pairs \
         ({candidates_per_pair:.2} per pair)"
    );
    println!("sph portable:   {candidate_portable:.2} ns/candidate, {pair_portable:.2} ns/pair");
    println!(
        "sph dispatched: {candidate_dispatched:.2} ns/candidate, {pair_dispatched:.2} ns/pair"
    );
    println!("sph_simd_speedup: {sph_simd_speedup:.2}x (portable / dispatched pass)");

    BenchDoc::new()
        .info("n", N)
        .info("theta", THETA)
        .info("n_group", N_GROUP)
        .info("n_groups", n_groups)
        .info("total_list_len", len_par)
        .info("walk_recursive_alloc_lists_per_sec", lists_per_sec_rec)
        .info("walk_indexed_serial_lists_per_sec", lists_per_sec_ser)
        .info("walk_indexed_parallel_lists_per_sec", lists_per_sec_par)
        .gated("walk_speedup", speedup, Better::Higher)
        .info("kernel_f64_ns_per_interaction", ns_per_inter_f64)
        .info("kernel_f64_soa_ns_per_interaction", ns_per_inter_soa)
        .info("kernel_mixed_ns_per_interaction", ns_per_inter_mixed)
        .gated("simd_speedup", simd_speedup, Better::Higher)
        .info("force_err_targets", N_ERR_TARGETS)
        .info("force_err_p50_f64", err_f64.p50)
        .info("force_err_p99_f64", err_f64.p99)
        .info("force_err_p50_mixed", err_mixed.p50)
        .info("force_err_p99_mixed", err_mixed.p99)
        .gated("force_err_p99_ratio", force_err_p99_ratio, Better::Lower)
        .info(
            "n_group_sweep",
            Json::obj(N_GROUP_SWEEP.iter().zip(&sweep).map(|(n_group, kernels)| {
                let [(ms_f64, inter, e_f64), (ms_mixed, _, e_mixed)] = *kernels;
                let row = Json::obj([
                    ("f64_ms", ms_f64.into()),
                    ("mixed_ms", ms_mixed.into()),
                    ("interactions", inter.into()),
                    ("force_err_p99_f64", e_f64.p99.into()),
                    ("force_err_p99_mixed", e_mixed.p99.into()),
                ]);
                (n_group.to_string(), row)
            })),
        )
        .gated("n_group_p99_ratio", n_group_p99_ratio, Better::Lower)
        .info("sph_force/targets", N_SPH)
        .info("sph_force/candidates_per_pair", candidates_per_pair)
        .info("sph_force/ns_per_candidate_portable", candidate_portable)
        .info(
            "sph_force/ns_per_candidate_dispatched",
            candidate_dispatched,
        )
        .info("sph_force/ns_per_pair_portable", pair_portable)
        .info("sph_force/ns_per_pair_dispatched", pair_dispatched)
        .gated("sph_simd_speedup", sph_simd_speedup, Better::Higher)
        .write("BENCH_force.json");
}
