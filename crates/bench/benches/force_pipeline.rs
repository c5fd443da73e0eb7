//! The force-pipeline trajectory benchmark (`cargo bench --bench
//! force_pipeline`).
//!
//! Measures, at the ISSUE's reference operating point (N = 100k,
//! theta = 0.5, n_group = 64):
//!
//! 1. **walk_recursive_alloc** — the checked-in naive baseline: serial
//!    recursive MAC walk with a freshly allocated `InteractionList` per
//!    group (exactly what `Tree::interaction_lists` did before the
//!    zero-allocation refactor);
//! 2. **walk_indexed_serial** — the compact `WalkIndex` walk with scratch
//!    reuse, single-threaded (isolates the cache-layout win);
//! 3. **walk_indexed_parallel** — the production path: rayon-parallel
//!    indexed walk with per-worker `WalkScratch` + `InteractionList` reuse
//!    (what `Tree::interaction_lists` and the gravity solver run);
//! 4. the monopole kernel's ns/interaction: AoS f64 (the retained scalar
//!    reference), SoA f64 (the vectorized production kernel — their ratio
//!    is the gated `simd_speedup`), and the staged mixed-precision kernel;
//! 5. what the mixed kernel costs in accuracy: the solver's f64 and mixed
//!    passes against the direct sum at a fixed, seeded subsample of
//!    targets, p50 / p99 relative force error (their p99 ratio is the
//!    gated `force_err_p99_ratio`).
//!
//! Writes `BENCH_force.json` at the repo root so subsequent PRs have a
//! perf trajectory, and prints the walk speedup (target: >= 2x) and the
//! kernel simd speedup (target: >= 1.5x).

use bench::accuracy::{direct_sum, ForceErrors};
use bench::fixtures::cloud;
use bench::{best_of, BenchDoc, Better};
use fdps::walk::{InteractionList, WalkScratch};
use fdps::{Tree, Vec3};
use gravity::kernel::{accumulate_f64, accumulate_f64_soa, accumulate_mixed_staged, GravityAccum};
use gravity::GravitySolver;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::hint::black_box;

const N: usize = 100_000;
const THETA: f64 = 0.5;
const N_GROUP: usize = 64;
const N_LEAF: usize = 8;
/// Targets the accuracy pass direct-sums (O(N) each).
const N_ERR_TARGETS: usize = 1000;

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
            tree.walk_mac_recursive(&tree.nodes[g].bbox, THETA, &mut list);
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
    let (t_f64, _) = best_of(3, || {
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
    let ns_per_inter_f64 = t_f64 * 1e9 / (kernel_reps * n_i * n_j) as f64;
    let (t_soa, _) = best_of(3, || {
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

    // 5. Accuracy of the solver's two kernels on the same cloud: a seeded
    //    partial shuffle picks N_ERR_TARGETS distinct targets, whose exact
    //    forces come from the direct sum over all N.
    let mut rng = StdRng::seed_from_u64(2);
    let mut targets: Vec<usize> = (0..N).collect();
    for k in 0..N_ERR_TARGETS {
        targets.swap(k, rng.gen_range(k..N));
    }
    targets.truncate(N_ERR_TARGETS);
    let solver = GravitySolver {
        theta: THETA,
        n_group: N_GROUP,
        n_leaf: N_LEAF,
        ..Default::default()
    };
    let exact = direct_sum(solver.g, &pos, &mass, 0.0, &targets);
    let [err_f64, err_mixed] = [false, true].map(|mixed_precision| {
        let r = GravitySolver {
            mixed_precision,
            ..solver
        }
        .evaluate_with_tree(&tree, &pos, &mass, N);
        ForceErrors::measure(&r.acc, &r.pot, &exact, &targets).force
    });
    let force_err_p99_ratio = err_mixed.p99 / err_f64.p99;
    println!(
        "force error f64:   p50 {:.3e}  p99 {:.3e}",
        err_f64.p50, err_f64.p99
    );
    println!(
        "force error mixed: p50 {:.3e}  p99 {:.3e}",
        err_mixed.p50, err_mixed.p99
    );
    println!("force_err_p99_ratio: {force_err_p99_ratio:.4} (mixed / f64)");

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
        .write("BENCH_force.json");
}
