//! Group-wise tree gravity driver.
//!
//! Parallelism follows the fdps walk's buffer-reuse contract: groups are
//! processed in parallel, and every thread that runs one — pool worker or
//! calling thread — owns one thread-local `GroupScratch` (walk stack,
//! interaction list, j-side SoA staging buffers and target positions). It
//! is cleared, never reallocated, between groups, and it outlives the
//! evaluation, so the next evaluation on that thread (every block-mode
//! substep, every step) starts from buffers already grown to the largest
//! group it has seen. Only the per-group outputs (target indices and
//! accumulators) are freshly allocated, and
//! [`GravitySolver::evaluate_into_indexed`] lets callers own the result
//! arrays and the walk index too, so a simulation's steady-state force
//! evaluation does not grow the heap.
//!
//! # Staging by slot
//!
//! Each interaction list is copied into the kernel's SoA columns *by
//! slot*: the columns are sized to the list length once, EP entries fill
//! slots `0..ep.len()` and SP monopoles the slots after them. Entry `k`
//! of that order is the `k`-th j of the kernel, so it lands in lane
//! `k % 4` (f64) or `k % 8` (f32), or in lane 0 if it is part of the
//! remainder after the last full lane block. The EP-then-SP order is what
//! fixes the lanes, and with them every bit of the result; writing by
//! slot instead of pushing entry by entry changes the cost of staging,
//! never its values or order.

use crate::kernel::{accumulate_f64_soa, accumulate_mixed_staged, GravityAccum};
use fdps::walk::{InteractionList, SuperParticle, WalkIndex, WalkScratch};
use fdps::{Tree, Vec3};
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The j-side of one kernel launch, struct-of-arrays so the interaction
/// kernels read contiguous per-axis streams — the layout the SIMD lanes
/// need: positions `x/y/z` and mass `m` of every list entry, EP entries
/// first, then SP monopoles (see the module docs' "Staging by slot").
#[derive(Default)]
struct JColumns<T> {
    x: Vec<T>,
    y: Vec<T>,
    z: Vec<T>,
    m: Vec<T>,
}

impl<T: Copy + Default> JColumns<T> {
    /// Size every column to `list.len()` (capacity kept) and write entry
    /// `k` of the EP-then-SP order into slot `k` of each.
    fn stage(
        &mut self,
        list: &InteractionList,
        ep: impl Fn(u32) -> [T; 4],
        sp: impl Fn(&SuperParticle) -> [T; 4],
    ) {
        for col in [&mut self.x, &mut self.y, &mut self.z, &mut self.m] {
            col.resize(list.len(), T::default());
        }
        self.write(0, list.ep.iter().map(|&j| ep(j)));
        self.write(list.ep.len(), list.sp.iter().map(sp));
    }

    /// Write `rows` into consecutive slots from `start` on.
    fn write(&mut self, start: usize, rows: impl Iterator<Item = [T; 4]>) {
        let slots = self.x[start..]
            .iter_mut()
            .zip(&mut self.y[start..])
            .zip(&mut self.z[start..])
            .zip(&mut self.m[start..]);
        for ((((x, y), z), m), [rx, ry, rz, rm]) in slots.zip(rows) {
            (*x, *y, *z, *m) = (rx, ry, rz, rm);
        }
    }
}

impl JColumns<f64> {
    /// Stage `list` at absolute coordinates for [`accumulate_f64_soa`].
    fn stage_f64(&mut self, list: &InteractionList, pos: &[Vec3], mass: &[f64]) {
        self.stage(
            list,
            |j| {
                let p = pos[j as usize];
                [p.x, p.y, p.z, mass[j as usize]]
            },
            |s| [s.pos.x, s.pos.y, s.pos.z, s.mass],
        );
    }
}

impl JColumns<f32> {
    /// Stage `list` narrowed to f32 coordinates relative to `origin` for
    /// [`accumulate_mixed_staged`].
    fn stage_mixed(&mut self, list: &InteractionList, pos: &[Vec3], mass: &[f64], origin: Vec3) {
        self.stage(
            list,
            |j| {
                let p = pos[j as usize];
                [
                    (p.x - origin.x) as f32,
                    (p.y - origin.y) as f32,
                    (p.z - origin.z) as f32,
                    mass[j as usize] as f32,
                ]
            },
            |s| {
                [
                    (s.pos.x - origin.x) as f32,
                    (s.pos.y - origin.y) as f32,
                    (s.pos.z - origin.z) as f32,
                    s.mass as f32,
                ]
            },
        );
    }
}

/// Per-thread scratch reused across all groups a thread processes, in
/// this evaluation and the next: the walk's stack and list, the j-side
/// columns of the f64 kernel and of the mixed-precision kernel (f32
/// relative coordinates), and the group's target positions.
#[derive(Default)]
struct GroupScratch {
    walk: WalkScratch,
    list: InteractionList,
    j64: JColumns<f64>,
    j32: JColumns<f32>,
    ipos: Vec<Vec3>,
}

thread_local! {
    /// This thread's [`GroupScratch`]. Borrowed for one group at a time;
    /// a group's work makes no parallel call, so no borrow ever nests.
    static SCRATCH: RefCell<GroupScratch> = RefCell::new(GroupScratch::default());
}

/// Result of a gravity evaluation over the local particles.
#[derive(Debug, Clone)]
pub struct GravityResult {
    /// Acceleration including the G factor.
    pub acc: Vec<Vec3>,
    /// Potential including the G factor and sign: `-G Σ m_j / r`.
    pub pot: Vec<f64>,
    /// Total i–j interactions evaluated (for FLOP accounting, §4.3).
    pub interactions: u64,
}

/// Configuration for the tree-gravity evaluation.
#[derive(Debug, Clone, Copy)]
pub struct GravitySolver {
    /// Gravitational constant in code units.
    pub g: f64,
    /// Opening angle.
    pub theta: f64,
    /// Maximum particles per i-group (`n_g`; paper tunes 2048 on Fugaku).
    pub n_group: usize,
    /// Leaf size of the j-tree.
    pub n_leaf: usize,
    /// Plummer softening, applied as `eps^2` in the kernel.
    pub eps: f64,
    /// Use the mixed-precision kernel ([`accumulate_mixed_staged`]): the
    /// interaction loop runs in f32 on coordinates relative to the group
    /// centre (paper §4.3), ~0.5 vs ~1.8 ns per interaction for f64 SoA
    /// (`BENCH_force.json`), while targets, results and the self-potential
    /// correction stay f64. Drivers set it from `SimConfig::mixed_precision`,
    /// which the galaxy scenarios turn on. What it costs is measured
    /// against the direct sum: `tests/force_accuracy.rs` gates mixed p99 and
    /// max force and potential error at 1.1 × f64's on the registered ICs,
    /// and `BENCH_force.json` gates `force_err_p99_ratio`.
    pub mixed_precision: bool,
}

impl Default for GravitySolver {
    fn default() -> Self {
        GravitySolver {
            g: 1.0,
            theta: 0.5,
            n_group: 64,
            n_leaf: 8,
            eps: 0.0,
            mixed_precision: false,
        }
    }
}

impl GravitySolver {
    /// Evaluate gravity on the first `n_local` particles of `pos`/`mass`
    /// (indices >= `n_local` are imported LET entries that act only as
    /// sources). Groups are processed in parallel with rayon.
    pub fn evaluate(&self, pos: &[Vec3], mass: &[f64], n_local: usize) -> GravityResult {
        assert!(n_local <= pos.len());
        let tree = Tree::build(pos, mass, self.n_leaf);
        self.evaluate_with_tree(&tree, pos, mass, n_local)
    }

    /// Same as [`GravitySolver::evaluate`] but reusing a prebuilt tree.
    pub fn evaluate_with_tree(
        &self,
        tree: &Tree,
        pos: &[Vec3],
        mass: &[f64],
        n_local: usize,
    ) -> GravityResult {
        let index = tree.walk_index();
        let (mut acc, mut pot) = (Vec::new(), Vec::new());
        let interactions =
            self.evaluate_into_indexed(tree, &index, pos, mass, n_local, &mut acc, &mut pot);
        GravityResult {
            acc,
            pot,
            interactions,
        }
    }

    /// Evaluate into caller-owned result buffers over a caller-owned
    /// [`WalkIndex`], returning the interaction count: `acc`/`pot` are
    /// resized to `n_local` in place (capacity kept). This is the
    /// zero-allocation entry point the simulation drivers use every step.
    ///
    /// The index must belong to `tree` (same build, or [`WalkIndex::refresh`]ed
    /// after a [`Tree::refresh`]). Drivers that evaluate forces repeatedly on
    /// the same or a moment-refreshed tree keep the index alongside the tree
    /// instead of paying an O(nodes) index build per evaluation.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_into_indexed(
        &self,
        tree: &Tree,
        index: &WalkIndex,
        pos: &[Vec3],
        mass: &[f64],
        n_local: usize,
        acc: &mut Vec<Vec3>,
        pot: &mut Vec<f64>,
    ) -> u64 {
        acc.clear();
        acc.resize(n_local, Vec3::ZERO);
        pot.clear();
        pot.resize(n_local, 0.0);
        self.accumulate_groups(tree, index, pos, mass, n_local, None, acc, pot)
    }

    /// The group kernel shared by the full and active-subset entry points:
    /// per group, filter targets (locality plus the optional active mask),
    /// walk the tree, stage the j-side SoA by slot (EP entries then SP
    /// monopoles, fused into one contiguous kernel launch), run the
    /// monopole kernel and subtract the softened self-interaction; then
    /// write each target's `acc`/`pot` entry (with the G factor) and return
    /// the interaction count. Groups with no surviving target skip their
    /// walk entirely — with a sparse mask that is where the block-timestep
    /// savings come from, and every other entry keeps its value.
    ///
    /// Each group owns disjoint i-particles, so groups parallelize
    /// cleanly; a thread's walk/list/SoA scratch persists across its
    /// groups and evaluations, and only the per-group outputs are freshly
    /// allocated.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_groups(
        &self,
        tree: &Tree,
        index: &WalkIndex,
        pos: &[Vec3],
        mass: &[f64],
        n_local: usize,
        active_mask: Option<&[bool]>,
        acc: &mut [Vec3],
        pot: &mut [f64],
    ) -> u64 {
        let interactions = AtomicU64::new(0);
        let eps2 = 2.0 * self.eps * self.eps; // eps_i^2 + eps_j^2, equal eps
        let groups = tree.groups(self.n_group);

        let group = |scratch: &mut GroupScratch, g: usize| {
            let node = &tree.nodes[g];
            let targets: Vec<u32> = tree
                .leaf_particles(node)
                .iter()
                .copied()
                .filter(|&i| (i as usize) < n_local && active_mask.is_none_or(|m| m[i as usize]))
                .collect();
            if targets.is_empty() {
                return (targets, Vec::new());
            }
            tree.walk_mac_indexed(
                index,
                &node.bbox,
                self.theta,
                &mut scratch.walk,
                &mut scratch.list,
            );
            let list = &scratch.list;

            let ipos = &mut scratch.ipos;
            ipos.clear();
            ipos.extend(targets.iter().map(|&i| pos[i as usize]));

            let n_j = list.len();
            interactions.fetch_add((ipos.len() * n_j) as u64, Ordering::Relaxed);

            let mut accum = vec![GravityAccum::default(); ipos.len()];
            if self.mixed_precision {
                // Narrow straight from the list into reused f32 SoA
                // scratch — no intermediate f64 copy and no per-group
                // allocation (the old allocating path made "mixed"
                // slower than f64).
                let origin = node.bbox.center();
                let j = &mut scratch.j32;
                j.stage_mixed(list, pos, mass, origin);
                accumulate_mixed_staged(origin, ipos, &j.x, &j.y, &j.z, &j.m, eps2, &mut accum);
            } else {
                let j = &mut scratch.j64;
                j.stage_f64(list, pos, mass);
                accumulate_f64_soa(ipos, &j.x, &j.y, &j.z, &j.m, eps2, &mut accum);
            }
            // Remove the softened self-interaction: zero force but a
            // spurious self-potential m_i/eps.
            if eps2 > 0.0 {
                let self_pot = 1.0 / eps2.sqrt();
                for (k, &i) in targets.iter().enumerate() {
                    accum[k].pot -= mass[i as usize] * self_pot;
                }
            }
            (targets, accum)
        };
        let per_group: Vec<_> = groups
            .par_iter()
            .map(|&g| SCRATCH.with_borrow_mut(|scratch| group(scratch, g)))
            .collect();
        for (targets, accum) in per_group {
            for (k, &i) in targets.iter().enumerate() {
                acc[i as usize] = accum[k].acc * self.g;
                pot[i as usize] = -self.g * accum[k].pot;
            }
        }
        interactions.into_inner()
    }

    /// Evaluate gravity only on the particles flagged in `active_mask`
    /// while the full `pos`/`mass` set still acts as sources, over a
    /// caller-owned [`WalkIndex`] — the hierarchical-block-timestep hot
    /// path: on a fine substep only the active level bins need fresh
    /// forces, groups whose leaves contain no active target skip their
    /// tree walk entirely, and the tree is moment-refreshed and the index
    /// [`WalkIndex::refresh`]ed in place, so neither structure is rebuilt
    /// per force evaluation.
    ///
    /// `acc`/`pot` must already be sized to at least `n_local` (a base
    /// step's [`GravitySolver::evaluate_into_indexed`] does that); only the
    /// entries of active targets are overwritten, everything else keeps the
    /// value from its own last update.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_into_active_indexed(
        &self,
        tree: &Tree,
        index: &WalkIndex,
        pos: &[Vec3],
        mass: &[f64],
        n_local: usize,
        active_mask: &[bool],
        acc: &mut [Vec3],
        pot: &mut [f64],
    ) -> u64 {
        assert!(n_local <= pos.len());
        assert!(
            active_mask.len() >= n_local,
            "active mask must cover all local particles"
        );
        assert!(
            acc.len() >= n_local && pot.len() >= n_local,
            "result buffers must be pre-sized (run a full evaluation first)"
        );
        self.accumulate_groups(tree, index, pos, mass, n_local, Some(active_mask), acc, pot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn plummer_like(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pos = (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        let mass = vec![1.0 / n as f64; n];
        (pos, mass)
    }

    fn direct(pos: &[Vec3], mass: &[f64], g: f64, eps: f64) -> (Vec<Vec3>, Vec<f64>) {
        let eps2 = 2.0 * eps * eps;
        let mut acc = vec![Vec3::ZERO; pos.len()];
        let mut pot = vec![0.0; pos.len()];
        for i in 0..pos.len() {
            for j in 0..pos.len() {
                if i == j {
                    continue;
                }
                let d = pos[i] - pos[j];
                let r2 = d.norm2() + eps2;
                let rinv = 1.0 / r2.sqrt();
                acc[i] -= d * (g * mass[j] * rinv * rinv * rinv);
                pot[i] -= g * mass[j] * rinv;
            }
        }
        (acc, pot)
    }

    #[test]
    fn solver_matches_direct_sum_with_small_theta() {
        let (pos, mass) = plummer_like(400, 1);
        let solver = GravitySolver {
            g: 2.5,
            theta: 0.0,
            eps: 0.01,
            ..Default::default()
        };
        let r = solver.evaluate(&pos, &mass, pos.len());
        let (acc, pot) = direct(&pos, &mass, 2.5, 0.01);
        for i in 0..pos.len() {
            assert!((r.acc[i] - acc[i]).norm() < 1e-10, "acc[{i}]");
            assert!((r.pot[i] - pot[i]).abs() < 1e-10, "pot[{i}]");
        }
    }

    #[test]
    fn default_theta_accuracy_and_interaction_savings() {
        let (pos, mass) = plummer_like(2000, 2);
        let exact = GravitySolver {
            theta: 0.0,
            eps: 0.01,
            ..Default::default()
        }
        .evaluate(&pos, &mass, pos.len());
        let approx = GravitySolver {
            theta: 0.5,
            eps: 0.01,
            ..Default::default()
        }
        .evaluate(&pos, &mass, pos.len());
        let mut mean = 0.0;
        for i in 0..pos.len() {
            mean += (exact.acc[i] - approx.acc[i]).norm() / exact.acc[i].norm().max(1e-12);
        }
        mean /= pos.len() as f64;
        assert!(mean < 0.01, "mean rel err {mean}");
        assert!(
            approx.interactions < exact.interactions / 2,
            "tree should prune interactions: {} vs {}",
            approx.interactions,
            exact.interactions
        );
    }

    #[test]
    fn mixed_precision_solver_close_to_f64() {
        let (mut pos, mass) = plummer_like(500, 3);
        // Shift far from the origin to stress the relative-coordinate path.
        for p in &mut pos {
            *p += Vec3::new(2.0e4, -1.0e4, 5.0e3);
        }
        let base = GravitySolver {
            theta: 0.4,
            eps: 0.01,
            ..Default::default()
        };
        let f64r = base.evaluate(&pos, &mass, pos.len());
        let mixed = GravitySolver {
            mixed_precision: true,
            ..base
        }
        .evaluate(&pos, &mass, pos.len());
        for i in 0..pos.len() {
            let rel = (f64r.acc[i] - mixed.acc[i]).norm() / f64r.acc[i].norm().max(1e-12);
            assert!(rel < 1e-4, "rel err {rel} at {i}");
        }
    }

    #[test]
    fn let_sources_act_but_receive_no_force() {
        let (pos, mass) = plummer_like(100, 4);
        let n_local = 60;
        let r = GravitySolver {
            theta: 0.0,
            eps: 0.01,
            ..Default::default()
        }
        .evaluate(&pos, &mass, n_local);
        assert_eq!(r.acc.len(), n_local);
        // Forces on locals must include the imported sources: compare with
        // a direct sum over ALL particles.
        let (acc_all, _) = direct(&pos, &mass, 1.0, 0.01);
        #[allow(clippy::needless_range_loop)]
        for i in 0..n_local {
            assert!((r.acc[i] - acc_all[i]).norm() < 1e-10);
        }
    }

    #[test]
    fn active_subset_matches_full_evaluation_and_preserves_the_rest() {
        let (pos, mass) = plummer_like(600, 7);
        let n = pos.len();
        let solver = GravitySolver {
            theta: 0.4,
            eps: 0.02,
            ..Default::default()
        };
        let tree = Tree::build(&pos, &mass, solver.n_leaf);
        let index = tree.walk_index();
        let mut acc = Vec::new();
        let mut pot = Vec::new();
        solver.evaluate_into_indexed(&tree, &index, &pos, &mass, n, &mut acc, &mut pot);

        // Poison the result arrays everywhere, then re-evaluate only a
        // scattered active subset: active entries must be restored exactly,
        // inactive ones must keep the poison.
        let mut active_mask = vec![false; n];
        for i in (0..n).step_by(7) {
            active_mask[i] = true;
        }
        let sentinel_a = Vec3::new(1e30, -1e30, 1e30);
        let mut acc2 = vec![sentinel_a; n];
        let mut pot2 = vec![1e30; n];
        let inter = solver.evaluate_into_active_indexed(
            &tree,
            &index,
            &pos,
            &mass,
            n,
            &active_mask,
            &mut acc2,
            &mut pot2,
        );
        assert!(inter > 0);
        for i in 0..n {
            if active_mask[i] {
                assert!((acc2[i] - acc[i]).norm() < 1e-12, "acc[{i}]");
                assert!((pot2[i] - pot[i]).abs() < 1e-12, "pot[{i}]");
            } else {
                assert_eq!(acc2[i], sentinel_a, "inactive acc[{i}] overwritten");
                assert_eq!(pot2[i], 1e30, "inactive pot[{i}] overwritten");
            }
        }

        // A sparse active set must evaluate far fewer interactions than the
        // full pass — the block-timestep savings.
        let mut one_hot = vec![false; n];
        one_hot[13] = true;
        let mut acc3 = vec![Vec3::ZERO; n];
        let mut pot3 = vec![0.0; n];
        let full = solver.evaluate_into_indexed(&tree, &index, &pos, &mass, n, &mut acc, &mut pot);
        let sparse = solver.evaluate_into_active_indexed(
            &tree, &index, &pos, &mass, n, &one_hot, &mut acc3, &mut pot3,
        );
        assert!(
            sparse * 10 < full,
            "one-hot active set should prune interactions: {sparse} vs {full}"
        );
    }

    #[test]
    fn repeated_evaluations_do_not_grow_the_threads_scratch() {
        // Inside `rayon::solo` every group runs on this thread, so its
        // `SCRATCH` meets every group of every evaluation: after one f64
        // and one mixed warm-up evaluation it holds the widest, and full
        // and active evaluations on either kernel grow none of it.
        fn capacities() -> Vec<usize> {
            SCRATCH.with_borrow(|s| {
                let (ep, sp) = s.list.capacities();
                let mut caps = vec![s.walk.capacity(), ep, sp, s.ipos.capacity()];
                for j in [&s.j64.x, &s.j64.y, &s.j64.z, &s.j64.m] {
                    caps.push(j.capacity());
                }
                for j in [&s.j32.x, &s.j32.y, &s.j32.z, &s.j32.m] {
                    caps.push(j.capacity());
                }
                caps
            })
        }
        let (pos, mass) = plummer_like(2000, 11);
        let n = pos.len();
        let solvers = [false, true].map(|mixed_precision| GravitySolver {
            mixed_precision,
            ..Default::default()
        });
        let tree = Tree::build(&pos, &mass, solvers[0].n_leaf);
        let index = tree.walk_index();
        let active: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let (mut acc, mut pot) = (Vec::new(), Vec::new());
        rayon::solo(|| {
            for solver in &solvers {
                solver.evaluate_into_indexed(&tree, &index, &pos, &mass, n, &mut acc, &mut pot);
            }
            let warm = capacities();
            assert!(warm.iter().all(|&c| c > 0), "warm-up left {warm:?}");
            for _ in 0..3 {
                for solver in &solvers {
                    solver.evaluate_into_indexed(&tree, &index, &pos, &mass, n, &mut acc, &mut pot);
                    solver.evaluate_into_active_indexed(
                        &tree, &index, &pos, &mass, n, &active, &mut acc, &mut pot,
                    );
                }
            }
            assert_eq!(capacities(), warm, "scratch grew after warm-up");
        });
    }

    /// The f64 staging as it was before it wrote by slot: four pushes per
    /// entry, EP then SP.
    fn pushed_f64(list: &InteractionList, pos: &[Vec3], mass: &[f64]) -> JColumns<f64> {
        let mut c = JColumns::default();
        for &j in &list.ep {
            let p = pos[j as usize];
            c.x.push(p.x);
            c.y.push(p.y);
            c.z.push(p.z);
            c.m.push(mass[j as usize]);
        }
        for s in &list.sp {
            c.x.push(s.pos.x);
            c.y.push(s.pos.y);
            c.z.push(s.pos.z);
            c.m.push(s.mass);
        }
        c
    }

    /// The mixed-precision staging as it was before it wrote by slot.
    fn pushed_mixed(
        list: &InteractionList,
        pos: &[Vec3],
        mass: &[f64],
        origin: Vec3,
    ) -> JColumns<f32> {
        let mut c = JColumns::default();
        for &j in &list.ep {
            let p = pos[j as usize];
            c.x.push((p.x - origin.x) as f32);
            c.y.push((p.y - origin.y) as f32);
            c.z.push((p.z - origin.z) as f32);
            c.m.push(mass[j as usize] as f32);
        }
        for s in &list.sp {
            c.x.push((s.pos.x - origin.x) as f32);
            c.y.push((s.pos.y - origin.y) as f32);
            c.z.push((s.pos.z - origin.z) as f32);
            c.m.push(s.mass as f32);
        }
        c
    }

    fn accum_bits(accum: &[GravityAccum]) -> Vec<[u64; 4]> {
        accum
            .iter()
            .map(|a| [a.acc.x, a.acc.y, a.acc.z, a.pot].map(f64::to_bits))
            .collect()
    }

    /// Slot staging into reused (dirty, shrinking and growing) columns
    /// equals the push reference column for column, and the kernels give
    /// the same bits on both: over empty EP and SP halves and every list
    /// length 0–18, which straddles the 4-lane f64 and 8-lane f32 blocks.
    #[test]
    fn slot_staging_matches_the_push_reference_bitwise() {
        let (pos, mass) = plummer_like(40, 11);
        let ipos = &pos[..5];
        let origin = Vec3::new(0.1, -0.2, 0.05);
        let (mut j64, mut j32) = (JColumns::default(), JColumns::default());
        for n_ep in (0..=9).rev().chain(0..=9) {
            for n_sp in [3, 0, 9, 1, 4, 8, 2, 7, 5, 6] {
                let list = InteractionList {
                    ep: (0..n_ep as u32).map(|k| (k * 7 + 3) % 40).collect(),
                    sp: (0..n_sp)
                        .map(|k| SuperParticle {
                            pos: pos[39 - k] * 3.0,
                            mass: 0.5 + k as f64,
                        })
                        .collect(),
                };
                let case = format!("{n_ep} EP + {n_sp} SP");
                j64.stage_f64(&list, &pos, &mass);
                let r64 = pushed_f64(&list, &pos, &mass);
                for (a, b) in [
                    (&j64.x, &r64.x),
                    (&j64.y, &r64.y),
                    (&j64.z, &r64.z),
                    (&j64.m, &r64.m),
                ] {
                    assert_eq!(a.len(), n_ep + n_sp, "{case}");
                    assert!(
                        a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{case}"
                    );
                }
                let mut slot = vec![GravityAccum::default(); ipos.len()];
                let mut pushed = slot.clone();
                accumulate_f64_soa(ipos, &j64.x, &j64.y, &j64.z, &j64.m, 1e-4, &mut slot);
                accumulate_f64_soa(ipos, &r64.x, &r64.y, &r64.z, &r64.m, 1e-4, &mut pushed);
                assert_eq!(accum_bits(&slot), accum_bits(&pushed), "f64, {case}");

                j32.stage_mixed(&list, &pos, &mass, origin);
                let r32 = pushed_mixed(&list, &pos, &mass, origin);
                assert_eq!(j32.m.len(), n_ep + n_sp, "{case}");
                let mut slot = vec![GravityAccum::default(); ipos.len()];
                let mut pushed = slot.clone();
                let (a, b) = (&j32, &r32);
                accumulate_mixed_staged(origin, ipos, &a.x, &a.y, &a.z, &a.m, 1e-4, &mut slot);
                accumulate_mixed_staged(origin, ipos, &b.x, &b.y, &b.z, &b.m, 1e-4, &mut pushed);
                assert_eq!(accum_bits(&slot), accum_bits(&pushed), "mixed, {case}");
            }
        }
    }

    #[test]
    fn potential_energy_is_negative_and_finite() {
        let (pos, mass) = plummer_like(300, 5);
        let r = GravitySolver {
            eps: 0.05,
            ..Default::default()
        }
        .evaluate(&pos, &mass, pos.len());
        let w: f64 = 0.5 * r.pot.iter().zip(&mass).map(|(p, m)| p * m).sum::<f64>();
        assert!(w < 0.0);
        assert!(w.is_finite());
    }
}
