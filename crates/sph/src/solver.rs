//! Rayon-parallel SPH driver over a neighbor-search tree.
//!
//! The per-pass staging buffers (search radii, target indices, the
//! tree-ordered j-side columns and the leaf-ordered work plans) live in a
//! caller-owned [`SphScratch`]: the `density_pass_with`/`force_pass_with`
//! entry points clear — never shrink — the scratch, so a simulation's
//! steady-state hydro evaluation grows no buffer in this layer. The group
//! lists live with the thread that runs the group ([`crate::group`]), as
//! the gravity solver's do. The scratch-free `density_pass`/`force_pass`
//! wrappers remain for cold paths and tests.
//!
//! # Neighbor-tree reuse lifecycle
//!
//! The scratch also carries a [`SphTreeCache`]: the neighbor tree built by
//! one pass is kept and *reused* by later passes instead of being re-sorted
//! and re-split from scratch, mirroring the gravity tree's cross-substep
//! reuse. The lifecycle over one base step of the block-timestep driver:
//!
//! 1. **Base-step density pass** ([`SphSolver::density_pass_with`]):
//!    [`TreeReuse::Rebuild`] — a full [`fdps::Tree::build_with_h`] from the
//!    current positions. This is the only *mandatory* build per force
//!    evaluation, and anchors the drift-bound reference positions.
//! 2. **Force pass** ([`SphSolver::force_pass_with`] /
//!    [`SphSolver::force_pass_active`]): [`TreeReuse::Refresh`] — positions
//!    are unchanged since the density pass, only the smoothing lengths
//!    converged, so [`fdps::Tree::refresh_with_h`] re-accumulates node
//!    `h_max` (and bounds) on the cached Morton topology in O(N) with zero
//!    heap allocation.
//! 3. **Substep passes** ([`SphSolver::density_pass_active`] /
//!    [`SphSolver::force_pass_active`]): [`TreeReuse::Refresh`] — the
//!    active subset drifted a little; the refreshed tree stays *exact*
//!    (bounding boxes always contain their particles and stored radii are
//!    re-accumulated), it only gradually loses Morton locality. When any
//!    particle drifts beyond [`fdps::Tree::DRIFT_FRACTION`] of the root
//!    cube — or the particle count changes — `Refresh` silently degrades
//!    to a full rebuild.
//!
//! 4. **Group lists** (every pass, on whichever tree the steps above
//!    produced): the j-side data is laid out once in tree order, the
//!    pass's targets are sorted by leaf, and each leaf's targets share one
//!    tree walk whose result is a few contiguous spans of those columns
//!    ([`crate::group`]); a target then only selects its own in-support
//!    rows among them. Nothing of this is carried between passes but
//!    capacity — a target's result depends on the tree and its own
//!    in-support set alone, never on its group, so an active subset, a
//!    full pass and any thread count produce the same bits on the same
//!    tree.
//!
//! Reuse never changes *which* neighbors a pass finds, but a refreshed and
//! a rebuilt tree group particles into different leaves, so in-support
//! rows arrive in different orders and floating-point sums differ at the
//! last ULP. Results are therefore equivalent to a documented `1e-12`
//! relative tolerance, not bitwise (the integration tests pin this), while
//! *repeating* a pass against the same cache state is exactly
//! deterministic — which is what the snapshot-restart bitwise contract
//! needs, since full rebuilds happen at base-step boundaries where
//! checkpoints are taken.

use crate::density::{compute_density_grouped, DensityConfig, DensityScratch};
use crate::eos::GammaLawEos;
use crate::force::{force_batch, ForceBatch, ForceSources, HydroAccum, HydroInput, Viscosity};
use crate::group::{span_len, GroupPlan};
use crate::kernel::{CubicSpline, SphKernel};
use crate::timestep::{dt_accel, dt_cfl};
use fdps::{Tree, Vec3};
use std::cell::RefCell;

/// SoA hydrodynamic state. The first `n_local` entries are this rank's
/// particles; any beyond are ghost copies acting as interaction sources.
#[derive(Debug, Clone, Default)]
pub struct HydroState {
    pub pos: Vec<Vec3>,
    pub vel: Vec<Vec3>,
    pub mass: Vec<f64>,
    /// Specific internal energy.
    pub u: Vec<f64>,
    pub h: Vec<f64>,
    pub rho: Vec<f64>,
    pub acc: Vec<Vec3>,
    pub dudt: Vec<f64>,
    pub cs: Vec<f64>,
    pub v_sig: Vec<f64>,
    pub n_ngb: Vec<u32>,
}

impl HydroState {
    /// Number of particles (including ghosts).
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Allocate derived arrays to match the primary ones.
    pub fn resize_derived(&mut self) {
        let n = self.pos.len();
        self.rho.resize(n, 0.0);
        self.acc.resize(n, Vec3::ZERO);
        self.dudt.resize(n, 0.0);
        self.cs.resize(n, 0.0);
        self.v_sig.resize(n, 0.0);
        self.n_ngb.resize(n, 0);
    }

    /// Construct from primary arrays, sizing the derived ones.
    pub fn new(pos: Vec<Vec3>, vel: Vec<Vec3>, mass: Vec<f64>, u: Vec<f64>, h: Vec<f64>) -> Self {
        let mut s = HydroState {
            pos,
            vel,
            mass,
            u,
            h,
            ..Default::default()
        };
        assert_eq!(s.pos.len(), s.vel.len());
        assert_eq!(s.pos.len(), s.mass.len());
        assert_eq!(s.pos.len(), s.u.len());
        assert_eq!(s.pos.len(), s.h.len());
        s.resize_derived();
        s
    }
}

/// How a pass obtains its neighbor tree (see the module docs' lifecycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeReuse {
    /// Re-sort and re-split from the current positions: base steps, or
    /// whenever the particle set itself changed.
    Rebuild,
    /// Keep the cached Morton topology and only re-accumulate node
    /// moments, bounds and `h_max`. Degrades to [`TreeReuse::Rebuild`]
    /// when no valid cache exists, the particle count changed, or the
    /// drift bound tripped.
    Refresh,
}

/// The cached neighbor tree threaded through [`SphScratch`]: topology from
/// the last full build, re-accumulated in place on refreshes.
#[derive(Debug, Clone, Default)]
pub struct SphTreeCache {
    tree: Option<Tree>,
    /// Positions at the last full build — the drift-bound reference.
    ref_pos: Vec<Vec3>,
    /// Cumulative full builds served through this cache.
    pub rebuilds: u64,
    /// Cumulative moment-only refreshes served through this cache.
    pub refreshes: u64,
}

impl SphTreeCache {
    /// Cumulative `(refreshes, rebuilds)` served by this cache.
    pub fn counts(&self) -> (u64, u64) {
        (self.refreshes, self.rebuilds)
    }

    /// Obtain a tree over `pos`/`mass` carrying search radii `radii`,
    /// honouring the reuse policy.
    fn obtain(
        &mut self,
        pos: &[Vec3],
        mass: &[f64],
        radii: &[f64],
        n_leaf: usize,
        reuse: TreeReuse,
    ) -> &Tree {
        let refresh = reuse == TreeReuse::Refresh
            && self
                .tree
                .as_ref()
                .is_some_and(|t| t.may_refresh(pos, &self.ref_pos));
        if refresh {
            let t = self.tree.as_mut().expect("cache validated above");
            t.refresh_with_h(pos, mass, Some(radii));
            self.refreshes += 1;
        } else {
            self.ref_pos.clear();
            self.ref_pos.extend_from_slice(pos);
            self.tree = Some(Tree::build_with_h(pos, mass, Some(radii), n_leaf));
            self.rebuilds += 1;
        }
        self.tree.as_ref().expect("tree set above")
    }
}

/// One thread's buffers of the force pass: the group's candidate spans
/// and the current target's staged pairs.
#[derive(Debug, Default)]
struct ForceLists {
    spans: Vec<(u32, u32)>,
    batch: ForceBatch,
}

thread_local! {
    /// This thread's [`ForceLists`]: the force pass borrows it for one
    /// target at a time (see [`crate::group`]).
    static FORCE_LISTS: RefCell<ForceLists> = RefCell::new(ForceLists::default());
}

/// Reusable staging buffers for the SPH passes: cleared in place every
/// pass, capacities stabilize at the high-water mark after warm-up. Also
/// carries the cross-pass [`SphTreeCache`].
#[derive(Debug, Clone, Default)]
pub struct SphScratch {
    /// Per-particle search radii (`support * h`), fed to the tree build.
    radii: Vec<f64>,
    /// Target indices of the current pass.
    targets: Vec<usize>,
    /// The cached neighbor tree (see the module docs' reuse lifecycle).
    tree: SphTreeCache,
    /// Tree-ordered sources and work plan of the density pass.
    density: DensityScratch,
    /// Tree-ordered j-side hydro inputs of the force pass.
    force_sources: ForceSources,
    /// Work plan of the force pass.
    force_groups: GroupPlan,
}

impl SphScratch {
    /// Buffer capacities, for zero-allocation regression tests: the
    /// staging arrays, then `[tree-ordered sources, work plan]` of the
    /// density and of the force pass.
    pub fn capacities(&self) -> [usize; 7] {
        [
            self.radii.capacity(),
            self.targets.capacity(),
            self.tree.ref_pos.capacity(),
            self.density.sources.capacity(),
            self.density.groups.capacity(),
            self.force_sources.capacity(),
            self.force_groups.capacity(),
        ]
    }

    /// Cumulative `(refreshes, rebuilds)` of the neighbor-tree cache —
    /// drivers report the delta per force evaluation in their stats.
    /// (Cache *safety* needs no manual invalidation hook: `obtain` falls
    /// back to a rebuild on any particle-count change or drift-bound
    /// trip, and a refreshed tree is exact regardless.)
    pub fn tree_counts(&self) -> (u64, u64) {
        self.tree.counts()
    }
}

/// Interaction statistics of one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SphStats {
    /// Neighbours inside `support * h_i` at convergence, summed over the
    /// density pass's targets (the target itself included).
    pub density_interactions: u64,
    /// Pairs the force pass interacted: `r > 0` and
    /// `r < support * max(h_i, h_j)`, summed over its targets. A property
    /// of the particle configuration — not of the tree, its leaves or the
    /// groups the pass ran in.
    pub force_interactions: u64,
    /// Rows the force pass's pre-selection ([`ForceBatch::stage`])
    /// scanned: the candidates of each target's group list, summed over
    /// its targets. Like `force_interactions` it is deterministic, but a
    /// property of the tree's leaves and the pass's groups too, so
    /// `candidates / force_interactions` measures how wide the shared
    /// lists are. Zero for a density pass.
    pub candidates: u64,
    /// Smoothing-length iterations summed over the pass's targets.
    pub h_iterations: u64,
    /// Tree walks single targets issued because `h` outgrew their group's
    /// radius.
    pub h_walks: u64,
    /// Tree walks shared by a group (one per leaf holding targets, plus
    /// one per leaf a work-chunk boundary cut in two).
    /// `(group_walks + h_walks) / h_iterations` is the benched
    /// `h_iter_walk_ratio`: `1.0` when every trial `h` walked, far below
    /// it now that a leaf's targets share one walk across all their
    /// iterations.
    pub group_walks: u64,
}

/// The SPH solver configuration.
pub struct SphSolver<K: SphKernel = CubicSpline> {
    pub kernel: K,
    pub eos: GammaLawEos,
    pub visc: Viscosity,
    pub density_cfg: DensityConfig,
    pub cfl: f64,
}

impl Default for SphSolver<CubicSpline> {
    fn default() -> Self {
        SphSolver {
            kernel: CubicSpline,
            eos: GammaLawEos::default(),
            visc: Viscosity::default(),
            density_cfg: DensityConfig::default(),
            cfl: crate::timestep::DEFAULT_CFL,
        }
    }
}

impl<K: SphKernel> SphSolver<K> {
    /// Kernel-size + density pass ("1st Calc_Kernel_Size_and_Density" in the
    /// paper's phase breakdown): converge `h`, fill `rho`, `cs`, `n_ngb` for
    /// the first `n_local` particles. Ghosts contribute as sources.
    pub fn density_pass(&self, state: &mut HydroState, n_local: usize) -> SphStats {
        self.density_pass_with(state, n_local, &mut SphScratch::default())
    }

    /// [`SphSolver::density_pass`] with caller-owned staging buffers; the
    /// zero-allocation entry point the simulation driver uses every step.
    pub fn density_pass_with(
        &self,
        state: &mut HydroState,
        n_local: usize,
        scratch: &mut SphScratch,
    ) -> SphStats {
        scratch.targets.clear();
        scratch.targets.extend(0..n_local);
        self.density_on_staged_targets(state, scratch, TreeReuse::Rebuild)
    }

    /// Converge `h`/`rho` only for the `targets` subset (hydro-local
    /// indices) while the whole state still acts as sources — the
    /// hierarchical-block-timestep entry point: on a fine substep only the
    /// active level bins re-sum their density; everyone else keeps the
    /// converged values from their own last update. Consumes the cached
    /// neighbor-tree topology ([`TreeReuse::Refresh`]).
    pub fn density_pass_active(
        &self,
        state: &mut HydroState,
        targets: &[usize],
        scratch: &mut SphScratch,
    ) -> SphStats {
        scratch.targets.clear();
        scratch.targets.extend_from_slice(targets);
        self.density_on_staged_targets(state, scratch, TreeReuse::Refresh)
    }

    /// The shared density core: `scratch.targets` is already staged.
    fn density_on_staged_targets(
        &self,
        state: &mut HydroState,
        scratch: &mut SphScratch,
        reuse: TreeReuse,
    ) -> SphStats {
        state.resize_derived();
        let SphScratch {
            radii,
            targets,
            tree: cache,
            density,
            ..
        } = scratch;
        // Stored radii cover the scatter side from the current
        // (pre-iteration) h values; the gather search prunes by node
        // bounding box, so the h-iteration below stays exact even as its
        // query radii outgrow them.
        radii.clear();
        radii.extend(state.h.iter().map(|&hi| self.kernel.support() * hi));
        let tree = cache.obtain(&state.pos, &state.mass, radii, 16, reuse);
        let (results, group_walks) = compute_density_grouped(
            &self.kernel,
            &self.density_cfg,
            tree,
            &state.pos,
            &state.mass,
            &mut state.h,
            targets,
            density,
        );
        let mut stats = SphStats {
            group_walks,
            ..SphStats::default()
        };
        for (slot, r) in density.groups.slots().zip(&results) {
            let i = targets[slot];
            state.rho[i] = r.rho;
            state.n_ngb[i] = r.n_ngb as u32;
            state.cs[i] = self.eos.sound_speed(state.u[i]);
            stats.density_interactions += r.n_ngb as u64;
            stats.h_iterations += r.iterations as u64;
            stats.h_walks += r.walks as u64;
        }
        stats
    }

    /// Hydro force pass ("1st Calc_Force"): fill `acc`, `dudt`, `v_sig` for
    /// the first `n_local` particles. Requires a prior density pass, and
    /// ghosts (if any) must arrive with converged `rho`, `h`, `u`.
    pub fn force_pass(&self, state: &mut HydroState, n_local: usize) -> SphStats {
        self.force_pass_with(state, n_local, &mut SphScratch::default())
    }

    /// [`SphSolver::force_pass`] with caller-owned staging buffers; the
    /// zero-allocation entry point the simulation driver uses every step.
    /// Refreshes the neighbor tree cached by the preceding density pass
    /// (positions unchanged, only `h` converged) instead of rebuilding it.
    pub fn force_pass_with(
        &self,
        state: &mut HydroState,
        n_local: usize,
        scratch: &mut SphScratch,
    ) -> SphStats {
        scratch.targets.clear();
        scratch.targets.extend(0..n_local);
        self.force_on_staged_targets(state, scratch, TreeReuse::Refresh)
    }

    /// Hydro forces only for the `targets` subset (hydro-local indices),
    /// with the whole state as sources — the block-timestep companion of
    /// [`SphSolver::density_pass_active`]. Inactive particles keep the
    /// `acc`/`dudt`/`v_sig` from their own last update. Consumes the
    /// cached neighbor-tree topology ([`TreeReuse::Refresh`]).
    pub fn force_pass_active(
        &self,
        state: &mut HydroState,
        targets: &[usize],
        scratch: &mut SphScratch,
    ) -> SphStats {
        scratch.targets.clear();
        scratch.targets.extend_from_slice(targets);
        self.force_on_staged_targets(state, scratch, TreeReuse::Refresh)
    }

    /// The shared force core: `scratch.targets` is already staged.
    fn force_on_staged_targets(
        &self,
        state: &mut HydroState,
        scratch: &mut SphScratch,
        reuse: TreeReuse,
    ) -> SphStats {
        state.resize_derived();
        let support = self.kernel.support();
        let SphScratch {
            radii,
            targets,
            tree: cache,
            force_sources: sources,
            force_groups,
            ..
        } = scratch;
        radii.clear();
        radii.extend(state.h.iter().map(|&h| support * h));
        let tree = cache.obtain(&state.pos, &state.mass, radii, 16, reuse);

        let input = |i: usize| {
            let rho = state.rho[i].max(1e-300);
            HydroInput {
                pos: state.pos[i],
                vel: state.vel[i],
                mass: state.mass[i],
                h: state.h[i],
                rho,
                p_over_rho2: self.eos.p_over_rho2(rho, state.u[i]),
                cs: self.eos.sound_speed(state.u[i]),
            }
        };
        sources.fill(tree.order.iter().map(|&j| input(j as usize)));
        let sources = &*sources;

        // Per group: one scatter-aware walk (a source's own stored radius
        // may reach the box too); per target: select the interacting pairs
        // among the group's candidates and run the batched kernel on those.
        let (results, group_walks) = force_groups.run(
            &FORCE_LISTS,
            tree,
            targets,
            |i| (state.pos[i], radii[i]),
            |lists, bbox, radius| {
                lists.spans.clear();
                tree.spans_of_box(bbox, radius, &mut lists.spans);
            },
            |lists, i| {
                let pi = input(i);
                lists.batch.stage(support, &pi, sources, &lists.spans);
                let mut out = HydroAccum::default();
                force_batch(
                    &self.kernel,
                    &self.visc,
                    &pi,
                    sources,
                    &mut lists.batch,
                    &mut out,
                );
                let candidates = span_len(&lists.spans) as u64;
                (out, lists.batch.len() as u64, candidates)
            },
        );

        let mut stats = SphStats {
            group_walks,
            ..SphStats::default()
        };
        for (slot, (r, pairs, candidates)) in force_groups.slots().zip(results) {
            let i = targets[slot];
            state.acc[i] = r.acc;
            state.dudt[i] = r.dudt;
            state.v_sig[i] = r.v_sig_max;
            stats.force_interactions += pairs;
            stats.candidates += candidates;
        }
        stats
    }

    /// Minimum CFL/acceleration timestep over the first `n_local` particles.
    pub fn min_timestep(&self, state: &HydroState, n_local: usize) -> f64 {
        (0..n_local)
            .map(|i| {
                dt_cfl(self.cfl, state.h[i], state.cs[i], state.v_sig[i]).min(dt_accel(
                    self.cfl,
                    state.h[i],
                    state.acc[i].norm(),
                ))
            })
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relaxed glass-like cube: jittered lattice, uniform u.
    fn uniform_box(n_side: usize, a: f64, u: f64) -> HydroState {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut pos = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                for k in 0..n_side {
                    pos.push(Vec3::new(
                        i as f64 * a + rng.gen_range(-0.01..0.01) * a,
                        j as f64 * a + rng.gen_range(-0.01..0.01) * a,
                        k as f64 * a + rng.gen_range(-0.01..0.01) * a,
                    ));
                }
            }
        }
        let n = pos.len();
        HydroState::new(
            pos,
            vec![Vec3::ZERO; n],
            vec![1.0; n],
            vec![u; n],
            vec![1.3 * a; n],
        )
    }

    #[test]
    fn uniform_medium_has_negligible_net_force() {
        let mut s = uniform_box(8, 1.0, 1.0);
        let n = s.len();
        let solver = SphSolver::default();
        solver.density_pass(&mut s, n);
        solver.force_pass(&mut s, n);
        // Interior particles: force should nearly vanish (pressure balance).
        let pressure_scale = {
            let eos = GammaLawEos::default();
            eos.pressure(1.0, 1.0) // ~ rho c^2 scale
        };
        for i in 0..n {
            let p = s.pos[i];
            let interior =
                (2.5..4.5).contains(&p.x) && (2.5..4.5).contains(&p.y) && (2.5..4.5).contains(&p.z);
            if interior {
                assert!(
                    s.acc[i].norm() < 0.5 * pressure_scale,
                    "interior acc {:?} too large",
                    s.acc[i]
                );
            }
        }
    }

    #[test]
    fn force_pass_conserves_momentum_and_energy() {
        let mut s = uniform_box(6, 1.0, 1.0);
        // Kick the center to create converging flow.
        let n = s.len();
        for i in 0..n {
            let d = s.pos[i] - Vec3::splat(2.5);
            s.vel[i] = -d * 0.1;
        }
        let solver = SphSolver::default();
        solver.density_pass(&mut s, n);
        solver.force_pass(&mut s, n);
        let mut net = Vec3::ZERO;
        let mut de = 0.0;
        for i in 0..n {
            net += s.acc[i] * s.mass[i];
            de += s.mass[i] * (s.acc[i].dot(s.vel[i]) + s.dudt[i]);
        }
        assert!(net.norm() < 1e-10, "net force {net:?}");
        assert!(de.abs() < 1e-9, "energy drift rate {de}");
    }

    #[test]
    fn point_heating_drives_radial_expansion() {
        // Inject energy at the centre; after one force pass the neighbours
        // must accelerate outward — the Sedov launch this paper surrogates.
        let mut s = uniform_box(8, 1.0, 0.01);
        let n = s.len();
        let center_pos = Vec3::splat(3.5);
        let center = (0..n)
            .min_by(|&a, &b| {
                (s.pos[a] - center_pos)
                    .norm2()
                    .total_cmp(&(s.pos[b] - center_pos).norm2())
            })
            .unwrap();
        s.u[center] = 1000.0;
        let solver = SphSolver::default();
        solver.density_pass(&mut s, n);
        solver.force_pass(&mut s, n);
        let mut outward = 0;
        let mut total = 0;
        for i in 0..n {
            let d = s.pos[i] - s.pos[center];
            let r = d.norm();
            if i != center && r < 2.0 {
                total += 1;
                if s.acc[i].dot(d) > 0.0 {
                    outward += 1;
                }
            }
        }
        assert!(total > 10);
        assert!(
            outward as f64 > 0.9 * total as f64,
            "{outward}/{total} neighbours accelerate outward"
        );
    }

    #[test]
    fn hot_state_shrinks_the_cfl_timestep() {
        let mut cold = uniform_box(6, 1.0, 0.01);
        let mut hot = uniform_box(6, 1.0, 100.0);
        let n = cold.len();
        let solver = SphSolver::default();
        solver.density_pass(&mut cold, n);
        solver.force_pass(&mut cold, n);
        solver.density_pass(&mut hot, n);
        solver.force_pass(&mut hot, n);
        let dt_cold = solver.min_timestep(&cold, n);
        let dt_hot = solver.min_timestep(&hot, n);
        assert!(dt_hot < dt_cold / 10.0, "hot {dt_hot} vs cold {dt_cold}");
    }

    #[test]
    fn active_passes_match_full_passes_on_the_subset() {
        // Converge a full reference state, then re-run density+force on a
        // scattered active subset of a *poisoned* copy: active entries must
        // reproduce the reference, inactive ones must keep their values.
        let mut reference = uniform_box(6, 1.0, 1.0);
        let n = reference.len();
        for i in 0..n {
            let d = reference.pos[i] - Vec3::splat(2.5);
            reference.vel[i] = -d * 0.1;
        }
        let solver = SphSolver::default();
        let mut scratch = SphScratch::default();
        solver.density_pass_with(&mut reference, n, &mut scratch);
        solver.force_pass_with(&mut reference, n, &mut scratch);

        let mut state = reference.clone();
        let targets: Vec<usize> = (0..n).step_by(5).collect();
        let mut is_active = vec![false; n];
        for &t in &targets {
            is_active[t] = true;
        }
        for &i in &targets {
            // Poison only derived values the passes must restore.
            state.rho[i] = -1.0;
            state.acc[i] = Vec3::splat(1e30);
            state.dudt[i] = 1e30;
            state.v_sig[i] = 1e30;
        }
        let d = solver.density_pass_active(&mut state, &targets, &mut scratch);
        let f = solver.force_pass_active(&mut state, &targets, &mut scratch);
        assert!(d.density_interactions > 0 && f.force_interactions > 0);
        for (i, &active) in is_active.iter().enumerate() {
            if active {
                assert!((state.rho[i] - reference.rho[i]).abs() < 1e-12, "rho[{i}]");
                assert!((state.acc[i] - reference.acc[i]).norm() < 1e-12, "acc[{i}]");
                assert!(
                    (state.dudt[i] - reference.dudt[i]).abs() < 1e-12,
                    "dudt[{i}]"
                );
                assert!(state.h[i] > 0.0);
            } else {
                assert_eq!(state.rho[i], reference.rho[i], "inactive rho[{i}] touched");
                assert_eq!(state.acc[i], reference.acc[i], "inactive acc[{i}] touched");
            }
        }
        // The subset pass does proportionally less interaction work.
        let full = solver.force_pass_with(&mut state, n, &mut scratch);
        assert!(
            f.force_interactions * 2 < full.force_interactions,
            "active force pass should prune work: {} vs {}",
            f.force_interactions,
            full.force_interactions
        );
    }

    /// `SphStats::candidates` counts the rows the force pass's
    /// pre-selection scanned: every target's whole group list, so at
    /// least one row per interacting pair plus the target itself; the
    /// same on a repeated pass, fewer on an active subset, zero for a
    /// density pass.
    #[test]
    fn force_pass_counts_the_candidates_it_scanned() {
        let mut s = uniform_box(8, 1.0, 1.0);
        let n = s.len();
        let solver = SphSolver::default();
        let mut scratch = SphScratch::default();
        let d = solver.density_pass_with(&mut s, n, &mut scratch);
        assert_eq!(d.candidates, 0);
        let full = solver.force_pass_with(&mut s, n, &mut scratch);
        assert!(full.candidates >= full.force_interactions + n as u64);
        let again = solver.force_pass_with(&mut s, n, &mut scratch);
        assert_eq!(again.candidates, full.candidates);
        let subset: Vec<usize> = (0..n).step_by(7).collect();
        let active = solver.force_pass_active(&mut s, &subset, &mut scratch);
        assert!(active.candidates >= active.force_interactions + subset.len() as u64);
        assert!(active.candidates < full.candidates);
    }

    #[test]
    fn force_pass_refreshes_the_density_pass_tree() {
        // One full density+force evaluation through a shared scratch must
        // cost exactly one tree build: the force pass refreshes the
        // density pass's topology (same positions, converged h).
        let mut s = uniform_box(6, 1.0, 1.0);
        let n = s.len();
        let solver = SphSolver::default();
        let mut scratch = SphScratch::default();
        solver.density_pass_with(&mut s, n, &mut scratch);
        solver.force_pass_with(&mut s, n, &mut scratch);
        assert_eq!(scratch.tree_counts(), (1, 1), "(refreshes, rebuilds)");
        // A second evaluation: density rebuilds, force refreshes again.
        solver.density_pass_with(&mut s, n, &mut scratch);
        solver.force_pass_with(&mut s, n, &mut scratch);
        assert_eq!(scratch.tree_counts(), (2, 2));
    }

    #[test]
    fn refreshed_tree_passes_match_a_rebuilt_tree() {
        // Drift a converged state a little (the substep situation), then
        // run the active passes twice: once consuming the cached topology
        // (Refresh) and once from a cold cache (Rebuild). The physics must
        // agree to the documented 1e-12 relative tolerance — candidate
        // ordering differs between the two topologies, so bitwise equality
        // is not guaranteed, but the neighbor *sets* are identical.
        let mut warm = uniform_box(7, 1.0, 1.0);
        let n = warm.len();
        for i in 0..n {
            let d = warm.pos[i] - Vec3::splat(3.0);
            warm.vel[i] = -d * 0.05;
        }
        let solver = SphSolver::default();
        let mut warm_scratch = SphScratch::default();
        solver.density_pass_with(&mut warm, n, &mut warm_scratch);
        solver.force_pass_with(&mut warm, n, &mut warm_scratch);
        // Substep drift: everyone moves a little; topology kept.
        for i in 0..n {
            warm.pos[i] += warm.vel[i] * 1e-3;
        }
        let mut cold = warm.clone();
        let mut cold_scratch = SphScratch::default();
        let targets: Vec<usize> = (0..n).step_by(3).collect();

        let (r0, _) = warm_scratch.tree_counts();
        solver.density_pass_active(&mut warm, &targets, &mut warm_scratch);
        solver.force_pass_active(&mut warm, &targets, &mut warm_scratch);
        let (r1, _) = warm_scratch.tree_counts();
        assert_eq!(r1 - r0, 2, "both active passes must refresh, not rebuild");

        solver.density_pass_active(&mut cold, &targets, &mut cold_scratch);
        solver.force_pass_active(&mut cold, &targets, &mut cold_scratch);
        // The cold density pass falls back to a rebuild (fresh topology
        // from the *drifted* positions — different from warm's cached
        // pre-drift topology); the cold force pass then refreshes it.
        let (cold_r, cold_b) = cold_scratch.tree_counts();
        assert_eq!((cold_r, cold_b), (1, 1), "(refreshes, rebuilds)");

        for &i in &targets {
            let rho_rel = (warm.rho[i] - cold.rho[i]).abs() / cold.rho[i].abs().max(1e-300);
            assert!(rho_rel < 1e-12, "rho[{i}] rel err {rho_rel}");
            assert_eq!(warm.h[i], cold.h[i], "h[{i}] iteration must agree");
            assert_eq!(warm.n_ngb[i], cold.n_ngb[i], "n_ngb[{i}]");
            let acc_rel =
                (warm.acc[i] - cold.acc[i]).norm() / cold.acc[i].norm().max(1e-300).max(1e-12);
            assert!(acc_rel < 1e-12, "acc[{i}] rel err {acc_rel}");
            let dudt_rel = (warm.dudt[i] - cold.dudt[i]).abs() / cold.dudt[i].abs().max(1e-12);
            assert!(dudt_rel < 1e-12, "dudt[{i}] rel err {dudt_rel}");
        }
    }

    #[test]
    fn full_force_pass_on_refreshed_tree_matches_rebuilt_tree() {
        // The Global-mode usage pattern: every evaluation runs density
        // (rebuild) then force (refresh). The refreshed-tree force results
        // must match a force pass that rebuilds its own tree, within the
        // documented 1e-12 relative tolerance.
        let mut a = uniform_box(6, 1.0, 1.0);
        let n = a.len();
        for i in 0..n {
            let d = a.pos[i] - Vec3::splat(2.5);
            a.vel[i] = -d * 0.1;
        }
        let mut b = a.clone();
        let solver = SphSolver::default();

        let mut shared = SphScratch::default();
        solver.density_pass_with(&mut a, n, &mut shared);
        solver.force_pass_with(&mut a, n, &mut shared); // refresh path

        let mut first = SphScratch::default();
        solver.density_pass_with(&mut b, n, &mut first);
        let mut fresh = SphScratch::default();
        solver.force_pass_with(&mut b, n, &mut fresh); // rebuild path
        assert_eq!(fresh.tree_counts(), (0, 1), "cold force pass rebuilds");

        for i in 0..n {
            let acc_rel = (a.acc[i] - b.acc[i]).norm() / b.acc[i].norm().max(1e-12);
            assert!(acc_rel < 1e-12, "acc[{i}] rel err {acc_rel}");
            let dudt_rel = (a.dudt[i] - b.dudt[i]).abs() / b.dudt[i].abs().max(1e-12);
            assert!(dudt_rel < 1e-12, "dudt[{i}] rel err {dudt_rel}");
            assert_eq!(a.rho[i], b.rho[i], "density paths are identical");
        }
    }

    /// One warm-up evaluation, then three rounds of full and active
    /// passes over the same state; returns the capacities `caps` read
    /// after the warm-up and after the rounds.
    fn warm_then_repeat<C>(caps: impl Fn(&SphScratch) -> C) -> (C, C) {
        let mut s = uniform_box(8, 1.0, 1.0);
        let n = s.len();
        let solver = SphSolver::default();
        let mut scratch = SphScratch::default();
        solver.density_pass_with(&mut s, n, &mut scratch);
        solver.force_pass_with(&mut s, n, &mut scratch);
        let warm = caps(&scratch);
        let active: Vec<usize> = (0..n).step_by(3).collect();
        for _ in 0..3 {
            solver.density_pass_with(&mut s, n, &mut scratch);
            solver.force_pass_with(&mut s, n, &mut scratch);
            solver.density_pass_active(&mut s, &active, &mut scratch);
            solver.force_pass_active(&mut s, &active, &mut scratch);
        }
        (warm, caps(&scratch))
    }

    #[test]
    fn repeated_passes_do_not_grow_the_scratch() {
        // After one warm-up evaluation the staging arrays and work plans
        // are at their high-water mark: full and active passes over the
        // same state leave the capacity signature alone.
        let (warm, after) = warm_then_repeat(SphScratch::capacities);
        assert!(warm.iter().all(|&c| c > 0), "warm-up left {warm:?}");
        assert_eq!(after, warm, "scratch grew after warm-up");
    }

    #[test]
    fn repeated_passes_do_not_grow_the_threads_group_lists() {
        // Inside `rayon::solo` every group runs on this thread, so its
        // neighbour and force lists meet every group of every pass: after
        // the warm-up they hold the widest, and the rounds grow none.
        let lists = |_: &SphScratch| {
            let density = crate::density::NEIGHBOR_CACHE.with_borrow(|c| c.capacities());
            let force = FORCE_LISTS.with_borrow(|l| (l.spans.capacity(), l.batch.capacities()));
            (density, force)
        };
        let (warm, after) = rayon::solo(|| warm_then_repeat(lists));
        let (density, (spans, batch)) = warm;
        // `own` holds the fallback walks, which a lattice never needs.
        assert!(density[0] > 0 && density[2..].iter().all(|&c| c > 0));
        assert!(spans > 0 && batch.iter().all(|&c| c > 0), "{batch:?}");
        assert_eq!(after, warm, "the thread's group lists grew after warm-up");
    }

    #[test]
    fn large_drift_degrades_refresh_to_rebuild() {
        let mut s = uniform_box(6, 1.0, 1.0);
        let n = s.len();
        let solver = SphSolver::default();
        let mut scratch = SphScratch::default();
        solver.density_pass_with(&mut s, n, &mut scratch);
        // Teleport one particle across the box: beyond Tree::DRIFT_FRACTION.
        s.pos[0] += Vec3::splat(3.0);
        let targets: Vec<usize> = (0..n).collect();
        let (_, b0) = scratch.tree_counts();
        solver.density_pass_active(&mut s, &targets, &mut scratch);
        let (_, b1) = scratch.tree_counts();
        assert_eq!(b1 - b0, 1, "the drift bound must force a rebuild");
    }

    #[test]
    fn ghosts_contribute_as_sources_only() {
        let mut s = uniform_box(6, 1.0, 1.0);
        let n_local = s.len() / 2;
        let n = s.len();
        let solver = SphSolver::default();
        solver.density_pass(&mut s, n_local);
        // Ghost derived values: emulate owner-computed rho/h.
        for i in n_local..n {
            s.rho[i] = 1.0;
        }
        solver.force_pass(&mut s, n_local);
        // Ghost accelerations stay zero (never targeted).
        for i in n_local..n {
            assert_eq!(s.acc[i], Vec3::ZERO);
        }
        // Local particles near the ghost region still received forces.
        assert!(s.acc[..n_local].iter().any(|a| a.norm() > 0.0));
    }
}
