//! Density summation and the kernel-size (smoothing-length) iteration
//! (paper §5.2.5: "this part includes both tree walk and interaction
//! calculation, and they are repeated until the results converge. The
//! iterations are usually twice, if we can set the initial guess of the
//! kernel size properly.").
//!
//! # Shared interaction lists
//!
//! Neither a target nor a trial `h` walks the tree on its own. Once per
//! pass the sources' positions and masses are laid out in tree (Morton)
//! order ([`DensitySources`]), so that a tree walk can name its candidates
//! as a few contiguous spans of those columns. The pass then runs over
//! FDPS-style groups — one per leaf of the neighbour tree, see
//! [`crate::group`] — and a per-worker [`NeighborCache`] holds the list at
//! three widths, each filtered from the one before:
//!
//! 1. **Group list** — one gather-only [`fdps::Tree::gather_spans_of_box`]
//!    walk around the bounding box of the leaf's targets at their largest
//!    search radius: a handful of spans, shared by every target of the
//!    leaf.
//! 2. **Target rows** — per target, squared separations over those spans
//!    and the rows within the target's own staging radius (distances are
//!    computed once per target, not per trial `h`: positions are fixed
//!    during the iteration).
//! 3. **In-support rows** — per trial `h`, the rows passing the exact
//!    gather test `r < support * h`, on which `W` is evaluated in batch
//!    and summed over four lanes assigned by *rank among those rows*.
//!
//! Step 3 sees exactly the set, in exactly the (depth-first tree) order,
//! that [`density_one_reference`] sees, whatever the widths of steps 1 and
//! 2 were — so `h`, `n_ngb` and the iteration count are bitwise those of
//! the reference, and `rho` depends on nothing but the target's own
//! in-support set (the group-independence rule of [`crate::group`]).
//!
//! Only when `support * h` outgrows the group radius does a target fall
//! back to a walk of its own — padded by [`NeighborCache::REWALK_MARGIN`]
//! so further modest growth re-filters again. [`DensityResult::walks`]
//! counts those fallbacks; together with the group walks, over
//! [`DensityResult::iterations`], they are the gated `h_iter_walk_ratio`.

use crate::group::{reserve_column, span_len, GroupBuffers, GroupScratch};
use crate::kernel::SphKernel;
#[cfg(target_arch = "x86_64")]
use crate::simd::{self, Avx2};
use fdps::{BBox, Tree, Vec3};

/// Result of a converged density pass for one particle.
#[derive(Debug, Clone, Copy, Default)]
pub struct DensityResult {
    pub rho: f64,
    pub h: f64,
    /// Number of neighbours inside the support radius.
    pub n_ngb: usize,
    /// Smoothing-length iterations taken.
    pub iterations: u32,
    /// Tree walks this target issued on its own: fallbacks past the group
    /// radius (the group's shared walk is counted per group, not here).
    pub walks: u32,
}

/// Parameters of the smoothing-length iteration.
#[derive(Debug, Clone, Copy)]
pub struct DensityConfig {
    /// Target neighbour count (paper: the kernel radius is "typically the
    /// size of 100 gas SPH particles").
    pub n_ngb_target: usize,
    /// Relative tolerance on the neighbour count.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for DensityConfig {
    fn default() -> Self {
        DensityConfig {
            n_ngb_target: 64,
            tolerance: 0.15,
            max_iter: 8,
        }
    }
}

/// Positions and masses of every source of a pass, laid out in the
/// neighbour tree's (Morton) order: entry `k` belongs to particle
/// `tree.order[k]`, so the spans a tree walk returns address these columns
/// directly and contiguously.
#[derive(Debug, Clone, Default)]
pub struct DensitySources {
    pub(crate) x: Vec<f64>,
    pub(crate) y: Vec<f64>,
    pub(crate) z: Vec<f64>,
    pub(crate) m: Vec<f64>,
}

impl DensitySources {
    /// Lay `pos`/`mass` out in `tree`'s order, by slot: every column is
    /// sized to the tree once (capacity kept) and entry `k` written in
    /// place.
    pub fn fill(&mut self, tree: &Tree, pos: &[Vec3], mass: &[f64]) {
        for col in [&mut self.x, &mut self.y, &mut self.z, &mut self.m] {
            col.resize(tree.order.len(), 0.0);
        }
        let slots = self
            .x
            .iter_mut()
            .zip(&mut self.y)
            .zip(&mut self.z)
            .zip(&mut self.m);
        for ((((x, y), z), m), &j) in slots.zip(&tree.order) {
            let p = pos[j as usize];
            (*x, *y, *z, *m) = (p.x, p.y, p.z, mass[j as usize]);
        }
    }

    /// Column capacity, for zero-allocation regression tests.
    pub(crate) fn capacity(&self) -> usize {
        self.x.capacity()
    }
}

/// Per-worker neighbour lists of the density pass (see the module docs):
/// the group's spans, the current target's rows, and the in-support rows
/// of the current trial `h`. Cleared in place between groups and targets,
/// so steady-state passes reuse its capacity.
#[derive(Debug, Clone, Default)]
pub struct NeighborCache {
    /// The group list, shared by every target of the leaf, and the radius
    /// it covers around each of them.
    group: Vec<(u32, u32)>,
    group_radius: f64,
    /// A single target's fallback walk, when `h` outgrew the group radius.
    own: Vec<(u32, u32)>,
    /// `|x_i - x_j|` and `m_j` of the candidates within `radius`.
    r: Vec<f64>,
    m: Vec<f64>,
    /// Radius the target rows cover.
    radius: f64,
    /// In-support rows of the current trial `h`, and their kernel values.
    r_in: Vec<f64>,
    m_in: Vec<f64>,
    w: Vec<f64>,
}

impl GroupBuffers for NeighborCache {
    fn capacity(&self) -> usize {
        self.r.capacity()
    }

    fn reserve(&mut self, n: usize) {
        for col in [
            &mut self.r,
            &mut self.m,
            &mut self.r_in,
            &mut self.m_in,
            &mut self.w,
        ] {
            reserve_column(col, n);
        }
    }
}

impl NeighborCache {
    /// Padding applied to the search radius once `h` has outgrown the
    /// target rows: the iteration is then known to be live, and staging
    /// slightly wide lets further growth up to this factor re-filter
    /// instead of staging (or, past the group radius, walking) again. The
    /// first staging is unpadded so the common converged-in-one case works
    /// on the tightest rows.
    pub const REWALK_MARGIN: f64 = 1.2;

    /// Stage the group list: one walk for every target in `bbox` whose
    /// search radius stays within `radius`.
    fn stage_group(&mut self, tree: &Tree, bbox: &BBox, radius: f64) {
        self.group.clear();
        tree.gather_spans_of_box(bbox, radius, &mut self.group);
        self.group_radius = radius;
        self.reserve(span_len(&self.group));
    }

    /// Stage the rows of the target at `xi` within `radius` — from the
    /// group list, or from a walk of the target's own if the group list
    /// does not reach that far. Returns whether it had to walk.
    fn stage_target(
        &mut self,
        tree: &Tree,
        sources: &DensitySources,
        xi: Vec3,
        radius: f64,
    ) -> bool {
        let walked = radius > self.group_radius;
        if walked {
            self.own.clear();
            tree.gather_spans_of_box(&BBox::new(xi, xi), radius, &mut self.own);
            self.reserve(span_len(&self.own));
        }
        let spans = if walked { &self.own } else { &self.group };
        select_rows(&mut self.r, &mut self.m, sources, spans, xi, radius);
        self.radius = radius;
        walked
    }

    /// Stage as target rows the candidates of `spans` (ranges of
    /// `sources`) within `radius` of `xi`, as the density pass does for
    /// each target. Runs the AVX2 body where the CPU has it; the rows are
    /// those of [`NeighborCache::stage_rows_portable`], bit for bit.
    pub fn stage_rows(
        &mut self,
        sources: &DensitySources,
        spans: &[(u32, u32)],
        xi: Vec3,
        radius: f64,
    ) {
        select_rows(&mut self.r, &mut self.m, sources, spans, xi, radius);
        self.radius = radius;
    }

    /// [`NeighborCache::stage_rows`] through the portable body on every
    /// CPU; public so the equivalence tests can pin the dispatched path
    /// against it.
    pub fn stage_rows_portable(
        &mut self,
        sources: &DensitySources,
        spans: &[(u32, u32)],
        xi: Vec3,
        radius: f64,
    ) {
        rows_with(
            &mut self.r,
            &mut self.m,
            span_len(spans),
            radius,
            |r, m, limit| select_rows_portable(xi, limit, sources, spans, r, m),
        );
        self.radius = radius;
    }

    /// The staged target rows `(r, m)`: `|x_i - x_j|` and `m_j`.
    pub fn rows(&self) -> (&[f64], &[f64]) {
        (&self.r, &self.m)
    }

    /// Sum `rho = sum m_j W(r_j, h)` and count neighbours over the target
    /// rows passing the exact gather test `r_j < rad`. `W` is evaluated
    /// through the kernel's batch method on the in-support rows only; the
    /// accumulation runs over 4 independent lanes, assigned by rank among
    /// those rows and reduced in a fixed order — a function of the
    /// in-support set alone. Selects the rows with the AVX2 body where the
    /// CPU has it; the result is that of
    /// [`NeighborCache::sum_density_portable`], bit for bit.
    pub fn sum_density(&mut self, kernel: &dyn SphKernel, h: f64, rad: f64) -> (f64, usize) {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            return self.sum_with(kernel, h, |r, m, r_in, m_in| {
                simd::select_below(avx2, rad, r, m, r_in, m_in)
            });
        }
        self.sum_density_portable(kernel, h, rad)
    }

    /// [`NeighborCache::sum_density`] through the portable body on every
    /// CPU; public so the equivalence tests can pin the dispatched path
    /// against it.
    pub fn sum_density_portable(
        &mut self,
        kernel: &dyn SphKernel,
        h: f64,
        rad: f64,
    ) -> (f64, usize) {
        self.sum_with(kernel, h, |r, m, r_in, m_in| {
            select_below_portable(rad, r, m, r_in, m_in)
        })
    }

    /// Both density sums around their row selection: `select` packs the
    /// in-support rows of `r`/`m` to the front of `r_in`/`m_in` and
    /// returns their number.
    fn sum_with(
        &mut self,
        kernel: &dyn SphKernel,
        h: f64,
        select: impl FnOnce(&[f64], &[f64], &mut [f64], &mut [f64]) -> usize,
    ) -> (f64, usize) {
        const L: usize = 4;
        self.r_in.resize(self.r.len(), 0.0);
        self.m_in.resize(self.r.len(), 0.0);
        let n = select(&self.r, &self.m, &mut self.r_in, &mut self.m_in);
        self.r_in.truncate(n);
        self.m_in.truncate(n);
        self.w.resize(n, 0.0);
        kernel.w_batch(&self.r_in, h, &mut self.w);
        let mut rho_l = [0.0f64; L];
        let (m4, w4) = (self.m_in.chunks_exact(L), self.w.chunks_exact(L));
        let (m_tail, w_tail) = (m4.remainder(), w4.remainder());
        for (m, w) in m4.zip(w4) {
            for ((acc, m), w) in rho_l.iter_mut().zip(m).zip(w) {
                *acc += m * w;
            }
        }
        for (m, w) in m_tail.iter().zip(w_tail) {
            rho_l[0] += m * w;
        }
        ((rho_l[0] + rho_l[1]) + (rho_l[2] + rho_l[3]), n)
    }
}

/// The portable in-support selection of the density sum: the rows of
/// `r`/`m` with `r < rad`, packed to the front of `r_in`/`m_in` (one slot
/// per row, branch-free as in [`select_rows_portable`]); returns their
/// number. Also the AVX2 body's tail, hence inlined there.
#[inline(always)]
pub(crate) fn select_below_portable(
    rad: f64,
    r: &[f64],
    m: &[f64],
    r_in: &mut [f64],
    m_in: &mut [f64],
) -> usize {
    let mut n = 0;
    for (&r, &m) in r.iter().zip(m) {
        r_in[n] = r;
        m_in[n] = m;
        n += (r < rad) as usize;
    }
    n
}

/// The target rows of `spans` within `radius` of `xi` into `r`/`m`: the
/// AVX2 body where the CPU has it, the portable one elsewhere.
fn select_rows(
    r: &mut Vec<f64>,
    m: &mut Vec<f64>,
    sources: &DensitySources,
    spans: &[(u32, u32)],
    xi: Vec3,
    radius: f64,
) {
    let n = span_len(spans);
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = Avx2::detect() {
        rows_with(r, m, n, radius, |r, m, limit| {
            simd::select_rows(avx2, xi, limit, sources, spans, r, m)
        });
        return;
    }
    rows_with(r, m, n, radius, |r, m, limit| {
        select_rows_portable(xi, limit, sources, spans, r, m)
    });
}

/// Size `r`/`m` for `n` candidates, let `select` pack the rows with
/// `r2 <= limit` to their front, keep those and take their square roots.
///
/// `r < radius` implies `r2 <= radius * radius` under correct rounding,
/// so squared separations select a superset of every in-support set up
/// to `radius` and only those rows pay a sqrt.
fn rows_with(
    r: &mut Vec<f64>,
    m: &mut Vec<f64>,
    n: usize,
    radius: f64,
    select: impl FnOnce(&mut [f64], &mut [f64], f64) -> usize,
) {
    // Every entry below the kept count is written before it is read, so
    // the columns only need the length, not fresh contents.
    r.resize(n, 0.0);
    m.resize(n, 0.0);
    let kept = select(r, m, radius * radius);
    r.truncate(kept);
    m.truncate(kept);
    for r in r.iter_mut() {
        *r = r.sqrt();
    }
}

/// The portable row selection: writes every candidate's squared
/// separation and mass to `r`/`m` (one slot per candidate) and returns how
/// many rows with `r2 <= limit` it packed to the front, in span order.
/// Branch-free compaction: which candidates are near follows no
/// predictable pattern, so write every row and advance on a hit. Also the
/// AVX2 body's tail on every span, hence inlined there.
#[inline(always)]
pub(crate) fn select_rows_portable(
    xi: Vec3,
    limit: f64,
    sources: &DensitySources,
    spans: &[(u32, u32)],
    r: &mut [f64],
    m: &mut [f64],
) -> usize {
    let mut kept = 0;
    for &(s, e) in spans {
        let span = s as usize..e as usize;
        let xyz = sources.x[span.clone()]
            .iter()
            .zip(&sources.y[span.clone()])
            .zip(&sources.z[span.clone()]);
        for (((&x, &y), &z), &mass) in xyz.zip(&sources.m[span]) {
            let (dx, dy, dz) = (xi.x - x, xi.y - y, xi.z - z);
            let r2 = dx * dx + dy * dy + dz * dz;
            r[kept] = r2;
            m[kept] = mass;
            kept += (r2 <= limit) as usize;
        }
    }
    kept
}

/// Iterate the smoothing length of a target at `xi` and sum its density
/// from the group list staged in `cache`, which must cover `support * h0`
/// around it (see the module docs). `h`, `n_ngb` and the iteration
/// trajectory are exactly those of [`density_one_reference`] on the same
/// tree; `rho` agrees to lane-reassociation rounding (`~1e-15` relative).
fn density_in_group(
    kernel: &dyn SphKernel,
    cfg: &DensityConfig,
    tree: &Tree,
    sources: &DensitySources,
    xi: Vec3,
    h0: f64,
    cache: &mut NeighborCache,
) -> DensityResult {
    let mut h = h0.max(1e-12);
    let support = kernel.support();
    let mut result;
    let mut iterations = 0u32;
    let mut walks = 0u32;
    loop {
        let rad = support * h;
        if iterations == 0 || rad > cache.radius {
            let radius = if iterations == 0 {
                rad
            } else {
                rad * NeighborCache::REWALK_MARGIN
            };
            walks += cache.stage_target(tree, sources, xi, radius) as u32;
        }
        let (rho, n_ngb) = cache.sum_density(kernel, h, rad);
        iterations += 1;
        result = DensityResult {
            rho,
            h,
            n_ngb,
            iterations,
            walks,
        };
        let err = (n_ngb as f64 - cfg.n_ngb_target as f64).abs() / cfg.n_ngb_target as f64;
        if err <= cfg.tolerance || iterations >= cfg.max_iter as u32 {
            break;
        }
        // Neighbour count scales with h^3: correct h geometrically, clamped
        // to avoid oscillation around sparse regions.
        let ratio = if n_ngb == 0 {
            2.0
        } else {
            (cfg.n_ngb_target as f64 / n_ngb as f64)
                .powf(1.0 / 3.0)
                .clamp(0.5, 2.0)
        };
        h *= ratio;
    }
    result
}

/// The scalar per-particle reference: one tree walk and one scalar gather
/// per trial `h`. Retained as the equivalence baseline for the grouped
/// pass (property tests) and the density benches' reference row.
#[allow(clippy::too_many_arguments)]
pub fn density_one_reference(
    kernel: &dyn SphKernel,
    cfg: &DensityConfig,
    tree: &Tree,
    pos: &[Vec3],
    mass: &[f64],
    i: usize,
    h0: f64,
    scratch: &mut Vec<u32>,
) -> DensityResult {
    let xi = pos[i];
    let mut h = h0.max(1e-12);
    let support = kernel.support();
    let mut result;
    let mut iterations = 0u32;
    loop {
        scratch.clear();
        tree.neighbors_within(xi, support * h, scratch);
        let mut rho = 0.0;
        let mut n_ngb = 0usize;
        for &j in scratch.iter() {
            let j = j as usize;
            let r = (xi - pos[j]).norm();
            if r < support * h {
                rho += mass[j] * kernel.w(r, h);
                n_ngb += 1;
            }
        }
        iterations += 1;
        result = DensityResult {
            rho,
            h,
            n_ngb,
            iterations,
            walks: iterations,
        };
        let err = (n_ngb as f64 - cfg.n_ngb_target as f64).abs() / cfg.n_ngb_target as f64;
        if err <= cfg.tolerance || iterations >= cfg.max_iter as u32 {
            break;
        }
        // Neighbour count scales with h^3: correct h geometrically, clamped
        // to avoid oscillation around sparse regions.
        let ratio = if n_ngb == 0 {
            2.0
        } else {
            (cfg.n_ngb_target as f64 / n_ngb as f64)
                .powf(1.0 / 3.0)
                .clamp(0.5, 2.0)
        };
        h *= ratio;
    }
    result
}

/// Converge smoothing lengths and densities for all `targets` (indices into
/// `pos`) over a caller-provided neighbour tree, running the groups in
/// parallel. `h` is the in/out smoothing-length array; returns one result
/// per target, in target order.
///
/// The tree must index exactly `pos`, with its bounding boxes current (a
/// fresh [`Tree::build_with_h`] or a [`Tree::refresh_with_h`] over these
/// positions) — correctness needs only containment, since the gather
/// search prunes by node bounding box, not by the stored radii.
///
/// Allocates its scratch per call; the solver holds one in its
/// [`crate::solver::SphScratch`] and calls [`compute_density_grouped`].
pub fn compute_density_on_tree(
    kernel: &dyn SphKernel,
    cfg: &DensityConfig,
    tree: &Tree,
    pos: &[Vec3],
    mass: &[f64],
    h: &mut [f64],
    targets: &[usize],
) -> Vec<DensityResult> {
    let mut scratch = DensityScratch::default();
    let (results, _) =
        compute_density_grouped(kernel, cfg, tree, pos, mass, h, targets, &mut scratch);
    let mut ordered = vec![DensityResult::default(); targets.len()];
    for (slot, r) in scratch.groups.slots().zip(results) {
        ordered[slot] = r;
    }
    ordered
}

/// What a density pass keeps between calls: the tree-ordered sources, the
/// leaf-ordered work plan and the per-worker lists.
#[derive(Debug, Clone, Default)]
pub struct DensityScratch {
    pub sources: DensitySources,
    pub groups: GroupScratch<NeighborCache>,
}

/// The density-iteration core: [`compute_density_on_tree`] with everything
/// it stages in caller-owned `scratch`. Returns the results in plan order
/// — `scratch.groups.slots()` names each one's slot in `targets` — and the
/// number of group walks issued.
#[allow(clippy::too_many_arguments)]
pub fn compute_density_grouped(
    kernel: &dyn SphKernel,
    cfg: &DensityConfig,
    tree: &Tree,
    pos: &[Vec3],
    mass: &[f64],
    h: &mut [f64],
    targets: &[usize],
    scratch: &mut DensityScratch,
) -> (Vec<DensityResult>, u64) {
    let DensityScratch { sources, groups } = scratch;
    sources.fill(tree, pos, mass);
    let sources = &*sources;
    let support = kernel.support();
    let h0 = &*h;
    let (results, group_walks) = groups.run(
        tree,
        pos,
        targets,
        |i| support * h0[i].max(1e-12),
        |cache, bbox, radius| cache.stage_group(tree, bbox, radius),
        |cache, i| density_in_group(kernel, cfg, tree, sources, pos[i], h0[i], cache),
    );
    for (slot, r) in groups.slots().zip(&results) {
        h[targets[slot]] = r.h;
    }
    (results, group_walks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::CubicSpline;

    /// Build a neighbour tree from the current `h` and run the grouped pass.
    fn compute_density(
        kernel: &dyn SphKernel,
        cfg: &DensityConfig,
        pos: &[Vec3],
        mass: &[f64],
        h: &mut [f64],
        targets: &[usize],
    ) -> Vec<DensityResult> {
        let radii: Vec<f64> = h.iter().map(|&hi| kernel.support() * hi).collect();
        let tree = Tree::build_with_h(pos, mass, Some(&radii), 16);
        compute_density_on_tree(kernel, cfg, &tree, pos, mass, h, targets)
    }

    /// Uniform cubic lattice with spacing `a` and particle mass `m`:
    /// expected density is exactly `m / a^3` once h is converged.
    fn lattice(n: usize, a: f64) -> (Vec<Vec3>, Vec<f64>) {
        let mut pos = Vec::new();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    pos.push(Vec3::new(i as f64 * a, j as f64 * a, k as f64 * a));
                }
            }
        }
        let mass = vec![1.0; pos.len()];
        (pos, mass)
    }

    #[test]
    fn uniform_lattice_density_is_exact() {
        let a = 0.7;
        let (pos, mass) = lattice(10, a);
        let mut h = vec![a * 1.2; pos.len()];
        let cfg = DensityConfig {
            n_ngb_target: 40,
            ..Default::default()
        };
        let kernel = CubicSpline;
        // Probe interior particles only (no edge truncation).
        let targets: Vec<usize> = (0..pos.len())
            .filter(|&i| {
                let p = pos[i];
                let lo = 3.0 * a;
                let hi = 6.0 * a;
                p.x > lo && p.x < hi && p.y > lo && p.y < hi && p.z > lo && p.z < hi
            })
            .collect();
        assert!(!targets.is_empty());
        let results = compute_density(&kernel, &cfg, &pos, &mass, &mut h, &targets);
        let expected = 1.0 / (a * a * a);
        for r in &results {
            assert!(
                (r.rho - expected).abs() / expected < 0.05,
                "rho {} vs expected {expected}",
                r.rho
            );
        }
    }

    #[test]
    fn neighbor_count_converges_to_target() {
        let (pos, mass) = lattice(12, 1.0);
        let mut h = vec![0.4; pos.len()]; // bad initial guess, too small
        let cfg = DensityConfig {
            n_ngb_target: 56,
            tolerance: 0.2,
            max_iter: 12,
        };
        let targets: Vec<usize> = (0..pos.len())
            .filter(|&i| {
                let p = pos[i];
                (3.0..9.0).contains(&p.x) && (3.0..9.0).contains(&p.y) && (3.0..9.0).contains(&p.z)
            })
            .collect();
        let results = compute_density(&CubicSpline, &cfg, &pos, &mass, &mut h, &targets);
        for r in &results {
            let err = (r.n_ngb as f64 - 56.0).abs() / 56.0;
            assert!(err <= 0.25, "n_ngb {} missed target", r.n_ngb);
        }
    }

    #[test]
    fn good_initial_guess_converges_in_two_iterations() {
        // The paper's claim for a proper initial guess: re-run the pass
        // with a converged h as the guess.
        let (pos, mass) = lattice(10, 1.0);
        let cfg = DensityConfig {
            n_ngb_target: 56,
            tolerance: 0.15,
            max_iter: 12,
        };
        let mut h = vec![1.2; pos.len()];
        let center = pos
            .iter()
            .position(|p| (*p - Vec3::splat(4.0)).norm() < 0.1)
            .unwrap();
        let _ = compute_density(&CubicSpline, &cfg, &pos, &mass, &mut h, &[center]);
        // Second pass starting from the converged h: a single re-evaluation
        // must already be within tolerance (no further h change).
        let h_before = h[center];
        let _ = compute_density(&CubicSpline, &cfg, &pos, &mass, &mut h, &[center]);
        assert_eq!(h[center], h_before, "converged h should be a fixed point");
    }

    #[test]
    fn isolated_particle_grows_h_until_cap() {
        let pos = vec![Vec3::ZERO, Vec3::new(100.0, 0.0, 0.0)];
        let mass = vec![1.0, 1.0];
        let mut h = vec![0.1, 0.1];
        let cfg = DensityConfig {
            n_ngb_target: 8,
            tolerance: 0.1,
            max_iter: 5,
        };
        let r = compute_density(&CubicSpline, &cfg, &pos, &mass, &mut h, &[0]);
        // It can't reach 8 neighbours; it must stop after max_iter with a
        // larger h and a finite density.
        assert!(h[0] > 0.1);
        assert!(r[0].rho >= 0.0);
    }

    #[test]
    fn grouped_iteration_matches_reference_and_falls_back_only_past_the_group_radius() {
        // The grouped h-iteration must reproduce the walk-per-iteration
        // reference exactly in its integer trajectory (h, n_ngb,
        // iterations) and to reassociation rounding in rho — across
        // shrinking (h too big), growing (h too small) and converged
        // initial guesses.
        let (pos, mass) = lattice(10, 1.0);
        let radii: Vec<f64> = pos.iter().map(|_| 2.0 * 1.3).collect();
        let tree = Tree::build_with_h(&pos, &mass, Some(&radii), 16);
        let cfg = DensityConfig {
            n_ngb_target: 56,
            tolerance: 0.05,
            max_iter: 12,
        };
        let targets: Vec<usize> = (0..pos.len()).collect();
        let mut scratch = Vec::new();
        let mut fell_back = false;
        for h0 in [0.5, 0.9, 1.3, 1.9, 2.6] {
            let mut h = vec![h0; pos.len()];
            let grouped =
                compute_density_on_tree(&CubicSpline, &cfg, &tree, &pos, &mass, &mut h, &targets);
            for (i, a) in grouped.iter().enumerate() {
                let b = density_one_reference(
                    &CubicSpline,
                    &cfg,
                    &tree,
                    &pos,
                    &mass,
                    i,
                    h0,
                    &mut scratch,
                );
                assert_eq!(a.h.to_bits(), b.h.to_bits(), "h i={i} h0={h0}");
                assert_eq!(h[i].to_bits(), b.h.to_bits(), "h[] i={i} h0={h0}");
                assert_eq!(a.n_ngb, b.n_ngb, "n_ngb i={i} h0={h0}");
                assert_eq!(a.iterations, b.iterations, "iterations i={i} h0={h0}");
                assert!(a.walks < a.iterations.max(2), "walks i={i} h0={h0}");
                let rel = (a.rho - b.rho).abs() / b.rho.abs().max(1e-300);
                assert!(rel < 1e-12, "rho i={i} h0={h0} rel {rel}");
                fell_back |= a.walks > 0;
                // Every target of a group starts inside the group radius,
                // so only a growing h can ever walk on its own.
                assert!(a.walks == 0 || b.h > h0, "needless fallback i={i} h0={h0}");
            }
        }
        assert!(
            fell_back,
            "h0 = 0.5 must outgrow its group radius somewhere"
        );
    }

    #[test]
    fn shrinking_h_iterations_never_walk_on_their_own() {
        // An overestimated h only ever shrinks, so the whole iteration
        // must be served by the group's one shared walk.
        let (pos, mass) = lattice(10, 1.0);
        let radii = vec![2.0 * 3.0; pos.len()];
        let tree = Tree::build_with_h(&pos, &mass, Some(&radii), 16);
        let cfg = DensityConfig {
            n_ngb_target: 40,
            tolerance: 0.1,
            max_iter: 12,
        };
        let targets: Vec<usize> = (0..pos.len()).collect();
        let mut h = vec![3.0; pos.len()];
        let (results, group_walks) = compute_density_grouped(
            &CubicSpline,
            &cfg,
            &tree,
            &pos,
            &mass,
            &mut h,
            &targets,
            &mut DensityScratch::default(),
        );
        assert!(results.iter().any(|r| r.iterations >= 2), "h0=3.0 iterates");
        assert!(
            results.iter().all(|r| r.walks == 0),
            "shrinking h re-walked"
        );
        let leaves = tree.nodes.iter().filter(|n| n.is_leaf()).count() as u64;
        // One walk per leaf, plus at most one per chunk boundary that cut
        // a leaf in two.
        assert!(
            group_walks >= leaves,
            "{group_walks} walks, {leaves} leaves"
        );
        assert!(
            group_walks < leaves + pos.len() as u64 / 16,
            "{group_walks} walks for {leaves} leaves"
        );
    }

    #[test]
    fn density_scales_linearly_with_mass() {
        let (pos, mass) = lattice(8, 1.0);
        let mass2: Vec<f64> = mass.iter().map(|m| m * 3.0).collect();
        let cfg = DensityConfig::default();
        let center = pos.iter().position(|p| *p == Vec3::splat(4.0)).unwrap();
        let mut h1 = vec![1.3; pos.len()];
        let mut h2 = vec![1.3; pos.len()];
        let r1 = compute_density(&CubicSpline, &cfg, &pos, &mass, &mut h1, &[center]);
        let r2 = compute_density(&CubicSpline, &cfg, &pos, &mass2, &mut h2, &[center]);
        assert!((r2[0].rho / r1[0].rho - 3.0).abs() < 1e-9);
    }

    /// [`DensitySources::fill`] as it was before it wrote by slot.
    fn fill_pushed(tree: &Tree, pos: &[Vec3], mass: &[f64]) -> DensitySources {
        let mut s = DensitySources::default();
        for &j in &tree.order {
            let p = pos[j as usize];
            s.x.push(p.x);
            s.y.push(p.y);
            s.z.push(p.z);
            s.m.push(mass[j as usize]);
        }
        s
    }

    /// [`NeighborCache::sum_density`] as it was before its compaction wrote
    /// by slot: two pushes per in-support row.
    fn sum_density_pushed(
        c: &mut NeighborCache,
        kernel: &dyn SphKernel,
        h: f64,
        rad: f64,
    ) -> (f64, usize) {
        c.r_in.clear();
        c.m_in.clear();
        for (&r, &m) in c.r.iter().zip(&c.m) {
            if r < rad {
                c.r_in.push(r);
                c.m_in.push(m);
            }
        }
        let n = c.r_in.len();
        c.w.clear();
        c.w.resize(n, 0.0);
        kernel.w_batch(&c.r_in, h, &mut c.w);
        let mut rho_l = [0.0f64; 4];
        let (m4, w4) = (c.m_in.chunks_exact(4), c.w.chunks_exact(4));
        let (m_tail, w_tail) = (m4.remainder(), w4.remainder());
        for (m, w) in m4.zip(w4) {
            for ((acc, m), w) in rho_l.iter_mut().zip(m).zip(w) {
                *acc += m * w;
            }
        }
        for (m, w) in m_tail.iter().zip(w_tail) {
            rho_l[0] += m * w;
        }
        ((rho_l[0] + rho_l[1]) + (rho_l[2] + rho_l[3]), n)
    }

    /// The slot writers — [`DensitySources::fill`] and the in-support
    /// compaction of [`NeighborCache::sum_density`] — against their push
    /// references through reused buffers: equal columns and equal density
    /// bits over 0–9 sources and target rows, with radii that keep every
    /// row, none and some.
    #[test]
    fn slot_writers_match_the_push_references_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2829);
        let mut sources = DensitySources::default();
        let mut cache = NeighborCache::default();
        for n in (0..=9).rev().chain(0..=9) {
            let pos: Vec<Vec3> = (0..n)
                .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
                .collect();
            let mass: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
            let tree = Tree::build_with_h(&pos, &mass, None, 2);
            sources.fill(&tree, &pos, &mass);
            let reference = fill_pushed(&tree, &pos, &mass);
            for (a, b) in [
                (&sources.x, &reference.x),
                (&sources.y, &reference.y),
                (&sources.z, &reference.z),
                (&sources.m, &reference.m),
            ] {
                assert_eq!(a.len(), n);
                assert!(a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits()));
            }

            let r: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
            for rad in [0.0, 1.0, 2.5] {
                cache.r.clone_from(&r);
                cache.m.clone_from(&mass);
                let slot = cache.sum_density(&CubicSpline, rad / 2.0, rad);
                let pushed = sum_density_pushed(&mut cache, &CubicSpline, rad / 2.0, rad);
                assert_eq!(slot.0.to_bits(), pushed.0.to_bits(), "{n} rows, rad {rad}");
                assert_eq!(slot.1, pushed.1, "{n} rows, rad {rad}");
                // Rows lie in [0, 2): rad 0 keeps none, rad 2.5 keeps all.
                if rad == 0.0 {
                    assert_eq!(slot.1, 0);
                } else if rad > 2.0 {
                    assert_eq!(slot.1, n);
                }
            }
        }
    }
}
