//! Tree traversal producing interaction lists (paper §5.2.2, §5.2.4).
//!
//! FDPS evaluates forces group-wise: particles are grouped into sets of at
//! most `n_g` (the paper tunes `n_g = 2048` on Fugaku, `65536` on Miyabi),
//! one tree walk per group collects the *interaction list* — nearby
//! particles kept individually plus distant nodes accepted as monopole
//! "super-particles" — and the user kernel then evaluates group × list.
//!
//! # Two walks
//!
//! * [`Tree::walk_mac_indexed`] is the fast path, which the gravity groups
//!   run. It walks a [`WalkIndex`] — a compact cache-line-per-node SoA
//!   snapshot of the walk-relevant node data (bounds, precomputed size²,
//!   child/leaf encoding, monopole), built once per tree, immutable and
//!   shared by all workers — and resolves accepted and leaf children
//!   inline instead of round-tripping them through its stack.
//! * [`Tree::walk_mac`] is the recursive reference: a depth-first walk
//!   that visits children in index order. LET export ships its order,
//!   and the tests and benches hold the indexed walk against it.
//!
//! Both apply the same acceptance criterion, so they emit the **same EP
//! set and SP multiset**; the indexed walk emits them in a different
//! (still deterministic) order, because accepted children are emitted
//! before their earlier siblings' subtrees are expanded.
//!
//! # Buffer-reuse contract
//!
//! The indexed walk is the hottest loop in the code and performs **no
//! heap allocation in steady state**. It takes a caller-owned
//! [`WalkScratch`] (its explicit traversal stack) and a caller-owned
//! [`InteractionList`] (the `ep`/`sp` output buffers). Both are **cleared,
//! never shrunk**: after a warm-up walk their capacities stabilize at the
//! high-water mark and later walks reuse the storage. Callers keep one
//! pair per thread — the gravity solver in a thread-local that outlives
//! the evaluation.
//! [`Tree::walk_mac`] appends to a caller-owned list and needs no scratch.

use crate::bbox::BBox;
use crate::tree::{Tree, ROOT};
use crate::vec3::Vec3;

/// A distant tree node accepted by the multipole acceptance criterion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperParticle {
    pub pos: Vec3,
    pub mass: f64,
}

/// The j-side of one group's force evaluation.
#[derive(Debug, Clone, Default)]
pub struct InteractionList {
    /// Indices of individually kept particles (EPJ).
    pub ep: Vec<u32>,
    /// Monopole-aggregated distant nodes (SPJ).
    pub sp: Vec<SuperParticle>,
}

impl InteractionList {
    /// Total entries (the paper's interaction-list length `n_l`).
    pub fn len(&self) -> usize {
        self.ep.len() + self.sp.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ep.is_empty() && self.sp.is_empty()
    }

    /// Empty both sides, keeping their capacity for reuse.
    pub fn clear(&mut self) {
        self.ep.clear();
        self.sp.clear();
    }

    /// Current `(ep, sp)` capacities — used by the zero-allocation
    /// regression tests to detect steady-state heap growth.
    pub fn capacities(&self) -> (usize, usize) {
        (self.ep.capacity(), self.sp.capacity())
    }
}

/// Reusable traversal state for [`Tree::walk_mac_indexed`]: its explicit
/// DFS stack. Cleared (capacity kept) at the start of every walk.
#[derive(Debug, Clone, Default)]
pub struct WalkScratch {
    stack: Vec<u32>,
}

impl WalkScratch {
    /// Current stack capacity (zero-allocation regression tests).
    pub fn capacity(&self) -> usize {
        self.stack.capacity()
    }
}

/// Leaf marker in [`GeoNode::a`]: set means `(a & !LEAF_BIT, b)` is the
/// node's particle range into [`Tree::order`]; clear means `(a, b)` is
/// `(child_start, child_count)`.
const LEAF_BIT: u32 = 1 << 31;

/// One node of the compact walk index: exactly one 64-byte cache line of
/// everything the opening test needs.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct GeoNode {
    lo: [f64; 3],
    hi: [f64; 3],
    /// Precomputed `size * size` for the acceptance test.
    size2: f64,
    a: u32,
    b: u32,
}

impl GeoNode {
    /// Minimum squared distance between this node's box and `[tlo, thi]`.
    #[inline(always)]
    fn dist2(&self, tlo: &[f64; 3], thi: &[f64; 3]) -> f64 {
        let dx = (self.lo[0] - thi[0]).max(0.0).max(tlo[0] - self.hi[0]);
        let dy = (self.lo[1] - thi[1]).max(0.0).max(tlo[1] - self.hi[1]);
        let dz = (self.lo[2] - thi[2]).max(0.0).max(tlo[2] - self.hi[2]);
        dx * dx + dy * dy + dz * dz
    }
}

/// Compact per-tree walk acceleration structure (see the module docs'
/// buffer-reuse contract). Build once per tree with [`Tree::walk_index`];
/// immutable and shared across worker threads.
#[derive(Debug, Clone)]
pub struct WalkIndex {
    geo: Vec<GeoNode>,
    /// Monopole `[com.x, com.y, com.z, mass]`, touched only on acceptance.
    com: Vec<[f64; 4]>,
}

impl WalkIndex {
    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.geo.len()
    }

    pub fn is_empty(&self) -> bool {
        self.geo.is_empty()
    }

    /// Capacities of the two node arrays (zero-allocation regression
    /// bookkeeping, like [`InteractionList::capacities`]).
    pub fn capacities(&self) -> (usize, usize) {
        (self.geo.capacity(), self.com.capacity())
    }

    /// Refresh the index in place after a moment-only [`Tree::refresh`]:
    /// the node topology (child links, leaf ranges) is unchanged, so only
    /// the geometry (bounding boxes, sizes) and monopoles are rewritten.
    /// O(nodes), zero heap allocation — the per-substep companion of
    /// [`Tree::refresh`] that spares rebuilding the index every force
    /// evaluation.
    ///
    /// The tree must have the same node count as the build this index came
    /// from (a changed topology needs [`WalkIndex::rebuild_from`]).
    pub fn refresh(&mut self, tree: &Tree) {
        assert_eq!(
            self.geo.len(),
            tree.nodes.len(),
            "walk index refresh requires an unchanged tree topology"
        );
        for (nd, (g, c)) in tree
            .nodes
            .iter()
            .zip(self.geo.iter_mut().zip(self.com.iter_mut()))
        {
            let s = nd.size();
            g.lo = [nd.bbox.lo.x, nd.bbox.lo.y, nd.bbox.lo.z];
            g.hi = [nd.bbox.hi.x, nd.bbox.hi.y, nd.bbox.hi.z];
            g.size2 = s * s;
            *c = [nd.com.x, nd.com.y, nd.com.z, nd.mass];
        }
    }

    /// Re-derive the index from a freshly built tree, reusing this index's
    /// storage (clear + refill; grows only past the high-water mark).
    pub fn rebuild_from(&mut self, tree: &Tree) {
        self.geo.clear();
        self.com.clear();
        tree.fill_walk_index(&mut self.geo, &mut self.com);
    }
}

impl Tree {
    /// Walk the tree for a target region and collect the interaction list:
    /// the recursive reference walk.
    ///
    /// A node is *opened* (descended into) when `size > theta * dist`, where
    /// `dist` is the distance from the target box to the node's bounding
    /// box — the standard Barnes–Hut opening criterion generalized to group
    /// targets. Opened leaves contribute their particles as EPJ; accepted
    /// nodes contribute their monopole as SPJ. Children are visited in index
    /// order, depth first; `out` is appended to, not cleared. LET export
    /// ships this order, the tests and benches compare
    /// [`Tree::walk_mac_indexed`] against it, and the recursion depth is
    /// bounded by the tree's (at most `morton::BITS` levels).
    pub fn walk_mac(&self, target: &BBox, theta: f64, out: &mut InteractionList) {
        if self.is_empty() {
            return;
        }
        self.walk_mac_rec(ROOT, target, theta * theta, out);
    }

    fn walk_mac_rec(&self, node: usize, target: &BBox, theta2: f64, out: &mut InteractionList) {
        let n = &self.nodes[node];
        if n.bbox.is_empty() {
            return;
        }
        let d2 = target.dist2_to_box(&n.bbox);
        let s = n.size();
        // Accept as monopole when s^2 <= theta^2 d^2 (and the node is not
        // overlapping the target, where d2 = 0 forces opening).
        if d2 > 0.0 && s * s <= theta2 * d2 {
            out.sp.push(SuperParticle {
                pos: n.com,
                mass: n.mass,
            });
            return;
        }
        if n.is_leaf() {
            out.ep.extend_from_slice(self.leaf_particles(n));
        } else {
            for c in 0..n.child_count as usize {
                self.walk_mac_rec(n.child_start as usize + c, target, theta2, out);
            }
        }
    }

    /// Build the compact walk index for this tree: one pass over the nodes,
    /// amortized over every group walked against the tree.
    pub fn walk_index(&self) -> WalkIndex {
        let mut geo = Vec::with_capacity(self.nodes.len());
        let mut com = Vec::with_capacity(self.nodes.len());
        self.fill_walk_index(&mut geo, &mut com);
        WalkIndex { geo, com }
    }

    /// The index-construction core shared by [`Tree::walk_index`] and
    /// [`WalkIndex::rebuild_from`]: appends one entry per node.
    fn fill_walk_index(&self, geo: &mut Vec<GeoNode>, com: &mut Vec<[f64; 4]>) {
        for nd in &self.nodes {
            let (a, b) = if nd.bbox.is_empty() {
                // Degenerate (empty tree root): encode as an empty leaf so
                // the walk skips it without special cases.
                (LEAF_BIT, 0)
            } else if nd.is_leaf() {
                // LEAF_BIT steals bit 31 of the range start: fail loudly
                // rather than decode a wrong range past 2^31 particles.
                assert!(
                    nd.start < LEAF_BIT,
                    "walk index supports at most 2^31 particles"
                );
                (nd.start | LEAF_BIT, nd.end)
            } else {
                (nd.child_start, nd.child_count as u32)
            };
            let s = nd.size();
            geo.push(GeoNode {
                lo: [nd.bbox.lo.x, nd.bbox.lo.y, nd.bbox.lo.z],
                hi: [nd.bbox.hi.x, nd.bbox.hi.y, nd.bbox.hi.z],
                size2: s * s,
                a,
                b,
            });
            com.push([nd.com.x, nd.com.y, nd.com.z, nd.mass]);
        }
    }

    /// The hot-path MAC walk over a prebuilt [`WalkIndex`].
    ///
    /// Same acceptance criterion as [`Tree::walk_mac`] and therefore
    /// the same EP set and SP multiset, but accepted/leaf children are
    /// resolved inline (only opened internal nodes touch the stack), so the
    /// emission *order* differs. `out` is cleared first; `scratch` and
    /// `out` follow the module's buffer-reuse contract.
    pub fn walk_mac_indexed(
        &self,
        index: &WalkIndex,
        target: &BBox,
        theta: f64,
        scratch: &mut WalkScratch,
        out: &mut InteractionList,
    ) {
        debug_assert_eq!(index.geo.len(), self.nodes.len(), "index/tree mismatch");
        out.clear();
        if self.is_empty() {
            return;
        }
        let theta2 = theta * theta;
        let tlo = [target.lo.x, target.lo.y, target.lo.z];
        let thi = [target.hi.x, target.hi.y, target.hi.z];
        let stack = &mut scratch.stack;
        stack.clear();

        // Examine one node: accepted monopoles and leaves are emitted
        // inline; only nodes that must be opened go through the stack.
        macro_rules! examine {
            ($n:expr) => {{
                let node = $n;
                let g = &index.geo[node as usize];
                let d2 = g.dist2(&tlo, &thi);
                if d2 > 0.0 && g.size2 <= theta2 * d2 {
                    let c = &index.com[node as usize];
                    out.sp.push(SuperParticle {
                        pos: Vec3::new(c[0], c[1], c[2]),
                        mass: c[3],
                    });
                } else if g.a & LEAF_BIT != 0 {
                    out.ep
                        .extend_from_slice(&self.order[(g.a & !LEAF_BIT) as usize..g.b as usize]);
                } else {
                    stack.push(node);
                }
            }};
        }

        examine!(ROOT as u32);
        while let Some(n) = stack.pop() {
            let g = index.geo[n as usize];
            for c in (g.a..g.a + g.b).rev() {
                examine!(c);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::domain::DomainDecomposition;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl Tree {
        /// Walk for every group of at most `n_group` particles: returns
        /// `(group node index, interaction list)` pairs. The group's target box
        /// is its tight bounding box. Groups are walked in parallel over one
        /// shared [`WalkIndex`]; each rayon worker keeps one [`WalkScratch`]
        /// across all groups it processes.
        pub(crate) fn interaction_lists(
            &self,
            theta: f64,
            n_group: usize,
        ) -> Vec<(usize, InteractionList)> {
            use rayon::prelude::*;
            let groups = self.groups(n_group);
            let index = self.walk_index();
            groups
                .par_iter()
                .map_init(WalkScratch::default, |scratch, &g| {
                    let mut list = InteractionList::default();
                    self.walk_mac_indexed(&index, &self.nodes[g].bbox, theta, scratch, &mut list);
                    (g, list)
                })
                .collect()
        }
    }

    /// Evaluate softened monopole gravity for one group against its interaction
    /// list, accumulating acceleration (without the G factor) and the positive
    /// potential sum — the reference evaluator the tests check walks and
    /// LETs against. `idx_i` are target particle indices; EPJ indices refer
    /// into `pos`/`mass` as well.
    ///
    /// The inner loops run four partial accumulators wide (independent
    /// dependency chains over EP then SP, with `eps2` hoisted) so the compiler
    /// can pipeline the sqrt/divide chain; the lane sums are reduced once per
    /// target.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn eval_gravity_reference(
        idx_i: &[u32],
        pos: &[Vec3],
        mass: &[f64],
        eps2: f64,
        list: &InteractionList,
        acc: &mut [Vec3],
        pot: &mut [f64],
        skip_self: bool,
    ) {
        for &i in idx_i {
            let i = i as usize;
            let pi = pos[i];
            let mut ax = [0.0f64; 4];
            let mut ay = [0.0f64; 4];
            let mut az = [0.0f64; 4];
            let mut ps = [0.0f64; 4];

            let ep = &list.ep;
            let mut j = 0;
            while j + 4 <= ep.len() {
                for lane in 0..4 {
                    let jj = ep[j + lane] as usize;
                    if skip_self && i == jj {
                        continue;
                    }
                    let d = pi - pos[jj];
                    let r2 = d.norm2() + eps2;
                    let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
                    let mrinv = mass[jj] * rinv;
                    let mr3 = mrinv * rinv * rinv;
                    ax[lane] -= mr3 * d.x;
                    ay[lane] -= mr3 * d.y;
                    az[lane] -= mr3 * d.z;
                    ps[lane] += mrinv;
                }
                j += 4;
            }
            while j < ep.len() {
                let jj = ep[j] as usize;
                j += 1;
                if skip_self && i == jj {
                    continue;
                }
                let d = pi - pos[jj];
                let r2 = d.norm2() + eps2;
                let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
                let mrinv = mass[jj] * rinv;
                let mr3 = mrinv * rinv * rinv;
                ax[0] -= mr3 * d.x;
                ay[0] -= mr3 * d.y;
                az[0] -= mr3 * d.z;
                ps[0] += mrinv;
            }

            let sp = &list.sp;
            let mut k = 0;
            while k + 4 <= sp.len() {
                for lane in 0..4 {
                    let s = &sp[k + lane];
                    let d = pi - s.pos;
                    let r2 = d.norm2() + eps2;
                    let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
                    let mrinv = s.mass * rinv;
                    let mr3 = mrinv * rinv * rinv;
                    ax[lane] -= mr3 * d.x;
                    ay[lane] -= mr3 * d.y;
                    az[lane] -= mr3 * d.z;
                    ps[lane] += mrinv;
                }
                k += 4;
            }
            while k < sp.len() {
                let s = &sp[k];
                k += 1;
                let d = pi - s.pos;
                let r2 = d.norm2() + eps2;
                let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
                let mrinv = s.mass * rinv;
                let mr3 = mrinv * rinv * rinv;
                ax[0] -= mr3 * d.x;
                ay[0] -= mr3 * d.y;
                az[0] -= mr3 * d.z;
                ps[0] += mrinv;
            }

            acc[i] += Vec3::new(
                ax[0] + ax[1] + ax[2] + ax[3],
                ay[0] + ay[1] + ay[2] + ay[3],
                az[0] + az[1] + az[2] + az[3],
            );
            pot[i] += ps[0] + ps[1] + ps[2] + ps[3];
        }
    }

    fn random_cloud(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
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
        let mass = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
        (pos, mass)
    }

    fn direct_gravity(pos: &[Vec3], mass: &[f64], eps2: f64) -> (Vec<Vec3>, Vec<f64>) {
        let n = pos.len();
        let mut acc = vec![Vec3::ZERO; n];
        let mut pot = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let d = pos[i] - pos[j];
                let r2 = d.norm2() + eps2;
                let rinv = 1.0 / r2.sqrt();
                let mr3 = mass[j] * rinv * rinv * rinv;
                acc[i] -= d * mr3;
                pot[i] += mass[j] * rinv;
            }
        }
        (acc, pot)
    }

    /// Tree gravity over interaction lists, for tests.
    fn tree_gravity(
        pos: &[Vec3],
        mass: &[f64],
        eps2: f64,
        theta: f64,
        n_group: usize,
    ) -> (Vec<Vec3>, Vec<f64>) {
        let tree = Tree::build(pos, mass, 8);
        let mut acc = vec![Vec3::ZERO; pos.len()];
        let mut pot = vec![0.0; pos.len()];
        for (g, list) in tree.interaction_lists(theta, n_group) {
            let idx: Vec<u32> = tree.leaf_particles(&tree.nodes[g]).to_vec();
            eval_gravity_reference(&idx, pos, mass, eps2, &list, &mut acc, &mut pot, true);
        }
        (acc, pot)
    }

    #[test]
    fn theta_zero_reproduces_direct_sum() {
        let (pos, mass) = random_cloud(200, 1);
        let eps2 = 1e-6;
        let (a_direct, p_direct) = direct_gravity(&pos, &mass, eps2);
        let (a_tree, p_tree) = tree_gravity(&pos, &mass, eps2, 0.0, 32);
        for i in 0..pos.len() {
            assert!((a_tree[i] - a_direct[i]).norm() < 1e-10, "acc[{i}]");
            assert!((p_tree[i] - p_direct[i]).abs() < 1e-10, "pot[{i}]");
        }
    }

    #[test]
    fn theta_half_is_accurate_to_a_percent() {
        let (pos, mass) = random_cloud(500, 2);
        let eps2 = 1e-4;
        let (a_direct, _) = direct_gravity(&pos, &mass, eps2);
        let (a_tree, _) = tree_gravity(&pos, &mass, eps2, 0.5, 64);
        let mut worst: f64 = 0.0;
        let mut mean = 0.0;
        for i in 0..pos.len() {
            let rel = (a_tree[i] - a_direct[i]).norm() / a_direct[i].norm().max(1e-12);
            worst = worst.max(rel);
            mean += rel;
        }
        mean /= pos.len() as f64;
        assert!(mean < 0.01, "mean rel err {mean}");
        assert!(worst < 0.20, "worst rel err {worst}");
    }

    #[test]
    fn list_length_shrinks_with_larger_theta() {
        let (pos, mass) = random_cloud(1000, 3);
        let tree = Tree::build(&pos, &mass, 8);
        let total_len = |theta: f64| -> usize {
            tree.interaction_lists(theta, 64)
                .iter()
                .map(|(_, l)| l.len())
                .sum()
        };
        let l_small = total_len(0.2);
        let l_big = total_len(0.8);
        assert!(
            l_big < l_small,
            "larger theta must shorten lists: {l_big} vs {l_small}"
        );
    }

    #[test]
    fn mass_is_conserved_across_every_list() {
        // EPJ + SPJ masses in any group's list must sum to the total mass.
        let (pos, mass) = random_cloud(300, 4);
        let total: f64 = mass.iter().sum();
        let tree = Tree::build(&pos, &mass, 8);
        for (_, list) in tree.interaction_lists(0.6, 32) {
            let m: f64 = list.ep.iter().map(|&j| mass[j as usize]).sum::<f64>()
                + list.sp.iter().map(|s| s.mass).sum::<f64>();
            assert!((m - total).abs() < 1e-9 * total.max(1.0));
        }
    }

    #[test]
    fn group_sizes_respect_n_group() {
        let (pos, mass) = random_cloud(1000, 5);
        let tree = Tree::build(&pos, &mass, 8);
        for (g, _) in tree.interaction_lists(0.5, 100) {
            assert!(tree.nodes[g].len() <= 100 || tree.nodes[g].is_leaf());
        }
    }

    #[test]
    fn momentum_is_conserved_by_direct_part() {
        // With theta=0 (pure direct sum) total momentum change is zero by
        // Newton's third law.
        let (pos, mass) = random_cloud(100, 6);
        let (acc, _) = tree_gravity(&pos, &mass, 1e-6, 0.0, 16);
        let mut net = Vec3::ZERO;
        for (a, &m) in acc.iter().zip(&mass) {
            net += *a * m;
        }
        assert!(net.norm() < 1e-9, "net force {net:?}");
    }

    /// Sort key of one super-particle: its bit-exact coordinates and mass.
    type SpKey = (u64, u64, u64, u64);

    /// Canonical (sorted) form of a list for set-equality comparison.
    fn canonical(list: &InteractionList) -> (Vec<u32>, Vec<SpKey>) {
        let mut ep = list.ep.clone();
        ep.sort_unstable();
        let mut sp: Vec<SpKey> = list
            .sp
            .iter()
            .map(|s| {
                (
                    s.pos.x.to_bits(),
                    s.pos.y.to_bits(),
                    s.pos.z.to_bits(),
                    s.mass.to_bits(),
                )
            })
            .collect();
        sp.sort_unstable();
        (ep, sp)
    }

    /// Property test: the indexed walk emits the recursive reference's EP
    /// set and SP multiset, over random clouds and a grid of `theta`, on
    /// the targets both kinds of caller walk: every group box for a grid
    /// of `n_group` (gravity), and LET-shaped boxes — the eight domains of
    /// a 2×2×2 cut of the cloud, which straddle the tree, a box wholly
    /// outside the root and a box containing it.
    #[test]
    fn indexed_walk_matches_recursive_reference() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed * 7 + 1);
            let n = rng.gen_range(2..600usize);
            let (pos, mass) = random_cloud(n, seed + 100);
            let tree = Tree::build(&pos, &mass, rng.gen_range(1..12usize));
            let index = tree.walk_index();
            let root = tree.nodes[ROOT].bbox;
            let mut targets: Vec<(String, BBox)> = Vec::new();
            for n_group in [1usize, 16, 64, 1024] {
                for g in tree.groups(n_group) {
                    targets.push((format!("n_group {n_group} group {g}"), tree.nodes[g].bbox));
                }
            }
            let mut sample = pos.clone();
            let dd = DomainDecomposition::from_samples((2, 2, 2), &mut sample, root);
            targets.extend((0..dd.len()).map(|r| (format!("domain {r}"), dd.domain_box(r))));
            // One root extent away: accepted whole at the larger thetas.
            let beyond = root.hi + Vec3::splat(root.max_extent());
            targets.push(("outside".into(), BBox::new(beyond, beyond + root.extent())));
            targets.push(("containing".into(), root.inflated(1.0)));
            let mut scratch = WalkScratch::default();
            let mut indexed = InteractionList::default();
            for theta in [0.0, 0.3, 0.5, 0.8, 1.2] {
                for (what, target) in &targets {
                    let mut recursive = InteractionList::default();
                    tree.walk_mac(target, theta, &mut recursive);
                    tree.walk_mac_indexed(&index, target, theta, &mut scratch, &mut indexed);
                    assert_eq!(
                        canonical(&indexed),
                        canonical(&recursive),
                        "seed {seed} theta {theta} {what}: indexed set mismatch"
                    );
                }
            }
        }
    }

    /// The indexed walk's scratch and output buffers stop growing after a
    /// warm-up walk: steady-state traversals are allocation-free.
    #[test]
    fn walk_buffers_reach_steady_state() {
        let (pos, mass) = random_cloud(2000, 9);
        let tree = Tree::build(&pos, &mass, 8);
        let index = tree.walk_index();
        let groups = tree.groups(64);
        let mut scratch = WalkScratch::default();
        let mut list = InteractionList::default();
        let walk_all = |scratch: &mut WalkScratch, list: &mut InteractionList| {
            for &g in &groups {
                tree.walk_mac_indexed(&index, &tree.nodes[g].bbox, 0.5, scratch, list);
            }
        };
        // Warm-up pass over every group.
        walk_all(&mut scratch, &mut list);
        let stack_cap = scratch.capacity();
        let list_caps = list.capacities();
        // Steady state: identical walks must not grow any buffer.
        for _ in 0..3 {
            walk_all(&mut scratch, &mut list);
        }
        assert_eq!(scratch.capacity(), stack_cap, "stack grew after warm-up");
        assert_eq!(list.capacities(), list_caps, "ep/sp grew after warm-up");
    }

    /// The 4-wide unrolled evaluator matches a scalar direct sum bit-for-
    /// tolerance across EP/SP splits and remainder lengths.
    #[test]
    fn unrolled_reference_matches_scalar_for_all_remainders() {
        let (pos, mass) = random_cloud(70, 11);
        let eps2 = 1e-4;
        for n_ep in [0usize, 1, 2, 3, 4, 5, 7, 8, 13] {
            for n_sp in [0usize, 1, 3, 4, 6, 9] {
                let list = InteractionList {
                    ep: (0..n_ep as u32).collect(),
                    sp: (0..n_sp)
                        .map(|k| SuperParticle {
                            pos: pos[30 + k],
                            mass: mass[30 + k] * 3.0,
                        })
                        .collect(),
                };
                let idx = [20u32, 21, 22];
                let mut acc = vec![Vec3::ZERO; pos.len()];
                let mut pot = vec![0.0; pos.len()];
                eval_gravity_reference(&idx, &pos, &mass, eps2, &list, &mut acc, &mut pot, true);
                for &i in &idx {
                    let i = i as usize;
                    let mut a = Vec3::ZERO;
                    let mut p = 0.0;
                    for &j in &list.ep {
                        let j = j as usize;
                        if i == j {
                            continue;
                        }
                        let d = pos[i] - pos[j];
                        let r2 = d.norm2() + eps2;
                        let rinv = 1.0 / r2.sqrt();
                        a -= d * (mass[j] * rinv * rinv * rinv);
                        p += mass[j] * rinv;
                    }
                    for s in &list.sp {
                        let d = pos[i] - s.pos;
                        let r2 = d.norm2() + eps2;
                        let rinv = 1.0 / r2.sqrt();
                        a -= d * (s.mass * rinv * rinv * rinv);
                        p += s.mass * rinv;
                    }
                    assert!((acc[i] - a).norm() < 1e-12, "ep {n_ep} sp {n_sp} acc[{i}]");
                    assert!((pot[i] - p).abs() < 1e-12, "ep {n_ep} sp {n_sp} pot[{i}]");
                }
            }
        }
    }

    /// Walk the whole tree per-leaf and collect (sorted EP, sorted SP bits)
    /// per target node, for index-equivalence assertions.
    fn walk_all_indexed(tree: &Tree, index: &WalkIndex, theta: f64) -> Vec<(Vec<u32>, Vec<u64>)> {
        let mut scratch = WalkScratch::default();
        let mut list = InteractionList::default();
        tree.groups(16)
            .into_iter()
            .map(|g| {
                tree.walk_mac_indexed(index, &tree.nodes[g].bbox, theta, &mut scratch, &mut list);
                let mut ep = list.ep.clone();
                ep.sort_unstable();
                let mut sp: Vec<u64> = list
                    .sp
                    .iter()
                    .flat_map(|s| {
                        [
                            s.pos.x.to_bits(),
                            s.pos.y.to_bits(),
                            s.pos.z.to_bits(),
                            s.mass.to_bits(),
                        ]
                    })
                    .collect();
                sp.sort_unstable();
                (ep, sp)
            })
            .collect()
    }

    #[test]
    fn refreshed_index_matches_a_fresh_build_after_tree_refresh() {
        let (mut pos, mass) = random_cloud(600, 9);
        let mut tree = Tree::build(&pos, &mass, 8);
        let mut index = tree.walk_index();
        let caps = index.capacities();
        // Drift the particles a little (tree topology kept), then
        // moment-refresh both structures in place.
        let mut rng = StdRng::seed_from_u64(10);
        for p in pos.iter_mut() {
            *p += Vec3::new(
                rng.gen_range(-0.01..0.01),
                rng.gen_range(-0.01..0.01),
                rng.gen_range(-0.01..0.01),
            );
        }
        tree.refresh(&pos, &mass);
        index.refresh(&tree);
        assert_eq!(index.capacities(), caps, "refresh must not reallocate");
        let fresh = tree.walk_index();
        assert_eq!(
            walk_all_indexed(&tree, &index, 0.5),
            walk_all_indexed(&tree, &fresh, 0.5),
            "refreshed index must walk identically to a rebuilt one"
        );
    }

    #[test]
    fn rebuild_from_reuses_storage_and_matches_walk_index() {
        let (pos, mass) = random_cloud(400, 11);
        let tree = Tree::build(&pos, &mass, 8);
        let mut index = tree.walk_index();
        // Rebuild against a differently shaped tree: same result as a
        // fresh walk_index, storage reused where capacity allows.
        let (pos2, mass2) = random_cloud(350, 12);
        let tree2 = Tree::build(&pos2, &mass2, 8);
        index.rebuild_from(&tree2);
        assert_eq!(index.len(), tree2.nodes.len());
        let fresh = tree2.walk_index();
        assert_eq!(
            walk_all_indexed(&tree2, &index, 0.4),
            walk_all_indexed(&tree2, &fresh, 0.4)
        );
    }

    #[test]
    #[should_panic(expected = "unchanged tree topology")]
    fn refresh_rejects_a_topology_change() {
        let (pos, mass) = random_cloud(300, 13);
        let tree = Tree::build(&pos, &mass, 8);
        let mut index = tree.walk_index();
        let small = Tree::build(&pos[..100], &mass[..100], 8);
        index.refresh(&small);
    }
}
