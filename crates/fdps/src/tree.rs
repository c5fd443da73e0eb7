//! Barnes–Hut octree with monopole moments (paper §3.4: "particles are
//! assigned to a tree structure and the calculation cost becomes O(N log N)
//! instead of O(N^2)").
//!
//! The tree is built over Morton-sorted particles so each node is a
//! contiguous index range. Nodes carry the monopole (total mass + centre of
//! mass), a tight bounding box, and — when smoothing lengths are supplied —
//! the maximum search radius of their subtree, which powers the
//! gather/scatter neighbor search SPH needs.

use crate::bbox::BBox;
use crate::morton;
use crate::vec3::Vec3;

/// One octree node.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Range into [`Tree::order`] of the particles in this subtree.
    pub start: u32,
    pub end: u32,
    /// Index of the first child in [`Tree::nodes`]; children are contiguous.
    pub(crate) child_start: u32,
    pub(crate) child_count: u8,
    /// Monopole: total mass and centre of mass.
    pub mass: f64,
    pub(crate) com: Vec3,
    /// Tight bounding box of the subtree's particles.
    pub bbox: BBox,
    /// Maximum smoothing length in the subtree (0 when none supplied).
    pub(crate) h_max: f64,
}

impl TreeNode {
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.child_count == 0
    }

    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Geometric size used by the opening criterion: the longest edge of the
    /// tight bounding box.
    #[inline]
    pub fn size(&self) -> f64 {
        self.bbox.max_extent()
    }
}

/// An octree over externally owned particle arrays.
#[derive(Debug, Clone)]
pub struct Tree {
    /// Particle indices in Morton order; nodes reference ranges of this.
    pub order: Vec<u32>,
    pub nodes: Vec<TreeNode>,
    /// Global bounding cube used for Morton quantization.
    pub(crate) cube: BBox,
    n_leaf: usize,
    /// Per particle, the Morton rank of its leaf (see [`Tree::leaf_rank`]).
    /// Topology-derived, so it is filled at build and survives refreshes.
    leaf_of: Vec<u32>,
}

/// Root node index.
pub(crate) const ROOT: usize = 0;

impl Tree {
    /// Build over `pos`/`mass`, splitting nodes larger than `n_leaf`.
    pub fn build(pos: &[Vec3], mass: &[f64], n_leaf: usize) -> Tree {
        Self::build_with_h(pos, mass, None, n_leaf)
    }

    /// Build carrying per-particle search radii `h` for neighbor queries.
    pub fn build_with_h(pos: &[Vec3], mass: &[f64], h: Option<&[f64]>, n_leaf: usize) -> Tree {
        assert_eq!(pos.len(), mass.len(), "tree: pos/mass length mismatch");
        if let Some(h) = h {
            assert_eq!(pos.len(), h.len(), "tree: pos/h length mismatch");
        }
        assert!(n_leaf >= 1, "tree: n_leaf must be >= 1");

        let mut bbox = BBox::of_points(pos);
        if bbox.is_empty() {
            bbox = BBox::new(Vec3::ZERO, Vec3::ZERO);
        }
        // Quantize in a cube so octants are cubical.
        let half = (bbox.max_extent() * 0.5).max(f64::MIN_POSITIVE);
        let cube = BBox::cube(bbox.center(), half * (1.0 + 1e-12) + 1e-300);

        let mut keyed: Vec<(u64, u32)> = pos
            .iter()
            .enumerate()
            .map(|(i, &p)| (morton::key(p, &cube), i as u32))
            .collect();
        // By (key, index): particles that share a key (a star spawned at
        // its parent's position) keep index order, whatever the sort
        // algorithm does with equal elements.
        keyed.sort_unstable();
        let keys: Vec<u64> = keyed.iter().map(|&(k, _)| k).collect();
        let order: Vec<u32> = keyed.iter().map(|&(_, i)| i).collect();

        let mut tree = Tree {
            order,
            nodes: Vec::with_capacity(pos.len() / n_leaf.max(1) * 2 + 16),
            cube,
            n_leaf,
            leaf_of: vec![0; pos.len()],
        };
        tree.nodes.push(TreeNode {
            start: 0,
            end: pos.len() as u32,
            child_start: 0,
            child_count: 0,
            mass: 0.0,
            com: Vec3::ZERO,
            bbox: BBox::empty(),
            h_max: 0.0,
        });
        tree.split_node(ROOT, 0, &keys);
        tree.compute_moments(ROOT, pos, mass, h);
        for n in tree.nodes.iter().filter(|n| n.is_leaf()) {
            for &pi in &tree.order[n.start as usize..n.end as usize] {
                tree.leaf_of[pi as usize] = n.start;
            }
        }
        tree
    }

    fn split_node(&mut self, node: usize, level: u32, keys: &[u64]) {
        let (start, end) = {
            let n = &self.nodes[node];
            (n.start as usize, n.end as usize)
        };
        if end - start <= self.n_leaf || level >= morton::BITS {
            return; // leaf
        }
        // Partition the sorted key range by the 3-bit digit at this level.
        let child_start = self.nodes.len() as u32;
        let mut boundaries = [start; 9];
        let mut cursor = start;
        for d in 0..8usize {
            while cursor < end && morton::digit(keys[cursor], level) == d {
                cursor += 1;
            }
            boundaries[d + 1] = cursor;
        }
        debug_assert_eq!(boundaries[8], end, "digit partition must cover range");

        let mut created = 0u8;
        for d in 0..8usize {
            let (s, e) = (boundaries[d], boundaries[d + 1]);
            if s == e {
                continue; // skip empty octants
            }
            self.nodes.push(TreeNode {
                start: s as u32,
                end: e as u32,
                child_start: 0,
                child_count: 0,
                mass: 0.0,
                com: Vec3::ZERO,
                bbox: BBox::empty(),
                h_max: 0.0,
            });
            created += 1;
        }
        self.nodes[node].child_start = child_start;
        self.nodes[node].child_count = created;
        for c in 0..created as usize {
            self.split_node(child_start as usize + c, level + 1, keys);
        }
    }

    fn compute_moments(&mut self, node: usize, pos: &[Vec3], mass: &[f64], h: Option<&[f64]>) {
        let (start, end, child_start, child_count) = {
            let n = &self.nodes[node];
            (
                n.start as usize,
                n.end as usize,
                n.child_start as usize,
                n.child_count as usize,
            )
        };
        let mut m = 0.0;
        let mut com = Vec3::ZERO;
        let mut bbox = BBox::empty();
        let mut h_max = 0.0f64;
        if child_count == 0 {
            for &pi in &self.order[start..end] {
                let pi = pi as usize;
                m += mass[pi];
                com += pos[pi] * mass[pi];
                bbox.extend(pos[pi]);
                if let Some(h) = h {
                    h_max = h_max.max(h[pi]);
                }
            }
        } else {
            for c in child_start..child_start + child_count {
                self.compute_moments(c, pos, mass, h);
                let ch = &self.nodes[c];
                m += ch.mass;
                com += ch.com * ch.mass;
                bbox.merge(&ch.bbox);
                h_max = h_max.max(ch.h_max);
            }
        }
        let n = &mut self.nodes[node];
        n.mass = m;
        n.com = if m > 0.0 {
            com / m
        } else {
            // Massless subtree (e.g. tracer particles): use the box centre.
            if bbox.is_empty() {
                Vec3::ZERO
            } else {
                bbox.center()
            }
        };
        n.bbox = bbox;
        n.h_max = h_max;
    }

    /// Refresh the tree in place for updated particle positions/masses:
    /// keep the Morton ordering and node topology from the last full build
    /// and only re-accumulate the node moments (monopole, tight bounding
    /// box, `h_max`).
    ///
    /// This is the cross-substep reuse path of hierarchical block
    /// timesteps: between force evaluations only a small active subset
    /// moves appreciably, so re-sorting and re-splitting the octree every
    /// substep is wasted work — moments are an O(N) bottom-up pass with
    /// **zero heap allocation**. The node ranges stay tied to the *old*
    /// Morton partition, so bounding boxes of sibling nodes may start to
    /// overlap as particles drift; walks stay correct (boxes always contain
    /// their particles) but the MAC gets gradually looser, which is why
    /// drivers re-[`Tree::build`] on base steps or when a drift bound
    /// trips.
    ///
    /// The particle count must match the build; grown or shrunk particle
    /// sets need a full rebuild.
    pub fn refresh(&mut self, pos: &[Vec3], mass: &[f64]) {
        self.refresh_with_h(pos, mass, None);
    }

    /// [`Tree::refresh`] carrying per-particle search radii, matching
    /// [`Tree::build_with_h`].
    pub fn refresh_with_h(&mut self, pos: &[Vec3], mass: &[f64], h: Option<&[f64]>) {
        assert_eq!(pos.len(), mass.len(), "tree: pos/mass length mismatch");
        if let Some(h) = h {
            assert_eq!(pos.len(), h.len(), "tree: pos/h length mismatch");
        }
        assert_eq!(
            pos.len(),
            self.len(),
            "tree: refresh requires an unchanged particle count"
        );
        self.compute_moments(ROOT, pos, mass, h);
    }

    /// Fraction of the root cube's extent a particle may drift from its
    /// position at the last full build before a cached tree is rebuilt
    /// instead of refreshed ([`Tree::may_refresh`]). A refreshed tree keeps
    /// the old Morton partition, so drift costs it two ways. Gravity's
    /// sibling boxes start to overlap and loosen the MAC: the bound keeps
    /// the refreshed walk's error in the same class as the opening
    /// criterion itself. A neighbour-search tree stays exact but loses
    /// Morton locality: the bound guards against a degenerate partition.
    pub(crate) const DRIFT_FRACTION: f64 = 0.05;

    /// Whether this cached tree may be [`Tree::refresh`]ed over `pos`
    /// instead of rebuilt: `pos` and `built_at` (the positions at the last
    /// full build) hold the tree's particle count, and no particle moved
    /// further than `Tree::DRIFT_FRACTION` of the root cube's extent.
    pub fn may_refresh(&self, pos: &[Vec3], built_at: &[Vec3]) -> bool {
        self.len() == pos.len() && built_at.len() == pos.len() && {
            let bound = self.cube.max_extent() * Self::DRIFT_FRACTION;
            let b2 = bound * bound;
            pos.iter()
                .zip(built_at)
                .all(|(p, q)| (*p - *q).norm2() <= b2)
        }
    }

    /// Root node.
    pub fn root(&self) -> &TreeNode {
        &self.nodes[ROOT]
    }

    /// Number of particles indexed by the tree.
    pub fn len(&self) -> usize {
        self.root().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Particle indices (into the original arrays) of a leaf's range.
    pub fn leaf_particles(&self, node: &TreeNode) -> &[u32] {
        &self.order[node.start as usize..node.end as usize]
    }

    /// Morton rank of the leaf holding particle `i`: the offset of the
    /// leaf's first particle in [`Tree::order`]. Equal for exactly the
    /// particles of one leaf and increasing along the Morton curve, so
    /// sorting targets by it yields FDPS-style i-particle groups (one per
    /// leaf) in tree order. Fixed by the last full build; refreshes keep it.
    #[inline]
    pub fn leaf_rank(&self, i: usize) -> u32 {
        self.leaf_of[i]
    }

    /// Collect all particle indices within `r` of `p` (gather) or within a
    /// particle's own stored search radius of `p` (scatter); the caller
    /// passes candidate filtering. Appends to `out`. This is the walk of
    /// [`Tree::spans_of_box`] for the degenerate box `[p, p]`, with the
    /// spans expanded through [`Tree::order`].
    ///
    /// Caching contract: the traversal order is a fixed depth-first walk
    /// and the pruning bound `max(r, h_max)` is monotone in `r`, so for
    /// `r' <= r` the candidate list is an *order-preserving sublist* of
    /// the list at `r`. Callers may therefore cache one wide walk and
    /// re-filter it exactly for any smaller radius.
    pub fn neighbors_within(&self, p: Vec3, r: f64, out: &mut Vec<u32>) {
        self.visit_leaves(&BBox::new(p, p), r, true, &mut |leaf| {
            out.extend_from_slice(self.leaf_particles(leaf))
        });
    }

    /// The group form of [`Tree::neighbors_within`]: find every particle
    /// that lies within `r` of *some point of* `bbox` (gather) or whose own
    /// stored search radius reaches the box (scatter), at leaf
    /// granularity. Appends to `out` the spans `(start, end)` of
    /// [`Tree::order`] that hold them, in Morton order, with adjacent
    /// leaves merged into one span — so data laid out in tree order is
    /// read in a few contiguous runs, with no per-candidate indirection.
    ///
    /// One call serves every query point inside `bbox` with radius up to
    /// `r`: a node's distance to the box never exceeds its distance to a
    /// point inside it (in floating point too — the per-axis gaps,
    /// squares and sums are all monotone under rounding), so the result
    /// is a superset of each such point's [`Tree::neighbors_within`] list,
    /// and since both run the same depth-first walk the point's list is an
    /// order-preserving sublist of it.
    pub fn spans_of_box(&self, bbox: &BBox, r: f64, out: &mut Vec<(u32, u32)>) {
        self.visit_leaves(bbox, r, true, &mut |leaf| push_span(out, leaf));
    }

    /// [`Tree::spans_of_box`] with gather-only pruning: nodes are kept by
    /// the query radius `r` alone, ignoring their stored `h_max`. The
    /// tighter list when only the *query's* reach matters — the SPH
    /// density sum, which never looks at a source's smoothing length.
    pub fn gather_spans_of_box(&self, bbox: &BBox, r: f64, out: &mut Vec<(u32, u32)>) {
        self.visit_leaves(bbox, r, false, &mut |leaf| push_span(out, leaf));
    }

    /// Depth-first walk handing `visit` every leaf the query can reach.
    fn visit_leaves(&self, bbox: &BBox, r: f64, scatter: bool, visit: &mut impl FnMut(&TreeNode)) {
        if !self.is_empty() {
            self.visit_rec(ROOT, bbox, r, scatter, visit);
        }
    }

    fn visit_rec(
        &self,
        node: usize,
        bbox: &BBox,
        r: f64,
        scatter: bool,
        visit: &mut impl FnMut(&TreeNode),
    ) {
        let n = &self.nodes[node];
        // Scatter-aware bound: a particle inside this node can reach the
        // box within max(r, its own h) — the subtree bound is h_max.
        let reach = if scatter { r.max(n.h_max) } else { r };
        if n.bbox.is_empty() || n.bbox.dist2_to_box(bbox) > reach * reach {
            return;
        }
        if n.is_leaf() {
            visit(n);
        } else {
            for c in 0..n.child_count as usize {
                self.visit_rec(n.child_start as usize + c, bbox, r, scatter, visit);
            }
        }
    }

    /// Indices of leaves with at most `n_group` particles, walking down from
    /// the root: FDPS's i-particle groups sharing one interaction list
    /// (paper §5.2.4's `n_g`).
    pub fn groups(&self, n_group: usize) -> Vec<usize> {
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        let mut stack = vec![ROOT];
        while let Some(i) = stack.pop() {
            let n = &self.nodes[i];
            if n.len() <= n_group || n.is_leaf() {
                out.push(i);
            } else {
                for c in 0..n.child_count as usize {
                    stack.push(n.child_start as usize + c);
                }
            }
        }
        out
    }
}

/// Append a leaf's range of [`Tree::order`], merging it into the previous
/// span when the two are adjacent (leaves arrive in Morton order).
fn push_span(out: &mut Vec<(u32, u32)>, leaf: &TreeNode) {
    match out.last_mut() {
        Some(last) if last.1 == leaf.start => last.1 = leaf.end,
        _ => out.push((leaf.start, leaf.end)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> (Vec<Vec3>, Vec<f64>) {
        let mut pos = Vec::new();
        let mut mass = Vec::new();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    pos.push(Vec3::new(i as f64, j as f64, k as f64));
                    mass.push(1.0 + (i + j + k) as f64 * 0.1);
                }
            }
        }
        (pos, mass)
    }

    #[test]
    fn root_moments_match_totals() {
        let (pos, mass) = grid(4);
        let tree = Tree::build(&pos, &mass, 8);
        let total: f64 = mass.iter().sum();
        assert!((tree.root().mass - total).abs() < 1e-9);
        let mut com = Vec3::ZERO;
        for (p, m) in pos.iter().zip(&mass) {
            com += *p * *m;
        }
        com /= total;
        assert!((tree.root().com - com).norm() < 1e-9);
        assert_eq!(tree.len(), pos.len());
    }

    #[test]
    fn every_particle_in_exactly_one_leaf() {
        let (pos, mass) = grid(5);
        let tree = Tree::build(&pos, &mass, 4);
        let mut seen = vec![0u32; pos.len()];
        for n in &tree.nodes {
            if n.is_leaf() {
                for &pi in tree.leaf_particles(n) {
                    seen[pi as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn leaves_respect_n_leaf() {
        let (pos, mass) = grid(6);
        let tree = Tree::build(&pos, &mass, 10);
        for n in &tree.nodes {
            if n.is_leaf() {
                assert!(n.len() <= 10 || !n.is_empty());
            }
        }
        // At least: internal nodes must have > n_leaf particles.
        for n in &tree.nodes {
            if !n.is_leaf() {
                assert!(n.len() > 10);
            }
        }
    }

    #[test]
    fn child_ranges_partition_parent() {
        let (pos, mass) = grid(4);
        let tree = Tree::build(&pos, &mass, 2);
        for n in &tree.nodes {
            if n.is_leaf() {
                continue;
            }
            let mut covered = 0;
            let mut cursor = n.start;
            for c in 0..n.child_count as usize {
                let ch = &tree.nodes[n.child_start as usize + c];
                assert_eq!(ch.start, cursor, "children must be contiguous");
                cursor = ch.end;
                covered += ch.len();
            }
            assert_eq!(cursor, n.end);
            assert_eq!(covered, n.len());
        }
    }

    #[test]
    fn neighbor_search_matches_brute_force() {
        let (pos, mass) = grid(6);
        let tree = Tree::build(&pos, &mass, 4);
        let center = Vec3::new(2.3, 2.7, 3.1);
        let r = 1.8;
        let mut found = Vec::new();
        tree.neighbors_within(center, r, &mut found);
        let brute: Vec<u32> = pos
            .iter()
            .enumerate()
            .filter(|(_, p)| (**p - center).norm() <= r)
            .map(|(i, _)| i as u32)
            .collect();
        let mut found_exact: Vec<u32> = found
            .into_iter()
            .filter(|&i| (pos[i as usize] - center).norm() <= r)
            .collect();
        found_exact.sort_unstable();
        assert_eq!(found_exact, brute);
    }

    #[test]
    fn neighbor_lists_shrink_to_ordered_sublists() {
        // Pins `neighbors_within`'s caching contract: the candidate list
        // at any radius r' <= r is an order-preserving sublist of the
        // list at r, so one wide walk can be cached and re-filtered
        // exactly for smaller radii.
        let (pos, mass) = grid(6);
        let h: Vec<f64> = (0..pos.len())
            .map(|i| 0.3 + 0.05 * (i % 5) as f64)
            .collect();
        let tree = Tree::build_with_h(&pos, &mass, Some(&h), 4);
        let center = Vec3::new(2.3, 2.7, 3.1);
        let mut wide = Vec::new();
        tree.neighbors_within(center, 2.6, &mut wide);
        for r in [2.6, 2.0, 1.3, 0.6, 0.1] {
            let mut narrow = Vec::new();
            tree.neighbors_within(center, r, &mut narrow);
            let mut it = wide.iter();
            for s in &narrow {
                assert!(
                    it.any(|w| w == s),
                    "candidate {s} at r={r} missing from (or reordered in) the wide list"
                );
            }
        }
    }

    #[test]
    fn scatter_search_sees_large_h_particles() {
        // One far particle with a huge smoothing length must be returned
        // even for a tiny query radius.
        let pos = vec![Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)];
        let mass = vec![1.0, 1.0];
        let h = vec![0.1, 20.0];
        let tree = Tree::build_with_h(&pos, &mass, Some(&h), 1);
        let mut out = Vec::new();
        tree.neighbors_within(Vec3::ZERO, 0.5, &mut out);
        assert!(out.contains(&1), "scatter neighbor with large h missed");
    }

    /// Seeded cloud with per-particle search radii, for the box-query tests.
    fn cloud_with_h(seed: u64, n: usize) -> (Vec<Vec3>, Vec<f64>, Vec<f64>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coord = |_| rng.gen_range(-5.0..5.0);
        let pos: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new(coord(i), coord(i), coord(i)))
            .collect();
        let h = (0..n).map(|_| rng.gen_range(0.05..2.5)).collect();
        (pos, vec![1.0; n], h)
    }

    /// True distance from `p` to the nearest point of `b`.
    fn dist_to_box(b: &BBox, p: Vec3) -> f64 {
        b.dist2_to_point(p).sqrt()
    }

    /// Run a box query (gather-only or scatter-aware) and expand its spans
    /// to particle indices, checking the spans are disjoint, increasing
    /// and merged.
    fn box_query(tree: &Tree, bbox: &BBox, r: f64, scatter: bool) -> Vec<u32> {
        let mut spans = Vec::new();
        if scatter {
            tree.spans_of_box(bbox, r, &mut spans);
        } else {
            tree.gather_spans_of_box(bbox, r, &mut spans);
        }
        for w in spans.windows(2) {
            assert!(
                w[0].1 < w[1].0,
                "spans {w:?} overlap, touch or go backwards"
            );
        }
        spans
            .iter()
            .flat_map(|&(s, e)| &tree.order[s as usize..e as usize])
            .copied()
            .collect()
    }

    #[test]
    fn box_query_matches_brute_force_on_random_clouds() {
        for seed in 0..24u64 {
            let (pos, mass, h) = cloud_with_h(seed, 20 + 17 * seed as usize);
            let tree = Tree::build_with_h(&pos, &mass, Some(&h), 1 + seed as usize % 9);
            let a = pos[seed as usize % pos.len()];
            let b = pos[(3 * seed as usize + 1) % pos.len()];
            let mut query = BBox::empty();
            query.extend(a);
            query.extend(a * 0.8 + b * 0.2);
            let r = 0.2 + 0.15 * seed as f64;
            let gather = box_query(&tree, &query, r, false);
            let scatter = box_query(&tree, &query, r, true);
            let mut seen = vec![false; pos.len()];
            for &j in &scatter {
                assert!(!seen[j as usize], "seed {seed}: {j} listed twice");
                seen[j as usize] = true;
            }
            assert!(gather.iter().all(|&j| seen[j as usize]), "seed {seed}");
            // Exact after the caller's filter: everything the box can
            // reach (gather) or that reaches the box (scatter) is listed.
            for (j, &p) in pos.iter().enumerate() {
                let d = dist_to_box(&query, p);
                let listed = |list: &[u32]| list.contains(&(j as u32));
                assert!(d > r || listed(&gather), "seed {seed}: gather missed {j}");
                assert!(
                    d > r.max(h[j]) || listed(&scatter),
                    "seed {seed}: scatter missed {j}"
                );
            }
            // And it is a pruned walk, not the whole tree.
            if r < 1.0 {
                assert!(gather.len() < pos.len() || pos.len() < 40, "seed {seed}");
            }
        }
    }

    #[test]
    fn box_query_contains_every_member_points_list_in_order() {
        // The group-walk contract: one box query serves every point inside
        // the box — each point's own `neighbors_within` list is an
        // order-preserving sublist of it, at the same and smaller radii.
        for seed in 0..12u64 {
            let (pos, mass, h) = cloud_with_h(100 + seed, 300);
            let tree = Tree::build_with_h(&pos, &mass, Some(&h), 8);
            let leaf = tree
                .nodes
                .iter()
                .filter(|n| n.is_leaf())
                .nth(seed as usize)
                .unwrap();
            let r = 0.3 + 0.2 * seed as f64;
            let wide = box_query(&tree, &leaf.bbox, r, true);
            for &i in tree.leaf_particles(leaf) {
                for r_point in [r, 0.5 * r] {
                    let mut own = Vec::new();
                    tree.neighbors_within(pos[i as usize], r_point, &mut own);
                    let mut it = wide.iter();
                    for j in &own {
                        assert!(
                            it.any(|w| w == j),
                            "seed {seed}: {j} of particle {i}'s list missing or reordered"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn box_query_stays_exact_on_a_refreshed_tree_with_overlapping_siblings() {
        let (mut pos, mass, mut h) = cloud_with_h(7, 400);
        let mut tree = Tree::build_with_h(&pos, &mass, Some(&h), 8);
        // Drift hard enough that sibling boxes overlap, and change the radii.
        for (i, p) in pos.iter_mut().enumerate() {
            let k = i as f64;
            *p += Vec3::new((k * 0.37).sin(), (k * 0.91).cos(), (k * 0.53).sin()) * 0.8;
            h[i] *= 0.5 + (i % 4) as f64 * 0.4;
        }
        tree.refresh_with_h(&pos, &mass, Some(&h));
        let overlapping = tree.nodes.iter().filter(|n| !n.is_leaf()).any(|n| {
            let kids = &tree.nodes[n.child_start as usize..][..n.child_count as usize];
            kids.iter()
                .enumerate()
                .any(|(a, x)| kids[a + 1..].iter().any(|y| x.bbox.overlaps(&y.bbox)))
        });
        assert!(overlapping, "the drift must make sibling boxes overlap");
        for (k, leaf) in tree
            .nodes
            .iter()
            .filter(|n| n.is_leaf())
            .enumerate()
            .take(20)
        {
            let r = 0.25 + 0.1 * k as f64;
            let gather = box_query(&tree, &leaf.bbox, r, false);
            let scatter = box_query(&tree, &leaf.bbox, r, true);
            for (j, &p) in pos.iter().enumerate() {
                let d = dist_to_box(&leaf.bbox, p);
                assert!(
                    d > r || gather.contains(&(j as u32)),
                    "leaf {k}: gather {j}"
                );
                assert!(
                    d > r.max(h[j]) || scatter.contains(&(j as u32)),
                    "leaf {k}: scatter {j}"
                );
            }
            // Leaf ranks survive the refresh: still one rank per leaf.
            let rank = tree.leaf_rank(tree.leaf_particles(leaf)[0] as usize);
            assert_eq!(rank, leaf.start);
            assert!(tree
                .leaf_particles(leaf)
                .iter()
                .all(|&i| tree.leaf_rank(i as usize) == rank));
        }
    }

    #[test]
    fn box_query_on_degenerate_trees() {
        let anywhere = BBox::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let empty = Tree::build(&[], &[], 4);
        assert!(box_query(&empty, &anywhere, 1.0, true).is_empty());
        assert!(box_query(&empty, &anywhere, 1.0, false).is_empty());

        let one = Tree::build_with_h(&[Vec3::splat(3.0)], &[2.0], Some(&[0.5]), 4);
        assert!(
            box_query(&one, &anywhere, 1.0, true).is_empty(),
            "sqrt(12) away, reach 1"
        );
        assert_eq!(box_query(&one, &anywhere, 3.5, true), [0]);
        assert_eq!(one.leaf_rank(0), 0);

        // 50 coincident particles: the build stops at max depth, and both
        // an empty query box and a covering one terminate.
        let pos = vec![Vec3::splat(0.5); 50];
        let tree = Tree::build(&pos, &[1.0; 50], 4);
        assert!(
            box_query(&tree, &BBox::empty(), 10.0, true).is_empty(),
            "an empty box reaches nothing"
        );
        let mut all = box_query(&tree, &anywhere, 0.0, false);
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn groups_cover_all_particles_without_overlap() {
        let (pos, mass) = grid(5);
        let tree = Tree::build(&pos, &mass, 4);
        let groups = tree.groups(16);
        let mut seen = vec![false; pos.len()];
        for &g in &groups {
            let n = &tree.nodes[g];
            assert!(n.len() <= 16 || n.is_leaf());
            for &pi in tree.leaf_particles_range(n) {
                assert!(!seen[pi as usize], "group overlap");
                seen[pi as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn particles_sharing_a_key_stay_in_index_order() {
        // 40 sites, each holding 12 particles whose indices interleave
        // with the other sites'.
        let sites = 40;
        let pos: Vec<Vec3> = (0..sites * 12)
            .map(|i| {
                let s = (i * 7) % sites;
                Vec3::new(s as f64, (s * s % 13) as f64, (s % 5) as f64)
            })
            .collect();
        let mass = vec![1.0; pos.len()];
        let tree = Tree::build(&pos, &mass, 8);
        let key = |i: u32| morton::key(pos[i as usize], &tree.cube);
        let mut tied = 0;
        for w in tree.order.windows(2) {
            if key(w[0]) == key(w[1]) {
                tied += 1;
                assert!(w[0] < w[1], "tied run out of index order: {w:?}");
            }
        }
        assert_eq!(tied, sites * 11);
    }

    #[test]
    fn empty_and_singleton_trees() {
        let tree = Tree::build(&[], &[], 4);
        assert!(tree.is_empty());
        let mut out = Vec::new();
        tree.neighbors_within(Vec3::ZERO, 1.0, &mut out);
        assert!(out.is_empty());
        assert!(tree.groups(8).is_empty());

        let tree = Tree::build(&[Vec3::splat(1.0)], &[2.0], 4);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.root().mass, 2.0);
        assert_eq!(tree.root().com, Vec3::splat(1.0));
    }

    #[test]
    fn refresh_reaccumulates_moments_without_retopology() {
        let (mut pos, mut mass) = grid(5);
        let mut tree = Tree::build(&pos, &mass, 4);
        let nodes_before: Vec<(u32, u32, u32, u8)> = tree
            .nodes
            .iter()
            .map(|n| (n.start, n.end, n.child_start, n.child_count))
            .collect();
        let order_before = tree.order.clone();
        // Drift every particle a little and perturb the masses.
        for (i, p) in pos.iter_mut().enumerate() {
            *p += Vec3::new(0.01 * i as f64, -0.02, 0.03);
        }
        for m in mass.iter_mut() {
            *m *= 1.5;
        }
        tree.refresh(&pos, &mass);
        // Topology untouched.
        let nodes_after: Vec<(u32, u32, u32, u8)> = tree
            .nodes
            .iter()
            .map(|n| (n.start, n.end, n.child_start, n.child_count))
            .collect();
        assert_eq!(nodes_before, nodes_after);
        assert_eq!(order_before, tree.order);
        // Moments match the updated arrays exactly.
        let total: f64 = mass.iter().sum();
        assert!((tree.root().mass - total).abs() < 1e-9);
        let mut com = Vec3::ZERO;
        for (p, m) in pos.iter().zip(&mass) {
            com += *p * *m;
        }
        com /= total;
        assert!((tree.root().com - com).norm() < 1e-9);
        // Every node still bounds its particles.
        for n in &tree.nodes {
            for &pi in tree.leaf_particles_range(n) {
                let p = pos[pi as usize];
                assert!(n.bbox.dist2_to_point(p) <= 1e-12);
            }
        }
        // Internal consistency: parent mass equals the sum of children.
        for n in &tree.nodes {
            if !n.is_leaf() {
                let m: f64 = (0..n.child_count as usize)
                    .map(|c| tree.nodes[n.child_start as usize + c].mass)
                    .sum();
                assert!((n.mass - m).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn refreshed_tree_walks_match_a_fresh_build_monopole() {
        // After a small drift the refreshed tree's neighbor search must
        // still find everything a fresh build finds.
        let (mut pos, mass) = grid(6);
        let mut tree = Tree::build(&pos, &mass, 8);
        for (i, p) in pos.iter_mut().enumerate() {
            *p += Vec3::new(0.05 * ((i % 7) as f64 - 3.0), 0.04, -0.03);
        }
        tree.refresh(&pos, &mass);
        let center = Vec3::new(2.3, 2.7, 3.1);
        let r = 1.8;
        let mut found = Vec::new();
        tree.neighbors_within(center, r, &mut found);
        let mut found_exact: Vec<u32> = found
            .into_iter()
            .filter(|&i| (pos[i as usize] - center).norm() <= r)
            .collect();
        found_exact.sort_unstable();
        let brute: Vec<u32> = pos
            .iter()
            .enumerate()
            .filter(|(_, p)| (**p - center).norm() <= r)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(found_exact, brute);
    }

    #[test]
    #[should_panic(expected = "unchanged particle count")]
    fn refresh_rejects_a_changed_particle_count() {
        let (pos, mass) = grid(3);
        let mut tree = Tree::build(&pos, &mass, 4);
        tree.refresh(&pos[..10], &mass[..10]);
    }

    #[test]
    fn coincident_particles_do_not_hang() {
        let pos = vec![Vec3::splat(0.5); 50];
        let mass = vec![1.0; 50];
        let tree = Tree::build(&pos, &mass, 4);
        // All keys identical: recursion must stop at max depth.
        assert_eq!(tree.len(), 50);
        assert!((tree.root().mass - 50.0).abs() < 1e-12);
    }

    impl Tree {
        /// Test helper: particles of a *group* node (same as leaf range).
        fn leaf_particles_range(&self, node: &TreeNode) -> &[u32] {
            &self.order[node.start as usize..node.end as usize]
        }
    }
}
