//! FDPS-style i-particle groups for the SPH passes (paper §5.2.4's `n_g`):
//! the targets of a pass are sorted by the neighbour tree's leaves and each
//! leaf's targets share **one** tree walk. The pass lays its j-side data
//! out once in tree order, so the walk's result is a few contiguous spans
//! of those columns ([`fdps::Tree::spans_of_box`]) that every target of
//! the leaf then streams through — no per-target walk, no per-candidate
//! indirection.
//!
//! `GroupPlan::run` is the one entry point both passes use. The plan keeps
//! what a pass must hand back to its caller: the leaf-ordered work order
//! (`keys`), which names each result's target. The group buffers (the
//! group's candidate spans and the current target's rows) live with the
//! thread, as the gravity solver's do: each pass declares one
//! `thread_local!` set beside its buffer type and hands it to `run`, which
//! borrows the running thread's set for one target at a time. A target's
//! work makes no parallel call, so no borrow ever nests, and a thread's
//! buffers outlive the pass — the next pass on that thread starts from
//! buffers already grown to the widest group it has met.
//!
//! Work is handed to the pool **per target**, not per group: the vendored
//! pool runs anything under 64 items inline, and a block-timestep pass of
//! 40 leaves × 16 targets must not silently serialise. A work chunk
//! re-stages its thread's buffers at its first target and whenever the
//! leaf changes under it, so a leaf cut by a chunk boundary is simply
//! walked once on each side — which is harmless because of the rule every
//! per-target routine built on this obeys:
//!
//! **Group independence.** A target's result is a function of the tree
//! and its own in-support set only — never of which other targets share
//! its group, nor of the group's walk radius. The group list is only ever
//! a *superset in tree order*; each target compacts it to the rows passing
//! its exact support test and assigns reduction lanes by rank among those
//! rows. That is what keeps results independent of thread count, of the
//! active subset a block-timestep pass happens to carry, and bitwise
//! reproducible across restarts.

use fdps::{BBox, Tree, Vec3};
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::LocalKey;

/// Candidates a span list (ranges of the tree-ordered source columns, as
/// [`fdps::Tree::spans_of_box`] returns them) names.
pub(crate) fn span_len(spans: &[(u32, u32)]) -> usize {
    spans.iter().map(|&(s, e)| (e - s) as usize).sum()
}

const SLOT_MASK: u64 = u32::MAX as u64;

/// The leaf-ordered work plan of one grouped pass; lives in
/// [`crate::solver::SphScratch`] across passes.
#[derive(Debug, Clone, Default)]
pub struct GroupPlan {
    /// One key per target, `leaf rank << 32 | slot in the target list`,
    /// sorted: groups are runs of equal leaf rank, in Morton order.
    keys: Vec<u64>,
}

impl GroupPlan {
    /// Plan capacity, for the zero-allocation regression tests.
    pub fn capacity(&self) -> usize {
        self.keys.capacity()
    }

    /// Slot (index into the target list) of each result `GroupPlan::run`
    /// last returned, in result order.
    pub fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.keys.iter().map(|&k| (k & SLOT_MASK) as usize)
    }

    /// Run one grouped pass over `targets` (particle indices, which `tree`
    /// indexes), with the running thread's `buffers`: per leaf,
    /// `stage(buffers, bbox, radius)` with the bounding box of the leaf's
    /// targets and the largest of their search radii (`reach(i)` is target
    /// `i`'s position and radius), then `each(buffers, i)` per target.
    /// Returns the per-target results — in plan order, see
    /// [`GroupPlan::slots`] — and the number of group stagings (tree walks)
    /// issued.
    pub(crate) fn run<W, R, S, E>(
        &mut self,
        buffers: &'static LocalKey<RefCell<W>>,
        tree: &Tree,
        targets: &[usize],
        reach: impl Fn(usize) -> (Vec3, f64) + Sync,
        stage: S,
        each: E,
    ) -> (Vec<R>, u64)
    where
        R: Send,
        S: Fn(&mut W, &BBox, f64) + Sync,
        E: Fn(&mut W, usize) -> R + Sync,
    {
        self.keys.clear();
        self.keys.extend(
            targets
                .iter()
                .enumerate()
                .map(|(slot, &i)| (tree.leaf_rank(i) as u64) << 32 | slot as u64),
        );
        self.keys.sort_unstable();

        let keys = &self.keys;
        let walks = AtomicU64::new(0);
        let results = (0..keys.len())
            .into_par_iter()
            .map_init(
                // A chunk runs on one thread from start to end, so the leaf
                // it staged last is what that thread's buffers hold.
                || u64::MAX,
                |staged_leaf, k| {
                    buffers.with_borrow_mut(|buffers| {
                        let leaf = keys[k] >> 32;
                        if leaf != *staged_leaf {
                            // The whole leaf's targets, also those a chunk
                            // boundary handed to another worker: the group
                            // is then the same on both sides of the cut.
                            let first = keys.partition_point(|&q| q >> 32 < leaf);
                            let mut bbox = BBox::empty();
                            let mut r_max = 0.0f64;
                            for &q in keys[first..].iter().take_while(|&&q| q >> 32 == leaf) {
                                let (x, r) = reach(targets[(q & SLOT_MASK) as usize]);
                                bbox.extend(x);
                                r_max = r_max.max(r);
                            }
                            stage(buffers, &bbox, r_max);
                            walks.fetch_add(1, Ordering::Relaxed);
                            *staged_leaf = leaf;
                        }
                        each(buffers, targets[(keys[k] & SLOT_MASK) as usize])
                    })
                },
            )
            .collect();
        (results, walks.into_inner())
    }
}
