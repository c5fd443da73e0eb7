//! FDPS-style i-particle groups for the SPH passes (paper §5.2.4's `n_g`):
//! the targets of a pass are sorted by the neighbour tree's leaves and each
//! leaf's targets share **one** tree walk. The pass lays its j-side data
//! out once in tree order, so the walk's result is a few contiguous spans
//! of those columns ([`fdps::Tree::spans_of_box`]) that every target of
//! the leaf then streams through — no per-target walk, no per-candidate
//! indirection.
//!
//! `GroupScratch::run` is the one driver both passes use. It owns the
//! two pieces of state that must outlive a pass for steady-state stepping
//! to stay allocation-free: the leaf-ordered work plan (`keys`) and one
//! set of group buffers per pool worker, checked out for the duration of a
//! work chunk.
//!
//! Work is handed to the pool **per target**, not per group: the vendored
//! pool runs anything under 64 items inline, and a block-timestep pass of
//! 40 leaves × 16 targets must not silently serialise. A worker re-stages
//! its buffers whenever the leaf changes under it, so a leaf cut by a
//! chunk boundary is simply walked once on each side — which is harmless
//! because of the rule every per-target routine built on this obeys:
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// Per-worker buffers of a grouped pass. Every column holds at most one
/// entry per candidate of the current group, so one number describes the
/// whole allocation.
pub trait GroupBuffers: Default + Send {
    /// Candidates the buffers can hold without growing.
    fn capacity(&self) -> usize;
    /// Grow every column to hold `n` candidates.
    fn reserve(&mut self, n: usize);
}

/// Grow `v` to hold `n` entries, in power-of-two steps so the capacity is
/// a function of the largest `n` ever asked for, not of the order the
/// requests came in.
pub(crate) fn reserve_column<T>(v: &mut Vec<T>, n: usize) {
    if v.capacity() < n {
        v.reserve_exact(n.next_power_of_two() - v.len());
    }
}

/// Candidates a span list (ranges of the tree-ordered source columns, as
/// [`fdps::Tree::spans_of_box`] returns them) names.
pub(crate) fn span_len(spans: &[(u32, u32)]) -> usize {
    spans.iter().map(|&(s, e)| (e - s) as usize).sum()
}

const SLOT_MASK: u64 = u32::MAX as u64;

/// The leaf-ordered work plan and the per-worker buffers of one grouped
/// pass; lives in [`crate::solver::SphScratch`] across passes.
#[derive(Debug, Default)]
pub struct GroupScratch<W> {
    /// One key per target, `leaf rank << 32 | slot in the target list`,
    /// sorted: groups are runs of equal leaf rank, in Morton order.
    keys: Vec<u64>,
    /// One buffer set per pool worker (see [`GroupScratch::checkout`]).
    workers: Vec<Mutex<W>>,
}

/// Scratch carries no state between passes, so a clone starts cold.
impl<W> Clone for GroupScratch<W> {
    fn clone(&self) -> Self {
        GroupScratch {
            keys: Vec::new(),
            workers: Vec::new(),
        }
    }
}

impl<W: GroupBuffers> GroupScratch<W> {
    /// `[plan capacity, candidate capacity summed over workers]`, for the
    /// zero-allocation regression tests.
    pub fn capacities(&self) -> [usize; 2] {
        let workers = self
            .workers
            .iter()
            .map(|w| w.lock().unwrap_or_else(|e| e.into_inner()).capacity())
            .sum();
        [self.keys.capacity(), workers]
    }

    /// Slot (index into the target list) of each result `GroupScratch::run`
    /// last returned, in result order.
    pub fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.keys.iter().map(|&k| (k & SLOT_MASK) as usize)
    }

    /// A free worker's buffers. At most one chunk is in flight per pool
    /// thread and there is a buffer set per pool thread, so a free one
    /// always exists; the yield only covers the instant between a chunk
    /// finishing and its guard dropping.
    fn checkout(&self) -> MutexGuard<'_, W> {
        loop {
            for w in &self.workers {
                match w.try_lock() {
                    Ok(guard) => return guard,
                    // The buffers are cleared before every use, so a panic
                    // that poisoned the lock left nothing that matters.
                    Err(TryLockError::Poisoned(e)) => return e.into_inner(),
                    Err(TryLockError::WouldBlock) => {}
                }
            }
            std::thread::yield_now();
        }
    }

    /// Run one grouped pass over `targets` (indices into `pos`, which
    /// `tree` indexes): per leaf, `stage(buffers, bbox, radius)` with the
    /// bounding box of the leaf's targets and the largest of their
    /// `radius(i)`, then `each(buffers, i)` per target. Returns the
    /// per-target results — in plan order, see [`GroupScratch::slots`] —
    /// and the number of group stagings (tree walks) issued.
    pub(crate) fn run<R, S, E>(
        &mut self,
        tree: &Tree,
        pos: &[Vec3],
        targets: &[usize],
        radius: impl Fn(usize) -> f64 + Sync,
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
        let n_workers = rayon::current_num_threads();
        if self.workers.len() < n_workers {
            self.workers.resize_with(n_workers, Mutex::default);
        }

        let keys = &self.keys;
        let walks = AtomicU64::new(0);
        let results = (0..keys.len())
            .into_par_iter()
            .map_init(
                || (self.checkout(), u64::MAX),
                |(buffers, staged_leaf), k| {
                    let leaf = keys[k] >> 32;
                    if leaf != *staged_leaf {
                        // The whole leaf's targets, also those a chunk
                        // boundary handed to another worker: the group is
                        // then the same on both sides of the cut.
                        let first = keys.partition_point(|&q| q >> 32 < leaf);
                        let mut bbox = BBox::empty();
                        let mut r_max = 0.0f64;
                        for &q in keys[first..].iter().take_while(|&&q| q >> 32 == leaf) {
                            let i = targets[(q & SLOT_MASK) as usize];
                            bbox.extend(pos[i]);
                            r_max = r_max.max(radius(i));
                        }
                        stage(buffers, &bbox, r_max);
                        walks.fetch_add(1, Ordering::Relaxed);
                        *staged_leaf = leaf;
                    }
                    each(buffers, targets[(keys[k] & SLOT_MASK) as usize])
                },
            )
            .collect();

        // Which worker met the largest group is a scheduling accident;
        // levelling the buffers afterwards makes the capacities a function
        // of the pass alone.
        let widest = self
            .workers
            .iter_mut()
            .map(|w| buffers_mut(w).capacity())
            .max()
            .unwrap_or(0);
        for w in &mut self.workers {
            buffers_mut(w).reserve(widest);
        }
        (results, walks.into_inner())
    }
}

fn buffers_mut<W>(w: &mut Mutex<W>) -> &mut W {
    w.get_mut().unwrap_or_else(|e| e.into_inner())
}
