//! Communicators: rank identity, point-to-point messaging, and splitting.

use crate::message::{slice_bytes, Message, COLLECTIVE_TAG_BASE};
use crate::world::WorldShared;
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A communicator: a group of ranks that can exchange messages and take part
/// in collectives, analogous to `MPI_Comm`.
///
/// Each rank thread owns its `Comm` values; a communicator created by
/// [`Comm::split`] coexists with its parent (the paper keeps the world
/// communicator for main↔pool traffic alongside the split main-only one).
pub struct Comm {
    shared: Arc<WorldShared>,
    id: u64,
    rank: usize,
    /// Maps this communicator's ranks to world ranks.
    members: Arc<Vec<usize>>,
    /// Collective sequence number; advances identically on every member
    /// because collectives are (as in MPI) called in the same order.
    coll_seq: Cell<u64>,
}

impl Comm {
    pub(crate) fn world(shared: Arc<WorldShared>, rank: usize, members: Arc<Vec<usize>>) -> Self {
        Comm {
            shared,
            id: 0,
            rank,
            members,
            coll_seq: Cell::new(0),
        }
    }

    /// This rank's index within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    #[inline]
    fn my_world_rank(&self) -> usize {
        self.members[self.rank]
    }

    /// Send a single value. Wire size is `size_of::<T>()`.
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: u64, data: T) {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "mpisim: user tags must be < 2^40"
        );
        self.send_raw(dst, tag, std::mem::size_of::<T>(), data);
    }

    /// Send a vector; wire size is `len * size_of::<T>()`.
    pub fn send_vec<T: Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "mpisim: user tags must be < 2^40"
        );
        let bytes = slice_bytes::<T>(data.len());
        self.send_raw(dst, tag, bytes, data);
    }

    pub(crate) fn send_raw<T: Send + 'static>(&self, dst: usize, tag: u64, bytes: usize, data: T) {
        let world_dst = self.members[dst];
        self.shared.stats[self.my_world_rank()].record_send(bytes);
        self.shared.mailboxes[world_dst].post(Message::new(self.id, self.rank, tag, bytes, data));
    }

    /// Blocking receive of a single value from `src` with `tag`.
    pub fn recv<T: 'static>(&self, src: usize, tag: u64) -> T {
        self.recv_raw(src, tag)
    }

    /// Blocking receive of a vector from `src` with `tag`.
    pub fn recv_vec<T: 'static>(&self, src: usize, tag: u64) -> Vec<T> {
        self.recv_raw(src, tag)
    }

    pub(crate) fn recv_raw<T: 'static>(&self, src: usize, tag: u64) -> T {
        self.shared.mailboxes[self.my_world_rank()]
            .recv_match(self.id, src, tag)
            .take()
    }

    /// Sleep until a message on this communicator whose `(src, tag)`
    /// satisfies `matches` is pending, and return that pair without
    /// receiving it (`MPI_Probe` on `MPI_ANY_SOURCE` / `MPI_ANY_TAG`,
    /// filtered; the pool-node loop waits for work with this).
    pub fn wait_any(&self, matches: impl Fn(usize, u64) -> bool) -> (usize, u64) {
        self.shared.mailboxes[self.my_world_rank()].wait_any(self.id, matches)
    }

    /// Next collective tag; advances the per-communicator sequence.
    /// `slot` distinguishes rounds within one collective (< 256).
    pub(crate) fn coll_tag(&self, seq: u64, slot: u64) -> u64 {
        debug_assert!(slot < 256);
        COLLECTIVE_TAG_BASE + seq * 256 + slot
    }

    pub(crate) fn next_coll_seq(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        self.shared.stats[self.my_world_rank()].record_collective();
        s
    }

    /// Collective send used inside collectives (bypasses the user-tag check).
    pub(crate) fn coll_send<T: Send + 'static>(&self, dst: usize, tag: u64, data: T) {
        let bytes = std::mem::size_of::<T>();
        self.send_raw(dst, tag, bytes, data);
    }

    pub(crate) fn coll_send_vec<T: Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        let bytes = slice_bytes::<T>(data.len());
        self.send_raw(dst, tag, bytes, data);
    }

    /// Split this communicator by `color`; ranks with equal color form a new
    /// communicator ordered by `(key, old rank)`, analogous to
    /// `MPI_Comm_split`. Collective over the parent.
    ///
    /// The paper splits the world into *main* ranks (galaxy integration) and
    /// *pool* ranks (surrogate inference) exactly this way.
    pub fn split(&self, color: u64, key: i64) -> Comm {
        // Gather (color, key) from everyone so each rank can compute its group.
        let triples: Vec<(u64, i64, usize)> = self.allgather((color, key, self.rank));
        let mut group: Vec<(i64, usize)> = triples
            .iter()
            .filter(|(c, _, _)| *c == color)
            .map(|(_, k, r)| (*k, *r))
            .collect();
        group.sort_unstable();
        let new_rank = group
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("split: calling rank missing from its own color group");
        let new_members: Vec<usize> = group.iter().map(|&(_, r)| self.members[r]).collect();

        // The group root allocates a globally unique id and distributes it to
        // the other members over the parent communicator.
        let seq = self.next_coll_seq();
        let tag = self.coll_tag(seq, 0);
        let root_parent_rank = group[0].1;
        let new_id = if self.rank == root_parent_rank {
            let id = self.shared.next_comm_id.fetch_add(1, Ordering::Relaxed);
            for &(_, r) in group.iter().skip(1) {
                self.coll_send(r, tag, id);
            }
            id
        } else {
            self.recv_raw::<u64>(root_parent_rank, tag)
        };

        Comm {
            shared: Arc::clone(&self.shared),
            id: new_id,
            rank: new_rank,
            members: Arc::new(new_members),
            coll_seq: Cell::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::World;

    #[test]
    fn point_to_point_roundtrip() {
        World::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 3, String::from("hello"));
                let back: String = c.recv(1, 4);
                assert_eq!(back, "hello back");
            } else {
                let s: String = c.recv(0, 3);
                assert_eq!(s, "hello");
                c.send(0, 4, format!("{s} back"));
            }
        });
    }

    #[test]
    fn tags_disambiguate_messages() {
        World::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, 10u32);
                c.send(1, 2, 20u32);
            } else {
                // Receive in the opposite order of sending.
                let b: u32 = c.recv(0, 2);
                let a: u32 = c.recv(0, 1);
                assert_eq!((a, b), (10, 20));
            }
        });
    }

    #[test]
    fn wait_any_sees_pending_message() {
        World::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 9, 1u8);
                c.barrier();
            } else {
                c.barrier();
                assert_eq!(c.wait_any(|_, tag| tag == 9 || tag == 10), (0, 9));
                let _: u8 = c.recv(0, 9);
            }
        });
    }

    #[test]
    fn wait_any_ignores_a_split_communicators_traffic() {
        // Rank 0 sends on the split communicator first, then on the world:
        // rank 1's world wait skips the split's message though it came first.
        World::new(2).run(|c| {
            let sub = c.split(0, c.rank() as i64);
            if c.rank() == 0 {
                sub.send(1, 7, 1u8);
                c.send(1, 7, 2u8);
            } else {
                assert_eq!(c.wait_any(|_, tag| tag == 7), (0, 7));
                assert_eq!(c.recv::<u8>(0, 7), 2);
                assert_eq!(sub.recv::<u8>(0, 7), 1);
            }
        });
    }

    #[test]
    fn split_into_main_and_pool() {
        // 6 ranks: last 2 become the pool, first 4 the main nodes.
        World::new(6).run(|c| {
            let is_pool = c.rank() >= 4;
            let sub = c.split(is_pool as u64, c.rank() as i64);
            if is_pool {
                assert_eq!(sub.size(), 2);
                assert_eq!(sub.rank(), c.rank() - 4);
            } else {
                assert_eq!(sub.size(), 4);
                assert_eq!(sub.rank(), c.rank());
            }
            // The sub-communicator must support its own collectives.
            let total = sub.allreduce_f64(1.0, crate::ReduceOp::Sum);
            assert_eq!(total, sub.size() as f64);
            // And the parent communicator still works for cross-group traffic.
            if c.rank() == 0 {
                c.send(4, 11, 123u64);
            } else if c.rank() == 4 {
                assert_eq!(c.recv::<u64>(0, 11), 123);
            }
        });
    }

    #[test]
    fn split_with_reverse_key_reverses_ranks() {
        World::new(4).run(|c| {
            let sub = c.split(0, -(c.rank() as i64));
            assert_eq!(sub.rank(), c.size() - 1 - c.rank());
        });
    }

    #[test]
    fn nested_splits_are_independent() {
        World::new(8).run(|c| {
            let half = c.split((c.rank() / 4) as u64, c.rank() as i64);
            let quarter = half.split((half.rank() / 2) as u64, half.rank() as i64);
            assert_eq!(quarter.size(), 2);
            let s = quarter.allreduce_f64(c.rank() as f64, crate::ReduceOp::Sum);
            // Pairs are (0,1), (2,3), (4,5), (6,7).
            let base = (c.rank() / 2) * 2;
            assert_eq!(s, (base + base + 1) as f64);
        });
    }
}
