//! The world: spawns one OS thread per logical rank and wires up mailboxes.

use crate::comm::Comm;
use crate::mailbox::Mailbox;
use crate::stats::{CommStats, StatsSnapshot};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Shared state visible to every rank.
pub(crate) struct WorldShared {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) stats: Vec<CommStats>,
    pub(crate) next_comm_id: AtomicU64,
}

/// A world of `size` logical ranks.
///
/// [`World::run`] spawns one thread per rank, hands each a [`Comm`] covering
/// the whole world (the `MPI_COMM_WORLD` analogue), and joins them, returning
/// each rank's result in rank order.
pub struct World {
    size: usize,
    stack_size: usize,
}

impl World {
    /// Create a world with `size` ranks.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "mpisim: world size must be positive");
        World {
            size,
            // Rank bodies are shallow; 2 MiB keeps hundreds of ranks cheap.
            stack_size: 2 << 20,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f` on every rank and return the per-rank results in rank order.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        self.run_with_stats(f).0
    }

    /// Like [`World::run`] but also return per-rank communication statistics.
    pub fn run_with_stats<R, F>(&self, f: F) -> (Vec<R>, Vec<StatsSnapshot>)
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        let shared = Arc::new(WorldShared {
            mailboxes: (0..self.size).map(|_| Mailbox::new()).collect(),
            stats: (0..self.size).map(|_| CommStats::new()).collect(),
            next_comm_id: AtomicU64::new(1),
        });
        let members: Arc<Vec<usize>> = Arc::new((0..self.size).collect());
        let f = &f;

        let results: Vec<R> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.size)
                .map(|rank| {
                    let shared = Arc::clone(&shared);
                    let members = Arc::clone(&members);
                    std::thread::Builder::new()
                        .name(format!("mpisim-rank-{rank}"))
                        .stack_size(self.stack_size)
                        .spawn_scoped(scope, move || {
                            let comm = Comm::world(shared, rank, members);
                            f(&comm)
                        })
                        .expect("mpisim: failed to spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mpisim: rank thread panicked"))
                .collect()
        });

        let stats = shared.stats.iter().map(|s| s.snapshot()).collect();
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids() {
        let ids = World::new(5).run(|c| (c.rank(), c.size()));
        for (i, (r, s)) in ids.iter().enumerate() {
            assert_eq!(*r, i);
            assert_eq!(*s, 5);
        }
    }

    #[test]
    fn single_rank_world_works() {
        let out = World::new(1).run(|c| {
            c.barrier();
            c.rank()
        });
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn stats_capture_point_to_point_traffic() {
        let (_, stats) = World::new(2).run_with_stats(|c| {
            if c.rank() == 0 {
                c.send_vec(1, 7, vec![0u8; 100]);
            } else {
                let v: Vec<u8> = c.recv_vec(0, 7);
                assert_eq!(v.len(), 100);
            }
        });
        assert_eq!(stats[0].messages_sent, 1);
        assert_eq!(stats[0].bytes_sent, 100);
        assert_eq!(stats[1].messages_sent, 0);
    }

    #[test]
    #[should_panic(expected = "world size must be positive")]
    fn zero_size_world_rejected() {
        let _ = World::new(0);
    }
}
