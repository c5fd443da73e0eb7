//! Collective operations built from point-to-point messages.
//!
//! Algorithms mirror textbook MPI implementations so that message counts
//! scale the way a real library's would: dissemination barrier (`log p`
//! rounds), binomial-tree broadcast and reduce, linear gather + binomial
//! broadcast for allgather, and direct pairwise exchange for alltoallv.

use crate::comm::Comm;

/// Reduction operators for the `f64` convenience wrappers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

impl ReduceOp {
    #[inline]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

impl Comm {
    /// Block until every rank in the communicator has entered the barrier.
    /// Dissemination algorithm: `ceil(log2 p)` rounds of paired messages.
    pub fn barrier(&self) {
        let p = self.size();
        if p == 1 {
            self.next_coll_seq();
            return;
        }
        let seq = self.next_coll_seq();
        let mut round = 0u64;
        let mut dist = 1usize;
        while dist < p {
            let to = (self.rank() + dist) % p;
            let from = (self.rank() + p - dist) % p;
            let tag = self.coll_tag(seq, round);
            self.coll_send(to, tag, ());
            let () = self.recv_raw(from, tag);
            dist *= 2;
            round += 1;
        }
    }

    /// Broadcast `value` from `root` to all ranks (binomial tree).
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        let p = self.size();
        let seq = self.next_coll_seq();
        let tag = self.coll_tag(seq, 0);
        if p == 1 {
            return value.expect("bcast: root must supply a value");
        }
        let vrank = (self.rank() + p - root) % p;
        let mut have: Option<T> = if vrank == 0 {
            Some(value.expect("bcast: root must supply a value"))
        } else {
            None
        };

        // Receive from the parent in the binomial tree.
        if vrank != 0 {
            let mut mask = 1usize;
            while mask < p {
                if vrank & mask != 0 {
                    let vsrc = vrank & !mask;
                    let src = (vsrc + root) % p;
                    have = Some(self.recv_raw(src, tag));
                    break;
                }
                mask <<= 1;
            }
        }
        let val = have.expect("bcast: internal tree error");

        // Forward to children: all set bits above our lowest set bit.
        let lowest = if vrank == 0 {
            p.next_power_of_two()
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut mask = 1usize;
        while mask < p {
            if mask < lowest {
                let vdst = vrank | mask;
                if vdst != vrank && vdst < p {
                    let dst = (vdst + root) % p;
                    self.coll_send(dst, tag, val.clone());
                }
            }
            mask <<= 1;
        }
        val
    }

    /// Reduce `value` from all ranks to `root` with a binary operator
    /// (binomial tree). Returns `Some` on the root, `None` elsewhere.
    pub(crate) fn reduce<T, F>(&self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
    {
        let p = self.size();
        let seq = self.next_coll_seq();
        let tag = self.coll_tag(seq, 0);
        let vrank = (self.rank() + p - root) % p;
        let mut acc = value;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                // Send our partial result to the parent and drop out.
                let vdst = vrank & !mask;
                let dst = (vdst + root) % p;
                self.coll_send(dst, tag, acc);
                return None;
            }
            let vsrc = vrank | mask;
            if vsrc < p {
                let src = (vsrc + root) % p;
                let other: T = self.recv_raw(src, tag);
                acc = op(acc, other);
            }
            mask <<= 1;
        }
        if self.rank() == root {
            Some(acc)
        } else {
            // vrank 0 is always the root by construction.
            unreachable!("reduce: non-root survived the tree")
        }
    }

    /// Allreduce with a generic operator: reduce to rank 0, then broadcast.
    pub(crate) fn allreduce_with<T, F>(&self, value: T, op: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let reduced = self.reduce(0, value, op);
        self.bcast(0, reduced)
    }

    /// Allreduce a single `f64`.
    pub fn allreduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        self.allreduce_with(value, |a, b| op.apply(a, b))
    }

    /// Element-wise allreduce of an `f64` vector (all ranks must pass equal
    /// lengths).
    pub fn allreduce_vec_f64(&self, value: Vec<f64>, op: ReduceOp) -> Vec<f64> {
        self.allreduce_with(value, |a, b| {
            assert_eq!(a.len(), b.len(), "allreduce_vec_f64: length mismatch");
            a.iter().zip(&b).map(|(&x, &y)| op.apply(x, y)).collect()
        })
    }

    /// Allreduce a single `u64` sum (particle-count bookkeeping).
    pub fn allreduce_sum_u64(&self, value: u64) -> u64 {
        self.allreduce_with(value, |a, b| a + b)
    }

    /// Allreduce a single `u64` maximum (world-consistent depth/level
    /// agreement, e.g. the block-timestep schedule reduction).
    pub fn allreduce_max_u64(&self, value: u64) -> u64 {
        self.allreduce_with(value, |a, b| a.max(b))
    }

    /// Gather one value from every rank onto `root`, indexed by rank
    /// (linear, received in source order): `Some` on the root, `None`
    /// elsewhere.
    pub fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        let seq = self.next_coll_seq();
        let tag = self.coll_tag(seq, 0);
        if self.rank() != root {
            self.coll_send(root, tag, value);
            return None;
        }
        let mut mine = Some(value);
        let from = |src| match src == root {
            true => mine.take().expect("the root's own slot is taken once"),
            false => self.recv_raw(src, tag),
        };
        Some((0..self.size()).map(from).collect())
    }

    /// Gather one value from every rank onto all ranks, indexed by rank:
    /// [`Comm::gather`] onto rank 0, then a binomial broadcast of the vector.
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        if self.size() == 1 {
            self.next_coll_seq();
            return vec![value];
        }
        let all = self.gather(0, value);
        self.bcast(0, all)
    }

    /// Variable-size allgather: every rank contributes a vector; all ranks
    /// receive the concatenation indexed by source rank.
    pub fn allgatherv<T: Clone + Send + 'static>(&self, value: Vec<T>) -> Vec<Vec<T>> {
        let p = self.size();
        if p == 1 {
            self.next_coll_seq();
            return vec![value];
        }
        let seq = self.next_coll_seq();
        let tag = self.coll_tag(seq, 0);
        if self.rank() == 0 {
            let mut out: Vec<Vec<T>> = Vec::with_capacity(p);
            out.push(value);
            for src in 1..p {
                out.push(self.recv_raw(src, tag));
            }
            self.bcast(0, Some(out))
        } else {
            self.coll_send_vec(0, tag, value);
            self.bcast::<Vec<Vec<T>>>(0, None)
        }
    }

    /// All-to-all exchange of variable-size vectors: `sends[j]` goes to rank
    /// `j`; the result's `[i]` holds what rank `i` sent here. Direct pairwise
    /// algorithm — `p - 1` messages per rank, the flat `MPI_Alltoallv` the
    /// paper contrasts with the 3-D torus variant.
    pub fn alltoallv<T: Send + 'static>(&self, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let p = self.size();
        assert_eq!(sends.len(), p, "alltoallv: need one send buffer per rank");
        let seq = self.next_coll_seq();
        let tag = self.coll_tag(seq, 0);

        let mut recvs: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        // Keep our own contribution without a message.
        recvs[self.rank()] = Some(std::mem::take(&mut sends[self.rank()]));
        // Stagger the exchange so no single rank is flooded first.
        for step in 1..p {
            let dst = (self.rank() + step) % p;
            self.coll_send_vec(dst, tag, std::mem::take(&mut sends[dst]));
        }
        for step in 1..p {
            let src = (self.rank() + p - step) % p;
            recvs[src] = Some(self.recv_raw(src, tag));
        }
        recvs.into_iter().map(|o| o.unwrap()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    /// Collectives that no caller uses, kept as the reference forms the
    /// tests check against MPI's semantics.
    impl Comm {
        /// Exclusive prefix sum of `f64` values over ranks (`MPI_Exscan`):
        /// rank r receives the sum of values from ranks `0..r` (0 on rank 0).
        fn exscan_f64(&self, value: f64) -> f64 {
            let all = self.allgather(value);
            all[..self.rank()].iter().sum()
        }

        /// Scatter rows of `data` from `root`: rank `i` receives `data[i]`.
        fn scatterv<T: Clone + Send + 'static>(
            &self,
            root: usize,
            data: Option<Vec<Vec<T>>>,
        ) -> Vec<T> {
            let p = self.size();
            let seq = self.next_coll_seq();
            let tag = self.coll_tag(seq, 0);
            if self.rank() == root {
                let mut rows = data.expect("scatterv: root must supply data");
                assert_eq!(rows.len(), p, "scatterv: one row per rank");
                let mut mine = Vec::new();
                for (dst, row) in rows.drain(..).enumerate().rev() {
                    // Reverse drain keeps indices valid; own row kept locally.
                    if dst == root {
                        mine = row;
                    } else {
                        self.coll_send_vec(dst, tag, row);
                    }
                }
                mine
            } else {
                self.recv_raw(root, tag)
            }
        }

        /// Combined send+receive with one partner each way (`MPI_Sendrecv`).
        fn sendrecv<T: Send + 'static, U: 'static>(
            &self,
            dst: usize,
            send: T,
            src: usize,
            tag: u64,
        ) -> U {
            self.send(dst, tag, send);
            self.recv(src, tag)
        }
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        World::new(7).run(|c| {
            before.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must have incremented.
            assert_eq!(before.load(Ordering::SeqCst), 7);
        });
    }

    #[test]
    fn bcast_from_every_root() {
        for root in 0..5 {
            World::new(5).run(|c| {
                let v = if c.rank() == root {
                    Some(vec![root as u64, 42])
                } else {
                    None
                };
                let got = c.bcast(root, v);
                assert_eq!(got, vec![root as u64, 42]);
            });
        }
    }

    #[test]
    fn reduce_sums_on_root_only() {
        let out = World::new(6).run(|c| c.reduce(2, c.rank() as u64, |a, b| a + b));
        for (i, r) in out.iter().enumerate() {
            if i == 2 {
                assert_eq!(*r, Some(15));
            } else {
                assert_eq!(*r, None);
            }
        }
    }

    #[test]
    fn allreduce_min_max_sum() {
        World::new(5).run(|c| {
            let x = (c.rank() + 1) as f64;
            assert_eq!(c.allreduce_f64(x, ReduceOp::Sum), 15.0);
            assert_eq!(c.allreduce_f64(x, ReduceOp::Min), 1.0);
            assert_eq!(c.allreduce_f64(x, ReduceOp::Max), 5.0);
        });
    }

    #[test]
    fn allreduce_u64_max() {
        World::new(5).run(|c| {
            let x = (c.rank() as u64 + 3) * 7;
            assert_eq!(c.allreduce_max_u64(x), 49);
        });
    }

    #[test]
    fn allreduce_vec_elementwise() {
        World::new(3).run(|c| {
            let v = vec![c.rank() as f64, 1.0];
            let s = c.allreduce_vec_f64(v, ReduceOp::Sum);
            assert_eq!(s, vec![3.0, 3.0]);
        });
    }

    #[test]
    fn allgather_is_rank_indexed() {
        World::new(6).run(|c| {
            let all = c.allgather(c.rank() as u32 * 10);
            let expect: Vec<u32> = (0..6).map(|r| r * 10).collect();
            assert_eq!(all, expect);
            // A plain gather fills only its root.
            let onto_5 = c.gather(5, c.rank() as u32 * 10);
            assert_eq!(onto_5, (c.rank() == 5).then_some(expect));
        });
    }

    #[test]
    fn allgatherv_variable_lengths() {
        World::new(4).run(|c| {
            let mine: Vec<u64> = (0..c.rank() as u64).collect();
            let all = c.allgatherv(mine);
            for (src, v) in all.iter().enumerate() {
                assert_eq!(v.len(), src);
            }
        });
    }

    #[test]
    fn alltoallv_exchanges_addressed_data() {
        World::new(5).run(|c| {
            // Rank i sends [i*10 + j] to rank j.
            let sends: Vec<Vec<u64>> = (0..5).map(|j| vec![(c.rank() * 10 + j) as u64]).collect();
            let recvs = c.alltoallv(sends);
            for (src, v) in recvs.iter().enumerate() {
                assert_eq!(v, &vec![(src * 10 + c.rank()) as u64]);
            }
        });
    }

    #[test]
    fn alltoallv_with_empty_buffers() {
        World::new(4).run(|c| {
            // Only rank 0 sends anything, and only to rank 3.
            let mut sends: Vec<Vec<u8>> = vec![vec![]; 4];
            if c.rank() == 0 {
                sends[3] = vec![7, 8, 9];
            }
            let recvs = c.alltoallv(sends);
            if c.rank() == 3 {
                assert_eq!(recvs[0], vec![7, 8, 9]);
            }
            let total: usize = recvs.iter().map(|v| v.len()).sum();
            if c.rank() != 3 {
                assert_eq!(total, 0);
            }
        });
    }

    #[test]
    fn collectives_compose_in_sequence() {
        // Regression guard for tag-sequencing: many collectives back to back.
        World::new(4).run(|c| {
            for i in 0..20u64 {
                let s = c.allreduce_f64(i as f64, ReduceOp::Sum);
                assert_eq!(s, 4.0 * i as f64);
                c.barrier();
                let g = c.allgather(i);
                assert_eq!(g, vec![i; 4]);
            }
        });
    }

    #[test]
    fn exscan_is_exclusive_prefix_sum() {
        World::new(5).run(|c| {
            let pre = c.exscan_f64((c.rank() + 1) as f64);
            // Rank r gets the sum of the values on ranks 0..r, i.e. 1..=r.
            let expect = (1..=c.rank()).map(|x| x as f64).sum::<f64>();
            assert_eq!(pre, expect, "rank {}", c.rank());
        });
    }

    #[test]
    fn scatterv_delivers_rows() {
        World::new(4).run(|c| {
            let data = if c.rank() == 1 {
                Some((0..4).map(|r| vec![r as u64 * 10, r as u64]).collect())
            } else {
                None
            };
            let row = c.scatterv(1, data);
            assert_eq!(row, vec![c.rank() as u64 * 10, c.rank() as u64]);
        });
    }

    #[test]
    fn sendrecv_ring_rotates_values() {
        World::new(4).run(|c| {
            let p = c.size();
            let right = (c.rank() + 1) % p;
            let left = (c.rank() + p - 1) % p;
            let got: usize = c.sendrecv(right, c.rank(), left, 17);
            assert_eq!(got, left);
        });
    }
}
