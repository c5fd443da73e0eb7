//! 3-D torus alltoallv (Iwasawa et al. 2019, used by the paper in §3.4).
//!
//! A flat `MPI_Alltoallv` over `p` ranks needs `p - 1` messages per rank. On
//! Fugaku the authors instead map the MPI ranks onto a 3-D torus matching the
//! TofuD topology and the 3-D domain decomposition, and run three staged
//! alltoallv operations — one along each axis — so each rank only ever talks
//! to the `p_x + p_y + p_z - 3 = O(p^{1/3})` ranks sharing one of its axis
//! lines. Payload items are forwarded twice, carrying their origin and final
//! destination with them.

use crate::comm::Comm;

/// Dimensions of the rank torus; `px * py * pz` must equal the communicator
/// size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TorusDims {
    pub(crate) px: usize,
    pub(crate) py: usize,
    pub(crate) pz: usize,
}

impl TorusDims {
    pub fn new(px: usize, py: usize, pz: usize) -> Self {
        assert!(px > 0 && py > 0 && pz > 0, "torus dims must be positive");
        TorusDims { px, py, pz }
    }

    #[inline]
    pub fn size(&self) -> usize {
        self.px * self.py * self.pz
    }

    /// Rank of torus coordinates `(x, y, z)`.
    #[inline]
    pub(crate) fn rank_of(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.px && y < self.py && z < self.pz);
        x + self.px * (y + self.py * z)
    }

    /// Torus coordinates of `rank`.
    #[inline]
    pub(crate) fn coords_of(&self, rank: usize) -> (usize, usize, usize) {
        debug_assert!(rank < self.size());
        let x = rank % self.px;
        let y = (rank / self.px) % self.py;
        let z = rank / (self.px * self.py);
        (x, y, z)
    }
}

/// An item in flight through the torus: origin rank, destination rank, data.
struct Routed<T> {
    src: usize,
    dst: usize,
    data: Vec<T>,
}

impl Comm {
    /// Alltoallv routed through a 3-D torus in three axis-aligned stages.
    ///
    /// Semantically identical to [`Comm::alltoallv`] — `sends[j]` reaches rank
    /// `j`, the result is indexed by source — but each rank exchanges
    /// messages only with its `O(p^{1/3})` axis neighbours per stage.
    pub fn alltoallv_torus<T: Send + 'static>(
        &self,
        dims: TorusDims,
        sends: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let p = self.size();
        assert_eq!(dims.size(), p, "torus dims must cover the communicator");
        assert_eq!(sends.len(), p, "alltoallv_torus: one send buffer per rank");
        let me = self.rank();
        let (_, my_y, my_z) = dims.coords_of(me);

        // Wrap outgoing data with routing headers.
        let mut in_flight: Vec<Routed<T>> = sends
            .into_iter()
            .enumerate()
            .map(|(dst, data)| Routed { src: me, dst, data })
            .collect();

        // Stage X: deliver every item to the rank in our (y, z) line whose x
        // matches the destination's x.
        in_flight = self.torus_stage(&dims, in_flight, |dst| {
            let (dx, _, _) = dims.coords_of(dst);
            dims.rank_of(dx, my_y, my_z)
        });
        // Stage Y: now x matches; fix y.
        let (my_x, _, _) = dims.coords_of(me);
        in_flight = self.torus_stage(&dims, in_flight, |dst| {
            let (_, dy, _) = dims.coords_of(dst);
            dims.rank_of(my_x, dy, my_z)
        });
        // Stage Z: x and y match; fix z, completing delivery.
        in_flight = self.torus_stage(&dims, in_flight, |dst| {
            let (_, _, dz) = dims.coords_of(dst);
            dims.rank_of(my_x, my_y, dz)
        });

        // Everything now has dst == me; sort by origin.
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        for item in in_flight {
            debug_assert_eq!(item.dst, me);
            debug_assert!(out[item.src].is_empty(), "duplicate origin after routing");
            out[item.src] = item.data;
        }
        out
    }

    /// One staged exchange: bucket items by `hop(dst)` and alltoallv the
    /// buckets over the ranks reachable this stage. Implemented with direct
    /// point-to-point messages to exactly the axis line, so the message count
    /// is `axis_len - 1`, not `p - 1`.
    fn torus_stage<T: Send + 'static, H: Fn(usize) -> usize>(
        &self,
        dims: &TorusDims,
        items: Vec<Routed<T>>,
        hop: H,
    ) -> Vec<Routed<T>> {
        let me = self.rank();
        let seq = self.next_coll_seq();
        let tag = self.coll_tag(seq, 0);

        // Bucket by next hop. Each bucket becomes one message: a vector of
        // (src, dst, data) triples so routing info survives the hop.
        let mut buckets: std::collections::BTreeMap<usize, Vec<(usize, usize, Vec<T>)>> =
            std::collections::BTreeMap::new();
        for it in items {
            buckets
                .entry(hop(it.dst))
                .or_default()
                .push((it.src, it.dst, it.data));
        }

        // The set of ranks we exchange with this stage: all ranks sharing the
        // axis line. Determine it from the hop function applied to every
        // possible destination — but that is just the image of `hop`, which
        // is the axis line through `me`. Compute it explicitly.
        let line = self.axis_line(dims, &hop);
        debug_assert!(line.contains(&me));

        let mut kept: Vec<Routed<T>> = Vec::new();
        if let Some(local) = buckets.remove(&me) {
            kept.extend(
                local
                    .into_iter()
                    .map(|(src, dst, data)| Routed { src, dst, data }),
            );
        }
        for &peer in &line {
            if peer == me {
                continue;
            }
            let payload = buckets.remove(&peer).unwrap_or_default();
            self.coll_send_vec(peer, tag, payload);
        }
        debug_assert!(buckets.is_empty(), "torus stage produced off-line hop");
        for &peer in &line {
            if peer == me {
                continue;
            }
            let incoming: Vec<(usize, usize, Vec<T>)> = self.recv_raw(peer, tag);
            kept.extend(
                incoming
                    .into_iter()
                    .map(|(src, dst, data)| Routed { src, dst, data }),
            );
        }
        kept
    }

    /// Ranks reachable by `hop` from here: the axis line through this rank.
    fn axis_line<H: Fn(usize) -> usize>(&self, dims: &TorusDims, hop: &H) -> Vec<usize> {
        let mut line: Vec<usize> = (0..dims.size()).map(hop).collect();
        line.sort_unstable();
        line.dedup();
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    impl TorusDims {
        /// Choose near-cubic dimensions for `p` ranks (largest factors first so
        /// `px >= py >= pz`), the way FDPS picks its 3-D process grid.
        fn for_size(p: usize) -> Self {
            assert!(p > 0);
            let mut best = (p, 1, 1);
            let mut best_score = usize::MAX;
            // Enumerate factor triples; p is a rank count, so this stays tiny.
            let mut a = 1;
            while a * a * a <= p {
                if p.is_multiple_of(a) {
                    let rest = p / a;
                    let mut b = a;
                    while b * b <= rest {
                        if rest.is_multiple_of(b) {
                            let c = rest / b;
                            // Perimeter-like score: smaller means more cubic.
                            let score = (c - a) + (c - b);
                            if score < best_score {
                                best_score = score;
                                best = (c, b, a);
                            }
                        }
                        b += 1;
                    }
                }
                a += 1;
            }
            TorusDims::new(best.0, best.1, best.2)
        }

        /// Messages per rank for one staged alltoallv (excluding self).
        fn messages_per_rank(&self) -> usize {
            (self.px - 1) + (self.py - 1) + (self.pz - 1)
        }
    }

    #[test]
    fn dims_factorization_is_exact_and_cubic() {
        let d = TorusDims::for_size(64);
        assert_eq!((d.px, d.py, d.pz), (4, 4, 4));
        let d = TorusDims::for_size(12);
        assert_eq!(d.size(), 12);
        assert!(d.px >= d.py && d.py >= d.pz);
        let d = TorusDims::for_size(7); // prime: degenerate line
        assert_eq!((d.px, d.py, d.pz), (7, 1, 1));
    }

    #[test]
    fn rank_coord_roundtrip() {
        let d = TorusDims::new(3, 4, 5);
        for r in 0..d.size() {
            let (x, y, z) = d.coords_of(r);
            assert_eq!(d.rank_of(x, y, z), r);
        }
    }

    #[test]
    fn torus_matches_flat_alltoallv() {
        let dims = TorusDims::new(2, 2, 2);
        World::new(8).run(|c| {
            let sends: Vec<Vec<u64>> = (0..8)
                .map(|j| {
                    (0..=j as u64)
                        .map(|k| (c.rank() * 100 + j) as u64 + k)
                        .collect()
                })
                .collect();
            let sends2 = sends.clone();
            let flat = c.alltoallv(sends);
            let routed = c.alltoallv_torus(dims, sends2);
            assert_eq!(flat, routed);
        });
    }

    #[test]
    fn torus_handles_empty_and_uneven_payloads() {
        let dims = TorusDims::new(3, 2, 1);
        World::new(6).run(|c| {
            let sends: Vec<Vec<u32>> = (0..6)
                .map(|j| {
                    if (c.rank() + j) % 2 == 0 {
                        vec![]
                    } else {
                        vec![c.rank() as u32; j + 1]
                    }
                })
                .collect();
            let expect = c.alltoallv(sends.clone());
            let got = c.alltoallv_torus(dims, sends);
            assert_eq!(expect, got);
        });
    }

    #[test]
    fn torus_message_count_is_sub_linear() {
        let dims = TorusDims::new(4, 4, 4);
        // 3 stages * (4-1) peers = 9 sends per rank versus 63 for flat.
        assert_eq!(dims.messages_per_rank(), 9);
        let (_, stats) = World::new(64).run_with_stats(|c| {
            let sends: Vec<Vec<u8>> = (0..64).map(|j| vec![j as u8]).collect();
            c.alltoallv_torus(dims, sends);
        });
        for s in &stats {
            assert_eq!(s.messages_sent, 9);
        }
    }
}
