//! Domain decomposition: recursive multisection into a 3-D process grid
//! (paper §3.4, Figure 4).
//!
//! FDPS samples particle positions, gathers the samples, and cuts space into
//! `nx × ny × nz` slabs with equal sample counts — first along x, then along
//! y within each x-slab, then along z within each (x, y) column. The highly
//! concentrated galactic disk therefore produces the narrow central domains
//! visible in the paper's Figure 4.

use crate::bbox::BBox;
use crate::vec3::Vec3;
use mpisim::Comm;

/// A completed decomposition: ownership boundaries plus clipped domain boxes.
#[derive(Debug, Clone)]
pub struct DomainDecomposition {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Interior x boundaries (`nx - 1` values, ascending).
    xb: Vec<f64>,
    /// Interior y boundaries per x-slab (`nx` rows of `ny - 1`).
    yb: Vec<Vec<f64>>,
    /// Interior z boundaries per (x, y) column (`nx * ny` rows of `nz - 1`).
    zb: Vec<Vec<f64>>,
    /// Bounding box of the sampled particles (domains are clipped to it).
    pub global: BBox,
}

impl DomainDecomposition {
    /// Number of domains.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rank of grid cell `(ix, iy, iz)` — matches the 3-D torus layout.
    #[inline]
    pub(crate) fn rank_of_cell(&self, ix: usize, iy: usize, iz: usize) -> usize {
        ix + self.nx * (iy + self.ny * iz)
    }

    /// Grid cell of `rank`.
    #[inline]
    pub(crate) fn cell_of_rank(&self, rank: usize) -> (usize, usize, usize) {
        let ix = rank % self.nx;
        let iy = (rank / self.nx) % self.ny;
        let iz = rank / (self.nx * self.ny);
        (ix, iy, iz)
    }

    /// Owning rank of position `p`. Every point in space has an owner
    /// (boundary slabs extend to infinity).
    pub fn owner_of(&self, p: Vec3) -> usize {
        let ix = self.xb.partition_point(|&b| b <= p.x);
        let yb = &self.yb[ix];
        let iy = yb.partition_point(|&b| b <= p.y);
        let zb = &self.zb[ix * self.ny + iy];
        let iz = zb.partition_point(|&b| b <= p.z);
        self.rank_of_cell(ix, iy, iz)
    }

    /// The domain box of `rank`, clipped to the global bounding box (used
    /// for LET / ghost geometry; ownership itself is unbounded).
    pub fn domain_box(&self, rank: usize) -> BBox {
        let (ix, iy, iz) = self.cell_of_rank(rank);
        let lo_or = |bs: &[f64], i: usize, glo: f64| if i == 0 { glo } else { bs[i - 1] };
        let hi_or = |bs: &[f64], i: usize, n: usize, ghi: f64| {
            if i == n - 1 {
                ghi
            } else {
                bs[i]
            }
        };
        let yb = &self.yb[ix];
        let zb = &self.zb[ix * self.ny + iy];
        BBox::new(
            Vec3::new(
                lo_or(&self.xb, ix, self.global.lo.x),
                lo_or(yb, iy, self.global.lo.y),
                lo_or(zb, iz, self.global.lo.z),
            ),
            Vec3::new(
                hi_or(&self.xb, ix, self.nx, self.global.hi.x),
                hi_or(yb, iy, self.ny, self.global.hi.y),
                hi_or(zb, iz, self.nz, self.global.hi.z),
            ),
        )
    }

    /// Decompose collectively: every rank contributes up to `max_samples`
    /// strided samples of its local positions; all ranks compute identical
    /// boundaries from the gathered sample.
    pub fn decompose(
        comm: &Comm,
        (nx, ny, nz): (usize, usize, usize),
        local_pos: &[Vec3],
        max_samples: usize,
    ) -> DomainDecomposition {
        assert_eq!(
            nx * ny * nz,
            comm.size(),
            "process grid must match communicator size"
        );
        let stride = (local_pos.len() / max_samples.max(1)).max(1);
        let mine: Vec<[f64; 3]> = local_pos
            .iter()
            .step_by(stride)
            .take(max_samples)
            .map(|p| [p.x, p.y, p.z])
            .collect();
        let gathered = comm.allgatherv(mine);
        let mut samples: Vec<Vec3> = gathered
            .into_iter()
            .flatten()
            .map(|a| Vec3::new(a[0], a[1], a[2]))
            .collect();
        // Also gather the true global bounds so clipped boxes cover all
        // particles, not just the sample.
        let local_bb = BBox::of_points(local_pos);
        let bounds = comm.allreduce_vec_f64(
            vec![
                -local_bb.lo.x,
                -local_bb.lo.y,
                -local_bb.lo.z,
                local_bb.hi.x,
                local_bb.hi.y,
                local_bb.hi.z,
            ],
            mpisim::ReduceOp::Max,
        );
        let global = BBox::new(
            Vec3::new(-bounds[0], -bounds[1], -bounds[2]),
            Vec3::new(bounds[3], bounds[4], bounds[5]),
        );
        Self::from_samples((nx, ny, nz), &mut samples, global)
    }

    /// Deterministic multisection of an explicit sample (serial entry point;
    /// `decompose` funnels here).
    pub fn from_samples(
        (nx, ny, nz): (usize, usize, usize),
        samples: &mut [Vec3],
        global: BBox,
    ) -> DomainDecomposition {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid dims must be positive");
        // Split along x into nx equal-count slabs.
        samples.sort_unstable_by(|a, b| a.x.total_cmp(&b.x));
        let (xb, x_chunks) = equal_count_boundaries(samples, nx, |p| p.x);

        let mut yb = Vec::with_capacity(nx);
        let mut zb = Vec::with_capacity(nx * ny);
        for xc in x_chunks {
            let slab = &mut samples[xc.clone()];
            slab.sort_unstable_by(|a, b| a.y.total_cmp(&b.y));
            let (ybounds, y_chunks) = equal_count_boundaries(slab, ny, |p| p.y);
            yb.push(ybounds);
            for yc in y_chunks {
                let column = &mut slab[yc];
                column.sort_unstable_by(|a, b| a.z.total_cmp(&b.z));
                let (zbounds, _) = equal_count_boundaries(column, nz, |p| p.z);
                zb.push(zbounds);
            }
        }
        DomainDecomposition {
            nx,
            ny,
            nz,
            xb,
            yb,
            zb,
            global,
        }
    }
}

/// Boundaries splitting `sorted` into `n` equal-count chunks; returns the
/// `n - 1` interior boundary coordinates and the chunk ranges.
fn equal_count_boundaries<T, F: Fn(&T) -> f64>(
    sorted: &[T],
    n: usize,
    coord: F,
) -> (Vec<f64>, Vec<std::ops::Range<usize>>) {
    let len = sorted.len();
    let mut bounds = Vec::with_capacity(n.saturating_sub(1));
    let mut ranges = Vec::with_capacity(n);
    let mut start = 0usize;
    for k in 1..=n {
        let end = len * k / n;
        ranges.push(start..end);
        if k < n {
            let b = if len == 0 {
                0.0
            } else if end == 0 {
                coord(&sorted[0])
            } else if end >= len {
                coord(&sorted[len - 1])
            } else {
                0.5 * (coord(&sorted[end - 1]) + coord(&sorted[end]))
            };
            bounds.push(b);
        }
        start = end;
    }
    // Boundaries must be non-decreasing even with duplicated coordinates.
    for i in 1..bounds.len() {
        if bounds[i] < bounds[i - 1] {
            bounds[i] = bounds[i - 1];
        }
    }
    (bounds, ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::World;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cloud(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-4.0..4.0),
                    rng.gen_range(-2.0..2.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect()
    }

    #[test]
    fn serial_decomposition_balances_counts() {
        let pts = cloud(8000, 1);
        let global = BBox::of_points(&pts);
        let dd = DomainDecomposition::from_samples((4, 2, 2), &mut pts.clone(), global);
        let mut counts = vec![0usize; dd.len()];
        for &p in &pts {
            counts[dd.owner_of(p)] += 1;
        }
        let ideal = pts.len() / dd.len();
        for (r, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - ideal as f64).abs() < ideal as f64 * 0.25,
                "rank {r}: {c} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn every_point_has_exactly_one_owner_box() {
        let pts = cloud(2000, 2);
        let global = BBox::of_points(&pts);
        let dd = DomainDecomposition::from_samples((3, 2, 2), &mut pts.clone(), global);
        for &p in &pts {
            let owner = dd.owner_of(p);
            assert!(owner < dd.len());
            // The clipped box of the owner contains the point (allowing the
            // hi face which half-open boxes exclude).
            let b = dd.domain_box(owner).inflated(1e-9);
            assert!(b.contains(p), "point {p:?} not in its own domain box");
        }
    }

    #[test]
    fn domain_boxes_tile_without_overlap() {
        let pts = cloud(4000, 3);
        let global = BBox::of_points(&pts);
        let dd = DomainDecomposition::from_samples((2, 2, 2), &mut pts.clone(), global);
        for a in 0..dd.len() {
            for b in (a + 1)..dd.len() {
                let ba = dd.domain_box(a);
                let bb = dd.domain_box(b);
                assert!(
                    !ba.overlaps(&bb),
                    "domains {a} and {b} overlap: {ba:?} vs {bb:?}"
                );
            }
        }
    }

    #[test]
    fn centrally_concentrated_distribution_narrows_central_domains() {
        // Exponential-disk-like concentration: central domains must be
        // geometrically smaller than edge domains (paper Fig. 4).
        let mut rng = StdRng::seed_from_u64(4);
        let mut pts: Vec<Vec3> = (0..20000)
            .map(|_| {
                let r = -(1.0 - rng.gen::<f64>()).ln() * 1.0; // exp radial
                let th = rng.gen_range(0.0..std::f64::consts::TAU);
                Vec3::new(r * th.cos(), r * th.sin(), rng.gen_range(-0.05..0.05))
            })
            .collect();
        let global = BBox::of_points(&pts);
        let dd = DomainDecomposition::from_samples((8, 1, 1), &mut pts, global);
        let central = dd.domain_box(4).extent().x;
        let edge = dd.domain_box(7).extent().x;
        assert!(
            central < edge,
            "central slab ({central}) should be narrower than edge ({edge})"
        );
    }

    #[test]
    fn collective_decomposition_agrees_across_ranks() {
        let all = World::new(8).run(|c| {
            // Each rank holds a different slice of the same global cloud.
            let full = cloud(4000, 5);
            let chunk: Vec<Vec3> = full
                .iter()
                .skip(c.rank())
                .step_by(c.size())
                .copied()
                .collect();
            let dd = DomainDecomposition::decompose(c, (2, 2, 2), &chunk, 200);
            // Return the owner of a fixed probe set.
            let probes: Vec<usize> = full[..64].iter().map(|&p| dd.owner_of(p)).collect();
            probes
        });
        for r in 1..all.len() {
            assert_eq!(all[0], all[r], "rank {r} computed different ownership");
        }
    }

    #[test]
    fn degenerate_sample_counts_do_not_panic() {
        // Fewer samples than domains.
        let mut pts = cloud(3, 6);
        let global = BBox::of_points(&pts);
        let dd = DomainDecomposition::from_samples((4, 2, 1), &mut pts, global);
        assert_eq!(dd.len(), 8);
        let _ = dd.owner_of(Vec3::ZERO);
        // Zero samples.
        let mut empty: Vec<Vec3> = vec![];
        let dd =
            DomainDecomposition::from_samples((2, 2, 2), &mut empty, BBox::cube(Vec3::ZERO, 1.0));
        assert!(dd.owner_of(Vec3::ZERO) < 8);
    }

    #[test]
    fn rank_cell_roundtrip() {
        let mut pts = cloud(100, 7);
        let global = BBox::of_points(&pts);
        let dd = DomainDecomposition::from_samples((3, 4, 5), &mut pts, global);
        for r in 0..dd.len() {
            let (x, y, z) = dd.cell_of_rank(r);
            assert_eq!(dd.rank_of_cell(x, y, z), r);
        }
    }
}
