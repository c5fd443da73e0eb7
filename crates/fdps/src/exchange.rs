//! Particle and ghost exchange (paper §5.2.1).
//!
//! After a domain decomposition, particles migrate to their owning rank via
//! alltoallv — either the flat variant or the 3-D torus variant matching the
//! process grid. For SPH, ranks additionally exchange *ghost* copies of
//! particles near domain surfaces so short-range interactions can be
//! evaluated locally; the traffic grows with the domain surface area, which
//! is why the paper's thin central domains make this phase expensive.

use crate::domain::DomainDecomposition;
use crate::vec3::Vec3;
use mpisim::{Comm, TorusDims};

/// How alltoallv traffic is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// Direct pairwise exchange (`p - 1` messages per rank).
    #[default]
    Flat,
    /// Three axis-staged exchanges over the process grid (`O(p^{1/3})`).
    Torus,
}

/// Migrate `particles` so each ends up on the rank owning its position.
/// Returns this rank's new particle set (retained + received).
pub fn exchange_particles<P, F>(
    comm: &Comm,
    dd: &DomainDecomposition,
    particles: Vec<P>,
    pos_of: F,
    routing: Routing,
) -> Vec<P>
where
    P: Send + 'static,
    F: Fn(&P) -> Vec3,
{
    let p = comm.size();
    debug_assert_eq!(dd.len(), p);
    let mut sends: Vec<Vec<P>> = (0..p).map(|_| Vec::new()).collect();
    for part in particles {
        let owner = dd.owner_of(pos_of(&part));
        sends[owner].push(part);
    }
    let recvs = route(comm, dd, sends, routing);
    recvs.into_iter().flatten().collect()
}

/// Exchange ghost copies for short-range interactions. A particle is sent to
/// every remote domain within `reach_of(particle)` of its position, where the
/// reach must cover both gather and scatter requirements (callers typically
/// pass `2 h` plus the global maximum smoothing length margin). Returns the
/// ghosts received from other ranks.
pub fn exchange_ghosts<P, F, G>(
    comm: &Comm,
    dd: &DomainDecomposition,
    particles: &[P],
    pos_of: F,
    reach_of: G,
    routing: Routing,
) -> Vec<P>
where
    P: Clone + Send + 'static,
    F: Fn(&P) -> Vec3,
    G: Fn(&P) -> f64,
{
    let p = comm.size();
    let me = comm.rank();
    // Gather every rank's maximum reach so receivers' gather needs are met:
    // rank r needs ghosts within its own particles' reach of its box.
    let my_max_reach = particles.iter().map(&reach_of).fold(0.0f64, f64::max);
    let all_reach = comm.allgather(my_max_reach);

    let boxes: Vec<_> = (0..p).map(|r| dd.domain_box(r)).collect();
    let mut sends: Vec<Vec<P>> = (0..p).map(|_| Vec::new()).collect();
    for part in particles {
        let x = pos_of(part);
        let own_reach = reach_of(part);
        for r in 0..p {
            if r == me {
                continue;
            }
            // Scatter: this particle influences rank r's particles within
            // its own reach. Gather: rank r's particles reach up to
            // all_reach[r] beyond their box.
            let reach = own_reach.max(all_reach[r]);
            if boxes[r].dist2_to_point(x) <= reach * reach {
                sends[r].push(part.clone());
            }
        }
    }
    let recvs = route(comm, dd, sends, routing);
    recvs.into_iter().flatten().collect()
}

pub(crate) fn route<P: Send + 'static>(
    comm: &Comm,
    dd: &DomainDecomposition,
    sends: Vec<Vec<P>>,
    routing: Routing,
) -> Vec<Vec<P>> {
    match routing {
        Routing::Flat => comm.alltoallv(sends),
        Routing::Torus => {
            let dims = TorusDims::new(dd.nx, dd.ny, dd.nz);
            comm.alltoallv_torus(dims, sends)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BBox;
    use mpisim::World;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[derive(Clone, Debug, PartialEq)]
    struct Pt {
        pos: Vec3,
        id: u64,
        h: f64,
    }

    fn cloud(n: usize, seed: u64) -> Vec<Pt> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| Pt {
                pos: Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ),
                id: i as u64,
                h: rng.gen_range(0.02..0.1),
            })
            .collect()
    }

    fn shared_dd(pts: &[Pt], dims: (usize, usize, usize)) -> DomainDecomposition {
        let mut sample: Vec<Vec3> = pts.iter().map(|p| p.pos).collect();
        let global = BBox::of_points(&sample);
        DomainDecomposition::from_samples(dims, &mut sample, global)
    }

    #[test]
    fn all_particles_arrive_at_their_owner() {
        for routing in [Routing::Flat, Routing::Torus] {
            let full = cloud(600, 10);
            let dd = shared_dd(&full, (2, 2, 2));
            let results = World::new(8).run(|c| {
                let mine: Vec<Pt> = full
                    .iter()
                    .skip(c.rank())
                    .step_by(c.size())
                    .cloned()
                    .collect();
                let after = exchange_particles(c, &dd, mine, |p| p.pos, routing);
                for p in &after {
                    assert_eq!(dd.owner_of(p.pos), c.rank(), "misrouted particle");
                }
                after.iter().map(|p| p.id).collect::<Vec<_>>()
            });
            // No particle lost or duplicated.
            let mut ids: Vec<u64> = results.into_iter().flatten().collect();
            ids.sort_unstable();
            let expect: Vec<u64> = (0..600).collect();
            assert_eq!(ids, expect, "routing {routing:?}");
        }
    }

    #[test]
    fn ghosts_cover_all_cross_domain_neighbors() {
        let full = cloud(400, 11);
        let dd = shared_dd(&full, (2, 2, 1));
        let reach = |p: &Pt| 2.0 * p.h;
        let results = World::new(4).run(|c| {
            let mine: Vec<Pt> = full
                .iter()
                .filter(|p| dd.owner_of(p.pos) == c.rank())
                .cloned()
                .collect();
            let ghosts = exchange_ghosts(c, &dd, &mine, |p| p.pos, reach, Routing::Flat);
            // Every pair (i local, j remote) with |r_ij| < 2*max(h_i, h_j)
            // must be covered: j must appear among our ghosts.
            let ghost_ids: std::collections::HashSet<u64> = ghosts.iter().map(|g| g.id).collect();
            for i in &mine {
                for j in &full {
                    if dd.owner_of(j.pos) == c.rank() {
                        continue;
                    }
                    let d = (i.pos - j.pos).norm();
                    if d < 2.0 * i.h.max(j.h) {
                        assert!(
                            ghost_ids.contains(&j.id),
                            "missing ghost {} needed by local {} (d={d})",
                            j.id,
                            i.id
                        );
                    }
                }
            }
            ghosts.len()
        });
        // Sanity: some ghosts were actually exchanged.
        assert!(results.iter().sum::<usize>() > 0);
    }

    #[test]
    fn ghost_exchange_never_returns_own_particles() {
        let full = cloud(200, 12);
        let dd = shared_dd(&full, (4, 1, 1));
        World::new(4).run(|c| {
            let mine: Vec<Pt> = full
                .iter()
                .filter(|p| dd.owner_of(p.pos) == c.rank())
                .cloned()
                .collect();
            let my_ids: std::collections::HashSet<u64> = mine.iter().map(|p| p.id).collect();
            let ghosts = exchange_ghosts(c, &dd, &mine, |p| p.pos, |p| 2.0 * p.h, Routing::Flat);
            for g in &ghosts {
                assert!(!my_ids.contains(&g.id));
            }
        });
    }

    #[test]
    fn torus_and_flat_exchange_agree() {
        let full = cloud(300, 13);
        let dd = shared_dd(&full, (2, 2, 2));
        let by_routing: Vec<Vec<Vec<u64>>> = [Routing::Flat, Routing::Torus]
            .into_iter()
            .map(|routing| {
                World::new(8).run(|c| {
                    let mine: Vec<Pt> = full
                        .iter()
                        .skip(c.rank())
                        .step_by(c.size())
                        .cloned()
                        .collect();
                    let mut ids: Vec<u64> = exchange_particles(c, &dd, mine, |p| p.pos, routing)
                        .iter()
                        .map(|p| p.id)
                        .collect();
                    ids.sort_unstable();
                    ids
                })
            })
            .collect();
        assert_eq!(by_routing[0], by_routing[1]);
    }
}
