//! Local essential tree (LET) exchange (paper §5.2.3).
//!
//! Gravity reaches the entire system, so every rank needs *some* information
//! about every other rank's particles. The LET is the minimal such set: for
//! each remote domain, the local tree is walked with the multipole
//! acceptance criterion evaluated against the remote domain's box — nearby
//! subtrees are shipped particle-by-particle (EPJ), distant ones as a single
//! monopole super-particle (SPJ). This is the all-to-all phase that
//! dominates at full-machine scale (paper Table 3: "LET Exchange ... most
//! time-consuming with the full system of Fugaku").
//!
//! The export walk is the recursive reference [`Tree::walk_mac`], not the
//! gravity groups' [`Tree::walk_mac_indexed`]. Both emit the same entries
//! in different orders, and the order can reach the result: the receiving
//! rank appends its imports to its own particles and builds its gravity
//! tree over them, and that build's Morton sort is unstable, so where keys
//! tie (a star formed on top of its parent gas particle) the tree's order,
//! and with it the summation order, follows the order the entries arrived
//! in. Shipping `walk_mac`'s depth-first order keeps multi-rank runs on the
//! bits they have; moving export to the indexed walk changes them at
//! round-off.

use crate::domain::DomainDecomposition;
use crate::exchange::{route, Routing};
use crate::tree::Tree;
use crate::vec3::Vec3;
use mpisim::Comm;

/// A particle-or-monopole entry shipped in a LET.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LetEntry {
    pub pos: [f64; 3],
    pub mass: f64,
}

impl LetEntry {
    pub fn position(&self) -> Vec3 {
        Vec3::new(self.pos[0], self.pos[1], self.pos[2])
    }
}

/// Build and exchange LETs. `tree` indexes `pos`/`mass` on this rank.
/// Returns the imported entries from all other ranks, flattened; appending
/// them to the local particles gives the full j-side for gravity.
pub fn exchange_let(
    comm: &Comm,
    dd: &DomainDecomposition,
    tree: &Tree,
    pos: &[Vec3],
    mass: &[f64],
    theta: f64,
    routing: Routing,
) -> Vec<LetEntry> {
    let p = comm.size();
    let me = comm.rank();
    let mut sends: Vec<Vec<LetEntry>> = (0..p).map(|_| Vec::new()).collect();
    for (r, send) in sends.iter_mut().enumerate() {
        if r == me {
            continue;
        }
        let target = dd.domain_box(r);
        let mut list = crate::walk::InteractionList::default();
        tree.walk_mac(&target, theta, &mut list);
        send.reserve(list.len());
        for &j in &list.ep {
            let j = j as usize;
            send.push(LetEntry {
                pos: [pos[j].x, pos[j].y, pos[j].z],
                mass: mass[j],
            });
        }
        for s in &list.sp {
            send.push(LetEntry {
                pos: [s.pos.x, s.pos.y, s.pos.z],
                mass: s.mass,
            });
        }
    }
    route(comm, dd, sends, routing)
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BBox;
    use crate::walk::tests::eval_gravity_reference;
    use mpisim::World;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cloud(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pos: Vec<Vec3> = (0..n)
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

    fn direct(pos: &[Vec3], mass: &[f64], eps2: f64, at: Vec3, skip: Option<usize>) -> Vec3 {
        let mut a = Vec3::ZERO;
        for j in 0..pos.len() {
            if Some(j) == skip {
                continue;
            }
            let d = at - pos[j];
            let r2 = d.norm2() + eps2;
            let rinv = 1.0 / r2.sqrt();
            a -= d * (mass[j] * rinv * rinv * rinv);
        }
        a
    }

    /// Distributed gravity via LET must match the serial direct sum.
    #[test]
    fn distributed_gravity_matches_direct_sum() {
        let (pos, mass) = cloud(800, 20);
        let eps2 = 1e-4;
        let theta = 0.4;
        let mut sample = pos.clone();
        let dd = DomainDecomposition::from_samples((2, 2, 2), &mut sample, BBox::of_points(&pos));

        let per_rank = World::new(8).run(|c| {
            // Local particles: those owned by this rank.
            let idx: Vec<usize> = (0..pos.len())
                .filter(|&i| dd.owner_of(pos[i]) == c.rank())
                .collect();
            let lpos: Vec<Vec3> = idx.iter().map(|&i| pos[i]).collect();
            let lmass: Vec<f64> = idx.iter().map(|&i| mass[i]).collect();
            let tree = Tree::build(&lpos, &lmass, 8);
            let imports = exchange_let(c, &dd, &tree, &lpos, &lmass, theta, Routing::Flat);

            // Combined j-side: local + imported.
            let mut jpos = lpos.clone();
            let mut jmass = lmass.clone();
            for e in &imports {
                jpos.push(e.position());
                jmass.push(e.mass);
            }
            let jtree = Tree::build(&jpos, &jmass, 8);

            // Evaluate forces on local particles group-wise.
            let mut acc = vec![Vec3::ZERO; jpos.len()];
            let mut pot = vec![0.0; jpos.len()];
            let n_local = lpos.len();
            for (g, list) in jtree.interaction_lists(theta, 32) {
                let node = jtree.nodes[g].clone();
                let targets: Vec<u32> = jtree
                    .leaf_particles(&node)
                    .iter()
                    .copied()
                    .filter(|&i| (i as usize) < n_local)
                    .collect();
                eval_gravity_reference(
                    &targets, &jpos, &jmass, eps2, &list, &mut acc, &mut pot, true,
                );
            }
            idx.iter()
                .enumerate()
                .map(|(k, &gi)| (gi, acc[k]))
                .collect::<Vec<_>>()
        });

        let mut worst: f64 = 0.0;
        let mut mean = 0.0;
        let mut count = 0;
        for (gi, a) in per_rank.into_iter().flatten() {
            let exact = direct(&pos, &mass, eps2, pos[gi], Some(gi));
            let rel = (a - exact).norm() / exact.norm().max(1e-12);
            worst = worst.max(rel);
            mean += rel;
            count += 1;
        }
        mean /= count as f64;
        assert_eq!(count, pos.len(), "every particle got a force");
        assert!(mean < 0.01, "mean rel err {mean}");
        assert!(worst < 0.2, "worst rel err {worst}");
    }

    #[test]
    fn let_mass_is_complete() {
        // Local mass + imported LET mass must equal the global mass on every
        // rank (monopole completeness).
        let (pos, mass) = cloud(500, 21);
        let total: f64 = mass.iter().sum();
        let mut sample = pos.clone();
        let dd = DomainDecomposition::from_samples((2, 2, 1), &mut sample, BBox::of_points(&pos));
        World::new(4).run(|c| {
            let idx: Vec<usize> = (0..pos.len())
                .filter(|&i| dd.owner_of(pos[i]) == c.rank())
                .collect();
            let lpos: Vec<Vec3> = idx.iter().map(|&i| pos[i]).collect();
            let lmass: Vec<f64> = idx.iter().map(|&i| mass[i]).collect();
            let tree = Tree::build(&lpos, &lmass, 8);
            let imports = exchange_let(c, &dd, &tree, &lpos, &lmass, 0.5, Routing::Flat);
            let m: f64 = lmass.iter().sum::<f64>() + imports.iter().map(|e| e.mass).sum::<f64>();
            assert!(
                (m - total).abs() < 1e-9 * total,
                "rank {} sees mass {m} of {total}",
                c.rank()
            );
        });
    }

    #[test]
    fn smaller_theta_imports_more_entries() {
        let (pos, mass) = cloud(600, 22);
        let mut sample = pos.clone();
        let dd = DomainDecomposition::from_samples((2, 2, 1), &mut sample, BBox::of_points(&pos));
        let sizes = World::new(4).run(|c| {
            let idx: Vec<usize> = (0..pos.len())
                .filter(|&i| dd.owner_of(pos[i]) == c.rank())
                .collect();
            let lpos: Vec<Vec3> = idx.iter().map(|&i| pos[i]).collect();
            let lmass: Vec<f64> = idx.iter().map(|&i| mass[i]).collect();
            let tree = Tree::build(&lpos, &lmass, 8);
            let fine = exchange_let(c, &dd, &tree, &lpos, &lmass, 0.2, Routing::Flat).len();
            let coarse = exchange_let(c, &dd, &tree, &lpos, &lmass, 0.9, Routing::Flat).len();
            (fine, coarse)
        });
        for (fine, coarse) in sizes {
            assert!(fine > coarse, "theta=0.2 ({fine}) vs theta=0.9 ({coarse})");
        }
    }

    #[test]
    fn torus_routing_delivers_identical_lets() {
        let (pos, mass) = cloud(400, 23);
        let mut sample = pos.clone();
        let dd = DomainDecomposition::from_samples((2, 2, 2), &mut sample, BBox::of_points(&pos));
        let both = World::new(8).run(|c| {
            let idx: Vec<usize> = (0..pos.len())
                .filter(|&i| dd.owner_of(pos[i]) == c.rank())
                .collect();
            let lpos: Vec<Vec3> = idx.iter().map(|&i| pos[i]).collect();
            let lmass: Vec<f64> = idx.iter().map(|&i| mass[i]).collect();
            let tree = Tree::build(&lpos, &lmass, 8);
            let mut flat = exchange_let(c, &dd, &tree, &lpos, &lmass, 0.5, Routing::Flat);
            let mut torus = exchange_let(c, &dd, &tree, &lpos, &lmass, 0.5, Routing::Torus);
            let key = |e: &LetEntry| (e.pos[0].to_bits(), e.pos[1].to_bits(), e.mass.to_bits());
            flat.sort_by_key(key);
            torus.sort_by_key(key);
            flat == torus
        });
        assert!(both.into_iter().all(|b| b));
    }
}
