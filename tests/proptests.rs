//! Property-based tests over the core data structures and invariants,
//! spanning crates. Each property is exercised over many seeded random
//! cases (a lightweight stand-in for the proptest crate, which is not
//! available in this offline build environment); the failing seed is
//! reported on assertion failure so cases reproduce deterministically.

use fdps::domain::DomainDecomposition;
use fdps::walk::InteractionList;
use fdps::{BBox, Tree, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

fn random_cloud(rng: &mut StdRng, n: usize, limit: f64) -> Vec<Vec3> {
    (0..n)
        .map(|_| {
            Vec3::new(
                rng.gen_range(-limit..limit),
                rng.gen_range(-limit..limit),
                rng.gen_range(-limit..limit),
            )
        })
        .collect()
}

/// Every particle lands in exactly one leaf, for any cloud.
#[test]
fn tree_partitions_any_cloud() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..200usize);
        let n_leaf = rng.gen_range(1..16usize);
        let pts = random_cloud(&mut rng, n, 100.0);
        let mass = vec![1.0; pts.len()];
        let tree = Tree::build(&pts, &mass, n_leaf);
        let mut seen = vec![0u8; pts.len()];
        for node in &tree.nodes {
            if node.is_leaf() {
                for &i in tree.leaf_particles(node) {
                    seen[i as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "seed {seed}");
        assert!(
            (tree.root().mass - pts.len() as f64).abs() < 1e-9,
            "seed {seed}"
        );
    }
}

/// The MAC walk never loses mass: EP + SP masses always sum to total.
#[test]
fn interaction_lists_conserve_mass() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..150usize);
        let theta = rng.gen_range(0.0..1.2);
        let pts = random_cloud(&mut rng, n, 50.0);
        let mass = vec![2.0; pts.len()];
        let total = 2.0 * pts.len() as f64;
        let tree = Tree::build(&pts, &mass, 8);
        let target = BBox::of_points(&pts[..1]);
        let mut list = InteractionList::default();
        tree.walk_mac(&target, theta, &mut list);
        let m: f64 = list.ep.iter().map(|&j| mass[j as usize]).sum::<f64>()
            + list.sp.iter().map(|s| s.mass).sum::<f64>();
        assert!((m - total).abs() < 1e-9 * total, "seed {seed}");
    }
}

/// Neighbor search returns a superset of the exact neighbours.
#[test]
fn neighbor_search_is_conservative() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..120usize);
        let r = rng.gen_range(0.1..10.0);
        let pts = random_cloud(&mut rng, n, 20.0);
        let mass = vec![1.0; pts.len()];
        let tree = Tree::build(&pts, &mass, 4);
        let q = pts[0];
        let mut found = Vec::new();
        tree.neighbors_within(q, r, &mut found);
        for (i, p) in pts.iter().enumerate() {
            if (*p - q).norm() <= r {
                assert!(
                    found.contains(&(i as u32)),
                    "seed {seed}: missed neighbour {} at distance {}",
                    i,
                    (*p - q).norm()
                );
            }
        }
    }
}

/// The group form of the neighbour search never misses either: one box
/// query covers every point of the box at every radius up to the query's,
/// gather side and (with stored radii) scatter side.
#[test]
fn box_neighbor_search_is_conservative() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..160usize);
        let r = rng.gen_range(0.1..8.0);
        let pts = random_cloud(&mut rng, n, 20.0);
        let mass = vec![1.0; pts.len()];
        let h: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..12.0)).collect();
        let tree = Tree::build_with_h(&pts, &mass, Some(&h), rng.gen_range(1..12usize));
        let members: Vec<Vec3> = (0..rng.gen_range(1..6usize))
            .map(|_| pts[rng.gen_range(0..n)])
            .collect();
        let query = BBox::of_points(&members);
        let (mut gather, mut scatter) = (Vec::new(), Vec::new());
        tree.gather_spans_of_box(&query, r, &mut gather);
        tree.spans_of_box(&query, r, &mut scatter);
        let expand = |spans: &[(u32, u32)]| -> Vec<u32> {
            spans
                .iter()
                .flat_map(|&(s, e)| &tree.order[s as usize..e as usize])
                .copied()
                .collect()
        };
        let (gather, scatter) = (expand(&gather), expand(&scatter));
        for q in &members {
            for (i, p) in pts.iter().enumerate() {
                let d = (*p - *q).norm();
                assert!(
                    d > r || gather.contains(&(i as u32)),
                    "seed {seed}: gather missed {i} at distance {d}"
                );
                assert!(
                    d > r.max(h[i]) || scatter.contains(&(i as u32)),
                    "seed {seed}: scatter missed {i} at distance {d} (h {})",
                    h[i]
                );
            }
        }
    }
}

/// Domain ownership is total and consistent with the clipped boxes.
#[test]
fn domain_ownership_is_total() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(8..300usize);
        let nx = rng.gen_range(1..4usize);
        let ny = rng.gen_range(1..3usize);
        let nz = rng.gen_range(1..3usize);
        let pts = random_cloud(&mut rng, n, 80.0);
        let global = BBox::of_points(&pts);
        let dd = DomainDecomposition::from_samples((nx, ny, nz), &mut pts.clone(), global);
        for &p in &pts {
            let owner = dd.owner_of(p);
            assert!(owner < dd.len(), "seed {seed}");
            assert!(
                dd.domain_box(owner).inflated(1e-9).contains(p),
                "seed {seed}"
            );
        }
    }
}

/// PPA tables evaluate within their reported error bound on-domain.
#[test]
fn ppa_error_bound_holds() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let sections = rng.gen_range(2..24usize);
        let degree = rng.gen_range(1..5usize);
        let scale: f64 = rng.gen_range(0.5..4.0);
        let f = move |x: f64| (scale * x).sin() + x * x;
        let table = pikg::PpaTable::fit(f, 0.0, 2.0, sections, degree);
        let bound = table.max_error() * 1.5 + 1e-12;
        for i in 0..100 {
            let x = 2.0 * i as f64 / 99.0;
            assert!(
                (table.eval(x) - f(x)).abs() <= bound,
                "seed {seed} at x={x}"
            );
        }
    }
}

/// The IMF sampler never leaves its mass range.
#[test]
fn imf_samples_stay_in_range() {
    for seed in 0..1000u64 {
        let imf = astro::KroupaImf::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let (lo, hi) = imf.mass_range();
        for _ in 0..100 {
            let m = imf.sample(&mut rng);
            assert!((lo..=hi).contains(&m), "seed {seed}: m={m}");
        }
    }
}

/// Collectives agree with their serial definitions for any world size.
#[test]
fn allreduce_matches_serial_sum() {
    use mpisim::{ReduceOp, World};
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rng.gen_range(2..12usize);
        let values: Vec<f64> = (0..p).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let expect: f64 = values.iter().sum();
        let values = std::sync::Arc::new(values);
        let out = World::new(p).run(|c| c.allreduce_f64(values[c.rank()], ReduceOp::Sum));
        for got in out {
            assert!(
                (got - expect).abs() < 1e-6 * expect.abs().max(1.0),
                "seed {seed}"
            );
        }
    }
}

/// Encode/decode of the surrogate's 8-channel layout round-trips any
/// positive fields to f32 accuracy.
#[test]
fn surrogate_encoding_roundtrips() {
    use surrogate::{decode_fields, encode_fields, VoxelFields, VoxelGrid};
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let rho = 10f64.powf(rng.gen_range(-6.0..4.0));
        let temp = 10f64.powf(rng.gen_range(1.0..8.0));
        let vx = rng.gen_range(-1e3..1e3);
        let grid = VoxelGrid::centered(Vec3::ZERO, 60.0, 4);
        let mut f = VoxelFields::zeros(grid);
        for i in 0..64 {
            f.density[i] = rho;
            f.temperature[i] = temp;
            f.vel[0][i] = vx;
        }
        let back = decode_fields(&encode_fields(&f), grid);
        assert!((back.density[0] / rho - 1.0).abs() < 1e-4, "seed {seed}");
        assert!(
            (back.temperature[0] / temp - 1.0).abs() < 1e-4,
            "seed {seed}"
        );
        assert!(
            (back.vel[0][0] - vx).abs() < 1e-3 * vx.abs().max(1.0),
            "seed {seed}"
        );
    }
}

/// Block-timestep quantization never exceeds the wanted step and the
/// activity schedule performs exactly the promised updates.
#[test]
fn block_schedule_bookkeeping_is_exact() {
    use asura_core::ActiveScheduler;
    let mut s = ActiveScheduler::default();
    let mut active = Vec::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..40usize);
        let dts: Vec<f64> = (0..n)
            .map(|_| 10f64.powf(rng.gen_range(-4.0..0.0)))
            .collect();
        s.assign(1.0, &dts, 24);
        let mut updates = vec![0u64; dts.len()];
        for k in 1..=s.substeps_per_base_step() {
            s.active_at_boundary_into(k, &mut active);
            for &i in &active {
                updates[i as usize] += 1;
            }
        }
        let total: u64 = updates.iter().sum();
        assert_eq!(total, s.updates_per_base_step(), "seed {seed}");
        for (i, (&l, &want)) in s.levels.iter().zip(&dts).enumerate() {
            let dt_assigned = 1.0 / (1u64 << l) as f64;
            assert!(
                dt_assigned <= want + 1e-12 || l == 24,
                "seed {seed} particle {i}"
            );
            assert_eq!(updates[i], 1u64 << l, "seed {seed} particle {i}");
        }
    }
}

/// Voxelization conserves mass for arbitrary particle sets inside the cube.
#[test]
fn voxelization_conserves_interior_mass() {
    use surrogate::{particles_to_grid, GasParticle, VoxelGrid};
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..60usize);
        let grid = VoxelGrid::centered(Vec3::ZERO, 60.0, 8);
        let parts: Vec<GasParticle> = (0..n)
            .map(|i| GasParticle {
                pos: Vec3::new(
                    rng.gen_range(-25.0..25.0),
                    rng.gen_range(-25.0..25.0),
                    rng.gen_range(-25.0..25.0),
                ),
                vel: Vec3::ZERO,
                mass: rng.gen_range(0.1..5.0),
                temp: 100.0,
                h: 2.0,
                id: i as u64,
            })
            .collect();
        let fields = particles_to_grid(grid, &parts);
        let m_in: f64 = parts.iter().map(|p| p.mass).sum();
        assert!(
            (fields.total_mass() / m_in - 1.0).abs() < 1e-6,
            "seed {seed}"
        );
    }
}

/// Seeded random snapshots for the cross-codec and hostile-bytes
/// properties, from one generator: 1..=4 slabs, every optional section
/// toggles, and awkward values (non-finite floats, `u64` above 2^53, empty
/// lists) turn up regularly.
mod random_snapshots {
    use super::*;
    use asura_core::snapshot::{
        ModelState, PendingPrediction, ScheduleState, SimSnapshot, SlabRecord,
    };
    use asura_core::{Kind, Particle, Scheme, SimConfig, SimStats, TimestepMode};
    use surrogate::GasParticle;

    fn float(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..12u32) {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => -0.0,
            3 => f64::MIN_POSITIVE,
            _ => rng.gen_range(-1.0e6..1.0e6),
        }
    }

    fn word(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..4u32) {
            0 => rng.gen(), // almost surely above 2^53
            1 => (1 << 53) + rng.gen_range(0..3u64),
            _ => rng.gen_range(0..1000u64),
        }
    }

    fn vec3(rng: &mut StdRng) -> Vec3 {
        Vec3::new(float(rng), float(rng), float(rng))
    }

    fn particles(rng: &mut StdRng) -> Vec<Particle> {
        (0..rng.gen_range(0..12usize))
            .map(|_| Particle {
                id: word(rng),
                kind: [Kind::Dm, Kind::Star, Kind::Gas][rng.gen_range(0..3usize)],
                pos: vec3(rng),
                vel: vec3(rng),
                mass: float(rng),
                u: float(rng),
                h: float(rng),
                rho: float(rng),
                metals: float(rng),
                birth_time: float(rng),
                exploded: rng.gen_bool(0.5),
            })
            .collect()
    }

    fn gas(rng: &mut StdRng) -> Vec<GasParticle> {
        (0..rng.gen_range(0..5usize))
            .map(|_| GasParticle {
                pos: vec3(rng),
                vel: vec3(rng),
                mass: float(rng),
                temp: float(rng),
                h: float(rng),
                id: word(rng),
            })
            .collect()
    }

    fn slab(rng: &mut StdRng) -> SlabRecord {
        let particles = particles(rng);
        SlabRecord {
            last_vsig: (0..rng.gen_range(0..6usize))
                .map(|_| (word(rng), float(rng), float(rng)))
                .collect(),
            pending: (0..rng.gen_range(0..3usize))
                .map(|_| PendingPrediction {
                    due_step: word(rng),
                    predicted: gas(rng),
                })
                .collect(),
            // Decoders refuse a schedule a resume cannot take: the base
            // step is finite and positive, no more levels than particles,
            // none of them 64 deep.
            schedule: rng.gen_bool(0.5).then(|| ScheduleState {
                dt_max: rng.gen_range(f64::MIN_POSITIVE..1.0e6),
                levels: particles.iter().map(|_| rng.gen_range(0..64)).collect(),
            }),
            particles,
            stats: SimStats {
                steps: word(rng),
                dt_min_seen: float(rng),
                gravity_interactions: word(rng),
                sph_tree_refreshes: word(rng),
                ..SimStats::default()
            },
        }
    }

    pub(crate) fn snapshot(rng: &mut StdRng) -> SimSnapshot {
        SimSnapshot {
            config: SimConfig {
                scheme: [Scheme::Surrogate, Scheme::Conventional][rng.gen_range(0..2usize)],
                timestep: match rng.gen_range(0..3u32) {
                    0 => TimestepMode::Global,
                    1 => TimestepMode::Block { max_level: 0 },
                    _ => TimestepMode::Block {
                        max_level: rng.gen(),
                    },
                },
                dt_global: float(rng),
                n_group: rng.gen_range(0..1000usize),
                cooling: rng.gen_bool(0.5),
                mixed_precision: rng.gen_bool(0.5),
                snapshot_every: word(rng),
                seed: word(rng),
                ..SimConfig::default()
            },
            time: float(rng),
            step_count: word(rng),
            model: rng.gen_bool(0.5).then(|| ModelState {
                seed: word(rng),
                weights_json: format!("{{\"weights\":\"é\\n{}\"}}", rng.gen::<u32>()),
            }),
            next_id: word(rng),
            slabs: (0..rng.gen_range(1..5usize)).map(|_| slab(rng)).collect(),
        }
    }
}

/// The encoding and its JSON rendering agree: through either decoder a
/// snapshot comes back equal, and re-encoding what came back is
/// byte-identical.
#[test]
fn snapshot_codecs_agree_on_any_snapshot() {
    use asura_core::snapshot::SimSnapshot;
    for seed in 0..CASES {
        let snap = random_snapshots::snapshot(&mut StdRng::seed_from_u64(seed));
        let (bytes, json) = (snap.to_bytes(), snap.to_json());
        let via_bin =
            SimSnapshot::from_bytes(&bytes).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let via_json = SimSnapshot::from_json(&json).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(via_bin, snap, "seed {seed}: binary");
        assert_eq!(via_json, snap, "seed {seed}: json");
        for back in [via_bin, via_json] {
            assert_eq!(back.to_bytes(), bytes, "seed {seed}");
            assert_eq!(back.to_json(), json, "seed {seed}");
        }
    }
}

/// Hostile bytes: a one-bit flip or a truncation of the encoding or of its
/// JSON rendering, through that one's decoder, is a typed error — or, where
/// the flip is harmless (the case of a hex digit in the JSON checksum), a
/// snapshot that still re-encodes — never a panic.
#[test]
fn damaged_snapshot_bytes_never_panic_the_decoder() {
    use asura_core::snapshot::SimSnapshot;
    type Decode = fn(&[u8]) -> Option<SimSnapshot>;
    let from_bytes: Decode = |b| SimSnapshot::from_bytes(b).ok();
    let from_json: Decode = |b| SimSnapshot::from_json(std::str::from_utf8(b).ok()?).ok();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let snap = random_snapshots::snapshot(&mut rng);
        for (encoded, decode) in [
            (snap.to_bytes(), from_bytes),
            (snap.to_json().into_bytes(), from_json),
        ] {
            let at = rng.gen_range(0..encoded.len());
            let mut flipped = encoded.clone();
            flipped[at] ^= 1 << rng.gen_range(0..8u32);
            assert!(decode(&encoded[..at]).is_none(), "seed {seed}");
            if let Some(other) = decode(&flipped) {
                assert_eq!(other, snap, "seed {seed}: byte {at} flipped");
            }
        }
    }
}
