//! Particle → voxel mapping with SPH kernel weights and Shepard
//! normalization (paper §3.3: "mapping gas particles into voxels using the
//! SPH kernel convolution and the Shepard algorithm").
//!
//! [`particles_to_grid`] produces the same bits as a per-voxel scalar loop
//! over each particle's bounding cube (kept as a `#[cfg(test)]` reference)
//! because of a two-line **order contract**: a particle's `wsum` adds its
//! positive weights in `k, j, i` order, and a voxel's sums add particles
//! in input order. Everything else is free, and is spent on doing the same
//! arithmetic for fewer voxels: radii come from per-axis tables of squared
//! centre offsets (centres formed as [`VoxelGrid::voxel_center`] forms
//! them, summed in `Vec3::norm`'s association), and voxels are **culled
//! conservatively, then tested exactly** — `(k, j)` rows and row ends
//! whose squared distance exceeds a slightly inflated `support^2` are
//! never evaluated, and what remains still has to pass the reference's
//! own `w > 0` test on the reference's own `w`.

use fdps::Vec3;
use sph::kernel::{CubicSpline, SphKernel};

/// A gas particle entering or leaving the surrogate pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GasParticle {
    pub pos: Vec3,
    pub vel: Vec3,
    pub mass: f64,
    /// Temperature \[K\].
    pub temp: f64,
    /// Smoothing length \[pc\].
    pub h: f64,
    /// Particle identifier (the main nodes replace particles by ID,
    /// paper §3.2 step 4).
    pub id: u64,
}

/// The cubic voxel grid of one SN region.
#[derive(Debug, Clone, Copy)]
pub struct VoxelGrid {
    /// Voxels per edge (64 in the paper).
    pub n: usize,
    /// Physical edge length \[pc\] (60 in the paper).
    pub side: f64,
    /// Low corner of the cube.
    pub origin: Vec3,
}

impl VoxelGrid {
    /// Grid centred on `center`.
    pub fn centered(center: Vec3, side: f64, n: usize) -> Self {
        VoxelGrid {
            n,
            side,
            origin: center - Vec3::splat(side * 0.5),
        }
    }

    #[inline]
    pub fn voxel_size(&self) -> f64 {
        self.side / self.n as f64
    }

    #[inline]
    pub fn voxel_volume(&self) -> f64 {
        let d = self.voxel_size();
        d * d * d
    }

    /// Centre of voxel `(i, j, k)`.
    #[inline]
    pub fn voxel_center(&self, i: usize, j: usize, k: usize) -> Vec3 {
        let d = self.voxel_size();
        self.origin
            + Vec3::new(
                (i as f64 + 0.5) * d,
                (j as f64 + 0.5) * d,
                (k as f64 + 0.5) * d,
            )
    }

    #[inline]
    pub fn flat(&self, i: usize, j: usize, k: usize) -> usize {
        (k * self.n + j) * self.n + i
    }

    /// Voxel containing `p`, or None if outside.
    pub fn voxel_of(&self, p: Vec3) -> Option<(usize, usize, usize)> {
        let d = self.voxel_size();
        let rel = p - self.origin;
        let (i, j, k) = (
            (rel.x / d).floor() as i64,
            (rel.y / d).floor() as i64,
            (rel.z / d).floor() as i64,
        );
        let nn = self.n as i64;
        if i < 0 || j < 0 || k < 0 || i >= nn || j >= nn || k >= nn {
            None
        } else {
            Some((i as usize, j as usize, k as usize))
        }
    }
}

/// The five physical fields on the grid (paper §3.3: "density, temperature,
/// and velocity in three directions"), flat arrays of length `n^3`.
#[derive(Debug, Clone)]
pub struct VoxelFields {
    pub grid: VoxelGrid,
    pub density: Vec<f64>,
    pub temperature: Vec<f64>,
    pub vel: [Vec<f64>; 3],
}

impl VoxelFields {
    pub fn zeros(grid: VoxelGrid) -> Self {
        let len = grid.n * grid.n * grid.n;
        VoxelFields {
            grid,
            density: vec![0.0; len],
            temperature: vec![0.0; len],
            vel: [vec![0.0; len], vec![0.0; len], vec![0.0; len]],
        }
    }

    /// Total mass on the grid.
    pub fn total_mass(&self) -> f64 {
        self.density.iter().sum::<f64>() * self.grid.voxel_volume()
    }

    /// Trilinear interpolation of a field at `p` (clamped to the grid).
    pub fn sample(&self, field: &[f64], p: Vec3) -> f64 {
        let n = self.grid.n;
        let d = self.grid.voxel_size();
        let rel = (p - self.grid.origin) / d - Vec3::splat(0.5);
        let cl = |v: f64| v.clamp(0.0, (n - 1) as f64);
        let (fx, fy, fz) = (cl(rel.x), cl(rel.y), cl(rel.z));
        let (i0, j0, k0) = (fx as usize, fy as usize, fz as usize);
        let (i1, j1, k1) = (
            (i0 + 1).min(n - 1),
            (j0 + 1).min(n - 1),
            (k0 + 1).min(n - 1),
        );
        let (tx, ty, tz) = (fx - i0 as f64, fy - j0 as f64, fz - k0 as f64);
        let f = |i: usize, j: usize, k: usize| field[self.grid.flat(i, j, k)];
        let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
        let c00 = lerp(f(i0, j0, k0), f(i1, j0, k0), tx);
        let c10 = lerp(f(i0, j1, k0), f(i1, j1, k0), tx);
        let c01 = lerp(f(i0, j0, k1), f(i1, j0, k1), tx);
        let c11 = lerp(f(i0, j1, k1), f(i1, j1, k1), tx);
        lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz)
    }
}

/// Relative inflation of `support^2` used to skip voxels before the
/// kernel is evaluated. Rounding in `r^2`, the square root, `1/h` and
/// `r/h` moves the support edge by a few 1e-16; anything this test keeps
/// still has to pass the exact `w > 0` test.
const CULL_INFLATION: f64 = 1.0 + 1e-9;

/// Map particles to the grid: each particle deposits its mass and
/// mass-weighted fields over the voxels inside its kernel support, with
/// SPH kernel weights; the intensive fields (temperature, velocity) are then
/// Shepard-normalized by the accumulated weight.
///
/// See the module docs for the order contract and the culling rule.
pub fn particles_to_grid(grid: VoxelGrid, particles: &[GasParticle]) -> VoxelFields {
    let kernel = CubicSpline;
    let n = grid.n;
    let nn = n as i64;
    let d = grid.voxel_size();
    // Voxel centres per axis: component `a` of entry `i` is the centre of
    // index `i` along axis `a`.
    let centres: Vec<Vec3> = (0..n).map(|i| grid.voxel_center(i, i, i)).collect();
    // Per voxel `[m, m T, m v_x, m v_y, m v_z, Shepard weight]`, interleaved
    // so one deposit touches one cache line; split into fields at the end.
    let mut sums = vec![[0.0f64; 6]; n * n * n];
    // Scratch reused across particles: squared centre offsets per axis over
    // the particle's clipped voxel range, and its candidate voxels in
    // `k, j, i` order — flat index, radius, kernel weight.
    let mut off2: [Vec<f64>; 3] = Default::default();
    let mut lo = [0usize; 3];
    let mut voxels: Vec<usize> = Vec::new();
    let mut radii: Vec<f64> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();

    for p in particles {
        // Support in voxels; at least the host voxel (NGP fallback) so no
        // particle's mass is lost even when h << voxel size.
        let support = kernel.support() * p.h;
        let r_vox = (support / d).ceil() as i64;
        let rel = (p.pos - grid.origin) / d;
        for a in 0..3 {
            // Saturating: `r_vox` is i64::MAX for h = inf, and the host
            // index saturates for |pos| ~ 1e300.
            let c = rel[a].floor() as i64;
            let first = c.saturating_sub(r_vox).clamp(0, nn);
            let end = (c.saturating_add(r_vox).min(nn - 1) + 1).max(first);
            lo[a] = first as usize;
            off2[a].clear();
            off2[a].extend(centres[first as usize..end as usize].iter().map(|c| {
                let dx = c[a] - p.pos[a];
                dx * dx
            }));
        }
        // Outside `cull2` the kernel is exactly zero — for a positive `h`
        // whose `support^2` neither under- nor overflows; any other `h`
        // (zero, negative, NaN, 1e300) is left to the exact test alone.
        let support2 = support * support;
        let cull2 = if p.h > 0.0 && support2.is_normal() {
            support2 * CULL_INFLATION
        } else {
            f64::INFINITY
        };
        voxels.clear();
        radii.clear();
        for (k, &dz2) in (lo[2]..).zip(&off2[2]) {
            for (j, &dy2) in (lo[1]..).zip(&off2[1]) {
                let rest = cull2 - (dy2 + dz2);
                if rest < 0.0 {
                    continue;
                }
                // `dx^2` falls then rises along the row: trim both ends.
                let dx2 = off2[0].as_slice();
                let (mut first, mut end) = (0, dx2.len());
                while first < end && dx2[first] > rest {
                    first += 1;
                }
                while first < end && dx2[end - 1] > rest {
                    end -= 1;
                }
                let base = grid.flat(lo[0] + first, j, k);
                voxels.extend(base..base + (end - first));
                // `Vec3::norm`'s association: (x^2 + y^2) + z^2.
                radii.extend(
                    dx2[first..end]
                        .iter()
                        .map(|&dx2| ((dx2 + dy2) + dz2).sqrt()),
                );
            }
        }
        weights.resize(radii.len(), 0.0);
        kernel.w_batch(&radii, p.h, &mut weights);
        let mut wsum = 0.0;
        for &w in &weights {
            if w > 0.0 {
                wsum += w;
            }
        }
        // Normalized per-particle weights conserve the particle's mass.
        let mut deposit = |f: usize, frac: f64| {
            let m = p.mass * frac;
            let s = &mut sums[f];
            s[0] += m;
            s[1] += m * p.temp;
            s[2] += m * p.vel.x;
            s[3] += m * p.vel.y;
            s[4] += m * p.vel.z;
            s[5] += m;
        };
        if wsum == 0.0 || wsum.is_infinite() {
            // Kernel narrower than a voxel (or so narrow that W overflows
            // at r = 0): nearest-grid-point deposit, if inside the cube.
            if let Some((i, j, k)) = grid.voxel_of(p.pos) {
                deposit(grid.flat(i, j, k), 1.0);
            }
        } else {
            for (&f, &w) in voxels.iter().zip(&weights) {
                if w > 0.0 {
                    deposit(f, w / wsum);
                }
            }
        }
    }

    // Shepard normalization for intensive fields; mass -> density.
    let vol = grid.voxel_volume();
    let mut out = VoxelFields::zeros(grid);
    for (f, s) in sums.iter().enumerate() {
        let weight = s[5];
        let shepard = |x: f64| if weight > 0.0 { x / weight } else { x };
        out.density[f] = s[0] / vol;
        out.temperature[f] = shepard(s[1]);
        for a in 0..3 {
            out.vel[a][f] = shepard(s[2 + a]);
        }
    }
    out
}

/// The scatter as it stood before PR 21, kept verbatim: the reference the
/// production path must equal to the bit.
#[cfg(test)]
pub(crate) fn particles_to_grid_reference(
    grid: VoxelGrid,
    particles: &[GasParticle],
) -> VoxelFields {
    let kernel = CubicSpline;
    let mut out = VoxelFields::zeros(grid);
    let len = grid.n * grid.n * grid.n;
    let mut weight = vec![0.0f64; len];
    let d = grid.voxel_size();

    for p in particles {
        // Support in voxels; at least the host voxel (NGP fallback) so no
        // particle's mass is lost even when h << voxel size.
        let support = kernel.support() * p.h;
        let r_vox = (support / d).ceil() as i64;
        let rel = (p.pos - grid.origin) / d;
        let (ci, cj, ck) = (
            rel.x.floor() as i64,
            rel.y.floor() as i64,
            rel.z.floor() as i64,
        );
        let nn = grid.n as i64;
        let mut wsum = 0.0;
        let mut touched: Vec<(usize, f64)> = Vec::new();
        for k in (ck - r_vox).max(0)..=(ck + r_vox).min(nn - 1) {
            for j in (cj - r_vox).max(0)..=(cj + r_vox).min(nn - 1) {
                for i in (ci - r_vox).max(0)..=(ci + r_vox).min(nn - 1) {
                    let c = grid.voxel_center(i as usize, j as usize, k as usize);
                    let r = (c - p.pos).norm();
                    let w = kernel.w(r, p.h);
                    if w > 0.0 {
                        touched.push((grid.flat(i as usize, j as usize, k as usize), w));
                        wsum += w;
                    }
                }
            }
        }
        if wsum == 0.0 {
            // Kernel narrower than a voxel: nearest-grid-point deposit.
            if let Some((i, j, k)) = grid.voxel_of(p.pos) {
                touched.push((grid.flat(i, j, k), 1.0));
                wsum = 1.0;
            } else {
                continue; // outside the cube entirely
            }
        }
        // Normalized per-particle weights conserve the particle's mass.
        for &(f, w) in &touched {
            let frac = w / wsum;
            let m = p.mass * frac;
            out.density[f] += m;
            out.temperature[f] += m * p.temp;
            out.vel[0][f] += m * p.vel.x;
            out.vel[1][f] += m * p.vel.y;
            out.vel[2][f] += m * p.vel.z;
            weight[f] += m;
        }
    }

    // Shepard normalization for intensive fields; mass -> density.
    let vol = grid.voxel_volume();
    #[allow(clippy::needless_range_loop)]
    for f in 0..len {
        if weight[f] > 0.0 {
            out.temperature[f] /= weight[f];
            for a in 0..3 {
                out.vel[a][f] /= weight[f];
            }
        }
        out.density[f] /= vol;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_grid() -> VoxelGrid {
        VoxelGrid::centered(Vec3::ZERO, 60.0, 16)
    }

    fn uniform_particles(n_side: usize, grid: &VoxelGrid, temp: f64) -> Vec<GasParticle> {
        let spacing = grid.side / n_side as f64;
        let mut out = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                for k in 0..n_side {
                    out.push(GasParticle {
                        pos: grid.origin
                            + Vec3::new(
                                (i as f64 + 0.5) * spacing,
                                (j as f64 + 0.5) * spacing,
                                (k as f64 + 0.5) * spacing,
                            ),
                        vel: Vec3::new(3.0, -1.0, 0.5),
                        mass: 1.0,
                        temp,
                        h: spacing,
                        id: (i * n_side * n_side + j * n_side + k) as u64,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn grid_geometry() {
        let g = test_grid();
        assert_eq!(g.voxel_size(), 3.75);
        assert_eq!(g.voxel_of(Vec3::ZERO), Some((8, 8, 8)));
        assert_eq!(g.voxel_of(Vec3::splat(-29.9)), Some((0, 0, 0)));
        assert_eq!(g.voxel_of(Vec3::splat(31.0)), None);
        let c = g.voxel_center(8, 8, 8);
        assert!((c - Vec3::splat(1.875)).norm() < 1e-12);
    }

    #[test]
    fn mass_is_conserved_exactly() {
        let g = test_grid();
        let parts = uniform_particles(20, &g, 100.0);
        let fields = particles_to_grid(g, &parts);
        let total: f64 = parts.iter().map(|p| p.mass).sum();
        assert!(
            (fields.total_mass() / total - 1.0).abs() < 1e-9,
            "grid mass {} vs particles {total}",
            fields.total_mass()
        );
    }

    #[test]
    fn uniform_particles_give_uniform_density() {
        let g = test_grid();
        let parts = uniform_particles(32, &g, 100.0);
        let fields = particles_to_grid(g, &parts);
        let expected = parts.len() as f64 / (g.side * g.side * g.side);
        // Interior voxels (edges suffer kernel truncation).
        for k in 4..12 {
            for j in 4..12 {
                for i in 4..12 {
                    let rho = fields.density[g.flat(i, j, k)];
                    assert!(
                        (rho / expected - 1.0).abs() < 0.25,
                        "voxel ({i},{j},{k}): {rho} vs {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn intensive_fields_are_shepard_normalized() {
        // All particles share T and v: every touched voxel must read back
        // exactly those values regardless of local particle density.
        let g = test_grid();
        let mut parts = uniform_particles(16, &g, 1234.0);
        // Uneven masses: Shepard must still return the common T/v.
        let mut rng = StdRng::seed_from_u64(1);
        for p in parts.iter_mut() {
            p.mass = rng.gen_range(0.5..2.0);
        }
        let fields = particles_to_grid(g, &parts);
        for f in 0..fields.density.len() {
            if fields.density[f] > 0.0 {
                assert!((fields.temperature[f] - 1234.0).abs() < 1e-9);
                assert!((fields.vel[0][f] - 3.0).abs() < 1e-9);
                assert!((fields.vel[1][f] + 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tiny_h_particles_fall_back_to_ngp() {
        let g = test_grid();
        let p = GasParticle {
            pos: Vec3::new(1.0, 2.0, 3.0),
            vel: Vec3::ZERO,
            mass: 5.0,
            temp: 50.0,
            h: 1e-6, // far below voxel size
            id: 0,
        };
        let fields = particles_to_grid(g, &[p]);
        assert!((fields.total_mass() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn particles_outside_the_cube_are_dropped() {
        let g = test_grid();
        let p = GasParticle {
            pos: Vec3::splat(100.0),
            vel: Vec3::ZERO,
            mass: 5.0,
            temp: 50.0,
            h: 1e-6,
            id: 0,
        };
        let fields = particles_to_grid(g, &[p]);
        assert_eq!(fields.total_mass(), 0.0);
    }

    /// Bitwise comparison of all five fields, naming the first difference.
    fn assert_bit_equal(got: &VoxelFields, want: &VoxelFields, case: &str) {
        let pairs = [
            ("density", &got.density, &want.density),
            ("temperature", &got.temperature, &want.temperature),
            ("vel_x", &got.vel[0], &want.vel[0]),
            ("vel_y", &got.vel[1], &want.vel[1]),
            ("vel_z", &got.vel[2], &want.vel[2]),
        ];
        for (name, g, w) in pairs {
            assert_eq!(g.len(), w.len(), "{case}: {name} length");
            for (f, (a, b)) in g.iter().zip(w.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{case}: {name}[{f}] {a:e} vs {b:e}"
                );
            }
        }
    }

    /// A seeded region: positions spill over the cube's faces, masses are
    /// uneven, `h` is `h_over_voxel` voxels give or take 30 %.
    fn seeded_region(
        rng: &mut StdRng,
        grid: &VoxelGrid,
        count: usize,
        h_over_voxel: f64,
    ) -> Vec<GasParticle> {
        let reach = 0.55 * grid.side;
        let center = grid.origin + Vec3::splat(0.5 * grid.side);
        (0..count)
            .map(|i| GasParticle {
                pos: center
                    + Vec3::new(
                        rng.gen_range(-reach..reach),
                        rng.gen_range(-reach..reach),
                        rng.gen_range(-reach..reach),
                    ),
                vel: Vec3::new(
                    rng.gen_range(-50.0..50.0),
                    rng.gen_range(-50.0..50.0),
                    rng.gen_range(-50.0..50.0),
                ),
                mass: rng.gen_range(0.1..5.0),
                temp: rng.gen_range(10.0..1.0e7),
                h: h_over_voxel * grid.voxel_size() * rng.gen_range(0.7..1.3),
                id: i as u64,
            })
            .collect()
    }

    #[test]
    fn scatter_is_bit_identical_to_the_reference_loop() {
        let centers = [Vec3::ZERO, Vec3::new(1000.0, -500.0, 30.0)];
        let mut seed = 0;
        for n in [8usize, 16, 32] {
            for h_over_voxel in [1e-3, 0.5, 1.0, 2.7, 20.0] {
                for center in centers {
                    seed += 1;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let grid = VoxelGrid::centered(center, 60.0, n);
                    // Keep the cube-filling supports affordable in debug.
                    let count = if h_over_voxel > 10.0 { 12 } else { 150 };
                    let parts = seeded_region(&mut rng, &grid, count, h_over_voxel);
                    assert_bit_equal(
                        &particles_to_grid(grid, &parts),
                        &particles_to_grid_reference(grid, &parts),
                        &format!("n {n}, h/voxel {h_over_voxel}, centre {center:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_matches_reference_on_faces_corners_and_degenerate_input() {
        let grid = VoxelGrid::centered(Vec3::new(1000.0, -500.0, 30.0), 60.0, 16);
        let d = grid.voxel_size();
        let hi = grid.origin + Vec3::splat(grid.side);
        let at = |pos: Vec3, h: f64| GasParticle {
            pos,
            vel: Vec3::new(1.0, -2.0, 3.0),
            mass: 1.5,
            temp: 300.0,
            h,
            id: 0,
        };
        let mut parts = Vec::new();
        for h in [0.3 * d, 1.0 * d, 2.7 * d] {
            // Corners, face centres, voxel centres (r = 0) and voxel
            // faces, just inside and just outside the cube.
            parts.push(at(grid.origin, h));
            parts.push(at(hi, h));
            parts.push(at(Vec3::new(grid.origin.x, hi.y, grid.origin.z), h));
            parts.push(at(Vec3::new(grid.origin.x, -500.0, 30.0), h));
            parts.push(at(Vec3::new(1000.0, hi.y, 30.0), h));
            parts.push(at(grid.voxel_center(3, 4, 5), h));
            parts.push(at(grid.voxel_center(3, 4, 5) + Vec3::splat(0.5 * d), h));
            parts.push(at(grid.origin - Vec3::splat(0.4 * h), h));
            parts.push(at(hi + Vec3::new(1.9 * h, 0.0, -d), h));
            parts.push(at(hi + Vec3::splat(3.0 * h), h));
        }
        // `h` the reference survives without overflowing: zero, negative,
        // subnormal, NaN; and a NaN coordinate.
        for h in [0.0, -0.3 * d, -5.0, 5e-324, 1e-160, f64::NAN] {
            parts.push(at(Vec3::new(1003.0, -498.0, 29.0), h));
        }
        parts.push(at(Vec3::new(f64::NAN, -498.0, 29.0), 2.0 * d));
        assert_bit_equal(
            &particles_to_grid(grid, &parts),
            &particles_to_grid_reference(grid, &parts),
            "faces, corners, degenerate h",
        );
        // One at a time too, so no case hides behind another's deposit.
        for (i, p) in parts.iter().enumerate() {
            assert_bit_equal(
                &particles_to_grid(grid, &[*p]),
                &particles_to_grid_reference(grid, &[*p]),
                &format!("particle {i}: {p:?}"),
            );
        }
        let none = particles_to_grid(grid, &[]);
        assert_bit_equal(&none, &particles_to_grid_reference(grid, &[]), "empty");
        assert_eq!(none.total_mass(), 0.0);
    }

    #[test]
    fn hostile_h_and_positions_cannot_panic_the_scatter() {
        // `r_vox` saturates to i64::MAX for h = inf / 1e300 and the host
        // index saturates for |pos| = 1e300: the voxel range used to
        // overflow (a panic in debug, a wrap in release).
        let grid = test_grid();
        let inside = Vec3::new(1.0, 2.0, 3.0);
        let mass = 5.0;
        let particle = |pos: Vec3, h: f64| GasParticle {
            pos,
            vel: Vec3::new(1.0, -2.0, 3.0),
            mass,
            temp: 50.0,
            h,
            id: 0,
        };
        let mut cases = Vec::new();
        for h in [0.0, 5e-324, 1e-160, 1e300, f64::INFINITY, f64::NAN, -1.0] {
            cases.push(particle(inside, h));
            // r = 0 exactly: W(0, h) overflows for a tiny h.
            cases.push(particle(grid.voxel_center(8, 8, 8), h));
        }
        for h in [1e-6, 3.0, 1e300, f64::INFINITY] {
            for bad in [f64::NAN, 1e300, -1e300] {
                cases.push(particle(Vec3::new(bad, 2.0, 3.0), h));
                cases.push(particle(Vec3::splat(bad), h));
            }
        }
        for p in cases {
            let fields = particles_to_grid(grid, &[p]);
            let all = [
                &fields.density,
                &fields.temperature,
                &fields.vel[0],
                &fields.vel[1],
                &fields.vel[2],
            ];
            assert!(
                all.iter().all(|f| f.iter().all(|v| v.is_finite())),
                "non-finite output for {p:?}"
            );
            let deposited = fields.total_mass();
            assert!(
                deposited == 0.0 || (deposited / mass - 1.0).abs() < 1e-12,
                "{p:?}: deposited {deposited} of {mass}"
            );
        }
    }

    #[test]
    fn trilinear_sampling_is_exact_for_linear_fields() {
        let g = test_grid();
        let mut fields = VoxelFields::zeros(g);
        // f(x,y,z) = x (linear) sampled at voxel centres.
        for k in 0..16 {
            for j in 0..16 {
                for i in 0..16 {
                    fields.density[g.flat(i, j, k)] = g.voxel_center(i, j, k).x;
                }
            }
        }
        for &x in &[-20.0, -5.5, 0.0, 13.25] {
            let got = fields.sample(&fields.density, Vec3::new(x, 1.0, -2.0));
            assert!((got - x).abs() < 1e-9, "x={x}: {got}");
        }
    }
}
