//! Field ↔ tensor encoding (paper §3.3).
//!
//! "We take the logarithm of the physical quantities before inputting the
//! U-Net. For the three velocity fields, we divided each of them into two
//! data cubes, one for pixels with positive velocities and another for
//! those with negative velocities, and take the logarithm of their absolute
//! values. We thus input a total of eight data cubes."

use crate::voxel::VoxelFields;
use rayon::prelude::*;
use unet::Tensor;

/// Floor inserted before logarithms so empty voxels stay finite.
pub const LOG_FLOOR: f64 = 1e-10;

/// Physical ceiling on decoded velocities \[pc/Myr\] (~3x10^4 km/s, beyond
/// any SN ejecta): keeps an undertrained network from injecting absurd
/// kinetic energy into the simulation.
pub const V_CEIL: f64 = 3.0e4;

/// Physical ceiling on decoded temperatures \[K\].
pub const T_CEIL: f64 = 1.0e10;

/// Encode the five physical fields into the eight-channel tensor:
/// `[log rho, log T, log v_x^+, log v_x^-, log v_y^+, log v_y^-,
///   log v_z^+, log v_z^-]`.
///
/// Every element is a pure function of one voxel, so the `z`-planes of
/// the eight channels are filled on the worker pool in any order.
pub fn encode_fields(fields: &VoxelFields) -> Tensor {
    let n = fields.grid.n;
    let plane = n * n;
    let mut t = Tensor::zeros(8, n, n, n);
    t.data
        .par_chunks_mut(plane.max(1))
        .enumerate()
        .for_each(|(c, out)| {
            // Chunk `c` is plane `c % n` of channel `c / n`.
            let (channel, z) = (c / n, c % n);
            let voxels = z * plane..(z + 1) * plane;
            match channel {
                0 => log_into(out, &fields.density[voxels], |v| v),
                1 => log_into(out, &fields.temperature[voxels], |v| v),
                _ => {
                    let v = &fields.vel[(channel - 2) / 2][voxels];
                    if channel % 2 == 0 {
                        log_into(out, v, |v| if v >= 0.0 { v } else { 0.0 })
                    } else {
                        log_into(out, v, |v| if v >= 0.0 { 0.0 } else { -v })
                    }
                }
            }
        });
    t
}

/// `out[i] = log10(max(part(src[i]), LOG_FLOOR))`.
fn log_into(out: &mut [f32], src: &[f64], part: impl Fn(f64) -> f64) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = part(v).max(LOG_FLOOR).log10() as f32;
    }
}

/// Decode an eight-channel prediction `[log rho, log T, (log v+, log v-)
/// x3]` — the network output uses the same layout as the input — back
/// into the five physical fields. Negative densities/temperatures cannot
/// occur by construction. Like [`encode_fields`], pure per voxel and run
/// plane by plane on the worker pool.
pub fn decode_fields(t: &Tensor, grid: crate::voxel::VoxelGrid) -> VoxelFields {
    assert_eq!(t.c, 8, "decoder expects the 8-channel layout");
    assert_eq!(t.d, grid.n);
    let n = grid.n;
    let len = n * n * n;
    let plane = (n * n).max(1);
    let mut out = VoxelFields::zeros(grid);
    let log_floor = (LOG_FLOOR as f32).log10();
    let exp = |channel: usize, f: usize| 10f64.powf(t.data[channel * len + f] as f64);
    fill_planes(&mut out.density, plane, |f| {
        if (t.data[f] - log_floor).abs() < 0.5 {
            0.0
        } else {
            exp(0, f)
        }
    });
    fill_planes(&mut out.temperature, plane, |f| exp(1, f).min(T_CEIL));
    let part = |channel: usize, f: usize| {
        let v = exp(channel, f).min(V_CEIL);
        if v <= LOG_FLOOR * 10.0 {
            0.0
        } else {
            v
        }
    };
    for (a, vel) in out.vel.iter_mut().enumerate() {
        fill_planes(vel, plane, |f| part(2 + 2 * a, f) - part(3 + 2 * a, f));
    }
    out
}

/// `field[f] = value(f)`, one `plane`-sized chunk per pool task.
fn fill_planes(field: &mut [f64], plane: usize, value: impl Fn(usize) -> f64 + Sync) {
    field
        .par_chunks_mut(plane)
        .enumerate()
        .for_each(|(c, chunk)| {
            for (o, f) in chunk.iter_mut().zip(c * plane..) {
                *o = value(f);
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voxel::VoxelGrid;
    use fdps::Vec3;

    fn fields_with(n: usize, rho: f64, temp: f64, v: [f64; 3]) -> VoxelFields {
        let grid = VoxelGrid::centered(Vec3::ZERO, 60.0, n);
        let mut f = VoxelFields::zeros(grid);
        for i in 0..n * n * n {
            f.density[i] = rho;
            f.temperature[i] = temp;
            #[allow(clippy::needless_range_loop)]
            for a in 0..3 {
                f.vel[a][i] = v[a];
            }
        }
        f
    }

    #[test]
    fn eight_channels_produced() {
        let f = fields_with(4, 1.0, 100.0, [1.0, -2.0, 0.0]);
        let t = encode_fields(&f);
        assert_eq!(t.shape(), (8, 4, 4, 4));
    }

    #[test]
    fn roundtrip_recovers_fields() {
        let f = fields_with(4, 2.5, 3.0e6, [12.0, -7.5, 0.0]);
        let t = encode_fields(&f);
        let back = decode_fields(&t, f.grid);
        for i in 0..64 {
            assert!((back.density[i] / 2.5 - 1.0).abs() < 1e-5);
            assert!((back.temperature[i] / 3.0e6 - 1.0).abs() < 1e-5);
            assert!((back.vel[0][i] - 12.0).abs() < 1e-3);
            assert!((back.vel[1][i] + 7.5).abs() < 1e-3);
            assert!(back.vel[2][i].abs() < 1e-6, "v_z = {}", back.vel[2][i]);
        }
    }

    #[test]
    fn velocity_sign_splitting_is_exclusive() {
        let f = fields_with(4, 1.0, 10.0, [5.0, -5.0, 0.0]);
        let t = encode_fields(&f);
        let len = 64;
        // v_x > 0: positive channel holds log10(5), negative the floor.
        assert!((t.data[2 * len] - 5f32.log10()).abs() < 1e-5);
        assert!((t.data[3 * len] - (LOG_FLOOR as f32).log10()).abs() < 1e-4);
        // v_y < 0: reversed.
        assert!((t.data[4 * len] - (LOG_FLOOR as f32).log10()).abs() < 1e-4);
        assert!((t.data[5 * len] - 5f32.log10()).abs() < 1e-5);
    }

    #[test]
    fn dynamic_range_is_compressed() {
        // The paper's motivation: six orders of magnitude in temperature
        // become a factor ~2 in encoded space.
        let cold = fields_with(4, 1.0, 10.0, [0.0; 3]);
        let hot = fields_with(4, 1.0, 1.0e7, [0.0; 3]);
        let tc = encode_fields(&cold).data[64];
        let th = encode_fields(&hot).data[64];
        assert!((th - tc).abs() < 10.0, "encoded span {}", th - tc);
        assert!((th - 7.0).abs() < 1e-4);
        assert!((tc - 1.0).abs() < 1e-4);
    }

    #[test]
    fn decoded_velocities_are_clamped_to_physical_bounds() {
        // A hostile tensor (huge logits, as an untrained net can emit)
        // must decode to bounded fields.
        let grid = VoxelGrid::centered(Vec3::ZERO, 60.0, 4);
        let mut t = unet::Tensor::zeros(8, 4, 4, 4);
        t.data.iter_mut().for_each(|v| *v = 30.0); // 10^30 everywhere
        let f = decode_fields(&t, grid);
        for i in 0..64 {
            assert!(f.temperature[i] <= T_CEIL);
            for a in 0..3 {
                assert!(f.vel[a][i].abs() <= V_CEIL);
            }
        }
    }

    #[test]
    fn empty_voxels_stay_finite() {
        let grid = VoxelGrid::centered(Vec3::ZERO, 60.0, 4);
        let f = VoxelFields::zeros(grid);
        let t = encode_fields(&f);
        assert!(t.data.iter().all(|v| v.is_finite()));
        let back = decode_fields(&t, grid);
        assert!(back.density.iter().all(|&d| d == 0.0 || d.is_finite()));
        assert!(back.vel[0].iter().all(|&v| v == 0.0));
    }
}
