//! Morton (Z-order) keys: the linearization FDPS uses to build its octree.
//!
//! Positions are quantized to 21 bits per axis inside a global bounding cube
//! and interleaved into a 63-bit key; sorting particles by key makes every
//! octree node a contiguous range.

use crate::bbox::BBox;
use crate::vec3::Vec3;

/// Bits per axis (3 * 21 = 63 bits used of the u64).
pub(crate) const BITS: u32 = 21;

/// Spread the low 21 bits of `v` so consecutive bits land 3 apart.
#[inline]
fn spread(v: u64) -> u64 {
    let mut x = v & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Quantize `p` inside `cube` to 21 bits per axis and interleave.
#[inline]
pub(crate) fn key(p: Vec3, cube: &BBox) -> u64 {
    let n = (1u64 << BITS) as f64;
    let ext = cube.extent();
    let q = |x: f64, lo: f64, e: f64| -> u64 {
        if e <= 0.0 {
            return 0;
        }
        let t = ((x - lo) / e * n) as i64;
        t.clamp(0, (1 << BITS) - 1) as u64
    };
    let ix = q(p.x, cube.lo.x, ext.x);
    let iy = q(p.y, cube.lo.y, ext.y);
    let iz = q(p.z, cube.lo.z, ext.z);
    spread(ix) | (spread(iy) << 1) | (spread(iz) << 2)
}

/// The 3-bit octant digit of `key` at `level` (level 0 is the root split).
#[inline]
pub(crate) fn digit(key: u64, level: u32) -> usize {
    debug_assert!(level < BITS);
    ((key >> (3 * (BITS - 1 - level))) & 0b111) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compact every third bit back into the low 21 bits.
    #[inline]
    fn compact(v: u64) -> u64 {
        let mut x = v & 0x1249249249249249;
        x = (x | (x >> 2)) & 0x10c30c30c30c30c3;
        x = (x | (x >> 4)) & 0x100f00f00f00f00f;
        x = (x | (x >> 8)) & 0x1f0000ff0000ff;
        x = (x | (x >> 16)) & 0x1f00000000ffff;
        x = (x | (x >> 32)) & 0x1f_ffff;
        x
    }

    /// Invert a key back to its quantized cell indices.
    #[inline]
    fn cell_of(key: u64) -> (u64, u64, u64) {
        (compact(key), compact(key >> 1), compact(key >> 2))
    }

    #[test]
    fn spread_compact_roundtrip() {
        for v in [0u64, 1, 2, 0x15_5555, 0x1f_ffff, 123_456] {
            assert_eq!(compact(spread(v)), v);
        }
    }

    #[test]
    fn key_roundtrips_cell_indices() {
        let cube = BBox::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let p = Vec3::new(0.25, -0.75, 0.999);
        let k = key(p, &cube);
        let (ix, iy, iz) = cell_of(k);
        let n = (1u64 << BITS) as f64;
        assert_eq!(ix, ((0.25 + 1.0) / 2.0 * n) as u64);
        assert_eq!(iy, ((-0.75 + 1.0) / 2.0 * n) as u64);
        assert_eq!(iz, ((0.999 + 1.0) / 2.0 * n) as u64);
    }

    #[test]
    fn points_outside_cube_clamp() {
        let cube = BBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let k = key(Vec3::new(2.0, -1.0, 0.5), &cube);
        let (ix, iy, _) = cell_of(k);
        assert_eq!(ix, (1 << BITS) - 1);
        assert_eq!(iy, 0);
    }

    #[test]
    fn digit_walks_from_coarse_to_fine() {
        let cube = BBox::new(Vec3::ZERO, Vec3::splat(1.0));
        // Point in the high-x, low-y, low-z octant: digit 0b001 at level 0.
        let k = key(Vec3::new(0.9, 0.1, 0.1), &cube);
        assert_eq!(digit(k, 0), 0b001);
        // Point near the center of that octant keeps refining.
        let k2 = key(Vec3::new(0.55, 0.05, 0.05), &cube);
        assert_eq!(digit(k2, 0), 0b001);
        assert_eq!(digit(k2, 1), 0b000);
    }

    #[test]
    fn zorder_is_monotone_within_axis() {
        let cube = BBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let k1 = key(Vec3::new(0.1, 0.0, 0.0), &cube);
        let k2 = key(Vec3::new(0.2, 0.0, 0.0), &cube);
        assert!(k2 > k1);
    }

    #[test]
    fn degenerate_cube_yields_zero_keys() {
        let cube = BBox::new(Vec3::ZERO, Vec3::ZERO);
        assert_eq!(key(Vec3::new(5.0, 5.0, 5.0), &cube), 0);
    }
}
