//! Minimal 3-vector used throughout the workspace.

use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 3-D vector of `f64`. Positions and velocities are stored in double
/// precision (paper §4.3: "positions and velocities of particles are stored
/// in double-precision variables to handle a wide range of orders").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Largest component.
    #[inline]
    pub(crate) fn max_component(self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// Component by axis index (0 = x, 1 = y, 2 = z).
    #[inline]
    pub fn axis(self, k: usize) -> f64 {
        match k {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("Vec3 axis out of range: {k}"),
        }
    }

    /// True if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, s: f64) {
        *self = *self * s;
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, s: f64) {
        *self = *self / s;
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, k: usize) -> &f64 {
        match k {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Vec3 {
        #[inline]
        fn cross(self, o: Vec3) -> Vec3 {
            Vec3 {
                x: self.y * o.z - self.z * o.y,
                y: self.z * o.x - self.x * o.z,
                z: self.x * o.y - self.y * o.x,
            }
        }

        /// Set component by axis index.
        #[inline]
        fn set_axis(&mut self, k: usize, v: f64) {
            match k {
                0 => self.x = v,
                1 => self.y = v,
                2 => self.z = v,
                _ => panic!("Vec3 axis out of range: {k}"),
            }
        }

        /// Convert to an `[f32; 3]` (the mixed-precision path of §4.3).
        #[inline]
        fn to_f32(self) -> [f32; 3] {
            [self.x as f32, self.y as f32, self.z as f32]
        }
    }

    #[test]
    fn arithmetic_identities() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        assert_eq!(a + b - b, a);
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_cross_and_norms() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(b.cross(a), Vec3::new(0.0, 0.0, -1.0));
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm2(), 25.0);
        assert_eq!(v.norm(), 5.0);
    }

    #[test]
    fn axis_accessors_roundtrip() {
        let mut v = Vec3::ZERO;
        for k in 0..3 {
            v.set_axis(k, k as f64 + 1.0);
        }
        assert_eq!(v, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(v.axis(2), 3.0);
        assert_eq!(v[1], 2.0);
        assert_eq!(v.max_component(), 3.0);
    }

    #[test]
    fn component_min_max() {
        let a = Vec3::new(1.0, 5.0, -2.0);
        let b = Vec3::new(3.0, 2.0, 0.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 2.0, -2.0));
        assert_eq!(a.max(b), Vec3::new(3.0, 5.0, 0.0));
    }

    #[test]
    fn assign_ops() {
        let mut v = Vec3::new(1.0, 1.0, 1.0);
        v += Vec3::splat(1.0);
        v -= Vec3::new(0.0, 1.0, 0.0);
        v *= 3.0;
        v /= 2.0;
        assert_eq!(v, Vec3::new(3.0, 1.5, 3.0));
    }

    #[test]
    fn finite_check_and_f32_conversion() {
        assert!(Vec3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Vec3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Vec3::new(0.0, f64::INFINITY, 0.0).is_finite());
        assert_eq!(Vec3::new(1.5, -2.0, 0.25).to_f32(), [1.5f32, -2.0, 0.25]);
    }

    #[test]
    #[should_panic(expected = "axis out of range")]
    fn bad_axis_panics() {
        Vec3::ZERO.axis(3);
    }
}
