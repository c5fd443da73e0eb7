//! Axis-aligned bounding boxes (domains, tree-node extents).

use crate::vec3::Vec3;

/// An axis-aligned box `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    pub lo: Vec3,
    pub hi: Vec3,
}

impl BBox {
    /// The empty box (inverted bounds); absorbs points via [`BBox::extend`].
    pub fn empty() -> Self {
        BBox {
            lo: Vec3::splat(f64::INFINITY),
            hi: Vec3::splat(f64::NEG_INFINITY),
        }
    }

    pub fn new(lo: Vec3, hi: Vec3) -> Self {
        BBox { lo, hi }
    }

    /// Cube centred at `c` with half-side `half`.
    pub(crate) fn cube(c: Vec3, half: f64) -> Self {
        BBox {
            lo: c - Vec3::splat(half),
            hi: c + Vec3::splat(half),
        }
    }

    /// Smallest box containing all `points`.
    pub fn of_points(points: &[Vec3]) -> Self {
        let mut b = BBox::empty();
        for &p in points {
            b.extend(p);
        }
        b
    }

    /// Grow to include `p`.
    #[inline]
    pub fn extend(&mut self, p: Vec3) {
        self.lo = self.lo.min(p);
        self.hi = self.hi.max(p);
    }

    /// Grow to include another box.
    #[inline]
    pub fn merge(&mut self, o: &BBox) {
        self.lo = self.lo.min(o.lo);
        self.hi = self.hi.max(o.hi);
    }

    /// Is `p` inside (`lo <= p < hi`)?
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.lo.x
            && p.x < self.hi.x
            && p.y >= self.lo.y
            && p.y < self.hi.y
            && p.z >= self.lo.z
            && p.z < self.hi.z
    }

    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.lo + self.hi) * 0.5
    }

    #[inline]
    pub(crate) fn extent(&self) -> Vec3 {
        self.hi - self.lo
    }

    /// Longest edge length.
    #[inline]
    pub(crate) fn max_extent(&self) -> f64 {
        self.extent().max_component()
    }

    /// True if the box holds no volume (empty or degenerate).
    pub fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y || self.lo.z > self.hi.z
    }

    /// Minimum squared distance from `p` to the box (0 if inside).
    #[inline]
    pub(crate) fn dist2_to_point(&self, p: Vec3) -> f64 {
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        let dz = (self.lo.z - p.z).max(0.0).max(p.z - self.hi.z);
        dx * dx + dy * dy + dz * dz
    }

    /// Minimum squared distance between two boxes (0 if overlapping).
    #[inline]
    pub(crate) fn dist2_to_box(&self, o: &BBox) -> f64 {
        let d = |alo: f64, ahi: f64, blo: f64, bhi: f64| (blo - ahi).max(0.0).max(alo - bhi);
        let dx = d(self.lo.x, self.hi.x, o.lo.x, o.hi.x);
        let dy = d(self.lo.y, self.hi.y, o.lo.y, o.hi.y);
        let dz = d(self.lo.z, self.hi.z, o.lo.z, o.hi.z);
        dx * dx + dy * dy + dz * dz
    }

    /// Inflate by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> BBox {
        BBox {
            lo: self.lo - Vec3::splat(margin),
            hi: self.hi + Vec3::splat(margin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BBox {
        /// Do two boxes overlap (half-open semantics)?
        pub(crate) fn overlaps(&self, o: &BBox) -> bool {
            self.lo.x < o.hi.x
                && o.lo.x < self.hi.x
                && self.lo.y < o.hi.y
                && o.lo.y < self.hi.y
                && self.lo.z < o.hi.z
                && o.lo.z < self.hi.z
        }
    }

    #[test]
    fn extend_builds_tight_bounds() {
        let pts = [
            Vec3::new(1.0, -2.0, 0.0),
            Vec3::new(-1.0, 3.0, 5.0),
            Vec3::new(0.0, 0.0, -1.0),
        ];
        let b = BBox::of_points(&pts);
        assert_eq!(b.lo, Vec3::new(-1.0, -2.0, -1.0));
        assert_eq!(b.hi, Vec3::new(1.0, 3.0, 5.0));
        for &p in &pts[..2] {
            // hi is exclusive, so the max corner point itself is outside;
            // interior points are inside.
            let _ = p;
        }
        assert!(b.contains(Vec3::new(0.0, 0.0, 0.0)));
        assert!(!b.contains(Vec3::new(1.0, 0.0, 0.0))); // on hi face
    }

    #[test]
    fn empty_box_absorbs_and_reports() {
        let mut b = BBox::empty();
        assert!(b.is_empty());
        b.extend(Vec3::new(1.0, 1.0, 1.0));
        assert!(!b.is_empty());
        assert_eq!(b.lo, b.hi);
    }

    #[test]
    fn center_extent_cube() {
        let b = BBox::cube(Vec3::new(1.0, 2.0, 3.0), 2.0);
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.extent(), Vec3::splat(4.0));
        assert_eq!(b.max_extent(), 4.0);
    }

    #[test]
    fn distance_to_point() {
        let b = BBox::new(Vec3::ZERO, Vec3::splat(1.0));
        assert_eq!(b.dist2_to_point(Vec3::new(0.5, 0.5, 0.5)), 0.0);
        assert_eq!(b.dist2_to_point(Vec3::new(2.0, 0.5, 0.5)), 1.0);
        assert_eq!(b.dist2_to_point(Vec3::new(2.0, 2.0, 0.5)), 2.0);
        assert_eq!(b.dist2_to_point(Vec3::new(-1.0, -1.0, -1.0)), 3.0);
    }

    #[test]
    fn distance_between_boxes() {
        let a = BBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let b = BBox::new(Vec3::splat(2.0), Vec3::splat(3.0));
        assert_eq!(a.dist2_to_box(&b), 3.0);
        let c = BBox::new(Vec3::new(0.5, 0.5, 0.5), Vec3::splat(4.0));
        assert_eq!(a.dist2_to_box(&c), 0.0);
    }

    #[test]
    fn overlap_and_inflate() {
        let a = BBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let b = BBox::new(Vec3::splat(1.5), Vec3::splat(2.0));
        assert!(!a.overlaps(&b));
        assert!(a.inflated(0.6).overlaps(&b));
        // Touching faces do not overlap under half-open semantics.
        let c = BBox::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn merge_covers_both() {
        let mut a = BBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let b = BBox::new(Vec3::splat(-1.0), Vec3::splat(0.5));
        a.merge(&b);
        assert_eq!(a.lo, Vec3::splat(-1.0));
        assert_eq!(a.hi, Vec3::splat(1.0));
    }
}
