// Fixture: no-fma covers the field codec too.
pub fn signed(vp: f64, vn: f64, scale: f64) -> f64 {
    vp.mul_add(scale, -vn)
}
