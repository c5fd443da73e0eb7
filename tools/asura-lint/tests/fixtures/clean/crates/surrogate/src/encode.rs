// Fixture: no-fma compliant codec; `mul_add` in a comment does not count.
pub fn signed(vp: f64, vn: f64, scale: f64) -> f64 {
    vp * scale - vn
}
