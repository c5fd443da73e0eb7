// Fixture: no-fma covers the voxel scatter — its fields must equal the
// per-voxel reference loop to the bit, and a fused deposit would not.
pub fn deposit(sum: f64, m: f64, temp: f64) -> f64 {
    m.mul_add(temp, sum)
}
