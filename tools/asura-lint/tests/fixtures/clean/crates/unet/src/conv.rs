// Fixture: no-fma compliant conv accumulation — multiply, round, add.
use std::arch::x86_64::*;

#[target_feature(enable = "avx2")]
pub fn accumulate(acc: __m256, w: __m256, x: __m256) -> __m256 {
    _mm256_add_ps(acc, _mm256_mul_ps(w, x))
}
