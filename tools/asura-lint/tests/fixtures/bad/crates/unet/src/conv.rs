// Fixture: no-fma covers the convolution's AVX2 body — a fused
// multiply-add rounds once where the portable body and the scalar
// reference round twice, so the three would stop agreeing to the bit.
use std::arch::x86_64::*;

#[target_feature(enable = "avx2,fma")]
pub fn accumulate(acc: __m256, w: __m256, x: __m256) -> __m256 {
    _mm256_fmadd_ps(w, x, acc)
}
