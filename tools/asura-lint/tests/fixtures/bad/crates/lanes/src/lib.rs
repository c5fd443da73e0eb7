// Fixture: no-fma covers the shared SIMD layer — a helper here that fused
// a multiply into an add would round once inside every kernel built on it.
use std::arch::x86_64::*;

#[target_feature(enable = "avx2,fma")]
pub fn scale_and_add(acc: __m256d, w: __m256d, x: __m256d) -> __m256d {
    _mm256_fmadd_pd(w, x, acc)
}
