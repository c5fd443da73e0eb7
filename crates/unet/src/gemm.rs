//! The fixed-order dot product of the convolution weight gradient.
//!
//! The forward pass and the input gradient are a direct convolution
//! ([`crate::conv`]); the im2col + GEMM lowering that used to live here is
//! gone. What is left is the one reduction that is *not* a per-output-
//! element sum: `Conv3d::backward`'s weight gradient contracts a row of
//! the upstream gradient with a row of the im2col matrix
//! (`gw[co][kr] += dot(gy_row, b_row)`), a reduction over output columns
//! that [`dot`] splits across [`LANES`] partial sums.
//!
//! # Determinism
//!
//! [`dot`] uses a fixed lane count and a fixed horizontal-sum tree, and
//! plain `*` and `+` (never a fused multiply-add), so it returns the same
//! bits on every machine and for every thread count — not the bits of
//! the naive left-to-right sum, which is why gradients match the scalar
//! reference only to f32 reassociation. See the `## Kernel determinism`
//! section of ROADMAP.md.

/// Lane width of the f32 inner loops (two SSE2 vectors; one AVX vector).
pub const LANES: usize = 8;

/// Fixed-order eight-lane dot product.
///
/// The reduction is split across [`LANES`] partial sums filled in stride-8
/// order, collapsed by the fixed tree
/// `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`, then the scalar tail is added
/// in ascending order. Not equal to the naive left-to-right sum, but
/// deterministic across machines and thread counts.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let n = a.len();
    let mut lanes = [0.0f32; LANES];
    let chunks = n / LANES;
    for ch in 0..chunks {
        let av = &a[ch * LANES..ch * LANES + LANES];
        let bv = &b[ch * LANES..ch * LANES + LANES];
        for l in 0..LANES {
            lanes[l] += av[l] * bv[l];
        }
    }
    let mut s = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
    for i in chunks * LANES..n {
        s += a[i] * b[i];
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dot_is_deterministic_and_accurate() {
        let mut rng = StdRng::seed_from_u64(7);
        for &n in &[0usize, 1, 7, 8, 9, 64, 100] {
            let a: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let d1 = dot(&a, &b);
            let d2 = dot(&a, &b);
            assert_eq!(d1.to_bits(), d2.to_bits());
            let naive: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            assert!(
                (d1 as f64 - naive).abs() <= 1e-5 * naive.abs().max(1.0),
                "n={n}: {d1} vs {naive}"
            );
        }
    }
}
