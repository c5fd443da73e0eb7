//! The inner interaction kernels.
//!
//! Two generations live here. The AoS kernels ([`accumulate_f64`],
//! [`accumulate_mixed`]) are the original unrolled forms, retained as the
//! equivalence references and the convenience API for small callers. The
//! SoA kernels ([`accumulate_f64_soa`], [`accumulate_mixed_staged`]) take
//! struct-of-arrays j-side inputs staged by the caller (the solver's
//! per-worker `GroupScratch`), which turns the per-lane coordinate loads
//! into contiguous packed loads, and where [`lanes::Avx2::detect`] finds
//! AVX2 they run an AVX2 body (one 256-bit vector per 4 × f64 / 8 × f32
//! lane block) — the portable fallback is the same loop in
//! explicit-unrolled form, and both end in the same remainder and
//! reduction. The AoS `Vec3` layout forces stride-3 gathers that never
//! vectorize, which is why the SoA staging exists at all.
//!
//! # Determinism
//!
//! Every kernel uses a fixed lane count (4 × f64, 8 × f32), a remainder
//! loop that folds into lane 0, and a fixed final lane-sum order, so
//! results are bit-reproducible across machines and thread counts, and
//! `accumulate_f64_soa` is *bitwise identical* to `accumulate_f64` on the
//! same interaction list. The AVX2 bodies use only exactly-rounded IEEE
//! operations (add/sub/mul/div/sqrt/compare-select — never FMA, which
//! contracts the rounding step) with the identical association order, so
//! the dispatched and portable paths are bitwise identical too: which CPU
//! ran the kernel can never leak into a snapshot. See `## Kernel
//! determinism` in ROADMAP.md.
//!
//! The lane a j lands in is its index in the staged columns, so the
//! caller's staging order is part of the contract: the solver writes each
//! interaction list by slot, EP entries then SP monopoles (see
//! `solver`'s "Staging by slot"), and that order — not how the columns
//! are filled — is what fixes the lanes and the result.

use fdps::Vec3;
#[cfg(target_arch = "x86_64")]
use lanes::Avx2;

/// Accumulated acceleration (per unit G, without the sign of the potential
/// applied) and positive potential sum for one i-particle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GravityAccum {
    pub acc: Vec3,
    /// Positive sum `Σ m_j / r_ij`; the physical potential is `-G` times it.
    pub pot: f64,
}

/// Double-precision kernel: for each i in `ipos`, accumulate over all
/// (jpos, jmass) with softening `eps2 = eps_i^2 + eps_j^2` folded in by the
/// caller. Self-interaction is excluded by the `r2 > 0` guard only when
/// `eps2 == 0`; with softening, a particle interacting with its own entry
/// contributes zero force and a finite self-potential, so callers pass
/// j-lists that exclude i (FDPS ships i itself in the list; the force is
/// zero and the potential is corrected by the caller when needed).
/// The inner j-loop runs four independent accumulator lanes (unrolled by
/// 4) so the sqrt/divide dependency chains pipeline; a zero `r2` (the
/// unsoftened self-interaction) contributes zero through a branchless
/// select rather than a loop-carried branch.
pub fn accumulate_f64(
    ipos: &[Vec3],
    jpos: &[Vec3],
    jmass: &[f64],
    eps2: f64,
    out: &mut [GravityAccum],
) {
    debug_assert_eq!(ipos.len(), out.len());
    debug_assert_eq!(jpos.len(), jmass.len());
    let n_j = jpos.len();
    for (i, &pi) in ipos.iter().enumerate() {
        let mut ax = [0.0f64; 4];
        let mut ay = [0.0f64; 4];
        let mut az = [0.0f64; 4];
        let mut ps = [0.0f64; 4];
        let mut j = 0;
        while j + 4 <= n_j {
            for lane in 0..4 {
                let pj = jpos[j + lane];
                let dx = pi.x - pj.x;
                let dy = pi.y - pj.y;
                let dz = pi.z - pj.z;
                let r2 = dx * dx + dy * dy + dz * dz + eps2;
                let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
                let mrinv = jmass[j + lane] * rinv;
                let mr3 = mrinv * rinv * rinv;
                ax[lane] -= mr3 * dx;
                ay[lane] -= mr3 * dy;
                az[lane] -= mr3 * dz;
                ps[lane] += mrinv;
            }
            j += 4;
        }
        while j < n_j {
            let pj = jpos[j];
            let dx = pi.x - pj.x;
            let dy = pi.y - pj.y;
            let dz = pi.z - pj.z;
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
            let mrinv = jmass[j] * rinv;
            let mr3 = mrinv * rinv * rinv;
            ax[0] -= mr3 * dx;
            ay[0] -= mr3 * dy;
            az[0] -= mr3 * dz;
            ps[0] += mrinv;
            j += 1;
        }
        out[i].acc += Vec3::new(
            ax[0] + ax[1] + ax[2] + ax[3],
            ay[0] + ay[1] + ay[2] + ay[3],
            az[0] + az[1] + az[2] + az[3],
        );
        out[i].pot += ps[0] + ps[1] + ps[2] + ps[3];
    }
}

/// Double-precision kernel over struct-of-arrays j-side inputs.
///
/// Semantics and determinism contract are identical to
/// [`accumulate_f64`] — same 4-lane structure, same remainder handling,
/// same `lane0+lane1+lane2+lane3` reduction — so the two produce bitwise
/// equal results. Where [`Avx2::detect`] finds AVX2 the 4-lane block runs
/// as one 256-bit vector (`vsqrtpd`/`vdivpd` over 4 interactions at once);
/// elsewhere the explicit-unrolled portable body runs. Both paths are
/// bitwise identical (exactly-rounded ops, same association order).
pub fn accumulate_f64_soa(
    ipos: &[Vec3],
    jx: &[f64],
    jy: &[f64],
    jz: &[f64],
    jmass: &[f64],
    eps2: f64,
    out: &mut [GravityAccum],
) {
    debug_assert_eq!(ipos.len(), out.len());
    debug_assert!([jx, jy, jz].iter().all(|c| c.len() == jmass.len()));
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = Avx2::detect() {
        return simd::f64_soa(avx2, ipos, [jx, jy, jz, jmass], eps2, out);
    }
    accumulate_f64_soa_portable(ipos, jx, jy, jz, jmass, eps2, out);
}

/// Portable explicit-unrolled body of [`accumulate_f64_soa`]; public so
/// the equivalence tests can pin the dispatched path against it.
pub fn accumulate_f64_soa_portable(
    ipos: &[Vec3],
    jx: &[f64],
    jy: &[f64],
    jz: &[f64],
    jmass: &[f64],
    eps2: f64,
    out: &mut [GravityAccum],
) {
    let n_j = jmass.len();
    for (i, &pi) in ipos.iter().enumerate() {
        let [mut ax, mut ay, mut az, mut ps] = [[0.0f64; 4]; 4];
        let mut j = 0;
        while j + 4 <= n_j {
            for lane in 0..4 {
                let dx = pi.x - jx[j + lane];
                let dy = pi.y - jy[j + lane];
                let dz = pi.z - jz[j + lane];
                let r2 = dx * dx + dy * dy + dz * dz + eps2;
                let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
                let mrinv = jmass[j + lane] * rinv;
                let mr3 = mrinv * rinv * rinv;
                ax[lane] -= mr3 * dx;
                ay[lane] -= mr3 * dy;
                az[lane] -= mr3 * dz;
                ps[lane] += mrinv;
            }
            j += 4;
        }
        let lanes = [ax, ay, az, ps];
        f64_tail(pi, [jx, jy, jz, jmass], j, eps2, lanes, &mut out[i]);
    }
}

/// The end of one i-particle's f64 sum on both paths: the j from `j0` on
/// run into lane 0, then the `[ax, ay, az, pot]` lanes are reduced into
/// `out` in the fixed `lane0+lane1+lane2+lane3` order.
#[inline(always)]
fn f64_tail(
    pi: Vec3,
    [jx, jy, jz, jmass]: [&[f64]; 4],
    j0: usize,
    eps2: f64,
    [mut ax, mut ay, mut az, mut ps]: [[f64; 4]; 4],
    out: &mut GravityAccum,
) {
    for j in j0..jmass.len() {
        let dx = pi.x - jx[j];
        let dy = pi.y - jy[j];
        let dz = pi.z - jz[j];
        let r2 = dx * dx + dy * dy + dz * dz + eps2;
        let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
        let mrinv = jmass[j] * rinv;
        let mr3 = mrinv * rinv * rinv;
        ax[0] -= mr3 * dx;
        ay[0] -= mr3 * dy;
        az[0] -= mr3 * dz;
        ps[0] += mrinv;
    }
    out.acc += Vec3::new(
        ax[0] + ax[1] + ax[2] + ax[3],
        ay[0] + ay[1] + ay[2] + ay[3],
        az[0] + az[1] + az[2] + az[3],
    );
    out.pot += ps[0] + ps[1] + ps[2] + ps[3];
}

/// Mixed-precision kernel over pre-staged f32 relative SoA coordinates.
///
/// `jx/jy/jz` are `(p - origin) as f32`, `jm` is the narrowed mass; the
/// caller owns the staging buffers (the solver reuses per-worker scratch,
/// which is what makes this variant actually faster than f64 — the
/// original [`accumulate_mixed`] allocated four fresh `Vec<f32>` per
/// launch and paid more in allocator traffic than it saved in arithmetic).
#[allow(clippy::too_many_arguments)]
pub fn accumulate_mixed_staged(
    origin: Vec3,
    ipos: &[Vec3],
    jx: &[f32],
    jy: &[f32],
    jz: &[f32],
    jm: &[f32],
    eps2: f64,
    out: &mut [GravityAccum],
) {
    debug_assert_eq!(ipos.len(), out.len());
    debug_assert!([jx, jy, jz].iter().all(|c| c.len() == jm.len()));
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = Avx2::detect() {
        return simd::mixed_staged(avx2, origin, ipos, [jx, jy, jz, jm], eps2, out);
    }
    accumulate_mixed_staged_portable(origin, ipos, jx, jy, jz, jm, eps2, out);
}

/// Portable explicit-unrolled body of [`accumulate_mixed_staged`]; public
/// so the equivalence tests can pin the dispatched path against it.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_mixed_staged_portable(
    origin: Vec3,
    ipos: &[Vec3],
    jx: &[f32],
    jy: &[f32],
    jz: &[f32],
    jm: &[f32],
    eps2: f64,
    out: &mut [GravityAccum],
) {
    let e2 = eps2 as f32;
    let n_j = jm.len();
    for (i, &pi) in ipos.iter().enumerate() {
        let xi = (pi.x - origin.x) as f32;
        let yi = (pi.y - origin.y) as f32;
        let zi = (pi.z - origin.z) as f32;
        // 8 f32 lanes: one AVX vector's worth of independent chains.
        let [mut ax, mut ay, mut az, mut ps] = [[0.0f32; 8]; 4];
        let mut j = 0;
        while j + 8 <= n_j {
            for lane in 0..8 {
                let dx = xi - jx[j + lane];
                let dy = yi - jy[j + lane];
                let dz = zi - jz[j + lane];
                let r2 = dx * dx + dy * dy + dz * dz + e2;
                let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
                let mrinv = jm[j + lane] * rinv;
                let mr3 = mrinv * rinv * rinv;
                ax[lane] -= mr3 * dx;
                ay[lane] -= mr3 * dy;
                az[lane] -= mr3 * dz;
                ps[lane] += mrinv;
            }
            j += 8;
        }
        let lanes = [ax, ay, az, ps];
        mixed_tail([xi, yi, zi], [jx, jy, jz, jm], j, e2, lanes, &mut out[i]);
    }
}

/// The end of one i-particle's mixed-precision sum on both paths: the j
/// from `j0` on run into lane 0, then the lanes are reduced into `out`
/// pairwise in f32 and widened to f64 in a fixed order.
#[inline(always)]
fn mixed_tail(
    [xi, yi, zi]: [f32; 3],
    [jx, jy, jz, jm]: [&[f32]; 4],
    j0: usize,
    e2: f32,
    [mut ax, mut ay, mut az, mut ps]: [[f32; 8]; 4],
    out: &mut GravityAccum,
) {
    for j in j0..jm.len() {
        let dx = xi - jx[j];
        let dy = yi - jy[j];
        let dz = zi - jz[j];
        let r2 = dx * dx + dy * dy + dz * dz + e2;
        let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
        let mrinv = jm[j] * rinv;
        let mr3 = mrinv * rinv * rinv;
        ax[0] -= mr3 * dx;
        ay[0] -= mr3 * dy;
        az[0] -= mr3 * dz;
        ps[0] += mrinv;
    }
    let sum8 = |v: [f32; 8]| -> f64 {
        ((v[0] + v[4]) + (v[1] + v[5])) as f64 + ((v[2] + v[6]) + (v[3] + v[7])) as f64
    };
    out.acc += Vec3::new(sum8(ax), sum8(ay), sum8(az));
    out.pot += sum8(ps);
}

/// Mixed-precision kernel (paper §4.3): coordinates are re-expressed
/// relative to `origin` (the representative point of the receiving group),
/// narrowed to `f32`, and the interaction loop runs in single precision.
/// The relative accuracy of the *interaction* is single precision while
/// absolute positions keep their double-precision resolution.
///
/// Convenience wrapper over [`accumulate_mixed_staged`] that allocates
/// the staging arrays per launch; hot callers stage into reused scratch
/// and call the staged kernel directly.
pub fn accumulate_mixed(
    origin: Vec3,
    ipos: &[Vec3],
    jpos: &[Vec3],
    jmass: &[f64],
    eps2: f64,
    out: &mut [GravityAccum],
) {
    debug_assert_eq!(jpos.len(), jmass.len());
    // Narrow once per launch: SoA f32 relative coordinates.
    let jx: Vec<f32> = jpos.iter().map(|p| (p.x - origin.x) as f32).collect();
    let jy: Vec<f32> = jpos.iter().map(|p| (p.y - origin.y) as f32).collect();
    let jz: Vec<f32> = jpos.iter().map(|p| (p.z - origin.z) as f32).collect();
    let jm: Vec<f32> = jmass.iter().map(|&m| m as f32).collect();
    accumulate_mixed_staged(origin, ipos, &jx, &jy, &jz, &jm, eps2, out);
}

/// AVX2 bodies of the SoA kernels, the only module of this crate allowed
/// `unsafe`. One 256-bit vector carries the whole fixed lane block
/// (4 × f64 / 8 × f32), so the lane-wise arithmetic of the portable forms
/// maps 1:1 onto packed ops with the *same* per-lane values; the
/// accumulator vector is then spilled to an array and handed to the
/// portable path's own remainder and reduction ([`f64_tail`],
/// [`mixed_tail`]). Only exactly-rounded instructions are used —
/// `vaddp*`, `vsubp*`, `vmulp*`, `vdivp*`, `vsqrtp*`, compare+mask —
/// never FMA, so every intermediate rounds exactly like the scalar
/// expression and the results are bitwise identical to the portable path.
///
/// Each body is reached only through a safe function that takes the
/// [`Avx2`] token and asserts the j-column lengths its raw loads rely on.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::{f64_tail, mixed_tail, GravityAccum};
    use fdps::Vec3;
    use lanes::Avx2;
    use std::arch::x86_64::*;

    /// [`super::accumulate_f64_soa`] on the AVX2 body; `j` is
    /// `[jx, jy, jz, jmass]`.
    pub(super) fn f64_soa(
        _: Avx2,
        ipos: &[Vec3],
        j: [&[f64]; 4],
        eps2: f64,
        out: &mut [GravityAccum],
    ) {
        assert!(j.iter().all(|c| c.len() == j[3].len()), "j-column lengths");
        // SAFETY: the token proves AVX2, and the four j-columns share the
        // length the body loads up to.
        unsafe { f64_soa_body(ipos, j, eps2, out) }
    }

    /// Body of [`f64_soa`].
    ///
    /// # Safety
    ///
    /// SAFETY: callers guarantee AVX2 and that the four j-columns share
    /// one length.
    #[target_feature(enable = "avx2")]
    unsafe fn f64_soa_body(ipos: &[Vec3], j4: [&[f64]; 4], eps2: f64, out: &mut [GravityAccum]) {
        let n_j = j4[3].len();
        let e2v = _mm256_set1_pd(eps2);
        let zero = _mm256_setzero_pd();
        let one = _mm256_set1_pd(1.0);
        for (i, &pi) in ipos.iter().enumerate() {
            let pix = _mm256_set1_pd(pi.x);
            let piy = _mm256_set1_pd(pi.y);
            let piz = _mm256_set1_pd(pi.z);
            let (mut axv, mut ayv, mut azv, mut psv) = (zero, zero, zero, zero);
            let mut j = 0;
            while j + 4 <= n_j {
                // SAFETY: j + 4 <= n_j and the caller guarantees the j-
                // columns share n_j elements, so each 4-wide load is in
                // bounds of its slice.
                let [xv, yv, zv, mv] = j4.map(|c| unsafe { _mm256_loadu_pd(c.as_ptr().add(j)) });
                let dx = _mm256_sub_pd(pix, xv);
                let dy = _mm256_sub_pd(piy, yv);
                let dz = _mm256_sub_pd(piz, zv);
                // ((dx*dx + dy*dy) + dz*dz) + eps2 — the scalar association.
                let r2 = _mm256_add_pd(
                    _mm256_add_pd(
                        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                        _mm256_mul_pd(dz, dz),
                    ),
                    e2v,
                );
                // rinv = r2 > 0 ? 1/sqrt(r2) : 0. The masked-off lane
                // computes 1/sqrt(0) = +inf, then the AND clears it — no
                // trap, no NaN escapes.
                let mask = _mm256_cmp_pd::<_CMP_GT_OQ>(r2, zero);
                let rinv = _mm256_and_pd(_mm256_div_pd(one, _mm256_sqrt_pd(r2)), mask);
                let mrinv = _mm256_mul_pd(mv, rinv);
                let mr3 = _mm256_mul_pd(_mm256_mul_pd(mrinv, rinv), rinv);
                axv = _mm256_sub_pd(axv, _mm256_mul_pd(mr3, dx));
                ayv = _mm256_sub_pd(ayv, _mm256_mul_pd(mr3, dy));
                azv = _mm256_sub_pd(azv, _mm256_mul_pd(mr3, dz));
                psv = _mm256_add_pd(psv, mrinv);
                j += 4;
            }
            let mut lanes = [[0.0f64; 4]; 4];
            for (lane, v) in lanes.iter_mut().zip([axv, ayv, azv, psv]) {
                // SAFETY: each destination is a local [f64; 4] — exactly
                // one 256-bit store wide.
                unsafe { _mm256_storeu_pd(lane.as_mut_ptr(), v) };
            }
            f64_tail(pi, j4, j, eps2, lanes, &mut out[i]);
        }
    }

    /// [`super::accumulate_mixed_staged`] on the AVX2 body; `j` is
    /// `[jx, jy, jz, jm]`.
    pub(super) fn mixed_staged(
        _: Avx2,
        origin: Vec3,
        ipos: &[Vec3],
        j: [&[f32]; 4],
        eps2: f64,
        out: &mut [GravityAccum],
    ) {
        assert!(j.iter().all(|c| c.len() == j[3].len()), "j-column lengths");
        // SAFETY: the token proves AVX2, and the four j-columns share the
        // length the body loads up to.
        unsafe { mixed_staged_body(origin, ipos, j, eps2, out) }
    }

    /// Body of [`mixed_staged`].
    ///
    /// # Safety
    ///
    /// SAFETY: callers guarantee AVX2 and that the four j-columns share
    /// one length.
    #[target_feature(enable = "avx2")]
    unsafe fn mixed_staged_body(
        origin: Vec3,
        ipos: &[Vec3],
        j4: [&[f32]; 4],
        eps2: f64,
        out: &mut [GravityAccum],
    ) {
        let e2 = eps2 as f32;
        let n_j = j4[3].len();
        let e2v = _mm256_set1_ps(e2);
        let zero = _mm256_setzero_ps();
        let one = _mm256_set1_ps(1.0);
        for (i, &pi) in ipos.iter().enumerate() {
            let xi = (pi.x - origin.x) as f32;
            let yi = (pi.y - origin.y) as f32;
            let zi = (pi.z - origin.z) as f32;
            let xiv = _mm256_set1_ps(xi);
            let yiv = _mm256_set1_ps(yi);
            let ziv = _mm256_set1_ps(zi);
            let (mut axv, mut ayv, mut azv, mut psv) = (zero, zero, zero, zero);
            let mut j = 0;
            while j + 8 <= n_j {
                // SAFETY: j + 8 <= n_j and the caller guarantees the j-
                // columns share n_j elements, so each 8-wide load is in
                // bounds of its slice.
                let [xv, yv, zv, mv] = j4.map(|c| unsafe { _mm256_loadu_ps(c.as_ptr().add(j)) });
                let dx = _mm256_sub_ps(xiv, xv);
                let dy = _mm256_sub_ps(yiv, yv);
                let dz = _mm256_sub_ps(ziv, zv);
                let r2 = _mm256_add_ps(
                    _mm256_add_ps(
                        _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
                        _mm256_mul_ps(dz, dz),
                    ),
                    e2v,
                );
                let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(r2, zero);
                let rinv = _mm256_and_ps(_mm256_div_ps(one, _mm256_sqrt_ps(r2)), mask);
                let mrinv = _mm256_mul_ps(mv, rinv);
                let mr3 = _mm256_mul_ps(_mm256_mul_ps(mrinv, rinv), rinv);
                axv = _mm256_sub_ps(axv, _mm256_mul_ps(mr3, dx));
                ayv = _mm256_sub_ps(ayv, _mm256_mul_ps(mr3, dy));
                azv = _mm256_sub_ps(azv, _mm256_mul_ps(mr3, dz));
                psv = _mm256_add_ps(psv, mrinv);
                j += 8;
            }
            let mut lanes = [[0.0f32; 8]; 4];
            for (lane, v) in lanes.iter_mut().zip([axv, ayv, azv, psv]) {
                // SAFETY: each destination is a local [f32; 8] — exactly
                // one 256-bit store wide.
                unsafe { _mm256_storeu_ps(lane.as_mut_ptr(), v) };
            }
            mixed_tail([xi, yi, zi], j4, j, e2, lanes, &mut out[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cloud(n: usize, seed: u64, center: Vec3) -> (Vec<Vec3>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pos = (0..n)
            .map(|_| {
                center
                    + Vec3::new(
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    )
            })
            .collect();
        let mass = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
        (pos, mass)
    }

    #[test]
    fn two_body_force_is_analytic() {
        let ipos = [Vec3::ZERO];
        let jpos = [Vec3::new(2.0, 0.0, 0.0)];
        let jm = [4.0];
        let mut out = [GravityAccum::default()];
        accumulate_f64(&ipos, &jpos, &jm, 0.0, &mut out);
        // a = m/r^2 toward j => +x; pot = m/r = 2.
        assert!((out[0].acc.x - 1.0).abs() < 1e-14);
        assert!(out[0].acc.y.abs() < 1e-14);
        assert!((out[0].pot - 2.0).abs() < 1e-14);
    }

    #[test]
    fn softening_caps_close_encounters() {
        let ipos = [Vec3::ZERO];
        let jpos = [Vec3::new(1e-8, 0.0, 0.0)];
        let jm = [1.0];
        let mut out = [GravityAccum::default()];
        accumulate_f64(&ipos, &jpos, &jm, 1e-2, &mut out);
        // With eps ~ 0.1 the force is ~ r/eps^3 ~ 1e-5, not 1e16.
        assert!(out[0].acc.norm() < 1e-4);
    }

    #[test]
    fn unsoftened_self_interaction_skipped() {
        let p = [Vec3::new(1.0, 2.0, 3.0)];
        let m = [5.0];
        let mut out = [GravityAccum::default()];
        accumulate_f64(&p, &p, &m, 0.0, &mut out);
        assert_eq!(out[0], GravityAccum::default());
    }

    #[test]
    fn accumulation_composes_over_chunks() {
        let (pos, mass) = cloud(64, 1, Vec3::ZERO);
        let ipos = [Vec3::new(0.1, 0.2, 0.3)];
        let mut whole = [GravityAccum::default()];
        accumulate_f64(&ipos, &pos, &mass, 1e-4, &mut whole);
        let mut parts = [GravityAccum::default()];
        accumulate_f64(&ipos, &pos[..32], &mass[..32], 1e-4, &mut parts);
        accumulate_f64(&ipos, &pos[32..], &mass[32..], 1e-4, &mut parts);
        assert!((whole[0].acc - parts[0].acc).norm() < 1e-12);
        assert!((whole[0].pot - parts[0].pot).abs() < 1e-12);
    }

    #[test]
    fn mixed_precision_matches_f64_to_single_accuracy() {
        // A group far from the coordinate origin: naive f32 would lose most
        // of its mantissa; the relative-coordinate trick must not.
        let far = Vec3::new(1.0e5, -2.0e5, 3.0e5);
        let (jpos, jm) = cloud(256, 2, far);
        let (ipos, _) = cloud(16, 3, far);
        let eps2 = 1e-4;
        let mut exact = vec![GravityAccum::default(); ipos.len()];
        accumulate_f64(&ipos, &jpos, &jm, eps2, &mut exact);
        let mut mixed = vec![GravityAccum::default(); ipos.len()];
        accumulate_mixed(far, &ipos, &jpos, &jm, eps2, &mut mixed);
        for (e, m) in exact.iter().zip(&mixed) {
            let rel = (e.acc - m.acc).norm() / e.acc.norm().max(1e-12);
            assert!(rel < 1e-5, "rel err {rel}");
            assert!((e.pot - m.pot).abs() / e.pot < 1e-5);
        }
    }

    #[test]
    fn naive_f32_would_fail_where_mixed_succeeds() {
        // Demonstrate the *reason* for the scheme: absolute f32 coordinates
        // at 1e5 have ~1e-2 spacing, destroying sub-pc structure.
        let far = Vec3::new(1.0e5, 0.0, 0.0);
        let a = far + Vec3::new(1e-4, 0.0, 0.0);
        let apos_f32 = a.x as f32;
        let fpos_f32 = far.x as f32;
        // The separation collapses entirely in absolute f32...
        assert_eq!(apos_f32 - fpos_f32, 0.0);
        // ...but survives in relative coordinates.
        let rel = (a.x - far.x) as f32;
        assert!((rel - 1e-4_f32).abs() < 1e-9);
    }

    /// The SoA kernel keeps the AoS kernel's lane structure and reduction
    /// order exactly, so on the same list it must agree to the bit.
    #[test]
    fn soa_kernel_matches_aos_bitwise() {
        for &(n_i, n_j, eps2) in &[(1usize, 1usize, 0.0f64), (16, 67, 0.0), (32, 130, 1e-4)] {
            let (jpos, jm) = cloud(n_j, 10 + n_j as u64, Vec3::new(0.3, -0.2, 0.1));
            let (ipos, _) = cloud(n_i, 20 + n_i as u64, Vec3::ZERO);
            let mut aos = vec![GravityAccum::default(); n_i];
            accumulate_f64(&ipos, &jpos, &jm, eps2, &mut aos);
            let jx: Vec<f64> = jpos.iter().map(|p| p.x).collect();
            let jy: Vec<f64> = jpos.iter().map(|p| p.y).collect();
            let jz: Vec<f64> = jpos.iter().map(|p| p.z).collect();
            let mut soa = vec![GravityAccum::default(); n_i];
            accumulate_f64_soa(&ipos, &jx, &jy, &jz, &jm, eps2, &mut soa);
            for (i, (a, s)) in aos.iter().zip(&soa).enumerate() {
                assert!(
                    a.acc.x.to_bits() == s.acc.x.to_bits()
                        && a.acc.y.to_bits() == s.acc.y.to_bits()
                        && a.acc.z.to_bits() == s.acc.z.to_bits()
                        && a.pot.to_bits() == s.pot.to_bits(),
                    "i={i} ({n_i}x{n_j}): {a:?} vs {s:?}"
                );
            }
        }
    }

    /// Staged mixed kernel == allocating wrapper, bitwise (same math, the
    /// wrapper just owns the staging buffers).
    #[test]
    fn staged_mixed_matches_wrapper_bitwise() {
        let far = Vec3::new(1.0e4, -3.0e4, 2.0e4);
        let (jpos, jm) = cloud(100, 6, far);
        let (ipos, _) = cloud(10, 7, far);
        let mut a = vec![GravityAccum::default(); ipos.len()];
        accumulate_mixed(far, &ipos, &jpos, &jm, 1e-4, &mut a);
        let jx: Vec<f32> = jpos.iter().map(|p| (p.x - far.x) as f32).collect();
        let jy: Vec<f32> = jpos.iter().map(|p| (p.y - far.y) as f32).collect();
        let jz: Vec<f32> = jpos.iter().map(|p| (p.z - far.z) as f32).collect();
        let jmf: Vec<f32> = jm.iter().map(|&m| m as f32).collect();
        let mut b = vec![GravityAccum::default(); ipos.len()];
        accumulate_mixed_staged(far, &ipos, &jx, &jy, &jz, &jmf, 1e-4, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.acc.x.to_bits(), y.acc.x.to_bits());
            assert_eq!(x.pot.to_bits(), y.pot.to_bits());
        }
    }

    /// The runtime-dispatched SoA kernels (AVX2 where detected) must match
    /// the portable explicit-unrolled bodies to the bit: which CPU ran the
    /// kernel must never leak into results. Odd lengths exercise both the
    /// packed block and the lane-0 remainder.
    #[test]
    fn dispatched_kernels_match_portable_bitwise() {
        for &(n_i, n_j) in &[(1usize, 3usize), (7, 61), (16, 256), (5, 1029)] {
            let (jpos, jm) = cloud(n_j, 40 + n_j as u64, Vec3::new(0.5, 0.1, -0.4));
            let (ipos, _) = cloud(n_i, 50 + n_i as u64, Vec3::ZERO);
            let jx: Vec<f64> = jpos.iter().map(|p| p.x).collect();
            let jy: Vec<f64> = jpos.iter().map(|p| p.y).collect();
            let jz: Vec<f64> = jpos.iter().map(|p| p.z).collect();
            let mut disp = vec![GravityAccum::default(); n_i];
            accumulate_f64_soa(&ipos, &jx, &jy, &jz, &jm, 1e-4, &mut disp);
            let mut port = vec![GravityAccum::default(); n_i];
            accumulate_f64_soa_portable(&ipos, &jx, &jy, &jz, &jm, 1e-4, &mut port);
            for (d, p) in disp.iter().zip(&port) {
                assert_eq!(d.acc.x.to_bits(), p.acc.x.to_bits());
                assert_eq!(d.acc.y.to_bits(), p.acc.y.to_bits());
                assert_eq!(d.acc.z.to_bits(), p.acc.z.to_bits());
                assert_eq!(d.pot.to_bits(), p.pot.to_bits());
            }
            let jx32: Vec<f32> = jpos.iter().map(|p| p.x as f32).collect();
            let jy32: Vec<f32> = jpos.iter().map(|p| p.y as f32).collect();
            let jz32: Vec<f32> = jpos.iter().map(|p| p.z as f32).collect();
            let jm32: Vec<f32> = jm.iter().map(|&m| m as f32).collect();
            let mut disp = vec![GravityAccum::default(); n_i];
            accumulate_mixed_staged(
                Vec3::ZERO,
                &ipos,
                &jx32,
                &jy32,
                &jz32,
                &jm32,
                1e-4,
                &mut disp,
            );
            let mut port = vec![GravityAccum::default(); n_i];
            accumulate_mixed_staged_portable(
                Vec3::ZERO,
                &ipos,
                &jx32,
                &jy32,
                &jz32,
                &jm32,
                1e-4,
                &mut port,
            );
            for (d, p) in disp.iter().zip(&port) {
                assert_eq!(d.acc.x.to_bits(), p.acc.x.to_bits());
                assert_eq!(d.acc.y.to_bits(), p.acc.y.to_bits());
                assert_eq!(d.acc.z.to_bits(), p.acc.z.to_bits());
                assert_eq!(d.pot.to_bits(), p.pot.to_bits());
            }
        }
    }

    /// Unsoftened self-interaction stays excluded through the masked
    /// select on the dispatched (possibly AVX2) path too.
    #[test]
    fn dispatched_soa_skips_unsoftened_self_interaction() {
        let p = [Vec3::new(1.0, 2.0, 3.0); 4];
        let jx = [1.0; 4];
        let jy = [2.0; 4];
        let jz = [3.0; 4];
        let jm = [5.0; 4];
        let mut out = [GravityAccum::default()];
        accumulate_f64_soa(&p[..1], &jx, &jy, &jz, &jm, 0.0, &mut out);
        assert_eq!(out[0], GravityAccum::default());
    }

    /// The same through the dispatched mixed-precision path: eight copies
    /// of the target fill one f32 vector block and one more lands in the
    /// lane-0 remainder, and every one contributes exactly zero.
    #[test]
    fn dispatched_mixed_skips_unsoftened_self_interaction() {
        let origin = Vec3::new(0.5, 1.5, 2.5);
        let p = Vec3::new(1.0, 2.0, 3.0);
        let rel = p - origin;
        let jx = [rel.x as f32; 9];
        let jy = [rel.y as f32; 9];
        let jz = [rel.z as f32; 9];
        let jm = [5.0f32; 9];
        let mut out = [GravityAccum::default()];
        accumulate_mixed_staged(origin, &[p], &jx, &jy, &jz, &jm, 0.0, &mut out);
        assert_eq!(out[0], GravityAccum::default());
    }

    /// A position column shorter than the masses is refused on every
    /// path. Four masses fill exactly one f64 vector block, so no scalar
    /// remainder indexes `jx` first: on the AVX2 path only the token
    /// entry's length check stands between this input and an
    /// out-of-bounds load.
    #[test]
    #[should_panic]
    fn f64_soa_refuses_a_short_position_column() {
        let mut out = [GravityAccum::default()];
        let col = [0.5; 4];
        accumulate_f64_soa(&[Vec3::ZERO], &[], &col, &col, &[1.0; 4], 1e-4, &mut out);
    }

    /// The same for the mixed kernel, with the eight masses of one f32
    /// vector block.
    #[test]
    #[should_panic]
    fn mixed_staged_refuses_a_short_position_column() {
        let mut out = [GravityAccum::default()];
        let col = [0.5f32; 8];
        let jm = [1.0f32; 8];
        accumulate_mixed_staged(
            Vec3::ZERO,
            &[Vec3::ZERO],
            &[],
            &col,
            &col,
            &jm,
            1e-4,
            &mut out,
        );
    }

    #[test]
    fn momentum_conservation_pairwise() {
        let (pos, mass) = cloud(50, 4, Vec3::ZERO);
        let mut out = vec![GravityAccum::default(); pos.len()];
        accumulate_f64(&pos, &pos, &mass, 1e-6, &mut out);
        let mut net = Vec3::ZERO;
        for (o, &m) in out.iter().zip(&mass) {
            net += o.acc * m;
        }
        assert!(net.norm() < 1e-9, "net momentum flux {net:?}");
    }
}
