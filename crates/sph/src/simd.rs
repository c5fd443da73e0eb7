//! AVX2 bodies of the SPH pair loops, chosen at run time by CPU feature.
//!
//! The loops of both SPH passes run here at SIMD width: the force pass's
//! candidate selection ([`crate::force::ForceBatch::stage`] — the
//! pre-selection, then the exact support test) and pair body
//! ([`crate::force::force_batch`]), the density pass's row selection
//! ([`crate::density::NeighborCache::stage_rows`]) and in-support
//! selection ([`crate::density::NeighborCache::sum_density`]), and the
//! cubic spline's batch loops, which the compiler vectorizes itself once
//! compiled for AVX2. Each has a portable twin next to its caller, and
//! the two agree on every output bit because they follow the recipe of
//! `gravity::kernel` and `unet::conv`:
//!
//! - **Fixed lanes.** One `__m256d` carries the four `f64` lanes a
//!   `[f64; 4]` carries on the portable side: staged pair `q` of a full
//!   block of four is lane `q % 4`, and the pairs after the last full
//!   block run the shared scalar expression into lane 0.
//! - **Exactly rounded operations only.** add, sub, mul, div, sqrt,
//!   ordered-quiet compares and bit masks — never FMA, which would
//!   contract a rounding step — in the association order of the scalar
//!   expression they mirror.
//! - **Selects for branches.** The viscosity of approaching pairs is the
//!   viscosity term ANDed with the `vdotr < 0` mask, which is `+0.0`
//!   where the scalar select writes `0.0`.
//! - **`max` in `f64::max`'s operand order.** Where the scalar code has
//!   `acc.max(v)`, the vector code has `_mm256_max_pd(v, acc)`, which is
//!   `v > acc ? v : acc`. That is `f64::max` whenever `acc` is not NaN,
//!   and an accumulator that starts at `0.0` and only ever takes a larger
//!   value never is. Where the scalar code takes `a.max(b)` with a
//!   loop-invariant `a` only to compare against it, a NaN `a` is replaced
//!   by `-inf` once per call: both make the comparison come out as
//!   `f64::max` would.
//! - **Compaction by permutation.** A selection loop keeps the rows whose
//!   mask bit is set, packed to the front in row order by the `lanes`
//!   compaction. Its 4-wide store may write up to four slots past the
//!   last kept row, all inside the block just read, so nothing beyond the
//!   candidate's own slots is touched and the caller's truncation drops
//!   the rest.
//! - **One tail.** After a selection's last full block of four, the rest
//!   of the span runs through the portable twin, into the slots from the
//!   write position on. Only `force_exact`, which compacts in place,
//!   keeps a scalar tail.
//!
//! Every `unsafe` operation of the crate is in this module (the crate
//! denies `unsafe_code` everywhere else). Each body is reached through a
//! safe function that takes a [`lanes::Avx2`] token, which exists only
//! on a CPU with AVX2, and checks every extent the raw loads, gathers and
//! stores rely on before entering it; inside, each load carries a bounds
//! `debug_assert!`.

use crate::density::{select_below_portable, select_rows_portable, DensitySources};
use crate::force::{
    pair_terms, preselect_portable, ForceSources, HydroInput, Lanes, PairColumns, Viscosity,
};
use crate::kernel;
use fdps::Vec3;
pub(crate) use lanes::Avx2;
use lanes::{store_packed_pd, store_packed_u32, W};
use std::arch::x86_64::*;

const _: () = assert!(W == crate::force::FORCE_LANES);

/// The pre-selection of [`crate::force::ForceBatch::stage`]: the twin of
/// `force::preselect_portable`, same arguments, same result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn preselect(
    _: Avx2,
    support: f64,
    xi: Vec3,
    reach_i2: f64,
    sources: &ForceSources,
    spans: &[(u32, u32)],
    near: &mut [u32],
    r2: &mut [f64],
) -> usize {
    let s = sources;
    check_spans(spans, [&s.x, &s.y, &s.z, &s.h], near.len().min(r2.len()));
    // SAFETY: the token proves AVX2; every span lies inside the four
    // columns the body loads and the spans fit the output slots.
    unsafe { force_preselect(support, xi, reach_i2, sources, spans, near, r2) }
}

/// The exact test of [`crate::force::ForceBatch::stage`]: the twin of
/// `force::exact_portable`, same arguments, same result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exact(
    _: Avx2,
    support: f64,
    hi: f64,
    h: &[f64],
    near: &mut [u32],
    r2: &mut [f64],
    r: &mut [f64],
    hj: &mut [f64],
) -> usize {
    let n = near.len();
    assert!(
        r2.len() == n && r.len() == n && hj.len() == n,
        "column lengths"
    );
    check_gather(near, &[h]);
    // SAFETY: the token proves AVX2; the four columns share one length
    // and every gathered position is inside `h`.
    unsafe { force_exact(support, hi, h, near, r2, r, hj) }
}

/// The pair body of [`crate::force::force_batch`]: the twin of
/// `force::force_lanes_portable`, same arguments, same lanes.
pub(crate) fn force_lanes(
    _: Avx2,
    pi: &HydroInput,
    visc: &Viscosity,
    src: &ForceSources,
    cols: &PairColumns,
) -> Lanes {
    let n = cols.near.len();
    let staged = [cols.r2, cols.r, cols.hj, cols.dwi, cols.dwj];
    assert!(staged.iter().all(|c| c.len() == n), "column lengths");
    let gathered: [&[f64]; 10] = [
        &src.x, &src.y, &src.z, &src.vx, &src.vy, &src.vz, &src.cs, &src.rho, &src.m, &src.p2,
    ];
    check_gather(cols.near, &gathered);
    // SAFETY: the token proves AVX2; the staged columns share one length
    // and every gathered position is inside every source column.
    unsafe { force_lanes_body(pi, visc, src, cols) }
}

/// The row selection of the density pass's `stage_target`: the twin of
/// `density::select_rows_portable`, same arguments, same result.
pub(crate) fn select_rows(
    _: Avx2,
    xi: Vec3,
    limit: f64,
    sources: &DensitySources,
    spans: &[(u32, u32)],
    r: &mut [f64],
    m: &mut [f64],
) -> usize {
    let s = sources;
    check_spans(spans, [&s.x, &s.y, &s.z, &s.m], r.len().min(m.len()));
    // SAFETY: the token proves AVX2; every span lies inside the four
    // columns the body loads and the spans fit the output slots.
    unsafe { density_select(xi, limit, sources, spans, r, m) }
}

/// The in-support selection of the density sum: the twin of
/// `density::select_below_portable`, same arguments, same result.
pub(crate) fn select_below(
    _: Avx2,
    rad: f64,
    r: &[f64],
    m: &[f64],
    r_in: &mut [f64],
    m_in: &mut [f64],
) -> usize {
    let n = r.len();
    assert!(
        m.len() == n && r_in.len() >= n && m_in.len() >= n,
        "column lengths"
    );
    // SAFETY: the token proves AVX2; both inputs hold `n` rows and both
    // outputs at least `n` slots.
    unsafe { density_below(rad, r, m, r_in, m_in) }
}

/// The cubic spline's batch loops compiled for AVX2: the element-wise
/// expressions of `kernel::spline_*`, which the compiler vectorizes four
/// elements per vector without reordering any element's operations.
pub(crate) fn spline_w(_: Avx2, r: &[f64], h: f64, out: &mut [f64]) {
    // SAFETY: the token proves AVX2; the loop only indexes safe slices.
    unsafe { spline_w_body(r, h, out) }
}

pub(crate) fn spline_dwdr(_: Avx2, r: &[f64], h: f64, out: &mut [f64]) {
    // SAFETY: the token proves AVX2; the loop only indexes safe slices.
    unsafe { spline_dwdr_body(r, h, out) }
}

pub(crate) fn spline_dwdr_per_h(_: Avx2, r: &[f64], h: &[f64], out: &mut [f64]) {
    // SAFETY: the token proves AVX2; the loop only indexes safe slices.
    unsafe { spline_dwdr_per_h_body(r, h, out) }
}

/// Body of [`spline_w`].
///
/// # Safety
///
/// The CPU supports AVX2.
#[target_feature(enable = "avx2")]
fn spline_w_body(r: &[f64], h: f64, out: &mut [f64]) {
    kernel::spline_w(r, h, out)
}

/// Body of [`spline_dwdr`].
///
/// # Safety
///
/// The CPU supports AVX2.
#[target_feature(enable = "avx2")]
fn spline_dwdr_body(r: &[f64], h: f64, out: &mut [f64]) {
    kernel::spline_dwdr(r, h, out)
}

/// Body of [`spline_dwdr_per_h`].
///
/// # Safety
///
/// The CPU supports AVX2.
#[target_feature(enable = "avx2")]
fn spline_dwdr_per_h_body(r: &[f64], h: &[f64], out: &mut [f64]) {
    kernel::spline_dwdr_per_h(r, h, out)
}

/// Every span is an ordered range inside each of `cols`, and together
/// they name at most `slots` rows.
fn check_spans(spans: &[(u32, u32)], cols: [&[f64]; 4], slots: usize) {
    let len = cols.iter().map(|c| c.len()).min().unwrap_or(0);
    let mut rows = 0usize;
    for &(s, e) in spans {
        assert!(
            s <= e && e as usize <= len,
            "span {s}..{e} of {len} sources"
        );
        rows += (e - s) as usize;
    }
    assert!(rows <= slots, "{rows} candidates for {slots} slots");
}

/// Every position in `near` is inside each of `cols`, whose length fits
/// the signed 32-bit offsets of `vgatherdpd`.
fn check_gather(near: &[u32], cols: &[&[f64]]) {
    let len = cols.iter().map(|c| c.len()).min().unwrap_or(0);
    assert!(len <= i32::MAX as usize, "{len} sources overflow a gather");
    let top = near.iter().copied().max().map_or(0, |k| k as usize + 1);
    assert!(top <= len, "position {} of {len} sources", top - 1);
}

/// `x[at..at + W]` as one vector.
///
/// # Safety
///
/// SAFETY: callers guarantee AVX2 and `at + W <= x.len()`.
#[target_feature(enable = "avx2")]
unsafe fn load(x: &[f64], at: usize) -> __m256d {
    debug_assert!(at + W <= x.len());
    // SAFETY: `at + W <= x.len()` is the caller's obligation.
    unsafe { _mm256_loadu_pd(x.as_ptr().add(at)) }
}

/// `x[k]` for the four positions `k` in `idx`.
///
/// # Safety
///
/// SAFETY: callers guarantee AVX2 and that every lane of `idx` is a
/// position inside `x` (so `x.len() <= i32::MAX` covers its offsets).
#[target_feature(enable = "avx2")]
unsafe fn gather(x: &[f64], idx: __m128i) -> __m256d {
    #[cfg(debug_assertions)]
    {
        let mut lanes = [0u32; W];
        // SAFETY: `lanes` is four `u32`, exactly one 128-bit store.
        unsafe { _mm_storeu_si128(lanes.as_mut_ptr().cast(), idx) };
        debug_assert!(lanes.iter().all(|&k| (k as usize) < x.len()));
    }
    // SAFETY: every lane of `idx` is inside `x` — the caller's obligation.
    unsafe { _mm256_i32gather_pd::<8>(x.as_ptr(), idx) }
}

/// `near[at..at + W]` as one vector.
///
/// # Safety
///
/// SAFETY: callers guarantee AVX2 and `at + W <= near.len()`.
#[target_feature(enable = "avx2")]
unsafe fn load_u32(near: &[u32], at: usize) -> __m128i {
    debug_assert!(at + W <= near.len());
    // SAFETY: `at + W <= near.len()` is the caller's obligation.
    unsafe { _mm_loadu_si128(near.as_ptr().add(at).cast()) }
}

/// `4 × f64` lanes of `x`.
///
/// # Safety
///
/// The CPU supports AVX2.
#[target_feature(enable = "avx2")]
fn splat(x: f64) -> __m256d {
    _mm256_set1_pd(x)
}

/// `(dx·dx + dy·dy) + dz·dz`, the scalar association.
///
/// # Safety
///
/// The CPU supports AVX2.
#[target_feature(enable = "avx2")]
fn norm2(dx: __m256d, dy: __m256d, dz: __m256d) -> __m256d {
    _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
        _mm256_mul_pd(dz, dz),
    )
}

/// `a` as the left operand of a `max` whose result is only compared
/// against: a NaN becomes `-inf` (see the module docs).
///
/// # Safety
///
/// The CPU supports AVX2.
#[target_feature(enable = "avx2")]
fn max_operand(a: f64) -> __m256d {
    splat(if a.is_nan() { f64::NEG_INFINITY } else { a })
}

/// Body of [`preselect`].
///
/// # Safety
///
/// SAFETY: callers guarantee AVX2, that every span is an ordered range
/// inside `sources.x`, `.y`, `.z` and `.h`, and that the spans name at
/// most `min(near.len(), r2.len())` rows.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn force_preselect(
    support: f64,
    xi: Vec3,
    reach_i2: f64,
    sources: &ForceSources,
    spans: &[(u32, u32)],
    near: &mut [u32],
    r2: &mut [f64],
) -> usize {
    let (xv, yv, zv) = (splat(xi.x), splat(xi.y), splat(xi.z));
    let (sup, zero) = (splat(support), _mm256_setzero_pd());
    let ri2 = max_operand(reach_i2);
    let mut kept = 0;
    for &(s, e) in spans {
        let (mut k, e) = (s as usize, e as usize);
        while k + W <= e {
            // SAFETY: `k + W <= e`, inside every column the span indexes.
            let (x, y, z, h) = unsafe {
                (
                    load(&sources.x, k),
                    load(&sources.y, k),
                    load(&sources.z, k),
                    load(&sources.h, k),
                )
            };
            let d2 = norm2(
                _mm256_sub_pd(xv, x),
                _mm256_sub_pd(yv, y),
                _mm256_sub_pd(zv, z),
            );
            let reach_j = _mm256_mul_pd(sup, h);
            let lim = _mm256_max_pd(_mm256_mul_pd(reach_j, reach_j), ri2);
            let hit = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GT_OQ>(d2, zero),
                _mm256_cmp_pd::<_CMP_LE_OQ>(d2, lim),
            );
            let mask = _mm256_movemask_pd(hit) as usize;
            let rows = _mm_add_epi32(_mm_set1_epi32(k as i32), _mm_setr_epi32(0, 1, 2, 3));
            // SAFETY: `kept` is at most the number of rows before this
            // block, so `kept + W` is at most the rows through it, which
            // the caller bounds by both output lengths.
            unsafe {
                store_packed_u32(near, kept, rows, mask);
                store_packed_pd(r2, kept, d2, mask);
            }
            kept += mask.count_ones() as usize;
            k += W;
        }
        let rest = [(k as u32, e as u32)];
        let (near_rest, r2_rest) = (&mut near[kept..], &mut r2[kept..]);
        kept += preselect_portable(support, xi, reach_i2, sources, &rest, near_rest, r2_rest);
    }
    kept
}

/// Body of [`exact`].
///
/// # Safety
///
/// SAFETY: callers guarantee AVX2, that `near`, `r2`, `r` and `hj` share
/// one length and that every entry of `near` is a position inside `h`.
#[target_feature(enable = "avx2")]
unsafe fn force_exact(
    support: f64,
    hi: f64,
    h: &[f64],
    near: &mut [u32],
    r2: &mut [f64],
    r: &mut [f64],
    hj: &mut [f64],
) -> usize {
    let n = near.len();
    let (sup, hiv) = (splat(support), max_operand(hi));
    let (mut kept, mut q) = (0, 0);
    while q + W <= n {
        // SAFETY: `q + W <= n`, the length of both columns.
        let (k, d2) = unsafe { (load_u32(near, q), load(r2, q)) };
        // SAFETY: every entry of `near` is inside `h`.
        let h_j = unsafe { gather(h, k) };
        let d = _mm256_sqrt_pd(d2);
        let lim = _mm256_mul_pd(sup, _mm256_max_pd(h_j, hiv));
        let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(d, lim)) as usize;
        // SAFETY: `kept <= q` and `q + W <= n`; rows `q..q + W` were read
        // above, so packing them in place overwrites nothing unread.
        unsafe {
            store_packed_u32(near, kept, k, mask);
            store_packed_pd(r2, kept, d2, mask);
            store_packed_pd(r, kept, d, mask);
            store_packed_pd(hj, kept, h_j, mask);
        }
        kept += mask.count_ones() as usize;
        q += W;
    }
    for q in q..n {
        let (k, d2) = (near[q], r2[q]);
        let (d, h_j) = (d2.sqrt(), h[k as usize]);
        near[kept] = k;
        r2[kept] = d2;
        r[kept] = d;
        hj[kept] = h_j;
        kept += (d < support * hi.max(h_j)) as usize;
    }
    kept
}

/// Body of [`force_lanes`]: `force::pair_terms`, one operation at a
/// time over four pairs.
///
/// # Safety
///
/// SAFETY: callers guarantee AVX2, that every column of `cols` has the
/// length of `cols.near`, and that every entry of `cols.near` is a
/// position inside every column of `src` the body gathers from.
#[target_feature(enable = "avx2")]
unsafe fn force_lanes_body(
    pi: &HydroInput,
    visc: &Viscosity,
    src: &ForceSources,
    cols: &PairColumns,
) -> Lanes {
    let n = cols.near.len();
    let full = n - n % W;
    let (xi, yi, zi) = (splat(pi.pos.x), splat(pi.pos.y), splat(pi.pos.z));
    let (vxi, vyi, vzi) = (splat(pi.vel.x), splat(pi.vel.y), splat(pi.vel.z));
    let (hi, csi, rhoi, p2i) = (
        splat(pi.h),
        splat(pi.cs),
        splat(pi.rho),
        splat(pi.p_over_rho2),
    );
    let (half, one, three) = (splat(0.5), splat(1.0), splat(3.0));
    let (eta2, neg_alpha, beta) = (splat(visc.eta2), splat(-visc.alpha), splat(visc.beta));
    let (zero, sign) = (_mm256_setzero_pd(), splat(-0.0));
    let (mut ax, mut ay, mut az, mut du, mut vs) = (zero, zero, zero, zero, zero);
    let mut q = 0;
    while q < full {
        // SAFETY: `q + W <= n`, the length of every staged column.
        let (k, r2, r, hj, dwi, dwj) = unsafe {
            (
                load_u32(cols.near, q),
                load(cols.r2, q),
                load(cols.r, q),
                load(cols.hj, q),
                load(cols.dwi, q),
                load(cols.dwj, q),
            )
        };
        // SAFETY: every entry of `cols.near` is inside every source column.
        let (x, y, z, vx, vy, vz) = unsafe {
            (
                gather(&src.x, k),
                gather(&src.y, k),
                gather(&src.z, k),
                gather(&src.vx, k),
                gather(&src.vy, k),
                gather(&src.vz, k),
            )
        };
        // SAFETY: as above.
        let (csj, rhoj, mj, p2j) = unsafe {
            (
                gather(&src.cs, k),
                gather(&src.rho, k),
                gather(&src.m, k),
                gather(&src.p2, k),
            )
        };
        let (dx, dy, dz) = (
            _mm256_sub_pd(xi, x),
            _mm256_sub_pd(yi, y),
            _mm256_sub_pd(zi, z),
        );
        let (dvx, dvy, dvz) = (
            _mm256_sub_pd(vxi, vx),
            _mm256_sub_pd(vyi, vy),
            _mm256_sub_pd(vzi, vz),
        );
        let dw = _mm256_mul_pd(half, _mm256_add_pd(dwi, dwj));
        let gf = _mm256_mul_pd(dw, _mm256_div_pd(one, r));
        let (gx, gy, gz) = (
            _mm256_mul_pd(dx, gf),
            _mm256_mul_pd(dy, gf),
            _mm256_mul_pd(dz, gf),
        );
        let vdotr = _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(dvx, dx), _mm256_mul_pd(dvy, dy)),
            _mm256_mul_pd(dvz, dz),
        );
        let h_mean = _mm256_mul_pd(half, _mm256_add_pd(hi, hj));
        let cs_sum = _mm256_add_pd(csi, csj);
        let c_mean = _mm256_mul_pd(half, cs_sum);
        let rho_mean = _mm256_mul_pd(half, _mm256_add_pd(rhoi, rhoj));
        let mu_all = _mm256_div_pd(
            _mm256_mul_pd(h_mean, vdotr),
            _mm256_add_pd(r2, _mm256_mul_pd(_mm256_mul_pd(eta2, h_mean), h_mean)),
        );
        let mu = _mm256_and_pd(mu_all, _mm256_cmp_pd::<_CMP_LT_OQ>(vdotr, zero));
        let visc_term = _mm256_div_pd(
            _mm256_add_pd(
                _mm256_mul_pd(_mm256_mul_pd(neg_alpha, c_mean), mu),
                _mm256_mul_pd(_mm256_mul_pd(beta, mu), mu),
            ),
            rho_mean,
        );
        let v_sig = _mm256_sub_pd(cs_sum, _mm256_mul_pd(three, mu));
        let fac = _mm256_add_pd(_mm256_add_pd(p2i, p2j), visc_term);
        let mf = _mm256_mul_pd(mj, fac);
        let dudt = _mm256_mul_pd(
            _mm256_mul_pd(mj, _mm256_add_pd(p2i, _mm256_mul_pd(half, visc_term))),
            _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dvx, gx), _mm256_mul_pd(dvy, gy)),
                _mm256_mul_pd(dvz, gz),
            ),
        );
        // `acc += -(g * mf)`: the negation flips the sign bit, as `-x` does.
        ax = _mm256_add_pd(ax, _mm256_xor_pd(_mm256_mul_pd(gx, mf), sign));
        ay = _mm256_add_pd(ay, _mm256_xor_pd(_mm256_mul_pd(gy, mf), sign));
        az = _mm256_add_pd(az, _mm256_xor_pd(_mm256_mul_pd(gz, mf), sign));
        du = _mm256_add_pd(du, dudt);
        vs = _mm256_max_pd(v_sig, vs);
        q += W;
    }
    let mut lanes = Lanes::default();
    // SAFETY: each destination is a `[f64; 4]`, exactly one 256-bit store.
    unsafe {
        _mm256_storeu_pd(lanes.ax.as_mut_ptr(), ax);
        _mm256_storeu_pd(lanes.ay.as_mut_ptr(), ay);
        _mm256_storeu_pd(lanes.az.as_mut_ptr(), az);
        _mm256_storeu_pd(lanes.du.as_mut_ptr(), du);
        _mm256_storeu_pd(lanes.vs.as_mut_ptr(), vs);
    }
    for q in full..n {
        lanes.add(0, pair_terms(pi, visc, src, cols, q));
    }
    lanes
}

/// Body of [`select_rows`].
///
/// # Safety
///
/// SAFETY: callers guarantee AVX2, that every span is an ordered range
/// inside `sources.x`, `.y`, `.z` and `.m`, and that the spans name at
/// most `min(r.len(), m.len())` rows.
#[target_feature(enable = "avx2")]
unsafe fn density_select(
    xi: Vec3,
    limit: f64,
    sources: &DensitySources,
    spans: &[(u32, u32)],
    r: &mut [f64],
    m: &mut [f64],
) -> usize {
    let (xv, yv, zv) = (splat(xi.x), splat(xi.y), splat(xi.z));
    let lim = splat(limit);
    let mut kept = 0;
    for &(s, e) in spans {
        let (mut k, e) = (s as usize, e as usize);
        while k + W <= e {
            // SAFETY: `k + W <= e`, inside every column the span indexes.
            let (x, y, z, mass) = unsafe {
                (
                    load(&sources.x, k),
                    load(&sources.y, k),
                    load(&sources.z, k),
                    load(&sources.m, k),
                )
            };
            let d2 = norm2(
                _mm256_sub_pd(xv, x),
                _mm256_sub_pd(yv, y),
                _mm256_sub_pd(zv, z),
            );
            let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(d2, lim)) as usize;
            // SAFETY: `kept` is at most the number of rows before this
            // block, so `kept + W` is at most the rows through it, which
            // the caller bounds by both output lengths.
            unsafe {
                store_packed_pd(r, kept, d2, mask);
                store_packed_pd(m, kept, mass, mask);
            }
            kept += mask.count_ones() as usize;
            k += W;
        }
        let rest = [(k as u32, e as u32)];
        kept += select_rows_portable(xi, limit, sources, &rest, &mut r[kept..], &mut m[kept..]);
    }
    kept
}

/// Body of [`select_below`].
///
/// # Safety
///
/// SAFETY: callers guarantee AVX2, that `m` is as long as `r` and that
/// `r_in` and `m_in` are at least that long.
#[target_feature(enable = "avx2")]
unsafe fn density_below(
    rad: f64,
    r: &[f64],
    m: &[f64],
    r_in: &mut [f64],
    m_in: &mut [f64],
) -> usize {
    let n = r.len();
    let radv = splat(rad);
    let (mut kept, mut q) = (0, 0);
    while q + W <= n {
        // SAFETY: `q + W <= n`, the length of both inputs.
        let (d, mass) = unsafe { (load(r, q), load(m, q)) };
        let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(d, radv)) as usize;
        // SAFETY: `kept <= q` and `q + W <= n`, at most both output lengths.
        unsafe {
            store_packed_pd(r_in, kept, d, mask);
            store_packed_pd(m_in, kept, mass, mask);
        }
        kept += mask.count_ones() as usize;
        q += W;
    }
    kept + select_below_portable(rad, &r[q..], &m[q..], &mut r_in[kept..], &mut m_in[kept..])
}
