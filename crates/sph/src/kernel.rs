//! SPH smoothing kernels.

#[cfg(target_arch = "x86_64")]
use crate::simd::{self, Avx2};
use pikg::PpaTable;

/// A spherically symmetric SPH kernel with compact support `q = r/h < 2`.
pub trait SphKernel: Sync {
    /// Kernel value `W(r, h)`.
    fn w(&self, r: f64, h: f64) -> f64;
    /// Radial derivative `dW/dr (r, h)`.
    fn dwdr(&self, r: f64, h: f64) -> f64;
    /// `dW/dh (r, h)` — needed by the smoothing-length iteration.
    fn dwdh(&self, r: f64, h: f64) -> f64 {
        // Scaling identity: W = h^-3 f(q) => dW/dh = -(3 W + q dW/dq)/h.
        let q = r / h;
        -(3.0 * self.w(r, h) + q * h * self.dwdr(r, h)) / h
    }
    /// Support radius in units of `h` (2 for the spline family).
    fn support(&self) -> f64 {
        2.0
    }

    /// Batched `W(r[i], h)` with a shared smoothing length: fills
    /// `out[i] = w(r[i], h)`. The default loops the scalar method;
    /// branchless kernels override with a loop the compiler can
    /// vectorize. Overrides must produce the exact same values as the
    /// scalar method element-wise (`tests/kernel_equivalence.rs` pins it).
    fn w_batch(&self, r: &[f64], h: f64, out: &mut [f64]) {
        for (o, &ri) in out.iter_mut().zip(r) {
            *o = self.w(ri, h);
        }
    }

    /// Batched `dW/dr (r[i], h)` with a shared smoothing length.
    fn dwdr_batch(&self, r: &[f64], h: f64, out: &mut [f64]) {
        for (o, &ri) in out.iter_mut().zip(r) {
            *o = self.dwdr(ri, h);
        }
    }

    /// Batched `dW/dr (r[i], h[i])` with a per-element smoothing length —
    /// the j-side gradient of the symmetrized force kernel.
    fn dwdr_batch_per_h(&self, r: &[f64], h: &[f64], out: &mut [f64]) {
        for ((o, &ri), &hi) in out.iter_mut().zip(r).zip(h) {
            *o = self.dwdr(ri, hi);
        }
    }
}

/// The M4 cubic spline (Monaghan & Lattanzio 1985), the kernel ASURA uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct CubicSpline;

impl CubicSpline {
    /// Dimensionless shape `f(q)` with 3-D normalization `1/pi` folded in.
    #[inline]
    pub fn shape(q: f64) -> f64 {
        let a = (2.0 - q).max(0.0);
        let b = (1.0 - q).max(0.0);
        std::f64::consts::FRAC_1_PI * (0.25 * a * a * a - b * b * b)
    }

    /// Shape derivative `df/dq`.
    #[inline]
    pub fn shape_deriv(q: f64) -> f64 {
        let a = (2.0 - q).max(0.0);
        let b = (1.0 - q).max(0.0);
        std::f64::consts::FRAC_1_PI * (3.0 * b * b - 0.75 * a * a)
    }
}

impl SphKernel for CubicSpline {
    #[inline]
    fn w(&self, r: f64, h: f64) -> f64 {
        let hinv = 1.0 / h;
        Self::shape(r * hinv) * hinv * hinv * hinv
    }

    #[inline]
    fn dwdr(&self, r: f64, h: f64) -> f64 {
        let hinv = 1.0 / h;
        Self::shape_deriv(r * hinv) * hinv * hinv * hinv * hinv
    }

    // The spline shape is branchless (its compact support comes from the
    // `max(0)` clamps), so the batch loops below carry no control flow and
    // vectorize — four elements per vector where the CPU has AVX2 (the
    // same loops compiled for it, `crate::simd`). Each element evaluates
    // the exact scalar expression in the same operation order, so values
    // are bitwise identical to the scalar methods on every path.

    fn w_batch(&self, r: &[f64], h: f64, out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            return simd::spline_w(avx2, r, h, out);
        }
        spline_w(r, h, out);
    }

    fn dwdr_batch(&self, r: &[f64], h: f64, out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            return simd::spline_dwdr(avx2, r, h, out);
        }
        spline_dwdr(r, h, out);
    }

    fn dwdr_batch_per_h(&self, r: &[f64], h: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            return simd::spline_dwdr_per_h(avx2, r, h, out);
        }
        spline_dwdr_per_h(r, h, out);
    }
}

/// [`CubicSpline::w_batch`]'s loop.
#[inline(always)]
pub(crate) fn spline_w(r: &[f64], h: f64, out: &mut [f64]) {
    let hinv = 1.0 / h;
    for (o, &ri) in out.iter_mut().zip(r) {
        *o = CubicSpline::shape(ri * hinv) * hinv * hinv * hinv;
    }
}

/// [`CubicSpline::dwdr_batch`]'s loop.
#[inline(always)]
pub(crate) fn spline_dwdr(r: &[f64], h: f64, out: &mut [f64]) {
    let hinv = 1.0 / h;
    for (o, &ri) in out.iter_mut().zip(r) {
        *o = CubicSpline::shape_deriv(ri * hinv) * hinv * hinv * hinv * hinv;
    }
}

/// [`CubicSpline::dwdr_batch_per_h`]'s loop.
#[inline(always)]
pub(crate) fn spline_dwdr_per_h(r: &[f64], h: &[f64], out: &mut [f64]) {
    for ((o, &ri), &hi) in out.iter_mut().zip(r).zip(h) {
        let hinv = 1.0 / hi;
        *o = CubicSpline::shape_deriv(ri * hinv) * hinv * hinv * hinv * hinv;
    }
}

/// The Wendland C2 kernel (Wendland 1995; Dehnen & Aly 2012): free of the
/// pairing instability at high neighbour counts — relevant because the
/// paper runs with ~100 neighbours, where the cubic spline is marginal.
/// Support radius 2h, 3-D normalization `21/(16 pi)` on `q in [0, 2)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WendlandC2;

impl WendlandC2 {
    /// Dimensionless shape with normalization folded in: for u = q/2 in
    /// [0, 1): `f(q) = 21/(16 pi) (1-u)^4 (4u + 1)`.
    #[inline]
    pub fn shape(q: f64) -> f64 {
        let u = 0.5 * q;
        if u >= 1.0 {
            return 0.0;
        }
        let omu = 1.0 - u;
        let omu2 = omu * omu;
        21.0 / (16.0 * std::f64::consts::PI) * omu2 * omu2 * (4.0 * u + 1.0)
    }

    /// Shape derivative `df/dq`.
    #[inline]
    pub fn shape_deriv(q: f64) -> f64 {
        let u = 0.5 * q;
        if u >= 1.0 {
            return 0.0;
        }
        let omu = 1.0 - u;
        // d/du [(1-u)^4 (4u+1)] = -20 u (1-u)^3 ; du/dq = 1/2.
        21.0 / (16.0 * std::f64::consts::PI) * (-10.0 * u) * omu * omu * omu
    }
}

impl SphKernel for WendlandC2 {
    #[inline]
    fn w(&self, r: f64, h: f64) -> f64 {
        let hinv = 1.0 / h;
        Self::shape(r * hinv) * hinv * hinv * hinv
    }

    #[inline]
    fn dwdr(&self, r: f64, h: f64) -> f64 {
        let hinv = 1.0 / h;
        Self::shape_deriv(r * hinv) * hinv * hinv * hinv * hinv
    }
}

/// The same spline evaluated through PPA tables (paper §3.5): a table lookup
/// plus a short Horner chain instead of branches — the SIMD-friendly path.
#[derive(Debug, Clone)]
pub struct PpaSpline {
    w_table: PpaTable,
    dw_table: PpaTable,
}

impl PpaSpline {
    /// Build tables with `sections` subdomains of cubic polynomials. The
    /// spline is piecewise cubic, so section counts that are multiples of 2
    /// reproduce it to machine precision.
    pub fn new(sections: usize) -> Self {
        PpaSpline {
            w_table: PpaTable::fit(CubicSpline::shape, 0.0, 2.0, sections, 3),
            dw_table: PpaTable::fit(CubicSpline::shape_deriv, 0.0, 2.0, sections, 3),
        }
    }

    /// Maximum fit error of the value table.
    pub fn max_error(&self) -> f64 {
        self.w_table.max_error().max(self.dw_table.max_error())
    }
}

impl Default for PpaSpline {
    fn default() -> Self {
        Self::new(16)
    }
}

impl SphKernel for PpaSpline {
    #[inline]
    fn w(&self, r: f64, h: f64) -> f64 {
        let hinv = 1.0 / h;
        let q = r * hinv;
        if q >= 2.0 {
            return 0.0;
        }
        self.w_table.eval(q) * hinv * hinv * hinv
    }

    #[inline]
    fn dwdr(&self, r: f64, h: f64) -> f64 {
        let hinv = 1.0 / h;
        let q = r * hinv;
        if q >= 2.0 {
            return 0.0;
        }
        self.dw_table.eval(q) * hinv * hinv * hinv * hinv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spline_normalizes_to_unity() {
        // 4 pi Int_0^2 W(r,h) r^2 dr = 1 for any h (Simpson's rule).
        for h in [0.5, 1.0, 3.0] {
            let k = CubicSpline;
            let n = 4000;
            let rmax = 2.0 * h;
            let dr = rmax / n as f64;
            let mut integral = 0.0;
            for i in 0..n {
                let r0 = i as f64 * dr;
                let rm = r0 + 0.5 * dr;
                let r1 = r0 + dr;
                let f = |r: f64| k.w(r, h) * r * r;
                integral += dr / 6.0 * (f(r0) + 4.0 * f(rm) + f(r1));
            }
            integral *= 4.0 * std::f64::consts::PI;
            assert!((integral - 1.0).abs() < 1e-6, "h={h}: {integral}");
        }
    }

    #[test]
    fn compact_support_is_two_h() {
        let k = CubicSpline;
        assert_eq!(k.w(2.0001, 1.0), 0.0);
        assert_eq!(k.dwdr(2.5, 1.0), 0.0);
        assert!(k.w(1.9999, 1.0) > 0.0);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let k = CubicSpline;
        let h = 1.3;
        for &r in &[0.1, 0.5, 0.9, 1.1, 1.7] {
            let d = 1e-6;
            let fd = (k.w(r + d, h) - k.w(r - d, h)) / (2.0 * d);
            assert!((k.dwdr(r, h) - fd).abs() < 1e-6, "r={r}");
        }
    }

    #[test]
    fn dwdh_matches_finite_difference() {
        let k = CubicSpline;
        let r = 0.8;
        for &h in &[0.7, 1.0, 1.5] {
            let d = 1e-6;
            let fd = (k.w(r, h + d) - k.w(r, h - d)) / (2.0 * d);
            assert!((k.dwdh(r, h) - fd).abs() < 1e-5, "h={h}");
        }
    }

    #[test]
    fn kernel_is_monotone_decreasing() {
        let k = CubicSpline;
        let mut prev = k.w(0.0, 1.0);
        for i in 1..100 {
            let r = 2.0 * i as f64 / 100.0;
            let w = k.w(r, 1.0);
            assert!(w <= prev + 1e-14);
            prev = w;
        }
        // And the derivative is never positive.
        for i in 0..100 {
            assert!(k.dwdr(2.0 * i as f64 / 100.0, 1.0) <= 1e-14);
        }
    }

    #[test]
    fn wendland_normalizes_to_unity() {
        let k = WendlandC2;
        for h in [0.7, 1.0, 2.0] {
            let n = 4000;
            let rmax = 2.0 * h;
            let dr = rmax / n as f64;
            let mut integral = 0.0;
            for i in 0..n {
                let r0 = i as f64 * dr;
                let f = |r: f64| k.w(r, h) * r * r;
                integral += dr / 6.0 * (f(r0) + 4.0 * f(r0 + 0.5 * dr) + f(r0 + dr));
            }
            integral *= 4.0 * std::f64::consts::PI;
            assert!((integral - 1.0).abs() < 1e-6, "h={h}: {integral}");
        }
    }

    #[test]
    fn wendland_derivative_matches_finite_difference() {
        let k = WendlandC2;
        for &r in &[0.1, 0.7, 1.3, 1.9] {
            let d = 1e-6;
            let fd = (k.w(r + d, 1.0) - k.w(r - d, 1.0)) / (2.0 * d);
            assert!((k.dwdr(r, 1.0) - fd).abs() < 1e-6, "r={r}");
        }
    }

    #[test]
    fn wendland_is_more_centrally_peaked_and_monotone() {
        // W(0) = 21/(16 pi) ~ 0.418 vs the spline's 1/pi ~ 0.318: the
        // Wendland kernel concentrates more weight centrally, which is what
        // suppresses the pairing instability at high neighbour counts.
        let w0 = WendlandC2.w(0.0, 1.0);
        let c0 = CubicSpline.w(0.0, 1.0);
        assert!((w0 - 21.0 / (16.0 * std::f64::consts::PI)).abs() < 1e-12);
        assert!(w0 > c0);
        assert_eq!(WendlandC2.w(2.0, 1.0), 0.0);
        // Monotone decreasing with non-positive gradient over the support.
        let mut prev = w0;
        for i in 1..=100 {
            let q = 2.0 * i as f64 / 100.0;
            let w = WendlandC2.w(q, 1.0);
            assert!(w <= prev + 1e-14);
            assert!(WendlandC2.dwdr(q.min(1.999), 1.0) <= 1e-14);
            prev = w;
        }
    }

    #[test]
    fn ppa_spline_is_machine_precise() {
        let ppa = PpaSpline::new(16);
        let exact = CubicSpline;
        assert!(ppa.max_error() < 1e-13, "fit error {}", ppa.max_error());
        for i in 0..200 {
            let r = 2.2 * i as f64 / 200.0;
            assert!((ppa.w(r, 1.1) - exact.w(r, 1.1)).abs() < 1e-12);
            assert!((ppa.dwdr(r, 1.1) - exact.dwdr(r, 1.1)).abs() < 1e-12);
        }
    }

    #[test]
    fn batch_methods_match_scalar_methods() {
        // The default batch impls loop the scalar methods; the CubicSpline
        // overrides must stay bitwise identical to them element-wise.
        let r: Vec<f64> = (0..97).map(|i| 2.3 * i as f64 / 96.0).collect();
        let hj: Vec<f64> = (0..97).map(|i| 0.6 + 0.01 * (i % 13) as f64).collect();
        let kernels: [&dyn SphKernel; 3] = [&CubicSpline, &WendlandC2, &PpaSpline::new(16)];
        for k in kernels {
            let mut w = vec![0.0; r.len()];
            let mut dw = vec![0.0; r.len()];
            let mut dwj = vec![0.0; r.len()];
            k.w_batch(&r, 1.1, &mut w);
            k.dwdr_batch(&r, 1.1, &mut dw);
            k.dwdr_batch_per_h(&r, &hj, &mut dwj);
            for i in 0..r.len() {
                assert_eq!(w[i].to_bits(), k.w(r[i], 1.1).to_bits(), "w[{i}]");
                assert_eq!(dw[i].to_bits(), k.dwdr(r[i], 1.1).to_bits(), "dwdr[{i}]");
                assert_eq!(
                    dwj[i].to_bits(),
                    k.dwdr(r[i], hj[i]).to_bits(),
                    "dwdr_per_h[{i}]"
                );
            }
        }
    }

    #[test]
    fn ppa_spline_vanishes_outside_support() {
        let ppa = PpaSpline::default();
        assert_eq!(ppa.w(3.0, 1.0), 0.0);
        assert_eq!(ppa.dwdr(2.01, 1.0), 0.0);
    }
}
