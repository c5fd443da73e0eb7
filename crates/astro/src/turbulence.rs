//! Turbulent velocity fields with a `P(k) ∝ k^-4` (Burgers) spectrum.
//!
//! Paper §3.3: "we use density fields disturbed by turbulent velocity
//! fields that follow ∝ v^-4, which imitate environments of star-forming
//! regions". The field is synthesized as a superposition of randomly
//! oriented, randomly phased solenoidal plane waves whose amplitudes follow
//! the target spectrum — no FFT needed, and the field is smooth and
//! divergence-free by construction.

use rand::Rng;

/// A synthesized turbulent velocity field on a periodic cube of side `l`.
#[derive(Debug, Clone)]
pub struct TurbulentField {
    modes: Vec<Mode>,
    /// RMS velocity the field is scaled to.
    pub v_rms: f64,
}

#[derive(Debug, Clone, Copy)]
struct Mode {
    k: [f64; 3],
    /// Polarization unit vector, perpendicular to k (solenoidal).
    e: [f64; 3],
    amp: f64,
    phase: f64,
}

impl TurbulentField {
    /// Build a field on a cube of side `l` with wavenumbers `1..=k_max`
    /// (in units of `2 pi / l`), spectral slope `P(k) ∝ k^{-slope}` (the
    /// paper's value is 4), scaled to `v_rms`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, l: f64, k_max: usize, slope: f64, v_rms: f64) -> Self {
        assert!(l > 0.0 && k_max >= 1 && v_rms >= 0.0);
        let two_pi = std::f64::consts::TAU;
        let mut modes = Vec::new();
        for kx in -(k_max as i64)..=(k_max as i64) {
            for ky in -(k_max as i64)..=(k_max as i64) {
                for kz in 0..=(k_max as i64) {
                    // Half-space to avoid double-counting conjugate modes.
                    if kz == 0 && (ky < 0 || (ky == 0 && kx <= 0)) {
                        continue;
                    }
                    let kn2 = (kx * kx + ky * ky + kz * kz) as f64;
                    let kn = kn2.sqrt();
                    if kn < 0.5 || kn > k_max as f64 {
                        continue;
                    }
                    let k = [
                        two_pi * kx as f64 / l,
                        two_pi * ky as f64 / l,
                        two_pi * kz as f64 / l,
                    ];
                    // Random solenoidal polarization: project a random
                    // vector onto the plane perpendicular to k.
                    let r = [
                        rng.gen_range(-1.0..1.0f64),
                        rng.gen_range(-1.0..1.0f64),
                        rng.gen_range(-1.0..1.0f64),
                    ];
                    let dot = (r[0] * k[0] + r[1] * k[1] + r[2] * k[2])
                        / (k[0] * k[0] + k[1] * k[1] + k[2] * k[2]);
                    let mut e = [r[0] - dot * k[0], r[1] - dot * k[1], r[2] - dot * k[2]];
                    let en = (e[0] * e[0] + e[1] * e[1] + e[2] * e[2]).sqrt();
                    if en < 1e-9 {
                        continue; // degenerate draw
                    }
                    for c in e.iter_mut() {
                        *c /= en;
                    }
                    // Amplitude: |v_k|^2 ∝ P(k) ∝ k^-slope, Rayleigh draw.
                    let sigma = kn.powf(-slope * 0.5);
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    let amp = sigma * (-2.0 * u.ln()).sqrt();
                    modes.push(Mode {
                        k,
                        e,
                        amp,
                        phase: rng.gen_range(0.0..two_pi),
                    });
                }
            }
        }
        assert!(!modes.is_empty(), "k_max too small for any mode");
        let mut field = TurbulentField { modes, v_rms: 1.0 };
        // Normalize to the requested rms using the analytic mode variance:
        // each cosine mode contributes amp^2/2 per component set.
        let var: f64 = field.modes.iter().map(|m| 0.5 * m.amp * m.amp).sum();
        let scale = if var > 0.0 { v_rms / var.sqrt() } else { 0.0 };
        for m in field.modes.iter_mut() {
            m.amp *= scale;
        }
        field.v_rms = v_rms;
        field
    }

    /// Velocity at a position.
    pub fn velocity(&self, p: [f64; 3]) -> [f64; 3] {
        let mut v = [0.0; 3];
        for m in &self.modes {
            let phase = m.k[0] * p[0] + m.k[1] * p[1] + m.k[2] * p[2] + m.phase;
            let c = m.amp * phase.cos();
            v[0] += c * m.e[0];
            v[1] += c * m.e[1];
            v[2] += c * m.e[2];
        }
        v
    }

    /// Numerical divergence at `p` (central differences, step `eps`).
    pub fn divergence(&self, p: [f64; 3], eps: f64) -> f64 {
        let mut div = 0.0;
        for axis in 0..3 {
            let mut hi = p;
            let mut lo = p;
            hi[axis] += eps;
            lo[axis] -= eps;
            div += (self.velocity(hi)[axis] - self.velocity(lo)[axis]) / (2.0 * eps);
        }
        div
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rms_velocity_matches_request() {
        let mut rng = StdRng::seed_from_u64(1);
        let field = TurbulentField::new(&mut rng, 60.0, 4, 4.0, 10.0);
        let mut sum2 = 0.0;
        let n = 1000;
        let mut r2 = StdRng::seed_from_u64(2);
        for _ in 0..n {
            let p = [
                r2.gen_range(0.0..60.0),
                r2.gen_range(0.0..60.0),
                r2.gen_range(0.0..60.0),
            ];
            let v = field.velocity(p);
            sum2 += v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
        }
        let rms = (sum2 / n as f64).sqrt();
        assert!((rms / 10.0 - 1.0).abs() < 0.25, "rms = {rms}, wanted 10");
    }

    #[test]
    fn field_is_nearly_divergence_free() {
        let mut rng = StdRng::seed_from_u64(3);
        let field = TurbulentField::new(&mut rng, 60.0, 3, 4.0, 5.0);
        let mut r2 = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let p = [
                r2.gen_range(0.0..60.0),
                r2.gen_range(0.0..60.0),
                r2.gen_range(0.0..60.0),
            ];
            let div = field.divergence(p, 1e-4);
            // Compare against the velocity gradient scale v_rms * k_typ.
            let scale = 5.0 * std::f64::consts::TAU / 60.0 * 3.0;
            assert!(
                div.abs() < 0.02 * scale + 1e-6,
                "divergence {div} too large"
            );
        }
    }

    #[test]
    fn spectrum_is_steep_large_scales_dominate() {
        // With slope 4, the k=1 modes must carry far more power than k_max.
        let mut rng = StdRng::seed_from_u64(5);
        let field = TurbulentField::new(&mut rng, 1.0, 6, 4.0, 1.0);
        let mut p_low = 0.0;
        let mut p_high = 0.0;
        let two_pi = std::f64::consts::TAU;
        for m in &field.modes {
            let kn = (m.k[0] * m.k[0] + m.k[1] * m.k[1] + m.k[2] * m.k[2]).sqrt() / two_pi;
            if kn < 2.0 {
                p_low += 0.5 * m.amp * m.amp;
            } else if kn > 4.0 {
                p_high += 0.5 * m.amp * m.amp;
            }
        }
        // Rayleigh-drawn amplitudes fluctuate, so the margin is loose; the
        // analytic shell-power ratio is ~10x.
        assert!(p_low > 2.0 * p_high, "low {p_low} vs high {p_high}");
    }

    #[test]
    fn field_is_periodic() {
        let mut rng = StdRng::seed_from_u64(6);
        let l = 10.0;
        let field = TurbulentField::new(&mut rng, l, 3, 4.0, 1.0);
        let p = [1.2, 3.4, 5.6];
        let q = [p[0] + l, p[1] - l, p[2] + 2.0 * l];
        let vp = field.velocity(p);
        let vq = field.velocity(q);
        for a in 0..3 {
            assert!((vp[a] - vq[a]).abs() < 1e-9, "axis {a}");
        }
    }

    #[test]
    fn zero_rms_gives_zero_field() {
        let mut rng = StdRng::seed_from_u64(7);
        let field = TurbulentField::new(&mut rng, 10.0, 2, 4.0, 0.0);
        let v = field.velocity([1.0, 2.0, 3.0]);
        assert_eq!(v, [0.0, 0.0, 0.0]);
    }
}
