//! Host calibration: measure this machine's interaction-kernel throughput
//! so benches can report host GFLOPS next to the paper's Table 4 numbers.

use pikg::kernels::PAPER_GRAVITY_OPS;
use std::time::Instant;

/// Result of a kernel throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct KernelRate {
    /// Counted GFLOP/s (paper operation conventions).
    pub gflops: f64,
    /// Interactions per second.
    pub interactions_per_s: f64,
}

/// Measure the softened gravity kernel on `n_i x n_j` synthetic
/// interactions, in single precision relative coordinates (the paper's hot
/// loop shape).
#[expect(clippy::disallowed_methods, reason = "calibration measures wall time")]
pub fn measure_gravity(n_i: usize, n_j: usize, repeats: usize) -> KernelRate {
    let jx: Vec<f32> = (0..n_j).map(|j| (j as f32 * 0.37).sin()).collect();
    let jy: Vec<f32> = (0..n_j).map(|j| (j as f32 * 0.73).cos()).collect();
    let jz: Vec<f32> = (0..n_j).map(|j| (j as f32 * 0.11).sin()).collect();
    let jm: Vec<f32> = (0..n_j).map(|j| 1.0 + (j % 7) as f32 * 0.1).collect();
    let mut acc = vec![[0.0f32; 4]; n_i];

    let t0 = Instant::now();
    for _ in 0..repeats {
        for (i, out) in acc.iter_mut().enumerate() {
            let xi = (i as f32 * 0.21).cos();
            let yi = (i as f32 * 0.57).sin();
            let zi = (i as f32 * 0.93).cos();
            let (mut ax, mut ay, mut az, mut pot) = (0.0f32, 0.0, 0.0, 0.0);
            for j in 0..n_j {
                let dx = xi - jx[j];
                let dy = yi - jy[j];
                let dz = zi - jz[j];
                let r2 = dx * dx + dy * dy + dz * dz + 1e-4;
                let rinv = 1.0 / r2.sqrt();
                let rinv2 = rinv * rinv;
                let mrinv = jm[j] * rinv;
                let mr3 = mrinv * rinv2;
                ax -= mr3 * dx;
                ay -= mr3 * dy;
                az -= mr3 * dz;
                pot += mrinv;
            }
            out[0] += ax;
            out[1] += ay;
            out[2] += az;
            out[3] += pot;
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    // Keep the result observable so the loop cannot be optimized away.
    let checksum: f32 = acc.iter().map(|a| a[3]).sum();
    assert!(checksum.is_finite());

    let interactions = (n_i * n_j * repeats) as f64;
    KernelRate {
        gflops: interactions * PAPER_GRAVITY_OPS as f64 / dt / 1e9,
        interactions_per_s: interactions / dt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gravity_rate_is_positive_and_plausible() {
        let r = measure_gravity(64, 512, 4);
        assert!(r.gflops > 0.01, "gflops {}", r.gflops);
        // Any machine built this century does > 10 M interactions/s/core
        // in this loop and < 10^13 (beyond single-core peak).
        assert!(r.interactions_per_s > 1e6);
        assert!(r.interactions_per_s < 1e13);
    }

    #[test]
    fn throughput_is_roughly_size_independent() {
        let a = measure_gravity(32, 1024, 4);
        let b = measure_gravity(128, 1024, 4);
        let ratio = a.gflops / b.gflops;
        assert!((0.2..5.0).contains(&ratio), "ratio {ratio}");
    }
}
