//! Non-convolutional layers: ReLU, max-pooling, nearest upsampling.

use crate::tensor::Tensor;

/// ReLU of one value: `v < 0.0 → 0.0`, so NaN and −0.0 pass through. The
/// one definition [`relu`] and the convolution's fused store share.
#[inline]
pub(crate) fn relu_scalar(v: f32) -> f32 {
    if v < 0.0 {
        0.0
    } else {
        v
    }
}

/// ReLU forward.
pub fn relu(x: &Tensor) -> Tensor {
    let mut y = x.clone();
    y.data.iter_mut().for_each(|v| *v = relu_scalar(*v));
    y
}

/// ReLU backward: gate the upstream gradient by the forward input's sign.
pub fn relu_backward(x: &Tensor, gy: &Tensor) -> Tensor {
    assert_eq!(x.shape(), gy.shape());
    let mut gx = gy.clone();
    for (g, &v) in gx.data.iter_mut().zip(&x.data) {
        if v <= 0.0 {
            *g = 0.0;
        }
    }
    gx
}

/// Scan every 2x2x2 window of `x` in output order and hand `emit` the
/// output's flat index, the window's maximum and the flat index in `x` of
/// the voxel that holds it. Within a window the scan is `dz, dy, dx`
/// ascending from `-inf` with a strict `>`, so the first of equal maxima
/// wins; a window with nothing above `-inf` (all NaN or `-inf`) yields
/// `-inf` at its own first voxel.
fn scan_windows(x: &Tensor, mut emit: impl FnMut(usize, f32, usize)) {
    assert!(
        x.d.is_multiple_of(2) && x.h.is_multiple_of(2) && x.w.is_multiple_of(2),
        "maxpool2 requires even dims, got {:?}",
        x.shape()
    );
    let (d, h, w) = (x.d / 2, x.h / 2, x.w / 2);
    let mut o = 0;
    for c in 0..x.c {
        for z in 0..d {
            for yy in 0..h {
                let rows = [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(dz, dy)| {
                    let start = x.idx(c, 2 * z + dz, 2 * yy + dy, 0);
                    (start, &x.data[start..start + x.w])
                });
                for xx in 0..w {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = rows[0].0 + 2 * xx;
                    for (start, row) in rows {
                        for dx in 0..2 {
                            let v = row[2 * xx + dx];
                            if v > best {
                                best = v;
                                best_i = start + 2 * xx + dx;
                            }
                        }
                    }
                    emit(o, best, best_i);
                    o += 1;
                }
            }
        }
    }
}

/// 2x2x2 max pooling (dims must be even). Returns the pooled tensor and the
/// winning flat indices for the backward pass.
pub fn maxpool2(x: &Tensor) -> (Tensor, Vec<u32>) {
    let mut y = Tensor::zeros(x.c, x.d / 2, x.h / 2, x.w / 2);
    let mut arg = vec![0u32; y.len()];
    scan_windows(x, |o, best, best_i| {
        y.data[o] = best;
        arg[o] = best_i as u32;
    });
    (y, arg)
}

/// The pooled tensor of [`maxpool2`] without the argmax — all that
/// inference needs.
pub fn maxpool2_values(x: &Tensor) -> Tensor {
    let mut y = Tensor::zeros(x.c, x.d / 2, x.h / 2, x.w / 2);
    scan_windows(x, |o, best, _| y.data[o] = best);
    y
}

/// Max-pool backward: route gradients to the argmax positions.
pub fn maxpool2_backward(
    x_shape: (usize, usize, usize, usize),
    arg: &[u32],
    gy: &Tensor,
) -> Tensor {
    let (c, d, h, w) = x_shape;
    let mut gx = Tensor::zeros(c, d, h, w);
    assert_eq!(arg.len(), gy.len());
    for (o, &src) in arg.iter().enumerate() {
        gx.data[src as usize] += gy.data[o];
    }
    gx
}

/// Nearest-neighbour 2x upsampling of `x` into `dst` (CDHW, `8·x.len()`
/// floats): each source row is doubled along `x` once and copied to its
/// four destination rows.
fn upsample2_into(x: &Tensor, dst: &mut [f32]) {
    let (h2, w2) = (2 * x.h, 2 * x.w);
    debug_assert_eq!(dst.len(), 8 * x.len());
    if x.is_empty() {
        return;
    }
    // Source plane `(c, z)` fills destination planes `(c, 2z)`, `(c, 2z + 1)`.
    let planes = x.data.chunks_exact(x.h * x.w);
    for (src_plane, dst_pair) in planes.zip(dst.chunks_exact_mut(2 * h2 * w2)) {
        let (even, odd) = dst_pair.split_at_mut(h2 * w2);
        let row_pairs = even
            .chunks_exact_mut(2 * w2)
            .zip(odd.chunks_exact_mut(2 * w2));
        for (src, (a, b)) in src_plane.chunks_exact(x.w).zip(row_pairs) {
            let (first, second) = a.split_at_mut(w2);
            for (pair, &v) in first.chunks_exact_mut(2).zip(src) {
                pair[0] = v;
                pair[1] = v;
            }
            second.copy_from_slice(first);
            b[..w2].copy_from_slice(first);
            b[w2..].copy_from_slice(first);
        }
    }
}

/// Nearest-neighbour 2x upsampling.
pub fn upsample2(x: &Tensor) -> Tensor {
    let mut y = Tensor::zeros(x.c, x.d * 2, x.h * 2, x.w * 2);
    upsample2_into(x, &mut y.data);
    y
}

/// `upsample2(x).concat_channels(skip)` in one allocation: the decoder's
/// input, the upsampled features followed by the skip connection.
pub fn upsample2_concat(x: &Tensor, skip: &Tensor) -> Tensor {
    assert_eq!(
        (2 * x.d, 2 * x.h, 2 * x.w),
        (skip.d, skip.h, skip.w),
        "concat: spatial shapes differ"
    );
    let mut y = Tensor::zeros(x.c + skip.c, skip.d, skip.h, skip.w);
    let (up, tail) = y.data.split_at_mut(8 * x.len());
    upsample2_into(x, up);
    tail.copy_from_slice(&skip.data);
    y
}

/// Upsample backward: each source voxel sums its 8 children's gradients.
pub fn upsample2_backward(gy: &Tensor) -> Tensor {
    assert!(gy.d.is_multiple_of(2) && gy.h.is_multiple_of(2) && gy.w.is_multiple_of(2));
    let mut gx = Tensor::zeros(gy.c, gy.d / 2, gy.h / 2, gy.w / 2);
    for c in 0..gy.c {
        for z in 0..gy.d {
            for yy in 0..gy.h {
                for xx in 0..gy.w {
                    let i = gx.idx(c, z / 2, yy / 2, xx / 2);
                    gx.data[i] += gy.get(c, z, yy, xx);
                }
            }
        }
    }
    gx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives_only() {
        let x = Tensor::from_vec(1, 1, 1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        let y = relu(&x);
        assert_eq!(y.data, vec![0.0, 0.0, 2.0, 0.0]);
        let gy = Tensor::from_vec(1, 1, 1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        let gx = relu_backward(&x, &gy);
        assert_eq!(gx.data, vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn maxpool_selects_maximum_and_routes_gradient() {
        let mut x = Tensor::zeros(1, 2, 2, 2);
        x.data = vec![1., 5., 2., 3., 0., -1., 4., 2.];
        let (y, arg) = maxpool2(&x);
        assert_eq!(y.shape(), (1, 1, 1, 1));
        assert_eq!(y.data, vec![5.0]);
        assert_eq!(arg, vec![1]);
        let gy = Tensor::from_vec(1, 1, 1, 1, vec![3.0]);
        let gx = maxpool2_backward((1, 2, 2, 2), &arg, &gy);
        assert_eq!(gx.data, vec![0., 3., 0., 0., 0., 0., 0., 0.]);
    }

    /// A window with nothing above `-inf` used to name voxel 0 of channel
    /// 0 as its argmax, so its gradient landed in another window.
    #[test]
    fn maxpool_argmax_of_a_nan_window_stays_inside_the_window() {
        let mut x = Tensor::zeros(2, 2, 2, 4);
        x.data.iter_mut().for_each(|v| *v = 1.0);
        // Second window of the second channel: all NaN / -inf.
        for (z, yy, xx) in [(0, 0, 2), (0, 0, 3), (0, 1, 2), (0, 1, 3)] {
            let i = x.idx(1, z, yy, xx);
            x.data[i] = f32::NAN;
        }
        for (z, yy, xx) in [(1, 0, 2), (1, 0, 3), (1, 1, 2), (1, 1, 3)] {
            let i = x.idx(1, z, yy, xx);
            x.data[i] = f32::NEG_INFINITY;
        }
        let (y, arg) = maxpool2(&x);
        assert_eq!(y.data, vec![1.0, 1.0, 1.0, f32::NEG_INFINITY]);
        assert_eq!(
            arg[3] as usize,
            x.idx(1, 0, 0, 2),
            "window's own first voxel"
        );
        assert_eq!(maxpool2_values(&x).data, y.data);
        let gy = Tensor::from_vec(2, 1, 1, 2, vec![0.0, 0.0, 0.0, 7.0]);
        let gx = maxpool2_backward(x.shape(), &arg, &gy);
        assert_eq!(gx.data[0], 0.0, "voxel 0 is not in that window");
        assert_eq!(gx.data[x.idx(1, 0, 0, 2)], 7.0);
    }

    /// On finite inputs the argmax is what the per-voxel `idx()` scan it
    /// replaced produced (first of equal maxima, `dz, dy, dx` ascending).
    #[test]
    fn maxpool_argmax_of_finite_input_is_unchanged() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        // Coarse values so that ties inside a window do occur.
        let data: Vec<f32> = (0..3 * 4 * 6 * 8)
            .map(|_| rng.gen_range(-4i32..4) as f32)
            .collect();
        let x = Tensor::from_vec(3, 4, 6, 8, data);
        let (y, arg) = maxpool2(&x);
        let mut o = 0;
        for c in 0..3 {
            for z in 0..2 {
                for yy in 0..3 {
                    for xx in 0..4 {
                        let (mut best, mut best_i) = (f32::NEG_INFINITY, 0usize);
                        for (dz, dy, dx) in (0..8).map(|b| (b >> 2, (b >> 1) & 1, b & 1)) {
                            let i = x.idx(c, 2 * z + dz, 2 * yy + dy, 2 * xx + dx);
                            if x.data[i] > best {
                                best = x.data[i];
                                best_i = i;
                            }
                        }
                        assert_eq!((y.data[o], arg[o] as usize), (best, best_i), "output {o}");
                        o += 1;
                    }
                }
            }
        }
        assert_eq!(maxpool2_values(&x).data, y.data);
    }

    #[test]
    fn upsample_concat_equals_upsample_then_concat() {
        let x = Tensor::from_vec(2, 1, 2, 3, (0..12).map(|v| v as f32).collect());
        let skip = Tensor::from_vec(1, 2, 4, 6, (0..48).map(|v| -(v as f32)).collect());
        let up = upsample2(&x);
        for z in 0..2 {
            for yy in 0..4 {
                for xx in 0..6 {
                    assert_eq!(up.get(1, z, yy, xx), x.get(1, z / 2, yy / 2, xx / 2));
                }
            }
        }
        assert_eq!(upsample2_concat(&x, &skip), up.concat_channels(&skip));
    }

    #[test]
    fn upsample_replicates_and_backward_sums() {
        let x = Tensor::from_vec(1, 1, 1, 2, vec![1.0, 2.0]);
        let y = upsample2(&x);
        assert_eq!(y.shape(), (1, 2, 2, 4));
        // Every child of source voxel 0 is 1.0, of voxel 1 is 2.0.
        for z in 0..2 {
            for yy in 0..2 {
                assert_eq!(y.get(0, z, yy, 0), 1.0);
                assert_eq!(y.get(0, z, yy, 3), 2.0);
            }
        }
        let gy = Tensor::from_vec(1, 2, 2, 4, vec![1.0; 16]);
        let gx = upsample2_backward(&gy);
        assert_eq!(gx.data, vec![8.0, 8.0]);
    }

    #[test]
    fn pool_then_upsample_preserves_shape() {
        let x = Tensor::zeros(3, 4, 4, 4);
        let (p, _) = maxpool2(&x);
        let u = upsample2(&p);
        assert_eq!(u.shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "even dims")]
    fn odd_dims_rejected_by_pool() {
        let x = Tensor::zeros(1, 3, 4, 4);
        let _ = maxpool2(&x);
    }
}
