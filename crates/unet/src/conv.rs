//! 3-D convolution with full backpropagation.
//!
//! One lowering serves the forward pass, the forward pass with a fused
//! ReLU, and the backward pass's input gradient: a direct "same"
//! convolution (`conv_direct`). For each output row `(oz, oy)` a worker
//! stages the `c_in·k²` input rows that row reads — slot
//! `(ci·k + kz)·k + ky`, zero-padded by `k/2` on both sides in `x`, whole
//! rows of zeros where `(iz, iy)` leaves the volume — and a register-tiled
//! micro-kernel turns them into all `c_out` output rows: 4 output channels
//! × 16 columns per tile, with 8-column, scalar-column and single-channel
//! tails. The staging buffer is `c_in·k²·(w + k − 1)` floats (3.5 KB at
//! the U-Net's first layer on a 32³ cube) and lives in L1 for the whole
//! row; output rows are written straight into the CDHW tensor.
//!
//! # Determinism
//!
//! Every output element owns one accumulator, seeded from the bias, that
//! adds `w[co][kr] · x[slot][ox + kx]` for
//! `kr = ((ci·k + kz)·k + ky)·k + kx` **ascending** — padding included,
//! as exact `w · 0.0` terms. Vector lanes span *output columns* only,
//! never a split of that sum, and multiply and add are separate
//! exactly-rounded operations (never FMA), so the result does not depend
//! on tile shape, vector width, thread count or CPU: the AVX2 tile that
//! [`Conv3d::forward`] runs where [`lanes::Avx2::detect`] finds AVX2
//! equals the portable `[f32; 8]`-lane tile
//! ([`Conv3d::forward_portable`]) to the bit — one tiling loop and one
//! scalar column tail serve both — and both equal the scalar loop nest
//! kept as
//! [`Conv3d::forward_reference`] — the comparison baseline of the
//! kernel-equivalence tests and of the `conv_gflops_ratio` bench metric.
//! The fused ReLU is the scalar one (`acc < 0.0 → 0.0`: NaN and −0.0
//! pass through). See `## Kernel determinism` in ROADMAP.md.
//!
//! Parallelism is over blocks of output rows (disjoint output slices, one
//! staging buffer per block). The weight gradient is the one place an
//! im2col matrix is still built (`fill_im2col_row` + [`crate::gemm::dot`]),
//! reduced over a fixed chunk count in chunk order, so gradients are
//! bit-reproducible across thread counts too.

use crate::gemm;
use crate::layers::relu_scalar;
use crate::tensor::Tensor;
use json::Json;
#[cfg(target_arch = "x86_64")]
use lanes::Avx2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// A trainable parameter with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    pub value: Vec<f32>,
    /// Not serialized: rebuilt as zeros on load.
    pub grad: Vec<f32>,
}

impl Param {
    pub fn new(value: Vec<f32>) -> Self {
        let grad = vec![0.0; value.len()];
        Param { value, grad }
    }

    /// The values as a JSON object; gradients are transient.
    pub(crate) fn to_json_value(&self) -> Json {
        Json::obj([("value", Json::f32s(&self.value))])
    }

    /// Parse [`Param::to_json_value`] output.
    pub(crate) fn from_json_value(v: &Json) -> Result<Param, String> {
        Ok(Param::new(v.get("value")?.as_f32_vec()?))
    }

    pub fn zero_grad(&mut self) {
        if self.grad.len() != self.value.len() {
            self.grad = vec![0.0; self.value.len()];
        } else {
            self.grad.iter_mut().for_each(|g| *g = 0.0);
        }
    }
}

/// Fill the im2col patch matrix for one output row — the weight
/// gradient's view of the input (its only caller is
/// `Conv3d::accumulate_weight_grad`).
///
/// `b` has `x.c·k³` rows of `x.w` columns; row
/// `kr = ((ci·k + kz)·k + ky)·k + kx` holds
/// `x[ci, oz+kz-pad, oy+ky-pad, ox+kx-pad]` for every `ox`, with zeros
/// where the index leaves the volume: an out-of-volume `(iz, iy)` plane
/// zeroes all `k` of its `kx` rows in one `fill`, and the `kx` shift is a
/// contiguous `copy_from_slice` with zeroed margins, so the dot products
/// that consume `b` never see a padding branch.
fn fill_im2col_row(x: &Tensor, k: usize, oz: usize, oy: usize, b: &mut [f32]) {
    let (d, h, w) = (x.d, x.h, x.w);
    let pad = (k / 2) as isize;
    debug_assert_eq!(b.len(), x.c * k * k * k * w, "im2col scratch size");
    let mut kr = 0;
    for ci in 0..x.c {
        for kz in 0..k {
            let iz = oz as isize + kz as isize - pad;
            for ky in 0..k {
                let iy = oy as isize + ky as isize - pad;
                if iz < 0 || iz >= d as isize || iy < 0 || iy >= h as isize {
                    b[kr * w..(kr + k) * w].fill(0.0);
                    kr += k;
                    continue;
                }
                let start = x.idx(ci, iz as usize, iy as usize, 0);
                let xrow = &x.data[start..start + w];
                for kx in 0..k {
                    let row = &mut b[kr * w..(kr + 1) * w];
                    let shift = kx as isize - pad;
                    if shift >= 0 {
                        let s = (shift as usize).min(w);
                        row[..w - s].copy_from_slice(&xrow[s..]);
                        row[w - s..].fill(0.0);
                    } else {
                        let s = ((-shift) as usize).min(w);
                        row[..s].fill(0.0);
                        row[s..].copy_from_slice(&xrow[..w - s]);
                    }
                    kr += 1;
                }
            }
        }
    }
}

/// Output channels per register tile.
const CO_TILE: usize = 4;

/// Lane width of one vector of output columns (one AVX register).
const LANES: usize = gemm::LANES;

/// A convolution of at least this many output rows is split into about
/// this many row blocks for the workers; a smaller one is a single block
/// and runs on the calling thread. Results cannot depend on the split:
/// every output element is computed on its own.
const ROW_BLOCKS: usize = 64;

/// What the micro-kernel reads to produce one output row `(oz, oy)` of
/// every output channel.
struct RowOperands<'a> {
    /// `kk / k` staged input rows of `wp` floats each (see [`stage_row`]).
    staged: &'a [f32],
    /// Staged row pitch: `w + 2·(k/2)`.
    wp: usize,
    /// `[c_out][kk]`, the stored layout of the weights.
    weight: &'a [f32],
    bias: &'a [f32],
    /// Reduction length `c_in·k³`.
    kk: usize,
    k: usize,
    /// Output row width.
    w: usize,
    relu: bool,
}

impl RowOperands<'_> {
    /// The extents every load and store of a row kernel stays inside,
    /// checked once per row: `out` holds one slice per output channel and
    /// the row is written to `out[co][off..off + w]`.
    fn assert_extents(&self, out: &[&mut [f32]], off: usize) {
        self.assert_operands(out.len());
        assert!(self.kk.is_multiple_of(self.k));
        assert!(out.iter().all(|row| row.len() >= off + self.w));
    }

    /// The extents the staged and weight reads of channels `0..c_out`
    /// stay inside: O(1), so a tile checks them for itself.
    fn assert_operands(&self, c_out: usize) {
        assert!(
            self.k >= 1 && self.wp >= self.w + self.k - 1,
            "staged rows too narrow"
        );
        assert!(self.staged.len() >= (self.kk / self.k) * self.wp);
        assert!(self.weight.len() >= c_out * self.kk && self.bias.len() >= c_out);
    }
}

/// A row kernel: writes `out[co][off..off + w]` for every `co`.
type RowKernel = fn(&RowOperands, &mut [&mut [f32]], usize);

/// Stage the input rows output row `(oz, oy)` reads: slot
/// `(ci·k + kz)·k + ky` of `staged` (pitch `w + 2·pad`) holds
/// `x[ci, oz+kz-pad, oy+ky-pad, ·]` at columns `pad..pad + w`, or zeros
/// where that row lies outside the volume. The `pad` margin columns are
/// never written, so they keep the zeros the buffer was created with.
fn stage_row(x: &Tensor, k: usize, oz: usize, oy: usize, staged: &mut [f32]) {
    let (d, h, w) = (x.d, x.h, x.w);
    let pad = k / 2;
    let wp = w + 2 * pad;
    debug_assert_eq!(staged.len(), x.c * k * k * wp, "staging buffer size");
    let mut slots = staged.chunks_exact_mut(wp);
    for ci in 0..x.c {
        for kz in 0..k {
            let iz = (oz + kz).wrapping_sub(pad);
            for ky in 0..k {
                let iy = (oy + ky).wrapping_sub(pad);
                let dst = &mut slots.next().expect("one slot per (ci, kz, ky)")[pad..pad + w];
                if iz < d && iy < h {
                    let start = x.idx(ci, iz, iy, 0);
                    dst.copy_from_slice(&x.data[start..start + w]);
                } else {
                    dst.fill(0.0);
                }
            }
        }
    }
}

/// Direct "same"-padding convolution: `weight` in `[c_out][x.c][k][k][k]`
/// layout, one bias per output channel, optionally `relu` applied to each
/// element as it is stored.
///
/// Parallel over blocks of output rows. A block owns one staging buffer
/// and, per output channel, the slice of the CDHW output its rows occupy,
/// so the kernel writes results where they belong.
fn conv_direct(
    x: &Tensor,
    weight: &[f32],
    bias: &[f32],
    k: usize,
    relu: bool,
    row_kernel: RowKernel,
) -> Tensor {
    let (d, h, w) = (x.d, x.h, x.w);
    let c_out = bias.len();
    let n_slots = x.c * k * k;
    let kk = n_slots * k;
    assert_eq!(weight.len(), c_out * kk, "conv weight length");
    let wp = w + 2 * (k / 2);
    let rows = d * h;
    let mut y = Tensor::zeros(c_out, d, h, w);
    if y.is_empty() {
        return y;
    }
    let block_rows = if rows < ROW_BLOCKS {
        rows
    } else {
        rows / ROW_BLOCKS
    };
    // `outs[b·c_out + co]` is block `b`'s rows of channel `co`.
    let mut channels: Vec<_> = y
        .data
        .chunks_mut(rows * w)
        .map(|channel| channel.chunks_mut(block_rows * w))
        .collect();
    let n_blocks = rows.div_ceil(block_rows);
    let mut outs: Vec<&mut [f32]> = Vec::with_capacity(n_blocks * c_out);
    for _ in 0..n_blocks {
        for blocks in channels.iter_mut() {
            outs.push(blocks.next().expect("every channel has every row block"));
        }
    }
    outs.par_chunks_mut(c_out).enumerate().for_each(|(b, out)| {
        let mut staged = vec![0.0f32; n_slots * wp];
        let first = b * block_rows;
        for r in first..(first + block_rows).min(rows) {
            stage_row(x, k, r / h, r % h, &mut staged);
            let ops = RowOperands {
                staged: &staged,
                wp,
                weight,
                bias,
                kk,
                k,
                w,
                relu,
            };
            row_kernel(&ops, out, (r - first) * w);
        }
    });
    y
}

/// The row kernel [`Conv3d::forward`] runs: the AVX2 tile where the CPU
/// has it, the portable tile elsewhere. Both produce the same bits.
fn conv_row(ops: &RowOperands, out: &mut [&mut [f32]], off: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = Avx2::detect() {
        return tile_row(avx2, ops, out, off);
    }
    tile_row(Portable, ops, out, off);
}

/// One `R`-channel × `NV·LANES`-column tile of an output row: writes
/// `out[co + i][off + ox..off + ox + NV·LANES]` for `i < R`. The
/// accumulators stay in registers across the whole `kr` sweep, and each
/// staged segment is loaded once per `kr` and multiplied into every
/// channel's accumulator.
trait Tile: Copy {
    fn tile<const R: usize, const NV: usize>(
        self,
        ops: &RowOperands,
        out: &mut [&mut [f32]],
        off: usize,
        co: usize,
        ox: usize,
    );
}

/// One output row of every channel, tiled the same way for every tile
/// body: 4-channel tiles, then single channels, each over 16-column
/// tiles, one 8-column tile and scalar columns.
fn tile_row(body: impl Tile, ops: &RowOperands, out: &mut [&mut [f32]], off: usize) {
    ops.assert_extents(out, off);
    let full = out.len() - out.len() % CO_TILE;
    for co in (0..full).step_by(CO_TILE) {
        channels::<CO_TILE>(body, ops, out, off, co);
    }
    for co in full..out.len() {
        channels::<1>(body, ops, out, off, co);
    }
}

/// Channels `co..co + R` of one output row, all columns.
fn channels<const R: usize>(
    body: impl Tile,
    ops: &RowOperands,
    out: &mut [&mut [f32]],
    off: usize,
    co: usize,
) {
    let mut ox = 0;
    while ox + 2 * LANES <= ops.w {
        body.tile::<R, 2>(ops, out, off, co, ox);
        ox += 2 * LANES;
    }
    if ox + LANES <= ops.w {
        body.tile::<R, 1>(ops, out, off, co, ox);
        ox += LANES;
    }
    scalar_columns(ops, out, off, co..co + R, ox);
}

/// The portable tile: each vector spelled as an explicit `[f32; LANES]`.
#[derive(Clone, Copy)]
struct Portable;

impl Tile for Portable {
    fn tile<const R: usize, const NV: usize>(
        self,
        ops: &RowOperands,
        out: &mut [&mut [f32]],
        off: usize,
        co: usize,
        ox: usize,
    ) {
        let mut acc = [[[0.0f32; LANES]; NV]; R];
        for (i, a) in acc.iter_mut().enumerate() {
            *a = [[ops.bias[co + i]; LANES]; NV];
        }
        for (slot, xrow) in ops.staged.chunks_exact(ops.wp).enumerate() {
            for kx in 0..ops.k {
                let kr = slot * ops.k + kx;
                let mut xv = [[0.0f32; LANES]; NV];
                for (v, x) in xv.iter_mut().enumerate() {
                    x.copy_from_slice(&xrow[ox + kx + v * LANES..][..LANES]);
                }
                for (i, a) in acc.iter_mut().enumerate() {
                    let wv = ops.weight[(co + i) * ops.kk + kr];
                    for (av, x) in a.iter_mut().zip(&xv) {
                        for l in 0..LANES {
                            av[l] += wv * x[l];
                        }
                    }
                }
            }
        }
        for (i, a) in acc.iter_mut().enumerate() {
            for (v, av) in a.iter_mut().enumerate() {
                if ops.relu {
                    av.iter_mut().for_each(|s| *s = relu_scalar(*s));
                }
                out[co + i][off + ox + v * LANES..][..LANES].copy_from_slice(av);
            }
        }
    }
}

/// Columns `ox0..w` of the given channels, one scalar accumulator each,
/// in the same `kr`-ascending order. Shared by both tiles.
fn scalar_columns(
    ops: &RowOperands,
    out: &mut [&mut [f32]],
    off: usize,
    channels: std::ops::Range<usize>,
    ox0: usize,
) {
    for co in channels {
        let wrow = &ops.weight[co * ops.kk..(co + 1) * ops.kk];
        for ox in ox0..ops.w {
            let mut acc = ops.bias[co];
            for (slot, xrow) in ops.staged.chunks_exact(ops.wp).enumerate() {
                for kx in 0..ops.k {
                    acc += wrow[slot * ops.k + kx] * xrow[ox + kx];
                }
            }
            out[co][off + ox] = if ops.relu { relu_scalar(acc) } else { acc };
        }
    }
}

/// The AVX2 tile, the only module of this crate allowed `unsafe`. One
/// 256-bit vector carries the [`LANES`] output columns a `[f32; LANES]`
/// carries in the portable tile, and only `_mm256_mul_ps` /
/// `_mm256_add_ps` touch the accumulators — never FMA — so every lane
/// rounds exactly like the scalar expression and the two tiles agree to
/// the bit. The tile body is reached only through [`Tile::tile`] on the
/// [`Avx2`] token, which checks the extents its raw loads rely on.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::{RowOperands, Tile, LANES};
    use lanes::Avx2;
    use std::arch::x86_64::*;

    impl Tile for Avx2 {
        fn tile<const R: usize, const NV: usize>(
            self,
            ops: &RowOperands,
            out: &mut [&mut [f32]],
            off: usize,
            co: usize,
            ox: usize,
        ) {
            assert!(
                co + R <= out.len() && ox + NV * LANES <= ops.w,
                "tile outside the row"
            );
            ops.assert_operands(co + R);
            // SAFETY: the token proves AVX2, and the two checks above are
            // the extents the body's staged and weight reads rely on.
            unsafe { tile::<R, NV>(ops, out, off, co, ox) }
        }
    }

    /// Body of [`Tile::tile`] on the token (`R·NV` accumulator registers;
    /// 4 × 2 is the main tile).
    ///
    /// # Safety
    ///
    /// SAFETY: callers guarantee that AVX2 is available, that
    /// `ops.assert_operands(co + R)` holds and that
    /// `ox + NV·LANES <= ops.w`.
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const R: usize, const NV: usize>(
        ops: &RowOperands,
        out: &mut [&mut [f32]],
        off: usize,
        co: usize,
        ox: usize,
    ) {
        let (k, kk, wp) = (ops.k, ops.kk, ops.wp);
        let staged = ops.staged.as_ptr();
        let weight = ops.weight.as_ptr();
        let mut acc = [[_mm256_setzero_ps(); NV]; R];
        for (i, a) in acc.iter_mut().enumerate() {
            *a = [_mm256_set1_ps(ops.bias[co + i]); NV];
        }
        for slot in 0..kk / k {
            for kx in 0..k {
                let at = slot * wp + ox + kx;
                debug_assert!(at + NV * LANES <= ops.staged.len());
                let mut xv = [_mm256_setzero_ps(); NV];
                for (v, x) in xv.iter_mut().enumerate() {
                    // SAFETY: slot < kk/k, kx < k and ox + NV·LANES <= w,
                    // so the last float read is at most
                    // slot·wp + (w − 1) + (k − 1) < (slot + 1)·wp
                    // <= staged.len(), by wp >= w + k − 1 and
                    // staged.len() >= (kk/k)·wp.
                    *x = unsafe { _mm256_loadu_ps(staged.add(at + v * LANES)) };
                }
                let kr = slot * k + kx;
                for (i, a) in acc.iter_mut().enumerate() {
                    debug_assert!((co + i) * kk + kr < ops.weight.len());
                    // SAFETY: kr < kk and i < R, so the index is below
                    // (co + R)·kk <= weight.len().
                    let wv = _mm256_set1_ps(unsafe { *weight.add((co + i) * kk + kr) });
                    for (av, x) in a.iter_mut().zip(&xv) {
                        *av = _mm256_add_ps(*av, _mm256_mul_ps(wv, *x));
                    }
                }
            }
        }
        let zero = _mm256_setzero_ps();
        for (i, a) in acc.iter().enumerate() {
            let row = &mut out[co + i][off + ox..off + ox + NV * LANES];
            for (v, &av) in a.iter().enumerate() {
                // `acc < 0.0 → +0.0`, lanes that compare false (NaN,
                // −0.0, positives) keep their bits: the scalar relu.
                let stored = if ops.relu {
                    _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(av, zero), av)
                } else {
                    av
                };
                // SAFETY: `row` is NV·LANES floats long (sliced with a
                // bounds check above), so vector `v` fits in it.
                unsafe { _mm256_storeu_ps(row.as_mut_ptr().add(v * LANES), stored) };
            }
        }
    }
}

/// Number of row-chunks the weight-gradient reduction is split into.
/// Fixed — never derived from the worker count — so the chunk partials
/// are always grouped and summed identically and gradients stay
/// bit-reproducible across thread counts.
const GW_CHUNKS: usize = 64;

/// 3-D convolution, stride 1, cubic kernel, "same" zero padding.
#[derive(Debug, Clone)]
pub struct Conv3d {
    pub c_in: usize,
    pub c_out: usize,
    /// Kernel edge (3 for the U-Net body, 1 for the output head).
    pub k: usize,
    pub weight: Param,
    pub bias: Param,
}

impl Conv3d {
    /// Kaiming-uniform initialization, deterministic in `seed`.
    pub fn new(c_in: usize, c_out: usize, k: usize, seed: u64) -> Self {
        assert!(k % 2 == 1, "conv kernel must be odd for same padding");
        let fan_in = (c_in * k * k * k) as f32;
        let bound = (6.0 / fan_in).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let weight: Vec<f32> = (0..c_out * c_in * k * k * k)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        let bias = vec![0.0; c_out];
        Conv3d {
            c_in,
            c_out,
            k,
            weight: Param::new(weight),
            bias: Param::new(bias),
        }
    }

    #[inline]
    fn widx(&self, co: usize, ci: usize, kz: usize, ky: usize, kx: usize) -> usize {
        (((co * self.c_in + ci) * self.k + kz) * self.k + ky) * self.k + kx
    }

    /// Forward pass: `y[co] = b[co] + sum_ci w[co,ci] * x[ci]`.
    ///
    /// The direct convolution of the module docs; bitwise equal to
    /// [`Conv3d::forward_reference`] (same per-element reduction order).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.convolve(x, false, conv_row)
    }

    /// `relu(&self.forward(x))` to the bit, with the clamp applied as each
    /// element is stored — the inference path keeps no pre-activation.
    pub fn forward_relu(&self, x: &Tensor) -> Tensor {
        self.convolve(x, true, conv_row)
    }

    /// [`Conv3d::forward`] through the portable body on every CPU; public
    /// so the equivalence tests can pin the dispatched path against it.
    pub fn forward_portable(&self, x: &Tensor) -> Tensor {
        self.convolve(x, false, |ops, out, off| tile_row(Portable, ops, out, off))
    }

    fn convolve(&self, x: &Tensor, relu: bool, row_kernel: RowKernel) -> Tensor {
        assert_eq!(x.c, self.c_in, "conv input channel mismatch");
        assert_eq!(self.bias.value.len(), self.c_out, "conv bias length");
        conv_direct(
            x,
            &self.weight.value,
            &self.bias.value,
            self.k,
            relu,
            row_kernel,
        )
    }

    /// The original scalar loop nest, kept as the equivalence/bench
    /// reference for [`Conv3d::forward`].
    pub fn forward_reference(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.c, self.c_in, "conv input channel mismatch");
        let (d, h, w) = (x.d, x.h, x.w);
        let pad = (self.k / 2) as isize;
        let mut y = Tensor::zeros(self.c_out, d, h, w);
        let spatial = d * h * w;
        y.data
            .par_chunks_mut(spatial)
            .enumerate()
            .for_each(|(co, out)| {
                let b = self.bias.value[co];
                for oz in 0..d {
                    for oy in 0..h {
                        for ox in 0..w {
                            let mut acc = b;
                            for ci in 0..self.c_in {
                                for kz in 0..self.k {
                                    let iz = oz as isize + kz as isize - pad;
                                    if iz < 0 || iz >= d as isize {
                                        continue;
                                    }
                                    for ky in 0..self.k {
                                        let iy = oy as isize + ky as isize - pad;
                                        if iy < 0 || iy >= h as isize {
                                            continue;
                                        }
                                        for kx in 0..self.k {
                                            let ix = ox as isize + kx as isize - pad;
                                            if ix < 0 || ix >= w as isize {
                                                continue;
                                            }
                                            let xi =
                                                x.idx(ci, iz as usize, iy as usize, ix as usize);
                                            let wi = self.widx(co, ci, kz, ky, kx);
                                            acc += x.data[xi] * self.weight.value[wi];
                                        }
                                    }
                                }
                            }
                            out[(oz * h + oy) * w + ox] = acc;
                        }
                    }
                }
            });
        y
    }

    /// The weights re-laid-out as `[c_in][c_out][k][k][k]` with all three
    /// kernel axes flipped, so the input gradient is a plain forward
    /// convolution of `gy` by this matrix.
    fn flipped_transposed_weight(&self) -> Vec<f32> {
        let k = self.k;
        let mut wt = vec![0.0f32; self.weight.value.len()];
        for co in 0..self.c_out {
            for ci in 0..self.c_in {
                for kz in 0..k {
                    for ky in 0..k {
                        for kx in 0..k {
                            let src = self.widx(co, ci, k - 1 - kz, k - 1 - ky, k - 1 - kx);
                            let dst = (((ci * self.c_out + co) * k + kz) * k + ky) * k + kx;
                            wt[dst] = self.weight.value[src];
                        }
                    }
                }
            }
        }
        wt
    }

    /// Weight gradients via per-row im2col tiles:
    /// `gw[co][kr] += Σ_rows gy_row[co] · B_row[kr]`, partitioned into
    /// [`GW_CHUNKS`] fixed row chunks reduced in chunk order.
    fn accumulate_weight_grad(&mut self, x: &Tensor, gy: &Tensor) {
        let (d, h, w) = (x.d, x.h, x.w);
        let k = self.k;
        let kk = self.c_in * k * k * k;
        let rows = d * h;
        let spatial = d * h * w;
        let chunk = rows.div_ceil(GW_CHUNKS).max(1);
        let n_chunks = rows.div_ceil(chunk);
        let c_out = self.c_out;
        let partials: Vec<Vec<f32>> = (0..n_chunks)
            .into_par_iter()
            .map_init(
                || vec![0.0f32; kk * w],
                |bbuf, ch| {
                    let mut gw = vec![0.0f32; c_out * kk];
                    for r in ch * chunk..((ch + 1) * chunk).min(rows) {
                        fill_im2col_row(x, k, r / h, r % h, bbuf);
                        for co in 0..c_out {
                            let gyrow = &gy.data[co * spatial + r * w..co * spatial + (r + 1) * w];
                            // ReLU upstreams are sparse; a zero row adds
                            // exactly 0.0 so skipping it is free.
                            if gyrow.iter().all(|&g| g == 0.0) {
                                continue;
                            }
                            let gwrow = &mut gw[co * kk..(co + 1) * kk];
                            for (kr, gwv) in gwrow.iter_mut().enumerate() {
                                *gwv += gemm::dot(gyrow, &bbuf[kr * w..(kr + 1) * w]);
                            }
                        }
                    }
                    gw
                },
            )
            .collect();
        for p in &partials {
            for (g, &v) in self.weight.grad.iter_mut().zip(p) {
                *g += v;
            }
        }
    }

    /// The parameter half of [`Conv3d::backward`]: accumulate the bias and
    /// weight gradients for upstream `gy`, without the input gradient (the
    /// first layer's has no reader).
    pub fn backward_params(&mut self, x: &Tensor, gy: &Tensor) {
        assert_eq!(gy.c, self.c_out);
        assert_eq!((gy.d, gy.h, gy.w), (x.d, x.h, x.w));

        // Bias gradient: sum over space per output channel.
        for co in 0..self.c_out {
            let g: f32 = gy.channel(co).iter().sum();
            self.bias.grad[co] += g;
        }

        self.accumulate_weight_grad(x, gy);
    }

    /// Backward pass: given upstream `gy`, accumulate weight/bias gradients
    /// and return the input gradient.
    ///
    /// The input gradient is the forward kernel again — a direct
    /// convolution of `gy` with the flipped-transposed weights — and the
    /// weight gradient sums im2col rows against `gy` rows. Summation
    /// orders are fixed (see [`crate::gemm`]) so gradients are
    /// reproducible across thread counts; they differ from
    /// [`Conv3d::backward_reference`] only by f32 reassociation.
    pub fn backward(&mut self, x: &Tensor, gy: &Tensor) -> Tensor {
        self.backward_params(x, gy);
        let wt = self.flipped_transposed_weight();
        let zero_bias = vec![0.0f32; self.c_in];
        conv_direct(gy, &wt, &zero_bias, self.k, false, conv_row)
    }

    /// The original scalar backward pass, kept as the equivalence
    /// reference for [`Conv3d::backward`].
    pub fn backward_reference(&mut self, x: &Tensor, gy: &Tensor) -> Tensor {
        assert_eq!(gy.c, self.c_out);
        assert_eq!((gy.d, gy.h, gy.w), (x.d, x.h, x.w));
        let (d, h, w) = (x.d, x.h, x.w);
        let pad = (self.k / 2) as isize;

        // Bias gradient: sum over space per output channel.
        for co in 0..self.c_out {
            let g: f32 = gy.channel(co).iter().sum();
            self.bias.grad[co] += g;
        }

        // Weight gradients, parallel over output channels (disjoint slices).
        let k = self.k;
        let c_in = self.c_in;
        let wlen_per_co = c_in * k * k * k;
        self.weight
            .grad
            .par_chunks_mut(wlen_per_co)
            .enumerate()
            .for_each(|(co, gw)| {
                for oz in 0..d {
                    for oy in 0..h {
                        for ox in 0..w {
                            let g = gy.data[(co * d + oz) * h * w + oy * w + ox];
                            if g == 0.0 {
                                continue;
                            }
                            for ci in 0..c_in {
                                for kz in 0..k {
                                    let iz = oz as isize + kz as isize - pad;
                                    if iz < 0 || iz >= d as isize {
                                        continue;
                                    }
                                    for ky in 0..k {
                                        let iy = oy as isize + ky as isize - pad;
                                        if iy < 0 || iy >= h as isize {
                                            continue;
                                        }
                                        for kx in 0..k {
                                            let ix = ox as isize + kx as isize - pad;
                                            if ix < 0 || ix >= w as isize {
                                                continue;
                                            }
                                            let xi =
                                                x.idx(ci, iz as usize, iy as usize, ix as usize);
                                            gw[((ci * k + kz) * k + ky) * k + kx] += g * x.data[xi];
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            });

        // Input gradient: full correlation with flipped kernel, parallel
        // over input channels.
        let mut gx = Tensor::zeros(self.c_in, d, h, w);
        let weight = &self.weight.value;
        let spatial = d * h * w;
        gx.data
            .par_chunks_mut(spatial)
            .enumerate()
            .for_each(|(ci, out)| {
                for iz in 0..d {
                    for iy in 0..h {
                        for ix in 0..w {
                            let mut acc = 0.0;
                            for co in 0..self.c_out {
                                for kz in 0..k {
                                    let oz = iz as isize - (kz as isize - pad);
                                    if oz < 0 || oz >= d as isize {
                                        continue;
                                    }
                                    for ky in 0..k {
                                        let oy = iy as isize - (ky as isize - pad);
                                        if oy < 0 || oy >= h as isize {
                                            continue;
                                        }
                                        for kx in 0..k {
                                            let ox = ix as isize - (kx as isize - pad);
                                            if ox < 0 || ox >= w as isize {
                                                continue;
                                            }
                                            let gyi =
                                                gy.idx(co, oz as usize, oy as usize, ox as usize);
                                            let wi =
                                                (((co * c_in + ci) * k + kz) * k + ky) * k + kx;
                                            acc += gy.data[gyi] * weight[wi];
                                        }
                                    }
                                }
                            }
                            out[(iz * h + iy) * w + ix] = acc;
                        }
                    }
                }
            });
        gx
    }

    /// Iterate over this layer's parameters (for the optimizer).
    pub fn params_mut(&mut self) -> [&mut Param; 2] {
        [&mut self.weight, &mut self.bias]
    }

    /// The layer (shape + weights) as a JSON object.
    pub(crate) fn to_json_value(&self) -> Json {
        Json::obj([
            ("c_in", self.c_in.into()),
            ("c_out", self.c_out.into()),
            ("k", self.k.into()),
            ("weight", self.weight.to_json_value()),
            ("bias", self.bias.to_json_value()),
        ])
    }

    /// Parse [`Conv3d::to_json_value`] output.
    pub(crate) fn from_json_value(v: &Json) -> Result<Conv3d, String> {
        let c_in = v.get("c_in")?.as_usize()?;
        let c_out = v.get("c_out")?.as_usize()?;
        let k = v.get("k")?.as_usize()?;
        let weight = Param::from_json_value(v.get("weight")?)?;
        let bias = Param::from_json_value(v.get("bias")?)?;
        if k % 2 == 0 {
            return Err(format!(
                "conv3d: kernel edge must be odd (same padding), got {k}"
            ));
        }
        let weights = [c_in, k, k, k]
            .iter()
            .try_fold(c_out, |n, &f| n.checked_mul(f));
        if weights != Some(weight.value.len()) || bias.value.len() != c_out {
            return Err("conv3d: weight/bias lengths inconsistent with shape".into());
        }
        Ok(Conv3d {
            c_in,
            c_out,
            k,
            weight,
            bias,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_passes_input_through() {
        let mut conv = Conv3d::new(1, 1, 3, 0);
        conv.weight.value.iter_mut().for_each(|w| *w = 0.0);
        // Centre tap = 1.
        let centre = conv.widx(0, 0, 1, 1, 1);
        conv.weight.value[centre] = 1.0;
        let x = Tensor::from_vec(1, 2, 2, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let y = conv.forward(&x);
        assert_eq!(y.data, x.data);
    }

    #[test]
    fn bias_shifts_output() {
        let mut conv = Conv3d::new(1, 2, 1, 0);
        conv.weight.value = vec![0.0, 0.0];
        conv.bias.value = vec![1.5, -2.0];
        let x = Tensor::zeros(1, 2, 2, 2);
        let y = conv.forward(&x);
        assert!(y.channel(0).iter().all(|&v| v == 1.5));
        assert!(y.channel(1).iter().all(|&v| v == -2.0));
    }

    #[test]
    fn same_padding_preserves_shape() {
        let conv = Conv3d::new(3, 5, 3, 1);
        let x = Tensor::zeros(3, 4, 6, 5);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), (5, 4, 6, 5));
    }

    #[test]
    fn forward_matches_manual_computation() {
        // 1x1x1x3 input, k=3: y[1] = w0*x0 + w1*x1 + w2*x2 (+pad zeros).
        let mut conv = Conv3d::new(1, 1, 3, 0);
        conv.weight.value.iter_mut().for_each(|w| *w = 0.0);
        let (l, c, r) = (
            conv.widx(0, 0, 1, 1, 0),
            conv.widx(0, 0, 1, 1, 1),
            conv.widx(0, 0, 1, 1, 2),
        );
        conv.weight.value[l] = 1.0;
        conv.weight.value[c] = 10.0;
        conv.weight.value[r] = 100.0;
        let x = Tensor::from_vec(1, 1, 1, 3, vec![1.0, 2.0, 3.0]);
        let y = conv.forward(&x);
        // y0 = 10*1 + 100*2 = 210 ; y1 = 1 + 20 + 300 = 321 ; y2 = 2 + 30.
        assert_eq!(y.data, vec![210.0, 321.0, 32.0]);
    }

    /// The direct convolution must reproduce the scalar reference exactly:
    /// the per-element reduction order is identical (bias first, then kr
    /// ascending), and the padding contributes exact zeros. (Named for the
    /// GEMM lowering it pinned first.)
    #[test]
    fn gemm_forward_matches_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(c_in, c_out, k, d, h, w) in &[
            (1usize, 1usize, 3usize, 2usize, 2usize, 2usize),
            (2, 3, 3, 4, 5, 6),
            (3, 2, 1, 3, 3, 3),
            (4, 8, 3, 5, 4, 9),
            (2, 5, 5, 6, 6, 6),
            // Every tile of the row kernel at once: 4 x 16, 4 x 8, scalar
            // columns, and a single-channel tail.
            (3, 5, 3, 2, 3, 27),
        ] {
            let mut conv = Conv3d::new(c_in, c_out, k, 5);
            conv.bias
                .value
                .iter_mut()
                .for_each(|b| *b = rng.gen_range(-0.5..0.5));
            let x = Tensor::from_vec(
                c_in,
                d,
                h,
                w,
                (0..c_in * d * h * w)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            );
            let fast = conv.forward(&x);
            let slow = conv.forward_reference(&x);
            let portable = conv.forward_portable(&x);
            for (i, (&a, &b)) in fast.data.iter().zip(&slow.data).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() && a.to_bits() == portable.data[i].to_bits(),
                    "({c_in},{c_out},k{k},{d}x{h}x{w}) voxel {i}: {a} vs {b}"
                );
            }
            let fused = conv.forward_relu(&x);
            let clamped = crate::layers::relu(&fast);
            assert_eq!(
                fused.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                clamped.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "({c_in},{c_out},k{k},{d}x{h}x{w}) fused relu"
            );
        }
    }

    /// A layer document is refused at load, not in the first forward pass:
    /// an even or zero kernel edge has no "same" padding, and a shape
    /// whose weight count overflows `usize` must not wrap round to match
    /// an empty weight array.
    #[test]
    fn malformed_layer_documents_are_rejected() {
        let load =
            |doc: &str| Conv3d::from_json_value(&json::parse_json(doc).expect("well-formed JSON"));
        let layer = |c_in: &str, c_out: usize, k: usize, weights: usize| {
            format!(
                "{{\"c_in\":{c_in},\"c_out\":{c_out},\"k\":{k},\
                 \"weight\":{{\"value\":{:?}}},\"bias\":{{\"value\":{:?}}}}}",
                vec![0.5f32; weights],
                vec![0.0f32; c_out]
            )
        };
        assert!(load(&layer("1", 1, 3, 27)).is_ok());
        let even = load(&layer("1", 1, 2, 8)).expect_err("even k");
        assert!(even.contains("odd"), "{even}");
        assert!(load(&layer("1", 1, 0, 0)).is_err(), "zero k");
        // 2^62 · 4 = 2^64 wraps to 0 weights.
        assert!(load(&layer("4611686018427387904", 4, 1, 0)).is_err());
        assert!(load(&layer("1", 1, 3, 26)).is_err(), "short weights");
    }

    /// The backward pass agrees with the scalar reference up to f32
    /// reassociation (the summation orders legitimately differ).
    #[test]
    fn gemm_backward_matches_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        for &(c_in, c_out, k, d, h, w) in &[
            (2usize, 3usize, 3usize, 4usize, 3usize, 5usize),
            (3, 2, 1, 3, 4, 3),
            (1, 4, 3, 2, 6, 7),
        ] {
            let conv = Conv3d::new(c_in, c_out, k, 31);
            let x = Tensor::from_vec(
                c_in,
                d,
                h,
                w,
                (0..c_in * d * h * w)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            );
            let gy = Tensor::from_vec(
                c_out,
                d,
                h,
                w,
                (0..c_out * d * h * w)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            );
            let mut fast = conv.clone();
            let mut slow = conv.clone();
            let gx_fast = fast.backward(&x, &gy);
            let gx_slow = slow.backward_reference(&x, &gy);
            let rel = |a: f32, b: f32| (a - b).abs() / b.abs().max(1.0);
            for (i, (&a, &b)) in gx_fast.data.iter().zip(&gx_slow.data).enumerate() {
                assert!(rel(a, b) < 1e-4, "gx[{i}]: {a} vs {b}");
            }
            for (i, (&a, &b)) in fast.weight.grad.iter().zip(&slow.weight.grad).enumerate() {
                assert!(rel(a, b) < 1e-3, "gw[{i}]: {a} vs {b}");
            }
            for (i, (&a, &b)) in fast.bias.grad.iter().zip(&slow.bias.grad).enumerate() {
                assert!(rel(a, b) < 1e-4, "gb[{i}]: {a} vs {b}");
            }
            // The parameter half alone accumulates the same bits.
            let mut params = conv.clone();
            params.backward_params(&x, &gy);
            let bits = |g: &[f32]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&params.weight.grad), bits(&fast.weight.grad));
            assert_eq!(bits(&params.bias.grad), bits(&fast.bias.grad));
        }
    }

    /// Repeated evaluations are bit-identical: the tiled kernels use fixed
    /// lane counts and fixed reduction orders (the determinism contract
    /// behind bitwise snapshot restarts and reproducible training).
    #[test]
    fn forward_and_backward_are_deterministic() {
        let mut rng = StdRng::seed_from_u64(41);
        let conv = Conv3d::new(3, 4, 3, 13);
        let x = Tensor::from_vec(
            3,
            6,
            5,
            7,
            (0..3 * 6 * 5 * 7)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
        );
        let y1 = conv.forward(&x);
        let y2 = conv.forward(&x);
        assert_eq!(
            y1.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y2.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let mut a = conv.clone();
        let mut b = conv.clone();
        let gxa = a.backward(&x, &y1);
        let gxb = b.backward(&x, &y2);
        assert_eq!(
            gxa.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            gxb.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            a.weight
                .grad
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.weight
                .grad
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    /// Gradient check: compare analytic gradients against finite differences
    /// for weights, bias, and input.
    #[test]
    fn gradients_match_finite_differences() {
        let mut conv = Conv3d::new(2, 2, 3, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::from_vec(
            2,
            3,
            3,
            3,
            (0..2 * 27).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        // Loss = sum(y^2)/2 so that gy = y.
        let y = conv.forward(&x);
        let gy = y.clone();
        conv.weight.zero_grad();
        conv.bias.zero_grad();
        let gx = conv.backward(&x, &gy);

        let loss = |c: &Conv3d, xx: &Tensor| -> f64 {
            let y = c.forward(xx);
            y.data.iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };
        let eps = 1e-3f32;
        // Weight gradient spot checks.
        for &wi in &[0usize, 5, 31, 60] {
            let mut cp = conv.clone();
            cp.weight.value[wi] += eps;
            let lp = loss(&cp, &x);
            cp.weight.value[wi] -= 2.0 * eps;
            let lm = loss(&cp, &x);
            let fd = (lp - lm) / (2.0 * eps as f64);
            let an = conv.weight.grad[wi] as f64;
            assert!(
                (fd - an).abs() < 2e-2 * an.abs().max(1.0),
                "w[{wi}]: fd {fd} vs analytic {an}"
            );
        }
        // Bias gradient.
        for bi in 0..2 {
            let mut cp = conv.clone();
            cp.bias.value[bi] += eps;
            let lp = loss(&cp, &x);
            cp.bias.value[bi] -= 2.0 * eps;
            let lm = loss(&cp, &x);
            let fd = (lp - lm) / (2.0 * eps as f64);
            let an = conv.bias.grad[bi] as f64;
            assert!((fd - an).abs() < 2e-2 * an.abs().max(1.0), "b[{bi}]");
        }
        // Input gradient spot checks.
        for &xi in &[0usize, 13, 40, 53] {
            let mut xp = x.clone();
            xp.data[xi] += eps;
            let lp = loss(&conv, &xp);
            xp.data[xi] -= 2.0 * eps;
            let lm = loss(&conv, &xp);
            let fd = (lp - lm) / (2.0 * eps as f64);
            let an = gx.data[xi] as f64;
            assert!(
                (fd - an).abs() < 2e-2 * an.abs().max(1.0),
                "x[{xi}]: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn init_is_deterministic_and_scaled() {
        let a = Conv3d::new(4, 4, 3, 11);
        let b = Conv3d::new(4, 4, 3, 11);
        assert_eq!(a.weight.value, b.weight.value);
        let bound = (6.0f32 / (4.0 * 27.0)).sqrt();
        assert!(a.weight.value.iter().all(|w| w.abs() <= bound));
        assert!(a.weight.value.iter().any(|w| w.abs() > bound * 0.5));
    }
}
