//! # lanes — the one AVX2 layer of the kernel crates
//!
//! What every runtime-dispatched kernel body of the workspace
//! (`gravity::kernel`, `unet::conv`, `sph::simd`) shares:
//!
//! - **[`Avx2`]**, a zero-sized proof that the running CPU has AVX2. Only
//!   [`Avx2::detect`] makes one. Every dispatch site reads
//!   `if let Some(avx2) = Avx2::detect()`, and the body behind it is
//!   reached through a safe function that takes the token and asserts
//!   the extents its raw loads rely on.
//! - **Order-preserving compaction** ([`store_packed_pd`],
//!   [`store_packed_u32`]): the lanes of a 4-wide vector under a keep
//!   mask, packed to its front in lane order by one permutation and
//!   stored at a write position that the caller then advances by the
//!   number of kept lanes — the same slots, in the same order, as the
//!   portable branch-free selection (one slot per row, advance on a hit).
//!
//! The crate is empty off x86-64, where every dispatch site falls through
//! to its portable body.

#![cfg(target_arch = "x86_64")]
#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::*;

/// Lanes per compaction: `f64` lanes in a 256-bit vector, and the `u32`
/// lanes of a 128-bit one.
pub const W: usize = 4;

/// Proof that the running CPU has AVX2: only [`Avx2::detect`] makes one.
#[derive(Debug, Clone, Copy)]
pub struct Avx2(());

impl Avx2 {
    /// The token, if the running CPU has AVX2.
    #[inline]
    pub fn detect() -> Option<Avx2> {
        std::arch::is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }
}

/// For each 4-bit keep mask, the 32-bit permutation that packs the kept
/// lanes of a vector to its front, in lane order: as `f64` lanes (two
/// 32-bit halves each) in `PACK[mask][0]`, as `u32` lanes in the low four
/// entries of `PACK[mask][1]`.
static PACK: [[[i32; 8]; 2]; 16] = pack_table();

const fn pack_table() -> [[[i32; 8]; 2]; 16] {
    let mut table = [[[0; 8]; 2]; 16];
    let mut mask = 0;
    while mask < 16 {
        let (mut slot, mut lane) = (0, 0);
        while lane < W {
            if mask >> lane & 1 == 1 {
                table[mask][0][2 * slot] = 2 * lane as i32;
                table[mask][0][2 * slot + 1] = 2 * lane as i32 + 1;
                table[mask][1][slot] = lane as i32;
                slot += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
}

/// `v` with its lanes under `mask` (bit `l` keeps lane `l`; below 16)
/// packed to the front, as `f64` lanes.
///
/// # Safety
///
/// The CPU supports AVX2.
#[inline]
#[target_feature(enable = "avx2")]
fn pack_pd(v: __m256d, mask: usize) -> __m256d {
    let row = &PACK[mask][0];
    // SAFETY: `row` is eight `i32`, exactly one 256-bit load.
    let perm = unsafe { _mm256_loadu_si256(row.as_ptr().cast()) };
    _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(_mm256_castpd_si256(v), perm))
}

/// The four `u32` lanes of `v` under `mask` packed to the front.
///
/// # Safety
///
/// The CPU supports AVX2.
#[inline]
#[target_feature(enable = "avx2")]
fn pack_u32(v: __m128i, mask: usize) -> __m128i {
    let row = &PACK[mask][1];
    // SAFETY: `row` is eight `i32`, exactly one 256-bit load.
    let perm = unsafe { _mm256_loadu_si256(row.as_ptr().cast()) };
    // The upper half of the widened vector is never selected: `perm`'s
    // low four entries are below 4.
    _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(_mm256_castsi128_si256(v), perm))
}

/// The lanes of `v` under `mask`, packed, at `dst[at..at + W]`.
///
/// # Safety
///
/// SAFETY: callers guarantee AVX2 and `at + W <= dst.len()`.
#[inline]
#[target_feature(enable = "avx2")]
pub unsafe fn store_packed_pd(dst: &mut [f64], at: usize, v: __m256d, mask: usize) {
    debug_assert!(at + W <= dst.len());
    // SAFETY: `at + W <= dst.len()` is the caller's obligation.
    unsafe { _mm256_storeu_pd(dst.as_mut_ptr().add(at), pack_pd(v, mask)) };
}

/// The `u32` lanes of `v` under `mask`, packed, at `dst[at..at + W]`.
///
/// # Safety
///
/// SAFETY: callers guarantee AVX2 and `at + W <= dst.len()`.
#[inline]
#[target_feature(enable = "avx2")]
pub unsafe fn store_packed_u32(dst: &mut [u32], at: usize, v: __m128i, mask: usize) {
    debug_assert!(at + W <= dst.len());
    // SAFETY: `at + W <= dst.len()` is the caller's obligation.
    unsafe { _mm_storeu_si128(dst.as_mut_ptr().add(at).cast(), pack_u32(v, mask)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both compactions of the lanes `[1, 2, 3, 4]` under `mask`, stored
    /// at slot 1 of a zeroed buffer.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    fn packed(mask: usize) -> ([f64; W + 2], [u32; W + 2]) {
        let (mut f, mut u) = ([0.0; W + 2], [0; W + 2]);
        // SAFETY: slot 1 + W <= W + 2 in both buffers.
        unsafe {
            store_packed_pd(&mut f, 1, _mm256_setr_pd(1.0, 2.0, 3.0, 4.0), mask);
            store_packed_u32(&mut u, 1, _mm_setr_epi32(1, 2, 3, 4), mask);
        }
        (f, u)
    }

    /// Every 4-bit mask, as `f64` and as `u32` lanes: the kept lanes land
    /// at the write position in lane order, the slot before it is left
    /// alone and the store stays within its four slots.
    #[test]
    fn every_mask_packs_the_scalar_filter_in_lane_order() {
        let Some(_avx2) = Avx2::detect() else {
            return;
        };
        for mask in 0..16 {
            let kept: Vec<u32> = (0..W as u32).filter(|l| mask >> l & 1 == 1).collect();
            // SAFETY: the token proves AVX2.
            let (f, u) = unsafe { packed(mask) };
            let n = kept.len();
            assert_eq!(&u[1..1 + n], kept.iter().map(|l| l + 1).collect::<Vec<_>>());
            let want: Vec<f64> = kept.iter().map(|&l| f64::from(l + 1)).collect();
            assert_eq!(&f[1..1 + n], want, "mask {mask:04b}");
            assert_eq!((f[0], u[0], f[W + 1], u[W + 1]), (0.0, 0, 0.0, 0));
        }
    }
}
