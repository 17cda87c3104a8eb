//! The packed GEMM tier's wide micro-kernel in AVX-512 intrinsics, for
//! the tier's AVX-512 instantiation (`crate::isa`, which holds the CPU
//! check).
//!
//! One call computes an `MR` x `WIDE` tile: four adjacent `NR` = 8 column
//! panels of B, which `PackedB` stores one after another within a depth
//! block, against one `MR`-row panel of A. The panels are not re-laid out
//! for it; each depth step joins two panels' 8-lane rows into one 16-lane
//! vector.
//!
//! The bits are the portable kernel's. Per lane and in ascending `p` it
//! does what [`super::microkernel`] does per element: a multiply, then an
//! add. In rustc's feature set `avx512f` brings `fma` with it, so here the
//! instruction is there to reach for; what rules it out is the source:
//! `_mm512_mul_ps` then `_mm512_add_ps`, and Rust never contracts a
//! multiply and an add into one.
//!
//! Its `unsafe` is the unaligned loads and stores.

use std::arch::x86_64::{
    __m512, _mm256_castps_pd, _mm256_loadu_ps, _mm512_add_ps, _mm512_castpd_ps,
    _mm512_castps256_ps512, _mm512_castps_pd, _mm512_insertf64x4, _mm512_loadu_ps, _mm512_mul_ps,
    _mm512_set1_ps, _mm512_storeu_ps,
};

use super::{MR, NR};

/// Columns of C one call computes: four `NR`-wide panels.
pub(crate) const WIDE: usize = 4 * NR;

/// [`super::microkernel`] over four panels at once, in eight zmm
/// accumulators: row `r`'s columns `0..16` (panels 0 and 1) and `16..32`
/// (panels 2 and 3). Each depth step forms the two 16-lane B vectors,
/// broadcasts each of A's `MR` = 4 values, and takes `acc + a * b` as
/// `_mm512_mul_ps` then `_mm512_add_ps`.
///
/// `pb` is the four panels, each `kb * NR` floats, back to back.
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn microkernel(kb: usize, pa: &[f32], pb: &[f32], acc: &mut [[f32; WIDE]; MR]) {
    let mut halves: [[__m512; 2]; MR] = [[_mm512_set1_ps(0.0); 2]; MR];
    for (row, from) in halves.iter_mut().zip(acc.iter()) {
        for (half, from) in row.iter_mut().zip(from.chunks_exact(16)) {
            // SAFETY: `from` is 16 contiguous `f32`s; the load is unaligned.
            *half = unsafe { _mm512_loadu_ps(from.as_ptr()) };
        }
    }
    let panel = |q: usize| pb[q * kb * NR..][..kb * NR].chunks_exact(NR);
    let b_rows = panel(0).zip(panel(1)).zip(panel(2).zip(panel(3)));
    for (av, ((b0, b1), (b2, b3))) in pa.chunks_exact(MR).zip(b_rows) {
        let av: &[f32; MR] = av.try_into().expect("chunks_exact(MR)");
        let b = [joined(b0, b1), joined(b2, b3)];
        for (row, &ar) in halves.iter_mut().zip(av) {
            let a = _mm512_set1_ps(ar);
            for (half, &b) in row.iter_mut().zip(&b) {
                *half = _mm512_add_ps(*half, _mm512_mul_ps(a, b));
            }
        }
    }
    for (row, to) in halves.iter().zip(acc.iter_mut()) {
        for (half, to) in row.iter().zip(to.chunks_exact_mut(16)) {
            // SAFETY: `to` is 16 contiguous `f32`s; the store is unaligned.
            unsafe { _mm512_storeu_ps(to.as_mut_ptr(), *half) };
        }
    }
}

/// Two panels' 8-lane rows as one 16-lane vector: `lo` in lanes 0..8,
/// `hi` in lanes 8..16. The casts only rename the register.
#[target_feature(enable = "avx512f")]
#[inline]
fn joined(lo: &[f32], hi: &[f32]) -> __m512 {
    let lo: &[f32; NR] = lo.try_into().expect("chunks_exact(NR)");
    let hi: &[f32; NR] = hi.try_into().expect("chunks_exact(NR)");
    // SAFETY: `lo` and `hi` are `NR` = 8 contiguous `f32`s each; the
    // loads are unaligned.
    let (lo, hi) = unsafe { (_mm256_loadu_ps(lo.as_ptr()), _mm256_loadu_ps(hi.as_ptr())) };
    let lo = _mm512_castps_pd(_mm512_castps256_ps512(lo));
    _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, _mm256_castps_pd(hi)))
}
