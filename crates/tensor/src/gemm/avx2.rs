//! The packed GEMM tier's micro-kernel in AVX2 intrinsics, for the
//! tier's AVX2 instantiation (`crate::isa`, which holds the CPU check).
//!
//! The bits are the portable kernel's. The micro-kernel does, per lane
//! and in ascending `p`, what [`super::microkernel`] does per element: a
//! multiply, then an add. Only `avx2` is enabled, never `fma`, so the
//! compiler has no fused instruction to reach for, and Rust does not
//! contract `a * b + c` into one.
//!
//! Its `unsafe` is the unaligned 8-lane loads and stores.

use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
};

use super::{MR, NR};

/// [`super::microkernel`] in four ymm accumulators, one per row of the
/// tile: each depth step loads B's `NR` = 8 lane once, broadcasts each of
/// A's `MR` = 4 values, and takes `acc + a * b` as `_mm256_mul_ps` then
/// `_mm256_add_ps` — the portable kernel's arithmetic, 8 lanes at a time.
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) fn microkernel(kb: usize, pa: &[f32], pb: &[f32], acc: &mut [f32; MR * NR]) {
    let mut rows: [__m256; MR] = [_mm256_set1_ps(0.0); MR];
    for (row, from) in rows.iter_mut().zip(acc.chunks_exact(NR)) {
        // SAFETY: `from` is `NR` = 8 contiguous `f32`s; the load is unaligned.
        *row = unsafe { _mm256_loadu_ps(from.as_ptr()) };
    }
    for (av, bv) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)).take(kb) {
        let av: &[f32; MR] = av.try_into().expect("chunks_exact(MR)");
        let bv: &[f32; NR] = bv.try_into().expect("chunks_exact(NR)");
        // SAFETY: `bv` is `NR` = 8 contiguous `f32`s; the load is unaligned.
        let b = unsafe { _mm256_loadu_ps(bv.as_ptr()) };
        for (row, &ar) in rows.iter_mut().zip(av) {
            *row = _mm256_add_ps(*row, _mm256_mul_ps(_mm256_set1_ps(ar), b));
        }
    }
    for (row, to) in rows.iter().zip(acc.chunks_exact_mut(NR)) {
        // SAFETY: `to` is `NR` = 8 contiguous `f32`s; the store is unaligned.
        unsafe { _mm256_storeu_ps(to.as_mut_ptr(), *row) };
    }
}
