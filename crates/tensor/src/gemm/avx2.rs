//! The AVX2 instantiation of the GEMM kernels, chosen at run time.
//!
//! [`Avx2::detect`] asks the CPU (the standard library runs `cpuid` once
//! and caches the answer) and hands out a token only where AVX2 is
//! present; the token's methods are the only way in. Behind them the
//! packed tier's loop nest ([`super::packed_strip_body`]) and the no-pack
//! tier's ([`super::gemm_skinny_body`]) are compiled a second time with
//! `avx2` enabled — the packed nest around the intrinsics micro-kernel
//! below, the no-pack nest as it is, vectorised 8 wide by the compiler.
//!
//! The bits are the portable kernels'. The micro-kernel does, per lane
//! and in ascending `p`, what the portable one does per element: a
//! multiply, then an add. Only `avx2` is enabled, never `fma`, so the
//! compiler has no fused instruction to reach for, and Rust does not
//! contract `a * b + c` into one.
//!
//! This module is the crate's only `unsafe` code: calls into the
//! `#[target_feature]` functions, sound once the token exists, and the
//! unaligned 8-lane loads and stores of the micro-kernel.

use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
};

use super::{PackedA, PackedB, MR, NR};

/// Proof that the running CPU has AVX2: only [`Avx2::detect`] makes one.
pub(super) struct Avx2(());

impl Avx2 {
    /// The token, if this CPU has AVX2.
    #[inline]
    pub(super) fn detect() -> Option<Avx2> {
        #[cfg(test)]
        if PORTABLE.with(std::cell::Cell::get) {
            return None;
        }
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// [`super::packed_strip`] on AVX2.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn packed_strip(
        self,
        r0: usize,
        r1: usize,
        alpha: f32,
        a: &PackedA,
        b: &PackedB,
        c_strip: &mut [f32],
        bias: Option<&[f32]>,
    ) {
        // SAFETY: `self` exists only where `detect` found AVX2 on this CPU.
        unsafe { packed_strip(r0, r1, alpha, a, b, c_strip, bias) }
    }

    /// [`super::gemm_skinny`] on AVX2.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm_skinny(
        self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        // SAFETY: `self` exists only where `detect` found AVX2 on this CPU.
        unsafe { gemm_skinny(m, n, k, alpha, a, b, c) }
    }
}

#[target_feature(enable = "avx2")]
fn packed_strip(
    r0: usize,
    r1: usize,
    alpha: f32,
    a: &PackedA,
    b: &PackedB,
    c_strip: &mut [f32],
    bias: Option<&[f32]>,
) {
    // The closure inherits this function's `avx2`, so the call is safe
    // and inlines.
    let kernel = |kb, pa: &[f32], pb: &[f32], acc: &mut _| microkernel(kb, pa, pb, acc);
    super::packed_strip_body(kernel, r0, r1, alpha, a, b, c_strip, bias);
}

#[target_feature(enable = "avx2")]
fn gemm_skinny(m: usize, n: usize, k: usize, alpha: f32, a: &[f32], b: &[f32], c: &mut [f32]) {
    super::gemm_skinny_body(m, n, k, alpha, a, b, c);
}

/// [`super::microkernel`] in four ymm accumulators, one per row of the
/// tile: each depth step loads B's `NR` = 8 lane once, broadcasts each of
/// A's `MR` = 4 values, and takes `acc + a * b` as `_mm256_mul_ps` then
/// `_mm256_add_ps` — the portable kernel's arithmetic, 8 lanes at a time.
#[target_feature(enable = "avx2")]
#[inline]
fn microkernel(kb: usize, pa: &[f32], pb: &[f32], acc: &mut [f32; MR * NR]) {
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

#[cfg(test)]
thread_local! {
    /// Set while [`portable`] runs: [`Avx2::detect`] then finds nothing.
    static PORTABLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with this thread's kernels on the portable path, as on a CPU
/// without AVX2. Threads that `f` spawns are not covered.
#[cfg(test)]
pub(super) fn portable<T>(f: impl FnOnce() -> T) -> T {
    PORTABLE.with(|p| p.set(true));
    let out = f();
    PORTABLE.with(|p| p.set(false));
    out
}
