//! The crate's one CPU check, and the AVX2 instantiations of its loop
//! nests, chosen at run time.
//!
//! [`Avx2::detect`] asks the CPU (the standard library runs `cpuid` once
//! and caches the answer) and hands out a token only where AVX2 is
//! present; the token's methods are the only way in. Behind them three
//! `#[inline(always)]` loop nests are compiled a second time with `avx2`
//! enabled: the packed GEMM tier's ([`crate::gemm::packed_strip_body`],
//! around the intrinsics micro-kernel in `gemm::avx2`), the no-pack
//! tier's ([`crate::gemm::gemm_skinny_body`]) and pooling's
//! ([`crate::pool::pool_body`]), the last two as they are, vectorised 8
//! wide by the compiler.
//!
//! The bits are the portable nests'. Only `avx2` is enabled, never
//! `fma`, so the compiler has no fused instruction to reach for, and
//! Rust does not contract `a * b + c` into one. A pooling lane folds
//! exactly the taps the portable code folds, in the same order; the max
//! fold `v > acc ? v : acc` becomes `vmaxps`, whose lane rule is that
//! select's: a NaN tap or a tie keeps `acc`.
//!
//! The calls into the `#[target_feature]` functions are this module's
//! `unsafe`, sound once the token exists. With the micro-kernel's
//! unaligned loads and stores in `gemm::avx2`, that is all of the
//! crate's `unsafe` code.

use crate::gemm::{PackedA, PackedB, MR, NR};
use crate::pool::{Plan, Pooling};

/// Proof that the running CPU has AVX2: only [`Avx2::detect`] makes one.
pub(crate) struct Avx2(());

impl Avx2 {
    /// The token, if this CPU has AVX2.
    #[inline]
    pub(crate) fn detect() -> Option<Avx2> {
        #[cfg(test)]
        if PORTABLE.with(std::cell::Cell::get) {
            return None;
        }
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// [`crate::gemm::packed_strip`] on AVX2.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn packed_strip(
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

    /// [`crate::gemm::gemm_skinny`] on AVX2.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm_skinny(
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

    /// [`crate::pool::pool_body`] on AVX2.
    pub(crate) fn pool<P: Pooling>(self, input: &[f32], out: &mut Vec<f32>, plan: &Plan) {
        // SAFETY: `self` exists only where `detect` found AVX2 on this CPU.
        unsafe { pool::<P>(input, out, plan) }
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
    let kernel = |kb, pa: &[f32], pb: &[f32], acc: &mut [f32; MR * NR]| {
        crate::gemm::avx2::microkernel(kb, pa, pb, acc)
    };
    crate::gemm::packed_strip_body(kernel, r0, r1, alpha, a, b, c_strip, bias);
}

#[target_feature(enable = "avx2")]
fn gemm_skinny(m: usize, n: usize, k: usize, alpha: f32, a: &[f32], b: &[f32], c: &mut [f32]) {
    crate::gemm::gemm_skinny_body(m, n, k, alpha, a, b, c);
}

#[target_feature(enable = "avx2")]
fn pool<P: Pooling>(input: &[f32], out: &mut Vec<f32>, plan: &Plan) {
    crate::pool::pool_body::<P>(input, out, plan);
}

#[cfg(test)]
thread_local! {
    /// Set while [`portable`] runs: [`Avx2::detect`] then finds nothing.
    static PORTABLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with this thread's kernels on the portable path, as on a CPU
/// without AVX2. Threads that `f` spawns are not covered.
#[cfg(test)]
fn portable<T>(f: impl FnOnce() -> T) -> T {
    PORTABLE.with(|p| p.set(true));
    let out = f();
    PORTABLE.with(|p| p.set(false));
    out
}

/// Whether this CPU has AVX2; says why the portable ≡ AVX2 checks skip
/// when it has not (both of their runs would be portable).
#[cfg(test)]
pub(crate) fn have_avx2() -> bool {
    let found = Avx2::detect().is_some();
    if !found {
        eprintln!("skipped: this CPU has no AVX2, so there is no second instantiation to compare");
    }
    found
}

/// `f` on the portable kernels, then as dispatched (AVX2 here), as bits.
#[cfg(test)]
pub(crate) fn portable_and_avx2(f: impl Fn() -> Vec<f32>) -> (Vec<u32>, Vec<u32>) {
    let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect();
    (bits(portable(&f)), bits(f()))
}
