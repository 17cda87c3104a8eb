//! The crate's one CPU check, and the vector instantiations of its loop
//! nests, chosen at run time.
//!
//! [`Avx2::detect`] asks the CPU (the standard library runs `cpuid` once
//! and caches the answer) and hands out a token only where AVX2 is
//! present; the token also records whether AVX-512F is, and its methods
//! are the only way in. Behind them three `#[inline(always)]` loop nests
//! are compiled a second time with `avx2` enabled: the packed GEMM
//! tier's ([`crate::gemm::packed_strip_body`], around the intrinsics
//! micro-kernel in `gemm::avx2`), the no-pack tier's
//! ([`crate::gemm::gemm_skinny_body`]) and pooling's
//! ([`crate::pool::pool_body`]), the last two as they are, vectorised 8
//! wide by the compiler. The packed nest is compiled a third time, with
//! `avx512f`, around the four-panel kernel in `gemm::avx512`; the token
//! takes it where the CPU has AVX-512F. The no-pack tier and pooling stay
//! on AVX2 there.
//!
//! The bits are the portable nests'. The AVX2 instantiations enable only
//! `avx2`, never `fma`, so the compiler has no fused instruction to reach
//! for. `avx512f` brings `fma` with it in rustc's feature set; there, as
//! everywhere, what keeps the bits is that Rust never contracts
//! `a * b + c` into one instruction and the kernels' intrinsics are a
//! multiply and then an add. A pooling lane folds exactly the taps the
//! portable code folds, in the same order; the max fold
//! `v > acc ? v : acc` becomes `vmaxps`, whose lane rule is that select's:
//! a NaN tap or a tie keeps `acc`.
//!
//! The calls into the `#[target_feature]` functions are this module's
//! `unsafe`, sound once the token exists. With the micro-kernels'
//! unaligned loads and stores in `gemm::avx2` and `gemm::avx512`, that is
//! all of the crate's `unsafe` code.

use crate::gemm::avx512::WIDE;
use crate::gemm::{PackedA, PackedB, MR, NR};
use crate::pool::{Plan, Pooling};

/// What the kernels may use, lowest first: the portable nests, their
/// AVX2 instantiations, and AVX-512 for the packed tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    Portable,
    Avx2,
    Avx512,
}

/// The best level this CPU runs.
fn cpu_level() -> Level {
    if !is_x86_feature_detected!("avx2") {
        Level::Portable
    } else if is_x86_feature_detected!("avx512f") {
        Level::Avx512
    } else {
        Level::Avx2
    }
}

/// Proof that the running CPU has AVX2, and whether it has AVX-512F as
/// well: only [`Avx2::detect`] makes one.
#[derive(Clone, Copy)]
pub(crate) struct Avx2 {
    avx512: bool,
}

impl Avx2 {
    /// The token, if this CPU has AVX2 (and, in tests, this thread's cap
    /// allows it).
    #[inline]
    pub(crate) fn detect() -> Option<Avx2> {
        let level = cpu_level();
        #[cfg(test)]
        let level = level.min(CAP.with(std::cell::Cell::get));
        (level >= Level::Avx2).then_some(Avx2 {
            avx512: level == Level::Avx512,
        })
    }

    /// [`crate::gemm::packed_strip`] on AVX-512 where the CPU has it, on
    /// AVX2 elsewhere.
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
        if self.avx512 {
            // SAFETY: `avx512` is set only where `detect` found AVX-512F
            // and AVX2. rustc's `avx512f` also implies `fma` and `f16c`,
            // which every CPU with AVX-512F has.
            unsafe { packed_strip_avx512(r0, r1, alpha, a, b, c_strip, bias) }
        } else {
            // SAFETY: `self` exists only where `detect` found AVX2.
            unsafe { packed_strip(r0, r1, alpha, a, b, c_strip, bias) }
        }
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
    let kernel = |kb, pa: &[f32], pb: &[f32], acc: &mut [[f32; NR]; MR]| {
        crate::gemm::avx2::microkernel(kb, pa, pb, acc)
    };
    crate::gemm::packed_strip_body::<NR>(kernel, kernel, r0, r1, alpha, a, b, c_strip, bias);
}

#[target_feature(enable = "avx512f")]
fn packed_strip_avx512(
    r0: usize,
    r1: usize,
    alpha: f32,
    a: &PackedA,
    b: &PackedB,
    c_strip: &mut [f32],
    bias: Option<&[f32]>,
) {
    // `avx512f` implies `avx2`, so both kernels inline here.
    let wide = |kb, pa: &[f32], pb: &[f32], acc: &mut [[f32; WIDE]; MR]| {
        crate::gemm::avx512::microkernel(kb, pa, pb, acc)
    };
    let single = |kb, pa: &[f32], pb: &[f32], acc: &mut [[f32; NR]; MR]| {
        crate::gemm::avx2::microkernel(kb, pa, pb, acc)
    };
    crate::gemm::packed_strip_body(wide, single, r0, r1, alpha, a, b, c_strip, bias);
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
    /// The highest level this thread's kernels may use; see [`capped`].
    static CAP: std::cell::Cell<Level> = const { std::cell::Cell::new(Level::Avx512) };
}

/// Runs `f` with this thread's kernels at `cap` at most, as on a CPU
/// without the levels above it. The previous cap comes back when `f`
/// returns or unwinds, since a harness may catch a failing case's panic
/// and go on on the same thread (proptest does, to shrink the case).
/// Threads that `f` spawns run at the
/// CPU's level unless handed a choice made here: the packed tier's
/// workers are (`crate::gemm::Kernels`).
#[cfg(test)]
fn capped<T>(cap: Level, f: impl FnOnce() -> T) -> T {
    struct Restore(Level);
    impl Drop for Restore {
        fn drop(&mut self) {
            CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CAP.with(|c| c.replace(cap)));
    f()
}

/// Runs `f` at each level this CPU runs, portable first, and says which
/// level first gave other bits than the portable run, and where. The
/// first call prints which levels are compared here and which are
/// skipped: on a CPU without AVX2 only the portable run is left, and
/// the comparison compares nothing.
#[cfg(test)]
pub(crate) fn same_bits_at_each_level(f: impl Fn() -> Vec<f32>) -> Result<(), String> {
    static SAID: std::sync::Once = std::sync::Once::new();
    let levels = [Level::Portable, Level::Avx2, Level::Avx512];
    let (ran, skipped) = levels.split_at(levels.partition_point(|&l| l <= cpu_level()));
    SAID.call_once(|| {
        eprintln!("kernel levels compared on this CPU: {ran:?}");
        if !skipped.is_empty() {
            eprintln!("skipped: this CPU does not run {skipped:?}, so there is no instantiation to compare");
        }
    });
    let bits = |l| -> Vec<u32> { capped(l, &f).iter().map(|x| x.to_bits()).collect() };
    let portable = bits(Level::Portable);
    for &level in &ran[1..] {
        let other = bits(level);
        if other != portable {
            let at = other.iter().zip(&portable).position(|(x, y)| x != y);
            return Err(format!(
                "{level:?} differs from Portable, first at element {at:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic inside [`capped`] (a failing case that the harness
    /// catches) must not leave the thread capped: every later comparison
    /// on it would then run the same kernels on both sides and pass
    /// whatever they compute.
    #[test]
    fn a_panic_under_a_cap_leaves_dispatch_at_the_cpus_level() {
        let uncapped = Avx2::detect().map(|t| t.avx512);
        let caught = std::panic::catch_unwind(|| {
            capped(Level::Portable, || {
                assert!(Avx2::detect().is_none());
                panic!("a failing case");
            })
        });
        assert!(caught.is_err());
        assert_eq!(Avx2::detect().map(|t| t.avx512), uncapped);
        assert_eq!(CAP.with(std::cell::Cell::get), Level::Avx512);
    }
}
