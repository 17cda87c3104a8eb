//! The GEMM tiers' AVX-512 kernels in intrinsics (`crate::isa`, which
//! holds the CPU check, calls them): the packed tier's wide micro-kernel,
//! and the no-pack tier's whole nest, [`skinny`].
//!
//! One micro-kernel call computes an `MR` x `WIDE` tile: four adjacent
//! `NR` = 8 column panels of B, which `PackedB` stores one after another
//! within a depth block, against one `MR`-row panel of A. The panels are not re-laid out
//! for it; each depth step joins two panels' 8-lane rows into one 16-lane
//! vector.
//!
//! The bits are the portable nests'. Per lane and in ascending `p` both
//! do what [`super::microkernel`] does per element: a multiply, then an
//! add. In rustc's feature set `avx512f` brings `fma` with it, so here the
//! instruction is there to reach for; what rules it out is the source:
//! `_mm512_mul_ps` then `_mm512_add_ps`, and Rust never contracts a
//! multiply and an add into one.
//!
//! Their `unsafe` is the unaligned loads and stores, masked at the end of
//! a no-pack row.

use std::arch::x86_64::{
    __m512, __mmask16, _mm256_castps_pd, _mm256_loadu_ps, _mm512_add_ps, _mm512_castpd_ps,
    _mm512_castps256_ps512, _mm512_castps_pd, _mm512_insertf64x4, _mm512_loadu_ps,
    _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
    _mm512_storeu_ps,
};

use super::{KC, MR, NC, NR};

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

/// Rows of C one pass of the no-pack nest computes: their accumulators
/// stay in registers while B's rows stream past once.
const GROUP: usize = 2 * MR;
/// Lanes of one zmm register.
const LANES: usize = 16;

/// [`super::gemm_skinny_body`]'s contract in zmm accumulators, for the
/// no-pack tier's AVX-512 instantiation: `C += alpha * A B`, with B read
/// in place.
///
/// Within each `NC` column block and `KC` depth block, rows go `GROUP` at
/// a time, and a group walks its columns in strips of `V` vectors: 128
/// columns for one or two rows, 64 for three or four, 32 for five to
/// eight, so a group never holds more than 16 accumulators. Each
/// accumulator starts at zero, takes `a * b` for every depth of the
/// block in ascending order, multiply then add, and is then added to C
/// as `c + alpha * acc`: per lane, exactly what the portable nest does
/// per element. Columns past the last whole strip go one vector at a
/// time, the last one masked.
#[target_feature(enable = "avx512f")]
pub(crate) fn skinny(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    for jc in (0..n).step_by(NC) {
        let nb = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let block = Block {
                lda: k,
                b: &b[pc * n + jc..],
                ldb: n,
                kb: KC.min(k - pc),
                alpha,
            };
            for i0 in (0..m).step_by(GROUP) {
                let a = &a[i0 * k + pc..];
                let c = &mut c[i0 * n + jc..];
                match GROUP.min(m - i0) {
                    1 => group::<1, 8>(&block, a, nb, c, n),
                    2 => group::<2, 8>(&block, a, nb, c, n),
                    3 => group::<3, 4>(&block, a, nb, c, n),
                    4 => group::<4, 4>(&block, a, nb, c, n),
                    5 => group::<5, 2>(&block, a, nb, c, n),
                    6 => group::<6, 2>(&block, a, nb, c, n),
                    7 => group::<7, 2>(&block, a, nb, c, n),
                    _ => group::<8, 2>(&block, a, nb, c, n),
                }
            }
        }
    }
}

/// One `KC` depth block of the no-pack nest: `b` starts at its first
/// row and the column block's first column; A's rows are `lda` apart.
struct Block<'a> {
    lda: usize,
    b: &'a [f32],
    ldb: usize,
    kb: usize,
    alpha: f32,
}

/// `R` rows over the `nb` columns of a column block (`a` starts at the
/// first row's first depth of the block, `c` at its first column): whole
/// strips of `V` vectors, then single vectors.
#[target_feature(enable = "avx512f")]
#[inline]
fn group<const R: usize, const V: usize>(
    block: &Block,
    a: &[f32],
    nb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    // The group's `R` values at each depth side by side, so the strips
    // read one array per depth step with no per-row index check.
    let mut at = [[0.0f32; R]; KC];
    for (r, row) in a.chunks(block.lda).take(R).enumerate() {
        for (to, &v) in at.iter_mut().zip(&row[..block.kb]) {
            to[r] = v;
        }
    }
    let at = &at[..block.kb];
    let mut j = 0;
    while j + V * LANES <= nb {
        strip::<R, V>(block, at, j, LANES, c, ldc);
        j += V * LANES;
    }
    while j < nb {
        let lanes = LANES.min(nb - j);
        strip::<R, 1>(block, at, j, lanes, c, ldc);
        j += lanes;
    }
}

/// `R` x `V` accumulators over columns `j..` of the block, against A's
/// values `at` (one array per depth): `V - 1` whole vectors and a last
/// one of `lanes` lanes (masked below 16).
#[target_feature(enable = "avx512f")]
#[inline]
fn strip<const R: usize, const V: usize>(
    block: &Block,
    at: &[[f32; R]],
    j: usize,
    lanes: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let width = (V - 1) * LANES + lanes;
    let live = |v: usize| if v + 1 == V { lanes } else { LANES };
    let mut acc = [[_mm512_setzero_ps(); V]; R];
    for (p, av) in at.iter().enumerate() {
        let brow = &block.b[p * block.ldb + j..][..width];
        let bv: [__m512; V] = std::array::from_fn(|v| load(&brow[v * LANES..], live(v)));
        for (acc, &ar) in acc.iter_mut().zip(av) {
            let ar = _mm512_set1_ps(ar);
            for (acc, &bv) in acc.iter_mut().zip(&bv) {
                *acc = _mm512_add_ps(*acc, _mm512_mul_ps(ar, bv));
            }
        }
    }
    let alpha = _mm512_set1_ps(block.alpha);
    for (r, acc) in acc.iter().enumerate() {
        let crow = &mut c[r * ldc + j..][..width];
        for (v, &acc) in acc.iter().enumerate() {
            let to = &mut crow[v * LANES..][..live(v)];
            let sum = _mm512_add_ps(load(to, to.len()), _mm512_mul_ps(alpha, acc));
            if to.len() == LANES {
                // SAFETY: `to` is 16 contiguous `f32`s; the store is unaligned.
                unsafe { _mm512_storeu_ps(to.as_mut_ptr(), sum) };
            } else {
                // SAFETY: the mask selects the first `to.len()` lanes,
                // which `to` holds; the store touches no other lane.
                unsafe { _mm512_mask_storeu_ps(to.as_mut_ptr(), first(to.len()), sum) };
            }
        }
    }
}

/// The first `lanes` floats of `s` as a vector, zeros above them.
#[target_feature(enable = "avx512f")]
#[inline]
fn load(s: &[f32], lanes: usize) -> __m512 {
    let s = &s[..lanes];
    if lanes == LANES {
        // SAFETY: `s` is 16 contiguous `f32`s; the load is unaligned.
        unsafe { _mm512_loadu_ps(s.as_ptr()) }
    } else {
        // SAFETY: the mask selects the first `s.len()` lanes; the load
        // touches no other lane.
        unsafe { _mm512_maskz_loadu_ps(first(lanes), s.as_ptr()) }
    }
}

/// The mask of lanes `0..lanes`.
#[inline]
fn first(lanes: usize) -> __mmask16 {
    ((1u32 << lanes) - 1) as __mmask16
}
