//! Single-precision general matrix multiply.
//!
//! Structured like a tuned BLAS: a naive triple loop (correctness
//! oracle) and two tiers [`sgemm`] picks between by shape — a no-pack
//! kernel for calls of at most `SKINNY_MAX_M` rows (fewer when the call
//! is threaded) or below `PACK_MIN_VOLUME`, and a BLIS-style packed
//! kernel for everything else. The packed kernel lays A out in `MR`-row
//! column-major micro-panels and B in `NR`-column row-major micro-panels
//! so the register-blocked micro-kernel streams both operands at unit
//! stride. Both operands are packed once per call and shared read-only;
//! the driver splits C's rows into `MR`-aligned strips across
//! `std::thread::scope` workers. Because every C row is computed in the
//! same order regardless of the split, parallel results are bitwise
//! identical to sequential. The convolution runs on the same driver: it
//! packs a group's weights as A once per call and writes each image's
//! im2col columns into B's panels in the layout's own order, each panel
//! row once (`crate::conv`).
//!
//! A third tier, the lookup kernel [`gemm_lookup`], reads only the rows
//! of B that A's nonzero entries select: a one-hot row times an
//! embedding matrix is one row of it, not all of it. [`matmul_finite`]
//! takes it when every row of A has at most `1 / LOOKUP_MAX_SHARE` of
//! its entries nonzero, and only there, because skipping a zero term is
//! exact only for a finite B: `0 * inf` and `0 * NaN` are NaN, so a
//! caller must know B holds no infinity or NaN (a network's weights are
//! checked once, when they are built or loaded).
//!
//! The three tiers share one **reduction-order contract**, which is what
//! makes them interchangeable bit for bit: for each
//! element of C and each `KC`-deep block of the inner dimension, blocks
//! in ascending order, a fresh `+0.0` accumulator takes `a[i][p] * b[p][j]`
//! in ascending `p` (no fused multiply-add, no reassociation), and then
//! `c[i][j] += alpha * acc`. A row therefore gets the same bits whether
//! it is sent alone or inside a large batch. The lookup tier leaves out
//! the terms with `a[i][p] == ±0.0` and keeps the rest of the contract,
//! including the `c += alpha * acc` of a block with no term left. With B
//! finite that changes no bit: a left-out product is `±0.0`; `x + ±0.0`
//! is `x` for every `x` but `-0.0`; and an accumulator that starts at
//! `+0.0` is never `-0.0`, since under round-to-nearest a sum is `-0.0`
//! only when both addends are.
//!
//! The kernels are safe Rust that the compiler vectorises; there are no
//! intrinsics. Each tier's loop nest is compiled for baseline x86-64
//! (SSE2, four lanes), and the no-pack and packed tiers' again inside
//! `#[target_feature]` functions
//! (`crate::isa`, the crate's one CPU check, picks the best the CPU has,
//! once per call); the lookup tier does a row's worth of work per
//! nonzero and has only the one instantiation. The packed tier runs one const-generic micro-kernel,
//! [`microkernel`], whose tile is `W` columns: one `NR` panel portably,
//! two adjacent panels under AVX2 and four under AVX-512F. The no-pack
//! tier runs [`gemm_skinny_body`] portably and under AVX2, and under
//! AVX-512F a register-blocked nest of its own, [`gemm_skinny_blocked`],
//! which keeps up to eight rows' accumulators in registers while it reads
//! B in place. Every instantiation keeps the contract, so which one ran
//! never shows in an output bit.

use crate::{Result, Shape, Tensor, TensorError};

/// Micro-kernel rows: each micro-tile updates `MR` rows of C.
pub(crate) const MR: usize = 4;
/// Micro-kernel columns: each micro-tile updates `NR` columns of C.
pub(crate) const NR: usize = 8;
/// Row-dimension block size; an `MC x KC` packed A block stays in L2.
const MC: usize = 64;
/// Depth block size; a `KC x NR` packed B micro-panel stays in L1.
const KC: usize = 256;
/// Column-dimension block size (must be a multiple of `NR`).
const NC: usize = 256;
/// Problems below this `m * n * k` volume skip packing: the O(mk + kn)
/// copy costs more than it saves on matrices this small.
pub(crate) const PACK_MIN_VOLUME: usize = 32 * 32 * 32;
/// Calls of at most this many rows take the no-pack kernel. Packing B
/// reads and writes all of it once before the first multiply, and a
/// fully-connected layer's weights are constant, so the packed tier pays
/// that copy on every call. With AVX-512 the no-pack kernel keeps a row
/// group's accumulators in registers and reads each B row once per eight
/// rows; against the packed tier it is 1.4-1.7x ahead at 28 rows and
/// 1.2-1.7x at 32, and at 64 the two are within the host's noise
/// (`results/gemm_skinny.txt`). On AVX2 and portably the no-pack nest was
/// 1.04-1.5x ahead at 16 and 28 rows as well. So the limit is eight `MR`
/// panels, for calls on one thread: see [`THREADED_SKINNY_MAX_M`].
pub(crate) const SKINNY_MAX_M: usize = 8 * MR;
/// The row limit of the no-pack tier for calls with `threads > 1`. That
/// tier runs on one thread, while the packed tier splits C's `MR`-row
/// strips across the workers, so a threaded call taller than two panels
/// keeps the packed tier and its parallelism.
const THREADED_SKINNY_MAX_M: usize = 2 * MR;

/// Whether [`sgemm`] sends an `m x n x k` call on `threads` workers to
/// the no-pack tier rather than the packed one.
pub(crate) fn takes_no_pack(m: usize, n: usize, k: usize, threads: usize) -> bool {
    let max_m = if threads > 1 {
        THREADED_SKINNY_MAX_M
    } else {
        SKINNY_MAX_M
    };
    m <= max_m || m * n * k < PACK_MIN_VOLUME
}

/// A row of A takes the lookup tier with at most `k / LOOKUP_MAX_SHARE`
/// nonzeros. The lookup tier's time grows with the nonzeros and the
/// no-pack tier's does not. At 1, 2, 8 and 16 rows the lookup tier was
/// 1.1-2.4x ahead at `k / 8` nonzeros per row against `textgen`'s
/// 256x512 embedding and 1.5-3.4x at `k / 11` against SENNA's 350x450
/// layer, and behind from two rows up at `k / 4` and from eight at
/// `k / 5.5` (0.64-0.84x; `results/gemm_lookup.txt`). At `k / 16` it was
/// 2.0-3.7x ahead on the first shape, a margin the host's noise does not
/// cross; a one-hot row ran 10-27x ahead.
const LOOKUP_MAX_SHARE: usize = 16;

/// Whether [`matmul_finite`] sends the row-major `m x k` matrix `a` to
/// the lookup tier: every row has at most `k / LOOKUP_MAX_SHARE`
/// nonzeros. The scan stops at the first row with more.
fn takes_lookup(a: &[f32], k: usize) -> bool {
    let max = k / LOOKUP_MAX_SHARE;
    a.chunks_exact(k)
        .all(|row| row.iter().filter(|&&v| v != 0.0).count() <= max)
}

/// Which instantiation of the packed tier one call runs: chosen once, on
/// the calling thread (`crate::isa` holds the CPU check), and handed to
/// every worker of the call, so all of its strips run the same kernels.
#[derive(Clone, Copy)]
pub(crate) struct Kernels {
    #[cfg(target_arch = "x86_64")]
    isa: Option<crate::isa::Avx2>,
}

impl Kernels {
    /// The best this CPU runs.
    pub(crate) fn detect() -> Kernels {
        Kernels {
            #[cfg(target_arch = "x86_64")]
            isa: crate::isa::Avx2::detect(),
        }
    }
}

/// Tuning options for [`sgemm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmOptions {
    /// Number of worker threads; 1 = sequential. Thread count is capped at
    /// the number of `MR` row panels, so oversubscription is harmless.
    pub threads: usize,
}

impl Default for GemmOptions {
    fn default() -> Self {
        GemmOptions { threads: 1 }
    }
}

impl GemmOptions {
    /// Options running `threads` workers (at least one).
    pub fn with_threads(threads: usize) -> Self {
        GemmOptions {
            threads: threads.max(1),
        }
    }
}

/// Computes `C = A * B` for 2-D tensors (flattening higher ranks as
/// matrices), using the sequential kernel.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
///
/// ```
/// use tensor::{Tensor, Shape};
/// let a = Tensor::filled(Shape::mat(4, 8), 1.0);
/// let b = Tensor::filled(Shape::mat(8, 2), 0.5);
/// let c = tensor::matmul(&a, &b)?;
/// assert_eq!(c.data()[0], 4.0);
/// # Ok::<(), tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_with(a, b, 1)
}

/// [`matmul`] with an explicit worker-thread budget.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
pub fn matmul_with(a: &Tensor, b: &Tensor, threads: usize) -> Result<Tensor> {
    product(a, b, threads, false)
}

/// [`matmul_with`] for a `b` that holds no infinity and no NaN: where
/// every row of `a` is sparse enough it takes the lookup tier, which
/// reads only the rows of `b` that `a`'s nonzeros select, and elsewhere
/// the tier [`sgemm`] picks. The bits are [`matmul_with`]'s either way,
/// given that precondition; with an infinity or NaN in `b` the lookup
/// tier would drop the NaN that `0 * inf` or `0 * NaN` gives.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
pub fn matmul_finite(a: &Tensor, b: &Tensor, threads: usize) -> Result<Tensor> {
    product(a, b, threads, true)
}

/// `a * b` into a new tensor, through the lookup tier if `b_finite` says
/// it may and `a`'s rows are sparse enough, else through [`sgemm`].
fn product(a: &Tensor, b: &Tensor, threads: usize, b_finite: bool) -> Result<Tensor> {
    let (m, ka) = a.shape().as_matrix();
    let (kb, n) = b.shape().as_matrix();
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let mut c = Tensor::zeros(Shape::mat(m, n));
    if b_finite && takes_lookup(a.data(), ka) {
        gemm_lookup(m, n, ka, 1.0, a.data(), b.data(), c.data_mut());
    } else {
        sgemm(
            m,
            n,
            ka,
            1.0,
            a.data(),
            b.data(),
            0.0,
            c.data_mut(),
            GemmOptions::with_threads(threads),
        )?;
    }
    Ok(c)
}

/// `C = alpha * A * B + beta * C` over raw row-major slices.
///
/// `a` is `m x k`, `b` is `k x n`, `c` is `m x n`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidParams`] when slice lengths do not match
/// the stated dimensions or a dimension is zero.
#[allow(clippy::too_many_arguments)]
pub fn sgemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    opts: GemmOptions,
) -> Result<()> {
    if m == 0 || n == 0 || k == 0 {
        return Err(TensorError::InvalidParams {
            op: "sgemm",
            reason: format!("zero dimension m={m} n={n} k={k}"),
        });
    }
    if a.len() != m * k || b.len() != k * n || c.len() != m * n {
        return Err(TensorError::InvalidParams {
            op: "sgemm",
            reason: format!(
                "slice lengths a={} b={} c={} inconsistent with m={m} n={n} k={k}",
                a.len(),
                b.len(),
                c.len()
            ),
        });
    }

    if beta == 0.0 {
        // BLAS semantics: beta 0 means C is not read, so a NaN or infinity
        // already there must not survive (`NaN * 0.0` is NaN).
        c.fill(0.0);
    } else if beta != 1.0 {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }

    if takes_no_pack(m, n, k, opts.threads) {
        gemm_skinny(m, n, k, alpha, a, b, c);
    } else {
        gemm_packed(m, n, k, alpha, a, b, c, opts.threads);
    }
    Ok(())
}

/// Reference implementation: naive triple loop. Used as a correctness
/// oracle in tests and benchmarks.
///
/// Every `a[i][p] * b[p][j]` product is accumulated unconditionally —
/// skipping zero A entries would be faster but silently drops NaN and
/// infinity propagation from B (`0.0 * NaN` is NaN, not zero), and an
/// oracle must match IEEE semantics exactly.
///
/// # Panics
///
/// Panics (via slice indexing) if the slice lengths are inconsistent with
/// the dimensions; use [`sgemm`] for validated input.
pub fn gemm_naive(m: usize, n: usize, k: usize, alpha: f32, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for p in 0..k {
            let av = alpha * a[i * k + p];
            let brow = &b[p * n..(p + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Skinny kernel
// ---------------------------------------------------------------------------

/// No-pack kernel for calls of a few rows: streams B in place, row-major,
/// with no O(k·n) scratch. At this height a fully-connected layer is
/// bound by moving its weights once, and packing would move them twice
/// more. Follows the module's reduction-order contract, so the result is
/// bitwise identical to [`gemm_packed`]'s for every shape and `alpha`.
///
/// Correct for any `m`. [`sgemm`] sends it `m <= SKINNY_MAX_M` on one
/// thread, `m <= THREADED_SKINNY_MAX_M` on more, and any call below
/// `PACK_MIN_VOLUME`, where the packing copies would cost more than they
/// save. On AVX-512 it runs `gemm_skinny_blocked` (the accumulators in
/// registers), otherwise `gemm_skinny_body` on AVX2 or portably. Public
/// as an ablation tier for the GEMM benchmarks, like [`gemm_naive`]:
/// `C += alpha * A B` (no beta), one thread.
pub fn gemm_skinny(m: usize, n: usize, k: usize, alpha: f32, a: &[f32], b: &[f32], c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(isa) = crate::isa::Avx2::detect() {
        return isa.gemm_skinny(m, n, k, alpha, a, b, c);
    }
    gemm_skinny_body(m, n, k, alpha, a, b, c);
}

/// [`gemm_skinny`]'s portable loop nest, compiled once for baseline
/// x86-64 and once more with AVX2 enabled (`crate::isa`), so both vector
/// widths run the same source and sum in the same order: within each
/// `KC x NC` block of B, rows are walked `MR` at a time against an
/// `MR x NC` accumulator on the stack, so the block is streamed from
/// memory once and re-read from cache.
#[inline(always)]
pub(crate) fn gemm_skinny_body(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let mut acc = [[0.0f32; NC]; MR];
    for jc in (0..n).step_by(NC) {
        let nb = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            for i0 in (0..m).step_by(MR) {
                let rows = MR.min(m - i0);
                for row in &mut acc[..rows] {
                    row[..nb].fill(0.0);
                }
                // Four depth steps per pass over the accumulator row: the
                // sum stays in ascending-`p` order, but `acc` is loaded
                // and stored once per four B rows instead of once each.
                let mut p = pc;
                while p + 4 <= pc + kb {
                    let b0 = &b[p * n + jc..][..nb];
                    let b1 = &b[(p + 1) * n + jc..][..nb];
                    let b2 = &b[(p + 2) * n + jc..][..nb];
                    let b3 = &b[(p + 3) * n + jc..][..nb];
                    for (r, row) in acc[..rows].iter_mut().enumerate() {
                        let av: &[f32; 4] = a[(i0 + r) * k + p..][..4]
                            .try_into()
                            .expect("slice of length 4");
                        for ((((x, v0), v1), v2), v3) in
                            row[..nb].iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                        {
                            *x = (((*x + av[0] * v0) + av[1] * v1) + av[2] * v2) + av[3] * v3;
                        }
                    }
                    p += 4;
                }
                while p < pc + kb {
                    let brow = &b[p * n + jc..][..nb];
                    for (r, row) in acc[..rows].iter_mut().enumerate() {
                        let av = a[(i0 + r) * k + p];
                        for (x, v) in row[..nb].iter_mut().zip(brow) {
                            *x += av * v;
                        }
                    }
                    p += 1;
                }
                for (r, row) in acc[..rows].iter().enumerate() {
                    let crow = &mut c[(i0 + r) * n + jc..][..nb];
                    for (cv, &x) in crow.iter_mut().zip(&row[..nb]) {
                        *cv += alpha * x;
                    }
                }
            }
        }
    }
}

/// Rows of C one pass of [`gemm_skinny_blocked`] computes.
const GROUP: usize = 2 * MR;
/// Lanes of one 512-bit vector register.
pub(crate) const LANES: usize = 16;

/// [`gemm_skinny_body`]'s contract as a register-blocked nest, for the
/// no-pack tier's AVX-512 instantiation (`crate::isa`), where the
/// compiler's rendering of the stack accumulator reloads and stores it
/// for every four B rows: `C += alpha * A B`, with B read in place.
///
/// Within each `NC` column block and `KC` depth block, rows go `GROUP` at
/// a time, and a group walks its columns in strips: 128 columns for one
/// or two rows, 64 for three or four, 32 for five to eight, so a group
/// never holds more than 16 vectors of accumulators. Each accumulator
/// starts at zero, takes `a * b` for every depth of the block in
/// ascending order, a multiply then an add, and is then added to C as
/// `c + alpha * acc`: exactly what the portable nest does per element.
/// Whole 16-lane vectors past the last whole strip go two, then one at a
/// time. The columns past the last whole vector come from `tail`, one
/// vector's worth per row copied once per depth block and shared by every
/// row group, so no row end needs a mask: a strip reads whole vectors and
/// stores only the block's columns. `tail` is the buffer for those
/// copies, from [`with_tail`]: `KC` rows, or none where `n` leaves no
/// block a ragged end.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_skinny_blocked(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    tail: &mut [[f32; LANES]],
) {
    for jc in (0..n).step_by(NC) {
        let nb = NC.min(n - jc);
        let whole = nb - nb % LANES;
        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            let b = &b[pc * n + jc..];
            if whole < nb {
                fill_tail(&mut tail[..kb], b, n, whole);
            }
            let block = Block {
                b,
                ldb: n,
                kb,
                whole,
                nb,
                tail: tail.get(..kb).unwrap_or(&[]).as_flattened(),
                alpha,
            };
            for i0 in (0..m).step_by(GROUP) {
                let a = &a[i0 * k + pc..];
                let c = &mut c[i0 * n + jc..];
                match GROUP.min(m - i0) {
                    1 => group::<1, 128>(&block, a, k, c),
                    2 => group::<2, 128>(&block, a, k, c),
                    3 => group::<3, 64>(&block, a, k, c),
                    4 => group::<4, 64>(&block, a, k, c),
                    5 => group::<5, 32>(&block, a, k, c),
                    6 => group::<6, 32>(&block, a, k, c),
                    7 => group::<7, 32>(&block, a, k, c),
                    _ => group::<8, 32>(&block, a, k, c),
                }
            }
        }
    }
}

/// Runs `f` on the tail buffer [`gemm_skinny_blocked`] needs for an
/// `n`-wide B: `KC` zeroed rows of one vector where `n` leaves the last
/// column block a ragged end (`NC` is whole vectors, so only the last
/// can have one), and none otherwise, so a call with no ragged end
/// builds no buffer. The buffer is made here, outside the nest, and
/// reaches it as an argument: built inside, conditionally, it cost the
/// nest's 28-row `pos` call 1.5x its time.
#[inline(always)]
pub(crate) fn with_tail<T>(n: usize, f: impl FnOnce(&mut [[f32; LANES]]) -> T) -> T {
    const { assert!(NC.is_multiple_of(LANES)) };
    if n.is_multiple_of(LANES) {
        f(&mut [])
    } else {
        f(&mut [[0.0; LANES]; KC])
    }
}

/// One vector's worth of each row of `b` (rows `ldb` apart) from column
/// `from` on, into `tail`: the columns a block has past its last whole
/// vector, then whatever follows them in `b`, and zeros where `b` ends.
/// Only the block's own columns of a tail strip reach C.
#[inline(always)]
fn fill_tail(tail: &mut [[f32; LANES]], b: &[f32], ldb: usize, from: usize) {
    for (p, to) in tail.iter_mut().enumerate() {
        let at = p * ldb + from;
        match b.get(at..at + LANES) {
            Some(row) => to.copy_from_slice(row),
            None => {
                let row = &b[at..];
                *to = [0.0; LANES];
                to[..row.len()].copy_from_slice(row);
            }
        }
    }
}

/// One `KC` depth block of [`gemm_skinny_blocked`] within one column
/// block: `b` starts at its first row and first column, rows `ldb` apart
/// (C's rows are as far apart); columns `whole..nb` are in `tail`, rows
/// `LANES` apart.
struct Block<'a> {
    b: &'a [f32],
    ldb: usize,
    kb: usize,
    whole: usize,
    nb: usize,
    tail: &'a [f32],
    alpha: f32,
}

/// `R` rows over the column block: whole strips `W` columns wide, then
/// strips of two vectors and of one, the last of them from the tail copy. `a` starts at
/// the first row's first depth of the block, rows `lda` apart; `c` at
/// its first column.
///
/// A's rows are read in place, one slice per row. Copying a group's A
/// values side by side per depth instead lets the compiler vectorise a
/// group across its rows, with gathers and scatters: 8- and 28-row calls
/// ran 1.4-1.8x slower that way.
#[inline(always)]
fn group<const R: usize, const W: usize>(block: &Block, a: &[f32], lda: usize, c: &mut [f32]) {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * lda..][..block.kb]);
    let mut j = 0;
    while j + W <= block.whole {
        strip::<R, W>(block, &rows, (block.b, block.ldb, j), &mut c[j..], W);
        j += W;
    }
    while j + 2 * LANES <= block.whole {
        strip::<R, { 2 * LANES }>(
            block,
            &rows,
            (block.b, block.ldb, j),
            &mut c[j..],
            2 * LANES,
        );
        j += 2 * LANES;
    }
    while j < block.nb {
        let from = if j < block.whole {
            (block.b, block.ldb, j)
        } else {
            (block.tail, LANES, 0)
        };
        let width = LANES.min(block.nb - j);
        strip::<R, LANES>(block, &rows, from, &mut c[j..], width);
        j += width;
    }
}

/// `R x W` accumulators over the depth block against B's rows from
/// `(b, ldb, j)`: row `p` is `b[p * ldb + j..][..W]`. The first `width`
/// columns are added to C.
#[inline(always)]
fn strip<const R: usize, const W: usize>(
    block: &Block,
    rows: &[&[f32]; R],
    (b, ldb, j): (&[f32], usize, usize),
    c: &mut [f32],
    width: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    for p in 0..block.kb {
        let bv: &[f32; W] = b[p * ldb + j..][..W].try_into().expect("W columns");
        for (acc, row) in acc.iter_mut().zip(rows) {
            let ar = row[p];
            for (x, &v) in acc.iter_mut().zip(bv) {
                *x += ar * v;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        // `alpha * acc` over the whole row first: a loop of `width` over
        // the accumulators themselves would keep them out of registers.
        let scaled: [f32; W] = std::array::from_fn(|l| block.alpha * acc[l]);
        let crow = &mut c[r * block.ldb..][..width];
        for (cv, &x) in crow.iter_mut().zip(&scaled) {
            *cv += x;
        }
    }
}

// ---------------------------------------------------------------------------
// Lookup kernel
// ---------------------------------------------------------------------------

/// Lookup kernel for rows of A that are mostly zero: `C += alpha * A B`
/// (no beta, one thread), reading only the rows of B that A's nonzero
/// entries select. Per row of C, `NC` column block and `KC` depth block,
/// a fresh `+0.0` accumulator takes `a * b` for each nonzero `a` of the
/// block in ascending depth, and C then takes `alpha * acc`, even from a
/// block with no nonzero. That is the module's reduction-order contract
/// less the `±0.0 * b` terms, which for a finite B are `±0.0` and change
/// no bit (module docs), so for such a B the result is bitwise
/// [`gemm_skinny`]'s and [`gemm_packed`]'s. With an infinity or NaN in B
/// it is not: `0 * inf` is NaN, and this kernel never forms it.
///
/// Correct for any `m` and any A. [`matmul_finite`] sends it a call
/// whose every row has at most `k / LOOKUP_MAX_SHARE` nonzeros, such as
/// the one-hot token rows of a decode step against an embedding matrix.
/// Public as an ablation tier for the GEMM benchmarks, like
/// [`gemm_skinny`].
pub fn gemm_lookup(m: usize, n: usize, k: usize, alpha: f32, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut acc = [0.0f32; NC];
    for (a, c) in a[..m * k].chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        for jc in (0..n).step_by(NC) {
            let acc = &mut acc[..NC.min(n - jc)];
            let c = &mut c[jc..][..acc.len()];
            for pc in (0..k).step_by(KC) {
                acc.fill(0.0);
                // A vector's worth of depths at a time: one OR over their
                // bits, less the sign, says whether any is nonzero.
                for (p0, span) in (pc..)
                    .step_by(LANES)
                    .zip(a[pc..][..KC.min(k - pc)].chunks(LANES))
                {
                    if span.iter().fold(0, |any, v| any | v.to_bits() << 1) == 0 {
                        continue;
                    }
                    for (p, &av) in (p0..).zip(span) {
                        if av != 0.0 {
                            let brow = &b[p * n + jc..][..acc.len()];
                            for (x, &v) in acc.iter_mut().zip(brow) {
                                *x += av * v;
                            }
                        }
                    }
                }
                for (cv, &x) in c.iter_mut().zip(acc.iter()) {
                    *cv += alpha * x;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed kernel
// ---------------------------------------------------------------------------

/// A packed for the micro-kernel: `MR`-row micro-panels, KC-blocked along
/// the depth dimension, zero-padded to full panels.
///
/// Layout: the depth block starting at column `pc` (of depth `kb`)
/// occupies `kb * padded_m` floats starting at `pc * padded_m`; within
/// it, row panel `rp` is `kb * MR` contiguous floats, depth-major (`MR`
/// values of depth `pc`, then depth `pc + 1`, ...).
pub(crate) struct PackedA {
    data: Vec<f32>,
    m: usize,
    padded_m: usize,
}

impl PackedA {
    /// Packs the row-major `m x k` matrix `a`.
    pub(crate) fn pack(m: usize, k: usize, a: &[f32]) -> PackedA {
        let padded_m = m.div_ceil(MR) * MR;
        let mut data = vec![0.0f32; k * padded_m];
        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            let block = &mut data[pc * padded_m..][..kb * padded_m];
            for (i, row) in a.chunks_exact(k).enumerate() {
                let lane = &mut block[(i - i % MR) * kb + i % MR..];
                for (dst, &v) in lane.iter_mut().step_by(MR).zip(&row[pc..pc + kb]) {
                    *dst = v;
                }
            }
        }
        PackedA { data, m, padded_m }
    }

    /// The `kb * MR` micro-panel for depth block `pc` and row panel `rp`.
    #[inline]
    fn panel(&self, pc: usize, kb: usize, rp: usize) -> &[f32] {
        let base = pc * self.padded_m + rp * MR * kb;
        &self.data[base..base + MR * kb]
    }
}

/// B packed for the micro-kernel: row-major `NR`-column micro-panels,
/// KC-blocked along the depth dimension, zero-padded to full panels.
///
/// Layout: the depth block starting at row `pc` (of height `kb`) occupies
/// `kb * padded_n` floats starting at `pc * padded_n`; within it, column
/// panel `jp` is `kb * NR` contiguous floats, depth-major (`NR` values of
/// row `pc`, then row `pc + 1`, ...).
///
/// Two fillers produce it: [`PackedB::pack`] copies a row-major matrix,
/// and the convolution writes an image's im2col columns into a
/// [`PackedB::zeroed`] buffer through [`PackedB::panels_mut`], in the
/// layout's own order, so the column matrix never exists in row-major
/// form.
pub(crate) struct PackedB {
    data: Vec<f32>,
    k: usize,
    n: usize,
    padded_n: usize,
}

impl PackedB {
    /// Every element of the packed buffer is written exactly once, in
    /// layout order, so there is no zero-fill pass to overwrite.
    pub(crate) fn pack(k: usize, n: usize, b: &[f32]) -> PackedB {
        let full = n / NR;
        let ragged = n % NR;
        let padded_n = n.div_ceil(NR) * NR;
        let mut data = Vec::with_capacity(k * padded_n);
        for pc in (0..k).step_by(KC) {
            let rows = &b[pc * n..(pc + KC.min(k - pc)) * n];
            for jp in 0..full {
                for row in rows.chunks_exact(n) {
                    data.extend_from_slice(&row[jp * NR..][..NR]);
                }
            }
            if ragged > 0 {
                for row in rows.chunks_exact(n) {
                    data.extend_from_slice(&row[full * NR..]);
                    data.extend_from_slice(&[0.0; NR][ragged..]);
                }
            }
        }
        debug_assert_eq!(data.len(), k * padded_n);
        PackedB {
            data,
            k,
            n,
            padded_n,
        }
    }

    /// An all-zero `k x n` matrix, for a filler that writes it through
    /// [`PackedB::panels_mut`].
    pub(crate) fn zeroed(k: usize, n: usize) -> PackedB {
        let padded_n = n.div_ceil(NR) * NR;
        PackedB {
            data: vec![0.0; k * padded_n],
            k,
            n,
            padded_n,
        }
    }

    /// The buffer in its own order, for a filler that writes it panel
    /// by panel: each depth block in turn, and in it each column panel
    /// `jp` as `(depth rows, jp, its kb * NR floats)`.
    pub(crate) fn panels_mut(
        &mut self,
    ) -> impl Iterator<Item = (std::ops::Range<usize>, usize, &mut [f32])> {
        let k = self.k;
        self.data
            .chunks_mut(KC * self.padded_n)
            .zip((0..k).step_by(KC))
            .flat_map(move |(block, pc)| {
                let kb = KC.min(k - pc);
                block
                    .chunks_exact_mut(kb * NR)
                    .enumerate()
                    .map(move |(jp, panel)| (pc..pc + kb, jp, panel))
            })
    }

    /// The whole buffer, in its layout order.
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The `count` micro-panels of `kb * NR` floats each, back to back,
    /// for depth block `pc` and column panels `jp..jp + count`.
    #[inline]
    fn panels(&self, pc: usize, kb: usize, jp: usize, count: usize) -> &[f32] {
        let base = pc * self.padded_n + jp * NR * kb;
        &self.data[base..base + count * NR * kb]
    }
}

/// Register-blocked `MR x W` micro-kernel: the tile of `kb` rank-1
/// updates from one packed A panel and `W / NR` adjacent B panels, which
/// the layout keeps back to back (`pb`). Both operands stream at unit
/// stride. Each step is a multiply, then an add — the reduction-order
/// contract rules out a fused multiply-add, and Rust never contracts one.
///
/// It is safe Rust that the compiler vectorises at whatever width the
/// instantiation enables (`crate::isa`): `W` = `NR` portably, `2·NR`
/// under AVX2 and `4·NR` under AVX-512, one or two vector registers per
/// accumulator row. Per depth step the panels' rows are first copied
/// side by side into one `[f32; W]` row, so the update reads whole
/// vectors, and it goes into local accumulators, which stay in
/// registers. A kernel that updated the accumulators straight from each
/// panel's 8 lanes, with no joined row, ran the 4×32 tile at half speed
/// in a probe before this loop was written; in this loop's shape the
/// compiler joins the lanes either way.
#[inline(always)]
fn microkernel<const W: usize>(kb: usize, pa: &[f32], pb: &[f32]) -> [[f32; W]; MR] {
    // The panels' rows zipped with A's, each sliced to `kb` first, so the
    // depth loop runs without bounds checks. A tile is at most four
    // panels; the slots past `W / NR` repeat the last panel and are not
    // read.
    const { assert!(W <= 4 * NR) };
    let a_rows = &pa.as_chunks::<MR>().0[..kb];
    let b_rows = pb.as_chunks::<NR>().0;
    let panel = |q: usize| &b_rows[q.min(W / NR - 1) * kb..][..kb];
    let b_steps = panel(0)
        .iter()
        .zip(panel(1))
        .zip(panel(2).iter().zip(panel(3)));
    let mut acc = [[0.0f32; W]; MR];
    for (av, ((r0, r1), (r2, r3))) in a_rows.iter().zip(b_steps) {
        let mut bv = [0.0f32; W];
        for (to, row) in bv.as_chunks_mut::<NR>().0.iter_mut().zip([r0, r1, r2, r3]) {
            *to = *row;
        }
        for (row, &ar) in acc.iter_mut().zip(av) {
            for (x, &v) in row.iter_mut().zip(&bv) {
                *x += ar * v;
            }
        }
    }
    acc
}

/// The packed tier's one loop nest, over the `MR`-aligned row strip
/// `r0..r1`: `c_strip` (the `(r1 - r0) * n` slice of C starting at row
/// `r0`) takes `alpha * A B` block by block as the reduction-order
/// contract says, and `bias[i]`, if given, is added to row `i` after its
/// last depth block — the same bits as a separate pass over the finished
/// product. Runs on AVX-512 or AVX2 where `kernels` found it, portably
/// elsewhere.
#[allow(clippy::too_many_arguments)]
fn packed_strip(
    kernels: Kernels,
    r0: usize,
    r1: usize,
    alpha: f32,
    a: &PackedA,
    b: &PackedB,
    c_strip: &mut [f32],
    bias: Option<&[f32]>,
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(isa) = kernels.isa {
        return isa.packed_strip(r0, r1, alpha, a, b, c_strip, bias);
    }
    packed_strip_body::<NR>(r0, r1, alpha, a, b, c_strip, bias);
}

/// [`packed_strip`]'s loop nest around [`microkernel`] at two widths:
/// tiles `W` columns wide (`W / NR` adjacent B panels) over each column
/// block's whole panel groups, then `NR`-wide tiles over the panels left
/// at its end. The portable instantiation passes `W = NR`, a group of
/// one, so every panel goes through the first loop. Which width computes
/// a tile never changes its bits.
#[inline(always)]
pub(crate) fn packed_strip_body<const W: usize>(
    r0: usize,
    r1: usize,
    alpha: f32,
    a: &PackedA,
    b: &PackedB,
    c_strip: &mut [f32],
    bias: Option<&[f32]>,
) {
    const { assert!(W.is_multiple_of(NR) && W >= NR) };
    let (n, k) = (b.n, b.k);
    let per = W / NR;
    for jc in (0..n).step_by(NC) {
        let ncb = NC.min(n - jc);
        let panels = jc / NR..(jc + ncb).div_ceil(NR);
        // Whole groups first, then the panels left over, one at a time.
        let tail = panels.end - panels.len() % per;
        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            let tile = Tile {
                r0,
                r1,
                n,
                alpha,
                bias: bias.filter(|_| pc + kb == k),
            };
            for ic in (r0..r1).step_by(MC) {
                let mb = MC.min(r1 - ic);
                let row_panels = ic / MR..(ic + mb).div_ceil(MR);
                for jp in (panels.start..tail).step_by(per) {
                    let pb = b.panels(pc, kb, jp, per);
                    for rp in row_panels.clone() {
                        let acc = microkernel::<W>(kb, a.panel(pc, kb, rp), pb);
                        tile.add(&acc, rp * MR, jp * NR, c_strip);
                    }
                }
                for jp in tail..panels.end {
                    let pb = b.panels(pc, kb, jp, 1);
                    for rp in row_panels.clone() {
                        let acc = microkernel::<NR>(kb, a.panel(pc, kb, rp), pb);
                        tile.add(&acc, rp * MR, jp * NR, c_strip);
                    }
                }
            }
        }
    }
}

/// What adding a finished tile to C needs besides the tile: the strip's
/// rows, C's width, `alpha`, and the bias when this is the last depth
/// block.
struct Tile<'a> {
    r0: usize,
    r1: usize,
    n: usize,
    alpha: f32,
    bias: Option<&'a [f32]>,
}

impl Tile<'_> {
    /// `c += alpha * acc`, then `+ bias[i]` if given, for the tile whose
    /// top-left element is C's `(i0, j0)`; rows past the strip and
    /// columns past `n` (the zero padding of the packed panels) are
    /// dropped.
    #[inline(always)]
    fn add<const W: usize>(&self, acc: &[[f32; W]; MR], i0: usize, j0: usize, c_strip: &mut [f32]) {
        let nb = W.min(self.n - j0);
        for (r, acc_row) in acc.iter().take(self.r1 - i0).enumerate() {
            let crow = &mut c_strip[(i0 - self.r0 + r) * self.n + j0..][..nb];
            match self.bias {
                None => {
                    for (cv, &av) in crow.iter_mut().zip(acc_row) {
                        *cv += self.alpha * av;
                    }
                }
                Some(bias) => {
                    let bv = bias[i0 + r];
                    for (cv, &av) in crow.iter_mut().zip(acc_row) {
                        *cv = (*cv + self.alpha * av) + bv;
                    }
                }
            }
        }
    }
}

/// Packed driver, `C += alpha * A B (+ bias per row)` from operands
/// already in panel form: runs the row strips sequentially or across up
/// to `threads` scoped threads. Strips are `MR`-panel aligned, so each C
/// row is produced by exactly the same instruction sequence in both
/// modes — thread count never changes the result.
pub(crate) fn packed_driver(
    kernels: Kernels,
    alpha: f32,
    a: &PackedA,
    b: &PackedB,
    c: &mut [f32],
    bias: Option<&[f32]>,
    threads: usize,
) {
    let (m, n) = (a.m, b.n);
    let threads = threads.max(1).min(m.div_ceil(MR));
    if threads <= 1 {
        packed_strip(kernels, 0, m, alpha, a, b, c, bias);
        return;
    }

    let panels_per = m.div_ceil(MR).div_ceil(threads);
    let rows_per = panels_per * MR;
    std::thread::scope(|scope| {
        let mut rest = c;
        let mut r0 = 0usize;
        while r0 < m {
            let rows = rows_per.min(m - r0);
            let (strip, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            scope.spawn(move || packed_strip(kernels, r0, r0 + rows, alpha, a, b, strip, bias));
            r0 += rows;
        }
    });
}

/// Packed tier: packs A and B once each (shared read-only by every
/// worker), then hands them to the packed driver. Public as an ablation
/// tier for the GEMM benchmarks, like [`gemm_skinny`]:
/// `C += alpha * A B` (no beta).
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
) {
    let (a, b) = (PackedA::pack(m, k, a), PackedB::pack(k, n, b));
    packed_driver(Kernels::detect(), alpha, &a, &b, c, None, threads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conv2d_with, Conv2dParams, Threading};
    use proptest::prelude::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn approx_eq(a: &[f32], b: &[f32], tol: f32) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    /// Element-wise relative comparison: `|x - y| <= tol * max(1, |x|)`.
    fn rel_eq(want: &[f32], got: &[f32], tol: f32) -> bool {
        want.len() == got.len()
            && want
                .iter()
                .zip(got)
                .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(1.0))
    }

    #[test]
    fn matmul_small_known_answer() {
        let a = Tensor::from_vec(Shape::mat(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(Shape::mat(3, 2), vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_rejects_inner_mismatch() {
        let a = Tensor::zeros(Shape::mat(2, 3));
        let b = Tensor::zeros(Shape::mat(4, 2));
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn sgemm_validates_slice_lengths() {
        let a = vec![0.0; 5];
        let b = vec![0.0; 6];
        let mut c = vec![0.0; 4];
        let err = sgemm(2, 2, 3, 1.0, &a, &b, 0.0, &mut c, GemmOptions::default()).unwrap_err();
        assert!(matches!(err, TensorError::InvalidParams { .. }));
    }

    #[test]
    fn beta_scales_existing_c() {
        let a = vec![1.0, 0.0, 0.0, 1.0]; // 2x2 identity
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut c = vec![10.0, 10.0, 10.0, 10.0];
        sgemm(2, 2, 2, 1.0, &a, &b, 0.5, &mut c, GemmOptions::default()).unwrap();
        assert_eq!(c, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn naive_propagates_nan_through_zero_weights() {
        // a row of zeros times a NaN column must stay NaN (0 * NaN = NaN);
        // the oracle must not shortcut zero multipliers.
        let a = vec![0.0, 0.0];
        let b = vec![f32::NAN, 1.0, 2.0, 3.0];
        let mut c = vec![0.0; 2];
        gemm_naive(1, 2, 2, 1.0, &a, &b, &mut c);
        assert!(c[0].is_nan());
        assert_eq!(c[1], 0.0);
    }

    #[test]
    fn packed_propagates_infinities() {
        let m = 40; // above PACK_MIN_VOLUME with n=k=40
        let a = vec![1.0f32; m * m];
        let mut b = vec![1.0f32; m * m];
        b[0] = f32::INFINITY;
        let mut c = vec![0.0f32; m * m];
        sgemm(m, m, m, 1.0, &a, &b, 0.0, &mut c, GemmOptions::default()).unwrap();
        assert!(c[0].is_infinite());
    }

    #[test]
    fn skinny_propagates_nan_and_infinity_through_zero_inputs() {
        // 2 x 64 x 512 is above PACK_MIN_VOLUME and at most SKINNY_MAX_M
        // rows. Row 0 of A is all zeros: `0 * NaN` and `0 * inf` are NaN,
        // so a kernel that skips zero multipliers fails here.
        let (m, n, k) = (2, 64, 512);
        assert!(m * n * k >= PACK_MIN_VOLUME && m <= SKINNY_MAX_M);
        let mut a = vec![0.0f32; m * k];
        a[k..].fill(1.0);
        let mut b = vec![1.0f32; k * n];
        b[3] = f32::NAN; // depth 0, column 3
        b[300 * n + 5] = f32::INFINITY; // second KC block, column 5
        let mut c = vec![0.0f32; m * n];
        sgemm(m, n, k, 1.0, &a, &b, 0.0, &mut c, GemmOptions::default()).unwrap();
        assert!(c[3].is_nan() && c[5].is_nan(), "zero row: 0 * NaN, 0 * inf");
        assert!(c[n + 3].is_nan());
        assert_eq!(c[n + 5], f32::INFINITY);
        assert_eq!((c[0], c[n]), (0.0, k as f32), "clean columns unaffected");
    }

    /// BLAS semantics: with `beta == 0` C is an output only, so whatever
    /// it held — NaN and infinity included — must not reach the result.
    #[test]
    fn beta_zero_overwrites_a_poisoned_c_on_every_tier() {
        // (m, n, k): skinny below the packing volume, skinny, packed.
        let shapes = [(3usize, 5usize, 7usize), (2, 64, 512), (33, 64, 64)];
        assert!(shapes[1..]
            .iter()
            .all(|(m, n, k)| m * n * k >= PACK_MIN_VOLUME));
        assert!(shapes[1].0 <= SKINNY_MAX_M && shapes[2].0 > SKINNY_MAX_M);
        for (m, n, k) in shapes {
            let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, 21).into_vec();
            let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, 22).into_vec();
            let mut want = vec![0.0f32; m * n];
            sgemm(m, n, k, 1.5, &a, &b, 0.0, &mut want, GemmOptions::default()).unwrap();
            let mut got: Vec<f32> = (0..m * n)
                .map(|i| [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -3.0][i % 4])
                .collect();
            sgemm(m, n, k, 1.5, &a, &b, 0.0, &mut got, GemmOptions::default()).unwrap();
            assert_eq!(bits(&want), bits(&got), "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn parallel_is_bitwise_equal_to_sequential() {
        let m = 130; // crosses multiple MC blocks and uneven split
        let n = 70;
        let k = 300; // crosses KC
        let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, 3).into_vec();
        let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, 4).into_vec();
        let mut seq = vec![0.0; m * n];
        sgemm(m, n, k, 1.0, &a, &b, 0.0, &mut seq, GemmOptions::default()).unwrap();
        for threads in [2usize, 4, 7] {
            let mut par = vec![0.0; m * n];
            sgemm(
                m,
                n,
                k,
                1.0,
                &a,
                &b,
                0.0,
                &mut par,
                GemmOptions::with_threads(threads),
            )
            .unwrap();
            assert_eq!(seq, par, "threads={threads} diverged from sequential");
        }
    }

    /// The issue's acceptance grid: every thread count in {1, 2, 4, 7}
    /// against every shape with m, n, k drawn from {1, 3, 64, 257} must
    /// match the naive oracle within 1e-5 relative error. Covers both
    /// tiers (257 crosses KC/NC panel boundaries; 1 and 3 exercise ragged
    /// MR/NR edges).
    #[test]
    fn parallel_packed_matches_naive_across_thread_and_shape_grid() {
        const DIMS: [usize; 4] = [1, 3, 64, 257];
        const THREADS: [usize; 4] = [1, 2, 4, 7];
        let mut seed = 10u64;
        for &m in &DIMS {
            for &n in &DIMS {
                for &k in &DIMS {
                    seed += 1;
                    let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
                    let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 7000).into_vec();
                    let mut want = vec![0.0; m * n];
                    gemm_naive(m, n, k, 1.0, &a, &b, &mut want);
                    for &threads in &THREADS {
                        let mut got = vec![0.0; m * n];
                        sgemm(
                            m,
                            n,
                            k,
                            1.0,
                            &a,
                            &b,
                            0.0,
                            &mut got,
                            GemmOptions::with_threads(threads),
                        )
                        .unwrap();
                        assert!(
                            rel_eq(&want, &got, 1e-5),
                            "mismatch at m={m} n={n} k={k} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn small_sgemm_matches_naive(
            m in 1usize..24,
            n in 1usize..24,
            k in 1usize..40,
            seed in 0u64..1000,
        ) {
            let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
            let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 1).into_vec();
            let mut want = vec![0.0; m * n];
            gemm_naive(m, n, k, 1.0, &a, &b, &mut want);
            let mut got = vec![0.0; m * n];
            sgemm(m, n, k, 1.0, &a, &b, 0.0, &mut got, GemmOptions::default()).unwrap();
            prop_assert!(approx_eq(&want, &got, 1e-3));
        }

        #[test]
        fn packed_matches_naive_any_threads(
            m in 1usize..80,
            n in 1usize..80,
            k in 1usize..80,
            threads in 1usize..9,
            seed in 0u64..1000,
        ) {
            let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
            let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 1).into_vec();
            let mut want = vec![0.0; m * n];
            gemm_naive(m, n, k, 1.0, &a, &b, &mut want);
            let mut got = vec![0.0; m * n];
            sgemm(m, n, k, 1.0, &a, &b, 0.0, &mut got, GemmOptions::with_threads(threads))
                .unwrap();
            prop_assert!(rel_eq(&want, &got, 1e-5), "m={m} n={n} k={k} threads={threads}");
        }

        #[test]
        fn identity_is_neutral(mn in 1usize..20, seed in 0u64..100) {
            let a = Tensor::random_uniform(Shape::mat(mn, mn), 1.0, seed);
            let eye = Tensor::from_fn(Shape::mat(mn, mn), |i| {
                if i / mn == i % mn { 1.0 } else { 0.0 }
            });
            let c = matmul(&a, &eye).unwrap();
            prop_assert!(approx_eq(a.data(), c.data(), 1e-5));
        }

        #[test]
        fn matmul_is_linear_in_alpha(
            m in 1usize..10, n in 1usize..10, k in 1usize..10, seed in 0u64..50
        ) {
            let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
            let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 9).into_vec();
            let mut c1 = vec![0.0; m * n];
            sgemm(m, n, k, 2.0, &a, &b, 0.0, &mut c1, GemmOptions::default()).unwrap();
            let mut c2 = vec![0.0; m * n];
            sgemm(m, n, k, 1.0, &a, &b, 0.0, &mut c2, GemmOptions::default()).unwrap();
            for v in c2.iter_mut() { *v *= 2.0; }
            prop_assert!(approx_eq(&c1, &c2, 1e-3));
        }
    }

    /// Widths on either side of one and two 16-lane vectors and of a
    /// 128-column strip: the AVX-512 no-pack tier's ragged ends.
    const STRIP_EDGES: [usize; 6] = [15, 17, 31, 33, 127, 129];

    /// Sizes on and around the multiples of `block` up to `blocks` of
    /// them, plus the smallest ones: the ragged edges of a blocked loop.
    fn ragged(block: usize, blocks: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (1..=5).collect();
        for i in 1..=blocks {
            v.extend(i * block - 2..=i * block + 2);
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The reduction-order contract: the skinny tier, and `sgemm`
        /// whichever tier it picks on one or three threads (which send 9
        /// to 32 rows to different tiers), give the packed tier's bits
        /// for every shape, `alpha` and `beta` — on
        /// both sides of `SKINNY_MAX_M` and of `PACK_MIN_VOLUME`, with n
        /// ragged against `NR`/`NC` and the AVX-512 no-pack tier's 16-lane
        /// vectors and 32- to 128-column strips, and k against `KC` (up
        /// to three depth blocks).
        #[test]
        fn skinny_is_bitwise_equal_to_packed(
            m in 1usize..=SKINNY_MAX_M + 1,
            n in prop::sample::select([ragged(NR, 3), ragged(NC, 2), STRIP_EDGES.to_vec()].concat()),
            k in prop::sample::select(ragged(KC, 3)),
            alpha in prop::sample::select(vec![1.0f32, -0.75, 3.1]),
            beta in prop::sample::select(vec![0.0f32, 1.0, 0.5]),
            seed in 0u64..1000,
        ) {
            let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
            let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 1).into_vec();
            let c0 = Tensor::random_uniform(Shape::mat(m, n), 1.0, seed + 2).into_vec();
            // What `sgemm` does with beta before it picks a tier.
            let scaled: Vec<f32> = c0.iter().map(|v| if beta == 0.0 { 0.0 } else { v * beta }).collect();
            let mut packed = scaled.clone();
            gemm_packed(m, n, k, alpha, &a, &b, &mut packed, 1);
            let mut skinny = scaled;
            gemm_skinny(m, n, k, alpha, &a, &b, &mut skinny);
            prop_assert!(bits(&packed) == bits(&skinny), "m={m} n={n} k={k} alpha={alpha} beta={beta}");
            // And through the front door, whichever of the two it picks.
            for threads in [1, 3] {
                let mut front = c0.clone();
                sgemm(m, n, k, alpha, &a, &b, beta, &mut front, GemmOptions::with_threads(threads)).unwrap();
                prop_assert!(bits(&packed) == bits(&front), "sgemm m={m} n={n} k={k} alpha={alpha} beta={beta} threads={threads}");
            }
        }
    }

    /// What a lookup-tier test draws besides uniform noise: both zeros,
    /// both units, and finite extremes (a product of two of them
    /// overflows to infinity; one is subnormal).
    const SPECIAL: [f32; 7] = [0.0, -0.0, 1.0, -1.0, f32::MAX, -f32::MAX, -1e-40];

    /// `len` values from `seed`: a special value about one time in three,
    /// uniform noise otherwise.
    fn finite_mix(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                let u = crate::splitmix64_unit(&mut state);
                if u < 1.0 / 3.0 {
                    SPECIAL[(u * 3.0 * SPECIAL.len() as f64) as usize]
                } else {
                    (u * 4.0 - 2.5) as f32
                }
            })
            .collect()
    }

    /// An `m x k` A whose every row has at most `k / LOOKUP_MAX_SHARE`
    /// nonzeros (none, one, or up to that many, drawn per row) taken
    /// from `finite_mix`, at random depths; its zeros are `+0.0` and
    /// `-0.0`.
    fn sparse_rows(m: usize, k: usize, seed: u64) -> Vec<f32> {
        let values = finite_mix(m * k, seed);
        let mut state = seed ^ 0x5eed;
        let mut draw = |below: usize| (crate::splitmix64_unit(&mut state) * below as f64) as usize;
        let mut a: Vec<f32> = (0..m * k)
            .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
            .collect();
        for row in 0..m {
            for _ in 0..draw(k / LOOKUP_MAX_SHARE + 1) {
                let at = row * k + draw(k);
                a[at] = values[at];
            }
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The lookup tier keeps the reduction-order contract for every
        /// finite B: it gives the packed and no-pack tiers' bits, and
        /// `matmul_finite` (which takes it for such rows) gives
        /// `matmul_with`'s. Rows hold none, one or up to the threshold of
        /// nonzeros, with `±0.0` for zeros; A's and B's values include
        /// `±1.0`, `±f32::MAX` (products overflow) and a subnormal, and C
        /// holds `-0.0`, which only a block's `c += alpha * acc` turns
        /// into `+0.0`. k is one to three `KC` blocks; n ragged against
        /// `NR` and `NC`.
        #[test]
        fn lookup_is_bitwise_equal_to_packed_and_skinny(
            m in 1usize..=20,
            n in prop::sample::select([ragged(NR, 2), ragged(NC, 2), STRIP_EDGES.to_vec()].concat()),
            k in prop::sample::select(vec![16usize, 256, 257, 600]),
            alpha in prop::sample::select(vec![-0.75f32, 3.1, -1.0]),
            beta in prop::sample::select(vec![0.0f32, 1.0, 0.5]),
            seed in 0u64..1000,
        ) {
            let a = sparse_rows(m, k, seed);
            prop_assert!(takes_lookup(&a, k));
            let b = finite_mix(k * n, seed + 1);
            let c0: Vec<f32> = finite_mix(m * n, seed + 2).iter().map(|&v| if v == 0.0 { -0.0 } else { v }).collect();
            let scaled: Vec<f32> = c0.iter().map(|v| if beta == 0.0 { 0.0 } else { v * beta }).collect();
            let mut packed = scaled.clone();
            gemm_packed(m, n, k, alpha, &a, &b, &mut packed, 1);
            let mut skinny = scaled.clone();
            gemm_skinny(m, n, k, alpha, &a, &b, &mut skinny);
            let mut lookup = scaled;
            gemm_lookup(m, n, k, alpha, &a, &b, &mut lookup);
            prop_assert!(bits(&packed) == bits(&skinny), "skinny m={m} n={n} k={k}");
            prop_assert!(bits(&packed) == bits(&lookup), "lookup m={m} n={n} k={k} alpha={alpha} beta={beta}");
            let (ta, tb) = (Tensor::from_vec(Shape::mat(m, k), a).unwrap(), Tensor::from_vec(Shape::mat(k, n), b).unwrap());
            let dense = matmul_with(&ta, &tb, 1).unwrap();
            let finite = matmul_finite(&ta, &tb, 1).unwrap();
            prop_assert!(bits(dense.data()) == bits(finite.data()), "matmul_finite m={m} n={n} k={k}");
        }
    }

    /// The tier choice: a row with `k / LOOKUP_MAX_SHARE` nonzeros keeps
    /// the call on the lookup tier, one more (in any row) sends it to
    /// `sgemm`; `±0.0` count as zero, a NaN or infinity in A as nonzero.
    #[test]
    fn lookup_takes_rows_up_to_the_share_of_nonzeros() {
        let k = 64;
        let max = k / LOOKUP_MAX_SHARE;
        let row = |nonzeros: usize, value: f32| -> Vec<f32> {
            (0..k)
                .map(|p| {
                    if p < nonzeros {
                        value
                    } else if p % 2 == 0 {
                        -0.0
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        assert!(takes_lookup(&row(0, 1.0), k));
        assert!(takes_lookup(&[row(max, 1.0), row(1, f32::NAN)].concat(), k));
        assert!(!takes_lookup(&[row(1, 1.0), row(max + 1, 1.0)].concat(), k));
        assert!(!takes_lookup(&row(max + 1, f32::INFINITY), k));
        assert!(!takes_lookup(&row(max + 1, f32::NAN), k));
    }

    /// What the lookup tier gives up for an infinite or NaN B, and why
    /// only `matmul_finite` may take it: `0 * inf` is NaN in the dense
    /// tiers, and the lookup tier never forms it.
    #[test]
    fn lookup_drops_zero_times_non_finite_so_dense_is_the_oracle() {
        let (m, n, k) = (1, 4, 32);
        let mut a = vec![0.0f32; k];
        a[3] = 1.0;
        for bad in [f32::INFINITY, f32::NAN] {
            let mut b = vec![1.0f32; k * n];
            b[20 * n + 2] = bad; // a depth the row does not select
            let mut dense = vec![0.0f32; m * n];
            gemm_skinny(m, n, k, 1.0, &a, &b, &mut dense);
            let mut lookup = vec![0.0f32; m * n];
            gemm_lookup(m, n, k, 1.0, &a, &b, &mut lookup);
            assert!(dense[2].is_nan(), "0 * {bad} is NaN");
            assert_eq!(lookup[2], 1.0, "the lookup tier reads only depth 3");
            assert_eq!(bits(&dense[..2]), bits(&lookup[..2]));
        }
    }

    #[cfg(target_arch = "x86_64")]
    use crate::isa::same_bits_at_each_level;

    #[cfg(target_arch = "x86_64")]
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The kernels give the same bits at every level this CPU runs —
        /// portable, AVX2 and AVX-512: the packed driver with and without
        /// a bias on 1 and 3 threads, the no-pack tier, and `sgemm`
        /// (either tier) for every `alpha` and `beta`. m is every height
        /// up to one past `SKINNY_MAX_M`, so every row group of the
        /// AVX-512 no-pack tier, and past one `MC` block; n against `NR`
        /// up to nine panels, so every tail of zero to three panels
        /// follows zero, one and two four-panel groups, against the
        /// no-pack tier's vectors and strips, and against `NC`; k against
        /// `KC`.
        #[test]
        fn portable_is_bitwise_equal_to_avx2(
            m in prop::sample::select([(1..=SKINNY_MAX_M + 1).collect(), vec![63, 65, 130]].concat()),
            n in prop::sample::select([ragged(NR, 9), ragged(NC, 2), STRIP_EDGES.to_vec()].concat()),
            k in prop::sample::select(ragged(KC, 2)),
            alpha in prop::sample::select(vec![1.0f32, -0.75, 3.1]),
            beta in prop::sample::select(vec![0.0f32, 1.0, 0.5]),
            seed in 0u64..1000,
        ) {
            let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
            let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 1).into_vec();
            let c0 = Tensor::random_uniform(Shape::mat(m, n), 1.0, seed + 2).into_vec();
            let bias = Tensor::random_uniform(Shape::mat(1, m), 1.0, seed + 3).into_vec();
            let (pa, pb) = (PackedA::pack(m, k, &a), PackedB::pack(k, n, &b));
            for bias in [None, Some(&bias[..])] {
                for threads in [1, 3] {
                    let same = same_bits_at_each_level(|| {
                        let mut c = c0.clone();
                        packed_driver(Kernels::detect(), alpha, &pa, &pb, &mut c, bias, threads);
                        c
                    });
                    prop_assert!(same.is_ok(), "packed_driver m={m} n={n} k={k} bias={} threads={threads}: {same:?}", bias.is_some());
                }
            }
            let same = same_bits_at_each_level(|| {
                let mut c = c0.clone();
                gemm_skinny(m, n, k, alpha, &a, &b, &mut c);
                c
            });
            prop_assert!(same.is_ok(), "gemm_skinny m={m} n={n} k={k}: {same:?}");
            let same = same_bits_at_each_level(|| {
                let mut c = c0.clone();
                sgemm(m, n, k, alpha, &a, &b, beta, &mut c, GemmOptions::default()).unwrap();
                c
            });
            prop_assert!(same.is_ok(), "sgemm m={m} n={n} k={k} alpha={alpha} beta={beta}: {same:?}");
        }
    }

    /// The no-pack tier at every level this CPU runs, for every height up
    /// to one past `SKINNY_MAX_M` (so every row group of the AVX-512 nest
    /// and every group count up to five), against every strip tail and
    /// one and two depth blocks: the proptest above draws its heights, so
    /// this one walks them all. The widths add blocks narrower than one
    /// vector (1, and the zoo's 9- and 10-wide outputs), `pos`'s 45-wide
    /// one, and a ragged end in a second column block (`NC + 13`): at
    /// k = 300 each takes its tail copy from two depth blocks.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn no_pack_tier_is_bitwise_equal_at_every_level_for_every_height() {
        for m in 1..=SKINNY_MAX_M + 1 {
            for n in STRIP_EDGES
                .into_iter()
                .chain([1, 9, 10, 13, 45, 300, NC + 13])
            {
                for k in [5, 300] {
                    let seed = (m * 1000 + n + k) as u64;
                    let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
                    let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 1).into_vec();
                    let c0 = Tensor::random_uniform(Shape::mat(m, n), 1.0, seed + 2).into_vec();
                    let same = same_bits_at_each_level(|| {
                        let mut c = c0.clone();
                        gemm_skinny(m, n, k, -0.75, &a, &b, &mut c);
                        c
                    });
                    assert_eq!(same, Ok(()), "gemm_skinny m={m} n={n} k={k}");
                }
            }
        }
    }

    /// The fused convolution at every level this CPU runs, on one
    /// threaded and one sequential call, for geometries of both tiers
    /// `sgemm` would pick for its `og x oh·ow x wk` product: a LeNet
    /// conv2 (packed, 500 deep, 64 columns: two four-panel groups), a
    /// grouped, padded, strided bank of five outputs per group (skinny,
    /// 300 deep), and `dig`'s conv1 (packed, 25 deep, 576 columns: 18
    /// groups over three column blocks).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fused_conv_portable_is_bitwise_equal_to_avx2() {
        // (n, c, (h, w), params)
        let cases = [
            (2, 20, (12, 12), Conv2dParams::new(50, 5, 1, 0)),
            (
                2,
                36,
                (11, 14),
                Conv2dParams {
                    out_channels: 15,
                    kernel: 5,
                    stride: 2,
                    pad: 1,
                    groups: 3,
                },
            ),
            (2, 1, (28, 28), Conv2dParams::new(10, 5, 1, 0)),
        ];
        for (i, (n, c, (h, w), p)) in cases.into_iter().enumerate() {
            let seed = 50 + 10 * i as u64;
            let input = Tensor::random_uniform(Shape::nchw(n, c, h, w), 1.0, seed);
            let weights = Tensor::random_uniform(
                Shape::nchw(p.out_channels, c / p.groups, p.kernel, p.kernel),
                1.0,
                seed + 1,
            );
            let bias = Tensor::random_uniform(Shape::mat(1, p.out_channels), 1.0, seed + 2);
            for threads in [Threading::SINGLE, Threading::new(3)] {
                let same = same_bits_at_each_level(|| {
                    conv2d_with(&input, &weights, bias.data(), &p, threads)
                        .unwrap()
                        .into_vec()
                });
                assert_eq!(same, Ok(()), "{p:?} on {n}x{c}x{h}x{w}, {threads:?}");
            }
        }
    }
}
