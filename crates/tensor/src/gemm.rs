//! Single-precision general matrix multiply.
//!
//! Structured like a tuned BLAS: a naive triple loop (correctness
//! oracle) and two tiers [`sgemm`] picks between by shape — a no-pack
//! kernel for calls of at most `SKINNY_MAX_M` rows or below
//! `PACK_MIN_VOLUME`, and a BLIS-style packed kernel for everything
//! else. The packed kernel lays A out in `MR`-row column-major
//! micro-panels and B in `NR`-column row-major micro-panels so the
//! register-blocked `MR x NR` micro-kernel streams both operands at unit
//! stride. Both operands are packed once per call and shared read-only;
//! the driver splits C's rows into `MR`-aligned strips across
//! `std::thread::scope` workers. Because every C row is computed in the
//! same order regardless of the split, parallel results are bitwise
//! identical to sequential. The convolution runs on the same driver: it
//! packs a group's weights as A once per call and writes each image's
//! im2col columns into B's panels in the layout's own order, each panel
//! row once (`crate::conv`).
//!
//! The two tiers share one **reduction-order contract**, which is what
//! makes them interchangeable bit for bit: for each
//! element of C and each `KC`-deep block of the inner dimension, blocks
//! in ascending order, a fresh `0.0` accumulator takes `a[i][p] * b[p][j]`
//! in ascending `p` (no fused multiply-add, no reassociation), and then
//! `c[i][j] += alpha * acc`. A row therefore gets the same bits whether
//! it is sent alone or inside a large batch.
//!
//! Each tier's loop nest is compiled twice: for baseline x86-64 (SSE2,
//! four lanes), and with AVX2 enabled (eight lanes; the packed tier's
//! micro-kernel in `std::arch` intrinsics, `avx2`). The packed nest is
//! compiled a third time with AVX-512F, around a kernel that computes a
//! `MR x 4·NR` tile from four adjacent B panels per call (`avx512`; the
//! one to three panels left at the end of an `NC` block take the AVX2
//! kernel). A CPU check picks the best the CPU has (`crate::isa`, the
//! crate's one CPU check), once per call; every instantiation keeps the
//! contract, so which one ran never shows in an output bit.

use crate::{Result, Shape, Tensor, TensorError};

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod avx512;

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
/// reads and writes all of it once before the first multiply, and with
/// at most two A micro-panels each packed panel is then used at most
/// twice — the copy cannot pay for itself. Measured on the AVX2 path,
/// the no-pack kernel is 7-10x faster at one row and 1.5-2.1x at 8, and
/// still 1.04-1.5x ahead at 16 and 28 (`results/gemm_skinny.txt`, which
/// also keeps the portable path's table); the limit stays at two
/// micro-panels because that last margin is the size of the measuring
/// host's noise and the no-pack kernel is single-threaded — a taller
/// call has row strips for `GemmOptions::threads` to spread over cores.
pub(crate) const SKINNY_MAX_M: usize = 2 * MR;

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
    /// Interpret `a` as transposed (`a` is stored `k x m`).
    pub trans_a: bool,
    /// Interpret `b` as transposed (`b` is stored `n x k`).
    pub trans_b: bool,
    /// Number of worker threads; 1 = sequential. Thread count is capped at
    /// the number of `MR` row panels, so oversubscription is harmless.
    pub threads: usize,
}

impl Default for GemmOptions {
    fn default() -> Self {
        GemmOptions {
            trans_a: false,
            trans_b: false,
            threads: 1,
        }
    }
}

impl GemmOptions {
    /// Options running `threads` workers with untransposed operands.
    pub fn with_threads(threads: usize) -> Self {
        GemmOptions {
            threads: threads.max(1),
            ..GemmOptions::default()
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
    Ok(c)
}

/// `C = alpha * op(A) * op(B) + beta * C` over raw row-major slices.
///
/// `a` is `m x k` (or `k x m` when `opts.trans_a`), `b` is `k x n` (or
/// `n x k`), `c` is `m x n`.
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

    // Normalize transposes up front: materializing the transposed operand
    // costs O(mk)/O(kn) but lets the hot loop always stream unit-stride.
    let a_owned;
    let a_rm: &[f32] = if opts.trans_a {
        a_owned = transpose(a, k, m);
        &a_owned
    } else {
        a
    };
    let b_owned;
    let b_rm: &[f32] = if opts.trans_b {
        b_owned = transpose(b, n, k);
        &b_owned
    } else {
        b
    };

    if beta == 0.0 {
        // BLAS semantics: beta 0 means C is not read, so a NaN or infinity
        // already there must not survive (`NaN * 0.0` is NaN).
        c.fill(0.0);
    } else if beta != 1.0 {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }

    if m <= SKINNY_MAX_M || m * n * k < PACK_MIN_VOLUME {
        gemm_skinny(m, n, k, alpha, a_rm, b_rm, c);
    } else {
        gemm_packed(m, n, k, alpha, a_rm, b_rm, c, opts.threads);
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
/// with an `MR x NC` accumulator on the stack and no O(k·n) scratch. At
/// this height a fully-connected layer is bound by moving its weights
/// once, and packing would move them twice more. Follows the module's
/// reduction-order contract, so the result is bitwise identical to
/// [`gemm_packed`]'s for every shape and `alpha`.
///
/// Correct for any `m`: within each `KC x NC` block of B rows are walked
/// `MR` at a time, so the block is streamed from memory once and re-read
/// from cache. [`sgemm`] sends it `m <= SKINNY_MAX_M` (two groups), and
/// any call below `PACK_MIN_VOLUME`, where the packing copies would cost
/// more than they save. Public as an ablation tier for the GEMM
/// benchmarks, like [`gemm_naive`]: `C += alpha * A B`, no transposes or
/// beta.
pub fn gemm_skinny(m: usize, n: usize, k: usize, alpha: f32, a: &[f32], b: &[f32], c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(isa) = crate::isa::Avx2::detect() {
        return isa.gemm_skinny(m, n, k, alpha, a, b, c);
    }
    gemm_skinny_body(m, n, k, alpha, a, b, c);
}

/// [`gemm_skinny`]'s loop nest, compiled once for baseline x86-64 and
/// once more with AVX2 enabled (`crate::isa`), so both vector widths run the
/// same source and sum in the same order.
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

/// Register-blocked `MR x NR` micro-kernel: accumulates `kb` rank-1
/// updates from packed panels into `acc` (row-major `MR x NR`). Both
/// operands stream at unit stride and the 32 accumulators fit the SIMD
/// register file. Each step is a multiply, then an add — the
/// reduction-order contract rules out a fused multiply-add. The vector
/// instantiations of the packed tier use intrinsics twins of this kernel
/// (`avx2::microkernel`, and `avx512::microkernel` over four panels)
/// with the same per-lane arithmetic.
#[inline]
fn microkernel(kb: usize, pa: &[f32], pb: &[f32], acc: &mut [[f32; NR]; MR]) {
    // `chunks_exact` + fixed-size array views give the compiler exact
    // extents, so the fully unrolled `MR x NR` update runs without bounds
    // checks and vectorizes across each accumulator row.
    for (av, bv) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)).take(kb) {
        let av: &[f32; MR] = av.try_into().unwrap();
        let bv: &[f32; NR] = bv.try_into().unwrap();
        for r in 0..MR {
            let ar = av[r];
            for j in 0..NR {
                acc[r][j] += ar * bv[j];
            }
        }
    }
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
    packed_strip_body::<NR>(microkernel, microkernel, r0, r1, alpha, a, b, c_strip, bias);
}

/// [`packed_strip`]'s loop nest around two micro-kernels: `group`, whose
/// tile is `W` columns wide (`W / NR` adjacent B panels, which the layout
/// keeps contiguous), and `single`, one panel wide, for the panels at the
/// end of a column block that do not fill a group. The portable and AVX2
/// instantiations pass `W = NR`, a group of one, so every panel goes
/// through `group`; the AVX-512 one passes its four-panel kernel and the
/// AVX2 kernel. Which kernel computes a tile never changes its bits.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn packed_strip_body<const W: usize>(
    group: impl Fn(usize, &[f32], &[f32], &mut [[f32; W]; MR]),
    single: impl Fn(usize, &[f32], &[f32], &mut [[f32; NR]; MR]),
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
                        let mut acc = [[0.0f32; W]; MR];
                        group(kb, a.panel(pc, kb, rp), pb, &mut acc);
                        tile.add(&acc, rp * MR, jp * NR, c_strip);
                    }
                }
                for jp in tail..panels.end {
                    let pb = b.panels(pc, kb, jp, 1);
                    for rp in row_panels.clone() {
                        let mut acc = [[0.0f32; NR]; MR];
                        single(kb, a.panel(pc, kb, rp), pb, &mut acc);
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
/// `C += alpha * A B`, no transposes or beta.
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

/// Cache-blocked out-of-place transpose of a row-major `rows x cols`
/// matrix. Works in `TB x TB` tiles so both the gather and the scatter
/// side touch whole cache lines instead of striding a full row apart.
pub fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    /// Tile edge: a 32x32 f32 tile is 4 KiB, comfortably in L1 twice over.
    const TB: usize = 32;
    assert_eq!(src.len(), rows * cols, "transpose: bad slice length");
    let mut dst = vec![0.0f32; src.len()];
    for rt in (0..rows).step_by(TB) {
        let rb = TB.min(rows - rt);
        for ct in (0..cols).step_by(TB) {
            let cb = TB.min(cols - ct);
            for r in rt..rt + rb {
                let srow = &src[r * cols + ct..r * cols + ct + cb];
                for (c, &v) in srow.iter().enumerate() {
                    dst[(ct + c) * rows + r] = v;
                }
            }
        }
    }
    dst
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
        let shapes = [(3usize, 5usize, 7usize), (2, 64, 512), (9, 64, 64)];
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
    fn transposed_operands_match_naive() {
        let m = 5;
        let n = 7;
        let k = 3;
        let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, 1).into_vec();
        let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, 2).into_vec();
        let at = transpose(&a, m, k); // stored k x m
        let bt = transpose(&b, k, n); // stored n x k
        let mut want = vec![0.0; m * n];
        gemm_naive(m, n, k, 1.0, &a, &b, &mut want);

        let mut got = vec![0.0; m * n];
        sgemm(
            m,
            n,
            k,
            1.0,
            &at,
            &bt,
            0.0,
            &mut got,
            GemmOptions {
                trans_a: true,
                trans_b: true,
                threads: 1,
            },
        )
        .unwrap();
        assert!(approx_eq(&want, &got, 1e-4));
    }

    #[test]
    fn transpose_round_trips_on_awkward_shapes() {
        for &(r, c) in &[(1usize, 1usize), (3, 5), (32, 32), (33, 65), (100, 7)] {
            let src: Vec<f32> = (0..r * c).map(|i| i as f32).collect();
            let t = transpose(&src, r, c);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[j * r + i], src[i * c + j]);
                }
            }
            assert_eq!(transpose(&t, c, r), src);
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
        /// whichever tier it picks, give the packed tier's bits for every
        /// shape, `alpha` and `beta` — on both sides of `SKINNY_MAX_M`
        /// and of `PACK_MIN_VOLUME`, with n ragged against `NR`/`NC` and
        /// k against `KC` (up to three depth blocks).
        #[test]
        fn skinny_is_bitwise_equal_to_packed(
            m in 1usize..=2 * MR + 1,
            n in prop::sample::select([ragged(NR, 3), ragged(NC, 2)].concat()),
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
            let mut front = c0;
            sgemm(m, n, k, alpha, &a, &b, beta, &mut front, GemmOptions::default()).unwrap();
            prop_assert!(bits(&packed) == bits(&front), "sgemm m={m} n={n} k={k} alpha={alpha} beta={beta}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    use crate::isa::same_bits_at_each_level;

    #[cfg(target_arch = "x86_64")]
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The kernels give the same bits at every level this CPU runs —
        /// portable, AVX2, and AVX-512 for the packed tier: the packed
        /// driver with and without a bias on 1 and 3 threads, the no-pack
        /// tier, and `sgemm` (either tier) for every `alpha` and `beta`.
        /// m is ragged against `MR` and past one `MC` block; n against
        /// `NR` up to nine panels, so every tail of zero to three panels
        /// follows zero, one and two four-panel groups, and against `NC`;
        /// k against `KC`.
        #[test]
        fn portable_is_bitwise_equal_to_avx2(
            m in prop::sample::select([ragged(MR, 3), vec![63, 65, 130]].concat()),
            n in prop::sample::select([ragged(NR, 9), ragged(NC, 2)].concat()),
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
