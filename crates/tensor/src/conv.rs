//! 2-D convolution via im2col + GEMM, plus a direct reference kernel.
//!
//! This mirrors Caffe's convolution strategy (and the reason convolutional
//! layers become large matrix multiplications on the GPU, which is what the
//! paper's batching optimization exploits): the input is unrolled into a
//! column matrix and the kernel bank becomes the left GEMM operand.

use crate::gemm::{packed_driver, Kernels, PackedA, PackedB, NR};
use crate::{partition, Result, Shape, Tensor, TensorError, Threading};

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Number of output feature maps.
    pub out_channels: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
    /// Channel groups (AlexNet uses 2); input and output channels are split
    /// evenly across groups and groups do not mix.
    pub groups: usize,
}

impl Conv2dParams {
    /// Convenience constructor for an ungrouped convolution.
    pub fn new(out_channels: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        Conv2dParams {
            out_channels,
            kernel,
            stride,
            pad,
            groups: 1,
        }
    }

    /// Output spatial side length for an input side of `input` pixels.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel does not fit in the padded input.
    pub fn out_dim(&self, input: usize) -> Result<usize> {
        let padded = input + 2 * self.pad;
        if self.kernel == 0 || self.stride == 0 || padded < self.kernel {
            return Err(TensorError::InvalidParams {
                op: "conv2d",
                reason: format!(
                    "kernel {} stride {} does not fit input {} (+2*{} pad)",
                    self.kernel, self.stride, input, self.pad
                ),
            });
        }
        Ok((padded - self.kernel) / self.stride + 1)
    }

    /// `(input, output)` channels per group for an input of `c` channels.
    fn split_channels(&self, c: usize, op: &'static str) -> Result<(usize, usize)> {
        if self.out_channels == 0 {
            return Err(TensorError::InvalidParams {
                op,
                reason: "zero output channels".into(),
            });
        }
        if self.groups == 0
            || !c.is_multiple_of(self.groups)
            || !self.out_channels.is_multiple_of(self.groups)
        {
            return Err(TensorError::InvalidParams {
                op,
                reason: format!(
                    "channels {} / out {} not divisible by groups {}",
                    c, self.out_channels, self.groups
                ),
            });
        }
        Ok((c / self.groups, self.out_channels / self.groups))
    }
}

/// Where each element of one call's column matrix comes from, worked out
/// once from the geometry and shared by every image, group and worker of
/// the call. The matrix has a depth row per kernel tap `(ch, ky, kx)` and
/// a column per output pixel, and is walked in the GEMM's B layout:
/// columns in `NR`-lane panels, each panel depth row after depth row.
///
/// The offsets index the *source* ([`ColumnPlan::source`]): the image
/// itself, or for a padded geometry the image inside a zero ring `pad`
/// wide. Every tap of every output pixel lies inside the source, so no
/// lane tests a bound: a tap on the padding reads the ring's 0.
struct ColumnPlan {
    /// Each depth row's source offset, `ch·hs·ws + ky·ws + kx` on the
    /// `hs x ws` source planes.
    rows: Vec<usize>,
    /// How each column panel's lanes read a depth row.
    panels: Vec<Panel>,
    cols: usize,
    /// One image's `(c, h, w)`.
    chw: (usize, usize, usize),
    pad: usize,
}

/// How the lanes of one column panel read the depth row whose source
/// offset is `off`.
enum Panel {
    /// Stride 1, all `NR` lanes in one output row: the row is
    /// `source[off + base..][..NR]`.
    Contiguous(usize),
    /// Any other panel (strided, or straddling output rows, or the last
    /// and ragged one): lane `l < lanes` is `source[off + at[l]]`, and the
    /// lanes past the last column are 0.
    Gather { at: [usize; NR], lanes: usize },
}

impl ColumnPlan {
    fn new(chw: (usize, usize, usize), (oh, ow): (usize, usize), p: &Conv2dParams) -> Self {
        let Conv2dParams {
            kernel,
            stride,
            pad,
            ..
        } = *p;
        let (c, h, w) = chw;
        let (hs, ws) = (h + 2 * pad, w + 2 * pad);
        let rows = (0..c * kernel * kernel)
            .map(|row| {
                let (ch, tap) = (row / (kernel * kernel), row % (kernel * kernel));
                ch * hs * ws + tap / kernel * ws + tap % kernel
            })
            .collect();
        let cols = oh * ow;
        let panels = (0..cols).step_by(NR).map(|j0| {
            let lanes = NR.min(cols - j0);
            // Column `j`'s window has its top-left tap here on the source.
            let at = |j: usize| j / ow * stride * ws + j % ow * stride;
            if lanes == NR && stride == 1 && j0 / ow == (j0 + NR - 1) / ow {
                Panel::Contiguous(at(j0))
            } else {
                Panel::Gather {
                    at: std::array::from_fn(|l| at(j0 + l)),
                    lanes,
                }
            }
        });
        ColumnPlan {
            rows,
            panels: panels.collect(),
            cols,
            chw,
            pad,
        }
    }

    /// Depth rows `depth` of column panel `jp`, read from `source`, handed
    /// to `put` one row of `NR` lanes at a time, in order.
    #[inline(always)]
    fn panel(
        &self,
        source: &[f32],
        jp: usize,
        depth: std::ops::Range<usize>,
        mut put: impl FnMut([f32; NR]),
    ) {
        let offs = &self.rows[depth];
        match self.panels[jp] {
            Panel::Contiguous(base) => {
                for &off in offs {
                    put(source[off + base..][..NR].try_into().expect("NR lanes"));
                }
            }
            Panel::Gather { at, lanes } => {
                for &off in offs {
                    put(std::array::from_fn(|l| {
                        if l < lanes {
                            source[off + at[l]]
                        } else {
                            0.0
                        }
                    }));
                }
            }
        }
    }

    /// A zeroed buffer for [`ColumnPlan::source`]: one image with its
    /// zero ring, or nothing for an unpadded geometry.
    fn ring(&self) -> Vec<f32> {
        let ((c, h, w), pad) = (self.chw, self.pad);
        match pad {
            0 => Vec::new(),
            _ => vec![0.0; c * (h + 2 * pad) * (w + 2 * pad)],
        }
    }

    /// What the offsets index for `image`: the image itself, or for a
    /// padded geometry `ring` with `image` copied inside its zero border.
    /// Each image overwrites the inside; nothing ever writes the border.
    fn source<'a>(&self, image: &'a [f32], ring: &'a mut [f32]) -> &'a [f32] {
        let ((_, h, w), pad) = (self.chw, self.pad);
        if pad == 0 {
            return image;
        }
        let ws = w + 2 * pad;
        for (plane, ring) in image
            .chunks_exact(h * w)
            .zip(ring.chunks_exact_mut((h + 2 * pad) * ws))
        {
            for (row, dst) in plane.chunks_exact(w).zip(ring[pad * ws..].chunks_mut(ws)) {
                dst[pad..pad + w].copy_from_slice(row);
            }
        }
        ring
    }

    /// Writes `image`'s column matrix into `columns` in the buffer's own
    /// order: every element of it, each once, panel padding as 0.
    fn fill(&self, image: &[f32], columns: &mut PackedB, ring: &mut [f32]) {
        let source = self.source(image, ring);
        for (depth, jp, dst) in columns.panels_mut() {
            let mut rows = dst.chunks_exact_mut(NR);
            self.panel(source, jp, depth, |lanes| {
                rows.next()
                    .expect("a row per depth")
                    .copy_from_slice(&lanes);
            });
        }
    }

    /// `image`'s column matrix, row-major, appended row by row: no
    /// zeroing pass, each element written once, in order.
    fn matrix(&self, image: &[f32]) -> Vec<f32> {
        let mut ring = self.ring();
        let source = self.source(image, &mut ring);
        let mut out = Vec::with_capacity(self.rows.len() * self.cols);
        for p in 0..self.rows.len() {
            for jp in 0..self.panels.len() {
                let len = NR.min(self.cols - jp * NR);
                self.panel(source, jp, p..p + 1, |lanes| {
                    if len == NR {
                        out.extend_from_slice(&lanes); // fixed-size: no `memcpy` call
                    } else {
                        out.extend_from_slice(&lanes[..len]);
                    }
                });
            }
        }
        out
    }
}

/// Unrolls an `NCHW` input into the im2col matrix for one image.
///
/// The produced matrix has `c*kernel*kernel` rows and `out_h*out_w` columns;
/// element `(ckk, xy)` is the input pixel that kernel position `ckk` covers
/// at output location `xy` (zero where the kernel overhangs the padding).
/// The forward convolution never builds this matrix ([`conv2d_with`]
/// writes the same values straight into GEMM panels, from the same
/// walker); the tests' oracle does.
///
/// # Errors
///
/// Returns an error if `image` is not a single 3-D image (`1xCxHxW`) or the
/// geometry is inconsistent.
pub fn im2col(image: &Tensor, c: usize, h: usize, w: usize, p: &Conv2dParams) -> Result<Tensor> {
    if image.len() != c * h * w {
        return Err(TensorError::InvalidParams {
            op: "im2col",
            reason: format!("image len {} != {}x{}x{}", image.len(), c, h, w),
        });
    }
    let oh = p.out_dim(h)?;
    let ow = p.out_dim(w)?;
    let plan = ColumnPlan::new((c, h, w), (oh, ow), p);
    Tensor::from_vec(
        Shape::mat(c * p.kernel * p.kernel, oh * ow),
        plan.matrix(image.data()),
    )
}

/// One [`conv2d_with`] call after validation: what every image of the
/// batch shares.
struct ConvCall<'a> {
    input: &'a [f32],
    bias: &'a [f32],
    /// Output channels per group.
    og: usize,
    groups: usize,
    /// One group's input volume, `cg·h·w`.
    group_in: usize,
    /// One group's column matrix: `cg·k·k` deep, `oh·ow` wide.
    plan: ColumnPlan,
    /// Each group's `og x wk` weight bank in the GEMM's panel layout,
    /// packed once for the whole batch.
    packed_weights: Vec<PackedA>,
    /// Chosen on the calling thread, for every worker.
    kernels: Kernels,
    gemm_threads: usize,
}

/// 2-D convolution of an `NCHW` input with a weight bank, sequentially.
///
/// `weights` must have shape `(out_channels, in_channels/groups, k, k)` and
/// `bias` length `out_channels`. Returns an `NCHW` output.
///
/// # Errors
///
/// Returns an error on any geometry inconsistency.
pub fn conv2d(input: &Tensor, weights: &Tensor, bias: &[f32], p: &Conv2dParams) -> Result<Tensor> {
    conv2d_with(input, weights, bias, p, Threading::SINGLE)
}

/// [`conv2d`] with a worker-thread budget.
///
/// This is Caffe's im2col + GEMM lowering with the column matrix fused
/// away: each group's weight bank is packed into the GEMM's A panels once
/// per call, and each image's im2col columns are written directly in the
/// GEMM's B panel layout, panel by panel, into one buffer per worker that
/// every image of that worker reuses. The sums follow `sgemm`'s
/// reduction-order contract, so the output is bit for bit what `im2col`
/// → `sgemm` → add bias gives.
///
/// The batch dimension is split into contiguous image ranges, one scoped
/// worker per range; each image is independent, so the result is bitwise
/// identical to the sequential path. Any budget left over after the batch
/// split (e.g. a batch of one on a multi-core machine) flows into the
/// per-image GEMM, which then parallelizes over output-channel row strips
/// instead.
///
/// # Errors
///
/// Returns an error on any geometry inconsistency.
pub fn conv2d_with(
    input: &Tensor,
    weights: &Tensor,
    bias: &[f32],
    p: &Conv2dParams,
    threading: Threading,
) -> Result<Tensor> {
    let dims = input.shape().dims();
    if dims.len() != 4 {
        return Err(TensorError::InvalidParams {
            op: "conv2d",
            reason: format!("input must be NCHW, got {}", input.shape()),
        });
    }
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (cg, og) = p.split_channels(c, "conv2d")?;
    let wk = cg * p.kernel * p.kernel;
    if weights.len() != p.out_channels * wk {
        return Err(TensorError::InvalidParams {
            op: "conv2d",
            reason: format!(
                "weight volume {} != {}x{}x{}x{}",
                weights.len(),
                p.out_channels,
                cg,
                p.kernel,
                p.kernel
            ),
        });
    }
    if bias.len() != p.out_channels {
        return Err(TensorError::InvalidParams {
            op: "conv2d",
            reason: format!("bias len {} != out_channels {}", bias.len(), p.out_channels),
        });
    }
    let oh = p.out_dim(h)?;
    let ow = p.out_dim(w)?;
    let mut out = Tensor::zeros(Shape::nchw(n, p.out_channels, oh, ow));

    let img_workers = threading.workers_for(n);
    let packed_weights = weights
        .data()
        .chunks_exact(og * wk)
        .map(|bank| PackedA::pack(og, wk, bank))
        .collect();
    let call = ConvCall {
        input: input.data(),
        bias,
        og,
        groups: p.groups,
        group_in: cg * h * w,
        plan: ColumnPlan::new((cg, h, w), (oh, ow), p),
        packed_weights,
        kernels: Kernels::detect(),
        gemm_threads: (threading.threads / img_workers.max(1)).max(1),
    };
    if img_workers <= 1 {
        call.run_images(0..n, out.data_mut());
        return Ok(out);
    }

    let per_out = p.out_channels * oh * ow;
    std::thread::scope(|scope| {
        let mut rest = out.data_mut();
        for (img0, img1) in partition(n, img_workers) {
            let (chunk, tail) = rest.split_at_mut((img1 - img0) * per_out);
            rest = tail;
            let call = &call;
            scope.spawn(move || call.run_images(img0..img1, chunk));
        }
    });
    Ok(out)
}

impl ConvCall<'_> {
    /// Convolves images `imgs.start..imgs.end`; `out` (zeroed) covers
    /// exactly those images' output volumes.
    fn run_images(&self, imgs: std::ops::Range<usize>, out: &mut [f32]) {
        let (og, group_in) = (self.og, self.group_in);
        // The batch is a run of (image, group) blocks, in and out alike.
        let first = imgs.start * self.groups * group_in;
        let blocks = self.input[first..imgs.end * self.groups * group_in]
            .chunks_exact(group_in)
            .zip(out.chunks_exact_mut(og * self.plan.cols))
            .enumerate()
            .map(|(i, (image, out))| (i % self.groups, image, out));

        // One column buffer (and padded image) for every image and group
        // of this worker: each fill overwrites all of the columns and the
        // inside of the ring.
        let mut columns = PackedB::zeroed(self.plan.rows.len(), self.plan.cols);
        let mut ring = self.plan.ring();
        for (g, image, out) in blocks {
            self.plan.fill(image, &mut columns, &mut ring);
            packed_driver(
                self.kernels,
                1.0,
                &self.packed_weights[g],
                &columns,
                out,
                Some(&self.bias[g * og..(g + 1) * og]),
                self.gemm_threads,
            );
        }
    }
}

/// Direct (sliding-window) convolution used as the correctness oracle for
/// [`conv2d`] in tests. O(n·c·k²·oh·ow) with no GEMM restructuring.
///
/// # Errors
///
/// Same geometry errors as [`conv2d`].
pub fn conv2d_direct(
    input: &Tensor,
    weights: &Tensor,
    bias: &[f32],
    p: &Conv2dParams,
) -> Result<Tensor> {
    let dims = input.shape().dims();
    if dims.len() != 4 {
        return Err(TensorError::InvalidParams {
            op: "conv2d_direct",
            reason: format!("input must be NCHW, got {}", input.shape()),
        });
    }
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (cg, og) = p.split_channels(c, "conv2d_direct")?;
    let oh = p.out_dim(h)?;
    let ow = p.out_dim(w)?;
    let mut out = Tensor::zeros(Shape::nchw(n, p.out_channels, oh, ow));
    let x = input.data();
    let wt = weights.data();
    for img in 0..n {
        for oc in 0..p.out_channels {
            let g = oc / og;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for ic in 0..cg {
                        let in_ch = g * cg + ic;
                        for ky in 0..p.kernel {
                            let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..p.kernel {
                                let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xv = x[((img * c + in_ch) * h + iy as usize) * w + ix as usize];
                                let wv = wt[((oc * cg + ic) * p.kernel + ky) * p.kernel + kx];
                                acc += xv * wv;
                            }
                        }
                    }
                    out.data_mut()[((img * p.out_channels + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sgemm, GemmOptions};
    use proptest::prelude::*;

    #[test]
    fn out_dim_formula() {
        let p = Conv2dParams::new(8, 11, 4, 0);
        assert_eq!(p.out_dim(227).unwrap(), 55); // AlexNet conv1
        let p2 = Conv2dParams::new(8, 3, 1, 1);
        assert_eq!(p2.out_dim(13).unwrap(), 13); // same-padding
        assert!(Conv2dParams::new(1, 9, 1, 0).out_dim(4).is_err());
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        // 1x1 kernel with weight 1 and zero bias is the identity.
        let input = Tensor::from_fn(Shape::nchw(1, 1, 3, 3), |i| i as f32);
        let weights = Tensor::filled(Shape::nchw(1, 1, 1, 1), 1.0);
        let p = Conv2dParams::new(1, 1, 1, 0);
        let out = conv2d(&input, &weights, &[0.0], &p).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // All-ones 2x2 kernel over a 3x3 ramp, stride 1, no pad:
        // windows sum to 8, 12, 20, 24.
        let input = Tensor::from_fn(Shape::nchw(1, 1, 3, 3), |i| i as f32);
        let weights = Tensor::filled(Shape::nchw(1, 1, 2, 2), 1.0);
        let p = Conv2dParams::new(1, 2, 1, 0);
        let out = conv2d(&input, &weights, &[0.0], &p).unwrap();
        assert_eq!(out.data(), &[8.0, 12.0, 20.0, 24.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let input = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let weights = Tensor::filled(Shape::nchw(2, 1, 1, 1), 1.0);
        let p = Conv2dParams::new(2, 1, 1, 0);
        let out = conv2d(&input, &weights, &[1.5, -2.0], &p).unwrap();
        assert_eq!(&out.data()[0..4], &[1.5; 4]);
        assert_eq!(&out.data()[4..8], &[-2.0; 4]);
    }

    #[test]
    fn grouped_conv_does_not_mix_groups() {
        // Two input channels, two groups, 1x1 unit kernels: each output
        // channel must equal its own input channel only.
        let input = Tensor::from_vec(
            Shape::nchw(1, 2, 1, 2),
            vec![1.0, 2.0, /* ch1 */ 10.0, 20.0],
        )
        .unwrap();
        let weights = Tensor::filled(Shape::nchw(2, 1, 1, 1), 1.0);
        let p = Conv2dParams {
            out_channels: 2,
            kernel: 1,
            stride: 1,
            pad: 0,
            groups: 2,
        };
        let out = conv2d(&input, &weights, &[0.0, 0.0], &p).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn rejects_bad_geometry() {
        let input = Tensor::zeros(Shape::nchw(1, 3, 4, 4));
        let weights = Tensor::zeros(Shape::nchw(2, 3, 3, 3));
        let p = Conv2dParams::new(2, 3, 1, 0);
        assert!(conv2d(&input, &weights, &[0.0], &p).is_err()); // bias too short
        let bad_w = Tensor::zeros(Shape::nchw(2, 2, 3, 3));
        assert!(conv2d(&input, &bad_w, &[0.0, 0.0], &p).is_err()); // weight volume
    }

    #[test]
    fn threaded_conv_is_bitwise_equal_to_sequential() {
        // Batch of 5 with 2 groups: exercises uneven image splits and the
        // leftover-budget path (7 threads over 5 images).
        let p = Conv2dParams {
            out_channels: 6,
            kernel: 3,
            stride: 1,
            pad: 1,
            groups: 2,
        };
        let input = Tensor::random_uniform(Shape::nchw(5, 4, 9, 9), 1.0, 21);
        let weights = Tensor::random_uniform(Shape::nchw(6, 2, 3, 3), 1.0, 22);
        let bias = vec![0.1, -0.2, 0.3, -0.4, 0.5, -0.6];
        let serial = conv2d(&input, &weights, &bias, &p).unwrap();
        for threads in [2usize, 4, 7] {
            let par = conv2d_with(&input, &weights, &bias, &p, Threading::new(threads)).unwrap();
            assert_eq!(serial.data(), par.data(), "threads={threads}");
        }
    }

    /// `groups == 0` is a geometry error like any other, not a division
    /// by zero.
    #[test]
    fn zero_groups_is_an_error_not_a_panic() {
        let input = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
        let weights = Tensor::zeros(Shape::nchw(2, 2, 3, 3));
        let p = Conv2dParams {
            groups: 0,
            ..Conv2dParams::new(2, 3, 1, 0)
        };
        for result in [
            conv2d(&input, &weights, &[0.0; 2], &p),
            conv2d_direct(&input, &weights, &[0.0; 2], &p),
        ] {
            assert!(matches!(result, Err(TensorError::InvalidParams { .. })));
        }
    }

    /// So is `out_channels == 0`, not a panic in the output's shape.
    #[test]
    fn zero_out_channels_is_an_error_not_a_panic() {
        let input = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
        let weights = Tensor::zeros(Shape::nchw(2, 2, 3, 3));
        let p = Conv2dParams::new(0, 3, 1, 0);
        for result in [
            conv2d(&input, &weights, &[], &p),
            conv2d_direct(&input, &weights, &[], &p),
        ] {
            assert!(matches!(result, Err(TensorError::InvalidParams { .. })));
        }
    }

    /// The definition of the column matrix, one bounds-tested element at
    /// a time.
    fn im2col_by_element(
        image: &[f32],
        c: usize,
        h: usize,
        w: usize,
        p: &Conv2dParams,
    ) -> Vec<f32> {
        let (oh, ow) = (p.out_dim(h).unwrap(), p.out_dim(w).unwrap());
        let mut out = Vec::new();
        for ch in 0..c {
            for ky in 0..p.kernel {
                for kx in 0..p.kernel {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let (iy, ix) = (oy * p.stride + ky, ox * p.stride + kx);
                            let inside = (p.pad..h + p.pad).contains(&iy)
                                && (p.pad..w + p.pad).contains(&ix);
                            out.push(if inside {
                                image[(ch * h + iy - p.pad) * w + ix - p.pad]
                            } else {
                                0.0
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// One convolution's shape: batch, groups, channels per group in and
    /// out, image height and width, kernel, stride, pad.
    #[derive(Debug, Clone, Copy)]
    struct Geometry {
        n: usize,
        groups: usize,
        cg: usize,
        og: usize,
        h: usize,
        w: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    }

    impl Geometry {
        fn params(&self) -> Conv2dParams {
            Conv2dParams {
                out_channels: self.groups * self.og,
                kernel: self.kernel,
                stride: self.stride,
                pad: self.pad,
                groups: self.groups,
            }
        }

        /// `(m, n, k)` of each image-and-group GEMM.
        fn gemm_shape(&self) -> (usize, usize, usize) {
            let p = self.params();
            let cols = p.out_dim(self.h).unwrap() * p.out_dim(self.w).unwrap();
            (self.og, cols, self.cg * self.kernel * self.kernel)
        }
    }

    /// The lowering `conv2d_with` replaces, through public functions
    /// only: per image and group, `im2col`, then `sgemm` on whichever
    /// tier the shape picks, then the bias.
    fn conv_unfused(input: &Tensor, weights: &Tensor, bias: &[f32], g: &Geometry) -> Vec<f32> {
        let (og, cols, wk) = g.gemm_shape();
        let group = Conv2dParams {
            out_channels: og,
            groups: 1,
            ..g.params()
        };
        let mut out = vec![0.0f32; g.n * g.groups * og * cols];
        let images = input.data().chunks_exact(g.cg * g.h * g.w);
        for (i, (image, out)) in images.zip(out.chunks_exact_mut(og * cols)).enumerate() {
            let grp = i % g.groups;
            let image = Tensor::from_vec(Shape::nchw(1, g.cg, g.h, g.w), image.to_vec()).unwrap();
            let columns = im2col(&image, g.cg, g.h, g.w, &group).unwrap();
            let bank = &weights.data()[grp * og * wk..(grp + 1) * og * wk];
            sgemm(
                og,
                cols,
                wk,
                1.0,
                bank,
                columns.data(),
                0.0,
                out,
                GemmOptions::default(),
            )
            .unwrap();
            for (plane, bv) in out.chunks_exact_mut(cols).zip(&bias[grp * og..]) {
                plane.iter_mut().for_each(|v| *v += bv);
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_fused_equals_unfused(g: &Geometry, threads: usize, seed: u64) {
        let p = g.params();
        let input = Tensor::random_uniform(Shape::nchw(g.n, g.groups * g.cg, g.h, g.w), 1.0, seed);
        let weights = Tensor::random_uniform(
            Shape::nchw(p.out_channels, g.cg, g.kernel, g.kernel),
            1.0,
            seed + 1,
        );
        let bias = Tensor::random_uniform(Shape::mat(1, p.out_channels), 1.0, seed + 2).into_vec();
        let want = conv_unfused(&input, &weights, &bias, g);
        let got = conv2d_with(&input, &weights, &bias, &p, Threading::new(threads)).unwrap();
        assert!(
            bits(&want) == bits(got.data()),
            "{g:?} threads={threads}: fused conv differs from im2col + sgemm + bias"
        );
    }

    /// Which tier of `sgemm` the unfused lowering takes for a geometry.
    fn tier(g: &Geometry) -> &'static str {
        let (m, n, k) = g.gemm_shape();
        if crate::gemm::takes_no_pack(m, n, k, 1) {
            "skinny"
        } else {
            "packed"
        }
    }

    /// Named geometries, several per tier of the unfused lowering: the
    /// two `dig` layers, `tiny-mnist`, AlexNet's grouped and padded conv2
    /// and its 11x11 stride-4 conv1 in miniature, a skinny bank deeper
    /// than `KC`, and calls below the packing volume — one of them two
    /// depth blocks deep, one taller than `SKINNY_MAX_M`.
    #[test]
    fn fused_conv_is_bitwise_im2col_sgemm_bias_on_every_tier() {
        let geometry = |n, groups, cg, og, hw: (usize, usize), kernel, stride, pad| Geometry {
            n,
            groups,
            cg,
            og,
            h: hw.0,
            w: hw.1,
            kernel,
            stride,
            pad,
        };
        let cases = [
            (geometry(3, 1, 1, 10, (28, 28), 5, 1, 0), "skinny"),
            (geometry(3, 1, 10, 20, (12, 12), 5, 1, 0), "skinny"),
            (geometry(2, 1, 1, 4, (12, 12), 3, 1, 0), "skinny"),
            (geometry(2, 2, 6, 40, (13, 11), 5, 1, 2), "packed"),
            (geometry(1, 1, 3, 36, (39, 43), 11, 4, 0), "packed"),
            (geometry(2, 3, 12, 5, (11, 14), 5, 2, 1), "skinny"),
            (geometry(2, 1, 3, 2, (12, 11), 11, 1, 1), "skinny"),
            (geometry(4, 2, 2, 3, (5, 7), 4, 4, 2), "skinny"),
            (geometry(2, 1, 1, 36, (4, 4), 3, 1, 0), "skinny"),
        ];
        for (g, want_tier) in &cases {
            assert_eq!(tier(g), *want_tier, "{g:?}");
            for threads in [1usize, 2, 4, 7] {
                assert_fused_equals_unfused(g, threads, 40);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The same equality over drawn geometries: kernels up to 11x11,
        /// strides 1/2/4, pads up to 2, groups, non-square images whose
        /// `oh * ow` is ragged against the panel width, and depths
        /// (`cg * kernel^2`, up to 484) on both sides of `KC`.
        #[test]
        fn fused_conv_is_bitwise_im2col_sgemm_bias(
            n in 1usize..=4,
            groups in prop::sample::select(vec![1usize, 2, 3]),
            cg in 1usize..=4,
            og in prop::sample::select(vec![1usize, 2, 3, 5, 8, 9, 13]),
            kernel in 1usize..=11,
            stride in prop::sample::select(vec![1usize, 2, 4]),
            pad in 0usize..=2,
            extra_h in 0usize..14,
            extra_w in 0usize..14,
            threads in prop::sample::select(vec![1usize, 2, 4, 7]),
            seed in 0u64..1000,
        ) {
            // The smallest image the padded kernel fits, plus `extra`.
            let side = |extra: usize| (kernel + extra).saturating_sub(2 * pad).max(1);
            let g = Geometry { n, groups, cg, og, h: side(extra_h), w: side(extra_w), kernel, stride, pad };
            assert_fused_equals_unfused(&g, threads, seed);
        }

        /// The public row-major matrix, over the ranges of the fill test
        /// below.
        #[test]
        fn im2col_matches_its_definition(
            c in 1usize..=4,
            kernel in 1usize..=11,
            stride in prop::sample::select(vec![1usize, 2, 4]),
            pad in 0usize..=3,
            extra_h in 0usize..14,
            extra_w in 0usize..14,
            seed in 0u64..1000,
        ) {
            let side = |extra: usize| (kernel + extra).saturating_sub(2 * pad).max(1);
            let (h, w) = (side(extra_h), side(extra_w));
            let p = Conv2dParams::new(1, kernel, stride, pad);
            let image = Tensor::random_uniform(Shape::nchw(1, c, h, w), 1.0, seed);
            let got = im2col(&image, c, h, w, &p).unwrap();
            prop_assert!(bits(got.data()) == bits(&im2col_by_element(image.data(), c, h, w, &p)));
        }

        /// The panel-order fill, twice into one column buffer and padded
        /// image: an all-NaN image, then a drawn one. The buffer must then
        /// be the drawn image's column matrix packed, element for element,
        /// panel padding included, so nothing of the first image survives
        /// and no tap or lane lands anywhere else. Kernels 1-11, strides
        /// 1/2/4, pads 0-3, `oh * ow` ragged against `NR`, and depths
        /// (`c * kernel^2`, up to 726) across `KC`.
        #[test]
        fn filled_columns_are_their_definition(
            c in 1usize..=6,
            kernel in 1usize..=11,
            stride in prop::sample::select(vec![1usize, 2, 4]),
            pad in 0usize..=3,
            extra_h in 0usize..14,
            extra_w in 0usize..14,
            seed in 0u64..1000,
        ) {
            let side = |extra: usize| (kernel + extra).saturating_sub(2 * pad).max(1);
            let (h, w) = (side(extra_h), side(extra_w));
            let p = Conv2dParams::new(1, kernel, stride, pad);
            let (oh, ow) = (p.out_dim(h).unwrap(), p.out_dim(w).unwrap());
            let (depth, cols) = (c * kernel * kernel, oh * ow);
            let plan = ColumnPlan::new((c, h, w), (oh, ow), &p);
            let (mut columns, mut ring) = (PackedB::zeroed(depth, cols), plan.ring());
            plan.fill(&vec![f32::NAN; c * h * w], &mut columns, &mut ring);
            let image = Tensor::random_uniform(Shape::nchw(1, c, h, w), 1.0, seed).into_vec();
            plan.fill(&image, &mut columns, &mut ring);
            let want = PackedB::pack(depth, cols, &im2col_by_element(&image, c, h, w, &p));
            prop_assert!(bits(columns.as_slice()) == bits(want.as_slice()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn gemm_conv_matches_direct(
            n in 1usize..3,
            c in 1usize..4,
            hw in 4usize..10,
            oc in 1usize..5,
            k in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..2,
            seed in 0u64..100,
        ) {
            prop_assume!(hw + 2 * pad >= k);
            let p = Conv2dParams { out_channels: oc, kernel: k, stride, pad, groups: 1 };
            let input = Tensor::random_uniform(Shape::nchw(n, c, hw, hw), 1.0, seed);
            let weights = Tensor::random_uniform(Shape::nchw(oc, c, k, k), 1.0, seed + 1);
            let bias: Vec<f32> = (0..oc).map(|i| i as f32 * 0.1).collect();
            let fast = conv2d(&input, &weights, &bias, &p).unwrap();
            let slow = conv2d_direct(&input, &weights, &bias, &p).unwrap();
            prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-3);
        }

        #[test]
        fn grouped_matches_direct(
            hw in 4usize..8,
            seed in 0u64..50,
        ) {
            // 4 input channels, 2 groups, 6 output channels.
            let p = Conv2dParams { out_channels: 6, kernel: 3, stride: 1, pad: 1, groups: 2 };
            let input = Tensor::random_uniform(Shape::nchw(2, 4, hw, hw), 1.0, seed);
            let weights = Tensor::random_uniform(Shape::nchw(6, 2, 3, 3), 1.0, seed + 5);
            let bias = vec![0.25; 6];
            let fast = conv2d(&input, &weights, &bias, &p).unwrap();
            let slow = conv2d_direct(&input, &weights, &bias, &p).unwrap();
            prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-3);
        }
    }
}
