//! Max and average pooling over `NCHW` tensors.
//!
//! Every output is a fold of its window: the kind's initial value, then
//! each tap that lies inside the image in ascending `(ky, kx)` order,
//! then a finishing step that sees how many taps there were. Max starts
//! at `-inf` and keeps the larger of accumulator and tap; a NaN tap and
//! a tie (`+0` against `-0` too) keep the accumulator. Average starts at
//! `0`, adds each tap, and divides by the count.
//!
//! The windows that lie wholly inside the image — a rectangle of each
//! output plane, however its border overhangs — run a tap-major nest
//! ([`pool_body`]): eight adjacent output columns at a time, each tap in
//! turn is folded into all eight, so the columns are independent lanes
//! and each lane still sees its window's taps in the order above. The
//! nest is compiled twice, like the GEMM tiers: for baseline x86-64, and
//! with AVX2 (`crate::isa`) where the CPU has it, a ymm register per group.
//! The border windows — over the padding, or over the bottom and right
//! edges with ceiling division — take the edge-tested loop ([`window`]),
//! in the same order. Which path an output took never shows in its bits.

use std::ops::Range;

use crate::{Result, Shape, Tensor, TensorError};

/// Geometry of a 2-D pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2dParams {
    /// Square window side length.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
}

impl Pool2dParams {
    /// Creates pooling parameters.
    pub fn new(kernel: usize, stride: usize, pad: usize) -> Self {
        Pool2dParams {
            kernel,
            stride,
            pad,
        }
    }

    /// Output spatial side length; Caffe uses ceiling division so partial
    /// windows at the bottom/right edge still produce an output.
    ///
    /// # Errors
    ///
    /// Returns an error if the window does not fit in the padded input.
    pub fn out_dim(&self, input: usize) -> Result<usize> {
        let padded = input + 2 * self.pad;
        if self.kernel == 0 || self.stride == 0 || padded < self.kernel {
            return Err(TensorError::InvalidParams {
                op: "pool2d",
                reason: format!(
                    "window {} stride {} does not fit input {} (+2*{})",
                    self.kernel, self.stride, input, self.pad
                ),
            });
        }
        Ok((padded - self.kernel).div_ceil(self.stride) + 1)
    }
}

/// How a window's taps fold into one output.
pub(crate) trait Pooling {
    /// The accumulator before the first tap.
    const INIT: f32;
    /// The accumulator after one more tap.
    fn fold(acc: f32, v: f32) -> f32;
    /// The output from the accumulator and the number of taps it took.
    fn finish(acc: f32, count: usize) -> f32;
}

struct Max;

impl Pooling for Max {
    const INIT: f32 = f32::NEG_INFINITY;

    /// `acc.max(v)` for the accumulator this fold ever has: it starts at
    /// `-inf` and takes only taps greater than itself, so it is never
    /// NaN. A NaN tap is skipped and a tie keeps `acc`, which on a ±0 tie
    /// keeps the earlier zero's sign — as `vmaxps` does with the tap first.
    #[inline(always)]
    fn fold(acc: f32, v: f32) -> f32 {
        if v > acc {
            v
        } else {
            acc
        }
    }

    #[inline(always)]
    fn finish(acc: f32, count: usize) -> f32 {
        if count == 0 {
            0.0
        } else {
            acc
        }
    }
}

struct Avg;

impl Pooling for Avg {
    const INIT: f32 = 0.0;

    /// `acc + v` as x86 computes it with `acc` first: once the sum is
    /// NaN it stays that NaN, even where `v` is a NaN of another sign or
    /// payload. Spelled out because a compiler may put a commutative add's
    /// operands either way round, and that order picks the NaN.
    #[inline(always)]
    fn fold(acc: f32, v: f32) -> f32 {
        if acc.is_nan() {
            acc
        } else {
            acc + v
        }
    }

    #[inline(always)]
    fn finish(acc: f32, count: usize) -> f32 {
        if count == 0 {
            0.0
        } else {
            acc / count as f32
        }
    }
}

/// One pooling call's geometry: the input plane, the output plane, and
/// the output rows and columns whose windows lie wholly inside the image.
pub(crate) struct Plan {
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    p: Pool2dParams,
    rows: Range<usize>,
    cols: Range<usize>,
}

impl Plan {
    /// The output positions along an axis of `len` inputs and `out`
    /// outputs whose windows start at or after 0 and end by `len`.
    fn inside(len: usize, out: usize, p: &Pool2dParams) -> Range<usize> {
        let lo = p.pad.div_ceil(p.stride).min(out);
        let hi = (len + p.pad)
            .checked_sub(p.kernel)
            .map_or(0, |room| (room / p.stride + 1).min(out));
        lo..hi.max(lo)
    }
}

fn pool2d<P: Pooling>(input: &Tensor, p: &Pool2dParams) -> Result<Tensor> {
    let dims = input.shape().dims();
    if dims.len() != 4 {
        return Err(TensorError::InvalidParams {
            op: "pool2d",
            reason: format!("input must be NCHW, got {}", input.shape()),
        });
    }
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (oh, ow) = (p.out_dim(h)?, p.out_dim(w)?);
    let plan = Plan {
        h,
        w,
        oh,
        ow,
        p: *p,
        rows: Plan::inside(h, oh, p),
        cols: Plan::inside(w, ow, p),
    };
    // `LANES` spare: a lane group's store may run past the last output.
    let mut out = Vec::with_capacity(n * c * oh * ow + LANES);
    #[cfg(target_arch = "x86_64")]
    if let Some(isa) = crate::isa::Avx2::detect() {
        isa.pool::<P>(input.data(), &mut out, &plan);
        return Tensor::from_vec(Shape::nchw(n, c, oh, ow), out);
    }
    pool_body::<P>(input.data(), &mut out, &plan);
    Tensor::from_vec(Shape::nchw(n, c, oh, ow), out)
}

/// Output columns one lane group pools at once: a ymm register of `f32`.
const LANES: usize = 8;

/// Pools every plane of `input` onto the end of `out`. The zoo's two
/// pooling geometries — side 2 at stride 2 (`dig`) and side 3 at stride
/// 2 (`alexnet`, `deepface`) — get a nest with side and stride constant,
/// so the compiler unrolls the taps and makes each one a single vector
/// step (about twice as fast on `dig`'s pools as the same nest with them
/// variable). Every other geometry runs the same nest with them variable,
/// in the same order. Compiled for baseline x86-64 and, in `crate::isa`,
/// with AVX2.
#[inline(always)]
pub(crate) fn pool_body<P: Pooling>(input: &[f32], out: &mut Vec<f32>, plan: &Plan) {
    match (plan.p.kernel, plan.p.stride) {
        (2, 2) => rows::<P>(input, out, plan, 2, 2),
        (3, 2) => rows::<P>(input, out, plan, 3, 2),
        (kernel, stride) => rows::<P>(input, out, plan, kernel, stride),
    }
}

/// The nest, for `plan`'s window side `kernel` and `stride` (passed in
/// so that a caller's constants reach the inlined loops): writes each
/// output once, plane by plane and row by row. A row's interior goes
/// `LANES` columns at a time through [`lanes`], whose lane `j` pools the
/// window with top-left input `taps[j * stride]`; lanes past the interior
/// pool inputs that are never written out. A group whose reads would run
/// off the end of `input`, and every border window, go through
/// [`window`] instead.
#[inline(always)]
fn rows<P: Pooling>(input: &[f32], out: &mut Vec<f32>, plan: &Plan, kernel: usize, stride: usize) {
    let Plan { h, w, oh, ow, .. } = *plan;
    let pad = plan.p.pad;
    // How far past a group's top-left input [`lanes`] reads.
    let reach = (kernel - 1) * (w + 1) + LANES * stride;
    for plane in 0..input.len() / (h * w) {
        let image = &input[plane * h * w..][..h * w];
        for oy in 0..oh {
            let inner = if plan.rows.contains(&oy) {
                plan.cols.clone()
            } else {
                0..0
            };
            if inner.start > 0 {
                border::<P>(out, image, plan, oy, 0..inner.start);
            }
            let mut ox = inner.start;
            while ox < inner.end {
                let cols = LANES.min(inner.end - ox);
                let corner = plane * h * w + (oy * stride - pad) * w + ox * stride - pad;
                match input.get(corner..corner + reach) {
                    Some(taps) => {
                        let acc = lanes::<P>(taps, w, kernel, stride);
                        // All the lanes, then back to the row's end: one store.
                        out.extend_from_slice(&acc.map(|a| P::finish(a, kernel * kernel)));
                        out.truncate(out.len() - (LANES - cols));
                    }
                    None => border::<P>(out, image, plan, oy, ox..ox + cols),
                }
                ox += LANES;
            }
            if inner.end < ow {
                border::<P>(out, image, plan, oy, inner.end..ow);
            }
        }
    }
}

/// One lane group of [`rows`]: for each tap in ascending `(ky, kx)`, that
/// tap of every lane's window. With the side and stride constant, each
/// tap is one vector step: at stride 2, two loads and an even-lane
/// shuffle.
#[inline(always)]
fn lanes<P: Pooling>(taps: &[f32], w: usize, kernel: usize, stride: usize) -> [f32; LANES] {
    let mut acc = [P::INIT; LANES];
    for ky in 0..kernel {
        for kx in 0..kernel {
            let row = &taps[ky * w + kx..][..LANES * stride];
            for (j, a) in acc.iter_mut().enumerate() {
                *a = P::fold(*a, row[j * stride]);
            }
        }
    }
    acc
}

/// Columns `cols` of output row `oy` through [`window`], kept out of line
/// so that the nest's loop stays small.
#[inline(never)]
fn border<P: Pooling>(
    out: &mut Vec<f32>,
    image: &[f32],
    plan: &Plan,
    oy: usize,
    cols: Range<usize>,
) {
    for ox in cols {
        out.push(window::<P>(image, plan, oy, ox));
    }
}

/// Output `(oy, ox)` of one `h x w` plane, testing every tap against the
/// image edge: the window may hang over the padding or, with ceiling
/// division, over the bottom and right edges.
#[inline(always)]
fn window<P: Pooling>(image: &[f32], plan: &Plan, oy: usize, ox: usize) -> f32 {
    let (h, w, p) = (plan.h, plan.w, &plan.p);
    let mut acc = P::INIT;
    let mut count = 0usize;
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
            acc = P::fold(acc, image[iy as usize * w + ix as usize]);
            count += 1;
        }
    }
    P::finish(acc, count)
}

/// Max-pooling: each output is the maximum over its window (ignoring the
/// zero padding, matching Caffe's behaviour).
///
/// # Errors
///
/// Returns an error if the input is not 4-D or the window geometry is invalid.
pub fn max_pool2d(input: &Tensor, p: &Pool2dParams) -> Result<Tensor> {
    pool2d::<Max>(input, p)
}

/// Average pooling over the valid (non-padding) window elements.
///
/// # Errors
///
/// Returns an error if the input is not 4-D or the window geometry is invalid.
pub fn avg_pool2d(input: &Tensor, p: &Pool2dParams) -> Result<Tensor> {
    pool2d::<Avg>(input, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn out_dim_uses_ceiling() {
        // AlexNet pool1: 55 -> 27 with k=3, s=2.
        assert_eq!(Pool2dParams::new(3, 2, 0).out_dim(55).unwrap(), 27);
        // Partial window: (5 - 2).ceil_div(2) + 1 = 3.
        assert_eq!(Pool2dParams::new(2, 2, 0).out_dim(5).unwrap(), 3);
    }

    #[test]
    fn max_pool_known_answer() {
        let input = Tensor::from_fn(Shape::nchw(1, 1, 4, 4), |i| i as f32);
        let out = max_pool2d(&input, &Pool2dParams::new(2, 2, 0)).unwrap();
        assert_eq!(out.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_known_answer() {
        let input = Tensor::from_fn(Shape::nchw(1, 1, 2, 2), |i| i as f32);
        let out = avg_pool2d(&input, &Pool2dParams::new(2, 2, 0)).unwrap();
        assert_eq!(out.data(), &[1.5]);
    }

    #[test]
    fn padding_is_ignored_by_max() {
        // Negative inputs with zero padding: max must come from the real
        // values, not the implicit zeros.
        let input = Tensor::filled(Shape::nchw(1, 1, 2, 2), -3.0);
        let out = max_pool2d(&input, &Pool2dParams::new(2, 1, 1)).unwrap();
        assert!(out.data().iter().all(|&v| v == -3.0));
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `pool2d` against [`window`] run on every output, as bits.
    fn assert_pool2d_equals_edge_tested_loop<P: Pooling>(input: &Tensor, p: &Pool2dParams) {
        let d = input.shape().dims();
        let (h, w) = (d[2], d[3]);
        let plan = Plan {
            h,
            w,
            oh: p.out_dim(h).unwrap(),
            ow: p.out_dim(w).unwrap(),
            p: *p,
            rows: 0..0,
            cols: 0..0,
        };
        let mut want = Vec::new();
        for image in input.data().chunks_exact(h * w) {
            for oy in 0..plan.oh {
                want.extend((0..plan.ow).map(|ox| window::<P>(image, &plan, oy, ox)));
            }
        }
        let got = pool2d::<P>(input, p).unwrap();
        assert_eq!(bits(&want), bits(got.data()), "{h}x{w} {p:?}");
    }

    /// The vector nest gives the edge-tested loop's bits on the interior
    /// it runs over: windows tiling the image, overlapping inside it, one
    /// window the size of the image, rows wider than a lane group, and
    /// interiors framed by a ceil-mode ragged edge or by padding.
    #[test]
    fn interior_fast_path_equals_the_edge_tested_loop() {
        for (h, w, kernel, stride, pad) in [
            (24usize, 24usize, 2usize, 2usize, 0usize), // dig pool1
            (7, 9, 3, 2, 0),                            // overlapping, ends flush
            (6, 6, 6, 1, 0),                            // window = image
            (7, 4, 4, 3, 0),                            // window = image width
            (5, 5, 2, 2, 0),                            // ceil mode: last window hangs over
            (7, 8, 3, 2, 0),                            // ragged on one axis only
            (6, 6, 3, 1, 1),                            // padded border
            (4, 5, 2, 2, 1),                            // padded and ragged
            (5, 42, 3, 2, 0),                           // two lane groups and a ragged third
            (9, 37, 2, 1, 1),                           // stride 1, padded, 38 columns
            (10, 1, 5, 1, 2),                           // no interior column: window > w + pad
            (1, 10, 5, 1, 2),                           // no interior row: window > h + pad
        ] {
            let input = Tensor::random_uniform(Shape::nchw(2, 3, h, w), 4.0, (h * 31 + w) as u64);
            let p = Pool2dParams::new(kernel, stride, pad);
            assert_pool2d_equals_edge_tested_loop::<Max>(&input, &p);
            assert_pool2d_equals_edge_tested_loop::<Avg>(&input, &p);
        }
    }

    /// `len` values from `seed`, salted with what a fold can disagree on:
    /// NaN, ±inf, and zeros of both signs among negative neighbours.
    #[cfg(target_arch = "x86_64")]
    fn salted(len: usize, seed: u64) -> Vec<f32> {
        let noise = Tensor::random_uniform(Shape::vec(len), 1.0, seed).into_vec();
        let mut state = seed;
        noise
            .into_iter()
            .map(|v| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                match state >> 60 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => 0.0,
                    4 => -0.0,
                    5..=9 => -v.abs(),
                    _ => v,
                }
            })
            .collect()
    }

    #[test]
    fn rejects_non_nchw() {
        let input = Tensor::zeros(Shape::mat(4, 4));
        assert!(max_pool2d(&input, &Pool2dParams::new(2, 2, 0)).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn max_pool_dominates_avg_pool(
            hw in 2usize..8, k in 1usize..4, s in 1usize..3, seed in 0u64..100
        ) {
            prop_assume!(hw >= k);
            let p = Pool2dParams::new(k, s, 0);
            let input = Tensor::random_uniform(Shape::nchw(1, 2, hw, hw), 1.0, seed);
            let mx = max_pool2d(&input, &p).unwrap();
            let av = avg_pool2d(&input, &p).unwrap();
            for (m, a) in mx.data().iter().zip(av.data()) {
                prop_assert!(m >= a);
            }
        }

        #[test]
        fn pooling_output_within_input_range(hw in 2usize..8, seed in 0u64..100) {
            let input = Tensor::random_uniform(Shape::nchw(1, 1, hw, hw), 5.0, seed);
            let lo = input.data().iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = input.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let p = Pool2dParams::new(2.min(hw), 1, 0);
            let mx = max_pool2d(&input, &p).unwrap();
            for &v in mx.data() {
                prop_assert!(v >= lo && v <= hi);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Max and average pooling give the same bits on the portable
        /// nest and on AVX2, NaN, ±inf and ties at zero included: the
        /// constant-geometry arms and the variable one, padded and
        /// ceil-mode windows, windows wider than the padded image's
        /// interior, rows ragged against the 8-lane groups.
        #[test]
        fn portable_pool_is_bitwise_equal_to_avx2(
            n in 1usize..3, c in 1usize..4, h in 1usize..12, w in 1usize..40,
            kernel in 2usize..6, stride in 1usize..4, pad in 0usize..3, seed in 0u64..1000
        ) {
            prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
            let shape = Shape::nchw(n, c, h, w);
            let input = Tensor::from_vec(shape.clone(), salted(shape.volume(), seed)).unwrap();
            let p = Pool2dParams::new(kernel, stride, pad);
            type Pool = fn(&Tensor, &Pool2dParams) -> Result<Tensor>;
            for (kind, pool) in [("max", max_pool2d as Pool), ("avg", avg_pool2d)] {
                let same =
                    crate::isa::same_bits_at_each_level(|| pool(&input, &p).unwrap().into_vec());
                prop_assert!(same.is_ok(), "{kind} {n}x{c}x{h}x{w} {p:?}: {same:?}");
            }
        }
    }
}
