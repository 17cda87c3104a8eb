//! Max and average pooling over `NCHW` tensors.

use crate::{Result, Shape, Tensor, TensorError};

/// Geometry of a 2-D pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
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

fn pool2d(
    input: &Tensor,
    p: &Pool2dParams,
    init: f32,
    fold: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32, usize) -> f32,
) -> Result<Tensor> {
    let dims = input.shape().dims();
    if dims.len() != 4 {
        return Err(TensorError::InvalidParams {
            op: "pool2d",
            reason: format!("input must be NCHW, got {}", input.shape()),
        });
    }
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let oh = p.out_dim(h)?;
    let ow = p.out_dim(w)?;
    let mut out = Tensor::zeros(Shape::nchw(n, c, oh, ow));
    // With no padding and the last window ending inside the image, no
    // window needs an edge test.
    let last_end = |o: usize| (o - 1) * p.stride + p.kernel;
    let interior = p.pad == 0 && last_end(oh) <= h && last_end(ow) <= w;
    let planes = input.data().chunks_exact(h * w);
    for (plane, out) in planes.zip(out.data_mut().chunks_exact_mut(oh * ow)) {
        if interior {
            pool_plane_interior(plane, w, out, ow, p, init, &fold, &finish);
        } else {
            pool_plane(plane, (h, w), out, ow, p, init, &fold, &finish);
        }
    }
    Ok(out)
}

/// Pools one `h x w` channel plane into `out` (`ow` wide), testing every
/// tap against the image edge: windows may hang over the padding or, with
/// ceiling division, over the bottom and right edges.
#[allow(clippy::too_many_arguments)]
fn pool_plane(
    plane: &[f32],
    (h, w): (usize, usize),
    out: &mut [f32],
    ow: usize,
    p: &Pool2dParams,
    init: f32,
    fold: &impl Fn(f32, f32) -> f32,
    finish: &impl Fn(f32, usize) -> f32,
) {
    for (oy, out_row) in out.chunks_exact_mut(ow).enumerate() {
        for (ox, o) in out_row.iter_mut().enumerate() {
            let mut acc = init;
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
                    acc = fold(acc, plane[iy as usize * w + ix as usize]);
                    count += 1;
                }
            }
            *o = finish(acc, count);
        }
    }
}

/// [`pool_plane`] when every window lies inside the image: each window
/// row is a slice of `kernel` taps, folded in the same order.
#[allow(clippy::too_many_arguments)]
fn pool_plane_interior(
    plane: &[f32],
    w: usize,
    out: &mut [f32],
    ow: usize,
    p: &Pool2dParams,
    init: f32,
    fold: &impl Fn(f32, f32) -> f32,
    finish: &impl Fn(f32, usize) -> f32,
) {
    for (oy, out_row) in out.chunks_exact_mut(ow).enumerate() {
        let rows = &plane[oy * p.stride * w..][..p.kernel * w];
        for (ox, o) in out_row.iter_mut().enumerate() {
            let mut acc = init;
            for row in rows.chunks_exact(w) {
                for &v in &row[ox * p.stride..][..p.kernel] {
                    acc = fold(acc, v);
                }
            }
            *o = finish(acc, p.kernel * p.kernel);
        }
    }
}

/// Max-pooling: each output is the maximum over its window (ignoring the
/// zero padding, matching Caffe's behaviour).
///
/// # Errors
///
/// Returns an error if the input is not 4-D or the window geometry is invalid.
pub fn max_pool2d(input: &Tensor, p: &Pool2dParams) -> Result<Tensor> {
    pool2d(input, p, f32::NEG_INFINITY, f32::max, |acc, count| {
        if count == 0 {
            0.0
        } else {
            acc
        }
    })
}

/// Average pooling over the valid (non-padding) window elements.
///
/// # Errors
///
/// Returns an error if the input is not 4-D or the window geometry is invalid.
pub fn avg_pool2d(input: &Tensor, p: &Pool2dParams) -> Result<Tensor> {
    pool2d(
        input,
        p,
        0.0,
        |a, b| a + b,
        |acc, count| {
            if count == 0 {
                0.0
            } else {
                acc / count as f32
            }
        },
    )
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

    /// `pool2d` against the edge-tested loop run on every plane, as
    /// bits, for a max and an averaging fold.
    fn assert_pool2d_equals_edge_tested_loop(h: usize, w: usize, p: &Pool2dParams) {
        let input = Tensor::random_uniform(Shape::nchw(2, 3, h, w), 4.0, (h * 31 + w) as u64);
        let (oh, ow) = (p.out_dim(h).unwrap(), p.out_dim(w).unwrap());
        type Fold = fn(f32, f32) -> f32;
        let folds: [(f32, Fold); 2] = [(f32::NEG_INFINITY, f32::max), (0.0, |a, b| a + b)];
        for (init, fold) in folds {
            let finish = |acc: f32, count: usize| acc / count as f32;
            let mut want = vec![0.0f32; 6 * oh * ow];
            for (plane, out) in input
                .data()
                .chunks_exact(h * w)
                .zip(want.chunks_exact_mut(oh * ow))
            {
                pool_plane(plane, (h, w), out, ow, p, init, &fold, &finish);
            }
            let got = pool2d(&input, p, init, fold, finish).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&want), bits(got.data()), "{h}x{w} {p:?}");
        }
    }

    /// The interior fast path gives the edge-tested loop's bits where it
    /// runs (windows tiling the image, overlapping inside it, one window
    /// the size of the image), and does not run where a window leaves the
    /// image: over a ceil-mode ragged edge, or over padding.
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
        ] {
            assert_pool2d_equals_edge_tested_loop(h, w, &Pool2dParams::new(kernel, stride, pad));
        }
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
}
