//! The layer vocabulary: shape inference, parameter counting and
//! functional forward execution for each layer type used by Tonic Suite.

use tensor::{Conv2dParams, LrnParams, Pool2dParams, Shape, Tensor, Threading};

use crate::{DnnError, LayerWeights, Result};

/// Pointwise nonlinearity selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// Rectified linear unit (AlexNet, MNIST).
    Relu,
    /// Hyperbolic tangent (Kaldi ASR).
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hard tanh, clamp to `[-1, 1]` (SENNA).
    HardTanh,
}

impl ActivationKind {
    /// Applies the activation in place.
    pub fn apply(&self, t: &mut Tensor) {
        match self {
            ActivationKind::Relu => tensor::relu(t),
            ActivationKind::Tanh => tensor::tanh(t),
            ActivationKind::Sigmoid => tensor::sigmoid(t),
            ActivationKind::HardTanh => tensor::hardtanh(t),
        }
    }

    /// Lower-case name used in the text format.
    pub fn name(&self) -> &'static str {
        match self {
            ActivationKind::Relu => "relu",
            ActivationKind::Tanh => "tanh",
            ActivationKind::Sigmoid => "sigmoid",
            ActivationKind::HardTanh => "hardtanh",
        }
    }
}

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Mean over the valid window.
    Avg,
}

/// Geometry of a locally-connected layer (DeepFace's L4–L6): identical to a
/// convolution except the kernel weights are *untied* — every output
/// location has its own kernel. This is what makes DeepFace's parameter
/// count enormous (120M) relative to its depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalParams {
    /// Number of output feature maps.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
}

impl LocalParams {
    /// Output spatial side for an input side of `input` pixels.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel does not fit.
    pub fn out_dim(&self, input: usize) -> Result<usize> {
        Conv2dParams::new(self.out_channels, self.kernel, self.stride, self.pad)
            .out_dim(input)
            .map_err(DnnError::from)
    }
}

/// One layer of a network.
///
/// A `LayerSpec` is pure description: it owns no weights (see
/// [`LayerWeights`]) and can infer its output shape from any compatible
/// input shape, which is how the whole network validates itself at load
/// time.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpec {
    /// 2-D convolution (shared kernels).
    Conv(Conv2dParams),
    /// Locally-connected 2-D layer (untied kernels).
    Local(LocalParams),
    /// Spatial pooling.
    Pool(PoolKind, Pool2dParams),
    /// Fully-connected (inner-product) layer with `out` outputs.
    InnerProduct {
        /// Number of output neurons.
        out: usize,
    },
    /// Pointwise nonlinearity.
    Activation(ActivationKind),
    /// Cross-channel local response normalization.
    Lrn(LrnParams),
    /// Dropout: a no-op at inference time, kept so layer counts match the
    /// published architectures.
    Dropout,
    /// Row-wise softmax classifier output.
    Softmax,
}

impl LayerSpec {
    /// Infers the output shape for a given input shape.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadLayer`] when the layer cannot accept the
    /// input (wrong rank, kernel larger than input, ...).
    pub fn output_shape(&self, input: &Shape) -> Result<Shape> {
        let fail = |reason: String| DnnError::BadLayer {
            layer: self.kind_name().to_string(),
            reason,
        };
        match self {
            LayerSpec::Conv(p) => {
                let d = input.dims();
                if d.len() != 4 {
                    return Err(fail(format!("conv needs NCHW input, got {input}")));
                }
                if p.out_channels == 0 {
                    return Err(fail("convolution with zero output channels".into()));
                }
                if !d[1].is_multiple_of(p.groups) || p.out_channels % p.groups != 0 {
                    return Err(fail(format!(
                        "channels {} / out {} not divisible by groups {}",
                        d[1], p.out_channels, p.groups
                    )));
                }
                let oh = p.out_dim(d[2]).map_err(|e| fail(e.to_string()))?;
                let ow = p.out_dim(d[3]).map_err(|e| fail(e.to_string()))?;
                Ok(Shape::nchw(d[0], p.out_channels, oh, ow))
            }
            LayerSpec::Local(p) => {
                let d = input.dims();
                if d.len() != 4 {
                    return Err(fail(format!("local needs NCHW input, got {input}")));
                }
                if p.out_channels == 0 {
                    return Err(fail(
                        "locally-connected layer with zero output channels".into(),
                    ));
                }
                let oh = p.out_dim(d[2]).map_err(|e| fail(e.to_string()))?;
                let ow = p.out_dim(d[3]).map_err(|e| fail(e.to_string()))?;
                Ok(Shape::nchw(d[0], p.out_channels, oh, ow))
            }
            LayerSpec::Pool(_, p) => {
                let d = input.dims();
                if d.len() != 4 {
                    return Err(fail(format!("pool needs NCHW input, got {input}")));
                }
                let oh = p.out_dim(d[2]).map_err(|e| fail(e.to_string()))?;
                let ow = p.out_dim(d[3]).map_err(|e| fail(e.to_string()))?;
                Ok(Shape::nchw(d[0], d[1], oh, ow))
            }
            LayerSpec::InnerProduct { out } => {
                if *out == 0 {
                    return Err(fail("inner product with zero outputs".into()));
                }
                let (rows, _) = input.as_matrix();
                Ok(Shape::mat(rows, *out))
            }
            LayerSpec::Activation(_) | LayerSpec::Dropout | LayerSpec::Softmax => Ok(input.clone()),
            LayerSpec::Lrn(p) => {
                if input.dims().len() != 4 {
                    return Err(fail(format!("lrn needs NCHW input, got {input}")));
                }
                if p.local_size == 0 {
                    return Err(fail("lrn local_size must be non-zero".into()));
                }
                Ok(input.clone())
            }
        }
    }

    /// Number of learned parameters (weights + biases) for a given input
    /// shape; zero for parameter-free layers.
    pub fn param_count(&self, input: &Shape) -> usize {
        match self {
            LayerSpec::Conv(p) => {
                let cg = input.dims()[1] / p.groups;
                p.out_channels * cg * p.kernel * p.kernel + p.out_channels
            }
            LayerSpec::Local(p) => {
                let d = input.dims();
                let (oh, ow) = match (p.out_dim(d[2]), p.out_dim(d[3])) {
                    (Ok(a), Ok(b)) => (a, b),
                    _ => return 0,
                };
                // Untied: a full kernel (+bias) per output location.
                oh * ow * p.out_channels * (d[1] * p.kernel * p.kernel + 1)
            }
            LayerSpec::InnerProduct { out } => {
                let (_, cols) = input.as_matrix();
                cols * out + out
            }
            _ => 0,
        }
    }

    /// Short lower-case kind name (matches the text format keywords).
    pub fn kind_name(&self) -> &'static str {
        match self {
            LayerSpec::Conv(_) => "conv",
            LayerSpec::Local(_) => "local",
            LayerSpec::Pool(PoolKind::Max, _) => "maxpool",
            LayerSpec::Pool(PoolKind::Avg, _) => "avgpool",
            LayerSpec::InnerProduct { .. } => "fc",
            LayerSpec::Activation(a) => a.name(),
            LayerSpec::Lrn(_) => "lrn",
            LayerSpec::Dropout => "dropout",
            LayerSpec::Softmax => "softmax",
        }
    }

    /// Executes the layer's forward pass sequentially.
    ///
    /// `weights` must be the weights created for this layer by
    /// [`LayerWeights::init`] (empty for parameter-free layers).
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the tensor kernels.
    pub fn forward(&self, input: &Tensor, weights: &LayerWeights) -> Result<Tensor> {
        self.forward_with(input, weights, Threading::SINGLE)
    }

    /// [`LayerSpec::forward`] with a worker-thread budget.
    ///
    /// The budget reaches the compute-bound layers — convolution
    /// (parallel over batch images, then GEMM row strips) and inner
    /// product (parallel over GEMM row strips, i.e. batch rows).
    /// Pointwise and pooling layers run sequentially; they are
    /// memory-bound and their batch dimension is instead covered by
    /// [`crate::Network::forward_sharded`].
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the tensor kernels.
    pub fn forward_with(
        &self,
        input: &Tensor,
        weights: &LayerWeights,
        threading: Threading,
    ) -> Result<Tensor> {
        match self {
            LayerSpec::Conv(p) => {
                let out =
                    tensor::conv2d_with(input, weights.weights(), weights.bias(), p, threading)?;
                Ok(out)
            }
            LayerSpec::Local(p) => forward_local(input, weights, p),
            LayerSpec::Pool(kind, p) => {
                let out = match kind {
                    PoolKind::Max => tensor::max_pool2d(input, p)?,
                    PoolKind::Avg => tensor::avg_pool2d(input, p)?,
                };
                Ok(out)
            }
            LayerSpec::InnerProduct { out } => {
                // weights stored (cols x out), so y = x * W + b; `matmul`
                // reads any-rank input as the `(N, C*H*W)` matrix in place.
                // Finite weights let rows that are mostly zero (a one-hot
                // token) read only the weight rows they select.
                let w = weights.weights();
                let mut y = if weights.is_finite() {
                    tensor::matmul_finite(input, w, threading.threads)?
                } else {
                    tensor::matmul_with(input, w, threading.threads)?
                };
                debug_assert_eq!(y.shape().as_matrix().1, *out);
                tensor::add_bias_rows(&mut y, weights.bias())?;
                Ok(y)
            }
            LayerSpec::Lrn(p) => Ok(tensor::lrn_cross_channel(input, p)?),
            LayerSpec::Activation(_) | LayerSpec::Dropout | LayerSpec::Softmax => {
                let mut out = input.clone();
                self.forward_in_place(&mut out);
                Ok(out)
            }
        }
    }

    /// Runs a pointwise layer (activation, dropout, softmax) on `t` in
    /// place, with the bits [`LayerSpec::forward`] gives, and says so;
    /// any other layer leaves `t` alone and returns `false`.
    pub(crate) fn forward_in_place(&self, t: &mut Tensor) -> bool {
        match self {
            LayerSpec::Activation(a) => a.apply(t),
            LayerSpec::Dropout => {}
            LayerSpec::Softmax => tensor::softmax_rows(t),
            _ => return false,
        }
        true
    }
}

/// Locally-connected forward pass: like a convolution but each output
/// location `(oc, oy, ox)` uses its own kernel slice.
fn forward_local(input: &Tensor, weights: &LayerWeights, p: &LocalParams) -> Result<Tensor> {
    let d = input.shape().dims();
    if d.len() != 4 {
        return Err(DnnError::BadLayer {
            layer: "local".into(),
            reason: format!("needs NCHW input, got {}", input.shape()),
        });
    }
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let oh = p.out_dim(h)?;
    let ow = p.out_dim(w)?;
    let ksz = c * p.kernel * p.kernel;
    let expected = oh * ow * p.out_channels * ksz;
    if weights.weights().len() != expected || weights.bias().len() != oh * ow * p.out_channels {
        return Err(DnnError::BadLayer {
            layer: "local".into(),
            reason: format!(
                "weight volume {} / bias {} inconsistent with untied geometry {}",
                weights.weights().len(),
                weights.bias().len(),
                expected
            ),
        });
    }
    let mut out = Tensor::zeros(Shape::nchw(n, p.out_channels, oh, ow));
    let x = input.data();
    let wt = weights.weights().data();
    let bias = weights.bias();
    for img in 0..n {
        for oc in 0..p.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    // Kernel for this output location.
                    let loc = (oc * oh + oy) * ow + ox;
                    let kbase = loc * ksz;
                    let mut acc = bias[loc];
                    for ic in 0..c {
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
                                let xv = x[((img * c + ic) * h + iy as usize) * w + ix as usize];
                                let wv = wt[kbase + (ic * p.kernel + ky) * p.kernel + kx];
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

    #[test]
    fn conv_shape_inference_matches_alexnet_conv1() {
        let layer = LayerSpec::Conv(Conv2dParams::new(96, 11, 4, 0));
        let out = layer.output_shape(&Shape::nchw(1, 3, 227, 227)).unwrap();
        assert_eq!(out.dims(), &[1, 96, 55, 55]);
        assert_eq!(layer.param_count(&Shape::nchw(1, 3, 227, 227)), 34_944);
    }

    #[test]
    fn inner_product_flattens_input() {
        let layer = LayerSpec::InnerProduct { out: 10 };
        let out = layer.output_shape(&Shape::nchw(4, 2, 3, 3)).unwrap();
        assert_eq!(out.dims(), &[4, 10]);
        assert_eq!(layer.param_count(&Shape::nchw(4, 2, 3, 3)), 18 * 10 + 10);
    }

    #[test]
    fn local_param_count_is_untied() {
        // 2x2 input of 1 channel, 1x1 kernel, 2 out channels:
        // 4 locations x 2 channels x (1 weight + 1 bias) = 16.
        let p = LocalParams {
            out_channels: 2,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let layer = LayerSpec::Local(p);
        assert_eq!(layer.param_count(&Shape::nchw(1, 1, 2, 2)), 16);
    }

    #[test]
    fn local_layer_with_unit_weights_equals_conv() {
        // With all weights = 1 and bias = 0, local == conv of all-ones.
        let p = LocalParams {
            out_channels: 1,
            kernel: 2,
            stride: 1,
            pad: 0,
        };
        let layer = LayerSpec::Local(p);
        let input = Tensor::from_fn(Shape::nchw(1, 1, 3, 3), |i| i as f32);
        let in_shape = input.shape().clone();
        let mut w = LayerWeights::init(&layer, &in_shape, 0);
        w.fill_for_test(1.0, 0.0);
        let out = layer.forward(&input, &w).unwrap();
        assert_eq!(out.data(), &[8.0, 12.0, 20.0, 24.0]);
    }

    /// Weights with one infinity, or one NaN, in a row the input does not
    /// select: the one-hot row must still get the dense answer, NaN in
    /// that column (`0 * inf`, `0 * NaN`), not the lookup tier's finite
    /// one. With finite weights the two tiers agree bit for bit.
    #[test]
    fn non_finite_weights_keep_the_dense_answer_on_a_one_hot_row() {
        let (k, out) = (64, 24);
        let layer = LayerSpec::InnerProduct { out };
        let mut hot = vec![0.0f32; k];
        hot[5] = 1.0;
        let x = Tensor::from_vec(Shape::mat(1, k), hot).unwrap();
        let dense = |w: &LayerWeights| {
            let mut y = tensor::matmul_with(&x, w.weights(), 1).unwrap();
            tensor::add_bias_rows(&mut y, w.bias()).unwrap();
            bits(&y)
        };
        let mut w = LayerWeights::init(&layer, x.shape(), 3);
        assert!(w.is_finite());
        assert_eq!(bits(&layer.forward(&x, &w).unwrap()), dense(&w));
        for bad in [f32::INFINITY, f32::NAN] {
            w.set_weight_for_test(40 * out + 7, bad);
            assert!(!w.is_finite());
            let y = layer.forward(&x, &w).unwrap();
            assert!(y.data()[7].is_nan(), "0 * {bad} is NaN");
            assert_eq!(bits(&y), dense(&w), "{bad}");
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dropout_is_identity_at_inference() {
        let input = Tensor::random_uniform(Shape::mat(3, 4), 1.0, 9);
        let out = LayerSpec::Dropout
            .forward(&input, &LayerWeights::none())
            .unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn activation_layers_preserve_shape() {
        let input = Tensor::random_uniform(Shape::nchw(2, 3, 4, 4), 2.0, 1);
        for kind in [
            ActivationKind::Relu,
            ActivationKind::Tanh,
            ActivationKind::Sigmoid,
            ActivationKind::HardTanh,
        ] {
            let out = LayerSpec::Activation(kind)
                .forward(&input, &LayerWeights::none())
                .unwrap();
            assert_eq!(out.shape(), input.shape());
        }
    }

    #[test]
    fn bad_geometry_is_rejected_at_shape_inference() {
        let layer = LayerSpec::Conv(Conv2dParams::new(8, 9, 1, 0));
        assert!(layer.output_shape(&Shape::nchw(1, 1, 4, 4)).is_err());
        let layer = LayerSpec::Conv(Conv2dParams {
            groups: 3,
            ..Conv2dParams::new(8, 3, 1, 0)
        });
        assert!(layer.output_shape(&Shape::nchw(1, 4, 8, 8)).is_err());
        assert!(LayerSpec::InnerProduct { out: 0 }
            .output_shape(&Shape::mat(1, 4))
            .is_err());
    }
}
