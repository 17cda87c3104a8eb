//! Weight storage and initialization.

use tensor::{Shape, Tensor};

use crate::LayerSpec;

/// The learned parameters of one layer: a weight tensor and a bias vector.
///
/// Parameter-free layers use [`LayerWeights::none`], which owns a 1-element
/// placeholder (shapes cannot be empty) and an empty bias.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    weights: Tensor,
    bias: Vec<f32>,
    empty: bool,
    /// Whether every weight (not bias) is finite, found once when the
    /// weights are built or loaded: an inner product may then skip the
    /// weight rows a zero input selects (`tensor::matmul_finite`).
    finite: bool,
}

impl LayerWeights {
    /// Placeholder for parameter-free layers.
    pub fn none() -> Self {
        LayerWeights {
            weights: Tensor::zeros(Shape::vec(1)),
            bias: Vec::new(),
            empty: true,
            finite: true,
        }
    }

    /// Initializes weights for `layer` given its input shape, drawing from a
    /// deterministic uniform distribution scaled by fan-in (a simplified
    /// Xavier init — sufficient because only the architecture, not the
    /// values, matters for the paper's performance results).
    pub fn init(layer: &LayerSpec, input: &Shape, seed: u64) -> Self {
        match param_shapes(layer, input) {
            Some((shape, bias_len, fan_in)) => {
                let scale = (1.0 / fan_in as f32).sqrt();
                LayerWeights::from_parts(
                    Tensor::random_uniform(shape, scale, seed),
                    vec![0.0; bias_len],
                )
            }
            None => LayerWeights::none(),
        }
    }

    /// A parameterised layer's weights from a tensor and a bias vector.
    pub(crate) fn from_parts(weights: Tensor, bias: Vec<f32>) -> Self {
        LayerWeights {
            finite: all_finite(&weights),
            weights,
            bias,
            empty: false,
        }
    }

    /// The weight tensor. For `Conv`: `(out, in/groups, k, k)`; for
    /// `InnerProduct`: `(in, out)`; for `Local`: `(locations*out, in*k*k)`.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The bias vector (empty for parameter-free layers).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Whether the weight tensor holds no infinity and no NaN.
    pub(crate) fn is_finite(&self) -> bool {
        self.finite
    }

    /// Whether this is the parameter-free placeholder.
    pub fn is_none(&self) -> bool {
        self.empty
    }

    /// Total number of stored parameters.
    pub fn param_count(&self) -> usize {
        if self.empty {
            0
        } else {
            self.weights.len() + self.bias.len()
        }
    }

    /// Bytes occupied by the stored parameters (4 per value).
    pub fn byte_len(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// Overwrites weights and biases with constants; test helper.
    #[cfg(test)]
    pub(crate) fn fill_for_test(&mut self, weight: f32, bias: f32) {
        self.weights.map_inplace(|_| weight);
        for b in &mut self.bias {
            *b = bias;
        }
        self.finite = all_finite(&self.weights);
    }

    /// Sets the weight at flat index `at`; test helper.
    #[cfg(test)]
    pub(crate) fn set_weight_for_test(&mut self, at: usize, weight: f32) {
        self.weights.data_mut()[at] = weight;
        self.finite = all_finite(&self.weights);
    }
}

fn all_finite(t: &Tensor) -> bool {
    t.data().iter().all(|v| v.is_finite())
}

/// `layer`'s weight shape, bias length and fan-in given its input shape;
/// `None` for parameter-free layers.
pub(crate) fn param_shapes(layer: &LayerSpec, input: &Shape) -> Option<(Shape, usize, usize)> {
    match layer {
        LayerSpec::Conv(p) => {
            let cg = input.dims()[1] / p.groups;
            let shape = Shape::nchw(p.out_channels, cg, p.kernel, p.kernel);
            Some((shape, p.out_channels, cg * p.kernel * p.kernel))
        }
        LayerSpec::Local(p) => {
            let d = input.dims();
            let oh = p.out_dim(d[2]).expect("validated by shape inference");
            let ow = p.out_dim(d[3]).expect("validated by shape inference");
            let ksz = d[1] * p.kernel * p.kernel;
            let count = oh * ow * p.out_channels;
            Some((Shape::mat(count, ksz), count, ksz))
        }
        LayerSpec::InnerProduct { out } => {
            let (_, cols) = input.as_matrix();
            Some((Shape::mat(cols, *out), *out, cols))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Conv2dParams;

    #[test]
    fn init_matches_layer_param_count() {
        let input = Shape::nchw(1, 3, 16, 16);
        let layers = [
            LayerSpec::Conv(Conv2dParams::new(8, 3, 1, 1)),
            LayerSpec::InnerProduct { out: 10 },
            LayerSpec::Local(crate::LocalParams {
                out_channels: 4,
                kernel: 3,
                stride: 1,
                pad: 0,
            }),
        ];
        for layer in layers {
            let w = LayerWeights::init(&layer, &input, 1);
            assert_eq!(w.param_count(), layer.param_count(&input), "{layer:?}");
        }
    }

    #[test]
    fn none_has_zero_params() {
        let w = LayerWeights::none();
        assert!(w.is_none());
        assert_eq!(w.param_count(), 0);
        assert_eq!(w.byte_len(), 0);
    }

    #[test]
    fn init_is_deterministic() {
        let input = Shape::mat(1, 64);
        let layer = LayerSpec::InnerProduct { out: 16 };
        let a = LayerWeights::init(&layer, &input, 42);
        let b = LayerWeights::init(&layer, &input, 42);
        assert_eq!(a, b);
    }
}
