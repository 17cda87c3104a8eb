//! Pointwise activations, softmax, bias addition and local response
//! normalization — the non-GEMM layers of the Tonic networks.

use crate::{Result, Tensor, TensorError};

/// Rectified linear unit, in place: `x = max(x, 0)`.
pub fn relu(t: &mut Tensor) {
    t.map_inplace(|v| v.max(0.0));
}

/// Hyperbolic tangent, in place. Used by the Kaldi ASR network.
pub fn tanh(t: &mut Tensor) {
    t.map_inplace(f32::tanh);
}

/// Logistic sigmoid, in place.
pub fn sigmoid(t: &mut Tensor) {
    t.map_inplace(|v| 1.0 / (1.0 + (-v).exp()));
}

/// Hard tanh (clamp to `[-1, 1]`), in place. SENNA's activation of choice.
pub fn hardtanh(t: &mut Tensor) {
    t.map_inplace(|v| v.clamp(-1.0, 1.0));
}

/// Adds `bias[j]` to column `j` of every row when the tensor is viewed as a
/// matrix. This is the bias term of an inner-product layer.
///
/// # Errors
///
/// Returns an error if `bias.len()` differs from the column count.
pub fn add_bias_rows(t: &mut Tensor, bias: &[f32]) -> Result<()> {
    let (rows, cols) = t.shape().as_matrix();
    if bias.len() != cols {
        return Err(TensorError::ShapeMismatch {
            op: "add_bias_rows",
            lhs: vec![rows, cols],
            rhs: vec![bias.len()],
        });
    }
    for r in 0..rows {
        let row = &mut t.data_mut()[r * cols..(r + 1) * cols];
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
    Ok(())
}

/// Numerically-stable softmax over each row of the matrix view, in place.
/// This is the classifier layer that terminates every Tonic network.
pub fn softmax_rows(t: &mut Tensor) {
    let (rows, cols) = t.shape().as_matrix();
    for r in 0..rows {
        let row = &mut t.data_mut()[r * cols..(r + 1) * cols];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

/// Parameters for cross-channel local response normalization (AlexNet's
/// LRN layers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrnParams {
    /// Number of adjacent channels included in each normalization window.
    pub local_size: usize,
    /// Scaling coefficient.
    pub alpha: f32,
    /// Exponent.
    pub beta: f32,
    /// Additive constant.
    pub k: f32,
}

impl Default for LrnParams {
    fn default() -> Self {
        // AlexNet's published constants.
        LrnParams {
            local_size: 5,
            alpha: 1e-4,
            beta: 0.75,
            k: 2.0,
        }
    }
}

/// Cross-channel LRN over an `NCHW` tensor:
/// `y = x / (k + alpha/n * sum_{nearby channels} x^2)^beta`.
///
/// # Errors
///
/// Returns an error if the input is not 4-D or `local_size` is zero.
pub fn lrn_cross_channel(input: &Tensor, p: &LrnParams) -> Result<Tensor> {
    let dims = input.shape().dims();
    if dims.len() != 4 {
        return Err(TensorError::InvalidParams {
            op: "lrn",
            reason: format!("input must be NCHW, got {}", input.shape()),
        });
    }
    if p.local_size == 0 {
        return Err(TensorError::InvalidParams {
            op: "lrn",
            reason: "local_size must be non-zero".into(),
        });
    }
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let half = p.local_size / 2;
    let mut out = input.clone();
    let x = input.data();
    for img in 0..n {
        for ch in 0..c {
            let lo = ch.saturating_sub(half);
            let hi = (ch + half).min(c - 1);
            for y in 0..h {
                for xx in 0..w {
                    let mut sq = 0.0f32;
                    for nc in lo..=hi {
                        let v = x[((img * c + nc) * h + y) * w + xx];
                        sq += v * v;
                    }
                    let denom = (p.k + p.alpha / p.local_size as f32 * sq).powf(p.beta);
                    out.data_mut()[((img * c + ch) * h + y) * w + xx] /= denom;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;
    use proptest::prelude::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut t = Tensor::from_vec(Shape::vec(4), vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        relu(&mut t);
        assert_eq!(t.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn hardtanh_clamps_both_sides() {
        let mut t = Tensor::from_vec(Shape::vec(4), vec![-3.0, -0.5, 0.5, 3.0]).unwrap();
        hardtanh(&mut t);
        assert_eq!(t.data(), &[-1.0, -0.5, 0.5, 1.0]);
    }

    #[test]
    fn sigmoid_midpoint() {
        let mut t = Tensor::zeros(Shape::vec(1));
        sigmoid(&mut t);
        assert!((t.data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_argmax() {
        let mut t =
            Tensor::from_vec(Shape::mat(2, 3), vec![1.0, 5.0, 2.0, -1.0, -2.0, -3.0]).unwrap();
        let argmax_before = [t.row_argmax(0), t.row_argmax(1)];
        softmax_rows(&mut t);
        for r in 0..2 {
            let sum: f32 = t.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert_eq!([t.row_argmax(0), t.row_argmax(1)], argmax_before);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut t = Tensor::from_vec(Shape::mat(1, 2), vec![1000.0, 999.0]).unwrap();
        softmax_rows(&mut t);
        assert!(t.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn bias_rows_adds_per_column() {
        let mut t = Tensor::zeros(Shape::mat(2, 3));
        add_bias_rows(&mut t, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        assert!(add_bias_rows(&mut t, &[1.0]).is_err());
    }

    #[test]
    fn lrn_shrinks_magnitudes() {
        let input = Tensor::filled(Shape::nchw(1, 8, 2, 2), 2.0);
        let out = lrn_cross_channel(&input, &LrnParams::default()).unwrap();
        // k = 2 > 1, so the denominator > 1 and outputs shrink.
        for (&o, &i) in out.data().iter().zip(input.data()) {
            assert!(o.abs() < i.abs());
            assert!(o > 0.0);
        }
    }

    #[test]
    fn lrn_rejects_bad_input() {
        let input = Tensor::zeros(Shape::mat(2, 2));
        assert!(lrn_cross_channel(&input, &LrnParams::default()).is_err());
        let nchw = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let bad = LrnParams {
            local_size: 0,
            ..LrnParams::default()
        };
        assert!(lrn_cross_channel(&nchw, &bad).is_err());
    }

    proptest! {
        #[test]
        fn softmax_outputs_are_probabilities(rows in 1usize..5, cols in 1usize..10, seed in 0u64..100) {
            let mut t = Tensor::random_uniform(Shape::mat(rows, cols), 10.0, seed);
            softmax_rows(&mut t);
            for r in 0..rows {
                let row = &t.data()[r * cols..(r + 1) * cols];
                let sum: f32 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }

        #[test]
        fn relu_is_idempotent(n in 1usize..64, seed in 0u64..100) {
            let mut t = Tensor::random_uniform(Shape::vec(n), 4.0, seed);
            relu(&mut t);
            let once = t.clone();
            relu(&mut t);
            prop_assert_eq!(once, t);
        }

        #[test]
        fn lrn_preserves_sign_and_shape(seed in 0u64..100) {
            let input = Tensor::random_uniform(Shape::nchw(2, 6, 3, 3), 2.0, seed);
            let out = lrn_cross_channel(&input, &LrnParams::default()).unwrap();
            prop_assert_eq!(out.shape(), input.shape());
            for (&o, &i) in out.data().iter().zip(input.data()) {
                prop_assert!(o.signum() == i.signum() || i == 0.0);
            }
        }
    }
}
