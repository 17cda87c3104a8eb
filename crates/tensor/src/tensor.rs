use std::fmt;

use crate::{Result, Shape, TensorError};

/// The next draw of a SplitMix64 stream, as a uniform `f64` in `[0, 1)`.
///
/// Advances `state` by one step and maps the 53 high bits of the output
/// to `[0, 1)`. Seed a stream by setting `state` to the seed. This is
/// the workspace's one random source: [`Tensor::random_uniform`] draws
/// weights and synthetic inputs from it, and the GPU simulator its
/// Poisson arrivals.
pub fn splitmix64_unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// An owned, dense, row-major `f32` tensor.
///
/// `Tensor` is the single data currency of the whole workspace: network
/// inputs, weights, and activations are all `Tensor`s. The buffer is always
/// contiguous; views are expressed by slicing [`Tensor::data`].
///
/// ```
/// use tensor::{Tensor, Shape};
/// let t = Tensor::zeros(Shape::mat(2, 2));
/// assert_eq!(t.data(), &[0.0; 4]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.volume();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor where every element is `value`.
    pub fn filled(shape: Shape, value: f32) -> Self {
        let n = shape.volume();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// `shape.volume()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Fills a tensor with values from `f(flat_index)`; useful in tests.
    pub fn from_fn(shape: Shape, f: impl FnMut(usize) -> f32) -> Self {
        let n = shape.volume();
        Tensor {
            shape,
            data: (0..n).map(f).collect(),
        }
    }

    /// Deterministic pseudo-random tensor drawn from `U(-scale, scale)`.
    ///
    /// Used for synthetic inputs and for the architecturally-exact but
    /// untrained Tonic model weights (see DESIGN.md §2: the paper evaluates
    /// performance, not accuracy, so weight values are immaterial). The
    /// values are the [`splitmix64_unit`] stream seeded with `seed`, each
    /// mapped to `-scale + 2·scale·u` in `f32`. The recorded goldens pin
    /// this stream: a different generator or mapping fails them.
    pub fn random_uniform(shape: Shape, scale: f32, seed: u64) -> Self {
        let mut state = seed;
        let (low, high) = (-scale, scale);
        let n = shape.volume();
        Tensor {
            shape,
            data: (0..n)
                .map(|_| low + (high - low) * splitmix64_unit(&mut state) as f32)
                .collect(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true for a valid shape).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the buffer in bytes (4 bytes per `f32`).
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Self> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                op: "add",
                lhs: self.shape.dims().to_vec(),
                rhs: rhs.shape.dims().to_vec(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Index of the maximum element in row `row` when viewed as a matrix;
    /// this is the argmax used by the classifier layers.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_argmax(&self, row: usize) -> usize {
        let (r, c) = self.shape.as_matrix();
        assert!(row < r, "row {row} out of {r}");
        let slice = &self.data[row * c..(row + 1) * c];
        slice
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Stacks tensors along the batch (first) axis.
    ///
    /// This is the *batching* operation from §5.1 of the paper: multiple
    /// queries are stacked into one larger input so the DNN forward pass
    /// executes one bigger matrix multiplication.
    ///
    /// # Errors
    ///
    /// Returns an error if `parts` is empty or per-item shapes differ.
    pub fn stack_batch(parts: &[Tensor]) -> Result<Self> {
        let first = parts.first().ok_or(TensorError::EmptyShape)?;
        let mut total_batch = 0usize;
        for p in parts {
            if p.shape.dims()[1..] != first.shape.dims()[1..] {
                return Err(TensorError::ShapeMismatch {
                    op: "stack_batch",
                    lhs: first.shape.dims().to_vec(),
                    rhs: p.shape.dims().to_vec(),
                });
            }
            total_batch += p.shape.batch();
        }
        let mut data = Vec::with_capacity(first.shape.volume() / first.shape.batch() * total_batch);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        let shape = first.shape.with_batch(total_batch);
        Tensor::from_vec(shape, data)
    }

    /// Stacks owned tensors along the batch (first) axis, consuming them.
    ///
    /// The by-value counterpart of [`Tensor::stack_batch`] for dispatch
    /// paths that own their inputs: a single part is returned as-is with
    /// **zero copies**, and the multi-part case reuses the first part's
    /// allocation when it can hold the whole batch. A 64-wide IMC batch
    /// would otherwise duplicate ~64×3×227×227 floats per forward pass.
    ///
    /// # Errors
    ///
    /// Returns an error if `parts` is empty or per-item shapes differ.
    pub fn stack_batch_owned(mut parts: Vec<Tensor>) -> Result<Self> {
        if parts.len() == 1 {
            return Ok(parts.pop().expect("len checked"));
        }
        let first = parts.first().ok_or(TensorError::EmptyShape)?;
        let mut total_batch = 0usize;
        for p in &parts {
            if p.shape.dims()[1..] != first.shape.dims()[1..] {
                return Err(TensorError::ShapeMismatch {
                    op: "stack_batch",
                    lhs: first.shape.dims().to_vec(),
                    rhs: p.shape.dims().to_vec(),
                });
            }
            total_batch += p.shape.batch();
        }
        let per_item = first.shape.volume() / first.shape.batch();
        let shape = first.shape.with_batch(total_batch);
        let mut it = parts.into_iter();
        let mut data = it.next().expect("non-empty").data;
        data.reserve_exact(per_item * total_batch - data.len());
        for p in it {
            data.extend_from_slice(&p.data);
        }
        Tensor::from_vec(shape, data)
    }

    /// Splits a batched tensor back into `counts.len()` tensors where part
    /// `i` receives `counts[i]` batch rows. Inverse of [`Tensor::stack_batch`].
    ///
    /// # Errors
    ///
    /// Returns an error if the counts do not sum to the batch size.
    pub fn split_batch(&self, counts: &[usize]) -> Result<Vec<Tensor>> {
        let total: usize = counts.iter().sum();
        if total != self.shape.batch() || counts.contains(&0) {
            return Err(TensorError::InvalidParams {
                op: "split_batch",
                reason: format!(
                    "counts {:?} do not partition batch {}",
                    counts,
                    self.shape.batch()
                ),
            });
        }
        let per_item = self.shape.volume() / self.shape.batch();
        let mut out = Vec::with_capacity(counts.len());
        let mut offset = 0usize;
        for &c in counts {
            let shape = self.shape.with_batch(c);
            let data = self.data[offset * per_item..(offset + c) * per_item].to_vec();
            out.push(Tensor::from_vec(shape, data)?);
            offset += c;
        }
        Ok(out)
    }

    /// Maximum absolute difference against another tensor of the same shape;
    /// the workhorse of numerical tests.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, rhs: &Tensor) -> Result<f32> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape.dims().to_vec(),
                rhs: rhs.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(6)
            .map(|v| format!("{v:.3}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 6 {
            write!(f, ", …; {} elems", self.data.len())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        let err = Tensor::from_vec(Shape::mat(2, 2), vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Tensor::random_uniform(Shape::vec(64), 1.0, 7);
        let b = Tensor::random_uniform(Shape::vec(64), 1.0, 7);
        let c = Tensor::random_uniform(Shape::vec(64), 1.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // The head of the stream the zoo's weights are drawn from, as
        // bits: the recorded goldens depend on every value of it.
        let recorded: [(u64, f32, [u32; 8]); 2] = [
            (
                7,
                1.0,
                [
                    0xbe61a0f0, 0xbf776786, 0x3f4d3082, 0x3e29d758, 0xbdc2cc48, 0xbf004a83,
                    0xbd8343b8, 0xbeb00ca6,
                ],
            ),
            (
                0x7E47,
                0.05,
                [
                    0xbd0e4f0e, 0x3ab49a00, 0x3d007627, 0x3d4bea51, 0xbc8f7b80, 0x3cac8272,
                    0x3d0fa0b1, 0x3d1a7987,
                ],
            ),
        ];
        for (seed, scale, head) in recorded {
            let t = Tensor::random_uniform(Shape::vec(4096), scale, seed);
            let bits: Vec<u32> = t.data()[..8].iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, head, "seed {seed:#x}, scale {scale}");
            assert!(
                t.data().iter().all(|v| (-scale..=scale).contains(v)),
                "a value outside [-{scale}, {scale}]"
            );
        }
    }

    #[test]
    fn stack_and_split_roundtrip() {
        let a = Tensor::from_fn(Shape::nchw(2, 1, 2, 2), |i| i as f32);
        let b = Tensor::from_fn(Shape::nchw(3, 1, 2, 2), |i| 100.0 + i as f32);
        let stacked = Tensor::stack_batch(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(stacked.shape().batch(), 5);
        let parts = stacked.split_batch(&[2, 3]).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn stack_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let b = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        assert!(Tensor::stack_batch(&[a, b]).is_err());
    }

    #[test]
    fn stack_batch_owned_matches_borrowed_stack() {
        let a = Tensor::from_fn(Shape::nchw(2, 1, 2, 2), |i| i as f32);
        let b = Tensor::from_fn(Shape::nchw(3, 1, 2, 2), |i| 100.0 + i as f32);
        let borrowed = Tensor::stack_batch(&[a.clone(), b.clone()]).unwrap();
        let owned = Tensor::stack_batch_owned(vec![a, b]).unwrap();
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn stack_batch_owned_single_part_is_passthrough() {
        let a = Tensor::from_fn(Shape::nchw(2, 1, 2, 2), |i| i as f32);
        let out = Tensor::stack_batch_owned(vec![a.clone()]).unwrap();
        assert_eq!(out, a);
    }

    #[test]
    fn stack_batch_owned_rejects_empty_and_mismatched() {
        assert!(Tensor::stack_batch_owned(Vec::new()).is_err());
        let a = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let b = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        assert!(Tensor::stack_batch_owned(vec![a, b]).is_err());
    }

    #[test]
    fn split_rejects_bad_counts() {
        let t = Tensor::zeros(Shape::mat(4, 2));
        assert!(t.split_batch(&[1, 2]).is_err());
        assert!(t.split_batch(&[4, 0]).is_err());
        assert!(t.split_batch(&[2, 2]).is_ok());
    }

    #[test]
    fn row_argmax_finds_max() {
        let t = Tensor::from_vec(Shape::mat(2, 3), vec![0.1, 0.9, 0.3, 5.0, -1.0, 2.0]).unwrap();
        assert_eq!(t.row_argmax(0), 1);
        assert_eq!(t.row_argmax(1), 0);
    }

    #[test]
    fn debug_is_never_empty() {
        let t = Tensor::zeros(Shape::vec(1));
        assert!(!format!("{t:?}").is_empty());
    }
}
