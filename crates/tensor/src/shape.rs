use std::fmt;

use crate::TensorError;

/// The extent of a tensor along each axis, in row-major (C) order.
///
/// Tonic networks use at most 4-D tensors in `NCHW` layout (batch, channels,
/// height, width); fully-connected layers use 2-D `(rows, cols)` matrices.
/// `Shape` supports 1- to 4-D.
///
/// ```
/// use tensor::Shape;
/// let s = Shape::nchw(16, 3, 227, 227);
/// assert_eq!(s.volume(), 16 * 3 * 227 * 227);
/// assert_eq!(s.dims().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from arbitrary dimensions (1 to 4 of them).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyShape`] if `dims` is empty, has more than
    /// 4 axes, or any axis is zero.
    pub fn new(dims: &[usize]) -> Result<Self, TensorError> {
        if dims.is_empty() || dims.len() > 4 || dims.contains(&0) {
            return Err(TensorError::EmptyShape);
        }
        Ok(Shape {
            dims: dims.to_vec(),
        })
    }

    /// A 1-D shape of `n` elements.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn vec(n: usize) -> Self {
        Shape::new(&[n]).expect("vector length must be non-zero")
    }

    /// A 2-D `(rows, cols)` matrix shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn mat(rows: usize, cols: usize) -> Self {
        Shape::new(&[rows, cols]).expect("matrix dims must be non-zero")
    }

    /// A 4-D `NCHW` shape (batch, channels, height, width).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape::new(&[n, c, h, w]).expect("nchw dims must be non-zero")
    }

    /// The dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides for each axis, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Interprets the shape as a matrix: the first axis becomes the row
    /// count and all remaining axes are flattened into the column count.
    ///
    /// This mirrors how Caffe flattens a `NCHW` blob before an inner-product
    /// layer: `(N, C*H*W)`.
    pub fn as_matrix(&self) -> (usize, usize) {
        let rows = self.dims[0];
        let cols: usize = self.dims[1..].iter().product::<usize>().max(1);
        (rows, cols)
    }

    /// Batch dimension (first axis).
    pub fn batch(&self) -> usize {
        self.dims[0]
    }

    /// Returns a copy of this shape with the batch (first) axis replaced.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn with_batch(&self, batch: usize) -> Self {
        assert!(batch > 0, "batch must be non-zero");
        let mut dims = self.dims.clone();
        dims[0] = batch;
        Shape { dims }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<(usize, usize)> for Shape {
    fn from((r, c): (usize, usize)) -> Self {
        Shape::mat(r, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_empty_and_zero() {
        assert_eq!(Shape::new(&[]), Err(TensorError::EmptyShape));
        assert_eq!(Shape::new(&[3, 0]), Err(TensorError::EmptyShape));
        assert_eq!(Shape::new(&[1, 2, 3, 4, 5]), Err(TensorError::EmptyShape));
    }

    #[test]
    fn volume_and_strides() {
        let s = Shape::nchw(2, 3, 4, 5);
        assert_eq!(s.volume(), 120);
        assert_eq!(s.strides(), vec![60, 20, 5, 1]);
    }

    #[test]
    fn as_matrix_flattens_trailing_axes() {
        assert_eq!(Shape::nchw(8, 3, 2, 2).as_matrix(), (8, 12));
        assert_eq!(Shape::mat(4, 7).as_matrix(), (4, 7));
        assert_eq!(Shape::vec(9).as_matrix(), (9, 1));
    }

    #[test]
    fn with_batch_replaces_first_axis() {
        let s = Shape::nchw(1, 3, 8, 8).with_batch(32);
        assert_eq!(s.dims(), &[32, 3, 8, 8]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Shape::nchw(1, 3, 8, 8).to_string(), "(1x3x8x8)");
    }
}
