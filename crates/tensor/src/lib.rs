//! Dense tensor math substrate for the DjiNN reproduction.
//!
//! This crate is the stand-in for the ATLAS/OpenBLAS layer the paper's CPU
//! baseline uses: a small, self-contained library of dense `f32` tensor
//! operations — SGEMM (a no-pack kernel for few-row and small calls, a
//! packed parallel one for the rest, bit-identical to each other),
//! im2col-based convolution fused into the packed kernel (each image's
//! columns copied straight into its B panels, in panel order, from a
//! plan made once per call), pooling, and the pointwise activations
//! needed by the Tonic networks.
//!
//! The build targets baseline x86-64. The GEMM tiers, and with them the
//! convolution, run an AVX2 instantiation of the same loop nests where
//! the CPU reports AVX2 at run time, and the packed tier an AVX-512 one
//! where it reports AVX-512F — a multiply then an add, never a fused
//! multiply-add — and pooling runs on AVX2 too, each window's taps folded
//! in the same order, so an output has the same bits on every CPU.
//! No option selects it. The crate denies `unsafe_code` except in
//! `isa`, which holds the one CPU check and those instantiations, and in
//! `gemm::avx2` and `gemm::avx512`, the packed tier's intrinsics
//! micro-kernels.
//!
//! # Quickstart
//!
//! ```
//! use tensor::{Tensor, Shape};
//!
//! let a = Tensor::from_vec(Shape::mat(2, 3), vec![1., 2., 3., 4., 5., 6.])?;
//! let b = Tensor::from_vec(Shape::mat(3, 2), vec![7., 8., 9., 10., 11., 12.])?;
//! let c = tensor::matmul(&a, &b)?;
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert_eq!(c.data()[0], 58.0);
//! # Ok::<(), tensor::TensorError>(())
//! ```

#![deny(unsafe_code)]

mod conv;
mod error;
mod gemm;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod isa;
mod ops;
mod pool;
mod shape;
#[allow(clippy::module_inception)]
mod tensor;
mod threading;

pub use conv::{col2im, conv2d, conv2d_direct, conv2d_with, im2col, Conv2dParams};
pub use error::TensorError;
pub use gemm::{
    gemm_naive, gemm_packed, gemm_skinny, matmul, matmul_with, sgemm, transpose, GemmOptions,
};
pub use ops::{
    add_bias_rows, hardtanh, lrn_cross_channel, relu, sigmoid, softmax_rows, tanh, LrnParams,
};
pub use pool::{avg_pool2d, max_pool2d, Pool2dParams};
pub use shape::Shape;
pub use tensor::Tensor;
pub use threading::{partition, Threading};

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
