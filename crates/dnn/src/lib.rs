//! Neural-network framework for the DjiNN reproduction — the stand-in for
//! Caffe in the original paper.
//!
//! The crate provides:
//!
//! * [`LayerSpec`] — the layer vocabulary needed by the Tonic networks
//!   (convolution, locally-connected, pooling, inner-product, LRN,
//!   activations, dropout, softmax), with shape inference and functional
//!   forward execution on [`tensor`] primitives;
//! * [`NetDef`]/[`Network`] — a declarative network description plus a
//!   weight store, executing the inference (forward) pass;
//! * a prototxt-like [text format](parser) so networks can be configured
//!   without recompiling, mirroring DjiNN's "supporting more applications
//!   simply requires providing a pretrained model" property;
//! * [`profile`] — per-layer workload characterization (FLOPs, bytes,
//!   kernel launch geometry) consumed by the GPU simulator;
//! * [`zoo`] — architecturally-exact definitions of the seven Tonic
//!   networks of Table 1 (AlexNet, MNIST, DeepFace, Kaldi, SENNA×3).
//!
//! # Quickstart
//!
//! ```
//! use dnn::zoo::{self, App};
//!
//! let net = zoo::network(App::Dig)?;
//! let input = tensor::Tensor::zeros(net.def().input_shape().clone());
//! let probs = net.forward(&input)?;
//! assert_eq!(probs.shape().as_matrix().1, 10); // ten digit classes
//! # Ok::<(), dnn::DnnError>(())
//! ```

pub mod cache;
mod error;
mod layer;
pub mod modelfile;
mod netdef;
mod network;
pub mod parser;
pub mod profile;
mod weights;
pub mod zoo;

pub use error::DnnError;
pub use layer::{ActivationKind, LayerSpec, LocalParams, PoolKind};
pub use netdef::{LayerDef, NetDef};
pub use network::Network;
pub use weights::LayerWeights;

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, DnnError>;
