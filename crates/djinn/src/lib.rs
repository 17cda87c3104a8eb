//! DjiNN: DNN as a service.
//!
//! This crate is the paper's primary artifact: a standalone service that
//! accepts inference requests over a custom socket protocol on TCP/IP,
//! holds every registered model in memory once (engine threads share them
//! read-only), executes the DNN forward pass, and returns the prediction.
//!
//! Components:
//!
//! * [`protocol`] — the length-prefixed binary wire format;
//! * [`ModelRegistry`] — load-once, share-read-only model store;
//! * [`Executor`] — the compute backend: [`CpuExecutor`] runs real math on
//!   the `tensor` substrate; [`SimGpuExecutor`] runs the same real math for
//!   functional results while *modeling* the latency a K40 would exhibit
//!   (the GPU-hardware substitution, see DESIGN.md §2);
//! * [`InferenceEngine`] — the per-model execution engine: bounded
//!   admission queue (full → `Busy` backpressure), dispatch policy
//!   ([`DispatchPolicy::Immediate`] or [`DispatchPolicy::Batched`] per
//!   §5.1 of the paper), and queue telemetry. [`InferenceEngine::start`]
//!   is its one constructor; the shared [`DeviceScheduler`], the
//!   [`ColocationPolicy`] and the [`InferenceCache`] ride in its
//!   [`EngineConfig`];
//! * [`DjinnServer`]/[`DjinnClient`] — the TCP service and its client.
//!
//! Both network tiers run on one I/O core: a single thread per server or
//! router waits in `poll(2)` for whichever connection is ready, so an idle
//! connection costs a socket and a few buffers, not a thread.
//!
//! # Quickstart
//!
//! ```no_run
//! use djinn::{DjinnServer, DjinnClient, ServerConfig};
//! use tensor::{Tensor, Shape};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut config = ServerConfig::default();
//! config.bind_addr = "127.0.0.1:0".into();
//! let server = DjinnServer::start_with_tonic_models(config)?;
//! let addr = server.local_addr();
//!
//! let mut client = DjinnClient::connect(addr)?;
//! let digit = Tensor::zeros(Shape::nchw(1, 1, 28, 28));
//! let probs = client.infer("dig", &digit)?;
//! assert_eq!(probs.shape().as_matrix().1, 10);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]

mod client;
pub mod device;
mod engine;
mod error;
mod executor;
mod io;
pub mod protocol;
mod registry;
mod router;
mod server;
pub mod trace;
pub mod workload;

pub use client::{DjinnClient, PipelinedResponse, StreamChunk, StreamIter};
pub use device::{ColocationPolicy, ComputeLease, Device, DeviceScheduler};
pub use dnn::cache::{CacheMode, CacheStats, InferenceCache};
pub use engine::{
    BatchConfig, DispatchPolicy, EngineConfig, InferenceEngine, ReplyTo, RoutedReply, Ticket,
    MAX_STREAM_TOKENS,
};
pub use error::DjinnError;
pub use executor::{CpuExecutor, DelayExecutor, Executor, InferenceOutcome, SimGpuExecutor};
pub use protocol::{ModelStats, StreamMode};
pub use registry::ModelRegistry;
pub use router::{DjinnRouter, RouterConfig};
pub use server::{Backend, DjinnServer, ServerConfig};
pub use trace::{EngineSpans, ServerTrace, TraceRecord};

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, DjinnError>;
