//! Compute backends for the service.
//!
//! Both executors produce *real* predictions with real math on the
//! `tensor` substrate. They differ in the latency they report:
//! [`CpuExecutor`] reports measured wall-clock time (it *is* the CPU
//! baseline), while [`SimGpuExecutor`] reports the latency the paper's
//! K40 would exhibit for the same forward pass, taken from the calibrated
//! `perf` model — the GPU-hardware substitution of DESIGN.md §2.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dnn::cache::EmbedCache;
use dnn::profile::WorkloadProfile;
use dnn::Network;
use perf::GpuSpec;
use tensor::{Tensor, Threading};

use crate::Result;

/// The result of one inference call.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceOutcome {
    /// The network output (softmax scores or logits, batched like the
    /// input).
    pub output: Tensor,
    /// The device latency attributed to the forward pass: measured for the
    /// CPU backend, modeled for the simulated-GPU backend.
    pub device_latency: Duration,
}

/// A compute backend executing forward passes.
///
/// Implementations must be thread-safe: the engines' dispatch threads,
/// one per model, call [`Executor::infer`] concurrently against shared
/// read-only models.
pub trait Executor: Send + Sync {
    /// Runs the forward pass of `network` on `input`.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches and layer failures.
    fn infer(&self, network: &Arc<Network>, input: &Tensor) -> Result<InferenceOutcome>;

    /// Runs the forward pass under an externally granted thread `budget`
    /// (a device-scheduler lease), with an optional embedding-layer cache
    /// to consult/populate. Backends that spend host threads cap their
    /// configured parallelism at the budget, and those that run the real
    /// layer stack on the host route through
    /// [`Network::forward_embed_cached`]; backends that do neither
    /// (modeled GPU, test doubles) ignore both — the default does.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches and layer failures.
    fn infer_budgeted_cached(
        &self,
        network: &Arc<Network>,
        input: &Tensor,
        budget: Threading,
        embed: Option<&EmbedCache>,
    ) -> Result<InferenceOutcome> {
        let _ = (budget, embed);
        self.infer(network, input)
    }

    /// Host threads this backend would like for a `batch`-item call —
    /// what an engine asks the device scheduler for. Backends without
    /// host-thread parallelism want one.
    fn preferred_threads(&self, batch: usize) -> usize {
        let _ = batch;
        1
    }

    /// Short backend name for logs and stats.
    fn backend_name(&self) -> &'static str;
}

/// Executes on the host CPU (the paper's Caffe+ATLAS baseline).
///
/// Defaults to sequential execution; [`CpuExecutor::new`] takes a
/// [`Threading`] budget that each inference spends either by sharding
/// the batch across threads or by threading inside each layer's GEMM,
/// whichever suits the model (see [`CpuExecutor::infer`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuExecutor {
    threading: Threading,
}

impl CpuExecutor {
    /// A CPU executor spending `threading` worker threads per inference.
    pub fn new(threading: Threading) -> Self {
        CpuExecutor { threading }
    }

    /// The configured per-inference thread budget.
    pub fn threading(&self) -> Threading {
        self.threading
    }

    /// Whether batch sharding beats intra-layer threading for this call.
    ///
    /// Sharding wins when the batch is wide relative to the thread count
    /// (each worker gets a meaningful sub-batch) and the model's biggest
    /// GEMM is skinny — the SENNA profile, where per-item matrices are
    /// too small to split internally. Fat-GEMM models (AlexNet, Kaldi)
    /// keep the budget inside the layer where the packed GEMM splits row
    /// strips.
    fn prefer_sharding(network: &Network, batch: usize, threads: usize) -> bool {
        if batch < 2 * threads {
            return false;
        }
        match WorkloadProfile::of(network.def(), batch) {
            // Treat anything smaller than one packed L2 block per thread
            // as skinny: a 256x256-ish GEMM saturates one core's blocking
            // but leaves nothing to split.
            Ok(p) => match p.largest_gemm() {
                Some((m, n, k)) => m * n * k < threads * 256 * 256 * 256,
                None => true,
            },
            Err(_) => false,
        }
    }
}

impl CpuExecutor {
    fn infer_with(
        &self,
        network: &Arc<Network>,
        input: &Tensor,
        threading: Threading,
    ) -> Result<InferenceOutcome> {
        let start = Instant::now();
        let output = if !threading.is_parallel() {
            network.forward(input)?
        } else if Self::prefer_sharding(network, input.shape().batch(), threading.threads) {
            network.forward_sharded(input, threading)?
        } else {
            network.forward_with(input, threading)?
        };
        Ok(InferenceOutcome {
            output,
            device_latency: start.elapsed(),
        })
    }
}

impl Executor for CpuExecutor {
    fn infer(&self, network: &Arc<Network>, input: &Tensor) -> Result<InferenceOutcome> {
        self.infer_with(network, input, self.threading)
    }

    fn infer_budgeted_cached(
        &self,
        network: &Arc<Network>,
        input: &Tensor,
        budget: Threading,
        embed: Option<&EmbedCache>,
    ) -> Result<InferenceOutcome> {
        // A lease can shrink the configured budget, never grow it. The
        // tensor kernels are bitwise-identical at any thread count, so a
        // partial grant only changes timing, not outputs.
        let threading = self.threading.min(budget);
        let Some(cache) = embed else {
            return self.infer_with(network, input, threading);
        };
        // The prefix runs only the request's cold rows, as one batch;
        // every layer honors the lease budget.
        let start = Instant::now();
        let output = network.forward_embed_cached(input, cache, threading)?;
        Ok(InferenceOutcome {
            output,
            device_latency: start.elapsed(),
        })
    }

    fn preferred_threads(&self, _batch: usize) -> usize {
        self.threading.threads
    }

    fn backend_name(&self) -> &'static str {
        "cpu"
    }
}

/// Executes the same real math as [`CpuExecutor`] but attributes the
/// latency a K40 running the equivalent cuDNN kernels would take.
#[derive(Debug, Clone)]
pub struct SimGpuExecutor {
    gpu: GpuSpec,
}

impl SimGpuExecutor {
    /// Creates a simulated-GPU executor for the given device.
    pub fn new(gpu: GpuSpec) -> Self {
        SimGpuExecutor { gpu }
    }

    /// The simulated device.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Models the forward latency for `network` at `batch` input items
    /// without executing any math (used by benchmarks that only need
    /// timing).
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures.
    pub fn modeled_latency(&self, network: &Network, batch: usize) -> Result<Duration> {
        let profile = WorkloadProfile::of(network.def(), batch)?;
        let timing = perf::gpu_forward(&self.gpu, &profile);
        Ok(Duration::from_secs_f64(timing.seconds))
    }
}

impl Default for SimGpuExecutor {
    fn default() -> Self {
        SimGpuExecutor::new(GpuSpec::k40())
    }
}

impl Executor for SimGpuExecutor {
    fn infer(&self, network: &Arc<Network>, input: &Tensor) -> Result<InferenceOutcome> {
        let output = network.forward(input)?;
        let device_latency = self.modeled_latency(network, input.shape().batch())?;
        Ok(InferenceOutcome {
            output,
            device_latency,
        })
    }

    fn backend_name(&self) -> &'static str {
        "sim-gpu"
    }
}

/// Wraps another executor and *occupies the worker* for an extra
/// duration on every call, modeling a device-bound backend: a replica
/// whose service time is dominated by an accelerator (or a remote
/// device) the host merely feeds.
///
/// Scale-out experiments need this on machines with fewer cores than
/// replicas: with a purely CPU-bound backend, N colocated replicas
/// contend for the same cycles and adding replicas cannot raise
/// aggregate throughput, which says something about the host, not about
/// the serving tier under test. A sleep-bound service time makes each
/// replica's capacity one dispatch per `delay` per model, each carrying
/// what was queued, regardless of colocated neighbors, so router
/// experiments measure tier behavior (balancing, queueing, shedding)
/// rather than host contention. The sleep is added
/// to the reported device latency, keeping traces consistent with the
/// modeled device.
///
/// # Delay semantics under batching
///
/// A call's added delay is `base + per_item × batch`, where `batch` is
/// the input's leading (N) dimension:
///
/// * `base` is paid **once per dispatch**, regardless of batch size —
///   kernel-launch / transfer / framework overhead. This is what makes
///   batching profitable: a batch of 8 pays one base, eight singles pay
///   eight.
/// * `per_item` scales **linearly with the items in the batch** — the
///   per-sample compute a bigger batch cannot amortize away.
///
/// [`DelayExecutor::new`] sets only `base` (the historical behavior of
/// `--service-delay-us`, under which a batched call and a single call
/// cost the same — accurate for launch-bound devices, but it makes
/// batching look free). [`DelayExecutor::with_per_item`] sets both terms
/// explicitly; `tests/colocation.rs` uses it to give two models on one
/// shared device a dispatch cost that batching amortizes.
#[derive(Debug, Clone)]
pub struct DelayExecutor<E> {
    inner: E,
    base: Duration,
    per_item: Duration,
}

impl<E> DelayExecutor<E> {
    /// Wraps `inner`, holding each dispatch for an extra `delay`
    /// (per-dispatch base only; no per-item term).
    pub fn new(inner: E, delay: Duration) -> Self {
        DelayExecutor {
            inner,
            base: delay,
            per_item: Duration::ZERO,
        }
    }

    /// Wraps `inner` with an explicit per-dispatch `base` and a
    /// `per_item` term paid for every item in the batch.
    pub fn with_per_item(inner: E, base: Duration, per_item: Duration) -> Self {
        DelayExecutor {
            inner,
            base,
            per_item,
        }
    }

    /// The total delay a `batch`-item dispatch incurs.
    pub fn delay_for_batch(&self, batch: usize) -> Duration {
        self.base + self.per_item * batch.max(1) as u32
    }
}

impl<E: Executor> Executor for DelayExecutor<E> {
    fn infer(&self, network: &Arc<Network>, input: &Tensor) -> Result<InferenceOutcome> {
        let delay = self.delay_for_batch(input.shape().batch());
        std::thread::sleep(delay);
        let mut outcome = self.inner.infer(network, input)?;
        outcome.device_latency += delay;
        Ok(outcome)
    }

    fn infer_budgeted_cached(
        &self,
        network: &Arc<Network>,
        input: &Tensor,
        budget: Threading,
        embed: Option<&EmbedCache>,
    ) -> Result<InferenceOutcome> {
        let delay = self.delay_for_batch(input.shape().batch());
        std::thread::sleep(delay);
        let mut outcome = self
            .inner
            .infer_budgeted_cached(network, input, budget, embed)?;
        outcome.device_latency += delay;
        Ok(outcome)
    }

    fn preferred_threads(&self, batch: usize) -> usize {
        self.inner.preferred_threads(batch)
    }

    fn backend_name(&self) -> &'static str {
        "delayed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::zoo::App;
    use tensor::Shape;

    fn mnist() -> Arc<Network> {
        Arc::new(dnn::zoo::network(App::Dig).unwrap())
    }

    #[test]
    fn both_backends_agree_on_outputs() {
        let net = mnist();
        let input = Tensor::random_uniform(Shape::nchw(2, 1, 28, 28), 1.0, 3);
        let cpu = CpuExecutor::default().infer(&net, &input).unwrap();
        let gpu = SimGpuExecutor::default().infer(&net, &input).unwrap();
        assert_eq!(cpu.output, gpu.output);
    }

    #[test]
    fn sim_gpu_latency_is_modeled_not_measured() {
        let net = mnist();
        let d1 = SimGpuExecutor::default().modeled_latency(&net, 1).unwrap();
        let d2 = SimGpuExecutor::default().modeled_latency(&net, 1).unwrap();
        assert_eq!(d1, d2, "modeled latency must be deterministic");
        assert!(d1 > Duration::ZERO);
    }

    #[test]
    fn modeled_latency_grows_sublinearly_with_batch() {
        // The whole point of batching: 16x the work costs far less than
        // 16x the time.
        let net = mnist();
        let exec = SimGpuExecutor::default();
        let b1 = exec.modeled_latency(&net, 100).unwrap();
        let b16 = exec.modeled_latency(&net, 1600).unwrap();
        assert!(b16 < b1 * 16);
        assert!(b16 > b1);
    }

    #[test]
    fn cpu_latency_is_positive() {
        let net = mnist();
        let input = Tensor::zeros(Shape::nchw(1, 1, 28, 28));
        let out = CpuExecutor::default().infer(&net, &input).unwrap();
        assert!(out.device_latency > Duration::ZERO);
        assert_eq!(out.output.shape().dims(), &[1, 10]);
    }

    #[test]
    fn threaded_cpu_executor_matches_serial() {
        let net = mnist();
        let input = Tensor::random_uniform(Shape::nchw(4, 1, 28, 28), 1.0, 8);
        let serial = CpuExecutor::default().infer(&net, &input).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [2usize, 4] {
            let par = CpuExecutor::new(Threading::new(threads))
                .infer(&net, &input)
                .unwrap();
            assert_eq!(bits(&par.output), bits(&serial.output), "threads={threads}");
        }
    }

    #[test]
    fn sharding_heuristic_picks_by_gemm_shape() {
        // SENNA (skinny per-item GEMMs, wide batch) shards; Kaldi at the
        // same batch has 2048x3500-class GEMMs worth splitting in-layer.
        let pos = dnn::zoo::network(App::Pos).unwrap();
        assert!(CpuExecutor::prefer_sharding(&pos, 64, 4));
        let asr = dnn::zoo::network(App::Asr).unwrap();
        assert!(!CpuExecutor::prefer_sharding(&asr, 64, 4));
        // Narrow batches never shard: workers would idle.
        assert!(!CpuExecutor::prefer_sharding(&pos, 4, 4));
    }

    #[test]
    fn sharding_batch_width_boundary_is_exactly_two_per_thread() {
        // The batch gate is `batch >= 2 * threads`: each worker must get
        // at least two items before splitting the batch pays. Probe the
        // boundary on a model whose GEMMs are always skinny enough.
        let pos = dnn::zoo::network(App::Pos).unwrap();
        for threads in [1usize, 2, 3, 4, 8] {
            let at = 2 * threads;
            assert!(
                CpuExecutor::prefer_sharding(&pos, at, threads),
                "batch {at} == 2x{threads} must shard"
            );
            assert!(
                !CpuExecutor::prefer_sharding(&pos, at - 1, threads),
                "batch {} < 2x{threads} must not shard",
                at - 1
            );
        }
    }

    #[test]
    fn sharding_gemm_cutoff_scales_with_thread_count() {
        // The GEMM gate is `m*n*k < threads * 256^3`: a model that is
        // "fat" for few threads becomes shard-worthy once enough threads
        // share it. Kaldi's largest GEMM at batch `b` is (b, 3482, 2048):
        // per the cutoff, threads=4 needs b*3482*2048 >= 4*256^3 i.e.
        // b >= ~9.4 to stay in-layer, so a wide batch stays in-layer and
        // the same shapes shard once the product dips under the line.
        let asr = dnn::zoo::network(App::Asr).unwrap();
        let gemm = |batch: usize| {
            use dnn::profile::WorkloadProfile;
            WorkloadProfile::of(asr.def(), batch)
                .unwrap()
                .largest_gemm()
                .unwrap()
        };
        for threads in [2usize, 4] {
            let cutoff = threads * 256 * 256 * 256;
            // Find batches on each side of the cutoff that still pass
            // the width gate, and check the heuristic follows the line.
            for batch in (2 * threads)..=64 {
                let (m, n, k) = gemm(batch);
                let expect = m * n * k < cutoff;
                assert_eq!(
                    CpuExecutor::prefer_sharding(&asr, batch, threads),
                    expect,
                    "batch {batch}, threads {threads}: gemm {m}x{n}x{k} vs cutoff {cutoff}"
                );
            }
        }
    }

    #[test]
    fn budgeted_inference_caps_threads_and_matches_serial_bitwise() {
        // A lease can only shrink the configured budget, and any grant
        // must stay bitwise-equal to sequential execution.
        let net = mnist();
        let input = Tensor::random_uniform(Shape::nchw(6, 1, 28, 28), 1.0, 11);
        let serial = CpuExecutor::default().infer(&net, &input).unwrap();
        let exec = CpuExecutor::new(Threading::new(4));
        for grant in [1usize, 2, 3, 8] {
            let out = exec
                .infer_budgeted_cached(&net, &input, Threading::new(grant), None)
                .unwrap();
            assert_eq!(
                out.output, serial.output,
                "grant {grant} must be bitwise-equal to serial"
            );
        }
        assert_eq!(exec.preferred_threads(32), 4);
    }

    #[test]
    fn delay_executor_scales_per_item_with_batch() {
        // Per-dispatch base is paid once; per-item scales with N. A
        // batch of 4 with base=6ms, per_item=2ms costs 6+4*2 = 14ms,
        // where four singles would cost 4*(6+2) = 32ms — the
        // amortization batching is supposed to buy.
        let exec = DelayExecutor::with_per_item(
            CpuExecutor::default(),
            Duration::from_millis(6),
            Duration::from_millis(2),
        );
        assert_eq!(exec.delay_for_batch(1), Duration::from_millis(8));
        assert_eq!(exec.delay_for_batch(4), Duration::from_millis(14));
        // Degenerate zero-batch counts as one item.
        assert_eq!(exec.delay_for_batch(0), Duration::from_millis(8));

        let net = mnist();
        let batched = Tensor::random_uniform(Shape::nchw(4, 1, 28, 28), 1.0, 2);
        let start = Instant::now();
        let out = exec.infer(&net, &batched).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(14));
        assert!(out.device_latency >= Duration::from_millis(14));

        // `new` keeps the historical per-dispatch-only semantics.
        let flat = DelayExecutor::new(CpuExecutor::default(), Duration::from_millis(5));
        assert_eq!(flat.delay_for_batch(1), flat.delay_for_batch(16));
    }

    #[test]
    fn executors_are_object_safe() {
        let backends: Vec<Box<dyn Executor>> = vec![
            Box::new(CpuExecutor::default()),
            Box::new(SimGpuExecutor::default()),
        ];
        assert_eq!(backends[0].backend_name(), "cpu");
        assert_eq!(backends[1].backend_name(), "sim-gpu");
    }

    #[test]
    fn delay_executor_holds_the_call_and_attributes_the_delay() {
        let net = mnist();
        let input = Tensor::random_uniform(Shape::nchw(1, 1, 28, 28), 1.0, 5);
        let plain = CpuExecutor::default().infer(&net, &input).unwrap();
        let delay = Duration::from_millis(20);
        let delayed = DelayExecutor::new(CpuExecutor::default(), delay);
        let start = Instant::now();
        let out = delayed.infer(&net, &input).unwrap();
        assert!(start.elapsed() >= delay, "the worker must be occupied");
        assert_eq!(out.output, plain.output, "delay must not change math");
        assert!(out.device_latency >= delay);
        assert_eq!(delayed.backend_name(), "delayed");
    }
}
