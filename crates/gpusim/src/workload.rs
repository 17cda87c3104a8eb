//! Service workloads: what one DNN service instance repeatedly executes.

use dnn::profile::WorkloadProfile;
use dnn::zoo::{self, App};
use perf::{gpu_forward, GpuSpec, KernelTiming};

/// Host-side fixed overhead per batch (request handling, batch assembly,
/// staging buffers) — seconds.
const HOST_FIXED_S: f64 = 150e-6;
/// Host staging bandwidth for building the batched input (GB/s).
const HOST_STAGING_GBPS: f64 = 20.0;

/// Everything a simulated service instance does per batch: host-side prep,
/// an H2D transfer, a fixed kernel sequence, and a D2H transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceWorkload {
    /// Display name (e.g. `POS@64`).
    pub name: String,
    /// Per-kernel alone-timings, in launch order.
    pub kernels: Vec<KernelTiming>,
    /// Bytes moved host→device per batch (batched query payloads; uses the
    /// paper's measured Table 3 payload sizes, which include protocol
    /// serialization overhead).
    pub h2d_bytes: f64,
    /// Bytes moved device→host per batch (DNN output tensors).
    pub d2h_bytes: f64,
    /// Host-side prep time per batch, seconds.
    pub host_prep_s: f64,
    /// Queries folded into one batch.
    pub queries_per_batch: usize,
}

impl ServiceWorkload {
    /// Builds the workload for one Tonic application at a given query batch
    /// size, timing its kernels on `gpu`.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures (none occur for zoo networks).
    pub fn for_app(gpu: &GpuSpec, app: App, batch_queries: usize) -> dnn::Result<Self> {
        let meta = app.service_meta();
        let def = zoo::netdef(app);
        let items = meta.inputs_per_query * batch_queries;
        let profile = WorkloadProfile::of(&def, items)?;
        let timing = gpu_forward(gpu, &profile);
        let h2d_bytes = meta.input_bytes() * batch_queries as f64;
        let d2h_bytes = profile.output_bytes;
        let host_prep_s = HOST_FIXED_S + h2d_bytes / (HOST_STAGING_GBPS * 1e9);
        Ok(ServiceWorkload {
            name: format!("{}@{}", app.name(), batch_queries),
            kernels: timing.kernels,
            h2d_bytes,
            d2h_bytes,
            host_prep_s,
            queries_per_batch: batch_queries,
        })
    }

    /// Sum of the kernels' alone-times — the batch's GPU time with no
    /// co-runners.
    pub fn gpu_alone_s(&self) -> f64 {
        self.kernels.iter().map(|k| k.seconds).sum()
    }

    /// Strips all host interaction (prep + transfers): the paper's
    /// "pinned input" configuration used for Fig 12.
    pub fn pinned(mut self) -> Self {
        self.h2d_bytes = 0.0;
        self.d2h_bytes = 0.0;
        self.host_prep_s = 0.0;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_scales_with_batch() {
        let gpu = GpuSpec::k40();
        let w1 = ServiceWorkload::for_app(&gpu, App::Pos, 1).unwrap();
        let w64 = ServiceWorkload::for_app(&gpu, App::Pos, 64).unwrap();
        assert!(w64.h2d_bytes > w1.h2d_bytes * 60.0);
        assert!(w64.gpu_alone_s() > w1.gpu_alone_s());
        // Batched GPU time per query must be far lower (Fig 7a).
        assert!(w64.gpu_alone_s() / 64.0 < w1.gpu_alone_s() / 4.0);
    }

    #[test]
    fn h2d_uses_table3_payloads() {
        let gpu = GpuSpec::k40();
        let w = ServiceWorkload::for_app(&gpu, App::Imc, 1).unwrap();
        assert!((w.h2d_bytes - 604.0 * 1024.0).abs() < 1.0);
    }

    #[test]
    fn pinned_strips_host_interaction() {
        let gpu = GpuSpec::k40();
        let w = ServiceWorkload::for_app(&gpu, App::Asr, 2)
            .unwrap()
            .pinned();
        assert_eq!(w.h2d_bytes, 0.0);
        assert_eq!(w.d2h_bytes, 0.0);
        assert_eq!(w.host_prep_s, 0.0);
        assert!(w.gpu_alone_s() > 0.0);
    }
}
