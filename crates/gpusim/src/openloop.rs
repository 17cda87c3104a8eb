//! Open-loop arrivals: queries arrive in a Poisson stream, are assembled
//! into batches from the queue, and served by one GPU service instance.
//!
//! The closed-loop engine (`simulate`) measures saturated throughput;
//! this module measures the *latency distribution under a given load* —
//! the quantity a datacenter operator provisions against ("achieving high
//! throughput … while managing query latency", §1). It reproduces the
//! textbook batching trade-off: at low load batches stay small and
//! latency tracks the service time; near saturation, queueing dominates
//! and dynamic batching bends the curve by amortizing work.

use dnn::zoo::App;
use perf::GpuSpec;

use crate::obs::StageSummary;
use crate::queueing::{percentile_sorted, BoundedQueue, LatencyHistogram};
use crate::workload::ServiceWorkload;

/// Latency distribution summary from an open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopResult {
    /// Offered load, queries per second.
    pub offered_qps: f64,
    /// Completed queries per second (equals offered below saturation).
    pub completed_qps: f64,
    /// Mean query latency (arrival → batch completion), seconds.
    pub mean_latency_s: f64,
    /// 50th percentile latency, seconds.
    pub p50_latency_s: f64,
    /// 99th percentile latency, seconds.
    pub p99_latency_s: f64,
    /// Mean assembled batch size.
    pub mean_batch: f64,
    /// Queries shed at admission because the bounded queue was full
    /// (always 0 without a [`OpenLoopConfig::queue_bound`]). This is the
    /// simulation-side mirror of the live server's `Busy` response.
    pub shed_queries: u64,
    /// Whether the queue was still growing when the run ended
    /// (offered load beyond capacity).
    pub saturated: bool,
    /// Queue-wait stage summary (arrival → batch dispatch), in virtual
    /// microseconds — the same [`StageSummary`] the live server reports,
    /// so simulated and measured breakdowns are directly comparable.
    pub queue_wait: StageSummary,
    /// Service stage summary (batch dispatch → completion), in virtual
    /// microseconds.
    pub service: StageSummary,
}

/// Configuration of an open-loop experiment.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Device executing the batches.
    pub gpu: GpuSpec,
    /// Largest batch the server will assemble (Table 3 column).
    pub max_batch: usize,
    /// Admission-queue bound: arrivals beyond this many queued queries
    /// are shed (the live engine's `Busy` backpressure). `None` models
    /// the unbounded queue of the original paper setup.
    pub queue_bound: Option<usize>,
    /// Number of query arrivals to simulate.
    pub queries: usize,
    /// RNG seed for the Poisson arrival process.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            gpu: GpuSpec::k40(),
            max_batch: 16,
            queue_bound: None,
            queries: 2000,
            seed: 0xD1_07,
        }
    }
}

/// Runs the open-loop batching queue for `app` at `offered_qps`.
///
/// Service times come from the calibrated per-batch GPU timings plus the
/// PCIe transfer for each batch. Batches are assembled greedily: when the
/// server goes idle it takes `min(queue, max_batch)` queries.
///
/// # Errors
///
/// Propagates workload-construction failures.
///
/// # Panics
///
/// Panics if `offered_qps` is not positive or `queries` is zero.
pub fn run(app: App, offered_qps: f64, config: &OpenLoopConfig) -> dnn::Result<OpenLoopResult> {
    assert!(offered_qps > 0.0, "offered_qps must be positive");
    assert!(config.queries > 0, "need at least one query");
    // Pre-compute service times for every batch size we may assemble.
    let mut service_s = vec![0.0f64; config.max_batch + 1];
    for (b, slot) in service_s.iter_mut().enumerate().skip(1) {
        let w = ServiceWorkload::for_app(&config.gpu, app, b)?;
        *slot = w.gpu_alone_s()
            + (w.h2d_bytes + w.d2h_bytes) / (config.gpu.pcie_gbps * 1e9)
            + w.host_prep_s;
    }

    // Poisson arrivals.
    let mut state = config.seed;
    let mut arrivals = Vec::with_capacity(config.queries);
    let mut t = 0.0f64;
    for _ in 0..config.queries {
        // In [1e-12, 1): the logarithm below stays finite.
        let u = 1e-12 + (1.0 - 1e-12) * tensor::splitmix64_unit(&mut state);
        t += -u.ln() / offered_qps;
        arrivals.push(t);
    }

    // Single-server batching queue — the same bounded-admission +
    // greedy-assembly discipline the live `djinn` engine runs, driven in
    // virtual time. The queue holds arrival timestamps.
    let mut queue = BoundedQueue::new(config.queue_bound.unwrap_or(usize::MAX - 1));
    let mut latencies = Vec::with_capacity(config.queries);
    let mut queue_hist = LatencyHistogram::new();
    let mut service_hist = LatencyHistogram::new();
    let mut server_free_at = 0.0f64;
    let mut next = 0usize;
    let mut batches = 0usize;
    while next < arrivals.len() || !queue.is_empty() {
        // Server becomes available; arrivals up to that instant queue
        // (or are shed, when the bound is hit).
        let start = if queue.is_empty() {
            server_free_at.max(arrivals[next])
        } else {
            server_free_at
        };
        while next < arrivals.len() && arrivals[next] <= start {
            let _ = queue.offer(arrivals[next]);
            next += 1;
        }
        let batch = queue.assemble(config.max_batch, |_| 1);
        let service = service_s[batch.len()];
        let done = start + service;
        for arr in batch {
            latencies.push(done - arr);
            // Stage attribution in virtual time: queued until the batch
            // dispatched, then the batch's service time.
            queue_hist.record(((start - arr) * 1e6) as u64);
            service_hist.record((service * 1e6) as u64);
        }
        batches += 1;
        server_free_at = done;
    }

    let elapsed = server_free_at.max(*arrivals.last().expect("non-empty"));
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    // Saturated if the last query waited far longer than the first ones:
    // the queue grows without bound beyond capacity.
    let saturated = server_free_at > arrivals.last().unwrap() + 20.0 * service_s[1];
    Ok(OpenLoopResult {
        offered_qps,
        completed_qps: latencies.len() as f64 / elapsed,
        mean_latency_s: mean,
        p50_latency_s: percentile_sorted(&sorted, 0.50),
        p99_latency_s: percentile_sorted(&sorted, 0.99),
        mean_batch: latencies.len() as f64 / batches as f64,
        shed_queries: queue.shed_count(),
        saturated,
        queue_wait: StageSummary::of(&queue_hist),
        service: StageSummary::of(&service_hist),
    })
}

/// The maximum sustainable query rate for `app` with batches of
/// `max_batch` (the knee of the latency curve).
///
/// # Errors
///
/// Propagates workload-construction failures.
pub fn capacity_qps(app: App, config: &OpenLoopConfig) -> dnn::Result<f64> {
    let w = ServiceWorkload::for_app(&config.gpu, app, config.max_batch)?;
    let per_batch = w.gpu_alone_s()
        + (w.h2d_bytes + w.d2h_bytes) / (config.gpu.pcie_gbps * 1e9)
        + w.host_prep_s;
    Ok(config.max_batch as f64 / per_batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_batch: usize) -> OpenLoopConfig {
        OpenLoopConfig {
            max_batch,
            queries: 3000,
            ..OpenLoopConfig::default()
        }
    }

    #[test]
    fn latency_rises_with_load() {
        let app = App::Pos;
        let config = cfg(64);
        let cap = capacity_qps(app, &config).unwrap();
        let low = run(app, cap * 0.2, &config).unwrap();
        let high = run(app, cap * 0.9, &config).unwrap();
        assert!(high.mean_latency_s > low.mean_latency_s);
        assert!(!low.saturated);
    }

    #[test]
    fn p99_dominates_p50_dominates_nothing() {
        let config = cfg(16);
        let cap = capacity_qps(App::Dig, &config).unwrap();
        let r = run(App::Dig, cap * 0.7, &config).unwrap();
        assert!(r.p99_latency_s >= r.p50_latency_s);
        assert!(r.mean_latency_s > 0.0);
    }

    #[test]
    fn beyond_capacity_the_queue_saturates() {
        let config = cfg(16);
        let cap = capacity_qps(App::Imc, &config).unwrap();
        let r = run(App::Imc, cap * 2.0, &config).unwrap();
        assert!(r.saturated, "2x capacity did not saturate");
        assert!(r.completed_qps < cap * 1.1);
    }

    #[test]
    fn batching_extends_capacity() {
        // The §5.1 effect as a queueing statement: larger max batches
        // sustain higher NLP query rates.
        let cap1 = capacity_qps(App::Pos, &cfg(1)).unwrap();
        let cap64 = capacity_qps(App::Pos, &cfg(64)).unwrap();
        assert!(
            cap64 > cap1 * 8.0,
            "batch-64 capacity {cap64} vs batch-1 {cap1}"
        );
    }

    #[test]
    fn batches_grow_under_load() {
        let config = cfg(64);
        let cap = capacity_qps(App::Pos, &config).unwrap();
        let light = run(App::Pos, cap * 0.05, &config).unwrap();
        let heavy = run(App::Pos, cap * 0.9, &config).unwrap();
        assert!(heavy.mean_batch > light.mean_batch * 2.0);
    }

    #[test]
    fn bounded_queue_sheds_and_bounds_latency_under_overload() {
        // With an admission bound the simulator mirrors the live engine's
        // `Busy` shedding: overload costs shed queries, not unbounded p99.
        let bounded = OpenLoopConfig {
            queue_bound: Some(32),
            ..cfg(16)
        };
        let unbounded = cfg(16);
        let cap = capacity_qps(App::Imc, &bounded).unwrap();
        let b = run(App::Imc, cap * 2.0, &bounded).unwrap();
        let u = run(App::Imc, cap * 2.0, &unbounded).unwrap();
        assert!(b.shed_queries > 0, "no sheds at 2x capacity");
        assert_eq!(u.shed_queries, 0);
        assert!(u.saturated);
        assert!(
            b.p99_latency_s < u.p99_latency_s,
            "bounded p99 {} not below unbounded p99 {}",
            b.p99_latency_s,
            u.p99_latency_s
        );
    }

    #[test]
    fn stage_breakdown_matches_completed_queries() {
        let config = cfg(16);
        let cap = capacity_qps(App::Dig, &config).unwrap();
        let r = run(App::Dig, cap * 0.7, &config).unwrap();
        // Every completed query contributed one sample to each stage.
        assert_eq!(r.queue_wait.count, r.service.count);
        assert!(r.queue_wait.count > 0);
        assert!(r.service.p50_us > 0, "service time cannot be zero");
        // Stage quantiles stay ordered and bounded by the end-to-end p99.
        assert!(r.queue_wait.p50_us <= r.queue_wait.p99_us);
        let p99_total_us = (r.p99_latency_s * 1e6) as u64;
        assert!(r.service.p50_us <= p99_total_us);
    }

    #[test]
    fn results_are_deterministic() {
        let config = cfg(16);
        let a = run(App::Dig, 500.0, &config).unwrap();
        let b = run(App::Dig, 500.0, &config).unwrap();
        assert_eq!(a, b);
        // The arrival stream, pinned: the exact results its 3000 draws give.
        let bits = [
            a.completed_qps,
            a.mean_latency_s,
            a.p50_latency_s,
            a.p99_latency_s,
            a.mean_batch,
        ]
        .map(f64::to_bits);
        assert_eq!(
            bits,
            [
                0x407f872ef3ff2a15,
                0x3f4293fed4448242,
                0x3f4041b19a204000,
                0x3f525260c9802800,
                0x3ff0748c11338415,
            ]
        );
    }
}
