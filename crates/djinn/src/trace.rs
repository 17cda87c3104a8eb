//! End-to-end request tracing: one u64 request ID per request, span
//! marks at every pipeline stage, and a per-request latency breakdown.
//!
//! # The trace model
//!
//! A request ID is assigned **at the client** (see [`next_request_id`])
//! and travels with the request through the protocol, the server, and
//! the engine; the response echoes it together with the server-side span
//! durations. IDs are client-scoped — two clients may reuse an ID, and
//! the server never interprets them beyond echoing.
//!
//! Span marks, in pipeline order:
//!
//! ```text
//! client-send → server-read → admission → queue-exit → batch-formed
//!            → executor-start → executor-end → response-write → client-recv
//! ```
//!
//! # Clock domains
//!
//! Client and server run on *different monotonic clocks*; absolute
//! timestamps cannot be compared across the wire. Every cross-machine
//! quantity is therefore a **duration measured in one clock domain**:
//! the server reports `queue`, `batch`, `service`, and `server_total`
//! (server-read → response-encode) in its own clock; the client measures
//! end-to-end latency in its clock and derives
//! `wire = e2e − server_total` — the request/response serialization,
//! network transit, and framing the server cannot see. The residual
//! `server_total − (queue + batch + service)` is server overhead outside
//! the engine (decode, admission, batch scatter) and is reported as
//! [`TraceRecord::server_other_us`].

use std::sync::atomic::{AtomicU64, Ordering};

pub use gpusim::obs::{BreakdownTable, Stage, StageSummary};
use gpusim::queueing::LatencyHistogram;

/// Process-wide request-ID source. IDs are unique within the process and
/// strictly positive (0 is reserved on the wire for an error answering a
/// frame whose ID could not be read).
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Draws the next client-assigned request ID.
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// Span durations the engine measures for one admitted job, microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineSpans {
    /// Admission → queue-exit: time in the bounded admission queue.
    pub queue_us: u64,
    /// Queue-exit → executor-start: batch coalescing wait plus input
    /// stacking (0-ish for [`crate::DispatchPolicy::Immediate`]).
    pub batch_us: u64,
    /// Time the dispatch blocked acquiring its device lease from the
    /// shared-device scheduler. Zero on a dedicated (unshared) device.
    pub lease_us: u64,
    /// Executor-start → executor-end: forward-pass wall time. On the
    /// sim-GPU backend this is the *wall* time of the real math, not the
    /// modeled device latency — traces account real elapsed time.
    pub service_us: u64,
    /// Whether the exact-match inference cache answered this request. A
    /// hit short-circuits admission, so every span above is ~0: the
    /// request never queued, never leased the device, never ran the
    /// forward pass.
    pub cache_hit: bool,
    /// Admission → first emitted chunk, microseconds. 0 for one-shot
    /// requests (which have no "first token" distinct from the whole
    /// response).
    pub first_token_us: u64,
    /// Chunks (tokens / partial hypotheses) this job emitted. 0 for
    /// one-shot requests.
    pub tokens: u64,
}

/// The server-side trace slice of one request, echoed in its response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerTrace {
    /// Client-assigned request ID, echoed back.
    pub request_id: u64,
    /// Engine queue wait, microseconds.
    pub queue_us: u64,
    /// Batch coalescing wait, microseconds.
    pub batch_us: u64,
    /// Device-lease wait, microseconds (0 on a dedicated device).
    pub lease_us: u64,
    /// Forward-pass wall time, microseconds.
    pub service_us: u64,
    /// Server-read → response-encode, microseconds: everything the
    /// server's clock can attribute to this request.
    pub server_total_us: u64,
    /// Whether the inference cache answered this request.
    pub cache_hit: bool,
    /// Admission → first emitted chunk of a streaming request,
    /// microseconds (0 for one-shot requests).
    pub first_token_us: u64,
    /// Chunks the stream emitted so far — on the final chunk, the
    /// stream's total (0 for one-shot requests).
    pub tokens: u64,
}

impl ServerTrace {
    /// Builds the wire trace from engine spans plus the connection-level
    /// total.
    pub fn new(request_id: u64, spans: EngineSpans, server_total_us: u64) -> Self {
        ServerTrace {
            request_id,
            queue_us: spans.queue_us,
            batch_us: spans.batch_us,
            lease_us: spans.lease_us,
            service_us: spans.service_us,
            server_total_us,
            cache_hit: spans.cache_hit,
            first_token_us: spans.first_token_us,
            tokens: spans.tokens,
        }
    }
}

/// A complete per-request trace record, assembled at the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Client-assigned request ID (stable across Busy retries).
    pub request_id: u64,
    /// Model the request targeted.
    pub model: String,
    /// Client-send → client-recv, microseconds.
    pub e2e_us: u64,
    /// Engine queue wait, microseconds (server clock).
    pub queue_us: u64,
    /// Batch coalescing wait, microseconds (server clock).
    pub batch_us: u64,
    /// Device-lease wait, microseconds (server clock; 0 on a dedicated
    /// device).
    pub lease_us: u64,
    /// Forward-pass wall time, microseconds (server clock).
    pub service_us: u64,
    /// Server-read → response-encode, microseconds (server clock).
    pub server_total_us: u64,
    /// `Busy` replies absorbed before this request succeeded (filled by
    /// retrying callers; the retried request keeps its ID, so the trace
    /// stays one record).
    pub busy_retries: u32,
    /// Bytes this request put on the wire: request frame + response
    /// frame, length prefixes included (0 when the transport did not
    /// report sizes — e.g. records assembled outside `DjinnClient`).
    pub wire_bytes: u64,
    /// Whether the server's inference cache answered this request — the
    /// `cache` trace disposition. A hit legitimately reports ~zero
    /// queue/lease/service.
    pub cache_hit: bool,
    /// Admission → first chunk for streaming requests, microseconds
    /// (server clock; 0 for one-shot requests).
    pub first_token_us: u64,
    /// Chunks the stream delivered (0 for one-shot requests).
    pub tokens: u64,
}

impl TraceRecord {
    /// Assembles the record from the client-measured end-to-end latency
    /// and the server's echoed trace.
    pub fn new(model: impl Into<String>, e2e_us: u64, server: ServerTrace) -> Self {
        TraceRecord {
            request_id: server.request_id,
            model: model.into(),
            e2e_us,
            queue_us: server.queue_us,
            batch_us: server.batch_us,
            lease_us: server.lease_us,
            service_us: server.service_us,
            server_total_us: server.server_total_us,
            busy_retries: 0,
            wire_bytes: 0,
            cache_hit: server.cache_hit,
            first_token_us: server.first_token_us,
            tokens: server.tokens,
        }
    }

    /// Attaches the request's wire footprint (request + response frame
    /// sizes, prefixes included).
    #[must_use]
    pub fn with_wire_bytes(mut self, wire_bytes: u64) -> Self {
        self.wire_bytes = wire_bytes;
        self
    }

    /// Time on the wire: end-to-end minus everything the server
    /// accounted for. Saturates at 0 (the two quantities come from
    /// different clocks; see the module docs).
    pub fn wire_us(&self) -> u64 {
        self.e2e_us.saturating_sub(self.server_total_us)
    }

    /// Server overhead outside the engine (decode, admission, batch
    /// scatter, reply delivery).
    pub fn server_other_us(&self) -> u64 {
        self.server_total_us
            .saturating_sub(self.queue_us + self.batch_us + self.lease_us + self.service_us)
    }

    /// Sum of the five additive stages: queue, batch, lease, service,
    /// and wire. By construction `stage_sum_us() + server_other_us()
    /// == e2e_us` (up to saturation), so the sum approximates the
    /// measured end-to-end latency whenever non-engine server overhead
    /// is small.
    pub fn stage_sum_us(&self) -> u64 {
        self.queue_us + self.batch_us + self.lease_us + self.service_us + self.wire_us()
    }

    /// One JSONL line (no trailing newline). Keys are the [`Stage`]
    /// names plus identity fields; all values are integers or strings,
    /// so no escaping beyond the model name is needed.
    pub fn to_json(&self) -> String {
        // Model names come from the registry (file stems / app names);
        // escape the two JSON-significant characters defensively.
        let model = self.model.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            "{{\"request_id\":{},\"model\":\"{}\",\"e2e_us\":{},\"queue_us\":{},\
             \"batch_us\":{},\"lease_us\":{},\"service_us\":{},\"wire_us\":{},\
             \"server_total_us\":{},\"busy_retries\":{},\"wire_bytes\":{},\
             \"cache_hit\":{},\"first_token_us\":{},\"tokens\":{}}}",
            self.request_id,
            model,
            self.e2e_us,
            self.queue_us,
            self.batch_us,
            self.lease_us,
            self.service_us,
            self.wire_us(),
            self.server_total_us,
            self.busy_retries,
            self.wire_bytes,
            self.cache_hit,
            self.first_token_us,
            self.tokens,
        )
    }
}

/// Aggregates trace records into per-stage histograms and renders the
/// p50/p95/p99 breakdown table the loadgen prints.
#[derive(Debug, Default)]
pub struct TraceAggregator {
    queue: LatencyHistogram,
    batch: LatencyHistogram,
    lease: LatencyHistogram,
    service: LatencyHistogram,
    wire: LatencyHistogram,
    total: LatencyHistogram,
}

impl TraceAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        TraceAggregator::default()
    }

    /// Folds one record in.
    pub fn record(&mut self, r: &TraceRecord) {
        self.queue.record(r.queue_us);
        self.batch.record(r.batch_us);
        self.lease.record(r.lease_us);
        self.service.record(r.service_us);
        self.wire.record(r.wire_us());
        self.total.record(r.e2e_us);
    }

    /// Records aggregated so far.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    /// The per-stage breakdown table (stages with no samples render as
    /// `n/a`).
    pub fn table(&self) -> BreakdownTable {
        let mut t = BreakdownTable::new();
        t.push(Stage::Queue, StageSummary::of(&self.queue));
        t.push(Stage::Batch, StageSummary::of(&self.batch));
        t.push(Stage::Lease, StageSummary::of(&self.lease));
        t.push(Stage::Service, StageSummary::of(&self.service));
        t.push(Stage::Wire, StageSummary::of(&self.wire));
        t.push(Stage::Total, StageSummary::of(&self.total));
        t
    }
}

/// The `q`-quantile of an ascending-sorted sample vector by
/// [`gpusim::queueing::percentile_sorted`] (ceiling nearest-rank, the
/// rule the server's histograms use too), or `None` when there are no
/// samples — the caller renders `None` as `n/a` instead of inventing a
/// zero.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| gpusim::queueing::percentile_sorted(sorted, q))
}

/// Renders an optional millisecond quantity: `12.34 ms` or `n/a`.
pub fn fmt_ms(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.2} ms"),
        None => "n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(e2e: u64, queue: u64, batch: u64, service: u64, total: u64) -> TraceRecord {
        TraceRecord::new(
            "dig",
            e2e,
            ServerTrace {
                request_id: 7,
                queue_us: queue,
                batch_us: batch,
                lease_us: 0,
                service_us: service,
                server_total_us: total,
                cache_hit: false,
                first_token_us: 0,
                tokens: 0,
            },
        )
    }

    #[test]
    fn request_ids_are_unique_and_positive() {
        let a = next_request_id();
        let b = next_request_id();
        assert!(a > 0, "0 is the untraced sentinel");
        assert_ne!(a, b);
    }

    #[test]
    fn stage_sum_plus_overhead_is_end_to_end() {
        let r = record(1_000, 100, 50, 600, 800);
        assert_eq!(r.wire_us(), 200);
        assert_eq!(r.server_other_us(), 50);
        assert_eq!(r.stage_sum_us() + r.server_other_us(), r.e2e_us);
    }

    #[test]
    fn wire_saturates_instead_of_underflowing() {
        // Different clock domains: a server_total slightly above the
        // client's e2e must not wrap around.
        let r = record(500, 0, 0, 400, 600);
        assert_eq!(r.wire_us(), 0);
    }

    #[test]
    fn json_line_carries_every_stage() {
        let r = record(1_000, 100, 50, 600, 800);
        let line = r.to_json();
        for key in [
            "\"request_id\":7",
            "\"model\":\"dig\"",
            "\"e2e_us\":1000",
            "\"queue_us\":100",
            "\"batch_us\":50",
            "\"lease_us\":0",
            "\"service_us\":600",
            "\"wire_us\":200",
            "\"server_total_us\":800",
            "\"busy_retries\":0",
            "\"wire_bytes\":0",
            "\"cache_hit\":false",
            "\"first_token_us\":0",
            "\"tokens\":0",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'), "JSONL lines must be single-line");
    }

    #[test]
    fn json_escapes_hostile_model_names() {
        let mut r = record(10, 1, 1, 1, 5);
        r.model = "we\"ird\\name".into();
        let line = r.to_json();
        assert!(line.contains("we\\\"ird\\\\name"), "{line}");
    }

    #[test]
    fn aggregator_builds_a_full_table() {
        let mut agg = TraceAggregator::new();
        agg.record(&record(1_000, 100, 50, 600, 800));
        agg.record(&record(2_000, 300, 70, 900, 1_400));
        assert_eq!(agg.count(), 2);
        let rendered = agg.table().render();
        for stage in Stage::ALL {
            assert!(rendered.contains(stage.name()), "{rendered}");
        }
        assert!(!rendered.contains("n/a"), "{rendered}");
    }

    #[test]
    fn lease_wait_is_an_additive_stage() {
        let mut r = record(1_000, 100, 50, 500, 800);
        r.lease_us = 100;
        assert_eq!(r.wire_us(), 200);
        assert_eq!(r.server_other_us(), 50);
        assert_eq!(r.stage_sum_us() + r.server_other_us(), r.e2e_us);
        assert!(r.to_json().contains("\"lease_us\":100"), "{}", r.to_json());
        let mut agg = TraceAggregator::new();
        agg.record(&r);
        let rendered = agg.table().render();
        let lease_row = rendered
            .lines()
            .find(|l| l.starts_with("lease"))
            .expect("lease row in breakdown");
        assert!(lease_row.contains("ms"), "{rendered}");
    }

    #[test]
    fn wire_bytes_travel_through_record_and_json() {
        let r = record(1_000, 100, 50, 600, 800).with_wire_bytes(3_210);
        assert_eq!(r.wire_bytes, 3_210);
        assert!(
            r.to_json().contains("\"wire_bytes\":3210"),
            "{}",
            r.to_json()
        );
    }

    /// A cache hit can land with every server span at 0 — the whole
    /// server side fits inside one microsecond tick. Those zeros are
    /// measurements and belong in the stage breakdown.
    #[test]
    fn cache_hits_are_traced_even_with_zero_spans() {
        let spans = EngineSpans {
            cache_hit: true,
            ..EngineSpans::default()
        };
        let r = TraceRecord::new("pos", 120, ServerTrace::new(9, spans, 0));
        assert!(r.cache_hit, "hit flag travels spans → wire trace → record");
        assert_eq!(r.wire_us(), 120, "all e2e is wire when the server took ~0");
        assert!(
            r.to_json().contains("\"cache_hit\":true"),
            "{}",
            r.to_json()
        );
        let mut agg = TraceAggregator::new();
        agg.record(&r);
        let rendered = agg.table().render();
        let queue_row = rendered
            .lines()
            .find(|l| l.starts_with("queue"))
            .expect("queue row");
        assert!(
            queue_row.contains("0.00 ms"),
            "a hit's zero queue is a real measurement, not n/a: {rendered}"
        );
    }

    /// Regression test for the all-shed loadgen run: with zero successful
    /// requests the percentile report must say `n/a` — not panic on an
    /// empty index, not print a fake 0.
    #[test]
    fn empty_run_reports_na_everywhere() {
        let empty: Vec<f64> = Vec::new();
        assert_eq!(percentile(&empty, 0.50), None);
        assert_eq!(percentile(&empty, 0.99), None);
        assert_eq!(fmt_ms(percentile(&empty, 0.95)), "n/a");
        let agg = TraceAggregator::new();
        let rendered = agg.table().render();
        assert!(rendered.contains("n/a"), "{rendered}");
        assert!(!rendered.contains("0.00 ms"), "{rendered}");
    }

    #[test]
    fn percentile_matches_the_workspace_definition_when_non_empty() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(fmt_ms(percentile(&v, 0.5)), "50.00 ms");
    }

    /// Pins the ceiling nearest-rank convention at sample sizes where it
    /// *differs* from the old truncating `(n-1)·q` index — the n=100
    /// checks above coincide under both conventions and would not catch
    /// a regression to the old formula.
    #[test]
    fn percentile_uses_ceiling_nearest_rank_like_the_histogram() {
        // 10 samples at q=0.99: rank = ceil(9.9) = 10 → the maximum.
        // The truncating index gave (9 * 0.99) = 8 → the 9th value.
        let small: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.99), Some(10.0));
        // 200 samples at q=0.999: rank = ceil(199.8) = 200 → 200.0.
        // The truncating index gave (199 * 0.999) = 198 → 199.0.
        let large: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&large, 0.999), Some(200.0));
        // A single sample answers every quantile, q=0.0 included.
        assert_eq!(percentile(&[7.5], 0.0), Some(7.5));
        assert_eq!(percentile(&[7.5], 1.0), Some(7.5));
    }
}
