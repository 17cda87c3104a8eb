//! End-to-end request tracing over real TCP, against the tiny test zoo
//! so the whole file runs deterministically in well under a second.
//!
//! The acceptance criterion for the trace model: for every traced
//! request, the per-stage spans the client assembles (queue + batch +
//! service + wire) must account for the client-observed end-to-end
//! latency — the unattributed remainder (`server_other_us`: frame
//! decode/encode and reply bookkeeping inside the server) stays within a
//! small tolerance, and no span is ever negative or larger than the
//! whole.

use std::time::{Duration, Instant};

use djinn_tonic::djinn::protocol::{FrameReader, Request, Response};
use djinn_tonic::djinn::{
    BatchConfig, DjinnClient, DjinnServer, ModelRegistry, ServerConfig, StreamMode, TraceRecord,
};
use djinn_tonic::tensor::{Shape, Tensor};

/// Everything the server cannot attribute to queue/batch/service/wire
/// must fit in this budget per request. The work it covers is frame
/// decode + encode of a few-KB tensor — microseconds in practice; the
/// bound is generous to stay green on a loaded CI machine.
const OTHER_BUDGET: Duration = Duration::from_millis(20);

fn tiny_server(batching: Option<BatchConfig>) -> DjinnServer {
    let registry = ModelRegistry::with_tiny_test_zoo().expect("tiny zoo builds");
    let config = ServerConfig {
        batching,
        ..ServerConfig::default()
    };
    DjinnServer::start(registry, config).expect("server starts on an ephemeral port")
}

fn senna_input(rows: usize) -> Tensor {
    Tensor::random_uniform(Shape::mat(rows, 30), 1.0, 0x7E57)
}

/// Span marks are independent clock reads truncated to whole
/// microseconds, so at wire-fast-path latencies (single-digit µs end to
/// end) each sub-µs stage can read as 1 µs and the stage sum can exceed
/// the — also truncated — end-to-end reading by a few ticks. This slack
/// absorbs exactly that quantization; a real attribution bug (a span
/// double-counted or measured on the wrong mark) is orders of magnitude
/// larger.
const QUANT_SLACK_US: u64 = 5;

fn assert_spans_account_for_e2e(record: &TraceRecord) {
    assert_ne!(record.request_id, 0, "traced requests carry a nonzero ID");
    let sum = record.stage_sum_us();
    assert!(
        sum <= record.e2e_us + QUANT_SLACK_US,
        "stage sum {sum}us exceeds end-to-end {}us",
        record.e2e_us
    );
    let other = Duration::from_micros(record.server_other_us());
    assert!(
        other <= OTHER_BUDGET,
        "unattributed server time {other:?} exceeds {OTHER_BUDGET:?} \
         (queue {} + batch {} + service {} + wire {} vs e2e {})",
        record.queue_us,
        record.batch_us,
        record.service_us,
        record.wire_us(),
        record.e2e_us
    );
    // Durations are u64 microseconds, so non-negativity is structural;
    // what can still go wrong is a span exceeding the whole.
    for (stage, us) in [
        ("queue", record.queue_us),
        ("batch", record.batch_us),
        ("service", record.service_us),
        ("wire", record.wire_us()),
    ] {
        assert!(
            us <= record.e2e_us + QUANT_SLACK_US,
            "{stage} span {us}us exceeds end-to-end {}us",
            record.e2e_us
        );
    }
}

/// Acceptance criterion: queue + batch + service + wire ≈ end-to-end,
/// for every request of a short run, on the immediate-dispatch path.
#[test]
fn spans_account_for_end_to_end_latency_immediate() {
    let server = tiny_server(None);
    let mut client = DjinnClient::connect(server.local_addr()).unwrap();
    let input = senna_input(4);
    for _ in 0..20 {
        let (out, record) = client.infer_traced("tiny-senna", &input).unwrap();
        assert_eq!(out.shape().dims(), &[4, 9]);
        assert_eq!(record.model, "tiny-senna");
        assert_spans_account_for_e2e(&record);
    }
    server.shutdown();
}

/// Same criterion on the batched path, where the coalescing wait must be
/// attributed to the batch span instead of silently inflating service.
#[test]
fn spans_account_for_end_to_end_latency_batched() {
    let max_delay = Duration::from_millis(5);
    let server = tiny_server(Some(BatchConfig {
        max_batch: 4,
        max_delay,
    }));
    let mut client = DjinnClient::connect(server.local_addr()).unwrap();
    let input = senna_input(2);
    // A lone client: every request waits out the coalescing delay, so
    // the batch span must absorb roughly max_delay. The tolerance on the
    // remainder is unchanged — the wait may not leak into `other`.
    for _ in 0..5 {
        let (_, record) = client.infer_traced("tiny-senna", &input).unwrap();
        assert_spans_account_for_e2e(&record);
        assert!(
            record.batch_us >= max_delay.as_micros() as u64 / 2,
            "lone batched request should wait out the coalescing delay, \
             batch span was {}us",
            record.batch_us
        );
    }
    server.shutdown();
}

/// A stream's steps queue, coalesce, lease and run like any job, and each
/// chunk's trace carries that step's own spans. Streams decoded together
/// share each tick's forward pass, and every one of them is charged it
/// once: a stream's stages, summed over its chunks, must still fit in its
/// own end-to-end time — under both dispatch policies.
#[test]
fn stream_stages_summed_over_chunks_fit_in_its_end_to_end_time() {
    const TOKENS: u32 = 12;
    const STEP: Duration = Duration::from_millis(1);
    for batching in [
        None,
        Some(BatchConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(50),
        }),
    ] {
        let registry = ModelRegistry::with_tiny_test_zoo().expect("tiny zoo builds");
        let config = ServerConfig {
            batching,
            service_delay: Some(STEP),
            ..ServerConfig::default()
        };
        let server = DjinnServer::start(registry, config).expect("server starts");
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let prompt = Tensor::from_fn(Shape::mat(1, 16), |i| if i == 3 { 1.0 } else { 0.0 });
        let started = Instant::now();
        let ids: Vec<u64> = (0..3)
            .map(|_| {
                let mode = StreamMode::Generative { max_tokens: TOKENS };
                client.stream_infer("tiny-lm", &prompt, mode).unwrap()
            })
            .collect();
        let mut stage_sum = [0u64; 3];
        let mut service_sum = [0u64; 3];
        let mut e2e_us = [0u64; 3];
        for _ in 0..TOKENS {
            for (s, &id) in ids.iter().enumerate() {
                let chunk = client.recv_chunk(id).expect("chunk");
                let t = chunk.trace;
                let step = t.queue_us + t.batch_us + t.lease_us + t.service_us;
                assert!(
                    step <= t.server_total_us + QUANT_SLACK_US,
                    "chunk {} of stream {s}: its step's stages ({step}us) exceed the \
                     stream's server time so far ({}us)",
                    chunk.seq,
                    t.server_total_us
                );
                stage_sum[s] += step;
                service_sum[s] += t.service_us;
                e2e_us[s] = started.elapsed().as_micros() as u64;
            }
        }
        for s in 0..3 {
            assert!(
                stage_sum[s] <= e2e_us[s] + QUANT_SLACK_US * u64::from(TOKENS),
                "batching {batching:?}, stream {s}: stages sum to {}us, end to end {}us",
                stage_sum[s],
                e2e_us[s]
            );
            // Every step really ran under the modelled device time and
            // says so (the spans are stamped, not hard-coded zeros) ...
            assert!(service_sum[s] >= u64::from(TOKENS) * STEP.as_micros() as u64);
        }
        // ... and a batch window 50x the step never shows up in a token.
        assert!(
            started.elapsed() < Duration::from_millis(50) * TOKENS / 2,
            "batching {batching:?}: decode steps waited out coalescing windows"
        );
        server.shutdown();
    }
}

/// The server must echo the client's request ID verbatim in the trace
/// block — checked over the raw protocol so the client-side "patch a
/// zero ID" fallback cannot mask a server that drops the ID.
#[test]
fn server_echoes_request_id_on_the_wire() {
    let server = tiny_server(None);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let req = Request::Infer {
        model: "tiny-senna".into(),
        input: senna_input(1),
        request_id: 0x00C0FFEE,
    };
    let mut frame = bytes::BytesMut::new();
    req.encode_framed_into(&mut frame).unwrap();
    std::io::Write::write_all(&mut stream, &frame).unwrap();
    let mut replies = FrameReader::new();
    let reply = replies.read_frame_ref(&stream).unwrap().unwrap();
    let Response::Output { trace, .. } = Response::decode(reply).unwrap() else {
        panic!("expected an output response");
    };
    assert_eq!(trace.request_id, 0x00C0FFEE);
    assert!(
        trace.queue_us + trace.batch_us + trace.service_us <= trace.server_total_us,
        "span sum must fit inside the server's own total"
    );
    server.shutdown();
}

/// The tiny zoo exists so this whole file stays fast: a full traced
/// round-trip against it must complete in milliseconds, keeping the
/// serving-stack integration suite under a second.
#[test]
fn tiny_zoo_roundtrip_is_fast() {
    let server = tiny_server(None);
    let mut client = DjinnClient::connect(server.local_addr()).unwrap();
    let input = senna_input(2);
    // Warm up connection + first dispatch.
    client.infer_traced("tiny-senna", &input).unwrap();
    let t0 = Instant::now();
    for _ in 0..10 {
        client.infer_traced("tiny-senna", &input).unwrap();
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "10 tiny-zoo round-trips took {elapsed:?}"
    );
    server.shutdown();
}

/// A caching server for the cache-trace tests: tiny zoo, the given
/// cache mode, a budget far larger than the tiny outputs need.
fn caching_server(mode: &str) -> DjinnServer {
    let registry = ModelRegistry::with_tiny_test_zoo().expect("tiny zoo builds");
    let config = ServerConfig {
        cache_mode: mode.parse().expect("valid cache mode"),
        cache_bytes: 4 * 1024 * 1024,
        ..ServerConfig::default()
    };
    DjinnServer::start(registry, config).expect("server starts on an ephemeral port")
}

/// A cache hit answers at admission: it never queues, never waits for a
/// lease, never runs the executor. Its trace must say so — near-zero
/// queue + batch + lease + service — while still carrying the hit flag
/// and the request ID, and the span accounting must keep holding.
#[test]
fn cache_hit_trace_reports_near_zero_server_stages() {
    let server = caching_server("both");
    let mut client = DjinnClient::connect(server.local_addr()).unwrap();
    let input = senna_input(2);

    let (cold_out, cold) = client.infer_traced("tiny-senna", &input).unwrap();
    assert!(!cold.cache_hit, "first sight of an input must miss");

    let (hot_out, hot) = client.infer_traced("tiny-senna", &input).unwrap();
    assert!(hot.cache_hit, "byte-identical replay must hit");
    assert_eq!(
        cold_out.data(),
        hot_out.data(),
        "cached bytes must be the computed bytes"
    );
    assert_spans_account_for_e2e(&hot);
    // The hit path touches no engine stage; each span should be at most
    // clock-quantization noise, far under any real queue/service time.
    for (stage, us) in [
        ("queue", hot.queue_us),
        ("batch", hot.batch_us),
        ("lease", hot.lease_us),
        ("service", hot.service_us),
    ] {
        assert!(
            us <= 1_000,
            "cache hit spent {us}us in {stage}; hits must skip the engine"
        );
    }
    server.shutdown();
}

/// Server-side cache counters must reconcile with what the client saw:
/// hits + misses equals the successful exact-cache lookups, and the
/// number of hit-flagged trace records equals the server's hit counter.
#[test]
fn cache_stats_reconcile_with_client_observed_hits() {
    // Exact-only: every request makes exactly one cache lookup, so the
    // counters reconcile 1:1 with the request stream. (`both` would add
    // per-row embed-layer lookups for each miss on top.)
    let server = caching_server("exact");
    let mut client = DjinnClient::connect(server.local_addr()).unwrap();
    // 3 distinct inputs, each sent 4 times: 3 misses, 9 hits.
    let inputs: Vec<Tensor> = (0..3)
        .map(|i| Tensor::random_uniform(Shape::mat(1, 30), 1.0, 1000 + i))
        .collect();
    let mut client_hits = 0u64;
    for round in 0..4 {
        for input in &inputs {
            let (_, record) = client.infer_traced("tiny-senna", input).unwrap();
            assert_eq!(
                record.cache_hit,
                round > 0,
                "every input must miss exactly once, then always hit"
            );
            client_hits += u64::from(record.cache_hit);
        }
    }
    let stats = client.stats().unwrap();
    let senna = stats
        .iter()
        .find(|s| s.model == "tiny-senna")
        .expect("stats entry for tiny-senna");
    assert_eq!(senna.cache_hits, client_hits, "server hits = client hits");
    assert_eq!(
        senna.cache_hits + senna.cache_misses,
        12,
        "every request probes the exact cache exactly once"
    );
    assert_eq!(senna.cache_evictions, 0, "budget was never exceeded");
    server.shutdown();
}

/// The duplicate-rate gate: 120 `tiny-senna` requests over 12 distinct
/// inputs, each sent ten times back to back. Against `both`, the client
/// sees exactly the 108 duplicates offered as hits; an uncached server
/// sees none; and the two servers answer every request with the same
/// bits.
#[test]
fn cache_hits_every_duplicate_and_matches_uncached_bitwise() {
    let inputs: Vec<Tensor> = (0..12)
        .map(|i| Tensor::random_uniform(Shape::mat(1, 30), 0.5, 99 + 7919 * i))
        .collect();
    let replay = |mode: &str| {
        let server = caching_server(mode);
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let mut hits = 0u64;
        let mut outputs = Vec::new();
        for i in 0..120 {
            let (out, record) = client.infer_traced("tiny-senna", &inputs[i / 10]).unwrap();
            hits += u64::from(record.cache_hit);
            outputs.push(out.data().iter().map(|f| f.to_bits()).collect::<Vec<_>>());
        }
        server.shutdown();
        (hits, outputs)
    };
    let (off_hits, off_outputs) = replay("off");
    let (hits, outputs) = replay("both");
    assert_eq!(off_hits, 0, "an uncached server reports no hits");
    assert_eq!(
        hits, 108,
        "every duplicate offered is a hit, and nothing else"
    );
    assert!(
        outputs == off_outputs,
        "cached answers must equal uncached ones bit for bit"
    );
}

/// The embed layer counts **rows**, not requests — and the two units
/// must never be conflated when reconciling server counters against
/// client-observed hits. A 5-row SENNA batch replayed 3 times makes 4
/// requests but 20 row lookups; the client-observed `cache_hit` flag
/// (an *exact-layer, whole-request* signal) stays false throughout,
/// while the server's embed counters advance 5 per request. Hit rates
/// therefore reconcile per row (15/20), not per request — dividing the
/// 15 row hits by 4 requests would claim a nonsensical 375%.
#[test]
fn embed_cache_stats_count_rows_not_requests() {
    let server = caching_server("embed");
    let mut client = DjinnClient::connect(server.local_addr()).unwrap();
    let batch = senna_input(5); // multi-row: 5 embed lookups per request

    let mut client_hit_requests = 0u64;
    let requests = 4u64;
    for _ in 0..requests {
        let (_, record) = client.infer_traced("tiny-senna", &batch).unwrap();
        // Embed hits accelerate the prefix but the request still runs
        // the engine: the whole-request hit flag must stay false.
        assert!(
            !record.cache_hit,
            "embed row hits must not masquerade as whole-request hits"
        );
        client_hit_requests += u64::from(record.cache_hit);
    }

    let stats = client.stats().unwrap();
    let senna = stats
        .iter()
        .find(|s| s.model == "tiny-senna")
        .expect("stats entry for tiny-senna");
    let rows_sent = requests * 5;
    assert_eq!(
        senna.cache_hits + senna.cache_misses,
        rows_sent,
        "embed lookups tally rows sent, not requests sent"
    );
    // Cold batch: 5 row misses. Replays: 5 row hits each.
    assert_eq!(senna.cache_misses, 5);
    assert_eq!(senna.cache_hits, rows_sent - 5);
    assert_eq!(
        client_hit_requests, 0,
        "no request-level hits in embed mode"
    );
    assert!(
        senna.cache_hits > requests,
        "row hits exceed the request count — the only correct denominator \
         for the server's embed counters is rows, never requests"
    );
    server.shutdown();
}
