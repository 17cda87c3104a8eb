//! End-to-end tests for streaming inference (protocol v7): one
//! `stream_req` in, N ordered `chunk` frames out — through a server
//! directly and through the router tier, interleaved with one-shot
//! traffic on the same connection.
//!
//! Every test name is prefixed `streaming_` so CI can run exactly this
//! suite by name (`cargo test --test streaming streaming_`).

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use djinn_tonic::djinn::{
    BatchConfig, CpuExecutor, DispatchPolicy, DjinnClient, DjinnError, DjinnRouter, DjinnServer,
    EngineConfig, Executor, InferenceEngine, InferenceOutcome, ModelRegistry, RoutedReply,
    RouterConfig, ServerConfig, StreamChunk, StreamMode, MAX_STREAM_TOKENS,
};
use djinn_tonic::dnn::{zoo, Network};
use djinn_tonic::tensor::{Shape, Tensor};

fn start_server() -> DjinnServer {
    let registry = ModelRegistry::with_tiny_test_zoo().expect("tiny zoo");
    DjinnServer::start(registry, ServerConfig::default()).expect("server start")
}

fn connect(addr: SocketAddr) -> DjinnClient {
    DjinnClient::connect_with_timeout(addr, Duration::from_secs(10)).expect("connect")
}

/// The same `tiny-lm` network the tiny-zoo registry builds (same
/// definition, same position-derived seed), for computing expected
/// outputs locally.
fn reference_lm() -> Network {
    let defs = zoo::tiny_test_zoo();
    let pos = defs
        .iter()
        .position(|d| d.name() == "tiny-lm")
        .expect("tiny-lm in the tiny zoo");
    Network::with_random_weights(defs[pos].clone(), 0x717E + pos as u64).unwrap()
}

/// A one-hot prompt over tiny-lm's 16-token vocabulary.
fn prompt(token: usize) -> Tensor {
    one_hot(16, token)
}

/// Greedy reference decode: forward, emit, feed the argmax back one-hot.
fn greedy_reference(net: &Network, mut cur: Tensor, steps: usize) -> Vec<Tensor> {
    let mut outs = Vec::new();
    for _ in 0..steps {
        let out = net.forward(&cur).unwrap();
        let data = out.data();
        let best = (0..data.len())
            .max_by(|&a, &b| data[a].total_cmp(&data[b]))
            .unwrap();
        let mut next = vec![0.0f32; data.len()];
        next[best] = 1.0;
        cur = Tensor::from_vec(out.shape().clone(), next).unwrap();
        outs.push(out);
    }
    outs
}

fn collect_chunks(
    client: &mut DjinnClient,
    model: &str,
    input: &Tensor,
    mode: StreamMode,
) -> Vec<StreamChunk> {
    client
        .stream(model, input, mode)
        .expect("stream start")
        .map(|c| c.expect("chunk"))
        .collect()
}

/// The headline scenario: a generative stream delivers one chunk per
/// decoded token, in order, each matching the local greedy reference —
/// and the per-token telemetry (seq, token count, first-token stamp,
/// engine stats) is all present.
#[test]
fn streaming_generative_chunks_match_direct_decode() {
    let server = start_server();
    let mut client = connect(server.local_addr());
    let net = reference_lm();
    let want = greedy_reference(&net, prompt(3), 8);

    let chunks = collect_chunks(
        &mut client,
        "tiny-lm",
        &prompt(3),
        StreamMode::Generative { max_tokens: 8 },
    );
    assert_eq!(chunks.len(), 8, "one chunk per generated token");
    for (i, (chunk, expect)) in chunks.iter().zip(&want).enumerate() {
        assert_eq!(chunk.seq as usize, i, "chunks must arrive in order");
        assert_eq!(chunk.last, i == 7, "only the final chunk is flagged");
        assert!(
            chunk.tensor.max_abs_diff(expect).unwrap() < 1e-5,
            "chunk {i} diverged from the greedy reference"
        );
        assert_eq!(chunk.trace.tokens, i as u64 + 1, "token count in trace");
    }

    // The per-token SLA class shows up in server stats: chunks counted,
    // gap quantiles populated, but the whole stream is ONE request.
    let stats = client.stats().expect("stats");
    let lm = stats
        .iter()
        .find(|s| s.model == "tiny-lm")
        .expect("tiny-lm");
    assert_eq!(lm.tokens_out, 8);
    assert_eq!(lm.requests, 1, "a stream counts as one request");

    server.shutdown();
}

/// Windowed streaming (the ASR shape): a multi-row input comes back as
/// row-windows whose concatenation equals the one-shot answer.
#[test]
fn streaming_windowed_rows_reassemble_the_full_output() {
    let server = start_server();
    let mut client = connect(server.local_addr());
    let input = Tensor::random_uniform(Shape::mat(8, 30), 1.0, 13);
    let full = client.infer("tiny-senna", &input).expect("direct infer");

    let chunks = collect_chunks(
        &mut client,
        "tiny-senna",
        &input,
        StreamMode::Windowed { window_rows: 3 },
    );
    // 8 rows at 3 per window: 3 + 3 + 2.
    assert_eq!(
        chunks
            .iter()
            .map(|c| c.tensor.shape().batch())
            .collect::<Vec<_>>(),
        vec![3, 3, 2]
    );
    let mut rows = Vec::new();
    for c in &chunks {
        rows.extend_from_slice(c.tensor.data());
    }
    assert_eq!(rows.len(), full.data().len());
    for (i, (got, want)) in rows.iter().zip(full.data()).enumerate() {
        assert!(
            (got - want).abs() < 1e-5,
            "reassembled value {i} diverged from the one-shot answer"
        );
    }
    server.shutdown();
}

/// A stream and one-shot infers interleave on one connection without
/// stealing each other's frames.
#[test]
fn streaming_interleaves_with_oneshot_traffic() {
    let server = start_server();
    let mut client = connect(server.local_addr());
    let net = reference_lm();
    let want = greedy_reference(&net, prompt(5), 4);
    let oneshot_in = Tensor::random_uniform(Shape::mat(1, 30), 1.0, 3);

    let stream_id = client
        .stream_infer(
            "tiny-lm",
            &prompt(5),
            StreamMode::Generative { max_tokens: 4 },
        )
        .expect("stream submit");
    // One-shot requests issued while the stream is mid-flight.
    let a = client.submit("tiny-senna", &oneshot_in).expect("submit");
    let first = client.recv_chunk(stream_id).expect("chunk 0");
    assert_eq!(first.seq, 0);
    let done = client.recv_next().expect("one-shot");
    assert_eq!(done.request_id, a);
    done.result.expect("one-shot result");
    for i in 1..4u32 {
        let chunk = client.recv_chunk(stream_id).expect("chunk");
        assert_eq!(chunk.seq, i);
        assert!(
            chunk.tensor.max_abs_diff(&want[i as usize]).unwrap() < 1e-5,
            "interleaved chunk {i} diverged"
        );
    }
    server.shutdown();
}

/// Streaming an unknown model fails with a correlated terminal error —
/// the connection survives.
#[test]
fn streaming_unknown_model_is_a_terminal_correlated_error() {
    let server = start_server();
    let mut client = connect(server.local_addr());
    let mut iter = client
        .stream(
            "ghost",
            &prompt(0),
            StreamMode::Generative { max_tokens: 4 },
        )
        .expect("stream send");
    match iter.next() {
        Some(Err(DjinnError::Remote { message })) => {
            assert!(message.contains("unknown model"), "{message}");
        }
        other => panic!("expected a terminal Remote error, got {other:?}"),
    }
    assert!(iter.next().is_none(), "errors end the stream");
    // The connection is still usable.
    let out = client.infer("tiny-lm", &prompt(0)).expect("still usable");
    assert_eq!(out.shape().dims(), &[1, 16]);
    server.shutdown();
}

/// The router acceptance criterion: a streamed request through the
/// router delivers ordered, ID-correlated chunks end-to-end, with every
/// chunk carrying the client's original request ID. The replicas pay
/// 2 ms per forward pass, so a 32-token stream spans ~64 ms: the first
/// token must arrive at under a quarter of the whole stream's time
/// (median over the streams), or the router is holding chunks back.
#[test]
fn streaming_through_router_stays_ordered_and_correlated() {
    let replica = || {
        let registry = ModelRegistry::with_tiny_test_zoo().expect("tiny zoo");
        let config = ServerConfig {
            service_delay: Some(Duration::from_millis(2)),
            ..ServerConfig::default()
        };
        DjinnServer::start(registry, config).expect("replica start")
    };
    let replica_a = replica();
    let replica_b = replica();
    let router = DjinnRouter::start(RouterConfig {
        replicas: vec![replica_a.local_addr(), replica_b.local_addr()],
        stats_interval: Duration::from_millis(10),
        ..RouterConfig::default()
    })
    .expect("router start");

    let mut client = connect(router.local_addr());
    let net = reference_lm();
    let want = greedy_reference(&net, prompt(9), 32);
    let (mut ttfts, mut totals) = (Vec::new(), Vec::new());
    // Several streams back-to-back so both replicas see stream traffic.
    for round in 0..5 {
        let started = Instant::now();
        let mut chunks = Vec::new();
        let stream = client
            .stream(
                "tiny-lm",
                &prompt(9),
                StreamMode::Generative { max_tokens: 32 },
            )
            .expect("stream start");
        for chunk in stream {
            chunks.push(chunk.expect("chunk"));
            if chunks.len() == 1 {
                ttfts.push(started.elapsed());
            }
        }
        totals.push(started.elapsed());
        assert_eq!(chunks.len(), 32, "round {round}");
        for (i, (chunk, expect)) in chunks.iter().zip(&want).enumerate() {
            assert_eq!(chunk.seq as usize, i, "round {round} order");
            assert!(
                chunk.tensor.max_abs_diff(expect).unwrap() < 1e-5,
                "round {round} chunk {i} diverged through the router"
            );
        }
        assert!(chunks[31].last);
    }
    ttfts.sort();
    totals.sort();
    let (ttft, total) = (ttfts[2], totals[2]);
    assert!(
        ttft * 4 < total,
        "routed TTFT p50 {ttft:?} is not under 25% of the stream-total p50 {total:?}"
    );
    // One-shot traffic still flows on the same routed connection.
    let input = Tensor::random_uniform(Shape::mat(1, 30), 1.0, 2);
    client
        .infer("tiny-senna", &input)
        .expect("one-shot via router");

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

/// Time-to-first-token must beat waiting for the whole stream: the
/// first chunk of a long generation arrives well before the final one.
#[test]
fn streaming_first_token_arrives_before_the_stream_ends() {
    let server = start_server();
    let mut client = connect(server.local_addr());
    let started = std::time::Instant::now();
    let stream_id = client
        .stream_infer(
            "tiny-lm",
            &prompt(1),
            StreamMode::Generative { max_tokens: 32 },
        )
        .expect("stream submit");
    let first = client.recv_chunk(stream_id).expect("first chunk");
    let ttft = started.elapsed();
    assert_eq!(first.seq, 0);
    let mut count = 1;
    let mut final_trace = None;
    while count < 32 {
        let chunk = client.recv_chunk(stream_id).expect("chunk");
        count += 1;
        if chunk.last {
            final_trace = Some(chunk.trace);
        }
    }
    let total = started.elapsed();
    let trace = final_trace.expect("final chunk seen");
    assert_eq!(trace.tokens, 32);
    assert!(
        trace.first_token_us <= trace.server_total_us,
        "first-token stamp ({}) cannot exceed the stream total ({})",
        trace.first_token_us,
        trace.server_total_us
    );
    assert!(
        ttft < total,
        "first chunk ({ttft:?}) must precede stream completion ({total:?})"
    );
    server.shutdown();
}

/// A one-hot row over `vocab` tokens.
fn one_hot(vocab: usize, token: usize) -> Tensor {
    Tensor::from_fn(Shape::mat(1, vocab), |i| if i == token { 1.0 } else { 0.0 })
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Sorts a drained reply channel into per-stream chunk lists, checking
/// that each stream's chunks came in order and only its last is final.
fn chunks_by_stream(rx: &Receiver<RoutedReply>, streams: usize) -> Vec<Vec<Tensor>> {
    let mut got: Vec<Vec<Tensor>> = vec![Vec::new(); streams];
    let mut ended = vec![false; streams];
    for reply in rx.iter() {
        let s = reply.token as usize;
        assert!(!ended[s], "stream {s}: a chunk after the final one");
        assert_eq!(reply.seq as usize, got[s].len(), "stream {s} out of order");
        ended[s] = reply.last;
        got[s].push(reply.result.expect("chunk").0);
    }
    assert!(ended.iter().all(|&e| e), "a stream never ended");
    got
}

/// The continuous-batching invariant: a stream decoded in ticks that
/// stack N streams' rows emits, bit for bit, what it emits alone — for
/// both LMs, both dispatch policies, with one-shot jobs mixed in (under
/// `Batched` they share forward passes with the decode steps).
#[test]
fn streaming_batched_streams_equal_solo_streams_bitwise() {
    const TOKENS: usize = 6;
    let textgen = Network::with_random_weights(zoo::textgen(), 0x7E47).unwrap();
    let policies = [
        DispatchPolicy::Immediate,
        DispatchPolicy::Batched(BatchConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
        }),
    ];
    for (net, vocab) in [(reference_lm(), 16usize), (textgen, 256)] {
        let net = Arc::new(net);
        let model = net.def().name().to_string();
        for policy in policies {
            for n in [1usize, 2, 8, 33] {
                let engine = InferenceEngine::start(
                    model.clone(),
                    Arc::clone(&net),
                    Arc::new(CpuExecutor::default()),
                    EngineConfig {
                        policy,
                        ..EngineConfig::default()
                    },
                );
                let (tx, rx) = bounded(n * TOKENS);
                let mut one_shots = Vec::new();
                for s in 0..n {
                    let mode = StreamMode::Generative {
                        max_tokens: TOKENS as u32,
                    };
                    engine
                        .submit_stream_routed(
                            one_hot(vocab, s * 7 % vocab),
                            s as u64,
                            mode,
                            tx.clone(),
                        )
                        .expect("stream admitted");
                    if s % 3 == 0 {
                        let input = Tensor::random_uniform(Shape::mat(2, vocab), 1.0, s as u64);
                        one_shots.push((engine.submit(input.clone()).expect("admitted"), input));
                    }
                }
                drop(tx);
                let what = format!("{model} {policy:?} n={n}");
                for (s, chunks) in chunks_by_stream(&rx, n).iter().enumerate() {
                    let want = greedy_reference(&net, one_hot(vocab, s * 7 % vocab), TOKENS);
                    assert_eq!(chunks.len(), TOKENS, "{what} stream {s}");
                    for (i, (got, want)) in chunks.iter().zip(&want).enumerate() {
                        assert!(same_bits(got, want), "{what} stream {s} chunk {i}");
                    }
                }
                for (ticket, input) in one_shots {
                    let got = ticket.wait().expect("one-shot");
                    assert!(
                        same_bits(&got, &net.forward(&input).unwrap()),
                        "{what} one-shot"
                    );
                }
                let stats = engine.stats();
                assert_eq!(stats.tokens_out, (n * TOKENS) as u64, "{what}");
                engine.shutdown();
            }
        }
    }
}

/// Runs the real forward pass, reporting each call's batch rows on entry
/// and then waiting at a gate the test opens (dropping the gate's sender
/// opens it for good).
struct GateExecutor {
    entered: Sender<usize>,
    gate: Mutex<Receiver<()>>,
}

impl Executor for GateExecutor {
    fn infer(
        &self,
        network: &Arc<Network>,
        input: &Tensor,
    ) -> djinn_tonic::djinn::Result<InferenceOutcome> {
        let _ = self.entered.send(input.shape().batch());
        let _ = self.gate.lock().unwrap().recv();
        CpuExecutor::default().infer(network, input)
    }

    fn backend_name(&self) -> &'static str {
        "gate"
    }
}

/// Windows of unequal size and a generative row share one tick: the
/// stacked forward pass is scattered back by each step's own row count.
#[test]
fn streaming_unequal_windows_stack_in_one_tick() {
    let net = Arc::new(reference_lm());
    let (entered_tx, entered) = bounded(64);
    let (open, gate) = bounded::<()>(1);
    let engine = InferenceEngine::start(
        "tiny-lm",
        Arc::clone(&net),
        Arc::new(GateExecutor {
            entered: entered_tx,
            gate: Mutex::new(gate),
        }),
        EngineConfig::default(),
    );
    let wide = Tensor::random_uniform(Shape::mat(7, 16), 1.0, 41);
    let narrow = Tensor::random_uniform(Shape::mat(5, 16), 1.0, 42);
    let (tx, rx) = bounded(64);
    engine
        .submit_stream_routed(
            wide.clone(),
            0,
            StreamMode::Windowed { window_rows: 3 },
            tx.clone(),
        )
        .unwrap();
    // The first window is held in the executor while the others arrive.
    assert_eq!(entered.recv_timeout(Duration::from_secs(10)).unwrap(), 3);
    engine
        .submit_stream_routed(
            narrow.clone(),
            1,
            StreamMode::Windowed { window_rows: 2 },
            tx.clone(),
        )
        .unwrap();
    engine
        .submit_stream_routed(
            one_hot(16, 4),
            2,
            StreamMode::Generative { max_tokens: 3 },
            tx,
        )
        .unwrap();
    drop(open);
    // Tick 2: a 3-row window, a 2-row window and a token; then 1 + 2 + 1
    // (the wide stream's tail), then the narrow tail and the last token.
    let ticks: Vec<usize> = entered.iter().take(3).collect();
    assert_eq!(ticks, vec![6, 4, 2]);
    let got = chunks_by_stream(&rx, 3);
    for (s, (input, sizes)) in [(&wide, vec![3, 3, 1]), (&narrow, vec![2, 2, 1])]
        .into_iter()
        .enumerate()
    {
        let windows = input.split_batch(&sizes).unwrap();
        assert_eq!(got[s].len(), windows.len(), "stream {s}");
        for (i, (chunk, window)) in got[s].iter().zip(&windows).enumerate() {
            assert!(
                same_bits(chunk, &net.forward(window).unwrap()),
                "stream {s} window {i} differs from its solo forward pass"
            );
        }
    }
    for (i, (chunk, want)) in got[2]
        .iter()
        .zip(&greedy_reference(&net, one_hot(16, 4), 3))
        .enumerate()
    {
        assert!(same_bits(chunk, want), "token {i} next to windows");
    }
    engine.shutdown();
}

/// The token count is the client's to ask but the server's to bound:
/// one over the cap is refused before anything is admitted, and the
/// connection stays usable.
#[test]
fn streaming_over_the_token_cap_is_refused_on_the_wire() {
    let server = start_server();
    let mut client = connect(server.local_addr());
    let mut iter = client
        .stream(
            "tiny-lm",
            &prompt(2),
            StreamMode::Generative {
                max_tokens: MAX_STREAM_TOKENS + 1,
            },
        )
        .expect("stream send");
    match iter.next() {
        Some(Err(DjinnError::Remote { message })) => {
            assert!(message.contains("protocol violation"), "{message}");
            assert!(message.contains("limit"), "{message}");
        }
        other => panic!("expected a terminal protocol error, got {other:?}"),
    }
    assert!(iter.next().is_none());
    let stats = client.stats().expect("stats");
    let lm = stats.iter().find(|s| s.model == "tiny-lm").unwrap();
    assert_eq!((lm.tokens_out, lm.in_flight, lm.queue_depth), (0, 0, 0));
    server.shutdown();
}

/// A server with tiny-lm alone, under a name of the test's choosing.
fn lm_server(name: &str, config: ServerConfig) -> DjinnServer {
    let mut registry = ModelRegistry::new();
    registry.register(name, reference_lm());
    DjinnServer::start(registry, config).expect("server start")
}

fn lm_tokens_out(client: &mut DjinnClient) -> u64 {
    let stats = client.stats().expect("stats");
    stats
        .iter()
        .find(|s| s.model == "zz-lm")
        .unwrap()
        .tokens_out
}

/// A client that goes away takes its streams with it: the server stops
/// decoding within a couple of steps instead of burning the device to
/// the last token for nobody.
#[test]
fn streaming_disconnect_stops_decode() {
    // 5 ms per step models a device-bound decode; 1000 tokens would run
    // for five seconds.
    let server = lm_server(
        "zz-lm",
        ServerConfig {
            service_delay: Some(Duration::from_millis(5)),
            ..ServerConfig::default()
        },
    );
    let mut watcher = connect(server.local_addr());
    let mut client = connect(server.local_addr());
    let id = client
        .stream_infer(
            "zz-lm",
            &prompt(6),
            StreamMode::Generative { max_tokens: 1000 },
        )
        .expect("stream submit");
    for seq in 0..2 {
        assert_eq!(client.recv_chunk(id).expect("chunk").seq, seq);
    }
    drop(client);
    // Two chunks were read; the step in flight, chunks queued before the
    // server saw the hang-up and the one whose send then fails may follow.
    std::thread::sleep(Duration::from_millis(100));
    let settled = lm_tokens_out(&mut watcher);
    assert!(
        settled <= 6,
        "decode ran on after the disconnect: {settled} tokens out"
    );
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        lm_tokens_out(&mut watcher),
        settled,
        "tokens_out is still growing 100 ms (20 steps) after the client left"
    );
    server.shutdown();
}

/// Streams go through the bounded admission queue: when it is full the
/// next stream is shed with a `Busy` frame, and the admitted one is
/// never shed mid-stream.
#[test]
fn streaming_full_queue_sheds_a_stream_with_busy() {
    let server = lm_server(
        "zz-lm",
        ServerConfig {
            queue_capacity: 1,
            service_delay: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        },
    );
    let mut client = connect(server.local_addr());
    let want = greedy_reference(&reference_lm(), prompt(1), 4);
    let mode = StreamMode::Generative { max_tokens: 4 };
    let admitted = client.stream_infer("zz-lm", &prompt(1), mode).unwrap();
    let shed = client.stream_infer("zz-lm", &prompt(2), mode).unwrap();
    match client.recv_chunk(shed) {
        Err(DjinnError::Busy { model, queue_depth }) => {
            assert_eq!((model.as_str(), queue_depth), ("zz-lm", 1));
        }
        other => panic!("the second stream must be shed with Busy, got {other:?}"),
    }
    for (i, want) in want.iter().enumerate() {
        let chunk = client
            .recv_chunk(admitted)
            .expect("admitted stream's chunk");
        assert_eq!((chunk.seq as usize, chunk.last), (i, i == 3));
        assert!(same_bits(&chunk.tensor, want), "chunk {i}");
    }
    let stats = client.stats().expect("stats");
    let lm = stats.iter().find(|s| s.model == "zz-lm").unwrap();
    assert_eq!((lm.shed, lm.errors), (1, 0), "a shed is not an error");
    server.shutdown();
}

/// Threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .filter(|comm| comm.starts_with(prefix))
                .count()
        })
        .unwrap_or(0)
}

/// Server shutdown with streams in flight: every client sees a final
/// frame — its last chunk — in order, and the engine's threads are gone
/// once `shutdown` returns.
#[test]
fn streaming_server_shutdown_ends_every_live_stream() {
    // An engine's one dispatch thread is named after its model (the
    // kernel keeps 15 bytes: "djinn-engine-yy"), and only this test
    // serves "yy-lm".
    let server = lm_server(
        "yy-lm",
        ServerConfig {
            service_delay: Some(Duration::from_millis(2)),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let (ready_tx, ready) = bounded(8);
    let clients: Vec<_> = (0..8)
        .map(|c| {
            let ready_tx = ready_tx.clone();
            std::thread::spawn(move || {
                let mut client = connect(addr);
                let id = client
                    .stream_infer(
                        "yy-lm",
                        &prompt(c),
                        StreamMode::Generative { max_tokens: 48 },
                    )
                    .expect("stream submit");
                let first = client.recv_chunk(id).expect("first chunk");
                assert_eq!(first.seq, 0);
                ready_tx.send(()).unwrap();
                let mut next = 1;
                loop {
                    let chunk = client
                        .recv_chunk(id)
                        .expect("a stream ends with a final frame");
                    assert_eq!(chunk.seq, next, "client {c}");
                    next += 1;
                    if chunk.last {
                        return next;
                    }
                }
            })
        })
        .collect();
    for _ in 0..8 {
        ready
            .recv_timeout(Duration::from_secs(10))
            .expect("all streams live");
    }
    let on_linux = std::path::Path::new("/proc/self/task").exists();
    assert!(!on_linux || threads_named("djinn-engine-yy") == 1);
    let t0 = Instant::now();
    server.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
    for (c, client) in clients.into_iter().enumerate() {
        assert_eq!(client.join().unwrap(), 48, "client {c} lost chunks");
    }
    // A joined thread can stay listed in `/proc/self/task` for a moment
    // after the join, so poll until the count settles.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads_named("djinn-engine-yy") > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        threads_named("djinn-engine-yy"),
        0,
        "an engine's dispatch thread outlived shutdown"
    );
}
