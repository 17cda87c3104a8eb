//! Framing robustness: the server must stay byte-accurate when request
//! frames arrive in arbitrarily small pieces, arbitrarily slowly — the
//! slow-client / large-payload conditions of the paper's warehouse-scale
//! deployment. Before the stateful `FrameReader`, a read timeout firing
//! mid-frame silently discarded consumed bytes and desynced the stream.
//!
//! The `stale_responses` module pins the companion client-side bug: with
//! order-based correlation, a response that arrived *after* its request
//! timed out used to be returned as the answer to the **next** request.
//! The protocol stamps every response with the ID of the request it
//! answers, and the client discards responses to abandoned requests.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use bytes::BytesMut;
use djinn_tonic::djinn::protocol::{
    peek_request, response_id_slot, FrameReader, Request, Response, StreamMode, VERSION,
};
use djinn_tonic::djinn::{
    CacheMode, DjinnClient, DjinnError, DjinnServer, ModelRegistry, ServerConfig, ServerTrace,
};
use djinn_tonic::dnn::{parser, Network};
use djinn_tonic::tensor::{Shape, Tensor};

const TINY_DEF: &str = "name: tiny\ninput: 8\nlayer fc1 fc out=4\nlayer prob softmax\n";

fn tiny_server() -> DjinnServer {
    let def = parser::parse_netdef(TINY_DEF).unwrap();
    let net = Network::with_random_weights(def, 1).unwrap();
    let mut reg = ModelRegistry::new();
    reg.register("tiny", net);
    DjinnServer::start(reg, ServerConfig::default()).unwrap()
}

/// The same network the server holds (same definition, same seed), for
/// computing expected outputs locally.
fn reference_net() -> Network {
    let def = parser::parse_netdef(TINY_DEF).unwrap();
    Network::with_random_weights(def, 1).unwrap()
}

fn infer_wire_bytes(input: &Tensor) -> Vec<u8> {
    let mut wire = BytesMut::new();
    Request::Infer {
        model: "tiny".into(),
        input: input.clone(),
        request_id: 1,
    }
    .encode_framed_into(&mut wire)
    .unwrap();
    wire.to_vec()
}

/// The next frame on `stream`, read through the connection's one
/// `FrameReader` (a blocking socket: a frame, or a failure).
fn next_frame(replies: &mut FrameReader, stream: &TcpStream) -> Vec<u8> {
    replies.read_frame_ref(stream).unwrap().unwrap().to_vec()
}

fn expect_output(wire_response: &[u8], input: &Tensor) {
    match Response::decode(wire_response).unwrap() {
        Response::Output { tensor, .. } => {
            let want = reference_net().forward(input).unwrap();
            assert!(tensor.max_abs_diff(&want).unwrap() < 1e-5);
        }
        other => panic!("expected Output, got {other:?}"),
    }
}

/// The acceptance scenario: one `Infer` request delivered in >= 3 chunks
/// separated by sleeps longer than the server's old 500 ms read timeout,
/// with chunk boundaries inside the length prefix and inside the payload.
/// The old stateless frame read lost the consumed bytes at each fired
/// timeout; the `FrameReader` must answer correctly.
#[test]
fn request_split_across_slow_chunks_gets_a_correct_response() {
    let server = tiny_server();
    let addr = server.local_addr();
    let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 42);
    let wire = infer_wire_bytes(&input);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let cuts = [2, 10, wire.len() * 2 / 3];
    let mut prev = 0;
    for &cut in &cuts {
        stream.write_all(&wire[prev..cut]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(600));
        prev = cut;
    }
    stream.write_all(&wire[prev..]).unwrap();
    stream.flush().unwrap();

    let rsp = next_frame(&mut FrameReader::new(), &stream);
    expect_output(&rsp, &input);
    server.shutdown();
}

/// Byte-at-a-time delivery: the most adversarial split there is. Every
/// single byte is a separate TCP segment.
#[test]
fn byte_at_a_time_request_is_reassembled() {
    let server = tiny_server();
    let addr = server.local_addr();
    let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 7);
    let wire = infer_wire_bytes(&input);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    for &byte in &wire {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }

    let rsp = next_frame(&mut FrameReader::new(), &stream);
    expect_output(&rsp, &input);
    server.shutdown();
}

/// Pipelining: two complete requests in one write. The server must answer
/// both — the second frame comes out of the reader's buffer, not the
/// socket.
#[test]
fn two_requests_in_one_write_get_two_responses() {
    let server = tiny_server();
    let addr = server.local_addr();
    let a = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 1);
    let b = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 2);
    let mut wire = infer_wire_bytes(&a);
    wire.extend_from_slice(&infer_wire_bytes(&b));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();

    let mut replies = FrameReader::new();
    let first = next_frame(&mut replies, &stream);
    expect_output(&first, &a);
    let second = next_frame(&mut replies, &stream);
    expect_output(&second, &b);
    server.shutdown();
}

/// Two requests under one ID are answered in the order they came, even
/// when the second is a cache hit: a hit is answered during admission,
/// while the miss before it still waits for its forward pass (held here
/// by a service delay), so only the server's per-ID order keeps the hit
/// from overtaking it.
#[test]
fn a_cache_hit_under_a_reused_id_waits_for_the_miss_before_it() {
    let def = parser::parse_netdef(TINY_DEF).unwrap();
    let mut reg = ModelRegistry::new();
    reg.register("tiny", Network::with_random_weights(def, 1).unwrap());
    let config = ServerConfig {
        cache_mode: CacheMode::Exact,
        service_delay: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    };
    let server = DjinnServer::start(reg, config).unwrap();
    let hit = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 3);
    let miss = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 4);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut replies = FrameReader::new();
    // Warm the cache with the input that will hit.
    stream.write_all(&infer_wire_bytes(&hit)).unwrap();
    expect_output(&next_frame(&mut replies, &stream), &hit);

    let mut wire = infer_wire_bytes(&miss);
    wire.extend_from_slice(&infer_wire_bytes(&hit));
    stream.write_all(&wire).unwrap();
    let first = next_frame(&mut replies, &stream);
    let second = next_frame(&mut replies, &stream);
    expect_output(&first, &miss);
    expect_output(&second, &hit);
    match Response::decode(&second).unwrap() {
        Response::Output { trace, .. } => assert!(trace.cache_hit, "the second is a hit"),
        other => panic!("expected Output, got {other:?}"),
    }
    server.shutdown();
}

/// A client with an I/O timeout must report a stall on a server that
/// accepts the connection but never answers, instead of hanging forever.
#[test]
fn client_timeout_fires_on_a_mute_server() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mute = std::thread::spawn(move || {
        // Accept and hold the connection open without ever responding.
        let (_stream, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_secs(3));
    });
    let mut client = DjinnClient::connect_with_timeout(addr, Duration::from_millis(300)).unwrap();
    let err = client.list_models().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("i/o error") || msg.contains("timed out"),
        "unexpected error: {msg}"
    );
    mute.join().unwrap();
}

/// Interleaved slow and fast clients: a slow writer mid-frame must not
/// disturb concurrent well-formed traffic on other connections.
#[test]
fn slow_client_does_not_disturb_fast_clients() {
    let server = tiny_server();
    let addr = server.local_addr();
    let slow_input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 11);
    let wire = infer_wire_bytes(&slow_input);

    let slow = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mid = wire.len() / 2;
        stream.write_all(&wire[..mid]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(700));
        stream.write_all(&wire[mid..]).unwrap();
        stream.flush().unwrap();
        let rsp = next_frame(&mut FrameReader::new(), &stream);
        expect_output(&rsp, &slow_input);
    });

    // Meanwhile a normal client hammers the server.
    let mut client = DjinnClient::connect(addr).unwrap();
    for seed in 0..10u64 {
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, seed);
        let out = client.infer("tiny", &input).unwrap();
        assert_eq!(out.shape().dims(), &[1, 4]);
    }

    slow.join().unwrap();
    server.shutdown();
}

/// The one wire layout, pinned: a hand-written golden byte vector for
/// every frame kind, so if encoding drifts these tests — not a
/// production incident — catch it; and the refusal of every other
/// version byte.
mod golden_vectors {
    use super::*;
    use djinn_tonic::djinn::ModelStats;

    const MAGIC: &[u8; 4] = b"DJNN";

    /// Golden infer request: model `"m"`, request ID 7, a 1x1 tensor
    /// holding 2.0.
    fn infer_golden(version: u8) -> Vec<u8> {
        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.push(version);
        wire.push(1); // OP_INFER
        wire.extend_from_slice(&1u16.to_le_bytes()); // name length
        wire.push(b'm');
        wire.extend_from_slice(&7u64.to_le_bytes()); // request id
        wire.push(2); // rank
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&2.0f32.to_le_bytes());
        wire
    }

    fn infer_request() -> Request {
        Request::Infer {
            model: "m".into(),
            input: Tensor::from_vec(Shape::mat(1, 1), vec![2.0]).unwrap(),
            request_id: 7,
        }
    }

    #[test]
    fn v7_infer_encoding_matches_the_golden_bytes() {
        assert_eq!(VERSION, 7, "golden vectors pin wire version 7");
        let wire = infer_request().encode().unwrap();
        assert_eq!(&wire[..], &infer_golden(7)[..]);
    }

    /// Golden busy response, pinned byte-for-byte: the request ID the
    /// shed request carried comes right after the header — the field
    /// that makes `Busy` attributable under pipelining.
    #[test]
    fn v7_busy_encoding_matches_the_golden_bytes() {
        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.push(7); // version 7
        wire.push(7); // OP_BUSY
        wire.extend_from_slice(&512u64.to_le_bytes()); // request id
        wire.extend_from_slice(&3u16.to_le_bytes());
        wire.extend_from_slice(b"imc");
        wire.extend_from_slice(&128u32.to_le_bytes());
        let rsp = Response::Busy {
            request_id: 512,
            model: "imc".into(),
            queue_depth: 128,
        };
        assert_eq!(&rsp.encode().unwrap()[..], &wire[..]);
        assert_eq!(Response::decode(&wire).unwrap(), rsp);
    }

    /// Golden error response, pinned byte-for-byte: the request ID
    /// follows the error status, so a pipelined client knows *which*
    /// request failed.
    #[test]
    fn v7_error_encoding_matches_the_golden_bytes() {
        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.push(7); // version 7
        wire.push(2); // OP_RESULT
        wire.push(1); // STATUS_ERR
        wire.extend_from_slice(&9u64.to_le_bytes()); // request id
        wire.extend_from_slice(&4u16.to_le_bytes());
        wire.extend_from_slice(b"nope");
        let rsp = Response::Error {
            request_id: 9,
            message: "nope".into(),
        };
        assert_eq!(&rsp.encode().unwrap()[..], &wire[..]);
        assert_eq!(Response::decode(&wire).unwrap(), rsp);
    }

    /// Golden v7 stream request: model `"m"`, request ID 7, generative
    /// mode with a 3-token budget, a 1x1 tensor holding 2.0. The mode
    /// byte and `u32` parameter sit between the request ID and the
    /// tensor, so the ID keeps the same offset as a plain infer frame
    /// (the router rewrites both through one code path).
    #[test]
    fn v7_stream_infer_encoding_matches_the_golden_bytes() {
        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.push(7); // version 7
        wire.push(8); // OP_STREAM_INFER
        wire.extend_from_slice(&1u16.to_le_bytes()); // name length
        wire.push(b'm');
        wire.extend_from_slice(&7u64.to_le_bytes()); // request id
        wire.push(1); // mode byte: generative
        wire.extend_from_slice(&3u32.to_le_bytes()); // max_tokens
        wire.push(2); // rank
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&2.0f32.to_le_bytes());
        let req = Request::StreamInfer {
            model: "m".into(),
            input: Tensor::from_vec(Shape::mat(1, 1), vec![2.0]).unwrap(),
            request_id: 7,
            mode: StreamMode::Generative { max_tokens: 3 },
        };
        assert_eq!(&req.encode().unwrap()[..], &wire[..]);
        assert_eq!(Request::decode(&wire).unwrap(), req);
        // Stream frames are a v7 construct: the same bytes stamped with
        // an older version byte must be rejected, not misparsed.
        wire[4] = 6;
        assert!(Request::decode(&wire).is_err());
    }

    /// Golden v7 output chunk: the full 72-byte trace block, then the
    /// chunk sequence number and the final flag, then the tensor. The
    /// request ID stays at payload offset 7 — same as `Output` — so the
    /// router's in-place ID rewrite covers chunks for free.
    #[test]
    fn v7_chunk_encoding_matches_the_golden_bytes() {
        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.push(7); // version 7
        wire.push(9); // OP_OUTPUT_CHUNK
        wire.push(0); // STATUS_OK
        for word in [7u64, 10, 0, 30, 40, 100, 0, 55, 3] {
            // id, queue, batch, lease, service, total, cache,
            // first_token_us, tokens
            wire.extend_from_slice(&word.to_le_bytes());
        }
        wire.extend_from_slice(&2u32.to_le_bytes()); // seq
        wire.push(1); // CHUNK_FLAG_FINAL
        wire.push(2); // rank
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&2.0f32.to_le_bytes());
        let rsp = Response::Chunk {
            tensor: Tensor::from_vec(Shape::mat(1, 1), vec![2.0]).unwrap(),
            trace: ServerTrace {
                request_id: 7,
                queue_us: 10,
                batch_us: 0,
                lease_us: 30,
                service_us: 40,
                server_total_us: 100,
                cache_hit: false,
                first_token_us: 55,
                tokens: 3,
            },
            seq: 2,
            last: true,
        };
        assert_eq!(&rsp.encode().unwrap()[..], &wire[..]);
        assert_eq!(Response::decode(&wire).unwrap(), rsp);
        // Chunks are likewise v7-only on the wire.
        wire[4] = 6;
        assert!(Response::decode(&wire).is_err());
    }

    /// Golden output response: the status byte, the 72-byte trace block
    /// (nine words, the request ID first so it sits at payload offset 7),
    /// then the tensor.
    #[test]
    fn v7_output_encoding_matches_the_golden_bytes() {
        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.push(7); // version 7
        wire.push(2); // OP_RESULT
        wire.push(0); // STATUS_OK
        for word in [7u64, 10, 20, 30, 40, 100, 1, 0, 0] {
            // id, queue, batch, lease, service, total, cache,
            // first_token_us, tokens
            wire.extend_from_slice(&word.to_le_bytes());
        }
        wire.push(2); // rank
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&2.0f32.to_le_bytes());
        assert_eq!(wire.len(), 6 + 1 + 72 + 1 + 8 + 4);
        let rsp = Response::Output {
            tensor: Tensor::from_vec(Shape::mat(1, 1), vec![2.0]).unwrap(),
            trace: ServerTrace {
                request_id: 7,
                queue_us: 10,
                batch_us: 20,
                lease_us: 30,
                service_us: 40,
                server_total_us: 100,
                cache_hit: true,
                first_token_us: 0,
                tokens: 0,
            },
        };
        assert_eq!(&rsp.encode().unwrap()[..], &wire[..]);
        assert_eq!(Response::decode(&wire).unwrap(), rsp);
    }

    /// Golden control requests: nothing but the header and the ID.
    #[test]
    fn v7_list_models_and_stats_request_encodings_match_the_golden_bytes() {
        for (opcode, req) in [
            (3u8, Request::ListModels { request_id: 31 }),
            (5u8, Request::Stats { request_id: 31 }),
        ] {
            let mut wire = Vec::new();
            wire.extend_from_slice(MAGIC);
            wire.push(7); // version 7
            wire.push(opcode); // OP_LIST / OP_STATS
            wire.extend_from_slice(&31u64.to_le_bytes()); // request id
            assert_eq!(&req.encode().unwrap()[..], &wire[..]);
            assert_eq!(Request::decode(&wire).unwrap(), req);
        }
    }

    /// Golden model list: the echoed ID, a `u16` count, then the names.
    #[test]
    fn v7_models_encoding_matches_the_golden_bytes() {
        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.push(7); // version 7
        wire.push(4); // OP_LIST_RESULT
        wire.extend_from_slice(&5u64.to_le_bytes()); // request id
        wire.extend_from_slice(&2u16.to_le_bytes()); // two names
        wire.extend_from_slice(&3u16.to_le_bytes());
        wire.extend_from_slice(b"dig");
        wire.extend_from_slice(&1u16.to_le_bytes());
        wire.push(b'm');
        let rsp = Response::Models {
            request_id: 5,
            names: vec!["dig".into(), "m".into()],
        };
        assert_eq!(&rsp.encode().unwrap()[..], &wire[..]);
        assert_eq!(Response::decode(&wire).unwrap(), rsp);
    }

    /// Golden stats response: the echoed ID, the unknown-model counter, a
    /// `u16` count, then per entry the name and 23 words. Every word
    /// holds a different value, so two fields swapped on the wire cannot
    /// pass.
    #[test]
    fn v7_stats_response_encoding_matches_the_golden_bytes() {
        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.push(7); // version 7
        wire.push(6); // OP_STATS_RESULT
        wire.extend_from_slice(&6u64.to_le_bytes()); // request id
        wire.extend_from_slice(&2u64.to_le_bytes()); // unknown-model requests
        wire.extend_from_slice(&1u16.to_le_bytes()); // one entry
        wire.extend_from_slice(&3u16.to_le_bytes());
        wire.extend_from_slice(b"dig");
        for word in 101u64..=123 {
            wire.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(wire.len(), 6 + 8 + 8 + 2 + 5 + 23 * 8);
        let rsp = Response::Stats {
            request_id: 6,
            unknown_model_requests: 2,
            stats: vec![ModelStats {
                model: "dig".into(),
                requests: 101,
                errors: 102,
                total_latency_us: 103,
                max_latency_us: 104,
                queue_depth: 105,
                in_flight: 106,
                shed: 107,
                p50_queue_wait_us: 108,
                p99_queue_wait_us: 109,
                p50_batch_wait_us: 110,
                p99_batch_wait_us: 111,
                p50_service_us: 112,
                p99_service_us: 113,
                p50_wire_us: 114,
                p99_wire_us: 115,
                p50_lease_wait_us: 116,
                p99_lease_wait_us: 117,
                cache_hits: 118,
                cache_misses: 119,
                cache_evictions: 120,
                tokens_out: 121,
                p50_token_gap_us: 122,
                p99_token_gap_us: 123,
            }],
        };
        assert_eq!(&rsp.encode().unwrap()[..], &wire[..]);
        assert_eq!(Response::decode(&wire).unwrap(), rsp);
    }

    /// One layout, one version: every frame kind stamped with any version
    /// byte but ours — the six retired ones, 0, the next one, 255 — is
    /// refused by the full decoders and by the no-decode readers alike,
    /// with a protocol error naming the version received and the one
    /// spoken. Nothing is zero-filled, nothing is misparsed.
    #[test]
    fn decoders_refuse_every_version_but_ours() {
        let tensor = || Tensor::from_vec(Shape::mat(1, 1), vec![2.0]).unwrap();
        let trace = ServerTrace {
            request_id: 7,
            ..ServerTrace::default()
        };
        // The infer golden is built at the version asked for; every other
        // kind is encoded, then re-stamped.
        let requests = [
            Request::ListModels { request_id: 7 },
            Request::Stats { request_id: 7 },
            Request::StreamInfer {
                model: "m".into(),
                input: tensor(),
                request_id: 7,
                mode: StreamMode::Generative { max_tokens: 3 },
            },
        ];
        let responses = [
            Response::Output {
                tensor: tensor(),
                trace,
            },
            Response::Error {
                request_id: 7,
                message: "nope".into(),
            },
            Response::Models {
                request_id: 7,
                names: vec!["m".into()],
            },
            Response::Stats {
                request_id: 7,
                unknown_model_requests: 0,
                stats: vec![],
            },
            Response::Busy {
                request_id: 7,
                model: "m".into(),
                queue_depth: 1,
            },
            Response::Chunk {
                tensor: tensor(),
                trace,
                seq: 0,
                last: true,
            },
        ];
        let refused = |what: &str, version: u8, err: DjinnError| match err {
            DjinnError::Protocol { reason } => assert!(
                reason.contains(&version.to_string()) && reason.contains(&VERSION.to_string()),
                "{what} at version {version}: the refusal must hold both numbers: {reason}"
            ),
            other => panic!("{what} at version {version}: expected Protocol, got {other}"),
        };
        let stamp = |encoded: &[u8], version: u8| {
            let mut wire = encoded.to_vec();
            wire[4] = version;
            wire
        };
        for version in (0..VERSION).chain([VERSION + 1, 255]) {
            let encoded = requests
                .iter()
                .map(|r| stamp(&r.encode().unwrap(), version));
            for wire in std::iter::once(infer_golden(version)).chain(encoded) {
                refused(
                    "Request::decode",
                    version,
                    Request::decode(&wire).unwrap_err(),
                );
                refused("peek_request", version, peek_request(&wire).unwrap_err());
            }
            for rsp in &responses {
                let wire = stamp(&rsp.encode().unwrap(), version);
                refused(
                    "Response::decode",
                    version,
                    Response::decode(&wire).unwrap_err(),
                );
                refused(
                    "response_id_slot",
                    version,
                    response_id_slot(&wire).unwrap_err(),
                );
            }
        }
    }

    /// Round-trip stability: encode → decode → encode is byte-identical
    /// for every frame type, so re-encoding a relayed frame never
    /// perturbs the wire image.
    #[test]
    fn reencoding_is_byte_stable() {
        let stats_entry = ModelStats {
            model: "dig".into(),
            requests: 42,
            errors: 1,
            total_latency_us: 10_000,
            max_latency_us: 900,
            queue_depth: 3,
            in_flight: 2,
            shed: 7,
            p50_queue_wait_us: 120,
            p99_queue_wait_us: 4_500,
            p50_batch_wait_us: 80,
            p99_batch_wait_us: 1_900,
            p50_service_us: 2_400,
            p99_service_us: 3_100,
            p50_wire_us: 60,
            p99_wire_us: 700,
            p50_lease_wait_us: 35,
            p99_lease_wait_us: 880,
            cache_hits: 5,
            cache_misses: 37,
            cache_evictions: 1,
            tokens_out: 640,
            p50_token_gap_us: 210,
            p99_token_gap_us: 2_900,
        };
        let requests = [
            infer_request(),
            Request::ListModels { request_id: 3 },
            Request::Stats { request_id: 4 },
        ];
        for req in requests {
            let once = req.encode().unwrap();
            let again = Request::decode(&once).unwrap().encode().unwrap();
            assert_eq!(once, again, "request re-encode drifted");
        }
        let responses = [
            Response::Output {
                tensor: Tensor::from_vec(Shape::mat(1, 2), vec![1.0, 2.0]).unwrap(),
                trace: ServerTrace {
                    request_id: 7,
                    queue_us: 1,
                    batch_us: 2,
                    lease_us: 4,
                    service_us: 3,
                    server_total_us: 9,
                    cache_hit: true,
                    first_token_us: 0,
                    tokens: 0,
                },
            },
            Response::Error {
                request_id: 9,
                message: "nope".into(),
            },
            Response::Models {
                request_id: 5,
                names: vec!["a".into(), "b".into()],
            },
            Response::Stats {
                request_id: 6,
                unknown_model_requests: 2,
                stats: vec![stats_entry],
            },
            Response::Busy {
                request_id: 512,
                model: "imc".into(),
                queue_depth: 128,
            },
        ];
        for rsp in responses {
            let once = rsp.encode().unwrap();
            let again = Response::decode(&once).unwrap().encode().unwrap();
            assert_eq!(once, again, "response re-encode drifted");
        }
    }
}

/// The headline regression: before ID correlation, a response that
/// arrived after its request timed out sat in the read buffer and was
/// returned — wrong tensor and all — to whatever call read next.
mod stale_responses {
    use super::*;

    /// A scripted single-connection peer: decodes infer requests and
    /// answers them with caller-chosen tensors at caller-chosen times,
    /// so the test controls exactly when each response hits the wire.
    pub(super) struct Scripted {
        stream: TcpStream,
        requests: FrameReader,
    }

    pub(super) fn accept_one(listener: &TcpListener) -> Scripted {
        let (stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        Scripted {
            stream,
            requests: FrameReader::new(),
        }
    }

    /// The next request frame, decoded.
    pub(super) fn read_request(peer: &mut Scripted) -> Request {
        Request::decode(&next_frame(&mut peer.requests, &peer.stream)).unwrap()
    }

    /// Writes `rsp` as one frame.
    pub(super) fn write_response(peer: &mut Scripted, rsp: &Response) {
        let mut frame = BytesMut::new();
        rsp.encode_framed_into(&mut frame).unwrap();
        peer.stream.write_all(&frame).unwrap();
    }

    fn read_infer(stream: &mut Scripted) -> u64 {
        let Request::Infer { request_id, .. } = read_request(stream) else {
            panic!("expected Infer");
        };
        request_id
    }

    pub(super) fn write_output(stream: &mut Scripted, request_id: u64, value: f32) {
        let rsp = Response::Output {
            tensor: Tensor::from_vec(Shape::mat(1, 1), vec![value]).unwrap(),
            trace: ServerTrace {
                request_id,
                ..ServerTrace::default()
            },
        };
        write_response(stream, &rsp);
    }

    /// A response delayed past the client's timeout must be *discarded*,
    /// never returned as the answer to the next call. Against the old
    /// order-based correlation this test fails: the second `infer`
    /// returned the first request's 111.0 tensor.
    #[test]
    fn late_response_is_never_returned_to_the_next_call() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut stream = accept_one(&listener);
            let first = read_infer(&mut stream);
            // Answer the first request only after the client's 500 ms
            // timeout has long fired.
            std::thread::sleep(Duration::from_millis(800));
            write_output(&mut stream, first, 111.0);
            let second = read_infer(&mut stream);
            write_output(&mut stream, second, 222.0);
        });

        let mut client =
            DjinnClient::connect_with_timeout(addr, Duration::from_millis(500)).unwrap();
        let input = Tensor::from_vec(Shape::mat(1, 1), vec![1.0]).unwrap();

        let err = client.infer("m", &input).unwrap_err();
        assert!(
            matches!(&err, DjinnError::Io(e) if e.kind() == std::io::ErrorKind::TimedOut),
            "first call must surface the timeout, got: {err}"
        );

        // The stale 111.0 response arrives *during* this second call; it
        // must be drained, and the call must return its own answer.
        let (out, record) = client.infer_traced("m", &input).unwrap();
        assert_eq!(
            out.data(),
            &[222.0],
            "second call returned the first call's stale response"
        );
        assert_ne!(record.request_id, 0);
        peer.join().unwrap();
    }

    /// The stale-only variant: the peer answers the timed-out request
    /// and then goes mute. The next call must time out — reporting the
    /// truth that *its* answer never came — rather than dressing the
    /// stale tensor up as a success.
    #[test]
    fn next_call_times_out_rather_than_accept_a_stale_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut stream = accept_one(&listener);
            let first = read_infer(&mut stream);
            std::thread::sleep(Duration::from_millis(700));
            write_output(&mut stream, first, 111.0);
            let _second = read_infer(&mut stream);
            // Never answer the second request; keep the socket open so
            // the client's timeout — not a closed connection — decides.
            std::thread::sleep(Duration::from_millis(1500));
        });

        let mut client =
            DjinnClient::connect_with_timeout(addr, Duration::from_millis(400)).unwrap();
        let input = Tensor::from_vec(Shape::mat(1, 1), vec![1.0]).unwrap();

        client.infer("m", &input).unwrap_err();
        let err = client.infer("m", &input).unwrap_err();
        assert!(
            matches!(&err, DjinnError::Io(e) if e.kind() == std::io::ErrorKind::TimedOut),
            "stale response must not satisfy the second call, got: {err}"
        );
        peer.join().unwrap();
    }

    /// Regression for the control-call correlation rule: an uncorrelated
    /// (id-0) `Error` arriving while a control call is blocked must
    /// answer the *control call*, even with infers in flight. The old
    /// rule only accepted an id-0 error when nothing was pending, so the
    /// error fell into the order-front fallback instead: it was
    /// misattributed to the oldest in-flight infer, and when the infer's
    /// real answer later arrived it correlated with nothing — the stats
    /// call came back `ConnectionPoisoned` and the infer's result was a
    /// lie.
    #[test]
    fn uncorrelated_error_answers_the_blocked_control_call() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut stream = accept_one(&listener);
            let held = read_infer(&mut stream);
            // The stats frame arrives next; this peer cannot decode it
            // (say, a corrupted or unsupported control frame) and
            // answers with an uncorrelated error, like the real server
            // does for any undecodable request.
            assert!(matches!(read_request(&mut stream), Request::Stats { .. }));
            let err = Response::Error {
                request_id: 0,
                message: "stats frame not supported".into(),
            };
            write_response(&mut stream, &err);
            // The held infer completes only afterwards.
            write_output(&mut stream, held, 222.0);
        });

        let mut client = DjinnClient::connect_with_timeout(addr, Duration::from_secs(2)).unwrap();
        let input = Tensor::from_vec(Shape::mat(1, 1), vec![1.0]).unwrap();
        let held_id = client.submit("m", &input).unwrap();

        // The control call must surface the server's error promptly —
        // not time out, not poison the connection.
        let err = client.stats().unwrap_err();
        assert!(
            matches!(&err, DjinnError::Remote { message } if message.contains("not supported")),
            "the uncorrelated error answers the control call, got: {err}"
        );

        // And the in-flight infer is untouched: its real completion
        // arrives with its own ID and the right tensor.
        let done = client.recv_next().unwrap();
        assert_eq!(done.request_id, held_id);
        let (out, _) = done.result.unwrap();
        assert_eq!(
            out.data(),
            &[222.0],
            "the pending infer must keep its own answer"
        );
        peer.join().unwrap();
    }

    /// Regression for the abandoned-ID window: the client remembers only
    /// the last 64 abandoned request IDs, so after 65 timeouts the
    /// *oldest* abandoned ID has been evicted — and its late response
    /// used to fall through the stale-drain into the poison path, killing
    /// a connection that had done nothing wrong. Any unknown response ID
    /// at or below the connection's issued high-water mark is now drained
    /// as stale; only IDs the client never issued poison.
    #[test]
    fn evicted_abandoned_ids_late_response_is_still_drained() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut stream = accept_one(&listener);
            // Swallow 65 requests without answering: every one of them
            // times out client-side and lands in the abandoned window,
            // evicting the first.
            let ids: Vec<u64> = (0..65).map(|_| read_infer(&mut stream)).collect();
            // The 66th request gets real service — but its answer is
            // preceded by the *evicted* oldest ID's late response.
            let live = read_infer(&mut stream);
            write_output(&mut stream, ids[0], 111.0);
            write_output(&mut stream, live, 222.0);
        });

        let mut client =
            DjinnClient::connect_with_timeout(addr, Duration::from_millis(40)).unwrap();
        let input = Tensor::from_vec(Shape::mat(1, 1), vec![1.0]).unwrap();
        for i in 0..65 {
            let err = client.infer("m", &input).unwrap_err();
            assert!(
                matches!(&err, DjinnError::Io(e) if e.kind() == std::io::ErrorKind::TimedOut),
                "call {i} must time out, got: {err}"
            );
        }
        // Give the pending answers time to arrive for this final call.
        client.set_io_timeout(Some(Duration::from_secs(2))).unwrap();
        let out = client.infer("m", &input).expect(
            "a late response to an evicted abandoned ID must be drained, not poison the connection",
        );
        assert_eq!(out.data(), &[222.0]);
        peer.join().unwrap();
    }

    /// A response whose ID matches no in-flight request means the stream
    /// can no longer be trusted: the call fails with a poisoned-connection
    /// error and every later call fails fast the same way.
    #[test]
    fn uncorrelatable_response_poisons_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut stream = accept_one(&listener);
            let _id = read_infer(&mut stream);
            write_output(&mut stream, 0xDEAD_BEEF, 333.0);
        });

        let mut client = DjinnClient::connect_with_timeout(addr, Duration::from_secs(2)).unwrap();
        let input = Tensor::from_vec(Shape::mat(1, 1), vec![1.0]).unwrap();

        let err = client.infer("m", &input).unwrap_err();
        assert!(
            matches!(err, DjinnError::ConnectionPoisoned { .. }),
            "unknown correlation ID must poison, got: {err}"
        );
        // Fail-fast: no further I/O is attempted on a poisoned stream.
        let err = client.infer("m", &input).unwrap_err();
        assert!(matches!(err, DjinnError::ConnectionPoisoned { .. }));
        peer.join().unwrap();
    }
}

/// A call that blocks for one request keeps, in arrival order, every
/// frame that answers another: one-shot completions for `recv_next`,
/// chunks for their stream's `recv_chunk`. A scripted peer fixes the
/// order the frames arrive in.
mod cross_kind_stashing {
    use super::stale_responses::{accept_one, write_output, write_response, Scripted};
    use super::*;

    /// Reads one request frame of any kind and returns its ID.
    fn read_request(stream: &mut Scripted) -> u64 {
        super::stale_responses::read_request(stream).request_id()
    }

    fn write_chunk(stream: &mut Scripted, request_id: u64, seq: u32, last: bool) {
        let rsp = Response::Chunk {
            tensor: Tensor::from_vec(Shape::mat(1, 1), vec![seq as f32]).unwrap(),
            trace: ServerTrace {
                request_id,
                ..ServerTrace::default()
            },
            seq,
            last,
        };
        write_response(stream, &rsp);
    }

    fn one() -> Tensor {
        Tensor::from_vec(Shape::mat(1, 1), vec![1.0]).unwrap()
    }

    #[test]
    fn a_blocked_infer_keeps_a_chunk_and_another_completion_for_later() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut stream = accept_one(&listener);
            let s = read_request(&mut stream);
            let b = read_request(&mut stream);
            let a = read_request(&mut stream);
            write_chunk(&mut stream, s, 0, false);
            write_output(&mut stream, b, 222.0);
            write_output(&mut stream, a, 111.0);
            write_chunk(&mut stream, s, 1, true);
        });

        let mut client = DjinnClient::connect_with_timeout(addr, Duration::from_secs(2)).unwrap();
        let s = client
            .stream_infer("m", &one(), StreamMode::Generative { max_tokens: 2 })
            .unwrap();
        let b = client.submit("m", &one()).unwrap();
        let a = client.infer("m", &one()).unwrap();
        assert_eq!(a.data(), &[111.0], "infer must return its own answer");

        let done = client.recv_next().unwrap();
        assert_eq!(done.request_id, b);
        assert_eq!(done.result.unwrap().0.data(), &[222.0]);

        let first = client.recv_chunk(s).unwrap();
        assert_eq!((first.seq, first.last), (0, false));
        let second = client.recv_chunk(s).unwrap();
        assert_eq!((second.seq, second.last), (1, true));
        peer.join().unwrap();
    }

    #[test]
    fn an_uncorrelated_error_answers_the_oldest_infer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut stream = accept_one(&listener);
            let _a = read_request(&mut stream);
            let b = read_request(&mut stream);
            let err = Response::Error {
                request_id: 0,
                message: "request frame not understood".into(),
            };
            write_response(&mut stream, &err);
            write_output(&mut stream, b, 222.0);
        });

        let mut client = DjinnClient::connect_with_timeout(addr, Duration::from_secs(2)).unwrap();
        let a = client.submit("m", &one()).unwrap();
        let b = client.submit("m", &one()).unwrap();

        let first = client.recv_next().unwrap();
        assert_eq!(
            first.request_id, a,
            "an ID-0 error goes to the oldest infer"
        );
        assert!(
            matches!(&first.result, Err(DjinnError::Remote { message }) if message.contains("not understood")),
            "got: {:?}",
            first.result
        );
        let second = client.recv_next().unwrap();
        assert_eq!(second.request_id, b);
        assert_eq!(second.result.unwrap().0.data(), &[222.0]);
        peer.join().unwrap();
    }

    #[test]
    fn a_control_call_keeps_the_frames_queued_ahead_of_its_answer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut stream = accept_one(&listener);
            let s = read_request(&mut stream);
            let b = read_request(&mut stream);
            let list = read_request(&mut stream);
            write_output(&mut stream, b, 222.0);
            write_chunk(&mut stream, s, 0, true);
            let models = Response::Models {
                request_id: list,
                names: vec!["m".into(), "n".into()],
            };
            write_response(&mut stream, &models);
        });

        let mut client = DjinnClient::connect_with_timeout(addr, Duration::from_secs(2)).unwrap();
        let s = client
            .stream_infer("m", &one(), StreamMode::Generative { max_tokens: 1 })
            .unwrap();
        let b = client.submit("m", &one()).unwrap();
        assert_eq!(client.list_models().unwrap(), vec!["m", "n"]);

        let done = client.recv_next().unwrap();
        assert_eq!(done.request_id, b);
        assert_eq!(done.result.unwrap().0.data(), &[222.0]);
        let chunk = client.recv_chunk(s).unwrap();
        assert_eq!((chunk.seq, chunk.last), (0, true));
        peer.join().unwrap();
    }
}
