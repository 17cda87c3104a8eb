//! Failure injection against the running service: slow clients, dropped
//! connections mid-frame, concurrent chaos — the server must stay up and
//! keep serving well-formed traffic.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use djinn_tonic::djinn::{BatchConfig, DjinnClient, DjinnServer, ServerConfig};
use djinn_tonic::tensor::{Shape, Tensor};

fn start() -> DjinnServer {
    let config = ServerConfig {
        batching: Some(BatchConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(1),
        }),
        ..ServerConfig::default()
    };
    DjinnServer::start_with_tonic_models(config).unwrap()
}

#[test]
fn connection_dropped_mid_frame_does_not_wedge_the_server() {
    let server = start();
    let addr = server.local_addr();
    // Advertise a large frame, send half of it, vanish.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&(1_000_000u32).to_le_bytes()).unwrap();
        s.write_all(&vec![0xAB; 1000]).unwrap();
        // drop: connection closes with the frame incomplete
    }
    // Other clients are unaffected.
    let mut client = DjinnClient::connect(addr).unwrap();
    let out = client
        .infer("dig", &Tensor::zeros(Shape::nchw(1, 1, 28, 28)))
        .unwrap();
    assert_eq!(out.shape().as_matrix().1, 10);
    server.shutdown();
}

#[test]
fn zero_length_frames_are_survivable() {
    let server = start();
    let addr = server.local_addr();
    {
        let mut s = TcpStream::connect(addr).unwrap();
        // Three zero-length frames (decode fails; server answers errors or
        // drops — either way it must not crash).
        for _ in 0..3 {
            s.write_all(&0u32.to_le_bytes()).unwrap();
        }
        s.flush().unwrap();
    }
    let mut client = DjinnClient::connect(addr).unwrap();
    assert!(client.list_models().is_ok());
    server.shutdown();
}

#[test]
fn a_burst_of_mixed_good_and_bad_clients() {
    let server = start();
    let addr = server.local_addr();
    let mut handles = Vec::new();
    for i in 0..8u64 {
        handles.push(std::thread::spawn(move || {
            if i % 2 == 0 {
                // Hostile client: garbage frames.
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let junk = vec![(i % 251) as u8; 64];
                    let _ = s.write_all(&(junk.len() as u32).to_le_bytes());
                    let _ = s.write_all(&junk);
                }
                true
            } else {
                // Honest client: real queries.
                let mut c = DjinnClient::connect(addr).unwrap();
                let input = Tensor::random_uniform(Shape::nchw(1, 1, 28, 28), 1.0, i);
                (0..4).all(|_| c.infer("dig", &input).is_ok())
            }
        }));
    }
    for h in handles {
        assert!(h.join().unwrap());
    }
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_without_allocation_bomb() {
    let server = start();
    let addr = server.local_addr();
    {
        let mut s = TcpStream::connect(addr).unwrap();
        // Advertise 4 GiB; the server must refuse rather than allocate.
        s.write_all(&u32::MAX.to_le_bytes()).unwrap();
        s.flush().unwrap();
    }
    let mut client = DjinnClient::connect(addr).unwrap();
    assert!(client.list_models().is_ok());
    server.shutdown();
}

/// A request the server cannot decode — a bad tensor behind a readable
/// header, name and ID, or a frame stamped with another wire version —
/// is refused with a typed error and nothing else on the connection, or
/// on any other, is disturbed. Direct and through the router. Every name
/// starts `undecodable_` so CI can run the group by name.
mod undecodable {
    use super::*;
    use djinn_tonic::djinn::protocol::{FrameReader, Request, Response, StreamMode, VERSION};
    use djinn_tonic::djinn::{DjinnError, DjinnRouter, ModelRegistry, RouterConfig};

    const MODEL: &str = "tiny-mnist";

    fn tiny_server() -> DjinnServer {
        let registry = ModelRegistry::with_tiny_test_zoo().unwrap();
        DjinnServer::start(registry, ServerConfig::default()).unwrap()
    }

    fn router_over(replica: &DjinnServer) -> DjinnRouter {
        DjinnRouter::start(RouterConfig {
            replicas: vec![replica.local_addr()],
            stats_interval: Duration::from_millis(10),
            ..RouterConfig::default()
        })
        .unwrap()
    }

    fn input(seed: u64) -> Tensor {
        Tensor::random_uniform(Shape::nchw(1, 1, 12, 12), 0.5, seed)
    }

    fn infer_payload(input: &Tensor, request_id: u64) -> Vec<u8> {
        Request::Infer {
            model: MODEL.into(),
            input: input.clone(),
            request_id,
        }
        .encode()
        .unwrap()
        .to_vec()
    }

    /// An `Infer` whose header, name and ID are intact but whose tensor
    /// claims rank 0: `peek_request` reads it, `Request::decode` cannot.
    fn rank_zero_payload(request_id: u64) -> Vec<u8> {
        let mut payload = infer_payload(&input(0), request_id);
        let rank_at = 6 + 2 + MODEL.len() + 8;
        assert_eq!(payload[rank_at], 4, "the rank byte of an NCHW tensor");
        payload[rank_at] = 0;
        assert!(Request::decode(&payload).is_err());
        payload
    }

    /// A well-formed `Infer` as a peer one wire version behind stamps it.
    fn old_version_payload(request_id: u64) -> Vec<u8> {
        let mut payload = infer_payload(&input(0), request_id);
        payload[4] = VERSION - 1;
        payload
    }

    /// `[u32 len | payload]`: how a peer frames a payload it built by hand.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(payload);
        wire
    }

    /// A raw connection: hand-built payloads go out framed in one write,
    /// replies come in through one `FrameReader`.
    struct Raw {
        stream: TcpStream,
        replies: FrameReader,
    }

    impl Raw {
        fn connect(addr: std::net::SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            Raw {
                stream,
                replies: FrameReader::new(),
            }
        }

        fn send(&mut self, payload: &[u8]) {
            self.stream.write_all(&framed(payload)).unwrap();
        }

        fn recv(&mut self) -> Response {
            let frame = self.replies.read_frame_ref(&self.stream).unwrap();
            Response::decode(frame.expect("a reply within the read timeout")).unwrap()
        }

        /// The next frame, or the read's timeout (`None`) or failure.
        fn try_recv(&mut self) -> Result<Option<Vec<u8>>, DjinnError> {
            let frame = self.replies.read_frame_ref(&self.stream)?;
            Ok(frame.map(<[u8]>::to_vec))
        }
    }

    /// One malformed request of each class, in turn on one connection to
    /// a direct server: each is refused under the ID read from it (0 when
    /// the header, name or ID cannot be read) with the decoder's message,
    /// and the connection serves a good request afterwards.
    #[test]
    fn undecodable_every_malformed_request_keeps_its_refusal() {
        let server = tiny_server();
        let infer = infer_payload(&input(0), 77);
        let stream = Request::StreamInfer {
            model: MODEL.into(),
            input: input(0),
            request_id: 77,
            mode: StreamMode::Generative { max_tokens: 4 },
        }
        .encode()
        .unwrap()
        .to_vec();
        let name_at = 6 + 2;
        let id_at = name_at + MODEL.len();
        let rank_at = id_at + 8; // an Infer's; a StreamInfer's mode byte
        let with = |base: &[u8], at: usize, byte: u8| {
            let mut payload = base.to_vec();
            payload[at] = byte;
            payload
        };
        let cut = |base: &[u8], len: usize| base[..len].to_vec();
        let old = VERSION - 1;
        let table: Vec<(&str, Vec<u8>, u64, String)> = vec![
            ("bad magic", with(&infer, 0, b'X'), 0, "bad magic".into()),
            (
                "wrong version",
                with(&infer, 4, old),
                0,
                format!(
                    "unsupported protocol version {old}: this peer speaks only version {VERSION}"
                ),
            ),
            (
                "unknown opcode",
                with(&infer, 5, 42),
                0,
                "unexpected request opcode 42".into(),
            ),
            (
                "truncated name length",
                cut(&infer, name_at - 1),
                0,
                "truncated string length".into(),
            ),
            (
                "truncated name body",
                cut(&infer, name_at + 3),
                0,
                "truncated string body".into(),
            ),
            (
                "non-UTF-8 name",
                with(&infer, name_at, 0xFF),
                0,
                "string is not utf-8".into(),
            ),
            (
                "truncated ID",
                cut(&infer, id_at + 4),
                0,
                "truncated request id".into(),
            ),
            // Read by `peek_request`, like every ID: the same text as an
            // `Infer` cut there.
            (
                "stream cut in its ID",
                cut(&stream, id_at + 4),
                0,
                "truncated request id".into(),
            ),
            (
                "truncated stream mode",
                cut(&stream, rank_at + 3),
                77,
                "truncated stream request".into(),
            ),
            (
                "unknown mode byte",
                with(&stream, rank_at, 9),
                77,
                "unknown stream mode 9".into(),
            ),
            (
                "rank 0",
                with(&infer, rank_at, 0),
                77,
                "tensor rank 0 out of 1..=4".into(),
            ),
            (
                "rank 5",
                with(&infer, rank_at, 5),
                77,
                "tensor rank 5 out of 1..=4".into(),
            ),
            (
                "truncated dims",
                cut(&infer, rank_at + 1 + 6),
                77,
                "truncated tensor dims".into(),
            ),
            (
                "truncated data",
                cut(&infer, infer.len() - 1),
                77,
                "truncated tensor data".into(),
            ),
        ];
        let mut raw = Raw::connect(server.local_addr());
        for (class, payload, id, reason) in table {
            raw.send(&payload);
            match raw.recv() {
                Response::Error {
                    request_id,
                    message,
                } => {
                    assert_eq!(request_id, id, "{class}: the refusal's ID");
                    assert_eq!(
                        message,
                        format!("protocol violation: {reason}"),
                        "{class}: the refusal's message"
                    );
                }
                other => panic!("{class}: expected a refusal, got {other:?}"),
            }
        }
        raw.send(&infer);
        match raw.recv() {
            Response::Output { trace, .. } => assert_eq!(trace.request_id, 77),
            other => panic!("expected an output after the refusals, got {other:?}"),
        }
        server.shutdown();
    }

    fn assert_names_both_versions(message: &str) {
        let (got, ours) = ((VERSION - 1).to_string(), VERSION.to_string());
        assert!(
            message.contains(&got) && message.contains(&ours),
            "the refusal must name the version received and the one spoken: {message}"
        );
    }

    /// Pipelined on one connection: good, undecodable (ID 4242), good. The
    /// error must come back under 4242 — an id-0 error would be pinned on
    /// the oldest in-flight request by a client's order-front rule — and
    /// both good requests get their own outputs.
    #[test]
    fn undecodable_request_is_refused_under_its_own_id() {
        let server = tiny_server();
        let (a, b) = (input(1), input(2));
        let mut reference = DjinnClient::connect(server.local_addr()).unwrap();
        let want_a = reference.infer(MODEL, &a).unwrap();
        let want_b = reference.infer(MODEL, &b).unwrap();

        let mut wire = framed(&infer_payload(&a, 11));
        wire.extend(framed(&rank_zero_payload(4242)));
        wire.extend(framed(&infer_payload(&b, 13)));
        let mut raw = Raw::connect(server.local_addr());
        raw.stream.write_all(&wire).unwrap();

        let mut refused = false;
        let mut outputs = std::collections::HashMap::new();
        for _ in 0..3 {
            match raw.recv() {
                Response::Error { request_id, .. } => {
                    assert_eq!(request_id, 4242, "the error must carry the bad frame's ID");
                    refused = true;
                }
                Response::Output { tensor, trace } => {
                    outputs.insert(trace.request_id, tensor);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(refused);
        assert_eq!(outputs.get(&11), Some(&want_a));
        assert_eq!(outputs.get(&13), Some(&want_b));
        server.shutdown();
    }

    /// The same bad frame through the router: the replica's refusal comes
    /// back under the router's upstream ID, so it reaches the client under
    /// the client's ID (an id-0 refusal matched nothing and was dropped —
    /// silence until the client's timeout), the connection keeps serving,
    /// and the router holds nothing in flight afterwards.
    #[test]
    fn undecodable_request_through_the_router_is_refused_and_retired() {
        let replica = tiny_server();
        let router = router_over(&replica);
        let mut raw = Raw::connect(router.local_addr());

        let asked = std::time::Instant::now();
        raw.send(&rank_zero_payload(4242));
        match raw.recv() {
            Response::Error { request_id, .. } => assert_eq!(request_id, 4242),
            other => panic!("expected the refusal, got {other:?}"),
        }
        assert!(
            asked.elapsed() < Duration::from_secs(2),
            "the refusal must arrive well inside the I/O timeout"
        );

        raw.send(&infer_payload(&input(3), 7));
        match raw.recv() {
            Response::Output { trace, .. } => assert_eq!(trace.request_id, 7),
            other => panic!("expected an output, got {other:?}"),
        }

        // A router answers whatever it still holds in flight on a lost
        // replica with a correlated error: losing the replica now must
        // produce no frame at all.
        replica.shutdown();
        raw.stream
            .set_read_timeout(Some(Duration::from_millis(400)))
            .unwrap();
        match raw.try_recv() {
            Ok(None) => {}
            other => panic!("the router still held a request in flight: {other:?}"),
        }
        router.shutdown();
    }

    /// A frame stamped with another wire version draws the typed refusal;
    /// the same connection then serves a well-formed request, and a
    /// connection opened beforehand never notices.
    #[test]
    fn undecodable_old_version_frame_is_refused_and_the_connection_keeps_serving() {
        let server = tiny_server();
        let mut bystander = DjinnClient::connect(server.local_addr()).unwrap();
        let want = bystander.infer(MODEL, &input(5)).unwrap();

        let mut raw = Raw::connect(server.local_addr());
        raw.send(&old_version_payload(21));
        match raw.recv() {
            Response::Error { message, .. } => assert_names_both_versions(&message),
            other => panic!("expected the refusal, got {other:?}"),
        }
        raw.send(&infer_payload(&input(5), 22));
        match raw.recv() {
            Response::Output { tensor, trace } => {
                assert_eq!(trace.request_id, 22);
                assert_eq!(tensor, want);
            }
            other => panic!("expected an output, got {other:?}"),
        }
        assert_eq!(bystander.infer(MODEL, &input(5)).unwrap(), want);
        server.shutdown();
    }

    /// Through the router the refusal arrives and the connection closes:
    /// a peer whose frames cannot even be peeked cannot be routed.
    #[test]
    fn undecodable_old_version_frame_through_the_router_is_refused_and_closed() {
        let replica = tiny_server();
        let router = router_over(&replica);
        let mut raw = Raw::connect(router.local_addr());
        raw.send(&old_version_payload(21));
        match raw.recv() {
            Response::Error { message, .. } => assert_names_both_versions(&message),
            other => panic!("expected the refusal, got {other:?}"),
        }
        match raw.try_recv() {
            Err(DjinnError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {}
            other => panic!("the router must close the connection, got {other:?}"),
        }
        // Other clients of the router are unharmed.
        let mut client = DjinnClient::connect(router.local_addr()).unwrap();
        assert!(client.infer(MODEL, &input(6)).is_ok());
        router.shutdown();
        replica.shutdown();
    }
}

/// Peers that stall instead of failing: a replica that accepts and never
/// answers or never completes a connect, a client that pipelines and
/// never reads. None may hold up anyone else, through the server or the
/// router. Every name starts `stalled_` so CI can run the group by name.
mod stalled {
    use super::*;
    use bytes::BytesMut;
    use djinn_tonic::djinn::protocol::{ModelStats, Request, StreamMode};
    use djinn_tonic::djinn::{DjinnRouter, ModelRegistry, RouterConfig};
    use djinn_tonic::dnn::{parser, Network};
    use std::io::Read;
    use std::net::{SocketAddr, TcpListener};
    use std::thread::JoinHandle;
    use std::time::Instant;

    /// How long the service keeps a peer that takes none of its output.
    const STALL_LIMIT: Duration = Duration::from_secs(5);

    fn tiny_server() -> DjinnServer {
        let registry = ModelRegistry::with_tiny_test_zoo().unwrap();
        DjinnServer::start(registry, ServerConfig::default()).unwrap()
    }

    fn router_over(replicas: &[&DjinnServer]) -> DjinnRouter {
        DjinnRouter::start(RouterConfig {
            replicas: replicas.iter().map(|r| r.local_addr()).collect(),
            stats_interval: Duration::from_millis(10),
            ..RouterConfig::default()
        })
        .unwrap()
    }

    /// Stops the second of two replicas, lets `silence` take its port, and
    /// checks for 3 s — long enough for redials, their timeouts and redials
    /// again — that requests the router sends the live one answer
    /// promptly.
    fn redials_do_not_block_the_router<T>(silence: impl FnOnce(SocketAddr) -> T) {
        let live = tiny_server();
        let doomed = tiny_server();
        let doomed_addr = doomed.local_addr();
        let router = router_over(&[&live, &doomed]);
        let mut client = DjinnClient::connect(router.local_addr()).unwrap();
        let input = Tensor::random_uniform(Shape::nchw(1, 1, 12, 12), 0.5, 1);
        client.infer("tiny-mnist", &input).unwrap();

        doomed.shutdown();
        // Let the router see the replica go before its port is taken.
        std::thread::sleep(Duration::from_millis(50));
        let _silent = silence(doomed_addr);
        let until = Instant::now() + Duration::from_secs(3);
        let mut slowest = Duration::ZERO;
        while Instant::now() < until {
            let asked = Instant::now();
            client.infer("tiny-mnist", &input).unwrap();
            slowest = slowest.max(asked.elapsed());
        }
        assert!(
            slowest < Duration::from_millis(250),
            "a request took {slowest:?} while a replica's redial hung"
        );
        router.shutdown();
        live.shutdown();
    }

    /// A replica that is restarting or wedged: its port accepts, and
    /// nothing ever answers `ListModels`.
    #[test]
    fn stalled_replica_handshake_does_not_block_the_router() {
        redials_do_not_block_the_router(|addr| TcpListener::bind(addr).unwrap());
    }

    /// An address that swallows connection attempts, as an unreachable
    /// host does: a listener whose accept queue is full, so the kernel
    /// drops the router's SYNs and its connect never completes.
    #[test]
    fn stalled_replica_connect_does_not_block_the_router() {
        redials_do_not_block_the_router(|addr| {
            let listener = TcpListener::bind(addr).unwrap();
            // Connect until one times out: then the queue is full.
            let mut queued = Vec::new();
            while let Ok(s) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
                queued.push(s);
                assert!(queued.len() < 10_000, "the accept queue never filled");
            }
            (listener, queued)
        });
    }

    /// One input number in, 1 024 out: the replies are 4 KiB per input
    /// row, so a client can ask for far more than it sends.
    fn wide_server() -> DjinnServer {
        let def = parser::parse_netdef("name: wide\ninput: 1\nlayer fc1 fc out=1024\n").unwrap();
        let mut registry = ModelRegistry::new();
        registry.register("wide", Network::with_random_weights(def, 3).unwrap());
        let config = ServerConfig {
            // Room to admit a whole flood: the stall under test is in
            // writing replies, not in admission.
            queue_capacity: 4096,
            ..ServerConfig::default()
        };
        DjinnServer::start(registry, config).unwrap()
    }

    /// `n` pipelined requests for 128 KiB replies each, framed.
    fn flood(n: u64) -> Vec<u8> {
        let input = Tensor::random_uniform(Shape::mat(32, 1), 1.0, 5);
        let mut wire = Vec::new();
        let mut frame = BytesMut::new();
        for request_id in 1..=n {
            let request = Request::Infer {
                model: "wide".into(),
                input: input.clone(),
                request_id,
            };
            request.encode_framed_into(&mut frame).unwrap();
            wire.extend_from_slice(&frame);
        }
        wire
    }

    /// Waits (up to `within`) until `count` of the wide model's stats
    /// stops moving, and returns it.
    fn settle(
        client: &mut DjinnClient,
        within: Duration,
        count: impl Fn(&ModelStats) -> u64,
    ) -> u64 {
        let mut last = u64::MAX;
        let started = Instant::now();
        while started.elapsed() < within {
            std::thread::sleep(Duration::from_millis(100));
            let stats = client.stats().unwrap();
            let now = count(stats.iter().find(|s| s.model == "wide").unwrap());
            if now == last {
                break;
            }
            last = now;
        }
        last
    }

    fn answered(s: &ModelStats) -> u64 {
        s.requests
    }

    /// Connects a client that pipelines `n` requests for 128 KiB replies
    /// and reads none. It writes from a thread of its own: a service that
    /// stops reading it may leave that write blocked until it drops it.
    fn stalled_client(addr: SocketAddr, n: u64) -> (TcpStream, JoinHandle<()>) {
        let a = TcpStream::connect(addr).unwrap();
        let mut w = a.try_clone().unwrap();
        let writer = std::thread::spawn(move || {
            let _ = w.write_all(&flood(n));
        });
        (a, writer)
    }

    /// Client A pipelines `n` requests whose 128 KiB replies add up to
    /// far more than socket buffers hold, and never reads. Client B, on
    /// the same model, must keep getting answers within a second, and A
    /// must be dropped once it has taken nothing for the stall limit.
    fn a_reader_that_stops_is_dropped_alone(addr: SocketAddr, n: u64) {
        let (mut a, writer) = stalled_client(addr, n);
        let flooded = Instant::now();

        let mut b = DjinnClient::connect_with_timeout(addr, Duration::from_secs(10)).unwrap();
        // B's requests are to measure the stall, not a fair wait behind
        // A's admitted work: let the service finish with A first (where
        // A's replies wedge the engine, it finishes nothing before the 5 s
        // write bound such a server had).
        settle(&mut b, Duration::from_secs(3), answered);
        for i in 0..10 {
            let asked = Instant::now();
            let out = b.infer("wide", &Tensor::zeros(Shape::mat(1, 1))).unwrap();
            assert_eq!(out.shape().dims(), &[1, 1024]);
            assert!(
                asked.elapsed() < Duration::from_secs(1),
                "request {i} took {:?} behind a client that stopped reading",
                asked.elapsed()
            );
        }

        // A was dropped: past its stall limit it reads to the connection's
        // end (or a reset), not into a timeout. (Any read by A before then
        // takes some of its output and restarts the clock.)
        let dropped_by = STALL_LIMIT + Duration::from_secs(3);
        std::thread::sleep(dropped_by.saturating_sub(flooded.elapsed()));
        a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut sink = vec![0u8; 1 << 20];
        loop {
            match a.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
                Err(e) => panic!("the stalled reader was never dropped: {e}"),
            }
        }
        writer.join().unwrap();
    }

    /// 1 600 requests, 210 MB of replies. A server whose connections each
    /// had a writer thread blocked that writer on A's full socket, then
    /// every engine worker on A's full 1 024-deep reply channel: B waited
    /// for the 5 s write bound. This one reads A's whole flood before the
    /// first replies back up, and answers all 1 600 requests in well under
    /// a second: what A asked for waits in A's own write buffer, where it
    /// holds up no one else. (Bounding what one connection may have
    /// admitted is a separate question.)
    #[test]
    fn stalled_reader_is_dropped_without_stalling_others_direct() {
        let server = wide_server();
        a_reader_that_stops_is_dropped_alone(server.local_addr(), 1600);
        server.shutdown();
    }

    /// 256 requests, 32 MB of replies. The router reads its replica's
    /// replies whoever they are for, so A's stall stays in A's own buffer
    /// there, and the replica never finds the router slow. (Replies come
    /// back well after the router forwarded A's requests, so it holds what
    /// A asked for, not a few dozen: hence the smaller flood.)
    #[test]
    fn stalled_reader_is_dropped_without_stalling_others_routed() {
        let replica = wide_server();
        let router = router_over(&[&replica]);
        a_reader_that_stops_is_dropped_alone(router.local_addr(), 256);
        router.shutdown();
        replica.shutdown();
    }

    /// Shutdown answers what was admitted, but a peer that stopped
    /// reading cannot hold it past its stall limit.
    #[test]
    fn stalled_reader_cannot_hold_shutdown() {
        let server = wide_server();
        let (_a, writer) = stalled_client(server.local_addr(), 256);
        let mut b = DjinnClient::connect(server.local_addr()).unwrap();
        settle(&mut b, Duration::from_secs(10), answered);
        drop(b);
        let asked = Instant::now();
        server.shutdown();
        assert!(
            asked.elapsed() < Duration::from_secs(10),
            "shutdown took {:?} behind a client that stopped reading",
            asked.elapsed()
        );
        writer.join().unwrap();
    }

    /// A stream whose client reads nothing decodes only as far ahead as
    /// its connection buffers for it — here, of 1 000 windows of 128 KiB,
    /// well under half — and not to its end.
    #[test]
    fn stalled_stream_reader_holds_its_stream() {
        const WINDOWS: u64 = 1000;
        let server = wide_server();
        let mut a = TcpStream::connect(server.local_addr()).unwrap();
        let request = Request::StreamInfer {
            model: "wide".into(),
            input: Tensor::zeros(Shape::mat(32 * WINDOWS as usize, 1)),
            request_id: 1,
            mode: StreamMode::Windowed { window_rows: 32 },
        };
        let mut frame = BytesMut::new();
        request.encode_framed_into(&mut frame).unwrap();
        a.write_all(&frame).unwrap();
        let mut b = DjinnClient::connect(server.local_addr()).unwrap();
        let decoded = settle(&mut b, Duration::from_secs(10), |s| s.tokens_out);
        assert!(
            (1..WINDOWS / 2).contains(&decoded),
            "{decoded} of {WINDOWS} windows decoded for a client reading none"
        );
        // Gone, the client retires its stream.
        drop(a);
        let retired = settle(&mut b, Duration::from_secs(10), |s| s.tokens_out);
        assert!(retired < WINDOWS, "the stream decoded to its end");
        server.shutdown();
    }
}
