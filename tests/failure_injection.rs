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
    use djinn_tonic::djinn::protocol::{read_frame, write_frame, Request, Response, VERSION};
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

    fn raw_connect(addr: std::net::SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
    }

    fn read_response(stream: &mut TcpStream) -> Response {
        Response::decode(&read_frame(stream).unwrap()).unwrap()
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

        let mut wire = Vec::new();
        write_frame(&mut wire, &infer_payload(&a, 11)).unwrap();
        write_frame(&mut wire, &rank_zero_payload(4242)).unwrap();
        write_frame(&mut wire, &infer_payload(&b, 13)).unwrap();
        let mut stream = raw_connect(server.local_addr());
        stream.write_all(&wire).unwrap();

        let mut refused = false;
        let mut outputs = std::collections::HashMap::new();
        for _ in 0..3 {
            match read_response(&mut stream) {
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
        let mut stream = raw_connect(router.local_addr());

        let asked = std::time::Instant::now();
        write_frame(&mut stream, &rank_zero_payload(4242)).unwrap();
        match read_response(&mut stream) {
            Response::Error { request_id, .. } => assert_eq!(request_id, 4242),
            other => panic!("expected the refusal, got {other:?}"),
        }
        assert!(
            asked.elapsed() < Duration::from_secs(2),
            "the refusal must arrive well inside the I/O timeout"
        );

        write_frame(&mut stream, &infer_payload(&input(3), 7)).unwrap();
        match read_response(&mut stream) {
            Response::Output { trace, .. } => assert_eq!(trace.request_id, 7),
            other => panic!("expected an output, got {other:?}"),
        }

        // A router answers whatever it still holds in flight on a lost
        // replica with a correlated error: losing the replica now must
        // produce no frame at all.
        replica.shutdown();
        stream
            .set_read_timeout(Some(Duration::from_millis(400)))
            .unwrap();
        match read_frame(&mut stream) {
            Err(DjinnError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
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

        let mut stream = raw_connect(server.local_addr());
        write_frame(&mut stream, &old_version_payload(21)).unwrap();
        match read_response(&mut stream) {
            Response::Error { message, .. } => assert_names_both_versions(&message),
            other => panic!("expected the refusal, got {other:?}"),
        }
        write_frame(&mut stream, &infer_payload(&input(5), 22)).unwrap();
        match read_response(&mut stream) {
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
        let mut stream = raw_connect(router.local_addr());
        write_frame(&mut stream, &old_version_payload(21)).unwrap();
        match read_response(&mut stream) {
            Response::Error { message, .. } => assert_names_both_versions(&message),
            other => panic!("expected the refusal, got {other:?}"),
        }
        match read_frame(&mut stream) {
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
