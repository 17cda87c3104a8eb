//! What one request costs the whole process, pinned: heap allocations and
//! wire bytes each way, per request, for a direct `tiny-mnist` one-shot,
//! the same one-shot through a router, one `tiny-lm` stream, and a
//! `tiny-mnist` one-shot that hits and one that misses an exact cache.
//!
//! The counting allocator below is process-wide, so everything a request
//! touches is in the count: the client (this test's thread), the server's
//! I/O loop, its engine's dispatch thread and, routed, the router's loop.
//! The client is a raw socket with the framed encoders and one
//! `FrameReader`, so its bytes are counted where they cross the socket.
//! All cases run in one `#[test]`, one after another: no other test
//! thread can allocate inside a measured window.
//!
//! Allocations are a mean over [`ROUNDS`] requests after a warm-up, and
//! each mean is pinned within [`ALLOC_SLACK`]. Over ten runs of this
//! binary on a 2-vCPU x86-64 host every mean read the same to 0.001 (a
//! spread of 0): a fraction such as the direct case's .032 is amortised
//! buffer and table growth, not noise. Bytes are pinned exactly. One
//! extra `Vec` per reply in the server moves the server-side mean by 1.0
//! and fails the check. A change that moves a count edits the table and
//! says why in CHANGES.md. Run it alone with
//! `cargo test --offline --test request_cost -q`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::BytesMut;
use djinn_tonic::djinn::protocol::{encode_infer_framed_into, FrameReader, Request, Response};
use djinn_tonic::djinn::{
    CacheMode, DjinnRouter, DjinnServer, ModelRegistry, RouterConfig, ServerConfig, StreamMode,
};
use djinn_tonic::tensor::{Shape, Tensor};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made on this thread: the client's share.
    static MINE: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = MINE.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation to `System`; only bookkeeping is added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Requests (or streams) per measured window.
const ROUNDS: u64 = 1000;
/// Requests (or streams) before the window: buffers, tables and caches
/// reach their steady size.
const WARM_UP: u64 = 200;
/// Tokens per stream in the stream case.
const TOKENS: u32 = 8;
/// How far a server-side mean may sit from the table.
const ALLOC_SLACK: f64 = 0.25;

/// One case's costs, per request (per stream in the stream case).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cost {
    /// Allocations off the client's thread: server, engine, router.
    server_allocs: f64,
    /// Allocations on the client's thread.
    client_allocs: f64,
    /// Bytes the client wrote.
    bytes_out: u64,
    /// Bytes the client read.
    bytes_in: u64,
}

/// The pinned costs, one row per case. The server-side counts were 22.032,
/// 22.032 and 105.0 while the server decoded each request into an owned
/// `Request`; admitting through `peek_request` keeps the model name
/// borrowed, one allocation fewer per request and per stream. The engine
/// answers an exact-cache hit at admission (5.032 off the client's
/// thread); a miss costs 6.186 more than the uncached one-shot, for the
/// probe, the insert and the growth of the cache's tables.
const TABLE: [(&str, Cost); 5] = [
    (
        "direct tiny-mnist one-shot",
        Cost {
            server_allocs: 21.032,
            client_allocs: 2.0,
            bytes_out: 623,
            bytes_in: 132,
        },
    ),
    (
        "routed tiny-mnist one-shot",
        Cost {
            server_allocs: 21.032,
            client_allocs: 2.0,
            bytes_out: 623,
            bytes_in: 132,
        },
    ),
    (
        "one tiny-lm stream of 8 tokens",
        Cost {
            server_allocs: 104.0,
            client_allocs: 19.0,
            bytes_out: 105,
            bytes_in: 1288,
        },
    ),
    (
        "exact-cache hit, tiny-mnist",
        Cost {
            server_allocs: 5.032,
            client_allocs: 2.0,
            bytes_out: 623,
            bytes_in: 132,
        },
    ),
    (
        "exact-cache miss, tiny-mnist, no eviction",
        Cost {
            server_allocs: 27.218,
            client_allocs: 2.0,
            bytes_out: 623,
            bytes_in: 132,
        },
    ),
];

/// A raw client connection: frames encoded into one reused buffer and
/// written whole, replies read by one `FrameReader`, bytes counted.
struct Client {
    stream: TcpStream,
    replies: FrameReader,
    send: BytesMut,
    bytes_out: u64,
    bytes_in: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client {
            stream,
            replies: FrameReader::new(),
            send: BytesMut::new(),
            bytes_out: 0,
            bytes_in: 0,
        }
    }

    fn write_send_buf(&mut self) {
        self.stream.write_all(&self.send).unwrap();
        self.bytes_out += self.send.len() as u64;
    }

    fn recv(&mut self) -> Response {
        let frame = self
            .replies
            .read_frame_ref(&self.stream)
            .unwrap()
            .expect("a reply within the read timeout");
        self.bytes_in += 4 + frame.len() as u64;
        Response::decode(frame).unwrap()
    }

    fn one_shot(&mut self, input: &Tensor, request_id: u64) {
        encode_infer_framed_into(&mut self.send, "tiny-mnist", input, request_id).unwrap();
        self.write_send_buf();
        match self.recv() {
            Response::Output { trace, .. } => assert_eq!(trace.request_id, request_id),
            other => panic!("expected an output, got {other:?}"),
        }
    }

    fn stream(&mut self, prompt: &Tensor, request_id: u64) {
        Request::StreamInfer {
            model: "tiny-lm".into(),
            input: prompt.clone(),
            request_id,
            mode: StreamMode::Generative { max_tokens: TOKENS },
        }
        .encode_framed_into(&mut self.send)
        .unwrap();
        self.write_send_buf();
        for seq in 0..TOKENS {
            match self.recv() {
                Response::Chunk { trace, last, .. } => {
                    assert_eq!(trace.request_id, request_id);
                    assert_eq!(last, seq + 1 == TOKENS);
                }
                other => panic!("expected chunk {seq}, got {other:?}"),
            }
        }
    }
}

/// Runs `request` [`WARM_UP`] times, then [`ROUNDS`] times counted.
fn measure(client: &mut Client, mut request: impl FnMut(&mut Client, u64)) -> Cost {
    for id in 1..=WARM_UP {
        request(client, id);
    }
    let (bytes_out, bytes_in) = (client.bytes_out, client.bytes_in);
    let all = ALLOCS.load(Ordering::SeqCst);
    let mine = MINE.with(Cell::get);
    for id in WARM_UP + 1..=WARM_UP + ROUNDS {
        request(client, id);
    }
    let mine = MINE.with(Cell::get) - mine;
    let all = ALLOCS.load(Ordering::SeqCst) - all;
    let per = |n: u64| n as f64 / ROUNDS as f64;
    Cost {
        server_allocs: per(all - mine),
        client_allocs: per(mine),
        bytes_out: (client.bytes_out - bytes_out) / ROUNDS,
        bytes_in: (client.bytes_in - bytes_in) / ROUNDS,
    }
}

fn tiny_server() -> DjinnServer {
    let registry = ModelRegistry::with_tiny_test_zoo().unwrap();
    DjinnServer::start(registry, ServerConfig::default()).unwrap()
}

fn mnist_input(seed: u64) -> Tensor {
    Tensor::random_uniform(Shape::nchw(1, 1, 12, 12), 0.5, seed)
}

fn one_shots(addr: SocketAddr) -> Cost {
    let input = mnist_input(1);
    let mut client = Client::connect(addr);
    measure(&mut client, |c, id| c.one_shot(&input, id))
}

#[test]
fn request_costs_match_the_table() {
    let server = tiny_server();
    let direct = one_shots(server.local_addr());

    // No stats ticks inside the window: the router's periodic `Stats`
    // poll is its own cost, not a request's.
    let router = DjinnRouter::start(RouterConfig {
        replicas: vec![server.local_addr()],
        stats_interval: Duration::from_secs(3600),
        ..RouterConfig::default()
    })
    .unwrap();
    let routed = one_shots(router.local_addr());
    router.shutdown();

    let mut prompt = vec![0.0f32; 16];
    prompt[3] = 1.0;
    let prompt = Tensor::from_vec(Shape::mat(1, 16), prompt).unwrap();
    let mut client = Client::connect(server.local_addr());
    let stream = measure(&mut client, |c, id| c.stream(&prompt, id));
    drop(client);
    server.shutdown();

    // An exact cache whose budget holds every input below: the hit case
    // answers one input again and again, the miss case sends a fresh
    // one each time, all drawn before the window.
    let registry = ModelRegistry::with_tiny_test_zoo().unwrap();
    let config = ServerConfig {
        cache_mode: CacheMode::Exact,
        cache_bytes: 64 << 20,
        ..ServerConfig::default()
    };
    let server = DjinnServer::start(registry, config).unwrap();
    let mut client = Client::connect(server.local_addr());
    let input = mnist_input(1);
    let hit = measure(&mut client, |c, id| c.one_shot(&input, id));
    let fresh: Vec<Tensor> = (0..WARM_UP + ROUNDS).map(|i| mnist_input(2 + i)).collect();
    let miss = measure(&mut client, |c, id| c.one_shot(&fresh[id as usize - 1], id));
    drop(client);
    server.shutdown();

    let measured = [direct, routed, stream, hit, miss];
    for ((case, _), got) in TABLE.iter().zip(measured) {
        eprintln!("{case}: {got:?}");
    }
    for ((case, want), got) in TABLE.iter().zip(measured) {
        assert!(
            (got.server_allocs - want.server_allocs).abs() <= ALLOC_SLACK,
            "{case}: {:.3} allocations off the client's thread per request, table says {:.3}",
            got.server_allocs,
            want.server_allocs
        );
        assert!(
            (got.client_allocs - want.client_allocs).abs() <= ALLOC_SLACK,
            "{case}: {:.3} allocations on the client's thread per request, table says {:.3}",
            got.client_allocs,
            want.client_allocs
        );
        assert_eq!(
            (got.bytes_out, got.bytes_in),
            (want.bytes_out, want.bytes_in),
            "{case}: wire bytes (out, in) per request"
        );
    }
}
