//! Wire fast-path regression tests: the per-frame allocation budget and
//! the Nagle/delayed-ACK latency cliff.
//!
//! The allocation assertions pin the §11 budget from DESIGN.md: after
//! warm-up, encoding a frame into a reused scratch buffer and pulling a
//! frame out of a [`FrameReader`] must not touch the heap at all. What a
//! whole request costs is `tests/request_cost.rs`'s to pin. The latency
//! test pins the transport fix itself: with
//! `TCP_NODELAY` on both ends and the length prefix coalesced into the
//! payload write, a localhost round trip on a microsecond-scale model
//! must be nowhere near the 40 ms delayed-ACK bucket that the old
//! two-write path sat in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use djinn_tonic::djinn::protocol::{encode_infer_framed_into, FrameReader, Response};
use djinn_tonic::djinn::{DjinnClient, DjinnServer, ModelRegistry, ServerConfig};
use djinn_tonic::tensor::{Shape, Tensor};

use bytes::BytesMut;

// ---------------------------------------------------------------------------
// Counting allocator. Each integration-test file is its own binary, so
// installing a global allocator here affects only these tests. Counters
// are thread-local so a concurrently running test thread (or the server
// threads spawned by the latency test) cannot leak allocations into
// another test's measurement window.
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; only bookkeeping is added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

// ---------------------------------------------------------------------------
// Allocation-budget assertions.
// ---------------------------------------------------------------------------

#[test]
fn framed_encode_reuse_is_allocation_free() {
    let input = Tensor::from_vec(
        Shape::nchw(1, 1, 12, 12),
        (0..144).map(|i| i as f32 * 0.01).collect(),
    )
    .unwrap();
    let mut buf = BytesMut::new();
    // Warm up: first encode grows the scratch buffer to frame size.
    for id in 0..4 {
        encode_infer_framed_into(&mut buf, "tiny-mnist", &input, id).unwrap();
    }
    let n = allocs_during(|| {
        for id in 4..260 {
            encode_infer_framed_into(&mut buf, "tiny-mnist", &input, id).unwrap();
        }
    });
    assert_eq!(n, 0, "steady-state framed encode must not allocate");
}

#[test]
fn response_framed_encode_reuse_is_allocation_free() {
    let tensor = Tensor::from_vec(Shape::vec(10), vec![0.1; 10]).unwrap();
    let rsp = Response::Output {
        tensor,
        trace: djinn_tonic::djinn::ServerTrace::default(),
    };
    let mut buf = BytesMut::new();
    for _ in 0..4 {
        rsp.encode_framed_into(&mut buf).unwrap();
    }
    let n = allocs_during(|| {
        for _ in 0..256 {
            rsp.encode_framed_into(&mut buf).unwrap();
        }
    });
    assert_eq!(n, 0, "steady-state response encode must not allocate");
}

#[test]
fn frame_reader_borrowed_reads_are_allocation_free_steady_state() {
    // A long byte stream of identical pipelined frames, fed through the
    // reader from an in-memory cursor.
    let mut frame = BytesMut::new();
    let input = Tensor::from_vec(Shape::vec(32), vec![1.5; 32]).unwrap();
    encode_infer_framed_into(&mut frame, "tiny-mnist", &input, 7).unwrap();
    let mut stream = Vec::new();
    let total = 300usize;
    for _ in 0..total {
        stream.extend_from_slice(&frame);
    }

    let mut reader = FrameReader::new();
    let mut cursor = &stream[..];
    // Warm up: let the reader's internal buffer reach steady-state size.
    for _ in 0..8 {
        let got = reader.read_frame_ref(&mut cursor).unwrap();
        assert!(got.is_some());
    }
    let n = allocs_during(|| {
        for _ in 8..total {
            let got = reader.read_frame_ref(&mut cursor).unwrap();
            assert!(got.is_some());
        }
    });
    assert_eq!(n, 0, "steady-state borrowed frame reads must not allocate");
}

// ---------------------------------------------------------------------------
// Nagle regression: back-to-back small frames must not pick up the 40 ms
// delayed-ACK stall. Bound is generous for CI jitter (median of many
// round trips under 35 ms) but fails loudly if either side loses
// TCP_NODELAY or the prefix/payload split write comes back.
// ---------------------------------------------------------------------------

fn start_tiny_server() -> DjinnServer {
    let registry = ModelRegistry::with_tiny_test_zoo().expect("tiny zoo builds");
    DjinnServer::start(registry, ServerConfig::default()).expect("server starts")
}

fn tiny_input() -> Tensor {
    Tensor::from_vec(
        Shape::nchw(1, 1, 12, 12),
        (0..144).map(|i| (i % 7) as f32).collect(),
    )
    .unwrap()
}

#[test]
fn closed_loop_round_trip_dodges_delayed_ack_stall() {
    let server = start_tiny_server();
    let mut client = DjinnClient::connect(server.local_addr()).unwrap();
    let input = tiny_input();

    // Warm up connection + model.
    for _ in 0..3 {
        client.infer("tiny-mnist", &input).unwrap();
    }

    let mut samples: Vec<Duration> = (0..15)
        .map(|_| {
            let t = Instant::now();
            client.infer("tiny-mnist", &input).unwrap();
            t.elapsed()
        })
        .collect();
    samples.sort();
    let median = samples[samples.len() / 2];
    server.shutdown();

    assert!(
        median < Duration::from_millis(35),
        "closed-loop median {median:?} is in delayed-ACK territory; \
         NODELAY or the single-write frame path regressed"
    );
}

#[test]
fn back_to_back_frames_arrive_without_interframe_delay() {
    let server = start_tiny_server();
    let mut client = DjinnClient::connect(server.local_addr()).unwrap();
    let input = tiny_input();
    for _ in 0..3 {
        client.infer("tiny-mnist", &input).unwrap();
    }

    // Two requests submitted back to back: both frames leave in their own
    // single write, both responses stream back on one connection. With
    // Nagle active anywhere this pair costs ~40 ms; fast path keeps the
    // whole window in the low milliseconds.
    let mut samples: Vec<Duration> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let a = client.submit("tiny-mnist", &input).unwrap();
            let b = client.submit("tiny-mnist", &input).unwrap();
            let mut got = [false; 2];
            for _ in 0..2 {
                let rsp = client.recv_next().unwrap();
                rsp.result.as_ref().unwrap();
                if rsp.request_id == a {
                    got[0] = true;
                } else if rsp.request_id == b {
                    got[1] = true;
                }
            }
            assert!(got[0] && got[1], "both pipelined responses arrive");
            t.elapsed()
        })
        .collect();
    samples.sort();
    let median = samples[samples.len() / 2];
    server.shutdown();

    assert!(
        median < Duration::from_millis(35),
        "pipelined pair median {median:?} indicates an inter-frame Nagle stall"
    );
}
