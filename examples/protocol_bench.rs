//! Wire-protocol throughput on a FACE/ASR-scale tensor payload.
//!
//! Compares the bulk little-endian f32 decode in `get_tensor` (chunked
//! `from_le_bytes` over the slice) against the per-element cursor loop it
//! replaced, plus full-frame encode/decode rates. Run with:
//!
//! ```text
//! cargo run --release --example protocol_bench
//! ```

use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use djinn_tonic::djinn::protocol::{FrameReader, Response};
use djinn_tonic::tensor::{Shape, Tensor};

/// The per-element decode loop `get_tensor` used before the bulk copy:
/// one 4-byte copy + cursor advance per f32 (mirrors `Buf::get_f32_le`).
fn naive_f32_decode(bytes: &[u8], n: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(n);
    let mut cursor = bytes;
    for _ in 0..n {
        let mut b = [0u8; 4];
        b.copy_from_slice(&cursor[..4]);
        cursor = &cursor[4..];
        out.push(f32::from_le_bytes(b));
    }
    out
}

fn bulk_f32_decode(bytes: &[u8], n: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(n);
    out.extend(
        bytes[..n * 4]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
    out
}

fn time<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

fn main() {
    // A FACE-batch-scale payload: 16 x 3 x 227 x 227 f32 ~= 9.9 MB.
    let shape = Shape::nchw(16, 3, 227, 227);
    let n = shape.volume();
    let mb = (n * 4) as f64 / 1e6;
    let tensor = Tensor::random_uniform(shape, 1.0, 13);
    let rsp = Response::Output {
        tensor,
        trace: Default::default(),
    };
    let wire = rsp.encode().expect("encode");
    println!(
        "payload: {n} f32 ({mb:.1} MB tensor data, {:.1} MB frame)",
        wire.len() as f64 / 1e6
    );

    let iters = 10;
    // Isolate the f32 section: rank byte + 4 dims after the 7-byte
    // header+status and the 72-byte trace block.
    let data_off = 6 + 1 + 72 + 1 + 4 * 4;
    let f32_section = &wire[data_off..];

    let naive = time(iters, || naive_f32_decode(f32_section, n));
    let bulk = time(iters, || bulk_f32_decode(f32_section, n));
    let full_decode = time(iters, || Response::decode(&wire).expect("decode"));
    let full_encode = time(iters, || rsp.encode().expect("encode"));

    println!(
        "f32 decode  naive (old): {:8.2} ms  ({:7.1} MB/s)",
        naive * 1e3,
        mb / naive
    );
    println!(
        "f32 decode  bulk  (new): {:8.2} ms  ({:7.1} MB/s)   {:.2}x faster",
        bulk * 1e3,
        mb / bulk,
        naive / bulk
    );
    println!(
        "frame decode (Response): {:8.2} ms  ({:7.1} MB/s)",
        full_decode * 1e3,
        mb / full_decode
    );
    println!(
        "frame encode (Response): {:8.2} ms  ({:7.1} MB/s)",
        full_encode * 1e3,
        mb / full_encode
    );

    // Buffer-reuse fast path: same frame encoded into a retained scratch
    // buffer (zero allocations after the first call) vs a fresh Vec each
    // time, and borrowed frame reads vs the owning copy-out.
    let mut scratch = BytesMut::new();
    rsp.encode_framed_into(&mut scratch).expect("warmup");
    let reuse_encode = time(iters, || {
        rsp.encode_framed_into(&mut scratch).expect("encode");
        scratch.len()
    });
    println!(
        "frame encode (reused buf): {:6.2} ms  ({:7.1} MB/s)   {:.2}x vs fresh-Vec",
        reuse_encode * 1e3,
        mb / reuse_encode,
        full_encode / reuse_encode
    );

    let mut framed = Vec::with_capacity(scratch.len());
    framed.extend_from_slice(&scratch);
    let mut reader = FrameReader::new();
    let owning_read = time(iters, || {
        let mut cursor = &framed[..];
        reader
            .read_frame(&mut cursor)
            .expect("read")
            .map(|v| v.len())
    });
    let borrowed_read = time(iters, || {
        let mut cursor = &framed[..];
        reader
            .read_frame_ref(&mut cursor)
            .expect("read")
            .map(<[u8]>::len)
    });
    println!(
        "frame read  owned  (old): {:7.2} ms  ({:7.1} MB/s)",
        owning_read * 1e3,
        mb / owning_read
    );
    println!(
        "frame read  borrow (new): {:7.2} ms  ({:7.1} MB/s)   {:.2}x faster",
        borrowed_read * 1e3,
        mb / borrowed_read,
        owning_read / borrowed_read
    );

    let mut out = Vec::new();
    Response::decode_output_into(&wire, &mut out).expect("warmup");
    let decode_into = time(iters, || {
        Response::decode_output_into(&wire, &mut out).expect("decode")
    });
    println!(
        "output decode into (new): {:7.2} ms  ({:7.1} MB/s)   {:.2}x vs owning decode",
        decode_into * 1e3,
        mb / decode_into,
        full_decode / decode_into
    );
}
