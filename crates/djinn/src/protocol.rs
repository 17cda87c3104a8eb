//! The DjiNN wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message is `[u32 length | payload]` (little-endian length of the
//! payload; every integer on the wire is little endian). Payloads begin
//! with the 4-byte magic `DJNN`, the version byte [`VERSION`] and an
//! opcode:
//!
//! ```text
//! request   := magic version opcode=1 name:str id:u64 tensor
//! result_ok := magic version opcode=2 status=0 trace tensor
//! result_err:= magic version opcode=2 status=1 id:u64 message:str
//! list_req  := magic version opcode=3 id:u64
//! list_rsp  := magic version opcode=4 id:u64 count:u16 (str)*
//! stats_req := magic version opcode=5 id:u64
//! stats_rsp := magic version opcode=6 id:u64 unknown:u64 count:u16 entry*
//! busy      := magic version opcode=7 id:u64 name:str depth:u32
//! stream_req:= magic version opcode=8 name:str id:u64 mode:u8 param:u32 tensor
//! chunk     := magic version opcode=9 status=0 trace seq:u32 flags:u8 tensor
//! str       := u16 len, utf-8 bytes
//! tensor    := u8 rank, u32 dim*, f32 data*
//! trace     := 9 x u64 (72 bytes): id queue_us batch_us lease_us service_us
//!              server_total_us cache_hit first_token_us tokens
//! entry     := name:str, then 23 x u64: requests errors total_latency_us
//!              max_latency_us queue_depth in_flight shed
//!              p50,p99 queue_wait_us  p50,p99 batch_wait_us
//!              p50,p99 service_us  p50,p99 wire_us  p50,p99 lease_wait_us
//!              cache_hits cache_misses cache_evictions
//!              tokens_out  p50,p99 token_gap_us
//! ```
//!
//! Every frame names the request it is, or answers, by a client-assigned
//! `id:u64` at a fixed offset per kind: right after the name in `request`
//! and `stream_req`, at payload offset 6 in control frames and `busy`, at
//! offset 7 — behind the status byte, as the error's own field or the
//! first word of the trace block — in results and chunks. So a connection
//! is full duplex (responses arrive in any order and clients demultiplex
//! by ID, see `DjinnClient::recv_next`) and a proxy forwards a frame by
//! patching those 8 bytes in place ([`peek_request`],
//! [`response_id_slot`]). ID 0 is reserved for the error that answers a
//! frame whose ID could not be read. A `stream_req` is answered by N
//! ordered `chunk` frames, seq-numbered from 0, the last with `flags`
//! bit 0 set.
//!
//! # One version
//!
//! [`VERSION`] is the only layout this module writes or reads. Client,
//! server, router and load generator ship from one workspace and are
//! deployed together; any change to the layouts above bumps [`VERSION`],
//! and a frame stamped with any other version is refused with a
//! [`DjinnError::Protocol`] naming both numbers — which a server sends
//! back as an `Error` frame, so a peer left behind gets a typed refusal
//! instead of a misparse.
//!
//! # Framing under timeouts
//!
//! TCP delivers a frame in as many pieces as it likes: a multi-MB FACE or
//! ASR tensor routinely arrives in dozens of segments, and a slow client
//! can stretch one frame across seconds. Reading with `read_exact` on a
//! socket with a read timeout is therefore *unsound*: when the timeout
//! fires mid-frame, the bytes already consumed are lost and the stream is
//! desynchronized — the next read treats the middle of a payload as a
//! length prefix. [`FrameReader`] is the stateful alternative: it
//! accumulates partial reads across `WouldBlock`/`TimedOut` and yields a
//! frame only once it is complete, so a timeout is a clean "no frame yet"
//! signal instead of data loss. It is the one frame reader: a blocking
//! socket without a timeout reads through it too.
//!
//! Frames are written whole: an encoder lays out `[u32 len | payload]`
//! in one buffer ([`encode_infer_framed_into`],
//! [`Request::encode_framed_into`], [`Response::encode_framed_into`]) and
//! the caller sends it with one `write_all`.

use bytes::{Buf, BufMut, BytesMut};
use std::io::Read;

use tensor::{Shape, Tensor};

use crate::trace::ServerTrace;
use crate::{DjinnError, Result};

/// Protocol magic bytes.
pub const MAGIC: &[u8; 4] = b"DJNN";
/// The one protocol version this implementation speaks: stamped on every
/// frame it encodes, required of every frame it decodes.
pub const VERSION: u8 = 7;
/// Upper bound on a frame, to reject hostile lengths (64 MiB holds the
/// largest Tonic batch comfortably).
pub const MAX_FRAME: usize = 64 << 20;
/// Longest string the wire format can carry (`u16` length prefix).
pub const MAX_STR: usize = u16::MAX as usize;

const OP_INFER: u8 = 1;
const OP_RESULT: u8 = 2;
const OP_LIST: u8 = 3;
const OP_LIST_RESULT: u8 = 4;
const OP_STATS: u8 = 5;
const OP_STATS_RESULT: u8 = 6;
const OP_BUSY: u8 = 7;
const OP_STREAM_INFER: u8 = 8;
const OP_OUTPUT_CHUNK: u8 = 9;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// `chunk` frame flag bit: this is the stream's last chunk.
const CHUNK_FLAG_FINAL: u8 = 1;

/// How a `stream_req` wants its N partial responses produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamMode {
    /// Sliding-window evaluation (streaming ASR): the input's rows are
    /// fed through the model `window_rows` at a time and every window's
    /// scores are emitted as one chunk.
    Windowed {
        /// Rows per window (must be ≥ 1).
        window_rows: u32,
    },
    /// Autoregressive decode (text generation): the model's output
    /// feeds back as its next input, one chunk per generated token.
    Generative {
        /// Tokens to generate (must be ≥ 1).
        max_tokens: u32,
    },
}

impl StreamMode {
    /// Wire mode byte.
    fn opbyte(self) -> u8 {
        match self {
            StreamMode::Windowed { .. } => 0,
            StreamMode::Generative { .. } => 1,
        }
    }

    /// Wire parameter word (window rows or token budget).
    fn param(self) -> u32 {
        match self {
            StreamMode::Windowed { window_rows } => window_rows,
            StreamMode::Generative { max_tokens } => max_tokens,
        }
    }

    /// Reads the mode byte and parameter word of a `stream_req`.
    fn get(buf: &mut &[u8]) -> Result<Self> {
        if buf.remaining() < 1 + 4 {
            return Err(err("truncated stream request"));
        }
        let mode = buf.get_u8();
        let param = buf.get_u32_le();
        match mode {
            0 => Ok(StreamMode::Windowed { window_rows: param }),
            1 => Ok(StreamMode::Generative { max_tokens: param }),
            other => Err(err(&format!("unknown stream mode {other}"))),
        }
    }
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run inference on `model` with the given input tensor.
    Infer {
        /// Registered model name.
        model: String,
        /// Input tensor (batch axis = queries stacked by the client).
        input: Tensor,
        /// Client-assigned ID, echoed by whatever frame answers the
        /// request. IDs are client-scoped; the server never interprets
        /// them.
        request_id: u64,
    },
    /// List registered model names.
    ListModels {
        /// Client-assigned correlation ID, echoed by the response.
        request_id: u64,
    },
    /// Fetch per-model service statistics.
    Stats {
        /// Client-assigned correlation ID, echoed by the response.
        request_id: u64,
    },
    /// Run streaming inference on `model`: the server answers with N
    /// ordered [`Response::Chunk`] frames (the last flagged final)
    /// instead of one `Output`.
    StreamInfer {
        /// Registered model name.
        model: String,
        /// Seed input: the feature-frame matrix for windowed mode, the
        /// one-hot prompt token for generative mode.
        input: Tensor,
        /// Client-assigned ID, echoed by every chunk of the stream.
        request_id: u64,
        /// How to produce the partial responses.
        mode: StreamMode,
    },
}

impl Request {
    /// The client-assigned correlation ID this request carries.
    pub fn request_id(&self) -> u64 {
        match self {
            Request::Infer { request_id, .. }
            | Request::ListModels { request_id }
            | Request::Stats { request_id }
            | Request::StreamInfer { request_id, .. } => *request_id,
        }
    }
}

/// Service statistics for one model, as reported by the `Stats` request.
///
/// The counters after `model` are declared in wire order; this module
/// alone knows that order and how a router's fleet view merges each one.
/// The engine fills the queue, lease, service, cache and stream fields
/// ([`crate::InferenceEngine::stats`]); the server owns `requests`,
/// `errors`, `total_latency_us`, `max_latency_us` and the two wire
/// quantiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Model name.
    pub model: String,
    /// Successful inference requests served.
    pub requests: u64,
    /// Failed inference requests.
    pub errors: u64,
    /// Total device latency attributed to this model, microseconds.
    pub total_latency_us: u64,
    /// Maximum single-request device latency, microseconds.
    pub max_latency_us: u64,
    /// Jobs waiting in the model's admission queue at snapshot time.
    pub queue_depth: u64,
    /// Jobs executing on the backend at snapshot time.
    pub in_flight: u64,
    /// Requests shed at admission with `Busy`.
    pub shed: u64,
    /// Median queue wait before dispatch, microseconds.
    pub p50_queue_wait_us: u64,
    /// 99th-percentile queue wait, microseconds.
    pub p99_queue_wait_us: u64,
    /// Median batch coalescing wait (dequeue → executor start),
    /// microseconds.
    pub p50_batch_wait_us: u64,
    /// 99th-percentile batch coalescing wait, microseconds.
    pub p99_batch_wait_us: u64,
    /// Median service (forward-pass) latency, microseconds.
    pub p50_service_us: u64,
    /// 99th-percentile service latency, microseconds.
    pub p99_service_us: u64,
    /// Median time the server took to encode a successful reply into
    /// its connection's write buffer, microseconds (the socket write,
    /// shared by every reply queued on the connection, is not in it).
    pub p50_wire_us: u64,
    /// 99th-percentile reply encode time, microseconds.
    pub p99_wire_us: u64,
    /// Median device-lease wait (shared-device scheduling), microseconds
    /// (0 on a dedicated device).
    pub p50_lease_wait_us: u64,
    /// 99th-percentile device-lease wait, microseconds.
    pub p99_lease_wait_us: u64,
    /// Requests answered by the inference cache without touching the
    /// queue, lease, or executor (0 with caching off). Exact-match hits
    /// count requests; embedding-layer hits count rows.
    pub cache_hits: u64,
    /// Cache lookups that found nothing and fell through to the full
    /// serving path.
    pub cache_misses: u64,
    /// Cache entries evicted to stay under the byte budget.
    pub cache_evictions: u64,
    /// Stream chunks (tokens / partial hypotheses) emitted by streaming
    /// requests against this model.
    pub tokens_out: u64,
    /// Median gap between consecutive chunks of a stream, microseconds
    /// (0 with no streaming traffic).
    pub p50_token_gap_us: u64,
    /// 99th-percentile inter-chunk gap, microseconds.
    pub p99_token_gap_us: u64,
}

/// How a fleet view combines one stats word across replicas.
enum Merge {
    /// Counts and gauges add up.
    Sum,
    /// Maxima and percentiles take the larger: percentiles do not sum,
    /// and the max is the conservative bound.
    Max,
}

/// Declares the stats layout once: each counter of a [`ModelStats`]
/// entry in wire order, with its [`Merge`] rule. From that one list come
/// `ModelStats::words`, `ModelStats::from_words` and [`MERGE`].
macro_rules! stats_layout {
    ($($field:ident: $rule:ident,)*) => {
        /// Each stats word's merge rule, in wire order.
        const MERGE: [Merge; STATS_WORDS] = [$(Merge::$rule),*];

        impl ModelStats {
            /// The counters in wire order.
            fn words(&self) -> [u64; STATS_WORDS] {
                [$(self.$field),*]
            }

            /// The inverse of `words`.
            fn from_words(model: String, words: [u64; STATS_WORDS]) -> Self {
                let [$($field),*] = words;
                ModelStats { model, $($field),* }
            }
        }
    };
}

stats_layout! {
    requests: Sum,
    errors: Sum,
    total_latency_us: Sum,
    max_latency_us: Max,
    queue_depth: Sum,
    in_flight: Sum,
    shed: Sum,
    p50_queue_wait_us: Max,
    p99_queue_wait_us: Max,
    p50_batch_wait_us: Max,
    p99_batch_wait_us: Max,
    p50_service_us: Max,
    p99_service_us: Max,
    p50_wire_us: Max,
    p99_wire_us: Max,
    p50_lease_wait_us: Max,
    p99_lease_wait_us: Max,
    cache_hits: Sum,
    cache_misses: Sum,
    cache_evictions: Sum,
    tokens_out: Sum,
    p50_token_gap_us: Max,
    p99_token_gap_us: Max,
}

impl ModelStats {
    /// Mean device latency per successful request, microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency_us as f64 / self.requests as f64
        }
    }

    /// Folds another replica's entry for the same model into this one,
    /// word by word as its [`Merge`] rule says.
    pub(crate) fn merge(&mut self, other: &ModelStats) {
        let mut words = self.words();
        for ((word, theirs), rule) in words.iter_mut().zip(other.words()).zip(MERGE) {
            *word = match rule {
                Merge::Sum => word.saturating_add(theirs),
                Merge::Max => (*word).max(theirs),
            };
        }
        *self = ModelStats::from_words(std::mem::take(&mut self.model), words);
    }
}

/// A server→client message. Every variant carries the ID of the request
/// it answers ([`Response::request_id`]), so responses can arrive in any
/// order and clients correlate by ID instead of trusting arrival order.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful inference: the output tensor plus the server-side
    /// trace of the request that produced it.
    Output {
        /// The prediction.
        tensor: Tensor,
        /// Server-side span durations and the echoed request ID.
        trace: ServerTrace,
    },
    /// Application-level failure.
    Error {
        /// ID of the request that failed (0 when the request's own ID
        /// could not be read).
        request_id: u64,
        /// Server-provided message.
        message: String,
    },
    /// Registered model names.
    Models {
        /// Echoed `list_req` correlation ID.
        request_id: u64,
        /// The names.
        names: Vec<String>,
    },
    /// Per-model service statistics.
    Stats {
        /// Echoed `stats_req` correlation ID.
        request_id: u64,
        /// Total infer requests rejected because they named a model the
        /// server does not serve. One aggregate counter — unknown names
        /// never create per-model entries.
        unknown_model_requests: u64,
        /// Per-model entries, registered models only.
        stats: Vec<ModelStats>,
    },
    /// The model's admission queue is full: the request was shed, not
    /// queued. The client should back off and retry.
    Busy {
        /// ID of the shed request.
        request_id: u64,
        /// Model whose queue rejected the request.
        model: String,
        /// Queue depth observed at admission (the configured bound).
        queue_depth: u32,
    },
    /// One partial response of a streaming request. A
    /// [`Request::StreamInfer`] is answered by a run of these, ordered
    /// by `seq` and closed by the one with `last` set; each carries the
    /// stream's request ID in its trace block.
    Chunk {
        /// The partial output (one window's scores, one token's
        /// distribution).
        tensor: Tensor,
        /// Server-side spans as of this chunk; the final chunk carries
        /// the stream totals (`first_token_us`, `tokens`).
        trace: ServerTrace,
        /// Position in the stream, starting at 0.
        seq: u32,
        /// Whether this is the stream's last chunk.
        last: bool,
    },
}

impl Response {
    /// The ID of the request this response answers. 0 means
    /// uncorrelated: an error answering a frame whose ID could not be
    /// read.
    pub fn request_id(&self) -> u64 {
        match self {
            Response::Output { trace, .. } | Response::Chunk { trace, .. } => trace.request_id,
            Response::Error { request_id, .. }
            | Response::Models { request_id, .. }
            | Response::Stats { request_id, .. }
            | Response::Busy { request_id, .. } => *request_id,
        }
    }
}

fn put_str(buf: &mut BytesMut, s: &str) -> Result<()> {
    if s.len() > MAX_STR {
        return Err(err(&format!(
            "string of {} bytes exceeds the wire limit of {MAX_STR}",
            s.len()
        )));
    }
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
    Ok(())
}

/// Truncates `s` to at most [`MAX_STR`] bytes at a char boundary, so error
/// messages always fit the wire format instead of failing to encode.
fn clamp_str(s: &str) -> &str {
    if s.len() <= MAX_STR {
        return s;
    }
    let mut end = MAX_STR;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn put_count(buf: &mut BytesMut, n: usize, what: &str) -> Result<()> {
    if n > u16::MAX as usize {
        return Err(err(&format!("{n} {what} exceed the u16 wire count")));
    }
    buf.put_u16_le(n as u16);
    Ok(())
}

/// Encoded size of a tensor on the wire: rank byte + u32 dims + f32 data.
fn tensor_wire_len(t: &Tensor) -> usize {
    1 + 4 * t.shape().rank() + 4 * t.data().len()
}

/// f32s converted per stack-buffer flush in [`put_tensor`]: 1 KiB chunks —
/// bulk enough to amortize the `put_slice` bounds check, small enough for
/// the stack.
const F32_ENC_CHUNK: usize = 256;

fn put_tensor(buf: &mut BytesMut, t: &Tensor) {
    buf.reserve(tensor_wire_len(t));
    buf.put_u8(t.shape().rank() as u8);
    for &d in t.shape().dims() {
        buf.put_u32_le(d as u32);
    }
    // Bulk-encode the f32 payload through a stack chunk: multi-MB
    // FACE/ASR tensors dominate the frame, so one `put_slice` per float
    // is a hot spot.
    let mut chunk = [0u8; 4 * F32_ENC_CHUNK];
    for vals in t.data().chunks(F32_ENC_CHUNK) {
        for (slot, &v) in chunk.chunks_exact_mut(4).zip(vals) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(&chunk[..4 * vals.len()]);
    }
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    if buf.remaining() < 2 {
        return Err(err("truncated string length"));
    }
    let len = buf.get_u16_le() as usize;
    if buf.remaining() < len {
        return Err(err("truncated string body"));
    }
    let bytes = buf[..len].to_vec();
    buf.advance(len);
    String::from_utf8(bytes).map_err(|_| err("string is not utf-8"))
}

fn get_tensor(buf: &mut &[u8]) -> Result<Tensor> {
    if buf.remaining() < 1 {
        return Err(err("truncated tensor rank"));
    }
    let rank = buf.get_u8() as usize;
    if rank == 0 || rank > 4 {
        return Err(err(&format!("tensor rank {rank} out of 1..=4")));
    }
    if buf.remaining() < rank * 4 {
        return Err(err("truncated tensor dims"));
    }
    let mut dims = [0usize; 4];
    for d in dims.iter_mut().take(rank) {
        *d = buf.get_u32_le() as usize;
    }
    let shape = Shape::new(&dims[..rank]).map_err(|e| err(&format!("bad tensor shape: {e}")))?;
    let n = shape.volume();
    if buf.remaining() < n * 4 {
        return Err(err("truncated tensor data"));
    }
    // Bulk-decode the f32 payload: multi-MB FACE/ASR tensors dominate the
    // frame, so the per-element `get_f32_le` cursor loop is a hot spot.
    // `extend` into a presized `Vec` vectorises; `collect` of the same
    // iterator did not, and decoded 6x slower (the `protocol` bench).
    let mut data = Vec::with_capacity(n);
    data.extend(
        buf[..n * 4]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
    buf.advance(n * 4);
    Ok(Tensor::from_vec(shape, data).expect("volume matches by construction"))
}

fn err(reason: &str) -> DjinnError {
    DjinnError::Protocol {
        reason: reason.to_string(),
    }
}

/// Reads the 8-byte request ID at `at` in a raw payload — how the
/// no-decode readers ([`peek_request`], [`response_id_slot`]) get at it.
fn raw_id(payload: &[u8], at: usize) -> Result<u64> {
    match payload.get(at..at + 8) {
        Some(id) => Ok(u64::from_le_bytes(id.try_into().expect("8 bytes"))),
        None => Err(err("truncated request id")),
    }
}

fn get_request_id(buf: &mut &[u8]) -> Result<u64> {
    let id = raw_id(buf, 0)?;
    buf.advance(8);
    Ok(id)
}

/// Bytes in a trace block: nine `u64` words.
const TRACE_LEN: usize = 72;
/// `u64` words in a stats entry, after its name.
const STATS_WORDS: usize = 23;

/// Reads the trace block prefixed to successful results and chunks. The
/// request ID is its first word, so it sits at one offset whatever
/// follows (see [`response_id_slot`]).
fn get_trace(buf: &mut &[u8]) -> Result<ServerTrace> {
    if buf.remaining() < TRACE_LEN {
        return Err(err("truncated trace block"));
    }
    Ok(ServerTrace {
        request_id: buf.get_u64_le(),
        queue_us: buf.get_u64_le(),
        batch_us: buf.get_u64_le(),
        lease_us: buf.get_u64_le(),
        service_us: buf.get_u64_le(),
        server_total_us: buf.get_u64_le(),
        cache_hit: buf.get_u64_le() != 0,
        first_token_us: buf.get_u64_le(),
        tokens: buf.get_u64_le(),
    })
}

/// Writes the trace block — shared by the `Output` and `Chunk` encoders
/// so both stay byte-identical in layout.
fn put_trace(buf: &mut BytesMut, trace: &ServerTrace) {
    buf.put_u64_le(trace.request_id);
    buf.put_u64_le(trace.queue_us);
    buf.put_u64_le(trace.batch_us);
    buf.put_u64_le(trace.lease_us);
    buf.put_u64_le(trace.service_us);
    buf.put_u64_le(trace.server_total_us);
    buf.put_u64_le(trace.cache_hit as u64);
    buf.put_u64_le(trace.first_token_us);
    buf.put_u64_le(trace.tokens);
}

fn header(buf: &mut BytesMut, opcode: u8) {
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(opcode);
}

/// Validates magic and version; returns the opcode. [`VERSION`] is the
/// only version accepted — the one place a wire version is compared.
fn check_header(buf: &mut &[u8]) -> Result<u8> {
    if buf.remaining() < 6 {
        return Err(err("frame shorter than header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(err("bad magic"));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(err(&format!(
            "unsupported protocol version {version}: this peer speaks only version {VERSION}"
        )));
    }
    Ok(buf.get_u8())
}

/// Encodes an infer payload from borrowed parts — shared by
/// [`Request::encode_into`] and [`encode_infer_framed_into`] so the
/// borrowed fast path is byte-identical by construction.
fn put_infer_payload(
    buf: &mut BytesMut,
    model: &str,
    input: &Tensor,
    request_id: u64,
) -> Result<()> {
    header(buf, OP_INFER);
    put_str(buf, model)?;
    buf.put_u64_le(request_id);
    put_tensor(buf, input);
    Ok(())
}

/// Encodes a stream-infer payload from borrowed parts — shared by
/// [`Request::encode_into`] and [`encode_stream_framed_into`], as
/// [`put_infer_payload`] is for one-shots.
fn put_stream_payload(
    buf: &mut BytesMut,
    model: &str,
    input: &Tensor,
    request_id: u64,
    mode: StreamMode,
) -> Result<()> {
    header(buf, OP_STREAM_INFER);
    put_str(buf, model)?;
    buf.put_u64_le(request_id);
    buf.put_u8(mode.opbyte());
    buf.put_u32_le(mode.param());
    put_tensor(buf, input);
    Ok(())
}

/// Lays out one complete `[u32 len | payload]` frame in `buf`: clears it
/// (keeping capacity), reserves the length slot, runs the payload
/// encoder, then backfills the little-endian length — leaving `buf` ready
/// for a single `write_all`.
fn frame_into(buf: &mut BytesMut, encode: impl FnOnce(&mut BytesMut) -> Result<()>) -> Result<()> {
    buf.clear();
    append_frame(buf, encode)
}

/// Appends one `[len | payload]` frame to `buf` behind what it already
/// holds — how a connection's write buffer queues replies. On error `buf`
/// is left exactly as it was.
pub(crate) fn append_frame(
    buf: &mut BytesMut,
    encode: impl FnOnce(&mut BytesMut) -> Result<()>,
) -> Result<()> {
    let start = buf.len();
    buf.put_u32_le(0); // length, backfilled below
    let framed = encode(buf).and_then(|()| {
        let len = buf.len() - start - 4;
        if len > MAX_FRAME {
            return Err(err(&format!("frame length {len} exceeds cap {MAX_FRAME}")));
        }
        buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(())
    });
    if framed.is_err() {
        buf.truncate(start);
    }
    framed
}

/// Encodes a complete infer request *frame* (length prefix included) from
/// borrowed parts into a reusable buffer: no `Request` construction, no
/// tensor clone, no steady-state allocation. Byte-identical to encoding
/// `Request::Infer { .. }` with [`Request::encode_framed_into`].
///
/// # Errors
///
/// Returns [`DjinnError::Protocol`] if a field cannot be represented on
/// the wire (e.g. a model name longer than [`MAX_STR`]).
pub fn encode_infer_framed_into(
    buf: &mut BytesMut,
    model: &str,
    input: &Tensor,
    request_id: u64,
) -> Result<()> {
    frame_into(buf, |b| put_infer_payload(b, model, input, request_id))
}

/// [`encode_infer_framed_into`] for a stream start: byte-identical to
/// encoding `Request::StreamInfer { .. }` with
/// [`Request::encode_framed_into`], without cloning the input.
pub(crate) fn encode_stream_framed_into(
    buf: &mut BytesMut,
    model: &str,
    input: &Tensor,
    request_id: u64,
    mode: StreamMode,
) -> Result<()> {
    frame_into(buf, |b| {
        put_stream_payload(b, model, input, request_id, mode)
    })
}

impl Request {
    /// Serializes the request into a payload (without the frame length).
    ///
    /// # Errors
    ///
    /// Returns [`DjinnError::Protocol`] if a field cannot be represented
    /// on the wire (e.g. a model name longer than [`MAX_STR`]).
    pub fn encode(&self) -> Result<BytesMut> {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Appends the encoded payload to `buf` without clearing it, so hot
    /// paths can reuse one scratch buffer across frames.
    ///
    /// # Errors
    ///
    /// Same as [`Request::encode`].
    pub fn encode_into(&self, buf: &mut BytesMut) -> Result<()> {
        match self {
            Request::Infer {
                model,
                input,
                request_id,
            } => put_infer_payload(buf, model, input, *request_id)?,
            Request::ListModels { request_id } => {
                header(buf, OP_LIST);
                buf.put_u64_le(*request_id);
            }
            Request::Stats { request_id } => {
                header(buf, OP_STATS);
                buf.put_u64_le(*request_id);
            }
            Request::StreamInfer {
                model,
                input,
                request_id,
                mode,
            } => put_stream_payload(buf, model, input, *request_id, *mode)?,
        }
        Ok(())
    }

    /// Encodes one complete `[len | payload]` frame into `buf` (cleared
    /// first, capacity kept), ready for a single `write_all` — the
    /// zero-allocation steady-state send path.
    ///
    /// # Errors
    ///
    /// Same as [`Request::encode`].
    pub fn encode_framed_into(&self, buf: &mut BytesMut) -> Result<()> {
        frame_into(buf, |b| self.encode_into(b))
    }

    /// Parses a request payload: [`peek_request`] reads the header, name
    /// and ID, then a stream's mode and the input tensor are decoded.
    ///
    /// # Errors
    ///
    /// Returns [`DjinnError::Protocol`] for any malformed frame.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let peek = peek_request(payload)?;
        let model = match peek {
            RequestPeek::ListModels { request_id, .. } => {
                return Ok(Request::ListModels { request_id })
            }
            RequestPeek::Stats { request_id, .. } => return Ok(Request::Stats { request_id }),
            RequestPeek::Infer { model, .. } | RequestPeek::StreamInfer { model, .. } => {
                model.to_owned()
            }
        };
        let request_id = peek.request_id();
        Ok(match decode_input(&peek, payload)? {
            (None, input) => Request::Infer {
                model,
                input,
                request_id,
            },
            (Some(mode), input) => Request::StreamInfer {
                model,
                input,
                request_id,
                mode,
            },
        })
    }
}

/// Decodes what follows the ID of the `Infer` or `StreamInfer` that
/// `peek` located in `payload`: a stream's mode (`Some`), then the input
/// tensor. With [`peek_request`] this is all of request parsing; the
/// server admits through the two without building a [`Request`].
pub(crate) fn decode_input(
    peek: &RequestPeek<'_>,
    payload: &[u8],
) -> Result<(Option<StreamMode>, Tensor)> {
    // In range: `peek` has read the 8-byte ID at `id_at`.
    let mut buf = &payload[peek.id_at() + 8..];
    let mode = match peek {
        RequestPeek::StreamInfer { .. } => Some(StreamMode::get(&mut buf)?),
        _ => None,
    };
    Ok((mode, get_tensor(&mut buf)?))
}

impl Response {
    /// Serializes the response into a payload (without the frame length).
    ///
    /// Error messages are clamped to [`MAX_STR`] bytes so a
    /// [`Response::Error`] always encodes; other over-long strings (model
    /// names) are protocol errors.
    ///
    /// # Errors
    ///
    /// Returns [`DjinnError::Protocol`] if a field cannot be represented
    /// on the wire.
    pub fn encode(&self) -> Result<BytesMut> {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Appends the encoded payload to `buf` without clearing it, so hot
    /// paths can reuse one scratch buffer across frames.
    ///
    /// # Errors
    ///
    /// Same as [`Response::encode`].
    pub fn encode_into(&self, buf: &mut BytesMut) -> Result<()> {
        match self {
            Response::Output { tensor, trace } => {
                header(buf, OP_RESULT);
                buf.put_u8(STATUS_OK);
                put_trace(buf, trace);
                put_tensor(buf, tensor);
            }
            Response::Chunk {
                tensor,
                trace,
                seq,
                last,
            } => {
                header(buf, OP_OUTPUT_CHUNK);
                buf.put_u8(STATUS_OK);
                put_trace(buf, trace);
                buf.put_u32_le(*seq);
                buf.put_u8(if *last { CHUNK_FLAG_FINAL } else { 0 });
                put_tensor(buf, tensor);
            }
            Response::Error {
                request_id,
                message,
            } => {
                header(buf, OP_RESULT);
                buf.put_u8(STATUS_ERR);
                buf.put_u64_le(*request_id);
                put_str(buf, clamp_str(message))?;
            }
            Response::Models { request_id, names } => {
                header(buf, OP_LIST_RESULT);
                buf.put_u64_le(*request_id);
                put_count(buf, names.len(), "model names")?;
                for n in names {
                    put_str(buf, n)?;
                }
            }
            Response::Stats {
                request_id,
                unknown_model_requests,
                stats,
            } => {
                header(buf, OP_STATS_RESULT);
                buf.put_u64_le(*request_id);
                buf.put_u64_le(*unknown_model_requests);
                put_count(buf, stats.len(), "stats entries")?;
                for s in stats {
                    put_str(buf, &s.model)?;
                    for word in s.words() {
                        buf.put_u64_le(word);
                    }
                }
            }
            Response::Busy {
                request_id,
                model,
                queue_depth,
            } => {
                header(buf, OP_BUSY);
                buf.put_u64_le(*request_id);
                put_str(buf, model)?;
                buf.put_u32_le(*queue_depth);
            }
        }
        Ok(())
    }

    /// Encodes one complete `[len | payload]` frame into `buf` (cleared
    /// first, capacity kept), ready for a single `write_all` — the
    /// zero-allocation steady-state reply path.
    ///
    /// # Errors
    ///
    /// Same as [`Response::encode`].
    pub fn encode_framed_into(&self, buf: &mut BytesMut) -> Result<()> {
        frame_into(buf, |b| self.encode_into(b))
    }

    /// Parses a response payload.
    ///
    /// # Errors
    ///
    /// Returns [`DjinnError::Protocol`] for any malformed frame.
    pub fn decode(mut payload: &[u8]) -> Result<Self> {
        let buf = &mut payload;
        match check_header(buf)? {
            OP_RESULT => {
                if buf.remaining() < 1 {
                    return Err(err("truncated status"));
                }
                match buf.get_u8() {
                    STATUS_OK => {
                        let trace = get_trace(buf)?;
                        Ok(Response::Output {
                            tensor: get_tensor(buf)?,
                            trace,
                        })
                    }
                    STATUS_ERR => Ok(Response::Error {
                        request_id: get_request_id(buf)?,
                        message: get_str(buf)?,
                    }),
                    s => Err(err(&format!("unknown status {s}"))),
                }
            }
            OP_OUTPUT_CHUNK => {
                if buf.remaining() < 1 {
                    return Err(err("truncated status"));
                }
                let status = buf.get_u8();
                if status != STATUS_OK {
                    return Err(err(&format!("unknown chunk status {status}")));
                }
                let trace = get_trace(buf)?;
                if buf.remaining() < 5 {
                    return Err(err("truncated chunk sequence"));
                }
                let seq = buf.get_u32_le();
                let flags = buf.get_u8();
                Ok(Response::Chunk {
                    tensor: get_tensor(buf)?,
                    trace,
                    seq,
                    last: flags & CHUNK_FLAG_FINAL != 0,
                })
            }
            OP_LIST_RESULT => {
                let request_id = get_request_id(buf)?;
                if buf.remaining() < 2 {
                    return Err(err("truncated model count"));
                }
                let count = buf.get_u16_le() as usize;
                let mut names = Vec::with_capacity(count);
                for _ in 0..count {
                    names.push(get_str(buf)?);
                }
                Ok(Response::Models { request_id, names })
            }
            OP_STATS_RESULT => {
                let request_id = get_request_id(buf)?;
                if buf.remaining() < 8 + 2 {
                    return Err(err("truncated stats header"));
                }
                let unknown_model_requests = buf.get_u64_le();
                let count = buf.get_u16_le() as usize;
                let mut stats = Vec::with_capacity(count);
                for _ in 0..count {
                    let model = get_str(buf)?;
                    if buf.remaining() < STATS_WORDS * 8 {
                        return Err(err("truncated stats entry"));
                    }
                    let words = std::array::from_fn(|_| buf.get_u64_le());
                    stats.push(ModelStats::from_words(model, words));
                }
                Ok(Response::Stats {
                    request_id,
                    unknown_model_requests,
                    stats,
                })
            }
            OP_BUSY => {
                let request_id = get_request_id(buf)?;
                let model = get_str(buf)?;
                if buf.remaining() < 4 {
                    return Err(err("truncated busy depth"));
                }
                Ok(Response::Busy {
                    request_id,
                    model,
                    queue_depth: buf.get_u32_le(),
                })
            }
            other => Err(err(&format!("unexpected response opcode {other}"))),
        }
    }
}

/// A stateful, buffered frame reader that survives read timeouts without
/// losing bytes.
///
/// Partial reads accumulate in an internal buffer across calls; a read
/// timeout (`WouldBlock`/`TimedOut`) surfaces as `Ok(None)` — "no complete
/// frame yet" — with every byte retained, so the caller can poll a stop
/// flag (or give up) and come back. Hostile length prefixes are rejected
/// as soon as the four prefix bytes arrive, before any payload is
/// buffered. One `FrameReader` serves one stream for the stream's
/// lifetime; bytes of a later frame that arrive early (pipelined
/// requests) are kept and yielded on the next call without touching the
/// socket.
///
/// Internally the buffer is managed as a read/consume cursor pair:
/// consuming a frame just advances `pos` (the old implementation
/// `drain`ed the front of the buffer, copying every remaining byte once
/// per frame), the socket reads directly into the spare tail of the
/// buffer (no intermediate stack chunk), and compaction runs only when
/// the tail is exhausted *and* at least half the filled region is
/// already consumed — so the copy cost stays amortized O(1) per byte.
/// [`FrameReader::read_frame_ref`] yields each frame as a borrowed slice
/// of this buffer: the steady-state receive path performs zero per-frame
/// allocations.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Backing storage: `buf[pos..end]` is buffered-but-unconsumed wire
    /// data, `buf[end..]` is initialized spare space the next socket
    /// read lands in. `buf.len()` only grows, so the zero-fill of new
    /// spare space is paid once per growth, not per read.
    buf: Vec<u8>,
    /// Consume cursor: start of unconsumed bytes.
    pos: usize,
    /// Fill cursor: end of unconsumed bytes.
    end: usize,
}

/// Read granularity: a reader starts with [`FIRST_READ`] bytes of room
/// and each growth doubles it, adding at most [`READ_CHUNK`] at a time —
/// so one syscall pulls at most that much past what is already buffered,
/// and a connection that only ever carried small frames holds a few kB
/// while it sits idle, not a whole chunk.
const READ_CHUNK: usize = 64 * 1024;

/// A new reader's first buffer size.
const FIRST_READ: usize = 4 * 1024;

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Bytes buffered toward the next frame (diagnostics and tests).
    pub fn buffered(&self) -> usize {
        self.end - self.pos
    }

    /// Pulls the next complete frame, reading from `r` as needed, and
    /// yields its payload as a slice borrowed from the internal buffer —
    /// no per-frame allocation. The slice is valid until the next call on
    /// this reader; decode it (or copy what outlives the call) before
    /// reading again.
    ///
    /// Returns `Ok(Some(payload))` once a whole frame is available,
    /// `Ok(None)` when the stream's read timeout fired first (partial
    /// bytes stay buffered for the next call).
    ///
    /// # Errors
    ///
    /// Returns [`DjinnError::Protocol`] for a length prefix exceeding
    /// [`MAX_FRAME`], `UnexpectedEof` when the stream closes (mid-frame or
    /// between frames), and propagates other I/O failures.
    pub fn read_frame_ref<R: Read>(&mut self, mut r: R) -> Result<Option<&[u8]>> {
        loop {
            if let Some(range) = self.buffered_frame_range()? {
                return Ok(Some(&self.buf[range]));
            }
            self.ensure_read_space();
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    let reason = if self.buffered() == 0 {
                        "connection closed"
                    } else {
                        "connection closed mid-frame"
                    };
                    return Err(DjinnError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        reason,
                    )));
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Locates the next complete frame in the buffer and consumes it by
    /// advancing the cursor; returns the payload's range within `buf`.
    /// (Returning a range instead of a slice keeps the borrow short, so
    /// the caller's read loop can keep mutating the buffer.)
    fn buffered_frame_range(&mut self) -> Result<Option<std::ops::Range<usize>>> {
        if self.buffered() < 4 {
            return Ok(None);
        }
        let prefix = self.buf[self.pos..self.pos + 4]
            .try_into()
            .expect("4 bytes");
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME {
            return Err(err(&format!("frame length {len} exceeds cap {MAX_FRAME}")));
        }
        if self.buffered() < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some(start..start + len))
    }

    /// Guarantees `buf[end..]` is non-empty so a read can make progress:
    /// resets the cursors when everything is consumed (free), compacts
    /// when the filled region hits the end and at least half of it is
    /// consumed (the copy recovers more space than it moves), and
    /// otherwise grows the initialized region (see [`READ_CHUNK`]).
    fn ensure_read_space(&mut self) {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        } else if self.end == self.buf.len() && self.pos >= self.end - self.pos {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.end == self.buf.len() {
            let grow = self.buf.len().clamp(FIRST_READ, READ_CHUNK);
            self.buf.resize(self.end + grow, 0);
        }
    }
}

/// The routing-relevant fields of a request frame, read without decoding
/// the payload.
///
/// A proxy (see [`crate::DjinnRouter`]) needs three things from an inbound
/// frame: which kind of request it is, which model it names, and where
/// the correlation ID sits so the ID can be rewritten *in place* — the
/// multi-MB tensor section is never parsed, validated, or copied beyond
/// the forwarding memcpy. `id_at` is the byte offset of the 8-byte
/// little-endian ID within the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestPeek<'a> {
    /// An `Infer` frame for `model`; the tensor bytes are untouched.
    Infer {
        /// Model name, borrowed from the frame.
        model: &'a str,
        /// Client-assigned ID.
        request_id: u64,
        /// Offset of the ID field.
        id_at: usize,
    },
    /// A `ListModels` control frame.
    ListModels {
        /// Client-assigned ID.
        request_id: u64,
        /// Offset of the ID field.
        id_at: usize,
    },
    /// A `Stats` control frame.
    Stats {
        /// Client-assigned ID.
        request_id: u64,
        /// Offset of the ID field.
        id_at: usize,
    },
    /// A `StreamInfer` frame for `model`; routed like an `Infer` (the
    /// name and ID sit at the same offsets) but answered by a run of
    /// chunk frames that must all return through the same upstream.
    StreamInfer {
        /// Model name, borrowed from the frame.
        model: &'a str,
        /// Client-assigned stream ID.
        request_id: u64,
        /// Offset of the ID field.
        id_at: usize,
    },
}

impl RequestPeek<'_> {
    /// The frame's correlation ID.
    pub fn request_id(&self) -> u64 {
        match self {
            RequestPeek::Infer { request_id, .. }
            | RequestPeek::StreamInfer { request_id, .. }
            | RequestPeek::ListModels { request_id, .. }
            | RequestPeek::Stats { request_id, .. } => *request_id,
        }
    }

    /// Byte offset of the ID field within the payload.
    pub fn id_at(&self) -> usize {
        match self {
            RequestPeek::Infer { id_at, .. }
            | RequestPeek::StreamInfer { id_at, .. }
            | RequestPeek::ListModels { id_at, .. }
            | RequestPeek::Stats { id_at, .. } => *id_at,
        }
    }
}

/// Reads a request frame's kind, model name, and correlation-ID location
/// without decoding the tensor payload. See [`RequestPeek`].
///
/// # Errors
///
/// Returns [`DjinnError::Protocol`] for a malformed header, a truncated
/// name/ID field, or an unknown request opcode. The tensor section is
/// *not* validated — the serving backend that eventually decodes the
/// frame still performs the full check.
pub fn peek_request(payload: &[u8]) -> Result<RequestPeek<'_>> {
    let mut hdr = payload;
    match check_header(&mut hdr)? {
        opcode @ (OP_INFER | OP_STREAM_INFER) => {
            if payload.len() < 8 {
                return Err(err("truncated string length"));
            }
            let name_len = u16::from_le_bytes([payload[6], payload[7]]) as usize;
            let name_end = 8 + name_len;
            if payload.len() < name_end {
                return Err(err("truncated string body"));
            }
            let model = std::str::from_utf8(&payload[8..name_end])
                .map_err(|_| err("string is not utf-8"))?;
            let request_id = raw_id(payload, name_end)?;
            Ok(if opcode == OP_INFER {
                RequestPeek::Infer {
                    model,
                    request_id,
                    id_at: name_end,
                }
            } else {
                RequestPeek::StreamInfer {
                    model,
                    request_id,
                    id_at: name_end,
                }
            })
        }
        opcode @ (OP_LIST | OP_STATS) => {
            let request_id = raw_id(payload, 6)?;
            Ok(if opcode == OP_LIST {
                RequestPeek::ListModels {
                    request_id,
                    id_at: 6,
                }
            } else {
                RequestPeek::Stats {
                    request_id,
                    id_at: 6,
                }
            })
        }
        other => Err(err(&format!("unexpected request opcode {other}"))),
    }
}

/// Whether a response payload is a `Busy` (load-shed) frame, checked
/// from the header bytes alone. A router uses this to feed its live
/// shed signal without decoding the frame it is forwarding: a replica
/// at queue-full answers instantly, so by outstanding-count alone it
/// looks *idle* — exactly the trap that floods a shedding replica.
pub fn is_busy_response(payload: &[u8]) -> bool {
    payload.len() > 5 && payload[..4] == *MAGIC && payload[5] == OP_BUSY
}

/// Whether `payload` is a *non-final* `chunk` frame, judged from the
/// fixed-offset header bytes alone (no tensor decode). A router uses
/// this to keep a stream's in-flight entry registered — every chunk of
/// a stream must flow back through the replica that owns it — until the
/// final chunk retires the request. Anything that is not a chunk
/// (including a truncated one) answers `false`, so malformed frames fall
/// through to the normal retire-on-reply path. Like
/// [`is_busy_response`] it reads magic and opcode only: the version byte
/// is [`response_id_slot`]'s to refuse, which a router calls first.
pub fn is_partial_chunk(payload: &[u8]) -> bool {
    // magic(4) version(1) opcode(1) status(1) trace seq(4) flags(1)
    const FLAGS_AT: usize = 7 + TRACE_LEN + 4;
    payload.len() > FLAGS_AT
        && payload[..4] == *MAGIC
        && payload[5] == OP_OUTPUT_CHUNK
        && payload[FLAGS_AT] & CHUNK_FLAG_FINAL == 0
}

/// Locates a response frame's correlation ID without decoding the
/// payload: returns `(request_id, byte offset of the 8-byte field)`. The
/// tensor/stats sections are not validated.
///
/// # Errors
///
/// Returns [`DjinnError::Protocol`] for a malformed header, a truncated
/// ID field, an unknown status byte, or an unknown response opcode.
pub fn response_id_slot(payload: &[u8]) -> Result<(u64, usize)> {
    let mut hdr = payload;
    let at = match check_header(&mut hdr)? {
        // Behind the status byte comes the ID: an error's own field, or
        // the first word of a successful result's trace block.
        OP_RESULT => match payload.get(6) {
            Some(&(STATUS_OK | STATUS_ERR)) => 7,
            Some(s) => return Err(err(&format!("unknown status {s}"))),
            None => return Err(err("truncated status")),
        },
        OP_OUTPUT_CHUNK => 7,
        OP_LIST_RESULT | OP_STATS_RESULT | OP_BUSY => 6,
        other => return Err(err(&format!("unexpected response opcode {other}"))),
    };
    Ok((raw_id(payload, at)?, at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::Infer {
            model: "imc".into(),
            input: Tensor::random_uniform(Shape::nchw(2, 3, 4, 4), 1.0, 1),
            request_id: 0xDEAD_BEEF_0042,
        };
        let decoded = Request::decode(&req.encode().unwrap()).unwrap();
        assert_eq!(decoded, req);
        let list = Request::ListModels { request_id: 31 };
        assert_eq!(Request::decode(&list.encode().unwrap()).unwrap(), list);
        let stats = Request::Stats { request_id: 32 };
        assert_eq!(Request::decode(&stats.encode().unwrap()).unwrap(), stats);
    }

    fn stats_entry(model: &str) -> ModelStats {
        ModelStats {
            model: model.into(),
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
            cache_hits: 18,
            cache_misses: 24,
            cache_evictions: 2,
            tokens_out: 640,
            p50_token_gap_us: 210,
            p99_token_gap_us: 2_900,
        }
    }

    #[test]
    fn stats_response_roundtrip() {
        let rsp = Response::Stats {
            request_id: 88,
            unknown_model_requests: 5,
            stats: vec![stats_entry("dig"), stats_entry("pos")],
        };
        assert_eq!(Response::decode(&rsp.encode().unwrap()).unwrap(), rsp);
    }

    #[test]
    fn merge_sums_counts_and_maxes_the_rest_in_every_word() {
        // A distinct value in every word, and which side is larger
        // alternates, so a sum never passes for a max (or a min for a
        // max), and a word merged under another's rule shows.
        let ours = |i: usize| 100 * (i as u64 + 1);
        let theirs = |i: usize| {
            if i.is_multiple_of(2) {
                ours(i) + 4
            } else {
                ours(i) - 3
            }
        };
        let a = ModelStats::from_words("m".into(), std::array::from_fn(ours));
        let b = ModelStats::from_words("m".into(), std::array::from_fn(theirs));
        let sum = |f: fn(&ModelStats) -> u64| f(&a) + f(&b);
        let max = |f: fn(&ModelStats) -> u64| f(&a).max(f(&b));
        let want = ModelStats {
            model: "m".into(),
            requests: sum(|s| s.requests),
            errors: sum(|s| s.errors),
            total_latency_us: sum(|s| s.total_latency_us),
            max_latency_us: max(|s| s.max_latency_us),
            queue_depth: sum(|s| s.queue_depth),
            in_flight: sum(|s| s.in_flight),
            shed: sum(|s| s.shed),
            p50_queue_wait_us: max(|s| s.p50_queue_wait_us),
            p99_queue_wait_us: max(|s| s.p99_queue_wait_us),
            p50_batch_wait_us: max(|s| s.p50_batch_wait_us),
            p99_batch_wait_us: max(|s| s.p99_batch_wait_us),
            p50_service_us: max(|s| s.p50_service_us),
            p99_service_us: max(|s| s.p99_service_us),
            p50_wire_us: max(|s| s.p50_wire_us),
            p99_wire_us: max(|s| s.p99_wire_us),
            p50_lease_wait_us: max(|s| s.p50_lease_wait_us),
            p99_lease_wait_us: max(|s| s.p99_lease_wait_us),
            cache_hits: sum(|s| s.cache_hits),
            cache_misses: sum(|s| s.cache_misses),
            cache_evictions: sum(|s| s.cache_evictions),
            tokens_out: sum(|s| s.tokens_out),
            p50_token_gap_us: max(|s| s.p50_token_gap_us),
            p99_token_gap_us: max(|s| s.p99_token_gap_us),
        };
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, want);
        // The rule is per word, not per side: merging the other way
        // round gives the same entry.
        let mut merged = b.clone();
        merged.merge(&a);
        assert_eq!(merged, want);
    }

    #[test]
    fn mean_latency_handles_zero_requests() {
        let s = ModelStats {
            requests: 0,
            total_latency_us: 0,
            ..stats_entry("m")
        };
        assert_eq!(s.mean_latency_us(), 0.0);
    }

    #[test]
    fn version_constant_matches_the_correlated_protocol() {
        // Bump this alongside any change to a wire layout.
        assert_eq!(VERSION, 7);
        let wire = Request::ListModels { request_id: 1 }.encode().unwrap();
        assert_eq!(wire[4], VERSION, "encoders must stamp VERSION");
    }

    #[test]
    fn busy_response_roundtrips() {
        let rsp = Response::Busy {
            request_id: 512,
            model: "imc".into(),
            queue_depth: 128,
        };
        assert_eq!(Response::decode(&rsp.encode().unwrap()).unwrap(), rsp);
    }

    #[test]
    fn every_response_variant_reports_its_request_id() {
        for rsp in every_response(7) {
            assert_eq!(rsp.request_id(), 7, "{rsp:?}");
            let back = Response::decode(&rsp.encode().unwrap()).unwrap();
            assert_eq!(back.request_id(), 7, "id lost on the wire: {back:?}");
        }
    }

    #[test]
    fn stream_request_roundtrips_both_modes() {
        for mode in [
            StreamMode::Windowed { window_rows: 4 },
            StreamMode::Generative { max_tokens: 32 },
        ] {
            let req = Request::StreamInfer {
                model: "asr".into(),
                input: Tensor::random_uniform(Shape::mat(8, 5), 1.0, 3),
                request_id: 0xFACE,
                mode,
            };
            let back = Request::decode(&req.encode().unwrap()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn stream_request_rejects_unknown_mode_byte() {
        let mut wire = Request::StreamInfer {
            model: "m".into(),
            input: Tensor::zeros(Shape::mat(1, 1)),
            request_id: 5,
            mode: StreamMode::Windowed { window_rows: 1 },
        }
        .encode()
        .unwrap()
        .to_vec();
        // mode byte sits after magic+ver+op (6) + name (2+1) + id (8)
        wire[17] = 9;
        assert!(matches!(
            Request::decode(&wire),
            Err(DjinnError::Protocol { .. })
        ));
    }

    #[test]
    fn chunk_response_roundtrips_with_seq_and_final_flag() {
        for (seq, last) in [(0u32, false), (7, true)] {
            let rsp = Response::Chunk {
                tensor: Tensor::random_uniform(Shape::mat(1, 6), 1.0, 9),
                trace: ServerTrace {
                    request_id: 41,
                    queue_us: 5,
                    lease_us: 2,
                    service_us: 11,
                    server_total_us: 30,
                    first_token_us: 9,
                    tokens: u64::from(seq) + 1,
                    ..ServerTrace::default()
                },
                seq,
                last,
            };
            let back = Response::decode(&rsp.encode().unwrap()).unwrap();
            assert_eq!(back, rsp);
        }
    }

    #[test]
    fn peek_reads_stream_request_kind_and_id() {
        let req = Request::StreamInfer {
            model: "lm".into(),
            input: Tensor::zeros(Shape::mat(1, 4)),
            request_id: 0xBEEF,
            mode: StreamMode::Generative { max_tokens: 8 },
        };
        let wire = req.encode().unwrap();
        assert_eq!(
            peek_request(&wire).unwrap(),
            RequestPeek::StreamInfer {
                model: "lm",
                request_id: 0xBEEF,
                // Same slot as Infer: after magic+ver+op and the name.
                id_at: 4 + 1 + 1 + 2 + 2,
            }
        );
    }

    #[test]
    fn is_partial_chunk_spots_only_nonfinal_chunks() {
        let chunk = |last| Response::Chunk {
            tensor: Tensor::zeros(Shape::mat(1, 1)),
            trace: ServerTrace::default(),
            seq: 0,
            last,
        };
        let partial = chunk(false).encode().unwrap();
        assert!(is_partial_chunk(&partial));
        let terminal = chunk(true).encode().unwrap();
        assert!(!is_partial_chunk(&terminal));
        // Non-chunk frames and junk are never partial.
        let output = Response::Output {
            tensor: Tensor::zeros(Shape::mat(1, 1)),
            trace: ServerTrace::default(),
        }
        .encode()
        .unwrap();
        assert!(!is_partial_chunk(&output));
        assert!(!is_partial_chunk(b"DJNN"));
        assert!(!is_partial_chunk(&[]));
    }

    #[test]
    fn response_roundtrip() {
        for rsp in [
            Response::Output {
                tensor: Tensor::random_uniform(Shape::mat(3, 5), 1.0, 2),
                trace: ServerTrace {
                    request_id: 9,
                    queue_us: 120,
                    batch_us: 40,
                    lease_us: 15,
                    service_us: 2_000,
                    server_total_us: 2_300,
                    cache_hit: true,
                    first_token_us: 88,
                    tokens: 16,
                },
            },
            Response::Error {
                request_id: 10,
                message: "nope".into(),
            },
            Response::Models {
                request_id: 11,
                names: vec!["a".into(), "b".into()],
            },
        ] {
            assert_eq!(Response::decode(&rsp.encode().unwrap()).unwrap(), rsp);
        }
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let list = Request::ListModels { request_id: 0 };
        let mut buf = list.encode().unwrap().to_vec();
        buf[0] = b'X';
        assert!(Request::decode(&buf).is_err());
        let mut buf2 = list.encode().unwrap().to_vec();
        buf2[4] = 99;
        assert!(Request::decode(&buf2).is_err());
    }

    /// One frame of every request kind, all under `request_id`.
    fn every_request(request_id: u64) -> Vec<Request> {
        let input = Tensor::random_uniform(Shape::mat(2, 5), 1.0, 3);
        vec![
            Request::Infer {
                model: "dig".into(),
                input: input.clone(),
                request_id,
            },
            Request::ListModels { request_id },
            Request::Stats { request_id },
            Request::StreamInfer {
                model: "dig".into(),
                input,
                request_id,
                mode: StreamMode::Windowed { window_rows: 2 },
            },
        ]
    }

    /// One frame of every response kind, all answering `request_id`.
    fn every_response(request_id: u64) -> Vec<Response> {
        let trace = ServerTrace {
            request_id,
            queue_us: 1,
            batch_us: 2,
            service_us: 3,
            server_total_us: 4,
            first_token_us: 12,
            tokens: 2,
            ..ServerTrace::default()
        };
        vec![
            Response::Output {
                tensor: Tensor::random_uniform(Shape::mat(1, 4), 1.0, 2),
                trace,
            },
            Response::Error {
                request_id,
                message: "boom".into(),
            },
            Response::Models {
                request_id,
                names: vec!["a".into(), "b".into()],
            },
            Response::Stats {
                request_id,
                unknown_model_requests: 2,
                stats: vec![stats_entry("dig")],
            },
            Response::Busy {
                request_id,
                model: "dig".into(),
                queue_depth: 16,
            },
            Response::Chunk {
                tensor: Tensor::random_uniform(Shape::mat(1, 4), 1.0, 2),
                trace,
                seq: 1,
                last: false,
            },
        ]
    }

    /// Every strict prefix of every frame kind is refused by the full
    /// decoders, and the raw-offset readers (`peek_request` indexes 6 and
    /// 7, `response_id_slot` 6, `is_partial_chunk` 83) refuse — never
    /// index past — any prefix that stops short of what they read.
    #[test]
    fn rejects_truncation_at_every_prefix() {
        for req in every_request(5) {
            let full = req.encode().unwrap();
            let id_end = peek_request(&full).unwrap().id_at() + 8;
            for cut in 0..full.len() {
                let prefix = &full[..cut];
                assert!(Request::decode(prefix).is_err(), "{req:?} cut at {cut}");
                // The peek stops reading at the ID: the tensor is not its
                // to validate.
                match peek_request(prefix) {
                    Ok(peek) => assert!(cut >= id_end && peek.request_id() == 5),
                    Err(_) => assert!(cut < id_end, "{req:?} cut at {cut}"),
                }
            }
        }
        for rsp in every_response(5) {
            let full = rsp.encode().unwrap();
            let id_end = response_id_slot(&full).unwrap().1 + 8;
            let partial = is_partial_chunk(&full);
            assert_eq!(partial, matches!(rsp, Response::Chunk { .. }));
            for cut in 0..full.len() {
                let prefix = &full[..cut];
                assert!(Response::decode(prefix).is_err(), "{rsp:?} cut at {cut}");
                match response_id_slot(prefix) {
                    Ok((id, _)) => assert!(cut >= id_end && id == 5),
                    Err(_) => assert!(cut < id_end, "{rsp:?} cut at {cut}"),
                }
                // The flags byte is the 84th: a shorter prefix is no chunk.
                assert_eq!(is_partial_chunk(prefix), partial && cut > 83);
            }
        }
    }

    #[test]
    fn oversized_model_name_is_a_protocol_error_not_truncation() {
        let req = Request::Infer {
            model: "x".repeat(MAX_STR + 1),
            input: Tensor::zeros(Shape::mat(1, 1)),
            request_id: 0,
        };
        assert!(matches!(req.encode(), Err(DjinnError::Protocol { .. })));
        let rsp = Response::Models {
            request_id: 0,
            names: vec!["y".repeat(70_000)],
        };
        assert!(matches!(rsp.encode(), Err(DjinnError::Protocol { .. })));
    }

    #[test]
    fn oversized_error_message_is_clamped_to_a_valid_frame() {
        // 70k of a multi-byte char: clamping must stay on a char boundary
        // and the frame must decode with a consistent length.
        let msg = "é".repeat(40_000);
        let rsp = Response::Error {
            request_id: 3,
            message: msg.clone(),
        };
        let wire = rsp.encode().unwrap();
        match Response::decode(&wire).unwrap() {
            Response::Error {
                request_id,
                message: m,
            } => {
                assert_eq!(request_id, 3);
                assert!(m.len() <= MAX_STR);
                assert!(msg.starts_with(&m));
                assert!(!m.is_empty());
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_zero_and_overlong_rank() {
        // Handcraft a tensor with rank 0 (after a valid zeroed trace
        // block, so the failure is the rank, not a truncated trace).
        let mut buf = BytesMut::new();
        header(&mut buf, OP_RESULT);
        buf.put_u8(STATUS_OK);
        buf.put_slice(&[0u8; 72]);
        buf.put_u8(0);
        assert!(Response::decode(&buf).is_err());
    }

    /// A reader delivering the wire bytes in predetermined chunks, with a
    /// simulated read timeout (`WouldBlock`) between consecutive chunks —
    /// exactly what a slow client looks like to the server.
    struct ChunkedStream {
        chunks: Vec<Vec<u8>>,
        next: usize,
        timeout_pending: bool,
    }

    impl ChunkedStream {
        fn new(chunks: Vec<Vec<u8>>) -> Self {
            ChunkedStream {
                chunks,
                next: 0,
                timeout_pending: false,
            }
        }
    }

    impl Read for ChunkedStream {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.timeout_pending {
                self.timeout_pending = false;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "simulated read timeout",
                ));
            }
            if self.next >= self.chunks.len() {
                return Ok(0); // EOF
            }
            let chunk = &mut self.chunks[self.next];
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.next += 1;
                self.timeout_pending = true;
            }
            Ok(n)
        }
    }

    /// Drains every frame out of a chunked stream, treating `Ok(None)`
    /// timeouts as "poll again" like the server's connection loop does.
    fn collect_frames(stream: &mut ChunkedStream) -> (Vec<Vec<u8>>, DjinnError) {
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.read_frame_ref(&mut *stream) {
                Ok(Some(f)) => frames.push(f.to_vec()),
                Ok(None) => continue,
                Err(e) => return (frames, e),
            }
        }
    }

    /// `[u32 len | payload]`, the frame layout, built by hand.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(payload);
        wire
    }

    /// Frames laid end to end, as a peer pipelines them.
    fn framed_all<'a>(payloads: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
        payloads.into_iter().flat_map(framed).collect()
    }

    #[test]
    fn framed_encode_matches_write_frame_bytes() {
        let request = Request::Infer {
            model: "imc".into(),
            input: Tensor::random_uniform(Shape::nchw(1, 3, 4, 4), 1.0, 9),
            request_id: 41,
        };
        let responses = [
            Response::Output {
                tensor: Tensor::random_uniform(Shape::mat(3, 5), 1.0, 2),
                trace: ServerTrace {
                    request_id: 9,
                    queue_us: 120,
                    batch_us: 40,
                    lease_us: 15,
                    service_us: 2_000,
                    server_total_us: 2_300,
                    cache_hit: false,
                    first_token_us: 75,
                    tokens: 2,
                },
            },
            Response::Error {
                request_id: 10,
                message: "nope".into(),
            },
            Response::Busy {
                request_id: 11,
                model: "imc".into(),
                queue_depth: 64,
            },
        ];
        // One dirty scratch buffer reused across every frame: framed
        // encoding must clear it and still match the length-prefixed
        // payload byte for byte.
        let mut scratch = BytesMut::new();
        scratch.put_slice(b"stale bytes from a previous frame");

        let expected = framed(&request.encode().unwrap());
        request.encode_framed_into(&mut scratch).unwrap();
        assert_eq!(&scratch[..], &expected[..]);

        for rsp in &responses {
            let expected = framed(&rsp.encode().unwrap());
            rsp.encode_framed_into(&mut scratch).unwrap();
            assert_eq!(&scratch[..], &expected[..], "{rsp:?}");
        }
    }

    #[test]
    fn borrowed_infer_encoder_matches_owned() {
        let input = Tensor::random_uniform(Shape::nchw(2, 1, 3, 3), 1.0, 5);
        let owned = Request::Infer {
            model: "face".into(),
            input: input.clone(),
            request_id: 99,
        };
        let mut via_owned = BytesMut::new();
        owned.encode_framed_into(&mut via_owned).unwrap();
        let mut via_borrowed = BytesMut::new();
        encode_infer_framed_into(&mut via_borrowed, "face", &input, 99).unwrap();
        assert_eq!(&via_owned[..], &via_borrowed[..]);
    }

    #[test]
    fn borrowed_stream_encoder_matches_owned() {
        let input = Tensor::random_uniform(Shape::mat(3, 5), 1.0, 6);
        for mode in [
            StreamMode::Windowed { window_rows: 2 },
            StreamMode::Generative { max_tokens: 17 },
        ] {
            let owned = Request::StreamInfer {
                model: "textgen".into(),
                input: input.clone(),
                request_id: 123,
                mode,
            };
            let mut via_owned = BytesMut::new();
            owned.encode_framed_into(&mut via_owned).unwrap();
            let mut via_borrowed = BytesMut::new();
            encode_stream_framed_into(&mut via_borrowed, "textgen", &input, 123, mode).unwrap();
            assert_eq!(&via_owned[..], &via_borrowed[..], "{mode:?}");
        }
    }

    #[test]
    fn frame_reader_ref_consumes_pipelined_frames_by_cursor() {
        // Several frames delivered in one chunk: each read_frame_ref call
        // must yield the next one from the buffer (advancing the cursor,
        // not copying), and `buffered()` must count only unconsumed bytes.
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 3 + i as usize * 7]).collect();
        let wire = framed_all(payloads.iter().map(Vec::as_slice));
        let total = wire.len();
        let mut consumed = 0;
        let mut stream = ChunkedStream::new(vec![wire]);
        let mut reader = FrameReader::new();
        for expect in &payloads {
            let got = reader.read_frame_ref(&mut stream).unwrap().unwrap();
            assert_eq!(got, &expect[..]);
            consumed += 4 + expect.len();
            assert_eq!(reader.buffered(), total - consumed);
        }
    }

    #[test]
    fn frame_reader_compacts_partial_frames_across_chunk_growth() {
        // A stream of frames sized near READ_CHUNK forces the cursor to
        // wrap: full frames are consumed from the front while a partial
        // frame's tail is still arriving, exercising compaction + growth.
        let payloads: Vec<Vec<u8>> = (0..6u8)
            .map(|i| vec![i ^ 0x5A; READ_CHUNK / 2 + i as usize * 1_000])
            .collect();
        let wire = framed_all(payloads.iter().map(Vec::as_slice));
        // Deliver in chunks that never align with frame boundaries.
        let chunks: Vec<Vec<u8>> = wire
            .chunks(READ_CHUNK / 3 + 17)
            .map(<[u8]>::to_vec)
            .collect();
        let mut stream = ChunkedStream::new(chunks);
        let (frames, end) = collect_frames(&mut stream);
        assert_eq!(frames, payloads);
        assert!(matches!(end, DjinnError::Io(ref e)
            if e.kind() == std::io::ErrorKind::UnexpectedEof));
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let payload = Request::Infer {
            model: "m".into(),
            input: Tensor::random_uniform(Shape::mat(4, 4), 1.0, 3),
            request_id: 11,
        }
        .encode()
        .unwrap()
        .to_vec();
        let wire = framed(&payload);
        // Split inside the length prefix AND inside the payload.
        let cuts = [2usize, 9, wire.len() / 2];
        let mut chunks = Vec::new();
        let mut prev = 0;
        for &c in &cuts {
            chunks.push(wire[prev..c].to_vec());
            prev = c;
        }
        chunks.push(wire[prev..].to_vec());
        let mut stream = ChunkedStream::new(chunks);
        let (frames, end) = collect_frames(&mut stream);
        assert_eq!(frames, vec![payload]);
        assert!(matches!(end, DjinnError::Io(ref e)
            if e.kind() == std::io::ErrorKind::UnexpectedEof));
    }

    #[test]
    fn frame_reader_yields_pipelined_frames_without_new_reads() {
        // Two frames delivered in ONE chunk: the second must come out of
        // the buffer even though the stream has hit EOF.
        let wire = framed_all([&b"first"[..], b"second"]);
        let mut stream = ChunkedStream::new(vec![wire]);
        let (frames, _) = collect_frames(&mut stream);
        assert_eq!(frames, vec![b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn frame_reader_rejects_hostile_length_before_buffering_payload() {
        let mut reader = FrameReader::new();
        let hostile = u32::MAX.to_le_bytes().to_vec();
        let got = reader.read_frame_ref(&hostile[..]);
        assert!(matches!(got, Err(DjinnError::Protocol { .. })));
    }

    #[test]
    fn frame_reader_reports_eof_mid_frame() {
        let mut wire = framed(&[0xAB; 100]);
        wire.truncate(40); // stream dies mid-payload
        let mut stream = ChunkedStream::new(vec![wire]);
        let (frames, end) = collect_frames(&mut stream);
        assert!(frames.is_empty());
        assert!(matches!(end, DjinnError::Io(ref e)
            if e.kind() == std::io::ErrorKind::UnexpectedEof));
    }

    proptest! {
        #[test]
        fn arbitrary_tensor_roundtrips(
            rank in 1usize..=4,
            seed in 0u64..500,
        ) {
            let dims: Vec<usize> = (0..rank).map(|i| 1 + (seed as usize + i * 3) % 5).collect();
            let shape = Shape::new(&dims).unwrap();
            let t = Tensor::random_uniform(shape, 10.0, seed);
            let rsp = Response::Output {
                tensor: t.clone(),
                trace: ServerTrace {
                    request_id: seed,
                    queue_us: seed % 997,
                    batch_us: seed % 31,
                    lease_us: seed % 211,
                    service_us: seed % 4_001,
                    server_total_us: seed % 5_003,
                    cache_hit: seed % 2 == 1,
                    first_token_us: seed % 13,
                    tokens: seed % 7,
                },
            };
            let back = Response::decode(&rsp.encode().unwrap()).unwrap();
            prop_assert_eq!(back, rsp);
        }

        #[test]
        fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Decoding hostile bytes must fail cleanly, never panic.
            let _ = Request::decode(&data);
            let _ = Response::decode(&data);
        }

        #[test]
        fn frame_reader_reassembles_arbitrary_splits(
            frame_count in 1usize..=4,
            sizes_seed in 0u64..10_000,
            cut_seed in 0u64..10_000,
        ) {
            // Build a wire image of several frames with pseudo-random
            // payload sizes, then slice it at pseudo-random boundaries
            // (with a simulated timeout between every slice) and check
            // that the reader reproduces the frames exactly.
            let mut size_rng = proptest::TestRng::new(sizes_seed);
            let mut payloads = Vec::new();
            let mut wire = Vec::new();
            for i in 0..frame_count {
                let len = size_rng.below(2000);
                let payload: Vec<u8> =
                    (0..len).map(|j| (i * 31 + j * 7) as u8).collect();
                wire.extend(framed(&payload));
                payloads.push(payload);
            }
            let mut cut_rng = proptest::TestRng::new(cut_seed);
            let mut cuts: Vec<usize> =
                (0..cut_rng.below(8)).map(|_| cut_rng.below(wire.len().max(1))).collect();
            cuts.sort_unstable();
            let mut chunks = Vec::new();
            let mut prev = 0;
            for c in cuts {
                chunks.push(wire[prev..c].to_vec());
                prev = c;
            }
            chunks.push(wire[prev..].to_vec());
            let mut stream = ChunkedStream::new(chunks);
            let (frames, end) = collect_frames(&mut stream);
            prop_assert_eq!(frames, payloads);
            prop_assert!(matches!(end, DjinnError::Io(ref e)
                if e.kind() == std::io::ErrorKind::UnexpectedEof));
        }
    }

    #[test]
    fn peek_request_reads_kind_model_and_id_without_decoding() {
        let infer = Request::Infer {
            model: "imc".into(),
            input: Tensor::random_uniform(Shape::nchw(1, 3, 4, 4), 1.0, 9),
            request_id: 0xAB,
        };
        let wire = infer.encode().unwrap();
        let peek = peek_request(&wire).unwrap();
        assert_eq!(
            peek,
            RequestPeek::Infer {
                model: "imc",
                request_id: 0xAB,
                id_at: 4 + 1 + 1 + 2 + 3,
            }
        );
        assert_eq!(peek.request_id(), 0xAB);

        let list = Request::ListModels { request_id: 7 }.encode().unwrap();
        assert_eq!(
            peek_request(&list).unwrap(),
            RequestPeek::ListModels {
                request_id: 7,
                id_at: 6,
            }
        );
        let stats = Request::Stats { request_id: 8 }.encode().unwrap();
        assert_eq!(
            peek_request(&stats).unwrap(),
            RequestPeek::Stats {
                request_id: 8,
                id_at: 6,
            }
        );
    }

    /// What the router does to a forwarded request: write 8 bytes at the
    /// offset `peek_request` reports. The patched frame must be
    /// byte-identical to encoding the request with the new ID directly.
    #[test]
    fn patching_the_peeked_id_slot_matches_a_full_reencode() {
        for (req, renumbered) in every_request(41)
            .into_iter()
            .zip(every_request(0x1234_5678_9ABC))
        {
            let mut wire = req.encode().unwrap().to_vec();
            let peek = peek_request(&wire).unwrap();
            assert_eq!(peek.request_id(), 41);
            let at = peek.id_at();
            wire[at..at + 8].copy_from_slice(&0x1234_5678_9ABC_u64.to_le_bytes());
            assert_eq!(&wire[..], &renumbered.encode().unwrap()[..]);
        }
    }

    /// The return leg: 8 bytes at the offset `response_id_slot` reports.
    #[test]
    fn patching_the_response_id_slot_round_trips_every_variant() {
        for rsp in every_response(55) {
            let mut wire = rsp.encode().unwrap().to_vec();
            let (id, at) = response_id_slot(&wire).unwrap();
            assert_eq!(id, 55, "{rsp:?}");
            wire[at..at + 8].copy_from_slice(&77u64.to_le_bytes());
            let back = Response::decode(&wire).unwrap();
            assert_eq!(back.request_id(), 77, "{back:?}");
            // Only the ID changed: restoring it reproduces the original.
            wire[at..at + 8].copy_from_slice(&55u64.to_le_bytes());
            assert_eq!(Response::decode(&wire).unwrap(), rsp);
        }
    }
}
