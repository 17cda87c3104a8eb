//! Client library for the DjiNN service.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use tensor::Tensor;

use crate::protocol::{
    encode_infer_framed_into, encode_stream_framed_into, FrameReader, ModelStats, Request,
    Response, StreamMode,
};
use crate::trace::{self, ServerTrace, TraceRecord};
use crate::{DjinnError, Result};

/// Abandoned request IDs remembered for exact stale-response draining.
/// A response whose ID fell off this window is still drained as long as
/// it is at or below the connection's issued high-water mark — only an
/// ID this client *never issued* poisons the connection.
const ABANDONED_CAP: usize = 64;

/// A completion demultiplexed from a pipelined connection: which request
/// it answers, and its per-request outcome.
#[derive(Debug)]
pub struct PipelinedResponse {
    /// The client-assigned ID of the request this answers.
    pub request_id: u64,
    /// The request's outcome: prediction plus trace, or its own typed
    /// error ([`DjinnError::Busy`] when shed, [`DjinnError::Remote`] for
    /// server-side failures). Per-request errors do not poison the
    /// connection.
    pub result: Result<(Tensor, TraceRecord)>,
}

/// What the client remembers about an in-flight infer until its
/// response arrives.
#[derive(Debug)]
struct PendingInfer {
    model: String,
    sent: Instant,
    /// Size of the request frame on the wire (length prefix included),
    /// combined with the response frame's size into the trace record's
    /// bytes-per-request accounting.
    sent_bytes: u64,
}

/// One partial response of a streaming inference: the chunk's tensor,
/// its position in the stream, and the server's span breakdown (whose
/// `first_token_us`/`tokens` fields carry the per-token telemetry).
#[derive(Debug)]
pub struct StreamChunk {
    /// Zero-based position of this chunk within its stream.
    pub seq: u32,
    /// Whether this is the stream's final chunk.
    pub last: bool,
    /// The partial output (one generated token's scores, or one
    /// window's rows).
    pub tensor: Tensor,
    /// The server's span breakdown for this chunk.
    pub trace: ServerTrace,
}

/// What the client remembers about an in-flight stream.
#[derive(Debug)]
struct PendingStream {
    /// The next chunk sequence number this stream must deliver;
    /// anything else means frames were lost or reordered, which poisons
    /// the connection.
    next_seq: u32,
}

/// One routed inbound frame: a completed one-shot infer, a chunk
/// (`Err` = terminal failure) of an in-flight stream, or the answer to
/// a blocked control call.
#[derive(Debug)]
enum Routed {
    Infer(PipelinedResponse),
    Stream(u64, Result<StreamChunk>),
    Control(Response),
}

/// What a blocked call waits for; every other routed frame is stashed.
#[derive(Debug, Clone, Copy)]
enum Want {
    /// Whichever one-shot infer completes first.
    AnyInfer,
    /// The one-shot infer with this ID.
    Infer(u64),
    /// The next chunk of the stream with this ID.
    Stream(u64),
    /// The list/stats answer with this ID.
    Control(u64),
}

impl Want {
    fn takes(self, routed: &Routed) -> bool {
        match (self, routed) {
            (Want::AnyInfer, Routed::Infer(_)) => true,
            (Want::Infer(id), Routed::Infer(done)) => done.request_id == id,
            (Want::Stream(id), Routed::Stream(sid, _)) => *sid == id,
            _ => false,
        }
    }
}

/// A synchronous client holding one TCP connection to a DjiNN server.
///
/// Tonic Suite applications use this to send preprocessed inputs and
/// receive predictions; each client owns its connection, so one client per
/// thread.
///
/// # Correlation, not order
///
/// Every request carries a client-assigned ID which the server echoes on
/// the response (on *every* frame — `Busy` and error frames included),
/// and the client matches responses to requests **by ID, never by
/// arrival order**. A response that outlived its
/// request (the classic case: a read timeout fired, then the late answer
/// arrived) is recognized as stale and discarded instead of being
/// returned as the answer to the next call. A response that correlates
/// with nothing poisons the connection.
///
/// # Pipelining
///
/// Because correlation is by ID, one connection can carry many requests
/// at once: [`DjinnClient::submit`] sends without waiting,
/// [`DjinnClient::recv_next`] blocks for whichever in-flight request
/// finishes first (the server answers out of order as its engines
/// complete). Keeping a window of submits in flight is what lets a
/// single connection keep the server's batcher fed.
///
/// # Poisoned connections
///
/// After a failed frame write the server may have received half a frame,
/// and after an uncorrelatable response the stream's framing can no
/// longer be trusted. Both poison the connection: every subsequent call
/// fails fast with [`DjinnError::ConnectionPoisoned`] instead of
/// desyncing further. The only recovery is a fresh connection.
///
/// By default every call blocks until the server answers. Production
/// callers should bound that wait with [`DjinnClient::connect_with_timeout`]
/// (or [`DjinnClient::set_io_timeout`]) so a hung server cannot wedge a
/// Tonic application forever: the timeout is a *stall* bound — it fires
/// only when the server makes no progress for the whole window, so a
/// large tensor trickling in steadily never trips it.
#[derive(Debug)]
pub struct DjinnClient {
    stream: TcpStream,
    reader: FrameReader,
    /// Scratch for framed request encoding, reused across sends: each
    /// request is laid out as one `[len | payload]` image here and written
    /// with a single `write_all` — one syscall, zero steady-state
    /// allocations per frame.
    send_buf: BytesMut,
    /// `Some(reason)` once the connection can no longer be trusted.
    poisoned: Option<String>,
    /// In-flight infer requests by ID.
    pending: HashMap<u64, PendingInfer>,
    /// IDs whose responses were abandoned (a timeout fired while waiting
    /// for them); their late responses are drained and discarded.
    abandoned: VecDeque<u64>,
    /// The highest request ID this connection has ever sent. An unknown
    /// response ID at or below this mark is a stale answer to some
    /// abandoned request (possibly evicted from `abandoned`) and is
    /// drained; an ID above it was never ours and poisons.
    issued_high: u64,
    /// In-flight streams by ID.
    streams: HashMap<u64, PendingStream>,
    /// Completions and stream chunks that arrived while waiting for
    /// something else, in arrival order.
    stash: VecDeque<Routed>,
}

impl DjinnClient {
    /// Connects to a running server with no I/O timeouts (calls may block
    /// indefinitely on an unresponsive server).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connects with `timeout` bounding the connect itself and every
    /// subsequent read/write stall.
    ///
    /// # Errors
    ///
    /// Propagates connection failures, including the connect timing out.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        let mut client = Self::from_stream(stream)?;
        client.set_io_timeout(Some(timeout))?;
        Ok(client)
    }

    fn from_stream(stream: TcpStream) -> Result<Self> {
        stream.set_nodelay(true)?;
        Ok(DjinnClient {
            stream,
            reader: FrameReader::new(),
            send_buf: BytesMut::new(),
            poisoned: None,
            pending: HashMap::new(),
            abandoned: VecDeque::new(),
            issued_high: 0,
            streams: HashMap::new(),
            stash: VecDeque::new(),
        })
    }

    /// Sets (or clears, with `None`) the per-call read/write stall bound.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Sends one inference request and waits for the prediction.
    ///
    /// The input's batch axis carries the number of stacked queries; the
    /// response preserves it.
    ///
    /// # Errors
    ///
    /// Returns [`DjinnError::Busy`] when the server shed the request at
    /// admission (back off and retry), [`DjinnError::Remote`] for other
    /// server-reported failures, [`DjinnError::ConnectionPoisoned`] once
    /// the connection can no longer be trusted, and protocol/I/O errors
    /// otherwise.
    pub fn infer(&mut self, model: &str, input: &Tensor) -> Result<Tensor> {
        self.infer_traced(model, input).map(|(tensor, _)| tensor)
    }

    /// Like [`DjinnClient::infer`], but also returns the request's
    /// [`TraceRecord`]: the client-measured end-to-end latency combined
    /// with the server's span breakdown. A fresh request ID is drawn from
    /// [`trace::next_request_id`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DjinnClient::infer`].
    pub fn infer_traced(&mut self, model: &str, input: &Tensor) -> Result<(Tensor, TraceRecord)> {
        self.infer_traced_with_id(model, input, trace::next_request_id())
    }

    /// Like [`DjinnClient::infer_traced`], with a caller-supplied request
    /// ID — the hook retrying callers use to keep one ID (hence one
    /// trace) across `Busy` retries. An ID of 0 (the untraced sentinel)
    /// is replaced with a fresh one so the response stays correlatable.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DjinnClient::infer`].
    pub fn infer_traced_with_id(
        &mut self,
        model: &str,
        input: &Tensor,
        request_id: u64,
    ) -> Result<(Tensor, TraceRecord)> {
        let request_id = if request_id == 0 {
            trace::next_request_id()
        } else {
            request_id
        };
        self.submit_with_id(model, input, request_id)?;
        let Routed::Infer(done) = self.wait(Want::Infer(request_id))? else {
            unreachable!("wait returns only what it was asked for");
        };
        done.result
    }

    /// Sends one inference request *without waiting* and returns its
    /// request ID; the response is claimed later via
    /// [`DjinnClient::recv_next`]. Any number of submits may be in flight
    /// on one connection.
    ///
    /// # Errors
    ///
    /// [`DjinnError::ConnectionPoisoned`] on an untrusted connection or
    /// after this write fails mid-frame; encoding errors otherwise.
    pub fn submit(&mut self, model: &str, input: &Tensor) -> Result<u64> {
        let request_id = trace::next_request_id();
        self.submit_with_id(model, input, request_id)?;
        Ok(request_id)
    }

    fn submit_with_id(&mut self, model: &str, input: &Tensor, request_id: u64) -> Result<()> {
        self.check_poisoned()?;
        if self.pending.contains_key(&request_id) {
            return Err(DjinnError::Protocol {
                reason: format!("request id {request_id} is already in flight"),
            });
        }
        // Encode straight from the borrowed parts into the reusable
        // scratch: no Request construction, no input clone.
        encode_infer_framed_into(&mut self.send_buf, model, input, request_id)?;
        let sent_bytes = self.send_buf.len() as u64;
        // The client-send span mark; client-recv is when the decoded
        // response is in hand. Stamped *before* the write: on a fast
        // localhost path the server can process the whole request before
        // this thread is rescheduled, so stamping after the write would
        // yield e2e readings smaller than the server's own span sum.
        let sent = Instant::now();
        self.write_send_buf(request_id)?;
        self.pending.insert(
            request_id,
            PendingInfer {
                model: model.to_string(),
                sent,
                sent_bytes,
            },
        );
        Ok(())
    }

    /// In-flight submits not yet claimed by a receive.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Blocks until *any* in-flight request completes and returns its
    /// demultiplexed response — completions arrive in the server's
    /// finish order, not submission order.
    ///
    /// # Errors
    ///
    /// [`DjinnError::Protocol`] when nothing is in flight; a `TimedOut`
    /// I/O error when the read stall bound fires (the requests stay in
    /// flight — call again to keep waiting);
    /// [`DjinnError::ConnectionPoisoned`] once correlation breaks.
    pub fn recv_next(&mut self) -> Result<PipelinedResponse> {
        let Routed::Infer(done) = self.wait(Want::AnyInfer)? else {
            unreachable!("wait returns only what it was asked for");
        };
        Ok(done)
    }

    /// Asks the server which models it serves.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DjinnClient::infer`].
    pub fn list_models(&mut self) -> Result<Vec<String>> {
        let request_id = trace::next_request_id();
        self.send(&Request::ListModels { request_id })?;
        match self.wait(Want::Control(request_id))? {
            Routed::Control(Response::Models { names, .. }) => Ok(names),
            other => Err(DjinnError::Protocol {
                reason: format!("unexpected response {other:?}"),
            }),
        }
    }

    /// Fetches per-model service statistics.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DjinnClient::infer`].
    pub fn stats(&mut self) -> Result<Vec<ModelStats>> {
        self.stats_with_unknown_count().map(|(stats, _)| stats)
    }

    /// Like [`DjinnClient::stats`], additionally returning the server's
    /// aggregate count of infer requests rejected for naming an
    /// unregistered model.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DjinnClient::infer`].
    pub fn stats_with_unknown_count(&mut self) -> Result<(Vec<ModelStats>, u64)> {
        let request_id = trace::next_request_id();
        self.send(&Request::Stats { request_id })?;
        match self.wait(Want::Control(request_id))? {
            Routed::Control(Response::Stats {
                unknown_model_requests,
                stats,
                ..
            }) => Ok((stats, unknown_model_requests)),
            other => Err(DjinnError::Protocol {
                reason: format!("unexpected response {other:?}"),
            }),
        }
    }

    /// Starts a streaming inference and returns its stream ID; chunks
    /// are claimed with [`DjinnClient::recv_chunk`]. Any number of
    /// streams and one-shot infers may share the connection.
    ///
    /// # Errors
    ///
    /// [`DjinnError::ConnectionPoisoned`] on an untrusted connection or
    /// after the write fails mid-frame; encoding errors otherwise.
    pub fn stream_infer(&mut self, model: &str, input: &Tensor, mode: StreamMode) -> Result<u64> {
        self.check_poisoned()?;
        let request_id = trace::next_request_id();
        encode_stream_framed_into(&mut self.send_buf, model, input, request_id, mode)?;
        self.write_send_buf(request_id)?;
        self.streams
            .insert(request_id, PendingStream { next_seq: 0 });
        Ok(request_id)
    }

    /// Blocks until the next chunk of `stream_id` arrives and returns
    /// it. Chunks arrive in strict sequence order; the one flagged
    /// [`StreamChunk::last`] ends the stream. Completions for other
    /// in-flight requests arriving meanwhile are stashed, not lost.
    ///
    /// # Errors
    ///
    /// [`DjinnError::Protocol`] when `stream_id` is not an in-flight
    /// stream; the stream's own terminal failure ([`DjinnError::Busy`]
    /// when shed, [`DjinnError::Remote`] for server-side errors) ends
    /// it; a `TimedOut` I/O error abandons the stream (late chunks are
    /// drained, never misattributed).
    pub fn recv_chunk(&mut self, stream_id: u64) -> Result<StreamChunk> {
        let Routed::Stream(_, chunk) = self.wait(Want::Stream(stream_id))? else {
            unreachable!("wait returns only what it was asked for");
        };
        chunk
    }

    /// Runs one whole streaming inference as an iterator of chunks: ends
    /// after the final chunk or the first error. The convenience wrapper
    /// over [`DjinnClient::stream_infer`] + [`DjinnClient::recv_chunk`]
    /// most callers want.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DjinnClient::stream_infer`].
    pub fn stream(
        &mut self,
        model: &str,
        input: &Tensor,
        mode: StreamMode,
    ) -> Result<StreamIter<'_>> {
        let stream_id = self.stream_infer(model, input, mode)?;
        Ok(StreamIter {
            client: self,
            stream_id,
            done: false,
        })
    }

    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(reason) => Err(DjinnError::ConnectionPoisoned {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    fn poison(&mut self, reason: String) -> DjinnError {
        self.poisoned = Some(reason.clone());
        DjinnError::ConnectionPoisoned { reason }
    }

    /// Writes one request frame. A failed write may have left a partial
    /// frame on the wire — the server would misparse everything after it
    /// — so any write error poisons the connection.
    fn send(&mut self, req: &Request) -> Result<()> {
        self.check_poisoned()?;
        req.encode_framed_into(&mut self.send_buf)?; // nothing written yet: not poisoning
        self.write_send_buf(req.request_id())
    }

    /// Ships the pre-framed contents of `send_buf`, request `request_id`,
    /// in one `write_all` (one syscall on an unbuffered socket),
    /// poisoning on failure.
    fn write_send_buf(&mut self, request_id: u64) -> Result<()> {
        self.issued_high = self.issued_high.max(request_id);
        let sent = self
            .stream
            .write_all(&self.send_buf)
            .and_then(|()| self.stream.flush());
        sent.map_err(|e| self.poison(format!("request write failed mid-frame: {e}")))
    }

    /// Reads and decodes one response frame, returning it with the
    /// frame's payload size on the wire. A fired read timeout surfaces
    /// as a `TimedOut` I/O error (partial bytes stay buffered, the
    /// stream stays coherent); an undecodable frame poisons the
    /// connection, since its contents — and the framing after it — can
    /// no longer be trusted.
    fn read_response(&mut self) -> Result<(Response, usize)> {
        // Decode borrows the frame straight from the reader's buffer —
        // no per-frame payload copy.
        let decoded = match self.reader.read_frame_ref(&mut self.stream) {
            Ok(Some(payload)) => Some((Response::decode(payload), payload.len())),
            Ok(None) => None,
            Err(e) => return Err(e),
        };
        match decoded {
            Some((Ok(rsp), frame_len)) => Ok((rsp, frame_len)),
            Some((Err(e), _)) => Err(self.poison(format!("undecodable response frame: {e}"))),
            None => Err(DjinnError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "server made no progress within the read timeout",
            ))),
        }
    }

    /// Correlates one response with an in-flight infer or stream.
    ///
    /// Returns `Ok(Some(_))` when a pending request produced something
    /// (a completion or a stream chunk), `Ok(None)` for a stale response
    /// that was drained (its request was abandoned after a timeout — the
    /// exact frame that used to be misattributed to the next call). A
    /// response correlating with nothing this connection ever issued
    /// poisons the connection rather than guessing.
    fn route(&mut self, rsp: Response, frame_len: usize) -> Result<Option<Routed>> {
        let wire_id = rsp.request_id();
        if let Some(pos) = self.abandoned.iter().position(|&a| a == wire_id) {
            self.abandoned.remove(pos);
            return Ok(None);
        }
        let id = if wire_id == 0 {
            // ID 0 answers a frame whose own ID the server could not
            // read: attribute it to the oldest in-flight infer.
            let oldest = self.pending.iter().min_by_key(|(id, p)| (p.sent, **id));
            match oldest.map(|(id, _)| *id) {
                Some(oldest) => oldest,
                None => {
                    return Err(
                        self.poison("uncorrelated response with no request in flight".into())
                    )
                }
            }
        } else {
            wire_id
        };
        if self.streams.contains_key(&id) {
            return self.route_stream_frame(id, rsp);
        }
        let Some(p) = self.pending.remove(&id) else {
            if id <= self.issued_high {
                // A late response to some request this connection once
                // sent — abandoned long enough ago to have been evicted
                // from the exact window. Stale, not hostile: drain it.
                return Ok(None);
            }
            return Err(self.poison(format!(
                "response correlates with no request this client ever issued (id {id})"
            )));
        };
        let e2e_us = p.sent.elapsed().as_micros() as u64;
        let result = match rsp {
            Response::Output { tensor, trace } => {
                // Both frames' wire footprint: each is payload + the
                // 4-byte length prefix (the request size already
                // includes its prefix).
                let wire_bytes = p.sent_bytes + frame_len as u64 + 4;
                let record = TraceRecord::new(&p.model, e2e_us, trace).with_wire_bytes(wire_bytes);
                Ok((tensor, record))
            }
            Response::Busy {
                model, queue_depth, ..
            } => Err(DjinnError::Busy {
                model,
                queue_depth: queue_depth as usize,
            }),
            Response::Error { message, .. } => Err(DjinnError::Remote { message }),
            other => Err(DjinnError::Protocol {
                reason: format!("unexpected response {other:?} to an infer request"),
            }),
        };
        Ok(Some(Routed::Infer(PipelinedResponse {
            request_id: id,
            result,
        })))
    }

    /// Correlates one response with the in-flight stream `id`: chunks
    /// advance the stream (in strict sequence order — a gap means frames
    /// were lost, which poisons), `Busy`/`Error` terminate it.
    fn route_stream_frame(&mut self, id: u64, rsp: Response) -> Result<Option<Routed>> {
        match rsp {
            Response::Chunk {
                tensor,
                trace,
                seq,
                last,
            } => {
                let stream = self
                    .streams
                    .get_mut(&id)
                    .expect("caller checked the stream is in flight");
                if seq != stream.next_seq {
                    let want = stream.next_seq;
                    return Err(self.poison(format!(
                        "stream {id} chunk out of sequence: got seq {seq}, want {want}"
                    )));
                }
                stream.next_seq += 1;
                if last {
                    self.streams.remove(&id);
                }
                Ok(Some(Routed::Stream(
                    id,
                    Ok(StreamChunk {
                        seq,
                        last,
                        tensor,
                        trace,
                    }),
                )))
            }
            Response::Busy {
                model, queue_depth, ..
            } => {
                self.streams.remove(&id);
                Ok(Some(Routed::Stream(
                    id,
                    Err(DjinnError::Busy {
                        model,
                        queue_depth: queue_depth as usize,
                    }),
                )))
            }
            Response::Error { message, .. } => {
                self.streams.remove(&id);
                Ok(Some(Routed::Stream(
                    id,
                    Err(DjinnError::Remote { message }),
                )))
            }
            other => Err(self.poison(format!(
                "unexpected response {other:?} to streaming request {id}"
            ))),
        }
    }

    /// Blocks until a frame that `want` takes arrives, taking it from
    /// the stash first. Every other routed frame is stashed for the call
    /// that wants it. A timeout abandons what `want` names (nothing, for
    /// [`Want::AnyInfer`]): its late frames are drained and discarded,
    /// never returned to a later call.
    fn wait(&mut self, want: Want) -> Result<Routed> {
        if let Some(pos) = self.stash.iter().position(|r| want.takes(r)) {
            return Ok(self
                .stash
                .remove(pos)
                .expect("position came from the stash"));
        }
        let idle = match want {
            Want::AnyInfer if self.pending.is_empty() => {
                Some("recv_next with no request in flight".to_string())
            }
            Want::Stream(id) if !self.streams.contains_key(&id) => {
                Some(format!("stream {id} is not in flight"))
            }
            _ => None,
        };
        if let Some(reason) = idle {
            return Err(DjinnError::Protocol { reason });
        }
        self.check_poisoned()?;
        loop {
            let (rsp, frame_len) = match self.read_response() {
                Ok(r) => r,
                Err(e) => {
                    if is_timeout(&e) {
                        self.abandon(want);
                    }
                    return Err(e);
                }
            };
            if let Want::Control(want_id) = want {
                match rsp {
                    Response::Models { request_id, .. } | Response::Stats { request_id, .. }
                        if request_id == want_id =>
                    {
                        return Ok(Routed::Control(rsp));
                    }
                    // An uncorrelated (id-0) error while a control call is
                    // blocked answers the control call, *regardless* of
                    // infers in flight: the server stamps every infer's ID
                    // on its error frames, so the only request of ours an
                    // id-0 error can answer is one the server failed to
                    // decode — and the frame most recently at risk is this
                    // control request. Routing it instead would
                    // misattribute it to the oldest in-flight infer and
                    // leave this call blocked until the read timeout.
                    Response::Error {
                        request_id,
                        message,
                    } if request_id == want_id || request_id == 0 => {
                        return Err(DjinnError::Remote { message });
                    }
                    _ => {}
                }
            }
            match self.route(rsp, frame_len)? {
                Some(routed) if want.takes(&routed) => return Ok(routed),
                Some(routed) => self.stash.push_back(routed),
                None => {}
            }
        }
    }

    /// Forgets what a timed-out `want` names and remembers its ID, so its
    /// late frames are drained, not misattributed. A timed-out
    /// [`Want::AnyInfer`] leaves its requests in flight.
    fn abandon(&mut self, want: Want) {
        let id = match want {
            Want::AnyInfer => return,
            Want::Infer(id) => {
                self.pending.remove(&id);
                id
            }
            Want::Stream(id) => {
                self.streams.remove(&id);
                id
            }
            Want::Control(id) => id,
        };
        self.abandoned.push_back(id);
        while self.abandoned.len() > ABANDONED_CAP {
            self.abandoned.pop_front();
        }
    }
}

/// Iterator over one stream's chunks, from [`DjinnClient::stream`]:
/// yields each [`StreamChunk`] in order and stops after the final chunk
/// or the first error (errors are terminal — the stream is gone).
#[derive(Debug)]
pub struct StreamIter<'a> {
    client: &'a mut DjinnClient,
    stream_id: u64,
    done: bool,
}

impl StreamIter<'_> {
    /// The underlying stream's correlation ID.
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }
}

impl Iterator for StreamIter<'_> {
    type Item = Result<StreamChunk>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.client.recv_chunk(self.stream_id) {
            Ok(chunk) => {
                self.done = chunk.last;
                Some(Ok(chunk))
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

fn is_timeout(e: &DjinnError) -> bool {
    matches!(e, DjinnError::Io(io)
        if io.kind() == std::io::ErrorKind::TimedOut
            || io.kind() == std::io::ErrorKind::WouldBlock)
}
