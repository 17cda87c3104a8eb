//! The DjiNN scale-out front end: one router process fans client
//! requests out across a fleet of `djinn-server` replicas.
//!
//! The paper's thesis is DNN-as-a-service at warehouse scale; a single
//! DjiNN instance is the unit of that service, not its extent. This
//! module adds the tier above the instance: a TCP front end that speaks
//! the same wire protocol as a single server — clients connect
//! to it exactly as they would to one replica — and forwards each
//! `Infer` frame to a backing replica chosen by model affinity and load.
//!
//! # Architecture
//!
//! Unlike [`crate::DjinnServer`], which spends a thread (plus a reply
//! pump) per connection, the router is a **single-threaded readiness
//! loop over nonblocking sockets**: one thread holds hundreds of client
//! connections and a few persistent, pipelined upstream connections —
//! one per replica. Each tick it accepts new clients, drains readable
//! sockets through per-connection [`FrameReader`]s (whose cursor-based
//! buffers return `Ok(None)` on `WouldBlock`, exactly the contract a
//! poll loop needs), and flushes per-connection write buffers with
//! partial-write cursors. No epoll dependency: with the tiny socket
//! counts a serving tier uses (hundreds, not hundreds of thousands), a
//! scan-all-sockets tick plus a ~500 µs idle sleep is simpler and fast
//! enough to keep replicas saturated.
//!
//! # Forwarding and ID remapping
//!
//! Request IDs are client-scoped, so two clients both legitimately use
//! ID 1. The router therefore assigns each forwarded frame a fresh
//! **router-scoped upstream ID** and rewrites the 8 ID bytes *in place*
//! at the offset [`crate::protocol::peek_request`] reports — the multi-MB
//! tensor bytes are never decoded, validated, or re-encoded; forwarding
//! is one `memcpy` into the upstream's write buffer plus an 8-byte patch.
//! A reply's ID ([`crate::protocol::response_id_slot`]) looks up the
//! originating connection and is patched back to the client's original
//! ID before the raw frame — `Output`, `Error`, and `Busy` alike — is
//! passed through. Every frame carries its ID, so replies may return out
//! of any replica in any order and still land on the right client with
//! the right ID.
//!
//! # Replica selection
//!
//! The model map (which replicas serve which model) is learned from
//! `ListModels` at bootstrap, so models can be sharded across replicas
//! and hot models replicated. Among the live replicas serving the
//! requested model:
//!
//! * [`RoutePolicy::RoundRobin`] rotates blindly (the baseline);
//! * [`RoutePolicy::LoadAware`] polls each replica's `Stats`
//!   telemetry on a short interval and scores each candidate as
//!   `polled backlog (queue depth + in flight) + recent sheds ×
//!   penalty + frames forwarded since the poll − replies returned
//!   since the poll`; between polls the send/done deltas keep the
//!   score live. Small candidate sets are scanned outright; larger
//!   ones use power-of-two-choices sampling, which is within a
//!   constant of the full scan at a fraction of the cost.
//!
//! `ListModels` and `Stats` from clients are answered locally: the model
//! list is the union across replicas, and stats are merged per model —
//! additive counters summed, percentile fields reported as the max
//! across replicas (a deliberate, documented approximation: percentiles
//! do not sum, and the max is the conservative bound a capacity planner
//! wants).
//!
//! # Failure
//!
//! A replica connection that errors is torn down: every request in
//! flight on it is answered to its client with a correlated `Error`
//! frame (the client sees a `Remote` failure on that request, not a
//! poisoned connection), and the router retries the replica at each
//! stats tick. Clients that disconnect mid-flight are forgotten;
//! replies that arrive for them are dropped by slot-generation check, so
//! a reused connection slot can never receive a predecessor's reply.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::BytesMut;

use crate::protocol::{
    is_busy_response, is_partial_chunk, peek_request, read_frame, response_id_slot, FrameReader,
    ModelStats, Request, RequestPeek, Response, MAX_FRAME,
};
use crate::{DjinnError, Result};

/// How the router picks among the live replicas serving a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// Stats-driven least-loaded selection (the default).
    #[default]
    LoadAware,
    /// Blind rotation — the baseline the load-aware policy is measured
    /// against.
    RoundRobin,
}

impl std::str::FromStr for RoutePolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "load-aware" => Ok(RoutePolicy::LoadAware),
            "round-robin" => Ok(RoutePolicy::RoundRobin),
            other => Err(format!(
                "unknown policy `{other}` (expected load-aware or round-robin)"
            )),
        }
    }
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind for client connections; port 0 for ephemeral.
    pub bind_addr: String,
    /// Backing replica addresses. All must be reachable at startup —
    /// a misconfigured fleet should fail loudly, not serve a subset.
    pub replicas: Vec<SocketAddr>,
    /// Replica selection policy.
    pub policy: RoutePolicy,
    /// How often the router polls each replica's `Stats` telemetry (and
    /// retries dead replicas).
    pub stats_interval: Duration,
    /// Maximum concurrent client connections; further accepts are
    /// closed immediately.
    pub max_clients: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            bind_addr: "127.0.0.1:0".into(),
            replicas: Vec::new(),
            policy: RoutePolicy::LoadAware,
            stats_interval: Duration::from_millis(50),
            max_clients: 1024,
        }
    }
}

/// A running router.
///
/// Dropping the handle (or calling [`DjinnRouter::shutdown`]) stops the
/// event loop and closes every connection; in-flight requests on live
/// replicas are abandoned (their clients see EOF), so shut clients down
/// first in an orderly teardown.
#[derive(Debug)]
pub struct DjinnRouter {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// Idle-tick sleep: the scan loop's poll granularity when no socket had
/// traffic. Small enough to add negligible latency at the measured
/// throughputs, large enough to keep an idle router near 0% CPU.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Per-connection write-buffer bound. A client that stops draining its
/// socket while replies pile up is dropped once its buffer would exceed
/// this, so one stalled reader cannot grow router memory without bound.
const OUT_BUF_CAP: usize = 2 * MAX_FRAME;

/// Score penalty per shed observed between the last two stats polls: a
/// replica actively shedding load is in a worse state than its queue
/// depth alone admits, so recent sheds weigh extra against it.
const SHED_PENALTY: u64 = 4;

/// Timeout for the blocking bootstrap/reconnect handshake per replica.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

impl DjinnRouter {
    /// Starts the router: connects to every replica, learns its model
    /// list, binds the client listener, and spawns the event loop.
    ///
    /// # Errors
    ///
    /// Returns an error if `replicas` is empty, if any replica is
    /// unreachable or fails the `ListModels` handshake, or if the
    /// listener cannot bind.
    pub fn start(config: RouterConfig) -> Result<Self> {
        if config.replicas.is_empty() {
            return Err(DjinnError::Protocol {
                reason: "router needs at least one replica".into(),
            });
        }
        let mut upstreams = Vec::with_capacity(config.replicas.len());
        for &addr in &config.replicas {
            let (conn, models) = connect_upstream(addr)?;
            upstreams.push(Upstream {
                addr,
                conn: Some(conn),
                models,
                polled_backlog: 0,
                polled_shed: 0,
                shed_delta: 0,
                sent_total: 0,
                done_total: 0,
                sent_mark: 0,
                done_mark: 0,
                shed_live: 0,
                last_stats: Vec::new(),
                last_unknown: 0,
            });
        }
        let listener = TcpListener::bind(&config.bind_addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut core = Core {
            in_flight: HashMap::new(),
            control: HashMap::new(),
            next_id: 1,
            next_gen: 1,
            models: HashMap::new(),
            policy: config.policy,
            rr: 0,
            // Fixed xorshift seed: tie-breaking among equally-loaded
            // replicas gains nothing from entropy, and determinism makes
            // routing decisions reproducible in tests.
            rng: 0x9E37_79B9_7F4A_7C15,
        };
        rebuild_model_map(&mut core, &upstreams);
        let thread = {
            let stop = Arc::clone(&stop);
            let stats_interval = config.stats_interval;
            let max_clients = config.max_clients;
            std::thread::Builder::new()
                .name("djinn-router".into())
                .spawn(move || {
                    event_loop(listener, upstreams, core, stop, stats_interval, max_clients)
                })
                .map_err(DjinnError::Io)?
        };
        Ok(DjinnRouter {
            local_addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the event loop and joins it. The loop never blocks (the
    /// listener and every socket are nonblocking), so the flag is
    /// noticed within one idle tick.
    pub fn shutdown(mut self) {
        self.stop_event_loop();
    }

    fn stop_event_loop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for DjinnRouter {
    fn drop(&mut self) {
        self.stop_event_loop();
    }
}

/// A write buffer with a partial-write cursor: frames are appended
/// whole, the socket drains as much as it will take per tick, and the
/// cursor remembers where the next flush resumes. Storage is reclaimed
/// whenever the buffer fully drains.
#[derive(Debug, Default)]
struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Appends `[len | payload]` verbatim.
    fn push_frame(&mut self, payload: &[u8]) {
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    /// Appends `[len | payload]` with the 8 ID bytes at `id_at` (an
    /// offset into the payload) rewritten to `id` — the zero-decode
    /// forwarding path.
    fn push_frame_with_id(&mut self, payload: &[u8], id_at: usize, id: u64) {
        let base = self.buf.len() + 4 + id_at;
        self.push_frame(payload);
        self.buf[base..base + 8].copy_from_slice(&id.to_le_bytes());
    }

    /// Encodes and appends a locally-produced response frame.
    fn push_response(&mut self, resp: &Response) -> Result<()> {
        let mut tmp = BytesMut::new();
        resp.encode_framed_into(&mut tmp)?;
        self.buf.extend_from_slice(&tmp);
        Ok(())
    }

    /// Writes as much buffered data as the socket accepts. Returns
    /// whether any bytes moved; `WouldBlock` is "done for this tick",
    /// not an error.
    fn flush<W: Write>(&mut self, mut w: W) -> std::io::Result<bool> {
        let mut progressed = false;
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(progressed)
                }
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(progressed)
    }
}

/// One client connection's state.
#[derive(Debug)]
struct ClientConn {
    stream: TcpStream,
    reader: FrameReader,
    out: WriteBuf,
    /// Slot-reuse guard: in-flight entries record (slot, gen), so a
    /// reply addressed to a connection that died cannot be delivered to
    /// whichever new client later reuses its slot.
    gen: u64,
}

/// One replica: its (possibly down) connection, its model list, and the
/// telemetry behind the load-aware score.
#[derive(Debug)]
struct Upstream {
    addr: SocketAddr,
    conn: Option<Conn>,
    /// Models this replica serves — learned at bootstrap, refreshed on
    /// reconnect, and retained while down so "unknown model" stays
    /// distinguishable from "no live replica serves it".
    models: Vec<String>,
    /// Σ(queue_depth + in_flight) across models at the last stats poll.
    polled_backlog: u64,
    /// Cumulative shed count at the last poll.
    polled_shed: u64,
    /// Sheds between the last two polls — the "actively shedding now"
    /// signal in the score.
    shed_delta: u64,
    /// Lifetime frames forwarded to this replica (never reset).
    sent_total: u64,
    /// Lifetime replies received from this replica (never reset).
    done_total: u64,
    /// `sent_total` at the moment the answered stats poll was *sent*:
    /// every request forwarded before that point is either inside the
    /// server's snapshot or already answered, so the live correction is
    /// only what was forwarded after the mark. Resetting a since-poll
    /// counter here instead would erase the requests forwarded while
    /// the poll was in flight and transiently underestimate load —
    /// flooding the weakest replica right after every poll.
    sent_mark: u64,
    /// `done_total` when the stats reply arrived: replies received
    /// after the snapshot complete requests the snapshot still counts.
    done_mark: u64,
    /// `Busy` replies seen since the last stats reply. A shedding
    /// replica completes requests instantly, so by outstanding count it
    /// looks idle; this live signal keeps its score up between polls,
    /// breaking the flood-the-shedder feedback loop.
    shed_live: u64,
    /// Last full stats snapshot, for locally-answered `Stats` requests.
    last_stats: Vec<ModelStats>,
    last_unknown: u64,
}

impl Upstream {
    /// Load estimate: polled backlog, corrected by what the router has
    /// itself sent since the poll was issued minus what came back since
    /// the snapshot, with recent sheds weighed extra. Lower is better.
    fn score(&self) -> u64 {
        let sent_delta = self.sent_total - self.sent_mark;
        let done_delta = self.done_total - self.done_mark;
        (self.polled_backlog + (self.shed_delta + self.shed_live) * SHED_PENALTY + sent_delta)
            .saturating_sub(done_delta)
    }
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: WriteBuf,
}

/// Where a forwarded request came from.
#[derive(Debug)]
struct InFlight {
    slot: usize,
    gen: u64,
    orig_id: u64,
    upstream: usize,
}

/// Routing state shared across the event loop's phases.
struct Core {
    /// Router-scoped upstream ID → originating request.
    in_flight: HashMap<u64, InFlight>,
    /// Router-issued control request (stats poll) → (upstream index,
    /// the upstream's `sent_total` when the poll was sent).
    control: HashMap<u64, (usize, u64)>,
    next_id: u64,
    next_gen: u64,
    /// Model name → replicas serving it (indices into `upstreams`).
    models: HashMap<String, Vec<usize>>,
    policy: RoutePolicy,
    rr: u64,
    rng: u64,
}

impl Core {
    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        id
    }

    fn xorshift(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }
}

/// Blocking bootstrap handshake: connect, ask `ListModels`, return the
/// connection flipped to nonblocking plus the model list.
fn connect_upstream(addr: SocketAddr) -> Result<(Conn, Vec<String>)> {
    let stream = TcpStream::connect_timeout(&addr, HANDSHAKE_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut buf = BytesMut::new();
    Request::ListModels { request_id: 1 }.encode_framed_into(&mut buf)?;
    (&stream).write_all(&buf)?;
    let reply = read_frame(&stream)?;
    let names = match Response::decode(&reply)? {
        Response::Models { names, .. } => names,
        Response::Error { message, .. } => {
            return Err(DjinnError::Remote { message });
        }
        other => {
            return Err(DjinnError::Protocol {
                reason: format!("replica {addr} answered ListModels with {other:?}"),
            });
        }
    };
    stream.set_read_timeout(None)?;
    stream.set_nonblocking(true)?;
    Ok((
        Conn {
            stream,
            reader: FrameReader::new(),
            out: WriteBuf::default(),
        },
        names,
    ))
}

/// Rebuilds the model → replicas map from every upstream's model list
/// (live or not).
fn rebuild_model_map(core: &mut Core, upstreams: &[Upstream]) {
    core.models.clear();
    for (i, up) in upstreams.iter().enumerate() {
        for m in &up.models {
            core.models.entry(m.clone()).or_default().push(i);
        }
    }
}

/// Picks a live replica for `model`, or `None` when the model is
/// unknown or every replica serving it is down.
fn pick_replica(core: &mut Core, upstreams: &[Upstream], model: &str) -> Option<usize> {
    let cands = core.models.get(model)?;
    let live: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| upstreams[i].conn.is_some())
        .collect();
    if live.is_empty() {
        return None;
    }
    match core.policy {
        RoutePolicy::RoundRobin => {
            core.rr = core.rr.wrapping_add(1);
            Some(live[(core.rr % live.len() as u64) as usize])
        }
        RoutePolicy::LoadAware => {
            if live.len() <= 3 {
                // Tiny candidate set: the full scan costs less than the
                // sampling it would replace.
                live.iter()
                    .copied()
                    .min_by_key(|&i| upstreams[i].score())
                    .or(Some(live[0]))
            } else {
                // Power of two choices: sample two distinct candidates,
                // keep the less loaded — near-optimal balance without
                // scanning the fleet per request.
                let a = (core.xorshift() % live.len() as u64) as usize;
                let mut b = (core.xorshift() % (live.len() as u64 - 1)) as usize;
                if b >= a {
                    b += 1;
                }
                let (a, b) = (live[a], live[b]);
                Some(if upstreams[a].score() <= upstreams[b].score() {
                    a
                } else {
                    b
                })
            }
        }
    }
}

/// Sorted union of every upstream's model list.
fn model_union(core: &Core) -> Vec<String> {
    let mut names: Vec<String> = core.models.keys().cloned().collect();
    names.sort();
    names
}

/// Merges the latest per-replica stats snapshots into one fleet view:
/// additive counters sum; `max_latency_us` and the percentile fields
/// take the max across replicas (percentiles do not sum — the max is
/// the conservative bound, and the approximation is documented in the
/// module docs).
fn merged_stats(request_id: u64, upstreams: &[Upstream]) -> Response {
    let mut merged: BTreeMap<&str, ModelStats> = BTreeMap::new();
    let mut unknown = 0u64;
    for up in upstreams {
        unknown += up.last_unknown;
        for m in &up.last_stats {
            match merged.get_mut(m.model.as_str()) {
                None => {
                    merged.insert(m.model.as_str(), m.clone());
                }
                Some(acc) => {
                    acc.requests += m.requests;
                    acc.errors += m.errors;
                    acc.total_latency_us += m.total_latency_us;
                    acc.queue_depth += m.queue_depth;
                    acc.in_flight += m.in_flight;
                    acc.shed += m.shed;
                    acc.max_latency_us = acc.max_latency_us.max(m.max_latency_us);
                    acc.p50_queue_wait_us = acc.p50_queue_wait_us.max(m.p50_queue_wait_us);
                    acc.p99_queue_wait_us = acc.p99_queue_wait_us.max(m.p99_queue_wait_us);
                    acc.p50_batch_wait_us = acc.p50_batch_wait_us.max(m.p50_batch_wait_us);
                    acc.p99_batch_wait_us = acc.p99_batch_wait_us.max(m.p99_batch_wait_us);
                    acc.p50_service_us = acc.p50_service_us.max(m.p50_service_us);
                    acc.p99_service_us = acc.p99_service_us.max(m.p99_service_us);
                    acc.p50_wire_us = acc.p50_wire_us.max(m.p50_wire_us);
                    acc.p99_wire_us = acc.p99_wire_us.max(m.p99_wire_us);
                    acc.p50_lease_wait_us = acc.p50_lease_wait_us.max(m.p50_lease_wait_us);
                    acc.p99_lease_wait_us = acc.p99_lease_wait_us.max(m.p99_lease_wait_us);
                    acc.cache_hits += m.cache_hits;
                    acc.cache_misses += m.cache_misses;
                    acc.cache_evictions += m.cache_evictions;
                    acc.tokens_out += m.tokens_out;
                    acc.p50_token_gap_us = acc.p50_token_gap_us.max(m.p50_token_gap_us);
                    acc.p99_token_gap_us = acc.p99_token_gap_us.max(m.p99_token_gap_us);
                }
            }
        }
    }
    Response::Stats {
        request_id,
        unknown_model_requests: unknown,
        stats: merged.into_values().collect(),
    }
}

/// Tears down a dead replica connection: every request in flight on it
/// is answered to its client with a correlated `Error` frame, so the
/// client sees a per-request `Remote` failure instead of a hung call.
fn kill_upstream(
    u: usize,
    upstreams: &mut [Upstream],
    clients: &mut [Option<ClientConn>],
    core: &mut Core,
    reason: &str,
) {
    upstreams[u].conn = None;
    let orphaned: Vec<u64> = core
        .in_flight
        .iter()
        .filter(|(_, f)| f.upstream == u)
        .map(|(&rid, _)| rid)
        .collect();
    let message = format!(
        "replica {} connection lost mid-request: {reason}",
        upstreams[u].addr
    );
    for rid in orphaned {
        let Some(f) = core.in_flight.remove(&rid) else {
            continue;
        };
        if let Some(Some(cc)) = clients.get_mut(f.slot) {
            if cc.gen == f.gen {
                let _ = cc.out.push_response(&Response::Error {
                    request_id: f.orig_id,
                    message: message.clone(),
                });
            }
        }
    }
    // Router-issued control requests on the dead connection just vanish.
    core.control.retain(|_, &mut (uu, _)| uu != u);
    // Poll-delta state is stale once the connection is gone.
    let up = &mut upstreams[u];
    up.sent_mark = up.sent_total;
    up.done_mark = up.done_total;
    up.polled_backlog = 0;
}

/// What `pump_upstreams` decided about one inbound replica frame, split
/// out so the frame borrow ends before the upstream's counters mutate.
enum UpstreamPost {
    /// A reply was matched (and delivered if its client still exists);
    /// the flag says whether it was a `Busy` (shed) frame.
    Done { busy: bool },
    /// A non-final stream chunk was matched and delivered; the request
    /// stays in flight (its replica pin and `done_total` accounting
    /// settle on the final chunk).
    Partial,
    /// A stats-poll reply (with the upstream's `sent_total` recorded at
    /// poll-send time); apply to the upstream's telemetry.
    Control(u64, Option<Response>),
    /// Stale or uncorrelated frame — dropped.
    Ignored,
}

/// Drains every readable replica connection, delivering replies to
/// their originating clients. Returns whether any frame moved.
fn pump_upstreams(
    upstreams: &mut [Upstream],
    clients: &mut [Option<ClientConn>],
    core: &mut Core,
) -> bool {
    let mut any = false;
    for u in 0..upstreams.len() {
        let mut dead: Option<String> = None;
        loop {
            let post = {
                let up = &mut upstreams[u];
                let Some(conn) = up.conn.as_mut() else { break };
                match conn.reader.read_frame_ref(&conn.stream) {
                    Ok(None) => break,
                    Err(e) => {
                        dead = Some(e.to_string());
                        break;
                    }
                    Ok(Some(frame)) => {
                        any = true;
                        match response_id_slot(frame) {
                            Ok((rid, id_at)) => {
                                // A non-final chunk leaves the stream
                                // registered: later chunks of the same
                                // stream must keep resolving to this
                                // client, and the request only retires
                                // (for load accounting) on its final
                                // chunk.
                                let partial = is_partial_chunk(frame);
                                let routed = if partial {
                                    core.in_flight.get(&rid).map(|f| (f.slot, f.gen, f.orig_id))
                                } else {
                                    core.in_flight
                                        .remove(&rid)
                                        .map(|f| (f.slot, f.gen, f.orig_id))
                                };
                                if let Some((slot, gen, orig_id)) = routed {
                                    if let Some(Some(cc)) = clients.get_mut(slot) {
                                        if cc.gen == gen && cc.out.pending() <= OUT_BUF_CAP {
                                            cc.out.push_frame_with_id(frame, id_at, orig_id);
                                        }
                                    }
                                    if partial {
                                        UpstreamPost::Partial
                                    } else {
                                        UpstreamPost::Done {
                                            busy: is_busy_response(frame),
                                        }
                                    }
                                } else if let Some((_, sent_at_send)) = core.control.remove(&rid) {
                                    UpstreamPost::Control(
                                        sent_at_send,
                                        Response::decode(frame).ok(),
                                    )
                                } else {
                                    UpstreamPost::Ignored
                                }
                            }
                            // A frame whose ID cannot be read answers
                            // nothing we can route.
                            Err(_) => UpstreamPost::Ignored,
                        }
                    }
                }
            };
            match post {
                UpstreamPost::Done { busy } => {
                    let up = &mut upstreams[u];
                    up.done_total += 1;
                    if busy {
                        up.shed_live += 1;
                    }
                }
                UpstreamPost::Control(
                    sent_at_send,
                    Some(Response::Stats {
                        unknown_model_requests,
                        stats,
                        ..
                    }),
                ) => {
                    let up = &mut upstreams[u];
                    let backlog: u64 = stats.iter().map(|m| m.queue_depth + m.in_flight).sum();
                    let shed: u64 = stats.iter().map(|m| m.shed).sum();
                    up.shed_delta = shed.saturating_sub(up.polled_shed);
                    up.polled_shed = shed;
                    up.polled_backlog = backlog;
                    up.sent_mark = sent_at_send;
                    up.done_mark = up.done_total;
                    up.shed_live = 0;
                    up.last_stats = stats;
                    up.last_unknown = unknown_model_requests;
                }
                UpstreamPost::Control(_, _) | UpstreamPost::Partial | UpstreamPost::Ignored => {}
            }
        }
        if let Some(reason) = dead {
            kill_upstream(u, upstreams, clients, core, &reason);
        }
    }
    any
}

/// What `pump_clients` decided about one inbound client frame.
enum ClientAct {
    /// Frame already copied into an upstream's write buffer.
    Forwarded,
    /// Answer locally with this response.
    Reply(Response),
    /// Answer, then drop the connection (undecodable input).
    ReplyAndClose(Response),
    /// Drop the connection silently (EOF / transport error).
    Close,
}

/// Drains every readable client connection: infers are forwarded with a
/// remapped ID, `ListModels`/`Stats` are answered locally. Returns
/// whether any frame moved.
fn pump_clients(
    clients: &mut [Option<ClientConn>],
    upstreams: &mut [Upstream],
    core: &mut Core,
) -> bool {
    let mut any = false;
    for (slot, client) in clients.iter_mut().enumerate() {
        loop {
            let act = {
                let Some(cc) = client.as_mut() else {
                    break;
                };
                let gen = cc.gen;
                match cc.reader.read_frame_ref(&cc.stream) {
                    Ok(None) => break,
                    Err(_) => ClientAct::Close,
                    Ok(Some(frame)) => {
                        any = true;
                        match peek_request(frame) {
                            // StreamInfer forwards exactly like Infer:
                            // same ID rewrite, same replica pin — the
                            // in-flight entry then routes every chunk of
                            // the stream back to this client.
                            Ok(
                                RequestPeek::Infer {
                                    model,
                                    request_id,
                                    id_at,
                                }
                                | RequestPeek::StreamInfer {
                                    model,
                                    request_id,
                                    id_at,
                                },
                            ) => match pick_replica(core, upstreams, model) {
                                Some(r) => {
                                    let rid = core.alloc_id();
                                    let conn = upstreams[r]
                                        .conn
                                        .as_mut()
                                        .expect("pick_replica returns live replicas");
                                    conn.out.push_frame_with_id(frame, id_at, rid);
                                    upstreams[r].sent_total += 1;
                                    core.in_flight.insert(
                                        rid,
                                        InFlight {
                                            slot,
                                            gen,
                                            orig_id: request_id,
                                            upstream: r,
                                        },
                                    );
                                    ClientAct::Forwarded
                                }
                                None if core.models.contains_key(model) => {
                                    ClientAct::Reply(Response::Error {
                                        request_id,
                                        message: format!("no live replica serves model '{model}'"),
                                    })
                                }
                                None => ClientAct::Reply(Response::Error {
                                    request_id,
                                    message: format!("unknown model '{model}'"),
                                }),
                            },
                            Ok(RequestPeek::ListModels { request_id, .. }) => {
                                ClientAct::Reply(Response::Models {
                                    request_id,
                                    names: model_union(core),
                                })
                            }
                            Ok(RequestPeek::Stats { request_id, .. }) => {
                                ClientAct::Reply(merged_stats(request_id, upstreams))
                            }
                            Err(e) => ClientAct::ReplyAndClose(Response::Error {
                                request_id: 0,
                                message: format!("undecodable request: {e}"),
                            }),
                        }
                    }
                }
            };
            match act {
                ClientAct::Forwarded => {}
                ClientAct::Reply(resp) => {
                    let cc = client.as_mut().expect("checked above");
                    let _ = cc.out.push_response(&resp);
                }
                ClientAct::ReplyAndClose(resp) => {
                    if let Some(cc) = client.as_mut() {
                        let _ = cc.out.push_response(&resp);
                        let _ = cc.out.flush(&cc.stream);
                    }
                    *client = None;
                    break;
                }
                ClientAct::Close => {
                    *client = None;
                    break;
                }
            }
        }
    }
    any
}

/// Accepts pending client connections into free slots. Beyond
/// `max_clients` live connections, accepts are closed on the spot.
fn accept_clients(
    listener: &TcpListener,
    clients: &mut Vec<Option<ClientConn>>,
    core: &mut Core,
    max_clients: usize,
) -> bool {
    let mut any = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                any = true;
                let live = clients.iter().filter(|c| c.is_some()).count();
                if live >= max_clients {
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let gen = core.next_gen;
                core.next_gen += 1;
                let cc = ClientConn {
                    stream,
                    reader: FrameReader::new(),
                    out: WriteBuf::default(),
                    gen,
                };
                match clients.iter_mut().find(|c| c.is_none()) {
                    Some(free) => *free = Some(cc),
                    None => clients.push(Some(cc)),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    any
}

/// Flushes every connection's write buffer; drops clients (and tears
/// down replicas) whose sockets fail. Returns whether any bytes moved.
fn flush_all(
    upstreams: &mut [Upstream],
    clients: &mut [Option<ClientConn>],
    core: &mut Core,
) -> bool {
    let mut any = false;
    for u in 0..upstreams.len() {
        let result = match upstreams[u].conn.as_mut() {
            Some(conn) => conn.out.flush(&conn.stream),
            None => Ok(false),
        };
        match result {
            Ok(p) => any |= p,
            Err(e) => kill_upstream(u, upstreams, clients, core, &e.to_string()),
        }
    }
    for entry in clients.iter_mut() {
        let drop_conn = match entry {
            Some(cc) => match cc.out.flush(&cc.stream) {
                Ok(p) => {
                    any |= p;
                    cc.out.pending() > OUT_BUF_CAP
                }
                Err(_) => true,
            },
            None => false,
        };
        if drop_conn {
            *entry = None;
        }
    }
    any
}

/// Enqueues a `Stats` poll on every live replica and retries dead ones
/// (blocking, bounded by [`HANDSHAKE_TIMEOUT`]).
fn stats_tick(upstreams: &mut [Upstream], core: &mut Core) {
    let mut remap = false;
    for (u, up) in upstreams.iter_mut().enumerate() {
        if up.conn.is_none() {
            if let Ok((conn, models)) = connect_upstream(up.addr) {
                remap = up.models != models || remap;
                up.models = models;
                up.conn = Some(conn);
                up.polled_backlog = 0;
                up.shed_delta = 0;
                up.sent_mark = up.sent_total;
                up.done_mark = up.done_total;
                up.shed_live = 0;
            } else {
                continue;
            }
        }
        let rid = core.alloc_id();
        let conn = up.conn.as_mut().expect("connected above");
        let mut tmp = BytesMut::new();
        if (Request::Stats { request_id: rid })
            .encode_framed_into(&mut tmp)
            .is_ok()
        {
            conn.out.buf.extend_from_slice(&tmp);
            core.control.insert(rid, (u, up.sent_total));
        }
    }
    if remap {
        rebuild_model_map(core, upstreams);
    }
}

/// The router's single-threaded readiness loop.
fn event_loop(
    listener: TcpListener,
    mut upstreams: Vec<Upstream>,
    mut core: Core,
    stop: Arc<AtomicBool>,
    stats_interval: Duration,
    max_clients: usize,
) {
    let mut clients: Vec<Option<ClientConn>> = Vec::new();
    // Fire the first poll immediately so load-aware routing has
    // telemetry before the first client arrives.
    let mut last_poll: Option<Instant> = None;
    while !stop.load(Ordering::SeqCst) {
        let due = last_poll.is_none_or(|t| t.elapsed() >= stats_interval);
        if due {
            last_poll = Some(Instant::now());
            stats_tick(&mut upstreams, &mut core);
        }
        let mut progress = accept_clients(&listener, &mut clients, &mut core, max_clients);
        progress |= pump_upstreams(&mut upstreams, &mut clients, &mut core);
        progress |= pump_clients(&mut clients, &mut upstreams, &mut core);
        progress |= flush_all(&mut upstreams, &mut clients, &mut core);
        if !progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(model: &str, depth: u64, in_flight: u64, shed: u64) -> ModelStats {
        ModelStats {
            model: model.into(),
            requests: 10,
            errors: 1,
            total_latency_us: 1000,
            max_latency_us: 300,
            queue_depth: depth,
            in_flight,
            shed,
            p50_queue_wait_us: 5,
            p99_queue_wait_us: 50,
            p50_batch_wait_us: 2,
            p99_batch_wait_us: 20,
            p50_service_us: 100,
            p99_service_us: 200,
            p50_wire_us: 1,
            p99_wire_us: 10,
            p50_lease_wait_us: 0,
            p99_lease_wait_us: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            tokens_out: 0,
            p50_token_gap_us: 0,
            p99_token_gap_us: 0,
        }
    }

    fn upstream(models: &[&str]) -> Upstream {
        Upstream {
            addr: "127.0.0.1:1".parse().unwrap(),
            conn: None,
            models: models.iter().map(|s| s.to_string()).collect(),
            polled_backlog: 0,
            polled_shed: 0,
            shed_delta: 0,
            sent_total: 0,
            done_total: 0,
            sent_mark: 0,
            done_mark: 0,
            shed_live: 0,
            last_stats: Vec::new(),
            last_unknown: 0,
        }
    }

    fn mk_core(policy: RoutePolicy, upstreams: &[Upstream]) -> Core {
        let mut core = Core {
            in_flight: HashMap::new(),
            control: HashMap::new(),
            next_id: 1,
            next_gen: 1,
            models: HashMap::new(),
            policy,
            rr: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        };
        rebuild_model_map(&mut core, upstreams);
        core
    }

    /// A live upstream for selection tests: the TCP half is a throwaway
    /// loopback connection (never read or written).
    fn live(models: &[&str]) -> (Upstream, TcpListener) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut up = upstream(models);
        up.conn = Some(Conn {
            stream,
            reader: FrameReader::new(),
            out: WriteBuf::default(),
        });
        (up, listener)
    }

    #[test]
    fn write_buf_survives_partial_writes() {
        let mut wb = WriteBuf::default();
        wb.push_frame(b"hello");
        wb.push_frame_with_id(&[0u8; 12], 2, 0x0102_0304_0506_0708);
        // A writer that takes 3 bytes per call, then blocks forever.
        struct Dribble {
            taken: Vec<u8>,
            calls: usize,
        }
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.calls += 1;
                if self.calls > 4 {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(3);
                self.taken.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Dribble {
            taken: Vec::new(),
            calls: 0,
        };
        assert!(wb.flush(&mut w).unwrap());
        assert_eq!(w.taken.len(), 12);
        assert!(wb.pending() > 0);
        // Unblock: the rest drains and the buffer resets.
        w.calls = 0;
        while wb.pending() > 0 {
            w.calls = 0;
            wb.flush(&mut w).unwrap();
        }
        assert_eq!(&w.taken[..4], &5u32.to_le_bytes());
        assert_eq!(&w.taken[4..9], b"hello");
        assert_eq!(&w.taken[9..13], &12u32.to_le_bytes());
        let mut expect = [0u8; 12];
        expect[2..10].copy_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(&w.taken[13..], &expect);
        assert_eq!(wb.buf.len(), 0);
    }

    #[test]
    fn pick_replica_honors_model_affinity_and_liveness() {
        let (up0, _l0) = live(&["a", "b"]);
        let (up1, _l1) = live(&["b"]);
        let dead = upstream(&["c"]);
        let ups = vec![up0, up1, dead];
        let mut core = mk_core(RoutePolicy::RoundRobin, &ups);
        // `a` only on replica 0; `b` on both; `c` only on the dead one.
        for _ in 0..4 {
            assert_eq!(pick_replica(&mut core, &ups, "a"), Some(0));
        }
        let picks: Vec<_> = (0..4)
            .filter_map(|_| pick_replica(&mut core, &ups, "b"))
            .collect();
        assert!(picks.contains(&0) && picks.contains(&1), "{picks:?}");
        assert_eq!(pick_replica(&mut core, &ups, "c"), None);
        assert!(core.models.contains_key("c"), "dead models stay mapped");
        assert_eq!(pick_replica(&mut core, &ups, "nope"), None);
    }

    #[test]
    fn load_aware_prefers_the_less_loaded_replica() {
        let (mut up0, _l0) = live(&["m"]);
        let (mut up1, _l1) = live(&["m"]);
        up0.polled_backlog = 40;
        up1.polled_backlog = 2;
        let ups = vec![up0, up1];
        let mut core = mk_core(RoutePolicy::LoadAware, &ups);
        for _ in 0..8 {
            assert_eq!(pick_replica(&mut core, &ups, "m"), Some(1));
        }
        // Recent sheds penalize beyond raw backlog.
        let (mut up0, _l0) = live(&["m"]);
        let (mut up1, _l1) = live(&["m"]);
        up0.polled_backlog = 10;
        up1.polled_backlog = 8;
        up1.shed_delta = 5; // 8 + 5*4 = 28 > 10
        let ups = vec![up0, up1];
        let mut core = mk_core(RoutePolicy::LoadAware, &ups);
        assert_eq!(pick_replica(&mut core, &ups, "m"), Some(0));
    }

    #[test]
    fn score_freshens_between_polls_with_send_and_done_deltas() {
        let mut up = upstream(&["m"]);
        up.polled_backlog = 10;
        up.sent_total = 7;
        up.done_total = 3;
        assert_eq!(up.score(), 14);
        // Requests forwarded while the poll was in flight stay counted:
        // the marks, not a reset, define "since the poll".
        up.sent_mark = 2;
        up.done_mark = 3;
        assert_eq!(up.score(), 15);
        // More replies than sends since the marks saturates at zero
        // rather than underflowing.
        up.sent_total = 8;
        up.done_total = 30;
        up.sent_mark = 8;
        up.done_mark = 3;
        assert_eq!(up.score(), 0);
    }

    #[test]
    fn merged_stats_sums_counters_and_maxes_percentiles() {
        let mut up0 = upstream(&["m", "x"]);
        let mut up1 = upstream(&["m"]);
        up0.last_stats = vec![stats("m", 3, 1, 2), stats("x", 1, 0, 0)];
        up0.last_unknown = 4;
        let mut s1 = stats("m", 5, 2, 1);
        s1.max_latency_us = 900;
        s1.p99_service_us = 700;
        up1.last_stats = vec![s1];
        up1.last_unknown = 1;
        let ups = vec![up0, up1];
        let Response::Stats {
            request_id,
            unknown_model_requests,
            stats,
        } = merged_stats(42, &ups)
        else {
            panic!("merged_stats must answer with Stats");
        };
        assert_eq!(request_id, 42);
        assert_eq!(unknown_model_requests, 5);
        assert_eq!(stats.len(), 2);
        let m = stats.iter().find(|s| s.model == "m").unwrap();
        assert_eq!(m.requests, 20);
        assert_eq!(m.queue_depth, 8);
        assert_eq!(m.in_flight, 3);
        assert_eq!(m.shed, 3);
        assert_eq!(m.max_latency_us, 900, "max, not sum");
        assert_eq!(m.p99_service_us, 700, "max, not sum");
        assert_eq!(m.total_latency_us, 2000, "sum");
    }
}
