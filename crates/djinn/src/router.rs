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
//! Like [`crate::DjinnServer`], the router is one thread that sleeps in
//! `poll(2)` until a socket is ready or the next stats tick is due. It
//! holds hundreds of client connections and one persistent, pipelined
//! connection per replica. A replica is watched only while it owes
//! replies; each tick reads what an idle one sent since the last, so an
//! idle router wakes only for its ticks.
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
//! requested model the router picks the lowest score, ties going to
//! the replica listed first. The score is built only from what the
//! router itself sees:
//!
//! `requests outstanding on the replica + SHED_PENALTY × Busy replies
//! it returned this stats tick and the last`
//!
//! The outstanding count is exact — every request the router forwarded
//! and has not yet seen answered — so a replica that answers faster
//! holds fewer and draws more. The `Busy` term is what keeps traffic off
//! a shedding replica: it answers at once, so by outstanding count alone
//! it looks idle and would be flooded. Load that other clients put
//! directly on a replica is not seen.
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
//! poisoned connection), and the router redials the replica at each
//! stats tick — connect and `ListModels` handshake inside the loop, so a
//! replica that accepts and never answers delays no one, and is dropped
//! after [`HANDSHAKE_TIMEOUT`]. A client that falls behind its replies is
//! not read until it catches up, and one that takes none of them for the
//! I/O core's stall limit is dropped; a replica that takes none of its
//! requests for as long is torn down like one that errors. Replies are
//! always read, whoever they are for, so one slow client cannot hold up
//! the replica connection every client shares. Replies for a client that
//! left are dropped: connection IDs are never reused, so none reaches a
//! successor.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bytes::BytesMut;

use crate::io::{dial, Conn, LoopThread, Poller, WriteBuf};
use crate::protocol::{
    is_busy_response, is_partial_chunk, peek_request, response_id_slot, FrameReader, ModelStats,
    Request, RequestPeek, Response,
};
use crate::{DjinnError, Result};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind for client connections; port 0 for ephemeral.
    pub bind_addr: String,
    /// Backing replica addresses. All must be reachable at startup —
    /// a misconfigured fleet should fail loudly, not serve a subset.
    pub replicas: Vec<SocketAddr>,
    /// How often the router polls each replica's `Stats` (the snapshot
    /// it answers clients' `Stats` from), retries dead replicas, and
    /// ages the `Busy` counts in the replica score.
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
    thread: LoopThread,
}

/// Score penalty per `Busy` reply a replica returned this stats tick or
/// the last: a shedding replica answers at once, so its outstanding
/// count alone would make it look idle.
const SHED_PENALTY: u64 = 4;

/// Bound on a replica's connect and `ListModels` handshake.
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
                hello: None,
                models,
                sent_total: 0,
                done_total: 0,
                busy_now: 0,
                busy_prev: 0,
                last_stats: Vec::new(),
                last_unknown: 0,
            });
        }
        let listener = TcpListener::bind(&config.bind_addr)?;
        let local_addr = listener.local_addr()?;
        let mut core = Core {
            in_flight: HashMap::new(),
            control: HashMap::new(),
            next_id: 1,
            next_client: 1,
            models: HashMap::new(),
        };
        rebuild_model_map(&mut core, &upstreams);
        let (stats_interval, max_clients) = (config.stats_interval, config.max_clients);
        let thread = LoopThread::spawn("djinn-router", listener, move |poller, stop| {
            let limits = (stats_interval, max_clients);
            event_loop(poller, upstreams, core, stop, limits)
        })?;
        Ok(DjinnRouter { local_addr, thread })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the event loop and joins it; the loop is woken out of its
    /// wait, so this returns at once.
    pub fn shutdown(mut self) {
        self.thread.stop();
    }
}

/// Client connections by ID.
type Clients = HashMap<u64, Conn>;

/// One replica: its (possibly down) connection, its model list, and the
/// counts behind its score.
#[derive(Debug)]
struct Upstream {
    addr: SocketAddr,
    conn: Option<Conn>,
    /// A redial awaiting its `ListModels` answer: the request's ID and the
    /// dial's start. Nothing is routed to the replica meanwhile.
    hello: Option<(u64, Instant)>,
    /// Models this replica serves — learned at bootstrap, refreshed on
    /// reconnect, and retained while down so "unknown model" stays
    /// distinguishable from "no live replica serves it".
    models: Vec<String>,
    /// Lifetime frames forwarded to this replica (never reset).
    sent_total: u64,
    /// Lifetime replies received from this replica, plus requests
    /// orphaned when its connection died (never reset): `sent_total -
    /// done_total` is what it still owes.
    done_total: u64,
    /// `Busy` replies forwarded since the last stats tick.
    busy_now: u64,
    /// `Busy` replies forwarded in the tick before that.
    busy_prev: u64,
    /// Last full stats snapshot, for locally-answered `Stats` requests.
    last_stats: Vec<ModelStats>,
    last_unknown: u64,
}

impl Upstream {
    /// Load estimate: requests outstanding here, with recent `Busy`
    /// replies weighed extra. Lower is better.
    fn score(&self) -> u64 {
        self.sent_total - self.done_total + (self.busy_now + self.busy_prev) * SHED_PENALTY
    }

    /// Connected and past its handshake: requests may be routed here.
    fn is_live(&self) -> bool {
        self.conn.is_some() && self.hello.is_none()
    }

    /// Whether to watch for replies now; a stats answer waits for a tick.
    fn owes_reply(&self) -> bool {
        self.hello.is_some() || self.sent_total > self.done_total
    }
}

/// Where a forwarded request came from.
#[derive(Debug)]
struct InFlight {
    client: u64,
    orig_id: u64,
    upstream: usize,
}

/// Routing state shared across the event loop's phases.
struct Core {
    /// Router-scoped upstream ID → originating request.
    in_flight: HashMap<u64, InFlight>,
    /// Router-issued stats poll → upstream index.
    control: HashMap<u64, usize>,
    next_id: u64,
    next_client: u64,
    /// Model name → replicas serving it (indices into `upstreams`).
    models: HashMap<String, Vec<usize>>,
}

impl Core {
    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        id
    }
}

/// Blocking bootstrap handshake: connect, ask `ListModels`, return the
/// connection (nonblocking from here on) plus the model list.
fn connect_upstream(addr: SocketAddr) -> Result<(Conn, Vec<String>)> {
    let mut stream = TcpStream::connect_timeout(&addr, HANDSHAKE_TIMEOUT)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut hello = BytesMut::new();
    Request::ListModels { request_id: 1 }.encode_framed_into(&mut hello)?;
    stream.write_all(&hello)?;
    let names = match FrameReader::new().read_frame_ref(&stream)? {
        Some(frame) => models_of(frame, addr)?,
        None => return Err(std::io::Error::from(std::io::ErrorKind::TimedOut).into()),
    };
    Ok((Conn::new(stream)?, names))
}

/// The model list in a replica's answer to `ListModels`.
fn models_of(frame: &[u8], addr: SocketAddr) -> Result<Vec<String>> {
    match Response::decode(frame)? {
        Response::Models { names, .. } => Ok(names),
        other => Err(DjinnError::Protocol {
            reason: format!("replica {addr} answered ListModels with {other:?}"),
        }),
    }
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

/// Picks the live replica for `model` with the lowest score, the first
/// listed on a tie; `None` when the model is unknown or every replica
/// serving it is down.
fn pick_replica(core: &Core, upstreams: &[Upstream], model: &str) -> Option<usize> {
    core.models
        .get(model)?
        .iter()
        .copied()
        .filter(|&i| upstreams[i].is_live())
        .min_by_key(|&i| upstreams[i].score())
}

/// Sorted union of every upstream's model list.
fn model_union(core: &Core) -> Vec<String> {
    let mut names: Vec<String> = core.models.keys().cloned().collect();
    names.sort();
    names
}

/// Merges the latest per-replica stats snapshots into one fleet view,
/// entry by entry with [`ModelStats::merge`]: counts sum, maxima and
/// percentiles take the max across replicas (the approximation is
/// documented in the module docs).
fn merged_stats(request_id: u64, upstreams: &[Upstream]) -> Response {
    let mut merged: BTreeMap<&str, ModelStats> = BTreeMap::new();
    let mut unknown = 0u64;
    for up in upstreams {
        unknown = unknown.saturating_add(up.last_unknown);
        for m in &up.last_stats {
            merged
                .entry(m.model.as_str())
                .and_modify(|acc| acc.merge(m))
                .or_insert_with(|| m.clone());
        }
    }
    Response::Stats {
        request_id,
        unknown_model_requests: unknown,
        stats: merged.into_values().collect(),
    }
}

/// Tears down a replica connection: every request in flight on it is
/// answered to its client with a correlated `Error` frame, so the client
/// sees a per-request `Remote` failure instead of a hung call.
fn kill_upstream(
    u: usize,
    upstreams: &mut [Upstream],
    clients: &mut Clients,
    core: &mut Core,
    reason: &str,
) {
    let up = &mut upstreams[u];
    up.conn = None;
    up.hello = None;
    let message = format!("replica {} connection lost mid-request: {reason}", up.addr);
    core.in_flight.retain(|_, f| {
        if f.upstream != u {
            return true;
        }
        up.done_total += 1;
        if let Some(client) = clients.get_mut(&f.client) {
            let _ = client.out.push_response(&Response::Error {
                request_id: f.orig_id,
                message: message.clone(),
            });
        }
        false
    });
    // Router-issued stats polls on the dead connection just vanish.
    core.control.retain(|_, &mut uu| uu != u);
    // A redialled replica starts with a clean score.
    (up.busy_now, up.busy_prev) = (0, 0);
}

/// Copies a reply to its client under the client's ID, unless the client
/// left.
fn deliver(clients: &mut Clients, f: &InFlight, frame: &[u8], id_at: usize) {
    if let Some(client) = clients.get_mut(&f.client) {
        client.out.push_frame_with_id(frame, id_at, f.orig_id);
    }
}

/// Reads what a replica sent — replies, whose frames go on to their
/// clients, its answer to a stats poll, or its handshake — and tears the
/// connection down if it failed.
fn pump_upstream(u: usize, upstreams: &mut [Upstream], clients: &mut Clients, core: &mut Core) {
    let up = &mut upstreams[u];
    let Some(conn) = up.conn.as_mut() else { return };
    let (mut failed, mut remap) = (None, false);
    let read = conn.read_frames(|frame, _| {
        // A frame whose ID cannot be read answers nothing we can route.
        let Ok((rid, id_at)) = response_id_slot(frame) else {
            return true;
        };
        if let Some((hello_id, _)) = up.hello {
            if rid == hello_id {
                match models_of(frame, up.addr) {
                    Ok(models) => {
                        remap = up.models != models;
                        up.models = models;
                        up.hello = None;
                    }
                    Err(e) => failed = Some(e.to_string()),
                }
            }
        } else if is_partial_chunk(frame) {
            // A non-final chunk leaves the stream registered: later
            // chunks must keep resolving to this client, and the request
            // only retires (for load accounting) on its final chunk.
            if let Some(f) = core.in_flight.get(&rid) {
                deliver(clients, f, frame, id_at);
            }
        } else if let Some(f) = core.in_flight.remove(&rid) {
            deliver(clients, &f, frame, id_at);
            up.done_total += 1;
            if is_busy_response(frame) {
                up.busy_now += 1;
            }
        } else if core.control.remove(&rid).is_some() {
            if let Ok(Response::Stats {
                unknown_model_requests,
                stats,
                ..
            }) = Response::decode(frame)
            {
                up.last_stats = stats;
                up.last_unknown = unknown_model_requests;
            }
        }
        true
    });
    if remap {
        rebuild_model_map(core, upstreams);
    }
    if let Some(reason) = read.err().map(|e| e.to_string()).or(failed) {
        kill_upstream(u, upstreams, clients, core, &reason);
    }
}

/// Reads what a client sent: infers are forwarded with a remapped ID,
/// `ListModels`/`Stats` are answered locally. A backlogged client is not
/// read. A client that hung up, or sent a frame that cannot be routed, is
/// dropped.
fn pump_client(id: u64, clients: &mut Clients, upstreams: &mut [Upstream], core: &mut Core) {
    let Some(client) = clients.get_mut(&id).filter(|c| !c.backlogged()) else {
        return;
    };
    let open = client.read_frames(|frame, out| route_request(frame, out, id, upstreams, core));
    if !matches!(open, Ok(true)) {
        // Best effort: an undecodable frame's refusal is already queued.
        let _ = client.flush();
        clients.remove(&id);
    }
}

/// Forwards one client frame to a replica, or answers it into the
/// client's `out`; `false` closes the client.
fn route_request(
    frame: &[u8],
    out: &mut WriteBuf,
    client: u64,
    upstreams: &mut [Upstream],
    core: &mut Core,
) -> bool {
    let reply = match peek_request(frame) {
        // StreamInfer forwards exactly like Infer: same ID rewrite, same
        // replica pin — the in-flight entry then routes every chunk of
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
                        client,
                        orig_id: request_id,
                        upstream: r,
                    },
                );
                return true;
            }
            None if core.models.contains_key(model) => Response::Error {
                request_id,
                message: format!("no live replica serves model '{model}'"),
            },
            None => Response::Error {
                request_id,
                message: format!("unknown model '{model}'"),
            },
        },
        Ok(RequestPeek::ListModels { request_id, .. }) => Response::Models {
            request_id,
            names: model_union(core),
        },
        Ok(RequestPeek::Stats { request_id, .. }) => merged_stats(request_id, upstreams),
        // A frame that cannot even be peeked cannot be routed: close.
        Err(e) => {
            let _ = out.push_response(&Response::Error {
                request_id: 0,
                message: format!("undecodable request: {e}"),
            });
            return false;
        }
    };
    let _ = out.push_response(&reply);
    true
}

/// Takes a freshly accepted client — or closes it on the spot beyond
/// `max_clients` live connections.
fn add_client(stream: TcpStream, clients: &mut Clients, core: &mut Core, max_clients: usize) {
    if clients.len() < max_clients {
        if let Ok(conn) = Conn::new(stream) {
            clients.insert(core.next_client, conn);
            core.next_client += 1;
        }
    }
}

/// Writes what every connection has queued; drops clients, and tears
/// down replicas, whose sockets fail or whose peers stopped reading.
fn flush_all(upstreams: &mut [Upstream], clients: &mut Clients, core: &mut Core) {
    for u in 0..upstreams.len() {
        if let Some(Err(e)) = upstreams[u].conn.as_mut().map(Conn::flush) {
            kill_upstream(u, upstreams, clients, core, &e.to_string());
        }
    }
    clients.retain(|_, client| client.flush().is_ok());
}

/// Per replica: reads what it sent since the last tick, ages its `Busy`
/// counts by one tick, then polls a live one for `Stats`, dials a dead
/// one, or drops a stale redial.
fn stats_tick(upstreams: &mut [Upstream], clients: &mut Clients, core: &mut Core) {
    for u in 0..upstreams.len() {
        pump_upstream(u, upstreams, clients, core);
        let up = &mut upstreams[u];
        (up.busy_prev, up.busy_now) = (up.busy_now, 0);
        match (up.conn.as_mut(), up.hello) {
            (None, _) => {
                if let Ok(mut conn) = dial(up.addr) {
                    let rid = core.alloc_id();
                    conn.out
                        .push_control(&Request::ListModels { request_id: rid });
                    (up.conn, up.hello) = (Some(conn), Some((rid, Instant::now())));
                }
            }
            (Some(_), Some((_, dialled))) => {
                if dialled.elapsed() > HANDSHAKE_TIMEOUT {
                    kill_upstream(u, upstreams, clients, core, "handshake timed out");
                }
            }
            (Some(conn), None) => {
                let rid = core.alloc_id();
                conn.out.push_control(&Request::Stats { request_id: rid });
                core.control.insert(rid, u);
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Token {
    Upstream(usize),
    Client(u64),
}

/// The router's event loop: one thread, asleep in `poll(2)` until a
/// socket is ready, the next stats tick is due, or shutdown wakes it.
fn event_loop(
    mut poller: Poller<Token>,
    mut upstreams: Vec<Upstream>,
    mut core: Core,
    stop: &AtomicBool,
    (stats_interval, max_clients): (Duration, usize),
) {
    let mut clients = Clients::new();
    // The first tick fires at once, so every replica's `Stats` is asked
    // for before the first client arrives.
    let mut next_tick = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        if Instant::now() >= next_tick {
            next_tick = Instant::now() + stats_interval;
            stats_tick(&mut upstreams, &mut clients, &mut core);
            flush_all(&mut upstreams, &mut clients, &mut core);
        }
        poller.clear();
        for (u, up) in upstreams.iter().enumerate() {
            if let Some(conn) = &up.conn {
                conn.register(&mut poller, up.owes_reply(), Token::Upstream(u));
            }
        }
        for (&id, client) in &clients {
            client.register(&mut poller, !client.backlogged(), Token::Client(id));
        }
        // The wake only ever says "stop", and the loop checks for that.
        poller.wait(Some(next_tick.saturating_duration_since(Instant::now())));
        poller.accept(|stream| add_client(stream, &mut clients, &mut core, max_clients));
        for token in poller.ready() {
            match token {
                Token::Upstream(u) => pump_upstream(u, &mut upstreams, &mut clients, &mut core),
                Token::Client(id) => pump_client(id, &mut clients, &mut upstreams, &mut core),
            }
        }
        flush_all(&mut upstreams, &mut clients, &mut core);
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
            hello: None,
            models: models.iter().map(|s| s.to_string()).collect(),
            sent_total: 0,
            done_total: 0,
            busy_now: 0,
            busy_prev: 0,
            last_stats: Vec::new(),
            last_unknown: 0,
        }
    }

    fn mk_core(upstreams: &[Upstream]) -> Core {
        let mut core = Core {
            in_flight: HashMap::new(),
            control: HashMap::new(),
            next_id: 1,
            next_client: 1,
            models: HashMap::new(),
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
        up.conn = Some(Conn::new(stream).unwrap());
        (up, listener)
    }

    #[test]
    fn pick_replica_honors_model_affinity_and_liveness() {
        let (up0, _l0) = live(&["a", "b"]);
        let (up1, _l1) = live(&["b"]);
        let dead = upstream(&["c"]);
        // Connected again but not yet past its handshake.
        let (mut redialled, _l3) = live(&["d"]);
        redialled.hello = Some((7, Instant::now()));
        let mut ups = vec![up0, up1, dead, redialled];
        let core = mk_core(&ups);
        assert_eq!(pick_replica(&core, &ups, "d"), None);
        // `a` only on replica 0; `b` on both; `c` only on the dead one.
        assert_eq!(pick_replica(&core, &ups, "a"), Some(0));
        assert_eq!(pick_replica(&core, &ups, "b"), Some(0), "ties go first");
        ups[0].sent_total = 1;
        assert_eq!(pick_replica(&core, &ups, "a"), Some(0));
        assert_eq!(pick_replica(&core, &ups, "b"), Some(1));
        assert_eq!(pick_replica(&core, &ups, "c"), None);
        assert!(core.models.contains_key("c"), "dead models stay mapped");
        assert_eq!(pick_replica(&core, &ups, "nope"), None);
    }

    #[test]
    fn load_aware_prefers_the_less_loaded_replica() {
        // 38 requests outstanding against 2.
        let (mut up0, _l0) = live(&["m"]);
        let (mut up1, _l1) = live(&["m"]);
        (up0.sent_total, up0.done_total) = (40, 2);
        (up1.sent_total, up1.done_total) = (5, 3);
        let mut ups = vec![up0, up1];
        let core = mk_core(&ups);
        assert_eq!(pick_replica(&core, &ups, "m"), Some(1));
        // Recent `Busy` replies weigh extra against a replica that owes
        // fewer: 10 owed against 2 + (1 + 2) × 4 = 14.
        (ups[0].sent_total, ups[0].done_total) = (10, 0);
        (ups[1].sent_total, ups[1].done_total) = (2, 0);
        (ups[1].busy_now, ups[1].busy_prev) = (1, 2);
        assert_eq!(ups[1].score(), 14);
        assert_eq!(pick_replica(&core, &ups, "m"), Some(0));
        // Two ticks later the sheds are forgotten.
        (ups[1].busy_now, ups[1].busy_prev) = (0, 0);
        assert_eq!(pick_replica(&core, &ups, "m"), Some(1));
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
        let mut ups = vec![up0, up1];
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
        // Replica-supplied words saturate, as `ModelStats::merge`'s sums do.
        ups[0].last_unknown = u64::MAX;
        let Response::Stats {
            unknown_model_requests: saturated,
            ..
        } = merged_stats(43, &ups)
        else {
            panic!("merged_stats must answer with Stats");
        };
        assert_eq!(saturated, u64::MAX);
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
