//! The DjiNN TCP server: one event-loop thread holds every connection,
//! over a shared read-only model registry and one [`InferenceEngine`]
//! per model.
//!
//! The loop sleeps in `poll(2)` until a socket is readable or an engine
//! wakes it, then reads, decodes and admits what arrived — never touching
//! the executor or blocking on a job — and writes back what finished,
//! possibly out of order, which ID-correlated frames make safe; only
//! requests that share an ID are answered in the order they came. Each
//! connection has its own completion channels, whose every reply wakes
//! the loop. A full queue answers `Busy` under the request's ID. A client
//! that falls behind its replies is neither read nor fed stream chunks
//! until it catches up, and one that takes nothing for the I/O core's
//! stall limit is dropped: neither holds up anyone else.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver};
use gpusim::queueing::LatencyHistogram;
use tensor::{Tensor, Threading};

use crate::device::{ColocationPolicy, Device, DeviceScheduler};
use crate::io::{Conn, LoopThread, Poller, Wake, WriteBuf};
use crate::protocol::{decode_input, peek_request, ModelStats, RequestPeek, Response, StreamMode};
use crate::trace::ServerTrace;
use crate::{
    BatchConfig, CpuExecutor, DelayExecutor, DispatchPolicy, DjinnError, EngineConfig, Executor,
    InferenceEngine, ModelRegistry, ReplyTo, Result, RoutedReply, SimGpuExecutor,
};
use dnn::cache::{CacheMode, InferenceCache};

/// Which compute backend the server uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Real math, measured CPU latency (the paper's baseline).
    #[default]
    Cpu,
    /// Real math, modeled K40 latency (the GPU substitution).
    SimGpu,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; use port 0 for an ephemeral port in tests.
    pub bind_addr: String,
    /// Compute backend.
    pub backend: Backend,
    /// Per-model batching window; `None` dispatches at once
    /// ([`DispatchPolicy::Immediate`]): whatever is queued when a model's
    /// dispatch thread is free runs as one forward pass, so a lone
    /// request runs alone and a backlog never waits for company.
    pub batching: Option<BatchConfig>,
    /// Worker threads the CPU backend spends on each forward pass
    /// (batch sharding or in-layer GEMM strips, chosen per model).
    /// `1` keeps inference sequential; ignored by the simulated GPU.
    pub threads: usize,
    /// Per-model admission bound: requests beyond this many queued are
    /// answered with `Busy` instead of queued (load shedding).
    pub queue_capacity: usize,
    /// Extra per-call service time, modeling a device-bound backend (see
    /// [`crate::DelayExecutor`]). `None` runs the backend as-is. Used by
    /// scale-out experiments so colocated replicas on a small host don't
    /// contend for CPU and hide the serving-tier behavior under test.
    pub service_delay: Option<Duration>,
    /// Shared-device capacity. `None` keeps the legacy engine-private
    /// model (each engine spends `threads` as if alone). `Some(n)` puts
    /// every model's engine on one [`DeviceScheduler`] over an `n`-unit
    /// device — `n` CPU threads, or `n` MPS kernel slots on the
    /// simulated GPU — so dispatches acquire bounded compute leases and
    /// lease waits become a visible trace stage.
    pub device_capacity: Option<usize>,
    /// Batch-more vs. co-locate-more policy for batched engines (see
    /// [`ColocationPolicy`]). Only meaningful with `batching` set;
    /// defaults to the classic always-batch coalescing loop.
    pub colocation: ColocationPolicy,
    /// Content-keyed inference caching (see [`dnn::cache`]). `Off`
    /// disables caching entirely — pre-cache behavior, no per-request
    /// overhead beyond a `None` check.
    pub cache_mode: CacheMode,
    /// Total cache byte budget, split evenly across the registered
    /// models (each engine gets a private cache; outputs never cross
    /// model boundaries).
    pub cache_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind_addr: "127.0.0.1:0".into(),
            backend: Backend::Cpu,
            batching: None,
            threads: 1,
            queue_capacity: 128,
            service_delay: None,
            device_capacity: None,
            colocation: ColocationPolicy::AlwaysBatch,
            cache_mode: CacheMode::Off,
            cache_bytes: 64 * 1024 * 1024,
        }
    }
}

/// A running DjiNN service.
///
/// Dropping the handle is [`DjinnServer::shutdown`]: nothing outlives
/// it.
#[derive(Debug)]
pub struct DjinnServer {
    local_addr: SocketAddr,
    thread: LoopThread,
}

/// Stream chunks a connection's channel holds: room for one decode tick
/// of as many streams as one engine admits by default, so only a client
/// that has fallen behind makes its streams sit out ticks.
const CHUNK_CHANNEL: usize = 128;

#[derive(Default)]
struct StatsAcc {
    requests: u64,
    errors: u64,
    total_latency_us: u64,
    max_latency_us: u64,
    /// Encode time of each successful reply into its write buffer (the
    /// write itself is shared by all a pass queued on the connection).
    wire: LatencyHistogram,
}

/// One registered model: its engine and the server's wire-level stats.
struct Model {
    engine: InferenceEngine,
    stats: StatsAcc,
}

/// Everything the loop owns besides its sockets.
struct Service {
    /// In the registry's (sorted) order, for binary search by name.
    models: Vec<Model>,
    /// Infer requests rejected for naming an unregistered model. One
    /// aggregate counter: unknown names never create stats entries, so a
    /// client spraying names cannot grow server memory.
    unknown_models: u64,
}

/// An admitted Infer, under a per-connection token (the client's request
/// ID may be 0 or reused) until its completion comes back.
#[derive(Clone, Copy)]
struct PendingInfer {
    request_id: u64,
    /// Index into [`Service::models`].
    model: usize,
    /// The server-read span mark: everything from here to response
    /// encoding is the server's view of the request, in its own clock.
    received: Instant,
    /// A StreamInfer: completions are `Chunk`s, until the terminal one.
    streaming: bool,
    /// The request admitted before this one under its ID, if that one was
    /// still owed then: this one's replies wait for its last.
    behind: Option<u64>,
}

/// What a connection is owed, by token. A client that reuses a request ID
/// can tell those replies apart only by order (`tests/framing.rs` sends
/// two Infers under one ID and expects them in turn), so a reply whose
/// request is behind one still owed is held until that one is done. Each
/// engine dispatches in arrival order, but that alone does not keep the
/// order: an exact-cache hit is answered during admission, ahead of a
/// miss admitted before it, and different models' engines race.
#[derive(Default)]
struct Pending {
    by_token: HashMap<u64, PendingInfer>,
    /// Request ID → token of the newest request under it still owed.
    newest: HashMap<u64, u64>,
    /// Token still owed → the replies waiting for its last, in turn.
    held: HashMap<u64, Vec<RoutedReply>>,
}

/// A connection's admitted jobs and where their completions go: two
/// channels, every send on which wakes the loop. Their receivers are
/// dropped with the connection, so every later send fails and its live
/// streams retire at their next chunk rather than decode for nobody.
struct Owed {
    /// One-shot replies. Unbounded: an engine never waits on a client,
    /// and a cache hit is sent from the loop's own admission. Admission
    /// stops while the client is backlogged, which bounds what this holds.
    once: (ReplyTo, Receiver<RoutedReply>),
    /// Stream chunks, opened with the connection's first stream. Bounded,
    /// and drained only while the client is not backlogged: a stream
    /// whose chunk finds it full sits out decode ticks, so a slow reader's
    /// streams decode no further ahead of it than this and its buffer.
    chunks: Option<(ReplyTo, Receiver<RoutedReply>)>,
    wake: Arc<Wake>,
    pending: Pending,
    next_token: u64,
}

/// One client connection.
struct Client {
    conn: Conn,
    owed: Owed,
}

impl DjinnServer {
    /// Starts the service with the given registry.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot bind.
    pub fn start(registry: ModelRegistry, config: ServerConfig) -> Result<Self> {
        let listener = TcpListener::bind(&config.bind_addr)?;
        let local_addr = listener.local_addr()?;
        let executor: Arc<dyn Executor> = match (config.backend, config.service_delay) {
            (Backend::Cpu, None) => Arc::new(CpuExecutor::new(Threading::new(config.threads))),
            (Backend::SimGpu, None) => Arc::new(SimGpuExecutor::default()),
            (Backend::Cpu, Some(d)) => Arc::new(DelayExecutor::new(
                CpuExecutor::new(Threading::new(config.threads)),
                d,
            )),
            (Backend::SimGpu, Some(d)) => {
                Arc::new(DelayExecutor::new(SimGpuExecutor::default(), d))
            }
        };
        // One scheduler fronts the device all engines share; without
        // --device-threads each engine gets its own dedicated (unbounded)
        // one: no engine ever waits on another's lease.
        let device = config.device_capacity.map(|units| {
            Arc::new(DeviceScheduler::new(match config.backend {
                Backend::Cpu => Device::Cpu { threads: units },
                Backend::SimGpu => Device::SimGpuMps { slots: units },
            }))
        });
        // Engines are created eagerly at initialization, one per model,
        // mirroring DjiNN's load-everything-up-front design. Batched and
        // unbatched serving are just dispatch policies of the same engine.
        let mut models = Vec::new();
        let model_count = registry.names().len().max(1);
        let per_model_cache_bytes = (config.cache_bytes / model_count).max(1);
        for name in registry.names() {
            let engine_config = EngineConfig {
                policy: config
                    .batching
                    .map_or(DispatchPolicy::Immediate, DispatchPolicy::Batched),
                queue_capacity: config.queue_capacity,
                colocation: config.colocation,
                device: device.clone(),
                cache: InferenceCache::new(config.cache_mode, per_model_cache_bytes).map(Arc::new),
            };
            let network = registry.get(&name)?;
            let engine =
                InferenceEngine::start(name, network, Arc::clone(&executor), engine_config);
            models.push(Model {
                engine,
                stats: StatsAcc::default(),
            });
        }
        let service = Service {
            models,
            unknown_models: 0,
        };
        let thread = LoopThread::spawn("djinn-server", listener, move |poller, stop| {
            serve(poller, service, stop)
        })?;
        Ok(DjinnServer { local_addr, thread })
    }

    /// Starts the service pre-loaded with all seven Tonic models.
    ///
    /// # Errors
    ///
    /// Propagates bind and model-construction failures.
    pub fn start_with_tonic_models(config: ServerConfig) -> Result<Self> {
        Self::start(ModelRegistry::with_tonic_models()?, config)
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting and admitting, answers and writes out every request
    /// already admitted (a live stream runs to its last chunk), then joins
    /// the loop thread and the engines. Idle connections close at once.
    pub fn shutdown(mut self) {
        self.thread.stop();
    }
}

/// The server's event loop, on client IDs. Returns once shutdown has
/// drained every connection; dropping `service` then drains and joins the
/// engines.
fn serve(mut poller: Poller<u64>, mut service: Service, stop: &AtomicBool) {
    let mut clients: HashMap<u64, Client> = HashMap::new();
    let mut next_client = 0;
    loop {
        // Once shutdown has begun nothing more is accepted or admitted.
        let draining = poller.listener.is_none();
        poller.clear();
        for (&id, c) in &clients {
            c.conn.register(&mut poller, !c.conn.backlogged(), id);
        }
        poller.wait(None);
        let wake = Arc::clone(poller.wake());
        poller.accept(|stream| {
            if let Ok(conn) = Conn::new(stream) {
                clients.insert(next_client, Client::new(conn, &wake));
                next_client += 1;
            }
        });
        for id in poller.ready() {
            read_client(&mut service, &mut clients, id, draining);
        }
        if !draining && stop.load(Ordering::SeqCst) {
            poller.listener = None;
        }
        // Keep a client while it can be written to — and, in shutdown,
        // while it is owed something. Completions are looked for on every
        // pass, since a flush that ends a backlog lets held stream chunks
        // through with no engine waking the loop; so wake-ups until now,
        // a cache hit answered during admission above included, are
        // served here and need not bring the loop straight back.
        poller.reset_wake();
        let draining = poller.listener.is_none();
        clients.retain(|_, c| {
            c.conn.flush().is_ok()
                && drain_completions(&mut service, c)
                && c.conn.flush().is_ok()
                && !(draining && c.owed.pending.by_token.is_empty() && c.conn.out.pending() == 0)
        });
        if draining && clients.is_empty() {
            return;
        }
    }
}

impl Client {
    fn new(conn: Conn, wake: &Arc<Wake>) -> Self {
        let (tx, rx) = unbounded();
        let owed = Owed {
            once: (ReplyTo::waking(tx, Arc::clone(wake)), rx),
            chunks: None,
            wake: Arc::clone(wake),
            pending: Pending::default(),
            next_token: 0,
        };
        Client { conn, owed }
    }
}

/// Reads and answers what a client sent — once `draining`, only to see it
/// hang up. A backlogged client is not read. On EOF or a framing error
/// the connection goes, and with it what the engines still owe it:
/// nobody is left to read it.
fn read_client(service: &mut Service, clients: &mut HashMap<u64, Client>, id: u64, draining: bool) {
    let Some(c) = clients.get_mut(&id).filter(|c| !c.conn.backlogged()) else {
        return;
    };
    let Client { conn, owed } = c;
    let open = conn.read_frames(|frame, out| draining || on_request(service, owed, frame, out));
    if !matches!(open, Ok(true)) {
        let _ = c.conn.flush();
        clients.remove(&id);
    }
}

/// Answers one request frame into `out`, or admits it; `false` closes
/// the connection (a response not even encodable as an error). The
/// model name stays borrowed from the frame: only the input is decoded.
fn on_request(service: &mut Service, owed: &mut Owed, frame: &[u8], out: &mut WriteBuf) -> bool {
    let received = Instant::now();
    // An undecodable request is refused under its own ID whenever that
    // much of the frame is readable, so the refusal finds its way back —
    // through a client's correlation, or a router's — to the request it
    // answers; 0 only when there is no ID to read.
    let immediate = match peek_request(frame) {
        Ok(
            peek @ (RequestPeek::Infer {
                model, request_id, ..
            }
            | RequestPeek::StreamInfer {
                model, request_id, ..
            }),
        ) => match decode_input(&peek, frame) {
            Ok((stream, input)) => service.admit(owed, model, input, request_id, received, stream),
            Err(e) => Some(refusal(request_id, e)),
        },
        Ok(RequestPeek::ListModels { request_id, .. }) => Some(Response::Models {
            request_id,
            names: service.model_names(),
        }),
        Ok(RequestPeek::Stats { request_id, .. }) => Some(service.stats_response(request_id)),
        Err(e) => Some(refusal(0, e)),
    };
    immediate.is_none_or(|response| out.push_response(&response).is_ok())
}

/// A request's failure as its wire frame: a shed is `Busy`, anything
/// else an `Error` — stringified only here, at the wire boundary.
fn refusal(request_id: u64, e: DjinnError) -> Response {
    match e {
        DjinnError::Busy { model, queue_depth } => Response::Busy {
            request_id,
            model,
            queue_depth: queue_depth.min(u32::MAX as usize) as u32,
        },
        other => Response::Error {
            request_id,
            message: other.to_string(),
        },
    }
}

/// Moves the completions waiting on a client's channels into its write
/// buffer, booking each in the stats — stream chunks only while the
/// client is not backlogged. `false` once the client must go: a reply
/// that cannot be encoded even as an error.
fn drain_completions(service: &mut Service, c: &mut Client) -> bool {
    let Owed {
        once: (_, once),
        chunks,
        pending,
        ..
    } = &mut c.owed;
    let conn = &mut c.conn;
    while let Ok(reply) = once.try_recv() {
        if !answer(service, pending, &mut conn.out, reply) {
            return false;
        }
    }
    let Some((_, chunks)) = chunks else {
        return true;
    };
    while !conn.backlogged() {
        let Ok(reply) = chunks.try_recv() else {
            break;
        };
        if !answer(service, pending, &mut conn.out, reply) {
            return false;
        }
    }
    true
}

/// Books one completion and encodes it into `out` — or, while the
/// request it is behind is owed, holds it; `false` as for
/// [`drain_completions`].
fn answer(
    service: &mut Service,
    pending: &mut Pending,
    out: &mut WriteBuf,
    reply: RoutedReply,
) -> bool {
    let Some(&p) = pending.by_token.get(&reply.token) else {
        return true; // unreachable: tokens are registered at admission
    };
    if let Some(b) = p.behind.filter(|b| pending.by_token.contains_key(b)) {
        pending.held.entry(b).or_default().push(reply);
        return true;
    }
    let RoutedReply {
        token,
        seq,
        last,
        result,
    } = reply;
    let elapsed_us = p.received.elapsed().as_micros() as u64;
    // A streaming job completes many times under one token: the entry
    // stays registered until its terminal reply. Stats count requests,
    // not chunks: a stream accumulates on its terminal reply only, with
    // the full admission→final latency.
    if last {
        pending.by_token.remove(&token);
        if pending.newest.get(&p.request_id) == Some(&token) {
            pending.newest.remove(&p.request_id);
        }
        let acc = &mut service.models[p.model].stats;
        match &result {
            Ok(_) => {
                acc.requests += 1;
                acc.total_latency_us += elapsed_us;
                acc.max_latency_us = acc.max_latency_us.max(elapsed_us);
            }
            // Sheds are backpressure, not failures: the engine
            // counts them; `errors` stays inference failures only.
            Err(DjinnError::Busy { .. }) => {}
            Err(_) => acc.errors += 1,
        }
    }
    let response = match result {
        Ok((tensor, spans)) => {
            // server_total reuses the single measurement taken above:
            // server-read → completion, the server's whole view of
            // the request in its own clock domain. Stamping the clock
            // a second time here would let `Stats` and the trace
            // block disagree about the same request.
            let trace = ServerTrace::new(p.request_id, spans, elapsed_us);
            if p.streaming {
                Response::Chunk {
                    tensor,
                    trace,
                    seq,
                    last,
                }
            } else {
                Response::Output { tensor, trace }
            }
        }
        Err(e) => refusal(p.request_id, e),
    };
    let encode_start = Instant::now();
    if out.push_response(&response).is_err() {
        return false;
    }
    if matches!(response, Response::Output { .. } | Response::Chunk { .. }) {
        let us = encode_start.elapsed().as_micros() as u64;
        service.models[p.model].stats.wire.record(us);
    }
    // Done: what waited for this request goes out now, in turn.
    if last && !pending.held.is_empty() {
        for reply in pending.held.remove(&token).unwrap_or_default() {
            if !answer(service, pending, out, reply) {
                return false;
            }
        }
    }
    true
}

impl Service {
    /// Admits an Infer, or a StreamInfer (`stream: Some(mode)`), whose
    /// completions come back under a fresh token; `Some` refuses it.
    fn admit(
        &mut self,
        owed: &mut Owed,
        model: &str,
        input: Tensor,
        request_id: u64,
        received: Instant,
        stream: Option<StreamMode>,
    ) -> Option<Response> {
        let Ok(m) = self
            .models
            .binary_search_by(|known| known.engine.model().cmp(model))
        else {
            self.unknown_models += 1;
            let name = model.to_owned();
            return Some(refusal(request_id, DjinnError::UnknownModel { name }));
        };
        let token = owed.next_token;
        owed.next_token += 1;
        let engine = &self.models[m].engine;
        let admitted = match stream {
            Some(mode) => {
                let (tx, _) = owed.chunks.get_or_insert_with(|| {
                    let (tx, rx) = bounded(CHUNK_CHANNEL);
                    (ReplyTo::waking(tx, Arc::clone(&owed.wake)), rx)
                });
                engine.submit_stream_routed(input, token, mode, tx.clone())
            }
            None => engine.submit_routed(input, token, owed.once.0.clone()),
        };
        if let Err(refused) = admitted {
            return Some(refusal(request_id, refused));
        }
        // (A cache hit is already in the channel; only this thread reads it.)
        let pending = PendingInfer {
            request_id,
            model: m,
            received,
            streaming: stream.is_some(),
            behind: owed.pending.newest.insert(request_id, token),
        };
        owed.pending.by_token.insert(token, pending);
        None
    }

    /// The served models' names, in the registry's (sorted) order.
    fn model_names(&self) -> Vec<String> {
        self.models
            .iter()
            .map(|m| m.engine.model().to_owned())
            .collect()
    }

    /// Each engine's stats with the six fields the server owns filled
    /// in from its wire-level accumulators; every registered model gets
    /// an entry, and requests for unregistered models surface only in
    /// the aggregate counter.
    fn stats_response(&self, request_id: u64) -> Response {
        Response::Stats {
            request_id,
            unknown_model_requests: self.unknown_models,
            stats: self
                .models
                .iter()
                .map(|m| ModelStats {
                    requests: m.stats.requests,
                    errors: m.stats.errors,
                    total_latency_us: m.stats.total_latency_us,
                    max_latency_us: m.stats.max_latency_us,
                    p50_wire_us: m.stats.wire.quantile(0.50),
                    p99_wire_us: m.stats.wire.quantile(0.99),
                    ..m.engine.stats()
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DjinnClient, DjinnError};
    use std::net::TcpStream;
    use tensor::{Shape, Tensor};

    fn small_registry() -> ModelRegistry {
        // A tiny model keeps tests fast.
        let def = dnn::parser::parse_netdef(
            "name: tiny\ninput: 8\nlayer fc1 fc out=4\nlayer prob softmax\n",
        )
        .unwrap();
        let net = dnn::Network::with_random_weights(def, 1).unwrap();
        let mut reg = ModelRegistry::new();
        reg.register("tiny", net);
        reg
    }

    #[test]
    fn end_to_end_inference_over_tcp() {
        let server = DjinnServer::start(small_registry(), ServerConfig::default()).unwrap();
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 2);
        let out = client.infer("tiny", &input).unwrap();
        assert_eq!(out.shape().dims(), &[1, 4]);
        let sum: f32 = out.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        server.shutdown();
    }

    #[test]
    fn unknown_model_returns_remote_error() {
        let server = DjinnServer::start(small_registry(), ServerConfig::default()).unwrap();
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let input = Tensor::zeros(Shape::mat(1, 8));
        let err = client.infer("nope", &input).unwrap_err();
        assert!(matches!(err, DjinnError::Remote { .. }), "{err}");
        server.shutdown();
    }

    #[test]
    fn list_models_reports_registry() {
        let server = DjinnServer::start(small_registry(), ServerConfig::default()).unwrap();
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.list_models().unwrap(), vec!["tiny".to_string()]);
        server.shutdown();
    }

    #[test]
    fn batched_server_matches_unbatched_results() {
        let config = ServerConfig {
            batching: Some(BatchConfig {
                max_batch: 8,
                max_delay: Duration::from_millis(1),
            }),
            ..ServerConfig::default()
        };
        let server = DjinnServer::start(small_registry(), config).unwrap();
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 5);
        let batched = client.infer("tiny", &input).unwrap();
        // Compare with a locally-executed reference.
        let reg = small_registry();
        let want = reg.get("tiny").unwrap().forward(&input).unwrap();
        assert!(batched.max_abs_diff(&want).unwrap() < 1e-5);
        server.shutdown();
    }

    #[test]
    fn threaded_server_matches_serial_results() {
        let config = ServerConfig {
            threads: 4,
            ..ServerConfig::default()
        };
        let server = DjinnServer::start(small_registry(), config).unwrap();
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let input = Tensor::random_uniform(Shape::mat(9, 8), 1.0, 7);
        let threaded = client.infer("tiny", &input).unwrap();
        let reg = small_registry();
        let want = reg.get("tiny").unwrap().forward(&input).unwrap();
        assert!(threaded.max_abs_diff(&want).unwrap() < 1e-5);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_and_closes_idle_connections() {
        let server = DjinnServer::start(small_registry(), ServerConfig::default()).unwrap();
        // One connection that was served, one that never sent a frame.
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let mut idle = TcpStream::connect(server.local_addr()).unwrap();
        assert!(client.list_models().is_ok());
        let t0 = Instant::now();
        server.shutdown();
        // Neither is owed anything, so shutdown closes both at once.
        assert!(t0.elapsed() < Duration::from_secs(5));
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(std::io::Read::read(&mut idle, &mut byte).unwrap(), 0);
    }

    #[test]
    fn shutdown_is_prompt_on_a_wildcard_bind() {
        let config = ServerConfig {
            bind_addr: "0.0.0.0:0".into(),
            ..ServerConfig::default()
        };
        let server = DjinnServer::start(small_registry(), config).unwrap();
        assert!(server.local_addr().ip().is_unspecified());
        // The listener serves real traffic via loopback.
        let reach = SocketAddr::from(([127, 0, 0, 1], server.local_addr().port()));
        let mut client = DjinnClient::connect(reach).unwrap();
        assert_eq!(client.list_models().unwrap(), vec!["tiny".to_string()]);
        drop(client);
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "shutdown must not wait for an external connection"
        );
    }

    #[test]
    fn stats_and_trace_report_the_same_latency() {
        // Regression: the reply path used to read the clock twice per
        // request — once for the stats accumulator, again for the trace
        // block — so the two views of the same request could disagree.
        // With a single measurement, the stats totals must equal the
        // trace sums *exactly*, summed over enough requests that a
        // stray double-stamp cannot hide in microsecond truncation.
        let server = DjinnServer::start(small_registry(), ServerConfig::default()).unwrap();
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let mut sum_us = 0u64;
        let mut max_us = 0u64;
        for seed in 0..50 {
            let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, seed);
            let (_, record) = client.infer_traced("tiny", &input).unwrap();
            sum_us += record.server_total_us;
            max_us = max_us.max(record.server_total_us);
        }
        let stats = client.stats().unwrap();
        let tiny = stats.iter().find(|s| s.model == "tiny").unwrap();
        assert_eq!(tiny.requests, 50);
        assert_eq!(
            tiny.total_latency_us, sum_us,
            "stats and trace must come from the same measurement"
        );
        assert_eq!(tiny.max_latency_us, max_us);
        server.shutdown();
    }

    #[test]
    fn unencodable_response_degrades_to_a_correlated_error() {
        // A model name longer than the wire's u16 string limit makes the
        // Models response unencodable; the write buffer must degrade to
        // an Error frame carrying the same request ID — the client sees a
        // correlated Remote error and the connection stays usable.
        let mut registry = small_registry();
        let def = dnn::parser::parse_netdef(
            "name: big\ninput: 8\nlayer fc1 fc out=4\nlayer prob softmax\n",
        )
        .unwrap();
        let net = dnn::Network::with_random_weights(def, 2).unwrap();
        registry.register("x".repeat(crate::protocol::MAX_STR + 1), net);
        let server = DjinnServer::start(registry, ServerConfig::default()).unwrap();
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let err = client.list_models().unwrap_err();
        assert!(
            matches!(err, DjinnError::Remote { ref message }
                if message.contains("exceeds the wire limit")),
            "expected the degrade-path Remote error, got {err:?}"
        );
        // Not poisoned: the same connection still serves inference.
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 3);
        let out = client.infer("tiny", &input).unwrap();
        assert_eq!(out.shape().dims(), &[1, 4]);
        server.shutdown();
    }

    #[test]
    fn stats_report_queue_telemetry_for_every_model() {
        let server = DjinnServer::start(small_registry(), ServerConfig::default()).unwrap();
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 4);
        for _ in 0..3 {
            client.infer("tiny", &input).unwrap();
        }
        let stats = client.stats().unwrap();
        let tiny = stats.iter().find(|s| s.model == "tiny").unwrap();
        assert_eq!(tiny.requests, 3);
        assert_eq!((tiny.shed, tiny.queue_depth, tiny.in_flight), (0, 0, 0));
        assert!(tiny.p99_queue_wait_us >= tiny.p50_queue_wait_us);
        server.shutdown();
    }

    #[test]
    fn overloaded_engine_answers_busy_not_error() {
        // Capacity 1 and a dispatch held 100 ms per pass: of four requests
        // pipelined at once, one runs, at most one waits, the rest shed.
        let config = ServerConfig {
            queue_capacity: 1,
            service_delay: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        };
        let server = DjinnServer::start(small_registry(), config).unwrap();
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 6);
        let ids: Vec<u64> = (0..4)
            .map(|_| client.submit("tiny", &input).unwrap())
            .collect();
        let mut shed = 0;
        for _ in &ids {
            let done = client.recv_next().unwrap();
            assert!(ids.contains(&done.request_id));
            match done.result {
                Ok(_) => {}
                // The shed is a Busy frame under the request's own ID,
                // not a stringly error.
                Err(DjinnError::Busy { model, queue_depth }) => {
                    assert_eq!((model.as_str(), queue_depth), ("tiny", 1));
                    shed += 1;
                }
                Err(other) => panic!("expected Busy, got {other:?}"),
            }
        }
        assert!(shed >= 2, "{shed} of 4 shed");
        // Sheds are visible in stats as `shed`, never as `errors`, and
        // the admitted jobs completed.
        let stats = client.stats().unwrap();
        let tiny = stats.iter().find(|s| s.model == "tiny").unwrap();
        assert_eq!(tiny.shed, shed);
        assert_eq!((tiny.errors, tiny.requests), (0, 4 - shed));
        server.shutdown();
    }

    #[test]
    fn unknown_models_count_in_aggregate_and_never_grow_the_stats_map() {
        let server = DjinnServer::start(small_registry(), ServerConfig::default()).unwrap();
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let input = Tensor::zeros(Shape::mat(1, 8));
        for i in 0..5 {
            let err = client.infer(&format!("ghost-{i}"), &input).unwrap_err();
            assert!(matches!(err, DjinnError::Remote { .. }), "{err}");
        }
        // A real request keeps working and the aggregate counter reports
        // the rejections without any per-name entries appearing.
        client.infer("tiny", &input).unwrap();
        let (stats, unknown) = client.stats_with_unknown_count().unwrap();
        assert_eq!(unknown, 5);
        assert!(
            stats.iter().all(|s| s.model == "tiny"),
            "unknown names leaked into per-model stats: {stats:?}"
        );
        server.shutdown();
    }

    #[test]
    fn pipelined_responses_are_correlated_not_ordered() {
        // A batched engine with a long coalescing delay makes replies to
        // a window of pipelined requests come back together — correctness
        // must come from ID correlation, not luck of arrival order.
        let config = ServerConfig {
            batching: Some(BatchConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(5),
            }),
            ..ServerConfig::default()
        };
        let server = DjinnServer::start(small_registry(), config).unwrap();
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let inputs: Vec<Tensor> = (0..8)
            .map(|seed| Tensor::random_uniform(Shape::mat(1, 8), 1.0, 40 + seed))
            .collect();
        // Keep four submits in flight and claim whichever finishes first.
        let mut slot_of = HashMap::new();
        let mut results: Vec<Option<Tensor>> = vec![None; inputs.len()];
        let mut next = 0;
        while results.iter().any(Option::is_none) {
            while next < inputs.len() && client.in_flight() < 4 {
                slot_of.insert(client.submit("tiny", &inputs[next]).unwrap(), next);
                next += 1;
            }
            let done = client.recv_next().unwrap();
            let (got, _trace) = done.result.unwrap();
            results[slot_of[&done.request_id]] = Some(got);
        }
        let reg = small_registry();
        let net = reg.get("tiny").unwrap();
        for (input, got) in inputs.iter().zip(results) {
            let got = got.unwrap();
            let want = net.forward(input).unwrap();
            assert!(
                got.max_abs_diff(&want).unwrap() < 1e-5,
                "pipelined response attributed to the wrong request"
            );
        }
        server.shutdown();
    }

    #[test]
    fn replies_under_a_reused_id_keep_admission_order() {
        // A 32-token stream, a 4-token one and a one-shot, all under ID
        // 7: the later ones finish long before the first does, but a
        // client that reuses an ID can only correlate by order, so each
        // must follow the last chunk of the one before.
        use crate::protocol::{FrameReader, Request};
        let registry = ModelRegistry::with_tiny_test_zoo().unwrap();
        let server = DjinnServer::start(registry, ServerConfig::default()).unwrap();
        let mut prompt = vec![0.0f32; 16];
        prompt[3] = 1.0;
        let prompt = Tensor::from_vec(Shape::mat(1, 16), prompt).unwrap();
        let stream = |max_tokens| Request::StreamInfer {
            model: "tiny-lm".into(),
            input: prompt.clone(),
            request_id: 7,
            mode: StreamMode::Generative { max_tokens },
        };
        let once = Request::Infer {
            model: "tiny-lm".into(),
            input: prompt.clone(),
            request_id: 7,
        };
        let mut wire = Vec::new();
        let mut frame = bytes::BytesMut::new();
        for request in [stream(32), stream(4), once] {
            request.encode_framed_into(&mut frame).unwrap();
            wire.extend_from_slice(&frame);
        }
        let mut socket = TcpStream::connect(server.local_addr()).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        std::io::Write::write_all(&mut socket, &wire).unwrap();
        let mut replies = FrameReader::new();
        let mut recv = || {
            let frame = replies.read_frame_ref(&socket).unwrap().unwrap();
            Response::decode(frame).unwrap()
        };
        for n in [32u32, 4] {
            for i in 0..n {
                match recv() {
                    Response::Chunk { seq, last, .. } => assert_eq!((seq, last), (i, i == n - 1)),
                    other => panic!("chunk {i} of {n}: got {other:?}"),
                }
            }
        }
        let rsp = recv();
        assert!(matches!(rsp, Response::Output { .. }), "{rsp:?}");
        server.shutdown();
    }

    #[test]
    fn multiple_clients_are_served_concurrently() {
        let server =
            Arc::new(DjinnServer::start(small_registry(), ServerConfig::default()).unwrap());
        let addr = server.local_addr();
        let mut handles = Vec::new();
        for seed in 0..4u64 {
            handles.push(std::thread::spawn(move || {
                let mut client = DjinnClient::connect(addr).unwrap();
                for i in 0..5 {
                    let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, seed * 10 + i);
                    let out = client.infer("tiny", &input).unwrap();
                    assert_eq!(out.shape().dims(), &[1, 4]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
