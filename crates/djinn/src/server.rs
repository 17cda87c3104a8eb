//! The DjiNN TCP server: accept loop, one worker thread per connection,
//! shared read-only model registry, one [`InferenceEngine`] per model.
//!
//! Every inference request — batched or not — goes through its model's
//! engine: connection workers only admit jobs, never touch the executor
//! directly, and never block on a ticket. Each connection is
//! **full-duplex**: the worker reads and admits frames while a small
//! per-connection *reply pump* thread writes completions back as the
//! engines finish them — possibly out of order, which the protocol's
//! ID-correlated frames make safe. Admission is non-blocking; a full
//! queue answers with a `Busy` frame (echoing the request's ID) instead
//! of wedging the connection worker.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use gpusim::queueing::LatencyHistogram;
use parking_lot::Mutex;
use tensor::{Tensor, Threading};

use bytes::BytesMut;

use crate::device::{ColocationPolicy, Device, DeviceScheduler};
use crate::protocol::{peek_request, FrameReader, ModelStats, Request, Response, StreamMode};
use crate::trace::ServerTrace;
use crate::{
    BatchConfig, CpuExecutor, DelayExecutor, DispatchPolicy, DjinnError, EngineConfig, Executor,
    InferenceEngine, ModelRegistry, Result, RoutedReply, SimGpuExecutor,
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
    /// Per-model batching; `None` executes each request alone.
    pub batching: Option<BatchConfig>,
    /// Per-model `max_batch` overrides on top of `batching` — how the
    /// Table 3 per-application batch sizes are deployed (e.g. 64 for the
    /// NLP models but only 2 for FACE).
    pub batch_overrides: BTreeMap<String, usize>,
    /// Worker threads the CPU backend spends on each forward pass
    /// (batch sharding or in-layer GEMM strips, chosen per model).
    /// `1` keeps inference sequential; ignored by the simulated GPU.
    pub threads: usize,
    /// Per-model admission bound: requests beyond this many queued are
    /// answered with `Busy` instead of queued (load shedding).
    pub queue_capacity: usize,
    /// Dispatch workers per model when requests run unbatched
    /// (`batching: None`); a batching engine always uses one coalescing
    /// worker.
    pub engine_workers: usize,
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
            batch_overrides: BTreeMap::new(),
            threads: 1,
            queue_capacity: 128,
            engine_workers: 4,
            service_delay: None,
            device_capacity: None,
            colocation: ColocationPolicy::AlwaysBatch,
            cache_mode: CacheMode::Off,
            cache_bytes: 64 * 1024 * 1024,
        }
    }
}

impl ServerConfig {
    /// The paper's deployment: batching on, with each Tonic model's
    /// Table 3 batch size.
    pub fn tonic_batching() -> Self {
        let mut batch_overrides = BTreeMap::new();
        for app in dnn::zoo::App::ALL {
            batch_overrides.insert(app.name().to_lowercase(), app.service_meta().batch_size);
        }
        ServerConfig {
            batching: Some(BatchConfig::default()),
            batch_overrides,
            ..ServerConfig::default()
        }
    }
}

/// A running DjiNN service.
///
/// Dropping the handle (or calling [`DjinnServer::shutdown`]) stops the
/// accept loop, lets in-flight connections finish their current request,
/// and joins every worker thread before returning — no worker outlives
/// the handle.
#[derive(Debug)]
pub struct DjinnServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// How often an idle connection re-checks the stop flag. A fired read
/// timeout is a clean "no frame yet" signal (see [`FrameReader`]), so
/// this bounds shutdown latency without risking stream desync.
const READ_POLL: Duration = Duration::from_millis(100);

/// Per-write-call stall bound on responses, so a worker writing to a
/// client that never drains its socket cannot wedge shutdown forever. A
/// slow-but-live reader keeps making progress within each window; only a
/// fully stalled one errors out and drops the connection.
const WRITE_STALL: Duration = Duration::from_secs(5);

#[derive(Default)]
struct StatsAcc {
    requests: u64,
    errors: u64,
    total_latency_us: u64,
    max_latency_us: u64,
    /// Response-write durations for successful inferences — the slice of
    /// the wire the server's clock can see.
    wire: LatencyHistogram,
}

struct Shared {
    registry: ModelRegistry,
    engines: BTreeMap<String, InferenceEngine>,
    stats: Mutex<BTreeMap<String, StatsAcc>>,
    /// Infer requests rejected for naming an unregistered model. One
    /// aggregate counter: unknown names never create stats-map entries,
    /// so a client spraying random names cannot grow server memory.
    unknown_models: AtomicU64,
    stop: Arc<AtomicBool>,
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
        let stop = Arc::new(AtomicBool::new(false));
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
        // --device-threads each engine gets the legacy dedicated
        // (unbounded) scheduler: no engine ever waits on another's lease.
        let scheduler = Arc::new(match config.device_capacity {
            Some(units) => DeviceScheduler::new(match config.backend {
                Backend::Cpu => Device::Cpu { threads: units },
                Backend::SimGpu => Device::SimGpuMps { slots: units },
            }),
            None => DeviceScheduler::dedicated(),
        });
        // Engines are created eagerly at initialization, one per model,
        // mirroring DjiNN's load-everything-up-front design. Batched and
        // unbatched serving are just dispatch policies of the same engine.
        let mut engines = BTreeMap::new();
        let model_count = registry.names().len().max(1);
        let per_model_cache_bytes = (config.cache_bytes / model_count).max(1);
        for name in registry.names() {
            let net = registry.get(&name)?;
            let policy = match config.batching {
                Some(bc) => {
                    let mut model_bc = bc;
                    if let Some(&max_batch) = config.batch_overrides.get(&name) {
                        model_bc.max_batch = max_batch;
                    }
                    DispatchPolicy::Batched(model_bc)
                }
                None => DispatchPolicy::Immediate,
            };
            let engine_config = EngineConfig {
                policy,
                queue_capacity: config.queue_capacity,
                workers: config.engine_workers,
                colocation: config.colocation,
            };
            let cache = InferenceCache::new(config.cache_mode, per_model_cache_bytes).map(Arc::new);
            let engine = InferenceEngine::start_cached(
                name.clone(),
                net,
                Arc::clone(&executor),
                engine_config,
                Arc::clone(&scheduler),
                cache,
            );
            engines.insert(name, engine);
        }
        let shared = Arc::new(Shared {
            registry,
            engines,
            stats: Mutex::new(BTreeMap::new()),
            unknown_models: AtomicU64::new(0),
            stop: Arc::clone(&stop),
        });
        let accept_stop = Arc::clone(&stop);
        let workers = Arc::new(Mutex::new(Vec::new()));
        let accept_workers = Arc::clone(&workers);
        let accept_thread = std::thread::Builder::new()
            .name("djinn-accept".into())
            .spawn(move || accept_loop(&listener, &accept_stop, &shared, &accept_workers))
            .expect("spawning accept thread");
        Ok(DjinnServer {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            workers,
        })
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

    /// Stops accepting connections, then joins the accept thread and every
    /// connection worker. Workers notice the stop flag within one read
    /// poll (100 ms) when idle and after their in-flight request
    /// otherwise, so teardown is bounded and nothing races test (or
    /// process) exit.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(wake_addr(self.local_addr));
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        for h in workers {
            let _ = h.join();
        }
    }
}

/// The address the shutdown path dials to wake a blocked `accept`.
///
/// `local_addr()` on a wildcard bind reports the *unspecified* address
/// (`0.0.0.0:PORT` / `[::]:PORT`), which is a listen address, not a
/// destination: connecting to it is platform-dependent (outright refused
/// on some systems), and when it fails the accept loop stays blocked
/// until an unrelated client happens to connect. The listener is always
/// reachable via loopback on the bound port, so map an unspecified IP to
/// its family's loopback and leave concrete addresses untouched.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
    match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => {
            SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), local.port())
        }
        IpAddr::V6(ip) if ip.is_unspecified() => {
            SocketAddr::new(IpAddr::V6(Ipv6Addr::LOCALHOST), local.port())
        }
        _ => local,
    }
}

impl Drop for DjinnServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_accepting();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    shared: &Arc<Shared>,
    workers: &Mutex<Vec<JoinHandle<()>>>,
) {
    // Bounded backoff for persistent accept errors (EMFILE, ENFILE):
    // without it the loop hot-spins on the same failure.
    let mut backoff = Duration::from_millis(5);
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => {
                backoff = Duration::from_millis(5);
                pair
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(200));
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // One worker thread per connection — the paper's request model.
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("djinn-worker".into())
            .spawn(move || connection_loop(stream, &shared));
        if let Ok(h) = handle {
            let mut workers = workers.lock();
            // Reap handles of connections that already finished so a
            // long-lived server doesn't accumulate them without bound.
            workers.retain(|w| !w.is_finished());
            workers.push(h);
        }
    }
}

/// Bound on the per-connection completion channel between engine
/// dispatch workers and the reply pump. Deep enough that a draining pump
/// never stalls dispatch in practice; if a stalled client does fill it,
/// engine workers briefly block on a one-shot reply's send and the
/// connection's streams sit out decode ticks — backpressure, not loss.
const PUMP_CHANNEL: usize = 1024;

/// What the connection worker remembers about an admitted Infer until
/// its completion comes back through the reply pump. Keyed by a
/// per-connection token (not the client's request ID, which may be 0 or
/// reused), allocated before admission.
#[derive(Clone)]
struct PendingInfer {
    request_id: u64,
    model: String,
    /// The server-read span mark: everything from here to response
    /// encoding is the server's view of the request, in its own clock.
    received: Instant,
    /// `true` for a StreamInfer: completions become `Chunk` frames, and
    /// the entry stays registered until the terminal reply arrives.
    streaming: bool,
}

/// The write half of a connection, shared by the worker (control and
/// rejection frames) and the reply pump (completions). With
/// ID-correlated frames the interleaving order is free; only frame
/// *atomicity* matters, which the mutex provides.
struct ConnWriter {
    stream: TcpStream,
    /// Per-connection scratch for framed encoding: each response is laid
    /// out as one `[len | payload]` image here and sent with a single
    /// `write_all` — one syscall per frame, zero steady-state
    /// allocations once the buffer has grown to the connection's working
    /// frame size.
    scratch: BytesMut,
    /// Set after any failed write — the frame may have been partially
    /// sent, so the byte stream can no longer be trusted — and when the
    /// read half finds the peer gone. Every later write is refused.
    poisoned: bool,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        ConnWriter {
            stream,
            scratch: BytesMut::new(),
            poisoned: false,
        }
    }

    /// Encodes and writes one response frame; returns `false` once the
    /// connection is poisoned (now or previously).
    fn write_response(&mut self, response: &Response) -> bool {
        if self.poisoned {
            return false;
        }
        if let Err(e) = response.encode_framed_into(&mut self.scratch) {
            // Unencodable response (e.g. oversized model name in a list):
            // degrade to a clamped error frame carrying the same ID
            // rather than dropping the response.
            let fallback = Response::Error {
                request_id: response.request_id(),
                message: e.to_string(),
            };
            if fallback.encode_framed_into(&mut self.scratch).is_err() {
                self.poisoned = true;
                return false;
            }
        }
        let sent = self
            .stream
            .write_all(&self.scratch)
            .and_then(|()| self.stream.flush());
        if sent.is_err() {
            self.poisoned = true;
            return false;
        }
        true
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // Bounded reads so workers poll the stop flag while idle; the
    // FrameReader keeps partial bytes across fired timeouts, so a slow
    // writer mid-frame never desyncs the stream (see protocol.rs).
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_STALL));
    // Disable Nagle: response frames go out as single writes, and
    // letting the kernel hold one back waiting for the client's delayed
    // ACK pins small-frame latency at ~40 ms (the client sets this on
    // its end already; both halves of the fd share the option).
    let _ = stream.set_nodelay(true);
    // Split the socket: the worker keeps the read half, and a cloned
    // write half (same fd, same timeouts) goes behind a mutex shared
    // with the reply pump.
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(ConnWriter::new(w))),
        Err(_) => return,
    };
    let pending: Arc<Mutex<HashMap<u64, PendingInfer>>> = Arc::new(Mutex::new(HashMap::new()));
    let (pump_tx, pump_rx) = bounded::<RoutedReply>(PUMP_CHANNEL);
    let pump = {
        let shared = Arc::clone(shared);
        let pending = Arc::clone(&pending);
        let writer = Arc::clone(&writer);
        std::thread::Builder::new()
            .name("djinn-reply-pump".into())
            .spawn(move || reply_pump(pump_rx, &pending, &writer, &shared))
    };
    let Ok(pump) = pump else { return };
    let mut stream = stream;
    let mut reader = FrameReader::new();
    let mut next_token: u64 = 0;
    loop {
        if shared.stop.load(Ordering::SeqCst) || writer.lock().poisoned {
            break;
        }
        // Frames are decoded straight out of the reader's buffer (no
        // per-frame payload copy); Request::decode produces the owned
        // tensor the engine needs.
        let frame = match reader.read_frame_ref(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => continue, // no complete frame yet; poll stop again
            Err(_) => {
                // EOF or protocol break: drop the connection. Nobody is
                // left to read replies, so the pump stops at its next one
                // and what the engines still owe — a stream's remaining
                // tokens above all — is cancelled, not computed.
                writer.lock().poisoned = true;
                break;
            }
        };
        let decoded = Request::decode(frame);
        let received = Instant::now();
        let immediate = match decoded {
            // Infer is full-duplex: admit to the engine and go read the
            // next frame — the reply pump answers when the job
            // completes, possibly after later requests.
            Ok(Request::Infer {
                model,
                input,
                request_id,
            }) => {
                let token = next_token;
                next_token += 1;
                admit_infer(
                    shared, &pending, &pump_tx, token, model, input, request_id, received, None,
                )
            }
            // StreamInfer admits the same way; the engine answers with N
            // routed chunks and the pump writes each as a Chunk frame.
            Ok(Request::StreamInfer {
                model,
                input,
                request_id,
                mode,
            }) => {
                let token = next_token;
                next_token += 1;
                admit_infer(
                    shared,
                    &pending,
                    &pump_tx,
                    token,
                    model,
                    input,
                    request_id,
                    received,
                    Some(mode),
                )
            }
            Ok(Request::ListModels { request_id }) => Some(Response::Models {
                request_id,
                names: shared.registry.names(),
            }),
            Ok(Request::Stats { request_id }) => Some(stats_response(shared, request_id)),
            // An undecodable request is refused under its own ID whenever
            // that much of the frame is readable, so the refusal finds its
            // way back — through a client's correlation, or a router's —
            // to the request it answers; 0 only when there is no ID to read.
            Err(e) => Some(Response::Error {
                request_id: peek_request(frame).map_or(0, |peek| peek.request_id()),
                message: e.to_string(),
            }),
        };
        if let Some(response) = immediate {
            if !writer.lock().write_response(&response) {
                break;
            }
        }
    }
    // Dropping the worker's sender lets the pump drain what the engines
    // still owe this connection (every admitted job is answered, even
    // during shutdown) and exit once the channel disconnects — or at the
    // first reply it can no longer write.
    drop(pump_tx);
    let _ = pump.join();
}

/// Admits one decoded Infer or StreamInfer (`stream: Some(mode)`).
/// `Some(response)` means the request was answered synchronously
/// (unknown model, shed, shutdown, invalid stream mode) and nothing was
/// admitted; `None` means the job is in flight and the reply pump will
/// answer under `token` when it completes — once for an Infer, once per
/// chunk for a stream.
#[allow(clippy::too_many_arguments)]
fn admit_infer(
    shared: &Shared,
    pending: &Mutex<HashMap<u64, PendingInfer>>,
    pump_tx: &Sender<RoutedReply>,
    token: u64,
    model: String,
    input: Tensor,
    request_id: u64,
    received: Instant,
    stream: Option<StreamMode>,
) -> Option<Response> {
    let Some(engine) = shared.engines.get(&model) else {
        // Reject before touching the stats map: unknown names bump one
        // aggregate counter and never create per-model entries, so a
        // client spraying names cannot grow the map without bound.
        shared.unknown_models.fetch_add(1, Ordering::Relaxed);
        return Some(Response::Error {
            request_id,
            message: DjinnError::UnknownModel { name: model }.to_string(),
        });
    };
    // Register the token before admission: the completion may race the
    // return of `submit_routed`.
    pending.lock().insert(
        token,
        PendingInfer {
            request_id,
            model,
            received,
            streaming: stream.is_some(),
        },
    );
    let admitted = match stream {
        Some(mode) => engine.submit_stream_routed(input, token, mode, pump_tx.clone()),
        None => engine.submit_routed(input, token, pump_tx.clone()),
    };
    match admitted {
        Ok(()) => None,
        Err(e) => {
            // Nothing was admitted; no reply will arrive for the token.
            pending.lock().remove(&token);
            Some(match e {
                DjinnError::Busy { model, queue_depth } => Response::Busy {
                    request_id,
                    model,
                    queue_depth: queue_depth.min(u32::MAX as usize) as u32,
                },
                other => Response::Error {
                    request_id,
                    message: other.to_string(),
                },
            })
        }
    }
}

/// Receives engine completions for one connection and writes them back
/// in completion order — the write side of the full-duplex connection.
/// Runs until every sender is gone (the worker's handle plus the clone
/// each in-flight job holds) and the channel drains, so no admitted job
/// is ever dropped unanswered while the connection can carry the answer.
/// Once it cannot (writer poisoned or closed) the pump returns, dropping
/// its receiver: every later send fails at once, which never blocks an
/// engine worker and retires the connection's live streams at their next
/// chunk instead of decoding to the last token for nobody.
fn reply_pump(
    rx: Receiver<RoutedReply>,
    pending: &Mutex<HashMap<u64, PendingInfer>>,
    writer: &Mutex<ConnWriter>,
    shared: &Shared,
) {
    while let Ok(RoutedReply {
        token,
        seq,
        last,
        result,
    }) = rx.recv()
    {
        // A streaming job completes many times under one token: the
        // entry stays registered until its terminal reply.
        let looked_up = if last {
            pending.lock().remove(&token)
        } else {
            pending.lock().get(&token).cloned()
        };
        let Some(p) = looked_up else {
            continue; // unreachable: tokens are registered before admission
        };
        let elapsed_us = p.received.elapsed().as_micros() as u64;
        // Stats count requests, not chunks: a stream accumulates on its
        // terminal reply only, with the full admission→final latency.
        if last {
            let mut stats = shared.stats.lock();
            let acc = stats.entry(p.model.clone()).or_default();
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
            Err(DjinnError::Busy { model, queue_depth }) => Response::Busy {
                request_id: p.request_id,
                model,
                queue_depth: queue_depth.min(u32::MAX as usize) as u32,
            },
            // Stringify only here, at the wire boundary.
            Err(e) => Response::Error {
                request_id: p.request_id,
                message: e.to_string(),
            },
        };
        let is_output = matches!(response, Response::Output { .. } | Response::Chunk { .. });
        let write_start = Instant::now();
        if !writer.lock().write_response(&response) {
            return;
        }
        if is_output {
            // The response-write span mark closes the server's view of
            // the request: successful inferences feed the per-model wire
            // histogram reported by `Stats`.
            let mut stats = shared.stats.lock();
            stats
                .entry(p.model)
                .or_default()
                .wire
                .record(write_start.elapsed().as_micros() as u64);
        }
    }
}

/// Merges the wire-level accumulators with each engine's queue
/// telemetry; every registered model gets an entry, and requests for
/// unregistered models surface only in the aggregate counter.
fn stats_response(shared: &Shared, request_id: u64) -> Response {
    // Snapshot engine telemetry *before* taking the wire-stats lock: the
    // reply pump grabs that lock on every completion, so holding it
    // across per-engine snapshots would serialize a Stats poll against a
    // busy pump and stale-ify the queue-depth/in-flight numbers a
    // router's load poller steers by.
    let engine_stats: Vec<(&String, crate::EngineStats)> = shared
        .engines
        .iter()
        .map(|(model, engine)| (model, engine.stats()))
        .collect();
    let stats = shared.stats.lock();
    Response::Stats {
        request_id,
        unknown_model_requests: shared.unknown_models.load(Ordering::Relaxed),
        stats: engine_stats
            .into_iter()
            .map(|(model, q)| {
                let acc = stats.get(model);
                ModelStats {
                    model: model.clone(),
                    requests: acc.map_or(0, |a| a.requests),
                    errors: acc.map_or(0, |a| a.errors),
                    total_latency_us: acc.map_or(0, |a| a.total_latency_us),
                    max_latency_us: acc.map_or(0, |a| a.max_latency_us),
                    queue_depth: q.queue_depth as u64,
                    in_flight: q.in_flight as u64,
                    shed: q.shed,
                    p50_queue_wait_us: q.p50_queue_wait_us,
                    p99_queue_wait_us: q.p99_queue_wait_us,
                    p50_batch_wait_us: q.p50_batch_wait_us,
                    p99_batch_wait_us: q.p99_batch_wait_us,
                    p50_service_us: q.p50_service_us,
                    p99_service_us: q.p99_service_us,
                    p50_wire_us: acc.map_or(0, |a| a.wire.quantile(0.50)),
                    p99_wire_us: acc.map_or(0, |a| a.wire.quantile(0.99)),
                    p50_lease_wait_us: q.p50_lease_wait_us,
                    p99_lease_wait_us: q.p99_lease_wait_us,
                    cache_hits: q.cache_hits,
                    cache_misses: q.cache_misses,
                    cache_evictions: q.cache_evictions,
                    tokens_out: q.tokens_out,
                    p50_token_gap_us: q.p50_token_gap_us,
                    p99_token_gap_us: q.p99_token_gap_us,
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DjinnClient, DjinnError};
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
    fn tonic_batching_config_carries_table3_sizes() {
        let cfg = ServerConfig::tonic_batching();
        assert_eq!(cfg.batch_overrides["pos"], 64);
        assert_eq!(cfg.batch_overrides["face"], 2);
        assert_eq!(cfg.batch_overrides["imc"], 16);
        assert!(cfg.batching.is_some());
    }

    #[test]
    fn shutdown_joins_workers_even_with_idle_connections_open() {
        let server = DjinnServer::start(small_registry(), ServerConfig::default()).unwrap();
        let workers = Arc::clone(&server.workers);
        // Open connections that never send a frame; their workers sit in
        // the read-poll loop.
        let mut client = DjinnClient::connect(server.local_addr()).unwrap();
        let _idle = TcpStream::connect(server.local_addr()).unwrap();
        // Make sure at least one worker actually did work.
        assert!(client.list_models().is_ok());
        let t0 = std::time::Instant::now();
        server.shutdown();
        // Every worker has been joined: none left tracked, and shutdown
        // returned within a few read-poll periods rather than hanging.
        assert!(workers.lock().is_empty());
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn wake_addr_maps_unspecified_addresses_to_loopback() {
        // `connect(0.0.0.0:p)` is a platform-dependent accident — the
        // shutdown wake must dial loopback explicitly, same family, same
        // port. Concrete addresses pass through untouched.
        let v4: SocketAddr = "0.0.0.0:7741".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:7741".parse().unwrap());
        let v6: SocketAddr = "[::]:7741".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:7741".parse().unwrap());
        let concrete: SocketAddr = "127.0.0.1:7741".parse().unwrap();
        assert_eq!(wake_addr(concrete), concrete);
    }

    #[test]
    fn shutdown_is_prompt_on_a_wildcard_bind() {
        // Regression: stop_accepting used to dial `local_addr()`
        // verbatim, which for a wildcard bind is the unspecified address
        // — where that connect fails, shutdown hangs until an unrelated
        // client happens to arrive.
        let config = ServerConfig {
            bind_addr: "0.0.0.0:0".into(),
            ..ServerConfig::default()
        };
        let server = DjinnServer::start(small_registry(), config).unwrap();
        assert!(server.local_addr().ip().is_unspecified());
        // The listener serves real traffic via loopback.
        let reach = wake_addr(server.local_addr());
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
        // Regression: the reply pump used to read the clock twice per
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
        // Models response unencodable; ConnWriter must degrade to an
        // Error frame carrying the same request ID — the client sees a
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

    /// An executor that sleeps before answering, to saturate a tiny queue.
    struct SlowExecutor(Duration);

    impl Executor for SlowExecutor {
        fn infer(
            &self,
            network: &Arc<dnn::Network>,
            input: &tensor::Tensor,
        ) -> Result<crate::InferenceOutcome> {
            std::thread::sleep(self.0);
            CpuExecutor::default().infer(network, input)
        }

        fn backend_name(&self) -> &'static str {
            "slow"
        }
    }

    #[test]
    fn overloaded_engine_answers_busy_not_error() {
        // Build the shared state by hand so the engine can be saturated
        // deterministically: capacity 1, one worker stuck in a slow job.
        let registry = small_registry();
        let net = registry.get("tiny").unwrap();
        let engine = InferenceEngine::start(
            "tiny",
            net,
            Arc::new(SlowExecutor(Duration::from_millis(100))),
            EngineConfig {
                policy: DispatchPolicy::Immediate,
                queue_capacity: 1,
                workers: 1,
                ..EngineConfig::default()
            },
        );
        let mut engines = BTreeMap::new();
        engines.insert("tiny".to_string(), engine);
        let shared = Shared {
            registry,
            engines,
            stats: Mutex::new(BTreeMap::new()),
            unknown_models: AtomicU64::new(0),
            stop: Arc::new(AtomicBool::new(false)),
        };
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 6);
        // Admit without waiting until the queue is provably full.
        let engine = shared.engines.get("tiny").unwrap();
        let mut tickets = Vec::new();
        loop {
            match engine.submit(input.clone()) {
                Ok(t) => tickets.push(t),
                Err(DjinnError::Busy { .. }) => break,
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        }
        // The request path sheds with a Busy frame echoing the request's
        // ID, not a stringly error.
        let pending = Mutex::new(HashMap::new());
        let (pump_tx, _pump_rx) = bounded(8);
        let rsp = admit_infer(
            &shared,
            &pending,
            &pump_tx,
            0,
            "tiny".into(),
            input.clone(),
            99,
            Instant::now(),
            None,
        )
        .expect("a shed request is answered synchronously");
        assert!(
            matches!(rsp, Response::Busy { request_id: 99, ref model, queue_depth }
                if model == "tiny" && queue_depth == 1),
            "expected Busy echoing id 99, got {rsp:?}"
        );
        assert!(
            pending.lock().is_empty(),
            "a rejected admission must not leave a pending token"
        );
        // Sheds are visible in stats as `shed`, never as `errors`.
        let Response::Stats { stats, .. } = stats_response(&shared, 7) else {
            panic!("expected stats");
        };
        let tiny = stats.iter().find(|s| s.model == "tiny").unwrap();
        assert!(tiny.shed >= 2);
        assert_eq!(tiny.errors, 0);
        // Admitted jobs still complete.
        for t in tickets {
            t.wait().unwrap();
        }
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
        let results = client.pipeline("tiny", &inputs, 4).unwrap();
        let reg = small_registry();
        let net = reg.get("tiny").unwrap();
        for (input, result) in inputs.iter().zip(results) {
            let (got, _trace) = result.unwrap();
            let want = net.forward(input).unwrap();
            assert!(
                got.max_abs_diff(&want).unwrap() < 1e-5,
                "pipelined response attributed to the wrong request"
            );
        }
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
