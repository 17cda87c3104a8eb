//! The per-model inference engine: the *only* path from a request to
//! compute.
//!
//! Every registered model gets one [`InferenceEngine`] owning a bounded
//! admission queue, one dispatch thread, and the shared executor. The
//! thread runs the §5.1 coalescing loop — stack the queued queries, one
//! forward pass, scatter the output rows — and both serving modes of the
//! paper are settings of it: [`DispatchPolicy::Immediate`] dispatches
//! whatever is queued the moment the thread is free, and
//! [`DispatchPolicy::Batched`] may also wait out a window for company
//! (a zero `max_delay` never waits). Since a row's bits do not depend on
//! what it is batched with, the two compute the same outputs;
//! parallelism inside one forward pass comes from the executor's thread
//! budget, not from more dispatch threads.
//!
//! [`InferenceEngine::start`] is the one constructor. Everything an
//! engine shares with others rides in its [`EngineConfig`]: the
//! [`DeviceScheduler`] it leases compute from (a dedicated one when
//! unset), the [`ColocationPolicy`] that sizes a batched window on that
//! device, and the [`InferenceCache`] probed at admission.
//!
//! Admission is **non-blocking with explicit backpressure**: when the
//! queue holds `queue_capacity` jobs, [`InferenceEngine::submit`] returns
//! [`DjinnError::Busy`] immediately instead of blocking the caller. The
//! server's connection loop therefore never waits on the engine at all:
//! it admits, and each admitted job's reply — guaranteed to arrive,
//! because the dispatch thread answers every job it pops and shutdown
//! drains the queue before joining — comes back through a [`ReplyTo`]
//! that wakes the loop.
//!
//! A **stream** is a job in the same queue. It is admitted once, through
//! the same capacity check, and the queue entry is always its *next
//! step*. The steps the dispatch thread takes together, with any one-shot
//! jobs queued among them, are one decode tick (continuous batching): one
//! forward pass over the stacked rows, each stream's chunk emitted, the
//! unfinished streams put back. A batch that carries a step never waits
//! out a window. With one dispatch thread, one tick is in flight at a
//! time, so streams that become ready meanwhile join the next tick
//! instead of forming a second, smaller one.
//!
//! Telemetry: queue depth, in-flight jobs, shed count, and log-bucketed
//! queue-wait / service-time histograms (from [`gpusim::queueing`], the
//! same abstraction the open-loop simulator runs in virtual time),
//! reported by [`InferenceEngine::stats`] as the engine's part of the
//! wire's [`ModelStats`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use dnn::cache::InferenceCache;
use dnn::Network;
use gpusim::queueing::{BoundedQueue, LatencyHistogram};
use tensor::{Shape, Tensor};

use crate::device::{ColocationPolicy, DeviceScheduler};
use crate::io::Wake;
use crate::protocol::{ModelStats, StreamMode};
use crate::trace::EngineSpans;
use crate::{DjinnError, Executor, Result};

/// Batching policy (§5.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum queries folded into one forward pass (Table 3's last
    /// column gives the per-app sweet spots).
    pub max_batch: usize,
    /// Longest a query may wait for co-batched company before the batch
    /// is dispatched anyway.
    pub max_delay: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 16,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// How admitted jobs reach the executor. Under either policy the engine's
/// one dispatch thread takes queued jobs in arrival order, up to
/// `max_batch` stacked queries (a wider job still runs, alone), and runs
/// them as one forward pass; the policies differ in how long it waits for
/// company.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Never wait: whatever is queued when the thread is free, up to
    /// [`BatchConfig::default`]'s `max_batch`, goes at once — `Batched`
    /// with a zero `max_delay`. A lone request runs alone; a backlog is
    /// batched rather than run side by side.
    Immediate,
    /// Jobs are coalesced into one forward pass up to `max_batch` stacked
    /// queries or `max_delay` of waiting, whichever comes first.
    Batched(BatchConfig),
}

/// Configuration of one model's engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// Admission bound: jobs beyond this many queued are shed with
    /// [`DjinnError::Busy`]. Bounds both memory and worst-case queueing
    /// delay under overload.
    pub queue_capacity: usize,
    /// How long a batched engine keeps coalescing a partial batch.
    /// [`ColocationPolicy::AlwaysBatch`] (the default) waits out
    /// [`BatchConfig::max_delay`]; a zero window never asks.
    pub colocation: ColocationPolicy,
    /// The device this engine leases compute from. Pass the same
    /// scheduler to every engine placed on a shared device: each
    /// dispatch then acquires a bounded [`crate::ComputeLease`] and runs
    /// under the granted thread budget. `None` is a dedicated scheduler:
    /// acquisition never blocks and grants never shrink.
    pub device: Option<Arc<DeviceScheduler>>,
    /// Content-keyed inference cache. The exact layer is probed at
    /// admission (a hit never touches the queue, the lease or the
    /// executor); the embedding layer is consulted row by row inside the
    /// forward pass. `None` is the uncached engine.
    pub cache: Option<Arc<InferenceCache>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            policy: DispatchPolicy::Immediate,
            queue_capacity: 128,
            colocation: ColocationPolicy::AlwaysBatch,
            device: None,
            cache: None,
        }
    }
}

/// Most tokens one generative stream may ask for; a larger
/// [`StreamMode::Generative`] request is refused at admission. A constant
/// rather than an option: it bounds what one request can make the engine
/// compute, and no deployment here needs a different bound.
pub const MAX_STREAM_TOKENS: u32 = 1024;

/// How long the dispatch thread holds a tick whose every stream is waiting
/// on a full receiver before it looks again (a new arrival ends the wait
/// early).
const STALL_BACKOFF: Duration = Duration::from_millis(1);

/// A completed routed job, delivered to whatever channel the submitter
/// registered with [`InferenceEngine::submit_routed`] — in the server, a
/// connection's completion channel, which may receive completions from
/// many models in any order.
#[derive(Debug)]
pub struct RoutedReply {
    /// The submitter's opaque token, echoed verbatim so the receiver can
    /// look up what the completion belongs to.
    pub token: u64,
    /// Position of this reply within its job's stream, starting at 0.
    /// Always 0 for one-shot ([`InferenceEngine::submit_routed`]) jobs.
    pub seq: u32,
    /// `true` on a job's final reply. One-shot jobs complete in exactly
    /// one reply, so theirs is always final; a streaming job emits
    /// `last: false` for every chunk but its terminal one. An `Err`
    /// reply is always terminal.
    pub last: bool,
    /// The job's outcome: output and engine spans, or its typed error.
    pub result: Result<(Tensor, EngineSpans)>,
}

/// Where a routed job's replies go: a channel, and — for the server's
/// connection loop — the wake that gets the loop out of `poll(2)` after
/// every reply sent. Any [`Sender`] converts into one.
#[derive(Debug, Clone)]
pub struct ReplyTo {
    tx: Sender<RoutedReply>,
    wake: Option<Arc<Wake>>,
}

impl From<Sender<RoutedReply>> for ReplyTo {
    fn from(tx: Sender<RoutedReply>) -> Self {
        ReplyTo { tx, wake: None }
    }
}

impl ReplyTo {
    /// A channel whose every reply is followed by `wake`.
    pub(crate) fn waking(tx: Sender<RoutedReply>, wake: Arc<Wake>) -> Self {
        ReplyTo {
            tx,
            wake: Some(wake),
        }
    }

    /// Sends a one-shot job's reply, waiting for room in a full bounded
    /// channel; a gone receiver is the receiver's problem, never the
    /// engine's.
    fn send(&self, reply: RoutedReply) {
        if self.tx.send(reply).is_ok() {
            self.woken();
        }
    }

    /// Sends without waiting: a stream's chunk. Like the channel's own
    /// `try_send`, a refusal hands the reply back, so the error is large.
    #[allow(clippy::result_large_err)]
    fn try_send(&self, reply: RoutedReply) -> std::result::Result<(), TrySendError<RoutedReply>> {
        self.tx.try_send(reply)?;
        self.woken();
        Ok(())
    }

    fn woken(&self) {
        if let Some(wake) = &self.wake {
            wake.wake();
        }
    }
}

/// Where a job's completion goes: once, to the destination the submitter
/// gave ([`Ticket`]s wait on a private channel), or — for a stream, whose
/// queue entry is its next step — into the stream's state.
enum ReplySlot {
    Once { token: u64, tx: ReplyTo },
    Stream(Box<Stream>),
}

/// Sends a one-shot job's only reply.
fn deliver(token: u64, tx: &ReplyTo, result: Result<(Tensor, EngineSpans)>) {
    tx.send(RoutedReply {
        token,
        seq: 0,
        last: true,
        result,
    });
}

/// What a stream still owes after the step now queued.
enum Rest {
    /// The windows not yet run, in order.
    Windows(std::vec::IntoIter<Tensor>),
    /// Tokens still to generate, the queued step's included.
    Tokens(u32),
}

/// One streaming job between steps: where its chunks go, the telemetry
/// marks they carry, and what is left to run.
struct Stream {
    token: u64,
    tx: ReplyTo,
    admitted: Instant,
    last_emit: Option<Instant>,
    first_token_us: u64,
    seq: u32,
    rest: Rest,
    /// A reply the receiver had no room for. The engine never blocks on
    /// a stream's channel: the stream sits out ticks until this goes
    /// through, so its compute runs at most one chunk ahead of delivery.
    held: Option<RoutedReply>,
}

impl Stream {
    /// Sends `reply` if the receiver has room and keeps it for the next
    /// tick if not; `false` once the receiver is gone.
    fn offer(&mut self, reply: RoutedReply) -> bool {
        match self.tx.try_send(reply) {
            Ok(()) => true,
            Err(TrySendError::Full(reply)) => {
                self.held = Some(reply);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }

    /// Books the outcome of the step that just ran: emits its chunk (or
    /// the error that ends the stream) and returns the job for the next
    /// step. `None` means the stream is over — finished, failed, or its
    /// receiver gone — and dropping it closes its side of the channel.
    fn advance(
        mut self: Box<Self>,
        inner: &Inner,
        step: Result<(Tensor, EngineSpans)>,
        input_shape: &Shape,
    ) -> Option<Job> {
        let now = Instant::now();
        let mut next = None;
        let result = step.and_then(|(out, spans)| {
            next = match &mut self.rest {
                Rest::Windows(parts) => parts.next(),
                Rest::Tokens(_) if out.shape().dims()[1..] != input_shape.dims()[1..] => {
                    return Err(DjinnError::Protocol {
                        reason: format!(
                            "generative stream needs output shape == input shape to feed \
                             back, got {:?} from {:?}",
                            out.shape(),
                            input_shape.with_batch(1)
                        ),
                    });
                }
                Rest::Tokens(left) => {
                    *left -= 1;
                    (*left > 0).then(|| one_hot_like(&out))
                }
            };
            let gap = now
                .duration_since(self.last_emit.unwrap_or(self.admitted))
                .as_micros() as u64;
            if self.last_emit.is_none() {
                self.first_token_us = gap;
            }
            self.last_emit = Some(now);
            let mut telemetry = inner.telemetry();
            telemetry.token_gap.record(gap);
            telemetry.tokens_out += 1;
            drop(telemetry);
            let spans = EngineSpans {
                first_token_us: self.first_token_us,
                tokens: u64::from(self.seq) + 1,
                ..spans
            };
            Ok((out, spans))
        });
        let reply = RoutedReply {
            token: self.token,
            seq: self.seq,
            last: next.is_none(),
            result,
        };
        self.seq += 1;
        if !self.offer(reply) {
            return None;
        }
        let input = match next {
            Some(input) => input,
            // Over but for an undelivered final reply: the entry goes
            // back only to be offered again, and its input is never run.
            None if self.held.is_some() => Tensor::zeros(Shape::vec(1)),
            None => return None,
        };
        Some(Job {
            input,
            reply: ReplySlot::Stream(self),
            enqueued: now,
            dequeued: None,
        })
    }
}

struct Job {
    input: Tensor,
    reply: ReplySlot,
    /// Admission for a one-shot job; for a stream, when this step was
    /// queued.
    enqueued: Instant,
    /// The queue-exit span mark, stamped by the dispatch loop when it
    /// takes the job off the queue (`None` while queued).
    dequeued: Option<Instant>,
}

impl Job {
    fn queries(&self) -> usize {
        self.input.shape().batch()
    }

    fn is_step(&self) -> bool {
        matches!(self.reply, ReplySlot::Stream(_))
    }
}

struct State {
    queue: BoundedQueue<Job>,
    /// `false` once shutdown starts: no new admissions; the dispatch
    /// thread drains what is queued and exits.
    open: bool,
    /// Stream steps out of the queue with the batch now in flight. They
    /// come back, so they keep counting against the queue's capacity.
    stepping: usize,
}

/// What the engine measures, behind one lock so that
/// [`InferenceEngine::stats`] reads one consistent snapshot.
#[derive(Default)]
struct Telemetry {
    queue_wait: LatencyHistogram,
    batch_wait: LatencyHistogram,
    lease_wait: LatencyHistogram,
    service: LatencyHistogram,
    /// Chunks emitted by streaming jobs.
    tokens_out: u64,
    /// Gap between consecutive chunk emissions of a stream; the first
    /// sample of each stream is admission → first chunk (TTFT).
    token_gap: LatencyHistogram,
}

struct Inner {
    model: String,
    state: Mutex<State>,
    cv: Condvar,
    in_flight: AtomicUsize,
    telemetry: Mutex<Telemetry>,
    /// The device this engine leases compute from: `config.device`, or
    /// a dedicated (unbounded) one.
    scheduler: Arc<DeviceScheduler>,
    colocation: ColocationPolicy,
    /// Content-keyed inference cache, when enabled. The exact layer is
    /// probed at admission (a hit never queues); the embed layer rides
    /// into the executor with every dispatch.
    cache: Option<Arc<InferenceCache>>,
}

impl Inner {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Locks the telemetry. Recording leaves every histogram valid at
    /// every step, so a lock poisoned by a panicking recorder is
    /// recovered.
    fn telemetry(&self) -> std::sync::MutexGuard<'_, Telemetry> {
        self.telemetry.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A pending inference: the caller's handle to one admitted job.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<RoutedReply>,
}

impl Ticket {
    /// Blocks until the job completes and returns its result. The reply
    /// is guaranteed: every admitted job is answered, including during
    /// shutdown drain.
    ///
    /// # Errors
    ///
    /// Returns the job's inference error, or [`DjinnError::Shutdown`] if
    /// the engine died without answering (dispatch thread panic).
    pub fn wait(self) -> Result<Tensor> {
        self.wait_traced().map(|(output, _)| output)
    }

    /// Like [`Ticket::wait`], but also returns the engine's span
    /// measurements (queue wait, batch wait, service) for the job.
    ///
    /// # Errors
    ///
    /// Same as [`Ticket::wait`].
    pub fn wait_traced(self) -> Result<(Tensor, EngineSpans)> {
        self.rx.recv().map_err(|_| DjinnError::Shutdown)?.result
    }
}

/// A per-model execution engine: bounded admission queue + one dispatch
/// thread + executor.
pub struct InferenceEngine {
    inner: Arc<Inner>,
    /// `None` once stopped.
    dispatcher: Option<JoinHandle<()>>,
    /// What a stream's input is checked against at admission.
    input_shape: Shape,
}

impl std::fmt::Debug for InferenceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceEngine")
            .field("model", &self.inner.model)
            .finish()
    }
}

impl InferenceEngine {
    /// Spawns the engine for one model: its admission queue and its
    /// dispatch thread, leasing compute from `config.device` and
    /// answering from `config.cache` where they are set.
    pub fn start(
        model: impl Into<String>,
        network: Arc<Network>,
        executor: Arc<dyn Executor>,
        config: EngineConfig,
    ) -> Self {
        let model = model.into();
        let scheduler = config
            .device
            .unwrap_or_else(|| Arc::new(DeviceScheduler::dedicated()));
        scheduler.register_sharer();
        let inner = Arc::new(Inner {
            model: model.clone(),
            state: Mutex::new(State {
                queue: BoundedQueue::new(config.queue_capacity.max(1)),
                open: true,
                stepping: 0,
            }),
            cv: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            telemetry: Mutex::default(),
            scheduler,
            colocation: config.colocation,
            cache: config.cache,
        });
        let input_shape = network.def().input_shape().clone();
        let batch = match config.policy {
            DispatchPolicy::Immediate => BatchConfig {
                max_delay: Duration::ZERO,
                ..BatchConfig::default()
            },
            DispatchPolicy::Batched(bc) => bc,
        };
        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("djinn-engine-{model}"))
                .spawn(move || {
                    crate::io::yield_to_io_loop();
                    dispatch_loop(&inner, &network, &*executor, batch)
                })
                .expect("spawning engine dispatch thread")
        };
        InferenceEngine {
            inner,
            dispatcher: Some(dispatcher),
            input_shape,
        }
    }

    /// [`InferenceEngine::start`] on `device`. Kept for the benchmark
    /// ledger, which calls it until the ledger measures from outside
    /// (ROADMAP item 1(d)).
    pub fn start_shared(
        model: impl Into<String>,
        network: Arc<Network>,
        executor: Arc<dyn Executor>,
        config: EngineConfig,
        device: Arc<DeviceScheduler>,
    ) -> Self {
        let device = Some(device);
        Self::start(model, network, executor, EngineConfig { device, ..config })
    }

    /// The model this engine serves.
    pub fn model(&self) -> &str {
        &self.inner.model
    }

    /// Admits one job without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`DjinnError::Busy`] when the admission queue is full
    /// (the request is shed — the caller should back off and retry) and
    /// [`DjinnError::Shutdown`] after shutdown has begun.
    pub fn submit(&self, input: Tensor) -> Result<Ticket> {
        let (tx, rx) = bounded(1);
        self.submit_routed(input, 0, tx)?;
        Ok(Ticket { rx })
    }

    /// Admits one job without blocking, routing its completion to `tx`
    /// (a [`Sender`] or a [`ReplyTo`]) instead of a per-job [`Ticket`]. The engine echoes `token` on the
    /// [`RoutedReply`] so the receiver can correlate completions — this
    /// is how the server's connection loop answers pipelined requests out
    /// of order without a thread blocked per request.
    ///
    /// The reply guarantee is identical to [`InferenceEngine::submit`]:
    /// every admitted job produces exactly one [`RoutedReply`], including
    /// during shutdown drain.
    ///
    /// # Errors
    ///
    /// Same admission failures as [`InferenceEngine::submit`]: a full
    /// queue returns [`DjinnError::Busy`], a closed engine
    /// [`DjinnError::Shutdown`] — in both cases nothing was admitted and
    /// no reply will arrive for `token`.
    pub fn submit_routed(&self, input: Tensor, token: u64, tx: impl Into<ReplyTo>) -> Result<()> {
        let tx = tx.into();
        // Probe the exact-match cache before admission: a hit skips the
        // queue, the device lease, and the forward pass entirely, and is
        // stamped with the `cache` disposition (all spans ~0). A miss
        // falls through to the normal bounded-queue path and is inserted
        // by the dispatch thread once computed.
        if let Some(exact) = self.inner.cache.as_deref().and_then(InferenceCache::exact) {
            if let Some(output) = exact.get(&input) {
                let spans = EngineSpans {
                    cache_hit: true,
                    ..EngineSpans::default()
                };
                deliver(token, &tx, Ok((output, spans)));
                return Ok(());
            }
        }
        self.admit(Job {
            input,
            reply: ReplySlot::Once { token, tx },
            enqueued: Instant::now(),
            dequeued: None,
        })
    }

    /// Admits one *streaming* job: instead of a single completion, the
    /// engine sends N ordered [`RoutedReply`] chunks (seq 0, 1, …; the
    /// terminal one flagged `last`) to `tx`, all echoing `token`, and
    /// drops its sender after the last.
    ///
    /// A stream is a job in the admission queue like any other: it passes
    /// the capacity check once, on arrival, and is never shed afterwards.
    /// Its queue entry is its next step; each decode tick stacks the next
    /// rows of every stream that is ready into one forward pass under one
    /// device lease (see the module docs). [`StreamMode::Windowed`] feeds
    /// the input's rows through the model `window_rows` at a time and
    /// emits every window's scores as one chunk; [`StreamMode::Generative`]
    /// runs an autoregressive decode — the output distribution's argmax is
    /// fed back as a one-hot next input — emitting one chunk per generated
    /// token. Streams bypass the inference cache in both directions
    /// (partial outputs are not cacheable one-shot answers).
    ///
    /// The engine never blocks on `tx`: a stream whose receiver is full
    /// sits out ticks until its chunk fits, and one whose receiver is
    /// gone is retired at its next send. If the engine shuts down
    /// mid-stream the terminal reply is `Err(DjinnError::Shutdown)`; a
    /// failed forward pass likewise ends the stream with its typed error.
    /// An `Err` reply is always the stream's last.
    ///
    /// # Errors
    ///
    /// [`DjinnError::Busy`] when the admission queue is full,
    /// [`DjinnError::Shutdown`] after shutdown has begun,
    /// [`DjinnError::Protocol`] for an invalid mode (zero window/token
    /// budget, more than [`MAX_STREAM_TOKENS`] tokens, or a generative
    /// request whose input is not a single row) and [`DjinnError::Dnn`]
    /// for an input the model cannot take — in every case nothing was
    /// admitted and no reply will arrive for `token`.
    pub fn submit_stream_routed(
        &self,
        input: Tensor,
        token: u64,
        mode: StreamMode,
        tx: impl Into<ReplyTo>,
    ) -> Result<()> {
        // Checked here and not left to the forward pass: a tick stacks
        // many streams' rows, and one misshapen input would fail them all.
        let (want, got) = (self.input_shape.dims(), input.shape().dims());
        if got.len() != want.len() || got[1..] != want[1..] {
            return Err(DjinnError::Dnn(dnn::DnnError::BadInput {
                expected: want.to_vec(),
                actual: got.to_vec(),
            }));
        }
        let rows = input.shape().batch();
        let refuse = |reason: String| Err(DjinnError::Protocol { reason });
        let (input, rest) = match mode {
            StreamMode::Windowed { window_rows: 0 } => {
                return refuse("streaming window must be at least one row".into());
            }
            StreamMode::Generative { max_tokens: 0 } => {
                return refuse("generative stream must request at least one token".into());
            }
            StreamMode::Generative { max_tokens } if max_tokens > MAX_STREAM_TOKENS => {
                return refuse(format!(
                    "generative stream asks for {max_tokens} tokens, the limit is \
                     {MAX_STREAM_TOKENS}"
                ));
            }
            StreamMode::Generative { .. } if rows != 1 => {
                return refuse(format!(
                    "generative stream takes a single seed row, got batch {rows}"
                ));
            }
            StreamMode::Generative { max_tokens } => (input, Rest::Tokens(max_tokens)),
            StreamMode::Windowed { window_rows } => {
                // Windows of `window_rows` rows (the tail may be short);
                // each is one step and one chunk.
                let w = window_rows as usize;
                let counts: Vec<usize> = (0..rows).step_by(w).map(|at| w.min(rows - at)).collect();
                let mut windows = input.split_batch(&counts)?.into_iter();
                let first = windows.next().expect("an input has at least one row");
                (first, Rest::Windows(windows))
            }
        };
        let admitted = Instant::now();
        self.admit(Job {
            input,
            reply: ReplySlot::Stream(Box::new(Stream {
                token,
                tx: tx.into(),
                admitted,
                last_emit: None,
                first_token_us: 0,
                seq: 0,
                rest,
                held: None,
            })),
            enqueued: admitted,
            dequeued: None,
        })
    }

    /// The one admission check, for one-shot jobs and streams alike.
    fn admit(&self, job: Job) -> Result<()> {
        let mut st = self.inner.lock();
        if !st.open {
            return Err(DjinnError::Shutdown);
        }
        let lent = st.stepping;
        match st.queue.offer_beside(job, lent) {
            Ok(_depth) => {
                drop(st);
                self.inner.cv.notify_one();
                Ok(())
            }
            Err(_job) => Err(DjinnError::Busy {
                model: self.inner.model.clone(),
                queue_depth: st.queue.len() + lent,
            }),
        }
    }

    /// Admits one job and waits for its result: non-blocking admission,
    /// then a blocking wait on the guaranteed reply.
    ///
    /// # Errors
    ///
    /// Same admission failures as [`InferenceEngine::submit`], plus the
    /// job's own inference error.
    pub fn infer(&self, input: Tensor) -> Result<Tensor> {
        self.submit(input)?.wait()
    }

    /// Like [`InferenceEngine::infer`], but also returns the engine's
    /// span measurements for the job.
    ///
    /// # Errors
    ///
    /// Same as [`InferenceEngine::infer`].
    pub fn infer_traced(&self, input: Tensor) -> Result<(Tensor, EngineSpans)> {
        self.submit(input)?.wait_traced()
    }

    /// Current telemetry as a [`ModelStats`] with the engine's fields
    /// filled. The six fields the server owns are left at 0: `requests`,
    /// `errors`, `total_latency_us`, `max_latency_us`, `p50_wire_us` and
    /// `p99_wire_us`.
    pub fn stats(&self) -> ModelStats {
        let (queue_depth, shed) = {
            let st = self.inner.lock();
            (st.queue.len() as u64, st.queue.shed_count())
        };
        let cache = self
            .inner
            .cache
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default();
        let t = self.inner.telemetry();
        ModelStats {
            model: self.inner.model.clone(),
            queue_depth,
            in_flight: self.inner.in_flight.load(Ordering::Relaxed) as u64,
            shed,
            p50_queue_wait_us: t.queue_wait.quantile(0.50),
            p99_queue_wait_us: t.queue_wait.quantile(0.99),
            p50_batch_wait_us: t.batch_wait.quantile(0.50),
            p99_batch_wait_us: t.batch_wait.quantile(0.99),
            p50_service_us: t.service.quantile(0.50),
            p99_service_us: t.service.quantile(0.99),
            p50_lease_wait_us: t.lease_wait.quantile(0.50),
            p99_lease_wait_us: t.lease_wait.quantile(0.99),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            tokens_out: t.tokens_out,
            p50_token_gap_us: t.token_gap.quantile(0.50),
            p99_token_gap_us: t.token_gap.quantile(0.99),
            ..ModelStats::default()
        }
    }

    /// Stops admissions, drains every queued job (each gets a real
    /// reply; a live stream its terminal one), and joins the dispatch
    /// thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        {
            let mut st = self.inner.lock();
            st.open = false;
        }
        self.inner.cv.notify_all();
        // A live stream ends with a terminal `Shutdown` reply at the end
        // of the tick it is in, so the join is bounded by one tick.
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        self.inner.scheduler.unregister_sharer();
    }
}

impl Drop for InferenceEngine {
    fn drop(&mut self) {
        // Dropping drains and joins so no admitted job is left without a
        // reply and no dispatch thread outlives the engine.
        if self.dispatcher.is_some() {
            self.stop();
        }
    }
}

/// Assembles one job's span measurements from its timeline marks. The
/// lease wait is carved out of the dequeue→exec interval so the batch
/// span keeps meaning "time spent coalescing", not "time blocked on the
/// device".
fn spans_for(
    enqueued: Instant,
    dequeued: Instant,
    lease_wait: Duration,
    exec_start: Instant,
    service: Duration,
) -> EngineSpans {
    let dequeue_to_exec = exec_start.duration_since(dequeued);
    EngineSpans {
        queue_us: dequeued.duration_since(enqueued).as_micros() as u64,
        batch_us: dequeue_to_exec.saturating_sub(lease_wait).as_micros() as u64,
        lease_us: lease_wait.min(dequeue_to_exec).as_micros() as u64,
        service_us: service.as_micros() as u64,
        cache_hit: false,
        first_token_us: 0,
        tokens: 0,
    }
}

/// Feeds the decoded distribution back as the next input: argmax over
/// the row, re-encoded one-hot. This is greedy decoding — deterministic,
/// which the correctness tests rely on.
fn one_hot_like(row: &Tensor) -> Tensor {
    let data = row.data();
    let mut best = 0usize;
    for (i, &v) in data.iter().enumerate() {
        if v > data[best] {
            best = i;
        }
    }
    let mut next = vec![0.0f32; data.len()];
    next[best] = 1.0;
    Tensor::from_vec(row.shape().clone(), next).expect("one-hot row matches the source shape")
}

/// The dispatch thread: until the engine is closed and drained, takes
/// what is queued, coalesces more for as long as the policy's budget
/// allows, and dispatches it as one batch.
fn dispatch_loop(
    inner: &Inner,
    network: &Arc<Network>,
    executor: &dyn Executor,
    config: BatchConfig,
) {
    loop {
        // Phase 1: block until at least one job is available, grabbing
        // everything already queued that fits under the cap (the head is
        // always taken; an overflowing job stays queued — carry-over).
        let mut jobs;
        let draining;
        {
            let mut st = inner.lock();
            loop {
                jobs = st.queue.assemble(config.max_batch, Job::queries);
                if !jobs.is_empty() {
                    draining = !st.open;
                    st.stepping += jobs.iter().filter(|j| j.is_step()).count();
                    break;
                }
                if !st.open {
                    return;
                }
                st = inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        let assembled = Instant::now();
        for job in &mut jobs {
            job.dequeued = Some(assembled);
        }
        // Phase 2: coalesce up to the cap until the policy's budget
        // expires. `AlwaysBatch` spends the full `max_delay` (the
        // classic §5.1 loop); `Dynamic` weighs SLA headroom, batch
        // fill, and device availability. A zero window has no budget to
        // weigh: it dispatches the partial batch at once. A draining
        // engine skips the wait — queued jobs are answered as fast as
        // possible — and so does a batch that carries a stream step: a
        // token waits for the tick before it, never for a window.
        let budget = if draining || config.max_delay.is_zero() || jobs.iter().any(Job::is_step) {
            Duration::ZERO
        } else {
            let queries: usize = jobs.iter().map(Job::queries).sum();
            let oldest_wait = jobs
                .iter()
                .map(|j| assembled.duration_since(j.enqueued))
                .max()
                .unwrap_or(Duration::ZERO);
            let queue_empty = inner.lock().queue.is_empty();
            inner.colocation.coalesce_budget(
                config.max_delay,
                oldest_wait,
                queries,
                config.max_batch,
                queue_empty,
                inner.scheduler.free_units() > 0,
            )
        };
        if !budget.is_zero() {
            let deadline = assembled + budget;
            let mut queries: usize = jobs.iter().map(Job::queries).sum();
            while queries < config.max_batch {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let mut st = inner.lock();
                if let Some(mut job) = st
                    .queue
                    .pop_if(|j| queries + j.queries() <= config.max_batch)
                {
                    job.dequeued = Some(Instant::now());
                    queries += job.queries();
                    let step = job.is_step();
                    jobs.push(job);
                    if step {
                        // A stream arrived mid-window: close the batch.
                        st.stepping += 1;
                        break;
                    }
                    continue;
                }
                if !st.queue.is_empty() || !st.open {
                    // Head overflows the cap (it seeds the next batch) or
                    // shutdown started: close this batch now.
                    break;
                }
                let (guard, _timeout) = inner
                    .cv
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                drop(guard);
            }
        }
        dispatch(inner, network, executor, jobs);
    }
}

/// Before a tick computes anything, each stream still holding a reply
/// from an earlier tick offers it again. Returns the jobs that run now
/// and the ones that sit this tick out (receiver still full); a stream
/// whose held reply was its last, or whose receiver is gone, ends here.
fn settle(jobs: Vec<Job>) -> (Vec<Job>, Vec<Job>) {
    let holds = |j: &Job| matches!(&j.reply, ReplySlot::Stream(s) if s.held.is_some());
    if !jobs.iter().any(holds) {
        return (jobs, Vec::new());
    }
    let mut run = Vec::with_capacity(jobs.len());
    let mut stalled = Vec::new();
    for mut job in jobs {
        if let ReplySlot::Stream(stream) = &mut job.reply {
            if let Some(reply) = stream.held.take() {
                let last = reply.last;
                if !stream.offer(reply) || (last && stream.held.is_none()) {
                    continue;
                }
                if stream.held.is_some() {
                    stalled.push(job);
                    continue;
                }
            }
        }
        run.push(job);
    }
    (run, stalled)
}

/// Ends a tick: the `lent` steps it took are accounted back, and the
/// streams that go on re-enter the queue — or, once the engine has
/// closed, get their terminal `Shutdown` reply instead. `idle` is a tick
/// that ran nothing because every stream in it is waiting on its
/// receiver: it keeps the steps out of the queue a little longer (or
/// until the next arrival), so the dispatch thread does not spin on them.
fn requeue(inner: &Inner, lent: usize, next: Vec<Job>, idle: bool) {
    let mut st = inner.lock();
    if idle && st.open {
        let (guard, _timeout) = inner
            .cv
            .wait_timeout(st, STALL_BACKOFF)
            .unwrap_or_else(|e| e.into_inner());
        st = guard;
    }
    st.stepping -= lent;
    if st.open {
        for job in next {
            st.queue.readmit(job);
        }
        return;
    }
    drop(st);
    for job in next {
        if let ReplySlot::Stream(stream) = job.reply {
            // A last offer: what a full receiver cannot take (this, and
            // a chunk still held for it) is dropped with the sender.
            let _ = stream.tx.try_send(RoutedReply {
                token: stream.token,
                seq: stream.seq,
                last: true,
                result: Err(DjinnError::Shutdown),
            });
        }
    }
}

/// Runs one assembled batch — co-batched one-shot jobs, a decode tick's
/// stream steps, or both: stack owned inputs (no per-job copy), one
/// forward pass under one lease, scatter rows back. Errors stay typed
/// end-to-end; every co-batched job receives a clone of the real error.
fn dispatch(inner: &Inner, network: &Arc<Network>, executor: &dyn Executor, jobs: Vec<Job>) {
    let lent = jobs.iter().filter(|j| j.is_step()).count();
    let (jobs, mut next) = if lent > 0 {
        settle(jobs)
    } else {
        (jobs, Vec::new())
    };
    if jobs.is_empty() {
        return requeue(inner, lent, next, true);
    }
    let n = jobs.len();
    inner.in_flight.fetch_add(n, Ordering::Relaxed);
    let counts: Vec<usize> = jobs.iter().map(Job::queries).collect();
    // Timeline marks per job, kept aside so spans can be attached to each
    // reply after the shared forward pass.
    let entered = Instant::now();
    let marks: Vec<(Instant, Instant)> = jobs
        .iter()
        .map(|j| (j.enqueued, j.dequeued.unwrap_or(entered)))
        .collect();
    let (inputs, replies): (Vec<Tensor>, Vec<ReplySlot>) =
        jobs.into_iter().map(|j| (j.input, j.reply)).unzip();
    // Streams bypass the cache, and so does a batch that carries one.
    let cache = inner.cache.as_deref().filter(|_| lent == 0);
    // Keep per-job input copies only when an exact cache wants them for
    // miss insertion — stacking consumes the originals. With caching off
    // this is free, and a lone job's input is the stacked tensor itself.
    let exact = cache.and_then(InferenceCache::exact);
    let kept_inputs: Option<Vec<Tensor>> = exact.filter(|_| n > 1).map(|_| inputs.clone());
    // Input stacking counts toward the batch span: the lease is taken
    // after it (a batch waiting on compute is lease wait, not
    // coalescing) and executor-start is stamped after the grant, right
    // before the forward pass.
    let mut exec_start = Instant::now();
    let mut service = Duration::ZERO;
    let mut lease_waited = Duration::ZERO;
    let mut device_us = None;
    let total_queries: usize = counts.iter().sum();
    let result = Tensor::stack_batch_owned(inputs)
        .map_err(DjinnError::from)
        .and_then(|stacked| {
            let lease = inner
                .scheduler
                .acquire(executor.preferred_threads(total_queries));
            lease_waited = lease.waited();
            exec_start = Instant::now();
            let embed = cache.and_then(InferenceCache::embed);
            let outcome =
                executor.infer_budgeted_cached(network, &stacked, lease.threading(), embed)?;
            drop(lease);
            service = exec_start.elapsed();
            device_us = Some(outcome.device_latency.as_micros() as u64);
            if n == 1 {
                // Single-job batch: hand the output over without the
                // split_batch copy.
                if let Some(exact) = exact {
                    exact.insert(&stacked, &outcome.output);
                }
                return Ok(vec![outcome.output]);
            }
            Ok(outcome.output.split_batch(&counts)?)
        });
    // The pass's service time, and per job: queue wait (admission →
    // queue-exit), coalescing wait (queue-exit → the lease request) and
    // the shared lease wait.
    let lease_mark = exec_start.checked_sub(lease_waited).unwrap_or(exec_start);
    {
        let mut t = inner.telemetry();
        if let Some(us) = device_us {
            t.service.record(us);
        }
        for &(enqueued, dequeued) in &marks {
            t.queue_wait
                .record(dequeued.duration_since(enqueued).as_micros() as u64);
            t.batch_wait
                .record(lease_mark.duration_since(dequeued).as_micros() as u64);
            t.lease_wait.record(lease_waited.as_micros() as u64);
        }
    }
    inner.in_flight.fetch_sub(n, Ordering::Relaxed);
    let mut parts = result.map(Vec::into_iter);
    for (i, (reply, (enqueued, dequeued))) in replies.into_iter().zip(marks).enumerate() {
        let result = match &mut parts {
            Ok(parts) => {
                let part = parts.next().expect("one output part per job");
                let spans = spans_for(enqueued, dequeued, lease_waited, exec_start, service);
                Ok((part, spans))
            }
            Err(e) => Err(e.clone()),
        };
        match reply {
            ReplySlot::Stream(stream) => {
                next.extend(stream.advance(inner, result, network.def().input_shape()));
            }
            ReplySlot::Once { token, tx } => {
                if let (Some(kept), Ok((part, _))) = (kept_inputs.as_ref(), &result) {
                    if let Some(exact) = exact {
                        exact.insert(&kept[i], part);
                    }
                }
                deliver(token, &tx, result);
            }
        }
    }
    if lent > 0 {
        requeue(inner, lent, next, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CpuExecutor;
    use dnn::zoo::App;
    use tensor::Shape;

    fn tiny_net() -> Arc<Network> {
        let def = dnn::parser::parse_netdef(
            "name: tiny\ninput: 8\nlayer fc1 fc out=4\nlayer prob softmax\n",
        )
        .unwrap();
        Arc::new(Network::with_random_weights(def, 1).unwrap())
    }

    fn engine(net: Arc<Network>, config: EngineConfig) -> InferenceEngine {
        InferenceEngine::start("tiny", net, Arc::new(CpuExecutor::default()), config)
    }

    fn batched(max_batch: usize, max_delay: Duration) -> EngineConfig {
        EngineConfig {
            policy: DispatchPolicy::Batched(BatchConfig {
                max_batch,
                max_delay,
            }),
            ..EngineConfig::default()
        }
    }

    /// An executor that runs the real forward pass while recording the
    /// largest batch it was ever handed.
    struct RecordingExecutor {
        inner: CpuExecutor,
        max_batch_seen: AtomicUsize,
    }

    impl RecordingExecutor {
        fn new() -> Self {
            RecordingExecutor {
                inner: CpuExecutor::default(),
                max_batch_seen: AtomicUsize::new(0),
            }
        }
    }

    impl Executor for RecordingExecutor {
        fn infer(
            &self,
            network: &Arc<Network>,
            input: &Tensor,
        ) -> crate::Result<crate::InferenceOutcome> {
            self.max_batch_seen
                .fetch_max(input.shape().batch(), Ordering::SeqCst);
            self.inner.infer(network, input)
        }

        fn backend_name(&self) -> &'static str {
            "recording"
        }
    }

    /// An executor that sleeps before delegating, to build up queues.
    struct SlowExecutor {
        inner: CpuExecutor,
        delay: Duration,
    }

    impl Executor for SlowExecutor {
        fn infer(
            &self,
            network: &Arc<Network>,
            input: &Tensor,
        ) -> crate::Result<crate::InferenceOutcome> {
            std::thread::sleep(self.delay);
            self.inner.infer(network, input)
        }

        fn backend_name(&self) -> &'static str {
            "slow"
        }
    }

    #[test]
    fn single_query_roundtrip_batched() {
        let net = Arc::new(dnn::zoo::network(App::Dig).unwrap());
        let eng = InferenceEngine::start(
            "dig",
            Arc::clone(&net),
            Arc::new(CpuExecutor::default()),
            batched(4, Duration::from_millis(1)),
        );
        let input = Tensor::random_uniform(Shape::nchw(1, 1, 28, 28), 1.0, 7);
        let got = eng.infer(input.clone()).unwrap();
        let want = net.forward(&input).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-5);
        eng.shutdown();
    }

    #[test]
    fn concurrent_queries_get_their_own_rows() {
        let net = Arc::new(dnn::zoo::network(App::Dig).unwrap());
        let eng = Arc::new(InferenceEngine::start(
            "dig",
            Arc::clone(&net),
            Arc::new(CpuExecutor::default()),
            batched(8, Duration::from_millis(20)),
        ));
        let mut handles = Vec::new();
        for seed in 0..6u64 {
            let e = Arc::clone(&eng);
            let n = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                let input = Tensor::random_uniform(Shape::nchw(1, 1, 28, 28), 1.0, seed);
                let got = e.infer(input.clone()).unwrap();
                let want = n.forward(&input).unwrap();
                assert!(got.max_abs_diff(&want).unwrap() < 1e-4, "seed {seed}");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn failed_jobs_get_typed_errors_and_the_engine_survives() {
        let net = Arc::new(dnn::zoo::network(App::Dig).unwrap());
        let eng = engine(Arc::clone(&net), batched(4, Duration::from_millis(1)));
        let wrong = Tensor::zeros(Shape::nchw(1, 1, 10, 10));
        // The error arrives as the real typed DNN failure, not a
        // pre-stringified remote message.
        assert!(matches!(eng.infer(wrong), Err(DjinnError::Dnn(_))));
        // The dispatch thread survives a failed batch.
        let ok = Tensor::zeros(Shape::nchw(1, 1, 28, 28));
        assert!(eng.infer(ok).is_ok());
    }

    #[test]
    fn no_batch_ever_exceeds_max_batch() {
        let net = tiny_net();
        let recorder = Arc::new(RecordingExecutor::new());
        let max_batch = 4;
        let eng = Arc::new(InferenceEngine::start(
            "tiny",
            net,
            Arc::clone(&recorder) as Arc<dyn Executor>,
            // A long delay forces maximal coalescing pressure: the only
            // way a batch closes early is hitting the cap.
            batched(max_batch, Duration::from_millis(50)),
        ));
        // 1–3-query jobs arriving concurrently: the carry-over logic is
        // what keeps every executed batch legal.
        let mut handles = Vec::new();
        for seed in 0..6u64 {
            let e = Arc::clone(&eng);
            handles.push(std::thread::spawn(move || {
                for i in 0..3 {
                    let queries = 1 + ((seed + i) % 3) as usize;
                    let input = Tensor::random_uniform(Shape::mat(queries, 8), 1.0, seed * 10 + i);
                    let out = e.infer(input).unwrap();
                    assert_eq!(out.shape().batch(), queries);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let seen = recorder.max_batch_seen.load(Ordering::SeqCst);
        assert!(seen > 0, "executor never ran");
        assert!(
            seen <= max_batch,
            "a batch of {seen} queries exceeded max_batch={max_batch}"
        );
    }

    #[test]
    fn job_wider_than_max_batch_still_runs_alone() {
        let eng = engine(tiny_net(), batched(2, Duration::from_millis(1)));
        let input = Tensor::random_uniform(Shape::mat(5, 8), 1.0, 3);
        let out = eng.infer(input).unwrap();
        assert_eq!(out.shape().batch(), 5);
    }

    #[test]
    fn overload_sheds_with_busy_and_never_blocks_admission() {
        // Tiny queue + slow executor: admission must shed, not block.
        let eng = Arc::new(InferenceEngine::start(
            "tiny",
            tiny_net(),
            Arc::new(SlowExecutor {
                inner: CpuExecutor::default(),
                delay: Duration::from_millis(40),
            }),
            EngineConfig {
                policy: DispatchPolicy::Immediate,
                queue_capacity: 2,
                ..EngineConfig::default()
            },
        ));
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 1);
        let mut tickets = Vec::new();
        let mut busy = 0usize;
        let admission_started = Instant::now();
        for _ in 0..10 {
            match eng.submit(input.clone()) {
                Ok(t) => tickets.push(t),
                Err(DjinnError::Busy { model, queue_depth }) => {
                    assert_eq!(model, "tiny");
                    assert_eq!(queue_depth, 2);
                    busy += 1;
                }
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        }
        // 10 offers against bound 2 + 1 dispatch thread: admission returned
        // immediately for all of them (the executor alone would need
        // 400 ms for 10 jobs).
        assert!(
            admission_started.elapsed() < Duration::from_millis(100),
            "admission blocked: {:?}",
            admission_started.elapsed()
        );
        assert!(busy >= 6, "only {busy} sheds with queue bound 2");
        assert!(eng.stats().shed >= busy as u64);
        // Every admitted job still completes.
        for t in tickets {
            t.wait().unwrap();
        }
    }

    #[test]
    fn batched_and_immediate_policies_agree_across_the_zoo() {
        // The dispatch policy must be invisible in the outputs: same
        // queries → same predictions, for every Tonic model.
        for app in App::ALL {
            let net = Arc::new(dnn::zoo::network(app).unwrap());
            let shape = net.def().input_shape().with_batch(2);
            let input = Tensor::random_uniform(shape, 0.5, 11);
            let imm = InferenceEngine::start(
                app.name(),
                Arc::clone(&net),
                Arc::new(CpuExecutor::default()),
                EngineConfig {
                    policy: DispatchPolicy::Immediate,
                    ..EngineConfig::default()
                },
            );
            let bat = InferenceEngine::start(
                app.name(),
                Arc::clone(&net),
                Arc::new(CpuExecutor::default()),
                batched(4, Duration::from_millis(1)),
            );
            let a = imm.infer(input.clone()).unwrap();
            let b = bat.infer(input).unwrap();
            assert_eq!(a, b, "{app}: policies disagree");
            imm.shutdown();
            bat.shutdown();
        }
    }

    #[test]
    fn shutdown_drains_queued_jobs_without_hanging() {
        let eng = InferenceEngine::start(
            "tiny",
            tiny_net(),
            Arc::new(SlowExecutor {
                inner: CpuExecutor::default(),
                delay: Duration::from_millis(20),
            }),
            EngineConfig {
                policy: DispatchPolicy::Immediate,
                queue_capacity: 16,
                ..EngineConfig::default()
            },
        );
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 5);
        let tickets: Vec<Ticket> = (0..5).map(|_| eng.submit(input.clone()).unwrap()).collect();
        let t0 = Instant::now();
        eng.shutdown();
        // Every queued job was executed and answered before shutdown
        // returned; nothing hangs.
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn shutdown_drains_batched_engines_too() {
        let eng = InferenceEngine::start(
            "tiny",
            tiny_net(),
            Arc::new(SlowExecutor {
                inner: CpuExecutor::default(),
                delay: Duration::from_millis(20),
            }),
            batched(4, Duration::from_secs(5)), // delay >> test budget
        );
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 5);
        let tickets: Vec<Ticket> = (0..5).map(|_| eng.submit(input.clone()).unwrap()).collect();
        let t0 = Instant::now();
        // Draining skips the coalescing delay: 5 jobs at 20 ms each must
        // finish far sooner than one 5 s max_delay window.
        eng.shutdown();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn routed_submit_answers_every_token_exactly_once() {
        let net = tiny_net();
        let eng = InferenceEngine::start(
            "tiny",
            Arc::clone(&net),
            Arc::new(CpuExecutor::default()),
            EngineConfig {
                policy: DispatchPolicy::Immediate,
                queue_capacity: 32,
                ..EngineConfig::default()
            },
        );
        let (tx, rx) = bounded(32);
        let mut want = std::collections::BTreeMap::new();
        for token in 0..8u64 {
            let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, token);
            want.insert(token, net.forward(&input).unwrap());
            eng.submit_routed(input, token, tx.clone()).unwrap();
        }
        // Routed completions carry no order guarantee; each token must
        // show up exactly once with its own output.
        let mut seen = std::collections::BTreeMap::new();
        for _ in 0..8 {
            let RoutedReply {
                token,
                seq,
                last,
                result,
            } = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("routed reply");
            assert_eq!(seq, 0, "one-shot jobs complete in a single reply");
            assert!(last, "a one-shot job's only reply is final");
            let (output, _spans) = result.unwrap();
            assert!(
                seen.insert(token, output).is_none(),
                "token {token} answered twice"
            );
        }
        for (token, output) in &seen {
            assert!(
                output.max_abs_diff(&want[token]).unwrap() < 1e-5,
                "token {token} got another request's output"
            );
        }
    }

    #[test]
    fn shutdown_drains_routed_jobs_too() {
        let eng = InferenceEngine::start(
            "tiny",
            tiny_net(),
            Arc::new(SlowExecutor {
                inner: CpuExecutor::default(),
                delay: Duration::from_millis(20),
            }),
            EngineConfig {
                policy: DispatchPolicy::Immediate,
                queue_capacity: 16,
                ..EngineConfig::default()
            },
        );
        let (tx, rx) = bounded(16);
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 5);
        for token in 0..5u64 {
            eng.submit_routed(input.clone(), token, tx.clone()).unwrap();
        }
        eng.shutdown();
        drop(tx);
        let mut answered = 0;
        while let Ok(reply) = rx.recv() {
            assert!(reply.result.is_ok());
            answered += 1;
        }
        assert_eq!(answered, 5, "shutdown drain must answer every routed job");
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let mut eng = engine(tiny_net(), EngineConfig::default());
        eng.stop();
        let input = Tensor::zeros(Shape::mat(1, 8));
        assert!(matches!(eng.submit(input), Err(DjinnError::Shutdown)));
    }

    #[test]
    fn stats_reflect_traffic() {
        let eng = engine(
            tiny_net(),
            EngineConfig {
                policy: DispatchPolicy::Immediate,
                queue_capacity: 8,
                ..EngineConfig::default()
            },
        );
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 2);
        for _ in 0..4 {
            eng.infer(input.clone()).unwrap();
        }
        let stats = eng.stats();
        assert_eq!(stats.model, "tiny");
        assert_eq!(
            (stats.requests, stats.errors, stats.p99_wire_us),
            (0, 0, 0),
            "the server's fields are left at 0"
        );
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.shed, 0);
        assert!(stats.p99_queue_wait_us >= stats.p50_queue_wait_us);
        assert!(stats.p99_batch_wait_us >= stats.p50_batch_wait_us);
        assert!(stats.p99_service_us >= stats.p50_service_us);
    }

    #[test]
    fn traced_wait_returns_engine_spans() {
        let eng = engine(
            tiny_net(),
            EngineConfig {
                policy: DispatchPolicy::Immediate,
                queue_capacity: 8,
                ..EngineConfig::default()
            },
        );
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 3);
        let (out, spans) = eng.infer_traced(input).unwrap();
        assert_eq!(out.shape().batch(), 1);
        // Immediate dispatch: the coalescing span is (near) zero while
        // the sum of spans stays bounded by the call's wall time.
        assert!(spans.batch_us < 50_000, "immediate batch span {spans:?}");
    }

    #[test]
    fn lone_batched_job_waits_out_the_coalescing_delay() {
        let max_delay = Duration::from_millis(5);
        let eng = engine(tiny_net(), batched(4, max_delay));
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 4);
        let (_, spans) = eng.infer_traced(input).unwrap();
        // A single job with no co-batched company holds the batch open
        // until max_delay expires — that wait must be attributed to the
        // batch span, not queue or service.
        assert!(
            spans.batch_us >= (max_delay.as_micros() as u64) / 2,
            "batch span {} us does not reflect the {:?} coalescing wait",
            spans.batch_us,
            max_delay
        );
    }

    #[test]
    fn zero_window_dispatches_a_lone_batched_job_at_once() {
        // A zero `max_delay` is the one way to say "don't wait": the
        // dispatch loop never asks the policy, whichever it is.
        let slow = Duration::from_millis(200); // >> test budget
        for colocation in [
            crate::ColocationPolicy::AlwaysBatch,
            crate::ColocationPolicy::Dynamic { sla: slow * 10 },
        ] {
            let eng = engine(
                tiny_net(),
                EngineConfig {
                    colocation,
                    ..batched(4, Duration::ZERO)
                },
            );
            let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 4);
            let t0 = Instant::now();
            let (_, spans) = eng.infer_traced(input).unwrap();
            assert!(
                t0.elapsed() < slow / 2,
                "{colocation:?}: a zero window held a lone job for {:?}",
                t0.elapsed()
            );
            assert!(
                spans.batch_us < (slow.as_micros() as u64) / 2,
                "{colocation:?}: no coalescing wait should be attributed: {spans:?}"
            );
        }
    }

    #[test]
    fn dynamic_policy_dispatches_lone_jobs_on_an_idle_device() {
        // Queue empty + device free: batching amortizes nothing, so the
        // dynamic policy must not hold a lone job for the full window.
        let max_delay = Duration::from_millis(200);
        let eng = engine(
            tiny_net(),
            EngineConfig {
                colocation: crate::ColocationPolicy::Dynamic {
                    sla: Duration::from_secs(1),
                },
                device: Some(Arc::new(crate::DeviceScheduler::new(crate::Device::Cpu {
                    threads: 2,
                }))),
                ..batched(4, max_delay)
            },
        );
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 4);
        let t0 = Instant::now();
        eng.infer(input).unwrap();
        assert!(
            t0.elapsed() < max_delay / 2,
            "dynamic policy held an idle-device lone job for {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn engines_sharing_a_device_stay_correct_under_partial_leases() {
        // Two engines on a 2-thread shared device, executors configured
        // for 4 threads: every grant is a partial slice (fair share 1),
        // and outputs must stay bitwise-identical to direct forward.
        let net = tiny_net();
        let sched = Arc::new(crate::DeviceScheduler::new(crate::Device::Cpu {
            threads: 2,
        }));
        let mk = |name: &str| {
            InferenceEngine::start(
                name,
                Arc::clone(&net),
                Arc::new(CpuExecutor::new(tensor::Threading::new(4))),
                EngineConfig {
                    policy: DispatchPolicy::Immediate,
                    queue_capacity: 64,
                    device: Some(Arc::clone(&sched)),
                    ..EngineConfig::default()
                },
            )
        };
        let a = Arc::new(mk("a"));
        let b = Arc::new(mk("b"));
        assert_eq!(sched.sharers(), 2);
        let mut handles = Vec::new();
        for (idx, eng) in [&a, &b].into_iter().enumerate() {
            let eng = Arc::clone(eng);
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                for seed in 0..8u64 {
                    let input =
                        Tensor::random_uniform(Shape::mat(6, 8), 1.0, seed * 2 + idx as u64);
                    let got = eng.infer(input.clone()).unwrap();
                    let want = net.forward(&input).unwrap();
                    assert_eq!(got, want, "partial lease changed the math");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All leases returned: the device is whole again.
        assert_eq!(sched.free_units(), 2);
        drop(a);
        drop(b);
        assert_eq!(sched.sharers(), 0, "shutdown must unregister sharers");
    }

    #[test]
    fn lease_contention_is_visible_in_stats() {
        // One-thread device, two busy engines with slow executors: some
        // dispatch must block on the lease and the p99 must show it.
        let sched = Arc::new(crate::DeviceScheduler::new(crate::Device::Cpu {
            threads: 1,
        }));
        let mk = |name: &str| {
            InferenceEngine::start(
                name,
                tiny_net(),
                Arc::new(SlowExecutor {
                    inner: CpuExecutor::default(),
                    delay: Duration::from_millis(15),
                }),
                EngineConfig {
                    policy: DispatchPolicy::Immediate,
                    queue_capacity: 32,
                    device: Some(Arc::clone(&sched)),
                    ..EngineConfig::default()
                },
            )
        };
        let a = mk("a");
        let b = mk("b");
        let input = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 9);
        let ta: Vec<Ticket> = (0..4).map(|_| a.submit(input.clone()).unwrap()).collect();
        let tb: Vec<Ticket> = (0..4).map(|_| b.submit(input.clone()).unwrap()).collect();
        for t in ta.into_iter().chain(tb) {
            t.wait().unwrap();
        }
        let waited = a.stats().p99_lease_wait_us + b.stats().p99_lease_wait_us;
        assert!(
            waited > 1_000,
            "8 jobs serialized over a 1-thread device must show lease wait, got {waited} us"
        );
    }

    #[test]
    fn multi_query_inputs_count_toward_batch() {
        let net = Arc::new(dnn::zoo::network(App::Dig).unwrap());
        let eng = InferenceEngine::start(
            "dig",
            Arc::clone(&net),
            Arc::new(CpuExecutor::default()),
            batched(4, Duration::from_millis(1)),
        );
        let input = Tensor::random_uniform(Shape::nchw(3, 1, 28, 28), 1.0, 9);
        let got = eng.infer(input.clone()).unwrap();
        assert_eq!(got.shape().dims(), &[3, 10]);
        let want = net.forward(&input).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-5);
    }

    fn lm_net() -> Arc<Network> {
        Arc::new(Network::with_random_weights(dnn::zoo::tiny_lm(), 3).unwrap())
    }

    fn lm_engine() -> InferenceEngine {
        InferenceEngine::start(
            "tiny-lm",
            lm_net(),
            Arc::new(CpuExecutor::default()),
            EngineConfig {
                policy: DispatchPolicy::Immediate,
                queue_capacity: 16,
                ..EngineConfig::default()
            },
        )
    }

    /// Greedy reference decode: what the generative stream must emit,
    /// computed with plain forward passes.
    fn greedy_reference(net: &Network, mut cur: Tensor, steps: usize) -> Vec<Tensor> {
        let mut outs = Vec::new();
        for _ in 0..steps {
            let out = net.forward(&cur).unwrap();
            let data = out.data();
            let best = (0..data.len())
                .max_by(|&a, &b| data[a].total_cmp(&data[b]))
                .unwrap();
            let mut next = vec![0.0f32; data.len()];
            next[best] = 1.0;
            cur = Tensor::from_vec(out.shape().clone(), next).unwrap();
            outs.push(out);
        }
        outs
    }

    #[test]
    fn generative_stream_emits_ordered_greedy_chunks() {
        let net = lm_net();
        let eng = lm_engine();
        let mut prompt = vec![0.0f32; 16];
        prompt[3] = 1.0;
        let input = Tensor::from_vec(Shape::mat(1, 16), prompt).unwrap();
        let want = greedy_reference(&net, input.clone(), 5);

        let (tx, rx) = bounded(16);
        eng.submit_stream_routed(input, 9, StreamMode::Generative { max_tokens: 5 }, tx)
            .unwrap();
        for (i, expect) in want.iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(10)).expect("chunk");
            assert_eq!(reply.token, 9);
            assert_eq!(reply.seq as usize, i, "chunks must arrive in order");
            assert_eq!(reply.last, i == 4, "only the 5th chunk is final");
            let (out, spans) = reply.result.unwrap();
            assert!(
                out.max_abs_diff(expect).unwrap() < 1e-5,
                "chunk {i} diverged from greedy reference"
            );
            assert_eq!(spans.tokens, i as u64 + 1);
            assert!(spans.first_token_us > 0 || i == 0 || spans.first_token_us == 0);
        }
        assert!(
            rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "no chunks may follow the final one"
        );
        let stats = eng.stats();
        assert_eq!(stats.tokens_out, 5, "one tokens_out tick per chunk");
        eng.shutdown();
    }

    #[test]
    fn windowed_stream_chunks_the_batch_in_order() {
        let net = tiny_net();
        let eng = engine(
            Arc::clone(&net),
            EngineConfig {
                policy: DispatchPolicy::Immediate,
                queue_capacity: 16,
                ..EngineConfig::default()
            },
        );
        let input = Tensor::random_uniform(Shape::mat(5, 8), 1.0, 21);
        let want = net.forward(&input).unwrap();
        let (tx, rx) = bounded(16);
        eng.submit_stream_routed(input, 4, StreamMode::Windowed { window_rows: 2 }, tx)
            .unwrap();
        // 5 rows at 2 per window: chunks of 2, 2, and 1 rows.
        let mut rows_seen = 0usize;
        for (i, want_rows) in [2usize, 2, 1].into_iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(10)).expect("chunk");
            assert_eq!(reply.seq as usize, i);
            assert_eq!(reply.last, i == 2);
            let (out, _) = reply.result.unwrap();
            assert_eq!(out.shape().batch(), want_rows, "chunk {i} row count");
            for r in 0..want_rows {
                let full_row = rows_seen + r;
                for c in 0..4 {
                    let got = out.data()[r * 4 + c];
                    let exp = want.data()[full_row * 4 + c];
                    assert!((got - exp).abs() < 1e-5, "row {full_row} col {c}");
                }
            }
            rows_seen += want_rows;
        }
        eng.shutdown();
    }

    #[test]
    fn generative_stream_rejects_bad_submissions() {
        let eng = lm_engine();
        let (tx, _rx) = bounded::<RoutedReply>(4);
        // Multi-row prompts cannot feed back through greedy decode.
        let wide = Tensor::zeros(Shape::mat(2, 16));
        assert!(matches!(
            eng.submit_stream_routed(
                wide,
                1,
                StreamMode::Generative { max_tokens: 2 },
                tx.clone()
            ),
            Err(DjinnError::Protocol { .. })
        ));
        // Zero-length streams are protocol errors, not silent no-ops.
        let one = Tensor::zeros(Shape::mat(1, 16));
        assert!(matches!(
            eng.submit_stream_routed(
                one.clone(),
                2,
                StreamMode::Generative { max_tokens: 0 },
                tx.clone()
            ),
            Err(DjinnError::Protocol { .. })
        ));
        assert!(matches!(
            eng.submit_stream_routed(one, 3, StreamMode::Windowed { window_rows: 0 }, tx.clone()),
            Err(DjinnError::Protocol { .. })
        ));
        // An input the model cannot take is refused at the door, typed,
        // before it can be stacked with other streams' rows.
        let misshapen = Tensor::zeros(Shape::mat(1, 15));
        assert!(matches!(
            eng.submit_stream_routed(misshapen, 4, StreamMode::Generative { max_tokens: 2 }, tx),
            Err(DjinnError::Dnn(dnn::DnnError::BadInput { .. }))
        ));
        assert_eq!(eng.stats().queue_depth, 0, "nothing was admitted");
        eng.shutdown();
    }

    fn lm_prompt(token: usize) -> Tensor {
        Tensor::from_fn(Shape::mat(1, 16), |i| if i == token { 1.0 } else { 0.0 })
    }

    #[test]
    fn stream_over_the_token_cap_is_refused_and_the_cap_is_served() {
        let eng = lm_engine();
        let (tx, rx) = bounded(MAX_STREAM_TOKENS as usize);
        let over = StreamMode::Generative {
            max_tokens: MAX_STREAM_TOKENS + 1,
        };
        match eng.submit_stream_routed(lm_prompt(2), 1, over, tx.clone()) {
            Err(DjinnError::Protocol { reason }) => {
                assert!(reason.contains("limit"), "{reason}");
            }
            other => panic!("cap+1 must be a typed protocol error, got {other:?}"),
        }
        assert_eq!(eng.stats().queue_depth, 0, "nothing was admitted");
        let at = StreamMode::Generative {
            max_tokens: MAX_STREAM_TOKENS,
        };
        eng.submit_stream_routed(lm_prompt(2), 2, at, tx).unwrap();
        let replies: Vec<RoutedReply> = rx.iter().collect();
        assert_eq!(replies.len(), MAX_STREAM_TOKENS as usize);
        assert!(replies.iter().all(|r| r.token == 2 && r.result.is_ok()));
        assert!(replies.last().unwrap().last);
        eng.shutdown();
    }

    /// An executor whose every call reports its batch rows on entry and
    /// then waits at a gate: the test lets calls through one `()` at a
    /// time, and dropping the gate's sender opens it for good.
    struct GateExecutor {
        inner: CpuExecutor,
        entered: Sender<usize>,
        gate: Mutex<Receiver<()>>,
    }

    impl Executor for GateExecutor {
        fn infer(
            &self,
            network: &Arc<Network>,
            input: &Tensor,
        ) -> crate::Result<crate::InferenceOutcome> {
            let _ = self.entered.send(input.shape().batch());
            let _ = self.gate.lock().unwrap().recv();
            self.inner.infer(network, input)
        }

        fn backend_name(&self) -> &'static str {
            "gate"
        }
    }

    fn gated_lm_engine(config: EngineConfig) -> (InferenceEngine, Receiver<usize>, Sender<()>) {
        let (entered_tx, entered) = bounded(1024);
        let (open, gate) = bounded(1024);
        let eng = InferenceEngine::start(
            "tiny-lm",
            lm_net(),
            Arc::new(GateExecutor {
                inner: CpuExecutor::default(),
                entered: entered_tx,
                gate: Mutex::new(gate),
            }),
            config,
        );
        (eng, entered, open)
    }

    #[test]
    fn a_tick_stacks_every_ready_stream_and_only_one_tick_is_in_flight() {
        let (eng, entered, open) = gated_lm_engine(EngineConfig::default());
        let (tx, rx) = bounded(64);
        let tokens = StreamMode::Generative { max_tokens: 3 };
        eng.submit_stream_routed(lm_prompt(0), 0, tokens, tx.clone())
            .unwrap();
        let first = entered.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(first, 1, "the lone stream's first step runs at once");
        // Three more streams and a one-shot job arrive while that tick is
        // held at the gate: no second tick starts beside it.
        for token in 1..4 {
            eng.submit_stream_routed(lm_prompt(token as usize), token, tokens, tx.clone())
                .unwrap();
        }
        let one_shot = eng.submit(lm_prompt(9)).unwrap();
        assert!(
            entered.recv_timeout(Duration::from_millis(100)).is_err(),
            "a second decode tick started beside the one in flight"
        );
        drop(open);
        one_shot.wait().unwrap();
        // The next tick carries all four streams, and the one-shot queued
        // among them, in one forward pass.
        let widths: Vec<usize> = entered.iter().take(3).collect();
        assert_eq!(widths, vec![5, 4, 3], "ticks after the first: {widths:?}");
        drop(tx);
        let net = lm_net();
        let mut seen = vec![0usize; 4];
        let want: Vec<Vec<Tensor>> = (0..4)
            .map(|t| greedy_reference(&net, lm_prompt(t), 3))
            .collect();
        for reply in rx.iter() {
            let t = reply.token as usize;
            assert_eq!(reply.seq as usize, seen[t], "stream {t} out of order");
            let (out, _) = reply.result.unwrap();
            assert_eq!(out, want[t][seen[t]], "stream {t} chunk {}", seen[t]);
            seen[t] += 1;
        }
        assert_eq!(seen, vec![3; 4], "every stream delivered every chunk");
    }

    #[test]
    fn stream_is_shed_busy_when_the_queue_is_full() {
        let (eng, entered, open) = gated_lm_engine(EngineConfig {
            queue_capacity: 1,
            ..EngineConfig::default()
        });
        let (tx, rx) = bounded(64);
        let tokens = StreamMode::Generative { max_tokens: 6 };
        eng.submit_stream_routed(lm_prompt(1), 1, tokens, tx.clone())
            .unwrap();
        // The admitted stream's step is out with the (blocked) tick; it
        // still holds the queue's one slot.
        entered.recv_timeout(Duration::from_secs(10)).unwrap();
        match eng.submit_stream_routed(lm_prompt(2), 2, tokens, tx.clone()) {
            Err(DjinnError::Busy { model, queue_depth }) => {
                assert_eq!((model.as_str(), queue_depth), ("tiny-lm", 1));
            }
            other => panic!("a stream must be shed like any job, got {other:?}"),
        }
        assert!(matches!(
            eng.submit(lm_prompt(3)),
            Err(DjinnError::Busy { .. })
        ));
        assert_eq!(eng.stats().shed, 2);
        // The admitted stream is never shed mid-stream.
        drop(open);
        drop(tx);
        let replies: Vec<RoutedReply> = rx.iter().collect();
        assert_eq!(replies.len(), 6);
        assert!(replies.iter().all(|r| r.token == 1 && r.result.is_ok()));
    }

    #[test]
    fn a_full_receiver_sits_ticks_out_and_never_blocks_the_engine() {
        let net = lm_net();
        let eng = lm_engine(); // one dispatch thread: a blocked send would stop everything
        let (slow_tx, slow_rx) = bounded(1);
        let (tx, rx) = bounded(64);
        eng.submit_stream_routed(
            lm_prompt(4),
            1,
            StreamMode::Generative { max_tokens: 9 },
            slow_tx,
        )
        .unwrap();
        eng.submit_stream_routed(
            lm_prompt(5),
            2,
            StreamMode::Generative { max_tokens: 40 },
            tx,
        )
        .unwrap();
        // Nobody reads the slow stream, yet the other stream and one-shot
        // jobs run to the end.
        assert_eq!(rx.iter().count(), 40);
        eng.infer(lm_prompt(6)).unwrap();
        assert!(eng.stats().tokens_out <= 42, "the stalled stream ran ahead");
        // Read slowly: every chunk still arrives, in order, unchanged.
        let want = greedy_reference(&net, lm_prompt(4), 9);
        for (i, expect) in want.iter().enumerate() {
            std::thread::sleep(Duration::from_millis(2));
            let reply = slow_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("chunk");
            assert_eq!((reply.seq as usize, reply.last), (i, i == 8));
            assert_eq!(&reply.result.unwrap().0, expect, "chunk {i}");
        }
        assert!(
            slow_rx.recv().is_err(),
            "the sender is dropped after the last chunk"
        );
        eng.shutdown();
    }

    #[test]
    fn a_dropped_receiver_retires_the_stream_at_its_next_chunk() {
        let eng = InferenceEngine::start(
            "tiny-lm",
            lm_net(),
            Arc::new(SlowExecutor {
                inner: CpuExecutor::default(),
                delay: Duration::from_millis(2),
            }),
            EngineConfig::default(),
        );
        let (tx, rx) = bounded(64);
        eng.submit_stream_routed(
            lm_prompt(7),
            1,
            StreamMode::Generative { max_tokens: 500 },
            tx,
        )
        .unwrap();
        for _ in 0..2 {
            rx.recv_timeout(Duration::from_secs(10)).expect("chunk");
        }
        let buffered = rx.try_iter().count() as u64;
        drop(rx);
        // At most the tick in flight and the one whose send fails follow;
        // a live stream would add a token every ~2 ms. Retired, the
        // engine goes quiet: nothing queued or running, and no token
        // across ten ticks' time.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut tokens = eng.stats().tokens_out;
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let stats = eng.stats();
            assert!(
                stats.tokens_out <= 2 + buffered + 2,
                "decode went on for nobody: {} tokens",
                stats.tokens_out
            );
            let quiet = (stats.queue_depth, stats.in_flight) == (0, 0);
            if quiet && stats.tokens_out == tokens {
                break;
            }
            assert!(Instant::now() < deadline, "the stream never retired");
            tokens = stats.tokens_out;
        }
    }

    #[test]
    fn stream_steps_ride_batched_dispatch_without_waiting_out_a_window() {
        let net = lm_net();
        // A window far longer than the test: a step that waited it out
        // even once would time the test out.
        let eng = InferenceEngine::start(
            "tiny-lm",
            Arc::clone(&net),
            Arc::new(CpuExecutor::default()),
            batched(8, Duration::from_secs(30)),
        );
        // A one-shot is waiting in its window when the stream arrives:
        // the step closes the batch, and both are answered.
        let one_shot = eng.submit(lm_prompt(3)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let (tx, rx) = bounded(16);
        let t0 = Instant::now();
        eng.submit_stream_routed(
            lm_prompt(8),
            1,
            StreamMode::Generative { max_tokens: 6 },
            tx,
        )
        .unwrap();
        assert_eq!(
            one_shot.wait().unwrap(),
            net.forward(&lm_prompt(3)).unwrap()
        );
        let want = greedy_reference(&net, lm_prompt(8), 6);
        let got: Vec<Tensor> = rx.iter().map(|r| r.result.unwrap().0).collect();
        assert_eq!(got, want);
        assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
    }

    #[test]
    fn generative_stream_needs_feedback_compatible_output() {
        // tiny_net maps 8 -> 4: its output cannot be fed back, so the
        // stream must fail terminally instead of crashing the engine.
        let eng = engine(
            tiny_net(),
            EngineConfig {
                policy: DispatchPolicy::Immediate,
                queue_capacity: 8,
                ..EngineConfig::default()
            },
        );
        let (tx, rx) = bounded(8);
        let input = Tensor::zeros(Shape::mat(1, 8));
        eng.submit_stream_routed(input, 7, StreamMode::Generative { max_tokens: 3 }, tx)
            .unwrap();
        let reply = rx.recv_timeout(Duration::from_secs(10)).expect("reply");
        assert!(reply.last, "an error reply is terminal");
        assert!(matches!(reply.result, Err(DjinnError::Protocol { .. })));
        // The engine survives for ordinary traffic.
        assert!(eng.infer(Tensor::zeros(Shape::mat(1, 8))).is_ok());
        eng.shutdown();
    }

    #[test]
    fn shutdown_waits_for_active_streams() {
        let eng = InferenceEngine::start(
            "tiny-lm",
            lm_net(),
            Arc::new(SlowExecutor {
                inner: CpuExecutor::default(),
                delay: Duration::from_millis(10),
            }),
            EngineConfig {
                policy: DispatchPolicy::Immediate,
                queue_capacity: 8,
                ..EngineConfig::default()
            },
        );
        let (tx, rx) = bounded(64);
        let mut prompt = vec![0.0f32; 16];
        prompt[0] = 1.0;
        let input = Tensor::from_vec(Shape::mat(1, 16), prompt).unwrap();
        eng.submit_stream_routed(input, 11, StreamMode::Generative { max_tokens: 30 }, tx)
            .unwrap();
        // Let the stream emit at least one chunk, then shut down mid-way.
        let first = rx.recv_timeout(Duration::from_secs(10)).expect("chunk 0");
        assert_eq!(first.seq, 0);
        eng.shutdown();
        // After shutdown returns the stream has fully resolved: either it
        // raced to completion or it ended with a terminal Shutdown error.
        let mut last_seen = false;
        while let Ok(reply) = rx.try_recv() {
            assert!(!last_seen, "no reply may follow a terminal one");
            if reply.last {
                last_seen = true;
                if let Err(e) = reply.result {
                    assert!(matches!(e, DjinnError::Shutdown), "got {e}");
                }
            }
        }
        assert!(
            last_seen,
            "shutdown must terminate the stream with a final reply"
        );
    }
}
