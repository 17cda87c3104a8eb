//! Load generator for a DjiNN service: measures end-to-end throughput
//! and latency from the client side, per model.
//!
//! ```text
//! djinn-loadgen --addr HOST:PORT --model NAME
//!               [--mix NAME=W,NAME=W] [--threads N] [--requests R]
//!               [--queries Q] [--pipeline N] [--rate R] [--timeout-ms T]
//!               [--vocab N] [--zipf S] [--trace-out PATH]
//!               [--stream] [--tokens N]
//! ```
//!
//! Each worker thread runs one request loop over its own connection, and
//! the one-shot modes are settings of it. By default one request is in
//! flight at a time: the classic closed loop. `--pipeline N` keeps up to
//! N in flight (responses are correlated by request ID, so replies may
//! return out of order); pipelining is what keeps a batched server's
//! coalescing window full from a single connection.
//!
//! `--rate R` makes the loop *open*: arrivals are a Poisson process at
//! R requests/second aggregate (split evenly across threads, exponential
//! inter-arrival gaps from the per-thread PRNG), submitted without
//! waiting for earlier responses and with no cap on those in flight.
//! Closed loops self-throttle when the server slows — the offered load
//! falls to match service capacity and queueing delay hides — so
//! latency-vs-load questions (SLA attainment under a fixed arrival mix,
//! coordinated omission) need the open loop. Completions are drained
//! between arrivals; an arrival whose send would block still goes out on
//! time because submission is a buffered write, so the arrival process
//! stays faithful even under overload.
//!
//! Every mode counts losses one way: each request is sent once, and a
//! request lost to a transport break (in flight when the connection
//! broke, or its own send failed) is one error. After a break (connection
//! refused/reset, I/O timeouts) the worker reconnects with exponential
//! backoff, so a server restart mid-run costs errors, not the whole
//! measurement. `Busy` replies — the server shedding load at admission —
//! are counted separately from errors: the connection stays framed and
//! usable, and a shed is backpressure working as designed, not a failure.
//!
//! The report includes p50/p95/p99 end-to-end latency over successful
//! requests (client-observed) plus a per-stage breakdown table — queue
//! wait, batch coalescing wait, service, and wire time — assembled from
//! the server's echoed trace blocks. `--trace-out PATH` additionally
//! dumps one JSONL record per successful request for offline analysis.
//! A run where every request was shed reports `n/a` percentiles, never
//! a fake zero.
//!
//! `--mix "tiny-mnist=7,tiny-senna=3"` replaces `--model` with a
//! weighted model mix (`--model M` is the mix `M=1`): each request picks
//! a model by weight from a per-thread deterministic PRNG. This is the multi-replica router
//! scenario — point `--addr` at a `djinn-router` and the mix exercises
//! model-affinity routing across a sharded fleet with a skewed
//! popularity distribution, the shape that shows whether replica
//! selection keeps traffic off the weak or shedding box.
//!
//! `--vocab N` draws each request's input from a pool of N distinct,
//! deterministically seeded tensors shared by every worker thread, so
//! repeats are *byte-identical* across threads — the redundancy a
//! content-keyed server cache (`djinn-server --cache`) can actually
//! exploit. `--zipf S` skews the draw toward low pool ranks with
//! weight 1/(rank+1)^S (S=0 is uniform, the default); larger S models
//! a hotter vocabulary and yields higher duplicate rates at the same
//! pool size. The default `--vocab 1` replays one input per target —
//! the legacy behavior, a 100% duplicate stream.
//!
//! `--stream` switches to a closed loop of generative streams: each
//! "request" is one `StreamInfer` that decodes `--tokens`
//! tokens (default 16), delivered as ordered chunks. The report moves
//! to the per-token SLA class — aggregate tokens/s, time-to-first-token
//! (TTFT) p50/p99, inter-token gap p50/p99, and whole-stream totals —
//! all measured from the client's clock. Point it at a generative
//! model: `textgen` (`djinn-server --lm`) or `tiny-lm`
//! (`djinn-server --tiny-zoo`).
//!
//! Input shapes are discovered from the seven Tonic models (and the tiny
//! test zoo) by name; for other models, pass nothing and the tool
//! reports the server's model list.

use std::io::{self, Write};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use djinn::trace::{fmt_ms, percentile, TraceAggregator};
use djinn::workload::{xorshift64, ZipfSampler};
use djinn::{DjinnClient, DjinnError, StreamMode, TraceRecord};
use dnn::zoo::App;
use tensor::Tensor;

struct Args {
    addr: String,
    model: Option<String>,
    mix: Option<String>,
    threads: usize,
    requests: usize,
    queries: usize,
    pipeline: usize,
    rate: Option<f64>,
    timeout: Duration,
    vocab: usize,
    zipf: f64,
    trace_out: Option<String>,
    stream: bool,
    tokens: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7400".into(),
        model: None,
        mix: None,
        threads: 4,
        requests: 50,
        queries: 1,
        pipeline: 1,
        rate: None,
        timeout: Duration::from_secs(30),
        vocab: 1,
        zipf: 0.0,
        trace_out: None,
        stream: false,
        tokens: 16,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--model" => args.model = Some(value("--model")?),
            "--mix" => args.mix = Some(value("--mix")?),
            "--threads" => {
                args.threads = value("--threads")?.parse().map_err(|e| format!("{e}"))?
            }
            "--requests" => {
                args.requests = value("--requests")?.parse().map_err(|e| format!("{e}"))?
            }
            "--queries" => {
                args.queries = value("--queries")?.parse().map_err(|e| format!("{e}"))?
            }
            "--pipeline" => {
                args.pipeline = value("--pipeline")?.parse().map_err(|e| format!("{e}"))?;
                if args.pipeline == 0 {
                    return Err("--pipeline must be at least 1".into());
                }
            }
            "--rate" => {
                let r: f64 = value("--rate")?.parse().map_err(|e| format!("{e}"))?;
                if !r.is_finite() || r <= 0.0 {
                    return Err("--rate must be positive".into());
                }
                args.rate = Some(r);
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms")?.parse().map_err(|e| format!("{e}"))?;
                args.timeout = Duration::from_millis(ms);
            }
            "--vocab" => {
                args.vocab = value("--vocab")?.parse().map_err(|e| format!("{e}"))?;
                if args.vocab == 0 {
                    return Err("--vocab must be at least 1".into());
                }
            }
            "--zipf" => {
                let s: f64 = value("--zipf")?.parse().map_err(|e| format!("{e}"))?;
                if !s.is_finite() || s < 0.0 {
                    return Err("--zipf must be finite and non-negative".into());
                }
                args.zipf = s;
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--stream" => args.stream = true,
            "--tokens" => {
                args.tokens = value("--tokens")?.parse().map_err(|e| format!("{e}"))?;
                if args.tokens == 0 {
                    return Err("--tokens must be at least 1".into());
                }
            }
            "--help" | "-h" => {
                return Err("usage: djinn-loadgen --addr HOST:PORT --model NAME \
                            [--mix NAME=W,NAME=W] [--threads N] [--requests R] \
                            [--queries Q] [--pipeline N] [--rate R] [--timeout-ms T] \
                            [--vocab N] [--zipf S] [--trace-out PATH] \
                            [--stream] [--tokens N]"
                    .into())
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Connection attempts before a worker gives up on the server.
const CONNECT_ATTEMPTS: u32 = 5;

/// Connects with exponential backoff between attempts (10 ms doubling to
/// a 500 ms cap), returning `None` once the attempts are exhausted.
fn connect_with_backoff(addr: SocketAddr, timeout: Duration) -> Option<DjinnClient> {
    let mut delay = Duration::from_millis(10);
    for attempt in 0..CONNECT_ATTEMPTS {
        match DjinnClient::connect_with_timeout(addr, timeout) {
            Ok(client) => return Some(client),
            Err(_) if attempt + 1 < CONNECT_ATTEMPTS => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(500));
            }
            Err(_) => break,
        }
    }
    None
}

/// Builds a pool of `vocab` distinct inputs, each carrying `queries`
/// stacked queries, for a Tonic model or one of the tiny test-zoo
/// models (the harness a `--tiny-zoo` server serves for protocol
/// benchmarks).
///
/// Seeds are fixed per pool slot (`99 + 7919 * slot`), so every worker
/// thread — and every rerun — draws from the *same* byte-identical
/// tensors: the duplicate rate a `--vocab`/`--zipf` run offers to a
/// content-keyed server cache is a property of the workload, not of
/// thread scheduling. Slot 0 keeps the legacy seed (99), so `--vocab 1`
/// replays exactly the input earlier versions sent.
fn inputs_for(model: &str, queries: usize, vocab: usize) -> Option<Vec<Tensor>> {
    let shape = if let Some(app) = App::from_name(model) {
        let def = dnn::zoo::netdef(app);
        let items = app.service_meta().inputs_per_query * queries;
        def.input_shape().with_batch(items)
    } else if model == "textgen" {
        // The generative LM (`djinn-server --lm`): prompts are single
        // rows — the decode loop feeds its own output back.
        dnn::zoo::textgen().input_shape().clone()
    } else {
        let def = dnn::zoo::tiny_test_zoo()
            .into_iter()
            .find(|d| d.name() == model)?;
        def.input_shape().with_batch(queries)
    };
    Some(
        (0..vocab)
            .map(|slot| Tensor::random_uniform(shape.clone(), 0.5, 99 + 7919 * slot as u64))
            .collect(),
    )
}

/// A weighted model mix: each request draws a model by weight, then an
/// input from that model's shared pool, from the caller's PRNG state. A
/// single `--model` run is the one-entry case.
struct Workload {
    /// (model name, shared deterministic input pool) per mix entry.
    targets: Vec<(String, Vec<Tensor>)>,
    /// Cumulative weights, parallel to `targets`.
    cum: Vec<u32>,
    /// Zipf rank sampler over the pool (`--vocab` ranks, exponent
    /// `--zipf`): the harmonic normalization is computed once here, and
    /// every request's slot pick is a binary search. S=0 degenerates to
    /// uniform.
    zipf: ZipfSampler,
}

impl Workload {
    /// Builds one input pool per `(model, weight)` entry. `Err` names the
    /// first model with no known input shape.
    fn new(mix: &[(String, u32)], queries: usize, vocab: usize, zipf: f64) -> Result<Self, String> {
        let mut targets = Vec::new();
        let mut cum = Vec::new();
        let mut total = 0u32;
        for (name, weight) in mix {
            let pool = inputs_for(name, queries, vocab).ok_or_else(|| name.clone())?;
            total += weight;
            targets.push((name.clone(), pool));
            cum.push(total);
        }
        Ok(Workload {
            targets,
            cum,
            zipf: ZipfSampler::new(vocab, zipf),
        })
    }

    /// Picks a target index by weight; `rng` is a caller-owned xorshift
    /// state, so every thread samples its own deterministic sequence.
    fn pick(&self, rng: &mut u64) -> usize {
        if self.targets.len() == 1 {
            return 0;
        }
        let draw = (xorshift64(rng) % u64::from(*self.cum.last().expect("non-empty mix"))) as u32;
        self.cum.partition_point(|&c| c <= draw)
    }

    /// Picks a pool slot by Zipf rank weight from the caller's PRNG
    /// state. With `--vocab 1` (or S=0 and a one-entry pool) this is
    /// always slot 0.
    fn pick_slot(&self, rng: &mut u64) -> usize {
        self.zipf.sample(rng)
    }
}

/// Parses `--mix "name=w,name=w"` into `(model, weight)` entries; a bare
/// name weighs 1. The weights must sum to a `u32`, the range
/// [`Workload::pick`] draws from.
fn parse_mix(spec: &str) -> Result<Vec<(String, u32)>, String> {
    let mut mix = Vec::new();
    let mut total = 0u32;
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, weight) = match part.split_once('=') {
            Some((n, w)) => {
                let w: u32 = w
                    .parse()
                    .map_err(|e| format!("bad weight in `{part}`: {e}"))?;
                (n.trim(), w)
            }
            None => (part, 1),
        };
        if weight == 0 {
            return Err(format!("weight 0 in `{part}` would never be sent"));
        }
        total = total
            .checked_add(weight)
            .ok_or_else(|| format!("--mix weights sum past {}", u32::MAX))?;
        mix.push((name.to_string(), weight));
    }
    if mix.is_empty() {
        return Err("--mix named no models".into());
    }
    Ok(mix)
}

/// Run-wide outcome counts, shared by every worker thread.
#[derive(Default)]
struct Counters {
    /// Requests lost to a transport break, plus server-reported failures.
    errors: AtomicU64,
    /// `Busy` replies: the server shed the request at admission.
    sheds: AtomicU64,
    /// Fresh connections opened after a transport break.
    reconnects: AtomicU64,
}

/// Draws an exponential inter-arrival gap at `rate` arrivals/second
/// from the caller's xorshift state — the gap sequence is the Poisson
/// arrival process of the open loop, deterministic per thread.
fn exp_gap(rng: &mut u64, rate: f64) -> Duration {
    // Map to (0, 1]: never ln(0). 2^-64 scales the full u64 range.
    let u = (xorshift64(rng) as f64 + 1.0) * 5.421_010_862_427_522e-20;
    Duration::from_secs_f64(-u.ln() / rate)
}

/// A read that timed out leaves its requests in flight (see
/// [`DjinnClient::recv_next`]); everything else is a real failure.
fn is_timeout(e: &DjinnError) -> bool {
    matches!(e, DjinnError::Io(io)
        if io.kind() == std::io::ErrorKind::TimedOut
            || io.kind() == std::io::ErrorKind::WouldBlock)
}

/// Client-observed timings for one completed generative stream.
struct StreamRecord {
    /// Submission → first chunk (time-to-first-token), milliseconds.
    ttft_ms: f64,
    /// Submission → final chunk, milliseconds.
    total_ms: f64,
    /// Chunks (tokens) received.
    tokens: u64,
    /// Gaps between consecutive chunks, milliseconds.
    gaps_ms: Vec<f64>,
}

/// One worker thread: its connection and PRNG state, and the run-wide
/// workload and counters it draws from and reports into.
struct Worker<'a> {
    client: DjinnClient,
    addr: SocketAddr,
    timeout: Duration,
    workload: &'a Workload,
    rng: u64,
    counters: &'a Counters,
}

impl<'a> Worker<'a> {
    /// Draws the next request's model and input.
    fn next_input(&mut self) -> (&'a str, &'a Tensor) {
        let workload = self.workload;
        let (model, pool) = &workload.targets[workload.pick(&mut self.rng)];
        (model, &pool[workload.pick_slot(&mut self.rng)])
    }

    /// Replaces a broken connection with a fresh one; `false` once the
    /// server stays unreachable through every backoff attempt.
    fn reconnect(&mut self) -> bool {
        match connect_with_backoff(self.addr, self.timeout) {
            Some(client) => {
                self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                self.client = client;
                true
            }
            None => false,
        }
    }

    /// The one-shot request loop. Without `rate`, up to `window` requests
    /// are in flight on the connection (1 is the classic closed loop).
    /// With `rate`, arrivals follow a Poisson schedule at that many per
    /// second with no window cap: between arrivals the worker drains
    /// completions under a short read timeout, and after the last it
    /// drains the tail under the full `timeout`. Responses are claimed
    /// by request ID in whatever order they finish.
    ///
    /// Each request is sent once. A transport break (a failed send, an
    /// I/O error, a stalled read) charges every request sent and not yet
    /// answered as one error each, and the worker carries on over a fresh
    /// connection; an open loop's arrival clock keeps running meanwhile,
    /// so missed arrivals go out at once rather than being resampled.
    fn run_oneshot_loop(
        &mut self,
        requests: usize,
        window: usize,
        rate: Option<f64>,
    ) -> Vec<TraceRecord> {
        /// Read-stall bound while arrivals remain: long enough to
        /// amortize the syscall, short enough to never hold up an arrival
        /// by more than a scheduling quantum.
        const DRAIN_TIMEOUT: Duration = Duration::from_millis(1);

        let counters = self.counters;
        let mut local = Vec::with_capacity(requests);
        let mut sent = 0usize; // requests sent, failed sends included
        let mut accounted = 0usize; // requests answered or charged as lost
        let started = Instant::now();
        let mut next_arrival = Duration::ZERO;
        let mut read_bound = self.timeout;
        while accounted < requests {
            let due = match rate {
                Some(_) => started.elapsed() >= next_arrival,
                None => self.client.in_flight() < window,
            };
            if sent < requests && due {
                let (model, input) = self.next_input();
                sent += 1;
                if let Some(rate) = rate {
                    next_arrival += exp_gap(&mut self.rng, rate);
                }
                if self.client.submit(model, input).is_ok() {
                    continue;
                }
            } else if self.client.in_flight() > 0 {
                let draining = rate.is_some() && sent < requests;
                let bound = if draining {
                    DRAIN_TIMEOUT
                } else {
                    self.timeout
                };
                if bound != read_bound && self.client.set_io_timeout(Some(bound)).is_ok() {
                    read_bound = bound;
                }
                match self.client.recv_next() {
                    Ok(done) => {
                        accounted += 1;
                        match done.result {
                            Ok((_, record)) => local.push(record),
                            // The server shed the request at admission:
                            // backpressure, not a failure.
                            Err(DjinnError::Busy { .. }) => {
                                counters.sheds.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                counters.errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        continue;
                    }
                    Err(ref e) if draining && is_timeout(e) => continue,
                    Err(_) => {}
                }
            } else {
                // Open loop with nothing in flight: idle until the next
                // arrival is due.
                let idle = next_arrival.saturating_sub(started.elapsed());
                std::thread::sleep(idle.min(DRAIN_TIMEOUT));
                continue;
            }
            // A transport break: the stream can no longer be trusted.
            let lost = sent - accounted;
            counters.errors.fetch_add(lost as u64, Ordering::Relaxed);
            accounted = sent;
            if accounted < requests && !self.reconnect() {
                let remaining = (requests - accounted) as u64;
                counters.errors.fetch_add(remaining, Ordering::Relaxed);
                break;
            }
            read_bound = self.timeout;
        }
        local
    }

    /// The streaming closed loop (`--stream`): each "request" is one
    /// generative stream of `max_tokens` chunks, consumed to completion.
    /// TTFT, inter-token gaps, and total stream time are all measured
    /// from the client's clock — the numbers a user-facing token stream
    /// would feel. `Busy` sheds and remote errors leave the connection
    /// usable; a transport break costs the stream and reconnects like the
    /// one-shot loop.
    fn run_stream_loop(&mut self, requests: usize, max_tokens: u32) -> Vec<StreamRecord> {
        let counters = self.counters;
        let mut local = Vec::with_capacity(requests);
        for done in 0..requests {
            let (model, input) = self.next_input();
            let client = &mut self.client;
            let started = Instant::now();
            let outcome = (|| {
                let id =
                    client.stream_infer(model, input, StreamMode::Generative { max_tokens })?;
                let mut record = StreamRecord {
                    ttft_ms: 0.0,
                    total_ms: 0.0,
                    tokens: 0,
                    gaps_ms: Vec::new(),
                };
                let mut prev = started;
                loop {
                    let chunk = client.recv_chunk(id)?;
                    let now = Instant::now();
                    let gap_ms = now.duration_since(prev).as_secs_f64() * 1e3;
                    if record.tokens == 0 {
                        record.ttft_ms = gap_ms;
                    } else {
                        record.gaps_ms.push(gap_ms);
                    }
                    prev = now;
                    record.tokens += 1;
                    if chunk.last {
                        break;
                    }
                }
                record.total_ms = started.elapsed().as_secs_f64() * 1e3;
                Ok::<_, DjinnError>(record)
            })();
            match outcome {
                Ok(record) => local.push(record),
                Err(DjinnError::Busy { .. }) => {
                    counters.sheds.fetch_add(1, Ordering::Relaxed);
                }
                Err(DjinnError::Remote { .. }) => {
                    counters.errors.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    counters.errors.fetch_add(1, Ordering::Relaxed);
                    if !self.reconnect() {
                        let remaining = (requests - done - 1) as u64;
                        counters.errors.fetch_add(remaining, Ordering::Relaxed);
                        break;
                    }
                }
            }
        }
        local
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let addr: SocketAddr = match args.addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bad --addr {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };

    if args.model.is_some() && args.mix.is_some() {
        eprintln!("--model and --mix are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if args.rate.is_some() && args.pipeline > 1 {
        eprintln!("--rate (open loop) and --pipeline (closed-loop window) are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if args.stream && (args.rate.is_some() || args.pipeline > 1) {
        eprintln!("--stream is a closed loop of whole streams; it excludes --rate and --pipeline");
        return ExitCode::FAILURE;
    }
    let (mix, label) = match (&args.model, &args.mix) {
        (Some(model), None) => (vec![(model.clone(), 1)], model.clone()),
        (None, Some(spec)) => match parse_mix(spec) {
            Ok(mix) => (mix, format!("mix({spec})")),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        (None, None) => {
            // No model: just show what the server offers.
            match DjinnClient::connect(addr).and_then(|mut c| c.list_models()) {
                Ok(names) => {
                    let listed = writeln!(io::stdout().lock(), "models: {}", names.join(", "));
                    return finish(listed.map(|()| ExitCode::SUCCESS));
                }
                Err(e) => {
                    eprintln!("cannot reach server: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        (Some(_), Some(_)) => unreachable!("checked above"),
    };
    let workload = match Workload::new(&mix, args.queries, args.vocab, args.zipf) {
        Ok(workload) => workload,
        Err(name) => {
            if args.model.is_some() {
                eprintln!("unknown Tonic model `{name}` (known: imc dig face asr pos chk ner)");
            } else {
                eprintln!("unknown model `{name}` in --mix");
            }
            return ExitCode::FAILURE;
        }
    };

    let counters = Counters::default();
    let started = Instant::now();
    // Each worker keeps its records in its own buffer, handed back when
    // it is joined, so the hot loop never contends on a shared lock.
    let (records, streams) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..args.threads)
            .map(|thread_idx| {
                let (args, workload, counters) = (&args, &workload, &counters);
                scope.spawn(move || {
                    let Some(client) = connect_with_backoff(addr, args.timeout) else {
                        counters
                            .errors
                            .fetch_add(args.requests as u64, Ordering::Relaxed);
                        return (Vec::new(), Vec::new());
                    };
                    let mut worker = Worker {
                        client,
                        addr,
                        timeout: args.timeout,
                        workload,
                        // Per-thread and deterministic: rerunning a mix
                        // replays the same model sequence.
                        rng: 0x9E37_79B9_7F4A_7C15u64
                            ^ ((thread_idx as u64 + 1) * 0x2545_F491_4F6C_DD1D),
                        counters,
                    };
                    if args.stream {
                        (
                            Vec::new(),
                            worker.run_stream_loop(args.requests, args.tokens),
                        )
                    } else {
                        let rate = args.rate.map(|r| r / args.threads as f64);
                        let records = worker.run_oneshot_loop(args.requests, args.pipeline, rate);
                        (records, Vec::new())
                    }
                })
            })
            .collect();
        let mut records = Vec::<TraceRecord>::new();
        let mut streams = Vec::<StreamRecord>::new();
        for worker in workers {
            let (r, s) = worker.join().expect("a load worker panicked");
            records.extend(r);
            streams.extend(s);
        }
        (records, streams)
    });
    let elapsed = started.elapsed().as_secs_f64();
    let sent = (args.threads * args.requests) as u64;
    let report = |out: &mut io::StdoutLock| -> io::Result<ExitCode> {
        if args.stream {
            // Streaming report: token throughput and the per-token latency
            // class (TTFT + inter-token gaps), all client-observed.
            let ok = streams.len() as u64;
            let total_tokens: u64 = streams.iter().map(|r| r.tokens).sum();
            let mut ttft_ms: Vec<f64> = streams.iter().map(|r| r.ttft_ms).collect();
            let mut total_ms: Vec<f64> = streams.iter().map(|r| r.total_ms).collect();
            let mut gaps_ms: Vec<f64> = streams
                .iter()
                .flat_map(|r| r.gaps_ms.iter().copied())
                .collect();
            ttft_ms.sort_by(f64::total_cmp);
            total_ms.sort_by(f64::total_cmp);
            gaps_ms.sort_by(f64::total_cmp);
            writeln!(
                out,
                "{label} [stream x{} tokens]: {ok}/{sent} streams ok in {elapsed:.2}s  ->  \
                 {:.1} tokens/s, TTFT p50 {} p99 {}, inter-token p50 {} p99 {}, \
                 stream total p50 {} p99 {}, {} shed (busy), {} errors, {} reconnects",
                args.tokens,
                total_tokens as f64 / elapsed,
                fmt_ms(percentile(&ttft_ms, 0.50)),
                fmt_ms(percentile(&ttft_ms, 0.99)),
                fmt_ms(percentile(&gaps_ms, 0.50)),
                fmt_ms(percentile(&gaps_ms, 0.99)),
                fmt_ms(percentile(&total_ms, 0.50)),
                fmt_ms(percentile(&total_ms, 0.99)),
                counters.sheds.load(Ordering::Relaxed),
                counters.errors.load(Ordering::Relaxed),
                counters.reconnects.load(Ordering::Relaxed),
            )?;
            return Ok(ExitCode::SUCCESS);
        }

        let mut lat_ms: Vec<f64> = records.iter().map(|r| r.e2e_us as f64 / 1e3).collect();
        lat_ms.sort_by(f64::total_cmp);
        let ok = lat_ms.len() as u64;
        // `percentile` returns None on an empty sample set (every request
        // shed or failed): the report says `n/a` instead of panicking on an
        // empty index or printing a fake 0 ms.
        let mean = (ok > 0).then(|| lat_ms.iter().sum::<f64>() / ok as f64);
        // Whole requests answered by the server's *exact* cache layer (the
        // trace flag is per request). Embed-layer row hits are a different
        // unit — rows, not requests — and live in the server's stats
        // (`cache_hits` there counts rows under `--cache embed`); they are
        // deliberately not folded into this per-request count.
        let cache_hits = records.iter().filter(|r| r.cache_hit).count();
        writeln!(
            out,
            "{label}: {ok}/{sent} ok in {elapsed:.2}s  ->  {:.1} req/s ({:.1} q/s), \
             mean {}, p50 {}, p95 {}, p99 {}, \
             max {}, {} shed (busy), {} errors, {} reconnects, {} cache-hit requests",
            ok as f64 / elapsed,
            ok as f64 * args.queries as f64 / elapsed,
            fmt_ms(mean),
            fmt_ms(percentile(&lat_ms, 0.50)),
            fmt_ms(percentile(&lat_ms, 0.95)),
            fmt_ms(percentile(&lat_ms, 0.99)),
            fmt_ms(lat_ms.last().copied()),
            counters.sheds.load(Ordering::Relaxed),
            counters.errors.load(Ordering::Relaxed),
            counters.reconnects.load(Ordering::Relaxed),
            cache_hits,
        )?;

        // Per-stage latency breakdown from the server's echoed trace blocks.
        let mut agg = TraceAggregator::new();
        for r in &records {
            agg.record(r);
        }
        write!(out, "{}", agg.table().render())?;

        // Payload efficiency: what the measured throughput cost on the wire,
        // from the actual frame sizes (length prefixes included).
        let wire_bytes: u64 = records.iter().map(|r| r.wire_bytes).sum();
        if ok > 0 && wire_bytes > 0 {
            writeln!(
                out,
                "wire bytes: {:.0} per request, {:.2} MB/s on the wire",
                wire_bytes as f64 / ok as f64,
                wire_bytes as f64 / 1e6 / elapsed,
            )?;
        }

        if let Some(path) = args.trace_out {
            let mut jsonl = String::with_capacity(records.len() * 160);
            for r in &records {
                jsonl.push_str(&r.to_json());
                jsonl.push('\n');
            }
            if let Err(e) = std::fs::write(&path, jsonl) {
                eprintln!("cannot write --trace-out {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            writeln!(out, "wrote {} trace records to {path}", records.len())?;
        }
        Ok(ExitCode::SUCCESS)
    };
    finish(report(&mut io::stdout().lock()))
}

/// The exit status for a finished run whose report went to stdout. A
/// reader that stopped reading (`| head -1`) already has what it wanted,
/// so a broken pipe exits quietly and successfully.
fn finish(report: io::Result<ExitCode>) -> ExitCode {
    match report {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write the report: {e}");
            ExitCode::FAILURE
        }
    }
}
