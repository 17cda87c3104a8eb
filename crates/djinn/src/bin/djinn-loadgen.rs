//! Closed-loop load generator for a DjiNN service: measures end-to-end
//! throughput and latency from the client side, per model.
//!
//! ```text
//! djinn-loadgen --addr HOST:PORT --model NAME
//!               [--mix NAME=W,NAME=W] [--threads N] [--requests R]
//!               [--queries Q] [--pipeline N] [--rate R] [--timeout-ms T]
//!               [--vocab N] [--zipf S] [--trace-out PATH]
//!               [--stream] [--tokens N]
//! ```
//!
//! `--pipeline N` keeps up to N requests in flight per connection
//! (responses are correlated by request ID, so replies may return
//! out of order); the default of 1 is the classic closed loop.
//! Pipelining is what keeps a batched server's coalescing window full
//! from a single connection.
//!
//! `--rate R` switches from the closed loop to an *open* loop: arrivals
//! are a Poisson process at R requests/second aggregate (split evenly
//! across threads, exponential inter-arrival gaps from the per-thread
//! PRNG), submitted without waiting for earlier responses. Closed loops
//! self-throttle when the server slows — the offered load falls to
//! match service capacity and queueing delay hides — so latency-vs-load
//! questions (SLA attainment under a fixed arrival mix, coordinated
//! omission) need the open loop. Completions are drained between
//! arrivals; an arrival whose send would block still goes out on time
//! because submission is a buffered write, so the arrival process stays
//! faithful even under overload.
//!
//! Transient failures (connection refused/reset, I/O timeouts) are
//! retried by reconnecting with exponential backoff, so a server restart
//! mid-run costs errors, not the whole measurement. `Busy` replies —
//! the server shedding load at admission — are counted separately from
//! transport errors: the connection stays framed and usable, and a shed
//! is backpressure working as designed, not a failure.
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
//! weighted model mix: each request picks a model by weight from a
//! per-thread deterministic PRNG. This is the multi-replica router
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
//! `--stream` switches the closed loop to generative streaming: each
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
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
fn connect_with_backoff(addr: std::net::SocketAddr, timeout: Duration) -> Option<DjinnClient> {
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
    fn single(model: String, pool: Vec<Tensor>, zipf: f64) -> Self {
        let vocab = pool.len();
        Workload {
            targets: vec![(model, pool)],
            cum: vec![1],
            zipf: ZipfSampler::new(vocab, zipf),
        }
    }

    /// Parses `"name=w,name=w"`, building one input pool per entry.
    fn from_mix(spec: &str, queries: usize, vocab: usize, zipf: f64) -> Result<Self, String> {
        let mut targets = Vec::new();
        let mut cum = Vec::new();
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
            let pool = inputs_for(name, queries, vocab)
                .ok_or_else(|| format!("unknown model `{name}` in --mix"))?;
            total += weight;
            targets.push((name.to_string(), pool));
            cum.push(total);
        }
        if targets.is_empty() {
            return Err("--mix named no models".into());
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

/// The classic closed loop: one request in flight, reconnect with
/// backoff on transport failures.
#[allow(clippy::too_many_arguments)]
fn run_closed_loop(
    client: &mut DjinnClient,
    addr: std::net::SocketAddr,
    timeout: Duration,
    workload: &Workload,
    rng: &mut u64,
    requests: usize,
    local: &mut Vec<TraceRecord>,
    errors: &AtomicU64,
    sheds: &AtomicU64,
    reconnects: &AtomicU64,
) {
    for done in 0..requests {
        let (model, pool) = &workload.targets[workload.pick(rng)];
        let input = &pool[workload.pick_slot(rng)];
        match client.infer_traced(model, input) {
            Ok((_, record)) => local.push(record),
            // The server shed the request at admission: the
            // connection is fine, and this is backpressure, not a
            // transport failure — count it separately.
            Err(DjinnError::Busy { .. }) => {
                sheds.fetch_add(1, Ordering::Relaxed);
            }
            // Server-side application error: the connection is
            // still framed correctly, keep using it.
            Err(DjinnError::Remote { .. }) => {
                errors.fetch_add(1, Ordering::Relaxed);
            }
            // I/O or protocol break: the stream can no longer be
            // trusted — reconnect with backoff and carry on.
            Err(_) => {
                errors.fetch_add(1, Ordering::Relaxed);
                match connect_with_backoff(addr, timeout) {
                    Some(c) => {
                        reconnects.fetch_add(1, Ordering::Relaxed);
                        *client = c;
                    }
                    None => {
                        let remaining = (requests - done - 1) as u64;
                        errors.fetch_add(remaining, Ordering::Relaxed);
                        break;
                    }
                }
            }
        }
    }
}

/// Pipelined issue: keep up to `window` requests in flight on one
/// connection, submitting and claiming completions directly so every
/// request encodes from the one shared input through the client's
/// reusable scratch buffer — no per-request tensor clone, no chunk
/// batching. Responses demultiplex by request ID, so per-request sheds
/// and errors land on the request that caused them even when replies
/// come back out of order. A transport failure costs the requests in
/// flight; the worker reconnects and carries on.
#[allow(clippy::too_many_arguments)]
fn run_pipelined(
    client: &mut DjinnClient,
    addr: std::net::SocketAddr,
    timeout: Duration,
    workload: &Workload,
    rng: &mut u64,
    requests: usize,
    window: usize,
    local: &mut Vec<TraceRecord>,
    errors: &AtomicU64,
    sheds: &AtomicU64,
    reconnects: &AtomicU64,
) {
    let mut submitted = 0usize; // requests written to any connection
    let mut accounted = 0usize; // responses received or charged as lost
    while accounted < requests {
        // Keep the window full...
        let mut transport_broke = false;
        while submitted < requests && client.in_flight() < window {
            let (model, pool) = &workload.targets[workload.pick(rng)];
            let input = &pool[workload.pick_slot(rng)];
            match client.submit(model, input) {
                Ok(_) => submitted += 1,
                Err(_) => {
                    transport_broke = true;
                    break;
                }
            }
        }
        // ...and claim whichever in-flight request finishes first.
        if !transport_broke {
            match client.recv_next() {
                Ok(done) => {
                    accounted += 1;
                    match done.result {
                        Ok((_, record)) => local.push(record),
                        Err(DjinnError::Busy { .. }) => {
                            sheds.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    continue;
                }
                Err(_) => transport_broke = true,
            }
        }
        debug_assert!(transport_broke);
        // I/O or protocol break: every request still in flight is lost —
        // charge them as errors and start over on a fresh connection.
        let lost = (submitted - accounted) as u64;
        errors.fetch_add(lost, Ordering::Relaxed);
        accounted = submitted;
        if accounted >= requests {
            return;
        }
        match connect_with_backoff(addr, timeout) {
            Some(c) => {
                reconnects.fetch_add(1, Ordering::Relaxed);
                *client = c;
            }
            None => {
                errors.fetch_add((requests - accounted) as u64, Ordering::Relaxed);
                return;
            }
        }
    }
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

/// Open-loop issue: requests arrive on a Poisson schedule at `rate`
/// per second regardless of how fast responses come back, so the
/// offered load — not the server's service rate — sets the pace.
/// Between arrivals the worker drains completions under a short read
/// timeout (timed-out reads leave requests in flight); after the last
/// arrival it drains the tail under the full `timeout`. A transport
/// break loses the requests in flight, and the worker reconnects
/// without pausing the arrival clock — missed arrivals are sent
/// immediately, preserving the schedule rather than resampling it.
#[allow(clippy::too_many_arguments)]
fn run_open_loop(
    client: &mut DjinnClient,
    addr: std::net::SocketAddr,
    timeout: Duration,
    workload: &Workload,
    rng: &mut u64,
    requests: usize,
    rate: f64,
    local: &mut Vec<TraceRecord>,
    errors: &AtomicU64,
    sheds: &AtomicU64,
    reconnects: &AtomicU64,
) {
    /// Read-stall bound while waiting between arrivals: long enough to
    /// amortize the syscall, short enough to never hold up an arrival
    /// by more than a scheduling quantum.
    const DRAIN_TIMEOUT: Duration = Duration::from_millis(1);

    let mut submitted = 0usize;
    let mut accounted = 0usize;
    let started = Instant::now();
    let mut next_arrival = Duration::ZERO;
    let drain_ok = client.set_io_timeout(Some(DRAIN_TIMEOUT)).is_ok();
    while accounted < requests {
        let now = started.elapsed();
        if submitted < requests && now >= next_arrival {
            let (model, pool) = &workload.targets[workload.pick(rng)];
            let input = &pool[workload.pick_slot(rng)];
            match client.submit(model, input) {
                Ok(_) => {
                    submitted += 1;
                    next_arrival += exp_gap(rng, rate);
                    continue;
                }
                Err(_) => {
                    // Transport break on send: charge the in-flight
                    // window plus this arrival, then reconnect below.
                    errors.fetch_add((submitted - accounted) as u64 + 1, Ordering::Relaxed);
                    accounted = submitted;
                    submitted += 1; // the failed arrival is spent
                    next_arrival += exp_gap(rng, rate);
                }
            }
        } else if client.in_flight() > 0 {
            // Wait for completions, but never past the next arrival.
            if submitted >= requests {
                // Tail drain: no more arrivals to protect.
                let _ = client.set_io_timeout(Some(timeout));
            }
            match client.recv_next() {
                Ok(done) => {
                    accounted += 1;
                    match done.result {
                        Ok((_, record)) => local.push(record),
                        Err(DjinnError::Busy { .. }) => {
                            sheds.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    continue;
                }
                Err(ref e) if is_timeout(e) && submitted < requests => continue,
                Err(_) => {
                    errors.fetch_add((submitted - accounted) as u64, Ordering::Relaxed);
                    accounted = submitted;
                    if accounted >= requests {
                        return;
                    }
                }
            }
        } else {
            // Idle until the next arrival is due.
            std::thread::sleep(next_arrival.saturating_sub(now).min(DRAIN_TIMEOUT));
            continue;
        }
        // Only reachable after a transport failure: reconnect and keep
        // the arrival clock running.
        match connect_with_backoff(addr, timeout) {
            Some(c) => {
                reconnects.fetch_add(1, Ordering::Relaxed);
                *client = c;
                if drain_ok && submitted < requests {
                    let _ = client.set_io_timeout(Some(DRAIN_TIMEOUT));
                }
            }
            None => {
                errors.fetch_add((requests - accounted) as u64, Ordering::Relaxed);
                return;
            }
        }
    }
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

/// The streaming closed loop (`--stream`): each "request" is one
/// generative stream of `--tokens` chunks, consumed to completion.
/// TTFT, inter-token gaps, and total stream time are all measured from
/// the client's clock — the numbers a user-facing token stream would
/// feel. `Busy` sheds and remote errors leave the connection usable;
/// transport breaks reconnect with backoff like the one-shot loops.
#[allow(clippy::too_many_arguments)]
fn run_stream_loop(
    client: &mut DjinnClient,
    addr: std::net::SocketAddr,
    timeout: Duration,
    workload: &Workload,
    rng: &mut u64,
    requests: usize,
    max_tokens: u32,
    local: &mut Vec<StreamRecord>,
    errors: &AtomicU64,
    sheds: &AtomicU64,
    reconnects: &AtomicU64,
) {
    for done in 0..requests {
        let (model, pool) = &workload.targets[workload.pick(rng)];
        let input = &pool[workload.pick_slot(rng)];
        let started = Instant::now();
        let outcome = (|| {
            let id = client.stream_infer(model, input, StreamMode::Generative { max_tokens })?;
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
                sheds.fetch_add(1, Ordering::Relaxed);
            }
            Err(DjinnError::Remote { .. }) => {
                errors.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                errors.fetch_add(1, Ordering::Relaxed);
                match connect_with_backoff(addr, timeout) {
                    Some(c) => {
                        reconnects.fetch_add(1, Ordering::Relaxed);
                        *client = c;
                    }
                    None => {
                        let remaining = (requests - done - 1) as u64;
                        errors.fetch_add(remaining, Ordering::Relaxed);
                        break;
                    }
                }
            }
        }
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
    let addr: std::net::SocketAddr = match args.addr.parse() {
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
    let (workload, label) = match (&args.model, &args.mix) {
        (Some(model), None) => {
            let Some(pool) = inputs_for(model, args.queries, args.vocab) else {
                eprintln!("unknown Tonic model `{model}` (known: imc dig face asr pos chk ner)");
                return ExitCode::FAILURE;
            };
            (
                Workload::single(model.clone(), pool, args.zipf),
                model.clone(),
            )
        }
        (None, Some(spec)) => match Workload::from_mix(spec, args.queries, args.vocab, args.zipf) {
            Ok(w) => (w, format!("mix({spec})")),
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
    let workload = Arc::new(workload);

    let records = Arc::new(Mutex::new(Vec::<TraceRecord>::new()));
    let streams = Arc::new(Mutex::new(Vec::<StreamRecord>::new()));
    let errors = Arc::new(AtomicU64::new(0));
    let sheds = Arc::new(AtomicU64::new(0));
    let reconnects = Arc::new(AtomicU64::new(0));
    let timeout = args.timeout;
    let started = Instant::now();
    let mut handles = Vec::new();
    for thread_idx in 0..args.threads {
        let workload = Arc::clone(&workload);
        let records = Arc::clone(&records);
        let streams = Arc::clone(&streams);
        let errors = Arc::clone(&errors);
        let sheds = Arc::clone(&sheds);
        let reconnects = Arc::clone(&reconnects);
        let requests = args.requests;
        let window = args.pipeline;
        let thread_rate = args.rate.map(|r| r / args.threads as f64);
        let stream_tokens = args.stream.then_some(args.tokens);
        handles.push(std::thread::spawn(move || {
            let mut client = match connect_with_backoff(addr, timeout) {
                Some(c) => c,
                None => {
                    errors.fetch_add(requests as u64, Ordering::Relaxed);
                    return;
                }
            };
            // Per-thread trace buffer, merged once at the end, so the
            // hot loop never contends on the shared lock. The PRNG seed
            // is per-thread and deterministic: rerunning a mix replays
            // the same model sequence.
            let mut rng =
                0x9E37_79B9_7F4A_7C15u64 ^ ((thread_idx as u64 + 1) * 0x2545_F491_4F6C_DD1D);
            let mut local = Vec::with_capacity(requests);
            if let Some(max_tokens) = stream_tokens {
                let mut stream_local = Vec::with_capacity(requests);
                run_stream_loop(
                    &mut client,
                    addr,
                    timeout,
                    &workload,
                    &mut rng,
                    requests,
                    max_tokens,
                    &mut stream_local,
                    &errors,
                    &sheds,
                    &reconnects,
                );
                streams
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(stream_local);
                return;
            }
            if let Some(rate) = thread_rate {
                run_open_loop(
                    &mut client,
                    addr,
                    timeout,
                    &workload,
                    &mut rng,
                    requests,
                    rate,
                    &mut local,
                    &errors,
                    &sheds,
                    &reconnects,
                );
            } else if window > 1 {
                run_pipelined(
                    &mut client,
                    addr,
                    timeout,
                    &workload,
                    &mut rng,
                    requests,
                    window,
                    &mut local,
                    &errors,
                    &sheds,
                    &reconnects,
                );
            } else {
                run_closed_loop(
                    &mut client,
                    addr,
                    timeout,
                    &workload,
                    &mut rng,
                    requests,
                    &mut local,
                    &errors,
                    &sheds,
                    &reconnects,
                );
            }
            records
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(local);
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let elapsed = started.elapsed().as_secs_f64();
    let sent = (args.threads * args.requests) as u64;
    let report = |out: &mut io::StdoutLock| -> io::Result<ExitCode> {
        if args.stream {
            // Streaming report: token throughput and the per-token latency
            // class (TTFT + inter-token gaps), all client-observed.
            let recs = std::mem::take(&mut *streams.lock().unwrap_or_else(|e| e.into_inner()));
            let ok = recs.len() as u64;
            let total_tokens: u64 = recs.iter().map(|r| r.tokens).sum();
            let mut ttft_ms: Vec<f64> = recs.iter().map(|r| r.ttft_ms).collect();
            let mut total_ms: Vec<f64> = recs.iter().map(|r| r.total_ms).collect();
            let mut gaps_ms: Vec<f64> = recs
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
                sheds.load(Ordering::Relaxed),
                errors.load(Ordering::Relaxed),
                reconnects.load(Ordering::Relaxed),
            )?;
            return Ok(ExitCode::SUCCESS);
        }

        let records = std::mem::take(&mut *records.lock().unwrap_or_else(|e| e.into_inner()));
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
            sheds.load(Ordering::Relaxed),
            errors.load(Ordering::Relaxed),
            reconnects.load(Ordering::Relaxed),
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
