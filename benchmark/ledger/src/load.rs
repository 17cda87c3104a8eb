//! The load generators: closed loop, open loop and stream loop. Each
//! runs a warm-up and then back-to-back measured rounds against a running
//! [`Stack`](crate::workloads::Stack), checks every reply against the
//! oracle, and adds the outcomes up per round. Every request of the
//! measured span lands in exactly one round and none is left out: a
//! metric is computed per round and reported as the median of rounds, so
//! a stall of the host costs one round, while a stall of the program's
//! own, which recurs, shows in all of them.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use djinn::protocol::{encode_infer_framed_into, FrameReader, Response};
use djinn::{DjinnError, ServerTrace, StreamMode, TraceRecord};

use crate::procfs;
use crate::spans::{Span, SpanLog, ROOT};
use crate::stats::Hist;
use crate::workloads::{
    connect, poisson_schedule, same_bits, Arrival, Picker, Pools, Spec, Traffic, IO_TIMEOUT, SLO_MS,
};

/// The server-reported stage durations of a request, as attributes of
/// its root span (durations only: clocks never cross the wire).
fn stage_attrs(r: &TraceRecord) -> Vec<(&'static str, u64)> {
    vec![
        ("queue_us", r.queue_us),
        ("batch_us", r.batch_us),
        ("lease_us", r.lease_us),
        ("service_us", r.service_us),
        ("server_total_us", r.server_total_us),
        ("wire_us", r.wire_us()),
        ("cache_hit", u64::from(r.cache_hit)),
    ]
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Answered, byte-identical to the oracle.
    Ok,
    /// Refused with `Busy`, timed out or lost with its connection: the
    /// system was overloaded or stalled. It counts as failed and misses
    /// every latency limit, but it says nothing about the answers.
    Dropped,
    /// Answered with other bytes than the oracle's, or with an error:
    /// the program is wrong, and the run exits nonzero.
    Wrong,
}

/// One request of a traced pass (one whole stream, on the stream
/// workload), kept in full.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Reply in hand minus send time — minus *due* time in the open
    /// loop, so a stall is charged to every request it delayed.
    pub lat_us: f64,
    /// The client-measured end-to-end time beside what the server
    /// reported about the request, in its own clock. For a stream: the
    /// whole stream, lease and service summed over its tokens.
    pub record: TraceRecord,
}

/// What one round of a phase adds up to. An untraced pass keeps only
/// this, not a record per request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Round {
    /// Requests placed in this round, answered or not.
    pub sent: u64,
    /// Answered, and byte-identical to the oracle.
    pub ok: u64,
    /// Of those, within the latency limit.
    pub in_slo: u64,
    /// Latency of the `ok` ones, ns.
    pub lat: Hist,
    /// Streams: call → first chunk; gaps between consecutive chunks.
    pub ttft: Hist,
    pub gap: Hist,
    /// Open loop: how long after its due time each request was written.
    pub late: Hist,
}

impl Round {
    fn record(&mut self, ok: bool, lat_ns: u64) {
        self.sent += 1;
        if ok {
            self.ok += 1;
            self.in_slo += u64::from(lat_ns as f64 <= SLO_MS * 1e6);
            self.lat.record(lat_ns);
        }
    }

    pub fn merge(&mut self, other: &Round) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.in_slo += other.in_slo;
        self.lat.merge(&other.lat);
        self.ttft.merge(&other.ttft);
        self.gap.merge(&other.gap);
        self.late.merge(&other.late);
    }

    /// Tokens the round's streams delivered.
    pub fn tokens(&self) -> u64 {
        self.ttft.count() + self.gap.count()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct PhaseCfg {
    pub warmup: Duration,
    /// The measured span: `rounds` back-to-back rounds of `round_len`.
    pub rounds: usize,
    pub round_len: Duration,
    /// Keep per-request stage records and spans.
    pub traced: bool,
    pub seed: u64,
    /// Open loop only: replaces the workload's arrival rate (the ladder).
    pub rate: Option<f64>,
}

impl PhaseCfg {
    /// The round an instant (ns since the phase began) falls in; `None`
    /// during warm-up and after the last round. A request is placed by
    /// its completion in a closed loop and by its due time in the open
    /// loop, where the schedule, not the server, owns the clock.
    pub fn round_of(&self, at_ns: u64) -> Option<usize> {
        let i =
            at_ns.checked_sub(self.warmup.as_nanos() as u64)? / self.round_len.as_nanos() as u64;
        (i < self.rounds as u64).then_some(i as usize)
    }

    fn span(&self) -> Duration {
        self.warmup + self.round_len * self.rounds as u32
    }
}

pub struct Phase {
    pub cfg: PhaseCfg,
    /// Process CPU (ms) read at each round boundary: `rounds + 1`
    /// readings, `None` where no CPU clock is available.
    pub cpu_ms: Vec<Option<f64>>,
    pub rounds: Vec<Round>,
    /// Every request sent, warm-up and drain included, and how many of
    /// them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Of the failed ones, those that were answered wrongly.
    pub wrong: u64,
    /// Traced pass only: the correct requests of the measured span.
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
}

impl Phase {
    /// Process CPU spent during round `i`, ms (NaN when unavailable).
    pub fn cpu_in(&self, i: usize) -> f64 {
        self.cpu_ms[i]
            .zip(self.cpu_ms[i + 1])
            .map_or(f64::NAN, |(a, b)| b - a)
    }

    /// All rounds added up (the one-round phases of the traced pass).
    pub fn whole(&self) -> Round {
        let mut all = Round::default();
        for r in &self.rounds {
            all.merge(r);
        }
        all
    }

    /// Correct completions per second over the measured span.
    pub fn rate(&self) -> f64 {
        self.whole().ok as f64 / (self.cfg.round_len * self.cfg.rounds as u32).as_secs_f64()
    }
}

/// What one generator thread hands back.
struct ConnOut {
    rounds: Vec<Round>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    samples: Vec<Sample>,
    spans: Vec<Span>,
}

impl ConnOut {
    fn new(cfg: &PhaseCfg) -> ConnOut {
        ConnOut {
            rounds: vec![Round::default(); cfg.rounds],
            attempted: 0,
            failed: 0,
            wrong: 0,
            samples: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Books one finished request; returns the round it fell in.
    fn book(&mut self, cfg: &PhaseCfg, at_ns: u64, end: End, lat_ns: u64) -> Option<&mut Round> {
        self.attempted += 1;
        self.failed += u64::from(end != End::Ok);
        self.wrong += u64::from(end == End::Wrong);
        let round = &mut self.rounds[cfg.round_of(at_ns)?];
        round.record(end == End::Ok, lat_ns);
        Some(round)
    }

    fn absorb(&mut self, other: ConnOut) {
        for (mine, theirs) in self.rounds.iter_mut().zip(&other.rounds) {
            mine.merge(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.samples.extend(other.samples);
        self.spans.extend(other.spans);
    }

    /// `n` requests went down with their connection.
    fn drop_all(&mut self, cfg: &PhaseCfg, at_ns: u64, n: usize) {
        for _ in 0..n {
            self.book(cfg, at_ns, End::Dropped, 0);
        }
    }
}

/// Runs one phase of `spec`'s traffic against `addr`.
pub fn run(spec: &Spec, pools: &Pools, addr: SocketAddr, cfg: PhaseCfg) -> Result<Phase, String> {
    let epoch = Instant::now();
    let stop = AtomicBool::new(false);
    let mut cpu_ms = Vec::with_capacity(cfg.rounds + 1);
    // The main thread only keeps time: it reads the CPU clock at every
    // round boundary and ends the phase; generator threads do the rest.
    let mut keep_time = || {
        for k in 0..=cfg.rounds {
            let boundary = cfg.warmup + cfg.round_len * k as u32;
            std::thread::sleep(boundary.saturating_sub(epoch.elapsed()));
            cpu_ms.push(procfs::cpu_ms());
        }
        stop.store(true, Ordering::SeqCst);
    };
    let gen = Gen {
        addr,
        pools,
        cfg: &cfg,
        stop: &stop,
        epoch,
    };
    let outs: Vec<Result<ConnOut, String>> = match spec.traffic {
        Traffic::Closed { conns, window } => std::thread::scope(|s| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let picker = Picker::new(spec, cfg.seed, c as u64);
                    s.spawn(move || gen.closed_conn(picker, window))
                })
                .collect();
            keep_time();
            handles.into_iter().map(join).collect()
        }),
        Traffic::Streams {
            conns,
            live,
            tokens,
        } => std::thread::scope(|s| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let picker = Picker::new(spec, cfg.seed, c as u64);
                    s.spawn(move || gen.stream_conn(picker, live, tokens))
                })
                .collect();
            keep_time();
            handles.into_iter().map(join).collect()
        }),
        Traffic::Open { conns, rate } => {
            let schedule =
                poisson_schedule(spec, cfg.seed, cfg.rate.unwrap_or(rate), conns, cfg.span());
            vec![gen.open_loop(&schedule, conns, &mut keep_time)]
        }
    };
    let mut all = ConnOut::new(&cfg);
    for out in outs {
        all.absorb(out?);
    }
    Ok(Phase {
        cfg,
        cpu_ms,
        rounds: all.rounds,
        attempted: all.attempted,
        failed: all.failed,
        wrong: all.wrong,
        samples: all.samples,
        spans: all.spans,
    })
}

fn join<T>(h: std::thread::ScopedJoinHandle<'_, Result<T, String>>) -> Result<T, String> {
    h.join()
        .unwrap_or_else(|_| Err("a generator thread panicked".into()))
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// When a request of the open loop was written and answered, against
/// when it was due: `(latency, lateness)` in ns. Latency runs from the
/// due time, so a generator or server stall is charged to every request
/// it delayed, not only to the one that was in flight.
fn open_timing(due_ns: u64, written_ns: u64, answered_ns: u64) -> (u64, u64) {
    (
        answered_ns.saturating_sub(due_ns),
        written_ns.saturating_sub(due_ns),
    )
}

/// Requests per closed-loop connection — the first ones sent inside the
/// measured span — whose spans a traced phase records. The stage durations of *every* traced request are kept (the
/// per-layer metrics are taken over them); the span log is a sample,
/// because `overhead_tiny` completes 200 000 requests in a traced phase
/// and three spans for each is 80 MB of log nobody will read.
const SPANNED_REQUESTS: usize = 20_000;

/// What every generator thread of a phase shares.
#[derive(Clone, Copy)]
struct Gen<'a> {
    addr: SocketAddr,
    pools: &'a Pools,
    cfg: &'a PhaseCfg,
    stop: &'a AtomicBool,
    epoch: Instant,
}

impl Gen<'_> {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// One closed-loop connection: `window` requests in flight, the
    /// next sent only when one completes; after `stop`, drains and
    /// returns.
    fn closed_conn(self, mut picker: Picker, window: usize) -> Result<ConnOut, String> {
        let Gen {
            addr,
            pools,
            cfg,
            epoch,
            ..
        } = self;
        let mut client = connect(addr)?;
        let mut log = SpanLog::new(epoch);
        let mut out = ConnOut::new(cfg);
        // id → (target, slot, submit-call start, spans recorded)
        let mut inflight: HashMap<u64, (usize, usize, Instant, bool)> = HashMap::new();
        let mut spanned = 0;
        loop {
            while inflight.len() < window && !self.stopped() {
                let (target, slot) = picker.pick();
                let t = &pools.targets[target];
                let start = Instant::now();
                match client.submit(t.model, &t.inputs[slot]) {
                    Ok(id) => {
                        let span = cfg.traced
                            && spanned < SPANNED_REQUESTS
                            && cfg.round_of(log.ns(start)).is_some();
                        if span {
                            spanned += 1;
                            log.push(
                                id,
                                "client.submit",
                                Some(ROOT),
                                log.ns(start),
                                log.ns(Instant::now()),
                            );
                        }
                        inflight.insert(id, (target, slot, start, span));
                    }
                    Err(_) => {
                        // A failed write poisons the connection: what is
                        // in flight on it is lost with it.
                        out.drop_all(cfg, log.ns(start), 1 + inflight.len());
                        inflight.clear();
                        client = connect(addr)?;
                    }
                }
            }
            if inflight.is_empty() {
                out.spans = log.spans;
                return Ok(out);
            }
            let recv_start = Instant::now();
            match client.recv_next() {
                Ok(done) => {
                    let now = Instant::now();
                    let Some((target, slot, sent, span)) = inflight.remove(&done.request_id) else {
                        return Err(format!("reply for unknown request id {}", done.request_id));
                    };
                    let id = done.request_id;
                    let (end, record) = match done.result {
                        Ok((tensor, record))
                            if same_bits(&tensor, &pools.targets[target].expect[slot][0]) =>
                        {
                            (End::Ok, Some(record))
                        }
                        Err(DjinnError::Busy { .. }) => (End::Dropped, None),
                        _ => (End::Wrong, None),
                    };
                    let lat_ns = ns(now - sent);
                    let measured = out.book(cfg, log.ns(now), end, lat_ns).is_some();
                    if let (true, true, Some(record)) = (cfg.traced, measured, record) {
                        if span {
                            log.push(id, ROOT, None, log.ns(sent), log.ns(now)).attrs =
                                stage_attrs(&record);
                            log.push(
                                id,
                                "client.recv",
                                Some(ROOT),
                                log.ns(recv_start),
                                log.ns(now),
                            );
                        }
                        out.samples.push(Sample {
                            lat_us: lat_ns as f64 / 1e3,
                            record,
                        });
                    }
                }
                Err(_) => {
                    out.drop_all(cfg, log.ns(Instant::now()), inflight.len());
                    inflight.clear();
                    client = connect(addr)?;
                }
            }
        }
    }

    /// One connection of the stream loop: keeps `live` generative
    /// streams going and always awaits the one that has received the
    /// fewest chunks, so no stream's chunks sit unread while another is
    /// served.
    fn stream_conn(self, mut picker: Picker, live: usize, tokens: u32) -> Result<ConnOut, String> {
        struct Live {
            id: u64,
            target: usize,
            slot: usize,
            start: Instant,
            last: Instant,
            chunks: u32,
            ok: bool,
            lease_us: u64,
            service_us: u64,
        }
        let Gen {
            addr,
            pools,
            cfg,
            epoch,
            ..
        } = self;
        let mut client = connect(addr)?;
        let mut log = SpanLog::new(epoch);
        let mut out = ConnOut::new(cfg);
        let mut streams: Vec<Live> = Vec::new();
        loop {
            while streams.len() < live && !self.stopped() {
                let (target, slot) = picker.pick();
                let t = &pools.targets[target];
                let start = Instant::now();
                match client.stream_infer(
                    t.model,
                    &t.inputs[slot],
                    StreamMode::Generative { max_tokens: tokens },
                ) {
                    Ok(id) => {
                        if cfg.traced {
                            log.push(
                                id,
                                "client.submit",
                                Some(ROOT),
                                log.ns(start),
                                log.ns(Instant::now()),
                            );
                        }
                        streams.push(Live {
                            id,
                            target,
                            slot,
                            start,
                            last: start,
                            chunks: 0,
                            ok: true,
                            lease_us: 0,
                            service_us: 0,
                        });
                    }
                    Err(_) => {
                        out.drop_all(cfg, log.ns(start), 1 + streams.len());
                        streams.clear();
                        client = connect(addr)?;
                    }
                }
            }
            let Some(idx) = (0..streams.len()).min_by_key(|&i| streams[i].chunks) else {
                out.spans = log.spans;
                return Ok(out);
            };
            let recv_start = Instant::now();
            let s = &mut streams[idx];
            match client.recv_chunk(s.id) {
                Ok(chunk) => {
                    let now = Instant::now();
                    let want = pools.targets[s.target].expect[s.slot].get(chunk.seq as usize);
                    s.ok &=
                        chunk.seq == s.chunks && want.is_some_and(|w| same_bits(&chunk.tensor, w));
                    // Tokens are booked when they arrive, into the round
                    // they arrive in: a stream can straddle a boundary. (A
                    // stream that later fails has its tokens counted;
                    // it also fails the run.)
                    let waited = ns(now - s.last);
                    if let Some(i) = cfg.round_of(log.ns(now)) {
                        let round = &mut out.rounds[i];
                        if s.chunks == 0 {
                            round.ttft.record(waited);
                        } else {
                            round.gap.record(waited);
                        }
                    }
                    s.chunks += 1;
                    s.last = now;
                    s.lease_us += chunk.trace.lease_us;
                    s.service_us += chunk.trace.service_us;
                    if cfg.traced {
                        log.push(
                            s.id,
                            "client.recv",
                            Some(ROOT),
                            log.ns(recv_start),
                            log.ns(now),
                        );
                    }
                    if !chunk.last {
                        continue;
                    }
                    let done = streams.swap_remove(idx);
                    let ok = done.ok && done.chunks == tokens;
                    let end = if ok { End::Ok } else { End::Wrong };
                    let total_ns = ns(now - done.start);
                    let measured = out.book(cfg, log.ns(now), end, total_ns).is_some();
                    if cfg.traced && ok && measured {
                        // The final chunk's trace carries the stream's
                        // server total; its stages are the tokens' sums.
                        let whole = ServerTrace {
                            lease_us: done.lease_us,
                            service_us: done.service_us,
                            ..chunk.trace
                        };
                        let model = pools.targets[done.target].model;
                        let record = TraceRecord::new(model, total_ns / 1000, whole);
                        log.push(done.id, ROOT, None, log.ns(done.start), log.ns(now))
                            .attrs = stage_attrs(&record);
                        out.samples.push(Sample {
                            lat_us: total_ns as f64 / 1e3,
                            record,
                        });
                    }
                }
                // The stream's own terminal failure (shed, remote error)
                // leaves the connection usable.
                Err(e @ (DjinnError::Busy { .. } | DjinnError::Remote { .. })) => {
                    streams.swap_remove(idx);
                    let end = match e {
                        DjinnError::Busy { .. } => End::Dropped,
                        _ => End::Wrong,
                    };
                    out.book(cfg, log.ns(Instant::now()), end, 0);
                }
                Err(_) => {
                    out.drop_all(cfg, log.ns(Instant::now()), streams.len());
                    streams.clear();
                    client = connect(addr)?;
                }
            }
        }
    }

    /// The open loop. One sender thread walks the seeded schedule and
    /// writes each request when it is due; one reader thread per
    /// connection blocks in `read`. Socket read timeouts tick at several
    /// milliseconds on this kernel, so a single thread cannot both wait
    /// for a reply and wake on time for the next arrival — hence raw
    /// sockets and the public protocol functions here, not `DjinnClient`.
    fn open_loop(
        self,
        schedule: &[Arrival],
        conns: usize,
        keep_time: &mut dyn FnMut(),
    ) -> Result<ConnOut, String> {
        let Gen {
            addr,
            pools,
            cfg,
            epoch,
            ..
        } = self;
        let mut writers = Vec::new();
        for _ in 0..conns {
            let s = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_write_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            writers.push(s);
        }
        let readers: Vec<TcpStream> = writers
            .iter()
            .map(|s| s.try_clone().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        // Per arrival: when its write began (0 = not written) and its
        // request frame's size. SeqCst: the reader pairs these with a
        // reply that can only exist after the write they describe.
        let written_ns: Vec<AtomicU64> = schedule.iter().map(|_| AtomicU64::new(0)).collect();
        let request_bytes: Vec<AtomicU64> = schedule.iter().map(|_| AtomicU64::new(0)).collect();
        let (written_ns, request_bytes) = (&written_ns[..], &request_bytes[..]);

        let (send_spans, per_reader) = std::thread::scope(|s| {
            let sender = s.spawn(move || {
                let mut log = SpanLog::new(epoch);
                let mut frame = BytesMut::new();
                let mut dead = vec![false; writers.len()];
                for (i, a) in schedule.iter().enumerate() {
                    std::thread::sleep(
                        Duration::from_nanos(a.due_ns).saturating_sub(epoch.elapsed()),
                    );
                    let t = &pools.targets[a.target];
                    let id = i as u64 + 1;
                    let start = Instant::now();
                    if dead[a.conn]
                        || encode_infer_framed_into(&mut frame, t.model, &t.inputs[a.slot], id)
                            .is_err()
                    {
                        continue;
                    }
                    request_bytes[i].store(frame.len() as u64, Ordering::SeqCst);
                    written_ns[i].store(log.ns(start).max(1), Ordering::SeqCst);
                    // A failed write may have left half a frame behind:
                    // nothing more can be sent on that connection.
                    dead[a.conn] = writers[a.conn].write_all(&frame).is_err();
                    if cfg.traced {
                        log.push(
                            id,
                            "client.submit",
                            Some(ROOT),
                            log.ns(start),
                            log.ns(Instant::now()),
                        );
                    }
                }
                log.spans
            });
            let handles: Vec<_> = readers
                .into_iter()
                .enumerate()
                .map(|(c, mut stream)| {
                    s.spawn(move || {
                        let mut log = SpanLog::new(epoch);
                        let mut out = ConnOut::new(cfg);
                        let mut frames = FrameReader::new();
                        let expected = schedule.iter().filter(|a| a.conn == c).count() as u64;
                        while out.attempted < expected {
                            let read_start = Instant::now();
                            // `Ok(None)` is the stall bound firing, an
                            // error is EOF: what is still owed failed.
                            let Ok(Some(payload)) = frames.read_frame_ref(&mut stream) else {
                                break;
                            };
                            let reply_bytes = payload.len() as u64 + 4;
                            let Ok(rsp) = Response::decode(payload) else {
                                break;
                            };
                            let now = log.ns(Instant::now());
                            let Some(i) = (rsp.request_id() as usize)
                                .checked_sub(1)
                                .filter(|&i| i < schedule.len())
                            else {
                                break;
                            };
                            let a = &schedule[i];
                            let written = written_ns[i].load(Ordering::SeqCst);
                            let (lat_ns, late_ns) = open_timing(a.due_ns, written, now);
                            let (end, trace) = match rsp {
                                Response::Output { tensor, trace }
                                    if same_bits(
                                        &tensor,
                                        &pools.targets[a.target].expect[a.slot][0],
                                    ) =>
                                {
                                    (End::Ok, Some(trace))
                                }
                                Response::Busy { .. } => (End::Dropped, None),
                                _ => (End::Wrong, None),
                            };
                            let Some(round) = out.book(cfg, a.due_ns, end, lat_ns) else {
                                continue;
                            };
                            round.late.record(late_ns);
                            if let (true, Some(trace)) = (cfg.traced, trace) {
                                let record = TraceRecord::new(
                                    pools.targets[a.target].model,
                                    now.saturating_sub(written) / 1000,
                                    trace,
                                )
                                .with_wire_bytes(
                                    request_bytes[i].load(Ordering::SeqCst) + reply_bytes,
                                );
                                let id = i as u64 + 1;
                                log.push(id, ROOT, None, written, now).attrs = stage_attrs(&record);
                                log.push(id, "client.recv", Some(ROOT), log.ns(read_start), now);
                                out.samples.push(Sample {
                                    lat_us: lat_ns as f64 / 1e3,
                                    record,
                                });
                            }
                        }
                        out.spans = log.spans;
                        out
                    })
                })
                .collect();
            keep_time();
            let send_spans = sender.join().unwrap_or_default();
            let per_reader: Vec<_> = handles.into_iter().filter_map(|h| h.join().ok()).collect();
            (send_spans, per_reader)
        });

        let mut all = ConnOut::new(cfg);
        all.spans = send_spans;
        for out in per_reader {
            all.absorb(out);
        }
        // Never answered (connection lost, stall bound): written or
        // not, it was due and it failed. The schedule says how many were
        // due in each round.
        let unanswered = schedule.len() as u64 - all.attempted;
        all.attempted += unanswered;
        all.failed += unanswered;
        for (i, round) in all.rounds.iter_mut().enumerate() {
            round.sent = schedule
                .iter()
                .filter(|a| cfg.round_of(a.due_ns) == Some(i))
                .count() as u64;
        }
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PhaseCfg {
        PhaseCfg {
            warmup: Duration::from_millis(100),
            rounds: 2,
            round_len: Duration::from_millis(100),
            traced: false,
            seed: 1,
            rate: None,
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn requests_fall_into_rounds_by_their_clock_and_warmup_and_drain_fall_out() {
        let cfg = cfg();
        let rounds: Vec<_> = [50, 100, 199, 200, 299, 300]
            .map(|ms| cfg.round_of(ms * MS))
            .to_vec();
        assert_eq!(rounds, [None, Some(0), Some(0), Some(1), Some(1), None]);
        let mut out = ConnOut::new(&cfg);
        assert!(out.book(&cfg, 50 * MS, End::Ok, MS).is_none());
        assert!(out.book(&cfg, 150 * MS, End::Ok, 2 * MS).is_some());
        assert!(out.book(&cfg, 150 * MS, End::Ok, 20 * MS).is_some());
        out.drop_all(&cfg, 250 * MS, 1);
        out.book(&cfg, 250 * MS, End::Wrong, MS);
        // Every request counts as attempted; only the measured ones land
        // in a round, and a failure is sent but neither ok nor in time,
        // whether it was dropped or answered wrongly.
        assert_eq!((out.attempted, out.failed, out.wrong), (5, 2, 1));
        let (a, b) = (&out.rounds[0], &out.rounds[1]);
        assert_eq!((a.sent, a.ok, a.in_slo), (2, 2, 1));
        assert_eq!((b.sent, b.ok, b.lat.count()), (2, 0, 0));
    }

    /// Nothing measured is left out: the rounds of a phase add up to
    /// every request of the measured span, the slow round included, and
    /// each round is charged the CPU spent inside it.
    #[test]
    fn the_rounds_of_a_phase_cover_the_whole_measured_span() {
        let cfg = PhaseCfg { rounds: 3, ..cfg() };
        let mut out = ConnOut::new(&cfg);
        for (i, (lat_ms, n)) in [(2, 50), (9, 11), (2, 48)].into_iter().enumerate() {
            for _ in 0..n {
                out.book(&cfg, (100 + 100 * i as u64) * MS, End::Ok, lat_ms * MS);
            }
        }
        let phase = Phase {
            cfg,
            cpu_ms: [0.0, 90.0, 190.0, 280.0].map(Some).to_vec(),
            rounds: out.rounds,
            attempted: out.attempted,
            failed: out.failed,
            wrong: out.wrong,
            samples: Vec::new(),
            spans: Vec::new(),
        };
        let whole = phase.whole();
        assert_eq!((whole.ok, whole.sent, phase.attempted), (109, 109, 109));
        assert!((phase.rate() - 109.0 / 0.3).abs() < 1e-9);
        assert_eq!(
            [0, 1, 2].map(|i| phase.cpu_in(i)),
            [90.0, 100.0, 90.0],
            "CPU between a round's two boundaries"
        );
        // The slow round is in the whole-span tail.
        assert!((whole.lat.percentile(0.99) / MS as f64 - 9.0).abs() < 0.05);
        let unavailable = Phase {
            cpu_ms: vec![None; 4],
            ..phase
        };
        assert!(unavailable.cpu_in(0).is_nan());
    }

    /// Simulate a generator that stalls 30 ms: three requests due 10 ms
    /// apart are all written at t = 40 ms and answered 1 ms later. Timed
    /// from the write each would read 1 ms; timed from its due time the
    /// stall shows on every request it delayed, and each lands in the
    /// round it was *due* in.
    #[test]
    fn due_time_latency_charges_a_stall_to_every_request_it_delayed() {
        let cfg = cfg();
        let mut out = ConnOut::new(&cfg);
        let (written, answered) = (140 * MS, 141 * MS);
        for due in [110 * MS, 120 * MS, 130 * MS] {
            let (lat, late) = open_timing(due, written, answered);
            assert_eq!(lat, answered - due);
            assert_eq!(late, written - due);
            out.book(&cfg, due, End::Ok, lat).unwrap().late.record(late);
        }
        let r = &out.rounds[0];
        assert_eq!(
            (r.sent, r.ok, r.in_slo),
            (3, 3, 0),
            "31, 21 and 11 ms all miss a 10 ms limit"
        );
        assert!((r.lat.percentile(0.5) / MS as f64 - 21.0).abs() < 0.1);
        assert!((r.late.percentile(1.0) / MS as f64 - 30.0).abs() < 0.1);
        // A clock read that lands before the due time is not negative
        // latency.
        assert_eq!(open_timing(10, 5, 8), (0, 0));
    }
}
