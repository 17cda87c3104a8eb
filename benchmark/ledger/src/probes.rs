//! In-process probes: each layer timed from outside, by calling its
//! public functions. They depend on no workload, so every traced pass
//! runs the same set. Sizes are the ones the six workloads exercise.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::bounded;
use djinn::protocol::{encode_infer_framed_into, FrameReader, Request, Response};
use djinn::{
    BatchConfig, ColocationPolicy, CpuExecutor, Device, DeviceScheduler, DispatchPolicy,
    DjinnClient, DjinnRouter, DjinnServer, EngineConfig, Executor, InferenceEngine,
    InferenceOutcome, ModelRegistry, RouterConfig, ServerConfig, ServerTrace, StreamMode,
};
use dnn::cache::{EmbedCache, ExactCache};
use dnn::profile::WorkloadProfile;
use dnn::zoo::App;
use dnn::Network;
use tensor::{Conv2dParams, GemmOptions, Shape, Tensor, Threading};

use crate::procfs;
use crate::spans::{Span, SpanLog};
use crate::stats::median;
use crate::workloads::{self, connect, Arrival, Pools, Spec, SLO_MS};

pub type Values = BTreeMap<&'static str, f64>;

/// Wall time spent on each timed probe.
const BUDGET: Duration = Duration::from_millis(40);

/// Median time of one call of `f`, ns. Calls are grouped so that one
/// clock read covers about a millisecond of work; at least five groups
/// run, then more until the budget is spent.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let one = t.elapsed().as_nanos().max(1);
    let group = (1_000_000 / one).clamp(1, 1_000_000) as usize;
    let deadline = Instant::now() + BUDGET;
    let mut times = Vec::new();
    while times.len() < 5 || Instant::now() < deadline {
        let t = Instant::now();
        for _ in 0..group {
            f();
        }
        times.push(t.elapsed().as_nanos() as f64 / group as f64);
    }
    median(&times)
}

fn random(shape: Shape, seed: u64) -> Tensor {
    Tensor::random_uniform(shape, 0.5, seed)
}

fn gemm_gflops(m: usize, n: usize, k: usize) -> f64 {
    let a = random(Shape::mat(m, k), 1);
    let b = random(Shape::mat(k, n), 2);
    let mut c = vec![0.0f32; m * n];
    let ns = per_call_ns(|| {
        tensor::sgemm(
            m,
            n,
            k,
            1.0,
            black_box(a.data()),
            black_box(b.data()),
            0.0,
            &mut c,
            GemmOptions::default(),
        )
        .expect("probe gemm dimensions are valid");
        black_box(&c);
    });
    (2 * m * n * k) as f64 / ns
}

fn tensor_probes(v: &mut Values) {
    // pos/chk/ner's first layer for one sentence and for a full batch;
    // one decode step of textgen's hidden layer.
    v.insert("tensor.sgemm_m28_gflops", gemm_gflops(28, 450, 350));
    v.insert("tensor.sgemm_m224_gflops", gemm_gflops(224, 450, 350));
    v.insert("tensor.sgemm_m1_gflops", gemm_gflops(1, 512, 512));
    // LeNet's second convolution (10 → 20 maps, 5×5 on 12×12) over the
    // 20 images of one `compute_dig` request.
    let p = Conv2dParams::new(20, 5, 1, 0);
    let input = random(Shape::nchw(20, 10, 12, 12), 3);
    let weights = random(Shape::nchw(20, 10, 5, 5), 4);
    let bias = vec![0.1f32; 20];
    let ns = per_call_ns(|| {
        black_box(
            tensor::conv2d(black_box(&input), &weights, &bias, &p)
                .expect("probe conv geometry is valid"),
        );
    });
    v.insert("tensor.conv2d_dig_us", ns / 1e3);
    let image = random(Shape::nchw(1, 10, 12, 12), 5);
    let ns = per_call_ns(|| {
        for _ in 0..20 {
            black_box(
                tensor::im2col(black_box(&image), 10, 12, 12, &p)
                    .expect("probe im2col geometry is valid"),
            );
        }
    });
    v.insert("tensor.im2col_dig_us", ns / 1e3);
}

fn forward_us(net: &Network, batch: usize) -> f64 {
    let input = random(net.def().input_shape().with_batch(batch), 6);
    per_call_ns(|| {
        black_box(
            net.forward(black_box(&input))
                .expect("probe input matches the model"),
        );
    }) / 1e3
}

fn flops(net: &Network, batch: usize) -> f64 {
    WorkloadProfile::of(net.def(), batch).map_or(f64::NAN, |p| p.total_flops())
}

fn dnn_probes(v: &mut Values, nets: &Nets) {
    v.insert("dnn.forward_dig_b20_us", forward_us(&nets.dig, 20));
    v.insert("dnn.forward_pos_b28_us", forward_us(&nets.pos, 28));
    v.insert("dnn.forward_pos_b224_us", forward_us(&nets.pos, 224));
    v.insert("dnn.forward_textgen_b1_us", forward_us(&nets.textgen, 1));
    v.insert("dnn.forward_tiny_mnist_us", forward_us(&nets.tiny_mnist, 1));
    v.insert("dnn.flops_dig_b20", flops(&nets.dig, 20));
    v.insert("dnn.flops_pos_b28", flops(&nets.pos, 28));
}

fn cache_probes(v: &mut Values) {
    // A `pos` sentence and its tag scores: the entry `zipf_cache_pos`
    // stores.
    let sentence = |seed| random(Shape::mat(28, 350), seed);
    let output = random(Shape::mat(28, 45), 7);
    let roomy = ExactCache::new(64 << 20);
    let (held, absent) = (sentence(8), sentence(9));
    roomy.insert(&held, &output);
    let ns = per_call_ns(|| {
        black_box(roomy.get(black_box(&held)));
    });
    v.insert("cache.exact_hit_ns", ns);
    let ns = per_call_ns(|| {
        black_box(roomy.get(black_box(&absent)));
    });
    v.insert("cache.exact_miss_ns", ns);
    // The workload's exact budget (2 MiB ≈ 47 entries) under a cycling
    // pool of 256: every insert evicts.
    let tight = ExactCache::new(2 << 20);
    let pool: Vec<Tensor> = (0..256).map(|i| sentence(100 + i)).collect();
    let mut next = 0;
    let ns = per_call_ns(|| {
        tight.insert(&pool[next % pool.len()], &output);
        next += 1;
    });
    v.insert("cache.exact_insert_evict_ns", ns);
    let rows = EmbedCache::new(8 << 20);
    let (row, out) = (vec![0.25f32; 350], vec![0.5f32; 450]);
    rows.insert_row(&row, &out);
    let ns = per_call_ns(|| {
        black_box(rows.get_row(black_box(&row)));
    });
    v.insert("cache.embed_row_hit_ns", ns);
}

fn protocol_probes(v: &mut Values) {
    let mut buf = BytesMut::new();
    let mut encode_infer = |model: &str, input: &Tensor| {
        per_call_ns(|| {
            encode_infer_framed_into(&mut buf, model, black_box(input), 42)
                .expect("probe frame encodes");
            black_box(&buf);
        })
    };
    let tiny = random(Shape::nchw(1, 1, 12, 12), 10);
    let pos = random(Shape::mat(28, 350), 11);
    let dig = random(Shape::nchw(20, 1, 28, 28), 12);
    v.insert(
        "protocol.encode_infer_tiny_ns",
        encode_infer("tiny-mnist", &tiny),
    );
    v.insert("protocol.encode_infer_pos_ns", encode_infer("pos", &pos));
    v.insert(
        "protocol.encode_infer_dig_us",
        encode_infer("dig", &dig) / 1e3,
    );

    let decode_infer = |model: &str, input: &Tensor| {
        let payload = Request::Infer {
            model: model.to_string(),
            input: input.clone(),
            request_id: 42,
        }
        .encode()
        .expect("probe frame encodes");
        per_call_ns(|| {
            black_box(Request::decode(black_box(&payload)).expect("probe frame decodes"));
        })
    };
    v.insert("protocol.decode_infer_pos_ns", decode_infer("pos", &pos));
    v.insert(
        "protocol.decode_infer_dig_us",
        decode_infer("dig", &dig) / 1e3,
    );

    let trace = ServerTrace {
        request_id: 42,
        ..ServerTrace::default()
    };
    let output = Response::Output {
        tensor: random(Shape::mat(28, 45), 13),
        trace,
    };
    let ns = per_call_ns(|| {
        black_box(&output)
            .encode_framed_into(&mut buf)
            .expect("probe frame encodes");
    });
    v.insert("protocol.encode_output_pos_ns", ns);
    let payload = output.encode().expect("probe frame encodes");
    let ns = per_call_ns(|| {
        black_box(Response::decode(black_box(&payload)).expect("probe frame decodes"));
    });
    v.insert("protocol.decode_output_pos_ns", ns);

    // One generated token on the wire: a 256-score chunk, encoded as the
    // server does and decoded as the client does.
    let chunk = Response::Chunk {
        tensor: random(Shape::mat(1, 256), 14),
        trace,
        seq: 3,
        last: false,
    };
    let ns = per_call_ns(|| {
        black_box(&chunk)
            .encode_framed_into(&mut buf)
            .expect("probe frame encodes");
        black_box(Response::decode(black_box(&buf[4..])).expect("probe frame decodes"));
    });
    v.insert("protocol.chunk_roundtrip_ns", ns);
    v.insert("protocol.bytes_per_token", buf.len() as f64);

    // Borrowed framing: 1000 tiny requests already in memory, pulled
    // out one frame at a time.
    encode_infer_framed_into(&mut buf, "tiny-mnist", &tiny, 42).expect("probe frame encodes");
    let wire: Vec<u8> = buf.iter().copied().cycle().take(buf.len() * 1000).collect();
    let ns = per_call_ns(|| {
        let mut source = &wire[..];
        let mut reader = FrameReader::new();
        let mut frames = 0;
        while let Ok(Some(frame)) = reader.read_frame_ref(&mut source) {
            black_box(frame);
            frames += 1;
        }
        assert_eq!(frames, 1000, "every frame is read back");
    });
    v.insert("protocol.read_frame_ref_ns", ns / 1000.0);
}

/// An executor that does no math: what is left is the engine itself.
struct Noop;

impl Executor for Noop {
    fn infer(&self, _network: &Arc<Network>, input: &Tensor) -> djinn::Result<InferenceOutcome> {
        Ok(InferenceOutcome {
            output: Tensor::zeros(Shape::mat(input.shape().batch(), 9)),
            device_latency: Duration::ZERO,
        })
    }

    fn backend_name(&self) -> &'static str {
        "noop"
    }
}

/// An executor wrapper that records every call made through it: when,
/// and with how many rows.
pub struct Recording<E> {
    inner: E,
    epoch: Instant,
    /// (start ns, end ns, rows) per call.
    pub calls: Mutex<Vec<(u64, u64, usize)>>,
}

impl<E> Recording<E> {
    pub fn new(inner: E, epoch: Instant) -> Self {
        Recording {
            inner,
            epoch,
            calls: Mutex::new(Vec::new()),
        }
    }

    fn record<T>(&self, rows: usize, call: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = call();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.calls
            .lock()
            .expect("no recorder panics while holding the log")
            .push((start, end, rows));
        out
    }
}

impl<E: Executor> Executor for Recording<E> {
    fn infer(&self, network: &Arc<Network>, input: &Tensor) -> djinn::Result<InferenceOutcome> {
        self.record(input.shape().batch(), || self.inner.infer(network, input))
    }

    fn infer_budgeted_cached(
        &self,
        network: &Arc<Network>,
        input: &Tensor,
        budget: Threading,
        embed: Option<&EmbedCache>,
    ) -> djinn::Result<InferenceOutcome> {
        self.record(input.shape().batch(), || {
            self.inner
                .infer_budgeted_cached(network, input, budget, embed)
        })
    }

    fn preferred_threads(&self, batch: usize) -> usize {
        self.inner.preferred_threads(batch)
    }

    fn backend_name(&self) -> &'static str {
        "recording"
    }
}

/// The batched engine as `open_nlp_shared` configures it.
fn batched_config() -> EngineConfig {
    EngineConfig {
        policy: DispatchPolicy::Batched(BatchConfig {
            max_batch: 224,
            max_delay: Duration::from_millis(2),
        }),
        colocation: ColocationPolicy::Dynamic {
            sla: Duration::from_millis(SLO_MS as u64),
        },
        ..EngineConfig::default()
    }
}

fn engine_probes(v: &mut Values, nets: &Nets, spans: &mut Vec<Span>) {
    let input = random(Shape::mat(1, 30), 15);
    let epoch = Instant::now();
    for (name, config) in [
        ("engine.noop_immediate_us", EngineConfig::default()),
        ("engine.noop_batched_us", batched_config()),
    ] {
        let recorder = Arc::new(Recording::new(Noop, epoch));
        let engine = InferenceEngine::start(
            "tiny-senna",
            Arc::clone(&nets.tiny_senna),
            recorder.clone(),
            config,
        );
        let mut log = SpanLog::new(epoch);
        let mut job = 0u64;
        let ns = per_call_ns(|| {
            let start = Instant::now();
            black_box(engine.infer(input.clone()).expect("noop engine answers"));
            job += 1;
            log.push(
                job,
                "engine.submit_wait",
                None,
                log.ns(start),
                log.ns(Instant::now()),
            );
        });
        v.insert(name, ns / 1e3);
        // One caller, one job at a time: the k-th executor call served
        // the k-th job, so it is that job's child span.
        let calls = recorder.calls.lock().expect("engine workers are idle");
        for (k, &(start, end, _)) in calls.iter().enumerate() {
            log.push(
                k as u64 + 1,
                "executor.infer",
                Some("engine.submit_wait"),
                start,
                end,
            );
        }
        // Keep a sample: the probe makes tens of thousands of calls.
        spans.extend(log.spans.into_iter().filter(|s| s.trace <= 256));
    }
    // Admission alone: tickets are collected and waited on off the clock.
    let engine = InferenceEngine::start(
        "tiny-senna",
        Arc::clone(&nets.tiny_senna),
        Arc::new(Noop),
        EngineConfig::default(),
    );
    let mut tickets = Vec::new();
    let mut admit = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        for _ in 0..32 {
            tickets.push(
                engine
                    .submit(input.clone())
                    .expect("32 jobs fit a 128-deep queue"),
            );
        }
        admit.push(t.elapsed().as_nanos() as f64 / 32.0);
        for t in tickets.drain(..) {
            t.wait().expect("noop engine answers");
        }
    }
    v.insert("engine.submit_ns", median(&admit));

    // The stream path with no wire: 32 greedy tokens from `textgen`.
    let engine = InferenceEngine::start(
        "textgen",
        Arc::clone(&nets.textgen),
        Arc::new(CpuExecutor::default()),
        EngineConfig::default(),
    );
    let prompt = Tensor::from_fn(Shape::mat(1, 256), |i| if i == 17 { 1.0 } else { 0.0 });
    let mut steps = Vec::new();
    for _ in 0..8 {
        let (tx, rx) = bounded(64);
        let t = Instant::now();
        engine
            .submit_stream_routed(
                prompt.clone(),
                1,
                StreamMode::Generative { max_tokens: 32 },
                tx,
            )
            .expect("stream admitted");
        let chunks = rx.iter().count();
        assert_eq!(chunks, 32, "the stream delivers every token");
        steps.push(t.elapsed().as_nanos() as f64 / 32e3);
    }
    v.insert("engine.stream_step_us", median(&steps));
    // OS threads the engine adds while 8 streams are live.
    let before = procfs::threads();
    let (tx, rx) = bounded(8 * 64);
    for s in 0..8 {
        engine
            .submit_stream_routed(
                prompt.clone(),
                s,
                StreamMode::Generative { max_tokens: 64 },
                tx.clone(),
            )
            .expect("stream admitted");
    }
    let during = procfs::threads();
    drop(tx);
    assert_eq!(
        rx.iter().count(),
        8 * 64,
        "every stream delivers every token"
    );
    v.insert(
        "engine.stream_threads",
        before
            .zip(during)
            .map_or(f64::NAN, |(b, d)| d as f64 - b as f64),
    );
}

fn device_probes(v: &mut Values) {
    let device = DeviceScheduler::new(Device::Cpu { threads: 1 });
    device.register_sharer();
    let ns = per_call_ns(|| {
        black_box(device.acquire(1));
    });
    v.insert("device.acquire_release_ns", ns);
    // Two threads compete for a one-unit device, each holding it for
    // ~20 µs of spinning: what an acquire costs on average when the unit
    // may be taken (the mean, because the median acquire finds it free).
    device.register_sharer();
    let contend = || {
        let deadline = Instant::now() + BUDGET;
        let mut waits = Vec::new();
        while Instant::now() < deadline {
            let t = Instant::now();
            let lease = device.acquire(1);
            waits.push(t.elapsed().as_nanos() as f64 / 1e3);
            let hold = Instant::now();
            while hold.elapsed() < Duration::from_micros(20) {
                std::hint::spin_loop();
            }
            drop(lease);
        }
        waits
    };
    let waits = std::thread::scope(|s| {
        let other = s.spawn(contend);
        let mut mine = contend();
        mine.extend(other.join().unwrap_or_default());
        mine
    });
    v.insert("device.contended_acquire_us", crate::stats::mean(&waits));
}

/// Window-1 ping-pong: the median round trip of `n` requests, µs.
fn rtt_w1_us(
    client: &mut DjinnClient,
    model: &str,
    input: &Tensor,
    n: usize,
) -> Result<f64, String> {
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        client
            .infer(model, input)
            .map_err(|e| format!("ping `{model}`: {e}"))?;
        rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&rtts))
}

fn tiny_server() -> Result<DjinnServer, String> {
    let mut reg = ModelRegistry::with_tiny_test_zoo().map_err(|e| e.to_string())?;
    reg.register("pos", workloads::network("pos")?);
    DjinnServer::start(reg, ServerConfig::default()).map_err(|e| e.to_string())
}

/// Probes that need a running server, client and router: a default
/// tiny-zoo server (plus `pos`), and a router over two of them.
fn serving_probes(v: &mut Values) -> Result<(), String> {
    let servers = [tiny_server()?, tiny_server()?];
    let addr = servers[0].local_addr();
    let senna = random(Shape::mat(1, 30), 16);
    let mnist = random(Shape::nchw(1, 1, 12, 12), 17);
    let pos = random(Shape::mat(28, 350), 18);

    let mut connects = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        drop(connect(addr)?);
        connects.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    v.insert("server.connect_us", median(&connects));

    let mut client = connect(addr)?;
    v.insert(
        "server.rtt_w1_p50_us",
        rtt_w1_us(&mut client, "tiny-senna", &senna, 2000)?,
    );

    // `submit` alone (encode + one write); replies are claimed off the
    // clock, eight at a time.
    for (name, model, input) in [
        ("client.submit_tiny_us", "tiny-mnist", &mnist),
        ("client.submit_pos_us", "pos", &pos),
    ] {
        let mut calls = Vec::new();
        for _ in 0..100 {
            for _ in 0..8 {
                let t = Instant::now();
                client.submit(model, input).map_err(|e| e.to_string())?;
                calls.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            for _ in 0..8 {
                client.recv_next().map_err(|e| e.to_string())?;
            }
        }
        v.insert(name, median(&calls));
    }

    // What 64 connections that were answered once and then sit idle cost
    // the server.
    let before = procfs::threads().zip(procfs::rss_kb());
    let mut idle: Vec<_> = (0..64).map(|_| connect(addr)).collect::<Result<_, _>>()?;
    // A reply on each means its worker has run and its reply pump exists.
    for conn in &mut idle {
        rtt_w1_us(conn, "tiny-senna", &senna, 1)?;
    }
    let after = procfs::threads().zip(procfs::rss_kb());
    drop(idle);
    let per_conn = |pick: fn((u64, u64)) -> u64| {
        before
            .zip(after)
            .map_or(f64::NAN, |(b, a)| (pick(a) as f64 - pick(b) as f64) / 64.0)
    };
    v.insert("server.threads_per_conn", per_conn(|(threads, _)| threads));
    v.insert("server.rss_kb_per_idle_conn", per_conn(|(_, rss)| rss));

    let router = DjinnRouter::start(RouterConfig {
        replicas: servers.iter().map(DjinnServer::local_addr).collect(),
        ..RouterConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut routed = connect(router.local_addr())?;
    v.insert(
        "router.rtt_w1_p50_us",
        rtt_w1_us(&mut routed, "tiny-senna", &senna, 300)?,
    );
    Ok(())
}

struct Nets {
    dig: Network,
    pos: Network,
    textgen: Arc<Network>,
    tiny_mnist: Arc<Network>,
    tiny_senna: Arc<Network>,
}

/// Runs every workload-independent probe.
pub fn run(spans: &mut Vec<Span>) -> Result<Values, String> {
    let tiny = ModelRegistry::with_tiny_test_zoo().map_err(|e| e.to_string())?;
    let nets = Nets {
        dig: dnn::zoo::network(App::Dig).map_err(|e| e.to_string())?,
        pos: workloads::network("pos")?,
        textgen: Arc::new(workloads::network("textgen")?),
        tiny_mnist: tiny.get("tiny-mnist").map_err(|e| e.to_string())?,
        tiny_senna: tiny.get("tiny-senna").map_err(|e| e.to_string())?,
    };
    let mut v = Values::new();
    tensor_probes(&mut v);
    dnn_probes(&mut v, &nets);
    cache_probes(&mut v);
    protocol_probes(&mut v);
    engine_probes(&mut v, &nets, spans);
    device_probes(&mut v);
    serving_probes(&mut v)?;
    Ok(v)
}

/// Feeds `schedule` to in-process engines built like the
/// `open_nlp_shared` server's (batched, one shared device unit) through
/// a recording executor, and reports how full the batches it formed
/// were. Every reply is checked against the oracle.
pub fn batch_replay(
    spec: &Spec,
    pools: &Pools,
    schedule: &[Arrival],
    spans: &mut Vec<Span>,
) -> Result<(f64, f64), String> {
    let epoch = Instant::now();
    let recorder = Arc::new(Recording::new(CpuExecutor::default(), epoch));
    let device = Arc::new(DeviceScheduler::new(Device::Cpu { threads: 1 }));
    let reg = workloads::registry(spec)?;
    let engines: Vec<InferenceEngine> = pools
        .targets
        .iter()
        .map(|t| {
            Ok(InferenceEngine::start_shared(
                t.model,
                reg.get(t.model).map_err(|e| e.to_string())?,
                recorder.clone(),
                batched_config(),
                Arc::clone(&device),
            ))
        })
        .collect::<Result<_, String>>()?;
    let (tx, rx) = std::sync::mpsc::channel();
    let waited = std::thread::scope(|s| {
        // Tickets are awaited in submission order on a second thread, so
        // a span ends when its reply was *seen*, which for a reply that
        // overtook an earlier one is a little after it was ready.
        let waiter = s.spawn(move || {
            let mut log = SpanLog::new(epoch);
            let mut bad = 0usize;
            for (i, start, ticket) in rx {
                let a: &Arrival = &schedule[i];
                let ok = djinn::Ticket::wait(ticket).is_ok_and(|out| {
                    workloads::same_bits(&out, &pools.targets[a.target].expect[a.slot][0])
                });
                bad += usize::from(!ok);
                log.push(
                    i as u64 + 1,
                    "engine.submit_wait",
                    None,
                    log.ns(start),
                    log.ns(Instant::now()),
                );
            }
            (bad, log.spans)
        });
        let mut shed = 0usize;
        for (i, a) in schedule.iter().enumerate() {
            std::thread::sleep(Duration::from_nanos(a.due_ns).saturating_sub(epoch.elapsed()));
            let start = Instant::now();
            match engines[a.target].submit(pools.targets[a.target].inputs[a.slot].clone()) {
                Ok(ticket) => drop(tx.send((i, start, ticket))),
                Err(_) => shed += 1,
            }
        }
        drop(tx);
        waiter.join().map(|(bad, spans)| (bad + shed, spans))
    });
    let (bad, waits) = waited.map_err(|_| "the replay waiter panicked".to_string())?;
    if bad > 0 {
        return Err(format!(
            "{bad} replayed requests were shed or differ from the oracle"
        ));
    }
    drop(engines);
    let calls = recorder.calls.lock().expect("engines are shut down");
    let mut log = SpanLog::new(epoch);
    for &(start, end, rows) in calls.iter() {
        log.push(0, "executor.infer", None, start, end).attrs = vec![("rows", rows as u64)];
    }
    spans.extend(waits);
    spans.extend(log.spans);
    let rows: Vec<f64> = calls.iter().map(|&(_, _, rows)| rows as f64).collect();
    let mean = crate::stats::mean(&rows);
    Ok((mean, mean / 224.0))
}
