//! Streaming latency bench (DESIGN.md §15): time-to-first-token vs.
//! whole-stream latency, direct and through the router tier.
//!
//! ```text
//! cargo run -p bench --bin streaming --release [-- --smoke]
//! ```
//!
//! Each arm drives generative streams (`tiny-lm`, 32 tokens greedy
//! decode) over one connection and stamps, per stream, the client-clock
//! time to the first chunk (TTFT) and to the final chunk (stream
//! total), while checking every chunk's sequence number. The replicas
//! run with a per-forward service delay (the same device-bound backend
//! model the scale-out benches use): tiny-lm's real forward pass is
//! single-digit microseconds, so without it the wire dominates and every
//! chunk is buffered before the client reads the first — the regime the
//! paper cares about is millisecond-scale DNN passes. Two claims are
//! gated per run:
//!
//! 1. **Ordering**: zero out-of-order or missing chunks, in both arms —
//!    every stream delivers `seq` 0..N with exactly one final flag.
//! 2. **Streaming wins**: through the router, TTFT p50 is below 25% of
//!    the stream-total p50 — a client acting on the first token waits
//!    for one decode step, not the whole generation.
//!
//! A third, in-process arm measures the decode scheduler itself, with no
//! wire and no modelled delay: `textgen` (real ~0.5 ms forward passes)
//! behind one default engine, at 1 / 8 / 64 live 32-token streams —
//! tokens/s and the inter-token gap as the receiver sees it. This is the
//! arm that shows continuous batching: one decode tick stacks every live
//! stream's next row, so tokens/s grows with the number of live streams
//! instead of staying at the one-row rate. Reported, not gated.
//!
//! Output: a per-arm table (TTFT p50/p99, stream total p50/p99,
//! TTFT/total ratio, tokens/s) and the in-process table, written to
//! stdout and, in the full run, `results/streaming_bench.txt` plus CSV.
//! `--smoke` shrinks the stream counts and writes only to stdout but
//! keeps both gates — the CI job uploads its tee'd copy as the artifact.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::render::{num, Table};
use djinn::{
    CpuExecutor, DjinnClient, DjinnRouter, DjinnServer, EngineConfig, InferenceEngine,
    ModelRegistry, RouterConfig, ServerConfig, StreamMode,
};
use tensor::{Shape, Tensor};

/// Generated tokens per stream. Long enough that the final chunk lands
/// ~32 decode steps after the first: the TTFT/total ratio has room to
/// show streaming's win even on the microsecond-scale tiny LM.
const TOKENS: u32 = 32;

/// Streams per arm.
const STREAMS_FULL: usize = 64;
const STREAMS_SMOKE: usize = 24;

/// tiny-lm's vocabulary width (one-hot prompt rows).
const VOCAB: usize = 16;

/// Per-forward-pass device time: each decoded token costs this much on
/// the replica, so a 32-token stream runs ~64 ms end to end while the
/// first token is ready after ~2 ms.
const TOKEN_COST: Duration = Duration::from_micros(2_000);

/// One measured stream.
struct StreamSample {
    ttft: Duration,
    total: Duration,
    tokens: u64,
}

/// Everything one arm produced.
struct ArmResult {
    samples: Vec<StreamSample>,
    out_of_order: usize,
    elapsed: Duration,
}

fn one_hot_prompt(token: usize) -> Tensor {
    let mut row = vec![0.0f32; VOCAB];
    row[token % VOCAB] = 1.0;
    Tensor::from_vec(Shape::mat(1, VOCAB), row).expect("prompt tensor")
}

/// Runs `streams` generative streams against `addr`, stamping TTFT and
/// total per stream and counting sequence violations.
fn run_arm(addr: std::net::SocketAddr, streams: usize) -> Result<ArmResult, String> {
    let mut client = DjinnClient::connect_with_timeout(addr, Duration::from_secs(10))
        .map_err(|e| format!("connect: {e}"))?;
    let mut samples = Vec::with_capacity(streams);
    let mut out_of_order = 0usize;
    let started = Instant::now();
    for i in 0..streams {
        let prompt = one_hot_prompt(i);
        let t0 = Instant::now();
        let id = client
            .stream_infer(
                "tiny-lm",
                &prompt,
                StreamMode::Generative { max_tokens: TOKENS },
            )
            .map_err(|e| format!("stream {i}: {e}"))?;
        let mut ttft = None;
        let mut tokens = 0u64;
        let mut expect_seq = 0u32;
        loop {
            let chunk = client
                .recv_chunk(id)
                .map_err(|e| format!("stream {i} chunk {expect_seq}: {e}"))?;
            if ttft.is_none() {
                ttft = Some(t0.elapsed());
            }
            if chunk.seq != expect_seq {
                out_of_order += 1;
            }
            expect_seq = chunk.seq + 1;
            tokens += 1;
            if chunk.last {
                break;
            }
        }
        if tokens != u64::from(TOKENS) {
            return Err(format!("stream {i}: {tokens} chunks, expected {TOKENS}"));
        }
        samples.push(StreamSample {
            ttft: ttft.expect("at least one chunk"),
            total: t0.elapsed(),
            tokens,
        });
    }
    Ok(ArmResult {
        samples,
        out_of_order,
        elapsed: started.elapsed(),
    })
}

/// Live-stream counts of the in-process arm, and the tokens each one
/// decodes in all (in rounds of `live` concurrent 32-token streams).
const LIVE: [usize; 3] = [1, 8, 64];
const ENGINE_TOKENS_FULL: usize = 8192;
const ENGINE_TOKENS_SMOKE: usize = 2048;

/// `textgen` behind one default engine, `live` streams at a time, no
/// wire: returns (tokens/s, inter-token gap p50 ms, p99 ms).
fn run_engine_arm(
    engine: &InferenceEngine,
    live: usize,
    total_tokens: usize,
) -> Result<(f64, f64, f64), String> {
    let width = dnn::zoo::textgen().input_shape().dims()[1];
    let rounds = (total_tokens / (live * TOKENS as usize)).max(1);
    let mut gaps = Vec::with_capacity(total_tokens);
    let mut tokens = 0usize;
    let started = Instant::now();
    for round in 0..rounds {
        let (tx, rx) = crossbeam::channel::bounded(live * TOKENS as usize);
        for s in 0..live {
            let at = (round * live + s) * 7 % width;
            let prompt = Tensor::from_fn(Shape::mat(1, width), |i| f32::from(i == at));
            engine
                .submit_stream_routed(
                    prompt,
                    s as u64,
                    StreamMode::Generative { max_tokens: TOKENS },
                    tx.clone(),
                )
                .map_err(|e| format!("stream {s} of round {round}: {e}"))?;
        }
        drop(tx);
        let mut last: Vec<Option<Instant>> = vec![None; live];
        for reply in rx.iter() {
            reply.result.map_err(|e| format!("chunk: {e}"))?;
            let now = Instant::now();
            if let Some(prev) = last[reply.token as usize].replace(now) {
                gaps.push((now - prev).as_secs_f64() * 1e3);
            }
            tokens += 1;
        }
    }
    if tokens != rounds * live * TOKENS as usize {
        return Err(format!("{live} live: {tokens} chunks arrived"));
    }
    Ok((
        tokens as f64 / started.elapsed().as_secs_f64(),
        pct_ms(&gaps, 0.5),
        pct_ms(&gaps, 0.99),
    ))
}

/// Percentile over millisecond samples (nearest-rank).
fn pct_ms(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let streams = if smoke { STREAMS_SMOKE } else { STREAMS_FULL };

    // Two tiny-zoo replicas fronted by a load-aware router: the routed
    // arm measures the full scale-out path the acceptance gate names.
    let start_replica = || {
        let registry = ModelRegistry::with_tiny_test_zoo().expect("tiny zoo builds");
        let config = ServerConfig {
            service_delay: Some(TOKEN_COST),
            ..ServerConfig::default()
        };
        DjinnServer::start(registry, config).expect("replica starts")
    };
    let replica_a = start_replica();
    let replica_b = start_replica();
    let router = match DjinnRouter::start(RouterConfig {
        replicas: vec![replica_a.local_addr(), replica_b.local_addr()],
        stats_interval: Duration::from_millis(10),
        ..RouterConfig::default()
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("router: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut summary = Table::new(
        "streaming_ttft",
        "Generative streaming (tiny-lm, 32 tokens greedy): TTFT vs. \
         whole-stream latency, direct and through the router",
        &[
            "Arm",
            "Streams",
            "TTFT p50 ms",
            "TTFT p99 ms",
            "Total p50 ms",
            "Total p99 ms",
            "TTFT/total",
            "tokens/s",
        ],
    );

    let mut total_out_of_order = 0usize;
    let mut router_ratio = f64::NAN;
    for (arm, addr) in [
        ("direct", replica_a.local_addr()),
        ("router", router.local_addr()),
    ] {
        let r = match run_arm(addr, streams) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{arm} arm failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        total_out_of_order += r.out_of_order;
        let ttfts: Vec<f64> = r
            .samples
            .iter()
            .map(|s| s.ttft.as_secs_f64() * 1e3)
            .collect();
        let totals: Vec<f64> = r
            .samples
            .iter()
            .map(|s| s.total.as_secs_f64() * 1e3)
            .collect();
        let tokens: u64 = r.samples.iter().map(|s| s.tokens).sum();
        let ratio = pct_ms(&ttfts, 0.5) / pct_ms(&totals, 0.5);
        if arm == "router" {
            router_ratio = ratio;
        }
        summary.push(vec![
            arm.into(),
            streams.to_string(),
            num(pct_ms(&ttfts, 0.5)),
            num(pct_ms(&ttfts, 0.99)),
            num(pct_ms(&totals, 0.5)),
            num(pct_ms(&totals, 0.99)),
            format!("{:.1}%", ratio * 100.0),
            num(tokens as f64 / r.elapsed.as_secs_f64()),
        ]);
        if r.out_of_order != 0 {
            eprintln!("{arm} arm: {} out-of-order chunks", r.out_of_order);
        }
    }

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();

    let mut decode = Table::new(
        "streaming_decode",
        "In-process decode (textgen, 32 tokens greedy, one default engine, \
         no wire): live streams vs. tokens/s and inter-token gap",
        &["Live streams", "tokens/s", "Gap p50 ms", "Gap p99 ms"],
    );
    let textgen = dnn::Network::with_random_weights(dnn::zoo::textgen(), 0x7E47)
        .expect("textgen definition is statically valid");
    let engine = InferenceEngine::start(
        "textgen",
        Arc::new(textgen),
        Arc::new(CpuExecutor::default()),
        EngineConfig::default(),
    );
    let engine_tokens = if smoke {
        ENGINE_TOKENS_SMOKE
    } else {
        ENGINE_TOKENS_FULL
    };
    for live in LIVE {
        match run_engine_arm(&engine, live, engine_tokens) {
            Ok((rate, p50, p99)) => {
                decode.push(vec![live.to_string(), num(rate), num(p50), num(p99)]);
            }
            Err(e) => {
                eprintln!("in-process arm failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    engine.shutdown();

    let ordered = total_out_of_order == 0;
    let streaming_wins = router_ratio < 0.25;
    let mut out = String::new();
    out.push_str(&summary.to_text());
    out.push('\n');
    out.push_str(&decode.to_text());
    out.push('\n');
    out.push_str(&format!(
        "verdict: all chunks in order: {}; routed TTFT p50 at {:.1}% of \
         stream-total p50 (gate: < 25%): {}\n",
        if ordered { "yes" } else { "NO" },
        router_ratio * 100.0,
        if streaming_wins { "yes" } else { "NO" },
    ));
    print!("{out}");
    if !smoke {
        let _ = std::fs::create_dir_all("results");
        if let Err(e) = std::fs::write("results/streaming_bench.txt", &out) {
            eprintln!("warning: could not write results/streaming_bench.txt: {e}");
        }
        let _ = summary.write_csv(std::path::Path::new("results"));
        let _ = decode.write_csv(std::path::Path::new("results"));
    }
    if ordered && streaming_wins {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
