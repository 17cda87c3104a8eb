//! One workload, start to finish: set-up (timed, several times),
//! warm-up, the untraced pass that gives the end-to-end metrics, then
//! the traced pass that gives the per-layer ones.

use std::time::{Duration, Instant};

use djinn::protocol::{Request, Response};
use djinn::{CacheMode, ModelStats, ServerTrace, StreamMode, TraceRecord};

use crate::json::Json;
use crate::load::{self, Phase, PhaseCfg, Round};
use crate::metrics::{self, DRIVER, END_TO_END, LADDER, PER_LAYER, SUM_GAP_LIMIT};
use crate::probes::{self, Values};
use crate::spans::{self, Span};
use crate::stats::{median, percentile, Reading};
use crate::workloads::{
    connect, poisson_schedule, Pools, Spec, Stack, Traffic, IO_TIMEOUT, SLO_MS,
};
use crate::{procfs, Opts, Trace};

/// Warm-up before the first measured round on a fresh server, and the
/// shorter settle time before later phases on an already warm one.
const WARMUP: Duration = Duration::from_millis(1500);
const SETTLE: Duration = Duration::from_millis(300);
/// The untraced pass is `--seconds` of back-to-back rounds of about
/// `Spec::round_secs` each; every end-to-end metric is computed per
/// round and reported as the median of rounds, so the more rounds, the
/// more stalls of the host it takes to move the result. Each phase of
/// the traced pass is one such round.
fn rounds_in(seconds: u64, round_secs: u64) -> u32 {
    (seconds / round_secs).max(1) as u32
}
/// Cold set-ups timed per run; `setup_s` is their median. A set-up
/// takes milliseconds and the host's slow spells last longer, so the
/// repeats are spaced out to not all fall into the same spell.
const SETUPS: usize = 15;
const SETUP_SPACING: Duration = Duration::from_millis(100);

pub struct Outcome {
    spec: Spec,
    end_to_end: Vec<(&'static str, Reading)>,
    per_layer: Values,
    span_summary: Json,
    attempted: usize,
    /// Requests that did not end in a right answer, and of those, the
    /// ones that ended in a wrong one. A request the system dropped
    /// (refused, timed out) is a failure the metrics carry; only a wrong
    /// answer fails the run: a host that stalls must not look like a bug.
    failed: usize,
    wrong: usize,
    /// Why the run fails although every reply was right (the trace no
    /// longer adds up).
    complaint: Option<String>,
}

pub fn run(spec: &Spec, opts: &Opts) -> Result<Outcome, String> {
    let pools = Pools::build(spec, opts.seed)?;
    let rounds = rounds_in(opts.seconds, spec.round_secs());
    let round_len = Duration::from_secs(opts.seconds) / rounds;
    let mut out = Outcome {
        spec: spec.clone(),
        end_to_end: Vec::new(),
        per_layer: Values::new(),
        span_summary: Json::obj(),
        attempted: 0,
        failed: 0,
        wrong: 0,
        complaint: None,
    };

    // Set-up, from nothing to a verified first reply on every
    // connection, several times over; the last one is kept and used.
    let mut setups = Vec::new();
    let mut stack = None;
    let timed = if opts.trace == Trace::On { 1 } else { SETUPS };
    for _ in 0..timed {
        if stack.take().is_some() {
            std::thread::sleep(SETUP_SPACING);
        }
        let t = Instant::now();
        let s = Stack::start(spec)?;
        s.first_replies(spec, &pools)?;
        setups.push(t.elapsed().as_secs_f64());
        stack = Some(s);
    }
    let stack = stack.expect("at least one set-up ran");
    let one_round = |warmup, traced, rate| PhaseCfg {
        warmup,
        rounds: 1,
        round_len,
        traced,
        seed: opts.seed,
        rate,
    };

    let mut warm = false;
    if opts.trace != Trace::On {
        let full = PhaseCfg {
            rounds: rounds as usize,
            ..one_round(WARMUP, false, None)
        };
        let p = load::run(spec, &pools, stack.addr, full)?;
        warm = true;
        out.count(&p);
        let n = setups.len();
        out.end_to_end
            .push(("setup_s", Reading::median_of(setups, vec![1; n])));
        out.end_to_end.extend(end_to_end(spec, &p));
        let peak = procfs::peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0);
        out.end_to_end
            .push(("peak_rss_mb", Reading::median_of(vec![peak], vec![1])));
    }
    if opts.trace == Trace::Off {
        return Ok(out);
    }

    // The traced pass: one untraced round and one traced round on the
    // same server (their ratio is what tracing costs), then what only
    // this workload can show, then the probes.
    let mut all_spans: Vec<Span> = Vec::new();
    let plain = load::run(
        spec,
        &pools,
        stack.addr,
        one_round(if warm { SETTLE } else { WARMUP }, false, None),
    )?;
    out.count(&plain);
    let stats_before = server_stats(&stack)?;
    let traced = load::run(spec, &pools, stack.addr, one_round(SETTLE, true, None))?;
    out.count(&traced);
    let stats_after = server_stats(&stack)?;
    let mut v = probes::run(&mut all_spans)?;
    v.extend(from_traffic(
        spec,
        &pools,
        &traced,
        &stats_before,
        &stats_after,
    ));
    // On the open loop the schedule fixes the rate: what tracing could
    // cost there is replies.
    v.insert("bench.trace_overhead_ratio", traced.rate() / plain.rate());
    // The tail the clients saw in the untraced round: one round's
    // `lat_p99_ms`, for the driver, which gets that metric no other way.
    v.insert(
        "client.lat_p99_ms",
        plain.whole().lat.percentile(0.99) / 1e6,
    );

    if spec.routed() {
        // Per-replica totals before anything is sent around the router.
        let per_replica: Vec<f64> = stack
            .replicas
            .iter()
            .map(|&addr| {
                Ok(requests(
                    &connect(addr)?.stats().map_err(|e| e.to_string())?,
                ))
            })
            .collect::<Result<_, String>>()?;
        v.insert(
            "router.replica_share_max",
            per_replica.iter().copied().fold(0.0, f64::max) / per_replica.iter().sum::<f64>(),
        );
        // The same traffic straight at one replica: the only difference
        // is the router hop.
        let direct = load::run(
            spec,
            &pools,
            stack.replicas[0],
            one_round(SETTLE, false, None),
        )?;
        out.count(&direct);
        let (routed_lat, direct_lat) = (plain.whole().lat, direct.whole().lat);
        let added = |q| (routed_lat.percentile(q) - direct_lat.percentile(q)) / 1e3;
        v.insert("router.added_p50_us", added(0.5));
        v.insert("router.added_p99_us", added(0.99));
        v.insert("router.req_per_s_ratio", plain.rate() / direct.rate());
    }
    if spec.cached() {
        // The same inputs with the cache off: what a miss would have
        // cost had the cache not been in its way.
        let mut off = spec.clone();
        off.config.cache_mode = CacheMode::Off;
        let off_stack = Stack::start(&off)?;
        let uncached = load::run(&off, &pools, off_stack.addr, one_round(SETTLE, false, None))?;
        out.count(&uncached);
        v.insert(
            "cache.miss_penalty_ratio",
            v["cache.miss_lat_p50_us"] * 1e3 / uncached.whole().lat.percentile(0.5),
        );
    }
    if let Traffic::Open { conns, rate } = spec.traffic {
        let mut best = 0.0;
        let mut within = true;
        for (r, name) in LADDER {
            let rung = load::run(spec, &pools, stack.addr, one_round(SETTLE, false, Some(r)))?;
            // The upper rungs are there to overload the server: a request
            // it drops is the ladder's finding, not the run's failure. It
            // misses the limit: the harness stopped waiting for it at
            // `IO_TIMEOUT`, which is what it is counted as. A wrong
            // answer is a failure on any rung.
            out.attempted += rung.attempted as usize;
            out.failed += rung.wrong as usize;
            out.wrong += rung.wrong as usize;
            let all = rung.whole();
            let p99 = (all.lat.percentile_among(0.99, all.sent) / 1e6)
                .min(IO_TIMEOUT.as_secs_f64() * 1e3);
            v.insert(name, p99);
            // The highest rate that meets the limit with every lower
            // rung meeting it too.
            within &= p99 <= SLO_MS;
            if within {
                best = r;
            }
        }
        v.insert("engine.max_rate_in_slo", best);
        let schedule = poisson_schedule(spec, opts.seed, rate, conns, round_len);
        let (rows, fill) = probes::batch_replay(spec, &pools, &schedule, &mut all_spans)?;
        v.insert("engine.batch_rows_mean", rows);
        v.insert("engine.batch_fill_ratio", fill);
    }

    // Stages that add up to *less* than the end-to-end time leave server
    // time no stage names, which is a finding about the server (reported
    // as `bench.sum_gap_ratio`). Stages that add up to *more* count some
    // interval twice or cross clocks: the trace is wrong, and so is
    // every per-layer number taken from it.
    let over = median(
        &traced
            .samples
            .iter()
            .map(|s| {
                let e2e = s.record.e2e_us.max(1) as f64;
                (s.record.stage_sum_us() as f64 - e2e).max(0.0) / e2e
            })
            .collect::<Vec<_>>(),
    );
    if over > SUM_GAP_LIMIT {
        out.complaint = Some(format!(
            "the traced stages add up to {:.1}% more than the end-to-end time",
            over * 100.0
        ));
    }
    all_spans.extend(traced.spans);
    out.span_summary = spans::summary(&all_spans);
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.spans.jsonl", spec.name));
        spans::write_jsonl(&path, &all_spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // Anything this workload's path has no mechanism for reads 0.
    out.per_layer = PER_LAYER
        .iter()
        .map(|m| (m.0, v.get(m.0).copied().unwrap_or(0.0)))
        .collect();
    Ok(out)
}

fn requests(stats: &[ModelStats]) -> f64 {
    stats.iter().map(|m| m.requests as f64).sum()
}

/// The server's own counters, through whatever the clients talk to (a
/// router answers with the merge of its replicas).
fn server_stats(stack: &Stack) -> Result<Vec<ModelStats>, String> {
    connect(stack.addr)?
        .stats()
        .map_err(|e| format!("stats: {e}"))
}

/// One end-to-end metric on one round that lasted `secs` and spent
/// `cpu_ms` of process CPU: `(value, samples behind it)`.
fn round_metric(name: &str, spec: &Spec, r: &Round, secs: f64, cpu_ms: f64) -> (f64, u64) {
    // A one-shot reply is its own first and only chunk.
    let first = if spec.is_stream() { &r.ttft } else { &r.lat };
    match name {
        "req_per_s" => (r.ok as f64 / secs, r.ok),
        "lat_p50_ms" => (r.lat.percentile(0.50) / 1e6, r.ok),
        "lat_p99_ms" => (r.lat.percentile(0.99) / 1e6, r.ok),
        "fail_ratio" => ((r.sent - r.ok) as f64 / r.sent.max(1) as f64, r.sent),
        "slo_ok_ratio" => (r.in_slo as f64 / r.sent.max(1) as f64, r.sent),
        "tokens_per_s" => (r.tokens() as f64 / secs, r.tokens()),
        "ttft_p50_ms" => (first.percentile(0.50) / 1e6, first.count()),
        "itl_p50_ms" => (r.gap.percentile(0.50) / 1e6, r.gap.count()),
        "itl_p99_ms" => (r.gap.percentile(0.99) / 1e6, r.gap.count()),
        "cpu_ms_per_req" => (cpu_ms / r.ok as f64, r.ok),
        _ => unreachable!("`{name}` is not computed per round"),
    }
}

/// The end-to-end metrics of the untraced pass: each computed on every
/// round alone and reported as the median of rounds.
fn end_to_end(spec: &Spec, p: &Phase) -> Vec<(&'static str, Reading)> {
    let secs = p.cfg.round_len.as_secs_f64();
    END_TO_END
        .iter()
        .filter(|m| (m.on)(spec) && !matches!(m.name, "setup_s" | "peak_rss_mb"))
        .map(|m| {
            let (values, n) = p
                .rounds
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let (v, n) = round_metric(m.name, spec, r, secs, p.cpu_in(i));
                    (v, n as usize)
                })
                .unzip();
            (m.name, Reading::median_of(values, n))
        })
        .collect()
}

/// Per-layer metrics that come from the workload's own traffic: the
/// stage durations the server reported for each traced request, and the
/// server's counters across the traced phase.
fn from_traffic(
    spec: &Spec,
    pools: &Pools,
    traced: &Phase,
    before: &[ModelStats],
    after: &[ModelStats],
) -> Values {
    let mut v = Values::new();
    let samples = &traced.samples;
    let col = |f: &dyn Fn(&TraceRecord) -> f64| -> Vec<f64> {
        samples.iter().map(|s| f(&s.record)).collect()
    };
    let e2e = |st: &TraceRecord| st.e2e_us.max(1) as f64;

    v.insert(
        "dnn.compute_share",
        median(&col(&|st| st.service_us as f64 / e2e(st))),
    );
    let queue = col(&|st| st.queue_us as f64);
    v.insert("engine.queue_p50_us", percentile(&queue, 0.50));
    v.insert("engine.queue_p99_us", percentile(&queue, 0.99));
    v.insert(
        "engine.batch_wait_p50_us",
        median(&col(&|st| st.batch_us as f64)),
    );
    // On streams a "request" is 32 steps; report the step.
    let steps = match spec.traffic {
        Traffic::Streams { tokens, .. } => f64::from(tokens),
        _ => 1.0,
    };
    let service = col(&|st| st.service_us as f64 / steps);
    v.insert("engine.service_p50_us", percentile(&service, 0.50));
    v.insert("engine.service_p99_us", percentile(&service, 0.99));
    let lease = col(&|st| st.lease_us as f64 / steps);
    v.insert("device.lease_wait_p50_us", percentile(&lease, 0.50));
    v.insert("device.lease_wait_p99_us", percentile(&lease, 0.99));
    let wire = col(&|st| st.wire_us() as f64);
    v.insert("server.wire_p50_us", percentile(&wire, 0.50));
    v.insert("server.wire_p99_us", percentile(&wire, 0.99));
    v.insert(
        "bench.sum_gap_ratio",
        median(&col(&|st| {
            (st.stage_sum_us() as f64 - e2e(st)).abs() / e2e(st)
        })),
    );
    v.insert(
        "server.other_p50_us",
        median(&col(&|st| st.server_other_us() as f64)),
    );
    let bytes = match spec.traffic {
        // The client does not size chunk frames; a stream's footprint
        // is its request frame plus one chunk frame per token, both of
        // fixed size.
        Traffic::Streams { tokens, .. } => {
            let t = &pools.targets[0];
            let request = Request::StreamInfer {
                model: t.model.to_string(),
                input: t.inputs[0].clone(),
                request_id: 1,
                mode: StreamMode::Generative { max_tokens: tokens },
            };
            let chunk = Response::Chunk {
                tensor: t.expect[0][0].clone(),
                trace: ServerTrace::default(),
                seq: 0,
                last: false,
            };
            let framed = |len: Option<usize>| len.map_or(f64::NAN, |n| n as f64 + 4.0);
            framed(request.encode().ok().map(|b| b.len()))
                + f64::from(tokens) * framed(chunk.encode().ok().map(|b| b.len()))
        }
        _ => crate::stats::mean(&col(&|st| st.wire_bytes as f64)),
    };
    v.insert("protocol.bytes_per_req", bytes);

    let delta = |f: fn(&ModelStats) -> u64| -> f64 {
        let sum = |s: &[ModelStats]| s.iter().map(f).sum::<u64>() as f64;
        sum(after) - sum(before)
    };
    let shed: f64 = after.iter().map(|m| m.shed as f64).sum();
    v.insert(
        "engine.shed_ratio",
        shed / (shed + requests(after)).max(1.0),
    );
    if spec.is_stream() {
        let gap = after.iter().map(|m| m.p99_token_gap_us).max().unwrap_or(0);
        v.insert("engine.token_gap_p99_us", gap as f64);
    }
    if spec.is_open() {
        v.insert(
            "bench.gen_late_p99_us",
            traced.whole().late.percentile(0.99) / 1e3,
        );
    }
    if spec.cached() {
        let lat_of = |hit: bool| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.record.cache_hit == hit)
                .map(|s| s.lat_us)
                .collect()
        };
        let (hits, misses) = (lat_of(true), lat_of(false));
        v.insert(
            "cache.hit_ratio",
            hits.len() as f64 / samples.len().max(1) as f64,
        );
        v.insert("cache.hit_lat_p50_us", median(&hits));
        v.insert("cache.miss_lat_p50_us", median(&misses));
        v.insert(
            "cache.evictions_per_kreq",
            1000.0 * delta(|m| m.cache_evictions) / delta(|m| m.requests).max(1.0),
        );
    }
    if !spec.is_open() {
        // No batching engine on the path: every dispatch is one
        // request's rows.
        let rows: f64 = spec
            .models
            .iter()
            .map(|m| (m.rows * m.weight as usize) as f64)
            .sum::<f64>()
            / spec.models.iter().map(|m| f64::from(m.weight)).sum::<f64>();
        v.insert("engine.batch_rows_mean", rows);
    }
    v
}

impl Outcome {
    fn count(&mut self, p: &Phase) {
        self.attempted += p.attempted as usize;
        self.failed += p.failed as usize;
        self.wrong += p.wrong as usize;
    }

    pub fn passed(&self) -> bool {
        self.wrong == 0 && self.attempted > 0 && self.complaint.is_none()
    }

    pub fn print(&self) {
        println!("workload {} — {}", self.spec.name, self.spec.why);
        for (name, r) in &self.end_to_end {
            let unit = metrics::unit(name);
            if r.parts.len() > 1 {
                println!(
                    "  {name:<28} {:>14.4} {unit:<8} min {:.4} max {:.4} n {:?}",
                    r.value, r.min, r.max, r.samples
                );
            } else {
                println!("  {name:<28} {:>14.4} {unit}", r.value);
            }
        }
        for (name, unit, _) in PER_LAYER {
            if let Some(v) = self.per_layer.get(name) {
                if v.is_finite() {
                    println!("  {name:<28} {v:>14.4} {unit}");
                } else {
                    println!("  {name:<28} {:>14} {unit}", "unavailable");
                }
            }
        }
        println!(
            "  requests sent {} failed {} (answered wrongly {})",
            self.attempted, self.failed, self.wrong
        );
        if let Some(c) = &self.complaint {
            println!("  FAILED: {c}");
        }
    }

    /// The workload's entry in the ledger file.
    pub fn to_json(&self) -> Json {
        let mut e2e = Json::obj();
        for (name, r) in &self.end_to_end {
            e2e.set(name, r.to_json(metrics::unit(name)));
        }
        let mut layers = Json::obj();
        for (name, unit, _) in PER_LAYER {
            if let Some(&v) = self.per_layer.get(name) {
                let mut m = Json::obj();
                m.set("value", v).set("unit", *unit);
                layers.set(name, m);
            }
        }
        let mut j = Json::obj();
        j.set("why", self.spec.why)
            .set("correct", self.passed())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("wrong", self.wrong)
            .set("end_to_end", e2e)
            .set("per_layer", layers)
            .set("spans", self.span_summary.clone());
        j
    }

    /// The driver's result: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the last holding every end-to-end metric of
    /// `BENCHMARK.json` (`--trace 0`) or every per-layer one (`--trace 1`).
    pub fn driver_line(&self, trace: Trace) -> Json {
        let mut m = Json::obj();
        // A reading `/proc` could not give has no number; the driver's
        // format has no "unavailable", so it reads 0.
        let mut put = |name: &str, value: f64, unit: &str| {
            let mut entry = Json::obj();
            entry
                .set("value", if value.is_finite() { value } else { 0.0 })
                .set("unit", unit);
            m.set(name, entry);
        };
        if trace != Trace::On {
            for name in DRIVER {
                if let Some((_, r)) = self.end_to_end.iter().find(|(n, _)| n == name) {
                    put(name, r.value, metrics::unit(name));
                }
            }
        }
        if trace != Trace::Off {
            for (name, unit, _) in PER_LAYER {
                put(name, self.per_layer.get(name).copied().unwrap_or(0.0), unit);
            }
        }
        let mut j = Json::obj();
        j.set("correct", self.passed())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", m);
        j
    }
}

#[cfg(test)]
mod tests {
    use super::rounds_in;

    #[test]
    fn a_run_is_whole_rounds_and_there_is_always_one() {
        assert_eq!(
            [1, 3, 10, 18, 30].map(|s| rounds_in(s, 3)),
            [1, 1, 3, 6, 10]
        );
        assert_eq!([1, 18, 30, 60].map(|s| rounds_in(s, 6)), [1, 3, 5, 10]);
    }
}
