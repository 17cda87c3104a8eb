//! Batch-more vs. co-locate-more ablation on a shared device
//! (DESIGN.md §13): two models share one compute device, and the
//! coalescing policy is swept against arrival mix and SLA.
//!
//! ```text
//! cargo run -p bench --bin colocation --release [-- --smoke]
//! ```
//!
//! The setup pins the tradeoff the policies navigate. Both engines sit
//! on a one-unit [`Device::Cpu`] behind a shared [`DeviceScheduler`],
//! so dispatches serialize and lease waits are real. The executor is a
//! [`DelayExecutor`] with a dispatch cost (base) that batching
//! amortizes and a small per-query cost that it cannot — the service
//! shape of a device with per-kernel launch overhead. Arrivals are
//! open-loop Poisson: an `interactive` model whose rate never fills a
//! batch inside the window, and a `bulk` model whose rate does.
//!
//! `batch` waits out the full coalescing window, so interactive
//! requests eat the window on top of service and blow the SLA.
//! `colocate` is DjiNN's original shape: no batching at all —
//! each engine dispatches one request per forward pass (a batch cap of
//! one, no window), and the two engines co-locate on the shared device
//! — so every request pays the full dispatch cost, the device
//! saturates far below the batched capacity, and the overload surfaces
//! as admission sheds and queue and lease waits. The `dynamic` policy
//! batches adaptively per dispatch from queue depth, device idleness,
//! and SLA headroom — the claim this table checks is that it beats both
//! static extremes on SLA attainment and goodput at every swept
//! point. (The batched engine with a zero coalescing window —
//! continuous batching of whatever backlog exists at dispatch time —
//! is a much stronger baseline, since backlog-driven batching
//! self-corrects; it is reported as a fourth arm, `colocate+cb`,
//! rather than standing in for no-batching.)
//!
//! Output: one summary table over (mix × SLA × policy) plus a
//! per-stage latency breakdown (queue/batch/lease/service) for the
//! tightest cell, written to stdout and `results/colocation_bench.txt`
//! with CSVs alongside. `--smoke` runs one cell per policy in a few
//! seconds and writes only to stdout — the CI wiring.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::render::{num, Table};
use crossbeam::channel::bounded;
use djinn::trace::{ServerTrace, TraceAggregator};
use djinn::{
    BatchConfig, ColocationPolicy, CpuExecutor, DelayExecutor, Device, DeviceScheduler,
    DispatchPolicy, EngineConfig, Executor, InferenceEngine, ModelRegistry, RoutedReply,
    TraceRecord,
};
use tensor::{Tensor, Threading};

/// Fixed dispatch cost a batched forward pass pays once — the term
/// batching amortizes.
const BASE_COST: Duration = Duration::from_millis(4);
/// Marginal cost per stacked query — the term batching cannot remove.
const PER_ITEM_COST: Duration = Duration::from_micros(250);
/// Coalescing window of the batched engines.
const MAX_DELAY: Duration = Duration::from_millis(50);
/// Batch width cap.
const MAX_BATCH: usize = 8;
/// Admission queue bound per engine. Deliberately tight: a policy that
/// runs the device at critical utilization random-walks its queue into
/// this cap and sheds, which is how wasted dispatch overhead turns
/// into lost goodput instead of just latency.
const QUEUE_CAPACITY: usize = 32;

/// One swept operating point: per-model Poisson rates plus the SLA the
/// dynamic policy budgets against (and attainment is judged by).
struct Cell {
    mix: &'static str,
    /// Arrivals/second for the latency-sensitive model.
    interactive_rps: f64,
    /// Arrivals/second for the throughput model.
    bulk_rps: f64,
    sla: Duration,
}

/// One policy arm of the ablation: how the engines dispatch.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    /// Batched engine, full coalescing window.
    AlwaysBatch,
    /// No batching: one request per dispatch, both engines sharing the
    /// device.
    Colocate,
    /// Batched engine, zero window — continuous batching of whatever
    /// backlog exists at dispatch time.
    ColocateCb,
    /// Batched engine, SLA-budgeted adaptive window.
    Dynamic,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::AlwaysBatch => "batch",
            Arm::Colocate => "colocate",
            Arm::ColocateCb => "colocate+cb",
            Arm::Dynamic => "dynamic",
        }
    }
}

/// Outcome of one (cell, policy) run.
struct RunResult {
    attained: usize,
    total: usize,
    elapsed: Duration,
    p99_ms: f64,
    mean_lease_ms: f64,
    records: Vec<TraceRecord>,
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let duration = if smoke {
        Duration::from_millis(1500)
    } else {
        Duration::from_secs(4)
    };
    let cells: Vec<Cell> = if smoke {
        vec![Cell {
            mix: "mixed",
            interactive_rps: 30.0,
            bulk_rps: 320.0,
            sla: Duration::from_millis(30),
        }]
    } else {
        let mut v = Vec::new();
        for sla_ms in [30u64, 45] {
            v.push(Cell {
                mix: "bulk-heavy",
                interactive_rps: 30.0,
                bulk_rps: 320.0,
                sla: Duration::from_millis(sla_ms),
            });
            v.push(Cell {
                mix: "interactive-heavy",
                interactive_rps: 240.0,
                bulk_rps: 80.0,
                sla: Duration::from_millis(sla_ms),
            });
        }
        v
    };

    let mut summary = Table::new(
        "colocation_policy",
        "Batch vs. co-locate vs. dynamic on one shared device \
         (open-loop Poisson arrivals, two models)",
        &[
            "Mix",
            "SLA ms",
            "Policy",
            "SLA attain %",
            "Goodput req/s",
            "p99 ms",
            "Lease wait ms",
        ],
    );
    // The breakdown shown at the end comes from the tightest-SLA
    // dynamic run: lease wait must be visible there as its own stage.
    let mut breakdown: Option<(String, TraceAggregator)> = None;
    let mut dynamic_wins = true;

    for cell in &cells {
        let arms = [
            Arm::AlwaysBatch,
            Arm::Colocate,
            Arm::ColocateCb,
            Arm::Dynamic,
        ];
        let mut cell_rows: Vec<(String, f64, f64)> = Vec::new();
        for arm in arms {
            let r = match run_cell(cell, arm, duration) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("run failed ({} / {}): {e}", cell.mix, arm.name());
                    return ExitCode::FAILURE;
                }
            };
            let attain = 100.0 * r.attained as f64 / r.total.max(1) as f64;
            let goodput = r.attained as f64 / r.elapsed.as_secs_f64();
            summary.push(vec![
                cell.mix.into(),
                format!("{}", cell.sla.as_millis()),
                arm.name().into(),
                num(attain),
                num(goodput),
                num(r.p99_ms),
                num(r.mean_lease_ms),
            ]);
            cell_rows.push((arm.name().into(), attain, goodput));
            if arm == Arm::Dynamic {
                let replace = match &breakdown {
                    None => true,
                    Some((label, _)) => !label.contains("sla=30") && cell.sla.as_millis() == 30,
                };
                if replace {
                    let mut agg = TraceAggregator::new();
                    for rec in &r.records {
                        agg.record(rec);
                    }
                    breakdown = Some((
                        format!("dynamic, {} mix, sla={}ms", cell.mix, cell.sla.as_millis()),
                        agg,
                    ));
                }
            }
        }
        // The tentpole claim, checked per cell: dynamic strictly beats
        // both static extremes (full-window batching and no-batching
        // co-location) on attainment AND goodput. The continuous-
        // batching arm is reported but not gated on: it is already an
        // adaptive policy, not a static extreme.
        let dynamic = &cell_rows[3];
        for stat in &cell_rows[..2] {
            if dynamic.1 <= stat.1 || dynamic.2 <= stat.2 {
                dynamic_wins = false;
                eprintln!(
                    "NOTE: dynamic ({:.1}% / {:.1} req/s) does not beat {} \
                     ({:.1}% / {:.1} req/s) in {} sla={}ms",
                    dynamic.1,
                    dynamic.2,
                    stat.0,
                    stat.1,
                    stat.2,
                    cell.mix,
                    cell.sla.as_millis()
                );
            }
        }
    }

    let mut out = String::new();
    out.push_str(&summary.to_text());
    out.push('\n');
    if let Some((label, agg)) = &breakdown {
        out.push_str(&format!("## per-stage breakdown — {label}\n\n"));
        out.push_str(&agg.table().render());
        out.push('\n');
    }
    out.push_str(&format!(
        "verdict: dynamic {} both static policies on SLA attainment and goodput \
         in every swept cell\n",
        if dynamic_wins {
            "beats"
        } else {
            "DOES NOT beat"
        }
    ));
    print!("{out}");
    if !smoke {
        let _ = summary.write_csv(std::path::Path::new("results"));
        if let Err(e) = std::fs::write("results/colocation_bench.txt", &out) {
            eprintln!("warning: could not write results/colocation_bench.txt: {e}");
        }
    }
    if dynamic_wins {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one operating point under one policy: both engines on a shared
/// one-unit device, Poisson arrivals for `duration`, then drain.
fn run_cell(cell: &Cell, arm: Arm, duration: Duration) -> Result<RunResult, String> {
    let registry = ModelRegistry::with_tiny_test_zoo().map_err(|e| e.to_string())?;
    let scheduler = Arc::new(DeviceScheduler::new(Device::Cpu { threads: 1 }));
    let executor = Arc::new(DelayExecutor::with_per_item(
        CpuExecutor::new(Threading::new(1)),
        BASE_COST,
        PER_ITEM_COST,
    ));
    // The two co-locate arms are the batched engine with a zero window:
    // one of at most one query, one of up to `MAX_BATCH`.
    let (max_batch, max_delay, colocation) = match arm {
        Arm::AlwaysBatch => (MAX_BATCH, MAX_DELAY, ColocationPolicy::AlwaysBatch),
        Arm::Colocate => (1, Duration::ZERO, ColocationPolicy::AlwaysBatch),
        Arm::ColocateCb => (MAX_BATCH, Duration::ZERO, ColocationPolicy::AlwaysBatch),
        Arm::Dynamic => (
            MAX_BATCH,
            MAX_DELAY,
            ColocationPolicy::Dynamic { sla: cell.sla },
        ),
    };
    let config = EngineConfig {
        policy: DispatchPolicy::Batched(BatchConfig {
            max_batch,
            max_delay,
        }),
        queue_capacity: QUEUE_CAPACITY,
        colocation,
        device: Some(scheduler),
        cache: None,
    };
    let names = ["tiny-mnist", "tiny-senna"];
    let rates = [cell.interactive_rps, cell.bulk_rps];
    let mut engines = Vec::new();
    let mut inputs = Vec::new();
    for name in names {
        let net = registry.get(name).map_err(|e| e.to_string())?;
        let shape = net.def().input_shape().with_batch(1);
        inputs.push(Tensor::random_uniform(shape, 0.5, 7));
        engines.push(InferenceEngine::start(
            name,
            net,
            executor.clone() as Arc<dyn Executor>,
            config.clone(),
        ));
    }

    // Pre-draw both models' Poisson schedules and merge them by time, so
    // one submitter thread replays the exact arrival process every run.
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut schedule: Vec<(Duration, usize)> = Vec::new();
    for (model_idx, rate) in rates.iter().enumerate() {
        let mut t = Duration::ZERO;
        loop {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let u = (rng as f64 + 1.0) * 5.421_010_862_427_522e-20;
            t += Duration::from_secs_f64(-u.ln() / rate);
            if t >= duration {
                break;
            }
            schedule.push((t, model_idx));
        }
    }
    schedule.sort_by_key(|&(t, _)| t);
    let total = schedule.len();

    // Capacity covers every arrival, so the engine-side send never blocks.
    let (tx, rx) = bounded::<RoutedReply>(total.max(1));
    let collector = std::thread::spawn(move || {
        // Completion time per token, in receive order. The channel
        // closes once the submitter's handle drops and every admitted
        // job has replied — shed jobs never reply, so drain to
        // disconnect instead of counting to `total`.
        let mut done: Vec<(u64, Instant, Result<djinn::trace::EngineSpans, ()>)> =
            Vec::with_capacity(total);
        while let Ok(reply) = rx.recv() {
            let spans = reply.result.map(|(_, s)| s).map_err(|_| ());
            done.push((reply.token, Instant::now(), spans));
        }
        done
    });

    let started = Instant::now();
    let mut submit_times: Vec<Instant> = Vec::with_capacity(total);
    for (token, &(at, model_idx)) in schedule.iter().enumerate() {
        if let Some(gap) = at.checked_sub(started.elapsed()) {
            std::thread::sleep(gap);
        }
        submit_times.push(Instant::now());
        match engines[model_idx].submit_routed(inputs[model_idx].clone(), token as u64, tx.clone())
        {
            Ok(()) => {}
            // Admission shed: the request is offered load that the
            // policy failed to serve — it stays in `total` and counts
            // against attainment, exactly like a late reply.
            Err(djinn::DjinnError::Busy { .. }) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    drop(tx);
    let done = collector.join().map_err(|_| "collector panicked")?;
    let elapsed = started.elapsed();
    for engine in engines {
        engine.shutdown();
    }

    let mut attained = 0usize;
    let mut lat_ms: Vec<f64> = Vec::with_capacity(done.len());
    let mut lease_sum_ms = 0.0f64;
    let mut records = Vec::with_capacity(done.len());
    for (token, finished, spans) in done {
        let Ok(spans) = spans else { continue };
        let latency = finished.duration_since(submit_times[token as usize]);
        if latency <= cell.sla {
            attained += 1;
        }
        lat_ms.push(latency.as_secs_f64() * 1e3);
        lease_sum_ms += spans.lease_us as f64 / 1e3;
        let (_, model_idx) = schedule[token as usize];
        let e2e_us = latency.as_micros() as u64;
        // In-process run: the server span is the whole request, wire 0.
        records.push(TraceRecord::new(
            names[model_idx],
            e2e_us,
            ServerTrace::new(token, spans, e2e_us),
        ));
    }
    lat_ms.sort_by(f64::total_cmp);
    let p99_ms = djinn::trace::percentile(&lat_ms, 0.99).unwrap_or(f64::NAN);
    let n = lat_ms.len().max(1) as f64;
    Ok(RunResult {
        attained,
        total,
        elapsed,
        p99_ms,
        mean_lease_ms: lease_sum_ms / n,
        records,
    })
}
