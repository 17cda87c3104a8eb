//! The six named workloads, the seeded input pools with their oracle,
//! and the running system (servers, router) each workload is sent to.
//! Later issues cite workloads and metrics by the names fixed here.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use djinn::workload::{xorshift64, ZipfSampler};
use djinn::{
    BatchConfig, CacheMode, ColocationPolicy, DjinnClient, DjinnError, DjinnRouter, DjinnServer,
    ModelRegistry, RouterConfig, ServerConfig, StreamMode,
};
use dnn::zoo::App;
use dnn::Network;
use tensor::Tensor;

/// The latency limit of the open-loop workload, from each request's
/// due time.
pub const SLO_MS: f64 = 10.0;

/// Bound on any single wait for the system under test: a reply that
/// takes longer is a failure, not a hang.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

pub const NAMES: [&str; 6] = [
    "compute_dig",
    "overhead_tiny",
    "routed_tiny",
    "open_nlp_shared",
    "zipf_cache_pos",
    "stream_textgen",
];

/// The workloads `BENCHMARK.json` names, which the growth driver runs
/// ten times over, twice, and gates on: the closed loops that keep the
/// CPU busy. `routed_tiny` and `open_nlp_shared` leave it idle part of
/// the time (the router's 500 us sleeps, the gaps of a 42% load), and on
/// a shared virtual CPU a tail latency then reads how fast the host
/// wakes the guest; no bound the driver allows holds for them from one
/// run to the next. They stay in the suite and in `--compare`. (A unit
/// test keeps `BENCHMARK.json` in step with this list.)
#[cfg(test)]
pub const GATED: [&str; 4] = [
    "compute_dig",
    "overhead_tiny",
    "zipf_cache_pos",
    "stream_textgen",
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Each connection keeps `window` requests in flight and sends the
    /// next only when one completes.
    Closed { conns: usize, window: usize },
    /// Poisson arrivals at `rate` requests/s in total, spread over the
    /// connections, sent whether or not earlier replies came back.
    Open { conns: usize, rate: f64 },
    /// A closed loop of whole generative streams: each connection keeps
    /// `live` streams of `tokens` tokens going.
    Streams {
        conns: usize,
        live: usize,
        tokens: u32,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct ModelUse {
    pub name: &'static str,
    /// Share of requests, relative to the other models.
    pub weight: u32,
    /// Rows (images, word windows) stacked in one request.
    pub rows: usize,
    /// Distinct inputs in the seeded pool.
    pub pool: usize,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub traffic: Traffic,
    pub models: Vec<ModelUse>,
    /// Zipf exponent over the pool; `None` draws inputs uniformly.
    pub zipf: Option<f64>,
    /// Whether the server also loads the tiny test zoo.
    pub tiny_zoo: bool,
    /// 1 = clients talk to the server; 2 = to a router over two replicas.
    pub replicas: usize,
    pub config: ServerConfig,
}

impl Spec {
    pub fn conns(&self) -> usize {
        match self.traffic {
            Traffic::Closed { conns, .. }
            | Traffic::Open { conns, .. }
            | Traffic::Streams { conns, .. } => conns,
        }
    }

    pub fn is_stream(&self) -> bool {
        matches!(self.traffic, Traffic::Streams { .. })
    }

    pub fn is_open(&self) -> bool {
        matches!(self.traffic, Traffic::Open { .. })
    }

    /// About how long one measured round lasts, seconds: 3, which holds
    /// the 1 000 completions a p99 wants on every workload but the
    /// stream loop. Whole 32-token streams complete some 50 a second,
    /// so their rounds are twice as long.
    pub fn round_secs(&self) -> u64 {
        if self.is_stream() {
            6
        } else {
            3
        }
    }

    pub fn routed(&self) -> bool {
        self.replicas > 1
    }

    pub fn cached(&self) -> bool {
        self.config.cache_mode != CacheMode::Off
    }
}

fn tiny_mix() -> Vec<ModelUse> {
    vec![
        ModelUse {
            name: "tiny-mnist",
            weight: 9,
            rows: 1,
            pool: 64,
        },
        ModelUse {
            name: "tiny-senna",
            weight: 1,
            rows: 1,
            pool: 64,
        },
    ]
}

pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        why: "",
        traffic: Traffic::Closed {
            conns: 2,
            window: 1,
        },
        models: Vec::new(),
        zipf: None,
        tiny_zoo: false,
        replicas: 1,
        config: ServerConfig::default(),
    };
    Some(match name {
        "compute_dig" => Spec {
            name: "compute_dig",
            why: "tensor+dnn do >90% of each request (LeNet conv, 20 images): a GEMM/conv/forward gain shows here and nowhere in overhead_tiny",
            // One request at a time: on the single CPU the benchmark
            // runs on, two concurrent forward passes only time-slice,
            // and their latency then reads the guest scheduler's mood
            // (5 ms each interleaved, or 2.7 and 5.4 ms in turn).
            traffic: Traffic::Closed {
                conns: 1,
                window: 1,
            },
            models: vec![ModelUse {
                name: "dig",
                weight: 1,
                rows: 20,
                pool: 32,
            }],
            ..base
        },
        "overhead_tiny" => Spec {
            name: "overhead_tiny",
            why: "compute is ~10 us, so protocol+server+engine+client do all the work (codec, thread hand-offs, admission); a kernel gain must not move it",
            traffic: Traffic::Closed {
                conns: 1,
                window: 8,
            },
            models: tiny_mix(),
            tiny_zoo: true,
            ..base
        },
        "routed_tiny" => Spec {
            name: "routed_tiny",
            why: "identical traffic to overhead_tiny sent through a router over 2 replicas: the pair isolates the router hop",
            traffic: Traffic::Closed {
                conns: 1,
                window: 8,
            },
            models: tiny_mix(),
            tiny_zoo: true,
            replicas: 2,
            ..base
        },
        "open_nlp_shared" => Spec {
            name: "open_nlp_shared",
            why: "open-loop Poisson at 600 req/s (2/3 of the one-CPU knee) on batched engines sharing one device: only an arrival schedule builds a queue, so queue and lease wait show; limit 10 ms from due time",
            // On one quiet CPU the p99 from due time crosses the 10 ms
            // limit between the ladder's 900 and 1200 req/s rungs (a
            // request costs 0.7 ms of CPU, generator included). At 600
            // the queue's p99 wait is 1-2 ms and the engines wait up to
            // 0.4 ms for the device; the dynamic policy dispatches at once
            // when the device is free, so only one dispatch in fifteen
            // carries a second request.
            traffic: Traffic::Open {
                conns: 2,
                rate: 600.0,
            },
            models: ["pos", "chk", "ner"]
                .into_iter()
                .map(|name| ModelUse {
                    name,
                    weight: 1,
                    rows: 28,
                    pool: 64,
                })
                .collect(),
            config: ServerConfig {
                batching: Some(BatchConfig {
                    max_batch: 224,
                    max_delay: Duration::from_millis(2),
                }),
                device_capacity: Some(1),
                // An open loop does not slow down for a slow server. When
                // the host takes the CPU away for a while the backlog
                // must wait and be answered late (every late answer
                // misses the limit), not be refused: the default bound of
                // 128 a model sheds after a stall of 0.6 s, and then the
                // run measures the host.
                queue_capacity: 1 << 16,
                colocation: ColocationPolicy::Dynamic {
                    sla: Duration::from_millis(SLO_MS as u64),
                },
                ..ServerConfig::default()
            },
            ..base
        },
        "zipf_cache_pos" => Spec {
            name: "zipf_cache_pos",
            why: "Zipf-repeated sentences against a cache a third the size of the working set: p50 is the hit path, p99 the miss+insert+evict path, so a hit-path gain that taxes misses shows",
            models: vec![ModelUse {
                name: "pos",
                weight: 1,
                rows: 28,
                pool: 256,
            }],
            zipf: Some(1.1),
            config: ServerConfig {
                cache_mode: CacheMode::Both,
                cache_bytes: 4 << 20,
                ..ServerConfig::default()
            },
            ..base
        },
        "stream_textgen" => Spec {
            name: "stream_textgen",
            why: "8 live 32-token generative streams with real per-token compute: the stream path (thread per stream, no cross-stream batching) under load",
            traffic: Traffic::Streams {
                conns: 2,
                live: 4,
                tokens: 32,
            },
            models: vec![ModelUse {
                name: "textgen",
                weight: 1,
                rows: 1,
                pool: 64,
            }],
            tiny_zoo: true,
            ..base
        },
        _ => return None,
    })
}

/// Builds one model exactly as the serving binaries do (same
/// definition, same weight seed), so the oracle and the server hold
/// bit-identical networks.
pub fn network(name: &str) -> Result<Network, String> {
    let built = match name {
        "textgen" => Network::with_random_weights(dnn::zoo::textgen(), 0x7E47),
        _ => match App::from_name(name) {
            Some(app) => dnn::zoo::network(app),
            None => return Err(format!("no zoo model named `{name}`")),
        },
    };
    built.map_err(|e| format!("building `{name}`: {e}"))
}

/// The registry a workload's server loads: only the models it needs,
/// never the whole Tonic zoo (20 s and 773 MB).
pub fn registry(spec: &Spec) -> Result<ModelRegistry, String> {
    let mut reg = if spec.tiny_zoo {
        ModelRegistry::with_tiny_test_zoo().map_err(|e| e.to_string())?
    } else {
        ModelRegistry::new()
    };
    for m in &spec.models {
        if reg.get(m.name).is_err() {
            reg.register(m.name, network(m.name)?);
        }
    }
    Ok(reg)
}

/// One model's seeded inputs and what the server must answer for each.
pub struct Target {
    pub model: &'static str,
    pub inputs: Vec<Tensor>,
    /// Per input, the expected reply tensors in order: one for a
    /// one-shot request, one per token for a generative stream.
    pub expect: Vec<Vec<Tensor>>,
}

pub struct Pools {
    pub targets: Vec<Target>,
}

/// Greedy decode's feedback step, as the engine does it: first maximum,
/// re-encoded one-hot.
fn one_hot_argmax(row: &Tensor) -> Tensor {
    let data = row.data();
    let mut best = 0;
    for (i, &v) in data.iter().enumerate() {
        if v > data[best] {
            best = i;
        }
    }
    one_hot(row, best)
}

fn one_hot(like: &Tensor, hot: usize) -> Tensor {
    Tensor::from_fn(like.shape().clone(), |i| if i == hot { 1.0 } else { 0.0 })
}

impl Pools {
    /// Generates every input from `seed` and computes its expected
    /// output with `Network::forward` on the same seeded network the
    /// server loads.
    pub fn build(spec: &Spec, seed: u64) -> Result<Pools, String> {
        let reg = registry(spec)?;
        let mut targets = Vec::new();
        for (mi, m) in spec.models.iter().enumerate() {
            let net: Arc<Network> = reg.get(m.name).map_err(|e| e.to_string())?;
            let shape = net.def().input_shape().with_batch(m.rows);
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((mi as u64 + 1) << 40) | 1;
            let mut inputs = Vec::with_capacity(m.pool);
            let mut expect = Vec::with_capacity(m.pool);
            for _ in 0..m.pool {
                let draw = xorshift64(&mut rng);
                let input = match spec.traffic {
                    Traffic::Streams { .. } => one_hot(
                        &Tensor::zeros(shape.clone()),
                        draw as usize % shape.volume(),
                    ),
                    _ => Tensor::random_uniform(shape.clone(), 0.5, draw),
                };
                let fwd = |t: &Tensor| {
                    net.forward(t)
                        .map_err(|e| format!("oracle {}: {e}", m.name))
                };
                expect.push(match spec.traffic {
                    Traffic::Streams { tokens, .. } => {
                        let mut cur = input.clone();
                        let mut chunks = Vec::with_capacity(tokens as usize);
                        for _ in 0..tokens {
                            let out = fwd(&cur)?;
                            cur = one_hot_argmax(&out);
                            chunks.push(out);
                        }
                        chunks
                    }
                    _ => vec![fwd(&input)?],
                });
                inputs.push(input);
            }
            targets.push(Target {
                model: m.name,
                inputs,
                expect,
            });
        }
        Ok(Pools { targets })
    }
}

/// Bitwise equality: the serving invariants (batched ≡ immediate, hit ≡
/// miss, remote ≡ local) are bitwise, so the check is too.
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Seeded per-request choice of (model, pool slot).
pub struct Picker {
    rng: u64,
    cum: Vec<u32>,
    pools: Vec<usize>,
    zipf: Vec<Option<ZipfSampler>>,
}

impl Picker {
    pub fn new(spec: &Spec, seed: u64, stream: u64) -> Picker {
        let mut total = 0;
        Picker {
            rng: (seed.wrapping_add(stream + 1)).wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1,
            cum: spec
                .models
                .iter()
                .map(|m| {
                    total += m.weight;
                    total
                })
                .collect(),
            pools: spec.models.iter().map(|m| m.pool).collect(),
            zipf: spec
                .models
                .iter()
                .map(|m| spec.zipf.map(|s| ZipfSampler::new(m.pool, s)))
                .collect(),
        }
    }

    pub fn pick(&mut self) -> (usize, usize) {
        let total = *self.cum.last().expect("a workload names a model");
        let r = (xorshift64(&mut self.rng) % u64::from(total)) as u32;
        let target = self.cum.partition_point(|&c| c <= r);
        let slot = match &self.zipf[target] {
            Some(z) => z.sample(&mut self.rng),
            None => (xorshift64(&mut self.rng) % self.pools[target] as u64) as usize,
        };
        (target, slot)
    }
}

/// The running system a workload is sent to. Fields drop in order:
/// router first, then the replicas behind it.
pub struct Stack {
    _router: Option<DjinnRouter>,
    _servers: Vec<DjinnServer>,
    /// Where clients connect.
    pub addr: SocketAddr,
    /// The servers' own addresses (one unless routed).
    pub replicas: Vec<SocketAddr>,
}

impl Stack {
    pub fn start(spec: &Spec) -> Result<Stack, String> {
        let mut servers = Vec::new();
        for _ in 0..spec.replicas {
            servers.push(
                DjinnServer::start(registry(spec)?, spec.config.clone())
                    .map_err(|e| format!("starting server: {e}"))?,
            );
        }
        let replicas: Vec<SocketAddr> = servers.iter().map(DjinnServer::local_addr).collect();
        let router = if spec.routed() {
            Some(
                DjinnRouter::start(RouterConfig {
                    replicas: replicas.clone(),
                    ..RouterConfig::default()
                })
                .map_err(|e| format!("starting router: {e}"))?,
            )
        } else {
            None
        };
        Ok(Stack {
            addr: router.as_ref().map_or(replicas[0], DjinnRouter::local_addr),
            _router: router,
            _servers: servers,
            replicas,
        })
    }

    /// Connects as the workload will and gets one verified reply per
    /// model on every connection: the end of set-up.
    pub fn first_replies(&self, spec: &Spec, pools: &Pools) -> Result<(), String> {
        for _ in 0..spec.conns() {
            let mut client = connect(self.addr)?;
            for t in &pools.targets {
                let got = match spec.traffic {
                    Traffic::Streams { tokens, .. } => client
                        .stream(
                            t.model,
                            &t.inputs[0],
                            StreamMode::Generative { max_tokens: tokens },
                        )
                        .and_then(|it| {
                            it.map(|c| c.map(|c| c.tensor))
                                .collect::<Result<Vec<_>, DjinnError>>()
                        }),
                    _ => client.infer(t.model, &t.inputs[0]).map(|t| vec![t]),
                }
                .map_err(|e| format!("first reply from `{}`: {e}", t.model))?;
                let want = &t.expect[0];
                if got.len() != want.len() || !got.iter().zip(want).all(|(g, w)| same_bits(g, w)) {
                    return Err(format!(
                        "first reply from `{}` differs from the oracle",
                        t.model
                    ));
                }
            }
        }
        Ok(())
    }
}

pub fn connect(addr: SocketAddr) -> Result<DjinnClient, String> {
    DjinnClient::connect_with_timeout(addr, IO_TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))
}

/// A Poisson arrival: when it is due, on which connection, for what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_ns: u64,
    pub conn: usize,
    pub target: usize,
    pub slot: usize,
}

/// The open loop's whole schedule for `span`, fixed by the seed before
/// anything is sent: exponential gaps at `rate` per second in total,
/// each arrival assigned a connection at random.
pub fn poisson_schedule(
    spec: &Spec,
    seed: u64,
    rate: f64,
    conns: usize,
    span: Duration,
) -> Vec<Arrival> {
    let mut picker = Picker::new(spec, seed, 0x0A11);
    let mut rng = seed.wrapping_mul(0xA24B_AED4_963E_E407) | 1;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Map to (0, 1]: never ln(0).
        let u = (xorshift64(&mut rng) as f64 + 1.0) * 5.421_010_862_427_522e-20;
        t += -u.ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        let conn = (xorshift64(&mut rng) % conns as u64) as usize;
        let (target, slot) = picker.pick();
        out.push(Arrival {
            due_ns: (t * 1e9) as u64,
            conn,
            target,
            slot,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_has_a_spec_and_a_one_line_reason() {
        for name in NAMES {
            let s = spec(name).unwrap_or_else(|| panic!("{name} has no spec"));
            assert_eq!(s.name, name);
            assert!(!s.why.is_empty() && s.why.len() <= 200 && !s.why.contains('\n'));
            assert!(!s.models.is_empty());
        }
        assert!(spec("nope").is_none());
        assert!(GATED.iter().all(|g| NAMES.contains(g)));
    }

    #[test]
    fn poisson_schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let s = spec("open_nlp_shared").unwrap();
        let span = Duration::from_secs(2);
        let a = poisson_schedule(&s, 7, 600.0, 2, span);
        assert_eq!(a, poisson_schedule(&s, 7, 600.0, 2, span));
        assert_ne!(a, poisson_schedule(&s, 8, 600.0, 2, span));
        // ~1200 arrivals, in due order, inside the span, on both
        // connections and all three models.
        assert!((1000..1400).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.last().unwrap().due_ns < span.as_nanos() as u64);
        for c in 0..2 {
            assert!(a.iter().any(|x| x.conn == c));
        }
        for t in 0..3 {
            assert!(a.iter().any(|x| x.target == t));
        }
    }

    #[test]
    fn zipf_picks_repeat_for_a_seed_differ_across_seeds_and_skew_to_low_ranks() {
        let s = spec("zipf_cache_pos").unwrap();
        let draw = |seed, stream| {
            let mut p = Picker::new(&s, seed, stream);
            (0..2000).map(|_| p.pick().1).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1), "connections draw different streams");
        let picks = draw(1, 0);
        let head = picks.iter().filter(|&&slot| slot < 16).count();
        assert!(head > picks.len() / 2, "rank skew lost: {head}");
        assert!(picks.iter().all(|&slot| slot < 256));
    }

    #[test]
    fn pools_repeat_for_a_seed_and_the_oracle_matches_a_fresh_forward_pass() {
        let s = spec("overhead_tiny").unwrap();
        let a = Pools::build(&s, 3).unwrap();
        let b = Pools::build(&s, 3).unwrap();
        let c = Pools::build(&s, 4).unwrap();
        for (ta, tb) in a.targets.iter().zip(&b.targets) {
            assert!(ta
                .inputs
                .iter()
                .zip(&tb.inputs)
                .all(|(x, y)| same_bits(x, y)));
        }
        assert!(!same_bits(&a.targets[0].inputs[0], &c.targets[0].inputs[0]));
        let net = registry(&s).unwrap().get("tiny-mnist").unwrap();
        assert!(same_bits(
            &net.forward(&a.targets[0].inputs[5]).unwrap(),
            &a.targets[0].expect[5][0]
        ));
    }

    #[test]
    fn stream_oracle_is_the_greedy_token_sequence() {
        let mut s = spec("stream_textgen").unwrap();
        s.models[0].pool = 2;
        let p = Pools::build(&s, 1).unwrap();
        let t = &p.targets[0];
        assert_eq!(t.expect[0].len(), 32);
        // One-hot prompt; every chunk is the forward pass of the argmax
        // of the chunk before it.
        assert_eq!(t.inputs[0].data().iter().filter(|&&v| v == 1.0).count(), 1);
        let net = network("textgen").unwrap();
        let second = net.forward(&one_hot_argmax(&t.expect[0][0])).unwrap();
        assert!(same_bits(&second, &t.expect[0][1]));
    }
}
