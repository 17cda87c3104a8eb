//! The DjiNN service daemon.
//!
//! ```text
//! djinn-server [--addr HOST:PORT] [--backend cpu|sim-gpu]
//!              [--batch N] [--threads N] [--queue N]
//!              [--device-threads N] [--sla-ms N] [--models DIR]
//!              [--tiny-zoo] [--lm] [--only NAME,NAME]
//!              [--service-delay-us N] [--cache off|exact|embed|both]
//!              [--cache-mb N] [--export DIR]
//! ```
//!
//! Each model has one dispatch thread. Without `--batch` it dispatches
//! at once whatever is queued when it is free; `--batch N` caps a batch
//! at `N` queries and lets it wait up to 2 ms for company. `--threads`
//! is what a forward pass may spend (batch sharding or in-layer GEMM
//! strips), and how one model uses more than one core. `--queue` bounds
//! each model's admission queue (requests beyond it are shed with a
//! `Busy` reply).
//!
//! With `--models DIR`, every `*.djnm` model file in the directory is
//! served under its file stem; otherwise the seven built-in Tonic models
//! are served. `--tiny-zoo` serves the miniature test models instead —
//! the harness for protocol benchmarks (e.g. measuring `--pipeline`
//! speedups with djinn-loadgen) where model compute should not dominate.
//! `--export DIR` writes the built-in models as `.djnm` files and exits
//! (a way to bootstrap a model repository). `--lm` additionally serves
//! the `textgen` generative LM (a small MLP language model decoded
//! token-at-a-time over `StreamInfer` streams — pair with
//! `djinn-loadgen --stream`).
//!
//! `--only a,b` restricts the loaded registry to the named models — how
//! a replica in a sharded, router-fronted deployment serves its slice.
//! `--service-delay-us N` adds a fixed sleep to every forward pass,
//! modeling a device-bound backend so scale-out experiments on a small
//! host measure the serving tier, not CPU contention between colocated
//! replicas.
//!
//! `--device-threads N` puts every model on one shared device of `N`
//! compute units (CPU threads, or MPS kernel slots under `sim-gpu`):
//! engines then acquire bounded leases from a single scheduler before
//! running inference, and lease waits show up as the `lease` trace
//! stage. `--sla-ms N` gives batched engines an `N` ms latency budget:
//! each dispatch then sizes its coalescing window from queue depth,
//! device idleness and the budget's headroom (the dynamic policy)
//! instead of always waiting out the full window. It needs `--batch`.
//!
//! `--cache` turns on content-keyed inference caching (`exact` memoizes
//! whole outputs by input bytes, `embed` caches per-row embedding-layer
//! lookups, `both` layers the two; defaults to `off`). `--cache-mb`
//! bounds the total cache budget in MiB, split across the loaded
//! models (default 64).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use djinn::{
    Backend, BatchConfig, CacheMode, ColocationPolicy, DjinnServer, ModelRegistry, ServerConfig,
};

#[derive(Debug)]
struct Args {
    addr: String,
    backend: Backend,
    batch: Option<usize>,
    threads: usize,
    queue: usize,
    models: Option<PathBuf>,
    tiny_zoo: bool,
    lm: bool,
    only: Vec<String>,
    service_delay: Option<Duration>,
    device_threads: Option<usize>,
    colocation: ColocationPolicy,
    cache: CacheMode,
    cache_mb: usize,
    export: Option<PathBuf>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let defaults = ServerConfig::default();
    let mut args = Args {
        addr: "127.0.0.1:7400".into(),
        backend: Backend::Cpu,
        batch: None,
        threads: 1,
        queue: defaults.queue_capacity,
        models: None,
        tiny_zoo: false,
        lm: false,
        only: Vec::new(),
        service_delay: None,
        device_threads: None,
        colocation: ColocationPolicy::AlwaysBatch,
        cache: CacheMode::Off,
        cache_mb: 64,
        export: None,
    };
    let mut sla = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--backend" => {
                args.backend = match value("--backend")?.as_str() {
                    "cpu" => Backend::Cpu,
                    "sim-gpu" => Backend::SimGpu,
                    other => return Err(format!("unknown backend `{other}`")),
                }
            }
            "--batch" => {
                args.batch = Some(
                    value("--batch")?
                        .parse()
                        .map_err(|e| format!("bad --batch: {e}"))?,
                )
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if args.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--queue" => {
                args.queue = value("--queue")?
                    .parse()
                    .map_err(|e| format!("bad --queue: {e}"))?;
                if args.queue == 0 {
                    return Err("--queue must be at least 1".into());
                }
            }
            "--models" => args.models = Some(PathBuf::from(value("--models")?)),
            "--tiny-zoo" => args.tiny_zoo = true,
            "--lm" => args.lm = true,
            "--only" => {
                args.only.extend(
                    value("--only")?
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                );
            }
            "--device-threads" => {
                let n: usize = value("--device-threads")?
                    .parse()
                    .map_err(|e| format!("bad --device-threads: {e}"))?;
                if n == 0 {
                    return Err("--device-threads must be at least 1".into());
                }
                args.device_threads = Some(n);
            }
            "--sla-ms" => {
                let ms: u64 = value("--sla-ms")?
                    .parse()
                    .map_err(|e| format!("bad --sla-ms: {e}"))?;
                if ms == 0 {
                    return Err("--sla-ms must be at least 1".into());
                }
                sla = Some(Duration::from_millis(ms));
            }
            "--service-delay-us" => {
                let us: u64 = value("--service-delay-us")?
                    .parse()
                    .map_err(|e| format!("bad --service-delay-us: {e}"))?;
                args.service_delay = Some(Duration::from_micros(us));
            }
            "--cache" => {
                args.cache = value("--cache")?
                    .parse()
                    .map_err(|e: String| format!("bad --cache: {e}"))?;
            }
            "--cache-mb" => {
                args.cache_mb = value("--cache-mb")?
                    .parse()
                    .map_err(|e| format!("bad --cache-mb: {e}"))?;
                if args.cache_mb == 0 {
                    return Err("--cache-mb must be at least 1".into());
                }
            }
            "--export" => args.export = Some(PathBuf::from(value("--export")?)),
            "--help" | "-h" => {
                return Err(
                    "usage: djinn-server [--addr HOST:PORT] [--backend cpu|sim-gpu] \
                            [--batch N] [--threads N] [--queue N] \
                            [--device-threads N] [--sla-ms N] [--models DIR] \
                            [--tiny-zoo] [--lm] [--only NAME,NAME] \
                            [--service-delay-us N] [--cache off|exact|embed|both] \
                            [--cache-mb N] [--export DIR]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if let Some(sla) = sla {
        if args.batch.is_none() {
            return Err("--sla-ms needs --batch: it budgets the batching window".into());
        }
        args.colocation = ColocationPolicy::Dynamic { sla };
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(dir) = args.export {
        return export_models(&dir);
    }

    if args.tiny_zoo && args.models.is_some() {
        eprintln!("--tiny-zoo and --models are mutually exclusive");
        return ExitCode::FAILURE;
    }
    let mut registry = match (&args.models, args.tiny_zoo) {
        (Some(dir), _) => match ModelRegistry::from_dir(dir) {
            Ok(reg) if !reg.is_empty() => reg,
            Ok(_) => {
                eprintln!("no .djnm model files found in {}", dir.display());
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("failed to load models from {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        },
        (None, true) => match ModelRegistry::with_tiny_test_zoo() {
            Ok(reg) => reg,
            Err(e) => {
                eprintln!("failed to build tiny test zoo: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, false) => match ModelRegistry::with_tonic_models() {
            Ok(reg) => reg,
            Err(e) => {
                eprintln!("failed to build Tonic models: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if !args.only.is_empty() {
        if let Err(e) = registry.retain_only(&args.only) {
            eprintln!("bad --only: {e}");
            return ExitCode::FAILURE;
        }
    }
    if args.lm {
        // The generative LM rides alongside whichever zoo was chosen;
        // the fixed seed makes every `--lm` server serve the same
        // weights, so routed replicas stay interchangeable.
        match dnn::Network::with_random_weights(dnn::zoo::textgen(), 0x7E47) {
            Ok(net) => registry.register("textgen", net),
            Err(e) => {
                eprintln!("failed to build textgen LM: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "loaded {} models ({:.1} MB resident): {}",
        registry.len(),
        registry.resident_bytes() as f64 / 1e6,
        registry.names().join(", ")
    );

    let config = ServerConfig {
        bind_addr: args.addr,
        backend: args.backend,
        batching: args.batch.map(|max_batch| BatchConfig {
            max_batch,
            max_delay: Duration::from_millis(2),
        }),
        threads: args.threads,
        queue_capacity: args.queue,
        service_delay: args.service_delay,
        device_capacity: args.device_threads,
        colocation: args.colocation,
        cache_mode: args.cache,
        cache_bytes: args.cache_mb * 1024 * 1024,
    };
    let server = match DjinnServer::start(registry, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("DjiNN serving on {}", server.local_addr());
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}

fn export_models(dir: &std::path::Path) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for app in dnn::zoo::App::ALL {
        let net = match dnn::zoo::network(app) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("building {app}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let path = dir.join(format!("{}.djnm", app.name().to_lowercase()));
        let file = match std::fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("creating {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = dnn::modelfile::save(&net, std::io::BufWriter::new(file)) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn sla_with_batch_selects_the_dynamic_policy() {
        let args = parse(&["--batch", "8", "--sla-ms", "30"]).unwrap();
        let sla = Duration::from_millis(30);
        assert_eq!(args.colocation, ColocationPolicy::Dynamic { sla });
    }

    #[test]
    fn batch_alone_always_batches() {
        let args = parse(&["--batch", "8"]).unwrap();
        assert_eq!(args.colocation, ColocationPolicy::AlwaysBatch);
    }

    #[test]
    fn policy_is_an_unknown_flag() {
        let err = parse(&["--batch", "8", "--policy", "dynamic"]).unwrap_err();
        assert_eq!(err, "unknown flag `--policy`");
    }

    #[test]
    fn sla_without_batch_is_refused() {
        let err = parse(&["--sla-ms", "30"]).unwrap_err();
        assert!(err.contains("--sla-ms needs --batch"), "{err}");
    }
}
