//! The DjiNN scale-out front end daemon.
//!
//! ```text
//! djinn-router [--addr HOST:PORT] --replica HOST:PORT [--replica ...]
//!              [--stats-interval-ms N] [--max-clients N]
//! ```
//!
//! Clients connect to the router exactly as they would to a single
//! `djinn-server`; each infer frame is forwarded to a backing replica
//! chosen by model affinity and by the requests it owes and the `Busy`
//! replies it has just returned (see the `djinn::router` module docs). `--replica` repeats once per replica and also accepts a
//! comma-separated list. All replicas must be up at startup.

use std::process::ExitCode;
use std::time::Duration;

use djinn::{DjinnRouter, RouterConfig};

struct Args {
    addr: String,
    replicas: Vec<std::net::SocketAddr>,
    stats_interval: Duration,
    max_clients: usize,
}

fn parse_args() -> Result<Args, String> {
    let defaults = RouterConfig::default();
    let mut args = Args {
        addr: "127.0.0.1:7500".into(),
        replicas: Vec::new(),
        stats_interval: defaults.stats_interval,
        max_clients: defaults.max_clients,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--replica" => {
                for part in value("--replica")?.split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    args.replicas.push(
                        part.parse()
                            .map_err(|e| format!("bad replica {part}: {e}"))?,
                    );
                }
            }
            "--stats-interval-ms" => {
                let ms: u64 = value("--stats-interval-ms")?
                    .parse()
                    .map_err(|e| format!("bad --stats-interval-ms: {e}"))?;
                if ms == 0 {
                    return Err("--stats-interval-ms must be at least 1".into());
                }
                args.stats_interval = Duration::from_millis(ms);
            }
            "--max-clients" => {
                args.max_clients = value("--max-clients")?
                    .parse()
                    .map_err(|e| format!("bad --max-clients: {e}"))?;
                if args.max_clients == 0 {
                    return Err("--max-clients must be at least 1".into());
                }
            }
            "--help" | "-h" => {
                return Err(
                    "usage: djinn-router [--addr HOST:PORT] --replica HOST:PORT [--replica ...] \
                     [--stats-interval-ms N] [--max-clients N]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.replicas.is_empty() {
        return Err("at least one --replica is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let config = RouterConfig {
        bind_addr: args.addr,
        replicas: args.replicas.clone(),
        stats_interval: args.stats_interval,
        max_clients: args.max_clients,
    };
    let router = match DjinnRouter::start(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("failed to start router: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "DjiNN router on {} -> {} replicas",
        router.local_addr(),
        args.replicas.len(),
    );
    // Route until the process is killed.
    loop {
        std::thread::park();
    }
}
