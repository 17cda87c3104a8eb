//! What idle connections cost the service: no thread each, and no
//! wake-ups while nothing happens. Counted from `/proc/self/task`, so
//! these tests check something only on Linux.
//!
//! The counts cover the whole process, so this binary holds nothing but
//! these tests, and they take turns. Every name starts `idle_` so CI can
//! run the group by name.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

use djinn_tonic::djinn::{
    DjinnClient, DjinnRouter, DjinnServer, ModelRegistry, RouterConfig, ServerConfig,
};
use djinn_tonic::tensor::{Shape, Tensor};

/// Serializes the tests: each counts every thread in the process.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const IDLE: usize = 64;
const WATCH: Duration = Duration::from_millis(500);

fn on_linux() -> bool {
    std::path::Path::new("/proc/self/task").exists()
}

/// Threads in this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// Voluntary context switches — times a thread blocked — summed over
/// this process's threads whose name starts with `prefix`.
fn switches(prefix: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| {
            let dir = t.ok()?.path();
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
            if !comm.starts_with(prefix) {
                return None;
            }
            let status = std::fs::read_to_string(dir.join("status")).ok()?;
            let line = status
                .lines()
                .find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .sum()
}

/// Opens `IDLE` connections to `addr`, each answered once and then left
/// open and silent.
fn idle_clients(addr: SocketAddr) -> Vec<DjinnClient> {
    let input = Tensor::random_uniform(Shape::mat(1, 30), 1.0, 9);
    (0..IDLE)
        .map(|_| {
            let mut c = DjinnClient::connect(addr).unwrap();
            c.infer("tiny-senna", &input).unwrap();
            c
        })
        .collect()
}

/// Voluntary switches of the `prefix` threads over `WATCH` of quiet.
fn switches_while_idle(prefix: &str) -> u64 {
    std::thread::sleep(Duration::from_millis(50));
    let before = switches(prefix);
    std::thread::sleep(WATCH);
    switches(prefix) - before
}

/// The server: 64 idle connections add no thread, and over half a
/// second its threads (the loop and every engine worker) block at most
/// twice — a thread per connection polling a stop flag, or a reply
/// thread per connection, would show here.
#[test]
fn idle_server_connections_cost_no_threads_and_no_wakeups() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    if !on_linux() {
        return;
    }
    let server = DjinnServer::start(
        ModelRegistry::with_tiny_test_zoo().unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let before = threads();
    let idle = idle_clients(server.local_addr());
    let added = threads() - before;
    let woke = switches_while_idle("djinn-");
    assert_eq!(
        added, 0,
        "{IDLE} idle connections added {added} threads ({woke} wake-ups in {WATCH:?})"
    );
    assert!(
        woke <= 2,
        "the idle server's threads blocked {woke} times in {WATCH:?}"
    );
    drop(idle);
    server.shutdown();
}

/// The router: with 64 idle clients it wakes for its stats ticks and for
/// nothing else.
#[test]
fn idle_router_wakes_only_for_its_stats_ticks() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    if !on_linux() {
        return;
    }
    let replica = DjinnServer::start(
        ModelRegistry::with_tiny_test_zoo().unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let interval = Duration::from_millis(100);
    let router = DjinnRouter::start(RouterConfig {
        replicas: vec![replica.local_addr()],
        stats_interval: interval,
        ..RouterConfig::default()
    })
    .unwrap();
    let idle = idle_clients(router.local_addr());
    let woke = switches_while_idle("djinn-router");
    let ticks = (WATCH.as_millis() / interval.as_millis()) as u64;
    assert!(
        woke <= 2 + ticks,
        "the idle router blocked {woke} times in {WATCH:?} ({ticks} stats ticks)"
    );
    drop(idle);
    router.shutdown();
    replica.shutdown();
}
