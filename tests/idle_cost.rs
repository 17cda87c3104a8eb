//! What idle connections cost the service: no thread each, and no
//! wake-ups while nothing happens. Counted from `/proc/self/task`, so
//! these tests check something only on Linux.
//!
//! The counts cover the whole process, so this binary holds nothing but
//! these tests, and they take turns. The idle checks' names start `idle_`
//! so CI can run the group by name. One more reads what the service's
//! threads look like to the scheduler: the compute threads' nice against
//! the poll loop's.

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

/// This process's threads whose name starts with `prefix`: each one's
/// name and `/proc` directory.
fn tasks(prefix: &str) -> Vec<(String, std::path::PathBuf)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|t| {
            let dir = t.ok()?.path();
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
            comm.starts_with(prefix)
                .then(|| (comm.trim_end().to_string(), dir))
        })
        .collect()
}

/// The service's own threads in this process: every one it starts is
/// named `djinn-...`, so a test harness thread that exits between two
/// counts does not move them. A new thread takes its name only once it
/// first runs, and until then shows its parent's, so this first waits
/// (up to five seconds) until no thread but the caller shows the
/// caller's name.
fn threads() -> usize {
    let me = std::fs::read_to_string("/proc/thread-self/comm").unwrap_or_default();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while tasks(me.trim_end()).len() > 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    tasks("djinn-").len()
}

/// Voluntary context switches — times a thread blocked — summed over
/// this process's threads whose name starts with `prefix`.
fn switches(prefix: &str) -> u64 {
    tasks(prefix)
        .iter()
        .filter_map(|(_, dir)| {
            let status = std::fs::read_to_string(dir.join("status")).ok()?;
            let line = status
                .lines()
                .find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .sum()
}

/// A thread's nice value: field 19 of its `stat`, counted after the
/// parenthesised name, which may itself hold spaces.
fn nice(dir: &std::path::Path) -> Option<i64> {
    let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
    let after_name = &stat[stat.rfind(')')? + 1..];
    after_name.split_whitespace().nth(19 - 3)?.parse().ok()
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
    // Signed: a thread of an earlier test's server can still be leaving
    // `/proc` while this one counts.
    let added = threads() as i64 - before as i64;
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

/// Every engine's dispatch thread runs below the server's poll loop: a
/// cache hit or a ready reply on the loop should not wait behind a
/// forward pass for the CPU. The dispatch threads lower their own nice as
/// they start, so the test waits until each has.
#[test]
fn compute_threads_yield_to_the_io_loop() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    if !on_linux() {
        return;
    }
    let server = DjinnServer::start(
        ModelRegistry::with_tiny_test_zoo().unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let niceness = |prefix: &str| -> Vec<(String, i64)> {
        tasks(prefix)
            .into_iter()
            .filter_map(|(name, dir)| Some((name, nice(&dir)?)))
            .collect()
    };
    assert!(threads() > 1, "the server and its engines are named");
    let poll = niceness("djinn-server");
    assert_eq!(poll.len(), 1, "one poll thread: {poll:?}");
    // A dispatch thread is named before it runs a line of its own, so it
    // may not have lowered its nice yet.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let engines = loop {
        let engines = niceness("djinn-engine-");
        if engines.iter().all(|(_, n)| *n > poll[0].1) || std::time::Instant::now() > deadline {
            break engines;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(!engines.is_empty(), "the tiny zoo starts engine threads");
    for (name, n) in &engines {
        assert!(
            *n > poll[0].1,
            "{name} runs at nice {n}, not below the poll thread's {}",
            poll[0].1
        );
    }
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
