//! End-to-end tests for the scale-out router tier: a `djinn-router`
//! front end fanning one or many client connections out across several
//! `djinn-server` replicas.
//!
//! Every test name is prefixed `router_` so CI can run exactly this
//! suite by name (`cargo test --test router router_`).

use std::net::SocketAddr;
use std::time::Duration;

use djinn_tonic::djinn::{
    DjinnClient, DjinnError, DjinnRouter, DjinnServer, ModelRegistry, RouterConfig, ServerConfig,
};
use djinn_tonic::tensor::Tensor;

/// Starts a tiny-zoo replica serving only the named models (all of the
/// zoo when `only` is empty).
fn start_replica(only: &[&str]) -> DjinnServer {
    start_replica_with(only, ServerConfig::default())
}

fn start_replica_with(only: &[&str], config: ServerConfig) -> DjinnServer {
    let mut registry = ModelRegistry::with_tiny_test_zoo().expect("tiny zoo");
    if !only.is_empty() {
        registry.retain_only(only).expect("retain");
    }
    DjinnServer::start(registry, config).expect("replica start")
}

fn start_router(replicas: &[&DjinnServer]) -> DjinnRouter {
    let config = RouterConfig {
        replicas: replicas.iter().map(|s| s.local_addr()).collect(),
        stats_interval: Duration::from_millis(10),
        ..RouterConfig::default()
    };
    DjinnRouter::start(config).expect("router start")
}

fn connect(addr: SocketAddr) -> DjinnClient {
    DjinnClient::connect_with_timeout(addr, Duration::from_secs(10)).expect("connect")
}

/// Deterministic per-model inputs: the tiny zoo's models are themselves
/// bit-identical across processes (fixed seeds), so any replica must
/// produce the same output for the same input.
fn input_for(model: &str) -> Tensor {
    let def = djinn_tonic::dnn::zoo::tiny_test_zoo()
        .into_iter()
        .find(|d| d.name() == model)
        .expect("known tiny model");
    Tensor::random_uniform(def.input_shape().clone(), 0.5, 7)
}

#[test]
fn router_end_to_end_matches_direct_inference() {
    let replica_a = start_replica(&[]);
    let replica_b = start_replica(&[]);
    let router = start_router(&[&replica_a, &replica_b]);

    let mut via_router = connect(router.local_addr());
    let mut direct = connect(replica_a.local_addr());
    for model in ["tiny-mnist", "tiny-senna"] {
        let input = input_for(model);
        let routed = via_router.infer(model, &input).expect("routed infer");
        let reference = direct.infer(model, &input).expect("direct infer");
        assert_eq!(
            routed, reference,
            "{model}: routed output must equal a replica's direct output"
        );
    }

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn router_routes_by_model_affinity_across_shards() {
    // Each model lives on exactly one replica: routing must follow the
    // model map, not spray blindly.
    let mnist_only = start_replica(&["tiny-mnist"]);
    let senna_only = start_replica(&["tiny-senna"]);
    let router = start_router(&[&mnist_only, &senna_only]);

    let mut client = connect(router.local_addr());
    // The router's model list is the union of the shards.
    assert_eq!(
        client.list_models().expect("list"),
        vec!["tiny-mnist".to_string(), "tiny-senna".to_string()]
    );
    for _ in 0..4 {
        for model in ["tiny-mnist", "tiny-senna"] {
            let input = input_for(model);
            client.infer(model, &input).expect("sharded infer");
        }
    }

    router.shutdown();
    mnist_only.shutdown();
    senna_only.shutdown();
}

#[test]
fn router_correlates_pipelined_requests_across_replicas() {
    let replica_a = start_replica(&[]);
    let replica_b = start_replica(&[]);
    let router = start_router(&[&replica_a, &replica_b]);

    // Reference outputs, computed directly against one replica.
    let inputs: Vec<(String, Tensor)> = (0..32)
        .map(|i| {
            let model = if i % 2 == 0 {
                "tiny-mnist"
            } else {
                "tiny-senna"
            };
            (model.to_string(), input_for(model))
        })
        .collect();
    let mut direct = connect(replica_a.local_addr());
    let expected: Vec<Tensor> = inputs
        .iter()
        .map(|(m, t)| direct.infer(m, t).expect("reference"))
        .collect();

    // Pipeline the same requests through the router on one connection;
    // replies may come back out of order, correlated by request ID.
    let mut client = connect(router.local_addr());
    let mut id_to_index = std::collections::HashMap::new();
    for (i, (model, input)) in inputs.iter().enumerate() {
        let id = client.submit(model, input).expect("submit");
        id_to_index.insert(id, i);
    }
    let mut seen = 0;
    while client.in_flight() > 0 {
        let done = client.recv_next().expect("recv");
        let i = id_to_index
            .remove(&done.request_id)
            .expect("every reply matches a submitted ID exactly once");
        let (tensor, _trace) = done.result.expect("routed infer");
        assert_eq!(tensor, expected[i], "request {i} got the wrong answer");
        seen += 1;
    }
    assert_eq!(seen, 32);

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn router_reports_unknown_models_with_the_callers_id() {
    let replica = start_replica(&[]);
    let router = start_router(&[&replica]);

    let mut client = connect(router.local_addr());
    let input = input_for("tiny-mnist");
    let err = client.infer("no-such-model", &input).expect_err("unknown");
    match err {
        DjinnError::Remote { message } => {
            assert!(message.contains("unknown model"), "{message}");
        }
        other => panic!("expected Remote error, got {other:?}"),
    }
    // The connection is still usable afterwards: the error was a
    // correlated reply, not a poisoned stream.
    client.infer("tiny-mnist", &input).expect("still usable");

    router.shutdown();
    replica.shutdown();
}

#[test]
fn router_holds_256_concurrent_client_connections() {
    let replica_a = start_replica(&[]);
    let replica_b = start_replica(&[]);
    let router = start_router(&[&replica_a, &replica_b]);

    // All 256 connections open at once in one router process — the
    // thread-per-connection design this replaces would need 256 threads.
    let input = input_for("tiny-mnist");
    let mut clients: Vec<DjinnClient> = (0..256).map(|_| connect(router.local_addr())).collect();
    // Submit one request on every connection before claiming any reply,
    // so all 256 connections are simultaneously active, then drain.
    let mut ids = Vec::with_capacity(clients.len());
    for c in clients.iter_mut() {
        ids.push(c.submit("tiny-mnist", &input).expect("submit"));
    }
    for (c, id) in clients.iter_mut().zip(ids) {
        let done = c.recv_next().expect("recv");
        assert_eq!(done.request_id, id);
        done.result.expect("infer via router");
    }

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn router_survives_replica_loss_and_reroutes() {
    // Both replicas serve the full zoo, so when one dies the other can
    // absorb everything.
    let replica_a = start_replica(&[]);
    let replica_b = start_replica(&[]);
    let router = start_router(&[&replica_a, &replica_b]);

    let mut client = connect(router.local_addr());
    let input = input_for("tiny-mnist");
    for _ in 0..6 {
        client.infer("tiny-mnist", &input).expect("warm up");
    }

    replica_b.shutdown();
    // The router notices the dead connection on its next tick; requests
    // already in flight there would fail with a correlated error, but
    // none are, so every subsequent infer must reroute and succeed.
    // (A shutdown replica also EOFs the router's upstream socket, which
    // is exactly the failure path under test.)
    std::thread::sleep(Duration::from_millis(50));
    for i in 0..20 {
        client
            .infer("tiny-mnist", &input)
            .unwrap_or_else(|e| panic!("infer {i} after replica loss: {e}"));
    }

    router.shutdown();
    replica_a.shutdown();
}

#[test]
fn router_aggregates_stats_across_the_fleet() {
    let mnist_only = start_replica(&["tiny-mnist"]);
    let senna_only = start_replica(&["tiny-senna"]);
    let router = start_router(&[&mnist_only, &senna_only]);

    let mut client = connect(router.local_addr());
    for model in ["tiny-mnist", "tiny-senna"] {
        let input = input_for(model);
        for _ in 0..5 {
            client.infer(model, &input).expect("infer");
        }
    }
    // Stats are served from the router's periodic polls; wait out at
    // least one full poll interval so the snapshot covers the traffic.
    std::thread::sleep(Duration::from_millis(100));
    let stats = client.stats().expect("stats");
    for model in ["tiny-mnist", "tiny-senna"] {
        let m = stats
            .iter()
            .find(|s| s.model == model)
            .unwrap_or_else(|| panic!("{model} missing from merged stats"));
        assert!(m.requests >= 5, "{model}: {} requests", m.requests);
    }

    router.shutdown();
    mnist_only.shutdown();
    senna_only.shutdown();
}

/// Sends `n` `tiny-mnist` requests through the router on one connection,
/// `window` in flight at a time; returns how many came back `Busy`.
fn pipeline_through(router: &DjinnRouter, n: usize, window: usize) -> usize {
    let mut client = connect(router.local_addr());
    let input = input_for("tiny-mnist");
    let (mut sent, mut busy) = (0, 0);
    while sent < n || client.in_flight() > 0 {
        while sent < n && client.in_flight() < window {
            client.submit("tiny-mnist", &input).expect("submit");
            sent += 1;
        }
        match client.recv_next().expect("recv").result {
            Ok(_) => {}
            Err(DjinnError::Busy { .. }) => busy += 1,
            Err(e) => panic!("routed infer: {e}"),
        }
    }
    busy
}

/// `tiny-mnist` requests served and shed, by the replica's own `Stats`.
fn served_and_shed(replica: &DjinnServer) -> (u64, u64) {
    let stats = connect(replica.local_addr()).stats().expect("stats");
    let m = stats
        .iter()
        .find(|s| s.model == "tiny-mnist")
        .expect("tiny-mnist in stats");
    (m.requests, m.shed)
}

#[test]
fn router_favours_the_replica_that_answers_faster() {
    // The slow replica is listed first, so ties go to it: only the
    // fast one's shorter backlog can draw the traffic away.
    let with_delay = |ms| ServerConfig {
        service_delay: Some(Duration::from_millis(ms)),
        ..ServerConfig::default()
    };
    let slow = start_replica_with(&["tiny-mnist"], with_delay(8));
    let fast = start_replica_with(&["tiny-mnist"], with_delay(1));
    let router = start_router(&[&slow, &fast]);

    let n = 120;
    assert_eq!(pipeline_through(&router, n, 4), 0, "nothing is shed");
    let (on_slow, on_fast) = (served_and_shed(&slow).0, served_and_shed(&fast).0);
    assert_eq!(on_slow + on_fast, n as u64);
    assert!(
        on_fast * 3 >= n as u64 * 2,
        "the fast replica served {on_fast} of {n} (slow: {on_slow})"
    );

    router.shutdown();
    slow.shutdown();
    fast.shutdown();
}

#[test]
fn router_steers_away_from_a_shedding_replica() {
    // The shedding replica answers `Busy` at once, so by outstanding
    // count alone it looks idle; listed first, it would win every tie.
    let config = |queue_capacity| ServerConfig {
        queue_capacity,
        service_delay: Some(Duration::from_millis(3)),
        ..ServerConfig::default()
    };
    let shedding = start_replica_with(&["tiny-mnist"], config(1));
    let roomy = start_replica_with(
        &["tiny-mnist"],
        config(ServerConfig::default().queue_capacity),
    );
    let router = start_router(&[&shedding, &roomy]);

    let n = 400;
    let busy = pipeline_through(&router, n, 16);
    let (served_a, shed) = served_and_shed(&shedding);
    let served_b = served_and_shed(&roomy).0;
    assert_eq!(shed, busy as u64, "the client saw each shed as Busy");
    assert_eq!(served_a + served_b + shed, n as u64);
    assert!(
        busy * 5 < n,
        "{busy} of {n} shed (served {served_a} on the shedding replica, {served_b} on the other)"
    );

    router.shutdown();
    shedding.shutdown();
    roomy.shutdown();
}
