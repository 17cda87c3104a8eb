//! The full pretrained-model life cycle across crates: define in the text
//! format → save to a model file → load into a registry → serve over TCP
//! → answer with exactly the bits the in-memory network computes.

use djinn_tonic::djinn::{DjinnClient, DjinnServer, ModelRegistry, ServerConfig};
use djinn_tonic::dnn::{modelfile, parser, Network};
use djinn_tonic::tensor::{Shape, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn define_save_load_serve_roundtrip() {
    let def = parser::parse_netdef(
        "
        name: leftright
        input: 1 8 8
        layer conv1 conv out=4 kernel=3 stride=1 pad=1
        layer relu1 relu
        layer pool1 maxpool kernel=2 stride=2
        layer fc1 fc out=2
        layer prob softmax
    ",
    )
    .unwrap();
    let net = Network::with_random_weights(def, 3).unwrap();

    // Save and reload through the model-file format.
    let mut file = Vec::new();
    modelfile::save(&net, &mut file).unwrap();
    let loaded = modelfile::load(&file[..]).unwrap();
    assert_eq!(loaded, net);

    // Serve the loaded model: every answer over TCP is the local forward
    // pass, bit for bit.
    let mut registry = ModelRegistry::new();
    registry.register("leftright", loaded);
    let server = DjinnServer::start(registry, ServerConfig::default()).unwrap();
    let mut client = DjinnClient::connect(server.local_addr()).unwrap();
    for seed in 9000..9030 {
        let img = Tensor::random_uniform(Shape::nchw(1, 1, 8, 8), 1.0, seed);
        let served = client.infer("leftright", &img).unwrap();
        let local = net.forward(&img).unwrap();
        assert_eq!(served.shape(), local.shape(), "seed {seed}");
        assert_eq!(bits(&served), bits(&local), "seed {seed}: remote != local");
    }

    // Server-side stats reflect the traffic.
    let stats = client.stats().unwrap();
    let entry = stats.iter().find(|s| s.model == "leftright").unwrap();
    assert_eq!(entry.requests, 30);
    assert_eq!(entry.errors, 0);
    assert!(entry.mean_latency_us() > 0.0);
    server.shutdown();
}

#[test]
fn stats_count_errors_separately() {
    let server = DjinnServer::start_with_tonic_models(ServerConfig::default()).unwrap();
    let mut client = DjinnClient::connect(server.local_addr()).unwrap();
    // One good request, one bad-shape request.
    let good = Tensor::zeros(Shape::nchw(1, 1, 28, 28));
    client.infer("dig", &good).unwrap();
    let bad = Tensor::zeros(Shape::nchw(1, 3, 9, 9));
    assert!(client.infer("dig", &bad).is_err());
    let stats = client.stats().unwrap();
    let dig = stats.iter().find(|s| s.model == "dig").unwrap();
    assert_eq!(dig.requests, 1);
    assert_eq!(dig.errors, 1);
    server.shutdown();
}
