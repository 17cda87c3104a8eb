//! Cache-correctness suite for the content-keyed inference cache.
//!
//! The contract under test: enabling the cache must be **behaviorally
//! invisible** except for latency. Every cached answer is bitwise
//! identical to what the uncached engine would have computed, across
//! every model of the tiny zoo, under eviction pressure, under adversely
//! colliding hashes, under concurrent hammering, and under arbitrary
//! interleavings of repeated and fresh inputs (the proptest below). The
//! unit tests inside `dnn::cache` pin the data structure; this file pins
//! the engine-level behavior a client can actually observe.

use std::sync::Arc;

use djinn_tonic::djinn::{CpuExecutor, EngineConfig, InferenceEngine};
use djinn_tonic::dnn::cache::{tensor_key, CacheMode, ExactCache, InferenceCache, ShardedLru};
use djinn_tonic::dnn::{zoo, Network};
use djinn_tonic::tensor::{Shape, Tensor};
use proptest::prelude::*;

/// Spawns an engine for `net` with the given cache mode (16 KiB is
/// plenty for tiny-zoo outputs; `None` budget-sizing is not under test
/// here).
fn engine_with_cache(net: Arc<Network>, mode: CacheMode) -> InferenceEngine {
    let cache = InferenceCache::new(mode, 16 * 1024).map(Arc::new);
    InferenceEngine::start(
        "test",
        net,
        Arc::new(CpuExecutor::default()),
        EngineConfig {
            cache,
            ..EngineConfig::default()
        },
    )
}

/// Deterministic input for a zoo definition: `rows` stacked queries,
/// seeded per `salt` so distinct salts give distinct bytes.
fn input_for(def: &djinn_tonic::dnn::NetDef, rows: usize, salt: u64) -> Tensor {
    Tensor::random_uniform(def.input_shape().with_batch(rows), 1.0, 0xCAC4E + salt)
}

/// Tentpole criterion: for every tiny-zoo model and every cache mode, a
/// cache hit returns the *bit-identical* tensor an uncached engine
/// computes — not approximately equal, identical. The first request
/// populates, the second hits; both are compared bit-for-bit against a
/// direct `Network::forward` reference.
#[test]
fn cached_outputs_are_bitwise_identical_across_the_tiny_zoo() {
    for def in zoo::tiny_test_zoo() {
        let net = Arc::new(Network::with_random_weights(def.clone(), 7).unwrap());
        for mode in [CacheMode::Exact, CacheMode::Embed, CacheMode::Both] {
            let engine = engine_with_cache(Arc::clone(&net), mode);
            for rows in [1usize, 3] {
                let input = input_for(&def, rows, rows as u64);
                let want = net.forward(&input).unwrap();
                let cold = engine.infer(input.clone()).unwrap();
                let hot = engine.infer(input.clone()).unwrap();
                for (label, got) in [("cold", &cold), ("hot", &hot)] {
                    let same = got.data().len() == want.data().len()
                        && got
                            .data()
                            .iter()
                            .zip(want.data())
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "{} ({mode}) {label} response differs bitwise from the \
                         uncached reference",
                        def.name()
                    );
                }
            }
            engine.shutdown();
        }
    }
}

/// Eviction safety: a cache squeezed far below the working set must keep
/// honoring its byte budget, keep counting evictions, and *never* serve
/// a wrong answer — an evicted entry is recomputed, not misattributed.
#[test]
fn eviction_pressure_never_corrupts_answers() {
    let def = zoo::tiny_test_zoo().into_iter().next().unwrap();
    let net = Arc::new(Network::with_random_weights(def.clone(), 7).unwrap());
    // Budget fits only a handful of entries (8 KiB across 8 shards is
    // one ~640-byte tiny-mnist entry per shard); 32 distinct inputs
    // cycle through it repeatedly.
    let cache = Arc::new(InferenceCache::new(CacheMode::Exact, 8192).unwrap());
    let engine = InferenceEngine::start(
        "test",
        Arc::clone(&net),
        Arc::new(CpuExecutor::default()),
        EngineConfig {
            cache: Some(Arc::clone(&cache)),
            ..EngineConfig::default()
        },
    );
    let inputs: Vec<Tensor> = (0..32).map(|i| input_for(&def, 1, i)).collect();
    let want: Vec<Tensor> = inputs.iter().map(|t| net.forward(t).unwrap()).collect();
    for round in 0..3 {
        for (i, input) in inputs.iter().enumerate() {
            let got = engine.infer(input.clone()).unwrap();
            assert!(
                got.data()
                    .iter()
                    .zip(want[i].data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "round {round} input {i}: wrong answer under eviction churn"
            );
            let stats = cache.stats();
            assert!(
                stats.resident_bytes <= 8192,
                "resident {} bytes exceeds the 8192-byte budget",
                stats.resident_bytes
            );
        }
    }
    let stats = cache.stats();
    assert!(
        stats.evictions > 0,
        "32 entries cycling through an 8 KiB budget must evict"
    );
    engine.shutdown();
}

/// Hash-collision hardening at the engine-visible layer: with a hasher
/// that maps *every* key to the same bucket, distinct inputs must still
/// resolve to their own outputs. An implementation matching on hash
/// alone returns input A's tensor for input B and fails here.
#[test]
fn colliding_hashes_never_serve_the_wrong_tensor() {
    let cache = ExactCache::with_hasher(64 * 1024, |_| 42);
    let a = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 1);
    let b = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 2);
    assert_ne!(tensor_key(&a), tensor_key(&b), "inputs must differ");
    let out_a = Tensor::random_uniform(Shape::mat(1, 4), 1.0, 11);
    let out_b = Tensor::random_uniform(Shape::mat(1, 4), 1.0, 12);
    cache.insert(&a, &out_a);
    cache.insert(&b, &out_b);
    assert_eq!(cache.get(&a).unwrap().data(), out_a.data());
    assert_eq!(cache.get(&b).unwrap().data(), out_b.data());
    // And a key that was never inserted misses — equal hash is not
    // equal key.
    let c = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 3);
    assert!(cache.get(&c).is_none(), "hash-only matching detected");
}

/// Same property on the raw sharded store with byte-level accounting:
/// all-colliding keys chain in one bucket and stay individually
/// retrievable.
#[test]
fn colliding_keys_chain_and_stay_retrievable() {
    let lru: ShardedLru<u32> = ShardedLru::with_hasher(1 << 20, |_| 7);
    for i in 0..100u32 {
        lru.insert(vec![i], i, 16);
    }
    for i in 0..100u32 {
        assert_eq!(lru.get(&[i]), Some(i), "key {i} lost in collision chain");
    }
    assert_eq!(lru.get(&[1000]), None);
}

/// Concurrent hits: many threads hammer the same two inputs through one
/// caching engine. Every response must be one of the two reference
/// outputs (matched to its input), and the engine must survive the
/// insert/get races on the shared shards.
#[test]
fn concurrent_hits_race_safely_through_the_engine() {
    let def = zoo::tiny_test_zoo().into_iter().next().unwrap();
    let net = Arc::new(Network::with_random_weights(def.clone(), 7).unwrap());
    let engine = Arc::new(engine_with_cache(Arc::clone(&net), CacheMode::Both));
    let inputs: Vec<Tensor> = (0..2).map(|i| input_for(&def, 1, i)).collect();
    let want: Vec<Tensor> = inputs.iter().map(|t| net.forward(t).unwrap()).collect();
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let inputs = inputs.clone();
            let want: Vec<Vec<u32>> = want
                .iter()
                .map(|w| w.data().iter().map(|f| f.to_bits()).collect())
                .collect();
            std::thread::spawn(move || {
                for i in 0..50 {
                    let which = (t + i) % inputs.len();
                    let got = engine.infer(inputs[which].clone()).unwrap();
                    let bits: Vec<u32> = got.data().iter().map(|f| f.to_bits()).collect();
                    assert_eq!(
                        bits, want[which],
                        "thread {t} iteration {i}: racy wrong answer"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = engine.stats();
    assert!(
        stats.cache_hits >= 8 * 50 - 100,
        "8 threads x 50 requests over 2 inputs should mostly hit \
         (got {} hits)",
        stats.cache_hits
    );
    Arc::try_unwrap(engine).ok().unwrap().shutdown();
}

/// The embed cache's miss path at `pos`'s serving height: one 28-row
/// request mixes warm rows, cold rows and one cold row sent twice. Its
/// cold rows go through the prefix as one batch, so this is where a
/// row's bits must not depend on what it is batched with: the output
/// equals `forward()`'s bit for bit, each distinct cold row adds one
/// entry (the repeat's second insert replaces its first), the same
/// request warm equals it again, and a threaded call equals a serial
/// one.
#[test]
fn embed_cache_batched_cold_rows_equal_forward_bitwise() {
    use djinn_tonic::dnn::cache::EmbedCache;
    use djinn_tonic::tensor::Threading;
    let net = zoo::network(zoo::App::Pos).unwrap();
    let width = net.def().input_shape().dims()[1];
    let pool = Tensor::random_uniform(Shape::mat(40, width), 1.0, 0xC01D);
    let row = |i: usize| &pool.data()[i * width..][..width];
    // Rows 0..10 are warmed first; the request repeats cold row 20.
    let picks: Vec<usize> = (0..10).chain(10..27).chain([20]).collect();
    let input = Tensor::from_vec(
        Shape::mat(picks.len(), width),
        picks.iter().flat_map(|&i| row(i)).copied().collect(),
    )
    .unwrap();
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let want = bits(&net.forward(&input).unwrap());
    for threading in [Threading::SINGLE, Threading::new(3)] {
        let cache = EmbedCache::new(64 << 20);
        let warm =
            Tensor::from_vec(Shape::mat(10, width), pool.data()[..10 * width].to_vec()).unwrap();
        net.forward_embed_cached(&warm, &cache, threading).unwrap();
        let before = cache.stats();
        let got = net.forward_embed_cached(&input, &cache, threading).unwrap();
        assert_eq!(
            bits(&got),
            want,
            "{threading:?}: mixed request differs from forward()"
        );
        let after = cache.stats();
        assert_eq!(
            after.hits - before.hits,
            10,
            "{threading:?}: the ten warm rows hit"
        );
        assert_eq!(
            after.insertions - before.insertions,
            17,
            "{threading:?}: 18 cold rows, 17 of them distinct, one new entry each"
        );
        let again = net.forward_embed_cached(&input, &cache, threading).unwrap();
        assert_eq!(
            bits(&again),
            want,
            "{threading:?}: all-warm request differs from forward()"
        );
        assert_eq!(
            cache.stats().insertions,
            after.insertions,
            "a warm request inserts nothing"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any interleaving of repeated and fresh inputs, every response
    /// from a caching engine is bitwise identical to the uncached
    /// reference — the cache can never change an answer, only its cost.
    #[test]
    fn random_interleavings_never_change_any_response(
        picks in prop::collection::vec(0usize..6, 1..40),
        mode in prop::sample::select(vec![CacheMode::Exact, CacheMode::Embed, CacheMode::Both]),
    ) {
        let def = zoo::tiny_test_zoo().into_iter().next().unwrap();
        let net = Arc::new(Network::with_random_weights(def.clone(), 7).unwrap());
        let engine = engine_with_cache(Arc::clone(&net), mode);
        let pool: Vec<Tensor> = (0..6).map(|i| input_for(&def, 1, i)).collect();
        let want: Vec<Tensor> = pool.iter().map(|t| net.forward(t).unwrap()).collect();
        for &p in &picks {
            let got = engine.infer(pool[p].clone()).unwrap();
            let same = got
                .data()
                .iter()
                .zip(want[p].data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(same, "input {p} answered differently under {mode}");
        }
        engine.shutdown();
    }
}
