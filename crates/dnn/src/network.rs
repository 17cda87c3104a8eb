//! A network definition paired with weights: the executable model.

use tensor::{partition, Shape, Tensor, Threading};

use crate::cache::EmbedCache;
use crate::{DnnError, LayerSpec, LayerWeights, NetDef, Result};

/// An executable network: a [`NetDef`] plus one [`LayerWeights`] per layer.
///
/// This is what DjiNN loads into memory once per application at service
/// start-up; worker threads share it read-only (it is `Sync` because all
/// state is immutable after construction).
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    def: NetDef,
    weights: Vec<LayerWeights>,
}

impl Network {
    /// Creates a network with deterministic, architecture-correct random
    /// weights (see DESIGN.md §2 for why untrained weights suffice).
    ///
    /// # Errors
    ///
    /// Propagates shape-validation failures from the definition.
    pub fn with_random_weights(def: NetDef, seed: u64) -> Result<Self> {
        let shapes = def.layer_shapes(1)?;
        let weights = def
            .layers()
            .iter()
            .zip(&shapes)
            .enumerate()
            .map(|(i, (l, s))| LayerWeights::init(&l.spec, s, seed.wrapping_add(i as u64)))
            .collect();
        Ok(Network { def, weights })
    }

    /// Creates a network from explicit weights (e.g. deserialized from a
    /// model file).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadNetwork`] if the weight count does not match
    /// the layer count or any parameterized layer's weight volume is wrong.
    pub fn with_weights(def: NetDef, weights: Vec<LayerWeights>) -> Result<Self> {
        if weights.len() != def.layers().len() {
            return Err(DnnError::BadNetwork {
                reason: format!(
                    "{} weight entries for {} layers",
                    weights.len(),
                    def.layers().len()
                ),
            });
        }
        let shapes = def.layer_shapes(1)?;
        for ((l, s), w) in def.layers().iter().zip(&shapes).zip(&weights) {
            let want = l.spec.param_count(s);
            if w.param_count() != want {
                return Err(DnnError::BadNetwork {
                    reason: format!(
                        "layer `{}` expects {} params, got {}",
                        l.name,
                        want,
                        w.param_count()
                    ),
                });
            }
        }
        Ok(Network { def, weights })
    }

    /// The underlying definition.
    pub fn def(&self) -> &NetDef {
        &self.def
    }

    /// Per-layer weights, aligned with `def().layers()`.
    pub fn weights(&self) -> &[LayerWeights] {
        &self.weights
    }

    /// Total learned parameters.
    pub fn param_count(&self) -> usize {
        self.weights.iter().map(LayerWeights::param_count).sum()
    }

    /// Runs the inference (forward) pass on a batched input.
    ///
    /// The input's non-batch dimensions must match the definition's input
    /// shape; the batch axis may be any size — this is exactly the batching
    /// lever of §5.1 of the paper.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadInput`] on shape mismatch; propagates layer
    /// execution failures.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.forward_with(input, Threading::SINGLE)
    }

    /// [`Network::forward`] with a worker-thread budget applied *within*
    /// each layer (parallel convolution batches and GEMM row strips).
    ///
    /// Best for compute-heavy models (AlexNet, DeepFace) where single
    /// layers dominate. For skinny matrices on wide batches (SENNA),
    /// [`Network::forward_sharded`] usually scales better.
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward`].
    pub fn forward_with(&self, input: &Tensor, threading: Threading) -> Result<Tensor> {
        let want = self.def.input_shape();
        if input.shape().dims()[1..] != want.dims()[1..] || input.shape().rank() != want.rank() {
            return Err(DnnError::BadInput {
                expected: want.dims().to_vec(),
                actual: input.shape().dims().to_vec(),
            });
        }
        self.run_layers(0..self.def.depth(), input, threading)
    }

    /// Batch-sharded forward pass: splits the batch axis into contiguous
    /// shards, runs the whole layer stack per shard on scoped worker
    /// threads, and restacks the outputs in order.
    ///
    /// Every layer in this workspace treats batch items independently
    /// (convolution, pooling and LRN per image; inner product and softmax
    /// per row), so sharding is semantically transparent. It amortizes
    /// per-layer overhead across threads and is the profitable strategy
    /// for the paper's NLP services, whose per-item GEMMs are too skinny
    /// to split internally.
    ///
    /// With one worker (or a single-item batch) this degrades to
    /// [`Network::forward`] exactly.
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward`].
    pub fn forward_sharded(&self, input: &Tensor, threading: Threading) -> Result<Tensor> {
        let batch = *input.shape().dims().first().unwrap_or(&0);
        let workers = threading.workers_for(batch);
        if workers <= 1 {
            return self.forward_with(input, threading);
        }
        let sizes: Vec<usize> = partition(batch, workers)
            .into_iter()
            .map(|(s, e)| e - s)
            .collect();
        let shards = input.split_batch(&sizes)?;
        let results: Vec<Result<Tensor>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|shard| scope.spawn(move || self.forward(shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("forward shard panicked"))
                .collect()
        });
        let outs = results.into_iter().collect::<Result<Vec<_>>>()?;
        Ok(Tensor::stack_batch(&outs)?)
    }

    /// The length of this network's *embedding prefix*: the leading
    /// layer run (fully-connected lookup plus its activation) whose
    /// output depends on each input row independently. This is the
    /// memoizable region for SENNA-style NLP models, where the first
    /// inner product is a vocabulary-embedding lookup and hot words
    /// repeat across requests.
    ///
    /// Returns `None` for networks that don't open with an inner
    /// product on row-vector input (the convolutional models), in which
    /// case [`Network::forward_embed_cached`] degrades to an uncached
    /// forward pass.
    pub fn embed_prefix(&self) -> Option<usize> {
        if self.def.input_shape().rank() != 2 {
            return None;
        }
        let layers = self.def.layers();
        match layers.first().map(|l| &l.spec) {
            Some(LayerSpec::InnerProduct { .. }) => {}
            _ => return None,
        }
        let prefix = match layers.get(1).map(|l| &l.spec) {
            Some(LayerSpec::Activation(_)) => 2,
            _ => 1,
        };
        // A prefix covering the whole network would duplicate what the
        // exact-match cache already does, with per-row overhead on top.
        (prefix < layers.len()).then_some(prefix)
    }

    /// [`Network::forward_with`] that memoizes the embedding prefix
    /// per input row in `cache` (see [`EmbedCache`]).
    ///
    /// Rows whose bit pattern was seen before reuse the cached prefix
    /// output. The request's cold rows go through the prefix together,
    /// as one batch under `threading`, and are inserted. A row sent twice
    /// in one request is computed twice, and its second insert replaces
    /// the first with the same bits; repeats within a request are rare
    /// (none of the 256 sentences in the `zipf_cache_pos` benchmark's
    /// pool has one), so the batch does not search for them. A later
    /// hit is bitwise-identical to the miss that populated it because a
    /// row's output does not depend on its batch: every
    /// GEMM tier, at every thread count, sums each row in the same order
    /// (`tensor::gemm`'s reduction-order contract), and the prefix's
    /// activation works element by element. The layers after the prefix
    /// run batched under `threading` as usual.
    ///
    /// For networks with no embedding prefix this is exactly
    /// [`Network::forward_with`].
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward`].
    pub fn forward_embed_cached(
        &self,
        input: &Tensor,
        cache: &EmbedCache,
        threading: Threading,
    ) -> Result<Tensor> {
        let Some(prefix) = self.embed_prefix() else {
            return self.forward_with(input, threading);
        };
        let want = self.def.input_shape();
        if input.shape().dims()[1..] != want.dims()[1..] || input.shape().rank() != want.rank() {
            return Err(DnnError::BadInput {
                expected: want.dims().to_vec(),
                actual: input.shape().dims().to_vec(),
            });
        }
        let (rows, width) = input.shape().as_matrix();
        if rows == 0 {
            return self.forward_with(input, threading);
        }
        /// Where a row's prefix output comes from.
        enum Source {
            Hit(std::sync::Arc<[f32]>),
            Cold(usize),
        }
        let mut cold: Vec<&[f32]> = Vec::new();
        let sources: Vec<Source> = input
            .data()
            .chunks_exact(width)
            .map(|row| match cache.get_row(row) {
                Some(hit) => Source::Hit(hit),
                None => {
                    cold.push(row);
                    Source::Cold(cold.len() - 1)
                }
            })
            .collect();
        let (cold_out, cold_width) = if cold.is_empty() {
            (Vec::new(), 0)
        } else {
            let batch = Tensor::from_vec(Shape::mat(cold.len(), width), cold.concat())?;
            let out = self.run_layers(0..prefix, &batch, threading)?;
            let (_, out_width) = out.shape().as_matrix();
            for (row, out_row) in cold.iter().zip(out.data().chunks_exact(out_width)) {
                cache.insert_row(row, out_row);
            }
            (out.into_vec(), out_width)
        };
        let mut mid_data: Vec<f32> = Vec::new();
        let mut out_width = 0usize;
        for source in &sources {
            let out_row = match source {
                Source::Hit(hit) => &hit[..],
                Source::Cold(i) => &cold_out[i * cold_width..][..cold_width],
            };
            out_width = out_row.len();
            mid_data.extend_from_slice(out_row);
        }
        let mid = Tensor::from_vec(Shape::mat(rows, out_width), mid_data)?;
        self.run_layers(prefix..self.def.depth(), &mid, threading)
    }

    /// Runs the half-open layer range `span` on `input`, remapping layer
    /// errors to the failing layer's name. The first layer reads `input`
    /// where it lies; nothing is copied unless `span` is empty or opens
    /// with a pointwise layer. A pointwise layer after the first works in
    /// place on the activation this pass owns.
    fn run_layers(
        &self,
        span: std::ops::Range<usize>,
        input: &Tensor,
        threading: Threading,
    ) -> Result<Tensor> {
        let mut cur: Option<Tensor> = None;
        for (l, w) in self.def.layers()[span.clone()]
            .iter()
            .zip(&self.weights[span])
        {
            if let Some(t) = cur.as_mut() {
                if l.spec.forward_in_place(t) {
                    continue;
                }
            }
            let out = l
                .spec
                .forward_with(cur.as_ref().unwrap_or(input), w, threading)
                .map_err(|e| match e {
                    DnnError::BadLayer { reason, .. } => DnnError::BadLayer {
                        layer: l.name.clone(),
                        reason,
                    },
                    other => other,
                })?;
            cur = Some(out);
        }
        Ok(cur.unwrap_or_else(|| input.clone()))
    }

    /// Runs the forward pass, returning every intermediate activation
    /// (index `i` holds layer `i`'s output). Exposes intermediate results
    /// per C-INTERMEDIATE for users that need feature maps.
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward`].
    pub fn forward_all(&self, input: &Tensor) -> Result<Vec<Tensor>> {
        let mut acts = Vec::with_capacity(self.def.depth());
        let mut cur = input.clone();
        for (l, w) in self.def.layers().iter().zip(&self.weights) {
            cur = l.spec.forward(&cur, w)?;
            acts.push(cur.clone());
        }
        Ok(acts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivationKind, LayerDef, LayerSpec};
    use tensor::Shape;

    fn mlp() -> NetDef {
        NetDef::new(
            "mlp",
            Shape::mat(1, 8),
            vec![
                LayerDef {
                    name: "fc1".into(),
                    spec: LayerSpec::InnerProduct { out: 16 },
                },
                LayerDef {
                    name: "act1".into(),
                    spec: LayerSpec::Activation(ActivationKind::Relu),
                },
                LayerDef {
                    name: "fc2".into(),
                    spec: LayerSpec::InnerProduct { out: 4 },
                },
                LayerDef {
                    name: "prob".into(),
                    spec: LayerSpec::Softmax,
                },
            ],
        )
        .unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn forward_produces_probabilities() {
        let net = Network::with_random_weights(mlp(), 1).unwrap();
        let input = Tensor::random_uniform(Shape::mat(3, 8), 1.0, 2);
        let out = net.forward(&input).unwrap();
        assert_eq!(out.shape().dims(), &[3, 4]);
        for r in 0..3 {
            let sum: f32 = out.data()[r * 4..(r + 1) * 4].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn forward_batch_equals_itemwise() {
        // Batching must not change per-item results — the correctness
        // precondition for the paper's batching optimization.
        let net = Network::with_random_weights(mlp(), 7).unwrap();
        let a = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 3);
        let b = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 4);
        let batched = Tensor::stack_batch(&[a.clone(), b.clone()]).unwrap();
        let out_batched = net.forward(&batched).unwrap();
        let parts = out_batched.split_batch(&[1, 1]).unwrap();
        let out_a = net.forward(&a).unwrap();
        let out_b = net.forward(&b).unwrap();
        assert_eq!(bits(&parts[0]), bits(&out_a));
        assert_eq!(bits(&parts[1]), bits(&out_b));
    }

    #[test]
    fn sharded_forward_equals_serial() {
        let net = Network::with_random_weights(mlp(), 11).unwrap();
        let input = Tensor::random_uniform(Shape::mat(13, 8), 1.0, 12);
        let serial = net.forward(&input).unwrap();
        for threads in [1usize, 2, 4, 7, 32] {
            let sharded = net
                .forward_sharded(&input, Threading::new(threads))
                .unwrap();
            assert_eq!(sharded.shape(), serial.shape());
            assert_eq!(bits(&sharded), bits(&serial), "threads={threads}");
        }
    }

    #[test]
    fn threaded_forward_equals_serial() {
        let net = Network::with_random_weights(mlp(), 5).unwrap();
        let input = Tensor::random_uniform(Shape::mat(9, 8), 1.0, 6);
        let serial = net.forward(&input).unwrap();
        let threaded = net.forward_with(&input, Threading::new(4)).unwrap();
        assert_eq!(bits(&threaded), bits(&serial));
    }

    #[test]
    fn forward_rejects_wrong_shape() {
        let net = Network::with_random_weights(mlp(), 1).unwrap();
        let bad = Tensor::zeros(Shape::mat(1, 9));
        assert!(matches!(net.forward(&bad), Err(DnnError::BadInput { .. })));
    }

    #[test]
    fn with_weights_validates_counts() {
        let def = mlp();
        let too_few = Network::with_weights(def.clone(), vec![LayerWeights::none()]);
        assert!(too_few.is_err());
        let net = Network::with_random_weights(def.clone(), 1).unwrap();
        let rebuilt = Network::with_weights(def, net.weights().to_vec()).unwrap();
        assert_eq!(rebuilt.param_count(), net.param_count());
    }

    #[test]
    fn embed_prefix_detects_fc_plus_activation() {
        let net = Network::with_random_weights(mlp(), 1).unwrap();
        assert_eq!(net.embed_prefix(), Some(2), "fc1 + act1 form the prefix");
    }

    #[test]
    fn embed_cached_forward_matches_uncached_bitwise() {
        let net = Network::with_random_weights(mlp(), 21).unwrap();
        let cache = EmbedCache::new(1 << 20);
        let input = Tensor::random_uniform(Shape::mat(4, 8), 1.0, 22);
        let plain = net.forward(&input).unwrap();
        let cold = net
            .forward_embed_cached(&input, &cache, Threading::SINGLE)
            .unwrap();
        let warm = net
            .forward_embed_cached(&input, &cache, Threading::SINGLE)
            .unwrap();
        assert_eq!(bits(&cold), bits(&warm), "hit must equal the miss bitwise");
        assert_eq!(
            bits(&cold),
            bits(&plain),
            "the cold rows' prefix batch must match forward() bitwise"
        );
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (4, 4), "4 cold rows then 4 warm rows");
    }

    #[test]
    fn embed_cached_forward_hits_hot_rows_in_mixed_batches() {
        let net = Network::with_random_weights(mlp(), 31).unwrap();
        let cache = EmbedCache::new(1 << 20);
        let hot = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 32);
        net.forward_embed_cached(&hot, &cache, Threading::SINGLE)
            .unwrap();
        let cold = Tensor::random_uniform(Shape::mat(1, 8), 1.0, 33);
        let mixed = Tensor::stack_batch(&[hot.clone(), cold.clone()]).unwrap();
        let out = net
            .forward_embed_cached(&mixed, &cache, Threading::SINGLE)
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.hits, 1, "the hot row hits even though the batch is novel");
        assert_eq!(s.misses, 2, "one cold warm-up row + one cold mixed row");
        let itemwise =
            Tensor::stack_batch(&[net.forward(&hot).unwrap(), net.forward(&cold).unwrap()])
                .unwrap();
        assert!(out.max_abs_diff(&itemwise).unwrap() < 1e-6);
    }

    #[test]
    fn forward_all_exposes_intermediates() {
        let net = Network::with_random_weights(mlp(), 1).unwrap();
        let input = Tensor::zeros(Shape::mat(1, 8));
        let acts = net.forward_all(&input).unwrap();
        assert_eq!(acts.len(), 4);
        assert_eq!(acts[0].shape().dims(), &[1, 16]);
        assert_eq!(acts[3].shape().dims(), &[1, 4]);
    }
}
