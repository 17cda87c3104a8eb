//! The model zoo: architecturally-exact definitions of the seven Tonic
//! Suite networks (paper Table 1) and their service-level metadata
//! (paper Table 3).
//!
//! Parameter counts are asserted against Table 1 in this module's tests;
//! where the paper's rounded figure differs from what the published
//! architecture actually implies (e.g. DeepFace retargeted to 83 PubFig
//! identities), the count lands within ±20% of the table value.

use tensor::{Conv2dParams, LrnParams, Pool2dParams, Shape};

use crate::{ActivationKind, LayerDef, LayerSpec, LocalParams, NetDef, Network, PoolKind, Result};

/// The seven Tonic Suite applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum App {
    /// Image classification (AlexNet over ImageNet classes).
    Imc,
    /// Digit recognition (MNIST).
    Dig,
    /// Facial recognition (DeepFace over 83 PubFig identities).
    Face,
    /// Automatic speech recognition (Kaldi hybrid DNN).
    Asr,
    /// Part-of-speech tagging (SENNA).
    Pos,
    /// Word chunking (SENNA).
    Chk,
    /// Named-entity recognition (SENNA).
    Ner,
}

impl App {
    /// All seven applications, in the paper's presentation order.
    pub const ALL: [App; 7] = [
        App::Imc,
        App::Dig,
        App::Face,
        App::Asr,
        App::Pos,
        App::Chk,
        App::Ner,
    ];

    /// The three NLP applications.
    pub const NLP: [App; 3] = [App::Pos, App::Chk, App::Ner];

    /// The three image applications.
    pub const IMAGE: [App; 3] = [App::Imc, App::Dig, App::Face];

    /// Upper-case short name used throughout the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            App::Imc => "IMC",
            App::Dig => "DIG",
            App::Face => "FACE",
            App::Asr => "ASR",
            App::Pos => "POS",
            App::Chk => "CHK",
            App::Ner => "NER",
        }
    }

    /// Parses the upper- or lower-case short name.
    pub fn from_name(s: &str) -> Option<App> {
        App::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(s))
    }

    /// Whether this is one of the SENNA NLP tasks.
    pub fn is_nlp(&self) -> bool {
        Self::NLP.contains(self)
    }

    /// Whether this is one of the image tasks.
    pub fn is_image(&self) -> bool {
        Self::IMAGE.contains(self)
    }

    /// Service-level metadata (paper Table 3).
    pub fn service_meta(&self) -> ServiceMeta {
        match self {
            App::Imc => ServiceMeta {
                app: *self,
                input_desc: "1 image",
                input_kb: 604.0,
                output_desc: "1 classification",
                batch_size: 16,
                inputs_per_query: 1,
            },
            App::Dig => ServiceMeta {
                app: *self,
                input_desc: "100 images",
                input_kb: 307.0,
                output_desc: "100 classifications",
                batch_size: 16,
                inputs_per_query: 100,
            },
            App::Face => ServiceMeta {
                app: *self,
                input_desc: "1 image",
                input_kb: 271.0,
                output_desc: "1 classification",
                batch_size: 2,
                inputs_per_query: 1,
            },
            App::Asr => ServiceMeta {
                app: *self,
                input_desc: "548 speech feature vectors",
                input_kb: 4594.0,
                output_desc: "548 probability vectors",
                batch_size: 2,
                inputs_per_query: 548,
            },
            App::Pos => ServiceMeta {
                app: *self,
                input_desc: "28 word sentence",
                input_kb: 38.0,
                output_desc: "28 probability vectors",
                batch_size: 64,
                inputs_per_query: 28,
            },
            App::Chk => ServiceMeta {
                app: *self,
                input_desc: "28 word sentence",
                input_kb: 75.0,
                output_desc: "28 probability vectors",
                batch_size: 64,
                inputs_per_query: 28,
            },
            App::Ner => ServiceMeta {
                app: *self,
                input_desc: "28 word sentence",
                input_kb: 43.0,
                output_desc: "28 probability vectors",
                batch_size: 64,
                inputs_per_query: 28,
            },
        }
    }

    /// Table 1 "Parameters" column (paper's rounded figure).
    pub fn table1_params(&self) -> usize {
        match self {
            App::Imc => 60_000_000,
            App::Dig => 60_000,
            App::Face => 120_000_000,
            App::Asr => 30_000_000,
            App::Pos | App::Chk | App::Ner => 180_000,
        }
    }

    /// Table 1 network name.
    pub fn network_name(&self) -> &'static str {
        match self {
            App::Imc => "AlexNet",
            App::Dig => "MNIST",
            App::Face => "DeepFace",
            App::Asr => "Kaldi",
            App::Pos | App::Chk | App::Ner => "SENNA",
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Paper Table 3 metadata for one application's service interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMeta {
    /// Which application.
    pub app: App,
    /// Human description of the input payload.
    pub input_desc: &'static str,
    /// Input payload size in KB, as measured in the paper (includes
    /// serialization overhead; used as protocol ground truth for the
    /// bandwidth studies).
    pub input_kb: f64,
    /// Human description of the output payload.
    pub output_desc: &'static str,
    /// Batch size chosen in §5.1 (Table 3, last column).
    pub batch_size: usize,
    /// How many DNN inputs (images/frames/words) one query carries.
    pub inputs_per_query: usize,
}

impl ServiceMeta {
    /// Input payload in bytes.
    pub fn input_bytes(&self) -> f64 {
        self.input_kb * 1024.0
    }
}

fn conv(name: &str, out: usize, k: usize, s: usize, p: usize, groups: usize) -> LayerDef {
    LayerDef {
        name: name.into(),
        spec: LayerSpec::Conv(Conv2dParams {
            out_channels: out,
            kernel: k,
            stride: s,
            pad: p,
            groups,
        }),
    }
}

fn local(name: &str, out: usize, k: usize, s: usize) -> LayerDef {
    LayerDef {
        name: name.into(),
        spec: LayerSpec::Local(LocalParams {
            out_channels: out,
            kernel: k,
            stride: s,
            pad: 0,
        }),
    }
}

fn maxpool(name: &str, k: usize, s: usize) -> LayerDef {
    LayerDef {
        name: name.into(),
        spec: LayerSpec::Pool(PoolKind::Max, Pool2dParams::new(k, s, 0)),
    }
}

fn fc(name: &str, out: usize) -> LayerDef {
    LayerDef {
        name: name.into(),
        spec: LayerSpec::InnerProduct { out },
    }
}

fn act(name: &str, kind: ActivationKind) -> LayerDef {
    LayerDef {
        name: name.into(),
        spec: LayerSpec::Activation(kind),
    }
}

fn lrn(name: &str) -> LayerDef {
    LayerDef {
        name: name.into(),
        spec: LayerSpec::Lrn(LrnParams::default()),
    }
}

fn dropout(name: &str) -> LayerDef {
    LayerDef {
        name: name.into(),
        spec: LayerSpec::Dropout,
    }
}

fn softmax(name: &str) -> LayerDef {
    LayerDef {
        name: name.into(),
        spec: LayerSpec::Softmax,
    }
}

/// AlexNet (Krizhevsky et al.) — 1000-class ImageNet classifier, ~61M
/// parameters, 22 layers counting activations/LRN/dropout as Caffe does.
pub fn alexnet() -> NetDef {
    NetDef::new(
        "alexnet",
        Shape::nchw(1, 3, 227, 227),
        vec![
            conv("conv1", 96, 11, 4, 0, 1),
            act("relu1", ActivationKind::Relu),
            lrn("norm1"),
            maxpool("pool1", 3, 2),
            conv("conv2", 256, 5, 1, 2, 2),
            act("relu2", ActivationKind::Relu),
            lrn("norm2"),
            maxpool("pool2", 3, 2),
            conv("conv3", 384, 3, 1, 1, 1),
            act("relu3", ActivationKind::Relu),
            conv("conv4", 384, 3, 1, 1, 2),
            act("relu4", ActivationKind::Relu),
            conv("conv5", 256, 3, 1, 1, 2),
            act("relu5", ActivationKind::Relu),
            maxpool("pool5", 3, 2),
            fc("fc6", 4096),
            act("relu6", ActivationKind::Relu),
            dropout("drop6"),
            fc("fc7", 4096),
            act("relu7", ActivationKind::Relu),
            dropout("drop7"),
            fc("fc8", 1000),
        ],
    )
    .expect("alexnet definition is statically valid")
}

/// MNIST digit recognizer — the compact 7-layer variant the paper cites
/// (~60K parameters).
pub fn mnist() -> NetDef {
    NetDef::new(
        "mnist",
        Shape::nchw(1, 1, 28, 28),
        vec![
            conv("conv1", 10, 5, 1, 0, 1),
            maxpool("pool1", 2, 2),
            conv("conv2", 20, 5, 1, 0, 1),
            maxpool("pool2", 2, 2),
            fc("ip1", 160),
            fc("ip2", 10),
            softmax("prob"),
        ],
    )
    .expect("mnist definition is statically valid")
}

/// DeepFace (Taigman et al.) retargeted to the paper's 83 PubFig83+LFW
/// identities — 8 layers, dominated by the untied locally-connected layers.
pub fn deepface() -> NetDef {
    NetDef::new(
        "deepface",
        Shape::nchw(1, 3, 152, 152),
        vec![
            conv("c1", 32, 11, 1, 0, 1),
            maxpool("m2", 3, 2),
            conv("c3", 16, 9, 1, 0, 1),
            local("l4", 16, 9, 1),
            local("l5", 16, 7, 2),
            local("l6", 16, 5, 1),
            fc("f7", 4096),
            fc("f8", 83),
        ],
    )
    .expect("deepface definition is statically valid")
}

/// Kaldi hybrid DNN acoustic model — 6 hidden tanh layers of 2048 units
/// over 440-dim spliced filterbank features, 3500 senone outputs;
/// 13 layers, ~29M parameters.
pub fn kaldi() -> NetDef {
    let mut layers = vec![fc("affine1", 2048), act("tanh1", ActivationKind::Tanh)];
    for i in 2..=6 {
        layers.push(fc(&format!("affine{i}"), 2048));
        layers.push(act(&format!("tanh{i}"), ActivationKind::Tanh));
    }
    layers.push(fc("affine7", 3500));
    NetDef::new("kaldi", Shape::mat(1, 440), layers).expect("kaldi definition is statically valid")
}

/// SENNA window-approach tagger: 7-word window × 50-dim embeddings → 450
/// hidden hard-tanh units → per-task tag scores. 3 layers, ~180K params.
///
/// `tags` selects the task-specific output size (POS 45, CHK 23, NER 9).
pub fn senna(name: &str, tags: usize) -> NetDef {
    NetDef::new(
        name,
        Shape::mat(1, 350),
        vec![
            fc("l1", 450),
            act("htanh1", ActivationKind::HardTanh),
            fc("l3", tags),
        ],
    )
    .expect("senna definition is statically valid")
}

/// Number of output tags for each SENNA task.
pub fn senna_tags(app: App) -> usize {
    match app {
        App::Pos => 45,
        App::Chk => 23,
        App::Ner => 9,
        _ => panic!("senna_tags called for non-NLP app {app}"),
    }
}

/// The network definition for an application.
pub fn netdef(app: App) -> NetDef {
    match app {
        App::Imc => alexnet(),
        App::Dig => mnist(),
        App::Face => deepface(),
        App::Asr => kaldi(),
        App::Pos => senna("senna-pos", senna_tags(App::Pos)),
        App::Chk => senna("senna-chk", senna_tags(App::Chk)),
        App::Ner => senna("senna-ner", senna_tags(App::Ner)),
    }
}

/// An executable network for an application, with deterministic weights.
///
/// # Errors
///
/// Propagates weight-initialization failures (none occur for the built-in
/// definitions).
pub fn network(app: App) -> Result<Network> {
    // Seed derives from the app so every process builds identical models —
    // the moral equivalent of all servers loading the same model file.
    let seed = 0xD1_44 + app as u64;
    Network::with_random_weights(netdef(app), seed)
}

/// A few-KB convolutional classifier shaped like [`mnist`] (conv → pool →
/// fc → fc → softmax) for fast integration tests: ~1.8K parameters, so a
/// forward pass costs microseconds and a full serving-stack test stays
/// well under a second.
pub fn tiny_mnist() -> NetDef {
    NetDef::new(
        "tiny-mnist",
        Shape::nchw(1, 1, 12, 12),
        vec![
            conv("conv1", 4, 3, 1, 0, 1),
            maxpool("pool1", 2, 2),
            fc("ip1", 16),
            fc("ip2", 10),
            softmax("prob"),
        ],
    )
    .expect("tiny-mnist definition is statically valid")
}

/// A few-KB SENNA-shaped tagger (fc → hard-tanh → fc) for fast
/// integration tests: ~1K parameters over a 30-dim input row.
pub fn tiny_senna() -> NetDef {
    NetDef::new(
        "tiny-senna",
        Shape::mat(1, 30),
        vec![
            fc("l1", 24),
            act("htanh1", ActivationKind::HardTanh),
            fc("l3", 9),
        ],
    )
    .expect("tiny-senna definition is statically valid")
}

/// A small autoregressive text-generation language model: next-token
/// scores over a 256-entry vocabulary from a one-hot current token.
/// Because the output row has the same width as the input row, the
/// serving engine can feed the argmax of each step straight back in as
/// the next one-hot input — the token-at-a-time decode loop behind the
/// streaming (`--stream`) workload. ~0.5M parameters.
///
/// On a one-hot row `embed` is a lookup: its weights are finite, so the
/// inner product takes `tensor`'s lookup tier and reads the one row of
/// the 256x512 matrix the token selects, not all of it, with the dense
/// tiers' bits.
pub fn textgen() -> NetDef {
    NetDef::new(
        "textgen",
        Shape::mat(1, 256),
        vec![
            fc("embed", 512),
            act("tanh1", ActivationKind::Tanh),
            fc("hidden", 512),
            act("tanh2", ActivationKind::Tanh),
            fc("logits", 256),
            softmax("prob"),
        ],
    )
    .expect("textgen definition is statically valid")
}

/// A sub-KB autoregressive LM shaped like [`textgen`] (vocab 16, one
/// hidden layer) for fast streaming integration tests: the output row
/// width equals the input row width so greedy decode can feed back, and
/// a full multi-token generation costs microseconds.
pub fn tiny_lm() -> NetDef {
    NetDef::new(
        "tiny-lm",
        Shape::mat(1, 16),
        vec![
            fc("embed", 24),
            act("htanh1", ActivationKind::HardTanh),
            fc("logits", 16),
            softmax("prob"),
        ],
    )
    .expect("tiny-lm definition is statically valid")
}

/// The tiny test zoo: miniature stand-ins for the served model shapes
/// (convolutional image net, fully-connected NLP net, autoregressive
/// LM), each a few KB. Serving-stack integration tests load these
/// instead of the real zoo so an end-to-end request costs microseconds
/// of compute, keeping the whole test deterministic and under a second.
pub fn tiny_test_zoo() -> Vec<NetDef> {
    vec![tiny_mnist(), tiny_senna(), tiny_lm()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn within(actual: usize, target: usize, tol: f64) -> bool {
        let a = actual as f64;
        let t = target as f64;
        (a - t).abs() / t <= tol
    }

    #[test]
    fn table1_layer_counts() {
        assert_eq!(alexnet().depth(), 22);
        assert_eq!(mnist().depth(), 7);
        assert_eq!(deepface().depth(), 8);
        assert_eq!(kaldi().depth(), 13);
        assert_eq!(senna("pos", 45).depth(), 3);
    }

    #[test]
    fn table1_param_counts_within_20pct() {
        for app in App::ALL {
            let def = netdef(app);
            assert!(
                within(def.param_count(), app.table1_params(), 0.20),
                "{app}: {} vs Table 1 {}",
                def.param_count(),
                app.table1_params()
            );
        }
    }

    #[test]
    fn alexnet_param_count_exact() {
        // Published AlexNet total: ~60.97M.
        let n = alexnet().param_count();
        assert_eq!(n, 60_965_224);
    }

    #[test]
    fn output_sizes_match_task_classes() {
        assert_eq!(alexnet().output_shape(1).unwrap().dims(), &[1, 1000]);
        assert_eq!(mnist().output_shape(1).unwrap().dims(), &[1, 10]);
        assert_eq!(deepface().output_shape(1).unwrap().dims(), &[1, 83]);
        assert_eq!(kaldi().output_shape(1).unwrap().dims(), &[1, 3500]);
        assert_eq!(senna("pos", 45).output_shape(1).unwrap().dims(), &[1, 45]);
    }

    #[test]
    fn table3_batch_sizes() {
        assert_eq!(App::Imc.service_meta().batch_size, 16);
        assert_eq!(App::Dig.service_meta().batch_size, 16);
        assert_eq!(App::Face.service_meta().batch_size, 2);
        assert_eq!(App::Asr.service_meta().batch_size, 2);
        for app in App::NLP {
            assert_eq!(app.service_meta().batch_size, 64);
        }
    }

    #[test]
    fn app_name_roundtrip() {
        for app in App::ALL {
            assert_eq!(App::from_name(app.name()), Some(app));
            assert_eq!(App::from_name(&app.name().to_lowercase()), Some(app));
        }
        assert_eq!(App::from_name("nope"), None);
    }

    #[test]
    fn networks_are_deterministic_across_builds() {
        let a = network(App::Pos).unwrap();
        let b = network(App::Pos).unwrap();
        assert_eq!(a, b);
    }

    /// For every Tonic model, the parallel forward paths (batch-sharded
    /// and intra-layer threaded) give the serial forward's bits: both
    /// GEMM tiers sum in one order, so a shard moving a call across the
    /// tier cutoff changes nothing.
    #[test]
    fn parallel_forward_matches_serial_for_every_model() {
        use tensor::Threading;
        let bits = |t: &tensor::Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for app in App::ALL {
            let net = network(app).unwrap();
            // Keep the vision batches small — AlexNet at batch 2 is
            // already ~3 GFLOP per pass on the test machine.
            let batch = match app {
                App::Imc | App::Face => 2,
                _ => 6,
            };
            let shape = net.def().input_shape().with_batch(batch);
            let input = tensor::Tensor::random_uniform(shape, 1.0, 0xC0 + app as u64);
            let serial = net.forward(&input).unwrap();
            let sharded = net.forward_sharded(&input, Threading::new(2)).unwrap();
            assert_eq!(serial.shape(), sharded.shape(), "{app}: sharded shape");
            assert!(
                bits(&serial) == bits(&sharded),
                "{app}: sharded forward diverged"
            );
            let threaded = net.forward_with(&input, Threading::new(2)).unwrap();
            assert!(
                bits(&serial) == bits(&threaded),
                "{app}: threaded forward diverged"
            );
        }
    }

    /// The tiny zoo exists so integration tests run in well under a
    /// second: every net must stay a few KB and still produce sane
    /// classifier-shaped output.
    #[test]
    fn tiny_test_zoo_is_actually_tiny() {
        let defs = tiny_test_zoo();
        assert_eq!(defs.len(), 3);
        for def in &defs {
            assert!(
                def.param_count() < 4_000,
                "{}: {} params is not tiny",
                def.name(),
                def.param_count()
            );
            let net = Network::with_random_weights(def.clone(), 7).unwrap();
            let input = tensor::Tensor::random_uniform(def.input_shape().with_batch(3), 1.0, 11);
            let out = net.forward(&input).unwrap();
            assert_eq!(out.shape().dims()[0], 3);
        }
        assert_eq!(tiny_mnist().output_shape(1).unwrap().dims(), &[1, 10]);
        assert_eq!(tiny_senna().output_shape(1).unwrap().dims(), &[1, 9]);
        assert_eq!(tiny_lm().output_shape(1).unwrap().dims(), &[1, 16]);
    }

    /// Autoregressive decode requires the LM output row to be the same
    /// width as its one-hot input row, at every batch size — otherwise
    /// the engine cannot feed a step's argmax back in as the next input.
    #[test]
    fn lm_output_width_matches_input_for_feedback() {
        for def in [textgen(), tiny_lm()] {
            let width = def.input_shape().dims()[1];
            assert_eq!(
                def.output_shape(1).unwrap().dims(),
                &[1, width],
                "{}: output row must match input row",
                def.name()
            );
        }
        assert!(textgen().param_count() < 1_000_000);
    }

    #[test]
    fn nlp_forward_smoke() {
        let net = network(App::Pos).unwrap();
        let input = tensor::Tensor::random_uniform(Shape::mat(28, 350), 1.0, 5);
        let out = net.forward(&input).unwrap();
        assert_eq!(out.shape().dims(), &[28, 45]);
    }
}
