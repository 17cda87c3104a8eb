//! Real forward-pass benchmarks on the CPU substrate: the functional
//! counterpart of the paper's CPU baseline. Demonstrates the batching
//! amortization on real math (MNIST and SENNA are small enough to bench;
//! AlexNet-scale timing comes from the calibrated model instead).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dnn::zoo::{self, App};
use std::hint::black_box;
use tensor::{Conv2dParams, Pool2dParams, Shape, Tensor, Threading};

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward");
    group.sample_size(15);

    let dig = zoo::network(App::Dig).unwrap();
    for &batch in &[1usize, 16] {
        let input = Tensor::random_uniform(Shape::nchw(batch, 1, 28, 28), 0.5, 3);
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::new("mnist", batch), &batch, |b, _| {
            b.iter(|| black_box(dig.forward(&input).unwrap()));
        });
    }

    let pos = zoo::network(App::Pos).unwrap();
    for &words in &[28usize, 28 * 16] {
        let input = Tensor::random_uniform(Shape::mat(words, 350), 0.5, 4);
        group.throughput(Throughput::Elements(words as u64));
        group.bench_with_input(BenchmarkId::new("senna", words), &words, |b, _| {
            b.iter(|| black_box(pos.forward(&input).unwrap()));
        });
    }

    // One ASR frame batch: 16 frames through the 29M-parameter DNN.
    let asr = zoo::network(App::Asr).unwrap();
    let frames = Tensor::random_uniform(Shape::mat(16, 440), 0.5, 5);
    group.throughput(Throughput::Elements(16));
    group.bench_function("kaldi/16frames", |b| {
        b.iter(|| black_box(asr.forward(&frames).unwrap()));
    });
    group.finish();
}

/// The multi-core forward pass: batch sharding for the skinny-GEMM NLP
/// model, in-layer GEMM threading for the fat-GEMM ASR model — the two
/// strategies the CPU executor picks between.
fn bench_forward_threaded(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward_mt");
    group.sample_size(15);

    let pos = zoo::network(App::Pos).unwrap();
    let words = 28 * 16;
    let input = Tensor::random_uniform(Shape::mat(words, 350), 0.5, 4);
    group.throughput(Throughput::Elements(words as u64));
    for &threads in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("senna448_sharded", format!("{threads}t")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(
                        pos.forward_sharded(&input, Threading::new(threads))
                            .unwrap(),
                    )
                });
            },
        );
    }

    let asr = zoo::network(App::Asr).unwrap();
    let frames = Tensor::random_uniform(Shape::mat(16, 440), 0.5, 5);
    group.throughput(Throughput::Elements(16));
    for &threads in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("kaldi16_inlayer", format!("{threads}t")),
            &threads,
            |b, &threads| {
                b.iter(|| black_box(asr.forward_with(&frames, Threading::new(threads)).unwrap()));
            },
        );
    }
    group.finish();
}

/// The convolution lowering on its own: the two layers that are 80 % of
/// a `dig` request (20 images) with the pools behind them, and the two
/// AlexNet shapes that stress what LeNet does not — groups with padding,
/// and an 11x11 stride-4 kernel. Recorded in `results/conv_lowering.txt`.
fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv");
    group.sample_size(15);
    let grouped = Conv2dParams {
        groups: 2,
        ..Conv2dParams::new(256, 5, 1, 2)
    };
    // (name, images, input channels, input side, geometry)
    let cases = [
        ("dig_conv1/20img", 20, 1, 28, Conv2dParams::new(10, 5, 1, 0)),
        (
            "dig_conv2/20img",
            20,
            10,
            12,
            Conv2dParams::new(20, 5, 1, 0),
        ),
        ("alexnet_conv2_g2_p2/1img", 1, 96, 27, grouped),
        (
            "alexnet_conv1_11x11_s4/1img",
            1,
            3,
            227,
            Conv2dParams::new(96, 11, 4, 0),
        ),
    ];
    for (name, images, channels, side, p) in cases {
        let input = Tensor::random_uniform(Shape::nchw(images, channels, side, side), 0.5, 9);
        let weights = Tensor::random_uniform(
            Shape::nchw(p.out_channels, channels / p.groups, p.kernel, p.kernel),
            0.5,
            10,
        );
        let bias = vec![0.1f32; p.out_channels];
        group.throughput(Throughput::Elements(images as u64));
        group.bench_function(name, |b| {
            b.iter(|| black_box(tensor::conv2d(&input, &weights, &bias, &p).unwrap()));
        });
    }
    // The 2x2 stride-2 max pools that follow them in `dig`.
    let pool = Pool2dParams::new(2, 2, 0);
    for (name, channels, side) in [("dig_pool1/20img", 10, 24), ("dig_pool2/20img", 20, 8)] {
        let input = Tensor::random_uniform(Shape::nchw(20, channels, side, side), 0.5, 11);
        group.throughput(Throughput::Elements(20));
        group.bench_function(name, |b| {
            b.iter(|| black_box(tensor::max_pool2d(&input, &pool).unwrap()));
        });
    }
    group.finish();
}

fn bench_pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("pre_post");
    group.sample_size(15);

    // ASR preprocessing: filterbank + splice for a 0.5 s utterance.
    let wav = tonic_suite::speech::synth_utterance(0.5, 6);
    group.bench_function("asr_filterbank_0.5s", |b| {
        b.iter(|| {
            let frames = tonic_suite::speech::filterbank(&wav);
            black_box(tonic_suite::speech::splice(&frames))
        });
    });

    // NLP pre + post: window features and Viterbi for a 28-word sentence.
    let sentence = tonic_suite::text::synth_sentence(28, 7);
    group.bench_function("nlp_window_features_28w", |b| {
        b.iter(|| black_box(tonic_suite::text::window_features(&sentence, None)));
    });
    let model = tonic_suite::text::TagModel::new(45);
    let scores = Tensor::random_uniform(Shape::mat(28, 45), 1.0, 8);
    group.bench_function("nlp_viterbi_28w_45tags", |b| {
        b.iter(|| black_box(model.decode(&scores)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_forward,
    bench_forward_threaded,
    bench_conv,
    bench_pipelines
);
criterion_main!(benches);
