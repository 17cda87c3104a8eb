//! Row independence across GEMM tiers, through public API only: a row of
//! a matrix product — and so a row of a network's output — has the same
//! bits whether it is computed alone, beside one other row, or deep in a
//! batch. Alone and in a pair the call is at most `SKINNY_MAX_M` rows and
//! takes the no-pack kernel; as row 17 of 33 it takes the packed one. A
//! one-hot row's first inner product takes the lookup tier alone and
//! among one-hot rows, and the dense tiers beside a dense row. The
//! serving invariants (batched ≡ solo, cache hit ≡ miss, remote ≡ local)
//! all rest on the two agreeing bit for bit. The convolutional networks
//! are held to the same: an image's output does not depend on the batch
//! it rides in or on how the batch is split over threads — the fused
//! im2col-into-panels convolution packs weights once per call and reuses
//! one column buffer per worker, and neither may leak between images.

use djinn_tonic::dnn::{zoo, NetDef, Network};
use djinn_tonic::tensor::{
    avg_pool2d, conv2d_with, max_pool2d, sgemm, Conv2dParams, GemmOptions, Pool2dParams, Shape,
    Tensor, Threading,
};

/// Where the probed row sits in the tall call, and how tall that is.
const ROW: usize = 17;
const TALL: usize = 33;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `rows x width` with `row` at index `at` and seeded noise elsewhere.
fn batch_around(row: &[f32], rows: usize, at: usize, seed: u64) -> Tensor {
    let width = row.len();
    let mut data = Tensor::random_uniform(Shape::mat(rows, width), 1.0, seed).into_vec();
    data[at * width..(at + 1) * width].copy_from_slice(row);
    Tensor::from_vec(Shape::mat(rows, width), data).unwrap()
}

fn product(a: &Tensor, b: &[f32], n: usize, alpha: f32) -> Vec<f32> {
    let (m, k) = a.shape().as_matrix();
    let mut c = vec![0.0; m * n];
    sgemm(
        m,
        n,
        k,
        alpha,
        a.data(),
        b,
        0.0,
        &mut c,
        GemmOptions::default(),
    )
    .unwrap();
    c
}

#[test]
fn a_rows_product_does_not_depend_on_the_height_of_the_call() {
    // (k, n): SENNA's first layer, textgen's hidden layer, and a shape
    // ragged against every block size with three depth blocks.
    for (i, &(k, n)) in [(350usize, 450usize), (512, 512), (600, 301)]
        .iter()
        .enumerate()
    {
        let seed = 100 + 10 * i as u64;
        let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed).into_vec();
        let row = Tensor::random_uniform(Shape::mat(1, k), 1.0, seed + 1);
        for alpha in [1.0f32, -0.75] {
            let alone = product(&row, &b, n, alpha);
            let pair = product(&batch_around(row.data(), 2, 1, seed + 2), &b, n, alpha);
            let tall = product(&batch_around(row.data(), TALL, ROW, seed + 3), &b, n, alpha);
            assert_eq!(bits(&alone), bits(&pair[n..]), "k={k} n={n}: 1 vs 2 rows");
            assert_eq!(
                bits(&alone),
                bits(&tall[ROW * n..(ROW + 1) * n]),
                "k={k} n={n}: 1 vs row {ROW} of {TALL}"
            );
        }
    }
}

/// Row `r` of every layer's output, as bits.
fn layer_rows(net: &Network, input: &Tensor, r: usize) -> Vec<Vec<u32>> {
    net.forward_all(input)
        .unwrap()
        .iter()
        .map(|act| {
            let width = act.shape().as_matrix().1;
            bits(&act.data()[r * width..(r + 1) * width])
        })
        .collect()
}

/// `rows` one-hot rows of `width`, row `r` hot at `(7 * r + 3) % width`.
fn one_hot_rows(rows: usize, width: usize) -> Tensor {
    Tensor::from_fn(Shape::mat(rows, width), |i| {
        let (r, p) = (i / width, i % width);
        if p == (7 * r + 3) % width {
            1.0
        } else {
            0.0
        }
    })
}

/// One row through `def`, alone, in a 2-row batch and as row 17 of 33:
/// every layer's output must agree. Then a one-hot row, whose first
/// inner product takes the lookup tier alone and as row 17 of 33 one-hot
/// rows, and a dense tier as row 1 of 2 beside a dense row: all three
/// must agree too.
fn assert_forward_is_row_independent(def: NetDef) {
    let name = def.name().to_string();
    let width = def.input_shape().as_matrix().1;
    let net = Network::with_random_weights(def, 0xC0FFEE).unwrap();
    let row = Tensor::random_uniform(Shape::mat(1, width), 1.0, 7);
    let alone = layer_rows(&net, &row, 0);
    let pair = layer_rows(&net, &batch_around(row.data(), 2, 1, 8), 1);
    let tall = layer_rows(&net, &batch_around(row.data(), TALL, ROW, 9), ROW);
    assert_eq!(pair, tall, "{name}: row 1 of 2 vs row {ROW} of {TALL}");
    assert_eq!(alone, pair, "{name}: 1 vs 2 rows");
    // `forward` is the same computation as `forward_all`'s last entry.
    let out = net.forward(&row).unwrap();
    assert_eq!(&bits(out.data()), alone.last().unwrap(), "{name}");

    let hot_rows = one_hot_rows(TALL, width);
    let hot = &hot_rows.data()[ROW * width..][..width];
    let alone = layer_rows(&net, &batch_around(hot, 1, 0, 10), 0);
    let beside_dense = layer_rows(&net, &batch_around(hot, 2, 1, 11), 1);
    let among_hot = layer_rows(&net, &hot_rows, ROW);
    assert_eq!(
        alone, beside_dense,
        "{name}: one-hot row alone vs beside a dense row"
    );
    assert_eq!(
        alone, among_hot,
        "{name}: one-hot row alone vs row {ROW} of {TALL} one-hot rows"
    );
}

#[test]
fn textgen_forward_is_row_independent() {
    assert_forward_is_row_independent(zoo::textgen());
}

/// SENNA's tag layer is 450 deep — two `KC` blocks — and 45 wide: one row
/// of it is below the volume where `sgemm` packs at all, so this holds
/// the small-call path to the packed order across depth blocks.
#[test]
fn pos_forward_is_row_independent() {
    assert_forward_is_row_independent(zoo::netdef(zoo::App::Pos));
}

/// The same for `chk`'s 23-tag layer, which stays below the packing
/// volume at up to three rows.
#[test]
fn chk_forward_is_row_independent() {
    assert_forward_is_row_independent(zoo::netdef(zoo::App::Chk));
}

#[test]
fn tiny_lm_forward_is_row_independent() {
    assert_forward_is_row_independent(zoo::tiny_lm());
}

/// Where the probed image sits in the batch, and how many ride along —
/// one `compute_dig` request is 20 images.
const IMAGE: usize = 7;
const IMAGES: usize = 20;

/// One image through a convolutional `def`: alone, as image 7 of 20
/// under `forward_with` on 1, 2 and 4 threads (the in-layer image split,
/// with its leftover GEMM budget), and under `forward_sharded` (whole
/// stacks per shard) — the same bits every time.
fn assert_forward_is_image_independent(def: NetDef) {
    let name = def.name().to_string();
    let shape = def.input_shape().clone();
    let per_image = shape.volume();
    let net = Network::with_random_weights(def, 0xC0FFEE).unwrap();
    let image = Tensor::random_uniform(shape.clone(), 1.0, 7);
    let alone = net.forward(&image).unwrap();
    let width = alone.len();

    let mut batch = Tensor::random_uniform(shape.with_batch(IMAGES), 1.0, 8).into_vec();
    batch[IMAGE * per_image..(IMAGE + 1) * per_image].copy_from_slice(image.data());
    let batch = Tensor::from_vec(shape.with_batch(IMAGES), batch).unwrap();
    for threads in [1usize, 2, 4] {
        let budget = Threading::new(threads);
        for (how, out) in [
            ("forward_with", net.forward_with(&batch, budget).unwrap()),
            (
                "forward_sharded",
                net.forward_sharded(&batch, budget).unwrap(),
            ),
        ] {
            assert_eq!(
                bits(alone.data()),
                bits(&out.data()[IMAGE * width..(IMAGE + 1) * width]),
                "{name}: alone vs image {IMAGE} of {IMAGES}, {how} on {threads} threads"
            );
        }
    }
}

#[test]
fn dig_forward_is_image_independent() {
    assert_forward_is_image_independent(zoo::netdef(zoo::App::Dig));
}

#[test]
fn tiny_mnist_forward_is_image_independent() {
    assert_forward_is_image_independent(zoo::tiny_mnist());
}

/// FNV-1a (64-bit) over the little-endian bytes of every value's bits.
fn fnv1a(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// `sgemm` outputs on both tiers, then a `dig` batch of 20 and a `pos`
/// batch of 28 through the whole network, all from fixed seeds.
fn golden_outputs() -> Vec<(&'static str, Vec<f32>)> {
    // (m, n, k, alpha, beta): below the packing volume; one row and the
    // last skinny height on SENNA's first layer and textgen's hidden one;
    // packed just past the limit, ragged against MR, NR and three KC
    // blocks; `pos` b28 and the m = 224 bench shape.
    let shapes = [
        (5usize, 7usize, 3usize, 1.0f32, 0.0f32),
        (1, 450, 350, 1.0, 0.0),
        (8, 512, 512, -0.75, 0.5),
        (9, 301, 600, 3.1, 1.0),
        (33, 257, 257, 1.0, 0.5),
        (28, 450, 350, 1.0, 0.0),
        (224, 450, 350, -0.75, 1.0),
    ];
    let mut outs = Vec::new();
    for (i, &(m, n, k, alpha, beta)) in shapes.iter().enumerate() {
        let seed = 900 + 10 * i as u64;
        let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
        let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 1).into_vec();
        let mut c = Tensor::random_uniform(Shape::mat(m, n), 1.0, seed + 2).into_vec();
        sgemm(m, n, k, alpha, &a, &b, beta, &mut c, GemmOptions::default()).unwrap();
        outs.push(("sgemm", c));
    }
    for (name, app, batch) in [
        ("dig b20", zoo::App::Dig, 20),
        ("pos b28", zoo::App::Pos, 28),
    ] {
        let def = zoo::netdef(app);
        let shape = def.input_shape().with_batch(batch);
        let net = Network::with_random_weights(def, 0xC0FFEE).unwrap();
        let input = Tensor::random_uniform(shape, 1.0, 7);
        outs.push((name, net.forward(&input).unwrap().into_vec()));
    }
    outs
}

/// A golden against an earlier program, not against itself: every other
/// bitwise test here compares one run of the kernels with another, so a
/// change that moved *every* path the same way — a fused multiply-add, a
/// reassociated sum — would pass them all. The constant was recorded on
/// the portable kernels alone (baseline x86-64, no run-time dispatch);
/// any kernel that keeps the reduction-order contract reproduces it.
#[test]
fn outputs_match_the_recorded_golden() {
    let outs = golden_outputs();
    let all: Vec<f32> = outs.iter().flat_map(|(_, v)| v.iter().copied()).collect();
    for (name, v) in &outs {
        assert!(v.iter().all(|x| x.is_finite()), "{name}: non-finite output");
    }
    assert_eq!(
        fnv1a(&all),
        GOLDEN,
        "outputs moved: got {:#018x}",
        fnv1a(&all)
    );
}

const GOLDEN: u64 = 0x9655_2efe_9237_9f35;

/// `shape` filled from a fixed seed and salted, by a hash of each index,
/// with the values a pooling fold can disagree on: NaN, ±inf, and +0 and
/// -0 among negative neighbours, so ties at zero occur in both orders.
fn salted(shape: Shape, seed: u64) -> Tensor {
    let noise = Tensor::random_uniform(shape.clone(), 1.0, seed).into_vec();
    let data = noise
        .iter()
        .enumerate()
        .map(
            |(i, &v)| match ((i as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 60 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5..=9 => -v.abs(),
                _ => v,
            },
        )
        .collect();
    Tensor::from_vec(shape, data).unwrap()
}

/// Max and average pooling on the zoo's geometries, salted inputs, then
/// one row of hand-placed windows: a ±0 tie each way, all NaN, NaN at
/// both ends, +inf beside -inf, and all -inf.
fn pool_golden_outputs() -> Vec<f32> {
    // (n, c, h, w, kernel, stride, pad)
    let cases = [
        (2usize, 3usize, 24usize, 24usize, 2usize, 2usize, 0usize), // dig pool1
        (2, 3, 8, 8, 2, 2, 0),                                      // dig pool2
        (1, 2, 55, 55, 3, 2, 0),                                    // alexnet pool1
        (1, 2, 27, 27, 3, 2, 0),                                    // alexnet pool2
        (1, 2, 13, 13, 3, 2, 0),                                    // alexnet pool5
        (1, 2, 142, 142, 3, 2, 0), // deepface m2: the last window overhangs
        (1, 2, 13, 11, 3, 2, 1),   // padded
    ];
    let mut outs = Vec::new();
    for (i, &(n, c, h, w, kernel, stride, pad)) in cases.iter().enumerate() {
        let input = salted(Shape::nchw(n, c, h, w), 300 + i as u64);
        let p = Pool2dParams::new(kernel, stride, pad);
        outs.extend(max_pool2d(&input, &p).unwrap().into_vec());
        outs.extend(avg_pool2d(&input, &p).unwrap().into_vec());
    }
    let (nan, inf) = (f32::NAN, f32::INFINITY);
    #[rustfmt::skip]
    let windows = Tensor::from_vec(Shape::nchw(1, 1, 2, 12), vec![
        0.0, -0.0, -0.0, 0.0, nan, nan, nan, 1.0, inf, -inf, -inf, -inf,
        -1.0, -1.0, -1.0, -1.0, nan, nan, 2.0, nan, 0.0, 1.0, -inf, -inf,
    ]).unwrap();
    let p = Pool2dParams::new(2, 2, 0);
    outs.extend(max_pool2d(&windows, &p).unwrap().into_vec());
    outs.extend(avg_pool2d(&windows, &p).unwrap().into_vec());
    outs
}

/// Pooling's golden, recorded before pooling had a vector path: each
/// output's bits, NaN payloads and the sign of a zero included, are the
/// ones a fold of the window's taps in ascending `(ky, kx)` order gives.
#[test]
fn pool_outputs_match_the_recorded_golden() {
    let outs = pool_golden_outputs();
    assert_eq!(
        fnv1a(&outs),
        POOL_GOLDEN,
        "pooling outputs moved: got {:#018x}",
        fnv1a(&outs)
    );
}

const POOL_GOLDEN: u64 = 0x5faf_e8e1_11c2_8a67;

/// `shape` from a fixed seed, with NaN, ±inf and -0 salted, by a hash of
/// each index, onto the pixels of every plane's border: the taps a
/// column fill can misplace at an edge or a panel boundary.
fn salted_border(shape: Shape, seed: u64) -> Tensor {
    let (h, w) = (shape.dims()[2], shape.dims()[3]);
    let mut data = Tensor::random_uniform(shape.clone(), 1.0, seed).into_vec();
    for (i, v) in data.iter_mut().enumerate() {
        let (y, x) = (i / w % h, i % w);
        if y != 0 && y != h - 1 && x != 0 && x != w - 1 {
            continue;
        }
        *v = match ((i as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 61 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            _ => *v,
        };
    }
    Tensor::from_vec(shape, data).unwrap()
}

/// The zoo's convolutions, output channels cut where a layer is wide but
/// each with its spatial geometry and depth, on salted inputs, at 1 and 3
/// threads; then a strided, padded case whose panels straddle output rows.
fn conv_golden_outputs() -> Vec<f32> {
    let grouped = |out_channels, kernel, stride, pad, groups| Conv2dParams {
        out_channels,
        kernel,
        stride,
        pad,
        groups,
    };
    // (n, c, h, w, params)
    let cases = [
        (
            20usize,
            1usize,
            28usize,
            28usize,
            Conv2dParams::new(10, 5, 1, 0),
        ), // dig conv1
        (20, 10, 12, 12, Conv2dParams::new(20, 5, 1, 0)), // dig conv2
        (2, 1, 12, 12, Conv2dParams::new(4, 3, 1, 0)),    // tiny-mnist conv1
        (1, 3, 227, 227, Conv2dParams::new(8, 11, 4, 0)), // alexnet conv1
        (1, 96, 27, 27, grouped(8, 5, 1, 2, 2)),          // alexnet conv2
        (1, 256, 13, 13, Conv2dParams::new(8, 3, 1, 1)),  // alexnet conv3
        (1, 3, 152, 152, Conv2dParams::new(8, 11, 1, 0)), // deepface c1
        (1, 32, 71, 71, Conv2dParams::new(8, 9, 1, 0)),   // deepface c3
        (2, 3, 13, 11, Conv2dParams::new(5, 3, 2, 1)),    // straddling
    ];
    let mut outs = Vec::new();
    for (i, &(n, c, h, w, p)) in cases.iter().enumerate() {
        let seed = 500 + 10 * i as u64;
        let input = salted_border(Shape::nchw(n, c, h, w), seed);
        let weights = Tensor::random_uniform(
            Shape::nchw(p.out_channels, c / p.groups, p.kernel, p.kernel),
            1.0,
            seed + 1,
        );
        let bias = Tensor::random_uniform(Shape::mat(1, p.out_channels), 1.0, seed + 2);
        for threads in [1usize, 3] {
            let out = conv2d_with(&input, &weights, bias.data(), &p, Threading::new(threads));
            outs.extend(out.unwrap().into_vec());
        }
    }
    outs
}

/// The convolution's golden, recorded while the column fill was a walk
/// of im2col row segments: the fill is a copy, so any fill must give
/// these bits, where the NaNs and infinities land included. Every NaN is
/// hashed as one value: which of two NaNs an add returns follows the
/// operand order the compiler picks, and that differs between
/// optimisation levels; where a NaN lands is the fill's business.
#[test]
fn conv_outputs_match_the_recorded_golden() {
    let outs: Vec<f32> = conv_golden_outputs()
        .into_iter()
        .map(|v| if v.is_nan() { f32::NAN } else { v })
        .collect();
    assert_eq!(
        fnv1a(&outs),
        CONV_GOLDEN,
        "convolution outputs moved: got {:#018x}",
        fnv1a(&outs)
    );
}

const CONV_GOLDEN: u64 = 0x79da_d389_eb2c_65f5;
