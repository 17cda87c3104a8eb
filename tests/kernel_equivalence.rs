//! Row independence across GEMM tiers, through public API only: a row of
//! a matrix product — and so a row of a network's output — has the same
//! bits whether it is computed alone, beside one other row, or deep in a
//! batch. Alone and in a pair the call is at most `SKINNY_MAX_M` rows and
//! takes the no-pack kernel; as row 17 of 33 it takes the packed one. The
//! serving invariants (batched ≡ solo, cache hit ≡ miss, remote ≡ local)
//! all rest on the two agreeing bit for bit. The convolutional networks
//! are held to the same: an image's output does not depend on the batch
//! it rides in or on how the batch is split over threads — the fused
//! im2col-into-panels convolution packs weights once per call and reuses
//! one column buffer per worker, and neither may leak between images.

use djinn_tonic::dnn::{zoo, NetDef, Network};
use djinn_tonic::tensor::{sgemm, GemmOptions, Shape, Tensor, Threading};

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

/// One row through `def`, alone, in a 2-row batch and as row 17 of 33:
/// every layer's output must agree.
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
