//! SGEMM microbenchmarks: the compute substrate every forward pass runs
//! on. Compares the naive reference, `sgemm` on one thread, and the
//! parallel driver — the `tensor` crate's design-choice ablation — and,
//! in the `skinny` group, the no-pack and packed kernels row count by row
//! count: the crossover table behind `SKINNY_MAX_M`
//! (results/gemm_skinny.txt). The `lookup` group sets the lookup tier
//! against the no-pack one by nonzeros per row: the crossover table
//! behind `LOOKUP_MAX_SHARE` (results/gemm_lookup.txt).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tensor::{
    gemm_lookup, gemm_naive, gemm_packed, gemm_skinny, sgemm, GemmOptions, Shape, Tensor,
};

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("sgemm");
    group.sample_size(20);
    for &(m, n, k) in &[(64usize, 64usize, 64usize), (256, 256, 256), (28, 450, 350)] {
        let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, 1).into_vec();
        let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, 2).into_vec();
        group.throughput(Throughput::Elements((2 * m * n * k) as u64));

        group.bench_with_input(
            BenchmarkId::new("naive", format!("{m}x{n}x{k}")),
            &(m, n, k),
            |bench, _| {
                bench.iter(|| {
                    let mut cbuf = vec![0.0f32; m * n];
                    gemm_naive(m, n, k, 1.0, &a, &b, &mut cbuf);
                    black_box(cbuf)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sgemm", format!("{m}x{n}x{k}")),
            &(m, n, k),
            |bench, _| {
                bench.iter(|| {
                    let mut cbuf = vec![0.0f32; m * n];
                    sgemm(m, n, k, 1.0, &a, &b, 0.0, &mut cbuf, GemmOptions::default()).unwrap();
                    black_box(cbuf)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("parallel4", format!("{m}x{n}x{k}")),
            &(m, n, k),
            |bench, _| {
                bench.iter(|| {
                    let mut cbuf = vec![0.0f32; m * n];
                    sgemm(
                        m,
                        n,
                        k,
                        1.0,
                        &a,
                        &b,
                        0.0,
                        &mut cbuf,
                        GemmOptions::with_threads(4),
                    )
                    .unwrap();
                    black_box(cbuf)
                });
            },
        );
    }

    // The acceptance point for the parallel packed kernel: 512^3 across
    // thread counts.
    let (m, n, k) = (512usize, 512usize, 512usize);
    let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, 9).into_vec();
    let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, 10).into_vec();
    group.throughput(Throughput::Elements((2 * m * n * k) as u64));
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("packed512", format!("{threads}t")),
            &threads,
            |bench, &threads| {
                bench.iter(|| {
                    let mut cbuf = vec![0.0f32; m * n];
                    sgemm(
                        m,
                        n,
                        k,
                        1.0,
                        &a,
                        &b,
                        0.0,
                        &mut cbuf,
                        GemmOptions::with_threads(threads),
                    )
                    .unwrap();
                    black_box(cbuf)
                });
            },
        );
    }
    group.finish();
}

/// Few-row calls against the two serving-critical weight shapes (SENNA's
/// 350x450 first layer, textgen's 512x512 hidden layer): both kernels at
/// every height, whichever `sgemm` would pick, so the table shows where
/// re-laying-out B starts to pay for itself.
fn bench_skinny(c: &mut Criterion) {
    type Kernel = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
    let kernels: [(&str, Kernel); 2] = [
        ("nopack", |m, n, k, a, b, c| {
            gemm_skinny(m, n, k, 1.0, a, b, c)
        }),
        ("packed", |m, n, k, a, b, c| {
            gemm_packed(m, n, k, 1.0, a, b, c, 1)
        }),
    ];
    let mut group = c.benchmark_group("skinny");
    group.sample_size(30);
    for &(n, k) in &[(450usize, 350usize), (512, 512)] {
        let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, 2).into_vec();
        for &m in &[1usize, 8, 16, 28, 32, 64] {
            let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, 1).into_vec();
            group.throughput(Throughput::Elements((2 * m * n * k) as u64));
            for (name, kernel) in kernels {
                group.bench_function(BenchmarkId::new(name, format!("{m}x{n}x{k}")), |bench| {
                    bench.iter(|| {
                        let mut cbuf = vec![0.0f32; m * n];
                        kernel(m, n, k, &a, &b, &mut cbuf);
                        black_box(cbuf)
                    });
                });
            }
        }
    }
    group.finish();
}

/// Rows with `nnz` nonzeros each, evenly spaced (the rest `0.0`),
/// against `textgen`'s 256x512 embedding and SENNA's 350x450 first
/// layer at the heights a decode tick or a tagging batch has: the lookup
/// tier, and the no-pack tier `sgemm` picks at these heights, which
/// reads all of B whatever A holds. Where the lookup column passes the
/// no-pack one is the share of nonzeros the lookup tier may take.
fn bench_lookup(c: &mut Criterion) {
    type Kernel = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
    let kernels: [(&str, Kernel); 2] = [
        ("lookup", |m, n, k, a, b, c| {
            gemm_lookup(m, n, k, 1.0, a, b, c)
        }),
        ("nopack", |m, n, k, a, b, c| {
            gemm_skinny(m, n, k, 1.0, a, b, c)
        }),
    ];
    let mut group = c.benchmark_group("lookup");
    group.sample_size(30);
    for &(n, k) in &[(512usize, 256usize), (450, 350)] {
        let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, 2).into_vec();
        for &m in &[1usize, 2, 8, 16] {
            let dense = Tensor::random_uniform(Shape::mat(m, k), 1.0, 1).into_vec();
            for &nnz in &[1usize, 4, 8, 16, 32, 64] {
                let a: Vec<f32> = dense
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        if (i % k) % (k / nnz) == 0 && (i % k) / (k / nnz) < nnz {
                            v
                        } else {
                            0.0
                        }
                    })
                    .collect();
                for (name, kernel) in kernels {
                    let id = BenchmarkId::new(name, format!("{m}x{n}x{k}/nnz{nnz}"));
                    group.bench_function(id, |bench| {
                        bench.iter(|| {
                            let mut cbuf = vec![0.0f32; m * n];
                            kernel(m, n, k, &a, &b, &mut cbuf);
                            black_box(cbuf)
                        });
                    });
                }
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_skinny, bench_lookup);
criterion_main!(benches);
