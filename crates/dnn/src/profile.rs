//! Workload characterization: how a forward pass decomposes into GPU
//! kernels, with FLOP counts, DRAM traffic and launch geometry.
//!
//! This is the contract between the functional network (`dnn`) and the
//! timing models (`perf`, `gpusim`): the simulator never executes real
//! math — it consumes the [`WorkloadProfile`] that describes exactly the
//! kernels Caffe+cuDNN would launch for the same network and batch size.

use crate::{LayerSpec, NetDef, Result};

/// Threads per block for elementwise/stencil kernels (CUDA convention).
const EW_BLOCK_THREADS: usize = 256;
/// Output tile computed by one GEMM thread block (cuBLAS-style 64x64).
const GEMM_TILE: usize = 64;
/// Warps per GEMM thread block (256 threads).
const GEMM_WARPS_PER_BLOCK: usize = 8;
/// Threads per warp.
const WARP: usize = 32;

/// How a kernel maps onto the GPU grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelClass {
    /// Dense matrix multiply with the given `(m, n, k)`, launched `count`
    /// times within one fused kernel (grouped convolutions use `count > 1`).
    Gemm {
        /// Output rows.
        m: usize,
        /// Output columns.
        n: usize,
        /// Inner (reduction) dimension.
        k: usize,
        /// Independent GEMM instances fused into the launch.
        count: usize,
    },
    /// One thread per output element (activations, pooling, im2col, LRN,
    /// softmax).
    Elementwise {
        /// Total output elements.
        elems: usize,
    },
    /// One thread per output element with *uncoalesced* weight access:
    /// locally-connected layers read a distinct kernel per output
    /// location, defeating memory coalescing (the reason DeepFace's GPU
    /// gain trails every other network in the paper).
    Scatter {
        /// Total output elements.
        elems: usize,
    },
}

/// One GPU kernel launch within a forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Diagnostic name, e.g. `conv1.gemm`.
    pub name: String,
    /// Grid/occupancy class.
    pub class: KernelClass,
    /// Floating-point operations performed.
    pub flops: f64,
    /// DRAM bytes moved (reads + writes), assuming streaming access with
    /// weights and activations too large to stay resident in cache.
    pub bytes: f64,
    /// Thread blocks launched.
    pub blocks: usize,
    /// Warps per thread block.
    pub warps_per_block: usize,
}

impl KernelSpec {
    fn gemm(name: String, m: usize, n: usize, k: usize, count: usize) -> Self {
        let c = count as f64;
        let flops = c * 2.0 * m as f64 * n as f64 * k as f64;
        // A + B + C streamed once, per instance.
        let bytes = c * 4.0 * (m as f64 * k as f64 + k as f64 * n as f64 + m as f64 * n as f64);
        let blocks = count * m.div_ceil(GEMM_TILE) * n.div_ceil(GEMM_TILE);
        KernelSpec {
            name,
            class: KernelClass::Gemm { m, n, k, count },
            flops,
            bytes,
            blocks,
            warps_per_block: GEMM_WARPS_PER_BLOCK,
        }
    }

    fn elementwise(name: String, elems: usize, flops_per_elem: f64, bytes: f64) -> Self {
        KernelSpec {
            name,
            class: KernelClass::Elementwise { elems },
            flops: elems as f64 * flops_per_elem,
            bytes,
            blocks: elems.div_ceil(EW_BLOCK_THREADS).max(1),
            warps_per_block: EW_BLOCK_THREADS / WARP,
        }
    }

    /// Total warps in the launch grid.
    pub fn total_warps(&self) -> usize {
        self.blocks * self.warps_per_block
    }
}

/// The complete kernel trace of one forward pass at a given batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Network name.
    pub network: String,
    /// Batch size (number of input items stacked).
    pub batch: usize,
    /// Kernels in launch order.
    pub kernels: Vec<KernelSpec>,
    /// Bytes of input transferred host→device per forward pass.
    pub input_bytes: f64,
    /// Bytes of output transferred device→host per forward pass.
    pub output_bytes: f64,
}

impl WorkloadProfile {
    /// Characterizes `def`'s forward pass for `batch` stacked inputs.
    ///
    /// # Errors
    ///
    /// Propagates shape inference failures (none occur for validated
    /// definitions).
    pub fn of(def: &NetDef, batch: usize) -> Result<Self> {
        let shapes = def.layer_shapes(batch)?;
        let mut kernels = Vec::new();
        for (i, layer) in def.layers().iter().enumerate() {
            let in_shape = &shapes[i];
            let out_shape = &shapes[i + 1];
            let in_vol = in_shape.volume();
            let out_vol = out_shape.volume();
            match &layer.spec {
                LayerSpec::Conv(p) => {
                    let d = in_shape.dims();
                    let (n, c) = (d[0], d[1]);
                    let od = out_shape.dims();
                    let (oh, ow) = (od[2], od[3]);
                    let cg = c / p.groups;
                    let og = p.out_channels / p.groups;
                    let kk = p.kernel * p.kernel;
                    // im2col: one thread per unrolled element, per group set.
                    let col_elems = n * c * kk * oh * ow;
                    kernels.push(KernelSpec::elementwise(
                        format!("{}.im2col", layer.name),
                        col_elems,
                        1.0,
                        4.0 * (in_vol + col_elems) as f64,
                    ));
                    // cuDNN-style batched GEMM over all images: per group,
                    // m = out channels, n = batch * spatial, k = cg*k*k.
                    kernels.push(KernelSpec::gemm(
                        format!("{}.gemm", layer.name),
                        og,
                        n * oh * ow,
                        cg * kk,
                        p.groups,
                    ));
                    // Bias broadcast.
                    kernels.push(KernelSpec::elementwise(
                        format!("{}.bias", layer.name),
                        out_vol,
                        1.0,
                        4.0 * 2.0 * out_vol as f64,
                    ));
                }
                LayerSpec::Local(p) => {
                    let d = in_shape.dims();
                    let ksz = d[1] * p.kernel * p.kernel;
                    let weight_bytes = 4.0 * layer.spec.param_count(in_shape) as f64;
                    let mut k = KernelSpec::elementwise(
                        format!("{}.local", layer.name),
                        out_vol,
                        2.0 * ksz as f64,
                        weight_bytes + 4.0 * (in_vol + out_vol) as f64,
                    );
                    k.class = KernelClass::Scatter { elems: out_vol };
                    kernels.push(k);
                }
                LayerSpec::Pool(_, p) => {
                    kernels.push(KernelSpec::elementwise(
                        format!("{}.pool", layer.name),
                        out_vol,
                        (p.kernel * p.kernel) as f64,
                        4.0 * (in_vol + out_vol) as f64,
                    ));
                }
                LayerSpec::InnerProduct { out } => {
                    let (rows, cols) = in_shape.as_matrix();
                    kernels.push(KernelSpec::gemm(
                        format!("{}.gemm", layer.name),
                        rows,
                        *out,
                        cols,
                        1,
                    ));
                    kernels.push(KernelSpec::elementwise(
                        format!("{}.bias", layer.name),
                        rows * out,
                        1.0,
                        4.0 * 2.0 * (rows * out) as f64,
                    ));
                }
                LayerSpec::Activation(a) => {
                    kernels.push(KernelSpec::elementwise(
                        format!("{}.{}", layer.name, a.name()),
                        out_vol,
                        2.0,
                        4.0 * 2.0 * out_vol as f64,
                    ));
                }
                LayerSpec::Lrn(p) => {
                    kernels.push(KernelSpec::elementwise(
                        format!("{}.lrn", layer.name),
                        out_vol,
                        (2 * p.local_size + 2) as f64,
                        4.0 * 2.0 * out_vol as f64,
                    ));
                }
                LayerSpec::Dropout => {
                    // No kernel at inference time.
                }
                LayerSpec::Softmax => {
                    kernels.push(KernelSpec::elementwise(
                        format!("{}.softmax", layer.name),
                        out_vol,
                        3.0,
                        4.0 * 2.0 * out_vol as f64,
                    ));
                }
            }
        }
        let input_bytes = 4.0 * shapes[0].volume() as f64;
        let output_bytes = 4.0 * shapes[shapes.len() - 1].volume() as f64;
        Ok(WorkloadProfile {
            network: def.name().to_string(),
            batch,
            kernels,
            input_bytes,
            output_bytes,
        })
    }

    /// Total floating-point operations of the forward pass.
    pub fn total_flops(&self) -> f64 {
        self.kernels.iter().map(|k| k.flops).sum()
    }

    /// Total DRAM bytes moved by the forward pass.
    pub fn total_bytes(&self) -> f64 {
        self.kernels.iter().map(|k| k.bytes).sum()
    }

    /// The `(m, n, k)` of the biggest single GEMM (by FLOPs) in the
    /// forward pass, or `None` for a GEMM-free profile.
    ///
    /// This drives the CPU executor's parallelization choice: profiles
    /// whose largest GEMM is skinny (small `m * n`, like SENNA's per-item
    /// matrices) scale by sharding the batch across threads, while fat
    /// GEMMs (AlexNet, Kaldi) are worth splitting internally.
    pub fn largest_gemm(&self) -> Option<(usize, usize, usize)> {
        self.kernels
            .iter()
            .filter_map(|ks| match ks.class {
                KernelClass::Gemm { m, n, k, .. } => Some((m, n, k)),
                _ => None,
            })
            .max_by(|a, b| (a.0 * a.1 * a.2).cmp(&(b.0 * b.1 * b.2)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{self, App};

    #[test]
    fn flops_scale_linearly_with_batch() {
        let def = zoo::senna("pos", 45);
        let p1 = WorkloadProfile::of(&def, 1).unwrap();
        let p8 = WorkloadProfile::of(&def, 8).unwrap();
        let ratio = p8.total_flops() / p1.total_flops();
        assert!((ratio - 8.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn alexnet_flops_in_published_range() {
        // Published AlexNet forward pass: ~1.4-1.5 GFLOPs (2 FLOPs/MAC).
        let p = WorkloadProfile::of(&zoo::alexnet(), 1).unwrap();
        let gflops = p.total_flops() / 1e9;
        assert!(
            (1.0..2.5).contains(&gflops),
            "AlexNet forward = {gflops} GFLOPs"
        );
    }

    #[test]
    fn gemm_block_geometry() {
        let k = KernelSpec::gemm("t".into(), 128, 128, 64, 1);
        assert_eq!(k.blocks, 4);
        assert_eq!(k.total_warps(), 32);
        assert_eq!(k.flops, 2.0 * 128.0 * 128.0 * 64.0);
    }

    #[test]
    fn asr_batch1_has_many_warps_nlp_few() {
        // The root cause of Fig 6: ASR queries carry 548 frames so even
        // batch 1 launches large GEMMs; SENNA carries 28 windows.
        let asr = WorkloadProfile::of(&zoo::kaldi(), 548).unwrap();
        let pos = WorkloadProfile::of(&zoo::senna("pos", 45), 28).unwrap();
        let gemm_max = |p: &WorkloadProfile| {
            p.kernels
                .iter()
                .filter(|k| matches!(k.class, KernelClass::Gemm { .. }))
                .map(KernelSpec::total_warps)
                .max()
                .unwrap()
        };
        let asr_max = gemm_max(&asr);
        let pos_max = gemm_max(&pos);
        assert!(asr_max > 900, "asr warps {asr_max}");
        assert!(pos_max < 200, "pos warps {pos_max}");
    }

    #[test]
    fn largest_gemm_separates_fat_from_skinny() {
        let asr = WorkloadProfile::of(&zoo::kaldi(), 16).unwrap();
        let (m, n, k) = asr.largest_gemm().unwrap();
        assert!(m * n * k >= 16 * 2048 * 2048, "kaldi gemm {m}x{n}x{k}");
        let pos = WorkloadProfile::of(&zoo::senna("pos", 45), 28).unwrap();
        let (pm, pn, pk) = pos.largest_gemm().unwrap();
        assert!(pm * pn * pk <= 28 * 450 * 350, "senna gemm {pm}x{pn}x{pk}");
    }

    #[test]
    fn dropout_emits_no_kernel() {
        let p = WorkloadProfile::of(&zoo::alexnet(), 1).unwrap();
        assert!(p.kernels.iter().all(|k| !k.name.contains("drop")));
    }

    #[test]
    fn profiles_exist_for_all_apps() {
        for app in App::ALL {
            let def = zoo::netdef(app);
            let meta = app.service_meta();
            let p = WorkloadProfile::of(&def, meta.inputs_per_query).unwrap();
            assert!(p.total_flops() > 0.0);
            assert!(p.total_bytes() > 0.0);
            assert!(!p.kernels.is_empty());
        }
    }
}
