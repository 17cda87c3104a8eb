//! Per-kernel GPU timing: roofline + occupancy-dependent latency hiding +
//! cuBLAS-style tile quantization.

use dnn::profile::{KernelClass, KernelSpec, WorkloadProfile};

use crate::GpuSpec;

/// What bounds a kernel's execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// Arithmetic throughput (possibly derated by low occupancy).
    Compute,
    /// DRAM bandwidth.
    Memory,
    /// Fixed launch overhead dominates (tiny kernels).
    Launch,
}

/// The timing and resource profile of one kernel running alone on a GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    /// Wall-clock execution time in seconds, including launch overhead.
    pub seconds: f64,
    /// Achieved occupancy: resident warps over the device's warp slots.
    pub occupancy: f64,
    /// Fraction of the device's *compute issue capacity* the kernel uses
    /// while resident. Under MPS, concurrent kernels can co-run without
    /// slowdown while the sum of their demands stays ≤ 1.
    pub compute_demand: f64,
    /// Fraction of DRAM bandwidth the kernel uses while resident.
    pub memory_demand: f64,
    /// Which resource bounds the kernel.
    pub limiter: Limiter,
    /// Instructions-per-cycle proxy: achieved FLOP rate over device peak.
    pub ipc_ratio: f64,
}

/// Aggregate timing of a full forward pass (kernels run back to back on
/// one exclusive GPU — no MPS, no co-runners).
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardTiming {
    /// Per-kernel results, in launch order.
    pub kernels: Vec<KernelTiming>,
    /// Sum of kernel times (seconds), excluding PCIe transfers.
    pub seconds: f64,
    /// Time-weighted mean occupancy — what `nvprof` reports as
    /// `achieved_occupancy` averaged over the pass (Figs 6 and 7b).
    pub occupancy: f64,
    /// Time-weighted IPC / peak-IPC (Fig 6).
    pub ipc_ratio: f64,
    /// Time-weighted L1/shared bandwidth utilization (Fig 6).
    pub l1_utilization: f64,
    /// Time-weighted L2 bandwidth utilization (Fig 6).
    pub l2_utilization: f64,
    /// Estimated average board power over the pass, watts: idle power
    /// plus dynamic power proportional to the larger of the compute and
    /// DRAM utilizations (how the paper's measured power draw enters the
    /// TCO model).
    pub avg_power_w: f64,
}

/// Selects the cuBLAS-style output tile for one GEMM dimension: smaller
/// tiles for skinny problems so the padding waste stays bounded.
fn tile_for(dim: usize) -> usize {
    if dim >= 48 {
        64
    } else if dim >= 24 {
        32
    } else {
        16
    }
}

/// Times one kernel running alone on `gpu`.
pub fn time_kernel(gpu: &GpuSpec, spec: &KernelSpec) -> KernelTiming {
    let (padded_flops, blocks, warps_per_block, efficiency) = match spec.class {
        KernelClass::Gemm { m, n, k, count } => {
            let tm = tile_for(m);
            let tn = tile_for(n);
            let pm = m.div_ceil(tm) * tm;
            let pn = n.div_ceil(tn) * tn;
            let padded = count as f64 * 2.0 * pm as f64 * pn as f64 * k as f64;
            let blocks = count * (pm / tm) * (pn / tn);
            // 256 threads for a 64x64 tile, scaled down for smaller tiles.
            let warps = ((tm * tn) / 512).max(1);
            (padded, blocks, warps, gpu.gemm_efficiency)
        }
        KernelClass::Elementwise { .. } | KernelClass::Scatter { .. } => (
            spec.flops,
            spec.blocks,
            spec.warps_per_block,
            gpu.elementwise_efficiency,
        ),
    };
    // Uncoalesced per-location weight reads waste most of each DRAM burst.
    let mem_penalty = match spec.class {
        KernelClass::Scatter { .. } => gpu.scatter_mem_penalty,
        _ => 1.0,
    };

    let total_warps = (blocks * warps_per_block) as f64;
    let occupancy = (total_warps / gpu.total_warp_slots() as f64).min(1.0);
    // Latency hiding: below the knee, issue rate degrades linearly with
    // resident warps; above it, the kernel can issue at full rate.
    let latency_util = (occupancy / gpu.occupancy_knee).min(1.0);

    let peak = gpu.peak_gflops * 1e9;
    let compute_ideal_s = padded_flops / (peak * efficiency);
    let compute_s = compute_ideal_s / latency_util.max(1e-6);
    let memory_s = spec.bytes * mem_penalty / (gpu.mem_bw_gbps * 1e9);
    let exec_s = compute_s.max(memory_s);
    let seconds = exec_s + gpu.kernel_launch_s;

    let limiter = if gpu.kernel_launch_s > exec_s {
        Limiter::Launch
    } else if memory_s >= compute_s {
        Limiter::Memory
    } else {
        Limiter::Compute
    };

    // Resource demands while resident: fractions of machine compute/memory
    // capacity actually consumed over the kernel's wall-clock life (launch
    // overhead consumes neither). A latency- or launch-bound kernel leaves
    // headroom for MPS co-runners, which is exactly the §5.2 effect.
    let compute_demand = (compute_ideal_s / seconds).clamp(0.0, 1.0);
    let memory_demand = (memory_s / seconds).clamp(0.0, 1.0);
    let ipc_ratio = (spec.flops / seconds / peak).clamp(0.0, 1.0);

    KernelTiming {
        seconds,
        occupancy,
        compute_demand,
        memory_demand,
        limiter,
        ipc_ratio,
    }
}

/// Times a full forward pass running alone on `gpu` and aggregates the
/// profiler counters of Fig 6.
pub fn gpu_forward(gpu: &GpuSpec, profile: &WorkloadProfile) -> ForwardTiming {
    let kernels: Vec<KernelTiming> = profile
        .kernels
        .iter()
        .map(|k| time_kernel(gpu, k))
        .collect();
    let seconds: f64 = kernels.iter().map(|k| k.seconds).sum();
    let wsum = |f: &dyn Fn(&KernelTiming) -> f64| -> f64 {
        if seconds <= 0.0 {
            return 0.0;
        }
        kernels.iter().map(|k| f(k) * k.seconds).sum::<f64>() / seconds
    };
    let occupancy = wsum(&|k| k.occupancy);
    let ipc_ratio = wsum(&|k| k.ipc_ratio);
    // Bandwidth utilizations: achieved DRAM rate over cache peak rates.
    // L1 sees roughly 2x the DRAM traffic (operand reuse through shared
    // memory); both land well under their peaks for DNN kernels, matching
    // the paper's observation that memory bandwidth is not the bottleneck.
    let total_bytes = profile.total_bytes();
    let dram_rate = if seconds > 0.0 {
        total_bytes / seconds
    } else {
        0.0
    };
    let l2_utilization = (dram_rate / (gpu.l2_bw_gbps * 1e9)).min(1.0);
    let l1_utilization = (2.0 * dram_rate / (gpu.l1_bw_gbps * 1e9)).min(1.0);
    let utilization = wsum(&|k| k.compute_demand.max(k.memory_demand));
    let avg_power_w = gpu.idle_w + (gpu.tdp_w - gpu.idle_w) * utilization;
    ForwardTiming {
        kernels,
        seconds,
        occupancy,
        ipc_ratio,
        l1_utilization,
        l2_utilization,
        avg_power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::profile::WorkloadProfile;
    use dnn::zoo::{self, App};

    fn k40() -> GpuSpec {
        GpuSpec::k40()
    }

    fn forward(app: App, batch_items: usize) -> ForwardTiming {
        let def = zoo::netdef(app);
        let p = WorkloadProfile::of(&def, batch_items).unwrap();
        gpu_forward(&k40(), &p)
    }

    #[test]
    fn asr_has_high_occupancy_nlp_low() {
        // Fig 6: ASR > 90% occupancy, NLP tasks < 20%.
        let asr = forward(App::Asr, App::Asr.service_meta().inputs_per_query);
        let pos = forward(App::Pos, App::Pos.service_meta().inputs_per_query);
        assert!(asr.occupancy > 0.9, "ASR occupancy {}", asr.occupancy);
        assert!(pos.occupancy < 0.25, "POS occupancy {}", pos.occupancy);
    }

    #[test]
    fn memory_utilizations_are_low() {
        // Fig 6: all applications show low L1/L2 bandwidth utilization —
        // the low IPC of NLP is latency, not bandwidth.
        for app in App::ALL {
            let t = forward(app, app.service_meta().inputs_per_query);
            assert!(t.l1_utilization < 0.5, "{app}: L1 {}", t.l1_utilization);
            assert!(t.l2_utilization < 0.5, "{app}: L2 {}", t.l2_utilization);
        }
    }

    #[test]
    fn ipc_correlates_with_occupancy() {
        // Fig 6's qualitative claim: IPC tracks occupancy across apps.
        let mut pairs: Vec<(f64, f64)> = App::ALL
            .iter()
            .map(|&a| {
                let t = forward(a, a.service_meta().inputs_per_query);
                (t.occupancy, t.ipc_ratio)
            })
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Spearman-ish check: the lowest-occupancy app also has lower IPC
        // than the highest-occupancy app.
        assert!(pairs.first().unwrap().1 < pairs.last().unwrap().1);
    }

    #[test]
    fn batching_raises_nlp_occupancy() {
        // Fig 7b: NLP occupancy rises from ~20% to >80% at batch 64.
        let meta = App::Pos.service_meta();
        let b1 = forward(App::Pos, meta.inputs_per_query);
        let b64 = forward(App::Pos, meta.inputs_per_query * 64);
        assert!(b64.occupancy > 0.8, "batch-64 occupancy {}", b64.occupancy);
        assert!(b64.occupancy > b1.occupancy * 3.0);
    }

    #[test]
    fn latency_bound_kernels_leave_compute_headroom() {
        // A tiny GEMM (NLP at batch 1) must advertise low compute demand so
        // the MPS scheduler can co-run several instances (Fig 8).
        let def = zoo::senna("pos", 45);
        let p = WorkloadProfile::of(&def, 28).unwrap();
        let timing = gpu_forward(&k40(), &p);
        let max_demand = timing
            .kernels
            .iter()
            .map(|k| k.compute_demand.max(k.memory_demand))
            .fold(0.0, f64::max);
        assert!(max_demand < 0.5, "max demand {max_demand}");
    }

    #[test]
    fn power_tracks_utilization() {
        // A saturated ASR pass draws near TDP; a batch-1 NLP pass idles.
        let asr = forward(App::Asr, 548);
        let pos = forward(App::Pos, 28);
        let gpu = k40();
        assert!(
            asr.avg_power_w > gpu.tdp_w * 0.7,
            "ASR {}W",
            asr.avg_power_w
        );
        assert!(
            pos.avg_power_w < gpu.tdp_w * 0.4,
            "POS {}W",
            pos.avg_power_w
        );
        assert!(pos.avg_power_w >= gpu.idle_w);
    }

    #[test]
    fn launch_overhead_bounds_tiny_kernels() {
        use dnn::profile::KernelClass;
        let spec = dnn::profile::KernelSpec {
            name: "tiny".into(),
            class: KernelClass::Elementwise { elems: 32 },
            flops: 32.0,
            bytes: 256.0,
            blocks: 1,
            warps_per_block: 8,
        };
        let t = time_kernel(&k40(), &spec);
        assert_eq!(t.limiter, Limiter::Launch);
        assert!(t.seconds >= k40().kernel_launch_s);
    }

    #[test]
    fn local_layers_are_memory_bound() {
        // DeepFace's untied layers stream hundreds of MB of weights.
        let def = zoo::deepface();
        let p = WorkloadProfile::of(&def, 1).unwrap();
        let local_idx: Vec<usize> = p
            .kernels
            .iter()
            .enumerate()
            .filter(|(_, k)| k.name.contains(".local"))
            .map(|(i, _)| i)
            .collect();
        assert!(!local_idx.is_empty());
        let t = gpu_forward(&k40(), &p);
        for i in local_idx {
            assert_eq!(
                t.kernels[i].limiter,
                Limiter::Memory,
                "{}",
                p.kernels[i].name
            );
        }
    }
}
