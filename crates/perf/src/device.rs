//! Device specifications, defaulting to the paper's platform (Table 2).

/// A GPU's architectural constants, defaulting to the NVIDIA Tesla K40
/// used throughout the paper.
///
/// The K40 values come from NVIDIA's published specifications: 15 SMX
/// units, 64 resident warps per SMX, 4.29 TFLOPS single-precision peak
/// (boost clock), 288 GB/s GDDR5 bandwidth, PCIe 3.0 ×16.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `Tesla K40`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sms: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Peak single-precision throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Fraction of peak a well-tuned dense GEMM sustains at full occupancy
    /// (cuBLAS on Kepler reaches ~70-80%).
    pub gemm_efficiency: f64,
    /// Fraction of peak that elementwise/stencil kernels can sustain
    /// (they lack FMA density).
    pub elementwise_efficiency: f64,
    /// Device DRAM bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// L2 cache peak bandwidth in GB/s (used only for the Fig 6 utilization
    /// counters).
    pub l2_bw_gbps: f64,
    /// Aggregate L1/shared-memory peak bandwidth in GB/s (Fig 6 counters).
    pub l1_bw_gbps: f64,
    /// Occupancy below which latency hiding degrades linearly; at or above
    /// the knee a kernel can issue at full rate. Kepler GEMMs hide global
    /// latency with roughly half the warp slots filled.
    pub occupancy_knee: f64,
    /// Host-visible overhead per kernel launch, seconds (driver + dispatch).
    pub kernel_launch_s: f64,
    /// Effective PCIe bandwidth per GPU in GB/s (PCIe 3.0 ×16 ≈ 15.75 GB/s
    /// raw; ~12 GB/s after protocol overhead).
    pub pcie_gbps: f64,
    /// DRAM-bandwidth waste factor for kernels with uncoalesced access
    /// (locally-connected layers): each 32-thread burst fetches mostly
    /// unused cache lines.
    pub scatter_mem_penalty: f64,
    /// Board power in watts (TDP), for the TCO model.
    pub tdp_w: f64,
    /// Idle board power in watts (clocks up, no work).
    pub idle_w: f64,
}

impl GpuSpec {
    /// The paper's accelerator: NVIDIA Tesla K40 (Table 2).
    pub fn k40() -> Self {
        GpuSpec {
            name: "Tesla K40".into(),
            sms: 15,
            max_warps_per_sm: 64,
            peak_gflops: 4290.0,
            gemm_efficiency: 0.78,
            elementwise_efficiency: 0.15,
            mem_bw_gbps: 288.0,
            l2_bw_gbps: 750.0,
            l1_bw_gbps: 1500.0,
            occupancy_knee: 0.50,
            kernel_launch_s: 7e-6,
            pcie_gbps: 12.0,
            scatter_mem_penalty: 3.0,
            tdp_w: 235.0,
            idle_w: 25.0,
        }
    }

    /// The K40's predecessor: Tesla K20 (13 SMX, 3.52 TFLOPS, 208 GB/s).
    /// Used by the device-sensitivity study.
    pub fn k20() -> Self {
        GpuSpec {
            name: "Tesla K20".into(),
            sms: 13,
            peak_gflops: 3520.0,
            mem_bw_gbps: 208.0,
            l2_bw_gbps: 650.0,
            l1_bw_gbps: 1300.0,
            pcie_gbps: 10.0,
            tdp_w: 225.0,
            ..GpuSpec::k40()
        }
    }

    /// A near-future (for the paper) device: Maxwell-class Titan X
    /// (24 SMM, 6.14 TFLOPS, 336 GB/s, lower kernel launch overhead).
    /// Used by the device-sensitivity study.
    pub fn titan_x() -> Self {
        GpuSpec {
            name: "Titan X (Maxwell)".into(),
            sms: 24,
            peak_gflops: 6140.0,
            mem_bw_gbps: 336.0,
            l2_bw_gbps: 1100.0,
            l1_bw_gbps: 2200.0,
            kernel_launch_s: 5e-6,
            tdp_w: 250.0,
            ..GpuSpec::k40()
        }
    }

    /// Total warp slots across the device.
    pub fn total_warp_slots(&self) -> usize {
        self.sms * self.max_warps_per_sm
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        GpuSpec::k40()
    }
}

/// A CPU core's constants, defaulting to one core of the paper's Intel
/// Xeon E5-2620 v2 (Ivy Bridge EP, 2.10 GHz) running single-threaded
/// Caffe linked against ATLAS.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name.
    pub name: String,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Single-precision FLOPs per cycle with AVX (8-wide add + 8-wide mul).
    pub flops_per_cycle: f64,
    /// Fraction of peak that ATLAS sustains on large, square-ish GEMMs.
    pub gemm_efficiency: f64,
    /// Exponent of the dimension-efficiency curve: efficiency scales as
    /// `(min_dim / gemm_dim_ref)^gemm_dim_exp`, clamped — skinny matrices
    /// (GEMV-like or tiny channel counts) run far below peak.
    pub gemm_dim_exp: f64,
    /// Reference dimension at which the curve reaches 1.0.
    pub gemm_dim_ref: f64,
    /// Floor of the dimension-efficiency curve.
    pub gemm_dim_floor: f64,
    /// Sustainable single-core streaming memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// Per-core share of socket power in watts, for the TCO model.
    pub core_power_w: f64,
}

impl CpuSpec {
    /// One core of the paper's Xeon E5-2620 v2 (Table 2).
    pub fn xeon_e5_2620_v2() -> Self {
        CpuSpec {
            name: "Xeon E5-2620 v2 (1 core)".into(),
            freq_ghz: 2.10,
            flops_per_cycle: 16.0,
            gemm_efficiency: 0.75,
            gemm_dim_exp: 0.75,
            gemm_dim_ref: 96.0,
            gemm_dim_floor: 0.20,
            mem_bw_gbps: 10.0,
            core_power_w: 13.0,
        }
    }

    /// Peak single-precision GFLOP/s of one core.
    pub fn peak_gflops(&self) -> f64 {
        self.freq_ghz * self.flops_per_cycle
    }

    /// Effective GEMM GFLOP/s for a problem whose smallest dimension is
    /// `min_dim` — the ATLAS dimension-efficiency curve.
    pub fn gemm_gflops(&self, min_dim: usize) -> f64 {
        let scale = (min_dim as f64 / self.gemm_dim_ref)
            .powf(self.gemm_dim_exp)
            .clamp(self.gemm_dim_floor, 1.0);
        self.peak_gflops() * self.gemm_efficiency * scale
    }
}

impl Default for CpuSpec {
    fn default() -> Self {
        CpuSpec::xeon_e5_2620_v2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40_published_constants() {
        let g = GpuSpec::k40();
        assert_eq!(g.sms, 15);
        assert_eq!(g.total_warp_slots(), 960);
        assert!(g.peak_gflops > 4000.0);
    }

    #[test]
    fn device_catalog_orders_by_capability() {
        let k20 = GpuSpec::k20();
        let k40 = GpuSpec::k40();
        let tx = GpuSpec::titan_x();
        assert!(k20.peak_gflops < k40.peak_gflops);
        assert!(k40.peak_gflops < tx.peak_gflops);
        assert!(k20.total_warp_slots() < tx.total_warp_slots());
    }

    #[test]
    fn cpu_peak_is_avx_rate() {
        let c = CpuSpec::xeon_e5_2620_v2();
        assert!((c.peak_gflops() - 33.6).abs() < 1e-9);
    }

    #[test]
    fn gemm_efficiency_curve_is_monotone_and_clamped() {
        let c = CpuSpec::xeon_e5_2620_v2();
        assert!(c.gemm_gflops(1) < c.gemm_gflops(32));
        assert!(c.gemm_gflops(32) < c.gemm_gflops(96));
        // Above the reference dimension the curve saturates.
        assert_eq!(c.gemm_gflops(96), c.gemm_gflops(4096));
        // Floor: tiny dims never hit zero.
        assert!(c.gemm_gflops(1) >= c.peak_gflops() * c.gemm_efficiency * c.gemm_dim_floor - 1e-9);
    }
}
