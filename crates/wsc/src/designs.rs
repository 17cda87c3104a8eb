//! The three WSC organizations (Fig 14) and the provisioning model that
//! sizes each one to a common throughput target (§6.3 methodology).
//!
//! Model summary (continuous capacity, 500-leaf-node scale):
//!
//! * the workload is a fraction `f` of DNN-service load and `1-f` of
//!   non-DNN webservices; non-DNN is served by identical beefy CPU
//!   servers in every design and the DNN share is split equally among the
//!   mix's applications (the paper's example: 70% MIXED = 10% per
//!   service);
//! * `CPU Only` uses 500 beefy servers; the throughput each DNN service
//!   gets from its share of those servers becomes the design target;
//! * `Integrated GPU` serves DNN load from beefy servers with 12 GPUs
//!   each. A server's service throughput is capped by the CPU→GPU feed
//!   bandwidth (PCIe complex), so bandwidth-bound services strand GPUs —
//!   the integrated design's inefficiency;
//! * `Disaggregated GPU` serves DNN load from wimpy GPU boxes that hold
//!   only as many GPUs as they can feed, but pays for the NIC fabric on
//!   both sides of the network hop.
//!
//! Pre/post-processing capacity is not provisioned here (the paper's
//! study targets the DNN service itself); the `bench` crate's
//! `ablation_provisioning` experiment quantifies how including it
//! compresses the TCO gains.

use dnn::zoo::App;

use crate::{AppPerfDb, CostBreakdown, NetworkTech, TcoParams};

/// Leaf servers in the reference CPU-only WSC (paper §6.3).
pub const WSC_SERVERS: f64 = 500.0;
/// GPUs per integrated server (paper §6.2: 12 PCIe ×16 slots).
pub const GPUS_PER_INTEGRATED: f64 = 12.0;
/// Maximum GPUs a disaggregated box can hold.
pub const GPUS_PER_BOX: f64 = 12.0;

/// The three WSC designs of Fig 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WscDesign {
    /// Homogeneous beefy CPU servers only.
    CpuOnly,
    /// Beefy CPU servers with 12 integrated GPUs each.
    IntegratedGpu,
    /// Beefy CPU servers plus wimpy GPU boxes behind the network.
    DisaggregatedGpu,
}

impl WscDesign {
    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            WscDesign::CpuOnly => "CPU Only",
            WscDesign::IntegratedGpu => "Integrated GPU",
            WscDesign::DisaggregatedGpu => "Disaggregated GPU",
        }
    }
}

/// DNN service workload mixes (paper Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mix {
    /// All seven services.
    Mixed,
    /// IMC, DIG, FACE.
    Image,
    /// POS, CHK, NER.
    Nlp,
}

impl Mix {
    /// The applications in this mix.
    pub fn apps(&self) -> &'static [App] {
        match self {
            Mix::Mixed => &App::ALL,
            Mix::Image => &App::IMAGE,
            Mix::Nlp => &App::NLP,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Mix::Mixed => "MIXED",
            Mix::Image => "IMAGE",
            Mix::Nlp => "NLP",
        }
    }
}

/// A provisioned WSC and its cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisionResult {
    /// Which design was provisioned.
    pub design: WscDesign,
    /// Beefy CPU servers (non-DNN pool plus integrated GPU servers).
    pub beefy_servers: f64,
    /// Wimpy GPU-box chassis.
    pub wimpy_servers: f64,
    /// GPUs installed.
    pub gpus: f64,
    /// Network cost in 10GbE-NIC units.
    pub nic_units: f64,
    /// Extra interconnect hardware, dollars.
    pub extra_hw: f64,
    /// Lifetime cost decomposition.
    pub breakdown: CostBreakdown,
}

impl ProvisionResult {
    /// Total lifetime TCO, dollars.
    pub fn tco_total(&self) -> f64 {
        self.breakdown.total()
    }
}

/// Per-service throughput target: the QPS each app receives from its
/// share of the CPU-only WSC at DNN fraction `f`.
fn targets(mix: Mix, f: f64, db: &AppPerfDb) -> Vec<(App, f64)> {
    let apps = mix.apps();
    let share_servers = f * WSC_SERVERS / apps.len() as f64;
    apps.iter()
        .map(|&a| (a, share_servers * db.get(a).qps_per_cpu_server))
        .collect()
}

/// Throughput one integrated 12-GPU server sustains for `app`: GPU
/// compute capped by both the CPU→GPU feed bandwidth (PCIe complex) and
/// the server's network ingestion bandwidth.
fn integrated_server_qps(app: App, db: &AppPerfDb, tech: &NetworkTech) -> f64 {
    let p = db.get(app);
    (GPUS_PER_INTEGRATED * p.qps_per_gpu)
        .min(tech.internal_gbps * 1e9 / p.bytes_per_query)
        .min(tech.external_gbps * 1e9 / p.bytes_per_query)
        .min(tech.messages_per_sec)
}

/// Provisions one design for `mix` at DNN fraction `dnn_fraction` and
/// prices it.
///
/// # Panics
///
/// Panics if `dnn_fraction` is outside `[0, 1]`.
pub fn provision(
    design: WscDesign,
    mix: Mix,
    dnn_fraction: f64,
    db: &AppPerfDb,
    tech: &NetworkTech,
    params: &TcoParams,
) -> ProvisionResult {
    provision_with(design, mix, dnn_fraction, db, tech, params, false)
}

/// [`provision`] with an explicit choice about pre/post-processing: when
/// `include_prepost` is true, the GPU designs additionally buy beefy CPU
/// servers to run every DNN query's pre/post-processing (the paper's
/// headline TCO numbers provision the DNN service itself; this switch is
/// the `ablation_provisioning` experiment that shows how ASR's heavy
/// decode stage compresses the gains).
///
/// # Panics
///
/// Panics if `dnn_fraction` is outside `[0, 1]`.
pub fn provision_with(
    design: WscDesign,
    mix: Mix,
    dnn_fraction: f64,
    db: &AppPerfDb,
    tech: &NetworkTech,
    params: &TcoParams,
    include_prepost: bool,
) -> ProvisionResult {
    assert!(
        (0.0..=1.0).contains(&dnn_fraction),
        "dnn_fraction {dnn_fraction} outside [0,1]"
    );
    let mut non_dnn_servers = (1.0 - dnn_fraction) * WSC_SERVERS;
    if include_prepost && design != WscDesign::CpuOnly {
        for (app, target) in targets(mix, dnn_fraction, db) {
            let p = db.get(app);
            non_dnn_servers += target * p.prepost_s / crate::perfdb::CPU_SERVER_CORES as f64;
        }
    }
    let targets = targets(mix, dnn_fraction, db);

    let (beefy, wimpy, gpus, nic_units, extra_hw) = match design {
        WscDesign::CpuOnly => (WSC_SERVERS, 0.0, 0.0, 0.0, 0.0),
        WscDesign::IntegratedGpu => {
            let mut servers = 0.0;
            for &(app, target) in &targets {
                servers += target / integrated_server_qps(app, db, tech);
            }
            // Every integrated DNN server ingests queries through one
            // aggregated NIC set.
            let nic_units = tech.nic_units_per_device() * servers;
            (
                non_dnn_servers + servers,
                0.0,
                servers * GPUS_PER_INTEGRATED,
                nic_units,
                servers * tech.server_extra_cost,
            )
        }
        WscDesign::DisaggregatedGpu => {
            let mut boxes = 0.0;
            let mut gpus = 0.0;
            for &(app, target) in &targets {
                let p = db.get(app);
                let need_gpus = target / p.qps_per_gpu;
                let bw_boxes = (target * p.bytes_per_query / (tech.external_gbps * 1e9))
                    .max(target / tech.messages_per_sec);
                boxes += (need_gpus / GPUS_PER_BOX).max(bw_boxes);
                gpus += need_gpus;
            }
            // The extra network hop needs aggregated NIC sets on both
            // ends (CPU sender and GPU box), per the paper's 16x10GbE
            // fabric description.
            let nic_units = 2.0 * tech.nic_units_per_device() * boxes;
            (non_dnn_servers, boxes, gpus, nic_units, 0.0)
        }
    };
    let breakdown = CostBreakdown::from_bom(params, beefy, wimpy, gpus, nic_units, extra_hw);
    ProvisionResult {
        design,
        beefy_servers: beefy,
        wimpy_servers: wimpy,
        gpus,
        nic_units,
        extra_hw,
        breakdown,
    }
}

/// One Fig 16 design point: the throughput multiplier an interconnect
/// upgrade unlocks for the mix, and the matched-performance TCO of each
/// design.
#[derive(Debug, Clone, PartialEq)]
pub struct UpgradeStudy {
    /// Technology evaluated.
    pub tech: NetworkTech,
    /// Workload-wide throughput multiplier over the PCIe v3/10GbE
    /// disaggregated baseline.
    pub perf_improvement: f64,
    /// TCO of each design scaled to match that performance (CPU-only is
    /// priced with the baseline network, per the paper).
    pub cpu_only: ProvisionResult,
    /// Matched integrated design with the upgraded interconnect.
    pub integrated: ProvisionResult,
    /// Matched disaggregated design with the upgraded network.
    pub disaggregated: ProvisionResult,
}

/// Runs the Fig 16 exercise for a workload composed entirely of `mix`.
pub fn network_upgrade_study(
    mix: Mix,
    tech: &NetworkTech,
    db: &AppPerfDb,
    params: &TcoParams,
) -> UpgradeStudy {
    let baseline = NetworkTech::pcie_v3_10gbe();
    // Per-app improvement: how much more a 12-GPU disaggregated box
    // delivers once the network stops capping it.
    let apps = mix.apps();
    let mut improvement = 0.0;
    for &app in apps {
        let p = db.get(app);
        let q = |t: &NetworkTech| {
            (GPUS_PER_BOX * p.qps_per_gpu)
                .min(t.external_gbps * 1e9 / p.bytes_per_query)
                .min(t.messages_per_sec)
        };
        improvement += q(tech) / q(&baseline);
    }
    improvement /= apps.len() as f64;

    // Scale every design to the improved throughput: the CPU-only and
    // integrated WSCs grow by the same factor (the paper scales servers
    // roughly in proportion for CPU-only).
    let scale = |mut r: ProvisionResult, factor: f64| {
        r.beefy_servers *= factor;
        r.wimpy_servers *= factor;
        r.gpus *= factor;
        r.nic_units *= factor;
        r.extra_hw *= factor;
        r.breakdown = CostBreakdown::from_bom(
            params,
            r.beefy_servers,
            r.wimpy_servers,
            r.gpus,
            r.nic_units,
            r.extra_hw,
        );
        r
    };
    let cpu_only = scale(
        provision(WscDesign::CpuOnly, mix, 1.0, db, &baseline, params),
        improvement,
    );
    let integrated = provision(WscDesign::IntegratedGpu, mix, 1.0, db, tech, params);
    let integrated = scale(
        integrated,
        improvement_ratio_for_design(improvement, tech, db, mix),
    );
    let disaggregated = provision_scaled_disagg(mix, improvement, db, tech, params);
    UpgradeStudy {
        tech: tech.clone(),
        perf_improvement: improvement,
        cpu_only,
        integrated,
        disaggregated,
    }
}

/// The integrated design at an upgraded interconnect serves the higher
/// target directly; its server count already reflects the better feed
/// bandwidth, so the residual scale factor is the target growth divided
/// by the per-server capability growth.
fn improvement_ratio_for_design(
    improvement: f64,
    tech: &NetworkTech,
    db: &AppPerfDb,
    mix: Mix,
) -> f64 {
    let baseline = NetworkTech::pcie_v3_10gbe();
    let apps = mix.apps();
    let mut cap_growth = 0.0;
    for &app in apps {
        cap_growth +=
            integrated_server_qps(app, db, tech) / integrated_server_qps(app, db, &baseline);
    }
    cap_growth /= apps.len() as f64;
    improvement / cap_growth
}

/// Disaggregated design provisioned for `improvement ×` the baseline
/// target under the upgraded network.
fn provision_scaled_disagg(
    mix: Mix,
    improvement: f64,
    db: &AppPerfDb,
    tech: &NetworkTech,
    params: &TcoParams,
) -> ProvisionResult {
    let mut r = provision(WscDesign::DisaggregatedGpu, mix, 1.0, db, tech, params);
    // Targets grew by `improvement`; re-size the BOM linearly.
    r.wimpy_servers *= improvement;
    r.gpus *= improvement;
    r.nic_units *= improvement;
    r.breakdown = CostBreakdown::from_bom(
        params,
        r.beefy_servers,
        r.wimpy_servers,
        r.gpus,
        r.nic_units,
        r.extra_hw,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn db() -> &'static AppPerfDb {
        static DB: OnceLock<AppPerfDb> = OnceLock::new();
        DB.get_or_init(|| AppPerfDb::build().unwrap())
    }

    fn ratio(design: WscDesign, mix: Mix, f: f64) -> f64 {
        let tech = NetworkTech::pcie_v3_10gbe();
        let params = TcoParams::paper();
        let cpu = provision(WscDesign::CpuOnly, mix, f, db(), &tech, &params);
        let other = provision(design, mix, f, db(), &tech, &params);
        cpu.tco_total() / other.tco_total()
    }

    #[test]
    fn mixed_workload_gpu_designs_win_big() {
        // Fig 15a: up to ~20x for the disaggregated design.
        let r = ratio(WscDesign::DisaggregatedGpu, Mix::Mixed, 1.0);
        assert!((4.0..40.0).contains(&r), "MIXED disaggregated gain {r}");
        let ri = ratio(WscDesign::IntegratedGpu, Mix::Mixed, 1.0);
        assert!(ri > 2.0, "MIXED integrated gain {ri}");
    }

    #[test]
    fn nlp_workload_gains_are_modest() {
        // Fig 15c: NLP maxes out around 4x because PCIe/network bandwidth
        // strands GPU capability.
        let r = ratio(WscDesign::DisaggregatedGpu, Mix::Nlp, 1.0);
        assert!((3.0..12.0).contains(&r), "NLP disaggregated gain {r}");
        let mixed = ratio(WscDesign::DisaggregatedGpu, Mix::Mixed, 1.0);
        assert!(mixed > r, "MIXED {mixed} must beat NLP {r}");
    }

    #[test]
    fn gains_shrink_toward_zero_dnn_share() {
        let hi = ratio(WscDesign::DisaggregatedGpu, Mix::Mixed, 0.9);
        let lo = ratio(WscDesign::DisaggregatedGpu, Mix::Mixed, 0.1);
        assert!(hi > lo, "hi {hi} lo {lo}");
        let near_zero = ratio(WscDesign::DisaggregatedGpu, Mix::Mixed, 0.001);
        assert!((0.9..1.2).contains(&near_zero), "f→0 ratio {near_zero}");
    }

    #[test]
    fn disaggregated_beats_integrated_for_nlp() {
        // Fig 15c: the integrated design strands most of its 12 GPUs on
        // bandwidth-bound NLP services.
        let tech = NetworkTech::pcie_v3_10gbe();
        let params = TcoParams::paper();
        let int = provision(
            WscDesign::IntegratedGpu,
            Mix::Nlp,
            1.0,
            db(),
            &tech,
            &params,
        );
        let dis = provision(
            WscDesign::DisaggregatedGpu,
            Mix::Nlp,
            1.0,
            db(),
            &tech,
            &params,
        );
        assert!(
            dis.tco_total() < int.tco_total(),
            "disagg {} vs integrated {}",
            dis.tco_total(),
            int.tco_total()
        );
        // And it does so with fewer GPUs.
        assert!(dis.gpus < int.gpus);
    }

    #[test]
    fn image_mix_integrated_catches_up() {
        // Fig 15b: for the IMAGE workload the integrated design closes the
        // gap (and crosses over) because image services use all 12 GPUs.
        let gap = |mix: Mix| {
            let tech = NetworkTech::pcie_v3_10gbe();
            let params = TcoParams::paper();
            let int = provision(WscDesign::IntegratedGpu, mix, 1.0, db(), &tech, &params);
            let dis = provision(WscDesign::DisaggregatedGpu, mix, 1.0, db(), &tech, &params);
            int.tco_total() / dis.tco_total()
        };
        assert!(
            gap(Mix::Image) < gap(Mix::Nlp),
            "IMAGE int/dis {} should be closer to 1 than NLP {}",
            gap(Mix::Image),
            gap(Mix::Nlp)
        );
    }

    #[test]
    fn network_upgrades_unlock_nlp_throughput() {
        // Fig 16b: improved bandwidth recovers large NLP performance with
        // modest TCO growth in the GPU designs.
        let params = TcoParams::paper();
        let v4 = network_upgrade_study(Mix::Nlp, &NetworkTech::pcie_v4_40gbe(), db(), &params);
        let qpi = network_upgrade_study(Mix::Nlp, &NetworkTech::qpi_400gbe(), db(), &params);
        assert!(v4.perf_improvement > 1.5, "v4 {}", v4.perf_improvement);
        assert!(
            qpi.perf_improvement > v4.perf_improvement,
            "qpi {} vs v4 {}",
            qpi.perf_improvement,
            v4.perf_improvement
        );
        // CPU-only must scale its cost roughly with performance…
        let base = provision(
            WscDesign::CpuOnly,
            Mix::Nlp,
            1.0,
            db(),
            &NetworkTech::pcie_v3_10gbe(),
            &params,
        );
        let cpu_growth = qpi.cpu_only.tco_total() / base.tco_total();
        assert!(cpu_growth > qpi.perf_improvement * 0.8);
        // …while the disaggregated design grows far more slowly.
        let dis_base = provision(
            WscDesign::DisaggregatedGpu,
            Mix::Nlp,
            1.0,
            db(),
            &NetworkTech::pcie_v3_10gbe(),
            &params,
        );
        let dis_growth = qpi.disaggregated.tco_total() / dis_base.tco_total();
        assert!(
            dis_growth < cpu_growth * 0.7,
            "disagg growth {dis_growth} vs cpu {cpu_growth}"
        );
    }
}
