//! Serving-tier provisioning: turns *measured* `djinn-router` and
//! replica throughput into a warehouse-scale bill of materials and its
//! lifetime cost.
//!
//! The paper's §6 study provisions compute from per-model device
//! throughput; this module adds the tier the scale-out router makes
//! real: given what one replica and one router process actually sustain
//! (from `results/router_bench.txt`, not a model), how many of each does
//! a target aggregate load need, and what does that tier cost over the
//! server lifetime?
//!
//! The mapping to the paper's Table 4 hardware classes: a **replica** is
//! a beefy server (optionally with GPUs — the paper's DjiNN instances
//! are GPU-backed), a **router** is a wimpy server (it only shuffles
//! frames; the measured forwarding path is memcpy + an 8-byte ID patch,
//! no DNN math), and every box gets a 10GbE NIC with its share of the
//! switch folded in.

use crate::tco::{CostBreakdown, TcoParams};

/// Measured single-process throughput of the two serving-tier roles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingTierMeasurement {
    /// Saturated throughput of one replica, requests/second.
    pub replica_rps: f64,
    /// Forwarding capacity of one router process, requests/second.
    pub router_rps: f64,
}

/// A provisioned serving tier: how many replicas and routers a target
/// load needs, and what the fleet costs over the TCO lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingTierPlan {
    /// Aggregate load the tier is provisioned for, requests/second.
    pub target_rps: f64,
    /// Planned utilization of each box at the target load (provisioning
    /// at 1.0 leaves no headroom for skew, failures, or diurnal peaks).
    pub utilization: f64,
    /// Replica count (fractional — continuous-capacity planning, like
    /// the §6 study).
    pub replicas: f64,
    /// Router count.
    pub routers: f64,
    /// GPUs attached to each replica.
    pub gpus_per_replica: f64,
    /// Lifetime cost of the tier.
    pub cost: CostBreakdown,
}

impl ServingTierPlan {
    /// Provisions a serving tier for `target_rps`, planning each box at
    /// `utilization` of its measured capacity.
    ///
    /// # Panics
    ///
    /// Panics if either measured throughput or `utilization` is not
    /// positive — a plan built from an unmeasured tier is meaningless.
    pub fn provision(
        params: &TcoParams,
        measured: &ServingTierMeasurement,
        target_rps: f64,
        utilization: f64,
        gpus_per_replica: f64,
    ) -> Self {
        assert!(
            measured.replica_rps > 0.0 && measured.router_rps > 0.0,
            "serving-tier capacities must be measured, positive numbers"
        );
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must be in (0, 1]"
        );
        let replicas = target_rps / (measured.replica_rps * utilization);
        let routers = target_rps / (measured.router_rps * utilization);
        let gpus = replicas * gpus_per_replica;
        // Replicas are beefy servers, routers wimpy; one NIC per box.
        let cost =
            CostBreakdown::from_bom(params, replicas, routers, gpus, replicas + routers, 0.0);
        ServingTierPlan {
            target_rps,
            utilization,
            replicas,
            routers,
            gpus_per_replica,
            cost,
        }
    }

    /// Lifetime cost per million served requests, assuming the tier runs
    /// at its target load for the whole TCO lifetime.
    pub fn cost_per_million_requests(&self, params: &TcoParams) -> f64 {
        let lifetime_secs = params.lifetime_months * 30.4 * 24.0 * 3600.0;
        let served = self.target_rps * lifetime_secs;
        self.cost.total() / (served / 1e6)
    }

    /// Replicas per router — how much compute one front-end process
    /// fronts. Below ~1 the router is the bottleneck of its own tier.
    pub fn replicas_per_router(&self) -> f64 {
        self.replicas / self.routers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured() -> ServingTierMeasurement {
        ServingTierMeasurement {
            replica_rps: 2_500.0,
            router_rps: 20_000.0,
        }
    }

    #[test]
    fn provisioning_scales_linearly_with_target_load() {
        let p = TcoParams::paper();
        let small = ServingTierPlan::provision(&p, &measured(), 10_000.0, 0.7, 1.0);
        let large = ServingTierPlan::provision(&p, &measured(), 100_000.0, 0.7, 1.0);
        assert!((large.replicas / small.replicas - 10.0).abs() < 1e-9);
        assert!((large.routers / small.routers - 10.0).abs() < 1e-9);
        assert!(large.cost.total() > 9.0 * small.cost.total());
        // Cost per request is scale-free in the continuous model.
        let small_cpm = small.cost_per_million_requests(&p);
        let large_cpm = large.cost_per_million_requests(&p);
        assert!((small_cpm / large_cpm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn faster_routers_mean_fewer_routers_than_replicas() {
        let p = TcoParams::paper();
        let plan = ServingTierPlan::provision(&p, &measured(), 50_000.0, 0.7, 1.0);
        // Router forwards 8x what a replica serves, so the fleet needs
        // 8x fewer routers.
        assert!((plan.replicas_per_router() - 8.0).abs() < 1e-9);
        assert!(plan.routers < plan.replicas);
    }

    #[test]
    fn headroom_costs_hardware() {
        let p = TcoParams::paper();
        let tight = ServingTierPlan::provision(&p, &measured(), 50_000.0, 1.0, 1.0);
        let slack = ServingTierPlan::provision(&p, &measured(), 50_000.0, 0.5, 1.0);
        assert!((slack.replicas / tight.replicas - 2.0).abs() < 1e-9);
        assert!(slack.cost.total() > tight.cost.total());
    }

    #[test]
    fn cpu_only_replicas_carry_no_gpu_cost() {
        let p = TcoParams::paper();
        let cpu = ServingTierPlan::provision(&p, &measured(), 50_000.0, 0.7, 0.0);
        let gpu = ServingTierPlan::provision(&p, &measured(), 50_000.0, 0.7, 1.0);
        assert_eq!(cpu.cost.gpus, 0.0);
        assert!(gpu.cost.gpus > 0.0);
        assert!(gpu.cost.total() > cpu.cost.total());
    }
}
