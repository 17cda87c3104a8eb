//! The total-cost-of-ownership model (paper Table 4), following the
//! Barroso et al. methodology: hardware + facility capital expenditures
//! with financing, plus power and operations over the server lifetime.

/// Cost factors (paper Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct TcoParams {
    /// 300 W GPU-capable (beefy) server, dollars.
    pub beefy_server_cost: f64,
    /// Beefy server power, watts.
    pub beefy_server_w: f64,
    /// High-end 240 W GPU, dollars.
    pub gpu_cost: f64,
    /// GPU power, watts.
    pub gpu_w: f64,
    /// 75 W wimpy server, dollars.
    pub wimpy_server_cost: f64,
    /// Wimpy server power, watts.
    pub wimpy_server_w: f64,
    /// Networking equipment, dollars per 10GbE NIC (switch share folded
    /// in, per the paper's 500-leaf-node estimate).
    pub nic_cost: f64,
    /// WSC capital expenditure, dollars per watt of capacity.
    pub facility_capex_per_w: f64,
    /// Operational expenditure, dollars per watt per month.
    pub opex_per_w_month: f64,
    /// Power usage efficiency.
    pub pue: f64,
    /// Electricity, dollars per kWh.
    pub electricity_per_kwh: f64,
    /// Annual interest rate on capital expenditures.
    pub interest_rate: f64,
    /// Server lifetime and loan amortization period, months.
    pub lifetime_months: f64,
    /// Server maintenance/operations, fraction of monthly hardware
    /// amortization per month.
    pub maintenance_monthly: f64,
}

impl TcoParams {
    /// The paper's Table 4 values.
    pub fn paper() -> Self {
        TcoParams {
            beefy_server_cost: 6864.0,
            beefy_server_w: 300.0,
            gpu_cost: 3314.0,
            gpu_w: 240.0,
            wimpy_server_cost: 1716.0,
            wimpy_server_w: 75.0,
            nic_cost: 750.0,
            facility_capex_per_w: 10.0,
            opex_per_w_month: 0.04,
            pue: 1.1,
            electricity_per_kwh: 0.067,
            interest_rate: 0.08,
            lifetime_months: 36.0,
            maintenance_monthly: 0.05,
        }
    }

    /// Financing multiplier: total paid over the amortization period per
    /// dollar borrowed (standard annuity at the Table 4 interest rate).
    pub fn financing_factor(&self) -> f64 {
        let r = self.interest_rate / 12.0;
        let n = self.lifetime_months;
        if r == 0.0 {
            return 1.0;
        }
        let monthly = r * (1.0 + r).powf(n) / ((1.0 + r).powf(n) - 1.0);
        monthly * n
    }
}

impl Default for TcoParams {
    fn default() -> Self {
        TcoParams::paper()
    }
}

/// A WSC bill of materials and its lifetime cost decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Server chassis capex (beefy + wimpy), dollars.
    pub servers: f64,
    /// GPU capex, dollars.
    pub gpus: f64,
    /// Networking capex (NICs + switch share), dollars.
    pub network: f64,
    /// Facility capex ($/W of provisioned power), dollars.
    pub facility: f64,
    /// Lifetime electricity + per-watt opex, dollars.
    pub power_opex: f64,
    /// Lifetime maintenance, dollars.
    pub maintenance: f64,
}

impl CostBreakdown {
    /// Builds the lifetime cost from a bill of materials.
    ///
    /// `beefy`/`wimpy`/`gpus`/`nics` are unit counts (fractional units are
    /// allowed — the provisioning model works in continuous capacity);
    /// `extra_hw` is additional hardware capex such as interconnect
    /// upgrades.
    pub fn from_bom(
        params: &TcoParams,
        beefy: f64,
        wimpy: f64,
        gpus: f64,
        nics: f64,
        extra_hw: f64,
    ) -> Self {
        let fin = params.financing_factor();
        let servers =
            (beefy * params.beefy_server_cost + wimpy * params.wimpy_server_cost + extra_hw) * fin;
        let gpus_cost = gpus * params.gpu_cost * fin;
        let network = nics * params.nic_cost * fin;
        let watts =
            beefy * params.beefy_server_w + wimpy * params.wimpy_server_w + gpus * params.gpu_w;
        let facility = watts * params.pue * params.facility_capex_per_w * fin;
        let kwh_lifetime = watts * params.pue / 1000.0 * 24.0 * 30.4 * params.lifetime_months;
        let power_opex = kwh_lifetime * params.electricity_per_kwh
            + watts * params.opex_per_w_month * params.lifetime_months;
        let hw = beefy * params.beefy_server_cost
            + wimpy * params.wimpy_server_cost
            + gpus * params.gpu_cost
            + nics * params.nic_cost
            + extra_hw;
        let maintenance =
            hw / params.lifetime_months * params.maintenance_monthly * params.lifetime_months;
        CostBreakdown {
            servers,
            gpus: gpus_cost,
            network,
            facility,
            power_opex,
            maintenance,
        }
    }

    /// Total lifetime cost, dollars.
    pub fn total(&self) -> f64 {
        self.servers + self.gpus + self.network + self.facility + self.power_opex + self.maintenance
    }

    /// Component-wise sum of two breakdowns.
    pub fn add(&self, other: &CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            servers: self.servers + other.servers,
            gpus: self.gpus + other.gpus,
            network: self.network + other.network,
            facility: self.facility + other.facility,
            power_opex: self.power_opex + other.power_opex,
            maintenance: self.maintenance + other.maintenance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn financing_factor_is_reasonable() {
        let p = TcoParams::paper();
        let f = p.financing_factor();
        // 8% APR over 3 years costs ~13% extra.
        assert!((1.10..1.16).contains(&f), "financing factor {f}");
    }

    #[test]
    fn breakdown_total_sums_components() {
        let p = TcoParams::paper();
        let b = CostBreakdown::from_bom(&p, 10.0, 2.0, 24.0, 32.0, 1000.0);
        let total = b.servers + b.gpus + b.network + b.facility + b.power_opex + b.maintenance;
        assert!((b.total() - total).abs() < 1e-9);
        assert!(b.total() > 0.0);
    }

    #[test]
    fn gpus_dominate_an_all_gpu_bom() {
        let p = TcoParams::paper();
        let b = CostBreakdown::from_bom(&p, 1.0, 0.0, 12.0, 0.0, 0.0);
        assert!(b.gpus > b.servers);
    }

    #[test]
    fn power_costs_scale_with_watts() {
        let p = TcoParams::paper();
        let small = CostBreakdown::from_bom(&p, 1.0, 0.0, 0.0, 0.0, 0.0);
        let large = CostBreakdown::from_bom(&p, 10.0, 0.0, 0.0, 0.0, 0.0);
        assert!((large.power_opex / small.power_opex - 10.0).abs() < 1e-6);
    }

    #[test]
    fn zero_interest_means_no_financing_markup() {
        let p = TcoParams {
            interest_rate: 0.0,
            ..TcoParams::paper()
        };
        assert_eq!(p.financing_factor(), 1.0);
    }
}
