//! Interconnect and network technology configurations (paper Table 6).

/// One CPU↔GPU interconnect + server-network design point.
///
/// `internal_gbps` is the aggregate bandwidth available to feed a server's
/// GPUs (the PCIe complex or QPI links); `external_gbps` is the server's
/// network attachment, already derated by the paper's 20% ethernet
/// protocol overhead assumption.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTech {
    /// Display name.
    pub name: String,
    /// Aggregate CPU→GPU feed bandwidth per server, GB/s.
    pub internal_gbps: f64,
    /// Effective server network bandwidth, GB/s.
    pub external_gbps: f64,
    /// NICs per network-attached device (each priced at the Table 4
    /// per-NIC estimate, scaled by `nic_price_factor`).
    pub nics_per_device: f64,
    /// Price of one of this generation's NICs relative to a 10GbE NIC.
    pub nic_price_factor: f64,
    /// Extra per-server hardware cost of the interconnect upgrade,
    /// dollars (PCIe v4 retimers / QPI fabric, the paper's projections).
    pub server_extra_cost: f64,
    /// Sustainable request messages per second per device: the paper-era
    /// kernel network stack bounds small-payload services (NLP's 38-75 KB
    /// queries) well before link bytes do. Later generations assume
    /// offload/kernel-bypass improvements.
    pub messages_per_sec: f64,
}

impl NetworkTech {
    /// Baseline: PCIe v3 ×16 GPUs and 16 teamed 10GbE NICs per device
    /// (16 × 1.25 GB/s × 80% = 16 GB/s effective).
    pub fn pcie_v3_10gbe() -> Self {
        NetworkTech {
            name: "PCIeV3/10GbE".into(),
            internal_gbps: 20.0,
            external_gbps: 16.0,
            nics_per_device: 16.0,
            nic_price_factor: 1.0,
            server_extra_cost: 0.0,
            messages_per_sec: 150e3,
        }
    }

    /// Cutting edge: PCIe v4 (31.75 GB/s per link, doubled host complex)
    /// and 9 teamed 40GbE connections (9 × 5 GB/s × 80% = 36 GB/s).
    pub fn pcie_v4_40gbe() -> Self {
        NetworkTech {
            name: "PCIeV4/40GbE".into(),
            internal_gbps: 40.0,
            external_gbps: 36.0,
            nics_per_device: 9.0,
            nic_price_factor: 2.0,
            server_extra_cost: 500.0,
            messages_per_sec: 300e3,
        }
    }

    /// Near future: QPI links to the GPUs (12 × 25.6 GB/s = 307.2 GB/s)
    /// and 8 teamed 400GbE connections (8 × 50 GB/s × 80% = 320 GB/s).
    pub fn qpi_400gbe() -> Self {
        NetworkTech {
            name: "QPI/400GbE".into(),
            internal_gbps: 307.2,
            external_gbps: 320.0,
            nics_per_device: 8.0,
            nic_price_factor: 4.0,
            server_extra_cost: 2000.0,
            messages_per_sec: 650e3,
        }
    }

    /// The three Table 6 design points in ascending capability.
    pub fn all() -> Vec<NetworkTech> {
        vec![
            NetworkTech::pcie_v3_10gbe(),
            NetworkTech::pcie_v4_40gbe(),
            NetworkTech::qpi_400gbe(),
        ]
    }

    /// Network cost per network-attached device in 10GbE-NIC units.
    pub fn nic_units_per_device(&self) -> f64 {
        self.nics_per_device * self.nic_price_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_and_price_both_ascend() {
        let all = NetworkTech::all();
        for pair in all.windows(2) {
            assert!(pair[1].external_gbps > pair[0].external_gbps);
            assert!(pair[1].internal_gbps > pair[0].internal_gbps);
            assert!(pair[1].messages_per_sec > pair[0].messages_per_sec);
            assert!(
                pair[1].nic_units_per_device() + pair[1].server_extra_cost / 750.0
                    > pair[0].nic_units_per_device()
            );
        }
    }

    #[test]
    fn baseline_matches_paper_footnote() {
        // Footnote 1: 16 x 1.25 GB/s at 80% of theoretical peak = 16 GB/s.
        let t = NetworkTech::pcie_v3_10gbe();
        assert!((t.external_gbps - 16.0).abs() < 1e-9);
    }

    #[test]
    fn qpi_matches_table6_aggregate() {
        // 12 QPI links x 25.6 GB/s = 307.2 GB/s.
        let t = NetworkTech::qpi_400gbe();
        assert!((t.internal_gbps - 307.2).abs() < 1e-9);
    }
}
