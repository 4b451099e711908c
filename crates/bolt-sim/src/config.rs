//! Simulator configuration presets.

/// Geometry and latency parameters of the modeled CPU front end.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    pub line_bytes: u64,
    pub page_bytes: u64,
    pub l1i_bytes: u64,
    pub l1i_ways: usize,
    pub l1d_bytes: u64,
    pub l1d_ways: usize,
    pub l2_bytes: u64,
    pub l2_ways: usize,
    pub llc_bytes: u64,
    pub llc_ways: usize,
    pub itlb_entries: u64,
    pub itlb_ways: usize,
    pub dtlb_entries: u64,
    pub dtlb_ways: usize,
    pub predictor_history_bits: u32,
    pub btb_entries: usize,
    /// Base cycles per instruction with a perfect front end.
    pub base_cpi: f64,
    pub branch_miss_latency: f64,
    /// Front-end redirect cost for a taken branch missing in the BTB.
    pub btb_miss_latency: f64,
    pub l2_latency: f64,
    pub llc_latency: f64,
    pub mem_latency: f64,
    pub tlb_miss_latency: f64,
}

impl SimConfig {
    /// An IvyBridge-class server core (the paper's evaluation hardware,
    /// section 6.2.1), with capacities scaled to the reproduction's
    /// binary sizes so the baseline workloads are front-end bound the way
    /// a 100+ MB data-center binary is on real 32 KiB L1I hardware.
    pub fn server() -> SimConfig {
        SimConfig {
            line_bytes: 64,
            page_bytes: 4096,
            l1i_bytes: 16 << 10,
            l1i_ways: 8,
            l1d_bytes: 32 << 10,
            l1d_ways: 8,
            l2_bytes: 128 << 10,
            l2_ways: 8,
            llc_bytes: 2 << 20,
            llc_ways: 16,
            itlb_entries: 16,
            itlb_ways: 4,
            dtlb_entries: 32,
            dtlb_ways: 4,
            predictor_history_bits: 12,
            btb_entries: 1024,
            base_cpi: 0.3,
            branch_miss_latency: 14.0,
            btb_miss_latency: 5.0,
            l2_latency: 10.0,
            llc_latency: 26.0,
            mem_latency: 170.0,
            tlb_miss_latency: 30.0,
        }
    }

    /// A tiny configuration for unit tests (fast, very sensitive to
    /// locality).
    pub fn small() -> SimConfig {
        SimConfig {
            l1i_bytes: 2 << 10,
            l1d_bytes: 2 << 10,
            l2_bytes: 8 << 10,
            llc_bytes: 64 << 10,
            itlb_entries: 8,
            dtlb_entries: 8,
            btb_entries: 64,
            predictor_history_bits: 8,
            ..SimConfig::server()
        }
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig::server()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        for cfg in [SimConfig::server(), SimConfig::small()] {
            assert!(cfg.l1i_bytes.is_power_of_two());
            assert!(cfg.llc_bytes > cfg.l2_bytes);
            assert!(cfg.l2_bytes > cfg.l1i_bytes);
            assert!(cfg.mem_latency > cfg.llc_latency);
            // `CpuModel::on_block` adds an event's penalties in a
            // different order than the per-instruction replay does; the
            // `f64` sum is the same in any order only because every
            // penalty is a whole number of cycles.
            for latency in [
                cfg.branch_miss_latency,
                cfg.btb_miss_latency,
                cfg.l2_latency,
                cfg.llc_latency,
                cfg.mem_latency,
                cfg.tlb_miss_latency,
            ] {
                assert_eq!(latency.fract(), 0.0, "{latency} is not a whole cycle count");
            }
        }
    }
}
