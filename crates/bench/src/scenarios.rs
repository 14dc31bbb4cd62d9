//! The Table 1 scenario matrix, the paper's reference numbers, and the
//! workload/calibration setup shared by the figure and throughput
//! benches (previously copy-pasted per bench target).

use ups_netsim::prelude::Dur;
use ups_sweep::runner::assignment_for;
use ups_topology::{fattree, i2_default, topology_by_name, FatTreeParams, Topology};
use ups_workload::{profile_by_name, CalibratedTrain};

use crate::replay_exp::ReplayScenario;
use crate::scale::Scale;

/// The common preamble of the objective figures (2, 3, 4): the default
/// Internet2, the `UPS_SCALE` knobs, and the fixed workload seed every
/// committed figure uses.
pub struct FigureSetup {
    /// The paper's default evaluation network.
    pub topo: Topology,
    /// Quick vs. paper-scale durations.
    pub scale: Scale,
    /// The evaluation's fixed workload seed.
    pub seed: u64,
}

/// One shared constructor instead of three copy-pasted ones — Figure 2,
/// Figure 3 and any future objective bench start from here.
pub fn figure_setup() -> FigureSetup {
    FigureSetup {
        topo: i2_default(),
        scale: Scale::from_env(),
        seed: 42,
    }
}

/// The reference fat-tree workload of the engine benchmarks: web-search
/// sizes at 70% core utilization, window grown until the UDP train
/// clears `min_packets` (the throughput bench's calibration loop, now
/// shared through `ups_workload::registry`).
pub fn fattree_throughput_workload(
    utilization: f64,
    min_packets: usize,
    seed: u64,
) -> (Topology, CalibratedTrain) {
    let topo = fattree(FatTreeParams::default());
    let train = profile_by_name("web-search")
        .expect("web-search is registered")
        .udp_train_with_floor(&topo, utilization, min_packets, Dur::from_ms(4), seed);
    (topo, train)
}

/// The paper's Table 1 values for side-by-side reporting:
/// (topology, utilization, scheduler, frac overdue, frac overdue > T).
pub const PAPER_TABLE1: [(&str, f64, &str, f64, f64); 13] = [
    ("I2:1Gbps-10Gbps", 0.7, "Random", 0.0021, 0.0002),
    ("I2:1Gbps-10Gbps", 0.1, "Random", 0.0007, 0.0),
    ("I2:1Gbps-10Gbps", 0.3, "Random", 0.0281, 0.0017),
    ("I2:1Gbps-10Gbps", 0.5, "Random", 0.0221, 0.0002),
    ("I2:1Gbps-10Gbps", 0.9, "Random", 0.0008, 0.000004),
    ("I2:1Gbps-1Gbps", 0.7, "Random", 0.0204, 0.000008),
    ("I2:10Gbps-10Gbps", 0.7, "Random", 0.0631, 0.0448),
    ("RocketFuel", 0.7, "Random", 0.0246, 0.0063),
    ("Datacenter", 0.7, "Random", 0.0164, 0.0154),
    ("I2:1Gbps-10Gbps", 0.7, "FIFO", 0.0143, 0.0006),
    ("I2:1Gbps-10Gbps", 0.7, "FQ", 0.0271, 0.0002),
    ("I2:1Gbps-10Gbps", 0.7, "SJF", 0.1833, 0.0019),
    ("I2:1Gbps-10Gbps", 0.7, "LIFO", 0.1477, 0.0067),
];

/// Paper Table 1 also has the FQ/FIFO+ mixed row.
pub const PAPER_FQ_FIFOPLUS: (f64, f64) = (0.0152, 0.0004);

/// The default network's row label — its registry name.
const I2_DEFAULT: &str = "I2:1Gbps-10Gbps";

/// One row by its Table 1 labels. Scheduler labels are the sweep
/// engine's; topology labels are registry names, except the one
/// bench-side mapping: `Datacenter` is the paper's pFabric fat-tree, sized
/// by `fattree_k` (k=4 for quick runs, k=8 for full).
fn scenario(
    (topology_label, utilization, sched_label): (&'static str, f64, &'static str),
    window: Dur,
    seed: u64,
    fattree_k: usize,
) -> ReplayScenario {
    let topo = match topology_label {
        "Datacenter" => topology_by_name(&format!("FatTree(k={fattree_k})")),
        registered => topology_by_name(registered),
    }
    .unwrap_or_else(|| panic!("unknown topology label {topology_label:?}"));
    let assign = assignment_for(&topo, sched_label)
        .unwrap_or_else(|| panic!("unknown scheduler label {sched_label:?}"));
    ReplayScenario {
        topology_label,
        topo,
        utilization,
        sched_label,
        assign,
        window,
        seed,
    }
}

/// Materialize the full Table 1 scenario list (13 uniform rows + the
/// FQ/FIFO+ mix).
pub fn table1_scenarios(window: Dur, seed: u64, fattree_k: usize) -> Vec<ReplayScenario> {
    PAPER_TABLE1
        .iter()
        .map(|&(topo, util, sched, _, _)| (topo, util, sched))
        .chain([(I2_DEFAULT, 0.7, "FQ/FIFO+")])
        .map(|row| scenario(row, window, seed, fattree_k))
        .collect()
}

/// The Figure 1 scenario list: the six disciplines on the default
/// topology at 70%.
pub fn fig1_scenarios(window: Dur, seed: u64) -> Vec<ReplayScenario> {
    ["Random", "FIFO", "FQ", "SJF", "LIFO", "FQ/FIFO+"]
        .into_iter()
        .map(|sched| scenario((I2_DEFAULT, 0.7, sched), window, seed, 4))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_fourteen_rows() {
        let scenarios = table1_scenarios(Dur::from_ms(1), 1, 4);
        assert_eq!(scenarios.len(), 14);
        // Utilization sweep present.
        let utils: Vec<f64> = scenarios
            .iter()
            .filter(|s| s.sched_label == "Random" && s.topology_label == "I2:1Gbps-10Gbps")
            .map(|s| s.utilization)
            .collect();
        assert_eq!(utils, vec![0.7, 0.1, 0.3, 0.5, 0.9]);
    }

    #[test]
    fn fig1_covers_six_disciplines() {
        let scenarios = fig1_scenarios(Dur::from_ms(1), 1);
        assert_eq!(scenarios.len(), 6);
        assert!(scenarios.iter().any(|s| s.sched_label == "FQ/FIFO+"));
    }

    #[test]
    #[should_panic(expected = "unknown scheduler")]
    fn unknown_scheduler_rejected() {
        let _ = scenario((I2_DEFAULT, 0.7, "WFQ2"), Dur::from_ms(1), 1, 4);
    }
}
