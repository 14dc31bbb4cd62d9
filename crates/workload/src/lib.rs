//! # ups-workload — traffic generation for the UPS evaluation
//!
//! The paper's workload model (§2.3): "Each end host generates UDP flows
//! using a Poisson inter-arrival model ... The flow sizes are picked from
//! a heavy-tailed distribution [4, 5]", scaled to a target core-link
//! utilization (10–90% across Table 1).
//!
//! * [`dist`] — flow-size distributions (bounded Pareto, empirical
//!   web-search / data-mining CDFs) and exponential inter-arrivals,
//! * [`flows`] — Poisson flow generation over host pairs with
//!   routing-matrix-based utilization calibration, plus Figure 4's
//!   long-lived flows,
//! * [`udp`] — open-loop packetization (NIC-paced packet trains),
//! * [`registry`] — enumerable named workload profiles + the shared
//!   calibrated-train builders the benches and `ups-sweep` grids use.
//!
//! Everything is seeded and deterministic; the same [`flows::FlowSpec`]
//! list drives both runs of a replay pair.

#![warn(missing_docs)]

pub mod dist;
pub mod flows;
pub mod registry;
pub mod udp;

pub use dist::{BoundedPareto, Empirical, Exponential, Fixed, SizeDist};
pub use flows::{calibrate_flow_rate, long_lived_flows, FlowSpec, PoissonWorkload};
pub use registry::{profile_by_name, profile_names, CalibratedTrain, WorkloadProfile, PROFILES};
pub use udp::{
    flows_with_floor, total_bytes, train_packets, udp_packet_stream, udp_packet_train, MTU,
};
