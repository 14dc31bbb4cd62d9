//! # ups-topology — network graphs, routing and `tmin` for the UPS paper
//!
//! Every topology the paper's evaluation touches:
//!
//! * [`internet2`](mod@internet2) — the simplified 10-router/16-link Internet2 backbone
//!   with the three bandwidth variants of Table 1 and the Figure 4
//!   fairness variant,
//! * [`rocketfuel`](mod@rocketfuel) — a seeded 83-router/131-link ISP-like backbone
//!   (substitution for the unredistributable RocketFuel map; DESIGN.md §4),
//! * [`fattree`](mod@fattree) — the full-bisection datacenter fat-tree of pFabric,
//! * [`micro`] — chains, dumbbells and the exact counterexample networks
//!   of Appendix C (Fig. 5), F (Fig. 6) and G.3 (Fig. 7),
//!
//! plus hop-count [`routing`] with deterministic tie-breaks and the
//! `tmin(p, α, β)` minimum-transit computation that LSTF slack
//! initialization and EDF local deadlines are built on, [`build`] to
//! stamp a `ups_netsim::Simulator` out of any topology + scheduler
//! assignment, and the enumerable [`registry`] of named topologies the
//! `ups-sweep` grids reference.

#![warn(missing_docs)]

pub mod build;
pub mod fattree;
pub mod graph;
pub mod internet2;
pub mod micro;
pub mod registry;
pub mod rocketfuel;
pub mod routing;

pub use build::{build_simulator, BuildOptions, SchedulerAssignment};
pub use fattree::{fattree, fattree_default, FatTreeParams};
pub use graph::{LinkSpec, NodeRole, Topology};
pub use internet2::{i2_10g_10g, i2_1g_1g, i2_default, i2_fairness, internet2, Internet2Params};
pub use micro::{appendix_c, appendix_f, appendix_g, dumbbell, line, NamedTopology};
pub use registry::{topology_by_name, topology_entry, topology_names, TopologyEntry, TOPOLOGIES};
pub use rocketfuel::{rocketfuel, rocketfuel_default, RocketFuelParams};
pub use routing::{
    attach_tmin, bfs_dist_avoiding, shortest_path_avoiding, shortest_path_from_dist, tmin,
    tmin_rem_table, tmin_suffix, CalibrationSummary, Routing, RoutingCore,
};
