//! # ups-transport — endpoint transports for the §3 experiments
//!
//! * [`tcp`] — a simplified TCP Reno (slow start, AIMD, fast retransmit,
//!   RTO backoff) with per-packet header stamping: `flow_size`/`remaining`
//!   for SJF/SRPT routers and slack per the §3 heuristics
//!   ([`tcp::SlackPolicy`]).
//! * [`stats`] — flow-completion, per-bucket goodput and
//!   retransmit/RTO collection (Figures 2 and 4's raw measurements).
//! * [`driver`] — the shared closed-loop scenario driver (build sim →
//!   install endpoints → run to horizon) behind the sweep engine's
//!   `traffic: closed-loop` jobs and the Figure 2/4 bench runners.
//!
//! Open-loop UDP traffic needs no agent — `ups-workload` packetizes it
//! directly; this crate is the closed-loop side.

#![warn(missing_docs)]

pub mod driver;
pub mod stats;
pub mod tcp;

pub use driver::{run_tcp, TcpRun, TcpScenario};
pub use stats::{FlowCompletion, TransportStats};
pub use tcp::{install_tcp, SlackPolicy, TcpConfig};
