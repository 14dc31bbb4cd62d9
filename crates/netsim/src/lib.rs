//! # ups-netsim — deterministic discrete-event network simulator
//!
//! The simulation substrate for the *Universal Packet Scheduling* (HotNets
//! 2015) reproduction: store-and-forward, output-queued routers with
//! pluggable per-port schedulers, integer-picosecond time, and full
//! schedule tracing (`i(p)`, `o(p)`, per-hop `o(p, α)`).
//!
//! Design goals, in order: **determinism** (bit-identical runs given the
//! same seed — the replay methodology depends on feeding identical packet
//! sets to two runs), **fidelity to the paper's model** (§2.1: fixed
//! per-packet paths, non-preemptive originals, optional preemptive LSTF),
//! and **simplicity** (single-threaded; no async runtime — this is a
//! CPU-bound simulation, not an I/O workload).
//!
//! ## Layout
//!
//! * [`time`] — picosecond clock, durations, bandwidths
//! * [`arena`] — slab storage for in-flight packets; the hot path moves
//!   4-byte [`PacketRef`](arena::PacketRef)s, never packet bodies
//! * [`event`] — two-level timing-wheel future-event list with
//!   deterministic tie-breaking (a heap only beyond 2.2 s)
//! * [`packet`] — packets and the dynamic scheduling header
//! * [`path`] — interned paths: a `Copy` [`PathId`](path::PathId) per
//!   distinct node list, shared by routing, packets and trace records
//! * [`queue`] — the [`Scheduler`](queue::Scheduler) trait and the shared
//!   rank heap
//! * [`sched`] — FIFO, LIFO, Random, Priority, SJF, SRPT, FQ, DRR, FIFO+,
//!   LSTF (± preemption), EDF
//! * [`node`] — links, output ports (buffering, preemption), nodes
//! * [`sim`] — the event loop and the [`Agent`](sim::Agent) endpoint trait
//! * [`trace`] — recorded schedules
//!
//! See `DESIGN.md` at the repository root for the hot-path data flow
//! (arena → wheel → port → scheduler) and the determinism contract.
//!
//! ## Quick example
//!
//! ```
//! use ups_netsim::prelude::*;
//!
//! // Two hosts joined by a 1 Gbps link.
//! let mut sim = Simulator::new(SimConfig::default());
//! let a = sim.add_node();
//! let b = sim.add_node();
//! let link = Link { bandwidth: Bandwidth::from_gbps(1), propagation: Dur::from_us(10) };
//! sim.add_oneway_link(a, b, link, SchedulerKind::Fifo.build(0), None);
//!
//! let path = PathId::from(vec![a, b]);
//! sim.inject(PacketBuilder::new(PacketId(0), FlowId(0), 1500, path, SimTime::ZERO).build());
//! sim.run();
//!
//! // 12 us serialization + 10 us propagation.
//! let rec = sim.trace().get(PacketId(0)).unwrap();
//! assert_eq!(rec.exited, Some(SimTime::from_us(22)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod event;
pub mod id;
pub mod node;
pub mod packet;
pub mod path;
pub mod queue;
pub mod sched;
pub mod sim;
pub(crate) mod spill;
pub mod time;
pub mod trace;

/// One-stop imports for simulator users.
pub mod prelude {
    pub use crate::arena::{PacketArena, PacketRef};
    pub use crate::id::{AgentId, FlowId, NodeId, PacketId, PortId};
    pub use crate::node::{Link, Node, Port};
    pub use crate::packet::{Header, Packet, PacketBuilder, PacketKind};
    pub use crate::path::PathId;
    pub use crate::queue::{PortCtx, QueuedPacket, Scheduler};
    pub use crate::sched::{MapperKind, Quantized, SchedulerKind};
    pub use crate::sim::{
        Agent, DeadLinkPolicy, RerouteOracle, SimApi, SimConfig, SimStats, Simulator,
    };
    pub use crate::time::{Bandwidth, Dur, SimTime, PS_PER_MS, PS_PER_NS, PS_PER_SEC, PS_PER_US};
    pub use crate::trace::{
        DropCause, HopRecord, PacketRecord, RecordMode, RecordStream, Trace, TraceAccessError,
    };
    pub use ups_obs::{SharedProbe, SimSample};
}
