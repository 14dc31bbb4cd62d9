//! The replay framework — §2 of the paper.
//!
//! A *replay experiment* is:
//!
//! 1. run an **original schedule**: arbitrary per-router disciplines
//!    `{Aα}` over a fixed packet set `{(p, i(p), path(p))}`, recording
//!    output times `{o(p)}`;
//! 2. re-run the *identical* packet set with the candidate UPS at every
//!    router, initializing headers only from `(i(p), o(p), path(p))`
//!    (black-box) or from per-hop times (omniscient, App. B);
//! 3. compare: the replay succeeds for packet `p` iff `o′(p) ≤ o(p)`.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::divergence::DivergenceSink;
use ups_metrics::QuantileSketch;
use ups_netsim::prelude::{
    Dur, Header, Packet, PacketId, PacketRecord, RecordMode, SchedulerKind, SimTime, Simulator,
    Trace,
};
use ups_obs::SharedProbe;
use ups_topology::{
    attach_tmin, build_simulator, tmin, BuildOptions, SchedulerAssignment, Topology,
};

/// How the replay initializes packet headers at the ingress (§2.1
/// constraint 3: only `i(p)`, `o(p)`, `path(p)` for black-box variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderInit {
    /// LSTF: `slack(p) = o(p) − i(p) − tmin(p, src, dest)` (§2.2).
    LstfSlack,
    /// Simple priorities with the paper's "most intuitive" assignment
    /// `prio(p) = o(p)` (§2.3(7)).
    PriorityOutputTime,
    /// Simple priorities constructed from the original schedule's
    /// precedence relation (see [`priorities_from_schedule`]) — the
    /// constructive content of Theorem 1 (App. F): an assignment exists
    /// and replays perfectly whenever no packet waits at more than one
    /// hop; the construction fails (a priority *cycle*) exactly in
    /// situations like Figure 6. Requires a `PerHop` original trace.
    ///
    /// (The paper's footnote 15 gives the closed form `prio(p) = o(p) −
    /// tmin(p, αₚ, dest) + T(p, αₚ)` for the single congestion point
    /// `αₚ`; that form presumes the congestion point is the only
    /// scheduling decision on the path, which randomized scenarios
    /// violate — a packet can *win* a contention it never waited at, and
    /// the closed form may order it behind its competitor there. The
    /// precedence order repairs this while using only the same
    /// information.)
    PriorityFromSchedule,
    /// EDF static-header formulation: `deadline = o(p)`, routers compute
    /// local deadlines from `tmin` tables (App. E). Equivalent to LSTF.
    EdfDeadline,
    /// Omniscient: the full per-hop vector `[o(p, α₁), …]` (App. B).
    /// Requires the original trace to be recorded in `PerHop` mode.
    Omniscient,
}

impl HeaderInit {
    /// The scheduler the replay network runs under this initialization.
    pub fn scheduler(self, preemptive: bool) -> SchedulerKind {
        match self {
            HeaderInit::LstfSlack => SchedulerKind::Lstf { preemptive },
            HeaderInit::PriorityOutputTime | HeaderInit::PriorityFromSchedule => {
                SchedulerKind::Priority { preemptive }
            }
            HeaderInit::EdfDeadline => SchedulerKind::Edf { preemptive },
            HeaderInit::Omniscient => SchedulerKind::Omniscient,
        }
    }
}

/// Run a packet set through `topo` under `assign`, to completion, and
/// return the recorded schedule. Used for both original and replay runs.
///
/// Takes any packet iterator so callers can feed an owned set (the replay
/// run) or clone-on-the-fly from a borrowed slice (the original run)
/// without materializing an intermediate `Vec` per run.
pub fn run_schedule(
    topo: &Topology,
    assign: &SchedulerAssignment,
    packets: impl IntoIterator<Item = Packet>,
    opts: &BuildOptions,
) -> Trace {
    let mut sim = build_simulator(topo, assign, opts);
    let mut n = 0u64;
    for p in packets {
        n += 1;
        sim.inject(p);
    }
    sim.run();
    debug_assert_eq!(
        sim.stats().delivered + sim.stats().dropped,
        n,
        "packets vanished"
    );
    sim.into_trace()
}

/// The replay set over a caller's packet slice, in slice order — for the
/// appendix schedules, whose tables fix the injection order: identical
/// `(i, path, size, id)`, headers stamped per `init` from each packet's
/// record in `original`. A recorded run's replay set is [`replay_stream`].
///
/// The set is lazy: each packet is cloned and stamped as it is pulled,
/// so an eager replay injects straight from the caller's slice and never
/// holds a second copy of the train. `collect` it only to index it.
///
/// # Panics
/// At call time, if `Omniscient` or `PriorityFromSchedule` is requested
/// without a `PerHop` original trace, or if the original schedule has a
/// priority cycle (`PriorityFromSchedule`). On the pull that reaches it,
/// if a packet is missing from the original trace or was never delivered
/// (replay experiments run drop-free).
pub fn replay_packets<'a>(
    topo: &'a Topology,
    original: &'a Trace,
    packets: &'a [Packet],
    init: HeaderInit,
) -> impl ExactSizeIterator<Item = Packet> + 'a {
    let stamp = stamper(topo, original, init);
    packets.iter().map(move |p| {
        let rec = original
            .get(p.id)
            .unwrap_or_else(|e| panic!("packet {} unavailable in original trace: {e}", p.id)); // lint:allow(panic-path): replay precondition: the trace was recorded over this packet set
        let mut q = p.clone();
        stamp(rec, &mut q);
        q
    })
}

/// The replay set of a recorded schedule, from the schedule alone: the
/// packets `original` delivered, at their recorded `(id, flow, size, kind,
/// i(p))` and as-executed path, headers stamped per `init`, in the
/// `(i(p), id)` order [`Simulator::run_with_injections`] wants. A packet
/// with no `o(p)` (in flight at a horizon, lost at a dead link) is left
/// out. Records are pulled one at a time, so a spilled trace replays in
/// bounded memory.
///
/// # Panics
/// As [`replay_packets`].
pub fn replay_stream<'a>(
    topo: &'a Topology,
    original: &'a Trace,
    init: HeaderInit,
) -> impl Iterator<Item = Packet> + 'a {
    use ups_netsim::prelude::{PacketBuilder, PacketKind};
    let stamp = stamper(topo, original, init);
    original.stream().filter_map(move |(id, r)| {
        r.exited?;
        let mut b = PacketBuilder::new(id, r.flow, r.size, r.path, r.injected);
        if r.kind == PacketKind::Ack {
            b = b.ack();
        }
        let mut q = b.build();
        stamp(&r, &mut q);
        Some(q)
    })
}

/// [`replay_stream`] under [`HeaderInit::LstfSlack`], under the name the
/// benchmark harness (`examples/perf`) calls.
pub fn lstf_replay_stream<'a>(
    topo: &'a Topology,
    original: &'a Trace,
) -> impl Iterator<Item = Packet> + 'a {
    replay_stream(topo, original, HeaderInit::LstfSlack)
}

/// The one interpreter of a [`HeaderInit`]: a stamp that resets a packet
/// to its ingress state and writes the header `init` derives from the
/// packet's record in `original`.
fn stamper<'a>(
    topo: &'a Topology,
    original: &Trace,
    init: HeaderInit,
) -> impl Fn(&PacketRecord, &mut Packet) + 'a {
    assert!(
        init != HeaderInit::Omniscient || original.mode() == RecordMode::PerHop,
        "omniscient replay needs a PerHop original trace"
    );
    let prios = (init == HeaderInit::PriorityFromSchedule).then(|| {
        priorities_from_schedule(topo, original).unwrap_or_else(|| {
            // lint:allow(panic-path): App. F: >2 congestion points has no priority assignment; diagnostic
            panic!(
                "original schedule has a priority cycle \
                 (≥2 congestion points per packet, App. F)"
            )
        })
    });
    move |rec, q| {
        let o = rec
            .exited
            .unwrap_or_else(|| panic!("packet {} undelivered in original", q.id)); // lint:allow(panic-path): undelivered originals make the replay target undefined; fail loud
        q.hop = 0;
        q.cum_wait = Dur::ZERO;
        q.remaining_tx = None;
        q.header = Header::default();
        match init {
            HeaderInit::LstfSlack => {
                let t = tmin(topo, &q.path, q.size);
                q.header.slack =
                    o.as_ps() as i128 - q.injected_at.as_ps() as i128 - t.as_ps() as i128;
            }
            HeaderInit::PriorityOutputTime => q.header.prio = o.as_ps() as i128,
            HeaderInit::PriorityFromSchedule => {
                let prio = prios.as_ref().and_then(|p| p.get(q.id));
                // lint:allow(panic-path): the topological sort above ranked every delivered packet
                q.header.prio = prio.expect("every packet ordered");
            }
            HeaderInit::EdfDeadline => {
                q.header.deadline = o;
                attach_tmin(topo, q);
            }
            HeaderInit::Omniscient => {
                assert_eq!(
                    rec.hops.len(),
                    q.path.len() - 1,
                    "per-hop record incomplete for packet {}",
                    q.id
                );
                // The destination never schedules; pad for 1:1 indexing.
                let v: Arc<[SimTime]> = rec
                    .hop_tx_starts()
                    .chain(std::iter::once(SimTime::MAX))
                    .collect();
                q.header.omniscient = Some(v);
            }
        }
    }
}

/// Outcome of comparing a replay trace against its original.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Packets compared: every packet the original delivered, whether or
    /// not the replay delivered it too.
    pub total: usize,
    /// Packets with `o′(p) > o(p) + tolerance`, plus every missing packet
    /// (a packet the replay never got out is late by any measure).
    pub overdue: usize,
    /// Packets with `o′(p) > o(p) + T + tolerance` (Table 1's second
    /// column; `T` = one bottleneck transmission time), plus every
    /// missing packet.
    pub overdue_gt_t: usize,
    /// Packets delivered in the original but dropped or never delivered
    /// in the replay. A lossy replay must score *worse*, not better —
    /// these count in `total`, `overdue` and `overdue_gt_t`.
    pub missing: usize,
    /// The `T` used.
    pub threshold: Dur,
    /// Largest lateness seen among packets delivered in both runs.
    pub max_lateness: Dur,
    /// Per-packet queueing-delay ratios `wait′(p) / wait(p)` over packets
    /// with nonzero original queueing (Figure 1's CDF), held as a
    /// fixed-size [`QuantileSketch`] so the comparison never stores a
    /// per-packet sample vector.
    pub queueing_ratios: QuantileSketch,
}

impl ReplayReport {
    /// Fraction of packets overdue (Table 1, column "Total").
    pub fn frac_overdue(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.overdue as f64 / self.total as f64
        }
    }

    /// Fraction overdue by more than `T` (Table 1, column "> T").
    pub fn frac_overdue_gt_t(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.overdue_gt_t as f64 / self.total as f64
        }
    }

    /// Fraction of packets the replay got out on time
    /// (`1 − frac_overdue`), or `None` when the comparison covered no
    /// packets — an empty comparison matched nothing and must not be
    /// reported as a perfect score.
    pub fn match_rate(&self) -> Option<f64> {
        (self.total > 0).then(|| 1.0 - self.frac_overdue())
    }

    /// `frac_overdue_gt_t` as an `Option`, `None` on the empty
    /// comparison (mirrors [`Self::match_rate`]).
    pub fn frac_gt_t_rate(&self) -> Option<f64> {
        (self.total > 0).then(|| self.frac_overdue_gt_t())
    }

    /// True when the replay met every target (a *perfect* replay). A
    /// comparison that covered no packets is vacuous, not perfect.
    pub fn perfect(&self) -> bool {
        self.total > 0 && self.overdue == 0
    }
}

/// Compare a replay trace against the original. `tolerance` absorbs
/// sub-threshold noise in micro-topologies (the appendix networks model
/// "instant" links as 12 Tbps, i.e. nanosecond residuals); the paper-scale
/// experiments use zero tolerance.
///
/// Every packet the original delivered participates: one the replay
/// dropped (or never finished) counts as `missing` *and* overdue in both
/// columns, so a lossy replay scores strictly worse than a late one.
///
/// `sink` observes every mismatch — the entry point the forensics layer
/// attaches through. Each mismatched packet is reported to it exactly
/// once, under exactly one [`DivergenceCause`](crate::DivergenceCause),
/// so the sink's per-cause counts sum to the returned report's `overdue`
/// field (the conservation invariant the forensics layer property-tests).
/// The sink never influences the report: running with `&mut ()` is
/// bit-identical to running with any other sink.
///
/// The comparison is a merge-join over the two record streams, sorted by
/// the canonical `(i(p), id)` key — exactly what [`Trace::stream`] yields
/// in both layouts — so neither trace is ever held as a dense id-indexed
/// map.
///
/// Replay records are buffered in a small reorder window only while their
/// key is `≤` the original cursor's key; once the original cursor passes a
/// key, unmatched window entries can never match (keys strictly increase)
/// and are evicted. The window is therefore bounded by the key-skew
/// between the two streams — zero for a faithful replay, which preserves
/// every `(i(p), id)` — and is asserted to stay under
/// [`REORDER_WINDOW`] as a guard against a stream that is not sorted.
pub fn compare_with_sink(
    original: &Trace,
    replay: &Trace,
    threshold: Dur,
    tolerance: Dur,
    sink: &mut dyn DivergenceSink,
) -> ReplayReport {
    use crate::divergence::{Divergence, DivergenceCause};
    use ups_netsim::prelude::DropCause;
    let mut report = ReplayReport {
        total: 0,
        overdue: 0,
        overdue_gt_t: 0,
        missing: 0,
        threshold,
        max_lateness: Dur::ZERO,
        queueing_ratios: QuantileSketch::new(),
    };
    // Reorder window: replay records pulled up to the original cursor,
    // keyed by the canonical stream key. Whole records are kept (moved in
    // from the owned stream, never cloned) so the sink can attribute a
    // mismatch from the replay side's hop timeline and drop cause; the
    // window stays bounded by REORDER_WINDOW entries regardless.
    let mut window: BTreeMap<(SimTime, PacketId), PacketRecord> = BTreeMap::new();
    let mut rep = replay.stream().peekable();
    for (id, orig) in original.stream() {
        let Some(o_orig) = orig.exited else {
            continue; // only originally-delivered packets participate
        };
        let key = (orig.injected, id);
        // Evict entries the original cursor has passed: their original
        // twin (same key) was either matched already or never delivered.
        while let Some((&k, _)) = window.first_key_value() {
            if k < key {
                window.pop_first();
            } else {
                break;
            }
        }
        while rep.peek().is_some_and(|(rid, r)| (r.injected, *rid) <= key) {
            let (rid, r) = rep.next().expect("peeked"); // lint:allow(panic-path): peek on the same iterator returned Some
            window.insert((r.injected, rid), r);
            assert!(
                window.len() <= REORDER_WINDOW,
                "replay stream diverged from the original by more than \
                 {REORDER_WINDOW} records; are both streams (i(p), id)-sorted?"
            );
            ups_obs::count_max(ups_obs::Counter::CompareWindow, window.len() as u64);
        }
        report.total += 1;
        let entry = window.remove(&key);
        let Some((o_replay, rep_wait)) = entry
            .as_ref()
            .and_then(|r| r.exited.map(|o| (o, r.total_wait)))
        else {
            // Delivered originally, missing/dropped in the replay: late by
            // any measure.
            report.missing += 1;
            report.overdue += 1;
            report.overdue_gt_t += 1;
            let cause = match entry.as_ref().and_then(|r| r.drop_cause) {
                Some(DropCause::DeadLink) => DivergenceCause::DeadLinkDrop,
                Some(DropCause::Buffer) => DivergenceCause::BufferDrop,
                None => DivergenceCause::MissingInReplay,
            };
            sink.divergence(&Divergence {
                id,
                original: &orig,
                replay: entry.as_ref(),
                cause,
                lateness: Dur::ZERO,
            });
            continue;
        };
        let lateness = o_replay.saturating_since(o_orig);
        report.max_lateness = report.max_lateness.max(lateness);
        if lateness > tolerance {
            report.overdue += 1;
            let cause = if lateness > threshold + tolerance {
                DivergenceCause::OverdueBeyondT
            } else {
                DivergenceCause::OverdueWithinT
            };
            sink.divergence(&Divergence {
                id,
                original: &orig,
                replay: entry.as_ref(),
                cause,
                lateness,
            });
        }
        if lateness > threshold + tolerance {
            report.overdue_gt_t += 1;
        }
        if orig.total_wait > Dur::ZERO {
            // lint:allow(ps-narrowing): a dimensionless wait ratio — f64
            // rounding of either operand shifts the ratio by ~1e-16,
            // far below the bucket resolution it feeds.
            let ratio = rep_wait.as_ps() as f64 / orig.total_wait.as_ps() as f64;
            report.queueing_ratios.insert(ratio);
        }
    }
    report
}

/// Upper bound on the [`compare_with_sink`] reorder window — a guard rail,
/// not a working size: two streams over the same packet set share every
/// `(i(p), id)` key, so the window holds at most the records of one key
/// pulled ahead of the join cursor.
pub const REORDER_WINDOW: usize = 4096;

/// [`compare_with_sink`] with zero tolerance and no sink — the
/// paper-scale form, for two traces the caller already holds.
pub fn compare(original: &Trace, replay: &Trace, threshold: Dur) -> ReplayReport {
    compare_with_sink(original, replay, threshold, Dur::ZERO, &mut ())
}

/// The paper's overdue threshold `T`: one MTU transmission time on the
/// bottleneck link (§2.3) — the one place the workspace states it.
pub fn overdue_threshold(topo: &Topology) -> Dur {
    topo.bottleneck_bandwidth().tx_time(1500)
}

/// Everything after the original run, stated once: the replay network
/// (discipline, build options), the run, the threshold `T`, the tolerance
/// and the comparison. Every "original → replay → compare" in the
/// workspace is [`Replay::new`], a struct update for what differs, and one
/// of the two drive forms:
///
/// * **eager** ([`Replay::eager`], [`Replay::eager_set`]) — inject the
///   whole replay set, then run: the form of the static sweep rows and the
///   paper tables;
/// * **lazy** ([`Replay::lazy`]) — pull [`replay_stream`] through
///   [`Simulator::run_with_injections`], so a spilled original replays in
///   bounded memory: the form of the churn rows and the scale run.
///
/// There are two because they are separate determinism domains (same-time
/// events fire in push order, and lazy pulls interleave pushes differently
/// than inject-all; see [`Simulator::run_with_injections`]) and committed
/// results are pinned in each. Nothing selects between them but the call.
pub struct Replay<'a> {
    /// Network (intact, whatever the original run did to it).
    pub topo: &'a Topology,
    /// The recorded schedule to reproduce.
    pub original: &'a Trace,
    /// Replay discipline at every router.
    pub kind: SchedulerKind,
    /// Replay-run construction: record detail, seed, spill caps.
    pub opts: BuildOptions,
    /// `T` of the report's second column.
    pub threshold: Dur,
    /// Lateness the comparison forgives (zero at paper scale).
    pub tolerance: Dur,
    /// Sampling probe for the replay run; observation only.
    pub probe: Option<SharedProbe>,
}

impl<'a> Replay<'a> {
    /// The paper's default replay of `original` on `topo`: non-preemptive
    /// black-box LSTF, end-to-end records, `T` from
    /// [`overdue_threshold`], zero tolerance, no probe.
    pub fn new(topo: &'a Topology, original: &'a Trace, seed: u64) -> Self {
        Replay {
            topo,
            original,
            kind: SchedulerKind::Lstf { preemptive: false },
            opts: BuildOptions {
                record: RecordMode::EndToEnd,
                seed,
                ..BuildOptions::default()
            },
            threshold: overdue_threshold(topo),
            tolerance: Dur::ZERO,
            probe: None,
        }
    }

    /// Eager drive over a packet slice the original ran, in slice order:
    /// re-initialize headers per `init` ([`replay_packets`]), inject all,
    /// run, compare. Each packet is stamped as it is injected, so no
    /// replay set is held beside the slice; a packet with no delivered
    /// record panics when its turn to be injected comes.
    pub fn eager(
        self,
        packets: &[Packet],
        init: HeaderInit,
        sink: &mut dyn DivergenceSink,
    ) -> (Trace, ReplayReport) {
        let set = replay_packets(self.topo, self.original, packets, init);
        self.eager_set(set, sink)
    }

    /// Eager drive over a replay set already stamped — a
    /// [`replay_stream`] of the original, or a [`replay_packets`] set.
    pub fn eager_set(
        self,
        set: impl IntoIterator<Item = Packet>,
        sink: &mut dyn DivergenceSink,
    ) -> (Trace, ReplayReport) {
        self.drive(sink, |sim| {
            for p in set {
                sim.inject(p);
            }
            sim.run();
        })
    }

    /// Lazy drive: the delivered packets of `original`, LSTF slack
    /// attached, streamed in `(i(p), id)` order as the clock reaches them.
    pub fn lazy(self, sink: &mut dyn DivergenceSink) -> (Trace, ReplayReport) {
        let set = replay_stream(self.topo, self.original, HeaderInit::LstfSlack);
        self.drive(sink, |sim| sim.run_with_injections(set))
    }

    fn drive(
        self,
        sink: &mut dyn DivergenceSink,
        run: impl FnOnce(&mut Simulator),
    ) -> (Trace, ReplayReport) {
        let assign = SchedulerAssignment::uniform(self.kind);
        let mut sim = build_simulator(self.topo, &assign, &self.opts);
        if let Some(probe) = self.probe {
            sim.set_probe(probe);
        }
        run(&mut sim);
        debug_assert_eq!(
            sim.stats().delivered + sim.stats().dropped,
            sim.stats().injected,
            "packets vanished"
        );
        let replay = sim.into_trace();
        let report =
            compare_with_sink(self.original, &replay, self.threshold, self.tolerance, sink);
        (replay, report)
    }
}

/// End-to-end convenience: original run → header init → replay run →
/// report. `preemptive` applies to the LSTF variant only (§2.3(5)).
pub struct ReplayExperiment<'a> {
    /// Network.
    pub topo: &'a Topology,
    /// The original schedule's per-router disciplines.
    pub original_assign: SchedulerAssignment,
    /// Header initialization / replay discipline.
    pub init: HeaderInit,
    /// Preemptive replay (LSTF only).
    pub preemptive: bool,
    /// Record mode for the original run (`PerHop` required for
    /// omniscient replay and congestion-point analysis).
    pub record: RecordMode,
    /// Seed for stochastic original disciplines.
    pub seed: u64,
}

/// The result of [`ReplayExperiment::run`].
pub struct ReplayOutcome {
    /// Original schedule.
    pub original: Trace,
    /// Replay schedule.
    pub replay: Trace,
    /// Comparison.
    pub report: ReplayReport,
}

impl ReplayExperiment<'_> {
    /// Execute both runs over `packets` and compare with `tolerance`.
    pub fn run(&self, packets: &[Packet], tolerance: Dur) -> ReplayOutcome {
        let opts = BuildOptions {
            record: self.record,
            seed: self.seed,
            ..BuildOptions::default()
        };
        let original = run_schedule(
            self.topo,
            &self.original_assign,
            packets.iter().cloned(),
            &opts,
        );
        let (replay, report) = Replay {
            kind: self.init.scheduler(self.preemptive),
            tolerance,
            ..Replay::new(self.topo, &original, self.seed)
        }
        .eager(packets, self.init, &mut ());
        ReplayOutcome {
            original,
            replay,
            report,
        }
    }
}

/// A static priority per packet, stored densely: packet ids are dense
/// across a run (the workload layer allocates them sequentially), so the
/// table is a flat `Vec` indexed by id — no hashing on the replay path.
#[derive(Debug, Clone)]
pub struct PriorityAssignment {
    ranks: Vec<Option<i128>>,
}

impl PriorityAssignment {
    /// The priority assigned to `id`, if that packet was in the schedule.
    #[inline]
    pub fn get(&self, id: PacketId) -> Option<i128> {
        self.ranks.get(id.index()).copied().flatten()
    }

    /// Number of packets with an assigned priority.
    pub fn len(&self) -> usize {
        self.ranks.iter().filter(|r| r.is_some()).count()
    }

    /// True when no packet has a priority.
    pub fn is_empty(&self) -> bool {
        self.ranks.iter().all(|r| r.is_none())
    }
}

/// Construct a static priority assignment that replays `original`
/// (Theorem 1's constructive content), or `None` if the required
/// precedence relation is cyclic — which is exactly the Appendix F
/// "priority cycle" obstruction that arises once packets wait at two or
/// more hops.
///
/// The relation: at every output port, if packet `q` was scheduled while
/// packet `p` was already present (arrived before `q`'s transmission
/// ended), then `q` must outrank `p` everywhere. Priorities are the
/// topological order of that relation (deterministic: ties broken by
/// packet id).
///
/// All working state is dense: per-port sequences live in a flat
/// `node × node` table and the precedence graph is `Vec`-keyed on the
/// dense packet ids.
///
/// Requires a `PerHop` trace, resident or spilled. Intended for analysis
/// and property tests; the per-port pair scan is quadratic in the worst
/// case.
pub fn priorities_from_schedule(topo: &Topology, original: &Trace) -> Option<PriorityAssignment> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    assert_eq!(
        original.mode(),
        RecordMode::PerHop,
        "priorities_from_schedule needs a PerHop original trace"
    );
    let bound = original.id_bound();
    let n_nodes = topo.node_count();
    // Single pass over the delivered records: gather per-port service
    // sequences (keyed by the dense directed-pair index `here * n + next`)
    // and mark schedule membership as we go.
    let mut ports: Vec<Vec<(SimTime, SimTime, SimTime, PacketId)>> =
        vec![Vec::new(); n_nodes * n_nodes];
    let mut in_schedule: Vec<bool> = vec![false; bound];
    let mut scheduled = 0usize;
    for (id, rec) in original.stream().filter(|(_, r)| r.exited.is_some()) {
        in_schedule[id.index()] = true; // lint:allow(panic-path): ids are dense; bound is sized from this trace above
        scheduled += 1;
        for (i, h) in rec.hops.iter().enumerate() {
            let next = rec.path[i + 1]; // lint:allow(panic-path): recorder invariant: one hop record per path edge, so i+1 < path.len()
            let link = topo
                .neighbor_link(h.node, next)
                .expect("trace hop uses a topology link"); // lint:allow(panic-path): the trace was recorded on this same topology
            let tx_end = h.tx_start + link.bandwidth.tx_time(rec.size);
            ports[h.node.index() * n_nodes + next.index()] // lint:allow(panic-path): node indices are < n_nodes; the port table is sized n_nodes^2
                .push((h.tx_start, h.arrived, tx_end, id));
        }
    }
    // Precedence edges q -> p, dense on packet id.
    let mut succ: Vec<Vec<PacketId>> = vec![Vec::new(); bound];
    let mut indegree: Vec<u32> = vec![0; bound];
    for seq in ports.iter_mut().filter(|s| !s.is_empty()) {
        seq.sort_by_key(|&(tx_start, _, _, id)| (tx_start, id));
        for k in 1..seq.len() {
            let (_, arrived_k, _, id_k) = seq[k];
            for j in (0..k).rev() {
                let (_, _, tx_end_j, id_j) = seq[j];
                if arrived_k < tx_end_j {
                    succ[id_j.index()].push(id_k); // lint:allow(panic-path): packet ids are < bound; the succ table is sized to bound
                    indegree[id_k.index()] += 1; // lint:allow(panic-path): packet ids are < bound; the indegree table is sized to bound
                } else {
                    // Sequential service: earlier packets ended even
                    // sooner; no more overlaps possible.
                    break;
                }
            }
        }
    }
    // Kahn's algorithm; min-heap on id gives the same deterministic
    // tie-breaking as ordered-set iteration.
    let mut ready: BinaryHeap<Reverse<usize>> = (0..bound)
        .filter(|&i| in_schedule[i] && indegree[i] == 0)
        .map(Reverse)
        .collect();
    let mut ranks: Vec<Option<i128>> = vec![None; bound];
    let mut assigned = 0usize;
    let mut next_rank: i128 = 0;
    while let Some(Reverse(i)) = ready.pop() {
        ranks[i] = Some(next_rank);
        next_rank += 1;
        assigned += 1;
        for f in std::mem::take(&mut succ[i]) {
            let d = &mut indegree[f.index()]; // lint:allow(panic-path): successor ids come from the same bounded dense id space
            *d -= 1;
            if *d == 0 {
                ready.push(Reverse(f.index()));
            }
        }
    }
    if assigned == scheduled {
        Some(PriorityAssignment { ranks })
    } else {
        None // cycle: some packets never reached indegree 0
    }
}

/// Largest number of congestion points any packet saw in a `PerHop`
/// trace — the quantity the paper's theorems are parameterized by (§2.2).
pub fn max_congestion_points(trace: &Trace) -> usize {
    trace
        .stream()
        .filter(|(_, r)| r.exited.is_some())
        .map(|(_, r)| r.congestion_points())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_netsim::prelude::*;
    use ups_topology::{line, Routing};

    /// 30 packets through a 2-router line under FIFO; LSTF replay must be
    /// perfect (≤ 2 congestion points by construction).
    fn line_packets(topo: &Topology, n: u64, gap_us: u64) -> Vec<Packet> {
        let routing = Routing::new(topo);
        let hosts = topo.hosts();
        let path = routing.path(hosts[0], hosts[1]);
        (0..n)
            .map(|i| {
                PacketBuilder::new(
                    PacketId(i),
                    FlowId(i % 3),
                    1500,
                    path,
                    SimTime::from_us(i * gap_us),
                )
                .build()
            })
            .collect()
    }

    #[test]
    fn lstf_replays_fifo_line_perfectly() {
        let topo = line(2, Bandwidth::from_gbps(1), Dur::from_us(10));
        let packets = line_packets(&topo, 30, 3);
        let exp = ReplayExperiment {
            topo: &topo,
            original_assign: SchedulerAssignment::uniform(SchedulerKind::Fifo),
            init: HeaderInit::LstfSlack,
            preemptive: false,
            record: RecordMode::PerHop,
            seed: 1,
        };
        let out = exp.run(&packets, Dur::ZERO);
        assert_eq!(out.report.total, 30);
        assert!(
            out.report.perfect(),
            "overdue {} max lateness {}",
            out.report.overdue,
            out.report.max_lateness
        );
    }

    #[test]
    fn lstf_replays_lifo_line_with_enough_spacing() {
        // On a single bottleneck (one congestion point) even LIFO replays
        // perfectly under LSTF (Theorem: ≤ 2 congestion points).
        let topo = line(1, Bandwidth::from_gbps(1), Dur::from_us(10));
        let packets = line_packets(&topo, 40, 2);
        let exp = ReplayExperiment {
            topo: &topo,
            original_assign: SchedulerAssignment::uniform(SchedulerKind::Lifo),
            init: HeaderInit::LstfSlack,
            preemptive: true,
            record: RecordMode::PerHop,
            seed: 1,
        };
        let out = exp.run(&packets, Dur::ZERO);
        assert!(
            max_congestion_points(&out.original) <= 2,
            "line(1) can impose at most 2 waits"
        );
        assert!(out.report.perfect(), "overdue {}", out.report.overdue);
    }

    #[test]
    fn omniscient_replays_random_schedule_perfectly() {
        let topo = line(3, Bandwidth::from_gbps(1), Dur::from_us(10));
        let packets = line_packets(&topo, 50, 1);
        let exp = ReplayExperiment {
            topo: &topo,
            original_assign: SchedulerAssignment::uniform(SchedulerKind::Random),
            init: HeaderInit::Omniscient,
            preemptive: false,
            record: RecordMode::PerHop,
            seed: 42,
        };
        let out = exp.run(&packets, Dur::ZERO);
        assert_eq!(out.report.total, 50);
        assert!(
            out.report.perfect(),
            "App. B guarantees exact replay; overdue {}",
            out.report.overdue
        );
    }

    #[test]
    fn slack_is_nonnegative_for_viable_schedules() {
        let topo = line(2, Bandwidth::from_gbps(1), Dur::from_us(10));
        let packets = line_packets(&topo, 20, 1);
        let opts = BuildOptions {
            record: RecordMode::EndToEnd,
            ..BuildOptions::default()
        };
        let original = run_schedule(
            &topo,
            &SchedulerAssignment::uniform(SchedulerKind::Fifo),
            packets.clone(),
            &opts,
        );
        for p in replay_packets(&topo, &original, &packets, HeaderInit::LstfSlack) {
            assert!(
                p.header.slack >= 0,
                "viable schedule implies o ≥ i + tmin; slack {}",
                p.header.slack
            );
        }
    }

    #[test]
    fn report_fractions() {
        let r = ReplayReport {
            total: 200,
            overdue: 10,
            overdue_gt_t: 2,
            missing: 0,
            threshold: Dur::from_us(12),
            max_lateness: Dur::from_us(50),
            queueing_ratios: QuantileSketch::new(),
        };
        assert!((r.frac_overdue() - 0.05).abs() < 1e-12);
        assert!((r.frac_overdue_gt_t() - 0.01).abs() < 1e-12);
        assert_eq!(r.match_rate(), Some(0.95));
        assert!(!r.perfect());
    }

    /// Helper for the accounting regressions: a synthetic delivered
    /// record with the given exit time.
    fn delivered_rec(exit_us: u64) -> PacketRecord {
        PacketRecord {
            flow: FlowId(0),
            size: 1500,
            kind: PacketKind::Data,
            path: vec![NodeId(0), NodeId(1)].into(),
            injected: SimTime::ZERO,
            exited: Some(SimTime::from_us(exit_us)),
            total_wait: Dur::ZERO,
            dropped: false,
            drop_cause: None,
            hops: Vec::new(),
        }
    }

    /// Regression (accounting bug 1): a replay that drops a packet the
    /// original delivered must lower the match rate — the packet counts
    /// in `total`, as `missing`, and as overdue in both columns.
    #[test]
    fn missing_replay_packet_lowers_match_rate() {
        let original = Trace::synthetic(
            RecordMode::EndToEnd,
            [
                (PacketId(0), delivered_rec(100)),
                (PacketId(1), delivered_rec(200)),
            ],
        );
        // The replay delivered packet 0 on time and *lost* packet 1.
        let mut lost = delivered_rec(0);
        lost.exited = None;
        lost.dropped = true;
        let replay = Trace::synthetic(
            RecordMode::EndToEnd,
            [(PacketId(0), delivered_rec(100)), (PacketId(1), lost)],
        );
        let r = compare(&original, &replay, Dur::from_us(12));
        assert_eq!(r.total, 2, "the lost packet still counts");
        assert_eq!(r.missing, 1);
        assert_eq!(r.overdue, 1);
        assert_eq!(r.overdue_gt_t, 1);
        assert_eq!(r.match_rate(), Some(0.5));
        assert!(!r.perfect());
        // A replay record that is absent entirely counts the same way.
        let replay = Trace::synthetic(RecordMode::EndToEnd, [(PacketId(0), delivered_rec(100))]);
        let r = compare(&original, &replay, Dur::from_us(12));
        assert_eq!((r.total, r.missing, r.overdue), (2, 1, 1));
    }

    /// The replay stream is the delivered set in `(i(p), id)` order, and
    /// comparing a trace against itself is perfect with every queueing
    /// ratio exactly 1.
    #[test]
    fn lazy_replay_set_matches_eager_and_self_compare_is_perfect() {
        let topo = line(2, Bandwidth::from_gbps(1), Dur::from_us(10));
        let packets = line_packets(&topo, 30, 1);
        let exp = ReplayExperiment {
            topo: &topo,
            original_assign: SchedulerAssignment::uniform(SchedulerKind::Lifo),
            init: HeaderInit::LstfSlack,
            preemptive: false,
            record: RecordMode::PerHop,
            seed: 7,
        };
        let out = exp.run(&packets, Dur::ZERO);
        let threshold = overdue_threshold(&topo);

        let lazy: Vec<Packet> =
            replay_stream(&topo, &out.original, HeaderInit::LstfSlack).collect();
        let delivered: Vec<_> = out
            .original
            .stream()
            .filter(|(_, r)| r.exited.is_some())
            .collect();
        assert_eq!(lazy.len(), delivered.len());
        for (l, (id, r)) in lazy.iter().zip(&delivered) {
            assert_eq!(
                (l.id, l.flow, l.size, l.kind, &l.path, l.injected_at),
                (*id, r.flow, r.size, r.kind, &r.path, r.injected),
                "the stream is the delivered set, key-sorted"
            );
        }

        let self_cmp = compare(&out.original, &out.original, threshold);
        assert!(self_cmp.perfect());
        assert_eq!(self_cmp.max_lateness, Dur::ZERO);
        if !self_cmp.queueing_ratios.is_empty() {
            assert_eq!(self_cmp.queueing_ratios.fraction_le(1.0), 1.0);
            assert_eq!(self_cmp.queueing_ratios.min(), 1.0);
        }
    }

    /// `replay_stream` stamps, under every header initialization, the
    /// same packets `replay_packets` does, in canonical stream order, and
    /// `replay_packets` yields one packet per slice entry, in slice order,
    /// and says so up front through its exact length. The original is a
    /// `PerHop` run with one congestion point, so both the omniscient and
    /// the schedule-derived priority headers exist.
    #[test]
    fn replay_stream_matches_replay_packets_under_every_init() {
        let topo = line(2, Bandwidth::from_gbps(1), Dur::from_us(10));
        let packets = line_packets(&topo, 25, 2);
        let original = run_schedule(
            &topo,
            &SchedulerAssignment::uniform(SchedulerKind::Lifo),
            packets.iter().cloned(),
            &BuildOptions {
                record: RecordMode::PerHop,
                ..BuildOptions::default()
            },
        );
        assert_eq!(max_congestion_points(&original), 1);
        for init in [
            HeaderInit::LstfSlack,
            HeaderInit::PriorityOutputTime,
            HeaderInit::PriorityFromSchedule,
            HeaderInit::EdfDeadline,
            HeaderInit::Omniscient,
        ] {
            let eager = replay_packets(&topo, &original, &packets, init);
            assert_eq!(eager.len(), packets.len(), "{init:?}");
            let mut eager: Vec<Packet> = eager.collect();
            assert!(
                eager.iter().map(|p| p.id).eq(packets.iter().map(|p| p.id)),
                "{init:?}: slice order"
            );
            eager.sort_by_key(|p| (p.injected_at, p.id));
            let streamed: Vec<Packet> = replay_stream(&topo, &original, init).collect();
            assert_eq!(streamed.len(), eager.len(), "{init:?}");
            for (s, e) in streamed.iter().zip(&eager) {
                assert_eq!(
                    (s.id, s.kind, s.path, s.injected_at),
                    (e.id, e.kind, e.path, e.injected_at),
                    "{init:?}"
                );
                let (sh, eh) = (&s.header, &e.header);
                assert_eq!(
                    (sh.slack, sh.prio, sh.deadline, &sh.omniscient),
                    (eh.slack, eh.prio, eh.deadline, &eh.omniscient),
                    "{init:?} packet {}",
                    s.id
                );
                assert_eq!(s.tmin_rem, e.tmin_rem, "{init:?} packet {}", s.id);
            }
        }
    }

    /// The entry's drive forms: `eager` is `eager_set` over
    /// `replay_packets`, and over the `replay_stream` of a key-sorted
    /// packet set too; every form ends in the one comparison at the one
    /// `T`. The lazy replay covers the same packets but need not be the
    /// same schedule — it is its own determinism domain.
    #[test]
    fn replay_entry_forms_end_in_the_one_comparison() {
        let topo = line(2, Bandwidth::from_gbps(1), Dur::from_us(10));
        let packets = line_packets(&topo, 25, 2);
        let original = run_schedule(
            &topo,
            &SchedulerAssignment::uniform(SchedulerKind::Lifo),
            packets.iter().cloned(),
            &BuildOptions::default(),
        );
        let entry = || Replay::new(&topo, &original, 3);
        let t = overdue_threshold(&topo);
        assert_eq!(entry().threshold, t);
        let (eager, report) = entry().eager(&packets, HeaderInit::LstfSlack, &mut ());
        let set = replay_packets(&topo, &original, &packets, HeaderInit::LstfSlack);
        let (from_set, from_set_report) = entry().eager_set(set, &mut ());
        assert_eq!((&from_set, &from_set_report), (&eager, &report));
        let streamed = replay_stream(&topo, &original, HeaderInit::LstfSlack);
        let (from_stream, from_stream_report) = entry().eager_set(streamed, &mut ());
        assert_eq!((&from_stream, &from_stream_report), (&eager, &report));
        assert_eq!(report, compare(&original, &eager, t));
        let (lazy, lazy_report) = entry().lazy(&mut ());
        assert_eq!(lazy_report, compare(&original, &lazy, t));
        assert_eq!((report.total, lazy_report.total), (25, 25));
    }

    /// Regression (accounting bug 2): a comparison that covered no
    /// packets must not read as a perfect replay.
    #[test]
    fn empty_comparison_is_not_perfect() {
        let original = Trace::synthetic(RecordMode::EndToEnd, []);
        let replay = Trace::synthetic(RecordMode::EndToEnd, []);
        let r = compare(&original, &replay, Dur::from_us(12));
        assert_eq!(r.total, 0);
        assert!(!r.perfect(), "vacuous comparison must not be perfect");
        assert_eq!(r.match_rate(), None, "no packets ⇒ no match rate");
        assert_eq!(r.frac_gt_t_rate(), None);
    }

    #[test]
    fn replay_packet_headers_are_clean() {
        let topo = line(1, Bandwidth::from_gbps(1), Dur::ZERO);
        let mut packets = line_packets(&topo, 3, 1);
        // Pollute original headers the way SJF/SRPT originals would.
        for p in &mut packets {
            p.header.flow_size = 999;
            p.header.remaining = 999;
        }
        let opts = BuildOptions::default();
        let original = run_schedule(
            &topo,
            &SchedulerAssignment::uniform(SchedulerKind::Sjf),
            packets.clone(),
            &opts,
        );
        for p in replay_packets(&topo, &original, &packets, HeaderInit::LstfSlack) {
            assert_eq!(
                p.header.flow_size, 0,
                "replay header must be re-initialized"
            );
            assert_eq!(p.hop, 0);
            assert_eq!(p.cum_wait, Dur::ZERO);
        }
    }

    #[test]
    fn priority_replay_uses_output_time() {
        let topo = line(1, Bandwidth::from_gbps(1), Dur::ZERO);
        let packets = line_packets(&topo, 2, 0);
        let original = run_schedule(
            &topo,
            &SchedulerAssignment::uniform(SchedulerKind::Fifo),
            packets.clone(),
            &BuildOptions::default(),
        );
        let rep: Vec<Packet> =
            replay_packets(&topo, &original, &packets, HeaderInit::PriorityOutputTime).collect();
        let o0 = original.get(PacketId(0)).unwrap().exited.unwrap();
        assert_eq!(rep[0].header.prio, o0.as_ps() as i128);
        assert!(rep[0].header.prio < rep[1].header.prio);
    }
}
