//! The blame collector: first-divergent-hop attribution and bounded
//! per-node/per-link/per-flow aggregates.

use std::collections::BTreeMap;

use crate::topk::TopK;
use crate::{InversionKind, ReplayFlavor};
use ups_core::{Divergence, DivergenceCause, DivergenceSink};
use ups_metrics::{frac, DivergenceSummary, QuantileSketch, Table};
use ups_netsim::prelude::{DropCause, Dur, NodeId, PacketRecord};

/// How many worst-lateness examples the collector retains (the
/// `sweep explain` Perfetto markers and the worst-packets table).
pub const WORST_CASES: usize = 32;

/// How many distinct flows the Misra–Gries counter tracks.
const FLOW_SLOTS: usize = 64;

/// How many switches the distilled summary's `top_nodes` keeps.
const SUMMARY_NODES: usize = 8;

/// Where one divergent packet first went wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopBlame {
    /// The switch at fault (the first divergent hop; the diversion point
    /// for reroutes; the destination when only the exit is observable).
    pub node: NodeId,
    /// The outgoing link at that switch, when the path identifies one.
    pub link: Option<(NodeId, NodeId)>,
    /// What went wrong there.
    pub kind: InversionKind,
    /// `tx′_start − tx_start` at the first divergent hop — the local
    /// lateness injected right there; `None` without hop timelines.
    pub hop_lateness: Option<Dur>,
}

/// Find the first divergent hop for one divergence and classify it.
///
/// The original and replay hop timelines (`hop_tx_starts`, recorded in
/// `PerHop` mode) are walked in lockstep; the first hop where the replay
/// started serializing strictly later than the original is the blame
/// point. Drops and path changes are classified before timing: a buffer
/// drop is a [`InversionKind::QueueOverflow`] at the last switch that
/// handled the packet, and a path mismatch is a
/// [`InversionKind::Reroute`] at the diversion point. End-to-end records
/// (no hop detail) degrade to [`InversionKind::ExitOnly`] blame at the
/// destination.
pub fn first_divergent_hop(d: &Divergence<'_>, flavor: ReplayFlavor) -> HopBlame {
    let orig = d.original;
    let dest = *orig.path.last().unwrap_or(&NodeId(0));
    let exit_only = HopBlame {
        node: dest,
        link: None,
        kind: InversionKind::ExitOnly,
        hop_lateness: None,
    };
    let Some(rep) = d.replay else {
        // The replay never saw the packet: nothing to walk.
        return exit_only;
    };
    match rep.drop_cause {
        Some(DropCause::Buffer) => {
            let node = last_handled(rep);
            return HopBlame {
                node,
                link: next_link(&rep.path, node),
                kind: InversionKind::QueueOverflow,
                hop_lateness: None,
            };
        }
        Some(DropCause::DeadLink) => {
            let node = last_handled(rep);
            return HopBlame {
                node,
                link: next_link(&rep.path, node),
                kind: InversionKind::Reroute,
                hop_lateness: None,
            };
        }
        None => {}
    }
    if rep.path != orig.path {
        // Reroute: blame the switch where the paths fork.
        let fork = orig
            .path
            .iter()
            .zip(rep.path.iter())
            .take_while(|(a, b)| a == b)
            .count();
        let node = if fork == 0 {
            *rep.path.first().unwrap_or(&dest)
        } else {
            orig.path[fork - 1]
        };
        return HopBlame {
            node,
            link: rep.path.get(fork).map(|&next| (node, next)),
            kind: InversionKind::Reroute,
            hop_lateness: None,
        };
    }
    // Same path, both delivered (or replay still in flight): lockstep walk
    // of the hop timelines for the first strictly-later transmission start.
    for (oh, rh) in orig.hops.iter().zip(rep.hops.iter()) {
        if rh.node == oh.node && rh.tx_start > oh.tx_start {
            let kind = match flavor {
                ReplayFlavor::Quantized { .. } => InversionKind::BucketCollision,
                ReplayFlavor::Exact | ReplayFlavor::Churn => InversionKind::RankTieBreak,
            };
            return HopBlame {
                node: oh.node,
                link: next_link(&orig.path, oh.node),
                kind,
                hop_lateness: Some(rh.tx_start.saturating_since(oh.tx_start)),
            };
        }
    }
    // No hop detail, or every recorded hop kept pace and the lateness
    // appeared on the final serialization: only the exit is observable.
    exit_only
}

/// The last switch whose output port served the packet in the replay, or
/// the path head when the packet never reached a recorded hop.
fn last_handled(rep: &PacketRecord) -> NodeId {
    rep.hops
        .last()
        .map(|h| h.node)
        .or_else(|| rep.path.first().copied())
        .unwrap_or(NodeId(0))
}

/// The outgoing link at `node` along `path`, if `node` is on the path
/// and not its terminus.
fn next_link(path: &[NodeId], node: NodeId) -> Option<(NodeId, NodeId)> {
    let pos = path.iter().position(|&n| n == node)?;
    path.get(pos + 1).map(|&next| (node, next))
}

/// One switch's share of the blame.
#[derive(Debug, Clone)]
pub struct NodeBlame {
    /// Divergent packets whose first divergent hop is at this switch.
    pub mismatches: u64,
    /// Summed end-to-end lateness of those packets (the switch's overdue
    /// mass), in picoseconds. Missing/dropped packets contribute zero
    /// (their lateness is unbounded, not measurable).
    pub overdue_mass_ps: u128,
    /// Per-hop lateness injected at this switch (seconds), for the
    /// divergences that carried hop timelines.
    pub hop_lateness: QuantileSketch,
}

/// One of the worst divergences seen, kept for markers and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorstCase {
    /// Packet id (raw).
    pub id: u64,
    /// Flow id (raw).
    pub flow: u64,
    /// Blamed switch.
    pub node: NodeId,
    /// Taxonomy class.
    pub cause: DivergenceCause,
    /// Inversion class at the first divergent hop.
    pub kind: InversionKind,
    /// End-to-end lateness (zero for missing/dropped).
    pub lateness: Dur,
    /// The original run's exit time `o(p)`, picoseconds — where on the
    /// trace timeline a marker for this divergence belongs.
    pub exited_ps: u64,
}

/// A [`DivergenceSink`] that attributes every mismatch and aggregates
/// blame in bounded memory: per-node and per-link tables are keyed by
/// topology (not packet count), flows ride a Misra–Gries summary, and
/// lateness distributions live in fixed-size quantile sketches.
#[derive(Debug, Clone)]
pub struct BlameCollector {
    flavor: ReplayFlavor,
    mismatches: u64,
    causes: [u64; 5],
    inversions: [u64; 5],
    nodes: BTreeMap<u32, NodeBlame>,
    links: BTreeMap<(u32, u32), u64>,
    flows: TopK,
    hop_lateness: QuantileSketch,
    worst: Vec<WorstCase>,
}

impl BlameCollector {
    /// A fresh collector for one comparison under `flavor`.
    pub fn new(flavor: ReplayFlavor) -> BlameCollector {
        BlameCollector {
            flavor,
            mismatches: 0,
            causes: [0; 5],
            inversions: [0; 5],
            nodes: BTreeMap::new(),
            links: BTreeMap::new(),
            flows: TopK::new(FLOW_SLOTS),
            hop_lateness: QuantileSketch::new(),
            worst: Vec::with_capacity(WORST_CASES + 1),
        }
    }

    /// The flavor this collector classifies under.
    pub fn flavor(&self) -> ReplayFlavor {
        self.flavor
    }

    /// Total mismatches observed (≡ `ReplayReport::overdue` of the
    /// comparison this collector rode).
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// Count for one taxonomy class.
    pub fn cause_count(&self, c: DivergenceCause) -> u64 {
        self.causes[cause_idx(c)]
    }

    /// Count for one inversion class.
    pub fn inversion_count(&self, k: InversionKind) -> u64 {
        self.inversions[inversion_idx(k)]
    }

    /// Per-switch blame, keyed by raw node index.
    pub fn nodes(&self) -> &BTreeMap<u32, NodeBlame> {
        &self.nodes
    }

    /// Per-link blame (first divergent hop's outgoing link), keyed by
    /// raw `(from, to)` node indexes.
    pub fn links(&self) -> &BTreeMap<(u32, u32), u64> {
        &self.links
    }

    /// The heaviest divergent flows: `(raw flow id, lower-bound count)`.
    pub fn top_flows(&self, n: usize) -> Vec<(u64, u64)> {
        self.flows.top(n)
    }

    /// Switches ranked by overdue mass (descending; node index breaks
    /// ties), with their blame entries.
    pub fn top_nodes(&self, n: usize) -> Vec<(u32, &NodeBlame)> {
        let mut all: Vec<(u32, &NodeBlame)> = self.nodes.iter().map(|(&k, v)| (k, v)).collect();
        all.sort_by(|a, b| {
            (b.1.overdue_mass_ps, b.1.mismatches, a.0).cmp(&(
                a.1.overdue_mass_ps,
                a.1.mismatches,
                b.0,
            ))
        });
        all.truncate(n);
        all
    }

    /// The retained worst divergences, lateness-descending.
    pub fn worst_cases(&self) -> &[WorstCase] {
        &self.worst
    }

    /// Distill into the serializable summary block
    /// (`ups-forensics/v1`) sweep records carry.
    pub fn summary(&self) -> DivergenceSummary {
        let quant = |q: f64| (!self.hop_lateness.is_empty()).then(|| self.hop_lateness.quantile(q));
        DivergenceSummary {
            mismatches: self.mismatches,
            overdue_within_t: self.cause_count(DivergenceCause::OverdueWithinT),
            overdue_beyond_t: self.cause_count(DivergenceCause::OverdueBeyondT),
            missing_in_replay: self.cause_count(DivergenceCause::MissingInReplay),
            dead_link_drop: self.cause_count(DivergenceCause::DeadLinkDrop),
            buffer_drop: self.cause_count(DivergenceCause::BufferDrop),
            rank_tie_break: self.inversion_count(InversionKind::RankTieBreak),
            bucket_collision: self.inversion_count(InversionKind::BucketCollision),
            reroute: self.inversion_count(InversionKind::Reroute),
            queue_overflow: self.inversion_count(InversionKind::QueueOverflow),
            exit_only: self.inversion_count(InversionKind::ExitOnly),
            top_nodes: self
                .top_nodes(SUMMARY_NODES)
                .into_iter()
                .map(|(node, b)| (node, b.mismatches))
                .collect(),
            hop_lateness_p50_s: quant(0.5),
            hop_lateness_p99_s: quant(0.99),
        }
    }

    /// Render the blame tables `sweep explain` prints: taxonomy,
    /// inversion classes, top-`k` switches and top-`k` flows.
    pub fn render_tables(&self, k: usize) -> String {
        let mut out = String::new();
        let total = self.mismatches.max(1) as f64;

        let mut taxonomy = Table::new(&["cause", "packets", "share"]);
        for c in DivergenceCause::ALL {
            let n = self.cause_count(c);
            taxonomy.row(&[c.name().into(), n.to_string(), frac(n as f64 / total)]);
        }
        out.push_str("== mismatch taxonomy ==\n");
        out.push_str(&taxonomy.render());

        let mut inversions = Table::new(&["first-divergent-hop inversion", "packets", "share"]);
        for kind in InversionKind::ALL {
            let n = self.inversion_count(kind);
            inversions.row(&[kind.name().into(), n.to_string(), frac(n as f64 / total)]);
        }
        out.push_str("\n== inversion classes ==\n");
        out.push_str(&inversions.render());

        let mut nodes = Table::new(&[
            "switch",
            "mismatches",
            "overdue mass (s)",
            "hop p50 (us)",
            "hop p99 (us)",
        ]);
        for (node, b) in self.top_nodes(k) {
            let (p50, p99) = if b.hop_lateness.is_empty() {
                ("-".to_string(), "-".to_string())
            } else {
                (
                    format!("{:.3}", b.hop_lateness.quantile(0.5) * 1e6),
                    format!("{:.3}", b.hop_lateness.quantile(0.99) * 1e6),
                )
            };
            nodes.row(&[
                format!("NodeId({node})"),
                b.mismatches.to_string(),
                format!("{:.9}", b.overdue_mass_ps as f64 * 1e-12),
                p50,
                p99,
            ]);
        }
        out.push_str("\n== top switches by overdue mass ==\n");
        out.push_str(&nodes.render());

        let mut flows = Table::new(&["flow", "mismatches (>=)"]);
        for (flow, n) in self.top_flows(k) {
            flows.row(&[format!("FlowId({flow})"), n.to_string()]);
        }
        out.push_str("\n== top divergent flows ==\n");
        out.push_str(&flows.render());
        out
    }
}

impl DivergenceSink for BlameCollector {
    fn divergence(&mut self, d: &Divergence<'_>) {
        self.mismatches += 1;
        self.causes[cause_idx(d.cause)] += 1;
        let blame = first_divergent_hop(d, self.flavor);
        self.inversions[inversion_idx(blame.kind)] += 1;

        let entry = self.nodes.entry(blame.node.0).or_insert_with(|| NodeBlame {
            mismatches: 0,
            overdue_mass_ps: 0,
            hop_lateness: QuantileSketch::new(),
        });
        entry.mismatches += 1;
        entry.overdue_mass_ps += d.lateness.as_ps() as u128;
        if let Some(h) = blame.hop_lateness {
            entry.hop_lateness.insert(h.as_secs_f64());
            self.hop_lateness.insert(h.as_secs_f64());
        }
        if let Some((a, b)) = blame.link {
            *self.links.entry((a.0, b.0)).or_insert(0) += 1;
        }
        self.flows.insert(d.original.flow.0);

        let case = WorstCase {
            id: d.id.0,
            flow: d.original.flow.0,
            node: blame.node,
            cause: d.cause,
            kind: blame.kind,
            lateness: d.lateness,
            exited_ps: d.original.exited.map(|t| t.as_ps()).unwrap_or(0),
        };
        // Bounded insertion sort: lateness descending, id ascending.
        let pos = self.worst.partition_point(|w| {
            (w.lateness, std::cmp::Reverse(w.id)) >= (case.lateness, std::cmp::Reverse(case.id))
        });
        if pos < WORST_CASES {
            self.worst.insert(pos, case);
            self.worst.truncate(WORST_CASES);
        }
    }
}

fn cause_idx(c: DivergenceCause) -> usize {
    match c {
        DivergenceCause::OverdueWithinT => 0,
        DivergenceCause::OverdueBeyondT => 1,
        DivergenceCause::MissingInReplay => 2,
        DivergenceCause::DeadLinkDrop => 3,
        DivergenceCause::BufferDrop => 4,
    }
}

fn inversion_idx(k: InversionKind) -> usize {
    match k {
        InversionKind::RankTieBreak => 0,
        InversionKind::BucketCollision => 1,
        InversionKind::Reroute => 2,
        InversionKind::QueueOverflow => 3,
        InversionKind::ExitOnly => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_netsim::prelude::{FlowId, HopRecord, PacketId, PacketKind, PathId, SimTime};

    fn record(path: &[u32], exited: Option<u64>) -> PacketRecord {
        let path: PathId = path.iter().map(|&n| NodeId(n)).collect();
        PacketRecord {
            flow: FlowId(1),
            size: 1500,
            kind: PacketKind::Data,
            path,
            injected: SimTime::ZERO,
            exited: exited.map(SimTime::from_ps),
            total_wait: Dur::ZERO,
            dropped: exited.is_none(),
            drop_cause: None,
            hops: Vec::new(),
        }
    }

    fn hop(node: u32, tx_ps: u64) -> HopRecord {
        HopRecord {
            node: NodeId(node),
            arrived: SimTime::from_ps(tx_ps.saturating_sub(10)),
            tx_start: SimTime::from_ps(tx_ps),
            waited: Dur::ZERO,
        }
    }

    fn diverged<'a>(
        orig: &'a PacketRecord,
        rep: &'a PacketRecord,
        cause: DivergenceCause,
        lateness_ps: u64,
    ) -> Divergence<'a> {
        Divergence {
            id: PacketId(7),
            original: orig,
            replay: Some(rep),
            cause,
            lateness: Dur::from_ps(lateness_ps),
        }
    }

    #[test]
    fn timing_inversion_blames_first_late_hop() {
        let mut orig = record(&[0, 2, 3, 1], Some(900));
        orig.hops = vec![hop(2, 100), hop(3, 200)];
        let mut rep = record(&[0, 2, 3, 1], Some(950));
        rep.hops = vec![hop(2, 100), hop(3, 260)];
        let d = diverged(&orig, &rep, DivergenceCause::OverdueWithinT, 50);
        let b = first_divergent_hop(&d, ReplayFlavor::Exact);
        assert_eq!(b.node, NodeId(3));
        assert_eq!(b.kind, InversionKind::RankTieBreak);
        assert_eq!(b.hop_lateness, Some(Dur::from_ps(60)));
        assert_eq!(b.link, Some((NodeId(3), NodeId(1))));
        let q = first_divergent_hop(&d, ReplayFlavor::Quantized { k: 1 });
        assert_eq!(q.kind, InversionKind::BucketCollision);
    }

    #[test]
    fn path_change_is_a_reroute_at_the_fork() {
        let orig = record(&[0, 2, 3, 1], Some(900));
        let rep = record(&[0, 2, 4, 1], Some(990));
        let d = diverged(&orig, &rep, DivergenceCause::OverdueBeyondT, 90);
        let b = first_divergent_hop(&d, ReplayFlavor::Churn);
        assert_eq!(b.kind, InversionKind::Reroute);
        assert_eq!(b.node, NodeId(2));
        assert_eq!(b.link, Some((NodeId(2), NodeId(4))));
    }

    #[test]
    fn buffer_drop_blames_last_handling_switch() {
        let orig = record(&[0, 2, 3, 1], Some(900));
        let mut rep = record(&[0, 2, 3, 1], None);
        rep.drop_cause = Some(DropCause::Buffer);
        rep.hops = vec![hop(2, 100)];
        let d = diverged(&orig, &rep, DivergenceCause::BufferDrop, 0);
        let b = first_divergent_hop(&d, ReplayFlavor::Exact);
        assert_eq!(b.kind, InversionKind::QueueOverflow);
        assert_eq!(b.node, NodeId(2));
        assert_eq!(b.link, Some((NodeId(2), NodeId(3))));
    }

    #[test]
    fn end_to_end_records_degrade_to_exit_blame() {
        let orig = record(&[0, 2, 1], Some(900));
        let rep = record(&[0, 2, 1], Some(1_000));
        let d = diverged(&orig, &rep, DivergenceCause::OverdueWithinT, 100);
        let b = first_divergent_hop(&d, ReplayFlavor::Exact);
        assert_eq!(b.kind, InversionKind::ExitOnly);
        assert_eq!(b.node, NodeId(1), "destination takes the blame");
        let missing = Divergence {
            replay: None,
            ..diverged(&orig, &rep, DivergenceCause::MissingInReplay, 0)
        };
        assert_eq!(
            first_divergent_hop(&missing, ReplayFlavor::Exact).kind,
            InversionKind::ExitOnly
        );
    }

    #[test]
    fn collector_conserves_counts_and_ranks_nodes() {
        let mut c = BlameCollector::new(ReplayFlavor::Exact);
        let orig = record(&[0, 2, 1], Some(900));
        for i in 0..5u64 {
            let rep = record(&[0, 2, 1], Some(900 + 10 * (i + 1)));
            c.divergence(&Divergence {
                id: PacketId(i),
                original: &orig,
                replay: Some(&rep),
                cause: DivergenceCause::OverdueWithinT,
                lateness: Dur::from_ps(10 * (i + 1)),
            });
        }
        let s = c.summary();
        assert_eq!(s.mismatches, 5);
        assert_eq!(s.cause_total(), 5);
        assert_eq!(s.inversion_total(), 5);
        assert_eq!(s.top_nodes, vec![(1, 5)]);
        assert_eq!(c.worst_cases().len(), 5);
        assert_eq!(c.worst_cases()[0].lateness, Dur::from_ps(50), "sorted desc");
        let tables = c.render_tables(4);
        assert!(tables.contains("mismatch taxonomy"));
        assert!(tables.contains("NodeId(1)"));
        assert!(tables.contains("FlowId(1)"));
    }
}
