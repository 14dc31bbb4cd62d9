//! A serializable per-run metrics summary — the record type the sweep
//! result store (`ups-sweep`) streams one JSON line of per job.
//!
//! Plain data + hand-rolled JSON emission (the workspace is offline — no
//! serde; see DESIGN.md §6). Emission is deterministic: field order is
//! fixed and numbers use Rust's shortest round-trip formatting, so two
//! runs that computed identical values emit byte-identical JSON.

/// What a closed-loop (TCP) run reports on top of the packet metrics —
/// distilled from `ups_transport::TransportStats` by the sweep runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportSummary {
    /// Flows whose last in-order byte reached the receiver.
    pub completed_flows: usize,
    /// Total in-order bytes delivered across all flows (goodput).
    pub goodput_bytes: u64,
    /// Data segments re-sent (fast retransmit + go-back-N).
    pub retransmits: u64,
    /// Retransmission-timeout events (each shrinks cwnd to one segment).
    pub rto_events: u64,
    /// Out-of-order arrivals the fairness slack assigner clamped — a
    /// warning counter: non-zero means a sender fed the §3.3 recurrence
    /// against arrival order and its flows got conservatively less slack.
    pub slack_ooo: u64,
}

impl TransportSummary {
    /// Compact JSON object.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                r#"{{"completed_flows":{},"goodput_bytes":{},"#,
                r#""retransmits":{},"rto_events":{},"slack_ooo":{}}}"#
            ),
            self.completed_flows,
            self.goodput_bytes,
            self.retransmits,
            self.rto_events,
            self.slack_ooo
        )
    }
}

/// What a job on a *churning* network (the `--failures` axis) reports —
/// distilled from `ups_netsim::SimStats` and the failure schedule by the
/// sweep runner.
#[derive(Debug, Clone, PartialEq)]
pub struct DisruptionSummary {
    /// Distinct links the failure schedule took down during the run.
    pub links_failed: u64,
    /// Packets rerouted at their current hop by the dynamics layer.
    pub rerouted: u64,
    /// Packets lost at a dead link (flushed under the drop policy, or
    /// unroutable after the failure disconnected their destination).
    pub dropped_at_dead_link: u64,
    /// Match rate of the churn replay: the delivered packets, re-run at
    /// their observed `i(p)` along their observed (as-executed) paths
    /// through black-box LSTF on the intact topology, scored against the
    /// original `o(p)`. `None` when the job skipped the replay or
    /// delivered nothing.
    pub churn_replay_match_rate: Option<f64>,
}

impl DisruptionSummary {
    /// Compact JSON object.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                r#"{{"links_failed":{},"rerouted":{},"dropped_at_dead_link":{},"#,
                r#""churn_replay_match_rate":{}}}"#
            ),
            self.links_failed,
            self.rerouted,
            self.dropped_at_dead_link,
            json_opt_num(self.churn_replay_match_rate)
        )
    }
}

/// What the replay-divergence forensics pass reports — the per-cause
/// mismatch taxonomy, the first-divergent-hop inversion classes, and the
/// bounded blame aggregates, distilled from `ups_forensics::BlameCollector`
/// by the sweep runner. Carried by sweep records as the `divergence`
/// block; also emitted standalone by the forensics bench.
///
/// Two conservation invariants hold by construction and are enforced by
/// the artifact validator: the five cause counts sum to `mismatches`,
/// and the five inversion counts sum to `mismatches` (every divergent
/// packet is classified exactly once on each axis).
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceSummary {
    /// Total mismatched packets (≡ `ReplayReport::overdue`).
    pub mismatches: u64,
    /// Delivered late by ≤ `T` (the paper's threshold).
    pub overdue_within_t: u64,
    /// Delivered late by > `T`.
    pub overdue_beyond_t: u64,
    /// Never delivered by the replay, no drop recorded.
    pub missing_in_replay: u64,
    /// Dropped by the replay at a dead link.
    pub dead_link_drop: u64,
    /// Dropped by the replay from a full buffer.
    pub buffer_drop: u64,
    /// First divergent hop lost a rank tie the original won.
    pub rank_tie_break: u64,
    /// First divergent hop collided inside a quantization bucket.
    pub bucket_collision: u64,
    /// Replay took a different path (reroute or dead-link diversion).
    pub reroute: u64,
    /// Replay dropped the packet from a full queue.
    pub queue_overflow: u64,
    /// Divergence observable only at the exit (end-to-end records, or a
    /// packet the replay never saw) — no hop to blame.
    pub exit_only: u64,
    /// Top switches by overdue mass: `(node_index, mismatches whose
    /// first divergent hop is at that node)`, descending, capped.
    pub top_nodes: Vec<(u32, u64)>,
    /// Median per-hop lateness at the first divergent hop (seconds);
    /// `None` when no divergence carried hop timelines.
    pub hop_lateness_p50_s: Option<f64>,
    /// 99th-percentile per-hop lateness at the first divergent hop.
    pub hop_lateness_p99_s: Option<f64>,
}

impl DivergenceSummary {
    /// Sum of the five cause counts — must equal [`Self::mismatches`].
    pub fn cause_total(&self) -> u64 {
        self.overdue_within_t
            + self.overdue_beyond_t
            + self.missing_in_replay
            + self.dead_link_drop
            + self.buffer_drop
    }

    /// Sum of the five inversion counts — must equal [`Self::mismatches`].
    pub fn inversion_total(&self) -> u64 {
        self.rank_tie_break
            + self.bucket_collision
            + self.reroute
            + self.queue_overflow
            + self.exit_only
    }

    /// Compact JSON object, schema-tagged.
    pub fn to_json(&self) -> String {
        let nodes: Vec<String> = self
            .top_nodes
            .iter()
            .map(|&(node, n)| format!(r#"{{"node":{node},"mismatches":{n}}}"#))
            .collect();
        format!(
            concat!(
                r#"{{"schema":"ups-forensics/v1","mismatches":{},"#,
                r#""overdue_within_t":{},"overdue_beyond_t":{},"#,
                r#""missing_in_replay":{},"dead_link_drop":{},"buffer_drop":{},"#,
                r#""rank_tie_break":{},"bucket_collision":{},"reroute":{},"#,
                r#""queue_overflow":{},"exit_only":{},"#,
                r#""hop_lateness_p50_s":{},"hop_lateness_p99_s":{},"#,
                r#""top_nodes":[{}]}}"#
            ),
            self.mismatches,
            self.overdue_within_t,
            self.overdue_beyond_t,
            self.missing_in_replay,
            self.dead_link_drop,
            self.buffer_drop,
            self.rank_tie_break,
            self.bucket_collision,
            self.reroute,
            self.queue_overflow,
            self.exit_only,
            json_opt_num(self.hop_lateness_p50_s),
            json_opt_num(self.hop_lateness_p99_s),
            nodes.join(",")
        )
    }
}

/// Everything one sweep job reports about its run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Flows with at least one delivered packet (under a `max_packets`
    /// cap this is fewer than the workload generator produced).
    pub flows: usize,
    /// Packets injected.
    pub packets: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped from full buffers.
    pub dropped: u64,
    /// Mean end-to-end delay over delivered data packets (seconds).
    pub delay_mean_s: f64,
    /// 99th-percentile end-to-end delay (seconds).
    pub delay_p99_s: f64,
    /// Mean flow completion time (seconds; last delivered packet per flow).
    pub fct_mean_s: f64,
    /// Mean FCT per size bucket: `(bucket_edge_bytes, mean_fct_s, flows)`.
    /// The trailing overflow bucket uses [`crate::fct::OVERFLOW_EDGE`] as
    /// its edge and serializes it as `null`.
    pub fct_buckets: Vec<(u64, f64, usize)>,
    /// Jain fairness index over per-flow mean throughput; `None` when no
    /// flow delivered any bytes (a dead run must not claim perfect
    /// fairness).
    pub jain: Option<f64>,
    /// Fraction of packets the LSTF replay got out on time
    /// (`1 − frac_overdue`); `None` when the job ran without a replay
    /// **or** the comparison covered no packets (an empty comparison
    /// matched nothing and must not read as a perfect score).
    pub replay_match_rate: Option<f64>,
    /// Fraction of packets the replay missed by more than `T`.
    pub replay_frac_gt_t: Option<f64>,
    /// Match rate of the *quantized* LSTF replay (K strict-priority
    /// queues); `None` when the job carried no `--queues` axis value.
    pub quantized_match_rate: Option<f64>,
    /// Fraction the quantized replay missed by more than `T`.
    pub quantized_frac_gt_t: Option<f64>,
    /// Mean-FCT penalty of quantization: quantized-replay mean FCT minus
    /// exact-LSTF-replay mean FCT, in seconds (positive = quantization
    /// made flows slower).
    pub quantized_fct_delta_s: Option<f64>,
    /// Closed-loop transport metrics; `None` for open-loop (UDP) runs.
    pub transport: Option<TransportSummary>,
    /// Network-dynamics metrics; `None` when the job ran on a static
    /// (failure-free) network.
    pub disruption: Option<DisruptionSummary>,
    /// Replay-divergence attribution for the job's most detailed replay
    /// (quantized when the `--queues` axis is present, churn for failure
    /// jobs, exact otherwise); `None` when the job ran no replay.
    pub divergence: Option<DivergenceSummary>,
}

impl RunSummary {
    /// Compact single-line JSON object (JSONL-friendly).
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .fct_buckets
            .iter()
            .map(|&(edge, mean, n)| {
                let edge = if edge == crate::fct::OVERFLOW_EDGE {
                    "null".into() // the overflow bucket has no real edge
                } else {
                    edge.to_string()
                };
                format!(
                    r#"{{"edge_bytes":{edge},"mean_fct_s":{},"flows":{n}}}"#,
                    json_num(mean)
                )
            })
            .collect();
        format!(
            concat!(
                r#"{{"flows":{},"packets":{},"delivered":{},"dropped":{},"#,
                r#""delay_mean_s":{},"delay_p99_s":{},"fct_mean_s":{},"#,
                r#""jain":{},"replay_match_rate":{},"replay_frac_gt_t":{},"#,
                r#""quantized_match_rate":{},"quantized_frac_gt_t":{},"#,
                r#""quantized_fct_delta_s":{},"#,
                r#""transport":{},"disruption":{},"divergence":{},"fct_buckets":[{}]}}"#
            ),
            self.flows,
            self.packets,
            self.delivered,
            self.dropped,
            json_num(self.delay_mean_s),
            json_num(self.delay_p99_s),
            json_num(self.fct_mean_s),
            json_opt_num(self.jain),
            json_opt_num(self.replay_match_rate),
            json_opt_num(self.replay_frac_gt_t),
            json_opt_num(self.quantized_match_rate),
            json_opt_num(self.quantized_frac_gt_t),
            json_opt_num(self.quantized_fct_delta_s),
            match &self.transport {
                Some(t) => t.to_json(),
                None => "null".into(),
            },
            match &self.disruption {
                Some(d) => d.to_json(),
                None => "null".into(),
            },
            match &self.divergence {
                Some(d) => d.to_json(),
                None => "null".into(),
            },
            buckets.join(",")
        )
    }
}

/// A finite `f64` as JSON (shortest round-trip form); non-finite values
/// become `null` — JSON has no NaN/Infinity.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// `Option<f64>` as JSON.
pub fn json_opt_num(x: Option<f64>) -> String {
    match x {
        Some(v) => json_num(v),
        None => "null".into(),
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunSummary {
        RunSummary {
            flows: 3,
            packets: 100,
            delivered: 99,
            dropped: 1,
            delay_mean_s: 0.001,
            delay_p99_s: 0.01,
            fct_mean_s: 0.25,
            fct_buckets: vec![(1460, 0.1, 2), (2920, 0.0, 0), (u64::MAX, 0.9, 1)],
            jain: Some(0.97),
            replay_match_rate: Some(0.9984),
            replay_frac_gt_t: Some(0.0),
            quantized_match_rate: None,
            quantized_frac_gt_t: None,
            quantized_fct_delta_s: None,
            transport: None,
            disruption: None,
            divergence: None,
        }
    }

    #[test]
    fn json_is_single_line_and_stable() {
        let s = sample().to_json();
        assert!(!s.contains('\n'));
        assert!(s.contains(r#""delivered":99"#));
        assert!(s.contains(r#""replay_match_rate":0.9984"#));
        assert!(s.contains(r#""edge_bytes":1460"#));
        assert!(s.contains(r#""transport":null"#));
        assert!(
            s.contains(r#"{"edge_bytes":null,"mean_fct_s":0.9,"flows":1}"#),
            "overflow bucket edge must serialize as null: {s}"
        );
        assert_eq!(s, sample().to_json(), "emission must be deterministic");
    }

    #[test]
    fn none_replay_serializes_as_null() {
        let mut r = sample();
        r.replay_match_rate = None;
        r.replay_frac_gt_t = None;
        assert!(r.to_json().contains(r#""replay_match_rate":null"#));
    }

    #[test]
    fn quantized_fields_serialize_as_numbers_or_null() {
        let mut r = sample();
        assert!(r.to_json().contains(r#""quantized_match_rate":null"#));
        r.quantized_match_rate = Some(0.75);
        r.quantized_frac_gt_t = Some(0.1);
        r.quantized_fct_delta_s = Some(0.0025);
        let s = r.to_json();
        assert!(s.contains(r#""quantized_match_rate":0.75"#));
        assert!(s.contains(r#""quantized_frac_gt_t":0.1"#));
        assert!(s.contains(r#""quantized_fct_delta_s":0.0025"#));
    }

    #[test]
    fn dead_run_jain_is_null_not_one() {
        let mut r = sample();
        r.jain = None;
        assert!(r.to_json().contains(r#""jain":null"#));
    }

    #[test]
    fn transport_block_serializes() {
        let mut r = sample();
        r.transport = Some(TransportSummary {
            completed_flows: 7,
            goodput_bytes: 123_456,
            retransmits: 3,
            rto_events: 1,
            slack_ooo: 2,
        });
        let s = r.to_json();
        assert!(s.contains(concat!(
            r#""transport":{"completed_flows":7,"goodput_bytes":123456,"#,
            r#""retransmits":3,"rto_events":1,"slack_ooo":2}"#
        )));
    }

    #[test]
    fn disruption_block_serializes_with_nullable_match_rate() {
        let mut r = sample();
        assert!(r.to_json().contains(r#""disruption":null"#));
        r.disruption = Some(DisruptionSummary {
            links_failed: 4,
            rerouted: 120,
            dropped_at_dead_link: 7,
            churn_replay_match_rate: Some(0.91),
        });
        let s = r.to_json();
        assert!(s.contains(concat!(
            r#""disruption":{"links_failed":4,"rerouted":120,"#,
            r#""dropped_at_dead_link":7,"churn_replay_match_rate":0.91}"#
        )));
        r.disruption.as_mut().unwrap().churn_replay_match_rate = None;
        assert!(r.to_json().contains(r#""churn_replay_match_rate":null"#));
    }

    #[test]
    fn divergence_block_serializes_with_schema_tag() {
        let mut r = sample();
        assert!(r.to_json().contains(r#""divergence":null"#));
        let d = DivergenceSummary {
            mismatches: 10,
            overdue_within_t: 4,
            overdue_beyond_t: 3,
            missing_in_replay: 1,
            dead_link_drop: 0,
            buffer_drop: 2,
            rank_tie_break: 5,
            bucket_collision: 2,
            reroute: 0,
            queue_overflow: 2,
            exit_only: 1,
            top_nodes: vec![(3, 6), (9, 4)],
            hop_lateness_p50_s: Some(1.5e-6),
            hop_lateness_p99_s: Some(4e-5),
        };
        assert_eq!(d.cause_total(), d.mismatches);
        assert_eq!(d.inversion_total(), d.mismatches);
        r.divergence = Some(d);
        let s = r.to_json();
        assert!(s.contains(r#""divergence":{"schema":"ups-forensics/v1","mismatches":10"#));
        assert!(s.contains(r#""top_nodes":[{"node":3,"mismatches":6},{"node":9,"mismatches":4}]"#));
        assert!(s.contains(r#""hop_lateness_p50_s":0.0000015"#));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(0.7), "0.7");
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny"), r#"x\ny"#);
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
