//! Round-trip property: every JSON line [`JobRecord::to_json`] can emit —
//! including the closed-loop transport block, a `null` Jain, the overflow
//! FCT bucket (`edge_bytes: null`) and the non-finite-float fallbacks in
//! `json_num` — must parse under the in-tree reader
//! (`ups_sweep::json::parse`) with every field surviving unchanged.
//!
//! The emitter (hand-rolled formatting in `ups-metrics`) and the parser
//! (recursive descent in `ups-sweep`) are maintained independently; this
//! test is the contract that keeps them agreeing as the record schema
//! grows.

use proptest::prelude::*;
use proptest::{bool as any_bool, collection, sample};
use ups_dynamics::FailureProfile;
use ups_metrics::{DisruptionSummary, DivergenceSummary, RunSummary, TransportSummary};
use ups_netsim::prelude::{DeadLinkPolicy, Dur, MapperKind};
use ups_sweep::json::{parse, JsonValue};
use ups_sweep::{Failures, JobRecord, JobSpec, Queues, Scheduler, TrafficMode};

/// Names with every character class `json_escape` handles.
const NAMES: [&str; 6] = [
    "Line(3)",
    "FQ/FIFO+",
    "quote\"inside",
    "back\\slash",
    "tab\tand\nnewline",
    "unicode café →",
];

/// Scheduler labels, the mixed row's `/` and `+` among them.
const SCHEDULERS: [&str; 4] = ["FQ/FIFO+", "FIFO+", "LSTF", "Random"];

/// Finite-or-not floats: the emitter must fall back to `null` for the
/// non-finite ones.
fn any_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(|n| (n as f64 / 1e12) - 9e6),
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// Bucket edges including the overflow sentinel.
fn any_edge() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..40_000_000, Just(30_762_200), Just(u64::MAX)]
}

/// What the parser must hold for a float the emitter was given.
fn assert_float_field(parsed: Option<&JsonValue>, input: f64, what: &str) {
    match parsed {
        Some(JsonValue::Number(x)) => {
            prop_assert_ok(input.is_finite(), what);
            assert_eq!(x.to_bits(), input.to_bits(), "{what}: {x} vs {input}");
        }
        Some(JsonValue::Null) => prop_assert_ok(!input.is_finite(), what),
        other => panic!("{what}: unexpected {other:?}"),
    }
}

fn prop_assert_ok(cond: bool, what: &str) {
    assert!(cond, "field {what} round-tripped into the wrong shape");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]
    #[test]
    fn every_record_line_parses_back(
        names in (sample::select(&NAMES), sample::select(&NAMES), sample::select(&SCHEDULERS)),
        ids in (0usize..5000, 0u64..1000, 0u64..1 << 53, 0u64..1 << 53, 0u64..10_000),
        floats in (any_float(), any_float(), any_float(), any_float()),
        buckets in collection::vec((any_edge(), any_float(), 0usize..500), 0..6),
        options in (any_bool::ANY, any_bool::ANY, any_bool::ANY, any_bool::ANY, any_bool::ANY),
        transport in (0usize..200, 0u64..1 << 53, 0u64..5000, 0u64..500, any_bool::ANY, 1u64..10_000_000_000),
    ) {
        let (topology, profile, scheduler) = names;
        let (job_id, seed, packets, delivered, dropped) = ids;
        let (delay_mean, delay_p99, fct_mean, wall) = floats;
        let (closed, jain_some, replay_some, with_timing, transport_some) = options;
        let (completed, goodput, retx, rtos, rest_some, rest_bps) = transport;

        let traffic = if closed { TrafficMode::ClosedLoop } else { TrafficMode::OpenLoop };
        let jain = jain_some.then_some(delay_p99); // reuse an arbitrary float
        // The queues sub-axis rides on replay jobs; exercise both a
        // quantized and an exact-only shape. `rest_some` doubles as "the
        // replay compared zero packets" so the None-vs-Some(match rate)
        // distinction of the empty comparison is pinned here: a replay
        // that matched nothing round-trips as null, never as a number.
        let quantized = replay_some && transport_some;
        let empty_comparison = replay_some && rest_some;
        let spec = JobSpec {
            job_id,
            topology,
            profile,
            scheduler: Scheduler::from_name(scheduler).unwrap(),
            traffic,
            rest_bps: (closed && rest_some).then_some(rest_bps),
            utilization: 0.7,
            seed,
            window: Dur::from_ms(2),
            horizon: closed.then_some(Dur::from_ms(40)),
            buffer_bytes: rest_some.then_some(5_000_000),
            replay: replay_some,
            queues: quantized.then_some(Queues {
                k: (retx as u32).max(1),
                mapper: MapperKind::Dynamic,
            }),
            // The dynamics axis is open-loop only and excludes queues;
            // exercise it on the records that carry neither.
            failures: (!closed && !quantized).then_some(Failures {
                profile: FailureProfile::RandomLinks,
                rate: 0.4,
                inflight: DeadLinkPolicy::Drop,
            }),
            max_packets: jain_some.then_some(4096),
        };
        let churned = spec.failures.is_some();
        let summary = RunSummary {
            flows: completed,
            packets,
            delivered,
            dropped,
            delay_mean_s: delay_mean,
            delay_p99_s: delay_p99,
            fct_mean_s: fct_mean,
            fct_buckets: buckets.clone(),
            jain,
            replay_match_rate: (replay_some && !empty_comparison).then_some(fct_mean),
            replay_frac_gt_t: (replay_some && !empty_comparison).then_some(0.0),
            quantized_match_rate: (quantized && !empty_comparison).then_some(delay_mean),
            quantized_frac_gt_t: (quantized && !empty_comparison).then_some(0.0),
            quantized_fct_delta_s: (quantized && !empty_comparison).then_some(delay_p99),
            transport: transport_some.then_some(TransportSummary {
                completed_flows: completed,
                goodput_bytes: goodput,
                retransmits: retx,
                rto_events: rtos,
                slack_ooo: goodput % 7,
            }),
            disruption: churned.then_some(DisruptionSummary {
                links_failed: rtos,
                rerouted: retx,
                dropped_at_dead_link: goodput % 11,
                churn_replay_match_rate: jain_some.then_some(fct_mean),
            }),
            // The v5 forensics block rides on replay jobs. Keep the
            // counts conserved (Σ causes = Σ inversions = mismatches) —
            // the validator rejects anything else, so the roundtrip
            // should exercise the shapes that can actually occur.
            divergence: (replay_some && !empty_comparison).then_some(DivergenceSummary {
                mismatches: retx + rtos,
                overdue_within_t: retx,
                overdue_beyond_t: rtos,
                missing_in_replay: 0,
                dead_link_drop: 0,
                buffer_drop: 0,
                rank_tie_break: rtos,
                bucket_collision: 0,
                reroute: 0,
                queue_overflow: 0,
                exit_only: retx,
                top_nodes: vec![(3, retx), (7, rtos)],
                hop_lateness_p50_s: jain_some.then_some(delay_mean),
                hop_lateness_p99_s: jain_some.then_some(delay_p99),
            }),
        };
        let record = JobRecord { spec, summary, wall_s: wall };

        let line = record.to_json(with_timing);
        prop_assert!(!line.contains('\n'), "JSONL lines must be single-line: {line}");
        let v = parse(&line).map_err(|e| {
            TestCaseError::Fail(format!("emitted line does not parse: {e}\n{line}"))
        })?;

        prop_assert_eq!(v.get("schema").unwrap().as_str(), Some("ups-sweep-record/v5"));
        prop_assert_eq!(v.get("job_id").unwrap().as_f64(), Some(job_id as f64));

        let scenario = v.get("scenario").unwrap();
        prop_assert_eq!(scenario.get("topology").unwrap().as_str(), Some(topology));
        prop_assert_eq!(scenario.get("profile").unwrap().as_str(), Some(profile));
        prop_assert_eq!(scenario.get("scheduler").unwrap().as_str(), Some(scheduler));
        prop_assert_eq!(
            scenario.get("traffic").unwrap().as_str(),
            Some(traffic.name())
        );
        match record.spec.rest_bps {
            Some(r) => prop_assert_eq!(scenario.get("rest_bps").unwrap().as_f64(), Some(r as f64)),
            None => prop_assert_eq!(scenario.get("rest_bps"), Some(&JsonValue::Null)),
        }
        match record.spec.queues {
            Some(q) => {
                prop_assert_eq!(scenario.get("queues").unwrap().as_f64(), Some(q.k as f64));
                prop_assert_eq!(scenario.get("mapper").unwrap().as_str(), Some("dynamic"));
            }
            None => {
                prop_assert_eq!(scenario.get("queues"), Some(&JsonValue::Null));
                prop_assert_eq!(scenario.get("mapper"), Some(&JsonValue::Null));
            }
        }
        if churned {
            prop_assert_eq!(
                scenario.get("failures").unwrap().as_str(),
                Some("random-links:0.4")
            );
            prop_assert_eq!(scenario.get("inflight").unwrap().as_str(), Some("drop"));
        } else {
            prop_assert_eq!(scenario.get("failures"), Some(&JsonValue::Null));
            prop_assert_eq!(scenario.get("inflight"), Some(&JsonValue::Null));
        }

        let metrics = v.get("metrics").unwrap();
        prop_assert_eq!(metrics.get("packets").unwrap().as_f64(), Some(packets as f64));
        prop_assert_eq!(metrics.get("delivered").unwrap().as_f64(), Some(delivered as f64));
        assert_float_field(metrics.get("delay_mean_s"), delay_mean, "delay_mean_s");
        assert_float_field(metrics.get("delay_p99_s"), delay_p99, "delay_p99_s");
        assert_float_field(metrics.get("fct_mean_s"), fct_mean, "fct_mean_s");
        match jain {
            Some(j) => assert_float_field(metrics.get("jain"), j, "jain"),
            None => prop_assert_eq!(metrics.get("jain"), Some(&JsonValue::Null)),
        }
        // The empty-comparison distinction: a requested replay whose
        // comparison covered no packets emits null, never 1.0 (and the
        // quantized fields follow the same rule).
        for (field, value) in [
            ("replay_match_rate", record.summary.replay_match_rate),
            ("quantized_match_rate", record.summary.quantized_match_rate),
            ("quantized_frac_gt_t", record.summary.quantized_frac_gt_t),
            ("quantized_fct_delta_s", record.summary.quantized_fct_delta_s),
        ] {
            match value {
                Some(x) => assert_float_field(metrics.get(field), x, field),
                None => prop_assert_eq!(
                    metrics.get(field),
                    Some(&JsonValue::Null),
                    "{} must be null when absent — an empty comparison is not a match",
                    field
                ),
            }
        }

        let parsed_buckets = metrics.get("fct_buckets").unwrap().as_array().unwrap();
        prop_assert_eq!(parsed_buckets.len(), buckets.len());
        for (b, &(edge, mean, n)) in parsed_buckets.iter().zip(&buckets) {
            match b.get("edge_bytes") {
                Some(JsonValue::Null) => prop_assert_eq!(edge, u64::MAX, "only overflow is null"),
                Some(JsonValue::Number(x)) => prop_assert_eq!(x.to_bits(), (edge as f64).to_bits()),
                other => return Err(TestCaseError::Fail(format!("edge_bytes: {other:?}"))),
            }
            assert_float_field(b.get("mean_fct_s"), mean, "bucket mean");
            prop_assert_eq!(b.get("flows").unwrap().as_f64(), Some(n as f64));
        }

        match &record.summary.transport {
            Some(t) => {
                let block = metrics.get("transport").unwrap();
                prop_assert_eq!(
                    block.get("completed_flows").unwrap().as_f64(),
                    Some(t.completed_flows as f64)
                );
                prop_assert_eq!(
                    block.get("goodput_bytes").unwrap().as_f64(),
                    Some(t.goodput_bytes as f64)
                );
                prop_assert_eq!(
                    block.get("retransmits").unwrap().as_f64(),
                    Some(t.retransmits as f64)
                );
                prop_assert_eq!(
                    block.get("rto_events").unwrap().as_f64(),
                    Some(t.rto_events as f64)
                );
                prop_assert_eq!(
                    block.get("slack_ooo").unwrap().as_f64(),
                    Some(t.slack_ooo as f64)
                );
            }
            None => prop_assert_eq!(metrics.get("transport"), Some(&JsonValue::Null)),
        }

        match &record.summary.disruption {
            Some(d) => {
                let block = metrics.get("disruption").unwrap();
                prop_assert_eq!(
                    block.get("links_failed").unwrap().as_f64(),
                    Some(d.links_failed as f64)
                );
                prop_assert_eq!(
                    block.get("rerouted").unwrap().as_f64(),
                    Some(d.rerouted as f64)
                );
                prop_assert_eq!(
                    block.get("dropped_at_dead_link").unwrap().as_f64(),
                    Some(d.dropped_at_dead_link as f64)
                );
                match d.churn_replay_match_rate {
                    Some(x) => assert_float_field(
                        block.get("churn_replay_match_rate"),
                        x,
                        "churn_replay_match_rate",
                    ),
                    None => prop_assert_eq!(
                        block.get("churn_replay_match_rate"),
                        Some(&JsonValue::Null)
                    ),
                }
            }
            None => prop_assert_eq!(metrics.get("disruption"), Some(&JsonValue::Null)),
        }

        match &record.summary.divergence {
            Some(d) => {
                let block = metrics.get("divergence").unwrap();
                prop_assert_eq!(
                    block.get("schema").unwrap().as_str(),
                    Some("ups-forensics/v1")
                );
                prop_assert_eq!(
                    block.get("mismatches").unwrap().as_f64(),
                    Some(d.mismatches as f64)
                );
                prop_assert_eq!(
                    block.get("overdue_within_t").unwrap().as_f64(),
                    Some(d.overdue_within_t as f64)
                );
                prop_assert_eq!(
                    block.get("exit_only").unwrap().as_f64(),
                    Some(d.exit_only as f64)
                );
                match d.hop_lateness_p50_s {
                    Some(x) => {
                        assert_float_field(block.get("hop_lateness_p50_s"), x, "hop p50")
                    }
                    None => prop_assert_eq!(
                        block.get("hop_lateness_p50_s"),
                        Some(&JsonValue::Null)
                    ),
                }
                let nodes = block.get("top_nodes").unwrap().as_array().unwrap();
                prop_assert_eq!(nodes.len(), d.top_nodes.len());
                for (n, &(node, m)) in nodes.iter().zip(&d.top_nodes) {
                    prop_assert_eq!(n.get("node").unwrap().as_f64(), Some(node as f64));
                    prop_assert_eq!(n.get("mismatches").unwrap().as_f64(), Some(m as f64));
                }
            }
            None => prop_assert_eq!(metrics.get("divergence"), Some(&JsonValue::Null)),
        }

        if with_timing {
            assert_float_field(v.get("wall_s"), wall, "wall_s");
        } else {
            prop_assert!(v.get("wall_s").is_none(), "timing-stripped record has no wall_s");
        }

        // Emission is deterministic: the same record yields the same line.
        prop_assert_eq!(line, record.to_json(with_timing));
    }
}
