//! The two degradation curves of the black-box LSTF replay, and why each
//! point sits where it does: match rate and FCT against the number of
//! strict-priority queues K, and match rate against link-failure
//! intensity.
//!
//! One scenario feeds both axes — the engine benchmarks' fat-tree
//! workload (web-search at 70 %, seed 42, ≥ 20 000 packets) under a
//! **Random** original schedule ("completely arbitrary schedules", §2.3)
//! — and every row is one call of the replay entry ([`Replay`]) with a
//! [`BlameCollector`] attached, so each row carries its curve fields *and*
//! its `ups-forensics/v1` attribution:
//!
//! - **Quantization axis** (K ∈ {1, 2, 4, 8, 32, ∞}): one replay set,
//!   replayed eagerly through `Quantized{LSTF}` (SP-PIFO, whose adaptive
//!   bounds degrade monotonically in K) at each finite K and through
//!   exact LSTF for the `k: null` row. Both sides record per-hop, so each
//!   mismatch is attributed to its first divergent hop — bucket
//!   collisions for finite K, rank tie-breaks for exact LSTF. The exact
//!   row is asserted **bit-identical** to the dynamic mapper with an
//!   unbounded level budget (the one mapper provably exact at K = ∞).
//! - **Failure axis** (`random-links` rate ∈ {0, 0.1, …, 0.5}, reroute
//!   in-flight policy): per intensity, the delivered packets are replayed
//!   lazily at their observed `i(p)` along their as-executed paths on the
//!   intact topology. The rate-0 churn run is asserted **bit-identical**
//!   to the plain static-routing run. Capped at 0.5: beyond that the k=4
//!   fat-tree starts partitioning, packets die at dead links instead of
//!   rerouting, and the *survivors* replay better — a survivorship
//!   artifact that masks the congestion story this curve is about.
//!
//! Every row's attribution is asserted **conserved** (Σ causes ≡
//! Σ inversions ≡ the row's mismatch count). The `k: null` and `rate: 0`
//! rows are the same cell reached through the two drive forms; the
//! artifact's validator requires them to agree.
//!
//! Results go to stdout and `BENCH_degradation.json` at the repository
//! root (schema `ups-bench-degradation/v1`, checked by `sweep
//! --validate`). The file has no wall-clock field: regenerating it must
//! reproduce it byte for byte, which CI checks.

use ups_bench::fattree_throughput_workload;
use ups_core::{replay_packets, run_schedule, HeaderInit, Replay, ReplayReport};
use ups_dynamics::{
    churn_replay_with_sink, run_schedule_with_failures, FailureProfile, FailureSchedule,
};
use ups_forensics::{BlameCollector, ReplayFlavor};
use ups_metrics::DivergenceSummary;
use ups_netsim::prelude::*;
use ups_sweep::runner::trace_mean_fct;
use ups_topology::{BuildOptions, Routing, SchedulerAssignment};
use ups_workload::profile_by_name;

const UTILIZATION: f64 = 0.7;
const SEED: u64 = 42;
const MIN_PACKETS: usize = 20_000;
const MAPPER: MapperKind = MapperKind::SpPifo;
/// Finite priority-queue counts; the exact (∞) row follows them.
const KS: [u32; 5] = [1, 2, 4, 8, 32];
/// Failure intensities; 0 is the static baseline row.
const RATES: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

/// One row of either axis.
struct Row {
    /// `K=8`, `f=0.2`: the stdout label.
    label: String,
    /// The axis' own JSON fields: `"k": …, "mean_fct_s": …` or
    /// `"rate": …, "links_failed": …, …`.
    axis_json: String,
    /// The bit-identity flag of an anchor row (`k: null`, `rate: 0`).
    flag: &'static str,
    mean_fct_s: Option<f64>,
    report: ReplayReport,
    summary: DivergenceSummary,
}

impl Row {
    /// Attribution must be conserved before a row is reported: each
    /// mismatched packet got exactly one cause and one inversion.
    fn new(
        label: String,
        axis_json: String,
        report: ReplayReport,
        forensics: &BlameCollector,
    ) -> Row {
        let summary = forensics.summary();
        for (family, total) in [
            ("cause", summary.cause_total()),
            ("inversion", summary.inversion_total()),
        ] {
            assert_eq!(
                total, report.overdue as u64,
                "{label}: {family} counts must sum to the report's mismatches"
            );
        }
        Row {
            label,
            axis_json,
            flag: "",
            mean_fct_s: None,
            report,
            summary,
        }
    }

    fn match_rate(&self) -> f64 {
        self.report.match_rate().expect("non-empty comparison")
    }

    // lint:schema(ups-bench-degradation/v1)
    fn json(&self) -> String {
        format!(
            concat!(
                r#"    {{{}, "compared": {}, "match_rate": {:.6}, "frac_gt_t": {:.6}, "#,
                r#""missing": {}, "max_lateness_us": {:.3}{}, "divergence": {}}}"#
            ),
            self.axis_json,
            self.report.total,
            self.match_rate(),
            self.report.frac_overdue_gt_t(),
            self.report.missing,
            self.report.max_lateness.as_secs_f64() * 1e6,
            self.flag,
            self.summary.to_json()
        )
    }
}

// lint:schema(ups-bench-degradation/v1)
fn main() {
    let (topo, train) = fattree_throughput_workload(UTILIZATION, MIN_PACKETS, SEED);
    let packets = train.packets;
    // The flow list behind the train, for flow start times (mean FCT).
    let flows = profile_by_name("web-search")
        .expect("web-search is registered")
        .flows(
            &topo,
            &mut Routing::new(&topo),
            UTILIZATION,
            train.window,
            SEED,
        );
    assert_eq!(flows.len(), train.flows);
    println!(
        "# degradation: {} packets / {} flows on {} at {:.0}% util, Random original, \
         {} mapper, random-links churn, reroute in-flight policy",
        packets.len(),
        train.flows,
        topo.name,
        UTILIZATION * 100.0,
        MAPPER.name()
    );
    let assign = SchedulerAssignment::uniform(SchedulerKind::Random);

    // ---- Quantization axis: per-hop records on both sides, so the
    // first divergent hop is real (bucket collisions, not exit-only).
    let hop_opts = BuildOptions {
        record: RecordMode::PerHop,
        seed: SEED,
        ..BuildOptions::default()
    };
    let original = run_schedule(&topo, &assign, packets.iter().cloned(), &hop_opts);
    let replay_set = replay_packets(&topo, &original, &packets, HeaderInit::LstfSlack);
    let replay_through = |k: Option<u32>, kind: SchedulerKind| {
        let flavor = k.map_or(ReplayFlavor::Exact, |k| ReplayFlavor::Quantized { k });
        let mut forensics = BlameCollector::new(flavor);
        let (trace, report) = Replay {
            kind,
            opts: hop_opts,
            ..Replay::new(&topo, &original, SEED)
        }
        .eager_set(replay_set.iter().cloned(), &mut forensics);
        let fct = trace_mean_fct(&trace, &flows).expect("the replay delivers");
        let (label, k) = k.map_or(("K=inf".into(), "null".into()), |k| {
            (format!("K={k}"), k.to_string())
        });
        let axis_json = format!(r#""k": {k}, "mean_fct_s": {fct:.9}"#);
        let mut row = Row::new(label, axis_json, report, &forensics);
        row.mean_fct_s = Some(fct);
        (trace, row)
    };
    let mut quantization: Vec<Row> = KS
        .iter()
        .map(|&k| replay_through(Some(k), SchedulerKind::quantized_lstf(k, MAPPER)).1)
        .collect();
    let (exact_trace, mut exact) = replay_through(None, SchedulerKind::Lstf { preemptive: false });
    // K = ∞: the dynamic mapper with an unbounded level budget never
    // coerces, so the whole trace must be bit-identical to exact LSTF —
    // asserted, not assumed.
    let unbounded = SchedulerKind::quantized_lstf(u32::MAX, MapperKind::Dynamic);
    assert_eq!(
        replay_through(Some(u32::MAX), unbounded).0,
        exact_trace,
        "K=inf quantized LSTF must be bit-identical to exact LSTF"
    );
    exact.flag = r#", "bit_identical_to_exact_lstf": true"#;
    quantization.push(exact);

    // ---- Failure axis: churn runs at rising intensity, end-to-end
    // records (the churn replay is the bounded-memory path), Churn-flavor
    // attribution over the delivered subset.
    let churn_opts = BuildOptions {
        record: RecordMode::EndToEnd,
        ..hop_opts
    };
    let plain = run_schedule(&topo, &assign, packets.iter().cloned(), &churn_opts);
    let failures: Vec<Row> = RATES
        .iter()
        .map(|&rate| {
            let schedule = FailureSchedule::generate(
                &topo,
                FailureProfile::RandomLinks,
                rate,
                train.window,
                SEED,
            );
            let churn = run_schedule_with_failures(
                &topo,
                &assign,
                packets.iter().cloned(),
                &schedule,
                DeadLinkPolicy::Reroute,
                &churn_opts,
            );
            let mut forensics = BlameCollector::new(ReplayFlavor::Churn);
            let report = churn_replay_with_sink(&topo, &churn.trace, SEED, &mut forensics);
            let axis_json = format!(
                concat!(
                    r#""rate": {}, "links_failed": {}, "rerouted": {}, "#,
                    r#""dropped_at_dead_link": {}, "delivered": {}"#
                ),
                rate,
                schedule.links_failed(),
                churn.stats.rerouted,
                churn.stats.dropped_dead_link,
                churn.stats.delivered
            );
            let mut row = Row::new(format!("f={rate}"), axis_json, report, &forensics);
            if rate == 0.0 {
                // The zero-failure gate: the churn machinery must cost
                // exactly nothing when nothing fails.
                assert!(schedule.is_empty(), "rate 0 must generate no events");
                assert_eq!(
                    churn.trace, plain,
                    "zero-failure churn run must be bit-identical to the static-routing run"
                );
                assert_eq!((churn.stats.rerouted, churn.stats.link_events), (0, 0));
                row.flag = r#", "bit_identical_to_static_routing": true"#;
            }
            row
        })
        .collect();

    println!(
        "{:>8} {:>9} {:>11} {:>10} {:>10} {:>9} {:>9} {:>12}",
        "axis",
        "compared",
        "match_rate",
        "frac>T",
        "within_T",
        "beyond_T",
        "missing",
        "mean_fct_ms"
    );
    for r in quantization.iter().chain(&failures) {
        println!(
            "{:>8} {:>9} {:>11.4} {:>10.4} {:>10} {:>9} {:>9} {:>12}",
            r.label,
            r.report.total,
            r.match_rate(),
            r.report.frac_overdue_gt_t(),
            r.summary.overdue_within_t,
            r.summary.overdue_beyond_t,
            r.report.missing,
            r.mean_fct_s
                .map_or("-".into(), |s| format!("{:.4}", s * 1e3))
        );
    }

    // The curves this attribution explains: scarce queues hurt, and the
    // finite-K damage shows up as bucket collisions at real hops.
    let (k1, exact) = (&quantization[0], &quantization[KS.len()]);
    assert!(
        k1.match_rate() < exact.match_rate(),
        "K=1 must diverge more than exact LSTF"
    );
    assert!(
        k1.summary.bucket_collision > 0,
        "K=1 divergence must show per-hop bucket collisions"
    );
    // Churn must degrade the replay somewhere, and rising intensity may
    // only improve the match rate by noise (the swept rates stay below
    // the partition/survivorship regime — see the module docs).
    let base = failures[0].match_rate();
    let worst = failures
        .iter()
        .map(Row::match_rate)
        .fold(f64::INFINITY, f64::min);
    println!(
        "# static baseline match {base:.4}; worst under churn {worst:.4} (degradation {:.4})",
        base - worst
    );
    assert!(
        worst < base,
        "churn must degrade the replay somewhere along the curve"
    );
    for w in failures.windows(2) {
        let (prev, next) = (w[0].match_rate(), w[1].match_rate());
        assert!(
            next <= prev + 0.02,
            "match rate rose from {prev:.4} to {next:.4} at {}",
            w[1].label
        );
    }

    let k_rows: Vec<String> = quantization.iter().map(Row::json).collect();
    let rate_rows: Vec<String> = failures.iter().map(Row::json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"ups-bench-degradation/v1\",\n",
            "  \"scenario\": {{\"topology\": \"{}\", \"original\": \"Random\", ",
            "\"mapper\": \"{}\", \"profile\": \"random-links\", \"inflight\": \"reroute\", ",
            "\"utilization\": {}, \"seed\": {}, ",
            "\"packets\": {}, \"flows\": {}, \"window_ms\": {:.3}}},\n",
            "  \"quantization\": [\n{}\n  ],\n",
            "  \"failures\": [\n{}\n  ]\n",
            "}}\n"
        ),
        topo.name,
        MAPPER.name(),
        UTILIZATION,
        SEED,
        packets.len(),
        train.flows,
        train.window.as_secs_f64() * 1e3,
        k_rows.join(",\n"),
        rate_rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_degradation.json");
    std::fs::write(out, &json).expect("write BENCH_degradation.json");
    // The artifact must pass the same gate CI applies.
    let line = ups_sweep::validate_artifact(&json).expect("artifact validates");
    println!("wrote {out}: {line}");
}
