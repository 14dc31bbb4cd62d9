//! The two degradation curves of the black-box LSTF replay, and why each
//! point sits where it does: match rate and FCT against the number of
//! strict-priority queues K, and match rate against link-failure
//! intensity.
//!
//! One scenario feeds both axes — the engine benchmarks' fat-tree
//! workload (web-search at 70 %, seed 42, ≥ 20 000 packets) under a
//! **Random** original schedule ("completely arbitrary schedules", §2.3)
//! — and every row is one sweep [`JobSpec`] on it, run through the sweep
//! engine's job body ([`execute`]), so each row carries its curve fields
//! *and* the `ups-forensics/v1` attribution of the replay it describes:
//!
//! - **Quantization axis** (K ∈ {1, 2, 4, 8, 32, ∞}): the `queues`/`mapper`
//!   sub-axis — the exact replay, then the identical set through
//!   `Quantized{LSTF}` (SP-PIFO, whose adaptive bounds degrade
//!   monotonically in K). Both sides record per-hop, so each mismatch is
//!   attributed to its first divergent hop — bucket collisions for finite
//!   K, rank tie-breaks for exact LSTF. The `k: null` row is the exact
//!   replay of the K = ∞ job, whose quantized replay — the dynamic mapper
//!   with an unbounded level budget, the one mapper provably exact there —
//!   is asserted **bit-identical** to it.
//! - **Failure axis** (`random-links` rate ∈ {0, 0.1, …, 0.5}, reroute
//!   in-flight policy): the `failures`/`inflight` sub-axis — per
//!   intensity, the delivered packets are replayed lazily at their
//!   observed `i(p)` along their as-executed paths on the intact topology.
//!   The rate-0 churn run is asserted **bit-identical** to the plain
//!   static-routing run. Capped at 0.5: beyond that the k=4 fat-tree
//!   starts partitioning, packets die at dead links instead of rerouting,
//!   and the *survivors* replay better — a survivorship artifact that
//!   masks the congestion story this curve is about.
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

use ups_bench::{fattree_throughput_workload, replay_job};
use ups_core::ReplayReport;
use ups_dynamics::FailureProfile;
use ups_metrics::DivergenceSummary;
use ups_netsim::prelude::*;
use ups_sweep::runner::{execute, trace_mean_fct, ReplayRun, SharedScenarios};
use ups_sweep::{Failures, JobSpec, Queues};
use ups_workload::{train_packets, FlowSpec};

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
    fn new(label: String, axis_json: String, replay: ReplayRun) -> Row {
        let ReplayRun {
            report, forensics, ..
        } = replay;
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

/// One quantization-axis row: an eager replay with the mean FCT of its
/// schedule. `k: None` is the exact replay.
fn k_row(k: Option<u32>, replay: ReplayRun, flows: &[FlowSpec]) -> Row {
    let fct = trace_mean_fct(&replay.trace, flows).expect("the replay delivers");
    let (label, k) = k.map_or(("K=inf".into(), "null".into()), |k| {
        (format!("K={k}"), k.to_string())
    });
    let axis_json = format!(r#""k": {k}, "mean_fct_s": {fct:.9}"#);
    let mut row = Row::new(label, axis_json, replay);
    row.mean_fct_s = Some(fct);
    row
}

fn main() {
    let (topo, train) = fattree_throughput_workload(UTILIZATION, MIN_PACKETS, SEED);
    println!(
        "# degradation: {} packets / {} flows on {} at {:.0}% util, Random original, \
         {} mapper, random-links churn, reroute in-flight policy",
        train_packets(&train.flows),
        train.flows.len(),
        topo.name,
        UTILIZATION * 100.0,
        MAPPER.name()
    );
    // The scenario as a sweep job, at the calibrated window; each row
    // sets one sub-axis on it.
    let base = replay_job("FatTree(k=4)", UTILIZATION, "Random", train.window, SEED);
    let shared = SharedScenarios::for_jobs([&base]);
    let run = |spec: &JobSpec, record| execute(spec, &shared, record, &[], None);

    // ---- Quantization axis: per-hop records on both sides, so the
    // first divergent hop is real (bucket collisions, not exit-only).
    let quantized_job = |k, mapper: MapperKind| {
        let spec = JobSpec {
            queues: Some(Queues { k, mapper }),
            ..base
        };
        let mut job = run(&spec, RecordMode::PerHop);
        let quantized = job.replays.pop().expect("the quantized replay ran");
        let exact = job.replays.pop().expect("after the exact replay");
        (exact, quantized, job.flows)
    };
    let mut quantization: Vec<Row> = KS
        .iter()
        .map(|&k| {
            let (_, quantized, flows) = quantized_job(k, MAPPER);
            k_row(Some(k), quantized, &flows)
        })
        .collect();
    // K = ∞: the dynamic mapper with an unbounded level budget never
    // coerces, so the whole trace must be bit-identical to exact LSTF —
    // asserted, not assumed.
    let (exact, unbounded, flows) = quantized_job(u32::MAX, MapperKind::Dynamic);
    assert_eq!(
        unbounded.trace, exact.trace,
        "K=inf quantized LSTF must be bit-identical to exact LSTF"
    );
    let mut exact = k_row(None, exact, &flows);
    exact.flag = r#", "bit_identical_to_exact_lstf": true"#;
    quantization.push(exact);

    // ---- Failure axis: churn runs at rising intensity, end-to-end
    // records (the churn replay is the bounded-memory path), Churn-flavor
    // attribution over the delivered subset.
    let static_spec = JobSpec {
        replay: false,
        ..base
    };
    let plain = run(&static_spec, RecordMode::EndToEnd).original;
    let failures: Vec<Row> = RATES
        .iter()
        .map(|&rate| {
            let spec = JobSpec {
                failures: Some(Failures {
                    profile: FailureProfile::RandomLinks,
                    rate,
                    inflight: DeadLinkPolicy::Reroute,
                }),
                ..base
            };
            let mut job = run(&spec, RecordMode::EndToEnd);
            let churn = job
                .summary
                .disruption
                .expect("a failures job is a churn run");
            let axis_json = format!(
                concat!(
                    r#""rate": {}, "links_failed": {}, "rerouted": {}, "#,
                    r#""dropped_at_dead_link": {}, "delivered": {}"#
                ),
                rate,
                churn.links_failed,
                churn.rerouted,
                churn.dropped_at_dead_link,
                job.summary.delivered
            );
            let replay = job.replays.pop().expect("the churn replay ran");
            let mut row = Row::new(format!("f={rate}"), axis_json, replay);
            if rate == 0.0 {
                // The zero-failure gate: the churn machinery must cost
                // exactly nothing when nothing fails.
                assert_eq!(
                    (churn.links_failed, churn.rerouted),
                    (0, 0),
                    "rate 0 must fail no link"
                );
                assert_eq!(
                    job.original, plain,
                    "zero-failure churn run must be bit-identical to the static-routing run"
                );
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
        train_packets(&train.flows),
        train.flows.len(),
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
