//! Divergence attribution across the two degradation axes: *why* does
//! the black-box LSTF replay miss its targets as priority queues get
//! scarce and as links churn?
//!
//! The quantized and failures benches report the match-rate curves; this
//! bench rides the same scenario (the engine benchmarks' fat-tree
//! workload under a **Random** original schedule) and attaches a
//! [`ups_forensics::BlameCollector`] to every comparison:
//!
//! - **Quantization axis** (K ∈ {1, 8, ∞}): both runs record per-hop, so
//!   each mismatch is attributed to its first divergent hop — bucket
//!   collisions for finite K, rank tie-breaks for exact LSTF.
//! - **Failure axis** (rate ∈ {0, 0.25, 0.5}): the churn replay scores
//!   the delivered subset; drops are attributed to their causes and
//!   timing misses to exit lateness (the churn replay records
//!   end-to-end, so hop blame degrades to exit-only — by design, it is
//!   the sweep's bounded-memory path).
//!
//! Every row's attribution is asserted **conserved**: Σ causes ≡
//! Σ inversions ≡ the row's `ReplayReport` mismatch count.
//!
//! Results go to stdout and `BENCH_divergence.json` at the repository
//! root (schema `ups-bench-divergence/v1`, checked by `sweep
//! --validate`). Scale knobs: `UPS_FORENSICS_PACKETS` (default 30000),
//! `UPS_FORENSICS_SEED` (default 7).

use ups_bench::fattree_throughput_workload;
use ups_core::{compare_with_sink, replay_packets, run_schedule, HeaderInit, ReplayReport};
use ups_dynamics::{
    churn_replay_with_sink, run_schedule_with_failures, FailureProfile, FailureSchedule,
};
use ups_forensics::{BlameCollector, ReplayFlavor};
use ups_metrics::DivergenceSummary;
use ups_netsim::prelude::*;
use ups_topology::{build_simulator, BuildOptions, SchedulerAssignment};
use ups_workload::MTU;

const UTILIZATION: f64 = 0.7;
/// Finite priority-queue counts; `None` is the exact (∞) reference row.
const KS: [Option<u32>; 3] = [Some(1), Some(8), None];
/// Failure intensities; 0 is the static baseline row.
const RATES: [f64; 3] = [0.0, 0.25, 0.5];

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Row {
    report: ReplayReport,
    summary: DivergenceSummary,
}

/// Attribution must be conserved on every row before it is reported:
/// each mismatched packet got exactly one cause and one inversion.
fn conserved(label: &str, row: &Row) {
    assert_eq!(
        row.summary.cause_total(),
        row.report.overdue as u64,
        "{label}: cause counts must sum to the report's mismatches"
    );
    assert_eq!(
        row.summary.inversion_total(),
        row.report.overdue as u64,
        "{label}: inversion counts must sum to the report's mismatches"
    );
}

// lint:schema(ups-bench-divergence/v1)
fn json_k_row(k: Option<u32>, row: &Row) -> String {
    format!(
        r#"    {{"k": {}, "compared": {}, "match_rate": {:.6}, "divergence": {}}}"#,
        k.map_or("null".into(), |k| k.to_string()),
        row.report.total,
        row.report.match_rate().expect("non-empty comparison"),
        row.summary.to_json()
    )
}

// lint:schema(ups-bench-divergence/v1)
fn json_rate_row(rate: f64, row: &Row) -> String {
    format!(
        r#"    {{"rate": {}, "compared": {}, "match_rate": {:.6}, "divergence": {}}}"#,
        rate,
        row.report.total,
        row.report.match_rate().expect("non-empty comparison"),
        row.summary.to_json()
    )
}

// lint:schema(ups-bench-divergence/v1)
fn main() {
    let min_packets = env_u64("UPS_FORENSICS_PACKETS", 30_000) as usize;
    let seed = env_u64("UPS_FORENSICS_SEED", 7);
    let (topo, train) = fattree_throughput_workload(UTILIZATION, min_packets, seed);
    let packets = train.packets;
    println!(
        "# forensics: {} packets / {} flows on {} at {:.0}% util, Random original",
        packets.len(),
        train.flows,
        topo.name,
        UTILIZATION * 100.0,
    );
    let assign = SchedulerAssignment::uniform(SchedulerKind::Random);
    let threshold = topo.bottleneck_bandwidth().tx_time(MTU);

    // ---- Quantization axis: per-hop records on both sides, so the
    // first divergent hop is real (bucket collisions, not exit-only).
    let hop_opts = BuildOptions {
        record: RecordMode::PerHop,
        seed,
        ..BuildOptions::default()
    };
    let original = run_schedule(&topo, &assign, packets.iter().cloned(), &hop_opts);
    let replay_set = replay_packets(&topo, &original, &packets, HeaderInit::LstfSlack);
    let quantization: Vec<(Option<u32>, Row)> = KS
        .iter()
        .map(|&k| {
            let (flavor, sched) = match k {
                Some(k) => (
                    ReplayFlavor::Quantized { k },
                    SchedulerKind::quantized_lstf(k, MapperKind::SpPifo),
                ),
                None => (
                    ReplayFlavor::Exact,
                    SchedulerKind::Lstf { preemptive: false },
                ),
            };
            let mut sim = build_simulator(&topo, &SchedulerAssignment::uniform(sched), &hop_opts);
            for p in replay_set.iter().cloned() {
                sim.inject(p);
            }
            sim.run();
            let replay = sim.into_trace();
            let mut forensics = BlameCollector::new(flavor);
            let report =
                compare_with_sink(&original, &replay, threshold, Dur::ZERO, &mut forensics);
            let row = Row {
                report,
                summary: forensics.summary(),
            };
            conserved(&format!("K={k:?}"), &row);
            (k, row)
        })
        .collect();

    // ---- Failure axis: churn runs at rising intensity, Churn-flavor
    // attribution over the delivered subset.
    let churn_opts = BuildOptions {
        record: RecordMode::EndToEnd,
        seed,
        ..BuildOptions::default()
    };
    let failures: Vec<(f64, Row)> = RATES
        .iter()
        .map(|&rate| {
            let schedule = FailureSchedule::generate(
                &topo,
                FailureProfile::RandomLinks,
                rate,
                train.window,
                seed,
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
            let report = churn_replay_with_sink(&topo, &churn.trace, seed, &mut forensics);
            let row = Row {
                report,
                summary: forensics.summary(),
            };
            conserved(&format!("rate={rate}"), &row);
            (rate, row)
        })
        .collect();

    println!(
        "{:>8} {:>9} {:>11} {:>10} {:>12} {:>9} {:>9}",
        "axis", "compared", "match_rate", "mismatch", "within_T", "beyond_T", "missing"
    );
    let fmt_row = |axis: String, r: &Row| {
        println!(
            "{:>8} {:>9} {:>11.4} {:>10} {:>12} {:>9} {:>9}",
            axis,
            r.report.total,
            r.report.match_rate().expect("non-empty"),
            r.summary.mismatches,
            r.summary.overdue_within_t,
            r.summary.overdue_beyond_t,
            r.summary.missing_in_replay,
        );
    };
    for (k, r) in &quantization {
        fmt_row(k.map_or("K=inf".into(), |k| format!("K={k}")), r);
    }
    for (rate, r) in &failures {
        fmt_row(format!("f={rate}"), r);
    }

    // The curves this attribution explains: scarce queues hurt, and the
    // finite-K damage shows up as bucket collisions at real hops.
    let k1 = &quantization[0].1;
    let exact = &quantization[KS.len() - 1].1;
    assert!(
        k1.report.match_rate() < exact.report.match_rate(),
        "K=1 must diverge more than exact LSTF"
    );
    assert!(
        k1.summary.bucket_collision > 0,
        "K=1 divergence must show per-hop bucket collisions"
    );

    let q_rows: Vec<String> = quantization
        .iter()
        .map(|(k, r)| json_k_row(*k, r))
        .collect();
    let f_rows: Vec<String> = failures
        .iter()
        .map(|(rate, r)| json_rate_row(*rate, r))
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"ups-bench-divergence/v1\",\n",
            "  \"scenario\": {{\"topology\": \"{}\", \"original\": \"Random\", ",
            "\"profile\": \"random-links\", \"utilization\": {}, \"seed\": {}, ",
            "\"packets\": {}, \"flows\": {}, \"window_ms\": {:.3}}},\n",
            "  \"quantization\": [\n{}\n  ],\n",
            "  \"failures\": [\n{}\n  ]\n",
            "}}\n"
        ),
        topo.name,
        UTILIZATION,
        seed,
        packets.len(),
        train.flows,
        train.window.as_secs_f64() * 1e3,
        q_rows.join(",\n"),
        f_rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_divergence.json");
    std::fs::write(out, &json).expect("write BENCH_divergence.json");
    // The artifact must pass the same gate CI applies.
    ups_sweep::validate_artifact(&json).expect("artifact validates");
    println!("wrote {out}");
}
