//! The streaming-pipeline scale benchmark: a multi-million-packet
//! fat-tree(k=8) run — original schedule, LSTF replay, and full metrics —
//! executed end to end through the bounded-memory path (lazy workload
//! stream → `RecordMode::Streaming` spill-backed trace → streamed replay
//! set → merge-join comparison → accumulator summary) under a peak-RSS
//! budget the bench measures on itself via `/proc/self/status` (`VmHWM`).
//!
//! Before timing anything it runs the **differential gate** on the
//! engine-benchmark workload (fat-tree k=4, web-search, ≥100k packets):
//! the streaming and resident trace layouts must produce bit-identical
//! record streams, bit-identical `ReplayReport`s and bit-identical
//! `RunSummary`s, or the bench aborts without writing an artifact.
//!
//! Results go to stdout and `BENCH_scale.json` (schema
//! `ups-bench-scale/v1`). The sizes are the constants below; the
//! artifact's validator holds the floors they imply.

use ups_bench::peak_rss_bytes;
use ups_bench::scale::{differential_gate, streaming_run};
use ups_core::{compare, overdue_threshold};
use ups_netsim::prelude::{Dur, RecordMode};
use ups_topology::{fattree, FatTreeParams, Routing};
use ups_workload::{flows_with_floor, train_packets, Fixed, PoissonWorkload};

/// Packet floor of the streaming run.
const PACKET_FLOOR: u64 = 5_000_000;
/// Minimum flow count the run must reach at that floor.
const MIN_FLOWS: u64 = 10_000;
/// Fixed per-flow size in bytes.
const FLOW_BYTES: u64 = 150_000;
/// Peak-RSS budget, asserted via `VmHWM`.
const RSS_BUDGET_BYTES: u64 = 512 * 1024 * 1024;
/// Workload floor of the differential gate.
const DIFF_PACKETS: u64 = 120_000;

fn main() {
    // Tiny spill caps so the streaming arm spills heavily: ~n/4096 chunks
    // on disk, exercising the codec and the k-way merge at full depth.
    let n = differential_gate(DIFF_PACKETS, (4096, 2));
    println!("# differential gate: {n} packets; records, reports and summaries bit-identical");

    // The scale scenario: fat-tree k=8 (128 hosts), fixed ~100-packet
    // flows so the packet floor forces a five-digit flow count, window
    // grown until the train clears the floor.
    let topo = fattree(FatTreeParams {
        k: 8,
        ..FatTreeParams::default()
    });
    let (flows, window) = flows_with_floor(
        PACKET_FLOOR,
        Dur::from_ms(4),
        Dur::from_secs(60),
        |window| {
            PoissonWorkload::at_utilization(0.7, window, 42).generate(
                &topo,
                &Routing::new(&topo),
                &Fixed(FLOW_BYTES),
            )
        },
    );
    let packets = train_packets(&flows);
    assert!(
        flows.len() as u64 >= MIN_FLOWS,
        "only {} flows at the {PACKET_FLOOR}-packet floor (need {MIN_FLOWS})",
        flows.len()
    );
    println!(
        "# scale: {packets} packets / {} flows on {} (fixed {FLOW_BYTES}-byte flows, 70% util)",
        flows.len(),
        topo.name
    );

    let run = streaming_run(&topo, &flows, RecordMode::Streaming, None);
    let (original, report) = (&run.original, &run.report);
    let pps = packets as f64 / run.original_wall_s;
    // Gate on for a second comparison only (not the timed run): the
    // merge-join's reorder window must stay bounded at full scale, and the
    // high-water counter is the direct witness (the compare also asserts
    // it inline, but that check fires per-step; this one pins the
    // whole-run maximum).
    ups_obs::enable();
    ups_obs::reset();
    let gated = compare(original, &run.replay, overdue_threshold(&topo));
    let window_high_water = ups_obs::snapshot().counter(ups_obs::Counter::CompareWindow);
    ups_obs::disable();
    assert_eq!(&gated, report, "observation moved the comparison");
    assert!(
        window_high_water <= ups_core::REORDER_WINDOW as u64,
        "compare reorder window hit {window_high_water} records \
         (bound {})",
        ups_core::REORDER_WINDOW
    );
    println!("# compare reorder-window high-water: {window_high_water} records");
    let match_rate = report.match_rate().expect("scale run delivers packets");
    let summary = ups_sweep::summarize_trace(original, &flows, packets, None);
    assert_eq!(summary.delivered + summary.dropped, packets);

    let peak = peak_rss_bytes();
    println!(
        "original run     {pps:>12.0} pkts/s  ({:.2}s wall)\n\
         replay match     {match_rate:>12.4}\n\
         peak RSS         {:>9.1} MiB  (budget {} MiB)",
        run.original_wall_s,
        peak as f64 / (1024.0 * 1024.0),
        RSS_BUDGET_BYTES / (1024 * 1024)
    );
    assert!(
        peak <= RSS_BUDGET_BYTES,
        "peak RSS {peak} exceeds the {RSS_BUDGET_BYTES}-byte budget"
    );

    let json = format!(
        r#"{{
  "schema": "ups-bench-scale/v1",
  "scenario": {{
    "topology": "{}",
    "scheduler": "FIFO",
    "utilization": 0.7,
    "flow_bytes": {FLOW_BYTES},
    "window_ms": {},
    "seed": 42
  }},
  "packets": {packets},
  "flows": {},
  "delivered": {},
  "dropped": {},
  "peak_rss_bytes": {peak},
  "rss_budget_bytes": {RSS_BUDGET_BYTES},
  "packets_per_sec": {pps:.0},
  "replay_match_rate": {match_rate:.6},
  "replay_frac_gt_t": {:.6},
  "differential": {{
    "workload_packets": {DIFF_PACKETS},
    "records_identical": true,
    "reports_identical": true,
    "summaries_identical": true
  }}
}}
"#,
        topo.name,
        window.as_secs_f64() * 1e3,
        flows.len(),
        summary.delivered,
        summary.dropped,
        report.frac_gt_t_rate().expect("non-empty comparison"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(out, json).expect("write BENCH_scale.json");
    println!("wrote {out}");
}
