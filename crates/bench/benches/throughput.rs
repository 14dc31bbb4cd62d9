//! End-to-end engine throughput: packets/second through a fat-tree at 70%
//! core utilization, arena + calendar-queue hot path vs. the seed's
//! heap-based baseline (`ups_bench::baseline`).
//!
//! Both engines consume the *identical* injected packet set (≥100k UDP
//! packets from the paper's Poisson/web-search workload) under FIFO with
//! unbounded buffers, and the bench asserts their delivered counts and
//! exit-time fingerprints agree before trusting the timings.
//!
//! Results go to stdout and to `BENCH_throughput.json` at the repository
//! root, so successive PRs accumulate a perf trajectory. Scale knobs:
//! `UPS_TPUT_MIN_PACKETS` (default 120000), `UPS_TPUT_RUNS` (default 3).

use std::time::Instant;

use ups_bench::baseline::BaselineSim;
use ups_bench::fattree_throughput_workload;
use ups_netsim::prelude::*;
use ups_topology::{build_simulator, BuildOptions, SchedulerAssignment};

const UTILIZATION: f64 = 0.7;
const SEED: u64 = 42;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Measurement {
    name: &'static str,
    description: &'static str,
    best_wall_s: f64,
    packets_per_sec: f64,
    events_per_sec: f64,
    delivered: u64,
    fingerprint: u128,
}

fn measure_baseline(topo: &ups_topology::Topology, packets: &[Packet], runs: u64) -> Measurement {
    let mut best = f64::MAX;
    let mut delivered = 0;
    let mut events = 0;
    let mut fingerprint = 0u128;
    for _ in 0..runs {
        let mut sim = BaselineSim::from_topology(topo);
        for p in packets.iter().cloned() {
            sim.inject(p);
        }
        let t0 = Instant::now();
        sim.run();
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        delivered = sim.delivered;
        events = sim.events_processed;
        fingerprint = sim.exit_fingerprint;
    }
    Measurement {
        name: "heap_baseline",
        description:
            "seed architecture: BinaryHeap FEL + per-port BinaryHeap, Packet moved by value",
        best_wall_s: best,
        packets_per_sec: packets.len() as f64 / best,
        events_per_sec: events as f64 / best,
        delivered,
        fingerprint,
    }
}

/// Untimed verification pass: run the real engine with full end-to-end
/// tracing and fingerprint the exit times, so the timed runs (both
/// engines trace-free) are known to simulate the identical schedule.
fn current_fingerprint(topo: &ups_topology::Topology, packets: &[Packet]) -> (u64, u128) {
    let mut sim = build_simulator(
        topo,
        &SchedulerAssignment::uniform(SchedulerKind::Fifo),
        &BuildOptions {
            record: RecordMode::EndToEnd,
            ..BuildOptions::default()
        },
    );
    for p in packets.iter().cloned() {
        sim.inject(p);
    }
    sim.run();
    let fp = sim
        .trace()
        .delivered()
        .expect("resident trace")
        .map(|(_, r)| r.exited.expect("delivered").as_ps() as u128)
        .sum();
    (sim.stats().delivered, fp)
}

fn measure_current(topo: &ups_topology::Topology, packets: &[Packet], runs: u64) -> Measurement {
    let (delivered, fingerprint) = current_fingerprint(topo, packets);
    let mut best = f64::MAX;
    let mut events = 0;
    for _ in 0..runs {
        // Trace off, like the baseline: pure engine throughput.
        let mut sim = build_simulator(
            topo,
            &SchedulerAssignment::uniform(SchedulerKind::Fifo),
            &BuildOptions {
                record: RecordMode::Off,
                ..BuildOptions::default()
            },
        );
        for p in packets.iter().cloned() {
            sim.inject(p);
        }
        let t0 = Instant::now();
        sim.run();
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        assert_eq!(sim.stats().delivered, delivered, "trace-off run diverged");
        events = sim.stats().events;
    }
    Measurement {
        name: "arena_calendar",
        description: "zero-copy hot path: packet arena + calendar-queue FEL, 4-byte refs in queues",
        best_wall_s: best,
        packets_per_sec: packets.len() as f64 / best,
        events_per_sec: events as f64 / best,
        delivered,
        fingerprint,
    }
}

// lint:schema(ups-bench-throughput/v1)
fn json_result(m: &Measurement, runs: u64) -> String {
    format!(
        r#"    {{
      "impl": "{}",
      "description": "{}",
      "runs": {},
      "best_wall_s": {:.6},
      "packets_per_sec": {:.0},
      "events_per_sec": {:.0},
      "delivered": {}
    }}"#,
        m.name,
        m.description,
        runs,
        m.best_wall_s,
        m.packets_per_sec,
        m.events_per_sec,
        m.delivered
    )
}

// lint:schema(ups-bench-throughput/v1)
fn main() {
    let min_packets = env_u64("UPS_TPUT_MIN_PACKETS", 120_000) as usize;
    let runs = env_u64("UPS_TPUT_RUNS", 3).max(1);

    let (topo, train) = fattree_throughput_workload(UTILIZATION, min_packets, SEED);
    let (packets, flows) = (train.packets, train.flows);
    let window_ms = train.window.as_secs_f64() * 1e3;
    println!(
        "# throughput: {} packets / {} flows on {} at {:.0}% util ({} ms window, seed {})",
        packets.len(),
        flows,
        topo.name,
        UTILIZATION * 100.0,
        window_ms,
        SEED
    );

    let base = measure_baseline(&topo, &packets, runs);
    let cur = measure_current(&topo, &packets, runs);

    // The two engines must have simulated the same schedule before the
    // timings mean anything.
    assert_eq!(
        base.delivered, cur.delivered,
        "baseline and current engine disagree on delivered count"
    );
    assert_eq!(
        base.fingerprint, cur.fingerprint,
        "baseline and current engine disagree on exit times"
    );

    let speedup = cur.packets_per_sec / base.packets_per_sec;
    for m in [&base, &cur] {
        println!(
            "{:<16} {:>12.0} pkts/s  {:>12.0} events/s  (best of {runs}: {:.3}s)",
            m.name, m.packets_per_sec, m.events_per_sec, m.best_wall_s
        );
    }
    println!("speedup          {speedup:>12.2}x packets/sec");

    let json = format!(
        r#"{{
  "schema": "ups-bench-throughput/v1",
  "scenario": {{
    "topology": "{}",
    "scheduler": "FIFO",
    "utilization": {},
    "window_ms": {},
    "seed": {},
    "flows": {},
    "packets": {},
    "delivered": {}
  }},
  "results": [
{},
{}
  ],
  "speedup_packets_per_sec": {:.3}
}}
"#,
        topo.name,
        UTILIZATION,
        window_ms,
        SEED,
        flows,
        packets.len(),
        cur.delivered,
        json_result(&base, runs),
        json_result(&cur, runs),
        speedup
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(out, &json).expect("write BENCH_throughput.json");
    // The artifact must pass the same gate CI applies.
    ups_sweep::validate_artifact(&json).expect("artifact validates");
    println!("wrote {out}");
}
