//! Experiment scaling, and the streaming pipeline the scale bench and
//! its CI smoke both gate on.
//!
//! The paper's runs simulate seconds of traffic over 100–800-host
//! topologies; regenerating every table/figure at that scale takes tens
//! of minutes. `cargo bench` therefore defaults to a scaled-down
//! configuration with the *same shape* (identical topologies, same
//! utilization calibration, shorter simulated time), and `UPS_SCALE=full`
//! restores paper-scale durations. EXPERIMENTS.md records which setting
//! produced the committed numbers.

use std::time::Instant;

use ups_core::{Replay, ReplayReport};
use ups_netsim::prelude::{Dur, RecordMode, SchedulerKind, Trace};
use ups_topology::{
    build_simulator, fattree, BuildOptions, FatTreeParams, Routing, SchedulerAssignment, Topology,
};
use ups_workload::{profile_by_name, udp_packet_stream, FlowSpec, MTU};

/// Resolved scale parameters.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Simulated workload-arrival window for replay experiments.
    pub replay_window: Dur,
    /// Simulated flow-arrival window for the FCT experiment (Fig. 2).
    pub fct_window: Dur,
    /// Wall-clock horizon for the FCT run (lets late flows drain).
    pub fct_horizon: Dur,
    /// Horizon for the fairness experiment (Fig. 4; paper plots 20 ms).
    pub fairness_horizon: Dur,
    /// Number of independent seeds averaged per scenario.
    pub seeds: u64,
    /// Label for reports.
    pub label: &'static str,
}

impl Scale {
    /// Scaled-down default: minutes, not hours.
    pub fn quick() -> Self {
        Scale {
            replay_window: Dur::from_ms(30),
            fct_window: Dur::from_ms(150),
            fct_horizon: Dur::from_secs(8),
            fairness_horizon: Dur::from_ms(25),
            seeds: 1,
            label: "quick",
        }
    }

    /// Paper-scale durations.
    pub fn full() -> Self {
        Scale {
            replay_window: Dur::from_ms(250),
            fct_window: Dur::from_secs(1),
            fct_horizon: Dur::from_secs(30),
            fairness_horizon: Dur::from_ms(25),
            seeds: 3,
            label: "full",
        }
    }

    /// Resolve from the `UPS_SCALE` environment variable
    /// (`quick`/`full`; default quick).
    pub fn from_env() -> Self {
        match std::env::var("UPS_SCALE").as_deref() {
            Ok("full") => Scale::full(),
            Ok("quick") | Err(_) => Scale::quick(),
            Ok(other) => {
                eprintln!("UPS_SCALE={other:?} not recognized; using quick");
                Scale::quick()
            }
        }
    }
}

/// Peak resident-set size of this process in bytes, from `VmHWM` in
/// `/proc/self/status` — the self-measurement the scale benchmark and its
/// CI smoke test assert their memory budget against. Returns `0` on
/// platforms without procfs (the callers' budget asserts then pass
/// vacuously rather than faking a reading).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// An unsigned scale knob from the environment; `default` when unset
/// or unparsable.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Packets a flow list packetizes into at MTU granularity.
pub fn train_packets(flows: &[FlowSpec]) -> u64 {
    flows.iter().map(|f| f.size.div_ceil(MTU as u64)).sum()
}

/// Grow the arrival window (doubling from 4 ms, up to `max_window`) until
/// the flows `generate` makes for it packetize to at least `packet_floor`
/// packets. Returns the flows and the window that produced them.
pub fn flows_with_floor(
    packet_floor: u64,
    max_window: Dur,
    mut generate: impl FnMut(Dur) -> Vec<FlowSpec>,
) -> (Vec<FlowSpec>, Dur) {
    let mut window = Dur::from_ms(4);
    loop {
        let flows = generate(window);
        if train_packets(&flows) >= packet_floor {
            return (flows, window);
        }
        window = window.times(2);
        assert!(
            window <= max_window,
            "workload never reached {packet_floor} packets"
        );
    }
}

/// What [`streaming_run`] produced.
pub struct StreamingRun {
    /// The FIFO original schedule.
    pub original: Trace,
    /// Its LSTF replay.
    pub replay: Trace,
    /// The comparison of the two.
    pub report: ReplayReport,
    /// Wall-clock seconds of the original run alone.
    pub original_wall_s: f64,
}

/// The streaming pipeline over `flows`, seed 42: a FIFO original driven
/// lazily from the flow list, then the lazy replay entry
/// ([`Replay::lazy`]) straight off the recorded (possibly spilled)
/// trace. Both runs record in `record` mode with `spill_caps`.
pub fn streaming_run(
    topo: &Topology,
    flows: &[FlowSpec],
    record: RecordMode,
    spill_caps: Option<(usize, usize)>,
) -> StreamingRun {
    let opts = BuildOptions {
        record,
        trace_spill_caps: spill_caps,
        seed: 42,
        ..BuildOptions::default()
    };
    let fifo = SchedulerAssignment::uniform(SchedulerKind::Fifo);
    let mut sim = build_simulator(topo, &fifo, &opts);
    let t0 = Instant::now();
    sim.run_with_injections(udp_packet_stream(flows, MTU));
    let original_wall_s = t0.elapsed().as_secs_f64();
    let original = sim.into_trace();
    let (replay, report) = Replay {
        opts,
        ..Replay::new(topo, &original, opts.seed)
    }
    .lazy(&mut ());
    StreamingRun {
        original,
        replay,
        report,
        original_wall_s,
    }
}

/// The differential gate: on the engine-benchmark workload (fat-tree
/// k=4, web-search at 70 %, window grown until the train clears
/// `packet_floor`) the resident and the streaming trace layouts must
/// agree bit for bit on records, replay report and run summary.
/// `spill_caps` are the streaming arm's, tiny so that it spills heavily.
/// Returns the packet count of the workload.
///
/// # Panics
/// When any of the three differs — the caller writes nothing.
pub fn differential_gate(packet_floor: u64, spill_caps: (usize, usize)) -> u64 {
    let topo = fattree(FatTreeParams::default());
    let profile = profile_by_name("web-search").expect("registered profile");
    let (flows, _) = flows_with_floor(packet_floor, Dur::from_secs(5), |window| {
        profile.flows(&topo, &mut Routing::new(&topo), 0.7, window, 42)
    });
    let packets = train_packets(&flows);
    let resident = streaming_run(&topo, &flows, RecordMode::EndToEnd, None);
    let streaming = streaming_run(&topo, &flows, RecordMode::Streaming, Some(spill_caps));
    assert!(
        resident.original.stream().eq(streaming.original.stream()),
        "streaming trace diverged from resident"
    );
    assert_eq!(
        resident.report, streaming.report,
        "streamed replay report diverged"
    );
    assert_eq!(
        ups_sweep::summarize_trace(&resident.original, &flows, packets, None),
        ups_sweep::summarize_trace(&streaming.original, &flows, packets, None),
        "streamed run summary diverged"
    );
    packets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0, "VmHWM must parse on procfs hosts");
        }
    }

    #[test]
    fn quick_is_smaller_than_full() {
        let q = Scale::quick();
        let f = Scale::full();
        assert!(q.replay_window < f.replay_window);
        assert!(q.fct_window < f.fct_window);
        assert!(q.seeds <= f.seeds);
    }
}
