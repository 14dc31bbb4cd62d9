//! Experiment scaling, and the streaming pipeline the scale bench and
//! its CI smoke both gate on.
//!
//! The paper's runs simulate seconds of traffic over 100–800-host
//! topologies; regenerating every table/figure at that scale takes tens
//! of minutes. `cargo bench` therefore defaults to a scaled-down
//! configuration with the *same shape* (identical topologies, same
//! utilization calibration, shorter simulated time), and `UPS_SCALE=full`
//! restores paper-scale durations.

use std::time::Instant;

use ups_core::{Replay, ReplayReport};
use ups_netsim::prelude::{Dur, RecordMode, SchedulerKind, Trace};
use ups_topology::{build_simulator, BuildOptions, SchedulerAssignment, Topology};
use ups_workload::{train_packets, udp_packet_stream, FlowSpec, MTU};

use crate::scenarios::fattree_throughput_workload;

/// Horizon of the fairness experiment (Fig. 4; the paper plots 20 ms),
/// the same at every scale: the run is already paper-sized.
pub const FAIRNESS_HORIZON: Dur = Dur::from_ms(25);

/// Resolved scale parameters.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Simulated workload-arrival window for replay experiments.
    pub replay_window: Dur,
    /// Simulated flow-arrival window for the FCT experiment (Fig. 2).
    pub fct_window: Dur,
    /// Wall-clock horizon for the FCT run (lets late flows drain).
    pub fct_horizon: Dur,
    /// Number of independent seeds averaged per scenario.
    pub seeds: u64,
    /// Arity of the fat-tree behind Table 1's `Datacenter` row.
    pub fattree_k: usize,
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
            seeds: 1,
            fattree_k: 4,
            label: "quick",
        }
    }

    /// Paper-scale durations.
    pub fn full() -> Self {
        Scale {
            replay_window: Dur::from_ms(250),
            fct_window: Dur::from_secs(1),
            fct_horizon: Dur::from_secs(30),
            seeds: 3,
            fattree_k: 8,
            label: "full",
        }
    }

    /// Resolve from the `UPS_SCALE` environment variable
    /// (`quick`/`full`; default quick). Any other value ends the process
    /// with a non-zero status: a misspelt `full` must not run `quick`
    /// under the wrong label.
    pub fn from_env() -> Self {
        or_exit(Scale::parse(std::env::var("UPS_SCALE").ok().as_deref()))
    }

    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            Some("full") => Ok(Scale::full()),
            Some("quick") | None => Ok(Scale::quick()),
            Some(other) => Err(format!("UPS_SCALE={other:?} not recognized (quick, full)")),
        }
    }
}

/// The value of a knob read from the environment, or exit status 2 with
/// the reason on stderr.
fn or_exit<T>(knob: Result<T, String>) -> T {
    knob.unwrap_or_else(|e| {
        eprintln!("ups-bench: {e}");
        std::process::exit(2)
    })
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

/// An unsigned scale knob from the environment; `default` when unset. A
/// value that does not parse (`UPS_SCALE_PACKETS=5e6`) ends the process
/// with a non-zero status instead of running the default size.
pub fn env_u64(name: &str, default: u64) -> u64 {
    or_exit(parse_u64(
        name,
        std::env::var(name).ok().as_deref(),
        default,
    ))
}

fn parse_u64(name: &str, value: Option<&str>, default: u64) -> Result<u64, String> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}={v:?} is not an unsigned integer")),
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

/// The differential gate: on the engine-benchmark workload
/// ([`fattree_throughput_workload`] at 70 %, seed 42, grown to
/// `packet_floor`) the resident and the streaming trace layouts must
/// agree bit for bit on records, replay report and run summary.
/// `spill_caps` are the streaming arm's, tiny so that it spills heavily.
/// Returns the packet count of the workload.
///
/// # Panics
/// When any of the three differs — the caller writes nothing.
pub fn differential_gate(packet_floor: u64, spill_caps: (usize, usize)) -> u64 {
    let (topo, train) = fattree_throughput_workload(0.7, packet_floor as usize, 42);
    let flows = train.flows;
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
        assert!(q.fattree_k < f.fattree_k);
    }

    #[test]
    fn unrecognised_scale_is_an_error_naming_variable_and_value() {
        assert_eq!(Scale::parse(None).unwrap().label, "quick");
        assert_eq!(Scale::parse(Some("full")).unwrap().label, "full");
        let err = Scale::parse(Some("ful")).unwrap_err();
        assert!(
            err.contains("UPS_SCALE") && err.contains("\"ful\""),
            "{err}"
        );
    }

    #[test]
    fn unparsable_knob_is_an_error_naming_variable_and_value() {
        assert_eq!(parse_u64("UPS_SCALE_PACKETS", None, 7), Ok(7));
        assert_eq!(parse_u64("UPS_SCALE_PACKETS", Some("12"), 7), Ok(12));
        let err = parse_u64("UPS_SCALE_PACKETS", Some("5e6"), 7).unwrap_err();
        assert!(
            err.contains("UPS_SCALE_PACKETS") && err.contains("\"5e6\""),
            "{err}"
        );
    }
}
