//! Executing one [`JobSpec`]. [`execute`] is the job body — build the
//! scenario from the registries, run the original schedule (open-loop UDP
//! train, the same under link churn, or closed-loop TCP endpoints), apply
//! the drop-free gate and score each replay — and [`run_job_shared`]
//! distills what it returns into a [`RunSummary`] record.
//!
//! A job is a pure function of its spec — the topology and workload are
//! rebuilt from (name, seed) inside the worker thread, nothing is shared
//! between jobs, and all metrics aggregate in packet-/flow-id order. That
//! purity is what lets the pool run jobs on any worker in any order and
//! still produce identical result records (see `tests/determinism.rs`).
//!
//! ## Closed-loop jobs
//!
//! `traffic: closed-loop` drives the simulator with live TCP Reno
//! endpoints through the shared [`ups_transport::driver`]: the slack
//! policy is derived from the scheduler under test (see
//! [`crate::grid::Scheduler::slack_policy`]), the run stops at the job's
//! horizon (or packet cap), and the §2 replay then re-runs the
//! **as-executed** schedule — every data segment and ack the endpoints
//! actually emitted, at its recorded injection time — through black-box
//! LSTF. The summary gains a transport block (completions, goodput,
//! retransmits, RTOs) distilled from [`TransportStats`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ups_core::{replay_stream, run_schedule, HeaderInit, Replay, ReplayReport};
use ups_dynamics::{run_schedule_with_failures, FailureSchedule};
use ups_forensics::{BlameCollector, ReplayFlavor};
use ups_metrics::{
    jain_index, mean_fct_by_bucket, DisruptionSummary, FlowSample, RunAccumulator, RunSummary,
    TransportSummary, FIG2_BUCKETS,
};
use ups_netsim::prelude::{PacketKind, RecordMode, SchedulerKind, SimTime, Trace};
use ups_obs::SharedProbe;
use ups_topology::{topology_by_name, BuildOptions, Routing, RoutingCore, Topology};
use ups_transport::{run_tcp, TcpConfig, TcpScenario, TransportStats};
use ups_workload::{profile_by_name, train_packets, udp_packet_stream, FlowSpec, MTU};

use crate::grid::{JobSpec, TrafficMode};

/// Topology + all-pairs routing, built **once per distinct topology** in
/// a sweep and shared across every job (and worker thread) that names
/// it. Before this cache each job redid the whole `O(V·(V+E))` BFS; now
/// the core also memoizes each (src, dst) path, so a job walks no BFS
/// field a job before it already walked.
pub struct SharedScenarios {
    map: BTreeMap<&'static str, (Arc<Topology>, Arc<RoutingCore>)>,
}

impl SharedScenarios {
    /// Build the shared topology/routing pair for every distinct
    /// topology named by `jobs` — any borrowing iterable of specs.
    pub fn for_jobs<'a>(jobs: impl IntoIterator<Item = &'a JobSpec>) -> Self {
        let mut map = BTreeMap::new();
        for spec in jobs {
            map.entry(spec.topology)
                .or_insert_with(|| build_shared(spec.topology));
        }
        SharedScenarios { map }
    }

    /// The shared pair for a topology name, building it on the fly for a
    /// spec the cache was not primed with.
    pub(crate) fn get(&self, name: &str) -> (Arc<Topology>, Arc<RoutingCore>) {
        self.map
            .get(name)
            .cloned()
            .unwrap_or_else(|| build_shared(name))
    }

    /// Distinct topologies held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A topology and its routing core, from a registry name.
fn build_shared(name: &str) -> (Arc<Topology>, Arc<RoutingCore>) {
    let topo = topology_by_name(name).unwrap_or_else(|| panic!("unregistered topology {name:?}"));
    let core = Arc::new(RoutingCore::new(&topo));
    (Arc::new(topo), core)
}

/// One finished job: the spec it ran, what it measured, how long it took.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The scenario executed.
    pub spec: JobSpec,
    /// Per-run metrics.
    pub summary: RunSummary,
    /// Wall-clock seconds this job took on its worker.
    pub wall_s: f64,
}

/// Schema tag of one result line (v5 added the `divergence` forensics
/// block; v4 added the `failures`/`inflight` scenario fields and the
/// `disruption` metrics block).
pub const RECORD_SCHEMA: &str = "ups-sweep-record/v5";

impl JobRecord {
    /// The record as one JSON line. `with_timing: false` omits the
    /// wall-clock field, leaving only fields that are pure functions of
    /// the spec — the form the cross-thread determinism contract compares.
    pub fn to_json(&self, with_timing: bool) -> String {
        let timing = if with_timing {
            format!(r#","wall_s":{}"#, ups_metrics::json_num(self.wall_s))
        } else {
            String::new()
        };
        format!(
            r#"{{"schema":"{}","job_id":{},"scenario":{},"metrics":{}{}}}"#,
            RECORD_SCHEMA,
            self.spec.job_id,
            self.spec.scenario_json(),
            self.summary.to_json(),
            timing
        )
    }
}

/// One replay of a job's original schedule, as the replay entry
/// ([`Replay`]) scored it.
pub struct ReplayRun {
    /// Which replay this is (and how its collector reads inversions).
    pub flavor: ReplayFlavor,
    /// The §2 comparison against the original.
    pub report: ReplayReport,
    /// The attribution of every mismatch in `report`.
    pub forensics: BlameCollector,
    /// The replay schedule.
    pub trace: Trace,
}

/// Everything one executed job produced.
pub struct JobRun {
    /// The flows behind the workload.
    pub flows: Vec<FlowSpec>,
    /// The original schedule, recorded at the detail the caller chose.
    pub original: Trace,
    /// The original run distilled ([`summarize_trace`]), disruption block
    /// included; the replay fields are the caller's to fill.
    pub summary: RunSummary,
    /// The replays that ran, in order: exact; exact then quantized under
    /// the `queues` axis; churn under `failures`; or the caller's
    /// `ablations`. Empty when the spec disabled the replay or the
    /// drop-free gate closed.
    pub replays: Vec<ReplayRun>,
}

/// The job body: everything between a [`JobSpec`] and its results, stated
/// once for the sweep ([`run_job_shared`]), `sweep explain`
/// ([`crate::explain::explain_job`]) and the paper benches.
///
/// Builds the scenario from the registries, runs the original schedule
/// (open-loop static, open-loop under link churn, or closed-loop TCP)
/// recording at `record` detail, summarizes it, applies the drop-free
/// gate, and scores each replay through [`Replay`] — recording at the
/// same detail — with a [`BlameCollector`] attached.
///
/// `ablations` replaces the spec's own replays of a static job with the
/// listed `(discipline, header initialization)` pairs — §2.3(5)'s
/// preemptive LSTF, §2.3(7)'s simple priorities; pass `&[]` for the
/// spec's. `probe` samples the last replay (the one a record's
/// `divergence` block and `sweep explain` describe); observation only.
///
/// Every label was parsed when the spec was made, so nothing here can
/// fail on one.
///
/// # Panics
/// On a hand-built spec that pairs failures with closed-loop traffic
/// (link churn drives open-loop schedules only; grids reject it), and on
/// the internal invariants of the replay framework.
pub fn execute(
    spec: &JobSpec,
    shared: &SharedScenarios,
    record: RecordMode,
    ablations: &[(SchedulerKind, HeaderInit)],
    mut probe: Option<SharedProbe>,
) -> JobRun {
    assert!(
        spec.failures.is_none() || spec.traffic == TrafficMode::OpenLoop,
        "failures on a closed-loop job: link churn drives open-loop schedules only"
    );
    let (topo, routing_core) = shared.get(spec.topology);
    let topo = &*topo;
    let profile = profile_by_name(spec.profile)
        .unwrap_or_else(|| panic!("unregistered profile {:?}", spec.profile));
    let assign = spec.scheduler.assignment(topo);
    let routing = Routing::from_core(routing_core);
    let flows = profile.flows(topo, &routing, spec.utilization, spec.window, spec.seed);
    let opts = BuildOptions {
        record,
        seed: spec.seed,
        router_buffer_bytes: spec.buffer_bytes,
        ..BuildOptions::default()
    };
    let lstf = SchedulerKind::Lstf { preemptive: false };
    let plan: Vec<(ReplayFlavor, SchedulerKind, HeaderInit)> =
        match (spec.failures, spec.queues, ablations) {
            // A churn job replays the delivered subset along observed
            // paths, lazily (the bounded-memory path).
            (Some(_), ..) => vec![(ReplayFlavor::Churn, lstf, HeaderInit::LstfSlack)],
            (None, None, []) => vec![(ReplayFlavor::Exact, lstf, HeaderInit::LstfSlack)],
            // The finite-priority-queue sub-axis: the identical packet set
            // replayed through quantized LSTF after the exact replay,
            // scored against the same original.
            (None, Some(q), []) => vec![
                (ReplayFlavor::Exact, lstf, HeaderInit::LstfSlack),
                (
                    ReplayFlavor::Quantized { k: q.k },
                    SchedulerKind::quantized_lstf(q.k, q.mapper),
                    HeaderInit::LstfSlack,
                ),
            ],
            (None, _, listed) => listed
                .iter()
                .map(|&(kind, init)| (ReplayFlavor::Exact, kind, init))
                .collect(),
        };

    let (original, summary) = match spec.traffic {
        TrafficMode::OpenLoop => {
            // Inject-all from the lazy train: the packets `max_packets`
            // keeps are its prefix, and only they are ever built.
            let cap = spec.max_packets.unwrap_or(usize::MAX);
            let packets = udp_packet_stream(&flows, MTU).take(cap);
            let injected = train_packets(&flows).min(cap as u64);
            match spec.failures {
                Some(f) => {
                    let schedule =
                        FailureSchedule::generate(topo, f.profile, f.rate, spec.window, spec.seed);
                    let churn = run_schedule_with_failures(
                        topo, &assign, packets, &schedule, f.inflight, &opts,
                    );
                    let mut summary = summarize_trace(&churn.trace, &flows, injected, None);
                    summary.disruption = Some(DisruptionSummary {
                        links_failed: schedule.links_failed(),
                        rerouted: churn.stats.rerouted,
                        dropped_at_dead_link: churn.stats.dropped_dead_link,
                        churn_replay_match_rate: None, // the caller's, from the replay
                    });
                    (churn.trace, summary)
                }
                None => {
                    let original = run_schedule(topo, &assign, packets, &opts);
                    let summary = summarize_trace(&original, &flows, injected, None);
                    (original, summary)
                }
            }
        }
        TrafficMode::ClosedLoop => {
            let run = run_tcp(
                &TcpScenario {
                    topo,
                    assign: &assign,
                    opts,
                    flows: &flows,
                    config: TcpConfig::default(),
                    policy: spec.scheduler.slack_policy(spec.rest_bps),
                    horizon: spec.horizon.expect("closed-loop jobs carry a horizon"),
                    max_packets: spec.max_packets.map(|n| n as u64),
                },
                &routing,
            );
            let summary = summarize_trace(&run.trace, &flows, run.sim.injected, Some(&run.stats));
            (run.trace, summary)
        }
    };

    // Replay needs every packet delivered (§2.3 runs drop-free); with
    // unbounded buffers dropped > 0 can't happen — the gate makes a
    // buffered grid degrade to "no replay" instead of a panic. A churn
    // job's drops at dead links are *expected* and excluded on both
    // sides, so the gate doesn't apply to it.
    let replayable =
        spec.replay && summary.delivered > 0 && (summary.dropped == 0 || spec.failures.is_some());
    let mut replays = Vec::new();
    if replayable {
        // Each replay set comes from the recorded schedule alone: the
        // delivered packets in `(i(p), id)` order. An open-loop train is
        // already in that order with dense ids, so this is the train
        // itself; a closed-loop run replays exactly the segments and acks
        // its endpoints emitted, a horizon-truncated one its delivered
        // prefix.
        for (i, &(flavor, kind, init)) in plan.iter().enumerate() {
            let replay = Replay {
                kind,
                opts: BuildOptions {
                    record,
                    seed: spec.seed,
                    ..BuildOptions::default()
                },
                probe: if i + 1 == plan.len() {
                    probe.take()
                } else {
                    None
                },
                ..Replay::new(topo, &original, spec.seed)
            };
            let mut forensics = BlameCollector::new(flavor);
            let (trace, report) = match flavor {
                ReplayFlavor::Churn => replay.lazy(&mut forensics),
                _ => replay.eager_set(replay_stream(topo, &original, init), &mut forensics),
            };
            replays.push(ReplayRun {
                flavor,
                report,
                forensics,
                trace,
            });
        }
    }

    JobRun {
        flows,
        original,
        summary,
        replays,
    }
}

/// Execute one job to completion against a [`SharedScenarios`] cache —
/// one topology build and all-pairs BFS per distinct topology, reused by
/// every job that names it (a topology the cache was not primed with is
/// built on the spot) — and fold its replays into the record's summary.
pub fn run_job_shared(spec: &JobSpec, shared: &SharedScenarios) -> JobRecord {
    // lint:allow(wall-clock): feeds only the record's wall_s field,
    // which to_json(false) excludes from the determinism surface.
    let t0 = Instant::now();
    let JobRun {
        flows,
        mut summary,
        replays,
        ..
    } = execute(spec, shared, RecordMode::EndToEnd, &[], None);
    for run in &replays {
        // An empty comparison matched nothing: null, not a perfect 1.0.
        let (rate, gt_t) = (run.report.match_rate(), run.report.frac_gt_t_rate());
        match run.flavor {
            ReplayFlavor::Exact | ReplayFlavor::Churn => {
                summary.replay_match_rate = rate;
                summary.replay_frac_gt_t = gt_t;
                // A churn job's disruption block repeats its rate.
                if let Some(disruption) = summary.disruption.as_mut() {
                    disruption.churn_replay_match_rate = rate;
                }
            }
            // FCT degradation is measured against the exact replay that
            // ran first.
            ReplayFlavor::Quantized { .. } => {
                summary.quantized_match_rate = rate;
                summary.quantized_frac_gt_t = gt_t;
                let mean_fct = |r: &ReplayRun| trace_mean_fct(&r.trace, &flows);
                summary.quantized_fct_delta_s = match (mean_fct(run), mean_fct(&replays[0])) {
                    (Some(q), Some(exact)) => Some(q - exact),
                    _ => None,
                };
            }
        }
        // The last replay's forensics stand: when the queues axis is
        // present the record explains the quantized divergence (the
        // interesting one).
        summary.divergence = Some(run.forensics.summary());
    }

    JobRecord {
        spec: *spec,
        summary,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Mean flow completion time over a (replay) trace: per flow, last data
/// packet exit minus the flow's start, averaged in flow-id order. `None`
/// when the trace delivered nothing — the quantized-vs-exact FCT delta
/// has no meaning on an empty run.
pub fn trace_mean_fct(trace: &Trace, flows: &[FlowSpec]) -> Option<f64> {
    let mut last_exit = vec![None::<SimTime>; flows.len()];
    for (_, rec) in trace.stream() {
        if rec.kind != PacketKind::Data {
            continue;
        }
        let Some(exited) = rec.exited else { continue };
        let slot = &mut last_exit[rec.flow.index()];
        *slot = Some(slot.map_or(exited, |e| e.max(exited)));
    }
    let mut sum = 0.0;
    let mut n = 0usize;
    for (flow, exit) in flows.iter().zip(&last_exit) {
        if let Some(exit) = exit {
            sum += exit.saturating_since(flow.start).as_secs_f64();
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// Distill an original-run trace into the summary metrics, one record at
/// a time: the trace is consumed through [`Trace::stream`] into a
/// [`RunAccumulator`], so a streaming (spilled) trace summarizes in
/// bounded memory and a resident one never allocates a per-packet sample
/// vector. All accumulator state is order-insensitive (exact integer
/// picosecond sums, a logarithmic quantile sketch for p99), so both trace
/// layouts produce bit-identical summaries.
///
/// Delay, throughput and per-flow byte accounting consider **data**
/// packets only (acks are transport control); `dropped` counts every
/// kind, because any drop disqualifies the drop-free replay. For
/// closed-loop runs (`transport: Some`), flow completion times come from
/// the receiver-side [`TransportStats`] — the paper's FCT — instead of
/// last-packet-exit spans, and the summary gains the transport block.
pub fn summarize_trace(
    trace: &Trace,
    flows: &[FlowSpec],
    injected: u64,
    transport: Option<&TransportStats>,
) -> RunSummary {
    let mut acc = RunAccumulator::new(flows.len());
    for (_, rec) in trace.stream() {
        if rec.dropped {
            acc.on_drop();
            continue;
        }
        if rec.kind != PacketKind::Data {
            continue;
        }
        let Some(exited) = rec.exited else { continue };
        let delay = rec.delay().expect("exited implies delay");
        acc.on_delivery(rec.flow.index(), rec.size, delay.as_ps(), exited.as_ps());
    }

    let flow_meta: Vec<(u64, u64)> = flows.iter().map(|f| (f.size, f.start.as_ps())).collect();
    let (mut fct_samples, rates) = acc.flow_samples(&flow_meta);
    let flows_seen = fct_samples.len();

    // Closed loop: the true FCT is "last in-order byte received",
    // measured by the receivers — completed flows only.
    let completions = transport.map(|stats| stats.completions());
    if let Some(completions) = &completions {
        fct_samples = completions
            .iter()
            .map(|c| FlowSample {
                size: c.bytes,
                fct_secs: c.fct().as_secs_f64(),
            })
            .collect();
    }

    RunSummary {
        flows: flows_seen,
        packets: injected,
        delivered: acc.delivered(),
        dropped: acc.dropped(),
        delay_mean_s: acc.delay_mean_s(),
        delay_p99_s: acc.delay_p99_s(),
        fct_mean_s: ups_metrics::overall_mean_fct(&fct_samples),
        fct_buckets: mean_fct_by_bucket(&fct_samples, &FIG2_BUCKETS),
        jain: if rates.is_empty() {
            None // a dead run must not report "perfectly fair"
        } else {
            Some(jain_index(&rates))
        },
        replay_match_rate: None,
        replay_frac_gt_t: None,
        quantized_match_rate: None,
        quantized_frac_gt_t: None,
        quantized_fct_delta_s: None,
        transport: transport.map(|stats| TransportSummary {
            completed_flows: completions.as_ref().map_or(0, Vec::len),
            goodput_bytes: stats.goodput_total(),
            retransmits: stats.retransmits_total(),
            rto_events: stats.timeouts_total(),
            slack_ooo: stats.slack_out_of_order(),
        }),
        disruption: None,
        divergence: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Failures, Queues, Scheduler};
    use ups_dynamics::FailureProfile;
    use ups_netsim::prelude::{DeadLinkPolicy, Dur, MapperKind};
    use ups_transport::SlackPolicy;

    const RANDOM_LINKS_06: (FailureProfile, f64) = (FailureProfile::RandomLinks, 0.6);
    const BURST_05: (FailureProfile, f64) = (FailureProfile::Burst, 0.5);

    /// Run one job with nothing cached: the topology is built on demand.
    fn run(spec: &JobSpec) -> JobRecord {
        run_job_shared(spec, &SharedScenarios::for_jobs(&[]))
    }

    fn spec(scheduler: &str, replay: bool) -> JobSpec {
        // fixed-mtu on a line: dense single-packet flows at a small
        // window (the empirical profiles' multi-MB means make 2-host
        // micro-topologies too sparse for millisecond windows).
        JobSpec {
            job_id: 0,
            topology: "Line(3)",
            profile: "fixed-mtu",
            scheduler: Scheduler::from_name(scheduler).unwrap(),
            traffic: TrafficMode::OpenLoop,
            rest_bps: None,
            utilization: 0.6,
            seed: 11,
            window: Dur::from_ms(4),
            horizon: None,
            buffer_bytes: None,
            replay,
            queues: None,
            failures: None,
            max_packets: None,
        }
    }

    fn failure_spec(
        scheduler: &str,
        (profile, rate): (FailureProfile, f64),
        inflight: DeadLinkPolicy,
        replay: bool,
    ) -> JobSpec {
        JobSpec {
            topology: "FatTree(k=4)",
            failures: Some(Failures {
                profile,
                rate,
                inflight,
            }),
            ..spec(scheduler, replay)
        }
    }

    fn quantized_spec(scheduler: &str, k: u32, mapper: MapperKind) -> JobSpec {
        JobSpec {
            queues: Some(Queues { k, mapper }),
            ..spec(scheduler, true)
        }
    }

    fn closed_spec(scheduler: &str, replay: bool) -> JobSpec {
        JobSpec {
            traffic: TrafficMode::ClosedLoop,
            horizon: Some(Dur::from_ms(80)),
            ..spec(scheduler, replay)
        }
    }

    #[test]
    fn fifo_job_produces_consistent_metrics() {
        let rec = run(&spec("FIFO", false));
        let s = &rec.summary;
        assert!(s.packets > 100, "workload too small: {}", s.packets);
        assert_eq!(s.delivered, s.packets, "unbuffered line drops nothing");
        assert_eq!(s.dropped, 0);
        assert!(s.flows > 0 && s.flows <= s.packets as usize);
        assert!(s.delay_mean_s > 0.0 && s.delay_mean_s <= s.delay_p99_s);
        assert!(s.fct_mean_s > 0.0);
        let jain = s.jain.expect("delivering run has a Jain index");
        assert!(jain > 0.0 && jain <= 1.0 + 1e-12);
        assert!(s.replay_match_rate.is_none());
        assert!(
            s.transport.is_none(),
            "open-loop runs carry no transport block"
        );
        assert!(rec.wall_s > 0.0);
    }

    #[test]
    fn replay_on_a_line_matches_well() {
        // ≤ 2 congestion points on a line ⇒ near-perfect LSTF replay.
        let rec = run(&spec("Random", true));
        let rate = rec.summary.replay_match_rate.expect("replay ran");
        assert!(rate > 0.95, "LSTF matched only {rate}");
        assert!(rec.summary.replay_frac_gt_t.unwrap() <= 1.0 - rate + 1e-12);
    }

    #[test]
    fn identical_specs_yield_identical_records() {
        let a = run(&spec("SJF", true));
        let b = run(&spec("SJF", true));
        assert_eq!(a.to_json(false), b.to_json(false));
        // And the record parses back.
        let v = crate::json::parse(&a.to_json(true)).unwrap();
        assert_eq!(
            v.get("schema").unwrap().as_str(),
            Some("ups-sweep-record/v5")
        );
        assert!(v.get("wall_s").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn quantized_job_reports_degradation_against_exact_replay() {
        // K=1 degrades the replay to per-port FIFO: on a Random original
        // the quantized match rate must fall visibly below exact LSTF's.
        let rec = run(&quantized_spec("Random", 1, MapperKind::Dynamic));
        let s = &rec.summary;
        let exact = s.replay_match_rate.expect("exact replay ran");
        let quant = s.quantized_match_rate.expect("quantized replay ran");
        assert!(quant <= exact + 1e-12, "quantized {quant} vs exact {exact}");
        assert!(
            s.quantized_frac_gt_t.unwrap() <= 1.0 - quant + 1e-12,
            "gt-T bounded by overdue"
        );
        assert!(s.quantized_fct_delta_s.is_some());
    }

    #[test]
    fn large_k_dynamic_quantization_is_exact() {
        // With K far above the distinct ranks in flight, the dynamic
        // mapper is bit-exact: identical match rate and zero FCT delta.
        let rec = run(&quantized_spec("Random", 4096, MapperKind::Dynamic));
        let s = &rec.summary;
        assert_eq!(s.quantized_match_rate, s.replay_match_rate);
        assert_eq!(s.quantized_frac_gt_t, s.replay_frac_gt_t);
        assert_eq!(s.quantized_fct_delta_s, Some(0.0));
    }

    #[test]
    fn jobs_without_the_queues_axis_skip_quantized_metrics() {
        let rec = run(&spec("Random", true));
        assert!(rec.summary.replay_match_rate.is_some());
        assert!(rec.summary.quantized_match_rate.is_none());
        assert!(rec.summary.quantized_fct_delta_s.is_none());
    }

    #[test]
    fn failure_job_reports_a_disruption_block_and_churn_replay() {
        let rec = run(&failure_spec(
            "FIFO",
            RANDOM_LINKS_06,
            DeadLinkPolicy::Reroute,
            true,
        ));
        let s = &rec.summary;
        let d = s.disruption.as_ref().expect("failure job disruption block");
        assert!(d.links_failed > 0, "schedule must actually fail links");
        assert!(
            d.rerouted > 0,
            "a 60% cut on the fat-tree must divert someone"
        );
        let churn_rate = d.churn_replay_match_rate.expect("replay ran");
        assert_eq!(
            s.replay_match_rate,
            Some(churn_rate),
            "top-level replay rate is the churn replay's"
        );
        assert!((0.0..=1.0).contains(&churn_rate));
        assert!(s.delivered > 0);
    }

    #[test]
    fn failure_job_drop_policy_counts_dead_link_losses() {
        let rec = run(&failure_spec("FIFO", BURST_05, DeadLinkPolicy::Drop, false));
        let s = &rec.summary;
        let d = s.disruption.as_ref().unwrap();
        assert_eq!(d.rerouted, 0, "drop policy never reroutes");
        assert!(d.dropped_at_dead_link > 0);
        assert_eq!(s.dropped, d.dropped_at_dead_link, "no buffer drops here");
        assert!(
            d.churn_replay_match_rate.is_none(),
            "replay skipped on request"
        );
    }

    #[test]
    #[should_panic(expected = "open-loop schedules only")]
    fn closed_loop_failure_spec_panics_loudly() {
        let mut s = failure_spec("FIFO", BURST_05, DeadLinkPolicy::Drop, false);
        s.traffic = TrafficMode::ClosedLoop;
        s.horizon = Some(Dur::from_ms(20));
        let _ = run(&s);
    }

    #[test]
    fn static_jobs_carry_no_disruption_block() {
        let rec = run(&spec("FIFO", false));
        assert!(rec.summary.disruption.is_none());
    }

    #[test]
    fn failure_jobs_are_deterministic() {
        let a = run(&failure_spec(
            "Random",
            (FailureProfile::RandomLinks, 0.4),
            DeadLinkPolicy::Reroute,
            true,
        ));
        let b = run(&failure_spec(
            "Random",
            (FailureProfile::RandomLinks, 0.4),
            DeadLinkPolicy::Reroute,
            true,
        ));
        assert_eq!(a.to_json(false), b.to_json(false));
    }

    #[test]
    fn shared_scenarios_match_fresh_builds() {
        // The memoized path must be invisible in the records.
        let specs = [spec("FIFO", true), spec("Random", true)];
        let shared = SharedScenarios::for_jobs(&specs);
        assert_eq!(shared.len(), 1, "one distinct topology");
        for s in &specs {
            assert_eq!(
                run_job_shared(s, &shared).to_json(false),
                run(s).to_json(false)
            );
        }
    }

    #[test]
    fn max_packets_caps_the_workload() {
        let mut s = spec("FIFO", false);
        s.max_packets = Some(50);
        let rec = run(&s);
        assert_eq!(rec.summary.packets, 50);
    }

    #[test]
    fn mixed_assignment_resolves() {
        let topo = topology_by_name("I2:small").unwrap();
        let mixed = Scheduler::from_name("FQ/FIFO+").unwrap().assignment(&topo);
        let kinds: Vec<SchedulerKind> = topo.nodes().map(|n| mixed.kind_for(n)).collect();
        assert!(kinds.contains(&SchedulerKind::Fq));
        assert!(kinds.contains(&SchedulerKind::FifoPlus));
    }

    #[test]
    fn slack_policy_mapping_follows_the_scheduler_under_test() {
        let policy = |label: &str, rest| Scheduler::from_name(label).unwrap().slack_policy(rest);
        assert!(matches!(policy("LSTF", None), SlackPolicy::FctSjf));
        assert!(matches!(policy("LSTF", Some(7)), SlackPolicy::Fairness(7)));
        assert!(matches!(policy("FIFO+", None), SlackPolicy::Constant(_)));
        for label in ["FIFO", "FQ", "SJF", "SRPT", "LSTF-P", "FQ/FIFO+"] {
            assert!(matches!(policy(label, None), SlackPolicy::None), "{label}");
        }
    }

    #[test]
    fn closed_loop_job_reports_transport_metrics_and_replays() {
        let rec = run(&closed_spec("FIFO", true));
        let s = &rec.summary;
        let t = s.transport.as_ref().expect("closed-loop transport block");
        assert!(t.completed_flows > 0, "single-MTU flows complete fast");
        assert!(t.goodput_bytes > 0);
        assert!(s.packets > s.delivered, "acks inflate injected over data");
        assert!(s.delay_mean_s > 0.0);
        assert!(s.fct_mean_s > 0.0, "FCT from receiver completions");
        assert!(s.jain.is_some());
        let rate = s.replay_match_rate.expect("as-executed schedule replayed");
        assert!(rate > 0.9, "LSTF replay of a TCP FIFO line: {rate}");
    }

    #[test]
    fn closed_loop_jobs_are_deterministic() {
        let a = run(&closed_spec("SJF", true));
        let b = run(&closed_spec("SJF", true));
        assert_eq!(a.to_json(false), b.to_json(false));
    }

    #[test]
    fn closed_loop_respects_the_packet_cap() {
        let mut s = closed_spec("FIFO", false);
        s.max_packets = Some(60);
        let rec = run(&s);
        assert!(rec.summary.packets >= 60, "cap binds");
        assert!(
            rec.summary.packets < 600,
            "run stopped early: {}",
            rec.summary.packets
        );
    }

    #[test]
    fn long_lived_closed_loop_job_runs_without_completions() {
        let mut s = closed_spec("LSTF", false);
        s.profile = "long-lived";
        s.rest_bps = Some(100_000_000);
        let rec = run(&s);
        let t = rec.summary.transport.as_ref().unwrap();
        assert_eq!(t.completed_flows, 0, "persistent flows never finish");
        assert!(t.goodput_bytes > 0, "but they move data");
        assert_eq!(rec.summary.fct_mean_s, 0.0, "no completions, no FCT");
        assert!(rec.summary.jain.is_some());
    }
}
