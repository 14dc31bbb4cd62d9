//! `sweep explain` — re-run one job with full hop recording and attribute
//! its replay divergence.
//!
//! Sweep records answer *how much* a replay diverged (the v5 `divergence`
//! block); this module answers *where and why*. It re-executes a single
//! [`JobSpec`] through the sweep's own job body
//! ([`crate::runner::execute`]) — same registries, same seed, same gate,
//! same replays, so the re-run reproduces the sweep's numbers
//! (`tests/determinism.rs` checks it) — but records both the original
//! and the replay in [`RecordMode::PerHop`], which is what lets the
//! forensics layer walk hop timelines instead of degrading to exit-only
//! blame (the sweep's own records stay end-to-end: per-hop recording on
//! every job would defeat the bounded-memory path).
//!
//! The result is an [`Explanation`]: the comparison report, the
//! [`BlameCollector`] with its per-node/per-link/per-flow aggregates,
//! rendered tables, and optional Perfetto instant markers for the
//! worst-lateness packets.

use ups_core::ReplayReport;
use ups_forensics::{BlameCollector, ReplayFlavor};
use ups_metrics::RunSummary;
use ups_netsim::prelude::RecordMode;
use ups_obs::{InstantMarker, SharedProbe, TimeSeries};

use crate::grid::{JobSpec, TrafficMode};
use crate::runner::{execute, ReplayRun, SharedScenarios};

/// Everything `sweep explain` learned about one job's divergence.
pub struct Explanation {
    /// The job that was re-run.
    pub spec: JobSpec,
    /// Which replay the forensics attributed.
    pub flavor: ReplayFlavor,
    /// The §2 comparison report of that replay.
    pub report: ReplayReport,
    /// The attribution: taxonomy counts, per-node blame, worst packets.
    pub forensics: BlameCollector,
    /// Sampled series of the replay run (when a probe was attached for
    /// Perfetto export).
    pub series: Option<TimeSeries>,
}

impl Explanation {
    /// Render the report header, the conservation line and the top-`k`
    /// blame tables as terminal text.
    pub fn render(&self, k: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "job {} — {} on {} ({} replay)\n",
            self.spec.job_id, self.spec.scheduler, self.spec.topology, self.flavor
        ));
        let rate = self
            .report
            .match_rate()
            .map_or("n/a".to_string(), |r| format!("{:.6}", r));
        out.push_str(&format!(
            "compared {} packets: {} diverged, {} beyond T, {} missing (match rate {})\n",
            self.report.total,
            self.report.overdue,
            self.report.overdue_gt_t,
            self.report.missing,
            rate
        ));
        // The conservation law, stated with the numbers so a reader can
        // check it without trusting us: every mismatched packet got
        // exactly one cause and one inversion class.
        let s = self.forensics.summary();
        out.push_str(&format!(
            "conservation: causes {} = inversions {} = mismatches {} = report {}\n\n",
            s.cause_total(),
            s.inversion_total(),
            self.forensics.mismatches(),
            self.report.overdue
        ));
        out.push_str(&self.forensics.render_tables(k));
        out
    }

    /// Perfetto instant markers for the worst-lateness divergences, on
    /// the virtual-time axis of the original run.
    pub fn markers(&self) -> Vec<InstantMarker> {
        self.forensics
            .worst_cases()
            .iter()
            .map(|w| InstantMarker {
                t_ps: w.exited_ps,
                name: w.cause.name().to_string(),
                detail: format!(
                    "packet {} flow {} at {}: {}, late {:.3} us",
                    w.id,
                    w.flow,
                    w.node,
                    w.kind,
                    w.lateness.as_us_f64()
                ),
            })
            .collect()
    }
}

/// Re-run `spec` through the job body ([`execute`]) with per-hop
/// recording and explain its last replay — the quantized one under the
/// `queues` axis, the churn one under `failures`, else the exact one: the
/// replay whose `divergence` block the sweep record carries.
/// `with_series` attaches a sampling probe to that replay (for Perfetto
/// export); it never changes the simulation results — the obs determinism
/// contract.
///
/// Errors (as text for the CLI) when the job cannot be explained: a
/// closed-loop job (endpoints decide their own packet sets; the sweep
/// record is the right surface there), a job whose spec disabled the
/// replay, or one the executor's drop-free gate left without a replay.
pub fn explain_job(
    spec: &JobSpec,
    shared: &SharedScenarios,
    with_series: bool,
) -> Result<Explanation, String> {
    if spec.traffic == TrafficMode::ClosedLoop {
        return Err(
            "closed-loop jobs cannot be explained hop-by-hop: the endpoints' as-executed \
             schedule is already the replay target; use the sweep record's divergence block"
                .into(),
        );
    }
    if !spec.replay {
        return Err("this job's spec has replay: false — nothing to explain".into());
    }
    let probe = with_series.then(|| {
        // Sample at ~1/512 of the job window (floor 1 µs) — enough rows
        // for a readable Perfetto timeline without drowning short jobs.
        SharedProbe::new((spec.window.as_ps() / 512).max(1_000_000))
    });
    // Per-hop recording on both sides: the whole point of the re-run.
    let mut run = execute(spec, shared, RecordMode::PerHop, &[], probe.clone());
    let Some(ReplayRun {
        flavor,
        report,
        forensics,
        ..
    }) = run.replays.pop()
    else {
        return Err(match run.summary {
            RunSummary { delivered: 0, .. } => {
                "the run delivered nothing; no replay to explain".into()
            }
            RunSummary { dropped, .. } => format!(
                "the original run dropped {dropped} packets; §2.3 replays run drop-free \
                 (the sweep skips the replay on this job too)"
            ),
        });
    };
    Ok(Explanation {
        spec: *spec,
        flavor,
        report,
        forensics,
        series: probe.map(|p| p.take_series()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Failures, Queues, Scheduler, TrafficMode};
    use ups_dynamics::FailureProfile;
    use ups_netsim::prelude::{DeadLinkPolicy, Dur, MapperKind};

    fn base_spec() -> JobSpec {
        JobSpec {
            job_id: 0,
            topology: "Line(3)",
            profile: "fixed-mtu",
            scheduler: Scheduler::from_name("Random").unwrap(),
            traffic: TrafficMode::OpenLoop,
            rest_bps: None,
            utilization: 0.6,
            seed: 11,
            window: Dur::from_ms(4),
            horizon: None,
            buffer_bytes: None,
            replay: true,
            queues: None,
            failures: None,
            max_packets: None,
        }
    }

    fn explain(spec: JobSpec) -> Result<Explanation, String> {
        let shared = SharedScenarios::for_jobs([&spec]);
        explain_job(&spec, &shared, false)
    }

    #[test]
    fn quantized_job_explains_with_conserved_counts() {
        let mut spec = base_spec();
        spec.queues = Some(Queues {
            k: 1,
            mapper: MapperKind::Dynamic,
        });
        let ex = explain(spec).expect("explainable job");
        assert_eq!(ex.flavor, ReplayFlavor::Quantized { k: 1 });
        // K=1 degrades LSTF to FIFO: a Random original must diverge.
        assert!(ex.report.overdue > 0, "K=1 replay should diverge");
        let s = ex.forensics.summary();
        assert_eq!(s.cause_total(), ex.report.overdue as u64);
        assert_eq!(s.inversion_total(), ex.report.overdue as u64);
        assert!(!s.top_nodes.is_empty(), "blame table names switches");
        // Per-hop recording means real hop attribution, not exit-only.
        assert!(
            s.bucket_collision > 0,
            "quantized divergence should show bucket collisions: {:?}",
            s
        );
        let rendered = ex.render(5);
        assert!(rendered.contains("mismatch taxonomy"));
        assert!(rendered.contains("conservation:"));
        assert!(!ex.markers().is_empty(), "worst cases become markers");
    }

    #[test]
    fn closed_loop_and_replayless_jobs_are_rejected() {
        let mut spec = base_spec();
        spec.traffic = TrafficMode::ClosedLoop;
        spec.horizon = Some(Dur::from_ms(10));
        assert!(explain(spec)
            .err()
            .expect("rejected")
            .contains("closed-loop"));
        let mut spec = base_spec();
        spec.replay = false;
        assert!(explain(spec)
            .err()
            .expect("rejected")
            .contains("replay: false"));
    }

    #[test]
    fn churn_job_explains_with_hop_blame_and_a_series() {
        let spec = JobSpec {
            topology: "FatTree(k=4)",
            failures: Some(Failures {
                profile: FailureProfile::RandomLinks,
                rate: 0.6,
                inflight: DeadLinkPolicy::Reroute,
            }),
            max_packets: Some(4000),
            ..base_spec()
        };
        let shared = SharedScenarios::for_jobs([&spec]);
        let ex = explain_job(&spec, &shared, true).expect("explainable job");
        assert_eq!(ex.flavor, ReplayFlavor::Churn);
        assert!(
            ex.series.is_some_and(|s| !s.rows.is_empty()),
            "sampled replay series"
        );
        let s = ex.forensics.summary();
        assert!(ex.report.overdue > 0, "churn replay should diverge");
        assert_eq!(s.inversion_total(), ex.report.overdue as u64);
        // Per-hop records on both sides: blame reaches real hops instead
        // of degrading to exit lateness.
        assert!(s.exit_only < s.inversion_total(), "{s:?}");
    }

    #[test]
    fn exact_replay_on_line_matches_perfectly() {
        // On Line(3) with per-hop LSTF slack headers the exact replay
        // reproduces the schedule: the explanation reports zero blame.
        let ex = explain(base_spec()).expect("explainable job");
        assert_eq!(ex.flavor, ReplayFlavor::Exact);
        assert_eq!(ex.forensics.mismatches(), ex.report.overdue as u64);
    }
}
