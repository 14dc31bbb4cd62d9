//! The paper's replay experiments as lists of [`JobSpec`]s (Table 1,
//! Figure 1 and the §2.3 ablations), the one function that runs a list
//! through the sweep engine's executor, the paper's reference numbers, and
//! the workload/calibration setup the figure and degradation benches share.

use ups_core::{HeaderInit, ReplayReport};
use ups_metrics::RunSummary;
use ups_netsim::prelude::{Dur, RecordMode, SchedulerKind};
use ups_sweep::pool::{self, PoolStats};
use ups_sweep::runner::{execute, JobRun, SharedScenarios};
use ups_sweep::{JobSpec, TrafficMode};
use ups_topology::{fattree, FatTreeParams, Topology};
use ups_workload::{profile_by_name, CalibratedTrain};

use crate::scale::{env_u64, Scale};

/// The reference fat-tree workload of the engine benchmarks: web-search
/// sizes at 70% core utilization, window grown until the UDP train
/// clears `min_packets` (the throughput bench's calibration loop, now
/// shared through `ups_workload::registry`).
pub fn fattree_throughput_workload(
    utilization: f64,
    min_packets: usize,
    seed: u64,
) -> (Topology, CalibratedTrain) {
    let topo = fattree(FatTreeParams::default());
    let train = profile_by_name("web-search")
        .expect("web-search is registered")
        .udp_train_with_floor(&topo, utilization, min_packets, Dur::from_ms(4), seed);
    (topo, train)
}

/// Table 1, row by row: (topology label, utilization, scheduler label,
/// the paper's frac overdue, the paper's frac overdue > T). Scheduler
/// labels are the sweep engine's; topology labels are registry names,
/// except `Datacenter` (see [`table1_jobs`]).
pub const PAPER_TABLE1: [(&str, f64, &str, f64, f64); 14] = [
    ("I2:1Gbps-10Gbps", 0.7, "Random", 0.0021, 0.0002),
    ("I2:1Gbps-10Gbps", 0.1, "Random", 0.0007, 0.0),
    ("I2:1Gbps-10Gbps", 0.3, "Random", 0.0281, 0.0017),
    ("I2:1Gbps-10Gbps", 0.5, "Random", 0.0221, 0.0002),
    ("I2:1Gbps-10Gbps", 0.9, "Random", 0.0008, 0.000004),
    ("I2:1Gbps-1Gbps", 0.7, "Random", 0.0204, 0.000008),
    ("I2:10Gbps-10Gbps", 0.7, "Random", 0.0631, 0.0448),
    ("RocketFuel", 0.7, "Random", 0.0246, 0.0063),
    ("Datacenter", 0.7, "Random", 0.0164, 0.0154),
    ("I2:1Gbps-10Gbps", 0.7, "FIFO", 0.0143, 0.0006),
    ("I2:1Gbps-10Gbps", 0.7, "FQ", 0.0271, 0.0002),
    ("I2:1Gbps-10Gbps", 0.7, "SJF", 0.1833, 0.0019),
    ("I2:1Gbps-10Gbps", 0.7, "LIFO", 0.1477, 0.0067),
    ("I2:1Gbps-10Gbps", 0.7, "FQ/FIFO+", 0.0152, 0.0004),
];

/// The default network's row label — its registry name.
pub const I2_DEFAULT: &str = "I2:1Gbps-10Gbps";

/// The §2.3 replay job: open-loop web-search UDP at `utilization` on the
/// registry topology under the original discipline `scheduler` (a sweep
/// label), replayed drop-free through LSTF.
pub fn replay_job(
    topology: &str,
    utilization: f64,
    scheduler: &str,
    window: Dur,
    seed: u64,
) -> JobSpec {
    JobSpec {
        job_id: 0,
        topology: topology.into(),
        profile: "web-search".into(),
        scheduler: scheduler.into(),
        traffic: TrafficMode::OpenLoop,
        rest_bps: None,
        utilization,
        seed,
        window,
        horizon: None,
        buffer_bytes: None,
        replay: true,
        queues: None,
        mapper: None,
        failures: None,
        inflight: None,
        max_packets: None,
    }
}

/// The Table 1 job list: `scale.seeds` jobs (seeds 42, 43, …) per row of
/// [`PAPER_TABLE1`], row-major. The one bench-side label mapping:
/// `Datacenter` is the paper's pFabric fat-tree, `FatTree(k=…)` at
/// `scale.fattree_k`.
pub fn table1_jobs(scale: &Scale) -> Vec<JobSpec> {
    PAPER_TABLE1
        .iter()
        .flat_map(|&(label, utilization, scheduler, ..)| {
            let topology = match label {
                "Datacenter" => format!("FatTree(k={})", scale.fattree_k),
                registered => registered.to_string(),
            };
            (0..scale.seeds).map(move |s| {
                replay_job(
                    &topology,
                    utilization,
                    scheduler,
                    scale.replay_window,
                    42 + s,
                )
            })
        })
        .collect()
}

/// The Figure 1 job list: the six disciplines on the default topology at
/// 70%.
pub fn fig1_jobs(scale: &Scale) -> Vec<JobSpec> {
    ["Random", "FIFO", "FQ", "SJF", "LIFO", "FQ/FIFO+"]
        .into_iter()
        .map(|sched| replay_job(I2_DEFAULT, 0.7, sched, scale.replay_window, 42))
        .collect()
}

/// Run `jobs` through the sweep engine's job body ([`execute`]) on its
/// pool — one topology build per distinct topology, original
/// and replays recorded at `record` detail, `ablations` as [`execute`]
/// takes them — and keep what a paper row reads of each: the original
/// run's summary and every replay's report, in replay order (traces and
/// collectors are dropped on the worker). `UPS_SWEEP_WORKERS` caps the
/// pool width (default: one worker per job, at most the core count).
///
/// # Panics
/// On a job naming something the registries do not know.
pub fn run_jobs(
    jobs: &[JobSpec],
    record: RecordMode,
    ablations: &[(SchedulerKind, HeaderInit)],
) -> (Vec<(RunSummary, Vec<ReplayReport>)>, PoolStats) {
    map_jobs(jobs, record, ablations, |run| {
        let reports = run.replays.into_iter().map(|r| r.report).collect();
        (run.summary, reports)
    })
}

/// [`run_jobs`] keeping `keep(run)` of each job instead of its summary
/// and reports; `keep` runs on the worker.
pub(crate) fn map_jobs<T: Send>(
    jobs: &[JobSpec],
    record: RecordMode,
    ablations: &[(SchedulerKind, HeaderInit)],
    keep: impl Fn(JobRun) -> T + Sync,
) -> (Vec<T>, PoolStats) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = env_u64("UPS_SWEEP_WORKERS", cores as u64) as usize;
    let shared = SharedScenarios::for_jobs(jobs);
    pool::run_jobs(jobs, workers, |_, spec| {
        keep(
            execute(spec, &shared, record, ablations, None)
                .unwrap_or_else(|e| panic!("unknown {e}")),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One job through the executor: its packet count and replay reports.
    fn run(job: JobSpec, ablations: &[(SchedulerKind, HeaderInit)]) -> (usize, Vec<ReplayReport>) {
        let (mut rows, _) = run_jobs(&[job], RecordMode::EndToEnd, ablations);
        let (summary, reports) = rows.pop().expect("one job, one row");
        (summary.packets as usize, reports)
    }

    fn tiny_job(scheduler: &str) -> JobSpec {
        replay_job("I2:small", 0.7, scheduler, Dur::from_ms(4), 7)
    }

    const LSTF: (SchedulerKind, HeaderInit) = (
        SchedulerKind::Lstf { preemptive: false },
        HeaderInit::LstfSlack,
    );

    #[test]
    fn table1_has_all_fourteen_rows() {
        let jobs = table1_jobs(&Scale::quick());
        assert_eq!(jobs.len(), 14);
        // Utilization sweep present.
        let utils: Vec<f64> = jobs
            .iter()
            .filter(|s| s.scheduler == "Random" && s.topology == "I2:1Gbps-10Gbps")
            .map(|s| s.utilization)
            .collect();
        assert_eq!(utils, vec![0.7, 0.1, 0.3, 0.5, 0.9]);
    }

    #[test]
    fn datacenter_row_follows_the_scale_not_the_seed_count() {
        // More seeds at quick scale (ROADMAP 1(a)) must not change the
        // topology under the row.
        let scale = Scale {
            seeds: 3,
            ..Scale::quick()
        };
        let jobs = table1_jobs(&scale);
        assert_eq!(jobs.len(), 42);
        assert!(jobs.iter().any(|s| s.topology == "FatTree(k=4)"));
        assert!(jobs.iter().all(|s| s.topology != "FatTree(k=8)"));
        assert_eq!(
            jobs[..3].iter().map(|s| s.seed).collect::<Vec<_>>(),
            [42, 43, 44]
        );
    }

    #[test]
    fn fig1_covers_six_disciplines() {
        let jobs = fig1_jobs(&Scale::quick());
        assert_eq!(jobs.len(), 6);
        assert!(jobs.iter().any(|s| s.scheduler == "FQ/FIFO+"));
    }

    #[test]
    #[should_panic(expected = "unknown scheduler")]
    fn unknown_scheduler_rejected() {
        let _ = run(replay_job(I2_DEFAULT, 0.7, "WFQ2", Dur::from_ms(1), 1), &[]);
    }

    #[test]
    fn lstf_replays_random_schedule_mostly() {
        let (packets, reports) = run(tiny_job("Random"), &[]);
        let report = &reports[0];
        assert!(packets > 500, "workload too small: {packets}");
        assert_eq!(report.total, packets);
        // The headline claim at small scale: the overwhelming majority of
        // packets meet their targets, and almost none miss by > T.
        assert!(
            report.frac_overdue() < 0.15,
            "frac overdue {}",
            report.frac_overdue()
        );
        assert!(
            report.frac_overdue_gt_t() < 0.05,
            "frac > T {}",
            report.frac_overdue_gt_t()
        );
        assert!(report.frac_overdue_gt_t() <= report.frac_overdue());
    }

    #[test]
    fn priority_replay_is_much_worse_than_lstf() {
        // §2.3(7)'s contrast needs real multi-hop congestion (with ≤ 1
        // congestion point per packet, priorities replay fine — that's
        // Theorem 1); use the full default topology.
        let job = replay_job(I2_DEFAULT, 0.7, "Random", Dur::from_ms(20), 7);
        let priorities = (
            SchedulerKind::Priority { preemptive: false },
            HeaderInit::PriorityOutputTime,
        );
        let (_, reports) = run(job, &[LSTF, priorities]);
        let (lstf, prio) = (&reports[0], &reports[1]);
        println!(
            "priorities {} (> T {}) vs LSTF {} (> T {})",
            prio.frac_overdue(),
            prio.frac_overdue_gt_t(),
            lstf.frac_overdue(),
            lstf.frac_overdue_gt_t()
        );
        assert!(
            prio.frac_overdue() > 3.0 * lstf.frac_overdue(),
            "priorities {} vs LSTF {}",
            prio.frac_overdue(),
            lstf.frac_overdue()
        );
        assert!(
            prio.frac_overdue_gt_t() > lstf.frac_overdue_gt_t(),
            "priorities >T {} vs LSTF >T {}",
            prio.frac_overdue_gt_t(),
            lstf.frac_overdue_gt_t()
        );
    }

    #[test]
    fn preemption_helps_sjf_replay() {
        let preemptive = (SchedulerKind::Lstf { preemptive: true }, LSTF.1);
        let (_, reports) = run(tiny_job("SJF"), &[LSTF, preemptive]);
        let (nonp, pre) = (&reports[0], &reports[1]);
        assert!(
            pre.frac_overdue() <= nonp.frac_overdue(),
            "preemptive {} vs non-preemptive {}",
            pre.frac_overdue(),
            nonp.frac_overdue()
        );
    }

    #[test]
    fn fig1_ratios_mostly_at_or_below_one() {
        // "most of the packets actually have a smaller queuing delay in
        // the LSTF replay than in the original schedule" (§2.3(6)).
        let (_, reports) = run(tiny_job("Random"), &[]);
        let ratios = &reports[0].queueing_ratios;
        assert!(!ratios.is_empty());
        // `fraction_le(1.0)` is exact: 1.0 is a sketch bucket edge.
        let le_one = ratios.fraction_le(1.0);
        assert!(le_one > 0.5, "only {le_one} of ratios ≤ 1");
    }
}
