//! Regenerates the §2.3 ablations:
//!
//! * **§2.3(7)** — simple-priorities replay (`prio = o(p)`) vs LSTF on the
//!   default Random scenario (paper: 21% vs 0.21% overdue).
//! * **§2.3(5)** — preemption: replaying SJF and LIFO originals with
//!   non-preemptive vs preemptive LSTF (paper: SJF 18.33% → 0.24%, LIFO
//!   14.77% → 0.25%).
//!
//! Each original is one sweep job whose schedule is replayed twice through
//! the executor's `ablations` list.

use ups_bench::{replay_job, run_jobs, Scale, I2_DEFAULT};
use ups_core::HeaderInit;
use ups_metrics::{frac, Table};
use ups_netsim::prelude::{RecordMode, SchedulerKind};

fn main() {
    let scale = Scale::from_env();
    println!(
        "# Ablations (scale={}, window={})",
        scale.label, scale.replay_window
    );
    let job = |sched| replay_job(I2_DEFAULT, 0.7, sched, scale.replay_window, 42);
    let lstf = |preemptive| (SchedulerKind::Lstf { preemptive }, HeaderInit::LstfSlack);

    println!("\n## §2.3(7): LSTF vs simple priorities (prio = o(p)), Random original");
    println!("# paper: priorities 21% overdue (20.69% > T) vs LSTF 0.21% (0.02% > T)");
    let priorities = (
        SchedulerKind::Priority { preemptive: false },
        HeaderInit::PriorityOutputTime,
    );
    let (runs, _) = run_jobs(
        &[job("Random")],
        RecordMode::EndToEnd,
        &[lstf(false), priorities],
    );
    let mut t = Table::new(&["replay", "overdue", "overdue>T", "max lateness"]);
    for (label, report) in ["LSTF", "Priorities"].into_iter().zip(&runs[0].1) {
        t.row(&[
            label.to_string(),
            frac(report.frac_overdue()),
            frac(report.frac_overdue_gt_t()),
            format!("{}", report.max_lateness),
        ]);
    }
    println!("{}", t.render());

    println!("\n## §2.3(5): effect of preemption on hard originals");
    println!("# paper: SJF 18.33% → 0.24%; LIFO 14.77% → 0.25% overdue");
    let mut t = Table::new(&[
        "original",
        "LSTF overdue",
        "LSTF-P overdue",
        "LSTF >T",
        "LSTF-P >T",
    ]);
    let originals = ["SJF", "LIFO"];
    let (runs, _) = run_jobs(
        &originals.map(job),
        RecordMode::EndToEnd,
        &[lstf(false), lstf(true)],
    );
    for (label, (_, reports)) in originals.into_iter().zip(&runs) {
        let (nonp, pre) = (&reports[0], &reports[1]);
        t.row(&[
            label.to_string(),
            frac(nonp.frac_overdue()),
            frac(pre.frac_overdue()),
            frac(nonp.frac_overdue_gt_t()),
            frac(pre.frac_overdue_gt_t()),
        ]);
    }
    println!("{}", t.render());
}
