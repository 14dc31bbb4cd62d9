//! The explorer: drives a closure-under-test across interleavings.
//!
//! Two strategies share one runtime ([`crate::model`]):
//!
//! * [`explore`] — **bounded-preemption DFS**. The search tree's nodes
//!   are decision points; edges are schedulable threads. The first
//!   execution follows the default policy (keep running the current
//!   thread, else the lowest tid); each later execution replays a
//!   recorded prefix and deviates at the deepest decision with an
//!   untried alternative. Alternatives that *preempt* (switch away
//!   from a thread that could have continued) are only explored while
//!   the execution's preemption count is under
//!   [`Config::preemption_bound`] — the classic CHESS result: almost
//!   all real concurrency bugs need only a couple of preemptions, and
//!   the bound turns an intractable tree into seconds of work.
//!   Forced switches (the current thread blocked) are free.
//!
//! * [`explore_random`] — seeded uniform schedules for the tail the
//!   bound excludes. Same runtime, same recording, so a failing random
//!   schedule replays exactly like a DFS one.
//!
//! Every failure carries a [`Schedule`]: a run-length-encoded string
//! (`ups-race/v1:0x12,1x3,0`) of chosen tids, printable in a panic
//! message and parseable back — a counterexample interleaving becomes
//! a one-line committed regression fixture replayed with [`replay`].
//!
//! Determinism: executions are pure functions of the schedule; the
//! only RNG is in-crate SplitMix64 under a caller-supplied seed. Two
//! runs of the same suite explore identical executions in identical
//! order.

use crate::model::{Decision, Exec, RunResult, Script, SplitMix64};

/// Explorer + runtime configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum preemptive context switches per execution in DFS
    /// (forced switches are free). 2 catches the overwhelming
    /// majority of schedule-sensitive bugs.
    pub preemption_bound: usize,
    /// Hard cap on executions explored; hitting it makes the
    /// [`Outcome`] incomplete rather than silently passing.
    pub max_executions: u64,
    /// Decision points per execution before the run fails as a
    /// livelock.
    pub max_steps: usize,
    /// Make atomic operations decision points too. Off by default:
    /// this workspace's atomics are monotone counters whose final
    /// values are interleaving-independent, and modeling them inflates
    /// schedules severalfold.
    pub preempt_atomics: bool,
    /// Restrict DFS to the subtree under this schedule prefix: the
    /// first execution replays it, and backtracking never rises above
    /// it. Lets a long search be split or resumed across runs.
    pub resume_from: Option<Schedule>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: 2,
            max_executions: 1_000_000,
            max_steps: 20_000,
            preempt_atomics: false,
            resume_from: None,
        }
    }
}

/// A recorded interleaving: the chosen tid at every decision point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    choices: Vec<usize>,
}

const SCHEDULE_PREFIX: &str = "ups-race/v1:";

impl Schedule {
    pub fn new(choices: Vec<usize>) -> Self {
        Schedule { choices }
    }

    pub fn choices(&self) -> &[usize] {
        &self.choices
    }

    pub fn len(&self) -> usize {
        self.choices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Parse the `ups-race/v1:` run-length format printed by
    /// [`std::fmt::Display`]. Accepts `tid` and `tidxcount` items.
    pub fn parse(s: &str) -> Result<Schedule, String> {
        let body = s
            .trim()
            .strip_prefix(SCHEDULE_PREFIX)
            .ok_or_else(|| format!("schedule must start with {SCHEDULE_PREFIX:?}"))?;
        let mut choices = Vec::new();
        if body.is_empty() {
            return Ok(Schedule { choices });
        }
        for item in body.split(',') {
            let (tid, count) = match item.split_once('x') {
                Some((t, c)) => (t, c),
                None => (item, "1"),
            };
            let tid: usize = tid
                .parse()
                .map_err(|_| format!("bad tid in schedule item {item:?}"))?;
            let count: usize = count
                .parse()
                .map_err(|_| format!("bad count in schedule item {item:?}"))?;
            if count == 0 {
                return Err(format!("zero count in schedule item {item:?}"));
            }
            choices.extend(std::iter::repeat_n(tid, count));
        }
        Ok(Schedule { choices })
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{SCHEDULE_PREFIX}")?;
        let mut i = 0;
        let mut first = true;
        while i < self.choices.len() {
            let tid = self.choices[i];
            let mut run = 1;
            while i + run < self.choices.len() && self.choices[i + run] == tid {
                run += 1;
            }
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if run == 1 {
                write!(f, "{tid}")?;
            } else {
                write!(f, "{tid}x{run}")?;
            }
            i += run;
        }
        Ok(())
    }
}

impl std::str::FromStr for Schedule {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Schedule::parse(s)
    }
}

/// A failing execution: what went wrong and the exact interleaving
/// that triggers it.
#[derive(Debug, Clone)]
pub struct Failure {
    pub message: String,
    pub schedule: Schedule,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}\n  failing schedule: {}\n  replay with ups_race::replay(&cfg, &schedule.parse().unwrap(), f)",
            self.message, self.schedule
        )
    }
}

/// Result of an exploration.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Executions actually run.
    pub executions: u64,
    /// First failure found (exploration stops at the first).
    pub failure: Option<Failure>,
    /// False iff [`Config::max_executions`] was exhausted before the
    /// search space — a pass with `complete == false` proves less.
    pub complete: bool,
}

impl Outcome {
    /// Panic with the failure (message + replayable schedule) if the
    /// exploration found one. The one-liner test suites want.
    pub fn assert_pass(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "model check failed after {} executions: {f}",
                self.executions
            );
        }
    }
}

/// One DFS node: the choice taken and the untried alternatives.
struct Frame {
    chosen: usize,
    alts: Vec<usize>,
}

/// Alternatives at `d` that the preemption bound permits exploring.
fn allowed_alts(d: &Decision, bound: usize) -> Vec<usize> {
    d.enabled
        .iter()
        .copied()
        .filter(|&alt| {
            if alt == d.chosen {
                return false;
            }
            let preemptive = d.current_enabled && alt != d.current;
            !preemptive || d.preemptions_before < bound
        })
        .collect()
}

fn run_once(cfg: &Config, script: Script, f: &(dyn Fn() + Sync)) -> RunResult {
    Exec::run(cfg, script, f)
}

fn failure_of(run: RunResult) -> Option<Failure> {
    run.failure.map(|message| Failure {
        message,
        schedule: Schedule::new(run.schedule),
    })
}

/// Exhaustive bounded-preemption DFS over `f`'s interleavings.
/// Deterministic; stops at the first failure.
pub fn explore(cfg: &Config, f: impl Fn() + Sync) -> Outcome {
    let pinned = cfg
        .resume_from
        .as_ref()
        .map(|s| s.choices().to_vec())
        .unwrap_or_default();
    let mut frames: Vec<Frame> = pinned
        .iter()
        .map(|&c| Frame {
            chosen: c,
            alts: Vec::new(),
        })
        .collect();
    let pinned_len = frames.len();
    let mut executions: u64 = 0;
    loop {
        let script: Vec<usize> = frames.iter().map(|fr| fr.chosen).collect();
        let run = run_once(cfg, Script::Fixed(script), &f);
        executions += 1;
        if run.failure.is_some() {
            return Outcome {
                executions,
                failure: failure_of(run),
                complete: true,
            };
        }
        for d in run.decisions.iter().skip(frames.len()) {
            frames.push(Frame {
                chosen: d.chosen,
                alts: allowed_alts(d, cfg.preemption_bound),
            });
        }
        if executions >= cfg.max_executions {
            return Outcome {
                executions,
                failure: None,
                complete: false,
            };
        }
        // Backtrack to the deepest frame with an untried alternative,
        // never rising into the pinned resume prefix.
        loop {
            if frames.len() <= pinned_len {
                return Outcome {
                    executions,
                    failure: None,
                    complete: true,
                };
            }
            let fr = frames.last_mut().expect("len checked above");
            if let Some(alt) = fr.alts.pop() {
                fr.chosen = alt;
                break;
            }
            frames.pop();
        }
    }
}

/// `schedules` seeded uniform-random interleavings of `f`.
/// Deterministic in `seed`; stops at the first failure.
pub fn explore_random(cfg: &Config, seed: u64, schedules: u64, f: impl Fn() + Sync) -> Outcome {
    let mut master = SplitMix64(seed);
    let mut executions = 0;
    for _ in 0..schedules.min(cfg.max_executions) {
        let run = run_once(cfg, Script::Random(SplitMix64(master.next())), &f);
        executions += 1;
        if run.failure.is_some() {
            return Outcome {
                executions,
                failure: failure_of(run),
                complete: true,
            };
        }
    }
    Outcome {
        executions,
        failure: None,
        complete: schedules <= cfg.max_executions,
    }
}

/// Replay one exact interleaving (a committed counterexample, say).
/// `Err` carries the reproduced failure; `Ok` means it no longer
/// fails under this schedule.
pub fn replay(cfg: &Config, schedule: &Schedule, f: impl Fn() + Sync) -> Result<(), Failure> {
    let run = run_once(cfg, Script::Fixed(schedule.choices().to_vec()), &f);
    match failure_of(run) {
        Some(fail) => Err(fail),
        None => Ok(()),
    }
}
