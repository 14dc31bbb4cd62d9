//! Declarative scenario grids.
//!
//! A [`ScenarioGrid`] is the cartesian product of six axes — topology ×
//! workload profile × scheduler discipline × **traffic mode** ×
//! utilization × seed (plus a sweepable `r_est` sub-axis for closed-loop
//! LSTF) — plus filters. `expand` is the one place an axis label is
//! parsed: it checks every value against the registries
//! (`ups_topology::registry`, `ups_workload::registry`,
//! [`Scheduler::from_name`], [`TrafficMode::from_name`], the mapper,
//! failure-spec and in-flight labels) and materializes the independent,
//! fully typed [`JobSpec`]s the pool executes. Job ids are assigned in
//! expansion order, so a grid fully determines its job list — the sweep
//! result record for job *k* is a pure function of the grid, never of
//! worker scheduling.

use std::fmt;

use ups_dynamics::{parse_failure_spec, FailureProfile};
use ups_metrics::json_escape;
use ups_netsim::prelude::{DeadLinkPolicy, Dur, MapperKind, SchedulerKind};
use ups_netsim::sched::{LSTF, MAX_FIXED_QUEUES};
use ups_topology::{SchedulerAssignment, Topology};
use ups_transport::SlackPolicy;

/// How a job's traffic is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficMode {
    /// Open-loop UDP packet trains paced by the host NIC (§2.3) — no
    /// feedback, the workload is fixed up front.
    OpenLoop,
    /// Closed-loop TCP Reno endpoints (§3): acks gate the send window,
    /// loss backs senders off, and the slack headers come from the
    /// [`SlackPolicy`] derived from the scheduler under test.
    ClosedLoop,
}

impl TrafficMode {
    /// Stable axis label.
    pub fn name(self) -> &'static str {
        match self {
            TrafficMode::OpenLoop => "open-loop",
            TrafficMode::ClosedLoop => "closed-loop",
        }
    }

    /// Parse an axis label.
    pub fn from_name(name: &str) -> Option<TrafficMode> {
        match name {
            "open-loop" => Some(TrafficMode::OpenLoop),
            "closed-loop" => Some(TrafficMode::ClosedLoop),
            _ => None,
        }
    }
}

/// The original discipline of a job: one uniform [`SchedulerKind`] that
/// can run as an *original* schedule, or Table 1's mixed row — half the
/// routers FQ, half FIFO+. Only [`Scheduler::from_name`] makes one, so
/// every value runs: `Omniscient` needs per-hop header vectors and `EDF`
/// needs `tmin` tables — both exist only as replay candidates — and a
/// quantized kind has no label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduler(Discipline);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Discipline {
    Uniform(SchedulerKind),
    MixedFqFifoPlus,
}

impl Scheduler {
    /// `kind` at every router, when it can run as an original schedule.
    fn uniform(kind: SchedulerKind) -> Option<Scheduler> {
        match kind {
            SchedulerKind::Omniscient
            | SchedulerKind::Edf { .. }
            | SchedulerKind::Quantized { .. } => None,
            kind => Some(Scheduler(Discipline::Uniform(kind))),
        }
    }

    /// Parse a grid label: a [`SchedulerKind::name`] or `"FQ/FIFO+"`.
    pub fn from_name(label: &str) -> Option<Scheduler> {
        match label {
            "FQ/FIFO+" => Some(Scheduler(Discipline::MixedFqFifoPlus)),
            _ => Scheduler::uniform(SchedulerKind::from_name(label)?),
        }
    }

    /// Every original discipline, in listing order.
    pub fn all() -> impl Iterator<Item = Scheduler> {
        SchedulerKind::ALL
            .into_iter()
            .filter_map(Scheduler::uniform)
            .chain([Scheduler(Discipline::MixedFqFifoPlus)])
    }

    /// The grid label, the exact inverse of [`Scheduler::from_name`].
    pub fn name(self) -> &'static str {
        match self.0 {
            Discipline::Uniform(kind) => kind.name(),
            Discipline::MixedFqFifoPlus => "FQ/FIFO+",
        }
    }

    /// The per-node assignment on `topo`.
    pub fn assignment(self, topo: &Topology) -> SchedulerAssignment {
        match self.0 {
            Discipline::Uniform(kind) => SchedulerAssignment::uniform(kind),
            Discipline::MixedFqFifoPlus => SchedulerAssignment::half_half(
                topo,
                SchedulerKind::Fq,
                SchedulerKind::FifoPlus,
                SchedulerKind::Fifo,
            ),
        }
    }

    /// The §3 slack policy a closed-loop job under this discipline
    /// stamps:
    ///
    /// * `LSTF` — [`SlackPolicy::FctSjf`] (§3.1, LSTF approximates SJF),
    ///   or [`SlackPolicy::Fairness`] when the job carries an `r_est`
    ///   (§3.3);
    /// * `FIFO+` — [`SlackPolicy::Constant`] (§3.2's uniform slack; FIFO+
    ///   ignores the header, but the stamped schedule is the one §3.2
    ///   equates with constant-slack LSTF);
    /// * everything else (FIFO/FQ/SJF/SRPT/…) — [`SlackPolicy::None`];
    ///   the endpoints still stamp `flow_size`/`remaining` so SJF and
    ///   SRPT routers can prioritize.
    pub fn slack_policy(self, rest_bps: Option<u64>) -> SlackPolicy {
        match self.0 {
            Discipline::Uniform(LSTF) => {
                rest_bps.map_or(SlackPolicy::FctSjf, SlackPolicy::Fairness)
            }
            Discipline::Uniform(SchedulerKind::FifoPlus) => {
                SlackPolicy::Constant(ups_core::tail_slack())
            }
            _ => SlackPolicy::None,
        }
    }
}

impl fmt::Display for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// The finite-priority-queue sub-axis of a job: its original schedule is
/// *additionally* replayed through quantized LSTF on `k` strict-priority
/// queues, reporting match-rate/FCT deltas against the exact-LSTF replay
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Queues {
    /// Strict-priority queue count.
    pub k: u32,
    /// Rank→queue mapper.
    pub mapper: MapperKind,
}

/// The network-dynamics axis of a job: a seeded link-outage schedule for
/// the run and the in-flight policy at a dead link. Failure jobs replay
/// the **as-executed** schedule (observed paths, delivered packets only)
/// and report a `disruption` metrics block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Failures {
    /// Outage pattern.
    pub profile: FailureProfile,
    /// Fraction of eligible links that fail, in [0, 1].
    pub rate: f64,
    /// What happens to a packet in flight at a dead link.
    pub inflight: DeadLinkPolicy,
}

impl Failures {
    /// The failure label, `profile:rate` (`"random-links:0.3"`).
    pub fn label(&self) -> String {
        format!("{}:{}", self.profile.name(), self.rate)
    }

    /// The in-flight policy label (`"reroute"` / `"drop"`).
    pub fn inflight_name(&self) -> &'static str {
        match self.inflight {
            DeadLinkPolicy::Reroute => "reroute",
            DeadLinkPolicy::Drop => "drop",
        }
    }
}

/// One fully-specified, independently-executable scenario, every axis
/// value parsed: [`ScenarioGrid::expand`] is the one place labels are
/// read, and nothing reads a label back from a spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Position in the expanded grid (dense, 0-based).
    pub job_id: usize,
    /// Topology registry name.
    pub topology: &'static str,
    /// Workload profile registry name.
    pub profile: &'static str,
    /// Original discipline.
    pub scheduler: Scheduler,
    /// Open-loop UDP or closed-loop TCP.
    pub traffic: TrafficMode,
    /// Fair-rate estimate (bits/s) for the closed-loop LSTF fairness
    /// slack policy; `None` everywhere else (LSTF then uses the §3.1
    /// FCT assignment).
    pub rest_bps: Option<u64>,
    /// Target mean core-link utilization.
    pub utilization: f64,
    /// Workload + simulation seed.
    pub seed: u64,
    /// Flow-arrival window.
    pub window: Dur,
    /// Simulated-time horizon for closed-loop runs (TCP feedback loops
    /// never drain on their own); `None` for open-loop jobs.
    pub horizon: Option<Dur>,
    /// Router buffer bytes; `None` = unbounded (drop-free, replayable).
    pub buffer_bytes: Option<u64>,
    /// Whether to run the LSTF replay and report the match rate.
    pub replay: bool,
    /// The finite-priority-queue sub-axis; `None` = exact replay only.
    pub queues: Option<Queues>,
    /// The network-dynamics sub-axis (open-loop only); `None` = a static
    /// network.
    pub failures: Option<Failures>,
    /// Optional cap on injected packets (CI smoke grids).
    pub max_packets: Option<usize>,
}

impl JobSpec {
    /// The scenario as a compact JSON object — embedded in every result
    /// record so each line is self-describing.
    pub fn scenario_json(&self) -> String {
        let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
        let quoted = |s: &str| format!("\"{}\"", json_escape(s));
        format!(
            concat!(
                r#"{{"topology":"{}","profile":"{}","scheduler":"{}","traffic":"{}","#,
                r#""rest_bps":{},"utilization":{},"seed":{},"window_ms":{},"horizon_ms":{},"#,
                r#""buffer_bytes":{},"replay":{},"queues":{},"mapper":{},"#,
                r#""failures":{},"inflight":{},"max_packets":{}}}"#
            ),
            json_escape(self.topology),
            json_escape(self.profile),
            json_escape(self.scheduler.name()),
            self.traffic.name(),
            opt(self.rest_bps.map(|r| r.to_string())),
            ups_metrics::json_num(self.utilization),
            self.seed,
            ups_metrics::json_num(self.window.as_secs_f64() * 1e3),
            ups_metrics::json_opt_num(self.horizon.map(|h| h.as_secs_f64() * 1e3)),
            opt(self.buffer_bytes.map(|b| b.to_string())),
            self.replay,
            opt(self.queues.map(|q| q.k.to_string())),
            opt(self.queues.map(|q| quoted(q.mapper.name()))),
            opt(self.failures.map(|f| quoted(&f.label()))),
            opt(self.failures.map(|f| quoted(f.inflight_name()))),
            opt(self.max_packets.map(|n| n.to_string())),
        )
    }

    /// Human-readable one-line label (pool diagnostics, progress lines).
    pub fn label(&self) -> String {
        let rest = match self.rest_bps {
            Some(r) => format!(" r_est {r}"),
            None => String::new(),
        };
        let queues = match self.queues {
            Some(q) => format!(" K{}/{}", q.k, q.mapper.name()),
            None => String::new(),
        };
        let failures = match self.failures {
            Some(f) => format!(" fail {}/{}", f.label(), f.inflight_name()),
            None => String::new(),
        };
        format!(
            "{} {} {} {}{}{}{} util {} seed {}",
            self.topology,
            self.profile,
            self.scheduler,
            self.traffic.name(),
            rest,
            queues,
            failures,
            self.utilization,
            self.seed
        )
    }
}

/// An exclusion filter: a job is dropped when **every** populated field
/// matches it. `Exclude { topology: Some("RocketFuel"), scheduler:
/// Some("Random"), .. }` drops only RocketFuel×Random combinations;
/// `utilization_above` alone caps load grid-wide.
#[derive(Debug, Clone, Default)]
pub struct Exclude {
    /// Match on topology name.
    pub topology: Option<String>,
    /// Match on profile name.
    pub profile: Option<String>,
    /// Match on scheduler label.
    pub scheduler: Option<String>,
    /// Match on traffic-mode label (`"open-loop"` / `"closed-loop"`).
    pub traffic: Option<String>,
    /// Match on the `--queues` sub-axis value (a job with no queues
    /// value never matches this field).
    pub queues: Option<u32>,
    /// Match on the failure-axis value: a label naming the same profile
    /// and rate, with or without its default rate (a static-network job,
    /// or a label that does not parse, never matches this field).
    pub failures: Option<String>,
    /// Match when utilization is strictly above this.
    pub utilization_above: Option<f64>,
}

impl Exclude {
    // One parameter per matchable axis; a struct would just restate the
    // field list.
    #[allow(clippy::too_many_arguments)]
    fn matches(
        &self,
        topo: &str,
        profile: &str,
        sched: &str,
        traffic: TrafficMode,
        queues: Option<u32>,
        failures: Option<Failures>,
        util: f64,
    ) -> bool {
        let mut any = false;
        for (field, value) in [
            (&self.topology, topo),
            (&self.profile, profile),
            (&self.scheduler, sched),
            (&self.traffic, traffic.name()),
        ] {
            if let Some(want) = field {
                if want != value {
                    return false;
                }
                any = true;
            }
        }
        if let Some(want_k) = self.queues {
            if queues != Some(want_k) {
                return false;
            }
            any = true;
        }
        if let Some(want_f) = &self.failures {
            let want = parse_failure_spec(want_f).ok();
            if want.is_none() || failures.map(|f| (f.profile, f.rate)) != want {
                return false;
            }
            any = true;
        }
        if let Some(cap) = self.utilization_above {
            if util <= cap {
                return false;
            }
            any = true;
        }
        any
    }

    /// The filter as JSON, so a recorded grid block can reproduce the
    /// exact job list it generated.
    fn to_json(&self) -> String {
        let opt_str = |v: &Option<String>| match v {
            Some(s) => format!("\"{}\"", json_escape(s)),
            None => "null".into(),
        };
        format!(
            concat!(
                r#"{{"topology":{},"profile":{},"scheduler":{},"traffic":{},"#,
                r#""queues":{},"failures":{},"utilization_above":{}}}"#
            ),
            opt_str(&self.topology),
            opt_str(&self.profile),
            opt_str(&self.scheduler),
            opt_str(&self.traffic),
            match self.queues {
                Some(k) => k.to_string(),
                None => "null".into(),
            },
            opt_str(&self.failures),
            ups_metrics::json_opt_num(self.utilization_above),
        )
    }
}

/// A declarative sweep: six axes, filters, and per-job run options.
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    /// Topology registry names.
    pub topologies: Vec<String>,
    /// Workload profile registry names.
    pub profiles: Vec<String>,
    /// Scheduler labels.
    pub schedulers: Vec<String>,
    /// Traffic-mode labels (`"open-loop"` / `"closed-loop"`).
    pub traffic: Vec<String>,
    /// Fair-rate estimates (bits/s) for closed-loop LSTF — each value is
    /// an independent job running the §3.3 `Fairness(r_est)` slack
    /// policy. Empty ⇒ closed-loop LSTF uses the §3.1 FCT assignment.
    /// The axis multiplies *only* closed-loop × LSTF combinations.
    pub rest_bps: Vec<u64>,
    /// Utilization targets.
    pub utilizations: Vec<f64>,
    /// Seeds (each seed is an independent job).
    pub seeds: Vec<u64>,
    /// Flow-arrival window per job.
    pub window: Dur,
    /// Simulated horizon for closed-loop jobs; `None` ⇒ `window × 20`.
    pub horizon: Option<Dur>,
    /// Router buffer bytes per job; `None` = unbounded (drop-free).
    pub buffer_bytes: Option<u64>,
    /// Run the LSTF replay per job.
    pub replay: bool,
    /// Finite-priority-queue axis: each K is an independent job that
    /// additionally replays through quantized LSTF on K strict-priority
    /// queues. Empty ⇒ exact replay only. Requires `replay`.
    pub queues: Vec<u32>,
    /// Rank→queue mapper for the quantized replays (`"log"`, `"sppifo"`,
    /// `"dynamic"`). One mapper per grid — sweep K, pin the policy.
    pub mapper: String,
    /// Network-dynamics axis: failure specs (`"random-links:0.3"`,
    /// `"burst:0.5"`, or the literal `"none"` for a static-network row).
    /// Each value is an independent job. Empty ⇒ every job runs on a
    /// static network. Open-loop only, and mutually exclusive with the
    /// `queues` axis.
    pub failures: Vec<String>,
    /// In-flight policy at a dead link for every failure job
    /// (`"reroute"` / `"drop"`). One policy per grid.
    pub inflight: String,
    /// Cap injected packets per job.
    pub max_packets: Option<usize>,
    /// Exclusion filters applied during expansion.
    pub excludes: Vec<Exclude>,
    /// Keep at most this many jobs (applied last, in expansion order).
    pub max_jobs: Option<usize>,
}

impl Default for ScenarioGrid {
    /// The paper-evaluation default: Table 1's three flagship networks ×
    /// six original disciplines × two traffic modes × two seeds at 70%.
    /// The closed-loop sub-grid drops LIFO and Random (the §3
    /// experiments never drive TCP through them), leaving
    /// 3 × 6 × 2 open-loop + 3 × 4 × 2 closed-loop = 60 jobs.
    fn default() -> Self {
        ScenarioGrid {
            topologies: ["I2:1Gbps-10Gbps", "RocketFuel", "FatTree(k=4)"]
                .map(String::from)
                .to_vec(),
            profiles: vec!["web-search".into()],
            schedulers: ["FIFO", "FQ", "SJF", "LIFO", "Random", "LSTF"]
                .map(String::from)
                .to_vec(),
            traffic: vec!["open-loop".into(), "closed-loop".into()],
            rest_bps: Vec::new(),
            utilizations: vec![0.7],
            seeds: vec![1, 2],
            window: Dur::from_ms(10),
            horizon: None,
            buffer_bytes: None,
            replay: true,
            queues: Vec::new(),
            mapper: "sppifo".into(),
            failures: Vec::new(),
            inflight: "reroute".into(),
            max_packets: None,
            excludes: vec![
                Exclude {
                    traffic: Some("closed-loop".into()),
                    scheduler: Some("LIFO".into()),
                    ..Exclude::default()
                },
                Exclude {
                    traffic: Some("closed-loop".into()),
                    scheduler: Some("Random".into()),
                    ..Exclude::default()
                },
            ],
            max_jobs: None,
        }
    }
}

/// Why a grid failed to expand.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// A topology name not in the registry.
    UnknownTopology(String),
    /// A profile name not in the registry.
    UnknownProfile(String),
    /// A utilization a profile cannot generate flows at; carries the
    /// workload's reason.
    BadUtilization(String),
    /// A scheduler label `SchedulerKind::from_name` rejects (or one that
    /// cannot run as an *original* schedule, like `Omniscient`).
    UnknownScheduler(String),
    /// A traffic-mode label that isn't `open-loop` / `closed-loop`.
    UnknownTraffic(String),
    /// A closed-loop-only profile (long-lived flows) combined with
    /// open-loop traffic — no finite packet train exists.
    ProfileNeedsClosedLoop(String),
    /// A rank→queue mapper label `MapperKind::from_name` rejects.
    UnknownMapper(String),
    /// A `--queues` value outside `1..=MAX_FIXED_QUEUES`.
    BadQueues(u32),
    /// A `--queues` axis on a grid that skips the replay — the quantized
    /// replay *is* a replay; there is nothing to quantize without one.
    QueuesNeedReplay,
    /// A `--failures` spec that doesn't parse (unknown profile or a rate
    /// outside [0, 1]); carries the parser's message.
    BadFailures(String),
    /// An in-flight policy label that isn't `reroute` / `drop`.
    UnknownInflight(String),
    /// A failure axis combined with closed-loop traffic — the TCP driver
    /// runs on a static network; exclude the combination or drop the
    /// mode.
    FailuresNeedOpenLoop(String),
    /// A failure axis combined with the `--queues` axis; the quantized
    /// replay baseline is defined against the static-network exact
    /// replay, which a churn job doesn't run.
    FailuresExcludeQueues,
    /// Every combination was filtered out (or an axis was empty).
    Empty,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::UnknownTopology(n) => write!(
                f,
                "unknown topology {n:?} (known: {})",
                ups_topology::topology_names().join(", ")
            ),
            GridError::UnknownProfile(n) => write!(
                f,
                "unknown workload profile {n:?} (known: {})",
                ups_workload::profile_names().join(", ")
            ),
            GridError::BadUtilization(msg) => write!(f, "bad --utils value: {msg}"),
            GridError::UnknownScheduler(n) => {
                write!(f, "unknown or non-original scheduler {n:?}")
            }
            GridError::UnknownTraffic(n) => {
                write!(
                    f,
                    "unknown traffic mode {n:?} (known: open-loop, closed-loop)"
                )
            }
            GridError::ProfileNeedsClosedLoop(n) => write!(
                f,
                "profile {n:?} is closed-loop only (long-lived flows) but the grid \
                 includes open-loop traffic — exclude the combination or drop the mode"
            ),
            GridError::UnknownMapper(n) => write!(
                f,
                "unknown rank->queue mapper {n:?} (known: {})",
                MapperKind::ALL.map(MapperKind::name).join(", ")
            ),
            GridError::BadQueues(k) => write!(
                f,
                "queue count {k} out of range (want 1..={MAX_FIXED_QUEUES}; \
                 the dynamic mapper alone accepts any K >= 1)"
            ),
            GridError::QueuesNeedReplay => write!(
                f,
                "--queues quantizes the LSTF replay; it cannot combine with --no-replay"
            ),
            GridError::BadFailures(msg) => write!(f, "bad --failures value: {msg}"),
            GridError::UnknownInflight(p) => {
                write!(f, "unknown in-flight policy {p:?} (known: reroute, drop)")
            }
            GridError::FailuresNeedOpenLoop(spec) => write!(
                f,
                "failure spec {spec:?} combined with closed-loop traffic — link churn \
                 drives open-loop schedules only; exclude the combination or drop the mode"
            ),
            GridError::FailuresExcludeQueues => write!(
                f,
                "--failures and --queues cannot combine: the quantized replay is \
                 defined against the static-network exact replay"
            ),
            GridError::Empty => write!(f, "grid expanded to zero jobs"),
        }
    }
}

impl ScenarioGrid {
    /// The horizon closed-loop jobs run to when none is set explicitly.
    pub fn effective_horizon(&self) -> Dur {
        self.horizon.unwrap_or_else(|| self.window.times(20))
    }

    /// Parse and validate every axis value and expand to the ordered job
    /// list — the one place a label becomes a value.
    pub fn expand(&self) -> Result<Vec<JobSpec>, GridError> {
        let topologies: Vec<&'static str> = self
            .topologies
            .iter()
            .map(|t| match ups_topology::topology_entry(t) {
                Some(entry) => Ok(entry.name),
                None => Err(GridError::UnknownTopology(t.clone())),
            })
            .collect::<Result<_, _>>()?;
        let mut profiles = Vec::new();
        for p in &self.profiles {
            let Some(profile) = ups_workload::profile_by_name(p) else {
                return Err(GridError::UnknownProfile(p.clone()));
            };
            for &util in &self.utilizations {
                profile
                    .check_utilization(util)
                    .map_err(GridError::BadUtilization)?;
            }
            profiles.push(profile);
        }
        let schedulers: Vec<Scheduler> = self
            .schedulers
            .iter()
            .map(|s| Scheduler::from_name(s).ok_or_else(|| GridError::UnknownScheduler(s.clone())))
            .collect::<Result<_, _>>()?;
        let modes: Vec<TrafficMode> = self
            .traffic
            .iter()
            .map(|t| TrafficMode::from_name(t).ok_or_else(|| GridError::UnknownTraffic(t.clone())))
            .collect::<Result<_, _>>()?;
        // The finite-priority-queue axis: validated up front, expanded as
        // an innermost sub-axis so K-sweeps of one scenario sit on
        // adjacent job ids.
        let Some(mapper) = MapperKind::from_name(&self.mapper) else {
            return Err(GridError::UnknownMapper(self.mapper.clone()));
        };
        for &k in &self.queues {
            // The bucketing mappers allocate K physical queues eagerly;
            // the dynamic mapper scales to any K (the netsim layer has
            // the same split).
            let capped = mapper != MapperKind::Dynamic;
            if k == 0 || (capped && k > MAX_FIXED_QUEUES) {
                return Err(GridError::BadQueues(k));
            }
        }
        if !self.queues.is_empty() && !self.replay {
            return Err(GridError::QueuesNeedReplay);
        }
        let queue_axis: Vec<Option<Queues>> = if self.queues.is_empty() {
            vec![None]
        } else {
            self.queues
                .iter()
                .map(|&k| Some(Queues { k, mapper }))
                .collect()
        };
        // The dynamics axis: `"none"` names the static-network row so a
        // single grid can hold its own baseline; everything else must
        // parse as a failure spec.
        let parsed: Vec<Option<(FailureProfile, f64)>> = self
            .failures
            .iter()
            .map(|f| match f.as_str() {
                "none" => Ok(None),
                label => parse_failure_spec(label).map(Some),
            })
            .collect::<Result<_, _>>()
            .map_err(GridError::BadFailures)?;
        let inflight = match self.inflight.as_str() {
            "reroute" => DeadLinkPolicy::Reroute,
            "drop" => DeadLinkPolicy::Drop,
            _ => return Err(GridError::UnknownInflight(self.inflight.clone())),
        };
        if !self.queues.is_empty() && parsed.iter().any(Option::is_some) {
            return Err(GridError::FailuresExcludeQueues);
        }
        let failure_axis: Vec<Option<Failures>> = if parsed.is_empty() {
            vec![None]
        } else {
            let failures = |(profile, rate)| Failures {
                profile,
                rate,
                inflight,
            };
            parsed.into_iter().map(|f| f.map(failures)).collect()
        };
        let horizon = self.effective_horizon();
        let mut jobs = Vec::new();
        for &topology in &topologies {
            for &profile in &profiles {
                for &scheduler in &schedulers {
                    for &mode in &modes {
                        // The r_est sub-axis multiplies only closed-loop
                        // LSTF (the one scheduler whose slack policy
                        // takes a fair-rate estimate).
                        let rests: Vec<Option<u64>> = if mode == TrafficMode::ClosedLoop
                            && scheduler == Scheduler(Discipline::Uniform(LSTF))
                            && !self.rest_bps.is_empty()
                        {
                            self.rest_bps.iter().map(|&r| Some(r)).collect()
                        } else {
                            vec![None]
                        };
                        for rest in rests {
                            for &util in &self.utilizations {
                                for &seed in &self.seeds {
                                    for &queues in &queue_axis {
                                        for &failures in &failure_axis {
                                            if self.excludes.iter().any(|e| {
                                                e.matches(
                                                    topology,
                                                    profile.name,
                                                    scheduler.name(),
                                                    mode,
                                                    queues.map(|q| q.k),
                                                    failures,
                                                    util,
                                                )
                                            }) {
                                                continue;
                                            }
                                            if profile.closed_loop_only()
                                                && mode == TrafficMode::OpenLoop
                                            {
                                                return Err(GridError::ProfileNeedsClosedLoop(
                                                    profile.name.into(),
                                                ));
                                            }
                                            if let Some(f) = failures {
                                                if mode == TrafficMode::ClosedLoop {
                                                    return Err(GridError::FailuresNeedOpenLoop(
                                                        f.label(),
                                                    ));
                                                }
                                            }
                                            jobs.push(JobSpec {
                                                job_id: jobs.len(),
                                                topology,
                                                profile: profile.name,
                                                scheduler,
                                                traffic: mode,
                                                rest_bps: rest,
                                                utilization: util,
                                                seed,
                                                window: self.window,
                                                horizon: (mode == TrafficMode::ClosedLoop)
                                                    .then_some(horizon),
                                                buffer_bytes: self.buffer_bytes,
                                                replay: self.replay,
                                                queues,
                                                failures,
                                                max_packets: self.max_packets,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if let Some(cap) = self.max_jobs {
            jobs.truncate(cap);
        }
        if jobs.is_empty() {
            return Err(GridError::Empty);
        }
        Ok(jobs)
    }

    /// The grid itself as JSON — the `"grid"` block of `BENCH_sweep.json`.
    pub fn to_json(&self) -> String {
        let strs = |v: &[String]| {
            v.iter()
                .map(|s| format!("\"{}\"", json_escape(s)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let nums = |v: &[f64]| {
            v.iter()
                .map(|&x| ups_metrics::json_num(x))
                .collect::<Vec<_>>()
                .join(",")
        };
        let ints = |v: &[u64]| {
            v.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let opt_u64 = |v: Option<u64>| match v {
            Some(n) => n.to_string(),
            None => "null".into(),
        };
        format!(
            concat!(
                r#"{{"topologies":[{}],"profiles":[{}],"schedulers":[{}],"traffic":[{}],"#,
                r#""rest_bps":[{}],"utilizations":[{}],"seeds":[{}],"window_ms":{},"#,
                r#""horizon_ms":{},"buffer_bytes":{},"replay":{},"#,
                r#""queues":[{}],"mapper":"{}","#,
                r#""failures":[{}],"inflight":"{}","#,
                r#""max_packets":{},"excludes":[{}],"max_jobs":{}}}"#
            ),
            strs(&self.topologies),
            strs(&self.profiles),
            strs(&self.schedulers),
            strs(&self.traffic),
            ints(&self.rest_bps),
            nums(&self.utilizations),
            ints(&self.seeds),
            ups_metrics::json_num(self.window.as_secs_f64() * 1e3),
            ups_metrics::json_opt_num(self.horizon.map(|h| h.as_secs_f64() * 1e3)),
            opt_u64(self.buffer_bytes),
            self.replay,
            self.queues
                .iter()
                .map(|k| k.to_string())
                .collect::<Vec<_>>()
                .join(","),
            json_escape(&self.mapper),
            strs(&self.failures),
            json_escape(&self.inflight),
            match self.max_packets {
                Some(n) => n.to_string(),
                None => "null".into(),
            },
            self.excludes
                .iter()
                .map(Exclude::to_json)
                .collect::<Vec<_>>()
                .join(","),
            match self.max_jobs {
                Some(n) => n.to_string(),
                None => "null".into(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioGrid {
        ScenarioGrid {
            topologies: vec!["Line(3)".into(), "Dumbbell(4)".into()],
            profiles: vec!["web-search".into()],
            schedulers: vec!["FIFO".into(), "Random".into()],
            traffic: vec!["open-loop".into()],
            rest_bps: Vec::new(),
            utilizations: vec![0.5, 0.7],
            seeds: vec![1, 2],
            window: Dur::from_ms(1),
            horizon: None,
            buffer_bytes: None,
            replay: false,
            queues: Vec::new(),
            mapper: "dynamic".into(),
            failures: Vec::new(),
            inflight: "reroute".into(),
            max_packets: Some(1000),
            excludes: Vec::new(),
            max_jobs: None,
        }
    }

    #[test]
    fn expansion_is_the_cartesian_product() {
        let jobs = tiny().expand().unwrap();
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2);
        // Dense, ordered ids.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.job_id, i);
        }
        // Innermost axis is the seed.
        assert_eq!(jobs[0].seed, 1);
        assert_eq!(jobs[1].seed, 2);
        assert_eq!(jobs[0].utilization, jobs[1].utilization);
        // Open-loop jobs carry no horizon and no r_est.
        assert!(jobs.iter().all(|j| j.horizon.is_none()));
        assert!(jobs.iter().all(|j| j.rest_bps.is_none()));
    }

    #[test]
    fn traffic_axis_multiplies_and_closed_loop_jobs_get_a_horizon() {
        let mut g = tiny();
        g.traffic = vec!["open-loop".into(), "closed-loop".into()];
        let jobs = g.expand().unwrap();
        assert_eq!(jobs.len(), 32);
        let closed: Vec<_> = jobs
            .iter()
            .filter(|j| j.traffic == TrafficMode::ClosedLoop)
            .collect();
        assert_eq!(closed.len(), 16);
        // Default horizon = window × 20.
        assert!(closed.iter().all(|j| j.horizon == Some(Dur::from_ms(20))));
        g.horizon = Some(Dur::from_ms(7));
        let jobs = g.expand().unwrap();
        assert!(jobs
            .iter()
            .filter(|j| j.traffic == TrafficMode::ClosedLoop)
            .all(|j| j.horizon == Some(Dur::from_ms(7))));
    }

    #[test]
    fn rest_axis_applies_only_to_closed_loop_lstf() {
        let mut g = tiny();
        g.schedulers = vec!["FIFO".into(), "LSTF".into()];
        g.traffic = vec!["open-loop".into(), "closed-loop".into()];
        g.rest_bps = vec![1_000_000_000, 100_000_000];
        let jobs = g.expand().unwrap();
        // FIFO jobs and open-loop LSTF jobs: one each; closed-loop LSTF:
        // one per r_est value.
        let lstf_closed: Vec<_> = jobs
            .iter()
            .filter(|j| j.scheduler.name() == "LSTF" && j.traffic == TrafficMode::ClosedLoop)
            .collect();
        assert_eq!(
            lstf_closed.len(),
            2 * 2 * 2 * 2,
            "2 topos × 2 rests × 2 utils × 2 seeds"
        );
        assert!(lstf_closed
            .iter()
            .any(|j| j.rest_bps == Some(1_000_000_000)));
        assert!(lstf_closed.iter().any(|j| j.rest_bps == Some(100_000_000)));
        assert!(jobs
            .iter()
            .filter(|j| j.scheduler.name() != "LSTF" || j.traffic == TrafficMode::OpenLoop)
            .all(|j| j.rest_bps.is_none()));
    }

    #[test]
    fn closed_loop_only_profile_rejected_for_open_loop() {
        let mut g = tiny();
        g.profiles = vec!["long-lived".into()];
        assert_eq!(
            g.expand(),
            Err(GridError::ProfileNeedsClosedLoop("long-lived".into()))
        );
        // The same profile is fine when the grid is closed-loop only.
        g.traffic = vec!["closed-loop".into()];
        assert!(g.expand().is_ok());
        // ...or when an exclude removes the open-loop combination.
        g.traffic = vec!["open-loop".into(), "closed-loop".into()];
        g.excludes.push(Exclude {
            profile: Some("long-lived".into()),
            traffic: Some("open-loop".into()),
            ..Exclude::default()
        });
        assert!(g.expand().is_ok());
    }

    #[test]
    fn default_grid_meets_the_acceptance_floor() {
        let g = ScenarioGrid::default();
        let jobs = g.expand().unwrap();
        assert!(g.topologies.len() >= 3);
        assert!(g.schedulers.len() >= 4);
        assert!(g.seeds.len() >= 2);
        assert!(jobs.len() >= 24, "default grid has {} jobs", jobs.len());
        // The closed-loop sub-grid is present: all four §3 disciplines,
        // no closed-loop LIFO/Random.
        let closed: Vec<_> = jobs
            .iter()
            .filter(|j| j.traffic == TrafficMode::ClosedLoop)
            .collect();
        assert_eq!(closed.len(), 3 * 4 * 2, "closed-loop sub-grid");
        assert!(closed
            .iter()
            .all(|j| !["LIFO", "Random"].contains(&j.scheduler.name())));
        assert!(closed.iter().any(|j| j.scheduler.name() == "LSTF"));
    }

    #[test]
    fn queues_axis_multiplies_replay_jobs() {
        let mut g = tiny();
        g.replay = true;
        g.queues = vec![1, 8];
        let jobs = g.expand().unwrap();
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2 * 2, "one job per K value");
        for j in &jobs {
            let q = j.queues.expect("every job carries a K");
            assert!(q.k == 1 || q.k == 8);
            assert_eq!(q.mapper, MapperKind::Dynamic);
        }
        // Innermost axis: adjacent ids sweep K within one scenario.
        assert_eq!(jobs[0].queues.map(|q| q.k), Some(1));
        assert_eq!(jobs[1].queues.map(|q| q.k), Some(8));
        assert_eq!(jobs[0].seed, jobs[1].seed);
        // Without the axis, jobs carry no quantization fields.
        let plain = tiny().expand().unwrap();
        assert!(plain.iter().all(|j| j.queues.is_none()));
    }

    #[test]
    fn queues_axis_is_validated() {
        let mut g = tiny();
        g.replay = true;
        g.queues = vec![4];
        g.mapper = "afq".into();
        assert_eq!(g.expand(), Err(GridError::UnknownMapper("afq".into())));
        let mut g = tiny();
        g.replay = true;
        g.queues = vec![0];
        assert_eq!(g.expand(), Err(GridError::BadQueues(0)));
        // The bucketing mappers allocate K physical queues, so their K is
        // capped; the dynamic mapper accepts any K ≥ 1.
        g.mapper = "log".into();
        g.queues = vec![MAX_FIXED_QUEUES + 1];
        assert_eq!(g.expand(), Err(GridError::BadQueues(MAX_FIXED_QUEUES + 1)));
        g.mapper = "dynamic".into();
        assert!(g.expand().is_ok(), "dynamic mapper has no upper K bound");
        // --queues without the replay is a contradiction, not a no-op.
        let mut g = tiny();
        g.replay = false;
        g.queues = vec![8];
        assert_eq!(g.expand(), Err(GridError::QueuesNeedReplay));
    }

    #[test]
    fn excludes_can_filter_a_queue_count() {
        let mut g = tiny();
        g.replay = true;
        g.queues = vec![1, 8];
        g.excludes.push(Exclude {
            queues: Some(1),
            ..Exclude::default()
        });
        let jobs = g.expand().unwrap();
        assert!(jobs.iter().all(|j| j.queues.map(|q| q.k) == Some(8)));
        // And a scoped version: drop K=8 only on one topology.
        let mut g = tiny();
        g.replay = true;
        g.queues = vec![1, 8];
        g.excludes.push(Exclude {
            topology: Some("Line(3)".into()),
            queues: Some(8),
            ..Exclude::default()
        });
        let jobs = g.expand().unwrap();
        assert!(!jobs
            .iter()
            .any(|j| j.topology == "Line(3)" && j.queues.is_some_and(|q| q.k == 8)));
        assert!(jobs
            .iter()
            .any(|j| j.topology == "Dumbbell(4)" && j.queues.is_some_and(|q| q.k == 8)));
    }

    #[test]
    fn failure_axis_multiplies_and_none_is_the_static_row() {
        let mut g = tiny();
        g.failures = vec!["none".into(), "random-links:0.5".into()];
        let jobs = g.expand().unwrap();
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2 * 2, "one job per axis value");
        let churn: Vec<_> = jobs.iter().filter(|j| j.failures.is_some()).collect();
        assert_eq!(churn.len(), jobs.len() / 2);
        for j in &churn {
            let f = j.failures.unwrap();
            assert_eq!(f.label(), "random-links:0.5");
            assert_eq!(f.inflight, DeadLinkPolicy::Reroute);
        }
        // Adjacent ids sweep the failure axis within one scenario; the
        // "none" rows are indistinguishable from a no-axis job.
        assert_eq!(jobs[0].failures, None);
        assert_eq!(
            jobs[1].failures.map(|f| f.label()).as_deref(),
            Some("random-links:0.5")
        );
        assert_eq!(jobs[0].seed, jobs[1].seed);
    }

    #[test]
    fn failure_axis_is_validated() {
        let mut g = tiny();
        g.failures = vec!["meteor-strike:0.5".into()];
        assert!(matches!(g.expand(), Err(GridError::BadFailures(_))));
        let mut g = tiny();
        g.failures = vec!["random-links:1.5".into()];
        assert!(matches!(g.expand(), Err(GridError::BadFailures(_))));
        let mut g = tiny();
        g.failures = vec!["burst".into()];
        g.inflight = "pray".into();
        assert_eq!(g.expand(), Err(GridError::UnknownInflight("pray".into())));
        // Churn drives open-loop schedules only.
        let mut g = tiny();
        g.failures = vec!["burst:0.4".into()];
        g.traffic = vec!["open-loop".into(), "closed-loop".into()];
        assert_eq!(
            g.expand(),
            Err(GridError::FailuresNeedOpenLoop("burst:0.4".into()))
        );
        // ...unless an exclude removes the combination.
        g.excludes.push(Exclude {
            traffic: Some("closed-loop".into()),
            ..Exclude::default()
        });
        assert!(g.expand().is_ok());
        // Failures and queues don't compose.
        let mut g = tiny();
        g.replay = true;
        g.queues = vec![8];
        g.failures = vec!["random-links:0.3".into()];
        assert_eq!(g.expand(), Err(GridError::FailuresExcludeQueues));
        // ...but an all-"none" failure axis is no failure axis.
        g.failures = vec!["none".into()];
        assert!(g.expand().is_ok());
    }

    #[test]
    fn excludes_can_filter_a_failure_spec() {
        let mut g = tiny();
        g.failures = vec!["none".into(), "burst:0.6".into()];
        g.excludes.push(Exclude {
            topology: Some("Line(3)".into()),
            failures: Some("burst:0.6".into()),
            ..Exclude::default()
        });
        let jobs = g.expand().unwrap();
        assert!(!jobs
            .iter()
            .any(|j| j.topology == "Line(3)" && j.failures.is_some()));
        assert!(jobs
            .iter()
            .any(|j| j.topology == "Dumbbell(4)" && j.failures.is_some()));
        // A label matches its value, written with or without the default
        // rate.
        for (axis, exclude) in [("burst", "burst:0.3"), ("burst:0.3", "burst")] {
            let mut g = tiny();
            g.failures = vec![axis.into()];
            g.excludes.push(Exclude {
                failures: Some(exclude.into()),
                ..Exclude::default()
            });
            assert_eq!(g.expand(), Err(GridError::Empty), "{axis} vs {exclude}");
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        let mut g = tiny();
        g.topologies.push("Torus(9)".into());
        assert_eq!(
            g.expand(),
            Err(GridError::UnknownTopology("Torus(9)".into()))
        );
        let mut g = tiny();
        g.profiles = vec!["bimodal".into()];
        assert!(matches!(g.expand(), Err(GridError::UnknownProfile(_))));
        let mut g = tiny();
        g.schedulers = vec!["Omniscient".into()];
        assert!(matches!(g.expand(), Err(GridError::UnknownScheduler(_))));
        let mut g = tiny();
        g.traffic = vec!["half-open".into()];
        assert_eq!(
            g.expand(),
            Err(GridError::UnknownTraffic("half-open".into()))
        );
    }

    #[test]
    fn utilizations_a_profile_cannot_generate_are_rejected() {
        // The Poisson calibration panicked on the first three in every
        // job; long-lived flows turned NaN into two flows. Long-lived
        // profiles scale a flow count, so 2.0 is fine for them.
        for (profile, util, ok) in [
            ("web-search", 2.0, false),
            ("web-search", 0.0, false),
            ("fixed-mtu", f64::NAN, false),
            ("long-lived", f64::NAN, false),
            ("long-lived", 2.0, true),
        ] {
            let mut g = tiny();
            (g.profiles, g.traffic) = (vec![profile.into()], vec!["closed-loop".into()]);
            g.utilizations = vec![0.7, util];
            match g.expand() {
                Err(e @ GridError::BadUtilization(_)) => assert!(!ok, "{e}"),
                other => assert!(ok && other.is_ok(), "{profile} at {util}: {other:?}"),
            }
        }
    }

    #[test]
    fn mixed_row_and_all_table1_disciplines_accepted() {
        for label in [
            "FIFO", "LIFO", "Random", "FQ", "SJF", "SRPT", "DRR", "FIFO+", "LSTF", "FQ/FIFO+",
        ] {
            let sched = Scheduler::from_name(label).expect(label);
            assert_eq!(sched.name(), label, "labels round-trip");
        }
        for label in ["EDF", "Omniscient", "Quantized", "WFQ2"] {
            assert_eq!(Scheduler::from_name(label), None, "{label}");
        }
        assert!(Scheduler::all().all(|s| Scheduler::from_name(s.name()) == Some(s)));
        let quantized = SchedulerKind::quantized_lstf(4, MapperKind::Log);
        assert_eq!(Scheduler::uniform(quantized), None);
    }

    #[test]
    fn excludes_filter_matching_combinations() {
        let mut g = tiny();
        g.excludes.push(Exclude {
            topology: Some("Line(3)".into()),
            scheduler: Some("Random".into()),
            ..Exclude::default()
        });
        let jobs = g.expand().unwrap();
        assert_eq!(jobs.len(), 12);
        assert!(!jobs
            .iter()
            .any(|j| j.topology == "Line(3)" && j.scheduler.name() == "Random"));
        // Utilization cap applies across the whole grid.
        let mut g = tiny();
        g.excludes.push(Exclude {
            utilization_above: Some(0.6),
            ..Exclude::default()
        });
        assert!(g.expand().unwrap().iter().all(|j| j.utilization <= 0.6));
        // An empty Exclude matches nothing.
        let mut g = tiny();
        g.excludes.push(Exclude::default());
        assert_eq!(g.expand().unwrap().len(), 16);
    }

    #[test]
    fn max_jobs_truncates_and_empty_errors() {
        let mut g = tiny();
        g.max_jobs = Some(3);
        assert_eq!(g.expand().unwrap().len(), 3);
        g.max_jobs = Some(0);
        assert_eq!(g.expand(), Err(GridError::Empty));
    }

    #[test]
    fn grid_json_round_trips_its_filters() {
        let mut g = tiny();
        g.excludes.push(Exclude {
            topology: Some("Line(3)".into()),
            utilization_above: Some(0.8),
            ..Exclude::default()
        });
        let v = crate::json::parse(&g.to_json()).unwrap();
        let excludes = v.get("excludes").unwrap().as_array().unwrap();
        assert_eq!(excludes.len(), 1);
        assert_eq!(
            excludes[0].get("topology").unwrap().as_str(),
            Some("Line(3)")
        );
        assert_eq!(
            excludes[0].get("utilization_above").unwrap().as_f64(),
            Some(0.8)
        );
        assert_eq!(
            excludes[0].get("scheduler"),
            Some(&crate::json::JsonValue::Null)
        );
    }

    #[test]
    fn scenario_json_is_parseable_and_complete() {
        let jobs = tiny().expand().unwrap();
        let v = crate::json::parse(&jobs[0].scenario_json()).unwrap();
        assert_eq!(v.get("topology").unwrap().as_str(), Some("Line(3)"));
        assert_eq!(v.get("seed").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("window_ms").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("max_packets").unwrap().as_f64(), Some(1000.0));
        assert_eq!(v.get("traffic").unwrap().as_str(), Some("open-loop"));
        assert_eq!(v.get("rest_bps"), Some(&crate::json::JsonValue::Null));
        assert_eq!(v.get("horizon_ms"), Some(&crate::json::JsonValue::Null));
        assert_eq!(v.get("queues"), Some(&crate::json::JsonValue::Null));
        assert_eq!(v.get("mapper"), Some(&crate::json::JsonValue::Null));
        assert_eq!(v.get("failures"), Some(&crate::json::JsonValue::Null));
        assert_eq!(v.get("inflight"), Some(&crate::json::JsonValue::Null));
        // A failure job round-trips its spec and policy.
        let mut g = tiny();
        g.failures = vec!["core-links:0.25".into()];
        g.inflight = "drop".into();
        let jobs = g.expand().unwrap();
        let v = crate::json::parse(&jobs[0].scenario_json()).unwrap();
        assert_eq!(v.get("failures").unwrap().as_str(), Some("core-links:0.25"));
        assert_eq!(v.get("inflight").unwrap().as_str(), Some("drop"));
        // A label without a rate renders in its canonical `profile:rate`
        // form.
        g.failures = vec!["burst".into()];
        let v = crate::json::parse(&g.expand().unwrap()[0].scenario_json()).unwrap();
        assert_eq!(v.get("failures").unwrap().as_str(), Some("burst:0.3"));
        // A quantized job round-trips its K and mapper.
        let mut g = tiny();
        g.replay = true;
        g.queues = vec![8];
        g.mapper = "sppifo".into();
        let jobs = g.expand().unwrap();
        let v = crate::json::parse(&jobs[0].scenario_json()).unwrap();
        assert_eq!(v.get("queues").unwrap().as_f64(), Some(8.0));
        assert_eq!(v.get("mapper").unwrap().as_str(), Some("sppifo"));
        // And a closed-loop LSTF job round-trips its r_est and horizon.
        let mut g = tiny();
        g.schedulers = vec!["LSTF".into()];
        g.traffic = vec!["closed-loop".into()];
        g.rest_bps = vec![500_000_000];
        let jobs = g.expand().unwrap();
        let v = crate::json::parse(&jobs[0].scenario_json()).unwrap();
        assert_eq!(v.get("traffic").unwrap().as_str(), Some("closed-loop"));
        assert_eq!(v.get("rest_bps").unwrap().as_f64(), Some(500_000_000.0));
        assert_eq!(v.get("horizon_ms").unwrap().as_f64(), Some(20.0));
    }
}
