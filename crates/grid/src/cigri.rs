//! The centralized CiGri model: best-effort campaign runs in the holes of
//! local schedules, killed on local demand, resubmitted by the server.
//!
//! Mechanics (per §5.2 of the paper):
//!
//! * every cluster conservatively backfills each local job on arrival
//!   through its own [`BackfillPlanner`], the online executor's: the job
//!   takes the earliest slot that disturbs no earlier local booking. The
//!   planner sees local jobs only, so grid jobs are *invisible* to local
//!   users — the paper's no-disturbance guarantee by construction;
//! * `full_tl` holds local and best-effort bookings. A local booked there
//!   kills each running best-effort run it collides with, smallest booking
//!   id first: the victim's booking is removed, the run requeued at the
//!   server, and the spent CPU time counted as *wasted*. Its end event
//!   stays queued and fires as a no-op, since the booking it names is no
//!   longer running;
//! * the server injects queued runs into current holes of `full_tl`
//!   (the paper: "fill the holes […] using the same idea as conservative
//!   backfilling"), triggered periodically and on every completion.

use std::collections::{HashMap, VecDeque};

use lsps_core::replan::{BackfillPlanner, IncrementalPlanner};
use lsps_core::{BackfillPolicy, PolicyCtx};
use lsps_des::{Ctx, Dur, Model, Simulation, Time};
use lsps_metrics::{CompletedJob, Criteria};
use lsps_platform::timeline::BookError;
use lsps_platform::{BookingId, BookingKind, Platform, ProcSet, Timeline};
use lsps_workload::{Campaign, Job, JobKind};

/// Events of the CiGri simulation.
#[derive(Debug)]
pub enum CigriEvent {
    /// A local job arrives at its cluster's queue.
    LocalSubmit {
        /// Target cluster index.
        cluster: usize,
        /// The job (rigid; moldable locals are allotted upstream).
        job: Job,
    },
    /// A local job finishes.
    LocalEnd {
        /// Cluster index.
        cluster: usize,
        /// The job and its start time (for the completion record).
        job: Box<(Job, Time)>,
    },
    /// A best-effort run finishes.
    BeEnd {
        /// Cluster index.
        cluster: usize,
        /// Booking of the run.
        booking: BookingId,
    },
    /// A campaign is submitted to the central server.
    CampaignSubmit(Campaign),
    /// The server scans all clusters for holes.
    ServerPoll,
}

struct BeRun {
    len: Dur, // scaled for the host cluster
    raw_len: Dur,
    started: Time,
}

struct ClusterState {
    speed: f64,
    /// Conservative backfilling of the local jobs alone.
    planner: BackfillPlanner,
    /// Local and best-effort bookings.
    full_tl: Timeline,
    completed: Vec<CompletedJob>,
    be_running: HashMap<BookingId, BeRun>,
    kills: u64,
    wasted: Dur,
    be_done: u64,
    be_busy: Dur,
    /// Proc-ticks of finished work (local + best-effort + killed tails),
    /// accumulated so past bookings can be garbage-collected without losing
    /// the utilization accounting.
    busy_local_ticks: u128,
    busy_total_ticks: u128,
}

impl ClusterState {
    /// Start and processors of local `job`, arriving at `now` and rigid at
    /// its speed-scaled length `len`.
    fn place_local(&mut self, now: Time, job: &Job, len: Dur) -> (Time, ProcSet) {
        let mut pending = vec![job.clone()];
        pending[0].kind = JobKind::Rigid {
            procs: job.min_procs(),
            len,
        };
        let mut out = Vec::with_capacity(1);
        self.planner.plan(now, &mut pending, &mut out);
        let placed = out.pop().expect("the planner places every pending job");
        (placed.start, placed.placed.procs)
    }
}

/// The CiGri grid model (plug into [`Simulation`]).
pub struct CigriSim {
    clusters: Vec<ClusterState>,
    /// Queued best-effort run lengths (reference-speed units).
    queue: VecDeque<Dur>,
    poll_period: Dur,
    poll_scheduled: bool,
    best_effort_enabled: bool,
    campaign_done_at: Time,
    be_total: u64,
    /// Instant of the last event that was not a killed run's stale end —
    /// the utilization horizon.
    last_event: Time,
}

impl CigriSim {
    /// Build from a platform: one scheduling domain per cluster, durations
    /// scaled by the cluster's mean speed. `best_effort_enabled = false`
    /// gives the no-grid baseline (campaigns queue forever).
    pub fn new(platform: &Platform, poll_period: Dur, best_effort_enabled: bool) -> CigriSim {
        assert!(!poll_period.is_zero());
        CigriSim {
            clusters: platform
                .clusters
                .iter()
                .map(|c| ClusterState {
                    speed: c.mean_speed(),
                    planner: BackfillPlanner::new(
                        BackfillPolicy::Conservative,
                        c.total_procs(),
                        &PolicyCtx::default(),
                    ),
                    full_tl: Timeline::with_procs(c.total_procs()),
                    completed: Vec::new(),
                    be_running: HashMap::new(),
                    kills: 0,
                    wasted: Dur::ZERO,
                    be_done: 0,
                    be_busy: Dur::ZERO,
                    busy_local_ticks: 0,
                    busy_total_ticks: 0,
                })
                .collect(),
            queue: VecDeque::new(),
            poll_period,
            poll_scheduled: false,
            best_effort_enabled,
            campaign_done_at: Time::ZERO,
            be_total: 0,
            last_event: Time::ZERO,
        }
    }

    /// Scale a reference duration to cluster `c`'s speed (conservative
    /// ceiling).
    fn scale(&self, c: usize, len: Dur) -> Dur {
        len.scale_ceil(1.0 / self.clusters[c].speed)
            .max(Dur::from_ticks(1))
    }

    fn submit_local(&mut self, now: Time, c: usize, job: Job, ctx: &mut Ctx<'_, CigriEvent>) {
        let JobKind::Rigid { procs: q, .. } = job.kind else {
            panic!("CigriSim schedules rigid local jobs; allot moldables upstream");
        };
        let len = self.scale(c, job.time_on(q));
        let cl = &mut self.clusters[c];
        let (start, procs) = cl.place_local(now, &job, len);
        let end = start + len;
        // Each collision names a best-effort run, smallest booking id
        // first: kill it and retry until the local's slot is clear.
        while let Err(e) = cl
            .full_tl
            .try_book(start, end, procs.clone(), BookingKind::Job)
        {
            let BookError::Conflict(id) = e else {
                panic!("local booking [{start:?}, {end:?}) on cluster {c}: {e}")
            };
            let run = cl.be_running.remove(&id).expect("victim is running");
            // Kill immediately: the scheduler clears the node as soon as
            // the local job is booked (even if its start is in the future),
            // and the run restarts from scratch elsewhere — everything it
            // consumed so far is wasted.
            let kill_at = now.max(run.started);
            cl.full_tl.remove(id);
            let consumed = kill_at - run.started;
            cl.wasted += consumed;
            cl.busy_total_ticks += consumed.ticks() as u128;
            cl.kills += 1;
            self.queue.push_back(run.raw_len);
        }
        let job = Box::new((job, start));
        ctx.schedule_at(end, CigriEvent::LocalEnd { cluster: c, job });
        self.wake_server(now, ctx);
    }

    fn finish_local(&mut self, now: Time, c: usize, (job, start): (Job, Time)) {
        let cl = &mut self.clusters[c];
        let procs = job.min_procs();
        let ticks = (now - start).ticks() as u128 * procs as u128;
        cl.busy_local_ticks += ticks;
        cl.busy_total_ticks += ticks;
        cl.completed
            .push(CompletedJob::from_job(&job, start, now, procs));
        // Past bookings (this job's, now credited, among them) no longer
        // constrain placement; dropping them keeps hole queries O(active).
        cl.full_tl.gc(now);
    }

    fn wake_server(&mut self, now: Time, ctx: &mut Ctx<'_, CigriEvent>) {
        if self.best_effort_enabled && !self.poll_scheduled && !self.queue.is_empty() {
            self.poll_scheduled = true;
            ctx.schedule_at(now, CigriEvent::ServerPoll);
        }
    }

    /// Fill current holes of every cluster with queued runs.
    fn poll(&mut self, now: Time, ctx: &mut Ctx<'_, CigriEvent>) {
        // Garbage-collect past bookings every server cycle: between local
        // completions (the only other gc site) a multi-day trace would
        // otherwise accumulate dead bookings in the availability profile.
        // Safe for the utilization accounting because every finished
        // proc-tick is credited to `busy_*_ticks` by the completion/kill
        // handlers from their own records (`LocalEnd`, `be_running`), never
        // read back from the timeline. The planners sweep their own.
        for cl in &mut self.clusters {
            cl.full_tl.gc(now);
        }
        // Fastest clusters first: they drain the campaign quickest.
        let mut order: Vec<usize> = (0..self.clusters.len()).collect();
        order.sort_by(|&a, &b| {
            self.clusters[b]
                .speed
                .partial_cmp(&self.clusters[a].speed)
                .expect("finite speeds")
                .then(a.cmp(&b))
        });
        for c in order {
            while let Some(&raw_len) = self.queue.front() {
                let len = self.scale(c, raw_len);
                // Conservative hole filling: the run must fit *now* without
                // touching any existing booking (local or BE).
                let Some((start, procs)) = self.clusters[c]
                    .full_tl
                    .earliest_slot_within(now, now, len, 1)
                else {
                    break; // this cluster has no hole right now
                };
                debug_assert_eq!(start, now);
                self.queue.pop_front();
                let end = now + len;
                let cl = &mut self.clusters[c];
                let bk = cl.full_tl.book(now, end, procs, BookingKind::BestEffort);
                ctx.schedule_at(
                    end,
                    CigriEvent::BeEnd {
                        cluster: c,
                        booking: bk,
                    },
                );
                cl.be_running.insert(
                    bk,
                    BeRun {
                        len,
                        raw_len,
                        started: now,
                    },
                );
            }
        }
        // Keep polling while work remains queued.
        if !self.queue.is_empty() {
            ctx.schedule_in(self.poll_period, CigriEvent::ServerPoll);
        } else {
            self.poll_scheduled = false;
        }
    }
}

impl Model for CigriSim {
    type Event = CigriEvent;

    fn handle(&mut self, now: Time, event: CigriEvent, ctx: &mut Ctx<'_, CigriEvent>) {
        match event {
            CigriEvent::LocalSubmit { cluster, job } => {
                self.submit_local(now, cluster, job, ctx);
            }
            CigriEvent::LocalEnd { cluster, job } => {
                self.finish_local(now, cluster, *job);
                // A hole just opened: wake the server if it was asleep (an
                // active periodic chain will notice the hole on its own).
                self.wake_server(now, ctx);
            }
            CigriEvent::BeEnd { cluster, booking } => {
                let cl = &mut self.clusters[cluster];
                // A killed run's end: its booking left `be_running` at the
                // kill, and nothing happens now.
                let Some(run) = cl.be_running.remove(&booking) else {
                    return;
                };
                cl.be_done += 1;
                cl.be_busy += run.len;
                cl.busy_total_ticks += run.len.ticks() as u128;
                cl.full_tl.remove(booking);
                let all_idle = self.clusters.iter().all(|c| c.be_running.is_empty());
                if self.queue.is_empty() && all_idle {
                    self.campaign_done_at = self.campaign_done_at.max(now);
                }
                self.wake_server(now, ctx);
            }
            CigriEvent::CampaignSubmit(campaign) => {
                self.be_total += campaign.n_runs as u64;
                for _ in 0..campaign.n_runs {
                    self.queue.push_back(campaign.run_len);
                }
                self.wake_server(now, ctx);
            }
            CigriEvent::ServerPoll => {
                self.poll_scheduled = true;
                self.poll(now, ctx);
            }
        }
        self.last_event = now;
    }
}

/// Aggregated outcome of a CiGri simulation.
#[derive(Clone, Debug)]
pub struct CigriReport {
    /// §3 criteria over all completed local jobs.
    pub local: Option<Criteria>,
    /// Per-cluster utilization over `[0, horizon]` counting local + BE work.
    pub utilization: Vec<f64>,
    /// Per-cluster utilization counting local work only.
    pub local_utilization: Vec<f64>,
    /// Completed best-effort runs.
    pub be_completed: u64,
    /// Total best-effort runs submitted.
    pub be_submitted: u64,
    /// Best-effort runs killed by local jobs.
    pub kills: u64,
    /// CPU-seconds thrown away by kills.
    pub wasted_cpu_s: f64,
    /// When the campaign fully drained (ZERO if it never did).
    pub campaign_done_at: Time,
    /// The raw per-job records, for downstream analysis.
    pub local_records: Vec<CompletedJob>,
}

impl CigriSim {
    /// Extract the report after the simulation has run.
    pub fn report(&self, horizon: Time) -> CigriReport {
        let mut records = Vec::new();
        for cl in &self.clusters {
            records.extend(cl.completed.iter().cloned());
        }
        let local = if records.is_empty() {
            None
        } else {
            Some(Criteria::evaluate(&records))
        };
        // Busy accounting: accumulated finished work plus whatever is still
        // booked (the timeline is garbage-collected as work completes), the
        // locals' being its `Job` bookings.
        let busy_share = |c: &ClusterState, busy: u128, local_only: bool| -> f64 {
            if horizon == Time::ZERO {
                return 0.0;
            }
            let live: u128 = c
                .full_tl
                .bookings()
                .filter(|(_, b)| !local_only || b.kind == BookingKind::Job)
                .map(|(_, b)| {
                    let e = b.end.min(horizon).max(b.start);
                    (e - b.start).ticks() as u128 * b.procs.len() as u128
                })
                .sum();
            (busy + live) as f64 / (c.full_tl.capacity().len() as f64 * horizon.ticks() as f64)
        };
        CigriReport {
            local,
            utilization: self
                .clusters
                .iter()
                .map(|c| busy_share(c, c.busy_total_ticks, false))
                .collect(),
            local_utilization: self
                .clusters
                .iter()
                .map(|c| busy_share(c, c.busy_local_ticks, true))
                .collect(),
            be_completed: self.clusters.iter().map(|c| c.be_done).sum(),
            be_submitted: self.be_total,
            kills: self.clusters.iter().map(|c| c.kills).sum(),
            wasted_cpu_s: self.clusters.iter().map(|c| c.wasted.as_secs_f64()).sum(),
            campaign_done_at: self.campaign_done_at,
            local_records: records,
        }
    }
}

/// Run a full CiGri simulation: local jobs per cluster + campaigns, with or
/// without the best-effort server. Utilization is measured up to the last
/// event that was not a killed run's stale end.
///
/// ```
/// use lsps_des::Dur;
/// use lsps_grid::cigri::run_cigri;
/// use lsps_platform::presets;
/// use lsps_workload::{Campaign, Job};
///
/// let platform = presets::ciment();
/// let locals = vec![(0, Job::sequential(1, Dur::from_secs(100)))];
/// let campaign = Campaign::new(1, 50, Dur::from_secs(10));
/// let report = run_cigri(&platform, locals, vec![campaign], Dur::from_secs(5), true);
/// assert_eq!(report.be_completed, 50);
/// assert_eq!(report.local.unwrap().n, 1);
/// ```
pub fn run_cigri(
    platform: &Platform,
    locals: Vec<(usize, Job)>,
    campaigns: Vec<Campaign>,
    poll_period: Dur,
    best_effort: bool,
) -> CigriReport {
    let mut sim = Simulation::new(CigriSim::new(platform, poll_period, best_effort));
    for (cluster, job) in locals {
        let at = job.release;
        sim.schedule_at(at, CigriEvent::LocalSubmit { cluster, job });
    }
    for c in campaigns {
        let at = c.release;
        sim.schedule_at(at, CigriEvent::CampaignSubmit(c));
    }
    sim.run_to_completion(20_000_000);
    let model = sim.model();
    model.report(model.last_event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsps_platform::presets;

    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }
    fn t(x: u64) -> Time {
        Time::from_ticks(x)
    }

    fn two_cluster_platform() -> Platform {
        use lsps_platform::{Cluster, LinkClass, NetworkModel};
        Platform::new(
            "test",
            vec![
                Cluster::homogeneous("a", 2, 1, 1.0, LinkClass::gige()),
                Cluster::homogeneous("b", 2, 1, 0.5, LinkClass::eth100()),
            ],
            NetworkModel::light_grid_default(),
        )
    }

    #[test]
    fn locals_alone_complete() {
        let p = two_cluster_platform();
        let locals = vec![
            (0, Job::sequential(1, d(100))),
            (0, Job::sequential(2, d(100))),
            (1, Job::sequential(3, d(100))),
        ];
        let report = run_cigri(&p, locals, vec![], d(50), true);
        let crit = report.local.expect("three locals completed");
        assert_eq!(crit.n, 3);
        // Cluster b runs at half speed: job 3 takes 200 ticks.
        assert!((crit.cmax - 0.2).abs() < 1e-9, "cmax {}", crit.cmax);
        assert_eq!(report.kills, 0);
        assert_eq!(report.be_completed, 0);
    }

    #[test]
    fn campaign_fills_idle_grid() {
        let p = two_cluster_platform();
        let c = Campaign::new(1, 10, d(100));
        let report = run_cigri(&p, vec![], vec![c], d(10), true);
        assert_eq!(report.be_completed, 10);
        assert_eq!(report.kills, 0);
        assert!(report.campaign_done_at > Time::ZERO);
        // 4 procs (2 fast + 2 half-speed): 10 runs of 100 (fast) / 200
        // (slow) must drain in well under serial time.
        assert!(report.campaign_done_at < t(10 * 100));
    }

    #[test]
    fn best_effort_disabled_leaves_campaign_queued() {
        let p = two_cluster_platform();
        let c = Campaign::new(1, 10, d(100));
        let report = run_cigri(&p, vec![], vec![c], d(10), false);
        assert_eq!(report.be_completed, 0);
        assert_eq!(report.be_submitted, 10);
    }

    #[test]
    fn local_arrival_kills_best_effort_and_requeues() {
        // One 1-proc cluster. BE run of 1000 starts at 0; a local job
        // arrives at 100 → the run dies, the local starts immediately, the
        // run restarts after.
        use lsps_platform::{Cluster, LinkClass, NetworkModel};
        let p = Platform::new(
            "one",
            vec![Cluster::homogeneous("c", 1, 1, 1.0, LinkClass::gige())],
            NetworkModel::light_grid_default(),
        );
        let locals = vec![(0, Job::sequential(1, d(500)).released_at(t(100)))];
        let c = Campaign::new(1, 1, d(1000));
        let report = run_cigri(&p, locals, vec![c], d(50), true);
        assert_eq!(report.kills, 1, "the BE run was killed");
        assert_eq!(report.be_completed, 1, "and later completed");
        let crit = report.local.unwrap();
        // Local started at its release — undisturbed by the BE run.
        assert!(
            (crit.mean_flow - 0.5).abs() < 1e-9,
            "flow {}",
            crit.mean_flow
        );
        // Wasted work: the run consumed [0, 100) before dying.
        assert!((report.wasted_cpu_s - 0.1).abs() < 1e-9);
        // Full timeline: local 500 + killed BE 100 + full rerun 1000.
        assert_eq!(report.campaign_done_at, t(1600));
    }

    #[test]
    fn locals_never_disturbed_by_best_effort() {
        // The paper's central claim: local metrics identical with and
        // without the grid layer.
        let p = two_cluster_platform();
        let mk_locals = || {
            vec![
                (0, Job::sequential(1, d(300))),
                (0, Job::sequential(2, d(200)).released_at(t(50))),
                (0, Job::sequential(3, d(100)).released_at(t(120))),
                (1, Job::sequential(4, d(400)).released_at(t(10))),
            ]
        };
        let with_grid = run_cigri(
            &p,
            mk_locals(),
            vec![Campaign::new(1, 200, d(77))],
            d(13),
            true,
        );
        let without = run_cigri(&p, mk_locals(), vec![], d(13), true);
        let a = with_grid.local.unwrap();
        let b = without.local.unwrap();
        assert_eq!(a.n, b.n);
        assert!((a.cmax - b.cmax).abs() < 1e-9);
        assert!((a.mean_flow - b.mean_flow).abs() < 1e-9);
        assert!((a.sum_completion - b.sum_completion).abs() < 1e-9);
        // And the grid actually used the idle capacity.
        assert!(with_grid.be_completed > 0);
    }

    #[test]
    fn utilization_rises_with_best_effort() {
        let p = two_cluster_platform();
        let locals = vec![
            (0, Job::sequential(1, d(500))),
            (1, Job::sequential(2, d(500))),
        ];
        let campaign = Campaign::new(1, 100, d(60));
        let with_be = run_cigri(&p, locals.clone(), vec![campaign], d(10), true);
        let without = run_cigri(&p, locals, vec![], d(10), true);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&with_be.utilization) > mean(&without.utilization),
            "BE must raise utilization: {} vs {}",
            mean(&with_be.utilization),
            mean(&without.utilization)
        );
        // Accounting stays consistent.
        assert!(with_be.be_completed <= with_be.be_submitted);
        assert_eq!(with_be.be_completed, 100);
    }

    #[test]
    fn locals_are_conservatively_backfilled() {
        // One 2-proc cluster. C holds one processor over [0, 100); A needs
        // both, so it is booked at 100. B fits the idle processor before
        // A's booking and jumps ahead at its release without delaying A.
        use lsps_platform::{Cluster, LinkClass, NetworkModel};
        let p = Platform::new(
            "one",
            vec![Cluster::homogeneous("c", 2, 1, 1.0, LinkClass::gige())],
            NetworkModel::light_grid_default(),
        );
        let locals = vec![
            (0, Job::sequential(1, d(100))),
            (0, Job::rigid(2, 2, d(50)).released_at(t(10))),
            (0, Job::sequential(3, d(30)).released_at(t(20))),
        ];
        let report = run_cigri(&p, locals, vec![], d(50), true);
        let start_of = |id: u64| {
            report
                .local_records
                .iter()
                .find(|r| r.id.0 == id)
                .expect("local completed")
                .start
        };
        assert_eq!(start_of(1), t(0));
        assert_eq!(start_of(2), t(100), "A waits for C");
        assert_eq!(start_of(3), t(20), "B backfills ahead of A");
    }

    #[test]
    fn poll_gc_bounds_dead_bookings_without_losing_utilization() {
        // A long trace with many server cycles between local completions:
        // the per-poll gc must keep the full timeline free of dead bookings
        // mid-run (the local planner sweeps its own), and the report's
        // utilization must still balance exactly (every finished proc-tick
        // accounted before its booking is collectable). One cluster at
        // speed 1.0 keeps the arithmetic in raw ticks.
        use lsps_platform::{Cluster, LinkClass, NetworkModel};
        let p = Platform::new(
            "one",
            vec![Cluster::homogeneous("c", 2, 1, 1.0, LinkClass::gige())],
            NetworkModel::light_grid_default(),
        );
        let locals = vec![
            (0, Job::sequential(1, d(100))),
            (0, Job::sequential(2, d(80)).released_at(t(700))),
        ];
        let run_len = 60u64;
        let n_runs = 8usize;
        let mut sim = Simulation::new(CigriSim::new(&p, d(10), true));
        for (cluster, job) in locals {
            let at = job.release;
            sim.schedule_at(at, CigriEvent::LocalSubmit { cluster, job });
        }
        sim.schedule_at(
            Time::ZERO,
            CigriEvent::CampaignSubmit(Campaign::new(1, n_runs, d(run_len))),
        );
        let mut max_bookings = 0usize;
        while sim.step() {
            max_bookings = max_bookings.max(sim.model().clusters[0].full_tl.n_bookings());
        }
        let horizon = sim.now();
        let report = sim.model().report(horizon);
        // Mid-run the timeline never holds more than the work that can be
        // live at once (2 procs: 2 local + 2 BE bookings, plus one being
        // placed) — dead bookings are collected by the poll cycles even
        // while no local job completes for hundreds of ticks.
        assert!(max_bookings <= 5, "dead bookings piled up: {max_bookings}");
        let cl = &sim.model().clusters[0];
        assert_eq!(cl.full_tl.n_bookings(), 0, "everything collected");
        // Exact accounting identity: utilization ≈ (local + BE + wasted)
        // proc-ticks over the 2 × horizon rectangle.
        assert_eq!(report.be_completed, n_runs as u64);
        let local_ticks: u64 = report
            .local_records
            .iter()
            .map(|r| (r.completion - r.start).ticks() * r.procs as u64)
            .sum();
        let be_ticks = n_runs as u64 * run_len + (report.wasted_cpu_s * 1000.0).round() as u64;
        let expected = (local_ticks + be_ticks) as f64 / (2 * horizon.ticks()) as f64;
        assert!(
            (report.utilization[0] - expected).abs() < 1e-9,
            "utilization {} vs accounted {expected}",
            report.utilization[0]
        );
    }

    #[test]
    fn a_killed_runs_stale_end_does_not_move_the_utilization_horizon() {
        // Two 1-processor clusters, `a` at full speed and `b` at half. A
        // local holds `a` over [0, 40), so the single campaign run (100
        // ticks) starts on `b` over [0, 200). A local on `b` at 50 kills
        // it after 50 ticks; the requeued run takes the now idle `a` over
        // [50, 150). The killed run's end still fires at 200, but the last
        // live event is the rerun's end at 150.
        use lsps_platform::{Cluster, LinkClass, NetworkModel};
        let p = Platform::new(
            "pair",
            vec![
                Cluster::homogeneous("a", 1, 1, 1.0, LinkClass::gige()),
                Cluster::homogeneous("b", 1, 1, 0.5, LinkClass::eth100()),
            ],
            NetworkModel::light_grid_default(),
        );
        let locals = vec![
            (0, Job::sequential(1, d(40))),
            (1, Job::sequential(2, d(10)).released_at(t(50))),
        ];
        let c = Campaign::new(1, 1, d(100));
        let report = run_cigri(&p, locals, vec![c], d(10), true);
        assert_eq!(report.kills, 1);
        assert_eq!(report.be_completed, 1);
        assert_eq!(report.campaign_done_at, t(150));
        // `a`: local 40 + rerun 100; `b`: killed run 50 + local 20 (10
        // ticks at half speed), all over the horizon 150.
        assert_eq!(report.utilization, [140.0 / 150.0, 70.0 / 150.0]);
        assert_eq!(report.local_utilization, [40.0 / 150.0, 20.0 / 150.0]);
    }

    #[test]
    fn ciment_preset_smoke() {
        let p = presets::ciment();
        let locals = vec![
            (0, Job::rigid(1, 8, d(1000))),
            (1, Job::rigid(2, 4, d(800)).released_at(t(100))),
            (2, Job::sequential(3, d(2000))),
        ];
        let report = run_cigri(&p, locals, vec![Campaign::new(1, 500, d(50))], d(20), true);
        assert_eq!(report.local.as_ref().unwrap().n, 3);
        assert_eq!(report.be_completed, 500);
        assert_eq!(report.utilization.len(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use lsps_platform::{Cluster, LinkClass, NetworkModel};
    use lsps_workload::JobId;
    use proptest::prelude::*;

    /// Two clusters, the second at half speed.
    fn two_clusters(procs_a: usize, procs_b: usize) -> Platform {
        Platform::new(
            "prop",
            vec![
                Cluster::homogeneous("a", procs_a, 1, 1.0, LinkClass::gige()),
                Cluster::homogeneous("b", procs_b, 1, 0.5, LinkClass::eth100()),
            ],
            NetworkModel::light_grid_default(),
        )
    }

    /// Rigid locals `(cluster, width, length, release)`, widths capped to
    /// the cluster and ids in input order.
    fn local_jobs(platform: &Platform, locals: &[(usize, usize, u64, u64)]) -> Vec<(usize, Job)> {
        locals
            .iter()
            .enumerate()
            .map(|(i, &(c, q, len, rel))| {
                let q = q.min(platform.clusters[c].total_procs());
                (
                    c,
                    Job::rigid(i as u64, q, Dur::from_ticks(len))
                        .released_at(Time::from_ticks(rel)),
                )
            })
            .collect()
    }

    /// Local placement as `CigriSim` made it before it shared the
    /// backfill planner: one local-only timeline per cluster, swept of
    /// finished work, on which each arrival is booked at its earliest
    /// slot from now.
    struct LocalTimelineOracle(Vec<Timeline>);

    impl LocalTimelineOracle {
        fn new(platform: &Platform) -> Self {
            LocalTimelineOracle(
                platform
                    .clusters
                    .iter()
                    .map(|c| Timeline::with_procs(c.total_procs()))
                    .collect(),
            )
        }

        fn place(&mut self, c: usize, now: Time, len: Dur, q: usize) -> (Time, ProcSet) {
            let tl = &mut self.0[c];
            tl.gc(now);
            let (start, procs) = tl
                .earliest_slot(now, len, q)
                .expect("q <= m, so a slot always exists");
            tl.book(start, start + len, procs.clone(), BookingKind::Job);
            (start, procs)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Every local gets the same start and processors from the
        /// planner path as from the local-timeline oracle, bit for bit,
        /// and the simulation, campaign included, runs each local at the
        /// start the planner path gave it.
        #[test]
        fn planner_placement_matches_the_local_timeline_oracle(
            locals in prop::collection::vec(
                (0usize..2, 1usize..5, 1u64..400, 0u64..800), 1..48),
            n_runs in 1usize..30,
            poll in 1u64..100,
        ) {
            let platform = two_clusters(4, 3);
            let jobs = local_jobs(&platform, &locals);
            let mut sim = CigriSim::new(&platform, Dur::from_ticks(poll), true);
            let mut oracle = LocalTimelineOracle::new(&platform);
            // Arrival order: by release, ties in submission order, as the
            // event queue delivers them.
            let mut arrivals: Vec<&(usize, Job)> = jobs.iter().collect();
            arrivals.sort_by_key(|(_, j)| j.release);
            let mut placed: HashMap<JobId, (Time, ProcSet)> = HashMap::new();
            for &(c, ref job) in arrivals {
                let q = job.min_procs();
                let len = sim.scale(c, job.time_on(q));
                let got = sim.clusters[c].place_local(job.release, job, len);
                let want = oracle.place(c, job.release, len, q);
                prop_assert_eq!(&got, &want, "job {}", job.id);
                placed.insert(job.id, got);
            }
            let campaigns = vec![Campaign::new(1, n_runs, Dur::from_ticks(50))];
            let report = run_cigri(&platform, jobs, campaigns, Dur::from_ticks(poll), true);
            prop_assert_eq!(report.local_records.len(), placed.len());
            for r in &report.local_records {
                let (start, procs) = &placed[&r.id];
                prop_assert_eq!(r.start, *start, "job {}", r.id);
                prop_assert_eq!(r.procs, procs.len(), "job {}", r.id);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The paper's central §5.2 claim as a property: for ANY local
        /// workload and ANY campaign, enabling the best-effort layer leaves
        /// every local job's record bit-identical, completes runs only up
        /// to what was submitted, and never loses a run (completed +
        /// still-queued-or-running = submitted; here everything drains).
        #[test]
        fn locals_never_disturbed_under_any_campaign(
            locals in prop::collection::vec(
                (0usize..2, 1usize..3, 1u64..400, 0u64..600), 1..16),
            n_runs in 1usize..40,
            run_len in 1u64..300,
            poll in 1u64..100,
        ) {
            let platform = two_clusters(3, 2);
            let jobs = local_jobs(&platform, &locals);
            let cluster_of: HashMap<JobId, usize> =
                jobs.iter().map(|(c, j)| (j.id, *c)).collect();
            let campaign = Campaign::new(1, n_runs, Dur::from_ticks(run_len));
            let with = run_cigri(
                &platform, jobs.clone(), vec![campaign], Dur::from_ticks(poll), true);
            let without = run_cigri(
                &platform, jobs, vec![], Dur::from_ticks(poll), true);
            // Bit-identical local outcomes.
            prop_assert_eq!(&with.local_records, &without.local_records);
            // The campaign fully drains and accounting balances.
            prop_assert_eq!(with.be_completed, n_runs as u64);
            prop_assert_eq!(with.be_submitted, n_runs as u64);
            prop_assert!(with.wasted_cpu_s >= 0.0);
            // Kills can only have happened if locals exist.
            if with.kills > 0 {
                prop_assert!(!with.local_records.is_empty());
            }
            // Capacity, checked from the records alone: sweep each
            // cluster's local intervals in time order, ends before starts
            // at the same instant (intervals are half-open).
            for (c, cluster) in platform.clusters.iter().enumerate() {
                let mut edges: Vec<(Time, i64)> = with
                    .local_records
                    .iter()
                    .filter(|r| cluster_of[&r.id] == c)
                    .flat_map(|r| [(r.start, r.procs as i64), (r.completion, -(r.procs as i64))])
                    .collect();
                edges.sort_unstable();
                let mut used = 0i64;
                for (at, delta) in edges {
                    used += delta;
                    prop_assert!(
                        used <= cluster.total_procs() as i64,
                        "cluster {} runs {} processors at {:?}", c, used, at
                    );
                }
            }
        }
    }
}
