//! The `lsps-campaignd` state machine: campaign submission, the spec
//! journal, cache probing, least-loaded sharding over supervised worker
//! processes, and the HTTP query API.
//!
//! ## Lifecycle of a campaign
//!
//! `POST /campaigns` parses and expands the spec through
//! [`CampaignPlan::expand`] (rejecting invalid specs synchronously), then
//! derives the campaign id from the FNV-64 hash of the *canonical* spec
//! JSON — resubmitting the same spec (any key order) is idempotent. The
//! canonical JSON is journaled to `journal_dir/<id>.json` before the
//! submission returns, so a daemon restart replays every accepted
//! campaign. Each cell is probed against the content-addressed cell cache
//! (`Cached` on hit) and the misses are queued.
//!
//! ## Sharding and supervision
//!
//! Queued cells are dispatched to the least-loaded live worker, ties
//! broken by the cell's *home slot* — `fnv64(cache key) % workers` — so
//! equal-load assignment is deterministic and sticky by content. Each
//! worker holds at most [`INFLIGHT_CAP`] outstanding cells. A supervisor
//! thread ticks every ~50 ms: a worker with outstanding work but no
//! activity past the per-cell timeout is killed; dead workers have their
//! in-flight cells requeued (up to [`MAX_ATTEMPTS`], then
//! `Failed`) and are respawned with a clean environment. Respawns back
//! off exponentially per slot (deterministic jitter, see
//! [`respawn_delay`]) and the whole fleet is capped at
//! [`MAX_RESPAWNS_PER_MIN`] — a worker binary that dies on
//! startup costs a bounded trickle of spawns, not a fork bomb. Fresh
//! results are stored back into the cell cache, which is what makes
//! restart resume free: the replayed campaign finds every completed cell
//! already cached.
//!
//! ## Shutdown
//!
//! [`Daemon::drain`] is the graceful path (the `lsps-campaignd` binary
//! wires it to SIGTERM): new `POST /campaigns` submissions are refused
//! with 503, no further queued cells are dispatched, and in-flight cells
//! get a bounded grace period to finish — each completion is persisted to
//! the cell cache as it lands, so whatever the grace period covers is
//! progress a restart never recomputes. [`Daemon::shutdown`] is the
//! immediate path (kill the fleet); the journal and cache make even that
//! safe to resume from.
//!
//! Completed campaigns serve `GET /campaigns/{id}/aggregate` (and
//! `.../raw`, the per-cell rows) with the exact bytes
//! [`lsps_scenario::run_campaign`] would produce: cells come back from
//! workers through the lossless JSON round-trip and are reassembled in
//! canonical plan order before aggregation.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lsps_scenario::cache::CellCache;
use lsps_scenario::campaign::aggregate_csv;
use lsps_scenario::runner::to_csv;
use lsps_scenario::spec::fnv64;
use lsps_scenario::{write_file_atomic, CampaignOptions, CampaignPlan, Cell};
use serde::Value;

use crate::http::{read_request, respond, Request};
use crate::protocol::{FromWorker, ToWorker};

/// Maximum cells outstanding per worker process: enough to hide dispatch
/// latency, small enough that a worker death costs little rework.
pub const INFLIGHT_CAP: usize = 2;

/// Dispatch attempts per cell before it is marked `Failed`.
pub const MAX_ATTEMPTS: usize = 3;

/// Base delay before respawning a dead worker; doubles per consecutive
/// failure of the same slot (capped, jittered — see [`respawn_delay`]).
pub const RESPAWN_BACKOFF: Duration = Duration::from_millis(100);

/// Hard ceiling on fleet-wide respawns per rolling minute; a slot that
/// would exceed it stays down until the window frees.
pub const MAX_RESPAWNS_PER_MIN: usize = 60;

/// Everything the daemon needs to run.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Worker-process count.
    pub workers: usize,
    /// A worker with outstanding cells but no completions for this long is
    /// considered wedged, killed, and its cells reassigned.
    pub cell_timeout: Duration,
    /// Content-addressed cell cache directory (shared with
    /// `lsps-campaign`).
    pub cache_dir: PathBuf,
    /// Spec journal directory; replayed on startup.
    pub journal_dir: PathBuf,
    /// Directory relative trace paths resolve against.
    pub base_dir: Option<PathBuf>,
    /// Path to the `lsps-worker` binary.
    pub worker_cmd: PathBuf,
    /// Extra environment for *first-generation* workers only — the
    /// fault-injection hook. Respawned workers always run clean.
    pub worker_env: Vec<(String, String)>,
}

impl DaemonConfig {
    /// Defaults for a daemon driving `worker_cmd`.
    pub fn new(worker_cmd: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            workers: 2,
            cell_timeout: Duration::from_secs(120),
            cache_dir: PathBuf::from("results/cache"),
            journal_dir: PathBuf::from("results/journal"),
            base_dir: None,
            worker_cmd: worker_cmd.into(),
            worker_env: Vec::new(),
        }
    }
}

/// Delay before respawning slot `widx` after its `failures`-th
/// consecutive loss: `base × 2^(failures−1)` capped at 64×, plus a
/// deterministic jitter of up to 25% derived from the slot and failure
/// count — slots that die together come back staggered, and the schedule
/// is reproducible run to run.
pub fn respawn_delay(widx: usize, failures: u32, base: Duration) -> Duration {
    let exp = failures.saturating_sub(1).min(6);
    let backoff = base.saturating_mul(1u32 << exp);
    let mut tag = [0u8; 12];
    tag[..8].copy_from_slice(&(widx as u64).to_le_bytes());
    tag[8..].copy_from_slice(&failures.to_le_bytes());
    let quarter = (backoff.as_nanos() / 4).min(u64::MAX as u128) as u64;
    let jitter = if quarter == 0 {
        0
    } else {
        fnv64(&tag) % quarter
    };
    backoff
        .checked_add(Duration::from_nanos(jitter))
        .unwrap_or(backoff)
}

/// Where one cell of a tracked campaign stands.
#[derive(Clone, Debug, PartialEq)]
enum CellState {
    /// Waiting for a worker slot.
    Queued,
    /// Dispatched to worker `worker`.
    Running {
        /// Worker slot index the cell was dispatched to.
        worker: usize,
    },
    /// Served from the cell cache at submission.
    Cached,
    /// Computed by a worker this run.
    Done,
    /// Exhausted its attempts.
    Failed,
}

/// One tracked campaign.
struct CampaignState {
    plan: CampaignPlan,
    states: Vec<CellState>,
    results: Vec<Option<Cell>>,
    attempts: Vec<usize>,
    /// First failure rendering, for the aggregate endpoint's error body.
    error: Option<String>,
}

impl CampaignState {
    /// (queued, running, cached, done, failed) counts.
    fn counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for s in &self.states {
            match s {
                CellState::Queued => c.0 += 1,
                CellState::Running { .. } => c.1 += 1,
                CellState::Cached => c.2 += 1,
                CellState::Done => c.3 += 1,
                CellState::Failed => c.4 += 1,
            }
        }
        c
    }

    /// No cell is queued or running.
    fn complete(&self) -> bool {
        !self
            .states
            .iter()
            .any(|s| matches!(s, CellState::Queued | CellState::Running { .. }))
    }
}

/// One supervised worker process.
struct WorkerSlot {
    child: Child,
    stdin: ChildStdin,
    /// Monotonic spawn counter; reader threads tag messages with the
    /// generation they were spawned for, so a stale reader can never
    /// mutate the slot's replacement.
    generation: u64,
    /// `(campaign id, cell index)` dispatched and not yet answered.
    inflight: Vec<(String, usize)>,
    /// Campaign ids already `Load`ed into this process.
    loaded: HashSet<String>,
    /// Last dispatch or completion; staleness past the cell timeout with
    /// a non-empty `inflight` means the worker is wedged.
    last_activity: Instant,
    /// Set once the worker is known lost; the supervisor respawns it.
    dead: bool,
}

struct Shared {
    campaigns: HashMap<String, CampaignState>,
    /// `None` until the initial spawn; `Some` thereafter (dead or alive).
    workers: Vec<Option<WorkerSlot>>,
    /// Queued `(campaign id, cell index)` in dispatch order.
    queue: VecDeque<(String, usize)>,
    /// Next worker generation.
    next_gen: u64,
    /// Set by [`Daemon::shutdown`]; readers stop requeueing.
    stopping: bool,
    /// Lifetime respawn count per slot (first spawns not counted).
    respawns: Vec<u64>,
    /// Consecutive losses per slot since its last completed cell; drives
    /// the exponential backoff, reset on any successful completion.
    consecutive_failures: Vec<u32>,
    /// Earliest instant the supervisor may respawn each slot.
    next_spawn_at: Vec<Instant>,
    /// Fleet-wide respawn timestamps inside the rolling rate window.
    respawn_times: VecDeque<Instant>,
    /// Edge detector so the rate-cap warning fires once per episode.
    rate_capped: bool,
}

/// The campaign service. Cheap to share: all state lives behind one
/// mutex, and every public method locks internally.
pub struct Daemon {
    cfg: DaemonConfig,
    cache: CellCache,
    shared: Mutex<Shared>,
    stop: AtomicBool,
    /// Set by [`Daemon::begin_drain`]: refuse new campaigns, stop
    /// dispatching queued cells, let in-flight cells finish.
    draining: AtomicBool,
}

impl Daemon {
    /// Build the service: create the cache and journal directories, spawn
    /// the worker fleet, replay the journal, start the supervisor.
    pub fn start(cfg: DaemonConfig) -> io::Result<Arc<Daemon>> {
        assert!(cfg.workers > 0, "daemon needs at least one worker");
        let cache = CellCache::new(&cfg.cache_dir)?;
        std::fs::create_dir_all(&cfg.journal_dir)?;
        let daemon = Arc::new(Daemon {
            shared: Mutex::new(Shared {
                campaigns: HashMap::new(),
                workers: (0..cfg.workers).map(|_| None).collect(),
                queue: VecDeque::new(),
                next_gen: 0,
                stopping: false,
                respawns: vec![0; cfg.workers],
                consecutive_failures: vec![0; cfg.workers],
                next_spawn_at: vec![Instant::now(); cfg.workers],
                respawn_times: VecDeque::new(),
                rate_capped: false,
            }),
            cache,
            cfg,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
        });
        {
            let mut sh = daemon.shared.lock().expect("daemon state");
            for w in 0..daemon.cfg.workers {
                daemon.spawn_worker(&mut sh, w, true)?;
            }
        }
        daemon.replay_journal();
        let sup = Arc::clone(&daemon);
        std::thread::spawn(move || sup.supervise());
        Ok(daemon)
    }

    /// Re-submit every journaled spec (sorted for a deterministic replay
    /// order); completed campaigns resume entirely from the cache. Replay
    /// is tolerant of torn entries: a shard that is not valid JSON —
    /// e.g. a write truncated by power loss on a filesystem that fsyncs
    /// lazily — is skipped with a warning instead of aborting the replay,
    /// and every *parseable* campaign still resumes.
    fn replay_journal(self: &Arc<Daemon>) {
        let mut names = lsps_scenario::list_file_names(&self.cfg.journal_dir);
        names.sort();
        for name in names.iter().filter(|n| n.ends_with(".json")) {
            let path = self.cfg.journal_dir.join(name);
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    if serde_json::from_str::<Value>(&text).is_err() {
                        eprintln!(
                            "[campaignd] journal {name}: torn or truncated entry, skipping \
                             (resubmit the spec to re-journal it)"
                        );
                        continue;
                    }
                    if let Err(e) = self.submit(&text) {
                        eprintln!("[campaignd] journal {name}: {e}");
                    }
                }
                Err(e) => eprintln!("[campaignd] journal {name}: {e}"),
            }
        }
    }

    /// Accept a campaign spec (JSON text). Returns the campaign id;
    /// resubmitting an equivalent spec returns the existing id without
    /// touching its state.
    pub fn submit(&self, spec_text: &str) -> Result<String, String> {
        let spec: lsps_scenario::CampaignSpec =
            serde_json::from_str(spec_text).map_err(|e| format!("spec: {e}"))?;
        let opts = CampaignOptions {
            cache_dir: None,
            threads: 1,
            base_dir: self.cfg.base_dir.clone(),
        };
        let plan = CampaignPlan::expand(&spec, &opts).map_err(|e| e.to_string())?;
        let canonical = plan.canonical_spec_json();
        let id = format!("{:016x}", fnv64(canonical.as_bytes()));
        let mut sh = self.shared.lock().expect("daemon state");
        if sh.campaigns.contains_key(&id) {
            return Ok(id);
        }
        let n = plan.cells().len();
        let mut states = Vec::with_capacity(n);
        let mut results = Vec::with_capacity(n);
        for cell in plan.cells() {
            match self.cache.load(&cell.key) {
                Some(data) => {
                    states.push(CellState::Cached);
                    results.push(Some(data));
                }
                None => {
                    states.push(CellState::Queued);
                    results.push(None);
                }
            }
        }
        for (i, s) in states.iter().enumerate() {
            if *s == CellState::Queued {
                sh.queue.push_back((id.clone(), i));
            }
        }
        sh.campaigns.insert(
            id.clone(),
            CampaignState {
                plan,
                states,
                results,
                attempts: vec![0; n],
                error: None,
            },
        );
        write_file_atomic(&self.cfg.journal_dir, &format!("{id}.json"), &canonical);
        self.dispatch(&mut sh);
        Ok(id)
    }

    /// Spawn (or respawn) the worker in slot `widx` and its reader thread.
    /// `first` spawns apply [`DaemonConfig::worker_env`].
    fn spawn_worker(
        self: &Arc<Daemon>,
        sh: &mut Shared,
        widx: usize,
        first: bool,
    ) -> io::Result<()> {
        let mut cmd = Command::new(&self.cfg.worker_cmd);
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if first {
            for (k, v) in &self.cfg.worker_env {
                cmd.env(k, v);
            }
        }
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let generation = sh.next_gen;
        sh.next_gen += 1;
        sh.workers[widx] = Some(WorkerSlot {
            child,
            stdin,
            generation,
            inflight: Vec::new(),
            loaded: HashSet::new(),
            last_activity: Instant::now(),
            dead: false,
        });
        let daemon = Arc::clone(self);
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                match serde_json::from_str::<FromWorker>(&line) {
                    Ok(msg) => daemon.on_worker_msg(widx, generation, msg),
                    Err(e) => eprintln!("[campaignd] worker {widx}: unparseable reply: {e}"),
                }
            }
            // EOF: the process exited (crash, kill, or shutdown).
            let mut sh = daemon.shared.lock().expect("daemon state");
            daemon.fail_worker(&mut sh, widx, generation);
        });
        Ok(())
    }

    /// Mark the worker lost and requeue its in-flight cells. Idempotent
    /// per generation — the timeout path and the reader's EOF path can
    /// both call it.
    fn fail_worker(&self, sh: &mut Shared, widx: usize, generation: u64) {
        if sh.stopping {
            return;
        }
        let Some(slot) = sh.workers[widx].as_mut() else {
            return;
        };
        if slot.generation != generation || slot.dead {
            return;
        }
        slot.dead = true;
        let _ = slot.child.kill();
        let inflight = std::mem::take(&mut slot.inflight);
        sh.consecutive_failures[widx] = sh.consecutive_failures[widx].saturating_add(1);
        sh.next_spawn_at[widx] =
            Instant::now() + respawn_delay(widx, sh.consecutive_failures[widx], RESPAWN_BACKOFF);
        for (cid, cell) in inflight {
            let Some(camp) = sh.campaigns.get_mut(&cid) else {
                continue;
            };
            camp.attempts[cell] += 1;
            if camp.attempts[cell] >= MAX_ATTEMPTS {
                camp.states[cell] = CellState::Failed;
                camp.error
                    .get_or_insert_with(|| format!("cell {cell}: worker died repeatedly"));
            } else {
                camp.states[cell] = CellState::Queued;
                sh.queue.push_back((cid.clone(), cell));
            }
        }
    }

    /// One reply from worker `widx` (generation-tagged; stale readers are
    /// ignored).
    fn on_worker_msg(&self, widx: usize, generation: u64, msg: FromWorker) {
        let mut sh = self.shared.lock().expect("daemon state");
        {
            let Some(slot) = sh.workers[widx].as_mut() else {
                return;
            };
            if slot.generation != generation || slot.dead {
                return;
            }
            slot.last_activity = Instant::now();
        }
        match msg {
            FromWorker::Loaded { id, cells } => {
                if let Some(camp) = sh.campaigns.get(&id) {
                    if camp.plan.cells().len() != cells {
                        eprintln!(
                            "[campaignd] worker {widx}: campaign {id} expanded to {cells} cells, daemon has {}",
                            camp.plan.cells().len()
                        );
                    }
                }
            }
            FromWorker::Done { id, cell, data } => {
                // A completed cell proves the slot healthy; the next loss
                // starts the backoff ladder from the bottom again.
                sh.consecutive_failures[widx] = 0;
                let slot = sh.workers[widx].as_mut().expect("checked above");
                slot.inflight.retain(|(c, i)| !(c == &id && *i == cell));
                if let Some(camp) = sh.campaigns.get_mut(&id) {
                    if matches!(camp.states[cell], CellState::Running { worker } if worker == widx)
                    {
                        self.cache.store(&camp.plan.cells()[cell].key, &data);
                        camp.results[cell] = Some(*data);
                        camp.states[cell] = CellState::Done;
                    }
                }
                self.dispatch(&mut sh);
            }
            FromWorker::Error { id, cell, error } => {
                match cell {
                    Some(cell) => {
                        let slot = sh.workers[widx].as_mut().expect("checked above");
                        slot.inflight.retain(|(c, i)| !(c == &id && *i == cell));
                        if let Some(camp) = sh.campaigns.get_mut(&id) {
                            camp.attempts[cell] += 1;
                            if camp.attempts[cell] >= MAX_ATTEMPTS {
                                camp.states[cell] = CellState::Failed;
                                camp.error.get_or_insert(format!("cell {cell}: {error}"));
                            } else {
                                camp.states[cell] = CellState::Queued;
                                sh.queue.push_back((id, cell));
                            }
                        }
                    }
                    None => {
                        // Load failed: the worker cannot run *any* cell of
                        // this campaign (e.g. an unreadable trace file), and
                        // every worker shares the environment — fail the
                        // campaign outright rather than retry in a loop.
                        if let Some(camp) = sh.campaigns.get_mut(&id) {
                            camp.error.get_or_insert(format!("load: {error}"));
                            for s in camp.states.iter_mut() {
                                if matches!(*s, CellState::Queued | CellState::Running { .. }) {
                                    *s = CellState::Failed;
                                }
                            }
                        }
                        sh.queue.retain(|(c, _)| c != &id);
                        for slot in sh.workers.iter_mut().flatten() {
                            slot.inflight.retain(|(c, _)| c != &id);
                        }
                    }
                }
                self.dispatch(&mut sh);
            }
        }
    }

    /// Drain the queue onto available workers: least-loaded live slot
    /// wins, ties broken by the cell's home slot (`fnv64(key) % workers`)
    /// so assignment is deterministic and content-sticky.
    fn dispatch(&self, sh: &mut Shared) {
        if self.draining.load(Ordering::SeqCst) {
            // Draining: in-flight cells finish (and persist to the cell
            // cache), queued cells wait for the journal replay of the
            // next boot.
            return;
        }
        while let Some((cid, cell)) = sh.queue.pop_front() {
            // Skip entries whose cell moved on (requeue dedup, load failure).
            let key = match sh.campaigns.get(&cid) {
                Some(camp) if camp.states[cell] == CellState::Queued => {
                    camp.plan.cells()[cell].key.clone()
                }
                _ => continue,
            };
            let n = sh.workers.len();
            let home = fnv64(key.as_bytes()) as usize % n;
            let mut target: Option<usize> = None;
            for off in 0..n {
                let w = (home + off) % n;
                let Some(slot) = sh.workers[w].as_ref() else {
                    continue;
                };
                if slot.dead || slot.inflight.len() >= INFLIGHT_CAP {
                    continue;
                }
                if target.is_none_or(|t| {
                    slot.inflight.len()
                        < sh.workers[t].as_ref().expect("live target").inflight.len()
                }) {
                    target = Some(w);
                }
            }
            let Some(w) = target else {
                // Every worker is saturated or down; put the cell back and
                // let the next completion or respawn drain it.
                sh.queue.push_front((cid, cell));
                break;
            };
            let load_msg = {
                let slot = sh.workers[w].as_ref().expect("live target");
                let camp = &sh.campaigns[&cid];
                (!slot.loaded.contains(&cid)).then(|| {
                    serde_json::to_string(&ToWorker::Load {
                        id: cid.clone(),
                        spec: Box::new(camp.plan.spec().clone()),
                        base_dir: self
                            .cfg
                            .base_dir
                            .as_ref()
                            .map(|p| p.to_string_lossy().into_owned()),
                    })
                    .expect("requests serialize")
                })
            };
            let run_msg = serde_json::to_string(&ToWorker::Run {
                id: cid.clone(),
                cell,
            })
            .expect("requests serialize");
            let slot = sh.workers[w].as_mut().expect("live target");
            let generation = slot.generation;
            let mut write = || -> io::Result<()> {
                if let Some(m) = &load_msg {
                    writeln!(slot.stdin, "{m}")?;
                }
                writeln!(slot.stdin, "{run_msg}")?;
                slot.stdin.flush()
            };
            match write() {
                Ok(()) => {
                    slot.loaded.insert(cid.clone());
                    slot.inflight.push((cid.clone(), cell));
                    slot.last_activity = Instant::now();
                    let camp = sh.campaigns.get_mut(&cid).expect("campaign exists");
                    camp.states[cell] = CellState::Running { worker: w };
                }
                Err(_) => {
                    // Broken pipe: the worker is gone. Requeue this cell
                    // (it was never dispatched) and fail the slot.
                    sh.queue.push_front((cid, cell));
                    self.fail_worker(sh, w, generation);
                }
            }
        }
    }

    /// Supervisor loop: kill wedged workers, respawn dead ones, keep the
    /// queue draining. Exits on [`Daemon::shutdown`].
    fn supervise(self: Arc<Daemon>) {
        while !self.stop.load(Ordering::SeqCst) {
            {
                let mut sh = self.shared.lock().expect("daemon state");
                for w in 0..sh.workers.len() {
                    let wedged = sh.workers[w].as_ref().is_some_and(|s| {
                        !s.dead
                            && !s.inflight.is_empty()
                            && s.last_activity.elapsed() > self.cfg.cell_timeout
                    });
                    if wedged {
                        let generation = sh.workers[w].as_ref().expect("checked above").generation;
                        eprintln!(
                            "[campaignd] worker {w}: no progress past cell timeout, respawning"
                        );
                        self.fail_worker(&mut sh, w, generation);
                    }
                    let dead = sh.workers[w].as_mut().is_some_and(|s| {
                        if s.dead {
                            let _ = s.child.wait();
                        }
                        s.dead
                    });
                    if dead && !self.draining.load(Ordering::SeqCst) {
                        let now = Instant::now();
                        if now < sh.next_spawn_at[w] {
                            continue; // backoff window still open
                        }
                        let window = Duration::from_secs(60);
                        while sh
                            .respawn_times
                            .front()
                            .is_some_and(|t| now.duration_since(*t) > window)
                        {
                            sh.respawn_times.pop_front();
                        }
                        if sh.respawn_times.len() >= MAX_RESPAWNS_PER_MIN {
                            if !sh.rate_capped {
                                sh.rate_capped = true;
                                eprintln!(
                                    "[campaignd] respawn rate cap hit ({}/min): worker {w} \
                                     stays down until the window frees",
                                    MAX_RESPAWNS_PER_MIN
                                );
                            }
                            continue;
                        }
                        sh.rate_capped = false;
                        sh.respawn_times.push_back(now);
                        sh.respawns[w] += 1;
                        if let Err(e) = self.spawn_worker(&mut sh, w, false) {
                            // Spawn itself failed (missing binary, fd
                            // exhaustion): climb the same backoff ladder
                            // so the retry loop cannot run hot.
                            sh.consecutive_failures[w] =
                                sh.consecutive_failures[w].saturating_add(1);
                            sh.next_spawn_at[w] =
                                now + respawn_delay(w, sh.consecutive_failures[w], RESPAWN_BACKOFF);
                            eprintln!("[campaignd] worker {w}: respawn failed: {e}");
                        }
                    }
                }
                self.dispatch(&mut sh);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Progress of campaign `id` as a JSON object, or `None` if unknown.
    pub fn status_json(&self, id: &str) -> Option<String> {
        let sh = self.shared.lock().expect("daemon state");
        let camp = sh.campaigns.get(id)?;
        let (queued, running, cached, done, failed) = camp.counts();
        let v = Value::Map(vec![
            ("id".into(), Value::Str(id.into())),
            ("name".into(), Value::Str(camp.plan.spec().name.clone())),
            ("total".into(), Value::UInt(camp.states.len() as u64)),
            ("queued".into(), Value::UInt(queued as u64)),
            ("running".into(), Value::UInt(running as u64)),
            ("cached".into(), Value::UInt(cached as u64)),
            ("done".into(), Value::UInt(done as u64)),
            ("failed".into(), Value::UInt(failed as u64)),
            ("complete".into(), Value::Bool(camp.complete())),
            // Fleet health alongside progress: how often workers had to
            // be respawned (lifetime, across all slots), and whether the
            // daemon is refusing new work.
            (
                "worker_respawns".into(),
                Value::UInt(sh.respawns.iter().sum()),
            ),
            (
                "draining".into(),
                Value::Bool(self.draining.load(Ordering::SeqCst)),
            ),
        ]);
        Some(serde_json::to_string(&v).expect("status serializes"))
    }

    /// The campaign's CSVs, byte-identical to an in-process
    /// [`lsps_scenario::run_campaign`]: `Ok((raw, aggregate))` once every
    /// cell is accounted for, `Err((http status, message))` otherwise.
    pub fn csvs(&self, id: &str) -> Result<(String, String), (u16, String)> {
        let sh = self.shared.lock().expect("daemon state");
        let Some(camp) = sh.campaigns.get(id) else {
            return Err((404, format!("unknown campaign `{id}`\n")));
        };
        if !camp.complete() {
            let (queued, running, ..) = camp.counts();
            return Err((
                409,
                format!("campaign still running ({queued} queued, {running} running)\n"),
            ));
        }
        if let Some(err) = &camp.error {
            return Err((500, format!("campaign failed: {err}\n")));
        }
        let cells: Vec<Cell> = camp
            .results
            .iter()
            .map(|r| r.clone().expect("complete without failures"))
            .collect();
        Ok((to_csv(&cells), aggregate_csv(&cells)))
    }

    /// Serve the HTTP API on `listener` until [`Daemon::shutdown`]. One
    /// thread per connection; the listener polls so shutdown is prompt.
    pub fn serve(self: &Arc<Daemon>, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        while !self.stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let daemon = Arc::clone(self);
                    std::thread::spawn(move || daemon.handle_connection(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn handle_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let req = match read_request(&mut stream) {
            Ok(r) => r,
            Err(e) => {
                let _ = respond(
                    &mut stream,
                    400,
                    "Bad Request",
                    "text/plain",
                    &format!("{e}\n"),
                );
                return;
            }
        };
        let _ = self.route(&mut stream, &req);
    }

    fn route(&self, stream: &mut TcpStream, req: &Request) -> io::Result<()> {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => respond(stream, 200, "OK", "text/plain", "ok\n"),
            ("POST", "/campaigns") if self.draining.load(Ordering::SeqCst) => respond(
                stream,
                503,
                "Service Unavailable",
                "text/plain",
                "draining: not accepting new campaigns\n",
            ),
            ("POST", "/campaigns") => match self.submit(&req.body) {
                Ok(id) => {
                    let status = self.status_json(&id).expect("just submitted");
                    respond(stream, 202, "Accepted", "application/json", &status)
                }
                Err(e) => respond(stream, 400, "Bad Request", "text/plain", &format!("{e}\n")),
            },
            ("GET", path) => {
                let Some(rest) = path.strip_prefix("/campaigns/") else {
                    return respond(stream, 404, "Not Found", "text/plain", "not found\n");
                };
                let csv = if let Some(id) = rest.strip_suffix("/aggregate") {
                    Some((id, true))
                } else {
                    rest.strip_suffix("/raw").map(|id| (id, false))
                };
                if let Some((id, aggregate)) = csv {
                    match self.csvs(id) {
                        Ok((raw, agg)) => {
                            let body = if aggregate { &agg } else { &raw };
                            respond(stream, 200, "OK", "text/csv", body)
                        }
                        Err((status, msg)) => {
                            let reason = match status {
                                404 => "Not Found",
                                409 => "Conflict",
                                _ => "Internal Server Error",
                            };
                            respond(stream, status, reason, "text/plain", &msg)
                        }
                    }
                } else {
                    match self.status_json(rest) {
                        Some(json) => respond(stream, 200, "OK", "application/json", &json),
                        None => respond(
                            stream,
                            404,
                            "Not Found",
                            "text/plain",
                            &format!("unknown campaign `{rest}`\n"),
                        ),
                    }
                }
            }
            _ => respond(stream, 404, "Not Found", "text/plain", "not found\n"),
        }
    }

    /// Enter drain mode without blocking: refuse new `POST /campaigns`
    /// with 503, stop dispatching queued cells, let in-flight cells run.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether the daemon is draining (or already stopped).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: [`Self::begin_drain`], wait up to `grace` for
    /// every in-flight cell to finish (each completion is persisted to
    /// the cell cache as it lands), then [`Self::shutdown`]. Queued cells
    /// are not started — the journal replay of the next boot picks them
    /// up, finding everything the grace period covered already cached.
    /// Returns `true` if the fleet went idle inside the grace period.
    pub fn drain(&self, grace: Duration) -> bool {
        self.begin_drain();
        let deadline = Instant::now() + grace;
        let drained = loop {
            let idle = {
                let sh = self.shared.lock().expect("daemon state");
                sh.workers
                    .iter()
                    .flatten()
                    .all(|s| s.dead || s.inflight.is_empty())
            };
            if idle {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        self.shutdown();
        drained
    }

    /// Stop the supervisor and the accept loop, kill the worker fleet.
    /// The journal and cache survive — a new [`Daemon::start`] on the same
    /// directories resumes every campaign from cache.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut sh = self.shared.lock().expect("daemon state");
        sh.stopping = true;
        for slot in sh.workers.iter_mut().flatten() {
            let _ = slot.child.kill();
            let _ = slot.child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.stop.load(Ordering::SeqCst) {
            self.shutdown();
        }
    }
}

/// Resolve a sibling binary of the current executable (`lsps-campaignd` →
/// `lsps-worker` in the same target directory), falling back to `name` on
/// `PATH`.
pub fn sibling_binary(name: &str) -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            let candidate = exe.parent()?.join(name);
            candidate.exists().then_some(candidate)
        })
        .unwrap_or_else(|| PathBuf::from(name))
}

/// Shared CLI default: the worker binary expected next to whichever
/// binary is running. Callers that can degrade gracefully (benches)
/// should check `is_file()` on the result before booting a daemon.
pub fn default_worker_cmd() -> PathBuf {
    sibling_binary(if cfg!(windows) {
        "lsps-worker.exe"
    } else {
        "lsps-worker"
    })
}

/// Spawn-side helper for tests and benches: a config pointed at temp
/// directories under `root`, with `worker_cmd` explicit.
pub fn config_under(root: &Path, worker_cmd: impl Into<PathBuf>) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(worker_cmd);
    cfg.cache_dir = root.join("cache");
    cfg.journal_dir = root.join("journal");
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respawn_delay_backs_off_exponentially_and_saturates() {
        let base = Duration::from_millis(100);
        // Jitter adds at most 25%, so consecutive rungs never overlap.
        for failures in 1..=6u32 {
            let d = respawn_delay(0, failures, base);
            let rung = base * (1 << (failures - 1));
            assert!(d >= rung, "failures={failures}: {d:?} < {rung:?}");
            assert!(d < rung + rung / 4 + Duration::from_nanos(1));
        }
        // Past the cap the rung stops growing.
        let capped = base * 64;
        for failures in [7u32, 10, 100, u32::MAX] {
            let d = respawn_delay(0, failures, base);
            assert!(d >= capped && d <= capped + capped / 4);
        }
    }

    #[test]
    fn respawn_delay_is_deterministic_and_staggers_slots() {
        let base = Duration::from_millis(100);
        assert_eq!(respawn_delay(3, 2, base), respawn_delay(3, 2, base));
        // Slots that die together come back at distinct instants.
        let delays: std::collections::HashSet<Duration> =
            (0..8).map(|w| respawn_delay(w, 1, base)).collect();
        assert!(delays.len() > 1, "jitter must separate slots: {delays:?}");
    }

    #[test]
    fn respawn_delay_survives_degenerate_bases() {
        assert_eq!(respawn_delay(0, 1, Duration::ZERO), Duration::ZERO);
        let huge = respawn_delay(0, u32::MAX, Duration::from_secs(u64::MAX / 2));
        assert!(huge >= Duration::from_secs(u64::MAX / 2));
    }
}
