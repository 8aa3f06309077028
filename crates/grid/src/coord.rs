//! The grid coordinator: partitions the design-point unit space across a
//! fleet of workers — local subprocesses and/or remote TCP daemons —
//! supervises them by heartbeat, retries quarantined units on a
//! different shard, reassigns the in-flight units of dead workers, and
//! merges every shard's [`SweepReport`] into one.
//!
//! Before it spawns or dials anything, the coordinator settles every unit
//! the sweep journal records and every unit whose design result its own
//! store holds under the full workload set, through the same
//! [`Session::cached_designs`] call as `prism explore`'s fast path. Only
//! the rest is assigned, so a warm grid starts no worker at all. The
//! coordinator's one [`Session`] over [`GridConfig::artifact_dir`] serves
//! that store pass and the local fallback.
//!
//! Local workers are re-invocations of the current executable with
//! `PRISM_GRID_WORKER=1` (see [`crate::worker`]); they share one
//! content-addressed artifact store, whose write-then-rename protocol
//! with per-process temp names makes concurrent writers safe. Remote
//! workers (`prism worker --listen`, reached via
//! [`GridConfig::hosts`]) have their *own* store; each remote `result`
//! names the design-point key its shard stored it under, and the
//! coordinator stores the result under that key before it journals the
//! unit, so its store ends up holding every result wherever it was
//! computed. Because every unit is keyed identically in every process, a
//! grid run and a single-process run produce byte-identical merged
//! reports (after [`SweepReport::normalize`]) on a healthy fleet —
//! wherever the shards ran.
//!
//! A worker that dies or disconnects mid-unit leaves a synthetic
//! quarantine entry behind; when the reassigned unit later succeeds,
//! normalization promotes it to [`SweepReport::recovered`], so fleet
//! trouble is visible in the merged report without changing its results.
//!
//! One event loop handles every inbound frame, through one handler, from
//! the first `Assign` to the last link's `Eof`. Once every unit is
//! settled or queued for local fallback, the loop sends `Shutdown` once
//! and keeps handling frames until each live link has delivered its
//! `Eof`: frames on one link arrive in order, so its `Bye` counters land
//! before it. Links still open after [`SHUTDOWN_GRACE`] are killed, and
//! every link is then reaped.

use std::path::PathBuf;
use std::process::Command;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use prism_exocore::{all_bsa_subsets, all_cores, DesignPoint, DesignResult};
use prism_net::{DeadLink, HostSpec, LinkEvent, ShardLink, StdioLink, TcpLink};
use prism_pipeline::{
    crash_point, encode_design_result, sweep_key, ArtifactStore, Config, ContentHash, FaultPlan,
    JournalReplay, PipelineError, Session, Stage, SweepJournal, SweepReport, SITE_GRID_FRAME,
};
use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::CoreConfig;
use prism_workloads::Workload;

use crate::proto::{FromWorker, ToWorker, PROTO_VERSION};
use crate::worker::{evaluate_unit, WORKER_ENV};

/// How many times one remote link is redialed over a run before its
/// shard slot is given up for dead. Each attempt is itself a bounded
/// backoff dial sequence (see [`prism_net::RECONNECT_ATTEMPTS`]).
const LINK_RECONNECTS: u32 = 3;

/// How often the event loop wakes for heartbeat supervision when no
/// frame arrives.
const SUPERVISION_TICK: Duration = Duration::from_millis(100);

/// How long links get after `Shutdown` to deliver their `Eof` before the
/// ones still open are killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Configuration for one grid run.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Local worker processes to spawn (shards `0..workers`).
    pub workers: usize,
    /// Remote worker daemons to connect to; each occupies one shard slot
    /// after the local ones (shards `workers..workers + hosts.len()`).
    pub hosts: Vec<HostSpec>,
    /// How many times a quarantined unit is retried on a *different*
    /// shard before its quarantine becomes permanent.
    pub shard_retries: usize,
    /// Workload names, resolved against the registry by the coordinator
    /// and by each worker.
    pub workloads: Vec<String>,
    /// Cores of the design grid (must be registry cores — IO2, OOO2,
    /// OOO4, OOO6 — since assignments name them over the wire).
    pub cores: Vec<CoreConfig>,
    /// BSA subsets of the design grid.
    pub subsets: Vec<Vec<BsaKind>>,
    /// Tracer instruction limit shared by every shard.
    pub max_insts: u64,
    /// Content-addressed artifact store shared by every *local* shard
    /// (remote daemons use their own).
    pub artifact_dir: PathBuf,
    /// Worker executable; defaults to the current executable.
    pub worker_cmd: Option<PathBuf>,
    /// A worker silent for this long is presumed dead and killed.
    pub heartbeat_timeout: Duration,
    /// Outstanding assignments per worker: 2 keeps the next unit's
    /// prepare phase overlapping the current unit's evaluate phase.
    pub window: usize,
    /// Extra environment for workers (test hook, e.g. worker faults).
    pub env: Vec<(String, String)>,
    /// Environment variables removed from workers (test hook).
    pub env_remove: Vec<String>,
    /// Fault plan whose link entries are applied to remote links.
    pub net_faults: Option<Arc<FaultPlan>>,
    /// Replay this sweep's journal and skip units it records as settled
    /// (the `--resume` flag). A fresh run truncates any prior journal.
    pub resume: bool,
}

impl GridConfig {
    /// The paper's full design space (every registered workload over
    /// 4 cores × 16 BSA subsets) on `workers` shards, with defaults
    /// matching a single-process [`Session`] run: the store directory and
    /// the link fault plan come from `config`.
    #[must_use]
    pub fn full_space(workers: usize, config: &Config) -> Self {
        GridConfig {
            workers,
            hosts: Vec::new(),
            shard_retries: 1,
            workloads: prism_workloads::ALL
                .iter()
                .map(|w| w.name.to_string())
                .collect(),
            cores: all_cores(),
            subsets: all_bsa_subsets(),
            max_insts: TracerConfig::default().max_insts,
            artifact_dir: config.artifact_dir.clone(),
            worker_cmd: None,
            heartbeat_timeout: Duration::from_secs(10),
            window: 2,
            env: Vec::new(),
            env_remove: Vec::new(),
            net_faults: config.fault_plan(),
            resume: false,
        }
    }
}

/// Per-remote-host counters (one entry per [`GridConfig::hosts`] slot).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostStats {
    /// The host as given (`host:port`).
    pub addr: String,
    /// Units this host settled (result or quarantine).
    pub units: usize,
    /// In-flight units recovered from this host's deaths/disconnects.
    pub recoveries: usize,
    /// Successful link reconnects.
    pub reconnects: usize,
    /// Trace walks this host performed (from its `Bye` counters).
    pub walks: u64,
    /// Walks this host skipped via the timing-reuse layer.
    pub walks_skipped: u64,
    /// In-memory shape-keyed timing memo hits on this host.
    pub shape_memo_hits: u64,
    /// Timing summaries this host loaded from its artifact store.
    pub timing_artifacts_loaded: u64,
}

/// Counters describing how a grid run went.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Worker processes spawned (plus remote links established).
    pub workers_spawned: usize,
    /// Workers that died (crash, heartbeat timeout, protocol error).
    pub workers_died: usize,
    /// Design-point units in the sweep.
    pub units_total: usize,
    /// Units settled from the coordinator's store before any worker ran
    /// (not journaled, like any cache hit).
    pub cached: usize,
    /// Quarantined units retried on a different shard.
    pub units_retried: usize,
    /// In-flight units of dead workers that were reassigned.
    pub units_reassigned: usize,
    /// Units evaluated in-process because no eligible worker remained.
    pub local_fallback_units: usize,
    /// Units settled from the sweep journal instead of being re-evaluated
    /// (`--resume`).
    pub resumed: usize,
    /// Valid journal records replayed (≥ `resumed`: a record may cover a
    /// unit superseded by a later one).
    pub replayed: usize,
    /// Bytes reclaimed by the opportunistic orphaned-tmp-file GC.
    pub gc_reclaimed_bytes: u64,
    /// Trace walks performed across every shard that reported counters
    /// (worker `Bye` frames plus the local fallback session).
    pub walks: u64,
    /// Walks skipped run-wide via the timing-reuse layer.
    pub walks_skipped: u64,
    /// Shape-keyed timing memo hits run-wide.
    pub shape_memo_hits: u64,
    /// Timing summaries loaded from artifact stores run-wide.
    pub timing_artifacts_loaded: u64,
    /// Per-remote-host counters, in [`GridConfig::hosts`] order.
    pub hosts: Vec<HostStats>,
}

impl GridStats {
    /// Renders the counters as a human-readable block (for `--stats`).
    #[must_use]
    pub fn render(&self) -> String {
        let mut text = format!(
            "-- grid stats --\n\
             workers : {} spawned, {} died\n\
             units   : {} total, {} cached, {} retried, {} reassigned, {} local\n\
             journal : {} units resumed, {} records replayed\n\
             gc      : {} bytes reclaimed\n\
             walks   : {} performed, {} skipped ({} shape-memo hits, {} timing artifacts loaded)\n",
            self.workers_spawned,
            self.workers_died,
            self.units_total,
            self.cached,
            self.units_retried,
            self.units_reassigned,
            self.local_fallback_units,
            self.resumed,
            self.replayed,
            self.gc_reclaimed_bytes,
            self.walks,
            self.walks_skipped,
            self.shape_memo_hits,
            self.timing_artifacts_loaded,
        );
        for host in &self.hosts {
            text.push_str(&format!(
                "host {} : {} units, {} recovered, {} reconnects, \
                 {} walks, {} skipped ({} shape-memo, {} artifacts)\n",
                host.addr,
                host.units,
                host.recoveries,
                host.reconnects,
                host.walks,
                host.walks_skipped,
                host.shape_memo_hits,
                host.timing_artifacts_loaded,
            ));
        }
        text
    }
}

/// The merged outcome of a grid run.
#[derive(Debug, Clone)]
pub struct GridOutcome {
    /// Every shard's report merged (normalized: sorted, deduped, retried
    /// successes promoted to [`SweepReport::recovered`]).
    pub report: SweepReport,
    /// Run counters.
    pub stats: GridStats,
}

/// A grid run that could not start (bad config, unspawnable workers).
/// Unit-level failures never surface here — they quarantine instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError {
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "grid error: {}", self.message)
    }
}

impl std::error::Error for GridError {}

fn err(message: impl Into<String>) -> GridError {
    GridError {
        message: message.into(),
    }
}

/// One design-point unit of the sweep.
struct Unit {
    label: String,
    core_idx: usize,
    subset_idx: usize,
    core_name: String,
    bsa_codes: String,
    attempts: usize,
    failed_on: Vec<usize>,
    resolved: bool,
    /// Queued for in-process evaluation: no eligible shard was left.
    local: bool,
}

/// Coordinator-side view of one worker (local subprocess or remote link).
struct WorkerState {
    link: Box<dyn ShardLink>,
    /// Supervised and eligible for work until `Shutdown`; afterwards,
    /// open until the link delivers its `Eof`.
    alive: bool,
    last_beat: Instant,
    inflight: Vec<usize>,
    /// Link generation current events must carry (see [`LinkEvent`]).
    gen: u64,
    /// Index into [`GridStats::hosts`] for remote shards.
    host: Option<usize>,
    /// Remaining reconnect attempts for this link.
    reconnects_left: u32,
}

/// The worker subprocess command for local shards (the link layer pipes
/// its stdin/stdout; stderr stays inherited).
fn worker_command(cmd: &PathBuf, config: &GridConfig) -> Command {
    let mut builder = Command::new(cmd);
    builder
        .env(WORKER_ENV, "1")
        .env("PRISM_ARTIFACT_DIR", &config.artifact_dir);
    for key in &config.env_remove {
        builder.env_remove(key);
    }
    for (key, value) in &config.env {
        builder.env(key, value);
    }
    builder
}

/// The Hello line opening (or re-opening) one shard's session.
fn hello_line(config: &GridConfig, shard: usize) -> String {
    ToWorker::Hello {
        proto: PROTO_VERSION,
        shard,
        workloads: config.workloads.clone(),
        max_insts: config.max_insts,
        artifact_dir: config.artifact_dir.display().to_string(),
    }
    .encode()
}

/// The state one grid run shares between its frame handler, dead-link
/// recovery, dispatch and the local fallback.
struct Coordinator<'a> {
    config: &'a GridConfig,
    /// The shared secret remote links authenticate with.
    net_token: String,
    /// The coordinator's session over [`GridConfig::artifact_dir`]: the
    /// store pass before any spawn, and the local fallback.
    session: Session,
    /// [`GridConfig::workloads`] resolved against the registry.
    workloads: Vec<&'static Workload>,
    /// Where remote results land.
    store: ArtifactStore,
    journal: Option<SweepJournal>,
    units: Vec<Unit>,
    workers: Vec<WorkerState>,
    /// What the coordinator settled before any worker ran: the journal's
    /// units, the store's units and unknown workloads.
    settled: SweepReport,
    /// One report per shard, then the local fallback's.
    shard_reports: Vec<SweepReport>,
    /// Units waiting for a shard, in dispatch order.
    pending: Vec<usize>,
    /// When links still open after `Shutdown` are killed; `None` until
    /// `Shutdown` goes out.
    shutdown_deadline: Option<Instant>,
    stats: GridStats,
}

impl Coordinator<'_> {
    /// Spawns local workers and dials remote daemons (shards `0..workers`,
    /// then one slot per host), opens every live session, and returns the
    /// channel all links report on. A failed spawn or connect leaves a
    /// dead placeholder so shard ids keep matching vector indices.
    fn connect(&mut self) -> Result<mpsc::Receiver<(usize, LinkEvent)>, GridError> {
        let config = self.config;
        let (tx, rx) = mpsc::channel();
        if config.workers > 0 {
            let cmd = match &config.worker_cmd {
                Some(cmd) => cmd.clone(),
                None => std::env::current_exe()
                    .map_err(|e| err(format!("cannot resolve current executable: {e}")))?,
            };
            for shard in 0..config.workers {
                let link = StdioLink::spawn(worker_command(&cmd, config), shard, &tx);
                self.add_shard(link, None, "spawn");
            }
        }
        for (hidx, host) in config.hosts.iter().enumerate() {
            let link = TcpLink::connect(
                &host.addr(),
                self.workers.len(),
                &self.net_token,
                config.net_faults.clone(),
                tx.clone(),
            );
            self.add_shard(link, Some(hidx), &format!("connect to {host}"));
        }
        for (shard, worker) in self.workers.iter_mut().enumerate() {
            if worker.alive {
                if let Err(e) = worker.link.send_line(&hello_line(config, shard)) {
                    eprintln!("[prism-grid] shard {shard}: hello failed: {e}");
                }
            }
        }
        self.shard_reports = (0..self.workers.len())
            .map(|_| SweepReport::default())
            .collect();
        Ok(rx)
    }

    fn add_shard<L: ShardLink + 'static>(
        &mut self,
        link: std::io::Result<L>,
        host: Option<usize>,
        what: &str,
    ) {
        let shard = self.workers.len();
        let (link, alive) = match link {
            Ok(link) => {
                self.stats.workers_spawned += 1;
                (Box::new(link) as Box<dyn ShardLink>, true)
            }
            Err(e) => {
                eprintln!("[prism-grid] shard {shard}: {what} failed: {e}");
                (Box::new(DeadLink::new(what)) as Box<dyn ShardLink>, false)
            }
        };
        self.workers.push(WorkerState {
            gen: link.generation(),
            reconnects_left: if link.is_remote() { LINK_RECONNECTS } else { 0 },
            link,
            alive,
            last_beat: Instant::now(),
            inflight: Vec::new(),
            host,
        });
    }

    /// The event loop, from the first `Assign` to the last link's `Eof`.
    /// Once every unit is settled or queued for local fallback it sends
    /// `Shutdown` once and keeps handling frames until each live link has
    /// delivered its `Eof` or [`SHUTDOWN_GRACE`] passes; links still open
    /// then are killed, every link is reaped, and whatever their readers
    /// forwarded meanwhile goes through the same handler.
    fn run(&mut self, rx: &mpsc::Receiver<(usize, LinkEvent)>) {
        loop {
            let wait = match self.shutdown_deadline {
                None => {
                    self.dispatch();
                    if self.units.iter().all(|u| u.resolved || u.local) {
                        self.shutdown();
                        continue;
                    }
                    SUPERVISION_TICK
                }
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() || !self.workers.iter().any(|w| w.alive) {
                        break;
                    }
                    left
                }
            };
            match rx.recv_timeout(wait) {
                Ok((shard, event)) => self.handle(shard, event),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Every link's reader is gone: mark all workers dead.
                    for shard in 0..self.workers.len() {
                        self.mark_dead(shard, "event channel disconnected");
                    }
                }
            }
            if self.shutdown_deadline.is_none() {
                self.check_heartbeats();
            }
        }
        for worker in &mut self.workers {
            if worker.alive {
                worker.link.kill();
            }
            worker.link.reap();
        }
        while let Ok((shard, event)) = rx.try_recv() {
            self.handle(shard, event);
        }
    }

    /// Fills every live worker's window with the least-loaded eligible
    /// shard, routing retries away from shards they already failed on;
    /// units with no eligible shard left queue for local evaluation.
    fn dispatch(&mut self) {
        for uid in std::mem::take(&mut self.pending) {
            let unit = &self.units[uid];
            if unit.resolved {
                continue;
            }
            let pick = self
                .workers
                .iter()
                .enumerate()
                .filter(|&(shard, w)| {
                    w.alive
                        && w.inflight.len() < self.config.window
                        && !unit.failed_on.contains(&shard)
                })
                .min_by_key(|(_, w)| w.inflight.len())
                .map(|(shard, _)| shard);
            let Some(shard) = pick else {
                let possible = self
                    .workers
                    .iter()
                    .enumerate()
                    .any(|(shard, w)| w.alive && !unit.failed_on.contains(&shard));
                if possible {
                    self.pending.push(uid); // workers busy; wait
                } else {
                    self.units[uid].local = true;
                }
                continue;
            };
            let msg = ToWorker::Assign {
                id: uid as u64,
                core: unit.core_name.clone(),
                bsas: unit.bsa_codes.clone(),
            }
            .encode();
            if self.workers[shard].link.send_line(&msg).is_ok() {
                self.workers[shard].inflight.push(uid);
            } else {
                // Write failure: the worker is dying; its Eof event will
                // handle the cleanup. Try again next round.
                self.pending.push(uid);
            }
        }
    }

    /// Sends `Shutdown` to every live link and starts the close deadline.
    fn shutdown(&mut self) {
        self.shutdown_deadline = Some(Instant::now() + SHUTDOWN_GRACE);
        for worker in self.workers.iter_mut().filter(|w| w.alive) {
            let _ = worker.link.send_line(&ToWorker::Shutdown.encode());
            worker.link.shutdown_input();
        }
    }

    /// The one handler for every inbound link event, before and after
    /// `Shutdown`.
    fn handle(&mut self, shard: usize, event: LinkEvent) {
        let (gen, line) = match event {
            LinkEvent::Line(gen, line) => (gen, Some(line)),
            LinkEvent::Eof(gen) => (gen, None),
        };
        if shard >= self.workers.len() || gen != self.workers[shard].gen {
            return; // stale connection generation
        }
        let Some(line) = line else {
            // After `Shutdown`, an Eof only closes its link.
            if self.shutdown_deadline.is_some() {
                self.workers[shard].alive = false;
            } else {
                self.mark_dead(shard, "link closed unexpectedly");
            }
            return;
        };
        self.workers[shard].last_beat = Instant::now();
        let msg = match FromWorker::decode(&line) {
            Ok(msg) => msg,
            Err(e) => {
                self.mark_dead(shard, &format!("garbled output: {e}"));
                return;
            }
        };
        let host = self.workers[shard].host;
        match msg {
            FromWorker::HelloAck { .. } | FromWorker::Heartbeat { .. } => {}
            FromWorker::Bye {
                walks,
                walks_skipped,
                shape_memo_hits,
                timing_artifacts_loaded,
            } => {
                fold_walk_stats(
                    &mut self.stats,
                    host,
                    walks,
                    walks_skipped,
                    shape_memo_hits,
                    timing_artifacts_loaded,
                );
            }
            FromWorker::UnitResult {
                id,
                result,
                artifacts,
            } => {
                // Kill point: the unit's artifact is durable in the
                // worker's store (it stored it before reporting) but
                // nothing is journaled yet — a resume must recompute
                // cheaply from that store, not lose the unit.
                crash_point(SITE_GRID_FRAME);
                let uid = id as usize;
                self.workers[shard].inflight.retain(|&u| u != uid);
                if self.workers[shard].link.is_remote() {
                    self.store_remote_result(shard, &result, &artifacts);
                }
                if uid < self.units.len() {
                    self.settle(uid, host, Ok(&result));
                }
                self.shard_reports[shard].results.push(result);
            }
            FromWorker::UnitQuarantine { id, key, error } => {
                crash_point(SITE_GRID_FRAME);
                if let Some(uid) = id.map(|id| id as usize) {
                    self.workers[shard].inflight.retain(|&u| u != uid);
                    if uid < self.units.len() && !self.units[uid].resolved {
                        let unit = &mut self.units[uid];
                        unit.attempts += 1;
                        unit.failed_on.push(shard);
                        if unit.attempts <= self.config.shard_retries {
                            self.stats.units_retried += 1;
                            self.pending.push(uid);
                        } else {
                            self.settle(uid, host, Err(&error));
                        }
                    }
                }
                self.shard_reports[shard].quarantined.push((key, error));
            }
            FromWorker::Fatal { message } => {
                self.mark_dead(shard, &format!("fatal: {message}"));
            }
        }
    }

    /// Settles `uid` with its final outcome, credits the remote `host`
    /// that produced it, and journals it; a unit already settled is left
    /// alone. Only a *permanent* quarantine comes here: a retry may still
    /// succeed, and a later `done` must win on replay.
    fn settle(
        &mut self,
        uid: usize,
        host: Option<usize>,
        outcome: Result<&DesignResult, &PipelineError>,
    ) {
        let unit = &mut self.units[uid];
        if unit.resolved {
            return;
        }
        unit.resolved = true;
        if let Some(h) = host {
            self.stats.hosts[h].units += 1;
        }
        if let Some(journal) = &self.journal {
            let appended = match outcome {
                Ok(result) => journal.append_done(&unit.label, result),
                Err(error) => journal.append_quarantined(&unit.label, error),
            };
            if let Err(e) = appended {
                eprintln!("[prism-grid] journal append failed: {e}");
            }
        }
    }

    /// Stores a remote shard's result under the design-point key the
    /// shard named, unless the store already holds that key. Called
    /// before the unit is journaled, so a journaled remote result is in
    /// this store as a local one is; `encode_design_result` gives the
    /// bytes the shard stored.
    fn store_remote_result(&self, shard: usize, result: &DesignResult, artifacts: &[String]) {
        match artifacts.first().and_then(|key| ContentHash::from_hex(key)) {
            Some(key) if self.store.contains(&key) => {}
            Some(key) => self.store.save(&key, encode_design_result(result)),
            None => eprintln!(
                "[prism-grid] shard {shard}: result {} names no design-point key",
                result.label
            ),
        }
    }

    /// Heartbeat supervision: a silent worker is dead, and its in-flight
    /// units must not be lost.
    fn check_heartbeats(&mut self) {
        let timeout = self.config.heartbeat_timeout;
        for shard in 0..self.workers.len() {
            if self.workers[shard].alive && self.workers[shard].last_beat.elapsed() > timeout {
                self.mark_dead(shard, &format!("no heartbeat for {timeout:?}"));
            }
        }
    }

    /// Marks a shard dead, reassigns its unresolved in-flight units
    /// (leaving a synthetic quarantine entry each, so a later success
    /// surfaces as `recovered`), and — before `Shutdown`, for remote links
    /// with attempts left — tries to reconnect and open a fresh session.
    fn mark_dead(&mut self, shard: usize, reason: &str) {
        let w = &mut self.workers[shard];
        if !w.alive {
            return;
        }
        eprintln!("[prism-grid] shard {shard}: {reason}");
        w.alive = false;
        w.link.kill();
        self.stats.workers_died += 1;
        for uid in std::mem::take(&mut w.inflight) {
            if self.units[uid].resolved {
                continue;
            }
            self.stats.units_reassigned += 1;
            if let Some(h) = w.host {
                self.stats.hosts[h].recoveries += 1;
            }
            let label = &self.units[uid].label;
            self.shard_reports[shard].quarantined.push((
                label.clone(),
                PipelineError::new(
                    label,
                    Stage::Evaluate,
                    "worker died with unit in flight; reassigned",
                ),
            ));
            self.pending.push(uid);
        }
        if self.shutdown_deadline.is_none() && w.link.is_remote() && w.reconnects_left > 0 {
            w.reconnects_left -= 1;
            match w.link.reconnect() {
                Ok(gen) => {
                    w.gen = gen;
                    if w.link.send_line(&hello_line(self.config, shard)).is_ok() {
                        w.alive = true;
                        w.last_beat = Instant::now();
                        if let Some(h) = w.host {
                            self.stats.hosts[h].reconnects += 1;
                        }
                        eprintln!(
                            "[prism-grid] shard {shard}: reconnected ({})",
                            w.link.describe()
                        );
                    }
                }
                Err(e) => eprintln!("[prism-grid] shard {shard}: reconnect failed: {e}"),
            }
        }
    }

    /// Evaluates in-process every unit no worker could take (and no late
    /// frame settled), journaling each outcome through [`Self::settle`].
    fn run_local_fallback(&mut self) {
        let local: Vec<usize> = (0..self.units.len())
            .filter(|&uid| self.units[uid].local && !self.units[uid].resolved)
            .collect();
        if local.is_empty() {
            return;
        }
        let mut report = SweepReport::default();
        for uid in local {
            let unit = &self.units[uid];
            let unit_report = evaluate_unit(
                &self.session,
                &self.workloads,
                &self.config.cores[unit.core_idx],
                &self.config.subsets[unit.subset_idx],
            );
            let label = &unit.label;
            let outcome = match unit_report.results.first() {
                Some(result) => Some(Ok(result)),
                None => unit_report
                    .quarantined
                    .iter()
                    .find(|(k, _)| k == label)
                    .map(|(_, e)| Err(e)),
            };
            if let Some(outcome) = outcome {
                self.settle(uid, None, outcome);
            }
            report.merge(unit_report);
            self.stats.local_fallback_units += 1;
        }
        let local_stats = self.session.stats();
        fold_walk_stats(
            &mut self.stats,
            None,
            local_stats.trace_walks,
            local_stats.walks_skipped,
            local_stats.shape_memo_hits,
            local_stats.timing_artifacts_loaded,
        );
        self.shard_reports.push(report);
    }

    /// Merges the settled and per-shard reports. A finished sweep with no
    /// permanent quarantines has nothing left to resume; one *with*
    /// quarantines keeps its journal so a `--resume` replays the
    /// identical errors instead of re-running known-bad units.
    fn finish(self) -> GridOutcome {
        let mut merged = self.settled;
        for report in self.shard_reports {
            merged.merge(report);
        }
        merged.normalize();
        if let Some(journal) = self.journal {
            if merged.quarantined.is_empty() {
                if let Err(e) = journal.remove() {
                    eprintln!("[prism-grid] could not remove finished journal: {e}");
                }
            }
        }
        GridOutcome {
            report: merged,
            stats: self.stats,
        }
    }
}

/// The tracer every shard runs with.
fn tracer_for(config: &GridConfig) -> TracerConfig {
    TracerConfig {
        max_insts: config.max_insts,
        ..TracerConfig::default()
    }
}

/// Runs the sharded sweep: replays the sweep journal, settles the units
/// the coordinator's store already holds, spawns local workers and
/// connects remote daemons for the rest, streams assignments with a small
/// per-worker window (so prepare overlaps evaluate), supervises by
/// heartbeat, retries quarantined units on a different shard, reassigns
/// the in-flight units of dead workers (reconnecting remote links),
/// stores each remote result under the key its shard names, falls back to
/// in-process evaluation when no eligible worker remains, and merges
/// every shard's report. When the journal and the store settle every
/// unit, nothing is spawned or dialed.
///
/// # Errors
///
/// Returns a [`GridError`] only when the run cannot start (zero workers
/// and zero hosts configured, an environment that does not parse, no
/// worker executable); anything that fails *during* the run quarantines
/// units instead.
pub fn run_grid(config: &GridConfig) -> Result<GridOutcome, GridError> {
    if config.workers == 0 && config.hosts.is_empty() {
        return Err(err("at least one worker or host is required"));
    }
    // The net token and the coordinator's session settings come from the
    // environment; a `GridConfig` describes only the sweep.
    let env = Config::from_env().map_err(|e| err(e.to_string()))?;
    // Opening the session reclaims tmp files orphaned by killed runs
    // (never a live process's, never younger than the safety window).
    let session = Session::from_config(&Config {
        artifact_dir: config.artifact_dir.clone(),
        ..env.clone()
    })
    .with_tracer(tracer_for(config));

    // The workload set, resolved once: an unknown name is one
    // whole-workload quarantine, however many workers report it too.
    let mut settled = SweepReport::default();
    let mut workloads: Vec<&'static Workload> = Vec::with_capacity(config.workloads.len());
    for name in &config.workloads {
        match prism_workloads::by_name(name) {
            Some(w) => workloads.push(w),
            None => settled.quarantined.push((
                format!("workload:{name}"),
                PipelineError::new(name, Stage::Build, "unknown workload"),
            )),
        }
    }

    // The unit space, in the same core-major order as `explore_grid`.
    let mut units: Vec<Unit> = Vec::with_capacity(config.cores.len() * config.subsets.len());
    for (core_idx, core) in config.cores.iter().enumerate() {
        for (subset_idx, subset) in config.subsets.iter().enumerate() {
            units.push(Unit {
                label: DesignPoint::new(core.clone(), subset.clone()).label(),
                core_idx,
                subset_idx,
                core_name: core.name.clone(),
                bsa_codes: subset.iter().map(|b| b.code()).collect(),
                attempts: 0,
                failed_on: Vec::new(),
                resolved: false,
                local: false,
            });
        }
    }
    let mut stats = GridStats {
        units_total: units.len(),
        gc_reclaimed_bytes: session.stats().artifacts.gc_reclaimed_bytes,
        hosts: config
            .hosts
            .iter()
            .map(|host| HostStats {
                addr: host.to_string(),
                ..HostStats::default()
            })
            .collect(),
        ..GridStats::default()
    };

    // Sweep journal: derived from the exact same inputs a single-process
    // `Session` sweep uses, so `prism explore` and `prism grid` over the
    // same space share one journal file. Units the journal records as
    // settled are resolved up front and never assigned to a worker.
    let wl_sizes: Vec<(String, u32)> = workloads
        .iter()
        .map(|w| (w.name.to_string(), w.scaled_n()))
        .collect();
    let sweep = sweep_key(
        &wl_sizes,
        &tracer_for(config),
        &config.cores,
        &config.subsets,
    );
    let (journal, replay) = match SweepJournal::open(&config.artifact_dir, &sweep, config.resume) {
        Ok((journal, replay)) => (Some(journal), replay),
        Err(e) => {
            eprintln!("[prism-grid] journal unavailable ({e}); sweep will not be resumable");
            (None, JournalReplay::default())
        }
    };
    for unit in &mut units {
        if let Some(result) = replay.done.get(&unit.label) {
            settled.results.push(result.clone());
        } else if let Some(error) = replay.quarantined.get(&unit.label) {
            settled
                .quarantined
                .push((unit.label.clone(), error.clone()));
        } else {
            continue;
        }
        unit.resolved = true;
        stats.resumed += 1;
    }
    stats.replayed = replay.records as usize;
    if replay.dropped > 0 {
        eprintln!(
            "[prism-grid] journal: dropped {} torn/corrupt trailing record(s)",
            replay.dropped
        );
    }

    // Explore's fast path: the units the store holds under the full
    // workload set are settled here and never assigned.
    let skip: Vec<bool> = units.iter().map(|u| u.resolved).collect();
    let cached = session.cached_designs(&workloads, &config.cores, &config.subsets, &skip);
    for (unit, result) in units.iter_mut().zip(cached) {
        if let Some(result) = result {
            settled.results.push(result);
            unit.resolved = true;
            stats.cached += 1;
        }
    }

    let mut coord = Coordinator {
        config,
        net_token: env.net_token,
        session,
        workloads,
        store: ArtifactStore::new(&config.artifact_dir),
        journal,
        pending: (0..units.len())
            .filter(|&uid| !units[uid].resolved)
            .collect(),
        units,
        workers: Vec::new(),
        settled,
        shard_reports: Vec::new(),
        shutdown_deadline: None,
        stats,
    };
    if !coord.pending.is_empty() {
        let rx = coord.connect()?;
        coord.run(&rx);
        coord.run_local_fallback();
    }
    Ok(coord.finish())
}

/// Adds one session's timing-reuse counters to the run totals and, for a
/// remote shard, to its per-host breakdown.
fn fold_walk_stats(
    stats: &mut GridStats,
    host: Option<usize>,
    walks: u64,
    walks_skipped: u64,
    shape_memo_hits: u64,
    timing_artifacts_loaded: u64,
) {
    stats.walks += walks;
    stats.walks_skipped += walks_skipped;
    stats.shape_memo_hits += shape_memo_hits;
    stats.timing_artifacts_loaded += timing_artifacts_loaded;
    if let Some(h) = host {
        stats.hosts[h].walks += walks;
        stats.hosts[h].walks_skipped += walks_skipped;
        stats.hosts[h].shape_memo_hits += shape_memo_hits;
        stats.hosts[h].timing_artifacts_loaded += timing_artifacts_loaded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_stats_render_names_every_counter() {
        let stats = GridStats {
            workers_spawned: 2,
            workers_died: 1,
            units_total: 64,
            cached: 21,
            units_retried: 3,
            units_reassigned: 4,
            local_fallback_units: 5,
            resumed: 6,
            replayed: 7,
            gc_reclaimed_bytes: 8,
            walks: 13,
            walks_skipped: 14,
            shape_memo_hits: 15,
            timing_artifacts_loaded: 16,
            hosts: vec![HostStats {
                addr: "10.0.0.9:7761".into(),
                units: 9,
                recoveries: 10,
                reconnects: 11,
                walks: 17,
                walks_skipped: 18,
                shape_memo_hits: 19,
                timing_artifacts_loaded: 20,
            }],
        };
        let text = stats.render();
        assert!(
            text.contains("64 total, 21 cached, 3 retried, 4 reassigned, 5 local"),
            "{text}"
        );
        assert!(text.contains("6 units resumed"), "{text}");
        assert!(text.contains("7 records replayed"), "{text}");
        assert!(text.contains("8 bytes reclaimed"), "{text}");
        assert!(
            text.contains(
                "13 performed, 14 skipped (15 shape-memo hits, 16 timing artifacts loaded)"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "host 10.0.0.9:7761 : 9 units, 10 recovered, 11 reconnects, \
                 17 walks, 18 skipped (19 shape-memo, 20 artifacts)"
            ),
            "{text}"
        );
    }
}
