//! The [`Session`]: the single entry point for the staged evaluation
//! pipeline `workload → Trace → ProgramIr → AccelPlans → evaluation`.
//!
//! A session owns an in-memory memo (prepared workloads, oracle tables,
//! trace-walk timings) and an on-disk [`ArtifactStore`] of design-point
//! results and timing summaries, all keyed by content hashes of every
//! input that affects the artifact. Stages invalidate independently:
//! changing the tracer config re-traces, changing only a core config
//! reuses every trace and recomputes only the affected oracle tables and
//! design points. Oracle tables and design points take their trace walks
//! from the same shape-keyed timing memo, so each distinct walk runs once
//! per store. An oracle table's walks are stored together, as one oracle
//! walk pack per (workload, core timing class); a design point's other
//! walks are stored one per file.
//!
//! All fan-out runs through [`parallel_map`], so results are reduced in
//! canonical (input-index) order and a `--jobs 1` run is bit-identical to a
//! `--jobs N` run.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use prism_exocore::{
    all_bsa_subsets, all_cores, oracle_assignments, oracle_pick, oracle_table_with, DesignPoint,
    DesignResult, OracleTable, WorkloadData, WorkloadMetrics,
};
use prism_sim::{SimSource, Trace, TraceSource, TracerConfig};
use prism_tdg::{price_exocore, run_exocore_timing, Assignment, BsaKind, ExoTiming};
use prism_udg::{CoreConfig, ExecBudget, NODES_PER_INST};
use prism_workloads::Workload;

use crate::codec::{
    decode_design_result, decode_exo_timing, decode_oracle_pack, encode_design_result,
    encode_exo_timing, encode_oracle_pack,
};
use crate::config::Config;
use crate::crash::{crash_point, SITE_UNIT_COMPLETE};
use crate::error::{PipelineError, Stage};
use crate::fault::FaultPlan;
use crate::hash::{ContentHash, Sha256};
use crate::journal::SweepLedger;
use crate::key::KeyBuilder;
use crate::par::parallel_map;
use crate::store::{ArtifactRole, ArtifactStore, StoreStats, GC_SAFETY_WINDOW};
use crate::sweep::SweepReport;

/// A workload prepared by a [`Session`]: its content key plus the shared
/// trace/IR/plans data. Dereferences to [`WorkloadData`].
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// Content hash of (workload name, build size, tracer config).
    pub key: ContentHash,
    /// The prepared trace, IR, and accelerator plans.
    pub data: Arc<WorkloadData>,
}

impl Deref for PreparedWorkload {
    type Target = WorkloadData;

    fn deref(&self) -> &WorkloadData {
        &self.data
    }
}

/// Timing artifacts a session wrote to its store: oracle walk packs and
/// design-point walks stored one per file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingWrites {
    /// Oracle walk packs, one per oracle table measured without one.
    pub packs: u64,
    /// Walks those packs hold.
    pub pack_walks: u64,
    /// Design-point walks stored on their own.
    pub walks: u64,
}

impl TimingWrites {
    /// Artifact files written: packs plus single walks.
    #[must_use]
    pub fn artifacts(&self) -> u64 {
        self.packs + self.walks
    }

    /// Walks the written artifacts hold.
    #[must_use]
    pub fn walks_held(&self) -> u64 {
        self.pack_walks + self.walks
    }
}

/// Aggregate cache counters for one session. Oracle tables have no
/// counter of their own: their walks are trace walks like any other, and
/// pricing them is negligible.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// On-disk artifact store counters.
    pub artifacts: StoreStats,
    /// In-memory memo hits (prepared workloads, oracle tables, timings).
    pub memo_hits: u64,
    /// In-memory memo misses.
    pub memo_misses: u64,
    /// Timing requests satisfied by the in-process µDG shape memo.
    pub shape_memo_hits: u64,
    /// Timing summaries loaded from the persistent artifact store
    /// instead of recomputed (a loaded pack counts each walk it holds).
    pub timing_artifacts_loaded: u64,
    /// Timing artifacts written to the store. Every one is a store miss
    /// and a store recompute, so `recomputes` minus
    /// [`artifacts`](TimingWrites::artifacts) counts design results.
    pub timing_written: TimingWrites,
    /// Trace walks avoided (shape-memo hits + timing artifacts loaded).
    pub walks_skipped: u64,
    /// Trace walks actually performed ([`run_exocore_timing`]), for
    /// oracle tables and design points alike.
    pub trace_walks: u64,
    /// Dynamic instructions those walks covered (the sum of each walked
    /// trace's length); with `udg_nanos`, the walks' throughput.
    pub walk_insts: u64,
    /// Dynamic instructions produced by the functional simulator.
    pub sim_insts: u64,
    /// Busy nanoseconds spent producing them, summed over worker threads
    /// (like every `*_nanos` stage counter: with `--jobs N` the sum can
    /// exceed the sweep's elapsed wall time).
    pub sim_nanos: u64,
    /// Busy nanoseconds, summed over threads, spent in trace walks
    /// ([`run_exocore_timing`]) — the only µDG timing work a sweep does;
    /// memo hits and loaded timing artifacts add nothing.
    pub udg_nanos: u64,
    /// Busy nanoseconds, summed over threads, spent in IR reconstruction +
    /// accelerator analysis ([`WorkloadData::from_trace`]).
    pub transform_nanos: u64,
    /// Units settled from a sweep-journal replay instead of recomputed
    /// (completed *and* quarantined units both count).
    pub resumed: u64,
    /// Journal records read during resume replays.
    pub replayed: u64,
}

impl SessionStats {
    /// Simulator throughput in instructions per second (0 when nothing
    /// was simulated).
    #[must_use]
    pub fn insts_per_sec(&self) -> f64 {
        per_sec(self.sim_insts, self.sim_nanos)
    }

    /// Trace-walk throughput in walked instructions per busy second (0
    /// when nothing was walked).
    #[must_use]
    pub fn walk_insts_per_sec(&self) -> f64 {
        per_sec(self.walk_insts, self.udg_nanos)
    }

    /// Renders the counters as a human-readable block (for `--stats`).
    #[must_use]
    pub fn render(&self) -> String {
        let a = &self.artifacts;
        format!(
            "-- session stats --\n\
             artifact store : {} hits, {} misses ({} discarded)\n\
             store I/O      : {} retries, {} errors\n\
             recomputes     : {}\n\
             memo           : {} hits, {} misses\n\
             trace walks    : {} performed, {} skipped \
             ({} shape-memo hits, {} timing artifacts loaded)\n\
             timing artifacts : {} written ({} oracle packs holding {} walks, {} walks)\n\
             sim throughput : {} insts in {} ms ({:.0} insts/sec)\n\
             walk throughput : {} insts in {} ms ({:.0} insts/sec)\n\
             stage busy     : sim {} ms, uDG {} ms, transforms {} ms \
             (summed over threads)\n\
             journal        : {} units resumed, {} records replayed\n\
             tmp-file GC    : {} bytes reclaimed\n",
            a.hits,
            a.misses,
            a.discarded,
            a.io_retries,
            a.io_errors,
            a.recomputes,
            self.memo_hits,
            self.memo_misses,
            self.trace_walks,
            self.walks_skipped,
            self.shape_memo_hits,
            self.timing_artifacts_loaded,
            self.timing_written.artifacts(),
            self.timing_written.packs,
            self.timing_written.pack_walks,
            self.timing_written.walks,
            self.sim_insts,
            self.sim_nanos / 1_000_000,
            self.insts_per_sec(),
            self.walk_insts,
            self.udg_nanos / 1_000_000,
            self.walk_insts_per_sec(),
            self.sim_nanos / 1_000_000,
            self.udg_nanos / 1_000_000,
            self.transform_nanos / 1_000_000,
            self.resumed,
            self.replayed,
            a.gc_reclaimed_bytes,
        )
    }
}

/// `count` per second of `nanos` (0 when `nanos` is 0).
fn per_sec(count: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        return 0.0;
    }
    count as f64 / (nanos as f64 / 1e9)
}

/// Renders a caught panic payload as text (the common `&str` / `String`
/// payloads; anything else becomes a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Attributes a caught panic to a stage by its message, falling back to
/// `default` (injected panics name their stage; real panics usually
/// don't).
fn panic_stage(message: &str, default: Stage) -> Stage {
    for (needle, stage) in [
        ("build stage", Stage::Build),
        ("trace stage", Stage::Trace),
        ("analyze stage", Stage::Analyze),
        ("plan stage", Stage::Plan),
        ("evaluate stage", Stage::Evaluate),
        ("store stage", Stage::Store),
    ] {
        if message.contains(needle) {
            return stage;
        }
    }
    default
}

/// The `assigned` label of a walk: its (loop, BSA) pairs in loop order, as
/// a shape key hashes them and an oracle walk pack lists them.
fn assigned_label(assignment: &Assignment) -> String {
    let mut pairs: Vec<_> = assignment.map.iter().map(|(&l, &k)| (l, k)).collect();
    pairs.sort_unstable();
    pairs
        .iter()
        .map(|(l, k)| format!("{l}={};", k.code()))
        .collect()
}

/// One shape key's slot in the session's timing memo: filled once, by the
/// first request, while concurrent requests for the same key wait.
type TimingCell = Arc<OnceLock<Arc<ExoTiming>>>;

/// The pipeline session: memoized stages + content-addressed artifacts +
/// deterministic parallelism.
#[derive(Debug)]
pub struct Session {
    tracer: TracerConfig,
    jobs: usize,
    store: ArtifactStore,
    store_cap: Option<u64>,
    faults: Option<Arc<FaultPlan>>,
    budget: ExecBudget,
    workloads: Mutex<HashMap<ContentHash, Arc<WorkloadData>>>,
    tables: Mutex<HashMap<ContentHash, Arc<OracleTable>>>,
    timings: Mutex<HashMap<ContentHash, TimingCell>>,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    shape_memo_hits: AtomicU64,
    timing_artifacts_loaded: AtomicU64,
    packs_written: AtomicU64,
    pack_walks_written: AtomicU64,
    walks_written: AtomicU64,
    walks_skipped: AtomicU64,
    trace_walks: AtomicU64,
    walk_insts: AtomicU64,
    sim_insts: AtomicU64,
    sim_nanos: AtomicU64,
    udg_nanos: AtomicU64,
    transform_nanos: AtomicU64,
    resumed: AtomicU64,
    replayed: AtomicU64,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// Creates a session from the environment ([`Config::from_env`]).
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::ConfigError) text when the
    /// environment does not parse: a malformed value, or a `PRISM_*`
    /// variable prism does not read (a retired or misspelt knob must not
    /// silently stop doing what it used to do). Front ends resolve the
    /// config themselves and exit 2 instead.
    #[must_use]
    pub fn new() -> Self {
        Session::from_config(&Config::from_env().unwrap_or_else(|e| panic!("{e}")))
    }

    /// Creates a session from a resolved configuration: default tracer
    /// config, `config.jobs` workers, artifacts under
    /// `config.artifact_dir`, a fresh fault plan from `config.faults`, a
    /// node budget from `config.max_nodes` and the store cap.
    #[must_use]
    pub fn from_config(config: &Config) -> Self {
        let faults = config.fault_plan();
        let mut store = ArtifactStore::new(&config.artifact_dir);
        store.set_faults(faults.clone());
        store.set_cap(config.store_cap);
        // Opportunistic repair: sweep out tmp files leaked by long-dead
        // writers. The safety window plus live-pid check make this safe
        // against concurrent sessions sharing the store.
        store.gc_tmp_files(GC_SAFETY_WINDOW);
        Session {
            tracer: TracerConfig::default(),
            jobs: config.jobs,
            store,
            store_cap: config.store_cap,
            faults,
            budget: config
                .max_nodes
                .map_or_else(ExecBudget::unlimited, ExecBudget::new),
            workloads: Mutex::new(HashMap::new()),
            tables: Mutex::new(HashMap::new()),
            timings: Mutex::new(HashMap::new()),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            shape_memo_hits: AtomicU64::new(0),
            timing_artifacts_loaded: AtomicU64::new(0),
            packs_written: AtomicU64::new(0),
            pack_walks_written: AtomicU64::new(0),
            walks_written: AtomicU64::new(0),
            walks_skipped: AtomicU64::new(0),
            trace_walks: AtomicU64::new(0),
            walk_insts: AtomicU64::new(0),
            sim_insts: AtomicU64::new(0),
            sim_nanos: AtomicU64::new(0),
            udg_nanos: AtomicU64::new(0),
            transform_nanos: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
        }
    }

    /// Replaces the tracer configuration (stage-1 cache key input).
    #[must_use]
    pub fn with_tracer(mut self, tracer: TracerConfig) -> Self {
        self.tracer = tracer;
        self
    }

    /// Overrides the worker count (e.g. from a `--jobs` flag).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Redirects the on-disk artifact store.
    #[must_use]
    pub fn with_store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = ArtifactStore::new(dir);
        self.store.set_faults(self.faults.clone());
        self.store.set_cap(self.store_cap);
        self.store.gc_tmp_files(GC_SAFETY_WINDOW);
        self
    }

    /// Caps the artifact store at a byte budget with LRU eviction
    /// ([`ArtifactStore::enforce_cap`]); `None` uncaps. Overrides
    /// `PRISM_STORE_CAP`. Survives a later
    /// [`with_store_dir`](Session::with_store_dir).
    #[must_use]
    pub fn with_store_cap(mut self, cap_bytes: Option<u64>) -> Self {
        self.store_cap = cap_bytes;
        self.store.set_cap(cap_bytes);
        self
    }

    /// Installs (or, with `None`, clears) a fault-injection plan, shared
    /// with the artifact store. Overrides `PRISM_FAULTS`.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.store.set_faults(faults.clone());
        self.faults = faults;
        self
    }

    /// Caps every evaluation unit (oracle table, design point) at an
    /// execution budget. Overrides `PRISM_MAX_NODES`.
    #[must_use]
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.budget = budget;
        self
    }

    /// A no-op, kept only so existing callers still build: the runtime
    /// µDG-vs-reference guard is gone, and only `None` fits the argument.
    /// `tests/model_validation.rs` holds the µDG to the reference
    /// simulator instead.
    #[must_use]
    pub fn with_divergence_guard(self, _guard: Option<std::convert::Infallible>) -> Self {
        self
    }

    /// A no-op, kept only so existing callers still build: traces are
    /// always re-simulated and never stored, whatever the argument says.
    #[must_use]
    pub fn with_streaming(self, _streaming: bool) -> Self {
        self
    }

    /// The session's worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The session's tracer configuration.
    #[must_use]
    pub fn tracer(&self) -> &TracerConfig {
        &self.tracer
    }

    /// The session's artifact store, with its fault plan and cap.
    #[must_use]
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The content key of a registered workload at size `n` under this
    /// session's tracer config — computable without preparing anything.
    #[must_use]
    pub fn workload_key(&self, name: &str, n: u32) -> ContentHash {
        let mut kb = KeyBuilder::new("workload");
        kb.field("name", name);
        kb.field("n", n);
        kb.tracer(&self.tracer);
        kb.finish()
    }

    /// The content key of one design point over an ordered workload set.
    #[must_use]
    pub fn design_point_key(
        &self,
        workload_keys: &[ContentHash],
        core: &CoreConfig,
        bsas: &[BsaKind],
    ) -> ContentHash {
        let mut kb = KeyBuilder::new("design-result");
        kb.field("workloads", workload_keys.len());
        for (i, key) in workload_keys.iter().enumerate() {
            kb.hash_field(&format!("workload.{i}"), key);
        }
        kb.core(core);
        kb.bsas(bsas);
        kb.finish()
    }

    fn memo_workload(
        &self,
        key: ContentHash,
        name: &str,
        build: impl FnOnce() -> prism_isa::Program,
    ) -> Result<PreparedWorkload, PipelineError> {
        // Poison recovery: the memo holds plain data, so a panic in some
        // other thread that happened to hold the lock cannot have left it
        // half-updated — recover the guard instead of cascading the panic.
        if let Some(data) = self
            .workloads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
        {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(PreparedWorkload {
                key,
                data: Arc::clone(data),
            });
        }
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(f) = &self.faults {
            f.maybe_panic(Stage::Build, name);
        }
        let program = build();
        if let Some(f) = &self.faults {
            f.maybe_panic(Stage::Trace, name);
            if f.truncate_trace(name) {
                return Err(PipelineError::new(
                    name,
                    Stage::Trace,
                    format!(
                        "injected fault: trace truncated before {} instructions",
                        self.tracer.max_insts
                    ),
                ));
            }
        }
        let trace = self.record_trace(&program, name)?;
        let started = std::time::Instant::now();
        let data = Arc::new(WorkloadData::from_trace(trace));
        self.transform_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.workloads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, Arc::clone(&data));
        Ok(PreparedWorkload { key, data })
    }

    /// Records `program`'s trace chunk-by-chunk from the streaming
    /// simulator, applying per-chunk fault injection (`{name}:chunk{i}`
    /// sites), and assembles the chunks into one in-memory `Trace`.
    /// Traces are never stored: re-simulating one is cheaper than reading
    /// it back (DESIGN.md §9).
    fn record_trace(
        &self,
        program: &prism_isa::Program,
        name: &str,
    ) -> Result<Trace, PipelineError> {
        let mut source =
            SimSource::new(program, &self.tracer).map_err(|e| PipelineError::trace(name, &e))?;
        let started = std::time::Instant::now();
        let mut insts = Vec::new();
        let mut stats = prism_sim::TraceStats::default();
        loop {
            let chunk = match source.next_chunk() {
                Ok(Some(c)) => c,
                Ok(None) => break,
                Err(e) => return Err(PipelineError::trace(name, &e)),
            };
            if let Some(f) = &self.faults {
                if f.truncate_trace(&format!("{name}:chunk{}", chunk.index)) {
                    return Err(PipelineError::new(
                        name,
                        Stage::Trace,
                        format!("injected fault: trace truncated at chunk {}", chunk.index),
                    ));
                }
            }
            stats = chunk.stats;
            let last = chunk.last;
            insts.extend(chunk.insts);
            if last {
                break;
            }
        }
        self.sim_insts.fetch_add(stats.insts, Ordering::Relaxed);
        self.sim_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(Trace {
            program: program.clone(),
            insts,
            stats,
        })
    }

    /// Prepares a registered workload at its default size, multiplied by
    /// the `PRISM_SCALE` knob ([`prism_workloads::scale`]).
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] naming the workload and failing stage.
    pub fn prepare(&self, workload: &Workload) -> Result<PreparedWorkload, PipelineError> {
        self.prepare_sized(workload, workload.scaled_n())
    }

    /// Prepares a registered workload at an explicit size.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] naming the workload and failing stage.
    pub fn prepare_sized(
        &self,
        workload: &Workload,
        n: u32,
    ) -> Result<PreparedWorkload, PipelineError> {
        let key = self.workload_key(workload.name, n);
        self.memo_workload(key, workload.name, || (workload.build)(n))
    }

    /// Prepares an ad-hoc program (keyed by a content hash of the program
    /// itself, so two identical programs share one preparation).
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] naming the program and failing stage.
    pub fn prepare_program(
        &self,
        program: &prism_isa::Program,
    ) -> Result<PreparedWorkload, PipelineError> {
        let mut h = Sha256::new();
        h.update_str(&format!("{program:?}"));
        let mut kb = KeyBuilder::new("program");
        kb.hash_field("program", &h.finish());
        kb.tracer(&self.tracer);
        let key = kb.finish();
        self.memo_workload(key, &program.name, || program.clone())
    }

    /// Prepares a batch of workloads in parallel, preserving input order.
    ///
    /// # Errors
    ///
    /// Returns the first failure in input order.
    pub fn prepare_batch(
        &self,
        workloads: &[&Workload],
    ) -> Result<Vec<PreparedWorkload>, PipelineError> {
        parallel_map(workloads, self.jobs, |_, w| self.prepare(w))
            .into_iter()
            .collect()
    }

    /// The oracle table for `workload` on `core`'s base configuration,
    /// memoized per (workload key, core) and metered against the session's
    /// execution budget. Its walks (the baseline and every candidate, in
    /// [`oracle_assignments`] order) come from the session's shape-keyed
    /// timing memo, so design points share them. They are stored together
    /// as one **oracle walk pack** per (workload, core timing class): a
    /// table whose pack is stored is rebuilt by pricing alone, and one
    /// without walks through the memo and stores its pack once. A pack
    /// whose `assigned` labels differ from the table's is a miss.
    ///
    /// # Errors
    ///
    /// Returns a budget-kind [`PipelineError`] when the table cannot be
    /// measured within the session's [`ExecBudget`].
    pub fn oracle_table(
        &self,
        workload: &PreparedWorkload,
        core: &CoreConfig,
    ) -> Result<Arc<OracleTable>, PipelineError> {
        let mut kb = KeyBuilder::new("oracle-table");
        kb.hash_field("workload", &workload.key);
        kb.core(core);
        let key = kb.finish();
        if let Some(table) = self
            .tables
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
        {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(table));
        }
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        let labels: Vec<String> = oracle_assignments(&workload.data)
            .iter()
            .map(assigned_label)
            .collect();
        let mut kb = KeyBuilder::new("oracle-walks");
        kb.hash_field("workload", &workload.key);
        kb.core_timing(core);
        let pack_key = kb.finish();
        let stored: Option<Vec<Arc<ExoTiming>>> = self
            .store
            .load(&pack_key)
            .and_then(|payload| decode_oracle_pack(&payload, &labels))
            .map(|pack| pack.into_iter().map(Arc::new).collect());
        // The walks in request order; on a hit, its length indexes the pack.
        let walks = RefCell::new(Vec::with_capacity(labels.len()));
        let table = oracle_table_with(&workload.data, core, &self.budget, |assignment| {
            debug_assert_eq!(assigned_label(assignment), labels[walks.borrow().len()]);
            let key = self.shape_key(workload, core, assignment);
            let timing = self.memo_timing(key, || match &stored {
                Some(pack) => self.loaded(Arc::clone(&pack[walks.borrow().len()])),
                None => self.walk(workload, core, assignment),
            });
            walks.borrow_mut().push(Arc::clone(&timing));
            timing
        })
        .map_err(|e| PipelineError::budget(&workload.name, &e))?;
        if stored.is_none() {
            let walks = walks.into_inner();
            let pack = labels
                .iter()
                .map(String::as_str)
                .zip(walks.iter().map(|t| &**t));
            self.store
                .put(&pack_key, encode_oracle_pack(pack), ArtifactRole::Cache);
            self.packs_written.fetch_add(1, Ordering::Relaxed);
            self.pack_walks_written
                .fetch_add(walks.len() as u64, Ordering::Relaxed);
        }
        let table = Arc::new(table);
        self.tables
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, Arc::clone(&table));
        Ok(table)
    }

    /// The canonical **µDG shape key** of one trace-walk timing: a
    /// [`ContentHash`] over exactly what the walk reads — workload trace
    /// identity, the core's [timing class](CoreConfig::timing_class)
    /// (display name and SIMD presence excluded, so variants differing
    /// only in priced parameters share one walk) and the sorted transform
    /// assignment. The execution budget is charged before the walk is
    /// requested, not read by it. The in-process timing memo and the
    /// design-point timing artifacts are keyed by it.
    #[must_use]
    pub fn shape_key(
        &self,
        workload: &PreparedWorkload,
        core: &CoreConfig,
        assignment: &Assignment,
    ) -> ContentHash {
        let mut kb = KeyBuilder::new("exo-timing-shape");
        kb.hash_field("workload", &workload.key);
        kb.core_timing(core);
        kb.field("assigned", assigned_label(assignment));
        kb.finish()
    }

    /// The memoized timing of shape `key`, filled by `fill` on the first
    /// request while concurrent requests for the key wait. Counts against
    /// the session's memo and shape-memo stats.
    fn memo_timing(
        &self,
        key: ContentHash,
        fill: impl FnOnce() -> Arc<ExoTiming>,
    ) -> Arc<ExoTiming> {
        let cell = Arc::clone(
            self.timings
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entry(key)
                .or_default(),
        );
        let mut filled = false;
        let timing = cell.get_or_init(|| {
            filled = true;
            self.memo_misses.fetch_add(1, Ordering::Relaxed);
            fill()
        });
        if !filled {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            self.shape_memo_hits.fetch_add(1, Ordering::Relaxed);
            self.walks_skipped.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(timing)
    }

    /// Counts `timing` as loaded from the store instead of walked.
    fn loaded(&self, timing: Arc<ExoTiming>) -> Arc<ExoTiming> {
        self.timing_artifacts_loaded.fetch_add(1, Ordering::Relaxed);
        self.walks_skipped.fetch_add(1, Ordering::Relaxed);
        timing
    }

    /// One trace walk ([`run_exocore_timing`]), counted in the walk stats
    /// and the µDG stage busy time.
    fn walk(
        &self,
        workload: &PreparedWorkload,
        core: &CoreConfig,
        assignment: &Assignment,
    ) -> Arc<ExoTiming> {
        let started = std::time::Instant::now();
        let timing = Arc::new(run_exocore_timing(
            &workload.trace,
            &workload.ir,
            core,
            &workload.plans,
            assignment,
        ));
        self.udg_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.trace_walks.fetch_add(1, Ordering::Relaxed);
        self.walk_insts
            .fetch_add(workload.trace.len() as u64, Ordering::Relaxed);
        timing
    }

    /// A design point's trace-walk timing for (workload, core variant,
    /// assignment): the [shape-keyed](Session::shape_key) memo, else the
    /// walk stored under that key, else a walk stored there. The oracle
    /// table's walks are always in the memo by then, so only a design
    /// point's multi-loop assignments reach the store. A corrupt or stale
    /// stored timing degrades to a recompute (the store validates on load,
    /// the decoder is strict).
    fn exo_timing(
        &self,
        workload: &PreparedWorkload,
        core: &CoreConfig,
        assignment: &Assignment,
    ) -> Arc<ExoTiming> {
        let key = self.shape_key(workload, core, assignment);
        self.memo_timing(key, || {
            if let Some(timing) = self
                .store
                .load(&key)
                .and_then(|payload| decode_exo_timing(&payload))
            {
                return self.loaded(Arc::new(timing));
            }
            let timing = self.walk(workload, core, assignment);
            self.store
                .put(&key, encode_exo_timing(&timing), ArtifactRole::Cache);
            self.walks_written.fetch_add(1, Ordering::Relaxed);
            timing
        })
    }

    fn evaluate_point(
        &self,
        data: &[PreparedWorkload],
        core: &CoreConfig,
        bsas: &[BsaKind],
    ) -> Result<DesignResult, PipelineError> {
        let point = DesignPoint::new(core.clone(), bsas.to_vec());
        if let Some(f) = &self.faults {
            f.maybe_panic(Stage::Evaluate, &point.label());
        }
        // One fuel meter per design point: every combined-TDG run charges
        // the µDG nodes it would place — also when a memo hit skips the
        // walk, so budget semantics never depend on the cache.
        let mut meter = self.budget.meter();
        let mut per_workload = Vec::with_capacity(data.len());
        for w in data {
            let table = self.oracle_table(w, core)?;
            let assignment = oracle_pick(&table, &w.data, &point.bsas);
            meter
                .charge((w.trace.len() as u64).saturating_mul(NODES_PER_INST))
                .map_err(|e| PipelineError::budget(&w.name, &e))?;
            for &kind in assignment.map.values() {
                assert!(
                    point.bsas.contains(&kind),
                    "assignment to absent accelerator {kind}"
                );
            }
            let timing = self.exo_timing(w, &point.core, &assignment);
            let run = price_exocore(&timing, &point.core, &point.bsas);
            per_workload.push(WorkloadMetrics::from_run(&run, &w.name));
        }
        Ok(DesignResult {
            label: point.label(),
            core: point.core.name.clone(),
            bsas: point.bsas.iter().map(|b| b.code()).collect(),
            area_mm2: point.area_mm2(),
            per_workload,
        })
    }

    /// [`Session::evaluate_point`] behind a panic boundary: a panicking
    /// model stage becomes a typed error attributed to this design point.
    fn evaluate_point_guarded(
        &self,
        data: &[PreparedWorkload],
        core: &CoreConfig,
        bsas: &[BsaKind],
    ) -> Result<DesignResult, PipelineError> {
        match catch_unwind(AssertUnwindSafe(|| self.evaluate_point(data, core, bsas))) {
            Ok(res) => res,
            Err(payload) => {
                let label = DesignPoint::new(core.clone(), bsas.to_vec()).label();
                let msg = panic_message(payload.as_ref());
                let stage = panic_stage(&msg, Stage::Evaluate);
                Err(PipelineError::panicked(label, stage, msg))
            }
        }
    }

    /// Prepares `workloads`, isolating failures: panicking or erroring
    /// workloads are returned as `(name, error)` instead of aborting the
    /// batch. The healthy preparations keep input order.
    pub fn prepare_quarantined(
        &self,
        workloads: &[&Workload],
    ) -> (Vec<PreparedWorkload>, Vec<(String, PipelineError)>) {
        let outcomes = parallel_map(workloads, self.jobs, |_, w| {
            catch_unwind(AssertUnwindSafe(|| self.prepare(w))).unwrap_or_else(|payload| {
                let msg = panic_message(payload.as_ref());
                let stage = panic_stage(&msg, Stage::Build);
                Err(PipelineError::panicked(w.name, stage, msg))
            })
        });
        let mut healthy = Vec::new();
        let mut failed = Vec::new();
        for (w, res) in workloads.iter().zip(outcomes) {
            match res {
                Ok(p) => healthy.push(p),
                Err(e) => failed.push((w.name.to_string(), e)),
            }
        }
        (healthy, failed)
    }

    /// Evaluates the grid points named by `missing` (indices in core-major
    /// order) with failure isolation, returning `(index, outcome)` pairs in
    /// input order. Fills the memo in one fan-out over (core, workload) —
    /// the oracle table, then the walks of that core's missing points —
    /// and evaluates and quarantines per point. `on_unit` runs inside the
    /// evaluation fan-out as each unit settles — the durability hook
    /// (store save + journal append) for callers that persist
    /// incrementally.
    fn run_points(
        &self,
        data: &[PreparedWorkload],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
        missing: &[usize],
        on_unit: &(dyn Fn(usize, &Result<DesignResult, PipelineError>) + Sync),
    ) -> Vec<(usize, Result<DesignResult, PipelineError>)> {
        // Cores that still have work (missing is sorted, so dedup works).
        let mut core_ids: Vec<usize> = missing.iter().map(|&i| i / subsets.len()).collect();
        core_ids.dedup();

        // Fill the memo over (core × workload): the oracle table, then the
        // walks the core's missing points need, so parallel point
        // evaluation only prices. Failures here resurface (typed) when the
        // point is evaluated.
        let pairs: Vec<(usize, usize)> = core_ids
            .iter()
            .flat_map(|&c| (0..data.len()).map(move |w| (c, w)))
            .collect();
        parallel_map(&pairs, self.jobs, |_, &(c, w)| {
            let _ = catch_unwind(AssertUnwindSafe(|| {
                let table = self.oracle_table(&data[w], &cores[c])?;
                for idx in missing.iter().filter(|&&i| i / subsets.len() == c) {
                    let point =
                        DesignPoint::new(cores[c].clone(), subsets[idx % subsets.len()].clone());
                    let assignment = oracle_pick(&table, &data[w].data, &point.bsas);
                    self.exo_timing(&data[w], &point.core, &assignment);
                }
                Ok::<_, PipelineError>(())
            }));
        });

        // Evaluate every missing point; tables and timings now come from
        // the memo.
        parallel_map(missing, self.jobs, |_, &idx| {
            let (c, s) = (idx / subsets.len(), idx % subsets.len());
            let res = self.evaluate_point_guarded(data, &cores[c], &subsets[s]);
            on_unit(idx, &res);
            (idx, res)
        })
    }

    /// Evaluates every (core × BSA-subset) design point over `data`,
    /// in canonical core-major order, isolating failures: points whose
    /// evaluation panics or blows the execution budget land in
    /// [`SweepReport::quarantined`] while every healthy point still
    /// produces a result. Oracle tables are measured once per (workload,
    /// base core) and shared across that core's subsets. Work is
    /// distributed over [`Session::jobs`] threads; the report (sorted by
    /// unit key) is independent of the job count.
    #[must_use]
    pub fn explore_grid(
        &self,
        data: &[PreparedWorkload],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
    ) -> SweepReport {
        let all: Vec<usize> = (0..cores.len() * subsets.len()).collect();
        let mut report = SweepReport::default();
        for (idx, res) in self.run_points(data, cores, subsets, &all, &|_, _| {}) {
            match res {
                Ok(r) => report.results.push(r),
                Err(e) => {
                    let (c, s) = (idx / subsets.len(), idx % subsets.len());
                    let label = DesignPoint::new(cores[c].clone(), subsets[s].clone()).label();
                    report.quarantined.push((label, e));
                }
            }
        }
        report.sort_units();
        report
    }

    /// The fault-isolated, artifact-backed design-space sweep: design
    /// points already on disk are loaded instead of recomputed, workloads
    /// are prepared (with quarantine) only if at least one point is
    /// missing, and every failure — workload preparation, stage panic,
    /// budget, store I/O — quarantines the smallest unit it affects
    /// instead of aborting the sweep. A fully cached run does no tracing
    /// at all.
    ///
    /// When workloads are quarantined, the surviving points are keyed (and
    /// cached) over the healthy workload subset, so their artifacts are
    /// distinct from full-set results and a later healthy run recomputes
    /// the full set.
    #[must_use]
    pub fn evaluate_designs(
        &self,
        workloads: &[&Workload],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
    ) -> SweepReport {
        self.evaluate_designs_inner(workloads, cores, subsets, None)
    }

    /// [`Session::evaluate_designs`] with a sweep journal: every settled
    /// unit is appended to an on-disk WAL, and with `resume` the existing
    /// journal is replayed first — journaled units are never recomputed,
    /// and the report is identical to an uninterrupted run. Journal I/O
    /// failures degrade to an unjournaled sweep with a warning; they never
    /// fail the sweep itself.
    #[must_use]
    pub fn evaluate_designs_resumable(
        &self,
        workloads: &[&Workload],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
        resume: bool,
    ) -> SweepReport {
        self.evaluate_designs_inner(workloads, cores, subsets, Some(resume))
    }

    /// The sweep behind both entry points, journaled through a
    /// [`SweepLedger`] opened with `resume` (`None`: no journal).
    fn evaluate_designs_inner(
        &self,
        workloads: &[&Workload],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
        resume: Option<bool>,
    ) -> SweepReport {
        let ledger = SweepLedger::open(
            self.store.dir(),
            workloads,
            &self.tracer,
            cores,
            subsets,
            resume,
        );
        // `settled[i]`: the journal already decided unit i (done or
        // quarantined) — never recompute it, never re-journal it.
        let settled: Vec<bool> = ledger.replayed().iter().map(Option::is_some).collect();
        let resumed = settled.iter().filter(|&&s| s).count();
        self.resumed.fetch_add(resumed as u64, Ordering::Relaxed);
        self.replayed.fetch_add(ledger.records(), Ordering::Relaxed);
        let mut report = SweepReport::default();

        // Fast path: everything cached under the full workload set (or
        // settled by the journal) — no preparation needed at all.
        let mut results = self.cached_designs(workloads, cores, subsets, &settled);
        if (0..results.len()).all(|i| settled[i] || results[i].is_some()) {
            report.results = results.into_iter().flatten().collect();
            return ledger.finish(report);
        }

        // Prepare with quarantine; failed workloads drop out of the sweep.
        let (data, failed) = self.prepare_quarantined(workloads);
        for (name, err) in failed {
            report.quarantined.push((format!("workload:{name}"), err));
        }
        if data.is_empty() {
            return ledger.finish(report);
        }
        let healthy_keys: Vec<ContentHash> = data.iter().map(|p| p.key).collect();
        if data.len() != workloads.len() {
            // The cache above was keyed over the full set; re-key over the
            // healthy subset. Journal-replayed units stay settled — under
            // the deterministic fault plans the same workloads fail on
            // every run, so replayed results match what this run would
            // compute.
            results = self.load_cached_except(&healthy_keys, cores, subsets, &settled);
        }
        let point_keys: Vec<ContentHash> = cores
            .iter()
            .flat_map(|core| subsets.iter().map(move |bsas| (core, bsas)))
            .map(|(core, bsas)| self.design_point_key(&healthy_keys, core, bsas))
            .collect();

        let missing: Vec<usize> = (0..results.len())
            .filter(|&i| !settled[i] && results[i].is_none())
            .collect();
        // Durability hook, run as each unit settles: persist the result
        // artifact first, then journal the unit. Ordering matters — a
        // `done` record must always refer to an artifact that is already
        // on disk, so a resume never recomputes a journaled-done unit.
        let on_unit = |idx: usize, res: &Result<DesignResult, PipelineError>| {
            if let Ok(r) = res {
                self.store.save(&point_keys[idx], encode_design_result(r));
            }
            ledger.record(idx, res.as_ref());
            crash_point(SITE_UNIT_COMPLETE);
        };
        for (idx, res) in self.run_points(&data, cores, subsets, &missing, &on_unit) {
            match res {
                Ok(r) => results[idx] = Some(r),
                Err(e) => report.quarantined.push((ledger.label(idx).to_string(), e)),
            }
        }
        report.results = results.into_iter().flatten().collect();
        ledger.finish(report)
    }

    /// Loads every (core × subset) design point keyed over the full
    /// `workloads` set from the artifact store, in core-major order:
    /// `None` per point on a miss and wherever `skip` is set
    /// (journal-settled units never touch the store). This is the sweep's
    /// fast path, and the grid coordinator's before it spawns anything.
    #[must_use]
    pub fn cached_designs(
        &self,
        workloads: &[&Workload],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
        skip: &[bool],
    ) -> Vec<Option<DesignResult>> {
        let keys: Vec<ContentHash> = workloads
            .iter()
            .map(|w| self.workload_key(w.name, w.scaled_n()))
            .collect();
        self.load_cached_except(&keys, cores, subsets, skip)
    }

    /// [`Session::cached_designs`] keyed over the workload keys `wkeys`.
    fn load_cached_except(
        &self,
        wkeys: &[ContentHash],
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
        skip: &[bool],
    ) -> Vec<Option<DesignResult>> {
        let mut out = Vec::with_capacity(cores.len() * subsets.len());
        for core in cores {
            for bsas in subsets {
                if skip[out.len()] {
                    out.push(None);
                    continue;
                }
                let key = self.design_point_key(wkeys, core, bsas);
                out.push(
                    self.store
                        .load(&key)
                        .and_then(|payload| decode_design_result(&payload)),
                );
            }
        }
        out
    }

    /// The full 64-point exploration over every registered workload,
    /// backed by the artifact store, with failure isolation and a sweep
    /// journal; with `resume`, a previous interrupted run's journal is
    /// replayed first.
    #[must_use]
    pub fn full_design_space_resumable(&self, resume: bool) -> SweepReport {
        let workloads: Vec<&Workload> = prism_workloads::ALL.iter().collect();
        self.evaluate_designs_resumable(&workloads, &all_cores(), &all_bsa_subsets(), resume)
    }

    /// Current cache counters.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            artifacts: self.store.stats(),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
            shape_memo_hits: self.shape_memo_hits.load(Ordering::Relaxed),
            timing_artifacts_loaded: self.timing_artifacts_loaded.load(Ordering::Relaxed),
            timing_written: TimingWrites {
                packs: self.packs_written.load(Ordering::Relaxed),
                pack_walks: self.pack_walks_written.load(Ordering::Relaxed),
                walks: self.walks_written.load(Ordering::Relaxed),
            },
            walks_skipped: self.walks_skipped.load(Ordering::Relaxed),
            trace_walks: self.trace_walks.load(Ordering::Relaxed),
            walk_insts: self.walk_insts.load(Ordering::Relaxed),
            sim_insts: self.sim_insts.load(Ordering::Relaxed),
            sim_nanos: self.sim_nanos.load(Ordering::Relaxed),
            udg_nanos: self.udg_nanos.load(Ordering::Relaxed),
            transform_nanos: self.transform_nanos.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
        }
    }

    /// Logs cache hit/miss counts to stderr.
    pub fn log_stats(&self) {
        let s = self.stats();
        eprintln!(
            "[prism-pipeline] artifact cache: {} hits, {} misses ({} discarded, \
             {} I/O retries, {} I/O errors, {} recomputes); memo: {} hits, \
             {} misses; walks: {} performed, {} skipped ({} shape-memo, \
             {} artifacts); sim: {} insts at {:.0} insts/sec; \
             walk throughput: {} insts in {} ms ({:.0} insts/sec); stage busy (summed over threads): sim {} ms, uDG {} ms, \
             transforms {} ms; jobs={}",
            s.artifacts.hits,
            s.artifacts.misses,
            s.artifacts.discarded,
            s.artifacts.io_retries,
            s.artifacts.io_errors,
            s.artifacts.recomputes,
            s.memo_hits,
            s.memo_misses,
            s.trace_walks,
            s.walks_skipped,
            s.shape_memo_hits,
            s.timing_artifacts_loaded,
            s.sim_insts,
            s.insts_per_sec(),
            s.walk_insts,
            s.udg_nanos / 1_000_000,
            s.walk_insts_per_sec(),
            s.sim_nanos / 1_000_000,
            s.udg_nanos / 1_000_000,
            s.transform_nanos / 1_000_000,
            self.jobs,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_tracer() -> TracerConfig {
        TracerConfig {
            max_insts: 20_000,
            ..TracerConfig::default()
        }
    }

    /// A session insulated from ambient env knobs (`PRISM_FAULTS` etc.),
    /// so these tests stay deterministic under the CI fault matrix.
    fn clean_session() -> Session {
        Session::new()
            .with_tracer(quick_tracer())
            .with_jobs(1)
            .with_faults(None)
            .with_budget(ExecBudget::unlimited())
    }

    #[test]
    fn prepare_memoizes_by_content_key() {
        let session = clean_session();
        let w = &prism_workloads::MICRO[0];
        let a = session.prepare(w).expect("prepare");
        let b = session.prepare(w).expect("prepare");
        assert!(
            Arc::ptr_eq(&a.data, &b.data),
            "second prepare must hit the memo"
        );
        let s = session.stats();
        assert_eq!((s.memo_hits, s.memo_misses), (1, 1));
    }

    #[test]
    fn workload_key_depends_on_tracer_and_size() {
        let a = Session::new().with_tracer(quick_tracer());
        let b = Session::new().with_tracer(TracerConfig {
            max_insts: 40_000,
            ..quick_tracer()
        });
        assert_ne!(a.workload_key("x", 100), b.workload_key("x", 100));
        assert_ne!(a.workload_key("x", 100), a.workload_key("x", 101));
        assert_ne!(a.workload_key("x", 100), a.workload_key("y", 100));
        assert_eq!(a.workload_key("x", 100), a.workload_key("x", 100));
    }

    #[test]
    fn prepare_program_shares_identical_programs() {
        let session = clean_session();
        let w = &prism_workloads::MICRO[0];
        let p1 = (w.build)(64);
        let p2 = (w.build)(64);
        let a = session.prepare_program(&p1).expect("prepare");
        let b = session.prepare_program(&p2).expect("prepare");
        assert!(Arc::ptr_eq(&a.data, &b.data));
    }

    #[test]
    fn oracle_tables_are_memoized_per_core() {
        let session = clean_session();
        let w = &prism_workloads::MICRO[0];
        let prepared = session.prepare(w).expect("prepare");
        let t1 = session
            .oracle_table(&prepared, &CoreConfig::ooo2())
            .unwrap();
        let t2 = session
            .oracle_table(&prepared, &CoreConfig::ooo2())
            .unwrap();
        assert!(Arc::ptr_eq(&t1, &t2));
        let t3 = session
            .oracle_table(&prepared, &CoreConfig::ooo4())
            .unwrap();
        assert!(!Arc::ptr_eq(&t1, &t3));
    }

    #[test]
    fn oracle_table_budget_errors_are_typed() {
        let session = clean_session().with_budget(ExecBudget::new(10));
        let w = &prism_workloads::MICRO[0];
        let prepared = session.prepare(w).expect("prepare");
        let err = session
            .oracle_table(&prepared, &CoreConfig::ooo2())
            .expect_err("10-node budget cannot measure a table");
        assert_eq!(err.kind, crate::error::ErrorKind::BudgetExceeded);
        assert_eq!(err.workload, w.name);
    }

    #[test]
    fn panic_stage_attribution_reads_the_message() {
        assert_eq!(
            panic_stage("injected fault: trace stage panic at fft", Stage::Build),
            Stage::Trace
        );
        assert_eq!(
            panic_stage("index out of bounds: the len is 3", Stage::Evaluate),
            Stage::Evaluate
        );
    }
}
