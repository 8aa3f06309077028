//! The traced sweep: the same sweep re-composed from each layer's public
//! calls, in the order `Session` makes them and over the same
//! `parallel_map` jobs, with a span around every call.
//!
//! Spans are recorded here, around the calls into each layer; the program
//! itself is observed only from outside.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use prism_exocore::{
    oracle_pick, oracle_table_budgeted, DesignPoint, DesignResult, OracleTable, WorkloadData,
    WorkloadMetrics,
};
use prism_grid::{run_grid, FromWorker};
use prism_isa::Program;
use prism_pipeline::{
    decode_design_result, decode_exo_timing, encode_design_result, encode_exo_timing, parallel_map,
    sweep_key, ArtifactStore, ContentHash, Json, PreparedWorkload, Session, StoreStats,
    SweepJournal,
};
use prism_sim::{SimSource, Trace, TraceSource, TraceStats, TracerConfig};
use prism_tdg::{price_exocore, run_exocore_timing, Assignment, ExoTiming};
use prism_udg::{CoreConfig, ExecBudget};
use prism_workloads::Workload;

use crate::spans::{Recorder, SpanId, NO_PARENT};
use crate::sweep::{grid_config, session, Space};

/// Records the spans of one sweep.
pub struct Tracer<'a> {
    /// Where spans go.
    pub rec: &'a Recorder,
    /// The id every span of this sweep carries.
    pub sweep: u32,
    /// `parallel_map` jobs, as the session uses them.
    pub jobs: usize,
}

impl Tracer<'_> {
    fn span<R>(&self, parent: SpanId, name: &'static str, f: impl FnOnce(SpanId) -> R) -> R {
        self.rec.span(self.sweep, parent, name, f)
    }

    /// `parallel_map` inside a phase span, with an `item` span per call.
    fn map<T: Sync, R: Send>(
        &self,
        parent: SpanId,
        phase: &'static str,
        items: &[T],
        f: impl Fn(SpanId, &T) -> R + Sync,
    ) -> Vec<R> {
        self.span(parent, phase, |phase| {
            parallel_map(items, self.jobs, |_, item| {
                self.span(phase, "item", |id| f(id, item))
            })
        })
    }
}

/// Work counts that spans alone do not carry.
#[derive(Debug, Default)]
struct Counts {
    sim_insts: AtomicU64,
    walk_insts: AtomicU64,
    walk_requests: AtomicU64,
    walk_distinct: AtomicU64,
    codec_bytes: AtomicU64,
    proto_bytes: AtomicU64,
}

impl Counts {
    fn add(counter: &AtomicU64, n: usize) {
        counter.fetch_add(n as u64, Ordering::Relaxed);
    }

    fn tally(&self) -> Tally {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Tally {
            sim_insts: get(&self.sim_insts),
            walk_insts: get(&self.walk_insts),
            walk_requests: get(&self.walk_requests),
            walk_distinct: get(&self.walk_distinct),
            codec_bytes: get(&self.codec_bytes),
            proto_bytes: get(&self.proto_bytes),
        }
    }
}

/// Work counts of one traced sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Instructions the functional simulator produced.
    pub sim_insts: u64,
    /// Trace instructions the timing walks covered.
    pub walk_insts: u64,
    /// Timing requests made by design-point evaluation.
    pub walk_requests: u64,
    /// Distinct µDG shape keys among them.
    pub walk_distinct: u64,
    /// Serialized bytes of every encoded or decoded payload.
    pub codec_bytes: u64,
    /// Bytes of the encoded result frames.
    pub proto_bytes: u64,
}

/// One traced sweep.
#[derive(Debug)]
pub struct Traced {
    /// Its results, sorted by label.
    pub results: Vec<DesignResult>,
    /// Its work counts.
    pub tally: Tally,
    /// The store's counters over the sweep.
    pub store: StoreStats,
}

fn payload_bytes(payload: &Json) -> usize {
    payload.to_string().len()
}

/// The `Session` sweep (`evaluate_designs_resumable`, not resuming):
/// journal, cached-result loads, and — for missing points — preparation,
/// oracle tables, distinct timing walks, and point evaluation with its
/// store save and journal append.
///
/// # Panics
///
/// Panics when a layer fails: the benchmark's sweeps have no faults, so
/// a failure is a defect the run must not hide.
#[must_use]
pub fn session_sweep(t: &Tracer, space: &Space, dir: &Path) -> Traced {
    let session = session(dir);
    let store = ArtifactStore::new(dir);
    let counts = Counts::default();
    let results = t.span(NO_PARENT, "sweep", |root| {
        let sizes: Vec<(String, u32)> = space
            .workloads
            .iter()
            .map(|w| (w.name.to_string(), w.scaled_n()))
            .collect();
        let key = sweep_key(&sizes, session.tracer(), &space.cores, &space.subsets);
        let (journal, _) = t
            .span(root, "journal.open", |_| {
                SweepJournal::open(dir, &key, false)
            })
            .expect("open the sweep journal");
        let wkeys: Vec<ContentHash> = space
            .workloads
            .iter()
            .map(|w| session.workload_key(w.name, w.scaled_n()))
            .collect();
        let point_keys: Vec<ContentHash> = space
            .cores
            .iter()
            .flat_map(|c| space.subsets.iter().map(move |s| (c, s)))
            .map(|(c, s)| session.design_point_key(&wkeys, c, s))
            .collect();
        let mut results: Vec<Option<DesignResult>> = t.span(root, "phase.load_cached", |phase| {
            point_keys
                .iter()
                .map(|key| {
                    let payload = t.span(phase, "store.get", |_| store.load(key))?;
                    Counts::add(&counts.codec_bytes, payload_bytes(&payload));
                    t.span(phase, "codec.decode", |_| decode_design_result(&payload))
                })
                .collect()
        });
        let missing: Vec<usize> = (0..space.points())
            .filter(|&i| results[i].is_none())
            .collect();
        if !missing.is_empty() {
            let data = t.map(root, "phase.prepare", &space.workloads, |item, w| {
                prepare(t, item, &session, w, &counts)
            });
            let ctx = Points {
                t,
                session: &session,
                store: &store,
                journal: &journal,
                space,
                data: &data,
                point_keys: &point_keys,
                counts: &counts,
            };
            for (idx, r) in ctx.run(root, &missing) {
                results[idx] = Some(r);
            }
        }
        t.span(root, "journal.remove", |_| journal.remove())
            .expect("remove the finished journal");
        let mut results: Vec<DesignResult> = results.into_iter().flatten().collect();
        results.sort_by(|a, b| a.label.cmp(&b.label));
        results
    });
    Traced {
        results,
        tally: counts.tally(),
        store: store.stats(),
    }
}

/// Records `program`'s trace chunk by chunk, as the session does.
fn record_trace(program: &Program, tracer: &TracerConfig) -> Trace {
    let mut source = SimSource::new(program, tracer).expect("registry workloads validate");
    let mut insts = Vec::new();
    let mut stats = TraceStats::default();
    while let Some(chunk) = source.next_chunk().expect("registry workloads execute") {
        stats = chunk.stats;
        let last = chunk.last;
        insts.extend(chunk.insts);
        if last {
            break;
        }
    }
    Trace {
        program: program.clone(),
        insts,
        stats,
    }
}

/// Build, simulate, and analyse one workload.
fn prepare(
    t: &Tracer,
    parent: SpanId,
    session: &Session,
    w: &Workload,
    counts: &Counts,
) -> PreparedWorkload {
    let n = w.scaled_n();
    let key = session.workload_key(w.name, n);
    let program = t.span(parent, "prep.build", |_| (w.build)(n));
    let trace = t.span(parent, "sim", |_| record_trace(&program, session.tracer()));
    Counts::add(&counts.sim_insts, trace.stats.insts as usize);
    let data = t.span(parent, "prep.from_trace", |_| {
        WorkloadData::from_trace(trace)
    });
    PreparedWorkload {
        key,
        data: Arc::new(data),
    }
}

fn oracle(t: &Tracer, parent: SpanId, w: &PreparedWorkload, core: &CoreConfig) -> OracleTable {
    t.span(parent, "oracle", |_| {
        oracle_table_budgeted(&w.data, core, &ExecBudget::unlimited())
    })
    .expect("an unlimited budget measures every oracle table")
}

/// Everything `run_points` needs, shared by its phases.
struct Points<'a> {
    t: &'a Tracer<'a>,
    session: &'a Session,
    store: &'a ArtifactStore,
    journal: &'a SweepJournal,
    space: &'a Space,
    data: &'a [PreparedWorkload],
    point_keys: &'a [ContentHash],
    counts: &'a Counts,
}

impl Points<'_> {
    fn point(&self, idx: usize) -> (usize, DesignPoint) {
        let n = self.space.subsets.len();
        let (c, s) = (idx / n, idx % n);
        let point = DesignPoint::new(self.space.cores[c].clone(), self.space.subsets[s].clone());
        (c, point)
    }

    /// The session's barrier phases: oracle tables over (core ×
    /// workload), distinct timing walks, then point evaluation.
    fn run(&self, root: SpanId, missing: &[usize]) -> Vec<(usize, DesignResult)> {
        let t = self.t;
        let mut core_ids: Vec<usize> = missing
            .iter()
            .map(|&i| i / self.space.subsets.len())
            .collect();
        core_ids.dedup();
        let pairs: Vec<(usize, usize)> = core_ids
            .iter()
            .flat_map(|&c| (0..self.data.len()).map(move |w| (c, w)))
            .collect();
        let built = t.map(root, "phase.oracle", &pairs, |item, &(c, w)| {
            oracle(t, item, &self.data[w], &self.space.cores[c])
        });
        let tables: HashMap<(usize, usize), OracleTable> = pairs.into_iter().zip(built).collect();

        let mut seen = HashSet::new();
        let mut walks: Vec<(usize, CoreConfig, Assignment)> = Vec::new();
        for &idx in missing {
            let (c, point) = self.point(idx);
            for (wi, w) in self.data.iter().enumerate() {
                let assignment = oracle_pick(&tables[&(c, wi)], &w.data, &point.bsas);
                if seen.insert(self.session.shape_key(w, &point.core, &assignment)) {
                    walks.push((wi, point.core.clone(), assignment));
                }
            }
        }
        Counts::add(&self.counts.walk_distinct, walks.len());
        let memo: Mutex<HashMap<ContentHash, Arc<ExoTiming>>> = Mutex::new(HashMap::new());
        t.map(
            root,
            "phase.timing",
            &walks,
            |item, (wi, core, assignment)| {
                self.timing(item, &memo, &self.data[*wi], core, assignment);
            },
        );

        t.map(root, "phase.evaluate", missing, |item, &idx| {
            let (c, point) = self.point(idx);
            let mut per_workload = Vec::with_capacity(self.data.len());
            for (wi, w) in self.data.iter().enumerate() {
                let assignment = oracle_pick(&tables[&(c, wi)], &w.data, &point.bsas);
                Counts::add(&self.counts.walk_requests, 1);
                let timing = self.timing(item, &memo, w, &point.core, &assignment);
                let run = t.span(item, "price", |_| {
                    price_exocore(&timing, &point.core, &point.bsas)
                });
                per_workload.push(WorkloadMetrics::from_run(&run, &w.name));
            }
            let r = DesignResult {
                label: point.label(),
                core: point.core.name.clone(),
                bsas: point.bsas.iter().map(|b| b.code()).collect(),
                area_mm2: point.area_mm2(),
                per_workload,
            };
            let payload = t.span(item, "codec.encode", |_| encode_design_result(&r));
            Counts::add(&self.counts.codec_bytes, payload_bytes(&payload));
            t.span(item, "store.put", |_| {
                self.store.save(&self.point_keys[idx], payload)
            });
            t.span(item, "journal.append", |_| {
                self.journal.append_done(&r.label, &r)
            })
            .expect("append to the sweep journal");
            (idx, r)
        })
    }

    /// The session's timing lookup: shape-keyed memo, then the stored
    /// timing artifact, else a walk whose summary is encoded and saved.
    fn timing(
        &self,
        parent: SpanId,
        memo: &Mutex<HashMap<ContentHash, Arc<ExoTiming>>>,
        w: &PreparedWorkload,
        core: &CoreConfig,
        assignment: &Assignment,
    ) -> Arc<ExoTiming> {
        let t = self.t;
        let key = self.session.shape_key(w, core, assignment);
        if let Some(hit) = memo.lock().expect("timing memo lock").get(&key) {
            return Arc::clone(hit);
        }
        let loaded = t
            .span(parent, "store.get", |_| self.store.load(&key))
            .and_then(|payload| {
                Counts::add(&self.counts.codec_bytes, payload_bytes(&payload));
                t.span(parent, "codec.decode", |_| decode_exo_timing(&payload))
            });
        let timing = Arc::new(loaded.unwrap_or_else(|| {
            let timing = t.span(parent, "walk", |_| {
                run_exocore_timing(&w.trace, &w.ir, core, &w.plans, assignment)
            });
            Counts::add(&self.counts.walk_insts, w.trace.len());
            let payload = t.span(parent, "codec.encode", |_| encode_exo_timing(&timing));
            Counts::add(&self.counts.codec_bytes, payload_bytes(&payload));
            t.span(parent, "store.put", |_| self.store.save(&key, payload));
            timing
        }));
        memo.lock()
            .expect("timing memo lock")
            .insert(key, Arc::clone(&timing));
        timing
    }
}

/// The grid sweep as one span, then what explains it: one worker's
/// prewarm replayed in-process (chunk 0 of every trace, full preparation,
/// and every core's oracle tables, as the worker's prewarm thread makes
/// those calls), and the encoding and decoding of the sweep's result
/// frames, each with the artifact keys a worker attaches.
///
/// # Errors
///
/// Returns the grid's start-up error, or a frame that does not decode to
/// itself.
pub fn grid_sweep(t: &Tracer, space: &Space, dir: &Path) -> Result<Traced, String> {
    let config = grid_config(space, dir);
    let outcome = t
        .span(NO_PARENT, "sweep", |root| {
            t.span(root, "grid", |_| run_grid(&config))
        })
        .map_err(|e| e.to_string())?;

    let session = session(dir);
    let counts = Counts::default();
    let (data, tables) = t.span(NO_PARENT, "replica", |replica| {
        for w in &space.workloads {
            let n = w.scaled_n();
            let program = t.span(replica, "prep.build", |_| (w.build)(n));
            t.span(replica, "sim", |_| {
                let mut source = SimSource::new(&program, session.tracer())
                    .expect("registry workloads validate");
                if let Some(chunk) = source.next_chunk().expect("registry workloads execute") {
                    Counts::add(&counts.sim_insts, chunk.insts.len());
                }
            });
        }
        let data = t.map(replica, "phase.prepare", &space.workloads, |item, w| {
            prepare(t, item, &session, w, &counts)
        });
        let mut tables = HashMap::new();
        for (c, core) in space.cores.iter().enumerate() {
            for (wi, w) in data.iter().enumerate() {
                tables.insert((c, wi), oracle(t, replica, w, core));
            }
        }
        (data, tables)
    });

    let wkeys: Vec<ContentHash> = data.iter().map(|p| p.key).collect();
    let n = space.subsets.len();
    let mut by_label = HashMap::new();
    for (c, core) in space.cores.iter().enumerate() {
        for (s, subset) in space.subsets.iter().enumerate() {
            by_label.insert(
                DesignPoint::new(core.clone(), subset.clone()).label(),
                (c, s),
            );
        }
    }
    for r in &outcome.report.results {
        let &(c, s) = by_label
            .get(&r.label)
            .ok_or_else(|| format!("grid returned unknown point {}", r.label))?;
        let point = DesignPoint::new(space.cores[c].clone(), space.subsets[s].clone());
        let mut artifacts =
            vec![session.design_point_key(&wkeys, &space.cores[c], &space.subsets[s])];
        for (wi, w) in data.iter().enumerate() {
            let assignment = oracle_pick(&tables[&(c, wi)], &w.data, &point.bsas);
            artifacts.push(session.shape_key(w, &point.core, &assignment));
        }
        let frame = FromWorker::UnitResult {
            id: (c * n + s) as u64,
            result: r.clone(),
            artifacts: artifacts.iter().map(ContentHash::hex).collect(),
        };
        let line = t.span(NO_PARENT, "proto.encode", |_| frame.encode());
        Counts::add(&counts.proto_bytes, line.len());
        let back = t.span(NO_PARENT, "proto.decode", |_| FromWorker::decode(&line))?;
        if back != frame {
            return Err(format!("result frame for {} does not round-trip", r.label));
        }
    }
    Ok(Traced {
        results: outcome.report.results,
        tally: counts.tally(),
        store: StoreStats::default(),
    })
}
