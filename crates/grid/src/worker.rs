//! The grid worker: one shard of the sweep, driven over a line link.
//!
//! A worker is not a separate binary — the coordinator re-invokes the
//! *current executable* with `PRISM_GRID_WORKER=1`, and the host binary's
//! `main` routes into [`run_worker_if_env`] before doing anything else
//! (in particular before printing to stdout, which belongs to the
//! protocol once the worker mode engages). The same evaluation loop also
//! serves TCP connections via [`serve_tcp`]: the transport differs, the
//! protocol does not — [`run_worker_io`] is generic over the byte streams.
//!
//! Inside the worker, three threads run:
//!
//! - the **reader** (main thread) parses assignments from the input into a
//!   queue, and answers artifact fetch/push frames from its local store
//!   inline, so every fetch reply precedes the worker's end of stream,
//! - the **evaluator** pops units in order and reports one
//!   result-or-quarantine per unit (the session memoizes preparation and
//!   oracle tables, so only a shard's first unit per core pays for them),
//! - the **heartbeat** thread emits liveness beacons every
//!   [`HEARTBEAT_INTERVAL`] until the
//!   evaluator finishes.
//!
//! The `die`, `hang` and `quarantine` entries of a `PRISM_FAULTS` plan
//! ([`prism_pipeline::FaultPlan`]) inject worker failures when a shard
//! starts a given unit.

use std::collections::{BTreeSet, VecDeque};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use prism_exocore::DesignPoint;
use prism_pipeline::{
    ArtifactStore, Config, ContentHash, PipelineError, Session, Stage, WorkerFault,
};
use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::CoreConfig;
use prism_workloads::Workload;

use crate::proto::{FromWorker, ToWorker, HEARTBEAT_INTERVAL, PROTO_VERSION};

/// Set (to any value) in a worker process's environment.
pub const WORKER_ENV: &str = "PRISM_GRID_WORKER";

/// Runs the worker protocol and exits the process when `PRISM_GRID_WORKER`
/// is set; returns immediately otherwise. Call this first in `main` of any
/// binary that may serve as a grid worker — before anything is written to
/// stdout, which carries the wire protocol in worker mode. A worker whose
/// environment does not parse ([`Config::from_env`]) prints the error to
/// stderr and exits 2 without speaking the protocol.
pub fn run_worker_if_env() {
    if std::env::var_os(WORKER_ENV).is_some() {
        let code = match Config::from_env() {
            Ok(config) => run_worker(&config),
            Err(e) => {
                eprintln!("error: {e}");
                2
            }
        };
        std::process::exit(code);
    }
}

/// How [`run_worker_io`] binds the protocol loop to its surroundings.
#[derive(Debug, Default)]
pub struct WorkerOptions {
    /// Shard id this link is supposed to carry; the Hello's shard must
    /// match or the worker refuses the session. `None` trusts the Hello.
    pub expected_shard: Option<usize>,
    /// Artifact store directory override. `None` uses the Hello's
    /// `artifact_dir` (the stdio case, where coordinator and worker share
    /// a filesystem); TCP daemons pass their own local store here and the
    /// Hello's path — meaningless on another host — is ignored. Only a
    /// worker with its own store names the artifacts each unit saved, so
    /// the coordinator can pull them.
    pub store_dir: Option<PathBuf>,
    /// The worker's configuration: its session's jobs, budget, guard and
    /// store cap, and the fault plan each session parses afresh — the
    /// session reads its store and stage kinds, the protocol loop its
    /// worker kinds.
    pub config: Config,
}

/// Looks a workload up in the main registry, then the microbenchmarks.
pub(crate) fn find_workload(name: &str) -> Option<&'static Workload> {
    prism_workloads::by_name(name)
        .or_else(|| prism_workloads::MICRO.iter().find(|m| m.name == name))
}

fn parse_core(name: &str) -> Option<CoreConfig> {
    match name {
        "IO2" => Some(CoreConfig::io2()),
        "OOO2" => Some(CoreConfig::ooo2()),
        "OOO4" => Some(CoreConfig::ooo4()),
        "OOO6" => Some(CoreConfig::ooo6()),
        _ => None,
    }
}

fn parse_bsas(codes: &str) -> Option<Vec<BsaKind>> {
    codes
        .chars()
        .map(|c| BsaKind::ALL.iter().copied().find(|b| b.code() == c))
        .collect()
}

/// One assignment queued on the worker.
struct QueuedUnit {
    id: u64,
    core: String,
    bsas: String,
}

struct UnitQueue {
    pending: VecDeque<QueuedUnit>,
    /// Shutdown received (or input closed): drain and exit.
    closing: bool,
    /// The evaluator drained the queue after `closing`: the heartbeat
    /// stops and the worker says `Bye`.
    finished: bool,
}

fn send<W: Write>(out: &Mutex<W>, msg: &FromWorker) {
    let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
    // A broken pipe means the coordinator is gone; the reader thread will
    // see EOF and wind the worker down, so a failed send is not fatal here.
    let _ = writeln!(out, "{}", msg.encode());
    let _ = out.flush();
}

/// Runs the worker protocol over this process's stdin/stdout until
/// shutdown, returning the process exit code. The shard id and the store
/// directory come from the coordinator's Hello.
#[must_use]
pub fn run_worker(config: &Config) -> i32 {
    let opts = WorkerOptions {
        expected_shard: None,
        store_dir: None,
        config: config.clone(),
    };
    let stdin = std::io::stdin();
    run_worker_io(stdin.lock(), std::io::stdout(), &opts)
}

/// Serves grid worker sessions over TCP forever: each accepted (and
/// authenticated with `config.net_token`) connection runs one full worker
/// protocol session on its own thread, against this daemon's store at
/// `config.artifact_dir`. A coordinator that reconnects after a network
/// fault simply starts a fresh session; the store's memoized artifacts
/// make the re-run cheap. With `config.store_cap`, the daemon's store
/// evicts least-recently-used artifacts after every put so per-host disk
/// growth stays bounded.
pub fn serve_tcp(listener: std::net::TcpListener, config: Config) -> ! {
    prism_net::serve(listener, config.net_token.clone(), move |stream, shard| {
        let opts = WorkerOptions {
            expected_shard: Some(shard),
            store_dir: Some(config.artifact_dir.clone()),
            config: config.clone(),
        };
        let reader = match stream.try_clone() {
            Ok(clone) => std::io::BufReader::new(clone),
            Err(e) => {
                eprintln!("[prism-net] shard {shard}: clone failed: {e}");
                return;
            }
        };
        let code = run_worker_io(reader, stream, &opts);
        eprintln!("[prism-net] shard {shard}: worker session ended (exit {code})");
    })
}

/// Runs one worker protocol session over the given byte streams until
/// shutdown or EOF, returning what would be the process exit code. This
/// is the transport-agnostic core behind [`run_worker`] (stdin/stdout)
/// and [`serve_tcp`] (one TCP connection per call).
#[must_use]
pub fn run_worker_io<R: BufRead, W: Write + Send>(
    input: R,
    output: W,
    opts: &WorkerOptions,
) -> i32 {
    let out = Mutex::new(output);
    let mut lines = input.lines();

    // Handshake: the first line must be a compatible Hello.
    let first = match lines.next() {
        Some(Ok(line)) => line,
        _ => return 2,
    };
    let (shard, workload_names, max_insts, artifact_dir) = match ToWorker::decode(&first) {
        Ok(ToWorker::Hello {
            proto,
            shard: hello_shard,
            workloads,
            max_insts,
            artifact_dir,
        }) => {
            if proto != PROTO_VERSION {
                send(
                    &out,
                    &FromWorker::Fatal {
                        message: format!(
                            "protocol version mismatch: coordinator {proto}, worker {PROTO_VERSION}"
                        ),
                    },
                );
                return 2;
            }
            if let Some(expected) = opts.expected_shard {
                if hello_shard != expected {
                    send(
                        &out,
                        &FromWorker::Fatal {
                            message: format!(
                                "shard mismatch: hello says {hello_shard}, link says {expected}"
                            ),
                        },
                    );
                    return 2;
                }
            }
            (hello_shard, workloads, max_insts, artifact_dir)
        }
        _ => {
            send(
                &out,
                &FromWorker::Fatal {
                    message: format!("expected hello, got: {first}"),
                },
            );
            return 2;
        }
    };

    let store_dir = opts
        .store_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from(&artifact_dir));
    // One plan for the session (store and stage kinds) and the protocol
    // loop (worker kinds), fresh for every session.
    let faults = opts.config.fault_plan();
    let session = Session::from_config(&opts.config)
        .with_tracer(TracerConfig {
            max_insts,
            ..TracerConfig::default()
        })
        .with_store_dir(&store_dir)
        .with_faults(faults.clone());
    // A second handle on the same store for artifact fetch/push frames:
    // the reader thread serves those concurrently with evaluation, and
    // the store's durability is file-level, not handle-level.
    let store = ArtifactStore::new(&store_dir).with_cap(opts.config.store_cap);

    // Resolve the workload set; unknown names quarantine as whole-workload
    // units (same key shape the pipeline uses for preparation failures).
    let mut workloads: Vec<&'static Workload> = Vec::with_capacity(workload_names.len());
    for name in &workload_names {
        match find_workload(name) {
            Some(w) => workloads.push(w),
            None => send(
                &out,
                &FromWorker::UnitQuarantine {
                    id: None,
                    key: format!("workload:{name}"),
                    error: PipelineError::new(name, Stage::Build, "unknown workload"),
                },
            ),
        }
    }
    send(
        &out,
        &FromWorker::HelloAck {
            shard,
            proto: PROTO_VERSION,
        },
    );

    let queue = Mutex::new(UnitQueue {
        pending: VecDeque::new(),
        closing: false,
        finished: false,
    });
    let queue_cv = Condvar::new();
    let inflight = AtomicU64::new(0);
    // Set by an injected hang fault: the worker stalls *and* goes silent,
    // so the coordinator must catch it by heartbeat timeout.
    let hang = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Heartbeat thread: beats until the evaluator finishes, waking
        // for it at once rather than sleeping out the interval.
        scope.spawn(|| loop {
            if !hang.load(Ordering::Relaxed) {
                send(
                    &out,
                    &FromWorker::Heartbeat {
                        shard,
                        inflight: inflight.load(Ordering::Relaxed),
                    },
                );
            }
            let q = queue.lock().unwrap_or_else(|e| e.into_inner());
            let (q, _) = queue_cv
                .wait_timeout_while(q, HEARTBEAT_INTERVAL, |q| !q.finished)
                .unwrap_or_else(|e| e.into_inner());
            if q.finished {
                return;
            }
        });

        // Evaluator thread: one result-or-quarantine per popped unit.
        scope.spawn(|| {
            let mut started: u64 = 0;
            let mut reported_workloads: BTreeSet<String> = BTreeSet::new();
            loop {
                let unit = {
                    let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        if let Some(u) = q.pending.pop_front() {
                            break Some(u);
                        }
                        if q.closing {
                            q.finished = true;
                            queue_cv.notify_all();
                            break None;
                        }
                        q = queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                };
                let Some(unit) = unit else { return };
                match faults.as_ref().and_then(|f| f.worker_fault(shard, started)) {
                    Some(WorkerFault::Die) => {
                        eprintln!(
                            "[prism-grid] shard {shard}: injected death before unit {started}"
                        );
                        std::process::exit(101);
                    }
                    Some(WorkerFault::Hang) => {
                        eprintln!(
                            "[prism-grid] shard {shard}: injected hang before unit {started}"
                        );
                        hang.store(true, Ordering::Relaxed);
                        loop {
                            std::thread::sleep(std::time::Duration::from_secs(3600));
                        }
                    }
                    Some(WorkerFault::Quarantine) => {
                        started += 1;
                        let label = unit_label(&unit);
                        send(
                            &out,
                            &FromWorker::UnitQuarantine {
                                id: Some(unit.id),
                                key: label.clone(),
                                error: PipelineError::new(
                                    label,
                                    Stage::Evaluate,
                                    format!("injected grid fault: quarantined on shard {shard}"),
                                ),
                            },
                        );
                        inflight.fetch_sub(1, Ordering::Relaxed);
                        continue;
                    }
                    None => {}
                }
                started += 1;
                evaluate_unit(
                    &session,
                    &workloads,
                    &unit,
                    opts.store_dir.is_some(),
                    &mut reported_workloads,
                    &out,
                );
                inflight.fetch_sub(1, Ordering::Relaxed);
            }
        });

        // Reader (this thread): feed the queue until shutdown, EOF, or an
        // I/O error (either way the coordinator is gone). Artifact frames
        // are served inline — store export/import is cheap I/O and must
        // not queue behind a long evaluation.
        'reader: while let Some(Ok(line)) = lines.next() {
            match ToWorker::decode(&line) {
                Ok(ToWorker::Assign { id, core, bsas }) => {
                    inflight.fetch_add(1, Ordering::Relaxed);
                    let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                    q.pending.push_back(QueuedUnit { id, core, bsas });
                    queue_cv.notify_all();
                }
                Ok(ToWorker::Fetch { keys }) => {
                    for key in keys {
                        // Empty doc = "don't have it" so the coordinator
                        // can account for every requested key.
                        let doc = ContentHash::from_hex(&key)
                            .and_then(|k| store.export(&k))
                            .unwrap_or_default();
                        send(&out, &FromWorker::Artifact { key, doc });
                    }
                }
                Ok(ToWorker::Artifact { key, doc }) => match ContentHash::from_hex(&key) {
                    Some(k) => {
                        if let Err(e) = store.import(&k, &doc) {
                            eprintln!("[prism-grid] shard {shard}: artifact import failed: {e}");
                        }
                    }
                    None => {
                        eprintln!("[prism-grid] shard {shard}: artifact push with bad key {key}");
                    }
                },
                Ok(ToWorker::Shutdown) => break 'reader,
                Ok(ToWorker::Hello { .. }) | Err(_) => {
                    send(
                        &out,
                        &FromWorker::Fatal {
                            message: format!("unexpected message: {line}"),
                        },
                    );
                }
            }
        }
        let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
        q.closing = true;
        queue_cv.notify_all();
    });

    let session_stats = session.stats();
    send(
        &out,
        &FromWorker::Bye {
            walks: session_stats.trace_walks,
            walks_skipped: session_stats.walks_skipped,
            shape_memo_hits: session_stats.shape_memo_hits,
            timing_artifacts_loaded: session_stats.timing_artifacts_loaded,
        },
    );
    0
}

/// The unit's sweep key (Fig. 12 label), derivable without evaluating.
fn unit_label(unit: &QueuedUnit) -> String {
    match (parse_core(&unit.core), parse_bsas(&unit.bsas)) {
        (Some(core), Some(bsas)) => DesignPoint::new(core, bsas).label(),
        _ => format!("{}-{}", unit.core, unit.bsas),
    }
}

/// Evaluates one unit and reports exactly one terminal message for it
/// (plus at most one workload-level quarantine per workload per worker).
/// With `name_artifacts`, each result lists the store artifacts the unit
/// settled into.
fn evaluate_unit<W: Write>(
    session: &Session,
    workloads: &[&Workload],
    unit: &QueuedUnit,
    name_artifacts: bool,
    reported_workloads: &mut BTreeSet<String>,
    out: &Mutex<W>,
) {
    let label = unit_label(unit);
    let (Some(core), Some(bsas)) = (parse_core(&unit.core), parse_bsas(&unit.bsas)) else {
        send(
            out,
            &FromWorker::UnitQuarantine {
                id: Some(unit.id),
                key: label.clone(),
                error: PipelineError::new(
                    label,
                    Stage::Evaluate,
                    format!(
                        "unparseable assignment: core `{}` bsas `{}`",
                        unit.core, unit.bsas
                    ),
                ),
            },
        );
        return;
    };
    let report = session.evaluate_designs(
        workloads,
        std::slice::from_ref(&core),
        std::slice::from_ref(&bsas),
    );
    // Name the store artifact this unit settled into, so a remote
    // coordinator knows what to pull. Stdio shards share the
    // coordinator's store, so it never pulls from them.
    let artifacts = if name_artifacts {
        let (data, _) = session.prepare_quarantined(workloads);
        let wkeys: Vec<ContentHash> = data.iter().map(|p| p.key).collect();
        let mut keys = vec![session.design_point_key(&wkeys, &core, &bsas)];
        // Timing artifacts settled by this unit's walks ride along, so
        // the coordinator can pull them and reuse the walks on cores
        // that share a timing shape with this one.
        keys.extend(session.timing_shape_keys(&data, &core, &bsas));
        keys.iter().map(ContentHash::hex).collect()
    } else {
        Vec::new()
    };
    let mut resolved = false;
    for result in report.results {
        send(
            out,
            &FromWorker::UnitResult {
                id: unit.id,
                result,
                artifacts: artifacts.clone(),
            },
        );
        resolved = true;
    }
    for (key, error) in report.quarantined {
        if key == label {
            send(
                out,
                &FromWorker::UnitQuarantine {
                    id: Some(unit.id),
                    key,
                    error,
                },
            );
            resolved = true;
        } else if reported_workloads.insert(key.clone()) {
            // Workload-level failure: not tied to this assignment, and
            // re-derived identically by every unit — report it once.
            send(
                out,
                &FromWorker::UnitQuarantine {
                    id: None,
                    key,
                    error,
                },
            );
        }
    }
    if !resolved {
        send(
            out,
            &FromWorker::UnitQuarantine {
                id: Some(unit.id),
                key: label.clone(),
                error: PipelineError::new(
                    label,
                    Stage::Evaluate,
                    "no healthy workloads to evaluate",
                ),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_returns_without_waiting_out_a_heartbeat() {
        let dir = std::env::temp_dir().join(format!("prism-worker-exit-{}", std::process::id()));
        let hello = ToWorker::Hello {
            proto: PROTO_VERSION,
            shard: 0,
            workloads: Vec::new(),
            max_insts: 1_000,
            artifact_dir: dir.display().to_string(),
        };
        let input = format!("{}\n{}\n", hello.encode(), ToWorker::Shutdown.encode());
        let mut output = Vec::new();
        let started = std::time::Instant::now();
        let code = run_worker_io(input.as_bytes(), &mut output, &WorkerOptions::default());
        let elapsed = started.elapsed();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(code, 0);
        assert!(
            elapsed < HEARTBEAT_INTERVAL,
            "worker took {elapsed:?} to exit"
        );
        let output = String::from_utf8(output).unwrap();
        let last = output.lines().last().expect("worker output");
        assert!(
            matches!(FromWorker::decode(last), Ok(FromWorker::Bye { .. })),
            "{output}"
        );
    }
}
