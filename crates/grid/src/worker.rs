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
//! Every worker is the same kind of shard. Its session opens, once, the
//! store its own [`Config::artifact_dir`] names: for a local worker the
//! `PRISM_ARTIFACT_DIR` the coordinator sets, which is the coordinator's
//! own store; for a daemon its `--store`. Every result names the
//! design-point key the worker stored it under.
//!
//! Inside the worker, three threads run:
//!
//! - the **reader** (main thread) parses assignments from the input into a
//!   queue,
//! - the **evaluator** pops units in order and reports one
//!   result-or-quarantine per unit through `evaluate_unit`, the same
//!   evaluator the coordinator's local fallback runs (the session
//!   memoizes preparation and oracle tables, so only a shard's first unit
//!   per core pays for them),
//! - the **heartbeat** thread emits liveness beacons every
//!   [`HEARTBEAT_INTERVAL`] until the
//!   evaluator finishes.
//!
//! Nothing is pushed into a worker's store: the coordinator settles every
//! unit its own store already holds before it spawns or dials anyone, and
//! a worker evaluates what it is assigned through its own session.
//!
//! The `die`, `hang` and `quarantine` entries of a `PRISM_FAULTS` plan
//! ([`prism_pipeline::FaultPlan`]) inject worker failures when a shard
//! starts a given unit.

use std::collections::{BTreeSet, VecDeque};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

use prism_exocore::{bsas_by_codes, core_by_name, DesignPoint};
use prism_pipeline::{
    Config, ContentHash, PipelineError, Session, Stage, SweepReport, WorkerFault,
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
/// shutdown, returning the process exit code. The shard id comes from
/// the coordinator's Hello, the store from `config.artifact_dir`.
#[must_use]
pub fn run_worker(config: &Config) -> i32 {
    let stdin = std::io::stdin();
    run_worker_io(stdin.lock(), std::io::stdout(), config, None)
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
        let reader = match stream.try_clone() {
            Ok(clone) => std::io::BufReader::new(clone),
            Err(e) => {
                eprintln!("[prism-net] shard {shard}: clone failed: {e}");
                return;
            }
        };
        let code = run_worker_io(reader, stream, &config, Some(shard));
        eprintln!("[prism-net] shard {shard}: worker session ended (exit {code})");
    })
}

/// Runs one worker protocol session over the given byte streams until
/// shutdown or EOF, returning what would be the process exit code. This
/// is the transport-agnostic core behind [`run_worker`] (stdin/stdout)
/// and [`serve_tcp`] (one TCP connection per call).
///
/// `config` is the worker's own: its session's jobs and store cap, the
/// store at `config.artifact_dir` (opened once per session), and the
/// fault plan each session parses afresh — the session reads its store
/// and stage kinds, the protocol loop its worker kinds. With
/// `expected_shard`, the Hello's shard must match it or the worker
/// refuses the session; `None` trusts the Hello.
#[must_use]
pub fn run_worker_io<R: BufRead, W: Write + Send>(
    input: R,
    output: W,
    config: &Config,
    expected_shard: Option<usize>,
) -> i32 {
    let out = Mutex::new(output);
    let mut lines = input.lines();

    // Handshake: the first line must be a compatible Hello.
    let first = match lines.next() {
        Some(Ok(line)) => line,
        _ => return 2,
    };
    let (shard, workload_names, max_insts) = match ToWorker::decode(&first) {
        Ok(ToWorker::Hello {
            proto,
            shard: hello_shard,
            workloads,
            max_insts,
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
            if let Some(expected) = expected_shard {
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
            (hello_shard, workloads, max_insts)
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

    // One plan for the session (store and stage kinds) and the protocol
    // loop (worker kinds), fresh for every session.
    let faults = config.fault_plan();
    let session = Session::from_config(config)
        .with_tracer(TracerConfig {
            max_insts,
            ..TracerConfig::default()
        })
        .with_faults(faults.clone());

    // Resolve the workload set. Unknown names drop out: the coordinator
    // resolves the same list and quarantines each one once.
    let workloads: Vec<&'static Workload> = workload_names
        .iter()
        .filter_map(|name| prism_workloads::by_name(name))
        .collect();

    let queue = Mutex::new(UnitQueue {
        pending: VecDeque::new(),
        closing: false,
        finished: false,
    });
    let queue_cv = Condvar::new();
    // Set by an injected hang fault: the worker stalls *and* goes silent,
    // so the coordinator must catch it by heartbeat timeout.
    let hang = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Heartbeat thread: beats until the evaluator finishes, waking
        // for it at once rather than sleeping out the interval.
        scope.spawn(|| loop {
            if !hang.load(Ordering::Relaxed) {
                send(&out, &FromWorker::Heartbeat);
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
                        continue;
                    }
                    None => {}
                }
                started += 1;
                report_unit(&session, &workloads, &unit, &mut reported_workloads, &out);
            }
        });

        // Reader (this thread): feed the queue until shutdown, EOF, or an
        // I/O error (either way the coordinator is gone).
        'reader: while let Some(Ok(line)) = lines.next() {
            match ToWorker::decode(&line) {
                Ok(ToWorker::Assign { id, core, bsas }) => {
                    let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                    q.pending.push_back(QueuedUnit { id, core, bsas });
                    queue_cv.notify_all();
                }
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
            shape_memo_hits: session_stats.shape_memo_hits,
            timing_artifacts_loaded: session_stats.timing_artifacts_loaded,
        },
    );
    0
}

/// The unit's sweep key (Fig. 12 label), derivable without evaluating.
fn unit_label(unit: &QueuedUnit) -> String {
    match (core_by_name(&unit.core), bsas_by_codes(&unit.bsas)) {
        (Some(core), Some(bsas)) => DesignPoint::new(core, bsas).label(),
        _ => format!("{}-{}", unit.core, unit.bsas),
    }
}

/// Evaluates one design point over `workloads`. The returned report
/// always settles the point's label, with a result or a quarantine, also
/// when no healthy workload is left to evaluate; workload-level failures
/// stay in it as `workload:<name>` entries.
///
/// Units arrive one at a time, and a shard gets units of every core, so
/// the session keeps every trace it prepares: each workload is prepared
/// at most once per session, and not at all for a unit the store holds.
/// Dropping a workload's traces after its last unit needs core-affine
/// dispatch first.
pub(crate) fn evaluate_unit(
    session: &Session,
    workloads: &[&Workload],
    core: &CoreConfig,
    bsas: &[BsaKind],
) -> SweepReport {
    let mut report = session.evaluate_designs_keeping_traces(
        workloads,
        std::slice::from_ref(core),
        &[bsas.to_vec()],
    );
    let label = DesignPoint::new(core.clone(), bsas.to_vec()).label();
    if report.results.is_empty() && !report.quarantined.iter().any(|(k, _)| *k == label) {
        let error = PipelineError::new(&label, Stage::Evaluate, "no healthy workloads to evaluate");
        report.quarantined.push((label, error));
    }
    report
}

/// Evaluates one assigned unit and reports exactly one terminal message
/// for it (plus at most one workload-level quarantine per workload per
/// worker). A result names the design-point key it is stored under.
fn report_unit<W: Write>(
    session: &Session,
    workloads: &[&Workload],
    unit: &QueuedUnit,
    reported_workloads: &mut BTreeSet<String>,
    out: &Mutex<W>,
) {
    let label = unit_label(unit);
    let (Some(core), Some(bsas)) = (core_by_name(&unit.core), bsas_by_codes(&unit.bsas)) else {
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
    let report = evaluate_unit(session, workloads, &core, &bsas);
    // The result is keyed over the workloads this report did not
    // quarantine, so the coordinator can store it under the key this
    // store holds it under.
    let healthy: Vec<ContentHash> = workloads
        .iter()
        .filter(|w| {
            !report
                .quarantined
                .iter()
                .any(|(key, _)| key.strip_prefix("workload:") == Some(w.name))
        })
        .map(|w| session.workload_key(w.name, w.scaled_n()))
        .collect();
    let artifacts = vec![session.design_point_key(&healthy, &core, &bsas).hex()];
    for result in report.results {
        send(
            out,
            &FromWorker::UnitResult {
                id: unit.id,
                result,
                artifacts: artifacts.clone(),
            },
        );
    }
    for (key, error) in report.quarantined {
        // A workload-level failure is not tied to this assignment and is
        // re-derived identically by every unit: report it once.
        let id = if key == label {
            Some(unit.id)
        } else if reported_workloads.insert(key.clone()) {
            None
        } else {
            continue;
        };
        send(out, &FromWorker::UnitQuarantine { id, key, error });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker's own configuration: one job, the store at `dir`.
    fn config(dir: &std::path::Path, faults: Option<&str>) -> Config {
        Config {
            jobs: 1,
            artifact_dir: dir.to_path_buf(),
            faults: faults.map(String::from),
            ..Config::default()
        }
    }

    #[test]
    fn shutdown_returns_without_waiting_out_a_heartbeat() {
        let dir = std::env::temp_dir().join(format!("prism-worker-exit-{}", std::process::id()));
        let hello = ToWorker::Hello {
            proto: PROTO_VERSION,
            shard: 0,
            workloads: Vec::new(),
            max_insts: 1_000,
        };
        let input = format!("{}\n{}\n", hello.encode(), ToWorker::Shutdown.encode());
        let mut output = Vec::new();
        let started = std::time::Instant::now();
        let code = run_worker_io(input.as_bytes(), &mut output, &config(&dir, None), None);
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

    /// A v4 coordinator's Hello (which still named a store directory) is
    /// refused before the session starts: one `fatal` naming both
    /// versions, no heartbeat, exit 2.
    #[test]
    fn a_v4_hello_gets_one_fatal_and_no_heartbeat() {
        let dir = std::env::temp_dir().join(format!("prism-worker-v4-{}", std::process::id()));
        let v4_hello = "{\"type\":\"hello\",\"proto\":4,\"shard\":0,\"workloads\":[],\
                        \"max_insts\":1000,\"artifact_dir\":\"prism artifacts\"}";
        let input = format!("{v4_hello}\n{}\n", ToWorker::Shutdown.encode());
        let mut output = Vec::new();
        let code = run_worker_io(input.as_bytes(), &mut output, &config(&dir, None), None);
        let output = String::from_utf8(output).unwrap();
        assert_eq!(code, 2, "{output}");
        let frames: Vec<FromWorker> = output
            .lines()
            .map(|line| FromWorker::decode(line).expect("a v5 frame"))
            .collect();
        let [FromWorker::Fatal { message }] = frames.as_slice() else {
            panic!("expected one fatal, got {frames:?}");
        };
        assert!(
            message.contains("coordinator 4")
                && message.contains(&format!("worker {PROTO_VERSION}")),
            "{message}"
        );
    }

    /// Every worker names the key its own store (`Config::artifact_dir`)
    /// holds the result under — also when a workload's preparation fails
    /// once and then succeeds, so the result covers fewer workloads than
    /// the sweep.
    #[test]
    fn a_worker_names_a_key_its_store_holds() {
        let workloads: Vec<String> = prism_workloads::MICRO
            .iter()
            .take(3)
            .map(|w| w.name.to_string())
            .collect();
        for (tag, faults, covered) in [
            ("healthy", None, 3),
            ("faulted", Some("stage-panic:trace:1"), 2),
        ] {
            let dir =
                std::env::temp_dir().join(format!("prism-worker-key-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let hello = ToWorker::Hello {
                proto: PROTO_VERSION,
                shard: 0,
                workloads: workloads.clone(),
                max_insts: 5_000,
            };
            let assign = ToWorker::Assign {
                id: 0,
                core: "OOO2".into(),
                bsas: "SD".into(),
            };
            let input = format!(
                "{}\n{}\n{}\n",
                hello.encode(),
                assign.encode(),
                ToWorker::Shutdown.encode()
            );
            let mut output = Vec::new();
            let code = run_worker_io(input.as_bytes(), &mut output, &config(&dir, faults), None);
            assert_eq!(code, 0);
            let output = String::from_utf8(output).unwrap();
            let (result, artifacts) = output
                .lines()
                .find_map(|line| match FromWorker::decode(line) {
                    Ok(FromWorker::UnitResult {
                        result, artifacts, ..
                    }) => Some((result, artifacts)),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{tag}: no result frame in {output}"));
            assert_eq!(result.per_workload.len(), covered, "{tag}: {output}");
            assert_eq!(artifacts.len(), 1, "{tag}: {artifacts:?}");
            let key = ContentHash::from_hex(&artifacts[0]).expect("hex key");
            let stored = prism_pipeline::ArtifactStore::new(&dir)
                .load(&key)
                .and_then(|payload| prism_pipeline::decode_design_result(&payload));
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(stored, Some(result), "{tag}: named key not in the store");
        }
    }

    /// A shard keeps every trace it prepares: units of two cores prepare
    /// each workload once, and a unit whose result the store holds
    /// prepares nothing.
    #[test]
    fn units_prepare_each_workload_once_per_session() {
        let dir = std::env::temp_dir().join(format!("prism-worker-prep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = || {
            Session::from_config(&config(&dir, None)).with_tracer(TracerConfig {
                max_insts: 4_000,
                ..TracerConfig::default()
            })
        };
        let workloads: Vec<&Workload> = prism_workloads::MICRO.iter().take(3).collect();
        let units = [
            (CoreConfig::io2(), vec![]),
            (CoreConfig::ooo2(), vec![BsaKind::Simd]),
            (CoreConfig::io2(), BsaKind::ALL.to_vec()),
        ];
        let shard = session();
        for (core, bsas) in &units {
            let report = evaluate_unit(&shard, &workloads, core, bsas);
            assert_eq!(report.results.len(), 1, "{report:?}");
        }
        let prepared = shard.stats().traces_prepared;
        let warm = session();
        let (core, bsas) = &units[1];
        let report = evaluate_unit(&warm, &workloads, core, bsas);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(prepared, workloads.len() as u64);
        assert_eq!(report.results.len(), 1, "{report:?}");
        assert_eq!(
            warm.stats().traces_prepared,
            0,
            "a stored unit prepares nothing"
        );
    }
}
