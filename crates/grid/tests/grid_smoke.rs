//! End-to-end grid smoke tests (`harness = false`: this binary doubles as
//! the grid *worker* when the coordinator re-invokes it with
//! `PRISM_GRID_WORKER=1`, so it must own stdout — libtest's harness
//! chatter would corrupt the line-framed protocol).
//!
//! Scenarios:
//! 1. a 2-worker grid run produces a report byte-identical to a
//!    single-process sweep, and a second run settles every unit from the
//!    store without spawning a worker,
//! 2. an injected worker death mid-sweep loses no units,
//! 3. an injected shard-local quarantine is retried on the other shard
//!    and recovered,
//! 4. a hung (heartbeat-silent) worker is detected and its units
//!    reassigned,
//! 5. with every worker dead, the coordinator falls back to in-process
//!    evaluation,
//! 6. a `--resume` over a fully-journaled sweep assigns zero units (and
//!    spawns no workers at all),
//! 7. the same sweep over two localhost TCP daemons — under an injected
//!    mid-sweep disconnect — matches the single-process report, with the
//!    cut surfacing as `recovered`, and leaves one result per unit in the
//!    coordinator's store; a warm coordinator then dials no daemon,
//! 8. over a store that holds one core's results, the grid settles those
//!    units itself and evaluates only the other core's,
//! 9. an unknown workload name is one `workload:<name>` quarantine, cold
//!    and warm alike.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use prism_exocore::{all_bsa_subsets, DesignPoint};
use prism_grid::{run_grid, run_worker_if_env, serve_tcp, GridConfig, GridOutcome};
use prism_net::{parse_hosts, NET_TOKEN_ENV};
use prism_pipeline::{
    run_fsck, sweep_key, Config, FaultPlan, Session, SweepJournal, SweepReport, FAULTS_ENV,
};
use prism_sim::TracerConfig;
use prism_udg::CoreConfig;
use prism_workloads::Workload;

const MAX_INSTS: u64 = 20_000;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prism-grid-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workload_names() -> Vec<String> {
    prism_workloads::MICRO
        .iter()
        .take(3)
        .map(|w| w.name.to_string())
        .collect()
}

fn workload_refs() -> Vec<&'static Workload> {
    prism_workloads::MICRO.iter().take(3).collect()
}

fn small_grid() -> (Vec<CoreConfig>, Vec<Vec<prism_tdg::BsaKind>>) {
    let cores = vec![CoreConfig::io2(), CoreConfig::ooo2()];
    let subsets = all_bsa_subsets().into_iter().take(4).collect();
    (cores, subsets)
}

fn config(workers: usize, dir: &Path) -> GridConfig {
    let (cores, subsets) = small_grid();
    GridConfig {
        workers,
        hosts: Vec::new(),
        shard_retries: 1,
        workloads: workload_names(),
        cores,
        subsets,
        max_insts: MAX_INSTS,
        artifact_dir: dir.to_path_buf(),
        worker_cmd: None, // this very binary, re-entered via main()
        heartbeat_timeout: Duration::from_secs(10),
        window: 2,
        env: Vec::new(),
        env_remove: Vec::new(),
        net_faults: None,
        resume: false,
    }
}

fn expected_labels() -> Vec<String> {
    let (cores, subsets) = small_grid();
    let mut labels: Vec<String> = cores
        .iter()
        .flat_map(|c| {
            subsets
                .iter()
                .map(|s| DesignPoint::new(c.clone(), s.clone()).label())
        })
        .collect();
    labels.sort();
    labels
}

fn labels_of(report: &SweepReport) -> Vec<String> {
    report.results.iter().map(|r| r.label.clone()).collect()
}

fn run(config: &GridConfig) -> GridOutcome {
    run_grid(config).expect("grid run must start")
}

fn single_process_session(dir: &Path) -> Session {
    Session::new()
        .with_tracer(TracerConfig {
            max_insts: MAX_INSTS,
            ..TracerConfig::default()
        })
        .with_store_dir(dir)
        .with_faults(None)
}

fn single_process_baseline(dir: &Path) -> SweepReport {
    let (cores, subsets) = small_grid();
    single_process_session(dir).evaluate_designs(&workload_refs(), &cores, &subsets)
}

fn scenario_equivalence() {
    let dir_single = scratch_dir("single");
    let dir_grid = scratch_dir("grid");
    let baseline = single_process_baseline(&dir_single);
    assert!(
        baseline.quarantined.is_empty(),
        "{:?}",
        baseline.quarantined
    );

    let outcome = run(&config(2, &dir_grid));
    assert_eq!(
        outcome.report, baseline,
        "grid report must be byte-identical to the single-process sweep"
    );
    assert_eq!(outcome.stats.workers_died, 0);
    assert_eq!(outcome.stats.local_fallback_units, 0);

    // A second grid run over the same store settles every unit from it,
    // as explore's fast path would, and starts no worker.
    let warm = run(&config(2, &dir_grid));
    assert_eq!(warm.report, baseline, "warm grid run must match");
    assert_eq!(warm.stats.workers_spawned, 0, "{:?}", warm.stats);
    assert_eq!(
        warm.stats.cached,
        expected_labels().len(),
        "{:?}",
        warm.stats
    );
    assert_eq!(warm.stats.walks, 0, "{:?}", warm.stats);

    let _ = std::fs::remove_dir_all(&dir_single);
    let _ = std::fs::remove_dir_all(&dir_grid);
}

fn scenario_worker_death() {
    let dir = scratch_dir("death");
    let mut cfg = config(2, &dir);
    // Shard 0 crashes when it starts its second unit.
    cfg.env.push((FAULTS_ENV.into(), "die:0@1".into()));
    let outcome = run(&cfg);
    assert_eq!(
        labels_of(&outcome.report),
        expected_labels(),
        "no unit may be lost to a worker crash"
    );
    assert!(outcome.report.quarantined.is_empty());
    assert_eq!(outcome.stats.workers_died, 1, "{:?}", outcome.stats);
    assert!(
        outcome.stats.units_reassigned >= 1,
        "the dying shard's in-flight units must be reassigned: {:?}",
        outcome.stats
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn scenario_quarantine_retry() {
    let dir = scratch_dir("retry");
    let mut cfg = config(2, &dir);
    // Shard 0 quarantines its first unit without evaluating it; the
    // retry lands on shard 1 and succeeds.
    cfg.env.push((FAULTS_ENV.into(), "quarantine:0@0".into()));
    let outcome = run(&cfg);
    assert_eq!(labels_of(&outcome.report), expected_labels());
    assert!(
        outcome.report.quarantined.is_empty(),
        "retried unit must not stay quarantined: {:?}",
        outcome.report.quarantined
    );
    assert_eq!(
        outcome.report.recovered.len(),
        1,
        "{:?}",
        outcome.report.recovered
    );
    assert_eq!(outcome.stats.units_retried, 1, "{:?}", outcome.stats);
    let summary = outcome.report.failure_summary().expect("summary");
    assert!(summary.contains("recovered on retry"), "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn scenario_hung_worker() {
    let dir = scratch_dir("hang");
    let mut cfg = config(2, &dir);
    cfg.heartbeat_timeout = Duration::from_secs(1);
    // Shard 1 goes silent (no heartbeats, no progress) on its first unit.
    cfg.env.push((FAULTS_ENV.into(), "hang:1@0".into()));
    let outcome = run(&cfg);
    assert_eq!(
        labels_of(&outcome.report),
        expected_labels(),
        "units of a hung worker must be reassigned"
    );
    assert!(outcome.report.quarantined.is_empty());
    assert_eq!(outcome.stats.workers_died, 1, "{:?}", outcome.stats);
    let _ = std::fs::remove_dir_all(&dir);
}

fn scenario_local_fallback() {
    let dir = scratch_dir("fallback");
    let mut cfg = config(1, &dir);
    // The only worker dies before completing anything.
    cfg.env.push((FAULTS_ENV.into(), "die:0@0".into()));
    let outcome = run(&cfg);
    assert_eq!(
        labels_of(&outcome.report),
        expected_labels(),
        "with no workers left, every unit must still evaluate locally"
    );
    assert!(outcome.report.quarantined.is_empty());
    assert_eq!(outcome.stats.workers_died, 1);
    assert_eq!(
        outcome.stats.local_fallback_units,
        expected_labels().len(),
        "{:?}",
        outcome.stats
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resumed coordinator whose journal already settles every unit must
/// assign nothing and spawn no worker, even with a spawnable one (this
/// binary) configured.
fn scenario_resume_assigns_nothing() {
    let dir = scratch_dir("resume");
    let baseline = single_process_baseline(&dir);
    assert!(baseline.quarantined.is_empty());

    // Journal every baseline result as done, exactly as a completed (but
    // quarantine-interrupted) grid run would have left it.
    let (cores, subsets) = small_grid();
    let tracer = TracerConfig {
        max_insts: MAX_INSTS,
        ..TracerConfig::default()
    };
    let wl_sizes: Vec<(String, u32)> = workload_refs()
        .iter()
        .map(|w| (w.name.to_string(), w.scaled_n()))
        .collect();
    let sweep = sweep_key(&wl_sizes, &tracer, &cores, &subsets);
    let (journal, _) = SweepJournal::open(&dir, &sweep, false).expect("journal");
    for result in &baseline.results {
        journal.append_done(&result.label, result).expect("append");
    }
    drop(journal);

    let mut cfg = config(2, &dir);
    cfg.resume = true;
    let outcome = run(&cfg);
    assert_eq!(
        outcome.report, baseline,
        "resume must replay byte-identically"
    );
    assert_eq!(outcome.stats.resumed, expected_labels().len());
    assert_eq!(outcome.stats.workers_spawned, 0, "{:?}", outcome.stats);
    assert_eq!(outcome.stats.units_reassigned, 0, "{:?}", outcome.stats);
    assert_eq!(outcome.stats.local_fallback_units, 0, "{:?}", outcome.stats);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store filled over IO2 alone: the grid settles IO2's units from it and
/// workers evaluate only OOO2's, and the merged report equals the full
/// single-process sweep.
fn scenario_partial_warm() {
    let dir_single = scratch_dir("partial-single");
    let dir = scratch_dir("partial");
    let baseline = single_process_baseline(&dir_single);
    let (cores, subsets) = small_grid();
    let io2 =
        single_process_session(&dir).evaluate_designs(&workload_refs(), &cores[..1], &subsets);
    assert_eq!(io2.results.len(), subsets.len(), "{:?}", io2.quarantined);

    let outcome = run(&config(2, &dir));
    assert_eq!(outcome.report, baseline, "partly warm grid must match");
    assert_eq!(outcome.stats.cached, subsets.len(), "{:?}", outcome.stats);
    assert_eq!(outcome.stats.workers_spawned, 2, "{:?}", outcome.stats);
    let _ = std::fs::remove_dir_all(&dir_single);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unknown workload name quarantines as `workload:<name>` once, from
/// the coordinator, whether workers run (and report it too) or the store
/// settles every unit and none runs.
fn scenario_unknown_workload() {
    let dir = scratch_dir("unknown");
    let mut cfg = config(2, &dir);
    cfg.workloads.push("no-such-workload".into());
    let cold = run(&cfg);
    let warm = run(&cfg);
    assert_eq!(labels_of(&cold.report), expected_labels());
    let keys: Vec<&str> = cold
        .report
        .quarantined
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(keys, ["workload:no-such-workload"], "{:?}", cold.report);
    assert_eq!(warm.report, cold.report, "warm run must match the cold one");
    assert_eq!(cold.stats.workers_spawned, 2, "{:?}", cold.stats);
    assert_eq!(warm.stats.workers_spawned, 0, "{:?}", warm.stats);
    assert_eq!(
        warm.stats.cached,
        expected_labels().len(),
        "{:?}",
        warm.stats
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts one in-process daemon per store on an ephemeral port (their
/// listener threads outlive the scenario) and returns the `--hosts` list.
fn start_daemons(token: &str, stores: &[PathBuf]) -> String {
    let mut hosts = Vec::new();
    for dir in stores {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        hosts.push(format!(
            "127.0.0.1:{}",
            listener.local_addr().expect("addr").port()
        ));
        let config = Config {
            artifact_dir: dir.clone(),
            net_token: token.to_string(),
            ..Config::default()
        };
        std::thread::spawn(move || serve_tcp(listener, config));
    }
    hosts.join(",")
}

/// Tentpole equivalence property: the sweep over two localhost TCP
/// daemons — with a mid-sweep disconnect injected — produces the same
/// report as a single-process run, with the disconnect surfacing as
/// `recovered`, stores each result once in the coordinator's store, and
/// leaves every store clean. A coordinator whose store already holds
/// every result settles every unit itself and dials no daemon.
fn scenario_tcp_equivalence() {
    let token = "smoke-secret";
    std::env::set_var(NET_TOKEN_ENV, token);
    let dir_single = scratch_dir("tcp-single");
    let dir_coord = scratch_dir("tcp-coord");
    let daemon_dirs = [
        scratch_dir("tcp-daemon0"),
        scratch_dir("tcp-daemon1"),
        scratch_dir("tcp-daemon2"),
        scratch_dir("tcp-daemon3"),
    ];
    let baseline = single_process_baseline(&dir_single);
    assert!(baseline.quarantined.is_empty());

    let mut cfg = config(0, &dir_coord);
    cfg.hosts = parse_hosts(&start_daemons(token, &daemon_dirs[..2])).expect("host specs");
    // Cut shard 1's connection after its 2nd inbound frame (frame 0 is
    // the first heartbeat, so this is the frame after it): in-flight
    // units get synthetic quarantines, the link reconnects, and the
    // re-evaluated units surface as recovered.
    cfg.net_faults = Some(Arc::new(
        FaultPlan::parse("disconnect:1@1").expect("fault spec"),
    ));
    let outcome = run(&cfg);

    assert_eq!(
        outcome.report.results, baseline.results,
        "TCP grid results must be byte-identical to the single-process sweep"
    );
    assert!(
        outcome.report.quarantined.is_empty(),
        "{:?}",
        outcome.report.quarantined
    );
    assert!(
        !outcome.report.recovered.is_empty(),
        "the injected disconnect must surface as recovered units"
    );
    assert_eq!(outcome.stats.hosts.len(), 2, "{:?}", outcome.stats);
    assert!(
        outcome.stats.hosts[1].reconnects >= 1,
        "shard 1 must have reconnected: {:?}",
        outcome.stats.hosts
    );
    // Each remote result is stored under the key its daemon named, once,
    // and nothing else crosses into the coordinator's store.
    let coord_fsck = run_fsck(&dir_coord).expect("fsck");
    assert_eq!(
        coord_fsck.artifacts_checked,
        expected_labels().len() as u64,
        "{coord_fsck:?}"
    );

    // The single-process baseline filled `dir_single`: as a coordinator
    // store, it settles every unit, so neither fresh daemon is dialed.
    let mut warm = config(0, &dir_single);
    warm.hosts = parse_hosts(&start_daemons(token, &daemon_dirs[2..])).expect("host specs");
    let warm = run(&warm);
    assert_eq!(warm.report, baseline, "warm coordinator must match");
    assert_eq!(
        warm.stats.cached,
        expected_labels().len(),
        "{:?}",
        warm.stats
    );
    assert_eq!(warm.stats.workers_spawned, 0, "{:?}", warm.stats);
    assert_eq!(warm.stats.walks, 0, "{:?}", warm.stats);

    // The warm run's daemons were never dialed, so they never opened a
    // store: fsck would report each missing directory as an error.
    for dir in [&dir_coord, &dir_single]
        .into_iter()
        .chain(daemon_dirs[..2].iter())
    {
        let report = run_fsck(dir).expect("fsck");
        assert!(report.is_clean(), "{dir:?}: {report:?}");
    }

    std::env::remove_var(NET_TOKEN_ENV);
    let _ = std::fs::remove_dir_all(&dir_single);
    let _ = std::fs::remove_dir_all(&dir_coord);
    for dir in &daemon_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn main() {
    // Worker mode first: the coordinator re-invokes this binary with
    // PRISM_GRID_WORKER=1, and nothing may touch stdout before this.
    run_worker_if_env();

    // Coordinator/test mode: insulate the scenarios (and the workers
    // they spawn, which inherit this environment) from every ambient
    // knob, like the CI fault-injection matrix.
    for (var, _) in std::env::vars_os() {
        if var.to_string_lossy().starts_with("PRISM_") {
            std::env::remove_var(var);
        }
    }

    let scenarios: [(&str, fn()); 9] = [
        ("grid matches single-process sweep", scenario_equivalence),
        ("worker death loses no units", scenario_worker_death),
        (
            "quarantine retries on another shard",
            scenario_quarantine_retry,
        ),
        ("hung worker is detected and drained", scenario_hung_worker),
        (
            "local fallback with no workers left",
            scenario_local_fallback,
        ),
        (
            "resume assigns zero settled units",
            scenario_resume_assigns_nothing,
        ),
        (
            "TCP daemons match single-process sweep",
            scenario_tcp_equivalence,
        ),
        (
            "a partly warm store settles its units",
            scenario_partial_warm,
        ),
        (
            "an unknown workload quarantines once",
            scenario_unknown_workload,
        ),
    ];
    let mut failed = 0;
    for (name, scenario) in scenarios {
        eprintln!("--- grid_smoke: {name}");
        match std::panic::catch_unwind(scenario) {
            Ok(()) => eprintln!("ok  - {name}"),
            Err(_) => {
                eprintln!("FAIL- {name}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} grid smoke scenario(s) failed");
        std::process::exit(1);
    }
    eprintln!("all grid smoke scenarios passed");
}
