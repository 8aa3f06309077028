//! Kill-anywhere crash/resume property test (`harness = false`: this
//! binary re-invokes *itself* as the crashing child — and as a grid
//! worker — so it must own `main` and stdout).
//!
//! Property: for every crash kill site, killing a sweep at that
//! site and re-running with `--resume` produces stdout byte-identical to
//! an uninterrupted run, replays every unit the journal recorded as done
//! (zero of them recomputed), and recomputes exactly the units whose
//! artifacts never became durable.
//!
//! Topology: the parent (this test) spawns children via `current_exe()`
//! with `CRASH_KILL_CHILD=explore|grid`. The explore child runs a
//! journaled in-process sweep; the grid child runs a 2-worker grid whose
//! workers are further re-invocations of this binary. The parent injects
//! `PRISM_FAULTS=crash:<site>@<n>`, expects exit code 137, inspects the
//! journal and store it left behind, then resumes and diffs. The cross
//! scenario kills one mode and resumes with the other: both keep one
//! journal.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use prism::grid::{run_grid, run_worker_if_env, GridConfig};
use prism::pipeline::{
    journal_path, sweep_key, JournalReplay, Json, Session, SweepReport, CRASH_EXIT_CODE,
    FAULTS_ENV, SITE_GRID_FRAME, SITE_JOURNAL_APPEND, SITE_STORE_PUT, SITE_UNIT_COMPLETE,
};
use prism::sim::TracerConfig;
use prism::tdg::BsaKind;
use prism::udg::CoreConfig;
use prism::workloads::{Workload, MICRO};

// The test's own variables stay outside the `PRISM_` namespace, which
// `Session::new` reserves for the knobs prism reads.
const CHILD_ENV: &str = "CRASH_KILL_CHILD";
const STORE_ENV: &str = "CRASH_KILL_STORE";
const RESUME_ENV: &str = "CRASH_KILL_RESUME";
const STATS_ENV: &str = "CRASH_KILL_STATS";
const MAX_INSTS: u64 = 20_000;

fn quick_tracer() -> TracerConfig {
    TracerConfig {
        max_insts: MAX_INSTS,
        ..TracerConfig::default()
    }
}

fn micro_set() -> Vec<&'static Workload> {
    MICRO.iter().take(3).collect()
}

fn small_grid() -> (Vec<CoreConfig>, Vec<Vec<BsaKind>>) {
    (
        vec![CoreConfig::io2(), CoreConfig::ooo2()],
        vec![
            vec![],
            vec![BsaKind::Simd],
            vec![BsaKind::NsDf],
            BsaKind::ALL.to_vec(),
        ],
    )
}

fn test_sweep_key() -> prism::pipeline::ContentHash {
    let (cores, subsets) = small_grid();
    let workloads: Vec<(String, u32)> = micro_set()
        .iter()
        .map(|w| (w.name.to_string(), w.scaled_n()))
        .collect();
    sweep_key(&workloads, &quick_tracer(), &cores, &subsets)
}

/// Prints a report to stdout in a deterministic, byte-comparable form.
fn print_report(report: &SweepReport) {
    for r in &report.results {
        println!("{r:?}");
    }
    for (key, err) in &report.quarantined {
        println!("quarantined {key}: {err}");
    }
}

fn write_stats_file(line: String) {
    if let Ok(path) = std::env::var(STATS_ENV) {
        std::fs::write(path, line).expect("write stats file");
    }
}

/// Child mode: journaled in-process sweep over the small space.
fn child_explore() -> ! {
    let store = std::env::var(STORE_ENV).expect("child needs a store dir");
    let resume = std::env::var(RESUME_ENV).is_ok();
    let session = Session::new()
        .with_tracer(quick_tracer())
        .with_jobs(2)
        .with_store_dir(PathBuf::from(store))
        .with_faults(None);
    let (cores, subsets) = small_grid();
    let report = session.evaluate_designs_resumable(&micro_set(), &cores, &subsets, resume);
    print_report(&report);
    let stats = session.stats();
    // `recomputes` counts every store save — design results *and* timing
    // artifacts (oracle walk packs and single walks) — so the parent
    // subtracts `timing_written` to recover the design-result recompute
    // count.
    write_stats_file(format!(
        "resumed={} replayed={} recomputes={} timing_written={}\n",
        stats.resumed,
        stats.replayed,
        stats.artifacts.recomputes,
        stats.timing_written.artifacts()
    ));
    std::process::exit(report.exit_code());
}

/// Child mode: 2-worker grid sweep over the same space. The workers are
/// re-invocations of this binary (caught by `run_worker_if_env`).
fn child_grid() -> ! {
    let store = PathBuf::from(std::env::var(STORE_ENV).expect("child needs a store dir"));
    let resume = std::env::var(RESUME_ENV).is_ok();
    let (cores, subsets) = small_grid();
    let config = GridConfig {
        workers: 2,
        hosts: Vec::new(),
        shard_retries: 1,
        workloads: micro_set().iter().map(|w| w.name.to_string()).collect(),
        cores,
        subsets,
        max_insts: MAX_INSTS,
        artifact_dir: store,
        worker_cmd: None, // this very binary, re-entered via main()
        heartbeat_timeout: Duration::from_secs(10),
        window: 2,
        env: Vec::new(),
        // Workers must not inherit the kill spec: the property under test
        // is a *coordinator* kill (worker deaths are grid_smoke's domain).
        env_remove: vec![FAULTS_ENV.into(), CHILD_ENV.into()],
        net_faults: None,
        resume,
    };
    match run_grid(&config) {
        Ok(outcome) => {
            print_report(&outcome.report);
            write_stats_file(format!(
                "resumed={} replayed={}\n",
                outcome.stats.resumed, outcome.stats.replayed
            ));
            std::process::exit(outcome.report.exit_code());
        }
        Err(e) => {
            eprintln!("grid error: {e}");
            std::process::exit(3);
        }
    }
}

struct ChildRun {
    status: Option<i32>,
    stdout: String,
}

fn run_child(mode: &str, store: &Path, crash: Option<&str>, resume: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("current exe");
    let mut cmd = Command::new(exe);
    cmd.env(CHILD_ENV, mode)
        .env(STORE_ENV, store)
        .env_remove(FAULTS_ENV)
        .env_remove(RESUME_ENV)
        .env_remove(STATS_ENV);
    if let Some(spec) = crash {
        cmd.env(FAULTS_ENV, format!("crash:{spec}"));
    }
    if resume {
        cmd.env(RESUME_ENV, "1");
        cmd.env(STATS_ENV, store.join("stats.txt"));
    }
    let out = cmd.output().expect("spawn child");
    ChildRun {
        status: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("utf8 stdout"),
    }
}

/// Reads the `key=value` stats line the resumed child wrote.
fn read_stats(store: &Path, key: &str) -> u64 {
    let text = std::fs::read_to_string(store.join("stats.txt")).expect("stats file");
    text.split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("stats line lacks {key}: {text:?}"))
}

/// Point-result artifacts currently durable in the store (top level only;
/// journals live in a subdirectory). Timing artifacts share the flat
/// namespace but are pure cache warmth, so a design result is told apart
/// by its payload shape (an object with `per_workload`; a walk is an
/// object without it, an oracle walk pack an array) and the rest are
/// excluded from the recompute accounting.
fn artifacts_on_disk(store: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(store) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.ends_with(".json") && !n.contains(".tmp."))
        })
        .filter(|e| {
            std::fs::read_to_string(e.path())
                .ok()
                .and_then(|text| Json::parse(&text).ok())
                .and_then(|doc| doc.get("payload").map(|p| p.get("per_workload").is_some()))
                .unwrap_or(false)
        })
        .count() as u64
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prism-kill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One explore kill/resume round: kill at `site@hit`, then resume and
/// check byte-identity plus the recompute accounting.
fn explore_round(reference: &str, site: &str, hit: u64) {
    let total = 8u64; // 2 cores × 4 subsets
    let store = scratch(&format!("explore-{site}-{hit}"));
    let spec = format!("{site}@{hit}");

    let crashed = run_child("explore", &store, Some(&spec), false);
    assert_eq!(
        crashed.status,
        Some(CRASH_EXIT_CODE),
        "{spec}: child must die at the injected kill point"
    );

    // What survived the kill: the journal's done set and the durable
    // artifacts. `done ⊆ saved` because the store save precedes the
    // journal append.
    let sweep = test_sweep_key();
    let replay = JournalReplay::read(&journal_path(&store, &sweep), &sweep).expect("read journal");
    assert!(!replay.stale, "{spec}: journal must stay readable");
    let done = replay.done.len() as u64;
    let saved = artifacts_on_disk(&store);
    assert!(done <= saved, "{spec}: done={done} saved={saved}");

    let resumed = run_child("explore", &store, None, true);
    assert_eq!(resumed.status, Some(0), "{spec}: resume must finish clean");
    assert_eq!(
        resumed.stdout, reference,
        "{spec}: resumed stdout must be byte-identical"
    );
    assert_eq!(
        read_stats(&store, "resumed"),
        done,
        "{spec}: every journaled unit must be resumed"
    );
    assert_eq!(
        read_stats(&store, "recomputes") - read_stats(&store, "timing_written"),
        total - saved,
        "{spec}: only units without durable artifacts may recompute"
    );
    let _ = std::fs::remove_dir_all(&store);
}

fn scenario_explore_kill_everywhere() {
    let ref_store = scratch("explore-ref");
    let reference = run_child("explore", &ref_store, None, false);
    assert_eq!(reference.status, Some(0));
    assert!(!reference.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&ref_store);

    for site in [SITE_STORE_PUT, SITE_JOURNAL_APPEND, SITE_UNIT_COMPLETE] {
        for hit in [1, 3] {
            explore_round(&reference.stdout, site, hit);
        }
    }
}

fn scenario_grid_coordinator_kill() {
    let ref_store = scratch("grid-ref");
    let reference = run_child("grid", &ref_store, None, false);
    assert_eq!(reference.status, Some(0));
    assert!(!reference.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&ref_store);

    let store = scratch("grid-crash");
    let spec = format!("{SITE_GRID_FRAME}@2");
    let crashed = run_child("grid", &store, Some(&spec), false);
    assert_eq!(
        crashed.status,
        Some(CRASH_EXIT_CODE),
        "{spec}: coordinator must die at the injected kill point"
    );
    // Killed at frame 2: exactly the first frame's unit was journaled.
    let sweep = test_sweep_key();
    let replay = JournalReplay::read(&journal_path(&store, &sweep), &sweep).expect("read journal");
    assert_eq!(replay.done.len(), 1, "{spec}: one unit journaled pre-kill");

    let resumed = run_child("grid", &store, None, true);
    assert_eq!(resumed.status, Some(0), "{spec}: resume must finish clean");
    assert_eq!(
        resumed.stdout, reference.stdout,
        "{spec}: resumed grid stdout must be byte-identical"
    );
    assert_eq!(read_stats(&store, "resumed"), 1);
    let _ = std::fs::remove_dir_all(&store);
}

/// One cross-command round: kill a `killed` child at `spec`, resume the
/// sweep with a `resumer` child, and require the reference stdout with
/// every journaled unit resumed.
fn cross_round(reference: &str, killed: &str, spec: &str, resumer: &str) {
    let store = scratch(&format!("cross-{killed}-{resumer}"));
    let crashed = run_child(killed, &store, Some(spec), false);
    assert_eq!(
        crashed.status,
        Some(CRASH_EXIT_CODE),
        "{killed} {spec}: child must die at the injected kill point"
    );
    let sweep = test_sweep_key();
    let replay = JournalReplay::read(&journal_path(&store, &sweep), &sweep).expect("read journal");
    assert!(
        !replay.done.is_empty(),
        "{killed} {spec}: nothing journaled"
    );

    let resumed = run_child(resumer, &store, None, true);
    assert_eq!(
        resumed.status,
        Some(0),
        "{resumer} resume of a {killed} kill must finish clean"
    );
    assert_eq!(
        resumed.stdout, reference,
        "{resumer} resume of a {killed} kill must be byte-identical"
    );
    assert_eq!(
        read_stats(&store, "resumed"),
        replay.done.len() as u64,
        "{resumer} must resume every unit the {killed} journal holds"
    );
    let _ = std::fs::remove_dir_all(&store);
}

/// DESIGN §11: both commands keep one journal, so a sweep killed under
/// one resumes under the other.
fn scenario_cross_command_resume() {
    let ref_store = scratch("cross-ref");
    let reference = run_child("explore", &ref_store, None, false);
    assert_eq!(reference.status, Some(0));
    let _ = std::fs::remove_dir_all(&ref_store);

    cross_round(
        &reference.stdout,
        "explore",
        &format!("{SITE_UNIT_COMPLETE}@3"),
        "grid",
    );
    cross_round(
        &reference.stdout,
        "grid",
        &format!("{SITE_GRID_FRAME}@2"),
        "explore",
    );
}

fn main() {
    // Worker mode first: the grid child's coordinator re-invokes this
    // binary with PRISM_GRID_WORKER=1, and nothing may touch stdout
    // before this.
    run_worker_if_env();

    // Child modes: crashing/resuming sweep processes spawned below.
    match std::env::var(CHILD_ENV).ok().as_deref() {
        Some("explore") => child_explore(),
        Some("grid") => child_grid(),
        Some(other) => {
            eprintln!("unknown {CHILD_ENV} mode {other}");
            std::process::exit(3);
        }
        None => {}
    }

    // Parent mode: insulate the whole tree (children inherit this
    // environment) from every ambient knob, like the CI fault matrix.
    for (var, _) in std::env::vars_os() {
        if var.to_string_lossy().starts_with("PRISM_") {
            std::env::remove_var(var);
        }
    }
    for var in [STORE_ENV, RESUME_ENV, STATS_ENV] {
        std::env::remove_var(var);
    }

    let scenarios: [(&str, fn()); 3] = [
        (
            "explore: kill at every site, resume byte-identical",
            scenario_explore_kill_everywhere,
        ),
        (
            "grid: kill coordinator mid-sweep, resume byte-identical",
            scenario_grid_coordinator_kill,
        ),
        (
            "cross: kill under one command, resume under the other",
            scenario_cross_command_resume,
        ),
    ];
    let mut failed = 0;
    for (name, scenario) in scenarios {
        eprintln!("--- crash_resume_kill: {name}");
        match std::panic::catch_unwind(scenario) {
            Ok(()) => eprintln!("ok  - {name}"),
            Err(_) => {
                eprintln!("FAIL- {name}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} crash/resume scenario(s) failed");
        std::process::exit(1);
    }
    eprintln!("all crash/resume scenarios passed");
}
