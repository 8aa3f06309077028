//! Fault-injection integration tests: sweeps under injected stage panics,
//! corrupt artifacts and failing store I/O must isolate failures per unit
//! and keep every healthy point.

use std::sync::Arc;

use prism_pipeline::{ErrorKind, FaultPlan, Session, Stage, SweepReport};
use prism_sim::{TracerConfig, DEFAULT_CHUNK_INSTS};
use prism_tdg::BsaKind;
use prism_udg::CoreConfig;
use prism_workloads::{Workload, MICRO};

mod common;
use common::Store;

fn quick_tracer() -> TracerConfig {
    TracerConfig {
        max_insts: 20_000,
        ..TracerConfig::default()
    }
}

/// A session over `store`, insulated from ambient env knobs, so these
/// tests control fault injection explicitly even under the CI fault
/// matrix.
fn clean_session(store: &Store) -> Session {
    Session::new()
        .with_tracer(quick_tracer())
        .with_jobs(1)
        .with_store_dir(store.path())
        .with_faults(None)
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

fn run_sweep(session: &Session) -> SweepReport {
    let (cores, subsets) = small_grid();
    session.evaluate_designs(&micro_set(), &cores, &subsets)
}

#[test]
fn stage_panics_and_corrupt_artifacts_quarantine_per_point() {
    let (cores, subsets) = small_grid();
    let total = cores.len() * subsets.len();

    // Reference: what a healthy sweep produces.
    let healthy = run_sweep(&clean_session(&Store::new("panic-ref")));
    assert!(healthy.quarantined.is_empty());
    assert_eq!(healthy.results.len(), total);

    // Chaos run: the first two design-point evaluations panic, and every
    // artifact load comes back corrupted (forcing the discard path — the
    // store starts empty here, so corruption only matters for re-loads).
    let plan = FaultPlan::seeded(42)
        .with_stage_panic(Stage::Evaluate, 2)
        .with_artifact_corrupt(1.0);
    let store = Store::new("panic-chaos");
    let session = clean_session(&store).with_faults(Some(Arc::new(plan)));
    let report = run_sweep(&session);

    assert_eq!(report.quarantined.len(), 2, "{:?}", report.quarantined);
    assert_eq!(report.results.len(), total - 2);
    for (key, err) in &report.quarantined {
        assert_eq!(err.kind, ErrorKind::StagePanicked, "{key}: {err}");
        assert_eq!(err.stage, Stage::Evaluate, "{key}: {err}");
        assert!(err.message.contains("injected fault"), "{key}: {err}");
        // Quarantine keys are design-point labels (core name + BSA codes).
        assert!(key.starts_with("IO2") || key.starts_with("OOO2"), "{key}");
    }
    // Healthy points match the reference run bit-for-bit.
    for r in &report.results {
        let reference = healthy
            .results
            .iter()
            .find(|h| h.label == r.label)
            .expect("healthy run covers every label");
        assert_eq!(r, reference);
    }
    assert!(!report.all_failed());
    assert_eq!(report.exit_code(), 0);
    let summary = report.failure_summary().expect("quarantine summary");
    assert!(summary.contains("2 of"), "{summary}");

    // The panic plan is exhausted: a rerun on the same session heals the
    // two quarantined points (healthy ones load from the store).
    let rerun = run_sweep(&session);
    assert!(rerun.quarantined.is_empty(), "{:?}", rerun.quarantined);
    assert_eq!(rerun.results.len(), total);
}

#[test]
fn total_trace_truncation_fails_everything_with_typed_errors() {
    let plan = FaultPlan::seeded(7).with_trace_truncate(1.0);
    let store = Store::new("truncate");
    let session = clean_session(&store).with_faults(Some(Arc::new(plan)));
    let report = run_sweep(&session);

    assert!(report.results.is_empty());
    assert!(report.all_failed());
    assert_eq!(report.exit_code(), 1);
    assert_eq!(report.quarantined.len(), micro_set().len());
    for (key, err) in &report.quarantined {
        assert!(key.starts_with("workload:"), "{key}");
        assert_eq!(err.stage, Stage::Trace, "{err}");
        assert_eq!(err.kind, ErrorKind::Failed, "{err}");
        assert!(err.message.contains("truncated"), "{err}");
    }
}

#[test]
fn dead_store_degrades_to_recompute_with_identical_results() {
    let healthy = run_sweep(&clean_session(&Store::new("deadstore-ref")));

    let plan = FaultPlan::seeded(3).with_store_io(1.0);
    let store = Store::new("deadstore");
    let session = clean_session(&store).with_faults(Some(Arc::new(plan)));
    let report = run_sweep(&session);

    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(report.results, healthy.results);
    let s = session.stats();
    assert!(s.artifacts.io_errors > 0, "{:?}", s.artifacts);
    assert!(s.artifacts.io_retries > 0, "{:?}", s.artifacts);
    assert_eq!(s.artifacts.hits, 0, "a dead store cannot serve hits");
}

#[test]
fn a_panic_in_every_evaluation_quarantines_every_point() {
    // One injected panic per point of the small grid.
    let plan = FaultPlan::seeded(5).with_stage_panic(Stage::Evaluate, 8);
    let store = Store::new("every-point");
    let session = clean_session(&store).with_faults(Some(Arc::new(plan)));
    let report = run_sweep(&session);

    let (cores, subsets) = small_grid();
    assert!(report.results.is_empty());
    assert_eq!(report.quarantined.len(), cores.len() * subsets.len());
    assert!(report.all_failed());
    for (_, err) in &report.quarantined {
        assert_eq!(err.kind, ErrorKind::StagePanicked, "{err}");
        assert_eq!(err.stage, Stage::Evaluate, "{err}");
    }
}

#[test]
fn env_driven_fault_plan_still_completes_the_sweep() {
    // Under the CI fault matrix (PRISM_FAULTS set) this exercises the
    // whole chaos path end-to-end; without it, it's a plain healthy sweep.
    // Either way: no aborts, and every grid point is accounted for.
    let store = Store::new("env-driven");
    let session = Session::new()
        .with_tracer(quick_tracer())
        .with_jobs(2)
        .with_store_dir(store.path());
    let (cores, subsets) = small_grid();
    let report = session.evaluate_designs(&micro_set(), &cores, &subsets);
    let total = cores.len() * subsets.len();
    let workload_failures = report
        .quarantined
        .iter()
        .filter(|(k, _)| k.starts_with("workload:"))
        .count();
    if workload_failures == micro_set().len() {
        // Everything fell over in preparation; nothing else to account.
        assert!(report.results.is_empty());
    } else {
        assert_eq!(
            report.results.len() + (report.quarantined.len() - workload_failures),
            total,
            "{:?}",
            report.quarantined
        );
    }
}

#[test]
fn worker_link_and_crash_entries_leave_a_session_sweep_untouched() {
    // One `PRISM_FAULTS` plan feeds every layer; the session reads only
    // its store and stage kinds, so a plan holding nothing else sweeps
    // exactly like no plan at all.
    let clean = run_sweep(&clean_session(&Store::new("plane-ref")));
    let plan = FaultPlan::parse(
        "die:0@0,hang:1@0,quarantine:0@1,drop:0@0,delay:1@1,disconnect:0@2,\
         crash:store-put@1,crash:grid-frame@1,seed=9",
    )
    .expect("valid plan");
    let store = Store::new("plane");
    let session = clean_session(&store).with_faults(Some(Arc::new(plan)));
    let report = run_sweep(&session);
    assert_eq!(report, clean);
    let stats = session.stats().artifacts;
    assert_eq!((stats.io_retries, stats.io_errors), (0, 0));
}

#[test]
fn mid_trace_truncation_quarantines_only_its_workload() {
    // Under the default tracer `mm` retires 202 413 insts, four chunks of
    // DEFAULT_CHUNK_INSTS, so a truncation at chunk 1 cuts it mid-trace.
    let mm = prism_workloads::by_name("mm").expect("registered");
    let mut set = vec![mm];
    set.extend(micro_set());
    let tracer = TracerConfig::default();
    let max_chunks = tracer.max_insts.div_ceil(DEFAULT_CHUNK_INSTS as u64);
    let plan_for = |seed| FaultPlan::seeded(seed).with_trace_truncate(0.01);
    // A seed whose roll hits `mm:chunk1` and no other site the set can
    // reach: any workload's gate site or any of its chunk sites.
    let seed = (0..10_000)
        .find(|&seed| {
            let plan = plan_for(seed);
            let clear = |w: &Workload| {
                !plan.truncate_trace(w.name)
                    && (0..max_chunks)
                        .all(|i| !plan.truncate_trace(&format!("{}:chunk{i}", w.name)))
            };
            plan.truncate_trace("mm:chunk1")
                && !plan.truncate_trace("mm")
                && !plan.truncate_trace("mm:chunk0")
                && set[1..].iter().all(|w| clear(w))
        })
        .expect("some seed in 0..10000 truncates only mm, at chunk 1");

    let store = Store::new("mid-trace");
    let session = clean_session(&store)
        .with_tracer(tracer)
        .with_faults(Some(Arc::new(plan_for(seed))));
    let (prepared, failed) = session.prepare_quarantined(&set);
    assert_eq!(failed.len(), 1, "{failed:?}");
    let (name, err) = &failed[0];
    assert_eq!(name, "mm");
    assert_eq!(err.stage, Stage::Trace, "{err}");
    assert!(err.message.contains("truncated at chunk 1"), "{err}");
    assert_eq!(prepared.len(), set.len() - 1);
}
