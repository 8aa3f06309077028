//! Resume-equivalence integration tests for the sweep journal.
//!
//! Property under test: a sweep resumed from a journal produces a report
//! *identical* to an uninterrupted run — results bit-for-bit, quarantines
//! replayed verbatim — while recomputing only units the journal does not
//! record. Composed with site-seeded fault injection (the deterministic
//! `PRISM_FAULTS` kinds), because crash recovery must hold under degraded
//! stores too.
//!
//! The companion kill harness (`tests/crash_resume_kill.rs` at the
//! workspace root) proves the same property across real process kills at
//! every `crash:` site; these tests cover the replay logic itself in the
//! normal harness.

use std::sync::Arc;

use prism_pipeline::hash::Sha256;
use prism_pipeline::{
    encode_pipeline_error, journal_path, sweep_key, FaultPlan, JournalReplay, Json, PipelineError,
    Session, Stage, SweepJournal, SweepReport,
};
use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::{CoreConfig, ExecBudget};
use prism_workloads::{Workload, MICRO};

fn quick_tracer() -> TracerConfig {
    TracerConfig {
        max_insts: 20_000,
        ..TracerConfig::default()
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("prism-resume-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A session insulated from ambient env knobs (CI fault matrix included).
fn clean_session(tag: &str) -> Session {
    Session::new()
        .with_tracer(quick_tracer())
        .with_jobs(1)
        .with_store_dir(temp_dir(tag))
        .with_faults(None)
        .with_budget(ExecBudget::unlimited())
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

/// The sweep key a journaled `evaluate_designs_resumable` over this
/// test's space derives (same inputs, same derivation).
fn test_sweep_key() -> prism_pipeline::ContentHash {
    let (cores, subsets) = small_grid();
    let workloads: Vec<(String, u32)> = micro_set()
        .iter()
        .map(|w| (w.name.to_string(), w.scaled_n()))
        .collect();
    sweep_key(&workloads, &quick_tracer(), &cores, &subsets)
}

fn run_resumable(session: &Session, resume: bool) -> SweepReport {
    let (cores, subsets) = small_grid();
    session.evaluate_designs_resumable(&micro_set(), &cores, &subsets, resume)
}

/// Seeds `dir` with a journal recording the first `count` units of
/// `reference` as done, as a crashed run would have left behind.
fn seed_partial_journal(dir: &std::path::Path, reference: &SweepReport, count: usize) {
    std::fs::create_dir_all(dir).unwrap();
    let sweep = test_sweep_key();
    let (journal, replay) = SweepJournal::open(dir, &sweep, false).unwrap();
    assert_eq!(replay.records, 0);
    for r in reference.results.iter().take(count) {
        journal.append_done(&r.label, r).unwrap();
    }
    // Drop without `remove()`: the file stays, like after a kill.
}

#[test]
fn partial_journal_resumes_to_identical_report() {
    let reference = run_resumable(&clean_session("partial-ref"), false);
    assert!(
        reference.quarantined.is_empty(),
        "{:?}",
        reference.quarantined
    );
    let total = reference.results.len();
    assert_eq!(total, 8);

    // Half the units journaled, nothing in the store: the resumed run
    // must replay those and recompute only the other half.
    let dir = temp_dir("partial");
    seed_partial_journal(&dir, &reference, total / 2);
    let session = clean_session("partial-unused").with_store_dir(&dir);
    let resumed = run_resumable(&session, true);

    assert_eq!(resumed, reference, "resumed report must be identical");
    let stats = session.stats();
    assert_eq!(stats.resumed, (total / 2) as u64, "{stats:?}");
    assert_eq!(stats.replayed, (total / 2) as u64, "{stats:?}");
    // `recomputes` counts every store save, timing artifacts (oracle walk
    // packs and single walks) included — subtract those to get the
    // design-point recomputes.
    assert_eq!(
        stats.artifacts.recomputes - stats.timing_written.artifacts(),
        (total - total / 2) as u64,
        "journaled units must not be recomputed: {stats:?}"
    );
    // The sweep finished clean, so its journal is gone.
    assert!(
        !journal_path(&dir, &test_sweep_key()).exists(),
        "clean finish must remove the journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_diverged_quarantine_is_dropped_and_recomputed() {
    // Builds with the runtime divergence guard journaled its quarantines
    // under error kind `diverged`, which this build no longer decodes.
    // Such a record ends the replay as a dropped record: it is never
    // replayed, nothing panics, and `--resume` recomputes its unit.
    let reference = run_resumable(&clean_session("legacy-ref"), false);
    assert!(
        reference.quarantined.is_empty(),
        "{:?}",
        reference.quarantined
    );
    let total = reference.results.len();
    let dir = temp_dir("legacy");
    seed_partial_journal(&dir, &reference, 2);

    // Append the record as an older build wrote it, checksum included.
    let unit = reference.results[2].label.as_str();
    let mut error = encode_pipeline_error(&PipelineError::new(
        "micro-fetch",
        Stage::Evaluate,
        "uDG IPC 1.0787 vs reference IPC 1.6314 on OOO2: relative error 0.3388 > tolerance 0.2500",
    ));
    if let Json::Obj(fields) = &mut error {
        for (name, value) in fields.iter_mut() {
            if name == "kind" {
                *value = Json::Str("diverged".into());
            }
        }
    }
    let mut sum = Sha256::new();
    sum.update_str(&format!("quarantined\n{unit}\n{error}"));
    let line = format!(
        "{{\"type\":\"quarantined\",\"unit\":{},\"error\":{error},\"sum\":\"{}\"}}\n",
        Json::Str(unit.into()),
        sum.finish().hex()
    );
    let sweep = test_sweep_key();
    let path = journal_path(&dir, &sweep);
    let journal = std::fs::read_to_string(&path).unwrap() + &line;
    std::fs::write(&path, journal).unwrap();

    let replay = JournalReplay::read(&path, &sweep).unwrap();
    assert_eq!((replay.records, replay.dropped), (2, 1));
    assert!(replay.quarantined.is_empty(), "{:?}", replay.quarantined);
    assert!(!replay.done.contains_key(unit));

    let session = clean_session("legacy-unused").with_store_dir(&dir);
    let resumed = run_resumable(&session, true);
    assert_eq!(resumed, reference, "the dropped unit is recomputed");
    let stats = session.stats();
    assert_eq!(stats.resumed, 2, "{stats:?}");
    assert_eq!(
        stats.artifacts.recomputes - stats.timing_written.artifacts(),
        (total - 2) as u64,
        "every unit but the two replayed ones is recomputed: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_journal_is_a_plain_run() {
    let session = clean_session("nojournal");
    let report = run_resumable(&session, true);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(report.results.len(), 8);
    let stats = session.stats();
    assert_eq!(stats.resumed, 0, "{stats:?}");
    assert_eq!(stats.replayed, 0, "{stats:?}");
}

#[test]
fn quarantined_sweep_keeps_journal_and_replays_identical_errors() {
    // A budget every point blows: the whole sweep quarantines, and the
    // journal records each unit's error.
    let dir = temp_dir("quar");
    let broke = clean_session("quar-unused")
        .with_store_dir(&dir)
        .with_budget(ExecBudget::new(100));
    let first = run_resumable(&broke, false);
    assert!(first.results.is_empty());
    assert_eq!(first.quarantined.len(), 8, "{:?}", first.quarantined);
    let sweep = test_sweep_key();
    assert!(
        journal_path(&dir, &sweep).exists(),
        "a quarantined sweep must keep its journal"
    );
    let replay = JournalReplay::read(&journal_path(&dir, &sweep), &sweep).unwrap();
    assert_eq!(replay.quarantined.len(), 8);
    assert_eq!(replay.dropped, 0);

    // Resume with a healthy session: the journaled errors replay verbatim
    // instead of the (now possible) evaluations re-running.
    let healed = clean_session("quar-heal-unused").with_store_dir(&dir);
    let resumed = run_resumable(&healed, true);
    assert_eq!(resumed, first, "replayed errors must match bit-for-bit");
    let stats = healed.stats();
    assert_eq!(stats.resumed, 8, "{stats:?}");
    assert_eq!(stats.artifacts.recomputes, 0, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_composes_with_site_seeded_faults() {
    // Only the site-seeded fault kinds are deterministic across processes
    // and runs (stage-panic is counter-based, so it is excluded): a
    // degraded store (failing I/O, corrupt loads) must not break resume.
    let reference = run_resumable(&clean_session("faults-ref"), false);
    assert!(
        reference.quarantined.is_empty(),
        "{:?}",
        reference.quarantined
    );

    for (tag, plan) in [
        ("store-io", FaultPlan::seeded(11).with_store_io(1.0)),
        (
            "artifact-corrupt",
            FaultPlan::seeded(12).with_artifact_corrupt(1.0),
        ),
    ] {
        let dir = temp_dir(tag);
        seed_partial_journal(&dir, &reference, 5);
        let session = clean_session("faults-unused")
            .with_store_dir(&dir)
            .with_faults(Some(Arc::new(plan)));
        let resumed = run_resumable(&session, true);
        assert_eq!(resumed, reference, "{tag}: resumed under faults");
        assert_eq!(session.stats().resumed, 5, "{tag}: {:?}", session.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn journaled_results_survive_a_resume_where_no_workload_prepares() {
    // Every trace truncates, so no workload prepares on resume: the report
    // is the journal's four results plus one quarantine per workload.
    let reference = run_resumable(&clean_session("noprep-ref"), false);
    assert!(
        reference.quarantined.is_empty(),
        "{:?}",
        reference.quarantined
    );
    let dir = temp_dir("noprep");
    seed_partial_journal(&dir, &reference, 4);
    let session = clean_session("noprep-unused")
        .with_store_dir(&dir)
        .with_faults(Some(Arc::new(
            FaultPlan::seeded(7).with_trace_truncate(1.0),
        )));
    let resumed = run_resumable(&session, true);
    assert_eq!(resumed.results, reference.results[..4]);
    let keys: Vec<String> = resumed.quarantined.iter().map(|(k, _)| k.clone()).collect();
    let mut expected: Vec<String> = micro_set()
        .iter()
        .map(|w| format!("workload:{}", w.name))
        .collect();
    expected.sort();
    assert_eq!(keys, expected);
    assert_eq!(session.stats().resumed, 4, "{:?}", session.stats());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_journal_is_ignored_not_replayed() {
    // A journal for a *different* sweep (other tracer length) under the
    // same store must never leak units into this sweep.
    let dir = temp_dir("foreign");
    std::fs::create_dir_all(&dir).unwrap();
    let (cores, subsets) = small_grid();
    let workloads: Vec<(String, u32)> = micro_set()
        .iter()
        .map(|w| (w.name.to_string(), w.scaled_n()))
        .collect();
    let other_key = sweep_key(
        &workloads,
        &TracerConfig {
            max_insts: 5_000,
            ..TracerConfig::default()
        },
        &cores,
        &subsets,
    );
    let (journal, _) = SweepJournal::open(&dir, &other_key, false).unwrap();
    drop(journal);
    assert_ne!(other_key.hex(), test_sweep_key().hex());
    // Plant the foreign journal at *this* sweep's path: the reader must
    // reject it on the header's sweep key, not the file name.
    std::fs::rename(
        journal_path(&dir, &other_key),
        journal_path(&dir, &test_sweep_key()),
    )
    .unwrap();

    let session = clean_session("foreign-unused").with_store_dir(&dir);
    let report = run_resumable(&session, true);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(session.stats().resumed, 0, "{:?}", session.stats());
    let _ = std::fs::remove_dir_all(&dir);
}
