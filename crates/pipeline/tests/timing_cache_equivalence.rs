//! Equivalence proof for the session's one evaluation path: oracle
//! tables, the shape-keyed timing memo (in-process, cross-variant) and
//! persistent timing artifacts (cross-process, via the content-addressed
//! store) must be pure caches. Every sweep they accelerate — cold, warm,
//! faulted, streamed, corrupt-store — must be **byte-identical** to the
//! unmemoized model ([`reference`]), and a corrupt timing artifact must
//! degrade to recompute, never to an error or a changed result.

use std::sync::Arc;

use prism_exocore::{all_bsa_subsets, all_cores, DesignPoint, DesignResult, WorkloadData};
use prism_pipeline::{FaultPlan, Session, SweepReport};
use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::{CoreConfig, ExecBudget};
use prism_workloads::Workload;

fn quick_tracer() -> TracerConfig {
    TracerConfig {
        max_insts: 4_000,
        ..TracerConfig::default()
    }
}

/// A session insulated from ambient env knobs, writing artifacts under
/// the given per-test store directory (shared across sessions of one
/// test to model warm restarts; pass a fresh tag for a cold store).
fn session_at(dir: &std::path::Path) -> Session {
    Session::new()
        .with_tracer(quick_tracer())
        .with_jobs(2)
        .with_faults(None)
        .with_budget(ExecBudget::unlimited())
        .with_divergence_guard(None)
        .with_store_cap(None)
        .with_store_dir(dir)
}

/// A fresh (removed) store directory unique to this test.
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("prism-timing-equiv-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The sweep the session must reproduce, built from the model crates
/// alone — no memo, keys, store or fault hooks: per core, one
/// [`prism_exocore::oracle_table`] per workload, then a full
/// [`prism_exocore::evaluate_point`] (one unshared trace walk per
/// workload) per subset, sorted by label like a [`SweepReport`].
fn reference(
    workloads: &[&Workload],
    cores: &[CoreConfig],
    subsets: &[Vec<BsaKind>],
) -> Vec<DesignResult> {
    let data: Vec<WorkloadData> = workloads
        .iter()
        .map(|w| {
            WorkloadData::prepare_with(&(w.build)(w.scaled_n()), &quick_tracer())
                .expect("registry workloads trace")
        })
        .collect();
    let mut results = Vec::with_capacity(cores.len() * subsets.len());
    for core in cores {
        let tables: Vec<_> = data
            .iter()
            .map(|w| prism_exocore::oracle_table(w, core))
            .collect();
        for bsas in subsets {
            let point = DesignPoint::new(core.clone(), bsas.clone());
            results.push(prism_exocore::evaluate_point(&data, &tables, &point));
        }
    }
    results.sort_by(|a, b| a.label.cmp(&b.label));
    results
}

fn registry() -> Vec<&'static Workload> {
    prism_workloads::ALL.iter().collect()
}

/// A core that shares IO2's timing shape but not its display name: the
/// design-point key differs (name is priced identity), the µDG shape
/// hash does not.
fn io2_twin() -> CoreConfig {
    let mut core = CoreConfig::io2();
    core.name = "IO2-twin".into();
    core
}

fn small_subsets() -> Vec<Vec<BsaKind>> {
    vec![
        vec![],
        vec![BsaKind::Simd],
        vec![BsaKind::NsDf, BsaKind::TraceP],
        BsaKind::ALL.to_vec(),
    ]
}

/// The byte-exact form we compare: the Debug formatting covers every
/// result field (cycles, energy floats, unit attributions), so not even
/// a ULP may differ.
fn fingerprint(results: &[DesignResult]) -> String {
    format!("{results:?}")
}

/// A healthy sweep's results, failing the test on any quarantine.
fn healthy(report: SweepReport) -> Vec<DesignResult> {
    assert!(
        report.quarantined.is_empty(),
        "healthy sweep expected: {:?}",
        report.quarantined
    );
    report.results
}

#[test]
fn full_registry_sweep_matches_the_reference() {
    let workloads = registry();
    let (cores, subsets) = (all_cores(), all_bsa_subsets());
    let swept = session_at(&fresh_dir("full")).evaluate_designs(&workloads, &cores, &subsets);
    assert_eq!(
        fingerprint(&healthy(swept)),
        fingerprint(&reference(&workloads, &cores, &subsets))
    );
}

#[test]
fn faulted_sweep_survivors_match_the_reference() {
    // Deterministic fault plan (as if via PRISM_FAULTS): trace truncation
    // quarantines workloads, evaluate-stage panics quarantine points.
    let plan = || {
        Arc::new(
            FaultPlan::parse("trace-truncate:0.05,stage-panic:evaluate:2,seed=7")
                .expect("valid spec"),
        )
    };
    let workloads = registry();
    let cores = vec![CoreConfig::io2(), CoreConfig::ooo4()];
    let subsets = small_subsets();
    let report = session_at(&fresh_dir("faults"))
        .with_faults(Some(plan()))
        .evaluate_designs(&workloads, &cores, &subsets);

    let (_, dropped) = session_at(&fresh_dir("faults-prepare"))
        .with_faults(Some(plan()))
        .prepare_quarantined(&workloads);
    assert!(
        !dropped.is_empty(),
        "trace truncation must fire for this test to mean anything"
    );
    let kept: Vec<&Workload> = workloads
        .iter()
        .copied()
        .filter(|w| dropped.iter().all(|(name, _)| name != w.name))
        .collect();
    let expected = reference(&kept, &cores, &subsets);

    let points_quarantined = report
        .quarantined
        .iter()
        .filter(|(unit, _)| !unit.starts_with("workload:"))
        .count();
    assert!(points_quarantined > 0, "evaluate panics must fire");
    assert_eq!(
        report.results.len() + points_quarantined,
        cores.len() * subsets.len()
    );
    for result in &report.results {
        let want = expected
            .iter()
            .find(|r| r.label == result.label)
            .expect("every surviving label is in the reference");
        assert_eq!(format!("{result:?}"), format!("{want:?}"));
    }
}

#[test]
fn warm_store_sweep_is_byte_identical_and_walk_free() {
    let workloads = registry();
    let cores = vec![CoreConfig::io2(), CoreConfig::ooo4()];
    let subsets = small_subsets();

    let warm_dir = fresh_dir("warm");
    let cold = healthy(session_at(&warm_dir).evaluate_designs(&workloads, &cores, &subsets));
    assert_eq!(
        fingerprint(&cold),
        fingerprint(&reference(&workloads, &cores, &subsets))
    );

    // A fresh session over the same store models a warm process restart:
    // byte-identical output, zero trace walks.
    let warm_session = session_at(&warm_dir);
    let warm = healthy(warm_session.evaluate_designs(&workloads, &cores, &subsets));
    let stats = warm_session.stats();
    assert_eq!(fingerprint(&cold), fingerprint(&warm));
    assert_eq!(stats.trace_walks, 0, "warm run must not walk: {stats:?}");
}

#[test]
fn shape_sharing_core_reuses_walks_in_process() {
    let workloads = registry();
    let subsets = small_subsets();

    // Walk count for IO2 alone, with the store disabled as a source
    // (cold dir) so every walk is really performed.
    let solo_session = session_at(&fresh_dir("solo"));
    let _ = solo_session.evaluate_designs(&workloads, &[CoreConfig::io2()], &subsets);
    let solo_walks = solo_session.stats().trace_walks;
    assert!(solo_walks > 0, "cold run must walk");

    // IO2 plus its renamed twin in one session: the twin's timing comes
    // from the shape-keyed memo, so the walk count must not grow.
    let pair_session = session_at(&fresh_dir("pair"));
    let pair =
        pair_session.evaluate_designs(&workloads, &[CoreConfig::io2(), io2_twin()], &subsets);
    let stats = pair_session.stats();
    assert_eq!(
        stats.trace_walks, solo_walks,
        "twin core must add zero walks: {stats:?}"
    );
    assert!(stats.shape_memo_hits > 0, "memo must be hit: {stats:?}");

    // The twin's results are byte-identical to the reference model's.
    let twin_in_pair: Vec<DesignResult> = healthy(pair)
        .into_iter()
        .filter(|r| r.label.contains("IO2-twin"))
        .collect();
    assert!(!twin_in_pair.is_empty());
    assert_eq!(
        fingerprint(&twin_in_pair),
        fingerprint(&reference(&workloads, &[io2_twin()], &subsets))
    );
}

#[test]
fn timing_artifacts_warm_a_fresh_process_across_core_variants() {
    let workloads = registry();
    let subsets = small_subsets();
    let dir = fresh_dir("across");

    // Cold run settles IO2's timing artifacts into the store.
    let _ = session_at(&dir).evaluate_designs(&workloads, &[CoreConfig::io2()], &subsets);

    // A fresh session evaluates only the renamed twin: its design-point
    // results are not in the store (the name differs), but its timing
    // shape is — so it prices loaded summaries instead of walking.
    let warm_session = session_at(&dir);
    let warm = healthy(warm_session.evaluate_designs(&workloads, &[io2_twin()], &subsets));
    let stats = warm_session.stats();
    assert_eq!(stats.trace_walks, 0, "twin must not walk: {stats:?}");
    assert!(
        stats.timing_artifacts_loaded > 0,
        "timing artifacts must load: {stats:?}"
    );
    assert_eq!(
        fingerprint(&warm),
        fingerprint(&reference(&workloads, &[io2_twin()], &subsets))
    );
}

#[test]
fn oracle_tables_rebuild_from_stored_walks() {
    let workloads = registry();
    let core = CoreConfig::io2();
    let dir = fresh_dir("oracle");
    let cold = session_at(&dir).evaluate_designs(
        &workloads,
        std::slice::from_ref(&core),
        &small_subsets(),
    );
    healthy(cold);

    // A fresh session over the filled store prices every table from
    // stored walks: the baseline's and each candidate's.
    let session = session_at(&dir);
    let mut runs = 0;
    for w in &workloads {
        let prepared = session.prepare(w).expect("registry workloads prepare");
        let table = session
            .oracle_table(&prepared, &core)
            .expect("unlimited budget");
        let want = prism_exocore::oracle_table(&prepared, &core);
        // Debug covers the baseline and every candidate's lid, kind,
        // cycles, energy, ed_gain and perf_ok, floats to the bit.
        assert_eq!(format!("{table:?}"), format!("{want:?}"), "{}", w.name);
        runs += 1 + table.candidates.len() as u64;
    }
    let stats = session.stats();
    assert_eq!(stats.trace_walks, 0, "tables must not walk: {stats:?}");
    assert_eq!(stats.timing_artifacts_loaded, runs, "{stats:?}");
}

#[test]
fn corrupt_timing_artifacts_degrade_to_recompute() {
    let workloads = registry();
    let subsets = small_subsets();
    let dir = fresh_dir("corrupt");

    let _ = session_at(&dir).evaluate_designs(&workloads, &[CoreConfig::io2()], &subsets);

    // Corrupt every stored artifact in place (timing summaries included).
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).expect("store dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            std::fs::write(&path, b"{ not an envelope").expect("overwrite artifact");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "the cold run must have stored artifacts");

    // The warm twin run now finds only garbage: it must silently fall
    // back to walking and still produce byte-identical results.
    let warm_session = session_at(&dir);
    let warm = healthy(warm_session.evaluate_designs(&workloads, &[io2_twin()], &subsets));
    let stats = warm_session.stats();
    assert!(stats.trace_walks > 0, "must recompute: {stats:?}");
    assert_eq!(stats.timing_artifacts_loaded, 0, "{stats:?}");
    assert_eq!(
        fingerprint(&warm),
        fingerprint(&reference(&workloads, &[io2_twin()], &subsets))
    );
}

#[test]
fn faulted_store_sweep_matches_the_reference() {
    // As if via site-seeded PRISM_FAULTS: injected store I/O failures and
    // artifact corruption hit the timing cache too, and must only ever
    // degrade it to recompute.
    let plan = Arc::new(
        FaultPlan::parse("store-io:0.05,artifact-corrupt:0.10,seed=11").expect("valid spec"),
    );
    let workloads = registry();
    let cores = vec![CoreConfig::io2(), io2_twin()];
    let subsets = small_subsets();

    let swept = session_at(&fresh_dir("faults-store"))
        .with_faults(Some(plan))
        .evaluate_designs(&workloads, &cores, &subsets);
    assert_eq!(
        fingerprint(&healthy(swept)),
        fingerprint(&reference(&workloads, &cores, &subsets))
    );
}
