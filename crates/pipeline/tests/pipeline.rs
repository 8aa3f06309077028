//! End-to-end pipeline tests: artifact-cache round-trips, content-key
//! invalidation, and the determinism guarantee (`--jobs 1` ≡ `--jobs N`).

use prism_pipeline::{Json, Session};
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

/// A session insulated from ambient env knobs (`PRISM_FAULTS`,
/// `PRISM_MAX_NODES`, `PRISM_DIVERGENCE`), so these determinism and cache
/// tests hold even under the CI fault-injection matrix.
fn clean_session() -> Session {
    Session::new()
        .with_tracer(quick_tracer())
        .with_jobs(1)
        .with_faults(None)
        .with_budget(ExecBudget::unlimited())
        .with_divergence_guard(None)
        .with_store_cap(None)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("prism-pipeline-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

#[test]
fn artifact_cache_roundtrip_hits_on_second_run() {
    let dir = temp_dir("roundtrip");
    let (cores, subsets) = small_grid();
    let workloads = micro_set();

    // Cold run: every point is a miss, then gets stored.
    let cold = clean_session().with_store_dir(&dir);
    let first = cold
        .evaluate_designs(&workloads, &cores, &subsets)
        .into_strict()
        .expect("cold run");
    let s = cold.stats();
    assert_eq!(s.artifacts.hits, 0);
    // Every design point misses once, and each distinct timing shape
    // attempts (and misses) a timing-artifact load before its walk.
    assert_eq!(
        s.artifacts.misses,
        (cores.len() * subsets.len()) as u64 + s.trace_walks,
        "{s:?}"
    );

    // Warm run in a fresh session: every point loads from disk — no
    // tracing happens at all (the workload memo stays empty).
    let warm = clean_session().with_store_dir(&dir);
    let second = warm
        .evaluate_designs(&workloads, &cores, &subsets)
        .into_strict()
        .expect("warm run");
    let s = warm.stats();
    assert_eq!(s.artifacts.misses, 0, "warm run must not miss");
    assert_eq!(s.artifacts.hits, (cores.len() * subsets.len()) as u64);
    assert_eq!(s.memo_misses, 0, "warm run must not prepare any workload");

    // Loaded results are bit-identical to computed ones.
    assert_eq!(first, second);
}

#[test]
fn tracer_config_change_invalidates_artifacts() {
    let dir = temp_dir("tracer-invalidation");
    let (cores, subsets) = small_grid();
    let workloads = micro_set();

    let a = clean_session().with_store_dir(&dir);
    a.evaluate_designs(&workloads, &cores, &subsets)
        .into_strict()
        .expect("first run");

    // Same store, different tracer: every key changes, so nothing hits.
    let other = TracerConfig {
        max_insts: 10_000,
        ..quick_tracer()
    };
    let b = clean_session().with_tracer(other).with_store_dir(&dir);
    b.evaluate_designs(&workloads, &cores, &subsets)
        .into_strict()
        .expect("second run");
    let s = b.stats();
    assert_eq!(
        s.artifacts.hits, 0,
        "changed tracer config must miss every artifact"
    );
    // Changed trace identity changes timing shapes too, so each walk's
    // load-before-walk also misses.
    assert_eq!(
        s.artifacts.misses,
        (cores.len() * subsets.len()) as u64 + s.trace_walks,
        "{s:?}"
    );
}

#[test]
fn corrupt_artifact_recomputes_instead_of_failing() {
    let dir = temp_dir("corrupt");
    let (cores, subsets) = small_grid();
    let workloads = micro_set();

    let a = clean_session().with_store_dir(&dir);
    let first = a
        .evaluate_designs(&workloads, &cores, &subsets)
        .into_strict()
        .expect("first run");

    // Truncate one *design* artifact and swap valid JSON of the wrong
    // shape into another; both must be treated as misses and recomputed.
    // (Timing artifacts — payloads carrying `timeline_len` — share the
    // store; skip them so exactly two design points are hit.)
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            let text = std::fs::read_to_string(p).expect("read artifact");
            let doc = Json::parse(&text).expect("parse artifact");
            doc.get("payload")
                .map(|pl| pl.get("timeline_len").is_none())
                .unwrap_or(true)
        })
        .collect();
    files.sort();
    std::fs::write(&files[0], "{ truncated").expect("corrupt file");
    std::fs::write(&files[1], Json::Obj(vec![]).to_string()).expect("wrong shape");

    let b = clean_session().with_store_dir(&dir);
    let second = b
        .evaluate_designs(&workloads, &cores, &subsets)
        .into_strict()
        .expect("recovery run");
    assert_eq!(first, second);
    let s = b.stats();
    assert_eq!(s.artifacts.misses, 2, "{s:?}");
    // The 6 intact design points hit, and the 2 recomputed points reuse
    // the first run's (uncorrupted) timing artifacts instead of walking.
    assert_eq!(
        s.artifacts.hits,
        (cores.len() * subsets.len()) as u64 - 2 + s.timing_artifacts_loaded,
        "{s:?}"
    );
    assert_eq!(s.trace_walks, 0, "timing artifacts must cover the walks");
}

#[test]
fn parallel_and_sequential_runs_are_bit_identical() {
    let (cores, subsets) = small_grid();
    let workloads = micro_set();

    let seq = clean_session();
    let data = seq.prepare_batch(&workloads).expect("prepare");
    let sequential = seq.explore_grid(&data, &cores, &subsets);

    for jobs in [2, 4] {
        let par = clean_session().with_jobs(jobs);
        let data = par.prepare_batch(&workloads).expect("prepare");
        let parallel = par.explore_grid(&data, &cores, &subsets);
        assert_eq!(
            sequential, parallel,
            "jobs={jobs} must produce bit-identical DesignResults to jobs=1"
        );
    }
}

#[test]
fn deleting_the_store_forces_a_clean_recompute() {
    let dir = temp_dir("cold");
    let (cores, subsets) = small_grid();
    let workloads = micro_set();

    let a = clean_session().with_store_dir(&dir);
    let first = a
        .evaluate_designs(&workloads, &cores, &subsets)
        .into_strict()
        .expect("first run");

    // The supported way to force a cold run (PRISM_REFRESH was removed):
    // delete the store directory.
    std::fs::remove_dir_all(&dir).expect("remove store");
    let b = clean_session().with_store_dir(&dir);
    let second = b
        .evaluate_designs(&workloads, &cores, &subsets)
        .into_strict()
        .expect("cold run");
    assert_eq!(first, second);
    assert_eq!(b.stats().artifacts.hits, 0, "cold run cannot hit the store");
    assert!(
        b.stats().memo_misses > 0,
        "cold run must actually recompute"
    );
}
