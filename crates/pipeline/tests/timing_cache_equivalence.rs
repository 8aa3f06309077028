//! Equivalence proof for the session's one evaluation path: oracle
//! tables, the shape-keyed timing memo (in-process, cross-variant) and
//! persistent timing artifacts (cross-process, via the content-addressed
//! store) must be pure caches. Every sweep they accelerate — cold, warm,
//! faulted, streamed, corrupt-store — must be **byte-identical** to the
//! unmemoized model ([`reference`]), and a corrupt timing artifact must
//! degrade to recompute, never to an error or a changed result.

use std::sync::Arc;

use prism_exocore::{
    all_bsa_subsets, all_cores, headline_claims, oracle_assignments, oracle_pick, DesignPoint,
    DesignResult, WorkloadData,
};
use prism_pipeline::{encode_exo_timing, FaultPlan, Json, Session, SweepReport, TimingWrites};
use prism_sim::TracerConfig;
use prism_tdg::{run_exocore_timing, Assignment, BsaKind};
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
    let data: Vec<WorkloadData> = workloads.iter().map(|w| quick_data(w)).collect();
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

/// `w` on the quick tracer, traced and analysed by the model crates alone.
fn quick_data(w: &Workload) -> WorkloadData {
    WorkloadData::prepare_with(&(w.build)(w.scaled_n()), &quick_tracer())
        .expect("registry and micro workloads trace")
}

fn registry() -> Vec<&'static Workload> {
    prism_workloads::ALL.iter().collect()
}

/// A core that shares IO2's timing shape but not its display name or its
/// SIMD datapath: the design-point key differs (both are priced
/// identity), the µDG shape hash does not. `has_simd` is set so the tests
/// that share walks with the twin also pin that a `-S…` point's core
/// walks as its base core does.
fn io2_twin() -> CoreConfig {
    let mut core = CoreConfig::io2();
    core.name = "IO2-twin".into();
    core.has_simd = true;
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

/// SHA-256 of the full-registry [`reference`]'s [`fingerprint`] (every
/// workload's 4 000-instruction quick trace, 4 cores × 16 subsets).
///
/// Every other comparison in this file sets two paths against each
/// other that both end in `run_exocore_timing`, so a model edit that
/// moves one cycle or one ULP would pass them all. This constant does
/// not: a change to the model's numbers must update it on purpose.
const REFERENCE_SHA256: &str = "ed0df2769531e830c804fa71f8659c0e9562c17c4ca3db4c0ebce1b1f8519498";

/// The reference sweep must also satisfy the paper's headline claims
/// ([`headline_claims`]) on these quick traces; the `headline_claims`
/// binary checks them on full-length ones.
#[test]
fn full_registry_sweep_matches_the_reference() {
    let workloads = registry();
    let (cores, subsets) = (all_cores(), all_bsa_subsets());
    let swept = session_at(&fresh_dir("full")).evaluate_designs(&workloads, &cores, &subsets);
    let reference = reference(&workloads, &cores, &subsets);
    let want = fingerprint(&reference);
    let mut sha = prism_pipeline::hash::Sha256::new();
    sha.update_str(&want);
    assert_eq!(
        sha.finish().hex(),
        REFERENCE_SHA256,
        "the reference model's output moved"
    );
    assert_eq!(fingerprint(&healthy(swept)), want);
    let claims = headline_claims(&reference);
    assert_eq!(claims.len(), 10);
    for claim in claims {
        assert!(claim.holds, "{claim}");
    }
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
    tables_rebuild_from_stored_walks("oracle", ExecBudget::unlimited());
}

/// The execution budget is charged before a walk is requested and never
/// read by one, so a budget that does not trip must find the walks an
/// unlimited session stored.
#[test]
fn budgeted_oracle_tables_rebuild_from_stored_walks() {
    tables_rebuild_from_stored_walks("oracle-budget", ExecBudget::new(1_000_000_000_000_000));
}

/// Fills a fresh store with an unlimited IO2 sweep, then rebuilds every
/// registry workload's IO2 oracle table in a fresh session under
/// `budget`: each table must equal the model's and load every walk it
/// requests from the store.
fn tables_rebuild_from_stored_walks(tag: &str, budget: ExecBudget) {
    let workloads = registry();
    let core = CoreConfig::io2();
    let dir = fresh_dir(tag);
    let cold = session_at(&dir).evaluate_designs(
        &workloads,
        std::slice::from_ref(&core),
        &small_subsets(),
    );
    healthy(cold);

    // A fresh session over the filled store prices every table from
    // stored walks: the baseline's and each candidate's.
    let session = session_at(&dir).with_budget(budget);
    let mut runs = 0;
    for w in &workloads {
        let prepared = session.prepare(w).expect("registry workloads prepare");
        let table = session
            .oracle_table(&prepared, &core)
            .expect("the budget does not trip");
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

/// Timing artifacts are written without the fsync pair, so after a power
/// loss one may be empty or torn under its final name. Each is a miss and
/// a walk, never an error: a fresh session walks exactly the torn walks
/// again, stores them again and returns the same report. (Two workloads
/// whose 20 000-instruction traces give design points multi-loop picks,
/// so the store holds single walks besides the oracle walk packs.)
#[test]
fn torn_timing_artifacts_are_misses_never_errors() {
    let workloads: Vec<&Workload> = ["cjpeg-1", "mpeg2enc"]
        .iter()
        .map(|name| prism_workloads::by_name(name).expect("registered"))
        .collect();
    let (cores, subsets) = (all_cores(), all_bsa_subsets());
    let dir = fresh_dir("torn");
    let session = || {
        session_at(&dir).with_tracer(TracerConfig {
            max_insts: 20_000,
            ..TracerConfig::default()
        })
    };
    let cold = healthy(session().evaluate_designs(&workloads, &cores, &subsets));

    // Oracle walk packs are arrays of walks, design results objects with
    // `per_workload`, single walks the other objects. Delete the design
    // results, so every point is evaluated again from the timings.
    let (mut packs, mut walks) = (Vec::new(), Vec::new());
    for entry in std::fs::read_dir(&dir).expect("store dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read artifact");
        let doc = Json::parse(&text).expect("parse artifact");
        let payload = doc.get("payload").expect("an envelope has a payload");
        if let Some(pack) = payload.as_arr() {
            packs.push((path, pack.len() as u64));
        } else if payload.get("per_workload").is_some() {
            std::fs::remove_file(&path).expect("remove design result");
        } else {
            walks.push(path);
        }
    }
    packs.sort();
    walks.sort();
    assert!(packs.len() >= 2 && !walks.is_empty(), "{packs:?} {walks:?}");
    std::fs::write(&packs[0].0, b"").expect("empty a pack");
    let text = std::fs::read(&packs[1].0).expect("read a pack");
    std::fs::write(&packs[1].0, &text[..text.len() / 2]).expect("cut a pack");
    std::fs::write(&walks[0], b"").expect("empty a walk");

    let session = session();
    let again = healthy(session.evaluate_designs(&workloads, &cores, &subsets));
    assert_eq!(fingerprint(&again), fingerprint(&cold));
    let stats = session.stats();
    let torn_walks = packs[0].1 + packs[1].1;
    assert_eq!(stats.trace_walks, torn_walks + 1, "{stats:?}");
    assert_eq!(
        stats.timing_written,
        TimingWrites {
            packs: 2,
            pack_walks: torn_walks,
            walks: 1,
        }
    );
    assert_eq!(stats.artifacts.discarded, 3, "{stats:?}");
    assert_eq!(stats.artifacts.io_errors, 0, "{stats:?}");
}

/// An oracle table lists its candidates in [`oracle_assignments`] order,
/// by BSA in `BsaKind::ALL` order and then by ascending loop, whatever
/// order the plans' hash maps iterate in: an oracle walk pack is
/// positional in that order, and `oracle_pick` breaks exact gain ties by
/// it.
#[test]
fn oracle_candidates_follow_the_canonical_assignment_order() {
    let core = CoreConfig::io2();
    let mut multi_loop_kinds = 0;
    for w in registry() {
        let data = quick_data(w);
        let assignments = oracle_assignments(&data);
        assert!(assignments[0].map.is_empty(), "{}: baseline first", w.name);
        let table = prism_exocore::oracle_table(&data, &core);
        assert_eq!(table.candidates.len() + 1, assignments.len(), "{}", w.name);
        for (c, a) in table.candidates.iter().zip(&assignments[1..]) {
            assert_eq!(a.map.len(), 1, "{}", w.name);
            assert_eq!(a.map.get(&c.lid), Some(&c.kind), "{}", w.name);
        }
        let order: Vec<_> = table
            .candidates
            .iter()
            .map(|c| (BsaKind::ALL.iter().position(|&k| k == c.kind), c.lid))
            .collect();
        assert!(
            order.windows(2).all(|p| p[0] < p[1]),
            "{}: {order:?}",
            w.name
        );
        multi_loop_kinds += BsaKind::ALL
            .iter()
            .filter(|&&k| table.candidates.iter().filter(|c| c.kind == k).count() > 1)
            .count();
    }
    assert!(multi_loop_kinds > 0, "no BSA plans more than one loop");
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

/// The MICRO workloads on the quick tracer.
fn micro_data() -> Vec<WorkloadData> {
    prism_workloads::MICRO.iter().map(quick_data).collect()
}

/// Every assignment a sweep walks for `data` on `core`: the empty one,
/// each single-loop plan of each BSA (the oracle table's candidates), and
/// the oracle's pick for each of the 16 subsets on `core`'s table.
fn sweep_assignments(data: &WorkloadData, core: &CoreConfig) -> Vec<Assignment> {
    let table = prism_exocore::oracle_table(data, core);
    let singles = table.candidates.iter().map(|c| {
        let mut a = Assignment::none();
        a.set(c.lid, c.kind);
        a
    });
    let picks = all_bsa_subsets()
        .into_iter()
        .map(|subset| oracle_pick(&table, data, &subset));
    std::iter::once(Assignment::none())
        .chain(singles)
        .chain(picks)
        .collect()
}

/// The walk's stored form, so the comparison covers every field bit for bit.
fn walk(data: &WorkloadData, core: &CoreConfig, assignment: &Assignment) -> String {
    encode_exo_timing(&run_exocore_timing(
        &data.trace,
        &data.ir,
        core,
        &data.plans,
        assignment,
    ))
    .to_string()
}

/// `has_simd` is not in the timing class, so a `-S…` point's core must
/// walk every assignment exactly as its base core does.
#[test]
fn simd_twin_walks_are_identical() {
    let data = micro_data();
    let (mut pairs, mut simd_pairs) = (0, 0);
    for core in all_cores() {
        let twin = core.clone().with_simd();
        assert_eq!(core.timing_class(), twin.timing_class());
        for w in &data {
            for a in sweep_assignments(w, &core) {
                assert_eq!(
                    walk(w, &core, &a),
                    walk(w, &twin, &a),
                    "{} on {} under {:?}",
                    w.name,
                    core.name,
                    a.map
                );
                pairs += 1;
                simd_pairs += usize::from(a.map.values().any(|&k| k == BsaKind::Simd));
            }
        }
    }
    assert!(
        pairs > 0 && simd_pairs > 0,
        "{pairs} pairs, {simd_pairs} with SIMD"
    );
}

/// The timing class holds no field a walk ignores: an edit of any one of
/// its fields changes the class and at least one MICRO walk.
#[test]
fn every_timing_class_field_changes_a_walk() {
    type Edit = (&'static str, fn() -> CoreConfig, fn(&mut CoreConfig));
    let ooo2 = CoreConfig::ooo2;
    let edits: [Edit; 10] = [
        ("width", ooo2, |c| c.width += 1),
        ("rob_size", ooo2, |c| c.rob_size /= 2),
        ("window_size", ooo2, |c| c.window_size /= 2),
        ("dcache_ports", ooo2, |c| c.dcache_ports += 1),
        ("alus", ooo2, |c| c.alus -= 1),
        ("muldivs", CoreConfig::ooo4, |c| c.muldivs = 1),
        ("fpus", ooo2, |c| c.fpus += 1),
        ("out_of_order", ooo2, |c| c.out_of_order = !c.out_of_order),
        ("frontend_depth", ooo2, |c| c.frontend_depth += 2),
        ("mispredict_penalty", ooo2, |c| c.mispredict_penalty += 4),
    ];
    assert_eq!(
        CoreConfig::ooo2().timing_class().split(';').count(),
        edits.len(),
        "every field of the timing class needs an edit here"
    );
    let data = micro_data();
    for (field, base, edit) in edits {
        let base = base();
        let mut edited = base.clone();
        edit(&mut edited);
        assert_ne!(base.timing_class(), edited.timing_class(), "{field}");
        let moved = data.iter().any(|w| {
            sweep_assignments(w, &base)
                .iter()
                .any(|a| walk(w, &base, a) != walk(w, &edited, a))
        });
        assert!(moved, "editing {field} changed no walk");
    }
}
