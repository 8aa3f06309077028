//! The release rules of a sweep's traces: a sweep holds at most `jobs`
//! traces at once and gives the same report at every job count, and
//! nothing it drops is ever walked. A later request for a dropped
//! workload prepares it again, bit for bit.

use std::path::PathBuf;

use prism_pipeline::{Session, SweepReport};
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

/// A fresh store directory per `tag`, removed when dropped.
struct Store(PathBuf);

impl Store {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("prism-trace-release-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store(dir)
    }

    /// A session over this store, insulated from ambient env knobs, with
    /// `jobs` workers.
    fn session(&self, jobs: usize) -> Session {
        Session::new()
            .with_tracer(quick_tracer())
            .with_jobs(jobs)
            .with_faults(None)
            .with_budget(ExecBudget::unlimited())
            .with_store_cap(None)
            .with_store_dir(&self.0)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Twelve registry workloads, more than any job count below.
fn workloads() -> Vec<&'static Workload> {
    prism_workloads::ALL.iter().step_by(4).collect()
}

fn subsets() -> Vec<Vec<BsaKind>> {
    vec![
        vec![],
        vec![BsaKind::Simd],
        vec![BsaKind::NsDf, BsaKind::TraceP],
        BsaKind::ALL.to_vec(),
    ]
}

fn sweep(session: &Session, cores: &[CoreConfig]) -> SweepReport {
    let report = session.evaluate_designs(&workloads(), cores, &subsets());
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    report
}

#[test]
fn a_sweep_holds_at_most_jobs_traces_and_the_same_report_at_any_job_count() {
    let cores = [CoreConfig::io2(), CoreConfig::ooo4()];
    let mut reports = Vec::new();
    for jobs in [1, 2, 4] {
        let store = Store::new(&format!("jobs{jobs}"));
        let session = store.session(jobs);
        reports.push(sweep(&session, &cores));
        let stats = session.stats();
        assert_eq!(stats.traces_prepared, workloads().len() as u64, "{stats:?}");
        assert!(
            (1..=jobs as u64).contains(&stats.peak_live_traces),
            "jobs {jobs}: {} traces live at once",
            stats.peak_live_traces
        );
    }
    assert_eq!(reports[0].results.len(), cores.len() * subsets().len());
    for report in &reports[1..] {
        assert_eq!(format!("{report:?}"), format!("{:?}", reports[0]));
        assert_eq!(report.digest(), reports[0].digest());
    }
}

#[test]
fn a_workload_prepared_after_a_sweep_matches_a_fresh_session() {
    let (swept_store, fresh_store) = (Store::new("prepare-after"), Store::new("prepare-fresh"));
    let swept = swept_store.session(2);
    let _ = sweep(&swept, &[CoreConfig::ooo2()]);
    let fresh = fresh_store.session(2);
    for w in workloads() {
        let again = swept.prepare(w).expect("prepares");
        let first = fresh.prepare(w).expect("prepares");
        assert!(!again.trace.is_empty(), "{}", w.name);
        assert_eq!(again.trace.len(), first.trace.len(), "{}", w.name);
        assert_eq!(again.trace.stats, first.trace.stats, "{}", w.name);
        assert_eq!(again.trace.insts, first.trace.insts, "{}", w.name);
    }
}

#[test]
fn an_oracle_table_after_a_sweep_prepares_its_workload_again() {
    let (swept_store, fresh_store) = (Store::new("table-after"), Store::new("table-fresh"));
    let swept = swept_store.session(2);
    let _ = sweep(&swept, &[CoreConfig::io2(), CoreConfig::ooo2()]);
    let fresh = fresh_store.session(2);
    let third = CoreConfig::ooo6();
    for w in workloads() {
        let before = swept.stats().sim_insts;
        let prepared = swept.prepare(w).expect("prepares");
        let table = swept.oracle_table(&prepared, &third).expect("table");
        assert_eq!(
            swept.stats().sim_insts - before,
            prepared.trace.len() as u64,
            "{}: a re-preparation simulates the whole trace once",
            w.name
        );
        let reference = fresh
            .oracle_table(&fresh.prepare(w).expect("prepares"), &third)
            .expect("table");
        assert_eq!(format!("{table:?}"), format!("{reference:?}"), "{}", w.name);
    }
}
