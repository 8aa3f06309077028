//! # prism-bench
//!
//! The evaluation harness: one binary per table and figure of *Analyzing
//! Behavior Specialized Acceleration* (ASPLOS 2016). See `DESIGN.md` §4
//! for the experiment index and `EXPERIMENTS.md` for recorded results.
//!
//! Every binary goes through the shared [`session`] — a
//! [`prism_pipeline::Session`] that memoizes trace/IR/plan preparation,
//! caches design-point results in a content-addressed artifact store, and
//! fans work out over `--jobs N` (or `PRISM_JOBS`) worker threads. The
//! session is built from one [`prism_pipeline::Config`] (the environment
//! plus `--jobs`, `--stats` and `--resume`); a malformed or unknown knob
//! stops the binary with exit 2 before it does any work. `--stats` on a
//! full-space figure binary prints the resolved config and the
//! store/session counters to stderr. To shard a sweep across processes,
//! run `prism grid` first: the figure binaries then read the store it
//! filled.

#![warn(missing_docs)]

pub mod perf;
pub mod published;

use std::sync::OnceLock;

use prism_exocore::DesignResult;
use prism_pipeline::{Config, PipelineError, PreparedWorkload, Session, SweepReport};

/// This binary's configuration, resolved once from the environment and
/// its `--jobs`, `--stats` and `--resume` flags. A [`ConfigError`]
/// (unknown knob, malformed value) ends the process with `error: …` and
/// exit 2.
///
/// [`ConfigError`]: prism_pipeline::ConfigError
fn config() -> &'static Config {
    static CONFIG: OnceLock<Config> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        Config::from_args(&mut args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    })
}

/// The process-wide pipeline session shared by all bench binaries, built
/// from this binary's [`Config`]. Call it at the top of `main`, so a bad
/// configuration stops the binary before it prints anything.
pub fn session() -> &'static Session {
    static SESSION: OnceLock<Session> = OnceLock::new();
    SESSION.get_or_init(|| Session::from_config(config()))
}

/// Unwraps a pipeline result, exiting with a readable error (workload +
/// stage) instead of a panic backtrace.
pub fn run_or_exit<T>(result: Result<T, PipelineError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// Prepares registry workloads by name, in parallel.
///
/// # Errors
///
/// Returns a [`PipelineError`] naming the workload and failing stage; an
/// unknown name fails in the build stage.
pub fn prepare_named(names: &[&str]) -> Result<Vec<PreparedWorkload>, PipelineError> {
    let workloads = names
        .iter()
        .map(|n| {
            prism_workloads::by_name(n).ok_or_else(|| {
                PipelineError::new(*n, prism_pipeline::Stage::Build, "unknown workload")
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    session().prepare_batch(&workloads)
}

/// Runs the full 64-point design-space exploration over all workloads,
/// loading already-evaluated points from the content-addressed artifact
/// store (`target/prism-artifacts`, override with `PRISM_ARTIFACT_DIR`).
/// Artifacts invalidate automatically when any input changes; a fully
/// cached run does no tracing at all. Cache hit/miss counts are logged,
/// and `--stats` adds the resolved config, the session counters, the
/// results digest and the process's peak RSS.
///
/// Failures are isolated per unit: the report carries results for every
/// healthy design point plus a quarantine list for the rest.
///
/// The sweep writes an append-only journal of settled units; `--resume`
/// replays it after a kill and recomputes only what is missing, producing
/// the same report as an uninterrupted run.
#[must_use]
pub fn full_design_space() -> SweepReport {
    let s = session();
    let config = config();
    if config.stats {
        eprint!("{}", config.render());
    }
    let report = s.full_design_space_resumable(config.resume);
    s.log_stats();
    if config.stats {
        eprint!("{}", s.stats().render());
        eprint!("{}", report.render_stats());
    }
    report
}

/// Unwraps a sweep for figure binaries: renders the failure summary (if
/// any) to stderr, exits nonzero only when *everything* failed, and
/// otherwise returns the healthy results so the figure still prints from
/// whatever survived.
#[must_use]
pub fn results_or_exit(report: SweepReport) -> Vec<DesignResult> {
    if let Some(summary) = report.failure_summary() {
        eprint!("{summary}");
    }
    if report.all_failed() {
        eprintln!("error: every design point failed; nothing to report");
        std::process::exit(report.exit_code());
    }
    report.results
}
