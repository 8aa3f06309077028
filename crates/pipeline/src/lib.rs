//! # prism-pipeline
//!
//! The staged evaluation pipeline behind every prism experiment:
//!
//! ```text
//! workload ──trace──▶ Trace ──analyze──▶ ProgramIr ──plan──▶ AccelPlans
//!                                                              │
//!              oracle tables (per workload × base core)  ◀─────┘
//!                                │
//!                        design-point evaluation ──▶ DesignResult
//! ```
//!
//! A [`Session`] memoizes every stage in memory and stores design-point
//! results in an on-disk, content-addressed [`ArtifactStore`]. Keys cover
//! workload identity and build size, the full [`prism_sim::TracerConfig`],
//! the full core configuration, the BSA subset, and the schema/crate
//! version — so stale artifacts are structurally impossible: change any
//! input and the key changes; only the affected stages recompute.
//!
//! Fan-out across (workload × design point) runs on [`parallel_map`],
//! which reduces in canonical input order: results are bit-identical
//! whether run with `--jobs 1` or `--jobs N` (also settable via the
//! `PRISM_JOBS` environment variable).
//!
//! ## Configuration
//!
//! Every `PRISM_*` knob and the global `--jobs`, `--stats` and `--resume`
//! flags are parsed once into a typed [`Config`]
//! ([`Config::from_env`], [`Config::from_args`]); an unknown knob or a
//! malformed value is a [`ConfigError`] naming it. [`Session::from_config`]
//! builds a session from it, and [`Session::new`] is `from_config` over
//! the environment.
//!
//! ## Fault tolerance
//!
//! Sweeps isolate failures instead of aborting: a panicking model stage
//! or a budget-blown evaluation quarantines the affected (workload,
//! design point) unit into [`SweepReport::quarantined`] while every
//! healthy point still produces a result. Store I/O is retried with bounded backoff and degrades to
//! recompute. A seeded [`FaultPlan`] (the `PRISM_FAULTS` knob,
//! [`Config::fault_plan`]) injects store I/O errors, artifact
//! corruption, trace truncation, and stage panics deterministically for
//! chaos testing; the same plan carries the grid's worker and link
//! faults and the kill points below.
//!
//! ## Crash consistency
//!
//! A store put's durability follows from the artifact's role: design
//! results are fsync-then-rename durable, and trace-walk timings, a cache
//! a rerun recomputes, are renamed into place without the fsync pair.
//! Every sweep writes an append-only [`SweepJournal`] of settled units,
//! and `--resume` replays it to skip completed work after a kill —
//! producing byte-identical output. `prism explore` and the `prism-grid`
//! coordinator keep that journal through one [`SweepLedger`], so a sweep
//! killed under one resumes under the other. A deterministic kill
//! harness ([`crash_point`], armed by `PRISM_FAULTS=crash:<site>@<n>`)
//! proves the property at every kill site, and [`run_fsck`] checks and
//! repairs a store offline (a missing store is an error, not clean).

#![warn(missing_docs)]

pub mod codec;
pub mod config;
pub mod crash;
pub mod error;
pub mod fault;
pub mod fsck;
pub mod hash;
pub mod journal;
pub mod json;
pub mod key;
pub mod par;
mod queue;
pub mod session;
pub mod store;
pub mod sweep;

pub use codec::{
    decode_design_result, decode_exo_timing, decode_pipeline_error, encode_design_result,
    encode_exo_timing, encode_pipeline_error,
};
pub use config::{Config, ConfigError};
pub use crash::{
    crash_point, CRASH_EXIT_CODE, SITE_GRID_FRAME, SITE_JOURNAL_APPEND, SITE_STORE_PUT,
    SITE_UNIT_COMPLETE,
};
pub use error::{ErrorKind, PipelineError, Stage};
pub use fault::{
    FaultPlan, FaultSpecError, LinkFault, WorkerFault, FAULTS_ENV, INJECTED_PANIC_PREFIX,
};
pub use fsck::{run_fsck, FsckReport, QUARANTINE_SUBDIR};
pub use hash::ContentHash;
pub use journal::{
    journal_path, sweep_key, JournalReplay, SweepJournal, SweepLedger, JOURNAL_SUBDIR,
};
pub use json::Json;
pub use key::{KeyBuilder, KEY_SCHEMA_VERSION, SCHEMA_VERSION};
pub use par::parallel_map;
pub use session::{PreparedWorkload, Session, SessionStats, TimingWrites};
pub use store::{ArtifactStore, StoreStats, GC_SAFETY_WINDOW};
pub use sweep::SweepReport;
