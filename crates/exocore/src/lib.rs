//! # prism-exocore
//!
//! The ExoCore organization and its design-space exploration — §3–§5 of
//! *Analyzing Behavior Specialized Acceleration* (ASPLOS 2016).
//!
//! An ExoCore couples a general-purpose core with several behavior
//! specialized accelerators sharing the cache hierarchy; execution
//! migrates between units per program region. This crate provides:
//!
//! * [`WorkloadData`] — trace + IR + plans, prepared once per workload,
//! * [`oracle_schedule`] / [`oracle_table`] / [`oracle_pick`] — the
//!   paper's Oracle scheduler (measured energy-delay, ≤10% region
//!   slowdown); [`oracle_table_with`] builds the table from any trace-walk
//!   timing provider, asked in the fixed [`oracle_assignments`] order, so
//!   `prism_pipeline::Session` measures it with the same memoized walks
//!   its design points use and stores them as one pack,
//! * [`amdahl_schedule`] — the Amdahl-tree scheduler of §3.3 (static
//!   estimates, no oracle information),
//! * [`all_design_points`] / [`evaluate_point`] / [`DesignPoint`] — the
//!   64-point design space of Fig. 12 and the unmemoized evaluation of one
//!   point (sweeps run through `prism_pipeline::Session`),
//! * [`pareto_frontier`] — frontier extraction for Fig. 3/10,
//! * [`switching_timeline`] — the Fig. 14 dynamic-switching windows,
//! * [`headline_claims`] — the paper's six headline claims as ten checks
//!   over a swept design space ([`by_label`] finds one of its points).
//!
//! # Examples
//!
//! ```
//! use prism_exocore::{oracle_schedule, WorkloadData};
//! use prism_tdg::{run_exocore, BsaKind};
//! use prism_udg::CoreConfig;
//!
//! let program = prism_workloads::by_name("stencil").unwrap().build_default();
//! let data = WorkloadData::prepare(&program)?;
//! let core = CoreConfig::ooo2();
//! let schedule = oracle_schedule(&data, &core, &BsaKind::ALL);
//! let run = run_exocore(&data.trace, &data.ir, &core, &data.plans, &schedule, &BsaKind::ALL);
//! assert!(run.cycles > 0);
//! # Ok::<(), prism_sim::TraceError>(())
//! ```

#![warn(missing_docs)]

mod claims;
mod data;
mod dse;
mod schedule;
mod timeline;

pub use claims::{headline_claims, ClaimCheck};
pub use data::WorkloadData;
pub use dse::{
    all_bsa_subsets, all_cores, all_design_points, bsas_by_codes, by_label, core_by_name,
    evaluate_point, geomean, pareto_frontier, DesignPoint, DesignResult, FrontierPoint,
    WorkloadMetrics,
};
pub use schedule::{
    amdahl_schedule, oracle_assignments, oracle_pick, oracle_pick_in, oracle_schedule,
    oracle_table, oracle_table_budgeted, oracle_table_with, CandidateGain, OracleTable,
    MAX_REGION_SLOWDOWN,
};
pub use timeline::{switching_timeline, WindowPoint};
