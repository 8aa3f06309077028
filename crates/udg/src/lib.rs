//! # prism-udg
//!
//! The microarchitectural dependence graph (µDG) — the core-modeling half
//! of the TDG from *Analyzing Behavior Specialized Acceleration* (ASPLOS
//! 2016, §2).
//!
//! A µDG represents a dynamic execution as nodes for pipeline events
//! (fetch, dispatch, execute, complete, commit per instruction) and edges
//! for the constraints between them: pipeline widths, ROB/window occupancy,
//! data and memory dependences, functional-unit contention, and branch
//! mispredict redirects. Execution time is the longest path through the
//! graph.
//!
//! This crate provides:
//!
//! * [`CoreConfig`] — the paper's Table 4 core design points (IO2, OOO2,
//!   OOO4, OOO6) plus parametric widths for validation,
//! * [`CoreModel`] — a streaming timing model that assigns the five µDG
//!   node times per instruction in a single forward pass,
//! * [`EdgeKind`] — the µDG's edge kinds, which [`BindingCounts`] tallies
//!   per binding constraint,
//! * [`ResourceTable`] — the windowed cycle-indexed structural-hazard
//!   table described in the paper's §2.7,
//! * [`simulate_trace`] — whole-trace evaluation producing the paper's
//!   baseline `TDG_GPP,∅` cycles and energy.
//!
//! # Examples
//!
//! ```
//! use prism_udg::{CoreConfig, CoreModel, ModelInst};
//!
//! let mut core = CoreModel::new(&CoreConfig::ooo4());
//! let t = core.issue(&ModelInst::default());
//! assert!(t.commit > t.fetch);
//! ```

#![warn(missing_docs)]

mod budget;
mod config;
mod graph;
mod model;
mod reference;
mod resource;
mod run;
mod seqtable;

pub use budget::{BudgetExceeded, ExecBudget, FuelMeter, NODES_PER_INST};
pub use config::CoreConfig;
pub use graph::EdgeKind;
pub use model::{BindingCounts, CoreModel, InstTimes, MemDepTracker, ModelDep, ModelInst};
pub use reference::{simulate_reference, try_simulate_reference, ReferenceRun, Watchdog};
pub use resource::ResourceTable;
pub use run::{
    finish_run, model_inst_for, model_inst_for_into, simulate_trace, try_simulate_trace, CoreRun,
    RegTimes, StreamSim,
};
pub use seqtable::{FastBuildHasher, FastHasher, FastMap, FastSet, SeqTable};
