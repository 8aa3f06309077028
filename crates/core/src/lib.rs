//! # prism-tdg
//!
//! The **Transformable Dependence Graph** — the central contribution of
//! *Analyzing Behavior Specialized Acceleration* (ASPLOS 2016),
//! reimplemented in Rust.
//!
//! A TDG couples the µDG of a recorded execution (`prism-udg`) with the
//! reconstructed program IR (`prism-ir`). Modeling an accelerator is then a
//! *graph transformation*: an analyzer pass decides which regions can
//! legally and profitably specialize (the "plan"), and a transform rewrites
//! the region's dependences to model the accelerated execution.
//!
//! This crate provides the analyzer+transform pairs for:
//!
//! * [`fma`] — the paper's Figure 4 worked example,
//! * [`simd`] — loop auto-vectorization (§3.2 "SIMD TDG"),
//! * [`dp_cgra`] — the DySER-like data-parallel CGRA,
//! * [`ns_df`] — the SEED-like non-speculative dataflow unit,
//! * [`trace_p`] — the BERET-like trace-speculative processor,
//!
//! plus the combined-run machinery ([`run_exocore`]) that stitches core and
//! accelerator regions into one timeline — the paper's "Core+Accelerator
//! TDG".

#![warn(missing_docs)]

mod ctx;
pub mod dp_cgra;
pub mod fma;
pub mod ns_df;
mod plan;
mod runner;
pub mod simd;
pub mod trace_p;
mod unit;

pub use ctx::{ExecCtx, RegionScratch, TimelineSample};
pub use plan::{AccelPlans, Assignment};
pub use runner::{price_exocore, run_exocore, run_exocore_timing, ExoRunResult, ExoTiming};
pub use unit::{BsaKind, ExecUnit};
