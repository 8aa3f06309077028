//! # prism-sim
//!
//! Functional simulation substrate for the Prism TDG framework — the role
//! gem5 plays in *Analyzing Behavior Specialized Acceleration* (ASPLOS
//! 2016), Figure 2.
//!
//! The TDG approach needs a *dynamic event stream*, not a cycle-accurate
//! simulator: the retired instruction sequence with data/memory
//! dependences, per-access observed memory latency, and per-branch
//! mispredict flags. This crate produces exactly that:
//!
//! * [`Machine`] — architectural state + functional step executor,
//! * [`Cache`]/[`MemoryHierarchy`] — the paper's L1/L2 hierarchy (Table 4),
//! * [`BranchPredictor`] — gshare + return-address stack,
//! * [`trace`]/[`trace_with`] — the driver producing a [`Trace`] of
//!   [`DynInst`] records,
//! * [`RegDepTracker`] — streaming register-dataflow reconstruction shared
//!   by every downstream consumer.
//!
//! # Examples
//!
//! ```
//! use prism_isa::{ProgramBuilder, Reg};
//!
//! let (i, acc) = (Reg::int(1), Reg::int(2));
//! let mut b = ProgramBuilder::new("count");
//! b.init_reg(i, 100);
//! let head = b.bind_new_label();
//! b.add(acc, acc, i);
//! b.addi(i, i, -1);
//! b.bne_label(i, Reg::ZERO, head);
//! b.halt();
//! let program = b.build()?;
//!
//! let trace = prism_sim::trace(&program)?;
//! assert_eq!(trace.stats.insts, 301);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod branch;
mod cache;
mod machine;
mod memory;
mod source;
mod trace;
mod tracer;

pub use branch::{BranchPredictor, BranchPredictorConfig};
pub use cache::{Cache, CacheConfig, MemLevel, MemoryHierarchy, DEFAULT_DRAM_LATENCY};
pub use machine::{ControlEffect, ExecError, Machine, MemEffect, StepEffect};
pub use memory::Memory;
pub use source::{SimSource, TraceChunk, TraceSource, DEFAULT_CHUNK_INSTS};
pub use trace::{BranchRecord, DynInst, MemRecord, RegDepTracker, Trace, TraceStats};
pub use tracer::{trace, trace_with, TraceError, TracerConfig};
