//! # prism
//!
//! Umbrella crate for the Prism workspace — a Rust reproduction of
//! *Analyzing Behavior Specialized Acceleration* (Nowatzki &
//! Sankaralingam, ASPLOS 2016).
//!
//! Re-exports the sub-crates so downstream users can depend on one crate:
//!
//! * [`isa`] — the `exo` mini-ISA and program builder,
//! * [`sim`] — functional simulation, caches, branch prediction, tracing,
//! * [`udg`] — µDG core models and the critical-path engine,
//! * [`ir`] — CFG/DFG/loop/path-profile reconstruction,
//! * [`energy`] — energy/power/area models,
//! * [`tdg`] — the Transformable Dependence Graph and the four BSA models,
//! * [`exocore`] — schedulers and the design-space exploration,
//! * [`workloads`] — the 49-kernel benchmark registry,
//! * [`pipeline`] — the content-addressed, parallel evaluation pipeline
//!   ([`pipeline::Session`]),
//! * [`grid`] — the sharded multi-process sweep coordinator
//!   ([`grid::run_grid`]),
//! * [`net`] — the multi-host sweep fabric: shard links, the TCP worker
//!   daemon handshake, and network fault injection ([`net::ShardLink`]),
//! * [`bench`](mod@bench) — the figure/table harness and the perf
//!   microbench suite behind `prism bench` ([`bench::perf`]).
//!
//! See the repository's `README.md` for a tour and `DESIGN.md` for the
//! system inventory.
//!
//! # Examples
//!
//! ```
//! let w = prism::workloads::by_name("stencil").unwrap();
//! let trace = prism::sim::trace(&w.build_default())?;
//! let run = prism::udg::simulate_trace(&trace, &prism::udg::CoreConfig::ooo2());
//! assert!(run.ipc() > 0.0);
//! # Ok::<(), prism::sim::TraceError>(())
//! ```

#![warn(missing_docs)]

pub use prism_bench as bench;
pub use prism_energy as energy;
pub use prism_exocore as exocore;
pub use prism_grid as grid;
pub use prism_ir as ir;
pub use prism_isa as isa;
pub use prism_net as net;
pub use prism_pipeline as pipeline;
pub use prism_sim as sim;
pub use prism_tdg as tdg;
pub use prism_udg as udg;
pub use prism_workloads as workloads;
