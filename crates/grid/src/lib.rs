//! # prism-grid
//!
//! Sharded multi-process execution of the design-space sweep: a
//! coordinator partitions the (core × BSA-subset) unit space across
//! worker subprocesses — re-invocations of the current executable in a
//! dedicated worker mode — and merges their [`prism_pipeline::SweepReport`]s.
//!
//! ```text
//!               ┌─ worker 0 (PRISM_GRID_WORKER=1, shard 0) ─┐
//! coordinator ──┼─ worker 1 (shard 1)                        ├─ shared
//!   run_grid    └─ worker N (shard N)                        ┘ artifact store
//! ```
//!
//! The coordinator and each worker speak newline-delimited JSON over the
//! worker's stdin/stdout (see [`proto`]): a versioned handshake, unit
//! assignments with a small per-worker window (so a worker *prepares*
//! the next unit while it *evaluates* the current one), heartbeats, one
//! result-or-quarantine per unit, and a clean shutdown: the coordinator
//! sends `shutdown` once every unit is settled, then waits for each
//! link's end of stream (its `bye` arrives first) before reaping it.
//! Failure policy:
//!
//! - a **quarantined unit** is retried once (configurable) on a
//!   *different* shard; if the retry succeeds the unit counts as
//!   recovered, not quarantined,
//! - a **dead worker** (crash, heartbeat silence, protocol corruption)
//!   has its in-flight units reassigned, never lost,
//! - when **no eligible worker** remains, units are evaluated in-process
//!   by the coordinator.
//!
//! All local shards share one content-addressed artifact store, so grid
//! runs and single-process runs warm the same cache and — on a healthy
//! fleet — produce byte-identical merged reports. A unit whose result the
//! coordinator's store already holds is settled by the coordinator
//! before any worker starts, as `prism explore` settles it, so a warm
//! grid spawns and dials nothing.
//!
//! Any binary a coordinator re-invokes calls [`run_worker_if_env`] first
//! in `main`. A worker, local or TCP daemon, takes its session settings,
//! store cap and fault plan from a [`prism_pipeline::Config`]; the
//! coordinator parses one from the environment for the net token and its
//! one session.
//!
//! The same protocol also runs over TCP (see [`prism_net`]): remote
//! daemons started with `prism worker --listen` occupy shard slots after
//! the local ones ([`GridConfig::hosts`]), authenticate with a shared
//! secret, name the design-point key of each result (which the
//! coordinator stores it under), and reconnect with bounded backoff when
//! the link drops — in-flight units are reassigned exactly like a local
//! worker death.

#![warn(missing_docs)]

pub mod coord;
pub mod proto;
pub mod worker;

pub use coord::{run_grid, GridConfig, GridError, GridOutcome, GridStats, HostStats};
pub use proto::{FromWorker, ToWorker, HEARTBEAT_INTERVAL, PROTO_VERSION};
pub use worker::{
    run_worker, run_worker_if_env, run_worker_io, serve_tcp, WorkerOptions, WORKER_ENV,
};
