//! The `prism bench` perf suite as a `cargo bench` target: measures
//! simulator/µDG/transform throughput and end-to-end exploration wall
//! time (cold and warm store), printing the metric table and the JSON
//! report to stdout. (Dependency-free timing harness; criterion is not
//! available in this build environment.)
//!
//! Run with: `cargo bench -p prism-bench --bench perf -- [--quick]`
//!
//! Prefer the `prism bench` subcommand for writing `BENCH_<rev>.json`
//! and comparing against a checked-in baseline.

use prism_bench::perf::{run, PerfOptions};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let report = run(&PerfOptions {
        quick,
        ..PerfOptions::default()
    });
    print!("{}", report.to_json());
}
