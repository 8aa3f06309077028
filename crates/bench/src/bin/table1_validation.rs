//! Table 1 + Figure 5: validation of the TDG models.
//!
//! Row 1–2 (`OOO8→1`, `OOO1→8`): genuine cross-validation of the µDG core
//! model against an *independent* cycle-stepped reference simulator
//! (`prism_udg::simulate_reference`) across a microbenchmark set, at 1- and
//! 8-wide extremes plus the Table-4 cores.
//!
//! Rows 3–6 (C-Cores, BERET, SIMD, DySER): this reproduction's model
//! projections vs the published per-benchmark points digitized from
//! Fig. 5 (see `prism_bench::published` for the substitution caveat).

use prism_bench::published::{PublishedPoint, BERET, C_CORES, DYSER, SIMD};
use prism_bench::{run_or_exit, session};
use prism_exocore::WorkloadData;
use prism_tdg::{run_exocore, Assignment, BsaKind};
use prism_udg::{simulate_reference, simulate_trace, CoreConfig};

fn main() {
    // Resolve the configuration before printing anything.
    session();
    println!("=== Table 1 / Fig. 5 reproduction: TDG model validation ===\n");
    core_cross_validation();
    accel_validation("C-Cores", BsaKind::NsDf, CoreConfig::io2(), C_CORES);
    accel_validation("BERET", BsaKind::TraceP, CoreConfig::io2(), BERET);
    accel_validation("SIMD", BsaKind::Simd, CoreConfig::ooo4(), SIMD);
    accel_validation("DySER", BsaKind::DpCgra, CoreConfig::ooo4(), DYSER);
}

/// Benchmark set for the core-model validation: the vertical
/// microbenchmarks (paper ref. \[2\]) plus a diverse registry slice.
const CORE_VALIDATION_SET: &[&str] = &[
    "conv",
    "stencil",
    "mm",
    "merge",
    "treesearch",
    "lbm",
    "needle",
    "cjpeg-1",
    "gsmdecode",
    "tpch1",
    "181.mcf",
    "458.sjeng",
    "456.hmmer",
    "175.vpr",
];

fn validation_workloads() -> Vec<&'static prism_workloads::Workload> {
    prism_workloads::MICRO
        .iter()
        .chain(
            CORE_VALIDATION_SET
                .iter()
                .map(|n| prism_workloads::by_name(n).expect(n)),
        )
        .collect()
}

fn core_cross_validation() {
    println!("-- Core model vs independent cycle-stepped reference --");
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>7}",
        "benchmark", "ref IPC", "µDG IPC", "ref(8w)", "µDG(8w)", "err%"
    );
    let mut errs: Vec<f64> = Vec::new();
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for w in validation_workloads() {
        let name = w.name;
        let prepared = run_or_exit(session().prepare(w));
        let trace = &prepared.trace;
        let narrow = CoreConfig::ooo(1);
        let wide = CoreConfig::ooo(8);
        let r1 = simulate_reference(trace, &narrow);
        let u1 = simulate_trace(trace, &narrow);
        let r8 = simulate_reference(trace, &wide);
        let u8_ = simulate_trace(trace, &wide);
        let (e1, e8) = (r1.ipc_error(u1.ipc()), r8.ipc_error(u8_.ipc()));
        errs.extend([e1, e8]);
        for ipc in [r1.ipc(), u1.ipc(), r8.ipc(), u8_.ipc()] {
            lo = lo.min(ipc);
            hi = hi.max(ipc);
        }
        let err = (e1 + e8) / 2.0;
        println!(
            "{:<16} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>6.1}%",
            name,
            r1.ipc(),
            u1.ipc(),
            r8.ipc(),
            u8_.ipc(),
            err * 100.0
        );
    }
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    println!(
        "\nOOO1↔OOO8 rows: mean |IPC error| = {:.1}%  (paper: 2–3%), range {:.2}–{:.2} IPC",
        mean * 100.0,
        lo,
        hi
    );
    println!("(paper range: 0.02–5.5 IPC)\n");
}

fn accel_validation(label: &str, kind: BsaKind, core: CoreConfig, published: &[PublishedPoint]) {
    println!(
        "-- {label} (model: {kind}) vs published points, base {} --",
        core.name
    );
    println!(
        "{:<12} {:>8} {:>8} {:>9} {:>9}",
        "benchmark", "pub spd", "our spd", "pub 1/E", "our 1/E"
    );
    let mut spd_errs = Vec::new();
    let mut en_errs = Vec::new();
    for p in published {
        let Some(w) = prism_workloads::by_name(p.benchmark) else {
            println!("{:<12} (not registered)", p.benchmark);
            continue;
        };
        let data = run_or_exit(session().prepare(w));
        let base = simulate_trace(&data.trace, &core);
        // Assign the BSA to every loop it has a plan for (single-accel
        // evaluation, as in the original publications).
        let mut a = Assignment::none();
        let lids: Vec<u32> = match kind {
            BsaKind::Simd => data.plans.simd.keys().copied().collect(),
            BsaKind::DpCgra => data.plans.dp_cgra.keys().copied().collect(),
            BsaKind::NsDf => data.plans.ns_df.keys().copied().collect(),
            BsaKind::TraceP => data.plans.trace_p.keys().copied().collect(),
        };
        for lid in non_overlapping(&data, lids) {
            a.set(lid, kind);
        }
        let run = run_exocore(&data.trace, &data.ir, &core, &data.plans, &a, &[kind]);
        let speedup = base.cycles as f64 / run.cycles.max(1) as f64;
        let energy_red = base.energy.total() / run.energy.total().max(f64::MIN_POSITIVE);
        spd_errs.push((speedup - p.speedup).abs() / p.speedup);
        en_errs.push((energy_red - p.energy_reduction).abs() / p.energy_reduction);
        println!(
            "{:<12} {:>8.2} {:>8.2} {:>9.2} {:>9.2}",
            p.benchmark, p.speedup, speedup, p.energy_reduction, energy_red
        );
    }
    let mp = 100.0 * spd_errs.iter().sum::<f64>() / spd_errs.len().max(1) as f64;
    let me = 100.0 * en_errs.iter().sum::<f64>() / en_errs.len().max(1) as f64;
    println!("{label}: mean perf err {mp:.0}%, mean energy err {me:.0}% (paper: 5–15%)\n");
}

/// Keeps only loops whose ancestors are not also in the list (outermost
/// wins), so the assignment is well-formed.
fn non_overlapping(data: &WorkloadData, mut lids: Vec<u32>) -> Vec<u32> {
    lids.sort_unstable();
    let mut kept: Vec<u32> = Vec::new();
    for lid in lids {
        let mut cur = data.ir.loops.loops[lid as usize].parent;
        let mut covered = false;
        while let Some(p) = cur {
            if kept.contains(&p) {
                covered = true;
                break;
            }
            cur = data.ir.loops.loops[p as usize].parent;
        }
        if !covered {
            kept.push(lid);
        }
    }
    kept
}
