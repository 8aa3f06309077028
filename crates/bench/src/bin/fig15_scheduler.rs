//! Figure 15: Oracle vs Amdahl-tree scheduler on the Mediabench suite with
//! an OOO2 full ExoCore — execution time and energy relative to the OOO2
//! core alone, for both schedulers.

use prism_bench::{run_or_exit, session};
use prism_exocore::{amdahl_schedule, geomean, oracle_schedule};
use prism_tdg::{run_exocore, BsaKind};
use prism_udg::{simulate_trace, CoreConfig};

fn main() {
    let session = session();
    println!("=== Fig. 15: Oracle vs Amdahl-tree scheduler (Mediabench, OOO2 ExoCore) ===\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "oracle T", "amdahl T", "oracle E", "amdahl E"
    );
    println!(
        "{:<12} {:^21} {:^21}",
        "", "(rel. exec. time)", "(rel. energy)"
    );

    let core = CoreConfig::ooo2();
    let mut perf_ratio = Vec::new(); // amdahl perf / oracle perf
    let mut energy_ratio = Vec::new(); // baseline energy / amdahl energy

    for w in prism_workloads::by_suite(prism_workloads::Suite::Mediabench) {
        let data = run_or_exit(session.prepare(w));
        let base = simulate_trace(&data.trace, &core);
        let oracle = oracle_schedule(&data, &core, &BsaKind::ALL);
        let amdahl = amdahl_schedule(&data, &core, &BsaKind::ALL);
        let run_o = run_exocore(
            &data.trace,
            &data.ir,
            &core,
            &data.plans,
            &oracle,
            &BsaKind::ALL,
        );
        let run_a = run_exocore(
            &data.trace,
            &data.ir,
            &core,
            &data.plans,
            &amdahl,
            &BsaKind::ALL,
        );
        let bt = base.cycles as f64;
        let be = base.energy.total();
        println!(
            "{:<12} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            w.name,
            run_o.cycles as f64 / bt,
            run_a.cycles as f64 / bt,
            run_o.energy.total() / be,
            run_a.energy.total() / be,
        );
        perf_ratio.push(run_o.cycles as f64 / run_a.cycles.max(1) as f64);
        energy_ratio.push(be / run_a.energy.total());
    }

    let p = geomean(perf_ratio.into_iter());
    let e = geomean(energy_ratio.into_iter());
    println!(
        "\nAmdahl-tree scheduler: {:.2}x the Oracle's performance (paper: 0.89x), \
         {e:.2}x energy efficiency over the plain core (paper: 1.21x)",
        p
    );
}
