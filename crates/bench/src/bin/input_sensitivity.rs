//! Input-dependence study (paper §2.6: "Since the TDG is input-dependent,
//! studying different inputs requires re-running the original
//! simulation"): re-trace each workload at three problem sizes and check
//! that the *relative* conclusions — which BSA the Oracle picks, and the
//! rough speedup — are stable across inputs.

use prism_bench::{run_or_exit, session};
use prism_exocore::oracle_schedule;
use prism_tdg::{run_exocore, BsaKind};
use prism_udg::{simulate_trace, CoreConfig};

const WORKLOADS: &[&str] = &[
    "stencil",
    "spmv",
    "cjpeg-1",
    "tpch1",
    "181.mcf",
    "456.hmmer",
];

fn main() {
    let session = session();
    println!("=== Input sensitivity: ExoCore speedup across problem sizes ===\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10}   chosen BSAs (small | default | large)",
        "workload", "small", "default", "large"
    );
    let core = CoreConfig::ooo2();
    let mut max_spread: f64 = 0.0;
    for name in WORKLOADS {
        let w = prism_workloads::by_name(name).expect(name);
        let mut speedups = Vec::new();
        let mut picks = Vec::new();
        for scale in [w.default_n / 3 + 16, w.default_n, w.default_n * 2] {
            let data = run_or_exit(session.prepare_sized(w, scale));
            let base = simulate_trace(&data.trace, &core);
            let a = oracle_schedule(&data, &core, &BsaKind::ALL);
            let run = run_exocore(&data.trace, &data.ir, &core, &data.plans, &a, &BsaKind::ALL);
            speedups.push(base.cycles as f64 / run.cycles.max(1) as f64);
            let mut kinds: Vec<char> = a.map.values().map(|k| k.code()).collect();
            kinds.sort_unstable();
            kinds.dedup();
            picks.push(if kinds.is_empty() {
                "-".to_string()
            } else {
                kinds.into_iter().collect()
            });
        }
        let spread = speedups.iter().cloned().fold(f64::MIN, f64::max)
            / speedups.iter().cloned().fold(f64::MAX, f64::min);
        max_spread = max_spread.max(spread);
        println!(
            "{:<12} {:>9.2}x {:>9.2}x {:>9.2}x   {} | {} | {}",
            name, speedups[0], speedups[1], speedups[2], picks[0], picks[1], picks[2]
        );
    }
    println!(
        "\nlargest speedup spread across inputs: {max_spread:.2}x \
         (conclusions are input-stable when this stays small)"
    );
}
