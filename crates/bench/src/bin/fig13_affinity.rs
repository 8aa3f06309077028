//! Figure 13: per-benchmark behavior and region affinity — the execution
//! time and energy of a full OOO2 ExoCore, broken down by the unit that
//! ran each region, relative to the OOO2 core alone.

use prism_bench::{by_label, full_design_space, results_or_exit};

fn main() {
    let results = results_or_exit(full_design_space());
    let exo = by_label(&results, "OOO2-SDNT");
    let base = by_label(&results, "OOO2");

    println!("=== Fig. 13: per-benchmark OOO2-ExoCore breakdown (baseline = OOO2 alone) ===\n");
    println!(
        "{:<14} | {:>5} {:>5} {:>5} {:>5} {:>5} | {:>5} {:>5} {:>5} {:>5} {:>5} | {:>6}",
        "benchmark",
        "GPP",
        "SIMD",
        "CGRA",
        "NSDF",
        "TrcP",
        "GPP",
        "SIMD",
        "CGRA",
        "NSDF",
        "TrcP",
        "spdup"
    );
    println!(
        "{:<14} | {:^29} | {:^29} |",
        "", "exec. time fraction", "energy fraction"
    );

    let mut unaccel_sum = 0.0;
    for m in &exo.per_workload {
        let b = base
            .per_workload
            .iter()
            .find(|x| x.workload == m.workload)
            .expect("baseline entry");
        let tcy: f64 = m.cycles.max(1) as f64;
        let ten: f64 = m.unit_energy.iter().sum::<f64>().max(f64::MIN_POSITIVE);
        let tf: Vec<f64> = m.unit_cycles.iter().map(|&c| c as f64 / tcy).collect();
        let ef: Vec<f64> = m.unit_energy.iter().map(|&e| e / ten).collect();
        println!(
            "{:<14} | {:>5.2} {:>5.2} {:>5.2} {:>5.2} {:>5.2} | {:>5.2} {:>5.2} {:>5.2} {:>5.2} {:>5.2} | {:>5.2}x",
            m.workload,
            tf[0], tf[1], tf[2], tf[3], tf[4],
            ef[0], ef[1], ef[2], ef[3], ef[4],
            b.cycles as f64 / m.cycles.max(1) as f64,
        );
        unaccel_sum += m.unaccelerated;
    }
    let n = exo.per_workload.len() as f64;
    println!(
        "\naverage unaccelerated instruction fraction: {:.0}% (paper: 16%)",
        100.0 * unaccel_sum / n
    );

    // Multi-BSA usage inside single applications (the cjpeg observation).
    let multi = exo
        .per_workload
        .iter()
        .filter(|m| m.unit_cycles[1..].iter().filter(|&&c| c > 0).count() >= 2)
        .count();
    println!("benchmarks using ≥2 BSAs within one application: {multi}");
}
