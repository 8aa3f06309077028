//! Figure 11: interaction between accelerator, general core, and workload
//! class — the Fig. 10 curves split into regular (TPT, Parboil),
//! semi-regular (Mediabench, TPCH, SPECfp), and irregular (SPECint)
//! workload groups.

use prism_bench::{by_label, full_design_space, results_or_exit};
use prism_exocore::{geomean, DesignResult};
use prism_workloads::RegularityClass;

fn class_of(workload: &str) -> RegularityClass {
    prism_workloads::by_name(workload)
        .map(|w| w.class())
        .unwrap_or(RegularityClass::SemiRegular)
}

fn class_speedup(r: &DesignResult, reference: &DesignResult, class: RegularityClass) -> f64 {
    geomean(
        r.per_workload
            .iter()
            .filter(|m| class_of(&m.workload) == class)
            .filter_map(|m| {
                reference
                    .per_workload
                    .iter()
                    .find(|x| x.workload == m.workload)
                    .map(|x| x.cycles as f64 / m.cycles.max(1) as f64)
            }),
    )
}

fn class_energy(r: &DesignResult, reference: &DesignResult, class: RegularityClass) -> f64 {
    geomean(
        r.per_workload
            .iter()
            .filter(|m| class_of(&m.workload) == class)
            .filter_map(|m| {
                reference
                    .per_workload
                    .iter()
                    .find(|x| x.workload == m.workload)
                    .map(|x| m.energy / x.energy)
            }),
    )
}

fn main() {
    let results = results_or_exit(full_design_space());
    let reference = by_label(&results, "IO2").clone();

    println!("=== Fig. 11: accelerator × core × workload-class interaction ===");
    println!("(relative performance / relative energy vs IO2, per class)\n");

    let families: &[(&str, &str)] = &[
        ("Gen. Core Only", ""),
        ("SIMD", "S"),
        ("DP-CGRA", "D"),
        ("NS-DF", "N"),
        ("TRACE-P", "T"),
        ("ExoCore", "SDNT"),
    ];
    for (class, title) in [
        (RegularityClass::Regular, "Regular Workloads (TPT, Parboil)"),
        (
            RegularityClass::SemiRegular,
            "Semi-Regular Workloads (Mediabench, TPCH, SPECfp)",
        ),
        (RegularityClass::Irregular, "Irregular Workloads (SPECint)"),
    ] {
        println!("-- {title} --");
        println!(
            "{:<16} {:>14} {:>14} {:>14} {:>14}",
            "family", "IO2", "OOO2", "OOO4", "OOO6"
        );
        for (name, codes) in families {
            let mut row = format!("{name:<16}");
            for core in ["IO2", "OOO2", "OOO4", "OOO6"] {
                let label = if codes.is_empty() {
                    core.to_string()
                } else {
                    format!("{core}-{codes}")
                };
                let r = by_label(&results, &label);
                let p = class_speedup(r, &reference, class);
                let e = class_energy(r, &reference, class);
                row.push_str(&format!("   {p:>5.2}/{e:<5.2}"));
            }
            println!("{row}");
        }
        println!();
    }

    // The paper's irregular-workload claim: a full OOO2 ExoCore achieves
    // ~1.6× performance and energy over OOO2-with-SIMD even on SPECint.
    let full = by_label(&results, "OOO2-SDNT");
    let simd_only = by_label(&results, "OOO2-S");
    let p = class_speedup(full, simd_only, RegularityClass::Irregular);
    let e = 1.0 / class_energy(full, simd_only, RegularityClass::Irregular);
    println!("SPECint: OOO2 full-ExoCore vs OOO2-SIMD = {p:.2}x perf, {e:.2}x energy-eff");
    println!("(paper: 1.6x perf and energy)");
}
