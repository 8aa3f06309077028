//! Figure 3 / Figure 10: performance–energy tradeoffs of single-BSA
//! designs and full ExoCores across the four general-purpose cores,
//! geomean over all workloads. Each curve is one accelerator family; each
//! point on it is one core.

use prism_bench::{full_design_space, results_or_exit};
use prism_exocore::by_label;

fn main() {
    let results = results_or_exit(full_design_space());
    let reference = by_label(&results, "IO2").clone();

    println!("=== Fig. 3 / Fig. 10: ExoCore tradeoffs across all workloads ===");
    println!("(relative performance ↑ and relative energy ↓ vs the IO2 core)\n");
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8}",
        "family \\ core", "IO2", "OOO2", "OOO4", "OOO6"
    );

    let families: &[(&str, &str)] = &[
        ("Gen. Core Only", ""),
        ("SIMD", "S"),
        ("DP-CGRA", "D"),
        ("NS-DF", "N"),
        ("TRACE-P", "T"),
        ("ExoCore (SDNT)", "SDNT"),
    ];
    for metric in ["performance", "energy"] {
        println!("-- relative {metric} --");
        for (name, codes) in families {
            let mut row = format!("{name:<22}");
            for core in ["IO2", "OOO2", "OOO4", "OOO6"] {
                let label = if codes.is_empty() {
                    core.to_string()
                } else {
                    format!("{core}-{codes}")
                };
                let r = by_label(&results, &label);
                let v = if metric == "performance" {
                    r.geomean_speedup_over(&reference)
                } else {
                    1.0 / r.geomean_energy_eff_over(&reference)
                };
                row.push_str(&format!(" {v:>8.2}"));
            }
            println!("{row}");
        }
        println!();
    }

    // Frontier check (the Fig. 3 cartoon): the ExoCore frontier must
    // dominate the general-core frontier.
    println!("-- frontier summary --");
    for core in ["IO2", "OOO2", "OOO4", "OOO6"] {
        let plain = by_label(&results, core);
        let full = by_label(&results, &format!("{core}-SDNT"));
        println!(
            "{core}: ExoCore gives {:.2}x perf and {:.2}x energy-eff over the bare core",
            full.geomean_speedup_over(plain),
            full.geomean_energy_eff_over(plain),
        );
    }
}
