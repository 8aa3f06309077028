//! Figure 12: the full 64-point design-space characterization — speedup,
//! energy efficiency, and area of every core × BSA-subset combination,
//! relative to the dual-issue in-order (IO2) design, sorted by speedup
//! (as the paper's x-axis is).

use prism_bench::{full_design_space, results_or_exit};
use prism_exocore::by_label;

fn main() {
    let results = results_or_exit(full_design_space());
    let reference = by_label(&results, "IO2").clone();

    let mut rows: Vec<(String, f64, f64, f64)> = results
        .iter()
        .map(|r| {
            (
                r.label.clone(),
                r.geomean_speedup_over(&reference),
                r.geomean_energy_eff_over(&reference),
                r.area_mm2 / reference.area_mm2,
            )
        })
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

    println!("=== Fig. 12: design-space characterization (all 64 ExoCores) ===");
    println!("(vs IO2; sorted by speedup, as in the paper's x-axis)\n");
    println!(
        "{:<14} {:>8} {:>11} {:>7}",
        "config", "speedup", "energy-eff", "area"
    );
    for (label, s, e, a) in &rows {
        println!("{label:<14} {s:>8.2} {e:>11.2} {a:>7.2}");
    }

    // The quantitative insights of §5.2.
    println!("\n-- §5.2 design-choice checks --");
    let ooo6_simd = by_label(&results, "OOO6-S");
    let p_ref = ooo6_simd.geomean_speedup_over(&reference);
    let e_ref = ooo6_simd.geomean_energy_eff_over(&reference);
    let a_ref = ooo6_simd.area_mm2 / reference.area_mm2;

    // "Matching performance" uses a 95% band, as geomeans over different
    // workload analogues wobble by a few percent.
    let beats = |prefix: &str| {
        rows.iter()
            .filter(|(l, s, e, a)| {
                l.starts_with(prefix)
                    && l.contains('-')
                    && *s >= 0.95 * p_ref
                    && *e >= e_ref
                    && *a <= a_ref
            })
            .count()
    };
    println!("OOO6-S baseline: speedup {p_ref:.2}, energy-eff {e_ref:.2}, area {a_ref:.2}");
    println!(
        "OOO2 ExoCores matching OOO6-S perf at lower energy+area: {} (paper: 4)",
        beats("OOO2")
    );
    println!(
        "OOO4 ExoCores matching OOO6-S perf at lower energy+area: {} (paper: 9)",
        beats("OOO4")
    );
    let best_io = rows
        .iter()
        .filter(|(l, ..)| l.starts_with("IO2"))
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    let ooo6 = by_label(&results, "OOO6");
    println!(
        "best IO2 ExoCore ({}) reaches {:.0}% of OOO6 performance (paper: 88%)",
        best_io.0,
        100.0 * best_io.1 / ooo6.geomean_speedup_over(&reference)
    );
    let full_io2 = rows.iter().find(|(l, ..)| l == "IO2-SDNT").unwrap();
    let most_eff = rows
        .iter()
        .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
        .unwrap();
    println!(
        "most energy-efficient design: {} ({:.2}); full IO2 ExoCore: {:.2} (paper: IO2 full ExoCore is most efficient)",
        most_eff.0, most_eff.2, full_io2.2
    );
}
