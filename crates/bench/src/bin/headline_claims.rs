//! The paper's §1/§5 headline claims, checked against this reproduction's
//! measurements. Exits non-zero if a claim's *shape* fails to hold (the
//! substitutions in DESIGN.md mean absolute factors differ).

use prism_bench::{by_label, full_design_space, results_or_exit};

fn main() {
    let results = results_or_exit(full_design_space());
    let io2 = by_label(&results, "IO2").clone();
    let mut failures = 0;
    let mut check = |name: &str, ok: bool, detail: String| {
        println!("[{}] {name}: {detail}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    // Claim 1: "a 2-wide OOO processor with three BSAs matches the
    // performance of a conventional 6-wide OOO core with SIMD, has 40%
    // lower area and is 2.6× more energy efficient."
    let exo2 = by_label(&results, "OOO2-SDN");
    let big = by_label(&results, "OOO6-S");
    let perf = exo2.geomean_speedup_over(big);
    let area = exo2.area_mm2 / big.area_mm2;
    let eff = exo2.geomean_energy_eff_over(big);
    check(
        "OOO2-SDN matches OOO6-SIMD performance",
        perf >= 0.9,
        format!("relative performance {perf:.2} (want ≥0.9; paper: ≈1)"),
    );
    check(
        "OOO2-SDN has ~40% lower area",
        area <= 0.75,
        format!("area ratio {area:.2} (want ≤0.75; paper: 0.60)"),
    );
    check(
        "OOO2-SDN is ~2.6x more energy efficient",
        eff >= 1.8,
        format!("energy-eff ratio {eff:.2} (want ≥1.8; paper: 2.6)"),
    );

    // Claim 2: "a full OOO2-based ExoCore provides 2.4× performance and
    // energy benefits over an OOO2 core."
    let full2 = by_label(&results, "OOO2-SDNT");
    let ooo2 = by_label(&results, "OOO2");
    let p = full2.geomean_speedup_over(ooo2);
    let e = full2.geomean_energy_eff_over(ooo2);
    check(
        "full OOO2 ExoCore ≥1.5x perf over OOO2",
        p >= 1.5,
        format!("{p:.2}x (paper: 2.4x)"),
    );
    check(
        "full OOO2 ExoCore ≥1.5x energy-eff over OOO2",
        e >= 1.5,
        format!("{e:.2}x (paper: 2.4x)"),
    );

    // Claim 3: "an OOO6 ExoCore can achieve up to 1.9× performance and
    // 2.4× energy benefits over an OOO6 core."
    let full6 = by_label(&results, "OOO6-SDNT");
    let ooo6 = by_label(&results, "OOO6");
    let p6 = full6.geomean_speedup_over(ooo6);
    let e6 = full6.geomean_energy_eff_over(ooo6);
    check(
        "full OOO6 ExoCore speeds up OOO6",
        p6 >= 1.2,
        format!("{p6:.2}x (paper: up to 1.9x)"),
    );
    check(
        "full OOO6 ExoCore improves OOO6 energy",
        e6 >= 1.3,
        format!("{e6:.2}x (paper: up to 2.4x)"),
    );

    // Claim 4: BSAs help small cores' performance more than big cores'.
    check(
        "BSA perf benefit shrinks with core size",
        p >= p6,
        format!("OOO2 gain {p:.2}x vs OOO6 gain {p6:.2}x"),
    );

    // Claim 5: "the full IO2 ExoCore is the most energy-efficient among
    // all designs" (allow near-tie).
    let io2_full = by_label(&results, "IO2-SDNT");
    let best_eff = results
        .iter()
        .map(|r| r.geomean_energy_eff_over(&io2))
        .fold(0.0f64, f64::max);
    let io2_eff = io2_full.geomean_energy_eff_over(&io2);
    check(
        "full IO2 ExoCore is (near-)most energy efficient",
        io2_eff >= 0.9 * best_eff,
        format!("IO2-SDNT eff {io2_eff:.2} vs best {best_eff:.2}"),
    );

    // Claim 6: low unaccelerated fraction on the full OOO2 ExoCore.
    let unaccel = full2
        .per_workload
        .iter()
        .map(|m| m.unaccelerated)
        .sum::<f64>()
        / full2.per_workload.len() as f64;
    check(
        "most cycles are accelerated on the full OOO2 ExoCore",
        unaccel <= 0.35,
        format!(
            "avg unaccelerated fraction {:.0}% (paper: 16%)",
            unaccel * 100.0
        ),
    );

    println!();
    if failures == 0 {
        println!("all headline claims hold in shape ✓");
    } else {
        println!("{failures} claim(s) failed");
        std::process::exit(1);
    }
}
