//! The paper's §1/§5 headline claims as checks over the 64-point design
//! space. The substitutions in DESIGN.md mean absolute factors differ from
//! the paper's, so each check asserts a claim's *shape*: who wins, and by
//! roughly how much.

use std::fmt;

use crate::{by_label, DesignResult};

/// One headline check: what it claims, whether it holds, and the measured
/// values (with the bound and the paper's figure) behind the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimCheck {
    /// What the check claims.
    pub name: &'static str,
    /// Whether the claim holds on the results it was checked against.
    pub holds: bool,
    /// The measured values, the bound and the paper's figure.
    pub detail: String,
}

impl fmt::Display for ClaimCheck {
    /// `[PASS] name: detail`, or `[FAIL] …`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.holds { "PASS" } else { "FAIL" };
        write!(f, "[{verdict}] {}: {}", self.name, self.detail)
    }
}

/// Checks the paper's six headline claims (ten checks) against the
/// results of a full design-space sweep ([`crate::all_design_points`]).
///
/// # Panics
///
/// Panics if `results` lacks a design point a claim compares (IO2,
/// IO2-SDNT, OOO2, OOO2-SDN, OOO2-SDNT, OOO6, OOO6-S, OOO6-SDNT).
#[must_use]
pub fn headline_claims(results: &[DesignResult]) -> Vec<ClaimCheck> {
    let check = |name, holds, detail| ClaimCheck {
        name,
        holds,
        detail,
    };

    // Claim 1: "a 2-wide OOO processor with three BSAs matches the
    // performance of a conventional 6-wide OOO core with SIMD, has 40%
    // lower area and is 2.6× more energy efficient."
    let exo2 = by_label(results, "OOO2-SDN");
    let big = by_label(results, "OOO6-S");
    let perf = exo2.geomean_speedup_over(big);
    let area = exo2.area_mm2 / big.area_mm2;
    let eff = exo2.geomean_energy_eff_over(big);

    // Claim 2: "a full OOO2-based ExoCore provides 2.4× performance and
    // energy benefits over an OOO2 core."
    let full2 = by_label(results, "OOO2-SDNT");
    let ooo2 = by_label(results, "OOO2");
    let p2 = full2.geomean_speedup_over(ooo2);
    let e2 = full2.geomean_energy_eff_over(ooo2);

    // Claim 3: "an OOO6 ExoCore can achieve up to 1.9× performance and
    // 2.4× energy benefits over an OOO6 core."
    let full6 = by_label(results, "OOO6-SDNT");
    let ooo6 = by_label(results, "OOO6");
    let p6 = full6.geomean_speedup_over(ooo6);
    let e6 = full6.geomean_energy_eff_over(ooo6);

    // Claim 5: "the full IO2 ExoCore is the most energy-efficient among
    // all designs" (allow near-tie).
    let io2 = by_label(results, "IO2");
    let best_eff = results
        .iter()
        .map(|r| r.geomean_energy_eff_over(io2))
        .fold(0.0f64, f64::max);
    let io2_eff = by_label(results, "IO2-SDNT").geomean_energy_eff_over(io2);

    // Claim 6: low unaccelerated fraction on the full OOO2 ExoCore.
    let unaccel = full2
        .per_workload
        .iter()
        .map(|m| m.unaccelerated)
        .sum::<f64>()
        / full2.per_workload.len() as f64;

    vec![
        check(
            "OOO2-SDN matches OOO6-SIMD performance",
            perf >= 0.9,
            format!("relative performance {perf:.2} (want ≥0.9; paper: ≈1)"),
        ),
        check(
            "OOO2-SDN has ~40% lower area",
            area <= 0.75,
            format!("area ratio {area:.2} (want ≤0.75; paper: 0.60)"),
        ),
        check(
            "OOO2-SDN is ~2.6x more energy efficient",
            eff >= 1.8,
            format!("energy-eff ratio {eff:.2} (want ≥1.8; paper: 2.6)"),
        ),
        check(
            "full OOO2 ExoCore ≥1.5x perf over OOO2",
            p2 >= 1.5,
            format!("{p2:.2}x (paper: 2.4x)"),
        ),
        check(
            "full OOO2 ExoCore ≥1.5x energy-eff over OOO2",
            e2 >= 1.5,
            format!("{e2:.2}x (paper: 2.4x)"),
        ),
        check(
            "full OOO6 ExoCore speeds up OOO6",
            p6 >= 1.2,
            format!("{p6:.2}x (paper: up to 1.9x)"),
        ),
        check(
            "full OOO6 ExoCore improves OOO6 energy",
            e6 >= 1.3,
            format!("{e6:.2}x (paper: up to 2.4x)"),
        ),
        // Claim 4: BSAs help small cores' performance more than big cores'.
        check(
            "BSA perf benefit shrinks with core size",
            p2 >= p6,
            format!("OOO2 gain {p2:.2}x vs OOO6 gain {p6:.2}x"),
        ),
        check(
            "full IO2 ExoCore is (near-)most energy efficient",
            io2_eff >= 0.9 * best_eff,
            format!("IO2-SDNT eff {io2_eff:.2} vs best {best_eff:.2}"),
        ),
        check(
            "most cycles are accelerated on the full OOO2 ExoCore",
            unaccel <= 0.35,
            format!(
                "avg unaccelerated fraction {:.0}% (paper: 16%)",
                unaccel * 100.0
            ),
        ),
    ]
}
