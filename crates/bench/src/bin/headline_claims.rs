//! The paper's §1/§5 headline claims ([`prism_exocore::headline_claims`]),
//! checked against this reproduction's measurements. Exits non-zero if a
//! claim's *shape* fails to hold (the substitutions in DESIGN.md mean
//! absolute factors differ).

use prism_bench::{full_design_space, results_or_exit};
use prism_exocore::headline_claims;

fn main() {
    let results = results_or_exit(full_design_space());
    let checks = headline_claims(&results);
    for check in &checks {
        println!("{check}");
    }
    let failures = checks.iter().filter(|c| !c.holds).count();
    println!();
    if failures == 0 {
        println!("all headline claims hold in shape ✓");
    } else {
        println!("{failures} claim(s) failed");
        std::process::exit(1);
    }
}
