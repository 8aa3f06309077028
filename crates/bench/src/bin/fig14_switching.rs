//! Figure 14: ExoCore dynamic switching behavior — the windowed speedup of
//! a full OOO2 ExoCore over the OOO2 core, with the dominant unit per
//! window, for the paper's two timeline benchmarks (djpeg and h264ref
//! analogues).

use prism_bench::{run_or_exit, session};
use prism_exocore::{oracle_schedule, switching_timeline};
use prism_tdg::BsaKind;
use prism_udg::CoreConfig;

fn main() {
    let session = session();
    println!("=== Fig. 14: ExoCore dynamic switching (full OOO2 ExoCore vs OOO2) ===\n");
    for name in ["djpeg-1", "464.h264ref"] {
        let w = prism_workloads::by_name(name).expect(name);
        let data = run_or_exit(session.prepare(w));
        let core = CoreConfig::ooo2();
        let assignment = oracle_schedule(&data, &core, &BsaKind::ALL);
        let window = (data.trace.len() as u64 / 40).max(200);
        let points = switching_timeline(&data, &core, &assignment, &BsaKind::ALL, window);

        println!("-- {name} (window = {window} instructions) --");
        println!(
            "{:>10} {:>9} {:>9} {:>7}  unit / sparkline",
            "inst", "base cy", "exo cy", "spdup"
        );
        for p in &points {
            let bar_len = (p.speedup * 8.0).round().clamp(1.0, 60.0) as usize;
            println!(
                "{:>10} {:>9} {:>9} {:>6.2}x  {:<8} {}",
                p.end_seq,
                p.base_cycles,
                p.exo_cycles,
                p.speedup,
                p.dominant_unit.to_string(),
                "#".repeat(bar_len)
            );
        }
        let units: std::collections::HashSet<_> = points.iter().map(|p| p.dominant_unit).collect();
        println!(
            "distinct units used: {} ({})\n",
            units.len(),
            units
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
}
