//! The output check: an order-independent digest over a sweep's
//! `DesignResult`s that hashes every float by its exact bits.
//!
//! Result order depends on nothing the model computes (sorting, grid
//! merging, the seed's permutation of the workload list), so the digest
//! hashes each result on its own, with its per-workload metrics also
//! hashed one by one and sorted, and then hashes the sorted result hashes.

use prism_exocore::{DesignResult, WorkloadMetrics};
use prism_pipeline::hash::Sha256;

/// Golden digests, one `<registry> <hex>` line per workload registry.
const GOLDEN: &str = include_str!("../golden.txt");

/// The golden digest for `registry` (`full` or `micro`).
#[must_use]
pub fn golden(registry: &str) -> Option<&'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(registry)?.strip_prefix(' '))
        .map(str::trim)
}

fn put_str(h: &mut Sha256, s: &str) {
    h.update(&(s.len() as u64).to_le_bytes());
    h.update_str(s);
}

/// Hash of one workload's metrics at one design point (exact bits).
#[must_use]
pub fn metrics_hash(m: &WorkloadMetrics) -> [u8; 32] {
    let mut h = Sha256::new();
    put_str(&mut h, &m.workload);
    h.update(&m.cycles.to_le_bytes());
    h.update(&m.energy.to_bits().to_le_bytes());
    h.update(&m.unaccelerated.to_bits().to_le_bytes());
    for c in m.unit_cycles {
        h.update(&c.to_le_bytes());
    }
    for e in m.unit_energy {
        h.update(&e.to_bits().to_le_bytes());
    }
    h.finish().0
}

fn result_hash(r: &DesignResult) -> [u8; 32] {
    let mut per: Vec<[u8; 32]> = r.per_workload.iter().map(metrics_hash).collect();
    per.sort_unstable();
    let mut h = Sha256::new();
    put_str(&mut h, &r.label);
    put_str(&mut h, &r.core);
    put_str(&mut h, &r.bsas);
    h.update(&r.area_mm2.to_bits().to_le_bytes());
    h.update(&(per.len() as u64).to_le_bytes());
    for p in &per {
        h.update(p);
    }
    h.finish().0
}

/// The order-independent digest of a sweep's results, as hex.
#[must_use]
pub fn digest(results: &[DesignResult]) -> String {
    let mut leaves: Vec<[u8; 32]> = results.iter().map(result_hash).collect();
    leaves.sort_unstable();
    let mut h = Sha256::new();
    h.update(&(leaves.len() as u64).to_le_bytes());
    for l in &leaves {
        h.update(l);
    }
    h.finish().hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(name: &str, cycles: u64, energy: f64) -> WorkloadMetrics {
        WorkloadMetrics {
            workload: name.to_string(),
            cycles,
            energy,
            unaccelerated: 0.25,
            unit_cycles: [cycles, 1, 2, 3, 4],
            unit_energy: [energy, 0.1, 0.2, 0.3, 0.4],
        }
    }

    fn result(label: &str, per_workload: Vec<WorkloadMetrics>) -> DesignResult {
        DesignResult {
            label: label.to_string(),
            core: label.split('-').next().unwrap_or(label).to_string(),
            bsas: String::new(),
            area_mm2: 1.5,
            per_workload,
        }
    }

    fn sample() -> Vec<DesignResult> {
        vec![
            result("IO2", vec![metrics("fft", 10, 1.0), metrics("mm", 20, 2.0)]),
            result("OOO2", vec![metrics("fft", 7, 1.5), metrics("mm", 15, 2.5)]),
            result("OOO4", vec![metrics("fft", 5, 2.0), metrics("mm", 11, 3.0)]),
        ]
    }

    #[test]
    fn digest_ignores_result_and_workload_order() {
        let base = digest(&sample());
        let mut shuffled = sample();
        shuffled.reverse();
        for r in &mut shuffled {
            r.per_workload.reverse();
        }
        assert_eq!(digest(&shuffled), base);
        shuffled.rotate_left(1);
        assert_eq!(digest(&shuffled), base);
    }

    #[test]
    fn digest_sees_one_float_bit() {
        let base = digest(&sample());
        let mut changed = sample();
        let e = changed[1].per_workload[0].energy;
        changed[1].per_workload[0].energy = f64::from_bits(e.to_bits() + 1);
        assert_ne!(digest(&changed), base);
    }

    #[test]
    fn digest_sees_moved_metrics_and_missing_results() {
        let base = digest(&sample());
        // Same multiset of per-workload metrics, attached to other points.
        let mut swapped = sample();
        let a = swapped[0].per_workload[0].clone();
        swapped[0].per_workload[0] = swapped[1].per_workload[0].clone();
        swapped[1].per_workload[0] = a;
        assert_ne!(digest(&swapped), base);
        assert_ne!(digest(&sample()[..2]), base);
    }

    #[test]
    fn golden_lookup_reads_registry_lines() {
        for registry in ["full", "micro"] {
            let g = golden(registry).expect("golden digest present");
            assert_eq!(g.len(), 64, "{registry}: {g}");
        }
        assert_eq!(golden("nope"), None);
    }
}
