//! The design-space exploration of the paper's §5: 4 general-purpose cores
//! × 16 BSA subsets = 64 ExoCore design points, evaluated over a workload
//! set with Oracle scheduling.

use prism_tdg::{run_exocore, BsaKind, ExoRunResult};
use prism_udg::CoreConfig;

use crate::{oracle_pick, WorkloadData};

/// One ExoCore design point: a core plus a subset of the four BSAs.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// The general-purpose core.
    pub core: CoreConfig,
    /// The BSAs present (SIMD also enables the core's vector datapath).
    pub bsas: Vec<BsaKind>,
}

impl DesignPoint {
    /// Creates a design point; enabling SIMD switches the core's vector
    /// datapath on (as in the paper's `-S` configurations).
    #[must_use]
    pub fn new(core: CoreConfig, bsas: Vec<BsaKind>) -> Self {
        let core = if bsas.contains(&BsaKind::Simd) {
            core.with_simd()
        } else {
            core
        };
        DesignPoint { core, bsas }
    }

    /// The paper's Fig. 12 label, e.g. `"OOO2-SDN"` or `"IO2"`.
    #[must_use]
    pub fn label(&self) -> String {
        if self.bsas.is_empty() {
            self.core.name.clone()
        } else {
            let mut codes: Vec<char> = self.bsas.iter().map(|b| b.code()).collect();
            codes.sort_unstable_by_key(|c| "SDNT".find(*c));
            format!(
                "{}-{}",
                self.core.name,
                codes.into_iter().collect::<String>()
            )
        }
    }

    /// Total area (core + BSAs), mm².
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        let areas = prism_energy::AccelAreas::new();
        // `with_simd` already folded SIMD into the core area.
        let accel: f64 = self
            .bsas
            .iter()
            .filter(|b| **b != BsaKind::Simd)
            .map(|b| match b {
                BsaKind::DpCgra => areas.dp_cgra,
                BsaKind::NsDf => areas.ns_df,
                BsaKind::TraceP => areas.trace_p,
                BsaKind::Simd => 0.0,
            })
            .sum();
        self.core.area_mm2() + accel
    }
}

/// The four Table-4 cores.
#[must_use]
pub fn all_cores() -> Vec<CoreConfig> {
    vec![
        CoreConfig::io2(),
        CoreConfig::ooo2(),
        CoreConfig::ooo4(),
        CoreConfig::ooo6(),
    ]
}

/// The Table-4 core named `name`, in any case (`"OOO2"`, `"ooo2"`).
#[must_use]
pub fn core_by_name(name: &str) -> Option<CoreConfig> {
    all_cores()
        .into_iter()
        .find(|c| c.name.eq_ignore_ascii_case(name))
}

/// The BSA subset spelled in Fig. 12 codes, in any case (`"SDN"`, `""`);
/// `None` on any other letter.
#[must_use]
pub fn bsas_by_codes(codes: &str) -> Option<Vec<BsaKind>> {
    codes
        .chars()
        .map(|c| {
            BsaKind::ALL
                .into_iter()
                .find(|b| b.code() == c.to_ascii_uppercase())
        })
        .collect()
}

/// All 16 subsets of the four BSAs, in mask order.
#[must_use]
pub fn all_bsa_subsets() -> Vec<Vec<BsaKind>> {
    (0u32..16)
        .map(|mask| {
            BsaKind::ALL
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, b)| *b)
                .collect()
        })
        .collect()
}

/// The full 64-point design space (paper Fig. 12).
#[must_use]
pub fn all_design_points() -> Vec<DesignPoint> {
    let mut points = Vec::with_capacity(64);
    for core in all_cores() {
        for bsas in all_bsa_subsets() {
            points.push(DesignPoint::new(core.clone(), bsas));
        }
    }
    points
}

/// Per-workload metrics at one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMetrics {
    /// Workload name.
    pub workload: String,
    /// Total cycles.
    pub cycles: u64,
    /// Total energy (J).
    pub energy: f64,
    /// Fraction of instructions left unaccelerated.
    pub unaccelerated: f64,
    /// Cycles per unit (GPP, SIMD, DP-CGRA, NS-DF, Trace-P).
    pub unit_cycles: [u64; 5],
    /// Energy per unit (J).
    pub unit_energy: [f64; 5],
}

impl WorkloadMetrics {
    /// Extracts metrics from a combined run.
    #[must_use]
    pub fn from_run(run: &ExoRunResult, workload: &str) -> Self {
        WorkloadMetrics {
            workload: workload.to_string(),
            cycles: run.cycles,
            energy: run.energy.total(),
            unaccelerated: run.unaccelerated_fraction(),
            unit_cycles: run.unit_cycles,
            unit_energy: run.unit_energy,
        }
    }
}

/// Aggregated result for one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignResult {
    /// Fig. 12 label.
    pub label: String,
    /// Core name.
    pub core: String,
    /// BSA codes present (subset of "SDNT").
    pub bsas: String,
    /// Design area (mm²).
    pub area_mm2: f64,
    /// Per-workload metrics.
    pub per_workload: Vec<WorkloadMetrics>,
}

impl DesignResult {
    /// Geometric-mean speedup over a reference result (matched by workload
    /// name).
    #[must_use]
    pub fn geomean_speedup_over(&self, reference: &DesignResult) -> f64 {
        geomean(self.per_workload.iter().filter_map(|m| {
            reference
                .per_workload
                .iter()
                .find(|r| r.workload == m.workload)
                .map(|r| r.cycles as f64 / m.cycles.max(1) as f64)
        }))
    }

    /// Geometric-mean energy-efficiency gain over a reference result.
    #[must_use]
    pub fn geomean_energy_eff_over(&self, reference: &DesignResult) -> f64 {
        geomean(self.per_workload.iter().filter_map(|m| {
            reference
                .per_workload
                .iter()
                .find(|r| r.workload == m.workload)
                .map(|r| r.energy / m.energy.max(f64::MIN_POSITIVE))
        }))
    }
}

/// Finds a design result by its Fig. 12 label.
///
/// # Panics
///
/// Panics if the label is unknown.
#[must_use]
pub fn by_label<'a>(results: &'a [DesignResult], label: &str) -> &'a DesignResult {
    results
        .iter()
        .find(|r| r.label == label)
        .unwrap_or_else(|| panic!("no design point labeled {label}"))
}

/// Geometric mean of an iterator of positive values (1.0 if empty).
#[must_use]
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Evaluates one design point over a workload set with Oracle scheduling.
///
/// `tables` must hold, per workload, the [`crate::OracleTable`] measured on
/// `point.core`'s *base* configuration (SIMD flag does not change
/// scheduling candidates).
#[must_use]
pub fn evaluate_point(
    data: &[WorkloadData],
    tables: &[crate::OracleTable],
    point: &DesignPoint,
) -> DesignResult {
    assert_eq!(data.len(), tables.len(), "one oracle table per workload");
    let mut per_workload = Vec::with_capacity(data.len());
    for (w, table) in data.iter().zip(tables) {
        let assignment = oracle_pick(table, w, &point.bsas);
        let run = run_exocore(
            &w.trace,
            &w.ir,
            &point.core,
            &w.plans,
            &assignment,
            &point.bsas,
        );
        per_workload.push(WorkloadMetrics::from_run(&run, &w.name));
    }
    DesignResult {
        label: point.label(),
        core: point.core.name.clone(),
        bsas: point.bsas.iter().map(|b| b.code()).collect(),
        area_mm2: point.area_mm2(),
        per_workload,
    }
}

/// A point on the performance–energy plane (for frontier extraction,
/// Fig. 3/10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierPoint {
    /// Relative performance (higher = better).
    pub perf: f64,
    /// Relative energy (lower = better).
    pub energy: f64,
}

/// Extracts the Pareto frontier (max perf, min energy) from labeled points,
/// sorted by performance.
#[must_use]
pub fn pareto_frontier(points: &[(String, FrontierPoint)]) -> Vec<(String, FrontierPoint)> {
    let mut sorted: Vec<&(String, FrontierPoint)> = points.iter().collect();
    sorted.sort_by(|a, b| {
        a.1.perf
            .partial_cmp(&b.1.perf)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut frontier: Vec<(String, FrontierPoint)> = Vec::new();
    // Walk from highest performance down, keeping points that strictly
    // improve energy.
    let mut best_energy = f64::INFINITY;
    for p in sorted.iter().rev() {
        if p.1.energy < best_energy {
            best_energy = p.1.energy;
            frontier.push((*p).clone());
        }
    }
    frontier.reverse();
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_space_has_64_points_with_unique_labels() {
        let points = all_design_points();
        assert_eq!(points.len(), 64);
        let labels: std::collections::HashSet<String> =
            points.iter().map(DesignPoint::label).collect();
        assert_eq!(labels.len(), 64);
        assert!(labels.contains("IO2"));
        assert!(labels.contains("OOO6-SDNT"));
        assert!(labels.contains("OOO2-SDN"));
    }

    #[test]
    fn simd_subset_enables_vector_datapath() {
        let p = DesignPoint::new(CoreConfig::ooo2(), vec![BsaKind::Simd]);
        assert!(p.core.has_simd);
        let q = DesignPoint::new(CoreConfig::ooo2(), vec![BsaKind::NsDf]);
        assert!(!q.core.has_simd);
        assert!(p.area_mm2() > CoreConfig::ooo2().area_mm2());
    }

    #[test]
    fn label_order_is_canonical() {
        let p = DesignPoint::new(
            CoreConfig::io2(),
            vec![BsaKind::TraceP, BsaKind::Simd, BsaKind::NsDf],
        );
        assert_eq!(p.label(), "IO2-SNT");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn pareto_frontier_filters_dominated_points() {
        let pts = vec![
            (
                "a".into(),
                FrontierPoint {
                    perf: 1.0,
                    energy: 1.0,
                },
            ),
            (
                "b".into(),
                FrontierPoint {
                    perf: 2.0,
                    energy: 0.9,
                },
            ), // dominates a
            (
                "c".into(),
                FrontierPoint {
                    perf: 3.0,
                    energy: 1.5,
                },
            ),
            (
                "d".into(),
                FrontierPoint {
                    perf: 2.5,
                    energy: 2.0,
                },
            ), // dominated by c
        ];
        let f = pareto_frontier(&pts);
        let names: Vec<&str> = f.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["b", "c"]);
    }
}
