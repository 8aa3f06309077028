//! BSA selection: the Oracle scheduler and the Amdahl-tree scheduler of
//! the paper's §3.3 / §4.

use std::sync::Arc;

use prism_ir::{LoopForest, LoopId};
use prism_tdg::{price_exocore, run_exocore_timing, Assignment, BsaKind, ExoRunResult, ExoTiming};
use prism_udg::{CoreConfig, ExecBudget};

use crate::WorkloadData;

/// Maximum per-region slowdown the Oracle accepts (paper §4: "no
/// individual region should reduce the performance by more than 10%").
pub const MAX_REGION_SLOWDOWN: f64 = 0.10;

/// One measured Oracle candidate: assigning `kind` to loop `lid`.
#[derive(Debug, Clone)]
pub struct CandidateGain {
    /// Target loop.
    pub lid: LoopId,
    /// Candidate BSA.
    pub kind: BsaKind,
    /// Whole-program cycles with only this assignment active.
    pub cycles: u64,
    /// Whole-program energy with only this assignment active (J).
    pub energy: f64,
    /// Energy-delay improvement over the baseline (positive = better).
    pub ed_gain: f64,
    /// Whether the region's slowdown stays within the 10% bound.
    pub perf_ok: bool,
}

/// The Oracle's measurement table for one (workload, core) pair: every
/// candidate evaluated in isolation against the plain-core baseline.
#[derive(Debug, Clone)]
pub struct OracleTable {
    /// Plain-core baseline: the empty-assignment walk, priced with no
    /// BSAs present.
    pub baseline: ExoRunResult,
    /// Measured candidates.
    pub candidates: Vec<CandidateGain>,
}

/// Builds the Oracle table: one combined-TDG run per (loop, BSA) plan.
///
/// This is the "based on past execution characteristics" measurement the
/// paper's Oracle uses.
#[must_use]
pub fn oracle_table(data: &WorkloadData, core: &CoreConfig) -> OracleTable {
    let walk = |a: &Assignment| run_exocore_timing(&data.trace, &data.ir, core, &data.plans, a);
    oracle_table_with(data, core, |a| Arc::new(walk(a)))
}

/// [`oracle_table`], kept as a no-op wrapper only because `sweepbench/`
/// calls it with [`ExecBudget::unlimited`]. No code outside `sweepbench/`
/// may call it.
///
/// # Errors
///
/// Never.
pub fn oracle_table_budgeted(
    data: &WorkloadData,
    core: &CoreConfig,
    _: &ExecBudget,
) -> Result<OracleTable, std::convert::Infallible> {
    Ok(oracle_table(data, core))
}

/// The walks an Oracle table measures, in its canonical order: the empty
/// (baseline) assignment first, then one single-loop assignment per plan,
/// by BSA in [`BsaKind::ALL`] order and by ascending [`LoopId`] within a
/// BSA. The plans are hash maps, so this order is fixed here, not by
/// their iteration; [`oracle_pick`] breaks exact gain ties by it.
#[must_use]
pub fn oracle_assignments(data: &WorkloadData) -> Vec<Assignment> {
    let mut assignments = vec![Assignment::none()];
    for kind in BsaKind::ALL {
        let mut lids: Vec<LoopId> = match kind {
            BsaKind::Simd => data.plans.simd.keys().copied().collect(),
            BsaKind::DpCgra => data.plans.dp_cgra.keys().copied().collect(),
            BsaKind::NsDf => data.plans.ns_df.keys().copied().collect(),
            BsaKind::TraceP => data.plans.trace_p.keys().copied().collect(),
        };
        lids.sort_unstable();
        for lid in lids {
            let mut a = Assignment::none();
            a.set(lid, kind);
            assignments.push(a);
        }
    }
    assignments
}

/// Builds the Oracle table from the walks `timing` provides on `core`,
/// asked for in [`oracle_assignments`] order and each priced with
/// [`price_exocore`]: the baseline is the empty assignment with no BSAs,
/// each candidate its one-loop assignment with that BSA.
#[must_use]
pub fn oracle_table_with(
    data: &WorkloadData,
    core: &CoreConfig,
    timing: impl Fn(&Assignment) -> Arc<ExoTiming>,
) -> OracleTable {
    let assignments = oracle_assignments(data);
    let (none, singles) = assignments.split_first().expect("the baseline comes first");
    let baseline = price_exocore(&timing(none), core, &[]);
    let base_ed = baseline.cycles as f64 * baseline.energy.total();
    let mut candidates = Vec::with_capacity(singles.len());
    for a in singles {
        let (&lid, &kind) = a.map.iter().next().expect("one loop per candidate");
        let run = price_exocore(&timing(a), core, &[kind]);
        let ed = run.cycles as f64 * run.energy.total();
        // Region share of baseline time, approximated by its dynamic-
        // instruction share.
        let region_share =
            data.ir.loops.loops[lid as usize].dyn_insts as f64 / data.trace.len().max(1) as f64;
        let slowdown = run.cycles as f64 - baseline.cycles as f64;
        let allowed = MAX_REGION_SLOWDOWN * region_share * baseline.cycles as f64;
        candidates.push(CandidateGain {
            lid,
            kind,
            cycles: run.cycles,
            energy: run.energy.total(),
            ed_gain: base_ed - ed,
            perf_ok: slowdown <= allowed.max(1.0),
        });
    }
    OracleTable {
        baseline,
        candidates,
    }
}

/// Picks the Oracle assignment from a measured table, restricted to the
/// `enabled` BSAs: best energy-delay first, greedy non-overlapping. The
/// sort is stable, so candidates with exactly equal gains keep the
/// table's [`oracle_assignments`] order.
#[must_use]
pub fn oracle_pick(table: &OracleTable, data: &WorkloadData, enabled: &[BsaKind]) -> Assignment {
    oracle_pick_in(table, &data.ir.loops, enabled)
}

/// [`oracle_pick`] over the workload's loop forest, the one part of its
/// data a pick reads: a caller that has dropped the trace can still pick.
#[must_use]
pub fn oracle_pick_in(table: &OracleTable, loops: &LoopForest, enabled: &[BsaKind]) -> Assignment {
    let mut ranked: Vec<&CandidateGain> = table
        .candidates
        .iter()
        .filter(|c| enabled.contains(&c.kind) && c.perf_ok && c.ed_gain > 0.0)
        .collect();
    ranked.sort_by(|a, b| {
        b.ed_gain
            .partial_cmp(&a.ed_gain)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut assignment = Assignment::none();
    let mut taken: Vec<LoopId> = Vec::new();
    let overlaps = |a: LoopId, b: LoopId| -> bool {
        let anc = |mut x: LoopId, y: LoopId| loop {
            if x == y {
                return true;
            }
            match loops.loops[x as usize].parent {
                Some(p) => x = p,
                None => return false,
            }
        };
        anc(a, b) || anc(b, a)
    };
    for c in ranked {
        if taken.iter().any(|&t| overlaps(t, c.lid)) {
            continue;
        }
        assignment.set(c.lid, c.kind);
        taken.push(c.lid);
    }
    assignment
}

/// Convenience: build the table and pick in one call.
#[must_use]
pub fn oracle_schedule(data: &WorkloadData, core: &CoreConfig, enabled: &[BsaKind]) -> Assignment {
    oracle_pick(&oracle_table(data, core), data, enabled)
}

/// The Amdahl-tree scheduler (paper §3.3, Fig. 9): a bottom-up traversal
/// of the loop tree applying Amdahl's law with each BSA's *static* speedup
/// estimate — what a profile-guided compiler could do without oracle runs.
#[must_use]
pub fn amdahl_schedule(data: &WorkloadData, core: &CoreConfig, enabled: &[BsaKind]) -> Assignment {
    let loops = &data.ir.loops.loops;
    let n = loops.len();
    // Process smallest-body loops first so children are solved before
    // parents.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| loops[i].blocks.len());

    // best_time[i]: estimated time (in dynamic-instruction units) for the
    // subtree rooted at loop i; choice[i]: the BSA assigned at i, if any.
    let mut best_time: Vec<f64> = loops.iter().map(|l| l.dyn_insts as f64).collect();
    let mut choice: Vec<Option<BsaKind>> = vec![None; n];

    // Width of the host core scales BSA appeal: a wide OOO core leaves
    // less on the table (paper Fig. 12's trend).
    let core_strength = f64::from(core.width).sqrt();

    for &i in &order {
        let l = &loops[i];
        let child_insts: u64 = l
            .children
            .iter()
            .map(|&c| loops[c as usize].dyn_insts)
            .sum();
        let child_best: f64 = l.children.iter().map(|&c| best_time[c as usize]).sum();
        let own = l.dyn_insts.saturating_sub(child_insts) as f64;
        let keep = own + child_best;

        let mut best = keep;
        let mut pick = None;
        for kind in enabled {
            if let Some(est) = data.plans.est_speedup(*kind, l.id) {
                let effective = (est / core_strength).max(0.6);
                let t = l.dyn_insts as f64 / effective;
                if t < best {
                    best = t;
                    pick = Some(*kind);
                }
            }
        }
        best_time[i] = best;
        choice[i] = pick;
    }

    // Emit assignments top-down: an assigned ancestor suppresses its
    // descendants.
    let mut assignment = Assignment::none();
    let mut order_desc = order;
    order_desc.reverse(); // largest (outermost) first
    'outer: for &i in &order_desc {
        if choice[i].is_none() {
            continue;
        }
        let mut cur = loops[i].parent;
        while let Some(p) = cur {
            if assignment.map.contains_key(&p) {
                continue 'outer;
            }
            cur = loops[p as usize].parent;
        }
        assignment.set(loops[i].id, choice[i].expect("checked"));
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_isa::{Program, ProgramBuilder, Reg};
    use prism_tdg::run_exocore;

    fn dp_kernel(n: i64) -> Program {
        let (pa, pb, i) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let (fa, ft) = (Reg::fp(0), Reg::fp(1));
        let mut b = ProgramBuilder::new("dp");
        b.init_reg(pa, 0x10000);
        b.init_reg(pb, 0x24000);
        b.init_reg(i, n);
        let head = b.bind_new_label();
        b.fld(fa, pa, 0);
        b.fmul(ft, fa, fa);
        b.fadd(ft, ft, fa);
        b.fst(ft, pb, 0);
        b.addi(pa, pa, 8);
        b.addi(pb, pb, 8);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn oracle_picks_something_profitable_on_dp_code() {
        let data = WorkloadData::prepare(&dp_kernel(600)).unwrap();
        let core = CoreConfig::ooo2();
        let table = oracle_table(&data, &core);
        assert!(!table.candidates.is_empty());
        let a = oracle_pick(&table, &data, &BsaKind::ALL);
        assert!(
            !a.map.is_empty(),
            "oracle found nothing on a vectorizable loop"
        );
        // And the pick actually beats the baseline on energy-delay.
        let run = run_exocore(&data.trace, &data.ir, &core, &data.plans, &a, &BsaKind::ALL);
        let base_ed = table.baseline.cycles as f64 * table.baseline.energy.total();
        let ed = run.cycles as f64 * run.energy.total();
        assert!(
            ed < base_ed,
            "oracle pick must improve ED: {ed} vs {base_ed}"
        );
    }

    #[test]
    fn oracle_respects_enabled_subset() {
        let data = WorkloadData::prepare(&dp_kernel(600)).unwrap();
        let table = oracle_table(&data, &CoreConfig::ooo2());
        let only_nsdf = oracle_pick(&table, &data, &[BsaKind::NsDf]);
        for kind in only_nsdf.map.values() {
            assert_eq!(*kind, BsaKind::NsDf);
        }
        let none = oracle_pick(&table, &data, &[]);
        assert!(none.map.is_empty());
    }

    #[test]
    fn amdahl_schedule_is_well_formed_and_nonempty() {
        let data = WorkloadData::prepare(&dp_kernel(600)).unwrap();
        let a = amdahl_schedule(&data, &CoreConfig::ooo2(), &BsaKind::ALL);
        assert!(a.is_well_formed(&data.ir));
        assert!(!a.map.is_empty());
    }

    #[test]
    fn amdahl_runs_without_oracle_information() {
        // The Amdahl schedule must be executable (every assignment has a
        // plan) and complete without panics on an irregular workload too.
        let (x, i, t) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let mut b = ProgramBuilder::new("irr");
        b.init_reg(x, 123456789);
        b.init_reg(i, 600);
        let head = b.bind_new_label();
        let skip = b.label();
        b.andi(t, x, 3);
        b.beq_label(t, Reg::ZERO, skip);
        b.shri(t, x, 2);
        b.xor(x, x, t);
        b.bind(skip);
        b.addi(x, x, 7);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
        let data = WorkloadData::prepare(&b.build().unwrap()).unwrap();
        let core = CoreConfig::ooo2();
        let a = amdahl_schedule(&data, &core, &BsaKind::ALL);
        let _ = run_exocore(&data.trace, &data.ir, &core, &data.plans, &a, &BsaKind::ALL);
    }
}
