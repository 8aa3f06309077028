//! The SIMD (loop auto-vectorization) TDG model — paper §3.2.
//!
//! **Analysis**: a loop vectorizes if consecutive iterations are
//! independent (no loop-carried memory dependences; carried registers are
//! only inductions/reductions), and the transformed body is expected to
//! stay under 2× the original dynamic instructions per iteration.
//!
//! **Transform**: µDG nodes from `VL` iterations are buffered; the first
//! becomes the vectorized iteration and the others are elided. If-converted
//! control becomes predicate/mask instructions, non-contiguous accesses are
//! scalarized (no scatter/gather hardware), and observed memory latency is
//! re-mapped onto the vector access (max over lanes).

use std::collections::HashMap;

use prism_ir::{AccessPattern, Loop, LoopId, ProgramIr};
use prism_isa::{FuClass, StaticId};
use prism_sim::{DynInst, MemLevel};
use prism_udg::{CoreModel, FastSet, ModelDep, ModelInst};

use crate::ctx::{issue, issue_after, latest_load_dep, split_iterations, LaneGroup};
use crate::{ExecCtx, RegionScratch};

/// Hardware vector length in 64-bit lanes (256-bit SIMD, Table 4).
pub const VECTOR_LENGTH: usize = 4;

/// The SIMD analysis plan for one vectorizable loop.
#[derive(Debug, Clone)]
pub struct SimdPlan {
    /// The target loop.
    pub loop_id: LoopId,
    /// Vector length in lanes.
    pub vl: usize,
    /// Static memory ops with contiguous per-iteration access.
    pub contiguous: FastSet<StaticId>,
    /// Latch branch sids (kept, one per vector group).
    pub latch_branches: FastSet<StaticId>,
    /// Number of reduction registers (adds a short horizontal-reduce tail).
    pub reductions: u32,
    /// Expected dynamic instructions per original iteration after
    /// vectorization (profitability metric).
    pub est_insts_per_iter: f64,
    /// Original dynamic instructions per iteration.
    pub orig_insts_per_iter: f64,
}

impl SimdPlan {
    /// Static speedup estimate used by the Amdahl-tree scheduler.
    #[must_use]
    pub fn est_speedup(&self) -> f64 {
        (self.orig_insts_per_iter / self.est_insts_per_iter.max(0.25)).max(1.0)
    }
}

/// Runs the SIMD analyzer over every innermost loop (the paper's
/// `TDG Analysis` step), returning plans for the legal & profitable ones.
#[must_use]
pub fn analyze_simd(ir: &ProgramIr) -> HashMap<LoopId, SimdPlan> {
    let mut plans = HashMap::new();
    for l in ir.loops.innermost() {
        if let Some(plan) = analyze_loop(ir, l) {
            plans.insert(l.id, plan);
        }
    }
    plans
}

fn analyze_loop(ir: &ProgramIr, l: &Loop) -> Option<SimdPlan> {
    let mem = ir.mem.get(&l.id)?;
    let regs = ir.regs.get(&l.id)?;
    let paths = ir.paths.get(&l.id)?;
    // Legality: independent iterations.
    if !mem.vectorizable_memory() || !regs.vectorizable_dataflow() {
        return None;
    }
    // Need at least one full vector group on average.
    if l.avg_trip_count() < (2 * VECTOR_LENGTH) as f64 {
        return None;
    }
    if paths.iterations == 0 {
        return None;
    }

    // Classify memory ops and find latch branches.
    let mut contiguous = FastSet::default();
    let mut scalarized = 0u32;
    let mut mem_ops = 0u32;
    for &b in &l.blocks {
        for sid in ir.cfg.blocks[b as usize].inst_ids() {
            let inst = ir.program.inst(sid);
            if inst.op.is_mem() {
                mem_ops += 1;
                let pat = mem.pattern(sid);
                if pat.is_contiguous(inst.width) || pat == AccessPattern::Constant {
                    contiguous.insert(sid);
                } else {
                    scalarized += 1;
                }
            }
        }
    }
    let mut latch_branches = FastSet::default();
    for &latch in &l.latches {
        let end = ir.cfg.blocks[latch as usize].end;
        if ir.program.inst(end).op.is_cond_branch() {
            latch_branches.insert(end);
        }
    }

    // Profitability: expected post-transform instructions per iteration.
    // Vector group executes the union of the lanes' paths once, plus masks
    // for path divergence, plus VL scalar ops per scalarized access.
    let body_size = f64::from(l.static_size(&ir.cfg));
    let distinct_paths = paths.paths.len().max(1) as f64;
    let union_est = body_size
        .min(paths.avg_blocks_per_iter() / paths.paths[0].0.len().max(1) as f64 * body_size);
    let masks = (distinct_paths - 1.0).min(6.0);
    let scalar_extra = f64::from(scalarized) * (VECTOR_LENGTH as f64 - 1.0 + 1.0);
    let est_group = union_est + masks + scalar_extra;
    let est_insts_per_iter = est_group / VECTOR_LENGTH as f64;
    let orig = l.dyn_insts as f64 / l.iterations.max(1) as f64;
    if est_insts_per_iter > 2.0 * orig {
        return None; // the paper's 2× blow-up cutoff
    }
    let _ = mem_ops;

    let reductions = regs
        .carried
        .values()
        .filter(|c| matches!(c, prism_ir::CarriedClass::Reduction { .. }))
        .count() as u32;

    Some(SimdPlan {
        loop_id: l.id,
        vl: VECTOR_LENGTH,
        contiguous,
        latch_branches,
        reductions,
        est_insts_per_iter,
        orig_insts_per_iter: orig,
    })
}

/// Executes one loop-invocation region under the SIMD transform.
///
/// `region` must be the contiguous dynamic instructions of one invocation
/// of the planned loop. Core-pipeline effects go through `core`; value
/// availability and energy flow through `ctx`.
pub fn execute_simd(
    region: &[DynInst],
    plan: &SimdPlan,
    ir: &ProgramIr,
    ctx: &mut ExecCtx<'_>,
    core: &mut CoreModel,
    scratch: &mut RegionScratch,
) {
    let l = &ir.loops.loops[plan.loop_id as usize];
    let RegionScratch {
        deps,
        mi,
        iters,
        group,
        ..
    } = scratch;
    split_iterations(region, ir.cfg.blocks[l.header as usize].start, iters);

    let mut idx = 0;
    while idx < iters.len() {
        let remaining = iters.len() - idx;
        if remaining >= plan.vl {
            execute_group(
                region,
                &iters[idx..idx + plan.vl],
                plan,
                ctx,
                core,
                group,
                deps,
            );
            // Between groups every future dependence resolves through a
            // current last writer, so the window can be trimmed.
            ctx.trim_times_bounded();
            idx += plan.vl;
        } else {
            // Scalar epilogue: fewer than VL iterations remain.
            for d in &region[iters[idx].0..] {
                ctx.model_inst_into(d, mi);
                let t = core.issue(mi);
                ctx.retire(d, t.complete);
            }
            break;
        }
    }

    // Horizontal reduction tail: log2(VL) shuffle+op pairs per reduction.
    for _ in 0..plan.reductions {
        for _ in 0..2 {
            let now = core.now();
            issue_after(
                core,
                deps,
                now,
                ModelInst {
                    fu: FuClass::Fp,
                    latency: 3,
                    reads: 2,
                    writes: 1,
                    ..ModelInst::default()
                },
            );
            ctx.events.accel.vector_lane_ops += plan.vl as u64 / 2;
        }
    }
}

/// Whether two iterations took the same path (the same static
/// instructions in the same order).
fn same_path(a: &[DynInst], b: &[DynInst]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.sid == y.sid)
}

fn execute_group(
    region: &[DynInst],
    iterations: &[(usize, usize)],
    plan: &SimdPlan,
    ctx: &mut ExecCtx<'_>,
    core: &mut CoreModel,
    group: &mut LaneGroup,
    deps: &mut Vec<ModelDep>,
) {
    // Union of static instructions touched by the group's lanes, with the
    // lanes (dyn insts) per sid, in program (≈ topological body) order.
    let (g_start, g_end) = (iterations[0].0, iterations[iterations.len() - 1].1);
    group.load(region, g_start, g_end, ctx);

    for lanes in group.runs() {
        let sid = lanes[0].0;
        let inst = *ctx.program.inst(sid);
        let lane_count = lanes.len();
        let lane_insts = || lanes.iter().map(|&(_, li)| &region[li]);

        // Merge (and dedup) the lanes' resolvable dependences, applying the
        // elision rule: in-group forward references are the cross-lane
        // dependences that vectorization removes, so unset in-group
        // producers contribute no edge.
        deps.clear();
        group.merge_data_deps(lanes, ctx, deps);
        if let Some(r) = latest_load_dep(region, lanes, ctx) {
            deps.push(ModelDep::memory(r));
        }

        let complete;
        if inst.op.is_cond_branch() && !plan.latch_branches.contains(&sid) {
            // If-converted: becomes one predicate-setting instruction.
            let mi = ModelInst {
                fu: FuClass::Alu,
                latency: 1,
                reads: 2,
                writes: 1,
                ..ModelInst::default()
            };
            complete = issue(core, deps, mi);
            ctx.events.accel.mask_ops += 1;
        } else if inst.op.is_cond_branch() {
            // Latch branch: kept once per group.
            let mispredicted = lane_insts().any(|d| d.branch.is_some_and(|b| b.mispredicted));
            let taken = lane_insts().any(|d| d.branch.is_some_and(|b| b.taken));
            let mi = ModelInst {
                fu: FuClass::Alu,
                latency: 1,
                is_cond_branch: true,
                mispredicted,
                branch_taken: taken,
                reads: 2,
                writes: 0,
                ..ModelInst::default()
            };
            complete = issue(core, deps, mi);
        } else if inst.op.is_mem() && !plan.contiguous.contains(&sid) {
            // Scalarized access: one op per lane plus a shuffle. One
            // ModelInst is reused across lanes so the dep list is never
            // cloned; only the memory-dependent fields change per lane.
            let mut mi = ModelInst {
                fu: FuClass::Mem,
                deps: std::mem::take(deps),
                reads: 2,
                ..ModelInst::default()
            };
            let mut last = 0;
            for d in lane_insts() {
                let m = d.mem.expect("memory op");
                mi.latency = if m.is_store { 1 } else { u64::from(m.latency) };
                mi.mem_level = Some(m.level);
                mi.is_store = m.is_store;
                mi.writes = u8::from(!m.is_store);
                last = core.issue(&mi).complete;
            }
            *deps = mi.deps;
            let shuffle = ModelInst {
                fu: FuClass::Fp,
                latency: 1,
                reads: 1,
                writes: 1,
                ..ModelInst::default()
            };
            complete = issue_after(core, deps, last, shuffle);
            ctx.events.accel.mask_ops += 1;
        } else if inst.op.is_mem() {
            // One wide access: latency/level of the worst lane.
            let mut latency = 1u64;
            let mut level = MemLevel::L1;
            let mut is_store = false;
            for d in lane_insts() {
                let m = d.mem.expect("memory op");
                is_store = m.is_store;
                if !m.is_store {
                    latency = latency.max(u64::from(m.latency));
                }
                level = worst_level(level, m.level);
            }
            let mi = ModelInst {
                fu: FuClass::Mem,
                latency,
                mem_level: Some(level),
                is_store,
                reads: 2,
                writes: u8::from(!is_store),
                ..ModelInst::default()
            };
            complete = issue(core, deps, mi);
        } else {
            // Vector ALU/FP op (or a group-wide induction update).
            let mi = ModelInst {
                fu: inst.fu_class(),
                latency: u64::from(inst.op.latency()),
                vector: lane_count > 1,
                reads: inst.sources().count() as u8,
                writes: u8::from(inst.dest().is_some()),
                ..ModelInst::default()
            };
            complete = issue(core, deps, mi);
            ctx.events.accel.vector_lane_ops += lane_count as u64;
        }

        // All lanes' values become available at the vector op's completion.
        for d in lane_insts() {
            ctx.set_time(d.seq, complete);
            if let Some(m) = &d.mem {
                if m.is_store {
                    ctx.mems.record_store(m.addr, m.width, complete);
                }
            }
        }
    }

    // Mask/blend ops for path divergence within the group: one per
    // distinct path beyond the first.
    let paths = iterations
        .iter()
        .enumerate()
        .filter(|&(k, &(s, e))| {
            !iterations[..k]
                .iter()
                .any(|&(ps, pe)| same_path(&region[ps..pe], &region[s..e]))
        })
        .count();
    for _ in 1..paths {
        let now = core.now();
        let mi = ModelInst {
            fu: FuClass::Fp,
            latency: 1,
            reads: 2,
            writes: 1,
            ..ModelInst::default()
        };
        issue_after(core, deps, now, mi);
        ctx.events.accel.mask_ops += 1;
    }
}

/// Max of two memory levels (Dram > L2 > L1) — shared with the DP-CGRA
/// model's vectorized access collapsing.
pub(crate) fn worst_level_pub(a: MemLevel, b: MemLevel) -> MemLevel {
    worst_level(a, b)
}

fn worst_level(a: MemLevel, b: MemLevel) -> MemLevel {
    use MemLevel::*;
    match (a, b) {
        (Dram, _) | (_, Dram) => Dram,
        (L2, _) | (_, L2) => L2,
        _ => L1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_isa::{ProgramBuilder, Reg};

    fn ir_of(build: impl FnOnce(&mut ProgramBuilder)) -> ProgramIr {
        let mut b = ProgramBuilder::new("t");
        build(&mut b);
        let t = prism_sim::trace(&b.build().unwrap()).unwrap();
        ProgramIr::analyze(&t)
    }

    /// Streaming loop: out[i] = in[i] * 2.0
    fn streaming(b: &mut ProgramBuilder, n: i64) {
        let (pi, po, i) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let (x, k) = (Reg::fp(0), Reg::fp(1));
        b.init_reg(pi, 0x10000);
        b.init_reg(po, 0x24000);
        b.init_reg(i, n);
        b.fli(k, 2.0);
        let head = b.bind_new_label();
        b.fld(x, pi, 0);
        b.fmul(x, x, k);
        b.fst(x, po, 0);
        b.addi(pi, pi, 8);
        b.addi(po, po, 8);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
    }

    #[test]
    fn streaming_loop_vectorizes_with_contiguous_accesses() {
        let ir = ir_of(|b| streaming(b, 64));
        let plans = analyze_simd(&ir);
        assert_eq!(plans.len(), 1);
        let plan = plans.values().next().unwrap();
        assert_eq!(plan.vl, VECTOR_LENGTH);
        assert_eq!(plan.contiguous.len(), 2, "both fld and fst are unit-stride");
        assert_eq!(plan.latch_branches.len(), 1);
        assert_eq!(plan.reductions, 0);
        assert!(plan.est_speedup() > 1.5, "est {:.2}", plan.est_speedup());
    }

    #[test]
    fn short_trip_count_loops_rejected() {
        // avg trip 4 < 2×VL: not worth vectorizing.
        let ir = ir_of(|b| streaming(b, 4));
        assert!(analyze_simd(&ir).is_empty());
    }

    #[test]
    fn recurrence_loops_rejected() {
        let ir = ir_of(|b| {
            let (x, i) = (Reg::int(1), Reg::int(2));
            b.init_reg(x, 3);
            b.init_reg(i, 64);
            let head = b.bind_new_label();
            b.mul(x, x, x);
            b.addi(x, x, 1);
            b.addi(i, i, -1);
            b.bne_label(i, Reg::ZERO, head);
            b.halt();
        });
        assert!(analyze_simd(&ir).is_empty());
    }

    #[test]
    fn gather_loop_plans_with_scalarized_access() {
        // Indexed gather: vectorizable dataflow, non-contiguous loads.
        let ir = ir_of(|b| {
            let (pidx, pv, i, idx) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
            let (x, acc) = (Reg::fp(0), Reg::fp(1));
            b.init_reg(pidx, 0x10000);
            b.init_reg(pv, 0x24000);
            b.init_reg(i, 64);
            // Pseudo-random-ish indices baked into memory.
            crateless_init(b, 0x10000, 64);
            let head = b.bind_new_label();
            b.ld(idx, pidx, 0);
            b.shli(idx, idx, 3);
            b.add(idx, idx, pv);
            b.fld(x, idx, 0);
            b.fadd(acc, acc, x);
            b.addi(pidx, pidx, 8);
            b.addi(i, i, -1);
            b.bne_label(i, Reg::ZERO, head);
            b.halt();
        });
        let plans = analyze_simd(&ir);
        assert_eq!(plans.len(), 1);
        let plan = plans.values().next().unwrap();
        // The index load is contiguous; the gather is not.
        assert_eq!(plan.contiguous.len(), 1);
        assert_eq!(plan.reductions, 1, "acc is a reduction");
    }

    fn crateless_init(b: &mut ProgramBuilder, addr: u64, n: usize) {
        let vals: Vec<i64> = (0..n as i64).map(|k| (k * 17 + 5) % 61).collect();
        b.init_words(addr, &vals);
    }

    #[test]
    fn worst_level_ordering() {
        use prism_sim::MemLevel::*;
        assert_eq!(worst_level(L1, L2), L2);
        assert_eq!(worst_level(Dram, L1), Dram);
        assert_eq!(worst_level(L1, L1), L1);
        assert_eq!(worst_level(L2, Dram), Dram);
    }
}
