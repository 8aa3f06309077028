//! The Trace-Speculative Processor (BERET-like) TDG model — paper §3.2.
//!
//! **Analysis**: eligible inner loops have a loop-back probability ≥ 80%
//! (found via path profiling) and a hot-path configuration that fits the
//! hardware limit. Compound instructions may cross control boundaries, so
//! Trace-P has larger CFUs and half the operand storage of NS-DF.
//!
//! **Transform**: iterations that follow the hot trace execute on the
//! accelerator in *speculative* dataflow mode — control dependences are
//! not enforced. Stores go to an iteration-versioned store buffer.
//! Iterations that diverge from the trace are squashed and replayed on the
//! host core, which is the mechanism's cost.

use std::collections::HashMap;

use prism_ir::{Loop, LoopId, ProgramIr};
use prism_isa::StaticId;
use prism_sim::DynInst;
use prism_udg::CoreModel;

use crate::ctx::split_iterations;
use crate::ns_df::{DataflowEngine, LIVE_XFER};
use crate::{ExecCtx, RegionScratch};

/// Minimum loop-back probability (paper §3.2: 80%).
pub const MIN_LOOP_BACK_PROB: f64 = 0.8;
/// Static hot-trace budget: half of NS-DF's operand storage (§3.1).
pub const MAX_TRACE_OPS: u32 = 128;
/// Instructions fused per compound op — larger than NS-DF because
/// compound ops cross control boundaries (§3.1).
pub const GROUP_SIZE: u64 = 4;
/// Pipeline-flush style penalty (cycles) when a diverged iteration must be
/// replayed on the host core.
pub const REPLAY_PENALTY: u64 = 10;

/// The Trace-P plan for one target loop.
#[derive(Debug, Clone)]
pub struct TracePPlan {
    /// The target loop.
    pub loop_id: LoopId,
    /// Static instruction sequence of the hot path (per iteration).
    pub hot_path_sids: Vec<StaticId>,
    /// Fraction of iterations on the hot path (from profiling).
    pub hot_fraction: f64,
    /// Static speedup estimate for the Amdahl-tree scheduler.
    pub est_speedup: f64,
}

/// Runs the Trace-P analyzer over every innermost loop.
#[must_use]
pub fn analyze_trace_p(ir: &ProgramIr) -> HashMap<LoopId, TracePPlan> {
    let mut plans = HashMap::new();
    for l in ir.loops.innermost() {
        if let Some(plan) = analyze_loop(ir, l) {
            plans.insert(l.id, plan);
        }
    }
    plans
}

fn analyze_loop(ir: &ProgramIr, l: &Loop) -> Option<TracePPlan> {
    let paths = ir.paths.get(&l.id)?;
    if paths.loop_back_probability() < MIN_LOOP_BACK_PROB || l.iterations < 8 {
        return None;
    }
    let (hot_blocks, hot_count) = paths.hot_path()?;
    let hot_fraction = *hot_count as f64 / paths.iterations.max(1) as f64;
    if hot_fraction < 0.6 {
        return None; // too divergent: replays would dominate
    }
    let hot_path_sids: Vec<StaticId> = hot_blocks
        .iter()
        .flat_map(|&b| ir.cfg.blocks[b as usize].inst_ids())
        .collect();
    if hot_path_sids.len() as u32 > MAX_TRACE_OPS {
        return None;
    }

    // Static estimate: speculative dataflow exposes the trace's ILP, paid
    // back by the replay fraction.
    let mut def: HashMap<prism_isa::Reg, u32> = HashMap::new();
    let mut depth = 1u32;
    for &sid in &hot_path_sids {
        let inst = ir.program.inst(sid);
        let d = inst
            .sources()
            .filter_map(|s| def.get(&s))
            .max()
            .copied()
            .unwrap_or(0)
            + 1;
        if let Some(dst) = inst.dest() {
            def.insert(dst, d);
        }
        depth = depth.max(d);
    }
    let ilp = hot_path_sids.len() as f64 / f64::from(depth);
    let raw = (ilp / 2.0).clamp(0.8, 3.5);
    let est_speedup = raw * hot_fraction + 0.5 * (1.0 - hot_fraction);

    Some(TracePPlan {
        loop_id: l.id,
        hot_path_sids,
        hot_fraction,
        est_speedup: est_speedup.max(0.5),
    })
}

/// Executes one loop-invocation region on the Trace-P unit, timing its
/// on-trace iterations on `engine` (reset here).
///
/// Returns `(end_cycle, replays)`; the caller resumes the core at
/// `end + LIVE_XFER`.
pub fn execute_trace_p(
    region: &[DynInst],
    plan: &TracePPlan,
    ir: &ProgramIr,
    ctx: &mut ExecCtx<'_>,
    core: &mut CoreModel,
    engine: &mut DataflowEngine,
    scratch: &mut RegionScratch,
) -> (u64, u64) {
    let l = &ir.loops.loops[plan.loop_id as usize];
    let RegionScratch {
        deps, mi, iters, ..
    } = scratch;
    split_iterations(region, ir.cfg.blocks[l.header as usize].start, iters);

    let start = core.now() + LIVE_XFER;
    engine.reset(start);
    let mut end = start;
    let mut replays = 0u64;
    let mut arith_ops = 0u64;

    for &(s, e) in iters.iter() {
        let iter_insts = &region[s..e];
        // Dependences resolve per instruction against current last
        // writers, so the window can be trimmed between iterations.
        ctx.trim_times_bounded();
        let on_trace = iter_insts
            .iter()
            .map(|d| d.sid)
            .eq(plan.hot_path_sids.iter().copied());

        if on_trace {
            // Speculative dataflow over the hot trace.
            for d in iter_insts {
                let inst = *ctx.static_inst(d);
                ctx.deps_into(d, deps);
                if d.mem.is_some_and(|m| m.is_store) {
                    // Iteration-versioned store buffer.
                    ctx.events.accel.store_buffer_accesses += 1;
                }
                let complete = engine.issue(d, deps, crate::ns_df::ControlDep::None, ctx);
                ctx.retire(d, complete);
                if !inst.op.is_mem() && !inst.op.is_control() {
                    arith_ops += 1;
                }
                end = end.max(complete);
            }
        } else {
            // Trace mispeculation: squash and replay the iteration on the
            // host core (paper Fig. 8: "replay w/ GPP").
            replays += 1;
            ctx.events.accel.trace_replays += 1;
            core.stall_fetch_until(end + REPLAY_PENALTY);
            for d in iter_insts {
                ctx.model_inst_into(d, mi);
                let t = core.issue(mi);
                ctx.retire(d, t.complete);
                end = end.max(t.complete);
            }
            // The accelerator resumes after the replayed iteration.
            engine.start = engine.start.max(end + 2);
        }
    }

    ctx.events.accel.cfu_ops += arith_ops.div_ceil(GROUP_SIZE);
    let resume = end + LIVE_XFER;
    core.stall_fetch_until(resume);
    (resume, replays)
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

    /// Loop with a biased branch: 1 in `period` iterations diverges.
    fn biased(b: &mut ProgramBuilder, n: i64, period: i64) {
        let (x, i, t, acc) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
        b.init_reg(x, 0);
        b.init_reg(i, n);
        let head = b.bind_new_label();
        let rare = b.label();
        let join = b.label();
        b.addi(x, x, 1);
        b.rem(t, x, Reg::int(5));
        b.init_reg(Reg::int(5), period);
        b.beq_label(t, Reg::ZERO, rare);
        b.addi(acc, acc, 1);
        b.jmp_label(join);
        b.bind(rare);
        b.addi(acc, acc, 100);
        b.bind(join);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
    }

    #[test]
    fn biased_loop_plans_with_hot_path() {
        let ir = ir_of(|b| biased(b, 64, 8));
        let plans = analyze_trace_p(&ir);
        assert_eq!(plans.len(), 1);
        let p = plans.values().next().unwrap();
        assert!(
            (0.8..=0.95).contains(&p.hot_fraction),
            "hot {:.2}",
            p.hot_fraction
        );
        assert!(!p.hot_path_sids.is_empty());
        assert!(p.est_speedup > 0.5);
    }

    #[test]
    fn unbiased_loop_rejected() {
        // 50/50 divergence: replays would dominate.
        let ir = ir_of(|b| biased(b, 64, 2));
        assert!(analyze_trace_p(&ir).is_empty());
    }

    #[test]
    fn low_loop_back_probability_rejected() {
        // An inner loop that usually runs one iteration (early exit).
        let ir = ir_of(|b| {
            let (i, j) = (Reg::int(1), Reg::int(2));
            b.init_reg(i, 64);
            let outer = b.bind_new_label();
            b.li(j, 1);
            let inner = b.bind_new_label();
            b.addi(j, j, -1);
            b.bne_label(j, Reg::ZERO, inner); // never loops back
            b.addi(i, i, -1);
            b.bne_label(i, Reg::ZERO, outer);
            b.halt();
        });
        let plans = analyze_trace_p(&ir);
        // The inner loop (lbp ≈ 0) must not plan; the outer may.
        for p in plans.values() {
            let prof = &ir.paths[&p.loop_id];
            assert!(prof.loop_back_probability() >= MIN_LOOP_BACK_PROB);
        }
    }

    #[test]
    fn oversized_hot_trace_rejected() {
        let ir = ir_of(|b| {
            let i = Reg::int(1);
            b.init_reg(i, 32);
            let head = b.bind_new_label();
            // > MAX_TRACE_OPS static instructions in the body.
            for k in 0..140 {
                b.addi(Reg::int(2 + (k % 8) as u8), Reg::int(2 + (k % 8) as u8), 1);
            }
            b.addi(i, i, -1);
            b.bne_label(i, Reg::ZERO, head);
            b.halt();
        });
        assert!(analyze_trace_p(&ir).is_empty());
    }
}
