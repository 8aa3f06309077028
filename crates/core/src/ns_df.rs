//! The Non-Speculative Dataflow (SEED-like) TDG model — paper §3.2.
//!
//! **Analysis**: find fully-inlinable loops or loop nests that fit the
//! hardware budget (≤ 256 static compound instructions, no calls). Control
//! is converted to data dependences ("switch" instructions) via the
//! program dependence graph; instructions are scheduled onto compound
//! functional units (CFUs).
//!
//! **Transform**: the region leaves the core entirely (the core is
//! power-gated). Each instruction executes when its operands are ready
//! *and* its controlling branch has resolved — the non-speculative
//! serialization that is this BSA's drawback on control-critical code.
//! Extra edges model writeback-bus capacity and live-value transfer at
//! region boundaries.

use std::collections::HashMap;

use prism_ir::{Loop, LoopId, ProgramIr};
use prism_sim::DynInst;
use prism_udg::{CoreModel, FastSet, ModelDep, ResourceTable};

use crate::{ExecCtx, RegionScratch};

/// Static compound-instruction budget (paper §3.1: "256 static compound
/// instructions").
pub const MAX_STATIC_OPS: u32 = 256;
/// Compound-FU issue slots per cycle.
pub const CFU_SLOTS: u32 = 8;
/// Cache ports on the NS-DF's own memory interface.
pub const MEM_PORTS: u32 = 2;
/// Writeback-bus transfers per cycle (banked, as in SEED).
pub const BUS_WIDTH: u32 = 4;
/// Instructions fused per compound op (size-based grouping, as in the
/// paper's BERET validation).
pub const GROUP_SIZE: u64 = 3;
/// Cycles to transfer live values at region entry/exit.
pub const LIVE_XFER: u64 = 8;

/// The NS-DF plan for one target loop (nest).
#[derive(Debug, Clone)]
pub struct NsDfPlan {
    /// The target loop (may be a non-innermost nest root).
    pub loop_id: LoopId,
    /// Static instructions in the nest.
    pub static_ops: u32,
    /// Longest dependence chain through one iteration's body.
    pub depth: u32,
    /// Static speedup estimate for the Amdahl-tree scheduler.
    pub est_speedup: f64,
    /// Cycles to transfer live values at region entry/exit (ablatable;
    /// defaults to [`LIVE_XFER`]).
    pub live_xfer: u64,
    /// Spill/fill memory ops bypassed by the fabric's operand storage
    /// (paper §2.7): these skip the memory ports entirely.
    pub spill_ops: FastSet<prism_isa::StaticId>,
}

/// Runs the NS-DF analyzer over every loop (nests included).
#[must_use]
pub fn analyze_ns_df(ir: &ProgramIr) -> HashMap<LoopId, NsDfPlan> {
    let mut plans = HashMap::new();
    for l in &ir.loops.loops {
        if let Some(plan) = analyze_loop(ir, l) {
            plans.insert(l.id, plan);
        }
    }
    plans
}

fn analyze_loop(ir: &ProgramIr, l: &Loop) -> Option<NsDfPlan> {
    let static_ops = l.static_size(&ir.cfg);
    if static_ops > MAX_STATIC_OPS || l.has_calls(&ir.cfg, &ir.program) {
        return None;
    }
    if l.iterations < 8 || l.dyn_insts < 64 {
        return None; // not worth a region switch
    }
    // Depth of the body dependence chain (rough ILP measure).
    let mut def: HashMap<prism_isa::Reg, u32> = HashMap::new();
    let mut max_depth = 1u32;
    for &b in &l.blocks {
        for sid in ir.cfg.blocks[b as usize].inst_ids() {
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
            max_depth = max_depth.max(d);
        }
    }
    // Static estimate: dataflow exposes body_size/depth ILP, capped by CFU
    // slots; the Amdahl tree compares this against the core's width.
    let ilp = f64::from(static_ops) / f64::from(max_depth);
    let est_speedup = (ilp / 2.0).clamp(0.8, 3.0);
    let spill_ops = prism_ir::find_spills(&ir.program, &ir.cfg, l)
        .into_iter()
        .flat_map(|p| [p.store, p.load])
        .collect();
    Some(NsDfPlan {
        loop_id: l.id,
        static_ops,
        depth: max_depth,
        est_speedup,
        live_xfer: LIVE_XFER,
        spill_ops,
    })
}

/// How strongly an instruction is tied to control in dataflow mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlDep {
    /// Speculative: ignores control entirely (Trace-P hot path).
    None,
    /// Executes every iteration: waits only for the previous iteration's
    /// loop-continuation decision (the PDG places no other control
    /// dependence on it).
    IterationOnly,
    /// Control-dependent: waits for the most recent control decision.
    Full,
}

/// The shared dataflow timing engine: CFU slots, memory ports, and the
/// writeback bus. Used by both NS-DF (control enforced) and Trace-P
/// (speculative).
#[derive(Debug)]
pub struct DataflowEngine {
    cfus: ResourceTable,
    mem_ports: ResourceTable,
    bus: ResourceTable,
    /// Completion of the most recent control decision.
    pub last_ctrl: u64,
    /// Completion of the previous iteration's latch decision.
    pub iter_ctrl: u64,
    /// Region start (after live-in transfer).
    pub start: u64,
}

impl DataflowEngine {
    /// Creates an engine whose first op may not start before `start`.
    #[must_use]
    pub fn new(start: u64) -> Self {
        DataflowEngine {
            cfus: ResourceTable::new(CFU_SLOTS),
            mem_ports: ResourceTable::new(MEM_PORTS),
            bus: ResourceTable::new(BUS_WIDTH),
            last_ctrl: start,
            iter_ctrl: start,
            start,
        }
    }

    /// Returns the engine to the state [`DataflowEngine::new`]`(start)`
    /// builds, reusing its resource tables: a walk keeps one engine and
    /// resets it at each NS-DF or Trace-P region.
    pub fn reset(&mut self, start: u64) {
        self.cfus.reset();
        self.mem_ports.reset();
        self.bus.reset();
        self.last_ctrl = start;
        self.iter_ctrl = start;
        self.start = start;
    }

    /// Marks an iteration boundary: the latch decision that permits the
    /// next iteration has completion time `latch_complete`.
    pub fn begin_iteration(&mut self, latch_complete: u64) {
        self.iter_ctrl = self.iter_ctrl.max(latch_complete);
    }

    /// Times one dynamic instruction in dataflow mode and returns its
    /// completion. `control` selects which control decision (if any) the
    /// instruction must wait for.
    pub fn issue(
        &mut self,
        d: &DynInst,
        deps: &[ModelDep],
        control: ControlDep,
        ctx: &mut ExecCtx<'_>,
    ) -> u64 {
        self.issue_with(d, deps, control, false, ctx)
    }

    /// Like [`DataflowEngine::issue`]; `bypass_mem` keeps an identified
    /// spill/fill in the fabric's operand storage instead of the cache.
    pub fn issue_with(
        &mut self,
        d: &DynInst,
        deps: &[ModelDep],
        control: ControlDep,
        bypass_mem: bool,
        ctx: &mut ExecCtx<'_>,
    ) -> u64 {
        let inst = *ctx.static_inst(d);
        let mut ready = self.start;
        for dep in deps {
            ready = ready.max(dep.ready);
        }
        match control {
            ControlDep::None => {}
            ControlDep::IterationOnly => ready = ready.max(self.iter_ctrl),
            ControlDep::Full => ready = ready.max(self.last_ctrl),
        }

        let (issue_at, latency) = if bypass_mem {
            // Spill bypass: the value never leaves operand storage.
            (self.cfus.acquire(ready), 1)
        } else if let Some(m) = &d.mem {
            let at = self.mem_ports.acquire(ready);
            let lat = if m.is_store { 1 } else { u64::from(m.latency) };
            // Shared cache hierarchy: accesses cost dcache energy.
            ctx.events.core.dcache_accesses += 1;
            match m.level {
                prism_sim::MemLevel::L1 => {}
                prism_sim::MemLevel::L2 => ctx.events.core.l2_accesses += 1,
                prism_sim::MemLevel::Dram => {
                    ctx.events.core.l2_accesses += 1;
                    ctx.events.core.dram_accesses += 1;
                }
            }
            (at, lat)
        } else {
            (self.cfus.acquire(ready), u64::from(inst.op.latency()))
        };

        // Writeback bus capacity.
        let complete = self.bus.acquire(issue_at + latency);

        if inst.op.is_control() {
            // Control→data conversion: a switch op steers dependents.
            self.last_ctrl = self.last_ctrl.max(complete);
            ctx.events.accel.cfu_ops += 1; // the switch op itself
        }
        ctx.events.accel.op_storage_accesses += 2;
        ctx.events.accel.writeback_bus_ops += 1;
        complete
    }
}

/// Executes one loop-nest region on the NS-DF unit, timing it on
/// `engine` (reset here).
///
/// Returns the region's completion cycle; the caller resumes the core at
/// `end + LIVE_XFER`.
pub fn execute_ns_df(
    region: &[DynInst],
    plan: &NsDfPlan,
    ir: &prism_ir::ProgramIr,
    ctx: &mut ExecCtx<'_>,
    core: &mut CoreModel,
    engine: &mut DataflowEngine,
    scratch: &mut RegionScratch,
) -> u64 {
    let start = core.now() + plan.live_xfer;
    engine.reset(start);
    let mut arith_ops = 0u64;
    let mut end = start;

    // PDG approximation: blocks that execute on (essentially) every visit
    // to the region's header are control-dependent only on the iteration
    // decision; the rest wait for the most recent branch. Every region
    // instruction lies in the nest, so the test reads the block's count.
    let l = &ir.loops.loops[plan.loop_id as usize];
    let header_count = ir.cfg.blocks[l.header as usize].exec_count.max(1);
    let always_exec = |b: prism_ir::BlockId| {
        debug_assert!(l.blocks.binary_search(&b).is_ok(), "block outside the nest");
        ir.cfg.blocks[b as usize].exec_count * 1000 >= header_count * 999
    };
    let header_start = ir.cfg.blocks[l.header as usize].start;
    let deps = &mut scratch.deps;

    for d in region {
        let inst = *ctx.static_inst(d);
        if d.sid == header_start {
            // New iteration: permitted once the previous latch resolved.
            engine.begin_iteration(engine.last_ctrl);
            // Dependences resolve per instruction against current last
            // writers, so the window can be trimmed between iterations.
            ctx.trim_times_bounded();
        }
        ctx.deps_into(d, deps);
        let control = if always_exec(ir.cfg.block_of[d.sid as usize]) {
            ControlDep::IterationOnly
        } else {
            ControlDep::Full
        };
        let bypass = plan.spill_ops.contains(&d.sid);
        let complete = engine.issue_with(d, deps, control, bypass, ctx);
        ctx.retire(d, complete);
        if !inst.op.is_mem() && !inst.op.is_control() {
            arith_ops += 1;
        }
        end = end.max(complete);
    }

    // Size-based compound grouping amortizes per-op energy.
    ctx.events.accel.cfu_ops += arith_ops.div_ceil(GROUP_SIZE);

    let resume = end + plan.live_xfer;
    core.stall_fetch_until(resume);
    resume
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

    #[test]
    fn nested_loop_qualifies_as_a_whole() {
        let ir = ir_of(|b| {
            let (i, j, acc) = (Reg::int(1), Reg::int(2), Reg::int(3));
            b.init_reg(i, 16);
            let oh = b.bind_new_label();
            b.li(j, 16);
            let ih = b.bind_new_label();
            b.add(acc, acc, j);
            b.addi(j, j, -1);
            b.bne_label(j, Reg::ZERO, ih);
            b.addi(i, i, -1);
            b.bne_label(i, Reg::ZERO, oh);
            b.halt();
        });
        let plans = analyze_ns_df(&ir);
        // Both the nest root and the inner loop are candidates.
        assert_eq!(plans.len(), 2);
        for p in plans.values() {
            assert!(p.static_ops <= MAX_STATIC_OPS);
            assert!(p.est_speedup >= 0.8);
        }
    }

    #[test]
    fn loops_with_calls_rejected() {
        let ir = ir_of(|b| {
            let (i, lr) = (Reg::int(1), Reg::int(31));
            b.init_reg(i, 32);
            let f = b.label();
            let head = b.bind_new_label();
            b.call_label(lr, f);
            b.addi(i, i, -1);
            b.bne_label(i, Reg::ZERO, head);
            b.halt();
            b.bind(f);
            b.ret(lr);
        });
        let plans = analyze_ns_df(&ir);
        assert!(
            plans
                .values()
                .all(|p| { !ir.loops.loops[p.loop_id as usize].has_calls(&ir.cfg, &ir.program) }),
            "call-containing loops must not plan"
        );
    }

    #[test]
    fn dataflow_engine_respects_control_levels() {
        let t = {
            let mut b = ProgramBuilder::new("x");
            b.init_reg(Reg::int(1), 4);
            let head = b.bind_new_label();
            b.addi(Reg::int(1), Reg::int(1), -1);
            b.bne_label(Reg::int(1), Reg::ZERO, head);
            b.halt();
            prism_sim::trace(&b.build().unwrap()).unwrap()
        };
        let mut ctx = crate::ExecCtx::new(&t.program);
        let mut e = DataflowEngine::new(100);
        // A branch resolves late…
        let branch = &t.insts[1]; // the bne
        let c = e.issue(
            branch,
            &[ModelDep::data(150)],
            ControlDep::IterationOnly,
            &mut ctx,
        );
        assert!(c >= 150);
        assert!(e.last_ctrl >= c, "branch updates last_ctrl");
        // …full-control ops wait for it; iteration-only ops do not.
        let op = &t.insts[0];
        let full = e.issue(op, &[], ControlDep::Full, &mut ctx);
        assert!(full >= e.last_ctrl);
        let mut e2 = DataflowEngine::new(100);
        let free = e2.issue(op, &[], ControlDep::IterationOnly, &mut ctx);
        assert!(
            free < 150,
            "iteration-only op must not wait for unrelated control"
        );
    }

    #[test]
    fn bus_width_caps_throughput() {
        let t = {
            let mut b = ProgramBuilder::new("x");
            b.init_reg(Reg::int(1), 2);
            let head = b.bind_new_label();
            b.addi(Reg::int(1), Reg::int(1), -1);
            b.bne_label(Reg::int(1), Reg::ZERO, head);
            b.halt();
            prism_sim::trace(&b.build().unwrap()).unwrap()
        };
        let mut ctx = crate::ExecCtx::new(&t.program);
        let mut e = DataflowEngine::new(0);
        let op = &t.insts[0];
        // 4×BUS_WIDTH independent 1-cycle ops cannot all complete in one
        // cycle: the writeback bus spreads them.
        let mut completions = std::collections::HashMap::new();
        for _ in 0..(4 * BUS_WIDTH) {
            let c = e.issue(op, &[], ControlDep::None, &mut ctx);
            *completions.entry(c).or_insert(0u32) += 1;
        }
        for (cycle, n) in completions {
            assert!(n <= BUS_WIDTH, "cycle {cycle} wrote back {n} > {BUS_WIDTH}");
        }
    }
}

#[cfg(test)]
mod spill_tests {
    use super::*;
    use prism_isa::{ProgramBuilder, Reg};

    /// A loop that spills/fills through a frame slot every iteration.
    fn spilly_trace() -> prism_sim::Trace {
        let (sp, i, x, y) = (Reg::int(29), Reg::int(1), Reg::int(2), Reg::int(3));
        let mut b = ProgramBuilder::new("spilly");
        b.init_reg(sp, 0x8000);
        b.init_reg(i, 64);
        let head = b.bind_new_label();
        b.st(x, sp, -8);
        b.add(x, i, i);
        b.add(y, y, x);
        b.ld(x, sp, -8);
        b.add(y, y, x);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
        prism_sim::trace(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn spill_pairs_enter_the_plan_and_bypass_the_cache() {
        let t = spilly_trace();
        let ir = prism_ir::ProgramIr::analyze(&t);
        let plans = analyze_ns_df(&ir);
        let plan = plans.values().next().expect("spilly loop plans");
        assert_eq!(plan.spill_ops.len(), 2, "store+load pair identified");

        // With the bypass, the NS-DF run performs far fewer dcache
        // accesses than the loop's dynamic memory ops.
        let mut a = crate::Assignment::none();
        a.set(plan.loop_id, crate::BsaKind::NsDf);
        let run = crate::run_exocore(
            &t,
            &ir,
            &prism_udg::CoreConfig::ooo2(),
            &crate::AccelPlans {
                ns_df: plans.clone(),
                ..crate::AccelPlans::default()
            },
            &a,
            &[crate::BsaKind::NsDf],
        );
        // 128 dynamic spill/fill ops exist; none should touch the cache.
        assert_eq!(
            run.events.core.dcache_accesses, 0,
            "spill traffic must stay in operand storage"
        );
    }
}
