//! The Data-Parallel CGRA (DySER-like) TDG model — paper §3.2.
//!
//! **Analysis**: a slicing pass separates each target loop's body into a
//! *computation subgraph* (offloaded to the CGRA) and an *access slice*
//! (loads, stores, address arithmetic, and control, which stay on the
//! core). Values crossing the interface become explicit communication
//! instructions. Loops with more communication than offloaded computation
//! are rejected. Vectorization legality is borrowed from SIMD; when legal,
//! the computation is cloned across iterations until the 64-FU fabric
//! fills.
//!
//! **Transform**: the core executes the access slice plus `comm.send` /
//! `comm.recv` instructions; the CGRA executes the computation subgraph in
//! a pipelined fashion. Two extra edge families model accelerator
//! pipelining (initiation interval between computation instances, in-order
//! completion), and dependence edges carry scheduling/routing delay. A
//! small configuration cache is modeled: entering a loop whose
//! configuration is not resident stalls the core while it loads.

use std::collections::{HashMap, HashSet};

use prism_ir::{Loop, LoopId, ProgramIr};
use prism_isa::{FuClass, StaticId};
use prism_sim::DynInst;
use prism_udg::{CoreModel, FastSet, ModelDep, ModelInst};

use crate::ctx::{issue, issue_after, latest_load_dep, split_iterations};
use crate::simd::VECTOR_LENGTH;
use crate::{ExecCtx, RegionScratch};

/// Number of functional units in the CGRA fabric (paper §3.1).
pub const CGRA_FUS: u32 = 64;
/// Per-hop scheduling/routing delay added on CGRA dependence edges.
pub const ROUTE_DELAY: u64 = 1;
/// Configurations resident in the config cache.
pub const CONFIG_CACHE_ENTRIES: usize = 4;
/// Cycles to load one configuration word; total config stall is
/// `offloaded ops × this`.
pub const CONFIG_CYCLES_PER_OP: u64 = 2;

/// The DP-CGRA plan for one target loop.
#[derive(Debug, Clone)]
pub struct CgraPlan {
    /// The target loop.
    pub loop_id: LoopId,
    /// Static instructions offloaded to the CGRA.
    pub offloaded: FastSet<StaticId>,
    /// Core→CGRA operand transfers needed per iteration (static count).
    pub sends: u32,
    /// CGRA→core result transfers needed per iteration.
    pub recvs: u32,
    /// Whether the loop is vectorizable (computation cloned across lanes).
    pub vectorized: bool,
    /// Lanes processed per computation instance.
    pub lanes: usize,
    /// Depth of the computation subgraph (longest dependence chain).
    pub depth: u32,
    /// Original dynamic instructions per iteration.
    pub orig_insts_per_iter: f64,
    /// Expected core instructions per iteration after offload.
    pub est_core_insts_per_iter: f64,
}

impl CgraPlan {
    /// Static speedup estimate for the Amdahl-tree scheduler.
    #[must_use]
    pub fn est_speedup(&self) -> f64 {
        (self.orig_insts_per_iter / self.est_core_insts_per_iter.max(0.25)).max(1.0)
    }
}

/// Runs the DP-CGRA analyzer over every innermost loop.
#[must_use]
pub fn analyze_dp_cgra(ir: &ProgramIr) -> HashMap<LoopId, CgraPlan> {
    let simd_legal = crate::simd::analyze_simd(ir);
    let mut plans = HashMap::new();
    for l in ir.loops.innermost() {
        if let Some(plan) = analyze_loop(ir, l, simd_legal.contains_key(&l.id)) {
            plans.insert(l.id, plan);
        }
    }
    plans
}

fn analyze_loop(ir: &ProgramIr, l: &Loop, vectorizable: bool) -> Option<CgraPlan> {
    let paths = ir.paths.get(&l.id)?;
    if paths.iterations == 0 || l.avg_trip_count() < 4.0 {
        return None;
    }
    // Table 2: DP-CGRA targets *parallel* loops with separable compute and
    // memory — iteration-serial loops cannot pipeline the fabric.
    if !vectorizable {
        return None;
    }
    let body: Vec<StaticId> = l
        .blocks
        .iter()
        .flat_map(|&b| ir.cfg.blocks[b as usize].inst_ids())
        .collect();
    if body.len() > 3 * CGRA_FUS as usize {
        return None; // cannot possibly fit
    }

    // Slicing: memory ops, branches, and (transitively) address-feeding
    // arithmetic stay on the core; the rest offloads.
    let mut on_core: HashSet<StaticId> = HashSet::new();
    for &sid in &body {
        let inst = ir.program.inst(sid);
        if inst.op.is_mem() || inst.op.is_control() {
            on_core.insert(sid);
        }
    }
    // Transitive closure: producers of core-side *addresses* and of branch
    // conditions move to the core. The def map is seeded with end-of-body
    // definitions so loop-carried producers (induction updates feeding the
    // next iteration's addresses) are found too. Iterate to fixpoint.
    let mut def_end: HashMap<prism_isa::Reg, StaticId> = HashMap::new();
    for &sid in &body {
        if let Some(d) = ir.program.inst(sid).dest() {
            def_end.insert(d, sid);
        }
    }
    loop {
        let mut changed = false;
        let mut def = def_end.clone(); // carried definitions visible first
        for &sid in &body {
            let inst = ir.program.inst(sid);
            // Core-side memory ops pin their address producers; core-side
            // control ops pin their condition producers.
            let pinned_srcs: Vec<prism_isa::Reg> = if on_core.contains(&sid) {
                if inst.op.is_mem() {
                    inst.src1.into_iter().collect()
                } else {
                    // Control: pin condition producers; arith: keep producers.
                    inst.sources().collect()
                }
            } else {
                Vec::new()
            };
            for src in pinned_srcs {
                if let Some(&p) = def.get(&src) {
                    if !on_core.contains(&p) && !ir.program.inst(p).op.is_mem() {
                        on_core.insert(p);
                        changed = true;
                    }
                }
            }
            if let Some(d) = inst.dest() {
                def.insert(d, sid);
            }
        }
        if !changed {
            break;
        }
    }
    let offloaded: FastSet<StaticId> = body
        .iter()
        .copied()
        .filter(|sid| !on_core.contains(sid))
        .collect();
    if offloaded.is_empty() {
        return None;
    }

    // Interface edges: each *value* crossing the boundary costs one
    // transfer per iteration, however many consumers it has on the other
    // side (the CGRA's operand network and the core's register file fan
    // out internally).
    let mut sent: HashSet<StaticId> = HashSet::new();
    let mut received: HashSet<StaticId> = HashSet::new();
    let mut def_side: HashMap<prism_isa::Reg, (StaticId, bool)> = HashMap::new();
    for &sid in &body {
        let inst = ir.program.inst(sid);
        let here_off = offloaded.contains(&sid);
        for src in inst.sources() {
            if let Some(&(producer, prod_off)) = def_side.get(&src) {
                if prod_off != here_off {
                    if here_off {
                        sent.insert(producer);
                    } else {
                        received.insert(producer);
                    }
                }
            }
            // Live-ins from outside the loop are sent once at region
            // entry and pipelined; ignored statically.
        }
        if let Some(d) = inst.dest() {
            def_side.insert(d, (sid, here_off));
        }
    }
    let (sends, recvs) = (sent.len() as u32, received.len() as u32);

    // Reject when communication dominates offloaded computation (§3.2).
    if u64::from(sends + recvs) > offloaded.len() as u64 {
        return None;
    }

    // Depth of the offloaded dependence chain.
    let mut depth_of: HashMap<StaticId, u32> = HashMap::new();
    let mut def: HashMap<prism_isa::Reg, StaticId> = HashMap::new();
    let mut max_depth = 1;
    for &sid in &body {
        let inst = ir.program.inst(sid);
        if offloaded.contains(&sid) {
            let d = inst
                .sources()
                .filter_map(|s| def.get(&s).and_then(|p| depth_of.get(p)))
                .max()
                .copied()
                .unwrap_or(0)
                + 1;
            depth_of.insert(sid, d);
            max_depth = max_depth.max(d);
        }
        if let Some(dst) = inst.dest() {
            def.insert(dst, sid);
        }
    }

    let lanes = if vectorizable {
        // Clone until the fabric fills or the max vector length is hit.
        let per_lane = offloaded.len().max(1);
        (CGRA_FUS as usize / per_lane).clamp(1, VECTOR_LENGTH)
    } else {
        1
    };

    let orig = l.dyn_insts as f64 / l.iterations.max(1) as f64;
    let core_side = (body.len() - offloaded.len()) as f64 + f64::from(sends + recvs);
    let est_core = if vectorizable {
        // Memory side also vectorizes (shared with the SIMD datapath).
        core_side / lanes as f64 + 1.0
    } else {
        core_side
    };

    Some(CgraPlan {
        loop_id: l.id,
        offloaded,
        sends,
        recvs,
        vectorized: vectorizable && lanes > 1,
        lanes,
        depth: max_depth,
        orig_insts_per_iter: orig,
        est_core_insts_per_iter: est_core,
    })
}

/// Runtime state of the DP-CGRA (configuration cache), persisted across
/// regions of one run.
#[derive(Debug, Clone, Default)]
pub struct CgraState {
    /// LRU list of resident loop configurations (most recent last).
    resident: Vec<LoopId>,
}

impl CgraState {
    /// Creates an empty configuration cache.
    #[must_use]
    pub fn new() -> Self {
        CgraState::default()
    }

    /// Touches `lid`; returns `true` if its configuration had to be loaded.
    pub fn touch(&mut self, lid: LoopId) -> bool {
        if let Some(pos) = self.resident.iter().position(|&l| l == lid) {
            self.resident.remove(pos);
            self.resident.push(lid);
            false
        } else {
            if self.resident.len() == CONFIG_CACHE_ENTRIES {
                self.resident.remove(0);
            }
            self.resident.push(lid);
            true
        }
    }
}

/// Executes one loop-invocation region under the DP-CGRA transform.
pub fn execute_dp_cgra(
    region: &[DynInst],
    plan: &CgraPlan,
    ir: &ProgramIr,
    ctx: &mut ExecCtx<'_>,
    core: &mut CoreModel,
    state: &mut CgraState,
    scratch: &mut RegionScratch,
) {
    // Configuration check: a miss stalls the core while config streams in.
    if state.touch(plan.loop_id) {
        let stall = plan.offloaded.len() as u64 * CONFIG_CYCLES_PER_OP;
        core.stall_fetch_until(core.now() + stall);
        ctx.events.accel.cgra_config_words += plan.offloaded.len() as u64;
    }

    let l = &ir.loops.loops[plan.loop_id as usize];
    let RegionScratch {
        deps,
        mi,
        iters,
        group,
        deferred,
    } = scratch;
    split_iterations(region, ir.cfg.blocks[l.header as usize].start, iters);

    let group_size = if plan.vectorized { plan.lanes } else { 1 };
    // Pipelining edges: initiation interval between computation instances
    // and in-order completion (paper: "two additional edges").
    let ii = (plan.offloaded.len() as u64 / u64::from(CGRA_FUS).max(1)).max(1);
    let mut last_start = 0u64;
    let mut last_complete = 0u64;

    for iterations in iters.chunks(group_size) {
        let (g_start, g_end) = (iterations[0].0, iterations[iterations.len() - 1].1);
        let group_lo_seq = region[g_start].seq;
        let group_hi_seq = region[g_end - 1].seq;

        // Producer seqs with in-order register retirement; union by sid,
        // lanes per sid.
        group.load(region, g_start, g_end, ctx);

        // Pass 1: core-side ops (access slice) that do not consume CGRA
        // results execute on the pipeline; consumers of offloaded values
        // (e.g. stores of results) are deferred until the CGRA instance
        // completes. Track the CGRA inputs' ready time from the values
        // actually produced here — not the core clock — so successive
        // groups pipeline.
        let mut cgra_input_ready = last_start; // II edge floor
        let consumes_offloaded = |lanes: &[(StaticId, usize)]| -> bool {
            lanes.iter().any(|&(_, li)| {
                group.producers(li).iter().any(|&s| {
                    s >= group_lo_seq
                        && s <= group_hi_seq
                        && plan
                            .offloaded
                            .contains(&region[(s - group_lo_seq) as usize + g_start].sid)
                })
            })
        };
        deferred.clear();
        let mut at = 0;
        for lanes in group.runs() {
            let run = (at, at + lanes.len());
            at = run.1;
            let sid = lanes[0].0;
            if plan.offloaded.contains(&sid) {
                continue;
            }
            if consumes_offloaded(lanes) {
                deferred.push(run);
                continue;
            }
            let inst = *ctx.program.inst(sid);
            deps.clear();
            group.merge_data_deps(lanes, ctx, deps);
            if let Some(r) = latest_load_dep(region, lanes, ctx) {
                deps.push(ModelDep::memory(r));
            }
            let lane_insts = || lanes.iter().map(|&(_, li)| &region[li]);

            // Vectorized memory ops collapse like SIMD; scalar otherwise.
            let collapse = plan.vectorized && inst.op.is_mem();
            let complete = if collapse || !inst.op.is_mem() {
                let (latency, mem_level, is_store) = if inst.op.is_mem() {
                    let mut lat = 1u64;
                    let mut lvl = prism_sim::MemLevel::L1;
                    let mut st = false;
                    for d in lane_insts() {
                        let m = d.mem.expect("mem op");
                        st = m.is_store;
                        if !m.is_store {
                            lat = lat.max(u64::from(m.latency));
                        }
                        lvl = crate::simd::worst_level_pub(lvl, m.level);
                    }
                    (lat, Some(lvl), st)
                } else {
                    (u64::from(inst.op.latency()), None, false)
                };
                let mispredicted = inst.op.is_cond_branch()
                    && lane_insts().any(|d| d.branch.is_some_and(|b| b.mispredicted));
                let branch_taken = lane_insts().any(|d| d.branch.is_some_and(|b| b.taken));
                let mi = ModelInst {
                    fu: inst.fu_class(),
                    latency,
                    mem_level,
                    is_store,
                    is_cond_branch: inst.op.is_cond_branch(),
                    mispredicted,
                    branch_taken,
                    reads: inst.sources().count() as u8,
                    writes: u8::from(inst.dest().is_some()),
                    ..ModelInst::default()
                };
                issue(core, deps, mi)
            } else {
                let mut last = 0;
                for d in lane_insts() {
                    ctx.model_inst_into(d, mi);
                    mi.deps.clear();
                    mi.deps.extend_from_slice(deps);
                    if let Some(m) = &d.mem {
                        if !m.is_store {
                            if let Some(r) = ctx.mems.load_dependence(m.addr, m.width) {
                                mi.deps.push(ModelDep::memory(r));
                            }
                        }
                    }
                    last = core.issue(mi).complete;
                }
                last
            };

            for d in lane_insts() {
                ctx.set_time(d.seq, complete);
                cgra_input_ready = cgra_input_ready.max(complete);
                if let Some(m) = &d.mem {
                    if m.is_store {
                        ctx.mems.record_store(m.addr, m.width, complete);
                    }
                }
            }
        }

        // Sends: one comm instruction per interface value, dependent on
        // the values produced by this group's access slice.
        for _ in 0..plan.sends {
            let send = ModelInst {
                fu: FuClass::Alu,
                latency: 1,
                reads: 1,
                writes: 0,
                ..ModelInst::default()
            };
            let t = issue_after(core, deps, cgra_input_ready, send);
            cgra_input_ready = cgra_input_ready.max(t);
            ctx.events.accel.comm_sends += 1;
        }

        // Pass 2: the CGRA computation instance. Start respects the II
        // edge; completion adds per-hop routing delay along the depth.
        let start = cgra_input_ready.max(last_start + ii);
        let compute_latency: u64 = u64::from(plan.depth) * (1 + ROUTE_DELAY);
        let complete = (start + compute_latency).max(last_complete); // in-order completion
        last_start = start;
        last_complete = complete;
        for lanes in group.runs() {
            if !plan.offloaded.contains(&lanes[0].0) {
                continue;
            }
            ctx.events.accel.cgra_ops += lanes.len() as u64;
            for &(_, li) in lanes {
                ctx.set_time(region[li].seq, complete);
            }
        }

        // Recvs: results return to the core.
        let mut recv_done = complete;
        for _ in 0..plan.recvs {
            let recv = ModelInst {
                fu: FuClass::Alu,
                latency: 1,
                reads: 0,
                writes: 1,
                ..ModelInst::default()
            };
            recv_done = recv_done.max(issue_after(core, deps, complete, recv));
            ctx.events.accel.comm_recvs += 1;
        }

        // Pass 2b: deferred consumers of the CGRA's results (typically the
        // result stores), now that offloaded values have times.
        for &(a, b) in deferred.iter() {
            let lanes = &group.lanes()[a..b];
            let inst = *ctx.program.inst(lanes[0].0);
            deps.clear();
            deps.push(ModelDep::data(recv_done));
            group.merge_data_deps(lanes, ctx, deps);
            let lane_insts = || lanes.iter().map(|&(_, li)| &region[li]);
            let collapse = plan.vectorized && inst.op.is_mem();
            // One ModelInst reused across lanes: only the memory-dependent
            // fields change per lane, so the dep list is never cloned.
            let mut mi = ModelInst {
                fu: inst.fu_class(),
                deps: std::mem::take(deps),
                reads: inst.sources().count() as u8,
                writes: u8::from(inst.dest().is_some()),
                ..ModelInst::default()
            };
            let lane_mem = |mi: &mut ModelInst, d: &DynInst| {
                (mi.latency, mi.mem_level, mi.is_store) = match &d.mem {
                    Some(m) if m.is_store => (1, Some(m.level), true),
                    Some(m) => (u64::from(m.latency), Some(m.level), false),
                    None => (u64::from(inst.op.latency()), None, false),
                };
            };
            let complete = if collapse {
                lane_mem(&mut mi, &region[lanes[0].1]);
                core.issue(&mi).complete
            } else {
                let mut last = 0;
                for d in lane_insts() {
                    lane_mem(&mut mi, d);
                    last = core.issue(&mi).complete;
                }
                last
            };
            *deps = mi.deps;
            for d in lane_insts() {
                ctx.set_time(d.seq, complete);
                if let Some(m) = &d.mem {
                    if m.is_store {
                        ctx.mems.record_store(m.addr, m.width, complete);
                    }
                }
            }
        }

        // Between groups every future dependence resolves through a
        // current last writer, so the window can be trimmed.
        ctx.trim_times_bounded();
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

    /// Compute-heavy data-parallel loop (good CGRA target).
    fn separable(b: &mut ProgramBuilder, n: i64) {
        let (pi, po, i) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let (x, y, z) = (Reg::fp(0), Reg::fp(1), Reg::fp(2));
        b.init_reg(pi, 0x10000);
        b.init_reg(po, 0x24000);
        b.init_reg(i, n);
        let head = b.bind_new_label();
        b.fld(x, pi, 0);
        b.fmul(y, x, x);
        b.fadd(y, y, x);
        b.fmul(z, y, y);
        b.fsub(z, z, x);
        b.fst(z, po, 0);
        b.addi(pi, pi, 8);
        b.addi(po, po, 8);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
    }

    #[test]
    fn separable_loop_slices_correctly() {
        let ir = ir_of(|b| separable(b, 64));
        let plans = analyze_dp_cgra(&ir);
        assert_eq!(plans.len(), 1);
        let p = plans.values().next().unwrap();
        // The four FP arithmetic ops offload; memory + control + induction
        // address arithmetic stays on the core.
        assert_eq!(p.offloaded.len(), 4, "offloaded: {:?}", p.offloaded);
        assert!(
            p.vectorized && p.lanes > 1,
            "data-parallel loop should clone lanes"
        );
        assert!(
            p.depth >= 3,
            "fmul→fadd→fmul→fsub chain has depth ≥3, got {}",
            p.depth
        );
        assert!(u64::from(p.sends + p.recvs) <= p.offloaded.len() as u64);
        assert!(p.est_speedup() > 1.0);
    }

    #[test]
    fn serial_loop_rejected_as_not_data_parallel() {
        // Table 2: DP-CGRA needs parallel loops.
        let ir = ir_of(|b| {
            let (x, i) = (Reg::fp(0), Reg::int(1));
            b.init_reg(i, 64);
            b.fli(x, 1.0);
            let head = b.bind_new_label();
            b.fmul(x, x, x);
            b.fadd(x, x, x);
            b.addi(i, i, -1);
            b.bne_label(i, Reg::ZERO, head);
            b.halt();
        });
        assert!(analyze_dp_cgra(&ir).is_empty());
    }

    #[test]
    fn communication_dominated_loop_rejected() {
        // One offloadable op but two interface crossings per iteration:
        // comm > compute ⇒ reject (§3.2).
        let ir = ir_of(|b| {
            let (pi, po, i) = (Reg::int(1), Reg::int(2), Reg::int(3));
            let (x,) = (Reg::fp(0),);
            b.init_reg(pi, 0x10000);
            b.init_reg(po, 0x24000);
            b.init_reg(i, 64);
            let head = b.bind_new_label();
            b.fld(x, pi, 0);
            b.fmul(x, x, x); // single compute op between load and store
            b.fst(x, po, 0);
            b.addi(pi, pi, 8);
            b.addi(po, po, 8);
            b.addi(i, i, -1);
            b.bne_label(i, Reg::ZERO, head);
            b.halt();
        });
        assert!(
            analyze_dp_cgra(&ir).is_empty(),
            "1 offloaded op with 2 comm crossings must be rejected"
        );
    }

    #[test]
    fn config_cache_is_lru() {
        let mut st = CgraState::new();
        for lid in 0..CONFIG_CACHE_ENTRIES as u32 {
            assert!(st.touch(lid), "cold config loads");
        }
        // All resident; touching again hits.
        for lid in 0..CONFIG_CACHE_ENTRIES as u32 {
            assert!(!st.touch(lid));
        }
        // A new entry evicts the least recently used (loop 0).
        assert!(st.touch(99));
        assert!(st.touch(0), "loop 0 was evicted");
        // 1 was evicted by re-loading 0; 2 and 3 remain.
        assert!(!st.touch(3));
    }
}
