//! The combined Core+Accelerator TDG evaluation: stitches general-core and
//! BSA regions into one timeline (the paper's Fig. 4(e) at program scale).

use prism_energy::{AccelAreas, EnergyBreakdown, EnergyEvents, EnergyModel};
use prism_ir::{BlockId, LoopId, ProgramIr};
use prism_sim::Trace;
use prism_udg::{CoreConfig, CoreModel};

use crate::dp_cgra::CgraState;
use crate::ns_df::DataflowEngine;
use crate::{AccelPlans, Assignment, BsaKind, ExecCtx, ExecUnit, RegionScratch, TimelineSample};

/// Cycles charged when execution migrates between the core and an offload
/// BSA (in addition to live-value transfer inside the BSA models).
const SWITCH_PENALTY: u64 = 4;

/// GPP instructions between completion-time window trims. Trimming is only
/// legal where no region model holds captured producer seqs, i.e. in the
/// plain-core stream and at region boundaries.
const GPP_TRIM_INTERVAL: u64 = 4096;

/// Result of a combined core+accelerator run.
#[derive(Debug, Clone)]
pub struct ExoRunResult {
    /// Core configuration name.
    pub config_name: String,
    /// BSAs present in the design (for area/leakage accounting).
    pub accels_present: Vec<BsaKind>,
    /// Total cycles.
    pub cycles: u64,
    /// Original-trace instructions covered.
    pub insts: u64,
    /// Accumulated energy events (core + accelerators).
    pub events: EnergyEvents,
    /// Priced energy.
    pub energy: EnergyBreakdown,
    /// Total design area (core + present BSAs), mm².
    pub area_mm2: f64,
    /// Cycles attributed per unit (Fig. 13 exec-time breakdown).
    pub unit_cycles: [u64; ExecUnit::COUNT],
    /// Original instructions attributed per unit.
    pub unit_insts: [u64; ExecUnit::COUNT],
    /// Energy attributed per unit (Fig. 13 energy breakdown): region-level
    /// core-pipeline + accelerator dynamic energy, plus a cycle-share of
    /// leakage.
    pub unit_energy: [f64; ExecUnit::COUNT],
    /// Region-end samples (Fig. 14 switching timeline).
    pub timeline: Vec<TimelineSample>,
    /// Trace-P iterations replayed on the host.
    pub trace_replays: u64,
}

impl ExoRunResult {
    /// Instructions per cycle (relative to original-trace instructions).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Fraction of original instructions left on the general core.
    #[must_use]
    pub fn unaccelerated_fraction(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.unit_insts[ExecUnit::Gpp as usize] as f64 / self.insts as f64
        }
    }
}

/// The accelerator-independent half of an ExoCore evaluation: everything
/// [`run_exocore`] computes that depends only on the (workload, core,
/// assignment) triple — node times, cycle/instruction attribution, energy
/// *events*, and the switching timeline — but not on which BSAs are
/// physically present. Pricing (area, leakage, energy) is layered on by
/// [`price_exocore`].
///
/// Because Oracle scheduling picks the same assignment for many of the 16
/// BSA subsets of a core, a DSE can compute one `ExoTiming` per distinct
/// assignment and re-price it per subset instead of re-walking the trace.
#[derive(Debug, Clone)]
pub struct ExoTiming {
    /// Total cycles.
    pub cycles: u64,
    /// Original-trace instructions covered.
    pub insts: u64,
    /// Accumulated energy events (core + accelerators).
    pub events: EnergyEvents,
    /// Cycles attributed per unit (GPP already holds the remainder).
    pub unit_cycles: [u64; ExecUnit::COUNT],
    /// Original instructions attributed per unit.
    pub unit_insts: [u64; ExecUnit::COUNT],
    /// Per-unit accelerator events.
    pub unit_accel: [prism_energy::AccelEvents; ExecUnit::COUNT],
    /// Per-unit core-pipeline events (GPP holds total minus claimed).
    pub unit_core: [prism_energy::CoreEvents; ExecUnit::COUNT],
    /// Region-end samples (Fig. 14 switching timeline).
    pub timeline: Vec<TimelineSample>,
    /// Trace-P iterations replayed on the host.
    pub trace_replays: u64,
}

/// Evaluates `trace` on an ExoCore: `core_cfg` plus the BSAs in
/// `accels_present`, with regions assigned per `assignment`.
///
/// Equivalent to [`run_exocore_timing`] followed by [`price_exocore`]
/// (bit-identical, including float-operation order).
///
/// # Panics
///
/// Panics if the assignment is not well-formed (overlapping loops) or
/// assigns a BSA without a plan.
#[must_use]
pub fn run_exocore(
    trace: &Trace,
    ir: &ProgramIr,
    core_cfg: &CoreConfig,
    plans: &AccelPlans,
    assignment: &Assignment,
    accels_present: &[BsaKind],
) -> ExoRunResult {
    for &kind in assignment.map.values() {
        assert!(
            accels_present.contains(&kind),
            "assignment to absent accelerator {kind}"
        );
    }
    let timing = run_exocore_timing(trace, ir, core_cfg, plans, assignment);
    price_exocore(&timing, core_cfg, accels_present)
}

/// The trace-walking half of [`run_exocore`]: computes every
/// accelerator-presence-independent quantity for one
/// (trace, core, assignment) triple.
///
/// # Panics
///
/// Panics if the assignment is not well-formed (overlapping loops) or
/// assigns a BSA without a plan.
#[must_use]
pub fn run_exocore_timing(
    trace: &Trace,
    ir: &ProgramIr,
    core_cfg: &CoreConfig,
    plans: &AccelPlans,
    assignment: &Assignment,
) -> ExoTiming {
    assert!(assignment.is_well_formed(ir), "overlapping loop assignment");
    for (&lid, &kind) in &assignment.map {
        assert!(
            plans.has(kind, lid),
            "assignment without plan: {kind} @ loop {lid}"
        );
    }

    // Per-block: the assigned (loop, BSA) whose region the block belongs
    // to, resolved to the outermost assigned ancestor.
    let mut assigned_of_block: Vec<Option<(LoopId, BsaKind)>> = vec![None; ir.cfg.len()];
    for (b, slot) in assigned_of_block.iter_mut().enumerate() {
        let mut cur = ir.loops.loop_of_block[b];
        let mut found = None;
        while let Some(l) = cur {
            if let Some(&kind) = assignment.map.get(&l) {
                found = Some((l, kind));
            }
            cur = ir.loops.loops[l as usize].parent;
        }
        *slot = found;
    }
    let block_of = |sid: u32| -> BlockId { ir.cfg.block_of[sid as usize] };
    let in_loop = |lid: LoopId, b: BlockId| -> bool {
        ir.loops.loops[lid as usize]
            .blocks
            .binary_search(&b)
            .is_ok()
    };

    let mut core = CoreModel::new(core_cfg);
    let mut ctx = ExecCtx::new(&trace.program);
    let mut scratch = prism_udg::ModelInst::default();
    let mut region_scratch = RegionScratch::default();
    let mut engine = DataflowEngine::new(0);
    let mut cgra_state = CgraState::new();
    let mut trace_replays = 0u64;
    let mut last_accel_end = 0u64;
    let mut unit_accel = [prism_energy::AccelEvents::default(); ExecUnit::COUNT];
    let mut unit_core = [prism_energy::CoreEvents::default(); ExecUnit::COUNT];
    let mut gpp_seg_start_cycle = 0u64;
    let mut gpp_seg_insts = 0u64;

    let mut i = 0usize;
    while i < trace.insts.len() {
        let d = &trace.insts[i];
        let b = block_of(d.sid);
        if let Some((lid, kind)) = assigned_of_block[b as usize] {
            // Close the open GPP segment.
            let now = core.now();
            if gpp_seg_insts > 0 {
                ctx.attribute(
                    ExecUnit::Gpp,
                    gpp_seg_insts,
                    d.seq.saturating_sub(1),
                    gpp_seg_start_cycle,
                    now,
                );
                gpp_seg_insts = 0;
            }

            // Find the contiguous region: all insts while inside the loop.
            let start_idx = i;
            let mut end_idx = i;
            while end_idx < trace.insts.len() && in_loop(lid, block_of(trace.insts[end_idx].sid)) {
                end_idx += 1;
            }
            let region = &trace.insts[start_idx..end_idx];
            let start_cycle = core.now();
            let accel_before = ctx.events.accel;
            let shared_core_before = ctx.events.core;
            let pipe_before = *core.events();

            let end_cycle = match kind {
                BsaKind::Simd => {
                    let plan = &plans.simd[&lid];
                    crate::simd::execute_simd(
                        region,
                        plan,
                        ir,
                        &mut ctx,
                        &mut core,
                        &mut region_scratch,
                    );
                    core.now()
                }
                BsaKind::DpCgra => {
                    let plan = &plans.dp_cgra[&lid];
                    crate::dp_cgra::execute_dp_cgra(
                        region,
                        plan,
                        ir,
                        &mut ctx,
                        &mut core,
                        &mut cgra_state,
                        &mut region_scratch,
                    );
                    core.now()
                }
                BsaKind::NsDf => {
                    core.stall_fetch_until(core.now() + SWITCH_PENALTY);
                    let plan = &plans.ns_df[&lid];
                    crate::ns_df::execute_ns_df(
                        region,
                        plan,
                        ir,
                        &mut ctx,
                        &mut core,
                        &mut engine,
                        &mut region_scratch,
                    )
                }
                BsaKind::TraceP => {
                    core.stall_fetch_until(core.now() + SWITCH_PENALTY);
                    let plan = &plans.trace_p[&lid];
                    let (end, replays) = crate::trace_p::execute_trace_p(
                        region,
                        plan,
                        ir,
                        &mut ctx,
                        &mut core,
                        &mut engine,
                        &mut region_scratch,
                    );
                    trace_replays += replays;
                    end
                }
            };
            last_accel_end = last_accel_end.max(end_cycle);
            let u = kind.unit() as usize;
            unit_accel[u].merge(&ctx.events.accel.since(&accel_before));
            unit_core[u].merge(&ctx.events.core.since(&shared_core_before));
            unit_core[u].merge(&core.events().since(&pipe_before));
            ctx.attribute(
                kind.unit(),
                region.len() as u64,
                region.last().map_or(d.seq, |r| r.seq),
                start_cycle,
                end_cycle,
            );
            gpp_seg_start_cycle = end_cycle;
            ctx.trim_times();
            i = end_idx;
        } else {
            ctx.model_inst_into(d, &mut scratch);
            let t = core.issue(&scratch);
            ctx.retire(d, t.complete);
            gpp_seg_insts += 1;
            if gpp_seg_insts.is_multiple_of(GPP_TRIM_INTERVAL) {
                ctx.trim_times();
            }
            i += 1;
        }
    }
    let cycles = core.now().max(last_accel_end);
    if gpp_seg_insts > 0 {
        ctx.attribute(
            ExecUnit::Gpp,
            gpp_seg_insts,
            trace.insts.last().map_or(0, |d| d.seq),
            gpp_seg_start_cycle,
            cycles,
        );
    }

    // GPP cycles = remainder, so the breakdown sums to the total.
    let accel_cycles: u64 = ctx.unit_cycles[1..].iter().sum();
    ctx.unit_cycles[ExecUnit::Gpp as usize] = cycles.saturating_sub(accel_cycles);

    // Energy events: core pipeline events from the model, accelerator +
    // shared-cache events from the context.
    let mut events = ctx.events;
    events.core.merge(core.events());
    // GPP's core events = total minus what regions claimed.
    {
        let mut claimed = prism_energy::CoreEvents::default();
        for unit in unit_core.iter().take(ExecUnit::COUNT).skip(1) {
            claimed.merge(unit);
        }
        unit_core[ExecUnit::Gpp as usize] = events.core.since(&claimed);
    }

    ExoTiming {
        cycles,
        insts: trace.len() as u64,
        events,
        unit_cycles: ctx.unit_cycles,
        unit_insts: ctx.unit_insts,
        unit_accel,
        unit_core,
        timeline: ctx.timeline,
        trace_replays,
    }
}

/// Prices an [`ExoTiming`] for a design where `accels_present` are
/// physically present: area, leakage with dark-silicon gating, the energy
/// breakdown, and the per-unit energy attribution. Pure arithmetic — no
/// trace walk — and bit-identical to the corresponding [`run_exocore`]
/// tail (same float operations in the same order).
#[must_use]
pub fn price_exocore(
    timing: &ExoTiming,
    core_cfg: &CoreConfig,
    accels_present: &[BsaKind],
) -> ExoRunResult {
    let cycles = timing.cycles;
    let events = timing.events;
    let unit_core = &timing.unit_core;
    let unit_accel = &timing.unit_accel;
    let model = EnergyModel::new();
    let areas = AccelAreas::new();
    let core_area = core_cfg.area_mm2();
    let accel_area: f64 = accels_present
        .iter()
        .map(|k| match k {
            BsaKind::Simd => areas.simd,
            BsaKind::DpCgra => areas.dp_cgra,
            BsaKind::NsDf => areas.ns_df,
            BsaKind::TraceP => areas.trace_p,
        })
        .sum();
    // Leakage with dark-silicon power gating: the core is partially gated
    // while NS-DF / Trace-P regions run; each accelerator leaks fully only
    // while active and retains 10% sleep leakage otherwise.
    let offload_cycles = (timing.unit_cycles[ExecUnit::NsDf as usize]
        + timing.unit_cycles[ExecUnit::TraceP as usize])
        .min(cycles);
    let mut leakage =
        model.leakage(core_area, cycles) - model.leakage(core_area * 0.65, offload_cycles);
    let areas_of = |k: &BsaKind| match k {
        BsaKind::Simd => areas.simd,
        BsaKind::DpCgra => areas.dp_cgra,
        BsaKind::NsDf => areas.ns_df,
        BsaKind::TraceP => areas.trace_p,
    };
    for k in accels_present {
        let active = timing.unit_cycles[k.unit() as usize].min(cycles);
        leakage +=
            model.leakage(areas_of(k), active) + 0.1 * model.leakage(areas_of(k), cycles - active);
    }
    let energy = EnergyBreakdown {
        core_dynamic: model.core_dynamic(&events.core, &core_cfg.energy_config()),
        accel_dynamic: model.accel_dynamic(&events.accel),
        leakage: leakage.max(0.0),
    };

    // Per-unit energy: each unit's pipeline + accelerator dynamic energy
    // plus a cycle-proportional share of leakage.
    let mut unit_energy = [0.0f64; ExecUnit::COUNT];
    let ecfg = core_cfg.energy_config();
    for u in 0..ExecUnit::COUNT {
        let share = if cycles == 0 {
            0.0
        } else {
            timing.unit_cycles[u] as f64 / cycles as f64
        };
        unit_energy[u] = model.core_dynamic(&unit_core[u], &ecfg)
            + model.accel_dynamic(&unit_accel[u])
            + energy.leakage * share;
    }

    ExoRunResult {
        config_name: core_cfg.name.clone(),
        accels_present: accels_present.to_vec(),
        cycles,
        insts: timing.insts,
        events,
        energy,
        area_mm2: core_area + accel_area,
        unit_cycles: timing.unit_cycles,
        unit_insts: timing.unit_insts,
        unit_energy,
        timeline: timing.timeline.clone(),
        trace_replays: timing.trace_replays,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_isa::{Program, ProgramBuilder, Reg};
    use prism_udg::simulate_trace;

    /// Vectorizable streaming kernel: c[i] = a[i]*b[i] + c[i].
    fn dp_kernel(n: i64) -> Program {
        let (pa, pb, pc, i) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
        let (fa, fb, fc, ft) = (Reg::fp(0), Reg::fp(1), Reg::fp(2), Reg::fp(3));
        let mut b = ProgramBuilder::new("dp");
        b.init_reg(pa, 0x10000);
        b.init_reg(pb, 0x24000);
        b.init_reg(pc, 0x38000);
        b.init_reg(i, n);
        let head = b.bind_new_label();
        b.fld(fa, pa, 0);
        b.fld(fb, pb, 0);
        b.fmul(ft, fa, fb);
        b.fld(fc, pc, 0);
        b.fadd(fc, ft, fc);
        b.fst(fc, pc, 0);
        b.addi(pa, pa, 8);
        b.addi(pb, pb, 8);
        b.addi(pc, pc, 8);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
        b.build().unwrap()
    }

    /// Irregular-control kernel with a data-dependent recurrence (not
    /// vectorizable, suits NS-DF/Trace-P).
    fn irregular_kernel(n: i64) -> Program {
        let (x, i, t, acc) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
        let mut b = ProgramBuilder::new("irr");
        b.init_reg(x, 987654321);
        b.init_reg(i, n);
        let head = b.bind_new_label();
        let skip = b.label();
        b.andi(t, x, 7);
        b.bne_label(t, Reg::ZERO, skip); // biased: taken 7/8 of the time
        b.addi(acc, acc, 13);
        b.bind(skip);
        b.shri(t, x, 3);
        b.xor(x, x, t);
        b.addi(x, x, 12345);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
        b.build().unwrap()
    }

    fn setup(p: &Program) -> (prism_sim::Trace, prism_ir::ProgramIr, AccelPlans) {
        let t = prism_sim::trace(p).unwrap();
        let ir = prism_ir::ProgramIr::analyze(&t);
        let plans = AccelPlans::analyze(&ir);
        (t, ir, plans)
    }

    #[test]
    fn empty_assignment_matches_plain_core_model() {
        let p = dp_kernel(100);
        let (t, ir, plans) = setup(&p);
        let base = simulate_trace(&t, &CoreConfig::ooo2());
        let run = run_exocore(
            &t,
            &ir,
            &CoreConfig::ooo2(),
            &plans,
            &Assignment::none(),
            &[],
        );
        assert_eq!(run.cycles, base.cycles);
        assert_eq!(run.events.core, base.events.core);
        assert_eq!(run.unit_insts[ExecUnit::Gpp as usize], t.len() as u64);
        assert!((run.unaccelerated_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn simd_accelerates_data_parallel_loop() {
        let p = dp_kernel(400);
        let (t, ir, plans) = setup(&p);
        let lid = *plans.simd.keys().next().expect("vectorizable loop");
        let mut a = Assignment::none();
        a.set(lid, BsaKind::Simd);
        let cfg = CoreConfig::ooo2().with_simd();
        let base = simulate_trace(&t, &CoreConfig::ooo2());
        let run = run_exocore(&t, &ir, &cfg, &plans, &a, &[BsaKind::Simd]);
        let speedup = base.cycles as f64 / run.cycles as f64;
        assert!(speedup > 1.8, "SIMD speedup = {speedup}");
        // Vectorization elides most fetches.
        assert!(run.events.core.fetches < base.events.core.fetches / 2);
        assert!(run.events.accel.vector_lane_ops > 0);
        // Most instructions attributed to the SIMD unit.
        assert!(run.unaccelerated_fraction() < 0.05);
    }

    #[test]
    fn ns_df_offloads_irregular_loop_and_saves_energy() {
        let p = irregular_kernel(500);
        let (t, ir, plans) = setup(&p);
        assert!(plans.simd.is_empty(), "recurrence must not vectorize");
        let lid = *plans.ns_df.keys().next().expect("NS-DF-able loop");
        let mut a = Assignment::none();
        a.set(lid, BsaKind::NsDf);
        let cfg = CoreConfig::ooo2();
        let base = simulate_trace(&t, &cfg);
        let run = run_exocore(&t, &ir, &cfg, &plans, &a, &[BsaKind::NsDf]);
        // Offload removes fetch/rename/window energy.
        assert!(
            run.energy.core_dynamic < 0.5 * base.energy.core_dynamic,
            "core dynamic {} vs {}",
            run.energy.core_dynamic,
            base.energy.core_dynamic
        );
        assert!(run.events.accel.cfu_ops > 0);
        assert!(run.unit_cycles[ExecUnit::NsDf as usize] > 0);
    }

    #[test]
    fn trace_p_replays_divergent_iterations() {
        let p = irregular_kernel(800);
        let (t, ir, plans) = setup(&p);
        let lid = *plans.trace_p.keys().next().expect("hot-trace loop");
        let mut a = Assignment::none();
        a.set(lid, BsaKind::TraceP);
        let cfg = CoreConfig::ooo2();
        let run = run_exocore(&t, &ir, &cfg, &plans, &a, &[BsaKind::TraceP]);
        // The 1-in-8 off-path iterations replay on the host.
        assert!(run.trace_replays > 50, "replays = {}", run.trace_replays);
        assert!(run.trace_replays < 200, "replays = {}", run.trace_replays);
        assert!(run.events.accel.store_buffer_accesses == 0); // no stores in loop
        assert!(run.events.accel.trace_replays == run.trace_replays);
    }

    /// Compute-heavy data-parallel kernel: 5 FP ops per load/store pair,
    /// fat enough for the DP-CGRA's comm-vs-compute rule.
    fn cgra_kernel(n: i64) -> Program {
        let (pi, po, i) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let (x, y, z) = (Reg::fp(0), Reg::fp(1), Reg::fp(2));
        let mut b = ProgramBuilder::new("cgra");
        b.init_reg(pi, 0x10000);
        b.init_reg(po, 0x24000);
        b.init_reg(i, n);
        let head = b.bind_new_label();
        b.fld(x, pi, 0);
        b.fmul(y, x, x);
        b.fadd(y, y, x);
        b.fmul(z, y, y);
        b.fsub(z, z, x);
        b.fmul(z, z, y);
        b.fst(z, po, 0);
        b.addi(pi, pi, 8);
        b.addi(po, po, 8);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn dp_cgra_offloads_compute_slice() {
        let p = cgra_kernel(400);
        let (t, ir, plans) = setup(&p);
        let Some((&lid, _)) = plans.dp_cgra.iter().next() else {
            panic!("compute-heavy kernel should be CGRA-sliceable");
        };
        let mut a = Assignment::none();
        a.set(lid, BsaKind::DpCgra);
        let cfg = CoreConfig::ooo2();
        let base = simulate_trace(&t, &cfg);
        let run = run_exocore(&t, &ir, &cfg, &plans, &a, &[BsaKind::DpCgra]);
        assert!(run.events.accel.cgra_ops > 0);
        assert!(run.events.accel.cgra_config_words > 0, "config loaded once");
        assert!(
            run.cycles < base.cycles,
            "{} !< {}",
            run.cycles,
            base.cycles
        );
    }

    #[test]
    fn unit_cycle_breakdown_sums_to_total() {
        let p = dp_kernel(200);
        let (t, ir, plans) = setup(&p);
        let lid = *plans.simd.keys().next().unwrap();
        let mut a = Assignment::none();
        a.set(lid, BsaKind::Simd);
        let run = run_exocore(&t, &ir, &CoreConfig::ooo2(), &plans, &a, &[BsaKind::Simd]);
        let sum: u64 = run.unit_cycles.iter().sum();
        assert_eq!(sum, run.cycles);
        let isum: u64 = run.unit_insts.iter().sum();
        assert_eq!(isum, run.insts);
        assert!(!run.timeline.is_empty());
    }

    #[test]
    #[should_panic(expected = "absent accelerator")]
    fn assignment_to_absent_accelerator_panics() {
        let p = dp_kernel(100);
        let (t, ir, plans) = setup(&p);
        let lid = *plans.simd.keys().next().unwrap();
        let mut a = Assignment::none();
        a.set(lid, BsaKind::Simd);
        let _ = run_exocore(&t, &ir, &CoreConfig::ooo2(), &plans, &a, &[]);
    }
}
