//! Whole-trace evaluation: builds the original µDG (the paper's
//! `TDG_GPP,∅`) from a recorded trace and reports cycles, energy, and
//! IPC.
//!
//! The evaluation state is O(window), not O(trace): node times are
//! finalized at insertion, and the only cross-instruction state is the
//! per-register last-writer completion time ([`RegTimes`]) plus the
//! memory-dependence footprint ([`MemDepTracker`]), so [`simulate_trace`]
//! takes instructions one at a time.

use prism_energy::{EnergyBreakdown, EnergyEvents, EnergyModel};
use prism_isa::{Inst, Program, NUM_REGS};
use prism_sim::{RegDepTracker, Trace};

use crate::{CoreConfig, CoreModel, MemDepTracker, ModelDep, ModelInst};

/// Result of evaluating a trace on a core configuration.
#[derive(Debug, Clone)]
pub struct CoreRun {
    /// Core configuration name.
    pub config_name: String,
    /// Total cycles (time of the last commit).
    pub cycles: u64,
    /// Instructions modeled.
    pub insts: u64,
    /// Accumulated energy events.
    pub events: EnergyEvents,
    /// Energy breakdown for the run (core dynamic + leakage; no
    /// accelerator).
    pub energy: EnergyBreakdown,
    /// Binding-constraint tally (critical-path attribution).
    pub binding: crate::BindingCounts,
}

impl CoreRun {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Instructions per unit energy (the paper's IPE validation metric).
    #[must_use]
    pub fn ipe(&self) -> f64 {
        let e = self.energy.total();
        if e <= 0.0 {
            0.0
        } else {
            self.insts as f64 / (e * 1e9) // insts per nanojoule
        }
    }
}

/// Streaming register-time tracker: the completion time of every
/// architectural register's last writer.
///
/// This is the windowed replacement for an O(trace) `p_times` vector:
/// dependences are only ever resolved against the *current* last writer
/// of each source register, so one `u64` per register suffices — exactly
/// the paper's "times are finalized at insertion" property.
#[derive(Debug, Clone)]
pub struct RegTimes {
    regs: RegDepTracker,
    times: [u64; NUM_REGS as usize],
}

impl Default for RegTimes {
    fn default() -> Self {
        RegTimes {
            regs: RegDepTracker::new(),
            times: [0; NUM_REGS as usize],
        }
    }
}

impl RegTimes {
    /// Creates a tracker with no known producers.
    #[must_use]
    pub fn new() -> Self {
        RegTimes::default()
    }

    /// Data dependences of `inst`: one [`ModelDep::data`] per source
    /// register with a known producer, in source order (identical to
    /// resolving [`RegDepTracker::sources`] against producer times).
    #[must_use]
    pub fn data_deps(&self, inst: &Inst) -> Vec<ModelDep> {
        let mut deps = Vec::new();
        self.data_deps_into(inst, &mut deps);
        deps
    }

    /// [`RegTimes::data_deps`] into a caller-owned buffer (cleared first),
    /// so the per-instruction hot path reuses one allocation.
    pub fn data_deps_into(&self, inst: &Inst, deps: &mut Vec<ModelDep>) {
        deps.clear();
        for r in inst.sources() {
            if self.regs.writer_of(r).is_some() {
                deps.push(ModelDep::data(self.times[r.index()]));
            }
        }
    }

    /// Records that `inst` retired as dynamic instruction `seq`,
    /// completing at `complete`.
    pub fn retire(&mut self, inst: &Inst, seq: u64, complete: u64) {
        if let Some(d) = inst.dest() {
            self.times[d.index()] = complete;
        }
        self.regs.retire(inst, seq);
    }
}

/// Builds the [`ModelInst`] for one dynamic instruction.
///
/// Resolves register dependences through the streaming `regs` tracker and
/// memory dependences through `mems`.
#[must_use]
pub fn model_inst_for(
    program: &Program,
    d: &prism_sim::DynInst,
    regs: &RegTimes,
    mems: &MemDepTracker,
) -> ModelInst {
    let mut mi = ModelInst::default();
    model_inst_for_into(program, d, regs, mems, &mut mi);
    mi
}

/// [`model_inst_for`] into a caller-owned scratch [`ModelInst`]: every
/// field is overwritten and the dependence buffer is reused, so a streaming
/// evaluation allocates nothing per instruction.
pub fn model_inst_for_into(
    program: &Program,
    d: &prism_sim::DynInst,
    regs: &RegTimes,
    mems: &MemDepTracker,
    mi: &mut ModelInst,
) {
    let inst = program.inst(d.sid);
    regs.data_deps_into(inst, &mut mi.deps);
    let mut latency = u64::from(inst.op.latency());
    let mut mem_level = None;
    let mut is_store = false;
    if let Some(m) = &d.mem {
        mem_level = Some(m.level);
        if m.is_store {
            is_store = true;
            latency = 1; // into the store buffer
        } else {
            latency = u64::from(m.latency);
            if let Some(ready) = mems.load_dependence(m.addr, m.width) {
                mi.deps.push(ModelDep::memory(ready));
            }
        }
    }
    mi.fu = inst.fu_class();
    mi.latency = latency;
    mi.mem_level = mem_level;
    mi.is_store = is_store;
    mi.is_cond_branch = inst.op.is_cond_branch();
    mi.mispredicted = d.branch.is_some_and(|b| b.mispredicted);
    mi.branch_taken = d.branch.is_some_and(|b| b.taken);
    mi.vector = false;
    mi.reads = inst.sources().count() as u8;
    mi.writes = u8::from(inst.dest().is_some());
}

/// Evaluates `trace` on `config`, producing the baseline (no-accelerator)
/// performance and energy — the paper's `TDG_GPP,∅`.
///
/// # Examples
///
/// ```
/// use prism_isa::{ProgramBuilder, Reg};
/// use prism_udg::{simulate_trace, CoreConfig};
///
/// let (i, acc) = (Reg::int(1), Reg::int(2));
/// let mut b = ProgramBuilder::new("count");
/// b.init_reg(i, 50);
/// let head = b.bind_new_label();
/// b.add(acc, acc, i);
/// b.addi(i, i, -1);
/// b.bne_label(i, Reg::ZERO, head);
/// b.halt();
/// let trace = prism_sim::trace(&b.build()?)?;
/// let run = simulate_trace(&trace, &CoreConfig::ooo2());
/// assert!(run.ipc() > 0.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn simulate_trace(trace: &Trace, config: &CoreConfig) -> CoreRun {
    let program = &trace.program;
    let mut core = CoreModel::new(config);
    let mut regs = RegTimes::new();
    let mut mems = MemDepTracker::new();
    // Reused per-instruction model buffer (no per-inst allocation).
    let mut scratch = ModelInst::default();
    let mut mem_prune_watermark = MEM_PRUNE_FLOOR;
    for d in &trace.insts {
        model_inst_for_into(program, d, &regs, &mems, &mut scratch);
        let times = core.issue(&scratch);
        regs.retire(program.inst(d.sid), d.seq, times.complete);
        if let Some(m) = &d.mem {
            if m.is_store {
                mems.record_store(m.addr, m.width, times.complete);
            }
        }
        // Keep the store footprint O(live): dispatch times are
        // non-decreasing, so any store that completed by this dispatch can
        // never delay a later load — dropping it is timing-exact.
        if mems.len() >= mem_prune_watermark {
            mems.prune_completed_by(times.dispatch);
            mem_prune_watermark = (mems.len() * 2).max(MEM_PRUNE_FLOOR);
        }
    }
    finish_run(core, config, trace.len() as u64)
}

/// Store-footprint entries between prune passes of [`simulate_trace`].
/// Pruning rescans the footprint, so the watermark re-arms at twice the
/// surviving size (amortized O(1) per instruction), never below this floor.
const MEM_PRUNE_FLOOR: usize = 4096;

/// Packages a finished [`CoreModel`] into a [`CoreRun`], pricing its events
/// with the default [`EnergyModel`].
#[must_use]
pub fn finish_run(core: CoreModel, config: &CoreConfig, insts: u64) -> CoreRun {
    let cycles = core.now();
    let mut events = EnergyEvents::new();
    events.core = *core.events();
    let model = EnergyModel::new();
    let energy = model.breakdown(&events, &config.energy_config(), config.area_mm2(), cycles);
    CoreRun {
        config_name: config.name.clone(),
        cycles,
        insts,
        events,
        energy,
        binding: core.into_binding_counts(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_isa::{Program, ProgramBuilder, Reg};

    /// Data-parallel FP kernel: c[i] = a[i]*b[i] + c[i].
    fn dp_kernel(n: i64) -> Program {
        let (pa, pb, pc, i) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
        let (fa, fb, fc, ft) = (Reg::fp(0), Reg::fp(1), Reg::fp(2), Reg::fp(3));
        let mut b = ProgramBuilder::new("dp");
        b.init_reg(pa, 0x10000);
        b.init_reg(pb, 0x20000);
        b.init_reg(pc, 0x30000);
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

    /// Serial pointer-chase-like kernel: long dependence chain.
    fn serial_kernel(n: i64) -> Program {
        let (x, i) = (Reg::int(1), Reg::int(2));
        let mut b = ProgramBuilder::new("serial");
        b.init_reg(x, 1);
        b.init_reg(i, n);
        let head = b.bind_new_label();
        b.mul(x, x, x);
        b.addi(x, x, 1);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn wider_ooo_cores_run_parallel_code_faster() {
        let t = prism_sim::trace(&dp_kernel(500)).unwrap();
        let io2 = simulate_trace(&t, &CoreConfig::io2());
        let ooo2 = simulate_trace(&t, &CoreConfig::ooo2());
        let ooo6 = simulate_trace(&t, &CoreConfig::ooo6());
        assert!(
            ooo2.cycles < io2.cycles,
            "OOO2 {} !< IO2 {}",
            ooo2.cycles,
            io2.cycles
        );
        assert!(
            ooo6.cycles < ooo2.cycles,
            "OOO6 {} !< OOO2 {}",
            ooo6.cycles,
            ooo2.cycles
        );
        assert!(ooo6.ipc() > 1.5, "OOO6 ipc = {}", ooo6.ipc());
    }

    #[test]
    fn serial_code_does_not_scale_with_width() {
        let t = prism_sim::trace(&serial_kernel(500)).unwrap();
        let ooo2 = simulate_trace(&t, &CoreConfig::ooo2());
        let ooo6 = simulate_trace(&t, &CoreConfig::ooo6());
        // The mul chain limits both; OOO6 gains little.
        let speedup = ooo2.cycles as f64 / ooo6.cycles as f64;
        assert!(speedup < 1.2, "serial speedup suspiciously high: {speedup}");
    }

    #[test]
    fn bigger_cores_burn_more_energy() {
        let t = prism_sim::trace(&dp_kernel(300)).unwrap();
        let e2 = simulate_trace(&t, &CoreConfig::ooo2()).energy.total();
        let e6 = simulate_trace(&t, &CoreConfig::ooo6()).energy.total();
        assert!(e6 > e2, "OOO6 energy {e6} !> OOO2 energy {e2}");
    }

    #[test]
    fn ipc_bounded_by_width() {
        let t = prism_sim::trace(&dp_kernel(500)).unwrap();
        for cfg in [CoreConfig::io2(), CoreConfig::ooo2(), CoreConfig::ooo4()] {
            let r = simulate_trace(&t, &cfg);
            assert!(
                r.ipc() <= f64::from(cfg.width),
                "{}: ipc {}",
                cfg.name,
                r.ipc()
            );
        }
    }

    #[test]
    fn store_load_forwarding_dependence_respected() {
        // st x → ld x → use: the load must wait for the store.
        let (a, v, w) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let mut b = ProgramBuilder::new("stld");
        b.init_reg(a, 0x1000);
        b.init_reg(v, 42);
        b.st(v, a, 0);
        b.ld(w, a, 0);
        b.add(w, w, w);
        b.halt();
        let t = prism_sim::trace(&b.build().unwrap()).unwrap();
        let run = simulate_trace(&t, &CoreConfig::ooo4());
        assert!(
            run.binding
                .get(&crate::EdgeKind::MemDep)
                .copied()
                .unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn binding_counts_cover_all_insts() {
        let t = prism_sim::trace(&dp_kernel(50)).unwrap();
        let run = simulate_trace(&t, &CoreConfig::ooo2());
        let total: u64 = run.binding.values().sum();
        assert_eq!(total, 4 * run.insts);
    }

    #[test]
    fn ipe_positive() {
        let t = prism_sim::trace(&dp_kernel(50)).unwrap();
        let run = simulate_trace(&t, &CoreConfig::ooo2());
        assert!(run.ipe() > 0.0);
    }
}
