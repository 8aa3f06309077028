//! Shared execution context threaded through core and accelerator region
//! models during a combined (core + accelerator) TDG evaluation.

use prism_energy::EnergyEvents;
use prism_isa::{Inst, Program, StaticId};
use prism_sim::{DynInst, RegDepTracker};
use prism_udg::{CoreModel, ModelDep, ModelInst, SeqTable};

pub use crate::unit::ExecUnit;

/// Streaming state shared by every region model of a combined TDG run.
///
/// Holds the *windowed* per-dynamic-instruction completion times, the
/// register/memory dependence trackers, accumulated energy events, and the
/// per-unit cycle/instruction attribution used for the paper's Figure 13
/// breakdowns.
///
/// Completion times live in a windowed, seq-indexed [`SeqTable`], not an
/// O(trace) vector: callers resolve dependences only against *current*
/// last writers, so the runner may call [`ExecCtx::trim_times`] at region
/// boundaries to drop everything outside the live register frontier.
/// Region models that capture producer seqs early (e.g. the DP-CGRA
/// pre-pass) must not trim between capture and resolution — the runner
/// never does.
#[derive(Debug)]
pub struct ExecCtx<'t> {
    /// The static program the trace stream was recorded from.
    pub program: &'t Program,
    /// Completion time of each dynamic instruction, present once its
    /// region model assigns it and until trimmed.
    p_times: SeqTable,
    /// Register last-writer tracking over the *original* stream.
    pub regs: RegDepTracker,
    /// Store→load dependence tracking over the original stream.
    pub mems: prism_udg::MemDepTracker,
    /// Accumulated energy events.
    pub events: EnergyEvents,
    /// Cycles attributed to each execution unit.
    pub unit_cycles: [u64; ExecUnit::COUNT],
    /// Original-program dynamic instructions attributed to each unit.
    pub unit_insts: [u64; ExecUnit::COUNT],
    /// Region-end samples for dynamic-switching timelines (Fig. 14).
    pub timeline: Vec<TimelineSample>,
}

/// One region's endpoint in the switching timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSample {
    /// Last original-trace seq of the region.
    pub end_seq: u64,
    /// Cycle at which the region finished.
    pub end_cycle: u64,
    /// The unit that executed the region.
    pub unit: ExecUnit,
}

impl<'t> ExecCtx<'t> {
    /// Creates a context for a dynamic stream of `program`.
    #[must_use]
    pub fn new(program: &'t Program) -> Self {
        ExecCtx {
            program,
            p_times: SeqTable::new(),
            regs: RegDepTracker::new(),
            mems: prism_udg::MemDepTracker::new(),
            events: EnergyEvents::new(),
            unit_cycles: [0; ExecUnit::COUNT],
            unit_insts: [0; ExecUnit::COUNT],
            timeline: Vec::new(),
        }
    }

    /// The static instruction behind dynamic record `d`.
    #[must_use]
    pub fn static_inst(&self, d: &DynInst) -> &'t Inst {
        self.program.inst(d.sid)
    }

    /// The completion time of dynamic instruction `seq`, if assigned.
    #[must_use]
    pub fn p_time(&self, seq: u64) -> Option<u64> {
        self.p_times.get(seq)
    }

    /// Assigns the completion time of dynamic instruction `seq` without
    /// retiring it (used by region models that defer retirement).
    pub fn set_time(&mut self, seq: u64, complete: u64) {
        self.p_times.insert(seq, complete);
    }

    /// Number of completion times currently held (the live window).
    #[must_use]
    pub fn times_len(&self) -> usize {
        self.p_times.len()
    }

    /// Drops completion times outside the live register frontier.
    ///
    /// Safe only when no region model holds previously captured producer
    /// seqs: after this call, only current last-writer seqs resolve.
    pub fn trim_times(&mut self) {
        self.p_times.trim(self.regs.writers());
    }

    /// [`trim_times`](Self::trim_times) once the window exceeds a fixed
    /// floor — the cheap form region models call at group/iteration
    /// boundaries (where every future dependence resolves through current
    /// last writers), keeping a region's window O(group), not O(region).
    pub fn trim_times_bounded(&mut self) {
        const REGION_TRIM_FLOOR: usize = 4096;
        if self.p_times.len() >= REGION_TRIM_FLOOR {
            self.trim_times();
        }
    }

    /// Records that dynamic instruction `d` completed at `complete`:
    /// assigns its `p_time`, retires it in the register tracker, and
    /// records stores in the memory tracker.
    pub fn retire(&mut self, d: &DynInst, complete: u64) {
        self.p_times.insert(d.seq, complete);
        let inst = self.program.inst(d.sid);
        self.regs.retire(inst, d.seq);
        if let Some(m) = &d.mem {
            if m.is_store {
                self.mems.record_store(m.addr, m.width, complete);
            }
        }
    }

    /// Attributes `insts` original instructions and `cycles` cycles to a
    /// unit and appends a timeline sample.
    pub fn attribute(&mut self, unit: ExecUnit, insts: u64, end_seq: u64, start: u64, end: u64) {
        self.unit_insts[unit as usize] += insts;
        self.unit_cycles[unit as usize] += end.saturating_sub(start);
        self.timeline.push(TimelineSample {
            end_seq,
            end_cycle: end,
            unit,
        });
    }

    /// Resolves the register-dependence producer seqs of `inst`, as of the
    /// current tracker state (callers must not yet have retired `d`).
    #[must_use]
    pub fn producer_seqs(&self, sid: StaticId) -> Vec<u64> {
        self.regs.sources(self.program.inst(sid))
    }

    /// Builds the [`ModelInst`](prism_udg::ModelInst) for `d` as the plain
    /// core would execute it, resolving register dependences through the
    /// windowed completion times (unassigned producers contribute no edge)
    /// and memory dependences through the store tracker.
    #[must_use]
    pub fn model_inst(&self, d: &DynInst) -> ModelInst {
        let mut mi = ModelInst::default();
        self.model_inst_into(d, &mut mi);
        mi
    }

    /// The dependences of `d` into a caller-owned buffer (cleared first):
    /// one data edge per source register whose last writer has a
    /// completion time (unassigned producers contribute no edge), then,
    /// for a load, the memory edge from the store tracker. This is the
    /// dependence list of [`ExecCtx::model_inst`], and what the dataflow
    /// engines wait on.
    pub fn deps_into(&self, d: &DynInst, deps: &mut Vec<ModelDep>) {
        deps.clear();
        for r in self.program.inst(d.sid).sources() {
            if let Some(t) = self.regs.writer_of(r).and_then(|s| self.p_time(s)) {
                deps.push(ModelDep::data(t));
            }
        }
        if let Some(m) = &d.mem {
            if !m.is_store {
                if let Some(ready) = self.mems.load_dependence(m.addr, m.width) {
                    deps.push(ModelDep::memory(ready));
                }
            }
        }
    }

    /// [`ExecCtx::model_inst`] into a caller-owned scratch buffer: every
    /// field is overwritten and the dependence vector is reused, so the
    /// plain-core hot loop allocates nothing per instruction.
    pub fn model_inst_into(&self, d: &DynInst, mi: &mut ModelInst) {
        self.deps_into(d, &mut mi.deps);
        let inst = self.program.inst(d.sid);
        let mut latency = u64::from(inst.op.latency());
        let mut mem_level = None;
        let mut is_store = false;
        if let Some(m) = &d.mem {
            mem_level = Some(m.level);
            if m.is_store {
                is_store = true;
                latency = 1;
            } else {
                latency = u64::from(m.latency);
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
}

/// Buffers the region models reuse across the regions and groups of one
/// walk, so their per-instruction and per-group paths allocate nothing
/// once the buffers have grown to the largest group.
#[derive(Debug, Default)]
pub struct RegionScratch {
    /// The dependence list of the next instruction to issue.
    pub(crate) deps: Vec<ModelDep>,
    /// A model instruction rebuilt in place by
    /// [`ExecCtx::model_inst_into`] (replays, epilogues, per-lane issues).
    pub(crate) mi: ModelInst,
    /// The current region's iterations, as `region` index ranges.
    pub(crate) iters: Vec<(usize, usize)>,
    /// The current vector group's lanes.
    pub(crate) group: LaneGroup,
    /// DP-CGRA: the lane runs deferred until the CGRA instance completes.
    pub(crate) deferred: Vec<(usize, usize)>,
}

/// Splits `region` into iterations at each execution of the loop header
/// `header_start` (the first iteration starts at index 0 wherever it
/// enters), into `iters`.
pub(crate) fn split_iterations(
    region: &[DynInst],
    header_start: StaticId,
    iters: &mut Vec<(usize, usize)>,
) {
    iters.clear();
    let mut cur = 0usize;
    for (i, d) in region.iter().enumerate() {
        if d.sid == header_start && i != cur {
            iters.push((cur, i));
            cur = i;
        }
    }
    iters.push((cur, region.len()));
}

/// Issues `mi` on `core` with `deps` as its dependence list and returns
/// its completion; the list's buffer is handed back for reuse.
pub(crate) fn issue(core: &mut CoreModel, deps: &mut Vec<ModelDep>, mut mi: ModelInst) -> u64 {
    mi.deps = std::mem::take(deps);
    let complete = core.issue(&mi).complete;
    *deps = mi.deps;
    complete
}

/// [`issue`] with one data dependence, on a value ready at `ready`.
pub(crate) fn issue_after(
    core: &mut CoreModel,
    deps: &mut Vec<ModelDep>,
    ready: u64,
    mi: ModelInst,
) -> u64 {
    deps.clear();
    deps.push(ModelDep::data(ready));
    issue(core, deps, mi)
}

/// One vector group: the dynamic instructions `region[start..end]` of
/// several consecutive iterations, executed once per static instruction.
#[derive(Debug, Default)]
pub(crate) struct LaneGroup {
    /// Region index of the group's first instruction.
    start: usize,
    /// Every instruction's register producer seqs, flattened: those of
    /// `region[start + k]` are `seqs[offs[k]..offs[k + 1]]`.
    seqs: Vec<u64>,
    offs: Vec<usize>,
    /// `(sid, region index)` of every instruction, sorted: each static
    /// instruction's lanes form one run, runs in sid order (≈ topological
    /// body order), lanes in original order.
    lanes: Vec<(StaticId, usize)>,
}

impl LaneGroup {
    /// Loads `region[start..end]`: captures each instruction's producer
    /// seqs in original order, retiring registers as it goes so in-group
    /// dataflow resolves to in-group seqs, and sorts the lanes by sid.
    pub(crate) fn load(
        &mut self,
        region: &[DynInst],
        start: usize,
        end: usize,
        ctx: &mut ExecCtx<'_>,
    ) {
        self.start = start;
        self.seqs.clear();
        self.offs.clear();
        self.offs.push(0);
        self.lanes.clear();
        for (i, d) in region.iter().enumerate().take(end).skip(start) {
            let inst = ctx.static_inst(d);
            self.seqs
                .extend(inst.sources().filter_map(|r| ctx.regs.writer_of(r)));
            self.offs.push(self.seqs.len());
            ctx.regs.retire(inst, d.seq);
            self.lanes.push((d.sid, i));
        }
        self.lanes.sort_unstable();
    }

    /// The lanes of each static instruction, one run per sid, in sid
    /// order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = &[(StaticId, usize)]> {
        self.lanes.chunk_by(|a, b| a.0 == b.0)
    }

    /// Every lane, sorted; [`LaneGroup::runs`] are consecutive slices of
    /// it.
    pub(crate) fn lanes(&self) -> &[(StaticId, usize)] {
        &self.lanes
    }

    /// The register producer seqs captured for region index `li`.
    pub(crate) fn producers(&self, li: usize) -> &[u64] {
        let k = li - self.start;
        &self.seqs[self.offs[k]..self.offs[k + 1]]
    }

    /// Adds the lanes' resolvable register dependences to `deps`, each
    /// distinct edge once, in lane order: a producer without a completion
    /// time contributes no edge.
    pub(crate) fn merge_data_deps(
        &self,
        lanes: &[(StaticId, usize)],
        ctx: &ExecCtx<'_>,
        deps: &mut Vec<ModelDep>,
    ) {
        for &(_, li) in lanes {
            for &s in self.producers(li) {
                if let Some(t) = ctx.p_time(s) {
                    let dep = ModelDep::data(t);
                    if !deps.contains(&dep) {
                        deps.push(dep);
                    }
                }
            }
        }
    }
}

/// The latest store→load dependence over the load lanes of `lanes`, if
/// any lane has one.
pub(crate) fn latest_load_dep(
    region: &[DynInst],
    lanes: &[(StaticId, usize)],
    ctx: &ExecCtx<'_>,
) -> Option<u64> {
    lanes
        .iter()
        .filter_map(|&(_, li)| region[li].mem.filter(|m| !m.is_store))
        .filter_map(|m| ctx.mems.load_dependence(m.addr, m.width))
        .max()
}
