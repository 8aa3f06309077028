//! Streaming trace production: fixed-size chunks instead of one
//! monolithic `Vec<DynInst>`.
//!
//! The paper's scalability argument for the TDG is that node times are
//! finalized at insertion, so the graph only ever needs a *window* of
//! state. The same applies one level down: the functional simulator does
//! not need to materialize a whole trace before the µDG can start
//! consuming it. A [`TraceSource`] yields [`TraceChunk`]s — bounded
//! blocks of retired [`DynInst`]s plus running [`TraceStats`] — produced
//! lazily by [`SimSource`] (the simulator loop).
//!
//! Chunks hold [`DEFAULT_CHUNK_INSTS`] = 64 Ki instructions; tests pick
//! other sizes with `with_chunk_size`. Chunks are never persisted: a
//! trace is cheaper to re-simulate than to read back. Consumers that
//! genuinely need random access (Ball-Larus path profiling in `prism-ir`,
//! Trace-P region replay) use [`TraceSource::materialize`] to collect the
//! stream into a [`Trace`].

use prism_isa::Program;

use crate::{
    BranchPredictor, BranchRecord, DynInst, Machine, MemRecord, MemoryHierarchy, Trace, TraceError,
    TraceStats, TracerConfig,
};

/// Chunk size: 64 Ki retired instructions per chunk.
pub const DEFAULT_CHUNK_INSTS: usize = 64 * 1024;

/// One bounded block of the retired instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceChunk {
    /// 0-based chunk index within the stream.
    pub index: u64,
    /// `seq` of the first instruction in this chunk.
    pub first_seq: u64,
    /// The retired instructions of this chunk.
    pub insts: Vec<DynInst>,
    /// Running statistics over the stream *through* this chunk.
    pub stats: TraceStats,
    /// `true` when no further chunk follows.
    pub last: bool,
}

/// A producer of [`TraceChunk`]s.
///
/// Implementations yield chunks in stream order; `next_chunk` returns
/// `Ok(None)` once the stream is exhausted.
pub trait TraceSource {
    /// The program the stream was recorded from.
    fn program(&self) -> &Program;

    /// Produces the next chunk, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if producing the chunk faults.
    fn next_chunk(&mut self) -> Result<Option<TraceChunk>, TraceError>;

    /// Collects the whole stream into a [`Trace`] — the random-access
    /// adapter for consumers like Ball-Larus path profiling that need the
    /// full instruction vector.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TraceError`] from `next_chunk`.
    fn materialize(mut self) -> Result<Trace, TraceError>
    where
        Self: Sized,
    {
        let program = self.program().clone();
        let mut insts = Vec::new();
        let mut stats = TraceStats::default();
        while let Some(chunk) = self.next_chunk()? {
            insts.extend_from_slice(&chunk.insts);
            stats = chunk.stats;
        }
        Ok(Trace {
            program,
            insts,
            stats,
        })
    }
}

/// Lazy trace production: the functional simulator loop, yielding one
/// chunk per call instead of a monolithic trace.
///
/// Holds the machine, cache hierarchy, and branch predictor across calls,
/// so a chunk costs exactly the simulation of its own instructions.
#[derive(Debug)]
pub struct SimSource<'p> {
    program: &'p Program,
    config: TracerConfig,
    chunk_size: usize,
    machine: Machine,
    dcache: MemoryHierarchy,
    predictor: BranchPredictor,
    stats: TraceStats,
    executed: u64,
    next_index: u64,
    done: bool,
}

impl<'p> SimSource<'p> {
    /// Validates `program` and prepares a lazy source with
    /// [`DEFAULT_CHUNK_INSTS`]-instruction chunks.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidProgram`] if validation fails.
    pub fn new(program: &'p Program, config: &TracerConfig) -> Result<Self, TraceError> {
        program.validate()?;
        Ok(SimSource {
            program,
            config: *config,
            chunk_size: DEFAULT_CHUNK_INSTS,
            machine: Machine::new(program),
            dcache: MemoryHierarchy::new(config.l1d, config.l2, config.dram_latency),
            predictor: BranchPredictor::new(config.branch),
            stats: TraceStats::default(),
            executed: 0,
            next_index: 0,
            done: false,
        })
    }

    /// Overrides the chunk size (tests and embedders).
    #[must_use]
    pub fn with_chunk_size(mut self, insts: usize) -> Self {
        self.chunk_size = insts.max(1);
        self
    }

    /// Instructions recorded so far across all produced chunks.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.stats.insts
    }
}

impl TraceSource for SimSource<'_> {
    fn program(&self) -> &Program {
        self.program
    }

    fn next_chunk(&mut self) -> Result<Option<TraceChunk>, TraceError> {
        if self.done {
            return Ok(None);
        }
        let first_seq = self.stats.insts;
        let index = self.next_index;
        let mut insts = Vec::new();

        while !self.machine.is_halted()
            && self.stats.insts < self.config.max_insts
            && insts.len() < self.chunk_size
        {
            let effect = self.machine.step(self.program)?;
            let recording = self.executed >= self.config.fast_forward;
            self.executed += 1;

            let mem = effect.mem.map(|m| {
                let (latency, level) = self.dcache.access(m.addr, effect.sid);
                MemRecord {
                    addr: m.addr,
                    width: m.width,
                    is_store: m.is_store,
                    latency,
                    level,
                }
            });

            let branch = effect.control.map(|c| {
                let inst = self.program.inst(effect.sid);
                let mispredicted = if inst.op.is_cond_branch() {
                    self.predictor.conditional(effect.sid, c.taken)
                } else if c.is_call {
                    self.predictor.call(effect.sid + 1);
                    false
                } else if c.is_return {
                    self.predictor.ret(c.target)
                } else {
                    false // direct jmp / halt
                };
                BranchRecord {
                    taken: c.taken,
                    target: c.target,
                    mispredicted,
                }
            });

            if recording {
                if let Some(m) = &mem {
                    if m.is_store {
                        self.stats.stores += 1;
                    } else {
                        self.stats.loads += 1;
                    }
                    match m.level {
                        crate::MemLevel::L1 => self.stats.l1_hits += 1,
                        crate::MemLevel::L2 => self.stats.l2_hits += 1,
                        crate::MemLevel::Dram => self.stats.dram_accesses += 1,
                    }
                }
                if let Some(b) = &branch {
                    if self.program.inst(effect.sid).op.is_cond_branch() {
                        self.stats.cond_branches += 1;
                    }
                    if b.mispredicted {
                        self.stats.mispredicts += 1;
                    }
                }
                insts.push(DynInst {
                    seq: self.stats.insts,
                    sid: effect.sid,
                    mem,
                    branch,
                });
                self.stats.insts += 1;
                if self.stats.insts >= self.config.max_insts {
                    break;
                }
            }
            if effect.halted {
                break;
            }
        }

        let last = self.machine.is_halted() || self.stats.insts >= self.config.max_insts;
        if last {
            self.done = true;
        }
        if insts.is_empty() && index > 0 {
            // The stream ended exactly on the previous chunk boundary.
            return Ok(None);
        }
        self.next_index += 1;
        Ok(Some(TraceChunk {
            index,
            first_seq,
            insts,
            stats: self.stats,
            last,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_isa::{ProgramBuilder, Reg};

    fn counting_loop(n: i64) -> Program {
        let (i, acc) = (Reg::int(1), Reg::int(2));
        let mut b = ProgramBuilder::new("count");
        b.init_reg(i, n);
        let head = b.bind_new_label();
        b.add(acc, acc, i);
        b.addi(i, i, -1);
        b.bne_label(i, Reg::ZERO, head);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn chunked_stream_equals_monolithic_trace() {
        let p = counting_loop(100);
        let whole = crate::trace(&p).unwrap();
        let mut src = SimSource::new(&p, &TracerConfig::default())
            .unwrap()
            .with_chunk_size(37);
        let mut insts = Vec::new();
        let mut chunks = 0;
        let mut stats = TraceStats::default();
        while let Some(c) = src.next_chunk().unwrap() {
            assert_eq!(c.index, chunks);
            assert_eq!(c.first_seq, insts.len() as u64);
            assert!(c.insts.len() <= 37);
            insts.extend_from_slice(&c.insts);
            stats = c.stats;
            chunks += 1;
        }
        assert_eq!(insts, whole.insts);
        assert_eq!(stats, whole.stats);
        assert_eq!(chunks, (whole.len() as u64).div_ceil(37));
    }

    #[test]
    fn last_flag_marks_the_final_chunk() {
        let p = counting_loop(10); // 31 recorded insts + halt
        let mut src = SimSource::new(&p, &TracerConfig::default())
            .unwrap()
            .with_chunk_size(16);
        let mut flags = Vec::new();
        while let Some(c) = src.next_chunk().unwrap() {
            flags.push(c.last);
        }
        assert!(flags.ends_with(&[true]));
        assert!(flags.iter().filter(|&&l| l).count() == 1);
    }

    #[test]
    fn max_insts_bounds_the_stream() {
        let p = counting_loop(1000);
        let cfg = TracerConfig {
            max_insts: 100,
            ..TracerConfig::default()
        };
        let t = SimSource::new(&p, &cfg)
            .unwrap()
            .with_chunk_size(30)
            .materialize()
            .unwrap();
        assert_eq!(t.stats.insts, 100);
    }
}
