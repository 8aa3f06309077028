//! An independent, cycle-stepped reference simulator used to validate the
//! µDG model (the role gem5 plays in the paper's Table 1 / Fig. 5
//! validation).
//!
//! Unlike [`CoreModel`](crate::CoreModel) — which assigns event times
//! analytically in one forward pass over dependence edges — this simulator
//! steps a machine cycle by cycle with explicit structures: a fetch queue,
//! a reorder buffer, an issue window with oldest-first select, functional
//! units, and in-order commit. The two implementations share nothing but
//! the trace format, so agreement between them is meaningful evidence that
//! the dependence-graph abstraction captures the microarchitecture.

use std::collections::VecDeque;

use prism_sim::{RegDepTracker, Trace};

use crate::{CoreConfig, FastMap, FastSet, SeqTable};

/// Result of a reference simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferenceRun {
    /// Total cycles until the last commit.
    pub cycles: u64,
    /// Instructions committed.
    pub insts: u64,
}

impl ReferenceRun {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// The relative error of a model's IPC against this run's,
    /// `|model − reference| / reference`: the metric of the paper's
    /// Table 1 validation. A reference IPC below 1e-9 counts as 1e-9, so
    /// the error of an empty run stays finite.
    #[must_use]
    pub fn ipc_error(&self, model_ipc: f64) -> f64 {
        (model_ipc - self.ipc()).abs() / self.ipc().max(1e-9)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// In the front end; enters the window at the stored cycle.
    FrontEnd { enters_at: u64 },
    /// In the issue window, waiting for operands and a unit.
    Waiting,
    /// Executing; completes at the stored cycle.
    Executing { done_at: u64 },
    /// Completed, waiting for in-order commit.
    Done,
}

#[derive(Debug, Clone)]
struct RobEntry {
    seq: u64,
    stage: Stage,
    /// Dynamic producers (register and memory) this entry waits for.
    producers: Vec<u64>,
    fu: prism_isa::FuClass,
    latency: u64,
    mispredicted: bool,
}

/// Completion times are kept in a windowed [`SeqTable`]: an absent `seq`
/// means "not yet completed" for in-flight entries. The table is trimmed
/// back to the live dependence frontier (ROB producers, register
/// last-writers, and store-buffer producers) whenever it crosses this
/// floor, so its size tracks the machine's window — not the trace length.
/// The store-to-word map is pruned in the same pass: entries whose store
/// has already completed are vacuous dependences (any later load issues at
/// a cycle at or past the completion), so both structures stay bounded on
/// arbitrarily long traces.
const PRUNE_FLOOR: usize = 4096;

/// Simulates `trace` on `config` cycle by cycle.
///
/// Models: fetch bandwidth and front-end depth, ROB and issue-window
/// occupancy, issue width, per-class FU counts, dcache ports, oldest-first
/// select, in-order commit at the pipeline width, and mispredict redirects.
///
/// A built-in watchdog bounds the cycle loop; if it trips (a modeling bug
/// that deadlocks the machine), the partial run is returned. Use
/// [`try_simulate_reference`] to surface that as a typed error instead.
#[must_use]
pub fn simulate_reference(trace: &Trace, config: &CoreConfig) -> ReferenceRun {
    match try_simulate_reference(trace, config) {
        Ok(run) | Err(Watchdog::Partial(run)) => run,
    }
}

/// How a reference simulation was cut short.
#[derive(Debug, Clone)]
pub enum Watchdog {
    /// The internal cycle watchdog tripped (machine deadlock); the partial
    /// run observed so far is attached.
    Partial(ReferenceRun),
}

impl std::fmt::Display for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Watchdog::Partial(run) => write!(
                f,
                "reference simulator watchdog tripped after {} cycles ({} insts committed)",
                run.cycles, run.insts
            ),
        }
    }
}

impl std::error::Error for Watchdog {}

/// [`simulate_reference`] that turns the internal cycle watchdog into a
/// typed error.
///
/// # Errors
///
/// [`Watchdog::Partial`] when the machine stops committing and the
/// internal cycle cap is reached.
pub fn try_simulate_reference(
    trace: &Trace,
    config: &CoreConfig,
) -> Result<ReferenceRun, Watchdog> {
    let width = config.width as usize;
    let rob_cap = if config.out_of_order {
        config.rob_size as usize
    } else {
        (width * 4).max(8)
    };
    let window_cap = if config.out_of_order {
        config.window_size as usize
    } else {
        width
    };

    let mut complete_at = SeqTable::with_capacity(PRUNE_FLOOR);
    let mut prune_watermark = PRUNE_FLOOR;
    let mut regs = RegDepTracker::new();
    // Last store seq per 8-byte word (for store→load links).
    let mut last_store: FastMap<u64, u64> = FastMap::default();
    // Reused keep-set buffer for the prune pass.
    let mut keep: FastSet<u64> = FastSet::default();

    let mut rob: VecDeque<RobEntry> = VecDeque::new();
    let mut next_fetch: usize = 0;
    let mut cycle: u64 = 0;
    let mut fetch_stall_until: u64 = 0;
    // A fetched-but-unresolved mispredicted branch blocks all younger
    // fetches (the correct path does not exist until the redirect).
    let mut fetch_blocked_on: Option<u64> = None;
    let mut committed: u64 = 0;
    let max_cycles = 2_000 + trace.len() as u64 * 256;

    while (committed as usize) < trace.len() && cycle < max_cycles {
        // ---- Complete ----------------------------------------------------
        for e in rob.iter_mut() {
            if let Stage::Executing { done_at } = e.stage {
                if done_at <= cycle {
                    e.stage = Stage::Done;
                    complete_at.insert(e.seq, done_at);
                    if e.mispredicted && fetch_blocked_on == Some(e.seq) {
                        fetch_blocked_on = None;
                        fetch_stall_until =
                            fetch_stall_until.max(done_at + u64::from(config.mispredict_penalty));
                    }
                }
            }
        }

        // ---- Commit (oldest first, up to width) --------------------------
        let mut committed_this_cycle = 0;
        while committed_this_cycle < width {
            match rob.front() {
                Some(e) if matches!(e.stage, Stage::Done) => {
                    rob.pop_front();
                    committed += 1;
                    committed_this_cycle += 1;
                }
                _ => break,
            }
        }

        // ---- Prune completion times to the live frontier -----------------
        if complete_at.len() >= prune_watermark {
            // A word whose last store has already completed can never delay
            // a later load (it issues at a cycle at or past the store's
            // completion), so the store→word link is vacuous: drop it, and
            // with it the only thing keeping that seq's completion time
            // alive. This bounds `last_store` on long traces.
            last_store.retain(|_, s| !complete_at.contains(*s));
            keep.clear();
            for e in &rob {
                keep.extend(e.producers.iter().copied());
            }
            keep.extend(regs.writers());
            keep.extend(last_store.values().copied());
            complete_at.trim(keep.iter().copied());
            // Re-arm well above the irreducible live set so pruning stays
            // amortized O(1) per instruction.
            prune_watermark = (complete_at.len() * 2).max(PRUNE_FLOOR);
        }

        // ---- Issue (oldest-first select) ---------------------------------
        let mut alu = config.alus;
        let mut muldiv = config.muldivs;
        let mut fp = config.fpus;
        let mut ports = config.dcache_ports;
        let mut issue_slots = width;
        let mut in_window = 0usize;
        for e in rob.iter_mut() {
            if issue_slots == 0 {
                break;
            }
            if let Stage::FrontEnd { enters_at } = e.stage {
                if enters_at <= cycle {
                    e.stage = Stage::Waiting;
                } else {
                    // Younger entries are even further behind.
                    break;
                }
            }
            if !matches!(e.stage, Stage::Waiting) {
                continue;
            }
            in_window += 1;
            if in_window > window_cap {
                break; // window full: younger waiters are not yet visible
            }
            let ready = e
                .producers
                .iter()
                .all(|&p| complete_at.get(p).is_some_and(|t| t <= cycle));
            let unit = match e.fu {
                prism_isa::FuClass::Alu => &mut alu,
                prism_isa::FuClass::MulDiv => &mut muldiv,
                prism_isa::FuClass::Fp => &mut fp,
                prism_isa::FuClass::Mem => &mut ports,
                prism_isa::FuClass::None => {
                    e.stage = Stage::Executing { done_at: cycle + 1 };
                    issue_slots -= 1;
                    continue;
                }
            };
            if ready && *unit > 0 {
                *unit -= 1;
                issue_slots -= 1;
                e.stage = Stage::Executing {
                    done_at: cycle + e.latency.max(1),
                };
            } else if !config.out_of_order {
                break; // in-order issue: a stalled elder blocks the rest
            }
        }

        // ---- Fetch/rename (width per cycle, ROB space permitting) -------
        if cycle >= fetch_stall_until && fetch_blocked_on.is_none() {
            for _ in 0..width {
                if next_fetch >= trace.len() || rob.len() >= rob_cap {
                    break;
                }
                if fetch_blocked_on.is_some() {
                    break;
                }
                let d = &trace.insts[next_fetch];
                let inst = trace.static_inst(d);
                let mut producers = regs.sources(inst);
                let mut latency = u64::from(inst.op.latency());
                if let Some(m) = &d.mem {
                    if m.is_store {
                        latency = 1;
                        let first = m.addr >> 3;
                        let last = (m.addr + u64::from(m.width.max(1)) - 1) >> 3;
                        for w in first..=last {
                            last_store.insert(w, d.seq);
                        }
                    } else {
                        latency = u64::from(m.latency);
                        let first = m.addr >> 3;
                        let last = (m.addr + u64::from(m.width.max(1)) - 1) >> 3;
                        for w in first..=last {
                            if let Some(&s) = last_store.get(&w) {
                                if !producers.contains(&s) {
                                    producers.push(s);
                                }
                            }
                        }
                    }
                }
                rob.push_back(RobEntry {
                    seq: d.seq,
                    stage: Stage::FrontEnd {
                        enters_at: cycle + u64::from(config.frontend_depth),
                    },
                    producers,
                    fu: inst.fu_class(),
                    latency,
                    mispredicted: d.branch.is_some_and(|b| b.mispredicted),
                });
                regs.retire(inst, d.seq);
                if d.branch.is_some_and(|b| b.mispredicted) {
                    fetch_blocked_on = Some(d.seq);
                }
                next_fetch += 1;
                if d.branch.is_some_and(|b| b.taken) {
                    break; // fetch group ends at a taken branch
                }
            }
        }

        cycle += 1;
    }

    let run = ReferenceRun {
        cycles: cycle,
        insts: committed,
    };
    if (committed as usize) < trace.len() {
        return Err(Watchdog::Partial(run));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_trace;
    use prism_isa::{Program, ProgramBuilder, Reg};

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
    fn commits_every_instruction() {
        let t = prism_sim::trace(&dp_kernel(100)).unwrap();
        for cfg in [CoreConfig::io2(), CoreConfig::ooo2(), CoreConfig::ooo6()] {
            let r = simulate_reference(&t, &cfg);
            assert_eq!(r.insts, t.len() as u64, "{}", cfg.name);
            assert!(r.ipc() > 0.0 && r.ipc() <= f64::from(cfg.width));
        }
    }

    #[test]
    fn reference_and_udg_agree_on_ordering() {
        // The two independent models must agree that wider OOO cores are
        // faster on parallel code.
        let t = prism_sim::trace(&dp_kernel(300)).unwrap();
        let ref2 = simulate_reference(&t, &CoreConfig::ooo2()).cycles;
        let ref6 = simulate_reference(&t, &CoreConfig::ooo6()).cycles;
        assert!(ref6 < ref2);
        let udg2 = simulate_trace(&t, &CoreConfig::ooo2()).cycles;
        let udg6 = simulate_trace(&t, &CoreConfig::ooo6()).cycles;
        assert!(udg6 < udg2);
    }

    #[test]
    fn reference_and_udg_agree_within_tolerance() {
        let t = prism_sim::trace(&dp_kernel(400)).unwrap();
        for cfg in [
            CoreConfig::ooo(1),
            CoreConfig::ooo2(),
            CoreConfig::ooo4(),
            CoreConfig::ooo(8),
        ] {
            let r = simulate_reference(&t, &cfg);
            let u = simulate_trace(&t, &cfg);
            let err = r.ipc_error(u.ipc());
            assert!(
                err < 0.35,
                "{}: reference ipc {:.3} vs µDG ipc {:.3} (err {:.0}%)",
                cfg.name,
                r.ipc(),
                u.ipc(),
                err * 100.0
            );
        }
    }
}
