//! Property-style fuzzing: random valid programs pushed through the whole
//! trace → µDG → evaluation pipeline. The invariant under test is the
//! failure model itself — every outcome is a typed error or a success,
//! never an unhandled panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use prism_isa::{Program, ProgramBuilder, Reg};
use prism_pipeline::Session;
use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::{simulate_trace, CoreConfig};

mod common;
use common::Store;

/// SplitMix64: small, seedable PRNG (no dependencies).
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            state: seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// Builds a random but always-valid, always-terminating program: a counted
/// outer loop over a randomized body of ALU ops, strided memory traffic,
/// an optional data-dependent skip, and an optional counted inner loop.
fn random_program(seed: u64) -> Program {
    let mut g = Gen::new(seed);
    let mut b = ProgramBuilder::new(format!("fuzz{seed}"));
    let regs: Vec<Reg> = (1..=6).map(Reg::int).collect();
    let ptr = Reg::int(7);
    let ctr = Reg::int(8);
    for (i, &r) in regs.iter().enumerate() {
        b.init_reg(r, g.range(1, 1000) as i64 + i as i64);
    }
    b.init_reg(ptr, 0x10000);
    let iters = g.range(20, 200) as i64;
    b.init_reg(ctr, iters);
    let head = b.bind_new_label();

    let body_len = g.range(3, 12);
    for _ in 0..body_len {
        let d = regs[g.range(0, regs.len() as u64) as usize];
        let a = regs[g.range(0, regs.len() as u64) as usize];
        let c = regs[g.range(0, regs.len() as u64) as usize];
        match g.range(0, 8) {
            0 => {
                b.add(d, a, c);
            }
            1 => {
                b.mul(d, a, c);
            }
            2 => {
                b.xor(d, a, c);
            }
            3 => {
                b.addi(d, a, g.range(0, 64) as i64 - 32);
            }
            4 => {
                b.andi(d, a, 0xFF);
            }
            5 => {
                b.shri(d, a, g.range(1, 4) as i64);
            }
            6 => {
                b.ld(d, ptr, (g.range(0, 8) * 8) as i64);
            }
            _ => {
                b.st(a, ptr, (g.range(0, 8) * 8) as i64);
            }
        }
    }
    if g.range(0, 2) == 0 {
        // Data-dependent skip over one instruction.
        let skip = b.label();
        let t = regs[0];
        b.andi(t, regs[1], 1);
        b.beq_label(t, Reg::ZERO, skip);
        b.addi(regs[2], regs[2], 3);
        b.bind(skip);
    }
    b.addi(ptr, ptr, 8);
    b.addi(ctr, ctr, -1);
    b.bne_label(ctr, Reg::ZERO, head);
    b.halt();
    b.build().expect("generator only emits valid programs")
}

#[test]
fn random_programs_never_panic_and_model_every_instruction() {
    let tracer = TracerConfig {
        max_insts: 50_000,
        ..TracerConfig::default()
    };
    for seed in 0..40 {
        let program = random_program(seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let trace = prism_sim::trace_with(&program, &tracer)?;
            let run = simulate_trace(&trace, &CoreConfig::ooo2());
            assert_eq!(run.insts, trace.len() as u64);
            Ok::<u64, prism_sim::TraceError>(run.cycles)
        }));
        match outcome {
            Ok(Ok(cycles)) => assert!(cycles > 0, "seed {seed}: zero-cycle run"),
            Ok(Err(trace_err)) => {
                // A typed trace error is an acceptable outcome; an
                // unbounded or malformed trace must not get this far.
                eprintln!("seed {seed}: typed trace error: {trace_err}");
            }
            Err(_) => panic!("seed {seed}: pipeline panicked instead of returning an error"),
        }
    }
}

#[test]
fn random_programs_survive_full_pipeline_evaluation() {
    // Heavier per seed (IR analysis + oracle tables + evaluation), so
    // fewer seeds: the invariant is typed-error-or-success, no panics.
    let store = Store::new("full-pipeline");
    let session = Session::new()
        .with_tracer(TracerConfig {
            max_insts: 20_000,
            ..TracerConfig::default()
        })
        .with_jobs(1)
        .with_faults(None)
        .with_store_dir(store.path());
    let cores = [CoreConfig::ooo2()];
    let subsets = [vec![], BsaKind::ALL.to_vec()];
    for seed in 0..8 {
        let program = random_program(1000 + seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let prepared = session.prepare_program(&program)?;
            let report = session.explore_grid(&[prepared], &cores, &subsets);
            Ok::<_, prism_pipeline::PipelineError>(report)
        }));
        match outcome {
            Ok(Ok(report)) => {
                assert_eq!(
                    report.results.len() + report.quarantined.len(),
                    cores.len() * subsets.len(),
                    "seed {seed}: unaccounted grid points"
                );
            }
            Ok(Err(e)) => eprintln!("seed {seed}: typed pipeline error: {e}"),
            Err(_) => panic!("seed {seed}: evaluation panicked instead of returning an error"),
        }
    }
}
