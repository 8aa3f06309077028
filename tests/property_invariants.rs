//! Property-based tests over the core data structures and models:
//! randomly generated programs and event streams must uphold the
//! framework's invariants.
//!
//! Cases are driven by an in-repo SplitMix64 generator (proptest is not
//! available in this build environment), so every run explores the same
//! deterministic case set; a failing case's seed is its loop index.

use prism::isa::{FuClass, Inst, Opcode, Program, ProgramBuilder, Reg};
use prism::sim::{Memory, RegDepTracker};
use prism::udg::{CoreConfig, CoreModel, ModelDep, ModelInst, ResourceTable};

// ---------------------------------------------------------------------
// Deterministic case generator.
// ---------------------------------------------------------------------

struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        // Decorrelate consecutive small seeds.
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

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn reg(&mut self) -> u8 {
        self.range(1, 12) as u8
    }
}

// ---------------------------------------------------------------------
// Random straight-line + loop program generation.
// ---------------------------------------------------------------------

/// An opcode-level random instruction for program generation.
#[derive(Debug, Clone)]
enum GenOp {
    Alu(u8, u8, u8),
    AluImm(u8, u8, i8),
    Mul(u8, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
    Fp(u8, u8, u8),
}

fn gen_op(g: &mut Gen) -> GenOp {
    match g.range(0, 6) {
        0 => GenOp::Alu(g.reg(), g.reg(), g.reg()),
        1 => GenOp::AluImm(g.reg(), g.reg(), g.range(0, 16) as i8 - 8),
        2 => GenOp::Mul(g.reg(), g.reg(), g.reg()),
        3 => GenOp::Load(g.reg(), g.range(0, 16) as u8),
        4 => GenOp::Store(g.reg(), g.range(0, 16) as u8),
        _ => GenOp::Fp(g.reg(), g.reg(), g.reg()),
    }
}

fn gen_body(g: &mut Gen, min: u64, max: u64) -> Vec<GenOp> {
    (0..g.range(min, max)).map(|_| gen_op(g)).collect()
}

/// Builds a terminating program: a counted loop whose body is the random
/// op sequence (guaranteed induction + exit).
fn build_program(body: &[GenOp], trips: i64) -> Program {
    let base = Reg::int(20);
    let i = Reg::int(21);
    let mut b = ProgramBuilder::new("prop");
    b.init_reg(base, 0x1_0000);
    b.init_reg(i, trips);
    let head = b.bind_new_label();
    for op in body {
        match *op {
            GenOp::Alu(d, s1, s2) => {
                b.add(Reg::int(d), Reg::int(s1), Reg::int(s2));
            }
            GenOp::AluImm(d, s, imm) => {
                b.addi(Reg::int(d), Reg::int(s), i64::from(imm));
            }
            GenOp::Mul(d, s1, s2) => {
                b.mul(Reg::int(d), Reg::int(s1), Reg::int(s2));
            }
            GenOp::Load(d, off) => {
                b.ld(Reg::int(d), base, i64::from(off) * 8);
            }
            GenOp::Store(v, off) => {
                b.st(Reg::int(v), base, i64::from(off) * 8);
            }
            GenOp::Fp(d, s1, s2) => {
                b.fadd(Reg::fp(d), Reg::fp(s1), Reg::fp(s2));
            }
        }
    }
    b.addi(i, i, -1);
    b.bne_label(i, Reg::ZERO, head);
    b.halt();
    b.build()
        .expect("generated programs are structurally valid")
}

#[test]
fn random_programs_trace_and_model_consistently() {
    for case in 0..48u64 {
        let mut g = Gen::new(case);
        let body = gen_body(&mut g, 1, 24);
        let trips = g.range(1, 40) as i64;
        let program = build_program(&body, trips);
        let trace = prism::sim::trace(&program).expect("traces");
        // Exact dynamic length: body + induction + branch per trip + halt.
        let expected = (body.len() as u64 + 2) * trips as u64 + 1;
        assert_eq!(trace.stats.insts, expected, "case {case}");

        for cfg in [CoreConfig::io2(), CoreConfig::ooo2(), CoreConfig::ooo6()] {
            let run = prism::udg::simulate_trace(&trace, &cfg);
            // IPC is physically bounded by the width; cycles are nonzero.
            assert!(run.cycles > 0, "case {case}");
            assert!(run.ipc() <= f64::from(cfg.width) + 1e-9, "case {case}");
            // Energy must be positive and finite.
            let e = run.energy.total();
            assert!(e.is_finite() && e > 0.0, "case {case}");
            // Commit count equals trace length (via event bookkeeping).
            assert_eq!(run.events.core.commits, trace.stats.insts, "case {case}");
        }
    }
}

#[test]
fn udg_and_reference_stay_close_on_random_programs() {
    for case in 0..32u64 {
        let mut g = Gen::new(0x1000 + case);
        let body = gen_body(&mut g, 1, 16);
        let trips = g.range(8, 48) as i64;
        let program = build_program(&body, trips);
        let trace = prism::sim::trace(&program).expect("traces");
        let cfg = CoreConfig::ooo2();
        let u = prism::udg::simulate_trace(&trace, &cfg);
        let r = prism::udg::simulate_reference(&trace, &cfg);
        assert_eq!(r.insts, trace.stats.insts, "case {case}");
        let err = r.ipc_error(u.ipc());
        assert!(
            err < 0.30,
            "case {case}: models diverge: µDG {:.3} vs reference {:.3}",
            u.ipc(),
            r.ipc()
        );
    }
}

#[test]
fn memory_roundtrips_random_writes() {
    for case in 0..64u64 {
        let mut g = Gen::new(0x2000 + case);
        let n = g.range(1, 64);
        let mut mem = Memory::new();
        let mut model: std::collections::HashMap<u64, u64> = Default::default();
        for _ in 0..n {
            let addr = g.range(0, 1_000_000) & !7; // aligned
            let val = g.next();
            mem.write_u64(addr, val);
            model.insert(addr, val);
        }
        for (addr, val) in model {
            assert_eq!(mem.read_u64(addr), val, "case {case}");
        }
    }
}

#[test]
fn resource_table_never_overcommits() {
    for case in 0..64u64 {
        let mut g = Gen::new(0x3000 + case);
        let units = g.range(1, 6) as u32;
        let n = g.range(1, 120);
        let mut table = ResourceTable::new(units);
        let mut grants: std::collections::HashMap<u64, u32> = Default::default();
        for _ in 0..n {
            let earliest = g.range(0, 500);
            let got = table.acquire(earliest);
            assert!(
                got >= earliest || got >= *grants.keys().min().unwrap_or(&0),
                "case {case}"
            );
            *grants.entry(got).or_insert(0) += 1;
        }
        for (cycle, count) in grants {
            assert!(
                count <= units,
                "case {case}: cycle {cycle} granted {count} > {units}"
            );
        }
    }
}

#[test]
fn core_model_times_are_causally_ordered() {
    for case in 0..64u64 {
        let mut g = Gen::new(0x4000 + case);
        let latencies: Vec<u64> = (0..g.range(1, 60)).map(|_| g.range(1, 20)).collect();
        let mut core = CoreModel::new(&CoreConfig::ooo4());
        let mut last_complete = 0u64;
        for (k, &lat) in latencies.iter().enumerate() {
            let deps = if k % 2 == 1 {
                vec![ModelDep::data(last_complete)]
            } else {
                vec![]
            };
            let mi = ModelInst {
                fu: FuClass::Alu,
                latency: lat,
                deps,
                ..ModelInst::default()
            };
            let t = core.issue(&mi);
            // The five node times are monotone within an instruction.
            assert!(t.fetch <= t.dispatch, "case {case}");
            assert!(t.dispatch <= t.execute, "case {case}");
            assert!(t.execute < t.complete, "case {case}");
            assert!(t.complete < t.commit, "case {case}");
            assert_eq!(t.complete, t.execute + lat, "case {case}");
            if k % 2 == 1 {
                assert!(
                    t.execute >= last_complete,
                    "case {case}: dependence violated"
                );
            }
            last_complete = t.complete;
        }
    }
}

#[test]
fn reg_dep_tracker_matches_naive_last_writer() {
    for case in 0..64u64 {
        let mut g = Gen::new(0x5000 + case);
        let n = g.range(1, 80);
        let mut tracker = RegDepTracker::new();
        let mut naive: std::collections::HashMap<usize, u64> = Default::default();
        for seq in 0..n {
            let (d, s1, s2) = (
                g.range(1, 10) as u8,
                g.range(1, 10) as u8,
                g.range(1, 10) as u8,
            );
            let inst = Inst::rrr(Opcode::Add, Reg::int(d), Reg::int(s1), Reg::int(s2));
            let expected: Vec<u64> = inst
                .sources()
                .filter_map(|r| naive.get(&r.index()).copied())
                .collect();
            assert_eq!(tracker.sources(&inst), expected, "case {case}");
            tracker.retire(&inst, seq);
            naive.insert(Reg::int(d).index(), seq);
        }
    }
}

#[test]
fn program_ir_loop_invariants() {
    for case in 0..32u64 {
        let mut g = Gen::new(0x6000 + case);
        let body = gen_body(&mut g, 1, 12);
        let trips = g.range(4, 32) as i64;
        let program = build_program(&body, trips);
        let trace = prism::sim::trace(&program).expect("traces");
        let ir = prism::ir::ProgramIr::analyze(&trace);
        // Exactly one loop; its dynamic stats match the construction.
        assert_eq!(ir.loops.len(), 1, "case {case}");
        let l = ir.loops.innermost().next().unwrap();
        assert_eq!(l.iterations, trips as u64, "case {case}");
        assert_eq!(l.entries, 1, "case {case}");
        assert_eq!(
            u64::from(l.static_size(&ir.cfg)),
            body.len() as u64 + 2,
            "case {case}"
        );
        // The induction register is always classified as an induction.
        let regs = &ir.regs[&l.id];
        let induction_found = matches!(
            regs.carried.get(&Reg::int(21)),
            Some(prism::ir::CarriedClass::Induction { step: -1 })
        );
        assert!(induction_found, "case {case}");
    }
}
