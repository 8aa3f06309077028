//! # prism-workloads
//!
//! Synthetic kernel analogues of the benchmark suites in *Analyzing
//! Behavior Specialized Acceleration* (ASPLOS 2016), Table 3 — authored in
//! the `exo` mini-ISA.
//!
//! The real suites (SPEC, Mediabench, Parboil, Intel TPT, TPC-H) are
//! proprietary or need a full C toolchain, so each benchmark is replaced
//! by a kernel reproducing the *behavioral signature* the paper's taxonomy
//! (Fig. 6) cares about: control criticality and consistency,
//! memory/compute separability, and potential ILP/DLP. Suite membership
//! and the regular / semi-regular / irregular grouping of the paper's
//! Fig. 11 are preserved.
//!
//! # Examples
//!
//! ```
//! let w = prism_workloads::by_name("mm").expect("registered");
//! let program = w.build_default();
//! let trace = prism_sim::trace(&program)?;
//! assert!(trace.stats.insts > 1_000);
//! # Ok::<(), prism_sim::TraceError>(())
//! ```

#![warn(missing_docs)]

pub mod helpers;
mod mediabench;
pub mod micro;
mod parboil;
mod specfp;
mod specint;
mod tpch;
mod tpt;

use prism_isa::Program;

/// Benchmark suite of a workload (the paper's Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Intel throughput kernels \[17\].
    Tpt,
    /// Parboil scientific workloads \[1\].
    Parboil,
    /// SPECfp floating-point applications.
    SpecFp,
    /// Mediabench image/video/audio codecs \[27\].
    Mediabench,
    /// TPC-H decision-support queries.
    Tpch,
    /// SPECint irregular integer applications.
    SpecInt,
}

/// Workload regularity class used by the paper's Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegularityClass {
    /// Highly regular (TPT, Parboil).
    Regular,
    /// Semi-regular (Mediabench, TPC-H, SPECfp).
    SemiRegular,
    /// Highly irregular (SPECint).
    Irregular,
}

impl Suite {
    /// The Fig. 11 regularity class of this suite.
    #[must_use]
    pub fn class(self) -> RegularityClass {
        match self {
            Suite::Tpt | Suite::Parboil => RegularityClass::Regular,
            Suite::SpecFp | Suite::Mediabench | Suite::Tpch => RegularityClass::SemiRegular,
            Suite::SpecInt => RegularityClass::Irregular,
        }
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Suite::Tpt => "TPT",
            Suite::Parboil => "Parboil",
            Suite::SpecFp => "SPECfp",
            Suite::Mediabench => "Mediabench",
            Suite::Tpch => "TPCH",
            Suite::SpecInt => "SPECint",
        }
    }
}

/// A registered workload: a kernel builder plus its suite and default
/// problem size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Benchmark name (matches the paper's Table 3 where applicable).
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// Kernel builder; the parameter scales the problem size.
    pub build: fn(u32) -> Program,
    /// Default problem size (tuned for ~20k-80k dynamic instructions).
    pub default_n: u32,
}

impl Workload {
    /// Builds the kernel at its default problem size.
    #[must_use]
    pub fn build_default(&self) -> Program {
        (self.build)(self.default_n)
    }

    /// The default problem size multiplied by [`scale`] (`PRISM_SCALE`).
    /// This is the size the pipeline actually prepares.
    #[must_use]
    pub fn scaled_n(&self) -> u32 {
        self.default_n.saturating_mul(scale())
    }

    /// The regularity class of the owning suite.
    #[must_use]
    pub fn class(&self) -> RegularityClass {
        self.suite.class()
    }
}

/// Environment knob: a problem-size multiplier applied to every
/// workload's `default_n` (see [`scale`]).
pub const SCALE_ENV: &str = "PRISM_SCALE";

/// The `PRISM_SCALE` problem-size multiplier (default 1): `PRISM_SCALE=16`
/// runs every kernel at 16× its default iteration count, so long-trace
/// behavior (streaming, bounded memory) is exercisable without editing
/// kernels.
///
/// # Panics
///
/// Panics when the variable is set but not a positive integer — like the
/// other env knobs, a typo must not silently run at the default size.
/// Front ends validate it at startup (`prism_pipeline::Config`), so a bad
/// value stops them before this is ever reached.
#[must_use]
pub fn scale() -> u32 {
    match std::env::var(SCALE_ENV) {
        Ok(v) => parse_scale(&v).unwrap_or_else(|e| panic!("bad {SCALE_ENV} value `{v}`: {e}")),
        Err(_) => 1,
    }
}

/// Parses a [`SCALE_ENV`] value: a positive integer.
///
/// # Errors
///
/// Returns why the value is not a positive integer.
pub fn parse_scale(value: &str) -> Result<u32, String> {
    match value.trim().parse::<u32>() {
        Ok(0) => Err("must be >= 1".to_string()),
        Ok(k) => Ok(k),
        Err(e) => Err(e.to_string()),
    }
}

macro_rules! workloads {
    ($($name:literal, $suite:ident, $f:path, $n:expr;)*) => {
        /// The full workload registry (the paper's Table 3).
        pub const ALL: &[Workload] = &[
            $(Workload { name: $name, suite: Suite::$suite, build: $f, default_n: $n },)*
        ];
    };
}

workloads! {
    // TPT
    "conv",        Tpt,        tpt::conv,            1500;
    "merge",       Tpt,        tpt::merge,           2200;
    "nbody",       Tpt,        tpt::nbody,           70;
    "radar",       Tpt,        tpt::radar,           220;
    "treesearch",  Tpt,        tpt::treesearch,      900;
    "vr",          Tpt,        tpt::vr,              1800;
    // Parboil
    "cutcp",       Parboil,    parboil::cutcp,       2200;
    "fft",         Parboil,    parboil::fft,         1300;
    "kmeans",      Parboil,    parboil::kmeans,      900;
    "lbm",         Parboil,    parboil::lbm,         1500;
    "mm",          Parboil,    parboil::mm,          28;
    "sad",         Parboil,    parboil::sad,         2600;
    "needle",      Parboil,    parboil::needle,      2200;
    "nnw",         Parboil,    parboil::nnw,         400;
    "spmv",        Parboil,    parboil::spmv,        350;
    "stencil",     Parboil,    parboil::stencil,     2200;
    "tpacf",       Parboil,    parboil::tpacf,       2800;
    // SPECfp
    "433.milc",    SpecFp,     specfp::milc,         1400;
    "444.namd",    SpecFp,     specfp::namd,         1600;
    "450.soplex",  SpecFp,     specfp::soplex,       2200;
    "453.povray",  SpecFp,     specfp::povray,       1700;
    "482.sphinx3", SpecFp,     specfp::sphinx3,      45;
    // Mediabench
    "cjpeg-1",     Mediabench, mediabench::cjpeg,    1600;
    "djpeg-1",     Mediabench, mediabench::djpeg,    1600;
    "gsmdecode",   Mediabench, mediabench::gsmdecode, 2200;
    "gsmencode",   Mediabench, mediabench::gsmencode, 280;
    "cjpeg-2",     Mediabench, mediabench::cjpeg2,   2000;
    "djpeg-2",     Mediabench, mediabench::djpeg2,   2000;
    "h263enc",     Mediabench, mediabench::h263enc,  60;
    "h264dec",     Mediabench, mediabench::h264dec,  1100;
    "jpg2000dec",  Mediabench, mediabench::jpg2000dec, 2600;
    "jpg2000enc",  Mediabench, mediabench::jpg2000enc, 2200;
    "mpeg2dec",    Mediabench, mediabench::mpeg2dec, 1500;
    "mpeg2enc",    Mediabench, mediabench::mpeg2enc, 1600;
    // TPC-H
    "tpch1",       Tpch,       tpch::q1,             1700;
    "tpch2",       Tpch,       tpch::q2,             2400;
    // SPECint
    "164.gzip",    SpecInt,    specint::gzip,        1400;
    "181.mcf",     SpecInt,    specint::mcf,         4500;
    "175.vpr",     SpecInt,    specint::vpr,         2400;
    "197.parser",  SpecInt,    specint::parser,      900;
    "256.bzip2",   SpecInt,    specint::bzip2,       900;
    "401.bzip2",   SpecInt,    specint::bzip2_401,   900;
    "429.mcf",     SpecInt,    specint::mcf429,      4500;
    "403.gcc",     SpecInt,    specint::gcc,         2000;
    "458.sjeng",   SpecInt,    specint::sjeng,       900;
    "473.astar",   SpecInt,    specint::astar,       2200;
    "456.hmmer",   SpecInt,    specint::hmmer,       2000;
    "445.gobmk",   SpecInt,    specint::gobmk,       2600;
    "464.h264ref", SpecInt,    specint::h264ref,     1300;
}

/// Vertical microbenchmarks (paper ref. \[2\]): single-mechanism stress
/// kernels used by the core-model validation; not part of the DSE registry.
pub const MICRO: &[Workload] = &[
    Workload {
        name: "micro-fetch",
        suite: Suite::Tpt,
        build: micro::fetch_bound,
        default_n: 600,
    },
    Workload {
        name: "micro-chain",
        suite: Suite::Tpt,
        build: micro::chain_bound,
        default_n: 600,
    },
    Workload {
        name: "micro-muldiv",
        suite: Suite::Tpt,
        build: micro::muldiv_bound,
        default_n: 600,
    },
    Workload {
        name: "micro-latency",
        suite: Suite::Tpt,
        build: micro::latency_bound,
        default_n: 800,
    },
    Workload {
        name: "micro-mispredict",
        suite: Suite::Tpt,
        build: micro::mispredict_bound,
        default_n: 800,
    },
    Workload {
        name: "micro-window",
        suite: Suite::Tpt,
        build: micro::window_bound,
        default_n: 500,
    },
    Workload {
        name: "micro-forward",
        suite: Suite::Tpt,
        build: micro::forwarding_bound,
        default_n: 600,
    },
    Workload {
        name: "micro-fp",
        suite: Suite::Tpt,
        build: micro::fp_bound,
        default_n: 600,
    },
];

/// Looks a workload up by name in the registry, then in [`MICRO`].
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().chain(MICRO).find(|w| w.name == name)
}

/// All workloads of one suite.
pub fn by_suite(suite: Suite) -> impl Iterator<Item = &'static Workload> {
    ALL.iter().filter(move |w| w.suite == suite)
}

/// All workloads of one regularity class.
pub fn by_class(class: RegularityClass) -> impl Iterator<Item = &'static Workload> {
    ALL.iter().filter(move |w| w.class() == class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_is_complete_and_unique() {
        assert!(
            ALL.len() >= 44,
            "paper evaluates >40 benchmarks; have {}",
            ALL.len()
        );
        let names: HashSet<&str> = ALL.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), ALL.len(), "duplicate names");
        assert!(by_name("mm").is_some());
        assert!(by_name("micro-fp").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn every_kernel_builds_and_validates() {
        for w in ALL {
            let p = w.build_default();
            assert!(p.validate().is_ok(), "{} failed validation", w.name);
            assert!(p.len() > 5, "{} suspiciously small", w.name);
        }
    }

    #[test]
    fn every_kernel_traces_and_terminates() {
        for w in ALL {
            // Use a smaller size for the test-run budget.
            let p = (w.build)(w.default_n / 4 + 8);
            let cfg = prism_sim::TracerConfig {
                max_insts: 400_000,
                ..prism_sim::TracerConfig::default()
            };
            let t = prism_sim::trace_with(&p, &cfg).expect(w.name);
            assert!(
                t.stats.insts > 200,
                "{}: only {} insts — trivial kernel?",
                w.name,
                t.stats.insts
            );
            assert!(
                t.stats.insts < 400_000,
                "{}: did not terminate within budget",
                w.name
            );
            // Every kernel must actually loop.
            assert!(t.stats.cond_branches > 10, "{}: no loop behavior", w.name);
        }
    }

    #[test]
    fn default_sizes_hit_target_trace_lengths() {
        for w in ALL {
            let t = prism_sim::trace(&w.build_default()).expect(w.name);
            assert!(
                (8_000..400_000).contains(&(t.stats.insts as usize)),
                "{}: {} dynamic insts outside target band",
                w.name,
                t.stats.insts
            );
        }
    }

    #[test]
    fn class_grouping_matches_paper() {
        assert_eq!(Suite::Tpt.class(), RegularityClass::Regular);
        assert_eq!(Suite::Parboil.class(), RegularityClass::Regular);
        assert_eq!(Suite::Mediabench.class(), RegularityClass::SemiRegular);
        assert_eq!(Suite::Tpch.class(), RegularityClass::SemiRegular);
        assert_eq!(Suite::SpecFp.class(), RegularityClass::SemiRegular);
        assert_eq!(Suite::SpecInt.class(), RegularityClass::Irregular);
        assert!(by_class(RegularityClass::Irregular).count() >= 12);
        assert!(by_suite(Suite::Mediabench).count() == 12);
    }

    #[test]
    fn suites_show_expected_branch_behavior() {
        // Regular kernels should have very predictable branches; irregular
        // kernels should mispredict noticeably more.
        let rate = |name: &str| {
            let w = by_name(name).unwrap();
            let t = prism_sim::trace(&w.build_default()).unwrap();
            t.stats.mispredicts as f64 / t.stats.insts.max(1) as f64
        };
        let regular = rate("stencil");
        let irregular = rate("164.gzip");
        assert!(
            irregular > 4.0 * regular.max(1e-6),
            "gzip ({irregular:.4}) should mispredict far more than stencil ({regular:.4})"
        );
    }
}
