//! The measured performance baseline behind `prism bench`: a small,
//! dependency-free microbench suite covering every hot layer of the
//! framework — functional-simulator trace throughput, µDG model
//! throughput, transform (IR + plan analysis) throughput, and end-to-end
//! design-space exploration wall time on a cold and on a warm store.
//!
//! Results serialize to `BENCH_<rev>.json` (hand-rolled JSON; the build
//! environment has no serde) so CI can compare a fresh run against the
//! checked-in baseline and fail on regressions. Throughput metrics are
//! normalized across machines by a fixed integer-hash calibration loop:
//! comparing run B against baseline A scales B's numbers by
//! `A.calibration_mops / B.calibration_mops` before applying the
//! threshold.
//!
//! See `DESIGN.md` §10 for how to read the output.

use std::time::Instant;

use prism_exocore::{all_bsa_subsets, all_cores};
use prism_pipeline::{Json, Session};
use prism_udg::{simulate_trace, CoreConfig, ExecBudget};
use prism_workloads::Workload;

/// Options for one perf run.
#[derive(Debug, Clone, Copy)]
pub struct PerfOptions {
    /// Quick mode: microbench metrics only (identical workloads/sizes to
    /// the full run, fewer iterations) plus the MICRO-registry explore;
    /// skips the full-registry explore. CI's `bench-smoke` uses this.
    pub quick: bool,
    /// Iterations per microbench metric (quick mode caps this at 3).
    pub iters: u32,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            quick: false,
            iters: 10,
        }
    }
}

/// One perf run: revision, mode, machine calibration, and named metrics.
///
/// Metric naming carries the comparison direction: names ending in
/// `_wall_s` are lower-is-better; everything else (throughputs,
/// speedups) is higher-is-better.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Source revision the run was built from (`git rev-parse --short`),
    /// or `"dev"` outside a git checkout.
    pub rev: String,
    /// Whether this was a quick run.
    pub quick: bool,
    /// Calibration-loop throughput in Mops — a machine-speed proxy used
    /// to normalize metrics across hosts.
    pub calibration_mops: f64,
    /// `(name, value)` pairs, in measurement order.
    pub metrics: Vec<(String, f64)>,
}

impl PerfReport {
    /// The value of a named metric.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Serializes the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"rev\": \"{}\",\n", escape(&self.rev)));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!(
            "  \"calibration_mops\": {},\n",
            fmt_f64(self.calibration_mops)
        ));
        out.push_str("  \"metrics\": {\n");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 == self.metrics.len() { "" } else { "," };
            out.push_str(&format!(
                "    \"{}\": {}{comma}\n",
                escape(name),
                fmt_f64(*value)
            ));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a report produced by [`PerfReport::to_json`] (tolerant of
    /// field order and unknown fields; `None` on malformed input).
    #[must_use]
    pub fn from_json(text: &str) -> Option<PerfReport> {
        let doc = Json::parse(text).ok()?;
        let mut metrics = Vec::new();
        if let Some(Json::Obj(fields)) = doc.get("metrics") {
            for (name, value) in fields {
                metrics.push((name.clone(), num(value)?));
            }
        }
        Some(PerfReport {
            rev: doc.get("rev")?.as_str()?.to_string(),
            quick: doc.get("quick")?.as_bool()?,
            calibration_mops: num(doc.get("calibration_mops")?)?,
            metrics,
        })
    }
}

/// A JSON number as `f64`, whichever numeric variant it parsed into.
fn num(v: &Json) -> Option<f64> {
    match v {
        Json::F64(f) => Some(*f),
        Json::U64(u) => Some(*u as f64),
        Json::I64(i) => Some(*i as f64),
        _ => None,
    }
}

/// Metrics of `new` that regressed more than `threshold` (fractional,
/// e.g. `0.40`) against `baseline`, after normalizing `new` by the
/// calibration ratio. Only metrics present in both reports are compared,
/// so a quick run checked against a full baseline compares exactly the
/// shared microbench set. `_speedup` metrics are informational and never
/// gated: they are dimensionless ratios of two gated wall metrics, so
/// gating them would double-count their noise (and machine speed cancels
/// out of a ratio, making calibration normalization meaningless there).
#[must_use]
pub fn regressions(baseline: &PerfReport, new: &PerfReport, threshold: f64) -> Vec<String> {
    let ratio = if baseline.calibration_mops > 0.0 && new.calibration_mops > 0.0 {
        new.calibration_mops / baseline.calibration_mops
    } else {
        1.0
    };
    let mut out = Vec::new();
    for (name, old) in &baseline.metrics {
        let Some(raw) = new.metric(name) else {
            continue;
        };
        if name.ends_with("_speedup") {
            continue;
        }
        if name.ends_with("_wall_s") {
            // Lower is better; a faster machine shrinks wall time.
            let norm = raw * ratio;
            if norm > old * (1.0 + threshold) {
                out.push(format!(
                    "{name}: {norm:.3} (normalized) vs baseline {old:.3} \
                     (+{:.0}% > {:.0}% threshold)",
                    (norm / old - 1.0) * 100.0,
                    threshold * 100.0
                ));
            }
        } else {
            let norm = raw / ratio;
            if norm < old * (1.0 - threshold) {
                out.push(format!(
                    "{name}: {norm:.0} (normalized) vs baseline {old:.0} \
                     (-{:.0}% > {:.0}% threshold)",
                    (1.0 - norm / old) * 100.0,
                    threshold * 100.0
                ));
            }
        }
    }
    out
}

/// The source revision (`git rev-parse --short HEAD`), or `"dev"`.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "dev".to_string())
}

/// Runs the perf suite and returns the report (prints one line per metric
/// to stderr as it goes, so long runs show progress).
#[must_use]
pub fn run(opts: &PerfOptions) -> PerfReport {
    let iters = if opts.quick {
        opts.iters.min(3)
    } else {
        opts.iters
    }
    .max(1);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut record = |name: &str, value: f64| {
        eprintln!("[prism-bench] {name} = {value:.3}");
        metrics.push((name.to_string(), value));
    };

    // First calibration sample; a second is taken after the metric
    // section and the *slower* of the two is kept, so a contention
    // window that opens mid-run (and slows the metrics) is reflected in
    // the normalization factor instead of being misread as a regression.
    let calib_pre = calibrate();
    eprintln!("[prism-bench] calibration (pre) = {calib_pre:.1} Mops");

    // Microbench layer: identical workload and size in both modes, so a
    // quick CI run is comparable against a full checked-in baseline.
    let w = prism_workloads::by_name("stencil").expect("stencil registered");
    let program = (w.build)(800);
    let trace = prism_sim::trace(&program).expect("stencil traces");
    let n = trace.len() as f64;

    record(
        "sim_trace_insts_per_sec",
        n / bench_secs(iters, || prism_sim::trace(&program).unwrap()),
    );
    let ooo4 = CoreConfig::ooo4();
    record(
        "udg_insts_per_sec",
        n / bench_secs(iters, || simulate_trace(&trace, &ooo4)),
    );
    record(
        "transform_insts_per_sec",
        n / bench_secs(iters, || {
            prism_exocore::WorkloadData::from_trace(trace.clone())
        }),
    );

    // End-to-end exploration over the MICRO registry (best of three —
    // these sweeps are short enough that a single scheduler hiccup on a
    // shared host can swallow the CI gate).
    let micro: Vec<&Workload> = prism_workloads::MICRO.iter().collect();
    let cold = (0..3)
        .map(|_| explore_secs(&micro))
        .fold(f64::INFINITY, f64::min);
    let warm = explore_warm_secs(&micro);
    record("explore_micro_wall_s", cold);
    record("explore_micro_warm_wall_s", warm);
    record("explore_micro_warm_speedup", cold / warm.max(1e-9));

    // Full-registry exploration (the paper's 49 workloads × 64 points).
    if !opts.quick {
        let all: Vec<&Workload> = prism_workloads::ALL.iter().collect();
        let cold = explore_secs(&all);
        let warm = explore_warm_secs(&all);
        record("explore_wall_s", cold);
        record("explore_warm_wall_s", warm);
        record("explore_warm_speedup", cold / warm.max(1e-9));
    }

    let calibration_mops = calib_pre.min(calibrate());
    eprintln!("[prism-bench] calibration = {calibration_mops:.1} Mops");

    PerfReport {
        rev: git_rev(),
        quick: opts.quick,
        calibration_mops,
        metrics,
    }
}

/// Best-of wall seconds of `f`: at least `iters` runs (after one
/// warm-up) and at least half a second of sampling, keeping the fastest
/// run. The minimum is far more robust to scheduler noise on shared
/// hosts than the mean — outliers only ever slow a run down.
fn bench_secs<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    let mut done = 0u32;
    let sampling = Instant::now();
    while done < iters || sampling.elapsed().as_secs_f64() < 0.5 {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
        done += 1;
        if done >= 10_000 {
            break;
        }
    }
    best.max(1e-9)
}

/// Fresh-store, single-threaded, end-to-end exploration wall seconds over
/// `workloads` × the full 64-point grid. The session is insulated from
/// ambient env knobs so results are comparable across hosts and CI
/// configurations.
fn explore_secs(workloads: &[&Workload]) -> f64 {
    let dir = std::env::temp_dir().join(format!(
        "prism-bench-{}-{}",
        std::process::id(),
        workloads.len()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::new()
        .with_store_dir(&dir)
        .with_jobs(1)
        .with_faults(None)
        .with_budget(ExecBudget::unlimited())
        .with_store_cap(None);
    let start = Instant::now();
    let report = session.evaluate_designs(workloads, &all_cores(), &all_bsa_subsets());
    let secs = start.elapsed().as_secs_f64();
    assert!(
        report.quarantined.is_empty(),
        "bench sweep quarantined points: {:?}",
        report
            .quarantined
            .iter()
            .map(|(l, _)| l.as_str())
            .collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
    secs.max(1e-9)
}

/// Warm-store exploration wall seconds: one cold run populates
/// a fresh store, then fresh single-threaded sessions over the same
/// store repeat the sweep (best of three) — the design-result +
/// timing-artifact warm path a repeated `prism explore` or a `--resume`
/// takes, with zero trace walks.
fn explore_warm_secs(workloads: &[&Workload]) -> f64 {
    let dir = std::env::temp_dir().join(format!(
        "prism-bench-warm-{}-{}",
        std::process::id(),
        workloads.len(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let session_at = || {
        Session::new()
            .with_store_dir(&dir)
            .with_jobs(1)
            .with_faults(None)
            .with_budget(ExecBudget::unlimited())
            .with_store_cap(None)
    };
    let cold = session_at().evaluate_designs(workloads, &all_cores(), &all_bsa_subsets());
    assert!(
        cold.quarantined.is_empty(),
        "bench warm-up sweep quarantined points: {:?}",
        cold.quarantined
            .iter()
            .map(|(l, _)| l.as_str())
            .collect::<Vec<_>>()
    );
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let session = session_at();
        let start = Instant::now();
        std::hint::black_box(session.evaluate_designs(workloads, &all_cores(), &all_bsa_subsets()));
        best = best.min(start.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&dir);
    best.max(1e-9)
}

/// A fixed integer-hash spin loop measuring this machine's scalar
/// throughput in Mops (best of three samples, for the same
/// noise-robustness as [`bench_secs`]). Deterministic work, no
/// allocation — the ratio of two hosts' calibrations approximates their
/// single-thread speed ratio.
#[must_use]
pub fn calibrate() -> f64 {
    const OPS: u64 = 100_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let start = Instant::now();
        for i in 0..OPS {
            x ^= i;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 33;
        }
        std::hint::black_box(x);
        best = best.min(start.elapsed().as_secs_f64());
    }
    OPS as f64 / best / 1e6
}

/// Formats an `f64` so it round-trips through [`Parser::number`]
/// (always includes a decimal point or exponent).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Escapes a string for JSON embedding (quotes and backslashes; our
/// emitted strings contain nothing else special).
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfReport {
        PerfReport {
            rev: "abc1234".into(),
            quick: true,
            calibration_mops: 1000.0,
            metrics: vec![
                ("udg_insts_per_sec".into(), 2_000_000.0),
                ("explore_micro_wall_s".into(), 1.5),
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let r = sample();
        let parsed = PerfReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn regressions_respect_direction_and_threshold() {
        let base = sample();
        let mut new = sample();
        // Within threshold: no findings.
        assert!(regressions(&base, &new, 0.25).is_empty());
        // Throughput drop beyond 25% regresses.
        new.metrics[0].1 = 1_000_000.0;
        assert_eq!(regressions(&base, &new, 0.25).len(), 1);
        // Wall-time growth beyond 25% regresses too.
        new.metrics[0].1 = 2_000_000.0;
        new.metrics[1].1 = 3.0;
        assert_eq!(regressions(&base, &new, 0.25).len(), 1);
    }

    #[test]
    fn speedup_metrics_are_informational_not_gated() {
        let mut base = sample();
        base.metrics
            .push(("explore_micro_warm_speedup".into(), 3.0));
        let mut new = base.clone();
        new.metrics[1].1 = 3.0; // wall regression: still gated…
        new.metrics[2].1 = 1.0; // …but the derived ratio never is.
        let regs = regressions(&base, &new, 0.25);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].starts_with("explore_micro_wall_s"));
    }

    #[test]
    fn calibration_normalizes_across_machines() {
        let base = sample();
        let mut new = sample();
        // A machine half as fast: calibration and every metric halve
        // (wall time doubles) — no regression after normalization.
        new.calibration_mops = 500.0;
        new.metrics[0].1 = 1_000_000.0;
        new.metrics[1].1 = 3.0;
        assert!(regressions(&base, &new, 0.25).is_empty());
    }

    #[test]
    fn unknown_fields_and_missing_metrics_are_tolerated() {
        let text = r#"{ "schema": 1, "extra": "x", "rev": "r1",
                        "quick": false, "calibration_mops": 10.0,
                        "metrics": { "only_here": 5.0 } }"#;
        let base = PerfReport::from_json(text).expect("parses");
        assert_eq!(base.metric("only_here"), Some(5.0));
        // Comparing against a report lacking the metric finds nothing.
        assert!(regressions(&base, &sample(), 0.25).is_empty());
    }
}
