//! Deterministic fault injection: one plan, one grammar, every layer.
//!
//! A [`FaultPlan`] describes which faults to inject and where, seeded so
//! a failing run can be replayed exactly. Plans parse from the
//! `PRISM_FAULTS` environment variable (or any string with the same
//! grammar), comma-separated entries:
//!
//! ```text
//! PRISM_FAULTS=store-io:0.05,stage-panic:trace:1,die:0@1,crash:grid-frame@20,seed=42
//! ```
//!
//! | entry | fires | read by |
//! |---|---|---|
//! | `store-io:P` | store reads/writes fail with probability `P` | `Session` / `ArtifactStore` |
//! | `artifact-corrupt:P` | loaded artifact bytes are corrupted with probability `P` | `Session` / `ArtifactStore` |
//! | `trace-truncate:P` | the tracer reports a truncated trace with probability `P` | `Session` |
//! | `stage-panic:<stage>:<n>` | the stage's first `n` entries panic | `Session` |
//! | `die`/`hang`/`quarantine:<shard>@<n>` | grid worker `<shard>` when it starts unit `n` (0-based) | grid worker |
//! | `drop`/`delay`/`disconnect:<shard>@<n>` | the coordinator's link to `<shard>`, inbound frame `n` (0-based, across reconnects) | TCP link |
//! | `crash:<site>@<n>` | exit 137 at the `n`-th hit (1-based) of a [`crate::crash`] site | [`crate::crash_point`] |
//! | `seed=N` | seeds the probability rolls | — |
//!
//! `<stage>` is one of `build`, `trace`, `analyze`, `plan`, `evaluate`,
//! `store`. Each consumer reads only its own kinds, so a plan holding
//! only worker, link or crash entries leaves a `Session` untouched.
//!
//! Probability rolls are a pure function of `(seed, site)` — the *site*
//! string names the decision point (e.g. `load:3fa92c1b:try0`) — so
//! outcomes do not depend on thread interleaving and a parallel sweep
//! injects the same faults as a sequential one.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::crash::CRASH_SITES;
use crate::error::Stage;

/// Environment variable holding the fault plan ([`crate::Config::faults`]).
pub const FAULTS_ENV: &str = "PRISM_FAULTS";

/// Message prefix for every injected panic, so caught panics are
/// attributable to the plan rather than to a real bug.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// A malformed `PRISM_FAULTS` spec: names the offending entry and why it
/// was rejected. Returned (never panicked) by [`FaultPlan::parse`] so
/// front-ends can surface the problem with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    /// The entry that failed to parse.
    pub spec: String,
    /// Why it was rejected.
    pub reason: String,
}

impl FaultSpecError {
    fn new(spec: impl Into<String>, reason: impl Into<String>) -> Self {
        FaultSpecError {
            spec: spec.into(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec `{}`: {}", self.spec, self.reason)
    }
}

impl std::error::Error for FaultSpecError {}

/// What an injected fault does to a grid worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Exit the worker process immediately (no result, no `Bye`).
    Die,
    /// Stop heartbeating and stall forever.
    Hang,
    /// Quarantine the unit without evaluating it.
    Quarantine,
}

/// What an injected fault does to the coordinator's link to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// Discard the frame, then cut the connection.
    Drop,
    /// Deliver the frame late.
    Delay,
    /// Deliver the frame, then cut the connection.
    Disconnect,
}

/// A seeded, deterministic fault-injection plan.
///
/// Shared via `Arc` (counted faults are atomics, so the plan itself is
/// not `Clone`).
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    store_io: f64,
    artifact_corrupt: f64,
    trace_truncate: f64,
    stage_panics: Vec<Countdown<Stage>>,
    crashes: Vec<Countdown<&'static str>>,
    worker: Vec<(WorkerFault, usize, u64)>,
    link: Vec<(LinkFault, usize, u64)>,
}

/// A counted fault: `key` names where it fires, `remaining` counts its
/// hits down to zero.
#[derive(Debug)]
struct Countdown<K> {
    key: K,
    remaining: AtomicU64,
}

impl<K> Countdown<K> {
    fn new(key: K, n: u64) -> Self {
        Countdown {
            key,
            remaining: AtomicU64::new(n),
        }
    }

    /// Counts one hit, returning how many remained before it (0 once
    /// exhausted). `Relaxed` suffices: the counter publishes no other
    /// data, and read-modify-writes of one atomic are totally ordered, so
    /// exactly one hit sees each count.
    fn tick(&self) -> u64 {
        self.remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .unwrap_or(0)
    }
}

/// splitmix64: tiny, high-quality 64-bit mixer (public-domain algorithm).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site string: cheap, stable site identity.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Parses the `<target>@<n>` tail of a worker, link or crash entry.
fn at_event<'a>(entry: &str, args: &'a str) -> Result<(&'a str, u64), FaultSpecError> {
    let (target, n) = args
        .split_once('@')
        .ok_or_else(|| FaultSpecError::new(entry, "expected <kind>:<target>@<n>"))?;
    let n = n
        .trim()
        .parse()
        .map_err(|e| FaultSpecError::new(entry, format!("bad event count: {e}")))?;
    Ok((target.trim(), n))
}

/// Parses the shard of a `<kind>:<shard>@<n>` entry.
fn shard_event(entry: &str, args: &str) -> Result<(usize, u64), FaultSpecError> {
    let (shard, n) = at_event(entry, args)?;
    let shard = shard
        .parse()
        .map_err(|e| FaultSpecError::new(entry, format!("bad shard: {e}")))?;
    Ok((shard, n))
}

impl FaultPlan {
    /// Parses a plan from its textual form (the `PRISM_FAULTS` grammar).
    ///
    /// # Errors
    ///
    /// Returns a typed [`FaultSpecError`] naming the first malformed
    /// entry: out-of-range or non-numeric numbers, unknown kinds, stages
    /// or crash sites, a stale `@seed` suffix, and plans with no faults
    /// at all are rejected rather than silently producing an inert plan.
    pub fn parse(text: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::default();
        let mut faults = 0usize;
        for entry in text.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            if entry.contains("@seed") {
                return Err(FaultSpecError::new(
                    entry,
                    "stale `@seed` suffix: the seed is its own entry (`…,seed=N`)",
                ));
            }
            if let Some(value) = entry.strip_prefix("seed") {
                plan.seed = value
                    .strip_prefix('=')
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or_else(|| FaultSpecError::new(entry, "expected seed=N"))?;
                continue;
            }
            faults += 1;
            let (kind, args) = entry.split_once(':').unwrap_or((entry, ""));
            match kind {
                "store-io" | "artifact-corrupt" | "trace-truncate" => {
                    let p = args
                        .parse::<f64>()
                        .map_err(|e| FaultSpecError::new(entry, format!("bad probability: {e}")))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(FaultSpecError::new(
                            entry,
                            format!("probability {p} outside [0, 1]"),
                        ));
                    }
                    match kind {
                        "store-io" => plan.store_io = p,
                        "artifact-corrupt" => plan.artifact_corrupt = p,
                        _ => plan.trace_truncate = p,
                    }
                }
                "stage-panic" => {
                    let (stage, count) = args
                        .split_once(':')
                        .ok_or_else(|| FaultSpecError::new(entry, "expected <stage>:<count>"))?;
                    let stage = stage
                        .parse::<Stage>()
                        .map_err(|e| FaultSpecError::new(entry, e))?;
                    let count = count
                        .parse()
                        .map_err(|e| FaultSpecError::new(entry, format!("bad count: {e}")))?;
                    plan.stage_panics.push(Countdown::new(stage, count));
                }
                "die" | "hang" | "quarantine" => {
                    let (shard, n) = shard_event(entry, args)?;
                    let fault = match kind {
                        "die" => WorkerFault::Die,
                        "hang" => WorkerFault::Hang,
                        _ => WorkerFault::Quarantine,
                    };
                    plan.worker.push((fault, shard, n));
                }
                "drop" | "delay" | "disconnect" => {
                    let (shard, n) = shard_event(entry, args)?;
                    let fault = match kind {
                        "drop" => LinkFault::Drop,
                        "delay" => LinkFault::Delay,
                        _ => LinkFault::Disconnect,
                    };
                    plan.link.push((fault, shard, n));
                }
                "crash" => {
                    let (site, n) = at_event(entry, args)?;
                    let site = CRASH_SITES
                        .into_iter()
                        .find(|s| *s == site)
                        .ok_or_else(|| {
                            FaultSpecError::new(
                                entry,
                                format!(
                                    "unknown crash site `{site}` (expected one of {})",
                                    CRASH_SITES.join(", ")
                                ),
                            )
                        })?;
                    if n == 0 {
                        return Err(FaultSpecError::new(entry, "hit count must be >= 1"));
                    }
                    plan.crashes.push(Countdown::new(site, n));
                }
                _ => {
                    return Err(FaultSpecError::new(
                        entry,
                        format!("unknown fault `{kind}`"),
                    ))
                }
            }
        }
        if faults == 0 {
            return Err(FaultSpecError::new(
                text.trim(),
                "empty fault spec (name at least one fault, or unset the variable)",
            ));
        }
        Ok(plan)
    }

    /// A builder-style empty plan with an explicit seed, for tests.
    #[must_use]
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the store-I/O failure probability.
    #[must_use]
    pub fn with_store_io(mut self, p: f64) -> Self {
        self.store_io = p;
        self
    }

    /// Sets the artifact-corruption probability.
    #[must_use]
    pub fn with_artifact_corrupt(mut self, p: f64) -> Self {
        self.artifact_corrupt = p;
        self
    }

    /// Sets the trace-truncation probability.
    #[must_use]
    pub fn with_trace_truncate(mut self, p: f64) -> Self {
        self.trace_truncate = p;
        self
    }

    /// Adds a stage-panic fault: the first `count` entries to `stage`
    /// panic.
    #[must_use]
    pub fn with_stage_panic(mut self, stage: Stage, count: u64) -> Self {
        self.stage_panics.push(Countdown::new(stage, count));
        self
    }

    /// Deterministic roll in `[0, 1)` for `site`.
    fn roll(&self, site: &str) -> f64 {
        let bits = splitmix64(self.seed ^ fnv1a(site));
        // Take the top 53 bits for a uniform double in [0, 1).
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Should the store-I/O operation at `site` fail?
    #[must_use]
    pub fn store_io_error(&self, site: &str) -> bool {
        self.store_io > 0.0 && self.roll(site) < self.store_io
    }

    /// Should the artifact loaded at `site` be corrupted?
    #[must_use]
    pub fn corrupt_artifact(&self, site: &str) -> bool {
        self.artifact_corrupt > 0.0 && self.roll(site) < self.artifact_corrupt
    }

    /// Should the trace produced at `site` come back truncated?
    #[must_use]
    pub fn truncate_trace(&self, site: &str) -> bool {
        self.trace_truncate > 0.0 && self.roll(site) < self.trace_truncate
    }

    /// Entry hook for `stage`: panics (with [`INJECTED_PANIC_PREFIX`])
    /// while the stage's configured panic count lasts.
    ///
    /// # Panics
    ///
    /// By design, while injected panics remain for `stage`.
    pub fn maybe_panic(&self, stage: Stage, site: &str) {
        for sp in self.stage_panics.iter().filter(|sp| sp.key == stage) {
            if sp.tick() > 0 {
                panic!("{INJECTED_PANIC_PREFIX} {stage} stage panic at {site}");
            }
        }
    }

    /// Counts one hit of crash `site`: true exactly at the `n`-th hit of
    /// a `crash:<site>@<n>` entry (the process should then exit).
    #[must_use]
    pub(crate) fn crash_due(&self, site: &str) -> bool {
        self.crashes
            .iter()
            .filter(|c| c.key == site)
            .any(|c| c.tick() == 1)
    }

    /// The worker fault (if any) that fires when grid worker `shard`
    /// starts its `started`-th unit (0-based).
    #[must_use]
    pub fn worker_fault(&self, shard: usize, started: u64) -> Option<WorkerFault> {
        self.worker
            .iter()
            .find(|&&(_, s, n)| s == shard && n == started)
            .map(|&(fault, _, _)| fault)
    }

    /// The link fault (if any) that fires on the coordinator's link to
    /// `shard` at its `frame`-th inbound frame (0-based).
    #[must_use]
    pub fn link_fault(&self, shard: usize, frame: u64) -> Option<LinkFault> {
        self.link
            .iter()
            .find(|&&(_, s, n)| s == shard && n == frame)
            .map(|&(fault, _, _)| fault)
    }

    /// Deterministically mutates artifact text to simulate on-disk
    /// corruption: flips a byte in the middle of the payload.
    #[must_use]
    pub fn corrupt_text(&self, site: &str, text: &str) -> String {
        let mut bytes = text.as_bytes().to_vec();
        if bytes.is_empty() {
            return "\u{0}".into();
        }
        let idx = (splitmix64(self.seed ^ fnv1a(site) ^ 0xC0DE) as usize) % bytes.len();
        bytes[idx] ^= 0x5A;
        // Re-encode leniently: invalid UTF-8 becomes replacement chars,
        // which is exactly the kind of garbage a torn write produces.
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_example() {
        let plan = FaultPlan::parse(
            "store-io:0.05,artifact-corrupt:0.02,stage-panic:trace:1,die:0@1,\
             crash:grid-frame@20,seed=42",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert!((plan.store_io - 0.05).abs() < 1e-12);
        assert!((plan.artifact_corrupt - 0.02).abs() < 1e-12);
        assert_eq!(plan.stage_panics.len(), 1);
        assert_eq!(plan.stage_panics[0].key, Stage::Trace);
        assert_eq!(plan.worker_fault(0, 1), Some(WorkerFault::Die));
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!(FaultPlan::parse("store-io:0.5").unwrap().seed, 0);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "store-io",
            "store-io:2.0",
            "stage-panic:warp:1",
            "stage-panic:trace",
            "flux-capacitor:0.5",
            "store-io:0.1:extra",
            // A stray `@` is no longer an option separator.
            "store-io:0.5@",
            "store-io:0.1@velocity=88",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn malformed_probabilities_return_typed_errors() {
        // Negative, above 1, non-numeric, empty — all typed errors that
        // name the offending spec, never a panic or a silently-empty plan.
        for bad in [
            "store-io:-0.1",
            "store-io:1.5",
            "artifact-corrupt:lots",
            "trace-truncate:",
            "store-io:inf",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(
                bad.starts_with(&err.spec),
                "error spec `{}` should name `{bad}`",
                err.spec
            );
            assert!(err.to_string().contains("bad fault spec"), "{err}");
        }
        // NaN parses as a float but fails the range check.
        assert!(FaultPlan::parse("store-io:NaN").is_err());
    }

    #[test]
    fn unknown_fault_kinds_name_the_kind() {
        let err = FaultPlan::parse("bitflip:0.5").unwrap_err();
        assert!(err.reason.contains("unknown fault `bitflip`"), "{err}");
    }

    #[test]
    fn malformed_seed_options_are_typed_errors() {
        // `seed` without a value, `seed=` with an empty one, and a
        // non-numeric seed are all rejected with the entry named.
        for bad in [
            "store-io:0.5,seed",
            "store-io:0.5,seed=",
            "store-io:0.5,seed=x",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.spec.starts_with("seed"), "{bad}: {err:?}");
        }
    }

    #[test]
    fn a_stale_seed_suffix_never_parses_silently() {
        // The retired `@seed` suffix form must fail loudly, never parse
        // into a plan with a different seed (or none). Spelled in halves,
        // so the retired form appears nowhere else in the tree.
        for stale in [
            concat!("store-io:0.1,artifact-corrupt:0.1@", "seed=7"),
            concat!("stage-panic:evaluate:2@", "seed=42"),
            concat!("die:0@1@", "seed=3"),
            concat!("@", "seed=5"),
        ] {
            let err = FaultPlan::parse(stale).expect_err(stale);
            assert!(err.reason.contains("stale"), "{stale}: {err}");
        }
    }

    #[test]
    fn empty_specs_are_rejected_not_silently_inert() {
        // A plan that configures nothing would make a chaos run look
        // healthy; parse refuses it (the config treats an unset or blank
        // variable as "no plan" before ever calling parse). A seed alone is no fault.
        for empty in ["", "   ", ",", " , ,", "seed=5", " seed=5 , "] {
            let err = FaultPlan::parse(empty).expect_err(empty);
            assert!(err.reason.contains("empty fault spec"), "{empty}: {err}");
        }
    }

    #[test]
    fn parses_multi_fault_specs() {
        let plan = FaultPlan::parse("die:0@1, hang:2@0 ,quarantine:1@3").unwrap();
        assert_eq!(plan.worker_fault(0, 1), Some(WorkerFault::Die));
        assert_eq!(plan.worker_fault(2, 0), Some(WorkerFault::Hang));
        assert_eq!(plan.worker_fault(1, 3), Some(WorkerFault::Quarantine));
        assert_eq!(plan.worker_fault(0, 0), None);
        assert_eq!(plan.worker_fault(3, 1), None);
        // Worker entries are not link entries, and vice versa.
        assert_eq!(plan.link_fault(0, 1), None);

        let plan = FaultPlan::parse("drop:0@3, delay:1@2 ,disconnect:1@5").unwrap();
        assert_eq!(plan.link_fault(0, 3), Some(LinkFault::Drop));
        assert_eq!(plan.link_fault(1, 2), Some(LinkFault::Delay));
        assert_eq!(plan.link_fault(1, 5), Some(LinkFault::Disconnect));
        assert_eq!(plan.link_fault(0, 0), None);
        assert_eq!(plan.link_fault(2, 3), None);
        assert_eq!(plan.worker_fault(0, 3), None);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "die",
            "die:0",
            "die:x@1",
            "die:0@x",
            "explode:0@1",
            "die:0@1,hang",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in ["drop", "drop:0", "drop:x@1", "disconnect:0@-1"] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert_eq!(err.spec, bad);
        }
        let err = FaultPlan::parse("sever:0@1").unwrap_err();
        assert_eq!(err.spec, "sever:0@1");
        assert!(err.reason.contains("unknown fault `sever`"), "{err}");
    }

    #[test]
    fn default_plan_is_empty() {
        let plan = FaultPlan::default();
        assert_eq!(plan.worker_fault(0, 0), None);
        assert_eq!(plan.link_fault(0, 0), None);
        assert!(!plan.crash_due(crate::crash::SITE_STORE_PUT));
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::default();
        for i in 0..100 {
            let site = format!("site{i}");
            assert!(!plan.store_io_error(&site));
            assert!(!plan.corrupt_artifact(&site));
            assert!(!plan.truncate_trace(&site));
        }
        plan.maybe_panic(Stage::Trace, "anywhere"); // must not panic
    }

    #[test]
    fn rolls_are_deterministic_and_site_dependent() {
        let a = FaultPlan::seeded(7).with_store_io(0.5);
        let b = FaultPlan::seeded(7).with_store_io(0.5);
        let mut hits = 0;
        let mut diverged = false;
        for i in 0..200 {
            let site = format!("load:{i}");
            assert_eq!(a.store_io_error(&site), b.store_io_error(&site));
            hits += u32::from(a.store_io_error(&site));
            if a.store_io_error(&site) != a.store_io_error(&format!("save:{i}")) {
                diverged = true;
            }
        }
        // p=0.5 over 200 sites: both outcomes must occur, and distinct
        // sites must not be lock-stepped.
        assert!(hits > 50 && hits < 150, "hits = {hits}");
        assert!(diverged, "distinct sites always rolled identically");
    }

    #[test]
    fn different_seeds_give_different_outcomes() {
        let a = FaultPlan::seeded(1).with_store_io(0.5);
        let b = FaultPlan::seeded(2).with_store_io(0.5);
        let differs = (0..100).any(|i| {
            let site = format!("s{i}");
            a.store_io_error(&site) != b.store_io_error(&site)
        });
        assert!(differs);
    }

    #[test]
    fn stage_panic_fires_exactly_count_times() {
        let plan = FaultPlan::seeded(0).with_stage_panic(Stage::Evaluate, 2);
        for i in 0..2 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.maybe_panic(Stage::Evaluate, "pt");
            }));
            assert!(r.is_err(), "panic {i} did not fire");
        }
        plan.maybe_panic(Stage::Evaluate, "pt"); // exhausted: no panic
        plan.maybe_panic(Stage::Trace, "pt"); // other stages unaffected
    }

    #[test]
    fn corrupt_text_changes_the_payload_deterministically() {
        let plan = FaultPlan::seeded(9);
        let original = "{\"schema\":1,\"payload\":42}";
        let c1 = plan.corrupt_text("site", original);
        let c2 = plan.corrupt_text("site", original);
        assert_eq!(c1, c2);
        assert_ne!(c1, original);
    }
}
