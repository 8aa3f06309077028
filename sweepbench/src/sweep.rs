//! The four sweep workloads, the insulated `Session`/`GridConfig` each
//! sweep runs under, and the checks on every sweep's output.

use std::path::Path;
use std::time::{Duration, Instant};

use prism_exocore::{
    all_bsa_subsets, all_cores, oracle_schedule, DesignPoint, DesignResult, WorkloadData,
    WorkloadMetrics,
};
use prism_grid::{run_grid, GridConfig, GridStats};
use prism_pipeline::{Session, SessionStats, SweepReport};
use prism_sim::TracerConfig;
use prism_tdg::{run_exocore, BsaKind};
use prism_udg::{CoreConfig, ExecBudget};
use prism_workloads::Workload;

use crate::digest::{digest, golden, metrics_hash};
use crate::stats::CpuTicks;

/// Threads per in-process sweep and worker processes per grid sweep: the
/// host's `nproc`, fixed so runs on any host do the same work.
pub const JOBS: usize = 2;

/// Knobs stripped from grid workers' environments. The coordinator sets
/// the worker's own `PRISM_GRID_WORKER`, `PRISM_GRID_SHARD` and
/// `PRISM_ARTIFACT_DIR` itself, so those stay.
const WORKER_ENV_STRIP: &[&str] = &[
    "PRISM_CHUNK",
    "PRISM_CRASH",
    "PRISM_DIVERGENCE",
    "PRISM_FAULTS",
    "PRISM_GRID_FAULTS",
    "PRISM_GRID_TIMEOUT_MS",
    "PRISM_HOSTS",
    "PRISM_JOBS",
    "PRISM_MAX_NODES",
    "PRISM_NET_FAULTS",
    "PRISM_NET_TOKEN",
    "PRISM_NO_COMPOSE",
    "PRISM_NO_FSYNC",
    "PRISM_NO_TIMING_CACHE",
    "PRISM_REFRESH",
    "PRISM_SCALE",
    "PRISM_STORE_CAP",
    "PRISM_STREAM",
    "PRISM_WORKERS",
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 49 workloads × 64 points, fresh store and `Session` per sweep.
    ColdFull,
    /// The 8 micro workloads × 64 points, fresh store per sweep.
    ColdMicro,
    /// The `ColdFull` space over a store filled during setup.
    WarmFull,
    /// `run_grid` with two worker processes over a warmed store of the
    /// `ColdMicro` space.
    GridWarm,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 4] = [
        Kind::ColdFull,
        Kind::ColdMicro,
        Kind::WarmFull,
        Kind::GridWarm,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdFull => "cold-full",
            Kind::ColdMicro => "cold-micro",
            Kind::WarmFull => "warm-full",
            Kind::GridWarm => "grid-warm",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether setup fills the store that every sweep then reads.
    #[must_use]
    pub fn warm(self) -> bool {
        matches!(self, Kind::WarmFull | Kind::GridWarm)
    }

    fn registry(self) -> (&'static str, &'static [Workload]) {
        match self {
            Kind::ColdMicro | Kind::GridWarm => ("micro", prism_workloads::MICRO),
            Kind::ColdFull | Kind::WarmFull => ("full", prism_workloads::ALL),
        }
    }
}

/// SplitMix64: the seed's generator for permutations and samples.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A number in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The design space of one run: a registry's workloads, the four cores
/// and the 16 BSA subsets, each list in the seed's order. Setup and every
/// sweep receive the same lists, so warm keys hit.
#[derive(Debug, Clone)]
pub struct Space {
    /// Which golden digest applies (`full` or `micro`).
    pub registry: &'static str,
    /// Workloads, permuted.
    pub workloads: Vec<&'static Workload>,
    /// Cores, permuted.
    pub cores: Vec<CoreConfig>,
    /// BSA subsets, permuted.
    pub subsets: Vec<Vec<BsaKind>>,
}

impl Space {
    /// `kind`'s space in the order `seed` picks.
    #[must_use]
    pub fn permuted(kind: Kind, seed: u64) -> Space {
        let mut rng = SplitMix64::new(seed);
        let (registry, all) = kind.registry();
        let mut workloads: Vec<&'static Workload> = all.iter().collect();
        let mut cores = all_cores();
        let mut subsets = all_bsa_subsets();
        rng.shuffle(&mut workloads);
        rng.shuffle(&mut cores);
        rng.shuffle(&mut subsets);
        Space {
            registry,
            workloads,
            cores,
            subsets,
        }
    }

    /// The space the run's `sweep`-th timed sweep (from 0) receives. A warm
    /// workload's sweeps keep setup's order so its keys hit. Each sweep of
    /// a cold workload gets its own order drawn from `seed`: with one order
    /// per run, `cold-full` medians on a 2-CPU host sat at 5.1–5.5 s for
    /// one seed and 6.3–7.0 s for two others, each over three runs, so a
    /// run's median now spans many orders instead of resting on one.
    #[must_use]
    pub fn for_sweep(kind: Kind, seed: u64, sweep: usize) -> Space {
        if kind.warm() {
            return Space::permuted(kind, seed);
        }
        let mut rng = SplitMix64::new(seed);
        let mut order = seed;
        for _ in 0..sweep {
            order = rng.next_u64();
        }
        Space::permuted(kind, order)
    }

    /// Design points per sweep.
    #[must_use]
    pub fn points(&self) -> usize {
        self.cores.len() * self.subsets.len()
    }
}

/// A session insulated from every knob: fresh store at `dir`, [`JOBS`]
/// threads, fsync as shipped, and no faults, budget, guard, streaming or
/// store cap.
#[must_use]
pub fn session(dir: &Path) -> Session {
    Session::new()
        .with_jobs(JOBS)
        .with_faults(None)
        .with_budget(ExecBudget::unlimited())
        .with_divergence_guard(None)
        .with_streaming(false)
        .with_store_cap(None)
        .with_store_dir(dir)
}

/// The grid run over `space` with [`JOBS`] local workers sharing `dir`.
#[must_use]
pub fn grid_config(space: &Space, dir: &Path) -> GridConfig {
    GridConfig {
        workers: JOBS,
        hosts: Vec::new(),
        shard_retries: 1,
        workloads: space.workloads.iter().map(|w| w.name.to_string()).collect(),
        cores: space.cores.clone(),
        subsets: space.subsets.clone(),
        max_insts: TracerConfig::default().max_insts,
        artifact_dir: dir.to_path_buf(),
        worker_cmd: None,
        heartbeat_timeout: Duration::from_secs(10),
        window: 2,
        env: Vec::new(),
        env_remove: WORKER_ENV_STRIP.iter().map(|k| (*k).to_string()).collect(),
        net_faults: Default::default(),
        resume: false,
    }
}

/// The program's own counters after one untraced sweep.
#[derive(Debug, Clone)]
pub enum Counters {
    /// From `Session::stats()`.
    Session(SessionStats),
    /// From the grid run.
    Grid(GridStats),
}

/// One untraced sweep.
#[derive(Debug)]
pub struct Outcome {
    /// The sweep's report.
    pub report: SweepReport,
    /// Wall seconds from the call until the report returned.
    pub wall_s: f64,
    /// CPU over the same interval, reaped grid workers included.
    pub cpu: CpuTicks,
    /// The program's counters.
    pub counters: Counters,
}

/// Runs one sweep of `kind`, as `prism grid` or (journaled) as
/// `prism explore` would.
///
/// # Errors
///
/// Returns the grid's error when it cannot start.
pub fn run_sweep(kind: Kind, space: &Space, store: &Path) -> Result<Outcome, String> {
    if kind != Kind::GridWarm {
        return Ok(explore(space, store));
    }
    let config = grid_config(space, store);
    let cpu0 = CpuTicks::read();
    let t0 = Instant::now();
    let out = run_grid(&config).map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = CpuTicks::read().since(&cpu0);
    Ok(Outcome {
        report: out.report,
        wall_s,
        cpu,
        counters: Counters::Grid(out.stats),
    })
}

/// One journaled `Session` sweep of `space` over the store at `store`.
#[must_use]
pub fn explore(space: &Space, store: &Path) -> Outcome {
    let cpu0 = CpuTicks::read();
    let t0 = Instant::now();
    let s = session(store);
    let report =
        s.evaluate_designs_resumable(&space.workloads, &space.cores, &space.subsets, false);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = CpuTicks::read().since(&cpu0);
    Outcome {
        report,
        wall_s,
        cpu,
        counters: Counters::Session(s.stats()),
    }
}

/// The output check of one sweep.
#[derive(Debug, Clone)]
pub struct Check {
    /// The results' digest.
    pub digest: String,
    /// Units that failed: the quarantined ones, or every unit of the
    /// sweep when the digest differs from the golden one.
    pub failed: usize,
}

/// Checks `results` against the golden digest of `space`'s registry.
#[must_use]
pub fn check(results: &[DesignResult], quarantined: usize, space: &Space) -> Check {
    let digest = digest(results);
    let failed = if golden(space.registry) == Some(digest.as_str()) {
        quarantined
    } else {
        space.points()
    };
    Check { digest, failed }
}

/// Recomputes a seeded sample of `samples` (point, workload) pairs of
/// `results` directly — fresh preparation, `oracle_schedule`, and a full
/// `run_exocore` — and compares each against the sweep's metrics bit for
/// bit.
///
/// # Errors
///
/// Describes the first pair that differs or cannot be recomputed.
pub fn spot_check(
    space: &Space,
    results: &[DesignResult],
    seed: u64,
    samples: usize,
) -> Result<(), String> {
    if results.is_empty() {
        return Err("spot check: the sweep returned no results".into());
    }
    let mut rng = SplitMix64::new(seed ^ 0x5EED_5EED_5EED_5EED);
    for _ in 0..samples {
        let r = &results[rng.below(results.len())];
        let got = &r.per_workload[rng.below(r.per_workload.len())];
        let pair = format!("{} at {}", got.workload, r.label);
        let w = space
            .workloads
            .iter()
            .find(|w| w.name == got.workload)
            .ok_or_else(|| format!("spot check {pair}: unknown workload"))?;
        let base = space
            .cores
            .iter()
            .find(|c| c.name == r.core)
            .ok_or_else(|| format!("spot check {pair}: unknown core"))?;
        let bsas: Vec<BsaKind> = r
            .bsas
            .chars()
            .map(|c| BsaKind::ALL.iter().copied().find(|b| b.code() == c))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("spot check {pair}: unknown BSA code"))?;
        let point = DesignPoint::new(base.clone(), bsas);
        let data = WorkloadData::prepare_with(&(w.build)(w.scaled_n()), &TracerConfig::default())
            .map_err(|e| format!("spot check {pair}: {e}"))?;
        let assignment = oracle_schedule(&data, base, &point.bsas);
        let run = run_exocore(
            &data.trace,
            &data.ir,
            &point.core,
            &data.plans,
            &assignment,
            &point.bsas,
        );
        let want = WorkloadMetrics::from_run(&run, &data.name);
        if metrics_hash(&want) != metrics_hash(got) {
            return Err(format!(
                "spot check {pair}: sweep result differs from direct recomputation"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_depends_only_on_the_seed() {
        let a = Space::permuted(Kind::ColdFull, 7);
        let b = Space::permuted(Kind::ColdFull, 7);
        let c = Space::permuted(Kind::ColdFull, 8);
        let names = |s: &Space| s.workloads.iter().map(|w| w.name).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        assert_ne!(names(&a), names(&c));
        assert_eq!(a.points(), 64);
        let mut sorted = names(&c);
        sorted.sort_unstable();
        let mut registry: Vec<&str> = prism_workloads::ALL.iter().map(|w| w.name).collect();
        registry.sort_unstable();
        assert_eq!(sorted, registry, "a permutation keeps every workload");
    }

    #[test]
    fn cold_sweeps_vary_the_order_and_warm_sweeps_keep_setups() {
        let names = |s: &Space| s.workloads.iter().map(|w| w.name).collect::<Vec<_>>();
        let setup = Space::permuted(Kind::GridWarm, 5);
        for i in 0..4 {
            assert_eq!(names(&Space::for_sweep(Kind::GridWarm, 5, i)), names(&setup));
        }
        let cold: Vec<Vec<&str>> = (0..4)
            .map(|i| names(&Space::for_sweep(Kind::ColdFull, 5, i)))
            .collect();
        assert_eq!(cold[0], names(&Space::permuted(Kind::ColdFull, 5)));
        assert_ne!(cold[1], cold[2], "each cold sweep gets its own order");
        assert_eq!(
            cold[3],
            names(&Space::for_sweep(Kind::ColdFull, 5, 3)),
            "orders depend only on the seed and the sweep"
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("hot"), None);
    }
}
