//! `prism` — command-line front end to the modeling framework.
//!
//! ```text
//! prism list                          list registered workloads
//! prism run <workload> [options]      model one workload
//!     --core IO2|OOO2|OOO4|OOO6       host core          (default OOO2)
//!     --bsa  <subset of SDNT>|none    BSAs present       (default SDNT)
//!     --scheduler oracle|amdahl       BSA selection      (default oracle)
//!     -n <size>                       problem size       (default per workload)
//! prism compare <workload>            4 cores × {bare, full ExoCore}
//! prism explore [--stats] [--resume]  full 64-point design space (cached)
//! prism grid [options]                the same sweep on worker processes
//!     --workers N                     local worker fleet size (default 2,
//!                                     or 0 with --hosts)
//!     --hosts host:port,...           remote worker daemons
//!     --shard-retries K               cross-shard retries per unit (default 1)
//!     --stats                         print the config line + grid counters
//!     --resume                        replay the sweep journal, skip settled units
//! prism worker --listen <host:port>   serve grid workers over TCP (daemon);
//!     [--store PATH]                  shared secret via PRISM_NET_TOKEN
//!     [--store-cap BYTES]             LRU byte cap on the daemon store
//!                                     (default PRISM_STORE_CAP; 0 = unbounded)
//! prism fsck [--dir PATH]             check/repair an artifact store
//!                                     (quarantines corrupt artifacts, GCs orphan
//!                                     tmp files and stale journals; exit 1 on
//!                                     corruption)
//! prism bench [options]               perf microbench suite (BENCH_<rev>.json)
//!     --quick                         microbenches + MICRO-registry explore only
//!     --iters N                       iterations per microbench (default 10)
//!     --out PATH                      report path (default BENCH_<rev>.json)
//!     --compare PATH                  fail (exit 1) on >40% regression vs PATH
//!
//! Global options: --jobs N            worker threads (default: PRISM_JOBS
//!                                     or hardware parallelism)
//! ```
//!
//! `--stats` on `explore` and `grid` prints the resolved config as one
//! `config` line on stderr, then the run's counters.
//!
//! Every `PRISM_*` knob and the global flags are resolved once, at the
//! top of `main`, into a `prism_pipeline::Config`; an unknown knob or a
//! malformed value prints `error: …` and exits 2 before any work. All
//! preparation runs through the `prism-pipeline` session, so repeated
//! invocations reuse the content-addressed artifact store; `prism grid`
//! shares that store across its worker fleet and produces output
//! byte-identical to `prism explore`.

use prism::exocore::{
    all_cores, amdahl_schedule, bsas_by_codes, core_by_name, oracle_schedule, DesignResult,
};
use prism::grid::{run_grid, GridConfig};
use prism::pipeline::{Config, PreparedWorkload, Session, SweepReport};
use prism::tdg::{run_exocore, BsaKind, ExecUnit};
use prism::udg::{simulate_trace, CoreConfig};

fn main() {
    // Worker mode: the grid coordinator re-invokes this binary with
    // PRISM_GRID_WORKER=1; stdout then carries the wire protocol, so
    // nothing may print before this check.
    prism::grid::run_worker_if_env();

    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let config = match Config::from_args(&mut args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&Session::from_config(&config), &args[1..]),
        Some("compare") => cmd_compare(&Session::from_config(&config), &args[1..]),
        Some("explore") => cmd_explore(&config),
        Some("grid") => cmd_grid(&config, &args[1..]),
        Some("worker") => cmd_worker(config, &args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("fsck") => cmd_fsck(&config, &args[1..]),
        _ => {
            eprintln!(
                "usage: prism <list|run|compare|explore|grid|worker|bench|fsck> [args]   (see --help in the source header)"
            );
            2
        }
    };
    std::process::exit(code);
}

/// The `explore`/`grid` result table (stdout; identical for both paths).
fn print_results_table(results: &[DesignResult]) {
    println!("{:<12} {:>8} {:>12}", "label", "area", "workloads");
    for r in results {
        println!(
            "{:<12} {:>8.2} {:>12}",
            r.label,
            r.area_mm2,
            r.per_workload.len()
        );
    }
}

fn finish_sweep(report: &SweepReport) -> i32 {
    print_results_table(&report.results);
    if let Some(summary) = report.failure_summary() {
        eprint!("{summary}");
    }
    report.exit_code()
}

fn cmd_explore(config: &Config) -> i32 {
    if config.stats {
        eprint!("{}", config.render());
    }
    // The CLI sweep always journals, so a killed `prism explore` can be
    // finished with `prism explore --resume`.
    let session = Session::from_config(config);
    let report = session.full_design_space_resumable(config.resume);
    let code = finish_sweep(&report);
    session.log_stats();
    if config.stats {
        eprint!("{}", session.stats().render());
    }
    code
}

fn cmd_fsck(config: &Config, args: &[String]) -> i32 {
    use prism::pipeline::run_fsck;

    let mut dir = config.artifact_dir.clone();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--dir" => match it.next() {
                Some(v) => dir = v.into(),
                None => {
                    eprintln!("error: --dir needs a path");
                    return 2;
                }
            },
            other => {
                eprintln!("error: unknown flag {other} (usage: prism fsck [--dir PATH])");
                return 2;
            }
        }
    }
    match run_fsck(&dir) {
        Ok(report) => {
            print!("{}", report.render(&dir));
            i32::from(!report.is_clean())
        }
        Err(e) => {
            eprintln!("error: fsck {}: {e}", dir.display());
            1
        }
    }
}

fn cmd_bench(args: &[String]) -> i32 {
    use prism::bench::perf::{regressions, run, PerfOptions, PerfReport};

    let mut opts = PerfOptions::default();
    let mut out: Option<String> = None;
    let mut compare: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--iters" => match it.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(v) => opts.iters = v.max(1),
                None => {
                    eprintln!("error: --iters needs a number");
                    return 2;
                }
            },
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => {
                    eprintln!("error: --out needs a path");
                    return 2;
                }
            },
            "--compare" => match it.next() {
                Some(v) => compare = Some(v.clone()),
                None => {
                    eprintln!("error: --compare needs a path");
                    return 2;
                }
            },
            other => {
                eprintln!(
                    "error: unknown flag {other} (usage: prism bench [--quick] [--iters N] [--out PATH] [--compare PATH])"
                );
                return 2;
            }
        }
    }

    let report = run(&opts);
    println!("{:<32} {:>16}", "metric", "value");
    println!(
        "{:<32} {:>16.1}",
        "calibration_mops", report.calibration_mops
    );
    for (name, value) in &report.metrics {
        println!("{name:<32} {value:>16.3}");
    }

    let path = out.unwrap_or_else(|| format!("BENCH_{}.json", report.rev));
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("error: cannot write {path}: {e}");
        return 1;
    }
    eprintln!("[prism-bench] wrote {path}");

    if let Some(baseline_path) = compare {
        let Ok(text) = std::fs::read_to_string(&baseline_path) else {
            eprintln!("error: cannot read baseline {baseline_path}");
            return 1;
        };
        let Some(baseline) = PerfReport::from_json(&text) else {
            eprintln!("error: baseline {baseline_path} is not a perf report");
            return 1;
        };
        // 40 %: wide enough that best-of sampling plus calibration
        // absorbs shared-runner noise, far below the 2×+ a real
        // timing-memo/hot-loop regression would show.
        let regs = regressions(&baseline, &report, 0.40);
        if regs.is_empty() {
            eprintln!(
                "[prism-bench] no regressions vs {baseline_path} (rev {})",
                baseline.rev
            );
        } else {
            for r in &regs {
                eprintln!("[prism-bench] REGRESSION {r}");
            }
            return 1;
        }
    }
    0
}

fn cmd_grid(config: &Config, args: &[String]) -> i32 {
    use prism::net::parse_hosts;

    let mut workers: Option<usize> = None;
    let mut shard_retries = 1usize;
    let mut hosts_arg: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = |v: Option<&String>| {
            v.cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
                .and_then(|v| v.parse::<usize>().map_err(|e| format!("bad {flag}: {e}")))
        };
        match flag.as_str() {
            "--workers" => match value(it.next()) {
                Ok(v) => workers = Some(v),
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            },
            "--shard-retries" => match value(it.next()) {
                Ok(v) => shard_retries = v,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            },
            "--hosts" => match it.next() {
                Some(v) => hosts_arg = Some(v.clone()),
                None => {
                    eprintln!("error: --hosts needs a host:port list");
                    return 2;
                }
            },
            other => {
                eprintln!("error: unknown flag {other} (usage: prism grid [--workers N] [--hosts host:port,...] [--shard-retries K] [--stats] [--resume])");
                return 2;
            }
        }
    }
    let hosts = match &hosts_arg {
        Some(text) => match parse_hosts(text) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error: --hosts: {e}");
                return 2;
            }
        },
        None => Vec::new(),
    };
    // With remote hosts configured, an unstated worker count means "all
    // remote": spawning local shards must be asked for explicitly.
    let workers = workers.unwrap_or(if hosts.is_empty() { 2 } else { 0 });
    let mut grid = GridConfig::full_space(workers, config);
    grid.hosts = hosts;
    grid.shard_retries = shard_retries;
    grid.resume = config.resume;
    if config.stats {
        eprint!("{}", config.render());
    }
    match run_grid(&grid) {
        Ok(outcome) => {
            let code = finish_sweep(&outcome.report);
            if config.stats {
                eprint!("{}", outcome.stats.render());
            }
            code
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn cmd_worker(mut config: Config, args: &[String]) -> i32 {
    use prism::net::NET_TOKEN_ENV;

    let mut listen: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--listen" => match it.next() {
                Some(v) => listen = Some(v.clone()),
                None => {
                    eprintln!("error: --listen needs a host:port address");
                    return 2;
                }
            },
            "--store" => match it.next() {
                Some(v) => config.artifact_dir = v.into(),
                None => {
                    eprintln!("error: --store needs a path");
                    return 2;
                }
            },
            "--store-cap" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => config.store_cap = (v > 0).then_some(v),
                _ => {
                    eprintln!("error: --store-cap needs a byte count (0 disables the cap)");
                    return 2;
                }
            },
            other => {
                eprintln!(
                    "error: unknown flag {other} (usage: prism worker --listen <host:port> [--store PATH] [--store-cap BYTES])"
                );
                return 2;
            }
        }
    }
    let Some(addr) = listen else {
        eprintln!("usage: prism worker --listen <host:port> [--store PATH] [--store-cap BYTES]");
        return 2;
    };
    let listener = match std::net::TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot listen on {addr}: {e}");
            return 1;
        }
    };
    let bound = listener
        .local_addr()
        .map_or_else(|_| addr.clone(), |a| a.to_string());
    // The listening line goes to stderr: stdout stays free in case the
    // daemon is ever composed into a pipeline.
    eprintln!("[prism-net] listening on {bound}");
    if config.net_token.is_empty() {
        eprintln!("[prism-net] warning: {NET_TOKEN_ENV} unset — accepting unauthenticated peers");
    }
    if let Some(cap) = config.store_cap {
        eprintln!("[prism-net] store cap: {cap} bytes (LRU eviction)");
    }
    prism::grid::serve_tcp(listener, config)
}

fn cmd_list() -> i32 {
    println!("{:<14} {:<11} {:<12} default-n", "name", "suite", "class");
    for w in prism::workloads::ALL {
        println!(
            "{:<14} {:<11} {:<12} {}",
            w.name,
            w.suite.name(),
            format!("{:?}", w.class()),
            w.default_n
        );
    }
    println!(
        "\n({} workloads; microbenchmarks: prism::workloads::MICRO)",
        prism::workloads::ALL.len()
    );
    0
}

struct RunOpts {
    workload: String,
    core: CoreConfig,
    bsas: Vec<BsaKind>,
    scheduler: String,
    n: Option<u32>,
}

fn parse_run_opts(args: &[String]) -> Result<RunOpts, String> {
    let mut it = args.iter();
    let workload = it.next().ok_or("missing workload name")?.clone();
    let mut opts = RunOpts {
        workload,
        core: CoreConfig::ooo2(),
        bsas: BsaKind::ALL.to_vec(),
        scheduler: "oracle".into(),
        n: None,
    };
    while let Some(flag) = it.next() {
        let mut take = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--core" => {
                let v = take()?;
                opts.core = core_by_name(&v).ok_or(format!("unknown core {v}"))?;
            }
            "--bsa" => {
                let v = take()?;
                opts.bsas = if v.eq_ignore_ascii_case("none") {
                    Vec::new()
                } else {
                    bsas_by_codes(&v).ok_or(format!("bad BSA set {v}"))?
                };
            }
            "--scheduler" => opts.scheduler = take()?,
            "-n" => {
                opts.n = Some(take()?.parse().map_err(|e| format!("bad -n: {e}"))?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn prepare(session: &Session, name: &str, n: Option<u32>) -> Result<PreparedWorkload, String> {
    let w = prism::workloads::by_name(name)
        .ok_or_else(|| format!("unknown workload {name} (try `prism list`)"))?;
    session
        .prepare_sized(w, n.unwrap_or(w.default_n))
        .map_err(|e| e.to_string())
}

fn cmd_run(session: &Session, args: &[String]) -> i32 {
    let opts = match parse_run_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let data = match prepare(session, &opts.workload, opts.n) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let core = if opts.bsas.contains(&BsaKind::Simd) {
        opts.core.clone().with_simd()
    } else {
        opts.core.clone()
    };

    println!(
        "{}: {} dynamic insts, {} loops",
        data.name,
        data.trace.len(),
        data.ir.loops.len()
    );
    let base = simulate_trace(&data.trace, &opts.core);
    println!(
        "baseline {}: {} cycles (IPC {:.2}), {:.3} µJ",
        opts.core.name,
        base.cycles,
        base.ipc(),
        base.energy.total() * 1e6
    );
    if opts.bsas.is_empty() {
        return 0;
    }
    let schedule = match opts.scheduler.as_str() {
        "oracle" => oracle_schedule(&data, &core, &opts.bsas),
        "amdahl" => amdahl_schedule(&data, &core, &opts.bsas),
        s => {
            eprintln!("error: unknown scheduler {s}");
            return 2;
        }
    };
    for (lid, kind) in &schedule.map {
        println!("  loop {lid} → {kind}");
    }
    let run = run_exocore(
        &data.trace,
        &data.ir,
        &core,
        &data.plans,
        &schedule,
        &opts.bsas,
    );
    println!(
        "ExoCore: {} cycles ({:.2}x), {:.3} µJ ({:.2}x energy-eff), area {:.2} mm²",
        run.cycles,
        base.cycles as f64 / run.cycles.max(1) as f64,
        run.energy.total() * 1e6,
        base.energy.total() / run.energy.total(),
        run.area_mm2
    );
    for u in ExecUnit::ALL {
        if run.unit_insts[u as usize] > 0 {
            println!(
                "  {:<8} {:>7} insts {:>8} cycles {:>9.3} µJ",
                u.to_string(),
                run.unit_insts[u as usize],
                run.unit_cycles[u as usize],
                run.unit_energy[u as usize] * 1e6
            );
        }
    }
    0
}

fn cmd_compare(session: &Session, args: &[String]) -> i32 {
    let Some(name) = args.first() else {
        eprintln!("usage: prism compare <workload>");
        return 2;
    };
    let data = match prepare(session, name, None) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!(
        "{:<6} {:>10} {:>7} | {:>10} {:>7} {:>8}",
        "core", "bare cyc", "µJ", "exo cyc", "µJ", "speedup"
    );
    for core in all_cores() {
        let base = simulate_trace(&data.trace, &core);
        let exo_core = core.clone().with_simd();
        let schedule = oracle_schedule(&data, &exo_core, &BsaKind::ALL);
        let run = run_exocore(
            &data.trace,
            &data.ir,
            &exo_core,
            &data.plans,
            &schedule,
            &BsaKind::ALL,
        );
        println!(
            "{:<6} {:>10} {:>7.3} | {:>10} {:>7.3} {:>7.2}x",
            core.name,
            base.cycles,
            base.energy.total() * 1e6,
            run.cycles,
            run.energy.total() * 1e6,
            base.cycles as f64 / run.cycles.max(1) as f64
        );
    }
    0
}
