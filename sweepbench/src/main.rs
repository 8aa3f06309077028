//! `sweepbench`: the design-space sweep benchmark.
//!
//! ```text
//! sweepbench --workload <cold-full|cold-micro|warm-full|grid-warm|all>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times untraced sweeps and prints the end-to-end
//! metrics; with `--trace 1` it alternates untraced sweeps with sweeps
//! re-composed from the layers' public calls under spans, and prints the
//! per-layer metrics and the tracing overhead. The last line of standard
//! output is one JSON object; everything else goes to standard error and
//! to a run record under `.sweepbench-runs/`. See `README.md`.

mod compose;
mod digest;
mod spans;
mod stats;
mod sweep;

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use prism_pipeline::Json;

use crate::compose::{grid_sweep, session_sweep, Traced, Tracer};
use crate::spans::{self_times, Recorder};
use crate::stats::{load_average, median, peak_rss_mib, tail, CpuTicks};
use crate::sweep::{check, explore, run_sweep, spot_check, Counters, Kind, Space, JOBS};

/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// (point, workload) pairs recomputed directly after the timed sweeps.
const SPOT_CHECKS: usize = 3;

/// Results, records and scratch stores, relative to the checkout root.
const RUNS_DIR: &str = ".sweepbench-runs";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One named metric.
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// What one run reports.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn main() {
    // A grid worker is this executable re-entered; it must take over
    // before anything else runs.
    prism_grid::run_worker_if_env();
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PRISM_"))
        .collect();
    if !knobs.is_empty() {
        return Err(format!(
            "refusing to run with {} set: every knob is fixed by the benchmark",
            knobs.join(", ")
        ));
    }
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    let runs = root.join(RUNS_DIR);
    if args.workload == "all" {
        return run_all(&args);
    }
    let kind = Kind::parse(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let work = runs.join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let record = Record::new(kind, &args);
    let outcome = measure(kind, &args, &work, record);
    let _ = std::fs::remove_dir_all(&work);
    // Commit the deletion now, so a later run's fsyncs do not pay for it.
    if let Ok(dir) = std::fs::File::open(&runs) {
        let _ = dir.sync_all();
    }
    let (report, record) = outcome?;
    record.write(&runs, &report);
    for m in &report.metrics {
        eprintln!(
            "[sweepbench] {} {} = {} {}",
            kind.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    println!("{}", report.json_line());
    Ok(report.correct)
}

/// What the run record keeps beside the metrics.
struct Record {
    text: String,
    spans: Vec<spans::Span>,
    name: String,
}

impl Record {
    fn new(kind: Kind, args: &Args) -> Record {
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        let mut text = String::new();
        let _ = writeln!(text, "workload {}", kind.name());
        let _ = writeln!(text, "seed {}", args.seed);
        let _ = writeln!(text, "seconds {}", args.seconds);
        let _ = writeln!(text, "trace {}", u8::from(args.trace));
        let _ = writeln!(text, "nproc {nproc}");
        let _ = writeln!(text, "jobs {JOBS}");
        let _ = writeln!(text, "loadavg_start {}", load_average());
        Record {
            text,
            spans: Vec::new(),
            name: format!(
                "{}-seed{}-trace{}",
                kind.name(),
                args.seed,
                u8::from(args.trace)
            ),
        }
    }

    fn note(&mut self, line: String) {
        eprintln!("[sweepbench] {line}");
        self.text.push_str(&line);
        self.text.push('\n');
    }

    /// Writes `<name>.txt` (and, for traced runs, `<name>.spans.ndjson`);
    /// a failed write only loses the record, never the run.
    fn write(mut self, runs: &Path, report: &Report) {
        let _ = writeln!(self.text, "loadavg_end {}", load_average());
        for m in &report.metrics {
            let _ = writeln!(self.text, "metric {} {} {}", m.name, m.value, m.unit);
        }
        let _ = std::fs::write(runs.join(format!("{}.txt", self.name)), &self.text);
        if !self.spans.is_empty() {
            let mut nd = String::new();
            for s in &self.spans {
                let _ = writeln!(
                    nd,
                    "{{\"id\":{},\"parent\":{},\"sweep\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.id, s.parent, s.sweep, s.name, s.start_ns, s.end_ns
                );
            }
            let _ = std::fs::write(runs.join(format!("{}.spans.ndjson", self.name)), nd);
        }
    }
}

/// Bytes of the artifacts directly under `dir` (journals and other
/// subdirectories excluded).
fn artifact_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// Setup, the timed loop, the spot check, and the metrics of one run.
fn measure(
    kind: Kind,
    args: &Args,
    work: &Path,
    mut record: Record,
) -> Result<(Report, Record), String> {
    let space = Space::permuted(kind, args.seed);
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut digests = BTreeSet::new();

    // Setup: everything before the first timed sweep, repeated; the last
    // setup's store is the one warm sweeps read.
    let mut setup_s = Vec::new();
    let mut store = work.join("setup-0");
    for i in 0..if args.trace { 1 } else { SETUPS } {
        let t0 = Instant::now();
        let calibration = prism_bench::perf::calibrate();
        let dir = fresh_dir(&work.join(format!("setup-{i}")))?;
        let fill = if kind.warm() {
            Some(explore(&space, &dir))
        } else {
            None
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        record.note(format!("calibrate_before {calibration:.1} Mops"));
        if let Some(fill) = fill {
            let c = check(&fill.report.results, fill.report.quarantined.len(), &space);
            correct &= c.failed == 0;
            digests.insert(c.digest);
        }
        let previous = std::mem::replace(&mut store, dir);
        if previous != store {
            let _ = std::fs::remove_dir_all(previous);
        }
    }

    let rec = Recorder::new();
    let mut walls = Vec::new();
    let mut cpu = CpuTicks::default();
    let mut last_counters = None;
    let mut traced: Vec<Traced> = Vec::new();
    let mut bytes_written = 0u64;
    let mut last_results = Vec::new();
    // Cold stores are kept until the run ends: deleting one between
    // sweeps would leave filesystem work behind for the next sweep's
    // fsyncs to wait on.
    let mut cold_stores = 0;
    let mut next_store = || -> Result<PathBuf, String> {
        if kind.warm() {
            return Ok(store.clone());
        }
        cold_stores += 1;
        fresh_dir(&work.join(format!("sweep-{cold_stores}")))
    };
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < deadline {
        let space = Space::for_sweep(kind, args.seed, walls.len());
        let dir = next_store()?;
        let out = run_sweep(kind, &space, &dir)?;
        walls.push(out.wall_s);
        cpu += out.cpu;
        let c = check(&out.report.results, out.report.quarantined.len(), &space);
        attempted += space.points();
        failed += c.failed;
        digests.insert(c.digest);
        last_counters = Some(out.counters);
        last_results = out.report.results;

        if args.trace {
            let dir = next_store()?;
            let before = artifact_bytes(&dir);
            let t = Tracer {
                rec: &rec,
                sweep: u32::try_from(traced.len() + 1).unwrap_or(u32::MAX),
                jobs: JOBS,
            };
            let sweep = if kind == Kind::GridWarm {
                grid_sweep(&t, &space, &dir)?
            } else {
                session_sweep(&t, &space, &dir)
            };
            bytes_written += artifact_bytes(&dir).saturating_sub(before);
            let c = check(&sweep.results, 0, &space);
            attempted += space.points();
            failed += c.failed;
            digests.insert(c.digest);
            traced.push(sweep);
        }
    }
    if let Err(e) = spot_check(&space, &last_results, args.seed, SPOT_CHECKS) {
        record.note(e);
        correct = false;
    }
    record.note(format!(
        "calibrate_after {:.1} Mops",
        prism_bench::perf::calibrate()
    ));
    for d in &digests {
        record.note(format!("digest {d}"));
    }
    let golden = digest::golden(space.registry).unwrap_or("missing");
    record.note(format!("golden {} {golden}", space.registry));
    correct &= failed == 0;

    let n = walls.len();
    let total_wall: f64 = walls.iter().sum();
    record.note(format!("sweeps {n}"));
    record.note(format!(
        "cpu_ticks user {} sys {} children_user {} children_sys {}",
        cpu.utime, cpu.stime, cpu.cutime, cpu.cstime
    ));
    let _ = writeln!(record.text, "sweep_walls_s {walls:?}");
    match tail(&walls) {
        Some(t) => record.note(format!(
            "sweep_s_tail p{} = {} s (n = {})",
            t.percentile, t.value, t.n
        )),
        None => record.note(format!("sweep_s_tail omitted (n = {n} < 20)")),
    }
    record.note(format!(
        "failed_ratio {} ({failed} of {attempted} units)",
        failed as f64 / attempted.max(1) as f64
    ));

    let metrics = if args.trace {
        let spans = rec.spans();
        let metrics = layer_metrics(
            &spans,
            &traced,
            &walls,
            &cpu,
            last_counters.as_ref(),
            bytes_written,
        );
        record.spans = spans;
        metrics
    } else {
        vec![
            metric("sweep_s", median(&walls), "s"),
            metric(
                "points_per_s",
                (n * space.points()) as f64 / total_wall,
                "points/s",
            ),
            metric("cpu_s_per_sweep", cpu.total_s() / n as f64, "s"),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_rss_mb", peak_rss_mib(), "MiB"),
        ]
    };
    Ok((
        Report {
            correct,
            attempted,
            failed,
            metrics,
        },
        record,
    ))
}

fn named<'a>(
    spans: &'a [spans::Span],
    names: &'a [&'a str],
) -> impl Iterator<Item = &'a spans::Span> + 'a {
    spans.iter().filter(|s| names.contains(&s.name))
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The per-layer metrics of a traced run, per traced sweep.
fn layer_metrics(
    spans: &[spans::Span],
    traced: &[Traced],
    walls: &[f64],
    cpu: &CpuTicks,
    counters: Option<&Counters>,
    bytes_written: u64,
) -> Vec<Metric> {
    let n = traced.len().max(1) as f64;
    let self_ns = self_times(spans);
    let busy = |names: &[&str]| -> f64 {
        // A fold from +0.0: an empty f64 `sum` is -0.0.
        named(spans, names)
            .map(|s| self_ns[&s.id] as f64)
            .fold(0.0, |a, b| a + b)
            / 1e9
            / n
    };
    let count = |name: &str| named(spans, &[name]).count() as f64 / n;
    let median_s = |name: &str| -> f64 {
        let d: Vec<f64> = named(spans, &[name])
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect();
        median_or_zero(&d)
    };
    let per = |f: fn(&Traced) -> u64| traced.iter().map(f).sum::<u64>() as f64 / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let sim_insts = per(|t| t.tally.sim_insts);
    let sim_busy = busy(&["sim"]);
    let requested = per(|t| t.tally.walk_requests);
    let performed = count("walk");
    let walk_busy = busy(&["walk"]);
    let walk_max: Vec<f64> = (1..=traced.len())
        .map(|sweep| {
            spans
                .iter()
                .filter(|s| s.name == "walk" && s.sweep as usize == sweep)
                .map(|s| s.dur_ns() as f64 / 1e9)
                .fold(0.0, f64::max)
        })
        .collect();

    // Barrier idle: per parallel phase, the lanes' wall time not covered
    // by the items they ran.
    let mut items: HashMap<u32, (usize, u64)> = HashMap::new();
    for s in named(spans, &["item"]) {
        let e = items.entry(s.parent).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
    }
    let idle_ns: u64 = spans
        .iter()
        .filter(|s| s.name.starts_with("phase."))
        .filter_map(|s| {
            let &(k, busy) = items.get(&s.id)?;
            Some((s.dur_ns() * k.min(JOBS) as u64).saturating_sub(busy))
        })
        .sum();

    let (memo_hits, memo_misses) = match counters {
        Some(Counters::Session(s)) => (s.memo_hits as f64, s.memo_misses as f64),
        _ => (0.0, 0.0),
    };
    let grid = match counters {
        Some(Counters::Grid(g)) => g.clone(),
        _ => prism_grid::GridStats::default(),
    };
    let untraced_wall: f64 = walls.iter().sum();
    let traced_s = median_s("sweep");
    let untraced_s = median(walls);

    vec![
        metric("sim.insts", sim_insts, "count"),
        metric("sim.busy_s", sim_busy, "s"),
        metric("sim.insts_per_s", ratio(sim_insts, sim_busy), "insts/s"),
        metric("prep.busy_s", busy(&["prep.build", "prep.from_trace"]), "s"),
        metric("oracle.tables", count("oracle"), "count"),
        metric("oracle.busy_s", busy(&["oracle"]), "s"),
        metric("walk.requested", requested, "count"),
        metric("walk.distinct", per(|t| t.tally.walk_distinct), "count"),
        metric("walk.performed", performed, "count"),
        metric(
            "walk.reuse_ratio",
            ratio(requested - performed, requested),
            "ratio",
        ),
        metric("walk.busy_s", walk_busy, "s"),
        metric("walk.max_s", median_or_zero(&walk_max), "s"),
        metric(
            "walk.insts_per_s",
            ratio(per(|t| t.tally.walk_insts), walk_busy),
            "insts/s",
        ),
        metric("price.calls", count("price"), "count"),
        metric("price.busy_s", busy(&["price"]), "s"),
        metric("codec.encode_s", busy(&["codec.encode"]), "s"),
        metric("codec.decode_s", busy(&["codec.decode"]), "s"),
        metric("codec.bytes", per(|t| t.tally.codec_bytes), "bytes"),
        metric("store.puts", count("store.put"), "count"),
        metric("store.put_s", median_s("store.put"), "s"),
        metric("store.put_busy_s", busy(&["store.put"]), "s"),
        metric("store.bytes_written", bytes_written as f64 / n, "bytes"),
        metric("store.gets", count("store.get"), "count"),
        metric("store.get_s", median_s("store.get"), "s"),
        metric("store.get_busy_s", busy(&["store.get"]), "s"),
        metric("store.hits", per(|t| t.store.hits), "count"),
        metric("store.misses", per(|t| t.store.misses), "count"),
        metric("journal.appends", count("journal.append"), "count"),
        metric("journal.append_s", median_s("journal.append"), "s"),
        metric(
            "journal.busy_s",
            busy(&["journal.open", "journal.append", "journal.remove"]),
            "s",
        ),
        metric(
            "pipeline.cpu_busy_frac",
            ratio(cpu.total_s(), untraced_wall * JOBS as f64),
            "ratio",
        ),
        metric("pipeline.idle_s", idle_ns as f64 / 1e9 / n, "s"),
        metric("pipeline.memo_hits", memo_hits, "count"),
        metric("pipeline.memo_misses", memo_misses, "count"),
        metric("grid.units", grid.units_total as f64, "count"),
        metric(
            "grid.worker_cpu_s",
            cpu.children_s() / walls.len() as f64,
            "s",
        ),
        metric("grid.walks", grid.walks as f64, "count"),
        metric("grid.walks_skipped", grid.walks_skipped as f64, "count"),
        metric(
            "grid.units_reassigned",
            grid.units_reassigned as f64,
            "count",
        ),
        metric("grid.workers_died", grid.workers_died as f64, "count"),
        metric("proto.frames", count("proto.encode"), "count"),
        metric("proto.bytes", per(|t| t.tally.proto_bytes), "bytes"),
        metric("proto.encode_s", busy(&["proto.encode"]), "s"),
        metric("proto.decode_s", busy(&["proto.decode"]), "s"),
        metric("trace.sweep_s", traced_s, "s"),
        metric("trace.untraced_sweep_s", untraced_s, "s"),
        metric("trace.overhead", ratio(traced_s, untraced_s) - 1.0, "ratio"),
        metric("trace.spans", spans.len() as f64 / n, "count"),
    ]
}

/// Runs every workload, each in its own process (so peak RSS and CPU
/// stay per workload), and prints one table of every metric.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut all = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut table = String::new();
    for kind in Kind::ALL {
        let out = Command::new(&exe)
            .args([
                "--workload",
                kind.name(),
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {}: {e}", kind.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let json =
            Json::parse(line).map_err(|e| format!("{}: bad result line: {e}", kind.name()))?;
        let field = |k: &str| json.get(k).and_then(Json::as_u64).unwrap_or(0) as usize;
        all.correct &=
            out.status.success() && json.get("correct").and_then(Json::as_bool) == Some(true);
        all.attempted += field("attempted");
        all.failed += field("failed");
        if let Some(Json::Obj(entries)) = json.get("metrics") {
            for (name, m) in entries {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let _ = writeln!(table, "{:<11} {name:<24} {value:>16.6} {unit}", kind.name());
                all.metrics
                    .push(metric(&format!("{}/{name}", kind.name()), value, unit));
            }
        }
    }
    eprint!("{table}");
    println!("{}", all.json_line());
    Ok(all.correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "warm-full",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("warm-full", 9, 12, true)
        );
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let r = Report {
            correct: true,
            attempted: 128,
            failed: 0,
            metrics: vec![metric("sweep_s", 1.25, "s"), metric("setup_s", 0.5, "s")],
        };
        let json = Json::parse(&r.json_line()).expect("valid JSON");
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(128));
        let m = json.get("metrics").expect("metrics");
        assert_eq!(
            m.get("sweep_s")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
    }
}
