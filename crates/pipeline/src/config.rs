//! The one configuration: every `PRISM_*` environment knob and the
//! global `--jobs`, `--stats` and `--resume` flags, resolved once into a
//! typed [`Config`].
//!
//! One parser, [`Config::from_vars`], turns `(name, value)` pairs into a
//! `Config`; [`Config::from_env`] runs it over the process environment
//! and [`Config::from_args`] adds the global flags. A flag beats its
//! variable, which beats the default. There is one error policy: an
//! unknown `PRISM_*` name or a malformed value is a [`ConfigError`] that
//! names the variable or flag, and front ends print it and exit 2 before
//! doing any work. `--stats` prints the resolved values
//! ([`Config::render`]), so a run can be reproduced from its own output.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use crate::fault::{FaultPlan, FaultSpecError};

/// Every `PRISM_*` environment variable prism reads. Any other `PRISM_*`
/// name is a [`ConfigError`]: a retired or misspelt knob must not
/// silently stop doing what it used to do.
const KNOBS: [&str; 8] = [
    "PRISM_ARTIFACT_DIR",
    "PRISM_FAULTS",
    "PRISM_GRID_WORKER",
    "PRISM_JOBS",
    "PRISM_MAX_NODES",
    "PRISM_NET_TOKEN",
    "PRISM_SCALE",
    "PRISM_STORE_CAP",
];

/// What became of each retired knob, appended to the unknown-name error.
const RETIRED: &str = "Every fault kind (store, stage, worker, link, crash) goes in \
     PRISM_FAULTS; PRISM_REFRESH was removed (the content-addressed store invalidates \
     itself; delete the store directory for a cold run); PRISM_STREAM and PRISM_CHUNK \
     were removed (traces are re-simulated, never stored, in fixed 64 Ki-instruction \
     chunks); PRISM_GRID_SHARD was removed (a worker takes its shard from the \
     coordinator's hello); PRISM_GRID_TIMEOUT_MS was removed (the heartbeat timeout is \
     10 s); PRISM_NO_FSYNC was removed (a store put's durability follows from what the \
     artifact is: design results and journal appends are fsynced, trace-walk timings are \
     not); PRISM_NO_TIMING_CACHE was removed (trace-walk timings are always stored); \
     PRISM_WORKERS was removed (use `prism grid --workers N`; figure binaries read the \
     store it fills); PRISM_HOSTS was removed (use `prism grid --hosts`); \
     PRISM_DIVERGENCE was removed (the µDG is held to the reference simulator by the \
     tests in tests/model_validation.rs, and the headline claims by \
     full_registry_sweep_matches_the_reference)";

/// A configuration that cannot be used: an unknown `PRISM_*` variable, a
/// malformed value, or a flag without its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The variable or flag at fault (every unknown name, comma-separated,
    /// for unknown variables).
    pub name: String,
    /// The full message, which names [`name`](Self::name).
    pub message: String,
}

impl ConfigError {
    fn bad(name: &str, value: &str, reason: impl fmt::Display) -> Self {
        ConfigError {
            name: name.to_string(),
            message: format!("bad {name} value `{value}`: {reason}"),
        }
    }

    fn unknown(names: &[&str]) -> Self {
        let names = names.join(", ");
        ConfigError {
            message: format!(
                "unknown environment variable(s) {names}: prism reads only {}. {RETIRED}",
                KNOBS.join(", ")
            ),
            name: names,
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Every knob's resolved value. `PRISM_GRID_WORKER` carries no value
/// here: `prism_grid::run_worker_if_env` reads it before anything touches
/// stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Worker threads: `--jobs`, else `PRISM_JOBS`, else the hardware
    /// parallelism; at least 1.
    pub jobs: usize,
    /// The artifact store: `PRISM_ARTIFACT_DIR`, else
    /// `target/prism-artifacts` next to the workspace.
    pub artifact_dir: PathBuf,
    /// The validated `PRISM_FAULTS` plan text; `None` when unset or blank.
    /// Counted faults live in the parsed plan, so each consumer parses its
    /// own ([`Config::fault_plan`]).
    pub faults: Option<String>,
    /// `PRISM_MAX_NODES`: the µDG node budget of every evaluation unit;
    /// `None` is unlimited.
    pub max_nodes: Option<u64>,
    /// `PRISM_STORE_CAP`: the store's LRU byte cap; `None` when unset,
    /// blank or 0.
    pub store_cap: Option<u64>,
    /// `PRISM_SCALE`: the problem-size multiplier (default 1). Its reader
    /// is [`prism_workloads::scale`]; the config validates it and prints it.
    pub scale: u32,
    /// `PRISM_NET_TOKEN`: the TCP handshake secret; empty when unset.
    pub net_token: String,
    /// `--stats`: print this config and the run's counters to stderr.
    pub stats: bool,
    /// `--resume`: replay the sweep journal of a killed run.
    pub resume: bool,
}

impl Default for Config {
    /// The configuration of an empty environment and no flags.
    fn default() -> Self {
        Config::from_vars::<&str, &str>([]).expect("an empty environment is valid")
    }
}

/// The `PRISM_*` names among `names` that are not in [`KNOBS`].
fn unknown_knobs<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    names
        .into_iter()
        .filter(|name| name.starts_with("PRISM_") && !KNOBS.contains(name))
        .collect()
}

/// Parses a worker-thread count (`PRISM_JOBS` or `--jobs`); 0 means 1.
fn parse_jobs(value: &str) -> Result<usize, std::num::ParseIntError> {
    value.trim().parse::<usize>().map(|jobs| jobs.max(1))
}

/// Validates a `PRISM_FAULTS` plan, keeping its trimmed text; blank is no
/// plan.
fn parse_faults(value: &str) -> Result<Option<String>, FaultSpecError> {
    let text = value.trim();
    if text.is_empty() {
        return Ok(None);
    }
    FaultPlan::parse(text).map(|_| Some(text.to_string()))
}

/// The last value of knob `name` in `vars`.
fn value<'a>(vars: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    vars.iter().rev().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// The value of knob `name` in `vars`, parsed, or `None` when unset.
fn knob<T, E: fmt::Display>(
    vars: &[(&str, &str)],
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<Option<T>, ConfigError> {
    value(vars, name)
        .map(|v| parse(v).map_err(|e| ConfigError::bad(name, v, e)))
        .transpose()
}

impl Config {
    /// Parses `(name, value)` pairs: names without the `PRISM_` prefix are
    /// ignored, and the last value of a repeated name wins. Blank
    /// `PRISM_FAULTS` and `PRISM_STORE_CAP` values, and a cap of 0, mean
    /// "off".
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for any unknown `PRISM_*` name, else for
    /// the first malformed value.
    pub fn from_vars<K: AsRef<str>, V: AsRef<str>>(
        vars: impl IntoIterator<Item = (K, V)>,
    ) -> Result<Config, ConfigError> {
        let owned: Vec<(K, V)> = vars.into_iter().collect();
        let vars: Vec<(&str, &str)> = owned
            .iter()
            .map(|(name, value)| (name.as_ref(), value.as_ref()))
            .filter(|(name, _)| name.starts_with("PRISM_"))
            .collect();
        let unknown = unknown_knobs(vars.iter().map(|&(name, _)| name));
        if !unknown.is_empty() {
            return Err(ConfigError::unknown(&unknown));
        }
        Ok(Config {
            jobs: knob(&vars, "PRISM_JOBS", parse_jobs)?
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from)),
            artifact_dir: knob(&vars, "PRISM_ARTIFACT_DIR", |dir| match dir {
                "" => Err("empty path"),
                dir => Ok(PathBuf::from(dir)),
            })?
            .unwrap_or_else(|| {
                PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/prism-artifacts")
            }),
            faults: knob(&vars, "PRISM_FAULTS", parse_faults)?.flatten(),
            max_nodes: knob(&vars, "PRISM_MAX_NODES", |v| v.trim().parse::<u64>())?,
            store_cap: knob(&vars, "PRISM_STORE_CAP", |v| match v.trim() {
                "" => Ok(0),
                cap => cap.parse::<u64>(),
            })?
            .filter(|&cap| cap > 0),
            scale: knob(&vars, "PRISM_SCALE", prism_workloads::parse_scale)?.unwrap_or(1),
            net_token: value(&vars, "PRISM_NET_TOKEN")
                .unwrap_or_default()
                .to_string(),
            stats: false,
            resume: false,
        })
    }

    /// [`Config::from_vars`] over the process environment.
    ///
    /// # Errors
    ///
    /// As [`Config::from_vars`]; a `PRISM_*` value that is not UTF-8 is
    /// malformed too.
    pub fn from_env() -> Result<Config, ConfigError> {
        let mut vars = Vec::new();
        for (name, value) in std::env::vars_os() {
            let Some(name) = name.to_str().filter(|n| n.starts_with("PRISM_")) else {
                continue;
            };
            let value = value
                .into_string()
                .map_err(|raw| ConfigError::bad(name, &raw.to_string_lossy(), "not valid UTF-8"))?;
            vars.push((name.to_string(), value));
        }
        Config::from_vars(vars)
    }

    /// [`Config::from_env`] plus the global flags, which it removes from
    /// `args` (the rest keep their order): `--jobs N` or `--jobs=N` (beats
    /// `PRISM_JOBS`), `--stats` and `--resume`.
    ///
    /// # Errors
    ///
    /// As [`Config::from_env`]; a `--jobs` without a number is malformed.
    pub fn from_args(args: &mut Vec<String>) -> Result<Config, ConfigError> {
        let mut config = Config::from_env()?;
        config.take_flags(args)?;
        Ok(config)
    }

    /// Applies and removes the global flags in `args`.
    fn take_flags(&mut self, args: &mut Vec<String>) -> Result<(), ConfigError> {
        let jobs = |value: Option<&str>| match value {
            Some(v) => parse_jobs(v).map_err(|e| ConfigError::bad("--jobs", v, e)),
            None => Err(ConfigError {
                name: "--jobs".to_string(),
                message: "--jobs needs a number".to_string(),
            }),
        };
        let mut rest = Vec::with_capacity(args.len());
        let mut it = std::mem::take(args).into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--stats" => self.stats = true,
                "--resume" => self.resume = true,
                "--jobs" => self.jobs = jobs(it.next().as_deref())?,
                _ => match arg.strip_prefix("--jobs=") {
                    Some(value) => self.jobs = jobs(Some(value))?,
                    None => rest.push(arg),
                },
            }
        }
        *args = rest;
        Ok(())
    }

    /// A fresh plan parsed from [`faults`](Self::faults), so counted
    /// faults start over for each session, daemon connection and
    /// coordinator that asks.
    ///
    /// # Panics
    ///
    /// Panics when `faults` was set by hand to text that does not parse.
    #[must_use]
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.as_deref().map(|text| {
            Arc::new(FaultPlan::parse(text).unwrap_or_else(|e| panic!("bad PRISM_FAULTS: {e}")))
        })
    }

    /// The resolved values as one line for `--stats` (stderr). The net
    /// token is shown only as `set` or `unset`.
    #[must_use]
    pub fn render(&self) -> String {
        let or_dash = |value: Option<String>| value.unwrap_or_else(|| "-".to_string());
        format!(
            "config         : jobs={} artifact_dir={} faults={} max_nodes={} store_cap={} \
             scale={} net_token={}\n",
            self.jobs,
            self.artifact_dir.display(),
            or_dash(self.faults.clone()),
            or_dash(self.max_nodes.map(|n| n.to_string())),
            or_dash(self.store_cap.map(|c| c.to_string())),
            self.scale,
            if self.net_token.is_empty() {
                "unset"
            } else {
                "set"
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(pairs: &[(&str, &str)]) -> Result<Config, ConfigError> {
        Config::from_vars(pairs.iter().copied())
    }

    fn flags(args: &[&str]) -> Result<(Config, Vec<String>), ConfigError> {
        let mut config = Config::default();
        let mut args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        config.take_flags(&mut args)?;
        Ok((config, args))
    }

    /// A malformed value is a typed error naming the variable.
    fn assert_rejects(name: &str, value: &str) {
        let err = vars(&[(name, value)]).expect_err(&format!("{name}={value:?} must be rejected"));
        assert_eq!(err.name, name);
        assert!(err.to_string().contains(name), "{err}");
    }

    #[test]
    fn unset_knobs_give_the_defaults() {
        let config = vars(&[("PATH", "/bin"), ("PRISMATIC", "1")]).unwrap();
        assert_eq!(
            config.jobs,
            std::thread::available_parallelism().map_or(1, usize::from)
        );
        assert!(config.artifact_dir.ends_with("target/prism-artifacts"));
        assert_eq!(config.faults, None);
        assert_eq!(config.fault_plan().map(|_| ()), None);
        assert_eq!(config.max_nodes, None);
        assert_eq!(config.store_cap, None);
        assert_eq!(config.scale, 1);
        assert_eq!(config.net_token, "");
        assert!(!config.stats && !config.resume);
        assert_eq!(config, Config::default());
    }

    #[test]
    fn good_values_are_resolved() {
        let config = vars(&[
            ("PRISM_ARTIFACT_DIR", "/tmp/store"),
            ("PRISM_FAULTS", " die:0@1,seed=7 "),
            ("PRISM_GRID_WORKER", "1"),
            ("PRISM_JOBS", "3"),
            ("PRISM_MAX_NODES", "5000"),
            ("PRISM_NET_TOKEN", "s3cret"),
            ("PRISM_SCALE", "16"),
            ("PRISM_STORE_CAP", "4096"),
        ])
        .unwrap();
        assert_eq!(config.artifact_dir, PathBuf::from("/tmp/store"));
        assert_eq!(config.faults.as_deref(), Some("die:0@1,seed=7"));
        assert!(config.fault_plan().is_some());
        assert_eq!(config.jobs, 3);
        assert_eq!(config.max_nodes, Some(5000));
        assert_eq!(config.net_token, "s3cret");
        assert_eq!(config.scale, 16);
        assert_eq!(config.store_cap, Some(4096));
        assert_eq!(vars(&[("PRISM_JOBS", "0")]).unwrap().jobs, 1);
        assert_eq!(
            vars(&[("PRISM_JOBS", "2"), ("PRISM_JOBS", "5")])
                .unwrap()
                .jobs,
            5,
            "the last value of a repeated name wins"
        );
    }

    #[test]
    fn off_values_mean_off() {
        for (name, value) in [
            ("PRISM_STORE_CAP", "0"),
            ("PRISM_STORE_CAP", ""),
            ("PRISM_FAULTS", ""),
            ("PRISM_FAULTS", "  "),
        ] {
            assert_eq!(
                vars(&[(name, value)]).unwrap(),
                Config::default(),
                "{name}={value:?}"
            );
        }
    }

    #[test]
    fn malformed_values_name_their_variable() {
        for name in [
            "PRISM_JOBS",
            "PRISM_MAX_NODES",
            "PRISM_FAULTS",
            "PRISM_STORE_CAP",
            "PRISM_SCALE",
        ] {
            assert_rejects(name, "two");
        }
        assert_rejects("PRISM_JOBS", "");
        assert_rejects("PRISM_MAX_NODES", "-1");
        assert_rejects("PRISM_FAULTS", "die:0@1@seed");
        assert_rejects("PRISM_SCALE", "0");
        assert_rejects("PRISM_ARTIFACT_DIR", "");
        let err = vars(&[("PRISM_MAX_NODES", "two")]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad PRISM_MAX_NODES value `two`: invalid digit found in string"
        );
    }

    #[test]
    fn boolean_flag_detection() {
        let (config, rest) = flags(&["explore", "--stats"]).unwrap();
        assert_eq!((config.stats, config.resume), (true, false));
        assert_eq!(rest, ["explore"]);
        let (config, rest) = flags(&["grid", "--workers", "2", "--resume"]).unwrap();
        assert_eq!((config.stats, config.resume), (false, true));
        assert_eq!(rest, ["grid", "--workers", "2"]);
        let (config, rest) = flags(&["explore", "--statsy"]).unwrap();
        assert_eq!((config.stats, config.resume), (false, false));
        assert_eq!(rest, ["explore", "--statsy"]);
        let (config, rest) = flags(&[]).unwrap();
        assert_eq!((config.stats, config.resume), (false, false));
        assert!(rest.is_empty());
    }

    #[test]
    fn jobs_flag_parsing() {
        let (config, rest) = flags(&["explore", "--jobs", "3", "--stats"]).unwrap();
        assert_eq!(config.jobs, 3);
        assert_eq!(rest, ["explore"]);
        let (config, rest) = flags(&["x", "--jobs=2", "y"]).unwrap();
        assert_eq!(config.jobs, 2);
        assert_eq!(rest, ["x", "y"]);
        let (config, rest) = flags(&["explore", "-j", "4"]).unwrap();
        assert_eq!(config.jobs, Config::default().jobs);
        assert_eq!(rest, ["explore", "-j", "4"]);
        for bad in [
            &["--jobs", "two"][..],
            &["--jobs", "zero?"],
            &["--jobs=two"],
            &["explore", "--jobs"],
        ] {
            let err = flags(bad).expect_err(&format!("{bad:?} must be rejected"));
            assert_eq!(err.name, "--jobs", "{bad:?}");
            assert!(err.to_string().contains("--jobs"), "{err}");
        }
    }

    #[test]
    fn render_names_every_valued_knob_but_hides_the_token() {
        let pairs = [
            ("PRISM_ARTIFACT_DIR", "/tmp/store"),
            ("PRISM_FAULTS", "die:0@1"),
            ("PRISM_JOBS", "3"),
            ("PRISM_MAX_NODES", "5000"),
            ("PRISM_NET_TOKEN", "s3cret"),
            ("PRISM_SCALE", "16"),
            ("PRISM_STORE_CAP", "4096"),
        ];
        let line = vars(&pairs).unwrap().render();
        assert_eq!(line.lines().count(), 1, "{line}");
        assert!(line.starts_with("config "), "{line}");
        let valued: Vec<&str> = KNOBS
            .iter()
            .copied()
            .filter(|knob| *knob != "PRISM_GRID_WORKER")
            .collect();
        assert_eq!(valued.len(), pairs.len());
        for (knob, value) in pairs {
            assert!(valued.contains(&knob));
            let key = knob.trim_start_matches("PRISM_").to_lowercase();
            let shown = if knob == "PRISM_NET_TOKEN" {
                "set"
            } else {
                value
            };
            assert!(line.contains(&format!(" {key}={shown}")), "{key} in {line}");
        }
        assert!(!line.contains("s3cret"), "{line}");
        let defaults = Config::default().render();
        for key in ["faults=-", "max_nodes=-", "store_cap=-", "scale=1"] {
            assert!(defaults.contains(key), "{key} in {defaults}");
        }
        assert!(defaults.contains("net_token=unset"), "{defaults}");
    }

    #[test]
    fn only_the_knobs_prism_reads_pass_the_env_check() {
        assert!(unknown_knobs(KNOBS).is_empty());
        let retired: Vec<String> = [
            "CHUNK",
            "CRASH",
            "DIVERGENCE",
            "GRID_FAULTS",
            "GRID_SHARD",
            "GRID_TIMEOUT_MS",
            "HOSTS",
            "NET_FAULTS",
            "NO_FSYNC",
            "NO_TIMING_CACHE",
            "REFRESH",
            "STREAM",
            "WORKERS",
        ]
        .iter()
        .map(|name| format!("PRISM_{name}"))
        .collect();
        let mut names = vec!["PATH", "PRISMATIC", "PRISM_FAULTS", "PRISM_SCALE"];
        names.extend(retired.iter().map(String::as_str));
        assert_eq!(unknown_knobs(names), retired);
        let err = vars(&[("PRISM_WORKERS", "2"), ("PRISM_HOSTS", "h:1")]).unwrap_err();
        assert_eq!(err.name, "PRISM_WORKERS, PRISM_HOSTS");
        let message = err.to_string();
        assert!(
            message.contains("use `prism grid --workers N`"),
            "{message}"
        );
        assert!(message.contains("use `prism grid --hosts`"), "{message}");
        assert!(message.contains("tests/model_validation.rs"), "{message}");
        assert!(!message.contains('\n'), "one line: {message}");
    }

    /// The `"PRISM_*"` string literals in the non-test code of
    /// `crates/*/src` and `src/`, minus the `KNOBS` array itself.
    fn prism_literals_in_sources() -> std::collections::BTreeSet<String> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut dirs = vec![root.join("src")];
        for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
            dirs.push(krate.expect("crate entry").path().join("src"));
        }
        let mut literals = std::collections::BTreeSet::new();
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).expect("source dir") {
                let path = entry.expect("source entry").path();
                if path.is_dir() {
                    dirs.push(path);
                    continue;
                }
                if path.extension().is_none_or(|ext| ext != "rs") {
                    continue;
                }
                let text = std::fs::read_to_string(&path).expect("source file");
                let mut code = text
                    .split("#[cfg(test)]")
                    .next()
                    .unwrap_or_default()
                    .to_string();
                if let Some(start) = code.find("const KNOBS") {
                    let end = start + code[start..].find("];").expect("KNOBS array end");
                    code.replace_range(start..end, "");
                }
                for (at, _) in code.match_indices("\"PRISM_") {
                    let rest = &code[at + 1..];
                    let len = rest
                        .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                        .unwrap_or(rest.len());
                    if len > "PRISM_".len() && rest[len..].starts_with('"') {
                        literals.insert(rest[..len].to_string());
                    }
                }
            }
        }
        literals
    }

    #[test]
    fn knobs_match_the_prism_literals_in_the_sources() {
        let literals = prism_literals_in_sources();
        for literal in &literals {
            assert!(
                KNOBS.contains(&literal.as_str()),
                "{literal} is read but missing from KNOBS"
            );
        }
        for knob in KNOBS {
            assert!(
                literals.contains(knob),
                "{knob} is in KNOBS but nothing outside the list names it"
            );
        }
    }
}
