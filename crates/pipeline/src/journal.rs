//! Append-only sweep journal: a per-sweep NDJSON write-ahead log that
//! makes design-space sweeps resumable after a process kill.
//!
//! The content-addressed store already makes individual design results
//! crash-safe (write-then-rename, fsynced), but sweep bookkeeping —
//! which units finished, which quarantined — lived only in process
//! memory. The journal persists exactly that: one file per sweep under
//! `<store>/journal/<sweep>.ndjson`, a versioned header line followed by
//! one record per settled unit. `--resume` replays the journal, skips
//! every recorded unit, and recomputes only the rest, producing output
//! byte-identical to an uninterrupted run.
//!
//! Format (one JSON document per line):
//!
//! ```text
//! {"type":"journal","version":3,"sweep":"<64-hex sweep key>"}
//! {"type":"done","unit":"<label>","result":{...},"sum":"<64-hex>"}
//! {"type":"quarantined","unit":"<label>","error":{...},"sum":"<64-hex>"}
//! ```
//!
//! `sum` is the SHA-256 of `"<type>\n<unit>\n<payload JSON>"`, making a
//! torn or bit-flipped record detectable. The reader is
//! **truncated-tail-tolerant**: a crash mid-append leaves a partial last
//! line (no trailing newline, or a record whose sum does not match); the
//! reader replays the longest valid prefix and reports the rest as
//! dropped. Re-opening for resume truncates the torn tail before
//! appending, so the file never accumulates garbage.
//!
//! Appends are flushed and fsynced *after* the unit's result artifact is
//! durable in the store, so a `done` record always refers to a result
//! that can be reloaded — the invariant behind the "zero journaled-done
//! units recomputed" property.
//!
//! [`SweepLedger`] is the one journal policy over a (core × subset) unit
//! space: `prism explore` ([`Session`](crate::Session)) and the grid
//! coordinator both open, replay, record and close their sweep through it,
//! so a sweep killed under one command resumes under the other.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use prism_exocore::{DesignPoint, DesignResult};
use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::CoreConfig;
use prism_workloads::Workload;

use crate::codec::{
    decode_design_result, decode_pipeline_error, encode_design_result, encode_pipeline_error,
};
use crate::crash::{crash_point, SITE_JOURNAL_APPEND};
use crate::error::PipelineError;
use crate::hash::{ContentHash, Sha256};
use crate::json::Json;
use crate::key::KeyBuilder;
use crate::store::sync_dir;
use crate::sweep::SweepReport;

/// Journal format version, written into every header line. A reader
/// treats any other version as stale (the journal is ignored and
/// rewritten rather than misread). v3 dropped v2's advisory `assigned`
/// records, which this reader would take for a torn tail — hence the
/// bump: a v2 journal reads as stale instead.
pub const JOURNAL_VERSION: u64 = 3;

/// Subdirectory of the artifact store holding sweep journals.
pub const JOURNAL_SUBDIR: &str = "journal";

/// Identity of a sweep for journaling: every input that changes which
/// units exist or what their results would be. Two runs with the same
/// sweep key write/replay the same journal file; any config change
/// (scale, tracer, core list, subset list, crate version via
/// [`KeyBuilder`]) lands in a different file, so a resume can never
/// splice results across incompatible configurations.
///
/// `workloads` pairs each workload name with its scaled problem size.
#[must_use]
pub fn sweep_key(
    workloads: &[(String, u32)],
    tracer: &TracerConfig,
    cores: &[CoreConfig],
    subsets: &[Vec<BsaKind>],
) -> ContentHash {
    let mut kb = KeyBuilder::new("sweep");
    kb.field("workloads", workloads.len());
    for (name, n) in workloads {
        kb.field("workload.name", name);
        kb.field("workload.n", n);
    }
    kb.tracer(tracer);
    kb.field("cores", cores.len());
    for core in cores {
        kb.core(core);
    }
    kb.field("subsets", subsets.len());
    for subset in subsets {
        kb.bsas(subset);
    }
    kb.finish()
}

/// Path of the journal file for `sweep` under `store_dir`.
#[must_use]
pub fn journal_path(store_dir: &Path, sweep: &ContentHash) -> PathBuf {
    store_dir
        .join(JOURNAL_SUBDIR)
        .join(format!("{}.ndjson", sweep.short()))
}

fn record_sum(kind: &str, unit: &str, payload_text: &str) -> String {
    let mut h = Sha256::new();
    h.update_str(kind);
    h.update_str("\n");
    h.update_str(unit);
    h.update_str("\n");
    h.update_str(payload_text);
    h.finish().hex()
}

fn encode_record(kind: &str, unit: &str, payload_field: &str, payload: Json) -> String {
    let payload_text = payload.to_string();
    let sum = record_sum(kind, unit, &payload_text);
    // Assemble the line textually so the sum covers the exact payload
    // bytes on disk (the JSON writer is deterministic, but being literal
    // here keeps the invariant obvious).
    let mut line = String::with_capacity(payload_text.len() + unit.len() + 128);
    line.push_str("{\"type\":");
    line.push_str(&Json::Str(kind.to_string()).to_string());
    line.push_str(",\"unit\":");
    line.push_str(&Json::Str(unit.to_string()).to_string());
    line.push_str(",\"");
    line.push_str(payload_field);
    line.push_str("\":");
    line.push_str(&payload_text);
    line.push_str(",\"sum\":\"");
    line.push_str(&sum);
    line.push_str("\"}");
    line
}

/// One replayed journal record.
#[derive(Debug, Clone, PartialEq)]
enum Record {
    Done(String, DesignResult),
    Quarantined(String, PipelineError),
}

fn decode_record(line: &str) -> Option<Record> {
    let json = Json::parse(line).ok()?;
    let kind = json.get("type")?.as_str()?;
    let unit = json.get("unit")?.as_str()?;
    let sum = json.get("sum")?.as_str()?;
    match kind {
        "done" => {
            let payload = json.get("result")?;
            if record_sum("done", unit, &payload.to_string()) != sum {
                return None;
            }
            Some(Record::Done(
                unit.to_string(),
                decode_design_result(payload)?,
            ))
        }
        "quarantined" => {
            let payload = json.get("error")?;
            if record_sum("quarantined", unit, &payload.to_string()) != sum {
                return None;
            }
            Some(Record::Quarantined(
                unit.to_string(),
                decode_pipeline_error(payload)?,
            ))
        }
        _ => None,
    }
}

fn header_line(sweep: &ContentHash) -> String {
    format!(
        "{{\"type\":\"journal\",\"version\":{JOURNAL_VERSION},\"sweep\":\"{}\"}}",
        sweep.hex()
    )
}

fn header_matches(line: &str, sweep: &ContentHash) -> bool {
    let Ok(json) = Json::parse(line) else {
        return false;
    };
    json.get("type").and_then(Json::as_str) == Some("journal")
        && json.get("version").and_then(Json::as_u64) == Some(JOURNAL_VERSION)
        && json.get("sweep").and_then(Json::as_str) == Some(sweep.hex().as_str())
}

/// The replayable content of a sweep journal: settled units keyed by
/// unit label, plus accounting for how much of the file was valid.
#[derive(Debug, Default, Clone)]
pub struct JournalReplay {
    /// Units that completed, with their full results.
    pub done: BTreeMap<String, DesignResult>,
    /// Units that were permanently quarantined, with their errors.
    pub quarantined: BTreeMap<String, PipelineError>,
    /// Number of valid records replayed.
    pub records: u64,
    /// Torn / corrupt / trailing records that were not replayed.
    pub dropped: u64,
    /// Byte offset of the end of the last valid line — resume truncates
    /// the file here before appending.
    pub valid_bytes: u64,
    /// True when the file exists but is not a readable journal for this
    /// sweep (garbled or missing header, wrong version, wrong sweep key).
    /// A stale journal is never replayed or appended to; a fresh one is
    /// written in its place.
    pub stale: bool,
}

impl JournalReplay {
    /// Reads and validates the journal at `path` for `sweep`.
    /// A missing file yields an empty, non-stale replay.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub fn read(path: &Path, sweep: &ContentHash) -> io::Result<JournalReplay> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(JournalReplay::default());
            }
            Err(e) => return Err(e),
        };
        let mut replay = JournalReplay::default();
        let mut lines = text.split_inclusive('\n');
        match lines.next() {
            Some(header) if header.ends_with('\n') && header_matches(header.trim_end(), sweep) => {
                replay.valid_bytes = header.len() as u64;
            }
            // Garbled, foreign, or torn-before-one-record journal: unusable.
            _ => {
                replay.stale = true;
                return Ok(replay);
            }
        }
        for line in lines {
            let torn = !line.ends_with('\n');
            let decoded = if torn {
                None
            } else {
                decode_record(line.trim_end())
            };
            match decoded {
                Some(Record::Done(unit, result)) => {
                    replay.quarantined.remove(&unit);
                    replay.done.insert(unit, result);
                }
                Some(Record::Quarantined(unit, error)) => {
                    // A later `done` for the same unit wins (shard retry
                    // succeeded after a quarantine was journaled), and an
                    // already-done unit is never demoted.
                    if !replay.done.contains_key(&unit) {
                        replay.quarantined.insert(unit, error);
                    }
                }
                None => {
                    // First unreadable record: everything from here on is
                    // the torn tail. Count it and stop.
                    replay.dropped = text[replay.valid_bytes as usize..]
                        .split_inclusive('\n')
                        .filter(|l| !l.trim_end().is_empty())
                        .count() as u64;
                    return Ok(replay);
                }
            }
            replay.records += 1;
            replay.valid_bytes += line.len() as u64;
        }
        Ok(replay)
    }
}

/// An open, append-only sweep journal.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    file: Mutex<File>,
}

impl SweepJournal {
    /// Opens the journal for `sweep` under `store_dir`, creating the
    /// journal directory as needed.
    ///
    /// With `resume`, an existing valid journal is replayed, its torn
    /// tail (if any) truncated, and the file opened for append.
    /// Otherwise — or when the existing file is stale — a fresh journal
    /// with a new header is written (the replay is empty).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers degrade to an unjournaled
    /// sweep rather than failing.
    pub fn open(
        store_dir: &Path,
        sweep: &ContentHash,
        resume: bool,
    ) -> io::Result<(SweepJournal, JournalReplay)> {
        std::fs::create_dir_all(store_dir.join(JOURNAL_SUBDIR))?;
        let path = journal_path(store_dir, sweep);
        if resume {
            let replay = JournalReplay::read(&path, sweep)?;
            if !replay.stale && replay.valid_bytes > 0 {
                let file = OpenOptions::new().append(true).open(&path)?;
                file.set_len(replay.valid_bytes)?;
                file.sync_all()?;
                return Ok((
                    SweepJournal {
                        path,
                        file: Mutex::new(file),
                    },
                    replay,
                ));
            }
        }
        let mut file = File::create(&path)?;
        file.write_all(header_line(sweep).as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()?;
        file.sync_all()?;
        sync_dir(store_dir.join(JOURNAL_SUBDIR).as_path());
        Ok((
            SweepJournal {
                path,
                file: Mutex::new(file),
            },
            JournalReplay::default(),
        ))
    }

    /// Appends a `done` record for `unit`.
    ///
    /// # Errors
    ///
    /// Propagates write errors; the caller logs and continues (the sweep
    /// result is unaffected, only resumability degrades).
    pub fn append_done(&self, unit: &str, result: &DesignResult) -> io::Result<()> {
        self.append(encode_record(
            "done",
            unit,
            "result",
            encode_design_result(result),
        ))
    }

    /// Appends a `quarantined` record for `unit`.
    ///
    /// # Errors
    ///
    /// Propagates write errors; the caller logs and continues.
    pub fn append_quarantined(&self, unit: &str, error: &PipelineError) -> io::Result<()> {
        self.append(encode_record(
            "quarantined",
            unit,
            "error",
            encode_pipeline_error(error),
        ))
    }

    fn append(&self, line: String) -> io::Result<()> {
        crash_point(SITE_JOURNAL_APPEND);
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()?;
        file.sync_all()?;
        Ok(())
    }

    /// Deletes the journal file — called when a sweep finishes with no
    /// quarantined units, so nothing remains to resume. (A journal with
    /// quarantines is kept: a later `--resume` replays the identical
    /// errors instead of re-running known-bad units.)
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn remove(self) -> io::Result<()> {
        drop(self.file);
        std::fs::remove_file(&self.path)
    }

    /// The journal file path (for logs and tests).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The journal of one (core × subset) sweep, as `prism explore` and the
/// grid coordinator keep it: units are indexed in core-major order and
/// journaled under their Fig. 12 label. Journal I/O failures degrade to
/// an unjournaled sweep with a warning; they never fail the sweep.
#[derive(Debug)]
pub struct SweepLedger {
    labels: Vec<String>,
    journal: Option<SweepJournal>,
    replayed: Vec<Option<Result<DesignResult, PipelineError>>>,
    records: u64,
}

impl SweepLedger {
    /// Opens the ledger of the sweep of `cores` × `subsets` over
    /// `workloads` in the store at `dir`. `resume` is `None` for an
    /// unjournaled sweep, `Some(false)` for a fresh journal (replacing any
    /// earlier one) and `Some(true)` to replay the existing journal first.
    #[must_use]
    pub fn open(
        dir: &Path,
        workloads: &[&Workload],
        tracer: &TracerConfig,
        cores: &[CoreConfig],
        subsets: &[Vec<BsaKind>],
        resume: Option<bool>,
    ) -> SweepLedger {
        let labels: Vec<String> = cores
            .iter()
            .flat_map(|core| {
                subsets
                    .iter()
                    .map(|bsas| DesignPoint::new(core.clone(), bsas.clone()).label())
            })
            .collect();
        let mut ledger = SweepLedger {
            replayed: vec![None; labels.len()],
            labels,
            journal: None,
            records: 0,
        };
        let Some(resume) = resume else {
            return ledger;
        };
        let sizes: Vec<(String, u32)> = workloads
            .iter()
            .map(|w| (w.name.to_string(), w.scaled_n()))
            .collect();
        let sweep = sweep_key(&sizes, tracer, cores, subsets);
        let (journal, mut replay) = match SweepJournal::open(dir, &sweep, resume) {
            Ok(opened) => opened,
            Err(e) => {
                eprintln!("[prism-pipeline] sweep journal unavailable ({e}); running unjournaled");
                return ledger;
            }
        };
        if replay.dropped > 0 {
            eprintln!(
                "[prism-pipeline] journal: dropped {} torn/corrupt trailing record(s)",
                replay.dropped
            );
        }
        // Labels outside the space are ignored: the sweep key covers the
        // space, so only a colliding journal could hold one.
        for (slot, label) in ledger.replayed.iter_mut().zip(&ledger.labels) {
            let done = replay.done.remove(label).map(Ok);
            *slot = done.or_else(|| replay.quarantined.remove(label).map(Err));
        }
        ledger.records = replay.records;
        ledger.journal = Some(journal);
        ledger
    }

    /// The journal's outcome of each unit, in core-major order (`None`:
    /// the unit is still to be settled).
    #[must_use]
    pub fn replayed(&self) -> &[Option<Result<DesignResult, PipelineError>>] {
        &self.replayed
    }

    /// Valid journal records read by the replay.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The Fig. 12 label of unit `idx`.
    #[must_use]
    pub fn label(&self, idx: usize) -> &str {
        &self.labels[idx]
    }

    /// Journals unit `idx`'s final outcome. A result must already be
    /// saved in the store, so a `done` record always names a durable
    /// artifact. A failed append is logged: only resumability degrades.
    pub fn record(&self, idx: usize, outcome: Result<&DesignResult, &PipelineError>) {
        let Some(journal) = &self.journal else {
            return;
        };
        let appended = match outcome {
            Ok(result) => journal.append_done(&self.labels[idx], result),
            Err(error) => journal.append_quarantined(&self.labels[idx], error),
        };
        if let Err(e) = appended {
            eprintln!("[prism-pipeline] journal append failed: {e}");
        }
    }

    /// Closes the sweep: adds the replayed outcomes to `report` (which
    /// holds every other unit's), normalizes it, and removes the journal
    /// when no unit is quarantined. A journal with quarantines is kept, so
    /// `--resume` replays the identical errors instead of re-running
    /// known-bad units.
    #[must_use]
    pub fn finish(self, mut report: SweepReport) -> SweepReport {
        for (label, outcome) in self.labels.into_iter().zip(self.replayed) {
            match outcome {
                Some(Ok(result)) => report.results.push(result),
                Some(Err(error)) => report.quarantined.push((label, error)),
                None => {}
            }
        }
        report.normalize();
        if let Some(journal) = self.journal {
            if report.quarantined.is_empty() {
                if let Err(e) = journal.remove() {
                    eprintln!("[prism-pipeline] could not remove finished journal: {e}");
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_exocore::WorkloadMetrics;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "prism-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_result(label: &str) -> DesignResult {
        DesignResult {
            label: label.into(),
            core: "OOO2".into(),
            bsas: "SDN".into(),
            area_mm2: 7.25,
            per_workload: vec![WorkloadMetrics {
                workload: "stencil".into(),
                cycles: (1u64 << 53) + 3,
                energy: 1.0 / 3.0,
                unaccelerated: 0.125,
                unit_cycles: [10, 20, 30, 40, 50],
                unit_energy: [0.1, 0.2, 0.3, 0.4, 0.5],
            }],
        }
    }

    fn sample_error() -> PipelineError {
        PipelineError::store_io("fft", "disk on fire\nwhile writing")
    }

    fn sweep(tag: &str) -> ContentHash {
        let mut kb = KeyBuilder::new("test-sweep");
        kb.field("tag", tag);
        kb.finish()
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let dir = scratch("roundtrip");
        let sw = sweep("roundtrip");
        let (j, replay) = SweepJournal::open(&dir, &sw, false).unwrap();
        assert_eq!(replay.records, 0);
        j.append_done("OOO2-S", &sample_result("OOO2-S")).unwrap();
        j.append_quarantined("IO2-", &sample_error()).unwrap();
        j.append_done("OOO2-SD", &sample_result("OOO2-SD")).unwrap();
        drop(j);

        let replay = JournalReplay::read(&journal_path(&dir, &sw), &sw).unwrap();
        assert!(!replay.stale);
        assert_eq!(replay.records, 3);
        assert_eq!(replay.dropped, 0);
        assert_eq!(replay.done.len(), 2);
        assert_eq!(replay.done["OOO2-S"], sample_result("OOO2-S"));
        assert_eq!(replay.quarantined["IO2-"], sample_error());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_wins_over_quarantined_for_same_unit() {
        let dir = scratch("promote");
        let sw = sweep("promote");
        let (j, _) = SweepJournal::open(&dir, &sw, false).unwrap();
        j.append_quarantined("OOO2-S", &sample_error()).unwrap();
        j.append_done("OOO2-S", &sample_result("OOO2-S")).unwrap();
        drop(j);
        let replay = JournalReplay::read(&journal_path(&dir, &sw), &sw).unwrap();
        assert_eq!(replay.quarantined.len(), 0);
        assert_eq!(replay.done.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_replays_longest_valid_prefix() {
        // Property: for EVERY byte-length prefix of a valid journal, the
        // reader never panics and replays exactly the records whose full
        // lines survive.
        let dir = scratch("tail");
        let sw = sweep("tail");
        let (j, _) = SweepJournal::open(&dir, &sw, false).unwrap();
        j.append_done("u0", &sample_result("u0")).unwrap();
        j.append_quarantined("u1", &sample_error()).unwrap();
        j.append_done("u2", &sample_result("u2")).unwrap();
        drop(j);
        let path = journal_path(&dir, &sw);
        let full = std::fs::read(&path).unwrap();

        // Line boundaries: records become visible exactly at these offsets.
        let mut boundaries = vec![];
        for (i, &b) in full.iter().enumerate() {
            if b == b'\n' {
                boundaries.push(i + 1);
            }
        }
        assert_eq!(boundaries.len(), 4); // header + 3 records

        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay = JournalReplay::read(&path, &sw).unwrap();
            if cut < boundaries[0] {
                assert!(replay.stale, "cut={cut}: header incomplete");
                continue;
            }
            assert!(!replay.stale, "cut={cut}");
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(replay.records, complete as u64, "cut={cut}");
            assert_eq!(
                replay.done.len() + replay.quarantined.len(),
                complete,
                "cut={cut}"
            );
            // A torn partial line is reported as dropped.
            let torn = cut > *boundaries.iter().filter(|&&b| b <= cut).max().unwrap();
            assert_eq!(replay.dropped, u64::from(torn), "cut={cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_stops_replay_at_last_valid_line() {
        let dir = scratch("corrupt");
        let sw = sweep("corrupt");
        let (j, _) = SweepJournal::open(&dir, &sw, false).unwrap();
        j.append_done("u0", &sample_result("u0")).unwrap();
        j.append_done("u1", &sample_result("u1")).unwrap();
        drop(j);
        let path = journal_path(&dir, &sw);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte inside the *second* record.
        let second_start = {
            let mut nl = bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i);
            let _header = nl.next().unwrap();
            nl.next().unwrap() + 1
        };
        bytes[second_start + 40] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let replay = JournalReplay::read(&path, &sw).unwrap();
        assert!(!replay.stale);
        assert_eq!(replay.records, 1);
        assert_eq!(replay.dropped, 1);
        assert!(replay.done.contains_key("u0"));
        assert!(!replay.done.contains_key("u1"));

        // A line nested too deep to parse ends replay the same way.
        let valid = usize::try_from(replay.valid_bytes).unwrap();
        bytes.truncate(valid);
        bytes.extend("[".repeat(60_000).bytes());
        bytes.push(b'\n');
        std::fs::write(&path, &bytes).unwrap();
        let replay = JournalReplay::read(&path, &sw).unwrap();
        assert_eq!((replay.records, replay.dropped), (1, 1));
        assert!(replay.done.contains_key("u0"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_sweep_or_version_is_stale() {
        let dir = scratch("stale");
        let sw = sweep("stale-a");
        let (j, _) = SweepJournal::open(&dir, &sw, false).unwrap();
        j.append_done("u0", &sample_result("u0")).unwrap();
        drop(j);
        let path = journal_path(&dir, &sw);

        let other = sweep("stale-b");
        assert!(JournalReplay::read(&path, &other).unwrap().stale);

        let bumped = std::fs::read_to_string(&path)
            .unwrap()
            .replace(&format!("\"version\":{JOURNAL_VERSION}"), "\"version\":999");
        std::fs::write(&path, bumped).unwrap();
        assert!(JournalReplay::read(&path, &sw).unwrap().stale);

        std::fs::write(&path, "not json at all\n").unwrap();
        assert!(JournalReplay::read(&path, &sw).unwrap().stale);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_open_truncates_torn_tail_then_appends() {
        let dir = scratch("resume");
        let sw = sweep("resume");
        let (j, _) = SweepJournal::open(&dir, &sw, false).unwrap();
        j.append_done("u0", &sample_result("u0")).unwrap();
        j.append_done("u1", &sample_result("u1")).unwrap();
        drop(j);
        let path = journal_path(&dir, &sw);
        // Tear the last record mid-line.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();

        let (j, replay) = SweepJournal::open(&dir, &sw, true).unwrap();
        assert_eq!(replay.records, 1);
        assert!(replay.done.contains_key("u0"));
        j.append_done("u2", &sample_result("u2")).unwrap();
        drop(j);

        let replay = JournalReplay::read(&path, &sw).unwrap();
        assert_eq!(replay.records, 2);
        assert_eq!(replay.dropped, 0);
        assert!(replay.done.contains_key("u0") && replay.done.contains_key("u2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_open_ignores_existing_journal_without_resume() {
        let dir = scratch("fresh");
        let sw = sweep("fresh");
        let (j, _) = SweepJournal::open(&dir, &sw, false).unwrap();
        j.append_done("u0", &sample_result("u0")).unwrap();
        drop(j);
        let (_j, replay) = SweepJournal::open(&dir, &sw, false).unwrap();
        assert_eq!(replay.records, 0);
        assert!(replay.done.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_the_file() {
        let dir = scratch("remove");
        let sw = sweep("remove");
        let (j, _) = SweepJournal::open(&dir, &sw, false).unwrap();
        let path = j.path().to_path_buf();
        assert!(path.exists());
        j.remove().unwrap();
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A two-unit space (OOO2 bare and OOO2-S) over one workload.
    fn ledger_space() -> (Vec<&'static Workload>, Vec<CoreConfig>, Vec<Vec<BsaKind>>) {
        (
            vec![&prism_workloads::MICRO[0]],
            vec![CoreConfig::ooo2()],
            vec![vec![], vec![BsaKind::Simd]],
        )
    }

    fn open_ledger(dir: &Path, resume: Option<bool>) -> SweepLedger {
        let (workloads, cores, subsets) = ledger_space();
        SweepLedger::open(
            dir,
            &workloads,
            &TracerConfig::default(),
            &cores,
            &subsets,
            resume,
        )
    }

    fn ledger_path(dir: &Path) -> PathBuf {
        let (workloads, cores, subsets) = ledger_space();
        let sizes: Vec<(String, u32)> = workloads
            .iter()
            .map(|w| (w.name.to_string(), w.scaled_n()))
            .collect();
        journal_path(
            dir,
            &sweep_key(&sizes, &TracerConfig::default(), &cores, &subsets),
        )
    }

    #[test]
    fn unjournaled_ledger_writes_no_file() {
        let dir = scratch("ledger-none");
        let ledger = open_ledger(&dir, None);
        assert_eq!(ledger.label(1), "OOO2-S");
        ledger.record(0, Ok(&sample_result("OOO2")));
        let report = ledger.finish(SweepReport::healthy(vec![sample_result("OOO2")]));
        assert_eq!(report.results.len(), 1);
        assert!(!dir.join(JOURNAL_SUBDIR).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_replay_fills_slots_by_label() {
        let dir = scratch("ledger-replay");
        let ledger = open_ledger(&dir, Some(false));
        ledger.record(1, Err(&sample_error()));
        ledger.record(0, Ok(&sample_result("OOO2")));
        drop(ledger);
        // A label outside the space is read but fills no slot.
        let path = ledger_path(&dir);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&encode_record(
            "done",
            "IO2-S",
            "result",
            encode_design_result(&sample_result("IO2-S")),
        ));
        text.push('\n');
        std::fs::write(&path, text).unwrap();

        let ledger = open_ledger(&dir, Some(true));
        assert_eq!(ledger.records(), 3);
        assert_eq!(
            ledger.replayed(),
            [Some(Ok(sample_result("OOO2"))), Some(Err(sample_error()))]
        );
        // Without `resume`, the journal starts over.
        assert!(open_ledger(&dir, Some(false))
            .replayed()
            .iter()
            .all(Option::is_none));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_finish_removes_the_journal_only_without_quarantines() {
        let dir = scratch("ledger-finish");
        let path = ledger_path(&dir);
        let healthy = open_ledger(&dir, Some(false))
            .finish(SweepReport::healthy(vec![sample_result("OOO2")]));
        assert!(healthy.quarantined.is_empty());
        assert!(!path.exists(), "a clean finish removes the journal");

        let ledger = open_ledger(&dir, Some(false));
        ledger.record(1, Err(&sample_error()));
        let mut report = SweepReport::healthy(vec![sample_result("OOO2")]);
        report
            .quarantined
            .push((ledger.label(1).to_string(), sample_error()));
        let _ = ledger.finish(report);
        assert!(path.exists(), "a quarantine keeps the journal");

        // A replayed quarantine counts too: the ledger adds it.
        let resumed = open_ledger(&dir, Some(true));
        let report = resumed.finish(SweepReport::healthy(vec![sample_result("OOO2")]));
        assert_eq!(report.quarantined, [("OOO2-S".to_string(), sample_error())]);
        assert!(path.exists(), "a replayed quarantine keeps the journal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_key_separates_configurations() {
        let wl = vec![("stencil".to_string(), 2200u32)];
        let tracer = TracerConfig::default();
        let cores = vec![prism_udg::CoreConfig::ooo2()];
        let subsets = vec![vec![], vec![BsaKind::Simd]];
        let a = sweep_key(&wl, &tracer, &cores, &subsets);
        assert_eq!(a, sweep_key(&wl, &tracer, &cores, &subsets));
        let wl2 = vec![("stencil".to_string(), 4400u32)];
        assert_ne!(a, sweep_key(&wl2, &tracer, &cores, &subsets));
        let subsets2 = vec![vec![], vec![BsaKind::NsDf]];
        assert_ne!(a, sweep_key(&wl, &tracer, &cores, &subsets2));
    }
}
