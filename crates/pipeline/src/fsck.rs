//! Offline store checker/repairer behind `prism fsck`: re-validates every
//! artifact against its embedded key and checksum, quarantines corrupt
//! files, garbage-collects orphaned tmp files, and removes unreadable
//! (stale) sweep journals.
//!
//! fsck is *conservative*: a corrupt artifact is moved into a
//! `quarantine/` subdirectory — never deleted — so a surprising result
//! can be inspected; valid journals are kept even when old, because they
//! may belong to an interrupted sweep someone intends to `--resume`.

use std::io;
use std::path::Path;
use std::time::Duration;

use crate::journal::{JOURNAL_SUBDIR, JOURNAL_VERSION};
use crate::json::Json;
use crate::store::{check_envelope, ArtifactStore};

/// Subdirectory of the store where fsck moves corrupt artifacts.
pub const QUARANTINE_SUBDIR: &str = "quarantine";

/// What one fsck pass found and repaired.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Artifact files examined.
    pub artifacts_checked: u64,
    /// Artifacts that validated cleanly.
    pub artifacts_ok: u64,
    /// File names moved to `quarantine/`, with the reason.
    pub corrupt: Vec<(String, String)>,
    /// Orphaned tmp files removed.
    pub tmp_removed: u64,
    /// Bytes reclaimed by tmp-file GC.
    pub tmp_bytes_reclaimed: u64,
    /// Unreadable journal files removed.
    pub stale_journals_removed: u64,
    /// Journal files kept (valid header; possibly resumable).
    pub journals_kept: u64,
}

impl FsckReport {
    /// True when no corruption was found (tmp/journal GC is routine
    /// repair, not corruption).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }

    /// Human-readable summary for the CLI.
    #[must_use]
    pub fn render(&self, dir: &Path) -> String {
        let mut out = String::new();
        out.push_str(&format!("fsck {}\n", dir.display()));
        out.push_str(&format!(
            "  artifacts: {} checked, {} ok, {} corrupt\n",
            self.artifacts_checked,
            self.artifacts_ok,
            self.corrupt.len()
        ));
        for (name, why) in &self.corrupt {
            out.push_str(&format!("    quarantined {name}: {why}\n"));
        }
        out.push_str(&format!(
            "  tmp files: {} removed ({} bytes reclaimed)\n",
            self.tmp_removed, self.tmp_bytes_reclaimed
        ));
        out.push_str(&format!(
            "  journals: {} kept, {} stale removed\n",
            self.journals_kept, self.stale_journals_removed
        ));
        out.push_str(if self.is_clean() {
            "  status: clean\n"
        } else {
            "  status: CORRUPTION FOUND (see quarantine/)\n"
        });
        out
    }
}

/// Validates one artifact file's text against its own file name.
/// Unlike the store's load path, fsck has no expected key — the
/// embedded key is checked against the file name instead.
fn check_artifact(name: &str, text: &str) -> Result<(), String> {
    let (key, _) = check_envelope(text)?;
    if name != format!("{}.json", key.short()) {
        return Err("file name does not match embedded key".into());
    }
    Ok(())
}

/// Whether a journal file starts with a readable, current-version header.
/// The sweep key is not checked — fsck doesn't know which sweeps are
/// still wanted; `--resume` makes that call per sweep.
fn journal_header_readable(text: &str) -> bool {
    let Some((first, _)) = text.split_once('\n') else {
        return false;
    };
    let Ok(json) = Json::parse(first) else {
        return false;
    };
    json.get("type").and_then(Json::as_str) == Some("journal")
        && json.get("version").and_then(Json::as_u64) == Some(JOURNAL_VERSION)
        && json
            .get("sweep")
            .and_then(Json::as_str)
            .is_some_and(|s| s.len() == 64)
}

/// Checks and repairs the store at `dir`.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal — a missing `dir` is a
/// `NotFound` error, not a clean store; per-file read errors quarantine
/// the file instead of aborting the pass.
pub fn run_fsck(dir: &Path) -> io::Result<FsckReport> {
    let mut report = FsckReport::default();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.ends_with(".json") || !entry.file_type()?.is_file() {
            continue;
        }
        report.artifacts_checked += 1;
        let verdict = match std::fs::read_to_string(entry.path()) {
            Ok(text) => check_artifact(name, &text),
            Err(e) => Err(format!("unreadable: {e}")),
        };
        match verdict {
            Ok(()) => report.artifacts_ok += 1,
            Err(why) => {
                let qdir = dir.join(QUARANTINE_SUBDIR);
                std::fs::create_dir_all(&qdir)?;
                std::fs::rename(entry.path(), qdir.join(name))?;
                report.corrupt.push((name.to_string(), why));
            }
        }
    }
    report.corrupt.sort();

    // fsck runs offline, so orphaned tmp files are GC'd with no age
    // window (live pids are still skipped).
    let store = ArtifactStore::new(dir);
    let (files, bytes) = store.gc_tmp_files(Duration::ZERO);
    report.tmp_removed = files;
    report.tmp_bytes_reclaimed = bytes;

    let journal_dir = dir.join(JOURNAL_SUBDIR);
    if journal_dir.exists() {
        for entry in std::fs::read_dir(&journal_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.ends_with(".ndjson") || !entry.file_type()?.is_file() {
                continue;
            }
            let readable = std::fs::read_to_string(entry.path())
                .map(|t| journal_header_readable(&t))
                .unwrap_or(false);
            if readable {
                report.journals_kept += 1;
            } else {
                std::fs::remove_file(entry.path())?;
                report.stale_journals_removed += 1;
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::ContentHash;
    use crate::journal::SweepJournal;
    use crate::key::KeyBuilder;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prism-fsck-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn key(tag: &str) -> ContentHash {
        let mut kb = KeyBuilder::new("fsck-test");
        kb.field("tag", tag);
        kb.finish()
    }

    #[test]
    fn missing_store_is_an_error() {
        let dir = scratch("missing");
        let err = run_fsck(&dir.join("does-not-exist")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_store_is_clean() {
        let dir = scratch("clean");
        let store = ArtifactStore::new(&dir);
        store.save(&key("a"), Json::U64(1));
        store.save(&key("b"), Json::U64(2));
        let report = run_fsck(&dir).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.artifacts_checked, 2);
        assert_eq!(report.artifacts_ok, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_artifact_is_detected_and_quarantined() {
        let dir = scratch("bitflip");
        let store = ArtifactStore::new(&dir);
        let k = key("victim");
        store.save(&k, Json::Obj(vec![("cycles".into(), Json::U64(777777))]));
        store.save(&key("innocent"), Json::U64(5));

        let path = dir.join(format!("{}.json", k.short()));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("777777", "777778")).unwrap();

        let report = run_fsck(&dir).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.artifacts_ok, 1);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].0, format!("{}.json", k.short()));
        assert!(report.corrupt[0].1.contains("checksum"), "{report:?}");
        assert!(!path.exists());
        assert!(dir
            .join(QUARANTINE_SUBDIR)
            .join(format!("{}.json", k.short()))
            .exists());
        // Rendered summary names the problem.
        let text = report.render(&dir);
        assert!(text.contains("CORRUPTION FOUND"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_tmp_files_are_removed_and_counted() {
        let dir = scratch("tmp");
        std::fs::write(dir.join("aaaabbbbccccdddd.tmp.999999999.3"), "orphan").unwrap();
        let own = dir.join(format!("aaaabbbbccccdddd.tmp.{}.4", std::process::id()));
        std::fs::write(&own, "live").unwrap();
        let report = run_fsck(&dir).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(report.tmp_bytes_reclaimed, "orphan".len() as u64);
        assert!(own.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_journals_are_removed_valid_ones_kept() {
        let dir = scratch("journals");
        let (j, _) = SweepJournal::open(&dir, &key("sweep"), false).unwrap();
        drop(j);
        std::fs::write(dir.join(JOURNAL_SUBDIR).join("garbled.ndjson"), "oops\n").unwrap();
        std::fs::write(dir.join(JOURNAL_SUBDIR).join("empty.ndjson"), "").unwrap();

        let report = run_fsck(&dir).unwrap();
        assert_eq!(report.journals_kept, 1);
        assert_eq!(report.stale_journals_removed, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_and_mismatched_files_quarantine_with_reason() {
        let dir = scratch("foreign");
        // Valid-looking name, content from a different key.
        let store = ArtifactStore::new(&dir);
        let k = key("original");
        store.save(&k, Json::U64(1));
        let other = dir.join("0000000000000000.json");
        std::fs::copy(dir.join(format!("{}.json", k.short())), &other).unwrap();
        // The envelopes older builds wrote: schema 1, and schema 2
        // without a `sum`.
        let path = |k: &ContentHash| dir.join(format!("{}.json", k.short()));
        let (v1, unsummed) = (key("v1"), key("unsummed"));
        store.save(&v1, Json::U64(2));
        store.save(&unsummed, Json::U64(3));
        let text = std::fs::read_to_string(path(&v1)).unwrap();
        std::fs::write(path(&v1), text.replace("\"schema\":2", "\"schema\":1")).unwrap();
        let text = std::fs::read_to_string(path(&unsummed)).unwrap();
        let Ok(Json::Obj(mut fields)) = Json::parse(&text) else {
            panic!("envelope is an object: {text}");
        };
        fields.retain(|(name, _)| name != "sum");
        std::fs::write(path(&unsummed), Json::Obj(fields).to_string()).unwrap();

        let report = run_fsck(&dir).unwrap();
        assert_eq!(report.artifacts_ok, 1, "{report:?}");
        assert_eq!(report.corrupt.len(), 3, "{report:?}");
        let reason = |name: String| {
            report
                .corrupt
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, why)| why.as_str())
        };
        assert!(reason("0000000000000000.json".into()).contains("file name"));
        assert!(reason(format!("{}.json", v1.short())).contains("schema 1"));
        assert!(reason(format!("{}.json", unsummed.short())).contains("missing sum"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
