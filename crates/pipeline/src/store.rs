//! The on-disk artifact store: one JSON file per content hash, with the
//! key, schema version, and a payload checksum embedded so stale or corrupt
//! files are *detected* and discarded with a warning — never silently
//! reused and never a panic.
//!
//! Durability follows from an artifact's role. Every put writes a private
//! tmp file and renames it over the final name, so a concurrent reader
//! sees the old file or the new one, never a torn one. A design result —
//! what a rerun settles from, and what a journal `done` record names — is
//! fsynced before the rename and its directory after it, so a power loss
//! loses at most the artifact being written. A trace-walk timing, a cache,
//! skips that fsync pair: after a power loss it may be empty or torn under
//! its final name, and then its checksum fails, the load is a miss, and
//! the walk is done again.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::crash::{crash_point, SITE_STORE_PUT};
use crate::fault::FaultPlan;
use crate::hash::{ContentHash, Sha256};
use crate::json::Json;
use crate::key::SCHEMA_VERSION;

/// Transient-I/O retry attempts per store operation.
const IO_ATTEMPTS: u32 = 3;

/// Minimum age of an orphaned `*.tmp.*` file before opportunistic GC on
/// session open removes it. A live writer holds its tmp file for
/// milliseconds; anything this old with a dead (or unknown) pid is a
/// crash leftover. `fsck` uses a zero window instead — it runs offline.
pub const GC_SAFETY_WINDOW: Duration = Duration::from_secs(15 * 60);

/// Backoff before retry `n` (n = 1, 2): 1ms, then 4ms.
fn backoff(attempt: u32) -> std::time::Duration {
    std::time::Duration::from_millis(1 << (2 * (attempt - 1)))
}

/// Hit/miss counters for one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifacts served from disk.
    pub hits: u64,
    /// Keys with no artifact on disk.
    pub misses: u64,
    /// Corrupt or stale files discarded (each also counts as a miss).
    pub discarded: u64,
    /// Transient I/O failures that were retried.
    pub io_retries: u64,
    /// Operations that kept failing after all retries.
    pub io_errors: u64,
    /// Artifacts computed fresh and written back (each save is one
    /// recompute — a warm store saves nothing).
    pub recomputes: u64,
    /// Bytes reclaimed by garbage-collecting orphaned tmp files.
    pub gc_reclaimed_bytes: u64,
}

/// What an artifact is to a rerun, which decides how durably
/// [`ArtifactStore::put`] writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArtifactRole {
    /// A design result: a rerun settles from it and a journal `done`
    /// record names it, so the put fsyncs the file before the rename and
    /// the directory after it.
    Result,
    /// A trace-walk timing: a rerun can recompute it, and nothing names
    /// it, so the put renames it into place without the fsync pair.
    Cache,
}

/// A content-addressed artifact directory.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    faults: Option<Arc<FaultPlan>>,
    cap_bytes: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    discarded: AtomicU64,
    io_retries: AtomicU64,
    io_errors: AtomicU64,
    recomputes: AtomicU64,
    gc_reclaimed: AtomicU64,
}

impl ArtifactStore {
    /// Opens (and lazily creates) a store under `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ArtifactStore {
            dir: dir.into(),
            faults: None,
            cap_bytes: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            io_retries: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            recomputes: AtomicU64::new(0),
            gc_reclaimed: AtomicU64::new(0),
        }
    }

    /// Installs (or clears) the fault-injection plan for this store.
    pub fn set_faults(&mut self, faults: Option<Arc<FaultPlan>>) {
        self.faults = faults;
    }

    /// Caps the store's artifact bytes: after every put, least-recently-
    /// used artifacts are evicted until the store fits
    /// ([`enforce_cap`](Self::enforce_cap)). `None` removes the cap.
    pub fn set_cap(&mut self, cap_bytes: Option<u64>) {
        self.cap_bytes = cap_bytes;
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &ContentHash) -> PathBuf {
        self.dir.join(format!("{}.json", key.short()))
    }

    /// Loads the payload stored under `key`, or `None` on a miss. Corrupt
    /// files and key/schema mismatches are deleted with a warning and
    /// reported as misses. Transient I/O errors are retried with bounded
    /// backoff; if they persist, the load degrades to a miss (recompute)
    /// rather than failing the pipeline.
    pub fn load(&self, key: &ContentHash) -> Option<Json> {
        let op = format!("load:{}", key.short());
        match self.with_retry(&op, |site| self.try_load(key, site)) {
            Ok(found) => found,
            Err(e) => {
                eprintln!(
                    "[prism-pipeline] artifact load {} failed after {IO_ATTEMPTS} attempts: {e}",
                    self.path_for(key).display()
                );
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// One load attempt: reads, (optionally) injects corruption, validates.
    /// `site` names this attempt for deterministic fault injection.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error for anything other than
    /// file-not-found (which is an `Ok(None)` miss).
    pub fn try_load(&self, key: &ContentHash, site: &str) -> std::io::Result<Option<Json>> {
        if let Some(f) = &self.faults {
            if f.store_io_error(site) {
                return Err(std::io::Error::other(format!(
                    "injected I/O fault at {site}"
                )));
            }
        }
        let path = self.path_for(key);
        let mut text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        if let Some(f) = &self.faults {
            if f.corrupt_artifact(site) {
                text = f.corrupt_text(site, &text);
            }
        }
        match Self::validate(&text, key) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.touch(&path);
                Ok(Some(payload))
            }
            Err(why) => {
                eprintln!(
                    "[prism-pipeline] discarding stale/corrupt artifact {}: {why}",
                    path.display()
                );
                let _ = std::fs::remove_file(&path);
                self.discarded.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
        }
    }

    /// Runs `attempt` up to [`IO_ATTEMPTS`] times with backoff, passing a
    /// per-attempt site string (`<op>:try<N>`) so deterministic fault
    /// injection can fail early attempts and let a retry succeed.
    fn with_retry<T>(
        &self,
        op: &str,
        mut attempt: impl FnMut(&str) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut last = None;
        for n in 0..IO_ATTEMPTS {
            match attempt(&format!("{op}:try{n}")) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    last = Some(e);
                    if n + 1 < IO_ATTEMPTS {
                        self.io_retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(backoff(n + 1));
                    }
                }
            }
        }
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        Err(last.expect("at least one attempt ran"))
    }

    /// The payload of envelope `text` if [`check_envelope`] accepts it
    /// and it embeds `key`.
    fn validate(text: &str, key: &ContentHash) -> Result<Json, String> {
        let (embedded, payload) = check_envelope(text)?;
        if embedded != *key {
            return Err("content key mismatch (hash prefix collision or stale file)".into());
        }
        Ok(payload)
    }

    /// Stores the result `payload` under `key`, durably: the file is
    /// fsynced before its rename and the directory after it. Transient
    /// I/O failures are retried with bounded backoff; persistent failures
    /// are reported as warnings, not errors: a read-only cache degrades to
    /// recompute-every-time.
    pub fn save(&self, key: &ContentHash, payload: Json) {
        self.put(key, payload, ArtifactRole::Result);
    }

    /// Stores `payload` under `key` with the durability its `role` needs,
    /// retrying and warning as [`save`](Self::save) does.
    pub(crate) fn put(&self, key: &ContentHash, payload: Json, role: ArtifactRole) {
        let sum = payload_sum(&payload.to_string());
        let doc = Json::Obj(vec![
            ("schema".into(), Json::U64(u64::from(SCHEMA_VERSION))),
            ("key".into(), Json::Str(key.hex())),
            ("sum".into(), Json::Str(sum)),
            ("payload".into(), payload),
        ]);
        let op = format!("save:{}", key.short());
        self.recomputes.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.with_retry(&op, |site| self.try_put(key, &doc, role, site)) {
            eprintln!(
                "[prism-pipeline] failed to store artifact {} after {IO_ATTEMPTS} attempts: {e}",
                self.path_for(key).display()
            );
        } else {
            self.enforce_cap();
        }
    }

    /// Bumps an artifact's mtime — the LRU recency signal — on a load
    /// hit. Only capped stores pay the extra syscall; failures are
    /// ignored (recency then degrades toward FIFO, never to an error).
    fn touch(&self, path: &Path) {
        if self.cap_bytes.is_none() {
            return;
        }
        if let Ok(f) = std::fs::File::options().append(true).open(path) {
            let _ =
                f.set_times(std::fs::FileTimes::new().set_modified(std::time::SystemTime::now()));
        }
    }

    /// Evicts least-recently-used artifacts until the store's `.json`
    /// bytes fit under the cap; a no-op without one. Mtime is the recency
    /// signal (capped stores touch artifacts on every load hit). Journals
    /// and quarantined files live in subdirectories, so only top-level
    /// artifacts are ever evicted. Returns
    /// `(files_evicted, bytes_reclaimed)` and folds the bytes into
    /// [`StoreStats::gc_reclaimed_bytes`].
    pub fn enforce_cap(&self) -> (u64, u64) {
        let Some(cap) = self.cap_bytes else {
            return (0, 0);
        };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return (0, 0);
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        let mut total = 0u64;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.ends_with(".json") {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            total += meta.len();
            files.push((mtime, entry.path(), meta.len()));
        }
        if total <= cap {
            return (0, 0);
        }
        // Path is the tiebreak, so eviction order is deterministic even
        // when a burst of puts lands within the filesystem's mtime
        // granularity.
        files.sort();
        let mut evicted = 0u64;
        let mut bytes = 0u64;
        for (_, path, len) in files {
            if total <= cap {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= len;
                evicted += 1;
                bytes += len;
            }
        }
        self.gc_reclaimed.fetch_add(bytes, Ordering::Relaxed);
        (evicted, bytes)
    }

    /// One put attempt. `site` names this attempt for deterministic fault
    /// injection.
    ///
    /// # Errors
    ///
    /// Returns the underlying (or injected) I/O error.
    fn try_put(
        &self,
        key: &ContentHash,
        doc: &Json,
        role: ArtifactRole,
        site: &str,
    ) -> std::io::Result<()> {
        if let Some(f) = &self.faults {
            if f.store_io_error(site) {
                return Err(std::io::Error::other(format!(
                    "injected I/O fault at {site}"
                )));
            }
        }
        self.write(&self.path_for(key), doc.to_string().as_bytes(), role)
    }

    /// The put protocol of [`put`](Self::put): write-then-rename so
    /// concurrent readers never see a torn file, with the fsync pair for a
    /// [`Result`](ArtifactRole::Result) only. The tmp name embeds (pid,
    /// sequence) so the store is safe to share between grid worker
    /// processes *and* between threads of one process racing on the same
    /// key: every writer gets a private tmp file, and the rename is atomic
    /// per key.
    fn write(&self, path: &Path, bytes: &[u8], role: ArtifactRole) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        let durable = role == ArtifactRole::Result;
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            // fsync *before* the rename: once the final name exists, its
            // content must already be on stable storage — otherwise a
            // crash can surface an empty/torn file under the final name.
            if durable {
                f.sync_all()?;
            }
        }
        crash_point(SITE_STORE_PUT);
        std::fs::rename(&tmp, path)?;
        // And fsync the directory *after* the rename so the new entry
        // itself survives power loss.
        if durable {
            sync_dir(&self.dir);
        }
        Ok(())
    }

    /// Whether an artifact file exists under `key` (no validation — a
    /// cheap membership probe before storing a result another host
    /// computed).
    #[must_use]
    pub fn contains(&self, key: &ContentHash) -> bool {
        self.path_for(key).exists()
    }

    /// Removes orphaned `*.tmp.<pid>.<seq>` files left behind by killed
    /// writer processes. Skips the calling process's own tmp files, any
    /// whose writing pid is still alive, and (as a belt-and-braces against
    /// pid reuse and clock skew) any younger than `window`. Returns
    /// `(files_removed, bytes_reclaimed)` and folds the bytes into
    /// [`StoreStats::gc_reclaimed_bytes`].
    pub fn gc_tmp_files(&self, window: Duration) -> (u64, u64) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return (0, 0);
        };
        let mut files = 0u64;
        let mut bytes = 0u64;
        let now = std::time::SystemTime::now();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(pid) = tmp_file_pid(name) else {
                continue;
            };
            if pid == std::process::id() || pid_alive(pid) {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let old_enough = meta
                .modified()
                .ok()
                .and_then(|m| now.duration_since(m).ok())
                .is_some_and(|age| age >= window);
            if !(old_enough || window.is_zero()) {
                continue;
            }
            if std::fs::remove_file(entry.path()).is_ok() {
                files += 1;
                bytes += meta.len();
            }
        }
        self.gc_reclaimed.fetch_add(bytes, Ordering::Relaxed);
        (files, bytes)
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            recomputes: self.recomputes.load(Ordering::Relaxed),
            gc_reclaimed_bytes: self.gc_reclaimed.load(Ordering::Relaxed),
        }
    }
}

/// Fsyncs a directory so a just-created/renamed entry survives power
/// loss. Directory fsync is a unix concept; elsewhere this is a no-op.
/// Errors are swallowed: some filesystems reject directory fsync, and a
/// failed dir sync only widens the crash window, never corrupts.
pub(crate) fn sync_dir(dir: &Path) {
    #[cfg(unix)]
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    #[cfg(not(unix))]
    let _ = dir;
}

/// SHA-256 hex of a serialized payload — the `sum` envelope field.
fn payload_sum(payload_text: &str) -> String {
    let mut h = Sha256::new();
    h.update_str(payload_text);
    h.finish().hex()
}

/// Checks one artifact file's text against the only envelope the store
/// writes, `{schema, key, sum, payload}`: schema [`SCHEMA_VERSION`], a
/// full-length hex `key`, and a `sum` that matches the payload. Returns
/// the embedded key and the payload. The store compares the key with the
/// one it asked for, fsck with the file name.
pub(crate) fn check_envelope(text: &str) -> Result<(ContentHash, Json), String> {
    let doc = Json::parse(text).map_err(|e| format!("unparseable: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or("missing schema field")?;
    if schema != u64::from(SCHEMA_VERSION) {
        return Err(format!("schema {schema} is not {SCHEMA_VERSION}"));
    }
    let key = doc
        .get("key")
        .and_then(Json::as_str)
        .ok_or("missing key field")?;
    let key = ContentHash::from_hex(key).ok_or("malformed embedded key")?;
    let sum = doc
        .get("sum")
        .and_then(Json::as_str)
        .ok_or("missing sum field")?;
    let payload = doc.get("payload").ok_or("missing payload field")?;
    if payload_sum(&payload.to_string()) != sum {
        return Err("payload checksum mismatch (bit rot or torn write)".into());
    }
    Ok((key, payload.clone()))
}

/// Extracts the writing pid from a store tmp-file name
/// (`<short>.tmp.<pid>.<seq>`); `None` for anything else.
pub(crate) fn tmp_file_pid(name: &str) -> Option<u32> {
    let (_, rest) = name.split_once(".tmp.")?;
    let (pid, seq) = rest.split_once('.')?;
    // Both components must be pure integers — refuse to match files that
    // merely contain ".tmp." somewhere in an unrelated name.
    seq.parse::<u64>().ok()?;
    pid.parse().ok()
}

/// Whether a process with this pid is currently running. On Linux this
/// checks `/proc`; elsewhere it conservatively answers `true`, so GC
/// falls back to the age window alone.
fn pid_alive(pid: u32) -> bool {
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("prism-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::new(dir)
    }

    fn key(tag: &str) -> ContentHash {
        let mut kb = KeyBuilder::new("test");
        kb.field("tag", tag);
        kb.finish()
    }

    #[test]
    fn save_load_roundtrip_and_counters() {
        let store = temp_store("roundtrip");
        let k = key("a");
        assert_eq!(store.load(&k), None);
        let payload = Json::Obj(vec![("x".into(), Json::U64(7))]);
        store.save(&k, payload.clone());
        assert_eq!(store.load(&k), Some(payload));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.discarded), (1, 1, 0));
        assert_eq!(s.recomputes, 1, "each save counts as one recompute");
    }

    #[test]
    fn corrupt_files_are_discarded_not_fatal() {
        let store = temp_store("corrupt");
        let k = key("b");
        store.save(&k, Json::Null);
        let path = store.path_for(&k);
        std::fs::write(&path, "{ not json").unwrap();
        assert_eq!(store.load(&k), None);
        assert!(!path.exists(), "corrupt file should be deleted");
        assert_eq!(store.stats().discarded, 1);
        // Nesting too deep to parse is corrupt too, not a stack overflow.
        std::fs::write(&path, "[".repeat(60_000)).unwrap();
        assert_eq!(store.load(&k), None);
        assert!(!path.exists(), "deeply nested file should be deleted");
        assert_eq!(store.stats().discarded, 2);
    }

    #[test]
    fn schema_bump_invalidates() {
        let store = temp_store("schema");
        let k = key("c");
        store.save(&k, Json::U64(1));
        // Rewrite with a wrong schema version.
        let doc = Json::Obj(vec![
            ("schema".into(), Json::U64(u64::from(SCHEMA_VERSION) + 1)),
            ("key".into(), Json::Str(k.hex())),
            ("payload".into(), Json::U64(1)),
        ]);
        std::fs::write(store.path_for(&k), doc.to_string()).unwrap();
        assert_eq!(store.load(&k), None);
        assert_eq!(store.stats().discarded, 1);
        // The envelopes older builds wrote are discarded too.
        for (i, old) in legacy_envelopes(&k).iter().enumerate() {
            std::fs::write(store.path_for(&k), old).unwrap();
            assert_eq!(store.load(&k), None, "{old}");
            assert_eq!(store.stats().discarded, 2 + i as u64);
        }
    }

    /// The envelopes older builds wrote, both invalid now: schema 1 (with
    /// a valid `sum`, so only the schema rejects it) and schema 2 without
    /// a `sum`.
    fn legacy_envelopes(k: &ContentHash) -> [String; 2] {
        let payload = Json::U64(42);
        let v1 = Json::Obj(vec![
            ("schema".into(), Json::U64(1)),
            ("key".into(), Json::Str(k.hex())),
            ("sum".into(), Json::Str(payload_sum(&payload.to_string()))),
            ("payload".into(), payload.clone()),
        ]);
        let unsummed = Json::Obj(vec![
            ("schema".into(), Json::U64(u64::from(SCHEMA_VERSION))),
            ("key".into(), Json::Str(k.hex())),
            ("payload".into(), payload),
        ]);
        [v1.to_string(), unsummed.to_string()]
    }

    #[test]
    fn key_mismatch_invalidates() {
        let store = temp_store("keymismatch");
        let k1 = key("d");
        let k2 = key("e");
        store.save(&k1, Json::U64(1));
        // Copy k1's file over k2's slot: embedded key no longer matches.
        std::fs::copy(store.path_for(&k1), store.path_for(&k2)).unwrap();
        assert_eq!(store.load(&k2), None);
        assert_eq!(store.stats().discarded, 1);
    }

    #[test]
    fn injected_io_faults_are_retried_and_degrade_to_miss() {
        let mut store = temp_store("iofault");
        let k = key("f");
        store.save(&k, Json::U64(9));
        // Certain I/O failure: every attempt fails, so loads degrade to
        // misses and saves warn — but nothing panics or errors out.
        store.set_faults(Some(Arc::new(FaultPlan::seeded(3).with_store_io(1.0))));
        assert_eq!(store.load(&k), None);
        let s = store.stats();
        assert_eq!(s.io_errors, 1);
        assert_eq!(s.io_retries, (IO_ATTEMPTS - 1) as u64);
        assert_eq!(s.misses, 1);
        // Clearing the plan restores normal service: the artifact survived.
        store.set_faults(None);
        assert_eq!(store.load(&k), Some(Json::U64(9)));
    }

    #[test]
    fn intermittent_io_fault_recovers_via_retry() {
        // p = 0.5: with 3 attempts per op and per-attempt sites, some seed
        // fails try0 but passes a later try. Find one deterministically.
        let k = key("g");
        let mut hit_retry_path = false;
        for seed in 0..64 {
            let plan = FaultPlan::seeded(seed).with_store_io(0.5);
            let fails_first = plan.store_io_error(&format!("load:{}:try0", k.short()));
            let passes_later = !plan.store_io_error(&format!("load:{}:try1", k.short()))
                || !plan.store_io_error(&format!("load:{}:try2", k.short()));
            if fails_first && passes_later {
                let mut store = temp_store(&format!("flaky{seed}"));
                store.save(&k, Json::U64(5));
                store.set_faults(Some(Arc::new(plan)));
                assert_eq!(store.load(&k), Some(Json::U64(5)), "seed {seed}");
                let s = store.stats();
                assert!(s.io_retries >= 1, "seed {seed}: {s:?}");
                assert_eq!(s.io_errors, 0, "seed {seed}: {s:?}");
                hit_retry_path = true;
                break;
            }
        }
        assert!(hit_retry_path, "no seed in 0..64 exercised the retry path");
    }

    #[test]
    fn saved_files_carry_a_payload_checksum() {
        let store = temp_store("sum");
        let k = key("sum");
        store.save(&k, Json::Obj(vec![("x".into(), Json::F64(1.0 / 3.0))]));
        let text = std::fs::read_to_string(store.path_for(&k)).unwrap();
        let doc = Json::parse(&text).unwrap();
        let sum = doc.get("sum").and_then(Json::as_str).unwrap();
        assert_eq!(sum.len(), 64);
        assert_eq!(sum, payload_sum(&doc.get("payload").unwrap().to_string()));
    }

    #[test]
    fn bit_flipped_payload_is_discarded_by_checksum() {
        let store = temp_store("bitflip");
        let k = key("bitflip");
        store.save(&k, Json::Obj(vec![("cycles".into(), Json::U64(12345))]));
        let path = store.path_for(&k);
        // Flip one digit inside the payload: still valid JSON, same shape,
        // same embedded key — only the checksum can catch it.
        let text = std::fs::read_to_string(&path).unwrap();
        let flipped = text.replace("12345", "12346");
        assert_ne!(text, flipped, "payload digit must appear in the file");
        std::fs::write(&path, flipped).unwrap();
        assert_eq!(store.load(&k), None);
        assert_eq!(store.stats().discarded, 1);
        assert!(!path.exists(), "corrupt artifact should be deleted");
    }

    #[test]
    fn tmp_file_pid_parses_only_store_tmp_names() {
        assert_eq!(tmp_file_pid("0123456789abcdef.tmp.4242.7"), Some(4242));
        assert_eq!(tmp_file_pid("0123456789abcdef.json"), None);
        assert_eq!(tmp_file_pid("x.tmp.notapid.7"), None);
        assert_eq!(tmp_file_pid("x.tmp.42.notaseq"), None);
        assert_eq!(tmp_file_pid("x.tmp.42"), None);
    }

    #[test]
    fn gc_removes_dead_pid_tmp_files_and_keeps_own() {
        let store = temp_store("gc");
        std::fs::create_dir_all(store.dir()).unwrap();
        // A pid beyond linux's pid_max can never be alive.
        let dead = store.dir().join("aaaabbbbccccdddd.tmp.999999999.0");
        std::fs::write(&dead, "orphan").unwrap();
        let own = store
            .dir()
            .join(format!("aaaabbbbccccdddd.tmp.{}.1", std::process::id()));
        std::fs::write(&own, "live").unwrap();
        let plain = store.dir().join("aaaabbbbccccdddd.json");
        std::fs::write(&plain, "artifact").unwrap();

        let (files, bytes) = store.gc_tmp_files(Duration::ZERO);
        assert_eq!(files, 1);
        assert_eq!(bytes, "orphan".len() as u64);
        assert!(!dead.exists());
        assert!(own.exists(), "own pid's tmp file must survive");
        assert!(plain.exists(), "final artifacts must survive");
        assert_eq!(store.stats().gc_reclaimed_bytes, bytes);

        // With a safety window, a *fresh* dead-pid file is left alone.
        std::fs::write(&dead, "orphan").unwrap();
        let (files, _) = store.gc_tmp_files(Duration::from_secs(3600));
        assert_eq!(files, 0);
        assert!(dead.exists());
    }

    /// Pins an artifact's mtime to a known instant so LRU ordering is
    /// independent of filesystem timestamp granularity.
    fn pin_mtime(store: &ArtifactStore, k: &ContentHash, secs: u64) {
        let f = std::fs::File::options()
            .append(true)
            .open(store.path_for(k))
            .unwrap();
        let t = std::time::UNIX_EPOCH + Duration::from_secs(secs);
        f.set_times(std::fs::FileTimes::new().set_modified(t))
            .unwrap();
    }

    #[test]
    fn lru_cap_evicts_oldest_artifacts_first() {
        let mut store = temp_store("lrucap");
        let (ka, kb, kc) = (key("lru-a"), key("lru-b"), key("lru-c"));
        store.save(&ka, Json::U64(1));
        store.save(&kb, Json::U64(2));
        store.save(&kc, Json::U64(3));
        pin_mtime(&store, &ka, 1_000_000);
        pin_mtime(&store, &kb, 1_000_100);
        pin_mtime(&store, &kc, 1_000_200);
        let size = std::fs::metadata(store.path_for(&ka)).unwrap().len();
        // Uncapped: enforce_cap is a no-op.
        assert_eq!(store.enforce_cap(), (0, 0));
        // Cap at two artifacts' bytes: only the oldest (a) must go.
        store.set_cap(Some(2 * size));
        let (files, bytes) = store.enforce_cap();
        assert_eq!((files, bytes), (1, size));
        assert!(!store.contains(&ka));
        assert!(store.contains(&kb) && store.contains(&kc));
        assert_eq!(store.stats().gc_reclaimed_bytes, bytes);
        // The next save re-enforces automatically: four minus cap leaves
        // two (the cap is checked after every put).
        store.save(&ka, Json::U64(1));
        pin_mtime(&store, &ka, 1_000_300);
        store.save(&key("lru-d"), Json::U64(4));
        let remaining = std::fs::read_dir(store.dir())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
            .count();
        assert_eq!(remaining, 2);
    }

    #[test]
    fn capped_load_refreshes_lru_recency() {
        let mut store = temp_store("lrutouch");
        let (ka, kb, kc) = (key("touch-a"), key("touch-b"), key("touch-c"));
        store.save(&ka, Json::U64(1));
        store.save(&kb, Json::U64(2));
        store.save(&kc, Json::U64(3));
        pin_mtime(&store, &ka, 1_000_000);
        pin_mtime(&store, &kb, 1_000_100);
        pin_mtime(&store, &kc, 1_000_200);
        let size = std::fs::metadata(store.path_for(&ka)).unwrap().len();
        store.set_cap(Some(2 * size));
        // A hit on the oldest artifact bumps its mtime past the others,
        // so the *second*-oldest (b) is evicted instead.
        assert_eq!(store.load(&ka), Some(Json::U64(1)));
        let (files, _) = store.enforce_cap();
        assert_eq!(files, 1);
        assert!(store.contains(&ka), "recently read artifact must survive");
        assert!(!store.contains(&kb));
        assert!(store.contains(&kc));
    }

    #[test]
    fn injected_corruption_hits_the_discard_path() {
        let mut store = temp_store("corruptfault");
        let k = key("h");
        store.save(&k, Json::U64(1));
        store.set_faults(Some(Arc::new(
            FaultPlan::seeded(1).with_artifact_corrupt(1.0),
        )));
        assert_eq!(store.load(&k), None);
        let s = store.stats();
        assert_eq!(s.discarded, 1);
        assert_eq!(s.io_errors, 0);
        // The corrupt file was deleted; a clean store now just misses.
        store.set_faults(None);
        assert_eq!(store.load(&k), None);
    }
}
