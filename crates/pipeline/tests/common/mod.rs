//! Shared by the pipeline's integration tests.

use std::path::{Path, PathBuf};

/// A fresh artifact-store directory under the system temp dir, named
/// after the test binary, the process and `tag`, and removed when
/// dropped (also when its test fails), so a test run leaves no store
/// behind.
pub struct Store(PathBuf);

impl Store {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "prism-{}-{}-{tag}",
            env!("CARGO_CRATE_NAME"),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Store(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
