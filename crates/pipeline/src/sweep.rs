//! Sweep results with failure isolation: a design-space sweep returns
//! every point it *could* evaluate plus a quarantine list naming the
//! points it could not, instead of aborting the whole batch on the first
//! failure.
//!
//! Reports from independent shards (e.g. the `prism-grid` worker fleet)
//! combine with [`SweepReport::merge`]: a unit that failed on one shard
//! but succeeded on another counts as *recovered* — its result is kept
//! and its first error moves to [`SweepReport::recovered`] instead of the
//! permanent quarantine list.

use std::collections::BTreeSet;

use prism_exocore::DesignResult;

use crate::codec::encode_design_result;
use crate::error::PipelineError;
use crate::hash::{ContentHash, Sha256};

/// The outcome of a fault-isolated design-space sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepReport {
    /// Successfully evaluated design points.
    pub results: Vec<DesignResult>,
    /// `(key, error)` for every permanently quarantined unit. Keys are
    /// `workload:<name>` for whole-workload failures and the design-point
    /// label (e.g. `OOO2-SDN`) for per-point failures.
    pub quarantined: Vec<(String, PipelineError)>,
    /// `(key, error)` for units that failed at least once but succeeded
    /// on a retry (their result is in [`SweepReport::results`]; the error
    /// recorded here is from the failed attempt).
    pub recovered: Vec<(String, PipelineError)>,
}

impl SweepReport {
    /// A fully healthy report.
    #[must_use]
    pub fn healthy(results: Vec<DesignResult>) -> Self {
        SweepReport {
            results,
            quarantined: Vec::new(),
            recovered: Vec::new(),
        }
    }

    /// Whether every unit failed (no results at all, at least one error).
    /// An empty sweep over zero points is *not* a total failure.
    #[must_use]
    pub fn all_failed(&self) -> bool {
        self.results.is_empty() && !self.quarantined.is_empty()
    }

    /// Process exit code for CLI / bench front-ends: nonzero only when
    /// *everything* failed.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        i32::from(self.all_failed())
    }

    /// Renders the failure summary — one line per permanently quarantined
    /// unit, then one per retried-then-recovered unit — or `None` when the
    /// sweep was fully healthy on the first attempt.
    #[must_use]
    pub fn failure_summary(&self) -> Option<String> {
        if self.quarantined.is_empty() && self.recovered.is_empty() {
            return None;
        }
        let mut out = String::new();
        if !self.quarantined.is_empty() {
            out.push_str(&format!(
                "{} of {} units quarantined:\n",
                self.quarantined.len(),
                self.quarantined.len() + self.results.len()
            ));
            for (key, err) in &self.quarantined {
                out.push_str(&format!("  {key}: {err}\n"));
            }
        }
        if !self.recovered.is_empty() {
            out.push_str(&format!(
                "{} unit(s) recovered on retry:\n",
                self.recovered.len()
            ));
            for (key, err) in &self.recovered {
                out.push_str(&format!("  {key}: failed attempt: {err}\n"));
            }
        }
        Some(out)
    }

    /// Sorts the quarantine list by key for stable, diffable output.
    pub fn sort_quarantined(&mut self) {
        self.quarantined.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Sorts results by design-point label and the quarantine/recovery
    /// lists by unit key, so rendered output is deterministic regardless
    /// of `--jobs` thread count or grid worker count. Sorts are stable:
    /// entries sharing a key keep their insertion order.
    pub fn sort_units(&mut self) {
        self.results.sort_by(|a, b| a.label.cmp(&b.label));
        self.quarantined.sort_by(|a, b| a.0.cmp(&b.0));
        self.recovered.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Canonicalizes the report after a merge: sorts by unit key, drops
    /// duplicate results (first occurrence wins — results for one key are
    /// deterministic, so duplicates are identical), converts quarantine
    /// entries whose unit also has a result into recovery entries, and
    /// keeps one representative error per quarantined/recovered unit.
    pub fn normalize(&mut self) {
        self.sort_units();
        let mut seen = BTreeSet::new();
        self.results.retain(|r| seen.insert(r.label.clone()));
        let succeeded: BTreeSet<&String> = seen.iter().collect();
        // A unit with a result anywhere is recovered, not quarantined.
        let (rec, quar): (Vec<_>, Vec<_>) = std::mem::take(&mut self.quarantined)
            .into_iter()
            .partition(|(key, _)| succeeded.contains(key));
        self.quarantined = quar;
        self.recovered.extend(rec);
        self.recovered.sort_by(|a, b| a.0.cmp(&b.0));
        let mut seen = BTreeSet::new();
        self.quarantined.retain(|(key, _)| seen.insert(key.clone()));
        let mut seen = BTreeSet::new();
        self.recovered.retain(|(key, _)| seen.insert(key.clone()));
    }

    /// Merges another shard's report into this one, deduping units that
    /// succeeded on retry: a key present in either report's results is a
    /// success, and any quarantine entry for it (a failed attempt on some
    /// other shard) becomes a [`SweepReport::recovered`] entry. The merged
    /// report is normalized (sorted, one entry per unit).
    pub fn merge(&mut self, other: SweepReport) {
        self.results.extend(other.results);
        self.quarantined.extend(other.quarantined);
        self.recovered.extend(other.recovered);
        self.normalize();
    }

    /// The report's **results digest**: SHA-256 over each result's stored
    /// bytes ([`encode_design_result`]) in report order, then each
    /// quarantined unit's key. Two sweeps that print the same table can
    /// still differ in every metric; two with the same digest cannot.
    #[must_use]
    pub fn digest(&self) -> ContentHash {
        let mut h = Sha256::new();
        for r in &self.results {
            h.update_str(&encode_design_result(r).to_string());
            h.update(b"\n");
        }
        for (key, _) in &self.quarantined {
            h.update_str("quarantined ");
            h.update_str(key);
            h.update(b"\n");
        }
        h.finish()
    }

    /// The `--stats` lines that close a sweep: its [digest](Self::digest)
    /// and this process's peak resident set (`VmHWM` in
    /// `/proc/self/status`; the line is left out where that file does not
    /// exist).
    #[must_use]
    pub fn render_stats(&self) -> String {
        let mut out = format!("results digest : {}\n", self.digest());
        if let Some(kib) = peak_rss_kib() {
            out.push_str(&format!(
                "peak RSS       : {:.1} MiB\n",
                kib as f64 / 1024.0
            ));
        }
        out
    }

    /// Results, consuming the report — convenience for callers that treat
    /// any quarantine as fatal.
    ///
    /// # Errors
    ///
    /// Returns the first quarantined error when one exists.
    pub fn into_strict(self) -> Result<Vec<DesignResult>, PipelineError> {
        match self.quarantined.into_iter().next() {
            Some((_, err)) => Err(err),
            None => Ok(self.results),
        }
    }
}

/// This process's peak resident set in KiB, from `/proc/self/status`.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Stage;

    fn err(w: &str) -> PipelineError {
        PipelineError::new(w, Stage::Evaluate, "boom")
    }

    #[test]
    fn healthy_report_has_exit_zero_and_no_summary() {
        let r = SweepReport::healthy(Vec::new());
        assert!(!r.all_failed());
        assert_eq!(r.exit_code(), 0);
        assert!(r.failure_summary().is_none());
        assert!(r.into_strict().is_ok());
    }

    fn dummy_result(label: &str) -> DesignResult {
        DesignResult {
            label: label.into(),
            core: "OOO2".into(),
            bsas: String::new(),
            area_mm2: 1.0,
            per_workload: Vec::new(),
        }
    }

    #[test]
    fn total_failure_sets_exit_one() {
        let r = SweepReport {
            results: vec![],
            quarantined: vec![("workload:fft".into(), err("fft"))],
            recovered: vec![],
        };
        assert!(r.all_failed());
        assert_eq!(r.exit_code(), 1);
        let s = r.failure_summary().unwrap();
        assert!(s.contains("workload:fft"), "{s}");
        assert!(s.contains("1 of 1"), "{s}");
        assert_eq!(r.into_strict().unwrap_err().workload, "fft");
    }

    #[test]
    fn partial_failure_keeps_exit_zero_but_reports() {
        let r = SweepReport {
            results: vec![dummy_result("OOO2")],
            quarantined: vec![("OOO4-SDN".into(), err("fft"))],
            recovered: vec![],
        };
        assert!(!r.all_failed());
        assert_eq!(r.exit_code(), 0);
        let s = r.failure_summary().unwrap();
        assert!(s.contains("1 of 2"), "{s}");
        assert!(s.contains("OOO4-SDN"), "{s}");
    }

    #[test]
    fn sort_quarantined_orders_by_key() {
        let mut r = SweepReport {
            results: vec![],
            quarantined: vec![
                ("z".into(), err("z")),
                ("a".into(), err("a")),
                ("m".into(), err("m")),
            ],
            recovered: vec![],
        };
        r.sort_quarantined();
        let keys: Vec<&str> = r.quarantined.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "m", "z"]);
    }

    #[test]
    fn sort_units_orders_results_and_all_lists() {
        let mut r = SweepReport {
            results: vec![dummy_result("OOO4"), dummy_result("IO2")],
            quarantined: vec![("z".into(), err("z")), ("a".into(), err("a"))],
            recovered: vec![("m".into(), err("m")), ("b".into(), err("b"))],
        };
        r.sort_units();
        let labels: Vec<&str> = r.results.iter().map(|x| x.label.as_str()).collect();
        assert_eq!(labels, ["IO2", "OOO4"]);
        assert_eq!(r.quarantined[0].0, "a");
        assert_eq!(r.recovered[0].0, "b");
    }

    #[test]
    fn merge_promotes_retried_success_to_recovered() {
        // Shard A quarantined OOO2-S; shard B retried it and succeeded.
        let mut a = SweepReport {
            results: vec![dummy_result("IO2")],
            quarantined: vec![("OOO2-S".into(), err("first try"))],
            recovered: vec![],
        };
        let b = SweepReport::healthy(vec![dummy_result("OOO2-S")]);
        a.merge(b);
        assert_eq!(a.results.len(), 2);
        assert!(a.quarantined.is_empty(), "{:?}", a.quarantined);
        assert_eq!(a.recovered.len(), 1);
        assert_eq!(a.recovered[0].0, "OOO2-S");
        assert_eq!(a.recovered[0].1.workload, "first try");
        let s = a.failure_summary().unwrap();
        assert!(s.contains("recovered on retry"), "{s}");
        assert!(!s.contains("quarantined"), "{s}");
    }

    #[test]
    fn merge_dedupes_double_failures_and_double_successes() {
        // Same unit failed on two shards: one quarantine entry survives.
        let mut a = SweepReport {
            results: vec![dummy_result("IO2")],
            quarantined: vec![("OOO2-S".into(), err("shard0"))],
            recovered: vec![],
        };
        let b = SweepReport {
            results: vec![dummy_result("IO2")], // duplicate success
            quarantined: vec![("OOO2-S".into(), err("shard1"))],
            recovered: vec![],
        };
        a.merge(b);
        assert_eq!(a.results.len(), 1, "duplicate results must collapse");
        assert_eq!(a.quarantined.len(), 1);
        assert_eq!(a.quarantined[0].0, "OOO2-S");
        assert!(a.recovered.is_empty());
    }

    #[test]
    fn merge_is_order_insensitive_on_unit_sets() {
        let mk = |labels: &[&str], quar: &[&str]| SweepReport {
            results: labels.iter().map(|l| dummy_result(l)).collect(),
            quarantined: quar.iter().map(|k| ((*k).to_string(), err(k))).collect(),
            recovered: vec![],
        };
        let mut ab = mk(&["B"], &["Q"]);
        ab.merge(mk(&["A", "Q"], &[]));
        let mut ba = mk(&["A", "Q"], &[]);
        ba.merge(mk(&["B"], &["Q"]));
        let keys = |r: &SweepReport| {
            (
                r.results
                    .iter()
                    .map(|x| x.label.clone())
                    .collect::<Vec<_>>(),
                r.quarantined
                    .iter()
                    .map(|x| x.0.clone())
                    .collect::<Vec<_>>(),
                r.recovered.iter().map(|x| x.0.clone()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(keys(&ab), keys(&ba));
        assert_eq!(keys(&ab).0, vec!["A", "B", "Q"]);
        assert!(keys(&ab).1.is_empty());
        assert_eq!(keys(&ab).2, vec!["Q"]);
    }
}
