//! Deterministic crash injection: named kill points that terminate the
//! process at the n-th hit of a chosen site, armed by the
//! `crash:<site>@<n>` entries of `PRISM_FAULTS` ([`crate::fault`]).
//!
//! Unlike the other fault kinds, which inject *recoverable* failures
//! (I/O errors, corruption, panics caught at stage boundaries), a crash
//! point models SIGKILL / power loss: the process exits immediately with
//! status [`CRASH_EXIT_CODE`], no destructors, no flushing beyond what
//! already happened. The crash-consistency layer (durable store puts,
//! the sweep journal, `--resume`) must make such a kill recoverable at
//! *every* site — the property the kill-anywhere test asserts.
//!
//! Sites are process-wide; hit counting is atomic, so the n-th hit is
//! well-defined under thread parallelism even though *which* unit of
//! work triggers it may vary. Known sites:
//!
//! | site             | fires                                              |
//! |------------------|----------------------------------------------------|
//! | `store-put`      | after the tmp file is written, before the rename   |
//! | `journal-append` | before a journal record is written                 |
//! | `unit-complete`  | after a unit's journal record is durable           |
//! | `grid-frame`     | before the coordinator handles a unit frame        |

use std::sync::{Arc, OnceLock};

use crate::fault::FaultPlan;

/// Exit status of an injected crash — mirrors a SIGKILL'd process
/// (128 + 9) so drivers treat it exactly like a real kill.
pub const CRASH_EXIT_CODE: i32 = 137;

/// Kill point in [`crate::store::ArtifactStore`]: tmp file written and
/// synced, rename not yet performed (leaks the tmp file; the artifact is
/// invisible to readers).
pub const SITE_STORE_PUT: &str = "store-put";

/// Kill point in [`crate::journal::SweepJournal`]: the unit's result is
/// already durable in the store, but its journal record was never
/// written.
pub const SITE_JOURNAL_APPEND: &str = "journal-append";

/// Kill point after a unit's journal record is written and synced — the
/// latest possible kill inside one unit's lifecycle.
pub const SITE_UNIT_COMPLETE: &str = "unit-complete";

/// Kill point in the grid coordinator's event loop, before a
/// result/quarantine frame from a worker is handled.
pub const SITE_GRID_FRAME: &str = "grid-frame";

/// Every kill point a `crash:` entry may name.
pub(crate) const CRASH_SITES: [&str; 4] = [
    SITE_STORE_PUT,
    SITE_JOURNAL_APPEND,
    SITE_UNIT_COMPLETE,
    SITE_GRID_FRAME,
];

static ARMED: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();

/// Records one hit of `site`, exiting the process with
/// [`CRASH_EXIT_CODE`] when a `crash:<site>@<n>` entry's hit count is
/// reached. The process-wide plan is parsed from `PRISM_FAULTS` on the
/// first call; a no-op (one branch) when the variable is not set.
pub fn crash_point(site: &str) {
    let Some(plan) = ARMED.get_or_init(FaultPlan::from_env) else {
        return;
    };
    if plan.crash_due(site) {
        eprintln!("[prism-crash] injected kill at site `{site}`");
        std::process::exit(CRASH_EXIT_CODE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_site_and_hit() {
        for (spec, site, hit) in [
            ("crash:store-put@3", SITE_STORE_PUT, 3),
            ("crash:  grid-frame @ 1 ", SITE_GRID_FRAME, 1),
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert!(!plan.crash_due(SITE_JOURNAL_APPEND), "{spec}");
            for _ in 1..hit {
                assert!(!plan.crash_due(site), "{spec}");
            }
            assert!(plan.crash_due(site), "{spec}: hit {hit} must fire");
            assert!(!plan.crash_due(site), "{spec}: fires once");
        }
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in [
            "crash",
            "crash:",
            "crash:store-put",
            "crash:@3",
            "crash:store-put@",
            "crash:store-put@0",
            "crash:x@-1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = FaultPlan::parse("crash:disk-full@1").unwrap_err();
        assert!(err.reason.contains("unknown crash site"), "{err}");
    }

    #[test]
    fn unarmed_crash_point_is_a_no_op() {
        // The test runner never sets a `crash:` entry (the CI fault matrix
        // only sets store and stage kinds), so hitting a site must not exit.
        crash_point(SITE_STORE_PUT);
        crash_point(SITE_UNIT_COMPLETE);
    }
}
