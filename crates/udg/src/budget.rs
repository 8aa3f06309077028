//! The retired execution budget's one survivor, kept for the `sweepbench/`
//! benchmark package until its next change drops the call.
//!
//! A µDG walk is one forward pass over its trace, and
//! [`prism_sim::TracerConfig::max_insts`] caps every trace, so nothing
//! meters a walk.

/// A no-op that exists only because `sweepbench/` passes
/// `ExecBudget::unlimited()` to `Session::with_budget` and
/// `oracle_table_budgeted`; nothing reads it. No code outside
/// `sweepbench/` may use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecBudget(());

impl ExecBudget {
    /// The only value.
    #[must_use]
    pub fn unlimited() -> Self {
        ExecBudget(())
    }
}
