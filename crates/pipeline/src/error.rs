//! Typed pipeline errors: every failure names the workload and the stage
//! that produced it, so a 44-workload batch run points straight at the
//! culprit instead of panicking.

/// The pipeline stage an error originated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Kernel construction / program validation.
    Build,
    /// Dynamic trace generation (functional simulation).
    Trace,
    /// IR reconstruction from the trace.
    Analyze,
    /// BSA plan analysis.
    Plan,
    /// Design-point evaluation (scheduling + combined TDG run).
    Evaluate,
    /// Artifact-store I/O.
    Store,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Stage::Build => "build",
            Stage::Trace => "trace",
            Stage::Analyze => "analyze",
            Stage::Plan => "plan",
            Stage::Evaluate => "evaluate",
            Stage::Store => "store",
        })
    }
}

impl std::str::FromStr for Stage {
    type Err = String;

    /// Inverse of [`Display`](std::fmt::Display), for wire formats (the
    /// grid worker protocol serializes errors as text).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "build" => Ok(Stage::Build),
            "trace" => Ok(Stage::Trace),
            "analyze" => Ok(Stage::Analyze),
            "plan" => Ok(Stage::Plan),
            "evaluate" => Ok(Stage::Evaluate),
            "store" => Ok(Stage::Store),
            other => Err(format!("unknown stage `{other}`")),
        }
    }
}

/// How a pipeline stage failed — drives retry and quarantine policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// An ordinary typed failure (bad program, trace error, ...).
    Failed,
    /// The stage panicked and was caught at the stage boundary.
    StagePanicked,
    /// Artifact-store I/O failed even after bounded retries.
    StoreIo,
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorKind::Failed => "failed",
            ErrorKind::StagePanicked => "panicked",
            ErrorKind::StoreIo => "store-io",
        })
    }
}

impl std::str::FromStr for ErrorKind {
    type Err = String;

    /// Inverse of [`Display`](std::fmt::Display), for wire formats.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "failed" => Ok(ErrorKind::Failed),
            "panicked" => Ok(ErrorKind::StagePanicked),
            "store-io" => Ok(ErrorKind::StoreIo),
            other => Err(format!("unknown error kind `{other}`")),
        }
    }
}

/// A pipeline failure, carrying the workload name and failing stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// The workload being processed when the failure occurred.
    pub workload: String,
    /// The stage that failed.
    pub stage: Stage,
    /// How the stage failed.
    pub kind: ErrorKind,
    /// Human-readable cause.
    pub message: String,
}

impl PipelineError {
    /// Creates an error for `workload` failing in `stage`.
    #[must_use]
    pub fn new(workload: impl Into<String>, stage: Stage, message: impl Into<String>) -> Self {
        PipelineError {
            workload: workload.into(),
            stage,
            kind: ErrorKind::Failed,
            message: message.into(),
        }
    }

    /// Wraps a [`prism_sim::TraceError`] from the trace stage.
    #[must_use]
    pub fn trace(workload: impl Into<String>, err: &prism_sim::TraceError) -> Self {
        PipelineError::new(workload, Stage::Trace, err.to_string())
    }

    /// A caught stage panic. `payload` is the panic payload rendered as
    /// text (the usual `&str` / `String` payloads; anything else becomes a
    /// placeholder).
    #[must_use]
    pub fn panicked(workload: impl Into<String>, stage: Stage, payload: impl Into<String>) -> Self {
        PipelineError {
            kind: ErrorKind::StagePanicked,
            ..PipelineError::new(workload, stage, payload)
        }
    }

    /// Artifact-store I/O that kept failing after retries.
    #[must_use]
    pub fn store_io(workload: impl Into<String>, message: impl Into<String>) -> Self {
        PipelineError {
            kind: ErrorKind::StoreIo,
            ..PipelineError::new(workload, Stage::Store, message)
        }
    }

    /// Whether this error came from a caught panic.
    #[must_use]
    pub fn is_panic(&self) -> bool {
        self.kind == ErrorKind::StagePanicked
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workload `{}` {} in {} stage: {}",
            self.workload, self.kind, self.stage, self.message
        )
    }
}

impl std::error::Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_names_workload_and_stage() {
        let e = PipelineError::new("stencil", Stage::Trace, "boom");
        let text = e.to_string();
        assert!(text.contains("stencil"), "{text}");
        assert!(text.contains("trace"), "{text}");
        assert!(text.contains("boom"), "{text}");
        assert_eq!(e.kind, ErrorKind::Failed);
    }

    #[test]
    fn stage_and_kind_roundtrip_through_text() {
        for stage in [
            Stage::Build,
            Stage::Trace,
            Stage::Analyze,
            Stage::Plan,
            Stage::Evaluate,
            Stage::Store,
        ] {
            assert_eq!(stage.to_string().parse::<Stage>(), Ok(stage));
        }
        for kind in [
            ErrorKind::Failed,
            ErrorKind::StagePanicked,
            ErrorKind::StoreIo,
        ] {
            assert_eq!(kind.to_string().parse::<ErrorKind>(), Ok(kind));
        }
        assert!("warp".parse::<Stage>().is_err());
        assert!("warp".parse::<ErrorKind>().is_err());
    }

    #[test]
    fn kinds_carry_through_constructors() {
        let p = PipelineError::panicked("fft", Stage::Evaluate, "index out of bounds");
        assert!(p.is_panic());
        assert!(p.to_string().contains("panicked"), "{p}");

        let io = PipelineError::store_io("fft", "disk on fire");
        assert_eq!(io.kind, ErrorKind::StoreIo);
        assert_eq!(io.stage, Stage::Store);
    }
}
