//! The µDG's edge kinds. The core model assigns node times in one forward
//! pass and keeps no graph; it tallies, per [`EdgeKind`], which incoming
//! edge bound each node ([`BindingCounts`](crate::BindingCounts)), the
//! attribution the paper's Appendix A recommends for validating new BSA
//! models ("examining which edges are on the critical path").

/// Classification of µDG edges, for critical-path attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Fetch bandwidth: `F[i-w] → F[i]`.
    FetchBw,
    /// Front-end depth: `F → D`.
    FrontEnd,
    /// Dispatch bandwidth: `D[i-w] → D[i]`.
    DispatchBw,
    /// ROB occupancy: `C[i-R] → D[i]`.
    RobFull,
    /// Issue-window occupancy: `E[i-W] → D[i]`.
    WindowFull,
    /// Dispatch-to-issue: `D → E`.
    DispatchExec,
    /// Register data dependence: `P[prod] → E[cons]`.
    DataDep,
    /// Store→load memory dependence.
    MemDep,
    /// Execution latency: `E → P`.
    Exec,
    /// Completion-to-commit: `P → C`.
    Complete,
    /// Commit bandwidth / in-order commit: `C[i-w] → C[i]`.
    CommitBw,
    /// In-order issue constraint (in-order cores).
    InOrderIssue,
    /// Branch mispredict: `P[br] → F[next]`.
    Mispredict,
    /// Structural hazard: FU or cache-port contention.
    Resource,
    /// Accelerator pipelining (initiation interval / in-order completion).
    AccelPipe,
    /// Core↔accelerator communication or live-value transfer.
    AccelComm,
    /// Accelerator configuration stall.
    AccelConfig,
    /// Serialized compound-FU execution (NS-DF / Trace-P).
    AccelCfu,
    /// Writeback-bus capacity (NS-DF / Trace-P).
    AccelBus,
    /// Trace mispeculation replay.
    AccelReplay,
}

impl EdgeKind {
    /// Number of edge kinds, for dense per-kind tables
    /// (e.g. [`BindingCounts`](crate::BindingCounts)).
    pub const COUNT: usize = 20;

    /// Every edge kind, in discriminant order.
    pub const ALL: [EdgeKind; EdgeKind::COUNT] = [
        EdgeKind::FetchBw,
        EdgeKind::FrontEnd,
        EdgeKind::DispatchBw,
        EdgeKind::RobFull,
        EdgeKind::WindowFull,
        EdgeKind::DispatchExec,
        EdgeKind::DataDep,
        EdgeKind::MemDep,
        EdgeKind::Exec,
        EdgeKind::Complete,
        EdgeKind::CommitBw,
        EdgeKind::InOrderIssue,
        EdgeKind::Mispredict,
        EdgeKind::Resource,
        EdgeKind::AccelPipe,
        EdgeKind::AccelComm,
        EdgeKind::AccelConfig,
        EdgeKind::AccelCfu,
        EdgeKind::AccelBus,
        EdgeKind::AccelReplay,
    ];
}
