//! The coordinator ↔ worker wire protocol: newline-delimited JSON over
//! the worker's stdin/stdout.
//!
//! One message per line, each a JSON object with a `"type"` field. The
//! [`prism_pipeline::Json`] writer escapes every control character (`\n`
//! included), so a serialized message can never span lines and the framing
//! survives arbitrary workload names and panic payloads. Floats use
//! shortest-round-trip formatting, so a [`DesignResult`] that crosses the
//! wire is bit-identical to one computed in-process — the property behind
//! the grid-vs-single-process equivalence guarantee.
//!
//! Handshake: the coordinator opens with [`ToWorker::Hello`] carrying the
//! protocol version; the worker answers [`FromWorker::HelloAck`] (or
//! [`FromWorker::Fatal`] on a version mismatch) and then heartbeats every
//! [`HEARTBEAT_INTERVAL`] until shutdown.
//!
//! A remote shard does not share the coordinator's store, so its result
//! crosses the wire once: [`FromWorker::UnitResult`] carries the
//! [`DesignResult`] and names the design-point key the shard stored it
//! under, and the coordinator stores it under that key before it journals
//! the unit. No artifact travels the other way: a unit whose result the
//! coordinator's store already holds is settled before any shard is
//! spawned or dialed, so it is never assigned.

use std::time::Duration;

use prism_exocore::DesignResult;
use prism_pipeline::{
    decode_design_result, decode_pipeline_error, encode_design_result, encode_pipeline_error, Json,
    PipelineError,
};

/// Version of this wire protocol. The coordinator sends it in
/// [`ToWorker::Hello`]; a worker built from different sources refuses the
/// handshake instead of silently misinterpreting messages. v2 added the
/// artifact push/pull frames (`fetch`/`artifact`) and the `artifacts`
/// list on `result`. v3 dropped `fetch` and the worker's `artifact`
/// reply: `artifacts` names only the design-point key, and `artifact`
/// frames went from coordinator to worker only. v4 drops that last
/// `artifact` push: a coordinator settles the units its store holds
/// itself. A worker of another version refuses the Hello outright.
pub const PROTO_VERSION: u64 = 4;

/// How often a healthy worker emits [`FromWorker::Heartbeat`].
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// Messages the coordinator sends to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// Handshake: protocol version, shard id, and the sweep parameters
    /// shared by every unit (workload set, trace length, artifact store).
    Hello {
        /// Must equal [`PROTO_VERSION`].
        proto: u64,
        /// This worker's shard id: a stdio worker's only source for it,
        /// and checked against the TCP handshake's shard by a daemon.
        shard: usize,
        /// Workload names (resolved against the registry worker-side).
        workloads: Vec<String>,
        /// Tracer instruction limit (the stage-1 cache key input).
        max_insts: u64,
        /// Content-addressed artifact store shared by all shards.
        artifact_dir: String,
    },
    /// One unit of work: evaluate design point (`core`, `bsas`).
    Assign {
        /// Coordinator-side unit id, echoed back in the outcome.
        id: u64,
        /// Core name (`IO2`, `OOO2`, `OOO4`, `OOO6`).
        core: String,
        /// BSA subset as Fig. 12 code letters (e.g. `"SDN"`, `""`).
        bsas: String,
    },
    /// Clean shutdown: finish in-flight units, say `Bye`, exit 0.
    Shutdown,
}

/// Messages a worker sends to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum FromWorker {
    /// Handshake accepted.
    HelloAck {
        /// The worker's shard id.
        shard: usize,
        /// The worker's protocol version.
        proto: u64,
    },
    /// Liveness signal, sent every [`HEARTBEAT_INTERVAL`].
    Heartbeat {
        /// The worker's shard id.
        shard: usize,
        /// Units currently queued or evaluating on this worker.
        inflight: u64,
    },
    /// A unit evaluated successfully.
    UnitResult {
        /// The assigned unit id.
        id: u64,
        /// The evaluated design point.
        result: DesignResult,
        /// From a worker with its own store: exactly the hex
        /// design-point key it stored `result` under, which the
        /// coordinator stores it under too. Always present on the wire;
        /// empty from local workers, which share the coordinator's store.
        artifacts: Vec<String>,
    },
    /// A unit (or a whole workload) was quarantined on this shard.
    UnitQuarantine {
        /// The assigned unit id; `None` for workload-level failures,
        /// which are not tied to one assignment.
        id: Option<u64>,
        /// Sweep unit key (design-point label or `workload:<name>`).
        key: String,
        /// The typed failure.
        error: PipelineError,
    },
    /// Clean shutdown acknowledgement (last message), carrying the
    /// session's timing-reuse counters so the coordinator can surface
    /// per-host walk savings in `--stats`.
    Bye {
        /// Trace walks this session actually performed.
        walks: u64,
        /// Walks skipped (shape-memo hits + timing artifacts loaded).
        walks_skipped: u64,
        /// In-memory shape-keyed timing memo hits.
        shape_memo_hits: u64,
        /// Timing summaries loaded from the artifact store.
        timing_artifacts_loaded: u64,
    },
    /// The worker cannot continue (handshake mismatch, bad assignment).
    Fatal {
        /// Human-readable cause.
        message: String,
    },
}

fn obj(kind: &str, mut fields: Vec<(String, Json)>) -> Json {
    let mut all = vec![("type".to_string(), Json::Str(kind.to_string()))];
    all.append(&mut fields);
    Json::Obj(all)
}

impl ToWorker {
    /// Serializes to one protocol line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            ToWorker::Hello {
                proto,
                shard,
                workloads,
                max_insts,
                artifact_dir,
            } => obj(
                "hello",
                vec![
                    ("proto".into(), Json::U64(*proto)),
                    ("shard".into(), Json::U64(*shard as u64)),
                    (
                        "workloads".into(),
                        Json::Arr(workloads.iter().map(|w| Json::Str(w.clone())).collect()),
                    ),
                    ("max_insts".into(), Json::U64(*max_insts)),
                    ("artifact_dir".into(), Json::Str(artifact_dir.clone())),
                ],
            ),
            ToWorker::Assign { id, core, bsas } => obj(
                "assign",
                vec![
                    ("id".into(), Json::U64(*id)),
                    ("core".into(), Json::Str(core.clone())),
                    ("bsas".into(), Json::Str(bsas.clone())),
                ],
            ),
            ToWorker::Shutdown => obj("shutdown", vec![]),
        }
        .to_string()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed line.
    pub fn decode(line: &str) -> Result<Self, String> {
        let json = Json::parse(line)?;
        let kind = json.get("type").and_then(Json::as_str).unwrap_or_default();
        let shape = || format!("bad `{kind}` message: {line}");
        match kind {
            "hello" => (|| {
                Some(ToWorker::Hello {
                    proto: json.get("proto")?.as_u64()?,
                    shard: json.get("shard")?.as_u64()? as usize,
                    workloads: json
                        .get("workloads")?
                        .as_arr()?
                        .iter()
                        .map(|w| Some(w.as_str()?.to_string()))
                        .collect::<Option<_>>()?,
                    max_insts: json.get("max_insts")?.as_u64()?,
                    artifact_dir: json.get("artifact_dir")?.as_str()?.to_string(),
                })
            })()
            .ok_or_else(shape),
            "assign" => (|| {
                Some(ToWorker::Assign {
                    id: json.get("id")?.as_u64()?,
                    core: json.get("core")?.as_str()?.to_string(),
                    bsas: json.get("bsas")?.as_str()?.to_string(),
                })
            })()
            .ok_or_else(shape),
            "shutdown" => Ok(ToWorker::Shutdown),
            other => Err(format!("unknown coordinator message type `{other}`")),
        }
    }
}

impl FromWorker {
    /// Serializes to one protocol line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            FromWorker::HelloAck { shard, proto } => obj(
                "hello-ack",
                vec![
                    ("shard".into(), Json::U64(*shard as u64)),
                    ("proto".into(), Json::U64(*proto)),
                ],
            ),
            FromWorker::Heartbeat { shard, inflight } => obj(
                "heartbeat",
                vec![
                    ("shard".into(), Json::U64(*shard as u64)),
                    ("inflight".into(), Json::U64(*inflight)),
                ],
            ),
            FromWorker::UnitResult {
                id,
                result,
                artifacts,
            } => obj(
                "result",
                vec![
                    ("id".into(), Json::U64(*id)),
                    ("result".into(), encode_design_result(result)),
                    (
                        "artifacts".into(),
                        Json::Arr(artifacts.iter().map(|k| Json::Str(k.clone())).collect()),
                    ),
                ],
            ),
            FromWorker::UnitQuarantine { id, key, error } => obj(
                "quarantine",
                vec![
                    ("id".into(), id.map_or(Json::Null, Json::U64)),
                    ("key".into(), Json::Str(key.clone())),
                    ("error".into(), encode_pipeline_error(error)),
                ],
            ),
            FromWorker::Bye {
                walks,
                walks_skipped,
                shape_memo_hits,
                timing_artifacts_loaded,
            } => obj(
                "bye",
                vec![
                    ("walks".into(), Json::U64(*walks)),
                    ("walks_skipped".into(), Json::U64(*walks_skipped)),
                    ("shape_memo_hits".into(), Json::U64(*shape_memo_hits)),
                    (
                        "timing_artifacts_loaded".into(),
                        Json::U64(*timing_artifacts_loaded),
                    ),
                ],
            ),
            FromWorker::Fatal { message } => obj(
                "fatal",
                vec![("message".into(), Json::Str(message.clone()))],
            ),
        }
        .to_string()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed line.
    pub fn decode(line: &str) -> Result<Self, String> {
        let json = Json::parse(line)?;
        let kind = json.get("type").and_then(Json::as_str).unwrap_or_default();
        let shape = || format!("bad `{kind}` message: {line}");
        match kind {
            "hello-ack" => (|| {
                Some(FromWorker::HelloAck {
                    shard: json.get("shard")?.as_u64()? as usize,
                    proto: json.get("proto")?.as_u64()?,
                })
            })()
            .ok_or_else(shape),
            "heartbeat" => (|| {
                Some(FromWorker::Heartbeat {
                    shard: json.get("shard")?.as_u64()? as usize,
                    inflight: json.get("inflight")?.as_u64()?,
                })
            })()
            .ok_or_else(shape),
            "result" => (|| {
                Some(FromWorker::UnitResult {
                    id: json.get("id")?.as_u64()?,
                    result: decode_design_result(json.get("result")?)?,
                    artifacts: json
                        .get("artifacts")?
                        .as_arr()?
                        .iter()
                        .map(|k| Some(k.as_str()?.to_string()))
                        .collect::<Option<_>>()?,
                })
            })()
            .ok_or_else(shape),
            "quarantine" => (|| {
                let id = match json.get("id")? {
                    Json::Null => None,
                    v => Some(v.as_u64()?),
                };
                Some(FromWorker::UnitQuarantine {
                    id,
                    key: json.get("key")?.as_str()?.to_string(),
                    error: decode_pipeline_error(json.get("error")?)?,
                })
            })()
            .ok_or_else(shape),
            "bye" => (|| {
                Some(FromWorker::Bye {
                    walks: json.get("walks")?.as_u64()?,
                    walks_skipped: json.get("walks_skipped")?.as_u64()?,
                    shape_memo_hits: json.get("shape_memo_hits")?.as_u64()?,
                    timing_artifacts_loaded: json.get("timing_artifacts_loaded")?.as_u64()?,
                })
            })()
            .ok_or_else(shape),
            "fatal" => (|| {
                Some(FromWorker::Fatal {
                    message: json.get("message")?.as_str()?.to_string(),
                })
            })()
            .ok_or_else(shape),
            other => Err(format!("unknown worker message type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_exocore::WorkloadMetrics;
    use prism_pipeline::Stage;

    /// One frame of every [`ToWorker`] variant.
    fn coordinator_messages() -> Vec<ToWorker> {
        vec![
            ToWorker::Hello {
                proto: PROTO_VERSION,
                shard: 3,
                workloads: vec!["fft".into(), "micro-fetch".into()],
                max_insts: 20_000,
                artifact_dir: "/tmp/prism artifacts".into(),
            },
            ToWorker::Assign {
                id: 17,
                core: "OOO2".into(),
                bsas: "SDN".into(),
            },
            ToWorker::Shutdown,
        ]
    }

    /// One frame of every [`FromWorker`] variant (two quarantines: unit
    /// and workload level).
    fn worker_messages() -> Vec<FromWorker> {
        let result = DesignResult {
            label: "OOO2-SDN".into(),
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
        };
        vec![
            FromWorker::HelloAck {
                shard: 1,
                proto: PROTO_VERSION,
            },
            FromWorker::Heartbeat {
                shard: 1,
                inflight: 2,
            },
            FromWorker::UnitResult {
                id: 5,
                result,
                artifacts: vec!["12".repeat(32)],
            },
            FromWorker::UnitQuarantine {
                id: Some(6),
                key: "OOO4-T".into(),
                error: PipelineError::panicked("OOO4-T", Stage::Evaluate, "boom\nwith newline"),
            },
            FromWorker::UnitQuarantine {
                id: None,
                key: "workload:fft".into(),
                error: PipelineError::new("fft", Stage::Trace, "truncated"),
            },
            FromWorker::Bye {
                walks: 3,
                walks_skipped: 61,
                shape_memo_hits: 40,
                timing_artifacts_loaded: 21,
            },
            FromWorker::Fatal {
                message: "version mismatch".into(),
            },
        ]
    }

    #[test]
    fn coordinator_messages_roundtrip() {
        for m in coordinator_messages() {
            let line = m.encode();
            assert!(!line.contains('\n'), "framing broken: {line}");
            assert_eq!(ToWorker::decode(&line).unwrap(), m);
        }
    }

    #[test]
    fn worker_messages_roundtrip() {
        for m in worker_messages() {
            let line = m.encode();
            assert!(!line.contains('\n'), "framing broken: {line}");
            assert_eq!(FromWorker::decode(&line).unwrap(), m);
        }
    }

    #[test]
    fn garbled_lines_are_typed_errors() {
        // A whole v3 push, as a v3 coordinator sent it: v4 has no
        // `artifact` frame in either direction.
        let v3_push = format!(
            "{{\"type\":\"artifact\",\"key\":\"{}\",\"doc\":\"{{\\\"schema\\\":2}}\"}}",
            "ef".repeat(32)
        );
        assert!(Json::parse(&v3_push).is_ok(), "{v3_push}");
        for bad in [
            "",
            "{",
            "{\"type\":\"warp\"}",
            "{\"type\":\"assign\"}",
            // v2's pull request is gone since v3.
            "{\"type\":\"fetch\",\"keys\":[]}",
            v3_push.as_str(),
        ] {
            assert!(FromWorker::decode(bad).is_err(), "{bad:?}");
            assert!(ToWorker::decode(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_and_bye_without_their_fields_are_typed_errors() {
        // Every frame field is required: a `result` without `artifacts`
        // or a `bye` without its counters is garbled, not an older frame
        // (a worker of another version refuses the hello before it sends
        // anything).
        let result = FromWorker::UnitResult {
            id: 3,
            result: DesignResult {
                label: "IO2-".into(),
                core: "IO2".into(),
                bsas: String::new(),
                area_mm2: 1.0,
                per_workload: vec![],
            },
            artifacts: vec![],
        }
        .encode();
        assert!(FromWorker::decode(&result).is_ok(), "{result}");
        let result_without_artifacts = result.replace(",\"artifacts\":[]", "");
        assert_ne!(
            result, result_without_artifacts,
            "artifacts field must be present since v3"
        );
        let bye = FromWorker::Bye {
            walks: 1,
            walks_skipped: 2,
            shape_memo_hits: 3,
            timing_artifacts_loaded: 4,
        }
        .encode();
        assert!(FromWorker::decode(&bye).is_ok(), "{bye}");
        for bad in [result_without_artifacts.as_str(), "{\"type\":\"bye\"}"] {
            assert!(FromWorker::decode(bad).is_err(), "{bad:?}");
            assert!(ToWorker::decode(bad).is_err(), "{bad:?}");
        }
    }

    /// SplitMix64, as in `crates/pipeline/tests/fuzz.rs`: small, seedable,
    /// no dependencies.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[test]
    fn mutated_frames_are_typed_errors_never_panics() {
        // Bytes that steer the parser: structure, digits, escapes, literals.
        const STEER: &[u8] = b"{}[]\",:\\-.0123456789eEtfnul ";
        let frames: Vec<String> = coordinator_messages()
            .iter()
            .map(ToWorker::encode)
            .chain(worker_messages().iter().map(FromWorker::encode))
            .collect();
        let mut gen = Gen(0x5EED_F4A3);
        for i in 0..20_000 {
            let mut bytes = frames[i % frames.len()].clone().into_bytes();
            // One to four edits: overwrite, delete or insert one byte.
            for _ in 0..=gen.below(4) {
                let at = gen.below(bytes.len() + 1);
                let byte = if gen.next().is_multiple_of(2) {
                    STEER[gen.below(STEER.len())]
                } else {
                    gen.next() as u8
                };
                match gen.below(3) {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            let line = String::from_utf8_lossy(&bytes);
            let decoded = std::panic::catch_unwind(|| {
                let _ = ToWorker::decode(&line);
                let _ = FromWorker::decode(&line);
            });
            assert!(decoded.is_ok(), "a decoder panicked on {line:?}");
        }
        // Past `Json::parse`'s 32-level cap: refused, not a stack overflow.
        let deep = format!(
            "{{\"type\":\"result\",\"id\":1,\"result\":{}{}}}",
            "[".repeat(60),
            "]".repeat(60)
        );
        assert!(ToWorker::decode(&deep).is_err());
        assert!(FromWorker::decode(&deep).is_err());
    }
}
