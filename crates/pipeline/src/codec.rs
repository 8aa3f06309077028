//! JSON encoding/decoding for the payloads the store and the wire carry:
//! cached [`DesignResult`]s, trace-walk timing summaries ([`ExoTiming`]),
//! alone or packed per oracle table, and pipeline errors. Traces
//! themselves are never encoded: a trace is cheaper to re-simulate than to
//! read back.
//!
//! Decoding is strict: any missing or mistyped field yields `None`, which
//! the session treats as a cache miss (recompute and overwrite) rather than
//! an error.

use prism_energy::{AccelEvents, CoreEvents, EnergyEvents};
use prism_exocore::{DesignResult, WorkloadMetrics};
use prism_tdg::{ExecUnit, ExoTiming, TimelineSample};

use crate::error::PipelineError;
use crate::json::Json;

/// Encodes one design result as a JSON payload.
#[must_use]
pub fn encode_design_result(r: &DesignResult) -> Json {
    Json::Obj(vec![
        ("label".into(), Json::Str(r.label.clone())),
        ("core".into(), Json::Str(r.core.clone())),
        ("bsas".into(), Json::Str(r.bsas.clone())),
        ("area_mm2".into(), Json::F64(r.area_mm2)),
        (
            "per_workload".into(),
            Json::Arr(r.per_workload.iter().map(encode_metrics).collect()),
        ),
    ])
}

fn encode_metrics(m: &WorkloadMetrics) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(m.workload.clone())),
        ("cycles".into(), Json::U64(m.cycles)),
        ("energy".into(), Json::F64(m.energy)),
        ("unaccelerated".into(), Json::F64(m.unaccelerated)),
        (
            "unit_cycles".into(),
            Json::Arr(m.unit_cycles.iter().map(|&c| Json::U64(c)).collect()),
        ),
        (
            "unit_energy".into(),
            Json::Arr(m.unit_energy.iter().map(|&e| Json::F64(e)).collect()),
        ),
    ])
}

/// Decodes a design result payload; `None` on any shape mismatch.
#[must_use]
pub fn decode_design_result(json: &Json) -> Option<DesignResult> {
    let per_workload = json
        .get("per_workload")?
        .as_arr()?
        .iter()
        .map(decode_metrics)
        .collect::<Option<_>>()?;
    Some(DesignResult {
        label: json.get("label")?.as_str()?.to_string(),
        core: json.get("core")?.as_str()?.to_string(),
        bsas: json.get("bsas")?.as_str()?.to_string(),
        area_mm2: json.get("area_mm2")?.as_f64()?,
        per_workload,
    })
}

fn decode_metrics(json: &Json) -> Option<WorkloadMetrics> {
    let unit_cycles: Vec<u64> = json
        .get("unit_cycles")?
        .as_arr()?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<_>>()?;
    let unit_energy: Vec<f64> = json
        .get("unit_energy")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect::<Option<_>>()?;
    Some(WorkloadMetrics {
        workload: json.get("workload")?.as_str()?.to_string(),
        cycles: json.get("cycles")?.as_u64()?,
        energy: json.get("energy")?.as_f64()?,
        unaccelerated: json.get("unaccelerated")?.as_f64()?,
        unit_cycles: unit_cycles.try_into().ok()?,
        unit_energy: unit_energy.try_into().ok()?,
    })
}

/// Encodes a pipeline error for wire formats and the sweep journal.
/// Stage and kind use their stable [`Display`](std::fmt::Display) text,
/// which [`FromStr`](std::str::FromStr) inverts exactly.
#[must_use]
pub fn encode_pipeline_error(e: &PipelineError) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(e.workload.clone())),
        ("stage".into(), Json::Str(e.stage.to_string())),
        ("kind".into(), Json::Str(e.kind.to_string())),
        ("message".into(), Json::Str(e.message.clone())),
    ])
}

/// Decodes a pipeline error; `None` on any shape mismatch or an unknown
/// stage/kind name (e.g. a record written by a newer build).
#[must_use]
pub fn decode_pipeline_error(json: &Json) -> Option<PipelineError> {
    Some(PipelineError {
        workload: json.get("workload")?.as_str()?.to_string(),
        stage: json.get("stage")?.as_str()?.parse().ok()?,
        kind: json.get("kind")?.as_str()?.parse().ok()?,
        message: json.get("message")?.as_str()?.to_string(),
    })
}

/// Encodes one trace-walk timing summary ([`ExoTiming`]) as a JSON
/// payload — the persistent timing artifact the session stores under the
/// µDG shape key.
///
/// Every field is an integer (cycle/instruction counts, event counters,
/// timeline samples), so the round trip through the store's JSON envelope
/// is lossless. Event records are positional arrays in declaration order,
/// and the timeline carries an explicit `len` prefix, so a truncated
/// sample array decodes to `None` outright.
#[must_use]
pub fn encode_exo_timing(t: &ExoTiming) -> Json {
    Json::Obj(vec![
        ("cycles".into(), Json::U64(t.cycles)),
        ("insts".into(), Json::U64(t.insts)),
        ("events".into(), encode_energy_events(&t.events)),
        (
            "unit_cycles".into(),
            Json::Arr(t.unit_cycles.iter().map(|&c| Json::U64(c)).collect()),
        ),
        (
            "unit_insts".into(),
            Json::Arr(t.unit_insts.iter().map(|&c| Json::U64(c)).collect()),
        ),
        (
            "unit_accel".into(),
            Json::Arr(t.unit_accel.iter().map(encode_accel_events).collect()),
        ),
        (
            "unit_core".into(),
            Json::Arr(t.unit_core.iter().map(encode_core_events).collect()),
        ),
        ("timeline_len".into(), Json::U64(t.timeline.len() as u64)),
        (
            "timeline".into(),
            Json::Arr(t.timeline.iter().map(encode_timeline_sample).collect()),
        ),
        ("trace_replays".into(), Json::U64(t.trace_replays)),
    ])
}

/// Encodes an oracle walk pack: one `{assigned, timing}` entry per walk of
/// one oracle table, in [`prism_exocore::oracle_assignments`] order, where
/// `assigned` is the walk's shape-key label.
pub(crate) fn encode_oracle_pack<'a>(
    walks: impl IntoIterator<Item = (&'a str, &'a ExoTiming)>,
) -> Json {
    Json::Arr(
        walks
            .into_iter()
            .map(|(assigned, t)| {
                Json::Obj(vec![
                    ("assigned".into(), Json::Str(assigned.into())),
                    ("timing".into(), encode_exo_timing(t)),
                ])
            })
            .collect(),
    )
}

/// Decodes an oracle walk pack whose labels are exactly `labels`, in
/// order; `None` for any other label list or a timing that does not
/// decode.
pub(crate) fn decode_oracle_pack(json: &Json, labels: &[String]) -> Option<Vec<ExoTiming>> {
    let entries = json.as_arr()?;
    if entries.len() != labels.len() {
        return None;
    }
    entries
        .iter()
        .zip(labels)
        .map(|(entry, label)| {
            if entry.get("assigned")?.as_str()? != label {
                return None;
            }
            decode_exo_timing(entry.get("timing")?)
        })
        .collect()
}

fn encode_energy_events(e: &EnergyEvents) -> Json {
    Json::Obj(vec![
        ("core".into(), encode_core_events(&e.core)),
        ("accel".into(), encode_accel_events(&e.accel)),
    ])
}

fn encode_core_events(e: &CoreEvents) -> Json {
    Json::Arr(vec![
        Json::U64(e.fetches),
        Json::U64(e.decodes),
        Json::U64(e.renames),
        Json::U64(e.window_ops),
        Json::U64(e.regfile_reads),
        Json::U64(e.regfile_writes),
        Json::U64(e.alu_ops),
        Json::U64(e.muldiv_ops),
        Json::U64(e.fp_ops),
        Json::U64(e.dcache_accesses),
        Json::U64(e.l2_accesses),
        Json::U64(e.dram_accesses),
        Json::U64(e.rob_ops),
        Json::U64(e.commits),
        Json::U64(e.bp_lookups),
        Json::U64(e.mispredict_flushes),
    ])
}

fn encode_accel_events(e: &AccelEvents) -> Json {
    Json::Arr(vec![
        Json::U64(e.cgra_ops),
        Json::U64(e.cgra_config_words),
        Json::U64(e.comm_sends),
        Json::U64(e.comm_recvs),
        Json::U64(e.cfu_ops),
        Json::U64(e.op_storage_accesses),
        Json::U64(e.writeback_bus_ops),
        Json::U64(e.store_buffer_accesses),
        Json::U64(e.vector_lane_ops),
        Json::U64(e.mask_ops),
        Json::U64(e.trace_replays),
    ])
}

/// One timeline sample is a positional array: `[end_seq, end_cycle, unit]`
/// with the unit as its `ExecUnit` discriminant.
fn encode_timeline_sample(s: &TimelineSample) -> Json {
    Json::Arr(vec![
        Json::U64(s.end_seq),
        Json::U64(s.end_cycle),
        Json::U64(s.unit as u64),
    ])
}

/// Decodes a timing-artifact payload; `None` on any shape mismatch,
/// including wrong event-array arity, an unknown unit discriminant, or a
/// `timeline_len` prefix that disagrees with the sample array.
#[must_use]
pub fn decode_exo_timing(json: &Json) -> Option<ExoTiming> {
    let unit_cycles: Vec<u64> = json
        .get("unit_cycles")?
        .as_arr()?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<_>>()?;
    let unit_insts: Vec<u64> = json
        .get("unit_insts")?
        .as_arr()?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<_>>()?;
    let unit_accel: Vec<AccelEvents> = json
        .get("unit_accel")?
        .as_arr()?
        .iter()
        .map(decode_accel_events)
        .collect::<Option<_>>()?;
    let unit_core: Vec<CoreEvents> = json
        .get("unit_core")?
        .as_arr()?
        .iter()
        .map(decode_core_events)
        .collect::<Option<_>>()?;
    let timeline_len = json.get("timeline_len")?.as_u64()?;
    let samples = json.get("timeline")?.as_arr()?;
    if samples.len() as u64 != timeline_len {
        return None;
    }
    let timeline = samples
        .iter()
        .map(decode_timeline_sample)
        .collect::<Option<Vec<_>>>()?;
    Some(ExoTiming {
        cycles: json.get("cycles")?.as_u64()?,
        insts: json.get("insts")?.as_u64()?,
        events: decode_energy_events(json.get("events")?)?,
        unit_cycles: unit_cycles.try_into().ok()?,
        unit_insts: unit_insts.try_into().ok()?,
        unit_accel: unit_accel.try_into().ok()?,
        unit_core: unit_core.try_into().ok()?,
        timeline,
        trace_replays: json.get("trace_replays")?.as_u64()?,
    })
}

fn decode_energy_events(json: &Json) -> Option<EnergyEvents> {
    Some(EnergyEvents {
        core: decode_core_events(json.get("core")?)?,
        accel: decode_accel_events(json.get("accel")?)?,
    })
}

fn decode_core_events(json: &Json) -> Option<CoreEvents> {
    let [fetches, decodes, renames, window_ops, regfile_reads, regfile_writes, alu_ops, muldiv_ops, fp_ops, dcache_accesses, l2_accesses, dram_accesses, rob_ops, commits, bp_lookups, mispredict_flushes] =
        json.as_arr()?
    else {
        return None;
    };
    Some(CoreEvents {
        fetches: fetches.as_u64()?,
        decodes: decodes.as_u64()?,
        renames: renames.as_u64()?,
        window_ops: window_ops.as_u64()?,
        regfile_reads: regfile_reads.as_u64()?,
        regfile_writes: regfile_writes.as_u64()?,
        alu_ops: alu_ops.as_u64()?,
        muldiv_ops: muldiv_ops.as_u64()?,
        fp_ops: fp_ops.as_u64()?,
        dcache_accesses: dcache_accesses.as_u64()?,
        l2_accesses: l2_accesses.as_u64()?,
        dram_accesses: dram_accesses.as_u64()?,
        rob_ops: rob_ops.as_u64()?,
        commits: commits.as_u64()?,
        bp_lookups: bp_lookups.as_u64()?,
        mispredict_flushes: mispredict_flushes.as_u64()?,
    })
}

fn decode_accel_events(json: &Json) -> Option<AccelEvents> {
    let [cgra_ops, cgra_config_words, comm_sends, comm_recvs, cfu_ops, op_storage_accesses, writeback_bus_ops, store_buffer_accesses, vector_lane_ops, mask_ops, trace_replays] =
        json.as_arr()?
    else {
        return None;
    };
    Some(AccelEvents {
        cgra_ops: cgra_ops.as_u64()?,
        cgra_config_words: cgra_config_words.as_u64()?,
        comm_sends: comm_sends.as_u64()?,
        comm_recvs: comm_recvs.as_u64()?,
        cfu_ops: cfu_ops.as_u64()?,
        op_storage_accesses: op_storage_accesses.as_u64()?,
        writeback_bus_ops: writeback_bus_ops.as_u64()?,
        store_buffer_accesses: store_buffer_accesses.as_u64()?,
        vector_lane_ops: vector_lane_ops.as_u64()?,
        mask_ops: mask_ops.as_u64()?,
        trace_replays: trace_replays.as_u64()?,
    })
}

fn decode_timeline_sample(json: &Json) -> Option<TimelineSample> {
    let [end_seq, end_cycle, unit] = json.as_arr()? else {
        return None;
    };
    Some(TimelineSample {
        end_seq: end_seq.as_u64()?,
        end_cycle: end_cycle.as_u64()?,
        unit: match unit.as_u64()? {
            0 => ExecUnit::Gpp,
            1 => ExecUnit::Simd,
            2 => ExecUnit::DpCgra,
            3 => ExecUnit::NsDf,
            4 => ExecUnit::TraceP,
            _ => return None,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DesignResult {
        DesignResult {
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
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let r = sample();
        let text = encode_design_result(&r).to_string();
        let back = decode_design_result(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn shape_mismatch_decodes_to_none() {
        let mut json = encode_design_result(&sample());
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "area_mm2");
        }
        assert_eq!(decode_design_result(&json), None);
        assert_eq!(decode_design_result(&Json::Null), None);
    }

    #[test]
    fn pipeline_error_roundtrip_is_exact() {
        let e = PipelineError::store_io("stencil", "disk on fire\nline two");
        let text = encode_pipeline_error(&e).to_string();
        let back = decode_pipeline_error(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn pipeline_error_rejects_unknown_stage() {
        // `diverged` is the kind of the retired runtime divergence guard:
        // a record an older build wrote decodes to `None`, like any name
        // this build does not know.
        for (field, value) in [("stage", "warp"), ("kind", "warp"), ("kind", "diverged")] {
            let mut json = encode_pipeline_error(&PipelineError::store_io("x", "y"));
            if let Json::Obj(fields) = &mut json {
                for (k, v) in fields.iter_mut() {
                    if k == field {
                        *v = Json::Str(value.into());
                    }
                }
            }
            assert_eq!(decode_pipeline_error(&json), None, "{field}={value}");
        }
        assert_eq!(decode_pipeline_error(&Json::Null), None);
    }

    fn sample_timing() -> ExoTiming {
        let mut accel = [AccelEvents::default(); 5];
        accel[1].vector_lane_ops = 4096;
        accel[1].mask_ops = 17;
        accel[4].store_buffer_accesses = 9;
        accel[4].trace_replays = 2;
        let mut core = [CoreEvents::default(); 5];
        core[0].fetches = (1u64 << 53) + 11;
        core[0].mispredict_flushes = 3;
        core[2].dcache_accesses = 777;
        ExoTiming {
            cycles: 123_456,
            insts: 20_000,
            events: EnergyEvents {
                core: core[0],
                accel: accel[1],
            },
            unit_cycles: [100, 200, 300, 400, 500],
            unit_insts: [10, 20, 30, 40, 50],
            unit_accel: accel,
            unit_core: core,
            timeline: vec![
                TimelineSample {
                    end_seq: 64,
                    end_cycle: 90,
                    unit: ExecUnit::Gpp,
                },
                TimelineSample {
                    end_seq: 128,
                    end_cycle: 150,
                    unit: ExecUnit::TraceP,
                },
            ],
            trace_replays: 2,
        }
    }

    #[test]
    fn exo_timing_roundtrip_is_exact() {
        let t = sample_timing();
        let text = encode_exo_timing(&t).to_string();
        let back = decode_exo_timing(&Json::parse(&text).unwrap()).unwrap();
        // ExoTiming is all integers/enums, so the Debug forms are a
        // complete field-by-field equality check.
        assert_eq!(format!("{back:?}"), format!("{t:?}"));
    }

    #[test]
    fn exo_timing_rejects_shape_mismatches() {
        let good = encode_exo_timing(&sample_timing());
        assert!(decode_exo_timing(&good).is_some());
        assert!(decode_exo_timing(&Json::Null).is_none());

        // Missing field.
        let mut json = good.clone();
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "events");
        }
        assert!(decode_exo_timing(&json).is_none());

        // Truncated per-unit event array (4 entries instead of 5).
        let mut json = good.clone();
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "unit_accel" {
                    if let Json::Arr(items) = v {
                        items.pop();
                    }
                }
            }
        }
        assert!(decode_exo_timing(&json).is_none());

        // Timeline length prefix disagreeing with the sample array.
        let mut json = good.clone();
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "timeline" {
                    if let Json::Arr(items) = v {
                        items.pop();
                    }
                }
            }
        }
        assert!(decode_exo_timing(&json).is_none());

        // Unknown unit discriminant.
        let mut json = good;
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "timeline" {
                    if let Json::Arr(items) = v {
                        items[0] = Json::Arr(vec![Json::U64(1), Json::U64(2), Json::U64(9)]);
                    }
                }
            }
        }
        assert!(decode_exo_timing(&json).is_none());
    }
}
