//! Model-validation integration tests: the µDG core model against the
//! independent cycle-stepped reference simulator, and sanity bounds on the
//! BSA models (the Table 1 methodology as an automated check).

use prism::exocore::WorkloadData;
use prism::tdg::{run_exocore, Assignment, BsaKind};
use prism::udg::{simulate_reference, simulate_trace, CoreConfig};

/// Every workload the µDG is validated on, traced at a third of its
/// default size: the vertical microbenchmarks, then the registry.
fn validation_traces() -> Vec<(&'static str, prism::sim::Trace)> {
    prism::workloads::MICRO
        .iter()
        .chain(prism::workloads::ALL)
        .map(|w| {
            let trace = prism::sim::trace(&(w.build)(w.default_n / 3 + 16)).expect(w.name);
            (w.name, trace)
        })
        .collect()
}

/// Holds the µDG's relative IPC error against the reference simulator
/// ([`ReferenceRun::ipc_error`](prism::udg::ReferenceRun::ipc_error)) on
/// each core, over every validation trace, to the core's `(mean, worst)`
/// bound. The bounds sit just above what the two models measure, so a
/// change to either that widens their gap fails here.
fn assert_udg_matches_reference(bounds: &[(CoreConfig, f64, f64)]) {
    let traces = validation_traces();
    assert_eq!(traces.len(), 57);
    for (core, mean_bound, worst_bound) in bounds {
        let mut sum = 0.0;
        let (mut worst, mut worst_name) = (0.0f64, "");
        for (name, trace) in &traces {
            let r = simulate_reference(trace, core);
            assert_eq!(r.insts, trace.len() as u64, "{name}: reference lost insts");
            let err = r.ipc_error(simulate_trace(trace, core).ipc());
            sum += err;
            if err > worst {
                (worst, worst_name) = (err, name);
            }
        }
        let mean = sum / traces.len() as f64;
        assert!(
            mean <= *mean_bound,
            "{}: mean µDG IPC error {:.2}% exceeds {:.2}%",
            core.name,
            mean * 100.0,
            mean_bound * 100.0
        );
        assert!(
            worst <= *worst_bound,
            "{}: µDG IPC error {:.2}% on {worst_name} exceeds {:.2}%",
            core.name,
            worst * 100.0,
            worst_bound * 100.0
        );
    }
}

// The paper's Table 1 puts the µDG within 2–3 % of a cycle-level
// simulator. Here it is held to this reproduction's reference simulator
// on 57 workloads and six cores, in two tests so the harness runs them
// side by side. Measured (mean / worst): OOO1 1.44 / 5.38 %, OOO8
// 2.82 / 14.25 %, IO2 3.90 / 32.60 % (micro-fp), OOO2 1.74 / 11.52 %,
// OOO4 1.21 / 8.58 %, OOO6 1.49 / 8.73 %. IO2's worst case comes from the
// reference's in-order in-flight cap, an open question about which model
// is right (EXPERIMENTS.md, "µDG vs reference on every workload").

#[test]
fn udg_matches_reference_on_ooo1_ooo8_and_io2() {
    assert_udg_matches_reference(&[
        (CoreConfig::ooo(1), 0.020, 0.065),
        (CoreConfig::ooo(8), 0.035, 0.150),
        (CoreConfig::io2(), 0.045, 0.335),
    ]);
}

#[test]
fn udg_matches_reference_on_ooo2_ooo4_and_ooo6() {
    assert_udg_matches_reference(&[
        (CoreConfig::ooo2(), 0.025, 0.125),
        (CoreConfig::ooo4(), 0.020, 0.095),
        (CoreConfig::ooo6(), 0.020, 0.095),
    ]);
}

#[test]
fn simd_model_bounds() {
    // Vector length 4: a perfect SIMD loop cannot exceed ~4x + mispredict
    // elimination headroom; it must never be pessimized below ~0.9x.
    let w = prism::workloads::by_name("stencil").unwrap();
    let data = WorkloadData::prepare(&w.build_default()).unwrap();
    let core = CoreConfig::ooo4();
    let base = simulate_trace(&data.trace, &core);
    let lid = *data.plans.simd.keys().next().expect("stencil vectorizes");
    let mut a = Assignment::none();
    a.set(lid, BsaKind::Simd);
    let run = run_exocore(
        &data.trace,
        &data.ir,
        &core,
        &data.plans,
        &a,
        &[BsaKind::Simd],
    );
    let speedup = base.cycles as f64 / run.cycles as f64;
    assert!(
        (0.9..=6.0).contains(&speedup),
        "SIMD speedup out of physical bounds: {speedup:.2}"
    );
    // SIMD cannot touch more lanes than exist.
    assert!(run.events.accel.vector_lane_ops <= 4 * data.trace.len() as u64);
}

#[test]
fn trace_p_replay_fraction_matches_path_profile() {
    // The irregular-branch loop of tpch1 has ~10% off-path iterations:
    // the Trace-P model's replay count must track the path profile.
    let w = prism::workloads::by_name("tpch1").unwrap();
    let data = WorkloadData::prepare(&w.build_default()).unwrap();
    let lid = *data
        .plans
        .trace_p
        .keys()
        .next()
        .expect("tpch1 has a hot trace");
    let prof = &data.ir.paths[&lid];
    let expected_off = prof.iterations - prof.hot_path().map_or(0, |(_, c)| *c);
    let mut a = Assignment::none();
    a.set(lid, BsaKind::TraceP);
    let run = run_exocore(
        &data.trace,
        &data.ir,
        &CoreConfig::ooo2(),
        &data.plans,
        &a,
        &[BsaKind::TraceP],
    );
    let tol = expected_off / 5 + 8;
    assert!(
        run.trace_replays.abs_diff(expected_off) <= tol,
        "replays {} vs off-path iterations {}",
        run.trace_replays,
        expected_off
    );
}

#[test]
fn offload_units_eliminate_pipeline_energy() {
    // NS-DF regions bypass fetch/decode/rename: with 100% coverage the
    // pipeline-event counts must drop to (almost) nothing.
    let w = prism::workloads::by_name("456.hmmer").unwrap();
    let data = WorkloadData::prepare(&w.build_default()).unwrap();
    let core = CoreConfig::ooo2();
    let base = simulate_trace(&data.trace, &core);
    let Some((&lid, _)) = data.plans.ns_df.iter().next() else {
        panic!("hmmer should offload to NS-DF");
    };
    let mut a = Assignment::none();
    a.set(lid, BsaKind::NsDf);
    let run = run_exocore(
        &data.trace,
        &data.ir,
        &core,
        &data.plans,
        &a,
        &[BsaKind::NsDf],
    );
    assert!(
        run.events.core.fetches < base.events.core.fetches / 4,
        "fetches {} vs baseline {}",
        run.events.core.fetches,
        base.events.core.fetches
    );
    // But the shared cache still sees the loop's accesses.
    assert!(run.events.core.dcache_accesses * 2 >= base.events.core.dcache_accesses);
}

#[test]
fn dp_cgra_communicates_and_computes() {
    let w = prism::workloads::by_name("conv").unwrap();
    let data = WorkloadData::prepare(&w.build_default()).unwrap();
    let Some((&lid, plan)) = data.plans.dp_cgra.iter().next() else {
        panic!("conv should be CGRA-mappable");
    };
    assert!(plan.vectorized, "conv's loop is data-parallel");
    assert!(plan.offloaded.len() >= 5, "conv has a large compute slice");
    let mut a = Assignment::none();
    a.set(lid, BsaKind::DpCgra);
    let run = run_exocore(
        &data.trace,
        &data.ir,
        &CoreConfig::ooo2(),
        &data.plans,
        &a,
        &[BsaKind::DpCgra],
    );
    assert!(run.events.accel.cgra_ops > 0);
    // Comm cannot exceed the rejected-plan bound.
    assert!(
        run.events.accel.comm_sends + run.events.accel.comm_recvs <= run.events.accel.cgra_ops,
        "communication exceeds computation: the analyzer bound leaked"
    );
}
