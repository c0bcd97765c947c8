//! Observation never perturbs a run: the flight recorder and the
//! windowed telemetry pipeline only observe, so an instrumented run
//! agrees with the plain run on every simulation-determined field once
//! the observation report itself is stripped.
//!
//! Results are compared through their full `Debug` rendering: every
//! field of [`RunResult`] (including f64s, which Debug prints with
//! round-trip precision, per-VM vectors and fault/backpressure ledgers)
//! participates in the equality.

use es2_sim::SimDuration;
use es2_testbed::experiments::{self, RunSpec};
use es2_testbed::{Params, RunResult, Topology, WorkloadSpec};
use es2_workloads::NetperfSpec;

fn tiny_params() -> Params {
    Params {
        warmup: SimDuration::from_millis(20),
        measure: SimDuration::from_millis(100),
        ..Params::default()
    }
}

fn digest(r: &RunResult) -> String {
    format!("{r:?}")
}

/// The hostile-bench shape: multiplexed topology, netperf senders on
/// every VM, under the acceptance fault plan.
fn multiplexed_chaos_spec(params: Params, seed: u64) -> RunSpec {
    RunSpec {
        cfg: es2_core::EventPathConfig::pi_h_r(es2_core::HybridParams::TCP_QUOTA),
        topo: Topology::multiplexed(),
        spec: WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
        params,
        seed,
        faults: experiments::chaos_plan(),
        fill: WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024)),
    }
}

/// The all-active scale shape at 8 VMs under the acceptance fault plan.
fn scale_active_chaos_spec(params: Params, seed: u64) -> RunSpec {
    experiments::scale_active_spec(8, params, seed).with_faults(experiments::chaos_plan())
}

#[test]
fn tracing_does_not_perturb_results() {
    let params = tiny_params();
    let mut traced_params = params;
    traced_params.trace = true;
    traced_params.trace_events = 4096;
    let seed = 17;
    let plain = multiplexed_chaos_spec(params, seed).run();
    let mut traced = multiplexed_chaos_spec(traced_params, seed).run();
    assert!(traced.spans.is_some(), "traced run produced no span report");
    traced.spans = None;
    assert!(plain.spans.is_none());
    assert_eq!(
        digest(&plain),
        digest(&traced),
        "tracing perturbed the simulation"
    );
}

#[test]
fn telemetry_does_not_perturb_results() {
    let params = tiny_params();
    let mut instrumented_params = params;
    instrumented_params.telemetry = true;
    let seed = 23;
    let plain = scale_active_chaos_spec(params, seed).run();
    let mut instrumented = scale_active_chaos_spec(instrumented_params, seed).run();
    assert!(instrumented.telemetry.is_some());
    instrumented.telemetry = None;
    assert!(plain.telemetry.is_none());
    assert_eq!(
        digest(&plain),
        digest(&instrumented),
        "telemetry hooks perturbed the simulation"
    );
}
