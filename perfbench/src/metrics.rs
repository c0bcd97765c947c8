//! Every metric the benchmark prints, with its documentation: unit,
//! direction, layer, which clock it reads, and which end-to-end metric
//! it should move on which workload. `BENCHMARK.json` lists the same
//! names, units and directions; a test keeps the two in step.

/// Simulated time (repeats exactly for a seed) or host time (noisy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Sim,
    Host,
}

pub struct MetricDoc {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The crate (or part of the benchmark) the metric describes.
    pub layer: &'static str,
    pub clock: Clock,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
    pub what: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    clock: Clock,
    moves: &'static str,
    what: &'static str,
) -> MetricDoc {
    MetricDoc {
        name,
        unit,
        better,
        layer,
        clock,
        moves,
        what,
    }
}

use Clock::{Host, Sim};

/// Printed with `--trace 0`. Modeled metrics describe VM 0 (the tested
/// VM) averaged over the workload's PI+H+R cells.
#[rustfmt::skip]
pub const END_TO_END: &[MetricDoc] = &[
    m("wall_s", "s", "lower", "all", Host, "-",
      "lower-decile host seconds to run one batch of the workload's cells on one thread, set-up excluded"),
    m("setup_s", "s", "lower", "testbed+cluster", Host, "-",
      "median host seconds in the machine and cell constructors of one batch"),
    m("events_per_s", "1/s", "higher", "all", Host, "-",
      "simulated events of one batch over wall_s"),
    m("peak_rss_mb", "MB", "lower", "all", Host, "-",
      "peak resident memory of the benchmark process (VmHWM)"),
    m("model.rx_p99_us", "us", "lower", "testbed", Sim, "-",
      "p99 one-way receive latency of VM 0"),
    m("model.rx_mean_us", "us", "lower", "testbed", Sim, "-",
      "mean one-way receive latency of VM 0"),
    m("model.goodput_gbps", "Gb/s", "higher", "testbed", Sim, "-",
      "delivered goodput of VM 0 in the measurement window"),
    m("model.exits_per_s", "1/s", "lower", "hypervisor", Sim, "-",
      "VM exits per simulated second of VM 0"),
    m("model.tig_pct", "%", "higher", "metrics", Sim, "-",
      "time in guest of VM 0's vCPUs"),
    m("model.es2_gain_x", "x", "higher", "core", Sim, "-",
      "PI+H+R goodput over Baseline goodput on the same cells"),
];

/// Printed with `--trace 1`. Counts are per batch, summed over every
/// cell (and every VM and host unless `what` says VM 0); probes are
/// host ns per operation at the workload's depth.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDoc] = &[
    m("testbed.build_s", "s", "lower", "testbed", Host, "setup_s (all)",
      "median seconds in constructors per batch"),
    m("testbed.run_s", "s", "lower", "testbed", Host, "wall_s, events_per_s (paper_mux)",
      "seconds to run one batch's cells one after another"),
    m("testbed.ns_per_event", "ns", "lower", "testbed", Host, "wall_s, events_per_s (paper_mux)",
      "testbed.run_s over sim.events"),
    m("sweep.parallel_x", "x", "higher", "sim::exec", Host, "none: wall_s runs on one thread (paper_mux)",
      "wall_s over the lower-decile batch time at nproc threads, equal digests"),
    m("liveness.check_s", "s", "lower", "testbed::liveness", Host, "wall_s (dense_observed)",
      "run_checked minus run on the checked cells; 0 where the check is not separable (clusters)"),
    m("cluster.build_s", "s", "lower", "testbed::cluster", Host, "setup_s (dense_observed)",
      "median seconds in Cluster::new per batch"),
    m("lanes.run_s", "s", "lower", "sim::lane", Host, "none: wall_s runs on one thread (dense_observed)",
      "seconds per batch of the clusters on the parallel lane executor at nproc threads (plain run where a workload has no cluster)"),
    m("lanes.serial_run_s", "s", "lower", "sim::lane", Host, "wall_s (dense_observed)",
      "seconds in run_serial per batch of the same cells, digests equal to run"),
    m("lanes.overhead_x", "x", "lower", "sim::lane", Host, "none: wall_s runs on one thread (dense_observed; 1 on paper_mux)",
      "lanes.run_s over lanes.serial_run_s"),
    m("migrate.migrations", "count", "higher", "testbed::migrate", Sim, "wall_s, events_per_s (dense_observed)",
      "live migrations resumed"),
    m("migrate.aborts", "count", "lower", "testbed::migrate", Sim, "wall_s, events_per_s (dense_observed)",
      "planned migrations aborted mid-copy"),
    m("migrate.blackout_p99_us", "us", "lower", "testbed::migrate", Sim, "wall_s, events_per_s (dense_observed)",
      "worst cell's p99 migration blackout"),
    m("churn.admitted", "count", "higher", "testbed::churn", Sim, "wall_s, events_per_s (dense_observed)",
      "churn arrivals admitted"),
    m("churn.retries", "count", "lower", "testbed::churn", Sim, "setup_s (dense_observed)",
      "admission retries scheduled"),
    m("churn.retry_success_ratio", "ratio", "higher", "testbed::churn", Sim, "wall_s, events_per_s (dense_observed)",
      "retried arrivals that were admitted, over retried arrivals"),
    m("churn.boot_p99_us", "us", "lower", "testbed::churn", Sim, "wall_s, events_per_s (dense_observed)",
      "worst cell's p99 admission-to-boot wait"),
    m("liveness.orphans", "count", "lower", "testbed::liveness", Sim, "failed (dense_observed)",
      "reclaimed slots still holding resources"),
    m("liveness.ctl_errors", "count", "lower", "testbed::migrate", Sim, "failed (dense_observed)",
      "control-plane operations on a slot in the wrong state"),
    m("obs.run_off_s", "s", "lower", "metrics", Host, "wall_s (dense_observed)",
      "seconds per batch of the observed cells with trace and telemetry off"),
    m("obs.overhead_pct", "%", "lower", "metrics", Host, "wall_s (dense_observed)",
      "observed run plus export over obs.run_off_s, minus 100"),
    m("metrics.export_s", "s", "lower", "metrics", Host, "wall_s (dense_observed)",
      "seconds rendering the Chrome span and telemetry exports per batch"),
    m("metrics.telemetry_windows", "count", "lower", "metrics", Sim, "peak_rss_mb (dense_observed)",
      "occupied telemetry windows"),
    m("metrics.annotations", "count", "lower", "metrics", Sim, "peak_rss_mb (dense_observed)",
      "telemetry annotations"),
    m("metrics.span_events", "count", "lower", "metrics", Sim, "peak_rss_mb (dense_observed)",
      "span events kept for the Chrome export"),
    m("sim.events", "count", "lower", "sim", Sim, "wall_s (all)",
      "events pushed through the event queues"),
    m("sim.queue_ns_per_op", "ns", "lower", "sim::queue", Host, "wall_s (paper_mux)",
      "EventQueue push+pop at the workload's event_capacity_hint depth"),
    m("sim.faults_injected", "count", "lower", "sim::faults", Sim, "model.goodput_gbps (dense_observed)",
      "faults the plans injected"),
    m("sim.recoveries", "count", "lower", "testbed", Sim, "model.goodput_gbps (dense_observed)",
      "watchdog re-kicks and re-raises plus guest RTOs of VM 0"),
    m("sched.ctx_switches", "count", "lower", "sched", Sim, "model.rx_p99_us (paper_mux)",
      "host context switches"),
    m("sched.tick_ns", "ns", "lower", "sched", Host, "wall_s (paper_mux)",
      "CfsScheduler tick with the workload's vCPU threads per core"),
    m("hypervisor.exits_io", "count", "lower", "hypervisor", Sim, "model.exits_per_s (paper_mux)",
      "I/O-instruction exits of VM 0 in the window"),
    m("hypervisor.exits_apic", "count", "lower", "hypervisor", Sim, "model.exits_per_s (paper_mux)",
      "APIC-access exits of VM 0 in the window"),
    m("hypervisor.exits_extint", "count", "lower", "hypervisor", Sim, "model.exits_per_s (paper_mux)",
      "external-interrupt exits of VM 0 in the window"),
    m("apic.rx_irqs", "count", "lower", "apic", Sim, "model.exits_per_s (paper_mux)",
      "RX device interrupts raised for VM 0"),
    m("apic.posted_ratio", "ratio", "higher", "apic", Sim, "model.exits_per_s (dense_observed)",
      "posted deliveries over posted plus emulated, every VM"),
    m("apic.pi_ns_per_irq", "ns", "lower", "apic", Host, "wall_s (paper_mux)",
      "posted-interrupt post, sync, ack and EOI of one vector"),
    m("virtio.kicks", "count", "lower", "virtio", Sim, "model.exits_per_s (paper_mux)",
      "guest kicks of VM 0"),
    m("virtio.backlog_drops", "count", "lower", "virtio", Sim, "model.goodput_gbps (paper_mux)",
      "ingress packets tail-dropped at VM 0's host backlog"),
    m("virtio.vhost_hwm", "count", "lower", "virtio", Sim, "model.rx_p99_us (dense_observed)",
      "deepest backlog any of VM 0's vhost workers carried"),
    m("virtio.ring_ns_per_desc", "ns", "lower", "virtio", Host, "wall_s (paper_mux)",
      "split-ring round trip of one descriptor"),
    m("core.polling_entries", "count", "higher", "core", Sim, "model.exits_per_s (paper_mux)",
      "switches of VM 0's TX handler into polling"),
    m("core.redirections", "count", "higher", "core", Sim, "model.rx_p99_us (paper_mux)",
      "interrupts redirected to an online vCPU"),
    m("core.offline_predictions", "count", "lower", "core", Sim, "model.rx_p99_us (paper_mux)",
      "interrupts that found no vCPU online"),
    m("core.parked_irqs", "count", "lower", "core", Sim, "model.rx_p99_us (paper_mux)",
      "interrupts of VM 0 parked on offline vCPUs"),
    m("core.hybrid_ns_per_pkt", "ns", "lower", "core", Host, "wall_s (paper_mux)",
      "one packet polled by the hybrid handler at quota 4"),
    m("core.redirect_ns_per_select", "ns", "lower", "core", Host, "wall_s (paper_mux)",
      "one redirection target selection"),
    m("host.rq_wait_s", "s", "lower", "host", Host, "wall_s (all)",
      "seconds the process's threads waited for a CPU during the measured loop"),
    m("trace.overhead_pct", "%", "lower", "benchmark", Host, "-",
      "batch time with span recording on over off, minus 100, in the same run"),
    m("attrib.unattributed_pct", "%", "lower", "benchmark", Host, "testbed.run_s",
      "share of testbed.run_s not explained by probe ns times exact counts"),
];
