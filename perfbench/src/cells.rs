//! The three workloads as lists of simulation cells, built and run only
//! through the simulator's public API.
//!
//! A *cell* is one simulation: a [`RunSpec`] on one host, or a
//! [`ClusterSpec`] over several. Every workload runs its cells as a
//! closed loop of batches: the next batch starts when the previous one
//! has finished. A cell's outcome is a pure function of its spec, so
//! every batch of one run must produce the same digests.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use es2_core::{EventPathConfig, HybridParams};
use es2_hypervisor::ExitReason;
use es2_sim::{FaultPlan, SimDuration, SimTime};
use es2_testbed::experiments::{self, RunSpec};
use es2_testbed::{
    ChurnSpec, Cluster, ClusterResult, ClusterSpec, LivenessReport, Params, PlannedMove, RunResult,
    ShardPolicy, ShardedMachine, Topology, WorkloadSpec,
};
use es2_workloads::NetperfSpec;

use crate::trace::Trace;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["paper_mux", "dense_observed"];

/// Chrome-trace event capacity of the observed cells (the value
/// `repro --trace` uses for its export).
const CHROME_EVENT_CAPACITY: u32 = 20_000;

/// Simulated warm-up and measurement window of every cell of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimWindow {
    pub warmup_ms: u64,
    pub measure_ms: u64,
}

impl SimWindow {
    /// The window the benchmark measures every workload with: the
    /// paper's 200 ms warm-up and 1 s measurement.
    pub const STANDARD: SimWindow = SimWindow {
        warmup_ms: 200,
        measure_ms: 1_000,
    };

    /// The window of the cluster cells: a quarter of the warm-up and a
    /// fifth of the measurement (the `repro --churn --fast` window at the
    /// standard one), because each run also checks them on the windowed
    /// lane executor, which costs about 35× the serial run on two threads.
    pub fn cluster(self) -> SimWindow {
        SimWindow {
            warmup_ms: self.warmup_ms / 4,
            measure_ms: self.measure_ms / 5,
        }
    }

    fn apply(self, p: Params) -> Params {
        Params {
            warmup: SimDuration::from_millis(self.warmup_ms),
            measure: SimDuration::from_millis(self.measure_ms),
            ..p
        }
    }
}

/// What a cell simulates.
pub enum Job {
    /// One host. `checked` runs the liveness checker at the end;
    /// `export` renders the Chrome span and telemetry exports.
    Machine {
        spec: RunSpec,
        checked: bool,
        export: bool,
    },
    /// A multi-host cell.
    Cluster(ClusterSpec),
}

/// One simulation of a workload.
pub struct Cell {
    /// `<shape>/<config>`, e.g. `send/PI+H+R`.
    pub label: String,
    pub cfg: EventPathConfig,
    /// Whether the cell's figures enter the modeled metrics.
    pub modeled: bool,
    pub job: Job,
}

impl Cell {
    /// Whether this is a full-ES2 (PI+H+R) cell.
    pub fn is_es2(&self) -> bool {
        self.cfg.label() == "PI+H+R"
    }

    pub fn is_baseline(&self) -> bool {
        self.cfg.label() == "Baseline"
    }

    /// Event-queue capacity hint and vCPU threads per shared core of
    /// this cell's hosts (the depths the substrate probes run at).
    pub fn queue_depth_and_threads_per_core(&self) -> (usize, usize) {
        match &self.job {
            Job::Machine { spec, .. } => (
                spec.params
                    .event_capacity_hint(spec.topo.num_vms, spec.topo.vcpus_per_vm),
                spec.topo.num_vms as usize,
            ),
            Job::Cluster(c) => {
                let slots = c.fleet.len() as u32 + c.churn.as_ref().map_or(0, |ch| ch.arrivals);
                (
                    c.params.event_capacity_hint(slots, c.vcpus_per_vm),
                    c.cap_vms_per_host as usize,
                )
            }
        }
    }

    /// The same cell with trace and telemetry switched off.
    pub fn without_observation(&self) -> Option<Cell> {
        match &self.job {
            Job::Machine {
                spec,
                checked,
                export: true,
            } => {
                let mut spec = *spec;
                spec.params.trace = false;
                spec.params.telemetry = false;
                spec.params.trace_events = 0;
                Some(Cell {
                    label: self.label.clone(),
                    cfg: self.cfg,
                    modeled: self.modeled,
                    job: Job::Machine {
                        spec,
                        checked: *checked,
                        export: false,
                    },
                })
            }
            _ => None,
        }
    }

    /// Construct the simulation (the set-up that `setup_s` times).
    pub fn build(&self) -> Built {
        match &self.job {
            Job::Machine { spec, .. } => Built::Machine(spec.sharded()),
            Job::Cluster(spec) => Built::Cluster(Cluster::new(spec.clone())),
        }
    }

    /// Run a built simulation the way the workload does: machines with
    /// `run` or `run_checked` (plus the exports for observed cells),
    /// clusters with `Cluster::run` at the pinned thread count.
    pub fn run(
        &self,
        built: Built,
        trace: &Trace,
        parent: Option<usize>,
        id: u32,
    ) -> (Outcome, RunTimes) {
        let t = Instant::now();
        match (built, &self.job) {
            (
                Built::Machine(m),
                Job::Machine {
                    checked, export, ..
                },
            ) => {
                let (r, live) = if *checked {
                    let (r, l) = trace.span("ShardedMachine::run_checked", id, parent, |_| {
                        m.run_checked()
                    });
                    (r, Some(l))
                } else {
                    (
                        trace.span("ShardedMachine::run", id, parent, |_| m.run()),
                        None,
                    )
                };
                let call_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let export = export
                    .then(|| trace.span("metrics::export", id, parent, |_| render_export(&r)));
                let times = RunTimes {
                    call_s,
                    export_s: if export.is_some() {
                        t.elapsed().as_secs_f64()
                    } else {
                        0.0
                    },
                };
                (Outcome::from_machine(self, r, live, export), times)
            }
            (Built::Cluster(c), Job::Cluster(_)) => {
                let r = trace.span("Cluster::run", id, parent, |_| c.run());
                let times = RunTimes {
                    call_s: t.elapsed().as_secs_f64(),
                    export_s: 0.0,
                };
                (Outcome::from_cluster(self, r), times)
            }
            _ => unreachable!("a cell builds its own kind of simulation"),
        }
    }

    /// Run a built simulation with plain `run`, skipping the liveness
    /// check and the exports.
    pub fn run_plain(&self, built: Built) -> Outcome {
        match built {
            Built::Machine(m) => Outcome::from_machine(self, m.run(), None, None),
            Built::Cluster(c) => Outcome::from_cluster(self, c.run()),
        }
    }

    /// Run a built simulation with the windowed parallel lane executor
    /// at `threads` workers, whatever the pinned thread count.
    pub fn run_parallel(&self, built: Built, threads: usize) -> Outcome {
        match built {
            Built::Machine(m) => Outcome::from_machine(self, m.run_parallel(threads), None, None),
            Built::Cluster(c) => Outcome::from_cluster(self, c.run_parallel(threads)),
        }
    }

    /// Run a built simulation on one thread: `run_serial` for lanes
    /// and clusters (the executors' serial oracle).
    pub fn run_serial(&self, built: Built) -> Outcome {
        match built {
            Built::Machine(m) => Outcome::from_machine(self, m.run_serial(), None, None),
            Built::Cluster(c) => Outcome::from_cluster(self, c.run_serial()),
        }
    }
}

/// Host seconds of one cell's run call and of its exports.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunTimes {
    pub call_s: f64,
    pub export_s: f64,
}

/// A constructed simulation, ready to run.
pub enum Built {
    Machine(ShardedMachine),
    Cluster(Cluster),
}

/// The `repro --trace` and `repro --telemetry` exports of one observed
/// run: the span-log Chrome trace and the merged counter + span trace.
fn render_export(r: &RunResult) -> String {
    let mut s = r
        .spans
        .as_ref()
        .map(|sp| sp.chrome_trace_json())
        .unwrap_or_default();
    if let Some(t) = &r.telemetry {
        s.push_str(&t.merged_chrome_trace(r.spans.as_ref()));
    }
    s
}

/// FNV-1a, 64 bit: a stable digest of a rendered result.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Sim-determined quantities of one cell, and the checks it failed.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Digest of the complete result with the observation reports
    /// removed, so observed and unobserved runs must agree.
    pub digest: u64,
    /// Digest of the rendered exports (observed cells only).
    pub export_digest: Option<u64>,
    pub failures: Vec<String>,
    pub m: Model,
    pub c: Counts,
}

/// The modeled (sim-time) figures of the tested VM, VM 0.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Model {
    /// Worst per-VM p99: VM 0 on the single-host workloads (the only VM
    /// with traffic), the worst fleet VM on clusters (the `repro
    /// --churn` rx p99).
    pub rx_p99_us: f64,
    pub rx_mean_us: f64,
    pub goodput_gbps: f64,
    pub exits_per_s: f64,
    pub tig_pct: f64,
}

/// Per-layer counts of one cell (every VM of every host unless a field
/// says VM 0).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    pub events: u64,
    pub faults_injected: u64,
    /// Watchdog re-kicks and re-raises plus guest RTOs (VM 0).
    pub recoveries: u64,
    pub ctx_switches: u64,
    /// Windowed exits of VM 0 by cause.
    pub exits_io: u64,
    pub exits_apic: u64,
    pub exits_extint: u64,
    /// RX device interrupts raised for VM 0.
    pub rx_irqs: u64,
    /// Interrupt deliveries by mode, every VM.
    pub posted: u64,
    pub emulated: u64,
    pub kicks: u64,
    pub backlog_drops: u64,
    pub vhost_hwm: u64,
    /// TCP segments VM 0 moved in the window, from its goodput.
    pub segments: u64,
    pub polling_entries: u64,
    pub redirections: u64,
    pub offline_predictions: u64,
    pub parked_irqs: u64,
    pub migrations: u64,
    pub aborts: u64,
    pub blackout_p99_us: f64,
    pub churn_admitted: u64,
    pub churn_retries: u64,
    pub churn_retried: u64,
    pub churn_retry_successes: u64,
    pub churn_boot_p99_us: f64,
    pub orphans: u64,
    pub ctl_errors: u64,
    pub telemetry_windows: u64,
    pub annotations: u64,
    pub span_events: u64,
}

fn model_of(r: &RunResult) -> Model {
    Model {
        rx_p99_us: r.rx_p99_us_per_vm.iter().copied().max().unwrap_or(0) as f64,
        rx_mean_us: r.mean_rx_latency_us,
        goodput_gbps: r.goodput_gbps,
        exits_per_s: r.total_exit_rate(),
        tig_pct: r.tig_percent,
    }
}

fn add_run_counts(c: &mut Counts, r: &RunResult) {
    let modes = r.modes.totals();
    c.events += r.events_simulated;
    c.faults_injected += r.fault_stats.total();
    c.recoveries += r.watchdog_rekicks + r.watchdog_reraises + r.guest_rtos;
    c.ctx_switches += r.host_ctx_switches;
    c.exits_io += r.exits.windowed(ExitReason::IoInstruction);
    c.exits_apic += r.exits.windowed(ExitReason::ApicAccess);
    c.exits_extint += r.exits.windowed(ExitReason::ExternalInterrupt);
    c.rx_irqs += r.rx_interrupts_total;
    c.posted += modes.posted;
    c.emulated += modes.emulated;
    c.kicks += r.kicks_total;
    c.backlog_drops += r.backlog_drops;
    c.vhost_hwm = c.vhost_hwm.max(
        r.vhost_pending_hwm_per_worker
            .iter()
            .copied()
            .max()
            .unwrap_or(0),
    );
    let payload = f64::from(NetperfSpec::tcp_send(1024).payload_per_segment());
    c.segments += (r.goodput_gbps * 1e9 * r.window.as_secs_f64() / 8.0 / payload).round() as u64;
    c.polling_entries += r.polling_entries;
    c.redirections += r.redirections;
    c.offline_predictions += r.offline_predictions;
    c.parked_irqs += r.parked_irqs;
    if let Some(t) = &r.telemetry {
        c.telemetry_windows += t.windows.len() as u64;
        c.annotations += t.annotations.len() as u64;
    }
    if let Some(s) = &r.spans {
        c.span_events += s.events.len() as u64;
    }
}

impl Outcome {
    fn from_machine(
        cell: &Cell,
        mut r: RunResult,
        live: Option<LivenessReport>,
        export: Option<String>,
    ) -> Outcome {
        let mut o = Outcome {
            m: model_of(&r),
            ..Outcome::default()
        };
        add_run_counts(&mut o.c, &r);
        if let Some(l) = live {
            if !l.ok() {
                o.failures.push(format!(
                    "{}: liveness: {}",
                    cell.label,
                    l.violations.join("; ")
                ));
            }
        }
        if r.goodput_gbps <= 0.0 {
            o.failures.push(format!("{}: no goodput", cell.label));
        }
        o.export_digest = export.map(|e| fnv64(e.as_bytes()));
        r.spans = None;
        r.telemetry = None;
        o.digest = fnv64(format!("{r:?}").as_bytes());
        o
    }

    fn from_cluster(cell: &Cell, r: ClusterResult) -> Outcome {
        let mut o = Outcome::default();
        for h in r.per_host.iter().filter(|h| h.crashed.is_none()) {
            add_run_counts(&mut o.c, &h.result);
        }
        // The tested VM is fleet VM 0: read it on the host it ended on.
        let home = r.final_host.first().copied().flatten().unwrap_or(0);
        if let Some(h) = r.per_host.iter().find(|h| h.host == home) {
            o.m = model_of(&h.result);
        }
        o.m.rx_p99_us = r.worst_rx_p99_us() as f64;
        let l = &r.ledger;
        o.c.migrations = l.resumed;
        o.c.aborts = l.aborts;
        o.c.blackout_p99_us = r.blackout_percentile_us(0.99);
        o.c.orphans = r.orphans() as u64;
        o.c.ctl_errors = l.ctl_errors.len() as u64;
        if let Some(ch) = &r.churn {
            o.c.churn_admitted = u64::from(ch.admitted);
            o.c.churn_retries = u64::from(ch.retries);
            o.c.churn_retried = u64::from(ch.retried);
            o.c.churn_retry_successes = u64::from(ch.retry_successes);
            o.c.churn_boot_p99_us = ch.boot_wait_percentile_us(0.99);
        }
        if !r.liveness.ok() {
            o.failures.push(format!(
                "{}: liveness: {}",
                cell.label,
                r.liveness.violations.join("; ")
            ));
        }
        if o.m.goodput_gbps <= 0.0 {
            o.failures.push(format!("{}: no goodput", cell.label));
        }
        o.digest = fnv64(r.digest().as_bytes());
        o
    }
}

fn mux_specs(params: Params, seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    // TCP send under multiplexing switches regime from seed to seed
    // (Baseline goodput 0.09-0.23 Gb/s, PI+H+R exits 1.6k-5.9k/s, at
    // 1 s and 4 s windows alike), so only the receive cells (Fig. 6b)
    // feed the modeled metrics; the send gain is printed beside the
    // paper's.
    for (shape, np, modeled) in [
        ("send", NetperfSpec::tcp_send(1024).with_threads(4), false),
        ("recv", NetperfSpec::tcp_receive(1024), true),
    ] {
        for cfg in EventPathConfig::all_four(HybridParams::TCP_QUOTA) {
            cells.push(Cell {
                label: format!("{shape}/{}", cfg.label()),
                cfg,
                modeled,
                job: Job::Machine {
                    spec: RunSpec {
                        cfg,
                        topo: Topology::multiplexed(),
                        spec: WorkloadSpec::Netperf(np),
                        params,
                        seed,
                        faults: FaultPlan::none(),
                        fill: WorkloadSpec::Idle,
                    },
                    checked: false,
                    export: false,
                },
            });
        }
    }
    cells
}

/// VMs on the dense host, and vCPUs per VM (the `repro --mq` tenant).
const DENSE_VMS: u32 = 64;
const DENSE_VCPUS: u32 = 2;

fn dense_specs(params: Params, seed: u64) -> Vec<Cell> {
    let params = Params {
        num_cores: DENSE_VCPUS + DENSE_VMS,
        queues_per_vm: 2,
        vhost_workers: 2,
        shard_policy: ShardPolicy::Affine,
        trace: true,
        trace_events: CHROME_EVENT_CAPACITY,
        telemetry: true,
        ..params
    };
    [
        EventPathConfig::baseline(),
        EventPathConfig::pi_h_r(HybridParams::TCP_QUOTA),
    ]
    .into_iter()
    .map(|cfg| Cell {
        label: format!("q2w2/{}", cfg.label()),
        cfg,
        modeled: true,
        job: Job::Machine {
            spec: RunSpec {
                cfg,
                topo: Topology {
                    num_vms: DENSE_VMS,
                    vcpus_per_vm: DENSE_VCPUS,
                },
                spec: WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024).with_threads(2)),
                params,
                seed,
                faults: experiments::chaos_plan(),
                fill: WorkloadSpec::IdleQuiet,
            },
            checked: true,
            export: true,
        },
    })
    .collect()
}

/// The `repro --churn --fast` cell: six static VMs (TCP senders and
/// pingers) on four hosts of capacity three, twelve heavy-tailed
/// arrivals, a planned move of VM 0 a quarter into the window, and the
/// control-plane fault diet (placement failures, stuck boots, a host
/// crash halfway, the first migration aborted). Its figures stay out of
/// the modeled metrics.
fn churn_specs(params: Params, seed: u64) -> Vec<Cell> {
    let fleet: Vec<WorkloadSpec> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                WorkloadSpec::Netperf(NetperfSpec::tcp_send(1024))
            } else {
                WorkloadSpec::Ping
            }
        })
        .collect();
    let at = |num: u64, den: u64| {
        SimDuration::from_nanos(params.warmup.as_nanos() + params.measure.as_nanos() * num / den)
    };
    [
        EventPathConfig::baseline(),
        EventPathConfig::pi_h_r(HybridParams::TCP_QUOTA),
    ]
    .into_iter()
    .map(|cfg| {
        let mut spec = ClusterSpec::new(cfg, 1, fleet.clone(), 4, 3, params, seed);
        spec.plan = FaultPlan {
            churn_place_fail_p: 0.10,
            churn_boot_stall_p: 0.10,
            host_crash_mask: 0b1000,
            host_crash_at: at(1, 2),
            migration_abort_nth: 1,
            ..FaultPlan::none()
        };
        spec.moves = vec![PlannedMove {
            vm: 0,
            to: 1,
            at: SimTime::ZERO + at(1, 4),
        }];
        spec.churn = Some(ChurnSpec {
            arrivals: 12,
            mean_lifetime: SimDuration::from_millis(20),
            ..ChurnSpec::default()
        });
        Cell {
            label: format!("churn/{}", cfg.label()),
            cfg,
            modeled: false,
            job: Job::Cluster(spec),
        }
    })
    .collect()
}

/// The cells of `workload` for `seed` over `window`, or `None` for an
/// unknown workload. `dense_observed` also runs the churn cluster over
/// [`SimWindow::cluster`]; its figures stay out of the modeled metrics,
/// which describe the dense host.
pub fn cells(workload: &str, seed: u64, window: SimWindow) -> Option<Vec<Cell>> {
    let params = window.apply(Params::default());
    match workload {
        "paper_mux" => Some(mux_specs(params, seed)),
        "dense_observed" => {
            let mut cells = dense_specs(params, seed);
            cells.extend(churn_specs(window.cluster().apply(Params::default()), seed));
            Some(cells)
        }
        _ => None,
    }
}

/// Seeds per modeled-metric ensemble. One seed's modeled figures
/// swing too far to bound (a churn cell's worst-VM p99 ranges from 2 ms
/// to 39 ms over sixteen seeds), so the modeled metrics average over
/// seeds derived from `--seed`. At these sizes every modeled metric's
/// spread (interquartile range over median) across ten `--seed`s stayed
/// under 9%.
pub fn ensemble_size(workload: &str) -> u64 {
    match workload {
        "paper_mux" => 32,
        _ => 8,
    }
}

/// Seeds each batch runs. A `paper_mux` batch is eight short cells
/// whose run time, and packing on the sweep threads, swing with the
/// seed, so it carries four seeds; `dense_observed` carries one.
pub fn batch_seeds(workload: &str) -> u64 {
    if workload == "paper_mux" {
        4
    } else {
        1
    }
}

/// The cells of one batch: `workload`'s cells at the first
/// [`batch_seeds`] seeds derived from `seed`. Cells of the `j`-th seed
/// (`j > 0`) carry `/s<j>` in their label.
pub fn batch_cells(workload: &str, seed: u64, window: SimWindow) -> Option<Vec<Cell>> {
    let mut out = Vec::new();
    for j in 0..batch_seeds(workload) {
        let mut cs = cells(workload, derived_seed(seed, j), window)?;
        if j > 0 {
            for c in &mut cs {
                c.label = format!("{}/s{j}", c.label);
            }
        }
        out.extend(cs);
    }
    Some(out)
}

/// The `j`-th seed derived from `seed`; the first is `seed` itself
/// (SplitMix64 for the rest).
pub fn derived_seed(seed: u64, j: u64) -> u64 {
    if j == 0 {
        return seed;
    }
    let mut z = seed ^ j.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The Baseline and PI+H+R cells of the modeled shapes over the
/// ensemble of `seed`.
pub fn ensemble_cells(workload: &str, seed: u64, window: SimWindow) -> Option<Vec<Cell>> {
    let mut out = Vec::new();
    for j in 0..ensemble_size(workload) {
        out.extend(
            cells(workload, derived_seed(seed, j), window)?
                .into_iter()
                .filter(|c| c.modeled && (c.is_es2() || c.is_baseline())),
        );
    }
    Some(out)
}

/// Modeled end-to-end figures: the mean over the modeled PI+H+R cells,
/// and PI+H+R goodput over Baseline goodput.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelFigures {
    pub m: Model,
    pub es2_gain_x: f64,
}

pub fn model_figures(cells: &[Cell], outcomes: &[Outcome]) -> ModelFigures {
    let pick = |f: fn(&Cell) -> bool| {
        cells
            .iter()
            .zip(outcomes)
            .filter(move |(c, _)| c.modeled && f(c))
            .map(|(_, o)| o.m)
    };
    let n = pick(Cell::is_es2).count().max(1) as f64;
    let mean = |f: fn(&Model) -> f64| pick(Cell::is_es2).map(|m| f(&m)).sum::<f64>() / n;
    let base: f64 = pick(Cell::is_baseline).map(|m| m.goodput_gbps).sum();
    ModelFigures {
        m: Model {
            rx_p99_us: mean(|m| m.rx_p99_us),
            rx_mean_us: mean(|m| m.rx_mean_us),
            goodput_gbps: mean(|m| m.goodput_gbps),
            exits_per_s: mean(|m| m.exits_per_s),
            tig_pct: mean(|m| m.tig_pct),
        },
        es2_gain_x: if base > 0.0 {
            pick(Cell::is_es2).map(|m| m.goodput_gbps).sum::<f64>() / base
        } else {
            0.0
        },
    }
}

/// Run `cells` once each through the sweep executor at its current
/// thread count, every cell on the serial executor (the ensemble pass).
pub fn run_each_serial(cells: &[Cell]) -> Vec<Outcome> {
    let idx: Vec<usize> = (0..cells.len()).collect();
    es2_sim::exec::sweep(&idx, |&i| cells[i].run_serial(cells[i].build()))
}

/// One batch: build every cell (timed as set-up) and run it. Single-host
/// cells are all built first, then run through the sweep executor at its
/// current thread count; clusters are built and run one after another,
/// each using that thread count for its host lanes.
pub struct Batch {
    pub setup_s: f64,
    pub run_s: f64,
    pub outcomes: Vec<Outcome>,
}

/// Per cell: whether its digest, and its export digest, equal the
/// reference outcome's.
pub fn same_digests(o: &Outcome, reference: &Outcome) -> bool {
    o.digest == reference.digest && o.export_digest == reference.export_digest
}

pub fn run_batch(cells: &[Cell], trace: &Trace, iteration: u32) -> Batch {
    trace.span("batch", iteration, None, |batch| {
        let build = |i: usize| {
            let name = match cells[i].job {
                Job::Machine { .. } => "RunSpec::sharded",
                Job::Cluster(_) => "Cluster::new",
            };
            trace.span(name, i as u32, batch, |_| cells[i].build())
        };
        let run = |i: usize, built: Built| cells[i].run(built, trace, batch, i as u32).0;
        if cells.iter().all(|c| matches!(c.job, Job::Machine { .. })) {
            let t0 = Instant::now();
            let built: Vec<Mutex<Option<Built>>> = (0..cells.len())
                .map(|i| Mutex::new(Some(build(i))))
                .collect();
            let setup_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let take = |i: usize| {
                built[i]
                    .lock()
                    .expect("no batch job panicked")
                    .take()
                    .expect("each cell runs once")
            };
            let idx: Vec<usize> = (0..cells.len()).collect();
            let outcomes = es2_sim::exec::sweep(&idx, |&i| run(i, take(i)));
            Batch {
                setup_s,
                run_s: t1.elapsed().as_secs_f64(),
                outcomes,
            }
        } else {
            // Each cluster is built just before it runs, so the batch
            // holds one cluster's hosts at a time.
            let (mut setup_s, mut run_s) = (0.0, 0.0);
            let outcomes = (0..cells.len())
                .map(|i| {
                    let t0 = Instant::now();
                    let built = build(i);
                    let t1 = Instant::now();
                    setup_s += (t1 - t0).as_secs_f64();
                    let o = run(i, built);
                    run_s += t1.elapsed().as_secs_f64();
                    o
                })
                .collect();
            Batch {
                setup_s,
                run_s,
                outcomes,
            }
        }
    })
}

/// Canonical text of a batch's digests, one `label digest` line per
/// cell (plus `label/export digest` for rendered exports) — the format
/// of the stored expected digests.
pub fn digest_text(cells: &[Cell], outcomes: &[Outcome]) -> String {
    let mut s = String::new();
    for (c, o) in cells.iter().zip(outcomes) {
        let _ = writeln!(s, "{} {:016x}", c.label, o.digest);
        if let Some(e) = o.export_digest {
            let _ = writeln!(s, "{}/export {:016x}", c.label, e);
        }
    }
    s
}
