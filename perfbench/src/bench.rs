//! One benchmark run: the workload's closed loop, the output checks,
//! the serial reference pass, and (traced) the per-layer figures.

use std::fmt::Write as _;
use std::time::Instant;

use crate::cells::{self, same_digests, Cell, Counts, Outcome, SimWindow};
use crate::host::{self, median, quantile, RqWaitSampler};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::trace::{self, Trace};

/// The seed the stored digests were made with.
pub const DEFAULT_SEED: u64 = es2_bench::SEED;

/// Seed kept out of tuning; a later change that claims a gain must
/// also show it on this seed.
pub const HELD_OUT_SEED: u64 = 90_210;

/// Expected digests of every cell for [`DEFAULT_SEED`] and the standard
/// windows: `<workload> <cell> <digest>` per line.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// Threads of the timed loop. The benchmark runs on hosts whose few
/// cores are shared with other tenants, where a second busy thread, and
/// above all the lane executor's barrier between two threads once per
/// window, measures the host's scheduler rather than the simulator: the
/// churn cluster's batches on two threads spread 40% between runs. The
/// parallel executors are timed at `nproc` threads in the untimed
/// passes (`lanes.run_s`, `sweep.parallel_x`).
const TIMED_THREADS: usize = 1;

/// Batches of single-host cells the traced run times at `nproc`
/// threads for `sweep.parallel_x`.
const PARALLEL_BATCHES: usize = 3;

/// The quantile of a run's batch times that `wall_s` reports. Other
/// tenants of the host stream memory in episodes of one to tens of
/// seconds, during which a batch takes up to 1.7× as long (the churn
/// cluster, whose merge loop steps four hosts in turn, suffers most; a
/// memory-streaming process on the other core reproduces the 1.7×). The
/// share of a run spent in such episodes changes from run to run, and
/// with it the median batch; the lower decile reads the simulator's own
/// speed.
const WALL_QUANTILE: f64 = 0.1;

/// Fewest measured batches per run, so that medians exist even when a
/// batch outlasts `--seconds`.
const MIN_BATCHES: u32 = 4;

/// The goodput gain of full ES2 over Baseline the paper reports for
/// Fig. 6 TCP send (≈2×).
const PAPER_SEND_GAIN_X: f64 = 2.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: es2-perfbench --workload <paper_mux|dense_observed|all> --seed <n> \
     --seconds <s> --trace <0|1>";

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !cells::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub text: String,
    /// Chrome trace of the benchmark's spans (traced runs).
    pub chrome: Option<String>,
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn metric_json(prefix: &str, m: &Metric) -> String {
    format!(
        "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        m.name, m.value, m.unit
    )
}

/// One result over several workloads' reports, metric names prefixed
/// with `<workload>/`.
pub fn combined_json(reports: &[(&str, Report)]) -> String {
    let metrics: Vec<String> = reports
        .iter()
        .flat_map(|(w, r)| {
            r.metrics
                .iter()
                .map(move |m| metric_json(&format!("{w}/"), m))
        })
        .collect();
    result_json(
        reports.iter().all(|(_, r)| r.correct),
        reports.iter().map(|(_, r)| r.attempted).sum(),
        reports.iter().map(|(_, r)| r.failed).sum(),
        &metrics,
    )
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self.metrics.iter().map(|m| metric_json("", m)).collect();
        result_json(self.correct, self.attempted, self.failed, &metrics)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Cells attempted and failed, with the first few failure messages.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn cell(&mut self, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        for f in failures {
            if self.messages.len() < 20 {
                self.messages.push(f.clone());
            }
        }
    }

    /// Check a re-run of cell `cell` against its reference outcome.
    fn repeat(&mut self, cell: &Cell, o: &Outcome, reference: &Outcome, how: &str) {
        let mut failures = o.failures.clone();
        if o.digest != reference.digest {
            failures.push(format!(
                "{}: digest {how} differs from the first batch",
                cell.label
            ));
        }
        self.cell(&failures);
    }
}

/// Differences between the reference digests and the stored ones.
fn expected_mismatches(workload: &str, cells: &[Cell], outcomes: &[Outcome]) -> Vec<Vec<String>> {
    let text = cells::digest_text(cells, outcomes);
    let expected: Vec<&str> = EXPECTED_DIGESTS
        .lines()
        .filter_map(|l| l.strip_prefix(workload)?.strip_prefix(' '))
        .collect();
    let mut lines = text.lines();
    cells
        .iter()
        .zip(outcomes)
        .map(|(c, o)| {
            let n = 1 + usize::from(o.export_digest.is_some());
            lines
                .by_ref()
                .take(n)
                .filter(|l| !expected.contains(l))
                .map(|l| format!("{}: digest {l} is not the stored one", c.label))
                .collect()
        })
        .collect()
}

/// Host seconds of one pass over the cells, one cell at a time.
#[derive(Clone, Copy, Default)]
struct Pass {
    /// The workload's own run call (liveness check included).
    call_s: f64,
    export_s: f64,
    /// Plain `run` at the pinned thread count.
    plain_s: f64,
    serial_s: f64,
    /// The batch at `nproc` threads: `run_parallel` for clusters, the
    /// workload's call for the single-lane machines.
    parallel_s: f64,
    /// The lane executors, on the clusters where the workload has any:
    /// at `nproc` threads (plain `run` on one-lane machines) and serial.
    lanes_run_s: f64,
    lanes_serial_s: f64,
    /// `call_s` of the cells that check liveness, and their `plain_s`.
    checked_call_s: f64,
    checked_plain_s: f64,
    /// Observed cells: the run call with observation on, and off.
    obs_on_s: f64,
    obs_off_s: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Run `f` with the sweep executor at `n` threads, then pin it back to
/// [`TIMED_THREADS`].
fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    es2_sim::exec::set_threads(Some(n));
    let r = f();
    es2_sim::exec::set_threads(Some(TIMED_THREADS));
    r
}

/// Re-run every cell one at a time and check its digest against the
/// reference: the serial executors (`run_serial`), the clusters on the
/// parallel lane executor at `nproc` threads and the unobserved variant
/// of observed cells always, and with `full` also the workload's own
/// call and plain `run`, for the layer timings.
fn serial_pass(
    cells: &[Cell],
    reference: &[Outcome],
    nproc: usize,
    full: bool,
    checks: &mut Checks,
) -> Pass {
    let quiet = Trace::new(false);
    let is_cluster = |c: &Cell| matches!(c.job, cells::Job::Cluster(_));
    let has_cluster = cells.iter().any(is_cluster);
    let mut p = Pass::default();
    for (k, (cell, r)) in cells.iter().zip(reference).enumerate() {
        let checked = matches!(cell.job, cells::Job::Machine { checked: true, .. });
        let (on, plain) = if full {
            let (o, t) = cell.run(cell.build(), &quiet, None, k as u32);
            checks.repeat(cell, &o, r, "of the workload's call run alone");
            p.call_s += t.call_s;
            p.export_s += t.export_s;
            let plain = if checked {
                let built = cell.build();
                let (o, s) = timed(|| cell.run_plain(built));
                checks.repeat(cell, &o, r, "of plain run");
                p.checked_call_s += t.call_s;
                p.checked_plain_s += s;
                s
            } else {
                t.call_s
            };
            p.plain_s += plain;
            (t.call_s, plain)
        } else {
            (0.0, 0.0)
        };
        let built = cell.build();
        let (o, serial_s) = timed(|| cell.run_serial(built));
        checks.repeat(cell, &o, r, "of run_serial");
        p.serial_s += serial_s;
        let lanes_s = if is_cluster(cell) {
            let built = cell.build();
            let (o, s) = timed(|| cell.run_parallel(built, nproc));
            checks.repeat(
                cell,
                &o,
                r,
                "of the parallel lane executor at nproc threads",
            );
            p.parallel_s += s;
            s
        } else {
            p.parallel_s += on;
            plain
        };
        if is_cluster(cell) == has_cluster {
            p.lanes_run_s += lanes_s;
            p.lanes_serial_s += serial_s;
        }
        if let Some(off) = cell.without_observation() {
            let (o, t) = off.run(off.build(), &quiet, None, k as u32);
            checks.repeat(cell, &o, r, "with observation off");
            p.obs_off_s += t.call_s;
            p.obs_on_s += on;
        }
    }
    p
}

fn sum_counts(outcomes: &[Outcome]) -> Counts {
    let mut t = Counts::default();
    for o in outcomes {
        let c = &o.c;
        t.events += c.events;
        t.faults_injected += c.faults_injected;
        t.recoveries += c.recoveries;
        t.ctx_switches += c.ctx_switches;
        t.exits_io += c.exits_io;
        t.exits_apic += c.exits_apic;
        t.exits_extint += c.exits_extint;
        t.rx_irqs += c.rx_irqs;
        t.posted += c.posted;
        t.emulated += c.emulated;
        t.kicks += c.kicks;
        t.backlog_drops += c.backlog_drops;
        t.vhost_hwm = t.vhost_hwm.max(c.vhost_hwm);
        t.segments += c.segments;
        t.polling_entries += c.polling_entries;
        t.redirections += c.redirections;
        t.offline_predictions += c.offline_predictions;
        t.parked_irqs += c.parked_irqs;
        t.migrations += c.migrations;
        t.aborts += c.aborts;
        t.blackout_p99_us = t.blackout_p99_us.max(c.blackout_p99_us);
        t.churn_admitted += c.churn_admitted;
        t.churn_retries += c.churn_retries;
        t.churn_retried += c.churn_retried;
        t.churn_retry_successes += c.churn_retry_successes;
        t.churn_boot_p99_us = t.churn_boot_p99_us.max(c.churn_boot_p99_us);
        t.orphans += c.orphans;
        t.ctl_errors += c.ctl_errors;
        t.telemetry_windows += c.telemetry_windows;
        t.annotations += c.annotations;
        t.span_events += c.span_events;
    }
    t
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run the benchmark: `--seconds` of batches over `window`.
pub fn run(args: &Args, window: SimWindow) -> Result<Report, String> {
    let cells = cells::batch_cells(&args.workload, args.seed, window)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = TIMED_THREADS;
    es2_sim::exec::set_threads(Some(threads));
    // Lane and vhost-worker counts are model parameters: pin them so the
    // environment cannot change what is simulated.
    es2_sim::exec::set_lanes(Some(1));
    es2_sim::exec::set_vhost_workers(Some(1));

    let mut text = String::new();
    let _ = writeln!(
        text,
        "es2-perfbench workload={} seed={} seconds={} trace={} nproc={nproc} threads={threads} \
         window={}+{}ms cells={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        window.warmup_ms,
        window.measure_ms,
        cells.len()
    );

    let tr = Trace::new(false);
    let mut checks = Checks::default();

    // The first batch warms caches and lazy set-up; its outcomes are the
    // reference every later run of a cell must repeat exactly.
    let first = cells::run_batch(&cells, &tr, 0);
    let reference = first.outcomes;
    let stored = (args.seed == DEFAULT_SEED && window == SimWindow::STANDARD)
        .then(|| expected_mismatches(&args.workload, &cells, &reference));
    for (k, o) in reference.iter().enumerate() {
        let mut failures = o.failures.clone();
        if let Some(m) = &stored {
            failures.extend(m[k].iter().cloned());
        }
        checks.cell(&failures);
    }

    let sampler = RqWaitSampler::start();
    let t_loop = Instant::now();
    let (mut setup, mut run_on, mut run_off) = (Vec::new(), Vec::new(), Vec::new());
    let mut batches = 0u32;
    while batches < MIN_BATCHES || t_loop.elapsed().as_secs_f64() < args.seconds {
        batches += 1;
        // Traced runs alternate span recording on and off, which gives
        // the recorder's own overhead within one run.
        let traced = args.trace && batches.is_multiple_of(2);
        tr.set_enabled(traced);
        let b = cells::run_batch(&cells, &tr, batches);
        tr.set_enabled(false);
        setup.push(b.setup_s);
        if traced { &mut run_on } else { &mut run_off }.push(b.run_s);
        for ((cell, o), r) in cells.iter().zip(&b.outcomes).zip(&reference) {
            let mut failures = o.failures.clone();
            if !same_digests(o, r) {
                failures.push(format!("{}: digest of batch {batches} differs", cell.label));
            }
            checks.cell(&failures);
        }
    }
    let rq_wait_s = sampler.finish();
    // The memory the workload's batches need, before the untimed passes.
    let peak_rss_mb = host::peak_rss_mb();

    // One pass untraced (the executor-identity checks); three traced,
    // for medians of the layer timings.
    let passes: Vec<Pass> = (0..if args.trace { 3 } else { 1 })
        .map(|_| serial_pass(&cells, &reference, nproc, args.trace, &mut checks))
        .collect();
    // Traced: the same batches at nproc threads, against the timed
    // loop's one. A cluster batch at nproc threads is its clusters on the
    // parallel lane executor one after another, which the passes timed.
    let machines_only = cells
        .iter()
        .all(|c| matches!(c.job, cells::Job::Machine { .. }));
    let parallel_batch_s = if args.trace && !machines_only {
        median(&passes.iter().map(|p| p.parallel_s).collect::<Vec<_>>())
    } else if args.trace {
        let mut run_s = Vec::new();
        for k in 0..PARALLEL_BATCHES {
            let b = at_threads(nproc, || {
                cells::run_batch(&cells, &tr, batches + 1 + k as u32)
            });
            for ((cell, o), r) in cells.iter().zip(&b.outcomes).zip(&reference) {
                let mut failures = o.failures.clone();
                if !same_digests(o, r) {
                    failures.push(format!("{}: digest at nproc threads differs", cell.label));
                }
                checks.cell(&failures);
            }
            run_s.push(b.run_s);
        }
        quantile(&run_s, WALL_QUANTILE)
    } else {
        0.0
    };

    let _ = writeln!(text, "batches={batches} host.rq_wait_s={rq_wait_s:.6}");
    let _ = writeln!(
        text,
        "batch run_s over {} untraced batches: p10 {:.6} p25 {:.6} p50 {:.6} p75 {:.6} p90 {:.6}",
        run_off.len(),
        quantile(&run_off, 0.1),
        quantile(&run_off, 0.25),
        median(&run_off),
        quantile(&run_off, 0.75),
        quantile(&run_off, 0.9)
    );
    for l in cells::digest_text(&cells, &reference).lines() {
        let _ = writeln!(text, "digest {} {l}", args.workload);
    }
    if let Some(gain) = send_gain(&cells, &reference) {
        let _ = writeln!(
            text,
            "paper_mux send 1024 B: PI+H+R/Baseline goodput {gain:.3}x vs the paper's \
             ~{PAPER_SEND_GAIN_X}x (error {:+.1}%); absolute rates are not validated",
            100.0 * (gain / PAPER_SEND_GAIN_X - 1.0)
        );
    }

    let measured = Measured {
        counts: sum_counts(&reference),
        setup_s: median(&setup),
        wall_s: quantile(&run_off, WALL_QUANTILE),
        traced_wall_s: quantile(&run_on, WALL_QUANTILE),
        traced_batches: run_on.len(),
        parallel_batch_s,
        rq_wait_s,
        peak_rss_mb,
    };
    let mut chrome = None;
    let values = if args.trace {
        let spans = tr.spans();
        text.push_str(&trace::render_self_times(&spans));
        let v = per_layer(&cells, &measured, &passes, &spans, &mut text);
        chrome = Some(trace::chrome_json(&spans));
        v
    } else {
        // The modeled metrics average an ensemble of seeds derived from
        // --seed, run once on the serial executors, untimed.
        let ens = cells::ensemble_cells(&args.workload, args.seed, window)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?;
        let (outcomes, ens_s) = at_threads(nproc, || timed(|| cells::run_each_serial(&ens)));
        for o in &outcomes {
            checks.cell(&o.failures);
        }
        let _ = writeln!(
            text,
            "model ensemble: {} seeds, {} cells, {ens_s:.3} s",
            cells::ensemble_size(&args.workload),
            ens.len()
        );
        end_to_end(&measured, &cells::model_figures(&ens, &outcomes))
    };
    let metrics: Vec<Metric> = values
        .into_iter()
        .map(|(name, value)| Metric {
            name,
            value,
            unit: END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|d| d.name == name)
                .expect("every printed metric is documented")
                .unit,
        })
        .collect();

    for m in &metrics {
        let _ = writeln!(text, "{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        text,
        "fail_ratio {:.6} ({} of {} cells failed a check)",
        ratio(checks.failed as f64, checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    for msg in &checks.messages {
        let _ = writeln!(text, "FAIL {msg}");
    }
    Ok(Report {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        text,
        chrome,
    })
}

/// What the loop measured, for the metric lists.
struct Measured {
    /// Per-layer counts of the reference batch.
    counts: Counts,
    setup_s: f64,
    /// Lower-decile batch run time without spans, and with (traced
    /// runs).
    wall_s: f64,
    traced_wall_s: f64,
    traced_batches: usize,
    /// Lower-decile batch run time at nproc threads (traced runs).
    parallel_batch_s: f64,
    rq_wait_s: f64,
    peak_rss_mb: f64,
}

fn end_to_end(m: &Measured, fig: &cells::ModelFigures) -> Vec<(&'static str, f64)> {
    vec![
        ("wall_s", m.wall_s),
        ("setup_s", m.setup_s),
        ("events_per_s", ratio(m.counts.events as f64, m.wall_s)),
        ("peak_rss_mb", m.peak_rss_mb),
        ("model.rx_p99_us", fig.m.rx_p99_us),
        ("model.rx_mean_us", fig.m.rx_mean_us),
        ("model.goodput_gbps", fig.m.goodput_gbps),
        ("model.exits_per_s", fig.m.exits_per_s),
        ("model.tig_pct", fig.m.tig_pct),
        ("model.es2_gain_x", fig.es2_gain_x),
    ]
}

/// The per-layer metrics, and the attribution table into `text`.
fn per_layer(
    cells: &[Cell],
    m: &Measured,
    passes: &[Pass],
    spans: &[trace::Span],
    text: &mut String,
) -> Vec<(&'static str, f64)> {
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let (depth, per_core) = cells[0].queue_depth_and_threads_per_core();
    let probe = Probes {
        queue: probes::queue_ns_per_op(depth),
        tick: probes::sched_tick_ns(per_core),
        pi: probes::apic_pi_ns_per_irq(),
        ring: probes::virtio_ring_ns_per_desc(),
        hybrid: probes::core_hybrid_ns_per_pkt(),
        redirect: probes::core_redirect_ns_per_select(),
    };
    let cluster_build_s = trace::self_times(spans)
        .get("Cluster::new")
        .map_or(0.0, |&(_, total, _)| total as f64 / 1e9)
        / m.traced_batches as f64;
    let testbed_run_s = med(|p| p.call_s + p.export_s);
    let (plain_s, serial_s) = (med(|p| p.plain_s), med(|p| p.serial_s));
    let (lanes_run_s, lanes_serial_s) = (med(|p| p.lanes_run_s), med(|p| p.lanes_serial_s));
    let (obs_on, obs_off) = (med(|p| p.obs_on_s), med(|p| p.obs_off_s));
    let export_s = med(|p| p.export_s);
    let liveness_s = med(|p| p.checked_call_s) - med(|p| p.checked_plain_s);
    let c = &m.counts;

    let probed = [
        ("sim::queue", "sim.events", probe.queue, c.events),
        ("sched", "sched.ctx_switches", probe.tick, c.ctx_switches),
        ("apic", "posted+emulated", probe.pi, c.posted + c.emulated),
        ("virtio", "VM 0 segments", probe.ring, c.segments),
        ("core::hybrid", "VM 0 segments", probe.hybrid, c.segments),
        (
            "core::redirect",
            "redirections+offline",
            probe.redirect,
            c.redirections + c.offline_predictions,
        ),
    ];
    // Layers the passes time directly, as differences of whole runs.
    let timed_layers = [
        ("sim::lane", "run - run_serial", plain_s - serial_s),
        ("testbed::liveness", "run_checked - run", liveness_s),
        ("metrics::export", "export", export_s),
        (
            "metrics hooks",
            "observed - unobserved run",
            obs_on - obs_off,
        ),
    ];
    let _ = writeln!(text, "attribution of testbed.run_s = {testbed_run_s:.4} s:");
    let mut attributed = 0.0;
    let mut row = |layer: &str, how: String, s: f64| {
        attributed += s;
        let _ = writeln!(
            text,
            "  {layer:<18} {how:<48} {s:>8.4} s {:>6.1}%",
            100.0 * ratio(s, testbed_run_s)
        );
    };
    for (layer, count_name, ns, n) in probed {
        row(
            layer,
            format!("{ns:.2} ns x {n} {count_name}"),
            ns * n as f64 / 1e9,
        );
    }
    for (layer, how, s) in timed_layers {
        row(layer, how.to_string(), s);
    }
    let unattributed = 100.0 * (1.0 - ratio(attributed, testbed_run_s));
    let _ = writeln!(text, "  unattributed {unattributed:>71.1}%");

    vec![
        ("testbed.build_s", m.setup_s),
        ("testbed.run_s", testbed_run_s),
        (
            "testbed.ns_per_event",
            1e9 * ratio(testbed_run_s, c.events as f64),
        ),
        ("sweep.parallel_x", ratio(m.wall_s, m.parallel_batch_s)),
        ("liveness.check_s", liveness_s),
        ("cluster.build_s", cluster_build_s),
        ("lanes.run_s", lanes_run_s),
        ("lanes.serial_run_s", lanes_serial_s),
        ("lanes.overhead_x", ratio(lanes_run_s, lanes_serial_s)),
        ("migrate.migrations", c.migrations as f64),
        ("migrate.aborts", c.aborts as f64),
        ("migrate.blackout_p99_us", c.blackout_p99_us),
        ("churn.admitted", c.churn_admitted as f64),
        ("churn.retries", c.churn_retries as f64),
        (
            "churn.retry_success_ratio",
            if c.churn_retried == 0 {
                1.0
            } else {
                c.churn_retry_successes as f64 / c.churn_retried as f64
            },
        ),
        ("churn.boot_p99_us", c.churn_boot_p99_us),
        ("liveness.orphans", c.orphans as f64),
        ("liveness.ctl_errors", c.ctl_errors as f64),
        ("obs.run_off_s", obs_off),
        (
            "obs.overhead_pct",
            if obs_off > 0.0 {
                100.0 * ((obs_on + export_s) / obs_off - 1.0)
            } else {
                0.0
            },
        ),
        ("metrics.export_s", export_s),
        ("metrics.telemetry_windows", c.telemetry_windows as f64),
        ("metrics.annotations", c.annotations as f64),
        ("metrics.span_events", c.span_events as f64),
        ("sim.events", c.events as f64),
        ("sim.queue_ns_per_op", probe.queue),
        ("sim.faults_injected", c.faults_injected as f64),
        ("sim.recoveries", c.recoveries as f64),
        ("sched.ctx_switches", c.ctx_switches as f64),
        ("sched.tick_ns", probe.tick),
        ("hypervisor.exits_io", c.exits_io as f64),
        ("hypervisor.exits_apic", c.exits_apic as f64),
        ("hypervisor.exits_extint", c.exits_extint as f64),
        ("apic.rx_irqs", c.rx_irqs as f64),
        (
            "apic.posted_ratio",
            ratio(c.posted as f64, (c.posted + c.emulated) as f64),
        ),
        ("apic.pi_ns_per_irq", probe.pi),
        ("virtio.kicks", c.kicks as f64),
        ("virtio.backlog_drops", c.backlog_drops as f64),
        ("virtio.vhost_hwm", c.vhost_hwm as f64),
        ("virtio.ring_ns_per_desc", probe.ring),
        ("core.polling_entries", c.polling_entries as f64),
        ("core.redirections", c.redirections as f64),
        ("core.offline_predictions", c.offline_predictions as f64),
        ("core.parked_irqs", c.parked_irqs as f64),
        ("core.hybrid_ns_per_pkt", probe.hybrid),
        ("core.redirect_ns_per_select", probe.redirect),
        ("host.rq_wait_s", m.rq_wait_s),
        (
            "trace.overhead_pct",
            100.0 * (ratio(m.traced_wall_s, m.wall_s) - 1.0),
        ),
        ("attrib.unattributed_pct", unattributed),
    ]
}

/// Substrate probe results, ns per operation.
struct Probes {
    queue: f64,
    tick: f64,
    pi: f64,
    ring: f64,
    hybrid: f64,
    redirect: f64,
}

/// PI+H+R over Baseline goodput of the `send` cells (`paper_mux` only).
fn send_gain(cells: &[Cell], outcomes: &[Outcome]) -> Option<f64> {
    let g = |label: &str| {
        cells
            .iter()
            .zip(outcomes)
            .find(|(c, _)| c.label == label)
            .map(|(_, o)| o.m.goodput_gbps)
    };
    Some(ratio(g("send/PI+H+R")?, g("send/Baseline")?))
}
