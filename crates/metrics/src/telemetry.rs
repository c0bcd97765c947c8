//! Cluster-wide windowed telemetry: fixed-width sim-time windows of
//! per-VM / per-(vm,queue) / per-vhost-worker gauges and rates, an SLO
//! engine with multi-window burn-rate alerts, and a causal annotation
//! stream that names the fault or migration preceding each breach.
//!
//! Determinism contract (same as [`crate::span`]): the recorder consumes
//! only sim-time nanoseconds — never the wall clock, never an RNG — and
//! is strictly observational, so telemetry-enabled runs are byte-identical
//! to disabled runs and the report is a pure function of the run spec.
//! Windows are assigned *at record time* (`window = now_ns / width_ns`);
//! no window-boundary events are ever scheduled, so the event stream of
//! the simulation is untouched.

use crate::span::SpanReport;

/// Number of fixed log-2 rx-latency buckets per window (upper edges
/// 2, 4, 8, 16, 32, 64, 128, 256 µs, then +inf).
pub const RX_BUCKETS: usize = 9;

/// Upper edges of the rx-latency buckets, in microseconds (the last
/// bucket is unbounded; its "edge" here is only a label).
pub const RX_BUCKET_EDGES_US: [u64; RX_BUCKETS] = [2, 4, 8, 16, 32, 64, 128, 256, u64::MAX];

/// The bucket index a latency (in nanoseconds) falls into.
#[inline]
pub fn rx_bucket(lat_ns: u64) -> usize {
    for (i, &edge_us) in RX_BUCKET_EDGES_US[..RX_BUCKETS - 1].iter().enumerate() {
        if lat_ns <= edge_us * 1_000 {
            return i;
        }
    }
    RX_BUCKETS - 1
}

/// Nearest-rank `q`-quantile (in µs) from a window's bucket counts.
/// Falls back to `max_ns` when the rank lands in the unbounded bucket;
/// returns 0.0 for an empty window.
pub fn quantile_from_buckets(buckets: &[u64; RX_BUCKETS], count: u64, max_ns: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            if i == RX_BUCKETS - 1 {
                return max_ns as f64 / 1e3;
            }
            return RX_BUCKET_EDGES_US[i] as f64;
        }
    }
    max_ns as f64 / 1e3
}

/// Static geometry of one recorder: window width plus the shape of the
/// per-window row vectors. Host overlays require all of it to match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryGeometry {
    /// Window width in sim-time nanoseconds.
    pub width_ns: u64,
    /// VMs covered by this recorder (the host's whole VM slot table).
    pub num_vms: usize,
    /// Vhost workers per VM (worker rows per VM per window).
    pub workers_per_vm: usize,
    /// TX/RX queue pairs per VM (per-queue rx counters per VM row).
    pub queues_per_vm: usize,
    /// Exit-reason kinds (length of each row's `exits` vector).
    pub exit_kinds: usize,
}

/// One VM's gauges for one window. Everything is a plain count or a
/// nanosecond sum; rates and percentages are derived at render time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VmWin {
    /// Sim-time nanoseconds this VM's vCPUs spent in guest mode inside
    /// the window (TIG % = `guest_ns / (vcpus * width)`).
    pub guest_ns: u64,
    /// VM exits by exit-reason kind.
    pub exits: Vec<u64>,
    /// MSIs injected exit-lessly (posted interrupts).
    pub msi_posted: u64,
    /// MSIs injected via the emulated (exit-taking) path.
    pub msi_emulated: u64,
    /// MSIs whose target was chosen by ES2 redirection.
    pub msi_redirected: u64,
    /// Bytes completed into the guest rx ring.
    pub rx_bytes: u64,
    /// Packets completed into the guest rx ring.
    pub rx_pkts: u64,
    /// Bytes put on the wire by vhost tx service.
    pub tx_bytes: u64,
    /// Packets put on the wire by vhost tx service.
    pub tx_pkts: u64,
    /// Rx packets by ingress queue pair (RSS spread), length
    /// `queues_per_vm`.
    pub rx_pkts_per_queue: Vec<u64>,
    /// Rx latency samples seen in the window.
    pub rx_lat_count: u64,
    /// Sum of rx latencies (ns) for the mean.
    pub rx_lat_sum_ns: u64,
    /// Largest rx latency (ns) in the window.
    pub rx_lat_max_ns: u64,
    /// Log-2 rx-latency bucket counts (see [`RX_BUCKET_EDGES_US`]) for
    /// windowed quantiles.
    pub rx_lat_buckets: [u64; RX_BUCKETS],
    /// Kicks deferred by GCRA backpressure.
    pub throttled_kicks: u64,
    /// Vhost turns cut short by the service budget.
    pub budget_deferrals: u64,
    /// Queues quarantined in this window.
    pub quarantines: u64,
    /// Guest queue resets completed in this window.
    pub resets: u64,
}

impl VmWin {
    fn blank(exit_kinds: usize, queues: usize) -> VmWin {
        VmWin {
            exits: vec![0; exit_kinds],
            rx_pkts_per_queue: vec![0; queues],
            ..VmWin::default()
        }
    }

    /// Total exits across all kinds.
    pub fn exits_total(&self) -> u64 {
        self.exits.iter().sum()
    }
}

/// One vhost worker's gauges for one window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerWin {
    /// Sim-time nanoseconds the worker spent on-core inside the window.
    pub on_core_ns: u64,
    /// Deepest pending-work backlog observed in the window.
    pub pending_hwm: u64,
    /// Handler turns begun in the window.
    pub turns: u64,
}

/// One telemetry window: gauges for every VM and worker, dense so host
/// overlays stay positional.
#[derive(Clone, Debug)]
pub struct Window {
    /// Window index (`start = idx * width_ns`).
    pub idx: u64,
    /// Per-VM rows, length `num_vms`.
    pub vms: Vec<VmWin>,
    /// Per-worker rows, length `num_vms * workers_per_vm`, worker-major
    /// within each VM (`vm * workers_per_vm + w`).
    pub workers: Vec<WorkerWin>,
}

/// One discrete event joined onto the window stream (fault injected,
/// migration phase, quarantine, watchdog action, …) — the causal side of
/// the pipeline. `kind` is a static label; `arg` is one free payload
/// value whose meaning depends on the kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Annotation {
    /// Sim-time nanoseconds of the event.
    pub at_ns: u64,
    /// VM the event names (or the VM it most affects).
    pub vm: u32,
    /// Static label ("pi-degrade", "quarantine", "migrate-start", …).
    pub kind: &'static str,
    /// Free payload (vector, queue index, blackout ns, …).
    pub arg: u64,
}

impl Annotation {
    fn sort_key(&self) -> (u64, u32, &'static str, u64) {
        (self.at_ns, self.vm, self.kind, self.arg)
    }
}

/// The windowed telemetry recorder. One per machine; all
/// hooks take raw sim-time nanoseconds and update the window the instant
/// falls into. Intervals (guest residency, worker on-core time) are
/// sliced across every window they overlap.
#[derive(Clone, Debug)]
pub struct TelemetryRecorder {
    geom: TelemetryGeometry,
    windows: Vec<Window>,
    annotations: Vec<Annotation>,
    ann_capacity: usize,
    ann_dropped: u64,
}

impl TelemetryRecorder {
    /// A recorder for the given geometry with room for `ann_capacity`
    /// annotations (drops past capacity are counted, not silent).
    pub fn new(geom: TelemetryGeometry, ann_capacity: usize) -> Self {
        assert!(geom.width_ns > 0, "telemetry window width must be nonzero");
        TelemetryRecorder {
            geom,
            windows: Vec::new(),
            annotations: Vec::new(),
            ann_capacity,
            ann_dropped: 0,
        }
    }

    /// The recorder's geometry.
    pub fn geometry(&self) -> TelemetryGeometry {
        self.geom
    }

    fn blank_window(geom: &TelemetryGeometry, idx: u64) -> Window {
        Window {
            idx,
            vms: (0..geom.num_vms)
                .map(|_| VmWin::blank(geom.exit_kinds, geom.queues_per_vm))
                .collect(),
            workers: vec![WorkerWin::default(); geom.num_vms * geom.workers_per_vm],
        }
    }

    /// Index of the window holding `at_ns`, creating it (and keeping the
    /// list sorted) if needed. Appends are O(1); the rare out-of-order
    /// touch (interval backfill) is a binary-search insert.
    fn win_pos(&mut self, k: u64) -> usize {
        match self.windows.last() {
            Some(last) if last.idx == k => return self.windows.len() - 1,
            Some(last) if last.idx < k => {
                let w = Self::blank_window(&self.geom, k);
                self.windows.push(w);
                return self.windows.len() - 1;
            }
            None => {
                let w = Self::blank_window(&self.geom, k);
                self.windows.push(w);
                return 0;
            }
            _ => {}
        }
        match self.windows.binary_search_by_key(&k, |w| w.idx) {
            Ok(i) => i,
            Err(i) => {
                let w = Self::blank_window(&self.geom, k);
                self.windows.insert(i, w);
                i
            }
        }
    }

    fn vm_win(&mut self, vm: u32, at_ns: u64) -> &mut VmWin {
        let k = at_ns / self.geom.width_ns;
        let pos = self.win_pos(k);
        &mut self.windows[pos].vms[vm as usize]
    }

    /// Distribute the interval `[from_ns, to_ns)` across every window it
    /// overlaps, calling `add(window, overlap_ns)` per window.
    fn slice_interval<F: FnMut(&mut Window, u64)>(&mut self, from_ns: u64, to_ns: u64, mut add: F) {
        if to_ns <= from_ns {
            return;
        }
        let width = self.geom.width_ns;
        let mut k = from_ns / width;
        let last_k = (to_ns - 1) / width;
        while k <= last_k {
            let lo = from_ns.max(k * width);
            let hi = to_ns.min((k + 1) * width);
            let pos = self.win_pos(k);
            add(&mut self.windows[pos], hi - lo);
            k += 1;
        }
    }

    // ------------------------------------------------------------------
    // Gauge hooks (all sim-time ns, all strictly observational)
    // ------------------------------------------------------------------

    /// One VM exit of kind `kind` at `at_ns`.
    pub fn record_exit(&mut self, vm: u32, kind: usize, at_ns: u64) {
        self.vm_win(vm, at_ns).exits[kind] += 1;
    }

    /// Guest-mode residency `[from_ns, to_ns)` for one of `vm`'s vCPUs,
    /// sliced across window boundaries.
    pub fn record_guest_slice(&mut self, vm: u32, from_ns: u64, to_ns: u64) {
        self.slice_interval(from_ns, to_ns, |w, ns| {
            w.vms[vm as usize].guest_ns += ns;
        });
    }

    /// One MSI injection: `posted` = exit-less posted path, otherwise
    /// the emulated (exit-taking) path.
    pub fn record_msi(&mut self, vm: u32, at_ns: u64, posted: bool) {
        let row = self.vm_win(vm, at_ns);
        if posted {
            row.msi_posted += 1;
        } else {
            row.msi_emulated += 1;
        }
    }

    /// One MSI whose target was chosen by ES2 redirection (counted
    /// separately from the injection path — a redirected MSI still
    /// lands as posted or emulated).
    pub fn record_msi_redirected(&mut self, vm: u32, at_ns: u64) {
        self.vm_win(vm, at_ns).msi_redirected += 1;
    }

    /// Rx completion into the guest ring: `bytes` on ingress `queue`.
    pub fn record_rx(&mut self, vm: u32, at_ns: u64, queue: usize, bytes: u64) {
        let row = self.vm_win(vm, at_ns);
        row.rx_bytes += bytes;
        row.rx_pkts += 1;
        if let Some(q) = row.rx_pkts_per_queue.get_mut(queue) {
            *q += 1;
        }
    }

    /// Tx completion onto the wire.
    pub fn record_tx(&mut self, vm: u32, at_ns: u64, bytes: u64) {
        let row = self.vm_win(vm, at_ns);
        row.tx_bytes += bytes;
        row.tx_pkts += 1;
    }

    /// One end-to-end rx latency sample (ns).
    pub fn record_rx_latency(&mut self, vm: u32, at_ns: u64, lat_ns: u64) {
        let b = rx_bucket(lat_ns);
        let row = self.vm_win(vm, at_ns);
        row.rx_lat_count += 1;
        row.rx_lat_sum_ns += lat_ns;
        row.rx_lat_max_ns = row.rx_lat_max_ns.max(lat_ns);
        row.rx_lat_buckets[b] += 1;
    }

    /// One kick deferred by GCRA backpressure.
    pub fn record_throttled_kick(&mut self, vm: u32, at_ns: u64) {
        self.vm_win(vm, at_ns).throttled_kicks += 1;
    }

    /// One vhost turn cut short by the service budget.
    pub fn record_budget_deferral(&mut self, vm: u32, at_ns: u64) {
        self.vm_win(vm, at_ns).budget_deferrals += 1;
    }

    /// One queue quarantined.
    pub fn record_quarantine(&mut self, vm: u32, at_ns: u64) {
        self.vm_win(vm, at_ns).quarantines += 1;
    }

    /// One guest queue reset completed.
    pub fn record_reset(&mut self, vm: u32, at_ns: u64) {
        self.vm_win(vm, at_ns).resets += 1;
    }

    /// Worker on-core residency `[from_ns, to_ns)`, sliced across
    /// window boundaries.
    pub fn record_worker_slice(&mut self, vm: u32, worker: usize, from_ns: u64, to_ns: u64) {
        let wpv = self.geom.workers_per_vm;
        let slot = vm as usize * wpv + worker.min(wpv.saturating_sub(1));
        self.slice_interval(from_ns, to_ns, |w, ns| {
            w.workers[slot].on_core_ns += ns;
        });
    }

    /// Sample the worker's pending-work depth (kept as a per-window
    /// high-water mark).
    pub fn record_worker_pending(&mut self, vm: u32, worker: usize, at_ns: u64, depth: u64) {
        let wpv = self.geom.workers_per_vm;
        let slot = vm as usize * wpv + worker.min(wpv.saturating_sub(1));
        let k = at_ns / self.geom.width_ns;
        let pos = self.win_pos(k);
        let row = &mut self.windows[pos].workers[slot];
        row.pending_hwm = row.pending_hwm.max(depth);
    }

    /// One vhost handler turn begun.
    pub fn record_worker_turn(&mut self, vm: u32, worker: usize, at_ns: u64) {
        let wpv = self.geom.workers_per_vm;
        let slot = vm as usize * wpv + worker.min(wpv.saturating_sub(1));
        let k = at_ns / self.geom.width_ns;
        let pos = self.win_pos(k);
        self.windows[pos].workers[slot].turns += 1;
    }

    /// Join a discrete event onto the stream (bounded; drops counted).
    pub fn annotate(&mut self, at_ns: u64, vm: u32, kind: &'static str, arg: u64) {
        if self.annotations.len() < self.ann_capacity {
            self.annotations.push(Annotation {
                at_ns,
                vm,
                kind,
                arg,
            });
        } else {
            self.ann_dropped += 1;
        }
    }

    /// Finish recording and produce the immutable report. Annotations
    /// are sorted by `(time, vm, kind, arg)` so serial and host-overlaid
    /// runs render identically.
    pub fn finish(self) -> TelemetryReport {
        let mut annotations = self.annotations;
        annotations.sort_by_key(|a| a.sort_key());
        TelemetryReport {
            geom: self.geom,
            windows: self.windows,
            annotations,
            ann_dropped: self.ann_dropped,
        }
    }
}

/// Everything one run's telemetry recorder measured.
#[derive(Clone, Debug)]
pub struct TelemetryReport {
    /// Recorder geometry.
    pub geom: TelemetryGeometry,
    /// Occupied windows in ascending index order (untouched windows are
    /// absent; treat them as all-zero).
    pub windows: Vec<Window>,
    /// The causal annotation stream, sorted by `(time, vm, kind, arg)`.
    pub annotations: Vec<Annotation>,
    /// Annotations dropped past capacity.
    pub ann_dropped: u64,
}

impl TelemetryReport {
    /// Merge another host's report over the **same** global VM slot
    /// table (the cluster topology: every host carries every slot, a VM
    /// is active on exactly one host at a time). Cells sum (maxima take
    /// the max) over the union of window indices; annotations merge
    /// without any VM offset.
    pub fn overlay(&mut self, other: TelemetryReport) {
        assert_eq!(self.geom, other.geom, "overlay requires equal geometry");
        let geom = self.geom;
        let mut merged = Vec::with_capacity(self.windows.len().max(other.windows.len()));
        let mut a = std::mem::take(&mut self.windows).into_iter().peekable();
        let mut b = other.windows.into_iter().peekable();
        loop {
            let take = match (a.peek(), b.peek()) {
                (None, None) => break,
                (Some(_), None) => 0,
                (None, Some(_)) => 1,
                (Some(x), Some(y)) => match x.idx.cmp(&y.idx) {
                    std::cmp::Ordering::Less => 0,
                    std::cmp::Ordering::Greater => 1,
                    std::cmp::Ordering::Equal => 2,
                },
            };
            match take {
                0 => merged.push(a.next().expect("peeked")),
                1 => merged.push(b.next().expect("peeked")),
                _ => {
                    let mut wa = a.next().expect("peeked");
                    let wb = b.next().expect("peeked");
                    for (va, vb) in wa.vms.iter_mut().zip(wb.vms) {
                        va.guest_ns += vb.guest_ns;
                        for (x, y) in va.exits.iter_mut().zip(vb.exits) {
                            *x += y;
                        }
                        va.msi_posted += vb.msi_posted;
                        va.msi_emulated += vb.msi_emulated;
                        va.msi_redirected += vb.msi_redirected;
                        va.rx_bytes += vb.rx_bytes;
                        va.rx_pkts += vb.rx_pkts;
                        va.tx_bytes += vb.tx_bytes;
                        va.tx_pkts += vb.tx_pkts;
                        for (x, y) in va.rx_pkts_per_queue.iter_mut().zip(vb.rx_pkts_per_queue) {
                            *x += y;
                        }
                        va.rx_lat_count += vb.rx_lat_count;
                        va.rx_lat_sum_ns += vb.rx_lat_sum_ns;
                        va.rx_lat_max_ns = va.rx_lat_max_ns.max(vb.rx_lat_max_ns);
                        for (x, y) in va.rx_lat_buckets.iter_mut().zip(vb.rx_lat_buckets) {
                            *x += y;
                        }
                        va.throttled_kicks += vb.throttled_kicks;
                        va.budget_deferrals += vb.budget_deferrals;
                        va.quarantines += vb.quarantines;
                        va.resets += vb.resets;
                    }
                    for (x, y) in wa.workers.iter_mut().zip(wb.workers) {
                        x.on_core_ns += y.on_core_ns;
                        x.pending_hwm = x.pending_hwm.max(y.pending_hwm);
                        x.turns += y.turns;
                    }
                    merged.push(wa);
                }
            }
        }
        self.windows = merged;
        self.geom = geom;
        self.annotations.extend(other.annotations);
        self.annotations.sort_by_key(|an| an.sort_key());
        self.ann_dropped += other.ann_dropped;
    }

    /// The window with index `idx`, if it was ever touched.
    pub fn window_at(&self, idx: u64) -> Option<&Window> {
        self.windows
            .binary_search_by_key(&idx, |w| w.idx)
            .ok()
            .map(|i| &self.windows[i])
    }

    /// First and last occupied window indices (None if no windows).
    pub fn index_span(&self) -> Option<(u64, u64)> {
        match (self.windows.first(), self.windows.last()) {
            (Some(f), Some(l)) => Some((f.idx, l.idx)),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Fleet aggregates (per window)
    // ------------------------------------------------------------------

    /// Fleet TIG % for one window: total guest time over total
    /// `num_vms * width` (vCPU count folds out when every VM has the
    /// same vCPU count; for mixed fleets this is a per-VM-slot average).
    pub fn fleet_tig_pct(&self, w: &Window) -> f64 {
        let guest: u64 = w.vms.iter().map(|v| v.guest_ns).sum();
        100.0 * guest as f64 / (self.geom.num_vms as f64 * self.geom.width_ns as f64)
    }

    /// Fleet exits/sec for one window.
    pub fn fleet_exits_per_sec(&self, w: &Window) -> f64 {
        let exits: u64 = w.vms.iter().map(|v| v.exits_total()).sum();
        exits as f64 / (self.geom.width_ns as f64 / 1e9)
    }

    /// Fleet rx p-quantile (µs) for one window, from summed buckets.
    pub fn fleet_rx_quantile_us(&self, w: &Window, q: f64) -> f64 {
        let mut buckets = [0u64; RX_BUCKETS];
        let mut count = 0u64;
        let mut max_ns = 0u64;
        for v in &w.vms {
            for (b, c) in buckets.iter_mut().zip(v.rx_lat_buckets.iter()) {
                *b += c;
            }
            count += v.rx_lat_count;
            max_ns = max_ns.max(v.rx_lat_max_ns);
        }
        quantile_from_buckets(&buckets, count, max_ns, q)
    }

    /// Fleet rx+tx goodput (bytes) for one window.
    pub fn fleet_goodput_bytes(&self, w: &Window) -> u64 {
        w.vms.iter().map(|v| v.rx_bytes + v.tx_bytes).sum()
    }

    /// Deepest vhost backlog across all workers in one window.
    pub fn fleet_pending_hwm(&self, w: &Window) -> u64 {
        w.workers.iter().map(|r| r.pending_hwm).max().unwrap_or(0)
    }

    /// Mean vhost worker occupancy % across all workers in one window.
    pub fn fleet_worker_occupancy_pct(&self, w: &Window) -> f64 {
        if w.workers.is_empty() {
            return 0.0;
        }
        let on: u64 = w.workers.iter().map(|r| r.on_core_ns).sum();
        100.0 * on as f64 / (w.workers.len() as f64 * self.geom.width_ns as f64)
    }

    // ------------------------------------------------------------------
    // SLO engine
    // ------------------------------------------------------------------

    /// Rolling values of `spec` over every position in the report's
    /// index span (missing windows count as zero). Returns the absolute
    /// index of the first rolling span and one value per position, or
    /// `None` when the report has no windows.
    pub fn slo_values(&self, spec: &SloSpec) -> Option<(u64, Vec<f64>)> {
        let (lo, hi) = self.index_span()?;
        let n = spec.windows.max(1) as u64;
        let total = hi - lo + 1;
        if total < n {
            return Some((lo, Vec::new()));
        }
        let width_s = self.geom.width_ns as f64 / 1e9;
        let span_positions = (total - n + 1) as usize;
        let mut out = Vec::with_capacity(span_positions);
        for p in 0..span_positions {
            let start = lo + p as u64;
            let v = match spec.metric {
                SloMetric::RxP99Us => {
                    let mut buckets = [0u64; RX_BUCKETS];
                    let mut count = 0u64;
                    let mut max_ns = 0u64;
                    for k in start..start + n {
                        if let Some(w) = self.window_at(k) {
                            for vm in self.scope_rows(w, spec) {
                                for (b, c) in buckets.iter_mut().zip(vm.rx_lat_buckets.iter()) {
                                    *b += c;
                                }
                                count += vm.rx_lat_count;
                                max_ns = max_ns.max(vm.rx_lat_max_ns);
                            }
                        }
                    }
                    quantile_from_buckets(&buckets, count, max_ns, 0.99)
                }
                SloMetric::TigPct => {
                    let mut guest = 0u64;
                    for k in start..start + n {
                        if let Some(w) = self.window_at(k) {
                            guest += self
                                .scope_rows(w, spec)
                                .map(|vm| vm.guest_ns)
                                .sum::<u64>();
                        }
                    }
                    let slots = match spec.vm {
                        Some(_) => 1.0,
                        None => self.geom.num_vms as f64,
                    };
                    100.0 * guest as f64 / (slots * n as f64 * self.geom.width_ns as f64)
                }
                SloMetric::ExitsPerSec => {
                    let mut exits = 0u64;
                    for k in start..start + n {
                        if let Some(w) = self.window_at(k) {
                            exits += self
                                .scope_rows(w, spec)
                                .map(|vm| vm.exits_total())
                                .sum::<u64>();
                        }
                    }
                    exits as f64 / (n as f64 * width_s)
                }
                SloMetric::WorkerPendingHwm => {
                    let mut hwm = 0u64;
                    for k in start..start + n {
                        if let Some(w) = self.window_at(k) {
                            let it: Box<dyn Iterator<Item = &WorkerWin>> = match spec.vm {
                                Some(vm) => {
                                    let wpv = self.geom.workers_per_vm;
                                    let lo = vm as usize * wpv;
                                    Box::new(w.workers[lo..lo + wpv].iter())
                                }
                                None => Box::new(w.workers.iter()),
                            };
                            hwm = hwm.max(it.map(|r| r.pending_hwm).max().unwrap_or(0));
                        }
                    }
                    hwm as f64
                }
            };
            out.push(v);
        }
        Some((lo, out))
    }

    fn scope_rows<'a>(
        &self,
        w: &'a Window,
        spec: &SloSpec,
    ) -> Box<dyn Iterator<Item = &'a VmWin> + 'a> {
        match spec.vm {
            Some(vm) => Box::new(w.vms.get(vm as usize).into_iter()),
            None => Box::new(w.vms.iter()),
        }
    }

    /// Evaluate `specs`, returning every breach (a maximal run of
    /// violating rolling spans) with its worst value and — when an
    /// annotation precedes the breach within `horizon_ns` — the latest
    /// such annotation as the attributed cause.
    pub fn evaluate_slos(&self, specs: &[SloSpec], horizon_ns: u64) -> Vec<SloBreach> {
        let mut out = Vec::new();
        for spec in specs {
            let Some((lo, values)) = self.slo_values(spec) else {
                continue;
            };
            let n = spec.windows.max(1) as u64;
            let mut run: Option<(usize, usize, f64)> = None;
            for (p, &v) in values.iter().enumerate() {
                let bad = if spec.above_is_bad {
                    v > spec.threshold
                } else {
                    v < spec.threshold
                };
                if bad {
                    run = Some(match run {
                        None => (p, p, v),
                        Some((s, _, worst)) => {
                            let w = if spec.above_is_bad {
                                worst.max(v)
                            } else {
                                worst.min(v)
                            };
                            (s, p, w)
                        }
                    });
                } else if let Some((s, e, worst)) = run.take() {
                    out.push(self.make_breach(spec, lo, n, s, e, worst, horizon_ns));
                }
            }
            if let Some((s, e, worst)) = run {
                out.push(self.make_breach(spec, lo, n, s, e, worst, horizon_ns));
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn make_breach(
        &self,
        spec: &SloSpec,
        lo: u64,
        n: u64,
        s: usize,
        e: usize,
        worst: f64,
        horizon_ns: u64,
    ) -> SloBreach {
        let start_ns = (lo + s as u64) * self.geom.width_ns;
        let end_ns = (lo + e as u64 + n) * self.geom.width_ns;
        SloBreach {
            slo: spec.name,
            start_ns,
            end_ns,
            worst,
            cause: self.attribute(start_ns, horizon_ns).copied(),
        }
    }

    /// The latest annotation at or before `at_ns` and within
    /// `horizon_ns` of it — the causal join used for breach attribution.
    pub fn attribute(&self, at_ns: u64, horizon_ns: u64) -> Option<&Annotation> {
        self.annotations
            .iter()
            .rev()
            .find(|a| a.at_ns <= at_ns && at_ns - a.at_ns <= horizon_ns)
    }

    /// Multi-window burn-rate alerts for `spec`: positions where the
    /// violating fraction of the trailing `short` *and* trailing `long`
    /// rolling spans both reach `factor * budget` (the SRE
    /// short-window/long-window pairing: the long window confirms real
    /// budget burn, the short window makes the alert reset quickly).
    /// One alert is emitted per onset (false→true transition).
    pub fn burn_alerts(
        &self,
        spec: &SloSpec,
        short: usize,
        long: usize,
        budget: f64,
        factor: f64,
    ) -> Vec<BurnAlert> {
        let Some((lo, values)) = self.slo_values(spec) else {
            return Vec::new();
        };
        let bad: Vec<bool> = values
            .iter()
            .map(|&v| {
                if spec.above_is_bad {
                    v > spec.threshold
                } else {
                    v < spec.threshold
                }
            })
            .collect();
        let frac = |upto: usize, len: usize| -> f64 {
            let len = len.max(1);
            let from = (upto + 1).saturating_sub(len);
            let n = upto + 1 - from;
            bad[from..=upto].iter().filter(|&&b| b).count() as f64 / n as f64
        };
        let mut out = Vec::new();
        let mut firing = false;
        for p in 0..bad.len() {
            let sf = frac(p, short);
            let lf = frac(p, long);
            let fire = sf >= factor * budget && lf >= factor * budget;
            if fire && !firing {
                out.push(BurnAlert {
                    slo: spec.name,
                    at_ns: (lo + p as u64) * self.geom.width_ns,
                    short_frac: sf,
                    long_frac: lf,
                });
            }
            firing = fire;
        }
        out
    }

    // ------------------------------------------------------------------
    // Chrome-trace counter export
    // ------------------------------------------------------------------

    /// Render the window stream as Chrome-trace counter (`"ph": "C"`)
    /// events, merged with `spans`' slice/instant events when given, in
    /// the same JSON format as [`SpanReport::chrome_trace_json`] — one
    /// file, counter track alongside the span tracks. Fleet counters go
    /// on pid 0 / tid 9000; per-VM counters are emitted only for fleets
    /// of at most 8 VMs to bound the file.
    pub fn merged_chrome_trace(&self, spans: Option<&SpanReport>) -> String {
        let mut entries: Vec<String> = Vec::new();
        if let Some(rep) = spans {
            for ev in &rep.events {
                let ph = if ev.dur_ns == 0 { "i" } else { "X" };
                let mut e = format!(
                    "  {{\"name\": \"{}\", \"ph\": \"{}\", \"ts\": {}.{:03}, ",
                    ev.name,
                    ph,
                    ev.at_ns / 1_000,
                    ev.at_ns % 1_000,
                );
                if ev.dur_ns > 0 {
                    e.push_str(&format!(
                        "\"dur\": {}.{:03}, ",
                        ev.dur_ns / 1_000,
                        ev.dur_ns % 1_000
                    ));
                }
                if ph == "i" {
                    e.push_str("\"s\": \"t\", ");
                }
                e.push_str(&format!(
                    "\"pid\": {}, \"tid\": {}, \"args\": {{\"corr\": {}, \"arg\": {}}}}}",
                    ev.vm, ev.track, ev.corr, ev.arg,
                ));
                entries.push(e);
            }
        }
        let counter = |entries: &mut Vec<String>, name: &str, ts_ns: u64, pid: u32, v: f64| {
            entries.push(format!(
                "  {{\"name\": \"{}\", \"ph\": \"C\", \"ts\": {}.{:03}, \"pid\": {}, \"tid\": 9000, \"args\": {{\"value\": {:.3}}}}}",
                name,
                ts_ns / 1_000,
                ts_ns % 1_000,
                pid,
                v,
            ));
        };
        let per_vm = self.geom.num_vms <= 8;
        for w in &self.windows {
            let ts = w.idx * self.geom.width_ns;
            counter(&mut entries, "fleet-tig-pct", ts, 0, self.fleet_tig_pct(w));
            counter(
                &mut entries,
                "fleet-exits-per-sec",
                ts,
                0,
                self.fleet_exits_per_sec(w),
            );
            counter(
                &mut entries,
                "fleet-rx-p99-us",
                ts,
                0,
                self.fleet_rx_quantile_us(w, 0.99),
            );
            counter(
                &mut entries,
                "fleet-pending-hwm",
                ts,
                0,
                self.fleet_pending_hwm(w) as f64,
            );
            if per_vm {
                for (vm, row) in w.vms.iter().enumerate() {
                    let tig =
                        100.0 * row.guest_ns as f64 / self.geom.width_ns as f64;
                    counter(&mut entries, "vm-tig-pct", ts, vm as u32, tig);
                }
            }
        }
        // Annotations ride along as instant events on the counter track.
        for a in &self.annotations {
            entries.push(format!(
                "  {{\"name\": \"{}\", \"ph\": \"i\", \"ts\": {}.{:03}, \"s\": \"t\", \"pid\": {}, \"tid\": 9001, \"args\": {{\"arg\": {}}}}}",
                a.kind,
                a.at_ns / 1_000,
                a.at_ns % 1_000,
                a.vm,
                a.arg,
            ));
        }
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, e) in entries.iter().enumerate() {
            out.push_str(e);
            out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// The windowed metric an SLO constrains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloMetric {
    /// Nearest-rank p99 of rx latency (µs) over the rolling span.
    RxP99Us,
    /// Time-in-guest percentage over the rolling span.
    TigPct,
    /// VM exits per second over the rolling span.
    ExitsPerSec,
    /// Deepest vhost pending backlog over the rolling span.
    WorkerPendingHwm,
}

/// One declarative objective: "`metric` stays on the good side of
/// `threshold` over any `windows`-window rolling span", fleet-wide or
/// scoped to one VM.
#[derive(Clone, Copy, Debug)]
pub struct SloSpec {
    /// Stable name used in reports and JSON.
    pub name: &'static str,
    /// The constrained metric.
    pub metric: SloMetric,
    /// `None` = fleet scope, `Some(vm)` = that VM only.
    pub vm: Option<u32>,
    /// The objective bound.
    pub threshold: f64,
    /// `true` when exceeding the threshold is the violation (latency,
    /// exits, backlog); `false` when falling below it is (TIG %).
    pub above_is_bad: bool,
    /// Rolling span length in windows ("over any N windows").
    pub windows: u32,
}

/// One maximal run of violating rolling spans, with its attributed
/// cause when an annotation precedes it within the horizon.
#[derive(Clone, Copy, Debug)]
pub struct SloBreach {
    /// Name of the violated SLO.
    pub slo: &'static str,
    /// Sim-time start (ns) of the first violating span.
    pub start_ns: u64,
    /// Sim-time end (ns) of the last violating span (exclusive).
    pub end_ns: u64,
    /// Worst metric value observed during the breach.
    pub worst: f64,
    /// Latest preceding annotation within the horizon, if any.
    pub cause: Option<Annotation>,
}

/// One multi-window burn-rate alert onset.
#[derive(Clone, Copy, Debug)]
pub struct BurnAlert {
    /// Name of the burning SLO.
    pub slo: &'static str,
    /// Sim-time (ns) of the alert onset.
    pub at_ns: u64,
    /// Violating fraction of the trailing short window.
    pub short_frac: f64,
    /// Violating fraction of the trailing long window.
    pub long_frac: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(vms: usize) -> TelemetryGeometry {
        TelemetryGeometry {
            width_ns: 1_000_000,
            num_vms: vms,
            workers_per_vm: 2,
            queues_per_vm: 2,
            exit_kinds: 3,
        }
    }

    #[test]
    fn window_assignment_is_half_open() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        r.record_exit(0, 0, 999_999);
        r.record_exit(0, 0, 1_000_000);
        let rep = r.finish();
        assert_eq!(rep.windows.len(), 2);
        assert_eq!(rep.windows[0].idx, 0);
        assert_eq!(rep.windows[1].idx, 1);
        assert_eq!(rep.windows[0].vms[0].exits[0], 1);
        assert_eq!(rep.windows[1].vms[0].exits[0], 1);
    }

    #[test]
    fn interval_slicing_spans_windows() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        // [0.5ms, 2.25ms): 0.5ms in w0, 1ms in w1, 0.25ms in w2.
        r.record_guest_slice(0, 500_000, 2_250_000);
        let rep = r.finish();
        assert_eq!(rep.windows.len(), 3);
        assert_eq!(rep.windows[0].vms[0].guest_ns, 500_000);
        assert_eq!(rep.windows[1].vms[0].guest_ns, 1_000_000);
        assert_eq!(rep.windows[2].vms[0].guest_ns, 250_000);
        // Backfill after a later touch must land in the right window.
        let mut r = TelemetryRecorder::new(geom(1), 16);
        r.record_exit(0, 1, 5_100_000);
        r.record_guest_slice(0, 4_900_000, 5_100_000);
        let rep = r.finish();
        assert_eq!(rep.windows[0].idx, 4);
        assert_eq!(rep.windows[0].vms[0].guest_ns, 100_000);
        assert_eq!(rep.windows[1].vms[0].guest_ns, 100_000);
    }

    #[test]
    fn rx_buckets_and_quantiles() {
        assert_eq!(rx_bucket(0), 0);
        assert_eq!(rx_bucket(2_000), 0);
        assert_eq!(rx_bucket(2_001), 1);
        assert_eq!(rx_bucket(256_000), 7);
        assert_eq!(rx_bucket(1_000_000), RX_BUCKETS - 1);
        let mut r = TelemetryRecorder::new(geom(1), 16);
        for _ in 0..99 {
            r.record_rx_latency(0, 10, 10_000); // bucket ≤16µs
        }
        r.record_rx_latency(0, 10, 700_000); // overflow bucket
        let rep = r.finish();
        let w = &rep.windows[0];
        assert_eq!(w.vms[0].rx_lat_count, 100);
        assert_eq!(rep.fleet_rx_quantile_us(w, 0.5), 16.0);
        assert_eq!(rep.fleet_rx_quantile_us(w, 0.99), 16.0);
        assert_eq!(rep.fleet_rx_quantile_us(w, 1.0), 700.0);
    }

    #[test]
    fn overlay_sums_cells_over_same_slots() {
        // Two "hosts" carrying the same 2-VM slot table: VM 0 active on
        // host A until 1 ms, then on host B (the migration picture).
        let mut a = TelemetryRecorder::new(geom(2), 16);
        a.record_guest_slice(0, 0, 800_000);
        a.record_exit(0, 0, 100);
        a.record_worker_pending(0, 1, 100, 5);
        a.annotate(900_000, 0, "migrate-start", 0);
        let mut b = TelemetryRecorder::new(geom(2), 16);
        b.record_guest_slice(0, 1_200_000, 1_700_000);
        b.record_exit(0, 0, 1_300_000);
        b.record_worker_pending(0, 1, 1_300_000, 3);
        b.annotate(1_200_000, 0, "migrate-arrive", 0);
        let mut rep = a.finish();
        rep.overlay(b.finish());
        assert_eq!(rep.geom.num_vms, 2);
        assert_eq!(rep.windows.len(), 2);
        assert_eq!(rep.windows[0].vms[0].guest_ns, 800_000);
        assert_eq!(rep.windows[1].vms[0].guest_ns, 500_000);
        assert_eq!(rep.windows[0].vms[0].exits[0], 1);
        assert_eq!(rep.windows[1].vms[0].exits[0], 1);
        assert_eq!(rep.windows[0].workers[1].pending_hwm, 5);
        assert_eq!(rep.windows[1].workers[1].pending_hwm, 3);
        assert_eq!(rep.annotations[0].kind, "migrate-start");
        assert_eq!(rep.annotations[1].kind, "migrate-arrive");
    }

    #[test]
    fn slo_breach_detection_and_attribution() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        // 10 windows of good latency, then 3 of bad, then good again.
        for k in 0..20u64 {
            let at = k * 1_000_000 + 10;
            let lat = if (10..13).contains(&k) { 150_000 } else { 10_000 };
            for _ in 0..50 {
                r.record_rx_latency(0, at, lat);
            }
        }
        r.annotate(9_500_000, 0, "host-degraded", 7);
        let rep = r.finish();
        let spec = SloSpec {
            name: "rx-p99",
            metric: SloMetric::RxP99Us,
            vm: None,
            threshold: 60.0,
            above_is_bad: true,
            windows: 1,
        };
        let breaches = rep.evaluate_slos(&[spec], 2_000_000);
        assert_eq!(breaches.len(), 1);
        let b = &breaches[0];
        assert_eq!(b.start_ns, 10_000_000);
        assert_eq!(b.end_ns, 13_000_000);
        assert_eq!(b.worst, 256.0);
        let cause = b.cause.expect("attributed");
        assert_eq!(cause.kind, "host-degraded");
        assert_eq!(cause.arg, 7);
        // Outside the horizon, no attribution.
        let far = rep.evaluate_slos(&[spec], 100_000);
        assert!(far[0].cause.is_none());
    }

    #[test]
    fn rolling_spans_combine_windows() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        // One bad window among 5 good ones; p99 over a 3-window span
        // only trips where the bad window dominates the rank.
        for k in 0..6u64 {
            let at = k * 1_000_000 + 1;
            let (lat, n) = if k == 3 { (200_000, 100) } else { (4_000, 1) };
            for _ in 0..n {
                r.record_rx_latency(0, at, lat);
            }
        }
        let rep = r.finish();
        let spec = SloSpec {
            name: "rx-p99-3w",
            metric: SloMetric::RxP99Us,
            vm: None,
            threshold: 60.0,
            above_is_bad: true,
            windows: 3,
        };
        let (lo, vals) = rep.slo_values(&spec).expect("windows exist");
        assert_eq!(lo, 0);
        assert_eq!(vals.len(), 4);
        assert!(vals[0] < 60.0, "span 0-2 is clean: {vals:?}");
        assert!(vals[1] > 60.0 && vals[2] > 60.0 && vals[3] > 60.0);
    }

    #[test]
    fn tig_slo_below_is_bad() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        r.record_guest_slice(0, 0, 900_000); // w0: 90 %
        r.record_guest_slice(0, 1_000_000, 1_100_000); // w1: 10 %
        r.record_guest_slice(0, 2_000_000, 2_950_000); // w2: 95 %
        let rep = r.finish();
        let spec = SloSpec {
            name: "tig",
            metric: SloMetric::TigPct,
            vm: Some(0),
            threshold: 50.0,
            above_is_bad: false,
            windows: 1,
        };
        let breaches = rep.evaluate_slos(&[spec], 0);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].start_ns, 1_000_000);
        assert!((breaches[0].worst - 10.0).abs() < 1e-9);
    }

    #[test]
    fn burn_alert_fires_once_per_onset() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        for k in 0..30u64 {
            let at = k * 1_000_000 + 1;
            let lat = if (5..15).contains(&k) { 150_000 } else { 4_000 };
            r.record_rx_latency(0, at, lat);
        }
        let rep = r.finish();
        let spec = SloSpec {
            name: "rx-p99",
            metric: SloMetric::RxP99Us,
            vm: None,
            threshold: 60.0,
            above_is_bad: true,
            windows: 1,
        };
        let alerts = rep.burn_alerts(&spec, 3, 10, 0.01, 10.0);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert!(alerts[0].short_frac >= 0.1 && alerts[0].long_frac >= 0.1);
        // A clean run never alerts.
        let mut clean = TelemetryRecorder::new(geom(1), 16);
        for k in 0..30u64 {
            clean.record_rx_latency(0, k * 1_000_000 + 1, 4_000);
        }
        assert!(clean.finish().burn_alerts(&spec, 3, 10, 0.01, 10.0).is_empty());
    }

    #[test]
    fn annotation_capacity_counts_drops() {
        let mut r = TelemetryRecorder::new(geom(1), 2);
        for i in 0..5 {
            r.annotate(i, 0, "quarantine", i);
        }
        let rep = r.finish();
        assert_eq!(rep.annotations.len(), 2);
        assert_eq!(rep.ann_dropped, 3);
    }

    #[test]
    fn chrome_counter_export_shape() {
        let mut r = TelemetryRecorder::new(geom(1), 16);
        r.record_guest_slice(0, 0, 500_000);
        r.record_rx_latency(0, 100, 10_000);
        r.annotate(200_000, 0, "migrate-start", 3);
        let rep = r.finish();
        let json = rep.merged_chrome_trace(None);
        assert!(json.contains("\"ph\": \"C\""), "{json}");
        assert!(json.contains("fleet-tig-pct"), "{json}");
        assert!(json.contains("vm-tig-pct"), "{json}");
        assert!(json.contains("\"name\": \"migrate-start\""), "{json}");
        assert!(json.ends_with("]}\n"), "{json}");
    }

    #[test]
    fn worker_rows_track_occupancy_and_backlog() {
        let mut r = TelemetryRecorder::new(geom(2), 16);
        r.record_worker_slice(1, 1, 900_000, 1_200_000);
        r.record_worker_pending(1, 1, 950_000, 3);
        r.record_worker_pending(1, 1, 960_000, 1);
        r.record_worker_turn(1, 1, 950_000);
        let rep = r.finish();
        let slot = 2 + 1; // vm 1 * workers_per_vm 2 + worker 1
        assert_eq!(rep.windows[0].workers[slot].on_core_ns, 100_000);
        assert_eq!(rep.windows[1].workers[slot].on_core_ns, 200_000);
        assert_eq!(rep.windows[0].workers[slot].pending_hwm, 3);
        assert_eq!(rep.windows[0].workers[slot].turns, 1);
        assert_eq!(rep.fleet_pending_hwm(&rep.windows[0]), 3);
        assert!(rep.fleet_worker_occupancy_pct(&rep.windows[0]) > 0.0);
    }
}
