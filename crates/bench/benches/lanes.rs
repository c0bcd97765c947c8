//! Lane-executor micro-benchmarks: rendezvous and cross-lane handoff
//! overhead versus lane count.
//!
//! A synthetic ring of lanes processes a fixed total number of local
//! events; a configurable fraction of steps emits a message to the next
//! lane in the ring (arriving one lookahead later). Three cross-traffic
//! mixes bound the protocol cost:
//!
//! * **isolated** — no messages at all: every lane declares no egress,
//!   the executor collapses to one unbounded window, and the measured
//!   cost is pure per-step dispatch (the sharding floor);
//! * **sparse** — ~1% of steps emit: the realistic shape for cluster
//!   host lanes, where cross-host traffic is rare relative to local
//!   events;
//! * **dense** — every step emits: worst case, one rendezvous-visible
//!   message per event, so the per-message staging/ordering cost
//!   dominates.
//!
//! Both executors run at every lane count, so serial-vs-parallel pairs
//! expose the barrier/window overhead and `isolated` vs `dense` pairs
//! expose the per-message handoff cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use es2_sim::lane::{run_lanes_parallel, run_lanes_serial, LaneSim, Outbox};
use es2_sim::{SimDuration, SimTime};

const LANE_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Total local events across all lanes, kept constant so rows compare
/// work-per-event at equal total work.
const TOTAL_EVENTS: u64 = 64_000;
const LOOKAHEAD: SimDuration = SimDuration::from_micros(1);

/// One synthetic lane: fires local events every ~5 µs; every
/// `cross_every`-th step also emits to the next lane in the ring
/// (`cross_every == 0` disables egress entirely).
struct RingLane {
    idx: usize,
    lanes: usize,
    now: SimTime,
    remaining: u64,
    steps: u64,
    cross_every: u64,
    acc: u64,
}

impl RingLane {
    fn new(idx: usize, lanes: usize, events: u64, cross_every: u64) -> Self {
        RingLane {
            idx,
            lanes,
            now: SimTime::from_nanos(5_000 * (idx as u64 + 1)),
            remaining: events,
            steps: 0,
            cross_every,
            acc: 0,
        }
    }
}

impl LaneSim for RingLane {
    type Msg = u64;

    fn next_time(&self) -> Option<SimTime> {
        (self.remaining > 0).then_some(self.now)
    }

    fn lookahead(&self) -> Option<SimDuration> {
        (self.cross_every > 0 && self.lanes > 1).then_some(LOOKAHEAD)
    }

    fn step(&mut self, outbox: &mut Outbox<u64>) {
        self.steps += 1;
        self.acc = self.acc.wrapping_mul(6364136223846793005).wrapping_add(self.steps);
        if self.cross_every > 0 && self.lanes > 1 && self.steps % self.cross_every == 0 {
            let dest = (self.idx + 1) % self.lanes;
            outbox.send(dest, self.now + LOOKAHEAD, self.acc);
        }
        self.remaining -= 1;
        self.now = self.now + SimDuration::from_nanos(5_000);
    }

    fn receive(&mut self, _at: SimTime, msg: u64) {
        self.acc = self.acc.wrapping_add(msg);
    }
}

fn build(lanes: usize, cross_every: u64) -> Vec<RingLane> {
    (0..lanes)
        .map(|i| RingLane::new(i, lanes, TOTAL_EVENTS / lanes as u64, cross_every))
        .collect()
}

fn checksum(lanes: &[RingLane]) -> u64 {
    lanes.iter().fold(0u64, |a, l| a.wrapping_add(l.acc))
}

fn bench_mix(c: &mut Criterion, mix: &str, cross_every: u64) {
    let mut g = c.benchmark_group(&format!("lanes/{mix}"));
    g.sample_size(10);
    for lanes in LANE_COUNTS {
        g.bench_function(&format!("serial/lanes={lanes}"), |b| {
            b.iter(|| {
                let mut v = build(lanes, cross_every);
                run_lanes_serial(&mut v);
                black_box(checksum(&v))
            })
        });
        g.bench_function(&format!("parallel/lanes={lanes}"), |b| {
            b.iter(|| {
                let mut v = build(lanes, cross_every);
                run_lanes_parallel(&mut v, lanes);
                black_box(checksum(&v))
            })
        });
    }
    g.finish();
}

fn isolated(c: &mut Criterion) {
    bench_mix(c, "isolated", 0);
}

fn sparse(c: &mut Criterion) {
    bench_mix(c, "sparse", 100);
}

fn dense(c: &mut Criterion) {
    bench_mix(c, "dense", 1);
}

criterion_group!(benches, isolated, sparse, dense);
criterion_main!(benches);
