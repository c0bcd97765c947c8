//! Substrate probes: host ns per operation of each layer's public hot
//! path, timed at the depth the workload runs it. Multiplied by the
//! workload's exact count of that operation, each estimates the layer's
//! share of the simulator's run time.

use std::hint::black_box;
use std::time::Instant;

use crate::host::median;

/// Median over five repetitions of `f`'s ns per operation; `f` returns
/// how many operations it performed.
fn ns_per_op(mut f: impl FnMut() -> u64) -> f64 {
    median_of_5(|| {
        let t = Instant::now();
        let ops = f();
        t.elapsed().as_nanos() as f64 / ops.max(1) as f64
    })
}

fn median_of_5(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..5).map(|_| f()).collect();
    median(&samples)
}

/// `EventQueue` push + pop at a steady depth of `depth` pending events,
/// with deltas spread over 100 µs (ordinary packet and handler churn).
pub fn queue_ns_per_op(depth: usize) -> f64 {
    use es2_sim::{EventQueue, SimDuration, SimRng, SimTime};
    let ops = 200_000u64;
    median_of_5(|| {
        let mut rng = SimRng::new(7);
        let mut q = EventQueue::with_capacity(depth);
        let mut now = SimTime::ZERO;
        for i in 0..depth as u64 {
            q.push(now + SimDuration::from_nanos(rng.gen_range(100_000)), i);
        }
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..ops {
            let (at, v) = q.pop().expect("queue stays at depth");
            now = at;
            acc = acc.wrapping_add(v);
            q.push(now + SimDuration::from_nanos(rng.gen_range(100_000)), i);
        }
        black_box(acc);
        // The steady-state loop only, not the prefill.
        t.elapsed().as_nanos() as f64 / ops as f64
    })
}

/// One `CfsScheduler` tick on a core that `threads` runnable threads
/// share.
pub fn sched_tick_ns(threads: usize) -> f64 {
    use es2_sched::{CfsScheduler, CoreId, SchedParams};
    use es2_sim::{SimDuration, SimTime};
    let ticks = 50_000u64;
    ns_per_op(|| {
        let mut s = CfsScheduler::new(1, SchedParams::default());
        for _ in 0..threads.max(1) {
            let t = s.add_thread(0, CoreId(0));
            s.wake(t, SimTime::ZERO);
        }
        for i in 1..=ticks {
            black_box(s.tick(CoreId(0), SimTime::ZERO + SimDuration::from_micros(i * 250)));
        }
        black_box(s.switch_count(CoreId(0)));
        ticks
    })
}

/// Posted-interrupt delivery of one vector: post to the descriptor,
/// sync into the vAPIC page, acknowledge and EOI.
pub fn apic_pi_ns_per_irq() -> f64 {
    use es2_apic::{PiDescriptor, VApicPage};
    let rounds = 1_000u64;
    ns_per_op(|| {
        let mut d = PiDescriptor::new();
        let mut v = VApicPage::new();
        d.set_suppress(false);
        let mut delivered = 0u64;
        for _ in 0..rounds {
            for vec in 0x31u8..0xeb {
                d.post(vec);
                v.sync_from(&mut d);
                while v.ack().is_some() {
                    v.eoi();
                    delivered += 1;
                }
            }
        }
        black_box(delivered)
    })
}

/// One descriptor's round trip through a split virtqueue: driver add,
/// device pop, device used, driver reclaim.
pub fn virtio_ring_ns_per_desc() -> f64 {
    use es2_virtio::{Virtqueue, VirtqueueConfig};
    let rounds = 1_000u64;
    ns_per_op(|| {
        let mut q: Virtqueue<u64> = Virtqueue::new(VirtqueueConfig::default());
        for _ in 0..rounds {
            for i in 0..256u64 {
                q.driver_add(i).expect("ring has room for 256");
            }
            while let Some(p) = q.device_pop() {
                q.device_push_used(p);
            }
            while q.driver_take_used().is_some() {}
        }
        black_box(q.kick_count());
        rounds * 256
    })
}

/// One packet polled by the hybrid I/O handler at the paper's TCP quota.
pub fn core_hybrid_ns_per_pkt() -> f64 {
    use es2_core::{HybridHandler, HybridParams, PollDecision};
    use es2_virtio::{Virtqueue, VirtqueueConfig};
    let rounds = 500u64;
    ns_per_op(|| {
        let mut polled = 0u64;
        for _ in 0..rounds {
            let mut vq: Virtqueue<u32> = Virtqueue::new(VirtqueueConfig::default());
            let mut h = HybridHandler::new(HybridParams::with_quota(HybridParams::TCP_QUOTA));
            for i in 0..256 {
                vq.driver_add(i).expect("ring has room for 256");
            }
            'turns: loop {
                h.begin_turn(&mut vq);
                loop {
                    match h.poll_next(&mut vq) {
                        PollDecision::Process(p) => {
                            black_box(p);
                            polled += 1;
                        }
                        PollDecision::QuotaExhausted | PollDecision::BudgetExhausted => break,
                        PollDecision::Drained => break 'turns,
                    }
                }
            }
        }
        polled
    })
}

/// One redirection target selection with two of four vCPUs online.
pub fn core_redirect_ns_per_select() -> f64 {
    use es2_core::RedirectionEngine;
    let ops = 200_000u64;
    ns_per_op(|| {
        let mut e = RedirectionEngine::new(1, 4);
        e.sched_in(0, 1);
        e.sched_in(0, 3);
        let mut acc = 0u32;
        for _ in 0..ops {
            acc = acc.wrapping_add(e.select_target(0, 0x41, 0));
        }
        black_box(acc);
        ops
    })
}
