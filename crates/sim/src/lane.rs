//! Host-lane executor: one serial merge over per-lane event streams.
//!
//! [`exec::sweep`](crate::exec::sweep) parallelizes *across* independent
//! runs. Within one run, the simulation is partitioned into **lanes** —
//! shards that each own their event queue and RNG streams and interact
//! only through timestamped **cross-lane messages**. [`run_lanes`]
//! drives every lane on the calling thread with one global merge loop
//! and delivers each message into its destination's staging heap the
//! moment it is emitted.
//!
//! # Order
//!
//! The next step is always the minimum `(time, class, lane)` composite
//! step over all lanes:
//!
//! * A lane's composite step is the earlier of its next local event and
//!   its earliest staged arrival; local events win time ties.
//! * Staged arrivals are ordered by `(time, sender, sender_seq)` — the
//!   same `(time, seq)` FIFO contract [`EventQueue`] uses. Sender
//!   sequence numbers count each lane's emissions in order.
//! * Among lanes, equal `(time, class)` steps go in lane-index order.
//!
//! Every key is a pure function of the simulation, so the run is too.
//!
//! # Lookahead
//!
//! Each lane declares a **lookahead**: a lower bound on the delay
//! between an event and any message it emits (for cluster hosts, the
//! wire's propagation delay). The merge loop does not need it to order
//! steps; [`Outbox::send`] asserts it as a model check that no message
//! outruns the wire.
//!
//! # Why serial
//!
//! A conservative bounded-window parallel strategy used to run lanes on
//! threads, bitwise identical to this loop. With a 1 µs lookahead and
//! continuous cross-host traffic, every window held only 1.4–3.4 lane
//! steps summed over all lanes — well under a microsecond of work
//! against ~15 µs of barrier wall time — so it ran 17–33× slower than
//! this loop on two cores and was deleted (DESIGN.md §11).
//!
//! [`EventQueue`]: crate::EventQueue

use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// One shard of a partitioned simulation, driven by the lane executor.
///
/// Implementations own their shard's full state (event queue, RNG
/// streams, world state). The executor never inspects that state; it
/// only asks for the next event time, tells the lane to take one step,
/// and routes cross-lane messages.
pub trait LaneSim {
    /// A timestamped event crossing from this lane to another.
    type Msg;

    /// Time of the lane's next *local* event (`None` once drained).
    /// Staged cross-lane arrivals are tracked by the executor and do not
    /// count; a drained lane revives when a message is delivered to it.
    fn next_time(&self) -> Option<SimTime>;

    /// Minimum delta between the lane's clock and the timestamp of any
    /// message it emits. `None` means the lane never emits cross-lane
    /// messages (no egress routes); a send from such a lane panics.
    fn lookahead(&self) -> Option<SimDuration>;

    /// Process exactly one local event — the one whose time
    /// [`next_time`](Self::next_time) last reported. Cross-lane messages
    /// are emitted through `outbox`; their timestamps must be at least
    /// the event time plus [`lookahead`](Self::lookahead).
    fn step(&mut self, outbox: &mut Outbox<Self::Msg>);

    /// Accept one cross-lane message with timestamp `at`. Typically the
    /// lane schedules a local event at `at`; the executor guarantees
    /// `at` is not in the lane's past and that every message with a
    /// given timestamp is delivered before the lane reaches it.
    fn receive(&mut self, at: SimTime, msg: Self::Msg);
}

/// Collects the cross-lane messages one step emits.
pub struct Outbox<M> {
    from: usize,
    now: SimTime,
    lookahead: Option<SimDuration>,
    msgs: Vec<(usize, SimTime, M)>,
}

impl<M> Outbox<M> {
    /// Emit a message to lane `dest` arriving at `at`.
    ///
    /// Panics if the lane declared no lookahead, if `at` violates the
    /// declared lookahead, or on a self-send (local events don't need
    /// the mailbox).
    pub fn send(&mut self, dest: usize, at: SimTime, msg: M) {
        let la = self
            .lookahead
            .expect("lane with lookahead() == None emitted a cross-lane message");
        assert!(
            at >= self.now + la,
            "cross-lane message violates lookahead: event at {:?}, message at {:?}, lookahead {:?}",
            self.now,
            at,
            la
        );
        assert_ne!(dest, self.from, "self-send through the cross-lane mailbox");
        self.msgs.push((dest, at, msg));
    }
}

/// A staged cross-lane arrival, ordered by `(at, src, seq)` — the
/// deterministic tie-break that makes delivery order a pure function of
/// the simulation.
struct Inbound<M> {
    at: SimTime,
    src: u32,
    seq: u64,
    msg: M,
}

impl<M> Inbound<M> {
    fn key(&self) -> (SimTime, u32, u64) {
        (self.at, self.src, self.seq)
    }
}

impl<M> PartialEq for Inbound<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Inbound<M> {}
impl<M> PartialOrd for Inbound<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Inbound<M> {
    /// Inverted: `BinaryHeap` is a max-heap, we want the earliest first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

/// Local events win time ties against staged arrivals (class 0 vs 1):
/// an arrival at `t` is only processed once the lane has no local work
/// left at `t`, mirroring how a same-instant push would sort behind
/// already-queued events under the `(time, seq)` contract.
const CLASS_LOCAL: u8 = 0;
const CLASS_INBOUND: u8 = 1;

/// Executor-side state for one lane: the shard itself plus its staging
/// queue and send counter.
struct Slot<'a, L: LaneSim> {
    sim: &'a mut L,
    staging: BinaryHeap<Inbound<L::Msg>>,
    /// Messages this lane has emitted (assigns `seq` in emission order).
    sent: u64,
}

impl<'a, L: LaneSim> Slot<'a, L> {
    /// The lane's next composite step: earliest of local events and
    /// staged arrivals, with the class tie-break above.
    fn next_key(&self) -> Option<(SimTime, u8)> {
        let local = self.sim.next_time().map(|t| (t, CLASS_LOCAL));
        let inbound = self.staging.peek().map(|i| (i.at, CLASS_INBOUND));
        match (local, inbound) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Execute the composite step `next_key` reported, collecting any
    /// emitted messages into `out` as `(dest, inbound)` pairs.
    fn step_once(&mut self, idx: usize, key: (SimTime, u8), out: &mut Vec<(usize, Inbound<L::Msg>)>) {
        if key.1 == CLASS_INBOUND {
            let i = self.staging.pop().expect("inbound key implies staged msg");
            self.sim.receive(i.at, i.msg);
            return;
        }
        let mut outbox = Outbox {
            from: idx,
            now: key.0,
            lookahead: self.sim.lookahead(),
            msgs: Vec::new(),
        };
        self.sim.step(&mut outbox);
        for (dest, at, msg) in outbox.msgs {
            let seq = self.sent;
            self.sent += 1;
            out.push((
                dest,
                Inbound {
                    at,
                    src: idx as u32,
                    seq,
                    msg,
                },
            ));
        }
    }
}

/// Run every lane to completion: one global merge loop picking the
/// minimum `(time, class, lane)` composite step across all lanes and
/// delivering each emitted message immediately (see module docs).
pub fn run_lanes<L: LaneSim>(lanes: &mut [L]) {
    let mut slots: Vec<Slot<L>> = lanes
        .iter_mut()
        .map(|sim| Slot {
            sim,
            staging: BinaryHeap::new(),
            sent: 0,
        })
        .collect();
    let mut routed: Vec<(usize, Inbound<L::Msg>)> = Vec::new();
    loop {
        // Lane index breaks ties between equal `(time, class)` steps;
        // they are causally independent, so any fixed rule would do.
        let mut best: Option<(SimTime, u8, usize)> = None;
        for (i, s) in slots.iter().enumerate() {
            if let Some((t, c)) = s.next_key() {
                let key = (t, c, i);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let Some((t, c, i)) = best else { break };
        slots[i].step_once(i, (t, c), &mut routed);
        for (dest, inbound) in routed.drain(..) {
            slots[dest].staging.push(inbound);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<String>>>;
    /// Messages one scripted event sends: `(dest lane, at ns, payload)`.
    type Sends = Vec<(usize, u64, &'static str)>;

    /// A scripted lane: each local event may send messages, every step
    /// (local or received) is appended to a log shared by all lanes, and
    /// each received message schedules a local echo 100 ns later.
    struct ScriptLane {
        idx: usize,
        q: crate::EventQueue<(&'static str, Sends)>,
        log: Log,
    }

    impl ScriptLane {
        fn new(idx: usize, log: &Log, script: Vec<(u64, &'static str, Sends)>) -> Self {
            let mut q = crate::EventQueue::new();
            for (t, tag, sends) in script {
                q.push(SimTime::from_nanos(t), (tag, sends));
            }
            ScriptLane {
                idx,
                q,
                log: Rc::clone(log),
            }
        }
    }

    impl LaneSim for ScriptLane {
        type Msg = &'static str;
        fn next_time(&self) -> Option<SimTime> {
            self.q.peek_time()
        }
        fn lookahead(&self) -> Option<SimDuration> {
            Some(SimDuration::from_nanos(500))
        }
        fn step(&mut self, outbox: &mut Outbox<&'static str>) {
            let (t, (tag, sends)) = self.q.pop().unwrap();
            self.log
                .borrow_mut()
                .push(format!("{} lane{} local {tag}", t.as_nanos(), self.idx));
            for (dest, at, msg) in sends {
                outbox.send(dest, SimTime::from_nanos(at), msg);
            }
        }
        fn receive(&mut self, at: SimTime, msg: &'static str) {
            self.log
                .borrow_mut()
                .push(format!("{} lane{} recv {msg}", at.as_nanos(), self.idx));
            self.q.push(at + SimDuration::from_nanos(100), (msg, Vec::new()));
        }
    }

    /// Pins the merge order: local steps before same-time arrivals, and
    /// same-time arrivals by `(src, sender seq)` rather than by emission
    /// time; lane 2 starts drained and revives on its first message.
    #[test]
    fn serial_merge_order_is_pinned() {
        let log: Log = Rc::default();
        let mut lanes = vec![
            ScriptLane::new(
                0,
                &log,
                vec![
                    (100, "a", vec![(2, 1000, "m0.0")]),
                    (200, "b", vec![(2, 1000, "m0.1")]),
                    (1000, "c", vec![]),
                ],
            ),
            ScriptLane::new(1, &log, vec![(50, "d", vec![(2, 1000, "m1.0"), (0, 1000, "m1.1")])]),
            ScriptLane::new(2, &log, vec![]),
        ];
        run_lanes(&mut lanes);
        let expected = [
            "50 lane1 local d",
            "100 lane0 local a",
            "200 lane0 local b",
            "1000 lane0 local c",
            "1000 lane0 recv m1.1",
            "1000 lane2 recv m0.0",
            "1000 lane2 recv m0.1",
            "1000 lane2 recv m1.0",
            "1100 lane0 local m1.1",
            "1100 lane2 local m0.0",
            "1100 lane2 local m0.1",
            "1100 lane2 local m1.0",
        ];
        assert_eq!(*log.borrow(), expected);
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn send_inside_the_lookahead_panics() {
        let log: Log = Rc::default();
        let mut lanes = vec![
            ScriptLane::new(0, &log, vec![(100, "a", vec![(1, 599, "early")])]),
            ScriptLane::new(1, &log, vec![]),
        ];
        run_lanes(&mut lanes);
    }

    /// A lane that revives after draining: lane 1 has no local events at
    /// all and only acts when lane 0's messages arrive.
    struct EchoLane {
        idx: usize,
        q: crate::EventQueue<u64>,
        remaining: u32,
        log: Vec<(u64, u64)>,
    }

    impl LaneSim for EchoLane {
        type Msg = u64;
        fn next_time(&self) -> Option<SimTime> {
            self.q.peek_time()
        }
        fn lookahead(&self) -> Option<SimDuration> {
            Some(SimDuration::from_micros(1))
        }
        fn step(&mut self, outbox: &mut Outbox<u64>) {
            let (t, v) = self.q.pop().unwrap();
            self.log.push((t.as_nanos(), v));
            if self.remaining > 0 {
                self.remaining -= 1;
                outbox.send(1 - self.idx, t + SimDuration::from_micros(1), v + 1);
            }
        }
        fn receive(&mut self, at: SimTime, msg: u64) {
            self.q.push(at, msg);
        }
    }

    #[test]
    fn drained_lane_revives_on_message() {
        let mut a = crate::EventQueue::new();
        a.push(SimTime::from_nanos(100), 0);
        let mut lanes = vec![
            EchoLane {
                idx: 0,
                q: a,
                remaining: 10,
                log: Vec::new(),
            },
            EchoLane {
                idx: 1,
                q: crate::EventQueue::new(),
                remaining: 10,
                log: Vec::new(),
            },
        ];
        run_lanes(&mut lanes);
        // The ping-pong ran to ball exhaustion: the ball alternates
        // lanes every microsecond, 11 hits on lane 0 and 10 on lane 1.
        assert_eq!(lanes[0].log.len(), 11);
        assert_eq!(lanes[1].log.len(), 10);
        assert_eq!(lanes[1].log[0], (1_100, 1));
        assert_eq!(*lanes[0].log.last().unwrap(), (20_100, 20));
    }
}
