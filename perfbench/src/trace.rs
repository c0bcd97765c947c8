//! The benchmark's own span recorder: one span around each public call
//! it makes into the simulator, kept in memory and written at the end
//! as a Chrome trace with a self-time table.
//!
//! Spans are recorded from the benchmark's side of the API only; no
//! probe sits inside the simulator crates.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The cell (or batch, for batch spans) the call worked on.
    pub cell: u32,
    pub parent: Option<usize>,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log. Disabled, it records nothing and costs one
/// atomic load per call.
pub struct Trace {
    enabled: AtomicBool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled: AtomicBool::new(enabled),
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. `f` receives the span's id
    /// to pass as the parent of nested calls.
    pub fn span<R>(
        &self,
        name: &'static str,
        cell: u32,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.enabled.load(Ordering::Relaxed) {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span log lock");
            spans.push(Span {
                name,
                cell,
                parent,
                thread: thread_index(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let r = f(Some(id));
        let end = self.now_ns();
        self.spans.lock().expect("span log lock")[id].end_ns = end;
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per span name: `(calls, total ns, self ns)`. A span's self time is
/// its duration minus the part of it that its children cover (children
/// running in parallel on other threads count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let own = dur - covered(kids, s.start_ns, s.end_ns).min(dur);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += own;
    }
    out
}

/// The self-time table as text.
pub fn render_self_times(spans: &[Span]) -> String {
    let mut s =
        String::from("span                                  calls     total_s      self_s\n");
    for (name, (n, total, own)) in self_times(spans) {
        let _ = writeln!(
            s,
            "{name:<36} {n:>7} {:>11.4} {:>11.4}",
            total as f64 / 1e9,
            own as f64 / 1e9
        );
    }
    s
}

/// Chrome trace (`chrome://tracing`, Perfetto) of the span log, in
/// host-time microseconds.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, sp) in spans.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"cell\": {}, \"parent\": {}}}}}",
            if i == 0 { "" } else { ",\n" },
            sp.name,
            sp.thread,
            sp.start_ns as f64 / 1e3,
            sp.end_ns.saturating_sub(sp.start_ns) as f64 / 1e3,
            sp.cell,
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: if parent.is_none() { "outer" } else { "inner" },
            cell: 0,
            parent,
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel threads) cover 10..40.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 40),
        ];
        let t = self_times(&spans);
        assert_eq!(t["outer"], (1, 100, 70));
        assert_eq!(t["inner"], (2, 40, 40));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::new(false);
        assert_eq!(t.span("x", 0, None, |p| p), None);
        assert!(t.spans().is_empty());
    }
}
