//! Host-side facts about the benchmark process: peak resident memory
//! and run-queue wait.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run-queue wait of every live thread of this process, in ns, keyed by
/// thread id (the second field of `/proc/self/task/<tid>/schedstat`).
fn rq_wait_by_thread() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for e in dir.flatten() {
        let Some(tid) = e.file_name().to_str().and_then(|t| t.parse::<u64>().ok()) else {
            continue;
        };
        let wait = std::fs::read_to_string(e.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().nth(1).and_then(|w| w.parse().ok()));
        if let Some(w) = wait {
            out.insert(tid, w);
        }
    }
    out
}

/// Samples the run-queue wait of every thread of the process until
/// stopped. The simulator's worker threads are short-lived (one scope
/// per sweep or lane run), so their counters are read while they live;
/// the last 10 ms of a thread that exits between samples are lost.
pub struct RqWaitSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<BTreeMap<u64, u64>>,
    start: BTreeMap<u64, u64>,
}

impl RqWaitSampler {
    pub fn start() -> RqWaitSampler {
        let start = rq_wait_by_thread();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut last = BTreeMap::new();
            loop {
                last.extend(rq_wait_by_thread());
                if flag.load(Ordering::Relaxed) {
                    return last;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        RqWaitSampler {
            stop,
            handle,
            start,
        }
    }

    /// Stop sampling and return the total run-queue wait, in seconds,
    /// that the process's threads accumulated since [`start`](Self::start).
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let last = self.handle.join().expect("schedstat sampler panicked");
        let ns: u64 = last
            .iter()
            .map(|(tid, w)| w.saturating_sub(self.start.get(tid).copied().unwrap_or(0)))
            .sum();
        ns as f64 / 1e9
    }
}

/// The `q`-quantile of `v`, interpolated between the two nearest ranks
/// (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}
