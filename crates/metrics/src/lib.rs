//! Measurement infrastructure for ES2 experiments.
//!
//! This crate reproduces the *measurement methodology* of the paper's
//! evaluation (§VI):
//!
//! * [`tig`] — time-in-guest accounting ("calculated by summing up the time
//!   of each VM entry and exit, and then dividing the result by the total
//!   elapsed time"),
//! * [`histogram`] — log-linear latency histograms (ping RTT, connection
//!   times),
//! * [`summary`] — streaming mean/variance/min/max (Welford),
//! * [`span`] — the event-path flight recorder: per-interrupt causal
//!   spans with stage-level latency attribution (`repro --trace`),
//! * [`telemetry`] — the windowed telemetry pipeline: fixed-width
//!   sim-time windows of per-VM/per-queue/per-worker gauges, the SLO
//!   burn-rate engine and the causal annotation stream (`repro
//!   --telemetry`),
//! * [`table`] — plain-text table rendering for the repro binaries,
//! * [`backpressure`] — the per-VM overload-control ledger (shed kicks,
//!   deferred poll budget, quarantines) for the hostile-guest experiments.

pub mod backpressure;
pub mod ev_profile;
pub mod histogram;
pub mod modes;
pub mod span;
pub mod summary;
pub mod table;
pub mod telemetry;
pub mod tig;

pub use backpressure::BackpressureStats;
pub use histogram::Histogram;
pub use modes::{ModeAccounting, VmModeCounts};
pub use span::{SpanNotes, SpanRecorder, SpanReport, Stage};
pub use summary::Summary;
pub use table::Table;
pub use telemetry::{
    Annotation, BurnAlert, SloBreach, SloMetric, SloSpec, TelemetryGeometry, TelemetryRecorder,
    TelemetryReport,
};
pub use tig::TigAccount;
