//! `paq-obs`: the observability substrate for the package-query
//! engine — a zero-dependency metrics registry, log-bucketed latency
//! histograms with percentile extraction, nested tracing spans, and a
//! Prometheus-style text exposition.
//!
//! The design constraints come from the engine it instruments:
//!
//! * **hot paths stay hot** — recording a metric is a read-lock plus
//!   relaxed atomics, and a [`Registry::disabled`] handle reduces every
//!   call to one branch (proven by the bench guard in
//!   `BENCH_refine.json`'s `observability.obs_off_warm_min_roundtrip_ms`);
//! * **determinism is untouched** — span capture is passive (nothing
//!   reads a trace during evaluation), so packages stay bit-identical
//!   at any `PAQ_THREADS` with obs enabled (swept in CI);
//! * **everything exports** — [`Registry::snapshot`] is an owned value
//!   that crosses the wire (the `Metrics` request) and renders
//!   as [`prometheus`] text that parses back losslessly.
//!
//! See the workspace README's "Observability" section for the span-site
//! table and the metric naming scheme.

#![warn(missing_docs)]

pub mod histogram;
pub mod names;
pub mod prometheus;
pub mod registry;
pub mod span;

pub use histogram::{bucket_index, bucket_lower, bucket_upper, Histogram, HistogramSnapshot};
pub use registry::{Registry, RegistrySnapshot};
pub use span::{
    current_context, obs_scope, span, ObsContext, ObsScopeGuard, Span, SpanRecord, Trace,
    DEFAULT_TRACE_CAPACITY,
};
