//! # esr-obs — observability for the ESR runtimes
//!
//! The paper's claims are all about *bounded* quantities: a query's
//! accumulated epsilon never exceeds its limit, COMMU lock-counters
//! return to zero at quiescence, RITU sites trail the newest certified
//! version by a finite lag, replicas diverge only while updates are in
//! flight. This crate makes those quantities observable at runtime
//! instead of only post-hoc in test oracles:
//!
//! * [`MetricsRegistry`] — a lock-cheap registry of counters, gauges,
//!   and histograms. Registration takes a mutex (rare); every handle is
//!   a plain atomic afterwards, so the apply hot path pays a few
//!   relaxed atomic ops per delivered MSet. Snapshots are
//!   deterministic: the series map is ordered, the rendering is
//!   integer-only, and nothing in the registry reads a wall clock —
//!   under the sim's virtual clock the same seed yields a
//!   byte-identical [`MetricsSnapshot`].
//! * [`SiteInstruments`] / [`LinkInstruments`] — pre-registered handle
//!   bundles. The per-site one is held by the executor that owns the
//!   registry and fed from the typed event plane, each query outcome
//!   and the site's state at scrape time; the replica sites never see
//!   it. The link bundle is threaded through the TCP link manager and
//!   is a no-op when detached (`Default`).
//! * [`EventRing`] — a bounded in-memory ring of causally ordered,
//!   caller-stamped events, generic over the event type (the runtimes'
//!   flight recorder; `esrctl trace` / `esrctl spans` dump it over the
//!   wire).
//!
//! Zero dependencies beyond `esr-core` (for the shared
//! [`esr_core::fastid`] hasher); no wall-clock reads anywhere — callers
//! supply timestamps where they want them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod events;
pub mod instruments;
pub mod registry;

pub use events::EventRing;
pub use instruments::{
    CkptInstruments, GaugeFamily, LinkInstruments, ReactorInstruments, SiteInstruments,
};
pub use registry::{
    quantile_from_cumulative, Counter, Gauge, Histogram, HistogramSample, MetricsRegistry,
    MetricsSnapshot, SampleValue, SeriesSample, HIST_BUCKETS,
};
