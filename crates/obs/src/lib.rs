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
//! * [`NodeInstruments`] / [`LinkInstruments`] / [`ReactorInstruments`]
//!   — pre-registered handle bundles: plain structs of public handles,
//!   each filled in by one constructor. The node bundle is held by the
//!   executor that runs a site's node; its counters are folded from the
//!   events the node records, its gauges read from the node when the
//!   registry is about to be read, its histograms observed where the
//!   node times something. The replica sites never see it. The link and
//!   reactor bundles are threaded through the TCP link manager and the
//!   reactor, which feed them where they move the quantity.
//! * [`EventRing`] — a bounded in-memory ring of causally ordered,
//!   caller-stamped events, generic over the event type (the runtimes'
//!   flight recorder; `esrctl trace` / `esrctl spans` dump it over the
//!   wire).
//!
//! Zero dependencies beyond `esr-core` (for the site ids the node
//! bundle is registered under); no wall-clock reads anywhere — callers
//! supply timestamps where they want them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod events;
pub mod instruments;
pub mod registry;

pub use events::EventRing;
pub use instruments::{LinkInstruments, NodeInstruments, ReactorInstruments, CLOSE_CAUSES};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSample, MetricsRegistry, MetricsSnapshot, SampleValue,
    SeriesSample, HIST_BUCKETS,
};
