//! Request-level observability primitives for `flqd`.
//!
//! * [`Histogram`] — a lock-free, log2-bucketed latency histogram with
//!   mergeable, Prometheus-renderable snapshots;
//! * [`RequestSpan`] — an allocation-free per-request span that ids a
//!   request and times its named stages.
//!
//! Facts about one containment run are not kept here: the chase and the
//! homomorphism search report them by value (`flogic_chase::ChaseStats`,
//! `Chase::level_growth`, `flogic_hom::HomStats`).
//!
//! This crate is dependency-free (std only).

pub mod hist;
pub mod span;

pub use hist::{
    bucket_lower_bound, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKET_COUNT,
};
pub use span::{RequestSpan, MAX_STAGES};
