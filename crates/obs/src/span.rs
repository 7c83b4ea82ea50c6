//! Per-request stage timing: [`RequestSpan`].
//!
//! A span follows one request through a pipeline of named stages
//! (parse → queue → decide → write, say), recording the wall-clock
//! nanoseconds each stage took. It is built for a reactor hot path:
//! no allocation (stages live in a fixed inline array), no locking
//! (the id comes from one relaxed atomic increment), and the clock is
//! read exactly once per stage boundary — marking a stage closes it
//! and opens the next.
//!
//! Spans cross threads by move: the reactor begins a span at parse
//! time, the worker marks the queue/decide stages, and the reactor
//! marks the final write stage when the response bytes reach the
//! socket. [`RequestSpan::mark_at`] exists for the seams where the
//! boundary instant was captured earlier than it is recorded (e.g. a
//! cache-fill closure that started inside another call).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Cap on named stages per span; marks beyond it are dropped (the
/// serving pipeline uses eight).
pub const MAX_STAGES: usize = 8;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One request's identity and per-stage timings.
#[derive(Clone, Debug)]
pub struct RequestSpan {
    id: u64,
    started: Instant,
    last: Instant,
    stages: [(&'static str, u64); MAX_STAGES],
    len: usize,
}

impl RequestSpan {
    /// Begins a span now, assigning the next monotonically increasing
    /// request id (process-wide, starting at 1).
    pub fn begin() -> RequestSpan {
        RequestSpan::begin_at(Instant::now())
    }

    /// Begins a span whose first stage started at `start` (e.g. the
    /// instant the request's first byte was read, captured before
    /// parsing began).
    pub fn begin_at(start: Instant) -> RequestSpan {
        RequestSpan {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            started: start,
            last: start,
            stages: [("", 0); MAX_STAGES],
            len: 0,
        }
    }

    /// This request's id. Ids increase monotonically across all spans
    /// in the process, so they order requests by arrival.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the current stage now, naming it `stage`; the next mark
    /// times from this instant. Returns the stage's nanoseconds.
    pub fn mark(&mut self, stage: &'static str) -> u64 {
        self.mark_at(stage, Instant::now())
    }

    /// Closes the current stage at `now` (a caller-captured instant),
    /// naming it `stage`. Returns the stage's nanoseconds. Instants
    /// earlier than the previous boundary record 0.
    pub fn mark_at(&mut self, stage: &'static str, now: Instant) -> u64 {
        let nanos =
            u64::try_from(now.saturating_duration_since(self.last).as_nanos()).unwrap_or(u64::MAX);
        self.last = now;
        if self.len < MAX_STAGES {
            self.stages[self.len] = (stage, nanos);
            self.len += 1;
        }
        nanos
    }

    /// The recorded stages, in mark order.
    pub fn stages(&self) -> &[(&'static str, u64)] {
        &self.stages[..self.len]
    }

    /// The nanoseconds of the named stage, if it was marked (first
    /// match wins).
    pub fn stage_nanos(&self, stage: &str) -> Option<u64> {
        self.stages()
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|&(_, n)| n)
    }

    /// Nanoseconds from span begin to the last mark — the request's
    /// end-to-end latency once the final stage is marked.
    pub fn total_nanos(&self) -> u64 {
        u64::try_from(self.last.saturating_duration_since(self.started).as_nanos())
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ids_increase_monotonically() {
        let a = RequestSpan::begin();
        let b = RequestSpan::begin();
        let c = RequestSpan::begin();
        assert!(a.id() < b.id() && b.id() < c.id());
    }

    #[test]
    fn marks_name_stages_in_order_and_sum_to_total() {
        let t0 = Instant::now();
        let mut span = RequestSpan::begin_at(t0);
        span.mark_at("parse", t0 + Duration::from_nanos(100));
        span.mark_at("queue", t0 + Duration::from_nanos(250));
        span.mark_at("decide", t0 + Duration::from_nanos(1_250));
        assert_eq!(
            span.stages(),
            &[("parse", 100), ("queue", 150), ("decide", 1_000)]
        );
        assert_eq!(span.stage_nanos("queue"), Some(150));
        assert_eq!(span.stage_nanos("write"), None);
        assert_eq!(span.total_nanos(), 1_250);
    }

    #[test]
    fn out_of_order_instants_clamp_to_zero() {
        let t0 = Instant::now();
        let mut span = RequestSpan::begin_at(t0 + Duration::from_nanos(500));
        assert_eq!(span.mark_at("early", t0), 0);
    }

    #[test]
    fn marks_beyond_the_cap_are_dropped() {
        let mut span = RequestSpan::begin();
        for _ in 0..MAX_STAGES + 3 {
            span.mark("s");
        }
        assert_eq!(span.stages().len(), MAX_STAGES);
    }
}
