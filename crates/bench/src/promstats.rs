//! Scrape-side recovery of `flqd`'s stage histograms.
//!
//! `flqd` exposes its per-stage latency as cumulative Prometheus
//! histogram series (`flqd_stage_duration_nanoseconds_bucket{stage=...,
//! le=...}`). This module inverts that rendering back into
//! [`HistogramSnapshot`]s so clients can diff two scrapes and compute
//! percentiles over exactly the window between them — `loadgen
//! --server-stats` and experiment E15 both build on it.

use std::collections::HashMap;

use flogic_obs::{bucket_upper_bound, HistogramSnapshot, BUCKET_COUNT};

use crate::wire;

/// One Prometheus scrape of the server's observability state, reduced
/// to the parts clients diff: per-stage latency histograms and the
/// batch-dedup counter.
pub struct ServerStats {
    /// Stage name (`"parse"`, …, `"write"`) → recovered histogram.
    pub stages: HashMap<String, HistogramSnapshot>,
    /// The `flqd_batch_dedup_hits_total` counter.
    pub batch_dedup_hits: u64,
}

/// Fetches and parses `GET /metrics` from the server at `addr`.
pub fn scrape_server_stats(addr: &str) -> Result<ServerStats, String> {
    let (status, body) =
        wire::get(addr, "/metrics").map_err(|e| format!("metrics scrape failed: {e}"))?;
    if status != 200 {
        return Err(format!("metrics scrape answered HTTP {status}"));
    }
    parse_server_stats(&body)
}

/// Rebuilds per-stage [`HistogramSnapshot`]s from the cumulative
/// `flqd_stage_duration_nanoseconds_bucket{stage=...,le=...}` series
/// (the inverse of the server's exposition rendering).
pub fn parse_server_stats(body: &str) -> Result<ServerStats, String> {
    const BUCKET: &str = "flqd_stage_duration_nanoseconds_bucket{stage=\"";
    const SUM: &str = "flqd_stage_duration_nanoseconds_sum{stage=\"";
    let mut stages: HashMap<String, HistogramSnapshot> = HashMap::new();
    let mut batch_dedup_hits = 0;
    let bad = |line: &str| format!("cannot parse metrics line {line:?}");
    for line in body.lines() {
        if let Some(value) = line.strip_prefix("flqd_batch_dedup_hits_total ") {
            batch_dedup_hits = value.trim().parse().map_err(|_| bad(line))?;
        } else if let Some(rest) = line.strip_prefix(BUCKET) {
            let (stage, rest) = rest.split_once("\",le=\"").ok_or_else(|| bad(line))?;
            let (le, value) = rest.split_once("\"} ").ok_or_else(|| bad(line))?;
            let cum: u64 = value.trim().parse().map_err(|_| bad(line))?;
            let hist = stages.entry(stage.to_string()).or_default();
            if le == "+Inf" {
                hist.count = cum;
            } else {
                let upper: u64 = le.parse().map_err(|_| bad(line))?;
                let idx = (0..BUCKET_COUNT)
                    .find(|&i| bucket_upper_bound(i) == upper)
                    .ok_or_else(|| bad(line))?;
                hist.buckets[idx] = cum;
            }
        } else if let Some(rest) = line.strip_prefix(SUM) {
            let (stage, value) = rest.split_once("\"} ").ok_or_else(|| bad(line))?;
            stages.entry(stage.to_string()).or_default().sum =
                value.trim().parse().map_err(|_| bad(line))?;
        }
    }
    // The scraped buckets are cumulative (and rendered only up to the
    // highest non-empty one): de-cumulate in place.
    for hist in stages.values_mut() {
        let mut prev = 0u64;
        for bucket in hist.buckets.iter_mut() {
            let cum = (*bucket).max(prev);
            *bucket = cum - prev;
            prev = cum;
        }
    }
    Ok(ServerStats {
        stages,
        batch_dedup_hits,
    })
}

/// The unlabeled samples of `families`, in order, from one `GET /metrics`
/// of the server at `addr`. Panics when the scrape fails or a family has
/// no sample line: a renamed or dropped metric must fail an experiment,
/// not read as zero.
pub fn scrape_samples<const N: usize>(addr: &str, families: [&str; N]) -> [u64; N] {
    let (status, body) = wire::get(addr, "/metrics").expect("scrape /metrics");
    assert_eq!(status, 200, "{body}");
    families.map(|family| {
        body.lines()
            .find_map(|l| {
                l.strip_prefix(family)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse()
                    .ok()
            })
            .unwrap_or_else(|| panic!("GET /metrics has no `{family}` sample"))
    })
}

/// The histogram of what happened *between* two scrapes; `max` is
/// approximated by the upper bound of the highest bucket the window
/// touched (the server only exposes its lifetime max).
pub fn diff_snapshots(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let mut diff = HistogramSnapshot::default();
    for i in 0..BUCKET_COUNT {
        diff.buckets[i] = after.buckets[i].saturating_sub(before.buckets[i]);
    }
    diff.count = after.count.saturating_sub(before.count);
    diff.sum = after.sum.saturating_sub(before.sum);
    diff.max = diff
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .map(bucket_upper_bound)
        .unwrap_or(0);
    diff
}

/// The per-stage diff between two scrapes, in the server's canonical
/// stage order (missing stages diff as empty histograms).
pub fn diff_stages(
    before: &ServerStats,
    after: &ServerStats,
) -> Vec<(&'static str, HistogramSnapshot)> {
    let empty = HistogramSnapshot::default();
    flogic_serve::obs::STAGES
        .iter()
        .map(|&stage| {
            let b = before.stages.get(stage).unwrap_or(&empty);
            let a = after.stages.get(stage).unwrap_or(&empty);
            (stage, diff_snapshots(b, a))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_roundtrips_a_rendered_histogram() {
        let hist = flogic_obs::Histogram::new();
        for v in [0, 1, 2, 500, 70_000, 70_001, 1_000_000] {
            hist.record_nanos(v);
        }
        let mut body = String::from("# TYPE flqd_stage_duration_nanoseconds histogram\n");
        hist.snapshot().render_prometheus(
            &mut body,
            "flqd_stage_duration_nanoseconds",
            "stage=\"decide\"",
        );
        body.push_str("flqd_batch_dedup_hits_total 3\n");
        let stats = parse_server_stats(&body).expect("parses");
        assert_eq!(stats.batch_dedup_hits, 3);
        let decide = &stats.stages["decide"];
        assert_eq!(decide.count, 7);
        assert_eq!(decide.sum, hist.snapshot().sum);
        // Bucket contents survive the cumulative render + de-cumulate.
        assert_eq!(decide.buckets, hist.snapshot().buckets);
    }

    #[test]
    fn diff_isolates_the_window() {
        let hist = flogic_obs::Histogram::new();
        hist.record_nanos(100);
        let before = hist.snapshot();
        hist.record_nanos(1_000_000);
        hist.record_nanos(1_000_001);
        let diff = diff_snapshots(&before, &hist.snapshot());
        assert_eq!(diff.count, 2);
        assert_eq!(diff.sum, 2_000_001);
        // Both window values land in one bucket; p50 reads from it.
        assert!(
            diff.p50() >= 524_288,
            "p50 {} in the window's bucket",
            diff.p50()
        );
    }
}
