//! Metric names, latency summaries, and the result line.
//!
//! The two metric lists below are the benchmark's contract with
//! `BENCHMARK.json` (a test checks they agree): a timed run prints every
//! [`END_TO_END`] metric, a traced run every [`PER_LAYER`] metric.

use hyperm_telemetry::JsonObj;
use std::collections::BTreeMap;

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Metrics a user of the system sees, reported by every timed run of
/// every workload. Each is non-zero on every workload; the
/// workload-specific ones (`rpc_*`, `join_*`, `items_disseminated_per_s`,
/// `wire_bytes_per_op`) are per-layer metrics because they would be zero
/// on the other workloads.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("query_p50_ms", "ms"),
    lower("query_tail_ms", "ms"),
    higher("recall", "ratio"),
    higher("success_ratio", "ratio"),
    lower("msgs_per_query", "count"),
    lower("hops_per_item", "count"),
    lower("peak_rss_mb", "MB"),
];

/// Metrics of single layers, reported by every traced run. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // Query path: range_local and disseminate_churn.
    lower("wavelet.decompose_us", "us"),
    lower("core.keymap_us", "us"),
    lower("can.flood_us", "us"),
    lower("can.flood_us.l0", "us"),
    lower("can.flood_us.l1", "us"),
    lower("can.flood_us.l2", "us"),
    lower("can.flood_us.l3", "us"),
    lower("can.flood_matches", "count"),
    lower("can.flood_msgs", "count"),
    higher("can.flood_useful_ratio", "ratio"),
    lower("core.score_us", "us"),
    lower("core.score_calls", "count"),
    lower("core.aggregate_us", "us"),
    lower("core.fetch_us", "us"),
    lower("core.fetch_peers", "count"),
    higher("core.fetch_useful_ratio", "ratio"),
    // Wire path: range_tcp.
    lower("codec.encode_us", "us"),
    lower("codec.decode_us", "us"),
    lower("runtime.head_serve_us", "us"),
    lower("runtime.member_serve_us", "us"),
    lower("runtime.member_relay_us", "us"),
    lower("transport.wire_wait_us", "us"),
    lower("client.retries", "count"),
    lower("client.stale_replies", "count"),
    lower("client.gave_up", "count"),
    lower("rpc_p50_ms", "ms"),
    lower("rpc_tail_ms", "ms"),
    lower("wire_bytes_per_op", "bytes"),
    // Write path: disseminate_churn.
    lower("core.summarize_ms", "ms"),
    lower("wavelet.decompose_us_per_item", "us"),
    lower("cluster.kmeans_ms", "ms"),
    lower("core.join_publish_ms", "ms"),
    lower("can.publish_msgs_per_join", "count"),
    lower("can.join_msgs", "count"),
    lower("core.depart_ms", "ms"),
    lower("core.depart_msgs", "count"),
    lower("join_p50_ms", "ms"),
    lower("join_tail_ms", "ms"),
    higher("items_disseminated_per_s", "1/s"),
    // The traced run itself.
    lower("trace.query_p50_ms", "ms"),
    lower("trace.overhead_ms", "ms"),
];

/// Metric values by name, rendered in list order.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set `name` (must be one of the listed metrics).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unlisted metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `defs` in order with their values; unset metrics read 0 (a layer
    /// the workload does not exercise).
    pub fn rows(&self, defs: &'static [MetricDef]) -> Vec<(MetricDef, f64)> {
        defs.iter()
            .map(|d| (*d, self.get(d.name).unwrap_or(0.0)))
            .collect()
    }
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(MetricDef, f64)],
) -> String {
    let mut metrics = JsonObj::new();
    for (d, v) in rows {
        let v = if v.is_finite() { *v } else { 0.0 };
        metrics = metrics.obj(d.name, JsonObj::new().g("value", v).s("unit", d.unit));
    }
    JsonObj::new()
        .b("correct", correct)
        .u("attempted", attempted)
        .u("failed", failed)
        .obj("metrics", metrics)
        .render()
}

/// Ladder of tail percentiles, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub(crate) fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of `v` (any order); 0 when empty.
pub(crate) fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// Highest ladder percentile with at least ten of `n` samples beyond it
/// (100, the maximum, below 20 samples).
pub(crate) fn tail_pct(n: usize) -> f64 {
    LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(100.0)
}

/// One latency series summarised over its quietest passes.
///
/// A run repeats the same script of operations pass after pass, so every
/// pass does the same work. Other tenants of a shared host slow whole
/// stretches of a run by up to a third, which moves a whole-run median
/// from run to run far more than the program does. The summary therefore
/// pools the quietest quarter of the passes (lowest median) and reports
/// the p50 and the tail of that pool, and the throughput of the quarter
/// with the least busy time; a change to the program slows every pass
/// alike, so it shows here in full.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Summary {
    /// Median latency of the pool, ms.
    pub(crate) p50: f64,
    /// Tail percentile reported.
    pub(crate) tail_pct: f64,
    /// Its latency, ms.
    pub(crate) tail: f64,
    /// Operations per second of busy time over the quarter of passes with
    /// the least busy time.
    pub(crate) ops_per_s: f64,
    /// Samples in the pool.
    pub(crate) pooled: usize,
    /// Complete passes in the run (a run shorter than one pass counts as
    /// one).
    pub(crate) passes: usize,
    /// Passes pooled.
    pub(crate) quiet: usize,
    /// Median of every pass, in run order.
    pub(crate) pass_p50s: Vec<f64>,
}

/// Summarise `samples_ms` (run order) made of passes of `pass_len`
/// operations; a trailing partial pass is dropped.
pub(crate) fn summarize(samples_ms: &[f64], pass_len: usize) -> Summary {
    let pass_len = pass_len.max(1);
    let chunks: Vec<&[f64]> = if samples_ms.len() < pass_len {
        vec![samples_ms]
    } else {
        samples_ms.chunks_exact(pass_len).collect()
    };
    let pass_p50s: Vec<f64> = chunks.iter().map(|c| median(c)).collect();
    let mut order: Vec<usize> = (0..chunks.len()).collect();
    order.sort_by(|&a, &b| pass_p50s[a].total_cmp(&pass_p50s[b]));
    let quiet = chunks.len().div_ceil(4);
    let mut pool: Vec<f64> = order[..quiet]
        .iter()
        .flat_map(|&i| chunks[i].iter().copied())
        .collect();
    pool.sort_by(f64::total_cmp);
    let tail_pct = tail_pct(pool.len());
    let (p50, tail) = if pool.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&pool, 50.0), percentile(&pool, tail_pct))
    };
    // Throughput pools the passes with the least busy time instead: for a
    // mix of operation kinds the pass median follows the most frequent
    // kind, the busy time all of them.
    let mut busy: Vec<(f64, usize)> = chunks
        .iter()
        .map(|c| (c.iter().sum::<f64>() / 1e3, c.len()))
        .collect();
    busy.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (busy_s, ops) = busy[..quiet]
        .iter()
        .fold((0.0, 0), |(t, n), &(bt, bn)| (t + bt, n + bn));
    Summary {
        p50,
        tail_pct,
        tail,
        ops_per_s: if busy_s > 0.0 {
            ops as f64 / busy_s
        } else {
            0.0
        },
        pooled: pool.len(),
        passes: chunks.len(),
        quiet,
        pass_p50s,
    }
}

impl Summary {
    /// Human-readable line naming the tail percentile and sample counts.
    pub(crate) fn describe(&self, name: &str, all_samples: usize) -> String {
        let passes: Vec<String> = self.pass_p50s.iter().map(|p| format!("{p:.4}")).collect();
        format!(
            "{name}: p50 {:.4} ms, p{} {:.4} ms, {:.2} ops/s over the quietest {} of {} passes \
             ({} of {all_samples} samples); pass p50s [{}]",
            self.p50,
            self.tail_pct,
            self.tail,
            self.ops_per_s,
            self.quiet,
            self.passes,
            self.pooled,
            passes.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_pools_the_quietest_quarter_of_passes() {
        // Eight passes of 100 ops; passes 2 and 5 are the fastest.
        let mut v = Vec::new();
        for pass in 0..8 {
            let base = if pass == 2 || pass == 5 { 1.0 } else { 2.0 };
            v.extend((0..100).map(|i| base + f64::from(i) / 1000.0));
        }
        let s = summarize(&v, 100);
        assert_eq!((s.passes, s.quiet, s.pooled), (8, 2, 200));
        assert_eq!(s.p50, 1.049);
        assert_eq!(s.tail_pct, 95.0);
        assert_eq!(s.tail, 1.094);
        assert_eq!(tail_pct(57), 75.0);
        assert_eq!(tail_pct(1000), 99.0);
        assert_eq!(tail_pct(19), 100.0);
        // A run shorter than one pass is one pass.
        assert_eq!(summarize(&v[..50], 100).passes, 1);
    }

    #[test]
    fn lists_have_unique_well_formed_names() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
