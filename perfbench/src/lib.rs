//! End-to-end and per-layer benchmark of Hyper-M.
//!
//! Three closed-loop workloads, each stressing different modules (see
//! `README.md` in this directory for why each exists and which layer
//! metric should move which end-to-end metric):
//!
//! * `range_local` — serial in-process range queries on the quick
//!   network: flood, Eq.-1 scoring and phase-2 scans, no transport;
//! * `range_tcp` — the same queries, plus tiny `Route` requests, from a
//!   `Client` through a member `NodeRuntime` to the head over loopback TCP;
//! * `disseminate_churn` — the Sec. 5 Markov corpus under churn: depart,
//!   join (summarise + publish), then range queries.
//!
//! A run builds its inputs from the seed, checks every answer against a
//! flat scan, measures for the given seconds, and returns the metrics of
//! [`metrics::END_TO_END`] (timed run) or [`metrics::PER_LAYER`] (traced
//! run, spans recorded around calls into each layer's public functions).

#![forbid(unsafe_code)]

mod churn;
mod host;
pub mod metrics;
pub mod query;
mod range_local;
mod range_tcp;
pub mod trace;

use metrics::Values;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::{OpLayers, Span};

/// Input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Bench,
    /// Small inputs for the benchmark's own tests.
    Test,
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process range queries.
    RangeLocal,
    /// Range queries and routes over loopback TCP.
    RangeTcp,
    /// Churn: depart, join, query.
    DisseminateChurn,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` lists the [`Workload::listed`] ones, in this order.
    pub const ALL: [Workload; 3] = [
        Workload::RangeLocal,
        Workload::RangeTcp,
        Workload::DisseminateChurn,
    ];

    /// Name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RangeLocal => "range_local",
            Workload::RangeTcp => "range_tcp",
            Workload::DisseminateChurn => "disseminate_churn",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether `BENCHMARK.json` lists the workload. `range_local` runs
    /// from the command line for its layer split but is not listed: its
    /// 2-MB working set shares the host's caches with other tenants, and
    /// over sets of ten 30-s runs its p50 spread reached 27–28%, beyond
    /// the largest bound a listed metric may carry.
    pub fn listed(self) -> bool {
        self != Workload::RangeLocal
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measured time. A traced run spends half of it on the untraced loop
    /// (the overhead reference) and half on the traced replay.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a timed one.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where a traced run writes its span file and layer table.
    pub out_dir: PathBuf,
}

impl Opts {
    /// Budget of the untraced loop.
    pub(crate) fn timed_budget(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s.max(0.0))
    }

    /// Budget of the traced replay.
    pub(crate) fn traced_budget(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 2.0).max(0.0))
    }
}

/// What a run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every answer matched the flat scan, and every count matched
    /// between the check pass, the timed loop and the traced replay.
    pub correct: bool,
    /// Operations attempted in the measured loops.
    pub attempted: u64,
    /// Operations that failed (error, timeout, refusal or mismatch).
    pub failed: u64,
    /// Metric values.
    pub values: Values,
    /// Human-readable lines describing the run (printed before the result).
    pub notes: Vec<String>,
    /// Spans of the traced replay.
    pub spans: Vec<Span>,
    /// Untraced p50 per op kind, ms: the reference column of the layer table.
    pub(crate) reference_ms: BTreeMap<String, f64>,
    /// Queries per pass of the script, for the traced query p50.
    pub(crate) query_pass: usize,
}

impl Outcome {
    /// Record a correctness failure.
    pub(crate) fn mismatch(&mut self, what: String) {
        // The first few are enough to diagnose; a broken run can mismatch
        // on every operation.
        if self
            .notes
            .iter()
            .filter(|n| n.starts_with("MISMATCH"))
            .count()
            < 10
        {
            self.notes.push(format!("MISMATCH {what}"));
        }
        self.correct = false;
    }
}

/// Run one workload. Per-layer metrics need the span file, so a traced
/// run's metrics are completed by [`finish_trace`].
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let usage = host::Usage::now();
    let mut out = match opts.workload {
        Workload::RangeLocal => range_local::run(opts)?,
        Workload::RangeTcp => range_tcp::run(opts)?,
        Workload::DisseminateChurn => churn::run(opts)?,
    };
    let (cpu_s, wait_ms) = usage.since();
    out.values.set("peak_rss_mb", host::peak_rss_mb());
    out.notes.push(format!(
        "host: nproc {} git_rev {} seed {} cpu_s {cpu_s:.3} main_thread_sched_wait_ms {wait_ms:.3} peak_rss_mb {:.1}",
        host::nproc(),
        host::git_rev(),
        opts.seed,
        host::peak_rss_mb()
    ));
    Ok(out)
}

/// Write the spans of a traced run to `opts.out_dir`, read them back, and
/// set the per-layer timing metrics and the self-time table from the file.
pub fn finish_trace(opts: &Opts, out: &mut Outcome) -> Result<PathBuf, String> {
    let dir: &Path = &opts.out_dir;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", opts.workload.name(), opts.seed);
    let span_path = dir.join(format!("spans-{stem}.jsonl"));
    std::fs::write(&span_path, trace::to_jsonl(&out.spans))
        .map_err(|e| format!("write {}: {e}", span_path.display()))?;
    let text = std::fs::read_to_string(&span_path)
        .map_err(|e| format!("read {}: {e}", span_path.display()))?;
    let spans = trace::parse_jsonl(&text)?;
    let layers = trace::layers_by_op(&spans);
    let table = trace::render_table(opts.workload.name(), &layers, &out.reference_ms);
    let table_path = dir.join(format!("layers-{stem}.txt"));
    std::fs::write(&table_path, &table)
        .map_err(|e| format!("write {}: {e}", table_path.display()))?;
    layer_values(&spans, &layers, out);
    out.notes.extend(table.lines().map(str::to_string));
    out.notes.push(format!(
        "spans: {} in {}, table in {}",
        spans.len(),
        span_path.display(),
        table_path.display()
    ));
    Ok(span_path)
}

/// Per-layer timing metrics from the self-time table. Each layer's metric
/// is its mean self time per operation of the kind that exercises it.
fn layer_values(spans: &[Span], layers: &BTreeMap<String, OpLayers>, out: &mut Outcome) {
    let none = OpLayers::default();
    let query = layers.get("query").unwrap_or(&none);
    let v = &mut out.values;
    v.set("wavelet.decompose_us", query.mean_us("wavelet.decompose"));
    v.set("core.keymap_us", query.mean_us("core.keymap"));
    let mut flood = 0.0;
    for (name, level) in [
        "can.flood_us.l0",
        "can.flood_us.l1",
        "can.flood_us.l2",
        "can.flood_us.l3",
    ]
    .into_iter()
    .zip(query::FLOOD_LEVEL)
    {
        let us = query.mean_us(level);
        v.set(name, us);
        flood += us;
    }
    v.set("can.flood_us", flood);
    v.set("core.score_us", query.mean_us("core.score"));
    v.set("core.aggregate_us", query.mean_us("core.aggregate"));
    v.set("core.fetch_us", query.mean_us("core.fetch"));

    v.set("codec.encode_us", query.mean_us("codec.encode"));
    v.set("codec.decode_us", query.mean_us("codec.decode"));
    v.set("runtime.head_serve_us", query.mean_us("runtime.head_serve"));
    v.set(
        "runtime.member_relay_us",
        query.mean_us("runtime.member_relay"),
    );
    v.set(
        "transport.wire_wait_us",
        query.mean_us("transport.wire_wait"),
    );

    if let Some(join) = layers.get("join") {
        let summarize = join.mean_us("core.summarize");
        v.set("core.summarize_ms", summarize / 1e3);
        v.set("cluster.kmeans_ms", join.mean_us("cluster.kmeans") / 1e3);
        v.set(
            "core.join_publish_ms",
            (join.mean_us("core.join_peer") - summarize) / 1e3,
        );
    }
    if let Some(depart) = layers.get("depart") {
        v.set("core.depart_ms", depart.mean_us("core.depart") / 1e3);
    }

    let traced: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent == trace::ROOT && s.name == "query")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let traced_p50 = metrics::summarize(&traced, out.query_pass).p50;
    v.set("trace.query_p50_ms", traced_p50);
    if let Some(untraced) = out.reference_ms.get("query") {
        v.set("trace.overhead_ms", traced_p50 - untraced);
    }
}
