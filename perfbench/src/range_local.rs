//! `range_local`: serial `HypermNetwork::range_query` calls from one
//! caller on the quick network. Flood, Eq.-1 scoring and phase-2 scans do
//! all the work; the transport does none.

use crate::metrics::summarize;
use crate::query::{
    check_queries, draw_queries, entry_peer, mean_messages, median_setup, sorted, timed,
    traced_range, QuickNet, ReplayTotals,
};
use crate::trace::Tracer;
use crate::{Opts, Outcome};
use hyperm_baseline::FlatIndex;
use std::time::Instant;

/// Builds timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 32;

/// Run the workload.
pub(crate) fn run(opts: &Opts) -> Result<Outcome, String> {
    let shape = QuickNet::at(opts.scale);
    let collections = shape.collections();
    let ((net, report), setup_s, _) = median_setup(SETUP_REPEATS, || {
        let c = collections.clone();
        let (built, secs) = timed(|| shape.build(c));
        Ok((built?, secs))
    })?;
    let queries = draw_queries(&collections, opts.seed, shape.queries);
    let mut out = Outcome {
        correct: true,
        query_pass: shape.queries,
        ..Outcome::default()
    };
    let flat = FlatIndex::from_peers(&collections);
    let (expected, recall) = check_queries(&net, &flat, &queries, shape.eps, &mut out);
    let from = entry_peer(&net);
    let n = queries.len();

    let mut lat_ms = Vec::new();
    let deadline = Instant::now() + opts.timed_budget();
    while Instant::now() < deadline {
        let i = lat_ms.len() % n;
        if i == 0 {
            crate::host::next_cpu(lat_ms.len() / n);
        }
        let t = Instant::now();
        let res = net.range_query(from, &queries[i], shape.eps, None);
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        let e = &expected[i];
        if res.stats.messages != e.messages || sorted(res.items) != e.items {
            out.failed += 1;
            out.mismatch(format!("timed query {i} differs from its check pass"));
        }
    }
    let query = summarize(&lat_ms, n);
    out.notes.push(format!(
        "setup_s {setup_s:.6} s: median of {SETUP_REPEATS} builds"
    ));
    out.notes.push(query.describe("query", lat_ms.len()));
    out.notes.push(format!(
        "check pass: {n} queries vs flat scan, recall {recall}, {:.2} msgs/query; hops/item {:.4}",
        mean_messages(&expected),
        report.avg_hops_per_item()
    ));

    let v = &mut out.values;
    v.set("setup_s", setup_s);
    v.set("ops_per_s", query.ops_per_s);
    v.set("query_p50_ms", query.p50);
    v.set("query_tail_ms", query.tail);
    v.set("recall", recall);
    v.set("msgs_per_query", mean_messages(&expected));
    v.set("hops_per_item", report.avg_hops_per_item());

    if opts.trace {
        out.reference_ms.insert("query".into(), query.p50);
        let mut tr = Tracer::new();
        let mut totals = ReplayTotals::default();
        let deadline = Instant::now() + opts.traced_budget();
        let mut op = 0u32;
        // At least one whole pass, whose counts are the per-layer counts.
        while (op as usize) < n || Instant::now() < deadline {
            let i = op as usize % n;
            let r = traced_range(&net, from, &queries[i], shape.eps, &mut tr, op);
            out.attempted += 1;
            let e = &expected[i];
            if r.messages != e.messages || r.items != e.items {
                out.failed += 1;
                out.mismatch(format!("traced query {i} differs from its check pass"));
            }
            if (op as usize) < n {
                totals.add(&r);
            }
            op += 1;
        }
        totals.set_values(&mut out.values);
        out.spans = tr.spans().to_vec();
    }
    let success = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.values.set("success_ratio", success);
    Ok(out)
}
