//! `disseminate_churn`: the paper's Sec. 5 corpus (Markov, 512-d) under
//! churn. Each cycle departs the oldest live peer, joins a latecomer —
//! decompose, k-means, zone split and replicated publication — and runs a
//! few range queries. Wavelet and k-means do most of the work here and
//! none in `range_local`; the CAN stores take writes and removals beside
//! reads, and the working set is far larger than any cache.
//!
//! The latecomer of cycle `c` brings the collection the departed peer `c`
//! held, so the live data stays the same set of rows under new peer ids:
//! the flat scan over the live peers' collections is the flat scan of the
//! built corpus with departed peers' ids mapped to their latecomers'.
//! A run repeats one epoch of cycles, each on a fresh copy of the built
//! network, so every epoch does the same work.

use crate::metrics::summarize;
use crate::query::{
    draw_rows, entry_peer, median_setup, recall, sorted, timed, traced_range, Expected,
    ReplayTotals,
};
use crate::trace::{Tracer, ROOT};
use crate::{Opts, Outcome, Scale};
use hyperm_baseline::FlatIndex;
use hyperm_bench::DisseminationWorkload;
use hyperm_cluster::kmeans::kmeans;
use hyperm_cluster::{spheres_from_clustering, Dataset, KMeansConfig};
use hyperm_core::{HypermConfig, HypermNetwork, Peer};
use hyperm_wavelet::decompose;
use std::time::Instant;

/// Builds timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Seed of the Markov corpus: fixed, so every run builds one network and
/// `--seed` varies the queries.
const CORPUS_SEED: u64 = 7;

/// Sizes of the churn workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    corpus: DisseminationWorkload,
    levels: usize,
    clusters: usize,
    /// Depart/join cycles per epoch (below the node count, so the oldest
    /// live peer is always one of the built ones).
    cycles: usize,
    /// Range queries after each join.
    queries_per_cycle: usize,
    /// The query radius is the median distance from a stored row to its
    /// `knn`-th nearest item (over a fixed sample of rows).
    knn: usize,
}

impl Shape {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Bench => Self {
                corpus: DisseminationWorkload::at(hyperm_bench::Scale::Quick),
                levels: 4,
                clusters: 10,
                cycles: 40,
                queries_per_cycle: 1,
                knn: 10,
            },
            Scale::Test => Self {
                corpus: DisseminationWorkload {
                    nodes: 16,
                    items_per_node: 30,
                    dim: 32,
                },
                levels: 4,
                clusters: 4,
                cycles: 6,
                queries_per_cycle: 2,
                knn: 5,
            },
        }
    }

    fn config(&self) -> HypermConfig {
        HypermConfig::new(self.corpus.dim)
            .with_levels(self.levels)
            .with_clusters_per_peer(self.clusters)
            .with_seed(3)
            .with_parallel_query(false)
    }
}

/// One seeded query of the epoch script.
struct Query {
    q: Vec<f64>,
    /// Flat-scan answer over the built corpus (built peers' ids).
    truth: Vec<(usize, usize)>,
}

/// The epoch's queries, in cycle order, and their shared radius.
struct Script {
    queries: Vec<Query>,
    radius: f64,
}

/// The flat-scan answer after cycle `cycle`: built peers `0..=cycle` have
/// departed and their collections live on as peers `nodes + p`.
fn relabel(truth: &[(usize, usize)], nodes: usize, cycle: usize) -> Vec<(usize, usize)> {
    sorted(
        truth
            .iter()
            .map(|&(p, i)| (if p <= cycle { nodes + p } else { p }, i))
            .collect(),
    )
}

/// What one epoch must reproduce, from the untimed check pass.
struct Expect {
    queries: Vec<Expected>,
    depart_msgs: Vec<u64>,
    join_msgs: Vec<u64>,
    publish_msgs: Vec<u64>,
}

/// Per-op latencies of the timed loop, ms, in run order.
#[derive(Default)]
struct Lat {
    depart: Vec<f64>,
    join: Vec<f64>,
    query: Vec<f64>,
    all: Vec<f64>,
}

/// Run the workload.
pub(crate) fn run(opts: &Opts) -> Result<Outcome, String> {
    let shape = Shape::at(opts.scale);
    let mut collections = shape.corpus.build_peers(CORPUS_SEED);
    let flat = FlatIndex::from_peers(&collections);
    // One radius for every query and every seed. In this corpus the k-th
    // neighbour distance spans 0.15–5.5, and a query's cost follows its
    // radius, so per-query radii would make a 40-query script's mean cost
    // move by ±7% with the seed.
    let sample: Vec<f64> = draw_rows(&collections, 0, 16)
        .into_iter()
        .map(|(p, i)| flat.kth_distance(collections[p].row(i), shape.knn))
        .collect();
    let radius = crate::metrics::median(&sample);
    let queries: Vec<Query> = draw_rows(
        &collections,
        opts.seed,
        shape.cycles * shape.queries_per_cycle,
    )
    .into_iter()
    .map(|(p, i)| {
        let q = collections[p].row(i).to_vec();
        let truth = flat.range(&q, radius);
        Query { q, truth }
    })
    .collect();
    let script = Script { queries, radius };
    drop(flat);

    let cfg = shape.config();
    let ((base, report), setup_s, setups) = median_setup(SETUP_REPEATS, || {
        let c = collections.clone();
        let (built, secs) = timed(|| HypermNetwork::build(c, cfg.clone()));
        Ok((built.map_err(|e| format!("build: {e}"))?, secs))
    })?;
    // Only the departing peers' collections are needed from here on: each
    // comes back with a latecomer.
    collections.truncate(shape.cycles);

    let mut out = Outcome {
        correct: true,
        query_pass: script.queries.len(),
        ..Outcome::default()
    };
    let (expect, recall) = check_pass(&shape, &base, &collections, &script, &mut out)?;

    let mut lat = Lat::default();
    let deadline = Instant::now() + opts.timed_budget();
    'run: for epoch in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        crate::host::next_cpu(epoch);
        let mut net = base.clone();
        for (c, collection) in collections.iter().enumerate() {
            if Instant::now() >= deadline {
                break 'run;
            }
            let t = Instant::now();
            let gone = net.depart_peer(c);
            lat.depart.push(t.elapsed().as_secs_f64() * 1e3);
            let items = collection.clone();
            let t = Instant::now();
            let joined = net.join_peer(items);
            lat.join.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 2;
            if gone.stats.messages != expect.depart_msgs[c] {
                out.failed += 1;
                out.mismatch(format!("timed depart {c} differs from its check pass"));
            }
            match joined {
                Ok(r)
                    if r.join.messages == expect.join_msgs[c]
                        && r.insertion.messages == expect.publish_msgs[c] => {}
                Ok(_) => {
                    out.failed += 1;
                    out.mismatch(format!("timed join {c} differs from its check pass"));
                }
                Err(e) => {
                    out.failed += 1;
                    out.notes.push(format!("join {c} failed: {e}"));
                }
            }
            let from = entry_peer(&net);
            for k in 0..shape.queries_per_cycle {
                let j = c * shape.queries_per_cycle + k;
                let s = &script.queries[j];
                let t = Instant::now();
                let res = net.range_query(from, &s.q, script.radius, None);
                lat.query.push(t.elapsed().as_secs_f64() * 1e3);
                out.attempted += 1;
                let e = &expect.queries[j];
                if res.stats.messages != e.messages || sorted(res.items) != e.items {
                    out.failed += 1;
                    out.mismatch(format!("timed query {j} differs from its check pass"));
                }
            }
            let n = lat.query.len();
            lat.all
                .extend_from_slice(&lat.query[n - shape.queries_per_cycle..]);
            lat.all.push(lat.depart[lat.depart.len() - 1]);
            lat.all.push(lat.join[lat.join.len() - 1]);
        }
    }

    let q = shape.queries_per_cycle;
    let query = summarize(&lat.query, script.queries.len());
    let join = summarize(&lat.join, shape.cycles);
    let depart = summarize(&lat.depart, shape.cycles);
    let ops = summarize(&lat.all, shape.cycles * (q + 2));
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let msgs: Vec<u64> = expect.queries.iter().map(|e| e.messages).collect();
    out.notes.push(format!(
        "setup_s {setup_s:.6} s: median of {SETUP_REPEATS} builds {setups:.4?}"
    ));
    out.notes.push(query.describe("query", lat.query.len()));
    out.notes.push(join.describe("join", lat.join.len()));
    out.notes.push(depart.describe("depart", lat.depart.len()));
    out.notes.push(format!(
        "check pass: {} cycles, {} queries vs flat scan of the live collections, recall {recall}, \
         {:.2} msgs/query; hops/item {:.4}; {:.1} msgs/depart, {:.1} join + {:.1} publish msgs/join",
        shape.cycles,
        script.queries.len(),
        mean(&msgs),
        report.avg_hops_per_item(),
        mean(&expect.depart_msgs),
        mean(&expect.join_msgs),
        mean(&expect.publish_msgs),
    ));

    let v = &mut out.values;
    v.set("setup_s", setup_s);
    v.set("ops_per_s", ops.ops_per_s);
    v.set("query_p50_ms", query.p50);
    v.set("query_tail_ms", query.tail);
    v.set("recall", recall);
    v.set("msgs_per_query", mean(&msgs));
    v.set("hops_per_item", report.avg_hops_per_item());
    v.set("join_p50_ms", join.p50);
    v.set("join_tail_ms", join.tail);
    // Items a typical join publishes per second: the mean collection size
    // over the p50 join (as the range workloads use the p50 build).
    let items_per_join =
        collections.iter().map(Dataset::len).sum::<usize>() as f64 / shape.cycles as f64;
    v.set(
        "items_disseminated_per_s",
        items_per_join / (join.p50 / 1e3),
    );
    v.set("can.publish_msgs_per_join", mean(&expect.publish_msgs));
    v.set("can.join_msgs", mean(&expect.join_msgs));
    v.set("core.depart_msgs", mean(&expect.depart_msgs));

    if opts.trace {
        out.reference_ms.insert("query".into(), query.p50);
        out.reference_ms.insert("join".into(), join.p50);
        out.reference_ms.insert("depart".into(), depart.p50);
        traced(
            opts,
            &shape,
            &base,
            &collections,
            &script,
            &expect,
            &mut out,
        );
    }
    let success = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.values.set("success_ratio", success);
    Ok(out)
}

/// Untimed first epoch: every answer against the flat scan of the live
/// collections, and the counts later epochs must repeat.
fn check_pass(
    shape: &Shape,
    base: &HypermNetwork,
    collections: &[Dataset],
    script: &Script,
    out: &mut Outcome,
) -> Result<(Expect, f64), String> {
    let nodes = shape.corpus.nodes;
    let mut net = base.clone();
    let mut expect = Expect {
        queries: Vec::new(),
        depart_msgs: Vec::new(),
        join_msgs: Vec::new(),
        publish_msgs: Vec::new(),
    };
    let mut recall_sum = 0.0;
    for (c, collection) in collections.iter().enumerate() {
        expect.depart_msgs.push(net.depart_peer(c).stats.messages);
        let r = net
            .join_peer(collection.clone())
            .map_err(|e| format!("check-pass join {c}: {e}"))?;
        if r.peer != nodes + c {
            return Err(format!(
                "latecomer {c} got id {}, not {}",
                r.peer,
                nodes + c
            ));
        }
        expect.join_msgs.push(r.join.messages);
        expect.publish_msgs.push(r.insertion.messages);
        let from = entry_peer(&net);
        for k in 0..shape.queries_per_cycle {
            let j = c * shape.queries_per_cycle + k;
            let s = &script.queries[j];
            let res = net.range_query(from, &s.q, script.radius, None);
            let items = sorted(res.items);
            let truth = relabel(&s.truth, nodes, c);
            recall_sum += recall(&items, &truth);
            if items != truth {
                out.mismatch(format!(
                    "query {j}: {} items, flat scan of the live collections {}",
                    items.len(),
                    truth.len()
                ));
            }
            expect.queries.push(Expected {
                items,
                messages: res.stats.messages,
            });
        }
    }
    Ok((expect, recall_sum / script.queries.len().max(1) as f64))
}

/// k-means settings `Peer::summarize` uses for peer `id` at level `l`.
fn kmeans_config(cfg: &HypermConfig, id: usize, l: usize) -> KMeansConfig {
    KMeansConfig {
        k: cfg.clusters_per_peer,
        max_iter: cfg.kmeans_max_iter,
        tol: 1e-9,
        init: Default::default(),
        seed: cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((id as u64) << 20)
            .wrapping_add(l as u64),
    }
}

/// Traced epochs: each depart, each join (with `Peer::summarize` on the
/// latecomer's collection replayed beside it, split into the wavelet
/// decomposition and the per-level k-means) and each query replayed layer
/// by layer.
fn traced(
    opts: &Opts,
    shape: &Shape,
    base: &HypermNetwork,
    collections: &[Dataset],
    script: &Script,
    expect: &Expect,
    out: &mut Outcome,
) {
    let nodes = shape.corpus.nodes;
    let cfg = &base.config;
    let subspaces = cfg.subspaces();
    let mut tr = Tracer::new();
    let mut totals = ReplayTotals::default();
    let mut decomposed = 0u64;
    let mut joins = 0u64;
    let mut op = 0u32;
    let deadline = Instant::now() + opts.traced_budget();
    // At least one whole epoch, whose counts are the per-layer counts.
    let mut first_epoch = true;
    'run: loop {
        let mut net = base.clone();
        for (c, collection) in collections.iter().enumerate() {
            if !first_epoch && Instant::now() >= deadline {
                break 'run;
            }
            let root = tr.open("depart", ROOT, op);
            let gone = tr.time("core.depart", root, op, || net.depart_peer(c));
            tr.close(root);
            op += 1;
            out.attempted += 1;
            if gone.stats.messages != expect.depart_msgs[c] {
                out.failed += 1;
                out.mismatch(format!("traced depart {c} differs from the timed run"));
            }

            let id = nodes + c;
            let (copy, items) = (collection.clone(), collection.clone());
            let root = tr.open("join", ROOT, op);
            let peer = tr.time("core.summarize", root, op, || {
                Peer::summarize(id, copy, cfg)
            });
            let views = tr.time("wavelet.decompose", root, op, || {
                let mut views: Vec<Dataset> = subspaces
                    .iter()
                    .map(|s| Dataset::with_capacity(s.dim(), items.len()))
                    .collect();
                for row in items.rows() {
                    let dec = decompose(row, cfg.normalization).expect("power-of-two dim");
                    for (view, &s) in views.iter_mut().zip(&subspaces) {
                        view.push_row(dec.subspace(s).expect("subspace exists"));
                    }
                }
                views
            });
            let spheres = tr.time("cluster.kmeans", root, op, || {
                views
                    .iter()
                    .enumerate()
                    .map(|(l, view)| {
                        spheres_from_clustering(view, &kmeans(view, &kmeans_config(cfg, id, l)))
                    })
                    .collect::<Vec<_>>()
            });
            let joined = tr.time("core.join_peer", root, op, || net.join_peer(items));
            tr.close(root);
            op += 1;
            out.attempted += 1;
            decomposed += collection.len() as u64;
            joins += 1;
            let same = matches!(&joined, Ok(r) if r.join.messages == expect.join_msgs[c]
                && r.insertion.messages == expect.publish_msgs[c]);
            if !same || spheres != peer.summaries || views != peer.level_views {
                out.failed += 1;
                out.mismatch(format!("traced join {c} differs from the timed run"));
            }

            let from = entry_peer(&net);
            for k in 0..shape.queries_per_cycle {
                let j = c * shape.queries_per_cycle + k;
                let s = &script.queries[j];
                let r = traced_range(&net, from, &s.q, script.radius, &mut tr, op);
                op += 1;
                out.attempted += 1;
                let e = &expect.queries[j];
                if r.messages != e.messages || r.items != e.items {
                    out.failed += 1;
                    out.mismatch(format!("traced query {j} differs from the timed run"));
                }
                if first_epoch {
                    totals.add(&r);
                }
            }
        }
        first_epoch = false;
        if Instant::now() >= deadline {
            break;
        }
    }
    totals.set_values(&mut out.values);
    // Per item: the decomposition span covers a whole collection.
    let layers = crate::trace::layers_by_op(tr.spans());
    if let (Some(join), true) = (layers.get("join"), decomposed > 0) {
        let per_join = decomposed as f64 / joins as f64;
        out.values.set(
            "wavelet.decompose_us_per_item",
            join.mean_us("wavelet.decompose") / per_join,
        );
    }
    out.spans = tr.spans().to_vec();
}
