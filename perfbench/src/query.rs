//! The quick range-query network shared by `range_local` and `range_tcp`,
//! the seeded query stream, and the traced replay of one range query
//! through the layers' public functions.

use crate::metrics::Values;
use crate::trace::{Tracer, ROOT};
use crate::{Outcome, Scale};
use hyperm_baseline::FlatIndex;
use hyperm_cluster::Dataset;
use hyperm_core::score::{aggregate, level_scores};
use hyperm_core::{BuildReport, HypermConfig, HypermNetwork};
use hyperm_sim::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Shape of the quick range-query network.
#[derive(Debug, Clone, Copy)]
pub struct QuickNet {
    /// Peers.
    pub peers: usize,
    /// Items per peer.
    pub items: usize,
    /// Item dimensionality.
    pub dim: usize,
    /// Published wavelet levels.
    pub levels: usize,
    /// k-means clusters per peer and level.
    pub clusters: usize,
    /// Query radius.
    pub eps: f64,
    /// Distinct queries in the stream; the timed loop cycles over them.
    pub queries: usize,
}

impl QuickNet {
    /// The ROADMAP quick network (120 peers × 60 items × 32-d).
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Bench => Self {
                peers: 120,
                items: 60,
                dim: 32,
                levels: 4,
                clusters: 6,
                eps: 0.25,
                queries: 256,
            },
            Scale::Test => Self {
                peers: 24,
                items: 20,
                dim: 16,
                levels: 4,
                clusters: 4,
                eps: 0.25,
                queries: 32,
            },
        }
    }

    /// The peers' collections: fixed, so every seed queries one network.
    pub fn collections(&self) -> Vec<Dataset> {
        let mut rng = StdRng::seed_from_u64(71);
        (0..self.peers)
            .map(|_| {
                let centre: f64 = rng.gen::<f64>() * 0.6;
                let mut ds = Dataset::new(self.dim);
                let mut row = vec![0.0; self.dim];
                for _ in 0..self.items {
                    for x in row.iter_mut() {
                        *x = (centre + rng.gen::<f64>() * 0.4).clamp(0.0, 1.0);
                    }
                    ds.push_row(&row);
                }
                ds
            })
            .collect()
    }

    /// Network configuration (serial queries).
    pub fn config(&self) -> HypermConfig {
        HypermConfig::new(self.dim)
            .with_levels(self.levels)
            .with_clusters_per_peer(self.clusters)
            .with_seed(73)
            .with_parallel_query(false)
    }

    /// Build the network once.
    pub fn build(&self, collections: Vec<Dataset>) -> Result<(HypermNetwork, BuildReport), String> {
        HypermNetwork::build(collections, self.config()).map_err(|e| format!("build: {e}"))
    }
}

/// `n` query points drawn by `seed` from the stored rows, stratified over
/// the peers: query `j` comes from peer `j · peers / n`, and the seed picks
/// the row. A query's cost depends on where it lands, so spreading the
/// script evenly over the network keeps its mean cost from moving with the
/// seed.
pub fn draw_queries(collections: &[Dataset], seed: u64, n: usize) -> Vec<Vec<f64>> {
    draw_rows(collections, seed, n)
        .into_iter()
        .map(|(p, i)| collections[p].row(i).to_vec())
        .collect()
}

/// The `(peer, row)` picks of [`draw_queries`].
pub(crate) fn draw_rows(collections: &[Dataset], seed: u64, n: usize) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|j| {
            let p = j * collections.len() / n.max(1);
            (p, rng.gen_range(0..collections[p].len()))
        })
        .collect()
}

/// Median time of `k` set-ups, and the last set-up's product. `make`
/// returns what it built plus the seconds its timed part took.
pub(crate) fn median_setup<T>(
    k: usize,
    mut make: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64, Vec<f64>), String> {
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k {
        // Drop the previous product first so set-ups do not overlap in
        // memory.
        drop(last.take());
        let (made, secs) = make()?;
        times.push(secs);
        last = Some(made);
    }
    let made = last.ok_or("no set-up ran")?;
    Ok((made, crate::metrics::median(&times), times))
}

/// Seconds `f` takes.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Items sorted, for set comparison.
pub(crate) fn sorted(mut items: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    items.sort_unstable();
    items
}

/// Recall of `got` against `truth` (both sorted); 1 for an empty truth.
pub(crate) fn recall(got: &[(usize, usize)], truth: &[(usize, usize)]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hit = truth
        .iter()
        .filter(|t| got.binary_search(t).is_ok())
        .count();
    hit as f64 / truth.len() as f64
}

/// First alive peer: where a query without an overlay presence enters
/// (what the node runtime uses for client queries).
pub(crate) fn entry_peer(net: &HypermNetwork) -> usize {
    (0..net.len())
        .find(|&p| net.is_alive(p))
        .expect("an alive peer")
}

/// Counts of one replayed range query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Replay {
    /// Retrieved items, sorted.
    pub(crate) items: Vec<(usize, usize)>,
    /// Messages: overlay floods plus phase-2 fetches.
    pub(crate) messages: u64,
    /// Flood messages alone.
    pub(crate) flood_msgs: u64,
    /// Spheres the floods matched (= `intersection_fraction` calls).
    pub(crate) matches: u64,
    /// Matched spheres whose peer survived min-aggregation.
    pub(crate) useful_matches: u64,
    /// Peers contacted in phase 2.
    pub(crate) fetch_peers: u64,
    /// Contacted peers that returned at least one item.
    pub(crate) useful_fetches: u64,
}

/// Span names of the per-level floods.
pub(crate) const FLOOD_LEVEL: [&str; 4] = [
    "can.flood.l0",
    "can.flood.l1",
    "can.flood.l2",
    "can.flood.l3",
];

/// One range query, unbudgeted, replayed layer by layer with a span
/// around each call: the same public calls, in the same order, as
/// `HypermNetwork::range_query` makes without a cache or fault plan.
pub(crate) fn traced_range(
    net: &HypermNetwork,
    from: usize,
    q: &[f64],
    eps: f64,
    tr: &mut Tracer,
    op: u32,
) -> Replay {
    assert!(
        net.levels() <= FLOOD_LEVEL.len(),
        "more levels than flood spans"
    );
    let root = tr.open("query", ROOT, op);
    let dec = tr.time("wavelet.decompose", root, op, || net.decompose_query(q));
    let mut out = Replay::default();
    let mut per_level = Vec::with_capacity(net.levels());
    let mut matched_peers = Vec::new();
    for (l, &flood_name) in FLOOD_LEVEL.iter().enumerate().take(net.levels()) {
        let (key, key_eps) = tr.time("core.keymap", root, op, || {
            let (key, slack) = net.query_key_with_slack(&dec, l);
            (key, net.query_key_radius(eps, l) + slack)
        });
        let flood = tr.time(flood_name, root, op, || {
            net.overlay(l).range_query(NodeId(from), &key, key_eps)
        });
        let dim = u32::try_from(net.overlay(l).dim()).expect("small key dimension");
        let scores = tr.time("core.score", root, op, || {
            level_scores(&flood.matches, &key, key_eps, dim)
        });
        out.messages += flood.stats.messages;
        out.flood_msgs += flood.stats.messages;
        out.matches += flood.matches.len() as u64;
        matched_peers.extend(flood.matches.iter().map(|m| m.payload.peer));
        per_level.push(scores);
    }
    let ranked = tr.time("core.aggregate", root, op, || {
        aggregate(&per_level, net.config.score_policy)
    });
    let mut survivors: Vec<usize> = ranked.iter().map(|p| p.peer).collect();
    survivors.sort_unstable();
    out.useful_matches = matched_peers
        .iter()
        .filter(|p| survivors.binary_search(p).is_ok())
        .count() as u64;
    let items = tr.time("core.fetch", root, op, || {
        let mut items = Vec::new();
        for ps in &ranked {
            out.fetch_peers += 1;
            if !net.is_alive(ps.peer) {
                // An unanswered probe, as the query path charges it.
                out.messages += 1;
                continue;
            }
            let local = net.peer(ps.peer).local_range(q, eps);
            out.messages += 2;
            out.useful_fetches += u64::from(!local.is_empty());
            items.extend(local.into_iter().map(|i| (ps.peer, i)));
        }
        items
    });
    tr.close(root);
    out.items = sorted(items);
    out
}

/// Sums of [`Replay`] counts over a traced run.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplayTotals {
    queries: u64,
    matches: u64,
    useful_matches: u64,
    flood_msgs: u64,
    fetch_peers: u64,
    useful_fetches: u64,
}

impl ReplayTotals {
    /// Add one replayed query.
    pub(crate) fn add(&mut self, r: &Replay) {
        self.queries += 1;
        self.matches += r.matches;
        self.useful_matches += r.useful_matches;
        self.flood_msgs += r.flood_msgs;
        self.fetch_peers += r.fetch_peers;
        self.useful_fetches += r.useful_fetches;
    }

    /// Set the query-path count metrics (per query, or ratios).
    pub(crate) fn set_values(&self, v: &mut Values) {
        let per_query = |x: u64| x as f64 / self.queries.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        v.set("can.flood_matches", per_query(self.matches));
        v.set("can.flood_msgs", per_query(self.flood_msgs));
        v.set(
            "can.flood_useful_ratio",
            ratio(self.useful_matches, self.matches),
        );
        // `level_scores` evaluates `intersection_fraction` once per matched
        // sphere whenever the radius is positive, as it is here.
        v.set("core.score_calls", per_query(self.matches));
        v.set("core.fetch_peers", per_query(self.fetch_peers));
        v.set(
            "core.fetch_useful_ratio",
            ratio(self.useful_fetches, self.fetch_peers),
        );
    }
}

/// What a range query must return: the flat scan's items, and the message
/// count of the untimed check pass (every later run of the query must
/// repeat it exactly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Expected {
    /// Items, sorted.
    pub(crate) items: Vec<(usize, usize)>,
    /// Messages.
    pub(crate) messages: u64,
}

/// Untimed check pass: run every query once, compare with the flat scan
/// (Theorem 4.1: no false dismissals, and precision 1), and return the
/// answers later runs are held to plus the mean recall.
pub(crate) fn check_queries(
    net: &HypermNetwork,
    flat: &FlatIndex,
    queries: &[Vec<f64>],
    eps: f64,
    out: &mut Outcome,
) -> (Vec<Expected>, f64) {
    let from = entry_peer(net);
    let mut recall_sum = 0.0;
    let expected = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let res = net.range_query(from, q, eps, None);
            let items = sorted(res.items);
            let truth = sorted(flat.range(q, eps));
            recall_sum += recall(&items, &truth);
            if items != truth {
                out.mismatch(format!(
                    "query {i}: {} items, flat scan {}",
                    items.len(),
                    truth.len()
                ));
            }
            Expected {
                items,
                messages: res.stats.messages,
            }
        })
        .collect();
    (expected, recall_sum / queries.len().max(1) as f64)
}

/// Mean messages per query of a check pass.
pub(crate) fn mean_messages(expected: &[Expected]) -> f64 {
    expected.iter().map(|e| e.messages as f64).sum::<f64>() / expected.len().max(1) as f64
}
