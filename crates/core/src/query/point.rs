//! Point (exact-match) queries.
//!
//! "Point queries are straight forward" (Section 4): the query vector is
//! decomposed, each overlay routes to the owner of the corresponding
//! subspace key, and any cluster sphere *containing* the key marks its peer
//! as a candidate. A peer holding the exact item has that item inside one
//! of its cluster spheres at every level (spheres cover their members), so
//! the min-policy candidate set always contains the true holder — then a
//! direct exact-match request settles it.

use crate::network::HypermNetwork;
use crate::query::{Fetch, Phase2, QueryBudget, QuerySpan};
use crate::score::{aggregate, PeerScore};
use hyperm_sim::{NodeId, OpStats};
use hyperm_telemetry::{names, Fields, OpKind, SpanId};
use std::collections::BTreeMap;

/// Outcome of a point query.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Peers holding an exact copy, with the local index of the match.
    pub matches: Vec<(usize, usize)>,
    /// Candidate peers after aggregation (diagnostics).
    pub candidates: Vec<usize>,
    /// Whether a [`QueryBudget`] deadline cut the probe loop short — some
    /// candidates were never asked. Always `false` without a budget.
    pub truncated: bool,
    /// Total message cost.
    pub stats: OpStats,
}

impl HypermNetwork {
    /// Find every peer holding an item exactly equal to `q`.
    pub fn point_query(&self, from_peer: usize, q: &[f64]) -> PointResult {
        self.point_query_with(from_peer, q, self.config.parallel_query, None)
    }

    /// Point query with a failure-tolerance [`QueryBudget`]: probes to
    /// unreachable (dead or partition-severed) candidates time out after
    /// `budget.fetch_timeout` ticks, and an optional phase-2 hop deadline
    /// stops probing early with [`PointResult::truncated`] set. Fallback
    /// does not apply — every candidate is probed anyway.
    pub fn point_query_budgeted(
        &self,
        from_peer: usize,
        q: &[f64],
        budget: QueryBudget,
    ) -> PointResult {
        self.point_query_with(from_peer, q, self.config.parallel_query, Some(budget))
    }

    /// Shared inner point query (public API and [`crate::QueryEngine`]);
    /// see `HypermNetwork::range_query_with` for the parameter contract.
    pub(crate) fn point_query_with(
        &self,
        from_peer: usize,
        q: &[f64],
        parallel: bool,
        budget: Option<QueryBudget>,
    ) -> PointResult {
        let dec = self.decompose_query(q);
        let span = QuerySpan::open(self.recorder(), OpKind::PointQuery, || {
            vec![("kind", "point".into()), ("from", from_peer.into())]
        });
        let qspan = span.id;

        // Candidate = sphere containment per level, folded like scores.
        let level_out = self.run_levels(parallel, |l| {
            let key = self.query_key(&dec, l);
            let ltel = self.overlay(l).recorder();
            let lspan = if ltel.is_enabled() {
                let s = ltel.span(qspan, names::OVERLAY_LOOKUP, vec![]);
                ltel.set_scope(s);
                s
            } else {
                SpanId::NONE
            };
            let (hits, op) = self.overlay(l).point_lookup(NodeId(from_peer), &key);
            let mut level: BTreeMap<usize, f64> = BTreeMap::new();
            for obj in &hits {
                *level.entry(obj.payload.peer).or_insert(0.0) += obj.payload.items as f64;
            }
            if ltel.is_enabled() {
                ltel.set_scope(SpanId::NONE);
                ltel.end(
                    lspan,
                    names::OVERLAY_LOOKUP,
                    vec![
                        ("hops", op.hops.into()),
                        ("messages", op.messages.into()),
                        ("bytes", op.bytes.into()),
                        ("hits", hits.len().into()),
                    ],
                );
                ltel.record_op(OpKind::PointQuery, Some(l), op);
            }
            (op, level)
        });
        let mut stats = OpStats::zero();
        let mut per_level: Vec<BTreeMap<usize, f64>> = Vec::with_capacity(level_out.len());
        for (op, level) in level_out {
            stats += op;
            per_level.push(level);
        }
        let ranked = aggregate(&per_level, self.config.score_policy);
        let candidates: Vec<usize> = ranked.iter().map(|p| p.peer).collect();

        // Direct exact-match probes to every candidate.
        let mut fetch = PointFetch {
            net: self,
            q,
            matches: Vec::new(),
        };
        let mut phase2 = Phase2::new(self, from_peer, q, budget, qspan, stats);
        phase2.fetch_from(&ranked, ranked.len(), &mut fetch);
        let matches = fetch.matches;
        span.close(
            phase2.stats,
            [("matches", matches.len()), ("candidates", candidates.len())],
        );
        PointResult {
            matches,
            candidates,
            truncated: phase2.truncated,
            stats: phase2.stats,
        }
    }
}

/// A point query's phase-2 request: the local index of an exact copy, in
/// a fixed 24-byte reply.
struct PointFetch<'a> {
    net: &'a HypermNetwork,
    q: &'a [f64],
    matches: Vec<(usize, usize)>,
}

impl Fetch for PointFetch<'_> {
    fn answer(&mut self, ps: &PeerScore, ev: Option<&mut Fields>) -> u64 {
        let hit = self.net.peer(ps.peer).local_point(self.q);
        if let Some(ev) = ev {
            ev.push(("matched", hit.is_some().into()));
        }
        self.matches.extend(hit.map(|idx| (ps.peer, idx)));
        24
    }

    fn unanswered(&self, ev: &mut Fields) {
        ev.push(("matched", false.into()));
    }
}

#[cfg(test)]
mod tests {
    use crate::config::HypermConfig;
    use crate::network::HypermNetwork;
    use hyperm_cluster::Dataset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(seed: u64) -> (HypermNetwork, Vec<Dataset>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let peers: Vec<Dataset> = (0..6)
            .map(|_| {
                let mut ds = Dataset::new(8);
                let mut row = [0.0f64; 8];
                for _ in 0..30 {
                    for x in row.iter_mut() {
                        *x = rng.gen();
                    }
                    ds.push_row(&row);
                }
                ds
            })
            .collect();
        let cfg = HypermConfig::new(8)
            .with_levels(3)
            .with_clusters_per_peer(4)
            .with_seed(seed);
        let (net, _) = HypermNetwork::build(peers.clone(), cfg).unwrap();
        (net, peers)
    }

    #[test]
    fn finds_existing_items() {
        let (net, peers) = build(1);
        for (p, i) in [(0usize, 0usize), (3, 10), (5, 29)] {
            let q = peers[p].row(i).to_vec();
            let res = net.point_query(1, &q);
            assert!(res.matches.contains(&(p, i)), "missed exact item ({p},{i})");
        }
    }

    #[test]
    fn absent_items_return_empty() {
        let (net, _) = build(2);
        let q = vec![0.123456789; 8];
        let res = net.point_query(0, &q);
        assert!(res.matches.is_empty());
    }

    #[test]
    fn duplicated_items_found_on_all_holders() {
        let mut rng = StdRng::seed_from_u64(3);
        let shared: Vec<f64> = (0..8).map(|_| rng.gen()).collect();
        let peers: Vec<Dataset> = (0..4)
            .map(|_| {
                let mut ds = Dataset::new(8);
                ds.push_row(&shared);
                for _ in 0..10 {
                    let row: Vec<f64> = (0..8).map(|_| rng.gen()).collect();
                    ds.push_row(&row);
                }
                ds
            })
            .collect();
        let cfg = HypermConfig::new(8)
            .with_levels(3)
            .with_clusters_per_peer(3)
            .with_seed(4);
        let (net, _) = HypermNetwork::build(peers, cfg).unwrap();
        let res = net.point_query(0, &shared);
        let holders: std::collections::HashSet<usize> =
            res.matches.iter().map(|&(p, _)| p).collect();
        assert_eq!(holders.len(), 4, "all four holders should be found");
    }

    #[test]
    fn candidates_superset_of_matches() {
        let (net, peers) = build(5);
        let q = peers[2].row(2).to_vec();
        let res = net.point_query(0, &q);
        for (p, _) in &res.matches {
            assert!(res.candidates.contains(p));
        }
    }
}
