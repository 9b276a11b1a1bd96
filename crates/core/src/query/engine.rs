//! Batch query engine.
//!
//! The queries of a workload are independent, so the engine fans them out
//! over a bounded worker pool. Inside a worker each query runs its levels
//! serially — parallelism across queries saturates the cores already, and
//! nesting level threads under query threads would only add contention.
//!
//! Results are written into per-query slots, so every batch method returns
//! results in input order and each result is bit-identical to the
//! corresponding single-shot call (asserted by `tests/parallel_query.rs`).

// hyperm-lint: allow-file(panic-index) — slots are pre-sized to the batch length, and slots and queries are only indexed by i in 0..queries.len()
use crate::network::HypermNetwork;
use crate::query::knn::{KnnOptions, KnnResult};
use crate::query::point::PointResult;
use crate::query::range::RangeResult;

/// Batch executor over a borrowed [`HypermNetwork`].
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine<'a> {
    net: &'a HypermNetwork,
    threads: usize,
}

impl<'a> QueryEngine<'a> {
    /// An engine sized to the host's available parallelism.
    pub fn new(net: &'a HypermNetwork) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self { net, threads }
    }

    /// Override the worker-pool size (1 = fully serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        self.threads = threads;
        self
    }

    /// The network this engine queries.
    pub fn network(&self) -> &'a HypermNetwork {
        self.net
    }

    /// Run `f` on every query, striding the queries over the worker pool,
    /// and collect results in input order.
    fn map_queries<T, F>(&self, queries: &[Vec<f64>], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&[f64]) -> T + Sync,
    {
        let n = queries.len();
        let workers = self.threads.min(n.max(1));
        if workers <= 1 {
            return queries.iter().map(|q| f(q)).collect();
        }
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let f = &f;
        crossbeam::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move |_| {
                        (w..n)
                            .step_by(workers)
                            .map(|i| (i, f(&queries[i])))
                            .collect::<Vec<(usize, T)>>()
                    })
                })
                .collect();
            for h in handles {
                // hyperm-lint: allow(panic-unwrap) — re-raising a worker panic on the coordinator thread is the intended propagation
                for (i, v) in h.join().expect("query worker panicked") {
                    slots[i] = Some(v);
                }
            }
        })
        // hyperm-lint: allow(panic-unwrap) — crossbeam scope only errs when a child panicked; propagating is intended
        .expect("crossbeam scope");
        slots
            .into_iter()
            // hyperm-lint: allow(panic-unwrap) — the join loop above filled every slot or panicked
            .map(|s| s.expect("every query answered"))
            .collect()
    }

    /// Range-query every vector in `queries` (shared `eps`/budget),
    /// returning results in input order.
    pub fn range_batch(
        &self,
        from_peer: usize,
        queries: &[Vec<f64>],
        eps: f64,
        peer_budget: Option<usize>,
    ) -> Vec<RangeResult> {
        assert!(eps >= 0.0, "negative radius {eps}");
        self.map_queries(queries, |q| {
            self.net
                .range_query_with(from_peer, q, eps, false, None, |_| peer_budget)
        })
    }

    /// k-nn-query every vector in `queries`, results in input order.
    pub fn knn_batch(
        &self,
        from_peer: usize,
        queries: &[Vec<f64>],
        k: usize,
        opts: KnnOptions,
    ) -> Vec<KnnResult> {
        assert!(k > 0, "k must be positive");
        self.map_queries(queries, |q| {
            self.net.knn_query_with(from_peer, q, k, opts, false, None)
        })
    }

    /// Point-query every vector in `queries`, results in input order.
    pub fn point_batch(&self, from_peer: usize, queries: &[Vec<f64>]) -> Vec<PointResult> {
        self.map_queries(queries, |q| {
            self.net.point_query_with(from_peer, q, false, None)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HypermConfig;
    use hyperm_cluster::Dataset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(seed: u64) -> (HypermNetwork, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let peers: Vec<Dataset> = (0..6)
            .map(|_| {
                let centre: f64 = rng.gen();
                let mut ds = Dataset::new(16);
                let mut row = [0.0f64; 16];
                for _ in 0..25 {
                    for x in row.iter_mut() {
                        *x = (centre + rng.gen::<f64>() * 0.4).clamp(0.0, 1.0);
                    }
                    ds.push_row(&row);
                }
                ds
            })
            .collect();
        let queries: Vec<Vec<f64>> = (0..10)
            .map(|i| peers[i % peers.len()].row(i).to_vec())
            .collect();
        let cfg = HypermConfig::new(16)
            .with_levels(3)
            .with_clusters_per_peer(4)
            .with_seed(seed);
        (HypermNetwork::build(peers, cfg).unwrap().0, queries)
    }

    #[test]
    fn range_batch_matches_single_shot() {
        let (net, queries) = build(1);
        let engine = QueryEngine::new(&net).with_threads(4);
        let batch = engine.range_batch(0, &queries, 0.3, None);
        assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(&batch) {
            let single = net.range_query(0, q, 0.3, None);
            assert_eq!(single.items, b.items);
            assert_eq!(single.stats, b.stats);
            assert_eq!(single.peers_contacted, b.peers_contacted);
        }
    }

    #[test]
    fn knn_batch_matches_single_shot() {
        let (net, queries) = build(2);
        let engine = QueryEngine::new(&net).with_threads(3);
        let batch = engine.knn_batch(0, &queries, 5, KnnOptions::default());
        for (q, b) in queries.iter().zip(&batch) {
            let single = net.knn_query(0, q, 5, KnnOptions::default());
            assert_eq!(single.topk, b.topk);
            assert_eq!(single.stats, b.stats);
            assert_eq!(single.epsilons, b.epsilons);
        }
    }

    #[test]
    fn point_batch_matches_single_shot() {
        let (net, queries) = build(3);
        let engine = QueryEngine::new(&net).with_threads(2);
        let batch = engine.point_batch(1, &queries);
        for (q, b) in queries.iter().zip(&batch) {
            let single = net.point_query(1, q);
            assert_eq!(single.matches, b.matches);
            assert_eq!(single.stats, b.stats);
        }
    }

    #[test]
    fn serial_engine_matches_threaded_engine() {
        let (net, queries) = build(4);
        let serial = QueryEngine::new(&net).with_threads(1);
        let threaded = QueryEngine::new(&net).with_threads(5);
        let a = serial.range_batch(2, &queries, 0.25, Some(3));
        let b = threaded.range_batch(2, &queries, 0.25, Some(3));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.items, y.items);
            assert_eq!(x.stats, y.stats);
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let (net, _) = build(5);
        let engine = QueryEngine::new(&net);
        assert!(engine.range_batch(0, &[], 0.1, None).is_empty());
        assert!(engine.point_batch(0, &[]).is_empty());
    }
}
