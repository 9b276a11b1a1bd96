//! Query processing (Section 4 of the paper).
//!
//! All three query types share the two-phase structure of Figure 3:
//!
//! 1. **Peer selection** — translate the query into every published wavelet
//!    subspace, run an overlay lookup there, score peers with Eq. 1 and
//!    aggregate across levels;
//! 2. **Item retrieval** — contact the selected peers directly and let them
//!    answer exactly from their local collections (which is why precision
//!    of range queries is always 100%).
//!
//! Phase 1 is per kind (range floods at the Theorem-3.1 radius, k-nn probes
//! an expanding ring first, point queries route to one key). Phase 2 is one
//! walker, `Phase2`, shared by all three: it goes through the ranked peers
//! best-first, applies the contact window, fallback, deadline and timeout,
//! charges every probe, charges the answering peer in the load ledger and
//! emits the `fetch` / `fetch_timeout` / `fetch_fallback` events. A kind
//! only says what an answering peer returns (`Fetch`). `QuerySpan` is
//! the matching shared tracing stage: the `query` span, its cost metrics
//! and the host latency.
//!
//! * [`range`] — ε-range queries, no false dismissals (Theorem 4.1);
//! * [`knn`] — the Figure-5 heuristic with the Eq. 8 radius estimation and
//!   the `C` precision/recall knob;
//! * [`point`] — exact-match lookups;
//! * [`engine`] — batch execution over a query workload, fanning queries
//!   out over threads;
//! * [`cache`] — the popular-summary cache entry peers may consult before
//!   a phase-1 overlay lookup (hot-spot relief; see `hyperm-load`).

pub mod cache;
pub mod engine;
pub mod knn;
pub mod point;
pub mod range;

use crate::network::HypermNetwork;
use crate::score::PeerScore;
use hyperm_sim::OpStats;
use hyperm_telemetry::{names, Fields, OpKind, Recorder, SpanId};

/// Failure-tolerance budget for the phase-2 direct fetch.
///
/// The paper assumes selected peers answer; on a lossy or partitioned MANET
/// they may not. A `QueryBudget` makes the degradation explicit: unanswered
/// fetches cost `fetch_timeout` ticks instead of hanging, `fallback` slides
/// the contact window to the next-scored candidates so the intended number
/// of peers still answers, and `deadline` caps the total phase-2 hop spend —
/// when it runs out the query returns what it has with `truncated = true`.
///
/// The entry points without a budget keep the plain probe rule instead: a
/// peer is unreachable only when it is dead (partitions are not checked), a
/// dead peer costs one unanswered request — not a failed route — and still
/// counts as contacted, and k-nn score shares include it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryBudget {
    /// Ticks (charged as hops) burnt waiting on an unanswered direct fetch
    /// before declaring the peer unreachable. Clamped to ≥ 1.
    pub fetch_timeout: u64,
    /// Slide the contact window past unreachable peers to the next-scored
    /// candidates, preserving the intended number of answering peers.
    pub fallback: bool,
    /// Optional phase-2 hop budget: checked before each contact; once spent
    /// the query stops fetching and flags its result `truncated`.
    pub deadline: Option<u64>,
}

impl Default for QueryBudget {
    fn default() -> Self {
        Self {
            fetch_timeout: 1,
            fallback: true,
            deadline: None,
        }
    }
}

impl QueryBudget {
    /// Builder-style timeout override.
    pub fn with_fetch_timeout(mut self, ticks: u64) -> Self {
        self.fetch_timeout = ticks;
        self
    }

    /// Builder-style deadline override.
    pub fn with_deadline(mut self, hops: u64) -> Self {
        self.deadline = Some(hops);
        self
    }

    /// Builder-style fallback toggle.
    pub fn with_fallback(mut self, on: bool) -> Self {
        self.fallback = on;
        self
    }

    /// Effective per-probe tick charge (the configured timeout, ≥ 1).
    fn timeout_ticks(&self) -> u64 {
        self.fetch_timeout.max(1)
    }
}

/// Size of a direct-fetch request for query vector `q`.
fn request_bytes(q: &[f64]) -> u64 {
    8 * (q.len() as u64 + 1) + 16
}

/// Size of a direct-fetch response carrying `items` vectors like `q`.
fn response_bytes(q: &[f64], items: usize) -> u64 {
    8 * q.len() as u64 * items as u64 + 16
}

/// A query's `query` span, plus the host clock behind its latency metric.
/// Everything here is a no-op when tracing is off.
pub(crate) struct QuerySpan<'a> {
    tel: &'a Recorder,
    kind: OpKind,
    /// The span (`SpanId::NONE` untraced): parent of the level lookups and
    /// the phase-2 events.
    pub(crate) id: SpanId,
    started: Option<std::time::Instant>,
}

impl<'a> QuerySpan<'a> {
    /// Open the span under the recorder's ambient scope — none standalone,
    /// the serve span when a node runtime is dispatching the query.
    pub(crate) fn open(tel: &'a Recorder, kind: OpKind, fields: impl FnOnce() -> Fields) -> Self {
        let mut span = Self {
            tel,
            kind,
            id: SpanId::NONE,
            started: None,
        };
        if tel.is_enabled() {
            // hyperm-lint: allow(det-wall-clock) — host-latency metric for the trace only; never feeds simulated results or routing decisions
            span.started = Some(std::time::Instant::now());
            span.id = tel.span(tel.scope(), names::QUERY, fields());
        }
        span
    }

    /// Close the span with the query's total cost and two result counts,
    /// and record the cost and host latency under the query's op kind.
    pub(crate) fn close(self, stats: OpStats, counts: [(&'static str, usize); 2]) {
        let Some(started) = self.started else {
            return;
        };
        let cost = [
            ("hops", stats.hops),
            ("messages", stats.messages),
            ("bytes", stats.bytes),
        ];
        let fields = cost
            .into_iter()
            .chain(counts.map(|(name, n)| (name, n as u64)))
            .map(|(name, v)| (name, v.into()))
            .collect();
        self.tel.end(self.id, names::QUERY, fields);
        self.tel.record_op(self.kind, None, stats);
        self.tel
            .record_latency_s(self.kind, None, started.elapsed().as_secs_f64());
    }
}

/// What one query kind asks an answering peer for.
pub(crate) trait Fetch {
    /// Ask the live peer `ps.peer` for its local answer and keep it;
    /// returns the response size in bytes. When tracing, `ev` holds the
    /// `fetch` event's `peer` and `alive` fields and the kind appends its
    /// own.
    fn answer(&mut self, ps: &PeerScore, ev: Option<&mut Fields>) -> u64;

    /// Append the kind's `fetch` event fields for a dead peer probed
    /// without a budget.
    fn unanswered(&self, ev: &mut Fields);
}

/// Phase 2 of one query: the walk over the ranked peers and its running
/// cost.
pub(crate) struct Phase2<'a> {
    net: &'a HypermNetwork,
    from: usize,
    budget: Option<QueryBudget>,
    span: SpanId,
    request: u64,
    /// Phase-2 hops spent so far, checked against the budget deadline.
    hops: u64,
    /// Query cost so far: phase 1 plus every phase-2 probe.
    pub(crate) stats: OpStats,
    /// Whether the budget deadline stopped a walk early.
    pub(crate) truncated: bool,
}

impl<'a> Phase2<'a> {
    /// Start phase 2 of a query for `q` from `from`, whose phase 1 cost
    /// `stats`; events go under `span`.
    pub(crate) fn new(
        net: &'a HypermNetwork,
        from: usize,
        q: &[f64],
        budget: Option<QueryBudget>,
        span: SpanId,
        stats: OpStats,
    ) -> Self {
        Self {
            net,
            from,
            budget,
            span,
            request: request_bytes(q),
            hops: 0,
            stats,
            truncated: false,
        }
    }

    /// Walk `ranked` best-first until `target` peers were contacted, and
    /// return how many were. `contact(self, peer, alive)` does the contact.
    ///
    /// With a budget, a peer is reachable when it is alive and not cut off
    /// from the querier; an unreachable one costs a timeout and is skipped,
    /// the window slides past the first `target` ranks only with fallback,
    /// and the walk stops, truncated, once the deadline is spent. Without
    /// one, the first `target` peers are contacted whether alive or not.
    pub(crate) fn walk(
        &mut self,
        ranked: &[PeerScore],
        target: usize,
        mut contact: impl FnMut(&mut Self, &PeerScore, bool),
    ) -> usize {
        let mut contacted = 0;
        for (rank, ps) in ranked.iter().enumerate() {
            if contacted == target {
                break;
            }
            let alive = self.net.is_alive(ps.peer);
            if let Some(b) = self.budget {
                if !b.fallback && rank >= target {
                    break;
                }
                if b.deadline.is_some_and(|d| self.hops >= d) {
                    self.truncated = true;
                    break;
                }
                if !(alive && self.net.peers_connected(self.from, ps.peer)) {
                    self.time_out(ps.peer, b.timeout_ticks());
                    continue;
                }
                if rank >= target {
                    self.fall_back(ps.peer, rank);
                }
            }
            contact(self, ps, alive);
            contacted += 1;
        }
        contacted
    }

    /// [`Phase2::walk`] fetching `kind`'s answer from every contacted peer.
    pub(crate) fn fetch_from(
        &mut self,
        ranked: &[PeerScore],
        target: usize,
        kind: &mut impl Fetch,
    ) -> usize {
        self.walk(ranked, target, |p2, ps, alive| p2.fetch(ps, alive, kind))
    }

    /// Fetch from `ps.peer`, or charge the unanswered request when it is
    /// dead (which only a walk without a budget lets through).
    fn fetch(&mut self, ps: &PeerScore, alive: bool, kind: &mut impl Fetch) {
        let tel = self.net.recorder();
        let traced = tel.is_enabled();
        let mut ev: Fields = Vec::new();
        if traced {
            ev.reserve(5);
            ev.push(("peer", ps.peer.into()));
            ev.push(("alive", alive.into()));
        }
        if alive {
            let response = kind.answer(ps, traced.then_some(&mut ev));
            self.stats += OpStats {
                hops: 2,
                messages: 2,
                bytes: self.request + response,
                ..OpStats::zero()
            };
            // The answering peer (and only it) is charged for the fetch;
            // unanswered probes charge no one.
            if let Some(ledger) = self.net.load_ledger() {
                ledger.charge_fetch_answered(ps.peer, response);
            }
            self.hops += 2;
        } else {
            // The request went out and nothing came back; without a budget
            // that is one hop, not a failed route.
            self.stats += OpStats {
                hops: 1,
                messages: 1,
                bytes: self.request,
                ..OpStats::zero()
            };
            if traced {
                kind.unanswered(&mut ev);
            }
        }
        if traced {
            tel.event(self.span, names::FETCH, ev);
        }
    }

    /// Charge a budgeted probe `peer` never answered: the request went
    /// out and `ticks` ticks were burnt waiting.
    fn time_out(&mut self, peer: usize, ticks: u64) {
        self.hops += ticks;
        self.stats += OpStats {
            hops: ticks,
            messages: 1,
            bytes: self.request,
            failed_routes: 1,
            ..OpStats::zero()
        };
        let tel = self.net.recorder();
        if tel.is_enabled() {
            tel.event(
                self.span,
                names::FETCH_TIMEOUT,
                vec![
                    ("peer", peer.into()),
                    ("ticks", ticks.into()),
                    ("bytes", self.request.into()),
                ],
            );
        }
        if let Some(m) = tel.metrics() {
            m.add(names::FETCH_TIMEOUT, 1);
        }
    }

    /// Note that the window slid past its first ranks to `peer`.
    fn fall_back(&self, peer: usize, rank: usize) {
        let tel = self.net.recorder();
        if tel.is_enabled() {
            tel.event(
                self.span,
                names::FETCH_FALLBACK,
                vec![("peer", peer.into()), ("rank", rank.into())],
            );
        }
        if let Some(m) = tel.metrics() {
            m.add(names::FETCH_FALLBACK, 1);
        }
    }
}
