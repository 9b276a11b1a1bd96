//! Golden pin of the phase-2 fetch contract for every query kind.
//!
//! The grid is {range (top-4 window), range (every candidate), k-nn,
//! point} × {no budget, `QueryBudget::default()`, no fallback, tight
//! deadline} × {faults off, the two top-ranked peers crashed without
//! repair, a partition that cuts the querier off from the peer holding
//! the query point}.
//! Each cell renders its answer, full `OpStats`, contact count, truncation
//! flag, per-peer load-ledger charges, fetch counters and the complete
//! telemetry event stream to text, and the FNV-1a digest of that text must
//! match the recorded value. Any change to what phase 2 returns, charges
//! or traces moves a digest; the failure message prints the cell's text
//! and the whole digest table.

use hyperm::telemetry::{names, RingHandle};
use hyperm::{Dataset, HypermConfig, HypermNetwork, KnnOptions, LoadLedger, QueryBudget, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;

const PEERS: usize = 12;
const DIM: usize = 16;
const LEVELS: usize = 4;
const FROM: usize = 0;
const EPS: f64 = 0.3;
const K: usize = 8;
/// The peer whose first row is the query point: a candidate of every kind.
const HOLDER: usize = 6;

fn peers() -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(13);
    (0..PEERS)
        .map(|_| {
            let centre: f64 = rng.gen::<f64>() * 0.5;
            let mut ds = Dataset::new(DIM);
            let mut row = [0.0f64; DIM];
            for _ in 0..30 {
                for x in row.iter_mut() {
                    *x = (centre + rng.gen::<f64>() * 0.5).clamp(0.0, 1.0);
                }
                ds.push_row(&row);
            }
            ds
        })
        .collect()
}

fn query_point() -> Vec<f64> {
    peers()[HOLDER].row(0).to_vec()
}

/// A traced, ledger-charged network; serial levels keep the event order
/// deterministic.
fn network() -> (HypermNetwork, RingHandle, Arc<LoadLedger>) {
    let cfg = HypermConfig::new(DIM)
        .with_levels(LEVELS)
        .with_clusters_per_peer(5)
        .with_seed(13)
        .with_parallel_query(false);
    let (rec, ring) = Recorder::ring(1 << 16);
    let (mut net, _) = HypermNetwork::build_traced(peers(), cfg, rec).unwrap();
    let ledger = Arc::new(LoadLedger::new(PEERS, LEVELS));
    net.set_load_ledger(Some(ledger.clone()));
    (net, ring, ledger)
}

/// The clean network's range ranking, querier excluded.
fn top_candidates() -> Vec<usize> {
    let (net, _, _) = network();
    net.range_query(FROM, &query_point(), EPS, None)
        .ranked
        .iter()
        .map(|p| p.peer)
        .filter(|&p| p != FROM)
        .collect()
}

fn faulted(fault: &str) -> (HypermNetwork, RingHandle, Arc<LoadLedger>) {
    let top = top_candidates();
    let (mut net, ring, ledger) = network();
    match fault {
        "clean" => {}
        "crashed" => {
            net.crash_peer(top[0], false);
            net.crash_peer(top[1], false);
        }
        "partitioned" => {
            let mut map = vec![0u32; PEERS];
            map[HOLDER] = 1;
            net.set_partition(Some(map));
        }
        other => panic!("unknown fault {other}"),
    }
    (net, ring, ledger)
}

fn budgets() -> [(&'static str, Option<QueryBudget>); 4] {
    [
        ("none", None),
        ("default", Some(QueryBudget::default())),
        (
            "no_fallback",
            Some(QueryBudget::default().with_fallback(false)),
        ),
        ("deadline", Some(QueryBudget::default().with_deadline(3))),
    ]
}

/// Run one query kind under `budget` and render its answer and stats.
fn run(net: &HypermNetwork, kind: &str, budget: Option<QueryBudget>) -> String {
    let q = query_point();
    match kind {
        "range_top4" | "range_all" => {
            let p = (kind == "range_top4").then_some(4);
            let r = match budget {
                None => net.range_query(FROM, &q, EPS, p),
                Some(b) => net.range_query_budgeted(FROM, &q, EPS, p, b),
            };
            format!(
                "items={:?}\nranked={:?}\ncontacted={} truncated={}\nstats={:?}",
                r.items, r.ranked, r.peers_contacted, r.truncated, r.stats
            )
        }
        "knn" => {
            let opts = KnnOptions::default();
            let r = match budget {
                None => net.knn_query(FROM, &q, K, opts),
                Some(b) => net.knn_query_budgeted(FROM, &q, K, opts, b),
            };
            format!(
                "topk={:?}\nretrieved={:?}\nepsilons={:?}\nranked={:?}\ncontacted={} truncated={}\nstats={:?}",
                r.topk, r.retrieved, r.epsilons, r.ranked, r.peers_contacted, r.truncated, r.stats
            )
        }
        "point" => {
            let r = match budget {
                None => net.point_query(FROM, &q),
                Some(b) => net.point_query_budgeted(FROM, &q, b),
            };
            format!(
                "matches={:?}\ncandidates={:?}\ntruncated={}\nstats={:?}",
                r.matches, r.candidates, r.truncated, r.stats
            )
        }
        other => panic!("unknown kind {other}"),
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every cell of the grid as `(name, rendered text)`, in a fixed order.
fn cells() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for fault in ["clean", "crashed", "partitioned"] {
        let (net, ring, ledger) = faulted(fault);
        for kind in ["range_top4", "range_all", "knn", "point"] {
            for (bname, budget) in budgets() {
                ring.drain();
                ledger.reset();
                let m = net.recorder().metrics().expect("tracing on");
                let counters = || {
                    (
                        m.counter(names::FETCH_TIMEOUT),
                        m.counter(names::FETCH_FALLBACK),
                    )
                };
                let before = counters();
                let mut text = run(&net, kind, budget);
                let after = counters();
                let _ = write!(
                    text,
                    "\nledger={:?}\ncounters: timeout={} fallback={}",
                    ledger.per_peer(),
                    after.0 - before.0,
                    after.1 - before.1
                );
                assert_eq!(ring.dropped(), 0, "ring must hold the whole run");
                for ev in ring.drain() {
                    text.push('\n');
                    text.push_str(&ev.to_json_line());
                }
                out.push((format!("{fault}/{kind}/{bname}"), text));
            }
        }
    }
    out
}

/// Each cell's digest, recorded when the contract was pinned.
const EXPECTED: &[(&str, u64)] = &[
    ("clean/range_top4/none", 0x399416a2b3aabbc2),
    ("clean/range_top4/default", 0x56abb367f81513bf),
    ("clean/range_top4/no_fallback", 0x9752f2888348c58f),
    ("clean/range_top4/deadline", 0xae8a9d69f052508e),
    ("clean/range_all/none", 0xfeeae148b9795082),
    ("clean/range_all/default", 0x22be0c22d2dda1db),
    ("clean/range_all/no_fallback", 0x5ba6ee376ac0fe19),
    ("clean/range_all/deadline", 0x75e436365759ff12),
    ("clean/knn/none", 0x238b6c2cb6d7dd8a),
    ("clean/knn/default", 0xbf209637bf7f3a19),
    ("clean/knn/no_fallback", 0x23b60a0d5a2ace42),
    ("clean/knn/deadline", 0x6cc20570990a1c68),
    ("clean/point/none", 0xcfcf2f6684064d1b),
    ("clean/point/default", 0x7785427f4a1a3e0d),
    ("clean/point/no_fallback", 0xa92f3c545f76bbc9),
    ("clean/point/deadline", 0x61187c10ae58f4f7),
    ("crashed/range_top4/none", 0x5003d585fe840e17),
    ("crashed/range_top4/default", 0x4c6336b4afdfc213),
    ("crashed/range_top4/no_fallback", 0xa4cf417e87a82f09),
    ("crashed/range_top4/deadline", 0x49cc54c6aac03e9f),
    ("crashed/range_all/none", 0x6e20625664c495c7),
    ("crashed/range_all/default", 0x98b8b63a1f5849aa),
    ("crashed/range_all/no_fallback", 0xab3e9fe65ee8024e),
    ("crashed/range_all/deadline", 0x92705857c0d59c13),
    ("crashed/knn/none", 0xc40c869a7379a566),
    ("crashed/knn/default", 0x5f9be0dea73ccd6a),
    ("crashed/knn/no_fallback", 0x76cfd3051c9d6889),
    ("crashed/knn/deadline", 0x2b45469a7a5cf655),
    ("crashed/point/none", 0x10fd327a75b23550),
    ("crashed/point/default", 0x98c38894ed8e9707),
    ("crashed/point/no_fallback", 0x35dad685a8fea605),
    ("crashed/point/deadline", 0xd8170893cd174d31),
    ("partitioned/range_top4/none", 0x7205cc90dc5be4af),
    ("partitioned/range_top4/default", 0x228f7615cf493d4b),
    ("partitioned/range_top4/no_fallback", 0x8053d1d02e7db752),
    ("partitioned/range_top4/deadline", 0x0e6c7836445a2611),
    ("partitioned/range_all/none", 0xb86cd1fc3f473abb),
    ("partitioned/range_all/default", 0xd4daf60d03ef651f),
    ("partitioned/range_all/no_fallback", 0x13e059fecebf054b),
    ("partitioned/range_all/deadline", 0x46009127089e116d),
    ("partitioned/knn/none", 0x2b2975d36a0ecd50),
    ("partitioned/knn/default", 0x306188cb3690b026),
    ("partitioned/knn/no_fallback", 0x6f2cfac666e3afc9),
    ("partitioned/knn/deadline", 0x199c652c5b181bd4),
    ("partitioned/point/none", 0xbdf1fa1f16713cb8),
    ("partitioned/point/default", 0x8e86f877696efb31),
    ("partitioned/point/no_fallback", 0x4f5120a1eb9d67e7),
    ("partitioned/point/deadline", 0xc1b24fc754a8d22f),
];

#[test]
fn phase2_contract_is_pinned() {
    let cells = cells();
    let got: Vec<(String, u64)> = cells.iter().map(|(n, t)| (n.clone(), fnv1a(t))).collect();
    let table: String = got
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        EXPECTED.len(),
        "grid size changed; digests:\n{table}"
    );
    for ((name, text), (want_name, want)) in cells.iter().zip(EXPECTED) {
        assert_eq!(name, want_name, "cell order changed; digests:\n{table}");
        assert_eq!(
            fnv1a(text),
            *want,
            "cell {name} moved; its text:\n{text}\n\ndigests:\n{table}"
        );
    }
}

/// The grid exercises what it claims to: crashed and severed peers reach
/// phase 2, budgets time them out, and the deadline truncates.
#[test]
fn grid_covers_the_fault_paths() {
    let cells = cells();
    let text = |name: &str| &cells.iter().find(|(n, _)| n == name).unwrap().1;
    for kind in ["range_top4", "knn", "point"] {
        for fault in ["crashed", "partitioned"] {
            assert!(
                text(&format!("{fault}/{kind}/default")).contains("\"fetch_timeout\""),
                "{fault}/{kind}: no probe timed out"
            );
        }
        assert!(
            text(&format!("crashed/{kind}/none")).contains("\"alive\": false"),
            "crashed/{kind}: the unbudgeted walk never met a dead peer"
        );
    }
    assert!(text("clean/range_all/deadline").contains("truncated=true"));
    assert!(text("crashed/range_top4/default").contains("\"fetch_fallback\""));
}
