//! The benchmark's own checks, on small inputs: counts repeat per seed,
//! the seed drives the query stream, span self times add up, and the
//! metric and workload names match `BENCHMARK.json`.

use hyperm_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use hyperm_perfbench::query::{draw_queries, QuickNet};
use hyperm_perfbench::trace::{self_times, ROOT};
use hyperm_perfbench::{finish_trace, run, Opts, Outcome, Scale, Workload};
use hyperm_telemetry::JsonValue;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn opts(workload: Workload, seed: u64, trace: bool) -> Opts {
    Opts {
        workload,
        seed,
        seconds: 0.4,
        trace,
        scale: Scale::Test,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}-{seed}-{trace}", workload.name())),
    }
}

fn run_ok(o: &Opts) -> Outcome {
    let mut out = run(o).expect("run");
    if o.trace {
        finish_trace(o, &mut out).expect("trace output");
    }
    assert!(out.correct, "{}: {:?}", o.workload.name(), out.notes);
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    out
}

/// Metrics that are counts of work, not times: they must repeat exactly.
const COUNTS: &[&str] = &[
    "recall",
    "success_ratio",
    "msgs_per_query",
    "hops_per_item",
    "can.flood_matches",
    "can.flood_msgs",
    "can.flood_useful_ratio",
    "core.score_calls",
    "core.fetch_peers",
    "core.fetch_useful_ratio",
    "wire_bytes_per_op",
    "can.publish_msgs_per_join",
    "can.join_msgs",
    "core.depart_msgs",
];

fn counts(out: &Outcome) -> BTreeMap<&'static str, f64> {
    COUNTS
        .iter()
        .filter_map(|&c| out.values.get(c).map(|v| (c, v)))
        .collect()
}

#[test]
fn same_seed_repeats_every_count() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let a = run_ok(&opts(w, 5, trace));
            let b = run_ok(&opts(w, 5, trace));
            let (ca, cb) = (counts(&a), counts(&b));
            assert!(ca.len() >= 4, "{}: too few counts {ca:?}", w.name());
            if trace && w != Workload::RangeTcp {
                assert!(ca.contains_key("can.flood_matches"), "{}", w.name());
            }
            assert_eq!(ca, cb, "{}", w.name());
        }
    }
}

#[test]
fn a_different_seed_changes_the_query_stream() {
    let shape = QuickNet::at(Scale::Test);
    let collections = shape.collections();
    let a = draw_queries(&collections, 1, shape.queries);
    assert_eq!(a, draw_queries(&collections, 1, shape.queries));
    assert_ne!(a, draw_queries(&collections, 2, shape.queries));
}

#[test]
fn layer_self_times_are_non_negative_and_fit_in_the_op() {
    for w in Workload::ALL {
        let out = run_ok(&opts(w, 9, true));
        let spans = &out.spans;
        assert!(!spans.is_empty(), "{}", w.name());
        let by_id: BTreeMap<u32, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        // Children lie inside their parent and never cover more than it,
        // so no self time is clamped at zero.
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != ROOT) {
            let p = &spans[by_id[&s.parent]];
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{s:?} outside {p:?}"
            );
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
        for s in spans {
            assert!(
                child_ns.get(&s.id).copied().unwrap_or(0) <= s.dur_ns(),
                "{s:?}"
            );
        }
        // Per op, the self times sum to no more than the op's span.
        let selfs = self_times(spans);
        let mut per_op: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (s, own) in spans.iter().zip(selfs) {
            let e = per_op.entry(s.op).or_default();
            e.0 += own;
            if s.parent == ROOT {
                e.1 = s.dur_ns();
            }
        }
        for (op, (sum, total)) in per_op {
            assert!(sum <= total, "{}: op {op} self {sum} > {total}", w.name());
        }
    }
}

fn names(v: &JsonValue, key: &str) -> Vec<(String, String, String)> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn printed_names_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json");
    let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    let listed: Vec<String> = Workload::ALL
        .iter()
        .filter(|w| w.listed())
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, listed);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let want: Vec<(String, String, String)> = defs
            .iter()
            .map(|d| {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (d.name.into(), d.unit.into(), better.into())
            })
            .collect();
        assert_eq!(names(&json, key), want, "{key}");
    }

    // What a run prints as its last line carries exactly those names.
    for trace in [false, true] {
        let o = opts(Workload::RangeLocal, 3, trace);
        let out = run_ok(&o);
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let line = result_line(
            out.correct,
            out.attempted,
            out.failed,
            &out.values.rows(defs),
        );
        let v = JsonValue::parse(&line).expect("result line parses");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let printed: Vec<&str> = v
            .get("metrics")
            .and_then(JsonValue::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let listed: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(printed, listed);
        if !trace {
            for (name, value) in out.values.rows(END_TO_END) {
                assert!(value > 0.0, "end-to-end {} is {value}", name.name);
            }
        }
    }
}
