//! `range_tcp`: the `range_local` network and query stream served by a
//! head `NodeRuntime` over loopback TCP. One `Client` goes client → member
//! → head and alternates a range `Query` with a tiny `Route`, the smallest
//! frame, so per-frame cost separates from payload cost. The wire and the
//! runtime dominate here.
//!
//! The benchmark owns both serve loops. Each wraps its endpoint in a
//! [`Probe`] that notes when a serve call's first frame arrived, so a
//! node's serve time runs from frame arrival to the end of its
//! `serve_one`, without the idle wait before it.

use crate::metrics::summarize;
use crate::query::{
    check_queries, draw_queries, entry_peer, mean_messages, median_setup, recall, sorted, Expected,
    QuickNet,
};
use crate::trace::{Tracer, ROOT};
use crate::{Opts, Outcome};
use hyperm_baseline::FlatIndex;
use hyperm_can::codec::{decode_message, encode_message, kind};
use hyperm_can::Message;
use hyperm_cluster::Dataset;
use hyperm_core::HypermNetwork;
use hyperm_telemetry::{names, Recorder, TraceCtx};
use hyperm_transport::{
    frame_len, Client, ClientConfig, Envelope, NodeRuntime, PeerId, Role, ServeOutcome,
    TcpEndpoint, Transport, TransportError,
};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const HEAD: PeerId = 1;
const MEMBER: PeerId = 2;
const CLIENT: PeerId = 3;
/// Sends the head its `Shutdown` at teardown.
const STOPPER: PeerId = 4;

/// Cluster set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// How long a serve loop waits for a frame. Longer than any pause in the
/// closed loop, so the member's idle-tick heartbeat stays out of the
/// measured requests.
const SERVE_TICK: Duration = Duration::from_secs(2);

/// Per-attempt request timeout of the client and of the member's forward.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Items of the member's own collection: a tight group at a corner of the
/// unit cube (alternating 1/0 coordinates), at distance > 1 from every row
/// the query network stores, so no query radius of 0.25 reaches them and
/// the cluster answers exactly what `range_local` answers.
fn member_collection(dim: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            (0..dim)
                .map(|d| {
                    let jitter = 0.002 * ((i + d) % 5) as f64;
                    if d % 2 == 0 {
                        1.0 - jitter
                    } else {
                        jitter
                    }
                })
                .collect()
        })
        .collect();
    Dataset::from_rows(&rows)
}

/// A frame crossing a probed endpoint.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    at: Instant,
    incoming: bool,
    peer: PeerId,
    kind: u8,
}

/// A transport that notes when frames arrive and leave, so a serve loop
/// can tell when a request arrived and, on a member, when its forward to
/// the head left and the head's reply came back.
struct Probe<T> {
    inner: T,
    crossings: Mutex<Vec<Crossing>>,
}

impl<T> Probe<T> {
    fn new(inner: T) -> Self {
        Self {
            inner,
            crossings: Mutex::new(Vec::new()),
        }
    }

    fn note(&self, incoming: bool, peer: PeerId, kind: u8) {
        let at = Instant::now();
        self.crossings
            .lock()
            .expect("probe lock poisoned")
            .push(Crossing {
                at,
                incoming,
                peer,
                kind,
            });
    }

    fn take(&self) -> Vec<Crossing> {
        std::mem::take(&mut *self.crossings.lock().expect("probe lock poisoned"))
    }
}

impl<T: Transport> Transport for Probe<T> {
    fn local(&self) -> PeerId {
        self.inner.local()
    }

    fn send_tagged(&self, to: PeerId, req_id: u64, msg: &Message) -> Result<(), TransportError> {
        self.inner.send_tagged(to, req_id, msg)?;
        self.note(false, to, msg.kind());
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, TransportError> {
        let env = self.inner.recv_timeout(timeout)?;
        self.note(true, env.from, env.msg.kind());
        Ok(env)
    }

    fn peers(&self) -> Vec<PeerId> {
        self.inner.peers()
    }

    fn close(&self) {
        self.inner.close();
    }
}

/// One served request: arrival of its frame to the end of `serve_one`,
/// and on a member the forward to the head and the head's reply.
#[derive(Debug, Clone, Copy)]
struct Served {
    kind: u8,
    start: Instant,
    end: Instant,
    /// Forward sent, reply received.
    hop: Option<(Instant, Instant)>,
}

impl Served {
    /// Read one serve call's crossings: a `Query` or `Route` from `client`
    /// first, then (members) the forward to `upstream` and its reply.
    fn from_crossings(
        c: &[Crossing],
        client: PeerId,
        upstream: Option<PeerId>,
        end: Instant,
    ) -> Option<Served> {
        let first = c.first()?;
        if !(first.incoming
            && first.peer == client
            && (first.kind == kind::QUERY || first.kind == kind::ROUTE))
        {
            return None;
        }
        let hop = upstream.and_then(|head| {
            let sent = c.iter().position(|x| !x.incoming && x.peer == head)?;
            let back = c[sent..].iter().find(|x| x.incoming && x.peer == head)?;
            Some((c[sent].at, back.at))
        });
        Some(Served {
            kind: first.kind,
            start: first.at,
            end,
            hop,
        })
    }
}

type ServeLog = Arc<Mutex<Vec<Served>>>;

/// The benchmark's serve loop: log each `serve_one` that handled a
/// `Query` or `Route` frame from `client`.
fn serve_loop(
    mut rt: NodeRuntime<Probe<TcpEndpoint>>,
    client: PeerId,
    upstream: Option<PeerId>,
    log: ServeLog,
) -> Result<(), TransportError> {
    loop {
        let _ = rt.transport().take();
        let outcome = rt.serve_one(SERVE_TICK);
        let end = Instant::now();
        match outcome {
            Ok(ServeOutcome::Shutdown) | Err(TransportError::Closed) => return Ok(()),
            Ok(ServeOutcome::Handled) => {
                let crossings = rt.transport().take();
                if let Some(s) = Served::from_crossings(&crossings, client, upstream, end) {
                    log.lock().expect("serve log poisoned").push(s);
                }
            }
            Ok(ServeOutcome::Idle) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Head and member serving on loopback, a client on the member, and a
/// second client on the head for teardown.
struct Cluster {
    client: Option<Client<TcpEndpoint>>,
    client_rec: Recorder,
    stopper: Client<TcpEndpoint>,
    head: Option<JoinHandle<Result<(), TransportError>>>,
    member: Option<JoinHandle<Result<(), TransportError>>>,
    head_log: ServeLog,
    member_log: ServeLog,
}

fn io(what: &str) -> impl Fn(TransportError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Cluster {
    /// Bind the head around `net`, join a member over the wire, connect the
    /// client: everything `setup_s` times after the build.
    fn start(net: HypermNetwork, member_items: &Dataset) -> Result<Cluster, String> {
        let head_ep = TcpEndpoint::bind(HEAD, "127.0.0.1:0").map_err(io("bind head"))?;
        let head_addr = head_ep.local_addr();
        let head_rt = NodeRuntime::new(Probe::new(head_ep), Role::Head(Box::new(net)));
        let head_log = ServeLog::default();
        let log = head_log.clone();
        let head = std::thread::spawn(move || serve_loop(head_rt, MEMBER, None, log));
        let stopper_ep = TcpEndpoint::bind(STOPPER, "127.0.0.1:0").map_err(io("bind stopper"))?;
        stopper_ep
            .connect(HEAD, head_addr)
            .map_err(io("connect stopper"))?;
        let mut cluster = Cluster {
            client: None,
            client_rec: Recorder::disabled(),
            stopper: Client::new(stopper_ep, HEAD),
            head: Some(head),
            member: None,
            head_log,
            member_log: ServeLog::default(),
        };
        // From here on a failure still stops the head (`Drop`).
        let member_ep = TcpEndpoint::bind(MEMBER, "127.0.0.1:0").map_err(io("bind member"))?;
        member_ep
            .connect(HEAD, head_addr)
            .map_err(io("connect member"))?;
        let member_addr = member_ep.local_addr();
        let mut member_rt = NodeRuntime::new(
            Probe::new(member_ep),
            Role::Member {
                head: HEAD,
                peer: None,
            },
        );
        member_rt.forward_timeout = REQUEST_TIMEOUT;
        member_rt
            .join_network(member_items, REQUEST_TIMEOUT)
            .map_err(io("member join"))?;
        let client_ep = TcpEndpoint::bind(CLIENT, "127.0.0.1:0").map_err(io("bind client"))?;
        client_ep
            .connect(MEMBER, member_addr)
            .map_err(io("connect client"))?;
        let (client_rec, _ring) = Recorder::ring(256);
        cluster.client = Some(
            Client::new(client_ep, MEMBER)
                .with_config(ClientConfig {
                    timeout: REQUEST_TIMEOUT,
                    ..ClientConfig::default()
                })
                .with_recorder(client_rec.clone()),
        );
        cluster.client_rec = client_rec;
        // The member serves only once the client is connected, so a
        // started member always has a client that can stop it.
        let log = cluster.member_log.clone();
        cluster.member = Some(std::thread::spawn(move || {
            serve_loop(member_rt, CLIENT, Some(HEAD), log)
        }));
        Ok(cluster)
    }

    fn client(&self) -> &Client<TcpEndpoint> {
        self.client
            .as_ref()
            .expect("started clusters have a client")
    }

    fn counter(&self, name: &str) -> u64 {
        self.client_rec.metrics().map_or(0, |m| m.counter(name))
    }

    /// Shut both nodes down and join their serve loops.
    fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let mut first_err = None;
        if let Some(member) = self.member.take() {
            if let Err(e) = self.client().shutdown() {
                first_err.get_or_insert(format!("member shutdown: {e}"));
            }
            match member.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    first_err.get_or_insert(format!("member serve loop: {e}"));
                }
                Err(_) => {
                    first_err.get_or_insert("member serve loop panicked".into());
                }
            }
        }
        if let Some(head) = self.head.take() {
            if let Err(e) = self.stopper.shutdown() {
                first_err.get_or_insert(format!("head shutdown: {e}"));
            }
            match head.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    first_err.get_or_insert(format!("head serve loop: {e}"));
                }
                Err(_) => {
                    first_err.get_or_insert("head serve loop panicked".into());
                }
            }
        }
        if let Some(client) = &self.client {
            client.transport().close();
        }
        self.stopper.transport().close();
        first_err.map_or(Ok(()), Err)
    }

    /// Wait (up to 5 s) until both serve logs hold `n` requests — a serve
    /// loop logs just after it replied — then take what they hold.
    fn take_logs(&self, n: usize) -> (Vec<Served>, Vec<Served>) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let len = |log: &ServeLog| log.lock().expect("serve log poisoned").len();
        while (len(&self.member_log) < n || len(&self.head_log) < n) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let take = |log: &ServeLog| std::mem::take(&mut *log.lock().expect("serve log poisoned"));
        (take(&self.member_log), take(&self.head_log))
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The answers the cluster must give, worked out in process.
struct Script {
    expected: Vec<Expected>,
    /// Expected `QueryAck` per query (items sorted).
    acks: Vec<Message>,
    route_keys: Vec<Vec<f64>>,
    owners: Vec<u64>,
    /// Client-observed frame bytes (request + reply) per query and route.
    wire_bytes: Vec<(u64, u64)>,
}

fn query_msg(q: &[f64], eps: f64) -> Message {
    Message::Query {
        centre: q.to_vec(),
        eps,
        budget: u32::MAX,
        ctx: TraceCtx::NONE,
    }
}

fn query_ack(items: &[(usize, usize)], stats: (u64, u64, u64)) -> Message {
    Message::QueryAck {
        items: items.iter().map(|&(p, i)| (p as u64, i as u64)).collect(),
        hops: stats.0,
        messages: stats.1,
        bytes: stats.2,
    }
}

fn to_items(items: &[(u64, u64)]) -> Vec<(usize, usize)> {
    sorted(
        items
            .iter()
            .map(|&(p, i)| {
                (
                    usize::try_from(p).unwrap_or(usize::MAX),
                    usize::try_from(i).unwrap_or(usize::MAX),
                )
            })
            .collect(),
    )
}

fn frame(msg: &Message) -> Result<u64, String> {
    frame_len(msg).map_err(|e| format!("frame length: {e}"))
}

/// Run the workload.
pub(crate) fn run(opts: &Opts) -> Result<Outcome, String> {
    let shape = QuickNet::at(opts.scale);
    let collections = shape.collections();
    let member_items = member_collection(shape.dim);
    let queries = draw_queries(&collections, opts.seed, shape.queries);
    let mut out = Outcome {
        correct: true,
        query_pass: shape.queries,
        ..Outcome::default()
    };

    // The in-process answers: the cluster's network is the quick network
    // plus the member's collection, joined exactly as the head joins it.
    let flat = FlatIndex::from_peers(&collections);
    let (local, report) = shape.build(collections.clone())?;
    let (local_expected, recall_local) =
        check_queries(&local, &flat, &queries, shape.eps, &mut out);
    drop(local);
    let (mut reference, _) = shape.build(collections.clone())?;
    reference
        .join_peer(member_items.clone())
        .map_err(|e| format!("reference join: {e}"))?;
    let script = script(&reference, &queries, shape.eps, &local_expected, &mut out)?;
    drop(reference);

    let (cluster, setup_s, setups) = median_setup(SETUP_REPEATS, || {
        let t = Instant::now();
        let (net, _) = shape.build(collections.clone())?;
        let cluster = Cluster::start(net, &member_items)?;
        Ok((cluster, t.elapsed().as_secs_f64()))
    })
    .map_err(|e| format!("cluster set-up: {e}"))?;
    // `median_setup` drops all but the last cluster, which stops them.

    let n = queries.len();
    let mut query_ms = Vec::new();
    let mut route_ms = Vec::new();
    let mut recall_sum = 0.0;
    let mut graded = 0u64;
    let deadline = Instant::now() + opts.timed_budget();
    while Instant::now() < deadline {
        let i = query_ms.len() % n;
        let t = Instant::now();
        let reply = cluster.client().query(&queries[i], shape.eps, None);
        query_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match reply {
            Ok((items, stats)) => {
                let items = to_items(&items);
                recall_sum += recall(&items, &script.expected[i].items);
                graded += 1;
                if query_ack(&items, stats) != script.acks[i] {
                    out.failed += 1;
                    out.mismatch(format!("tcp query {i} differs from range_local"));
                }
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("query {i} failed: {e}"));
            }
        }
        let t = Instant::now();
        let reply = cluster.client().route(0, &script.route_keys[i]);
        route_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match reply {
            Ok(owner) if owner == script.owners[i] => {}
            Ok(owner) => {
                out.failed += 1;
                out.mismatch(format!(
                    "route {i} owner {owner}, expected {}",
                    script.owners[i]
                ));
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("route {i} failed: {e}"));
            }
        }
    }
    let timed_ops = query_ms.len();
    let query = summarize(&query_ms, n);
    let route = summarize(&route_ms, n);
    let all: Vec<f64> = query_ms
        .iter()
        .zip(&route_ms)
        .flat_map(|(q, r)| [*q, *r])
        .collect();
    let ops = summarize(&all, 2 * n);
    let wire_bytes = script.wire_bytes.iter().map(|(q, r)| q + r).sum::<u64>() as f64
        / (2 * script.wire_bytes.len()).max(1) as f64;
    out.notes.push(format!(
        "setup_s {setup_s:.6} s: median of {SETUP_REPEATS} set-ups (build + bind + member join) {setups:.4?}"
    ));
    out.notes.push(query.describe("query", query_ms.len()));
    out.notes.push(route.describe("route", route_ms.len()));
    out.notes.push(format!(
        "check pass: {n} queries, in-process recall {recall_local}, {:.2} msgs/query on the joined network; \
         {wire_bytes:.1} wire bytes/op; hops/item {:.4}",
        mean_messages(&script.expected),
        report.avg_hops_per_item()
    ));

    let v = &mut out.values;
    v.set("setup_s", setup_s);
    v.set("ops_per_s", ops.ops_per_s);
    v.set("query_p50_ms", query.p50);
    v.set("query_tail_ms", query.tail);
    v.set(
        "recall",
        if graded == 0 {
            0.0
        } else {
            recall_sum / graded as f64
        },
    );
    v.set("msgs_per_query", mean_messages(&script.expected));
    v.set("hops_per_item", report.avg_hops_per_item());
    v.set("rpc_p50_ms", route.p50);
    v.set("rpc_tail_ms", route.tail);
    v.set("wire_bytes_per_op", wire_bytes);

    if opts.trace {
        out.reference_ms.insert("query".into(), query.p50);
        out.reference_ms.insert("route".into(), route.p50);
        // Requests of the timed loop: a query and a route each.
        cluster.take_logs(2 * timed_ops);
        traced(opts, &cluster, &queries, shape.eps, &script, &mut out)?;
    }
    out.values
        .set("client.retries", cluster.counter(names::RETRY) as f64);
    out.values.set(
        "client.stale_replies",
        cluster.counter(names::STALE_REPLY) as f64,
    );
    out.values
        .set("client.gave_up", cluster.counter(names::GAVE_UP) as f64);
    cluster.stop()?;
    let success = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.values.set("success_ratio", success);
    Ok(out)
}

/// Expected answers, route owners and frame sizes, checking on the way
/// that the joined network answers every query exactly as `range_local`
/// does.
fn script(
    reference: &HypermNetwork,
    queries: &[Vec<f64>],
    eps: f64,
    local: &[Expected],
    out: &mut Outcome,
) -> Result<Script, String> {
    let from = entry_peer(reference);
    let can = reference
        .overlay(0)
        .as_can()
        .ok_or("level 0 is not a CAN")?;
    let mut s = Script {
        expected: Vec::new(),
        acks: Vec::new(),
        route_keys: Vec::new(),
        owners: Vec::new(),
        wire_bytes: Vec::new(),
    };
    for (i, q) in queries.iter().enumerate() {
        let res = reference.range_query(from, q, eps, None);
        let stats = (res.stats.hops, res.stats.messages, res.stats.bytes);
        let items = sorted(res.items);
        if items != local[i].items {
            out.mismatch(format!(
                "query {i}: the cluster's network answers differently"
            ));
        }
        let key = reference.query_key(&reference.decompose_query(q), 0);
        let owner = can
            .try_owner_of(&key)
            .ok_or_else(|| format!("no owner for route key {i}"))?
            .0 as u64;
        let route = Message::Route {
            level: 0,
            key: key.clone(),
        };
        let route_ack = Message::RouteAck { level: 0, owner };
        s.wire_bytes.push((
            frame(&query_msg(q, eps))? + frame(&query_ack(&items, stats))?,
            frame(&route)? + frame(&route_ack)?,
        ));
        s.acks.push(query_ack(&items, stats));
        s.expected.push(Expected {
            items,
            messages: res.stats.messages,
        });
        s.route_keys.push(key);
        s.owners.push(owner);
    }
    Ok(s)
}

/// Traced replay: each request with the codec work of its frames (request
/// and reply, encoded and decoded) and its round trip, under which the
/// member's and head's serve spans are attached from the serve logs.
fn traced(
    opts: &Opts,
    cluster: &Cluster,
    queries: &[Vec<f64>],
    eps: f64,
    script: &Script,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = queries.len();
    let mut tr = Tracer::new();
    let mut trips = Vec::new();
    let deadline = Instant::now() + opts.traced_budget();
    let mut op = 0u32;
    while Instant::now() < deadline {
        let i = (op as usize / 2) % n;
        let is_query = op.is_multiple_of(2);
        let root = tr.open(if is_query { "query" } else { "route" }, ROOT, op);
        let request = if is_query {
            query_msg(&queries[i], eps)
        } else {
            Message::Route {
                level: 0,
                key: script.route_keys[i].clone(),
            }
        };
        let bytes = tr.time("codec.encode", root, op, || encode_message(&request));
        let bytes = bytes.map_err(|e| format!("encode: {e}"))?;
        let decoded = tr.time("codec.decode", root, op, || decode_message(&bytes));
        if decoded.as_ref() != Ok(&request) {
            out.mismatch(format!("request {op} does not survive the codec"));
        }
        let start = Instant::now();
        let reply = if is_query {
            cluster
                .client()
                .query(&queries[i], eps, None)
                .map(|(items, stats)| query_ack(&to_items(&items), stats))
        } else {
            cluster
                .client()
                .route(0, &script.route_keys[i])
                .map(|owner| Message::RouteAck { level: 0, owner })
        };
        let end = Instant::now();
        let trip = tr.record("transport.wire_wait", root, op, start, end);
        trips.push((trip, op, start, end));
        out.attempted += 1;
        match reply {
            Ok(reply) => {
                let bytes = tr.time("codec.encode", root, op, || encode_message(&reply));
                let bytes = bytes.map_err(|e| format!("encode: {e}"))?;
                let decoded = tr.time("codec.decode", root, op, || decode_message(&bytes));
                let want = if is_query {
                    reply == script.acks[i]
                } else {
                    reply
                        == Message::RouteAck {
                            level: 0,
                            owner: script.owners[i],
                        }
                };
                if !want || decoded.as_ref() != Ok(&reply) {
                    out.failed += 1;
                    out.mismatch(format!("traced request {op} differs from the timed run"));
                }
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("traced request {op} failed: {e}"));
            }
        }
        tr.close(root);
        op += 1;
    }
    let (member, head) = cluster.take_logs(trips.len());
    if member.len() != trips.len() || head.len() != trips.len() {
        out.mismatch(format!(
            "serve logs hold {} (member) and {} (head) of {} requests",
            member.len(),
            head.len(),
            trips.len()
        ));
    }
    let mut member_serve_us = Vec::new();
    for ((&(trip, op, start, end), m), h) in trips.iter().zip(&member).zip(&head) {
        let want = if op.is_multiple_of(2) {
            kind::QUERY
        } else {
            kind::ROUTE
        };
        let Some((sent, back)) = m.hop.filter(|_| m.kind == want && h.kind == want) else {
            out.mismatch(format!("serve logs out of step at request {op}"));
            break;
        };
        // Spans nest: round trip ⊃ member serve ⊃ head hop ⊃ head serve.
        // Clamp the few µs a serve loop takes to log after it replied.
        let clamp = |t: Instant, lo: Instant, hi: Instant| t.clamp(lo, hi.max(lo));
        let (m0, m1) = (clamp(m.start, start, end), clamp(m.end, start, end));
        let relay = tr.record("runtime.member_relay", trip, op, m0, m1);
        let (f0, f1) = (clamp(sent, m0, m1), clamp(back, m0, m1));
        let hop = tr.record("transport.wire_wait", relay, op, f0, f1);
        tr.record(
            "runtime.head_serve",
            hop,
            op,
            clamp(h.start, f0, f1),
            clamp(h.end, f0, f1),
        );
        if op.is_multiple_of(2) {
            member_serve_us.push(m1.duration_since(m0).as_secs_f64() * 1e6);
        }
    }
    out.values.set(
        "runtime.member_serve_us",
        member_serve_us.iter().sum::<f64>() / member_serve_us.len().max(1) as f64,
    );
    out.spans = tr.spans().to_vec();
    Ok(())
}
