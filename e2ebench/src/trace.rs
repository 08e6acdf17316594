//! The traced replay: the run's seeded operations replayed in-process
//! against each layer's public functions, with a span around every call.
//!
//! Spans are recorded from the benchmark's side of each call, so a span
//! covers exactly one layer's public entry point. The query engine's
//! stage timers (`QueryTrace::stage_nanos`) become child spans of the
//! query call, laid end to end from its start in pipeline order.

use crate::server::self_rss_mb;
use crate::spans::{self_times, Tracer};
use crate::workloads::{Args, Kind, Op};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use wodex_core::Explorer;
use wodex_explore::ExplorationSession;
use wodex_rdf::{Term, Value};
use wodex_serve::{ServeConfig, Server};
use wodex_sparql::{Budget, EvalOptions, QueryResult, QueryTrace, Stage};
use wodex_store::{TripleStore, WriteBatch};

/// Query stages reported as layers, with their metric names.
const STAGES: [(Stage, &str); 5] = [
    (Stage::Parse, "sparql.parse"),
    (Stage::Plan, "sparql.plan"),
    (Stage::BgpProbe, "sparql.bgp_probe"),
    (Stage::Filter, "sparql.filter"),
    (Stage::Decode, "sparql.decode"),
];

/// What the replay measured.
pub struct Replay {
    pub tracer: Tracer,
    /// Root span id of each replayed workload operation, by
    /// (client, index in its script).
    pub roots: BTreeMap<(usize, usize), usize>,
    /// RSS growth of each session build, in MB.
    pub session_mb: Vec<f64>,
    /// Index-probe items and rows returned, summed over queries.
    pub probed: u64,
    pub rows: u64,
}

/// A workload operation to replay: which client sent it and where in
/// its script, or `None` for a probe of a layer the workload does not
/// exercise over HTTP.
pub struct ReplayOp<'a> {
    pub origin: Option<(usize, usize)>,
    pub op: &'a Op,
}

/// Groups of operations. Each exploration group runs on its own fresh
/// session, as each HTTP client opened its own.
pub struct Plan<'a> {
    pub sessions: Vec<Vec<ReplayOp<'a>>>,
    pub stateless: Vec<ReplayOp<'a>>,
}

pub fn replay(seg_dir: &Path, plan: &Plan) -> Result<Replay, String> {
    let mut t = Tracer::new();
    let boot = t.begin("boot", 0);
    let store = t.time("seg.open", 0, || wodex_seg::SegmentStore::open(seg_dir));
    let (dict, segs) = store.map_err(|e| format!("segment store: {e}"))?;
    let store = TripleStore::with_base(dict, Arc::new(segs));
    let explorer = t.time("core.from_store", 0, || Explorer::from_store(store));
    let cfg = ServeConfig {
        workers: crate::server::WORKERS,
        ..ServeConfig::default()
    };
    let server = t.time("serve.bind", 0, || Server::bind(explorer, cfg.clone()));
    let server = server.map_err(|e| format!("bind: {e}"))?;
    t.end(boot);
    let state = server.state();
    let budget = || {
        Budget::unlimited()
            .with_deadline(cfg.deadline)
            .with_row_cap(cfg.row_cap)
    };
    let mut out = Replay {
        tracer: t,
        roots: BTreeMap::new(),
        session_mb: Vec::new(),
        probed: 0,
        rows: 0,
    };
    let mut request = 0u64;
    // Sessions stay open until every group ran, as the server keeps them.
    let mut sessions = Vec::new();
    for group in &plan.sessions {
        let mut session: Option<ExplorationSession> = None;
        for r in group {
            request += 1;
            let root = out
                .tracer
                .begin(&format!("op.{}", r.op.kind.name()), request);
            if r.op.kind == Kind::Open {
                let before = self_rss_mb();
                session = Some(out.tracer.time("explore.session_build", request, || {
                    ExplorationSession::shared(state.explorer.shared_graph())
                }));
                out.session_mb.push(self_rss_mb() - before);
            } else if let Some(s) = session.as_mut() {
                step(
                    &mut out.tracer,
                    request,
                    s,
                    &state.explorer,
                    r.op,
                    &budget(),
                );
            }
            out.tracer.end(root);
            if let Some(o) = r.origin {
                out.roots.insert(o, root);
            }
        }
        sessions.push(session);
    }
    drop(sessions);
    for r in &plan.stateless {
        request += 1;
        let t = &mut out.tracer;
        let root = t.begin(&format!("op.{}", r.op.kind.name()), request);
        match &r.op.args {
            Args::Query(text) if r.op.kind.is_sparql() => {
                let snap = t.time("store.snapshot", request, || state.live.snapshot());
                let qt = QueryTrace::new();
                let call = t.begin("sparql.query", request);
                let res = wodex_sparql::query_traced_with(
                    snap.store(),
                    text,
                    &budget(),
                    &qt,
                    EvalOptions::default(),
                );
                t.end(call);
                let mut at = t.spans()[call].start;
                for (stage, name) in STAGES {
                    let d = qt.stage_nanos(stage);
                    t.record(name, request, at, at + d, call);
                    at += d;
                }
                let res = res.map_err(|e| format!("replayed query failed: {e}"))?;
                out.probed += qt.stage_items(Stage::BgpProbe);
                if let QueryResult::Solutions(tab) = &res.result {
                    out.rows += tab.len() as u64;
                }
                let json = t.time("sparql.serialize", request, || res.result.to_json());
                std::hint::black_box(json);
            }
            Args::Write { nt, delete } => {
                let g = t.time("rdf.parse", request, || wodex_rdf::ntriples::parse(nt));
                let g = g.map_err(|e| format!("replayed batch does not parse: {e}"))?;
                let mut batch = WriteBatch::new();
                for tr in g.iter() {
                    if *delete {
                        batch.delete(tr.clone());
                    } else {
                        batch.insert(tr.clone());
                    }
                }
                let done = t.time("store.commit", request, || state.live.commit(&batch));
                done.map_err(|e| format!("replayed commit failed: {e}"))?;
            }
            _ => {}
        }
        t.end(root);
        if let Some(o) = r.origin {
            out.roots.insert(o, root);
        }
    }
    drop(state);
    drop(server);
    Ok(out)
}

/// One exploration step, as its HTTP handler performs it.
fn step(
    t: &mut Tracer,
    req: u64,
    s: &mut ExplorationSession,
    ex: &Explorer,
    op: &Op,
    budget: &Budget,
) {
    let v = match (&op.kind, &op.args) {
        (Kind::Overview, _) => t.time("explore.overview", req, || s.overview().len()),
        (Kind::Facets, _) => t.time("explore.facets", req, || s.facets().facets().len()),
        (Kind::Filter, Args::Filter { predicate, value }) => t.time("explore.filter", req, || {
            s.filter(predicate, value);
            s.matching().len()
        }),
        (Kind::Zoom, Args::Zoom { predicate, lo, hi }) => t.time("explore.zoom", req, || {
            s.zoom(predicate, *lo, *hi);
            s.matching().len()
        }),
        (Kind::Search, Args::Query(q)) => t.time("explore.search", req, || {
            s.search(q);
            s.matching().len()
        }),
        (Kind::Hits, Args::Query(q)) => {
            t.time("explore.hits", req, || s.search_preview(q, 10).len())
        }
        (Kind::Details, Args::Details(iri)) => {
            let resource = Term::iri(iri.clone());
            t.time("explore.details", req, || s.details(&resource).rows.len())
        }
        (Kind::Undo, _) => t.time("explore.undo", req, || {
            s.undo();
            s.matching().len()
        }),
        (Kind::Hist, Args::Predicate(p)) => t.time("approx.hist", req, || {
            let values: Vec<f64> = ex
                .graph()
                .triples_for_predicate(p)
                .filter_map(|tr| {
                    let v = Value::from_literal(tr.object.as_literal()?);
                    v.as_f64()
                        .or_else(|| v.as_epoch_seconds().map(|x| x as f64))
                })
                .collect();
            // The handler counts the predicate's triples once more for
            // its coverage figure.
            let total = ex.graph().triples_for_predicate(p).count();
            let hist = wodex_approx::binning::Histogram::build(
                &values,
                16,
                wodex_approx::binning::BinningStrategy::EqualWidth,
            );
            hist.bins.len() + total
        }),
        (Kind::Chart, Args::Predicate(p)) => t.time("viz.chart", req, || {
            ex.visualize_budgeted(p, budget).0.svg.len()
        }),
        _ => 0,
    };
    std::hint::black_box(v);
}

/// Mean self time in ms of every span name, and how often it occurred.
pub fn layer_means(t: &Tracer) -> BTreeMap<String, (f64, usize)> {
    let st = self_times(t.spans());
    let mut acc: BTreeMap<String, (u64, usize)> = BTreeMap::new();
    for (s, self_ns) in t.spans().iter().zip(st) {
        let e = acc.entry(s.name.clone()).or_default();
        e.0 += self_ns;
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(k, (ns, n))| (k, (ns as f64 / n as f64 / 1e6, n)))
        .collect()
}

/// The time a root span's layer spans cover (its duration minus its
/// self time), in ms, given every span's self time.
pub fn covered_ms(t: &Tracer, self_ns: &[u64], root: usize) -> f64 {
    (t.spans()[root].duration() - self_ns[root]) as f64 / 1e6
}
