//! The three workloads: seeded operation lists with their expected
//! answers, the closed-loop clients that send them, and the checks.
//!
//! Every operation is generated from the workload seed and carries the
//! answer the oracle computed for it before the timed phase starts, so
//! checking a response costs a comparison, not a computation.

use crate::data::{entity_iri, DCT_SUBJECT, NS, RDF_TYPE};
use crate::http::{self, enc, Response};
use crate::json::{self, Json};
use crate::oracle::{
    binding_key, category_iri, class_iri, entity_of_binding, pred_area, pred_links,
    pred_population, Oracle, Selection,
};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wodex_synth::dist::Zipf;
use wodex_synth::rng::{Rng, RngCore, SeedableRng, StdRng};

pub const CLASSES: [&str; 5] = ["City", "Person", "Organisation", "Country", "Film"];
/// `LIMIT` of the star join.
const STAR_LIMIT: usize = 20;
/// Rows asked of `/explore/hits`.
const HITS_LIMIT: usize = 10;

/// One seeded operation stream: `wodex-synth`'s generator, and Zipf
/// samplers (exponent 1) that skew which subjects and population bounds
/// requests draw, so low ranks (the generator's link hubs) are shared by
/// many requests.
pub struct Draws {
    pub rng: StdRng,
    subjects: Zipf,
    populations: Zipf,
}

impl Draws {
    /// The stream `stream` of workload seed `seed`; streams of one seed
    /// are independent.
    pub fn new(o: &Oracle, seed: u64, stream: u64) -> Draws {
        let mut mix = StdRng::seed_from_u64(seed ^ stream.rotate_left(32));
        Draws {
            rng: StdRng::seed_from_u64(mix.next_u64()),
            subjects: Zipf::new(o.entities(), 1.0),
            populations: Zipf::new(100_000, 1.0),
        }
    }

    /// A Zipf-ranked entity.
    fn subject(&mut self) -> u32 {
        (self.subjects.sample_rank(&mut self.rng) - 1) as u32
    }

    /// A Zipf-ranked population step in `[0, 100000)`.
    fn population(&mut self) -> usize {
        self.populations.sample_rank(&mut self.rng) - 1
    }
}

/// What an operation is, for grouping latencies and spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Open,
    Overview,
    Facets,
    Filter,
    Zoom,
    Search,
    Hits,
    Details,
    Undo,
    Hist,
    Chart,
    Lookup,
    Range,
    TwoHop,
    Star,
    Triangle,
    Commit,
    Subscribe,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Open => "open",
            Kind::Overview => "overview",
            Kind::Facets => "facets",
            Kind::Filter => "filter",
            Kind::Zoom => "zoom",
            Kind::Search => "search",
            Kind::Hits => "hits",
            Kind::Details => "details",
            Kind::Undo => "undo",
            Kind::Hist => "hist",
            Kind::Chart => "chart",
            Kind::Lookup => "lookup",
            Kind::Range => "range",
            Kind::TwoHop => "two_hop",
            Kind::Star => "star",
            Kind::Triangle => "triangle",
            Kind::Commit => "commit",
            Kind::Subscribe => "subscribe",
        }
    }

    pub fn is_sparql(self) -> bool {
        matches!(
            self,
            Kind::Lookup | Kind::Range | Kind::TwoHop | Kind::Star | Kind::Triangle
        )
    }

    /// A pooled exploration tour step (everything a session does but open).
    pub fn is_step(self) -> bool {
        matches!(
            self,
            Kind::Overview
                | Kind::Facets
                | Kind::Filter
                | Kind::Zoom
                | Kind::Search
                | Kind::Hits
                | Kind::Details
                | Kind::Undo
                | Kind::Hist
                | Kind::Chart
        )
    }
}

/// The answer an operation must get.
#[derive(Debug, Clone)]
pub enum Expect {
    Session,
    Overview(Vec<(String, usize)>),
    Facets(Vec<(String, usize)>),
    Matching {
        matching: usize,
        operations: usize,
    },
    Hits {
        allowed: Arc<BTreeSet<u32>>,
    },
    Details {
        label: Option<String>,
        forward: usize,
        backward: usize,
    },
    Undo {
        matching: usize,
    },
    Hist {
        values: usize,
    },
    Chart,
    /// `?p ?o` rows of `subject`; `note` rows (written by the `write`
    /// workload) are checked against `written` instead.
    Rows {
        subject: u32,
        rows: Vec<String>,
        written: Option<Arc<BTreeSet<String>>>,
    },
    Count(usize),
    Pairs(Vec<(u32, u32)>),
    Star(Arc<BTreeMap<u32, (String, String)>>),
    Commit {
        inserts: usize,
        deletes: usize,
    },
    Subscribe {
        written: Arc<BTreeSet<String>>,
    },
}

/// One request with its expected answer. `{S}` in the target stands
/// for the client's session token.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub method: &'static str,
    pub target: String,
    pub body: String,
    pub expect: Expect,
    /// The operation's parameters, for the in-process replay.
    pub args: Args,
}

/// Parameters of an operation in typed form.
#[derive(Debug, Clone)]
pub enum Args {
    None,
    Filter { predicate: String, value: String },
    Zoom { predicate: String, lo: f64, hi: f64 },
    Query(String),
    Details(String),
    Predicate(String),
    Write { nt: String, delete: bool },
}

fn get(kind: Kind, target: String, expect: Expect, args: Args) -> Op {
    Op {
        kind,
        method: "GET",
        target,
        body: String::new(),
        expect,
        args,
    }
}

fn sparql(kind: Kind, query: String, expect: Expect) -> Op {
    Op {
        kind,
        method: "POST",
        target: "/sparql".to_string(),
        body: query.clone(),
        expect,
        args: Args::Query(query),
    }
}

/// A client's script: its operations, run in order.
pub type Script = Vec<Op>;

/// Category ranks in three bands of selectivity (the generator's
/// categories are Zipf-distributed, rank 0 largest).
const CATEGORY_BANDS: [(usize, usize); 3] = [(0, 2), (2, 10), (10, 50)];
/// Population zoom upper bounds (multiples of the generator's factor
/// 37) in three bands of selectivity.
const ZOOM_BANDS: [(usize, usize); 3] = [(20, 200), (200, 2_000), (2_000, 20_000)];

/// One exploration session: open, then `tours` seeded tours of
/// overview → facets → filter → zoom → search → hits → details →
/// undo ×3 → `/viz/hist` → `/viz/chart`.
///
/// Parameters whose cost depends on selectivity rotate through fixed
/// bands (search and hits keywords through the classes, filters and
/// zooms through selectivity bands, histogram and chart predicates
/// alternate) so every run has the same composition; the seed picks
/// the values inside each band. `phase` offsets the rotation so the
/// two clients do not request the same band at once.
pub fn explore_script(o: &Oracle, d: &mut Draws, tours: usize, phase: usize) -> Script {
    let mut ops = vec![get(
        Kind::Open,
        "/explore/open".into(),
        Expect::Session,
        Args::None,
    )];
    for tour in 0..tours {
        let t = tour + phase;
        let mut sel = Selection::default();
        ops.push(get(
            Kind::Overview,
            "/explore/overview?session={S}".into(),
            Expect::Overview(o.overview()),
            Args::None,
        ));
        ops.push(get(
            Kind::Facets,
            "/explore/facets?session={S}".into(),
            Expect::Facets(o.facets().to_vec()),
            Args::None,
        ));
        let (lo, hi) = CATEGORY_BANDS[t % 3];
        let value = category_iri(d.rng.random_range(lo..hi));
        sel.filters.push((DCT_SUBJECT.to_string(), value.clone()));
        ops.push(get(
            Kind::Filter,
            format!(
                "/explore/filter?session={{S}}&predicate={}&value={}",
                enc(DCT_SUBJECT),
                enc(&value)
            ),
            Expect::Matching {
                matching: o.matching(&sel),
                operations: 1,
            },
            Args::Filter {
                predicate: DCT_SUBJECT.to_string(),
                value,
            },
        ));
        let (lo, hi) = ZOOM_BANDS[(t + 1) % 3];
        let hi = (37 * d.rng.random_range(lo..hi)) as f64;
        sel.zooms.push((pred_population(), 0.0, hi));
        ops.push(get(
            Kind::Zoom,
            format!(
                "/explore/zoom?session={{S}}&predicate={}&lo=0&hi={hi}",
                enc(&pred_population())
            ),
            Expect::Matching {
                matching: o.matching(&sel),
                operations: 2,
            },
            Args::Zoom {
                predicate: pred_population(),
                lo: 0.0,
                hi,
            },
        ));
        let q = CLASSES[t % CLASSES.len()].to_lowercase();
        sel.searches.push(q.clone());
        ops.push(get(
            Kind::Search,
            format!("/explore/search?session={{S}}&q={}", enc(&q)),
            Expect::Matching {
                matching: o.matching(&sel),
                operations: 3,
            },
            Args::Query(q),
        ));
        let q = CLASSES[(t + 2) % CLASSES.len()].to_lowercase();
        ops.push(get(
            Kind::Hits,
            format!(
                "/explore/hits?session={{S}}&q={}&limit={HITS_LIMIT}",
                enc(&q)
            ),
            Expect::Hits {
                allowed: Arc::new((*o.search(&q)).clone()),
            },
            Args::Query(q),
        ));
        let e = d.subject();
        let (label, forward, backward) = o.details(e);
        ops.push(get(
            Kind::Details,
            format!("/explore/details?session={{S}}&iri={}", enc(&entity_iri(e))),
            Expect::Details {
                label,
                forward,
                backward,
            },
            Args::Details(entity_iri(e)),
        ));
        for _ in 0..3 {
            let _ = sel.searches.pop().is_some()
                || sel.zooms.pop().is_some()
                || sel.filters.pop().is_some();
            ops.push(get(
                Kind::Undo,
                "/explore/undo?session={S}".into(),
                Expect::Undo {
                    matching: o.matching(&sel),
                },
                Args::None,
            ));
        }
        let pred = if t.is_multiple_of(2) {
            pred_population()
        } else {
            pred_area()
        };
        ops.push(get(
            Kind::Hist,
            format!("/viz/hist?predicate={}&bins=16", enc(&pred)),
            Expect::Hist {
                values: o.numeric_values(&pred),
            },
            Args::Predicate(pred),
        ));
        let pred = if t % 2 == 1 {
            pred_population()
        } else {
            pred_area()
        };
        ops.push(get(
            Kind::Chart,
            format!("/viz/chart?predicate={}", enc(&pred)),
            Expect::Chart,
            Args::Predicate(pred),
        ));
    }
    ops
}

/// The query mix, in the order each client cycles through it: subject
/// lookups 50%, 2-hop joins 20%, range FILTER counts 10%, star joins
/// 10%, triangles 10%. The weights are chosen so every query kind, and
/// the layer it loads, shows in the figures; they are not taken from a
/// query log. A fixed order keeps every run's proportions exact; the
/// seed picks each query's constants.
const MIX: [Kind; 10] = [
    Kind::Lookup,
    Kind::TwoHop,
    Kind::Lookup,
    Kind::Range,
    Kind::Lookup,
    Kind::TwoHop,
    Kind::Lookup,
    Kind::Star,
    Kind::Lookup,
    Kind::Triangle,
];

/// One `/sparql` query of `kind` with seeded constants: Zipf-skewed
/// subject lookups, numeric range FILTER counts, 2-hop joins from a
/// constant, a LIMITed star join, or a cyclic triangle through a
/// constant. `round` rotates the range predicate and the star join's
/// class and category band, as the tours do.
pub fn sparql_op(o: &Oracle, d: &mut Draws, kind: Kind, round: usize) -> Op {
    let n = o.entities();
    let links = pred_links();
    match kind {
        Kind::Lookup => lookup_op(o, d.subject(), None),
        Kind::Range => {
            let (pred, lo, hi) = if round.is_multiple_of(2) {
                let lo = 37 * d.population();
                (
                    pred_population(),
                    lo as f64,
                    (lo + 37 * d.rng.random_range(10usize..5_000)) as f64,
                )
            } else {
                let lo = d.rng.random_range(0usize..1_000) as f64;
                (
                    pred_area(),
                    lo,
                    lo + d.rng.random_range(10usize..300) as f64,
                )
            };
            sparql(
                Kind::Range,
                format!(
                    "SELECT (COUNT(?s) AS ?n) WHERE {{ ?s <{pred}> ?v FILTER(?v >= {lo} && ?v < {hi}) }}"
                ),
                Expect::Count(o.range_count(&pred, lo, hi)),
            )
        }
        Kind::TwoHop => {
            let e = d.subject();
            sparql(
                Kind::TwoHop,
                format!(
                    "SELECT ?b ?c WHERE {{ <{}> <{links}> ?b . ?b <{links}> ?c }}",
                    entity_iri(e)
                ),
                Expect::Pairs(o.two_hop(e)),
            )
        }
        Kind::Star => {
            let class = class_iri(CLASSES[round % CLASSES.len()]);
            let (lo, hi) = CATEGORY_BANDS[round % 3];
            let cat = category_iri(d.rng.random_range(lo..hi));
            sparql(
                Kind::Star,
                format!(
                    "SELECT ?s ?pop ?area WHERE {{ ?s <{RDF_TYPE}> <{class}> . ?s <{DCT_SUBJECT}> <{cat}> . ?s <{}> ?pop . ?s <{}> ?area }} LIMIT {STAR_LIMIT}",
                    pred_population(),
                    pred_area()
                ),
                Expect::Star(Arc::new((*o.star(&class, &cat)).clone())),
            )
        }
        _ => {
            // A uniform anchor: through a Zipf hub the closing pattern
            // has thousands of matches and one query would dominate a run.
            let e = d.rng.random_range(0..n) as u32;
            let s = entity_iri(e);
            sparql(
                Kind::Triangle,
                format!("SELECT ?b ?c WHERE {{ <{s}> <{links}> ?b . ?b <{links}> ?c . ?c <{links}> <{s}> }}"),
                Expect::Pairs(o.triangles(e)),
            )
        }
    }
}

/// `SELECT ?p ?o WHERE { <e> ?p ?o }`.
pub fn lookup_op(o: &Oracle, e: u32, written: Option<Arc<BTreeSet<String>>>) -> Op {
    sparql(
        Kind::Lookup,
        format!("SELECT ?p ?o WHERE {{ <{}> ?p ?o }}", entity_iri(e)),
        Expect::Rows {
            subject: e,
            rows: o.subject_rows(e),
            written,
        },
    )
}

pub fn sparql_script(o: &Oracle, d: &mut Draws, queries: usize) -> Script {
    (0..queries)
        .map(|i| sparql_op(o, d, MIX[i % MIX.len()], i / MIX.len()))
        .collect()
}

/// The predicate the `write` workload's triples use.
pub fn note_pred() -> String {
    format!("{NS}bench/note")
}

/// The `write` workload's plan: the writer's commits, and every triple
/// it will ever insert (as N-Triples lines).
pub struct WritePlan {
    pub commits: Script,
    pub written: Arc<BTreeSet<String>>,
}

pub fn nt_line(e: u32, value: &str) -> String {
    format!("<{}> <{}> \"{value}\" .", entity_iri(e), note_pred())
}

/// Seeded batches of 1–8 triples: inserts of fresh triples, and (one
/// batch in four, once there is something to delete) deletes of the
/// writer's own earlier inserts. One in four is chosen so deletes are
/// exercised while the store still grows, not taken from traffic.
pub fn write_plan(o: &Oracle, d: &mut Draws, seed: u64, commits: usize) -> WritePlan {
    let n = o.entities();
    let mut live: Vec<String> = Vec::new();
    let mut written = BTreeSet::new();
    let mut ops = Vec::with_capacity(commits);
    let mut next = 0u64;
    for _ in 0..commits {
        let size = d.rng.random_range(1usize..9);
        let delete = !live.is_empty() && d.rng.random_range(0.0..1.0) < 0.25;
        let lines: Vec<String> = if delete {
            (0..size.min(live.len()))
                .map(|_| {
                    let i = d.rng.random_range(0..live.len());
                    live.swap_remove(i)
                })
                .collect()
        } else {
            (0..size)
                .map(|_| {
                    next += 1;
                    let line = nt_line(d.rng.random_range(0..n) as u32, &format!("w{seed}.{next}"));
                    written.insert(line.clone());
                    live.push(line.clone());
                    line
                })
                .collect()
        };
        let nt = lines.join("\n") + "\n";
        let k = lines.len();
        ops.push(Op {
            kind: Kind::Commit,
            method: "POST",
            target: if delete {
                "/data?action=delete"
            } else {
                "/data"
            }
            .to_string(),
            body: nt.clone(),
            expect: Expect::Commit {
                inserts: if delete { 0 } else { k },
                deletes: if delete { k } else { 0 },
            },
            args: Args::Write { nt, delete },
        });
    }
    WritePlan {
        commits: ops,
        written: Arc::new(written),
    }
}

/// The reader beside the writer: point lookups and subscribe polls,
/// three to one (chosen, not taken from traffic), cycling through `len`
/// seeded operations.
pub fn reader_script(
    o: &Oracle,
    d: &mut Draws,
    written: &Arc<BTreeSet<String>>,
    len: usize,
) -> Script {
    (0..len)
        .map(|i| {
            if i % 4 == 3 {
                get(
                    Kind::Subscribe,
                    "/explore/subscribe?since={R}".into(),
                    Expect::Subscribe {
                        written: Arc::clone(written),
                    },
                    Args::None,
                )
            } else {
                lookup_op(o, d.subject(), Some(Arc::clone(written)))
            }
        })
        .collect()
}

/// How one request went.
#[derive(Debug, Clone)]
pub struct Sample {
    pub kind: Kind,
    pub client: usize,
    /// Position in the client's sequence of requests; the operation sent
    /// is `script[index % script.len()]`, as a script may repeat.
    pub index: usize,
    pub ms: f64,
    pub ok: bool,
    /// The response arrived but its answer was wrong.
    pub wrong: bool,
    pub why: String,
}

/// Per-client state the checks carry between requests.
#[derive(Default)]
struct ClientState {
    session: String,
    /// Last revision seen (commit acknowledgements, subscribe cursor).
    revision: Option<u64>,
}

const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs `script` closed-loop: each request is sent only after the
/// previous one completed. With `cycle`, the script repeats until
/// `stop` is raised; otherwise it runs once. After a session open the
/// client waits at `opened`, so every open competes only with the other
/// clients' opens. Nothing is sent after `deadline`; unsent operations
/// of a one-shot script count as dropped.
pub fn run_client(
    addr: SocketAddr,
    client: usize,
    script: &[Op],
    cycle: Option<&AtomicBool>,
    opened: &Barrier,
    deadline: Instant,
) -> Vec<Sample> {
    let mut st = ClientState::default();
    let mut out = Vec::with_capacity(script.len());
    let mut i = 0usize;
    loop {
        if script.is_empty() {
            break;
        }
        let idx = i % script.len();
        match cycle {
            Some(stop) if stop.load(Ordering::SeqCst) => break,
            None if i >= script.len() => break,
            _ => {}
        }
        if Instant::now() > deadline {
            if cycle.is_none() {
                for (j, op) in script.iter().enumerate().skip(i) {
                    out.push(Sample {
                        kind: op.kind,
                        client,
                        index: j,
                        ms: 0.0,
                        ok: false,
                        wrong: false,
                        why: "not sent: run deadline passed".into(),
                    });
                }
            }
            break;
        }
        let op = &script[idx];
        let target = op
            .target
            .replace("{S}", &st.session)
            .replace("{R}", &st.revision.unwrap_or(0).to_string());
        let t0 = Instant::now();
        let resp = http::request(
            addr,
            op.method,
            &target,
            op.body.as_bytes(),
            REQUEST_TIMEOUT,
        );
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (ok, wrong, why) = match resp {
            Err(e) => (false, false, format!("dropped: {e}")),
            Ok(r) if !(200..300).contains(&r.status) => {
                (false, false, format!("status {}: {}", r.status, r.text()))
            }
            Ok(r) => match check(op, &r, &mut st) {
                Ok(()) => (true, false, String::new()),
                Err(e) => (false, true, e),
            },
        };
        out.push(Sample {
            kind: op.kind,
            client,
            index: i,
            ms,
            ok,
            wrong,
            why,
        });
        if op.kind == Kind::Open {
            opened.wait();
        }
        i += 1;
    }
    out
}

fn body_json(r: &Response) -> Result<Json, String> {
    json::parse(&r.text()).map_err(|e| format!("bad JSON ({e})"))
}

fn num(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| format!("missing number {key:?}"))
}

fn want<T: PartialEq + std::fmt::Debug>(what: &str, got: T, expected: T) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {expected:?}"))
    }
}

fn not_degraded(r: &Response, field: Option<&str>) -> Result<(), String> {
    match field {
        None | Some("none") => Ok(()),
        Some(d) => Err(format!("degraded answer: {d} ({} bytes)", r.body.len())),
    }
}

fn bindings(r: &Response) -> Result<Vec<Json>, String> {
    not_degraded(r, r.trailer("X-Wodex-Degraded"))?;
    let v = body_json(r)?;
    v.path(&["results", "bindings"])
        .and_then(Json::as_array)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| "missing results.bindings".to_string())
}

fn pairs(rows: &[Json]) -> Result<Vec<(u32, u32)>, String> {
    let mut out = rows
        .iter()
        .map(|b| {
            let e = |v: &str| b.get(v).and_then(entity_of_binding);
            e("b")
                .zip(e("c"))
                .ok_or_else(|| "row without entity ?b ?c".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    out.sort_unstable();
    Ok(out)
}

/// Checks a 2xx response against the operation's expected answer.
fn check(op: &Op, r: &Response, st: &mut ClientState) -> Result<(), String> {
    match &op.expect {
        Expect::Session => {
            let v = body_json(r)?;
            st.session = v
                .get("session")
                .and_then(Json::as_str)
                .ok_or("no session token")?
                .to_string();
            Ok(())
        }
        Expect::Overview(exp) => {
            let v = body_json(r)?;
            let got = v
                .get("classes")
                .and_then(Json::as_array)
                .ok_or("no classes")?
                .iter()
                .map(|c| {
                    let class = c
                        .get("class")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    (class, num(c, "count").unwrap_or(usize::MAX))
                })
                .collect::<Vec<_>>();
            want("overview", &got, exp)
        }
        Expect::Facets(exp) => {
            let v = body_json(r)?;
            let mut got = v
                .get("facets")
                .and_then(Json::as_array)
                .ok_or("no facets")?
                .iter()
                .map(|f| {
                    let p = f
                        .get("predicate")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    (p, num(f, "cardinality").unwrap_or(usize::MAX))
                })
                .collect::<Vec<_>>();
            got.sort();
            want("facets", &got, exp)
        }
        Expect::Matching {
            matching,
            operations,
        } => {
            let v = body_json(r)?;
            want("matching", num(&v, "matching")?, *matching)?;
            want("operations", num(&v, "operations")?, *operations)
        }
        Expect::Hits { allowed } => {
            let v = body_json(r)?;
            let hits = v.get("hits").and_then(Json::as_array).ok_or("no hits")?;
            want("hit count", hits.len(), allowed.len().min(HITS_LIMIT))?;
            for h in hits {
                let s = h.get("subject").and_then(Json::as_str).unwrap_or("");
                let e = s
                    .trim_start_matches('<')
                    .trim_end_matches('>')
                    .strip_prefix(NS)
                    .and_then(|x| x.strip_prefix("resource/E"))
                    .and_then(|x| x.parse::<u32>().ok());
                if !e.is_some_and(|e| allowed.contains(&e)) {
                    return Err(format!("hit {s} does not match the query"));
                }
            }
            Ok(())
        }
        Expect::Details {
            label,
            forward,
            backward,
        } => {
            let v = body_json(r)?;
            let rows = v.get("rows").and_then(Json::as_array).ok_or("no rows")?;
            let fwd = rows
                .iter()
                .filter(|x| x.get("forward").and_then(Json::as_bool) == Some(true))
                .count();
            want("forward rows", fwd, *forward)?;
            want("backward rows", rows.len() - fwd, *backward)?;
            let got = v.get("label").and_then(Json::as_str).map(str::to_string);
            want("label", &got, label)
        }
        Expect::Undo { matching } => want(
            "matching after undo",
            num(&body_json(r)?, "matching")?,
            *matching,
        ),
        Expect::Hist { values } => {
            not_degraded(r, r.trailer("X-Wodex-Degraded"))?;
            let v = body_json(r)?;
            want("histogram values", num(&v, "values")?, *values)?;
            let binned: usize = v
                .get("bins")
                .and_then(Json::as_array)
                .ok_or("no bins")?
                .iter()
                .map(|b| num(b, "count").unwrap_or(0))
                .sum();
            want("histogram total", binned, *values)
        }
        Expect::Chart => {
            not_degraded(r, r.header("X-Wodex-Degraded"))?;
            if r.text().trim_start().starts_with("<svg") {
                Ok(())
            } else {
                Err("chart body is not SVG".into())
            }
        }
        Expect::Rows {
            subject,
            rows,
            written,
        } => {
            let note = note_pred();
            let mut got = Vec::new();
            for b in bindings(r)? {
                let p = b.get("p").and_then(binding_key).ok_or("row without ?p")?;
                let o = b.get("o").and_then(binding_key).ok_or("row without ?o")?;
                let p = p
                    .trim_start_matches("uri|")
                    .trim_end_matches('|')
                    .to_string();
                match written {
                    Some(w) if p == note => {
                        // A written triple: it must be one the writer sent.
                        let value = o.trim_start_matches("literal|").trim_end_matches('|');
                        if !w.contains(&nt_line(*subject, value)) {
                            return Err(format!("unknown written value {value:?}"));
                        }
                    }
                    _ => got.push(format!("{p}|{o}")),
                }
            }
            got.sort();
            want("subject rows", &got, rows)
        }
        Expect::Count(n) => {
            let rows = bindings(r)?;
            let got = rows
                .first()
                .and_then(|b| b.get("n"))
                .and_then(|b| b.get("value"))
                .and_then(Json::as_str)
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or("no count")?;
            want("count", got, *n)
        }
        Expect::Pairs(exp) => want("join rows", &pairs(&bindings(r)?)?, exp),
        Expect::Star(solutions) => {
            let rows = bindings(r)?;
            want("star rows", rows.len(), solutions.len().min(STAR_LIMIT))?;
            let mut seen = BTreeSet::new();
            for b in &rows {
                let e = b
                    .get("s")
                    .and_then(entity_of_binding)
                    .ok_or("row without ?s")?;
                let (pop, area) = solutions
                    .get(&e)
                    .ok_or_else(|| format!("E{e} is not a solution"))?;
                want(
                    "?pop",
                    b.get("pop").and_then(binding_key).as_ref(),
                    Some(pop),
                )?;
                want(
                    "?area",
                    b.get("area").and_then(binding_key).as_ref(),
                    Some(area),
                )?;
                if !seen.insert(e) {
                    return Err(format!("E{e} returned twice"));
                }
            }
            Ok(())
        }
        Expect::Commit { inserts, deletes } => {
            let v = body_json(r)?;
            want("inserts", num(&v, "inserts")?, *inserts)?;
            want("deletes", num(&v, "deletes")?, *deletes)?;
            let rev = num(&v, "revision")? as u64;
            if let Some(prev) = st.revision {
                want("revision", rev, prev + 1)?;
            }
            st.revision = Some(rev);
            Ok(())
        }
        Expect::Subscribe { written } => {
            let v = body_json(r)?;
            let head = num(&v, "revision")? as u64;
            let since = st.revision.unwrap_or(0);
            let resync = v
                .get("resync")
                .and_then(Json::as_bool)
                .ok_or("no resync flag")?;
            let frames = v
                .get("frames")
                .and_then(Json::as_array)
                .ok_or("no frames")?;
            want("frame count", num(&v, "count")?, frames.len())?;
            if !resync {
                let mut last = since;
                for f in frames {
                    let rev = num(f, "revision")? as u64;
                    if rev <= last || rev > head {
                        return Err(format!(
                            "frame revision {rev} out of order after {last} (head {head})"
                        ));
                    }
                    last = rev;
                    for side in ["inserts", "deletes"] {
                        for t in f
                            .get(side)
                            .and_then(Json::as_array)
                            .ok_or("frame without triples")?
                        {
                            let t = t.as_str().unwrap_or("");
                            if !written.contains(t.trim()) {
                                return Err(format!("frame carries a triple never written: {t}"));
                            }
                        }
                    }
                }
            }
            st.revision = Some(head);
            Ok(())
        }
    }
}

/// Reads back every triple of the note predicate after a restart.
pub fn read_back(addr: SocketAddr) -> Result<BTreeSet<String>, String> {
    let q = format!("SELECT ?s ?o WHERE {{ ?s <{}> ?o }}", note_pred());
    let r = http::post(
        addr,
        "/sparql?deadline_ms=60000",
        q.as_bytes(),
        REQUEST_TIMEOUT,
    )?;
    if r.status != 200 {
        return Err(format!("read-back status {}", r.status));
    }
    let mut out = BTreeSet::new();
    for b in bindings(&r)? {
        let s = b
            .get("s")
            .and_then(entity_of_binding)
            .ok_or("row without ?s")?;
        let o = b
            .get("o")
            .and_then(|o| o.get("value"))
            .and_then(Json::as_str)
            .ok_or("row without ?o")?;
        out.insert(nt_line(s, o));
    }
    Ok(out)
}
