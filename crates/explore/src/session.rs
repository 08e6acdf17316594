//! Exploration sessions.
//!
//! §2 defines the exploration scenario: "*users perform a sequence of
//! operations, in which the result of each operation determines the
//! formulation of the next operation*". [`ExplorationSession`] is that
//! sequence as a first-class value — an operation log over the visual
//! information-seeking mantra ("overview first, zoom and filter, then
//! details-on-demand" \[118\]) with undo by replay, combining the facet
//! engine, the keyword index, numeric range filters and the resource
//! browser.

use crate::browse::ResourceView;
use crate::facets::FacetEngine;
use crate::search::{Hit, SearchIndex};
use std::collections::BTreeSet;
use std::sync::Arc;
use wodex_rdf::{Graph, Term, Value};

/// Counts one session operation in the global registry (series
/// `wodex_explore_ops_total{op=...}`). Handles are interned by the
/// registry, so the per-call cost after the first is one map probe under
/// a short lock — session ops are user-interaction-rate, not hot-path.
fn count_op(op: &'static str) {
    wodex_obs::global()
        .counter_with(
            "wodex_explore_ops_total",
            "Exploration session operations by kind",
            &[("op", op)],
        )
        .inc();
}

/// One step of an exploration session.
#[derive(Debug, Clone, PartialEq)]
pub enum Operation {
    /// Select a facet value.
    Filter {
        /// Facet property IRI.
        predicate: String,
        /// Chosen value key.
        value: String,
    },
    /// Restrict a numeric property to `[lo, hi)` (zoom).
    Zoom {
        /// Numeric property IRI.
        predicate: String,
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Keyword search restricting to the hit set.
    Search {
        /// The query text.
        query: String,
    },
}

impl std::fmt::Display for Operation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operation::Filter { predicate, value } => {
                write!(
                    f,
                    "filter {} = {}",
                    wodex_rdf::vocab::abbreviate(predicate),
                    value
                )
            }
            Operation::Zoom { predicate, lo, hi } => {
                write!(
                    f,
                    "zoom {} ∈ [{lo}, {hi})",
                    wodex_rdf::vocab::abbreviate(predicate)
                )
            }
            Operation::Search { query } => write!(f, "search {query:?}"),
        }
    }
}

/// A live exploration session over one graph.
///
/// The graph, the facet index and the search index are immutable and
/// held behind [`Arc`]s. [`ExplorationSession::fresh`] forks a session
/// that shares all three, so a server hosting thousands of concurrent
/// sessions over the same loaded dataset builds the indexes once; each
/// session owns only its facet selection and operation log.
pub struct ExplorationSession {
    graph: Arc<Graph>,
    facets: FacetEngine,
    search: Arc<SearchIndex>,
    log: Vec<Operation>,
}

impl ExplorationSession {
    /// Opens a session over an owned graph (wraps it in an [`Arc`]).
    pub fn new(graph: Graph) -> ExplorationSession {
        ExplorationSession::shared(Arc::new(graph))
    }

    /// Opens a session over a shared graph handle, building its facet
    /// and search indexes. Further sessions over the same dataset should
    /// come from [`ExplorationSession::fresh`], which builds nothing.
    pub fn shared(graph: Arc<Graph>) -> ExplorationSession {
        let facets = FacetEngine::new(&graph);
        let search = Arc::new(SearchIndex::build(&graph));
        ExplorationSession {
            graph,
            facets,
            search,
            log: Vec::new(),
        }
    }

    /// A new session with no filters and an empty log that shares this
    /// session's graph and both indexes.
    pub fn fresh(&self) -> ExplorationSession {
        ExplorationSession {
            graph: Arc::clone(&self.graph),
            facets: self.facets.fresh(),
            search: Arc::clone(&self.search),
            log: Vec::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared graph handle (cheap to clone into further sessions).
    pub fn shared_graph(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// The facet engine (counts reflect the session's filters).
    pub fn facets(&self) -> &FacetEngine {
        &self.facets
    }

    /// The operation log.
    pub fn log(&self) -> &[Operation] {
        &self.log
    }

    /// **Overview**: class → instance counts, largest first (the entry
    /// point of the mantra).
    pub fn overview(&self) -> Vec<(String, usize)> {
        count_op("overview");
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for t in self
            .graph
            .triples_for_predicate(wodex_rdf::vocab::rdf::TYPE)
        {
            if let Some(c) = t.object.as_iri() {
                *counts.entry(c.as_str().to_string()).or_insert(0) += 1;
            }
        }
        let mut out: Vec<(String, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// **Filter**: select a facet value.
    pub fn filter(&mut self, predicate: &str, value: &str) {
        count_op("filter");
        self.facets.select(predicate, value);
        self.log.push(Operation::Filter {
            predicate: predicate.to_string(),
            value: value.to_string(),
        });
    }

    /// **Zoom**: restrict a numeric property to a range.
    pub fn zoom(&mut self, predicate: &str, lo: f64, hi: f64) {
        count_op("zoom");
        self.log.push(Operation::Zoom {
            predicate: predicate.to_string(),
            lo,
            hi,
        });
    }

    /// **Search**: add a keyword restriction.
    pub fn search(&mut self, query: &str) {
        count_op("search");
        self.log.push(Operation::Search {
            query: query.to_string(),
        });
    }

    /// Raw keyword lookup without changing session state.
    pub fn search_preview(&self, query: &str, limit: usize) -> Vec<Hit> {
        count_op("search_preview");
        self.search.search(query, limit)
    }

    /// **Details-on-demand**: the resource view (stateless).
    pub fn details(&self, resource: &Term) -> ResourceView {
        count_op("details");
        ResourceView::of(&self.graph, resource)
    }

    /// Undoes the last operation (replays the log).
    pub fn undo(&mut self) -> Option<Operation> {
        count_op("undo");
        let undone = self.log.pop()?;
        // Rebuild facet selections from the remaining log.
        self.facets.clear();
        let log = self.log.clone();
        for op in &log {
            if let Operation::Filter { predicate, value } = op {
                self.facets.select(predicate, value);
            }
        }
        Some(undone)
    }

    /// The resources satisfying *all* logged operations.
    pub fn matching(&self) -> BTreeSet<Term> {
        let mut result = self.facets.matching();
        for op in &self.log {
            match op {
                Operation::Filter { .. } => {} // handled by the engine
                Operation::Zoom { predicate, lo, hi } => {
                    let in_range: BTreeSet<Term> = self
                        .graph
                        .triples_for_predicate(predicate)
                        .filter(|t| {
                            t.object
                                .as_literal()
                                .map(Value::from_literal)
                                .and_then(|v| v.as_f64())
                                .is_some_and(|v| v >= *lo && v < *hi)
                        })
                        .map(|t| t.subject.clone())
                        .collect();
                    result = result.intersection(&in_range).cloned().collect();
                }
                Operation::Search { query } => {
                    let hits: BTreeSet<Term> = self
                        .search
                        .search(query, usize::MAX)
                        .into_iter()
                        .map(|h| h.subject)
                        .collect();
                    result = result.intersection(&hits).cloned().collect();
                }
            }
        }
        result
    }

    /// A one-line summary per step plus the running result size — the
    /// session trace users (and tests) read.
    pub fn trace(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "0. start: {} resources",
            self.facets
                .matching()
                .len()
                .max(self.graph.subjects().len())
        );
        for (i, op) in self.log.iter().enumerate() {
            let _ = writeln!(out, "{}. {op}", i + 1);
        }
        let _ = writeln!(out, "=> {} resources match", self.matching().len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::vocab::{rdf, rdfs};
    use wodex_rdf::Triple;

    fn graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..20 {
            let s = format!("http://e.org/e{i}");
            let class = if i % 2 == 0 { "City" } else { "Town" };
            g.insert(Triple::iri(
                &s,
                rdf::TYPE,
                Term::iri(format!("http://e.org/{class}")),
            ));
            g.insert(Triple::iri(
                &s,
                rdfs::LABEL,
                Term::literal(format!("{class} number {i}")),
            ));
            g.insert(Triple::iri(&s, "http://e.org/pop", Term::integer(i * 100)));
        }
        g
    }

    #[test]
    fn overview_orders_classes_by_size() {
        let s = ExplorationSession::new(graph());
        let ov = s.overview();
        assert_eq!(ov.len(), 2);
        assert_eq!(ov[0].1, 10);
        assert_eq!(ov[1].1, 10);
    }

    #[test]
    fn filter_then_zoom_narrows_progressively() {
        let mut s = ExplorationSession::new(graph());
        assert_eq!(s.matching().len(), 20);
        s.filter(rdf::TYPE, "http://e.org/City");
        assert_eq!(s.matching().len(), 10);
        s.zoom("http://e.org/pop", 0.0, 1000.0);
        // Cities with pop < 1000: e0..e8 even → e0,e2,e4,e6,e8.
        assert_eq!(s.matching().len(), 5);
    }

    #[test]
    fn search_restricts_to_hits() {
        let mut s = ExplorationSession::new(graph());
        s.search("city");
        assert_eq!(s.matching().len(), 10);
        s.search("number 3"); // matches tokens "number" (all) and "3"
                              // Conjunction with previous search: cities containing "number".
        assert!(s.matching().len() <= 10);
    }

    #[test]
    fn undo_restores_previous_result() {
        let mut s = ExplorationSession::new(graph());
        s.filter(rdf::TYPE, "http://e.org/City");
        let after_filter = s.matching();
        s.zooms_for_test();
        assert!(s.matching().len() < after_filter.len());
        let undone = s.undo().unwrap();
        assert!(matches!(undone, Operation::Zoom { .. }));
        assert_eq!(s.matching(), after_filter);
        s.undo().unwrap();
        assert_eq!(s.matching().len(), 20);
        assert!(s.undo().is_none());
    }

    impl ExplorationSession {
        fn zooms_for_test(&mut self) {
            self.zoom("http://e.org/pop", 0.0, 500.0);
        }
    }

    #[test]
    fn details_returns_resource_view() {
        let s = ExplorationSession::new(graph());
        let v = s.details(&Term::iri("http://e.org/e2"));
        assert_eq!(v.rows.iter().filter(|r| r.forward).count(), 3);
    }

    #[test]
    fn trace_narrates_the_session() {
        let mut s = ExplorationSession::new(graph());
        s.filter(rdf::TYPE, "http://e.org/City");
        s.zoom("http://e.org/pop", 100.0, 900.0);
        let t = s.trace();
        assert!(t.contains("1. filter"));
        assert!(t.contains("2. zoom"));
        assert!(t.contains("resources match"));
    }

    #[test]
    fn shared_sessions_reuse_one_graph() {
        let g = Arc::new(graph());
        let a = ExplorationSession::shared(Arc::clone(&g));
        let b = ExplorationSession::shared(a.shared_graph());
        // Three handles (local + two sessions), one graph.
        assert_eq!(Arc::strong_count(&g), 3);
        assert_eq!(a.overview(), b.overview());
    }

    #[test]
    fn fresh_session_starts_empty_and_is_isolated() {
        let mut source = ExplorationSession::new(graph());
        source.filter(rdf::TYPE, "http://e.org/City");
        let mut fork = source.fresh();
        assert!(fork.log().is_empty());
        assert_eq!(fork.matching().len(), 20);
        fork.filter(rdf::TYPE, "http://e.org/Town");
        fork.zoom("http://e.org/pop", 0.0, 500.0);
        assert_eq!(fork.matching().len(), 2);
        assert_eq!(source.matching().len(), 10);
        assert_eq!(source.log().len(), 1);
    }

    #[test]
    fn search_preview_is_stateless() {
        let s = ExplorationSession::new(graph());
        let hits = s.search_preview("town", 5);
        assert_eq!(hits.len(), 5);
        assert!(s.log().is_empty());
    }
}
