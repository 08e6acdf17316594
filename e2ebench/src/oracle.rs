//! Expected answers, computed from the generated triples by the
//! benchmark's own code, never by wodex's query, facet or search code.
//!
//! Each function states the semantics it checks: facets are predicates
//! with 2 to 50 distinct values; filters are conjunctive across
//! predicates; zooms keep numeric values in `[lo, hi)`; a keyword search
//! keeps subjects with a literal containing any query token, where
//! tokens are maximal alphanumeric runs, lowercased.

use crate::data::{Model, Obj, DCT_SUBJECT, NS, RDFS_LABEL, RDF_TYPE};
use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

const XSD: &str = "http://www.w3.org/2001/XMLSchema#";
const MAX_FACET_VALUES: usize = 50;

pub fn pred_population() -> String {
    format!("{NS}ontology/population")
}

pub fn pred_area() -> String {
    format!("{NS}ontology/area")
}

pub fn pred_links() -> String {
    format!("{NS}ontology/linksTo")
}

pub fn class_iri(class: &str) -> String {
    format!("{NS}ontology/{class}")
}

pub fn category_iri(k: usize) -> String {
    format!("{NS}category/C{k}")
}

/// Lowercased maximal alphanumeric runs.
pub fn tokens(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
        .collect()
}

/// The exploration state a tour has built up: facet selections, numeric
/// ranges and keyword restrictions, in the order applied.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    pub filters: Vec<(String, String)>,
    pub zooms: Vec<(String, f64, f64)>,
    pub searches: Vec<String>,
}

/// Star-join solutions: entity → (population key, area key).
type StarSolutions = BTreeMap<u32, (String, String)>;

/// Indexes over a [`Model`] for answering, with memoized answers for
/// the queries a workload repeats.
pub struct Oracle<'m> {
    pub m: &'m Model,
    in_degree: Vec<u32>,
    links: Vec<Vec<u32>>,
    facets: OnceCell<Vec<(String, usize)>>,
    searches: RefCell<HashMap<String, Rc<BTreeSet<u32>>>>,
    sorted_values: RefCell<HashMap<String, Rc<Vec<f64>>>>,
    stars: RefCell<HashMap<(String, String), Rc<StarSolutions>>>,
}

impl<'m> Oracle<'m> {
    pub fn new(m: &'m Model) -> Oracle<'m> {
        let links_pred = m.pred_id(&pred_links());
        let mut in_degree = vec![0u32; m.rows.len()];
        let mut links = vec![Vec::new(); m.rows.len()];
        for (s, rows) in m.rows.iter().enumerate() {
            for (p, o) in rows {
                if let Obj::Entity(e) = o {
                    in_degree[*e as usize] += 1;
                    if Some(*p) == links_pred {
                        links[s].push(*e);
                    }
                }
            }
        }
        Oracle {
            m,
            in_degree,
            links,
            facets: OnceCell::new(),
            searches: RefCell::default(),
            sorted_values: RefCell::default(),
            stars: RefCell::default(),
        }
    }

    pub fn entities(&self) -> usize {
        self.m.rows.len()
    }

    pub fn links(&self, e: u32) -> &[u32] {
        &self.links[e as usize]
    }

    /// Objects of `(e, pred)`.
    fn objects<'a>(&'a self, e: usize, pred: &str) -> impl Iterator<Item = &'a Obj> + 'a {
        let p = self.m.pred_id(pred);
        self.m.rows[e]
            .iter()
            .filter(move |(q, _)| Some(*q) == p)
            .map(|(_, o)| o)
    }

    /// A literal's numeric value when its datatype is numeric.
    pub fn numeric(&self, o: &Obj) -> Option<f64> {
        let Obj::Lit { lex, dt } = o else {
            return None;
        };
        let local = self.m.dts[*dt as usize].strip_prefix(XSD)?;
        match local {
            "integer" | "int" | "long" => lex.trim().parse::<i64>().ok().map(|v| v as f64),
            "double" | "float" | "decimal" => lex.trim().parse::<f64>().ok(),
            _ => None,
        }
    }

    /// Class IRI → instance count, largest first, then by IRI.
    pub fn overview(&self) -> Vec<(String, usize)> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for e in 0..self.entities() {
            for o in self.objects(e, RDF_TYPE) {
                if let Obj::Iri(_) | Obj::Entity(_) = o {
                    *counts.entry(self.m.value_key(o)).or_insert(0) += 1;
                }
            }
        }
        let mut out: Vec<(String, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Facet predicates and their distinct-value counts, by predicate IRI.
    pub fn facets(&self) -> &[(String, usize)] {
        self.facets.get_or_init(|| self.compute_facets())
    }

    fn compute_facets(&self) -> Vec<(String, usize)> {
        let mut values: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
        for rows in &self.m.rows {
            for (p, o) in rows {
                values
                    .entry(self.m.preds[*p as usize].as_str())
                    .or_default()
                    .insert(self.m.value_key(o));
            }
        }
        values
            .into_iter()
            .filter(|(_, v)| (2..=MAX_FACET_VALUES).contains(&v.len()))
            .map(|(p, v)| (p.to_string(), v.len()))
            .collect()
    }

    /// Entities whose literals contain any token of `q`.
    pub fn search(&self, q: &str) -> Rc<BTreeSet<u32>> {
        if let Some(hit) = self.searches.borrow().get(q) {
            return Rc::clone(hit);
        }
        let found = Rc::new(self.compute_search(q));
        self.searches
            .borrow_mut()
            .insert(q.to_string(), Rc::clone(&found));
        found
    }

    fn compute_search(&self, q: &str) -> BTreeSet<u32> {
        let want: BTreeSet<String> = tokens(q).into_iter().collect();
        let mut out = BTreeSet::new();
        for (e, rows) in self.m.rows.iter().enumerate() {
            let hit = rows.iter().any(|(_, o)| match o {
                Obj::Lit { lex, .. } => tokens(lex).iter().any(|t| want.contains(t)),
                _ => false,
            });
            if hit {
                out.insert(e as u32);
            }
        }
        out
    }

    /// Size of the resource set a selection leaves.
    pub fn matching(&self, sel: &Selection) -> usize {
        let facets: BTreeSet<&str> = self.facets().iter().map(|(p, _)| p.as_str()).collect();
        let mut by_pred: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (p, v) in &sel.filters {
            by_pred.entry(p).or_default().insert(v);
        }
        let searches: Vec<Rc<BTreeSet<u32>>> =
            sel.searches.iter().map(|q| self.search(q)).collect();
        (0..self.entities())
            .filter(|&e| {
                by_pred.iter().all(|(p, vals)| {
                    facets.contains(p)
                        && self
                            .objects(e, p)
                            .any(|o| vals.contains(self.m.value_key(o).as_str()))
                }) && sel.zooms.iter().all(|(p, lo, hi)| {
                    self.objects(e, p)
                        .filter_map(|o| self.numeric(o))
                        .any(|v| v >= *lo && v < *hi)
                }) && searches.iter().all(|s| s.contains(&(e as u32)))
            })
            .count()
    }

    /// The resource view of entity `e`: its label, and how many triples
    /// have it as subject (forward) and as object (backward).
    pub fn details(&self, e: u32) -> (Option<String>, usize, usize) {
        let label = self.objects(e as usize, RDFS_LABEL).find_map(|o| match o {
            Obj::Lit { lex, .. } => Some(lex.to_string()),
            _ => None,
        });
        let forward = self.m.rows[e as usize].len();
        (label, forward, self.in_degree[e as usize] as usize)
    }

    /// Numeric values of `pred` (what a histogram over it bins).
    pub fn numeric_values(&self, pred: &str) -> usize {
        (0..self.entities())
            .map(|e| {
                self.objects(e, pred)
                    .filter(|o| self.numeric(o).is_some())
                    .count()
            })
            .sum()
    }

    /// `SELECT ?p ?o WHERE { <e> ?p ?o }` as sorted `p|o` binding keys
    /// (see [`binding_key`]).
    pub fn subject_rows(&self, e: u32) -> Vec<String> {
        let mut out: Vec<String> = self.m.rows[e as usize]
            .iter()
            .map(|(p, o)| format!("{}|{}", self.m.preds[*p as usize], self.obj_key(o)))
            .collect();
        out.sort();
        out
    }

    /// An object as `kind|value|datatype`, the shape [`binding_key`] reads
    /// from SPARQL JSON.
    pub fn obj_key(&self, o: &Obj) -> String {
        match o {
            Obj::Entity(_) | Obj::Iri(_) => format!("uri|{}|", self.m.value_key(o)),
            Obj::Lit { lex, dt } => format!("literal|{lex}|{}", self.m.dts[*dt as usize]),
        }
    }

    /// Rows of `?s <pred> ?v FILTER(?v >= lo && ?v < hi)`.
    pub fn range_count(&self, pred: &str, lo: f64, hi: f64) -> usize {
        let values = self.sorted_values(pred);
        values.partition_point(|v| *v < hi) - values.partition_point(|v| *v < lo)
    }

    fn sorted_values(&self, pred: &str) -> Rc<Vec<f64>> {
        if let Some(v) = self.sorted_values.borrow().get(pred) {
            return Rc::clone(v);
        }
        let mut values: Vec<f64> = (0..self.entities())
            .flat_map(|e| self.objects(e, pred).filter_map(|o| self.numeric(o)))
            .collect();
        values.sort_by(f64::total_cmp);
        let values = Rc::new(values);
        self.sorted_values
            .borrow_mut()
            .insert(pred.to_string(), Rc::clone(&values));
        values
    }

    /// `<e> linksTo ?b . ?b linksTo ?c` as sorted `(b, c)`.
    pub fn two_hop(&self, e: u32) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = self
            .links(e)
            .iter()
            .flat_map(|&b| self.links(b).iter().map(move |&c| (b, c)))
            .collect();
        out.sort_unstable();
        out
    }

    /// `<e> linksTo ?b . ?b linksTo ?c . ?c linksTo <e>` as sorted `(b, c)`.
    pub fn triangles(&self, e: u32) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = self
            .two_hop(e)
            .into_iter()
            .filter(|&(_, c)| self.links(c).contains(&e))
            .collect();
        out.dedup();
        out
    }

    /// Entities typed `class` in category `cat` that have a population
    /// and an area (the star join's solutions, keyed by entity).
    pub fn star(&self, class: &str, cat: &str) -> Rc<StarSolutions> {
        let key = (class.to_string(), cat.to_string());
        if let Some(hit) = self.stars.borrow().get(&key) {
            return Rc::clone(hit);
        }
        let found = Rc::new(self.compute_star(class, cat));
        self.stars.borrow_mut().insert(key, Rc::clone(&found));
        found
    }

    fn compute_star(&self, class: &str, cat: &str) -> StarSolutions {
        let mut out = BTreeMap::new();
        for e in 0..self.entities() {
            let has = |p: &str, v: &str| self.objects(e, p).any(|o| self.m.value_key(o) == v);
            if !(has(RDF_TYPE, class) && has(DCT_SUBJECT, cat)) {
                continue;
            }
            let pop = self.objects(e, &pred_population()).next();
            let area = self.objects(e, &pred_area()).next();
            if let (Some(pop), Some(area)) = (pop, area) {
                out.insert(e as u32, (self.obj_key(pop), self.obj_key(area)));
            }
        }
        out
    }
}

/// A SPARQL JSON binding (`{"type":…,"value":…,"datatype":…}`) as
/// `kind|value|datatype`.
pub fn binding_key(b: &crate::json::Json) -> Option<String> {
    let kind = b.get("type")?.as_str()?;
    let value = b.get("value")?.as_str()?;
    let dt = b.get("datatype").and_then(|d| d.as_str()).unwrap_or("");
    Some(format!("{kind}|{value}|{dt}"))
}

/// The entity number of an IRI binding value.
pub fn entity_of_binding(b: &crate::json::Json) -> Option<u32> {
    let v = b.get("value")?.as_str()?;
    v.strip_prefix(NS)?.strip_prefix("resource/E")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::entity_iri;
    use wodex_rdf::{Graph, Term, Triple};

    /// Four entities, hand-built so every answer below is countable by eye.
    fn model() -> Model {
        let mut g = Graph::new();
        let e = |i: u32| entity_iri(i);
        let facts = [
            (0, "City", 1, 100, "12.5"),
            (1, "City", 2, 250, "40.0"),
            (2, "Person", 1, 900, "7.25"),
            (3, "Film", 1, 300, "1.0"),
        ];
        for (i, class, cat, pop, area) in facts {
            g.insert(Triple::iri(&e(i), RDF_TYPE, Term::iri(class_iri(class))));
            g.insert(Triple::iri(
                &e(i),
                DCT_SUBJECT,
                Term::iri(category_iri(cat)),
            ));
            g.insert(Triple::iri(
                &e(i),
                RDFS_LABEL,
                Term::literal(format!("{class} {i}")),
            ));
            g.insert(Triple::iri(&e(i), &pred_population(), Term::integer(pop)));
            g.insert(Triple::iri(
                &e(i),
                &pred_area(),
                Term::double(area.parse().unwrap()),
            ));
        }
        // Links: 0→1, 1→2, 2→0 (a triangle), 0→3.
        for (a, b) in [(0, 1), (1, 2), (2, 0), (0, 3)] {
            g.insert(Triple::iri(&e(a), &pred_links(), Term::iri(e(b))));
        }
        Model::from_graph(&g, 4).unwrap()
    }

    #[test]
    fn overview_and_facets() {
        let m = model();
        let o = Oracle::new(&m);
        assert_eq!(
            o.overview(),
            vec![
                (class_iri("City"), 2),
                (class_iri("Film"), 1),
                (class_iri("Person"), 1)
            ]
        );
        // dcterms:subject has 2 values and rdf:type 3: both are facets.
        // Labels, populations and areas have 4 distinct values each, also
        // within the 2..=50 window; links have 4 distinct targets.
        let f = o.facets();
        assert!(f.contains(&(DCT_SUBJECT.to_string(), 2)));
        assert!(f.contains(&(RDF_TYPE.to_string(), 3)));
        assert!(f.contains(&(pred_links(), 4)));
    }

    #[test]
    fn selections_intersect() {
        let m = model();
        let o = Oracle::new(&m);
        let mut sel = Selection::default();
        assert_eq!(o.matching(&sel), 4);
        sel.filters.push((DCT_SUBJECT.to_string(), category_iri(1)));
        assert_eq!(o.matching(&sel), 3);
        sel.zooms.push((pred_population(), 100.0, 300.0));
        assert_eq!(o.matching(&sel), 1); // entity 0 (300 is excluded)
        sel.searches.push("PERSON city".to_string());
        assert_eq!(o.matching(&sel), 1);
        sel.searches.push("film".to_string());
        assert_eq!(o.matching(&sel), 0);
        assert_eq!(*o.search("film 2"), BTreeSet::from([2, 3])); // "Person 2" has token "2"
    }

    #[test]
    fn sparql_shaped_answers() {
        let m = model();
        let o = Oracle::new(&m);
        assert_eq!(o.range_count(&pred_population(), 250.0, 900.0), 2);
        assert_eq!(o.range_count(&pred_area(), 7.0, 13.0), 2);
        assert_eq!(o.two_hop(0), vec![(1, 2)]);
        assert_eq!(o.triangles(0), vec![(1, 2)]);
        assert_eq!(o.triangles(3), vec![]);
        let rows = o.subject_rows(3);
        assert_eq!(rows.len(), 5);
        assert!(rows.contains(&format!(
            "{}|literal|300|http://www.w3.org/2001/XMLSchema#integer",
            pred_population()
        )));
        let star = o.star(&class_iri("City"), &category_iri(1));
        assert_eq!(star.keys().copied().collect::<Vec<_>>(), vec![0]);
        assert_eq!(o.details(0), (Some("City 0".to_string()), 7, 1));
        assert_eq!(o.numeric_values(&pred_area()), 4);
    }

    #[test]
    fn binding_keys_match_object_keys() {
        let m = model();
        let o = Oracle::new(&m);
        let b = crate::json::parse(
            r#"{"type":"literal","value":"300","datatype":"http://www.w3.org/2001/XMLSchema#integer"}"#,
        )
        .unwrap();
        let pop = o.objects(3, &pred_population()).next().unwrap();
        assert_eq!(binding_key(&b).unwrap(), o.obj_key(pop));
        let u = crate::json::parse(&format!(r#"{{"type":"uri","value":"{}"}}"#, entity_iri(2)))
            .unwrap();
        assert_eq!(binding_key(&u).unwrap(), format!("uri|{}|", entity_iri(2)));
        assert_eq!(entity_of_binding(&u), Some(2));
    }
}
