//! Dataset preparation: the scale rungs, their on-disk segment stores,
//! and the benchmark's own model of the generated triples.
//!
//! A rung is a `wodex-synth` DBpedia-like graph generated from the
//! workload seed. It is written as N-Triples and bulk-loaded with
//! `wodex load` once per (rung, seed) into a cache directory; every run
//! then serves a fresh copy, so writes or compaction from one run never
//! reach the next. A cache entry records a fingerprint of the `wodex`
//! binary that loaded it and of the harness that generated the graph,
//! and is loaded again when either differs, so a run never serves a
//! store another build wrote. None of this is timed.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use wodex_rdf::{Graph, Term};

/// Namespace the generator mints IRIs in.
pub const NS: &str = "http://dbp.example.org/";
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
pub const RDFS_LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
pub const DCT_SUBJECT: &str = "http://purl.org/dc/terms/subject";

/// The scale ladder. Entities are the generator's knob; each yields
/// about 9.8 triples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// 300 entities, for the benchmark's own smoke tests.
    Tiny,
    /// 10k entities, about 98k triples.
    K100,
    /// 100k entities, about 982k triples.
    M1,
}

impl Rung {
    pub fn entities(self) -> usize {
        match self {
            Rung::Tiny => 300,
            Rung::K100 => 10_000,
            Rung::M1 => 100_000,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Rung::Tiny => "tiny",
            Rung::K100 => "100k",
            Rung::M1 => "1m",
        }
    }
}

/// A prepared rung: the cached store plus its sizes.
pub struct Prepared {
    pub seg_dir: PathBuf,
    pub triples: usize,
    pub nt_bytes: u64,
    pub stored_bytes: u64,
}

/// Generates the rung's graph for `seed`.
pub fn generate(rung: Rung, seed: u64) -> Graph {
    wodex_synth::dbpedia::generate(&wodex_synth::dbpedia::DbpediaConfig {
        entities: rung.entities(),
        namespace: NS.to_string(),
        seed,
        ..Default::default()
    })
}

/// Returns the cached segment store for (rung, seed), bulk-loading
/// `graph` with `wodex load` first if it is not cached yet.
pub fn prepare(
    work: &Path,
    wodex: &Path,
    rung: Rung,
    seed: u64,
    graph: &Graph,
) -> Result<Prepared, String> {
    let dir = work.join("data").join(format!("{}-s{seed}", rung.name()));
    let info_path = dir.join("info.txt");
    let fingerprint = fingerprint(wodex)?;
    let cached = read_info(&info_path).filter(|nums| nums[0] == fingerprint);
    if cached.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let nt = dir.join("data.nt");
        write_ntriples(graph, &nt)?;
        let nt_bytes = std::fs::metadata(&nt).map_err(|e| e.to_string())?.len();
        let out = Command::new(wodex)
            .arg("load")
            .arg(&nt)
            .arg("--out")
            .arg(dir.join("seg"))
            .output()
            .map_err(|e| format!("cannot run {}: {e}", wodex.display()))?;
        if !out.status.success() {
            return Err(format!(
                "wodex load failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        std::fs::remove_file(&nt).map_err(|e| e.to_string())?;
        let stored = dir_bytes(&dir.join("seg"));
        // The info file is written last: its presence marks a complete cache entry.
        std::fs::write(
            &info_path,
            format!("{fingerprint}\n{}\n{nt_bytes}\n{stored}\n", graph.len()),
        )
        .map_err(|e| e.to_string())?;
    }
    let [_, triples, nt_bytes, stored_bytes] =
        read_info(&info_path).ok_or_else(|| format!("corrupt {}", info_path.display()))?;
    Ok(Prepared {
        seg_dir: dir.join("seg"),
        triples: triples as usize,
        nt_bytes,
        stored_bytes,
    })
}

/// A cache entry's info file: fingerprint, triples, N-Triples bytes,
/// stored bytes.
fn read_info(path: &Path) -> Option<[u64; 4]> {
    parse_info(&std::fs::read_to_string(path).ok()?)
}

fn parse_info(text: &str) -> Option<[u64; 4]> {
    let nums: Vec<u64> = text
        .lines()
        .map(|l| l.parse().ok())
        .collect::<Option<_>>()?;
    nums.try_into().ok()
}

/// A hash of the `wodex` binary (its loader and segment format) and of
/// this harness's own executable (its graph generator).
fn fingerprint(wodex: &Path) -> Result<u64, String> {
    use std::hash::Hasher;
    let me = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
    let mut h = std::hash::DefaultHasher::new();
    for path in [wodex, me.as_path()] {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        h.write(&bytes);
    }
    Ok(h.finish())
}

fn write_ntriples(graph: &Graph, path: &Path) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(f);
    let mut line = String::new();
    for t in graph.iter() {
        line.clear();
        wodex_rdf::ntriples::serialize_triple(t, &mut line);
        w.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())
}

/// Copies a directory tree (the segment store is flat, but be general).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// An object as the model keeps it.
#[derive(Debug, Clone, PartialEq)]
pub enum Obj {
    /// One of the generated entities, by number.
    Entity(u32),
    /// Any other IRI (classes, categories), interned.
    Iri(u32),
    /// A literal: lexical form and interned datatype (0 = none).
    Lit { lex: Box<str>, dt: u16 },
}

/// The generated triples, grouped by subject entity, with predicates,
/// non-entity IRIs and datatypes interned. The answer oracle works on
/// this alone.
pub struct Model {
    pub preds: Vec<String>,
    pub iris: Vec<String>,
    /// Datatype IRIs; index 0 is the empty string (no datatype).
    pub dts: Vec<String>,
    /// `rows[e]` = every `(predicate, object)` of entity `e`.
    pub rows: Vec<Vec<(u16, Obj)>>,
}

pub fn entity_iri(e: u32) -> String {
    format!("{NS}resource/E{e}")
}

fn entity_of(iri: &str) -> Option<u32> {
    iri.strip_prefix(NS)?
        .strip_prefix("resource/E")?
        .parse()
        .ok()
}

struct Interner {
    items: Vec<String>,
    index: HashMap<String, usize>,
}

impl Interner {
    fn new() -> Interner {
        Interner {
            items: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn id(&mut self, s: &str) -> usize {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        self.items.push(s.to_string());
        self.index.insert(s.to_string(), self.items.len() - 1);
        self.items.len() - 1
    }
}

impl Model {
    /// Builds the model from the generated graph. Every subject must be
    /// an entity IRI and every predicate an IRI, as the generator makes.
    pub fn from_graph(g: &Graph, entities: usize) -> Result<Model, String> {
        let mut preds = Interner::new();
        let mut iris = Interner::new();
        let mut dts = Interner::new();
        dts.id("");
        let mut rows: Vec<Vec<(u16, Obj)>> = vec![Vec::new(); entities];
        for t in g.iter() {
            let s = t
                .subject
                .as_iri()
                .and_then(|i| entity_of(i.as_str()))
                .filter(|&e| (e as usize) < entities)
                .ok_or_else(|| format!("unexpected subject {}", t.subject))?;
            let p = t
                .predicate
                .as_iri()
                .ok_or_else(|| format!("unexpected predicate {}", t.predicate))?;
            let o = match &t.object {
                Term::Iri(i) => match entity_of(i.as_str()) {
                    Some(e) => Obj::Entity(e),
                    None => Obj::Iri(iris.id(i.as_str()) as u32),
                },
                Term::Literal(l) => Obj::Lit {
                    lex: l.lexical().into(),
                    dt: dts.id(l.datatype().map_or("", |d| d.as_str())) as u16,
                },
                other => return Err(format!("unexpected object {other}")),
            };
            rows[s as usize].push((preds.id(p.as_str()) as u16, o));
        }
        Ok(Model {
            preds: preds.items,
            iris: iris.items,
            dts: dts.items,
            rows,
        })
    }

    pub fn pred_id(&self, iri: &str) -> Option<u16> {
        self.preds.iter().position(|p| p == iri).map(|i| i as u16)
    }

    /// The facet value key of an object: the IRI, or the literal's
    /// lexical form.
    pub fn value_key(&self, o: &Obj) -> String {
        match o {
            Obj::Entity(e) => entity_iri(*e),
            Obj::Iri(i) => self.iris[*i as usize].clone(),
            Obj::Lit { lex, .. } => lex.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_holds_exactly_four_numbers() {
        assert_eq!(parse_info("7\n100\n2000\n300\n"), Some([7, 100, 2000, 300]));
        // An entry without a fingerprint is not reused.
        assert_eq!(parse_info("100\n2000\n300\n"), None);
        assert_eq!(parse_info("7\n100\nx\n300\n"), None);
    }
}
