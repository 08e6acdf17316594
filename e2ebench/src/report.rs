//! Run metadata, metric records, and reading Prometheus text.

use crate::json::quote;
use std::path::Path;

/// One reported number with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

impl Metric {
    pub fn line(&self) -> String {
        format!(
            "metric {} {} {} n={}",
            self.name, self.value, self.unit, self.samples
        )
    }

    pub fn json(&self) -> String {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(&self.name),
            json_num(self.value),
            quote(self.unit)
        )
    }
}

/// A number as JSON, with every digit Rust prints for it.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Facts about the host, the code and the run, printed beside the numbers.
pub struct Meta {
    pub fields: Vec<(String, String)>,
}

impl Meta {
    pub fn new() -> Meta {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines().find_map(|l| {
                    l.strip_prefix("model name")?
                        .split_once(':')
                        .map(|(_, v)| v.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".to_string());
        let mut m = Meta { fields: Vec::new() };
        m.add("nproc", nproc);
        m.add("cpu", cpu);
        m.add("commit", git_commit());
        m
    }

    pub fn add(&mut self, k: &str, v: impl ToString) {
        self.fields.push((k.to_string(), v.to_string()));
    }

    pub fn json(&self) -> String {
        let f: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect();
        format!("{{{}}}", f.join(", "))
    }
}

/// The checked-out commit, when the working directory is a git checkout.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Lines of Rust per crate: `crates/<name>/**.rs`, plus the root
/// package's `src` and `tests` as `wodex`.
pub fn loc_per_crate(root: &Path) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut root_loc = 0;
    for sub in ["src", "tests"] {
        root_loc += rust_lines(&root.join(sub));
    }
    out.push(("wodex".to_string(), root_loc));
    if let Ok(rd) = std::fs::read_dir(root.join("crates")) {
        let mut crates: Vec<_> = rd.flatten().filter(|e| e.path().is_dir()).collect();
        crates.sort_by_key(|e| e.file_name());
        for c in crates {
            out.push((
                c.file_name().to_string_lossy().into_owned(),
                rust_lines(&c.path()),
            ));
        }
    }
    out
}

fn rust_lines(dir: &Path) -> usize {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                rust_lines(&p)
            } else if p.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&p).map_or(0, |t| t.lines().count())
            } else {
                0
            }
        })
        .sum()
}

/// Prometheus text exposition, summed over label sets by series name.
pub struct Prom(Vec<(String, f64)>);

impl Prom {
    pub fn parse(text: &str) -> Prom {
        let mut v = Vec::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let (series, value) = match line.rsplit_once(' ') {
                Some(x) => x,
                None => continue,
            };
            let name = series.split('{').next().unwrap_or(series);
            if let Ok(x) = value.trim().parse::<f64>() {
                v.push((name.to_string(), x));
            }
        }
        Prom(v)
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, x)| x)
            .sum()
    }

    /// Mean of a seconds histogram in ms, with its count.
    pub fn mean_ms(&self, hist: &str) -> (f64, usize) {
        let n = self.sum(&format!("{hist}_count"));
        let s = self.sum(&format!("{hist}_sum"));
        if n > 0.0 {
            (s / n * 1e3, n as usize)
        } else {
            (0.0, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_sums_label_sets() {
        let p = Prom::parse(
            "# HELP x y\nwodex_serve_shed_total{gate=\"a\"} 2\nwodex_serve_shed_total{gate=\"b\"} 3\nh_seconds_sum 0.5\nh_seconds_count 4\n",
        );
        assert_eq!(p.sum("wodex_serve_shed_total"), 5.0);
        assert_eq!(p.mean_ms("h_seconds"), (125.0, 4));
        assert_eq!(p.mean_ms("missing"), (0.0, 0));
    }

    #[test]
    fn metric_json_keeps_digits() {
        let m = metric("p50_ms", 1.2034567891, "ms", 10);
        assert_eq!(
            m.json(),
            "\"p50_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}"
        );
        assert!(m.line().ends_with("n=10"));
    }
}
