//! End-to-end and per-layer benchmark for `wodex serve`.
//!
//! ```text
//! e2ebench --workload explore|sparql|write --seed N --seconds S --trace 0|1
//!          --wodex PATH [--rung tiny|100k|1m] [--work DIR]
//! ```
//!
//! One run prepares the workload's rung (outside any timing), boots
//! `wodex serve seg:<dir>` several times to time set-up, drives the last
//! boot with two closed-loop clients, checks every answer against the
//! benchmark's own oracle, and prints a report followed by one JSON
//! line. With `--trace 1` it then replays the same seeded operations
//! in-process with a span around each layer call and reports the
//! per-layer metrics instead. See README.md for every metric.

mod data;
mod http;
mod json;
mod oracle;
mod report;
mod server;
mod spans;
mod stats;
mod trace;
mod workloads;

use data::{Model, Rung};
use oracle::Oracle;
use report::{metric, Meta, Metric, Prom};
use server::Server;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workloads::{Draws, Kind, Sample, Script};

/// Closed-loop clients, each with one connection open at a time.
const CLIENTS: usize = 2;
/// Boots per run; `setup_s` is their median and the last one serves.
const BOOTS: usize = 3;
/// The percentile behind `tail_ms`. Not p99: on a shared 2-CPU host it
/// moves by a third between runs of the same code. A run with fewer than
/// ten samples beyond p95 is refused rather than reported.
const TAIL_P: f64 = 95.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Explore,
    Sparql,
    Write,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "explore" => Some(Workload::Explore),
            "sparql" => Some(Workload::Sparql),
            "write" => Some(Workload::Write),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Sparql => "sparql",
            Workload::Write => "write",
        }
    }

    fn rung(self) -> Rung {
        match self {
            Workload::Explore | Workload::Sparql => Rung::M1,
            Workload::Write => Rung::K100,
        }
    }

    /// Latencies behind `p50_ms` and `tail_ms`, and a second family the
    /// report prints beside them.
    fn primary(self, k: Kind) -> bool {
        match self {
            Workload::Explore => k.is_step(),
            Workload::Sparql => k.is_sparql(),
            Workload::Write => k == Kind::Commit,
        }
    }

    fn aux(self, k: Kind) -> bool {
        match self {
            Workload::Explore => k == Kind::Open,
            Workload::Sparql => k == Kind::Lookup,
            Workload::Write => k.is_sparql(),
        }
    }

    /// Report names of the primary and auxiliary latencies.
    fn latency_names(self) -> (&'static str, &'static str) {
        match self {
            Workload::Explore => ("step", "open"),
            Workload::Sparql => ("query", "lookup"),
            Workload::Write => ("commit", "query"),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    wodex: PathBuf,
    rung: Rung,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload")
        .and_then(|w| Workload::parse(&w))
        .ok_or("--workload must be explore, sparql or write")?;
    let num = |v: Option<String>, flag: &str| -> Result<u64, String> {
        v.ok_or(format!("missing {flag}"))?
            .parse::<u64>()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let seed = num(get("--seed"), "--seed")?;
    let seconds = num(get("--seconds"), "--seconds")?.max(1);
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return Err("--trace must be 0 or 1".into()),
    };
    let wodex = PathBuf::from(get("--wodex").ok_or("missing --wodex <path to the wodex binary>")?);
    let rung = match get("--rung").as_deref() {
        None => workload.rung(),
        Some("tiny") => Rung::Tiny,
        Some("100k") => Rung::K100,
        Some("1m") => Rung::M1,
        Some(r) => return Err(format!("unknown rung {r}")),
    };
    let work = PathBuf::from(get("--work").unwrap_or_else(|| ".e2ebench".into()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        wodex,
        rung,
        work,
    })
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a)) {
        Ok(correct) => i32::from(!correct),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// The clients' scripts for a workload, and which of them repeat until
/// the others finish.
struct Scripts {
    scripts: Vec<Script>,
    cyclic: Vec<bool>,
    /// Client 0 is the writer; kill and restart the server after the run.
    crash_probe: bool,
}

fn scripts(w: Workload, o: &Oracle, seed: u64, seconds: u64) -> Scripts {
    let seconds = seconds as usize;
    match w {
        Workload::Explore => Scripts {
            scripts: (0..CLIENTS)
                .map(|c| {
                    workloads::explore_script(
                        o,
                        &mut Draws::new(o, seed, 10 + c as u64),
                        seconds,
                        c,
                    )
                })
                .collect(),
            cyclic: vec![false; CLIENTS],
            crash_probe: false,
        },
        Workload::Sparql => Scripts {
            scripts: (0..CLIENTS)
                .map(|c| {
                    workloads::sparql_script(
                        o,
                        &mut Draws::new(o, seed, 20 + c as u64),
                        300 * seconds,
                    )
                })
                .collect(),
            cyclic: vec![false; CLIENTS],
            crash_probe: false,
        },
        Workload::Write => {
            let plan = workloads::write_plan(o, &mut Draws::new(o, seed, 30), seed, 30 * seconds);
            let reader =
                workloads::reader_script(o, &mut Draws::new(o, seed, 31), &plan.written, 4096);
            Scripts {
                scripts: vec![plan.commits, reader],
                cyclic: vec![false, true],
                crash_probe: true,
            }
        }
    }
}

/// Everything the HTTP phase of a run measured.
struct Phase {
    samples: Vec<Sample>,
    seconds: f64,
    setups: Vec<f64>,
    rss_setup_mb: f64,
    rss_peak_mb: f64,
    cpu_ms: f64,
    stats: json::Json,
    prom: Prom,
    wal_bytes: f64,
    lost_write_frac: Option<(f64, usize)>,
}

fn run(a: &Args) -> Result<bool, String> {
    let mut meta = Meta::new();
    meta.add("workload", a.workload.name());
    meta.add("seed", a.seed);
    meta.add("seconds", a.seconds);
    meta.add("trace", u8::from(a.trace));
    meta.add("rung", a.rung.name());
    meta.add("entities", a.rung.entities());
    meta.add("clients", CLIENTS);
    meta.add("workers", server::WORKERS);
    meta.add("boots", BOOTS);

    // Preparation, outside every timing: the rung, its store, the oracle.
    let graph = data::generate(a.rung, a.seed);
    let prepared = data::prepare(&a.work, &a.wodex, a.rung, a.seed, &graph)?;
    let model = Model::from_graph(&graph, a.rung.entities())?;
    drop(graph);
    meta.add("triples", prepared.triples);
    meta.add("nt_bytes", prepared.nt_bytes);
    meta.add("stored_bytes", prepared.stored_bytes);
    let oracle = Oracle::new(&model);
    let sc = scripts(a.workload, &oracle, a.seed, a.seconds);
    let run_dir = a.work.join("run");
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;

    let phase = http_phase(a, &prepared, &sc, &run_dir)?;
    let mut report: Vec<String> = Vec::new();
    let (e2e, correct, attempted, failed) = end_to_end(a.workload, &phase, &mut report);
    if let Some(m) = e2e.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{} has too few samples ({}); run longer with --seconds",
            m.name, m.samples
        ));
    }
    let metrics = if a.trace {
        let layers = per_layer(a, &oracle, &sc, &phase, &prepared, &run_dir, &mut report)?;
        for m in &e2e {
            report.push(m.line());
        }
        layers
    } else {
        e2e
    };
    let _ = std::fs::remove_dir_all(&run_dir);

    println!(
        "# e2ebench {} seed={} trace={}",
        a.workload.name(),
        a.seed,
        u8::from(a.trace)
    );
    for (k, v) in &meta.fields {
        println!("meta {k}={v}");
    }
    let loc = report::loc_per_crate(Path::new("."));
    println!(
        "loc {}",
        loc.iter()
            .map(|(c, n)| format!("{c}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for line in &report {
        println!("{line}");
    }
    for m in &metrics {
        println!("{}", m.line());
    }
    let body = metrics
        .iter()
        .map(Metric::json)
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
    let out_dir = a.work.join("out");
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let stem = format!(
            "{}-s{}-trace{}",
            a.workload.name(),
            a.seed,
            u8::from(a.trace)
        );
        let full = format!("{{\"meta\": {}, \"result\": {result}}}\n", meta.json());
        let _ = std::fs::write(out_dir.join(format!("{stem}.json")), full);
        let mut tsv = String::from("client\tindex\tkind\tms\tok\n");
        for s in &phase.samples {
            tsv.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                s.client,
                s.index,
                s.kind.name(),
                s.ms,
                s.ok
            ));
        }
        let _ = std::fs::write(out_dir.join(format!("{stem}.samples.tsv")), tsv);
    }
    println!("{result}");
    Ok(correct)
}

/// Boots the server `BOOTS` times on fresh copies of the store, drives
/// the last boot with the clients, and (on `write`) runs the crash probe.
fn http_phase(
    a: &Args,
    prepared: &data::Prepared,
    sc: &Scripts,
    run_dir: &Path,
) -> Result<Phase, String> {
    let mut setups = Vec::new();
    let mut serving = None;
    for b in 0..BOOTS {
        let dir = run_dir.join(format!("seg{b}"));
        data::copy_dir(&prepared.seg_dir, &dir)?;
        let s = Server::start(&a.wodex, &dir, &run_dir.join(format!("server{b}.log")))?;
        setups.push(s.setup_s);
        if b + 1 < BOOTS {
            s.kill();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            serving = Some((s, dir));
        }
    }
    let (srv, dir) = serving.expect("at least one boot");
    let pid = srv.pid();
    let addr = srv.addr;
    let kb = |f: &str| server::status_kb(pid, f).map_or(0.0, |k| k as f64 / 1024.0);
    let rss_setup_mb = kb("VmRSS");
    let cpu0 = server::cpu_ms(pid).unwrap_or(0.0);
    let dir0 = data::dir_bytes(&dir);

    // A safety stop so a run ends well within its time limit even when
    // the server stalls; operations not sent by then count as dropped.
    let deadline = Instant::now() + Duration::from_secs((6 * a.seconds).max(30));
    let stop = AtomicBool::new(false);
    let opens = sc
        .scripts
        .iter()
        .filter(|s| s.first().is_some_and(|op| op.kind == Kind::Open))
        .count();
    let opened = std::sync::Barrier::new(opens);
    let t0 = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = sc
            .scripts
            .iter()
            .zip(&sc.cyclic)
            .enumerate()
            .map(|(c, (script, &cyclic))| {
                let (stop, opened) = (&stop, &opened);
                scope.spawn(move || {
                    let r = workloads::run_client(
                        addr,
                        c,
                        script,
                        cyclic.then_some(stop),
                        opened,
                        deadline,
                    );
                    if !cyclic {
                        stop.store(true, Ordering::SeqCst);
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let seconds = t0.elapsed().as_secs_f64();
    let cpu_ms = server::cpu_ms(pid).unwrap_or(0.0) - cpu0;
    let timeout = Duration::from_secs(30);
    let stats = http::get(addr, "/stats", timeout)
        .ok()
        .and_then(|r| json::parse(&r.text()).ok())
        .unwrap_or(json::Json::Null);
    let prom = Prom::parse(
        &http::get(addr, "/metrics", timeout)
            .map(|r| r.text())
            .unwrap_or_default(),
    );
    let rss_peak_mb = kb("VmHWM");
    let wal_bytes = data::dir_bytes(&dir) as f64 - dir0 as f64;

    // Process crash: SIGKILL, restart on the same directory, and read
    // back every acknowledged write.
    srv.kill();
    let lost_write_frac = if sc.crash_probe {
        let again = Server::start(&a.wodex, &dir, &run_dir.join("restart.log"))?;
        let back = workloads::read_back(again.addr);
        again.kill();
        let back = back?;
        let (live, deleted) = acknowledged(&sc.scripts[0], &samples);
        let resurrected = deleted.intersection(&back).count();
        let missing = live.difference(&back).count();
        let checked = live.len() + resurrected;
        let frac = if checked == 0 {
            0.0
        } else {
            (missing + resurrected) as f64 / checked as f64
        };
        Some((frac, checked))
    } else {
        None
    };
    Ok(Phase {
        samples,
        seconds,
        setups,
        rss_setup_mb,
        rss_peak_mb,
        cpu_ms,
        stats,
        prom,
        wal_bytes,
        lost_write_frac,
    })
}

/// The triples acknowledged writes leave live, and those they deleted.
fn acknowledged(commits: &Script, samples: &[Sample]) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut live = BTreeSet::new();
    let mut deleted = BTreeSet::new();
    let mut acked: Vec<&Sample> = samples.iter().filter(|s| s.client == 0 && s.ok).collect();
    acked.sort_by_key(|s| s.index);
    for s in acked {
        if let workloads::Args::Write { nt, delete } = &commits[s.index].args {
            for line in nt.lines() {
                if *delete {
                    live.remove(line);
                    deleted.insert(line.to_string());
                } else {
                    live.insert(line.to_string());
                }
            }
        }
    }
    (live, deleted)
}

fn ms_of(samples: &[Sample], keep: impl Fn(Kind) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok && keep(s.kind))
        .map(|s| s.ms)
        .collect()
}

/// The end-to-end metrics (the JSON ones first), report lines for the
/// named per-workload latencies, and the correctness tallies.
fn end_to_end(
    w: Workload,
    p: &Phase,
    report: &mut Vec<String>,
) -> (Vec<Metric>, bool, usize, usize) {
    let attempted = p.samples.len();
    let failed = p.samples.iter().filter(|s| !s.ok).count();
    let wrong = p.samples.iter().filter(|s| s.wrong).count();
    let ok = attempted - failed;
    let checked = p.samples.iter().filter(|s| s.ok || s.wrong).count();
    report.push(format!(
        "answers checked={checked} wrong={wrong} failed={failed}"
    ));
    for s in p.samples.iter().filter(|s| !s.ok).take(5) {
        report.push(format!(
            "failure {} client={} op={}: {}",
            s.kind.name(),
            s.client,
            s.index,
            s.why
        ));
    }
    // `share` is the kind's part of all time the clients spent waiting on
    // answers: it shows which layers the fixed mix actually loads.
    let kinds: BTreeSet<Kind> = p.samples.iter().map(|s| s.kind).collect();
    let busy: f64 = ms_of(&p.samples, |_| true).iter().sum();
    for k in kinds {
        let v = ms_of(&p.samples, |x| x == k);
        let q = |x: f64| stats::percentile(&v, x).map_or("-".to_string(), |q| q.value.to_string());
        report.push(format!(
            "latency {} n={} share={:.3} p50_ms={} p90_ms={}",
            k.name(),
            v.len(),
            v.iter().sum::<f64>() / busy,
            q(50.0),
            q(90.0)
        ));
    }
    let primary = ms_of(&p.samples, |k| w.primary(k));
    let aux = ms_of(&p.samples, |k| w.aux(k));
    let (pname, aname) = w.latency_names();
    let median_of = |v: &[f64]| stats::percentile(v, 50.0).map_or(f64::NAN, |q| q.value);
    let tail = stats::percentile(&primary, TAIL_P).map_or(f64::NAN, |q| q.value);
    let out = vec![
        metric("setup_s", stats::median(&p.setups), "s", p.setups.len()),
        metric("rss_peak_mb", p.rss_peak_mb, "MB", 1),
        metric("ops_per_s", ok as f64 / p.seconds, "1/s", ok),
        metric("p50_ms", median_of(&primary), "ms", primary.len()),
        metric("tail_ms", tail, "ms", primary.len()),
    ];
    // The same numbers under their per-workload names, plus the rest.
    let mut named = vec![
        metric(
            &format!("{pname}_p50_ms"),
            out[3].value,
            "ms",
            primary.len(),
        ),
        metric(
            &format!("{pname}_p{TAIL_P}_ms"),
            out[4].value,
            "ms",
            primary.len(),
        ),
        metric(&format!("{aname}_p50_ms"), median_of(&aux), "ms", aux.len()),
    ];
    if let Ok(v) = stats::percentile(&aux, TAIL_P) {
        named.push(metric(
            &format!("{aname}_p{TAIL_P}_ms"),
            v.value,
            "ms",
            v.samples,
        ));
    }
    named.push(metric(
        "fail_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted,
    ));
    for m in &named {
        report.push(m.line());
    }
    if let Some((frac, n)) = p.lost_write_frac {
        report.push(metric("lost_write_frac", frac, "ratio", n).line());
        report.push(
            "note lost_write_frac checks process-crash durability only (SIGKILL and restart); \
             the OS page cache is not dropped"
                .to_string(),
        );
    }
    for v in &p.setups {
        report.push(format!("setup_sample_s {v}"));
    }
    (out, wrong == 0, attempted, failed)
}

/// Operations replayed only to exercise a layer, paired with no request.
fn probe(ops: &[workloads::Op]) -> Vec<trace::ReplayOp<'_>> {
    ops.iter()
        .map(|op| trace::ReplayOp { origin: None, op })
        .collect()
}

/// The traced replay and the per-layer metrics.
fn per_layer(
    a: &Args,
    o: &Oracle,
    sc: &Scripts,
    p: &Phase,
    prepared: &data::Prepared,
    run_dir: &Path,
    report: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    use trace::ReplayOp;
    let seed = a.seed;
    let probe_explore = workloads::explore_script(o, &mut Draws::new(o, seed, 40), 1, 0);
    let probe_sparql = workloads::sparql_script(o, &mut Draws::new(o, seed, 41), 50);
    let probe_commits = workloads::write_plan(o, &mut Draws::new(o, seed, 42), seed, 8).commits;
    // Replay exactly the operations each client sent, in its order.
    let sent = |c: usize| -> Vec<ReplayOp> {
        let mut seq: Vec<&Sample> = p.samples.iter().filter(|s| s.client == c).collect();
        seq.sort_by_key(|s| s.index);
        let script = &sc.scripts[c];
        seq.into_iter()
            .map(|s| ReplayOp {
                origin: Some((c, s.index)),
                op: &script[s.index % script.len()],
            })
            .filter(|r| r.op.kind != Kind::Subscribe)
            .collect()
    };
    let plan = match a.workload {
        Workload::Explore => trace::Plan {
            sessions: (0..CLIENTS).map(sent).collect(),
            stateless: [probe(&probe_sparql), probe(&probe_commits)]
                .into_iter()
                .flatten()
                .collect(),
        },
        Workload::Sparql => trace::Plan {
            sessions: vec![probe(&probe_explore)],
            stateless: [(0..CLIENTS).flat_map(sent).collect(), probe(&probe_commits)]
                .into_iter()
                .flatten()
                .collect(),
        },
        Workload::Write => {
            // Commits interleaved with the reads that ran beside them.
            let commits = sent(0);
            let reads = sent(1);
            let mut mixed = Vec::new();
            let mut r = reads.into_iter().peekable();
            let n = commits.len().max(1);
            let total_reads = r.len();
            for (i, c) in commits.into_iter().enumerate() {
                mixed.push(c);
                while mixed.len() - (i + 1) < (i + 1) * total_reads / n {
                    match r.next() {
                        Some(x) => mixed.push(x),
                        None => break,
                    }
                }
            }
            mixed.extend(r);
            trace::Plan {
                sessions: vec![probe(&probe_explore)],
                stateless: [mixed, probe(&probe_sparql)]
                    .into_iter()
                    .flatten()
                    .collect(),
            }
        }
    };
    let dir = run_dir.join("seg-trace");
    data::copy_dir(&prepared.seg_dir, &dir)?;
    let rep = trace::replay(&dir, &plan)?;
    let spans_path = a
        .work
        .join("out")
        .join(format!("{}-s{seed}.spans.tsv", a.workload.name()));
    if std::fs::create_dir_all(a.work.join("out")).is_ok() {
        if let Ok(f) = std::fs::File::create(&spans_path) {
            let mut w = std::io::BufWriter::new(f);
            rep.tracer.write_tsv(&mut w).map_err(|e| e.to_string())?;
        }
    }
    let means = trace::layer_means(&rep.tracer);
    let self_ns = spans::self_times(rep.tracer.spans());

    // Coverage: per paired op, the layer spans' share of its latency.
    let mut by_kind: std::collections::BTreeMap<Kind, (f64, f64, usize)> = Default::default();
    let mut remainders = Vec::new();
    let mut sparql_remainders = Vec::new();
    for s in p.samples.iter().filter(|s| s.ok) {
        let Some(&root) = rep.roots.get(&(s.client, s.index)) else {
            continue;
        };
        let covered = trace::covered_ms(&rep.tracer, &self_ns, root);
        let e = by_kind.entry(s.kind).or_default();
        e.0 += covered;
        e.1 += s.ms;
        e.2 += 1;
        remainders.push(s.ms - covered);
        if s.kind.is_sparql() {
            sparql_remainders.push(s.ms - covered);
        }
    }
    let (mut cov, mut e2e, mut n) = (0.0, 0.0, 0);
    for (k, (c, l, m)) in &by_kind {
        report.push(format!(
            "coverage {} {} n={m} traced_ms={} e2e_ms={} untraced_ms={}",
            k.name(),
            c / l,
            c / *m as f64,
            l / *m as f64,
            (l - c) / *m as f64
        ));
        cov += c;
        e2e += l;
        n += m;
    }
    report.push(format!(
        "trace untraced remainder (HTTP, queueing, glue): {} ms per op over {n} ops",
        (e2e - cov) / n.max(1) as f64
    ));

    let layer = |name: &str| means.get(name).copied().unwrap_or((0.0, 0));
    let in_proc = Prom::parse(&wodex_obs::render_prometheus(wodex_obs::global()));
    // A count from the server when the HTTP run exercised it, else from
    // this process's registry after the replay's probes.
    let mut sources = Vec::new();
    let mut ratio = |num: &str, den: &str| -> (f64, usize) {
        for (src, prom) in [("server", &p.prom), ("replay", &in_proc)] {
            let d = prom.sum(den);
            if d > 0.0 {
                sources.push(format!("source {num}/{den} from the {src} registry"));
                return (prom.sum(num) / d, d as usize);
            }
        }
        (0.0, 0)
    };
    let mut out = Vec::new();
    let mut add =
        |name: &str, (v, n): (f64, usize), unit: &'static str| out.push(metric(name, v, unit, n));
    add("serve.bind_ms", layer("serve.bind"), "ms");
    add(
        "serve.queue_wait_ms",
        p.prom.mean_ms("wodex_serve_queue_wait_seconds"),
        "ms",
    );
    add(
        "serve.request_ms",
        p.prom.mean_ms("wodex_serve_request_seconds"),
        "ms",
    );
    let overhead = if sparql_remainders.is_empty() {
        &remainders
    } else {
        &sparql_remainders
    };
    add(
        "serve.overhead_ms",
        (stats::median(overhead), overhead.len()),
        "ms",
    );
    let sm = &rep.session_mb;
    add(
        "serve.session_mb",
        (sm.iter().sum::<f64>() / sm.len().max(1) as f64, sm.len()),
        "MB",
    );
    let shed = ["shed_queue_full", "shed_queue_wait"]
        .iter()
        .filter_map(|k| p.stats.path(&["requests", k]).and_then(json::Json::as_f64))
        .sum::<f64>();
    add("serve.shed", (shed, p.samples.len()), "count");
    add("seg.open_ms", layer("seg.open"), "ms");
    let (hits, lookups) = (
        p.prom.sum("wodex_segcache_hits_total"),
        p.prom.sum("wodex_segcache_lookups_total"),
    );
    add(
        "seg.cache_hit_ratio",
        (
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            lookups as usize,
        ),
        "ratio",
    );
    add(
        "seg.cache_evictions",
        (p.prom.sum("wodex_segcache_evictions_total"), 1),
        "count",
    );
    add(
        "seg.blocks_read",
        (p.prom.sum("wodex_seg_blocks_read_total"), 1),
        "count",
    );
    let commits = p
        .samples
        .iter()
        .filter(|s| s.ok && s.kind == Kind::Commit)
        .count();
    add(
        "seg.wal_bytes_per_commit",
        (
            if commits > 0 {
                p.wal_bytes / commits as f64
            } else {
                0.0
            },
            commits,
        ),
        "B",
    );
    add("core.from_store_ms", layer("core.from_store"), "ms");
    add(
        "explore.session_build_ms",
        layer("explore.session_build"),
        "ms",
    );
    for step in [
        "overview", "facets", "filter", "zoom", "search", "hits", "details", "undo",
    ] {
        add(
            &format!("explore.{step}_ms"),
            layer(&format!("explore.{step}")),
            "ms",
        );
    }
    add("viz.chart_ms", layer("viz.chart"), "ms");
    add("approx.hist_ms", layer("approx.hist"), "ms");
    for stage in [
        "parse",
        "plan",
        "bgp_probe",
        "filter",
        "decode",
        "serialize",
    ] {
        add(
            &format!("sparql.{stage}_ms"),
            layer(&format!("sparql.{stage}")),
            "ms",
        );
    }
    add(
        "sparql.probed_per_row",
        (
            rep.probed as f64 / rep.rows.max(1) as f64,
            rep.rows as usize,
        ),
        "ratio",
    );
    let plan_cache = ratio(
        "wodex_plan_cache_hits_total",
        "wodex_plan_cache_lookups_total",
    );
    add("sparql.plan_cache_hit_ratio", plan_cache, "ratio");
    add("store.commit_ms", layer("store.commit"), "ms");
    let flattens = ratio("wodex_mvcc_flattens_total", "wodex_mvcc_commits_total");
    add("store.flattens_per_commit", flattens, "ratio");
    add("store.snapshot_ms", layer("store.snapshot"), "ms");
    add("rdf.parse_ms", layer("rdf.parse"), "ms");
    let tq = p.prom.mean_ms("wodex_exec_task_queue_seconds");
    add(
        "exec.task_queue_ms",
        if tq.1 > 0 {
            tq
        } else {
            in_proc.mean_ms("wodex_exec_task_queue_seconds")
        },
        "ms",
    );
    let ops = p.samples.iter().filter(|s| s.ok).count();
    add(
        "proc.cpu_ms_per_op",
        (p.cpu_ms / ops.max(1) as f64, ops),
        "ms",
    );
    add("proc.rss_setup_mb", (p.rss_setup_mb, 1), "MB");
    add(
        "trace.coverage",
        (if e2e > 0.0 { cov / e2e } else { 0.0 }, n),
        "ratio",
    );
    add(
        "trace.untraced_ms",
        ((e2e - cov) / n.max(1) as f64, n),
        "ms",
    );
    report.extend(sources);
    report.push(format!("spans written to {}", spans_path.display()));
    Ok(out)
}
