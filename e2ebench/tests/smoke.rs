//! Smoke run of every workload, untraced and traced, on the 300-entity
//! rung: each run must exit 0, check its answers without a failure, and
//! report exactly the metrics `BENCHMARK.json` names.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// The target directory this test was built in.
fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    // <target>/<profile>/deps/smoke-<hash>
    exe.ancestors().nth(3).expect("target layout").to_path_buf()
}

/// Builds `wodex` into `target`.
fn wodex_binary(target: &Path) -> PathBuf {
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "wodex",
        ])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building wodex failed");
    target.join("release").join("wodex")
}

fn names(spec: &json::Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(json::Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(json::Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn all_workloads_run_on_a_tiny_rung() {
    let target = target_dir();
    let wodex = wodex_binary(&target);
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&spec).expect("BENCHMARK.json parses");
    let work = target.join("e2ebench-smoke");
    for (workload, seconds) in [("explore", "20"), ("sparql", "2"), ("write", "10")] {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_wodex-e2ebench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", seconds])
                .args(["--trace", trace, "--rung", "tiny"])
                .arg("--wodex")
                .arg(&wodex)
                .arg("--work")
                .arg(&work)
                .output()
                .expect("harness runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the last line is JSON");
            assert_eq!(
                result.get("correct").and_then(json::Json::as_bool),
                Some(true)
            );
            assert_eq!(
                result.get("failed").and_then(json::Json::as_u64),
                Some(0),
                "{stdout}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(json::Json::as_u64)
                    .unwrap()
                    > 0
            );
            let want = names(
                &spec,
                if trace == "0" {
                    "end_to_end"
                } else {
                    "per_layer"
                },
            );
            let json::Json::Obj(metrics) = result.get("metrics").expect("metrics") else {
                panic!("metrics is not an object");
            };
            let got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(got, want, "{workload} trace={trace}");
            for (k, v) in metrics {
                let value = v.get("value").and_then(json::Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{k} is not a number");
            }
            assert!(stdout.contains("answers checked="), "{stdout}");
            if workload == "write" {
                assert!(stdout.contains("metric lost_write_frac "), "{stdout}");
            }
            if trace == "1" {
                assert!(stdout.contains("trace untraced remainder"), "{stdout}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work);
}
