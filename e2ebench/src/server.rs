//! `wodex serve` as a child process, and what `/proc` says about it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker threads the server runs with.
pub const WORKERS: usize = 2;
/// How long a boot may take before the run gives up.
const BOOT_TIMEOUT: Duration = Duration::from_secs(150);

/// A running server. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// Seconds from spawn to the first 200 from `/healthz`.
    pub setup_s: f64,
}

impl Server {
    /// Spawns `wodex serve seg:<dir>` on an ephemeral port and waits for
    /// the first 200 from `/healthz`. Server stderr goes to `log`.
    pub fn start(wodex: &Path, seg_dir: &Path, log: &Path) -> Result<Server, String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(wodex)
            .arg("serve")
            .arg(format!("seg:{}", seg_dir.display()))
            .args(["--workers", &WORKERS.to_string(), "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", wodex.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the announced address, then keeps draining stdout so the
        // server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(a) = line.strip_prefix("listening on http://") {
                    let _ = tx.send(a.trim().to_string());
                }
            }
        });
        let mut server = Server {
            child,
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
        };
        let announced = rx
            .recv_timeout(BOOT_TIMEOUT)
            .map_err(|_| format!("server did not announce an address; see {}", log.display()))?;
        server.addr = announced
            .parse()
            .map_err(|_| format!("bad announced address {announced:?}"))?;
        loop {
            match crate::http::get(server.addr, "/healthz", Duration::from_secs(5)) {
                Ok(r) if r.status == 200 => break,
                _ if t0.elapsed() > BOOT_TIMEOUT => {
                    return Err("server never became healthy".into())
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        server.setup_s = t0.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL, then wait for the process and its output drain.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A `/proc/<pid>/status` field in kB (`VmRSS`, `VmHWM`).
pub fn status_kb(pid: u32, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// A process's user plus system CPU time in milliseconds. `/proc`
/// reports clock ticks of `USER_HZ`, which Linux fixes at 100.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = &text[text.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 * 10.0)
}

/// The calling process's resident set in MB.
pub fn self_rss_mb() -> f64 {
    status_kb(std::process::id(), "VmRSS").map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_proc_entries() {
        let pid = std::process::id();
        assert!(status_kb(pid, "VmRSS").unwrap() > 0);
        assert!(status_kb(pid, "VmHWM").unwrap() >= status_kb(pid, "VmRSS").unwrap() / 2);
        assert!(cpu_ms(pid).is_some());
        assert!(self_rss_mb() > 0.0);
    }
}
