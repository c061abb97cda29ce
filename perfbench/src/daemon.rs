//! The `phasefold serve` daemon as a child process, and the client-side
//! helpers the serve workloads share.

use phasefold_serve::{Client, Response};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Upper bound on a daemon's lifetime, so a daemon outlives no benchmark
/// run even if the benchmark itself is killed.
const MAX_DAEMON_SECONDS: &str = "175";

/// How long a reply may take before the client gives up on it.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Option<Child>,
    addr: String,
}

impl Daemon {
    /// Starts `bin serve` on an ephemeral port with `args`, and waits until
    /// `/healthz` answers.
    pub fn start(bin: &Path, dir: &Path, args: &[&str]) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let port_file: PathBuf = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(dir.join("daemon.log"))
            .map_err(|e| format!("create daemon log: {e}"))?;
        let log_err = log.try_clone().map_err(|e| format!("daemon log: {e}"))?;
        let child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--max-seconds", MAX_DAEMON_SECONDS])
            .arg("--port-file")
            .arg(&port_file)
            .args(args)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log_err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_string();
                    break;
                }
            }
            if let Some(Ok(Some(status))) = daemon.child.as_mut().map(Child::try_wait) {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not write its port file within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        loop {
            match phasefold_serve::one_shot(&daemon.addr, "GET", "/healthz", b"") {
                Ok(r) if r.status == 200 => return Ok(daemon),
                _ if Instant::now() > deadline => return Err("daemon never became healthy".into()),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// The daemon's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A fresh keep-alive connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr, CLIENT_TIMEOUT).map_err(|e| format!("connect: {e}"))
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(self.child.as_ref()?.id())
    }

    /// Asks the daemon to drain and waits for it to end. A daemon started
    /// with `--max-seconds` keeps its process alive after draining until
    /// that deadline, so once its listener is closed it is killed.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = phasefold_serve::one_shot(&self.addr, "POST", "/admin/shutdown", b"");
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let deadline = Instant::now() + Duration::from_secs(15);
        let outcome = loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if std::net::TcpStream::connect(&self.addr).is_err() => break Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => break Err("daemon did not drain within 15 s".to_string()),
            }
        };
        let _ = child.kill();
        let _ = child.wait();
        outcome
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` of process `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Sends one request and times it; a transport error reconnects the
/// client for the next request.
pub fn timed_request(
    client: &mut Option<Client>,
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> (f64, Result<Response, String>) {
    if client.is_none() {
        *client = Client::connect(addr, CLIENT_TIMEOUT).ok();
    }
    let Some(c) = client.as_mut() else {
        return (0.0, Err("cannot connect to the daemon".into()));
    };
    let t0 = Instant::now();
    let result = c.request(method, path, &[], body);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(r) => (ms, Ok(r)),
        Err(e) => {
            *client = None;
            (ms, Err(format!("{method} {path}: {e}")))
        }
    }
}

/// What [`client_rounds`] returns.
pub struct Rounds<R> {
    /// Each client's output.
    pub outputs: Vec<R>,
    /// The number of the next round.
    pub next_round: usize,
    /// Wall time of the loop in seconds.
    pub window_s: f64,
    /// The daemon's `VmHWM` (MiB) after the loop's first `fixed_rounds`
    /// rounds: the peak for a fixed amount of work, whatever the run's
    /// throughput.
    pub peak_rss_mib: Option<f64>,
}

/// Runs whole rounds on two keep-alive clients, one thread each, until
/// `seconds` have passed and at least `fixed_rounds` rounds are done. Both
/// clients finish a round before either starts the next.
/// `round(c, client, r, out, barrier)` runs client `c`'s part of round `r`
/// (numbered from `first_round`); `barrier` lets the two clients meet
/// inside a round.
pub fn client_rounds<R: Default + Send>(
    daemon: &Daemon,
    clients: &mut [Option<Client>; 2],
    seconds: f64,
    first_round: usize,
    fixed_rounds: usize,
    round: impl Fn(usize, &mut Option<Client>, usize, &mut R, &Barrier) + Sync,
) -> Rounds<R> {
    let barrier = Barrier::new(2);
    let stop = AtomicBool::new(false);
    let rss = OnceLock::new();
    let started = Instant::now();
    let runs: Vec<(R, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (barrier, stop, rss, round) = (&barrier, &stop, &rss, &round);
                s.spawn(move || {
                    let mut out = R::default();
                    let mut r = first_round;
                    loop {
                        round(c, client, r, &mut out, barrier);
                        r += 1;
                        if barrier.wait().is_leader() {
                            let done = r - first_round;
                            if done == fixed_rounds {
                                let _ = rss.set(daemon.peak_rss_mib());
                            }
                            if done >= fixed_rounds && started.elapsed().as_secs_f64() >= seconds {
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            return (out, r);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let next_round = runs.first().map_or(first_round, |r| r.1);
    Rounds {
        outputs: runs.into_iter().map(|r| r.0).collect(),
        next_round,
        window_s: started.elapsed().as_secs_f64(),
        peak_rss_mib: rss.get().copied().flatten(),
    }
}

/// Median round trip of `GET /healthz`: the transport floor.
pub fn healthz_rtt_ms(daemon: &Daemon, probes: usize) -> Option<f64> {
    let mut client = daemon.connect().ok();
    let mut rtts = Vec::with_capacity(probes);
    for _ in 0..probes {
        if let (ms, Ok(r)) = timed_request(&mut client, daemon.addr(), "GET", "/healthz", b"") {
            if r.status == 200 {
                rtts.push(ms);
            }
        }
    }
    crate::stats::median(&rtts)
}

/// The p50 (ms) of each named histogram in the daemon's `/metrics`.
pub fn scrape_hist_p50(daemon: &Daemon, names: &[&str]) -> Vec<Option<f64>> {
    let body = phasefold_serve::one_shot(daemon.addr(), "GET", "/metrics", b"")
        .map(|r| r.text())
        .unwrap_or_default();
    names
        .iter()
        .map(|name| {
            let start = body.find(&format!("\"{name}\": {{"))?;
            let entry = &body[start..];
            let entry = &entry[..entry.find('}')?];
            crate::checks::json_field(entry, "p50_ms")?.parse().ok()
        })
        .collect()
}
