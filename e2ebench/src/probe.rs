//! The counted-failure probe: one `(Δ_q1, G)` request per large-mixed
//! round against a fixed 1000-node instance.
//!
//! DPLL over `Δ_q1` has no per-request deadline and re-checks the whole
//! instance on every branch; on `random_instance(1000, 2000, 0.45, 0.25,
//! 700)` it runs for minutes. The client gives the request [`LIMIT`] and
//! counts it as failed when no reply has come. The probe's daemon runs in a
//! child process (this binary with `--probe-child`) so the busy worker can
//! be killed: a stuck worker in the measured daemon would skew everything
//! after it. The instance does not depend on `--seed`, so the probe fails
//! on every run and every round, and `failed / attempted` is the same in
//! every run.

use sirup_server::wire::{Daemon, WireConfig};
use sirup_server::{Server, ServerConfig};
use sirup_workloads::paper;
use sirup_workloads::random::random_instance;
use sirup_workloads::wire::WireClient;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// How long the client waits for the probe's reply.
pub const LIMIT: Duration = Duration::from_millis(200);

/// Child mode: serve the probe instance until killed.
pub fn child() -> ! {
    let server = Arc::new(Server::new(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    }));
    server.load_instance("probe", random_instance(1000, 2000, 0.45, 0.25, 700));
    let daemon = Daemon::start(Arc::clone(&server), WireConfig::default()).expect("probe daemon");
    let mut out = std::io::stdout();
    writeln!(out, "listening {}", daemon.addr()).expect("announce the probe daemon");
    out.flush().expect("announce the probe daemon");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Probe outcomes of one run.
#[derive(Debug, Default)]
pub struct Probes {
    pub attempted: usize,
    pub failed: usize,
}

impl Probes {
    /// Send one probe and wait at most [`LIMIT`] for its reply.
    pub fn attempt(&mut self) {
        self.attempted += 1;
        if !probe_once() {
            self.failed += 1;
        }
    }
}

/// `true` when the probe got an `answer bool` reply within [`LIMIT`],
/// `false` when the read timed out. Anything else (the child does not
/// start or announce itself, the connection fails or closes, any other
/// reply) is a fault of the benchmark, not the counted failure, and
/// panics once the child is reaped.
fn probe_once() -> bool {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut child = Command::new(exe)
        .arg("--probe-child")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("start the probe child");
    let outcome = (|| -> std::io::Result<bool> {
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| std::io::Error::other(format!("probe child announced {line:?}")))?;
        let mut client = WireClient::connect(addr)?;
        client.set_read_timeout(Some(LIMIT))?;
        client.send(&format!("query delta probe = {}", paper::q1()))?;
        match client.next_frame() {
            Ok(Some(reply)) if reply.starts_with("answer bool ") => Ok(true),
            Ok(reply) => Err(std::io::Error::other(format!("probe reply {reply:?}"))),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) => Err(e),
        }
    })();
    let _ = child.kill();
    child.wait().expect("reap the probe child");
    outcome.unwrap_or_else(|e| panic!("probe: {e}"))
}
