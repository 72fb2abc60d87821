//! Client-side end-to-end benchmark of the sirup query service.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload cold-compile|large-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! One process starts a durable server (`Server::open_durable`) on a fresh
//! data directory and a TCP daemon (`Daemon::start`) on `127.0.0.1:0`, then
//! drives it with one closed-loop `WireClient`: the next request goes out
//! only after the reply to the previous one came back. Latency is what
//! the client sees, from the frame going out to the reply coming in.
//! Answers are checked after the timed window against computations made
//! apart from the server (see `check`). The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! same seeded stream through the layers' public functions with spans
//! recorded here (see `trace`) and reports the per-layer metrics.

mod check;
mod gen;
mod probe;
mod trace;

use gen::{Recovery, Req, Stream, Workload};
use sirup_server::wire::{Daemon, WireConfig};
use sirup_server::{Server, ServerConfig};
use sirup_workloads::wire::{load_request, WireClient};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; their median is reported. The first carries on into
/// the stream; the others run on a spare data directory between rounds,
/// spread evenly over the timed stream (outside its window), so that the
/// median samples the host over the whole run, not over its first moments.
/// On large-mixed each spare set-up is followed by that workload's timed
/// recoveries (see [`Workload::recovery`]).
const SETUPS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--probe-child") {
        probe::child();
    }
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// `threads` = `parallelism` = core count, every other knob at its
/// default (answer cache 256, plan cache 64, adaptive routing off).
pub fn server_config() -> ServerConfig {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    ServerConfig {
        threads: cores,
        parallelism: cores,
        ..ServerConfig::default()
    }
}

/// Where runs keep their data directories: inside the working directory,
/// which the benchmark never leaves.
fn data_root() -> PathBuf {
    PathBuf::from(".bench_data")
}

/// A durable server, its daemon, and one client connection.
pub struct Live {
    pub dir: PathBuf,
    pub server: Arc<Server>,
    daemon: Daemon,
    pub client: WireClient,
}

impl Live {
    /// Open the server on `dir` (recovering whatever it holds) and start
    /// the daemon.
    pub fn open(dir: &Path, workload: Workload) -> Live {
        let server =
            Arc::new(Server::open_durable(server_config(), dir).expect("open the durable server"));
        let daemon = Daemon::start(
            Arc::clone(&server),
            WireConfig {
                listen: "127.0.0.1:0".to_owned(),
                snapshot_every: workload.snapshot_every(),
                ..WireConfig::default()
            },
        )
        .expect("start the daemon");
        let client = WireClient::connect(daemon.addr()).expect("connect to the daemon");
        Live {
            dir: dir.to_owned(),
            server,
            daemon,
            client,
        }
    }

    pub fn request(&mut self, payload: &str) -> String {
        self.client.request(payload).expect("daemon round trip")
    }

    /// Close the connection, stop the daemon, and drop the server on this
    /// thread once the connection jobs have let go of it.
    pub fn stop(self) {
        let Live {
            server,
            mut daemon,
            client,
            ..
        } = self;
        drop(client);
        daemon.shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&server) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(server);
    }
}

/// One client round trip, timed from the frame going out to the reply.
fn timed(live: &mut Live, payload: &str) -> (String, f64) {
    let t = Instant::now();
    let reply = live.request(payload);
    (reply, t.elapsed().as_secs_f64() * 1e3)
}

/// A request sent, with its reply and client-observed latency.
pub struct Sent {
    pub req: Req,
    pub reply: String,
    pub ms: f64,
}

/// Generate the inputs, open a fresh server, start the daemon, load every
/// instance over the wire and send the warm-up set.
fn setup(workload: Workload, seed: u64, dir: &Path) -> (Live, Stream, Vec<Sent>) {
    let _ = std::fs::remove_dir_all(dir);
    let mut stream = Stream::new(workload, seed);
    let mut live = Live::open(dir, workload);
    for (name, data) in stream.names.iter().zip(&stream.shadow) {
        let reply = live.request(&load_request(name, data));
        assert!(reply.starts_with("ok loaded"), "load {name}: {reply}");
    }
    let warm = stream
        .warmup()
        .into_iter()
        .map(|req| {
            let (reply, ms) = timed(&mut live, &req.payload(&stream.names));
            Sent { req, reply, ms }
        })
        .collect();
    (live, stream, warm)
}

/// Stop the daemon, reopen the data directory, start a daemon, answer the
/// restart set and dump every instance.
fn recover(live: Live, workload: Workload, stream: &mut Stream) -> (Live, Vec<Sent>, f64) {
    let dir = live.dir.clone();
    let t = Instant::now();
    live.stop();
    let mut live = Live::open(&dir, workload);
    let sent: Vec<Sent> = stream
        .restart_set()
        .into_iter()
        .map(|req| {
            let (reply, ms) = timed(&mut live, &req.payload(&stream.names));
            Sent { req, reply, ms }
        })
        .collect();
    let secs = t.elapsed().as_secs_f64();
    (live, sent, secs)
}

/// Set up on the spare data directory and, where the workload times
/// recovery there, snapshot it and recover it; the restart set is checked
/// against the spare's own stream.
fn spare_cycle(
    workload: Workload,
    seed: u64,
    dir: &Path,
    setups: &mut Vec<f64>,
    recoveries: &mut Vec<f64>,
    restart_sent: &mut Vec<Sent>,
) {
    let t = Instant::now();
    let (mut live, mut stream, _) = setup(workload, seed, dir);
    setups.push(t.elapsed().as_secs_f64());
    if let Recovery::PerSpare(n) = workload.recovery() {
        let reply = live.request("snapshot");
        assert_eq!(reply, "ok snapshot", "snapshot before recovery");
        for _ in 0..n {
            let (next, sent_now, secs) = recover(live, workload, &mut stream);
            live = next;
            recoveries.push(secs);
            restart_sent.extend(sent_now);
        }
    }
    live.stop();
}

fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Collects failures of the correctness checks.
#[derive(Default)]
pub struct Verdict {
    pub wrong: Vec<String>,
    pub checked: usize,
}

impl Verdict {
    pub fn sent(&mut self, s: &Sent) {
        if s.req.at.is_some() || s.req.is_mutation() {
            self.checked += 1;
            if let Some(why) = check::check(&s.req, &s.reply) {
                self.wrong.push(format!("{}: {why}", s.req.describe()));
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        trace::run(args.workload, args.seed, args.seconds);
    } else {
        run(args.workload, args.seed, args.seconds);
    }
}

/// Print the result line.
pub fn report(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The untraced end-to-end run.
fn run(workload: Workload, seed: u64, seconds: f64) {
    let root = data_root().join(format!("{}-{}", workload.name(), std::process::id()));
    let dir = root.join("data");

    let t = Instant::now();
    let (mut live, mut stream, warm) = setup(workload, seed, &dir);
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let mut recoveries = Vec::new();
    let mut restart_sent = Vec::new();
    let spare_dir = root.join("spare");
    let mut spare = |setups: &mut Vec<f64>| {
        spare_cycle(
            workload,
            seed,
            &spare_dir,
            setups,
            &mut recoveries,
            &mut restart_sent,
        )
    };
    let mut verdict = Verdict::default();
    for s in &warm {
        verdict.sent(s);
    }

    // The timed stream: whole rounds until `seconds` have been spent in
    // rounds and the workload's minimum round count is reached.
    let mut sent: Vec<Sent> = Vec::new();
    let mut window = 0.0f64;
    let mut probes = probe::Probes::default();
    let mut round_secs = Vec::new();
    while window < seconds || stream.round < workload.min_rounds() {
        let round = stream.next_round();
        let t = Instant::now();
        for req in round {
            let (reply, ms) = timed(&mut live, &req.payload(&stream.names));
            sent.push(Sent { req, reply, ms });
        }
        round_secs.push(t.elapsed().as_secs_f64());
        window += t.elapsed().as_secs_f64();
        if workload == Workload::LargeMixed {
            probes.attempt();
        }
        while setups.len() < SETUPS && window >= seconds * setups.len() as f64 / SETUPS as f64 {
            spare(&mut setups);
        }
    }
    while setups.len() < SETUPS {
        spare(&mut setups);
    }
    let final_sent: Vec<Sent> = stream
        .final_set()
        .into_iter()
        .map(|req| {
            let (reply, ms) = timed(&mut live, &req.payload(&stream.names));
            Sent { req, reply, ms }
        })
        .collect();

    // The catalog's own accounting at the end of the stream.
    let (mut retained, mut frozen, mut support) = (0, 0, 0);
    for s in stream
        .names
        .iter()
        .filter_map(|n| live.server.instance_stats(n))
    {
        retained += s.cow.retained_bytes;
        frozen += s.frozen_bytes;
        support += s
            .materializations
            .iter()
            .map(|(_, m)| m.support_bytes)
            .sum::<usize>();
    }
    let catalog_bytes = retained + frozen + support;
    eprintln!("e2ebench: catalog retained {retained} B, frozen {frozen} B, support {support} B");

    // Recovery of the live data directory. Where it is timed, the
    // daemon's own compaction clock would leave a log tail that varies
    // from run to run; an explicit snapshot first gives every recovery the
    // same amount of log to read. Where it is not timed, one recovery of
    // the stream's log tail feeds the dump check below.
    let timed_here = match workload.recovery() {
        Recovery::AtEnd(n) => {
            let reply = live.request("snapshot");
            assert_eq!(reply, "ok snapshot", "snapshot before recovery");
            n
        }
        Recovery::PerSpare(_) => 0,
    };
    for _ in 0..timed_here.max(1) {
        let (next, sent_now, secs) = recover(live, workload, &mut stream);
        live = next;
        if timed_here > 0 {
            recoveries.push(secs);
        }
        restart_sent.extend(sent_now);
    }
    for (i, name) in stream.names.iter().enumerate() {
        let reply = live.request(&format!("dump {name}"));
        verdict.checked += 1;
        if let Some(why) = check::check_dump(name, &reply, &stream.shadow[i], stream.seqs[i]) {
            verdict.wrong.push(why);
        }
    }
    live.stop();
    let _ = std::fs::remove_dir_all(&root);

    // Checks, outside every timed window.
    for s in sent.iter().chain(&final_sent).chain(&restart_sent) {
        verdict.sent(s);
    }
    let self_test = self_test(&sent);

    let (q_tail, m_tail) = workload.tail_percentiles();
    let mut queries: Vec<f64> = sent
        .iter()
        .filter(|s| !s.req.is_mutation())
        .map(|s| s.ms)
        .collect();
    let mut mutations: Vec<f64> = sent
        .iter()
        .filter(|s| s.req.is_mutation())
        .map(|s| s.ms)
        .collect();
    // Tails go to standard error, not to the result line: on the reference
    // host their run-to-run spread is wider than any bound the result line
    // may carry (see README).
    eprintln!(
        "e2ebench: {} seed {seed}: {} rounds, {} queries, {} mutations in {window:.3} s; \
         {} answers checked, {} wrong; query p{q_tail} {:.3} ms, mutation p{m_tail} {:.3} ms",
        workload.name(),
        stream.round,
        queries.len(),
        mutations.len(),
        verdict.checked,
        verdict.wrong.len(),
        percentile(&mut queries, q_tail),
        percentile(&mut mutations, m_tail),
    );
    print_classes(&sent);
    let secs = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "e2ebench: set-ups (s): {}; recoveries (s): {}",
        secs(&setups),
        secs(&recoveries)
    );
    let quartiles: Vec<String> = [25.0, 50.0, 75.0]
        .iter()
        .map(|p| format!("{:.4}", percentile(&mut round_secs, *p)))
        .collect();
    eprintln!(
        "e2ebench: round seconds, quartiles: {}",
        quartiles.join(" ")
    );
    for why in verdict.wrong.iter().take(10) {
        eprintln!("e2ebench: WRONG {why}");
    }
    if !self_test {
        eprintln!("e2ebench: the checker accepted a deliberately wrong answer");
    }
    let metrics = [
        ("setup_s", median(&mut setups), "s"),
        ("throughput_rps", sent.len() as f64 / window, "1/s"),
        ("query_p50_ms", median(&mut queries), "ms"),
        ("mutation_p50_ms", median(&mut mutations), "ms"),
        ("recovery_s", median(&mut recoveries), "s"),
        ("catalog_mb", catalog_bytes as f64 / 1e6, "MB"),
    ];
    let correct = verdict.wrong.is_empty() && self_test;
    report(
        correct,
        sent.len() + probes.attempted,
        probes.failed,
        &metrics,
    )
}

/// The checker must reject a deliberately wrong answer: flip the first
/// checked Boolean reply and corrupt the first checked mutation ack. The
/// Δ oracle must also reproduce Example 2 of the paper: (Δ_q1, G) holds on
/// D1 by case distinction, and fails once no `A`-labelling can help.
fn self_test(sent: &[Sent]) -> bool {
    use sirup_workloads::paper;
    let example_ok = check::brute_force_delta(&paper::q1(), &paper::d1(), false)
        && !check::brute_force_delta(
            &paper::q1(),
            &sirup_core::parse::st("A(a), R(a,b), T(b)"),
            false,
        );
    let flipped = sent
        .iter()
        .find(|s| s.req.at.is_some() && s.reply.starts_with("answer bool"));
    let bool_ok = flipped.is_none_or(|s| {
        let wrong = if s.reply.ends_with("true") {
            "answer bool false"
        } else {
            "answer bool true"
        };
        check::check(&s.req, wrong).is_some()
    });
    let ack = sent.iter().find(|s| s.req.is_mutation());
    let ack_ok = ack.is_none_or(|s| check::check(&s.req, &format!("{} ", s.reply)).is_some());
    example_ok && bool_ok && ack_ok
}

/// Per-class latency summary on standard error.
fn print_classes(sent: &[Sent]) {
    let mut classes: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in sent {
        classes.entry(s.req.class()).or_default().push(s.ms);
    }
    for (class, mut ms) in classes {
        let total: f64 = ms.iter().sum();
        eprintln!(
            "e2ebench:   {class:<12} n {:>6}  p50 {:>9.3} ms  max {:>9.3} ms  total {:>9.1} ms",
            ms.len(),
            median(&mut ms),
            percentile(&mut ms, 100.0),
            total
        );
    }
}
