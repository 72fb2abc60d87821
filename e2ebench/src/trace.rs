//! The traced run (`--trace 1`): per-layer metrics.
//!
//! The run sets up exactly as the untraced one and sends the same seeded
//! stream over the wire to the durable daemon ("A"), untraced, recording
//! each client round trip. In lock-step, each request is also replayed on
//! a second, in-process server ("B") through the layers' public functions,
//! with a span recorded here around every call:
//!
//! ```text
//! request                        (self time: glue between the layers)
//! ├─ answer_cache                (probe of an answer cache kept here,
//! │                               keyed as the server keys its own)
//! ├─ plan.lookup | plan.compile  PlanCache::get_or_build (hit | miss)
//! ├─ eval.<strategy>             Plan::answer_routed
//! ├─ wal.append                  Wal::append (fsync'd)
//! └─ catalog.mutate              Catalog::mutate (includes carry-forward)
//! ```
//!
//! Three more kinds of root spans replay work the server does inside one
//! call, so that it can be split: `replay.plan` (on every compile:
//! `core_of`, `classify_trichotomy`, `find_bound`, rewriting + minimising +
//! FO rendering, and lowering to compiled plans), `replay.carry`
//! (`MaterializedFixpoint::apply` on clones of the materialisations a
//! mutation carries forward, before it is applied) and `wal.compact` (B's
//! log is compacted at the daemon's cadence). `wal.open` times reopening
//! B's log at the end. Spans stay in memory and are written to
//! `.bench_data/trace-<workload>-<seed>.tsv` when the run ends.
//!
//! B's answers must equal A's replies. Counts come from the programs' own
//! stats: `PlanCache::stats`, `answer_cache_stats`, `scheduler_stats` and
//! `instance_stats` of A.

use crate::check::render;
use crate::gen::{Action, Kind, Req, Stream, Workload};
use crate::{percentile, probe, report, server_config, setup, timed, Sent, Verdict};
use sirup_cactus::{
    enumerate_shapes, find_bound, pi_rewriting, sigma_rewriting, BoundSearch, Boundedness,
};
use sirup_classifier::classify_trichotomy;
use sirup_core::program::{pi_q, sigma_q};
use sirup_core::{OneCq, ParCtx, Pred, Structure};
use sirup_engine::containment::minimise_ucq;
use sirup_engine::CompiledProgram;
use sirup_hom::{core_of, QueryPlan};
use sirup_server::{Answer, PlanOptions, Query, Server, Strategy, Wal, WalRecord};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span log.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.open.push(id);
    }

    /// Close the innermost open span; returns its duration in ms.
    fn end(&mut self) -> f64 {
        let id = self.open.pop().expect("a span is open");
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns;
        span.dur_ns as f64 / 1e6
    }

    /// Per span name: (count, total ms, self ms).
    fn ledger(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns as f64 / 1e6;
            e.2 += s.dur_ns.saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_us\tdur_us")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{:.3}\t{:.3}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            )?;
        }
        out.flush()
    }
}

/// Counters gathered by the replays.
#[derive(Default)]
struct Counts {
    cactus_enumerated: usize,
    cactus_cap_hits: usize,
    bound_searches: usize,
    adopted: usize,
    wal_bytes: u64,
    wal_ops: usize,
    compactions: usize,
}

/// Server B with its WAL, answer-cache stand-in, and tracer.
struct Replay {
    server: Server,
    wal: Wal,
    answers: HashMap<String, Answer>,
    opts: PlanOptions,
    tracer: Tracer,
    counts: Counts,
    /// Per span: cactus shapes enumerated, and whether below the cap.
    shapes: HashMap<usize, (usize, bool)>,
    since_compact: u64,
    snapshot_every: u64,
    parallelism: usize,
    par_threshold: usize,
}

fn to_query(kind: Kind, cq: &Structure) -> Query {
    let one = || OneCq::new(cq.clone()).expect("Π/Σ queries are 1-CQs");
    match kind {
        Kind::Pi => Query::PiGoal(one()),
        Kind::Sigma => Query::SigmaAnswers(one()),
        Kind::Delta => Query::Delta {
            cq: cq.clone(),
            disjoint: false,
        },
        Kind::DeltaPlus => Query::Delta {
            cq: cq.clone(),
            disjoint: true,
        },
    }
}

impl Replay {
    fn open(dir: &std::path::Path, stream: &Stream) -> Replay {
        let _ = std::fs::remove_dir_all(dir);
        let (mut wal, _) = Wal::open(dir).expect("open the replay WAL");
        let config = server_config();
        let server = Server::new(config);
        for (name, data) in stream.names.iter().zip(&stream.shadow) {
            wal.append(&WalRecord::Load {
                name: name.clone(),
                nodes: data.node_count() as u32,
                ops: data.to_ops(),
            })
            .expect("log the load");
            server.load_instance(name.clone(), data.clone());
        }
        Replay {
            server,
            wal,
            answers: HashMap::new(),
            opts: PlanOptions::default(),
            tracer: Tracer::new(),
            counts: Counts::default(),
            shapes: HashMap::new(),
            since_compact: 0,
            snapshot_every: stream.workload.snapshot_every(),
            parallelism: config.parallelism,
            par_threshold: config.par_threshold,
        }
    }

    /// Replay one request through the layers; returns B's reply and the
    /// traced request time in ms.
    fn request(&mut self, req: &Req, names: &[String]) -> (String, f64) {
        let name = &names[req.inst];
        match &req.action {
            Action::Mutate { ops, .. } => {
                self.replay_carry(name, ops);
                let seq = self.server.catalog().get(name).expect("instance").seq + 1;
                let before = self.wal.log_len().unwrap_or(0);
                self.tracer.begin("request");
                self.tracer.begin("wal.append");
                self.wal
                    .append(&WalRecord::Mutate {
                        name: name.clone(),
                        seq,
                        ops: ops.clone(),
                    })
                    .expect("append to the replay WAL");
                self.tracer.end();
                self.tracer.begin("catalog.mutate");
                let out = self.server.catalog().mutate(name, ops).expect("instance");
                self.tracer.end();
                let reply = render(&Answer::Applied {
                    applied: out.applied,
                    seq: out.seq,
                });
                let ms = self.tracer.end();
                self.counts.wal_bytes += self.wal.log_len().unwrap_or(0).saturating_sub(before);
                self.counts.wal_ops += ops.len();
                self.since_compact += 1;
                if self.snapshot_every > 0 && self.since_compact >= self.snapshot_every {
                    self.compact();
                }
                (reply, ms)
            }
            Action::Query { kind, cq, .. } => {
                let query = to_query(*kind, cq);
                let key = query.cache_key();
                let inst = self.server.catalog().get(name).expect("instance");
                let cached_plan = self.server.plan_cache().peek(&key);
                let has_mat = cached_plan.as_ref().is_some_and(|p| {
                    matches!(p.strategy, Strategy::SemiNaive { .. })
                        && inst.materialization_stats().iter().any(|(k, _)| *k == key)
                });
                self.tracer.begin("request");
                let answer_key = format!("{key}|{name}#{}", inst.version);
                self.tracer.begin("answer_cache");
                let hit = self.answers.get(&answer_key).cloned();
                self.tracer.end();
                let compiled = cached_plan.is_none() && hit.is_none();
                let answer = match hit {
                    Some(answer) => answer,
                    None => {
                        self.tracer.begin(if cached_plan.is_some() {
                            "plan.lookup"
                        } else {
                            "plan.compile"
                        });
                        let plan = self.server.plan_cache().get_or_build(&query, &self.opts);
                        self.tracer.end();
                        self.tracer.begin(match &plan.strategy {
                            Strategy::Rewriting { .. } => "eval.rewriting",
                            Strategy::SemiNaive { .. } if has_mat => "eval.seminaive",
                            Strategy::SemiNaive { .. } => "eval.materialise",
                            Strategy::Dpll { .. } if has_twin(cq) => "eval.dpll_twin",
                            Strategy::Dpll { .. } => "eval.dpll",
                        });
                        let par = (self.parallelism > 1)
                            .then(|| ParCtx::new(self.server.scheduler(), self.par_threshold));
                        let answer = plan.answer_routed(&inst, par, true);
                        self.tracer.end();
                        self.answers.insert(answer_key, answer.clone());
                        answer
                    }
                };
                let reply = render(&answer);
                let ms = self.tracer.end();
                if compiled {
                    self.replay_plan(query);
                }
                (reply, ms)
            }
        }
    }

    /// Carry every attached materialisation of `name` forward over `ops`
    /// on clones, timing what `Catalog::mutate` does inside one call.
    fn replay_carry(&mut self, name: &str, ops: &[sirup_core::FactOp]) {
        let inst = self.server.catalog().get(name).expect("instance");
        let keys: Vec<String> = inst
            .materialization_stats()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        if keys.is_empty() {
            return;
        }
        let mats: Vec<_> = keys
            .iter()
            .map(|k| inst.materialization(k, || unreachable!("attached")))
            .collect();
        self.tracer.begin("replay.carry");
        for m in mats {
            let mut fwd = (*m).clone();
            fwd.apply(ops);
            std::hint::black_box(&fwd);
        }
        self.tracer.end();
    }

    /// Rebuild a compiled plan step by step, timing each step of
    /// `Plan::build` apart.
    fn replay_plan(&mut self, query: Query) {
        let t = &mut self.tracer;
        t.begin("replay.plan");
        t.begin("plan.core");
        let (core, _) = core_of(query.cq());
        t.end();
        t.begin("plan.classify");
        let _ = std::hint::black_box(classify_trichotomy(query.cq()));
        t.end();
        match &query {
            Query::PiGoal(q) | Query::SigmaAnswers(q) => {
                let sigma = matches!(query, Query::SigmaAnswers(_));
                // The shapes `find_bound` enumerates depend on the span
                // alone (horizon and cap are fixed), so they are counted
                // once per span.
                let (horizon, cap) = (self.opts.horizon, self.opts.cap);
                let (shapes, complete) = *self.shapes.entry(q.span()).or_insert_with(|| {
                    let (shapes, complete) = enumerate_shapes(q.span(), horizon, cap);
                    (shapes.len(), complete)
                });
                self.counts.cactus_enumerated += shapes;
                self.counts.cactus_cap_hits += usize::from(!complete);
                self.counts.bound_searches += 1;
                t.begin("plan.find_bound");
                let bound = find_bound(
                    q,
                    BoundSearch {
                        max_d: self.opts.max_depth,
                        horizon: self.opts.horizon,
                        cap: self.opts.cap,
                        sigma,
                    },
                );
                t.end();
                let rewriting = match bound {
                    Boundedness::BoundedEvidence { d, .. } => {
                        t.begin("plan.rewrite");
                        let ucq = if sigma {
                            sigma_rewriting(q, d, self.opts.cap)
                        } else {
                            pi_rewriting(q, d, self.opts.cap)
                        }
                        .map(|ucq| minimise_ucq(&ucq));
                        if let Some(ucq) = &ucq {
                            std::hint::black_box(sirup_fo::ucq_to_fo(ucq).to_string());
                        }
                        t.end();
                        ucq
                    }
                    _ => None,
                };
                t.begin("plan.lower");
                match rewriting {
                    Some(ucq) => {
                        self.counts.adopted += 1;
                        std::hint::black_box(ucq.compile());
                    }
                    None => {
                        let program = if sigma { sigma_q(q) } else { pi_q(q) };
                        std::hint::black_box(CompiledProgram::new(&program));
                    }
                }
                t.end();
            }
            Query::Delta { .. } => {
                t.begin("plan.lower");
                std::hint::black_box(QueryPlan::compile(&core));
                t.end();
            }
        }
        t.end();
    }

    fn compact(&mut self) {
        let catalog = self.server.catalog();
        let insts: Vec<_> = catalog
            .names()
            .iter()
            .filter_map(|n| catalog.get(n))
            .collect();
        let entries: Vec<(String, u64, &Structure)> = insts
            .iter()
            .map(|i| (i.name.clone(), i.seq, &i.data))
            .collect();
        self.tracer.begin("wal.compact");
        self.wal.compact(&entries).expect("compact the replay WAL");
        self.tracer.end();
        self.counts.compactions += 1;
        self.since_compact = 0;
    }
}

/// Does the CQ have an FT-twin (a node labelled both `F` and `T`)?
fn has_twin(cq: &Structure) -> bool {
    cq.nodes()
        .any(|v| cq.has_label(v, Pred::F) && cq.has_label(v, Pred::T))
}

/// What recording one span costs, in ms (begin + end, measured here).
fn span_cost_ms() -> f64 {
    let mut t = Tracer::new();
    let n = 100_000;
    let start = Instant::now();
    for _ in 0..n {
        t.begin("calibrate");
        t.end();
    }
    start.elapsed().as_secs_f64() * 1e3 / n as f64
}

/// The traced run.
pub fn run(workload: Workload, seed: u64, seconds: f64) {
    let root = crate::data_root().join(format!("{}-{}-trace", workload.name(), std::process::id()));
    let (mut live, mut stream, warm) = setup(workload, seed, &root.join("data"));
    let mut b = Replay::open(&root.join("replay"), &stream);
    let mut verdict = Verdict::default();
    let mut differ = 0usize;
    for s in &warm {
        verdict.sent(s);
        let (reply, _) = b.request(&s.req, &stream.names);
        differ += usize::from(reply != s.reply);
    }

    let mut sent: Vec<Sent> = Vec::new();
    let mut traced_ms: Vec<f64> = Vec::new();
    let mut window = 0.0f64;
    let mut probes = probe::Probes::default();
    while window < seconds || stream.round < workload.min_rounds() {
        for req in stream.next_round() {
            let (reply, ms) = timed(&mut live, &req.payload(&stream.names));
            window += ms / 1e3;
            let (b_reply, b_ms) = b.request(&req, &stream.names);
            differ += usize::from(b_reply != reply);
            traced_ms.push(b_ms);
            sent.push(Sent { req, reply, ms });
        }
        if workload == Workload::LargeMixed {
            probes.attempt();
        }
    }
    let (ph, pm) = live.server.plan_cache().stats();
    let (ah, am) = live.server.answer_cache_stats();
    let sched = live.server.scheduler_stats();
    let shared: Vec<f64> = stream
        .names
        .iter()
        .filter_map(|n| live.server.instance_stats(n))
        .map(|s| s.cow.shared_ratio())
        .collect();
    live.stop();

    // One last compaction, so that every traced run times `Wal::compact`
    // (cold-compile's daemon never compacts).
    b.compact();
    let Replay {
        wal,
        mut tracer,
        counts,
        ..
    } = b;
    drop(wal);
    tracer.begin("wal.open");
    let reopened = Wal::open(root.join("replay")).expect("reopen the replay WAL");
    tracer.end();
    drop(reopened);

    for s in &sent {
        verdict.sent(s);
    }
    let spans_path = crate::data_root().join(format!("trace-{}-{seed}.tsv", workload.name()));
    if let Err(e) = tracer.write(&spans_path) {
        eprintln!("e2ebench: writing {}: {e}", spans_path.display());
    }
    let _ = std::fs::remove_dir_all(&root);

    // Layer ledger.
    let ledger = tracer.ledger();
    let total = |name: &str| ledger.get(name).map_or(0.0, |e| e.1);
    let self_ms = |name: &str| ledger.get(name).map_or(0.0, |e| e.2);
    eprintln!(
        "e2ebench: traced {} seed {seed}: {} requests, {} spans",
        workload.name(),
        sent.len(),
        tracer.spans.len()
    );
    for (name, (n, tot, own)) in &ledger {
        eprintln!("e2ebench:   {name:<18} n {n:>7}  total {tot:>10.3} ms  self {own:>10.3} ms");
    }
    let request_ms = total("request");
    let leftover_ms = self_ms("request");
    let carry_ms = total("replay.carry");
    let overhead_ms = span_cost_ms() * tracer.spans.len() as f64;
    let mut gaps: Vec<f64> = sent.iter().zip(&traced_ms).map(|(s, t)| s.ms - t).collect();
    let reply_bytes =
        sent.iter().map(|s| s.reply.len()).sum::<usize>() as f64 / sent.len().max(1) as f64;
    let mut compiles = tracer.durations("plan.compile");
    let compiles_n = compiles.len();
    let compile_tail = percentile(&mut compiles, 95.0);
    let bound_searches = counts.bound_searches.max(1) as f64;
    let rtt_total: f64 = warm.iter().chain(&sent).map(|s| s.ms).sum();
    eprintln!(
        "e2ebench: traced request time {request_ms:.1} ms (untraced wire round trips {rtt_total:.1} ms); \
         leftover {leftover_ms:.1} ms; tracing overhead {overhead_ms:.2} ms; \
         carry replay {carry_ms:.1} ms inside catalog.mutate; {differ} replay answers differ"
    );
    if differ > 0 {
        verdict
            .wrong
            .push(format!("{differ} replayed answers differ from the wire"));
    }
    let metrics = [
        ("wire.overhead_ms", percentile(&mut gaps, 50.0), "ms"),
        ("wire.reply_bytes", reply_bytes, "bytes"),
        ("plan.compiles", compiles_n as f64, "count"),
        ("plan.cache_hits", ph as f64, "count"),
        ("plan.cache_misses", pm as f64, "count"),
        ("plan.compile_ms", total("plan.compile"), "ms"),
        ("plan.compile_tail_ms", compile_tail, "ms"),
        ("plan.core_ms", total("plan.core"), "ms"),
        ("plan.classify_ms", total("plan.classify"), "ms"),
        ("plan.find_bound_ms", total("plan.find_bound"), "ms"),
        ("plan.rewrite_ms", total("plan.rewrite"), "ms"),
        ("plan.lower_ms", total("plan.lower"), "ms"),
        (
            "cactus.enumerated",
            counts.cactus_enumerated as f64,
            "count",
        ),
        ("cactus.cap_hits", counts.cactus_cap_hits as f64, "count"),
        (
            "plan.evidence_adopted_ratio",
            counts.adopted as f64 / bound_searches,
            "ratio",
        ),
        ("eval.rewriting_ms", total("eval.rewriting"), "ms"),
        (
            "eval.seminaive_ms",
            total("eval.seminaive") + total("eval.materialise"),
            "ms",
        ),
        ("eval.materialise_ms", total("eval.materialise"), "ms"),
        ("eval.dpll_ms", total("eval.dpll"), "ms"),
        ("eval.dpll_twin_ms", total("eval.dpll_twin"), "ms"),
        ("answer_cache.hits", ah as f64, "count"),
        ("answer_cache.misses", am as f64, "count"),
        ("catalog.mutate_ms", total("catalog.mutate"), "ms"),
        ("catalog.carry_ms", carry_ms, "ms"),
        (
            "catalog.shared_page_ratio",
            shared.iter().sum::<f64>() / shared.len().max(1) as f64,
            "ratio",
        ),
        ("wal.append_ms", total("wal.append"), "ms"),
        (
            "wal.bytes_per_op",
            counts.wal_bytes as f64 / counts.wal_ops.max(1) as f64,
            "bytes",
        ),
        ("wal.compactions", counts.compactions as f64, "count"),
        ("wal.compact_ms", total("wal.compact"), "ms"),
        ("wal.open_ms", total("wal.open"), "ms"),
        ("sched.subtasks", sched.subtasks_spawned as f64, "count"),
        ("sched.steals", sched.steals as f64, "count"),
        (
            "sched.max_queue_depth",
            sched.max_queue_depth as f64,
            "count",
        ),
        ("trace.request_ms", request_ms, "ms"),
        ("trace.leftover_ms", leftover_ms, "ms"),
        ("trace.overhead_ms", overhead_ms, "ms"),
    ];
    report(
        verdict.wrong.is_empty(),
        sent.len() + probes.attempted,
        probes.failed,
        &metrics,
    );
}
