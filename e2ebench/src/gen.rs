//! Seeded request streams for the two workloads.
//!
//! A [`Stream`] owns the client's own copy of every instance (the
//! "shadow"). Each generated mutation is folded into the shadow as it is
//! generated, so the stream knows the `applied` count and per-instance
//! `seq` the server must acknowledge, and each checked query carries the
//! shadow as it stands at that point of the stream (a cheap clone: the
//! structure is page-shared copy-on-write).
//!
//! Streams come in whole rounds of a fixed make-up, so every run attempts
//! the same mix in the same proportions however many rounds it completes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirup_core::parse::st;
use sirup_core::{FactOp, Node, OneCq, Pred, Structure};
use sirup_workloads::paper;
use sirup_workloads::random::{random_ditree_cq, random_instance, DitreeCqParams};
use std::collections::HashSet;

/// Span-2 programs in the cold-compile restart set.
const RESTART_PROGRAMS: usize = 20;

/// Generator seed of the large-mixed instance.
pub const LARGE_INSTANCE_SEED: u64 = 3;

/// Most `A`-nodes a cold-compile instance may carry, so the Δ oracle can
/// enumerate every labelling.
pub const MAX_A_NODES: usize = 12;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every query plans a program the server has never seen.
    ColdCompile,
    /// One 5k-node instance under heavy reads and 20% writes.
    LargeMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-compile" => Some(Workload::ColdCompile),
            "large-mixed" => Some(Workload::LargeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCompile => "cold-compile",
            Workload::LargeMixed => "large-mixed",
        }
    }

    /// Query and mutation tail percentiles: each leaves at least ten
    /// samples beyond it at the round counts [`Workload::min_rounds`]
    /// guarantees.
    pub fn tail_percentiles(self) -> (f64, f64) {
        match self {
            Workload::ColdCompile => (95.0, 75.0),
            Workload::LargeMixed => (99.0, 95.0),
        }
    }

    /// Rounds a run completes even if `--seconds` elapses first.
    pub fn min_rounds(self) -> usize {
        match self {
            Workload::ColdCompile => 20,
            Workload::LargeMixed => 6,
        }
    }

    /// Where and how often recovery is timed; the median is reported.
    /// Cold-compile's restart set is the stream's own first span-2
    /// programs, so it recovers the live data directory at the end (about
    /// 1 s each). A large-mixed recovery takes about 0.15 s, so a burst at
    /// the end samples only a few seconds of the host; it recovers the
    /// spare data directory after each spare set-up instead, spread over
    /// the whole run, on the fixed instance as loaded.
    pub fn recovery(self) -> Recovery {
        match self {
            Workload::ColdCompile => Recovery::AtEnd(9),
            Workload::LargeMixed => Recovery::PerSpare(2),
        }
    }

    /// Compaction cadence handed to the daemon (logged mutations).
    pub fn snapshot_every(self) -> u64 {
        match self {
            Workload::LargeMixed => 200,
            Workload::ColdCompile => 0,
        }
    }
}

/// Where recovery is timed, and how many times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// On the live data directory, after the stream.
    AtEnd(usize),
    /// On the spare data directory, after each spare set-up.
    PerSpare(usize),
}

/// Query kinds, as named on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Pi,
    Sigma,
    Delta,
    DeltaPlus,
}

impl Kind {
    pub fn keyword(self) -> &'static str {
        match self {
            Kind::Pi => "pi",
            Kind::Sigma => "sigma",
            Kind::Delta => "delta",
            Kind::DeltaPlus => "delta+",
        }
    }
}

/// What a request does.
#[derive(Debug, Clone)]
pub enum Action {
    Query {
        kind: Kind,
        cq: Structure,
        /// Request class for reports (`twin-delta` marks twin-node Δ, the
        /// large-mixed tail class).
        class: &'static str,
        /// For a renamed repeat, the program it renames.
        original: Option<Structure>,
    },
    Mutate {
        ops: Vec<FactOp>,
        /// Ops the server must report as applied (set semantics).
        applied: usize,
        /// The per-instance sequence number the server must report.
        seq: u64,
    },
}

/// One request of the stream.
#[derive(Debug, Clone)]
pub struct Req {
    pub inst: usize,
    pub action: Action,
    /// For a query whose answer is checked: the client's copy of the
    /// instance at this point of the stream.
    pub at: Option<Structure>,
}

impl Req {
    pub fn is_mutation(&self) -> bool {
        matches!(self.action, Action::Mutate { .. })
    }

    /// The request's class for reports.
    pub fn class(&self) -> &'static str {
        match &self.action {
            Action::Query { class, .. } => class,
            Action::Mutate { .. } => "mutation",
        }
    }

    /// A short label for reports.
    pub fn describe(&self) -> String {
        match &self.action {
            Action::Query { kind, cq, .. } => {
                format!("{} [{cq}] on #{}", kind.keyword(), self.inst)
            }
            Action::Mutate { ops, .. } => format!("mutate ({} ops) on #{}", ops.len(), self.inst),
        }
    }

    /// The wire payload.
    pub fn payload(&self, names: &[String]) -> String {
        let name = &names[self.inst];
        match &self.action {
            Action::Query { kind, cq, .. } => format!("query {} {name} = {cq}", kind.keyword()),
            Action::Mutate { ops, .. } => {
                let ops: Vec<String> = ops.iter().map(|op| op.to_string()).collect();
                format!("mutate {name} = {}", ops.join(","))
            }
        }
    }
}

/// A workload's instances, shadows and request generator.
pub struct Stream {
    pub workload: Workload,
    pub names: Vec<String>,
    /// The client's copy of every instance.
    pub shadow: Vec<Structure>,
    /// Per-instance mutation sequence numbers acknowledged so far.
    pub seqs: Vec<u64>,
    rng: StdRng,
    /// Cache keys of every program sent so far (cold-compile only).
    planned: HashSet<String>,
    /// Span-2 programs sent so far, for renamed repeats.
    span2: Vec<(usize, Kind, Structure)>,
    /// The first span-2 programs, in order: the cold-compile restart set.
    restart: Vec<(usize, Kind, Structure)>,
    cq_seed: u64,
    pub round: usize,
}

/// The large-mixed programs: (kind, CQ, class).
fn large_programs() -> Vec<(Kind, Structure, &'static str)> {
    vec![
        (Kind::Sigma, paper::q7().structure().clone(), "sigma-q7"),
        (Kind::Pi, paper::q4(), "pi-q4"),
        (Kind::Sigma, paper::q4(), "sigma-q4"),
        (Kind::Delta, paper::q2(), "delta-q2"),
        (Kind::DeltaPlus, paper::q2(), "delta+-q2"),
        (Kind::Delta, st("F(x), T(x), R(x,y), F(y)"), TWIN),
        (Kind::Delta, paper::q5().structure().clone(), TWIN),
        (Kind::Delta, paper::q7().structure().clone(), TWIN),
    ]
}

/// The class of twin-node Δ requests.
pub const TWIN: &str = "twin-delta";

impl Stream {
    /// Generate the workload's instances from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let mix = |k: u64| seed.wrapping_mul(0x9E37_79B9).wrapping_add(k);
        let (names, shadow): (Vec<String>, Vec<Structure>) = match workload {
            Workload::ColdCompile => (0..8)
                .map(|i| {
                    let mut s = random_instance(24, 44, 0.45, 0.25, mix(i));
                    cap_a_nodes(&mut s);
                    (format!("c{i}"), s)
                })
                .unzip(),
            // A fixed data set (the repository's large-instance shape,
            // `scaling_traffic(5000, _, 3)`); the seed drives the traffic.
            // Twin-node Δ costs swing by two orders of magnitude between
            // random 5k-node instances, which would make every large-mixed
            // figure a property of the seed rather than of the program.
            Workload::LargeMixed => (
                vec!["big".to_owned()],
                vec![random_instance(
                    5000,
                    10000,
                    0.45,
                    0.25,
                    LARGE_INSTANCE_SEED,
                )],
            ),
        };
        let seqs = vec![0; names.len()];
        Stream {
            workload,
            names,
            shadow,
            seqs,
            rng: StdRng::seed_from_u64(mix(0x5eed)),
            planned: HashSet::new(),
            span2: Vec::new(),
            restart: Vec::new(),
            cq_seed: mix(0xc0de),
            round: 0,
        }
    }

    fn query(
        &mut self,
        inst: usize,
        kind: Kind,
        cq: Structure,
        class: &'static str,
        check: bool,
    ) -> Req {
        Req {
            inst,
            action: Action::Query {
                kind,
                cq,
                class,
                original: None,
            },
            at: check.then(|| self.shadow[inst].clone()),
        }
    }

    /// A cold-compile mutation of 1–3 random ops, folded into the shadow.
    fn mutation(&mut self, inst: usize) -> Req {
        let batch = self.rng.gen_range(1..=3usize);
        let mut ops = Vec::with_capacity(batch);
        while ops.len() < batch {
            if let Some(op) = random_op(&self.shadow[inst], &mut self.rng, true, true) {
                ops.push(op);
            }
        }
        self.send_ops(inst, ops)
    }

    /// A large-mixed mutation of 1–3 random ops that each change the
    /// instance (no new nodes), folded into the shadow; also returns the
    /// ops that undo it, in the order that undoes it.
    fn undoable_mutation(&mut self, inst: usize) -> (Req, Vec<FactOp>) {
        let batch = self.rng.gen_range(1..=3usize);
        let mut after = self.shadow[inst].clone();
        let mut ops = Vec::with_capacity(batch);
        while ops.len() < batch {
            if let Some(op) = random_op(&after, &mut self.rng, false, false) {
                if after.apply(op) {
                    ops.push(op);
                }
            }
        }
        let undo = ops.iter().rev().map(|&op| inverse(op)).collect();
        (self.send_ops(inst, ops), undo)
    }

    /// A mutation of the given ops, folded into the shadow.
    fn send_ops(&mut self, inst: usize, ops: Vec<FactOp>) -> Req {
        let applied = self.shadow[inst].apply_all(&ops);
        self.seqs[inst] += 1;
        Req {
            inst,
            action: Action::Mutate {
                ops,
                applied,
                seq: self.seqs[inst],
            },
            at: None,
        }
    }

    /// Requests sent during set-up, after the loads: they warm the
    /// connection and the plans (and, where the workload has them, the
    /// materialisations) the timed stream relies on.
    pub fn warmup(&mut self) -> Vec<Req> {
        match self.workload {
            Workload::ColdCompile => (0..self.names.len())
                .map(|i| self.query(i, Kind::Pi, paper::q4(), "warm", true))
                .collect(),
            Workload::LargeMixed => large_programs()
                .into_iter()
                .filter(|(_, _, class)| *class != TWIN)
                .map(|(kind, cq, class)| self.query(0, kind, cq, class, true))
                .collect(),
        }
    }

    /// The next round of the timed stream.
    pub fn next_round(&mut self) -> Vec<Req> {
        let round = match self.workload {
            Workload::ColdCompile => self.cold_round(),
            Workload::LargeMixed => self.large_round(),
        };
        self.round += 1;
        round
    }

    /// A fresh random ditree 1-CQ of the given span whose cache key under
    /// `kind` has never been sent.
    fn fresh_cq(&mut self, kind: Kind, span: usize) -> Structure {
        loop {
            self.cq_seed = self.cq_seed.wrapping_add(1);
            let params = DitreeCqParams {
                nodes: if span == 1 { 5 } else { 7 },
                twin_prob: 0.3,
                solitary_ts: span,
                s_edge_prob: 0.3,
            };
            let Some(q) = random_ditree_cq(params, self.cq_seed) else {
                continue;
            };
            let cq = q.structure().clone();
            if self.planned.insert(format!("{} {cq}", kind.keyword())) {
                return cq;
            }
        }
    }

    /// An earlier span-2 program under a fresh node renaming (a new cache
    /// key for the same program), if one renders differently.
    fn renamed_repeat(&mut self) -> Option<Req> {
        if self.span2.is_empty() {
            return None;
        }
        let (inst, kind, cq) = self.span2[self.rng.gen_range(0..self.span2.len())].clone();
        for _ in 0..8 {
            let renamed = rename(&cq, &mut self.rng);
            if OneCq::new(renamed.clone()).is_ok()
                && self.planned.insert(format!("{} {renamed}", kind.keyword()))
            {
                return Some(Req {
                    inst,
                    action: Action::Query {
                        kind,
                        cq: renamed,
                        class: "renamed",
                        original: Some(cq),
                    },
                    at: Some(self.shadow[inst].clone()),
                });
            }
        }
        None
    }

    /// 20 requests: 8 fresh span-2 Π/Σ, 3 renamed span-2 repeats, 3 fresh
    /// span-1 Π/Σ, 4 fresh Δ/Δ⁺ (two of each span), 2 mutations.
    fn cold_round(&mut self) -> Vec<Req> {
        #[derive(Clone, Copy)]
        enum Slot {
            Span2,
            Renamed,
            Span1,
            Delta(usize),
            Mutate,
        }
        let mut slots = Vec::with_capacity(20);
        slots.extend([Slot::Span2; 8]);
        slots.extend([Slot::Renamed; 3]);
        slots.extend([Slot::Span1; 3]);
        slots.extend([
            Slot::Delta(1),
            Slot::Delta(1),
            Slot::Delta(2),
            Slot::Delta(2),
        ]);
        slots.extend([Slot::Mutate; 2]);
        shuffle(&mut slots, &mut self.rng);
        let mut out = Vec::with_capacity(slots.len());
        for slot in slots {
            let inst = self.rng.gen_range(0..self.names.len());
            let pi_or_sigma = if self.rng.gen_bool(0.5) {
                Kind::Pi
            } else {
                Kind::Sigma
            };
            let req = match slot {
                Slot::Span2 => {
                    let cq = self.fresh_cq(pi_or_sigma, 2);
                    self.span2.push((inst, pi_or_sigma, cq.clone()));
                    if self.restart.len() < RESTART_PROGRAMS {
                        self.restart.push((inst, pi_or_sigma, cq.clone()));
                    }
                    self.query(inst, pi_or_sigma, cq, "span2", true)
                }
                Slot::Renamed => match self.renamed_repeat() {
                    Some(r) => r,
                    None => {
                        let cq = self.fresh_cq(pi_or_sigma, 2);
                        self.query(inst, pi_or_sigma, cq, "span2", true)
                    }
                },
                Slot::Span1 => {
                    let cq = self.fresh_cq(pi_or_sigma, 1);
                    self.query(inst, pi_or_sigma, cq, "span1", true)
                }
                Slot::Delta(span) => {
                    let kind = if self.rng.gen_bool(0.5) {
                        Kind::Delta
                    } else {
                        Kind::DeltaPlus
                    };
                    let cq = self.fresh_cq(kind, span);
                    let class = if span == 1 {
                        "delta-span1"
                    } else {
                        "delta-span2"
                    };
                    self.query(inst, kind, cq, class, true)
                }
                Slot::Mutate => self.mutation(inst),
            };
            out.push(req);
        }
        out
    }

    /// 300 requests: 60 mutations and 240 reads — 66 Σ q7 (rewriting),
    /// 60 Π q4 + 42 Σ q4 (materialised), 34 Δ q2 + 35 Δ⁺ q2 (DPLL), and
    /// each of the three twin-node Δ programs once. The first read of each
    /// program in rounds 0 and 1 is checked.
    fn large_round(&mut self) -> Vec<Req> {
        let programs = large_programs();
        let mut slots: Vec<Option<usize>> = Vec::with_capacity(300);
        for (p, count) in [(0, 66), (1, 60), (2, 42), (3, 34), (4, 35)] {
            slots.extend(std::iter::repeat_n(Some(p), count));
        }
        slots.extend(std::iter::repeat_n(None, 60));
        shuffle(&mut slots, &mut self.rng);
        // The twin-node Δ programs open the round, in seeded order. The
        // first 30 mutations of a round change the instance and the last
        // 30 undo them, last first, so every round starts from the
        // instance as loaded and the twins always meet that instance:
        // their cost swings by two orders of magnitude with the
        // instance's state, and they take most of a run, so a random walk
        // over a run's 1–2k mutations would make every large-mixed figure
        // a property of the seed.
        let mut twins = vec![Some(5), Some(6), Some(7)];
        shuffle(&mut twins, &mut self.rng);
        twins.extend(slots);
        let slots = twins;
        let mut seen = HashSet::new();
        let sample = self.round < 2;
        let mut undo: Vec<Vec<FactOp>> = Vec::new();
        let mut writes = 0;
        slots
            .into_iter()
            .map(|slot| match slot {
                None => {
                    writes += 1;
                    if writes <= 30 {
                        let (req, ops) = self.undoable_mutation(0);
                        undo.push(ops);
                        req
                    } else {
                        let ops = undo.pop().expect("as many undos as changes");
                        self.send_ops(0, ops)
                    }
                }
                Some(p) => {
                    let (kind, cq, class) = programs[p].clone();
                    let check = sample && seen.insert(p);
                    self.query(0, kind, cq, class, check)
                }
            })
            .collect()
    }

    /// Queries answered after a restart (each checked against the final
    /// shadow). Cold-compile re-asks its first twenty span-2 programs —
    /// every one a compile again on a fresh server; the others re-ask
    /// their warm-up programs, which rebuilds the materialisations.
    pub fn restart_set(&mut self) -> Vec<Req> {
        match self.workload {
            Workload::ColdCompile => self
                .restart
                .clone()
                .into_iter()
                .map(|(inst, kind, cq)| self.query(inst, kind, cq, "span2", true))
                .collect(),
            Workload::LargeMixed => self.warmup(),
        }
    }

    /// Every large-mixed program at the final version, all checked.
    pub fn final_set(&mut self) -> Vec<Req> {
        match self.workload {
            Workload::LargeMixed => large_programs()
                .into_iter()
                .map(|(kind, cq, class)| self.query(0, kind, cq, class, true))
                .collect(),
            Workload::ColdCompile => Vec::new(),
        }
    }
}

/// Drop `A` labels beyond [`MAX_A_NODES`].
fn cap_a_nodes(s: &mut Structure) {
    let a_nodes = s.nodes_with_label(Pred::A);
    for v in a_nodes.into_iter().skip(MAX_A_NODES) {
        s.remove_label(v, Pred::A);
    }
}

/// Fisher–Yates with the stream's generator.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// The same CQ under a random permutation of its nodes.
fn rename(cq: &Structure, rng: &mut StdRng) -> Structure {
    let n = cq.node_count();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    shuffle(&mut perm, rng);
    let mut out = Structure::with_nodes(n);
    for (p, v) in cq.unary_atoms() {
        out.add_label(Node(perm[v.index()]), p);
    }
    for (p, u, v) in cq.edges() {
        out.add_edge(p, Node(perm[u.index()]), Node(perm[v.index()]));
    }
    out
}

/// One random op against `s`: half retracts of an existing atom, half
/// inserts (labels, edges, now and then a fresh node). With `cap_a`, an
/// `A` insert that would pass [`MAX_A_NODES`] becomes an `F` insert.
/// The op that undoes `op` right after it changed a structure.
fn inverse(op: FactOp) -> FactOp {
    match op {
        FactOp::AddLabel(p, v) => FactOp::RemoveLabel(p, v),
        FactOp::RemoveLabel(p, v) => FactOp::AddLabel(p, v),
        FactOp::AddEdge(p, u, v) => FactOp::RemoveEdge(p, u, v),
        FactOp::RemoveEdge(p, u, v) => FactOp::AddEdge(p, u, v),
    }
}

fn random_op(s: &Structure, rng: &mut StdRng, cap_a: bool, may_grow: bool) -> Option<FactOp> {
    if rng.gen_bool(0.5) {
        let labels = s.label_count();
        let total = labels + s.edge_count();
        if total == 0 {
            return None;
        }
        let k = rng.gen_range(0..total);
        return if k < labels {
            s.unary_atoms()
                .nth(k)
                .map(|(p, v)| FactOp::RemoveLabel(p, v))
        } else {
            s.edges()
                .nth(k - labels)
                .map(|(p, u, v)| FactOp::RemoveEdge(p, u, v))
        };
    }
    let n = s.node_count() as u32;
    let grow = rng.gen_bool(0.05) && may_grow;
    let pick = |rng: &mut StdRng| Node(rng.gen_range(0..n.max(1)));
    if rng.gen_bool(0.5) {
        let v = if grow { Node(n) } else { pick(rng) };
        let mut p = [Pred::F, Pred::T, Pred::A][rng.gen_range(0..3usize)];
        if cap_a
            && p == Pred::A
            && (v.0 >= n || !s.has_label(v, Pred::A))
            && s.nodes_with_label(Pred::A).len() >= MAX_A_NODES
        {
            p = Pred::F;
        }
        Some(FactOp::AddLabel(p, v))
    } else {
        let u = if grow { Node(n) } else { pick(rng) };
        let p = if rng.gen_bool(0.5) { Pred::R } else { Pred::S };
        Some(FactOp::AddEdge(p, u, pick(rng)))
    }
}
