//! Answer checks, computed apart from the server.
//!
//! * Π/Σ: the rules of the unrewritten `Π_q` / `Σ_q` evaluated here, naively
//!   and rule by rule to their least fixpoint, over the client's copy of
//!   the instance, with a backtracking matcher of this file that walks the
//!   instance's adjacency lists: no engine, no rewriting, no
//!   materialisation, no index or CSR snapshot, no parallelism. It also
//!   checks Prop. 2's promise that a rewriting the server adopted equals
//!   the fixpoint.
//! * Δ/Δ⁺: every `F`/`T` labelling of the `A`-nodes, enumerated here, each
//!   tested with the legacy `hom_exists` search, where there are at most
//!   [`MAX_A_NODES`] `A`-nodes; above that (the 5k-node large-mixed
//!   instance) the unplanned `certain_answer_dsirup`, which shares its
//!   DPLL search and CSR snapshot code with the server's Δ strategy.
//! * Renamed repeats are checked against their original program.
//! * Mutations: `applied` and `seq` as the client's fold predicts.

use crate::gen::{Action, Kind, Req, MAX_A_NODES};
use sirup_core::program::{pi_q, sigma_q, DSirup, Program, Rule};
use sirup_core::{Node, OneCq, Pred, Structure};
use sirup_engine::disjunctive::certain_answer_dsirup;
use sirup_hom::hom_exists;
use sirup_server::Answer;

/// The reply the server must give to a checked query over `at`.
pub fn expected_query(kind: Kind, cq: &Structure, at: &Structure) -> String {
    match kind {
        Kind::Pi => {
            let q = OneCq::new(cq.clone()).expect("Π queries are 1-CQs");
            render(&Answer::Bool(naive_fixpoint(&pi_q(&q), at).1))
        }
        Kind::Sigma => {
            let q = OneCq::new(cq.clone()).expect("Σ queries are 1-CQs");
            let derived = naive_fixpoint(&sigma_q(&q), at).0;
            render(&Answer::Nodes(
                at.nodes().filter(|v| derived[v.index()]).collect(),
            ))
        }
        Kind::Delta | Kind::DeltaPlus => {
            let disjoint = kind == Kind::DeltaPlus;
            let yes = if at.nodes_with_label(Pred::A).len() <= MAX_A_NODES {
                brute_force_delta(cq, at, disjoint)
            } else {
                certain_answer_dsirup(
                    &DSirup {
                        cq: cq.clone(),
                        disjoint,
                    },
                    at,
                )
            };
            render(&Answer::Bool(yes))
        }
    }
}

/// The wire rendering of an answer.
pub fn render(answer: &Answer) -> String {
    match answer {
        Answer::Bool(b) => format!("answer bool {b}"),
        Answer::Nodes(nodes) => {
            let list: Vec<String> = nodes.iter().map(|n| format!("n{}", n.0)).collect();
            format!("answer nodes {}", list.join(","))
        }
        Answer::Applied { applied, seq } => format!("answer applied {applied} seq {seq}"),
        Answer::Overloaded => "error overloaded".to_owned(),
    }
}

/// A rule body as a pattern: one node per variable, the body's unary
/// atoms (the IDB `P` included) as labels and its binary atoms as edges,
/// with a search order from `anchor` along the body's edges.
struct Body {
    pattern: Structure,
    /// Pattern nodes in search order, each with the edge that links it to
    /// a node earlier in the order, if any.
    order: Vec<(Node, Option<Link>)>,
}

/// An edge to a node placed earlier: its predicate, whether it points
/// from that node to this one, and that node.
type Link = (Pred, bool, Node);

impl Body {
    fn new(rule: &Rule, anchor: u32) -> Body {
        let mut pattern = Structure::with_nodes(rule.var_count().max(anchor as usize + 1));
        for atom in &rule.body {
            match atom.args[..] {
                [v] => {
                    pattern.add_label(Node(v.0), atom.pred);
                }
                [u, v] => {
                    pattern.add_edge(atom.pred, Node(u.0), Node(v.0));
                }
                _ => panic!("monadic sirup bodies have unary and binary atoms only"),
            }
        }
        // Breadth-first from the anchor; a node no edge reaches starts a
        // new search over every instance node.
        let n = pattern.node_count();
        let mut placed = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for root in std::iter::once(anchor).chain(0..n as u32) {
            if placed[root as usize] {
                continue;
            }
            placed[root as usize] = true;
            order.push((Node(root), None));
            let mut next = order.len() - 1;
            while next < order.len() {
                let u = order[next].0;
                next += 1;
                let links = pattern.out(u).iter().map(|&(p, w)| (p, true, w));
                let links = links.chain(pattern.inn(u).iter().map(|&(p, w)| (p, false, w)));
                for (p, forward, w) in links.collect::<Vec<_>>() {
                    if !placed[w.index()] {
                        placed[w.index()] = true;
                        order.push((w, Some((p, forward, u))));
                    }
                }
            }
        }
        Body { pattern, order }
    }

    /// Is there a match of the body into `data` (with `P` read from
    /// `derived`) that sends the anchor to `v`?
    fn matches_at(&self, data: &Structure, derived: &[bool], v: Node) -> bool {
        let root = self.order[0].0;
        let mut image = vec![None; self.pattern.node_count()];
        if !self.admits(root, v, data, derived, &image) {
            return false;
        }
        image[root.index()] = Some(v);
        self.extend(1, data, derived, &mut image)
    }

    fn extend(
        &self,
        i: usize,
        data: &Structure,
        derived: &[bool],
        image: &mut [Option<Node>],
    ) -> bool {
        let Some(&(u, link)) = self.order.get(i) else {
            return true;
        };
        let candidates: Vec<Node> = match link {
            Some((p, true, from)) => {
                let t = image[from.index()].expect("placed earlier");
                data.out_pred(t, p).iter().map(|&(_, w)| w).collect()
            }
            Some((p, false, from)) => {
                let t = image[from.index()].expect("placed earlier");
                data.inn_pred(t, p).iter().map(|&(_, w)| w).collect()
            }
            None => data.nodes().collect(),
        };
        for t in candidates {
            if self.admits(u, t, data, derived, image) {
                image[u.index()] = Some(t);
                if self.extend(i + 1, data, derived, image) {
                    return true;
                }
                image[u.index()] = None;
            }
        }
        false
    }

    /// May pattern node `u` go to `t`, given the nodes placed so far?
    fn admits(
        &self,
        u: Node,
        t: Node,
        data: &Structure,
        derived: &[bool],
        image: &[Option<Node>],
    ) -> bool {
        let at = |w: Node| if w == u { Some(t) } else { image[w.index()] };
        self.pattern.labels(u).iter().all(|&l| {
            if l == Pred::P {
                derived[t.index()]
            } else {
                data.has_label(t, l)
            }
        }) && self
            .pattern
            .out(u)
            .iter()
            .all(|&(p, w)| at(w).is_none_or(|tw| data.has_edge(p, t, tw)))
            && self
                .pattern
                .inn(u)
                .iter()
                .all(|&(p, w)| at(w).is_none_or(|tw| data.has_edge(p, tw, t)))
    }
}

/// The least fixpoint of a monadic sirup with IDB `P` over `data`, the
/// naive way: sweep every rule with head `P(x)` over every node not yet in
/// `P` until a sweep adds nothing, then try the rules with a nullary head.
/// Returns the nodes in `P` and whether the nullary goal holds.
pub fn naive_fixpoint(program: &Program, data: &Structure) -> (Vec<bool>, bool) {
    let mut derived = vec![false; data.node_count()];
    let recursive: Vec<Body> = program
        .rules
        .iter()
        .filter(|r| r.head.args.len() == 1)
        .map(|r| {
            assert_eq!(r.head.pred, Pred::P, "the IDB is P");
            Body::new(r, r.head.args[0].0)
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for body in &recursive {
            for v in data.nodes() {
                if !derived[v.index()] && body.matches_at(data, &derived, v) {
                    derived[v.index()] = true;
                    changed = true;
                }
            }
        }
    }
    let goal = program
        .rules
        .iter()
        .filter(|r| r.head.args.is_empty())
        .any(|r| {
            let body = Body::new(r, 0);
            data.nodes().any(|v| body.matches_at(data, &derived, v))
        });
    (derived, goal)
}

/// Certain answer to `(Δ_q, G)` (or `Δ⁺_q`) by exhaustion: ‘yes’ iff every
/// `F`/`T` labelling of the `A`-nodes admits a match of `q`. Under `Δ⁺` an
/// instance that already has an `F`+`T` node has no model, so ‘yes’.
pub fn brute_force_delta(cq: &Structure, data: &Structure, disjoint: bool) -> bool {
    if disjoint
        && data
            .nodes()
            .any(|v| data.has_label(v, Pred::F) && data.has_label(v, Pred::T))
    {
        return true;
    }
    let a_nodes = data.nodes_with_label(Pred::A);
    assert!(a_nodes.len() <= 20, "brute force needs few A-nodes");
    (0u32..1 << a_nodes.len()).all(|mask| {
        let mut labelled = data.clone();
        for (i, &v) in a_nodes.iter().enumerate() {
            let p = if mask >> i & 1 == 1 { Pred::T } else { Pred::F };
            labelled.add_label(v, p);
        }
        hom_exists(cq, &labelled)
    })
}

/// Why a reply is wrong, or `None` when it is right.
pub fn check(req: &Req, reply: &str) -> Option<String> {
    let expected = match &req.action {
        Action::Mutate { applied, seq, .. } => render(&Answer::Applied {
            applied: *applied,
            seq: *seq,
        }),
        Action::Query {
            kind, cq, original, ..
        } => {
            let at = req.at.as_ref()?;
            // A renamed repeat must answer as its original program does.
            expected_query(*kind, original.as_ref().unwrap_or(cq), at)
        }
    };
    (reply != expected).then(|| format!("expected {expected:?}, got {reply:?}"))
}

/// The atoms of a `dump` reply body or of a shadow, sorted.
pub fn atom_set(rendered: &str) -> Vec<String> {
    let mut atoms: Vec<String> = rendered
        .split(", ")
        .filter(|a| !a.is_empty() && *a != "⊤")
        .map(str::to_owned)
        .collect();
    atoms.sort();
    atoms
}

/// Does a `dump` reply show exactly the client's fold of every
/// acknowledged op?
pub fn check_dump(name: &str, reply: &str, shadow: &Structure, seq: u64) -> Option<String> {
    let (head, body) = reply.split_once('\n').unwrap_or((reply, ""));
    let want_head = format!("ok dump {name} nodes {} seq {seq}", shadow.node_count());
    if head != want_head {
        return Some(format!("dump {name}: expected {want_head:?}, got {head:?}"));
    }
    (atom_set(body) != atom_set(&shadow.to_string()))
        .then(|| format!("dump {name}: recovered atoms differ from the client's fold"))
}
