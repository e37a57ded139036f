//! Ullmann's subgraph isomorphism algorithm \[Ullmann — JACM 1976\],
//! adapted to labelled, undirected, non-induced matching.
//!
//! Ullmann maintains a boolean candidate matrix `M[u][v]` ("pattern node `u`
//! may map to target node `v`") that is repeatedly *refined*: a candidate
//! survives only while every neighbour of `u` still has some candidate among
//! the neighbours of `v`. Search then assigns rows in order, re-running the
//! refinement as forward checking after each assignment.
//!
//! The paper cites Ullmann as the classic expensive baseline; in this repo it
//! additionally serves as an algorithmically independent referee for the
//! property tests (its search strategy shares no code with VF2/GraphQL).

use crate::common::{run_prepared, run_unprepared, Driver, Found, Work};
use crate::{MatchConfig, MatchOutcome, Matcher, Prepared};
use gc_graph::{LabeledGraph, NodeId};
use std::ops::ControlFlow;

/// The Ullmann matcher. Stateless; construct once and reuse freely.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ullmann;

impl Ullmann {
    /// Creates a new Ullmann matcher.
    pub fn new() -> Self {
        Ullmann
    }
}

impl Matcher for Ullmann {
    fn name(&self) -> &'static str {
        "Ullmann"
    }

    fn contains_prepared(
        &self,
        pattern: Prepared<'_>,
        target: Prepared<'_>,
        cfg: &MatchConfig,
    ) -> MatchOutcome {
        let mut driver = Driver::decide();
        run_prepared(pattern, target, cfg, &mut driver, run)
    }

    fn find_embedding(&self, pattern: &LabeledGraph, target: &LabeledGraph) -> Option<Vec<NodeId>> {
        let mut driver = Driver::find();
        run_unprepared(pattern, target, &mut driver, run);
        driver.embedding
    }

    fn count_embeddings(&self, pattern: &LabeledGraph, target: &LabeledGraph, limit: u64) -> u64 {
        let mut driver = Driver::count(limit);
        run_unprepared(pattern, target, &mut driver, run);
        driver.count
    }
}

/// Ullmann refinement and search, for a pair that passed quick reject.
fn run(pattern: &LabeledGraph, target: &LabeledGraph, work: &mut Work, driver: &mut Driver) {
    let np = pattern.node_count();
    let nt = target.node_count();
    let mut m = vec![false; np * nt];
    for u in pattern.nodes() {
        for v in target.nodes() {
            m[u as usize * nt + v as usize] =
                pattern.label(u) == target.label(v) && pattern.degree(u) <= target.degree(v);
        }
    }
    let mut st = State {
        p: pattern,
        t: target,
        nt,
        core_p: vec![None; np],
        used_t: vec![false; nt],
    };
    if refine(&st, &mut m, work).is_continue() && !any_row_empty(&m, np, nt) {
        let _ = search(&mut st, 0, m, work, driver);
    }
}

struct State<'a> {
    p: &'a LabeledGraph,
    t: &'a LabeledGraph,
    nt: usize,
    core_p: Vec<Option<NodeId>>,
    used_t: Vec<bool>,
}

/// Ullmann refinement to fixpoint: `M[u][v] &= ∀u'∈N(u) ∃v'∈N(v): M[u'][v']`.
fn refine(st: &State<'_>, m: &mut [bool], work: &mut Work) -> ControlFlow<()> {
    let nt = st.nt;
    loop {
        let mut changed = false;
        for u in st.p.nodes() {
            for v in st.t.nodes() {
                if !m[u as usize * nt + v as usize] {
                    continue;
                }
                work.step()?;
                let ok = st.p.neighbors(u).iter().all(|&up| {
                    st.t.neighbors(v)
                        .iter()
                        .any(|&vp| m[up as usize * nt + vp as usize])
                });
                if !ok {
                    m[u as usize * nt + v as usize] = false;
                    changed = true;
                }
            }
        }
        if !changed {
            return ControlFlow::Continue(());
        }
    }
}

fn any_row_empty(m: &[bool], np: usize, nt: usize) -> bool {
    (0..np).any(|u| !m[u * nt..(u + 1) * nt].iter().any(|&b| b))
}

fn search(
    st: &mut State<'_>,
    depth: usize,
    m: Vec<bool>,
    work: &mut Work,
    driver: &mut Driver,
) -> ControlFlow<()> {
    let np = st.p.node_count();
    if depth == np {
        return match driver.on_embedding(&st.core_p) {
            Found::Stop => ControlFlow::Break(()),
            Found::Continue => ControlFlow::Continue(()),
        };
    }
    let nt = st.nt;
    let u = depth as NodeId; // rows assigned in id order (classic Ullmann)
    for v in st.t.nodes() {
        if !m[depth * nt + v as usize] || st.used_t[v as usize] {
            continue;
        }
        work.step()?;
        // Consistency with already-assigned neighbours.
        let consistent =
            st.p.neighbors(u)
                .iter()
                .all(|&w| match st.core_p[w as usize] {
                    Some(img) => st.t.has_edge(img, v),
                    None => true,
                });
        if !consistent {
            continue;
        }
        // Forward checking: pin row u to v, clear column v from later rows,
        // then refine the copy.
        let mut next = m.clone();
        for x in 0..nt {
            next[depth * nt + x] = x == v as usize;
        }
        for row in depth + 1..np {
            next[row * nt + v as usize] = false;
        }
        st.core_p[u as usize] = Some(v);
        st.used_t[v as usize] = true;
        let flow = if refine(st, &mut next, work).is_break() {
            ControlFlow::Break(())
        } else if any_row_empty(&next, np, nt) {
            ControlFlow::Continue(())
        } else {
            search(st, depth + 1, next, work, driver)
        };
        st.core_p[u as usize] = None;
        st.used_t[v as usize] = false;
        flow?;
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_valid_embedding;
    use crate::vf2::Vf2;

    fn path(labels: &[u32]) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(labels.to_vec(), &edges)
    }

    #[test]
    fn agrees_with_vf2() {
        let cases = [
            (path(&[0, 1, 0]), path(&[0, 1, 0, 1])),
            (path(&[0, 0]), path(&[1, 1])),
            (
                LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (2, 0)]),
                path(&[0, 0, 0, 0]),
            ),
        ];
        for (p, t) in cases {
            assert_eq!(
                Ullmann::new().contains(&p, &t),
                Vf2::new().contains(&p, &t),
                "disagree on {p:?} vs {t:?}"
            );
        }
    }

    #[test]
    fn embedding_valid() {
        let p = LabeledGraph::from_parts(vec![2, 3, 2], &[(0, 1), (1, 2)]);
        let t = LabeledGraph::from_parts(
            vec![2, 3, 2, 3, 2],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        );
        let emb = Ullmann::new().find_embedding(&p, &t).unwrap();
        assert!(is_valid_embedding(&p, &t, &emb));
    }

    #[test]
    fn counting_matches_vf2() {
        let p = path(&[0, 0]);
        let t = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(
            Ullmann::new().count_embeddings(&p, &t, u64::MAX),
            Vf2::new().count_embeddings(&p, &t, u64::MAX),
        );
    }

    #[test]
    fn refinement_alone_can_reject() {
        // Pattern: square (4-cycle); target: star. Degrees pass for leaves
        // but refinement wipes the matrix without search.
        let square = LabeledGraph::from_parts(vec![0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let star = LabeledGraph::from_parts(vec![0; 5], &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert!(!Ullmann::new().contains(&square, &star));
    }

    #[test]
    fn budget_respected() {
        let p = LabeledGraph::from_parts(vec![0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut te = vec![];
        for i in 0..9u32 {
            for j in i + 1..9 {
                te.push((i, j));
            }
        }
        let t = LabeledGraph::from_parts(vec![0; 9], &te);
        let out = Ullmann::new().contains_with(&p, &t, &MatchConfig::bounded(1));
        assert!(!out.complete);
    }
}
