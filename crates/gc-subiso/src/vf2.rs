//! Vanilla VF2 \[Cordella, Foggia, Sansone, Vento — TPAMI 2004\], adapted to
//! non-induced, vertex-labelled, undirected subgraph isomorphism.
//!
//! The implementation follows the classic recipe: depth-first extension of a
//! partial mapping, connectivity-driven candidate generation (the next
//! pattern node adjacent to the mapped core is tried against the unmapped
//! target neighbours of its mapped neighbour's image), plus the standard
//! feasibility rules — label equality, mapped-neighbour consistency, degree
//! dominance and a one-step lookahead on unmapped neighbour counts.

use crate::common::{run_prepared, run_unprepared, Driver, Found, Work};
use crate::{MatchConfig, MatchOutcome, Matcher, Prepared};
use gc_graph::{LabeledGraph, NodeId};
use std::ops::ControlFlow;

/// The VF2 matcher. Stateless; construct once and reuse freely.
#[derive(Debug, Default, Clone, Copy)]
pub struct Vf2;

impl Vf2 {
    /// Creates a new VF2 matcher.
    pub fn new() -> Self {
        Vf2
    }
}

impl Matcher for Vf2 {
    fn name(&self) -> &'static str {
        "VF2"
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

/// The VF2 search proper, for a pair that passed quick reject.
fn run(pattern: &LabeledGraph, target: &LabeledGraph, work: &mut Work, driver: &mut Driver) {
    let mut st = State {
        p: pattern,
        t: target,
        core_p: vec![None; pattern.node_count()],
        used_t: vec![false; target.node_count()],
        mapped: 0,
    };
    let _ = search(&mut st, work, driver);
}

struct State<'a> {
    p: &'a LabeledGraph,
    t: &'a LabeledGraph,
    core_p: Vec<Option<NodeId>>,
    used_t: Vec<bool>,
    mapped: usize,
}

impl State<'_> {
    /// Picks the next pattern node: the lowest-id unmapped node adjacent to
    /// the mapped core, or the lowest-id unmapped node if none (handles
    /// disconnected patterns).
    fn next_pattern_node(&self) -> (NodeId, Option<NodeId>) {
        let mut fallback = None;
        for u in self.p.nodes() {
            if self.core_p[u as usize].is_some() {
                continue;
            }
            if fallback.is_none() {
                fallback = Some(u);
            }
            if let Some(&w) = self
                .p
                .neighbors(u)
                .iter()
                .find(|&&w| self.core_p[w as usize].is_some())
            {
                return (u, Some(w));
            }
        }
        (fallback.expect("at least one unmapped node"), None)
    }

    /// VF2 feasibility of the candidate pair `(u, v)`.
    fn feasible(&self, u: NodeId, v: NodeId) -> bool {
        if self.p.label(u) != self.t.label(v) || self.used_t[v as usize] {
            return false;
        }
        if self.p.degree(u) > self.t.degree(v) {
            return false;
        }
        // Consistency: every mapped neighbour of u must map to a neighbour
        // of v (non-induced: no converse requirement).
        let mut unmapped_p_nbrs = 0usize;
        for &w in self.p.neighbors(u) {
            match self.core_p[w as usize] {
                Some(img) => {
                    if !self.t.has_edge(img, v) {
                        return false;
                    }
                }
                None => unmapped_p_nbrs += 1,
            }
        }
        // One-step lookahead: the unmapped pattern neighbours of u need
        // distinct unmapped target neighbours of v.
        let unmapped_t_nbrs = self
            .t
            .neighbors(v)
            .iter()
            .filter(|&&x| !self.used_t[x as usize])
            .count();
        unmapped_p_nbrs <= unmapped_t_nbrs
    }
}

fn search(st: &mut State<'_>, work: &mut Work, driver: &mut Driver) -> ControlFlow<()> {
    if st.mapped == st.p.node_count() {
        return match driver.on_embedding(&st.core_p) {
            Found::Stop => ControlFlow::Break(()),
            Found::Continue => ControlFlow::Continue(()),
        };
    }
    let (u, anchor) = st.next_pattern_node();
    match anchor {
        Some(w) => {
            // Candidates: unmapped target neighbours of the image of w.
            let img = st.core_p[w as usize].expect("anchor is mapped");
            let nbrs: &[NodeId] = st.t.neighbors(img);
            // Index loop (not iterator): the body re-borrows `st` mutably.
            #[allow(clippy::needless_range_loop)]
            for i in 0..nbrs.len() {
                let v = nbrs[i];
                work.step()?;
                if st.feasible(u, v) {
                    st.core_p[u as usize] = Some(v);
                    st.used_t[v as usize] = true;
                    st.mapped += 1;
                    let flow = search(st, work, driver);
                    st.core_p[u as usize] = None;
                    st.used_t[v as usize] = false;
                    st.mapped -= 1;
                    flow?;
                }
            }
        }
        None => {
            for v in st.t.nodes() {
                work.step()?;
                if st.feasible(u, v) {
                    st.core_p[u as usize] = Some(v);
                    st.used_t[v as usize] = true;
                    st.mapped += 1;
                    let flow = search(st, work, driver);
                    st.core_p[u as usize] = None;
                    st.used_t[v as usize] = false;
                    st.mapped -= 1;
                    flow?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_valid_embedding;

    fn path(labels: &[u32]) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(labels.to_vec(), &edges)
    }

    #[test]
    fn finds_path_in_cycle() {
        let p = path(&[0, 0, 0]);
        let t = LabeledGraph::from_parts(vec![0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let m = Vf2::new();
        assert!(m.contains(&p, &t));
        let emb = m.find_embedding(&p, &t).unwrap();
        assert!(is_valid_embedding(&p, &t, &emb));
    }

    #[test]
    fn respects_labels() {
        let p = path(&[0, 1]);
        let t = path(&[0, 0, 0]);
        assert!(!Vf2::new().contains(&p, &t));
    }

    #[test]
    fn non_induced_semantics() {
        // A 3-path embeds into a triangle even though the triangle has the
        // extra chord (induced iso would reject).
        let p = path(&[0, 0, 0]);
        let t = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        assert!(Vf2::new().contains(&p, &t));
    }

    #[test]
    fn counts_embeddings_in_triangle() {
        // An edge with two identically-labelled endpoints has 6 embeddings
        // into a triangle (3 edges × 2 orientations).
        let p = path(&[0, 0]);
        let t = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(Vf2::new().count_embeddings(&p, &t, u64::MAX), 6);
    }

    #[test]
    fn count_respects_limit() {
        let p = path(&[0, 0]);
        let t = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(Vf2::new().count_embeddings(&p, &t, 2), 2);
    }

    #[test]
    fn empty_pattern_trivially_contained() {
        let p = LabeledGraph::empty();
        let t = path(&[0, 1]);
        let m = Vf2::new();
        assert!(m.contains(&p, &t));
        assert_eq!(m.count_embeddings(&p, &t, u64::MAX), 1);
        assert_eq!(m.find_embedding(&p, &t), Some(vec![]));
    }

    #[test]
    fn disconnected_pattern() {
        let p = LabeledGraph::from_parts(vec![0, 1, 2, 3], &[(0, 1), (2, 3)]);
        let t = LabeledGraph::from_parts(vec![0, 1, 9, 2, 3], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let m = Vf2::new();
        assert!(m.contains(&p, &t));
        let emb = m.find_embedding(&p, &t).unwrap();
        assert!(is_valid_embedding(&p, &t, &emb));
    }

    #[test]
    fn budget_exhaustion_reported() {
        // A label-free 8-clique pattern into a 12-clique with budget 1.
        let n = 8u32;
        let mut pe = vec![];
        for i in 0..n {
            for j in i + 1..n {
                pe.push((i, j));
            }
        }
        let p = LabeledGraph::from_parts(vec![0; n as usize], &pe);
        let m_t = 12u32;
        let mut te = vec![];
        for i in 0..m_t {
            for j in i + 1..m_t {
                te.push((i, j));
            }
        }
        let t = LabeledGraph::from_parts(vec![0; m_t as usize], &te);
        let out = Vf2::new().contains_with(&p, &t, &MatchConfig::bounded(1));
        assert!(!out.complete);
        assert!(!out.found);
        // Unbounded succeeds.
        assert!(Vf2::new().contains(&p, &t));
    }

    #[test]
    fn deterministic_work_count() {
        let p = path(&[0, 1, 0, 1]);
        let t = LabeledGraph::from_parts(
            vec![0, 1, 0, 1, 0],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        );
        let a = Vf2::new().contains_with(&p, &t, &MatchConfig::UNBOUNDED);
        let b = Vf2::new().contains_with(&p, &t, &MatchConfig::UNBOUNDED);
        assert_eq!(a, b);
        assert!(a.nodes_expanded > 0);
    }

    #[test]
    fn pattern_larger_than_target_rejected_without_search() {
        let p = path(&[0, 0, 0, 0]);
        let t = path(&[0, 0]);
        let out = Vf2::new().contains_with(&p, &t, &MatchConfig::UNBOUNDED);
        assert!(!out.found);
        assert_eq!(out.nodes_expanded, 0);
    }
}
