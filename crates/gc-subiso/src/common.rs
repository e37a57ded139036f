//! Shared plumbing for the matcher implementations: the quick-reject test,
//! label statistics, and the search driver protocol.

use crate::{MatchConfig, MatchOutcome, Prepared};
use gc_graph::{GraphProfile, Label, LabeledGraph, NodeId, ProfileRef};
use std::ops::ControlFlow;

/// Cheap necessary conditions for `pattern ⊆ target`, read off the two
/// profiles; returning `true` proves non-containment without any search.
/// Every decision test runs this first ([`Matcher::contains_prepared`]).
///
/// [`Matcher::contains_prepared`]: crate::Matcher::contains_prepared
pub fn quick_reject(pattern: ProfileRef<'_>, target: ProfileRef<'_>) -> bool {
    if pattern.nodes > target.nodes || pattern.edges > target.edges {
        return true;
    }
    // Label multiset containment: a merge walk over the two ascending
    // `(label, count)` histograms.
    let mut tl = target.labels.iter();
    for &(l, n) in pattern.labels {
        loop {
            match tl.next() {
                Some(&(m, _)) if m < l => continue,
                Some(&(m, c)) if m == l && c >= n => break,
                _ => return true,
            }
        }
    }
    // Degree dominance: each pattern node needs a distinct image of at
    // least its own degree, so for every k the target needs at least as
    // many nodes of degree >= k. Given `pattern.nodes <= target.nodes`,
    // this is exactly "the i-th largest pattern degree is at most the i-th
    // largest target degree", with no sort.
    pattern.degree_at_least.len() > target.degree_at_least.len()
        || pattern
            .degree_at_least
            .iter()
            .zip(target.degree_at_least)
            .any(|(p, t)| p > t)
}

/// Runs one test through the protocol every matcher shares: the empty
/// pattern embeds vacuously (one empty embedding, no steps); otherwise the
/// profiles are quick-rejected, and only a survivor reaches `search`, which
/// counts its steps in the [`Work`] and reports embeddings to `driver`.
pub(crate) fn run_prepared(
    pattern: Prepared<'_>,
    target: Prepared<'_>,
    cfg: &MatchConfig,
    driver: &mut Driver,
    search: impl FnOnce(&LabeledGraph, &LabeledGraph, &mut Work, &mut Driver),
) -> MatchOutcome {
    if pattern.graph.node_count() == 0 {
        driver.on_embedding(&[]);
        return MatchOutcome {
            found: true,
            complete: true,
            nodes_expanded: 0,
        };
    }
    let mut work = Work::new(cfg.budget);
    if !quick_reject(pattern.profile, target.profile) {
        search(pattern.graph, target.graph, &mut work, driver);
    }
    MatchOutcome {
        found: driver.found,
        complete: !work.exhausted,
        nodes_expanded: work.nodes,
    }
}

/// [`run_prepared`] for the unbounded enumeration entry points, which take
/// bare graphs: profiles both, then runs.
pub(crate) fn run_unprepared(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    driver: &mut Driver,
    search: impl FnOnce(&LabeledGraph, &LabeledGraph, &mut Work, &mut Driver),
) {
    let (pp, tp) = (GraphProfile::of(pattern), GraphProfile::of(target));
    run_prepared(
        Prepared::new(pattern, pp.view()),
        Prepared::new(target, tp.view()),
        &MatchConfig::UNBOUNDED,
        driver,
        search,
    );
}

/// Sorted multiset of the labels of `v`'s neighbours.
pub(crate) fn neighbor_labels_sorted(g: &LabeledGraph, v: NodeId) -> Vec<Label> {
    let mut ls: Vec<Label> = g.neighbors(v).iter().map(|&w| g.label(w)).collect();
    ls.sort_unstable();
    ls
}

/// Multiset containment over two sorted slices: every element of `a` (with
/// multiplicity) appears in `b`.
pub(crate) fn sorted_multiset_contained(a: &[Label], b: &[Label]) -> bool {
    let mut j = 0usize;
    for &x in a {
        // advance j to the first b element >= x
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// What a search driver should do after an embedding is reported.
pub(crate) enum Found {
    /// Stop the search (decision / first-embedding mode).
    Stop,
    /// Keep enumerating (count mode, below the limit).
    Continue,
}

/// Enumeration driver shared by every matcher's three entry points: decide,
/// find one embedding, or count embeddings.
pub(crate) struct Driver {
    mode: Mode,
    pub(crate) found: bool,
    pub(crate) count: u64,
    pub(crate) embedding: Option<Vec<NodeId>>,
}

enum Mode {
    Decide,
    Find,
    Count { limit: u64 },
}

impl Driver {
    pub(crate) fn decide() -> Self {
        Driver {
            mode: Mode::Decide,
            found: false,
            count: 0,
            embedding: None,
        }
    }

    pub(crate) fn find() -> Self {
        Driver {
            mode: Mode::Find,
            found: false,
            count: 0,
            embedding: None,
        }
    }

    pub(crate) fn count(limit: u64) -> Self {
        Driver {
            mode: Mode::Count { limit },
            found: false,
            count: 0,
            embedding: None,
        }
    }

    /// Records a complete embedding; returns whether to keep searching.
    pub(crate) fn on_embedding(&mut self, mapping: &[Option<NodeId>]) -> Found {
        self.found = true;
        self.count += 1;
        match self.mode {
            Mode::Decide => Found::Stop,
            Mode::Find => {
                self.embedding = Some(mapping.iter().map(|m| m.expect("complete")).collect());
                Found::Stop
            }
            Mode::Count { limit } => {
                if self.count >= limit {
                    Found::Stop
                } else {
                    Found::Continue
                }
            }
        }
    }
}

/// Budget-aware step counter shared by all searches.
pub(crate) struct Work {
    pub nodes: u64,
    budget: Option<u64>,
    pub exhausted: bool,
}

impl Work {
    pub fn new(budget: Option<u64>) -> Self {
        Work {
            nodes: 0,
            budget,
            exhausted: false,
        }
    }

    /// Counts one recursion step; returns `Break` when the budget trips.
    #[inline]
    pub fn step(&mut self) -> ControlFlow<()> {
        self.nodes += 1;
        if let Some(b) = self.budget {
            if self.nodes > b {
                self.exhausted = true;
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejects(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
        quick_reject(
            GraphProfile::of(pattern).view(),
            GraphProfile::of(target).view(),
        )
    }

    #[test]
    fn quick_reject_catches_size_and_labels() {
        let small = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        let big = LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2)]);
        assert!(rejects(&big, &small)); // more nodes than target
        let wrong_label = LabeledGraph::from_parts(vec![9, 1], &[(0, 1)]);
        assert!(rejects(&wrong_label, &big));
        assert!(!rejects(&small, &big));
        // Two copies of label 0 need two in the target.
        let twice = LabeledGraph::from_parts(vec![0, 0], &[(0, 1)]);
        assert!(rejects(&twice, &big));
    }

    #[test]
    fn quick_reject_degree_dominance() {
        // Star with 3 leaves needs a target node of degree >= 3.
        let star = LabeledGraph::from_parts(vec![0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        let path = LabeledGraph::from_parts(vec![0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        assert!(rejects(&star, &path));
        // Same sizes the other way round: the path has two nodes of degree
        // >= 2, the star only one.
        assert!(rejects(&path, &star));
        let claw_plus =
            LabeledGraph::from_parts(vec![0, 0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3), (3, 4)]);
        assert!(!rejects(&path, &claw_plus));
    }

    #[test]
    fn multiset_containment() {
        assert!(sorted_multiset_contained(&[1, 2, 2], &[1, 2, 2, 3]));
        assert!(!sorted_multiset_contained(&[2, 2, 2], &[1, 2, 2, 3]));
        assert!(sorted_multiset_contained(&[], &[1]));
        assert!(!sorted_multiset_contained(&[1], &[]));
    }

    #[test]
    fn work_budget_trips() {
        let mut w = Work::new(Some(2));
        assert!(w.step().is_continue());
        assert!(w.step().is_continue());
        assert!(w.step().is_break());
        assert!(w.exhausted);
        assert_eq!(w.nodes, 3);
    }

    #[test]
    fn work_unbounded() {
        let mut w = Work::new(None);
        for _ in 0..1000 {
            assert!(w.step().is_continue());
        }
        assert!(!w.exhausted);
    }
}
