//! Prepared-test parity: the profile-based quick reject and the prepared
//! entry point change no outcome.
//!
//! * **Reject parity** — [`quick_reject`] on two profiles decides exactly
//!   what the original per-test check decided: node/edge counts, a
//!   HashMap label-count containment and a sorted-degree dominance walk
//!   (reimplemented below as the oracle).
//! * **Matcher parity** — for every shipped matcher, `contains_prepared`
//!   (with dataset-column or owned profiles) equals `contains_with` in
//!   `(found, complete, nodes_expanded)`, under unbounded and bounded
//!   budgets; a pair the oracle rejects is a complete miss with no steps.
//! * **Method parity** — `Method::verify_directed`, serial and parallel,
//!   equals per-pair `contains_with` in both query directions.
//!
//! CI runs this file in release mode too (`cargo test --release --test
//! matcher_parity`).

use graphcache::graph::{GraphProfile, Label};
use graphcache::prelude::*;
use graphcache::subiso::{quick_reject, MatchConfig, MatchOutcome, Prepared};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::HashMap;

/// The per-test check the profiles replaced: recount both graphs.
fn oracle_rejects(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    if pattern.node_count() > target.node_count() || pattern.edge_count() > target.edge_count() {
        return true;
    }
    let counts = |g: &LabeledGraph| {
        let mut m: HashMap<Label, u32> = HashMap::new();
        for &l in g.labels() {
            *m.entry(l).or_insert(0) += 1;
        }
        m
    };
    let (pc, tc) = (counts(pattern), counts(target));
    if pc.iter().any(|(l, n)| tc.get(l).copied().unwrap_or(0) < *n) {
        return true;
    }
    let sorted_degrees = |g: &LabeledGraph| {
        let mut d: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
        d.sort_unstable_by(|a, b| b.cmp(a));
        d
    };
    let (pd, td) = (sorted_degrees(pattern), sorted_degrees(target));
    pd.iter().zip(td.iter()).any(|(p, t)| p > t)
}

/// Raw material for one graph: a node count, labels and edge endpoints,
/// clipped to the node count by [`graph`].
type RawGraph = (usize, Vec<u32>, Vec<(u32, u32)>);

fn raw_graph(max_nodes: usize, alphabet: u32) -> impl Strategy<Value = RawGraph> {
    (
        0..=max_nodes,
        pvec(0..alphabet, max_nodes),
        pvec((0..max_nodes as u32, 0..max_nodes as u32), 0..14usize),
    )
}

fn graph((n, labels, edges): &RawGraph) -> LabeledGraph {
    let edges: Vec<(u32, u32)> = edges
        .iter()
        .copied()
        .filter(|&(u, v)| (u as usize) < *n && (v as usize) < *n)
        .collect();
    LabeledGraph::from_parts(labels[..*n].to_vec(), &edges)
}

/// The pairs one random `(pattern, target)` draw expands into: the pair
/// itself and swapped (a pattern larger than the target), the target's
/// first half as a pattern (often contained), that half with one label
/// replaced by one absent from the target, and the empty pattern.
fn pairs(p: &LabeledGraph, t: &LabeledGraph) -> Vec<(LabeledGraph, LabeledGraph)> {
    let half: Vec<(u32, u32)> = t.edges().take(t.edge_count().div_ceil(2)).collect();
    let (sub, _) = t.edge_subgraph(&half);
    let absent = sub.relabeled(|v, l| if v == 0 { 99 } else { l });
    vec![
        (p.clone(), t.clone()),
        (t.clone(), p.clone()),
        (sub.clone(), t.clone()),
        (absent, t.clone()),
        (LabeledGraph::empty(), t.clone()),
    ]
}

const BUDGETS: [Option<u64>; 5] = [None, Some(0), Some(1), Some(4), Some(40)];

fn triple(o: MatchOutcome) -> (bool, bool, u64) {
    (o.found, o.complete, o.nodes_expanded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Profile reject == the recounting oracle, and every matcher's
    /// prepared path == `contains_with`, under every budget.
    #[test]
    fn prepared_path_matches_contains_with(
        p in raw_graph(6, 3),
        t in raw_graph(8, 3),
    ) {
        let (p, t) = (graph(&p), graph(&t));
        let pairs = pairs(&p, &t);
        // Targets' profiles come from a dataset column, as in Method M.
        let dataset = GraphDataset::new(pairs.iter().map(|(_, t)| t.clone()).collect());
        for (i, (pattern, target)) in pairs.iter().enumerate() {
            let pp = GraphProfile::of(pattern);
            let column = dataset.profile(GraphId(i as u32));
            prop_assert_eq!(column, GraphProfile::of(target).view());
            let rejected = oracle_rejects(pattern, target);
            prop_assert_eq!(quick_reject(pp.view(), column), rejected, "pair {}", i);
            for kind in MatcherKind::ALL {
                let m = kind.build();
                for budget in BUDGETS {
                    let cfg = MatchConfig { budget };
                    let with = m.contains_with(pattern, target, &cfg);
                    let prepared = m.contains_prepared(
                        Prepared::new(pattern, pp.view()),
                        Prepared::new(target, column),
                        &cfg,
                    );
                    prop_assert_eq!(
                        triple(prepared), triple(with),
                        "{} pair {} budget {:?}", kind.name(), i, budget
                    );
                    if pattern.node_count() == 0 {
                        prop_assert_eq!(triple(with), (true, true, 0));
                    } else if rejected {
                        prop_assert_eq!(triple(with), (false, true, 0), "{} pair {}", kind.name(), i);
                    }
                }
            }
        }
    }

    /// Method M's prepared verification == per-pair `contains_with`, for
    /// both query directions, serial and parallel, with every verifier.
    #[test]
    fn verify_directed_matches_per_pair_tests(
        graphs in pvec(raw_graph(7, 3), 1..10usize),
        q in raw_graph(5, 3),
    ) {
        let dataset = GraphDataset::new(graphs.iter().map(graph).collect());
        let query = graph(&q);
        let ids: Vec<GraphId> = dataset.ids().collect();
        for kind in MatcherKind::ALL {
            let m = kind.build();
            for threads in [1, 3] {
                let method = MethodBuilder::si(kind).threads(threads).build(&dataset);
                for qk in [QueryKind::Subgraph, QueryKind::Supergraph] {
                    let got = method.verify_directed(&query, &ids, qk);
                    let want: Vec<(GraphId, bool, u64)> = dataset
                        .iter()
                        .map(|(id, g)| {
                            let o = match qk {
                                QueryKind::Subgraph => m.contains_with(&query, g, &MatchConfig::UNBOUNDED),
                                QueryKind::Supergraph => m.contains_with(g, &query, &MatchConfig::UNBOUNDED),
                            };
                            (id, o.found, o.nodes_expanded)
                        })
                        .collect();
                    prop_assert_eq!(&got.outcomes, &want, "{} {:?} threads {}", kind.name(), qk, threads);
                }
            }
        }
    }
}

/// Degree dominance on its own: same sizes and labels, told apart only by
/// how many nodes reach each degree.
#[test]
fn degree_dominance_edge_cases() {
    let same = |edges: &[(u32, u32)], n: usize| LabeledGraph::from_parts(vec![0; n], edges);
    let path4 = same(&[(0, 1), (1, 2), (2, 3)], 4);
    let star4 = same(&[(0, 1), (0, 2), (0, 3)], 4);
    let star_tail = same(&[(0, 1), (0, 2), (0, 3), (3, 4)], 5);
    let two_edges = same(&[(0, 1), (2, 3)], 4);
    let cases = [
        (&star4, &path4, true),      // needs a degree-3 node
        (&path4, &star4, true),      // needs two degree-2 nodes
        (&path4, &star_tail, false), // star + tail has both
        (&two_edges, &path4, false), // degree 1 everywhere fits
    ];
    for (pattern, target, rejected) in cases {
        let (pp, tp) = (GraphProfile::of(pattern), GraphProfile::of(target));
        assert_eq!(oracle_rejects(pattern, target), rejected);
        assert_eq!(quick_reject(pp.view(), tp.view()), rejected);
        for kind in MatcherKind::ALL {
            let out = kind
                .build()
                .contains_with(pattern, target, &MatchConfig::UNBOUNDED);
            if rejected {
                assert_eq!(triple(out), (false, true, 0), "{}", kind.name());
            } else {
                assert!(out.found, "{}", kind.name());
            }
        }
    }
}
