//! Index-build parity: the trie-walk build of GGSX and Grapes produces
//! exactly the index that inserting each graph's `enumerate_paths` map
//! feature by feature produced.
//!
//! The oracle below is that HashMap build, reimplemented on the public
//! `LabelTrie::posting_mut`. The two indexes must agree on every feature's
//! posting (and the trie's node count), `distinct`, `overflowed()`,
//! `memory_bytes()`, Grapes' `locations`, and on `filter` /
//! `filter_supergraph` answers, which are checked against the definition
//! (count domination per feature) computed from per-graph profiles.
//!
//! Work caps are drawn so that some graphs overflow and others do not,
//! which exercises the rollback of an overflowing graph's trie nodes.
//!
//! CI runs this file in release mode too (`cargo test --release --test
//! index_build_parity`).

use graphcache::graph::Label;
use graphcache::index::grapes::LocatedPosting;
use graphcache::index::paths::{
    enumerate_paths, enumerate_paths_located, LocatedProfile, PathProfile,
};
use graphcache::index::trie::LabelTrie;
use graphcache::index::{FilterIndex, GgsxConfig, GrapesConfig, GrapesIndex, PathTrie};
use graphcache::prelude::*;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::mem::size_of;

/// What the HashMap build left behind: the trie, overflowed ids and
/// per-graph distinct-feature counts.
struct Oracle<P> {
    trie: LabelTrie<P>,
    overflow: Vec<GraphId>,
    distinct: Vec<u32>,
}

fn ggsx_oracle(d: &GraphDataset, max_len: usize, work_cap: u64) -> Oracle<Vec<(GraphId, u32)>> {
    let mut o: Oracle<Vec<(GraphId, u32)>> = Oracle {
        trie: LabelTrie::new(),
        overflow: Vec::new(),
        distinct: vec![0; d.len()],
    };
    for (id, g) in d.iter() {
        match enumerate_paths(g, max_len, work_cap) {
            PathProfile::Counts(counts) => {
                o.distinct[id.index()] = counts.len() as u32;
                for (feature, count) in counts {
                    o.trie.posting_mut(&feature).push((id, count));
                }
            }
            PathProfile::Overflow => o.overflow.push(id),
        }
    }
    o
}

fn grapes_oracle(d: &GraphDataset, max_len: usize, work_cap: u64) -> Oracle<LocatedPosting> {
    let mut o: Oracle<LocatedPosting> = Oracle {
        trie: LabelTrie::new(),
        overflow: Vec::new(),
        distinct: vec![0; d.len()],
    };
    for (id, g) in d.iter() {
        match enumerate_paths_located(g, max_len, work_cap) {
            LocatedProfile::Counts(counts) => {
                o.distinct[id.index()] = counts.len() as u32;
                for (feature, (count, starts)) in counts {
                    o.trie
                        .posting_mut(&feature)
                        .entries
                        .push((id, count, starts));
                }
            }
            LocatedProfile::Overflow => o.overflow.push(id),
        }
    }
    o
}

/// The indexes' memory accounting, applied to the oracle's trie.
fn ggsx_oracle_bytes(o: &Oracle<Vec<(GraphId, u32)>>) -> usize {
    let mut postings = 0;
    o.trie.for_each_posting(|p| {
        postings += p.len() * size_of::<(GraphId, u32)>() + size_of::<Vec<(GraphId, u32)>>();
    });
    o.trie.skeleton_bytes() + postings + o.overflow.len() * 4 + o.distinct.len() * 4
}

fn grapes_oracle_bytes(o: &Oracle<LocatedPosting>) -> usize {
    let mut postings = 0;
    o.trie.for_each_posting(|p| {
        postings += size_of::<LocatedPosting>();
        for (_, _, locs) in &p.entries {
            postings += size_of::<(GraphId, u32, Vec<u32>)>() + locs.len() * 4;
        }
    });
    o.trie.skeleton_bytes() + postings + o.overflow.len() * 4 + o.distinct.len() * 4
}

/// Every `(sequence, posting)` of a trie, in canonical order.
fn features<P: Clone + Default>(t: &LabelTrie<P>) -> Vec<(Vec<Label>, P)> {
    let mut out = Vec::new();
    t.for_each_feature(|seq, p| out.push((seq.to_vec(), p.clone())));
    out
}

/// Subgraph and supergraph candidates by definition: per-feature count
/// domination between the query's and each graph's profile, overflowed
/// graphs (and queries) kept conservatively.
fn oracle_filters(
    d: &GraphDataset,
    q: &LabeledGraph,
    max_len: usize,
    work_cap: u64,
) -> (Vec<GraphId>, Vec<GraphId>) {
    let Some(qc) = enumerate_paths(q, max_len, work_cap).counts().cloned() else {
        let all: Vec<GraphId> = d.ids().collect();
        return (all.clone(), all);
    };
    let (mut sub, mut sup) = (Vec::new(), Vec::new());
    for (id, g) in d.iter() {
        let profile = enumerate_paths(g, max_len, work_cap);
        let Some(gc) = profile.counts() else {
            sub.push(id);
            sup.push(id);
            continue;
        };
        if qc.iter().all(|(f, n)| gc.get(f).is_some_and(|c| c >= n)) {
            sub.push(id);
        }
        if gc.iter().all(|(f, n)| qc.get(f).is_some_and(|c| c >= n)) {
            sup.push(id);
        }
    }
    (sub, sup)
}

/// Total enumeration work of a graph: one unit per enumerated path.
fn work_of(g: &LabeledGraph, max_len: usize) -> u64 {
    let profile = enumerate_paths(g, max_len, u64::MAX);
    profile.counts().unwrap().values().map(|&c| c as u64).sum()
}

fn check_parity(d: &GraphDataset, queries: &[LabeledGraph], max_len: usize, work_cap: u64) {
    let ctx = format!("max_len {max_len} work_cap {work_cap}");
    let ggsx = PathTrie::build(
        d,
        GgsxConfig {
            max_path_len: max_len,
            work_cap,
        },
    );
    let grapes = GrapesIndex::build(
        d,
        GrapesConfig {
            max_path_len: max_len,
            work_cap,
        },
    );
    let go = ggsx_oracle(d, max_len, work_cap);
    let ro = grapes_oracle(d, max_len, work_cap);

    assert_eq!(features(ggsx.trie()), features(&go.trie), "{}", ctx);
    assert_eq!(ggsx.trie().node_count(), go.trie.node_count(), "{}", ctx);
    assert_eq!(ggsx.overflowed(), &go.overflow[..], "{}", ctx);
    assert_eq!(ggsx.distinct(), &go.distinct[..], "{}", ctx);
    assert_eq!(ggsx.memory_bytes(), ggsx_oracle_bytes(&go), "{}", ctx);

    assert_eq!(features(grapes.trie()), features(&ro.trie), "{}", ctx);
    assert_eq!(grapes.trie().node_count(), ro.trie.node_count(), "{}", ctx);
    assert_eq!(grapes.overflowed(), &ro.overflow[..], "{}", ctx);
    assert_eq!(grapes.distinct(), &ro.distinct[..], "{}", ctx);
    assert_eq!(grapes.memory_bytes(), grapes_oracle_bytes(&ro), "{}", ctx);
    for (feature, posting) in features(&ro.trie) {
        for (id, _, starts) in &posting.entries {
            assert_eq!(
                grapes.locations(&feature, *id),
                Some(&starts[..]),
                "{} {:?} {}",
                ctx,
                feature,
                id
            );
        }
    }

    for q in queries {
        let (sub, sup) = oracle_filters(d, q, max_len, work_cap);
        assert_eq!(ggsx.filter(q), sub.clone(), "{} query {:?}", ctx, q);
        assert_eq!(grapes.filter(q), sub, "{} query {:?}", ctx, q);
        assert_eq!(ggsx.filter_supergraph(q), Some(sup.clone()), "{}", ctx);
        assert_eq!(grapes.filter_supergraph(q), Some(sup), "{}", ctx);
    }
}

/// Raw material for one graph: a node count, labels and edge endpoints,
/// clipped to the node count by [`graph`].
type RawGraph = (usize, Vec<u32>, Vec<(u32, u32)>);

fn raw_graph(max_nodes: usize, alphabet: u32) -> impl Strategy<Value = RawGraph> {
    (
        0..=max_nodes,
        pvec(0..alphabet, max_nodes),
        pvec((0..max_nodes as u32, 0..max_nodes as u32), 0..12usize),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random labelled datasets (empty graphs and isolated nodes
    /// included) under an unbounded cap, the median graph's work (some
    /// graphs overflow, some do not) and a small random cap.
    #[test]
    fn walk_build_matches_hashmap_build(
        raw in pvec(raw_graph(7, 3), 0..10usize),
        raw_queries in pvec(raw_graph(5, 3), 1..5usize),
        max_len in 0usize..5,
        small_cap in 1u64..40,
    ) {
        let d = GraphDataset::new(raw.iter().map(graph).collect());
        let mut queries: Vec<LabeledGraph> = raw_queries.iter().map(graph).collect();
        // Dataset graphs as queries: each must find at least itself.
        queries.extend(d.iter().take(2).map(|(_, g)| g.clone()));
        let mut work: Vec<u64> = d.iter().map(|(_, g)| work_of(g, max_len)).collect();
        work.sort_unstable();
        let median = work.get(work.len() / 2).copied().unwrap_or(0);
        for cap in [u64::MAX, median, small_cap] {
            check_parity(&d, &queries, max_len, cap);
        }
    }
}

/// An overflowing graph between two that fit: the trie must come out as
/// if the middle graph had never been walked, and the graph after it must
/// see clean tallies.
#[test]
fn overflow_between_fitting_graphs_rolls_back() {
    let small = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
    // A labelled 4-clique: many paths, several labels absent elsewhere.
    let big = LabeledGraph::from_parts(
        vec![2, 3, 4, 0],
        &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    );
    let d = GraphDataset::new(vec![
        small.clone(),
        big.clone(),
        small,
        LabeledGraph::empty(),
    ]);
    let cap = work_of(&big, 4) - 1;
    let ggsx = PathTrie::build(
        &d,
        GgsxConfig {
            max_path_len: 4,
            work_cap: cap,
        },
    );
    assert_eq!(ggsx.overflowed(), &[GraphId(1)]);
    assert_eq!(ggsx.distinct(), &[4, 0, 4, 0]);
    // Features of the two small graphs only: [0], [1], [0,1], [1,0].
    assert_eq!(ggsx.trie().node_count(), 5);
    assert_eq!(
        ggsx.trie().posting(&[0, 1]),
        Some(&vec![(GraphId(0), 1), (GraphId(2), 1)])
    );
    assert_eq!(ggsx.trie().posting(&[2]), None);
    check_parity(&d, &[big], 4, cap);
}

/// A generated AIDS-like dataset under the paper's configuration (paths
/// of up to 4 edges) and under a cap that overflows part of it.
#[test]
fn generated_dataset_parity() {
    let d = DatasetProfile::aids().scaled(0.01).generate(3);
    let queries: Vec<LabeledGraph> = d.iter().take(6).map(|(_, g)| g.clone()).collect();
    let mut work: Vec<u64> = d.iter().map(|(_, g)| work_of(g, 4)).collect();
    work.sort_unstable();
    check_parity(&d, &queries, 4, u64::MAX);
    check_parity(&d, &queries, 4, work[work.len() / 2]);
}
