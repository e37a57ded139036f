//! Labelled simple-path enumeration — the feature extractor shared by
//! GraphGrepSX, Grapes and GraphCache's own query index.
//!
//! A *path feature* is the label sequence along a simple (vertex-distinct)
//! path. Every path of 0..=max_len edges is enumerated from every start
//! node, so a path and its reverse are counted as two occurrences (unless
//! palindromic) — consistently on both the dataset and the query side, which
//! is all that soundness needs: `g ⊆ G` implies `count_g(p) ≤ count_G(p)`
//! for every label sequence `p`, because an embedding maps distinct simple
//! paths of `g` to distinct simple paths of `G` with identical labels.
//!
//! Two consumers, two shapes. The query side ([`enumerate_paths`],
//! [`query_features`]) collects one graph's features into a map. The
//! dataset side of GGSX and Grapes never builds that map: one DFS per graph
//! counts each path straight into the index's [`LabelTrie`], one child step
//! per path extension, and appends the graph's postings when its walk
//! completes (`index_paths`).

use crate::fx::FxHashMap as HashMap;
use crate::trie::LabelTrie;
use gc_graph::{GraphDataset, GraphId, Label, LabeledGraph, NodeId};

/// A path feature: the sequence of vertex labels along the path.
pub type PathFeature = Vec<Label>;

/// Result of enumerating a graph's path features.
#[derive(Debug, Clone)]
pub enum PathProfile {
    /// Feature multiset: label sequence → number of occurrences.
    Counts(HashMap<PathFeature, u32>),
    /// Enumeration exceeded the work cap; the graph must be treated
    /// conservatively (always a candidate / all bits set).
    Overflow,
}

impl PathProfile {
    /// The counts map, if enumeration completed.
    pub fn counts(&self) -> Option<&HashMap<PathFeature, u32>> {
        match self {
            PathProfile::Counts(c) => Some(c),
            PathProfile::Overflow => None,
        }
    }

    /// Approximate memory footprint in bytes (keys, counts, table slack).
    pub fn memory_bytes(&self) -> usize {
        match self {
            PathProfile::Counts(c) => {
                c.keys().map(|k| k.len() * 4 + 24).sum::<usize>() + c.len() * 8 + 48
            }
            PathProfile::Overflow => 0,
        }
    }
}

/// Like [`enumerate_paths`] but also records, for every feature, the set of
/// start nodes at which an occurrence begins (the shape of Grapes' location
/// lists).
#[derive(Debug, Clone)]
pub enum LocatedProfile {
    /// label sequence → (occurrence count, sorted start-node list).
    Counts(HashMap<PathFeature, (u32, Vec<NodeId>)>),
    /// Work cap exceeded.
    Overflow,
}

/// Enumerates all simple paths with `0..=max_len` edges and returns the
/// feature multiset. `work_cap` bounds the number of enumeration steps
/// (path extensions); exceeding it yields [`PathProfile::Overflow`].
pub fn enumerate_paths(g: &LabeledGraph, max_len: usize, work_cap: u64) -> PathProfile {
    let mut counts: HashMap<PathFeature, u32> = HashMap::default();
    let mut work = 0u64;
    let mut seq: Vec<Label> = Vec::with_capacity(max_len + 1);
    let mut on_path = vec![false; g.node_count()];
    for start in g.nodes() {
        seq.push(g.label(start));
        on_path[start as usize] = true;
        if !dfs(
            g,
            start,
            max_len,
            &mut seq,
            &mut on_path,
            &mut counts,
            &mut work,
            work_cap,
        ) {
            return PathProfile::Overflow;
        }
        on_path[start as usize] = false;
        seq.pop();
    }
    PathProfile::Counts(counts)
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    g: &LabeledGraph,
    v: NodeId,
    remaining_from: usize,
    seq: &mut Vec<Label>,
    on_path: &mut [bool],
    counts: &mut HashMap<PathFeature, u32>,
    work: &mut u64,
    work_cap: u64,
) -> bool {
    *work += 1;
    if *work > work_cap {
        return false;
    }
    // Hot path: occurrences vastly outnumber distinct features, so avoid
    // cloning the key except on first sighting (Vec<Label>: Borrow<[Label]>).
    if let Some(c) = counts.get_mut(seq.as_slice()) {
        *c += 1;
    } else {
        counts.insert(seq.clone(), 1);
    }
    if remaining_from == 0 {
        return true;
    }
    for &w in g.neighbors(v) {
        if !on_path[w as usize] {
            on_path[w as usize] = true;
            seq.push(g.label(w));
            let ok = dfs(
                g,
                w,
                remaining_from - 1,
                seq,
                on_path,
                counts,
                work,
                work_cap,
            );
            seq.pop();
            on_path[w as usize] = false;
            if !ok {
                return false;
            }
        }
    }
    true
}

/// A query's path features in filter order: longer features first (they are
/// usually the most selective), ties broken by label sequence. `None` when
/// enumeration exceeds `work_cap` (every graph is then a candidate).
pub fn query_features(
    query: &LabeledGraph,
    max_len: usize,
    work_cap: u64,
) -> Option<Vec<(PathFeature, u32)>> {
    let mut v: Vec<(PathFeature, u32)> = match enumerate_paths(query, max_len, work_cap) {
        PathProfile::Counts(c) => c.into_iter().collect(),
        PathProfile::Overflow => return None,
    };
    v.sort_unstable_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.0.cmp(&b.0)));
    Some(v)
}

/// The dataset side of a path index as [`index_paths`] builds it.
pub(crate) struct PathIndex<P> {
    /// Every feature of every non-overflowed graph, one posting entry per
    /// `(feature, graph)` pair, in ascending graph-id order.
    pub trie: LabelTrie<P>,
    /// Graphs whose walk exceeded the work cap, ascending.
    pub overflow: Vec<GraphId>,
    /// Per graph: number of distinct features (0 for overflowed graphs).
    pub distinct: Vec<u32>,
}

/// Builds a path index over `dataset` with one DFS per graph that descends
/// the trie as it extends a path: each extension is one child lookup (or
/// insert) and one counter increment on the reached node.
///
/// When a graph's walk completes, `post(posting, id, count, starts)` is
/// called once per feature the graph holds, with its occurrence count and
/// — if `locate` — its sorted, duplicate-free start nodes (empty
/// otherwise). Graphs are walked in id order, so each posting receives its
/// entries in ascending id order.
///
/// Work units and the overflow rule are those of [`enumerate_paths`]: a
/// graph overflows exactly when `enumerate_paths` would return
/// [`PathProfile::Overflow`]. An overflowing graph posts nothing and its
/// walk's new trie nodes are rolled back, so the index is the same as if
/// every graph's [`enumerate_paths`] map had been inserted feature by
/// feature.
pub(crate) fn index_paths<P: Default>(
    dataset: &GraphDataset,
    max_len: usize,
    work_cap: u64,
    locate: bool,
    mut post: impl FnMut(&mut P, GraphId, u32, Vec<NodeId>),
) -> PathIndex<P> {
    let mut trie = LabelTrie::new();
    let mut overflow = Vec::new();
    let mut distinct = vec![0u32; dataset.len()];
    let mut walk = TrieWalk {
        max_len,
        work_cap,
        locate,
        work: 0,
        on_path: Vec::new(),
        counts: Vec::new(),
        starts: Vec::new(),
        touched: Vec::new(),
    };
    for (id, g) in dataset.iter() {
        if !walk.walk(&mut trie, g) {
            overflow.push(id);
            continue;
        }
        distinct[id.index()] = walk.touched.len() as u32;
        for node in walk.touched.drain(..) {
            let count = std::mem::take(&mut walk.counts[node as usize]);
            let starts = if locate {
                std::mem::take(&mut walk.starts[node as usize])
            } else {
                Vec::new()
            };
            post(trie.posting_at_mut(node), id, count, starts);
        }
    }
    PathIndex {
        trie,
        overflow,
        distinct,
    }
}

/// Scratch state of [`index_paths`], reused across graphs. Per-node
/// arrays are indexed by trie node and hold the current graph's tallies;
/// `touched` lists the nodes with a non-zero count, in first-visit order.
struct TrieWalk {
    max_len: usize,
    work_cap: u64,
    locate: bool,
    work: u64,
    on_path: Vec<bool>,
    counts: Vec<u32>,
    starts: Vec<Vec<NodeId>>,
    touched: Vec<u32>,
}

impl TrieWalk {
    /// Counts every simple path of `g` into `trie`. On overflow returns
    /// `false` with `trie` truncated back to its node count at entry and
    /// the scratch tallies cleared.
    fn walk<P: Default>(&mut self, trie: &mut LabelTrie<P>, g: &LabeledGraph) -> bool {
        let nodes_before = trie.node_count();
        self.work = 0;
        self.on_path.clear();
        self.on_path.resize(g.node_count(), false);
        for start in g.nodes() {
            self.on_path[start as usize] = true;
            let node = trie.child_or_insert(0, g.label(start));
            let ok = self.dfs(trie, g, start, start, node, self.max_len);
            self.on_path[start as usize] = false;
            if !ok {
                trie.truncate(nodes_before);
                for node in self.touched.drain(..) {
                    self.counts[node as usize] = 0;
                    if self.locate {
                        self.starts[node as usize].clear();
                    }
                }
                return false;
            }
        }
        true
    }

    /// One step of [`enumerate_paths`]' DFS: `v` is the path's last vertex
    /// and `node` the trie node of the path's label sequence.
    fn dfs<P: Default>(
        &mut self,
        trie: &mut LabelTrie<P>,
        g: &LabeledGraph,
        start: NodeId,
        v: NodeId,
        node: u32,
        remaining: usize,
    ) -> bool {
        self.work += 1;
        if self.work > self.work_cap {
            return false;
        }
        let n = node as usize;
        if n >= self.counts.len() {
            self.counts.resize(n + 1, 0);
            if self.locate {
                self.starts.resize_with(n + 1, Vec::new);
            }
        }
        if self.counts[n] == 0 {
            self.touched.push(node);
        }
        self.counts[n] += 1;
        // Starts are walked in ascending order, so the list stays sorted
        // and a repeat can only be the last entry.
        if self.locate && self.starts[n].last() != Some(&start) {
            self.starts[n].push(start);
        }
        if remaining == 0 {
            return true;
        }
        for &w in g.neighbors(v) {
            if !self.on_path[w as usize] {
                self.on_path[w as usize] = true;
                let child = trie.child_or_insert(node, g.label(w));
                let ok = self.dfs(trie, g, start, w, child, remaining - 1);
                self.on_path[w as usize] = false;
                if !ok {
                    return false;
                }
            }
        }
        true
    }
}

/// Enumerates paths with per-feature start-node location lists, one graph
/// at a time (the fragment decomposition uses it).
pub fn enumerate_paths_located(g: &LabeledGraph, max_len: usize, work_cap: u64) -> LocatedProfile {
    let base = match enumerate_paths(g, max_len, work_cap) {
        PathProfile::Overflow => return LocatedProfile::Overflow,
        PathProfile::Counts(c) => c,
    };
    // Second pass records which start nodes realise each feature. The work
    // bound was already honoured by the first pass; the second performs the
    // same traversal.
    let mut out: HashMap<PathFeature, (u32, Vec<NodeId>)> = base
        .into_iter()
        .map(|(k, c)| (k, (c, Vec::new())))
        .collect();
    let mut seq: Vec<Label> = Vec::with_capacity(max_len + 1);
    let mut on_path = vec![false; g.node_count()];
    for start in g.nodes() {
        seq.push(g.label(start));
        on_path[start as usize] = true;
        locate_dfs(g, start, start, max_len, &mut seq, &mut on_path, &mut out);
        on_path[start as usize] = false;
        seq.pop();
    }
    for (_, locs) in out.values_mut() {
        locs.sort_unstable();
        locs.dedup();
    }
    LocatedProfile::Counts(out)
}

fn locate_dfs(
    g: &LabeledGraph,
    start: NodeId,
    v: NodeId,
    remaining: usize,
    seq: &mut Vec<Label>,
    on_path: &mut [bool],
    out: &mut HashMap<PathFeature, (u32, Vec<NodeId>)>,
) {
    if let Some((_, locs)) = out.get_mut(seq.as_slice()) {
        locs.push(start);
    }
    if remaining == 0 {
        return;
    }
    for &w in g.neighbors(v) {
        if !on_path[w as usize] {
            on_path[w as usize] = true;
            seq.push(g.label(w));
            locate_dfs(g, start, w, remaining - 1, seq, on_path, out);
            seq.pop();
            on_path[w as usize] = false;
        }
    }
}

/// Brute-force reference counter for a single feature — used by tests to
/// validate the enumerator.
pub fn count_feature_bruteforce(g: &LabeledGraph, feature: &[Label]) -> u32 {
    fn rec(g: &LabeledGraph, v: NodeId, feature: &[Label], pos: usize, used: &mut [bool]) -> u32 {
        if pos == feature.len() {
            return 1;
        }
        let mut total = 0;
        for &w in g.neighbors(v) {
            if !used[w as usize] && g.label(w) == feature[pos] {
                used[w as usize] = true;
                total += rec(g, w, feature, pos + 1, used);
                used[w as usize] = false;
            }
        }
        total
    }
    if feature.is_empty() {
        return 0;
    }
    let mut total = 0;
    let mut used = vec![false; g.node_count()];
    for v in g.nodes() {
        if g.label(v) == feature[0] {
            used[v as usize] = true;
            total += rec(g, v, feature, 1, &mut used);
            used[v as usize] = false;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> LabeledGraph {
        LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn single_node_features_are_label_counts() {
        let g = LabeledGraph::from_parts(vec![7, 7, 8], &[(0, 1), (1, 2)]);
        let p = enumerate_paths(&g, 0, u64::MAX);
        let c = p.counts().unwrap();
        assert_eq!(c[&vec![7]], 2);
        assert_eq!(c[&vec![8]], 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn triangle_path_counts() {
        let g = triangle();
        let p = enumerate_paths(&g, 2, u64::MAX);
        let c = p.counts().unwrap();
        // Each directed edge is one length-1 path.
        assert_eq!(c[&vec![0, 1]], 1);
        assert_eq!(c[&vec![1, 0]], 1);
        // Length-2 simple paths: each (ordered) pair of distinct edges
        // through a middle vertex: e.g. 0-1-2 gives [0,1,2].
        assert_eq!(c[&vec![0, 1, 2]], 1);
        assert_eq!(c[&vec![2, 1, 0]], 1);
    }

    #[test]
    fn counts_match_bruteforce() {
        let g = LabeledGraph::from_parts(
            vec![0, 1, 0, 1, 0],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)],
        );
        let p = enumerate_paths(&g, 3, u64::MAX);
        let c = p.counts().unwrap();
        for (feature, &count) in c {
            assert_eq!(
                count,
                count_feature_bruteforce(&g, feature),
                "feature {feature:?}"
            );
        }
    }

    #[test]
    fn subgraph_counts_dominated() {
        // Soundness cornerstone: sub ⊆ g ⇒ counts_sub ≤ counts_g.
        let g = LabeledGraph::from_parts(vec![0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (sub, _) = g.edge_subgraph(&[(0, 1), (1, 2)]);
        let cg = enumerate_paths(&g, 4, u64::MAX);
        let cs = enumerate_paths(&sub, 4, u64::MAX);
        for (f, &c) in cs.counts().unwrap() {
            assert!(
                cg.counts().unwrap().get(f).copied().unwrap_or(0) >= c,
                "feature {f:?} undercounted in supergraph"
            );
        }
    }

    #[test]
    fn overflow_reported() {
        let g = triangle();
        assert!(matches!(enumerate_paths(&g, 2, 2), PathProfile::Overflow));
        assert!(matches!(
            enumerate_paths_located(&g, 2, 2),
            LocatedProfile::Overflow
        ));
    }

    #[test]
    fn located_profile_counts_match_plain() {
        let g = LabeledGraph::from_parts(vec![0, 0, 1], &[(0, 1), (1, 2)]);
        let plain = enumerate_paths(&g, 2, u64::MAX);
        let located = enumerate_paths_located(&g, 2, u64::MAX);
        let (LocatedProfile::Counts(loc), PathProfile::Counts(pc)) = (located, plain) else {
            panic!("unexpected overflow");
        };
        assert_eq!(loc.len(), pc.len());
        for (f, (c, starts)) in &loc {
            assert_eq!(c, &pc[f], "count mismatch for {f:?}");
            assert!(!starts.is_empty());
            assert!(starts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_graph_has_no_features() {
        let g = LabeledGraph::empty();
        let p = enumerate_paths(&g, 4, u64::MAX);
        assert!(p.counts().unwrap().is_empty());
    }

    #[test]
    fn bruteforce_empty_feature_zero() {
        assert_eq!(count_feature_bruteforce(&triangle(), &[]), 0);
    }
}
