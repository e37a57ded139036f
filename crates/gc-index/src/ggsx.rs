//! GraphGrepSX (GGSX) — path-trie filtering \[Bonnici et al., PRIB 2010\].
//!
//! Dataset graphs are decomposed into all labelled simple paths of up to
//! `max_path_len` edges (default 4, the configuration used in the paper's
//! evaluation); each trie node stores `(graph, occurrence count)` postings.
//! A query is decomposed the same way; a dataset graph remains a candidate
//! only if, for every query feature, it holds at least as many occurrences.
//!
//! The build walks each dataset graph's paths straight down the trie
//! (`paths::index_paths`): no per-graph feature map, no second descent per
//! `(graph, feature)` pair.

use crate::paths::{enumerate_paths, index_paths, query_features, PathFeature, PathIndex};
use crate::trie::LabelTrie;
use crate::{CandidateSet, FilterIndex};
use gc_graph::{idset, GraphDataset, GraphId, LabeledGraph};

/// Configuration for [`PathTrie`].
#[derive(Debug, Clone, Copy)]
pub struct GgsxConfig {
    /// Maximum path length in edges (paper default: 4).
    pub max_path_len: usize,
    /// Per-graph enumeration work cap; overflowing graphs are indexed
    /// conservatively (always candidates).
    pub work_cap: u64,
}

impl Default for GgsxConfig {
    fn default() -> Self {
        GgsxConfig {
            max_path_len: 4,
            work_cap: 20_000_000,
        }
    }
}

impl GgsxConfig {
    /// The feature-size ablation of §7.3 bumps the path length by one.
    pub fn with_path_len(max_path_len: usize) -> Self {
        GgsxConfig {
            max_path_len,
            ..Default::default()
        }
    }
}

/// The GGSX filtering index: a trie of path features with count postings.
///
/// Besides the classic subgraph direction, the index also supports
/// **supergraph filtering** ([`PathTrie::filter_supergraph`]): a dataset
/// graph `G` can only be contained in a query `g` if every feature of `G`
/// occurs in `g` at least as often. This is the same augmentation
/// GraphCache's own query index uses (paper §6.1) — per-graph distinct
/// feature counts make it a single posting sweep.
#[derive(Debug, Clone)]
pub struct PathTrie {
    trie: LabelTrie<Vec<(GraphId, u32)>>,
    /// Graphs whose enumeration overflowed; always included in candidates.
    overflow: Vec<GraphId>,
    /// Per graph: number of distinct features (supergraph filtering).
    distinct: Vec<u32>,
    graph_count: usize,
    cfg: GgsxConfig,
}

impl PathTrie {
    /// Builds the index over a dataset.
    pub fn build(dataset: &GraphDataset, cfg: GgsxConfig) -> Self {
        let PathIndex {
            trie,
            overflow,
            distinct,
        } = index_paths(
            dataset,
            cfg.max_path_len,
            cfg.work_cap,
            false,
            |posting: &mut Vec<(GraphId, u32)>, id, count, _| posting.push((id, count)),
        );
        PathTrie {
            trie,
            overflow,
            distinct,
            graph_count: dataset.len(),
            cfg,
        }
    }

    /// Supergraph-direction filtering: candidates that may be *contained
    /// in* `query` (`G ⊆ g`). Sound: a graph survives iff all its features
    /// occur in the query with at least the graph's multiplicity; overflow
    /// graphs are conservatively kept.
    pub fn supergraph_candidates(&self, query: &LabeledGraph) -> CandidateSet {
        let profile = enumerate_paths(query, self.cfg.max_path_len, self.cfg.work_cap);
        let Some(features) = profile.counts() else {
            return idset::full(self.graph_count);
        };
        let mut satisfied = vec![0u32; self.graph_count];
        for (feature, &g_count) in features {
            if let Some(posting) = self.trie.posting(feature) {
                for &(id, count) in posting {
                    satisfied[id.index()] += (count <= g_count) as u32;
                }
            }
        }
        // Overflow graphs have distinct == 0 and trivially pass (they are
        // also in `overflow`, making the union a no-op safety net). An
        // empty dataset graph likewise passes — it is vacuously contained.
        let out: Vec<GraphId> = (0..self.graph_count as u32)
            .map(GraphId)
            .filter(|id| satisfied[id.index()] == self.distinct[id.index()])
            .collect();
        idset::union(&out, &self.overflow)
    }

    /// The effective configuration.
    pub fn config(&self) -> GgsxConfig {
        self.cfg
    }

    /// Ids of graphs indexed conservatively due to enumeration overflow.
    pub fn overflowed(&self) -> &[GraphId] {
        &self.overflow
    }

    /// The feature trie: per path feature, `(graph, occurrence count)`
    /// postings in ascending graph-id order.
    pub fn trie(&self) -> &LabelTrie<Vec<(GraphId, u32)>> {
        &self.trie
    }

    /// Per graph (indexed by id): its number of distinct path features, 0
    /// for overflowed graphs.
    pub fn distinct(&self) -> &[u32] {
        &self.distinct
    }

    /// Core filtering routine shared with Grapes: intersect, over all query
    /// features, the graphs holding enough occurrences. Starts from the
    /// rarest feature's posting, then gallops: each further feature only
    /// probes the (small) accumulator via binary search instead of
    /// materialising its full survivor list.
    fn filter_by_counts(&self, features: &[(PathFeature, u32)]) -> CandidateSet {
        let mut postings: Vec<(&Vec<(GraphId, u32)>, u32)> = Vec::with_capacity(features.len());
        for (feature, qcount) in features {
            match self.trie.posting(feature) {
                Some(p) => postings.push((p, *qcount)),
                // A feature absent from every graph: only overflow graphs
                // can still be candidates.
                None => return self.overflow.clone(),
            }
        }
        if postings.is_empty() {
            return idset::union(&idset::full(self.graph_count), &self.overflow);
        }
        postings.sort_unstable_by_key(|(p, _)| p.len());
        let (base, need) = postings[0];
        let mut acc: Vec<GraphId> = base
            .iter()
            .filter(|(_, c)| *c >= need)
            .map(|(id, _)| *id)
            .collect();
        for &(posting, need) in &postings[1..] {
            if acc.is_empty() {
                break;
            }
            acc.retain(|id| {
                posting
                    .binary_search_by_key(id, |&(g, _)| g)
                    .is_ok_and(|i| posting[i].1 >= need)
            });
        }
        idset::union(&acc, &self.overflow)
    }
}

impl FilterIndex for PathTrie {
    fn name(&self) -> &'static str {
        "GGSX"
    }

    fn filter(&self, query: &LabeledGraph) -> CandidateSet {
        match query_features(query, self.cfg.max_path_len, self.cfg.work_cap) {
            Some(features) => self.filter_by_counts(&features),
            None => idset::full(self.graph_count),
        }
    }

    fn graph_count(&self) -> usize {
        self.graph_count
    }

    fn memory_bytes(&self) -> usize {
        let mut postings = 0usize;
        self.trie.for_each_posting(|p| {
            postings += p.len() * std::mem::size_of::<(GraphId, u32)>()
                + std::mem::size_of::<Vec<(GraphId, u32)>>();
        });
        self.trie.skeleton_bytes() + postings + self.overflow.len() * 4 + self.distinct.len() * 4
    }

    fn filter_supergraph(&self, query: &LabeledGraph) -> Option<CandidateSet> {
        Some(self.supergraph_candidates(query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_subiso::{Matcher, Vf2};

    fn dataset() -> GraphDataset {
        GraphDataset::new(vec![
            // G0: path 0-1-2 labelled a,b,a
            LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]),
            // G1: triangle a,b,c
            LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            // G2: single edge a-b
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
        ])
    }

    #[test]
    fn filter_is_sound_and_tight_here() {
        let d = dataset();
        let idx = PathTrie::build(&d, GgsxConfig::default());
        let q = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]); // a-b edge
        let cs = idx.filter(&q);
        // All three graphs contain an a-b edge.
        assert_eq!(cs, vec![GraphId(0), GraphId(1), GraphId(2)]);

        let q2 = LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]); // a-b-a
        let cs2 = idx.filter(&q2);
        assert_eq!(cs2, vec![GraphId(0)]);
    }

    #[test]
    fn count_filtering_uses_multiplicity() {
        // Query with two a-b edges sharing the b: star b(a,a).
        let d = dataset();
        let idx = PathTrie::build(&d, GgsxConfig::default());
        let star = LabeledGraph::from_parts(vec![1, 0, 0], &[(0, 1), (0, 2)]);
        let cs = idx.filter(&star);
        // Only G0 has two distinct a-b paths from one b.
        assert_eq!(cs, vec![GraphId(0)]);
    }

    #[test]
    fn unknown_feature_empties_candidates() {
        let d = dataset();
        let idx = PathTrie::build(&d, GgsxConfig::default());
        let q = LabeledGraph::from_parts(vec![9, 9], &[(0, 1)]);
        assert!(idx.filter(&q).is_empty());
    }

    #[test]
    fn soundness_vs_vf2_on_dataset_subgraphs() {
        let d = dataset();
        let idx = PathTrie::build(&d, GgsxConfig::default());
        let vf2 = Vf2::new();
        let queries = [
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
            LabeledGraph::from_parts(vec![1, 2], &[(0, 1)]),
            LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
        ];
        for q in &queries {
            let cs = idx.filter(q);
            for id in d.ids() {
                if vf2.contains(q, d.graph(id)) {
                    assert!(
                        idset::contains(&cs, id),
                        "false negative: {id} missing for {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn overflow_graphs_always_candidates() {
        let d = dataset();
        let cfg = GgsxConfig {
            max_path_len: 4,
            work_cap: 1, // force overflow for every graph
        };
        let idx = PathTrie::build(&d, cfg);
        assert_eq!(idx.overflowed().len(), 3);
        let q = LabeledGraph::from_parts(vec![9, 9], &[(0, 1)]);
        // Nothing matches the feature, but overflowed graphs stay in.
        assert_eq!(idx.filter(&q).len(), 3);
    }

    #[test]
    fn memory_accounting_nonzero() {
        let d = dataset();
        let idx = PathTrie::build(&d, GgsxConfig::default());
        assert!(idx.memory_bytes() > 0);
        assert_eq!(idx.graph_count(), 3);
        assert_eq!(idx.name(), "GGSX");
    }

    #[test]
    fn supergraph_filter_sound_and_selective() {
        let d = dataset();
        let idx = PathTrie::build(&d, GgsxConfig::default());
        let vf2 = Vf2::new();
        // Query containing G2 (edge a-b) plus extra context.
        let q = LabeledGraph::from_parts(vec![0, 1, 0, 2], &[(0, 1), (1, 2), (2, 3)]);
        let cs = idx.supergraph_candidates(&q);
        for id in d.ids() {
            if vf2.contains(d.graph(id), &q) {
                assert!(
                    idset::contains(&cs, id),
                    "supergraph filter dropped true answer {id}"
                );
            }
        }
        // G1 (triangle with label 2) cannot be inside q: pruned.
        assert!(!idset::contains(&cs, GraphId(1)));
    }

    #[test]
    fn supergraph_filter_overflow_conservative() {
        let d = dataset();
        let idx = PathTrie::build(
            &d,
            GgsxConfig {
                max_path_len: 4,
                work_cap: 1,
            },
        );
        let q = LabeledGraph::from_parts(vec![9], &[]);
        assert_eq!(idx.supergraph_candidates(&q).len(), 3);
    }

    #[test]
    fn longer_paths_increase_index_size() {
        // The §7.3 ablation: feature size +1 → bigger index.
        let d = dataset();
        let small = PathTrie::build(&d, GgsxConfig::with_path_len(2));
        let large = PathTrie::build(&d, GgsxConfig::with_path_len(4));
        assert!(large.memory_bytes() >= small.memory_bytes());
    }
}
