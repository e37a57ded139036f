//! Grapes — path index with occurrence locations \[Giugno et al., PLoS One
//! 2013\].
//!
//! Grapes indexes the same labelled-path features as GraphGrepSX but
//! additionally records, per feature and graph, the nodes at which
//! occurrences start. The original system uses these locations to restrict
//! verification to the relevant regions of each candidate graph and runs
//! verification on multiple threads (the paper evaluates Grapes1 and
//! Grapes6 — 1 and 6 threads). In this reproduction the filtering and the
//! location store live here; the thread pool lives in `gc-methods`, and the
//! location lists feed the space-accounting experiments (Grapes' index is
//! markedly larger than GGSX's, which the paper's space discussion relies
//! on). The build is GGSX's trie walk (`paths::index_paths`) with start
//! nodes recorded as it goes.

use crate::paths::{enumerate_paths, index_paths, query_features, PathIndex};
use crate::trie::LabelTrie;
use crate::{CandidateSet, FilterIndex};
use gc_graph::{idset, GraphDataset, GraphId, LabeledGraph, NodeId};

/// Configuration for [`GrapesIndex`].
#[derive(Debug, Clone, Copy)]
pub struct GrapesConfig {
    /// Maximum path length in edges (paper default: 4).
    pub max_path_len: usize,
    /// Per-graph enumeration work cap (overflow ⇒ conservative indexing).
    pub work_cap: u64,
}

impl Default for GrapesConfig {
    fn default() -> Self {
        GrapesConfig {
            max_path_len: 4,
            work_cap: 20_000_000,
        }
    }
}

/// One posting: a graph, its occurrence count, and the sorted start nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocatedPosting {
    /// Graph id, occurrence count, start-node list.
    pub entries: Vec<(GraphId, u32, Vec<NodeId>)>,
}

/// The Grapes filtering index.
#[derive(Debug, Clone)]
pub struct GrapesIndex {
    trie: LabelTrie<LocatedPosting>,
    overflow: Vec<GraphId>,
    /// Per graph: number of distinct features (supergraph filtering).
    distinct: Vec<u32>,
    graph_count: usize,
    cfg: GrapesConfig,
}

impl GrapesIndex {
    /// Builds the index over a dataset.
    pub fn build(dataset: &GraphDataset, cfg: GrapesConfig) -> Self {
        let PathIndex {
            trie,
            overflow,
            distinct,
        } = index_paths(
            dataset,
            cfg.max_path_len,
            cfg.work_cap,
            true,
            |posting: &mut LocatedPosting, id, count, starts| {
                posting.entries.push((id, count, starts))
            },
        );
        GrapesIndex {
            trie,
            overflow,
            distinct,
            graph_count: dataset.len(),
            cfg,
        }
    }

    /// The effective configuration.
    pub fn config(&self) -> GrapesConfig {
        self.cfg
    }

    /// The start-node locations of `feature` within graph `id`, if indexed.
    pub fn locations(&self, feature: &[u32], id: GraphId) -> Option<&[NodeId]> {
        self.trie.posting(feature).and_then(|p| {
            p.entries
                .iter()
                .find(|(g, _, _)| *g == id)
                .map(|(_, _, locs)| locs.as_slice())
        })
    }

    /// The feature trie: per path feature, `(graph, count, start nodes)`
    /// entries in ascending graph-id order.
    pub fn trie(&self) -> &LabelTrie<LocatedPosting> {
        &self.trie
    }

    /// Ids of graphs indexed conservatively due to enumeration overflow.
    pub fn overflowed(&self) -> &[GraphId] {
        &self.overflow
    }

    /// Per graph (indexed by id): its number of distinct path features, 0
    /// for overflowed graphs.
    pub fn distinct(&self) -> &[u32] {
        &self.distinct
    }
}

impl FilterIndex for GrapesIndex {
    fn name(&self) -> &'static str {
        "Grapes"
    }

    fn filter(&self, query: &LabeledGraph) -> CandidateSet {
        let Some(features) = query_features(query, self.cfg.max_path_len, self.cfg.work_cap) else {
            return idset::full(self.graph_count);
        };
        // Rarest-posting-first galloping intersection (see PathTrie).
        let mut postings: Vec<(&LocatedPosting, u32)> = Vec::with_capacity(features.len());
        for (feature, qcount) in &features {
            match self.trie.posting(feature) {
                Some(p) => postings.push((p, *qcount)),
                None => return self.overflow.clone(),
            }
        }
        if postings.is_empty() {
            return idset::union(&idset::full(self.graph_count), &self.overflow);
        }
        postings.sort_unstable_by_key(|(p, _)| p.entries.len());
        let (base, need) = postings[0];
        let mut acc: Vec<GraphId> = base
            .entries
            .iter()
            .filter(|(_, c, _)| *c >= need)
            .map(|(id, _, _)| *id)
            .collect();
        for &(posting, need) in &postings[1..] {
            if acc.is_empty() {
                break;
            }
            acc.retain(|id| {
                posting
                    .entries
                    .binary_search_by_key(id, |&(g, _, _)| g)
                    .is_ok_and(|i| posting.entries[i].1 >= need)
            });
        }
        idset::union(&acc, &self.overflow)
    }

    fn graph_count(&self) -> usize {
        self.graph_count
    }

    fn memory_bytes(&self) -> usize {
        let mut postings = 0usize;
        self.trie.for_each_posting(|p| {
            postings += std::mem::size_of::<LocatedPosting>();
            for (_, _, locs) in &p.entries {
                postings += std::mem::size_of::<(GraphId, u32, Vec<NodeId>)>()
                    + locs.len() * std::mem::size_of::<NodeId>();
            }
        });
        self.trie.skeleton_bytes() + postings + self.overflow.len() * 4 + self.distinct.len() * 4
    }

    fn filter_supergraph(&self, query: &LabeledGraph) -> Option<CandidateSet> {
        let profile = enumerate_paths(query, self.cfg.max_path_len, self.cfg.work_cap);
        let Some(features) = profile.counts() else {
            return Some(idset::full(self.graph_count));
        };
        let mut satisfied = vec![0u32; self.graph_count];
        for (feature, &g_count) in features {
            if let Some(posting) = self.trie.posting(feature) {
                for &(id, count, _) in posting.entries.iter() {
                    satisfied[id.index()] += (count <= g_count) as u32;
                }
            }
        }
        let out: Vec<GraphId> = (0..self.graph_count as u32)
            .map(GraphId)
            .filter(|id| satisfied[id.index()] == self.distinct[id.index()])
            .collect();
        Some(idset::union(&out, &self.overflow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ggsx::{GgsxConfig, PathTrie};

    fn dataset() -> GraphDataset {
        GraphDataset::new(vec![
            LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]),
            LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
        ])
    }

    #[test]
    fn filtering_agrees_with_ggsx() {
        let d = dataset();
        let grapes = GrapesIndex::build(&d, GrapesConfig::default());
        let ggsx = PathTrie::build(&d, GgsxConfig::default());
        let queries = [
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
            LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]),
            LabeledGraph::from_parts(vec![1, 0, 0], &[(0, 1), (0, 2)]),
            LabeledGraph::from_parts(vec![9, 9], &[(0, 1)]),
        ];
        for q in &queries {
            assert_eq!(grapes.filter(q), ggsx.filter(q), "query {q:?}");
        }
    }

    #[test]
    fn locations_recorded() {
        let d = dataset();
        let grapes = GrapesIndex::build(&d, GrapesConfig::default());
        // Feature [0, 1] (a→b) starts at nodes 0 and 2 in G0.
        let locs = grapes.locations(&[0, 1], GraphId(0)).unwrap();
        assert_eq!(locs, &[0, 2]);
        // Absent feature/graph combinations return None.
        assert!(grapes.locations(&[5, 5], GraphId(0)).is_none());
        assert!(grapes.locations(&[0, 1, 2], GraphId(0)).is_none());
    }

    #[test]
    fn grapes_index_larger_than_ggsx() {
        let d = dataset();
        let grapes = GrapesIndex::build(&d, GrapesConfig::default());
        let ggsx = PathTrie::build(&d, GgsxConfig::default());
        assert!(
            grapes.memory_bytes() > ggsx.memory_bytes(),
            "location lists must cost memory: grapes {} vs ggsx {}",
            grapes.memory_bytes(),
            ggsx.memory_bytes()
        );
    }

    #[test]
    fn overflow_conservative() {
        let d = dataset();
        let grapes = GrapesIndex::build(
            &d,
            GrapesConfig {
                max_path_len: 4,
                work_cap: 1,
            },
        );
        let q = LabeledGraph::from_parts(vec![9, 9], &[(0, 1)]);
        assert_eq!(grapes.filter(&q).len(), 3);
    }
}
