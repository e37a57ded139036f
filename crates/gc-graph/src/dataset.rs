//! Graph datasets: ordered collections of graphs with summary statistics.

use crate::graph::{Label, LabeledGraph};
use crate::profile::{ProfileColumn, ProfileRef};
use std::fmt;

/// Identifier of a graph within a [`GraphDataset`] (its position).
///
/// Answer sets and candidate sets are sets of `GraphId`s, kept as sorted
/// `Vec<GraphId>` throughout the system for cheap union/intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GraphId(pub u32);

impl GraphId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// An ordered collection of dataset graphs (`D = {G1, …, Gn}` of §3).
#[derive(Debug, Clone, Default)]
pub struct GraphDataset {
    graphs: Vec<LabeledGraph>,
    /// Per-graph quick-reject profiles, aligned with `graphs`. Built once
    /// here because every sub-iso test against a dataset graph checks them,
    /// and the §5.2 cost estimate needs each graph's distinct-label count
    /// (its label-histogram length); both would otherwise recount the graph.
    profiles: ProfileColumn,
}

impl GraphDataset {
    /// Creates a dataset from a vector of graphs.
    pub fn new(graphs: Vec<LabeledGraph>) -> Self {
        let mut profiles = ProfileColumn::default();
        profiles.extend(&graphs);
        GraphDataset { graphs, profiles }
    }

    /// Number of graphs in the dataset.
    #[inline]
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True when the dataset holds no graphs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The graph with the given id.
    #[inline]
    pub fn graph(&self, id: GraphId) -> &LabeledGraph {
        &self.graphs[id.index()]
    }

    /// The quick-reject profile of the graph with the given id, read from
    /// the column built with the dataset.
    #[inline]
    pub fn profile(&self, id: GraphId) -> ProfileRef<'_> {
        self.profiles.get(id.index())
    }

    /// Number of distinct labels in the graph with the given id: the length
    /// of its profile's label histogram (equal to
    /// [`LabeledGraph::distinct_label_count`], without the sort).
    #[inline]
    pub fn distinct_label_count(&self, id: GraphId) -> u32 {
        self.profile(id).labels.len() as u32
    }

    /// All graphs in id order.
    #[inline]
    pub fn graphs(&self) -> &[LabeledGraph] {
        &self.graphs
    }

    /// Iterator over all graph ids in order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = GraphId> {
        (0..self.graphs.len() as u32).map(GraphId)
    }

    /// Iterator over `(id, graph)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (GraphId, &LabeledGraph)> {
        self.graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (GraphId(i as u32), g))
    }

    /// Appends a graph, returning its id.
    pub fn push(&mut self, g: LabeledGraph) -> GraphId {
        let id = GraphId(self.graphs.len() as u32);
        self.profiles.push(&g);
        self.graphs.push(g);
        id
    }

    /// The sorted set of distinct labels across all graphs.
    pub fn label_domain(&self) -> Vec<Label> {
        let mut all: Vec<Label> = self
            .graphs
            .iter()
            .flat_map(|g| g.labels().iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Summary statistics in the format the paper reports for its datasets
    /// (§7.2: graph count, avg/max nodes, avg/max edges, avg degree).
    pub fn stats(&self) -> DatasetStats {
        let n = self.graphs.len();
        let mut s = DatasetStats {
            graph_count: n,
            ..DatasetStats::default()
        };
        if n == 0 {
            return s;
        }
        let mut node_sum = 0usize;
        let mut edge_sum = 0usize;
        let mut degree_sum = 0.0f64;
        for g in &self.graphs {
            node_sum += g.node_count();
            edge_sum += g.edge_count();
            degree_sum += g.avg_degree();
            s.max_nodes = s.max_nodes.max(g.node_count());
            s.max_edges = s.max_edges.max(g.edge_count());
        }
        s.avg_nodes = node_sum as f64 / n as f64;
        s.avg_edges = edge_sum as f64 / n as f64;
        s.avg_degree = degree_sum / n as f64;
        let mean = s.avg_nodes;
        s.std_nodes = (self
            .graphs
            .iter()
            .map(|g| {
                let d = g.node_count() as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64)
            .sqrt();
        s.distinct_labels = self.label_domain().len();
        s
    }

    /// Total memory footprint of all graphs (bytes, approximate).
    pub fn memory_bytes(&self) -> usize {
        self.graphs.iter().map(|g| g.memory_bytes()).sum()
    }
}

impl From<Vec<LabeledGraph>> for GraphDataset {
    fn from(graphs: Vec<LabeledGraph>) -> Self {
        GraphDataset::new(graphs)
    }
}

/// Summary statistics of a dataset, mirroring the figures quoted in §7.2.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatasetStats {
    /// Number of graphs.
    pub graph_count: usize,
    /// Mean node count per graph.
    pub avg_nodes: f64,
    /// Standard deviation of node counts.
    pub std_nodes: f64,
    /// Largest node count.
    pub max_nodes: usize,
    /// Mean edge count per graph.
    pub avg_edges: f64,
    /// Largest edge count.
    pub max_edges: usize,
    /// Mean of per-graph average degree.
    pub avg_degree: f64,
    /// Number of distinct labels in the whole dataset.
    pub distinct_labels: usize,
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} graphs | nodes avg {:.1} (std {:.1}, max {}) | edges avg {:.1} (max {}) | avg degree {:.2} | {} labels",
            self.graph_count,
            self.avg_nodes,
            self.std_nodes,
            self.max_nodes,
            self.avg_edges,
            self.max_edges,
            self.avg_degree,
            self.distinct_labels
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphProfile;

    fn small_dataset() -> GraphDataset {
        GraphDataset::new(vec![
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
            LabeledGraph::from_parts(vec![1, 2, 3], &[(0, 1), (1, 2), (2, 0)]),
        ])
    }

    #[test]
    fn ids_and_lookup() {
        let d = small_dataset();
        assert_eq!(d.len(), 2);
        let ids: Vec<_> = d.ids().collect();
        assert_eq!(ids, vec![GraphId(0), GraphId(1)]);
        assert_eq!(d.graph(GraphId(1)).node_count(), 3);
        assert_eq!(format!("{}", GraphId(1)), "G1");
    }

    #[test]
    fn label_column_matches_graphs() {
        let graphs = vec![
            LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]),
            LabeledGraph::empty(),
            LabeledGraph::from_parts(vec![1, 2, 3], &[(0, 1), (1, 2), (2, 0)]),
        ];
        let mut pushed = small_dataset();
        pushed.push(LabeledGraph::from_parts(vec![4, 4, 4], &[(0, 1), (1, 2)]));
        pushed.push(LabeledGraph::empty());
        pushed.push(LabeledGraph::from_parts(vec![5, 6, 5], &[(0, 1)]));
        for d in [GraphDataset::from(graphs), pushed] {
            for (id, g) in d.iter() {
                assert_eq!(
                    d.distinct_label_count(id) as usize,
                    g.distinct_label_count()
                );
                assert_eq!(d.profile(id), GraphProfile::of(g).view(), "{id}");
            }
        }
        let mut d = small_dataset();
        d.push(LabeledGraph::from_parts(vec![4, 4, 4], &[(0, 1), (1, 2)]));
        assert_eq!(d.distinct_label_count(GraphId(2)), 1);
        assert_eq!(d.profile(GraphId(2)).degree_at_least, &[3, 1]);
    }

    #[test]
    fn label_domain_sorted_dedup() {
        let d = small_dataset();
        assert_eq!(d.label_domain(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn stats_reasonable() {
        let d = small_dataset();
        let s = d.stats();
        assert_eq!(s.graph_count, 2);
        assert!((s.avg_nodes - 2.5).abs() < 1e-9);
        assert_eq!(s.max_nodes, 3);
        assert!((s.avg_edges - 2.0).abs() < 1e-9);
        assert_eq!(s.max_edges, 3);
        assert_eq!(s.distinct_labels, 4);
        assert!(s.avg_degree > 0.0);
        let shown = format!("{s}");
        assert!(shown.contains("2 graphs"));
    }

    #[test]
    fn empty_dataset_stats() {
        let d = GraphDataset::default();
        assert!(d.is_empty());
        assert_eq!(d.stats(), DatasetStats::default());
    }
}
