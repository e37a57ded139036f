//! Quick-reject profiles: the per-graph invariants a sub-iso test checks
//! before any search.
//!
//! `pattern ⊆ target` is impossible when the pattern has more nodes or
//! edges, needs more copies of some label, or has more nodes of degree
//! `≥ k` for some `k` than the target. A [`ProfileRef`] holds exactly those
//! invariants, so the check is a merge walk over two profiles instead of a
//! recount of both graphs. Dataset graphs keep theirs in a flat column of
//! [`GraphDataset`](crate::GraphDataset), built once; other graphs (queries,
//! cached entries) build a [`GraphProfile`] on demand.

use crate::graph::{Label, LabeledGraph};

/// The quick-reject invariants of one graph, borrowed from a
/// [`GraphProfile`] or a dataset column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileRef<'a> {
    /// Node count `|V|`.
    pub nodes: u32,
    /// Edge count `|E|`.
    pub edges: u32,
    /// `(label, count)` for every distinct label, ascending by label.
    pub labels: &'a [(Label, u32)],
    /// Entry `k - 1` is the number of nodes of degree `≥ k`, for `k` in
    /// `1..=max_degree` (empty when the graph has no edges).
    pub degree_at_least: &'a [u32],
}

/// An owned quick-reject profile of one graph.
#[derive(Debug, Clone)]
pub struct GraphProfile {
    nodes: u32,
    edges: u32,
    labels: Vec<(Label, u32)>,
    degree_at_least: Vec<u32>,
}

impl GraphProfile {
    /// Computes the profile of `g`.
    pub fn of(g: &LabeledGraph) -> Self {
        let mut p = GraphProfile {
            nodes: g.node_count() as u32,
            edges: g.edge_count() as u32,
            labels: Vec::new(),
            degree_at_least: Vec::new(),
        };
        append_labels(g, &mut Vec::new(), &mut p.labels);
        append_degrees(g, &mut p.degree_at_least);
        p
    }

    /// Borrows the profile.
    #[inline]
    pub fn view(&self) -> ProfileRef<'_> {
        ProfileRef {
            nodes: self.nodes,
            edges: self.edges,
            labels: &self.labels,
            degree_at_least: &self.degree_at_least,
        }
    }
}

/// Profiles of many graphs in three flat arrays: one fixed-size row per
/// graph plus the concatenated label histograms and degree counts. Pushing
/// a graph allocates nothing of its own.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProfileColumn {
    rows: Vec<ProfileRow>,
    labels: Vec<(Label, u32)>,
    degree_at_least: Vec<u32>,
}

/// Sizes of one graph plus where its runs end in the flat arrays (each
/// run starts where the previous row's ends).
#[derive(Debug, Clone, Copy)]
struct ProfileRow {
    nodes: u32,
    edges: u32,
    labels_end: usize,
    degrees_end: usize,
}

impl ProfileColumn {
    /// Appends the profiles of `graphs` as the next rows, sorting labels in
    /// one scratch buffer.
    pub(crate) fn extend(&mut self, graphs: &[LabeledGraph]) {
        let mut scratch = Vec::new();
        self.rows.reserve(graphs.len());
        for g in graphs {
            self.push_with(g, &mut scratch);
        }
    }

    /// Appends the profile of `g` as the next row.
    pub(crate) fn push(&mut self, g: &LabeledGraph) {
        self.push_with(g, &mut Vec::new());
    }

    fn push_with(&mut self, g: &LabeledGraph, scratch: &mut Vec<Label>) {
        append_labels(g, scratch, &mut self.labels);
        append_degrees(g, &mut self.degree_at_least);
        self.rows.push(ProfileRow {
            nodes: g.node_count() as u32,
            edges: g.edge_count() as u32,
            labels_end: self.labels.len(),
            degrees_end: self.degree_at_least.len(),
        });
    }

    /// The profile in row `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> ProfileRef<'_> {
        let row = self.rows[i];
        let (labels_start, degrees_start) = match i.checked_sub(1) {
            Some(prev) => (self.rows[prev].labels_end, self.rows[prev].degrees_end),
            None => (0, 0),
        };
        ProfileRef {
            nodes: row.nodes,
            edges: row.edges,
            labels: &self.labels[labels_start..row.labels_end],
            degree_at_least: &self.degree_at_least[degrees_start..row.degrees_end],
        }
    }
}

/// Appends `g`'s `(label, count)` histogram, ascending by label: the labels
/// are sorted in `scratch` and run-length encoded onto `out`.
fn append_labels(g: &LabeledGraph, scratch: &mut Vec<Label>, out: &mut Vec<(Label, u32)>) {
    scratch.clear();
    scratch.extend_from_slice(g.labels());
    scratch.sort_unstable();
    out.extend(
        scratch
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u32)),
    );
}

/// Appends `g`'s degree-`≥ k` counts for `k = 1..=max_degree`: a degree
/// histogram turned into suffix sums in place, with no sort.
fn append_degrees(g: &LabeledGraph, out: &mut Vec<u32>) {
    let degrees = g.offsets.windows(2).map(|w| (w[1] - w[0]) as usize);
    let start = out.len();
    out.resize(start + degrees.clone().max().unwrap_or(0), 0);
    let counts = &mut out[start..];
    for d in degrees {
        if let Some(k) = d.checked_sub(1) {
            counts[k] += 1;
        }
    }
    for k in (1..counts.len()).rev() {
        counts[k - 1] += counts[k];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_of_star() {
        // Centre labelled 5 with three leaves labelled 2, 7, 2.
        let g = LabeledGraph::from_parts(vec![5, 2, 7, 2], &[(0, 1), (0, 2), (0, 3)]);
        let p = GraphProfile::of(&g);
        let v = p.view();
        assert_eq!((v.nodes, v.edges), (4, 3));
        assert_eq!(v.labels, &[(2, 2), (5, 1), (7, 1)]);
        // Four nodes of degree >= 1, one of degree >= 2 and >= 3.
        assert_eq!(v.degree_at_least, &[4, 1, 1]);
    }

    #[test]
    fn edgeless_and_empty_graphs() {
        let isolated = GraphProfile::of(&LabeledGraph::from_parts(vec![3, 3], &[]));
        assert_eq!(isolated.view().labels, &[(3, 2)]);
        assert!(isolated.view().degree_at_least.is_empty());
        let empty = GraphProfile::of(&LabeledGraph::empty());
        assert_eq!(empty.view().nodes, 0);
        assert!(empty.view().labels.is_empty());
    }

    #[test]
    fn column_rows_match_owned_profiles() {
        let graphs = [
            LabeledGraph::from_parts(vec![1, 0, 1], &[(0, 1), (1, 2)]),
            LabeledGraph::empty(),
            LabeledGraph::from_parts(vec![4], &[]),
            LabeledGraph::from_parts(vec![0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3), (1, 2)]),
        ];
        let mut col = ProfileColumn::default();
        col.extend(&graphs);
        col.push(&graphs[0]);
        for (i, g) in graphs.iter().chain(&graphs[..1]).enumerate() {
            assert_eq!(col.get(i), GraphProfile::of(g).view(), "row {i}");
        }
    }
}
