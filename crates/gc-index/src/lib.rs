//! Filter-then-verify (FTV) dataset indexes for GraphCache.
//!
//! The paper bundles GraphCache with three top-performing subgraph FTV
//! methods (§7.1); the *filtering* halves of all three live here:
//!
//! * [`PathTrie`] — GraphGrepSX \[Bonnici et al. 2010\]: all labelled simple
//!   paths up to 4 edges, stored in a trie with per-graph occurrence counts;
//! * [`GrapesIndex`] — Grapes \[Giugno et al. 2013\]: the same path features
//!   augmented with occurrence locations (Grapes' verification parallelism
//!   lives in `gc-methods`);
//! * [`CtIndex`] — CT-Index \[Klein, Kriege, Mutzel 2011\]: per-graph
//!   fingerprint bitmaps over tree features (≤ 6 nodes) and cycle features
//!   (≤ 8 nodes), 4096 bits by default.
//!
//! The two path indexes share one build (`paths::index_paths`): a DFS per
//! dataset graph that counts each path straight into the index's
//! [`trie::LabelTrie`] while walking it, then appends the graph's postings
//! in one pass. It produces exactly the index that inserting each graph's
//! [`paths::enumerate_paths`] map would, at a fraction of the cost; the
//! query side still uses [`paths::enumerate_paths`] /
//! [`paths::query_features`].
//!
//! All filters are **sound**: the candidate set they return is always a
//! superset of the true answer set (no false negatives) — the property
//! tests in this crate check exactly that. Graphs whose feature enumeration
//! exceeds the configured work cap are conservatively treated as candidates
//! for every query, preserving soundness on pathological inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ct_index;
pub mod features;
pub mod fingerprint;
pub mod fx;
pub mod ggsx;
pub mod grapes;
pub mod paths;
pub mod trie;

pub use ct_index::{CtConfig, CtIndex};
pub use ggsx::{GgsxConfig, PathTrie};
pub use grapes::{GrapesConfig, GrapesIndex};

use gc_graph::{GraphDataset, GraphId, LabeledGraph};

/// A sorted, duplicate-free set of dataset graph ids — the "candidate set"
/// CS(g) of the paper.
pub type CandidateSet = Vec<GraphId>;

/// A dataset filtering index: the `Mindex`/`Mfilter` half of a
/// filter-then-verify Method M (paper §4).
pub trait FilterIndex: Send + Sync {
    /// Method name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Returns the candidate set for a subgraph query: every dataset graph
    /// that may contain `query`. Sound (superset of the answer set), sorted.
    fn filter(&self, query: &LabeledGraph) -> CandidateSet;

    /// Number of indexed graphs.
    fn graph_count(&self) -> usize;

    /// Approximate index memory footprint in bytes (space-overhead
    /// experiments, paper §7.3).
    fn memory_bytes(&self) -> usize;

    /// Supergraph-direction filtering, when the index supports it: every
    /// dataset graph that may be *contained in* `query`. `None` means the
    /// index cannot filter this direction (callers fall back to the full
    /// graph set, which is always sound).
    fn filter_supergraph(&self, query: &LabeledGraph) -> Option<CandidateSet> {
        let _ = query;
        None
    }
}

/// Builds the given index over a dataset, timing the construction.
pub fn build_timed<I, F: FnOnce(&GraphDataset) -> I>(
    dataset: &GraphDataset,
    build: F,
) -> (I, std::time::Duration) {
    let t0 = std::time::Instant::now();
    let idx = build(dataset);
    (idx, t0.elapsed())
}
