//! A trie over label sequences with per-node postings — the storage shape of
//! GraphGrepSX ("suffix tree" of paths) and of Grapes' location index.
//!
//! Nodes are addressed by a `u32` index (the root is 0). Lookups descend a
//! whole sequence ([`LabelTrie::posting`], [`LabelTrie::posting_mut`]);
//! the dataset-index build instead walks one step at a time
//! ([`LabelTrie::child_or_insert`]) while it enumerates paths, and undoes a
//! walk that overflowed its work cap with [`LabelTrie::truncate`].

use gc_graph::Label;

/// A trie keyed by label sequences. Each node carries a posting payload `P`
/// (e.g. per-graph occurrence counts). Node 0 is the root (empty sequence).
#[derive(Debug, Clone)]
pub struct LabelTrie<P> {
    nodes: Vec<TrieNode<P>>,
}

#[derive(Debug, Clone)]
struct TrieNode<P> {
    /// Sorted `(label, child index)` pairs; binary-searched on descent.
    children: Vec<(Label, u32)>,
    /// Payload for the sequence ending at this node.
    posting: P,
}

impl<P: Default> Default for LabelTrie<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Default> LabelTrie<P> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        LabelTrie {
            nodes: vec![TrieNode {
                children: Vec::new(),
                posting: P::default(),
            }],
        }
    }

    /// Number of trie nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns a mutable reference to the posting of `seq`, creating the
    /// path through the trie as needed.
    pub fn posting_mut(&mut self, seq: &[Label]) -> &mut P {
        let mut cur = 0usize;
        for &l in seq {
            cur = match self.nodes[cur].children.binary_search_by_key(&l, |c| c.0) {
                Ok(i) => self.nodes[cur].children[i].1 as usize,
                Err(i) => {
                    let idx = self.nodes.len() as u32;
                    self.nodes.push(TrieNode {
                        children: Vec::new(),
                        posting: P::default(),
                    });
                    self.nodes[cur].children.insert(i, (l, idx));
                    idx as usize
                }
            };
        }
        &mut self.nodes[cur].posting
    }

    /// The child of `node` along `label`, created (with a default posting)
    /// if absent — one step of an incremental descent.
    pub fn child_or_insert(&mut self, node: u32, label: Label) -> u32 {
        let children = &self.nodes[node as usize].children;
        match children.binary_search_by_key(&label, |c| c.0) {
            Ok(i) => children[i].1,
            Err(i) => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(TrieNode {
                    children: Vec::new(),
                    posting: P::default(),
                });
                self.nodes[node as usize].children.insert(i, (label, idx));
                idx
            }
        }
    }

    /// Drops every node with index `>= len` and the child links to them,
    /// restoring the trie as it was when it had `len` nodes (nodes are only
    /// ever appended). Scans every surviving node, so it is meant for rare
    /// rollbacks, not for hot paths.
    pub fn truncate(&mut self, len: usize) {
        let len = len.max(1);
        self.nodes.truncate(len);
        for n in &mut self.nodes {
            n.children.retain(|&(_, c)| (c as usize) < len);
        }
    }

    /// The posting stored at `node` (an index from
    /// [`LabelTrie::child_or_insert`]).
    pub fn posting_at_mut(&mut self, node: u32) -> &mut P {
        &mut self.nodes[node as usize].posting
    }

    /// Looks up the posting of `seq`, if that exact sequence was inserted.
    pub fn posting(&self, seq: &[Label]) -> Option<&P> {
        let mut cur = 0usize;
        for &l in seq {
            match self.nodes[cur].children.binary_search_by_key(&l, |c| c.0) {
                Ok(i) => cur = self.nodes[cur].children[i].1 as usize,
                Err(_) => return None,
            }
        }
        Some(&self.nodes[cur].posting)
    }

    /// Visits every node's posting, root included, in node-index order
    /// (used for memory accounting and diagnostics).
    pub fn for_each_posting(&self, mut f: impl FnMut(&P)) {
        for n in &self.nodes {
            f(&n.posting);
        }
    }

    /// Visits every non-root `(sequence, posting)` pair in lexicographic
    /// order of the sequences — a canonical order that does not depend on
    /// the order the sequences were inserted in.
    pub fn for_each_feature(&self, mut f: impl FnMut(&[Label], &P)) {
        fn visit<P>(
            nodes: &[TrieNode<P>],
            node: usize,
            seq: &mut Vec<Label>,
            f: &mut impl FnMut(&[Label], &P),
        ) {
            for &(l, c) in &nodes[node].children {
                seq.push(l);
                f(seq, &nodes[c as usize].posting);
                visit(nodes, c as usize, seq, f);
                seq.pop();
            }
        }
        visit(&self.nodes, 0, &mut Vec::new(), &mut f);
    }

    /// Structural memory of the trie skeleton (children vectors), excluding
    /// posting payloads (accounted by the caller via
    /// [`LabelTrie::for_each_posting`]).
    pub fn skeleton_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<TrieNode<P>>()
            + self
                .nodes
                .iter()
                .map(|n| n.children.len() * std::mem::size_of::<(Label, u32)>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut t: LabelTrie<Vec<u32>> = LabelTrie::new();
        t.posting_mut(&[1, 2, 3]).push(7);
        t.posting_mut(&[1, 2]).push(8);
        t.posting_mut(&[1, 2, 3]).push(9);
        assert_eq!(t.posting(&[1, 2, 3]), Some(&vec![7, 9]));
        assert_eq!(t.posting(&[1, 2]), Some(&vec![8]));
        assert_eq!(t.posting(&[1]), Some(&vec![])); // interior node exists
        assert_eq!(t.posting(&[2]), None);
        assert_eq!(t.posting(&[1, 2, 3, 4]), None);
    }

    #[test]
    fn root_posting_is_empty_sequence() {
        let mut t: LabelTrie<u32> = LabelTrie::new();
        *t.posting_mut(&[]) = 42;
        assert_eq!(t.posting(&[]), Some(&42));
    }

    #[test]
    fn node_count_shares_prefixes() {
        let mut t: LabelTrie<()> = LabelTrie::new();
        t.posting_mut(&[1, 2, 3]);
        t.posting_mut(&[1, 2, 4]);
        // root + 1 + 2 + {3,4} = 5 nodes
        assert_eq!(t.node_count(), 5);
    }

    #[test]
    fn stepwise_descent_matches_posting_mut() {
        let mut t: LabelTrie<u32> = LabelTrie::new();
        let a = t.child_or_insert(0, 5);
        let ab = t.child_or_insert(a, 3);
        assert_eq!(t.child_or_insert(0, 5), a, "existing child is reused");
        *t.posting_at_mut(ab) = 7;
        assert_eq!(t.posting(&[5, 3]), Some(&7));
        *t.posting_mut(&[5, 3]) += 1;
        assert_eq!(*t.posting_at_mut(ab), 8);
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn truncate_rolls_back_appended_nodes() {
        let mut t: LabelTrie<u32> = LabelTrie::new();
        *t.posting_mut(&[1, 2]) = 1;
        let (nodes, bytes) = (t.node_count(), t.skeleton_bytes());
        // New branches under old nodes and under new nodes.
        t.posting_mut(&[1, 3, 4]);
        t.posting_mut(&[0]);
        t.truncate(nodes);
        assert_eq!((t.node_count(), t.skeleton_bytes()), (nodes, bytes));
        assert_eq!(t.posting(&[1, 3]), None);
        assert_eq!(t.posting(&[0]), None);
        assert_eq!(t.posting(&[1, 2]), Some(&1));
        // The trie keeps working after a rollback.
        *t.posting_mut(&[1, 3]) = 9;
        assert_eq!(t.posting(&[1, 3]), Some(&9));
    }

    #[test]
    fn for_each_feature_is_lexicographic() {
        let mut t: LabelTrie<u32> = LabelTrie::new();
        for (seq, v) in [(&[2][..], 1), (&[1, 3], 2), (&[1], 3), (&[1, 0], 4)] {
            *t.posting_mut(seq) = v;
        }
        let mut seen = Vec::new();
        t.for_each_feature(|s, &p| seen.push((s.to_vec(), p)));
        assert_eq!(
            seen,
            vec![(vec![1], 3), (vec![1, 0], 4), (vec![1, 3], 2), (vec![2], 1)]
        );
    }

    #[test]
    fn for_each_posting_visits_all() {
        let mut t: LabelTrie<u32> = LabelTrie::new();
        *t.posting_mut(&[1]) = 1;
        *t.posting_mut(&[2]) = 2;
        let mut sum = 0;
        t.for_each_posting(|p| sum += p);
        assert_eq!(sum, 3);
        assert!(t.skeleton_bytes() > 0);
    }
}
