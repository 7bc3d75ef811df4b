//! A B+-tree with I/O accounting.
//!
//! QALSH (the query-aware extension of C2LSH implemented in the `qalsh`
//! crate) indexes the raw projection `a·o` of every object in one B+-tree
//! per hash function and answers queries by expanding a window around
//! `a·q` — so it needs point search *and* bidirectional leaf iteration.
//!
//! This implementation is an arena-based, multimap (duplicate keys
//! allowed) B+-tree with:
//!
//! * **bulk loading** from sorted pairs — the only way to fill it,
//! * **lower-bound search** returning a [`Cursor`] that walks leaves in
//!   both directions through doubly-linked leaf pointers,
//! * **I/O accounting**: every node visited is charged one page read,
//!   matching the disk-resident design of the original systems (nodes are
//!   sized so one node = one 4 KiB page).
//!
//! Insertion and deletion are intentionally out of scope: none of the
//! reproduced experiments add or remove objects after the build, and the
//! original systems are also build-once indexes.

use crate::PAGE_SIZE;
use std::sync::atomic::{AtomicU64, Ordering};

/// Node identifier inside the arena.
type NodeId = usize;

#[derive(Debug)]
enum Node<K, V> {
    Leaf {
        keys: Vec<K>,
        vals: Vec<V>,
        prev: Option<NodeId>,
        next: Option<NodeId>,
    },
    Inner {
        /// `keys[i]` separates `children[i]` (keys < keys[i]) from
        /// `children[i+1]` (keys ≥ keys[i]).
        keys: Vec<K>,
        children: Vec<NodeId>,
    },
}

/// A B+-tree multimap over `Copy` ordered keys.
#[derive(Debug)]
pub struct BPlusTree<K, V> {
    nodes: Vec<Node<K, V>>,
    root: NodeId,
    leaf_cap: usize,
    inner_cap: usize,
    len: usize,
    reads: AtomicU64,
}

/// A position within the leaf level; yields entries in key order in
/// either direction. Obtained from [`BPlusTree::lower_bound`].
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    leaf: Option<NodeId>,
    /// Slot within the leaf; may equal the leaf's length transiently
    /// (normalized on use).
    slot: usize,
}

impl<K: Ord + Copy, V: Copy> BPlusTree<K, V> {
    /// An empty tree with node capacities derived from the 4 KiB page
    /// size and the entry width.
    fn new() -> Self {
        let leaf_cap = (PAGE_SIZE / (core::mem::size_of::<K>() + core::mem::size_of::<V>())).max(4);
        let inner_cap = (PAGE_SIZE / (core::mem::size_of::<K>() + 8)).max(4);
        Self::with_capacities(leaf_cap, inner_cap)
    }

    /// An empty tree with explicit node capacities.
    ///
    /// # Panics
    /// Panics when either capacity is below 4.
    fn with_capacities(leaf_cap: usize, inner_cap: usize) -> Self {
        assert!(leaf_cap >= 4 && inner_cap >= 4, "node capacities must be >= 4");
        let root = 0;
        Self {
            nodes: vec![Node::Leaf { keys: Vec::new(), vals: Vec::new(), prev: None, next: None }],
            root,
            leaf_cap,
            inner_cap,
            len: 0,
            reads: AtomicU64::new(0),
        }
    }

    /// Bulk-load from pairs sorted by key (stable: equal keys keep input
    /// order); produces full leaves.
    ///
    /// # Panics
    /// Panics when `pairs` is not sorted by key.
    pub fn bulk_load(pairs: &[(K, V)]) -> Self {
        let mut t = Self::new();
        t.bulk_fill(pairs);
        t
    }

    /// Bulk-load with explicit capacities (tests use tiny ones to force
    /// deep trees).
    pub fn bulk_load_with_capacities(pairs: &[(K, V)], leaf_cap: usize, inner_cap: usize) -> Self {
        let mut t = Self::with_capacities(leaf_cap, inner_cap);
        t.bulk_fill(pairs);
        t
    }

    fn bulk_fill(&mut self, pairs: &[(K, V)]) {
        assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_load input must be sorted by key"
        );
        if pairs.is_empty() {
            return;
        }
        self.nodes.clear();
        // Leaves at ~full occupancy.
        let per_leaf = self.leaf_cap;
        let mut level: Vec<(K, NodeId)> = Vec::new(); // (min key, node)
        let mut prev_leaf: Option<NodeId> = None;
        for chunk in pairs.chunks(per_leaf) {
            let id = self.nodes.len();
            self.nodes.push(Node::Leaf {
                keys: chunk.iter().map(|p| p.0).collect(),
                vals: chunk.iter().map(|p| p.1).collect(),
                prev: prev_leaf,
                next: None,
            });
            if let Some(p) = prev_leaf {
                if let Node::Leaf { next, .. } = &mut self.nodes[p] {
                    *next = Some(id);
                }
            }
            prev_leaf = Some(id);
            level.push((chunk[0].0, id));
        }
        // Build inner levels bottom-up.
        while level.len() > 1 {
            let mut upper: Vec<(K, NodeId)> = Vec::new();
            for group in level.chunks(self.inner_cap) {
                let id = self.nodes.len();
                let keys: Vec<K> = group[1..].iter().map(|g| g.0).collect();
                let children: Vec<NodeId> = group.iter().map(|g| g.1).collect();
                self.nodes.push(Node::Inner { keys, children });
                upper.push((group[0].0, id));
            }
            level = upper;
        }
        self.root = level[0].1;
        self.len = pairs.len();
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height (1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut id = self.root;
        loop {
            match &self.nodes[id] {
                Node::Leaf { .. } => return h,
                Node::Inner { children, .. } => {
                    id = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Number of nodes = number of 4 KiB pages the tree would occupy.
    pub fn num_pages(&self) -> usize {
        self.nodes.len()
    }

    /// Page reads charged so far.
    pub fn io_reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Zero the read counter (e.g. after the build phase).
    pub fn reset_io(&self) {
        self.reads.store(0, Ordering::Relaxed);
    }

    fn charge(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Cursor at the first entry with `key >= target` (or one-past-the-end
    /// when every key is smaller). Charges one read per node on the root-
    /// to-leaf path.
    pub fn lower_bound(&self, target: K) -> Cursor {
        if self.len == 0 {
            return Cursor { leaf: None, slot: 0 };
        }
        let mut id = self.root;
        loop {
            self.charge();
            match &self.nodes[id] {
                Node::Inner { keys, children } => {
                    let idx = keys.partition_point(|k| *k < target);
                    // For lower_bound, descend into the leftmost child
                    // that can contain `target`: keys[i] is the min of
                    // children[i+1], so `< target` picks correctly.
                    id = children[idx];
                }
                Node::Leaf { keys, next, .. } => {
                    let slot = keys.partition_point(|k| *k < target);
                    if slot == keys.len() {
                        // Past this leaf: normalize to the next leaf's
                        // first slot (charged when the cursor reads it).
                        return Cursor { leaf: *next, slot: 0 };
                    }
                    return Cursor { leaf: Some(id), slot };
                }
            }
        }
    }

    /// Cursor positioned at the very first entry.
    pub fn first(&self) -> Cursor {
        if self.len == 0 {
            return Cursor { leaf: None, slot: 0 };
        }
        let mut id = self.root;
        loop {
            self.charge();
            match &self.nodes[id] {
                Node::Inner { children, .. } => id = children[0],
                Node::Leaf { .. } => return Cursor { leaf: Some(id), slot: 0 },
            }
        }
    }

    /// The entry at `cur`, if any. Does not charge I/O (the cursor's leaf
    /// was charged when reached).
    pub fn get(&self, cur: Cursor) -> Option<(K, V)> {
        let leaf = cur.leaf?;
        match &self.nodes[leaf] {
            Node::Leaf { keys, vals, .. } => keys.get(cur.slot).map(|k| (*k, vals[cur.slot])),
            _ => unreachable!("cursor points at inner node"),
        }
    }

    /// Advance to the next entry; charges one read on leaf transition.
    pub fn advance(&self, cur: Cursor) -> Cursor {
        let Some(leaf) = cur.leaf else { return cur };
        match &self.nodes[leaf] {
            Node::Leaf { keys, next, .. } => {
                if cur.slot + 1 < keys.len() {
                    Cursor { leaf: Some(leaf), slot: cur.slot + 1 }
                } else {
                    if next.is_some() {
                        self.charge();
                    }
                    Cursor { leaf: *next, slot: 0 }
                }
            }
            _ => unreachable!(),
        }
    }

    /// Step back to the previous entry; `None` leaf when already at the
    /// beginning. Charges one read on leaf transition.
    pub fn retreat(&self, cur: Cursor) -> Cursor {
        match cur.leaf {
            Some(leaf) => match &self.nodes[leaf] {
                Node::Leaf { prev, .. } => {
                    if cur.slot > 0 {
                        Cursor { leaf: Some(leaf), slot: cur.slot - 1 }
                    } else {
                        match prev {
                            Some(p) => {
                                self.charge();
                                let plen = self.leaf_len(*p);
                                Cursor { leaf: Some(*p), slot: plen - 1 }
                            }
                            None => Cursor { leaf: None, slot: 0 },
                        }
                    }
                }
                _ => unreachable!(),
            },
            // One-past-the-end: step to the very last entry.
            None => {
                if self.len == 0 {
                    return cur;
                }
                let mut id = self.root;
                loop {
                    self.charge();
                    match &self.nodes[id] {
                        Node::Inner { children, .. } => id = *children.last().unwrap(),
                        Node::Leaf { keys, .. } => {
                            return Cursor { leaf: Some(id), slot: keys.len() - 1 }
                        }
                    }
                }
            }
        }
    }

    fn leaf_len(&self, id: NodeId) -> usize {
        match &self.nodes[id] {
            Node::Leaf { keys, .. } => keys.len(),
            _ => unreachable!(),
        }
    }

    /// All entries with `lo <= key < hi`, in key order (convenience; the
    /// hot paths drive the cursor directly).
    pub fn range(&self, lo: K, hi: K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        let mut cur = self.lower_bound(lo);
        while let Some((k, v)) = self.get(cur) {
            if k >= hi {
                break;
            }
            out.push((k, v));
            cur = self.advance(cur);
        }
        out
    }

    /// Exhaustively check structural invariants; used by tests.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    pub fn validate(&self) {
        // 1. All leaves at the same depth; keys sorted within nodes;
        //    separators bound subtrees; leaf chain consistent.
        let mut leaf_depths = Vec::new();
        self.validate_rec(self.root, None, None, 1, &mut leaf_depths);
        assert!(
            leaf_depths.windows(2).all(|w| w[0] == w[1]),
            "leaves at differing depths: {leaf_depths:?}"
        );
        // 2. Leaf chain covers exactly `len` entries in sorted order.
        let mut count = 0usize;
        let mut cur = self.first();
        let mut last: Option<K> = None;
        while let Some((k, _)) = self.get(cur) {
            if let Some(prev) = last {
                assert!(prev <= k, "leaf chain out of order");
            }
            last = Some(k);
            count += 1;
            cur = self.advance(cur);
        }
        assert_eq!(count, self.len, "leaf chain length mismatch");
    }

    fn validate_rec(
        &self,
        id: NodeId,
        lo: Option<K>,
        hi: Option<K>,
        depth: usize,
        leaf_depths: &mut Vec<usize>,
    ) {
        match &self.nodes[id] {
            Node::Leaf { keys, .. } => {
                assert!(keys.windows(2).all(|w| w[0] <= w[1]), "unsorted leaf");
                for k in keys {
                    if let Some(lo) = lo {
                        assert!(*k >= lo, "leaf key below subtree bound");
                    }
                    if let Some(hi) = hi {
                        // Inclusive: duplicates equal to a separator may
                        // legitimately sit in the left subtree (a run of
                        // equal keys can straddle a leaf boundary, and the
                        // separator is the right leaf's first key).
                        assert!(*k <= hi, "leaf key above subtree bound");
                    }
                }
                leaf_depths.push(depth);
            }
            Node::Inner { keys, children } => {
                assert_eq!(children.len(), keys.len() + 1, "inner arity mismatch");
                assert!(keys.windows(2).all(|w| w[0] <= w[1]), "unsorted inner");
                for (i, &c) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                    let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                    self.validate_rec(c, clo, chi, depth + 1, leaf_depths);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(pairs: &[(i64, u32)]) -> BPlusTree<i64, u32> {
        let mut sorted = pairs.to_vec();
        sorted.sort_by_key(|p| p.0);
        BPlusTree::bulk_load_with_capacities(&sorted, 4, 4)
    }

    #[test]
    fn empty_tree() {
        let t: BPlusTree<i64, u32> = BPlusTree::new();
        assert!(t.is_empty());
        assert!(t.get(t.lower_bound(5)).is_none());
        assert!(t.get(t.first()).is_none());
        t.validate();
    }

    #[test]
    fn lower_bound_finds_first_key_at_or_above() {
        let t = tiny(&[(10, 0), (20, 1), (5, 2), (15, 3), (25, 4)]);
        t.validate();
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(t.lower_bound(12)), Some((15, 3)));
        assert_eq!(t.get(t.lower_bound(5)), Some((5, 2)));
        assert_eq!(t.get(t.lower_bound(26)), None);
    }

    #[test]
    fn deep_tree_finds_every_key() {
        let pairs: Vec<(i64, u32)> = (0..500).map(|i| ((i * 7 % 500) as i64, i as u32)).collect();
        let t = tiny(&pairs);
        t.validate();
        assert!(t.height() >= 3, "height {} too small to exercise inner levels", t.height());
        // Every key findable.
        for k in 0..500i64 {
            assert_eq!(t.get(t.lower_bound(k)).unwrap().0, k);
        }
    }

    #[test]
    fn duplicates_are_kept() {
        let t = tiny(&[(7, 1), (7, 2), (7, 3), (3, 0)]);
        t.validate();
        let got = t.range(7, 8);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|&(k, _)| k == 7));
    }

    #[test]
    fn range_scan_matches_filter() {
        let pairs: Vec<(i64, u32)> = (0..300).map(|i| (i as i64 * 2, i as u32)).collect();
        let t = BPlusTree::bulk_load_with_capacities(&pairs, 5, 5);
        t.validate();
        let got = t.range(100, 200);
        let want: Vec<(i64, u32)> =
            pairs.iter().copied().filter(|&(k, _)| (100..200).contains(&k)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cursor_bidirectional_walk() {
        let pairs: Vec<(i64, u32)> = (0..50).map(|i| (i as i64, i as u32)).collect();
        let t = BPlusTree::bulk_load_with_capacities(&pairs, 4, 4);
        let mut cur = t.lower_bound(25);
        assert_eq!(t.get(cur).unwrap().0, 25);
        // Walk forward to the end.
        let mut fwd = Vec::new();
        while let Some((k, _)) = t.get(cur) {
            fwd.push(k);
            cur = t.advance(cur);
        }
        assert_eq!(fwd, (25..50).collect::<Vec<i64>>());
        // Now walk backward from one-past-the-end.
        let mut cur = t.retreat(cur);
        let mut back = Vec::new();
        while let Some((k, _)) = t.get(cur) {
            back.push(k);
            if k == 0 {
                break;
            }
            cur = t.retreat(cur);
        }
        assert_eq!(back, (0..50).rev().collect::<Vec<i64>>());
    }

    #[test]
    fn retreat_at_beginning_goes_off_end() {
        let t = BPlusTree::bulk_load_with_capacities(&[(1i64, 1u32), (2, 2)], 4, 4);
        let cur = t.first();
        let before = t.retreat(cur);
        assert!(t.get(before).is_none());
    }

    #[test]
    fn io_accounting_scales_with_height() {
        let pairs: Vec<(i64, u32)> = (0..4000).map(|i| (i as i64, i as u32)).collect();
        let t = BPlusTree::bulk_load_with_capacities(&pairs, 8, 8);
        t.reset_io();
        let _ = t.lower_bound(1234);
        let h = t.height() as u64;
        assert_eq!(t.io_reads(), h, "one read per level");
        t.reset_io();
        // A long scan touches ~len/leaf_cap leaves.
        let mut cur = t.lower_bound(0);
        while t.get(cur).is_some() {
            cur = t.advance(cur);
        }
        let reads = t.io_reads();
        let leaves = 4000usize.div_ceil(8) as u64;
        assert!(reads >= leaves && reads <= leaves + h, "reads {reads}, leaves {leaves}");
    }

    #[test]
    fn num_pages_counts_nodes() {
        let pairs: Vec<(i64, u32)> = (0..100).map(|i| (i as i64, i as u32)).collect();
        let t = BPlusTree::bulk_load_with_capacities(&pairs, 10, 10);
        // 10 leaves + 1 root (fits 10 children) = 11 nodes.
        assert_eq!(t.num_pages(), 11);
    }

    #[test]
    #[should_panic(expected = "must be sorted")]
    fn bulk_load_rejects_unsorted() {
        let _ = BPlusTree::bulk_load(&[(3i64, 0u32), (1, 1)]);
    }

    #[test]
    fn default_capacities_from_page_size() {
        let t: BPlusTree<i64, u32> = BPlusTree::new();
        // 4096 / (8 + 4) = 341 entries per leaf.
        assert_eq!(t.leaf_cap, 341);
    }
}
