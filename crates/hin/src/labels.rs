//! Label assignments for HIN nodes.
//!
//! The DBLP, Movies, and NUS tasks are single-label; the ACM task is
//! multi-label (a publication can carry several index terms). `LabelStore`
//! supports both: each node holds a sorted set of class ids, and an empty
//! set means "unlabeled" from the store's point of view. Which labeled
//! nodes are revealed to an algorithm is decided separately by the
//! train/test split, so the store itself always holds ground truth.

/// Ground-truth class assignments for every node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelStore {
    class_names: Vec<String>,
    /// Sorted, deduplicated class ids per node.
    node_labels: Vec<Vec<usize>>,
}

impl LabelStore {
    /// Creates a store for `n` nodes and the given class names, with all
    /// nodes initially unlabeled.
    pub fn new(n: usize, class_names: Vec<String>) -> Self {
        LabelStore {
            class_names,
            node_labels: vec![Vec::new(); n],
        }
    }

    /// Builds a single-label store from one class id per node.
    ///
    /// # Panics
    /// Panics if any class id is out of range.
    pub fn from_single_labels(labels: &[usize], class_names: Vec<String>) -> Self {
        let q = class_names.len();
        let node_labels = labels
            .iter()
            .map(|&c| {
                assert!(c < q, "class id {c} out of range for {q} classes");
                vec![c]
            })
            .collect();
        LabelStore {
            class_names,
            node_labels,
        }
    }

    /// Number of nodes tracked.
    pub fn num_nodes(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of classes `q`.
    pub fn num_classes(&self) -> usize {
        self.class_names.len()
    }

    /// The class names.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Adds class `c` to node `node` (idempotent).
    ///
    /// # Panics
    /// Panics if `node` or `c` is out of range.
    pub fn add_label(&mut self, node: usize, c: usize) {
        assert!(c < self.class_names.len(), "class id {c} out of range");
        let set = &mut self.node_labels[node];
        if let Err(pos) = set.binary_search(&c) {
            set.insert(pos, c);
        }
    }

    /// Extends the store to track `new_n` nodes; added nodes start
    /// unlabeled. Nodes are never dropped, so a smaller `new_n` is a
    /// no-op.
    pub fn grow(&mut self, new_n: usize) {
        if new_n > self.node_labels.len() {
            self.node_labels.resize(new_n, Vec::new());
        }
    }

    /// The sorted class ids of `node` (empty when unlabeled).
    pub fn labels_of(&self, node: usize) -> &[usize] {
        &self.node_labels[node]
    }

    /// True when `node` carries class `c`.
    pub fn has_label(&self, node: usize, c: usize) -> bool {
        self.node_labels[node].binary_search(&c).is_ok()
    }

    /// The single label of `node`, or `None` when the node is unlabeled or
    /// multi-label.
    pub fn single_label_of(&self, node: usize) -> Option<usize> {
        match self.node_labels[node].as_slice() {
            [c] => Some(*c),
            _ => None,
        }
    }

    /// All nodes carrying class `c`.
    pub fn nodes_with_class(&self, c: usize) -> Vec<usize> {
        (0..self.num_nodes())
            .filter(|&v| self.has_label(v, c))
            .collect()
    }

    /// Nodes with at least one label.
    pub fn labeled_nodes(&self) -> Vec<usize> {
        (0..self.num_nodes())
            .filter(|&v| !self.node_labels[v].is_empty())
            .collect()
    }

    /// True when some node carries more than one label.
    pub fn is_multi_label(&self) -> bool {
        self.node_labels.iter().any(|set| set.len() > 1)
    }

    /// Per-class node counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes()];
        for set in &self.node_labels {
            for &c in set {
                counts[c] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(q: usize) -> Vec<String> {
        (0..q).map(|c| format!("class-{c}")).collect()
    }

    #[test]
    fn from_single_labels_roundtrip() {
        let s = LabelStore::from_single_labels(&[0, 1, 1, 2], names(3));
        assert_eq!(s.num_nodes(), 4);
        assert_eq!(s.num_classes(), 3);
        assert_eq!(s.single_label_of(2), Some(1));
        assert!(!s.is_multi_label());
        assert_eq!(s.class_counts(), vec![1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_single_labels_validates_range() {
        LabelStore::from_single_labels(&[3], names(3));
    }

    #[test]
    fn add_label_is_idempotent_and_sorted() {
        let mut s = LabelStore::new(2, names(3));
        s.add_label(0, 2);
        s.add_label(0, 0);
        s.add_label(0, 2);
        assert_eq!(s.labels_of(0), &[0, 2]);
        assert!(s.is_multi_label());
        assert_eq!(s.single_label_of(0), None);
        assert_eq!(
            s.single_label_of(1),
            None,
            "unlabeled node has no single label"
        );
    }

    #[test]
    fn membership_queries() {
        let mut s = LabelStore::new(3, names(2));
        s.add_label(1, 0);
        s.add_label(2, 1);
        assert!(s.has_label(1, 0));
        assert!(!s.has_label(1, 1));
        assert_eq!(s.nodes_with_class(1), vec![2]);
        assert_eq!(s.labeled_nodes(), vec![1, 2]);
    }

    #[test]
    fn empty_store_has_no_labeled_nodes() {
        let s = LabelStore::new(5, names(2));
        assert!(s.labeled_nodes().is_empty());
        assert_eq!(s.class_counts(), vec![0, 0]);
    }
}
