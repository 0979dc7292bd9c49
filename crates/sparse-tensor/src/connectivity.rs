//! Irreducibility checks for the adjacency tensor.
//!
//! Section 3.1 assumes "any two nodes in the HIN can be connected via some
//! relations, so `A` is irreducible", which transfers to `O` and `R` and
//! underpins the existence/uniqueness theorems. In Markov-chain terms this
//! is strong connectivity of the directed graph whose edge `j → i` exists
//! whenever `a_{i,j,k} > 0` for some `k`. In practice the dangling-fiber
//! uniform rule makes the effective chain irreducible even when the raw
//! tensor is not, but diagnosing raw irreducibility is still useful for
//! dataset validation, so we provide Tarjan's strongly-connected-components
//! algorithm (iterative, to avoid recursion limits on large graphs).

use crate::tensor::SparseTensor3;

/// Adjacency list of the relation-aggregated walk graph: `adj[j]` lists the
/// destinations `i` reachable from `j` through any relation.
fn walk_adjacency(tensor: &SparseTensor3) -> Vec<Vec<usize>> {
    let n = tensor.num_nodes();
    let mut adj = vec![Vec::new(); n];
    for e in tensor.entries() {
        adj[e.j].push(e.i);
    }
    for list in adj.iter_mut() {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Computes the strongly connected components of the walk graph using an
/// iterative Tarjan algorithm. Returns one `Vec` of node indices per
/// component, in reverse topological order (Tarjan's natural output).
pub fn strongly_connected_components(tensor: &SparseTensor3) -> Vec<Vec<usize>> {
    let adj = walk_adjacency(tensor);
    let n = adj.len();
    const UNSET: usize = usize::MAX;

    let mut index = vec![UNSET; n];
    let mut lowlink = vec![UNSET; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;

    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        frames.push((start, 0));
        index[start] = counter;
        lowlink[start] = counter;
        counter += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut child_pos)) = frames.last_mut() {
            if *child_pos < adj[v].len() {
                let w = adj[v][*child_pos];
                *child_pos += 1;
                if index[w] == UNSET {
                    index[w] = counter;
                    lowlink[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack holds the component");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    components.push(comp);
                }
            }
        }
    }
    components
}

/// True when the walk graph is strongly connected, i.e. the raw adjacency
/// tensor is irreducible in the sense of Section 3.1.
pub fn is_irreducible(tensor: &SparseTensor3) -> bool {
    tensor.num_nodes() > 0 && strongly_connected_components(tensor).len() == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit-weight tensor from directed `(i, j, k)` entries plus
    /// undirected `(u, v, k)` links stored both ways.
    fn tensor(
        n: usize,
        m: usize,
        directed: &[(usize, usize, usize)],
        undirected: &[(usize, usize, usize)],
    ) -> SparseTensor3 {
        let both = undirected
            .iter()
            .flat_map(|&(u, v, k)| [(u, v, k), (v, u, k)]);
        let entries = directed.iter().copied().chain(both);
        SparseTensor3::from_entries(n, m, entries.map(|(i, j, k)| (i, j, k, 1.0))).unwrap()
    }

    #[test]
    fn cycle_is_irreducible() {
        let t = tensor(3, 1, &[(1, 0, 0), (2, 1, 0), (0, 2, 0)], &[]);
        assert!(is_irreducible(&t));
        assert_eq!(strongly_connected_components(&t).len(), 1);
    }

    #[test]
    fn chain_is_reducible() {
        let t = tensor(3, 1, &[(1, 0, 0), (2, 1, 0)], &[]);
        assert!(!is_irreducible(&t));
        assert_eq!(strongly_connected_components(&t).len(), 3);
    }

    #[test]
    fn undirected_connected_graph_is_irreducible() {
        let t = tensor(4, 2, &[], &[(0, 1, 0), (1, 2, 1), (2, 3, 0)]);
        assert!(is_irreducible(&t));
    }

    #[test]
    fn disconnected_components_are_detected() {
        let t = tensor(4, 1, &[], &[(0, 1, 0), (2, 3, 0)]);
        assert!(!is_irreducible(&t));
        let sccs = strongly_connected_components(&t);
        assert_eq!(sccs.len(), 2);
        let mut sizes: Vec<usize> = sccs.iter().map(|c| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2]);
    }

    #[test]
    fn irreducibility_uses_all_relations_jointly() {
        // Neither relation alone connects the graph, but together they do.
        let t = tensor(3, 2, &[], &[(0, 1, 0), (1, 2, 1)]);
        assert!(is_irreducible(&t));
    }

    #[test]
    fn isolated_node_breaks_irreducibility() {
        let t = tensor(3, 1, &[], &[(0, 1, 0)]);
        assert!(!is_irreducible(&t));
    }

    #[test]
    fn components_cover_all_nodes_exactly_once() {
        let directed = [(1, 0, 0), (0, 1, 0), (3, 2, 0), (4, 3, 0), (2, 4, 0)];
        let t = tensor(6, 1, &directed, &[]);
        let sccs = strongly_connected_components(&t);
        let mut all: Vec<usize> = sccs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }
}
