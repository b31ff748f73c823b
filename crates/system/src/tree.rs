//! Labeled computation trees and their runs.
//!
//! Section 3 of the paper: once a type-1 adversary is fixed, the runs of
//! the system with that adversary form a labeled computation tree `T_A`.
//! Nodes are global states, paths are runs, and each edge carries the
//! probability of the corresponding transition; the outgoing edges of
//! every internal node sum to one. The probability of a run is the
//! product of its edge labels.

use crate::error::SystemError;
use crate::ids::{NodeId, PropId, Sym};
use kpa_measure::Rat;
use std::collections::BTreeSet;

/// A node of a computation tree: one global state.
///
/// The environment component of the paper's global state — which encodes
/// the adversary and the complete history — is the node's identity
/// itself, so it is not stored explicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    pub(crate) locals: Vec<Sym>,
    pub(crate) props: BTreeSet<PropId>,
    pub(crate) children: Vec<(NodeId, Rat)>,
    pub(crate) parent: Option<NodeId>,
    pub(crate) depth: usize,
}

impl Node {
    /// The interned local state of each agent, indexed by agent.
    #[must_use]
    pub fn locals(&self) -> &[Sym] {
        &self.locals
    }

    /// The primitive propositions holding at this global state.
    #[must_use]
    pub fn props(&self) -> &BTreeSet<PropId> {
        &self.props
    }

    /// The outgoing edges `(child, transition probability)`.
    #[must_use]
    pub fn children(&self) -> &[(NodeId, Rat)] {
        &self.children
    }

    /// The parent node, if this is not the root.
    #[must_use]
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The time (depth) of this node within its tree.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether this node is a leaf.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A run: a maximal root-to-leaf path of a computation tree, with its
/// probability (the product of the traversed edge labels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) prob: Rat,
}

impl Run {
    /// The probability of this run within its tree's distribution.
    #[must_use]
    pub fn prob(&self) -> Rat {
        self.prob
    }

    /// The global state (node) the run passes through at time `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the tree horizon.
    #[must_use]
    pub fn node_at(&self, k: usize) -> NodeId {
        self.nodes[k]
    }

    /// The nodes of the run in time order (length `horizon + 1`).
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

/// One labeled computation tree `T_A` — the system as seen by a fixed
/// type-1 adversary `A`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    pub(crate) name: String,
    pub(crate) nodes: Vec<Node>,
    pub(crate) runs: Vec<Run>,
    /// Run indices through each node (parallel to `nodes`).
    pub(crate) node_runs: Vec<Vec<usize>>,
    pub(crate) horizon: usize,
}

impl Tree {
    /// The adversary's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of nodes (global states) in the tree.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this tree.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The root node id (always `NodeId(0)`).
    #[must_use]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The runs of the tree, each a full-horizon path with probability.
    #[must_use]
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The common length of all runs (final time index).
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The dense indices of the runs passing through `node`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this tree.
    #[must_use]
    pub fn runs_through_node(&self, node: NodeId) -> &[usize] {
        &self.node_runs[node.0 as usize]
    }

    /// Enumerates runs and computes per-node run membership. Assumes
    /// the structure has already been validated (uniform leaf depth,
    /// edge probabilities summing to one).
    ///
    /// # Errors
    ///
    /// [`SystemError::ProbabilityOverflow`] when some run's probability
    /// (the product of its edge probabilities) does not fit an exact
    /// `i128` rational.
    pub(crate) fn seal(&mut self) -> Result<(), SystemError> {
        let mut runs = Vec::new();
        let mut stack: Vec<(NodeId, Vec<NodeId>, Rat)> =
            vec![(NodeId(0), vec![NodeId(0)], Rat::ONE)];
        while let Some((id, path, prob)) = stack.pop() {
            let node = &self.nodes[id.0 as usize];
            if node.children.is_empty() {
                runs.push(Run { nodes: path, prob });
            } else {
                // Reverse so that runs come out in left-to-right order.
                for &(child, p) in node.children.iter().rev() {
                    let mut next = path.clone();
                    next.push(child);
                    let prob =
                        prob.checked_mul(p)
                            .ok_or_else(|| SystemError::ProbabilityOverflow {
                                tree: self.name.clone(),
                            })?;
                    stack.push((child, next, prob));
                }
            }
        }
        let mut node_runs = vec![Vec::new(); self.nodes.len()];
        for (i, run) in runs.iter().enumerate() {
            for node in &run.nodes {
                node_runs[node.0 as usize].push(i);
            }
        }
        self.runs = runs;
        self.node_runs = node_runs;
        self.horizon = self.runs.first().map_or(0, |r| r.nodes.len() - 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::ids::NodeId;
    use crate::system::SystemBuilder;
    use kpa_measure::{rat, Rat};

    /// Direct structural accessors on a small hand-built tree.
    #[test]
    fn tree_and_node_accessors() {
        let mut b = SystemBuilder::new(["p"]);
        let t = b.add_tree("adv");
        let root = b.add_root(t, &["s0"], &["init"]).unwrap();
        let left = b.add_child(t, root, rat!(1 / 3), &["sL"], &[]).unwrap();
        let right = b.add_child(t, root, rat!(2 / 3), &["sR"], &[]).unwrap();
        b.add_child(t, left, Rat::ONE, &["sLL"], &[]).unwrap();
        b.add_child(t, right, rat!(1 / 2), &["sRL"], &[]).unwrap();
        b.add_child(t, right, rat!(1 / 2), &["sRR"], &[]).unwrap();
        let sys = b.build().unwrap();
        let tree = sys.tree(t);

        assert_eq!(tree.name(), "adv");
        assert_eq!(tree.node_count(), 6);
        assert_eq!(tree.root(), NodeId(0));
        assert_eq!(tree.horizon(), 2);

        let root_node = tree.node(tree.root());
        assert!(root_node.parent().is_none());
        assert_eq!(root_node.depth(), 0);
        assert_eq!(root_node.children().len(), 2);
        assert!(!root_node.is_leaf());
        assert_eq!(root_node.locals().len(), 1);
        assert_eq!(root_node.props().len(), 1);

        let left_node = tree.node(left);
        assert_eq!(left_node.parent(), Some(tree.root()));
        assert_eq!(left_node.children()[0].1, Rat::ONE);

        // Runs: left (1/3), right-left (1/3), right-right (1/3).
        assert_eq!(tree.runs().len(), 3);
        let total: Rat = tree.runs().iter().map(super::Run::prob).sum();
        assert_eq!(total, Rat::ONE);
        for run in tree.runs() {
            assert_eq!(run.nodes().len(), 3);
            assert_eq!(run.node_at(0), tree.root());
        }
        // Run membership per node: the root carries all three runs.
        assert_eq!(tree.runs_through_node(tree.root()).len(), 3);
        assert_eq!(tree.runs_through_node(right).len(), 2);
        assert_eq!(tree.runs_through_node(left).len(), 1);
    }
}
