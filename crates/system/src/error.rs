//! Error types for system construction and queries.

use kpa_measure::Rat;
use std::fmt;

/// Errors arising when constructing or querying a [`System`](crate::System).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SystemError {
    /// A system must have at least one agent.
    NoAgents,
    /// A system must have at least one computation tree (type-1 adversary).
    NoTrees,
    /// Duplicate agent or adversary name.
    DuplicateName {
        /// The repeated name.
        name: String,
    },
    /// A node's outgoing edge probabilities do not sum to one.
    BadTransitions {
        /// The adversary (tree) name.
        tree: String,
        /// The offending node index.
        node: usize,
        /// The actual sum of the outgoing probabilities.
        sum: Rat,
    },
    /// An edge probability was zero or negative.
    NonPositiveEdge {
        /// The adversary (tree) name.
        tree: String,
        /// The source node index.
        node: usize,
        /// The offending probability.
        prob: Rat,
    },
    /// A node referenced an unknown parent or tree.
    DanglingReference,
    /// A local-state vector had the wrong number of agents.
    WrongAgentCount {
        /// The expected number of agents.
        expected: usize,
        /// The number of local states supplied.
        actual: usize,
    },
    /// An unknown agent name was supplied.
    UnknownAgent {
        /// The unresolved name.
        name: String,
    },
    /// An unknown proposition name was supplied.
    UnknownProp {
        /// The unresolved name.
        name: String,
    },
    /// Branch probabilities in a protocol step did not sum to one.
    BadBranching {
        /// The step label.
        step: String,
        /// The actual sum of the branch probabilities.
        sum: Rat,
    },
    /// A protocol step produced no branches for some frontier node.
    EmptyStep {
        /// The step label.
        step: String,
    },
    /// A run's probability — the product of its edge probabilities —
    /// does not fit an exact `i128` rational.
    ProbabilityOverflow {
        /// The adversary (tree) name.
        tree: String,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::NoAgents => write!(f, "system has no agents"),
            SystemError::NoTrees => write!(f, "system has no computation trees"),
            SystemError::DuplicateName { name } => write!(f, "duplicate name {name:?}"),
            SystemError::BadTransitions { tree, node, sum } => write!(
                f,
                "outgoing probabilities of node {node} in tree {tree:?} sum to {sum}, expected 1"
            ),
            SystemError::NonPositiveEdge { tree, node, prob } => write!(
                f,
                "edge probability {prob} out of node {node} in tree {tree:?} is not positive"
            ),
            SystemError::DanglingReference => write!(f, "reference to unknown node or tree"),
            SystemError::WrongAgentCount { expected, actual } => {
                write!(f, "expected {expected} local states, got {actual}")
            }
            SystemError::UnknownAgent { name } => write!(f, "unknown agent {name:?}"),
            SystemError::UnknownProp { name } => write!(f, "unknown proposition {name:?}"),
            SystemError::BadBranching { step, sum } => {
                write!(
                    f,
                    "branch probabilities of step {step:?} sum to {sum}, expected 1"
                )
            }
            SystemError::EmptyStep { step } => {
                write!(f, "step {step:?} produced no branches")
            }
            SystemError::ProbabilityOverflow { tree } => write!(
                f,
                "a run probability in tree {tree:?} overflows the exact i128 rationals"
            ),
        }
    }
}

impl std::error::Error for SystemError {}

#[cfg(test)]
mod tests {
    use super::*;
    use kpa_measure::rat;

    #[test]
    fn display_is_informative() {
        let e = SystemError::BadTransitions {
            tree: "adv".into(),
            node: 3,
            sum: rat!(3 / 4),
        };
        assert!(e.to_string().contains("3/4"));
        assert!(e.to_string().contains("adv"));
        assert!(!SystemError::NoAgents.to_string().is_empty());
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: std::error::Error + Send + Sync>(_: E) {}
        takes_error(SystemError::NoTrees);
    }
}
