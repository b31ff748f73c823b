//! Systems: collections of computation trees, points, and knowledge.
//!
//! A *probabilistic system* (Section 3 of the paper) is a collection of
//! labeled computation trees, one per type-1 adversary. This module
//! provides the [`System`] type — the immutable, query-oriented heart of
//! the workspace — and the low-level [`SystemBuilder`] used to construct
//! one tree node at a time. Most callers use the higher-level
//! [`ProtocolBuilder`](crate::ProtocolBuilder) instead.

use crate::error::SystemError;
use crate::ids::{AgentId, Interner, NodeId, PointId, PropId, RunId, Sym, TreeId};
use crate::pointset::{PointIndex, PointSet};
use crate::tree::{Node, Tree};
use kpa_measure::Rat;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A read-only view of one global state, used when labeling propositions
/// with [`System::add_state_prop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeView<'a> {
    /// The adversary (tree) name.
    pub tree: &'a str,
    /// The node's time (depth).
    pub time: usize,
    /// Each agent's local-state string, indexed by agent.
    pub locals: Vec<&'a str>,
    /// The names of the propositions already holding at this state.
    pub props: Vec<&'a str>,
}

impl NodeView<'_> {
    /// Whether agent `i`'s local state contains `needle` as a substring.
    ///
    /// Local states built by the [`ProtocolBuilder`](crate::ProtocolBuilder)
    /// are `;`-joined observation histories, so substring tests are the
    /// idiomatic way to ask "has this agent observed …?".
    #[must_use]
    pub fn local_contains(&self, agent: AgentId, needle: &str) -> bool {
        self.locals[agent.0].contains(needle)
    }

    /// Whether the proposition `name` already holds at this state.
    #[must_use]
    pub fn has_prop(&self, name: &str) -> bool {
        self.props.contains(&name)
    }
}

/// A system of interacting agents: a set of labeled computation trees
/// (one per type-1 adversary) over a common agent roster.
///
/// All queries — points, indistinguishability, run probabilities,
/// synchrony — are answered from caches built at construction time.
///
/// # Examples
///
/// ```
/// use kpa_measure::rat;
/// use kpa_system::{AgentId, SystemBuilder};
///
/// // One agent tosses a fair coin once (the opening example of §3).
/// let mut b = SystemBuilder::new(["p1"]);
/// let t = b.add_tree("only");
/// let root = b.add_root(t, &["init"], &[])?;
/// b.add_child(t, root, rat!(1 / 2), &["saw h"], &["heads"])?;
/// b.add_child(t, root, rat!(1 / 2), &["saw t"], &[])?;
/// let sys = b.build()?;
///
/// assert_eq!(sys.tree(t).runs().len(), 2);
/// assert_eq!(sys.tree(t).runs()[0].prob(), rat!(1 / 2));
/// assert!(sys.is_synchronous());
/// # Ok::<(), kpa_system::SystemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct System {
    agents: Vec<String>,
    trees: Vec<Tree>,
    strings: Interner,
    props: Interner,
    horizon: usize,
    /// The dense point layout shared by every [`PointSet`] query answer.
    point_index: Arc<PointIndex>,
    /// Per agent: interned local state → points with that local state.
    by_local: Vec<HashMap<Sym, PointSet>>,
    /// A cached empty set (returned by reference on cache misses).
    empty: PointSet,
    /// Per tree: the set of that tree's points.
    tree_sets: Vec<PointSet>,
    /// Per tree: the run probabilities, indexed by run and shared with
    /// every sample space over the tree.
    run_probs: Vec<Arc<[Rat]>>,
    /// Per tree: cumulative run probabilities (`cum[i] = Σ_{j ≤ i} prob`),
    /// binary-searched by [`System::run_at_cumulative`].
    cum_probs: Vec<Vec<Rat>>,
    synchronous: bool,
}

impl System {
    /// The agent names, in id order.
    #[must_use]
    pub fn agents(&self) -> &[String] {
        &self.agents
    }

    /// The number of agents.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// Resolves an agent name to its id.
    #[must_use]
    pub fn agent_id(&self, name: &str) -> Option<AgentId> {
        self.agents.iter().position(|a| a == name).map(AgentId)
    }

    /// The name of an agent.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn agent_name(&self, agent: AgentId) -> &str {
        &self.agents[agent.0]
    }

    /// The number of computation trees (type-1 adversaries).
    #[must_use]
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// The tree with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn tree(&self, id: TreeId) -> &Tree {
        &self.trees[id.0]
    }

    /// All tree ids.
    pub fn tree_ids(&self) -> impl Iterator<Item = TreeId> {
        (0..self.trees.len()).map(TreeId)
    }

    /// Resolves an adversary (tree) name to its id.
    #[must_use]
    pub fn tree_id(&self, name: &str) -> Option<TreeId> {
        self.trees.iter().position(|t| t.name() == name).map(TreeId)
    }

    /// The common final time index of every run in every tree.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The total number of points `(tree, run, time)` in the system.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.trees
            .iter()
            .map(|t| t.runs().len() * (t.horizon() + 1))
            .sum()
    }

    /// Iterates over every point of the system in `(tree, run, time)` order.
    pub fn points(&self) -> impl Iterator<Item = PointId> + '_ {
        self.tree_ids().flat_map(move |tree| {
            let t = self.tree(tree);
            let horizon = t.horizon();
            (0..t.runs().len())
                .flat_map(move |run| (0..=horizon).map(move |time| PointId { tree, run, time }))
        })
    }

    /// Iterates over the points of one tree.
    pub fn tree_points(&self, tree: TreeId) -> impl Iterator<Item = PointId> + '_ {
        let t = self.tree(tree);
        let horizon = t.horizon();
        (0..t.runs().len())
            .flat_map(move |run| (0..=horizon).map(move |time| PointId { tree, run, time }))
    }

    /// Iterates over the time-`k` points of one tree (the sample `All_ic`
    /// of the prior assignment).
    pub fn points_at_time(&self, tree: TreeId, k: usize) -> impl Iterator<Item = PointId> + '_ {
        let t = self.tree(tree);
        (0..t.runs().len()).map(move |run| PointId { tree, run, time: k })
    }

    /// The node (global state) at a point.
    ///
    /// # Panics
    ///
    /// Panics if the point is out of range.
    #[must_use]
    pub fn node_id_of(&self, p: PointId) -> NodeId {
        self.trees[p.tree.0].runs()[p.run].node_at(p.time)
    }

    /// The node data at a point.
    ///
    /// # Panics
    ///
    /// Panics if the point is out of range.
    #[must_use]
    pub fn node_of(&self, p: PointId) -> &Node {
        self.tree(p.tree).node(self.node_id_of(p))
    }

    /// Agent `i`'s interned local state at a point.
    #[must_use]
    pub fn local(&self, agent: AgentId, p: PointId) -> Sym {
        self.node_of(p).locals()[agent.0]
    }

    /// Agent `i`'s local-state string at a point.
    #[must_use]
    pub fn local_name(&self, agent: AgentId, p: PointId) -> &str {
        self.strings.name(self.local(agent, p).0)
    }

    /// The string for an interned local-state symbol.
    #[must_use]
    pub fn sym_name(&self, sym: Sym) -> &str {
        self.strings.name(sym.0)
    }

    /// The distinct local states agent `i` takes anywhere in the system.
    #[must_use]
    pub fn local_states(&self, agent: AgentId) -> Vec<Sym> {
        let mut syms: Vec<Sym> = self.by_local[agent.0].keys().copied().collect();
        syms.sort_unstable();
        syms
    }

    /// The knowledge set `K_i(c)`: every point of the system (across all
    /// trees) that agent `i` cannot distinguish from `c`. Contains `c`.
    #[must_use]
    pub fn indistinguishable(&self, agent: AgentId, c: PointId) -> &PointSet {
        &self.by_local[agent.0][&self.local(agent, c)]
    }

    /// The points with a given local state for an agent (empty if none).
    #[must_use]
    pub fn points_with_local(&self, agent: AgentId, sym: Sym) -> &PointSet {
        self.by_local[agent.0].get(&sym).unwrap_or(&self.empty)
    }

    /// Iterates over agent `i`'s local-state classes in symbol order:
    /// each distinct local state together with its set of points. This
    /// is the partition knowledge queries sweep, precomputed once.
    pub fn local_classes(&self, agent: AgentId) -> impl Iterator<Item = (Sym, &PointSet)> + '_ {
        self.local_states(agent)
            .into_iter()
            .map(move |s| (s, &self.by_local[agent.0][&s]))
    }

    /// All points sharing `c`'s global state: the sample `Pref_ic` of the
    /// future assignment (one point per run through the node, at `c`'s
    /// time).
    #[must_use]
    pub fn same_state(&self, c: PointId) -> PointSet {
        let node = self.node_id_of(c);
        self.point_set(
            self.tree(c.tree)
                .runs_through_node(node)
                .iter()
                .map(|&run| PointId {
                    tree: c.tree,
                    run,
                    time: c.time,
                }),
        )
    }

    /// The shared dense layout of this system's point universe.
    #[must_use]
    pub fn point_index(&self) -> &Arc<PointIndex> {
        &self.point_index
    }

    /// An empty [`PointSet`] over this system's points.
    #[must_use]
    pub fn empty_points(&self) -> PointSet {
        PointSet::empty(Arc::clone(&self.point_index))
    }

    /// The set of *all* points of this system.
    #[must_use]
    pub fn full_points(&self) -> PointSet {
        PointSet::full(Arc::clone(&self.point_index))
    }

    /// Collects points into a [`PointSet`] over this system.
    ///
    /// # Panics
    ///
    /// Panics if a point does not belong to this system.
    #[must_use]
    pub fn point_set(&self, points: impl IntoIterator<Item = PointId>) -> PointSet {
        PointSet::from_points(Arc::clone(&self.point_index), points)
    }

    /// The set of one tree's points (cached).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn tree_set(&self, tree: TreeId) -> &PointSet {
        &self.tree_sets[tree.0]
    }

    /// The set of time-`k` points of one tree (the sample `All_ic` of
    /// the prior assignment; a horizontal slice of the tree).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or `k` exceeds the horizon.
    #[must_use]
    pub fn time_slice(&self, tree: TreeId, k: usize) -> PointSet {
        self.point_set(self.points_at_time(tree, k))
    }

    /// The probability of a run within its tree's distribution.
    #[must_use]
    pub fn run_prob(&self, run: RunId) -> Rat {
        self.tree(run.tree).runs()[run.index].prob()
    }

    /// The probabilities of one tree's runs, indexed by run: one shared
    /// table, so a sample space can weigh its runs without holding the
    /// system.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn run_probs(&self, tree: TreeId) -> &Arc<[Rat]> {
        &self.run_probs[tree.0]
    }

    /// The set of runs passing through a set of points (`R(S)` in §5).
    #[must_use]
    pub fn runs_through(&self, points: impl IntoIterator<Item = PointId>) -> BTreeSet<RunId> {
        points.into_iter().map(PointId::run_id).collect()
    }

    /// Whether the system is synchronous: `rᵢ(k) = rᵢ(k′)` implies
    /// `k = k′` (Section 6, citing HV89) — equivalently, every agent's
    /// local state determines the time.
    #[must_use]
    pub fn is_synchronous(&self) -> bool {
        self.synchronous
    }

    /// The run of `tree` selected by the cumulative weight `x`: the
    /// first run whose cumulative probability exceeds `x`. Feeding in
    /// uniformly distributed `x ∈ [0, 1)` samples runs from the tree's
    /// exact distribution — the randomness source stays with the
    /// caller, so simulations are reproducible and this crate stays
    /// dependency-free.
    ///
    /// This is the inner loop of Monte-Carlo run sampling, so it is
    /// O(log n): a binary search over per-tree cumulative-probability
    /// prefix sums computed once at build time.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in `[0, 1)` or the tree id is out of range.
    #[must_use]
    pub fn run_at_cumulative(&self, tree: TreeId, x: Rat) -> RunId {
        assert!(
            !x.is_negative() && x < Rat::ONE,
            "cumulative weight {x} is not in [0, 1)"
        );
        let cum = &self.cum_probs[tree.0];
        // First index whose cumulative probability exceeds x; the clamp
        // is only reachable through rounding at the very top.
        let index = cum.partition_point(|&c| c <= x).min(cum.len() - 1);
        RunId { tree, index }
    }

    /// Resolves a proposition name.
    #[must_use]
    pub fn prop_id(&self, name: &str) -> Option<PropId> {
        self.props.get(name).map(PropId)
    }

    /// The name of a proposition.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn prop_name(&self, prop: PropId) -> &str {
        self.props.name(prop.0)
    }

    /// All proposition names known to the system.
    #[must_use]
    pub fn prop_names(&self) -> Vec<&str> {
        (0..self.props.len())
            .map(|i| self.props.name(i as u32))
            .collect()
    }

    /// Whether the proposition holds at the point's global state.
    #[must_use]
    pub fn holds(&self, prop: PropId, p: PointId) -> bool {
        self.node_of(p).props().contains(&prop)
    }

    /// Every point whose global state satisfies the proposition, built
    /// from the labeled nodes: a node carrying it contributes the point
    /// at its depth on each run through it. Stutter nodes carry their
    /// own depth, so every point is that pair for exactly one node.
    #[must_use]
    pub fn points_satisfying(&self, prop: PropId) -> PointSet {
        let mut set = self.empty_points();
        for (t, tree) in self.trees.iter().enumerate() {
            for (node, runs) in tree.nodes.iter().zip(&tree.node_runs) {
                if node.props.contains(&prop) {
                    set.extend(runs.iter().map(|&run| PointId {
                        tree: TreeId(t),
                        run,
                        time: node.depth,
                    }));
                }
            }
        }
        set
    }

    /// Adds a new primitive proposition defined by a predicate on global
    /// states, and labels every node with it. Returns the new id.
    ///
    /// Propositions added this way are *facts about the global state*,
    /// which is exactly the "state-generated" condition the paper's
    /// measurability results (Proposition 3) require of the language.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::DuplicateName`] if a proposition with this
    /// name already exists.
    pub fn add_state_prop(
        &mut self,
        name: &str,
        mut pred: impl FnMut(&NodeView<'_>) -> bool,
    ) -> Result<PropId, SystemError> {
        if self.props.get(name).is_some() {
            return Err(SystemError::DuplicateName {
                name: name.to_owned(),
            });
        }
        let prop = PropId(self.props.intern(name));
        for tree in &mut self.trees {
            let tree_name = tree.name.clone();
            for i in 0..tree.nodes.len() {
                let view = {
                    let node = &tree.nodes[i];
                    NodeView {
                        tree: &tree_name,
                        time: node.depth(),
                        locals: node
                            .locals()
                            .iter()
                            .map(|s| self.strings.name(s.0))
                            .collect(),
                        props: node.props().iter().map(|p| self.props.name(p.0)).collect(),
                    }
                };
                if pred(&view) {
                    tree.nodes[i].props.insert(prop);
                }
            }
        }
        Ok(prop)
    }

    /// A [`NodeView`] of the global state at a point, for inspection.
    #[must_use]
    pub fn view(&self, p: PointId) -> NodeView<'_> {
        let node = self.node_of(p);
        NodeView {
            tree: self.tree(p.tree).name(),
            time: node.depth(),
            locals: node
                .locals()
                .iter()
                .map(|s| self.strings.name(s.0))
                .collect(),
            props: node
                .props()
                .iter()
                .map(|pr| self.props.name(pr.0))
                .collect(),
        }
    }
}

/// Incremental, node-at-a-time constructor for a [`System`].
///
/// Use [`ProtocolBuilder`](crate::ProtocolBuilder) for round-structured
/// protocols; this builder is the low-level escape hatch for irregular
/// trees. Terminal method: [`SystemBuilder::build`].
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    agents: Vec<String>,
    strings: Interner,
    props: Interner,
    trees: Vec<Tree>,
}

impl SystemBuilder {
    /// Starts a builder for a system with the given agents.
    pub fn new<S: Into<String>>(agents: impl IntoIterator<Item = S>) -> SystemBuilder {
        SystemBuilder {
            agents: agents.into_iter().map(Into::into).collect(),
            strings: Interner::default(),
            props: Interner::default(),
            trees: Vec::new(),
        }
    }

    /// Adds an empty computation tree for the named type-1 adversary.
    pub fn add_tree(&mut self, name: &str) -> TreeId {
        self.trees.push(Tree {
            name: name.to_owned(),
            nodes: Vec::new(),
            runs: Vec::new(),
            node_runs: Vec::new(),
            horizon: 0,
        });
        TreeId(self.trees.len() - 1)
    }

    fn make_node(
        &mut self,
        locals: &[&str],
        props: &[&str],
        parent: Option<NodeId>,
        depth: usize,
    ) -> Result<Node, SystemError> {
        if locals.len() != self.agents.len() {
            return Err(SystemError::WrongAgentCount {
                expected: self.agents.len(),
                actual: locals.len(),
            });
        }
        Ok(Node {
            locals: locals.iter().map(|l| Sym(self.strings.intern(l))).collect(),
            props: props.iter().map(|p| PropId(self.props.intern(p))).collect(),
            children: Vec::new(),
            parent,
            depth,
        })
    }

    /// Adds the root node of a tree, with one local state per agent and
    /// the propositions holding at the initial global state.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::DanglingReference`] for an unknown tree or
    /// if the tree already has a root, and
    /// [`SystemError::WrongAgentCount`] if `locals` has the wrong length.
    pub fn add_root(
        &mut self,
        tree: TreeId,
        locals: &[&str],
        props: &[&str],
    ) -> Result<NodeId, SystemError> {
        if tree.0 >= self.trees.len() || !self.trees[tree.0].nodes.is_empty() {
            return Err(SystemError::DanglingReference);
        }
        let node = self.make_node(locals, props, None, 0)?;
        self.trees[tree.0].nodes.push(node);
        Ok(NodeId(0))
    }

    /// Adds a child node reached from `parent` with transition
    /// probability `prob`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::DanglingReference`] for an unknown tree or
    /// parent, [`SystemError::NonPositiveEdge`] if `prob <= 0`, and
    /// [`SystemError::WrongAgentCount`] if `locals` has the wrong length.
    pub fn add_child(
        &mut self,
        tree: TreeId,
        parent: NodeId,
        prob: Rat,
        locals: &[&str],
        props: &[&str],
    ) -> Result<NodeId, SystemError> {
        let t = self
            .trees
            .get(tree.0)
            .ok_or(SystemError::DanglingReference)?;
        let parent_depth = t
            .nodes
            .get(parent.0 as usize)
            .ok_or(SystemError::DanglingReference)?
            .depth();
        if !prob.is_positive() {
            return Err(SystemError::NonPositiveEdge {
                tree: t.name().to_owned(),
                node: parent.0 as usize,
                prob,
            });
        }
        let node = self.make_node(locals, props, Some(parent), parent_depth + 1)?;
        let t = &mut self.trees[tree.0];
        let id = NodeId(t.nodes.len() as u32);
        t.nodes.push(node);
        t.nodes[parent.0 as usize].children.push((id, prob));
        Ok(id)
    }

    /// Validates the structure, pads shallow leaves with stuttering
    /// steps so every run has the same (maximal) length, enumerates runs,
    /// and produces the finished [`System`].
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::NoAgents`] / [`SystemError::NoTrees`] for
    /// empty rosters, [`SystemError::DuplicateName`] for repeated agent
    /// or adversary names, [`SystemError::DanglingReference`] for a tree
    /// with no root, [`SystemError::BadTransitions`] if some node's
    /// outgoing probabilities do not sum to one, and
    /// [`SystemError::ProbabilityOverflow`] if some run's probability
    /// does not fit an exact `i128` rational.
    pub fn build(mut self) -> Result<System, SystemError> {
        kpa_trace::count!("system.builds");
        let _build_timer = kpa_trace::span!("system.build_ns");
        if self.agents.is_empty() {
            return Err(SystemError::NoAgents);
        }
        if self.trees.is_empty() {
            return Err(SystemError::NoTrees);
        }
        for (i, a) in self.agents.iter().enumerate() {
            if self.agents[..i].contains(a) {
                return Err(SystemError::DuplicateName { name: a.clone() });
            }
        }
        for (i, t) in self.trees.iter().enumerate() {
            if t.nodes.is_empty() {
                return Err(SystemError::DanglingReference);
            }
            if self.trees[..i].iter().any(|u| u.name() == t.name()) {
                return Err(SystemError::DuplicateName {
                    name: t.name().to_owned(),
                });
            }
            for (n, node) in t.nodes.iter().enumerate() {
                if !node.children.is_empty() {
                    let sum: Rat = node.children.iter().map(|(_, p)| *p).sum();
                    if !sum.is_one() {
                        return Err(SystemError::BadTransitions {
                            tree: t.name().to_owned(),
                            node: n,
                            sum,
                        });
                    }
                }
            }
        }

        // Pad every leaf up to the global maximum depth with stutter
        // steps (identical locals and props, probability-one edges), so
        // all runs share one horizon.
        let horizon = self
            .trees
            .iter()
            .flat_map(|t| t.nodes.iter().filter(|n| n.is_leaf()).map(Node::depth))
            .max()
            .unwrap_or(0);
        for t in &mut self.trees {
            let leaf_ids: Vec<NodeId> = (0..t.nodes.len() as u32)
                .map(NodeId)
                .filter(|id| t.nodes[id.0 as usize].is_leaf())
                .collect();
            for leaf in leaf_ids {
                let mut current = leaf;
                while t.nodes[current.0 as usize].depth() < horizon {
                    let src = &t.nodes[current.0 as usize];
                    let stutter = Node {
                        locals: src.locals.clone(),
                        props: src.props.clone(),
                        children: Vec::new(),
                        parent: Some(current),
                        depth: src.depth + 1,
                    };
                    let id = NodeId(t.nodes.len() as u32);
                    t.nodes.push(stutter);
                    t.nodes[current.0 as usize].children.push((id, Rat::ONE));
                    current = id;
                }
            }
            t.seal()?;
        }

        let point_index = Arc::new(PointIndex::new(
            self.trees.iter().map(|t| t.runs().len()).collect(),
            horizon,
        ));
        let empty = PointSet::empty(Arc::clone(&point_index));
        let tree_sets = (0..self.trees.len())
            .map(|t| {
                let mut set = PointSet::empty(Arc::clone(&point_index));
                for i in point_index.tree_range(TreeId(t)) {
                    set.insert(point_index.point_at(i));
                }
                set
            })
            .collect();
        let run_probs = self
            .trees
            .iter()
            .map(|t| t.runs().iter().map(|r| r.prob()).collect())
            .collect();
        let cum_probs = self
            .trees
            .iter()
            .map(|t| {
                let mut acc = Rat::ZERO;
                t.runs()
                    .iter()
                    .map(|r| {
                        acc += r.prob();
                        acc
                    })
                    .collect()
            })
            .collect();
        let mut sys = System {
            agents: self.agents,
            trees: self.trees,
            strings: self.strings,
            props: self.props,
            horizon,
            point_index,
            by_local: Vec::new(),
            empty,
            tree_sets,
            run_probs,
            cum_probs,
            synchronous: false,
        };
        sys.by_local = (0..sys.agents.len())
            .map(|a| {
                let mut map: HashMap<Sym, PointSet> = HashMap::new();
                for p in sys.points().collect::<Vec<_>>() {
                    map.entry(sys.local(AgentId(a), p))
                        .or_insert_with(|| sys.empty_points())
                        .insert(p);
                }
                map
            })
            .collect();
        sys.synchronous = (0..sys.agents.len()).all(|a| {
            sys.by_local[a].values().all(|points| {
                let mut times = points.iter().map(|p| p.time);
                let first = times.next().expect("nonempty class");
                times.all(|t| t == first)
            })
        });
        Ok(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpa_measure::rat;

    /// The Vardi system of §3: p1 has an input bit; on 0 it tosses a fair
    /// coin, on 1 a 2/3-biased coin. p1 sees everything, p2 nothing.
    fn vardi() -> System {
        let mut b = SystemBuilder::new(["p1", "p2"]);
        for (name, heads) in [("bit=0", rat!(1 / 2)), ("bit=1", rat!(2 / 3))] {
            let t = b.add_tree(name);
            let root = b.add_root(t, &[name, ""], &[]).unwrap();
            b.add_child(t, root, heads, &[&format!("{name};h"), ""], &["heads"])
                .unwrap();
            b.add_child(t, root, Rat::ONE - heads, &[&format!("{name};t"), ""], &[])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn vardi_structure() {
        let sys = vardi();
        assert_eq!(sys.agent_count(), 2);
        assert_eq!(sys.tree_count(), 2);
        assert_eq!(sys.horizon(), 1);
        assert_eq!(sys.point_count(), 8); // 2 trees × 2 runs × 2 times
        let t0 = sys.tree(TreeId(0));
        assert_eq!(t0.runs().len(), 2);
        assert_eq!(t0.runs()[0].prob() + t0.runs()[1].prob(), Rat::ONE);
        let t1 = sys.tree(TreeId(1));
        assert_eq!(t1.runs()[0].prob(), rat!(2 / 3));
    }

    #[test]
    fn agent_and_tree_resolution() {
        let sys = vardi();
        assert_eq!(sys.agent_id("p2"), Some(AgentId(1)));
        assert_eq!(sys.agent_id("nope"), None);
        assert_eq!(sys.agent_name(AgentId(0)), "p1");
        assert_eq!(sys.tree_id("bit=1"), Some(TreeId(1)));
        assert_eq!(sys.tree_id("bit=2"), None);
    }

    #[test]
    fn knowledge_sets() {
        let sys = vardi();
        let p1 = AgentId(0);
        let p2 = AgentId(1);
        // p2 never observes anything, so it considers all 8 points possible.
        let c = PointId {
            tree: TreeId(0),
            run: 0,
            time: 1,
        };
        assert_eq!(sys.indistinguishable(p2, c).len(), 8);
        // p1 at time 1 in tree 0 after heads: only that exact point.
        let k1 = sys.indistinguishable(p1, c);
        assert_eq!(k1.iter().collect::<Vec<_>>(), vec![c]);
        assert!(sys.local_name(p1, c).contains(";h"));
        // The class partition is exactly what local_classes exposes.
        let total: usize = sys.local_classes(p1).map(|(_, class)| class.len()).sum();
        assert_eq!(total, sys.point_count());
    }

    #[test]
    fn same_state_gathers_runs_through_node() {
        let sys = vardi();
        // Time-0 points of tree 0 share the root global state.
        let c = PointId {
            tree: TreeId(0),
            run: 0,
            time: 0,
        };
        let same = sys.same_state(c);
        assert_eq!(same.len(), 2);
        assert!(same.iter().all(|p| p.time == 0 && p.tree == TreeId(0)));
        // Time-1 points are all distinct states.
        let d = PointId {
            tree: TreeId(0),
            run: 0,
            time: 1,
        };
        assert_eq!(sys.same_state(d), sys.point_set([d]));
    }

    #[test]
    fn props_label_states() {
        let sys = vardi();
        let heads = sys.prop_id("heads").unwrap();
        let sat = sys.points_satisfying(heads);
        // One heads point per tree (time 1, run 0).
        assert_eq!(sat.len(), 2);
        assert!(sat.iter().all(|p| p.time == 1 && p.run == 0));
        assert_eq!(sys.prop_name(heads), "heads");
        assert!(sys.prop_names().contains(&"heads"));
    }

    #[test]
    fn add_state_prop_labels_all_trees() {
        let mut sys = vardi();
        let p = sys
            .add_state_prop("p1-saw-tails", |v| v.local_contains(AgentId(0), ";t"))
            .unwrap();
        assert_eq!(sys.points_satisfying(p).len(), 2);
        // Duplicate registration is rejected.
        assert!(sys.add_state_prop("p1-saw-tails", |_| true).is_err());
        // The view reflects the new labeling.
        let point = sys.points_satisfying(p).into_iter().next().unwrap();
        assert!(sys.view(point).has_prop("p1-saw-tails"));
    }

    #[test]
    fn synchrony_detection() {
        // vardi is synchronous: p1's local always determines time, and
        // p2's constant "" appears at both times... it does NOT determine
        // the time, so the system is asynchronous for p2.
        let sys = vardi();
        assert!(!sys.is_synchronous());

        // Give p2 a clock and the system becomes synchronous.
        let mut b = SystemBuilder::new(["p1", "p2"]);
        for (name, heads) in [("bit=0", rat!(1 / 2)), ("bit=1", rat!(2 / 3))] {
            let t = b.add_tree(name);
            let root = b.add_root(t, &[name, "t0"], &[]).unwrap();
            b.add_child(t, root, heads, &[&format!("{name};h"), "t1"], &["heads"])
                .unwrap();
            b.add_child(
                t,
                root,
                Rat::ONE - heads,
                &[&format!("{name};t"), "t1"],
                &[],
            )
            .unwrap();
        }
        assert!(b.build().unwrap().is_synchronous());
    }

    #[test]
    fn builder_validates_probabilities() {
        let mut b = SystemBuilder::new(["p1"]);
        let t = b.add_tree("a");
        let root = b.add_root(t, &["x"], &[]).unwrap();
        b.add_child(t, root, rat!(1 / 2), &["y"], &[]).unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, SystemError::BadTransitions { sum, .. } if sum == rat!(1/2)));
    }

    #[test]
    fn builder_rejects_bad_inputs() {
        let mut b = SystemBuilder::new(["p1"]);
        let t = b.add_tree("a");
        assert!(matches!(
            b.add_root(t, &["x", "y"], &[]),
            Err(SystemError::WrongAgentCount {
                expected: 1,
                actual: 2
            })
        ));
        let root = b.add_root(t, &["x"], &[]).unwrap();
        assert!(b.add_root(t, &["x"], &[]).is_err());
        assert!(matches!(
            b.add_child(t, root, Rat::ZERO, &["y"], &[]),
            Err(SystemError::NonPositiveEdge { .. })
        ));
        assert!(b.add_child(TreeId(9), root, Rat::ONE, &["y"], &[]).is_err());
        assert!(b.add_child(t, NodeId(9), Rat::ONE, &["y"], &[]).is_err());

        assert!(matches!(
            SystemBuilder::new(Vec::<String>::new()).build(),
            Err(SystemError::NoAgents)
        ));
        assert!(matches!(
            SystemBuilder::new(["p1"]).build(),
            Err(SystemError::NoTrees)
        ));
        let mut dup = SystemBuilder::new(["p1", "p1"]);
        let t = dup.add_tree("a");
        dup.add_root(t, &["x", "x"], &[]).unwrap();
        assert!(matches!(
            dup.build(),
            Err(SystemError::DuplicateName { .. })
        ));
    }

    #[test]
    fn uneven_leaves_are_stutter_padded() {
        let mut b = SystemBuilder::new(["p1"]);
        let t = b.add_tree("a");
        let root = b.add_root(t, &["s"], &["start"]).unwrap();
        // One branch stops at depth 1, the other continues to depth 2.
        b.add_child(t, root, rat!(1 / 2), &["short"], &["done"])
            .unwrap();
        let long = b.add_child(t, root, rat!(1 / 2), &["long"], &[]).unwrap();
        b.add_child(t, long, Rat::ONE, &["long2"], &["done"])
            .unwrap();
        let sys = b.build().unwrap();
        assert_eq!(sys.horizon(), 2);
        let tree = sys.tree(TreeId(0));
        assert_eq!(tree.runs().len(), 2);
        for run in tree.runs() {
            assert_eq!(run.nodes().len(), 3);
        }
        // The padded point repeats the "short" local state and props.
        let padded = PointId {
            tree: TreeId(0),
            run: 0,
            time: 2,
        };
        let view = sys.view(padded);
        assert_eq!(view.locals[0], "short");
        assert!(view.has_prop("done"));
    }

    #[test]
    fn run_sampling_by_cumulative_weight() {
        let sys = vardi();
        let t1 = TreeId(1); // biased tree: runs 2/3, 1/3
        assert_eq!(sys.run_at_cumulative(t1, Rat::ZERO).index, 0);
        assert_eq!(sys.run_at_cumulative(t1, rat!(1 / 2)).index, 0);
        assert_eq!(sys.run_at_cumulative(t1, rat!(2 / 3)).index, 1);
        assert_eq!(sys.run_at_cumulative(t1, rat!(99 / 100)).index, 1);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1)")]
    fn run_sampling_rejects_out_of_range() {
        let sys = vardi();
        let _ = sys.run_at_cumulative(TreeId(0), Rat::ONE);
    }

    #[test]
    fn runs_through_collects_run_ids() {
        let sys = vardi();
        let pts = [
            PointId {
                tree: TreeId(0),
                run: 0,
                time: 0,
            },
            PointId {
                tree: TreeId(0),
                run: 0,
                time: 1,
            },
            PointId {
                tree: TreeId(1),
                run: 1,
                time: 0,
            },
        ];
        let runs = sys.runs_through(pts);
        assert_eq!(runs.len(), 2);
        assert_eq!(
            sys.run_prob(RunId {
                tree: TreeId(1),
                index: 1
            }),
            rat!(1 / 3)
        );
    }
}
