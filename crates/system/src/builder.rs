//! Round-structured protocol builder.
//!
//! [`ProtocolBuilder`] scripts a protocol as a sequence of *rounds*, each
//! of which advances every run of every computation tree by one time
//! step. Nondeterministic choices (the paper's type-1 adversaries) become
//! one computation tree per choice; probabilistic choices (coin tosses,
//! message losses) become probability-labeled branching; observations
//! append to agents' local states, which are their complete observation
//! histories.
//!
//! Agents are *clocked* by default — their local state additionally
//! records the round number, which makes the resulting system
//! synchronous. Calling [`ProtocolBuilder::clockless`] builds
//! asynchronous agents like `p1` of the paper's Section 7, whose local
//! state never changes unless the agent observes something.
//!
//! # Examples
//!
//! The three-agent coin toss from the paper's introduction: `p3` tosses
//! a fair coin at time 0 and observes the outcome; `p1` and `p2` never
//! learn it.
//!
//! ```
//! use kpa_measure::rat;
//! use kpa_system::ProtocolBuilder;
//!
//! let sys = ProtocolBuilder::new(["p1", "p2", "p3"])
//!     .coin("coin", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["p3"])
//!     .build()?;
//! assert!(sys.is_synchronous());
//! assert_eq!(sys.tree_count(), 1);
//! let heads = sys.prop_id("coin=h").unwrap();
//! assert_eq!(sys.points_satisfying(heads).len(), 1);
//! # Ok::<(), kpa_system::SystemError>(())
//! ```

use crate::error::SystemError;
use crate::ids::AgentId;
use crate::system::{System, SystemBuilder};
use kpa_measure::Rat;
use std::collections::BTreeSet;

/// A read-only view of one frontier global state during a protocol step.
#[derive(Debug)]
pub struct StepView<'a> {
    /// The name of the type-1 adversary whose tree is being extended.
    pub adversary: &'a str,
    /// The current time (the new nodes will be at `time + 1`).
    pub time: usize,
    agents: &'a [String],
    locals: &'a [String],
    props: &'a BTreeSet<String>,
}

impl StepView<'_> {
    /// The named agent's local-state string (its observation history).
    ///
    /// # Panics
    ///
    /// Panics if the agent name is unknown.
    #[must_use]
    pub fn local(&self, agent: &str) -> &str {
        let i = self
            .agents
            .iter()
            .position(|a| a == agent)
            .unwrap_or_else(|| panic!("unknown agent {agent:?}"));
        &self.locals[i]
    }

    /// The local-state string of an agent by id.
    #[must_use]
    pub fn local_by_id(&self, agent: AgentId) -> &str {
        &self.locals[agent.0]
    }

    /// Whether the named agent has observed `needle` (substring test on
    /// the observation history).
    #[must_use]
    pub fn observed(&self, agent: &str, needle: &str) -> bool {
        self.local(agent).contains(needle)
    }

    /// Whether the (sticky) proposition holds at this state.
    #[must_use]
    pub fn has_prop(&self, name: &str) -> bool {
        self.props.contains(name)
    }

    /// Iterates over the sticky propositions holding at this state.
    pub fn props(&self) -> impl Iterator<Item = &str> {
        self.props.iter().map(String::as_str)
    }
}

/// One probabilistic branch of a protocol step.
///
/// Build with [`Branch::new`], then chain observations and propositions.
#[derive(Debug, Clone)]
pub struct Branch {
    prob: Rat,
    observations: Vec<(String, String)>,
    sticky: Vec<String>,
    transient: Vec<String>,
}

impl Branch {
    /// A branch taken with the given probability.
    #[must_use]
    pub fn new(prob: Rat) -> Branch {
        Branch {
            prob,
            observations: Vec::new(),
            sticky: Vec::new(),
            transient: Vec::new(),
        }
    }

    /// Appends `obs` to the named agent's observation history on this
    /// branch.
    #[must_use]
    pub fn observe(mut self, agent: &str, obs: &str) -> Branch {
        self.observations.push((agent.to_owned(), obs.to_owned()));
        self
    }

    /// Attaches a *sticky* proposition to the new global state: it will
    /// also hold at every later state of the same run (matching facts
    /// like "the coin landed heads", which stay true once true).
    #[must_use]
    pub fn prop(mut self, name: &str) -> Branch {
        self.sticky.push(name.to_owned());
        self
    }

    /// Attaches a *transient* proposition holding only at the new global
    /// state (for facts like "the most recent toss landed heads").
    #[must_use]
    pub fn transient_prop(mut self, name: &str) -> Branch {
        self.transient.push(name.to_owned());
        self
    }
}

#[derive(Debug, Clone)]
struct PNode {
    locals: Vec<String>,
    sticky: BTreeSet<String>,
    transient: BTreeSet<String>,
    parent: Option<usize>,
    prob: Rat,
    depth: usize,
}

#[derive(Debug, Clone)]
struct ProtoTree {
    name: String,
    nodes: Vec<PNode>,
    frontier: Vec<usize>,
}

/// Builds a [`System`] as a round-structured protocol. See the
/// module documentation for the model and an example.
///
/// All step methods take `self` and return `Self` for chaining; the
/// terminal method is [`ProtocolBuilder::build`]. Configuration errors
/// that indicate programmer mistakes (unknown agent names, branch
/// probabilities not summing to one) panic with descriptive messages;
/// structural validation happens in `build`.
#[derive(Debug, Clone)]
pub struct ProtocolBuilder {
    agents: Vec<String>,
    clocked: Vec<bool>,
    trees: Vec<ProtoTree>,
    time: usize,
}

impl ProtocolBuilder {
    /// Starts a protocol for the given agents, with a single computation
    /// tree named `"main"` (replace it with [`ProtocolBuilder::adversaries`])
    /// and every agent clocked.
    pub fn new<S: Into<String>>(agents: impl IntoIterator<Item = S>) -> ProtocolBuilder {
        let agents: Vec<String> = agents.into_iter().map(Into::into).collect();
        let n = agents.len();
        let mut b = ProtocolBuilder {
            agents,
            clocked: vec![true; n],
            trees: Vec::new(),
            time: 0,
        };
        b.trees = vec![b.fresh_tree("main", &[])];
        b
    }

    fn fresh_tree(&self, name: &str, observers: &[usize]) -> ProtoTree {
        let locals = (0..self.agents.len())
            .map(|i| {
                if observers.contains(&i) {
                    format!("adv={name}")
                } else {
                    String::new()
                }
            })
            .collect();
        ProtoTree {
            name: name.to_owned(),
            nodes: vec![PNode {
                locals,
                sticky: BTreeSet::new(),
                transient: BTreeSet::new(),
                parent: None,
                prob: Rat::ONE,
                depth: 0,
            }],
            frontier: vec![0],
        }
    }

    fn agent_index(&self, name: &str) -> usize {
        self.agents
            .iter()
            .position(|a| a == name)
            .unwrap_or_else(|| panic!("unknown agent {name:?}"))
    }

    /// Marks an agent as clockless: its local state records only its
    /// observations, not the passage of rounds. Clockless agents make
    /// the system asynchronous (Section 7 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the agent name is unknown.
    #[must_use]
    pub fn clockless(mut self, agent: &str) -> ProtocolBuilder {
        let i = self.agent_index(agent);
        self.clocked[i] = false;
        self
    }

    /// Replaces the single default tree by one tree per named type-1
    /// adversary (e.g. one per possible input). No agent observes which
    /// adversary was chosen; use [`ProtocolBuilder::adversaries_seen_by`]
    /// to let some agents see it.
    ///
    /// # Panics
    ///
    /// Panics if called after the first step or with no names.
    #[must_use]
    pub fn adversaries(self, names: &[&str]) -> ProtocolBuilder {
        self.adversaries_seen_by(names, &[])
    }

    /// Like [`ProtocolBuilder::adversaries`], but each agent in
    /// `observers` starts with `adv=<name>` in its local state — it knows
    /// which nondeterministic choice was made (like `p1` knowing its
    /// input bit in the Vardi example of §3).
    ///
    /// # Panics
    ///
    /// Panics if called after the first step, with no names, or with an
    /// unknown observer.
    #[must_use]
    pub fn adversaries_seen_by(mut self, names: &[&str], observers: &[&str]) -> ProtocolBuilder {
        assert!(
            self.time == 0,
            "adversaries must be declared before the first step"
        );
        assert!(!names.is_empty(), "at least one adversary is required");
        let obs: Vec<usize> = observers.iter().map(|o| self.agent_index(o)).collect();
        self.trees = names.iter().map(|n| self.fresh_tree(n, &obs)).collect();
        self
    }

    /// The fully general step: advances every tree by one round. For
    /// each frontier global state, `branches` returns the probabilistic
    /// branches (probabilities must sum to one).
    ///
    /// # Panics
    ///
    /// Panics if some invocation returns no branches, a non-positive
    /// probability, probabilities not summing to one, or an unknown
    /// agent name in an observation.
    #[must_use]
    pub fn step(
        mut self,
        label: &str,
        mut branches: impl FnMut(&StepView<'_>) -> Vec<Branch>,
    ) -> ProtocolBuilder {
        let _step_timer = kpa_trace::span!("system.protocol_step_ns");
        let agents = self.agents.clone();
        let clocked = self.clocked.clone();
        let time = self.time;
        for tree in &mut self.trees {
            let mut next_frontier = Vec::new();
            for &f in &tree.frontier {
                let out = {
                    let node = &tree.nodes[f];
                    let view = StepView {
                        adversary: &tree.name,
                        time,
                        agents: &agents,
                        locals: &node.locals,
                        props: &node.sticky,
                    };
                    branches(&view)
                };
                assert!(!out.is_empty(), "step {label:?} produced no branches");
                let sum: Rat = out.iter().map(|b| b.prob).sum();
                assert!(
                    sum.is_one(),
                    "step {label:?}: branch probabilities sum to {sum}, expected 1"
                );
                for branch in out {
                    assert!(
                        branch.prob.is_positive(),
                        "step {label:?}: non-positive branch probability {}",
                        branch.prob
                    );
                    let parent = &tree.nodes[f];
                    let mut locals = parent.locals.clone();
                    for (agent, obs) in &branch.observations {
                        let i = agents
                            .iter()
                            .position(|a| a == agent)
                            .unwrap_or_else(|| panic!("unknown agent {agent:?}"));
                        locals[i].push(';');
                        locals[i].push_str(obs);
                    }
                    for (i, local) in locals.iter_mut().enumerate() {
                        if clocked[i] {
                            local.push_str(&format!("#{}", time + 1));
                        }
                    }
                    let mut sticky = parent.sticky.clone();
                    sticky.extend(branch.sticky.iter().cloned());
                    let transient = branch.transient.iter().cloned().collect();
                    let depth = parent.depth + 1;
                    tree.nodes.push(PNode {
                        locals,
                        sticky,
                        transient,
                        parent: Some(f),
                        prob: branch.prob,
                        depth,
                    });
                    next_frontier.push(tree.nodes.len() - 1);
                }
            }
            tree.frontier = next_frontier;
        }
        self.time += 1;
        self
    }

    /// A coin-toss round: branches over `outcomes` (label, probability);
    /// each agent in `observers` observes `name=<label>`, and the sticky
    /// proposition `name=<label>` plus the transient proposition
    /// `recent:name=<label>` are attached.
    ///
    /// # Panics
    ///
    /// As for [`ProtocolBuilder::step`].
    #[must_use]
    pub fn coin(self, name: &str, outcomes: &[(&str, Rat)], observers: &[&str]) -> ProtocolBuilder {
        let outcomes: Vec<(String, Rat)> = outcomes
            .iter()
            .map(|(l, p)| ((*l).to_owned(), *p))
            .collect();
        let observers: Vec<String> = observers.iter().map(|s| (*s).to_owned()).collect();
        let name = name.to_owned();
        self.step(&name.clone(), move |_| {
            outcomes
                .iter()
                .map(|(label, p)| {
                    let mut b = Branch::new(*p)
                        .prop(&format!("{name}={label}"))
                        .transient_prop(&format!("recent:{name}={label}"));
                    for o in &observers {
                        b = b.observe(o, &format!("{name}={label}"));
                    }
                    b
                })
                .collect()
        })
    }

    /// A yes/no chance round: `yes` with probability `p`, observed by
    /// `observers` as `name=yes` / `name=no`; sticky propositions
    /// `name=yes` / `name=no` are attached.
    ///
    /// # Panics
    ///
    /// As for [`ProtocolBuilder::step`].
    #[must_use]
    pub fn bernoulli(self, name: &str, p: Rat, observers: &[&str]) -> ProtocolBuilder {
        self.coin(name, &[("yes", p), ("no", Rat::ONE - p)], observers)
    }

    /// A deterministic round: a single probability-one branch per
    /// frontier state, computed from the state.
    ///
    /// # Panics
    ///
    /// As for [`ProtocolBuilder::step`] (the returned branch's
    /// probability is forced to one).
    #[must_use]
    pub fn deterministic(
        self,
        label: &str,
        mut f: impl FnMut(&StepView<'_>) -> Branch,
    ) -> ProtocolBuilder {
        self.step(label, move |view| {
            let mut b = f(view);
            b.prob = Rat::ONE;
            vec![b]
        })
    }

    /// A round in which nothing happens (time passes).
    ///
    /// # Panics
    ///
    /// As for [`ProtocolBuilder::step`].
    #[must_use]
    pub fn tick(self) -> ProtocolBuilder {
        self.deterministic("tick", |_| Branch::new(Rat::ONE))
    }

    /// Attaches a sticky proposition to every current frontier state
    /// satisfying the predicate, without advancing time.
    #[must_use]
    pub fn mark(mut self, name: &str, mut pred: impl FnMut(&StepView<'_>) -> bool) -> Self {
        let agents = self.agents.clone();
        let time = self.time;
        for tree in &mut self.trees {
            for &f in &tree.frontier.clone() {
                let holds = {
                    let node = &tree.nodes[f];
                    let view = StepView {
                        adversary: &tree.name,
                        time,
                        agents: &agents,
                        locals: &node.locals,
                        props: &node.sticky,
                    };
                    pred(&view)
                };
                if holds {
                    tree.nodes[f].sticky.insert(name.to_owned());
                }
            }
        }
        self
    }

    /// Finishes the protocol and constructs the [`System`].
    ///
    /// # Errors
    ///
    /// Propagates structural validation errors from
    /// [`SystemBuilder::build`].
    pub fn build(self) -> Result<System, SystemError> {
        let mut sb = SystemBuilder::new(self.agents.clone());
        let transfer_timer = kpa_trace::span!("system.node_transfer_ns");
        for proto in &self.trees {
            let tid = sb.add_tree(&proto.name);
            let mut ids = Vec::with_capacity(proto.nodes.len());
            for node in &proto.nodes {
                let locals: Vec<&str> = node.locals.iter().map(String::as_str).collect();
                let props: Vec<&str> = node
                    .sticky
                    .iter()
                    .chain(node.transient.iter())
                    .map(String::as_str)
                    .collect();
                let id = match node.parent {
                    None => sb.add_root(tid, &locals, &props)?,
                    Some(p) => sb.add_child(tid, ids[p], node.prob, &locals, &props)?,
                };
                ids.push(id);
            }
        }
        drop(transfer_timer);
        sb.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PointId, TreeId};
    use kpa_measure::rat;

    #[test]
    fn overflowing_run_probabilities_are_an_error() {
        // 1/(2¹²⁷−25) twice: the run probability's denominator is past
        // i128, so sealing the tree must refuse, not panic.
        let tiny = Rat::new(1, 170_141_183_460_469_231_731_687_303_715_884_105_703);
        let err = ProtocolBuilder::new(["p1", "p2"])
            .coin("c0", &[("h", tiny), ("t", Rat::ONE - tiny)], &["p1"])
            .coin("c1", &[("h", tiny), ("t", Rat::ONE - tiny)], &["p2"])
            .build()
            .expect_err("the run probability overflows");
        let SystemError::ProbabilityOverflow { tree } = &err else {
            panic!("expected ProbabilityOverflow, got {err:?}");
        };
        assert!(err.to_string().contains(tree.as_str()));
        // One round fits: 1/(2¹²⁷−25) is itself representable.
        let sys = ProtocolBuilder::new(["p1", "p2"])
            .coin("c0", &[("h", tiny), ("t", Rat::ONE - tiny)], &["p1"])
            .build()
            .expect("one round builds");
        assert_eq!(sys.tree(TreeId(0)).runs().len(), 2);
    }

    #[test]
    fn single_coin_protocol() {
        let sys = ProtocolBuilder::new(["p1", "p2", "p3"])
            .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["p3"])
            .build()
            .unwrap();
        assert_eq!(sys.tree_count(), 1);
        assert_eq!(sys.horizon(), 1);
        let t = sys.tree(TreeId(0));
        assert_eq!(t.runs().len(), 2);
        // p3 distinguishes the outcomes; p1 does not.
        let p1 = sys.agent_id("p1").unwrap();
        let p3 = sys.agent_id("p3").unwrap();
        let h = PointId {
            tree: TreeId(0),
            run: 0,
            time: 1,
        };
        assert_eq!(sys.indistinguishable(p3, h).len(), 1);
        assert_eq!(sys.indistinguishable(p1, h).len(), 2);
    }

    #[test]
    fn adversaries_create_trees() {
        let sys = ProtocolBuilder::new(["p1", "p2"])
            .adversaries_seen_by(&["bit=0", "bit=1"], &["p1"])
            .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["p1"])
            .build()
            .unwrap();
        assert_eq!(sys.tree_count(), 2);
        let p1 = sys.agent_id("p1").unwrap();
        let p2 = sys.agent_id("p2").unwrap();
        let c = PointId {
            tree: TreeId(0),
            run: 0,
            time: 0,
        };
        // p1 sees the input: its knowledge set stays within one tree.
        assert!(sys
            .indistinguishable(p1, c)
            .iter()
            .all(|p| p.tree == TreeId(0)));
        // p2 does not: it considers points of both trees possible.
        assert!(sys
            .indistinguishable(p2, c)
            .iter()
            .any(|p| p.tree == TreeId(1)));
    }

    #[test]
    fn clockless_agents_are_asynchronous() {
        let sys = ProtocolBuilder::new(["p1", "p2"])
            .clockless("p1")
            .coin("c1", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &[])
            .coin("c2", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &[])
            .build()
            .unwrap();
        assert!(!sys.is_synchronous());
        // p1 considers every point possible (it never observes anything).
        let p1 = sys.agent_id("p1").unwrap();
        let c = PointId {
            tree: TreeId(0),
            run: 0,
            time: 0,
        };
        assert_eq!(sys.indistinguishable(p1, c).len(), sys.point_count());
        // p2 is clocked: it distinguishes times but not outcomes.
        let p2 = sys.agent_id("p2").unwrap();
        assert_eq!(sys.indistinguishable(p2, c).len(), 4);
    }

    #[test]
    fn sticky_and_transient_props() {
        let sys = ProtocolBuilder::new(["p"])
            .coin("c1", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &[])
            .coin("c2", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &[])
            .build()
            .unwrap();
        // Sticky: "c1=h" holds at times 1 and 2 of runs starting heads.
        let c1h = sys.prop_id("c1=h").unwrap();
        let sat = sys.points_satisfying(c1h);
        assert_eq!(sat.len(), 4); // 2 runs × 2 times
                                  // Transient: "recent:c1=h" holds only at time 1.
        let recent = sys.prop_id("recent:c1=h").unwrap();
        let sat = sys.points_satisfying(recent);
        assert!(sat.iter().all(|p| p.time == 1));
        assert_eq!(sat.len(), 2);
    }

    #[test]
    fn deterministic_steps_and_marks() {
        let sys = ProtocolBuilder::new(["a", "b"])
            .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["a"])
            .deterministic("relay", |v| {
                if v.observed("a", "c=h") {
                    Branch::new(Rat::ONE).observe("b", "told=h")
                } else {
                    Branch::new(Rat::ONE)
                }
            })
            .mark("b-knows", |v| v.observed("b", "told=h"))
            .build()
            .unwrap();
        let knows = sys.prop_id("b-knows").unwrap();
        let sat = sys.points_satisfying(knows);
        assert_eq!(sat.len(), 1);
        assert!(sat.iter().all(|p| p.time == 2));
    }

    #[test]
    fn step_view_accessors() {
        let mut seen = false;
        let _ = ProtocolBuilder::new(["x", "y"])
            .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["x"])
            .step("probe", |v| {
                if v.time == 1 {
                    seen = true;
                    assert_eq!(v.adversary, "main");
                    assert_eq!(v.local("x"), v.local_by_id(AgentId(0)));
                    assert!(v.has_prop("c=h") || v.has_prop("c=t"));
                    assert!(v.props().count() >= 1);
                }
                vec![Branch::new(Rat::ONE)]
            })
            .build()
            .unwrap();
        assert!(seen);
    }

    #[test]
    #[should_panic(expected = "branch probabilities sum to")]
    fn bad_branch_probabilities_panic() {
        let _ = ProtocolBuilder::new(["p"]).step("bad", |_| vec![Branch::new(rat!(1 / 2))]);
    }

    #[test]
    #[should_panic(expected = "unknown agent")]
    fn unknown_observer_panics() {
        let _ = ProtocolBuilder::new(["p"]).coin("c", &[("h", Rat::ONE)], &["ghost"]);
    }

    #[test]
    #[should_panic(expected = "before the first step")]
    fn late_adversaries_panic() {
        let _ = ProtocolBuilder::new(["p"]).tick().adversaries(&["a"]);
    }

    #[test]
    fn bernoulli_and_tick() {
        let sys = ProtocolBuilder::new(["p"])
            .bernoulli("lost", rat!(1 / 4), &["p"])
            .tick()
            .build()
            .unwrap();
        assert_eq!(sys.horizon(), 2);
        let lost = sys.prop_id("lost=yes").unwrap();
        let t = TreeId(0);
        let run0 = crate::ids::RunId { tree: t, index: 0 };
        // Branch order: yes first.
        assert_eq!(sys.run_prob(run0), rat!(1 / 4));
        assert_eq!(sys.points_satisfying(lost).len(), 2); // times 1, 2 of run 0
    }
}
