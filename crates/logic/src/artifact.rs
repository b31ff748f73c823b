//! The immutable model artifact and its per-query evaluation contexts.
//!
//! The paper's decision procedures — `K_i φ`, `Pr_i ≥ α φ`, the
//! temporal operators — are pure functions of an immutable system and
//! probability assignment. This module splits the evaluation stack
//! along exactly that line:
//!
//! * [`ModelArtifact`] — the shareable half: an `Arc<System>`, the
//!   sample-space assignment's [`AssignCore`] (space cache +
//!   write-once per-agent plan table), and the two evaluation memos
//!   as [`Memo`]s. The artifact is `Send + Sync` and is meant to be
//!   built **once** and shared as `Arc<ModelArtifact>` across any
//!   number of query threads; each memo's one lock is held for a
//!   single lookup or insert, never while a set is computed.
//! * [`EvalCtx`] — the per-query half: a cheap, single-thread handle
//!   carrying per-context scratch state (currently a query counter).
//!   Each thread mints its own context with [`ModelArtifact::ctx`];
//!   contexts are deliberately `!Sync` so scratch state never needs
//!   atomics.
//!
//! The classic borrowing [`Model`](crate::Model) is now a thin facade
//! over the same evaluator (see [`EvalView`]) with *per-model* memos,
//! kept for single-system scripts and for differential tests that need
//! memo-scoped observability; results are bit-identical by
//! construction, because both run the identical [`EvalView`] code over
//! the identical [`AssignCore`].
//!
//! Races never affect results: memo values are pure functions of their
//! keys, and racing builders insert structurally identical values
//! (first insert wins). The differential suite
//! (`tests/shared_artifact_differential.rs`) hammers one artifact from
//! several threads and asserts word-level bit-equality with a serial
//! facade evaluation.

use crate::compile::{Body, CompiledFormula, FormulaArena, Term, TermId};
use crate::error::LogicError;
use crate::formula::Formula;
use kpa_assign::{AssignCore, Assignment, Memo};
use kpa_measure::Rat;
use kpa_system::{AgentId, PointId, PointSet, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

/// The two evaluation memos, each a [`Memo`]:
///
/// * `cache` — whole formula → satisfaction set, keyed by the
///   uncompiled AST. It serves only the tree walker
///   ([`EvalView::sat`], i.e. [`Model::sat`](crate::Model::sat)); the
///   compiled path never reads or fills it, so an artifact's stays
///   empty;
/// * `terms` — interned [`TermId`] → satisfaction set: **one** unified
///   per-subterm memo for the compiled DAG — every root a caller asked
///   for (a `sat` formula, a threshold family's body), every leaf, and
///   every modal and temporal node — *and* the set-level `K_i ⌜S⌝` /
///   `Pr_i ≥ α ⌜S⌝` queries (quoted as [`Term::Lit`] leaves). A `¬`,
///   `∧` or `∨` below the root is not kept: one word-wise pass over its
///   children's sets re-derives it, and keeping each such full-universe
///   set held most of the memo's bytes. This map replaced the separate
///   `(agent, set)`-keyed knows memo — one map means the structural
///   and set-level caches cannot drift.
///
/// `terms` is optional because the differential suites prove memo
/// invisibility by turning it off; the artifact always enables it.
pub(crate) struct EvalMemos {
    pub(crate) cache: Memo<Formula, Arc<PointSet>>,
    pub(crate) terms: Option<Memo<TermId, Arc<PointSet>>>,
}

impl EvalMemos {
    /// Fresh, empty memos with the per-subterm memo enabled or
    /// disabled. The formula cache is always on (sharing
    /// satisfaction-set `Arc`s is part of the `sat` contract).
    pub(crate) fn new(terms: bool) -> EvalMemos {
        EvalMemos {
            cache: Memo::new(),
            terms: terms.then(Memo::new),
        }
    }
}

impl std::fmt::Debug for EvalMemos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalMemos")
            .field("cache", &self.cache.len())
            .field("terms", &self.terms.as_ref().map(Memo::len))
            .finish()
    }
}

/// One borrowed view over everything a single evaluation needs: the
/// system, the assignment core, the full point set, the memos, and the
/// plan knob. Both [`ModelArtifact`] (via [`EvalCtx`]) and the classic
/// [`Model`](crate::Model) facade evaluate through this one type, so
/// their semantics cannot drift apart.
pub(crate) struct EvalView<'e> {
    pub(crate) sys: &'e System,
    pub(crate) core: &'e AssignCore,
    pub(crate) all: &'e Arc<PointSet>,
    pub(crate) memos: &'e EvalMemos,
    /// The hash-consing arena the compiled path interns into (owned by
    /// the model/artifact, like the memos).
    pub(crate) arena: &'e FormulaArena,
    /// Whether `pr_ge_set` sweeps the batched
    /// [`SamplePlan`](kpa_assign::SamplePlan)'s classes (off only for
    /// differential testing).
    pub(crate) plan: bool,
}

impl EvalView<'_> {
    /// The exact set of points satisfying `f`. See
    /// [`Model::sat`](crate::Model::sat) for the error contract.
    pub(crate) fn sat(&self, f: &Formula) -> Result<Arc<PointSet>, LogicError> {
        if let Some(hit) = self.memos.cache.get(f) {
            kpa_trace::count!("logic.sat_cache_hit");
            return Ok(hit);
        }
        kpa_trace::count!("logic.sat_cache_miss");
        // One evaluated formula node (sub-nodes recurse through `sat`
        // and are counted at their own entry).
        kpa_trace::count!("logic.sat_eval");
        let sys = self.sys;
        let result: Arc<PointSet> = match f {
            Formula::True => Arc::clone(self.all),
            Formula::Prop(name) => {
                let id = sys
                    .prop_id(name)
                    .ok_or_else(|| LogicError::UnknownProp { name: name.clone() })?;
                Arc::new(sys.points_satisfying(id))
            }
            Formula::Not(x) => Arc::new(self.sat(x)?.complement()),
            Formula::And(xs) => {
                let mut acc = (**self.all).clone();
                for x in xs {
                    acc.intersect_with(&*self.sat(x)?);
                }
                Arc::new(acc)
            }
            Formula::Or(xs) => {
                let mut acc = sys.empty_points();
                for x in xs {
                    acc.union_with(&*self.sat(x)?);
                }
                Arc::new(acc)
            }
            Formula::Knows(i, x) => self.knows_set(*i, &self.sat(x)?),
            Formula::PrGe(i, alpha, x) => self.pr_ge_set(*i, *alpha, &self.sat(x)?)?,
            // ◯φ: the points whose time-successor satisfies φ — one
            // word shift in the dense layout.
            Formula::Next(x) => Arc::new(self.sat(x)?.precursors()),
            Formula::Until(x, y) => {
                let hold = self.sat(x)?;
                let goal = self.sat(y)?;
                Arc::new(until(&hold, &goal))
            }
            Formula::Common(group, x) => {
                if group.is_empty() {
                    return Err(LogicError::EmptyGroup);
                }
                let phi = self.sat(x)?;
                Arc::new(self.common(group, None, &phi)?)
            }
            Formula::CommonGe(group, alpha, x) => {
                if group.is_empty() {
                    return Err(LogicError::EmptyGroup);
                }
                let phi = self.sat(x)?;
                Arc::new(self.common(group, Some(*alpha), &phi)?)
            }
        };
        // Racing evaluators of the same formula insert identical sets;
        // whichever wins, every caller gets the same shared `Arc`.
        Ok(self.memos.cache.insert_or_get(f.clone(), result))
    }

    /// `sat` through the formula compiler: hash-cons `f` into the
    /// arena's interned DAG and evaluate per distinct subterm, so a
    /// subterm shared with *any* previously compiled query is a single
    /// memo hit instead of a re-walk. The whole formula is looked up
    /// under its root in the subterm memo — the compiled path's one
    /// memo (`logic.sat_cache_hit` / `_miss` count that lookup) — and
    /// filed there whatever its kind, so a repeat returns the same
    /// `Arc`; with the memo off nothing is cached. Below the root,
    /// [`EvalView::eval_term`] says which subterms the memo keeps.
    /// Bit-identical to [`EvalView::sat`] — same arm logic, same visit
    /// order, same error discovery — pinned by
    /// `tests/compile_differential.rs`.
    pub(crate) fn sat_compiled(&self, f: &Formula) -> Result<Arc<PointSet>, LogicError> {
        let root = self.arena.intern(f);
        if let Some(memo) = &self.memos.terms {
            if let Some(hit) = memo.get(&root) {
                kpa_trace::count!("logic.sat_cache_hit");
                kpa_trace::count!("logic.subterm_memo.hit");
                return Ok(hit);
            }
            kpa_trace::count!("logic.sat_cache_miss");
            kpa_trace::count!("logic.subterm_memo.miss");
        }
        let compiled = self.arena.program(root);
        self.eval_node(root, &compiled, &mut vec![None; compiled.len()], true)
    }

    /// Evaluates one interned subterm below the root, recursing over
    /// the DAG in exactly the order the tree walker visits the AST
    /// (children left to right, `C_G` group checks before bodies).
    /// `env`, indexed by program position, collapses repeats *within*
    /// this evaluation even when the shared memo is disabled; the
    /// shared `terms` memo collapses repeats across queries, contexts,
    /// and threads, for leaves and modal and temporal nodes. A `¬`, `∧`
    /// or `∨` below the root skips the memo and lives only in `env`:
    /// one word-wise pass over its children's sets re-derives it, while
    /// keeping it would hold a full-universe set for the artifact's
    /// life.
    fn eval_term(
        &self,
        id: TermId,
        compiled: &CompiledFormula,
        env: &mut [Option<Arc<PointSet>>],
    ) -> Result<Arc<PointSet>, LogicError> {
        let (at, term) = compiled.def(id);
        if let Some(hit) = &env[at] {
            return Ok(Arc::clone(hit));
        }
        if term.is_connective() {
            return self.eval_node(id, compiled, env, false);
        }
        self.eval_memoized(id, compiled, env)
    }

    /// Subterm `id` through the shared memo, whatever its kind: a hit,
    /// or the evaluated set filed under `id`.
    fn eval_memoized(
        &self,
        id: TermId,
        compiled: &CompiledFormula,
        env: &mut [Option<Arc<PointSet>>],
    ) -> Result<Arc<PointSet>, LogicError> {
        if let Some(memo) = &self.memos.terms {
            if let Some(hit) = memo.get(&id) {
                kpa_trace::count!("logic.subterm_memo.hit");
                env[compiled.def(id).0] = Some(Arc::clone(&hit));
                return Ok(hit);
            }
            kpa_trace::count!("logic.subterm_memo.miss");
        }
        self.eval_node(id, compiled, env, true)
    }

    /// Evaluates subterm `id` itself, after its lookups missed, and
    /// files the answer in `env` and, when `keep` is set, in the memo.
    fn eval_node(
        &self,
        id: TermId,
        compiled: &CompiledFormula,
        env: &mut [Option<Arc<PointSet>>],
        keep: bool,
    ) -> Result<Arc<PointSet>, LogicError> {
        // One evaluated DAG node (mirrors `logic.sat_eval` on the tree
        // path; shared subterms are counted once, not once per parent).
        kpa_trace::count!("logic.sat_eval");
        let sys = self.sys;
        let (at, term) = compiled.def(id);
        let result: Arc<PointSet> = match term {
            Term::True => Arc::clone(self.all),
            Term::Prop(name) => {
                let pid = sys
                    .prop_id(name)
                    .ok_or_else(|| LogicError::UnknownProp { name: name.clone() })?;
                Arc::new(sys.points_satisfying(pid))
            }
            Term::Lit(lit) => Arc::clone(lit.set()),
            Term::Not(x) => Arc::new(self.eval_term(*x, compiled, env)?.complement()),
            Term::And(xs) => {
                let mut acc = (**self.all).clone();
                for x in xs {
                    acc.intersect_with(&*self.eval_term(*x, compiled, env)?);
                }
                Arc::new(acc)
            }
            Term::Or(xs) => {
                let mut acc = sys.empty_points();
                for x in xs {
                    acc.union_with(&*self.eval_term(*x, compiled, env)?);
                }
                Arc::new(acc)
            }
            Term::Knows(i, x) => {
                let body = self.eval_term(*x, compiled, env)?;
                self.knows_set(*i, &body)
            }
            Term::PrGe(i, alpha, x) => {
                let body = self.eval_term(*x, compiled, env)?;
                self.pr_ge_set(*i, *alpha, &body)?
            }
            Term::Next(x) => Arc::new(self.eval_term(*x, compiled, env)?.precursors()),
            Term::Until(x, y) => {
                let hold = self.eval_term(*x, compiled, env)?;
                let goal = self.eval_term(*y, compiled, env)?;
                Arc::new(until(&hold, &goal))
            }
            Term::Common(group, x) => {
                if group.is_empty() {
                    return Err(LogicError::EmptyGroup);
                }
                let phi = self.eval_term(*x, compiled, env)?;
                Arc::new(self.common(group, None, &phi)?)
            }
            Term::CommonGe(group, alpha, x) => {
                if group.is_empty() {
                    return Err(LogicError::EmptyGroup);
                }
                let phi = self.eval_term(*x, compiled, env)?;
                Arc::new(self.common(group, Some(*alpha), &phi)?)
            }
        };
        let shared = match &self.memos.terms {
            Some(memo) if keep => memo.insert_or_get(id, result),
            _ => result,
        };
        env[at] = Some(Arc::clone(&shared));
        Ok(shared)
    }

    /// Answers the whole threshold family `Pr_agent ≥ α₁…α_k f` in one
    /// equivalence-class sweep: the body is compiled and evaluated once,
    /// each class's inner measure is computed once and thresholded k
    /// times, and the k satisfaction sets come back in `alphas` order.
    /// Each member is interned from the body's root as
    /// `Pr_agent ≥ αⱼ body` — the id compiling `f.pr_ge(agent, αⱼ)`
    /// gives — and, with the body quoted once, as `Pr_agent ≥ αⱼ ⌜S⌝`,
    /// and its set is filed in the subterm memo under both, so later
    /// structural queries *and* raw-set sweeps hit. The answers are
    /// bit-identical to k serial [`EvalView::sat`] calls —
    /// thresholding a class once per α against the same exact rational
    /// measure is the same comparison the single-α sweep makes.
    pub(crate) fn pr_ge_family(
        &self,
        agent: AgentId,
        alphas: &[Rat],
        f: &Formula,
    ) -> Result<Vec<Arc<PointSet>>, LogicError> {
        let root = self.arena.intern(f);
        let body = || -> Result<Arc<PointSet>, LogicError> {
            let body = self.arena.program(root);
            self.eval_memoized(root, &body, &mut vec![None; body.len()])
        };
        let Some(memo) = &self.memos.terms else {
            let sets = self.family_sweep(agent, alphas, &*body()?)?;
            return Ok(sets.into_iter().map(Arc::new).collect());
        };
        let members = self.arena.pr_ge_members(agent, alphas, Body::Term(root));
        // Fast path: the whole family has been answered before.
        let cached: Vec<Option<Arc<PointSet>>> = members.iter().map(|id| memo.get(id)).collect();
        if cached.iter().all(Option::is_some) {
            kpa_trace::count!("logic.sat_cache_hit", members.len() as u64);
            return Ok(cached.into_iter().flatten().collect());
        }
        // The sweep below evaluates every member, cached or not.
        kpa_trace::count!("logic.sat_cache_miss", members.len() as u64);
        let sat = body()?;
        let sets = self.family_sweep(agent, alphas, &sat)?;
        let quoted = self.arena.quote(&sat);
        let set_ids = self.arena.pr_ge_members(agent, alphas, Body::Lit(&quoted));
        Ok(sets
            .into_iter()
            .zip(members.into_iter().zip(set_ids))
            .map(|(set, (member, set_id))| {
                let shared = memo.insert_or_get(member, Arc::new(set));
                memo.insert_or_get(set_id, Arc::clone(&shared))
            })
            .collect())
    }

    /// The one-sweep kernel behind [`EvalView::pr_ge_family`] and (with
    /// k = 1) [`EvalView::pr_ge_set`]. Like `K_i`, each threshold set is
    /// a union of whole classes: [`AssignCore::sweep_spaces`] decides
    /// each distinct space once — its inner measure, straight from the
    /// space's kernel — and the sweep ORs the space's points word-wise
    /// (one contiguous loop for a dense class) into every set whose α
    /// that measure reaches. With the plan off every point goes alone,
    /// in ascending order, so the first point where the assignment fails
    /// reports its error. Thresholding is exact — measures are exact
    /// rationals, so `inner ≥ α` per class is precisely what k
    /// independent sweeps would compute.
    fn family_sweep(
        &self,
        agent: AgentId,
        alphas: &[Rat],
        sat: &PointSet,
    ) -> Result<Vec<PointSet>, LogicError> {
        let sys = self.sys;
        // One exact-footprint pass before the sweep: every class space
        // below measures this set through its footprint hint, so the
        // tightest range multiplies across thousands of queries.
        let sat = &{
            let mut s = sat.clone();
            s.tighten_footprint();
            s
        };
        let _sweep_timer = kpa_trace::span!("logic.pr_sweep_ns");
        let mut out: Vec<PointSet> = alphas.iter().map(|_| sys.empty_points()).collect();
        self.core.sweep_spaces(
            sys,
            agent,
            self.plan,
            |space| Ok::<_, LogicError>(space.inner_measure(sat)),
            |points, inner| {
                for (acc, alpha) in out.iter_mut().zip(alphas) {
                    if inner >= alpha {
                        acc.union_group(points);
                    }
                }
            },
        )?;
        // Both count points. A finished sweep absorbed every point:
        // through a plan class with the plan on (a point the plan leaves
        // out fails to build), alone with it off.
        let points = sys.point_count() as u64;
        let (hits, fallbacks) = if self.plan { (points, 0) } else { (0, points) };
        kpa_trace::count!("logic.plan_hit", hits);
        kpa_trace::count!("logic.plan_fallback", fallbacks);
        Ok(out)
    }

    /// `Kᵢ S` through the unified per-subterm memo when enabled: the
    /// query is interned as `K_agent ⌜S⌝` (the leaf shares `sat`'s
    /// `Arc`) and cached under its [`TermId`], so the tree walker, the
    /// compiled DAG evaluator, and raw-set callers all share one cache.
    /// See [`Model::knows_set`](crate::Model::knows_set).
    pub(crate) fn knows_set(&self, agent: AgentId, sat: &Arc<PointSet>) -> Arc<PointSet> {
        if let Some(memo) = &self.memos.terms {
            let id = self.arena.knows_of_set(agent, &self.arena.quote(sat));
            if let Some(hit) = memo.get(&id) {
                kpa_trace::count!("logic.knows_memo_hit");
                kpa_trace::count!("logic.subterm_memo.hit");
                return hit;
            }
            kpa_trace::count!("logic.subterm_memo.miss");
            let fresh = self.knows_set_fresh(agent, sat);
            // The scan ran outside the lock; concurrent sweeps may
            // compute the same (identical) set — either insert wins.
            return memo.insert_or_get(id, Arc::new(fresh));
        }
        Arc::new(self.knows_set_fresh(agent, sat))
    }

    /// `knows_set` without consulting or filling the memo: the direct
    /// per-class subset scan over the agent's local classes.
    pub(crate) fn knows_set_fresh(&self, agent: AgentId, sat: &PointSet) -> PointSet {
        kpa_trace::count!("logic.knows_scan");
        let _sweep_timer = kpa_trace::span!("logic.knows_sweep_ns");
        let mut acc = self.sys.empty_points();
        for (_, class) in self.sys.local_classes(agent) {
            if class.is_subset(sat) {
                acc.union_with(class);
            }
        }
        acc
    }

    /// `Prᵢ(S) ≥ α` as a set. See
    /// [`Model::pr_ge_set`](crate::Model::pr_ge_set) for the full
    /// contract; every cache the sweep consults stores pure functions
    /// of its keys, so the set is bit-identical to a memo-free,
    /// unplanned sweep.
    pub(crate) fn pr_ge_set(
        &self,
        agent: AgentId,
        alpha: Rat,
        sat: &Arc<PointSet>,
    ) -> Result<Arc<PointSet>, LogicError> {
        if let Some(memo) = &self.memos.terms {
            // Interned as `Pr_agent ≥ α ⌜sat⌝`; only successful sweeps
            // are cached, so error behavior is identical on repeats.
            let quoted = self.arena.quote(sat);
            let id = self
                .arena
                .pr_ge_members(agent, &[alpha], Body::Lit(&quoted))[0];
            if let Some(hit) = memo.get(&id) {
                kpa_trace::count!("logic.subterm_memo.hit");
                return Ok(hit);
            }
            kpa_trace::count!("logic.subterm_memo.miss");
            let fresh = self.pr_ge_one(agent, alpha, sat)?;
            return Ok(memo.insert_or_get(id, Arc::new(fresh)));
        }
        Ok(Arc::new(self.pr_ge_one(agent, alpha, sat)?))
    }

    /// The raw `Prᵢ(S) ≥ α` class sweep behind [`EvalView::pr_ge_set`]:
    /// the one-threshold family sweep, bypassing the subterm memo (the
    /// sample plan still applies).
    fn pr_ge_one(
        &self,
        agent: AgentId,
        alpha: Rat,
        sat: &PointSet,
    ) -> Result<PointSet, LogicError> {
        Ok(self.family_sweep(agent, &[alpha], sat)?.swap_remove(0))
    }

    /// `C_G φ` (`alpha` = `None`) or `C_G^α φ`: the greatest fixed
    /// point of X = ⋂_{i∈G} Kᵢ(φ ∩ X), with Kᵢ^α(S) = Kᵢ(Prᵢ(S) ≥ α)
    /// in place of Kᵢ for the probabilistic variant. `group` is
    /// nonempty; both evaluators call this one body.
    fn common(
        &self,
        group: &[AgentId],
        alpha: Option<Rat>,
        phi: &PointSet,
    ) -> Result<PointSet, LogicError> {
        self.gfp(|current| {
            let body = Arc::new(phi.intersection(current));
            let mut acc: Option<PointSet> = None;
            for &i in group {
                let k = match alpha {
                    None => self.knows_set(i, &body),
                    Some(alpha) => self.knows_set(i, &self.pr_ge_set(i, alpha, &body)?),
                };
                acc = Some(match acc {
                    None => Arc::unwrap_or_clone(k),
                    Some(mut a) => {
                        a.intersect_with(&k);
                        a
                    }
                });
            }
            Ok(acc.expect("nonempty group"))
        })
    }

    /// Greatest fixed point of a monotone set operator, starting from
    /// the set of all points.
    fn gfp(
        &self,
        mut op: impl FnMut(&PointSet) -> Result<PointSet, LogicError>,
    ) -> Result<PointSet, LogicError> {
        let mut current: PointSet = (**self.all).clone();
        loop {
            kpa_trace::count!("logic.gfp_iters");
            let next = op(&current)?;
            if next == current {
                return Ok(current);
            }
            current = next;
        }
    }
}

/// φ U ψ: the least fixpoint of X = ψ ∪ (φ ∩ ◯X). Converges in at most
/// `horizon` rounds of O(words) shifts.
fn until(hold: &PointSet, goal: &PointSet) -> PointSet {
    let mut acc = goal.clone();
    loop {
        kpa_trace::count!("logic.until_iters");
        let mut next = acc.precursors();
        next.intersect_with(hold);
        next.union_with(goal);
        if next == acc {
            return acc;
        }
        acc = next;
    }
}

/// An immutable, shareable model-checking artifact: one system + one
/// sample-space assignment, with every derived structure — canonical
/// spaces, batched [`SamplePlan`](kpa_assign::SamplePlan)s, and the two
/// evaluation memos — owned by the artifact and guarded only by each
/// memo's one lock.
///
/// Build it once, wrap it in an [`Arc`], and hand clones to as many
/// threads as you like; each thread mints a cheap [`EvalCtx`] and
/// queries away. Memos warm *across* threads: a satisfaction set
/// computed by one client is a memo hit for every other.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use kpa_measure::rat;
/// use kpa_system::{AgentId, PointId, ProtocolBuilder, TreeId};
/// use kpa_assign::Assignment;
/// use kpa_logic::{Formula, ModelArtifact};
///
/// let sys = ProtocolBuilder::new(["p1", "p2", "p3"])
///     .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["p3"])
///     .build()?;
/// let artifact = Arc::new(ModelArtifact::new(Arc::new(sys), Assignment::post()));
///
/// let p1 = AgentId(0);
/// let f = Formula::prop("c=h").k_interval(p1, rat!(1 / 2), rat!(1 / 2));
/// let c = PointId { tree: TreeId(0), run: 0, time: 1 };
///
/// // Queries fan out across threads against the one shared artifact.
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         let artifact = Arc::clone(&artifact);
///         let f = f.clone();
///         scope.spawn(move || {
///             let ctx = artifact.ctx();
///             assert!(ctx.holds_at(&f, c).unwrap());
///         });
///     }
/// });
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ModelArtifact {
    sys: Arc<System>,
    core: AssignCore,
    all: Arc<PointSet>,
    memos: EvalMemos,
    /// The shared hash-consing arena: every query compiled through any
    /// context of this artifact interns into one DAG, so structurally
    /// shared subterms dedup *across* queries, batches, and threads.
    arena: FormulaArena,
}

impl ModelArtifact {
    /// Builds the artifact for `assignment` over `sys`, eagerly
    /// building the per-agent [`SamplePlan`](kpa_assign::SamplePlan)
    /// table so the first query from every thread starts warm (plan
    /// builds walk the whole system — exactly the cost an interactive
    /// client should not pay mid-query).
    #[must_use]
    pub fn new(sys: Arc<System>, assignment: Assignment) -> ModelArtifact {
        let core = AssignCore::new(assignment, sys.agent_count());
        for agent in (0..sys.agent_count()).map(AgentId) {
            let _ = core.sample_plan(&sys, agent);
        }
        let all = Arc::new(sys.full_points());
        ModelArtifact {
            sys,
            core,
            all,
            memos: EvalMemos::new(true),
            arena: FormulaArena::new(),
        }
    }

    /// The underlying system.
    #[must_use]
    pub fn system(&self) -> &Arc<System> {
        &self.sys
    }

    /// The sample-space assignment the artifact evaluates under.
    #[must_use]
    pub fn assignment(&self) -> &Assignment {
        self.core.assignment()
    }

    /// The shared assignment core (space cache + plan table).
    #[must_use]
    pub fn core(&self) -> &AssignCore {
        &self.core
    }

    /// A fresh per-query evaluation context for the calling thread.
    #[must_use]
    pub fn ctx(&self) -> EvalCtx<'_> {
        EvalCtx {
            artifact: self,
            queries: Cell::new(0),
            trace_id: Cell::new(0),
        }
    }

    /// Approximate heap bytes this artifact holds: the assignment core
    /// (every canonical space with its dense kernel, the space-cache
    /// keys and the plans, see [`AssignCore::heap_bytes`]), every
    /// satisfaction set its memos and arena reach — counted once
    /// however many maps share it — and a fixed size per memo entry and
    /// interned term. This is a telemetry gauge for cache-occupancy
    /// accounting (`kpa-serve` exports it per resident artifact), not
    /// an allocator census: the system (held by `Arc`), formula ASTs
    /// beyond their entry size, and allocator slack are not counted.
    #[must_use]
    pub fn approx_resident_bytes(&self) -> u64 {
        let mut seen: HashSet<*const PointSet> = HashSet::new();
        let mut set = |s: &Arc<PointSet>| {
            if seen.insert(Arc::as_ptr(s)) {
                size_of::<PointSet>() + size_of_val(s.as_words())
            } else {
                0
            }
        };
        let mut bytes = self.core.heap_bytes() + set(&self.all);
        bytes += self.memos.cache.fold(0, |acc, _, s| {
            acc + size_of::<(Formula, Arc<PointSet>)>() + set(s)
        });
        if let Some(terms) = &self.memos.terms {
            bytes += terms.fold(0, |acc, _, s| {
                acc + size_of::<(TermId, Arc<PointSet>)>() + set(s)
            });
        }
        bytes += self.terms_interned() * FormulaArena::TERM_BYTES
            + self.arena.lits().iter().map(set).sum::<usize>();
        bytes as u64
    }

    /// How many interned-subterm entries the shared per-subterm memo
    /// holds: the roots of answered queries, their leaves and modal and
    /// temporal nodes, and the set-level `K_i ⌜S⌝` / `Pr_i ≥ α ⌜S⌝`
    /// queries — the unified map that replaced the separate knows-set
    /// memo. A `¬`, `∧` or `∨` below a root has no entry: it is
    /// recomputed from its children.
    #[must_use]
    pub fn subterm_memo_len(&self) -> usize {
        self.memos.terms.as_ref().map_or(0, Memo::len)
    }

    /// How many distinct subterms the artifact's arena has interned
    /// across all compiled queries.
    #[must_use]
    pub fn terms_interned(&self) -> usize {
        self.arena.len()
    }

    /// How many per-agent sample plans have been built (all of them,
    /// after [`ModelArtifact::new`]'s eager prewarm).
    #[must_use]
    pub fn plans_built(&self) -> usize {
        self.core.plans_built()
    }

    /// The view the artifact's contexts evaluate through.
    fn view(&self) -> EvalView<'_> {
        EvalView {
            sys: &self.sys,
            core: &self.core,
            all: &self.all,
            memos: &self.memos,
            arena: &self.arena,
            plan: true,
        }
    }
}

// The whole point of the artifact: it must be shareable across threads
// behind an `Arc` with no wrapper locks. Compile-time enforced.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<ModelArtifact>();
};

/// A cheap per-query handle over a shared [`ModelArtifact`].
///
/// Mint one per thread (or per query batch) with
/// [`ModelArtifact::ctx`]; all heavy state — memos, spaces, plans —
/// lives in the artifact and warms across every context. The context
/// itself is deliberately `!Sync` (it carries `Cell` scratch state), so
/// per-context bookkeeping never pays for atomics.
#[derive(Debug)]
pub struct EvalCtx<'m> {
    artifact: &'m ModelArtifact,
    /// Queries answered through this context (scratch statistic — the
    /// `Cell` is also what keeps `EvalCtx: !Sync`).
    queries: Cell<u64>,
    /// The request's [`kpa_trace::TraceId`] (raw `u64`; `0` = none):
    /// installed as the thread's ambient id around every query entry
    /// point so `span!` records stitch into the request's tree.
    trace_id: Cell<u64>,
}

impl<'m> EvalCtx<'m> {
    /// The artifact this context queries.
    #[must_use]
    pub fn artifact(&self) -> &'m ModelArtifact {
        self.artifact
    }

    /// How many queries this context has answered.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.queries.get()
    }

    /// Tag this context with a request's trace id; subsequent queries
    /// record their spans under it (while tracing is on). Costs one
    /// relaxed load per query when tracing is off.
    pub fn set_trace_id(&self, id: kpa_trace::TraceId) {
        self.trace_id.set(id.0);
    }

    /// The trace id this context's queries record under
    /// ([`kpa_trace::TraceId::NONE`] unless
    /// [`EvalCtx::set_trace_id`] was called).
    #[must_use]
    pub fn trace_id(&self) -> kpa_trace::TraceId {
        kpa_trace::TraceId(self.trace_id.get())
    }

    fn ambient(&self) -> kpa_trace::AmbientGuard {
        kpa_trace::ambient_guard(self.trace_id())
    }

    fn tick(&self) {
        self.queries.set(self.queries.get() + 1);
    }

    /// The exact set of points satisfying `f`, answered from (and
    /// warming) the artifact's shared memos.
    ///
    /// Contexts evaluate through the formula compiler: `f` is
    /// hash-consed into the artifact's shared DAG, and the satisfaction
    /// sets of `f` itself and of every leaf and modal or temporal
    /// subterm are memoized under their interned ids, so a query stream
    /// sharing subterms (the workload `kpa-serve` batches) pays for each
    /// `K_i`, `Pr_i ≥ α` or `C_G` once across all contexts. A `¬`, `∧`
    /// or `∨` below `f` is one word-wise pass, recomputed per query.
    /// Results are bit-identical to the tree walker
    /// ([`Model::sat`](crate::Model::sat)) by construction — pinned by
    /// `tests/compile_differential.rs`.
    ///
    /// # Errors
    ///
    /// As [`Model::sat`](crate::Model::sat).
    pub fn sat(&self, f: &Formula) -> Result<Arc<PointSet>, LogicError> {
        self.tick();
        let _req = self.ambient();
        self.artifact.view().sat_compiled(f)
    }

    /// Compiles `f` against the artifact's shared arena without
    /// evaluating it (interning is idempotent; the compiled program can
    /// be inspected for dedup diagnostics).
    #[must_use]
    pub fn compile(&self, f: &Formula) -> CompiledFormula {
        self.artifact.arena.compile(f)
    }

    /// Answers the whole threshold family `Pr_agent ≥ α₁…α_k f` in one
    /// equivalence-class sweep: the body is evaluated once, each
    /// distinct space's inner measure is computed once and thresholded
    /// k times, and the k sets come back in `alphas` order —
    /// bit-identical to k serial [`EvalCtx::sat`] calls on
    /// `f.pr_ge(agent, αⱼ)`.
    ///
    /// # Errors
    ///
    /// As [`EvalCtx::sat`].
    pub fn pr_ge_family(
        &self,
        agent: AgentId,
        alphas: &[Rat],
        f: &Formula,
    ) -> Result<Vec<Arc<PointSet>>, LogicError> {
        self.tick();
        let _req = self.ambient();
        self.artifact.view().pr_ge_family(agent, alphas, f)
    }

    /// Whether `f` holds at the point `c`.
    ///
    /// # Errors
    ///
    /// As [`EvalCtx::sat`].
    pub fn holds_at(&self, f: &Formula, c: PointId) -> Result<bool, LogicError> {
        Ok(self.sat(f)?.contains(c))
    }

    /// Whether `f` holds at *every* point of the system.
    ///
    /// # Errors
    ///
    /// As [`EvalCtx::sat`].
    pub fn holds_everywhere(&self, f: &Formula) -> Result<bool, LogicError> {
        Ok(*self.sat(f)? == *self.artifact.all)
    }

    /// The `(inner, outer)` probability bounds agent `i` assigns to `f`
    /// at `c` under the artifact's assignment.
    ///
    /// # Errors
    ///
    /// As [`EvalCtx::sat`].
    pub fn prob_interval(
        &self,
        agent: AgentId,
        c: PointId,
        f: &Formula,
    ) -> Result<(Rat, Rat), LogicError> {
        let _req = self.ambient();
        let sat = self.sat(f)?;
        let space = self.artifact.core.space(&self.artifact.sys, agent, c)?;
        Ok(space.measure_interval(&*sat))
    }

    /// `Kᵢ S` through the artifact's shared memo.
    #[must_use]
    pub fn knows_set(&self, agent: AgentId, sat: &PointSet) -> PointSet {
        self.tick();
        let _req = self.ambient();
        Arc::unwrap_or_clone(
            self.artifact
                .view()
                .knows_set(agent, &Arc::new(sat.clone())),
        )
    }

    /// `Prᵢ(S) ≥ α` as a set, through the artifact's shared memos.
    ///
    /// # Errors
    ///
    /// Propagates space-construction failures.
    pub fn pr_ge_set(
        &self,
        agent: AgentId,
        alpha: Rat,
        sat: &PointSet,
    ) -> Result<PointSet, LogicError> {
        self.tick();
        let _req = self.ambient();
        self.artifact
            .view()
            .pr_ge_set(agent, alpha, &Arc::new(sat.clone()))
            .map(Arc::unwrap_or_clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpa_measure::{rat, GroupWords};
    use kpa_system::{ProtocolBuilder, TreeId};

    fn intro_system() -> System {
        ProtocolBuilder::new(["p1", "p2", "p3"])
            .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["p3"])
            .build()
            .unwrap()
    }

    fn pt(tree: usize, run: usize, time: usize) -> PointId {
        PointId {
            tree: TreeId(tree),
            run,
            time,
        }
    }

    #[test]
    fn artifact_matches_the_model_facade() {
        let sys = intro_system();
        let pa = kpa_assign::ProbAssignment::new(&sys, Assignment::post());
        let model = crate::Model::new(&pa);
        let artifact = ModelArtifact::new(Arc::new(intro_system()), Assignment::post());
        let ctx = artifact.ctx();
        let p1 = AgentId(0);
        let g = [AgentId(0), AgentId(1), AgentId(2)];
        let formulas = [
            Formula::prop("c=h"),
            Formula::prop("c=h").known_by(AgentId(2)),
            Formula::prop("c=h").k_alpha(p1, rat!(1 / 2)),
            Formula::prop("c=h").eventually().common(g),
        ];
        for f in &formulas {
            assert_eq!(
                model.sat(f).unwrap().as_words(),
                ctx.sat(f).unwrap().as_words(),
                "artifact diverged from the facade on {f}"
            );
        }
        assert_eq!(ctx.queries(), formulas.len() as u64);
    }

    #[test]
    fn artifact_prewarms_every_plan() {
        let artifact = ModelArtifact::new(Arc::new(intro_system()), Assignment::post());
        assert_eq!(artifact.plans_built(), 3, "one plan per agent, eagerly");
    }

    #[test]
    fn contexts_share_the_artifact_memos() {
        let artifact = ModelArtifact::new(Arc::new(intro_system()), Assignment::post());
        let f = Formula::prop("c=h").known_by(AgentId(2));
        let a = artifact.ctx().sat(&f).unwrap();
        assert!(artifact.subterm_memo_len() > 0);
        // A *different* context gets the very same shared set.
        let b = artifact.ctx().sat(&f).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "memos must warm across contexts");
    }

    /// Nine fair coins that only p1 observes: 512 runs × 10 times, so
    /// a set spans 80 words and p1 has 1,023 distinct spaces.
    fn observed_coins() -> System {
        let mut b = ProtocolBuilder::new(["p1", "p2"]);
        for k in 0..9 {
            b = b.coin(
                &format!("c{k}"),
                &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))],
                &["p1"],
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn resident_bytes_cover_every_kernel() {
        let artifact = ModelArtifact::new(Arc::new(observed_coins()), Assignment::post());
        let sys = artifact.system();
        let mut seen = HashSet::new();
        let (mut kernels, mut plans, mut class_words) = (0, 0, 0);
        for agent in (0..sys.agent_count()).map(AgentId) {
            let plan = artifact.core().sample_plan(sys, agent);
            plans += plan.heap_bytes();
            for k in 0..plan.classes() {
                let (space, points) = plan.class(k);
                // A class holds its space and its words: a dense class
                // its first word's index and every word of its range, a
                // pairs class an index and a word per pair.
                class_words += size_of::<Arc<kpa_assign::DensePointSpace>>()
                    + match points {
                        GroupWords::Dense { bits, .. } => size_of::<u32>() + size_of_val(bits),
                        GroupWords::Pairs { words, bits } => size_of_val(words) + size_of_val(bits),
                    };
                if seen.insert(Arc::as_ptr(space)) {
                    kernels += space.kernel().expect("dense kernel").heap_bytes();
                }
            }
        }
        assert!(kernels > 0);
        assert!(plans >= class_words && class_words > 0);
        assert!(artifact.approx_resident_bytes() >= (kernels + plans) as u64);
    }

    #[test]
    fn resident_bytes_count_a_shared_set_once() {
        let artifact = ModelArtifact::new(Arc::new(observed_coins()), Assignment::post());
        let ctx = artifact.ctx();
        let set_bytes = (size_of::<PointSet>() + size_of_val(artifact.all.as_words())) as u64;
        // One new set, held by the subterm memo under the formula's root.
        let before = artifact.approx_resident_bytes();
        let heads = ctx.sat(&Formula::prop("c0=h")).unwrap();
        let grown = artifact.approx_resident_bytes() - before;
        assert!(
            (set_bytes..2 * set_bytes).contains(&grown),
            "{grown} B for one {set_bytes} B set"
        );
        // A sweep over p1's 1,023 spaces adds the quoted input and the
        // answer, with their memo entry and interned terms, and nothing
        // per class.
        let before = artifact.approx_resident_bytes();
        ctx.pr_ge_set(AgentId(0), rat!(1 / 2), &heads).unwrap();
        let grown = artifact.approx_resident_bytes() - before;
        assert!(
            (2 * set_bytes..3 * set_bytes).contains(&grown),
            "{grown} B for two {set_bytes} B sets"
        );
    }

    /// Clockless p1 and clocked p2 watching `n` fair tosses: p1's
    /// posterior spaces hold several points per run.
    fn clockless_tosses(n: usize) -> System {
        let mut b = ProtocolBuilder::new(["p1", "p2"]).clockless("p1");
        for k in 0..n {
            b = b.step(&format!("c{k}"), move |_| {
                ["h", "t"]
                    .map(|o| {
                        let branch = kpa_system::Branch::new(rat!(1 / 2))
                            .transient_prop(&format!("recent={o}"));
                        if k == 0 {
                            branch.observe("p1", "go")
                        } else {
                            branch
                        }
                    })
                    .to_vec()
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn queries_build_no_generic_table() {
        let artifact = ModelArtifact::new(Arc::new(clockless_tosses(3)), Assignment::post());
        let sys = artifact.system();
        let ctx = artifact.ctx();
        let (p1, p2) = (AgentId(0), AgentId(1));
        let recent = Formula::prop("recent=h");
        let half = rat!(1 / 2);
        ctx.sat(&recent.clone().pr_ge(p1, half).known_by(p2))
            .unwrap();
        ctx.sat(&recent.clone().k_alpha(p1, half)).unwrap();
        ctx.sat(&recent.clone().k_interval(p2, rat!(1 / 4), half))
            .unwrap();
        ctx.pr_ge_family(p1, &[rat!(1 / 8), half, Rat::ONE], &recent)
            .unwrap();
        ctx.prob_interval(p1, pt(0, 0, 2), &recent).unwrap();
        let mut seen = HashSet::new();
        let mut spaces = Vec::new();
        for agent in [p1, p2] {
            let plan = artifact.core().sample_plan(sys, agent);
            for k in 0..plan.classes() {
                let (space, _) = plan.class(k);
                if seen.insert(Arc::as_ptr(space)) {
                    spaces.push(Arc::clone(space));
                }
            }
        }
        assert!(spaces.len() > 2);
        assert!(spaces.iter().all(|s| s.has_kernel() && !s.has_generic()));
        // Dereferencing one space builds its table, and the gauge
        // counts that table alone.
        let before = artifact.approx_resident_bytes();
        assert_eq!(spaces[0].elements().len(), spaces[0].sample().len());
        let built = spaces[0].generic().heap_bytes() as u64;
        assert_eq!(artifact.approx_resident_bytes(), before + built);
        assert!(spaces[1..].iter().all(|s| !s.has_generic()));
    }

    /// Three fair coins: p1 sees the first, p2 the second, both the
    /// third, so each agent has several classes and spaces.
    fn three_coins() -> System {
        let fair = [("h", rat!(1 / 2)), ("t", rat!(1 / 2))];
        ProtocolBuilder::new(["p1", "p2"])
            .coin("c0", &fair, &["p1"])
            .coin("c1", &fair, &["p2"])
            .coin("c2", &fair, &["p1", "p2"])
            .build()
            .unwrap()
    }

    /// The memo keeps what is costly to recompute and no connective
    /// below a root: after cold calls of each kind over depth-3
    /// bodies, every `Prop`, every modal node and every call's root
    /// is a key, no interior `¬`, `∧` or `∨` is, and a repeat `sat`
    /// returns the memo's own `Arc`. Checked on the memo's keys, not
    /// on the process-wide counters other tests share.
    #[test]
    fn the_memo_keeps_roots_leaves_and_modal_nodes() {
        let artifact = ModelArtifact::new(Arc::new(three_coins()), Assignment::post());
        let ctx = artifact.ctx();
        let (p1, p2) = (AgentId(0), AgentId(1));
        let p = Formula::prop;
        let phi = Formula::or([
            Formula::and([p("c0=h"), p("c1=t").not()]),
            Formula::and([p("c2=h"), Formula::or([p("c0=t"), p("c1=h")])]).not(),
        ]);
        let psi = Formula::and([Formula::or([p("c1=h"), p("c2=t").not()]).not(), p("c0=h")]);
        let sats = [
            phi.clone().pr_ge(p1, rat!(1 / 2)),
            psi.clone().k_alpha(p2, rat!(1 / 3)),
            Formula::or([phi.clone(), psi.clone()]).known_by(p1),
            Formula::or([psi.clone(), phi.clone()]).common([p1, p2]),
            // A connective root keeps its entry.
            Formula::and([phi.clone().known_by(p2), psi.clone().not()]),
        ];
        let family = Formula::or([psi.clone(), p("c2=h")]).not();
        let cold: Vec<Arc<PointSet>> = sats.iter().map(|f| ctx.sat(f).unwrap()).collect();
        ctx.pr_ge_family(p1, &[rat!(1 / 4), rat!(1 / 2), rat!(3 / 4)], &family)
            .unwrap();

        let memo = artifact
            .memos
            .terms
            .as_ref()
            .expect("the artifact memoizes");
        let keys: HashSet<TermId> = memo.fold(HashSet::new(), |mut keys, &id, _| {
            keys.insert(id);
            keys
        });
        let programs: Vec<CompiledFormula> = sats
            .iter()
            .chain([&family])
            .map(|f| ctx.compile(f))
            .collect();
        let roots: HashSet<TermId> = programs.iter().map(CompiledFormula::root).collect();
        let mut interior = 0;
        for program in &programs {
            for id in program.subterm_ids() {
                let term = program.def(id).1;
                if term.is_connective() && !roots.contains(&id) {
                    interior += 1;
                    assert!(!keys.contains(&id), "interior {term:?} is a memo key");
                }
            }
        }
        assert!(interior > 10, "only {interior} interior connectives");

        for (f, set) in sats.iter().zip(&cold) {
            assert!(
                Arc::ptr_eq(set, &ctx.sat(f).unwrap()),
                "a repeat of {f} is not the memo's set"
            );
        }
        for program in &programs {
            for id in program.subterm_ids() {
                let term = program.def(id).1;
                if roots.contains(&id) || !term.is_connective() {
                    assert!(keys.contains(&id), "{term:?} is not a memo key");
                }
            }
        }
    }

    #[test]
    fn prob_interval_matches_the_assignment() {
        let sys = intro_system();
        let pa = kpa_assign::ProbAssignment::new(&sys, Assignment::post());
        let artifact = ModelArtifact::new(Arc::new(intro_system()), Assignment::post());
        let ctx = artifact.ctx();
        let f = Formula::prop("c=h");
        let sat = ctx.sat(&f).unwrap();
        let c = pt(0, 0, 1);
        assert_eq!(
            ctx.prob_interval(AgentId(0), c, &f).unwrap(),
            pa.interval(AgentId(0), c, &*sat).unwrap()
        );
    }
}
