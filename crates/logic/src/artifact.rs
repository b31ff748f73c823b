//! The immutable model artifact and its per-query evaluation contexts.
//!
//! The paper's decision procedures — `K_i φ`, `Pr_i ≥ α φ`, the
//! temporal operators — are pure functions of an immutable system and
//! probability assignment. This module splits the evaluation stack
//! along exactly that line:
//!
//! * [`ModelArtifact`] — the shareable half: an `Arc<System>`, the
//!   sample-space assignment's [`AssignCore`] (sharded space cache +
//!   write-once per-agent plan table), and the three evaluation memos
//!   as 16-way [`ShardMap`]s. The artifact is `Send + Sync` and is
//!   meant to be built **once** and shared as `Arc<ModelArtifact>`
//!   across any number of query threads; there is no global mutex on
//!   any query path — only shard-level locks, held for single
//!   lookups/inserts.
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
//! Sharding never affects results: every memo key lives in exactly one
//! shard, values are pure functions of their keys, and racing builders
//! insert structurally identical values (first insert wins). The
//! differential suite (`tests/shared_artifact_differential.rs`)
//! hammers one artifact from several threads and asserts word-level
//! bit-equality with a serial facade evaluation.

use crate::compile::{CompiledFormula, FormulaArena, Term, TermId};
use crate::error::LogicError;
use crate::formula::Formula;
use kpa_assign::{AssignCore, Assignment, DensePointSpace, SamplePlan, ShardMap};
use kpa_measure::Rat;
use kpa_system::{AgentId, PointId, PointSet, System};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The three evaluation memos, each a sharded concurrent map:
///
/// * `cache` — whole formula → satisfaction set (the entry-point memo
///   keyed by the uncompiled AST, so facade callers skip compilation
///   entirely on repeat queries);
/// * `terms` — interned [`TermId`] → satisfaction set: **one** unified
///   per-subterm memo covering every node of the compiled DAG *and*
///   the set-level `K_i ⌜S⌝` / `Pr_i ≥ α ⌜S⌝` queries (quoted as
///   [`Term::Lit`] leaves). This replaced the separate
///   `(agent, set)`-keyed knows memo — one map means the structural
///   and set-level caches cannot drift;
/// * `pr` — `(space identity, sat set) → (μ_ic)⁎(sat)`, shared across
///   sweeps, thresholds `α`, and formulas. Every entry one sweep files
///   shares that sweep's one `Arc` of the set; keys hash and compare by
///   value, so later sweeps over an equal set hit.
///
/// `terms`/`pr` are optional because the differential suites prove
/// memo invisibility by turning them off; the artifact always enables
/// both.
pub(crate) struct EvalMemos {
    pub(crate) cache: ShardMap<Formula, Arc<PointSet>>,
    pub(crate) terms: Option<ShardMap<TermId, Arc<PointSet>>>,
    pub(crate) pr: Option<ShardMap<(usize, Arc<PointSet>), Rat>>,
}

impl EvalMemos {
    /// Fresh, empty memos with the per-subterm and `Pr` memos each
    /// enabled or disabled. The formula cache is always on (sharing
    /// satisfaction-set `Arc`s is part of the `sat` contract).
    pub(crate) fn new(terms: bool, pr: bool) -> EvalMemos {
        EvalMemos {
            cache: ShardMap::new("logic.sat_cache"),
            terms: terms.then(|| ShardMap::new("logic.subterm_memo")),
            pr: pr.then(|| ShardMap::new("logic.pr_memo")),
        }
    }
}

impl std::fmt::Debug for EvalMemos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalMemos")
            .field("cache", &self.cache.len())
            .field("terms", &self.terms.as_ref().map(ShardMap::len))
            .field("pr", &self.pr.as_ref().map(ShardMap::len))
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
    /// Whether `pr_ge_set` resolves spaces through the batched
    /// [`SamplePlan`] table (off only for differential testing).
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
    /// memo hit instead of a re-walk. Bit-identical to [`EvalView::sat`]
    /// — same arm logic, same visit order, same error discovery —
    /// pinned by `tests/compile_differential.rs`.
    pub(crate) fn sat_compiled(&self, f: &Formula) -> Result<Arc<PointSet>, LogicError> {
        if let Some(hit) = self.memos.cache.get(f) {
            kpa_trace::count!("logic.sat_cache_hit");
            return Ok(hit);
        }
        let compiled = self.arena.compile(f);
        let result = self.eval_compiled(&compiled)?;
        Ok(self.memos.cache.insert_or_get(f.clone(), result))
    }

    /// Evaluates an already-compiled formula against this view.
    pub(crate) fn eval_compiled(
        &self,
        compiled: &CompiledFormula,
    ) -> Result<Arc<PointSet>, LogicError> {
        let defs = compiled.defs();
        let mut env: HashMap<TermId, Arc<PointSet>> = HashMap::new();
        self.eval_term(compiled.root(), &defs, &mut env)
    }

    /// Evaluates one interned subterm, recursing over the DAG in
    /// exactly the order the tree walker visits the AST (children left
    /// to right, `C_G` group checks before bodies). `env` collapses
    /// repeats *within* this evaluation even when the shared memo is
    /// disabled; the shared `terms` memo collapses repeats across
    /// queries, contexts, and threads.
    fn eval_term(
        &self,
        id: TermId,
        defs: &HashMap<TermId, &Term>,
        env: &mut HashMap<TermId, Arc<PointSet>>,
    ) -> Result<Arc<PointSet>, LogicError> {
        if let Some(hit) = env.get(&id) {
            return Ok(Arc::clone(hit));
        }
        if let Some(memo) = &self.memos.terms {
            if let Some(hit) = memo.get(&id) {
                kpa_trace::count!("logic.subterm_memo.hit");
                env.insert(id, Arc::clone(&hit));
                return Ok(hit);
            }
            kpa_trace::count!("logic.subterm_memo.miss");
        }
        // One evaluated DAG node (mirrors `logic.sat_eval` on the tree
        // path; shared subterms are counted once, not once per parent).
        kpa_trace::count!("logic.sat_eval");
        let sys = self.sys;
        let term = *defs.get(&id).expect("compiled program covers its subterms");
        let result: Arc<PointSet> = match term {
            Term::True => Arc::clone(self.all),
            Term::Prop(name) => {
                let pid = sys
                    .prop_id(name)
                    .ok_or_else(|| LogicError::UnknownProp { name: name.clone() })?;
                Arc::new(sys.points_satisfying(pid))
            }
            Term::Lit(set) => Arc::clone(set),
            Term::Not(x) => Arc::new(self.eval_term(*x, defs, env)?.complement()),
            Term::And(xs) => {
                let mut acc = (**self.all).clone();
                for x in xs {
                    acc.intersect_with(&*self.eval_term(*x, defs, env)?);
                }
                Arc::new(acc)
            }
            Term::Or(xs) => {
                let mut acc = sys.empty_points();
                for x in xs {
                    acc.union_with(&*self.eval_term(*x, defs, env)?);
                }
                Arc::new(acc)
            }
            Term::Knows(i, x) => {
                let body = self.eval_term(*x, defs, env)?;
                self.knows_set(*i, &body)
            }
            Term::PrGe(i, alpha, x) => {
                let body = self.eval_term(*x, defs, env)?;
                self.pr_ge_set(*i, *alpha, &body)?
            }
            Term::Next(x) => Arc::new(self.eval_term(*x, defs, env)?.precursors()),
            Term::Until(x, y) => {
                let hold = self.eval_term(*x, defs, env)?;
                let goal = self.eval_term(*y, defs, env)?;
                Arc::new(until(&hold, &goal))
            }
            Term::Common(group, x) => {
                if group.is_empty() {
                    return Err(LogicError::EmptyGroup);
                }
                let phi = self.eval_term(*x, defs, env)?;
                Arc::new(self.common(group, None, &phi)?)
            }
            Term::CommonGe(group, alpha, x) => {
                if group.is_empty() {
                    return Err(LogicError::EmptyGroup);
                }
                let phi = self.eval_term(*x, defs, env)?;
                Arc::new(self.common(group, Some(*alpha), &phi)?)
            }
        };
        let shared = match &self.memos.terms {
            Some(memo) => memo.insert_or_get(id, result),
            None => result,
        };
        env.insert(id, Arc::clone(&shared));
        Ok(shared)
    }

    /// Answers the whole threshold family `Pr_agent ≥ α₁…α_k f` in one
    /// equivalence-class sweep: the body is evaluated once, each
    /// distinct sample space's inner measure is computed once and
    /// thresholded k times, and the k satisfaction sets come back in
    /// `alphas` order. Every member is memoized exactly as if asked
    /// serially (formula cache + interned `Pr_i ≥ α ⌜S⌝` subterm), and
    /// the answers are bit-identical to k serial [`EvalView::sat`]
    /// calls — thresholding a class once per α against the same exact
    /// rational measure is the same comparison the single-α sweep
    /// makes.
    pub(crate) fn pr_ge_family(
        &self,
        agent: AgentId,
        alphas: &[Rat],
        f: &Formula,
    ) -> Result<Vec<Arc<PointSet>>, LogicError> {
        let members: Vec<Formula> = alphas
            .iter()
            .map(|&alpha| f.clone().pr_ge(agent, alpha))
            .collect();
        // Fast path: the whole family has been answered before.
        let cached: Vec<Option<Arc<PointSet>>> =
            members.iter().map(|m| self.memos.cache.get(m)).collect();
        if cached.iter().all(Option::is_some) {
            kpa_trace::count!("logic.sat_cache_hit", members.len() as u64);
            return Ok(cached.into_iter().flatten().collect());
        }
        // Compiling each member hash-conses the shared body once; the
        // k−1 re-interns are where `logic.terms_deduped` earns its
        // keep on family workloads.
        let compiled: Vec<CompiledFormula> =
            members.iter().map(|m| self.arena.compile(m)).collect();
        let body = self.eval_compiled(&self.arena.compile(f))?;
        let sets = self.family_sweep(agent, alphas, &body)?;
        let mut out = Vec::with_capacity(sets.len());
        for (((member, set), compiled), &alpha) in
            members.into_iter().zip(sets).zip(&compiled).zip(alphas)
        {
            let shared = match &self.memos.terms {
                Some(memo) => {
                    // Key under both spellings of the member — the
                    // structural `Pr_i ≥ α φ` term and the set-level
                    // `Pr_i ≥ α ⌜S⌝` term — so later structural
                    // queries *and* raw-set sweeps hit.
                    let set_id = self.arena.pr_ge_of_set(agent, alpha, &body);
                    let shared = memo.insert_or_get(compiled.root(), Arc::new(set));
                    memo.insert_or_get(set_id, Arc::clone(&shared));
                    shared
                }
                None => Arc::new(set),
            };
            out.push(self.memos.cache.insert_or_get(member, shared));
        }
        Ok(out)
    }

    /// The one-sweep kernel behind [`EvalView::pr_ge_family`] and (with
    /// k = 1) [`EvalView::pr_ge_set`]: walk the points once, resolve
    /// each point's space once (plan table first, per-point fallback on
    /// the points the plan has no entry for), compute each distinct
    /// space's inner measure once, and emit one verdict bit per α.
    /// Thresholding is exact — measures are exact rationals, so
    /// `inner ≥ α` per class is precisely what k independent sweeps
    /// would compute.
    fn family_sweep(
        &self,
        agent: AgentId,
        alphas: &[Rat],
        sat: &PointSet,
    ) -> Result<Vec<PointSet>, LogicError> {
        let sys = self.sys;
        let k = alphas.len();
        // One exact-footprint pass before the sweep: every class space
        // below measures this set through its footprint hint, so the
        // tightest range multiplies across thousands of queries. The
        // copy is shared by every `Pr`-memo key the sweep files.
        let sat = &Arc::new({
            let mut s = sat.clone();
            s.tighten_footprint();
            s
        });
        // The artifact's plan slots are write-once, so the warm fetch
        // is a single atomic load.
        let plan: Option<Arc<SamplePlan>> = self.plan.then(|| self.core.sample_plan(sys, agent));
        let _sweep_timer = kpa_trace::span!("logic.pr_sweep_ns");
        let mut out: Vec<PointSet> = (0..k).map(|_| sys.empty_points()).collect();
        // One verdict row per distinct space, for the whole sweep.
        let mut by_space: HashMap<*const DensePointSpace, Vec<bool>> = HashMap::new();
        let (mut hits, mut fallbacks) = (0u64, 0u64);
        for c in sys.points() {
            let space = match plan.as_ref().and_then(|p| p.space(c)) {
                Some(space) => {
                    hits += 1;
                    Arc::clone(space)
                }
                None => {
                    fallbacks += 1;
                    self.core.space(sys, agent, c)?
                }
            };
            let verdicts = &*by_space.entry(Arc::as_ptr(&space)).or_insert_with(|| {
                let inner = self.inner_of(&space, sat);
                alphas.iter().map(|alpha| inner >= *alpha).collect()
            });
            for (acc, &ok) in out.iter_mut().zip(verdicts) {
                if ok {
                    acc.insert(c);
                }
            }
        }
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
            let id = self.arena.knows_of_set(agent, sat);
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
            let id = self.arena.pr_ge_of_set(agent, alpha, sat);
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
    /// per-class `Pr` memo and the sample plan still apply).
    fn pr_ge_one(
        &self,
        agent: AgentId,
        alpha: Rat,
        sat: &PointSet,
    ) -> Result<PointSet, LogicError> {
        Ok(self.family_sweep(agent, &[alpha], sat)?.swap_remove(0))
    }

    /// The inner measure of `sat` in `space`, through the per-class
    /// memo when enabled. The memo key pairs the space cache `Arc`'s
    /// address (stable for the life of the core — the space cache never
    /// evicts) with the sat set, shared by `Arc` and compared by value.
    /// Concurrent queries may compute the same measure once each before
    /// one insert wins; the value is a pure function of the key, so
    /// results are unaffected.
    fn inner_of(&self, space: &Arc<DensePointSpace>, sat: &Arc<PointSet>) -> Rat {
        let Some(memo) = &self.memos.pr else {
            return space.inner_measure(&**sat);
        };
        let key = (Arc::as_ptr(space) as usize, Arc::clone(sat));
        if let Some(hit) = memo.get(&key) {
            kpa_trace::count!("logic.pr_memo_hit");
            return hit;
        }
        kpa_trace::count!("logic.pr_memo_miss");
        // Measured outside the lock.
        memo.insert_or_get(key, space.inner_measure(&**sat))
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
/// spaces, batched [`SamplePlan`]s, and the three evaluation memos —
/// owned by the artifact and guarded only by shard-level locks.
///
/// Build it once, wrap it in an [`Arc`], and hand clones to as many
/// threads as you like; each thread mints a cheap [`EvalCtx`] and
/// queries away. Memos warm *across* threads: a satisfaction set
/// computed by one client is a shard-map hit for every other.
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
    /// building the per-agent [`SamplePlan`] table so the first query
    /// from every thread starts warm (plan builds walk the whole
    /// system — exactly the cost an interactive client should not pay
    /// mid-query).
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
            memos: EvalMemos::new(true, true),
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

    /// The shared assignment core (sharded space cache + plan table).
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
    /// keys and the plan tables, see [`AssignCore::heap_bytes`]), every
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
        if let Some(pr) = &self.memos.pr {
            bytes += pr.fold(0, |acc, (_, s), _| {
                acc + size_of::<((usize, Arc<PointSet>), Rat)>() + set(s)
            });
        }
        bytes += self.terms_interned() * size_of::<(Term, TermId)>()
            + self.arena.lits().iter().map(set).sum::<usize>();
        bytes as u64
    }

    /// How many formulas the shared satisfaction cache holds.
    #[must_use]
    pub fn sat_cache_len(&self) -> usize {
        self.memos.cache.len()
    }

    /// How many interned-subterm entries the shared per-subterm memo
    /// holds (compiled DAG nodes plus set-level `K_i ⌜S⌝` /
    /// `Pr_i ≥ α ⌜S⌝` queries — the unified map that replaced the
    /// separate knows-set memo).
    #[must_use]
    pub fn subterm_memo_len(&self) -> usize {
        self.memos.terms.as_ref().map_or(0, ShardMap::len)
    }

    /// How many distinct subterms the artifact's arena has interned
    /// across all compiled queries.
    #[must_use]
    pub fn terms_interned(&self) -> usize {
        self.arena.len()
    }

    /// How many `(space, sat set)` entries the shared `Pr` memo holds.
    #[must_use]
    pub fn pr_memo_len(&self) -> usize {
        self.memos.pr.as_ref().map_or(0, ShardMap::len)
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
    /// hash-consed into the artifact's shared DAG and every distinct
    /// subterm's satisfaction set is memoized under its interned id, so
    /// a query stream sharing subterms (the workload `kpa-serve`
    /// batches) pays for each subterm once across all contexts.
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
    use kpa_measure::rat;
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
        assert!(artifact.sat_cache_len() > 0);
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
        let mut kernels = 0;
        for agent in (0..sys.agent_count()).map(AgentId) {
            let plan = artifact.core().sample_plan(sys, agent);
            for space in sys.points().filter_map(|c| plan.space(c)) {
                if seen.insert(Arc::as_ptr(space)) {
                    kernels += space.kernel().expect("dense kernel").heap_bytes();
                }
            }
        }
        assert!(kernels > 0);
        assert!(artifact.approx_resident_bytes() >= kernels as u64);
    }

    #[test]
    fn resident_bytes_count_a_shared_set_once() {
        let artifact = ModelArtifact::new(Arc::new(observed_coins()), Assignment::post());
        let ctx = artifact.ctx();
        let set_bytes = (size_of::<PointSet>() + size_of_val(artifact.all.as_words())) as u64;
        // One new set, held by the formula cache and the subterm memo.
        let before = artifact.approx_resident_bytes();
        let heads = ctx.sat(&Formula::prop("c0=h")).unwrap();
        let grown = artifact.approx_resident_bytes() - before;
        assert!(
            (set_bytes..2 * set_bytes).contains(&grown),
            "{grown} B for one {set_bytes} B set"
        );
        // One sweep files a `Pr`-memo entry per p1 space, every key
        // sharing the sweep's one copy of the set. New sets: the quoted
        // input, that copy, and the answer.
        let before = artifact.approx_resident_bytes();
        ctx.pr_ge_set(AgentId(0), rat!(1 / 2), &heads).unwrap();
        let entries = artifact.pr_memo_len() as u64;
        assert_eq!(entries, 1023);
        let entry = size_of::<((usize, Arc<PointSet>), Rat)>() as u64;
        let grown = artifact.approx_resident_bytes() - before;
        assert!(
            grown < 4 * set_bytes + entries * entry,
            "{grown} B for {entries} entries over 3 sets"
        );
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
