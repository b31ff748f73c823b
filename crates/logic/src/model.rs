//! Model checking `L(Φ)` over finite systems — the classic borrowing
//! facade.
//!
//! A [`Model`] pairs a [`ProbAssignment`] (which already pairs a system
//! with a sample-space assignment) with a memoizing evaluator that maps
//! each formula to the exact set of points satisfying it. All semantics
//! follow Sections 2, 5, and 8 of the paper; the only departure forced
//! by finite horizons is the temporal fragment, which uses finite-trace
//! semantics: `◯φ` is false at the horizon, and `φ U ψ` requires `ψ`
//! within the horizon.
//!
//! Satisfaction sets are dense [`PointSet`] bitsets, so the Boolean
//! connectives are word-wise loops, `Kᵢ` is a subset scan over the
//! agent's cached local classes, `◯` is a word shift
//! ([`PointSet::precursors`]), and `U` is a least-fixpoint of shifts —
//! no per-point tree walking anywhere in the evaluator.
//!
//! The two scans that dominate model checking — the per-class subset
//! test behind `Kᵢ` and the per-class space sweep behind `Prᵢ ≥ α` —
//! are plain loops on the calling thread (see `DESIGN.md`, "Sweeps on
//! the calling thread").
//!
//! # Facade status
//!
//! Since the artifact/context split (DESIGN §3.2f), `Model` is a thin
//! facade over the same shared evaluator that powers
//! [`ModelArtifact`](crate::ModelArtifact) + [`EvalCtx`](crate::EvalCtx)
//! — one `EvalView` implementation serves both, so results are
//! bit-identical by construction. New code that shares one system
//! across threads should build an `Arc<ModelArtifact>` and mint
//! per-thread contexts; `Model` remains first-class for single-system
//! scripts and for differential tests that need *per-model* memo
//! scoping (every `Model` owns fresh memos, where the artifact shares
//! them process-wide). The facade is slated to become a deprecated
//! re-export of the artifact API once downstream callers migrate.

use crate::artifact::{EvalMemos, EvalView};
use crate::compile::{CompiledFormula, FormulaArena};
use crate::error::LogicError;
use crate::formula::Formula;
use kpa_assign::ProbAssignment;
use kpa_measure::Rat;
use kpa_system::{AgentId, PointId};
use std::sync::Arc;

/// The set of points satisfying a formula (re-exported from
/// `kpa-system`'s dense bitset kernel).
pub use kpa_system::PointSet;

/// A memoizing model checker for one system and probability assignment.
///
/// # Examples
///
/// ```
/// use kpa_measure::rat;
/// use kpa_system::{AgentId, PointId, ProtocolBuilder, TreeId};
/// use kpa_assign::{Assignment, ProbAssignment};
/// use kpa_logic::{Formula, Model};
///
/// let sys = ProtocolBuilder::new(["p1", "p2", "p3"])
///     .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["p3"])
///     .build()?;
/// let post = ProbAssignment::new(&sys, Assignment::post());
/// let model = Model::new(&post);
///
/// // With the posterior assignment, p1 knows Pr(heads) = 1/2 at time 1.
/// let p1 = AgentId(0);
/// let f = Formula::prop("c=h").k_interval(p1, rat!(1 / 2), rat!(1 / 2));
/// let c = PointId { tree: TreeId(0), run: 0, time: 1 };
/// assert!(model.holds_at(&f, c)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Model<'a, 's> {
    pa: &'a ProbAssignment<'s>,
    all: Arc<PointSet>,
    /// Per-model memos (the tree walker's formula cache, the unified
    /// per-subterm memo). Owning them per model — where the artifact shares them
    /// across threads — is what gives the differential suites
    /// memo-scoped observability (`subterm_memo_len`).
    memos: EvalMemos,
    /// Per-model hash-consing arena for the compiled query DAG
    /// ([`Model::compile`], [`Model::sat_compiled`], and the interned
    /// set-level keys behind `knows_set`/`pr_ge_set` memoization).
    arena: FormulaArena,
    /// Whether `pr_ge_set` resolves spaces through the assignment's
    /// batched [`kpa_assign::SamplePlan`] table. The table itself lives
    /// in the assignment's [`kpa_assign::AssignCore`] — the old
    /// model-level plan mutex was consolidated away.
    plan: bool,
}

impl<'a, 's> Model<'a, 's> {
    /// Builds a model checker over the given probability assignment,
    /// with the per-subterm memo and the sample plan enabled.
    #[must_use]
    pub fn new(pa: &'a ProbAssignment<'s>) -> Model<'a, 's> {
        Model::with_memos(pa, true, true, true)
    }

    /// Builds a model checker with each knob explicitly on or off:
    /// `knows` gates the unified per-subterm satisfaction-set memo
    /// (covering both the compiled DAG and raw-set
    /// `knows_set`/`pr_ge_set` queries). It is the compiled path's only
    /// memo, so with it off [`Model::sat_compiled`] and
    /// [`Model::pr_ge_family`] cache nothing (a repeat re-evaluates and
    /// returns a fresh `Arc`), while the tree walker [`Model::sat`]
    /// keeps its formula cache. `plan` gates the per-agent
    /// batched [`kpa_assign::SamplePlan`] that replaces per-point
    /// sample extraction with a sweep over its classes. `pr` is
    /// ignored: the per-class `Pr` memo it switched is deleted, since a
    /// class costs less to measure than to look up. All four
    /// combinations of `knows` and `plan` produce
    /// bit-identical satisfaction sets (pinned by
    /// `tests/memo_consistency.rs`, `tests/compile_differential.rs` and
    /// `tests/plan_differential.rs`); the knobs exist for differential
    /// testing and benches.
    #[must_use]
    pub fn with_memos(
        pa: &'a ProbAssignment<'s>,
        knows: bool,
        _pr: bool,
        plan: bool,
    ) -> Model<'a, 's> {
        let all = Arc::new(pa.system().full_points());
        Model {
            pa,
            all,
            memos: EvalMemos::new(knows),
            arena: FormulaArena::new(),
            plan,
        }
    }

    /// The view this facade evaluates through — the same `EvalView`
    /// the artifact's contexts use, over this model's own memos.
    fn view(&self) -> EvalView<'_> {
        EvalView {
            sys: self.pa.system(),
            core: self.pa.core(),
            all: &self.all,
            memos: &self.memos,
            arena: &self.arena,
            plan: self.plan,
        }
    }

    /// Whether the unified per-subterm memo — which subsumed the old
    /// cross-formula `knows_set` memo — is enabled (the `knows` knob of
    /// [`Model::with_memos`]).
    #[must_use]
    pub fn knows_memo_enabled(&self) -> bool {
        self.memos.terms.is_some()
    }

    /// How many interned-subterm entries the unified memo holds: the
    /// compiled roots, leaves and modal and temporal nodes (a `¬`, `∧`
    /// or `∨` below a root is recomputed, not kept) plus the set-level
    /// `K_i ⌜S⌝` / `Pr_i ≥ α ⌜S⌝` queries that replaced the
    /// `(agent, set)` knows keys.
    #[must_use]
    pub fn subterm_memo_len(&self) -> usize {
        self.memos.terms.as_ref().map_or(0, |m| m.len())
    }

    /// How many distinct subterms this model's arena has interned.
    #[must_use]
    pub fn terms_interned(&self) -> usize {
        self.arena.len()
    }

    /// Whether the per-agent sample plan is enabled.
    #[must_use]
    pub fn plan_enabled(&self) -> bool {
        self.plan
    }

    /// How many agents have a built plan available to this model (the
    /// plans live in the assignment's shared core; a plan-disabled
    /// model never consults or builds them, so it reports zero).
    #[must_use]
    pub fn plan_len(&self) -> usize {
        if self.plan {
            self.pa.core().plans_built()
        } else {
            0
        }
    }

    /// The probability assignment being checked against.
    #[must_use]
    pub fn assignment(&self) -> &'a ProbAssignment<'s> {
        self.pa
    }

    /// The exact set of points satisfying `f`.
    ///
    /// # Errors
    ///
    /// [`LogicError::UnknownProp`] for unregistered propositions,
    /// [`LogicError::EmptyGroup`] for `C_G` over an empty `G`, and
    /// [`LogicError::Assign`] if a probability space cannot be built
    /// (REQ violations of the assignment).
    pub fn sat(&self, f: &Formula) -> Result<Arc<PointSet>, LogicError> {
        self.view().sat(f)
    }

    /// Whether `f` holds at the point `c`.
    ///
    /// # Errors
    ///
    /// As [`Model::sat`].
    pub fn holds_at(&self, f: &Formula, c: PointId) -> Result<bool, LogicError> {
        Ok(self.sat(f)?.contains(c))
    }

    /// Whether `f` holds at *every* point of the system — the form of
    /// specification used for coordinated attack in Section 8.
    ///
    /// # Errors
    ///
    /// As [`Model::sat`].
    pub fn holds_everywhere(&self, f: &Formula) -> Result<bool, LogicError> {
        Ok(*self.sat(f)? == *self.all)
    }

    /// The `(inner, outer)` probability bounds agent `i` assigns to `f`
    /// at `c` under this model's assignment.
    ///
    /// # Errors
    ///
    /// As [`Model::sat`].
    pub fn prob_interval(
        &self,
        agent: AgentId,
        c: PointId,
        f: &Formula,
    ) -> Result<(Rat, Rat), LogicError> {
        let sat = self.sat(f)?;
        Ok(self.pa.interval(agent, c, &*sat)?)
    }

    /// `Kᵢ S`: the points where agent `i` knows the *set* `S` (every
    /// point it considers possible lies in `S`). Exposed because the
    /// betting machinery of Sections 6–7 quantifies over raw point sets.
    ///
    /// One word-wise subset test per local class: a class is either
    /// absorbed whole or not at all. Results are memoized per
    /// `(agent, S)` when the model's memo is enabled, so the `C_G`
    /// fixpoints — which re-ask `Kᵢ` about the same converging sets —
    /// pay for each distinct scan once across *all* formulas.
    #[must_use]
    pub fn knows_set(&self, agent: AgentId, sat: &PointSet) -> PointSet {
        Arc::unwrap_or_clone(self.view().knows_set(agent, &Arc::new(sat.clone())))
    }

    /// `knows_set` without consulting or filling the memo: the direct
    /// per-class subset scan over the agent's local classes.
    #[must_use]
    pub fn knows_set_fresh(&self, agent: AgentId, sat: &PointSet) -> PointSet {
        self.view().knows_set_fresh(agent, sat)
    }

    /// `Prᵢ(S) ≥ α` as a set: the points `c` where the inner measure of
    /// `S` in agent `i`'s space at `c` is at least `α`.
    ///
    /// Uniform assignments repeat one space across each whole class;
    /// the measure query runs *once per distinct space*, not once per
    /// point. When the sample plan is enabled the sweep visits the
    /// agent's batched [`kpa_assign::SamplePlan`] a class at a time
    /// (same `Arc`s as the naive path) and ORs each passing class's
    /// points into the set at once; points the plan does not cover
    /// fall back to the per-point path in ascending order, reproducing
    /// its exact errors. The set is bit-identical to the unplanned
    /// sweep.
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
        self.view()
            .pr_ge_set(agent, alpha, &Arc::new(sat.clone()))
            .map(Arc::unwrap_or_clone)
    }

    /// Compiles `f` into this model's hash-consing arena without
    /// evaluating it. Compiling is idempotent and structural: equal
    /// ASTs get equal root [`kpa_logic::TermId`](crate::TermId)s, and
    /// shared subtrees intern once.
    #[must_use]
    pub fn compile(&self, f: &Formula) -> CompiledFormula {
        self.arena.compile(f)
    }

    /// [`Model::sat`] through the formula compiler: hash-cons `f` into
    /// the interned DAG and evaluate per distinct subterm, memoizing
    /// the root's, each leaf's and each modal or temporal subterm's
    /// satisfaction set under its [`crate::TermId`].
    /// Bit-identical to the tree walker by construction (same arm
    /// logic, same visit order, same error discovery); the knob exists
    /// so `tests/compile_differential.rs` can prove exactly that.
    /// [`EvalCtx::sat`](crate::EvalCtx::sat) always takes this path.
    ///
    /// # Errors
    ///
    /// As [`Model::sat`].
    pub fn sat_compiled(&self, f: &Formula) -> Result<Arc<PointSet>, LogicError> {
        self.view().sat_compiled(f)
    }

    /// Answers the whole threshold family `Pr_agent ≥ α₁…α_k f` in one
    /// equivalence-class sweep: evaluate the body once, compute each
    /// distinct sample space's inner measure once, threshold it k
    /// times, and return the k satisfaction sets in `alphas` order.
    /// Bit-identical to k serial [`Model::sat`] calls on
    /// `f.pr_ge(agent, αⱼ)` — the measures are exact rationals, so
    /// per-class thresholding commutes with the sweep — and every
    /// member lands in the same memos the serial path would fill.
    ///
    /// # Errors
    ///
    /// As [`Model::sat`].
    pub fn pr_ge_family(
        &self,
        agent: AgentId,
        alphas: &[Rat],
        f: &Formula,
    ) -> Result<Vec<Arc<PointSet>>, LogicError> {
        self.view().pr_ge_family(agent, alphas, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpa_assign::Assignment;
    use kpa_measure::rat;
    use kpa_system::{ProtocolBuilder, System, TreeId};

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
    fn boolean_semantics() {
        let sys = intro_system();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&pa);
        let heads = Formula::prop("c=h");
        let all = sys.point_count();
        assert_eq!(m.sat(&Formula::True).unwrap().len(), all);
        assert_eq!(m.sat(&Formula::falsum()).unwrap().len(), 0);
        assert_eq!(m.sat(&heads).unwrap().len(), 1);
        assert_eq!(m.sat(&heads.clone().not()).unwrap().len(), all - 1);
        assert_eq!(
            m.sat(&Formula::and([heads.clone(), heads.clone().not()]))
                .unwrap()
                .len(),
            0
        );
        assert_eq!(
            m.sat(&Formula::or([heads.clone(), heads.clone().not()]))
                .unwrap()
                .len(),
            all
        );
        assert!(m.holds_everywhere(&heads.clone().implies(heads)).unwrap());
    }

    #[test]
    fn unknown_prop_is_reported() {
        let sys = intro_system();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&pa);
        assert!(matches!(
            m.sat(&Formula::prop("nope")),
            Err(LogicError::UnknownProp { .. })
        ));
    }

    #[test]
    fn knowledge_semantics() {
        let sys = intro_system();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&pa);
        let heads = Formula::prop("c=h");
        // p3 saw the coin: it knows heads exactly at the heads point.
        let k3 = heads.clone().known_by(AgentId(2));
        assert_eq!(*m.sat(&k3).unwrap(), sys.point_set([pt(0, 0, 1)]));
        // p1 never knows heads.
        let k1 = heads.known_by(AgentId(0));
        assert!(m.sat(&k1).unwrap().is_empty());
    }

    #[test]
    fn probability_semantics_post_vs_fut() {
        let sys = intro_system();
        let heads = Formula::prop("c=h");
        let p1 = AgentId(0);

        let post = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&post);
        // K₁(Pr₁(heads) = 1/2) at time 1 — the "posterior" answer.
        let f = heads.clone().k_interval(p1, rat!(1 / 2), rat!(1 / 2));
        assert!(m.holds_at(&f, pt(0, 0, 1)).unwrap());
        assert!(m.holds_at(&f, pt(0, 1, 1)).unwrap());

        let fut = ProbAssignment::new(&sys, Assignment::fut());
        let m = Model::new(&fut);
        // K₁(Pr₁(heads) = 1 ∨ Pr₁(heads) = 0) — the "future" answer:
        // the disjunction of the two probability claims is known…
        let pr1 = heads.clone().pr_ge(p1, Rat::ONE);
        let pr0 = heads.clone().not().pr_ge(p1, Rat::ONE);
        let disj = Formula::or([pr1.clone(), pr0.clone()]).known_by(p1);
        assert!(m.holds_at(&disj, pt(0, 0, 1)).unwrap());
        assert!(m.holds_at(&disj, pt(0, 1, 1)).unwrap());
        // …but p1 does not know WHICH disjunct holds…
        assert!(!m.holds_at(&pr1.known_by(p1), pt(0, 0, 1)).unwrap());
        assert!(!m.holds_at(&pr0.known_by(p1), pt(0, 1, 1)).unwrap());
        // …and certainly not that the probability is 1/2.
        let k_pr_half = heads.k_alpha(p1, rat!(1 / 2));
        assert!(!m.holds_at(&k_pr_half, pt(0, 1, 1)).unwrap());
    }

    #[test]
    fn temporal_semantics() {
        let sys = intro_system();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&pa);
        let heads = Formula::prop("c=h");
        // ◯heads holds at time 0 of the heads run only.
        assert_eq!(
            *m.sat(&heads.clone().next()).unwrap(),
            sys.point_set([pt(0, 0, 0)])
        );
        // ◇heads holds at both points of the heads run.
        assert_eq!(
            *m.sat(&heads.clone().eventually()).unwrap(),
            sys.point_set([pt(0, 0, 0), pt(0, 0, 1)])
        );
        // □(¬heads) holds everywhere on the tails run.
        assert_eq!(
            *m.sat(&heads.clone().not().always()).unwrap(),
            sys.point_set([pt(0, 1, 0), pt(0, 1, 1)])
        );
        // Until: ¬heads U heads ≡ ◇heads in this two-step system.
        assert_eq!(
            m.sat(&heads.clone().not().until(heads.clone())).unwrap(),
            m.sat(&heads.eventually()).unwrap()
        );
    }

    #[test]
    fn common_knowledge_semantics() {
        let sys = intro_system();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&pa);
        let g = [AgentId(0), AgentId(1), AgentId(2)];
        // "true" is trivially common knowledge.
        assert!(m.holds_everywhere(&Formula::True.common(g)).unwrap());
        // heads is known to p3 but not common knowledge (p1 doesn't know).
        let heads = Formula::prop("c=h");
        assert!(m.sat(&heads.clone().common(g)).unwrap().is_empty());
        // Empty groups are rejected.
        assert!(matches!(
            m.sat(&heads.common(Vec::<AgentId>::new())),
            Err(LogicError::EmptyGroup)
        ));
    }

    #[test]
    fn probabilistic_common_knowledge() {
        let sys = intro_system();
        let prior = ProbAssignment::new(&sys, Assignment::prior());
        let m = Model::new(&prior);
        let g = [AgentId(0), AgentId(1)];
        let heads = Formula::prop("c=h");
        // Under the prior, heads has probability 1/2 at every point, so
        // C^{1/2}_G(◇heads ∨ heads-ever): use the run-fact ◇heads∨heads.
        let heads_run = Formula::or([heads.clone().eventually(), heads]);
        let f = heads_run.common_alpha(g, rat!(1 / 2));
        assert!(m.holds_everywhere(&f).unwrap());
        // But not with any α > 1/2.
        let sys2 = intro_system();
        let prior2 = ProbAssignment::new(&sys2, Assignment::prior());
        let m2 = Model::new(&prior2);
        let heads2 = Formula::prop("c=h");
        let hr2 = Formula::or([heads2.clone().eventually(), heads2]);
        let g2 = [AgentId(0), AgentId(1)];
        assert!(m2
            .sat(&hr2.common_alpha(g2, rat!(2 / 3)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn prob_interval_convenience() {
        let sys = intro_system();
        let post = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&post);
        let (lo, hi) = m
            .prob_interval(AgentId(0), pt(0, 0, 1), &Formula::prop("c=h"))
            .unwrap();
        assert_eq!((lo, hi), (rat!(1 / 2), rat!(1 / 2)));
    }

    #[test]
    fn caching_returns_shared_sets() {
        let sys = intro_system();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let m = Model::new(&pa);
        let f = Formula::prop("c=h").known_by(AgentId(2));
        let a = m.sat(&f).unwrap();
        let b = m.sat(&f).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn knows_memo_matches_fresh_fixpoints() {
        let sys = intro_system();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let with = Model::new(&pa);
        let without = Model::with_memos(&pa, false, true, true);
        assert!(with.knows_memo_enabled());
        assert!(!without.knows_memo_enabled());
        let g = [AgentId(0), AgentId(1), AgentId(2)];
        let f = Formula::prop("c=h").eventually().common(g);
        let a = with.sat(&f).unwrap();
        let b = without.sat(&f).unwrap();
        assert_eq!(*a, *b);
        assert!(with.subterm_memo_len() > 0, "C_G fixpoint fills the memo");
        assert_eq!(without.subterm_memo_len(), 0);
        // A second, memo-hitting evaluation still equals a fresh scan.
        for agent in g {
            assert_eq!(with.knows_set(agent, &a), with.knows_set_fresh(agent, &a));
        }
    }
}
