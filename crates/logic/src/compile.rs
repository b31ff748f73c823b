//! Hash-consed formula compiler: the shared interned query DAG.
//!
//! Repeated queries against one model re-walk structurally identical
//! `Formula` trees: a service batch asking about `K_1(p ∧ q)` fifty
//! ways pays fifty traversals of the same subterm, and the pre-compiler
//! kernel bench showed a per-class `Pr` memo (since deleted) winning
//! ≈ nothing (`1.008×`) because the AST walk around it dominated. This module interns formulas into
//! a [`FormulaArena`] — a shared, append-only table of distinct
//! subterms with stable [`TermId`]s — so structural equality becomes
//! integer-id equality and the evaluator can memoize satisfaction sets
//! *per subterm* (the unified `logic.subterm_memo` in `EvalMemos`),
//! not per whole formula.
//!
//! Interning is structural and bottom-up: two formulas share a subterm
//! id exactly when the subterms are equal ASTs — agents, thresholds,
//! and child order included, so `Pr_1 ≥ 1/4 φ` and `Pr_1 ≥ 1/2 φ` are
//! distinct terms that *share* the id of `φ`. A [`Term::Lit`] leaf
//! carries a raw [`PointSet`], which lets set-level queries
//! (`knows_set` over a computed set, the batched threshold families)
//! intern `K_i ⌜S⌝` and share the same memo the structural DAG uses —
//! the fix that retired the separate `(agent, set)`-keyed knows memo.
//! The leaf holds the evaluator's own `Arc` of the set, so quoting a
//! set costs a reference count, not a copy; leaves still hash and
//! compare by value, so equal sets intern to one id.
//!
//! [`FormulaArena::compile`] returns a [`CompiledFormula`]: the root id
//! plus the formula's distinct subterms in first-visit post-order. The
//! evaluator (see `artifact.rs`) recurses over those definitions in
//! exactly the order the tree walker would visit them, so results
//! *and errors* are bit-identical by construction — pinned by
//! `tests/compile_differential.rs`.

use crate::formula::Formula;
use kpa_measure::Rat;
use kpa_system::{AgentId, PointSet};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The stable identity of one interned subterm in a [`FormulaArena`].
///
/// Ids are dense indices, assigned in first-intern order and never
/// reused or invalidated (the arena is append-only), so they are valid
/// memo keys for the life of the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The raw arena index (diagnostics only).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned formula node: a [`Formula`] constructor with [`TermId`]
/// children instead of boxed subtrees, plus the [`Term::Lit`] leaf for
/// raw point sets (which have no `Formula` spelling).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Term {
    True,
    Prop(String),
    Not(TermId),
    And(Vec<TermId>),
    Or(Vec<TermId>),
    Knows(AgentId, TermId),
    PrGe(AgentId, Rat, TermId),
    Next(TermId),
    Until(TermId, TermId),
    Common(Vec<AgentId>, TermId),
    CommonGe(Vec<AgentId>, Rat, TermId),
    /// A literal point set: the "quoted" sets behind raw `knows_set` /
    /// threshold-family queries, interned so set-level and structural
    /// queries share one subterm memo. Shared with the evaluator's memo
    /// entry for the set; hashed and compared by value.
    Lit(Arc<PointSet>),
}

/// The append-only intern table: each distinct term with its id. Ids
/// are dense in first-intern order, so the table's length is the next
/// id. The lock is held only while interning (compile time);
/// evaluation never touches it.
#[derive(Debug, Default)]
struct ArenaInner {
    index: HashMap<Term, TermId>,
}

impl ArenaInner {
    /// Interns one term whose children are already interned, returning
    /// `(id, was_fresh)`.
    fn intern(&mut self, term: Term) -> (TermId, bool) {
        if let Some(&id) = self.index.get(&term) {
            return (id, false);
        }
        let id = TermId(u32::try_from(self.index.len()).expect("arena outgrew u32 ids"));
        self.index.insert(term, id);
        (id, true)
    }
}

/// A shared hash-consing arena for formula subterms.
///
/// Every [`ModelArtifact`](crate::ModelArtifact) and
/// [`Model`](crate::Model) owns one; the arena can also stand alone for
/// structural-equality checks (two formulas compile to the same root
/// [`TermId`] iff they are equal ASTs).
///
/// # Examples
///
/// ```
/// use kpa_logic::{Formula, FormulaArena};
/// use kpa_system::AgentId;
///
/// let arena = FormulaArena::new();
/// let pq = Formula::and([Formula::prop("p"), Formula::prop("q")]);
/// let a = arena.compile(&pq.clone().known_by(AgentId(0)));
/// let b = arena.compile(&pq.clone().known_by(AgentId(0)).not());
/// // Hash-consing: the shared subterm K_0(p ∧ q) is one arena entry.
/// assert_eq!(a.root(), b.subterm_ids()[b.len() - 2]);
/// ```
#[derive(Debug, Default)]
pub struct FormulaArena {
    inner: Mutex<ArenaInner>,
}

impl FormulaArena {
    /// A fresh, empty arena.
    #[must_use]
    pub fn new() -> FormulaArena {
        FormulaArena::default()
    }

    /// How many distinct subterms have been interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("arena lock").index.len()
    }

    /// Whether no term has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compiles `f` into the arena: every distinct subterm is interned
    /// bottom-up (children before parents, dedup on structural
    /// equality) and the compiled program lists them in first-visit
    /// post-order. The arena lock is taken once for the whole compile.
    #[must_use]
    pub fn compile(&self, f: &Formula) -> CompiledFormula {
        let mut inner = self.inner.lock().expect("arena lock");
        let mut prog = Vec::new();
        let mut stats = InternStats::default();
        let root = compile_into(&mut inner, f, &mut prog, &mut stats);
        drop(inner);
        stats.flush();
        CompiledFormula { root, prog }
    }

    /// Interns the set-level term `K_agent ⌜set⌝` — the memo key for
    /// raw-set `knows_set` queries, shared with the structural DAG
    /// whenever a compiled `K_i φ` converges to the same quoted set.
    pub(crate) fn knows_of_set(&self, agent: AgentId, set: &Arc<PointSet>) -> TermId {
        let mut inner = self.inner.lock().expect("arena lock");
        let mut stats = InternStats::default();
        let (lit, fresh) = inner.intern(Term::Lit(Arc::clone(set)));
        stats.tally(fresh);
        let (id, fresh) = inner.intern(Term::Knows(agent, lit));
        stats.tally(fresh);
        drop(inner);
        stats.flush();
        id
    }

    /// Interns the set-level term `Pr_agent ≥ alpha ⌜set⌝`, the memo
    /// key under which the batched family evaluator stores each
    /// threshold's answer.
    pub(crate) fn pr_ge_of_set(&self, agent: AgentId, alpha: Rat, set: &Arc<PointSet>) -> TermId {
        let mut inner = self.inner.lock().expect("arena lock");
        let mut stats = InternStats::default();
        let (lit, fresh) = inner.intern(Term::Lit(Arc::clone(set)));
        stats.tally(fresh);
        let (id, fresh) = inner.intern(Term::PrGe(agent, alpha, lit));
        stats.tally(fresh);
        drop(inner);
        stats.flush();
        id
    }

    /// The quoted sets of every interned [`Term::Lit`] leaf (for the
    /// resident-bytes gauge).
    pub(crate) fn lits(&self) -> Vec<Arc<PointSet>> {
        let inner = self.inner.lock().expect("arena lock");
        inner
            .index
            .keys()
            .filter_map(|term| match term {
                Term::Lit(set) => Some(Arc::clone(set)),
                _ => None,
            })
            .collect()
    }
}

/// Fresh/dedup intern tallies, flushed to the trace registry *after*
/// the arena lock is released.
#[derive(Default)]
struct InternStats {
    fresh: u64,
    deduped: u64,
}

impl InternStats {
    fn tally(&mut self, fresh: bool) {
        if fresh {
            self.fresh += 1;
        } else {
            self.deduped += 1;
        }
    }

    fn flush(&self) {
        kpa_trace::count!("logic.terms_interned", self.fresh);
        kpa_trace::count!("logic.terms_deduped", self.deduped);
    }
}

/// Recursive bottom-up interning; pushes each subterm onto `prog` the
/// first time *this compile* sees its id (children always land before
/// parents, left to right).
fn compile_into(
    inner: &mut ArenaInner,
    f: &Formula,
    prog: &mut Vec<(TermId, Term)>,
    stats: &mut InternStats,
) -> TermId {
    let term = match f {
        Formula::True => Term::True,
        Formula::Prop(name) => Term::Prop(name.clone()),
        Formula::Not(x) => Term::Not(compile_into(inner, x, prog, stats)),
        Formula::And(xs) => Term::And(
            xs.iter()
                .map(|x| compile_into(inner, x, prog, stats))
                .collect(),
        ),
        Formula::Or(xs) => Term::Or(
            xs.iter()
                .map(|x| compile_into(inner, x, prog, stats))
                .collect(),
        ),
        Formula::Knows(i, x) => Term::Knows(*i, compile_into(inner, x, prog, stats)),
        Formula::PrGe(i, alpha, x) => Term::PrGe(*i, *alpha, compile_into(inner, x, prog, stats)),
        Formula::Next(x) => Term::Next(compile_into(inner, x, prog, stats)),
        Formula::Until(x, y) => {
            let hold = compile_into(inner, x, prog, stats);
            let goal = compile_into(inner, y, prog, stats);
            Term::Until(hold, goal)
        }
        Formula::Common(group, x) => {
            Term::Common(group.clone(), compile_into(inner, x, prog, stats))
        }
        Formula::CommonGe(group, alpha, x) => {
            Term::CommonGe(group.clone(), *alpha, compile_into(inner, x, prog, stats))
        }
    };
    let (id, fresh) = inner.intern(term.clone());
    stats.tally(fresh);
    if !prog.iter().any(|(seen, _)| *seen == id) {
        prog.push((id, term));
    }
    id
}

/// One formula compiled against a [`FormulaArena`]: the root id plus
/// every distinct subterm of the formula (in first-visit post-order)
/// with its interned definition, so evaluation never re-locks the
/// arena.
#[derive(Debug, Clone)]
pub struct CompiledFormula {
    root: TermId,
    prog: Vec<(TermId, Term)>,
}

impl CompiledFormula {
    /// The interned id of the whole formula.
    #[must_use]
    pub fn root(&self) -> TermId {
        self.root
    }

    /// How many *distinct* subterms the formula compiled to — strictly
    /// less than `Formula::size()` whenever hash-consing deduplicated a
    /// repeated subtree.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prog.len()
    }

    /// Whether the program is empty (never: every formula has a root).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prog.is_empty()
    }

    /// The distinct subterm ids in first-visit post-order (the root is
    /// last).
    #[must_use]
    pub fn subterm_ids(&self) -> Vec<TermId> {
        self.prog.iter().map(|(id, _)| *id).collect()
    }

    /// The id → definition table the evaluator recurses over.
    pub(crate) fn defs(&self) -> HashMap<TermId, &Term> {
        self.prog.iter().map(|(id, term)| (*id, term)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpa_measure::rat;

    #[test]
    fn structural_dedup_shares_ids() {
        let arena = FormulaArena::new();
        let pq = Formula::and([Formula::prop("p"), Formula::prop("q")]);
        let k = pq.clone().known_by(AgentId(1));
        let a = arena.compile(&k);
        let b = arena.compile(&Formula::or([k.clone(), k.clone().not()]));
        // The second compile re-finds K_1(p ∧ q) — same id, no growth
        // beyond the two genuinely new nodes (¬K and the ∨).
        assert!(b.subterm_ids().contains(&a.root()));
        assert_eq!(arena.len(), a.len() + 2);
    }

    #[test]
    fn alpha_and_order_are_significant() {
        let arena = FormulaArena::new();
        let phi = Formula::prop("p");
        let lo = arena.compile(&phi.clone().pr_ge(AgentId(0), rat!(1 / 4)));
        let hi = arena.compile(&phi.clone().pr_ge(AgentId(0), rat!(1 / 2)));
        assert_ne!(lo.root(), hi.root(), "thresholds distinguish terms");
        // …but the shared body φ is one entry.
        assert_eq!(lo.subterm_ids()[0], hi.subterm_ids()[0]);
        let pq = arena.compile(&Formula::and([Formula::prop("p"), Formula::prop("q")]));
        let qp = arena.compile(&Formula::and([Formula::prop("q"), Formula::prop("p")]));
        assert_ne!(pq.root(), qp.root(), "child order distinguishes terms");
    }

    #[test]
    fn program_is_first_visit_post_order() {
        let arena = FormulaArena::new();
        let p = Formula::prop("p");
        let f = Formula::and([p.clone(), p.clone().not(), p.clone()]);
        let compiled = arena.compile(&f);
        let ids = compiled.subterm_ids();
        // Distinct subterms only: p, ¬p, the ∧ — with children first.
        assert_eq!(ids.len(), 3);
        assert_eq!(compiled.root(), ids[2]);
        assert_eq!(f.size(), 5, "tree size counts the repeated p");
    }

    #[test]
    fn set_level_terms_share_the_lit() {
        let arena = FormulaArena::new();
        let set = Arc::new(PointSet::empty(Arc::new(kpa_system::PointIndex::empty())));
        let a = arena.knows_of_set(AgentId(0), &set);
        assert_eq!(Arc::strong_count(&set), 2, "the leaf shares the set");
        let b = arena.knows_of_set(AgentId(0), &Arc::new((*set).clone()));
        assert_eq!(a, b, "an equal set hits the same leaf");
        let c = arena.knows_of_set(AgentId(1), &set);
        assert_ne!(a, c);
        // Lit + two Knows nodes.
        assert_eq!(arena.len(), 3);
        let d = arena.pr_ge_of_set(AgentId(0), rat!(1 / 2), &set);
        assert_ne!(a, d);
        assert_eq!(arena.len(), 4, "the Lit leaf is shared");
    }
}
