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
//! distinct terms that *share* the id of `φ`. A compile looks each
//! subterm up by reference (a borrowed [`Term`] view over the formula's
//! own strings and the children's ids), so a subterm the arena already
//! holds costs one hash and one lookup, and a [`Term`] is built only
//! when it is new. The arena's index maps each term's hash to its id,
//! so growing it moves ids and rehashes no term.
//!
//! A [`Term::Lit`] leaf carries a raw [`PointSet`], which lets
//! set-level queries (`knows_set` over a computed set, the batched
//! threshold families) intern `K_i ⌜S⌝` and share the same memo the
//! structural DAG uses — the fix that retired the separate
//! `(agent, set)`-keyed knows memo. The leaf holds the evaluator's own
//! `Arc` of the set, so quoting a set costs a reference count, not a
//! copy, plus one hash of its words, taken when it is quoted
//! ([`FormulaArena::quote`]); after that the leaf hashes as that one
//! `u64`, and equal sets still intern to one id.
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
use std::collections::hash_map::Entry;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
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

/// A hasher for keys that are already hashes or dense ids: one
/// multiply per word, so the arena's index and a program's id table
/// never hash a key twice.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A quoted point set: the set, shared by `Arc` with the evaluator's
/// memo entry, and its content hash, taken once when the set is quoted
/// ([`FormulaArena::quote`]) with the arena's own hasher, so equal sets
/// hash equal. Hashing a `Lit` writes that one `u64`; equality compares
/// the hashes first, then the words.
#[derive(Debug, Clone)]
pub(crate) struct Lit {
    hash: u64,
    set: Arc<PointSet>,
}

impl Lit {
    /// The quoted set.
    pub(crate) fn set(&self) -> &Arc<PointSet> {
        &self.set
    }
}

impl PartialEq for Lit {
    fn eq(&self, other: &Lit) -> bool {
        self.hash == other.hash && (Arc::ptr_eq(&self.set, &other.set) || self.set == other.set)
    }
}

impl Eq for Lit {}

impl Hash for Lit {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One interned formula node: a [`Formula`] constructor with [`TermId`]
/// children instead of boxed subtrees, plus the [`Term::Lit`] leaf for
/// raw point sets (which have no `Formula` spelling). Hashed and
/// compared through [`TermRef`], the borrowed view a compile looks
/// terms up by.
#[derive(Debug, Clone)]
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
    /// queries share one subterm memo.
    Lit(Lit),
}

/// A [`Term`] by reference: what a compile builds for each subterm to
/// look it up, so a term that is already interned is never built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TermRef<'a> {
    True,
    Prop(&'a str),
    Not(TermId),
    And(&'a [TermId]),
    Or(&'a [TermId]),
    Knows(AgentId, TermId),
    PrGe(AgentId, Rat, TermId),
    Next(TermId),
    Until(TermId, TermId),
    Common(&'a [AgentId], TermId),
    CommonGe(&'a [AgentId], Rat, TermId),
    Lit(&'a Lit),
}

impl Term {
    fn view(&self) -> TermRef<'_> {
        match self {
            Term::True => TermRef::True,
            Term::Prop(name) => TermRef::Prop(name),
            Term::Not(x) => TermRef::Not(*x),
            Term::And(xs) => TermRef::And(xs),
            Term::Or(xs) => TermRef::Or(xs),
            Term::Knows(i, x) => TermRef::Knows(*i, *x),
            Term::PrGe(i, alpha, x) => TermRef::PrGe(*i, *alpha, *x),
            Term::Next(x) => TermRef::Next(*x),
            Term::Until(x, y) => TermRef::Until(*x, *y),
            Term::Common(group, x) => TermRef::Common(group, *x),
            Term::CommonGe(group, alpha, x) => TermRef::CommonGe(group, *alpha, *x),
            Term::Lit(lit) => TermRef::Lit(lit),
        }
    }
}

impl Term {
    /// Calls `f` on each child, left to right: the order evaluation
    /// visits them.
    fn for_each_child(&self, mut f: impl FnMut(TermId)) {
        match self {
            Term::True | Term::Prop(_) | Term::Lit(_) => {}
            Term::Not(x)
            | Term::Knows(_, x)
            | Term::PrGe(_, _, x)
            | Term::Next(x)
            | Term::Common(_, x)
            | Term::CommonGe(_, _, x) => f(*x),
            Term::And(xs) | Term::Or(xs) => xs.iter().copied().for_each(f),
            Term::Until(x, y) => {
                f(*x);
                f(*y);
            }
        }
    }
}

impl TermRef<'_> {
    fn to_term(self) -> Term {
        match self {
            TermRef::True => Term::True,
            TermRef::Prop(name) => Term::Prop(name.to_string()),
            TermRef::Not(x) => Term::Not(x),
            TermRef::And(xs) => Term::And(xs.to_vec()),
            TermRef::Or(xs) => Term::Or(xs.to_vec()),
            TermRef::Knows(i, x) => Term::Knows(i, x),
            TermRef::PrGe(i, alpha, x) => Term::PrGe(i, alpha, x),
            TermRef::Next(x) => Term::Next(x),
            TermRef::Until(x, y) => Term::Until(x, y),
            TermRef::Common(group, x) => Term::Common(group.to_vec(), x),
            TermRef::CommonGe(group, alpha, x) => Term::CommonGe(group.to_vec(), alpha, x),
            TermRef::Lit(lit) => Term::Lit(lit.clone()),
        }
    }
}

impl PartialEq for Term {
    fn eq(&self, other: &Term) -> bool {
        self.view() == other.view()
    }
}

impl Eq for Term {}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

/// The append-only intern table. Ids are dense in first-intern order,
/// so `terms` is indexed by id. The index maps the low 32 bits of each
/// term's hash to its id, so a growth moves 8-byte entries and rehashes
/// no term; a key is only a hint, confirmed by comparing the terms, and
/// the rare later term whose key an earlier one holds goes to `spill`.
/// The lock is held only while interning (compile time); evaluation
/// never touches it.
#[derive(Debug, Default)]
struct ArenaInner {
    terms: Vec<Arc<Term>>,
    index: IdMap<u32, TermId>,
    spill: Vec<(u32, TermId)>,
}

impl ArenaInner {
    /// Interns the term `view` spells, whose hash is `hash` and whose
    /// children are already interned, tallying whether it was fresh.
    /// The term is built only when it is new.
    fn intern(&mut self, hash: u64, view: TermRef<'_>, stats: &mut InternStats) -> TermId {
        // The index keeps half the hash: equal terms still meet.
        let key = hash as u32;
        let found = match self.index.get(&key) {
            Some(&id) if self.terms[id.index()].view() == view => Some(id),
            Some(_) => self
                .spill
                .iter()
                .find(|&&(k, id)| k == key && self.terms[id.index()].view() == view)
                .map(|&(_, id)| id),
            None => None,
        };
        stats.tally(found.is_none());
        if let Some(id) = found {
            return id;
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("arena outgrew u32 ids"));
        self.terms.push(Arc::new(view.to_term()));
        match self.index.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(_) => self.spill.push((key, id)),
        }
        id
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
    /// Hashes every term and quoted set of this arena.
    hasher: RandomState,
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
        self.lock().terms.len()
    }

    /// Whether no term has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ArenaInner> {
        self.inner.lock().expect("arena lock")
    }

    /// Interns the terms `build` spells under one lock, flushing the
    /// fresh/dedup tallies after it is released.
    fn interning<T>(&self, build: impl FnOnce(&mut Interner<'_>) -> T) -> T {
        let mut stats = InternStats::default();
        let out = build(&mut Interner {
            inner: &mut self.lock(),
            hasher: &self.hasher,
            stats: &mut stats,
        });
        stats.flush();
        out
    }

    /// Compiles `f` into the arena: every distinct subterm is looked up
    /// by reference and interned bottom-up (children before parents,
    /// dedup on structural equality), and the compiled program lists
    /// them in first-visit post-order.
    #[must_use]
    pub fn compile(&self, f: &Formula) -> CompiledFormula {
        self.program(self.intern(f))
    }

    /// Interns `f` and returns its root id, under one lock: each
    /// subterm costs one hash and one lookup, and builds a [`Term`]
    /// only when it is new. The subterms are not listed, so a memo hit
    /// on the root needs nothing more.
    pub(crate) fn intern(&self, f: &Formula) -> TermId {
        self.interning(|interner| interner.compile(f, &mut Vec::new()))
    }

    /// The program of the interned term `root`: its distinct subterms
    /// in first-visit post-order — a depth-first walk of the DAG from
    /// `root`, children left to right, which lists them in the order a
    /// walk of the formula first meets them — each shared with the
    /// arena.
    pub(crate) fn program(&self, root: TermId) -> CompiledFormula {
        fn visit(terms: &[Arc<Term>], id: TermId, prog: &mut CompiledFormula) {
            if prog.at.contains_key(&id) {
                return;
            }
            let term = &terms[id.index()];
            term.for_each_child(|child| visit(terms, child, prog));
            prog.at.insert(id, prog.prog.len());
            prog.prog.push((id, Arc::clone(term)));
        }
        let mut prog = CompiledFormula {
            root,
            prog: Vec::new(),
            at: IdMap::default(),
        };
        visit(&self.lock().terms, root, &mut prog);
        prog
    }

    /// Quotes `set` for the set-level terms: shares the `Arc` and takes
    /// the content hash, once, outside the lock.
    pub(crate) fn quote(&self, set: &Arc<PointSet>) -> Lit {
        Lit {
            hash: self.hasher.hash_one(&**set),
            set: Arc::clone(set),
        }
    }

    /// Interns the set-level term `K_agent ⌜set⌝` — the memo key for
    /// raw-set `knows_set` queries, shared with the structural DAG
    /// whenever a compiled `K_i φ` converges to the same quoted set.
    pub(crate) fn knows_of_set(&self, agent: AgentId, set: &Lit) -> TermId {
        self.interning(|interner| {
            let lit = interner.intern(TermRef::Lit(set));
            interner.intern(TermRef::Knows(agent, lit))
        })
    }

    /// Interns `Pr_agent ≥ α body` for each α of `alphas`: the members
    /// of a threshold family, from the root of its compiled body, or
    /// (with a [`FormulaArena::quote`]d body) their set-level spellings
    /// `Pr_agent ≥ α ⌜S⌝`, the memo keys raw-set sweeps use.
    pub(crate) fn pr_ge_members(
        &self,
        agent: AgentId,
        alphas: &[Rat],
        body: Body<'_>,
    ) -> Vec<TermId> {
        self.interning(|interner| {
            let body = match body {
                Body::Term(id) => id,
                Body::Lit(set) => interner.intern(TermRef::Lit(set)),
            };
            alphas
                .iter()
                .map(|&alpha| interner.intern(TermRef::PrGe(agent, alpha, body)))
                .collect()
        })
    }

    /// The quoted sets of every interned [`Term::Lit`] leaf (for the
    /// resident-bytes gauge).
    pub(crate) fn lits(&self) -> Vec<Arc<PointSet>> {
        self.lock()
            .terms
            .iter()
            .filter_map(|term| match &**term {
                Term::Lit(lit) => Some(Arc::clone(&lit.set)),
                _ => None,
            })
            .collect()
    }

    /// The approximate heap bytes one interned term holds beyond any
    /// quoted set: its shared allocation, its slot and its index entry.
    pub(crate) const TERM_BYTES: usize = size_of::<Term>()
        + 2 * size_of::<usize>()
        + size_of::<Arc<Term>>()
        + size_of::<(u32, TermId)>();
}

/// The body a threshold family's members are interned over.
pub(crate) enum Body<'a> {
    /// A compiled body's root.
    Term(TermId),
    /// A quoted body set.
    Lit(&'a Lit),
}

/// The arena under its lock, for one batch of interning.
struct Interner<'a> {
    inner: &'a mut ArenaInner,
    hasher: &'a RandomState,
    stats: &'a mut InternStats,
}

impl Interner<'_> {
    fn intern(&mut self, view: TermRef<'_>) -> TermId {
        let hash = self.hasher.hash_one(view);
        self.inner.intern(hash, view, self.stats)
    }

    /// Recursive bottom-up interning of `f`'s subterms. `ids` is
    /// scratch for the children of n-ary nodes, shared down the
    /// recursion: each node leaves it as it found it.
    fn compile(&mut self, f: &Formula, ids: &mut Vec<TermId>) -> TermId {
        match f {
            Formula::True => self.intern(TermRef::True),
            Formula::Prop(name) => self.intern(TermRef::Prop(name)),
            Formula::Not(x) => {
                let x = self.compile(x, ids);
                self.intern(TermRef::Not(x))
            }
            Formula::And(xs) | Formula::Or(xs) => {
                let start = ids.len();
                for x in xs {
                    let x = self.compile(x, ids);
                    ids.push(x);
                }
                let children = &ids[start..];
                let view = match f {
                    Formula::And(_) => TermRef::And(children),
                    _ => TermRef::Or(children),
                };
                let id = self.intern(view);
                ids.truncate(start);
                id
            }
            Formula::Knows(i, x) => {
                let x = self.compile(x, ids);
                self.intern(TermRef::Knows(*i, x))
            }
            Formula::PrGe(i, alpha, x) => {
                let x = self.compile(x, ids);
                self.intern(TermRef::PrGe(*i, *alpha, x))
            }
            Formula::Next(x) => {
                let x = self.compile(x, ids);
                self.intern(TermRef::Next(x))
            }
            Formula::Until(x, y) => {
                let hold = self.compile(x, ids);
                let goal = self.compile(y, ids);
                self.intern(TermRef::Until(hold, goal))
            }
            Formula::Common(group, x) => {
                let x = self.compile(x, ids);
                self.intern(TermRef::Common(group, x))
            }
            Formula::CommonGe(group, alpha, x) => {
                let x = self.compile(x, ids);
                self.intern(TermRef::CommonGe(group, *alpha, x))
            }
        }
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

/// One formula compiled against a [`FormulaArena`]: the root id plus
/// every distinct subterm of the formula (in first-visit post-order)
/// with its interned definition, shared with the arena, so evaluation
/// never re-locks the arena.
#[derive(Debug, Clone)]
pub struct CompiledFormula {
    root: TermId,
    prog: Vec<(TermId, Arc<Term>)>,
    /// Each subterm's position in `prog`.
    at: IdMap<TermId, usize>,
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

    /// Subterm `id`'s position in the program and its definition.
    pub(crate) fn def(&self, id: TermId) -> (usize, &Term) {
        let at = self.at[&id];
        (at, &self.prog[at].1)
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
        let a = arena.knows_of_set(AgentId(0), &arena.quote(&set));
        assert_eq!(Arc::strong_count(&set), 2, "the leaf shares the set");
        let b = arena.knows_of_set(AgentId(0), &arena.quote(&Arc::new((*set).clone())));
        assert_eq!(a, b, "an equal set hits the same leaf");
        let c = arena.knows_of_set(AgentId(1), &arena.quote(&set));
        assert_ne!(a, c);
        // Lit + two Knows nodes.
        assert_eq!(arena.len(), 3);
        let half = [rat!(1 / 2)];
        let d = arena.pr_ge_members(AgentId(0), &half, Body::Lit(&arena.quote(&set)));
        assert_ne!(a, d[0]);
        assert_eq!(arena.len(), 4, "the Lit leaf is shared");
    }

    /// Counts the bytes a `Hash` impl writes.
    #[derive(Default)]
    struct CountingHasher(usize);

    impl Hasher for CountingHasher {
        fn finish(&self) -> u64 {
            0
        }

        fn write(&mut self, bytes: &[u8]) {
            self.0 += bytes.len();
        }
    }

    #[test]
    fn a_quoted_set_hashes_as_one_word() {
        // 24,576 points: a 384-word set, as on `async-coins:11`.
        let index = Arc::new(kpa_system::PointIndex::new(vec![2048], 11));
        let set = Arc::new(PointSet::full(index));
        assert_eq!(set.as_words().len(), 384);
        let arena = FormulaArena::new();
        let mut h = CountingHasher::default();
        Term::Lit(arena.quote(&set)).hash(&mut h);
        // The discriminant and the content hash, whatever the set's size.
        assert!(
            h.0 <= 16,
            "hashing a quoted 384-word set wrote {} bytes",
            h.0
        );
        // Equal sets, quoted apart, hash and compare equal.
        let copy = Arc::new((*set).clone());
        assert_eq!(Term::Lit(arena.quote(&set)), Term::Lit(arena.quote(&copy)));
    }

    #[test]
    fn a_compile_finds_repeats_by_reference() {
        let arena = FormulaArena::new();
        let p = Formula::prop("p");
        let f = Formula::and([
            p.clone(),
            Formula::or([p.clone(), p.clone().not()]),
            p.clone(),
        ]);
        let first = arena.compile(&f);
        // p, ¬p, the ∨, the ∧.
        assert_eq!(first.len(), 4);
        assert_eq!(arena.len(), 4);
        let again = arena.compile(&f);
        assert_eq!(again.subterm_ids(), first.subterm_ids());
        assert_eq!(arena.len(), 4, "a repeat builds no term");
        // Every subterm's definition is found by id.
        for (k, id) in again.subterm_ids().into_iter().enumerate() {
            assert_eq!(again.def(id).0, k);
        }
    }
}
