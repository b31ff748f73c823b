//! Differential suite for the PR 8 formula compiler (DESIGN §3.2h).
//!
//! `EvalCtx::sat` evaluates through a hash-consed query DAG: formulas
//! are interned into a per-model [`FormulaArena`], every distinct
//! subterm gets a stable `TermId`, and satisfaction sets memoize per
//! subterm. The tree walker (`Model::sat`) stays the reference
//! semantics. These tests hold the compiler to three contracts:
//!
//! - **Bit-identity** — `sat_compiled` agrees with `sat` on every
//!   formula, system, and memo configuration the sweep covers,
//!   including the *errors* (same discovery order).
//! - **Structural hash-consing** — equal ASTs compile to equal root
//!   `TermId`s, shared subtrees intern once, and anything the tree
//!   walker distinguishes (operand order, thresholds) stays distinct.
//! - **One-sweep threshold families** — `pr_ge_family` answers
//!   `Pr_i ≥ α₁…α_k φ` bit-identically to k serial sweeps.

mod common;

use common::{arb_async_spec, arb_sync_spec, build, cases, cases_sharded, prop_names};
use kpa::assign::{Assignment, ProbAssignment};
use kpa::logic::{Formula, Model};
use kpa::measure::{rat, Rat, Rng64};
use kpa::protocols::{async_coin_tosses, ca1, secret_coin};
use kpa::system::{AgentId, System};

/// A formula family exercising every compiled arm — propositional
/// connectives, knowledge, probability, temporal operators, and the
/// group fixpoints — with shared subterms on purpose so the DAG
/// actually dedups.
fn family(phi: Formula, psi: Formula, i: AgentId, group: &[AgentId]) -> Vec<Formula> {
    vec![
        phi.clone(),
        phi.clone().not(),
        Formula::and([phi.clone(), psi.clone()]),
        Formula::or([phi.clone(), psi.clone(), phi.clone()]),
        phi.clone().known_by(i),
        phi.clone().known_by(i).common(group.iter().copied()),
        phi.clone().k_alpha(i, rat!(1 / 2)),
        phi.clone().pr_ge(i, rat!(1 / 4)),
        phi.clone().pr_ge(i, rat!(3 / 4)),
        phi.clone().common_alpha(group.iter().copied(), rat!(1 / 2)),
        psi.clone().next(),
        psi.clone().eventually(),
        psi.clone().until(phi.clone()),
        phi.clone().implies(psi.clone()).known_by(i),
        phi.iff(psi),
    ]
}

/// Checks every formula in `formulas` three ways on `sys`: the tree
/// walker is ground truth, and the compiled evaluator must match it
/// bit-for-bit with the subterm memo on and off.
fn assert_compiled_matches(sys: &System, assignment: Assignment, formulas: &[Formula]) {
    let pa = ProbAssignment::new(sys, assignment);
    let walker = Model::with_memos(&pa, false, true, true);
    let memo_on = Model::new(&pa);
    let memo_off = Model::with_memos(&pa, false, true, true);
    for f in formulas {
        let reference = walker.sat(f).expect("tree walker checks");
        let compiled = memo_on.sat_compiled(f).expect("compiled evaluator checks");
        assert_eq!(
            *reference, *compiled,
            "compiled DAG (memo on) diverged from the tree walker on {f}"
        );
        let compiled_plain = memo_off.sat_compiled(f).expect("compiled evaluator checks");
        assert_eq!(
            *reference, *compiled_plain,
            "compiled DAG (memo off) diverged from the tree walker on {f}"
        );
    }
    // The memoized model interned the whole family and cached subterm
    // sets under their TermIds.
    assert!(memo_on.terms_interned() > 0, "arena stayed empty");
    assert!(memo_on.subterm_memo_len() > 0, "subterm memo stayed empty");
    assert_eq!(
        memo_off.subterm_memo_len(),
        0,
        "a memo-disabled model must not fill the subterm memo"
    );
}

/// Bit-identity on the paper's three walkthrough systems, every
/// assignment the catalog exposes for them.
#[test]
fn walkthrough_compiled_matches_tree_walker() {
    let p1 = AgentId(0);
    let group = [AgentId(0), AgentId(1)];

    let coin = secret_coin().expect("builds");
    let coin_family = family(
        Formula::prop("c=h"),
        Formula::prop("c=t"),
        AgentId(2),
        &group,
    );
    assert_compiled_matches(&coin, Assignment::post(), &coin_family);
    assert_compiled_matches(&coin, Assignment::fut(), &coin_family);

    let tosses = async_coin_tosses(4).expect("builds");
    let tosses_family = family(
        Formula::prop("recent=h"),
        Formula::prop("c0=h"),
        AgentId(1),
        &group,
    );
    assert_compiled_matches(&tosses, Assignment::post(), &tosses_family);

    let attack = ca1(3, Rat::new(1, 2)).expect("builds");
    let attack_family = family(
        Formula::prop("coordinated"),
        Formula::prop("A-attacks"),
        p1,
        &group,
    );
    assert_compiled_matches(&attack, Assignment::post(), &attack_family);
}

/// Property: on random synchronous and asynchronous systems, the
/// compiled evaluator reproduces the tree walker bit-for-bit. Sharded
/// so the fuzz sweep scales.
#[test]
fn random_systems_compiled_matches_tree_walker() {
    cases_sharded("compile_differential_random", |rng| {
        let spec = if rng.chance(1, 2) {
            arb_sync_spec(rng)
        } else {
            arb_async_spec(rng)
        };
        let sys = build(&spec);
        let props = prop_names(&spec);
        let phi = Formula::prop(&props[rng.index(props.len())]);
        let psi = Formula::prop(&props[rng.index(props.len())]);
        let agents: Vec<AgentId> = (0..spec.agents).map(AgentId).collect();
        let i = agents[rng.index(agents.len())];
        let assignment = match rng.index(3) {
            0 => Assignment::post(),
            1 => Assignment::fut(),
            _ => Assignment::opp(i),
        };
        assert_compiled_matches(&sys, assignment, &family(phi, psi, i, &agents));
    });
}

/// The compiled evaluator discovers errors in the same order as the
/// tree walker: an empty group fails before its body is ever
/// evaluated, and an unknown proposition surfaces as the same error.
#[test]
fn error_discovery_matches_the_tree_walker() {
    let sys = secret_coin().expect("builds");
    let pa = ProbAssignment::new(&sys, Assignment::post());
    let model = Model::new(&pa);
    let empty: [AgentId; 0] = [];
    let bad = [
        // Empty group around a body that would itself error: the group
        // check must win on both paths.
        Formula::prop("no-such-prop").common(empty),
        Formula::prop("no-such-prop").common_alpha(empty, rat!(1 / 2)),
        Formula::prop("no-such-prop"),
        Formula::prop("c=h").common(empty),
        Formula::and([Formula::prop("c=h"), Formula::prop("missing")]),
    ];
    for f in &bad {
        let walked = model.sat(f).expect_err("tree walker rejects");
        let compiled = model.sat_compiled(f).expect_err("compiled path rejects");
        assert_eq!(
            walked, compiled,
            "compiled evaluator discovered a different error on {f}"
        );
    }
}

/// Structural hash-consing: what the tree walker cannot distinguish
/// (literal re-compiles) shares `TermId`s; what it can (operand order,
/// thresholds, agents) does not.
#[test]
fn hash_consing_is_structural_and_threshold_sensitive() {
    let sys = secret_coin().expect("builds");
    let pa = ProbAssignment::new(&sys, Assignment::post());
    let model = Model::new(&pa);
    let p1 = AgentId(0);
    let p2 = AgentId(1);
    let phi = Formula::prop("c=h");
    let psi = Formula::prop("c=t");

    // Same AST, twice: same root, no new terms the second time.
    let a = model.compile(&phi.clone().known_by(p1));
    let interned_after_first = model.terms_interned();
    let b = model.compile(&phi.clone().known_by(p1));
    assert_eq!(a.root(), b.root(), "recompiling must be idempotent");
    assert_eq!(
        model.terms_interned(),
        interned_after_first,
        "recompiling an interned formula must not grow the arena"
    );

    // Shared subtrees intern once: both formulas' programs contain the
    // same TermId for the shared body.
    let k1 = model.compile(&phi.clone().known_by(p1));
    let k2 = model.compile(&phi.clone().known_by(p2));
    let shared: Vec<_> = k1
        .subterm_ids()
        .into_iter()
        .filter(|id| k2.subterm_ids().contains(id))
        .collect();
    assert!(
        !shared.is_empty(),
        "K_p1 φ and K_p2 φ must share the interned φ"
    );
    assert_ne!(k1.root(), k2.root(), "different agents, different roots");

    // The distinctions the tree walker makes survive compilation.
    let table = [
        (
            Formula::and([phi.clone(), psi.clone()]),
            Formula::and([psi.clone(), phi.clone()]),
            "conjunct order",
        ),
        (
            phi.clone().pr_ge(p1, rat!(1 / 4)),
            phi.clone().pr_ge(p1, rat!(3 / 4)),
            "threshold α",
        ),
        (
            phi.clone().until(psi.clone()),
            psi.clone().until(phi.clone()),
            "until operand order",
        ),
        (phi.clone(), phi.clone().not().not(), "double negation"),
    ];
    for (left, right, what) in table {
        assert_ne!(
            model.compile(&left).root(),
            model.compile(&right).root(),
            "{what} must stay significant under hash-consing"
        );
    }

    // And compilation itself never changes answers: each pair above
    // still evaluates exactly as the tree walker says.
    for f in [
        Formula::and([phi.clone(), psi.clone()]),
        phi.clone().not().not(),
        phi.clone().until(psi),
    ] {
        assert_eq!(
            *model.sat(&f).expect("checks"),
            *model.sat_compiled(&f).expect("checks"),
        );
    }
}

/// Shared subterms actually hit the unified memo, observed through the
/// kpa-trace registry (delta-based: counters are process-global and
/// monotone, so other tests in this binary cannot break the assert).
#[test]
fn shared_subterms_hit_the_unified_memo() {
    kpa::trace::set_enabled(true);
    let registry = kpa::trace::registry();

    let sys = async_coin_tosses(3).expect("builds");
    let p2 = AgentId(1);
    let pa = ProbAssignment::new(&sys, Assignment::post());
    let model = Model::new(&pa);
    let phi = Formula::prop("recent=h");

    let before = registry.snapshot();
    model
        .sat_compiled(&phi.clone().known_by(p2))
        .expect("checks");
    // Second formula reuses both φ and K_p2 φ as interned subterms.
    model
        .sat_compiled(&phi.clone().known_by(p2).common([p2, AgentId(0)]))
        .expect("checks");
    let delta = registry.snapshot().delta_counters(&before);

    assert!(
        delta.get("logic.terms_interned").copied().unwrap_or(0) > 0,
        "compiling the family must intern fresh terms"
    );
    assert!(
        delta.get("logic.terms_deduped").copied().unwrap_or(0) > 0,
        "the second compile must dedup the shared subterms"
    );
    assert!(
        delta.get("logic.subterm_memo.hit").copied().unwrap_or(0) > 0,
        "evaluating the second formula must hit the unified subterm memo"
    );
    assert!(
        delta.get("logic.subterm_memo.miss").copied().unwrap_or(0) > 0,
        "first evaluations must record their memo misses"
    );
}

/// `pr_ge_family` against k serial sweeps, on a walkthrough system and
/// on random systems: bit-identical sets in `alphas` order, plus the
/// monotonicity the thresholds imply.
#[test]
fn pr_ge_family_matches_serial_sweeps() {
    let alphas = [rat!(1 / 4), rat!(1 / 2), rat!(3 / 4), Rat::ONE];

    let check = |sys: &System, assignment: Assignment, body: &Formula, i: AgentId| {
        let pa = ProbAssignment::new(sys, assignment);
        let serial_model = Model::with_memos(&pa, false, true, true);
        let family_model = Model::new(&pa);
        let batched = family_model
            .pr_ge_family(i, &alphas, body)
            .expect("family checks");
        assert_eq!(batched.len(), alphas.len());
        for (k, (&alpha, got)) in alphas.iter().zip(&batched).enumerate() {
            let serial = serial_model
                .sat(&body.clone().pr_ge(i, alpha))
                .expect("serial sweep checks");
            assert_eq!(
                *serial, **got,
                "family answer {k} (α = {alpha}) diverged from the serial sweep on {body}"
            );
            if k > 0 {
                assert!(
                    got.is_subset(&batched[k - 1]),
                    "Pr ≥ {alpha} must imply the weaker thresholds"
                );
            }
        }
        // The family landed in the same caches serial queries use: a
        // follow-up serial query on the same model is answered from the
        // formula cache without touching the walker.
        let cached = family_model
            .sat_compiled(&body.clone().pr_ge(i, alphas[0]))
            .expect("checks");
        assert_eq!(*batched[0], *cached);
    };

    let tosses = async_coin_tosses(4).expect("builds");
    check(
        &tosses,
        Assignment::post(),
        &Formula::prop("recent=h"),
        AgentId(0),
    );
    check(
        &tosses,
        Assignment::fut(),
        &Formula::prop("recent=h").eventually(),
        AgentId(1),
    );

    cases("compile_differential_family", |rng: &mut Rng64| {
        let spec = arb_sync_spec(rng);
        let sys = build(&spec);
        let props = prop_names(&spec);
        let body = Formula::prop(&props[rng.index(props.len())]);
        let i = AgentId(rng.index(spec.agents));
        check(&sys, Assignment::post(), &body, i);
    });
}
