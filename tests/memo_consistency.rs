//! Cache-consistency suite for the cross-formula `knows_set` memo.
//!
//! The memo (the `knows` knob of `Model::with_memos`) reuses
//! knowledge fixpoints across formulas that share `(agent, body)`
//! subterms — e.g. the `K_i φ` stages inside a `C_G φ` fixpoint.
//! These tests pin that the memo is *observationally invisible*:
//! satisfaction sets (and their pinned sizes on the paper's walkthrough
//! systems) are identical with the memo on and off, under any
//! interleaving of queries.

mod common;

use common::{arb_sync_spec, build, cases, prop_names};
use kpa::assign::{Assignment, ProbAssignment};
use kpa::logic::{Formula, Model, ModelArtifact};
use kpa::measure::{rat, Rat};
use kpa::protocols::{async_coin_tosses, ca1, secret_coin};
use kpa::system::{AgentId, System};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Runs this file's tests one at a time: the trace counters are
/// process-wide, and the exact counts below must see one test's calls.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Every formula in the family, sat-checked on `sys` twice — once on a
/// memoized model, once on a memo-free model — returning the sizes from
/// the memoized pass after asserting the full sets agree.
fn sizes_memo_vs_fresh(sys: &System, formulas: &[Formula]) -> Vec<usize> {
    let post = ProbAssignment::new(sys, Assignment::post());
    let memoized = Model::new(&post); // memo on by default
    let plain = Model::with_memos(&post, false, true, true);
    assert!(memoized.knows_memo_enabled());
    assert!(!plain.knows_memo_enabled());
    let mut sizes = Vec::with_capacity(formulas.len());
    for f in formulas {
        let with_memo = memoized.sat(f).expect("model checks");
        let without = plain.sat(f).expect("model checks");
        assert_eq!(
            *with_memo, *without,
            "memo changed the satisfaction set of {f}"
        );
        sizes.push(with_memo.len());
    }
    sizes
}

/// Pinned satisfaction-set sizes on the three paper walkthrough
/// systems. The formula families deliberately repeat `(agent, body)`
/// pairs — `K_i φ` alone and again inside `C_G φ` — so the memoized
/// pass actually hits the cache (asserted via `subterm_memo_len`).
#[test]
fn walkthrough_sizes_are_memo_invariant() {
    let _serial = serial();
    let p1 = AgentId(0);
    let p3 = AgentId(2);
    let group = [AgentId(0), AgentId(1)];

    let coin = secret_coin().expect("builds");
    let coin_formulas = [
        Formula::prop("c=h").known_by(p3),
        Formula::prop("c=h").known_by(p3).common(group),
        Formula::prop("c=h").k_alpha(p1, rat!(1 / 2)),
        Formula::prop("c=h").common_alpha(group, rat!(1 / 2)),
    ];
    assert_eq!(
        sizes_memo_vs_fresh(&coin, &coin_formulas),
        [1, 0, 2, 2],
        "secret coin sizes drifted"
    );

    let p2 = AgentId(1);
    let tosses = async_coin_tosses(4).expect("builds");
    let tosses_formulas = [
        Formula::prop("recent=h").eventually(),
        Formula::prop("recent=h").known_by(p2),
        Formula::prop("recent=h").k_alpha(p2, rat!(1 / 2)),
        Formula::prop("recent=h")
            .k_alpha(p2, rat!(1 / 2))
            .common([p2]),
    ];
    assert_eq!(
        sizes_memo_vs_fresh(&tosses, &tosses_formulas),
        [64, 0, 64, 64],
        "async tosses sizes drifted"
    );

    let attack = ca1(3, Rat::new(1, 2)).expect("builds");
    let attack_formulas = [
        Formula::prop("coordinated").eventually().known_by(p1),
        Formula::prop("coordinated").eventually().common(group),
        Formula::prop("coordinated")
            .eventually()
            .k_alpha(p1, rat!(1 / 2)),
    ];
    assert_eq!(
        sizes_memo_vs_fresh(&attack, &attack_formulas),
        [10, 0, 28],
        "coordinated attack sizes drifted"
    );

    // The memoized models must actually have cached fixpoints — the
    // families above repeat `(agent, body)` pairs by construction.
    let post = ProbAssignment::new(&coin, Assignment::post());
    let model = Model::new(&post);
    for f in &coin_formulas {
        model.sat(f).expect("model checks");
    }
    assert!(
        model.subterm_memo_len() > 0,
        "walkthrough family never filled the unified subterm memo"
    );
}

/// Property: interleaving formulas that share knowledge subterms on one
/// memoized model gives exactly the answers of fresh memo-free models.
/// The interleave order is adversarial for a buggy memo: `C_G φ` first
/// (seeding the memo from mid-fixpoint sweeps), then the bare `K_i φ`
/// it contains, then the reverse pairing.
#[test]
fn interleaved_shared_subterms_match_fresh() {
    let _serial = serial();
    cases("memo_interleaving", |rng| {
        let spec = arb_sync_spec(rng);
        let sys = build(&spec);
        let props = prop_names(&spec);
        let phi = Formula::prop(&props[rng.index(props.len())]);
        let agents: Vec<AgentId> = (0..spec.agents).map(AgentId).collect();
        let i = agents[rng.index(agents.len())];
        let queries = [
            phi.clone().common(agents.iter().copied()),
            phi.clone().known_by(i),
            phi.clone().known_by(i).common(agents.iter().copied()),
            phi.clone().k_alpha(i, rat!(1 / 2)),
            phi.clone().not().known_by(i).not(),
        ];
        let post = ProbAssignment::new(&sys, Assignment::post());
        let memoized = Model::new(&post);
        for f in &queries {
            let shared = memoized.sat(f).expect("model checks");
            let fresh_model = Model::with_memos(&post, false, true, true);
            let fresh = fresh_model.sat(f).expect("model checks");
            assert_eq!(
                *shared, *fresh,
                "memoized model disagrees with a fresh one on {f}"
            );
        }
        // And the memo entry for (i, sat φ) matches a fresh fixpoint.
        let sat_phi = memoized.sat(&phi).expect("model checks");
        assert_eq!(
            memoized.knows_set(i, &sat_phi),
            memoized.knows_set_fresh(i, &sat_phi),
            "memoized knows_set diverged from knows_set_fresh"
        );
    });
}

/// Two `Pr_i ≥ α` formulas over the *same* body both sweep the
/// sample-plan table's classes, pinned through the kpa-trace registry.
///
/// Registry counters are process-global and only ever increase, so the
/// assertions below are written as *delta > 0* across this test's own
/// operations — monotone-safe even when other tests in this binary run
/// concurrently and bump the same counters. Exact equalities stay on
/// the per-model and per-plan state, which is private to this model.
#[test]
fn interleaved_pr_ge_thresholds_hit_the_plan() {
    let _serial = serial();
    // Tracing must be on for the registry to record anything; it is
    // observationally invisible (see tests/trace_invisibility.rs).
    kpa::trace::set_enabled(true);
    let registry = kpa::trace::registry();

    let sys = async_coin_tosses(3).expect("builds");
    let p1 = AgentId(0);
    let post = ProbAssignment::new(&sys, Assignment::post());
    let model = Model::new(&post);
    assert!(model.plan_enabled());

    let phi = Formula::prop("recent=h");
    let weak = phi.clone().pr_ge(p1, rat!(1 / 4));
    let strong = phi.clone().pr_ge(p1, rat!(3 / 4));

    let before_first = registry.snapshot();
    let sat_weak = model.sat(&weak).expect("model checks").clone();
    let sat_strong = model.sat(&strong).expect("model checks").clone();
    let after_second = registry.snapshot();

    // Both sweeps resolved their spaces through the batched plan table:
    // one sample extraction per class, fewer classes than points.
    let both_sweeps = after_second.delta_counters(&before_first);
    assert!(
        both_sweeps.get("logic.plan_hit").copied().unwrap_or(0) > 0,
        "sweeps must take the plan table path"
    );
    assert!(
        model.plan_len() > 0,
        "the model must report the shared core's built plans"
    );
    let plan = post.sample_plan(p1);
    assert!(plan.is_batched());
    assert_eq!(plan.extractions(), plan.classes());
    assert!(plan.extractions() < sys.point_count());

    // And the verdicts are coherent: Pr ≥ 3/4 implies Pr ≥ 1/4.
    assert!(sat_strong.is_subset(&sat_weak));
}

/// The formula cache's call-site counters, pinned through the registry
/// like the test above: the first `sat` of a formula is a
/// `logic.sat_cache_miss`, and asking again is a `logic.sat_cache_hit`.
#[test]
fn the_formula_cache_counts_a_miss_then_a_hit() {
    let _serial = serial();
    kpa::trace::set_enabled(true);
    let registry = kpa::trace::registry();

    let sys = secret_coin().expect("builds");
    let post = ProbAssignment::new(&sys, Assignment::post());
    let model = Model::new(&post);
    let f = Formula::prop("c=h").known_by(AgentId(2));

    let before = registry.snapshot();
    let cold = model.sat(&f).expect("model checks");
    let after_cold = registry.snapshot();
    let warm = model.sat(&f).expect("model checks");
    let after_warm = registry.snapshot();
    assert_eq!(*cold, *warm);

    let first = after_cold.delta_counters(&before);
    assert!(
        first.get("logic.sat_cache_miss").copied().unwrap_or(0) > 0,
        "the first ask must miss the formula cache"
    );
    let second = after_warm.delta_counters(&after_cold);
    assert!(
        second.get("logic.sat_cache_hit").copied().unwrap_or(0) > 0,
        "the repeat must hit the formula cache"
    );
}

/// After `pr_ge_family`, each member is one memo lookup away under both
/// of its spellings: the structural `Pr_i ≥ α φ` that `sat` compiles
/// (the same `Arc`, one `logic.sat_cache_hit`, no node evaluated) and
/// the set-level `Pr_i ≥ α ⌜sat(φ)⌝` that `pr_ge_set` quotes (the same
/// set, one subterm-memo hit, no sweep).
#[test]
fn family_members_are_filed_under_both_spellings() {
    let _serial = serial();
    kpa::trace::set_enabled(true);
    let registry = kpa::trace::registry();

    let sys = async_coin_tosses(4).expect("builds");
    let artifact = ModelArtifact::new(Arc::new(sys), Assignment::post());
    let ctx = artifact.ctx();
    let p2 = AgentId(1);
    let phi = Formula::prop("recent=h");
    let alphas = [rat!(1 / 4), rat!(1 / 2), rat!(3 / 4), Rat::ONE];
    let family = ctx.pr_ge_family(p2, &alphas, &phi).expect("model checks");
    let body = ctx.sat(&phi).expect("model checks");
    let count = |delta: &std::collections::BTreeMap<String, u64>, name: &str| {
        delta.get(name).copied().unwrap_or(0)
    };
    for (set, &alpha) in family.iter().zip(&alphas) {
        let before = registry.snapshot();
        let member = ctx
            .sat(&phi.clone().pr_ge(p2, alpha))
            .expect("model checks");
        let delta = registry.snapshot().delta_counters(&before);
        assert!(
            Arc::ptr_eq(set, &member),
            "Pr ≥ {alpha} is not the family's set"
        );
        assert_eq!(count(&delta, "logic.sat_cache_hit"), 1);
        assert_eq!(count(&delta, "logic.sat_cache_miss"), 0);
        assert_eq!(
            count(&delta, "logic.sat_eval"),
            0,
            "Pr ≥ {alpha} evaluated a node"
        );

        let before = registry.snapshot();
        let raw = ctx.pr_ge_set(p2, alpha, &body).expect("model checks");
        let delta = registry.snapshot().delta_counters(&before);
        assert_eq!(raw, **set, "the set-level Pr ≥ {alpha} differs");
        assert_eq!(count(&delta, "logic.subterm_memo.hit"), 1);
        assert_eq!(
            count(&delta, "logic.plan_hit"),
            0,
            "Pr ≥ {alpha} swept again"
        );
    }
}
