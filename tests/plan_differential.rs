//! Plan-vs-naive differential suite for the batched [`SamplePlan`]
//! layer: every consumer of the per-`(agent, point)` probability spaces
//! — `Model::pr_ge_set`, the betting safety sweeps, the asynchrony cut
//! bounds — must produce *bit-identical* results whether the space
//! arrives through the precomputed plan table or through the naive
//! per-point `sample → space` path.
//!
//! Three layers of pinning:
//!
//! 1. **Pointer identity** — the plan canonicalizes through the same
//!    per-sample cache as `ProbAssignment::space`, so a planned space
//!    and its naive counterpart are the *same `Arc`* (hence the `Pr`
//!    memo of `Model`, keyed by space address, sees identical keys on
//!    both paths).
//! 2. **Value identity** — `pr_ge` families, safety point sets,
//!    `k_alpha` sets, and cut bounds computed plan-on vs plan-off are
//!    asserted equal on the paper walkthrough systems plus seeded
//!    random synchronous and asynchronous systems.
//! 3. **Error identity** — points the plan leaves uncovered (custom
//!    assignments violating REQ1/REQ2) report the exact naive errors
//!    through the fallback.

mod common;

use common::{arb_async_spec, arb_sync_spec, build, cases, cases_sharded, prop_names};
use kpa::assign::{Assignment, ProbAssignment};
use kpa::asynchrony::CutClass;
use kpa::betting::{inner_expected_winnings, BetRule, BettingGame, Strategy};
use kpa::logic::{Formula, Model};
use kpa::measure::{rat, Rat, Rng64};
use kpa::protocols::{async_coin_tosses, ca1, secret_coin};
use kpa::system::{AgentId, System};
use std::sync::Arc;

/// The paper walkthrough systems: the introduction's secret coin, the
/// Section 7 asynchronous tosses, and the Section 4 coordinated-attack
/// protocol.
fn walkthrough_systems() -> Vec<System> {
    vec![
        secret_coin().expect("builds"),
        async_coin_tosses(4).expect("builds"),
        ca1(3, Rat::new(1, 2)).expect("builds"),
    ]
}

/// Every canonical assignment of a system.
fn canonical_assignments(sys: &System) -> Vec<Assignment> {
    let mut out = vec![Assignment::post(), Assignment::fut(), Assignment::prior()];
    out.extend((0..sys.agent_count()).map(|j| Assignment::opp(AgentId(j))));
    out
}

/// Core pointer/value/error identity for one `(assignment, agent)`:
/// the plan's table entries are the *same `Arc`s* the naive per-point
/// path hands out, entries are absent exactly where the naive path
/// errors, and plan statistics satisfy the batching contract.
fn assert_plan_matches_naive(sys: &System, assignment: &Assignment, agent: AgentId) {
    let pa = ProbAssignment::new(sys, assignment.clone());
    let plan = pa.sample_plan(agent);
    assert_eq!(plan.agent(), agent);
    assert_eq!(plan.point_count(), sys.point_count());
    let mut covered = 0usize;
    for c in sys.points() {
        match pa.space(agent, c) {
            Ok(naive) => {
                let planned = plan
                    .space(c)
                    .unwrap_or_else(|| panic!("plan misses valid point {c:?}"));
                assert!(
                    Arc::ptr_eq(planned, &naive),
                    "planned and naive spaces must be the same Arc at {c:?}"
                );
                // `planned_space` is the plan-or-fallback entry point.
                assert!(Arc::ptr_eq(
                    &pa.planned_space(agent, c).expect("planned_space"),
                    &naive
                ));
                covered += 1;
            }
            Err(naive_err) => {
                assert!(
                    plan.space(c).is_none(),
                    "plan must leave REQ-violating points uncovered at {c:?}"
                );
                // The fallback reproduces the exact naive error.
                let planned_err = pa
                    .planned_space(agent, c)
                    .expect_err("fallback must reproduce the naive error");
                assert_eq!(format!("{planned_err:?}"), format!("{naive_err:?}"));
            }
        }
    }
    assert_eq!(plan.covered(), covered, "covered() counts Some entries");
    assert!(plan.is_batched(), "canonical assignments batch");
    assert_eq!(
        plan.extractions(),
        plan.classes() + (sys.point_count() - covered),
        "one extraction per class plus one per uncovered point"
    );
    // The plan is built once per agent and shared thereafter.
    assert!(Arc::ptr_eq(&plan, &pa.sample_plan(agent)));
}

#[test]
fn plan_spaces_are_the_cached_spaces_on_walkthroughs() {
    for sys in walkthrough_systems() {
        for assignment in canonical_assignments(&sys) {
            for agent in (0..sys.agent_count()).map(AgentId) {
                assert_plan_matches_naive(&sys, &assignment, agent);
            }
        }
    }
}

#[test]
fn plan_spaces_are_the_cached_spaces_on_random_systems() {
    cases_sharded("plan_vs_naive_spaces", |rng| {
        let spec = if rng.chance(1, 2) {
            arb_sync_spec(rng)
        } else {
            arb_async_spec(rng)
        };
        let sys = build(&spec);
        let assignments = canonical_assignments(&sys);
        let assignment = &assignments[rng.index(assignments.len())];
        let agent = AgentId(rng.index(sys.agent_count()));
        assert_plan_matches_naive(&sys, assignment, agent);
    });
}

/// `Pr_i ≥ α` families, plan on vs off (both against the `Model` knob
/// and the raw assignment).
fn assert_pr_family_plan_invariant(sys: &System, assignment: &Assignment, rng: &mut Rng64) {
    let pa_planned = ProbAssignment::new(sys, assignment.clone());
    let pa_naive = ProbAssignment::new(sys, assignment.clone());
    let planned = Model::with_memos(&pa_planned, true, true, true);
    let naive = Model::with_memos(&pa_naive, true, true, false);
    assert!(planned.plan_enabled());
    assert!(!naive.plan_enabled());
    let agent = AgentId(rng.index(sys.agent_count()));
    let mut phi = sys.full_points();
    phi.retain(|_| rng.chance(1, 2));
    let alphas = [Rat::ZERO, rat!(1 / 4), rat!(1 / 2), rat!(3 / 4), Rat::ONE];
    for &alpha in &alphas {
        let a = planned
            .pr_ge_set(agent, alpha, &phi)
            .expect("planned pr_ge_set");
        let b = naive
            .pr_ge_set(agent, alpha, &phi)
            .expect("naive pr_ge_set");
        assert_eq!(a, b, "plan changed Pr ≥ {alpha} for {assignment:?}");
    }
    assert!(planned.plan_len() > 0, "the sweep must build the plan");
    assert_eq!(naive.plan_len(), 0);
}

#[test]
fn pr_ge_class_sweeps_are_plan_invariant() {
    cases_sharded("plan_pr_ge_invariance", |rng| {
        let spec = if rng.chance(1, 2) {
            arb_sync_spec(rng)
        } else {
            arb_async_spec(rng)
        };
        let sys = build(&spec);
        let assignments = canonical_assignments(&sys);
        let assignment = &assignments[rng.index(assignments.len())];
        assert_pr_family_plan_invariant(&sys, assignment, rng);
    });
}

#[test]
fn pr_ge_formula_families_are_plan_invariant_on_walkthroughs() {
    let sys = async_coin_tosses(4).expect("builds");
    let post = ProbAssignment::new(&sys, Assignment::post());
    let post_naive = ProbAssignment::new(&sys, Assignment::post());
    let planned = Model::new(&post);
    let naive = Model::with_memos(&post_naive, true, true, false);
    let p1 = AgentId(0);
    let p2 = AgentId(1);
    let family = [
        Formula::prop("recent=h").pr_ge(p1, rat!(1 / 4)),
        Formula::prop("recent=h").pr_ge(p1, rat!(1 / 2)),
        Formula::prop("recent=h").pr_ge(p2, rat!(1 / 2)),
        Formula::prop("recent=h")
            .pr_ge(p1, rat!(1 / 2))
            .known_by(p2),
        Formula::prop("c0=h").not().pr_ge(p1, rat!(3 / 4)),
    ];
    for f in &family {
        assert_eq!(
            *planned.sat(f).expect("planned"),
            *naive.sat(f).expect("naive"),
            "plan changed the satisfaction set of {f}"
        );
    }
    // The planned model actually took the table path: its assignment's
    // shared core built a plan, while the plan-disabled model's core
    // never did — a *per-model* claim (its `ProbAssignment` is private
    // to this test), so it stays exact even though the registry's
    // `logic.plan_hit` counter is process-global.
    assert!(planned.plan_len() > 0, "warm sweeps must build the plan");
    assert_eq!(naive.plan_len(), 0);
    assert_eq!(post_naive.core().plans_built(), 0);
}

/// Betting safety sweeps against a from-scratch reconstruction that
/// never touches the plan: per point, quantify breaks-even over the
/// bettor's indistinguishability set using naively built spaces.
fn assert_betting_matches_reconstruction(sys: &System, rng: &mut Rng64) {
    let bettor = AgentId(rng.index(sys.agent_count()));
    let opponent = AgentId(rng.index(sys.agent_count()));
    let game = BettingGame::new(sys, bettor, opponent);
    let mut phi = sys.full_points();
    phi.retain(|_| rng.chance(1, 2));
    let alpha = [rat!(1 / 4), rat!(1 / 2), rat!(3 / 4)][rng.index(3)];
    let rule = BetRule::new(phi, alpha).expect("positive α");

    // Naive reconstruction over a *fresh* assignment (separate cache,
    // no plan): Tree^j-safety at c = breaks-even at every d ~_i c.
    let fresh = ProbAssignment::new(sys, Assignment::opp(opponent));
    let threshold = Strategy::constant(rule.min_payoff());
    let mut expect_safe = sys.empty_points();
    let mut expect_k = sys.empty_points();
    for c in sys.points() {
        let all_even = sys.indistinguishable(bettor, c).iter().all(|d| {
            let space = fresh.space(bettor, d).expect("opp spaces build");
            inner_expected_winnings(&space, sys, opponent, &rule, &threshold)
                .expect("winnings measurable over Tree^j cells")
                >= Rat::ZERO
        });
        if all_even {
            expect_safe.insert(c);
        }
        let all_know = sys.indistinguishable(bettor, c).iter().all(|d| {
            let space = fresh.space(bettor, d).expect("opp spaces build");
            space.inner_measure(rule.phi()) >= rule.alpha()
        });
        if all_know {
            expect_k.insert(c);
        }
    }

    assert_eq!(
        game.safe_points(&rule).expect("safe_points"),
        expect_safe,
        "plan-driven safe_points diverged"
    );
    assert_eq!(
        game.k_alpha_points(&rule).expect("k_alpha_points"),
        expect_k,
        "plan-driven k_alpha_points diverged"
    );
    // Spot-check the per-point APIs against the set sweeps.
    for _ in 0..4 {
        let c = sys
            .points()
            .nth(rng.index(sys.point_count()))
            .expect("point");
        assert_eq!(game.is_safe_at(c, &rule).expect("is_safe_at"), {
            // is_safe_at(c) quantifies over the same class as the sweep.
            expect_safe.contains(c)
        });
    }
}

#[test]
fn betting_sweeps_are_plan_invariant() {
    cases_sharded("plan_betting_invariance", |rng| {
        let spec = arb_sync_spec(rng);
        let sys = build(&spec);
        assert_betting_matches_reconstruction(&sys, rng);
    });
}

/// Asynchrony: `CutClass::bounds_via` over plan spaces equals
/// `CutClass::bounds` over the freshly extracted region, for the free
/// (`AllPoints`) class — and the delegating arms agree too.
fn assert_cut_bounds_plan_invariant(sys: &System, rng: &mut Rng64) {
    let agent = AgentId(rng.index(sys.agent_count()));
    let post = ProbAssignment::new(sys, Assignment::post());
    let plan = post.sample_plan(agent);
    let mut phi = sys.full_points();
    phi.retain(|_| rng.chance(1, 2));
    for c in sys.points() {
        let region = Assignment::post().sample(sys, agent, c);
        let space = plan.space(c).expect("post plans cover every point");
        let via = CutClass::AllPoints
            .bounds_via(sys, space, &phi)
            .expect("bounds_via");
        let naive = CutClass::AllPoints
            .bounds(sys, &region, &phi)
            .expect("bounds");
        assert_eq!(via, naive, "AllPoints bounds diverged at {c:?}");
        // A delegating arm: Horizontal rebuilds the region from the
        // space's elements — results (including errors) must agree.
        match (
            CutClass::Horizontal.bounds_via(sys, space, &phi),
            CutClass::Horizontal.bounds(sys, &region, &phi),
        ) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "Horizontal bounds diverged at {c:?}"),
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (a, b) => panic!("Horizontal verdicts diverged at {c:?}: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn cut_bounds_are_plan_invariant() {
    cases_sharded("plan_cut_bounds_invariance", |rng| {
        let spec = if rng.chance(1, 2) {
            arb_sync_spec(rng)
        } else {
            arb_async_spec(rng)
        };
        let sys = build(&spec);
        assert_cut_bounds_plan_invariant(&sys, rng);
    });
}

#[test]
fn prop10_still_holds_under_the_plan() {
    // `prop10_holds` now routes its `pts` side through the posterior
    // plan; the proposition must keep holding on the walkthroughs and
    // random systems.
    let sys = async_coin_tosses(4).expect("builds");
    let phi = sys.points_satisfying(sys.prop_id("recent=h").expect("prop"));
    for agent in (0..sys.agent_count()).map(AgentId) {
        assert!(kpa::asynchrony::prop10_holds(&sys, agent, &phi).expect("prop10"));
    }
    cases("plan_prop10", |rng| {
        let spec = arb_async_spec(rng);
        let sys = build(&spec);
        let props = prop_names(&spec);
        let phi = sys.points_satisfying(sys.prop_id(&props[rng.index(props.len())]).expect("prop"));
        let agent = AgentId(rng.index(sys.agent_count()));
        assert!(kpa::asynchrony::prop10_holds(&sys, agent, &phi).expect("prop10"));
    });
}

#[test]
fn custom_assignments_fall_back_with_exact_errors() {
    let sys = secret_coin().expect("builds");
    let p1 = AgentId(0);

    // An assignment that errors everywhere (REQ2): the plan covers
    // nothing and every planned_space reports the naive error.
    let empty = ProbAssignment::new(&sys, Assignment::custom("empty", |_, _, _| vec![]));
    let plan = empty.sample_plan(p1);
    assert!(!plan.is_batched());
    assert_eq!(plan.covered(), 0);
    for c in sys.points() {
        let naive = empty.space(p1, c).expect_err("REQ2 violation");
        let planned = empty.planned_space(p1, c).expect_err("REQ2 violation");
        assert_eq!(format!("{planned:?}"), format!("{naive:?}"));
    }

    // A well-defined custom assignment (singletons): per-point build,
    // still pointer-identical to the naive path.
    let single = ProbAssignment::new(&sys, Assignment::custom("singleton", |_, _, c| vec![c]));
    let plan = single.sample_plan(p1);
    assert!(!plan.is_batched());
    assert_eq!(plan.covered(), sys.point_count());
    for c in sys.points() {
        let naive = single.space(p1, c).expect("singleton spaces build");
        assert!(Arc::ptr_eq(plan.space(c).expect("covered"), &naive));
    }

    // Custom pr_ge sweeps stay plan-invariant too (fallback-only path).
    let pa_planned = ProbAssignment::new(&sys, Assignment::custom("singleton", |_, _, c| vec![c]));
    let pa_naive = ProbAssignment::new(&sys, Assignment::custom("singleton", |_, _, c| vec![c]));
    let planned = Model::with_memos(&pa_planned, true, true, true);
    let naive = Model::with_memos(&pa_naive, true, true, false);
    let phi = sys.points_satisfying(sys.prop_id("c=h").expect("prop"));
    for alpha in [rat!(1 / 2), Rat::ONE] {
        assert_eq!(
            planned.pr_ge_set(p1, alpha, &phi).expect("planned"),
            naive.pr_ge_set(p1, alpha, &phi).expect("naive"),
        );
    }
}
