//! Plan-vs-naive differential suite for the batched [`SamplePlan`]
//! layer and the one walk over it, `ProbAssignment::sweep_spaces`:
//! every consumer of the per-`(agent, point)` probability spaces —
//! `Model::pr_ge_set`, the betting safety sweeps, Proposition 10 — must
//! produce *bit-identical* results whether the spaces arrive through
//! the plan's classes or through the naive per-point `sample → space`
//! path.
//!
//! Four layers of pinning:
//!
//! 1. **Pointer identity** — the plan canonicalizes through the same
//!    per-sample cache as `ProbAssignment::space`, so a class's space
//!    and the naive space at each of its points are the *same `Arc`*,
//!    and so is the space each swept point's verdict came from.
//! 2. **Value identity** — `pr_ge` families, safety point sets and
//!    `k_alpha` sets computed plan-on vs plan-off are asserted equal on
//!    the paper walkthrough systems plus seeded random synchronous and
//!    asynchronous systems.
//! 3. **Error identity** — an assignment violating REQ1/REQ2 reports
//!    the naive error of its first violating point, plan on or off.
//! 4. **Construction identity** — each space is built straight from
//!    its sample into its kernel, and its generic table separately on
//!    demand; both equal what an eager `BlockSpace` of the same sample
//!    gives.

mod common;

use common::{arb_async_spec, arb_sync_spec, build, cases, cases_sharded, prop_names};
use kpa::assign::{AssignError, Assignment, DensePointSpace, ProbAssignment};
use kpa::betting::{inner_expected_winnings, BetRule, BettingGame, Strategy};
use kpa::logic::{Formula, LogicError, Model};
use kpa::measure::{rat, BlockSpace, DenseKernel, GroupWords, Rat, Rng64};
use kpa::protocols::{async_coin_tosses, ca1, secret_coin};
use kpa::system::{AgentId, PointId, System, TreeId};
use std::collections::HashSet;
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

/// The points of one class (or lone point), ascending.
fn points_of(sys: &System, group: GroupWords<'_>) -> Vec<PointId> {
    let index = sys.point_index();
    group
        .pairs()
        .flat_map(|(word, bits)| {
            (0..64)
                .filter(move |b| bits >> b & 1 == 1)
                .map(move |b| index.point_at(64 * word + b))
        })
        .collect()
}

/// Core pointer/value/error identity for one `(assignment, agent)`:
/// each class holds the *same `Arc`* the naive per-point path hands out
/// at every one of its points, the classes hold exactly the points
/// where the naive path succeeds, and plan statistics satisfy the
/// batching contract. Returns how many classes the plan holds as dense
/// words and as pairs.
fn assert_plan_matches_naive(sys: &System, assignment: &Assignment, agent: AgentId) -> [usize; 2] {
    let pa = ProbAssignment::new(sys, assignment.clone());
    let plan = pa.sample_plan(agent);
    assert_eq!(plan.agent(), agent);
    assert_eq!(plan.point_count(), sys.point_count());
    let valid = sys.point_set(sys.points().filter(|&c| pa.space(agent, c).is_ok()));
    assert_eq!(
        plan.covered(),
        valid.len(),
        "covered() counts planned points"
    );
    assert!(plan.is_batched(), "canonical assignments batch");
    // The class layout: pairwise disjoint classes in first-point order,
    // each equal to its sample (uniformity) and holding the naive
    // space's `Arc` at every one of its points; together exactly the
    // valid points, and `unplanned()` lists the rest. Each class is
    // rebuilt from its stored words, by the sweep's union and word by
    // word, and neither encoding is larger than the class's pairs.
    let mut union = sys.empty_points();
    let mut last_first = None;
    let mut encodings = [0, 0];
    for k in 0..plan.classes() {
        let (space, points) = plan.class(k);
        let mut class = sys.empty_points();
        class.union_group(points);
        assert!(
            class.footprint_is_valid(),
            "class {k}'s union left a stale footprint"
        );
        let by_word = sys.point_set(points_of(sys, points));
        assert_eq!(class, by_word, "class {k}'s union differs from its words");
        let pairs = points.pairs().count();
        match points {
            GroupWords::Dense { bits, .. } => {
                encodings[0] += 1;
                assert!(
                    4 + 8 * bits.len() <= 12 * pairs,
                    "class {k} is dense but larger"
                );
            }
            GroupWords::Pairs { words, .. } => {
                encodings[1] += 1;
                assert_eq!(words.len(), pairs);
            }
        }
        let first = class.first().expect("classes are nonempty");
        assert!(
            last_first < Some(first),
            "class {k} is out of first-point order"
        );
        last_first = Some(first);
        assert!(
            union.is_disjoint(&class),
            "class {k} overlaps an earlier class"
        );
        assert_eq!(
            class,
            pa.sample(agent, first),
            "class {k} is not its sample"
        );
        for c in &class {
            let naive = pa.space(agent, c).expect("class points are valid");
            assert!(
                Arc::ptr_eq(&naive, space),
                "class {k} holds another space than the naive one at {c:?}"
            );
        }
        union.union_with(&class);
    }
    assert_eq!(union, valid, "classes hold exactly the valid points");
    assert!(plan
        .unplanned()
        .eq(sys.points().filter(|&c| !valid.contains(c))));
    assert_eq!(
        plan.extractions(),
        plan.classes() + (sys.point_count() - valid.len()),
        "one extraction per class plus one per uncovered point"
    );
    // The plan is built once per agent and shared thereafter.
    assert!(Arc::ptr_eq(&plan, &pa.sample_plan(agent)));
    encodings
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
    // The asynchronous tosses, wide enough for dense classes, meet both
    // encodings.
    let sys = async_coin_tosses(6).expect("builds");
    let mut encodings = [0, 0];
    for assignment in canonical_assignments(&sys) {
        for agent in (0..sys.agent_count()).map(AgentId) {
            let [dense, pairs] = assert_plan_matches_naive(&sys, &assignment, agent);
            encodings[0] += dense;
            encodings[1] += pairs;
        }
    }
    assert!(
        encodings[0] > 0 && encodings[1] > 0,
        "classes by encoding: {encodings:?}"
    );
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

/// The one space sweep, plan on and off, against the naive per-point
/// spaces. `decide` counts its calls and returns the space itself as
/// the verdict; `absorb` records each group it receives. Asserts that
/// each distinct space is decided once, that the absorbed points
/// partition the valid points (those before the first violating one,
/// with the plan off), that each point's naive space is the `Arc` its
/// verdict came from, the visit order, and that a violating assignment
/// reports the naive error of its first violating point.
fn assert_sweep_matches_naive(sys: &System, assignment: &Assignment, agent: AgentId) {
    for plan_on in [true, false] {
        let pa = ProbAssignment::new(sys, assignment.clone());
        let mut decided: Vec<*const DensePointSpace> = Vec::new();
        let mut groups: Vec<(Vec<PointId>, Arc<DensePointSpace>)> = Vec::new();
        let outcome = pa.sweep_spaces(
            agent,
            plan_on,
            |space| {
                decided.push(Arc::as_ptr(space));
                Ok::<_, AssignError>(Arc::clone(space))
            },
            |points, space| groups.push((points_of(sys, points), Arc::clone(space))),
        );
        // The naive per-point spaces, from the same space cache, in
        // ascending (dense index) order.
        let naive: Vec<(PointId, Result<Arc<DensePointSpace>, AssignError>)> =
            sys.points().map(|c| (c, pa.space(agent, c))).collect();
        let first_error = naive.iter().find_map(|(_, space)| space.clone().err());
        assert_eq!(outcome.err(), first_error, "plan {plan_on}: first error");

        // Which points the sweep must absorb: every valid point with
        // the plan on (the plan holds them all before its unplanned
        // points fail), and the valid points before the first failure
        // with it off.
        let expected: Vec<PointId> = naive
            .iter()
            .take_while(|(_, space)| plan_on || space.is_ok())
            .filter(|(_, space)| space.is_ok())
            .map(|&(c, _)| c)
            .collect();
        let mut absorbed = sys.empty_points();
        let mut spaces = Vec::new();
        for (points, space) in &groups {
            for &c in points {
                assert!(absorbed.insert(c), "plan {plan_on}: {c:?} absorbed twice");
                let (d, at) = &naive[sys.point_index().index_of(c)];
                assert_eq!(*d, c);
                let at = at.as_ref().expect("only valid points are absorbed");
                assert!(
                    Arc::ptr_eq(at, space),
                    "plan {plan_on}: {c:?}'s verdict came from another space"
                );
            }
            if !spaces.contains(&Arc::as_ptr(space)) {
                spaces.push(Arc::as_ptr(space));
            }
        }
        assert_eq!(
            absorbed,
            sys.point_set(expected),
            "plan {plan_on}: partition"
        );
        // Once per distinct space: no repeats, and nothing undecided.
        let mut once = decided.clone();
        once.sort();
        once.dedup();
        assert_eq!(
            once.len(),
            decided.len(),
            "plan {plan_on}: a space decided twice"
        );
        spaces.sort();
        assert_eq!(once, spaces, "plan {plan_on}: decided spaces");

        // Visit order: the plan's classes in first-point order, then
        // lone points in ascending order.
        let plan = pa.sample_plan(agent);
        let classes = if plan_on { plan.classes() } else { 0 };
        assert!(groups.len() >= classes);
        for (k, (points, space)) in groups[..classes].iter().enumerate() {
            let (class_space, class_points) = plan.class(k);
            assert!(Arc::ptr_eq(space, class_space), "class {k} out of order");
            assert_eq!(*points, points_of(sys, class_points));
        }
        let alone: Vec<PointId> = groups[classes..]
            .iter()
            .map(|(points, _)| {
                assert_eq!(points.len(), 1, "a fallback point goes alone");
                points[0]
            })
            .collect();
        assert!(alone.windows(2).all(|w| w[0] < w[1]), "fallback order");
        if plan_on {
            assert!(alone
                .iter()
                .copied()
                .eq(plan.unplanned().filter(|c| absorbed.contains(*c))));
        }
    }
}

/// Custom assignments for the sweep differential: one violating REQ2
/// everywhere, one violating it at two points of otherwise many-point
/// classes, and two well-defined ones whose classes are single points
/// or differ from their samples.
fn custom_assignments() -> Vec<Assignment> {
    let holey = |s: &System, _: AgentId, c: PointId| -> Vec<PointId> {
        if [(9, 1), (3, 2)].contains(&(c.run, c.time)) {
            Vec::new()
        } else {
            s.points_at_time(c.tree, c.time).collect()
        }
    };
    vec![
        Assignment::custom("empty", |_, _, _| vec![]),
        Assignment::custom("holey", holey),
        Assignment::custom("singleton", |_, _, c| vec![c]),
        Assignment::custom("halves", |s: &System, _: AgentId, c: PointId| {
            s.points_at_time(c.tree, c.time / 2).collect()
        }),
    ]
}

#[test]
fn the_space_sweep_decides_each_space_once_on_walkthroughs() {
    for sys in walkthrough_systems() {
        for assignment in canonical_assignments(&sys)
            .into_iter()
            .chain(custom_assignments())
        {
            for agent in (0..sys.agent_count()).map(AgentId) {
                assert_sweep_matches_naive(&sys, &assignment, agent);
            }
        }
    }
}

#[test]
fn the_space_sweep_decides_each_space_once_on_random_systems() {
    cases_sharded("space_sweep_vs_naive", |rng| {
        let spec = if rng.chance(1, 2) {
            arb_sync_spec(rng)
        } else {
            arb_async_spec(rng)
        };
        let sys = build(&spec);
        for assignment in canonical_assignments(&sys) {
            let agent = AgentId(rng.index(sys.agent_count()));
            assert_sweep_matches_naive(&sys, &assignment, agent);
        }
    });
}

/// The direct construction against an eager generic table: for every
/// distinct space of every agent, the kernel built straight from the
/// sample equals `DenseKernel::from_space` over `BlockSpace::new` of
/// the same `(point, run)` pairs and run probabilities, the generic
/// table built on demand equals that `BlockSpace`, and `has_kernel`
/// agrees. Before its first use a space holds a generic table only if
/// it has no kernel. Returns how many spaces it checked.
fn assert_direct_build_matches_eager(sys: &System, assignment: &Assignment) -> usize {
    let pa = ProbAssignment::new(sys, assignment.clone());
    let mut checked = 0;
    for agent in (0..sys.agent_count()).map(AgentId) {
        let mut seen = HashSet::new();
        for c in sys.points() {
            let Ok(space) = pa.space(agent, c) else {
                continue;
            };
            if !seen.insert(Arc::as_ptr(&space)) {
                continue;
            }
            let at = format!("{} at {c:?} for {agent:?}", assignment.name());
            assert_eq!(*space.sample(), pa.sample(agent, c), "{at}: sample");
            assert_eq!(
                space.has_generic(),
                !space.has_kernel(),
                "{at}: eager table"
            );
            let pairs = space.sample().iter().map(|p| (p, p.run_id()));
            let eager = BlockSpace::new(pairs, |r| sys.run_prob(*r)).expect("eager space builds");
            let kernel = DenseKernel::from_space(&eager, |p| sys.point_index().try_index_of(*p));
            assert_eq!(space.has_kernel(), kernel.is_some(), "{at}: has_kernel");
            assert!(space.kernel() == kernel.as_ref(), "{at}: kernel");
            assert!(*space.generic() == eager, "{at}: generic table");
            assert!(space.has_generic());
            checked += 1;
        }
    }
    checked
}

#[test]
fn direct_space_builds_match_eager_generic_tables_on_walkthroughs() {
    for sys in walkthrough_systems() {
        let mut checked = 0;
        for assignment in canonical_assignments(&sys)
            .into_iter()
            .chain(custom_assignments())
        {
            checked += assert_direct_build_matches_eager(&sys, &assignment);
        }
        assert!(checked > 0, "no space checked");
    }
}

#[test]
fn direct_space_builds_match_eager_generic_tables_on_random_systems() {
    cases_sharded("direct_vs_eager_spaces", |rng| {
        let spec = if rng.chance(1, 2) {
            arb_sync_spec(rng)
        } else {
            arb_async_spec(rng)
        };
        let sys = build(&spec);
        for assignment in canonical_assignments(&sys)
            .into_iter()
            .chain(custom_assignments())
        {
            assert_direct_build_matches_eager(&sys, &assignment);
        }
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

#[test]
fn prop10_still_holds_under_the_plan() {
    // `prop10_holds` compares the per-run construction with each
    // posterior class's measures; the proposition must keep holding on
    // the walkthroughs and random systems.
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
    // nothing, leaves every point to the sweep's per-point path, and
    // the sweep reports the first point's naive error, plan on or off.
    let empty = ProbAssignment::new(&sys, Assignment::custom("empty", |_, _, _| vec![]));
    let plan = empty.sample_plan(p1);
    assert!(!plan.is_batched());
    assert_eq!(plan.covered(), 0);
    assert!(plan.unplanned().eq(sys.points()));
    let first = sys.points().next().expect("a point");
    let naive = empty.space(p1, first).expect_err("REQ2 violation");
    for plan_on in [true, false] {
        let swept = empty
            .sweep_spaces(p1, plan_on, |_| Ok::<_, AssignError>(()), |_, ()| {})
            .expect_err("REQ2 violation");
        assert_eq!(swept, naive);
    }

    // A well-defined custom assignment (singletons): per-point build,
    // one single-point class per point, each holding the naive `Arc`.
    let single = ProbAssignment::new(&sys, Assignment::custom("singleton", |_, _, c| vec![c]));
    let plan = single.sample_plan(p1);
    assert!(!plan.is_batched());
    assert_eq!(plan.covered(), sys.point_count());
    assert_eq!(plan.classes(), sys.point_count());
    for k in 0..plan.classes() {
        let (space, points) = plan.class(k);
        let [c] = points_of(&sys, points)[..] else {
            panic!("class {k} is not a single point");
        };
        let naive = single.space(p1, c).expect("singleton spaces build");
        assert!(Arc::ptr_eq(space, &naive));
    }

    // Custom pr_ge sweeps stay plan-invariant too (single-point classes).
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

    // A custom assignment that is well defined at most points (the
    // tree's time slice, so classes span many points) but breaks REQ2
    // at two later points. The classes are swept before the unplanned
    // points, yet the error must still name the first failing point in
    // ascending order, exactly as the plan-free sweep reports it.
    let tosses = async_coin_tosses(4).expect("builds");
    let at = |run, time| PointId {
        tree: TreeId(0),
        run,
        time,
    };
    let bad = [at(9, 1), at(3, 2)];
    let holey = move |s: &System, _: AgentId, c: PointId| -> Vec<PointId> {
        if bad.contains(&c) {
            Vec::new()
        } else {
            s.points_at_time(c.tree, c.time).collect()
        }
    };
    let pa_planned = ProbAssignment::new(&tosses, Assignment::custom("holey", holey));
    let pa_naive = ProbAssignment::new(&tosses, Assignment::custom("holey", holey));
    let plan = pa_planned.sample_plan(p1);
    assert!(plan.classes() > 1 && plan.classes() < plan.covered());
    assert!(plan.unplanned().eq([at(3, 2), at(9, 1)]));
    let planned = Model::with_memos(&pa_planned, true, true, true);
    let naive = Model::with_memos(&pa_naive, true, true, false);
    let body = Formula::prop("recent=h");
    let phi = tosses.points_satisfying(tosses.prop_id("recent=h").expect("prop"));
    let alphas = [rat!(1 / 4), rat!(1 / 2), Rat::ONE];
    for &alpha in &alphas {
        let on = planned.pr_ge_set(p1, alpha, &phi).expect_err("REQ2");
        let off = naive.pr_ge_set(p1, alpha, &phi).expect_err("REQ2");
        assert_eq!(format!("{on:?}"), format!("{off:?}"));
        assert!(
            matches!(on, LogicError::Assign(AssignError::Req2Violated { point, .. }) if point == at(3, 2)),
            "{on:?}"
        );
    }
    let on = planned.pr_ge_family(p1, &alphas, &body).expect_err("REQ2");
    let off = naive.pr_ge_family(p1, &alphas, &body).expect_err("REQ2");
    assert_eq!(format!("{on:?}"), format!("{off:?}"));

    // A custom assignment giving many points one shared sample that
    // does not contain them all (points at times 2t and 2t + 1 share
    // the time-t slice), so the per-point plan's classes hold many
    // points and differ from their samples.
    let halves = |s: &System, _: AgentId, c: PointId| -> Vec<PointId> {
        s.points_at_time(c.tree, c.time / 2).collect()
    };
    let pa_planned = ProbAssignment::new(&tosses, Assignment::custom("halves", halves));
    let pa_naive = ProbAssignment::new(&tosses, Assignment::custom("halves", halves));
    let plan = pa_planned.sample_plan(p1);
    assert!(!plan.is_batched());
    assert_eq!(plan.covered(), tosses.point_count());
    assert_eq!(plan.classes(), tosses.horizon() / 2 + 1);
    let planned = Model::with_memos(&pa_planned, true, true, true);
    let naive = Model::with_memos(&pa_naive, true, true, false);
    for &alpha in &alphas {
        assert_eq!(
            planned.pr_ge_set(p1, alpha, &phi).expect("planned"),
            naive.pr_ge_set(p1, alpha, &phi).expect("naive"),
        );
    }
    let on = planned.pr_ge_family(p1, &alphas, &body).expect("planned");
    let off = naive.pr_ge_family(p1, &alphas, &body).expect("naive");
    assert_eq!(on, off);
    assert!(on.iter().any(|set| !set.is_empty()));
}
