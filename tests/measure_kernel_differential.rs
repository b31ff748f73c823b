//! Differential suite for the dense measure kernel: every word-masked
//! query of [`DensePointSpace`] must agree *bit for bit* with the
//! generic element-at-a-time scan of the underlying `PointSpace` — on
//! measures, inner/outer measures, the fused interval, measurability
//! verdicts, and `NonMeasurable` errors alike.
//!
//! The sweep runs the paper's walkthrough systems plus machine-generated
//! synchronous and asynchronous systems (`--features fuzz` widens it),
//! and queries every canonical assignment's spaces. A final section
//! pins that the per-class `Pr` memo of `Model` is observationally
//! invisible.

mod common;

use common::{arb_async_spec, arb_sync_spec, build, cases, cases_sharded, prop_names};
use kpa::assign::{Assignment, DensePointSpace, ProbAssignment};
use kpa::logic::{Formula, Model};
use kpa::measure::{rat, MeasureError, Rat, Rng64};
use kpa::protocols::{async_coin_tosses, ca1, secret_coin};
use kpa::system::{AgentId, PointId, PointSet, System};
use std::collections::BTreeSet;

/// One space/set comparison: the dense dispatching queries against the
/// generic scans, with the set routed through `BTreeSet` on the generic
/// side so `member_words` cannot leak in. Exact rationals have unique
/// canonical forms, so `assert_eq!` *is* the bit-identity check.
fn assert_kernel_agrees(space: &DensePointSpace, phi: &PointSet) {
    let generic = space.generic();
    let slow: BTreeSet<PointId> = phi.iter().collect();

    // Measurability verdicts agree.
    let measurable = space.is_measurable(phi);
    assert_eq!(measurable, generic.is_measurable(&slow), "is_measurable");

    // Point measures agree, including the NonMeasurable error.
    match (space.measure(phi), generic.measure(&slow)) {
        (Ok(dense), Ok(gen)) => {
            assert!(measurable);
            assert_eq!(dense, gen, "measure");
        }
        (Err(MeasureError::NonMeasurable), Err(MeasureError::NonMeasurable)) => {
            assert!(!measurable);
        }
        (dense, gen) => panic!("measure disagrees: dense {dense:?}, generic {gen:?}"),
    }

    // Inner/outer and the fused interval agree — and the interval is
    // exactly the (inner, outer) pair on both paths.
    let inner = space.inner_measure(phi);
    let outer = space.outer_measure(phi);
    assert_eq!(inner, generic.inner_measure(&slow), "inner_measure");
    assert_eq!(outer, generic.outer_measure(&slow), "outer_measure");
    assert_eq!(space.measure_interval(phi), (inner, outer), "fused dense");
    assert_eq!(
        generic.measure_interval(&slow),
        (inner, outer),
        "fused generic"
    );
    if measurable {
        assert_eq!(inner, outer, "measurable sets have tight intervals");
    }
}

/// A family of query sets for a system: the proposition sets, their
/// complements, pairwise unions/intersections, the empty and full sets,
/// and a few random subsets.
fn query_sets(sys: &System, props: &[String], rng: &mut Rng64) -> Vec<PointSet> {
    let mut sets = vec![sys.empty_points(), sys.full_points()];
    let prop_sets: Vec<PointSet> = props
        .iter()
        .map(|p| sys.points_satisfying(sys.prop_id(p).expect("known prop")))
        .collect();
    for s in &prop_sets {
        sets.push(s.clone());
        sets.push(s.complement());
    }
    for pair in prop_sets.windows(2) {
        sets.push(pair[0].union(&pair[1]));
        sets.push(pair[0].intersection(&pair[1]));
    }
    for _ in 0..3 {
        let mut random = sys.full_points();
        random.retain(|_| rng.chance(1, 2));
        sets.push(random);
    }
    sets
}

/// Sweeps every canonical assignment, agent, and point of `sys`,
/// asserting kernel/generic agreement on every query set — and that the
/// assignment-level queries (`prob`, `inner`, `outer`, `interval`,
/// `known_interval`) match what the spaces say.
fn sweep_system(sys: &System, props: &[String], rng: &mut Rng64) {
    let agents: Vec<AgentId> = (0..sys.agent_count()).map(AgentId).collect();
    let mut assignments = vec![Assignment::post(), Assignment::fut(), Assignment::prior()];
    assignments.extend(agents.iter().map(|&j| Assignment::opp(j)));
    let sets = query_sets(sys, props, rng);

    for assignment in assignments {
        let pa = ProbAssignment::new(sys, assignment);
        for &agent in &agents {
            for c in sys.points() {
                let space = pa.space(agent, c).expect("spaces build");
                assert!(
                    space.has_kernel(),
                    "paper-system spaces always admit a kernel"
                );
                for phi in &sets {
                    assert_kernel_agrees(&space, phi);

                    // Assignment-level queries agree with the space.
                    let (lo, hi) = pa.interval(agent, c, phi).expect("interval");
                    assert_eq!((lo, hi), space.measure_interval(phi));
                    assert_eq!(pa.inner(agent, c, phi).expect("inner"), lo);
                    assert_eq!(pa.outer(agent, c, phi).expect("outer"), hi);
                    match pa.prob(agent, c, phi) {
                        Ok(p) => assert_eq!(p, lo),
                        Err(_) => assert!(!space.is_measurable(phi)),
                    }
                }

                // `known_interval` (with its repeated-space dedupe) must
                // equal the brute-force fold over *all* class points.
                let phi = &sets[rng.index(sets.len())];
                let mut bounds: Option<(Rat, Rat)> = None;
                for d in sys.indistinguishable(agent, c) {
                    let s = pa.space(agent, d).expect("spaces build");
                    let (l, h) = s.measure_interval(phi);
                    bounds = Some(match bounds {
                        None => (l, h),
                        Some((lo, hi)) => (lo.min(l), hi.max(h)),
                    });
                }
                assert_eq!(
                    pa.known_interval(agent, c, phi).expect("known_interval"),
                    bounds.expect("classes are nonempty"),
                    "known_interval dedupe changed the fold"
                );
            }
        }
    }
}

/// Dense and generic paths agree on the three paper walkthrough systems
/// (all assignments × agents × points × query sets).
#[test]
fn kernel_matches_generic_on_walkthrough_systems() {
    let mut rng = Rng64::new(common::case_seed("kernel_walkthrough", 0));
    let coin = secret_coin().expect("builds");
    sweep_system(&coin, &["c=h".into(), "c=t".into()], &mut rng);

    let tosses = async_coin_tosses(3).expect("builds");
    sweep_system(&tosses, &["recent=h".into(), "recent=t".into()], &mut rng);

    let attack = ca1(2, rat!(1 / 2)).expect("builds");
    sweep_system(&attack, &["coordinated".into()], &mut rng);
}

/// …and on machine-generated synchronous systems.
#[test]
fn kernel_matches_generic_on_random_sync_systems() {
    cases_sharded("kernel_matches_generic_on_random_sync_systems", |rng| {
        let spec = arb_sync_spec(rng);
        let sys = build(&spec);
        sweep_system(&sys, &prop_names(&spec), rng);
    });
}

/// …and on machine-generated asynchronous systems, where clockless
/// samples straddle times and `NonMeasurable` actually fires.
#[test]
fn kernel_matches_generic_on_random_async_systems() {
    cases_sharded("kernel_matches_generic_on_random_async_systems", |rng| {
        let spec = arb_async_spec(rng);
        let sys = build(&spec);
        sweep_system(&sys, &prop_names(&spec), rng);
    });
}

/// The clockless observer's "most recent toss is heads" is the paper's
/// canonical nonmeasurable set: both paths must refuse it identically
/// and produce the same strict inner/outer gap.
#[test]
fn nonmeasurable_walkthrough_is_pinned() {
    let sys = async_coin_tosses(3).expect("builds");
    let p1 = AgentId(0);
    let phi = sys.points_satisfying(sys.prop_id("recent=h").expect("prop"));
    let post = ProbAssignment::new(&sys, Assignment::post());
    let c = PointId {
        tree: kpa::system::TreeId(0),
        run: 0,
        time: 1,
    };
    let space = post.space(p1, c).expect("space builds");
    assert!(space.has_kernel());
    assert!(!space.is_measurable(&phi));
    assert!(matches!(
        space.measure(&phi),
        Err(MeasureError::NonMeasurable)
    ));
    assert_eq!(space.measure_interval(&phi), (rat!(1 / 8), rat!(7 / 8)));
    assert_kernel_agrees(&space, &phi);
}

/// Footprint hints are query-invisible on ladder-shaped sets: the same
/// bits carried with a tight footprint (insert-built), a deliberately
/// loose full-span footprint (`narrow_union_with` installs one), and a
/// re-tightened one must produce bit-identical answers on every dense
/// query — and all three must agree with the generic scan. The shapes
/// mirror the size-ladder workloads: single-run slivers at the first,
/// middle, and last runs (tight footprints with all-zero words on both
/// sides), their unions, and the full set.
#[test]
fn footprint_hints_are_query_invisible_on_ladder_shapes() {
    let sys = async_coin_tosses(6).expect("builds");
    let runs = sys.points().map(|p| p.run).max().expect("nonempty system");

    // Tight: built by insert, so the footprint hugs the run's words.
    let sliver = |r: usize| {
        let mut s = sys.empty_points();
        for p in sys.points().filter(|p| p.run == r) {
            s.insert(p);
        }
        s
    };
    let mut shapes = vec![sliver(0), sliver(runs / 2), sliver(runs)];
    let mut union = sys.empty_points();
    for s in &shapes {
        union = union.union(s);
    }
    shapes.push(union);
    shapes.push(sys.full_points());

    let post = ProbAssignment::new(&sys, Assignment::post());
    for agent in [AgentId(0), AgentId(1)] {
        for c in sys.points().step_by(57) {
            let space = post.space(agent, c).expect("space builds");
            for tight in &shapes {
                // Same bits, maximally loose footprint: the kernel gets
                // no skip hint it can trust beyond the full span.
                let mut loose = sys.empty_points();
                loose.narrow_union_with(tight);
                // … and a re-tightened copy (minimal hint).
                let mut retight = loose.clone();
                retight.tighten_footprint();

                assert_kernel_agrees(&space, tight);
                assert_kernel_agrees(&space, &loose);
                assert_kernel_agrees(&space, &retight);
                assert_eq!(
                    space.measure_interval(tight),
                    space.measure_interval(&loose),
                    "footprint hint changed an interval"
                );
                assert_eq!(
                    space.measure_interval(tight),
                    space.measure_interval(&retight),
                    "tightening changed an interval"
                );
                assert_eq!(
                    space.is_measurable(tight),
                    space.is_measurable(&loose),
                    "footprint hint changed a measurability verdict"
                );
            }
        }
    }
}

/// The whole dense-vs-generic sweep is reproducible: two runs over one
/// seeded system assert the same equalities, and the assignment-level
/// intervals they observe are bit-identical.
#[test]
fn kernel_agreement_is_thread_invariant() {
    let observe = || {
        let mut rng = Rng64::new(common::case_seed("kernel_thread_invariance", 0));
        let spec = arb_async_spec(&mut rng);
        let sys = build(&spec);
        let props = prop_names(&spec);
        sweep_system(&sys, &props, &mut rng);
        // Collect a fingerprint of assignment-level answers.
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let sets = query_sets(&sys, &props, &mut rng);
        let mut out: Vec<(Rat, Rat)> = Vec::new();
        for c in sys.points() {
            for phi in &sets {
                out.push(pa.interval(AgentId(0), c, phi).expect("interval"));
            }
        }
        out
    };
    assert_eq!(observe(), observe(), "a second run changed an interval");
}

/// The per-class `Pr` memo is observationally invisible: `Pr_i ≥ α`
/// satisfaction sets are identical with the memo on and off, across
/// formulas sharing spaces and thresholds — and the memoized model
/// actually caches inner measures.
#[test]
fn pr_memo_is_observationally_invisible() {
    cases("pr_memo_invisibility", |rng| {
        let spec = arb_sync_spec(rng);
        let sys = build(&spec);
        let props = prop_names(&spec);
        let phi = Formula::prop(&props[rng.index(props.len())]);
        let agents: Vec<AgentId> = (0..spec.agents).map(AgentId).collect();
        let i = agents[rng.index(agents.len())];
        // Repeated (space, sat-set) pairs across α thresholds: the memo
        // caches the inner measure once and re-compares per α.
        let queries = [
            phi.clone().pr_ge(i, rat!(1 / 4)),
            phi.clone().pr_ge(i, rat!(1 / 2)),
            phi.clone().pr_ge(i, rat!(3 / 4)),
            phi.clone().pr_ge(i, Rat::ONE),
            phi.clone().not().pr_ge(i, rat!(1 / 2)),
            phi.clone().pr_ge(i, rat!(1 / 2)).known_by(i),
        ];
        let post = ProbAssignment::new(&sys, Assignment::post());
        let memoized = Model::new(&post);
        // Plan off too, so the comparison covers the fully unassisted
        // per-point path (the plan has its own differential suite).
        let plain = Model::with_memos(&post, true, false, false);
        assert!(memoized.pr_memo_enabled());
        assert!(!plain.pr_memo_enabled());
        for f in &queries {
            let with_memo = memoized.sat(f).expect("model checks");
            let without = plain.sat(f).expect("model checks");
            assert_eq!(
                *with_memo, *without,
                "Pr memo changed the satisfaction set of {f}"
            );
        }
        assert!(
            memoized.pr_memo_len() > 0,
            "threshold family never hit the Pr memo"
        );
        assert_eq!(plain.pr_memo_len(), 0);
    });
}
