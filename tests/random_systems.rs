//! Property tests: the paper's theorems on randomly generated systems.
//!
//! The experiment harness checks the theorems on the paper's own
//! examples; these properties keep the implementations honest on a
//! broad family of machine-generated protocols.
//!
//! Every property here builds whole systems and sweeps betting games or
//! lattice checks per case — the heaviest sweeps in the test suite — so
//! they run via [`cases_sharded`], which splits the case range across
//! std worker threads while giving each case the exact seed the serial
//! `common::cases` sweep would (pinned by `sharded_matches_serial`
//! below, next to the pinned seed streams of every property suite).

mod common;

use common::{arb_async_spec, arb_sync_spec, build, case_seed, cases, cases_sharded, prop_names};
use kpa::assign::{lattice, Assignment, ProbAssignment};
use kpa::asynchrony::prop10_holds;
use kpa::betting::{BetRule, BettingError, BettingGame};
use kpa::logic::Model;
use kpa::measure::Rat;
use kpa::protocols::{async_coin_tosses, ca1, secret_coin};
use kpa::system::{AgentId, System, SystemBuilder};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Theorem 7 on random synchronous systems: for every bettor,
/// opponent, fact, and threshold, safety coincides with K^α.
#[test]
fn theorem7_on_random_systems() {
    cases_sharded("theorem7_on_random_systems", |rng| {
        let spec = arb_sync_spec(rng);
        let sys = build(&spec);
        let alpha = [Rat::new(1, 3), Rat::new(1, 2), Rat::ONE][rng.index(3)];
        for phi_name in prop_names(&spec) {
            let phi = sys.points_satisfying(sys.prop_id(&phi_name).unwrap());
            for i in 0..sys.agent_count() {
                for j in 0..sys.agent_count() {
                    let game = BettingGame::new(&sys, AgentId(i), AgentId(j));
                    let rule = BetRule::new(phi.clone(), alpha).unwrap();
                    assert!(
                        game.theorem7_holds(&rule).unwrap(),
                        "Theorem 7 fails: i={i} j={j} phi={phi_name} alpha={alpha}"
                    );
                }
            }
        }
    });
}

/// Proposition 6 on random synchronous systems: Tree-safety and
/// Tree^j-safety coincide.
#[test]
fn proposition6_on_random_systems() {
    cases_sharded("proposition6_on_random_systems", |rng| {
        let spec = arb_sync_spec(rng);
        let sys = build(&spec);
        if !sys.is_synchronous() {
            return;
        }
        for phi_name in prop_names(&spec) {
            let phi = sys.points_satisfying(sys.prop_id(&phi_name).unwrap());
            let game = BettingGame::new(&sys, AgentId(0), AgentId(sys.agent_count() - 1));
            let rule = BetRule::new(phi, Rat::new(1, 2)).unwrap();
            assert!(game.proposition6_holds(&rule).unwrap());
        }
    });
}

/// Proposition 6 as a per-point loop decides it: at each point,
/// `Tree`-safety against `Tree^j`-safety. The reference for the
/// per-class `proposition6_holds`.
fn proposition6_per_point(game: &BettingGame<'_>, rule: &BetRule) -> Result<bool, BettingError> {
    for c in game.system().points() {
        if game.tree_safe_at(c, rule)? != game.is_safe_at(c, rule)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The per-class Proposition 6 check returns what the per-point loop
/// returns — the same verdict, or the same error — on synchronous
/// systems and on asynchronous ones, where the posterior winnings can
/// be nonmeasurable and the loop's short-circuits decide which error
/// (if any) surfaces.
#[test]
fn proposition6_per_class_matches_the_per_point_loop() {
    let outcomes = Mutex::new(BTreeSet::new());
    cases_sharded("proposition6_per_class_vs_per_point", |rng| {
        let spec = if rng.chance(1, 2) {
            arb_sync_spec(rng)
        } else {
            arb_async_spec(rng)
        };
        let sys = build(&spec);
        let alpha = [Rat::new(1, 3), Rat::new(1, 2), Rat::ONE][rng.index(3)];
        for phi_name in prop_names(&spec) {
            let phi = sys.points_satisfying(sys.prop_id(&phi_name).unwrap());
            let bettor = AgentId(rng.index(sys.agent_count()));
            let opponent = AgentId(rng.index(sys.agent_count()));
            let game = BettingGame::new(&sys, bettor, opponent);
            let rule = BetRule::new(phi, alpha).unwrap();
            let per_class = game.proposition6_holds(&rule);
            assert_eq!(
                per_class,
                proposition6_per_point(&game, &rule),
                "phi={phi_name} bettor={bettor:?} opponent={opponent:?} alpha={alpha}"
            );
            outcomes.lock().unwrap().insert(format!("{per_class:?}"));
        }
    });
    // The error path is compared, not only the verdicts.
    let outcomes = outcomes.into_inner().unwrap();
    assert!(
        outcomes.contains("Ok(true)") && outcomes.contains("Err(NonMeasurableWinnings)"),
        "{outcomes:?}"
    );
}

/// The canonical chain and Propositions 4–5 on random synchronous
/// systems.
#[test]
fn lattice_structure_on_random_systems() {
    cases_sharded("lattice_structure_on_random_systems", |rng| {
        let spec = arb_sync_spec(rng);
        let sys = build(&spec);
        if !sys.is_synchronous() {
            return;
        }
        let fut = ProbAssignment::new(&sys, Assignment::fut());
        let post = ProbAssignment::new(&sys, Assignment::post());
        let prior = ProbAssignment::new(&sys, Assignment::prior());
        let opp = ProbAssignment::new(&sys, Assignment::opp(AgentId(sys.agent_count() - 1)));

        assert!(lattice::leq(&fut, &opp));
        assert!(lattice::leq(&opp, &post));
        assert!(lattice::leq(&post, &prior));

        assert!(lattice::refines_by_partition(&fut, &opp));
        assert!(lattice::refines_by_partition(&opp, &post));
        assert!(lattice::refines_by_partition(&post, &prior));

        assert!(lattice::conditioning_agrees(&fut, &post).unwrap());
        assert!(lattice::conditioning_agrees(&opp, &post).unwrap());
        assert!(lattice::conditioning_agrees(&post, &prior).unwrap());
    });
}

/// Theorem 9(a) on random synchronous systems: going up the lattice
/// never widens the per-class probability interval.
#[test]
fn theorem9a_on_random_systems() {
    cases_sharded("theorem9a_on_random_systems", |rng| {
        let spec = arb_sync_spec(rng);
        let sys = build(&spec);
        if !sys.is_synchronous() {
            return;
        }
        let fine = ProbAssignment::new(&sys, Assignment::opp(AgentId(sys.agent_count() - 1)));
        let coarse = ProbAssignment::new(&sys, Assignment::post());
        for phi_name in prop_names(&spec) {
            let phi = sys.points_satisfying(sys.prop_id(&phi_name).unwrap());
            for agent in (0..sys.agent_count()).map(AgentId) {
                for c in sys.points() {
                    let (flo, fhi) = fine.known_interval(agent, c, &phi).unwrap();
                    let (clo, chi) = coarse.known_interval(agent, c, &phi).unwrap();
                    assert!(
                        clo >= flo && chi <= fhi,
                        "interval widened: fine [{flo},{fhi}] coarse [{clo},{chi}]"
                    );
                }
            }
        }
    });
}

/// Theorem 7 also holds in asynchronous systems (the paper notes
/// the Tree^j-based safety definition carries over): check it on
/// random systems with clockless agents.
#[test]
fn theorem7_on_random_async_systems() {
    cases_sharded("theorem7_on_random_async_systems", |rng| {
        let spec = arb_async_spec(rng);
        let sys = build(&spec);
        for phi_name in prop_names(&spec) {
            let phi = sys.points_satisfying(sys.prop_id(&phi_name).unwrap());
            for i in 0..sys.agent_count() {
                for j in 0..sys.agent_count() {
                    let game = BettingGame::new(&sys, AgentId(i), AgentId(j));
                    let rule = BetRule::new(phi.clone(), Rat::new(1, 2)).unwrap();
                    assert!(
                        game.theorem7_holds(&rule).unwrap(),
                        "async Theorem 7 fails: i={i} j={j} phi={phi_name}"
                    );
                }
            }
        }
    });
}

/// Rational-opponent safety always contains plain safety, on random
/// systems (the §9 extension's basic monotonicity).
#[test]
fn rational_safety_contains_safety() {
    cases_sharded("rational_safety_contains_safety", |rng| {
        let spec = arb_sync_spec(rng);
        let sys = build(&spec);
        let game = BettingGame::new(&sys, AgentId(0), AgentId(sys.agent_count() - 1));
        for phi_name in prop_names(&spec) {
            let phi = sys.points_satisfying(sys.prop_id(&phi_name).unwrap());
            for alpha in [Rat::new(1, 3), Rat::new(1, 2)] {
                let rule = BetRule::new(phi.clone(), alpha).unwrap();
                for c in sys.points() {
                    if game.is_safe_at(c, &rule).unwrap() {
                        assert!(game.is_safe_against_rational_at(c, &rule).unwrap());
                    }
                }
            }
        }
    });
}

/// Proposition 10 on random (possibly asynchronous) systems: the
/// pts-adversary bounds equal the posterior inner/outer interval.
#[test]
fn prop10_on_random_systems() {
    cases_sharded("prop10_on_random_systems", |rng| {
        let spec = arb_async_spec(rng);
        let sys = build(&spec);
        for phi_name in prop_names(&spec) {
            let phi = sys.points_satisfying(sys.prop_id(&phi_name).unwrap());
            for agent in (0..sys.agent_count()).map(AgentId) {
                assert!(prop10_holds(&sys, agent, &phi).unwrap());
            }
        }
    });
}

/// Window-class bounds are monotone in the window width, nested
/// between horizontal cuts and arbitrary cuts (Section 7's partial
/// synchrony discussion).
#[test]
fn window_bounds_nest_on_random_systems() {
    cases_sharded("window_bounds_nest_on_random_systems", |rng| {
        use kpa::asynchrony::{region_for, CutClass};
        let spec = arb_async_spec(rng);
        let sys = build(&spec);
        let horizon = sys.horizon();
        for phi_name in prop_names(&spec) {
            let phi = sys.points_satisfying(sys.prop_id(&phi_name).unwrap());
            let agent = AgentId(0);
            let c = sys.points().next().unwrap();
            let region = region_for(&sys, agent, agent, c);
            let mut prev: Option<(Rat, Rat)> = None;
            for width in 0..=horizon {
                let Ok(bounds) = CutClass::Window(width).bounds(&sys, &region, &phi) else {
                    continue; // no valid cut at this width
                };
                if let Some((lo, hi)) = prev {
                    assert!(bounds.0 <= lo && hi <= bounds.1, "widening shrank bounds");
                }
                prev = Some(bounds);
            }
            // The widest window admits every cut: equals AllPoints.
            if let Some(last) = prev {
                let all = CutClass::AllPoints.bounds(&sys, &region, &phi).unwrap();
                assert_eq!(last, all);
            }
        }
    });
}

/// Consistent assignments satisfy K_i φ ⇒ Pr_i(φ) = 1 (the FH88
/// characterization quoted in §5), and the prior can violate it.
#[test]
fn consistency_axiom_on_random_systems() {
    cases_sharded("consistency_axiom_on_random_systems", |rng| {
        let spec = arb_sync_spec(rng);
        let sys = build(&spec);
        let post = ProbAssignment::new(&sys, Assignment::post());
        let model = Model::new(&post);
        for phi_name in prop_names(&spec) {
            let phi = kpa::logic::Formula::prop(&phi_name);
            for agent in (0..sys.agent_count()).map(AgentId) {
                let knows = model.sat(&phi.clone().known_by(agent)).unwrap();
                let certain = model.sat(&phi.clone().pr_ge(agent, Rat::ONE)).unwrap();
                assert!(knows.is_subset(&certain));
            }
        }
    });
}

/// `System::points_satisfying` (built from the labeled nodes) against
/// the per-point definition — every point whose global state carries
/// the proposition — for every proposition of the walkthrough systems,
/// a stutter-padded tree, and random sync and async systems.
#[test]
fn points_satisfying_matches_the_per_point_definition() {
    fn check(sys: &System) {
        for name in sys.prop_names() {
            let prop = sys.prop_id(name).expect("listed prop");
            let by_node = sys.points_satisfying(prop);
            let by_point = sys.point_set(sys.points().filter(|&p| sys.holds(prop, p)));
            assert_eq!(by_node, by_point, "points_satisfying({name}) diverged");
            assert!(by_node.footprint_is_valid());
        }
    }
    for sys in [
        secret_coin().expect("builds"),
        async_coin_tosses(4).expect("builds"),
        ca1(3, Rat::new(1, 2)).expect("builds"),
    ] {
        check(&sys);
    }
    // Uneven leaves: the short run's last point is a stutter node.
    let mut b = SystemBuilder::new(["p1"]);
    let t = b.add_tree("a");
    let root = b.add_root(t, &["s"], &["start"]).expect("root");
    b.add_child(t, root, Rat::new(1, 2), &["short"], &["done"])
        .expect("child");
    let long = b
        .add_child(t, root, Rat::new(1, 2), &["long"], &[])
        .expect("child");
    b.add_child(t, long, Rat::ONE, &["long2"], &["done"])
        .expect("child");
    let padded = b.build().expect("builds");
    assert_eq!(
        padded
            .points_satisfying(padded.prop_id("done").expect("prop"))
            .len(),
        3
    );
    check(&padded);
    cases("points_satisfying_oracle", |rng| {
        let spec = if rng.chance(1, 2) {
            arb_sync_spec(rng)
        } else {
            arb_async_spec(rng)
        };
        check(&build(&spec));
    });
}

/// `cases_sharded` hands every case the exact seed `cases` hands it —
/// sharding redistributes work, never inputs — and both drivers draw
/// identical first values from each stream.
#[test]
fn sharded_matches_serial() {
    let mut serial: Vec<(u64, u64)> = Vec::new();
    cases("sharded_matches_serial", |rng| {
        serial.push((rng.next_u64(), rng.next_u64()));
    });
    let sharded: Mutex<BTreeSet<(u64, u64)>> = Mutex::new(BTreeSet::new());
    cases_sharded("sharded_matches_serial", |rng| {
        let pair = (rng.next_u64(), rng.next_u64());
        assert!(
            sharded.lock().unwrap().insert(pair),
            "two shards ran the same case"
        );
    });
    let sharded = sharded.into_inner().unwrap();
    assert_eq!(serial.len(), sharded.len(), "sharding dropped cases");
    let serial_set: BTreeSet<(u64, u64)> = serial.into_iter().collect();
    assert_eq!(serial_set, sharded, "sharding shifted case inputs");
}

/// The first four case seeds of every property in the suite, pinned.
/// Any change to the tag function, the golden-ratio stride, or the
/// sharded driver's seed derivation trips this test — seeds are part of
/// the reproducibility contract, not an implementation detail.
#[test]
fn seed_streams_are_pinned() {
    #[rustfmt::skip]
    let pinned: &[(&str, [u64; 4])] = &[
        ("kernel_matches_reference_on_sync_systems", [0xC480887F5E0BB86F, 0x5AB7F1C62141C47A, 0xF8EE7B0DA09F4045, 0x1E26E55323D4CC50]),
        ("kernel_matches_reference_on_async_systems", [0x9FF3EB9255FB562E, 0x01C4922B2AB12A3B, 0xA39D18E0AB6FAE04, 0x455586BE28242211]),
        ("display_parse_roundtrip", [0x249B8450FC5A9CE9, 0xBAACFDE98310E0FC, 0x18F5772202CE64C3, 0xFE3DE97C8185E8D6]),
        ("parser_never_panics_on_arbitrary_input", [0xE1D2742ED8C57F42, 0x7FE50D97A78F0357, 0xDDBC875C26518768, 0x3B741902A51A0B7D]),
        ("parser_never_panics_on_operator_soup", [0xF8C997308862FB99, 0x66FEEE89F728878C, 0xC4A7644276F603B3, 0x226FFA1CF5BD8FA6]),
        ("structural_queries_survive_roundtrip", [0xEA222B6E2928E1EC, 0x741552D756629DF9, 0xD64CD81CD7BC19C6, 0x3084464254F795D3]),
        ("proof_lines_are_semantically_valid", [0xD39AA4968D46EE1A, 0x4DADDD2FF20C920F, 0xEFF457E473D21630, 0x093CC9BAF0999A25]),
        ("theorem_library_is_sound", [0x7F85154BAE804434, 0xE1B26CF2D1CA3821, 0x43EBE6395014BC1E, 0xA5237867D35F300B]),
        ("axiom_instances_are_valid", [0x569D5E232A730810, 0xC8AA279A55397405, 0x6AF3AD51D4E7F03A, 0x8C3B330F57AC7C2F]),
        ("certainty_axiom_characterizes_consistency", [0xA539518F3B402221, 0x3B0E2836440A5E34, 0x9957A2FDC5D4DA0B, 0x7F9F3CA3469F561E]),
        ("until_expansion", [0x922C2566F4361A85, 0x0C1B5CDF8B7C6690, 0xAE42D6140AA2E2AF, 0x488A484A89E96EBA]),
        ("eventually_always_laws", [0x9D150C1440E3E448, 0x032275AD3FA9985D, 0xA17BFF66BE771C62, 0x47B361383D3C9077]),
        ("horizon_semantics", [0x090A7B9596B5D716, 0x973D022CE9FFAB03, 0x356488E768212F3C, 0xD3AC16B9EB6AA329]),
        ("boolean_laws", [0xD5DAD9EAFDC62351, 0x4BEDA053828C5F44, 0xE9B42A980352DB7B, 0x0F7CB4C68019576E]),
        ("sticky_props_are_monotone", [0xBE51474B1C8A461C, 0x20663EF263C03A09, 0x823FB439E21EBE36, 0x64F72A6761553223]),
        ("s5_axioms", [0x34CD9216C52209F7, 0xAAFAEBAFBA6875E2, 0x08A361643BB6F1DD, 0xEE6BFF3AB8FD7DC8]),
        ("common_knowledge_fixed_point", [0x1C6ED801CCF0BC87, 0x8259A1B8B3BAC092, 0x20002B73326444AD, 0xC6C8B52DB12FC8B8]),
        ("common_knowledge_induction", [0x07C8B63C0C4C5ABF, 0x99FFCF85730626AA, 0x3BA6454EF2D8A295, 0xDD6EDB1071932E80]),
        ("probabilistic_common_knowledge_fixed_point", [0x271E0BA95DF7CA1B, 0xB929721022BDB60E, 0x1B70F8DBA3633231, 0xFDB866852028BE24]),
        ("common_knowledge_strength_ordering", [0xF32808B5A4C677BE, 0x6D1F710CDB8C0BAB, 0xCF46FBC75A528F94, 0x298E6599D9190381]),
        ("theorem7_on_random_systems", [0x1F897FC424B3CF1B, 0x81BE067D5BF9B30E, 0x23E78CB6DA273731, 0xC52F12E8596CBB24]),
        ("proposition6_on_random_systems", [0xCC54821A70E588D4, 0x5263FBA30FAFF4C1, 0xF03A71688E7170FE, 0x16F2EF360D3AFCEB]),
        ("lattice_structure_on_random_systems", [0xDB5ECA5C04FFF0E4, 0x4569B3E57BB58CF1, 0xE730392EFA6B08CE, 0x01F8A770792084DB]),
        ("theorem9a_on_random_systems", [0x093B9A57EF2CB2DE, 0x970CE3EE9066CECB, 0x3555692511B84AF4, 0xD39DF77B92F3C6E1]),
        ("theorem7_on_random_async_systems", [0x2878BA5CC8783034, 0xB64FC3E5B7324C21, 0x1416492E36ECC81E, 0xF2DED770B5A7440B]),
        ("rational_safety_contains_safety", [0x4F5B26C381BDC575, 0xD16C5F7AFEF7B960, 0x7335D5B17F293D5F, 0x95FD4BEFFC62B14A]),
        ("prop10_on_random_systems", [0x21D0F472E719DA32, 0xBFE78DCB9853A627, 0x1DBE0700198D2218, 0xFB76995E9AC6AE0D]),
        ("window_bounds_nest_on_random_systems", [0x71CC2C94607E7DDD, 0xEFFB552D1F3401C8, 0x4DA2DFE69EEA85F7, 0xAB6A41B81DA109E2]),
        ("consistency_axiom_on_random_systems", [0xC7DF8BD6A0DDD39F, 0x59E8F26FDF97AF8A, 0xFBB178A45E492BB5, 0x1D79E6FADD02A7A0]),
        ("sat_thread_invariance", [0x4FC8FCACEE343689, 0xD1FF8515917E4A9C, 0x73A60FDE10A0CEA3, 0x956E918093EB42B6]),
        ("betting_thread_invariance", [0x2354606C150FEF76, 0xBD6319D56A459363, 0x1F3A931EEB9B175C, 0xF9F20D4068D09B49]),
        ("cut_bounds_thread_invariance", [0xDB5BD6640617CE5F, 0x456CAFDD795DB24A, 0xE7352516F8833675, 0x01FDBB487BC8BA60]),
        ("sharded_matches_serial", [0xF3BF0D80E928FB0D, 0x6D88743996628718, 0xCFD1FEF217BC0327, 0x291960AC94F78F32]),
    ];
    for (name, seeds) in pinned {
        for (case, &expected) in seeds.iter().enumerate() {
            assert_eq!(
                case_seed(name, case),
                expected,
                "seed stream shifted for {name} case {case}"
            );
        }
    }
}
