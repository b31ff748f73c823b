//! Differential + metamorphic tests for the `kpa-pool` parallel sweeps.
//!
//! The pool's determinism contract says every parallel sweep —
//! `Model::sat`, the betting safety decisions, and the asynchrony cut
//! bounds — is *bit-identical* to its serial evaluation at any thread
//! count: chunk boundaries are a pure function of `(len, threads)`,
//! work stealing only changes which worker runs a chunk, and partials
//! recombine in chunk order. These tests hold the engine to that
//! contract on the same random sync/async systems the property suites
//! sweep, at `threads = 1`, `2`, and the machine's available
//! parallelism, and additionally shake the pool's own reductions with
//! seeded fault injection that randomizes steal order.
//!
//! The seed-pinning test at the bottom guards the sharded case driver:
//! `cases_sharded` must hand every case the exact RNG seed `cases`
//! would, forever.

mod common;

use common::{arb_async_spec, arb_sync_spec, build, case_seed, cases, cases_sharded, prop_names};
use kpa::assign::{Assignment, ProbAssignment};
use kpa::asynchrony::{prop10_holds, region_for, CutClass};
use kpa::betting::{BetRule, BettingGame};
use kpa::logic::{Formula, Model, PointSet};
use kpa::measure::{Rat, Rng64};
use kpa::pool::{with_threads, Pool};
use kpa::system::{AgentId, System};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// The thread counts every differential test sweeps: serial, the
/// smallest genuinely parallel pool, and everything the host offers.
fn thread_counts() -> Vec<usize> {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 2, avail];
    counts.dedup();
    counts
}

/// Runs `eval` at each thread count and asserts the results are
/// bit-identical to the 1-thread result, word for word.
fn assert_thread_invariant(label: &str, eval: impl Fn() -> PointSet) {
    let baseline = with_threads(1, &eval);
    for threads in thread_counts() {
        let got = with_threads(threads, &eval);
        assert_eq!(
            baseline.as_words(),
            got.as_words(),
            "{label}: words differ between threads=1 and threads={threads}"
        );
    }
}

/// A small formula family exercising every parallel `Model::sat` path:
/// the `knows_set` class scan, the `pr_ge_set` point sweep, and both
/// fixpoints that iterate them.
fn formula_family(sys: &System, props: &[String]) -> Vec<Formula> {
    let p = Formula::prop(&props[0]);
    let q = Formula::prop(props.last().expect("at least one round"));
    let a0 = AgentId(0);
    let a1 = AgentId(sys.agent_count() - 1);
    vec![
        p.clone().known_by(a0),
        p.clone().k_alpha(a1, Rat::new(1, 2)),
        p.clone().pr_ge(a0, Rat::new(1, 3)).not(),
        Formula::or([p.clone(), q.clone()]).until(q.clone()),
        p.clone().eventually().common([a0, a1]),
        q.common_alpha([a0, a1], Rat::new(1, 3)),
    ]
}

/// `Model::sat` is thread-invariant on random sync and async systems,
/// with the `knows_set` memo both on and off.
#[test]
fn sat_thread_invariance() {
    cases("sat_thread_invariance", |rng| {
        let spec = if rng.chance(1, 2) {
            arb_sync_spec(rng)
        } else {
            arb_async_spec(rng)
        };
        let sys = build(&spec);
        let props = prop_names(&spec);
        for f in formula_family(&sys, &props) {
            for memo in [true, false] {
                assert_thread_invariant(&format!("sat({f}) memo={memo}"), || {
                    // Fresh assignment + model per evaluation: no cache
                    // state crosses thread counts.
                    let post = ProbAssignment::new(&sys, Assignment::post());
                    let model = Model::with_memos(&post, memo, true, true);
                    (*model.sat(&f).expect("model checks")).clone()
                });
            }
        }
    });
}

/// Betting safety verdicts (`safe_points`, `k_alpha_points`, and the
/// Theorem 7 / Proposition 6 booleans) are thread-invariant.
#[test]
fn betting_thread_invariance() {
    cases("betting_thread_invariance", |rng| {
        let spec = if rng.chance(1, 2) {
            arb_sync_spec(rng)
        } else {
            arb_async_spec(rng)
        };
        let sys = build(&spec);
        let props = prop_names(&spec);
        let phi = sys.points_satisfying(sys.prop_id(&props[0]).unwrap());
        let alpha = [Rat::new(1, 3), Rat::new(1, 2), Rat::ONE][rng.index(3)];
        let rule = BetRule::new(phi, alpha).unwrap();
        let (i, j) = (AgentId(0), AgentId(sys.agent_count() - 1));
        assert_thread_invariant("safe_points", || {
            BettingGame::new(&sys, i, j)
                .safe_points(&rule)
                .expect("decidable")
        });
        assert_thread_invariant("k_alpha_points", || {
            BettingGame::new(&sys, i, j)
                .k_alpha_points(&rule)
                .expect("decidable")
        });
        let t7 = with_threads(1, || {
            BettingGame::new(&sys, i, j).theorem7_holds(&rule).unwrap()
        });
        for threads in thread_counts() {
            let got = with_threads(threads, || {
                BettingGame::new(&sys, i, j).theorem7_holds(&rule).unwrap()
            });
            assert_eq!(t7, got, "theorem7 verdict flipped at threads={threads}");
        }
        if sys.is_synchronous() {
            let p6 = with_threads(1, || {
                BettingGame::new(&sys, i, j)
                    .proposition6_holds(&rule)
                    .unwrap()
            });
            for threads in thread_counts() {
                let got = with_threads(threads, || {
                    BettingGame::new(&sys, i, j)
                        .proposition6_holds(&rule)
                        .unwrap()
                });
                assert_eq!(p6, got, "prop6 verdict flipped at threads={threads}");
            }
        }
    });
}

/// Asynchrony cut bounds (`CutClass::bounds` over every class shape,
/// plus the whole-system Proposition 10 verdict) are thread-invariant:
/// the exact `Rat` intervals, not approximations.
#[test]
fn cut_bounds_thread_invariance() {
    cases("cut_bounds_thread_invariance", |rng| {
        let spec = arb_async_spec(rng);
        let sys = build(&spec);
        let props = prop_names(&spec);
        let phi = sys.points_satisfying(sys.prop_id(&props[0]).unwrap());
        let agent = AgentId(rng.index(sys.agent_count()));
        let c = sys.points().next().unwrap();
        let region = region_for(&sys, agent, agent, c);
        for class in [
            CutClass::AllPoints,
            CutClass::Horizontal,
            CutClass::Window(1),
            CutClass::Partial,
        ] {
            let baseline = with_threads(1, || class.bounds(&sys, &region, &phi).ok());
            for threads in thread_counts() {
                let got = with_threads(threads, || class.bounds(&sys, &region, &phi).ok());
                assert_eq!(
                    baseline, got,
                    "{class:?} bounds changed at threads={threads}"
                );
            }
        }
        let p10 = with_threads(1, || prop10_holds(&sys, agent, &phi).unwrap());
        for threads in thread_counts() {
            let got = with_threads(threads, || prop10_holds(&sys, agent, &phi).unwrap());
            assert_eq!(p10, got, "prop10 verdict flipped at threads={threads}");
        }
    });
}

/// Fault injection: pools with randomized steal order and pop side must
/// still produce index-ordered results for non-commutative reductions,
/// at several widths and seeds — the integration-level twin of the pool
/// crate's own fault-mode unit tests.
#[test]
fn fault_injected_pools_reduce_deterministically() {
    let expected: Vec<String> = (0..97).map(|i| format!("#{i}")).collect();
    let concat_expected: String = expected.concat();
    for threads in [2usize, 3, 4, 7] {
        for seed in 0..12u64 {
            let pool = Pool::new(threads).with_fault_seed(seed);
            let mapped = pool.par_map(97, |i| format!("#{i}"));
            assert_eq!(mapped, expected, "threads={threads} seed={seed}");
            let chunked: String = pool
                .par_map_chunks(97, 8, |range| {
                    range.map(|i| format!("#{i}")).collect::<String>()
                })
                .concat();
            assert_eq!(chunked, concat_expected, "threads={threads} seed={seed}");
        }
    }
}

/// Fault-injected pools leave the model checker bit-identical too: the
/// steal schedule must never be observable in a satisfaction set.
#[test]
fn fault_injected_model_checking_is_deterministic() {
    let mut rng = Rng64::new(case_seed("sat_thread_invariance", 0));
    let spec = arb_async_spec(&mut rng);
    let sys = build(&spec);
    let props = prop_names(&spec);
    // `K^α` desugars to `K_i(Pr_i ≥ α)`: build the `K`-body explicitly
    // so the test can re-run the outer knowledge sweep by hand.
    let body = Formula::prop(&props[0]).pr_ge(AgentId(0), Rat::new(1, 2));
    let f = body.clone().known_by(AgentId(0));
    let post = ProbAssignment::new(&sys, Assignment::post());
    let baseline = with_threads(1, || {
        (*Model::new(&post).sat(&f).expect("model checks")).clone()
    });
    // The public sweeps consult `Pool::current()`, which carries no
    // fault seed — so drive the same per-class scan through a faulty
    // pool by hand and compare against the engine's answer.
    let sat = with_threads(1, || {
        (*Model::new(&post).sat(&body).expect("model checks")).clone()
    });
    let classes: Vec<&PointSet> = sys.local_classes(AgentId(0)).map(|(_, cl)| cl).collect();
    for seed in 0..8u64 {
        let pool = Pool::new(4).with_fault_seed(seed);
        let partials = pool.par_map_chunks(classes.len(), 1, |range| {
            let mut acc = sys.empty_points();
            for class in &classes[range] {
                if class.is_subset(&sat) {
                    acc.union_with(class);
                }
            }
            acc
        });
        let mut acc = sys.empty_points();
        for partial in partials {
            acc.union_with(&partial);
        }
        assert_eq!(
            baseline.as_words(),
            acc.as_words(),
            "faulty steal schedule (seed={seed}) leaked into the satisfaction set"
        );
    }
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
