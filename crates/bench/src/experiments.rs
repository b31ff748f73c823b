//! The experiment harness: every worked example and numbered result of
//! the paper, regenerated and compared against the stated values.
//!
//! The paper has no tables or figures; its "evaluation" is the set of
//! exact quantities and biconditionals listed in `DESIGN.md` §6 as
//! experiments E1–E16. Each function here recomputes one experiment and
//! returns paper-vs-measured [`Row`]s; `EXPERIMENTS.md` records the
//! output of [`all_experiments`].

use crate::rows::Row;
use kpa_assign::{lattice, Assignment, ProbAssignment};
use kpa_asynchrony::{class_interval, prop10_holds, pts_interval, CutClass};
use kpa_betting::{inner_expected_winnings, BetRule, BettingGame, Strategy};
use kpa_logic::{Formula, Model};
use kpa_measure::Rat;
use kpa_protocols as protocols;
use kpa_system::{AgentId, PointId, ProtocolBuilder, System, TreeId};

fn pt(tree: usize, run: usize, time: usize) -> PointId {
    PointId {
        tree: TreeId(tree),
        run,
        time,
    }
}

fn rat(n: i128, d: i128) -> Rat {
    Rat::new(n, d)
}

/// E1 — the Vardi input-bit example (§3): per-adversary coin
/// probabilities, and the uniform-prior number the paper refuses.
#[must_use]
pub fn e01_vardi() -> Vec<Row> {
    let sys = protocols::vardi_system().expect("vardi system builds");
    let heads = sys.points_satisfying(sys.prop_id("heads").expect("prop"));
    let prior = ProbAssignment::new(&sys, Assignment::prior());
    let p2 = AgentId(1);
    let h0 = prior.prob(p2, pt(0, 0, 1), &heads).expect("prob");
    let h1 = prior.prob(p2, pt(1, 0, 1), &heads).expect("prob");
    vec![
        Row::new("E1", "Pr(heads) in the bit=0 tree", "1/2", h0.to_string()),
        Row::new("E1", "Pr(heads) in the bit=1 tree", "2/3", h1.to_string()),
        Row::new(
            "E1",
            "Pr(heads) under a uniform input prior (not adopted)",
            "7/12",
            protocols::vardi_heads_under_uniform_prior().to_string(),
        ),
    ]
}

/// E2 — footnote 5: the action event is nonmeasurable unfactored,
/// probability 1/2 in each factored subsystem.
#[must_use]
pub fn e02_footnote5() -> Vec<Row> {
    let space = protocols::footnote5_unfactored_space();
    let action = protocols::footnote5_action_event();
    let mut rows = vec![Row::new(
        "E2",
        "action-a measurable in the unfactored space",
        "no",
        if space.is_measurable(&action) {
            "yes"
        } else {
            "no"
        },
    )];
    let sys = protocols::footnote5_factored().expect("footnote5 system builds");
    let pts = protocols::footnote5_action_points(&sys);
    let prior = ProbAssignment::new(&sys, Assignment::prior());
    for tree in 0..2 {
        let p = prior.prob(AgentId(1), pt(tree, 0, 1), &pts).expect("prob");
        rows.push(Row::new(
            "E2",
            format!("Pr(action-a) in factored subsystem bit={tree}"),
            "1/2",
            p.to_string(),
        ));
    }
    rows
}

/// E3 — primality testing (§3): per-input error probabilities and the
/// Rabin (1/4)^t bound.
#[must_use]
pub fn e03_primality() -> Vec<Row> {
    let rounds = 4;
    let sys = protocols::primality_system(&[561, 13], rounds).expect("system builds");
    let error = sys.prop_id("error").expect("prop");
    let mut rows = Vec::new();
    for (input, is_prime) in [(561u64, false), (13, true)] {
        let tree = sys.tree_id(&format!("n={input}")).expect("tree");
        let horizon = sys.horizon();
        let measured: Rat = (0..sys.tree(tree).runs().len())
            .filter(|&run| {
                sys.holds(
                    error,
                    PointId {
                        tree,
                        run,
                        time: horizon,
                    },
                )
            })
            .map(|run| sys.tree(tree).runs()[run].prob())
            .sum();
        let paper = protocols::error_probability(input, rounds);
        rows.push(Row::new(
            "E3",
            format!("P(error) for n={input} with t={rounds} rounds"),
            paper.to_string(),
            measured.to_string(),
        ));
        if !is_prime {
            rows.push(Row::new(
                "E3",
                format!("P(error) for n={input} within Rabin's (1/4)^t"),
                "yes",
                if measured <= rat(1, 4).pow(rounds as i32) {
                    "yes"
                } else {
                    "no"
                },
            ));
        }
        rows.push(Row::new(
            "E3",
            format!("Miller-Rabin verdict for n={input}"),
            if is_prime { "prime" } else { "composite" },
            if protocols::miller_rabin(input) {
                "prime"
            } else {
                "composite"
            },
        ));
    }
    rows
}

/// E4 — §4's pointwise analysis of CA1 and CA2.
#[must_use]
pub fn e04_attack_pointwise() -> Vec<Row> {
    let mut rows = Vec::new();
    let ca1 = protocols::ca1(10, rat(1, 2)).expect("ca1 builds");
    let ca2 = protocols::ca2(10, rat(1, 2)).expect("ca2 builds");
    for (name, sys) in [("CA1", &ca1), ("CA2", &ca2)] {
        rows.push(Row::new(
            "E4",
            format!("{name}: P(coordinated) over the runs >= .99"),
            "2047/2048",
            protocols::coordination_run_probability(sys).to_string(),
        ));
    }
    // CA1: a point where A knows the attack will fail.
    let a = ca1.agent_id("A").expect("agent");
    let post = ProbAssignment::new(&ca1, Assignment::post());
    let model = Model::new(&post);
    let certain_failure = model
        .sat(&protocols::coordination_formula().not().known_by(a))
        .expect("model checks");
    rows.push(Row::new(
        "E4",
        "CA1: a point where A is certain of failure exists",
        "yes",
        if certain_failure.is_empty() {
            "no"
        } else {
            "yes"
        },
    ));
    // CA2: B's posterior confidence when it hears nothing.
    let b = ca2.agent_id("B").expect("agent");
    let post2 = ProbAssignment::new(&ca2, Assignment::post());
    let coord = protocols::coordinated_points(&ca2);
    let silent = pt(0, 1, ca2.horizon());
    rows.push(Row::new(
        "E4",
        "CA2: B's Pr(coordinated | no message)",
        "1024/1025",
        post2.prob(b, silent, &coord).expect("prob").to_string(),
    ));
    rows
}

/// E5 — the introduction's coin under `post` vs `fut`.
#[must_use]
pub fn e05_coin_post_fut() -> Vec<Row> {
    let sys = protocols::secret_coin().expect("system builds");
    let heads = Formula::prop("c=h");
    let p1 = AgentId(0);
    let post = ProbAssignment::new(&sys, Assignment::post());
    let m_post = Model::new(&post);
    let knows_half = heads.clone().k_interval(p1, rat(1, 2), rat(1, 2));
    let post_ok = m_post
        .holds_at(&knows_half, pt(0, 0, 1))
        .expect("model checks")
        && m_post
            .holds_at(&knows_half, pt(0, 1, 1))
            .expect("model checks");

    let fut = ProbAssignment::new(&sys, Assignment::fut());
    let m_fut = Model::new(&fut);
    let zero_or_one = Formula::or([
        heads.clone().pr_ge(p1, Rat::ONE),
        heads.clone().not().pr_ge(p1, Rat::ONE),
    ])
    .known_by(p1);
    let fut_disj = m_fut
        .holds_at(&zero_or_one, pt(0, 0, 1))
        .expect("model checks");
    let fut_half = m_fut
        .holds_at(&knows_half, pt(0, 0, 1))
        .expect("model checks");
    vec![
        Row::new(
            "E5",
            "post: K1(Pr1(heads) = 1/2) after the toss",
            "holds",
            ok(post_ok),
        ),
        Row::new(
            "E5",
            "fut: K1(Pr1 = 1 or Pr1 = 0) after the toss",
            "holds",
            ok(fut_disj),
        ),
        Row::new(
            "E5",
            "fut: K1(Pr1(heads) = 1/2) after the toss",
            "fails",
            fails(!fut_half),
        ),
    ]
}

fn ok(b: bool) -> &'static str {
    if b {
        "holds"
    } else {
        "fails"
    }
}

fn fails(b: bool) -> &'static str {
    if b {
        "fails"
    } else {
        "holds"
    }
}

/// E6 — the die example (§5): undivided vs subdivided sample spaces.
#[must_use]
pub fn e06_die_subdivision() -> Vec<Row> {
    let sys = protocols::die_system().expect("system builds");
    let even = protocols::even_points(&sys);
    let p2 = AgentId(1);
    let post = ProbAssignment::new(&sys, Assignment::post());
    let sub = ProbAssignment::new(&sys, protocols::die_subdivided_assignment());
    let undivided = post.prob(p2, pt(0, 0, 1), &even).expect("prob");
    let low = sub.prob(p2, pt(0, 0, 1), &even).expect("prob");
    let high = sub.prob(p2, pt(0, 5, 1), &even).expect("prob");
    vec![
        Row::new("E6", "undivided: Pr2(even)", "1/2", undivided.to_string()),
        Row::new(
            "E6",
            "subdivided, die in {1,2,3}: Pr2(even)",
            "1/3",
            low.to_string(),
        ),
        Row::new(
            "E6",
            "subdivided, die in {4,5,6}: Pr2(even)",
            "2/3",
            high.to_string(),
        ),
    ]
}

/// E7 — Propositions 1, 2, 4, 5 and the canonical lattice chain.
#[must_use]
pub fn e07_lattice() -> Vec<Row> {
    let sys = protocols::die_system().expect("system builds");
    let fut = ProbAssignment::new(&sys, Assignment::fut());
    let opp3 = ProbAssignment::new(&sys, Assignment::opp(AgentId(2)));
    let post = ProbAssignment::new(&sys, Assignment::post());
    let prior = ProbAssignment::new(&sys, Assignment::prior());
    let chain =
        lattice::leq(&fut, &opp3) && lattice::leq(&opp3, &post) && lattice::leq(&post, &prior);
    let reqs = [&fut, &opp3, &post, &prior]
        .iter()
        .all(|pa| pa.satisfies_req1() && pa.satisfies_req2() && pa.is_standard());
    let consistent = fut.is_consistent() && opp3.is_consistent() && post.is_consistent();
    let prior_inconsistent = !prior.is_consistent();
    let p4 = lattice::refines_by_partition(&fut, &opp3)
        && lattice::refines_by_partition(&opp3, &post)
        && lattice::refines_by_partition(&post, &prior);
    let p5 = lattice::conditioning_agrees(&fut, &opp3).expect("spaces build")
        && lattice::conditioning_agrees(&opp3, &post).expect("spaces build")
        && lattice::conditioning_agrees(&post, &prior).expect("spaces build");
    vec![
        Row::new(
            "E7",
            "REQ1/REQ2 + standardness of all four assignments",
            "holds",
            ok(reqs),
        ),
        Row::new(
            "E7",
            "S^fut <= S^j <= S^post <= S^prior",
            "holds",
            ok(chain),
        ),
        Row::new(
            "E7",
            "post/fut/opp consistent; prior inconsistent",
            "holds",
            ok(consistent && prior_inconsistent),
        ),
        Row::new(
            "E7",
            "Proposition 4 (partition refinement)",
            "holds",
            ok(p4),
        ),
        Row::new(
            "E7",
            "Proposition 5 (conditioning identity)",
            "holds",
            ok(p5),
        ),
    ]
}

/// E8 — Theorem 7 and Proposition 6 over a threshold sweep.
#[must_use]
pub fn e08_theorem7() -> Vec<Row> {
    let sys = protocols::secret_coin().expect("system builds");
    let heads = sys.points_satisfying(sys.prop_id("c=h").expect("prop"));
    let alphas = [rat(1, 4), rat(1, 2), rat(2, 3), Rat::ONE];
    let mut t7 = true;
    let mut p6 = true;
    for i in 0..3 {
        for j in 0..3 {
            let game = BettingGame::new(&sys, AgentId(i), AgentId(j));
            for &alpha in &alphas {
                let rule = BetRule::new(heads.clone(), alpha).expect("valid threshold");
                t7 &= game.theorem7_holds(&rule).expect("decidable");
                p6 &= game.proposition6_holds(&rule).expect("decidable");
            }
        }
    }
    vec![
        Row::new(
            "E8",
            "Theorem 7: Bet(phi,a) safe <=> K_i^a phi (9 pairs x 4 a)",
            "holds",
            ok(t7),
        ),
        Row::new(
            "E8",
            "Proposition 6: Tree-safe <=> Tree^j-safe (synchronous)",
            "holds",
            ok(p6),
        ),
    ]
}

/// E9 — Theorem 8: assignments at or below `S^j` determine safe bets;
/// assignments above it (here `S^post` against a better-informed
/// opponent) license bets that lose money for some transition
/// probabilities.
#[must_use]
pub fn e09_theorem8() -> Vec<Row> {
    let mut part_a = true;
    let mut part_b = true;
    // Quantify over several transition-probability assignments τ (the
    // theorem's essential quantifier) by varying the coin bias.
    for bias in [rat(1, 2), rat(2, 3), rat(1, 3)] {
        let sys = ProtocolBuilder::new(["i", "j"])
            .coin("c", &[("h", bias), ("t", Rat::ONE - bias)], &["j"])
            .build()
            .expect("system builds");
        let i = AgentId(0);
        let j = AgentId(1);
        let heads = sys.points_satisfying(sys.prop_id("c=h").expect("prop"));
        let game = BettingGame::new(&sys, i, j);
        let fut = ProbAssignment::new(&sys, Assignment::fut());
        let post = ProbAssignment::new(&sys, Assignment::post());
        for alpha in [rat(1, 4), bias, Rat::ONE] {
            let rule = BetRule::new(heads.clone(), alpha).expect("valid threshold");
            let safe = game.safe_points(&rule).expect("decidable");
            // (a) S^fut <= S^j: every K^α point under fut is safe.
            let fut_model = Model::new(&fut);
            let k_fut = fut_model
                .pr_ge_set(i, alpha, &heads)
                .map(|s| fut_model.knows_set(i, &s))
                .expect("decidable");
            part_a &= k_fut.iter().all(|p| safe.contains(p));
            // (b) S^post not <= S^j: some K^α point under post is unsafe.
            let post_model = Model::new(&post);
            let k_post = post_model
                .pr_ge_set(i, alpha, &heads)
                .map(|s| post_model.knows_set(i, &s))
                .expect("decidable");
            if alpha == bias {
                part_b &= k_post.iter().any(|p| !safe.contains(p));
            }
        }
    }
    vec![
        Row::new(
            "E9",
            "Thm 8(a): S <= S^j determines safe bets (3 biases)",
            "holds",
            ok(part_a),
        ),
        Row::new(
            "E9",
            "Thm 8(b): S^post licenses unsafe bets vs informed p_j",
            "unsafe bet exists",
            if part_b {
                "unsafe bet exists"
            } else {
                "no unsafe bet"
            },
        ),
    ]
}

/// E10 — Theorem 9: interval monotonicity along the lattice, with the
/// die system exhibiting the strict sharpening.
#[must_use]
pub fn e10_theorem9() -> Vec<Row> {
    let sys = protocols::die_system().expect("system builds");
    let even = protocols::even_points(&sys);
    let p2 = AgentId(1);
    let fine = ProbAssignment::new(&sys, Assignment::opp(AgentId(2)));
    let coarse = ProbAssignment::new(&sys, Assignment::post());
    let c = pt(0, 0, 1);
    let fine_iv = fine.known_interval(p2, c, &even).expect("spaces build");
    let coarse_iv = coarse.known_interval(p2, c, &even).expect("spaces build");
    let monotone = coarse_iv.0 >= fine_iv.0 && coarse_iv.1 <= fine_iv.1;
    let strict = coarse_iv != fine_iv;
    vec![
        Row::new(
            "E10",
            "K-interval under post (higher assignment)",
            "[1/2, 1/2]",
            format!("[{}, {}]", coarse_iv.0, coarse_iv.1),
        ),
        Row::new(
            "E10",
            "K-interval under opp(p3) (lower assignment)",
            "[1/3, 2/3]",
            format!("[{}, {}]", fine_iv.0, fine_iv.1),
        ),
        Row::new(
            "E10",
            "Thm 9(a): higher assignment never widens",
            "holds",
            ok(monotone),
        ),
        Row::new(
            "E10",
            "Thm 9(b): strictly sharper here",
            "holds",
            ok(strict),
        ),
    ]
}

/// E11 — the §7 asynchronous coin system at n = 10.
#[must_use]
pub fn e11_async_coins() -> Vec<Row> {
    let n = 10;
    let sys = protocols::async_coin_tosses(n).expect("system builds");
    let phi = protocols::recent_heads(&sys);
    let p1 = AgentId(0);
    let c = pt(0, 0, 1);
    let post = ProbAssignment::new(&sys, Assignment::post());
    let (lo, hi) = post.interval(p1, c, &phi).expect("spaces build");
    let (clo, chi) =
        class_interval(&sys, p1, AgentId(1), c, &phi, &CutClass::Horizontal).expect("bounds");
    // The paper's "other line of reasoning": the S² (time-slice)
    // assignment makes the fact measurable at exactly 1/2.
    let slice = ProbAssignment::new(&sys, kpa_asynchrony::slice_assignment());
    let slice_prob = slice
        .prob(p1, c, &phi)
        .expect("measurable under the slice assignment");
    vec![
        Row::new(
            "E11",
            "clockless p1: inner measure of 'recent toss heads'",
            "1/1024",
            lo.to_string(),
        ),
        Row::new(
            "E11",
            "clockless p1: outer measure",
            "1023/1024",
            hi.to_string(),
        ),
        Row::new(
            "E11",
            "vs clocked p2: every horizontal cut gives",
            "[1/2, 1/2]",
            format!("[{clo}, {chi}]"),
        ),
        Row::new(
            "E11",
            "S² (time-slice) assignment: Pr1(recent toss heads)",
            "1/2",
            slice_prob.to_string(),
        ),
    ]
}

/// E12 — Proposition 10, plus an exact cut-enumeration cross-check.
#[must_use]
pub fn e12_prop10() -> Vec<Row> {
    let sys = protocols::async_coin_tosses(6).expect("system builds");
    let phi = protocols::recent_heads(&sys);
    let holds = prop10_holds(&sys, AgentId(0), &phi).expect("bounds");

    // Cross-check on n = 2 by enumerating all 16 cuts.
    let small = protocols::async_coin_tosses(2).expect("system builds");
    let phi2 = protocols::recent_heads(&small);
    let region = kpa_asynchrony::region_for(&small, AgentId(0), AgentId(0), pt(0, 0, 1));
    let cuts = CutClass::AllPoints
        .enumerate_cuts(&small, &region, 1 << 12)
        .expect("enumerable");
    let probs: Vec<Rat> = cuts
        .iter()
        .map(|c| c.prob(&small, &phi2).expect("measurable"))
        .collect();
    let enum_bounds = (
        probs.iter().copied().fold(Rat::ONE, Rat::min),
        probs.iter().copied().fold(Rat::ZERO, Rat::max),
    );
    let greedy = pts_interval(&small, AgentId(0), pt(0, 0, 1), &phi2).expect("bounds");
    vec![
        Row::new(
            "E12",
            "Prop 10: P^pts interval == P^post interval (n=6)",
            "holds",
            ok(holds),
        ),
        Row::new(
            "E12",
            format!(
                "greedy bounds == exhaustive bounds over {} cuts (n=2)",
                cuts.len()
            ),
            "equal",
            if greedy == enum_bounds {
                "equal"
            } else {
                "different"
            },
        ),
    ]
}

/// E13 — the `pts` vs `state` adversary contrast (end of §7).
#[must_use]
pub fn e13_pts_vs_state() -> Vec<Row> {
    let sys = protocols::biased_two_run().expect("system builds");
    let heads = protocols::heads_run_fact(&sys);
    let p2 = AgentId(1);
    let c = pt(0, 1, 0);
    let region = kpa_asynchrony::region_for(&sys, p2, p2, c);
    let pts = CutClass::AllPoints
        .bounds(&sys, &region, &heads)
        .expect("bounds");
    let state = CutClass::state()
        .bounds(&sys, &region, &heads)
        .expect("bounds");
    vec![
        Row::new(
            "E13",
            "P^pts: K2 interval for heads",
            "[99/100, 99/100]",
            format!("[{}, {}]", pts.0, pts.1),
        ),
        Row::new(
            "E13",
            "P^state: K2 interval for heads",
            "[0, 99/100]",
            format!("[{}, {}]", state.0, state.1),
        ),
    ]
}

/// E14 — Proposition 11 in full, plus the time-0 agreement of all four
/// assignments.
#[must_use]
pub fn e14_prop11() -> Vec<Row> {
    let epsilon = rat(99, 100);
    let mut rows = Vec::new();
    let expectations: [(&str, System, [bool; 3]); 2] = [
        (
            "CA1",
            protocols::ca1(10, rat(1, 2)).expect("builds"),
            [true, false, false],
        ),
        (
            "CA2",
            protocols::ca2(10, rat(1, 2)).expect("builds"),
            [true, true, false],
        ),
    ];
    for (name, sys, expected) in &expectations {
        let g = [
            sys.agent_id("A").expect("agent"),
            sys.agent_id("B").expect("agent"),
        ];
        let spec = protocols::coordination_formula().common_alpha(g, epsilon);
        for (assignment, want) in [Assignment::prior(), Assignment::post(), Assignment::fut()]
            .iter()
            .zip(expected)
        {
            let pa = ProbAssignment::new(sys, assignment.clone());
            let holds = Model::new(&pa)
                .holds_everywhere(&spec)
                .expect("model checks");
            rows.push(Row::new(
                "E14",
                format!(
                    "{name}: C^0.99(coordinated) everywhere under {}",
                    assignment.name()
                ),
                ok(*want),
                ok(holds),
            ));
        }
    }
    // The crossover sweep: over the runs, CA2 clears .99 once
    // 1 - 2^{-(m+1)} >= 99/100, i.e. m >= 6; pointwise (B's silent
    // posterior 2^m/(2^m + 1) >= 99/100) needs m >= 7. Pointwise
    // confidence is strictly stronger, with a visible crossover.
    let mut run_cross = None;
    let mut point_cross = None;
    for m in 1..=8u32 {
        let sys = protocols::ca2(m, rat(1, 2)).expect("builds");
        if run_cross.is_none() && protocols::coordination_run_probability(&sys) >= epsilon {
            run_cross = Some(m);
        }
        let g = [
            sys.agent_id("A").expect("agent"),
            sys.agent_id("B").expect("agent"),
        ];
        let spec = protocols::coordination_formula().common_alpha(g, epsilon);
        let pa = ProbAssignment::new(&sys, Assignment::post());
        if point_cross.is_none()
            && Model::new(&pa)
                .holds_everywhere(&spec)
                .expect("model checks")
        {
            point_cross = Some(m);
        }
    }
    rows.push(Row::new(
        "E14",
        "smallest m where CA2 clears .99 over the runs",
        "6",
        run_cross.map_or("never".into(), |m| m.to_string()),
    ));
    rows.push(Row::new(
        "E14",
        "smallest m where CA2 clears C^0.99 pointwise (strictly later)",
        "7",
        point_cross.map_or("never".into(), |m| m.to_string()),
    ));

    // Time-0 agreement.
    let sys = protocols::ca2(4, rat(1, 2)).expect("builds");
    let coord = protocols::coordinated_points(&sys);
    let expected = protocols::coordination_run_probability(&sys);
    let agree = [
        Assignment::post(),
        Assignment::fut(),
        Assignment::prior(),
        Assignment::opp(AgentId(1)),
    ]
    .into_iter()
    .all(|a| {
        ProbAssignment::new(&sys, a)
            .prob(AgentId(0), pt(0, 0, 0), &coord)
            .expect("prob")
            == expected
    });
    rows.push(Row::new(
        "E14",
        "all four assignments agree at time 0",
        "holds",
        ok(agree),
    ));
    rows
}

/// E15 — Freund's two aces (Appendix B.1).
#[must_use]
pub fn e15_two_aces() -> Vec<Row> {
    let p2 = AgentId(1);
    let sys1 = protocols::aces_protocol1().expect("builds");
    let both1 = protocols::both_aces_points(&sys1);
    let post1 = ProbAssignment::new(&sys1, Assignment::post());
    let seq: Vec<String> = (1..=3)
        .map(|t| {
            post1
                .prob(p2, pt(0, 1, t), &both1)
                .expect("prob")
                .to_string()
        })
        .collect();

    let sys2 = protocols::aces_protocol2().expect("builds");
    let both2 = protocols::both_aces_points(&sys2);
    let post2 = ProbAssignment::new(&sys2, Assignment::post());
    let spade_point = sys2
        .points()
        .find(|&p| p.time == 3 && sys2.local_name(p2, p).contains("say:spade"))
        .expect("spade announcement exists");
    let final2 = post2.prob(p2, spade_point, &both2).expect("prob");
    vec![
        Row::new(
            "E15",
            "protocol 1: deal -> 'ace' -> 'A-spades'",
            "1/6 -> 1/5 -> 1/3",
            seq.join(" -> "),
        ),
        Row::new(
            "E15",
            "protocol 2: after random suit reveal",
            "1/5",
            final2.to_string(),
        ),
    ]
}

/// E16 — Appendix B.2 (inner-expectation safety) and B.3 (Theorem 11).
#[must_use]
pub fn e16_embedding() -> Vec<Row> {
    // B.2: the inner expected winnings of a payoff-2 bet on the
    // nonmeasurable "recent toss heads" over 2 tosses: 1·(1/4) − 3/4.
    let sys = protocols::async_coin_tosses(2).expect("builds");
    let phi = protocols::recent_heads(&sys);
    let post = ProbAssignment::new(&sys, Assignment::post());
    let space = post
        .space(AgentId(0), pt(0, 0, 1))
        .expect("post spaces build");
    let rule = BetRule::new(phi, rat(1, 2)).expect("valid threshold");
    let e_inner = inner_expected_winnings(
        &space,
        &sys,
        AgentId(0),
        &rule,
        &Strategy::constant(Rat::from_int(2)),
    )
    .expect("constant offer");
    let mut rows = vec![Row::new(
        "E16",
        "B.2: inner expected winnings of payoff-2 bet on recent-heads (n=2)",
        "-1/2",
        e_inner.to_string(),
    )];

    // B.3: Theorem 11 over a rich strategy family.
    let base = ProtocolBuilder::new(["i", "j"])
        .coin("c", &[("h", rat(2, 3)), ("t", rat(1, 3))], &["j"])
        .build()
        .expect("builds");
    let family = protocols::embed::all_strategies(&base, AgentId(1), &[rat(2, 1), rat(3, 1)]);
    let holds = [rat(1, 3), rat(2, 3), Rat::ONE].into_iter().all(|alpha| {
        protocols::theorem11_holds(&base, AgentId(0), AgentId(1), &family, "c=h", alpha)
            .expect("model checks")
    });
    rows.push(Row::new(
        "E16",
        "B.3: Theorem 11 over an 8-strategy family (3 thresholds)",
        "holds",
        ok(holds),
    ));
    // And the instructive failure with a known single strategy.
    let heads_sym = base.local(AgentId(1), pt(0, 0, 1));
    let leaky = Strategy::silent().with_offer(heads_sym, rat(3, 1));
    let fails_single =
        !protocols::theorem11_holds(&base, AgentId(0), AgentId(1), &[leaky], "c=h", Rat::ONE)
            .expect("model checks");
    rows.push(Row::new(
        "E16",
        "B.3: equivalence breaks for a known single informative strategy",
        "breaks",
        if fails_single { "breaks" } else { "holds" },
    ));
    rows
}

/// E17 — extensions the paper proposes as future work (§8 and App.
/// B.3): the adaptive attack protocol, the Fischer–Zuck conditional
/// measure, and the Aumann agreement dynamics.
#[must_use]
pub fn e17_extensions() -> Vec<Row> {
    let mut rows = Vec::new();
    // Adaptive CA1 (§8: "adaptive protocols … with relatively little
    // overhead"): run-level and pointwise guarantees both improve.
    let sys = protocols::ca1_adaptive(10, rat(1, 2)).expect("builds");
    rows.push(Row::new(
        "E17",
        "adaptive CA1: P(coordinated) over the runs",
        "4095/4096",
        protocols::coordination_run_probability(&sys).to_string(),
    ));
    let g = [
        sys.agent_id("A").expect("agent"),
        sys.agent_id("B").expect("agent"),
    ];
    let spec = protocols::coordination_formula().common_alpha(g, rat(99, 100));
    let post = ProbAssignment::new(&sys, Assignment::post());
    rows.push(Row::new(
        "E17",
        "adaptive CA1: C^0.99(coordinated) everywhere under post",
        "holds",
        ok(Model::new(&post)
            .holds_everywhere(&spec)
            .expect("model checks")),
    ));
    // Fischer–Zuck conditional coordination (end of §8).
    let ca1 = protocols::ca1(10, rat(1, 2)).expect("builds");
    rows.push(Row::new(
        "E17",
        "CA1: P(both attack | some attacks) (Fischer-Zuck measure)",
        "1023/1024",
        protocols::conditional_coordination_given_attack(&ca1).to_string(),
    ));
    rows.push(Row::new(
        "E17",
        "adaptive CA1: P(both attack | some attacks)",
        "2046/2047",
        protocols::conditional_coordination_given_attack(&sys).to_string(),
    ));
    // Aumann agreement (end of App. B.3): announce until agreement.
    let four = ProtocolBuilder::new(["p1", "p2"])
        .step("world", |_| {
            (0..4)
                .map(|w| {
                    let mut b = kpa_system::Branch::new(rat(1, 4))
                        .observe("p1", if w < 2 { "left" } else { "right" })
                        .observe("p2", if w < 3 { "low" } else { "high" });
                    if w == 1 || w == 2 {
                        b = b.prop("phi");
                    }
                    b
                })
                .collect()
        })
        .build()
        .expect("builds");
    let phi = four.points_satisfying(four.prop_id("phi").expect("prop"));
    let trace =
        protocols::announce_until_agreement(&four, AgentId(0), AgentId(1), TreeId(0), 1, 0, &phi);
    rows.push(Row::new(
        "E17",
        "Aumann: initial posteriors disagree (1/2 vs 2/3)",
        "1/2 vs 2/3",
        format!("{} vs {}", trace.rounds[0].0, trace.rounds[0].1),
    ));
    rows.push(Row::new(
        "E17",
        "Aumann: announcements end in agreement",
        "agree",
        if protocols::agreed(&trace) {
            "agree"
        } else {
            "disagree"
        },
    ));
    rows
}

/// E18 — scheduler adversaries (§3's "order in which messages arrive"
/// nondeterminism): probabilistic guarantees hold per scheduler, while
/// scheduler-dependent facts have no scheduler-independent probability.
#[must_use]
pub fn e18_scheduler() -> Vec<Row> {
    let sys = protocols::scheduler_race().expect("builds");
    let first_h = protocols::first_heads_points(&sys);
    let prior = ProbAssignment::new(&sys, Assignment::prior());
    let r = sys.agent_id("R").expect("agent");
    let horizon = sys.horizon();
    let mut rows = Vec::new();
    for tree in 0..2 {
        let c = pt(tree, 0, horizon);
        rows.push(Row::new(
            "E18",
            format!(
                "Pr(first message heads) under scheduler {}",
                protocols::SCHEDULES[tree]
            ),
            "1/2",
            prior.prob(r, c, &first_h).expect("prob").to_string(),
        ));
    }
    let from_p = sys.points_satisfying(sys.prop_id("first-from=P").expect("prop"));
    let certain = prior.prob(r, pt(0, 0, horizon), &from_p).expect("prob");
    let never = prior.prob(r, pt(1, 0, horizon), &from_p).expect("prob");
    rows.push(Row::new(
        "E18",
        "Pr(first from P) per scheduler: certain vs impossible",
        "1 vs 0",
        format!("{certain} vs {never}"),
    ));
    let post = ProbAssignment::new(&sys, Assignment::post());
    let model = Model::new(&post);
    let knows = Formula::prop("sched=P-first").known_by(r);
    rows.push(Row::new(
        "E18",
        "R ever learns which scheduler it runs under",
        "never",
        if model.sat(&knows).expect("model checks").is_empty() {
            "never"
        } else {
            "sometimes"
        },
    ));
    rows
}

/// E19 — rational opponents (the Section 9 extension): restricting the
/// opponent to profit-seeking strategies enlarges the safe-bet set
/// exactly when the bettor holds private information.
#[must_use]
pub fn e19_rational_opponents() -> Vec<Row> {
    // The bettor privately observes a 3/4-biased coin; φ = heads.
    let sys = ProtocolBuilder::new(["i", "j"])
        .coin("x", &[("h", rat(3, 4)), ("t", rat(1, 4))], &["i"])
        .build()
        .expect("builds");
    let phi = sys.points_satisfying(sys.prop_id("x=h").expect("prop"));
    let game = BettingGame::new(&sys, AgentId(0), AgentId(1));
    let rule = BetRule::new(phi, rat(1, 2)).expect("valid threshold");
    let tails = pt(0, 1, 1);
    let unsafe_vs_arbitrary = !game.is_safe_at(tails, &rule).expect("decidable");
    let safe_vs_rational = game
        .is_safe_against_rational_at(tails, &rule)
        .expect("decidable");
    vec![
        Row::new(
            "E19",
            "Bet(heads, 1/2) at the tails point vs arbitrary p_j",
            "unsafe",
            if unsafe_vs_arbitrary {
                "unsafe"
            } else {
                "safe"
            },
        ),
        Row::new(
            "E19",
            "same bet vs rational p_j (its posterior is 3/4 > 1/2)",
            "safe",
            if safe_vs_rational { "safe" } else { "unsafe" },
        ),
    ]
}

/// E20 — the zero-knowledge discussion (§8): a leaky prover may
/// knowingly keep playing; the adaptive redesign never does.
#[must_use]
pub fn e20_leaky_prover() -> Vec<Row> {
    let leak = rat(1, 10);
    let rounds = 3;
    let standard = protocols::leaky_prover(leak, rounds).expect("builds");
    let adaptive = protocols::adaptive_prover(leak, rounds).expect("builds");
    let mut rows = vec![Row::new(
        "E20",
        "P(secret ever leaks) with leak=1/10 over 3 rounds",
        "271/1000",
        protocols::leak_run_probability(&standard).to_string(),
    )];
    let post = ProbAssignment::new(&standard, Assignment::post());
    let model = Model::new(&post);
    let bad = protocols::knowing_continuation_formula(&standard);
    rows.push(Row::new(
        "E20",
        "standard prover: knows it leaked yet keeps playing",
        "happens",
        if model.sat(&bad).expect("model checks").is_empty() {
            "never"
        } else {
            "happens"
        },
    ));
    rows.push(Row::new(
        "E20",
        "adaptive prover: continues after a known leak",
        "never",
        if protocols::continued_after_leak_points(&adaptive).is_empty() {
            "never"
        } else {
            "happens"
        },
    ));
    rows
}

/// E21 — randomized leader election (after Rab82, cited in §3): the
/// per-adversary guarantee and the knowledge asymmetry between winner
/// and bystanders.
#[must_use]
pub fn e21_election() -> Vec<Row> {
    let sys = protocols::election(3, 2).expect("builds");
    let mut rows = Vec::new();
    let mut all_match = true;
    for tree in sys.tree_ids() {
        let k = sys.tree(tree).name().matches('P').count() as u32;
        all_match &= protocols::measured_election_probability(&sys, tree)
            == protocols::election_probability(k, 2);
    }
    rows.push(Row::new(
        "E21",
        "P(leader within 2 rounds) = 1-(1-k/2^k)^2 for EVERY contention set",
        "holds",
        ok(all_match),
    ));
    rows.push(Row::new(
        "E21",
        "pair contention: P(leader within 2 rounds)",
        "3/4",
        protocols::election_probability(2, 2).to_string(),
    ));
    // Knowledge: the winner knows; a bystander (3 contenders) does not.
    let post = ProbAssignment::new(&sys, Assignment::post());
    let model = Model::new(&post);
    let tree = sys.tree_id("contend=P0+P1+P2").expect("tree");
    let leader_p0 = sys.points_satisfying(sys.prop_id("leader=P0").expect("prop"));
    let won = sys
        .tree_points(tree)
        .find(|p| p.time == sys.horizon() && leader_p0.contains(p))
        .expect("P0 wins somewhere");
    let winner_knows = model
        .holds_at(&Formula::prop("leader=P0").known_by(AgentId(0)), won)
        .expect("model checks");
    let bystander_knows = model
        .holds_at(&Formula::prop("leader=P0").known_by(AgentId(1)), won)
        .expect("model checks");
    rows.push(Row::new(
        "E21",
        "winner knows it leads; bystander cannot name the leader",
        "yes / no",
        format!(
            "{} / {}",
            if winner_knows { "yes" } else { "no" },
            if bystander_knows { "yes" } else { "no" }
        ),
    ));
    rows
}

/// E22 — Monty Hall under both host protocols: the same Shafer
/// protocol-dependence phenomenon as the two aces, with the opposite
/// resolution.
#[must_use]
pub fn e22_monty_hall() -> Vec<Row> {
    let standard = protocols::monty_standard().expect("builds");
    let ignorant = protocols::monty_ignorant().expect("builds");
    let mut rows = Vec::new();
    for (name, sys, expected) in [
        ("knowing host", &standard, rat(1, 3)),
        ("ignorant host", &ignorant, rat(1, 2)),
    ] {
        let post = ProbAssignment::new(sys, Assignment::post());
        let me = sys.agent_id("contestant").expect("agent");
        let mine = protocols::prize_behind_a(sys);
        let point = sys
            .points()
            .find(|&p| {
                p.time == sys.horizon()
                    && sys.local_name(me, p).contains("opened=")
                    && !sys.local_name(me, p).contains("saw-prize")
            })
            .expect("a goat was revealed somewhere");
        rows.push(Row::new(
            "E22",
            format!("{name}: Pr(own door) after a goat is revealed"),
            expected.to_string(),
            post.prob(me, point, &mine).expect("prob").to_string(),
        ));
    }
    rows
}

/// Runs every experiment, in order.
#[must_use]
pub fn all_experiments() -> Vec<Row> {
    let mut rows = Vec::new();
    rows.extend(e01_vardi());
    rows.extend(e02_footnote5());
    rows.extend(e03_primality());
    rows.extend(e04_attack_pointwise());
    rows.extend(e05_coin_post_fut());
    rows.extend(e06_die_subdivision());
    rows.extend(e07_lattice());
    rows.extend(e08_theorem7());
    rows.extend(e09_theorem8());
    rows.extend(e10_theorem9());
    rows.extend(e11_async_coins());
    rows.extend(e12_prop10());
    rows.extend(e13_pts_vs_state());
    rows.extend(e14_prop11());
    rows.extend(e15_two_aces());
    rows.extend(e16_embedding());
    rows.extend(e17_extensions());
    rows.extend(e18_scheduler());
    rows.extend(e19_rational_opponents());
    rows.extend(e20_leaky_prover());
    rows.extend(e21_election());
    rows.extend(e22_monty_hall());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_matches_the_paper() {
        let rows = all_experiments();
        assert!(rows.len() >= 30, "expected a full experiment table");
        let mismatches: Vec<&Row> = rows.iter().filter(|r| !r.matches).collect();
        assert!(
            mismatches.is_empty(),
            "paper-vs-measured mismatches:\n{}",
            mismatches
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
