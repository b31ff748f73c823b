//! Engine scaling benchmarks: how the core operations grow with system
//! size — the engineering-side "figures" of this reproduction. Plain
//! `main()` harness timed with `std::time`; run with
//! `cargo bench -p kpa-bench --bench scaling` (`--features bench` for
//! the larger sweep sizes). No row is gated.

use kpa_assign::{Assignment, ProbAssignment};
use kpa_asynchrony::prop10_holds;
use kpa_bench::{bench_time, default_reps};
use kpa_betting::{BetRule, BettingGame};
use kpa_logic::{EvalCtx, Formula, Model, ModelArtifact};
use kpa_measure::{Rat, Rng64};
use kpa_protocols::{async_coin_tosses, ca2, coordination_formula, recent_heads};
use kpa_system::{AgentId, ProtocolBuilder};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Building the n-toss asynchronous system (2^n runs).
fn bench_system_construction(reps: u32) {
    let sizes: &[usize] = if cfg!(feature = "bench") {
        &[4, 6, 8, 10, 12]
    } else {
        &[4, 6, 8, 10]
    };
    for &n in sizes {
        bench_time(&format!("scale_system_construction/{n}"), reps, || {
            async_coin_tosses(n).expect("builds")
        });
    }
}

/// Inducing posterior probability spaces and taking inner measures of a
/// nonmeasurable fact over the whole system.
fn bench_assignment_induction(reps: u32) {
    for n in [4usize, 6, 8] {
        let sys = async_coin_tosses(n).expect("builds");
        let phi = recent_heads(&sys);
        bench_time(&format!("scale_assignment_induction/{n}"), reps, || {
            let post = ProbAssignment::new(&sys, Assignment::post());
            let mut acc = Rat::ZERO;
            for c in sys.points() {
                acc += post.inner(AgentId(0), c, &phi).expect("space builds");
            }
            acc
        });
    }
}

/// Building the query artifact of the n-toss asynchronous system under
/// `post`: every agent's sample plan, with each space built into its
/// kernel. Prints the fresh artifact's resident bytes under the time.
fn bench_artifact_build(reps: u32) {
    for n in [8usize, 10, 11] {
        let sys = Arc::new(async_coin_tosses(n).expect("builds"));
        let build = || ModelArtifact::new(Arc::clone(&sys), Assignment::post());
        bench_time(&format!("scale_artifact_build/{n}"), reps, build);
        println!("  {} resident bytes fresh", build().approx_resident_bytes());
    }
}

/// One call of a cold query stream: a formula, or a threshold family
/// over a body.
enum ColdCall {
    Sat(Formula),
    Family(AgentId, Vec<Rat>, Formula),
}

impl ColdCall {
    fn answer(&self, ctx: &EvalCtx<'_>) {
        match self {
            ColdCall::Sat(f) => drop(ctx.sat(f).expect("model checks")),
            ColdCall::Family(i, alphas, f) => {
                drop(ctx.pr_ge_family(*i, alphas, f).expect("model checks"));
            }
        }
    }
}

/// A random boolean combination of `props`, at most `depth`
/// connectives deep, a quarter of its atoms negated.
fn cold_body(rng: &mut Rng64, props: &[&str], depth: usize) -> Formula {
    if depth == 0 || rng.chance(3, 10) {
        let p = Formula::prop(*rng.choose(props));
        return if rng.chance(1, 4) { p.not() } else { p };
    }
    let (l, r) = (
        cold_body(rng, props, depth - 1),
        cold_body(rng, props, depth - 1),
    );
    let f = if rng.chance(1, 2) {
        Formula::and([l, r])
    } else {
        Formula::or([l, r])
    };
    if rng.chance(1, 6) {
        f.not()
    } else {
        f
    }
}

/// A threshold in (0, 1) with a denominator from 2 to 16.
fn cold_alpha(rng: &mut Rng64) -> Rat {
    let den = 2 + rng.below(15);
    Rat::new(i128::from(1 + rng.below(den - 1)), i128::from(den))
}

/// `count` distinct calls over `sys`, drawn from a fixed seed: 3 in 10
/// are `Pr_i ≥ α φ`, 2 in 10 `K_i^α φ`, 2 in 10 `K_i(φ ∨ ψ)`, 1 in 10
/// `C_{p1,p2}(φ ∨ ψ)` and 2 in 10 a family of five thresholds over φ,
/// every body at most three connectives deep.
fn cold_calls(sys: &kpa_system::System, count: usize) -> Vec<ColdCall> {
    let mut rng = Rng64::new(0xC01D);
    let props = sys.prop_names();
    let agents: Vec<AgentId> = (0..sys.agent_count()).map(AgentId).collect();
    let mut seen = BTreeSet::new();
    let mut calls = Vec::with_capacity(count);
    while calls.len() < count {
        let i = *rng.choose(&agents);
        let f = cold_body(&mut rng, &props, 3);
        let call = match rng.below(10) {
            0..=2 => ColdCall::Sat(f.pr_ge(i, cold_alpha(&mut rng))),
            3 | 4 => ColdCall::Sat(f.k_alpha(i, cold_alpha(&mut rng))),
            5 | 6 => ColdCall::Sat(Formula::or([f, cold_body(&mut rng, &props, 3)]).known_by(i)),
            7 => ColdCall::Sat(
                Formula::or([f, cold_body(&mut rng, &props, 3)]).common([AgentId(0), AgentId(1)]),
            ),
            _ => {
                let mut alphas = BTreeSet::new();
                while alphas.len() < 5 {
                    alphas.insert(cold_alpha(&mut rng));
                }
                ColdCall::Family(i, alphas.into_iter().collect(), f)
            }
        };
        let key = match &call {
            ColdCall::Sat(f) => f.to_string(),
            ColdCall::Family(i, alphas, f) => format!("{i:?} {alphas:?} {f}"),
        };
        if seen.insert(key) {
            calls.push(call);
        }
    }
    calls
}

/// A cold query stream on the n-toss asynchronous system under `post`:
/// a fresh artifact answers 1,000 distinct seeded calls (see
/// [`cold_calls`]), so each call misses every memo. The row is the
/// best block of `reps` (each on its own artifact, after a warm-up
/// block); under it, the time and the artifact's resident-bytes growth
/// per call.
fn bench_cold_memo(reps: u32) {
    for n in [8usize, 10, 11] {
        let sys = Arc::new(async_coin_tosses(n).expect("builds"));
        let calls = cold_calls(&sys, 1_000);
        let mut best = Duration::MAX;
        let mut grown = 0;
        for pass in 0..=reps.max(1) {
            let artifact = ModelArtifact::new(Arc::clone(&sys), Assignment::post());
            let ctx = artifact.ctx();
            let before = artifact.approx_resident_bytes();
            let t0 = Instant::now();
            calls.iter().for_each(|call| call.answer(&ctx));
            if pass > 0 {
                best = best.min(t0.elapsed());
            }
            grown = artifact.approx_resident_bytes() - before;
        }
        let per_call = calls.len() as u64;
        println!("{:<48} {best:>12.2?}", format!("scale_cold_memo/{n}"));
        println!(
            "  {:.2} µs and {} resident bytes per call",
            best.as_secs_f64() * 1e6 / per_call as f64,
            grown / per_call
        );
    }
}

/// Model checking probabilistic common knowledge of coordination on
/// CA2 with growing messenger counts (tree depth stays fixed; the
/// quantities change, the point structure does not — so this measures
/// the fixed-point machinery).
fn bench_common_knowledge(reps: u32) {
    for m in [2u32, 6, 10] {
        let sys = ca2(m, Rat::new(1, 2)).expect("builds");
        let g = [sys.agent_id("A").unwrap(), sys.agent_id("B").unwrap()];
        let spec = coordination_formula().common_alpha(g, Rat::new(9, 10));
        bench_time(&format!("scale_common_knowledge/{m}"), reps, || {
            let post = ProbAssignment::new(&sys, Assignment::post());
            let model = Model::new(&post);
            model.holds_everywhere(&spec).expect("model checks")
        });
    }
}

/// Deciding bet safety (Theorem 7's game side) across a whole system.
fn bench_safety_decision(reps: u32) {
    for n in [4usize, 6, 8] {
        let sys = async_coin_tosses(n).expect("builds");
        let phi = recent_heads(&sys);
        bench_time(&format!("scale_safety_decision/{n}"), reps, || {
            let game = BettingGame::new(&sys, AgentId(0), AgentId(1));
            let rule = BetRule::new(phi.clone(), Rat::new(1, 2)).expect("valid");
            game.safe_points(&rule).expect("decidable")
        });
    }
}

/// Checking Proposition 6 over a whole system: n fair coins that only
/// j observes, a bettor i that observes nothing, φ = `c0=h`, α = 1/2.
/// At n = 6 the system has 448 points, 7 bettor classes and 127
/// `Tree^j` spaces (2^t at each time t). A traced pass then counts the
/// break-even evaluations the check made.
fn bench_proposition6(reps: u32) {
    for n in [4usize, 5, 6] {
        let mut b = ProtocolBuilder::new(["i", "j"]);
        for k in 0..n {
            let fair = [("h", Rat::new(1, 2)), ("t", Rat::new(1, 2))];
            b = b.coin(&format!("c{k}"), &fair, &["j"]);
        }
        let sys = b.build().expect("builds");
        let phi = sys.points_satisfying(sys.prop_id("c0=h").expect("prop"));
        let rule = BetRule::new(phi, Rat::new(1, 2)).expect("valid");
        let check = || {
            BettingGame::new(&sys, AgentId(0), AgentId(1))
                .proposition6_holds(&rule)
                .expect("decidable")
        };
        bench_time(&format!("scale_proposition6/{n}"), reps, check);
        kpa_trace::set_enabled(true);
        let evals = || {
            kpa_trace::registry()
                .snapshot()
                .counter("betting.break_even_evals")
        };
        let before = evals();
        assert!(check(), "Proposition 6 holds in synchronous systems");
        let made = evals() - before;
        kpa_trace::set_enabled(false);
        println!(
            "  {made} break-even evals over {} points",
            sys.point_count()
        );
    }
}

/// Checking Proposition 10 for the clockless p1 over the n-toss
/// asynchronous system, φ = "the most recent toss landed heads".
fn bench_prop10(reps: u32) {
    for n in [4usize, 6, 8] {
        let sys = async_coin_tosses(n).expect("builds");
        let phi = recent_heads(&sys);
        bench_time(&format!("scale_prop10/{n}"), reps, || {
            assert!(prop10_holds(&sys, AgentId(0), &phi).expect("checks"));
        });
    }
}

fn main() {
    let reps = default_reps();
    println!("scaling benchmarks (best of {reps})\n");
    bench_system_construction(reps);
    bench_assignment_induction(reps);
    bench_artifact_build(reps);
    bench_cold_memo(reps);
    bench_common_knowledge(reps);
    bench_safety_decision(reps);
    bench_proposition6(reps);
    bench_prop10(reps);
}
