//! Engine scaling benchmarks: how the core operations grow with system
//! size — the engineering-side "figures" of this reproduction. Plain
//! `main()` harness timed with `std::time`; run with
//! `cargo bench -p kpa-bench --bench scaling` (`--features bench` for
//! the larger sweep sizes).

use kpa_assign::{Assignment, ProbAssignment};
use kpa_bench::{bench_time, default_reps};
use kpa_betting::{BetRule, BettingGame};
use kpa_logic::Model;
use kpa_measure::Rat;
use kpa_protocols::{async_coin_tosses, ca2, coordination_formula, recent_heads};
use kpa_system::AgentId;

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

fn main() {
    let reps = default_reps();
    println!("scaling benchmarks (best of {reps})\n");
    bench_system_construction(reps);
    bench_assignment_induction(reps);
    bench_common_knowledge(reps);
    bench_safety_decision(reps);
}
