//! Probabilistic coordinated attack: Sections 4 and 8 end to end.
//!
//! Two generals, lossy messengers, a coin. The example reproduces the
//! paper's analysis of the two protocols `CA1` and `CA2`:
//!
//! * both coordinate with probability 2047/2048 ≥ .99 *over the runs*;
//! * yet in `CA1` general A can reach a point where it KNOWS the attack
//!   will fail — and Proposition 11 sorts out exactly which probability
//!   assignments (prior / post / fut) support probabilistic common
//!   knowledge of coordination for each protocol.
//!
//! Model checking resolves per-point sample spaces through each
//! assignment's batched [`SamplePlan`](kpa::assign::SamplePlan) (warmed
//! below, one extraction per information-set class), and the run ends
//! with a `kpa-trace` report of the cache and kernel traffic.
//!
//! Run with: `cargo run --example coordinated_attack`

use kpa::assign::{Assignment, ProbAssignment};
use kpa::logic::Model;
use kpa::measure::rat;
use kpa::protocols::{ca1, ca2, coordination_formula, coordination_run_probability};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Trace everything the example does (equivalently: KPA_TRACE=1).
    kpa::trace::set_enabled(true);
    kpa::trace::registry().reset();

    let messengers = 10;
    let loss = rat!(1 / 2);
    let epsilon = rat!(99 / 100);

    for (name, sys) in [
        ("CA1", ca1(messengers, loss)?),
        ("CA2", ca2(messengers, loss)?),
    ] {
        println!("=== {name} (m = {messengers}, loss = {loss}) ===");
        let run_prob = coordination_run_probability(&sys);
        println!(
            "  P(coordinated) over the runs = {run_prob} ≈ {:.5}",
            run_prob.to_f64()
        );
        assert!(run_prob >= epsilon);

        let a = sys.agent_id("A").unwrap();
        let b = sys.agent_id("B").unwrap();
        let phi = coordination_formula();

        // Does some point exist where A is CERTAIN of failure?
        let post = ProbAssignment::new(&sys, Assignment::post());
        // Warm the batched sample plans the probability sweeps below
        // resolve their spaces through: one extraction per class, then
        // a table lookup per point instead of a rebuild per point.
        for agent in [a, b] {
            let plan = post.sample_plan(agent);
            println!(
                "  {}'s sample plan: {} class(es), {} extraction(s) covering {} point(s)",
                sys.agent_name(agent),
                plan.classes(),
                plan.extractions(),
                plan.covered()
            );
        }
        let model = Model::new(&post);
        let knows_failure = phi.clone().not().known_by(a);
        let certain_failure = model.sat(&knows_failure)?;
        if certain_failure.is_empty() {
            println!("  no point of certain failure");
        } else {
            let p = certain_failure.iter().next().unwrap();
            println!(
                "  A is certain of failure at {} point(s), e.g. {p} where A's view is {:?}",
                certain_failure.len(),
                sys.local_name(a, p)
            );
        }

        // Proposition 11: probabilistic common knowledge C^ε of
        // coordination, under each assignment, at all points.
        let spec = phi.clone().common_alpha([a, b], epsilon);
        for assignment in [Assignment::prior(), Assignment::post(), Assignment::fut()] {
            let label = assignment.name();
            let pa = ProbAssignment::new(&sys, assignment);
            let holds = Model::new(&pa).holds_everywhere(&spec)?;
            println!("  C^0.99(coordinated) at all points under {label:<5}: {holds}");
        }
        println!();
    }

    println!("Paper (Proposition 11): CA1 achieves the spec w.r.t. prior only;");
    println!("CA2 w.r.t. prior and post; no protocol achieves it w.r.t. fut.");

    // What the whole analysis cost, in cache and kernel traffic.
    print!("\n{}", kpa::trace::registry().snapshot().render_table());
    Ok(())
}
