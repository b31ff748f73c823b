//! Quickstart: build a system, pick a probability assignment, ask a
//! knowledge-and-probability question.
//!
//! The scenario is the opening example of Halpern & Tuttle's paper:
//! `p3` tosses a fair coin at time 0 and observes the outcome; `p1` and
//! `p2` never learn it. What is the probability of heads *according to
//! `p1`* after the toss? The paper's answer: it depends on who you are
//! betting against.
//!
//! Run with: `cargo run --example quickstart`

use kpa::assign::{Assignment, ProbAssignment};
use kpa::logic::{Formula, Model, ModelArtifact};
use kpa::measure::{rat, Rat};
use kpa::system::{AgentId, PointId, ProtocolBuilder, TreeId};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the protocol round by round.
    let sys = ProtocolBuilder::new(["p1", "p2", "p3"])
        .coin("coin", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["p3"])
        .build()?;
    println!(
        "system: {} agents, {} tree(s), horizon {}, {} points",
        sys.agent_count(),
        sys.tree_count(),
        sys.horizon(),
        sys.point_count()
    );

    // 2. The fact and the point of evaluation: heads, after the toss.
    let heads = Formula::prop("coin=h");
    let after_toss = PointId {
        tree: TreeId(0),
        run: 0,
        time: 1,
    };
    let p1 = AgentId(0);

    // 3. Against an opponent with p1's own knowledge (p2), the
    //    posterior probability of heads is exactly 1/2…
    let vs_p2 = ProbAssignment::new(&sys, Assignment::opp(AgentId(1)));
    let model = Model::new(&vs_p2);
    let (lo, hi) = model.prob_interval(p1, after_toss, &heads)?;
    println!("vs p2 (same knowledge):  Pr_1(heads) ∈ [{lo}, {hi}]");
    assert_eq!((lo, hi), (rat!(1 / 2), rat!(1 / 2)));

    // …and p1 *knows* it: K₁(Pr₁(heads) = 1/2).
    let knows_half = heads.clone().k_interval(p1, rat!(1 / 2), rat!(1 / 2));
    assert!(model.holds_at(&knows_half, after_toss)?);
    println!("vs p2: K_1(Pr_1(heads) = 1/2) holds");

    // 4. Against p3, who saw the coin, the probability is 0 or 1 —
    //    p1 knows the disjunction but not which disjunct.
    let vs_p3 = ProbAssignment::new(&sys, Assignment::opp(AgentId(2)));
    let model = Model::new(&vs_p3);
    let (lo, hi) = model.prob_interval(p1, after_toss, &heads)?;
    println!("vs p3 (saw the coin):    Pr_1(heads) ∈ [{lo}, {hi}]");
    assert_eq!((lo, hi), (Rat::ONE, Rat::ONE)); // this point is the heads run
    let zero_or_one = Formula::or([
        heads.clone().pr_ge(p1, Rat::ONE),
        heads.clone().not().pr_ge(p1, Rat::ONE),
    ])
    .known_by(p1);
    assert!(model.holds_at(&zero_or_one, after_toss)?);
    assert!(!model.holds_at(&knows_half, after_toss)?);
    println!("vs p3: K_1(Pr_1(heads) = 0 ∨ Pr_1(heads) = 1) holds; = 1/2 does not");

    // 5. For concurrent callers, the same questions go through the
    //    owning, Send + Sync artifact: build it once, share the Arc,
    //    and give each thread its own cheap query context. Answers are
    //    bit-identical to the borrowing facade above.
    let artifact = Arc::new(ModelArtifact::new(
        Arc::new(sys.clone()),
        Assignment::opp(AgentId(1)),
    ));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let artifact = Arc::clone(&artifact);
            let knows_half = knows_half.clone();
            scope.spawn(move || {
                let ctx = artifact.ctx();
                assert!(ctx.holds_at(&knows_half, after_toss).expect("model checks"));
            });
        }
    });
    println!(
        "shared artifact: 4 threads re-derived K_1(Pr_1(heads) = 1/2) \
         from one Arc<ModelArtifact> ({} memoized subterms)",
        artifact.subterm_memo_len()
    );

    println!("\nThe probability an agent should use depends on its opponent —");
    println!("this is the paper's central point, and the library's core API.");
    Ok(())
}
