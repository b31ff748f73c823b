//! Proposition 10 and convenience queries over cut classes.
//!
//! Proposition 10 of the paper: `P^post, c ⊨ K_i^{[α,β]} φ` iff
//! `P^pts, c ⊨ K_i^{[α,β]} φ` — playing against a copy of yourself with
//! a completely free type-3 adversary gives exactly the inner/outer
//! bounds of the posterior assignment. The proof constructs, per run,
//! the worst (and best) possible stopping points; [`pts_interval`]
//! implements that construction and [`prop10_holds`] checks the
//! equivalence at every point, once per posterior class.

use crate::classes::CutClass;
use crate::error::AsyncError;
use kpa_assign::{Assignment, ProbAssignment};
use kpa_logic::PointSet;
use kpa_measure::Rat;
use kpa_system::{AgentId, PointId, System};

/// The agent's sample region when betting against opponent `j` at `c`:
/// `Tree^j_ic` (with `j = i` this is `Tree_ic` itself).
#[must_use]
pub fn region_for(sys: &System, agent: AgentId, opponent: AgentId, c: PointId) -> PointSet {
    Assignment::opp(opponent).sample(sys, agent, c)
}

/// The `(inf, sup)` probability of `phi` for `agent` at `c` over the
/// given cut class, betting against `opponent`.
///
/// # Errors
///
/// As [`CutClass::bounds`].
pub fn class_interval(
    sys: &System,
    agent: AgentId,
    opponent: AgentId,
    c: PointId,
    phi: &PointSet,
    class: &CutClass,
) -> Result<(Rat, Rat), AsyncError> {
    class.bounds(sys, &region_for(sys, agent, opponent, c), phi)
}

/// The `P^pts` interval: bounds over arbitrary cuts of `Tree_ic`
/// (opponent = the agent itself).
///
/// # Errors
///
/// As [`CutClass::bounds`].
pub fn pts_interval(
    sys: &System,
    agent: AgentId,
    c: PointId,
    phi: &PointSet,
) -> Result<(Rat, Rat), AsyncError> {
    class_interval(sys, agent, agent, c, phi, &CutClass::AllPoints)
}

/// Checks Proposition 10 for `agent`: at every point, the `P^pts`
/// interval equals the inner/outer interval of `P^post`.
///
/// Betting against yourself is `post` (`Tree^i_ic = Tree_ic`), and both
/// sides depend on a point only through its posterior space, so the
/// check is one comparison per posterior class: the proof's per-run
/// construction ([`CutClass::AllPoints`]) over the space's sample
/// against the space's inner and outer measure.
///
/// # Errors
///
/// As [`CutClass::bounds`], plus space-construction failures of the
/// posterior assignment.
pub fn prop10_holds(sys: &System, agent: AgentId, phi: &PointSet) -> Result<bool, AsyncError> {
    let post = ProbAssignment::new(sys, Assignment::post());
    let _sweep_timer = kpa_trace::span!("async.prop10_ns");
    kpa_trace::count!("async.prop10_points", sys.point_count() as u64);
    let mut all = true;
    post.sweep_spaces(
        agent,
        true,
        |space| {
            let pts = CutClass::AllPoints.bounds(sys, space.sample(), phi)?;
            Ok::<_, AsyncError>(pts == space.measure_interval(phi))
        },
        |_, &holds| all &= holds,
    )?;
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpa_measure::rat;
    use kpa_system::{ProtocolBuilder, TreeId};

    fn pt(run: usize, time: usize) -> PointId {
        PointId {
            tree: TreeId(0),
            run,
            time,
        }
    }

    /// Clockless p1 and clocked p2 watching n fair tosses (the Section 7
    /// running example at n = 3).
    fn tosses(n: usize) -> kpa_system::System {
        let mut b = ProtocolBuilder::new(["p1", "p2"]).clockless("p1");
        for k in 0..n {
            let name = format!("c{k}");
            b = b.step(&name, {
                let name = name.clone();
                move |_| {
                    ["h", "t"]
                        .map(|o| {
                            // p1 observes only that tossing has begun; it
                            // learns nothing afterwards (clockless).
                            let branch = kpa_system::Branch::new(rat!(1 / 2))
                                .prop(&format!("{name}={o}"))
                                .transient_prop(&format!("recent={o}"));
                            if k == 0 {
                                branch.observe("p1", "go")
                            } else {
                                branch
                            }
                        })
                        .to_vec()
                }
            });
        }
        b.build().unwrap()
    }

    fn recent_heads(sys: &kpa_system::System) -> PointSet {
        sys.points_satisfying(sys.prop_id("recent=h").unwrap())
    }

    #[test]
    fn proposition_10_on_the_coin_system() {
        let sys = tosses(3);
        let phi = recent_heads(&sys);
        assert!(prop10_holds(&sys, AgentId(0), &phi).unwrap());
        // For the clocked agent too (its post spaces are single slices).
        assert!(prop10_holds(&sys, AgentId(1), &phi).unwrap());
    }

    #[test]
    fn section7_quantities() {
        // The paper's n-toss numbers, scaled to n = 3: the clockless
        // agent's interval is [1/2³, 1 − 1/2³]; against the clocked
        // opponent every horizontal cut gives exactly 1/2.
        let sys = tosses(3);
        let phi = recent_heads(&sys);
        let c = pt(0, 1);
        let p1 = AgentId(0);
        assert_eq!(
            pts_interval(&sys, p1, c, &phi).unwrap(),
            (rat!(1 / 8), rat!(7 / 8))
        );
        let vs_clocked = class_interval(&sys, p1, AgentId(1), c, &phi, &CutClass::Horizontal);
        assert_eq!(vs_clocked.unwrap(), (rat!(1 / 2), rat!(1 / 2)));
        // Regions: against itself, everything after "go"; against the
        // clocked p2, a single time slice.
        assert_eq!(region_for(&sys, p1, p1, c).len(), 8 * 3);
        assert_eq!(region_for(&sys, p1, AgentId(1), c).len(), 8);
    }
}
