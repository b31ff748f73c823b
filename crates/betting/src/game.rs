//! The betting game of Section 6.
//!
//! Agent `p_j` offers agent `p_i` a payoff `β` for a bet on `φ`: if
//! `p_i` accepts, it pays one dollar and receives `β` dollars if `φ` is
//! true at the current point. `p_i` follows the threshold rule
//! `Bet(φ, α)` — "accept any payoff of at least `1/α`" — and its
//! winnings `W_f` against an opponent strategy `f` form a random
//! variable over whichever probability space models the bet.

use crate::error::BettingError;
use crate::strategy::Strategy;
use kpa_assign::{DensePointSpace, PointSpace};
use kpa_logic::PointSet;
use kpa_measure::Rat;
use kpa_system::{AgentId, PointId, System};

/// The bettor's rule `Bet(φ, α)`: accept any bet on `φ` whose payoff is
/// at least `1/α`.
///
/// The footnote to Theorem 8 justifies restricting to such threshold
/// rules: any safe acceptance strategy is equivalent to one of them.
///
/// # Examples
///
/// ```
/// use kpa_measure::rat;
/// use kpa_betting::BetRule;
///
/// let rule = BetRule::new(Default::default(), rat!(1 / 2))?;
/// assert_eq!(rule.min_payoff(), rat!(2));
/// assert!(rule.accepts(Some(rat!(2))));
/// assert!(!rule.accepts(Some(rat!(3 / 2))));
/// assert!(!rule.accepts(None));
/// # Ok::<(), kpa_betting::BettingError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BetRule {
    phi: PointSet,
    alpha: Rat,
}

impl BetRule {
    /// A rule betting on the fact denoted by the point set `phi`, with
    /// threshold `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`BettingError::BadThreshold`] unless `0 < α ≤ 1`.
    pub fn new(phi: PointSet, alpha: Rat) -> Result<BetRule, BettingError> {
        if !alpha.is_positive() || alpha > Rat::ONE {
            return Err(BettingError::BadThreshold {
                alpha: alpha.to_string(),
            });
        }
        Ok(BetRule { phi, alpha })
    }

    /// The fact being bet on, as a set of points.
    #[must_use]
    pub fn phi(&self) -> &PointSet {
        &self.phi
    }

    /// The threshold `α`.
    #[must_use]
    pub fn alpha(&self) -> Rat {
        self.alpha
    }

    /// The minimum acceptable payoff `1/α`.
    #[must_use]
    pub fn min_payoff(&self) -> Rat {
        self.alpha.recip()
    }

    /// Whether the rule accepts an offer (a missing offer is declined).
    #[must_use]
    pub fn accepts(&self, offer: Option<Rat>) -> bool {
        offer.is_some_and(|beta| beta >= self.min_payoff())
    }

    /// The bettor's winnings at `point` given the opponent's `offer`:
    /// `β − 1` if the bet is accepted and `φ` holds, `−1` if accepted
    /// and `φ` fails, `0` if declined.
    #[must_use]
    pub fn winnings_at(&self, offer: Option<Rat>, point: PointId) -> Rat {
        match offer {
            Some(beta) if beta >= self.min_payoff() => {
                if self.phi.contains(point) {
                    beta - Rat::ONE
                } else {
                    -Rat::ONE
                }
            }
            _ => Rat::ZERO,
        }
    }
}

/// The exact expected winnings `E[W_f]` of following `rule` against
/// `strategy` over `space`.
///
/// # Errors
///
/// Returns [`BettingError::NonMeasurableWinnings`] if the winnings are
/// not measurable on the space (possible in asynchronous systems; use
/// [`inner_expected_winnings`] there).
pub fn expected_winnings(
    space: &PointSpace,
    sys: &System,
    opponent: AgentId,
    rule: &BetRule,
    strategy: &Strategy,
) -> Result<Rat, BettingError> {
    space
        .expectation(|&p| rule.winnings_at(strategy.offer_at(sys, opponent, p), p))
        .map_err(|_| BettingError::NonMeasurableWinnings)
}

/// The inner expected winnings `E⁎[W_f]` (Appendix B.2) over a space on
/// which the opponent's offer is constant — e.g. any `Tree^j_ic`, where
/// `p_j` has a single local state.
///
/// With a constant accepted offer `β`, the winnings are the two-valued
/// variable `β−1` on `φ` / `−1` off `φ`, and
/// `E⁎[W] = (β−1)·μ⁎(φ) − μ*(¬φ)`. If the bet is declined the
/// expectation is zero. When `φ` is measurable this equals
/// [`expected_winnings`].
///
/// # Errors
///
/// Returns [`BettingError::NonConstantOffer`] if the offer varies over
/// the space.
pub fn inner_expected_winnings(
    space: &DensePointSpace,
    sys: &System,
    opponent: AgentId,
    rule: &BetRule,
    strategy: &Strategy,
) -> Result<Rat, BettingError> {
    let mut offers = space
        .sample()
        .iter()
        .map(|p| strategy.offer_at(sys, opponent, p));
    let first = offers.next().expect("spaces are nonempty");
    if offers.any(|o| o != first) {
        return Err(BettingError::NonConstantOffer);
    }
    if !rule.accepts(first) {
        return Ok(Rat::ZERO);
    }
    let beta = first.expect("accepted offer exists");
    // One fused interval query (word-wise on the dense path) supplies
    // both μ⁎(φ) and μ*(φ); the Appendix B.2 inner expectation picks
    // the bound matching the value ordering, exactly as
    // `BlockSpace::inner_expectation` does internally.
    let (lo, hi) = space.measure_interval(rule.phi());
    let (on, off) = (beta - Rat::ONE, -Rat::ONE);
    let p_on = if on >= off { lo } else { hi };
    Ok(on * p_on + off * (Rat::ONE - p_on))
}

/// Tight `(lower, upper)` bounds on the expected winnings over *all*
/// extensions of the space that make the winnings measurable — the
/// generalization of [`inner_expected_winnings`] to strategies whose
/// offer varies over the space (e.g. posterior spaces in asynchronous
/// systems, where neither [`expected_winnings`] nor the constant-offer
/// inner expectation applies).
///
/// When the winnings are measurable both bounds equal
/// [`expected_winnings`]; with a constant offer the lower bound equals
/// [`inner_expected_winnings`].
#[must_use]
pub fn expected_winnings_bounds(
    space: &PointSpace,
    sys: &System,
    opponent: AgentId,
    rule: &BetRule,
    strategy: &Strategy,
) -> (Rat, Rat) {
    space.expectation_bounds(|&p| rule.winnings_at(strategy.offer_at(sys, opponent, p), p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpa_assign::{Assignment, ProbAssignment};
    use kpa_measure::rat;
    use kpa_system::{ProtocolBuilder, TreeId};

    fn coin_system() -> System {
        ProtocolBuilder::new(["i", "j"])
            .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["j"])
            .build()
            .unwrap()
    }

    fn pt(run: usize, time: usize) -> PointId {
        PointId {
            tree: TreeId(0),
            run,
            time,
        }
    }

    #[test]
    fn rule_validation() {
        assert!(BetRule::new(PointSet::default(), rat!(0)).is_err());
        assert!(BetRule::new(PointSet::default(), rat!(3 / 2)).is_err());
        assert!(BetRule::new(PointSet::default(), rat!(-1 / 2)).is_err());
        assert!(BetRule::new(PointSet::default(), Rat::ONE).is_ok());
    }

    #[test]
    fn winnings_cases() {
        let idx = std::sync::Arc::new(kpa_system::PointIndex::new(vec![2], 1));
        let phi = PointSet::from_points(idx, [pt(0, 1)]);
        let rule = BetRule::new(phi, rat!(1 / 2)).unwrap();
        // Accepted, φ true: payoff − 1.
        assert_eq!(rule.winnings_at(Some(rat!(2)), pt(0, 1)), Rat::ONE);
        // Accepted, φ false: lose the stake.
        assert_eq!(rule.winnings_at(Some(rat!(2)), pt(1, 1)), -Rat::ONE);
        // Offer below threshold or absent: no bet.
        assert_eq!(rule.winnings_at(Some(rat!(3 / 2)), pt(0, 1)), Rat::ZERO);
        assert_eq!(rule.winnings_at(None, pt(0, 1)), Rat::ZERO);
        assert_eq!(rule.alpha(), rat!(1 / 2));
        assert_eq!(rule.phi().len(), 1);
    }

    #[test]
    fn fair_constant_offer_breaks_even_exactly() {
        let sys = coin_system();
        let i = sys.agent_id("i").unwrap();
        let j = sys.agent_id("j").unwrap();
        let post = ProbAssignment::new(&sys, Assignment::post());
        let space = post.space(i, pt(0, 1)).unwrap();
        let heads = sys.points_satisfying(sys.prop_id("c=h").unwrap());
        let rule = BetRule::new(heads, rat!(1 / 2)).unwrap();
        // A constant payoff-2 offer on a fair coin: expected winnings 0.
        let s = Strategy::constant(rat!(2));
        assert_eq!(
            expected_winnings(&space, &sys, j, &rule, &s).unwrap(),
            Rat::ZERO
        );
        assert_eq!(
            inner_expected_winnings(&space, &sys, j, &rule, &s).unwrap(),
            Rat::ZERO
        );
        // A payoff-3 offer is in p_i's favor: +1/2 on average.
        let s = Strategy::constant(rat!(3));
        assert_eq!(
            expected_winnings(&space, &sys, j, &rule, &s).unwrap(),
            rat!(1 / 2)
        );
        // Silence means no money moves.
        let s = Strategy::silent();
        assert_eq!(
            expected_winnings(&space, &sys, j, &rule, &s).unwrap(),
            Rat::ZERO
        );
    }

    #[test]
    fn treacherous_offer_extracts_money() {
        // p_j offers the bet only when it sees tails (it will win).
        let sys = coin_system();
        let i = sys.agent_id("i").unwrap();
        let j = sys.agent_id("j").unwrap();
        let post = ProbAssignment::new(&sys, Assignment::post());
        let space = post.space(i, pt(0, 1)).unwrap();
        let heads = sys.points_satisfying(sys.prop_id("c=h").unwrap());
        let rule = BetRule::new(heads, rat!(1 / 2)).unwrap();
        let tails_sym = sys.local(j, pt(1, 1));
        let s = Strategy::silent().with_offer(tails_sym, rat!(2));
        // E[W] = 1/2·0 + 1/2·(−1) = −1/2: p_i loses money on average.
        assert_eq!(
            expected_winnings(&space, &sys, j, &rule, &s).unwrap(),
            rat!(-1 / 2)
        );
        // On Tree^j spaces the offer is constant and both formulas agree.
        let opp = ProbAssignment::new(&sys, Assignment::opp(j));
        let cell = opp.space(i, pt(1, 1)).unwrap();
        assert_eq!(
            inner_expected_winnings(&cell, &sys, j, &rule, &s).unwrap(),
            expected_winnings(&cell, &sys, j, &rule, &s).unwrap()
        );
        assert_eq!(
            inner_expected_winnings(&cell, &sys, j, &rule, &s).unwrap(),
            -Rat::ONE
        );
        // The post space mixes offers: the constant-offer formula refuses.
        assert!(matches!(
            inner_expected_winnings(&space, &sys, j, &rule, &s),
            Err(BettingError::NonConstantOffer)
        ));
    }

    #[test]
    fn nonmeasurable_winnings_detected() {
        // Clockless bettor, two tosses: "most recent toss heads" is not
        // measurable in its post space, so neither are the winnings.
        let sys = ProtocolBuilder::new(["i", "j"])
            .clockless("i")
            .step("c1", |_| {
                ["h", "t"]
                    .map(|o| {
                        kpa_system::Branch::new(rat!(1 / 2))
                            .observe("i", "go")
                            .prop(&format!("c1={o}"))
                            .transient_prop(&format!("recent:c1={o}"))
                    })
                    .to_vec()
            })
            .coin("c2", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &[])
            .build()
            .unwrap();
        let i = sys.agent_id("i").unwrap();
        let j = sys.agent_id("j").unwrap();
        let post = ProbAssignment::new(&sys, Assignment::post());
        let space = post
            .space(
                i,
                PointId {
                    tree: TreeId(0),
                    run: 0,
                    time: 1,
                },
            )
            .unwrap();
        let mut recent = sys.points_satisfying(sys.prop_id("recent:c1=h").unwrap());
        recent.extend(sys.points_satisfying(sys.prop_id("recent:c2=h").unwrap()));
        let rule = BetRule::new(recent, rat!(1 / 2)).unwrap();
        let s = Strategy::constant(rat!(2));
        assert!(matches!(
            expected_winnings(&space, &sys, j, &rule, &s),
            Err(BettingError::NonMeasurableWinnings)
        ));
        // The inner expectation still exists (the offer is constant):
        // E⁎ = 1·(1/4) + (−1)·(3/4) = −1/2.
        assert_eq!(
            inner_expected_winnings(&space, &sys, j, &rule, &s).unwrap(),
            rat!(-1 / 2)
        );
        // The general bounds agree with it on the constant-offer case…
        let (lo, hi) = expected_winnings_bounds(&space, &sys, j, &rule, &s);
        assert_eq!((lo, hi), (rat!(-1 / 2), rat!(1 / 2)));
        // …and still apply when the offer varies with p_j's clock (the
        // constant-offer formula refuses).
        let t1 = sys.local(
            j,
            PointId {
                tree: TreeId(0),
                run: 0,
                time: 1,
            },
        );
        let varying = Strategy::silent().with_offer(t1, rat!(2));
        assert!(matches!(
            inner_expected_winnings(&space, &sys, j, &rule, &varying),
            Err(BettingError::NonConstantOffer)
        ));
        let (lo, hi) = expected_winnings_bounds(&space, &sys, j, &rule, &varying);
        assert!(lo <= hi);
    }
}
