//! Safe bets and the Theorem 7 machinery.
//!
//! Section 6 of the paper: `Bet(φ, α)` *breaks even* for `p_i` at `c`
//! (with respect to a space) if its expected winnings are nonnegative
//! against *every* strategy of the opponent `p_j`; it is *safe* at `c`
//! if `p_i` knows it breaks even — it breaks even at every point `p_i`
//! considers possible. Theorem 7 states that `Bet(φ, α)` is
//! `Tree^j`-safe at `c` **iff** `P^j, c ⊨ K_i^α φ`.
//!
//! This module evaluates the game side of that biconditional directly:
//!
//! * within one `Tree^j_id` the opponent has a single local state, so a
//!   strategy restricted to it is a single offer `β`; accepted winnings
//!   `β·μ⁎(φ) − 1` increase in `β`, so quantifying over all strategies
//!   reduces to the threshold offer `β = 1/α` ([`BettingGame::breaks_even_at`]);
//! * over a whole `Tree_ic` (Proposition 6's alternative), a failing
//!   strategy exists iff a *single-state* strategy fails, so
//!   quantification reduces to the finite adversarial family of
//!   [`BettingGame::adversarial_family`] ([`BettingGame::tree_safe_at`]).
//!
//! The knowledge side (`K_i^α φ` under `P^j`) is computed from inner
//! measures, independently of the game; [`BettingGame::theorem7_holds`]
//! checks the biconditional, and [`BettingGame::losing_strategy_at`]
//! constructs the money-extracting strategy from the proof whenever the
//! bet is unsafe.

use crate::error::BettingError;
use crate::game::{expected_winnings, inner_expected_winnings, BetRule};
use crate::strategy::Strategy;
use kpa_assign::{Assignment, DensePointSpace, ProbAssignment};
use kpa_logic::{LogicError, Model, PointSet};
use kpa_measure::Rat;
use kpa_system::{AgentId, PointId, System};

/// The betting game between a bettor `p_i` and an opponent `p_j` over a
/// system, with the opponent-indexed assignment `P^j` it induces.
///
/// # Examples
///
/// ```
/// use kpa_measure::rat;
/// use kpa_system::{PointId, ProtocolBuilder, TreeId};
/// use kpa_betting::{BetRule, BettingGame};
///
/// // p_j secretly tosses a fair coin (the Section 6 example).
/// let sys = ProtocolBuilder::new(["i", "j"])
///     .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["j"])
///     .build()?;
/// let game = BettingGame::new(&sys, sys.agent_id("i").unwrap(), sys.agent_id("j").unwrap());
/// let heads = sys.points_satisfying(sys.prop_id("c=h").unwrap());
/// let c = PointId { tree: TreeId(0), run: 0, time: 1 };
///
/// // Betting on heads at even odds (α = 1/2) against someone who saw
/// // the coin is NOT safe…
/// let rule = BetRule::new(heads, rat!(1 / 2))?;
/// assert!(!game.is_safe_at(c, &rule)?);
/// // …and the proof's strategy extracts money.
/// assert!(game.losing_strategy_at(c, &rule)?.is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct BettingGame<'s> {
    sys: &'s System,
    bettor: AgentId,
    opponent: AgentId,
    opp: ProbAssignment<'s>,
    post: ProbAssignment<'s>,
}

impl<'s> BettingGame<'s> {
    /// Sets up the game between `bettor` (`p_i`) and `opponent` (`p_j`).
    #[must_use]
    pub fn new(sys: &'s System, bettor: AgentId, opponent: AgentId) -> BettingGame<'s> {
        BettingGame {
            sys,
            bettor,
            opponent,
            opp: ProbAssignment::new(sys, Assignment::opp(opponent)),
            post: ProbAssignment::new(sys, Assignment::post()),
        }
    }

    /// The system the game is played over.
    #[must_use]
    pub fn system(&self) -> &'s System {
        self.sys
    }

    /// The bettor `p_i`.
    #[must_use]
    pub fn bettor(&self) -> AgentId {
        self.bettor
    }

    /// The opponent `p_j`.
    #[must_use]
    pub fn opponent(&self) -> AgentId {
        self.opponent
    }

    /// The opponent-indexed probability assignment `P^j`.
    #[must_use]
    pub fn opp_assignment(&self) -> &ProbAssignment<'s> {
        &self.opp
    }

    /// Whether `rule` breaks even for the bettor at `d` with respect to
    /// `Tree^j_id`: nonnegative (inner) expected winnings against every
    /// strategy, which reduces to the threshold offer `1/α` (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Propagates space-construction failures.
    pub fn breaks_even_at(&self, d: PointId, rule: &BetRule) -> Result<bool, BettingError> {
        let space = self.opp.space(self.bettor, d)?;
        self.breaks_even_in(&space, rule)
    }

    /// [`BettingGame::breaks_even_at`] with the `Tree^j_id` space
    /// already in hand (the shared tail of the per-point check and the
    /// space sweeps).
    fn breaks_even_in(
        &self,
        space: &DensePointSpace,
        rule: &BetRule,
    ) -> Result<bool, BettingError> {
        kpa_trace::count!("betting.break_even_evals");
        let threshold = Strategy::constant(rule.min_payoff());
        let e = inner_expected_winnings(space, self.sys, self.opponent, rule, &threshold)?;
        Ok(e >= Rat::ZERO)
    }

    /// Whether `rule` is `Tree^j`-safe for the bettor at `c`: it breaks
    /// even at every point the bettor considers possible at `c`.
    ///
    /// # Errors
    ///
    /// Propagates space-construction failures.
    pub fn is_safe_at(&self, c: PointId, rule: &BetRule) -> Result<bool, BettingError> {
        for d in self.sys.indistinguishable(self.bettor, c) {
            if !self.breaks_even_at(d, rule)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The set of points where `rule` is `Tree^j`-safe: `K_i` of the set
    /// where it breaks even. Each `Tree^j` space is decided once, and
    /// since the `P^j` classes partition each bettor class, a bettor
    /// class lies in that set exactly when the bet breaks even
    /// throughout it.
    ///
    /// # Errors
    ///
    /// Propagates space-construction failures.
    pub fn safe_points(&self, rule: &BetRule) -> Result<PointSet, BettingError> {
        kpa_trace::count!("betting.class_sweeps");
        let _sweep_timer = kpa_trace::span!("betting.class_sweep_ns");
        let mut even = self.sys.empty_points();
        self.opp.sweep_spaces(
            self.bettor,
            true,
            |space| self.breaks_even_in(space, rule),
            |points, &ok| {
                if ok {
                    even.union_group(points);
                }
            },
        )?;
        Ok(Model::new(&self.opp).knows_set(self.bettor, &even))
    }

    /// The set of points satisfying `K_i^α φ` under `P^j` — the
    /// knowledge side of Theorem 7, `K_i(Prᵢ(φ) ≥ α)` as the logic
    /// layer evaluates it, not from the game.
    ///
    /// # Errors
    ///
    /// Propagates space-construction failures.
    pub fn k_alpha_points(&self, rule: &BetRule) -> Result<PointSet, BettingError> {
        let model = Model::new(&self.opp);
        let likely = model
            .pr_ge_set(self.bettor, rule.alpha(), rule.phi())
            .map_err(|e| match e {
                LogicError::Assign(e) => BettingError::Assign(e),
                e => unreachable!("a Pr sweep over a set fails only to build a space: {e}"),
            })?;
        Ok(model.knows_set(self.bettor, &likely))
    }

    /// Checks Theorem 7 on this game: safety and `K_i^α` coincide at
    /// every point.
    ///
    /// # Errors
    ///
    /// Propagates space-construction failures.
    pub fn theorem7_holds(&self, rule: &BetRule) -> Result<bool, BettingError> {
        Ok(self.safe_points(rule)? == self.k_alpha_points(rule)?)
    }

    /// If `rule` is unsafe at `c`, the money-extracting strategy from
    /// the proof of Theorem 7: find `d ~i c` whose cell probability dips
    /// below `α` and offer exactly `1/α` there (silence elsewhere).
    /// Returns the strategy and the witnessing point.
    ///
    /// # Errors
    ///
    /// Propagates space-construction failures.
    pub fn losing_strategy_at(
        &self,
        c: PointId,
        rule: &BetRule,
    ) -> Result<Option<(Strategy, PointId)>, BettingError> {
        for d in self.sys.indistinguishable(self.bettor, c) {
            let p = self.opp.space(self.bettor, d)?.inner_measure(rule.phi());
            if p < rule.alpha() {
                let strategy = Strategy::silent()
                    .with_offer(self.sys.local(self.opponent, d), rule.min_payoff());
                return Ok(Some((strategy, d)));
            }
        }
        Ok(None)
    }

    /// The *fair threshold* for betting on `phi` at `c`: the largest
    /// `α` for which `Bet(φ, α)` is safe — equivalently (Theorem 7),
    /// the best lower probability bound the bettor knows under `P^j`,
    /// `min_{d ~i c} (μ^j_id)⁎(φ)`. The bettor should demand a payoff
    /// of at least the reciprocal of this value.
    ///
    /// # Errors
    ///
    /// Propagates space-construction failures.
    pub fn fair_threshold(&self, c: PointId, phi: &PointSet) -> Result<Rat, BettingError> {
        let mut min = Rat::ONE;
        for d in self.sys.indistinguishable(self.bettor, c) {
            min = min.min(self.opp.space(self.bettor, d)?.inner_measure(phi));
        }
        Ok(min)
    }

    /// The finite adversarial strategy family sufficient for deciding
    /// `Tree`-safety (Proposition 6): for each of the opponent's local
    /// states, the strategy offering exactly `1/α` in that state alone,
    /// plus the constant threshold strategy.
    #[must_use]
    pub fn adversarial_family(&self, rule: &BetRule) -> Vec<Strategy> {
        let mut out: Vec<Strategy> = self
            .sys
            .local_states(self.opponent)
            .into_iter()
            .map(|sym| Strategy::silent().with_offer(sym, rule.min_payoff()))
            .collect();
        out.push(Strategy::constant(rule.min_payoff()));
        out
    }

    /// Whether `rule` is `Tree`-safe at `c`: nonnegative expected
    /// winnings over `Tree_id` (the posterior space) for every strategy
    /// and every `d ~i c` — evaluated over the sufficient finite family
    /// of [`BettingGame::adversarial_family`].
    ///
    /// Proposition 6 states this is equivalent to
    /// [`BettingGame::is_safe_at`] in synchronous systems.
    ///
    /// # Errors
    ///
    /// Propagates space-construction failures; in asynchronous systems
    /// the winnings may be nonmeasurable over the posterior space, which
    /// is reported as [`BettingError::NonMeasurableWinnings`].
    pub fn tree_safe_at(&self, c: PointId, rule: &BetRule) -> Result<bool, BettingError> {
        let family = self.adversarial_family(rule);
        for d in self.sys.indistinguishable(self.bettor, c) {
            let space = self.post.space(self.bettor, d)?;
            if !self.tree_even_in(&space, &family, rule)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Whether `rule` breaks even over the posterior space `Tree_id`
    /// against every strategy of `family` (the per-space half of
    /// [`BettingGame::tree_safe_at`]).
    fn tree_even_in(
        &self,
        space: &DensePointSpace,
        family: &[Strategy],
        rule: &BetRule,
    ) -> Result<bool, BettingError> {
        for f in family {
            if expected_winnings(space, self.sys, self.opponent, rule, f)? < Rat::ZERO {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Checks Proposition 6: `Tree`-safety and `Tree^j`-safety coincide
    /// at every point (synchronous systems).
    ///
    /// Both [`BettingGame::tree_safe_at`] and
    /// [`BettingGame::is_safe_at`] quantify over `c`'s bettor class, so
    /// each bettor class is decided once, in the order a per-point loop
    /// first meets it, from per-space verdicts that are each computed
    /// once: the adversarial family's over each posterior space, the
    /// break-even test over each `Tree^j` space. A class's verdict is
    /// the verdict of its first point that does not pass, as the
    /// per-point loops find it, error included.
    ///
    /// # Errors
    ///
    /// As [`BettingGame::tree_safe_at`].
    pub fn proposition6_holds(&self, rule: &BetRule) -> Result<bool, BettingError> {
        let _sweep_timer = kpa_trace::span!("betting.prop6_ns");
        kpa_trace::count!("betting.prop6_points", self.sys.point_count() as u64);
        let family = self.adversarial_family(rule);
        let tree = self.verdicts(&self.post, |space| self.tree_even_in(space, &family, rule))?;
        let tree_j = self.verdicts(&self.opp, |space| self.breaks_even_in(space, rule))?;
        let mut decided = self.sys.empty_points();
        for c in self.sys.points() {
            if decided.contains(c) {
                continue;
            }
            let class = self.sys.indistinguishable(self.bettor, c);
            if tree.all_pass(class)? != tree_j.all_pass(class)? {
                return Ok(false);
            }
            decided.union_with(class);
        }
        Ok(true)
    }

    /// Each of the bettor's spaces under `pa`, decided once by `verdict`
    /// and filed by point (an error is a verdict too).
    fn verdicts(
        &self,
        pa: &ProbAssignment<'_>,
        mut verdict: impl FnMut(&DensePointSpace) -> Result<bool, BettingError>,
    ) -> Result<Verdicts, BettingError> {
        let mut out = Verdicts {
            pass: self.sys.empty_points(),
            errors: Vec::new(),
        };
        pa.sweep_spaces(
            self.bettor,
            true,
            |space| Ok::<_, BettingError>(verdict(space)),
            |points, verdict| match verdict {
                Ok(true) => out.pass.union_group(points),
                Ok(false) => {}
                Err(e) => {
                    let mut at = self.sys.empty_points();
                    at.union_group(points);
                    out.errors.push((at, e.clone()));
                }
            },
        )?;
        Ok(out)
    }
}

/// Per-space verdicts filed by point: where they pass, and where they
/// failed with an error.
struct Verdicts {
    pass: PointSet,
    errors: Vec<(PointSet, BettingError)>,
}

impl Verdicts {
    /// What a loop over `class` in ascending order returns when it stops
    /// at the first point that does not pass: `true` if every point
    /// passes, else that point's error or `false`.
    fn all_pass(&self, class: &PointSet) -> Result<bool, BettingError> {
        let Some(d) = class.difference(&self.pass).first() else {
            return Ok(true);
        };
        match self.errors.iter().find(|(at, _)| at.contains(d)) {
            Some((_, e)) => Err(e.clone()),
            None => Ok(false),
        }
    }
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

    /// p_j secretly tosses a fair coin; p_i sees nothing.
    fn secret_coin() -> System {
        ProtocolBuilder::new(["i", "j"])
            .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["j"])
            .build()
            .unwrap()
    }

    #[test]
    fn safety_against_informed_opponent() {
        let sys = secret_coin();
        let game = BettingGame::new(&sys, AgentId(0), AgentId(1));
        let heads = sys.points_satisfying(sys.prop_id("c=h").unwrap());
        let c = pt(0, 1);

        // α = 1/2 against someone who saw the coin: unsafe.
        let rule = BetRule::new(heads.clone(), rat!(1 / 2)).unwrap();
        assert!(!game.is_safe_at(c, &rule).unwrap());
        let (strategy, witness) = game.losing_strategy_at(c, &rule).unwrap().unwrap();
        // The witness is the tails point, where Pr^j(heads) = 0 < 1/2.
        assert_eq!(witness, pt(1, 1));
        // The constructed strategy indeed loses money for the bettor.
        let cell = game.opp_assignment().space(AgentId(0), witness).unwrap();
        let e = inner_expected_winnings(&cell, &sys, AgentId(1), &rule, &strategy).unwrap();
        assert_eq!(e, -Rat::ONE);

        // Against the same opponent, only a sure thing is safe: φ = true.
        let all: PointSet = sys.full_points();
        let sure = BetRule::new(all, Rat::ONE).unwrap();
        assert!(game.is_safe_at(c, &sure).unwrap());
        assert!(game.losing_strategy_at(c, &sure).unwrap().is_none());
    }

    #[test]
    fn safety_against_uninformed_opponent() {
        // Now p_i bets against a copy of itself (p_k sees nothing either).
        let sys = ProtocolBuilder::new(["i", "j", "k"])
            .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["j"])
            .build()
            .unwrap();
        let game = BettingGame::new(&sys, AgentId(0), AgentId(2));
        let heads = sys.points_satisfying(sys.prop_id("c=h").unwrap());
        // α = 1/2 against an equally ignorant opponent: safe.
        let rule = BetRule::new(heads.clone(), rat!(1 / 2)).unwrap();
        assert!(game.is_safe_at(pt(0, 1), &rule).unwrap());
        // α = 2/3: not safe (the probability is only 1/2).
        let rule = BetRule::new(heads, rat!(2 / 3)).unwrap();
        assert!(!game.is_safe_at(pt(0, 1), &rule).unwrap());
    }

    #[test]
    fn theorem7_biconditional() {
        let sys = secret_coin();
        let heads = sys.points_satisfying(sys.prop_id("c=h").unwrap());
        for (i, j) in [(0, 1), (1, 0), (0, 0), (1, 1)] {
            let game = BettingGame::new(&sys, AgentId(i), AgentId(j));
            for alpha in [rat!(1 / 4), rat!(1 / 2), rat!(2 / 3), Rat::ONE] {
                let rule = BetRule::new(heads.clone(), alpha).unwrap();
                assert!(
                    game.theorem7_holds(&rule).unwrap(),
                    "Theorem 7 fails for i={i}, j={j}, α={alpha}"
                );
            }
        }
    }

    #[test]
    fn proposition6_in_synchronous_systems() {
        let sys = ProtocolBuilder::new(["i", "j"])
            .coin("a", &[("h", rat!(1 / 3)), ("t", rat!(2 / 3))], &["j"])
            .coin("b", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["i"])
            .build()
            .unwrap();
        assert!(sys.is_synchronous());
        let phi = sys.points_satisfying(sys.prop_id("a=h").unwrap());
        for alpha in [rat!(1 / 4), rat!(1 / 3), rat!(1 / 2)] {
            let rule = BetRule::new(phi.clone(), alpha).unwrap();
            let game = BettingGame::new(&sys, AgentId(0), AgentId(1));
            assert!(game.proposition6_holds(&rule).unwrap(), "α={alpha}");
        }
    }

    #[test]
    fn fair_threshold_is_the_safety_boundary() {
        // Three agents: j sees the first coin, the bettor sees nothing.
        let sys = ProtocolBuilder::new(["i", "j"])
            .coin("a", &[("h", rat!(2 / 3)), ("t", rat!(1 / 3))], &["j"])
            .coin("b", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &[])
            .build()
            .unwrap();
        let game = BettingGame::new(&sys, AgentId(0), AgentId(1));
        // φ = "b=h": independent of what j saw, so the fair threshold
        // against j is 1/2 at every point before b is tossed.
        let phi = sys.points_satisfying(sys.prop_id("b=h").unwrap());
        let c = pt(0, 1);
        let fair = game.fair_threshold(c, &phi).unwrap();
        // φ is false at time-1 points (b not yet tossed and b=h is a
        // sticky prop of time 2), so the fair threshold here is 0…
        assert_eq!(fair, Rat::ZERO);
        // …whereas betting on "b will come up heads" (the run fact) at
        // time 1 is fair at exactly 1/2.
        let phi_run: PointSet = sys.point_set(sys.points().filter(|p| {
            let end = PointId {
                tree: p.tree,
                run: p.run,
                time: sys.horizon(),
            };
            phi.contains(end)
        }));
        let fair = game.fair_threshold(c, &phi_run).unwrap();
        assert_eq!(fair, rat!(1 / 2));
        // Theorem 7 at the boundary: safe at the threshold, unsafe above.
        let at = BetRule::new(phi_run.clone(), fair).unwrap();
        assert!(game.is_safe_at(c, &at).unwrap());
        let above = BetRule::new(phi_run, fair + rat!(1 / 100)).unwrap();
        assert!(!game.is_safe_at(c, &above).unwrap());
    }

    #[test]
    fn accessors() {
        let sys = secret_coin();
        let game = BettingGame::new(&sys, AgentId(0), AgentId(1));
        assert_eq!(game.bettor(), AgentId(0));
        assert_eq!(game.opponent(), AgentId(1));
        assert_eq!(game.system().agent_count(), 2);
        let rule = BetRule::new(PointSet::default(), rat!(1 / 2)).unwrap();
        // Two opponent locals at time 1 + one at time 0 + constant = 4.
        assert_eq!(game.adversarial_family(&rule).len(), 4);
    }

    #[test]
    fn safe_points_and_k_alpha_points_shapes() {
        let sys = secret_coin();
        let game = BettingGame::new(&sys, AgentId(0), AgentId(1));
        let heads = sys.points_satisfying(sys.prop_id("c=h").unwrap());
        // Betting on "heads happened or will happen on this run" with
        // α = 1/2: safe at time 0 (opponent hasn't seen the coin yet),
        // unsafe at time 1.
        let heads_run: PointSet = sys.point_set(sys.points().filter(|p| p.run == 0));
        let rule = BetRule::new(heads_run, rat!(1 / 2)).unwrap();
        let safe = game.safe_points(&rule).unwrap();
        assert!(safe.contains(pt(0, 0)));
        assert!(safe.contains(pt(1, 0)));
        assert!(!safe.contains(pt(0, 1)));
        assert_eq!(safe, game.k_alpha_points(&rule).unwrap());
        drop(heads);
    }
}
