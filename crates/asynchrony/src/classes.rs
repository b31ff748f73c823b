//! Classes of type-3 adversaries and their probability bounds.
//!
//! Section 7 of the paper considers several spaces of cuts an adversary
//! may choose from:
//!
//! * [`CutClass::AllPoints`] — completely arbitrary cuts (the class
//!   `pts`; Proposition 10 shows quantifying over it recovers exactly
//!   the inner/outer measures of `P^post`);
//! * [`CutClass::StateCuts`] — cuts through *global states* (antichains
//!   of nodes), the Fischer–Zuck restriction (`state`), which can give
//!   different — and arguably less reasonable — answers;
//! * [`CutClass::Horizontal`] — one time slice for the whole region
//!   (what a clock-bearing opponent forces; recovers synchrony);
//! * [`CutClass::Window`] — partial synchrony: all chosen times fall in
//!   some window of a given width `ε`;
//! * [`CutClass::Partial`] — the generalized adversary mentioned at the
//!   end of Section 7, which may skip runs entirely.
//!
//! For every class, [`CutClass::bounds`] computes the infimum and
//! supremum of the cut-conditioned probability of a fact. The bounds
//! use the extremal constructions from the proof of Proposition 10
//! (per-run greedy choices, computed from the runs and their weights,
//! not from a probability space), and [`CutClass::enumerate_cuts`]
//! provides exact enumeration for cross-checking on small regions.

use crate::cut::Cut;
use crate::error::AsyncError;
use kpa_logic::PointSet;
use kpa_measure::Rat;
use kpa_system::{NodeId, PointId, RunId, System};
use std::collections::{BTreeMap, BTreeSet};

/// A class of type-3 adversaries (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CutClass {
    /// Arbitrary cuts: one freely chosen point per run (`pts`).
    AllPoints,
    /// Cuts through global states: antichains of nodes (`state`).
    /// Enumeration is exponential in the number of distinct global
    /// states in the region; `limit` bounds it.
    StateCuts {
        /// Maximum number of distinct global states to enumerate over.
        limit: usize,
    },
    /// Horizontal cuts: a single time for the whole region.
    Horizontal,
    /// Partial synchrony: all chosen times lie in a window of width
    /// `width` (0 = [`CutClass::Horizontal`]).
    Window(usize),
    /// The generalized adversary that may skip runs (at-most-one point
    /// per run, nonempty).
    Partial,
}

/// Groups region points by run, in run order (the dense bitset iterates
/// in ascending point order, so each per-run list is time-sorted).
fn by_run(region: &PointSet) -> BTreeMap<RunId, Vec<PointId>> {
    let mut map: BTreeMap<RunId, Vec<PointId>> = BTreeMap::new();
    for p in region {
        map.entry(p.run_id()).or_default().push(p);
    }
    map
}

fn total_weight(sys: &System, runs: &BTreeMap<RunId, Vec<PointId>>) -> Rat {
    runs.keys().map(|&r| sys.run_prob(r)).sum()
}

impl CutClass {
    /// The default state-cut class with a 20-state enumeration limit.
    #[must_use]
    pub fn state() -> CutClass {
        CutClass::StateCuts { limit: 20 }
    }

    /// The `(inf, sup)` of the probability of `phi` over all cuts of
    /// `region` in this class.
    ///
    /// `region` is the sample the type-2 opponent leaves the agent —
    /// typically `Tree^j_ic` — and must lie within one computation tree.
    ///
    /// # Errors
    ///
    /// [`AsyncError::EmptyCut`] for an empty region,
    /// [`AsyncError::NoValidCut`] if the class admits no cut of the
    /// region (e.g. no single time slices it), and
    /// [`AsyncError::TooLarge`] if a required enumeration exceeds its
    /// limit.
    ///
    /// # Panics
    ///
    /// Panics if `region` spans more than one computation tree (callers
    /// obtain regions from REQ1-satisfying assignments).
    pub fn bounds(
        &self,
        sys: &System,
        region: &PointSet,
        phi: &PointSet,
    ) -> Result<(Rat, Rat), AsyncError> {
        kpa_trace::count!("async.cut_bounds");
        let Some(first) = region.first() else {
            return Err(AsyncError::EmptyCut);
        };
        assert!(
            region.is_subset(sys.tree_set(first.tree)),
            "cut region must lie within one computation tree"
        );
        let runs = by_run(region);
        let total = total_weight(sys, &runs);
        match self {
            CutClass::AllPoints => {
                // The Proposition 10 construction: on each run the
                // adversary stops at a point where φ fails (for the
                // infimum) or holds (for the supremum) if the run has
                // one, so a run counts toward the infimum iff *all* its
                // region points satisfy φ and toward the supremum iff
                // *any* does.
                let (mut lo, mut hi) = (Rat::ZERO, Rat::ZERO);
                for (&r, pts) in &runs {
                    let w = sys.run_prob(r);
                    if pts.iter().all(|&p| phi.contains(p)) {
                        lo += w;
                    }
                    if pts.iter().any(|&p| phi.contains(p)) {
                        hi += w;
                    }
                }
                Ok((lo / total, hi / total))
            }
            CutClass::Horizontal => CutClass::Window(0).bounds(sys, region, phi),
            CutClass::Window(width) => {
                let horizon = sys.horizon();
                // Each window start is a candidate cut family; fold
                // the (exact) min/max envelope over the starts.
                let window_at = |start: usize| -> Option<(Rat, Rat)> {
                    let end = start.saturating_add(*width).min(horizon);
                    // The window admits a full cut iff every run has an
                    // in-window region point.
                    let mut lo = Rat::ZERO;
                    let mut hi = Rat::ZERO;
                    for (&r, pts) in &runs {
                        let in_window: Vec<PointId> = pts
                            .iter()
                            .copied()
                            .filter(|p| p.time >= start && p.time <= end)
                            .collect();
                        if in_window.is_empty() {
                            return None;
                        }
                        let w = sys.run_prob(r);
                        if in_window.iter().all(|p| phi.contains(p)) {
                            lo += w;
                        }
                        if in_window.iter().any(|p| phi.contains(p)) {
                            hi += w;
                        }
                    }
                    Some((lo / total, hi / total))
                };
                let mut best: Option<(Rat, Rat)> = None;
                for (lo, hi) in (0..=horizon).filter_map(window_at) {
                    best = Some(match best {
                        None => (lo, hi),
                        Some((l, h)) => (l.min(lo), h.max(hi)),
                    });
                }
                best.ok_or(AsyncError::NoValidCut)
            }
            CutClass::Partial => {
                // The adversary may restrict to any single run and point.
                let any_false = region.iter().any(|p| !phi.contains(p));
                let any_true = region.iter().any(|p| phi.contains(p));
                Ok((
                    if any_false { Rat::ZERO } else { Rat::ONE },
                    if any_true { Rat::ONE } else { Rat::ZERO },
                ))
            }
            CutClass::StateCuts { limit } => {
                let mut lo: Option<Rat> = None;
                let mut hi: Option<Rat> = None;
                for cut in self.state_cuts(sys, region, *limit)? {
                    let p = cut.prob(sys, phi)?;
                    lo = Some(lo.map_or(p, |l| l.min(p)));
                    hi = Some(hi.map_or(p, |h| h.max(p)));
                }
                match (lo, hi) {
                    (Some(l), Some(h)) => Ok((l, h)),
                    _ => Err(AsyncError::NoValidCut),
                }
            }
        }
    }

    /// Exact enumeration of the cuts in this class over `region`, for
    /// cross-checking the closed-form bounds on small regions.
    ///
    /// # Errors
    ///
    /// [`AsyncError::TooLarge`] when the enumeration would exceed
    /// `limit` cuts (or, for state cuts, `limit` states);
    /// [`AsyncError::EmptyCut`] / [`AsyncError::NoValidCut`] as for
    /// [`CutClass::bounds`].
    ///
    /// # Panics
    ///
    /// As for [`CutClass::bounds`].
    pub fn enumerate_cuts(
        &self,
        sys: &System,
        region: &PointSet,
        limit: usize,
    ) -> Result<Vec<Cut>, AsyncError> {
        let Some(first) = region.first() else {
            return Err(AsyncError::EmptyCut);
        };
        assert!(
            region.is_subset(sys.tree_set(first.tree)),
            "cut region must lie within one computation tree"
        );
        let runs = by_run(region);
        match self {
            CutClass::AllPoints => {
                let mut cuts: Vec<Vec<PointId>> = vec![Vec::new()];
                for pts in runs.values() {
                    let mut next = Vec::new();
                    for partial in &cuts {
                        for &p in pts {
                            let mut c = partial.clone();
                            c.push(p);
                            next.push(c);
                        }
                    }
                    if next.len() > limit {
                        return Err(AsyncError::TooLarge {
                            nodes: next.len(),
                            limit,
                        });
                    }
                    cuts = next;
                }
                cuts.into_iter().map(Cut::new).collect()
            }
            CutClass::Horizontal => CutClass::Window(0).enumerate_cuts(sys, region, limit),
            CutClass::Window(width) => {
                let horizon = sys.horizon();
                let mut out = Vec::new();
                let mut seen = BTreeSet::new();
                for start in 0..=horizon {
                    let end = start.saturating_add(*width).min(horizon);
                    let mut windowed = region.clone();
                    windowed.retain(|p| p.time >= start && p.time <= end);
                    let covered: BTreeSet<RunId> = windowed.iter().map(|p| p.run_id()).collect();
                    if covered.len() != runs.len() {
                        continue;
                    }
                    for cut in CutClass::AllPoints.enumerate_cuts(sys, &windowed, limit)? {
                        let key: Vec<PointId> = cut.points().collect();
                        if seen.insert(key) {
                            out.push(cut);
                        }
                    }
                    if out.len() > limit {
                        return Err(AsyncError::TooLarge {
                            nodes: out.len(),
                            limit,
                        });
                    }
                }
                if out.is_empty() {
                    return Err(AsyncError::NoValidCut);
                }
                Ok(out)
            }
            CutClass::Partial => {
                // All nonempty sub-cuts of all full cuts: enumerate
                // per-run options of "skip or pick one point".
                let mut cuts: Vec<Vec<PointId>> = vec![Vec::new()];
                for pts in runs.values() {
                    let mut next = Vec::new();
                    for partial in &cuts {
                        next.push(partial.clone()); // skip this run
                        for &p in pts {
                            let mut c = partial.clone();
                            c.push(p);
                            next.push(c);
                        }
                    }
                    if next.len() > limit {
                        return Err(AsyncError::TooLarge {
                            nodes: next.len(),
                            limit,
                        });
                    }
                    cuts = next;
                }
                cuts.into_iter()
                    .filter(|c| !c.is_empty())
                    .map(Cut::new)
                    .collect()
            }
            CutClass::StateCuts { .. } => self.state_cuts(sys, region, limit),
        }
    }

    /// Enumerates the state cuts (antichain-induced cuts) of a region.
    fn state_cuts(
        &self,
        sys: &System,
        region: &PointSet,
        limit: usize,
    ) -> Result<Vec<Cut>, AsyncError> {
        // Distinct global states (nodes) of the region, with their points.
        let mut node_points: BTreeMap<NodeId, Vec<PointId>> = BTreeMap::new();
        for p in region {
            node_points.entry(sys.node_id_of(p)).or_default().push(p);
        }
        let nodes: Vec<NodeId> = node_points.keys().copied().collect();
        if nodes.len() > limit {
            return Err(AsyncError::TooLarge {
                nodes: nodes.len(),
                limit,
            });
        }
        // Ancestor sets within the tree.
        let tree = sys.tree(region.first().expect("nonempty region").tree);
        let ancestors = |mut n: NodeId| -> BTreeSet<NodeId> {
            let mut out = BTreeSet::new();
            while let Some(parent) = tree.node(n).parent() {
                out.insert(parent);
                n = parent;
            }
            out
        };
        let anc: BTreeMap<NodeId, BTreeSet<NodeId>> =
            nodes.iter().map(|&n| (n, ancestors(n))).collect();
        let comparable =
            |a: NodeId, b: NodeId| a == b || anc[&a].contains(&b) || anc[&b].contains(&a);

        // Enumerate nonempty antichains by include/exclude DFS.
        let mut out = Vec::new();
        let mut chosen: Vec<NodeId> = Vec::new();
        fn dfs(
            idx: usize,
            nodes: &[NodeId],
            chosen: &mut Vec<NodeId>,
            comparable: &impl Fn(NodeId, NodeId) -> bool,
            node_points: &BTreeMap<NodeId, Vec<PointId>>,
            out: &mut Vec<Cut>,
        ) {
            if idx == nodes.len() {
                if !chosen.is_empty() {
                    let pts: Vec<PointId> = chosen
                        .iter()
                        .flat_map(|n| node_points[n].iter().copied())
                        .collect();
                    out.push(Cut::new(pts).expect("antichain nodes are run-disjoint"));
                }
                return;
            }
            // Exclude nodes[idx].
            dfs(idx + 1, nodes, chosen, comparable, node_points, out);
            // Include it if compatible.
            if chosen.iter().all(|&c| !comparable(c, nodes[idx])) {
                chosen.push(nodes[idx]);
                dfs(idx + 1, nodes, chosen, comparable, node_points, out);
                chosen.pop();
            }
        }
        dfs(0, &nodes, &mut chosen, &comparable, &node_points, &mut out);
        if out.is_empty() {
            return Err(AsyncError::NoValidCut);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpa_assign::Assignment;
    use kpa_measure::rat;
    use kpa_system::{AgentId, ProtocolBuilder, TreeId};

    fn pt(run: usize, time: usize) -> PointId {
        PointId {
            tree: TreeId(0),
            run,
            time,
        }
    }

    /// Clockless p1, two fair tosses; "most recent toss landed heads".
    fn two_toss() -> (kpa_system::System, PointSet, PointSet) {
        let sys = ProtocolBuilder::new(["p1", "p2"])
            .clockless("p1")
            .step("c1", |_| {
                ["h", "t"]
                    .map(|o| {
                        kpa_system::Branch::new(rat!(1 / 2))
                            .observe("p1", "go")
                            .prop(&format!("c1={o}"))
                            .transient_prop(&format!("recent:c1={o}"))
                    })
                    .to_vec()
            })
            .coin("c2", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &[])
            .build()
            .unwrap();
        let region = Assignment::post().sample(&sys, AgentId(0), pt(0, 1));
        let mut phi = sys.points_satisfying(sys.prop_id("recent:c1=h").unwrap());
        phi.extend(sys.points_satisfying(sys.prop_id("recent:c2=h").unwrap()));
        (sys, region, phi)
    }

    #[test]
    fn all_points_bounds_match_inner_outer() {
        let (sys, region, phi) = two_toss();
        assert_eq!(region.len(), 8);
        let (lo, hi) = CutClass::AllPoints.bounds(&sys, &region, &phi).unwrap();
        assert_eq!((lo, hi), (rat!(1 / 4), rat!(3 / 4)));
    }

    #[test]
    fn all_points_bounds_match_enumeration() {
        let (sys, region, phi) = two_toss();
        let cuts = CutClass::AllPoints
            .enumerate_cuts(&sys, &region, 1 << 12)
            .unwrap();
        assert_eq!(cuts.len(), 16); // 2 choices per run, 4 runs
        let probs: Vec<Rat> = cuts.iter().map(|c| c.prob(&sys, &phi).unwrap()).collect();
        let lo = probs.iter().copied().fold(Rat::ONE, Rat::min);
        let hi = probs.iter().copied().fold(Rat::ZERO, Rat::max);
        assert_eq!(
            (lo, hi),
            CutClass::AllPoints.bounds(&sys, &region, &phi).unwrap()
        );
    }

    #[test]
    fn horizontal_cuts_recover_one_half() {
        let (sys, region, phi) = two_toss();
        let (lo, hi) = CutClass::Horizontal.bounds(&sys, &region, &phi).unwrap();
        // At each fixed time the most recent toss is fair.
        assert_eq!((lo, hi), (rat!(1 / 2), rat!(1 / 2)));
        let cuts = CutClass::Horizontal
            .enumerate_cuts(&sys, &region, 100)
            .unwrap();
        assert_eq!(cuts.len(), 2); // times 1 and 2
    }

    #[test]
    fn window_interpolates_between_horizontal_and_all_points() {
        let (sys, region, phi) = two_toss();
        let h = CutClass::Horizontal.bounds(&sys, &region, &phi).unwrap();
        let w1 = CutClass::Window(1).bounds(&sys, &region, &phi).unwrap();
        let all = CutClass::AllPoints.bounds(&sys, &region, &phi).unwrap();
        assert!(w1.0 <= h.0 && h.1 <= w1.1, "wider window, wider bounds");
        assert!(all.0 <= w1.0 && w1.1 <= all.1);
        // Window(horizon) admits every cut: equals AllPoints here.
        let wmax = CutClass::Window(2).bounds(&sys, &region, &phi).unwrap();
        assert_eq!(wmax, all);
    }

    #[test]
    fn partial_adversary_is_strictly_worse() {
        let (sys, region, phi) = two_toss();
        let (lo, hi) = CutClass::Partial.bounds(&sys, &region, &phi).unwrap();
        assert_eq!((lo, hi), (Rat::ZERO, Rat::ONE));
        // Enumeration on a trimmed region confirms the extremes.
        let mut small = region.clone();
        small.retain(|p| p.run < 2);
        let cuts = CutClass::Partial
            .enumerate_cuts(&sys, &small, 1 << 10)
            .unwrap();
        let probs: Vec<Rat> = cuts.iter().map(|c| c.prob(&sys, &phi).unwrap()).collect();
        assert!(probs.contains(&Rat::ZERO));
        assert!(probs.contains(&Rat::ONE));
    }

    #[test]
    fn state_cuts_on_the_biased_example() {
        // The end-of-Section-7 example: a 0.99-biased coin, two runs.
        // p2 distinguishes only (h,1); φ = "the coin lands heads".
        let sys = ProtocolBuilder::new(["p1", "p2"])
            .clockless("p1")
            .clockless("p2")
            .step("coin", |_| {
                vec![
                    kpa_system::Branch::new(rat!(99 / 100))
                        .observe("p2", "saw-h")
                        .prop("heads"),
                    kpa_system::Branch::new(rat!(1 / 100)),
                ]
            })
            .build()
            .unwrap();
        // φ is a fact about the run here: true at both points of run h.
        let mut phi = sys.points_satisfying(sys.prop_id("heads").unwrap());
        phi.insert(pt(0, 0)); // time-0 point of the heads run
                              // p2's knowledge at (t,0): everything except (h,1).
        let region = Assignment::post().sample(&sys, AgentId(1), pt(1, 0));
        assert_eq!(region.len(), 3);

        // pts-cuts: both cuts give probability .99 (Prop 10 flavor).
        let (lo, hi) = CutClass::AllPoints.bounds(&sys, &region, &phi).unwrap();
        assert_eq!((lo, hi), (rat!(99 / 100), rat!(99 / 100)));

        // state-cuts: choosing the T node yields probability 0.
        let (lo, hi) = CutClass::state().bounds(&sys, &region, &phi).unwrap();
        assert_eq!((lo, hi), (Rat::ZERO, rat!(99 / 100)));
    }

    #[test]
    fn error_paths() {
        let (sys, region, phi) = two_toss();
        assert!(matches!(
            CutClass::AllPoints.bounds(&sys, &sys.empty_points(), &phi),
            Err(AsyncError::EmptyCut)
        ));
        assert!(matches!(
            CutClass::AllPoints.enumerate_cuts(&sys, &region, 2),
            Err(AsyncError::TooLarge { .. })
        ));
        assert!(matches!(
            CutClass::StateCuts { limit: 3 }.bounds(&sys, &region, &phi),
            Err(AsyncError::TooLarge { .. })
        ));
        // A region with a gap no single time crosses.
        let gappy = sys.point_set([pt(0, 1), pt(1, 2)]);
        assert!(matches!(
            CutClass::Horizontal.bounds(&sys, &gappy, &phi),
            Err(AsyncError::NoValidCut)
        ));
    }
}
