//! Batched per-class sample plans.
//!
//! A [`SamplePlan`] groups the points of the system, for one
//! `(agent, assignment)` pair, into **classes** of points sharing one
//! induced, cache-canonicalized probability space (where the assignment
//! is well defined). The point of the plan is to move the *sample
//! extraction* — the word-wise bitset intersections of
//! [`Assignment::sample`](crate::Assignment::sample) plus the cache-key
//! hash of the resulting sample — off the hot path of the sweeps, and to
//! let them treat a class as one unit: one decision per space, then one
//! word-wise union of the class's points into every set it belongs to.
//! [`AssignCore::sweep_spaces`](crate::AssignCore::sweep_spaces) is the
//! one walk over a plan; nothing maps a single point to its class.
//!
//! # Layout
//!
//! * the **class list**: each class's space, in first-point order;
//! * the **class words**: every class's points as one group of a
//!   [`WordGroups`] — dense words over the class's word range, or
//!   `(word, bits)` pairs, whichever is smaller — class after class;
//! * the **unplanned points**, ascending: empty for every canonical
//!   plan.
//!
//! # Why batching whole classes is exact
//!
//! For the four canonical assignments of Section 6 (`post`, `fut`,
//! `prior`, `opp(j)`), the sample `S_ic` *is* an equivalence class of
//! the point set, and the assignment is **uniform**: `d ∈ S_ic` implies
//! `S_id = S_ic`. Concretely:
//!
//! * `post`: `S_ic = K_i(c) ∩ T(c)` — the points of `c`'s tree sharing
//!   `c`'s local state. Any `d` in it has the same local state and
//!   tree, so `S_id = S_ic`.
//! * `fut`: `S_ic` is `c`'s global-state class; same argument.
//! * `prior`: `S_ic` is the `(tree, time)` slice through `c`; any `d`
//!   in it shares `c`'s tree and time.
//! * `opp(j)`: `S_ic = K_i(c) ∩ K_j(c) ∩ T(c)`; any `d` in it shares
//!   both agents' local states and the tree.
//!
//! Hence **one** `sample()` call per class representative determines the
//! space of *every* point of the class, the class's points are exactly
//! the sample's, and the classes partition the points, so a single
//! ascending pass that skips already-planned points performs exactly
//! one extraction and one space construction (cache hit or build) per
//! class, filing the sample's points into the class word by word (the
//! builder's per-point slots). A final pass over the slots gathers every
//! class's words, and each class is encoded once, in arrays allocated at
//! their exact size; the slots are dropped. Points where the assignment
//! violates REQ1/REQ2 are left unplanned, so the sweep's per-point path
//! reproduces the exact per-point errors of the unplanned code.
//!
//! [`Assignment::Custom`](crate::Assignment::Custom) closures carry no
//! uniformity guarantee, so their plans are built per point (still
//! canonicalized through the shared space cache — repeated samples
//! share one `Arc` and hence one class, whose points need not be its
//! sample's) and report `is_batched() == false`.
//!
//! The spaces in the plan are the *same `Arc`s* the per-point
//! [`ProbAssignment::space`](crate::ProbAssignment::space) cache hands
//! out (the plan builder goes through that cache), so a verdict decided
//! on a class's space is the verdict of each of its points' naive
//! spaces. `tests/plan_differential.rs` pins this with `Arc::ptr_eq`.

use crate::dense::DensePointSpace;
use kpa_measure::{GroupWords, WordGroups};
use kpa_system::{AgentId, PointId, PointIndex};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The builder's slot of a point it has not planned (yet).
const UNPLANNED: u32 = u32::MAX;

/// One agent's sample spaces under one sample-space assignment, as
/// classes of points sharing a space. Built by
/// [`ProbAssignment::sample_plan`](crate::ProbAssignment::sample_plan);
/// immutable (and hence freely shareable across query threads) once
/// built.
pub struct SamplePlan {
    agent: AgentId,
    index: Arc<PointIndex>,
    /// Per class, in first-point order: its space.
    spaces: Vec<Arc<DensePointSpace>>,
    /// Group `k` holds class `k`'s points.
    words: WordGroups,
    /// The points no class holds, ascending.
    unplanned: Vec<PointId>,
    extractions: usize,
    batched: bool,
}

impl SamplePlan {
    /// Class `k` (of [`classes`](SamplePlan::classes), in first-point
    /// order): its space, and its points as dense words or `(word, bits)`
    /// pairs — bit `b` of word `w` is the point with dense index
    /// `64 · w + b`. The classes are pairwise disjoint, together hold
    /// exactly the planned points, and class `k`'s space is the cached
    /// space at each of its points.
    ///
    /// # Panics
    ///
    /// Panics if `k >= classes()`.
    #[must_use]
    pub fn class(&self, k: usize) -> (&Arc<DensePointSpace>, GroupWords<'_>) {
        (&self.spaces[k], self.words.group(k))
    }

    /// The points the plan leaves unplanned, in ascending order.
    pub fn unplanned(&self) -> impl Iterator<Item = PointId> + '_ {
        self.unplanned.iter().copied()
    }

    /// The agent the plan was built for.
    #[must_use]
    pub fn agent(&self) -> AgentId {
        self.agent
    }

    /// The point universe the class words are laid out over.
    #[must_use]
    pub fn universe(&self) -> &Arc<PointIndex> {
        &self.index
    }

    /// Number of `sample()` extractions the build performed. For a
    /// batched (canonical) plan with no REQ violations this equals
    /// [`classes`](SamplePlan::classes) — one extraction per class —
    /// and is strictly less than the point count whenever any class
    /// has more than one point.
    #[must_use]
    pub fn extractions(&self) -> usize {
        self.extractions
    }

    /// Number of classes (distinct spaces).
    #[must_use]
    pub fn classes(&self) -> usize {
        self.spaces.len()
    }

    /// Number of planned points.
    #[must_use]
    pub fn covered(&self) -> usize {
        self.point_count() - self.unplanned.len()
    }

    /// Total number of points in the plan's universe.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.index.total()
    }

    /// Whether the build used the batched class-fill path (canonical
    /// assignments) rather than the per-point path (custom closures).
    #[must_use]
    pub fn is_batched(&self) -> bool {
        self.batched
    }

    /// Heap bytes of the class list, the class words and the unplanned
    /// points (the spaces themselves belong to the space cache and are
    /// counted there).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.spaces.capacity() * size_of::<Arc<DensePointSpace>>()
            + self.words.heap_bytes()
            + self.unplanned.capacity() * size_of::<PointId>()
    }
}

impl fmt::Debug for SamplePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SamplePlan")
            .field("agent", &self.agent)
            .field("points", &self.point_count())
            .field("covered", &self.covered())
            .field("classes", &self.spaces.len())
            .field("stored_words", &self.words.stored_words())
            .field("extractions", &self.extractions)
            .field("batched", &self.batched)
            .finish()
    }
}

/// A plan under construction: the assignment core walks the points in
/// ascending order and files each newly planned point into its space's
/// class, in one `u32` slot per point (the class, or `UNPLANNED`);
/// [`PlanBuilder::finish`] then encodes each class's words and lists the
/// unplanned points.
pub(crate) struct PlanBuilder {
    slots: Vec<u32>,
    spaces: Vec<Arc<DensePointSpace>>,
    by_space: HashMap<*const DensePointSpace, u32>,
}

impl PlanBuilder {
    /// An empty plan over `points` points, all unplanned.
    pub(crate) fn new(points: usize) -> PlanBuilder {
        PlanBuilder {
            slots: vec![UNPLANNED; points],
            spaces: Vec::new(),
            by_space: HashMap::new(),
        }
    }

    /// Whether the point with dense index `i` is planned.
    pub(crate) fn is_planned(&self, i: usize) -> bool {
        self.slots[i] != UNPLANNED
    }

    /// Files every not-yet-planned point of the sample of `space` under
    /// it (the batched fill: under uniformity the sample is the class).
    pub(crate) fn fill_sample(&mut self, space: Arc<DensePointSpace>) {
        let class = self.class_of(Arc::clone(&space));
        let sample = space.sample();
        let (lo, hi) = sample.footprint();
        for (k, &word) in sample.as_words()[lo..hi].iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let slot = &mut self.slots[(lo + k) * 64 + rest.trailing_zeros() as usize];
                rest &= rest - 1;
                if *slot == UNPLANNED {
                    *slot = class;
                }
            }
        }
    }

    /// Files the single point with dense index `i` under `space` (the
    /// per-point fill of custom assignments).
    pub(crate) fn fill_point(&mut self, space: Arc<DensePointSpace>, i: usize) {
        self.slots[i] = self.class_of(space);
    }

    /// The class of `space`, opened (last, hence in first-point order)
    /// on first sight.
    fn class_of(&mut self, space: Arc<DensePointSpace>) -> u32 {
        let key = Arc::as_ptr(&space);
        if let Some(&class) = self.by_space.get(&key) {
            return class;
        }
        let class = u32::try_from(self.spaces.len())
            .ok()
            .filter(|&k| k != UNPLANNED)
            .expect("class ids fit a u32 slot below the sentinel");
        self.by_space.insert(key, class);
        self.spaces.push(space);
        class
    }

    /// Encodes the classes' words from the slots: one pass counts each
    /// class's occupied words, a second writes them as `(word, bits)`
    /// pairs into one scratch arena, and [`WordGroups::from_groups`]
    /// encodes each class from its pairs. No per-class buffer, not the
    /// scratch arena and not the slots outlive the build.
    pub(crate) fn finish(
        mut self,
        agent: AgentId,
        index: Arc<PointIndex>,
        extractions: usize,
        batched: bool,
    ) -> SamplePlan {
        let classes = self.spaces.len();
        // Pass 1: each class's pair count (one per word it touches),
        // summed into offsets.
        let mut offsets = vec![0usize; classes + 1];
        let mut last_word = vec![usize::MAX; classes];
        for (k, word) in self.slots.chunks(64).enumerate() {
            for &slot in word.iter().filter(|&&slot| slot != UNPLANNED) {
                let class = slot as usize;
                if last_word[class] != k {
                    last_word[class] = k;
                    offsets[class + 1] += 1;
                }
            }
        }
        for k in 0..classes {
            offsets[k + 1] += offsets[k];
        }
        // Pass 2: the pairs, each class's in ascending word order.
        let mut next = offsets[..classes].to_vec();
        let mut pairs = vec![(0u32, 0u64); offsets[classes]];
        last_word.fill(usize::MAX);
        for (k, word) in self.slots.chunks(64).enumerate() {
            for (b, &slot) in word.iter().enumerate() {
                if slot == UNPLANNED {
                    continue;
                }
                let class = slot as usize;
                if last_word[class] != k {
                    last_word[class] = k;
                    let word = u32::try_from(k).expect("plan words fit u32");
                    pairs[next[class]] = (word, 0);
                    next[class] += 1;
                }
                pairs[next[class] - 1].1 |= 1 << b;
            }
        }
        let words = WordGroups::from_groups(offsets.windows(2).map(|w| &pairs[w[0]..w[1]]));
        let unplanned = self
            .slots
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot == UNPLANNED)
            .map(|(i, _)| index.point_at(i))
            .collect();
        self.spaces.shrink_to_fit();
        SamplePlan {
            agent,
            index,
            spaces: self.spaces,
            words,
            unplanned,
            extractions,
            batched,
        }
    }
}
