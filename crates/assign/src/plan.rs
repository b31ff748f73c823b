//! Batched per-class sample plans.
//!
//! A [`SamplePlan`] is a precomputed `point → Arc<DensePointSpace>`
//! table for one `(agent, assignment)` pair: every point of the system
//! is mapped (where the assignment is well defined) to its induced,
//! cache-canonicalized probability space. The point of the plan is to
//! move the *sample extraction* — the word-wise bitset intersections of
//! [`Assignment::sample`](crate::Assignment::sample) plus the cache-key
//! hash of the resulting sample — off the per-point hot path of
//! `pr_ge`-style sweeps, where PR 3's measurements showed it dominates
//! the per-class `Pr` memo.
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
//! space of *every* point of the class, and the classes partition the
//! points, so a single ascending pass that skips already-filled entries
//! performs exactly one extraction and one space construction (cache
//! hit or build) per class. Points where the assignment violates
//! REQ1/REQ2 are left unplanned (`None`), so fallback paths reproduce
//! the exact per-point errors of the unplanned code.
//!
//! [`Assignment::Custom`](crate::Assignment::Custom) closures carry no
//! uniformity guarantee, so their plans are built per point (still
//! canonicalized through the shared space cache — repeated samples
//! share one `Arc`) and report `is_batched() == false`.
//!
//! The spaces in the table are the *same `Arc`s* the per-point
//! [`ProbAssignment::space`](crate::ProbAssignment::space) cache hands
//! out (the plan builder goes through that cache), so pointer-keyed
//! memos — in particular the `Pr` memo of `kpa-logic`'s `Model` — see
//! identical keys whether a space arrived via the plan or via the naive
//! path. `tests/plan_differential.rs` pins this with `Arc::ptr_eq`.

use crate::dense::DensePointSpace;
use kpa_system::{AgentId, PointId, PointIndex};
use std::fmt;
use std::sync::Arc;

/// A precomputed `point → Arc<DensePointSpace>` table for one agent
/// under one sample-space assignment. Built by
/// [`ProbAssignment::sample_plan`](crate::ProbAssignment::sample_plan);
/// immutable (and hence freely shareable across `kpa-pool` workers)
/// once built.
pub struct SamplePlan {
    agent: AgentId,
    index: Arc<PointIndex>,
    table: Vec<Option<Arc<DensePointSpace>>>,
    extractions: usize,
    classes: usize,
    covered: usize,
    batched: bool,
}

impl SamplePlan {
    pub(crate) fn new(
        agent: AgentId,
        index: Arc<PointIndex>,
        table: Vec<Option<Arc<DensePointSpace>>>,
        extractions: usize,
        classes: usize,
        covered: usize,
        batched: bool,
    ) -> SamplePlan {
        SamplePlan {
            agent,
            index,
            table,
            extractions,
            classes,
            covered,
            batched,
        }
    }

    /// The planned space at `c`, if the assignment is well defined
    /// there (REQ1+REQ2 hold) and `c` belongs to the plan's universe.
    /// `None` means the caller must fall back to the per-point path —
    /// which reproduces the exact error the naive code would report.
    #[must_use]
    pub fn space(&self, c: PointId) -> Option<&Arc<DensePointSpace>> {
        self.table.get(self.index.try_index_of(c)?)?.as_ref()
    }

    /// The agent the plan was built for.
    #[must_use]
    pub fn agent(&self) -> AgentId {
        self.agent
    }

    /// The point universe the table is indexed by.
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

    /// Number of distinct spaces in the table.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of points with a planned space (`Some` entries).
    #[must_use]
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Total number of points in the plan's universe.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.table.len()
    }

    /// Whether the build used the batched class-fill path (canonical
    /// assignments) rather than the per-point path (custom closures).
    #[must_use]
    pub fn is_batched(&self) -> bool {
        self.batched
    }

    /// Heap bytes of the point → space table (the spaces themselves
    /// belong to the space cache and are counted there).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.table.capacity() * size_of::<Option<Arc<DensePointSpace>>>()
    }
}

impl fmt::Debug for SamplePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SamplePlan")
            .field("agent", &self.agent)
            .field("points", &self.table.len())
            .field("covered", &self.covered)
            .field("classes", &self.classes)
            .field("extractions", &self.extractions)
            .field("batched", &self.batched)
            .finish()
    }
}
