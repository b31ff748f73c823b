//! The dense point space: a sample's word-mask measure kernel, with the
//! generic [`PointSpace`] built only when a caller asks for it.
//!
//! [`DensePointSpace`] is the concrete space type the induced
//! assignment caches. The assignment builds it straight from its
//! sample: one walk over the sample's set words gives each point's bit,
//! its block (the point's run) and the block's weight (the run's
//! probability), and `kpa_measure::DenseKernel::from_bits` lays those
//! out. No generic table is built on the way.
//!
//! The space derefs to the generic [`PointSpace`] (so every existing
//! consumer — betting games, expectation code — keeps compiling
//! unchanged), built from the same `(point, run)` pairs and run
//! probabilities on the first call that needs it and kept from then
//! on. It *shadows* the five measure queries with dispatching
//! versions: when the queried set exposes dense words
//! ([`kpa_measure::MemberSet::member_words`], i.e. it is a `PointSet`
//! over the same universe) **and** the kernel was constructible, the
//! query runs word-wise and no generic table is built; otherwise it
//! falls back to the generic element-at-a-time scan. Both paths are
//! bit-identical — see the `kpa_measure::DenseKernel` module docs for
//! the argument and `tests/measure_kernel_differential.rs` for the pin.
//! Kernel and generic table are built separately from the sample, so
//! the generic table stays an independent oracle for the kernel
//! (`tests/plan_differential.rs` pins the two constructions).

use crate::induced::PointSpace;
use kpa_measure::{BlockSpace, DenseKernel, MeasureError, MemberSet, Rat};
use kpa_system::{PointId, PointIndex, PointSet};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// What [`DensePointSpace::dense`] resolves per query: the kernel, the
/// queried set's words, and its optional footprint hint.
type DenseQuery<'a> = (&'a DenseKernel, &'a [u64], Option<(usize, usize)>);

/// A sample space with a precomputed dense measure kernel, and its
/// generic [`PointSpace`] built on demand.
///
/// Built by `ProbAssignment::space`; the kernel maps each sample point
/// to its dense [`PointIndex`] bit, matching the word layout of every
/// `PointSet` of the same system. `kernel` is `None` (all queries take
/// the generic path, and the generic table is built at once) if the
/// weight table would overflow `i128` range — impossible for the
/// rational run probabilities of the paper's systems, but guarded
/// nonetheless.
#[derive(Debug, Clone)]
pub struct DensePointSpace {
    /// The sample `S_ic`, shared with the space cache's key.
    sample: Arc<PointSet>,
    /// The run probabilities of the sample's tree, which weigh its
    /// blocks; empty for a space built with its generic table.
    runs: Arc<[Rat]>,
    kernel: Option<DenseKernel>,
    /// The generic table, built on first use.
    generic: OnceLock<PointSpace>,
}

impl Deref for DensePointSpace {
    type Target = PointSpace;

    fn deref(&self) -> &PointSpace {
        self.generic()
    }
}

impl DensePointSpace {
    /// Wraps a built `space`, deriving the word-mask kernel over
    /// `index` from its tables.
    ///
    /// # Panics
    ///
    /// Panics if a sample point lies outside `index`.
    #[must_use]
    pub fn new(space: PointSpace, index: Arc<PointIndex>) -> DensePointSpace {
        let kernel = DenseKernel::from_space(&space, |p| index.try_index_of(*p));
        let sample = PointSet::from_points(index, space.elements().iter().copied());
        DensePointSpace {
            sample: Arc::new(sample),
            runs: Arc::new([]),
            kernel,
            generic: OnceLock::from(space),
        }
    }

    /// The space of a checked sample — non-empty and inside one tree,
    /// whose run probabilities `runs` holds — built straight into its
    /// kernel: one walk over the sample's set words. A point's block is
    /// its run: points of one run are adjacent in the dense layout, so
    /// blocks come in the order [`BlockSpace::new`] numbers them.
    ///
    /// # Errors
    ///
    /// [`MeasureError::NonPositiveWeight`] if a run through the sample
    /// has probability `<= 0`, exactly as [`BlockSpace::new`] would.
    pub(crate) fn of_sample(
        sample: Arc<PointSet>,
        runs: Arc<[Rat]>,
    ) -> Result<DensePointSpace, MeasureError> {
        let index = sample.universe();
        let stride = index.stride();
        let tree = sample.first().expect("a checked sample is non-empty").tree;
        let base = index.tree_range(tree).start;
        let (lo, hi) = sample.footprint();
        let mut bits = Vec::with_capacity(sample.len());
        let mut block_of = Vec::with_capacity(bits.capacity());
        let mut weights: Vec<Rat> = Vec::new();
        let mut last_run = usize::MAX;
        for (w, &word) in sample.as_words()[lo..hi].iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let bit = 64 * (lo + w) + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let run = (bit - base) / stride;
                if run != last_run {
                    let weight = runs[run];
                    if !weight.is_positive() {
                        return Err(MeasureError::NonPositiveWeight { weight });
                    }
                    weights.push(weight);
                    last_run = run;
                }
                bits.push(bit);
                block_of.push(weights.len() - 1);
            }
        }
        let kernel = DenseKernel::from_bits(bits, &block_of, &weights);
        let space = DensePointSpace {
            sample,
            runs,
            kernel,
            generic: OnceLock::new(),
        };
        if space.kernel.is_none() {
            let _ = space.generic.set(space.build_generic());
        }
        Ok(space)
    }

    /// The generic table over the sample: [`BlockSpace::new`] over its
    /// `(point, run)` pairs, weighed by the run probabilities.
    fn build_generic(&self) -> PointSpace {
        let pairs = self.sample.iter().map(|p| (p, p.run_id()));
        BlockSpace::new(pairs, |run| self.runs[run.index])
            .expect("a checked sample with positive run weights builds its space")
    }

    /// The generic space (identical sample, blocks, and weights), built
    /// on the first call and kept. Each such build bumps
    /// `assign.generic_built` in the trace registry.
    #[must_use]
    pub fn generic(&self) -> &PointSpace {
        self.generic.get_or_init(|| {
            kpa_trace::count!("assign.generic_built");
            self.build_generic()
        })
    }

    /// Whether the generic table has been built.
    #[must_use]
    pub fn has_generic(&self) -> bool {
        self.generic.get().is_some()
    }

    /// The sample `S_ic`, as a dense [`PointSet`].
    #[must_use]
    pub fn sample(&self) -> &PointSet {
        &self.sample
    }

    /// The dense kernel, if one was constructible.
    #[must_use]
    pub fn kernel(&self) -> Option<&DenseKernel> {
        self.kernel.as_ref()
    }

    /// Heap bytes of the sample's words, the dense kernel, and the
    /// generic table once it is built.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        size_of::<PointSet>()
            + size_of_val(self.sample.as_words())
            + self.kernel.as_ref().map_or(0, DenseKernel::heap_bytes)
            + self.generic.get().map_or(0, PointSpace::heap_bytes)
    }

    /// Whether dense-capable queries will take the word-wise path.
    #[must_use]
    pub fn has_kernel(&self) -> bool {
        self.kernel.is_some()
    }

    /// The point universe the kernel's bit layout is defined over.
    #[must_use]
    pub fn universe(&self) -> &Arc<PointIndex> {
        self.sample.universe()
    }

    /// Selects the kernel iff the queried set exposes compatible words,
    /// along with the set's footprint hint
    /// ([`kpa_measure::MemberSet::member_footprint`]) so the kernel can
    /// skip blocks the set provably misses.
    ///
    /// Each generic fallback bumps `assign.generic_measure` in the trace
    /// registry (the dense side is counted inside the kernel as
    /// `measure.dense_query`), so a traced bench run can prove which
    /// path its measure queries actually took.
    #[inline]
    fn dense<'a, S: MemberSet<PointId> + ?Sized>(&'a self, set: &'a S) -> Option<DenseQuery<'a>> {
        let picked = self
            .kernel
            .as_ref()
            .and_then(|k| Some((k, set.member_words()?, set.member_footprint())));
        if picked.is_none() {
            kpa_trace::count!("assign.generic_measure");
        }
        picked
    }

    /// Dispatching [`PointSpace::measure`] (same name, same bounds —
    /// shadows the deref target).
    ///
    /// # Errors
    ///
    /// Exactly as the generic [`PointSpace::measure`].
    pub fn measure<S: MemberSet<PointId> + ?Sized>(&self, set: &S) -> Result<Rat, MeasureError> {
        match self.dense(set) {
            Some((k, w, h)) => k.measure_words_in(w, h),
            None => self.generic().measure(set),
        }
    }

    /// Dispatching [`PointSpace::inner_measure`].
    #[must_use]
    pub fn inner_measure<S: MemberSet<PointId> + ?Sized>(&self, set: &S) -> Rat {
        match self.dense(set) {
            Some((k, w, h)) => k.inner_measure_words_in(w, h),
            None => self.generic().inner_measure(set),
        }
    }

    /// Dispatching [`PointSpace::outer_measure`].
    #[must_use]
    pub fn outer_measure<S: MemberSet<PointId> + ?Sized>(&self, set: &S) -> Rat {
        match self.dense(set) {
            Some((k, w, h)) => k.outer_measure_words_in(w, h),
            None => self.generic().outer_measure(set),
        }
    }

    /// Dispatching fused [`PointSpace::measure_interval`].
    #[must_use]
    pub fn measure_interval<S: MemberSet<PointId> + ?Sized>(&self, set: &S) -> (Rat, Rat) {
        match self.dense(set) {
            Some((k, w, h)) => k.measure_interval_words_in(w, h),
            None => self.generic().measure_interval(set),
        }
    }

    /// Dispatching [`PointSpace::is_measurable`].
    #[must_use]
    pub fn is_measurable<S: MemberSet<PointId> + ?Sized>(&self, set: &S) -> bool {
        match self.dense(set) {
            Some((k, w, h)) => k.is_measurable_words_in(w, h),
            None => self.generic().is_measurable(set),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Assignment, ProbAssignment};
    use kpa_measure::{rat, BlockSpace, Rat};
    use kpa_system::{AgentId, PointId, SystemBuilder, TreeId};
    use std::collections::BTreeSet;

    #[test]
    fn overflowing_weight_tables_build_the_generic_table_at_once() {
        // A fair coin, then 1/p : (p−1)/p after heads and 1/q : (q−1)/q
        // after tails, for the primes p = 2⁶⁴ − 59 and q = 2⁶⁴ − 83. The
        // agent sees only "go" after the start, so its posterior space
        // holds both later times of all four runs. Each run probability
        // fits i128, but their common denominator 2pq does not.
        let (p, q): (i128, i128) = (18_446_744_073_709_551_557, 18_446_744_073_709_551_533);
        let mut b = SystemBuilder::new(["p1"]);
        let t = b.add_tree("only");
        let root = b.add_root(t, &["init"], &[]).unwrap();
        for (coin, n) in [("h", p), ("t", q)] {
            let toss = b.add_child(t, root, rat!(1 / 2), &["go"], &[coin]).unwrap();
            b.add_child(t, toss, Rat::new(1, n), &["go"], &[coin, "rare"])
                .unwrap();
            b.add_child(t, toss, Rat::new(n - 1, n), &["go"], &[coin])
                .unwrap();
        }
        let sys = b.build().unwrap();
        let post = ProbAssignment::new(&sys, Assignment::post());
        let c = PointId {
            tree: TreeId(0),
            run: 0,
            time: 2,
        };
        let space = post.space(AgentId(0), c).unwrap();
        assert_eq!(space.sample().len(), 8);
        assert!(!space.has_kernel(), "the weight table overflows");
        assert!(
            space.has_generic(),
            "no kernel: the generic table is built at once"
        );
        let pairs = space.sample().iter().map(|p| (p, p.run_id()));
        let eager = BlockSpace::new(pairs, |run| sys.run_prob(*run)).unwrap();
        assert_eq!(*space.generic(), eager);

        // It answers like the eager space, through the dispatching
        // queries. Each set's weights sum without passing i128: the two
        // runs of one coin, a run alone, or half of a run's points.
        let heads = sys.points_satisfying(sys.prop_id("h").unwrap());
        let mut heads_late = heads.clone();
        heads_late.retain(|d| d.time == 2);
        let first_run = sys.point_set((0..=2).map(|time| PointId { time, ..c }));
        for set in [
            heads,
            heads_late,
            first_run,
            sys.full_points(),
            sys.empty_points(),
        ] {
            assert_eq!(space.measure(&set), eager.measure(&set));
            assert_eq!(space.inner_measure(&set), eager.inner_measure(&set));
            assert_eq!(space.outer_measure(&set), eager.outer_measure(&set));
            assert_eq!(space.measure_interval(&set), eager.measure_interval(&set));
            assert_eq!(space.is_measurable(&set), eager.is_measurable(&set));
            let points: BTreeSet<PointId> = set.iter().collect();
            assert_eq!(
                space.measure_interval(&points),
                eager.measure_interval(&points)
            );
        }
        assert_eq!(
            space.measure_interval(&sys.points_satisfying(sys.prop_id("h").unwrap())),
            (rat!(1 / 2), rat!(1 / 2))
        );
    }
}
