//! The dense point space: a [`PointSpace`] paired with the word-mask
//! measure kernel of `kpa-measure`.
//!
//! [`DensePointSpace`] is the concrete space type the induced
//! assignment caches. It derefs to the generic [`PointSpace`] (so every
//! existing consumer — betting games, cut spaces, expectation code —
//! keeps compiling unchanged), and *shadows* the five measure queries
//! with dispatching versions: when the queried set exposes dense words
//! ([`kpa_measure::MemberSet::member_words`], i.e. it is a `PointSet`
//! over the same universe) **and** the kernel was constructible, the
//! query runs word-wise; otherwise it falls back to the generic
//! element-at-a-time scan. Both paths are bit-identical — see the
//! `kpa_measure::DenseKernel` module docs for the argument and
//! `tests/measure_kernel_differential.rs` for the pin.

use crate::induced::PointSpace;
use kpa_measure::{DenseKernel, MeasureError, MemberSet, Rat};
use kpa_system::{PointId, PointIndex};
use std::ops::Deref;
use std::sync::Arc;

/// What [`DensePointSpace::dense`] resolves per query: the kernel, the
/// queried set's words, and its optional footprint hint.
type DenseQuery<'a> = (&'a DenseKernel, &'a [u64], Option<(usize, usize)>);

/// A [`PointSpace`] with a precomputed dense measure kernel.
///
/// Built by `ProbAssignment::space`; the kernel maps each sample point
/// to its dense [`PointIndex`] bit, matching the word layout of every
/// `PointSet` of the same system. `kernel` is `None` (all queries take
/// the generic path) if the weight table would overflow `i128` range —
/// impossible for the rational run probabilities the paper's systems
/// produce, but guarded nonetheless — or if the layout is not injective
/// (a sample point outside the universe, or two points on one bit).
#[derive(Debug, Clone)]
pub struct DensePointSpace {
    space: PointSpace,
    kernel: Option<DenseKernel>,
    /// The universe the kernel's bit layout is defined over.
    index: Arc<PointIndex>,
}

impl Deref for DensePointSpace {
    type Target = PointSpace;

    fn deref(&self) -> &PointSpace {
        &self.space
    }
}

impl DensePointSpace {
    /// Wraps `space`, precomputing the word-mask kernel over `index`.
    #[must_use]
    pub fn new(space: PointSpace, index: Arc<PointIndex>) -> DensePointSpace {
        let kernel = DenseKernel::from_space(&space, |p| index.try_index_of(*p));
        DensePointSpace {
            space,
            kernel,
            index,
        }
    }

    /// The generic space (identical sample, blocks, and weights).
    #[must_use]
    pub fn generic(&self) -> &PointSpace {
        &self.space
    }

    /// The dense kernel, if one was constructible.
    #[must_use]
    pub fn kernel(&self) -> Option<&DenseKernel> {
        self.kernel.as_ref()
    }

    /// Heap bytes of the generic space plus its dense kernel.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.space.heap_bytes() + self.kernel.as_ref().map_or(0, DenseKernel::heap_bytes)
    }

    /// Whether dense-capable queries will take the word-wise path.
    #[must_use]
    pub fn has_kernel(&self) -> bool {
        self.kernel.is_some()
    }

    /// The point universe the kernel's bit layout is defined over.
    #[must_use]
    pub fn universe(&self) -> &Arc<PointIndex> {
        &self.index
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
            None => self.space.measure(set),
        }
    }

    /// Dispatching [`PointSpace::inner_measure`].
    #[must_use]
    pub fn inner_measure<S: MemberSet<PointId> + ?Sized>(&self, set: &S) -> Rat {
        match self.dense(set) {
            Some((k, w, h)) => k.inner_measure_words_in(w, h),
            None => self.space.inner_measure(set),
        }
    }

    /// Dispatching [`PointSpace::outer_measure`].
    #[must_use]
    pub fn outer_measure<S: MemberSet<PointId> + ?Sized>(&self, set: &S) -> Rat {
        match self.dense(set) {
            Some((k, w, h)) => k.outer_measure_words_in(w, h),
            None => self.space.outer_measure(set),
        }
    }

    /// Dispatching fused [`PointSpace::measure_interval`].
    #[must_use]
    pub fn measure_interval<S: MemberSet<PointId> + ?Sized>(&self, set: &S) -> (Rat, Rat) {
        match self.dense(set) {
            Some((k, w, h)) => k.measure_interval_words_in(w, h),
            None => self.space.measure_interval(set),
        }
    }

    /// Dispatching [`PointSpace::is_measurable`].
    #[must_use]
    pub fn is_measurable<S: MemberSet<PointId> + ?Sized>(&self, set: &S) -> bool {
        match self.dense(set) {
            Some((k, w, h)) => k.is_measurable_words_in(w, h),
            None => self.space.is_measurable(set),
        }
    }
}
