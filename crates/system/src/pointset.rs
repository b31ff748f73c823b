//! The dense point-set kernel: bitsets over a system's point universe.
//!
//! Every paper-level query — `K_i φ` knowledge sets, `Pr_i(φ) ≥ α`
//! thresholds, Req1/Req2 checks, cut bounds — bottoms out in set
//! algebra over points. Points have a *dense layout*: the builder
//! stutter-pads every run of every tree to one global horizon `h`, so
//! the point `(tree, run, time)` lives at index
//!
//! ```text
//! tree_base[tree] + run · (h + 1) + time
//! ```
//!
//! with `tree_base[t]` = (total runs of earlier trees) · (h + 1). That
//! makes a `Vec<u64>` word-bitset a drop-in lattice element:
//! union/intersection/complement are O(words), membership is a single
//! word probe, `len` is a popcount sweep, and ascending-index iteration
//! *is* ascending [`PointId`] order (tree, run, time) — so switching
//! from ordered reference sets changes no observable ordering.
//!
//! Two refinements make the kernel scale to million-point universes:
//!
//! * **Footprints.** Each set carries a conservative half-open word
//!   range `[fp_lo, fp_hi)`; every word outside it is guaranteed zero
//!   (words inside may be zero too — the range only ever
//!   over-approximates). A local-state equivalence class of a
//!   10⁶-point system touches a handful of words; with footprints a
//!   `knows_set` sweep over thousands of such classes costs the sum of
//!   the class footprints rather than classes × universe words. Words
//!   proven-skippable this way are counted in the
//!   `system.footprint_skipped_words` trace counter.
//! * **Wide strides.** The bulk loops (union/intersect/difference/
//!   popcount/subset/disjoint) process words in 4×u64 chunks with a
//!   scalar tail — plain Rust the autovectorizer turns into SIMD where
//!   available, bit-identical to word-at-a-time by construction. The
//!   scalar full-span originals survive as the `narrow_*` reference
//!   methods, which the differential tests and the scale-ladder bench
//!   pin the wide path against.
//!
//! [`PointIndex`] is the immutable description of one system's layout,
//! shared by `Arc` among all the [`PointSet`]s over that system.
//! Temporal structure is linear in the layout too: the time-successor
//! of a point is the next index (within the same run), which is how
//! [`PointSet::precursors`] implements the `Next` modality as a word
//! shift.

use crate::ids::{PointId, TreeId};
use kpa_measure::GroupWords;
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The dense layout of one system's point universe.
///
/// Immutable once built; shared among every [`PointSet`] over the
/// system. Two sets are only comparable/combinable when they share a
/// layout (checked, with the detached-empty default exempt from
/// nothing — mixing universes is a logic error and panics).
#[derive(Debug, PartialEq, Eq)]
pub struct PointIndex {
    /// Points per run: the global horizon plus one.
    stride: usize,
    /// Per tree: index of the tree's first point.
    tree_base: Vec<usize>,
    /// Per tree: number of runs.
    run_counts: Vec<usize>,
    /// Total number of points.
    total: usize,
    /// Bitmask (one word per 64 points) of the points with
    /// `time < horizon` — the points that *have* a time-successor.
    interior: Vec<u64>,
}

impl PointIndex {
    /// Builds the layout for trees with the given run counts, all
    /// sharing `horizon` (the builder guarantees uniform horizons by
    /// stutter padding).
    #[must_use]
    pub fn new(run_counts: Vec<usize>, horizon: usize) -> PointIndex {
        let stride = horizon + 1;
        let mut tree_base = Vec::with_capacity(run_counts.len());
        let mut base = 0usize;
        for &rc in &run_counts {
            tree_base.push(base);
            base += rc * stride;
        }
        let total = base;
        let words = total.div_ceil(64);
        let mut interior = vec![0u64; words];
        for i in 0..total {
            if i % stride != horizon {
                interior[i / 64] |= 1 << (i % 64);
            }
        }
        PointIndex {
            stride,
            tree_base,
            run_counts,
            total,
            interior,
        }
    }

    /// The layout of an empty universe (what detached default sets use).
    #[must_use]
    pub fn empty() -> PointIndex {
        PointIndex::new(Vec::new(), 0)
    }

    /// The total number of points.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// The number of trees.
    #[must_use]
    pub fn tree_count(&self) -> usize {
        self.run_counts.len()
    }

    /// The number of runs in a tree.
    ///
    /// # Panics
    ///
    /// Panics if the tree id is out of range.
    #[must_use]
    pub fn run_count(&self, tree: TreeId) -> usize {
        self.run_counts[tree.0]
    }

    /// The common number of points per run (`horizon + 1`).
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The global horizon.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.stride - 1
    }

    /// The dense index of a point, if it lies in this universe.
    #[must_use]
    pub fn try_index_of(&self, p: PointId) -> Option<usize> {
        if p.tree.0 >= self.run_counts.len()
            || p.run >= self.run_counts[p.tree.0]
            || p.time >= self.stride
        {
            return None;
        }
        Some(self.tree_base[p.tree.0] + p.run * self.stride + p.time)
    }

    /// The dense index of a point.
    ///
    /// # Panics
    ///
    /// Panics if the point does not lie in this universe.
    #[must_use]
    pub fn index_of(&self, p: PointId) -> usize {
        self.try_index_of(p)
            .unwrap_or_else(|| panic!("point {p} is outside this universe"))
    }

    /// The point at a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= total()`.
    #[must_use]
    pub fn point_at(&self, i: usize) -> PointId {
        assert!(i < self.total, "point index {i} out of range");
        let t = self.tree_base.partition_point(|&b| b <= i) - 1;
        let rem = i - self.tree_base[t];
        PointId {
            tree: TreeId(t),
            run: rem / self.stride,
            time: rem % self.stride,
        }
    }

    /// The index range of one tree's points.
    ///
    /// # Panics
    ///
    /// Panics if the tree id is out of range.
    #[must_use]
    pub fn tree_range(&self, tree: TreeId) -> std::ops::Range<usize> {
        let base = self.tree_base[tree.0];
        base..base + self.run_counts[tree.0] * self.stride
    }

    fn words(&self) -> usize {
        self.total.div_ceil(64)
    }

    /// Mask for the final (possibly partial) word.
    fn tail_mask(&self) -> u64 {
        let rem = self.total % 64;
        if rem == 0 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }
}

/// The 4×u64 wide word loops: plain chunked Rust the autovectorizer
/// widens to SIMD where the target allows, bit-identical to the
/// word-at-a-time equivalents by construction (same words, same ops,
/// same order of side effects — only the loop shape differs).
mod wide {
    /// `dst |= src`, wordwise.
    pub fn or_assign(dst: &mut [u64], src: &[u64]) {
        let mut d = dst.chunks_exact_mut(4);
        let mut s = src.chunks_exact(4);
        for (a, b) in (&mut d).zip(&mut s) {
            a[0] |= b[0];
            a[1] |= b[1];
            a[2] |= b[2];
            a[3] |= b[3];
        }
        for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *a |= b;
        }
    }

    /// `dst &= src`, wordwise.
    pub fn and_assign(dst: &mut [u64], src: &[u64]) {
        let mut d = dst.chunks_exact_mut(4);
        let mut s = src.chunks_exact(4);
        for (a, b) in (&mut d).zip(&mut s) {
            a[0] &= b[0];
            a[1] &= b[1];
            a[2] &= b[2];
            a[3] &= b[3];
        }
        for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *a &= b;
        }
    }

    /// `dst &= !src`, wordwise.
    pub fn andnot_assign(dst: &mut [u64], src: &[u64]) {
        let mut d = dst.chunks_exact_mut(4);
        let mut s = src.chunks_exact(4);
        for (a, b) in (&mut d).zip(&mut s) {
            a[0] &= !b[0];
            a[1] &= !b[1];
            a[2] &= !b[2];
            a[3] &= !b[3];
        }
        for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *a &= !b;
        }
    }

    /// Popcount of a word slice.
    pub fn popcount(words: &[u64]) -> usize {
        let mut c = words.chunks_exact(4);
        let mut n = 0usize;
        for w in &mut c {
            n += (w[0].count_ones() + w[1].count_ones() + w[2].count_ones() + w[3].count_ones())
                as usize;
        }
        for w in c.remainder() {
            n += w.count_ones() as usize;
        }
        n
    }

    /// Popcount of `a & b`, wordwise.
    pub fn and_popcount(a: &[u64], b: &[u64]) -> usize {
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        let mut n = 0usize;
        for (x, y) in (&mut ca).zip(&mut cb) {
            n += ((x[0] & y[0]).count_ones()
                + (x[1] & y[1]).count_ones()
                + (x[2] & y[2]).count_ones()
                + (x[3] & y[3]).count_ones()) as usize;
        }
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            n += (x & y).count_ones() as usize;
        }
        n
    }

    /// Whether `a & !b == 0` over the slices (subset test).
    pub fn subset(a: &[u64], b: &[u64]) -> bool {
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        for (x, y) in (&mut ca).zip(&mut cb) {
            if (x[0] & !y[0]) | (x[1] & !y[1]) | (x[2] & !y[2]) | (x[3] & !y[3]) != 0 {
                return false;
            }
        }
        ca.remainder()
            .iter()
            .zip(cb.remainder())
            .all(|(x, y)| x & !y == 0)
    }

    /// Whether `a & b == 0` over the slices (disjointness test).
    pub fn disjoint(a: &[u64], b: &[u64]) -> bool {
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        for (x, y) in (&mut ca).zip(&mut cb) {
            if (x[0] & y[0]) | (x[1] & y[1]) | (x[2] & y[2]) | (x[3] & y[3]) != 0 {
                return false;
            }
        }
        ca.remainder()
            .iter()
            .zip(cb.remainder())
            .all(|(x, y)| x & y == 0)
    }

    /// Whether any word is non-zero.
    pub fn any(words: &[u64]) -> bool {
        let mut c = words.chunks_exact(4);
        for w in &mut c {
            if w[0] | w[1] | w[2] | w[3] != 0 {
                return true;
            }
        }
        c.remainder().iter().any(|&w| w != 0)
    }
}

/// Bumps the footprint-skip counter: a bulk op over a universe of
/// `total` words only had to touch `touched` of them.
#[inline]
fn note_skipped(total: usize, touched: usize) {
    kpa_trace::count!("system.footprint_skipped_words", (total - touched) as u64);
}

/// A dense bitset over one system's points — the workspace's lattice
/// element for every knowledge/probability query.
///
/// Cheap to clone relative to ordered sets (one `Vec<u64>` memcpy plus
/// an `Arc` bump); all binary operations are 4×u64-wide word loops
/// restricted to the operands' footprints (see the module docs).
/// Iteration yields points in ascending `(tree, run, time)` order.
#[derive(Debug, Clone)]
pub struct PointSet {
    index: Arc<PointIndex>,
    words: Vec<u64>,
    /// Conservative footprint: every word outside `[fp_lo, fp_hi)` is
    /// zero. `(0, 0)` when the set is known empty. Never observable in
    /// equality/hash — two equal sets may carry different footprints.
    fp_lo: usize,
    fp_hi: usize,
}

impl PointSet {
    /// The empty set over a universe.
    #[must_use]
    pub fn empty(index: Arc<PointIndex>) -> PointSet {
        let words = index.words();
        PointSet {
            index,
            words: vec![0; words],
            fp_lo: 0,
            fp_hi: 0,
        }
    }

    /// The full set over a universe.
    #[must_use]
    pub fn full(index: Arc<PointIndex>) -> PointSet {
        let n = index.words();
        let mut words = vec![u64::MAX; n];
        if let Some(last) = words.last_mut() {
            *last = index.tail_mask();
        }
        PointSet {
            index,
            words,
            fp_lo: 0,
            fp_hi: n,
        }
    }

    /// The set of the given points over a universe.
    ///
    /// # Panics
    ///
    /// Panics if any point lies outside the universe.
    #[must_use]
    pub fn from_points(index: Arc<PointIndex>, points: impl IntoIterator<Item = PointId>) -> Self {
        let mut set = PointSet::empty(index);
        set.extend(points);
        set
    }

    /// The universe layout this set lives over.
    #[must_use]
    pub fn universe(&self) -> &Arc<PointIndex> {
        &self.index
    }

    /// Normalizes and installs a footprint (empty ranges collapse to
    /// `(0, 0)`).
    #[inline]
    fn set_fp(&mut self, lo: usize, hi: usize) {
        if lo < hi {
            self.fp_lo = lo;
            self.fp_hi = hi;
        } else {
            self.fp_lo = 0;
            self.fp_hi = 0;
        }
    }

    /// The conservative footprint `[lo, hi)` in *words*: every word
    /// outside the range is zero. `(0, 0)` for known-empty sets. The
    /// range may be loose — in-place removals never shrink it.
    #[must_use]
    pub fn footprint(&self) -> (usize, usize) {
        (self.fp_lo, self.fp_hi)
    }

    /// Whether the footprint invariant holds: every word outside
    /// `footprint()` is zero. Test/debug aid; `true` for every set the
    /// public API can produce.
    #[must_use]
    pub fn footprint_is_valid(&self) -> bool {
        !wide::any(&self.words[..self.fp_lo]) && !wide::any(&self.words[self.fp_hi..])
    }

    /// Shrinks the footprint to the exact first/last non-zero word (a
    /// full-range scan; useful before a long-lived set fans out into
    /// many sweeps).
    pub fn tighten_footprint(&mut self) {
        let lo = (self.fp_lo..self.fp_hi).find(|&k| self.words[k] != 0);
        match lo {
            None => self.set_fp(0, 0),
            Some(lo) => {
                let hi = (lo..self.fp_hi)
                    .rev()
                    .find(|&k| self.words[k] != 0)
                    .unwrap()
                    + 1;
                self.set_fp(lo, hi);
            }
        }
    }

    /// The number of points in the set (a popcount sweep over the
    /// footprint).
    #[must_use]
    pub fn len(&self) -> usize {
        wide::popcount(&self.words[self.fp_lo..self.fp_hi])
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !wide::any(&self.words[self.fp_lo..self.fp_hi])
    }

    /// Whether the point belongs to the set. Accepts `PointId` or
    /// `&PointId`; points outside the universe are simply not members.
    #[must_use]
    pub fn contains<P: Borrow<PointId>>(&self, p: P) -> bool {
        match self.index.try_index_of(*p.borrow()) {
            Some(i) => self.words[i / 64] >> (i % 64) & 1 == 1,
            None => false,
        }
    }

    /// Inserts a point; returns whether it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if the point lies outside the universe.
    pub fn insert(&mut self, p: PointId) -> bool {
        let i = self.index.index_of(p);
        let k = i / 64;
        let w = &mut self.words[k];
        let bit = 1u64 << (i % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        if self.fp_lo >= self.fp_hi {
            self.fp_lo = k;
            self.fp_hi = k + 1;
        } else {
            self.fp_lo = self.fp_lo.min(k);
            self.fp_hi = self.fp_hi.max(k + 1);
        }
        fresh
    }

    /// Removes a point; returns whether it was present. (The footprint
    /// stays put — it is conservative, never exact.)
    pub fn remove<P: Borrow<PointId>>(&mut self, p: P) -> bool {
        match self.index.try_index_of(*p.borrow()) {
            Some(i) => {
                let w = &mut self.words[i / 64];
                let bit = 1u64 << (i % 64);
                let had = *w & bit != 0;
                *w &= !bit;
                had
            }
            None => false,
        }
    }

    /// Removes every point.
    pub fn clear(&mut self) {
        note_skipped(self.words.len(), self.fp_hi - self.fp_lo);
        self.words[self.fp_lo..self.fp_hi].fill(0);
        self.set_fp(0, 0);
    }

    fn check_same_universe(&self, other: &PointSet) {
        assert!(
            Arc::ptr_eq(&self.index, &other.index) || *self.index == *other.index,
            "point sets over different universes"
        );
    }

    /// In-place union. Touches only `other`'s footprint.
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    pub fn union_with(&mut self, other: &PointSet) {
        self.check_same_universe(other);
        let (blo, bhi) = (other.fp_lo, other.fp_hi);
        note_skipped(self.words.len(), bhi - blo);
        wide::or_assign(&mut self.words[blo..bhi], &other.words[blo..bhi]);
        if blo < bhi {
            if self.fp_lo >= self.fp_hi {
                self.set_fp(blo, bhi);
            } else {
                self.set_fp(self.fp_lo.min(blo), self.fp_hi.max(bhi));
            }
        }
    }

    /// In-place union with one group of a [`WordGroups`]: bit `b` of
    /// the group's word `w` is the point with dense index `64 · w + b`.
    /// Touches only the group's words — a dense group's in one
    /// contiguous OR — and the footprint grows to cover them.
    ///
    /// # Panics
    ///
    /// Panics if a word lies outside the universe.
    ///
    /// [`WordGroups`]: kpa_measure::WordGroups
    pub fn union_group(&mut self, group: GroupWords<'_>) {
        let (lo, hi) = match group {
            GroupWords::Dense { first, bits } => {
                wide::or_assign(&mut self.words[first..first + bits.len()], bits);
                (first, first + bits.len())
            }
            GroupWords::Pairs { words, bits } => {
                let (mut lo, mut hi) = (usize::MAX, 0);
                for (&k, &b) in words.iter().zip(bits) {
                    let k = k as usize;
                    self.words[k] |= b;
                    lo = lo.min(k);
                    hi = hi.max(k + 1);
                }
                (lo, hi)
            }
        };
        if lo >= hi {
            return;
        }
        // Bits past the last point would break `len` and equality.
        if hi == self.words.len() {
            self.words[hi - 1] &= self.index.tail_mask();
        }
        if self.fp_lo >= self.fp_hi {
            self.set_fp(lo, hi);
        } else {
            self.set_fp(self.fp_lo.min(lo), self.fp_hi.max(hi));
        }
    }

    /// In-place intersection. Touches only `self`'s footprint: the
    /// result can be non-zero only where both footprints overlap, so
    /// words of `self` outside the overlap are zeroed and the rest are
    /// ANDed.
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    pub fn intersect_with(&mut self, other: &PointSet) {
        self.check_same_universe(other);
        let (alo, ahi) = (self.fp_lo, self.fp_hi);
        note_skipped(self.words.len(), ahi - alo);
        let lo = alo.max(other.fp_lo);
        let hi = ahi.min(other.fp_hi);
        if lo >= hi {
            self.words[alo..ahi].fill(0);
            self.set_fp(0, 0);
            return;
        }
        self.words[alo..lo].fill(0);
        self.words[hi..ahi].fill(0);
        wide::and_assign(&mut self.words[lo..hi], &other.words[lo..hi]);
        self.set_fp(lo, hi);
    }

    /// In-place difference (`self \ other`). Touches only the overlap
    /// of the two footprints; `self`'s footprint is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    pub fn difference_with(&mut self, other: &PointSet) {
        self.check_same_universe(other);
        let lo = self.fp_lo.max(other.fp_lo);
        let hi = self.fp_hi.min(other.fp_hi);
        note_skipped(self.words.len(), hi.saturating_sub(lo));
        if lo < hi {
            wide::andnot_assign(&mut self.words[lo..hi], &other.words[lo..hi]);
        }
    }

    /// The union as a new set.
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    #[must_use]
    pub fn union(&self, other: &PointSet) -> PointSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// The intersection as a new set.
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    #[must_use]
    pub fn intersection(&self, other: &PointSet) -> PointSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// The difference `self \ other` as a new set.
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    #[must_use]
    pub fn difference(&self, other: &PointSet) -> PointSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// The complement within the universe. (A full-span op by nature:
    /// the result is dense wherever `self` was sparse.)
    #[must_use]
    pub fn complement(&self) -> PointSet {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        if let Some(last) = words.last_mut() {
            *last &= self.index.tail_mask();
        }
        let n = words.len();
        let mut out = PointSet {
            index: Arc::clone(&self.index),
            words,
            fp_lo: 0,
            fp_hi: 0,
        };
        out.set_fp(0, n);
        out
    }

    /// Whether every point of `self` belongs to `other`. Only `self`'s
    /// footprint needs checking: outside it `self` is zero, and zero is
    /// a subset of anything.
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    #[must_use]
    pub fn is_subset(&self, other: &PointSet) -> bool {
        self.check_same_universe(other);
        let (lo, hi) = (self.fp_lo, self.fp_hi);
        note_skipped(self.words.len(), hi - lo);
        wide::subset(&self.words[lo..hi], &other.words[lo..hi])
    }

    /// Whether every point of `other` belongs to `self`.
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    #[must_use]
    pub fn is_superset(&self, other: &PointSet) -> bool {
        other.is_subset(self)
    }

    /// Whether the sets share no point. Only the footprint overlap can
    /// host a common point.
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    #[must_use]
    pub fn is_disjoint(&self, other: &PointSet) -> bool {
        self.check_same_universe(other);
        let lo = self.fp_lo.max(other.fp_lo);
        let hi = self.fp_hi.min(other.fp_hi);
        note_skipped(self.words.len(), hi.saturating_sub(lo));
        lo >= hi || wide::disjoint(&self.words[lo..hi], &other.words[lo..hi])
    }

    /// The number of points in `self ∩ other` without materializing it.
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    #[must_use]
    pub fn intersection_len(&self, other: &PointSet) -> usize {
        self.check_same_universe(other);
        let lo = self.fp_lo.max(other.fp_lo);
        let hi = self.fp_hi.min(other.fp_hi);
        note_skipped(self.words.len(), hi.saturating_sub(lo));
        if lo >= hi {
            0
        } else {
            wide::and_popcount(&self.words[lo..hi], &other.words[lo..hi])
        }
    }

    /// The set of points whose immediate time-successor (same run, time
    /// plus one) belongs to `self` — the satisfaction set of the `Next`
    /// modality. A word-wise shift: successor bits sit one index up, so
    /// this shifts every word down by one (borrowing the low bit of the
    /// next word) and masks off the horizon slots, where the shift
    /// would otherwise smuggle in the first bit of the *next run*.
    /// Output word `k` draws on input words `k` and `k + 1`, so only
    /// `[fp_lo - 1, fp_hi)` can be non-zero and the rest stays skipped.
    #[must_use]
    pub fn precursors(&self) -> PointSet {
        let n = self.words.len();
        let mut words = vec![0u64; n];
        let lo = self.fp_lo.saturating_sub(1);
        let hi = self.fp_hi;
        note_skipped(n, hi - lo);
        for (k, w) in words[lo..hi].iter_mut().enumerate() {
            let k = k + lo;
            let hi_bit = if k + 1 < n {
                self.words[k + 1] << 63
            } else {
                0
            };
            *w = (self.words[k] >> 1 | hi_bit) & self.index.interior[k];
        }
        let mut out = PointSet {
            index: Arc::clone(&self.index),
            words,
            fp_lo: 0,
            fp_hi: 0,
        };
        out.set_fp(lo, hi);
        out
    }

    /// The smallest point of the set, if any.
    #[must_use]
    pub fn first(&self) -> Option<PointId> {
        for k in self.fp_lo..self.fp_hi {
            let w = self.words[k];
            if w != 0 {
                return Some(self.index.point_at(k * 64 + w.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Keeps only the points satisfying the predicate. (Only footprint
    /// words can hold points; the footprint itself stays put.)
    pub fn retain(&mut self, mut pred: impl FnMut(PointId) -> bool) {
        note_skipped(self.words.len(), self.fp_hi - self.fp_lo);
        for k in self.fp_lo..self.fp_hi {
            let mut w = self.words[k];
            while w != 0 {
                let bit = w & w.wrapping_neg();
                w &= w - 1;
                let i = k * 64 + bit.trailing_zeros() as usize;
                if !pred(self.index.point_at(i)) {
                    self.words[k] &= !bit;
                }
            }
        }
    }

    /// Iterates over the points in ascending `(tree, run, time)` order.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: self.fp_lo,
            bits: self.words.get(self.fp_lo).copied().unwrap_or(0),
        }
    }

    /// The raw bitset words (low bit of word 0 is point index 0).
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

/// The narrow reference path: the scalar, full-span loops the wide
/// footprint-skipping kernel replaced, kept as the pinning oracle.
/// The differential tests assert bit-identical results against these,
/// and the scale-ladder bench times wide-vs-narrow per rung (the
/// `ladder_wide_vs_narrow_1e6` gate). Mutating narrow ops install the
/// conservative full-span footprint, so mixing narrow and wide calls
/// on one set stays sound.
impl PointSet {
    /// Full-span scalar union (reference for [`PointSet::union_with`]).
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    pub fn narrow_union_with(&mut self, other: &PointSet) {
        self.check_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        let n = self.words.len();
        self.set_fp(0, n);
    }

    /// Full-span scalar intersection (reference for
    /// [`PointSet::intersect_with`]).
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    pub fn narrow_intersect_with(&mut self, other: &PointSet) {
        self.check_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        let n = self.words.len();
        self.set_fp(0, n);
    }

    /// Full-span scalar difference (reference for
    /// [`PointSet::difference_with`]).
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    pub fn narrow_difference_with(&mut self, other: &PointSet) {
        self.check_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
        let n = self.words.len();
        self.set_fp(0, n);
    }

    /// Full-span scalar popcount (reference for [`PointSet::len`]).
    #[must_use]
    pub fn narrow_len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Full-span scalar subset test (reference for
    /// [`PointSet::is_subset`]).
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    #[must_use]
    pub fn narrow_is_subset(&self, other: &PointSet) -> bool {
        self.check_same_universe(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Full-span scalar intersection count (reference for
    /// [`PointSet::intersection_len`]).
    ///
    /// # Panics
    ///
    /// Panics if the sets live over different universes.
    #[must_use]
    pub fn narrow_intersection_len(&self, other: &PointSet) -> usize {
        self.check_same_universe(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }
}

impl Default for PointSet {
    /// A detached empty set over the empty universe: membership tests
    /// answer `false` for every point, and it compares equal only to
    /// other empty-universe sets. Useful as a "no points" placeholder
    /// where no system is in scope.
    fn default() -> PointSet {
        PointSet::empty(Arc::new(PointIndex::empty()))
    }
}

impl PartialEq for PointSet {
    fn eq(&self, other: &PointSet) -> bool {
        // Footprints are conservative, not canonical — equal sets may
        // carry different ranges, so equality reads the words alone.
        (Arc::ptr_eq(&self.index, &other.index) || *self.index == *other.index)
            && self.words == other.words
    }
}

impl Eq for PointSet {}

impl Hash for PointSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Words determine membership given the universe; sets over
        // different universes may collide, which Hash permits.
        self.words.hash(state);
    }
}

impl Extend<PointId> for PointSet {
    fn extend<T: IntoIterator<Item = PointId>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl fmt::Display for PointSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl kpa_measure::MemberSet<PointId> for PointSet {
    fn contains_elem(&self, e: &PointId) -> bool {
        self.contains(e)
    }

    /// Exposes the dense bitset words so the measure layer's dense
    /// kernel can answer block-trace questions word-wise. Bit `i` of
    /// word `i / 64` is the point with dense [`PointIndex`] index `i` —
    /// exactly the indexing `kpa-assign` builds its kernels over.
    fn member_words(&self) -> Option<&[u64]> {
        Some(self.as_words())
    }

    /// The conservative non-zero word range, letting the dense kernel
    /// skip blocks that cannot intersect the set.
    fn member_footprint(&self) -> Option<(usize, usize)> {
        Some((self.fp_lo, self.fp_hi))
    }
}

/// Ascending iterator over a [`PointSet`] (word-skipping, bounded by
/// the set's footprint).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a PointSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = PointId;

    fn next(&mut self) -> Option<PointId> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.set.fp_hi {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
        let tz = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.set.index.point_at(self.word * 64 + tz))
    }
}

impl<'a> IntoIterator for &'a PointSet {
    type Item = PointId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Owning ascending iterator over a [`PointSet`].
#[derive(Debug, Clone)]
pub struct IntoIter {
    set: PointSet,
    word: usize,
    bits: u64,
}

impl Iterator for IntoIter {
    type Item = PointId;

    fn next(&mut self) -> Option<PointId> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.set.fp_hi {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
        let tz = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.set.index.point_at(self.word * 64 + tz))
    }
}

impl IntoIterator for PointSet {
    type Item = PointId;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        let word = self.fp_lo;
        let bits = self.words.get(word).copied().unwrap_or(0);
        IntoIter {
            set: self,
            word,
            bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> Arc<PointIndex> {
        // Two trees: 3 runs and 2 runs, horizon 2 (stride 3) → 15 points.
        Arc::new(PointIndex::new(vec![3, 2], 2))
    }

    /// A universe wide enough for multi-word footprints: 1 tree,
    /// 40 runs, horizon 9 (stride 10) → 400 points = 7 words (a span
    /// that is not a multiple of 4, exercising the wide-loop tail).
    fn wide_idx() -> Arc<PointIndex> {
        Arc::new(PointIndex::new(vec![40], 9))
    }

    fn pt(tree: usize, run: usize, time: usize) -> PointId {
        PointId {
            tree: TreeId(tree),
            run,
            time,
        }
    }

    #[test]
    fn layout_roundtrips() {
        let ix = idx();
        assert_eq!(ix.total(), 15);
        assert_eq!(ix.stride(), 3);
        assert_eq!(ix.horizon(), 2);
        assert_eq!(ix.tree_range(TreeId(1)), 9..15);
        for i in 0..ix.total() {
            assert_eq!(ix.index_of(ix.point_at(i)), i);
        }
        assert_eq!(ix.try_index_of(pt(0, 3, 0)), None);
        assert_eq!(ix.try_index_of(pt(2, 0, 0)), None);
        assert_eq!(ix.try_index_of(pt(0, 0, 3)), None);
    }

    #[test]
    fn iteration_is_point_id_order() {
        let ix = idx();
        let full = PointSet::full(Arc::clone(&ix));
        let points: Vec<PointId> = full.iter().collect();
        assert_eq!(points.len(), 15);
        let mut sorted = points.clone();
        sorted.sort_unstable();
        assert_eq!(points, sorted, "bit order must equal PointId order");
        assert_eq!(full.first(), Some(pt(0, 0, 0)));
    }

    #[test]
    fn algebra_and_complement() {
        let ix = idx();
        let mut a = PointSet::empty(Arc::clone(&ix));
        a.extend([pt(0, 0, 0), pt(0, 1, 2), pt(1, 0, 1)]);
        let mut b = PointSet::empty(Arc::clone(&ix));
        b.extend([pt(0, 1, 2), pt(1, 1, 0)]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b).len(), 1);
        assert_eq!(a.intersection_len(&b), 1);
        assert_eq!(a.difference(&b).len(), 2);
        assert!(!a.is_disjoint(&b));
        assert!(a.intersection(&b).is_subset(&a));
        let comp = a.complement();
        assert_eq!(comp.len(), 12);
        assert!(a.is_disjoint(&comp));
        assert_eq!(a.union(&comp), PointSet::full(Arc::clone(&ix)));
    }

    #[test]
    fn insert_remove_contains() {
        let ix = idx();
        let mut s = PointSet::empty(ix);
        assert!(s.insert(pt(1, 1, 2)));
        assert!(!s.insert(pt(1, 1, 2)));
        assert!(s.contains(pt(1, 1, 2)));
        assert!(s.contains(pt(1, 1, 2)));
        assert!(!s.contains(pt(0, 0, 0)));
        // Out-of-universe points are simply non-members.
        assert!(!s.contains(pt(7, 0, 0)));
        assert!(s.remove(pt(1, 1, 2)));
        assert!(!s.remove(pt(1, 1, 2)));
        assert!(s.is_empty());
    }

    #[test]
    fn precursors_shift_within_runs_only() {
        let ix = idx();
        // φ at the last point of run (0,0) and the first point of the
        // *next* run (0,1): only (0,0,1) precedes a φ-point; (0,1,0)'s
        // bit must not leak backward across the run boundary.
        let phi = PointSet::from_points(Arc::clone(&ix), [pt(0, 0, 2), pt(0, 1, 0)]);
        let pre = phi.precursors();
        let got: Vec<PointId> = pre.iter().collect();
        assert_eq!(got, vec![pt(0, 0, 1)]);
        // Horizon points never satisfy Next of anything.
        let full = PointSet::full(Arc::clone(&ix));
        assert!(full.precursors().iter().all(|p| p.time < ix.horizon()));
    }

    #[test]
    fn retain_filters() {
        let ix = idx();
        let mut s = PointSet::full(Arc::clone(&ix));
        s.retain(|p| p.time == 1);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|p| p.time == 1));
    }

    #[test]
    fn default_is_detached_empty() {
        let d = PointSet::default();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert!(!d.contains(pt(0, 0, 0)));
        assert_eq!(d, PointSet::default());
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "different universes")]
    fn mixing_universes_panics() {
        let a = PointSet::empty(idx());
        let b = PointSet::empty(Arc::new(PointIndex::new(vec![1], 0)));
        let _ = a.is_subset(&b);
    }

    #[test]
    fn equality_and_hash_follow_membership() {
        use std::collections::HashMap;
        let ix = idx();
        let a = PointSet::from_points(Arc::clone(&ix), [pt(0, 2, 1)]);
        let b = PointSet::from_points(Arc::clone(&ix), [pt(0, 2, 1)]);
        assert_eq!(a, b);
        let mut map: HashMap<PointSet, &str> = HashMap::new();
        map.insert(a, "x");
        assert_eq!(map.get(&b), Some(&"x"));
    }

    // ---- footprint invariants -------------------------------------

    #[test]
    fn footprints_track_every_operation() {
        let ix = wide_idx();
        let empty = PointSet::empty(Arc::clone(&ix));
        assert_eq!(empty.footprint(), (0, 0));
        assert!(empty.footprint_is_valid());
        let full = PointSet::full(Arc::clone(&ix));
        assert_eq!(full.footprint(), (0, 7));
        assert!(full.footprint_is_valid());

        // A narrow set near the top of the universe: run 39, index
        // 390..400 → words 6 only.
        let mut hi = PointSet::empty(Arc::clone(&ix));
        hi.insert(pt(0, 39, 5));
        assert_eq!(hi.footprint(), (6, 7));
        // One near the bottom: word 0.
        let mut lo = PointSet::empty(Arc::clone(&ix));
        lo.insert(pt(0, 0, 3));
        assert_eq!(lo.footprint(), (0, 1));

        // Union merges footprints; intersection of disjoint ranges
        // collapses to the canonical empty footprint.
        let mut u = lo.clone();
        u.union_with(&hi);
        assert_eq!(u.footprint(), (0, 7));
        assert!(u.footprint_is_valid());
        assert_eq!(u.len(), 2);
        let mut i = lo.clone();
        i.intersect_with(&hi);
        assert!(i.is_empty());
        assert_eq!(i.footprint(), (0, 0));
        assert!(i.footprint_is_valid());

        // tighten_footprint recovers the exact range after widening.
        u.tighten_footprint();
        assert_eq!(u.footprint(), (0, 7));
        let mut loose = full.clone();
        loose.intersect_with(&hi);
        loose.tighten_footprint();
        assert_eq!(loose.footprint(), (6, 7));

        // clear resets to the canonical empty footprint.
        let mut c = u.clone();
        c.clear();
        assert_eq!(c.footprint(), (0, 0));
        assert!(c.is_empty() && c.footprint_is_valid());
    }

    #[test]
    fn word_pair_unions_match_point_inserts() {
        let ix = wide_idx();
        // Words 5 and 2 (out of order), then the tail word 6, whose
        // bits past point 399 must be dropped.
        let (words, bits) = ([5, 2, 6], [0b101, 1 << 63, u64::MAX]);
        let mut s = PointSet::empty(Arc::clone(&ix));
        s.union_group(GroupWords::Pairs {
            words: &words,
            bits: &bits,
        });
        let mut expect = PointSet::empty(Arc::clone(&ix));
        expect.extend([320, 322, 191].map(|i| ix.point_at(i)));
        expect.extend((384..400).map(|i| ix.point_at(i)));
        assert_eq!(s, expect);
        assert_eq!(s.len(), 19);
        assert_eq!(s.footprint(), (2, 7));
        assert!(s.footprint_is_valid());
        // The same points as dense words 2–6, zero words included.
        let mut d = PointSet::empty(Arc::clone(&ix));
        d.union_group(GroupWords::Dense {
            first: 2,
            bits: &[1 << 63, 0, 0, 0b101, u64::MAX],
        });
        assert_eq!(d, expect);
        assert_eq!(d.footprint(), (2, 7));
        assert!(d.footprint_is_valid());
        // Growing a non-empty footprint downward; no pairs is a no-op.
        let mut t = PointSet::from_points(Arc::clone(&ix), [pt(0, 39, 0)]);
        t.union_group(GroupWords::Pairs {
            words: &[0],
            bits: &[1],
        });
        t.union_group(GroupWords::Pairs {
            words: &[],
            bits: &[],
        });
        assert_eq!(t.footprint(), (0, 7));
        assert_eq!(t.len(), 2);
        assert!(t.footprint_is_valid());
    }

    #[test]
    fn stale_footprints_stay_conservative() {
        let ix = wide_idx();
        // Build a set spanning words 0..7, then remove the extremes:
        // the footprint must not shrink (staleness) but every query
        // must still agree with the narrow reference.
        let mut s = PointSet::empty(Arc::clone(&ix));
        s.insert(pt(0, 0, 0));
        s.insert(pt(0, 20, 5));
        s.insert(pt(0, 39, 9));
        assert_eq!(s.footprint(), (0, 7));
        s.remove(pt(0, 0, 0));
        s.remove(pt(0, 39, 9));
        assert_eq!(s.footprint(), (0, 7), "remove never shrinks");
        assert!(s.footprint_is_valid());
        assert_eq!(s.len(), s.narrow_len());
        assert_eq!(s.len(), 1);
        s.tighten_footprint();
        assert_eq!(s.footprint(), (3, 4));
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    fn wide_ops_match_narrow_reference() {
        let ix = wide_idx();
        // A deterministic pseudo-random pair of sets (xorshift, fixed
        // seeds) plus hand-picked extremes.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut a = PointSet::empty(Arc::clone(&ix));
        let mut b = PointSet::empty(Arc::clone(&ix));
        for _ in 0..120 {
            a.insert(ix.point_at((next() % 400) as usize));
            b.insert(ix.point_at((next() % 400) as usize));
        }
        for (wideish, narrowish) in [
            (a.union(&b), {
                let mut t = a.clone();
                t.narrow_union_with(&b);
                t
            }),
            (a.intersection(&b), {
                let mut t = a.clone();
                t.narrow_intersect_with(&b);
                t
            }),
            (a.difference(&b), {
                let mut t = a.clone();
                t.narrow_difference_with(&b);
                t
            }),
        ] {
            assert_eq!(wideish, narrowish);
            assert!(wideish.footprint_is_valid());
            assert!(narrowish.footprint_is_valid());
        }
        assert_eq!(a.len(), a.narrow_len());
        assert_eq!(a.is_subset(&b), a.narrow_is_subset(&b));
        assert_eq!(a.intersection_len(&b), a.narrow_intersection_len(&b));
        let u = a.union(&b);
        assert!(a.is_subset(&u) && a.narrow_is_subset(&u));
    }

    #[test]
    fn narrow_then_wide_composition_is_sound() {
        let ix = wide_idx();
        // Narrow ops install the loose full-span footprint; subsequent
        // wide ops must still be correct.
        let mut s = PointSet::empty(Arc::clone(&ix));
        s.insert(pt(0, 10, 0));
        let mut t = PointSet::empty(Arc::clone(&ix));
        t.insert(pt(0, 10, 0));
        t.insert(pt(0, 30, 0));
        s.narrow_union_with(&t);
        assert_eq!(s.footprint(), (0, 7));
        assert!(s.footprint_is_valid());
        let mut w = s.clone();
        w.intersect_with(&t);
        assert_eq!(w, t);
        assert_eq!(w.len(), 2);
    }
}
