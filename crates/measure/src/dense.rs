//! The dense measure kernel: word-masked sample layouts with
//! common-denominator integer accumulation.
//!
//! A [`crate::BlockSpace`] answers every measure query by walking its
//! sample element-by-element through the [`crate::MemberSet`] vtable.
//! When both the *sample* and the *queried set* live in one dense bit
//! layout (the `PointSet` of `kpa-system`, exposed through
//! [`crate::MemberSet::member_words`]), the sample can instead be laid
//! out once as word masks, and a query collapses to word-wise tests.
//! A kernel holds one of two layouts, picked at build time from the
//! space's own blocks:
//!
//! * **Blocks.** Each block's trace is a word mask; block `b` is
//!   **inside** `set` iff `trace_b & set == trace_b` (subset test, one
//!   AND + compare per word) and **touched** by `set` iff
//!   `trace_b & set != 0`.
//! * **Points.** When every block is a single point (the sample holds
//!   at most one point per run, as every agent with a clock sees under
//!   the canonical assignments), no block can be straddled: every set
//!   is measurable, inner = outer, and the measure is a weighted count
//!   of the set's points in the sample. The kernel keeps only the
//!   points, grouped by block weight, each group as dense words over
//!   its word range or as `(word, bits)` pairs, whichever is smaller
//!   ([`WordGroups`]), and a query is
//!   `Σ_g n_g · Σ popcount(bits & set[word])`: one contiguous
//!   AND-popcount per dense group.
//!
//! Weights are likewise precomputed: every block weight `w_b = n_b / D`
//! is expressed over one common denominator `D` (the lcm of the block
//! weight denominators), so a measure accumulates plain `u128`
//! numerators and converts to an exact [`Rat`] **once** at the end.
//!
//! # Bit-equality with the generic path
//!
//! [`Rat`] arithmetic is exact and canonical forms are unique, so any
//! two computations of the same rational yield the same bits. The
//! generic path computes `(Σ_{b inside} n_b/D) / (Σ_b n_b/D)`; the
//! kernel computes `Rat::new(Σ_{b inside} n_b, Σ_b n_b)`. These are the
//! same rational number (the `D`s cancel), hence the same canonical
//! `Rat` — the differential suite pins this across the random-system
//! sweep. In the points layout a single-point block is inside the set
//! iff its bit is set, so the group sums add up the same integer the
//! block scan accumulates, and no partial sum can overflow: it is at
//! most `Σ_b n_b ≤ i128::MAX`.
//!
//! A kernel is built from a sample's bits, the block of each bit and
//! the block weights ([`DenseKernel::from_bits`]), so a caller that
//! holds its sample as a bitset builds no generic space on the way;
//! [`DenseKernel::from_space`] feeds it a [`crate::BlockSpace`]'s own
//! tables. Construction returns `None` (callers fall back to the
//! generic scan) if the bits are not strictly ascending (the
//! element→bit mapping is lossy or out of order) or the
//! common-denominator table would overflow `i128` range.
//!
//! # Wide scans and footprint skips
//!
//! The per-block scans run 4×u64 wide ([`scan_trace`] and friends) —
//! plain chunked Rust the autovectorizer widens, bit-identical to the
//! word-at-a-time loop by construction. Each query also accepts an
//! optional *set footprint* hint (the `*_words_in` variants, fed from
//! [`crate::MemberSet::member_footprint`]): a conservative global word
//! range outside which the queried set is all-zero. Blocks whose word
//! span misses the hint are skipped without scanning — their answer is
//! `(inside = false, touched = false)` by construction — and the points
//! layout counts only the group words that lie inside the hint. The
//! `measure.wide_blocks` counter books the blocks actually scanned, so
//! a traced run shows both that the wide path ran and how many blocks
//! the footprint skipped (the gap to `blocks × queries`), and
//! `measure.point_query` books the queries the points layout answered.

use crate::rat::gcd_u128;
use crate::{BlockSpace, MeasureError, Rat, WordGroups};

/// A precomputed word-mask kernel for one [`BlockSpace`].
///
/// Holds the sample in one of two layouts (see the module docs) plus
/// the common-denominator weights. All queries take the queried set's
/// raw words (from [`crate::MemberSet::member_words`]) and never touch
/// the element vtable.
///
/// # Memory
///
/// In the blocks layout a block costs its footprint words plus a fixed
/// 32 bytes (word range, arena offset, weight numerator), whatever the
/// width of the span the sample covers. In the points layout a point
/// costs at most one 12-byte `(word, bits)` pair, shared with the other
/// points of its word and weight — a group held as dense words costs no
/// more than its pairs — plus 24 bytes per distinct weight, so at most
/// 36 bytes where its block would cost 40.
/// See [`DenseKernel::heap_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseKernel {
    /// Index of the first word of the span in the global word layout.
    first_word: usize,
    /// Width of the span in words.
    span_words: usize,
    /// The sample, as block traces or as weighted points.
    layout: Layout,
    /// Σ of the block weight numerators — the normalizer; fits `i128`
    /// by construction.
    total_num: u128,
    /// The words a query scans at most: the blocks layout's trace
    /// arena length, or the points layout's stored words. Computed once
    /// here so tracing a query costs one counter add.
    footprint_words: u64,
}

/// The two ways a kernel holds its sample.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Layout {
    /// Per-block traces: the only layout that can answer a space with
    /// a multi-point block.
    Blocks(Blocks),
    /// Every block is one point: the points, grouped by weight.
    Points(Points),
}

/// Footprint-only block traces, back to back: block `b` owns
/// `traces[trace_at[b] .. trace_at[b] + (hi − lo)]`, the span words
/// `[lo, hi)` of `span[b]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Blocks {
    traces: Vec<u64>,
    /// Per-block nonzero word sub-range `[lo, hi)` within the span:
    /// scans touch only the words a block actually occupies, so a query
    /// costs `O(Σ_b footprint_b)` words, not `O(blocks × span)`.
    span: Vec<(u32, u32)>,
    /// Arena offset of each block's first trace word.
    trace_at: Vec<usize>,
    /// Block weight numerators over the common denominator.
    weight_num: Vec<u128>,
}

/// A single-point sample grouped by block weight: group `g` of
/// `groups` holds the points of weight numerator `weight_num[g]`, as
/// dense span-relative words or as `(word, bits)` pairs, whichever is
/// smaller (see [`WordGroups`]).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Points {
    weight_num: Vec<u128>,
    groups: WordGroups,
}

#[inline]
fn word_at(words: &[u64], i: usize) -> u64 {
    words.get(i).copied().unwrap_or(0)
}

/// Scans one block trace against the queried set's words, 4×u64 wide
/// with a scalar tail: `(inside, touched)`. `base` is the global word
/// index of `trace[0]`. Exits as soon as both answers are determined.
/// Zero trace words contribute nothing, so the wide loop needs no
/// per-word skip to stay bit-identical to the narrow scan.
#[inline]
fn scan_trace(trace: &[u64], words: &[u64], base: usize) -> (bool, bool) {
    let mut inside = true;
    let mut touched = false;
    let mut chunks = trace.chunks_exact(4);
    let mut k = base;
    for t in &mut chunks {
        let h0 = t[0] & word_at(words, k);
        let h1 = t[1] & word_at(words, k + 1);
        let h2 = t[2] & word_at(words, k + 2);
        let h3 = t[3] & word_at(words, k + 3);
        if h0 | h1 | h2 | h3 != 0 {
            touched = true;
        }
        if (h0 ^ t[0]) | (h1 ^ t[1]) | (h2 ^ t[2]) | (h3 ^ t[3]) != 0 {
            inside = false;
        }
        if !inside && touched {
            return (false, true);
        }
        k += 4;
    }
    for &t in chunks.remainder() {
        let h = t & word_at(words, k);
        if h != 0 {
            touched = true;
        }
        if h != t {
            inside = false;
        }
        if !inside && touched {
            return (false, true);
        }
        k += 1;
    }
    (inside, touched)
}

/// Whether the trace is a subset of the queried words (`t & w == t`
/// everywhere), 4×u64 wide.
#[inline]
fn trace_subset(trace: &[u64], words: &[u64], base: usize) -> bool {
    let mut chunks = trace.chunks_exact(4);
    let mut k = base;
    for t in &mut chunks {
        let m0 = t[0] & !word_at(words, k);
        let m1 = t[1] & !word_at(words, k + 1);
        let m2 = t[2] & !word_at(words, k + 2);
        let m3 = t[3] & !word_at(words, k + 3);
        if m0 | m1 | m2 | m3 != 0 {
            return false;
        }
        k += 4;
    }
    for &t in chunks.remainder() {
        if t & !word_at(words, k) != 0 {
            return false;
        }
        k += 1;
    }
    true
}

/// Whether the trace meets the queried words anywhere, 4×u64 wide.
#[inline]
fn trace_touches(trace: &[u64], words: &[u64], base: usize) -> bool {
    let mut chunks = trace.chunks_exact(4);
    let mut k = base;
    for t in &mut chunks {
        let h0 = t[0] & word_at(words, k);
        let h1 = t[1] & word_at(words, k + 1);
        let h2 = t[2] & word_at(words, k + 2);
        let h3 = t[3] & word_at(words, k + 3);
        if h0 | h1 | h2 | h3 != 0 {
            return true;
        }
        k += 4;
    }
    for &t in chunks.remainder() {
        if t & word_at(words, k) != 0 {
            return true;
        }
        k += 1;
    }
    false
}

impl Blocks {
    /// Lays each block's footprint out back to back, then sets the
    /// bits. `bits` are the sample's span-relative bit indices.
    fn new(bits: &[usize], block_of: &[usize], weight_num: Vec<u128>) -> Blocks {
        let mut span = vec![(u32::MAX, 0u32); weight_num.len()];
        for (i, &bit) in bits.iter().enumerate() {
            let w = (bit / 64) as u32;
            let (lo, hi) = &mut span[block_of[i]];
            *lo = (*lo).min(w);
            *hi = (*hi).max(w + 1);
        }
        let mut trace_at = Vec::with_capacity(span.len());
        let mut footprint = 0usize;
        for &(lo, hi) in &span {
            trace_at.push(footprint);
            footprint += (hi - lo) as usize;
        }
        let mut traces = vec![0u64; footprint];
        for (i, &bit) in bits.iter().enumerate() {
            let b = block_of[i];
            let w = bit / 64 - span[b].0 as usize;
            traces[trace_at[b] + w] |= 1u64 << (bit % 64);
        }
        Blocks {
            traces,
            span,
            trace_at,
            weight_num,
        }
    }

    /// The nonzero words of block `b`'s trace and the span offset of the
    /// first: only the words a block actually occupies are stored, and
    /// only those are scanned.
    #[inline]
    fn trace_of(&self, b: usize) -> (usize, &[u64]) {
        let (lo, hi) = self.span[b];
        let at = self.trace_at[b];
        (lo as usize, &self.traces[at..at + (hi - lo) as usize])
    }
}

impl Points {
    /// Groups the sample's points by their block's weight numerator.
    /// `bits` are span-relative bit indices; every block is one point,
    /// so `block_of` is a bijection onto `weight_num`.
    fn new(bits: &[usize], block_of: &[usize], weight_num: &[u128]) -> Points {
        let mut keyed: Vec<(u128, usize)> = bits
            .iter()
            .zip(block_of)
            .map(|(&bit, &b)| (weight_num[b], bit))
            .collect();
        // A sample arrives in point order, which is bit order, so with
        // one weight (the usual case) this sort only confirms it.
        keyed.sort_unstable();
        // Each group's `(word, bits)` pairs, back to back; `starts`
        // opens each group. The weights are counted first, so their
        // table is allocated once at its exact size.
        let new_group = |i: usize| i == 0 || keyed[i].0 != keyed[i - 1].0;
        let mut group_num = Vec::with_capacity((0..keyed.len()).filter(|&i| new_group(i)).count());
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        let mut starts = Vec::new();
        for (i, &(n, bit)) in keyed.iter().enumerate() {
            let word = (bit / 64) as u32;
            if new_group(i) {
                group_num.push(n);
                starts.push(pairs.len());
                pairs.push((word, 0));
            } else if pairs[pairs.len() - 1].0 != word {
                pairs.push((word, 0));
            }
            pairs.last_mut().expect("a pair per point").1 |= 1u64 << (bit % 64);
        }
        starts.push(pairs.len());
        let groups = WordGroups::from_groups(starts.windows(2).map(|w| &pairs[w[0]..w[1]]));
        Points {
            weight_num: group_num,
            groups,
        }
    }

    /// `Σ_g n_g · |group g ∩ set|`: the weight numerator of the sample
    /// points in the set. With a footprint hint, only the group words
    /// inside it are read.
    fn weight_in(&self, first_word: usize, words: &[u64], hint: Option<(usize, usize)>) -> u128 {
        let mut num: u128 = 0;
        for (g, &n) in self.weight_num.iter().enumerate() {
            let count = self.groups.group(g).count_in(words, first_word, hint);
            num += n * u128::from(count);
        }
        num
    }
}

/// Each block weight as a numerator over the lcm `D` of the weight
/// denominators, and their sum; `None` when `D`, a numerator or the
/// sum passes `i128::MAX`.
fn weight_table(block_weight: &[Rat]) -> Option<(Vec<u128>, u128)> {
    let mut denom: u128 = 1;
    for w in block_weight {
        let d = w.denom() as u128;
        denom = denom.checked_mul(d / gcd_u128(denom, d))?;
    }
    let mut weight_num = Vec::with_capacity(block_weight.len());
    let mut total_num: u128 = 0;
    for w in block_weight {
        // Block weights are strictly positive by construction.
        let n = (w.numer() as u128).checked_mul(denom / w.denom() as u128)?;
        total_num = total_num.checked_add(n)?;
        weight_num.push(n);
    }
    (total_num <= i128::MAX as u128).then_some((weight_num, total_num))
}

impl DenseKernel {
    /// Builds the kernel of a sample laid out in the dense bit layout:
    /// `bits[k]` is the bit index of the sample's `k`-th element,
    /// strictly ascending (as a set's bits are), `block_of[k]` is that
    /// element's block, and `block_weight[b]` is the weight of block
    /// `b`. Blocks are numbered by first element, partition the sample
    /// and weigh more than zero. A sample whose blocks are all single
    /// points gets the points layout, any other the blocks layout.
    ///
    /// The bits must agree with the word layout of the sets that will
    /// be queried (bit `i` of word `i / 64` ⇔ dense index `i`). Returns
    /// `None` — callers keep the generic path — when:
    ///
    /// * `bits` is empty or not strictly ascending (a repeated bit
    ///   would corrupt the trace masks), or
    /// * the common-denominator weight table overflows (`lcm` of the
    ///   weight denominators, any scaled numerator, or their sum exceeds
    ///   `i128::MAX`).
    #[must_use]
    pub fn from_bits(
        mut bits: Vec<usize>,
        block_of: &[usize],
        block_weight: &[Rat],
    ) -> Option<DenseKernel> {
        debug_assert_eq!(bits.len(), block_of.len(), "a block per element");
        let (&min_bit, &max_bit) = (bits.first()?, bits.last()?);
        if bits.windows(2).any(|w| w[0] >= w[1]) {
            kpa_trace::count!("measure.kernel_reject_lossy");
            return None;
        }
        let first_word = min_bit / 64;
        let span_words = max_bit / 64 - first_word + 1;

        // Overflow anywhere in the weight table ⇒ fall back to the
        // generic scan (counted, so the bench can prove the dense path
        // ran).
        let Some((weight_num, total_num)) = weight_table(block_weight) else {
            kpa_trace::count!("measure.kernel_reject_overflow");
            return None;
        };
        // From here on bits are span-relative.
        for bit in &mut bits {
            *bit -= first_word * 64;
        }
        // Blocks partition the sample and none is empty, so as many
        // blocks as elements means every block is one point.
        let (layout, footprint_words) = if weight_num.len() == bits.len() {
            let points = Points::new(&bits, block_of, &weight_num);
            let stored = points.groups.stored_words();
            (Layout::Points(points), stored)
        } else {
            let blocks = Blocks::new(&bits, block_of, weight_num);
            let footprint = blocks.traces.len();
            (Layout::Blocks(blocks), footprint)
        };
        let footprint_words = footprint_words as u64;
        kpa_trace::count!("measure.kernel_built");
        kpa_trace::record!("measure.kernel_footprint_words", footprint_words);
        Some(DenseKernel {
            first_word,
            span_words,
            layout,
            total_num,
            footprint_words,
        })
    }

    /// Builds the kernel for `space`, mapping each sample element to its
    /// dense bit index via `bit_of`: [`DenseKernel::from_bits`] over
    /// the space's elements, blocks and block weights. Returns `None`
    /// when `bit_of` returns `None` for some element or does not keep
    /// the elements' order (two elements on one bit, or out of order),
    /// and when the weight table overflows.
    #[must_use]
    pub fn from_space<E: Ord + Clone>(
        space: &BlockSpace<E>,
        bit_of: impl FnMut(&E) -> Option<usize>,
    ) -> Option<DenseKernel> {
        let bits = space.elems.iter().map(bit_of).collect::<Option<Vec<_>>>()?;
        DenseKernel::from_bits(bits, &space.block_of, &space.block_weight)
    }

    /// The number of blocks the kernel covers.
    #[must_use]
    pub fn block_count(&self) -> usize {
        match &self.layout {
            Layout::Blocks(b) => b.weight_num.len(),
            Layout::Points(p) => (0..p.groups.len())
                .flat_map(|g| p.groups.group(g).pairs())
                .map(|(_, b)| b.count_ones() as usize)
                .sum(),
        }
    }

    /// The word span `[first_word, first_word + span_words)` the sample
    /// occupies in the global layout.
    #[must_use]
    pub fn word_span(&self) -> (usize, usize) {
        (self.first_word, self.span_words)
    }

    /// Heap bytes the kernel holds, for the one layout it holds: the
    /// footprint-only trace arena plus a fixed 32 bytes per block, or
    /// the weight groups' words. The blocks layout does not depend on
    /// the span width, and the points layout never exceeds its pairs.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match &self.layout {
            Layout::Blocks(b) => {
                b.traces.capacity() * size_of::<u64>()
                    + b.span.capacity() * size_of::<(u32, u32)>()
                    + b.trace_at.capacity() * size_of::<usize>()
                    + b.weight_num.capacity() * size_of::<u128>()
            }
            Layout::Points(p) => {
                p.weight_num.capacity() * size_of::<u128>() + p.groups.heap_bytes()
            }
        }
    }

    /// Whether block `b` cannot intersect a set whose non-zero words
    /// all lie in the global word range `hint` (a
    /// [`crate::MemberSet::member_footprint`]). For such a block the
    /// scan answer is `(false, false)` by construction — every trace is
    /// non-empty, and the set is zero across all of it — so queries
    /// skip the scan entirely.
    #[inline]
    fn block_misses(&self, blocks: &Blocks, b: usize, hint: Option<(usize, usize)>) -> bool {
        match hint {
            Some((qlo, qhi)) => {
                let (lo, hi) = blocks.span[b];
                self.first_word + (hi as usize) <= qlo || self.first_word + (lo as usize) >= qhi
            }
            None => false,
        }
    }

    /// Scans block `b` against the set's words: `(inside, touched)`,
    /// via the 4×u64-wide [`scan_trace`] over the block's non-zero
    /// word sub-range.
    #[inline]
    fn scan(&self, blocks: &Blocks, b: usize, words: &[u64]) -> (bool, bool) {
        let (lo, trace) = blocks.trace_of(b);
        scan_trace(trace, words, self.first_word + lo)
    }

    /// Trace hook shared by the five query entry points: one query
    /// counter plus the precomputed word footprint (an upper bound on
    /// words scanned; scans may early-exit), and one more counter when
    /// the points layout answers. A few relaxed loads when tracing is
    /// off — never a pass over the layout.
    #[inline]
    fn trace_query(&self) {
        kpa_trace::count!("measure.dense_query");
        kpa_trace::count!("measure.kernel_words", self.footprint_words);
        if let Layout::Points(_) = self.layout {
            kpa_trace::count!("measure.point_query");
        }
    }

    /// Converts an accumulated numerator to the exact probability.
    #[inline]
    fn ratio(&self, num: u128) -> Rat {
        // num ≤ total_num ≤ i128::MAX by construction.
        Rat::new(num as i128, self.total_num as i128)
    }

    /// Books the wide-scan block tally for one finished query: how many
    /// block traces the 4×u64 scan actually walked (skipped blocks are
    /// not counted — the gap below `block_count` is the footprint win).
    #[inline]
    fn trace_scanned(scanned: u64) {
        kpa_trace::count!("measure.wide_blocks", scanned);
    }

    /// Word-wise [`BlockSpace::measure`]: single fused pass with early
    /// exit at the first straddling block.
    ///
    /// # Errors
    ///
    /// Returns [`MeasureError::NonMeasurable`] exactly when the generic
    /// path would.
    pub fn measure_words(&self, words: &[u64]) -> Result<Rat, MeasureError> {
        self.measure_words_in(words, None)
    }

    /// [`DenseKernel::measure_words`] with a set-footprint hint: blocks
    /// whose word span misses `hint` are skipped unscanned (they cannot
    /// meet the set, so they neither count nor straddle).
    ///
    /// # Errors
    ///
    /// Returns [`MeasureError::NonMeasurable`] exactly when the generic
    /// path would.
    pub fn measure_words_in(
        &self,
        words: &[u64],
        hint: Option<(usize, usize)>,
    ) -> Result<Rat, MeasureError> {
        self.trace_query();
        let blocks = match &self.layout {
            Layout::Points(p) => return Ok(self.ratio(p.weight_in(self.first_word, words, hint))),
            Layout::Blocks(b) => b,
        };
        let mut num: u128 = 0;
        let mut scanned = 0u64;
        for b in 0..blocks.weight_num.len() {
            if self.block_misses(blocks, b, hint) {
                continue;
            }
            scanned += 1;
            let (inside, touched) = self.scan(blocks, b, words);
            if touched && !inside {
                Self::trace_scanned(scanned);
                return Err(MeasureError::NonMeasurable);
            }
            if inside {
                num += blocks.weight_num[b];
            }
        }
        Self::trace_scanned(scanned);
        Ok(self.ratio(num))
    }

    /// Word-wise [`BlockSpace::inner_measure`].
    #[must_use]
    pub fn inner_measure_words(&self, words: &[u64]) -> Rat {
        self.inner_measure_words_in(words, None)
    }

    /// [`DenseKernel::inner_measure_words`] with a set-footprint hint.
    #[must_use]
    pub fn inner_measure_words_in(&self, words: &[u64], hint: Option<(usize, usize)>) -> Rat {
        self.trace_query();
        let blocks = match &self.layout {
            Layout::Points(p) => return self.ratio(p.weight_in(self.first_word, words, hint)),
            Layout::Blocks(b) => b,
        };
        let mut num: u128 = 0;
        let mut scanned = 0u64;
        for b in 0..blocks.weight_num.len() {
            if self.block_misses(blocks, b, hint) {
                continue;
            }
            scanned += 1;
            let (lo, trace) = blocks.trace_of(b);
            if trace_subset(trace, words, self.first_word + lo) {
                num += blocks.weight_num[b];
            }
        }
        Self::trace_scanned(scanned);
        self.ratio(num)
    }

    /// Word-wise [`BlockSpace::outer_measure`].
    #[must_use]
    pub fn outer_measure_words(&self, words: &[u64]) -> Rat {
        self.outer_measure_words_in(words, None)
    }

    /// [`DenseKernel::outer_measure_words`] with a set-footprint hint.
    #[must_use]
    pub fn outer_measure_words_in(&self, words: &[u64], hint: Option<(usize, usize)>) -> Rat {
        self.trace_query();
        let blocks = match &self.layout {
            Layout::Points(p) => return self.ratio(p.weight_in(self.first_word, words, hint)),
            Layout::Blocks(b) => b,
        };
        let mut num: u128 = 0;
        let mut scanned = 0u64;
        for b in 0..blocks.weight_num.len() {
            if self.block_misses(blocks, b, hint) {
                continue;
            }
            scanned += 1;
            let (lo, trace) = blocks.trace_of(b);
            if trace_touches(trace, words, self.first_word + lo) {
                num += blocks.weight_num[b];
            }
        }
        Self::trace_scanned(scanned);
        self.ratio(num)
    }

    /// Word-wise fused [`BlockSpace::measure_interval`]: one pass over
    /// the layout accumulates both bounds.
    #[must_use]
    pub fn measure_interval_words(&self, words: &[u64]) -> (Rat, Rat) {
        self.measure_interval_words_in(words, None)
    }

    /// [`DenseKernel::measure_interval_words`] with a set-footprint
    /// hint.
    #[must_use]
    pub fn measure_interval_words_in(
        &self,
        words: &[u64],
        hint: Option<(usize, usize)>,
    ) -> (Rat, Rat) {
        self.trace_query();
        let blocks = match &self.layout {
            Layout::Points(p) => {
                let mu = self.ratio(p.weight_in(self.first_word, words, hint));
                return (mu, mu);
            }
            Layout::Blocks(b) => b,
        };
        let mut lo: u128 = 0;
        let mut hi: u128 = 0;
        let mut scanned = 0u64;
        for b in 0..blocks.weight_num.len() {
            if self.block_misses(blocks, b, hint) {
                continue;
            }
            scanned += 1;
            let (inside, touched) = self.scan(blocks, b, words);
            if inside {
                lo += blocks.weight_num[b];
            }
            if touched {
                hi += blocks.weight_num[b];
            }
        }
        Self::trace_scanned(scanned);
        (self.ratio(lo), self.ratio(hi))
    }

    /// Word-wise [`BlockSpace::is_measurable`]: always true in the
    /// points layout.
    #[must_use]
    pub fn is_measurable_words(&self, words: &[u64]) -> bool {
        self.is_measurable_words_in(words, None)
    }

    /// [`DenseKernel::is_measurable_words`] with a set-footprint hint.
    /// Skipped blocks are vacuously clean: `(false, false)` scans are
    /// measurable.
    #[must_use]
    pub fn is_measurable_words_in(&self, words: &[u64], hint: Option<(usize, usize)>) -> bool {
        self.trace_query();
        let Layout::Blocks(blocks) = &self.layout else {
            return true;
        };
        let mut scanned = 0u64;
        let mut ok = true;
        for b in 0..blocks.weight_num.len() {
            if self.block_misses(blocks, b, hint) {
                continue;
            }
            scanned += 1;
            let (inside, touched) = self.scan(blocks, b, words);
            if inside != touched {
                ok = false;
                break;
            }
        }
        Self::trace_scanned(scanned);
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat;
    use std::collections::BTreeSet;

    /// The module-doc two-toss space over dense u32 elements: runs
    /// hh/ht/th/tt (blocks 0..4), elements 2b (time 1) and 2b+1 (time 2).
    fn two_toss() -> (BlockSpace<u32>, DenseKernel) {
        let elems = (0u32..4).flat_map(|b| [2 * b, 2 * b + 1].map(move |e| (e, b)));
        let space = BlockSpace::new(elems, |_| rat!(1 / 4)).unwrap();
        let kernel = DenseKernel::from_space(&space, |&e| Some(e as usize)).unwrap();
        (space, kernel)
    }

    fn words_of(set: &BTreeSet<u32>) -> Vec<u64> {
        let mut words = Vec::new();
        for &e in set {
            let (w, b) = (e as usize / 64, e as usize % 64);
            if words.len() <= w {
                words.resize(w + 1, 0);
            }
            words[w] |= 1u64 << b;
        }
        words
    }

    #[test]
    fn kernel_matches_generic_on_the_two_toss_space() {
        let (space, kernel) = two_toss();
        // Every subset of the 8-element sample (and a few out-of-sample
        // bits via 200..): exhaustive differential check.
        for mask in 0u32..256 {
            let set: BTreeSet<u32> = (0..8).filter(|i| mask & (1 << i) != 0).collect();
            let words = words_of(&set);
            assert_eq!(kernel.measure_words(&words), space.measure(&set));
            assert_eq!(
                kernel.inner_measure_words(&words),
                space.inner_measure(&set)
            );
            assert_eq!(
                kernel.outer_measure_words(&words),
                space.outer_measure(&set)
            );
            assert_eq!(
                kernel.measure_interval_words(&words),
                space.measure_interval(&set)
            );
            assert_eq!(
                kernel.is_measurable_words(&words),
                space.is_measurable(&set)
            );
        }
    }

    #[test]
    fn out_of_sample_bits_are_ignored() {
        let (space, kernel) = two_toss();
        let set: BTreeSet<u32> = [0, 1, 200].into_iter().collect();
        let words = words_of(&set);
        // Bit 200 lies past the span; both paths intersect with the
        // sample first.
        assert_eq!(kernel.measure_words(&words), space.measure(&set));
        assert_eq!(kernel.measure_words(&[]), Ok(Rat::ZERO));
    }

    #[test]
    fn heterogeneous_weights_share_a_common_denominator() {
        let elems = [(0u32, 0u8), (1, 0), (2, 1), (3, 2)];
        let space = BlockSpace::new(elems, |&b| {
            [rat!(1 / 2), rat!(1 / 3), rat!(1 / 12)][b as usize]
        })
        .unwrap();
        let kernel = DenseKernel::from_space(&space, |&e| Some(e as usize)).unwrap();
        for mask in 0u32..16 {
            let set: BTreeSet<u32> = (0..4).filter(|i| mask & (1 << i) != 0).collect();
            let words = words_of(&set);
            assert_eq!(kernel.measure_words(&words), space.measure(&set));
            assert_eq!(
                kernel.measure_interval_words(&words),
                space.measure_interval(&set)
            );
        }
    }

    #[test]
    fn construction_rejects_lossy_layouts() {
        let space = BlockSpace::new([(0u32, 0u8), (1, 0)], |_| Rat::ONE).unwrap();
        // Both elements map to bit 0.
        assert!(DenseKernel::from_space(&space, |_| Some(0)).is_none());
        // Unmappable element.
        assert!(DenseKernel::from_space(&space, |_| None).is_none());
        // Out of element order.
        assert!(DenseKernel::from_space(&space, |&e| Some(1 - e as usize)).is_none());
        assert!(DenseKernel::from_bits(Vec::new(), &[], &[]).is_none());
        // The space's own tables through `from_bits` give the same
        // kernel as `from_space`.
        let (space, kernel) = two_toss();
        let bits = (0..8).collect();
        let direct = DenseKernel::from_bits(bits, &space.block_of, &space.block_weight);
        assert_eq!(direct, Some(kernel));
    }

    #[test]
    fn construction_rejects_overflowing_weight_tables() {
        // Telescoping weights keep every generic partial sum small
        // (1/a + (a−1)/a reduces to 1 before 1/b joins), so the space
        // builds fine — but the kernel's common denominator is the full
        // lcm(a, b) = a·b ≈ 2¹⁸⁰, which overflows u128 and must trip
        // the fallback.
        let a = 1i128 << 90;
        let b = a - 1; // consecutive ⇒ coprime with a
        let space = BlockSpace::new([(0u32, 0u8), (1, 1), (2, 2)], |&blk| match blk {
            0 => Rat::new(1, a),
            1 => Rat::new(a - 1, a),
            _ => Rat::new(1, b),
        })
        .unwrap();
        assert_eq!(space.total_weight(), Rat::new(b + 1, b));
        assert!(DenseKernel::from_space(&space, |&e| Some(e as usize)).is_none());
    }

    #[test]
    fn footprint_hints_preserve_every_answer() {
        let (_, kernel) = two_toss();
        for mask in 0u32..256 {
            let set: BTreeSet<u32> = (0..8).filter(|i| mask & (1 << i) != 0).collect();
            let words = words_of(&set);
            // The exact footprint of the words, plus a deliberately
            // loose one: both must leave every answer unchanged.
            let exact = match words.iter().position(|&w| w != 0) {
                None => (0, 0),
                Some(l) => (l, words.iter().rposition(|&w| w != 0).unwrap() + 1),
            };
            for hint in [Some(exact), Some((0, 1000)), None] {
                assert_eq!(
                    kernel.measure_words_in(&words, hint),
                    kernel.measure_words(&words)
                );
                assert_eq!(
                    kernel.inner_measure_words_in(&words, hint),
                    kernel.inner_measure_words(&words)
                );
                assert_eq!(
                    kernel.outer_measure_words_in(&words, hint),
                    kernel.outer_measure_words(&words)
                );
                assert_eq!(
                    kernel.measure_interval_words_in(&words, hint),
                    kernel.measure_interval_words(&words)
                );
                assert_eq!(
                    kernel.is_measurable_words_in(&words, hint),
                    kernel.is_measurable_words(&words)
                );
            }
        }
        // A hint disjoint from the whole span skips every block: the
        // set (whatever lies inside the hint) cannot meet the sample.
        assert_eq!(
            kernel.measure_words_in(&[0, 0, 0, 1], Some((3, 4))),
            Ok(Rat::ZERO)
        );
        assert!(kernel.is_measurable_words_in(&[0, 0, 0, 1], Some((3, 4))));
    }

    /// Six blocks far apart in a 99-word span that starts at word 2:
    /// single-word blocks at both ends (block 0 sharing its word with
    /// block 1), a block straddling words 5–7, one spanning words 15–17
    /// with a zero middle word, and a lone block in between.
    fn wide_span() -> (BlockSpace<u32>, DenseKernel) {
        let elems = [
            (130u32, 0u8),
            (135, 0),
            (140, 1),
            (383, 2),
            (400, 2),
            (448, 2),
            (1000, 3),
            (1100, 3),
            (3000, 4),
            (6400, 5),
            (6463, 5),
        ];
        let space = BlockSpace::new(elems, |&b| {
            [
                rat!(1 / 2),
                rat!(1 / 3),
                rat!(1 / 12),
                rat!(1 / 7),
                rat!(1 / 11),
                rat!(1 / 5),
            ][b as usize]
        })
        .unwrap();
        let kernel = DenseKernel::from_space(&space, |&e| Some(e as usize)).unwrap();
        (space, kernel)
    }

    #[test]
    fn footprint_only_traces_match_generic_on_a_wide_span() {
        let (space, kernel) = wide_span();
        assert_eq!(kernel.word_span(), (2, 99));
        assert_eq!(kernel.footprint_words, 10);
        let sample = &space.elems;
        // Every subset of the 11-element sample, with and without its
        // exact footprint hint: exhaustive differential check.
        for mask in 0u32..1 << sample.len() {
            let set: BTreeSet<u32> = (0..sample.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| sample[i])
                .collect();
            let words = words_of(&set);
            let exact = match words.iter().position(|&w| w != 0) {
                None => (0, 0),
                Some(l) => (l, words.iter().rposition(|&w| w != 0).unwrap() + 1),
            };
            for hint in [None, Some(exact)] {
                assert_eq!(kernel.measure_words_in(&words, hint), space.measure(&set));
                assert_eq!(
                    kernel.inner_measure_words_in(&words, hint),
                    space.inner_measure(&set)
                );
                assert_eq!(
                    kernel.outer_measure_words_in(&words, hint),
                    space.outer_measure(&set)
                );
                assert_eq!(
                    kernel.measure_interval_words_in(&words, hint),
                    space.measure_interval(&set)
                );
                assert_eq!(
                    kernel.is_measurable_words_in(&words, hint),
                    space.is_measurable(&set)
                );
            }
        }
    }

    #[test]
    fn heap_bytes_follow_the_footprint_not_the_span() {
        // At most a constant per block plus 8 B per footprint word and
        // per span word. A blocks × span layout (6 × 99 words here)
        // cannot meet it.
        const PER_BLOCK: usize = 32;
        let (_, kernel) = wide_span();
        let (_, span) = kernel.word_span();
        let bound =
            PER_BLOCK * kernel.block_count() + 8 * kernel.footprint_words as usize + 8 * span;
        assert!(
            kernel.heap_bytes() <= bound,
            "{} heap bytes exceed the footprint bound {bound}",
            kernel.heap_bytes()
        );
        assert!(kernel.heap_bytes() >= 8 * kernel.footprint_words as usize);
    }

    /// Twelve single-point blocks over words 2–6 (word 5 empty), with
    /// four distinct weights interleaved within and across words.
    fn single_points() -> (BlockSpace<u32>, DenseKernel) {
        let elems = [
            130u32, 131, 140, 191, 192, 200, 255, 260, 300, 400, 401, 447,
        ];
        let weights = [rat!(1 / 2), rat!(1 / 3), rat!(1 / 12), rat!(1 / 7)];
        let space = BlockSpace::new(elems.map(|e| (e, e)), |&e| {
            weights[elems.iter().position(|&x| x == e).unwrap() % 4]
        })
        .unwrap();
        let kernel = DenseKernel::from_space(&space, |&e| Some(e as usize)).unwrap();
        (space, kernel)
    }

    #[test]
    fn single_point_layout_matches_generic() {
        let (space, kernel) = single_points();
        let Layout::Points(points) = &kernel.layout else {
            panic!("a space of single-point blocks must take the points layout");
        };
        assert_eq!(points.weight_num.len(), 4);
        assert_eq!(kernel.word_span(), (2, 5));
        assert_eq!(kernel.block_count(), 12);
        let sample = &space.elems;
        for mask in 0u32..1 << sample.len() {
            let set: BTreeSet<u32> = (0..sample.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| sample[i])
                .collect();
            let words = words_of(&set);
            let tight = match words.iter().position(|&w| w != 0) {
                None => (0, 0),
                Some(l) => (l, words.iter().rposition(|&w| w != 0).unwrap() + 1),
            };
            for hint in [Some(tight), Some((0, 1000)), None] {
                assert_eq!(kernel.measure_words_in(&words, hint), space.measure(&set));
                assert_eq!(
                    kernel.inner_measure_words_in(&words, hint),
                    space.inner_measure(&set)
                );
                assert_eq!(
                    kernel.outer_measure_words_in(&words, hint),
                    space.outer_measure(&set)
                );
                assert_eq!(
                    kernel.measure_interval_words_in(&words, hint),
                    space.measure_interval(&set)
                );
                assert_eq!(
                    kernel.is_measurable_words_in(&words, hint),
                    space.is_measurable(&set)
                );
            }
        }
        // One pair per occupied (word, weight), far below the blocks
        // layout's 32 B per block.
        assert!(kernel.heap_bytes() < 32 * kernel.block_count());
    }

    /// Two weights over single points, with the span starting at word
    /// 1: weight 1/3 one point every 12 bits over words 3–12 (a dense
    /// group), weight 1/7 five points over words 1–40 (a sparse group).
    fn dense_and_sparse() -> (BlockSpace<u32>, DenseKernel) {
        const SPARSE: [u32; 5] = [70, 100, 1000, 2000, 2600];
        let elems: Vec<u32> = (3 * 64..13 * 64).step_by(12).chain(SPARSE).collect();
        let space = BlockSpace::new(elems.iter().map(|&e| (e, e)), |e| {
            if SPARSE.contains(e) {
                rat!(1 / 7)
            } else {
                rat!(1 / 3)
            }
        })
        .unwrap();
        let kernel = DenseKernel::from_space(&space, |&e| Some(e as usize)).unwrap();
        (space, kernel)
    }

    #[test]
    fn dense_and_sparse_groups_match_generic() {
        let (space, kernel) = dense_and_sparse();
        let Layout::Points(points) = &kernel.layout else {
            panic!("a space of single-point blocks must take the points layout");
        };
        let kinds: Vec<bool> = (0..points.groups.len())
            .map(|g| matches!(points.groups.group(g), crate::GroupWords::Dense { .. }))
            .collect();
        // Groups ascend by weight numerator: 1/7 = 3/21, then 1/3 = 7/21.
        assert_eq!(kinds, [false, true], "one sparse group, one dense");
        assert_eq!(kernel.word_span(), (1, 40));
        let sample = &space.elems;
        let check = |set: &BTreeSet<u32>, hint: Option<(usize, usize)>| {
            let words = words_of(set);
            let at = format!("{hint:?} on {set:?}");
            assert_eq!(
                kernel.measure_words_in(&words, hint),
                space.measure(set),
                "{at}"
            );
            assert_eq!(
                kernel.inner_measure_words_in(&words, hint),
                space.inner_measure(set),
                "{at}"
            );
            assert_eq!(
                kernel.outer_measure_words_in(&words, hint),
                space.outer_measure(set),
                "{at}"
            );
            assert_eq!(
                kernel.measure_interval_words_in(&words, hint),
                space.measure_interval(set),
                "{at}"
            );
            assert_eq!(
                kernel.is_measurable_words_in(&words, hint),
                space.is_measurable(set),
                "{at}"
            );
        };
        let mut rng = crate::Rng64::new(12);
        for _ in 0..300 {
            // A random subset of the sample, plus a stray bit off it.
            let mut set: BTreeSet<u32> = sample
                .iter()
                .copied()
                .filter(|_| rng.chance(1, 2))
                .collect();
            set.insert(rng.below(3000) as u32 | 1);
            let words = words_of(&set);
            let lo = words.iter().position(|&w| w != 0).unwrap();
            let tight = (lo, words.iter().rposition(|&w| w != 0).unwrap() + 1);
            for hint in [None, Some(tight), Some((0, 1000))] {
                check(&set, hint);
            }
            // Hints that start or end inside the dense words 3–12, with
            // the set cut to the hint.
            for hint in [(5, 9), (3, 8), (7, 13), (0, 6), (9, 41)] {
                let inside = set
                    .iter()
                    .copied()
                    .filter(|&e| (hint.0..hint.1).contains(&(e as usize / 64)))
                    .collect();
                check(&inside, Some(hint));
            }
        }
        // Never more than the same points as `(word, bits)` pairs: a
        // weight and two group ends per group, 12 B per pair.
        let pairs: BTreeSet<(bool, u32)> = sample
            .iter()
            .map(|&e| ((192..832).contains(&e), e / 64))
            .collect();
        let as_pairs = 2 * (size_of::<u128>() + 8) + 12 * pairs.len();
        assert!(
            kernel.heap_bytes() <= as_pairs,
            "{} heap bytes exceed the {as_pairs} B of pairs",
            kernel.heap_bytes()
        );
    }

    #[test]
    fn span_offset_is_respected() {
        // Sample far from bit 0: words below the span read as zero.
        let elems = (1000u32..1008).map(|e| (e, (e - 1000) / 2));
        let space = BlockSpace::new(elems, |_| rat!(1 / 4)).unwrap();
        let kernel = DenseKernel::from_space(&space, |&e| Some(e as usize)).unwrap();
        let (first, span) = kernel.word_span();
        assert_eq!(first, 1000 / 64);
        assert!(span >= 1);
        let set: BTreeSet<u32> = [1000, 1001, 1004].into_iter().collect();
        let words = words_of(&set);
        assert_eq!(kernel.measure_words(&words), space.measure(&set));
        assert_eq!(
            kernel.measure_interval_words(&words),
            space.measure_interval(&set)
        );
    }
}
