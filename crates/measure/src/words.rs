//! Point sets grouped by word: the one encoding behind the dense
//! kernel's weight groups and the sample plan's classes.
//!
//! A *group* is a set of dense bit indices (bit `b` of word `w` is the
//! index `64 · w + b`), held in one of two encodings, picked from the
//! group's own points when it is built:
//!
//! * **dense** — every word of the group's word range `[lo, hi)`, zero
//!   words included, plus `lo`: `4 + 8 · (hi − lo)` bytes;
//! * **pairs** — one `(word, bits)` pair per occupied word: 12 bytes a
//!   pair.
//!
//! A group is dense exactly when that takes no more bytes than its
//! pairs, so a [`WordGroups`] is never larger than the pairs alone.
//! Counting a set's points in a group is `Σ popcount(bits & set[word])`
//! in both encodings; a dense group's zero words add nothing, so the
//! two encodings give the same integer, and a dense count is one
//! contiguous AND-popcount.

/// Groups of points, each dense or as pairs (see the module docs), back
/// to back in three arrays: no allocation per group.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WordGroups {
    /// Per group: the end of its entries in `words` and in `bits`.
    ends: Vec<(u32, u32)>,
    /// A pairs group's word indices, ascending, one per `bits` entry; a
    /// dense group's first word alone.
    words: Vec<u32>,
    /// The groups' words.
    bits: Vec<u64>,
}

/// One group of a [`WordGroups`], as stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupWords<'a> {
    /// `bits[k]` is word `first + k`.
    Dense {
        /// The group's first word.
        first: usize,
        /// Every word of the group's range, zero words included.
        bits: &'a [u64],
    },
    /// `bits[k]` is word `words[k]`; the words ascend.
    Pairs {
        /// The occupied words.
        words: &'a [u32],
        /// Their bits, none zero.
        bits: &'a [u64],
    },
}

/// Whether `pairs` (ascending, nonempty) take the dense encoding.
fn is_dense(pairs: &[(u32, u64)]) -> bool {
    let range = (pairs[pairs.len() - 1].0 - pairs[0].0) as usize + 1;
    4 + 8 * range <= 12 * pairs.len()
}

impl WordGroups {
    /// Encodes each group from its `(word, bits)` pairs — words strictly
    /// ascending, bits nonzero, at least one pair — picking dense or
    /// pairs per group. Every array is allocated once at its exact size.
    ///
    /// # Panics
    ///
    /// Panics if the arrays would pass `u32::MAX` entries.
    pub fn from_groups<'a>(groups: impl Iterator<Item = &'a [(u32, u64)]> + Clone) -> WordGroups {
        let (mut n_groups, mut n_words, mut n_bits) = (0, 0, 0);
        for pairs in groups.clone() {
            n_groups += 1;
            if is_dense(pairs) {
                n_words += 1;
                n_bits += (pairs[pairs.len() - 1].0 - pairs[0].0) as usize + 1;
            } else {
                n_words += pairs.len();
                n_bits += pairs.len();
            }
        }
        let mut out = WordGroups {
            ends: Vec::with_capacity(n_groups),
            words: Vec::with_capacity(n_words),
            bits: Vec::with_capacity(n_bits),
        };
        for pairs in groups {
            if is_dense(pairs) {
                let first = pairs[0].0;
                let at = out.bits.len();
                out.words.push(first);
                out.bits
                    .resize(at + (pairs[pairs.len() - 1].0 - first) as usize + 1, 0);
                for &(w, b) in pairs {
                    out.bits[at + (w - first) as usize] = b;
                }
            } else {
                out.words.extend(pairs.iter().map(|&(w, _)| w));
                out.bits.extend(pairs.iter().map(|&(_, b)| b));
            }
            let end = |n: usize| u32::try_from(n).expect("word groups fit u32 offsets");
            out.ends.push((end(out.words.len()), end(out.bits.len())));
        }
        out
    }

    /// How many groups there are.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no groups.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g >= len()`.
    #[must_use]
    pub fn group(&self, g: usize) -> GroupWords<'_> {
        let (w0, b0) = match g {
            0 => (0, 0),
            _ => self.ends[g - 1],
        };
        let (w1, b1) = self.ends[g];
        let words = &self.words[w0 as usize..w1 as usize];
        let bits = &self.bits[b0 as usize..b1 as usize];
        // Pairs hold a word per entry; a dense group of one word reads
        // the same either way.
        if words.len() == bits.len() {
            GroupWords::Pairs { words, bits }
        } else {
            GroupWords::Dense {
                first: words[0] as usize,
                bits,
            }
        }
    }

    /// The words a query reads at most: every stored word.
    #[must_use]
    pub fn stored_words(&self) -> usize {
        self.bits.len()
    }

    /// Heap bytes of the three arrays.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.ends.capacity() * size_of::<(u32, u32)>()
            + self.words.capacity() * size_of::<u32>()
            + self.bits.capacity() * size_of::<u64>()
    }
}

impl<'a> GroupWords<'a> {
    /// How many of the group's points lie in the set whose global words
    /// are `set`, where the group's word `w` is global word `base + w`.
    /// With a footprint hint `[lo, hi)` — every set word outside it is
    /// zero — only the group's words inside it are read. Words past the
    /// end of `set` read as zero.
    #[must_use]
    pub fn count_in(self, set: &[u64], base: usize, hint: Option<(usize, usize)>) -> u64 {
        let (qlo, qhi) = hint.unwrap_or((0, usize::MAX));
        let qhi = qhi.min(set.len());
        match self {
            GroupWords::Dense { first, bits } => {
                let start = base + first;
                let lo = qlo.max(start);
                let hi = qhi.min(start + bits.len());
                if lo >= hi {
                    return 0;
                }
                bits[lo - start..hi - start]
                    .iter()
                    .zip(&set[lo..hi])
                    .map(|(&b, &s)| u64::from((b & s).count_ones()))
                    .sum()
            }
            GroupWords::Pairs { words, bits } => {
                let lo = words.partition_point(|&w| base + (w as usize) < qlo);
                let hi = words.partition_point(|&w| base + (w as usize) < qhi);
                words[lo..hi]
                    .iter()
                    .zip(&bits[lo..hi])
                    .map(|(&w, &b)| u64::from((b & set[base + w as usize]).count_ones()))
                    .sum()
            }
        }
    }

    /// The group's points as `(word, bits)` pairs, ascending (a dense
    /// group skips its zero words).
    pub fn pairs(self) -> impl Iterator<Item = (usize, u64)> + 'a {
        let (first, words, bits) = match self {
            GroupWords::Dense { first, bits } => (first, None, bits),
            GroupWords::Pairs { words, bits } => (0, Some(words), bits),
        };
        bits.iter()
            .enumerate()
            .filter(|&(_, &b)| b != 0)
            .map(move |(k, &b)| (words.map_or(first + k, |w| w[k] as usize), b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every group is ascending, nonempty, nonzero-bit pairs.
    fn groups() -> Vec<Vec<(u32, u64)>> {
        vec![
            // Dense: a point every 12 bits over words 3..11.
            (3u32..11)
                .map(|w| (w, 0x0010_0100_1001_0010_u64.rotate_left(w)))
                .collect(),
            // Sparse: three words far apart.
            vec![(0, 1), (40, 1 << 63), (90, 0b101)],
            // One word: both encodings read alike.
            vec![(7, 0xff)],
        ]
    }

    #[test]
    fn the_encoding_is_never_larger_than_the_pairs() {
        let gs = groups();
        let enc = WordGroups::from_groups(gs.iter().map(Vec::as_slice));
        assert!(matches!(enc.group(0), GroupWords::Dense { first: 3, bits } if bits.len() == 8));
        assert!(matches!(enc.group(1), GroupWords::Pairs { words, .. } if words.len() == 3));
        assert!(matches!(
            enc.group(2),
            GroupWords::Pairs {
                words: [7],
                bits: [0xff]
            }
        ));
        let pairs: usize = gs.iter().map(Vec::len).sum();
        assert!(enc.heap_bytes() <= gs.len() * 8 + pairs * 12);
        for (g, want) in gs.iter().enumerate() {
            let got: Vec<(usize, u64)> = enc.group(g).pairs().collect();
            let want: Vec<(usize, u64)> = want.iter().map(|&(w, b)| (w as usize, b)).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn counts_match_a_word_by_word_count() {
        let gs = groups();
        let enc = WordGroups::from_groups(gs.iter().map(Vec::as_slice));
        let set: Vec<u64> = (0..100u64)
            .map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        for base in [0, 2] {
            for (g, pairs) in gs.iter().enumerate() {
                let naive = |lo: usize, hi: usize| -> u64 {
                    pairs
                        .iter()
                        .map(|&(w, b)| (base + w as usize, b))
                        .filter(|&(w, _)| (lo..hi).contains(&w))
                        .map(|(w, b)| {
                            u64::from((b & set.get(w).copied().unwrap_or(0)).count_ones())
                        })
                        .sum()
                };
                let group = enc.group(g);
                assert_eq!(group.count_in(&set, base, None), naive(0, usize::MAX));
                for (lo, hi) in [(0, 200), (4, 9), (5, 6), (10, 95), (0, 0), (96, 100)] {
                    assert_eq!(group.count_in(&set, base, Some((lo, hi))), naive(lo, hi));
                }
            }
        }
    }
}
