//! Minimal encoding-length merging (Algorithms 1 and 2 of the paper).
//!
//! Given two clusters' wildcard sequences `cs_x`, `cs_y` and their member
//! counts, [`min_encoding_length_increment`] computes the encoding-length
//! increment (Definition 3) of merging them under the monotonic `VARCHAR`
//! encoding model, and [`merge`] additionally reconstructs the merged
//! wildcard sequence by tracing the optimal alignment back.
//!
//! The dynamic program is the monotonic-encoder specialisation (Problem 3):
//! each cell only consults its three neighbours, so the cost is `O(n·m)`
//! instead of the `O(|F|·(N+M)·n²·m²)` of the general algorithm. A
//! brute-force reference for the *general* formulation on tiny inputs lives
//! in [`mod@reference`]; tests check the DP never beats it and matches it
//! on the curated cases (see the tie-break note below for why not always).
//!
//! ### The packed-key kernel
//!
//! Each DP cell is one `i64` key,
//! `state << 22 | (KMAX − kept) << 1 | is_rs`: the encoding-length state,
//! the number of pattern literals kept along the path, and the paper's
//! `type` bit. Ordering keys as integers orders cells by cost first, then by
//! more kept literals, then `isPattern` before `isRS`, so the cell step is
//! three branch-free candidates and two `min`s:
//!
//! * a sideways move (demote an element of `cs_x` or `cs_y`) adds
//!   Algorithm 2's delta to the source key and sets `is_rs`;
//! * the diagonal move (keep a shared literal) takes the upper-left key
//!   with one more kept literal and `is_rs` cleared, so it wins a full tie;
//! * a full tie between the two sideways moves is the same key, and
//!   traceback resolves it towards `cs_x`.
//!
//! [`min_encoding_length_increment`] runs the step over two rolling rows;
//! [`merge`] runs the same step over the full table and recovers each
//! cell's move from the keys alone. Keys stay exact while
//! `|state| < 2^40` and `kept < 2^20`; [`crate::clustering`] checks both
//! once per sample.
//!
//! ### Tie-break note
//!
//! Each cell keeps one path, and on equal cost it keeps the diagonal. The
//! DP therefore returns the cost of one valid alignment, which can exceed
//! the exhaustive optimum when keeping a literal makes a later demotion
//! open a new field (about 4% of random short inputs). The tie-break is
//! kept because trained dictionaries depend on it.
//!
//! ### Note on the paper's pseudo-code
//!
//! Algorithm 1 lines 16–19 set `type[i][j] = isRS` when the diagonal
//! (keep-in-pattern) transition is the unique minimum and `isPattern`
//! otherwise, which contradicts the semantics `UpdateState` relies on
//! (`isPattern` must mean "the previous aligned element stayed in the
//! pattern", so that the first later demotion pays the new-field descriptor
//! cost of `size_x + size_y`). We implement the semantically consistent
//! assignment: diagonal ⇒ `isPattern`, sideways ⇒ `isRS`.

use crate::cluster::PatElem;

/// Result of merging two wildcard sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOutcome {
    /// The encoding-length increment of Definition 3 (may be negative:
    /// merging two clusters with identical structure removes duplicate
    /// length descriptors).
    pub increment: i64,
    /// The merged wildcard sequence (adjacent gaps coalesced).
    pub cs: Vec<PatElem>,
}

/// Bit position of the encoding-length state in a cell key.
const STATE_SHIFT: u32 = 22;
/// Kept literals are stored as `KMAX − kept` so that more kept sorts lower.
const KMAX: i64 = 1 << 20;
/// Exclusive bound on `|state|` for which keys stay exact.
const STATE_LIMIT: i64 = 1 << 40;
/// Exclusive bound on the literals of any wildcard sequence (`kept` never
/// exceeds the literal count of either input).
pub(crate) const LITERAL_LIMIT: usize = 1 << 20;

/// The key of the empty alignment: state 0, nothing kept, `isPattern`.
const START: i64 = KMAX << 1;

/// The largest summed record weight whose clustering keeps cell keys exact
/// when no wildcard sequence holds more than `longest_literals` literals.
///
/// Merging never adds literals, and coalesced gaps sit between literals, so
/// every sequence has at most `2·L + 1` elements. A path through the table
/// takes at most `2·(2·L + 1)` steps and each step moves the state by at
/// most `2·W` (Algorithm 2 adds `size_x + size_y ≤ W` for a new field plus
/// `±size_own`), so `|state| ≤ 8·W·(L + 1)`, which stays below `2^40` up to
/// the returned weight. Callers also keep `L` below [`LITERAL_LIMIT`].
pub(crate) fn max_packed_weight(longest_literals: usize) -> usize {
    let per_weight = 8 * (longest_literals as u128 + 1);
    usize::try_from((STATE_LIMIT as u128 - 1) / per_weight).unwrap_or(usize::MAX)
}

/// Whether every cell key of a DP over these inputs is exact: a path takes
/// `n + m` steps of at most `2·(size_x + size_y)` each, and `kept` never
/// exceeds the literals of `cs_x`.
fn keys_exact(cs_x: &[PatElem], cs_y: &[PatElem], size_x: usize, size_y: usize) -> bool {
    let steps = (cs_x.len() + cs_y.len()) as u128;
    let literals = cs_x.iter().filter(|e| matches!(e, PatElem::Lit(_))).count();
    literals < LITERAL_LIMIT && 2 * (size_x as u128 + size_y as u128) * steps < STATE_LIMIT as u128
}

/// Algorithm 2's delta for demoting one element, pre-shifted into key
/// units. `own` is the member count of the element's cluster.
#[inline]
fn demote_delta(elem: PatElem, own: i64) -> i64 {
    match elem {
        // The demoted literal is stored by each record of its own cluster.
        PatElem::Lit(_) => own << STATE_SHIFT,
        // A wildcard absorbed into the new region refunds the descriptors
        // its own cluster had already paid for it.
        PatElem::Gap => -own << STATE_SHIFT,
    }
}

/// Algorithm 2 as a key step: demote an element whose delta is `delta`
/// after a cell with key `from`. `new_field` is `(size_x + size_y)` in key
/// units: when the previous element stayed in the pattern, a new residual
/// region starts and every merged record stores one more length descriptor.
#[inline(always)]
fn sideways(from: i64, delta: i64, new_field: i64) -> i64 {
    // `(from & 1) - 1` is all ones after `isPattern` and zero after `isRS`.
    (from | 1) + delta + (((from & 1) - 1) & new_field)
}

/// Diagonal step: keep a shared literal after the cell with key `from`.
#[inline(always)]
fn keep(from: i64) -> i64 {
    (from & !1) - 2
}

/// Element code for the diagonal test: literals share codes across the two
/// sides, gaps get side-specific codes so they never match.
#[inline]
fn code(elem: PatElem, gap: i16) -> i16 {
    match elem {
        PatElem::Lit(b) => i16::from(b),
        PatElem::Gap => gap,
    }
}

/// Per-call inputs of the cell step, precomputed once per sequence pair.
struct Kernel {
    /// `(size_x + size_y)` in key units.
    new_field: i64,
    /// Demotion deltas and diagonal codes of `cs_x`.
    dx: Vec<i64>,
    cx: Vec<i16>,
    /// Demotion deltas and diagonal codes of `cs_y`.
    dy: Vec<i64>,
    cy: Vec<i16>,
}

impl Kernel {
    fn new(cs_x: &[PatElem], cs_y: &[PatElem], size_x: usize, size_y: usize) -> Self {
        debug_assert!(
            keys_exact(cs_x, cs_y, size_x, size_y),
            "merge inputs outside the packed-key range"
        );
        let (sx, sy) = (size_x as i64, size_y as i64);
        Kernel {
            new_field: (sx + sy) << STATE_SHIFT,
            dx: cs_x.iter().map(|&e| demote_delta(e, sx)).collect(),
            cx: cs_x.iter().map(|&e| code(e, -1)).collect(),
            dy: cs_y.iter().map(|&e| demote_delta(e, sy)).collect(),
            cy: cs_y.iter().map(|&e| code(e, -2)).collect(),
        }
    }

    /// Row 0: consuming only `cs_y` demotes its elements.
    fn first_row(&self, row: &mut [i64]) {
        row[0] = START;
        for j in 0..self.dy.len() {
            row[j + 1] = sideways(row[j], self.dy[j], self.new_field);
        }
    }

    /// Fill row `i + 1` from row `i` (`prev`): the cell step of Algorithm 1.
    #[inline]
    fn next_row(&self, i: usize, prev: &[i64], cur: &mut [i64]) {
        let (dx, cx, new_field) = (self.dx[i], self.cx[i], self.new_field);
        let m = self.dy.len();
        let (prev, cur) = (&prev[..=m], &mut cur[..=m]);
        let mut left = sideways(prev[0], dx, new_field);
        cur[0] = left;
        for (j, (&dy, &cy)) in self.dy.iter().zip(&self.cy).enumerate() {
            // `from_x` and the diagonal do not depend on the left neighbour,
            // so only one step and one `min` sit on the row's serial chain.
            let from_x = sideways(prev[j + 1], dx, new_field);
            let diag = if cx == cy { keep(prev[j]) } else { i64::MAX };
            left = sideways(left, dy, new_field).min(from_x.min(diag));
            cur[j + 1] = left;
        }
    }
}

/// The encoding-length state held in a cell key.
#[inline]
fn state_of(key: i64) -> i64 {
    key >> STATE_SHIFT
}

/// Algorithm 1: compute the minimal encoding-length increment of merging two
/// clusters, without building the merged sequence.
///
/// The result is exact while `2·(size_x + size_y)·(n + m) < 2^40` and
/// `cs_x` holds fewer than `2^20` literals; clustering keeps every call
/// in that range.
pub fn min_encoding_length_increment(
    cs_x: &[PatElem],
    cs_y: &[PatElem],
    size_x: usize,
    size_y: usize,
) -> i64 {
    let kernel = Kernel::new(cs_x, cs_y, size_x, size_y);
    let width = cs_y.len() + 1;
    let mut prev = vec![0i64; width];
    let mut cur = vec![0i64; width];
    kernel.first_row(&mut prev);
    for i in 0..cs_x.len() {
        kernel.next_row(i, &prev, &mut cur);
        std::mem::swap(&mut prev, &mut cur);
    }
    state_of(prev[width - 1])
}

/// Algorithm 1 plus traceback: compute the increment and the merged
/// wildcard sequence. The range of [`min_encoding_length_increment`]
/// applies.
pub fn merge(cs_x: &[PatElem], cs_y: &[PatElem], size_x: usize, size_y: usize) -> MergeOutcome {
    let (n, m) = (cs_x.len(), cs_y.len());
    let width = m + 1;
    let kernel = Kernel::new(cs_x, cs_y, size_x, size_y);
    let mut table = vec![0i64; (n + 1) * width];
    kernel.first_row(&mut table[..width]);
    for i in 0..n {
        let (done, rest) = table.split_at_mut((i + 1) * width);
        kernel.next_row(i, &done[i * width..], &mut rest[..width]);
    }

    // Traceback from (n, m) to (0, 0). A cell with `is_rs` clear came in on
    // the diagonal; otherwise it came from `cs_x` whenever that move reaches
    // its key, which is the step's tie-break towards `cs_x`.
    let mut rev: Vec<PatElem> = Vec::with_capacity(n.max(m));
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        let key = table[i * width + j];
        if key & 1 == 0 {
            rev.push(cs_x[i - 1]);
            i -= 1;
            j -= 1;
        } else {
            rev.push(PatElem::Gap);
            let up = i.checked_sub(1).map(|u| table[u * width + j]);
            if up.is_some_and(|up| sideways(up, kernel.dx[i - 1], kernel.new_field) == key) {
                i -= 1;
            } else {
                j -= 1;
            }
        }
    }
    rev.reverse();
    // Coalesce adjacent gaps.
    let mut cs = Vec::with_capacity(rev.len());
    for e in rev {
        if matches!(e, PatElem::Gap) && matches!(cs.last(), Some(PatElem::Gap)) {
            continue;
        }
        cs.push(e);
    }
    MergeOutcome {
        increment: state_of(table[n * width + m]),
        cs,
    }
}

/// Brute-force reference implementations used to validate the DP on tiny
/// inputs.
pub mod reference {
    use super::*;

    /// Algorithm 2 on plain integers: demote one element of the cluster
    /// with `own` members after an element that stayed in the pattern
    /// (`after_pattern`) or was itself demoted.
    fn update_state(state: i64, after_pattern: bool, gap: bool, own: i64, other: i64) -> i64 {
        let new_field = if after_pattern { own + other } else { 0 };
        state + new_field + if gap { -own } else { own }
    }

    /// Exhaustively try every alignment of `cs_x` and `cs_y` (every way of
    /// interleaving "keep shared literal" / "demote x" / "demote y" moves)
    /// and return the minimal increment under Algorithm 2's cost model.
    /// Exponential — only for sequences of length ≲ 12.
    pub fn exhaustive_increment(
        cs_x: &[PatElem],
        cs_y: &[PatElem],
        size_x: usize,
        size_y: usize,
    ) -> i64 {
        #[allow(clippy::too_many_arguments)] // mirrors the paper's recurrence state
        fn recurse(
            cs_x: &[PatElem],
            cs_y: &[PatElem],
            i: usize,
            j: usize,
            acc: i64,
            after_pattern: bool,
            sx: i64,
            sy: i64,
        ) -> i64 {
            if i == cs_x.len() && j == cs_y.len() {
                return acc;
            }
            let mut best = i64::MAX;
            if i < cs_x.len() {
                let gap = matches!(cs_x[i], PatElem::Gap);
                let v = update_state(acc, after_pattern, gap, sx, sy);
                best = best.min(recurse(cs_x, cs_y, i + 1, j, v, false, sx, sy));
            }
            if j < cs_y.len() {
                let gap = matches!(cs_y[j], PatElem::Gap);
                let v = update_state(acc, after_pattern, gap, sy, sx);
                best = best.min(recurse(cs_x, cs_y, i, j + 1, v, false, sx, sy));
            }
            if i < cs_x.len() && j < cs_y.len() {
                if let (PatElem::Lit(a), PatElem::Lit(b)) = (cs_x[i], cs_y[j]) {
                    if a == b {
                        best = best.min(recurse(cs_x, cs_y, i + 1, j + 1, acc, true, sx, sy));
                    }
                }
            }
            best
        }
        recurse(cs_x, cs_y, 0, 0, 0, true, size_x as i64, size_y as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use proptest::prelude::*;

    fn cs(text: &str) -> Vec<PatElem> {
        Cluster::cs_from_str(text)
    }

    #[test]
    fn identical_sequences_merge_with_shared_pattern() {
        let out = merge(&cs("abcdef"), &cs("abcdef"), 1, 1);
        assert_eq!(
            out.cs,
            cs("abcdef"),
            "identical sequences keep every literal in the pattern"
        );
        assert_eq!(out.increment, 0);
    }

    #[test]
    fn paper_example_ab3_star_2_and_ab_star_12() {
        // Example 2 / Figure 4: merging "ab3*2" and "ab*12".
        let out = merge(&cs("ab3*2"), &cs("ab*12"), 1, 1);
        // The merged pattern must keep the common subsequence "ab", a gap,
        // and the trailing "2" — i.e. "ab*2" (the '3' of x, the '1' of y and
        // both wildcards collapse into one field).
        assert_eq!(out.cs, cs("ab*2"));
    }

    #[test]
    fn merged_literals_form_a_common_subsequence() {
        let a = cs("V5company_charging-100-57accenter20");
        let b = cs("V5company_charging-100-72accenter11");
        let out = merge(&a, &b, 1, 1);
        // Every literal of the merged sequence must be a subsequence of both.
        let lits: Vec<u8> = out
            .cs
            .iter()
            .filter_map(|e| match e {
                PatElem::Lit(c) => Some(*c),
                PatElem::Gap => None,
            })
            .collect();
        for source in [&a, &b] {
            let mut it = source.iter().filter_map(|e| match e {
                PatElem::Lit(c) => Some(*c),
                PatElem::Gap => None,
            });
            for l in &lits {
                assert!(
                    it.any(|c| c == *l),
                    "merged literal {l} must appear in order in both inputs"
                );
            }
        }
        assert!(lits.len() >= b"V5company_charging-100-".len());
    }

    #[test]
    fn similar_clusters_have_lower_increment_than_dissimilar_ones() {
        let base = cs("user=alice action=login status=ok elapsed=12ms");
        let similar = cs("user=bob action=login status=ok elapsed=7ms");
        let dissimilar = cs("7f3a9c0e-22bb-4f6d-9a1e-55c2ab99d001");
        let eli_similar = min_encoding_length_increment(&base, &similar, 4, 4);
        let eli_dissimilar = min_encoding_length_increment(&base, &dissimilar, 4, 4);
        assert!(
            eli_similar < eli_dissimilar,
            "similar: {eli_similar}, dissimilar: {eli_dissimilar}"
        );
    }

    #[test]
    fn increment_scales_with_cluster_sizes() {
        let a = cs("abcXdef");
        let b = cs("abcYdef");
        let small = min_encoding_length_increment(&a, &b, 1, 1);
        let large = min_encoding_length_increment(&a, &b, 100, 100);
        assert!(
            large > small,
            "demoting a literal costs every member record"
        );
    }

    #[test]
    fn dp_matches_exhaustive_reference_on_small_inputs() {
        let cases = [
            ("ab3*2", "ab*12"),
            ("abc", "abc"),
            ("abc", "xyz"),
            ("a*b", "ab"),
            ("*a*", "aa"),
            ("log_12", "log_99"),
            ("", "abc"),
            ("", ""),
            ("a*", "*a"),
        ];
        for (x, y) in cases {
            for (sx, sy) in [(1usize, 1usize), (2, 3), (5, 1)] {
                let dp = min_encoding_length_increment(&cs(x), &cs(y), sx, sy);
                let brute = reference::exhaustive_increment(&cs(x), &cs(y), sx, sy);
                assert_eq!(dp, brute, "x={x:?} y={y:?} sizes=({sx},{sy})");
            }
        }
    }

    #[test]
    fn diagonal_tie_break_can_cost_more_than_the_exhaustive_optimum() {
        // At (1, 3) keeping x's `c` ties with demoting y's `c` at 65, and the
        // diagonal wins; y's trailing `b` then opens a new field (+65 + 46)
        // that the demote-first path would not pay. The DP reports the cost
        // of the alignment it traces back, so this stays as is.
        let (x, y) = (cs("c"), cs("c*cb"));
        assert_eq!(min_encoding_length_increment(&x, &y, 19, 46), 176);
        assert_eq!(merge(&x, &y, 19, 46).increment, 176);
        assert_eq!(reference::exhaustive_increment(&x, &y, 19, 46), 111);
    }

    #[test]
    fn key_order_is_cost_then_kept_then_type() {
        let extreme = STATE_LIMIT - 1;
        let mut cells = Vec::new();
        for state in [-extreme, -1, 0, 1, extreme] {
            for kept in [0, 1, KMAX - 1] {
                for is_rs in [0, 1] {
                    let key = state << STATE_SHIFT | (KMAX - kept) << 1 | is_rs;
                    assert_eq!(state_of(key), state);
                    cells.push((key, (state, -kept, is_rs)));
                }
            }
        }
        let mut by_key = cells.clone();
        by_key.sort_by_key(|&(key, _)| key);
        cells.sort_by_key(|&(_, fields)| fields);
        assert_eq!(by_key, cells);
    }

    #[test]
    fn keys_stay_exact_at_the_widest_allowed_input() {
        let longest = 7;
        let widest = max_packed_weight(longest);
        let bound = |w: usize| 8 * w as u128 * (longest as u128 + 1);
        assert!(bound(widest) < STATE_LIMIT as u128);
        assert!(bound(widest + 1) >= STATE_LIMIT as u128);
        let cases = [
            ("abcdefg", "hijklmn"), // every literal demoted: largest cost
            ("*******", ""),        // every wildcard refunded: most negative
            ("a*b*c*d", "*e*f*g*"),
            ("abcdefg", "abcdefg"),
        ];
        for (x, y) in cases {
            for (sx, sy) in [
                (widest - 1, 1),
                (widest / 2, widest - widest / 2),
                (1, widest - 1),
            ] {
                let (x, y) = (cs(x), cs(y));
                let score = min_encoding_length_increment(&x, &y, sx, sy);
                assert_eq!(score, merge(&x, &y, sx, sy).increment);
                assert_eq!(score, reference::exhaustive_increment(&x, &y, sx, sy));
            }
        }
        let x = cs("abcdefg");
        let top = min_encoding_length_increment(&x, &cs("hijklmn"), widest - 1, 1);
        assert!(top > 1 << 36, "the test reaches high state bits: {top}");
    }

    #[test]
    fn empty_sequences_merge_trivially() {
        let out = merge(&cs(""), &cs(""), 3, 4);
        assert_eq!(out.increment, 0);
        assert!(out.cs.is_empty());
        let out = merge(&cs("abc"), &cs(""), 2, 2);
        assert_eq!(out.cs, cs("*"));
    }

    #[test]
    fn merged_gaps_are_coalesced() {
        let out = merge(&cs("a*b*c"), &cs("axbyc"), 1, 1);
        // No two adjacent gaps in the output.
        for w in out.cs.windows(2) {
            assert!(
                !(matches!(w[0], PatElem::Gap) && matches!(w[1], PatElem::Gap)),
                "adjacent gaps must be coalesced: {:?}",
                out.cs
            );
        }
        assert_eq!(out.cs, cs("a*b*c"));
    }

    fn elems() -> impl Strategy<Value = Vec<PatElem>> {
        let elem = prop_oneof![Just(PatElem::Gap), (b'a'..b'd').prop_map(PatElem::Lit)];
        proptest::collection::vec(elem, 0..11)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn kernel_merge_and_exhaustive_reference_agree(
            x in elems(),
            y in elems(),
            sx in 1usize..51,
            sy in 1usize..51,
        ) {
            let score = min_encoding_length_increment(&x, &y, sx, sy);
            let merged = merge(&x, &y, sx, sy);
            prop_assert_eq!(score, merged.increment);
            // The DP costs one real alignment, so it never beats the
            // optimum; see the diagonal tie-break test for the gap.
            prop_assert!(reference::exhaustive_increment(&x, &y, sx, sy) <= score);
            let literals = |s: &[PatElem]| s.iter().filter(|e| matches!(e, PatElem::Lit(_))).count();
            prop_assert!(literals(&merged.cs) <= literals(&x).min(literals(&y)));
        }
    }
}
