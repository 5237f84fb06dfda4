//! Greedy agglomerative clustering with the minimal-encoding-length
//! criterion (Section 4.2, Figure 3), plus the edit-distance and entropy
//! criteria used by the ablation of Figure 7, and the 1-gram pruning of
//! Section 5.1.
//!
//! Every sample record starts as its own cluster; each iteration merges the
//! pair of clusters with the smallest encoding-length increment until only
//! `target_clusters` remain. Candidate pairs are kept in a lazy priority
//! queue: with pruning enabled a pair enters the queue with its cheap 1-gram
//! estimate and is only evaluated with the exact `O(n·m)` dynamic program
//! ([`crate::dp`]'s packed-key kernel) when it reaches the front — the
//! paper's work-avoidance idea, organised as a lazy queue rather than
//! threshold pruning.
//!
//! ### Speculative scoring
//!
//! Nearly all training time is spent in those exact evaluations, and they
//! reach the front one at a time. When the front is an un-scored candidate,
//! the loop takes up to 16 live un-scored candidates from the front of the
//! queue, scores them on `available_parallelism()` scoped threads into a
//! memo keyed by the pair's cluster stamps, and puts every entry back. The
//! sequential loop then runs unchanged and reads scores from the memo. A
//! memo entry leaves when its pair is consumed or when either cluster is
//! merged away, so the memo stays small.
//!
//! **Guarantee:** clusters, `merges`, `exact_evaluations` (which counts the
//! scores the loop requests, not the speculative work) and `pruned_pairs`
//! are identical to the sequential lazy queue for any worker count. The
//! queue orders candidates by `(score, stamp, stamp)`, a total order, and a
//! pair's score is a pure function of its two clusters, which never change
//! while their stamps are live.
//!
//! Before clustering, the sample is checked once against the DP's
//! packed-key range (`|state| < 2^40`, `kept < 2^20`): the sequence cap is
//! held below `2^20` literals and, like long-record samples in
//! [`crate::extraction`], an out-of-range sample keeps only the prefix that
//! fits.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::thread;

use crate::cluster::{Cluster, PatElem};
use crate::dp;
use crate::entropy::entropy_discriminant;

/// Which closeness measure drives the greedy merging (Figure 7's ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// The paper's criterion: minimal encoding-length increment
    /// (Definition 3, computed by Algorithm 1).
    EncodingLength,
    /// Baseline: Levenshtein distance between the clusters' wildcard
    /// sequences.
    EditDistance,
    /// Baseline: the entropy discriminant of Section 6 (Equation 9).
    Entropy,
}

/// Clustering parameters.
#[derive(Debug, Clone)]
pub struct ClusteringConfig {
    /// Stop when this many clusters remain (the paper's `k`).
    pub target_clusters: usize,
    /// Closeness criterion.
    pub criterion: Criterion,
    /// Enable the 1-gram lower-bound pruning of Section 5.1.
    pub use_onegram_pruning: bool,
    /// Cap on the wildcard-sequence length used during clustering; longer
    /// records are clustered on their prefix (a trailing gap keeps the
    /// resulting pattern matching complete records).
    pub max_cs_len: usize,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            target_clusters: 64,
            criterion: Criterion::EncodingLength,
            use_onegram_pruning: true,
            max_cs_len: 512,
        }
    }
}

/// Output of [`cluster_records`], including the work counters reported by
/// the Figure 8 experiment.
#[derive(Debug, Clone)]
pub struct ClusteringResult {
    /// The surviving clusters.
    pub clusters: Vec<Cluster>,
    /// Number of merges performed.
    pub merges: usize,
    /// Number of exact distance evaluations (dynamic programs / edit
    /// distances) that were run.
    pub exact_evaluations: usize,
    /// Number of candidate pairs whose exact evaluation was avoided because
    /// the pair never reached the front of the queue before its clusters
    /// were merged away.
    pub pruned_pairs: usize,
}

/// Most candidates [`speculate`] scores in one batch.
const SPECULATION_BATCH: usize = 16;
/// Most queue entries [`speculate`] examines to fill one batch.
const SPECULATION_WINDOW: usize = 4 * SPECULATION_BATCH;

/// Heap entry: candidate merge of two clusters identified by generation
/// stamps. `exact` records whether `score` is the exact criterion value or
/// the cheap lower bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    score: i64,
    a: u64,
    b: u64,
    exact: bool,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .cmp(&other.score)
            .then_with(|| self.a.cmp(&other.a))
            .then_with(|| self.b.cmp(&other.b))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Greedy agglomerative clustering of `samples` under the given
/// configuration.
pub fn cluster_records(samples: &[Vec<u8>], config: &ClusteringConfig) -> ClusteringResult {
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    cluster_records_with_workers(samples, config, workers)
}

/// [`cluster_records`] with speculative scoring on `workers` threads (one
/// thread scores sequentially). The result does not depend on `workers`.
fn cluster_records_with_workers(
    samples: &[Vec<u8>],
    config: &ClusteringConfig,
    workers: usize,
) -> ClusteringResult {
    // --- Keep the DP's packed cell keys exact (see `dp`): cap the sequence
    // length and, like `extract_from_samples` does for long records, keep a
    // prefix of the sample small enough for its total weight. ---
    let max_cs_len = config.max_cs_len.min(dp::LITERAL_LIMIT - 1);
    let longest = samples
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .min(max_cs_len);
    let samples = &samples[..samples.len().min(dp::max_packed_weight(longest))];

    // --- Deduplicate identical records (they trivially share a pattern). ---
    // pbc-allow(determinism): lookup-only dedup index, never iterated; slot order follows input order
    let mut first_index: HashMap<&[u8], usize> = HashMap::new();
    let mut weights: Vec<usize> = Vec::new();
    let mut representatives: Vec<usize> = Vec::new();
    let mut extra_members: Vec<Vec<usize>> = Vec::new();
    for (i, rec) in samples.iter().enumerate() {
        match first_index.get(rec.as_slice()) {
            Some(&slot) => {
                weights[slot] += 1;
                extra_members[slot].push(i);
            }
            None => {
                first_index.insert(rec.as_slice(), representatives.len());
                representatives.push(i);
                weights.push(1);
                extra_members.push(Vec::new());
            }
        }
    }

    // --- Build singleton clusters. ---
    // Keyed by generation stamp in a BTreeMap: every iteration over the
    // active set (pair seeding, re-pairing after a merge, final collection)
    // must follow a deterministic order, or extracted dictionaries differ
    // between identically-trained compressors (HashMap order is randomized
    // per instance, which broke pbc-archive's byte-identical-segments
    // guarantee).
    let mut stamps: u64 = 0;
    let mut active: BTreeMap<u64, Cluster> = BTreeMap::new();
    for (slot, &rep) in representatives.iter().enumerate() {
        let mut cluster = Cluster::singleton(rep, &samples[rep], weights[slot], max_cs_len);
        cluster.members.extend(extra_members[slot].iter().copied());
        active.insert(stamps, cluster);
        stamps += 1;
    }

    let mut result = ClusteringResult {
        clusters: Vec::new(),
        merges: 0,
        exact_evaluations: 0,
        pruned_pairs: 0,
    };

    if active.len() <= config.target_clusters {
        result.clusters = active.into_values().collect();
        return result;
    }

    // --- Seed the candidate queue with all pairs. ---
    let mut heap: BinaryHeap<Reverse<Candidate>> = BinaryHeap::new();
    let ids: Vec<u64> = active.keys().copied().collect();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            let ca = &active[&a];
            let cb = &active[&b];
            let candidate = seed_candidate(ca, cb, a, b, config, &mut result);
            heap.push(Reverse(candidate));
        }
    }

    // --- Greedy merging. ---
    // Exact scores computed ahead of the loop by `speculate`, keyed by the
    // candidate's stamps. A score stays valid while both clusters are live.
    let mut memo: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    while active.len() > config.target_clusters {
        let Some(Reverse(cand)) = heap.pop() else {
            break;
        };
        let (Some(ca), Some(cb)) = (active.get(&cand.a), active.get(&cand.b)) else {
            // One of the clusters was already merged away: the pair is stale.
            if !cand.exact {
                result.pruned_pairs += 1;
            }
            continue;
        };
        if !cand.exact {
            // Lazily replace the lower bound with the exact value and requeue.
            let key = (cand.a, cand.b);
            if workers > 1 && !memo.contains_key(&key) {
                speculate(
                    &mut heap,
                    &active,
                    key,
                    config.criterion,
                    workers,
                    &mut memo,
                );
            }
            let exact = memo
                .remove(&key)
                .unwrap_or_else(|| score(ca, cb, config.criterion));
            result.exact_evaluations += 1;
            heap.push(Reverse(Candidate {
                score: exact,
                a: cand.a,
                b: cand.b,
                exact: true,
            }));
            continue;
        }

        // Merge the pair.
        let merged_cs = merge_cs(ca, cb);
        let merged = Cluster::merged_from(ca, cb, merged_cs);
        active.remove(&cand.a);
        active.remove(&cand.b);
        let gone = [cand.a, cand.b];
        memo.retain(|(a, b), _| !gone.contains(a) && !gone.contains(b));
        let new_id = stamps;
        stamps += 1;
        result.merges += 1;

        // New candidate pairs between the merged cluster and all survivors.
        for (&other_id, other) in active.iter() {
            let candidate = seed_candidate(&merged, other, new_id, other_id, config, &mut result);
            heap.push(Reverse(candidate));
        }
        active.insert(new_id, merged);
    }

    result.clusters = active.into_values().collect();
    result
}

/// Exactly score up to [`SPECULATION_BATCH`] live, un-scored candidates
/// from the front of the queue, `first` among them, on `workers` threads,
/// and record the scores in `memo`.
///
/// Every entry examined goes back into the queue unchanged, so the
/// sequential loop still pops the same candidates in the same order; it
/// only finds some scores already computed. Which pairs get scored ahead
/// therefore changes the work done, never the result.
fn speculate(
    heap: &mut BinaryHeap<Reverse<Candidate>>,
    active: &BTreeMap<u64, Cluster>,
    first: (u64, u64),
    criterion: Criterion,
    workers: usize,
    memo: &mut BTreeMap<(u64, u64), i64>,
) {
    let mut batch = vec![first];
    let mut examined = Vec::with_capacity(SPECULATION_WINDOW);
    while batch.len() < SPECULATION_BATCH && examined.len() < SPECULATION_WINDOW {
        let Some(Reverse(cand)) = heap.pop() else {
            break;
        };
        examined.push(Reverse(cand));
        let key = (cand.a, cand.b);
        let live = active.contains_key(&cand.a) && active.contains_key(&cand.b);
        if !cand.exact && live && !memo.contains_key(&key) {
            batch.push(key);
        }
    }
    heap.extend(examined);

    let scores: Vec<AtomicI64> = batch.iter().map(|_| AtomicI64::new(0)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        // The scope's join orders these stores before the reads below.
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&(a, b)) = batch.get(i) else {
            break;
        };
        scores[i].store(
            score(&active[&a], &active[&b], criterion),
            Ordering::Relaxed,
        );
    };
    thread::scope(|scope| {
        for _ in 1..workers.min(batch.len()) {
            // If a helper cannot start, the calling thread scores its share.
            if thread::Builder::new().spawn_scoped(scope, work).is_err() {
                break;
            }
        }
        work();
    });
    memo.extend(
        batch
            .into_iter()
            .zip(scores.into_iter().map(AtomicI64::into_inner)),
    );
}

/// Build the initial candidate entry for a pair: the exact score when
/// pruning is off (or for non-EL criteria), the 1-gram lower bound otherwise.
fn seed_candidate(
    ca: &Cluster,
    cb: &Cluster,
    a: u64,
    b: u64,
    config: &ClusteringConfig,
    result: &mut ClusteringResult,
) -> Candidate {
    if config.use_onegram_pruning && config.criterion == Criterion::EncodingLength {
        let bound = ca
            .onegram
            .merge_lower_bound(&cb.onegram, ca.weight, cb.weight);
        Candidate {
            score: bound,
            a,
            b,
            exact: false,
        }
    } else {
        result.exact_evaluations += 1;
        Candidate {
            score: score(ca, cb, config.criterion),
            a,
            b,
            exact: true,
        }
    }
}

/// Exact criterion value for a pair of clusters.
fn score(ca: &Cluster, cb: &Cluster, criterion: Criterion) -> i64 {
    match criterion {
        Criterion::EncodingLength => {
            dp::min_encoding_length_increment(&ca.cs, &cb.cs, ca.weight, cb.weight)
        }
        Criterion::EditDistance => edit_distance(&ca.cs, &cb.cs),
        Criterion::Entropy => {
            let merged = dp::merge(&ca.cs, &cb.cs, ca.weight, cb.weight);
            let merged_literal_len = merged
                .cs
                .iter()
                .filter(|e| matches!(e, PatElem::Lit(_)))
                .count();
            entropy_discriminant(ca, cb, merged_literal_len)
        }
    }
}

/// Merged wildcard sequence of two clusters (always via the DP alignment, so
/// all three criteria produce valid patterns and only the *selection* of
/// pairs differs — which is what the ablation isolates).
fn merge_cs(ca: &Cluster, cb: &Cluster) -> Vec<PatElem> {
    dp::merge(&ca.cs, &cb.cs, ca.weight, cb.weight).cs
}

/// Levenshtein distance between two wildcard sequences (gaps count as an
/// ordinary symbol), used by the edit-distance ablation arm.
pub fn edit_distance(a: &[PatElem], b: &[PatElem]) -> i64 {
    let n = a.len();
    let m = b.len();
    if n == 0 {
        return m as i64;
    }
    if m == 0 {
        return n as i64;
    }
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m] as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv_like_samples() -> Vec<Vec<u8>> {
        let mut samples = Vec::new();
        for i in 0..30 {
            samples.push(
                format!(
                    "user_profile:{{\"id\": {}, \"plan\": \"pro\", \"active\": true}}",
                    1000 + i
                )
                .into_bytes(),
            );
        }
        for i in 0..30 {
            samples.push(
                format!(
                    "order_event:{{\"order\": {}, \"status\": \"shipped\", \"items\": {}}}",
                    77000 + i,
                    i % 9
                )
                .into_bytes(),
            );
        }
        for i in 0..30 {
            samples.push(
                format!(
                    "2023-06-0{} INFO worker-{} heartbeat ok",
                    (i % 9) + 1,
                    i % 4
                )
                .into_bytes(),
            );
        }
        samples
    }

    #[test]
    fn clustering_recovers_the_three_record_families() {
        let samples = kv_like_samples();
        let config = ClusteringConfig {
            target_clusters: 3,
            ..ClusteringConfig::default()
        };
        let result = cluster_records(&samples, &config);
        assert_eq!(result.clusters.len(), 3);
        // Each cluster should be pure: all members from the same family.
        for cluster in &result.clusters {
            let families: std::collections::HashSet<usize> =
                cluster.members.iter().map(|&i| i / 30).collect();
            assert_eq!(
                families.len(),
                1,
                "cluster {} mixes families {:?}",
                cluster.display(),
                families
            );
        }
        // Total membership is preserved.
        let total: usize = result.clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, samples.len());
        assert_eq!(result.merges, samples.len() - 3 - duplicates(&samples));
    }

    fn duplicates(samples: &[Vec<u8>]) -> usize {
        let unique: std::collections::HashSet<&[u8]> =
            samples.iter().map(|s| s.as_slice()).collect();
        samples.len() - unique.len()
    }

    #[test]
    fn clusters_retain_shared_literals_in_their_patterns() {
        let samples = kv_like_samples();
        let config = ClusteringConfig {
            target_clusters: 3,
            ..ClusteringConfig::default()
        };
        let result = cluster_records(&samples, &config);
        let displays: Vec<String> = result.clusters.iter().map(|c| c.display()).collect();
        assert!(
            displays.iter().any(|d| d.contains("user_profile")),
            "expected a user_profile pattern in {displays:?}"
        );
        assert!(displays.iter().any(|d| d.contains("order_event")));
        assert!(displays.iter().any(|d| d.contains("INFO worker-")));
    }

    #[test]
    fn pruned_and_unpruned_clustering_agree_on_cluster_count_and_quality() {
        let samples = kv_like_samples();
        let base = ClusteringConfig {
            target_clusters: 3,
            ..ClusteringConfig::default()
        };
        let pruned = cluster_records(&samples, &base);
        let naive = cluster_records(
            &samples,
            &ClusteringConfig {
                use_onegram_pruning: false,
                ..base
            },
        );
        assert_eq!(pruned.clusters.len(), naive.clusters.len());
        // Pruning must reduce the number of exact DP evaluations.
        assert!(
            pruned.exact_evaluations < naive.exact_evaluations,
            "pruned {} vs naive {}",
            pruned.exact_evaluations,
            naive.exact_evaluations
        );
    }

    #[test]
    fn fewer_unique_records_than_target_returns_singletons() {
        let samples = vec![b"a".to_vec(), b"b".to_vec(), b"a".to_vec()];
        let config = ClusteringConfig {
            target_clusters: 10,
            ..ClusteringConfig::default()
        };
        let result = cluster_records(&samples, &config);
        assert_eq!(result.clusters.len(), 2);
        assert_eq!(result.merges, 0);
        // The duplicate record is folded into one cluster with weight 2.
        let weights: Vec<usize> = result.clusters.iter().map(|c| c.weight).collect();
        assert!(weights.contains(&2));
    }

    #[test]
    fn all_criteria_produce_valid_partitions() {
        let samples = kv_like_samples();
        for criterion in [
            Criterion::EncodingLength,
            Criterion::EditDistance,
            Criterion::Entropy,
        ] {
            let config = ClusteringConfig {
                target_clusters: 4,
                criterion,
                ..ClusteringConfig::default()
            };
            let result = cluster_records(&samples, &config);
            assert_eq!(result.clusters.len(), 4, "criterion {criterion:?}");
            let total: usize = result.clusters.iter().map(|c| c.members.len()).sum();
            assert_eq!(total, samples.len(), "criterion {criterion:?}");
        }
    }

    #[test]
    fn edit_distance_matches_known_values() {
        use crate::cluster::Cluster;
        let d =
            |a: &str, b: &str| edit_distance(&Cluster::cs_from_str(a), &Cluster::cs_from_str(b));
        assert_eq!(d("kitten", "sitting"), 3);
        assert_eq!(d("", "abc"), 3);
        assert_eq!(d("abc", "abc"), 0);
        assert_eq!(d("a*c", "abc"), 1);
    }

    #[test]
    fn empty_sample_set_yields_no_clusters() {
        let result = cluster_records(&[], &ClusteringConfig::default());
        assert!(result.clusters.is_empty());
        assert_eq!(result.merges, 0);
    }

    /// `records.len() / count`-strided sample, as Table 3 trains.
    fn strided(records: &[Vec<u8>], count: usize) -> Vec<&[u8]> {
        let step = (records.len() / count).max(1);
        records
            .iter()
            .step_by(step)
            .take(count)
            .map(Vec::as_slice)
            .collect()
    }

    /// FNV-1a, 64-bit.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn result_does_not_depend_on_the_worker_count() {
        let records = pbc_datagen::Dataset::Hdfs.generate(4000, 11);
        let samples: Vec<Vec<u8>> = strided(&records, 96)
            .into_iter()
            .map(<[u8]>::to_vec)
            .collect();
        let config = ClusteringConfig {
            target_clusters: 8,
            ..ClusteringConfig::default()
        };
        let summary = |workers| {
            let r = cluster_records_with_workers(&samples, &config, workers);
            let clusters: Vec<_> = r
                .clusters
                .iter()
                .map(|c| (c.cs.clone(), c.members.clone(), c.weight))
                .collect();
            (clusters, r.merges, r.exact_evaluations, r.pruned_pairs)
        };
        let sequential = summary(1);
        assert!(
            sequential.2 > SPECULATION_BATCH,
            "speculation must get to run"
        );
        for workers in [2, 4] {
            assert_eq!(summary(workers), sequential, "workers = {workers}");
        }
    }

    #[test]
    fn pbc_f_dictionaries_match_the_sequential_four_table_reference() {
        // Dictionary hashes and exact-evaluation counts recorded with the
        // sequential lazy queue over the original four-table DP. A change
        // here changes every compressed byte the dictionary produces.
        use pbc_datagen::Dataset;
        let golden = [
            (Dataset::Android, 0x4780_84d1_7c82_2219, 933),
            (Dataset::Hdfs, 0x45fd_b0ea_b359_1d56, 1226),
            (Dataset::Kv2, 0x110b_cbcb_f679_f634, 2781),
        ];
        for (dataset, hash, evaluations) in golden {
            let records = dataset.generate(2000, 7);
            let pbc = crate::PbcCompressor::train_fsst(
                &strided(&records, 64),
                &crate::PbcConfig::small(),
            );
            let name = dataset.name();
            assert_eq!(fnv1a64(&pbc.dictionary().serialize()), hash, "{name}");
            let report = pbc.extraction_report().expect("trained, not loaded");
            assert_eq!(report.exact_evaluations, evaluations, "{name}");
        }
    }
}
