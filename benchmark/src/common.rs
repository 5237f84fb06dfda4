//! Pieces every workload shares: seeded randomness and key choice, the
//! run's result, traced/untraced slicing, registry deltas, and the
//! process's peak memory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pbc_obs::Snapshot;

use crate::stats::Histogram;
use crate::trace::Tracer;

/// Seed of the generated corpora. They stay fixed so that set-up time and
/// compression ratio measure the program rather than the sample drawn;
/// the run's `--seed` drives everything the clients do with them.
pub const CORPUS_SEED: u64 = 0x5ba1_ce11;

/// What every workload gets from the command line.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: u64,
    pub tracer: &'a Tracer,
    /// Directory for the run's stores, inside the checkout.
    pub dir: &'a Path,
}

/// splitmix64: small, fast, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A derived generator, independent of this one's later draws.
    pub fn fork(&mut self) -> Rng {
        Rng(self.next_u64())
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// YCSB's scrambled zipfian generator (constant 0.99) over key indices
/// `0..n`: ranks are drawn zipfian, then mapped to key indices through a
/// fixed random permutation, so popular keys are spread over the key space.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: usize,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    /// Key index of each rank.
    keys: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let theta = 0.99;
        let zeta = |k: usize| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let (zeta_n, zeta_2) = (zeta(n), zeta(2));
        let mut keys: Vec<u32> = (0..n as u32).collect();
        Rng::new(CORPUS_SEED ^ n as u64).shuffle(&mut keys);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zeta_n,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n),
            keys,
        }
    }

    /// The key index of the next draw.
    pub fn next(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let uz = u * self.zeta_n;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize
        };
        self.keys[rank.min(self.n - 1)] as usize
    }
}

/// Client-side latencies, one histogram per operation type.
#[derive(Clone, Default)]
pub struct Latencies {
    pub get: Histogram,
    pub write: Histogram,
    pub scan: Histogram,
}

impl Latencies {
    pub fn merge(&mut self, other: &Latencies) {
        self.get.merge(&other.get);
        self.write.merge(&other.write);
        self.scan.merge(&other.scan);
    }
}

/// Failure accounting for the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub attempted: u64,
    /// Calls that returned an error other than `Busy`.
    pub errors: u64,
    /// `Busy` refusals.
    pub busy: u64,
    /// Results that differ from the benchmark's model.
    pub wrong: u64,
}

impl Counts {
    pub fn merge(&mut self, other: &Counts) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.busy += other.busy;
        self.wrong += other.wrong;
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.busy + self.wrong
    }
}

/// Alternates traced and untraced slices of the timed phase, so one
/// traced run measures its own tracing overhead under the same state.
/// Untraced runs never trace.
#[derive(Debug, Clone, Copy)]
pub struct Slicer {
    tracing: bool,
    start: Instant,
}

/// Length of one traced or untraced slice.
const SLICE: Duration = Duration::from_millis(250);

impl Slicer {
    pub fn new(tracing: bool, start: Instant) -> Slicer {
        Slicer { tracing, start }
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    /// Whether an operation starting at `now` is traced.
    pub fn traced(&self, now: Instant) -> bool {
        self.tracing
            && (now.saturating_duration_since(self.start).as_millis() / SLICE.as_millis()) % 2 == 1
    }

    /// Seconds of `elapsed` spent in (untraced, traced) slices.
    pub fn split(&self, elapsed: Duration) -> (f64, f64) {
        let slice = SLICE.as_secs_f64();
        let total = elapsed.as_secs_f64();
        let pairs = (total / (2.0 * slice)).floor();
        let rest = total - pairs * 2.0 * slice;
        let untraced = pairs * slice + rest.min(slice);
        (untraced, total - untraced)
    }
}

/// Operations counted by the slice they started in.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceOps {
    pub untraced: u64,
    pub traced: u64,
}

impl SliceOps {
    pub fn add(&mut self, traced: bool) {
        if traced {
            self.traced += 1;
        } else {
            self.untraced += 1;
        }
    }

    pub fn merge(&mut self, other: &SliceOps) {
        self.untraced += other.untraced;
        self.traced += other.traced;
    }
}

/// Operations completed per half-second window of the timed phase.
#[derive(Debug, Clone)]
pub struct Windows {
    start: Instant,
    counts: Vec<u64>,
}

const WINDOW: Duration = Duration::from_millis(500);

impl Windows {
    pub fn new(start: Instant) -> Windows {
        Windows {
            start,
            counts: Vec::new(),
        }
    }

    /// Count one operation that completed at `at`.
    pub fn add(&mut self, at: Instant) {
        let i = (at.saturating_duration_since(self.start).as_nanos() / WINDOW.as_nanos()) as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
    }

    pub fn merge(&mut self, other: &Windows) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Median per-second rate over the windows wholly inside `elapsed`.
    /// A stall in one window, such as a burst from a neighbour on a shared
    /// machine, moves it less than it moves the mean.
    pub fn median_rate(&self, elapsed: Duration) -> f64 {
        let full = (elapsed.as_nanos() / WINDOW.as_nanos()) as usize;
        let rates: Vec<f64> = (0..full.max(1))
            .map(|i| self.counts.get(i).copied().unwrap_or(0) as f64 / WINDOW.as_secs_f64())
            .collect();
        crate::stats::median(&rates)
    }
}

/// What a workload hands back to the report.
pub struct Outcome {
    /// End-to-end metrics this workload defines (by spec name).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (by spec name); absent ones report 0.
    pub layers: BTreeMap<&'static str, f64>,
    pub counts: Counts,
    pub latencies: Latencies,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
    /// Why the run does not count, besides failed operations: program
    /// errors outside the clients' calls, or a timed phase that did not
    /// exercise what its workload is for. Any entry makes it incorrect.
    pub invalid: Vec<String>,
}

impl Outcome {
    pub fn new(counts: Counts, latencies: Latencies) -> Outcome {
        Outcome {
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            counts,
            latencies,
            notes: Vec::new(),
            invalid: Vec::new(),
        }
    }

    /// Whether every operation succeeded with the model's result and
    /// nothing else made the run invalid.
    pub fn correct(&self) -> bool {
        self.counts.failed() == 0 && self.invalid.is_empty()
    }

    /// Record the share of the clients' time spent outside program calls.
    pub fn client_time(&mut self, elapsed: Duration, clients: u32) {
        let lat = &self.latencies;
        let inside = lat.get.sum_s() + lat.write.sum_s() + lat.scan.sum_s();
        let busy = elapsed.as_secs_f64() * f64::from(clients);
        self.layers
            .insert("bench.client_self_frac", 1.0 - inside / busy);
    }

    /// Record the traced-slice throughput split of a traced run.
    pub fn trace_split(&mut self, slicer: &Slicer, ops: SliceOps, elapsed: Duration) {
        if !slicer.tracing {
            return;
        }
        let (untraced_s, traced_s) = slicer.split(elapsed);
        let untraced = ops.untraced as f64 / untraced_s.max(1e-9);
        let traced = ops.traced as f64 / traced_s.max(1e-9);
        self.layers.insert("trace.ops_per_s_untraced", untraced);
        self.layers.insert("trace.ops_per_s_traced", traced);
        self.layers
            .insert("trace.overhead_frac", 1.0 - traced / untraced.max(1e-9));
    }
}

/// Counter and histogram changes between two registry snapshots.
pub struct Delta<'a> {
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
}

impl Delta<'_> {
    pub fn counter(&self, name: &str) -> u64 {
        let at = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
        at(self.after).saturating_sub(at(self.before))
    }

    /// (count, sum) change of a histogram.
    pub fn hist(&self, name: &str) -> (u64, u64) {
        let at = |s: &Snapshot| s.histograms.get(name).map_or((0, 0), |h| (h.count, h.sum));
        let (a, b) = (at(self.after), at(self.before));
        (a.0.saturating_sub(b.0), a.1.saturating_sub(b.1))
    }

    /// Summed nanoseconds of a latency histogram, in seconds.
    pub fn secs(&self, name: &str) -> f64 {
        self.hist(name).1 as f64 / 1e9
    }

    /// Mean recorded value of a histogram over the window.
    pub fn mean(&self, name: &str) -> f64 {
        let (count, sum) = self.hist(name);
        ratio(sum, count)
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A directory under the run directory, removed (with its contents) on
/// drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(root: &Path, tag: &str) -> std::io::Result<ScratchDir> {
        let dir = root.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_spread_and_in_range() {
        let zipf = Zipf::new(10_000);
        let mut rng = Rng::new(7);
        let mut hits = vec![0u32; 10_000];
        for _ in 0..100_000 {
            hits[zipf.next(&mut rng)] += 1;
        }
        let mut sorted = hits.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top_100: u32 = sorted[..100].iter().sum();
        assert!(top_100 > 30_000, "top 1% of keys draw {top_100} of 100k");
        assert!(hits.iter().filter(|&&h| h > 0).count() > 3_000);
        // Scrambled: the first 1% of the key space is not the popular 1%.
        let first_100: u32 = hits[..100].iter().sum();
        assert!(first_100 < 10_000, "keys 0..100 draw {first_100} of 100k");
        let mut keys = zipf.keys.clone();
        keys.sort_unstable();
        assert!(keys.iter().enumerate().all(|(i, &k)| k as usize == i));
    }

    #[test]
    fn slicer_alternates_and_splits_time() {
        let start = Instant::now();
        let s = Slicer::new(true, start);
        assert!(!s.traced(start));
        assert!(s.traced(start + SLICE));
        assert!(!s.traced(start + 2 * SLICE));
        assert!(!Slicer::new(false, start).traced(start + SLICE));
        let (u, t) = s.split(Duration::from_millis(1_100));
        assert!((u - 0.6).abs() < 1e-9 && (t - 0.5).abs() < 1e-9, "{u} {t}");
    }

    #[test]
    fn windows_report_the_median_rate() {
        let start = Instant::now();
        let mut w = Windows::new(start);
        for (window, n) in [(0u64, 10), (1, 30), (2, 20), (3, 99)] {
            for _ in 0..n {
                w.add(start + Duration::from_millis(window * 500 + 1));
            }
        }
        let mut other = Windows::new(start);
        other.add(start);
        w.merge(&other);
        // Window 3 is not wholly inside 1.9 s; rates 22, 60, 40 per second.
        assert_eq!(w.median_rate(Duration::from_millis(1_900)), 40.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
